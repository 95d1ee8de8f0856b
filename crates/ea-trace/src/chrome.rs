//! Chrome Trace Event Format export of real runtime spans.
//!
//! Follows the conventions of `ea-sim::chrome` for *simulated*
//! timelines — `thread_name` metadata events, `ph:"X"` spans with µs
//! timestamps, `compute`/`comm` categories, `F{micro}`/`B{micro}`
//! labels — so a recorded real run and its simulation open side by side
//! in `chrome://tracing` / Perfetto. Real threads map to Chrome `tid`s
//! within one process (`pid` 0); stage workers carry their `stage{k}`
//! thread names. [`chrome_trace_json_fleet`] extends the same format to
//! a fleet: each pushed process becomes one Chrome `pid` with a
//! `process_name` metadata record, and events carry their correlation
//! `ctx` so a worker submit span and the server apply span of one
//! elastic exchange can be matched across processes.

use crate::ring::TraceEvent;

/// One process's drained timeline inside a fleet export. Timestamps are
/// expected to be already aligned to the fleet reference clock by the
/// collector (see `ea-ops`).
pub struct ProcessTrace {
    /// Chrome `pid` — unique per process in the fleet view.
    pub pid: u32,
    /// Human-readable process name (`worker3`, `server0[0..4)`, …).
    pub name: String,
    /// Decoded, clock-aligned events.
    pub events: Vec<TraceEvent>,
}

/// The display label of an event, mirroring `ea-sim`'s span labels:
/// forward/backward spans render as `F{micro}`/`B{micro}`, transfers
/// show their byte count.
fn label_of(ev: &TraceEvent) -> String {
    match ev.name {
        "fwd" => format!("F{}", ev.arg),
        "bwd" => format!("B{}", ev.arg),
        "xfer_fwd" | "xfer_bwd" | "send" | "recv" => format!("{} ({} B)", ev.name, ev.arg),
        other => other.to_string(),
    }
}

fn push_event(out: &mut Vec<String>, pid: u32, ev: &TraceEvent) {
    let ctx = if ev.ctx != 0 { format!(",\"ctx\":{}", ev.ctx) } else { String::new() };
    if ev.t1_us == ev.t0_us {
        // Instant event (eviction, rejoin, retry, …).
        out.push(format!(
            r#"{{"name":{:?},"cat":"{}","ph":"i","s":"t","ts":{},"pid":{},"tid":{},"args":{{"arg":{}{}}}}}"#,
            label_of(ev),
            ev.cat.as_str(),
            ev.t0_us,
            pid,
            ev.tid,
            ev.arg,
            ctx
        ));
    } else {
        out.push(format!(
            r#"{{"name":{:?},"cat":"{}","ph":"X","ts":{},"dur":{},"pid":{},"tid":{},"args":{{"arg":{}{}}}}}"#,
            label_of(ev),
            ev.cat.as_str(),
            ev.t0_us,
            ev.dur_us().max(1),
            pid,
            ev.tid,
            ev.arg,
            ctx
        ));
    }
}

fn finish(out: Vec<String>) -> String {
    format!("{{\"traceEvents\":[\n{}\n]}}\n", out.join(",\n"))
}

/// Renders drained [`TraceEvent`]s as a Chrome Trace Event Format JSON
/// document (hand-formatted, like the simulator's exporter — the format
/// is too simple to need a serializer).
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = Vec::new();
    let mut named: Vec<u32> = Vec::new();
    for ev in events {
        if !named.contains(&ev.tid) {
            named.push(ev.tid);
            out.push(format!(
                r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{},"args":{{"name":{:?}}}}}"#,
                ev.tid, ev.thread
            ));
        }
    }
    for ev in events {
        push_event(&mut out, 0, ev);
    }
    finish(out)
}

/// Renders a whole fleet — one [`ProcessTrace`] per pushed process — as
/// a single Chrome trace. Emits `process_name` + `process_sort_index`
/// metadata per process and `thread_name` metadata per (pid, tid), then
/// every event under its owning pid.
pub fn chrome_trace_json_fleet(procs: &[ProcessTrace]) -> String {
    let mut out = Vec::new();
    for p in procs {
        out.push(format!(
            r#"{{"name":"process_name","ph":"M","pid":{},"tid":0,"args":{{"name":{:?}}}}}"#,
            p.pid, p.name
        ));
        out.push(format!(
            r#"{{"name":"process_sort_index","ph":"M","pid":{},"tid":0,"args":{{"sort_index":{}}}}}"#,
            p.pid, p.pid
        ));
        let mut named: Vec<u32> = Vec::new();
        for ev in &p.events {
            if !named.contains(&ev.tid) {
                named.push(ev.tid);
                out.push(format!(
                    r#"{{"name":"thread_name","ph":"M","pid":{},"tid":{},"args":{{"name":{:?}}}}}"#,
                    p.pid, ev.tid, ev.thread
                ));
            }
        }
    }
    for p in procs {
        for ev in &p.events {
            push_event(&mut out, p.pid, ev);
        }
    }
    finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Category;

    fn ev(name: &'static str, thread: &str, tid: u32, t0: u64, t1: u64, arg: u64) -> TraceEvent {
        TraceEvent {
            name,
            cat: Category::Compute,
            thread: thread.to_string(),
            tid,
            t0_us: t0,
            t1_us: t1,
            arg,
            ctx: 0,
        }
    }

    #[test]
    fn zero_duration_x_spans_get_minimum_width() {
        let events = vec![ev("opt", "stage0", 0, 5, 5, 0)];
        // t0 == t1 renders as an instant, not a zero-width X.
        let json = chrome_trace_json(&events);
        assert!(json.contains(r#""ph":"i""#));
    }
}
