//! Spans recorded by the benchmark's own files around the calls into each
//! layer's public functions. They are kept in memory while a run measures
//! and written once, at exit, as a Chrome trace.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call. A span's parent is the span named `parent` with the
/// same `op`; there is exactly one such span per op.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    /// The op this call served: `ea_ops::exchange_span_id(round, pipe)` on
    /// training workloads, so spans recorded inside the program later
    /// carry the same id; the request id on serving workloads.
    pub op: u64,
    /// Worker or thread the call ran on.
    pub lane: u32,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An owned span buffer: each measuring thread fills its own, and the run
/// returns them all to its caller.
#[derive(Debug)]
pub struct Sink {
    epoch: Instant,
    lane: u32,
    spans: Vec<Span>,
}

impl Sink {
    /// `epoch` is shared by every sink of a run, so lanes line up.
    pub fn new(epoch: Instant, lane: u32) -> Sink {
        Sink { epoch, lane, spans: Vec::new() }
    }

    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        let us = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            parent,
            op,
            lane: self.lane,
            start_us: us(start),
            end_us: us(end),
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Durations (ms) of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_us() / 1e3).collect()
}

/// Self time (ms) of every span called `name`: its duration minus the
/// part its child spans cover.
pub fn self_times_ms(spans: &[Span], name: &'static str) -> Vec<f64> {
    use std::collections::HashMap;
    let mut children: HashMap<u64, f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent == Some(name)) {
        *children.entry(s.op).or_default() += s.dur_us();
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.dur_us() - children.get(&s.op).copied().unwrap_or(0.0)) / 1e3)
        .collect()
}

/// Renders `spans` in the Chrome trace-event format (complete events).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let parent = s.parent.unwrap_or("");
        writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"op\":\"{:#018x}\",\"parent\":\"{}\"}}}}{sep}",
            s.name,
            s.lane,
            s.start_us,
            s.dur_us(),
            s.op,
            parent
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("]}\n");
    out
}

/// Writes the run's spans to `path`, creating its directory.
pub fn write_chrome(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, chrome_json(spans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_of_the_same_op() {
        let epoch = Instant::now();
        let mut sink = Sink::new(epoch, 0);
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        sink.record("round", None, 7, at(0), at(10));
        sink.record("pull_all", Some("round"), 7, at(0), at(3));
        sink.record("submit_all", Some("round"), 7, at(8), at(10));
        sink.record("round", None, 8, at(10), at(14));
        sink.record("pull_all", Some("round"), 8, at(10), at(11));
        let spans = sink.into_spans();
        let own = self_times_ms(&spans, "round");
        assert!((own[0] - 5.0).abs() < 1e-6 && (own[1] - 3.0).abs() < 1e-6, "{own:?}");
        assert_eq!(durations_ms(&spans, "pull_all").len(), 2);
        let json = chrome_json(&spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 5);
        assert!(json.ends_with("]}\n"));
    }
}
