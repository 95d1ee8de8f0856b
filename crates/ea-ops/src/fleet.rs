//! The fleet merge: many per-process pushes → one Chrome trace on one
//! clock, and one labeled Prometheus page.
//!
//! # Clock model
//!
//! Event timestamps arrive on each sender's process clock
//! ([`ea_comms::clock::now_us`] — spans and wire timestamps read the
//! same epoch). One hop moves them onto the collector's clock: the
//! pusher's NTP filter over `OpsPush`/`OpsAck` round trips yields
//! `offset_us` (collector minus sender), and adding it lands on the
//! collector's clock.
//!
//! Worker↔server skew is additionally measured on the heartbeat path
//! (`ShardClient::clock_offset`), but the collector is the common
//! reference frame for the merged view: aligning every process to one
//! third party gives all pairwise alignments at once.
//!
//! # Histogram merging
//!
//! Percentiles do not average: p99 of two processes is not the mean of
//! their p99s. The fleet view therefore merges the *buckets* of every
//! process's log-linear histogram ([`HistogramSnapshot::merge`]) and
//! computes quantiles from the merged distribution, keeping the ≤ 1/16
//! relative-error guarantee of the single-process histograms.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use ea_trace::{escape_label_value, Category, HistogramSnapshot, RegistrySnapshot, TraceEvent};

use crate::codec::{MetricsBatch, OwnedEvent, TraceBatch};

/// Everything the collector knows about one process.
#[derive(Debug, Default, Clone)]
pub struct ProcView {
    /// Synthetic pid for the Chrome export (arrival order, from 1).
    pub pid: u32,
    /// Accumulated events, sender's clock.
    pub events: Vec<OwnedEvent>,
    /// Latest reported offset to the collector (µs, collector − sender).
    pub offset_us: Option<i64>,
    /// Latest metrics snapshot.
    pub metrics: Option<RegistrySnapshot>,
    /// Pushes received (trace + metrics).
    pub pushes: u64,
}

impl ProcView {
    /// Shift adding to a sender timestamp to express it on the
    /// collector clock (no offset estimated yet ⇒ none applied).
    pub fn align_shift_us(&self) -> i64 {
        self.offset_us.unwrap_or(0)
    }

    /// An event's start time on the collector clock.
    pub fn aligned_t0_us(&self, ev: &OwnedEvent) -> i64 {
        ev.t0_us as i64 + self.align_shift_us()
    }
}

/// The merged state of every process that has pushed.
#[derive(Debug, Default, Clone)]
pub struct FleetState {
    procs: BTreeMap<String, ProcView>,
}

/// Interns a decoded name so it can re-enter [`TraceEvent`]'s
/// `&'static str` fields. The set of distinct span/thread names in a
/// fleet is tiny and fixed, so the leak is bounded.
fn intern_static(s: &str) -> &'static str {
    static TABLE: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(Vec::new()));
    let mut table = table.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(hit) = table.iter().find(|k| **k == s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    table.push(leaked);
    leaked
}

impl FleetState {
    /// An empty fleet.
    pub fn new() -> FleetState {
        FleetState::default()
    }

    fn proc_mut(&mut self, name: &str) -> &mut ProcView {
        let next_pid = self.procs.len() as u32 + 1;
        self.procs
            .entry(name.to_owned())
            .or_insert_with(|| ProcView { pid: next_pid, ..ProcView::default() })
    }

    /// Folds one decoded trace push into the fleet.
    pub fn ingest_trace(&mut self, batch: TraceBatch) {
        let p = self.proc_mut(&batch.process);
        if batch.offset_us.is_some() {
            p.offset_us = batch.offset_us;
        }
        p.events.extend(batch.events);
        p.pushes += 1;
    }

    /// Folds one decoded metrics push into the fleet (latest snapshot
    /// wins — counters are cumulative at the source).
    pub fn ingest_metrics(&mut self, batch: MetricsBatch) {
        let p = self.proc_mut(&batch.process);
        p.metrics = Some(batch.snapshot);
        p.pushes += 1;
    }

    /// Per-process views, keyed by process name.
    pub fn procs(&self) -> &BTreeMap<String, ProcView> {
        &self.procs
    }

    /// Total events held across the fleet.
    pub fn total_events(&self) -> usize {
        self.procs.values().map(|p| p.events.len()).sum()
    }

    /// The merged Chrome trace: one JSON document, one clock, one
    /// process lane per pushing process (`process_name` metadata), with
    /// every timestamp shifted by that process's [`ProcView::align_shift_us`].
    pub fn chrome_trace(&self) -> String {
        let procs: Vec<ea_trace::ProcessTrace> = self
            .procs
            .iter()
            .map(|(name, p)| {
                let shift = p.align_shift_us();
                let events = p
                    .events
                    .iter()
                    .map(|e| TraceEvent {
                        name: intern_static(&e.name),
                        cat: Category::from_u8(e.cat),
                        thread: e.thread.clone(),
                        tid: e.tid,
                        t0_us: (e.t0_us as i64 + shift).max(0) as u64,
                        t1_us: (e.t1_us as i64 + shift).max(0) as u64,
                        arg: e.arg,
                        ctx: e.ctx,
                    })
                    .collect();
                ea_trace::ProcessTrace { pid: p.pid, name: name.clone(), events }
            })
            .collect();
        ea_trace::chrome_trace_json_fleet(&procs)
    }

    /// The fleet Prometheus page: every process's counters and gauges
    /// labeled `{process="…"}` (per-pipe gauge families additionally
    /// get a `pipe` label), and histogram families merged bucket-wise
    /// across processes before fleet quantiles are computed, alongside
    /// the per-process `_sum`/`_count` breakdown.
    pub fn prometheus(&self) -> String {
        let mut counters: BTreeMap<String, Vec<(String, u64)>> = BTreeMap::new();
        let mut gauges: BTreeMap<String, Vec<(String, i64)>> = BTreeMap::new();
        let mut hists: BTreeMap<String, Vec<(String, HistogramSnapshot)>> = BTreeMap::new();
        for (pname, p) in &self.procs {
            let Some(snap) = &p.metrics else { continue };
            for (name, v) in &snap.counters {
                counters.entry(name.clone()).or_default().push((pname.clone(), *v));
            }
            for (name, v) in &snap.gauges {
                gauges.entry(name.clone()).or_default().push((pname.clone(), *v));
            }
            for (name, h) in &snap.histograms {
                hists.entry(name.clone()).or_default().push((pname.clone(), h.clone()));
            }
        }
        let mut out = String::new();
        let mut emitted_type: std::collections::BTreeSet<String> = Default::default();
        let mut header = |out: &mut String, family: &str, kind: &str| {
            if emitted_type.insert(family.to_owned()) {
                out.push_str(&format!("# HELP {family} fleet-merged {family}\n"));
                out.push_str(&format!("# TYPE {family} {kind}\n"));
            }
        };
        for (name, rows) in &counters {
            let (family, extra) = split_pipe_family(name);
            header(&mut out, &family, "counter");
            for (proc_name, v) in rows {
                out.push_str(&sample(&family, proc_name, &extra, *v as i64));
            }
        }
        for (name, rows) in &gauges {
            let (family, extra) = split_pipe_family(name);
            header(&mut out, &family, "gauge");
            for (proc_name, v) in rows {
                out.push_str(&sample(&family, proc_name, &extra, *v));
            }
        }
        for (name, rows) in &hists {
            let (family, extra) = split_pipe_family(name);
            header(&mut out, &family, "summary");
            // Bucket-wise fleet merge, then quantiles of the merged
            // distribution — the only order that preserves the error
            // bound.
            let mut merged = HistogramSnapshot::empty();
            for (_, h) in rows {
                merged.merge(h);
            }
            for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                out.push_str(&format!(
                    "{family}{{quantile=\"{label}\"}} {}\n",
                    merged.percentile(q)
                ));
            }
            out.push_str(&format!(
                "{family}_sum {}\n{family}_count {}\n",
                merged.sum, merged.count
            ));
            for (proc_name, h) in rows {
                out.push_str(&sample(&format!("{family}_sum"), proc_name, &extra, h.sum as i64));
                out.push_str(&sample(
                    &format!("{family}_count"),
                    proc_name,
                    &extra,
                    h.count as i64,
                ));
            }
        }
        out
    }
}

/// Renders one labeled sample line. `extra` is a pre-rendered label
/// fragment such as `pipe="3",` (may be empty).
fn sample(metric: &str, process: &str, extra: &str, v: i64) -> String {
    format!("{metric}{{{extra}process=\"{}\"}} {v}\n", escape_label_value(process))
}

/// Splits per-pipe gauge families (`ea_worker_round_p3`) into a base
/// family plus a `pipe` label fragment, so the fleet page exposes one
/// family with a worker dimension instead of N families.
fn split_pipe_family(name: &str) -> (String, String) {
    for base in ["ea_worker_round_lag", "ea_worker_round"] {
        if let Some(rest) = name.strip_prefix(base) {
            if let Some(n) = rest.strip_prefix("_p") {
                if !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()) {
                    return (base.to_owned(), format!("pipe=\"{n}\","));
                }
            }
        }
    }
    (name.to_owned(), String::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(process: &str, offset: Option<i64>, events: Vec<OwnedEvent>) -> TraceBatch {
        TraceBatch { process: process.into(), offset_us: offset, events }
    }

    #[test]
    fn fleet_prometheus_labels_processes_and_merges_histograms() {
        let reg_a = ea_trace::Registry::new();
        reg_a.counter("pushes_total").add(3);
        let h = reg_a.histogram("lat_us");
        for _ in 0..99 {
            h.record(10);
        }
        let reg_b = ea_trace::Registry::new();
        reg_b.counter("pushes_total").add(4);
        reg_b.gauge("ea_worker_round_p2").set(41);
        let h = reg_b.histogram("lat_us");
        h.record(100_000);

        let mut fleet = FleetState::new();
        fleet.ingest_metrics(MetricsBatch { process: "a".into(), snapshot: reg_a.snapshot() });
        fleet.ingest_metrics(MetricsBatch { process: "b".into(), snapshot: reg_b.snapshot() });
        let page = fleet.prometheus();
        assert!(page.contains("# TYPE pushes_total counter\n"), "{page}");
        assert!(page.contains("pushes_total{process=\"a\"} 3\n"), "{page}");
        assert!(page.contains("pushes_total{process=\"b\"} 4\n"), "{page}");
        // Per-pipe gauge family folded into a `pipe` label.
        assert!(page.contains("ea_worker_round{pipe=\"2\",process=\"b\"} 41\n"), "{page}");
        // Merged fleet histogram: 100 samples total; p50 stays ~10
        // (99 of 100 samples), p99+ reaches the 100ms outlier decade —
        // averaging per-process p50s (10 and 100000) would be ~50005.
        assert!(page.contains("lat_us_count 100\n"), "{page}");
        let p50 = page
            .lines()
            .find(|l| l.starts_with("lat_us{quantile=\"0.5\"}"))
            .and_then(|l| l.split_whitespace().last())
            .unwrap()
            .parse::<u64>()
            .unwrap();
        assert!(p50 <= 11, "fleet p50 {p50} should follow the mass, not the mean");
        assert!(page.contains("lat_us_count{process=\"a\"} 99\n"), "{page}");
    }

    #[test]
    fn pids_are_stable_across_repeated_pushes() {
        let mut fleet = FleetState::new();
        fleet.ingest_trace(batch("w", None, vec![]));
        fleet.ingest_trace(batch("s", None, vec![]));
        fleet.ingest_trace(batch("w", None, vec![]));
        assert_eq!(fleet.procs()["w"].pid, 1);
        assert_eq!(fleet.procs()["s"].pid, 2);
        assert_eq!(fleet.procs()["w"].pushes, 2);
    }
}
