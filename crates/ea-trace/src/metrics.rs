//! Metrics: counters, gauges, log-linear timing histograms, registries.
//!
//! Handles are cheap `Arc`-backed clones safe to share across threads;
//! recording is a handful of relaxed atomic operations, so metrics stay
//! on even when tracing is `off`. A [`Registry`] names a set of metrics
//! and renders them in the Prometheus text exposition format; the
//! process-wide [`global`] registry holds cross-cutting metrics (pool,
//! comms), while components with per-instance counters (one server per
//! test) own private registries.

use crate::clock;
use crate::level::counters_enabled;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh zero counter (standalone; registries create their own).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A gauge: a value that goes up and down.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh zero gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Relaxed);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Log-linear histogram: 16 linear sub-buckets per power of two, like
// HdrHistogram. Relative quantile error is bounded by 1/16 ≈ 6%.

const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Index of the last bucket a `u64` value can land in.
const N_BUCKETS: usize = (64 - SUB_BITS as usize) * SUB + SUB;

fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize; // ≥ SUB_BITS
        let shift = msb as u32 - SUB_BITS;
        let sub = ((v >> shift) & (SUB as u64 - 1)) as usize;
        (msb - SUB_BITS as usize + 1) * SUB + sub
    }
}

/// Inclusive `[lo, hi]` value range of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < SUB {
        (i as u64, i as u64)
    } else {
        let major = (i / SUB) as u32; // ≥ 1
        let sub = (i % SUB) as u64;
        let shift = major - 1;
        let lo = (SUB as u64 + sub) << shift;
        (lo, lo + ((1u64 << shift) - 1))
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A concurrent log-linear-bucket histogram for timings (µs) or sizes.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        let h = &*self.0;
        h.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        h.count.fetch_add(1, Relaxed);
        h.sum.fetch_add(v, Relaxed);
        h.min.fetch_min(v, Relaxed);
        h.max.fetch_max(v, Relaxed);
    }

    /// Starts a timer that records its elapsed µs on drop; inert (no
    /// clock reads) unless `EA_TRACE` is at least `counters`.
    pub fn start_timer(&self) -> HistTimer {
        if !counters_enabled() {
            return HistTimer { hist: None, t0: 0 };
        }
        HistTimer { hist: Some(self.clone()), t0: clock::now_us() }
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let h = &*self.0;
        HistogramSnapshot {
            buckets: h.buckets.iter().map(|b| b.load(Relaxed)).collect(),
            count: h.count.load(Relaxed),
            sum: h.sum.load(Relaxed),
            min: h.min.load(Relaxed),
            max: h.max.load(Relaxed),
        }
    }
}

/// Times a scope into a [`Histogram`].
#[must_use = "a timer measures the scope it is bound to"]
pub struct HistTimer {
    hist: Option<Histogram>,
    t0: u64,
}

impl Drop for HistTimer {
    fn drop(&mut self) {
        if let Some(h) = self.hist.take() {
            h.record(clock::now_us().saturating_sub(self.t0));
        }
    }
}

/// A consistent-enough copy of a [`Histogram`] (relaxed reads).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    /// Observation count.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot — the identity element of [`merge`](Self::merge).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot { buckets: vec![0; N_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Rebuilds a snapshot from sparse `(bucket_index, count)` pairs, as
    /// shipped over the collection wire. Returns `None` if any index is
    /// out of range — bucket geometry is a compile-time constant shared
    /// by every process in a fleet, so a bad index means a corrupt or
    /// foreign blob, not a version skew to paper over.
    pub fn from_sparse(pairs: &[(u32, u64)], sum: u64, min: u64, max: u64) -> Option<Self> {
        let mut s = HistogramSnapshot::empty();
        for &(i, c) in pairs {
            *s.buckets.get_mut(i as usize)? += c;
            s.count += c;
        }
        s.sum = sum;
        s.min = min;
        s.max = max;
        Some(s)
    }

    /// The non-empty buckets as `(bucket_index, count)` pairs — the
    /// compact form pushed to a collector.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (i as u32, c))
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q ∈ [0, 1]`, as the upper bound of the
    /// bucket holding that rank (≤ 1/16 relative error), clamped to the
    /// observed `[min, max]`. Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, hi) = bucket_bounds(i);
                return hi.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another snapshot into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

// ---------------------------------------------------------------------------
// Registry.

type GaugeFn = Box<dyn Fn() -> i64 + Send + Sync>;

/// Escapes a Prometheus label *value* per the text exposition format:
/// backslash, double-quote, and line-feed must be backslash-escaped.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// A point-in-time copy of every metric in a [`Registry`] — the unit a
/// process pushes to an ops collector. Callback gauges are sampled into
/// plain gauge values at snapshot time.
#[derive(Clone, Debug, Default)]
pub struct RegistrySnapshot {
    /// `(name, value)` pairs, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, name-sorted (callback gauges included).
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` pairs, name-sorted.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// A named set of metrics, renderable as Prometheus text exposition.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    gauge_fns: Mutex<BTreeMap<String, GaugeFn>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    help: Mutex<BTreeMap<String, String>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        m.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        m.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        m.entry(name.to_string()).or_default().clone()
    }

    /// Registers a callback gauge sampled at render time — how
    /// components with their own atomics (the tensor pool) expose state
    /// without double-counting.
    pub fn register_gauge_fn(&self, name: &str, f: impl Fn() -> i64 + Send + Sync + 'static) {
        let mut m = self.gauge_fns.lock().unwrap_or_else(|e| e.into_inner());
        m.insert(name.to_string(), Box::new(f));
    }

    /// All counters as `(name, value)` pairs, name-sorted.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        let m = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        m.iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    /// Sets the `# HELP` docstring rendered for `name`. Metrics without
    /// one fall back to their own name.
    pub fn set_help(&self, name: &str, help: &str) {
        let mut m = self.help.lock().unwrap_or_else(|e| e.into_inner());
        m.insert(name.to_string(), help.to_string());
    }

    fn help_of(&self, name: &str) -> String {
        let m = self.help.lock().unwrap_or_else(|e| e.into_inner());
        m.get(name).cloned().unwrap_or_else(|| name.to_string())
    }

    /// A point-in-time copy of every metric, for shipping to a collector
    /// or merging across processes.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let counters = self.counter_values();
        let mut gauges: Vec<(String, i64)> = {
            let m = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
            m.iter().map(|(k, v)| (k.clone(), v.get())).collect()
        };
        {
            let m = self.gauge_fns.lock().unwrap_or_else(|e| e.into_inner());
            gauges.extend(m.iter().map(|(k, f)| (k.clone(), f())));
        }
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let histograms = {
            let m = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
            m.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect()
        };
        RegistrySnapshot { counters, gauges, histograms }
    }

    /// Renders every metric in the Prometheus text exposition format
    /// (`# HELP` + `# TYPE` headers per family). Histograms render as
    /// summaries (p50/p95/p99 quantiles).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, c) in self.counters.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            out.push_str(&format!("# HELP {name} {}\n", self.help_of(name)));
            out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.get()));
        }
        for (name, g) in self.gauges.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            out.push_str(&format!("# HELP {name} {}\n", self.help_of(name)));
            out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", g.get()));
        }
        for (name, f) in self.gauge_fns.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            out.push_str(&format!("# HELP {name} {}\n", self.help_of(name)));
            out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", f()));
        }
        for (name, h) in self.histograms.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            let s = h.snapshot();
            out.push_str(&format!("# HELP {name} {}\n", self.help_of(name)));
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                out.push_str(&format!("{name}{{quantile=\"{label}\"}} {}\n", s.percentile(q)));
            }
            out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", s.sum, s.count));
        }
        out
    }
}

/// The process-wide registry for cross-cutting metrics.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_do_arithmetic() {
        let r = Registry::new();
        let c = r.counter("c_total");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("c_total").get(), 5);
        let g = r.gauge("g");
        g.set(10);
        g.add(-3);
        assert_eq!(r.gauge("g").get(), 7);
    }

    #[test]
    fn bucket_index_and_bounds_are_inverse() {
        for v in (0u64..200).chain([1 << 20, u64::MAX / 2, u64::MAX]) {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} i={i} lo={lo} hi={hi}");
        }
        // Buckets tile the axis without gaps.
        for i in 0..N_BUCKETS - 1 {
            let (_, hi) = bucket_bounds(i);
            let (lo_next, _) = bucket_bounds(i + 1);
            assert_eq!(lo_next, hi + 1, "gap after bucket {i}");
        }
    }

    #[test]
    fn exact_percentiles_for_small_values() {
        // Values < 16 land in exact single-value buckets.
        let h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.percentile(0.5), 5);
        assert_eq!(s.percentile(1.0), 10);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 10);
        assert!((s.mean() - 5.5).abs() < 1e-9);
    }

    #[test]
    fn percentile_error_is_bounded() {
        let h = Histogram::new();
        for v in 0..10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        for (q, exact) in [(0.5, 5000.0), (0.95, 9500.0), (0.99, 9900.0)] {
            let got = s.percentile(q) as f64;
            assert!((got - exact).abs() <= exact / 16.0 + 1.0, "p{q}: got {got}, exact {exact}");
        }
    }

    #[test]
    fn empty_histogram_is_sane() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.percentile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn timer_is_inert_when_off() {
        let _guard = crate::level::test_level_lock();
        let before = crate::level::level();
        crate::level::set_level(crate::Level::Off);
        let h = Histogram::new();
        drop(h.start_timer());
        assert_eq!(h.snapshot().count, 0);
        crate::level::set_level(crate::Level::Counters);
        drop(h.start_timer());
        assert_eq!(h.snapshot().count, 1);
        crate::level::set_level(before);
    }

    #[test]
    fn label_values_escape_specials() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label_value("line\nbreak"), "line\\nbreak");
    }

    #[test]
    fn snapshot_round_trips_through_sparse_buckets() {
        let h = Histogram::new();
        for v in [0u64, 3, 17, 900, 1 << 30] {
            h.record(v);
        }
        let s = h.snapshot();
        let pairs: Vec<(u32, u64)> = s.nonzero_buckets().collect();
        let back = HistogramSnapshot::from_sparse(&pairs, s.sum, s.min, s.max).unwrap();
        assert_eq!(back, s);
        // Out-of-range bucket indices are rejected, not clamped.
        assert!(HistogramSnapshot::from_sparse(&[(u32::MAX, 1)], 0, 0, 0).is_none());
    }

    #[test]
    fn registry_snapshot_samples_every_family() {
        let r = Registry::new();
        r.counter("reqs_total").add(2);
        r.gauge("depth").set(-4);
        r.register_gauge_fn("cb", || 11);
        r.histogram("lat_us").record(7);
        let s = r.snapshot();
        assert_eq!(s.counters, vec![("reqs_total".into(), 2)]);
        assert_eq!(s.gauges, vec![("cb".into(), 11), ("depth".into(), -4)]);
        assert_eq!(s.histograms.len(), 1);
        assert_eq!(s.histograms[0].0, "lat_us");
        assert_eq!(s.histograms[0].1.count, 1);
    }

    /// Format lint: every sample line must belong to a family that was
    /// announced with `# HELP` followed by `# TYPE`, and every label
    /// value must be properly quoted.
    #[test]
    fn prometheus_output_passes_format_lint() {
        let r = Registry::new();
        r.counter("x_total").inc();
        r.set_help("x_total", "things that happened");
        r.gauge("depth").set(3);
        r.histogram("lat_us").record(9);
        let text = r.render_prometheus();
        let mut announced = std::collections::BTreeSet::new();
        let mut pending_help: Option<String> = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split_whitespace().next().unwrap().to_string();
                assert!(rest.len() > name.len(), "HELP without docstring: {line}");
                pending_help = Some(name);
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it.next().unwrap().to_string();
                let kind = it.next().unwrap();
                assert!(["counter", "gauge", "summary", "histogram"].contains(&kind));
                assert_eq!(pending_help.take().as_deref(), Some(name.as_str()), "{line}");
                announced.insert(name);
            } else {
                let metric = line.split(['{', ' ']).next().unwrap();
                let family = metric.strip_suffix("_sum").or(metric.strip_suffix("_count"));
                let family = family.unwrap_or(metric);
                assert!(
                    announced.contains(family),
                    "sample {line:?} before its # HELP/# TYPE header"
                );
                if let Some(open) = line.find('{') {
                    let close = line.rfind('}').expect("unclosed label set");
                    for pair in line[open + 1..close].split(',') {
                        let (_, v) = pair.split_once('=').expect("label without =");
                        assert!(v.starts_with('"') && v.ends_with('"'), "unquoted label: {line}");
                    }
                }
            }
        }
        assert!(text.contains("# HELP x_total things that happened\n"));
    }

    #[test]
    fn prometheus_rendering_has_all_families() {
        let r = Registry::new();
        r.counter("requests_total").add(3);
        r.gauge("live").set(2);
        r.register_gauge_fn("sampled", || 9);
        r.histogram("latency_us").record(120);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE requests_total counter\nrequests_total 3\n"));
        assert!(text.contains("# TYPE live gauge\nlive 2\n"));
        assert!(text.contains("sampled 9\n"));
        assert!(text.contains("# TYPE latency_us summary\n"));
        assert!(text.contains("latency_us{quantile=\"0.5\"}"));
        assert!(text.contains("latency_us_count 1\n"));
    }
}
