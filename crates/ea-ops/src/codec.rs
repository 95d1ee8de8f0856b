//! Wire blobs for `OpsPush`: compact, self-describing encodings of a
//! drained trace batch and a metrics-registry snapshot.
//!
//! Layout conventions are the wire's: little-endian fixed-width
//! integers, strings as `u32` length + UTF-8 bytes ([`put_str`]), read
//! back through the one bounds-checked cursor ([`Reader`]), so a length
//! field in a malformed blob can never force a large allocation. A
//! trace batch deduplicates span/thread/category names through a string
//! table — rings drain thousands of events but only a handful of
//! distinct names, so the table cuts the per-event cost to six fixed
//! words plus two `u32` indices.
//!
//! Each trace blob also carries the sender's process name and its
//! current NTP offset to the collector (if one has been estimated).
//! Event times are readings of the sender's one process clock
//! ([`ea_comms::clock::now_us`]); the collector adds the offset to shift
//! them onto its own clock — see [`crate::fleet`].

use ea_comms::frame::{put_str, FrameError, Reader};
use ea_trace::{HistogramSnapshot, RegistrySnapshot, TraceEvent};

/// A trace event with owned name strings, as decoded from a blob
/// (ring events use interned `&'static str`, which cannot cross a
/// process boundary).
#[derive(Clone, Debug, PartialEq)]
pub struct OwnedEvent {
    /// Span name.
    pub name: String,
    /// Category byte ([`ea_trace::Category`] encoding).
    pub cat: u8,
    /// Recording thread's name.
    pub thread: String,
    /// Stable per-process thread ordinal.
    pub tid: u32,
    /// Start, µs — sender's clock until [`crate::fleet`] aligns it.
    pub t0_us: u64,
    /// End, µs.
    pub t1_us: u64,
    /// Site-defined argument.
    pub arg: u64,
    /// Cross-process correlation context (0 = none).
    pub ctx: u64,
}

impl OwnedEvent {
    /// Duration in µs (zero for instant events).
    pub fn dur_us(&self) -> u64 {
        self.t1_us.saturating_sub(self.t0_us)
    }
}

/// One decoded trace push: the clock header plus the drained events.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceBatch {
    /// Sender's process name (e.g. `server0`, `worker2`).
    pub process: String,
    /// Sender's estimated offset to the collector clock (µs, collector
    /// minus sender), if at least one `OpsAck` round trip completed.
    pub offset_us: Option<i64>,
    /// The drained events, in drain order.
    pub events: Vec<OwnedEvent>,
}

/// One decoded metrics push: a full registry snapshot from one process.
#[derive(Clone, Debug)]
pub struct MetricsBatch {
    /// Sender's process name.
    pub process: String,
    /// The registry snapshot (counters, gauges, histograms).
    pub snapshot: RegistrySnapshot,
}

/// Encodes a drained trace batch (`kind = OPS_KIND_TRACE`).
pub fn encode_trace(process: &str, offset_us: Option<i64>, events: &[TraceEvent]) -> Vec<u8> {
    // Names repeat constantly; keep the table tiny and stable.
    let mut strings: Vec<String> = Vec::new();
    let mut index: std::collections::HashMap<String, u32> = std::collections::HashMap::new();
    let mut refs: Vec<(u32, u32)> = Vec::with_capacity(events.len());
    for e in events {
        let mut intern = |s: &str| match index.get(s) {
            Some(&ix) => ix,
            None => {
                let ix = strings.len() as u32;
                index.insert(s.to_owned(), ix);
                strings.push(s.to_owned());
                ix
            }
        };
        let pair = (intern(e.name), intern(&e.thread));
        refs.push(pair);
    }

    let mut out = Vec::with_capacity(64 + events.len() * 46);
    put_str(&mut out, process);
    out.push(offset_us.is_some() as u8);
    out.extend_from_slice(&offset_us.unwrap_or(0).to_le_bytes());
    out.extend_from_slice(&(strings.len() as u32).to_le_bytes());
    for s in &strings {
        put_str(&mut out, s);
    }
    out.extend_from_slice(&(events.len() as u32).to_le_bytes());
    for (e, (name_ix, thread_ix)) in events.iter().zip(&refs) {
        out.extend_from_slice(&name_ix.to_le_bytes());
        out.extend_from_slice(&thread_ix.to_le_bytes());
        out.extend_from_slice(&e.tid.to_le_bytes());
        out.push(e.cat as u8);
        out.extend_from_slice(&e.t0_us.to_le_bytes());
        out.extend_from_slice(&e.t1_us.to_le_bytes());
        out.extend_from_slice(&e.arg.to_le_bytes());
        out.extend_from_slice(&e.ctx.to_le_bytes());
    }
    out
}

/// Decodes a trace blob. Rejects truncation, bad UTF-8, out-of-range
/// string indices and trailing garbage — collector input is untrusted.
pub fn decode_trace(blob: &[u8]) -> Result<TraceBatch, FrameError> {
    let bad = FrameError::BadPayload;
    let mut r = Reader::new(blob);
    let process = r.str()?;
    let has_offset = r.u8()?;
    let raw_offset = r.i64()?;
    let offset_us = match has_offset {
        0 => None,
        1 => Some(raw_offset),
        v => return Err(bad(format!("bad offset flag {v}"))),
    };
    let n_strings = r.u32()? as usize;
    let mut strings = Vec::with_capacity(n_strings.min(1024));
    for _ in 0..n_strings {
        strings.push(r.str()?);
    }
    let lookup = |ix: u32| {
        strings
            .get(ix as usize)
            .cloned()
            .ok_or_else(|| bad(format!("string index {ix} out of range")))
    };
    let n_events = r.u32()? as usize;
    let mut events = Vec::with_capacity(n_events.min(65_536));
    for _ in 0..n_events {
        let name_ix = r.u32()?;
        let thread_ix = r.u32()?;
        let tid = r.u32()?;
        let cat = r.u8()?;
        events.push(OwnedEvent {
            name: lookup(name_ix)?,
            cat,
            thread: lookup(thread_ix)?,
            tid,
            t0_us: r.u64()?,
            t1_us: r.u64()?,
            arg: r.u64()?,
            ctx: r.u64()?,
        });
    }
    r.done()?;
    Ok(TraceBatch { process, offset_us, events })
}

/// Encodes a registry snapshot (`kind = OPS_KIND_METRICS`). Histograms
/// travel in sparse `(bucket, count)` form — typically a few dozen live
/// buckets out of ~1000.
pub fn encode_metrics(process: &str, snap: &RegistrySnapshot) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    put_str(&mut out, process);
    out.extend_from_slice(&(snap.counters.len() as u32).to_le_bytes());
    for (name, v) in &snap.counters {
        put_str(&mut out, name);
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(snap.gauges.len() as u32).to_le_bytes());
    for (name, v) in &snap.gauges {
        put_str(&mut out, name);
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(snap.histograms.len() as u32).to_le_bytes());
    for (name, h) in &snap.histograms {
        put_str(&mut out, name);
        out.extend_from_slice(&h.sum.to_le_bytes());
        out.extend_from_slice(&h.min.to_le_bytes());
        out.extend_from_slice(&h.max.to_le_bytes());
        let pairs: Vec<(u32, u64)> = h.nonzero_buckets().collect();
        out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
        for (bucket, count) in pairs {
            out.extend_from_slice(&bucket.to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
        }
    }
    out
}

/// Decodes a metrics blob (same hostility assumptions as
/// [`decode_trace`]).
pub fn decode_metrics(blob: &[u8]) -> Result<MetricsBatch, FrameError> {
    let mut r = Reader::new(blob);
    let process = r.str()?;
    let mut snapshot =
        RegistrySnapshot { counters: Vec::new(), gauges: Vec::new(), histograms: Vec::new() };
    for _ in 0..r.u32()? {
        let name = r.str()?;
        snapshot.counters.push((name, r.u64()?));
    }
    for _ in 0..r.u32()? {
        let name = r.str()?;
        snapshot.gauges.push((name, r.i64()?));
    }
    for _ in 0..r.u32()? {
        let name = r.str()?;
        let sum = r.u64()?;
        let min = r.u64()?;
        let max = r.u64()?;
        let n_pairs = r.u32()? as usize;
        let mut pairs = Vec::with_capacity(n_pairs.min(2048));
        for _ in 0..n_pairs {
            let bucket = r.u32()?;
            pairs.push((bucket, r.u64()?));
        }
        let h = HistogramSnapshot::from_sparse(&pairs, sum, min, max).ok_or_else(|| {
            FrameError::BadPayload(format!("histogram {name}: bucket index out of range"))
        })?;
        snapshot.histograms.push((name, h));
    }
    r.done()?;
    Ok(MetricsBatch { process, snapshot })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_trace::Category;

    fn ev(name: &'static str, t0: u64, ctx: u64) -> TraceEvent {
        TraceEvent {
            name,
            cat: Category::Comm,
            thread: "main".into(),
            tid: 1,
            t0_us: t0,
            t1_us: t0 + 10,
            arg: 42,
            ctx,
        }
    }

    #[test]
    fn trace_blob_round_trips_with_string_table() {
        let events = vec![ev("pull", 100, 0), ev("submit", 200, 0xBEEF), ev("pull", 300, 7)];
        let blob = encode_trace("worker3", Some(-1234), &events);
        let batch = decode_trace(&blob).unwrap();
        assert_eq!(batch.process, "worker3");
        assert_eq!(batch.offset_us, Some(-1234));
        assert_eq!(batch.events.len(), 3);
        assert_eq!(batch.events[1].name, "submit");
        assert_eq!(batch.events[1].ctx, 0xBEEF);
        assert_eq!(batch.events[2].name, "pull");
        assert_eq!(batch.events[2].dur_us(), 10);
    }

    #[test]
    fn trace_blob_without_offset_round_trips() {
        let blob = encode_trace("s0", None, &[]);
        let batch = decode_trace(&blob).unwrap();
        assert_eq!(batch.offset_us, None);
        assert!(batch.events.is_empty());
    }

    #[test]
    fn truncated_and_trailing_blobs_are_rejected() {
        let blob = encode_trace("w", None, &[ev("x", 5, 0)]);
        assert!(decode_trace(&blob[..blob.len() - 3]).is_err(), "truncation must fail");
        let mut padded = blob.clone();
        padded.push(0);
        assert!(decode_trace(&padded).is_err(), "trailing bytes must fail");
        assert!(decode_trace(&[]).is_err());
    }

    #[test]
    fn metrics_blob_round_trips_histograms_sparsely() {
        let reg = ea_trace::Registry::new();
        reg.counter("pushes_total").add(17);
        reg.gauge("lag").set(-3);
        let h = reg.histogram("lat_us");
        for v in [1, 5, 5, 900, 100_000] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let blob = encode_metrics("server1", &snap);
        let got = decode_metrics(&blob).unwrap();
        assert_eq!(got.process, "server1");
        assert_eq!(got.snapshot.counters, vec![("pushes_total".to_string(), 17)]);
        assert_eq!(got.snapshot.gauges, vec![("lag".to_string(), -3)]);
        let (name, hs) = &got.snapshot.histograms[0];
        assert_eq!(name, "lat_us");
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 100_911);
        assert_eq!(hs.min, 1);
        assert_eq!(hs.max, 100_000);
        let orig = &snap.histograms[0].1;
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(hs.percentile(q), orig.percentile(q));
        }
    }
}
