//! Flight recorder: the last W seconds of trace events, held in memory
//! and dumped to a Chrome trace when something goes wrong.
//!
//! A fleet trace of a multi-hour run is too big to keep; the
//! interesting part is always *the window right before the anomaly* —
//! the rounds leading up to an eviction, the stall before a lease
//! expired. The recorder retains a sliding window of events and writes
//! it out on demand:
//!
//! * explicitly, via [`FlightRecorder::trigger`];
//! * on `SIGUSR1` (Unix), via [`FlightRecorder::install_sigusr1`] —
//!   poke a live process and get a trace without stopping it;
//! * on runtime anomalies, via the process-global [`anomaly`] hook
//!   that `ea-runtime` calls when it evicts a worker or loses a lease.
//!
//! The recorder does **not** drain the trace rings on its own when a
//! [`crate::pusher::OpsPusher`] is active — draining is destructive, so
//! the pusher drains once and feeds the recorder via
//! [`FlightRecorder::absorb`]. Standalone (no pusher), call
//! [`FlightRecorder::drain_and_absorb`] periodically or let the
//! `SIGUSR1` watcher thread do it.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

use ea_trace::TraceEvent;

/// A sliding-window event buffer with anomaly-triggered dumps.
pub struct FlightRecorder {
    window_us: u64,
    dir: PathBuf,
    buf: Mutex<VecDeque<TraceEvent>>,
    dumps: AtomicU64,
    /// True once a pusher owns the ring drain; [`anomaly`] must then
    /// dump the window as-is instead of stealing events from the
    /// collection path with its own drain.
    pusher_fed: std::sync::atomic::AtomicBool,
}

impl FlightRecorder {
    /// A recorder retaining `window` of events, dumping into `dir`
    /// (created on first dump).
    pub fn new(window: Duration, dir: impl Into<PathBuf>) -> Arc<FlightRecorder> {
        Arc::new(FlightRecorder {
            window_us: window.as_micros() as u64,
            dir: dir.into(),
            buf: Mutex::new(VecDeque::new()),
            dumps: AtomicU64::new(0),
            pusher_fed: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Marks the recorder as fed by a pusher ([`crate::pusher`] calls
    /// this): [`anomaly`] and the `SIGUSR1` watcher stop draining the
    /// rings themselves.
    pub fn set_pusher_fed(&self) {
        self.pusher_fed.store(true, Ordering::Relaxed);
    }

    fn refresh(&self) {
        if !self.pusher_fed.load(Ordering::Relaxed) {
            self.drain_and_absorb();
        }
    }

    /// Feeds events into the window (the pusher calls this with each
    /// drained batch) and expires everything older than W behind the
    /// newest event.
    pub fn absorb(&self, events: &[TraceEvent]) {
        if events.is_empty() {
            return;
        }
        let mut buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        buf.extend(events.iter().cloned());
        let newest = buf.iter().map(|e| e.t1_us).max().unwrap_or(0);
        let horizon = newest.saturating_sub(self.window_us);
        while buf.front().is_some_and(|e| e.t1_us < horizon) {
            buf.pop_front();
        }
    }

    /// Drains the process trace rings directly into the window. Only
    /// for standalone use — a drain is destructive, so never combine
    /// with an active pusher.
    pub fn drain_and_absorb(&self) {
        self.absorb(&ea_trace::drain());
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dumps the retained window as a Chrome trace named after
    /// `reason`, returning the path written. The window is kept (a
    /// second anomaly gets its own file).
    pub fn trigger(&self, reason: &str) -> std::io::Result<PathBuf> {
        let events: Vec<TraceEvent> =
            self.buf.lock().unwrap_or_else(|e| e.into_inner()).iter().cloned().collect();
        let n = self.dumps.fetch_add(1, Ordering::Relaxed);
        let slug: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .take(40)
            .collect();
        std::fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(format!("flight_{n:03}_{slug}.json"));
        std::fs::write(&path, ea_trace::chrome_trace_json(&events))?;
        Ok(path)
    }

    /// Dumps written so far.
    pub fn dump_count(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Where dumps go.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Installs a `SIGUSR1` handler and spawns a watcher thread that
    /// dumps the window when the signal arrives. The watcher holds a
    /// weak reference and exits once the recorder is dropped. Unix
    /// only; a no-op elsewhere.
    pub fn install_sigusr1(self: &Arc<Self>) {
        #[cfg(unix)]
        {
            sigusr1::install();
            let weak = Arc::downgrade(self);
            std::thread::Builder::new()
                .name("ea-ops-sigusr1".into())
                .spawn(move || loop {
                    std::thread::sleep(Duration::from_millis(200));
                    let Some(rec) = weak.upgrade() else { break };
                    if sigusr1::FIRED.swap(false, std::sync::atomic::Ordering::SeqCst) {
                        rec.refresh();
                        if let Err(e) = rec.trigger("sigusr1") {
                            eprintln!("ea-ops: flight dump failed: {e}");
                        }
                    }
                })
                .expect("spawn sigusr1 watcher");
        }
    }
}

#[cfg(unix)]
mod sigusr1 {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub(super) static FIRED: AtomicBool = AtomicBool::new(false);

    /// Async-signal-safe: one relaxed store, nothing else.
    extern "C" fn on_sigusr1(_sig: i32) {
        FIRED.store(true, Ordering::Relaxed);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIGUSR1: i32 = 10;

    pub(super) fn install() {
        // SAFETY: installing a handler that only touches an atomic.
        unsafe {
            signal(SIGUSR1, on_sigusr1 as *const () as usize);
        }
    }
}

/// Recorders registered for runtime-anomaly dumps.
fn registry() -> &'static Mutex<Vec<Weak<FlightRecorder>>> {
    static REGISTRY: std::sync::OnceLock<Mutex<Vec<Weak<FlightRecorder>>>> =
        std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers a recorder to be dumped by [`anomaly`].
pub fn register(rec: &Arc<FlightRecorder>) {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.retain(|w| w.strong_count() > 0);
    reg.push(Arc::downgrade(rec));
}

/// Reports a runtime anomaly (eviction, lease expiry): every registered
/// recorder pulls fresh events and dumps its window. Returns the number
/// of dumps written. Cheap no-op when nothing is registered.
pub fn anomaly(reason: &str) -> usize {
    let recs: Vec<Arc<FlightRecorder>> = {
        let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.iter().filter_map(Weak::upgrade).collect()
    };
    let mut written = 0;
    for rec in recs {
        rec.refresh();
        match rec.trigger(reason) {
            Ok(_) => written += 1,
            Err(e) => eprintln!("ea-ops: flight dump failed: {e}"),
        }
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_trace::Category;

    fn ev(t0: u64) -> TraceEvent {
        TraceEvent {
            name: "x",
            cat: Category::Runtime,
            thread: "t".into(),
            tid: 1,
            t0_us: t0,
            t1_us: t0 + 5,
            arg: 0,
            ctx: 0,
        }
    }

    #[test]
    fn window_expires_events_older_than_w() {
        let dir = std::env::temp_dir().join("ea_ops_rec_test_window");
        let rec = FlightRecorder::new(Duration::from_micros(1_000), &dir);
        rec.absorb(&[ev(0), ev(100)]);
        assert_eq!(rec.len(), 2);
        rec.absorb(&[ev(5_000)]);
        // 0 and 100 are > 1000µs behind 5005 and must be expired.
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn anomaly_hook_dumps_registered_recorders_only_while_alive() {
        let dir = std::env::temp_dir().join("ea_ops_rec_test_anomaly");
        let _ = std::fs::remove_dir_all(&dir);
        let rec = FlightRecorder::new(Duration::from_secs(60), &dir);
        rec.absorb(&[ev(1)]);
        register(&rec);
        assert!(anomaly("lease_expiry") >= 1);
        drop(rec);
        assert_eq!(anomaly("after_drop"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
