//! The per-process push agent: drains local trace rings and metrics
//! registries, ships them to the collector, and keeps a running
//! NTP-style estimate of the collector clock offset.
//!
//! One [`OpsPusher`] runs in every observed process (workers, shard
//! servers, serving replicas). Each cycle it:
//!
//! 1. drains [`ea_trace::drain`] (feeding the optional
//!    [`FlightRecorder`] on the way),
//! 2. encodes the batch with the current collector offset
//!    ([`crate::codec::encode_trace`]),
//! 3. sends `OpsPush` and waits for the `OpsAck`, whose echoed
//!    transmit time and collector receive time feed the
//!    [`OffsetEstimator`] — so the *telemetry channel itself* is the
//!    clock-sync channel, no extra traffic,
//! 4. snapshots the process metrics registries and pushes those too.
//!
//! The pusher deliberately runs over its own plain [`TcpTransport`]
//! connection (not the training connections): observability must not
//! contend with `PullReply` payloads for socket buffers, and a
//! collector outage must not perturb training. Batches that cannot be
//! sent are buffered up to a bound, then dropped oldest-first — losing
//! telemetry is always preferable to blocking the training path.

use std::net::SocketAddr;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use ea_comms::clock::OffsetEstimator;
use ea_comms::frame::PROTO_VERSION;
use ea_comms::wire::{OPS_KIND_METRICS, OPS_KIND_TRACE};
use ea_comms::{CommsError, Message, TcpConfig, TcpTransport, Transport};
use ea_trace::{RegistrySnapshot, TraceEvent};

use crate::codec;
use crate::recorder::FlightRecorder;

/// Most events buffered while the collector is unreachable.
const MAX_BUFFERED_EVENTS: usize = 100_000;

/// A closure producing an extra registry snapshot each cycle (e.g. a
/// serving engine's SLO registry) to push alongside the global one.
pub type SnapshotFn = Arc<dyn Fn() -> RegistrySnapshot + Send + Sync>;

/// Pusher tuning.
pub struct PusherConfig {
    /// Name this process reports as (`worker0`, `server1`, …).
    pub process: String,
    /// Push cadence.
    pub interval: Duration,
    /// Also push metrics snapshots (off = traces only).
    pub push_metrics: bool,
    /// Extra registries to merge into each metrics push.
    pub extra_metrics: Vec<SnapshotFn>,
    /// Flight recorder fed with every drained batch.
    pub recorder: Option<Arc<FlightRecorder>>,
    /// Transport knobs for the collector connection.
    pub tcp: TcpConfig,
}

impl PusherConfig {
    /// Defaults: 200 ms cadence, metrics on, no recorder.
    pub fn new(process: impl Into<String>) -> PusherConfig {
        PusherConfig {
            process: process.into(),
            interval: Duration::from_millis(200),
            push_metrics: true,
            extra_metrics: Vec::new(),
            recorder: None,
            tcp: TcpConfig::default(),
        }
    }
}

#[derive(Default)]
struct Shared {
    stop: Mutex<bool>,
    cv: Condvar,
    offset: Mutex<OffsetEstimator>,
}

/// Handle to the background push thread. Dropping it stops the thread
/// after a final flush.
pub struct OpsPusher {
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<u64>>,
}

impl OpsPusher {
    /// Connects to the collector (synchronously, so a bad address
    /// fails fast), performs the version handshake, and starts the
    /// push loop.
    pub fn spawn(collector: SocketAddr, cfg: PusherConfig) -> Result<OpsPusher, CommsError> {
        let mut transport = connect(collector, &cfg.tcp)?;
        handshake(&mut transport)?;
        if let Some(rec) = &cfg.recorder {
            rec.set_pusher_fed();
        }
        let shared = Arc::new(Shared::default());
        let shared2 = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("ea-ops-pusher".into())
            .spawn(move || run(transport, collector, cfg, shared2))
            .map_err(CommsError::Io)?;
        Ok(OpsPusher { shared, thread: Some(thread) })
    }

    /// The current collector-clock offset estimate (µs, collector
    /// minus local), once at least one push round trip completed.
    pub fn offset_us(&self) -> Option<i64> {
        self.shared.offset.lock().unwrap_or_else(|e| e.into_inner()).offset_us()
    }

    /// Stops the loop, flushes a final batch, and returns the number
    /// of pushes acknowledged by the collector.
    pub fn stop(mut self) -> u64 {
        self.signal_stop();
        self.thread.take().map(|t| t.join().unwrap_or(0)).unwrap_or(0)
    }

    fn signal_stop(&self) {
        *self.shared.stop.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.shared.cv.notify_all();
    }
}

impl Drop for OpsPusher {
    fn drop(&mut self) {
        self.signal_stop();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn connect(addr: SocketAddr, tcp: &TcpConfig) -> Result<TcpTransport, CommsError> {
    TcpTransport::connect(addr, *tcp)
}

fn handshake(t: &mut TcpTransport) -> Result<(), CommsError> {
    t.send(Message::Hello {
        proto: PROTO_VERSION as u16,
        pipe: u32::MAX, // not a training pipeline
        codec: ea_comms::Codec::F32,
    })?;
    match t.recv()? {
        Message::HelloAck { proto, .. } if proto == PROTO_VERSION as u16 => Ok(()),
        Message::HelloAck { proto, .. } => Err(CommsError::Protocol(format!(
            "collector speaks v{proto}, expected v{PROTO_VERSION}"
        ))),
        other => Err(CommsError::Protocol(format!("expected HelloAck, got {}", other.name()))),
    }
}

/// One push + ack round trip; feeds the offset estimator.
fn push_blob(
    t: &mut TcpTransport,
    shared: &Shared,
    kind: u8,
    seq: u64,
    blob: Vec<u8>,
) -> Result<(), CommsError> {
    let t_tx_us = ea_comms::clock::now_us();
    t.send(Message::OpsPush { kind, seq, t_tx_us, blob })?;
    let reply = t.recv()?;
    let t_rx_us = ea_comms::clock::now_us();
    match reply {
        Message::OpsAck { seq: ack_seq, echo_tx_us, t_collector_us } => {
            if ack_seq != seq {
                return Err(CommsError::Protocol(format!("ack for seq {ack_seq}, sent {seq}")));
            }
            shared.offset.lock().unwrap_or_else(|e| e.into_inner()).sample(
                echo_tx_us,
                t_collector_us,
                t_rx_us,
            );
            Ok(())
        }
        other => Err(CommsError::Protocol(format!("expected OpsAck, got {}", other.name()))),
    }
}

fn run(
    transport: TcpTransport,
    collector: SocketAddr,
    cfg: PusherConfig,
    shared: Arc<Shared>,
) -> u64 {
    let mut transport = Some(transport);
    let mut pending: Vec<TraceEvent> = Vec::new();
    let mut seq = 0u64;
    let mut acked = 0u64;
    loop {
        // Interruptible sleep: a stop request flushes and exits
        // immediately instead of waiting out the interval.
        let stopping = {
            let guard = shared.stop.lock().unwrap_or_else(|e| e.into_inner());
            let (guard, _) = shared
                .cv
                .wait_timeout_while(guard, cfg.interval, |stop| !*stop)
                .unwrap_or_else(|e| e.into_inner());
            *guard
        };

        // Drain regardless of connectivity: rings overwrite on wrap, so
        // events must move into the (bounded) pending buffer promptly.
        let drained = ea_trace::drain();
        if let Some(rec) = &cfg.recorder {
            rec.absorb(&drained);
        }
        pending.extend(drained);
        if pending.len() > MAX_BUFFERED_EVENTS {
            let excess = pending.len() - MAX_BUFFERED_EVENTS;
            pending.drain(..excess);
        }

        if transport.is_none() {
            // Collector was unreachable last cycle; retry the dial.
            if let Ok(mut t) = connect(collector, &cfg.tcp) {
                if handshake(&mut t).is_ok() {
                    transport = Some(t);
                }
            }
        }

        if let Some(t) = transport.as_mut() {
            let offset_us = shared.offset.lock().unwrap_or_else(|e| e.into_inner()).offset_us();
            let blob = codec::encode_trace(&cfg.process, offset_us, &pending);
            seq += 1;
            match push_blob(t, &shared, OPS_KIND_TRACE, seq, blob) {
                Ok(()) => {
                    acked += 1;
                    pending.clear();
                }
                Err(_) => {
                    // Keep `pending`; reconnect next cycle.
                    transport = None;
                }
            }
        }

        if cfg.push_metrics {
            if let Some(t) = transport.as_mut() {
                let mut snap = ea_trace::metrics::global().snapshot();
                for extra in &cfg.extra_metrics {
                    let more = extra();
                    snap.counters.extend(more.counters);
                    snap.gauges.extend(more.gauges);
                    snap.histograms.extend(more.histograms);
                }
                let blob = codec::encode_metrics(&cfg.process, &snap);
                seq += 1;
                match push_blob(t, &shared, OPS_KIND_METRICS, seq, blob) {
                    Ok(()) => acked += 1,
                    Err(_) => transport = None,
                }
            }
        }

        if stopping {
            return acked;
        }
    }
}
