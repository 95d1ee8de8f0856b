//! The receiving end: a [`ReactorHandler`] that accepts `OpsPush`
//! streams from the whole fleet and folds them into one
//! [`FleetState`].
//!
//! The collector rides the same nonblocking reactor the shard servers
//! use — it is just another handler, so it inherits frame assembly,
//! backpressure, idle reaping and graceful shutdown for free. Every
//! push is acknowledged with the collector's own clock reading; the
//! `(echo_tx_us, t_collector_us, t_rx_us)` triple is what lets each
//! pusher estimate its offset to the collector and, transitively, lets
//! the fleet merge put every process on one time axis.

use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use ea_comms::frame::{FrameError, PROTO_VERSION};
use ea_comms::wire::{OPS_KIND_METRICS, OPS_KIND_TRACE};
use ea_comms::{ConnId, Message, Outbox, Reactor, ReactorConfig, ReactorHandler};

use crate::codec;
use crate::fleet::FleetState;

/// The fleet-collection handler. Share the [`FleetState`] via
/// [`OpsCollector::state`] to render merged views while collecting.
pub struct OpsCollector {
    state: Arc<Mutex<FleetState>>,
    pushes: AtomicU64,
    rejects: AtomicU64,
}

impl Default for OpsCollector {
    fn default() -> Self {
        OpsCollector::new()
    }
}

impl OpsCollector {
    /// An empty collector.
    pub fn new() -> OpsCollector {
        OpsCollector {
            state: Arc::new(Mutex::new(FleetState::new())),
            pushes: AtomicU64::new(0),
            rejects: AtomicU64::new(0),
        }
    }

    /// The shared fleet state.
    pub fn state(&self) -> Arc<Mutex<FleetState>> {
        Arc::clone(&self.state)
    }

    /// Pushes accepted so far.
    pub fn pushes(&self) -> u64 {
        self.pushes.load(Ordering::Relaxed)
    }

    /// Malformed pushes rejected so far.
    pub fn rejects(&self) -> u64 {
        self.rejects.load(Ordering::Relaxed)
    }
}

impl ReactorHandler for OpsCollector {
    fn on_message(&self, conn: ConnId, msg: Message, out: &mut Outbox) {
        match msg {
            Message::Hello { proto, .. } => {
                if proto != PROTO_VERSION as u16 {
                    out.close(conn, format!("proto v{proto}, collector speaks v{PROTO_VERSION}"));
                    return;
                }
                // Topology fields are meaningless for a collector;
                // zeros mark "not a shard server".
                out.send(
                    conn,
                    Message::HelloAck {
                        proto,
                        n_shards: 0,
                        n_pipelines: 0,
                        codec: ea_comms::Codec::F32,
                        shard_base: 0,
                        shard_count: 0,
                    },
                );
            }
            Message::OpsPush { kind, seq, t_tx_us, blob } => {
                // Stamp the receive time *before* decoding: the blob can
                // be hundreds of kilobytes, and the clock-sync math
                // assumes the remote timestamp sits at the midpoint of
                // the exchange, not after an ingest delay that only the
                // request half of the round trip pays.
                let t_collector_us = ea_comms::clock::now_us();
                let decoded = match kind {
                    OPS_KIND_TRACE => codec::decode_trace(&blob).map(|batch| {
                        self.state.lock().unwrap_or_else(|e| e.into_inner()).ingest_trace(batch)
                    }),
                    OPS_KIND_METRICS => codec::decode_metrics(&blob).map(|batch| {
                        self.state.lock().unwrap_or_else(|e| e.into_inner()).ingest_metrics(batch)
                    }),
                    k => Err(FrameError::BadPayload(format!("unknown push kind {k}"))),
                };
                match decoded {
                    Ok(()) => {
                        self.pushes.fetch_add(1, Ordering::Relaxed);
                        out.send(
                            conn,
                            Message::OpsAck { seq, echo_tx_us: t_tx_us, t_collector_us },
                        );
                    }
                    Err(why) => {
                        // One bad blob poisons the stream's framing
                        // assumptions — drop the connection, keep the
                        // fleet state already ingested.
                        self.rejects.fetch_add(1, Ordering::Relaxed);
                        out.close(conn, format!("bad ops blob: {why}"));
                    }
                }
            }
            other => out.close(conn, format!("unexpected {} at collector", other.name())),
        }
    }
}

/// A bound collector: reactor + shared state, ready for pushers.
pub struct CollectorServer {
    reactor: Reactor,
    handler: Arc<OpsCollector>,
}

impl CollectorServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts collecting.
    pub fn bind(addr: &str) -> std::io::Result<CollectorServer> {
        let listener = TcpListener::bind(addr)?;
        let handler = Arc::new(OpsCollector::new());
        let reactor = Reactor::spawn(
            listener,
            handler.clone() as Arc<dyn ReactorHandler>,
            ReactorConfig::default(),
        )?;
        Ok(CollectorServer { reactor, handler })
    }

    /// The bound address (for `--ops-push` flags).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.reactor.local_addr()
    }

    /// Locks and returns the merged fleet state.
    pub fn state(&self) -> Arc<Mutex<FleetState>> {
        self.handler.state()
    }

    /// Convenience: lock the state for a closure.
    pub fn with_state<T>(&self, f: impl FnOnce(&MutexGuard<'_, FleetState>) -> T) -> T {
        let state = self.handler.state();
        let guard = state.lock().unwrap_or_else(|e| e.into_inner());
        f(&guard)
    }

    /// Pushes accepted so far.
    pub fn pushes(&self) -> u64 {
        self.handler.pushes()
    }

    /// Malformed pushes rejected so far.
    pub fn rejects(&self) -> u64 {
        self.handler.rejects()
    }

    /// Drains in-flight pushes and stops.
    pub fn shutdown(self) {
        self.reactor.shutdown_graceful(Duration::from_secs(5));
    }
}
