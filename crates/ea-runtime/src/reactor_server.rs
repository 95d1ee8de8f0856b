//! The production driver of [`ShardServerCore`]: a thin adapter from the
//! `ea-comms` reactor's callbacks to the core's methods.
//!
//! All protocol logic — lease renewal, codec transcode, parking pulls for
//! incomplete rounds, answering them when a submission completes the
//! round, pushing round boundaries to weight subscribers — lives in
//! `server.rs` and is the same code the `ea-chaos` simulator drives. This
//! file only translates: reactor [`ConnId`] ↔ the core's opaque
//! [`ConnKey`], the core's `(connection, reply)` pairs → the reactor's
//! [`Outbox`], and the reactor's [`DisconnectReason`]s → server counters.
//! Every callback takes the server's one lock for its duration; nothing
//! here blocks while holding it.
//!
//! Byte-exactness: arrival *order* of deltas never affects results —
//! [`RefShard`](crate::RefShard) folds a round's deltas in pipe order at
//! completion time — so multiplexing thousands of workers onto a few
//! event-loop threads yields bit-identical reference weights to a
//! single-process run.

use std::io;
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use ea_comms::reactor::{ConnId, DisconnectReason, Outbox, Reactor, ReactorConfig, ReactorHandler};
use ea_comms::wire::Message;
use ea_comms::FrameError;
use ea_trace::log_event;
use parking_lot::Mutex;

use crate::server::{ConnKey, RefShardServer, ShardServerCore};

/// [`ReactorHandler`] adapter around a [`RefShardServer`]'s core.
pub struct ReactorDispatch {
    core: Arc<Mutex<ShardServerCore>>,
    /// This adapter's [`ConnKey::space`]: two reactors on one server number
    /// their connections independently, so each gets its own.
    space: u32,
}

impl ReactorDispatch {
    fn key(&self, conn: ConnId) -> ConnKey {
        ConnKey { space: self.space, id: conn.raw() }
    }

    /// Runs `f` on the core under the lock and stages what it emitted.
    /// Replies owed to another adapter's connections cannot be delivered
    /// from this reactor and are dropped — those clients retransmit, as
    /// after any lost reply; one reactor per server is the supported shape.
    fn drive<R>(
        &self,
        out: &mut Outbox,
        f: impl FnOnce(&mut ShardServerCore, &mut Vec<(ConnKey, Message)>) -> R,
    ) -> R {
        let mut replies = Vec::new();
        let served = f(&mut self.core.lock(), &mut replies);
        for (to, msg) in replies {
            if to.space == self.space {
                out.send(ConnId::from_raw(to.id), msg);
            }
        }
        served
    }
}

impl ReactorHandler for ReactorDispatch {
    fn on_message(&self, conn: ConnId, msg: Message, out: &mut Outbox) {
        let key = self.key(conn);
        if let Err(e) = self.drive(out, |core, replies| core.on_message(key, msg, replies)) {
            out.close(conn, e.to_string());
        }
    }

    fn on_disconnect(&self, conn: ConnId, reason: &DisconnectReason) {
        let mut core = self.core.lock();
        core.on_disconnect(self.key(conn));
        let m = core.counters();
        match reason {
            DisconnectReason::PeerClosed => m.inc_disconnects(),
            DisconnectReason::Frame(FrameError::BadCrc { .. }) => m.inc_crc_failures(),
            DisconnectReason::Frame(e) => {
                m.inc_protocol_violations();
                log_event!(Error, "refshard", "dropping conn: bad frame: {e}");
            }
            DisconnectReason::Io(e) => {
                m.inc_io_errors();
                log_event!(Error, "refshard", "dropping conn: receive failed: {e}");
            }
            DisconnectReason::SlowConsumer { queued_bytes } => {
                m.inc_slow_consumer_evictions();
                log_event!(
                    Warn,
                    "refshard",
                    "evicting slow consumer ({queued_bytes} bytes queued)"
                );
            }
            DisconnectReason::IdleTimeout => m.inc_idle_timeouts(),
            // Counted when the close was requested / initiated.
            DisconnectReason::HandlerClosed(_) | DisconnectReason::Shutdown => {}
        }
    }

    fn poll(&self, out: &mut Outbox) {
        // Covers rounds completed by the reaper (degraded quorum) or by
        // another holder of the shards — neither arrives via on_message.
        self.drive(out, |core, replies| core.flush(replies));
    }

    fn has_deferred(&self) -> bool {
        self.core.lock().has_deferred()
    }

    fn on_shutdown(&self, out: &mut Outbox) {
        // Answer every parked pull whose round is ready and give
        // subscribers one final snapshot; the rest are scrubbed as their
        // connections close — a surviving client retransmits elsewhere.
        self.poll(out);
    }
}

impl RefShardServer {
    /// Serves `listener` on the `ea-comms` reactor: all connections
    /// multiplexed over `cfg.threads` event-loop threads, every callback
    /// executing on this server's [`ShardServerCore`].
    ///
    /// The returned [`Reactor`] serves until dropped or
    /// [`shutdown`](Reactor::shutdown).
    pub fn serve_reactor(&self, listener: TcpListener, cfg: ReactorConfig) -> io::Result<Reactor> {
        Reactor::spawn(listener, self.dispatch(), cfg)
    }

    /// A fresh [`ReactorDispatch`] over this server's core, for embedding
    /// in a *composite* [`ReactorHandler`] — e.g. an inference frontend
    /// that routes `Infer` to its own engine and delegates the whole
    /// trainer protocol (plus weight subscriptions) here.
    pub fn dispatch(&self) -> Arc<ReactorDispatch> {
        let space = self.next_space.fetch_add(1, Ordering::Relaxed);
        Arc::new(ReactorDispatch { core: Arc::clone(&self.core), space })
    }
}
