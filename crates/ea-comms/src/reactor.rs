//! Non-blocking event-loop server core: connection multiplexing for
//! thousand-worker fan-in.
//!
//! A thread per connection puts every cost in the wrong place at large
//! pipeline counts: one OS thread (stack, scheduler slot, context
//! switches) per mostly-idle worker, and a wake-per-message handoff
//! between the socket and the shard state. The *server* side is therefore
//! a small reactor, and the only accept path there is:
//!
//! * `N` event-loop threads (`ReactorConfig::threads`, or the
//!   `EA_COMMS_THREADS` environment variable) each own an epoll instance
//!   and a disjoint set of connections — no cross-thread locking on the
//!   hot read path.
//! * Each connection is an incremental frame state machine
//!   ([`crate::conn::Conn`]) assembling wire messages into pooled buffers.
//! * Decoded messages are handed to a [`ReactorHandler`]; replies are
//!   queued through an [`Outbox`] and written with backpressure: a
//!   connection whose unsent queue exceeds
//!   [`ReactorConfig::max_outbound_bytes`] is evicted as a slow consumer.
//! * An optional idle timeout reaps silent connections via a coarse
//!   timer wheel, without per-connection timers.
//! * [`Reactor::shutdown_graceful`] drains before closing: the handler
//!   gets one [`ReactorHandler::on_shutdown`] callback to complete or
//!   reject deferred work, new connections are refused, and queued
//!   write buffers are flushed (bounded by a caller-chosen timeout)
//!   before sockets close. [`Reactor::waker`] hands out a cloneable
//!   [`ReactorWaker`] that cuts short the event loops' sleep, so work
//!   completed on external threads is flushed immediately.
//!
//! The *client* side — [`crate::transport::Transport`], [`ShardClient`],
//! loopback, fault injection — is untouched: the reactor speaks exactly
//! the same `frame` + `wire` protocol, so every existing transport-level
//! test runs against it unmodified.
//!
//! Platform: Linux on x86_64 or aarch64 only. The event loop is epoll
//! through the raw-syscall bindings in [`crate::sys`]; there is no
//! fallback, and any other target fails to compile with that message.
//!
//! [`ShardClient`]: crate::client::ShardClient

use std::fmt;
use std::time::Duration;

use crate::frame::FrameError;
use crate::wire::Message;

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
compile_error!(
    "ea-comms needs Linux on x86_64 or aarch64: the reactor is epoll over raw syscalls (sys.rs)"
);

#[path = "reactor_epoll.rs"]
mod imp;

pub use imp::{Reactor, ReactorWaker};

/// Stable identity of one accepted connection.
///
/// Packs `thread | generation | slot` into a `u64`, so the id is both the
/// routing key (which event loop owns the socket) and a liveness check
/// (the generation changes when a slot is reused, so a send addressed to
/// a closed connection is dropped instead of reaching its successor).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub(crate) u64);

/// Generations wrap at 24 bits; with 32-bit slots and an 8-bit thread
/// index the packed id stays collision-free for any realistic churn.
pub(crate) const GEN_MASK: u32 = 0x00FF_FFFF;

impl ConnId {
    pub(crate) fn new(thread: usize, gen: u32, slot: usize) -> ConnId {
        debug_assert!(thread < 0x100 && slot <= u32::MAX as usize);
        ConnId(
            ((thread as u64) << 56)
                | (((gen & GEN_MASK) as u64) << 32)
                | (slot as u64 & 0xFFFF_FFFF),
        )
    }

    /// An id from a raw `u64`: either the round trip of [`ConnId::raw`]
    /// (a handler that keys its own state by the packed value), or a tag
    /// for requests *outside* a reactor (an embedder's direct-submit path,
    /// unit tests). Invented ids share the packed namespace with
    /// reactor-issued ones, so never feed one of those into an [`Outbox`].
    pub fn from_raw(raw: u64) -> ConnId {
        ConnId(raw)
    }

    /// The packed value, for handlers that key state outside the reactor.
    pub fn raw(self) -> u64 {
        self.0
    }

    pub(crate) fn thread(self) -> usize {
        (self.0 >> 56) as usize
    }

    pub(crate) fn gen(self) -> u32 {
        ((self.0 >> 32) as u32) & GEN_MASK
    }

    pub(crate) fn slot(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }
}

impl fmt::Debug for ConnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ConnId(t{}/s{}/g{})", self.thread(), self.slot(), self.gen())
    }
}

/// Why the reactor dropped a connection.
#[derive(Debug)]
pub enum DisconnectReason {
    /// The peer closed cleanly at a frame boundary.
    PeerClosed,
    /// The byte stream violated the frame protocol (bad magic/version/
    /// flags, oversized payload, CRC mismatch, EOF mid-frame, or an
    /// undecodable payload).
    Frame(FrameError),
    /// A socket error other than an orderly close.
    Io(std::io::Error),
    /// The connection's unsent outbound queue exceeded
    /// [`ReactorConfig::max_outbound_bytes`].
    SlowConsumer {
        /// Queue depth at eviction time.
        queued_bytes: usize,
    },
    /// No complete message arrived within [`ReactorConfig::idle_timeout`].
    IdleTimeout,
    /// The [`ReactorHandler`] asked for the close.
    HandlerClosed(String),
    /// The reactor itself is shutting down.
    Shutdown,
}

impl fmt::Display for DisconnectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DisconnectReason::PeerClosed => write!(f, "peer closed"),
            DisconnectReason::Frame(e) => write!(f, "protocol violation: {e}"),
            DisconnectReason::Io(e) => write!(f, "socket error: {e}"),
            DisconnectReason::SlowConsumer { queued_bytes } => {
                write!(f, "slow consumer evicted ({queued_bytes} bytes queued)")
            }
            DisconnectReason::IdleTimeout => write!(f, "idle timeout"),
            DisconnectReason::HandlerClosed(why) => write!(f, "closed by handler: {why}"),
            DisconnectReason::Shutdown => write!(f, "server shutdown"),
        }
    }
}

/// Replies and closes a handler wants performed, batched per callback.
///
/// Handlers never touch sockets directly: they stage messages here and
/// the owning event loop encodes, queues, and flushes them with
/// backpressure accounting. Sends addressed to connections on *other*
/// reactor threads are forwarded through that thread's inbox and wake
/// pipe.
#[derive(Default)]
pub struct Outbox {
    pub(crate) sends: Vec<(ConnId, Message)>,
    pub(crate) closes: Vec<(ConnId, String)>,
}

impl Outbox {
    /// Queues `msg` for delivery to `to`. Delivery is best-effort: if the
    /// connection has since closed, the message is dropped (and any large
    /// payload buffers recycled) — exactly the semantics a retrying
    /// client already handles.
    pub fn send(&mut self, to: ConnId, msg: Message) {
        self.sends.push((to, msg));
    }

    /// Asks the reactor to drop `conn` after flushing nothing further.
    pub fn close(&mut self, conn: ConnId, why: impl Into<String>) {
        self.closes.push((conn, why.into()));
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.closes.is_empty()
    }
}

/// Server logic plugged into the reactor.
///
/// Callbacks run on reactor threads and must not block: anything slow or
/// lock-heavy belongs behind `poll`-completed deferral (park the request,
/// return, finish it from a later callback). All callbacks take `&self`;
/// the handler is shared across event-loop threads.
pub trait ReactorHandler: Send + Sync + 'static {
    /// One decoded wire message arrived on `conn`.
    fn on_message(&self, conn: ConnId, msg: Message, out: &mut Outbox);

    /// `conn` is gone (any [`DisconnectReason`], including handler-
    /// requested closes and shutdown). The id is dead: sends to it are
    /// silently dropped.
    fn on_disconnect(&self, _conn: ConnId, _reason: &DisconnectReason) {}

    /// Called periodically (at [`ReactorConfig::handler_poll`] cadence
    /// while [`Self::has_deferred`] reports work) so deferred replies —
    /// e.g. parked blocking pulls — can complete or time out.
    fn poll(&self, _out: &mut Outbox) {}

    /// Whether `poll` currently has pending deferred work. When `false`
    /// the event loop sleeps in `epoll_wait` at a coarse timeout instead
    /// of the `handler_poll` cadence.
    fn has_deferred(&self) -> bool {
        false
    }

    /// Graceful-shutdown notice: the reactor is about to drain and stop.
    /// Complete or reject deferred work here — replies staged in `out`
    /// are flushed (within [`Reactor::shutdown_graceful`]'s bounded
    /// wait) before connections are closed. Called at most once, from
    /// the thread driving the shutdown, and only on the graceful path;
    /// plain [`Reactor::shutdown`] and drop skip it.
    fn on_shutdown(&self, _out: &mut Outbox) {}
}

/// Reactor tuning knobs. `Default` is sensible for tests and demos.
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Event-loop thread count. `0` (the default) reads the
    /// `EA_COMMS_THREADS` environment variable, falling back to 1.
    /// Clamped to 64.
    pub threads: usize,
    /// Drop connections with no complete inbound message for this long.
    /// `None` disables idle reaping (connections park indefinitely).
    pub idle_timeout: Option<Duration>,
    /// Slow-consumer bound: a connection whose encoded-but-unsent bytes
    /// exceed this is evicted.
    pub max_outbound_bytes: usize,
    /// How often [`ReactorHandler::poll`] runs while deferred work is
    /// pending.
    pub handler_poll: Duration,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            threads: 0,
            idle_timeout: None,
            max_outbound_bytes: 64 << 20,
            handler_poll: Duration::from_millis(5),
        }
    }
}

/// Resolves `ReactorConfig::threads`: explicit count wins, then
/// `EA_COMMS_THREADS`, then 1. Clamped to `[1, 64]`.
pub(crate) fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested.min(64);
    }
    std::env::var("EA_COMMS_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
        .min(64)
}

/// Returns a message's large payload buffers to the tensor pool when the
/// message will never be sent (stale target, shutdown).
pub(crate) fn recycle_message(msg: Message) {
    match msg {
        Message::PullReply { weights, .. } => ea_tensor::pool::recycle(weights),
        Message::SubmitDelta { delta, .. } => ea_tensor::pool::recycle(delta),
        Message::Infer { input, .. } => ea_tensor::pool::recycle(input),
        Message::InferReply { output, .. } => ea_tensor::pool::recycle(output),
        Message::WeightsUpdate { weights, .. } => ea_tensor::pool::recycle(weights),
        _ => {}
    }
}

#[cfg(test)]
mod unit_tests {
    use super::*;

    #[test]
    fn conn_id_round_trips_fields() {
        let id = ConnId::new(7, 0x00AB_CDEF, 123_456);
        assert_eq!(id.thread(), 7);
        assert_eq!(id.gen(), 0x00AB_CDEF);
        assert_eq!(id.slot(), 123_456);
    }

    #[test]
    fn conn_id_generation_wraps_at_24_bits() {
        let id = ConnId::new(0, GEN_MASK.wrapping_add(5), 1);
        assert_eq!(id.gen(), 4);
    }

    #[test]
    fn resolve_threads_prefers_explicit_count() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(1000), 64);
    }
}
