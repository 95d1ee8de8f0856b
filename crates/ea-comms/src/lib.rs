//! `ea-comms`: the pluggable transport layer for multi-process elastic
//! averaging.
//!
//! The paper's Figure 6 runs each parallel pipeline and the reference
//! model in *separate processes*, shipping local updates asynchronously.
//! This crate supplies the missing communication substrate:
//!
//! * [`Transport`] — the client's end of one ordered, message-framed,
//!   bidirectional connection, behind a trait so the fault-injection shim
//!   composes over any backend.
//! * [`loopback`] — an in-process connected pair, zero serialization, for
//!   client and fault-shim unit tests.
//! * [`tcp`] — length-prefixed binary frames (versioned header, CRC32
//!   payload check) over `std::net`, with connect/read timeouts, bounded
//!   exponential-backoff connect retry, and per-connection
//!   send/recv/retry/byte counters.
//! * [`wire`] — the elastic-averaging protocol: `Hello`/`HelloAck`
//!   version handshake, `PullRequest`/`PullReply` (Step ❷),
//!   `SubmitDelta`/`Ack` (Steps ❸–❹) with `(shard, round, pipe)`
//!   idempotency keys.
//! * [`fault`] — a seeded drop/delay/duplicate wrapper proving the
//!   retry + idempotency design keeps training byte-identical under loss,
//!   plus a round-scheduled chaos harness ([`ChaosConfig`]: crash, stall,
//!   partition) for the fault-tolerance tests.
//! * [`reactor`] — the nonblocking server core: an epoll event loop
//!   multiplexing every accepted connection across a small set of
//!   threads, with incremental zero-copy frame assembly into pooled
//!   buffers, write-side backpressure with slow-consumer eviction, and
//!   idle-timeout reaping. It is the only server-side accept path and
//!   speaks the same `frame` + `wire` protocol as the clients.
//! * [`client`] — [`ShardClient`] (request/reply with bounded retry) and
//!   the [`ShardChannel`] abstraction the trainer runs against;
//!   `ea-runtime` provides the in-process implementation
//!   (`LocalShards`) and the `RefShardServer` that serves these messages.

pub(crate) mod bytepool;
pub mod client;
pub mod clock;
pub(crate) mod conn;
mod crc;
pub mod fault;
pub mod frame;
pub mod loopback;
pub mod reactor;
pub(crate) mod sys;
pub mod tcp;
pub(crate) mod trace;
pub mod transport;
pub mod wire;

pub use client::{
    validate_shard_map, PerServer, QuorumInfo, RemoteShards, RetryConfig, ServerInfo, ShardChannel,
    ShardClient,
};
pub use clock::{Clock, ClockGuard, OffsetEstimator, Waiter};
pub use ea_optim::Codec;
pub use fault::{ChaosConfig, FaultConfig, FaultStats, FaultyTransport};
pub use frame::{crc32, FrameError, PROTO_VERSION};
pub use loopback::{loopback_pair, LoopbackTransport};
pub use reactor::{
    ConnId, DisconnectReason, Outbox, Reactor, ReactorConfig, ReactorHandler, ReactorWaker,
};
pub use tcp::{TcpConfig, TcpTransport};
pub use transport::{CommsError, Transport, TransportStats};
pub use wire::Message;

/// Takes an empty pooled byte buffer with capacity ≥ `cap` for building a
/// compressed blob (`SubmitDeltaC`/`PullReplyC`/`WeightsUpdateC`). Hand
/// the filled buffer to a `Message`; the transport recycles it after the
/// frame is serialized.
pub fn take_blob(cap: usize) -> Vec<u8> {
    bytepool::take_empty(cap)
}

/// Returns a received compressed blob to the byte pool after decoding it.
pub fn recycle_blob(buf: Vec<u8>) {
    bytepool::recycle(buf)
}
