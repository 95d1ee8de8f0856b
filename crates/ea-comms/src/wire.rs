//! The elastic-averaging wire protocol.
//!
//! Six message types carry the whole of Figure 6's pipeline↔reference
//! traffic:
//!
//! * [`Message::Hello`] / [`Message::HelloAck`] — version handshake. The
//!   client announces its protocol version and pipeline id; the server
//!   confirms and reports the shard/pipeline topology so a misconfigured
//!   worker fails fast instead of corrupting a round.
//! * [`Message::PullRequest`] / [`Message::PullReply`] — Step ❷: fetch the
//!   reference weights as of exactly `version` completed rounds. The reply
//!   echoes shard and version so retried requests can be matched and stale
//!   duplicates discarded.
//! * [`Message::SubmitDelta`] / [`Message::Ack`] — Steps ❸–❹: ship one
//!   pipeline's local update for a round. `(shard, round, pipe)` is the
//!   idempotency key: resubmissions of an already-recorded key are
//!   acknowledged with `duplicate = true` and otherwise ignored, which is
//!   what makes at-least-once retry safe.
//! * [`Message::Heartbeat`] / [`Message::HeartbeatAck`] — membership
//!   lease renewal. A worker beats between rounds; the ack reports the
//!   server's current round, the effective quorum (live member count) and
//!   the live-member bitmask, so a worker learns when the ensemble
//!   degraded and can renormalize its pull strength to `1/k`.
//! * [`Message::RoundInfoRequest`] / [`Message::RoundInfoReply`] — the
//!   per-round membership record: which pipelines' updates were folded
//!   into a given completed round and the quorum it was applied under.
//! * [`Message::MetricsRequest`] / [`Message::MetricsReply`] — remote
//!   read of the server's health counters, for dashboards and tests.
//!   The reply is a fixed array of counters in the server's snapshot
//!   field order; the transport layer stays ignorant of their meaning.
//!
//! The **serving extension** (tags 13–16) lets one reactor fleet carry
//! inference traffic next to the trainer protocol above:
//!
//! * [`Message::Infer`] / [`Message::InferReply`] — one inference
//!   request (flat input rows) and its output rows, matched on a
//!   client-chosen `id` so requests can be pipelined on one connection.
//!   A reply with `shed = true` carries no output: admission control
//!   rejected the request (bounded queue full) and the client should
//!   back off — precisely *not* the silent drop a retrying trainer
//!   tolerates.
//! * [`Message::SubscribeWeights`] / [`Message::WeightsUpdate`] — a
//!   **read-only** subscription to a reference shard: the server
//!   replies immediately with the current snapshot and pushes another
//!   `WeightsUpdate` at every elastic round boundary. Unlike `Hello`/
//!   `SubmitDelta`/`Heartbeat`, a subscription carries no pipeline id
//!   and never registers lease membership — an inference replica can
//!   come and go without ever stalling a training quorum.
//!
//! The **compressed-exchange extension** (tags 17–19) carries the same
//! weight/delta traffic through a negotiated lossy codec
//! ([`ea_optim::Codec`]): `Hello` announces the codec the worker wants,
//! `HelloAck` confirms it and reports the server's **shard map** (which
//! contiguous range of global shard ids this process owns — the
//! scatter-gather client fans a logical pull/submit out across several
//! such servers). [`Message::SubmitDeltaC`] / [`Message::PullReplyC`] /
//! [`Message::WeightsUpdateC`] hold the encoded blob plus its dense
//! element count; the blob structure (length, top-k index monotonicity)
//! is validated on decode. Connections that negotiate `F32` keep using
//! the uncompressed tags 4/5/16, so pre-codec replay tooling and the
//! loopback path are byte-identical to before.
//!
//! The **observability extension** (tags 20–21, `PROTO_VERSION` 3)
//! serves fleet-wide trace collection (`ea-ops`):
//!
//! * [`Message::OpsPush`] / [`Message::OpsAck`] — a process pushes a
//!   drained batch of trace events or a metrics-registry snapshot (an
//!   opaque blob; `ea-ops` owns the blob codec so the transport stays
//!   ignorant) to a collector. The ack echoes the push's send timestamp
//!   and stamps the collector's receive time, so every pushing process
//!   runs an NTP-style [`crate::clock::OffsetEstimator`] against the
//!   collector and the fleet's timelines merge onto one reference
//!   clock. `Heartbeat`/`HeartbeatAck` carry the same timestamp pair
//!   for worker↔server skew measurement, which is why version 2 frames
//!   are rejected: the heartbeat payload grew.
//!
//! `PROTO_VERSION` 4 changed no message: it dropped the epoch pair from
//! the `ea-ops` trace blob inside `OpsPush`, so a mixed pusher/collector
//! pair fails the `Hello` instead of every blob decode.
//!
//! The extensions are versioned by the frame header's `PROTO_VERSION`
//! plus tag range: a pre-serving peer rejects tags 13–21 as
//! `UnknownType` and closes, so mixed deployments fail loudly at the
//! first unknown message instead of corrupting training state.
//!
//! Payload encoding is little-endian and fixed-layout, read back through
//! the one bounds-checked cursor ([`crate::frame::Reader`]); the flat
//! `f32` buffers use [`ea_optim::codec`] so decode lands in pooled
//! storage. Tags from [`tag::FILE_REF_CHECKPOINT`] up name frames that
//! live in files (the same header and CRC, never a connection).

use crate::frame::{encode_frame_with, FrameError, Reader};
use ea_optim::codec::{decode_f32s_le, encode_f32s_le};
use ea_optim::Codec;

/// One protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Client → server: open a connection for pipeline `pipe`, asking to
    /// exchange weights/deltas under `codec` ([`Codec::F32`] keeps the
    /// uncompressed tags).
    Hello { proto: u16, pipe: u32, codec: Codec },
    /// Server → client: handshake accepted; topology follows. `n_shards`
    /// is the **global** shard count; `[shard_base, shard_base +
    /// shard_count)` is the contiguous range of global shard ids this
    /// server process owns (a single-server deployment owns all of them).
    /// `codec` is the codec the server will actually speak on this
    /// connection.
    HelloAck {
        proto: u16,
        n_shards: u32,
        n_pipelines: u32,
        codec: Codec,
        shard_base: u32,
        shard_count: u32,
    },
    /// Client → server: request shard weights at exactly `version`.
    PullRequest { shard: u32, version: u64 },
    /// Server → client: shard weights; `version` echoes the state the
    /// weights correspond to (may exceed the requested version for stale
    /// retries — the client discards mismatches).
    PullReply { shard: u32, version: u64, weights: Vec<f32> },
    /// Client → server: pipeline `pipe`'s local update for `round`.
    SubmitDelta { shard: u32, round: u64, pipe: u32, delta: Vec<f32> },
    /// Server → client: submission recorded (or recognized as a
    /// retransmission, `duplicate = true`).
    Ack { shard: u32, round: u64, pipe: u32, duplicate: bool },
    /// Client → server: lease renewal from pipeline `pipe`, which has
    /// completed `round` rounds. `t_tx_us` is the sender's local clock
    /// (µs, [`crate::clock::now`] domain) at transmit time, for
    /// NTP-style offset estimation against the ack.
    Heartbeat { pipe: u32, round: u64, t_tx_us: u64 },
    /// Server → client: lease renewed. `round` is the server's newest
    /// completed round across shards, `quorum` the number of live
    /// members, `members` the live-member bitmask (bit `p` = pipeline
    /// `p` holds a valid lease). `echo_tx_us` echoes the heartbeat's
    /// `t_tx_us`; `t_server_us` is the server's local clock when it
    /// handled the beat — together with the client's receive time they
    /// form one NTP-style clock sample.
    HeartbeatAck {
        pipe: u32,
        round: u64,
        quorum: u32,
        members: u64,
        echo_tx_us: u64,
        t_server_us: u64,
    },
    /// Client → server: which pipelines contributed to `round` on
    /// `shard`?
    RoundInfoRequest { shard: u32, round: u64 },
    /// Server → client: the membership record of a completed round.
    /// `known = false` means the round has not completed yet or its
    /// record was evicted from the bounded history (quorum/members are
    /// zero then).
    RoundInfoReply { shard: u32, round: u64, quorum: u32, members: u64, known: bool },
    /// Client → server: dump the server's health counters.
    MetricsRequest,
    /// Server → client: counter values in `ServerMetricsSnapshot` field
    /// order (disconnects, protocol_violations, crc_failures, io_errors,
    /// heartbeats, evictions, rejoins, degraded_rounds, quorum_lost,
    /// checkpoints_saved, checkpoint_restores, slow_consumer_evictions,
    /// idle_timeouts).
    MetricsReply { counters: [u64; METRICS_COUNTERS] },
    /// Client → server: one inference request. `input` is the flat
    /// input rows in the served model's layout; `id` is echoed in the
    /// reply so requests can be pipelined on one connection.
    Infer { id: u64, input: Vec<f32> },
    /// Server → client: the output rows for request `id`, computed
    /// against reference `version`. `shed = true` means admission
    /// control rejected the request (queue full); `output` is empty.
    InferReply { id: u64, version: u64, shed: bool, output: Vec<f32> },
    /// Client → server: read-only subscription to `shard`'s reference
    /// weights. Carries no pipeline id and does **not** register lease
    /// membership. Answered immediately with the current snapshot, then
    /// pushed again at every round boundary.
    SubscribeWeights { shard: u32 },
    /// Server → client: pushed snapshot of `shard`'s reference weights
    /// as of `version` completed rounds.
    WeightsUpdate { shard: u32, version: u64, weights: Vec<f32> },
    /// Compressed [`Message::SubmitDelta`]: `blob` is `n` dense elements
    /// encoded under `codec`.
    SubmitDeltaC { shard: u32, round: u64, pipe: u32, codec: Codec, n: u32, blob: Vec<u8> },
    /// Compressed [`Message::PullReply`].
    PullReplyC { shard: u32, version: u64, codec: Codec, n: u32, blob: Vec<u8> },
    /// Compressed [`Message::WeightsUpdate`].
    WeightsUpdateC { shard: u32, version: u64, codec: Codec, n: u32, blob: Vec<u8> },
    /// Process → collector: one observability push. `kind` selects the
    /// blob codec ([`OPS_KIND_TRACE`] = drained trace-event batch,
    /// [`OPS_KIND_METRICS`] = registry snapshot; both defined by
    /// `ea-ops`), `seq` is a per-connection sequence number echoed in
    /// the ack, and `t_tx_us` the pusher's clock at transmit time.
    OpsPush { kind: u8, seq: u64, t_tx_us: u64, blob: Vec<u8> },
    /// Collector → process: push `seq` recorded. Echoes the push's
    /// `t_tx_us` and stamps the collector's clock, closing one clock
    /// sample against the fleet's reference timeline.
    OpsAck { seq: u64, echo_tx_us: u64, t_collector_us: u64 },
}

/// [`Message::OpsPush`] kind: a drained batch of trace events.
pub const OPS_KIND_TRACE: u8 = 0;
/// [`Message::OpsPush`] kind: a metrics-registry snapshot.
pub const OPS_KIND_METRICS: u8 = 1;

/// Number of counters carried by [`Message::MetricsReply`].
pub const METRICS_COUNTERS: usize = 13;

/// Wire tags, one per message type.
pub mod tag {
    pub const HELLO: u8 = 1;
    pub const HELLO_ACK: u8 = 2;
    pub const PULL_REQUEST: u8 = 3;
    pub const PULL_REPLY: u8 = 4;
    pub const SUBMIT_DELTA: u8 = 5;
    pub const ACK: u8 = 6;
    pub const HEARTBEAT: u8 = 7;
    pub const HEARTBEAT_ACK: u8 = 8;
    pub const ROUND_INFO_REQUEST: u8 = 9;
    pub const ROUND_INFO_REPLY: u8 = 10;
    pub const METRICS_REQUEST: u8 = 11;
    pub const METRICS_REPLY: u8 = 12;
    pub const INFER: u8 = 13;
    pub const INFER_REPLY: u8 = 14;
    pub const SUBSCRIBE_WEIGHTS: u8 = 15;
    pub const WEIGHTS_UPDATE: u8 = 16;
    pub const SUBMIT_DELTA_C: u8 = 17;
    pub const PULL_REPLY_C: u8 = 18;
    pub const WEIGHTS_UPDATE_C: u8 = 19;
    pub const OPS_PUSH: u8 = 20;
    pub const OPS_ACK: u8 = 21;
    /// File-only tags start here: frames that are written to disk and
    /// never sent. `decode_payload` rejects them as `UnknownType`.
    pub const FILE_REF_CHECKPOINT: u8 = 128;
}

/// Highest wire tag currently assigned (tests sweep `1..=MAX_TAG`).
pub const MAX_TAG: u8 = tag::OPS_ACK;

/// Number of distinct wire tags, for per-message-type counter arrays
/// (index = tag, slot 0 unused).
pub const N_TAGS: usize = MAX_TAG as usize + 1;

impl Message {
    /// The frame tag for this message.
    pub fn wire_type(&self) -> u8 {
        match self {
            Message::Hello { .. } => tag::HELLO,
            Message::HelloAck { .. } => tag::HELLO_ACK,
            Message::PullRequest { .. } => tag::PULL_REQUEST,
            Message::PullReply { .. } => tag::PULL_REPLY,
            Message::SubmitDelta { .. } => tag::SUBMIT_DELTA,
            Message::Ack { .. } => tag::ACK,
            Message::Heartbeat { .. } => tag::HEARTBEAT,
            Message::HeartbeatAck { .. } => tag::HEARTBEAT_ACK,
            Message::RoundInfoRequest { .. } => tag::ROUND_INFO_REQUEST,
            Message::RoundInfoReply { .. } => tag::ROUND_INFO_REPLY,
            Message::MetricsRequest => tag::METRICS_REQUEST,
            Message::MetricsReply { .. } => tag::METRICS_REPLY,
            Message::Infer { .. } => tag::INFER,
            Message::InferReply { .. } => tag::INFER_REPLY,
            Message::SubscribeWeights { .. } => tag::SUBSCRIBE_WEIGHTS,
            Message::WeightsUpdate { .. } => tag::WEIGHTS_UPDATE,
            Message::SubmitDeltaC { .. } => tag::SUBMIT_DELTA_C,
            Message::PullReplyC { .. } => tag::PULL_REPLY_C,
            Message::WeightsUpdateC { .. } => tag::WEIGHTS_UPDATE_C,
            Message::OpsPush { .. } => tag::OPS_PUSH,
            Message::OpsAck { .. } => tag::OPS_ACK,
        }
    }

    /// Short name for logs and errors.
    pub fn name(&self) -> &'static str {
        Message::tag_name(self.wire_type())
    }

    /// Short name for a wire tag (counter labels); `"?"` for unassigned.
    pub fn tag_name(ty: u8) -> &'static str {
        match ty {
            tag::HELLO => "Hello",
            tag::HELLO_ACK => "HelloAck",
            tag::PULL_REQUEST => "PullRequest",
            tag::PULL_REPLY => "PullReply",
            tag::SUBMIT_DELTA => "SubmitDelta",
            tag::ACK => "Ack",
            tag::HEARTBEAT => "Heartbeat",
            tag::HEARTBEAT_ACK => "HeartbeatAck",
            tag::ROUND_INFO_REQUEST => "RoundInfoRequest",
            tag::ROUND_INFO_REPLY => "RoundInfoReply",
            tag::METRICS_REQUEST => "MetricsRequest",
            tag::METRICS_REPLY => "MetricsReply",
            tag::INFER => "Infer",
            tag::INFER_REPLY => "InferReply",
            tag::SUBSCRIBE_WEIGHTS => "SubscribeWeights",
            tag::WEIGHTS_UPDATE => "WeightsUpdate",
            tag::SUBMIT_DELTA_C => "SubmitDeltaC",
            tag::PULL_REPLY_C => "PullReplyC",
            tag::WEIGHTS_UPDATE_C => "WeightsUpdateC",
            tag::OPS_PUSH => "OpsPush",
            tag::OPS_ACK => "OpsAck",
            _ => "?",
        }
    }

    /// Serializes the payload (frame body, excluding header/CRC) into
    /// `out`, which is cleared first.
    pub fn encode_payload(&self, out: &mut Vec<u8>) {
        out.clear();
        self.append_payload(out);
    }

    /// Encodes the whole frame (header, payload, CRC) into `out`, which
    /// is cleared first. The payload is serialized straight into the
    /// frame; there is no intermediate payload buffer to copy from.
    pub(crate) fn encode_frame(&self, out: &mut Vec<u8>) {
        encode_frame_with(self.wire_type(), out, |out| self.append_payload(out));
    }

    /// Appends the payload to whatever `out` already holds.
    fn append_payload(&self, out: &mut Vec<u8>) {
        match self {
            Message::Hello { proto, pipe, codec } => {
                out.extend_from_slice(&proto.to_le_bytes());
                out.extend_from_slice(&pipe.to_le_bytes());
                out.push(codec.to_wire());
            }
            Message::HelloAck { proto, n_shards, n_pipelines, codec, shard_base, shard_count } => {
                out.extend_from_slice(&proto.to_le_bytes());
                out.extend_from_slice(&n_shards.to_le_bytes());
                out.extend_from_slice(&n_pipelines.to_le_bytes());
                out.push(codec.to_wire());
                out.extend_from_slice(&shard_base.to_le_bytes());
                out.extend_from_slice(&shard_count.to_le_bytes());
            }
            Message::PullRequest { shard, version } => {
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&version.to_le_bytes());
            }
            Message::PullReply { shard, version, weights } => {
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&version.to_le_bytes());
                encode_f32s_le(weights, out);
            }
            Message::SubmitDelta { shard, round, pipe, delta } => {
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&pipe.to_le_bytes());
                encode_f32s_le(delta, out);
            }
            Message::Ack { shard, round, pipe, duplicate } => {
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&pipe.to_le_bytes());
                out.push(u8::from(*duplicate));
            }
            Message::Heartbeat { pipe, round, t_tx_us } => {
                out.extend_from_slice(&pipe.to_le_bytes());
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&t_tx_us.to_le_bytes());
            }
            Message::HeartbeatAck { pipe, round, quorum, members, echo_tx_us, t_server_us } => {
                out.extend_from_slice(&pipe.to_le_bytes());
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&quorum.to_le_bytes());
                out.extend_from_slice(&members.to_le_bytes());
                out.extend_from_slice(&echo_tx_us.to_le_bytes());
                out.extend_from_slice(&t_server_us.to_le_bytes());
            }
            Message::RoundInfoRequest { shard, round } => {
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&round.to_le_bytes());
            }
            Message::RoundInfoReply { shard, round, quorum, members, known } => {
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&quorum.to_le_bytes());
                out.extend_from_slice(&members.to_le_bytes());
                out.push(u8::from(*known));
            }
            Message::MetricsRequest => {}
            Message::MetricsReply { counters } => {
                for c in counters {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
            Message::Infer { id, input } => {
                out.extend_from_slice(&id.to_le_bytes());
                encode_f32s_le(input, out);
            }
            Message::InferReply { id, version, shed, output } => {
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&version.to_le_bytes());
                out.push(u8::from(*shed));
                encode_f32s_le(output, out);
            }
            Message::SubscribeWeights { shard } => {
                out.extend_from_slice(&shard.to_le_bytes());
            }
            Message::WeightsUpdate { shard, version, weights } => {
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&version.to_le_bytes());
                encode_f32s_le(weights, out);
            }
            Message::SubmitDeltaC { shard, round, pipe, codec, n, blob } => {
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&pipe.to_le_bytes());
                out.push(codec.to_wire());
                out.extend_from_slice(&n.to_le_bytes());
                out.extend_from_slice(blob);
            }
            Message::PullReplyC { shard, version, codec, n, blob } => {
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&version.to_le_bytes());
                out.push(codec.to_wire());
                out.extend_from_slice(&n.to_le_bytes());
                out.extend_from_slice(blob);
            }
            Message::WeightsUpdateC { shard, version, codec, n, blob } => {
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&version.to_le_bytes());
                out.push(codec.to_wire());
                out.extend_from_slice(&n.to_le_bytes());
                out.extend_from_slice(blob);
            }
            Message::OpsPush { kind, seq, t_tx_us, blob } => {
                out.push(*kind);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&t_tx_us.to_le_bytes());
                out.extend_from_slice(blob);
            }
            Message::OpsAck { seq, echo_tx_us, t_collector_us } => {
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&echo_tx_us.to_le_bytes());
                out.extend_from_slice(&t_collector_us.to_le_bytes());
            }
        }
    }

    /// Decodes a payload for frame tag `msg_type`. Fields are read in
    /// wire order (struct-literal fields evaluate as written).
    pub fn decode_payload(msg_type: u8, payload: &[u8]) -> Result<Message, FrameError> {
        let mut r = Reader::new(payload);
        let msg = match msg_type {
            tag::HELLO => {
                Message::Hello { proto: r.u16()?, pipe: r.u32()?, codec: wire_codec(r.u8()?)? }
            }
            tag::HELLO_ACK => Message::HelloAck {
                proto: r.u16()?,
                n_shards: r.u32()?,
                n_pipelines: r.u32()?,
                codec: wire_codec(r.u8()?)?,
                shard_base: r.u32()?,
                shard_count: r.u32()?,
            },
            tag::PULL_REQUEST => Message::PullRequest { shard: r.u32()?, version: r.u64()? },
            tag::PULL_REPLY => {
                Message::PullReply { shard: r.u32()?, version: r.u64()?, weights: f32s(r.rest())? }
            }
            tag::SUBMIT_DELTA => Message::SubmitDelta {
                shard: r.u32()?,
                round: r.u64()?,
                pipe: r.u32()?,
                delta: f32s(r.rest())?,
            },
            tag::ACK => Message::Ack {
                shard: r.u32()?,
                round: r.u64()?,
                pipe: r.u32()?,
                duplicate: flag(r.u8()?, "Ack duplicate")?,
            },
            tag::HEARTBEAT => {
                Message::Heartbeat { pipe: r.u32()?, round: r.u64()?, t_tx_us: r.u64()? }
            }
            tag::HEARTBEAT_ACK => Message::HeartbeatAck {
                pipe: r.u32()?,
                round: r.u64()?,
                quorum: r.u32()?,
                members: r.u64()?,
                echo_tx_us: r.u64()?,
                t_server_us: r.u64()?,
            },
            tag::ROUND_INFO_REQUEST => {
                Message::RoundInfoRequest { shard: r.u32()?, round: r.u64()? }
            }
            tag::ROUND_INFO_REPLY => Message::RoundInfoReply {
                shard: r.u32()?,
                round: r.u64()?,
                quorum: r.u32()?,
                members: r.u64()?,
                known: flag(r.u8()?, "RoundInfoReply known")?,
            },
            tag::METRICS_REQUEST => Message::MetricsRequest,
            tag::METRICS_REPLY => {
                let mut counters = [0u64; METRICS_COUNTERS];
                for c in &mut counters {
                    *c = r.u64()?;
                }
                Message::MetricsReply { counters }
            }
            tag::INFER => Message::Infer { id: r.u64()?, input: f32s(r.rest())? },
            tag::INFER_REPLY => Message::InferReply {
                id: r.u64()?,
                version: r.u64()?,
                shed: flag(r.u8()?, "InferReply shed")?,
                output: f32s(r.rest())?,
            },
            tag::SUBSCRIBE_WEIGHTS => Message::SubscribeWeights { shard: r.u32()? },
            tag::WEIGHTS_UPDATE => Message::WeightsUpdate {
                shard: r.u32()?,
                version: r.u64()?,
                weights: f32s(r.rest())?,
            },
            tag::SUBMIT_DELTA_C => {
                let (shard, round, pipe) = (r.u32()?, r.u64()?, r.u32()?);
                let (codec, n, blob) = coded_tail(&mut r)?;
                Message::SubmitDeltaC { shard, round, pipe, codec, n, blob }
            }
            tag::PULL_REPLY_C => {
                let (shard, version) = (r.u32()?, r.u64()?);
                let (codec, n, blob) = coded_tail(&mut r)?;
                Message::PullReplyC { shard, version, codec, n, blob }
            }
            tag::WEIGHTS_UPDATE_C => {
                let (shard, version) = (r.u32()?, r.u64()?);
                let (codec, n, blob) = coded_tail(&mut r)?;
                Message::WeightsUpdateC { shard, version, codec, n, blob }
            }
            tag::OPS_PUSH => {
                let kind = r.u8()?;
                if kind > OPS_KIND_METRICS {
                    return Err(FrameError::BadPayload("OpsPush kind out of range".into()));
                }
                Message::OpsPush { kind, seq: r.u64()?, t_tx_us: r.u64()?, blob: r.rest().to_vec() }
            }
            tag::OPS_ACK => {
                Message::OpsAck { seq: r.u64()?, echo_tx_us: r.u64()?, t_collector_us: r.u64()? }
            }
            other => return Err(FrameError::UnknownType(other)),
        };
        r.done()?;
        Ok(msg)
    }

    /// Approximate payload size in bytes, for counters and buffer sizing.
    pub fn payload_len(&self) -> usize {
        match self {
            Message::Hello { .. } => 7,
            Message::HelloAck { .. } => 19,
            Message::PullRequest { .. } => 12,
            Message::PullReply { weights, .. } => 12 + 4 * weights.len(),
            Message::SubmitDelta { delta, .. } => 16 + 4 * delta.len(),
            Message::Ack { .. } => 17,
            Message::Heartbeat { .. } => 20,
            Message::HeartbeatAck { .. } => 40,
            Message::RoundInfoRequest { .. } => 12,
            Message::RoundInfoReply { .. } => 25,
            Message::MetricsRequest => 0,
            Message::MetricsReply { .. } => METRICS_COUNTERS * 8,
            Message::Infer { input, .. } => 8 + 4 * input.len(),
            Message::InferReply { output, .. } => 17 + 4 * output.len(),
            Message::SubscribeWeights { .. } => 4,
            Message::WeightsUpdate { weights, .. } => 12 + 4 * weights.len(),
            Message::SubmitDeltaC { blob, .. } => 21 + blob.len(),
            Message::PullReplyC { blob, .. } => 17 + blob.len(),
            Message::WeightsUpdateC { blob, .. } => 17 + blob.len(),
            Message::OpsPush { blob, .. } => 17 + blob.len(),
            Message::OpsAck { .. } => 24,
        }
    }

    /// The dense f32 byte count a message's weight payload *represents*,
    /// independent of how it is encoded on the wire — the "pre-codec"
    /// number the byte counters compare against the framed size.
    pub fn logical_weight_bytes(&self) -> usize {
        match self {
            Message::PullReply { weights, .. } | Message::WeightsUpdate { weights, .. } => {
                4 * weights.len()
            }
            Message::SubmitDelta { delta, .. } => 4 * delta.len(),
            Message::Infer { input, .. } => 4 * input.len(),
            Message::InferReply { output, .. } => 4 * output.len(),
            Message::SubmitDeltaC { n, .. }
            | Message::PullReplyC { n, .. }
            | Message::WeightsUpdateC { n, .. } => 4 * *n as usize,
            _ => 0,
        }
    }
}

fn f32s(bytes: &[u8]) -> Result<Vec<f32>, FrameError> {
    decode_f32s_le(bytes).map_err(|e| FrameError::BadPayload(e.to_string()))
}

fn flag(byte: u8, what: &str) -> Result<bool, FrameError> {
    match byte {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(FrameError::BadPayload(format!("{what} flag out of range"))),
    }
}

fn wire_codec(id: u8) -> Result<Codec, FrameError> {
    Codec::from_wire(id).map_err(|e| FrameError::BadPayload(e.to_string()))
}

/// The `codec · n · blob` tail of the three compressed messages. The blob
/// must be structurally exactly one `codec` encoding of `n` dense
/// elements, so truncated or padded blobs are rejected at the frame
/// layer, before any pooled allocation.
fn coded_tail(r: &mut Reader) -> Result<(Codec, u32, Vec<u8>), FrameError> {
    let (codec, n) = (wire_codec(r.u8()?)?, r.u32()?);
    let bytes = r.rest();
    let expected = codec.encoded_len(n as usize);
    if bytes.len() != expected {
        return Err(FrameError::BadPayload(format!(
            "{} blob is {} bytes, {n} elements need {expected}",
            codec.name(),
            bytes.len(),
        )));
    }
    Ok((codec, n, bytes.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let mut payload = Vec::new();
        msg.encode_payload(&mut payload);
        assert_eq!(payload.len(), msg.payload_len(), "{} size", msg.name());
        let back = Message::decode_payload(msg.wire_type(), &payload).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn every_message_type_roundtrips() {
        roundtrip(Message::Hello { proto: 1, pipe: 3, codec: Codec::F32 });
        roundtrip(Message::Hello { proto: 1, pipe: 3, codec: Codec::Int8 });
        roundtrip(Message::HelloAck {
            proto: 1,
            n_shards: 4,
            n_pipelines: 2,
            codec: Codec::F32,
            shard_base: 0,
            shard_count: 4,
        });
        roundtrip(Message::HelloAck {
            proto: 1,
            n_shards: 8,
            n_pipelines: 2,
            codec: Codec::TopK,
            shard_base: 4,
            shard_count: 4,
        });
        roundtrip(Message::PullRequest { shard: 2, version: u64::MAX - 1 });
        roundtrip(Message::PullReply { shard: 0, version: 7, weights: vec![1.5, -2.25, 0.0] });
        roundtrip(Message::SubmitDelta { shard: 1, round: 9, pipe: 1, delta: vec![0.125; 65] });
        roundtrip(Message::Ack { shard: 1, round: 9, pipe: 1, duplicate: true });
        roundtrip(Message::Ack { shard: 0, round: 0, pipe: 0, duplicate: false });
        roundtrip(Message::Heartbeat { pipe: 3, round: 17, t_tx_us: 123_456_789 });
        roundtrip(Message::HeartbeatAck {
            pipe: 3,
            round: 17,
            quorum: 2,
            members: 0b101,
            echo_tx_us: 123_456_789,
            t_server_us: 123_500_000,
        });
        roundtrip(Message::RoundInfoRequest { shard: 1, round: 5 });
        roundtrip(Message::RoundInfoReply {
            shard: 1,
            round: 5,
            quorum: 3,
            members: 0b1011,
            known: true,
        });
        roundtrip(Message::RoundInfoReply {
            shard: 0,
            round: 0,
            quorum: 0,
            members: 0,
            known: false,
        });
        roundtrip(Message::MetricsRequest);
        let mut counters = [0u64; METRICS_COUNTERS];
        for (i, c) in counters.iter_mut().enumerate() {
            *c = (i as u64 + 1) * 1000 + u64::from(i == 4) * u64::from(u32::MAX);
        }
        roundtrip(Message::MetricsReply { counters });
        roundtrip(Message::Infer { id: 77, input: vec![0.5, -1.5, 3.0] });
        roundtrip(Message::InferReply { id: 77, version: 12, shed: false, output: vec![9.0; 7] });
        roundtrip(Message::InferReply { id: 78, version: 12, shed: true, output: vec![] });
        roundtrip(Message::SubscribeWeights { shard: 3 });
        roundtrip(Message::WeightsUpdate { shard: 3, version: 41, weights: vec![0.25; 33] });
        for codec in Codec::ALL {
            let vals: Vec<f32> = (0..70).map(|i| (i as f32 - 35.0) * 0.75).collect();
            let mut blob = Vec::new();
            codec.encode(&vals, &mut blob);
            let n = vals.len() as u32;
            roundtrip(Message::SubmitDeltaC {
                shard: 1,
                round: 9,
                pipe: 2,
                codec,
                n,
                blob: blob.clone(),
            });
            roundtrip(Message::PullReplyC { shard: 0, version: 7, codec, n, blob: blob.clone() });
            roundtrip(Message::WeightsUpdateC { shard: 2, version: 41, codec, n, blob });
        }
        roundtrip(Message::OpsPush {
            kind: OPS_KIND_TRACE,
            seq: 5,
            t_tx_us: 1_000_001,
            blob: vec![1, 2, 3, 4],
        });
        roundtrip(Message::OpsPush {
            kind: OPS_KIND_METRICS,
            seq: u64::MAX,
            t_tx_us: 0,
            blob: vec![],
        });
        roundtrip(Message::OpsAck { seq: 5, echo_tx_us: 1_000_001, t_collector_us: 2_000_002 });
    }

    /// One message of every tag, distinct non-zero values in every field.
    fn golden_messages() -> Vec<Message> {
        let mut counters = [0u64; METRICS_COUNTERS];
        for (i, c) in counters.iter_mut().enumerate() {
            *c = 0x0101_0101_0101_0101 * (i as u64 + 1);
        }
        vec![
            Message::Hello { proto: 0x0403, pipe: 0x0A0B_0C0D, codec: Codec::Int8 },
            Message::HelloAck {
                proto: 0x0403,
                n_shards: 8,
                n_pipelines: 0x0102_0304,
                codec: Codec::TopK,
                shard_base: 4,
                shard_count: 3,
            },
            Message::PullRequest { shard: 2, version: 0x1122_3344_5566_7788 },
            Message::PullReply { shard: 1, version: 7, weights: vec![1.5, -2.25, 0.0] },
            Message::SubmitDelta { shard: 1, round: 9, pipe: 2, delta: vec![0.125, -1.0] },
            Message::Ack { shard: 1, round: 9, pipe: 2, duplicate: true },
            Message::Heartbeat { pipe: 3, round: 17, t_tx_us: 123_456_789 },
            Message::HeartbeatAck {
                pipe: 3,
                round: 17,
                quorum: 2,
                members: 0b101,
                echo_tx_us: 123_456_789,
                t_server_us: 123_500_000,
            },
            Message::RoundInfoRequest { shard: 1, round: 5 },
            Message::RoundInfoReply { shard: 1, round: 5, quorum: 3, members: 0b1011, known: true },
            Message::MetricsRequest,
            Message::MetricsReply { counters },
            Message::Infer { id: 77, input: vec![0.5, -1.5, 3.0] },
            Message::InferReply { id: 77, version: 12, shed: false, output: vec![9.0, 0.25] },
            Message::SubscribeWeights { shard: 3 },
            Message::WeightsUpdate { shard: 3, version: 41, weights: vec![0.25, -0.5] },
            Message::SubmitDeltaC {
                shard: 1,
                round: 9,
                pipe: 2,
                codec: Codec::F16,
                n: 2,
                blob: vec![0xDE, 0xAD, 0xBE, 0xEF],
            },
            Message::PullReplyC {
                shard: 0,
                version: 7,
                codec: Codec::F16,
                n: 1,
                blob: vec![0x12, 0x34],
            },
            Message::WeightsUpdateC {
                shard: 2,
                version: 41,
                codec: Codec::F32,
                n: 1,
                blob: vec![1, 2, 3, 4],
            },
            Message::OpsPush {
                kind: OPS_KIND_METRICS,
                seq: 5,
                t_tx_us: 1_000_001,
                blob: vec![1, 2, 3, 4, 5],
            },
            Message::OpsAck { seq: 5, echo_tx_us: 1_000_001, t_collector_us: 2_000_002 },
        ]
    }

    /// Payload bytes of [`golden_messages`], captured from the encoder as
    /// it stood before decoding moved onto [`Reader`] (commit e1742d7):
    /// the wire is pinned byte for byte, not merely self-consistent.
    const GOLDEN: [(u8, &str); MAX_TAG as usize] = [
        (1, "03040d0c0b0a02"),
        (2, "03040800000004030201030400000003000000"),
        (3, "020000008877665544332211"),
        (4, "0100000007000000000000000000c03f000010c000000000"),
        (5, "010000000900000000000000020000000000003e000080bf"),
        (6, "0100000009000000000000000200000001"),
        (7, "03000000110000000000000015cd5b0700000000"),
        (8, "03000000110000000000000002000000050000000000000015cd5b0700000000e0755c0700000000"),
        (9, "010000000500000000000000"),
        (10, "010000000500000000000000030000000b0000000000000001"),
        (11, ""),
        (
            12,
            "0101010101010101020202020202020203030303030303030404040404040404\
             0505050505050505060606060606060607070707070707070808080808080808\
             09090909090909090a0a0a0a0a0a0a0a0b0b0b0b0b0b0b0b0c0c0c0c0c0c0c0c\
             0d0d0d0d0d0d0d0d",
        ),
        (13, "4d000000000000000000003f0000c0bf00004040"),
        (14, "4d000000000000000c0000000000000000000010410000803e"),
        (15, "03000000"),
        (16, "0300000029000000000000000000803e000000bf"),
        (17, "010000000900000000000000020000000102000000deadbeef"),
        (18, "00000000070000000000000001010000001234"),
        (19, "020000002900000000000000000100000001020304"),
        (20, "01050000000000000041420f00000000000102030405"),
        (21, "050000000000000041420f000000000082841e0000000000"),
    ];

    #[test]
    fn golden_bytes_encode_and_decode_for_every_tag() {
        let messages = golden_messages();
        assert_eq!(messages.len(), GOLDEN.len());
        for (i, (msg, (ty, hex))) in messages.iter().zip(GOLDEN).enumerate() {
            assert_eq!((msg.wire_type(), ty), (i as u8 + 1, i as u8 + 1), "one message per tag");
            let mut payload = Vec::new();
            msg.encode_payload(&mut payload);
            let got: String = payload.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(got, hex, "{} encodes differently", msg.name());
            assert_eq!(&Message::decode_payload(ty, &payload).unwrap(), msg);
        }
    }

    #[test]
    fn frame_encoded_in_place_is_byte_identical_to_encode_frame() {
        use crate::frame::{crc32, encode_frame, HEADER_LEN, MAGIC, PROTO_VERSION};
        let mut in_place = vec![0xAA; 7]; // stale contents must not leak in
        for msg in golden_messages() {
            let mut payload = Vec::new();
            msg.encode_payload(&mut payload);
            let mut copied = Vec::new();
            encode_frame(msg.wire_type(), &payload, &mut copied);
            msg.encode_frame(&mut in_place);
            assert_eq!(in_place, copied, "{}", msg.name());

            // And both are the documented layout, spelled out by hand.
            let mut by_hand = MAGIC.to_vec();
            by_hand.extend_from_slice(&[PROTO_VERSION, msg.wire_type(), 0, 0]);
            by_hand.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            assert_eq!(by_hand.len(), HEADER_LEN);
            by_hand.extend_from_slice(&payload);
            by_hand.extend_from_slice(&crc32(&payload).to_le_bytes());
            assert_eq!(in_place, by_hand, "{}", msg.name());
        }
    }

    #[test]
    fn ops_push_kind_out_of_range_is_rejected() {
        let msg = Message::OpsPush { kind: 0, seq: 1, t_tx_us: 2, blob: vec![9] };
        let mut payload = Vec::new();
        msg.encode_payload(&mut payload);
        payload[0] = OPS_KIND_METRICS + 1;
        assert!(Message::decode_payload(tag::OPS_PUSH, &payload).is_err());
    }

    #[test]
    fn compressed_blob_length_must_match_codec_structure() {
        let vals = vec![1.0f32; 64];
        for codec in Codec::ALL {
            let mut blob = Vec::new();
            codec.encode(&vals, &mut blob);
            let msg = Message::SubmitDeltaC { shard: 0, round: 1, pipe: 0, codec, n: 64, blob };
            let mut payload = Vec::new();
            msg.encode_payload(&mut payload);
            let mut truncated = payload.clone();
            truncated.pop();
            assert!(
                Message::decode_payload(msg.wire_type(), &truncated).is_err(),
                "{} accepted a truncated blob",
                codec.name()
            );
            let mut padded = payload.clone();
            padded.push(0);
            assert!(
                Message::decode_payload(msg.wire_type(), &padded).is_err(),
                "{} accepted a padded blob",
                codec.name()
            );
        }
    }

    #[test]
    fn unknown_codec_ids_are_rejected() {
        let msg = Message::Hello { proto: 1, pipe: 0, codec: Codec::F16 };
        let mut payload = Vec::new();
        msg.encode_payload(&mut payload);
        payload[6] = 250;
        assert!(Message::decode_payload(tag::HELLO, &payload).is_err());
        let msg =
            Message::PullReplyC { shard: 0, version: 0, codec: Codec::F32, n: 0, blob: vec![] };
        let mut payload = Vec::new();
        msg.encode_payload(&mut payload);
        payload[12] = 250;
        assert!(Message::decode_payload(tag::PULL_REPLY_C, &payload).is_err());
    }

    #[test]
    fn empty_weight_vectors_roundtrip() {
        roundtrip(Message::PullReply { shard: 0, version: 0, weights: vec![] });
        roundtrip(Message::SubmitDelta { shard: 0, round: 0, pipe: 0, delta: vec![] });
        roundtrip(Message::Infer { id: 0, input: vec![] });
        roundtrip(Message::WeightsUpdate { shard: 0, version: 0, weights: vec![] });
    }

    #[test]
    fn short_payloads_are_rejected() {
        // Tag 11 (MetricsRequest) expects exactly zero bytes, so even it
        // must reject a 3-byte payload.
        for ty in 1..=MAX_TAG {
            let err = Message::decode_payload(ty, &[0u8; 3]);
            assert!(err.is_err(), "type {ty} accepted a 3-byte payload");
        }
    }

    #[test]
    fn ragged_weight_bytes_are_rejected() {
        let msg = Message::PullReply { shard: 0, version: 1, weights: vec![1.0, 2.0] };
        let mut payload = Vec::new();
        msg.encode_payload(&mut payload);
        payload.pop(); // 4k+3 bytes of weights
        assert!(matches!(
            Message::decode_payload(msg.wire_type(), &payload),
            Err(FrameError::BadPayload(_))
        ));
    }

    #[test]
    fn unknown_type_is_rejected() {
        assert_eq!(Message::decode_payload(0, &[]), Err(FrameError::UnknownType(0)));
        assert_eq!(Message::decode_payload(42, &[]), Err(FrameError::UnknownType(42)));
    }

    #[test]
    fn ack_flag_out_of_range_is_rejected() {
        let msg = Message::Ack { shard: 0, round: 0, pipe: 0, duplicate: false };
        let mut payload = Vec::new();
        msg.encode_payload(&mut payload);
        payload[16] = 2;
        assert!(Message::decode_payload(tag::ACK, &payload).is_err());
    }

    #[test]
    fn infer_reply_shed_flag_out_of_range_is_rejected() {
        let msg = Message::InferReply { id: 1, version: 2, shed: false, output: vec![1.0] };
        let mut payload = Vec::new();
        msg.encode_payload(&mut payload);
        payload[16] = 2;
        assert!(Message::decode_payload(tag::INFER_REPLY, &payload).is_err());
    }

    #[test]
    fn round_info_known_flag_out_of_range_is_rejected() {
        let msg =
            Message::RoundInfoReply { shard: 0, round: 0, quorum: 0, members: 0, known: false };
        let mut payload = Vec::new();
        msg.encode_payload(&mut payload);
        payload[24] = 2;
        assert!(Message::decode_payload(tag::ROUND_INFO_REPLY, &payload).is_err());
    }
}
