//! The reference-shard server: one sans-IO protocol core, a production
//! shell around it, and the single-pipeline worker.
//!
//! [`ShardServerCore`] is the only implementation of the server side of
//! the elastic-averaging wire protocol (`Hello` handshake,
//! `PullRequest`/`PullReply`, `SubmitDelta`/`Ack`,
//! `Heartbeat`/`HeartbeatAck`, `RoundInfoRequest`/`RoundInfoReply`,
//! `SubscribeWeights`/`WeightsUpdate`). It owns *all* per-server protocol
//! state — per-connection pipe and codec, lease membership, parked pulls,
//! weight subscriptions, deferred evictions — behind `&mut self` methods
//! that take a message (or a tick) and append `(connection, reply)` pairs
//! to an out-vector. No threads, sockets, files or locks of its own; time
//! is whatever [`ea_comms::clock`] says it is. Two drivers feed it: the
//! `ea-comms` reactor in production
//! ([`ReactorDispatch`](crate::ReactorDispatch)) and the virtual-time
//! scheduler of `ea-chaos` — the same park, complete and publish code runs
//! under both. Because submissions are idempotent on `(shard, round, pipe)`
//! and pulls are reads, it composes with at-least-once clients.
//!
//! **Pulls never block.** A `PullRequest` for an incomplete round is
//! *parked*, keyed by `(connection, shard)`, and answered by
//! [`ShardServerCore::flush`] the moment the round completes. A
//! retransmitted pull *replaces* the parked entry, so the table is bounded
//! by connections × owned shards by construction. Entries leave when
//! answered, replaced, or their connection closes.
//!
//! **Fault tolerance** ([`RefShardServer::with_fault_tolerance`]): every
//! message from pipeline `p` renews `p`'s lease ([`Membership`]); a reaper
//! *thread* is only the timer — it locks the core, runs
//! [`ShardServerCore::reap_tick`] (expire lapsed leases, evict the dead
//! pipeline from every shard quorum so a stalled round completes
//! **degraded**, `w̃ ← w̃ + (1/k)·Σ Δ_i` over the `k` survivors) and
//! unlocks; a message from an evicted pipeline readmits it at the next
//! round boundary; and the reaper periodically captures a
//! [`RefCheckpoint`](crate::RefCheckpoint) under the lock and writes it
//! (atomic write–rename) outside it, which
//! [`RefShardServer::from_checkpoint`] restores after a crash. Every
//! connection failure is counted and logged ([`ServerMetrics`]).
//!
//! [`ElasticWorker`] is the process-per-pipeline counterpart of
//! [`ElasticTrainer`](crate::ElasticTrainer): one threaded pipeline whose
//! reference pulls and delta submissions go through a
//! [`ShardChannel`] — typically [`RemoteShards`](ea_comms::RemoteShards)
//! over TCP to a `RefShardServer` in another process.

use crate::checkpoint::RefCheckpoint;
use crate::elastic::{RefShard, SubmitOutcome};
use crate::membership::Membership;
use crate::metrics::{ServerMetrics, ServerMetricsSnapshot};
use crate::{Error, ThreadedPipeline};
use ea_autograd::Stage;
use ea_comms::clock::{self, Waiter};
use ea_comms::{Codec, CommsError, Message, QuorumInfo, ShardChannel, PROTO_VERSION};
use ea_data::Batch;
use ea_optim::Optimizer;
use ea_trace::{log_event, Category, Histogram, RateLimit, StaticName};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU32;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Fault-tolerance policy for [`RefShardServer::with_fault_tolerance`].
///
/// There is no bound on how long a pull may wait server-side: a pull for
/// an incomplete round is parked without holding a thread, the client
/// retransmits on its own `RetryConfig::reply_timeout` (which renews its
/// lease), and the reaper completes a stalled round degraded — so nothing
/// needs an expiry.
#[derive(Clone, Debug)]
pub struct FtConfig {
    /// Lease duration: a pipeline silent for longer is declared dead and
    /// evicted from the quorum.
    pub lease: Duration,
    /// How often the reaper thread checks for lapsed leases (and writes
    /// checkpoints). Should be a fraction of `lease`.
    pub reap_interval: Duration,
    /// Periodic reference checkpointing: `(path, interval)`. The write is
    /// atomic (temp file + rename) and skipped whenever the shards are
    /// mid-round (inconsistent versions).
    pub checkpoint: Option<(PathBuf, Duration)>,
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig {
            lease: Duration::from_secs(2),
            reap_interval: Duration::from_millis(500),
            checkpoint: None,
        }
    }
}

/// A lease long enough to never expire in practice — membership is inert
/// until `with_fault_tolerance` replaces it.
const NO_LEASE: Duration = Duration::from_secs(365 * 24 * 3600);

static EVICT_MARK: StaticName = StaticName::new("evict");
static REJOIN_MARK: StaticName = StaticName::new("rejoin");
static PULL_SPAN: StaticName = StaticName::new("pull");
static SUBMIT_SPAN: StaticName = StaticName::new("submit");
static WORKER_ROUND_SPAN: StaticName = StaticName::new("round");

/// Evictions are per-lease-expiry events: a flapping cluster can emit
/// them in storms, so the log line (not the counter, not the trace
/// event) is capped.
static EVICT_LOG_LIMIT: RateLimit = RateLimit::new(10);

/// A driver's name for one of its connections. The core never interprets
/// it: `space` keeps two drivers of one core apart (two reactors number
/// their connections independently), `id` is the driver's own identifier
/// within that space. Ordered, so every iteration over per-connection
/// state — and with it the order of emitted replies — is deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnKey {
    pub space: u32,
    pub id: u64,
}

/// Per-connection sticky protocol state.
#[derive(Clone, Copy, Default)]
struct Conn {
    /// Learned from the first self-identifying message (Hello/Submit/
    /// Heartbeat); every later message on the connection renews its lease.
    pipe: Option<usize>,
    /// Delta codec negotiated by this connection's Hello; replies are
    /// transcoded to it at the edge so the dispatch stays codec-agnostic.
    codec: Codec,
}

/// A pull waiting for its round to complete.
struct Parked {
    version: u64,
    /// [`clock::now`] at arrival, for the `ea_server_pull_us` histogram.
    since: Duration,
}

/// The single-owner, sans-IO protocol state machine of one shard server.
/// See the module docs for what it holds and who drives it.
///
/// The [`RefShard`]s keep their own mutex: `LocalShards`, `ElasticTrainer`
/// and callers of [`RefShardServer::shards`] share them across threads. A
/// round completed behind the core's back (or by [`Self::reap_tick`]) is
/// picked up by the driver's next [`Self::flush`].
pub struct ShardServerCore {
    shards: Vec<Arc<RefShard>>,
    n_pipelines: usize,
    /// First *global* shard id this server owns. `shards[i]` holds global
    /// shard `shard_base + i`; requests address shards globally.
    shard_base: usize,
    /// Total shard count of the partitioned model across every server.
    total_shards: usize,
    membership: Membership,
    metrics: Arc<ServerMetrics>,
    /// Server-side time from a pull's arrival to its reply (µs), parked
    /// time included.
    pull_us: Histogram,
    /// Server-side time spent folding delta submissions (µs).
    submit_us: Histogram,
    conns: BTreeMap<ConnKey, Conn>,
    /// Pulls for incomplete rounds, one per `(connection, global shard)`.
    parked: BTreeMap<(ConnKey, u32), Parked>,
    /// Read-only weight subscriptions (serving replicas):
    /// `(connection, global shard)` → last version sent. Entirely outside
    /// the lease machinery — a subscriber never affects a quorum.
    subs: BTreeMap<(ConnKey, u32), u64>,
    /// Shard versions the last [`Self::flush`] scanned at. While they are
    /// unchanged no parked pull can have become ready and no subscriber
    /// can lag, so the per-message flush is O(shards).
    flushed_at: Vec<u64>,
    /// Pipes whose eviction is blocked on quorum loss, carried between
    /// reap ticks.
    deferred: Vec<usize>,
}

impl ShardServerCore {
    /// A core over `shards` — global shards
    /// `shard_range.0..shard_range.0 + shards.len()` of `shard_range.1` —
    /// whose `n_pipelines` members hold leases of `lease`.
    pub fn new(
        shards: Vec<Arc<RefShard>>,
        n_pipelines: usize,
        shard_range: (usize, usize),
        lease: Duration,
    ) -> Self {
        assert!(!shards.is_empty(), "a server needs at least one shard");
        for sh in &shards {
            assert_eq!(sh.n_pipelines(), n_pipelines, "shards disagree on pipeline count");
        }
        let metrics = Arc::new(ServerMetrics::new());
        for sh in &shards {
            sh.set_metrics(Arc::clone(&metrics));
        }
        let mut core = ShardServerCore {
            flushed_at: vec![0; shards.len()],
            shards,
            n_pipelines,
            shard_base: 0,
            total_shards: 0,
            membership: Membership::new(n_pipelines, lease),
            pull_us: metrics.registry().histogram("ea_server_pull_us"),
            submit_us: metrics.registry().histogram("ea_server_submit_us"),
            metrics,
            conns: BTreeMap::new(),
            parked: BTreeMap::new(),
            subs: BTreeMap::new(),
            deferred: Vec::new(),
        };
        core.set_shard_range(shard_range.0, shard_range.1);
        core
    }

    /// Restores from a reference checkpoint: every shard starts at the
    /// recorded round with the recorded weights and the recorded slice of
    /// the global shard space.
    pub fn from_checkpoint(ckpt: &RefCheckpoint, n_pipelines: usize, lease: Duration) -> Self {
        let shards = ckpt
            .shards
            .iter()
            .map(|w| Arc::new(RefShard::with_version(w.clone(), n_pipelines, ckpt.round)))
            .collect();
        let core = Self::new(shards, n_pipelines, (ckpt.shard_base, ckpt.total_shards), lease);
        core.metrics.inc_checkpoint_restores();
        core
    }

    /// Declares the owned slice of the global shard space. Call before
    /// serving.
    pub fn set_shard_range(&mut self, shard_base: usize, total_shards: usize) {
        let end = shard_base + self.shards.len();
        assert!(
            end <= total_shards,
            "shard range {shard_base}..{end} exceeds total {total_shards}"
        );
        self.shard_base = shard_base;
        self.total_shards = total_shards;
    }

    /// Restarts every lease at `lease` with all pipelines live. Call
    /// before serving.
    pub fn set_lease(&mut self, lease: Duration) {
        self.membership = Membership::new(self.n_pipelines, lease);
    }

    /// Serves one message that arrived on `conn`, appending every reply it
    /// causes — to `conn` or, when a submission completes a round, to the
    /// connections whose pulls were parked on it and to lagging
    /// subscribers — to `out`. `Err` means the driver must close `conn`:
    /// the violation is counted, the connection's state is already
    /// scrubbed, and the shard state is untouched (bad submissions are
    /// rejected atomically).
    pub fn on_message(
        &mut self,
        conn: ConnKey,
        msg: Message,
        out: &mut Vec<(ConnKey, Message)>,
    ) -> Result<(), CommsError> {
        let served = self.serve(conn, msg, out);
        if let Err(e) = &served {
            let pipe = self.conns.get(&conn).and_then(|c| c.pipe);
            self.metrics.inc_protocol_violations();
            log_event!(Warn, "refshard", "dropping conn (pipe {pipe:?}): {e}");
            self.on_disconnect(conn);
        }
        served
    }

    fn serve(
        &mut self,
        conn: ConnKey,
        msg: Message,
        out: &mut Vec<(ConnKey, Message)>,
    ) -> Result<(), CommsError> {
        // Validate before any membership effect: a peer about to be
        // rejected must not renew a lease or readmit its pipe into the
        // quorums on the way out.
        if let Message::Hello { proto, .. } = &msg {
            if *proto != PROTO_VERSION as u16 {
                return Err(CommsError::Protocol(format!(
                    "peer speaks protocol {proto}, server speaks {PROTO_VERSION}"
                )));
            }
        }
        // The first self-identifying message names the pipe; every later
        // message on the connection renews that pipe's lease. `Hello` also
        // pins the connection's codec for every later transcode.
        let st = self.conns.entry(conn).or_default();
        if let Message::Hello { codec, .. } = &msg {
            st.codec = *codec;
        }
        if let Some(p) = msg_pipe(&msg).filter(|&p| p < self.n_pipelines) {
            st.pipe = Some(p);
        }
        let Conn { pipe, codec } = *st;
        if let Some(p) = pipe {
            self.touch(p);
        }

        let reply = match decode_request(msg)? {
            Message::Hello { codec, .. } => {
                // Any codec the wire layer can parse is acceptable: echo it
                // to seal the negotiation, and announce the owned shard
                // slice of the global partition so scatter-gather clients
                // can route.
                Message::HelloAck {
                    proto: PROTO_VERSION as u16,
                    n_shards: self.total_shards as u32,
                    n_pipelines: self.n_pipelines as u32,
                    codec,
                    shard_base: self.shard_base as u32,
                    shard_count: self.shards.len() as u32,
                }
            }
            Message::PullRequest { shard, version } => {
                let _span = ea_trace::span_arg(&PULL_SPAN, Category::Comm, version);
                let since = clock::now();
                let sh = self.lookup(shard)?;
                // `u64::MAX` is the latest-snapshot sentinel: a rejoining
                // worker asking "where are we?".
                if version != u64::MAX && sh.version() < version {
                    // A retransmission replaces the older entry.
                    self.parked.insert((conn, shard), Parked { version, since });
                    return Ok(());
                }
                // A retransmitted pull can arrive after its round was
                // superseded; reply with the weights' *actual* version so
                // the client can discard the stale answer instead of
                // mistaking newer weights for older ones.
                let (actual, weights) = sh.versioned_snapshot();
                self.pull_us.record(clock::now().saturating_sub(since).as_micros() as u64);
                Message::PullReply { shard, version: actual, weights }
            }
            Message::SubmitDelta { shard, round, pipe, delta } => {
                // Same span id the worker stamped on its submit span — the
                // fleet collector joins the two across processes on it.
                let _span = ea_trace::span_arg(&SUBMIT_SPAN, Category::Comm, round)
                    .with_ctx(ea_ops::exchange_span_id(round, pipe));
                let since = clock::now();
                let outcome = self
                    .lookup(shard)?
                    .submit_at(round, pipe as usize, delta)
                    .map_err(|e| CommsError::Protocol(e.to_string()))?;
                self.submit_us.record(clock::now().saturating_sub(since).as_micros() as u64);
                Message::Ack { shard, round, pipe, duplicate: outcome == SubmitOutcome::Duplicate }
            }
            Message::Heartbeat { pipe, round: beat_round, t_tx_us } => {
                if pipe as usize >= self.n_pipelines {
                    return Err(CommsError::Protocol(format!(
                        "heartbeat from unknown pipe {pipe} (server has {})",
                        self.n_pipelines
                    )));
                }
                self.metrics.inc_heartbeats();
                // The worker's round is authoritative about its own past: it
                // will never submit a round below it. A server restored from
                // a stale checkpoint uses this to stop waiting for rounds
                // the workers completed against the pre-crash incarnation
                // (each such round finishes empty; see `RefShard::defer_until`).
                for sh in &self.shards {
                    sh.defer_until(pipe as usize, beat_round);
                }
                let round = self.max_version();
                // Health-model gauges: each worker's self-reported round and
                // its lag behind the reference, keyed by pipe so the fleet
                // Prometheus view shows which worker is falling behind.
                let reg = ea_trace::metrics::global();
                reg.gauge(&format!("ea_worker_round_p{pipe}")).set(beat_round as i64);
                reg.gauge(&format!("ea_worker_round_lag_p{pipe}"))
                    .set(round.saturating_sub(beat_round) as i64);
                Message::HeartbeatAck {
                    pipe,
                    round,
                    quorum: self.membership.live_count() as u32,
                    members: self.membership.mask(),
                    // Clock-alignment echo (NTP-style): the worker computes
                    // offset = t_server - (t_tx + t_rx)/2 from these.
                    echo_tx_us: t_tx_us,
                    t_server_us: clock::now_us(),
                }
            }
            Message::RoundInfoRequest { shard, round } => {
                let rec = self.lookup(shard)?.round_record(round);
                let (quorum, members) = rec.map_or((0, 0), |r| (r.quorum, r.members));
                Message::RoundInfoReply { shard, round, quorum, members, known: rec.is_some() }
            }
            Message::MetricsRequest => {
                Message::MetricsReply { counters: self.metrics.snapshot().to_wire() }
            }
            Message::SubscribeWeights { shard } => {
                // Read-only subscription (serving replicas): answer with the
                // current snapshot immediately and register the connection
                // for round-boundary pushes, seeded with the version just
                // sent so the next round triggers a push. Deliberately *not*
                // in `msg_pipe`, so a subscriber never registers lease
                // membership and cannot stall a training quorum.
                let (version, weights) = self.lookup(shard)?.versioned_snapshot();
                self.subs.insert((conn, shard), version);
                Message::WeightsUpdate { shard, version, weights }
            }
            other => {
                return Err(CommsError::Protocol(format!("unexpected {} from peer", other.name())))
            }
        };
        out.push((conn, encode_reply(reply, codec)));
        // A submission (or a heartbeat's `defer_until`) may have completed a
        // round: answer the pulls parked on it and push the new reference to
        // subscribers *now*, so round latency never includes a poll interval.
        self.flush(out);
        Ok(())
    }

    /// `conn` is gone: forget its pipe/codec, its parked pulls and its
    /// subscriptions. The lease decides whether the *pipeline* is dead — a
    /// reconnect may be imminent. Idempotent.
    pub fn on_disconnect(&mut self, conn: ConnKey) {
        self.conns.remove(&conn);
        self.parked.retain(|&(c, _), _| c != conn);
        self.subs.retain(|&(c, _), _| c != conn);
    }

    /// Answers every parked pull whose round has completed and pushes a
    /// `WeightsUpdate` (transcoded per connection) to every subscriber
    /// whose shard advanced past the version it was last sent. Runs after
    /// every served message; drivers also call it after
    /// [`Self::reap_tick`] and from their poll, which covers rounds
    /// completed degraded or behind the core's back.
    pub fn flush(&mut self, out: &mut Vec<(ConnKey, Message)>) {
        if !self.has_deferred() {
            return;
        }
        if self.shards.iter().zip(&self.flushed_at).all(|(sh, &at)| sh.version() == at) {
            return;
        }
        let versions: Vec<u64> = self.shards.iter().map(|sh| sh.version()).collect();
        let Self { shards, shard_base, conns, parked, subs, pull_us, .. } = self;
        let codec_of = |conn: &ConnKey| conns.get(conn).copied().unwrap_or_default().codec;
        let now = clock::now();
        parked.retain(|(conn, shard), p| {
            let local = *shard as usize - *shard_base;
            if versions[local] < p.version {
                return true;
            }
            let (actual, weights) = shards[local].versioned_snapshot();
            pull_us.record(now.saturating_sub(p.since).as_micros() as u64);
            let reply = Message::PullReply { shard: *shard, version: actual, weights };
            out.push((*conn, encode_reply(reply, codec_of(conn))));
            false
        });
        // One consistent snapshot per advanced shard, shared by every
        // lagging subscriber of it; each gets a pooled copy.
        let mut snaps: Vec<Option<(u64, Vec<f32>)>> = vec![None; shards.len()];
        for ((conn, shard), last) in subs.iter_mut() {
            let local = *shard as usize - *shard_base;
            if versions[local] <= *last {
                continue;
            }
            let (version, weights) =
                snaps[local].get_or_insert_with(|| shards[local].versioned_snapshot());
            let mut copy = ea_tensor::pool::take_cleared(weights.len());
            copy.extend_from_slice(weights);
            let push = Message::WeightsUpdate { shard: *shard, version: *version, weights: copy };
            out.push((*conn, encode_reply(push, codec_of(conn))));
            *last = *version;
        }
        self.flushed_at = versions;
    }

    /// Whether [`Self::flush`] can have anything to do: a driver polls at
    /// its fine cadence only while this holds.
    pub fn has_deferred(&self) -> bool {
        !self.parked.is_empty() || !self.subs.is_empty()
    }

    /// One reaper pass at the current [`clock::now`]: expires lapsed
    /// leases and evicts the dead pipelines from every shard quorum,
    /// completing stalled rounds degraded. Returns the pipes evicted by
    /// this pass; follow with [`Self::flush`].
    pub fn reap_tick(&mut self) -> Vec<usize> {
        self.deferred.extend(self.membership.reap(clock::now()));
        let Self { deferred, membership, shards, metrics, .. } = self;
        let mut evicted_now = Vec::new();
        deferred.retain(|&p| {
            if membership.is_live(p) {
                return false; // rejoined between lease expiry and eviction
            }
            let mut evicted = false;
            let mut quorum_lost = false;
            for sh in shards.iter() {
                match sh.evict(p) {
                    Ok(true) => evicted = true,
                    Ok(false) => {}
                    Err(Error::QuorumLost { live, round }) => {
                        quorum_lost = true;
                        log_event!(
                            Warn,
                            "refshard",
                            "refusing to evict pipe {p}: quorum would be lost \
                             ({live} live at round {round})"
                        );
                    }
                    Err(e) => log_event!(Error, "refshard", "evicting pipe {p}: {e}"),
                }
            }
            if evicted {
                evicted_now.push(p);
                metrics.inc_evictions();
                ea_trace::instant(&EVICT_MARK, Category::Runtime, p as u64);
                // Lease expiry is exactly the moment a flight recorder
                // exists for: dump the window leading up to it.
                ea_ops::recorder::anomaly("evict");
                if EVICT_LOG_LIMIT.allow() {
                    log_event!(Warn, "refshard", "EVICTED pipe={p} (lease expired)");
                }
            }
            if quorum_lost {
                metrics.inc_quorum_lost();
            }
            quorum_lost // keep for retry only while the quorum blocks it
        });
        evicted_now
    }

    /// In-memory consistent checkpoint: `None` while the shards are
    /// mid-round (inconsistent versions) — the caller retries next tick.
    pub fn capture_checkpoint(&self) -> Option<RefCheckpoint> {
        let snaps: Vec<(u64, Vec<f32>)> =
            self.shards.iter().map(|sh| sh.versioned_snapshot()).collect();
        let round = snaps[0].0;
        if snaps.iter().any(|(v, _)| *v != round) {
            return None;
        }
        let shards: Vec<Vec<f32>> = snaps.into_iter().map(|(_, w)| w).collect();
        Some(RefCheckpoint::capture_range(round, shards, self.shard_base, self.total_shards))
    }

    /// The shards being served.
    pub fn shards(&self) -> &[Arc<RefShard>] {
        &self.shards
    }

    /// The health/fault counters (drivers map their own connection-failure
    /// reasons onto them).
    pub fn counters(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// Live-membership count as seen by the lease tracker.
    pub fn live_count(&self) -> usize {
        self.membership.live_count()
    }

    /// Highest completed round across the owned shards.
    pub fn max_version(&self) -> u64 {
        self.shards.iter().map(|sh| sh.version()).max().unwrap_or(0)
    }

    /// Open connections and the pipeline each identified itself as.
    pub fn conns(&self) -> impl ExactSizeIterator<Item = (ConnKey, Option<usize>)> + '_ {
        self.conns.iter().map(|(&conn, st)| (conn, st.pipe))
    }

    /// Parked pulls as `(connection, global shard, awaited version)`.
    pub fn parked(&self) -> impl ExactSizeIterator<Item = (ConnKey, u32, u64)> + '_ {
        self.parked.iter().map(|(&(conn, shard), p)| (conn, shard, p.version))
    }

    /// Weight subscriptions as `(connection, global shard, last version sent)`.
    pub fn subscriptions(&self) -> impl ExactSizeIterator<Item = (ConnKey, u32, u64)> + '_ {
        self.subs.iter().map(|(&(conn, shard), &last)| (conn, shard, last))
    }

    /// Lease renewal + readmission on any message from pipeline `p`. Shard
    /// readmission runs even when the membership entry is already live, to
    /// heal a pipe evicted from a shard while its lease entry was revived.
    fn touch(&mut self, p: usize) {
        let mut readmitted = self.membership.join(p);
        // One join boundary for all shards: past the highest in-flight round,
        // so a rejoiner resyncing to the max shard version can never land
        // beyond a round some slower shard still requires it for.
        let joined_at = self.max_version() + 1;
        for sh in &self.shards {
            if sh.readmit_at(p, joined_at) == Ok(true) {
                readmitted = true;
            }
        }
        if readmitted {
            self.metrics.inc_rejoins();
            ea_trace::instant(&REJOIN_MARK, Category::Runtime, p as u64);
            log_event!(Info, "refshard", "REJOIN pipe={p}");
        }
    }

    /// Resolves a *global* shard id to this server's local accumulator.
    fn lookup(&self, shard: u32) -> Result<&Arc<RefShard>, CommsError> {
        (shard as usize).checked_sub(self.shard_base).and_then(|l| self.shards.get(l)).ok_or_else(
            || {
                CommsError::Protocol(format!(
                    "shard {shard} not owned here (this server holds {}..{})",
                    self.shard_base,
                    self.shard_base + self.shards.len()
                ))
            },
        )
    }
}

/// The pipeline id a message identifies itself with, if any. Compressed
/// submissions count: a lossy-codec worker mid-round must renew its lease
/// with every `SubmitDeltaC` exactly like an uncompressed worker does with
/// `SubmitDelta`, or a burst of lost heartbeats gets an *actively
/// submitting* pipeline evicted (found by the ea-chaos lease oracles).
fn msg_pipe(msg: &Message) -> Option<usize> {
    match msg {
        Message::Hello { pipe, .. }
        | Message::SubmitDelta { pipe, .. }
        | Message::SubmitDeltaC { pipe, .. }
        | Message::Heartbeat { pipe, .. } => Some(*pipe as usize),
        _ => None,
    }
}

/// Edge transcode, inbound: a `SubmitDeltaC` becomes the `SubmitDelta`
/// the codec-agnostic dispatch understands. The blob is returned to the
/// byte pool; an undecodable blob is a protocol violation.
fn decode_request(msg: Message) -> Result<Message, CommsError> {
    match msg {
        Message::SubmitDeltaC { shard, round, pipe, codec, n, blob } => {
            let delta = codec.decode(n as usize, &blob).map_err(|e| {
                CommsError::Protocol(format!("undecodable {} SubmitDeltaC: {e}", codec.name()))
            })?;
            ea_comms::recycle_blob(blob);
            Ok(Message::SubmitDelta { shard, round, pipe, delta })
        }
        other => Ok(other),
    }
}

/// Edge transcode, outbound: weight-bearing replies are compressed with
/// the connection's negotiated codec ([`ea_optim::Codec::weights_codec`]
/// of it — top-k deltas still pull dense references). Everything else
/// passes through untouched.
fn encode_reply(reply: Message, codec: Codec) -> Message {
    let wcodec = codec.weights_codec();
    if wcodec == Codec::F32 {
        return reply;
    }
    match reply {
        Message::PullReply { shard, version, weights } => {
            let (n, blob) = encode_weights(wcodec, weights);
            Message::PullReplyC { shard, version, codec: wcodec, n, blob }
        }
        Message::WeightsUpdate { shard, version, weights } => {
            let (n, blob) = encode_weights(wcodec, weights);
            Message::WeightsUpdateC { shard, version, codec: wcodec, n, blob }
        }
        other => other,
    }
}

fn encode_weights(codec: Codec, weights: Vec<f32>) -> (u32, Vec<u8>) {
    let n = weights.len() as u32;
    let mut blob = ea_comms::take_blob(codec.encoded_len(weights.len()));
    codec.encode(&weights, &mut blob);
    ea_tensor::pool::recycle(weights);
    (n, blob)
}

/// The production shell around a [`ShardServerCore`]: constructors, the
/// lock the reactor threads and the reaper share, the reaper thread
/// itself (a timer plus the checkpoint writer), and lock-free read access
/// to the shards and counters.
pub struct RefShardServer {
    pub(crate) core: Arc<Mutex<ShardServerCore>>,
    shards: Vec<Arc<RefShard>>,
    metrics: Arc<ServerMetrics>,
    /// Next [`ConnKey::space`] to hand to a reactor adapter.
    pub(crate) next_space: AtomicU32,
    checkpoint: Option<(PathBuf, Duration)>,
    reaper_stop: Arc<Waiter>,
    reaper: Option<JoinHandle<()>>,
}

impl RefShardServer {
    fn from_core(core: ShardServerCore) -> Self {
        RefShardServer {
            shards: core.shards().to_vec(),
            metrics: Arc::clone(core.counters()),
            core: Arc::new(Mutex::new(core)),
            next_space: AtomicU32::new(0),
            checkpoint: None,
            reaper_stop: Arc::new(Waiter::new()),
            reaper: None,
        }
    }

    /// Declares this server one slice of a partitioned reference model:
    /// its shards hold *global* shards
    /// `shard_base..shard_base + shards.len()` of `total_shards`. Clients
    /// address shards globally; the handshake announces the owned range so
    /// a scatter-gather channel can route. Call before serving.
    pub fn with_shard_range(self, shard_base: usize, total_shards: usize) -> Self {
        self.core.lock().set_shard_range(shard_base, total_shards);
        self
    }

    /// Builds fresh shards from per-stage initial reference weights.
    pub fn from_initial_weights(stage_weights: Vec<Vec<f32>>, n_pipelines: usize) -> Self {
        let total = stage_weights.len();
        let shards =
            stage_weights.into_iter().map(|w| Arc::new(RefShard::new(w, n_pipelines))).collect();
        Self::from_core(ShardServerCore::new(shards, n_pipelines, (0, total), NO_LEASE))
    }

    /// Restores the shards from a reference checkpoint: every shard starts
    /// at the recorded round with the recorded weights, so training
    /// resumes where the crashed server left off instead of resetting.
    pub fn from_checkpoint(ckpt: &RefCheckpoint, n_pipelines: usize) -> Self {
        Self::from_core(ShardServerCore::from_checkpoint(ckpt, n_pipelines, NO_LEASE))
    }

    /// Arms fault tolerance: lease-based membership, the reaper thread
    /// (degraded-quorum completion of stalled rounds), and optional
    /// periodic checkpointing. Call before serving.
    pub fn with_fault_tolerance(mut self, cfg: FtConfig) -> Self {
        self.stop_reaper();
        self.core.lock().set_lease(cfg.lease);
        self.reaper_stop = Arc::new(Waiter::new());
        self.reaper = Some({
            let core = Arc::clone(&self.core);
            let metrics = Arc::clone(&self.metrics);
            let stop = Arc::clone(&self.reaper_stop);
            let checkpoint = cfg.checkpoint.clone();
            let interval = cfg.reap_interval;
            std::thread::Builder::new()
                .name("shard-reaper".into())
                .spawn(move || reaper_loop(&core, &metrics, &stop, interval, checkpoint))
                .expect("spawn reaper thread")
        });
        self.checkpoint = cfg.checkpoint;
        self
    }

    /// The shards being served (e.g. to snapshot the final reference).
    pub fn shards(&self) -> &[Arc<RefShard>] {
        &self.shards
    }

    /// Point-in-time copy of the health/fault counters.
    pub fn metrics(&self) -> ServerMetricsSnapshot {
        self.metrics.snapshot()
    }

    /// One-shot Prometheus text exposition dump: this server's private
    /// counters and latency histograms, followed by the process-wide
    /// [`ea_trace::metrics::global`] registry (pool stats, log totals).
    pub fn render_prometheus(&self) -> String {
        let mut out = self.metrics.registry().render_prometheus();
        out.push_str(&ea_trace::metrics::global().render_prometheus());
        out
    }

    /// Live-membership count as seen by the lease tracker.
    pub fn live_count(&self) -> usize {
        self.core.lock().live_count()
    }

    /// Writes a consistent reference checkpoint now (all shards at the
    /// same version), if one is possible. Returns whether a file was
    /// written.
    pub fn checkpoint_now(&self, path: &Path) -> std::io::Result<bool> {
        save_checkpoint(&self.core, &self.metrics, path)
    }

    fn stop_reaper(&mut self) {
        self.reaper_stop.interrupt();
        if let Some(h) = self.reaper.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RefShardServer {
    fn drop(&mut self) {
        self.stop_reaper();
        // Final checkpoint on clean shutdown, best effort.
        if let Some((path, _)) = self.checkpoint.take() {
            let _ = self.checkpoint_now(&path);
        }
    }
}

/// The reaper thread: a timer for [`ShardServerCore::reap_tick`] and the
/// checkpoint writer. Replies a reap makes possible are sent by the
/// reactor's next poll, which runs at its fine cadence while anything is
/// parked or subscribed.
fn reaper_loop(
    core: &Mutex<ShardServerCore>,
    metrics: &ServerMetrics,
    stop: &Waiter,
    interval: Duration,
    checkpoint: Option<(PathBuf, Duration)>,
) {
    let mut last_save = clock::now();
    loop {
        if stop.wait_timeout(interval) {
            return; // shutdown requested mid-sleep
        }
        core.lock().reap_tick();
        if let Some((path, every)) = &checkpoint {
            let now = clock::now();
            if now.saturating_sub(last_save) >= *every {
                last_save = now;
                // `Ok(false)`: mid-round; the next tick will catch it.
                if let Err(e) = save_checkpoint(core, metrics, path) {
                    log_event!(Error, "refshard", "checkpoint write failed: {e}");
                }
            }
        }
    }
}

/// Captures under the lock, writes outside it. Returns whether a file was
/// written (`false`: the shards were mid-round).
fn save_checkpoint(
    core: &Mutex<ShardServerCore>,
    metrics: &ServerMetrics,
    path: &Path,
) -> std::io::Result<bool> {
    let captured = core.lock().capture_checkpoint();
    let Some(ckpt) = captured else {
        return Ok(false);
    };
    ckpt.save(path)?;
    metrics.inc_checkpoints_saved();
    Ok(true)
}

/// One pipeline of the elastic-averaging ensemble, driven standalone —
/// the worker half of the two-process deployment. Runs the same fused
/// Step ❶–❸ per round as [`ElasticTrainer`](crate::ElasticTrainer), with
/// the reference reached through a [`ShardChannel`].
pub struct ElasticWorker {
    pipeline: ThreadedPipeline,
    channel: Arc<dyn ShardChannel>,
    pipe: usize,
    n_shards: usize,
    alpha: f32,
    round: u64,
    /// Carries quantization error across rounds when the channel
    /// negotiated a lossy codec; a pass-through under `F32`.
    feedback: crate::ErrorFeedback,
}

impl ElasticWorker {
    /// Spawns the pipeline. `alpha` is the elastic pull strength (use
    /// `1/N` to match the default trainer).
    pub fn new(
        stages: Vec<Stage>,
        opts: Vec<Box<dyn Optimizer>>,
        micros: usize,
        alpha: f32,
        pipe: usize,
        channel: Arc<dyn ShardChannel>,
    ) -> Self {
        let n_shards = channel.n_shards();
        assert_eq!(stages.len(), n_shards, "one reference shard per stage");
        let feedback = crate::ErrorFeedback::new(channel.codec(), n_shards);
        ElasticWorker {
            pipeline: ThreadedPipeline::spawn(stages, opts, micros),
            channel,
            pipe,
            n_shards,
            alpha,
            round: 0,
            feedback,
        }
    }

    /// One elastic round on `batch`: pull the round-`r` reference for
    /// every stage, run the fused local-step/α-pull/delta pass, ship the
    /// deltas. Blocks (inside the pulls of the *next* round) until all
    /// peer pipelines finish the current one.
    pub fn round(&mut self, batch: &Batch) -> Result<f32, CommsError> {
        let round = self.round;
        let span_id = ea_ops::exchange_span_id(round, self.pipe as u32);
        let _round_span =
            ea_trace::span_arg(&WORKER_ROUND_SPAN, Category::Runtime, round).with_ctx(span_id);
        let references = {
            let _s = ea_trace::span_arg(&PULL_SPAN, Category::Comm, round).with_ctx(span_id);
            self.channel.pull_all(self.pipe, round)?
        };
        let (loss, deltas) = self.pipeline.step_elastic(batch, references, self.alpha);
        let deltas: Vec<Vec<f32>> =
            deltas.into_iter().enumerate().map(|(s, d)| self.feedback.apply(s, d)).collect();
        {
            let _s = ea_trace::span_arg(&SUBMIT_SPAN, Category::Comm, round).with_ctx(span_id);
            self.channel.submit_all(self.pipe, round, deltas)?;
        }
        self.round += 1;
        Ok(loss)
    }

    /// One *local* training step — no reference pull, no delta shipped.
    /// The supervisor's degraded mode: keep making progress while the
    /// server is unreachable.
    pub fn local_step(&mut self, batch: &Batch) -> Result<f32, Error> {
        self.pipeline.try_step(batch)
    }

    /// Completed rounds.
    pub fn rounds_done(&self) -> u64 {
        self.round
    }

    /// The elastic pull strength.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// Changes the elastic pull strength (e.g. to `1/k` when the quorum
    /// degrades to `k` members).
    pub fn set_alpha(&mut self, alpha: f32) {
        self.alpha = alpha;
    }

    /// Swaps in a fresh channel (same shard topology) after a reconnect.
    pub fn reconnect(&mut self, channel: Arc<dyn ShardChannel>) {
        assert_eq!(channel.n_shards(), self.n_shards, "reconnect changed the shard topology");
        self.feedback = crate::ErrorFeedback::new(channel.codec(), self.n_shards);
        self.channel = channel;
    }

    /// Renews this worker's lease and returns the server's quorum view.
    pub fn heartbeat(&self) -> Result<QuorumInfo, CommsError> {
        self.channel.heartbeat(self.pipe, self.round)
    }

    /// Resynchronizes with the server after a restart or lost rounds:
    /// pulls every shard's *latest* reference, overwrites the replica
    /// parameters with it, and fast-forwards the round counter to the
    /// newest shard version. The next [`ElasticWorker::round`] then
    /// re-enters the quorum at the server's current round boundary.
    pub fn resync(&mut self) -> Result<u64, CommsError> {
        let mut newest = 0u64;
        for s in 0..self.n_shards {
            let (version, weights) = self.channel.pull_latest(self.pipe, s)?;
            newest = newest.max(version);
            self.pipeline.set_stage_params(s, weights);
        }
        // The replica was rebased onto the reference; carried quantization
        // error no longer describes anything real.
        self.feedback.reset();
        self.round = newest;
        // Tell every server where this pipe now stands. A server restored
        // from a stale checkpoint uses the reported round to stop waiting
        // for submissions that died with its previous incarnation
        // (`RefShard::defer_until`); for healthy servers it is a plain
        // lease renewal.
        self.channel.heartbeat(self.pipe, newest)?;
        Ok(newest)
    }

    /// Reference weights of stage `s` as of the last completed round
    /// (blocks until every pipeline has finished it).
    pub fn pull_reference(&self, s: usize) -> Result<Vec<f32>, CommsError> {
        self.channel.pull(self.pipe, s, self.round)
    }

    /// This worker's replica parameters for stage `s`.
    pub fn stage_params(&self, s: usize) -> Vec<f32> {
        self.pipeline.stage_params(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_comms::reactor::{Reactor, ReactorConfig};
    use ea_comms::{RemoteShards, RetryConfig, ShardClient, TcpConfig, TcpTransport};
    use std::cell::Cell;
    use std::rc::Rc;

    type Out = Vec<(ConnKey, Message)>;

    fn conn(id: u64) -> ConnKey {
        ConnKey { space: 0, id }
    }

    fn core_of(
        stage_weights: Vec<Vec<f32>>,
        n_pipelines: usize,
        lease: Duration,
    ) -> ShardServerCore {
        let total = stage_weights.len();
        let shards =
            stage_weights.into_iter().map(|w| Arc::new(RefShard::new(w, n_pipelines))).collect();
        ShardServerCore::new(shards, n_pipelines, (0, total), lease)
    }

    /// Serves `msg` on `c` and returns everything it caused to be sent.
    fn send(core: &mut ShardServerCore, c: ConnKey, msg: Message) -> Out {
        let mut out = Vec::new();
        core.on_message(c, msg, &mut out).expect("served");
        out
    }

    fn hello(core: &mut ShardServerCore, c: ConnKey, pipe: u32) -> Message {
        let msg = Message::Hello { proto: PROTO_VERSION as u16, pipe, codec: Codec::F32 };
        let mut out = send(core, c, msg);
        assert_eq!(out.len(), 1);
        out.remove(0).1
    }

    fn pull(shard: u32, version: u64) -> Message {
        Message::PullRequest { shard, version }
    }

    fn submit(shard: u32, round: u64, pipe: u32, delta: Vec<f32>) -> Message {
        Message::SubmitDelta { shard, round, pipe, delta }
    }

    fn beat(pipe: u32, round: u64) -> Message {
        Message::Heartbeat { pipe, round, t_tx_us: 0 }
    }

    fn pull_reply(to: ConnKey, shard: u32, version: u64, weights: Vec<f32>) -> (ConnKey, Message) {
        (to, Message::PullReply { shard, version, weights })
    }

    fn counts(core: &ShardServerCore) -> ServerMetricsSnapshot {
        core.counters().snapshot()
    }

    /// Installs a hand-cranked clock so leases expire without sleeping.
    fn test_clock() -> clock::ClockGuard {
        clock::install(Rc::new(TestClock(Cell::new(Duration::ZERO))))
    }

    struct TestClock(Cell<Duration>);

    impl clock::Clock for TestClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep(&self, d: Duration) {
            self.0.set(self.0.get() + d);
        }
    }

    /// A TCP reactor in front of `server`, for the tests that need a real
    /// client stack.
    fn serve_tcp(server: &RefShardServer) -> Reactor {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        server.serve_reactor(listener, ReactorConfig { threads: 1, ..Default::default() }).unwrap()
    }

    fn connect(reactor: &Reactor, pipe: usize) -> ShardClient {
        let conn = TcpTransport::connect(reactor.local_addr(), TcpConfig::default()).unwrap();
        ShardClient::handshake(Box::new(conn), pipe, RetryConfig::default()).unwrap()
    }

    #[test]
    fn handshake_reports_shard_topology() {
        let mut core = core_of(vec![vec![0.0; 4], vec![0.0; 6]], 3, NO_LEASE);
        core.set_shard_range(2, 5);
        match hello(&mut core, conn(1), 0) {
            Message::HelloAck { n_shards, n_pipelines, shard_base, shard_count, codec, .. } => {
                assert_eq!((n_shards, n_pipelines), (5, 3));
                assert_eq!((shard_base, shard_count), (2, 2));
                assert_eq!(codec, Codec::F32);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(core.conns().collect::<Vec<_>>(), vec![(conn(1), Some(0))]);
    }

    #[test]
    fn wrong_proto_hello_is_rejected_before_any_membership_effect() {
        let _clock = test_clock();
        let lease = Duration::from_millis(100);
        let mut core = core_of(vec![vec![0.0], vec![0.0]], 2, lease);
        // Pipe 0 stays chatty, pipe 1 goes silent and is evicted.
        clock::sleep(lease / 2);
        hello(&mut core, conn(1), 0);
        clock::sleep(lease);
        assert_eq!(core.reap_tick(), vec![1]);
        assert_eq!(core.live_count(), 1);

        let bad = Message::Hello { proto: PROTO_VERSION as u16 + 1, pipe: 1, codec: Codec::F32 };
        let mut out = Vec::new();
        assert!(matches!(core.on_message(conn(2), bad, &mut out), Err(CommsError::Protocol(_))));
        assert!(out.is_empty());
        assert_eq!(core.live_count(), 1, "a rejected peer must not renew a lease");
        for sh in core.shards() {
            assert!(!sh.is_member(1), "a rejected peer must not be readmitted to a quorum");
        }
        assert_eq!((counts(&core).rejoins, counts(&core).protocol_violations), (0, 1));
        assert_eq!(core.conns().len(), 1, "the rejected connection leaves no state behind");
    }

    #[test]
    fn restored_server_heals_past_checkpoint_lag_on_heartbeats() {
        // Checkpointed at round 3, but the workers finished rounds 3..6
        // against the pre-crash server. The restarted one must not wait for
        // those submissions: the heartbeats carrying the workers' rounds let
        // it complete the lost rounds empty and resume at the boundary.
        let ckpt = RefCheckpoint::capture(3, vec![vec![5.0f32; 4]]);
        let mut core = ShardServerCore::from_checkpoint(&ckpt, 2, NO_LEASE);
        let (a, b) = (conn(1), conn(2));
        hello(&mut core, a, 0);
        hello(&mut core, b, 1);
        // A pull for the workers' round parks on the stale server...
        assert!(send(&mut core, a, pull(0, 6)).is_empty());
        send(&mut core, a, beat(0, 6));
        assert_eq!(core.shards()[0].version(), 3, "pipe 1 could still submit round 3");
        // ...and the heartbeat that completes rounds 3..6 empty answers it.
        let out = send(&mut core, b, beat(1, 6));
        assert_eq!(core.shards()[0].version(), 6, "rounds 3..6 complete empty");
        assert!(matches!(out[0], (to, Message::HeartbeatAck { round: 6, .. }) if to == b));
        // The restored weights are untouched by the empty rounds.
        assert_eq!(out[1], pull_reply(a, 0, 6, vec![5.0; 4]));
        // Training resumes at the deferred boundary.
        send(&mut core, a, submit(0, 6, 0, vec![1.0; 4]));
        send(&mut core, b, submit(0, 6, 1, vec![3.0; 4]));
        assert_eq!(send(&mut core, b, pull(0, 7)), vec![pull_reply(b, 0, 7, vec![7.0; 4])]);
    }

    #[test]
    fn parked_pulls_are_answered_by_the_submission_that_completes_the_round() {
        let mut core = core_of(vec![vec![1.0, 1.0]], 2, NO_LEASE);
        let (a, b) = (conn(1), conn(2));
        hello(&mut core, a, 0);
        hello(&mut core, b, 1);
        for c in [a, b] {
            assert_eq!(send(&mut core, c, pull(0, 0)), vec![pull_reply(c, 0, 0, vec![1.0, 1.0])]);
        }
        // Pipe 0 submits and asks for round 1 before pipe 1 has submitted.
        let out = send(&mut core, a, submit(0, 0, 0, vec![2.0; 2]));
        assert!(matches!(out[..], [(to, Message::Ack { duplicate: false, .. })] if to == a));
        assert!(send(&mut core, a, pull(0, 1)).is_empty(), "incomplete round: parked");
        assert_eq!(core.parked().collect::<Vec<_>>(), vec![(a, 0, 1)]);
        assert!(core.has_deferred());
        // Pipe 1's submission completes the round: its own ack, then the
        // reply to the *other* connection's parked pull.
        let out = send(&mut core, b, submit(0, 0, 1, vec![4.0; 2]));
        assert!(matches!(out[0], (to, Message::Ack { duplicate: false, .. }) if to == b));
        assert_eq!(out[1], pull_reply(a, 0, 1, vec![4.0, 4.0])); // 1 + (2 + 4)/2
        assert_eq!(out.len(), 2);
        assert!(!core.has_deferred());
        assert_eq!(core.shards()[0].try_weights_at(1), Some(vec![4.0, 4.0]));
    }

    #[test]
    fn a_retransmitted_pull_replaces_its_parked_entry() {
        let mut core = core_of(vec![vec![0.0], vec![0.0]], 2, NO_LEASE);
        let a = conn(1);
        hello(&mut core, a, 0);
        for _ in 0..50 {
            assert!(send(&mut core, a, pull(0, 1)).is_empty());
        }
        assert_eq!(core.parked().len(), 1);
        // One entry per (connection, shard), never more.
        send(&mut core, a, pull(1, 1));
        send(&mut core, conn(2), pull(0, 1));
        assert_eq!(core.parked().len(), 3);
        // The round completes behind the core's back (another thread
        // sharing the shard); the driver's poll answers each pull once.
        for p in 0..2 {
            core.shards()[0].submit_at(0, p, vec![2.0]).unwrap();
        }
        let mut out = Vec::new();
        core.flush(&mut out);
        assert_eq!(out, vec![pull_reply(a, 0, 1, vec![2.0]), pull_reply(conn(2), 0, 1, vec![2.0])]);
        assert_eq!(core.parked().collect::<Vec<_>>(), vec![(a, 1, 1)]);
    }

    #[test]
    fn disconnect_scrubs_parked_pulls_and_subscriptions() {
        let mut core = core_of(vec![vec![0.0]], 1, NO_LEASE);
        let (a, b) = (conn(1), conn(2));
        hello(&mut core, a, 0);
        send(&mut core, a, pull(0, 1));
        send(&mut core, b, Message::SubscribeWeights { shard: 0 });
        assert_eq!((core.parked().len(), core.subscriptions().len()), (1, 1));
        core.on_disconnect(a);
        core.on_disconnect(b);
        core.on_disconnect(b); // idempotent
        assert_eq!(
            (core.conns().len(), core.parked().len(), core.subscriptions().len()),
            (0, 0, 0)
        );
        assert!(!core.has_deferred());
        // Nothing is sent to the dead connections when the round completes.
        let out = send(&mut core, conn(3), submit(0, 0, 0, vec![1.0]));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn subscribers_get_a_snapshot_then_one_push_per_advance_and_hold_no_lease() {
        let mut core = core_of(vec![vec![0.5]], 1, NO_LEASE);
        let (sub, w) = (conn(9), conn(1));
        let out = send(&mut core, sub, Message::SubscribeWeights { shard: 0 });
        assert_eq!(
            out,
            vec![(sub, Message::WeightsUpdate { shard: 0, version: 0, weights: vec![0.5] })]
        );
        assert_eq!(core.conns().collect::<Vec<_>>(), vec![(sub, None)], "no pipe, no lease");
        let out = send(&mut core, w, submit(0, 0, 0, vec![1.0]));
        assert_eq!(
            out[1],
            (sub, Message::WeightsUpdate { shard: 0, version: 1, weights: vec![1.5] })
        );
        assert_eq!(core.subscriptions().collect::<Vec<_>>(), vec![(sub, 0, 1)]);
        // Nothing advanced: nothing is pushed twice.
        let mut out = Vec::new();
        core.flush(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn retransmissions_are_acked_as_duplicates_and_stale_pulls_labeled_with_the_real_version() {
        let mut core = core_of(vec![vec![0.0]], 1, NO_LEASE);
        let a = conn(1);
        hello(&mut core, a, 0);
        for expect_dup in [false, true, true] {
            match send(&mut core, a, submit(0, 0, 0, vec![5.0]))[..] {
                [(_, Message::Ack { duplicate, .. })] => assert_eq!(duplicate, expect_dup),
                ref other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(core.shards()[0].try_weights_at(1), Some(vec![5.0]), "applied exactly once");
        // A stale pull is labeled with the real version, not the requested one.
        assert_eq!(send(&mut core, a, pull(0, 0)), vec![pull_reply(a, 0, 1, vec![5.0])]);
    }

    #[test]
    fn protocol_violation_closes_the_connection_without_corrupting_state() {
        let mut core = core_of(vec![vec![0.0]], 2, NO_LEASE);
        // A bad peer parks a pull, then submits a wrong-length delta.
        let bad = conn(1);
        send(&mut core, bad, pull(0, 1));
        let mut out = Vec::new();
        let err = core.on_message(bad, submit(0, 0, 0, vec![1.0; 9]), &mut out);
        assert!(matches!(err, Err(CommsError::Protocol(_))), "the driver must drop the bad peer");
        assert!(out.is_empty());
        assert_eq!((core.conns().len(), core.parked().len()), (0, 0), "its state is scrubbed");
        // A well-behaved peer on a fresh connection is unaffected.
        let good = conn(2);
        hello(&mut core, good, 0);
        assert_eq!(send(&mut core, good, pull(0, 0)), vec![pull_reply(good, 0, 0, vec![0.0])]);
        send(&mut core, good, submit(0, 0, 0, vec![4.0]));
        core.shards()[0].submit(1, vec![0.0]).unwrap();
        assert_eq!(send(&mut core, good, pull(0, 1)), vec![pull_reply(good, 0, 1, vec![2.0])]);
        // The violation was counted, not swallowed.
        assert_eq!(counts(&core).protocol_violations, 1);
        // Unknown shards and unexpected message types are violations too.
        assert!(core.on_message(good, pull(7, 0), &mut out).is_err());
        assert!(core
            .on_message(conn(3), Message::MetricsReply { counters: [0; 13] }, &mut out)
            .is_err());
    }

    #[test]
    fn heartbeat_round_info_latest_pull_and_metrics_are_served() {
        let mut core = core_of(vec![vec![0.0]], 2, NO_LEASE);
        let a = conn(1);
        hello(&mut core, a, 0);
        // Full quorum reported before any round.
        match send(&mut core, a, Message::Heartbeat { pipe: 0, round: 0, t_tx_us: 77 })[..] {
            [(_, Message::HeartbeatAck { round, quorum, members, echo_tx_us, .. })] => {
                assert_eq!((round, quorum, members, echo_tx_us), (0, 2, 0b11, 77));
            }
            ref other => panic!("unexpected {other:?}"),
        }
        // Complete round 0 out-of-band, degraded to pipe 0 only.
        core.shards()[0].submit_at(0, 0, vec![4.0]).unwrap();
        core.shards()[0].evict(1).unwrap();
        // The latest-pull sentinel never parks and reports the version.
        assert_eq!(send(&mut core, a, pull(0, u64::MAX)), vec![pull_reply(a, 0, 1, vec![4.0])]);
        // The membership record of round 0 is queryable...
        let info = |core: &mut ShardServerCore, round| {
            send(core, a, Message::RoundInfoRequest { shard: 0, round }).remove(0).1
        };
        assert_eq!(
            info(&mut core, 0),
            Message::RoundInfoReply { shard: 0, round: 0, quorum: 1, members: 0b01, known: true }
        );
        // ...and unknown rounds are reported as such, not invented.
        assert_eq!(
            info(&mut core, 7),
            Message::RoundInfoReply { shard: 0, round: 7, quorum: 0, members: 0, known: false }
        );
        // A remote reader of the counters sees the live snapshot.
        match send(&mut core, a, Message::MetricsRequest).remove(0).1 {
            Message::MetricsReply { counters } => {
                assert_eq!(ServerMetricsSnapshot::from_wire(counters), counts(&core));
                assert_eq!(counts(&core).heartbeats, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A heartbeat from a pipe the server does not have is a violation.
        let mut out = Vec::new();
        assert!(core.on_message(conn(2), beat(2, 0), &mut out).is_err());
    }

    #[test]
    fn lease_expiry_evicts_completes_the_round_degraded_and_a_message_readmits() {
        let _clock = test_clock();
        let lease = Duration::from_millis(60);
        let mut core = core_of(vec![vec![0.0]], 2, lease);
        let (a, b) = (conn(1), conn(2));
        hello(&mut core, a, 0);
        // Pipe 0 submits round 0 and parks on round 1; pipe 1 never speaks.
        send(&mut core, a, submit(0, 0, 0, vec![6.0]));
        assert!(send(&mut core, a, pull(0, 1)).is_empty());
        clock::sleep(lease / 2);
        send(&mut core, a, beat(0, 1));
        assert!(core.reap_tick().is_empty(), "nobody's lease has lapsed yet");
        clock::sleep(lease / 2 + Duration::from_millis(1));
        assert_eq!(core.reap_tick(), vec![1]);
        assert_eq!(core.live_count(), 1);
        assert!(!core.shards()[0].is_member(1));
        assert_eq!(counts(&core).evictions, 1);
        // The eviction completed round 0 with just pipe 0; the flush that
        // follows a reap answers the parked pull.
        let mut out = Vec::new();
        core.flush(&mut out);
        assert_eq!(out, vec![pull_reply(a, 0, 1, vec![6.0])]);
        assert_eq!(core.shards()[0].round_record(0).unwrap().quorum, 1);
        // Pipe 1 coming back readmits it into the next round.
        hello(&mut core, b, 1);
        match send(&mut core, b, beat(1, 0))[..] {
            [(_, Message::HeartbeatAck { quorum, .. })] => assert_eq!(quorum, 2),
            ref other => panic!("unexpected {other:?}"),
        }
        assert!(core.shards()[0].is_member(1));
        assert_eq!(counts(&core).rejoins, 1);
    }

    #[test]
    fn reaper_thread_completes_a_stalled_round_and_the_reactor_poll_answers_the_parked_pull() {
        let server = RefShardServer::from_initial_weights(vec![vec![0.0]], 2).with_fault_tolerance(
            FtConfig {
                lease: Duration::from_millis(60),
                reap_interval: Duration::from_millis(15),
                checkpoint: None,
            },
        );
        let reactor = serve_tcp(&server);
        // Pipe 1 never speaks. Pipe 0 submits round 0 and parks on round 1;
        // its retransmissions renew its own lease while pipe 1's runs out.
        let conn = TcpTransport::connect(reactor.local_addr(), TcpConfig::default()).unwrap();
        let retry = RetryConfig { reply_timeout: Duration::from_millis(20), max_attempts: 250 };
        let mut c = ShardClient::handshake(Box::new(conn), 0, retry).unwrap();
        c.submit(0, 0, vec![6.0]).unwrap();
        assert_eq!(c.pull(0, 1).unwrap(), vec![6.0]);
        assert_eq!(server.shards()[0].round_record(0).unwrap().quorum, 1);
        assert_eq!((server.live_count(), server.metrics().evictions), (1, 1));
        drop(c);
        // The reactor counts the disconnect when it reads the EOF; let it
        // get there before it is told to stop.
        for _ in 0..2000 {
            if server.metrics().disconnects == 1 {
                break;
            }
            clock::sleep(Duration::from_millis(1));
        }
        reactor.shutdown();
        assert_eq!(server.metrics().disconnects, 1);
    }

    #[test]
    fn two_reactors_on_one_server_do_not_confuse_their_connections() {
        let server = RefShardServer::from_initial_weights(vec![vec![0.0]], 2);
        let (r0, r1) = (serve_tcp(&server), serve_tcp(&server));
        // Both reactors number their first connection identically.
        let (mut a, mut b) = (connect(&r0, 0), connect(&r1, 1));
        assert_eq!(server.core.lock().conns().len(), 2);
        a.submit(0, 0, vec![2.0]).unwrap();
        b.submit(0, 0, vec![4.0]).unwrap();
        assert_eq!(a.pull(0, 1).unwrap(), vec![3.0]);
        assert_eq!(b.pull(0, 1).unwrap(), vec![3.0]);
    }

    #[test]
    fn prometheus_dump_reflects_served_traffic() {
        let server = RefShardServer::from_initial_weights(vec![vec![0.0]], 2);
        let a = conn(1);
        {
            let mut core = server.core.lock();
            hello(&mut core, a, 0);
            send(&mut core, a, Message::Heartbeat { pipe: 0, round: 0, t_tx_us: 0 });
            send(&mut core, a, submit(0, 0, 0, vec![1.0]));
            send(&mut core, a, pull(0, 0));
        }
        let text = server.render_prometheus();
        assert!(text.contains("ea_server_heartbeats_total 1\n"), "dump:\n{text}");
        assert!(text.contains("# TYPE ea_server_pull_us summary\n"), "dump:\n{text}");
        assert!(text.contains("ea_server_submit_us_count"), "dump:\n{text}");
    }

    #[test]
    fn checkpoints_skip_mid_round_state_and_restore_at_the_recorded_round() {
        let dir = std::env::temp_dir().join("avgpipe_server_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ref.ckpt");
        {
            let server = RefShardServer::from_initial_weights(vec![vec![0.0], vec![0.0]], 1);
            // Shard versions disagree (1 vs 0): skipped, not torn.
            server.shards()[0].submit(0, vec![5.0]).unwrap();
            assert!(!server.checkpoint_now(&path).unwrap(), "inconsistent state must be skipped");
            assert!(!path.exists());
            server.shards()[1].submit(0, vec![5.0]).unwrap();
            for sh in server.shards() {
                sh.submit(0, vec![1.0]).unwrap();
            }
            assert!(server.checkpoint_now(&path).unwrap());
            assert_eq!(server.metrics().checkpoints_saved, 1);
        } // "crash"
        let ckpt = RefCheckpoint::load(&path).unwrap();
        assert_eq!(ckpt.round, 2);
        let server = RefShardServer::from_checkpoint(&ckpt, 1);
        assert_eq!(server.metrics().checkpoint_restores, 1);
        for sh in server.shards() {
            assert_eq!(sh.versioned_snapshot(), (2, vec![6.0]));
            // The quorum machinery resumes from the recorded round.
            sh.submit_at(2, 0, vec![1.0]).unwrap();
            assert_eq!(sh.try_weights_at(3), Some(vec![7.0]));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_trains_against_the_server_like_the_local_trainer() {
        use crate::ElasticTrainer;
        use ea_data::SyntheticTask;
        use ea_models::{gnmt_analogue, AnalogueConfig};
        use ea_optim::OptKind;
        use ea_tensor::TensorRng;

        const CFG: AnalogueConfig =
            AnalogueConfig { vocab: 16, seq: 4, hidden: 16, blocks: 2, stages: 2 };
        let seed = 77;
        let n = 2;
        let task = SyntheticTask::copy_translate(16, 4, 45);
        let make_stages = || gnmt_analogue(CFG, &mut TensorRng::seed_from_u64(seed)).into_stages();
        let make_opts = || -> Vec<Box<dyn Optimizer>> {
            (0..CFG.stages).map(|_| OptKind::Adam { lr: 1e-2 }.build()).collect()
        };

        // Local baseline.
        let eval = gnmt_analogue(CFG, &mut TensorRng::seed_from_u64(seed));
        let mut local = ElasticTrainer::new(
            (0..n).map(|_| make_stages()).collect(),
            (0..n).map(|_| make_opts()).collect(),
            2,
            None,
            eval,
        );

        // Server + two workers over TCP.
        let init: Vec<Vec<f32>> = make_stages().iter().map(|s| s.params_flat()).collect();
        let server = RefShardServer::from_initial_weights(init, n);
        let reactor = serve_tcp(&server);
        let rounds = 3u64;
        let workers: Vec<_> = (0..n)
            .map(|p| {
                let client = connect(&reactor, p);
                let channel: Arc<dyn ShardChannel> =
                    Arc::new(RemoteShards::new(vec![client]).unwrap());
                let stages = make_stages();
                let opts = make_opts();
                let task = SyntheticTask::copy_translate(16, 4, 45);
                std::thread::spawn(move || {
                    let mut worker =
                        ElasticWorker::new(stages, opts, 2, 1.0 / n as f32, p, channel);
                    let mut losses = Vec::new();
                    for r in 0..rounds {
                        let batch = task.batch(4, r * n as u64 + p as u64);
                        losses.push(worker.round(&batch).unwrap());
                    }
                    losses
                })
            })
            .collect();
        let worker_losses: Vec<Vec<f32>> = workers.into_iter().map(|w| w.join().unwrap()).collect();

        let mut local_losses = Vec::new();
        for r in 0..rounds {
            let batches: Vec<_> = (0..n as u64).map(|i| task.batch(4, r * n as u64 + i)).collect();
            local_losses.push(local.round(&batches));
        }
        for r in 0..rounds as usize {
            let mean = worker_losses.iter().map(|l| l[r]).sum::<f32>() / n as f32;
            assert_eq!(mean, local_losses[r], "round {r} loss differs");
        }
        for (s, shard) in server.shards().iter().enumerate() {
            let remote = shard.try_weights_at(rounds).unwrap();
            assert_eq!(remote, local.reference(s), "stage {s} reference differs");
        }
    }
}
