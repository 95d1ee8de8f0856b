//! The threaded elastic-averaging trainer: N pipelines + reference shards.
//!
//! Fault tolerance: each shard tracks per-pipeline *membership*. A
//! pipeline whose lease expires is evicted ([`RefShard::evict`]) and the
//! stalled round completes in **degraded-quorum mode** — the normalized
//! sum is taken over the `k ≤ N` members that actually reported
//! (`w̃ ← w̃ + (1/k)·Σ Δ_i`). EASGD's center-of-mass argument survives
//! renormalization: the reference remains a convex combination of itself
//! and the mean of the reporting replicas. A restarted worker is
//! readmitted at the *next* round boundary ([`RefShard::readmit`]), so a
//! mid-round rejoin can never deadlock a round it never pulled. Per-round
//! membership is recorded in [`RoundRecord`]s for clients and tests.

use crate::metrics::ServerMetrics;
use crate::{Error, ThreadedPipeline};
use ea_autograd::{Stage, StagedModel};
use ea_comms::{CommsError, QuorumInfo, ShardChannel};
use ea_data::Batch;
use ea_optim::Optimizer;
use ea_trace::{Category, StaticName};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

/// How many per-round membership records a shard retains.
const RECORD_CAP: usize = 1024;

static ROUND_APPLIED_MARK: StaticName = StaticName::new("round_applied");
static DEGRADED_MARK: StaticName = StaticName::new("degraded_round");
static ROUND_SPAN: StaticName = StaticName::new("round");
static PULL_REF_SPAN: StaticName = StaticName::new("pull");
static SUBMIT_DELTA_SPAN: StaticName = StaticName::new("submit");

/// Membership of one applied round: who contributed to the average.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundRecord {
    /// The round this record describes (the shard version it produced is
    /// `round + 1`).
    pub round: u64,
    /// Number of pipelines folded into the average (`k` in `1/k`).
    pub quorum: u32,
    /// Bitmask of contributing pipeline ids.
    pub members: u64,
}

struct ShardState {
    /// Completed elastic-averaging rounds.
    version: u64,
    /// Reference weights (Step ❹'s target).
    weights: Vec<f32>,
    /// One pending local update per pipeline for the current round.
    pending: Vec<Option<Vec<f32>>>,
    /// Membership: `false` = evicted (lease expired), not required for
    /// round completion and not allowed to submit until readmitted.
    active: Vec<bool>,
    /// First round a pipeline is *required* for. Readmission sets this to
    /// `version + 1` so a rejoiner re-enters at the next round boundary.
    joined_at: Vec<u64>,
    /// Membership records of the most recent applied rounds.
    records: VecDeque<RoundRecord>,
}

/// Whether a submission changed shard state or was a recognized
/// retransmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// First delivery: the update was recorded (and possibly the round
    /// applied).
    Applied,
    /// `(round, pipe)` was already recorded or already folded into the
    /// reference — the retransmission was dropped.
    Duplicate,
}

/// A reference-model shard: the per-GPU process of the paper's Figure 6
/// that owns one stage of the reference model, accumulates the local
/// updates of all N pipelines and applies the normalized sum.
pub struct RefShard {
    state: Mutex<ShardState>,
    cv: Condvar,
    n: usize,
    metrics: OnceLock<Arc<ServerMetrics>>,
}

impl RefShard {
    /// Creates the shard with initial reference weights.
    pub fn new(init: Vec<f32>, n_pipelines: usize) -> Self {
        Self::with_version(init, n_pipelines, 0)
    }

    /// Creates the shard at a given version — used when restoring from a
    /// checkpoint, so the server resumes at the recorded round instead of
    /// silently resetting to round 0.
    pub fn with_version(init: Vec<f32>, n_pipelines: usize, version: u64) -> Self {
        RefShard {
            state: Mutex::new(ShardState {
                version,
                weights: init,
                pending: vec![None; n_pipelines],
                active: vec![true; n_pipelines],
                joined_at: vec![0; n_pipelines],
                records: VecDeque::new(),
            }),
            cv: Condvar::new(),
            n: n_pipelines,
            metrics: OnceLock::new(),
        }
    }

    /// Number of pipelines feeding this shard.
    pub fn n_pipelines(&self) -> usize {
        self.n
    }

    /// Attaches server metrics; degraded rounds are counted there. Only
    /// the first call takes effect.
    pub fn set_metrics(&self, metrics: Arc<ServerMetrics>) {
        let _ = self.metrics.set(metrics);
    }

    /// Completed rounds on this shard.
    pub fn version(&self) -> u64 {
        self.state.lock().version
    }

    /// Number of live (non-evicted) members.
    pub fn live_count(&self) -> usize {
        self.state.lock().active.iter().filter(|a| **a).count()
    }

    /// Bitmask of live member pipeline ids.
    pub fn member_mask(&self) -> u64 {
        let st = self.state.lock();
        mask_of(&st.active)
    }

    /// Whether pipeline `pipe` currently holds membership.
    pub fn is_member(&self, pipe: usize) -> bool {
        let st = self.state.lock();
        pipe < self.n && st.active[pipe]
    }

    /// The membership record of an applied `round`, if still retained.
    pub fn round_record(&self, round: u64) -> Option<RoundRecord> {
        let st = self.state.lock();
        st.records.iter().rev().find(|r| r.round == round).copied()
    }

    /// All retained membership records, oldest first.
    pub fn round_records(&self) -> Vec<RoundRecord> {
        self.state.lock().records.iter().copied().collect()
    }

    /// Step ❹ for in-process callers: pipeline `pipe` submits its local
    /// update for the *current* round. A second submission by the same
    /// pipeline within one round is an error (in-process callers are
    /// exactly-once; retransmission-tolerant peers use
    /// [`RefShard::submit_at`]).
    pub fn submit(&self, pipe: usize, delta: Vec<f32>) -> Result<(), Error> {
        let mut st = self.state.lock();
        let round = st.version;
        match self.submit_locked(&mut st, round, pipe, delta)? {
            SubmitOutcome::Applied => Ok(()),
            SubmitOutcome::Duplicate => Err(Error::DuplicateSubmit { pipe, round }),
        }
    }

    /// Step ❹ for transport peers: idempotent, round-addressed
    /// submission. The `(round, pipe)` pair is the idempotency key:
    ///
    /// * `round == version`, first delivery → recorded
    ///   ([`SubmitOutcome::Applied`]; when all N have reported, Step ❺
    ///   applies the normalized sum in fixed pipeline order and bumps the
    ///   version).
    /// * `round < version`, or already recorded this round → the delta is
    ///   discarded and the caller acknowledged
    ///   ([`SubmitOutcome::Duplicate`]), so at-least-once retry never
    ///   double-counts an update.
    /// * `round > version` → [`Error::RoundAhead`]: a correct peer pulls
    ///   round `r` before submitting round `r`, so this means a protocol
    ///   violation.
    pub fn submit_at(
        &self,
        round: u64,
        pipe: usize,
        delta: Vec<f32>,
    ) -> Result<SubmitOutcome, Error> {
        let mut st = self.state.lock();
        self.submit_locked(&mut st, round, pipe, delta)
    }

    fn submit_locked(
        &self,
        st: &mut ShardState,
        round: u64,
        pipe: usize,
        delta: Vec<f32>,
    ) -> Result<SubmitOutcome, Error> {
        if pipe >= self.n {
            ea_tensor::pool::recycle(delta);
            return Err(Error::IndexOutOfRange { what: "pipeline", index: pipe, len: self.n });
        }
        if delta.len() != st.weights.len() {
            let got = delta.len();
            ea_tensor::pool::recycle(delta);
            return Err(Error::LengthMismatch {
                what: format!("pipeline {pipe} delta"),
                expected: st.weights.len(),
                got,
            });
        }
        if !st.active[pipe] {
            // The pipe was evicted (lease expired). Checked before the
            // duplicate path so a dead worker's late submission — even
            // for a round that already completed without it — is refused
            // loudly rather than silently swallowed as a retransmission.
            ea_tensor::pool::recycle(delta);
            return Err(Error::LeaseExpired { pipe, round });
        }
        if round < st.version {
            // The round this update belongs to has already been applied;
            // the original delivery made it. Drop the retransmission.
            ea_tensor::pool::recycle(delta);
            return Ok(SubmitOutcome::Duplicate);
        }
        if round > st.version {
            ea_tensor::pool::recycle(delta);
            return Err(Error::RoundAhead { round, version: st.version });
        }
        if st.pending[pipe].is_some() {
            ea_tensor::pool::recycle(delta);
            return Ok(SubmitOutcome::Duplicate);
        }
        st.pending[pipe] = Some(delta);
        self.maybe_apply(st);
        Ok(SubmitOutcome::Applied)
    }

    /// Step ❺: applies the round if every *required* member has reported.
    /// Required = active with `joined_at ≤ version`; a rejoiner waiting
    /// for the next boundary is exempt. The normalized sum folds all
    /// pending deltas in fixed pipeline order with `1/k`, `k` = number of
    /// contributors — with a full quorum this is byte-identical to the
    /// fault-free `1/N` path.
    ///
    /// A round with *zero* required members — every active pipeline has
    /// [deferred](Self::defer_until) past it — can never receive another
    /// submission, so it completes as an **empty round**: the version
    /// advances, the weights do not. This is how a server restored from a
    /// stale checkpoint catches up to workers that finished the lost
    /// rounds elsewhere; the loop advances through every such round until
    /// a required member is owed again.
    fn maybe_apply(&self, st: &mut ShardState) {
        loop {
            let complete = (0..self.n).all(|i| {
                let required = st.active[i] && st.joined_at[i] <= st.version;
                !required || st.pending[i].is_some()
            });
            let k = st.pending.iter().filter(|p| p.is_some()).count();
            if !complete {
                return;
            }
            if k == 0 {
                // `complete` with no contributors ⇒ no active pipeline is
                // required yet (all joined_at > version): vacuously done.
                let any_deferred =
                    (0..self.n).any(|i| st.active[i] && st.joined_at[i] > st.version);
                if !any_deferred {
                    return;
                }
                st.records.push_back(RoundRecord { round: st.version, quorum: 0, members: 0 });
                if st.records.len() > RECORD_CAP {
                    st.records.pop_front();
                }
                ea_trace::instant(&ROUND_APPLIED_MARK, Category::Runtime, st.version);
                st.version += 1;
                self.cv.notify_all();
                continue;
            }
            self.apply_round(st, k);
            return;
        }
    }

    fn apply_round(&self, st: &mut ShardState, k: usize) {
        let inv = 1.0 / k as f32;
        let mut members = 0u64;
        for i in 0..self.n {
            if let Some(delta) = st.pending[i].take() {
                if i < 64 {
                    members |= 1 << i;
                }
                for (w, d) in st.weights.iter_mut().zip(&delta) {
                    *w += d * inv;
                }
                // Deltas arrive in pooled buffers; return them for reuse.
                ea_tensor::pool::recycle(delta);
            }
        }
        st.records.push_back(RoundRecord { round: st.version, quorum: k as u32, members });
        if st.records.len() > RECORD_CAP {
            st.records.pop_front();
        }
        if k < self.n {
            if let Some(m) = self.metrics.get() {
                m.inc_degraded_rounds();
            }
            ea_trace::instant(&DEGRADED_MARK, Category::Runtime, k as u64);
        }
        ea_trace::instant(&ROUND_APPLIED_MARK, Category::Runtime, st.version);
        st.version += 1;
        self.cv.notify_all();
    }

    /// Removes pipeline `pipe` from the quorum (its lease expired). Any
    /// pending update it submitted for the current round is discarded, and
    /// the round is applied in degraded-quorum mode if the survivors have
    /// all reported. Returns `Ok(true)` when state changed, `Ok(false)`
    /// when the pipe was already evicted, and [`Error::QuorumLost`] when
    /// eviction would leave zero live members (the member stays required
    /// so the caller can retry once someone rejoins).
    pub fn evict(&self, pipe: usize) -> Result<bool, Error> {
        let mut st = self.state.lock();
        if pipe >= self.n {
            return Err(Error::IndexOutOfRange { what: "pipeline", index: pipe, len: self.n });
        }
        if !st.active[pipe] {
            return Ok(false);
        }
        if st.active.iter().filter(|a| **a).count() == 1 {
            return Err(Error::QuorumLost { live: 1, round: st.version });
        }
        st.active[pipe] = false;
        if let Some(delta) = st.pending[pipe].take() {
            ea_tensor::pool::recycle(delta);
        }
        self.maybe_apply(&mut st);
        Ok(true)
    }

    /// Readmits an evicted pipeline at the *next* round boundary: it is
    /// not required (and its submissions are not expected) until the
    /// current round completes. Returns `true` if the pipe was dead.
    pub fn readmit(&self, pipe: usize) -> Result<bool, Error> {
        let joined_at = self.version() + 1;
        self.readmit_at(pipe, joined_at)
    }

    /// [`readmit`](Self::readmit) with an explicit join round, so a
    /// server readmitting one pipeline across *many* shards can pick a
    /// single boundary (the max version over all shards, plus one) — a
    /// per-shard `version + 1` would let the join rounds diverge, and a
    /// rejoiner resyncing to the *highest* shard version could then skip
    /// a round a slower shard still requires it for, stalling that shard
    /// forever. Clamped to this shard's own next boundary: a pipeline is
    /// never required for the round already in flight when it rejoins.
    pub fn readmit_at(&self, pipe: usize, joined_at: u64) -> Result<bool, Error> {
        let mut st = self.state.lock();
        if pipe >= self.n {
            return Err(Error::IndexOutOfRange { what: "pipeline", index: pipe, len: self.n });
        }
        if st.active[pipe] {
            return Ok(false);
        }
        st.active[pipe] = true;
        st.joined_at[pipe] = joined_at.max(st.version + 1);
        Ok(true)
    }

    /// Records that pipeline `pipe` has already advanced to `round` (its
    /// heartbeat says so): it will never submit any earlier round, so it
    /// is not required before `round`. Raises the pipe's join boundary —
    /// never lowers it — and completes any round this leaves with zero
    /// required members as an empty round (see [`Self::maybe_apply`]).
    ///
    /// This is the healing half of crash-restart recovery: a server
    /// restored from a checkpoint `d` rounds stale would otherwise wait
    /// forever for submissions the workers already made to the
    /// pre-crash incarnation. No-op unless `round` is strictly ahead of
    /// the shard and the pipe has nothing pending for the current round.
    pub fn defer_until(&self, pipe: usize, round: u64) {
        let mut st = self.state.lock();
        if pipe >= self.n || !st.active[pipe] || st.pending[pipe].is_some() || round <= st.version {
            return;
        }
        st.joined_at[pipe] = st.joined_at[pipe].max(round);
        self.maybe_apply(&mut st);
    }

    /// Step ❷ support: returns the reference weights as of exactly
    /// `version` completed rounds (blocks until reached). Because every
    /// pipeline pulls for round `r` before submitting round `r`, the
    /// version cannot advance past `r` while any pull is outstanding —
    /// all pipelines observe identical reference weights.
    pub fn weights_at(&self, version: u64) -> Vec<f32> {
        let mut st = self.state.lock();
        while st.version < version {
            self.cv.wait(&mut st);
        }
        assert_eq!(st.version, version, "reference advanced past the pull point");
        st.weights.clone()
    }

    /// Transport-facing variant of [`RefShard::weights_at`]: waits until
    /// at least `version` rounds are complete and returns the weights
    /// *with the version they actually correspond to*. Retransmitted pull
    /// requests can arrive after their round was superseded; the caller
    /// matches on the returned version and discards stale replies instead
    /// of panicking.
    pub fn weights_at_least(&self, version: u64) -> (u64, Vec<f32>) {
        let mut st = self.state.lock();
        while st.version < version {
            self.cv.wait(&mut st);
        }
        (st.version, st.weights.clone())
    }

    /// Consistent `(version, weights)` snapshot under one lock hold.
    pub fn versioned_snapshot(&self) -> (u64, Vec<f32>) {
        let st = self.state.lock();
        (st.version, st.weights.clone())
    }

    /// Non-blocking read of the reference weights at exactly `version`
    /// completed rounds: `None` if the shard is at any other version or a
    /// round is mid-application. Evaluation paths use this so they can
    /// never observe mid-round weights.
    pub fn try_weights_at(&self, version: u64) -> Option<Vec<f32>> {
        let st = self.state.lock();
        (st.version == version).then(|| st.weights.clone())
    }

    /// Current reference weights (for evaluation; racy only with active
    /// training — prefer [`RefShard::try_weights_at`] when the expected
    /// round is known).
    pub fn snapshot(&self) -> Vec<f32> {
        self.state.lock().weights.clone()
    }
}

/// Bitmask of `true` entries (pipelines ≥ 64 are not representable and
/// are omitted from masks, never from the quorum arithmetic).
fn mask_of(active: &[bool]) -> u64 {
    active.iter().take(64).enumerate().fold(0u64, |m, (i, a)| if *a { m | (1 << i) } else { m })
}

/// The in-process [`ShardChannel`]: calls the shard accumulators
/// directly, no serialization, no copies beyond the protocol-mandated
/// clone of the reference weights.
pub struct LocalShards {
    shards: Vec<Arc<RefShard>>,
}

impl LocalShards {
    /// Wraps the given shards.
    pub fn new(shards: Vec<Arc<RefShard>>) -> Self {
        LocalShards { shards }
    }

    /// The underlying shards.
    pub fn shards(&self) -> &[Arc<RefShard>] {
        &self.shards
    }
}

impl ShardChannel for LocalShards {
    fn n_shards(&self) -> usize {
        self.shards.len()
    }

    fn pull(&self, _pipe: usize, shard: usize, version: u64) -> Result<Vec<f32>, CommsError> {
        let sh = self
            .shards
            .get(shard)
            .ok_or_else(|| CommsError::Protocol(format!("no shard {shard}")))?;
        Ok(sh.weights_at(version))
    }

    fn submit(
        &self,
        pipe: usize,
        shard: usize,
        round: u64,
        delta: Vec<f32>,
    ) -> Result<(), CommsError> {
        let sh = self
            .shards
            .get(shard)
            .ok_or_else(|| CommsError::Protocol(format!("no shard {shard}")))?;
        sh.submit_at(round, pipe, delta)
            .map(|_| ())
            .map_err(|e| CommsError::Protocol(e.to_string()))
    }

    fn pull_latest(&self, _pipe: usize, shard: usize) -> Result<(u64, Vec<f32>), CommsError> {
        let sh = self
            .shards
            .get(shard)
            .ok_or_else(|| CommsError::Protocol(format!("no shard {shard}")))?;
        Ok(sh.versioned_snapshot())
    }

    fn heartbeat(&self, _pipe: usize, _round: u64) -> Result<QuorumInfo, CommsError> {
        // In-process pipelines share a fate — there are no leases to
        // expire, so the quorum is always full.
        let round = self.shards.iter().map(|s| s.version()).max().unwrap_or(0);
        let n = self.shards.first().map(|s| s.n_pipelines()).unwrap_or(0);
        let quorum = n as u32;
        let members = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
        Ok(QuorumInfo { round, quorum, members })
    }
}

/// Per-pipeline error-feedback accumulator for lossy delta codecs.
///
/// With a lossy wire codec (f16 / int8 / top-k) the reference only ever
/// sees the *representable* part of each delta. Error feedback keeps the
/// lost remainder local: before submitting, the worker adds the carried
/// residual to the raw delta, rounds the sum through the codec, submits
/// the rounded value, and keeps the new rounding error as the next
/// round's residual. Quantization error then telescopes instead of
/// accumulating — the reference receives every gradient contribution
/// eventually, which is what keeps statistical efficiency near f32.
///
/// The worker submits the already-rounded `f32` values; because the
/// codecs are idempotent on values (see `ea_optim::codec`), the
/// transport's re-encode on the wire is lossless.
pub struct ErrorFeedback {
    codec: ea_optim::Codec,
    /// Carried residual per shard; empty until first use (shards can have
    /// different parameter counts).
    residuals: Vec<Vec<f32>>,
    /// Scratch encode buffer, reused across rounds.
    scratch: Vec<u8>,
}

impl ErrorFeedback {
    /// A fresh accumulator with zero residuals for `n_shards` shards.
    pub fn new(codec: ea_optim::Codec, n_shards: usize) -> Self {
        ErrorFeedback { codec, residuals: vec![Vec::new(); n_shards], scratch: Vec::new() }
    }

    /// Whether this codec actually loses anything (F32 makes `apply` a
    /// pass-through with no residual state).
    pub fn is_lossy(&self) -> bool {
        self.codec != ea_optim::Codec::F32
    }

    /// Folds the carried residual into `delta`, rounds the sum through the
    /// codec, stores the new rounding error, and returns the rounded delta
    /// (the exact values the reference will receive).
    pub fn apply(&mut self, shard: usize, mut delta: Vec<f32>) -> Vec<f32> {
        if !self.is_lossy() {
            return delta;
        }
        let residual = &mut self.residuals[shard];
        if residual.len() != delta.len() {
            // First round (or a topology change): start from zero error.
            residual.clear();
            residual.resize(delta.len(), 0.0);
        }
        for (d, r) in delta.iter_mut().zip(residual.iter()) {
            *d += *r;
        }
        self.scratch.clear();
        self.codec.encode(&delta, &mut self.scratch);
        let rounded = self
            .codec
            .decode(delta.len(), &self.scratch)
            .expect("decoding our own encoding cannot fail");
        for ((r, d), q) in residual.iter_mut().zip(&delta).zip(&rounded) {
            *r = d - q;
        }
        ea_tensor::pool::recycle(delta);
        rounded
    }

    /// Sum of |residual| currently carried (diagnostics).
    pub fn residual_l1(&self) -> f64 {
        self.residuals.iter().flatten().map(|r| r.abs() as f64).sum()
    }

    /// Drops all carried state (e.g. after a resync rebased the replica).
    pub fn reset(&mut self) {
        for r in &mut self.residuals {
            r.clear();
        }
    }
}

/// N parallel threaded pipelines training replicas under elastic
/// averaging. The reference shards live behind a [`ShardChannel`]: the
/// default constructor wires the in-process [`LocalShards`] backend, and
/// [`ElasticTrainer::with_channel`] runs the identical training loop over
/// any transport (loopback, TCP, fault-injected) instead.
pub struct ElasticTrainer {
    pipelines: Vec<ThreadedPipeline>,
    channel: Arc<dyn ShardChannel>,
    /// Present in local mode only: direct shard handles for evaluation
    /// reads that must never block or observe mid-round state.
    local: Option<Vec<Arc<RefShard>>>,
    n_shards: usize,
    alpha: f32,
    round: u64,
    eval_replica: StagedModel,
}

impl ElasticTrainer {
    /// Builds the trainer with in-process reference shards (all replicas
    /// must start from identical weights for the reference initialization
    /// to be meaningful). `alpha = None` uses 1/N.
    pub fn new(
        replica_stages: Vec<Vec<Stage>>,
        replica_opts: Vec<Vec<Box<dyn Optimizer>>>,
        micros: usize,
        alpha: Option<f32>,
        eval_replica: StagedModel,
    ) -> Self {
        let n = replica_stages.len();
        assert!(n >= 1);
        let k = replica_stages[0].len();
        let shards: Vec<Arc<RefShard>> = (0..k)
            .map(|s| Arc::new(RefShard::new(replica_stages[0][s].params_flat(), n)))
            .collect();
        let channel: Arc<dyn ShardChannel> = Arc::new(LocalShards::new(shards.clone()));
        Self::build(
            replica_stages,
            replica_opts,
            micros,
            alpha,
            eval_replica,
            channel,
            Some(shards),
        )
    }

    /// Builds the trainer against an arbitrary shard backend — the
    /// loopback or TCP transport, optionally fault-wrapped. The channel's
    /// server must hold reference weights identical to the replicas'
    /// initial weights.
    pub fn with_channel(
        replica_stages: Vec<Vec<Stage>>,
        replica_opts: Vec<Vec<Box<dyn Optimizer>>>,
        micros: usize,
        alpha: Option<f32>,
        eval_replica: StagedModel,
        channel: Arc<dyn ShardChannel>,
    ) -> Self {
        Self::build(replica_stages, replica_opts, micros, alpha, eval_replica, channel, None)
    }

    fn build(
        replica_stages: Vec<Vec<Stage>>,
        replica_opts: Vec<Vec<Box<dyn Optimizer>>>,
        micros: usize,
        alpha: Option<f32>,
        eval_replica: StagedModel,
        channel: Arc<dyn ShardChannel>,
        local: Option<Vec<Arc<RefShard>>>,
    ) -> Self {
        let n = replica_stages.len();
        assert!(n >= 1);
        assert_eq!(replica_opts.len(), n);
        let k = replica_stages[0].len();
        assert_eq!(channel.n_shards(), k, "one reference shard per stage");
        let pipelines = replica_stages
            .into_iter()
            .zip(replica_opts)
            .map(|(stages, opts)| ThreadedPipeline::spawn(stages, opts, micros))
            .collect();
        ElasticTrainer {
            pipelines,
            channel,
            local,
            n_shards: k,
            alpha: alpha.unwrap_or(1.0 / n as f32),
            round: 0,
            eval_replica,
        }
    }

    /// Number of pipelines N.
    pub fn n_pipelines(&self) -> usize {
        self.pipelines.len()
    }

    /// One elastic-averaging round: each pipeline trains on its own batch
    /// concurrently (scoped threads — one driver per pipeline), then pulls
    /// toward the round-`r` reference and submits its update. Returns the
    /// mean loss across pipelines.
    pub fn round(&mut self, batches: &[Batch]) -> f32 {
        assert_eq!(batches.len(), self.pipelines.len(), "one batch per pipeline");
        let k = self.n_shards;
        let round = self.round;
        let alpha = self.alpha;
        let channel = &self.channel;
        let losses: Vec<f32> = std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for (p, (pipe, batch)) in self.pipelines.iter_mut().zip(batches.iter()).enumerate() {
                joins.push(scope.spawn(move || {
                    // Same ids as the multi-process path, so in-process
                    // and distributed traces correlate identically.
                    let span_id = ea_ops::exchange_span_id(round, p as u32);
                    let _round_span =
                        ea_trace::span_arg(&ROUND_SPAN, Category::Runtime, round).with_ctx(span_id);
                    // Fetch the round-r reference up front: the version
                    // cannot advance past r until this pipeline submits,
                    // so this observes exactly the pre-round weights.
                    let references: Vec<Vec<f32>> = (0..k)
                        .map(|s| {
                            let _s = ea_trace::span_arg(&PULL_REF_SPAN, Category::Comm, round)
                                .with_ctx(span_id);
                            channel.pull(p, s, round).expect("reference pull failed")
                        })
                        .collect();
                    // Steps ❶–❷ run worker-side in one fused pass; Δ comes
                    // back per stage for Step ❸.
                    let (loss, deltas) = pipe.step_elastic(batch, references, alpha);
                    for (s, delta) in deltas.into_iter().enumerate() {
                        let _s = ea_trace::span_arg(&SUBMIT_DELTA_SPAN, Category::Comm, round)
                            .with_ctx(span_id);
                        channel.submit(p, s, round, delta).expect("delta submit failed");
                    }
                    loss
                }));
            }
            joins.into_iter().map(|j| j.join().expect("pipeline driver panicked")).collect()
        });
        self.round += 1;
        losses.iter().sum::<f32>() / losses.len() as f32
    }

    /// Materializes the reference model into the evaluation replica.
    ///
    /// Reads the reference at exactly `self.round` completed rounds —
    /// never a mid-round state. (`&mut self` excludes a concurrent
    /// [`ElasticTrainer::round`], so the read cannot block either.)
    pub fn eval_model(&mut self) -> &StagedModel {
        for s in 0..self.n_shards {
            let w = self.reference(s);
            self.eval_replica.stage_mut(s).set_params_flat(&w);
            ea_tensor::pool::recycle(w);
        }
        &self.eval_replica
    }

    /// Reference weights of stage `s` as of the last completed round.
    pub fn reference(&self, s: usize) -> Vec<f32> {
        match &self.local {
            Some(shards) => shards[s]
                .try_weights_at(self.round)
                .expect("evaluation must not race an active round"),
            None => {
                self.channel.pull(0, s, self.round).expect("reference pull for evaluation failed")
            }
        }
    }

    /// Replica parameters of pipeline `p`, stage `s`.
    pub fn replica_params(&self, p: usize, s: usize) -> Vec<f32> {
        self.pipelines[p].stage_params(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic::ElasticSemantic;
    use ea_data::SyntheticTask;
    use ea_models::{gnmt_analogue, AnalogueConfig};
    use ea_optim::OptKind;
    use ea_tensor::TensorRng;

    const CFG: AnalogueConfig =
        AnalogueConfig { vocab: 16, seq: 4, hidden: 16, blocks: 2, stages: 2 };

    type Replicas = (Vec<Vec<Stage>>, Vec<Vec<Box<dyn Optimizer>>>);

    fn replicas(n: usize, seed: u64) -> Replicas {
        let stages = (0..n)
            .map(|_| gnmt_analogue(CFG, &mut TensorRng::seed_from_u64(seed)).into_stages())
            .collect();
        let opts = (0..n)
            .map(|_| {
                (0..CFG.stages).map(|_| OptKind::Adam { lr: 1e-2 }.build()).collect::<Vec<_>>()
            })
            .collect();
        (stages, opts)
    }

    #[test]
    fn threaded_elastic_matches_semantic_reference() {
        let seed = 55;
        let task = SyntheticTask::copy_translate(16, 4, 41);
        let n = 2;

        let (stages, opts) = replicas(n, seed);
        let eval = gnmt_analogue(CFG, &mut TensorRng::seed_from_u64(seed));
        let mut threaded = ElasticTrainer::new(stages, opts, 2, None, eval);

        let sem_replicas: Vec<StagedModel> =
            (0..n).map(|_| gnmt_analogue(CFG, &mut TensorRng::seed_from_u64(seed))).collect();
        let sem_opts = (0..n)
            .map(|_| {
                (0..CFG.stages).map(|_| OptKind::Adam { lr: 1e-2 }.build()).collect::<Vec<_>>()
            })
            .collect();
        let sem_eval = gnmt_analogue(CFG, &mut TensorRng::seed_from_u64(seed));
        let mut semantic =
            ElasticSemantic::with_eval_replica(sem_replicas, sem_opts, 2, None, sem_eval);

        for r in 0..4 {
            let batches: Vec<_> = (0..n as u64).map(|i| task.batch(4, r * 2 + i)).collect();
            let lt = threaded.round(&batches);
            let ls = semantic.round(&batches);
            assert!((lt - ls).abs() < 1e-6, "round {r}: {lt} vs {ls}");
        }
        for s in 0..CFG.stages {
            let tw = threaded.reference(s);
            let sw = semantic.reference(s);
            for (a, b) in tw.iter().zip(sw) {
                assert!((a - b).abs() < 1e-6, "reference mismatch: {a} vs {b}");
            }
            for p in 0..n {
                let tp = threaded.replica_params(p, s);
                let sp = semantic.replica(p).stage(s).params_flat();
                for (a, b) in tp.iter().zip(&sp) {
                    assert!((a - b).abs() < 1e-6, "replica {p} mismatch: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn reference_stays_centered_between_replicas() {
        let (stages, opts) = replicas(2, 99);
        let eval = gnmt_analogue(CFG, &mut TensorRng::seed_from_u64(99));
        let mut t = ElasticTrainer::new(stages, opts, 2, None, eval);
        let task = SyntheticTask::copy_translate(16, 4, 43);
        for r in 0..6 {
            let batches: Vec<_> = (0..2u64).map(|i| task.batch(4, r * 2 + i)).collect();
            t.round(&batches);
        }
        // ‖ref − replica‖ should be smaller than ‖replica0 − replica1‖
        // scaled distance — the reference sits between the replicas.
        let r0 = t.replica_params(0, 0);
        let r1 = t.replica_params(1, 0);
        let rf = t.reference(0);
        let d01: f32 = r0.iter().zip(&r1).map(|(a, b)| (a - b) * (a - b)).sum::<f32>().sqrt();
        let dr0: f32 = rf.iter().zip(&r0).map(|(a, b)| (a - b) * (a - b)).sum::<f32>().sqrt();
        assert!(dr0 < d01 * 2.0 + 1e-3, "reference far from replicas: {dr0} vs {d01}");
    }

    #[test]
    fn shard_applies_in_pipeline_order() {
        let shard = RefShard::new(vec![0.0; 2], 2);
        shard.submit(1, vec![2.0, 2.0]).unwrap();
        // Round not complete yet.
        assert_eq!(shard.weights_at(0), vec![0.0, 0.0]);
        shard.submit(0, vec![0.0, 4.0]).unwrap();
        assert_eq!(shard.weights_at(1), vec![1.0, 3.0]);
    }

    #[test]
    fn double_submit_is_an_error_not_a_panic() {
        let shard = RefShard::new(vec![0.0; 1], 2);
        shard.submit(0, vec![1.0]).unwrap();
        assert_eq!(shard.submit(0, vec![1.0]), Err(Error::DuplicateSubmit { pipe: 0, round: 0 }));
        // The pending update survives the rejected duplicate.
        shard.submit(1, vec![3.0]).unwrap();
        assert_eq!(shard.weights_at(1), vec![2.0]);
    }

    #[test]
    fn wrong_length_delta_is_rejected_without_corrupting_state() {
        let shard = RefShard::new(vec![0.0; 3], 1);
        assert!(matches!(shard.submit(0, vec![1.0; 2]), Err(Error::LengthMismatch { .. })));
        assert!(matches!(shard.submit_at(0, 0, vec![1.0; 7]), Err(Error::LengthMismatch { .. })));
        // A well-formed submission still works afterwards.
        shard.submit(0, vec![1.0; 3]).unwrap();
        assert_eq!(shard.weights_at(1), vec![1.0; 3]);
    }

    #[test]
    fn out_of_range_pipe_is_rejected() {
        let shard = RefShard::new(vec![0.0; 1], 2);
        assert!(matches!(shard.submit_at(0, 5, vec![1.0]), Err(Error::IndexOutOfRange { .. })));
    }

    #[test]
    fn submit_at_is_idempotent_per_round_and_pipe() {
        let shard = RefShard::new(vec![0.0; 1], 2);
        assert_eq!(shard.submit_at(0, 0, vec![2.0]), Ok(SubmitOutcome::Applied));
        // Same (round, pipe) again: duplicate, not double-counted.
        assert_eq!(shard.submit_at(0, 0, vec![2.0]), Ok(SubmitOutcome::Duplicate));
        assert_eq!(shard.submit_at(0, 1, vec![4.0]), Ok(SubmitOutcome::Applied));
        assert_eq!(shard.weights_at(1), vec![3.0]);
        // Late retransmission of the applied round: still a duplicate.
        assert_eq!(shard.submit_at(0, 1, vec![4.0]), Ok(SubmitOutcome::Duplicate));
        assert_eq!(shard.try_weights_at(1), Some(vec![3.0]));
    }

    #[test]
    fn submit_for_a_future_round_is_rejected() {
        let shard = RefShard::new(vec![0.0; 1], 1);
        assert_eq!(
            shard.submit_at(3, 0, vec![1.0]),
            Err(Error::RoundAhead { round: 3, version: 0 })
        );
    }

    #[test]
    fn try_weights_at_only_serves_the_exact_version() {
        let shard = RefShard::new(vec![5.0; 1], 1);
        assert_eq!(shard.try_weights_at(0), Some(vec![5.0]));
        assert_eq!(shard.try_weights_at(1), None);
        shard.submit(0, vec![1.0]).unwrap();
        assert_eq!(shard.try_weights_at(0), None);
        assert_eq!(shard.try_weights_at(1), Some(vec![6.0]));
    }

    #[test]
    fn weights_at_least_reports_the_actual_version() {
        let shard = RefShard::new(vec![0.0; 1], 1);
        shard.submit(0, vec![2.0]).unwrap();
        shard.submit(0, vec![2.0]).unwrap();
        let (v, w) = shard.weights_at_least(1);
        assert_eq!(v, 2);
        assert_eq!(w, vec![4.0]);
    }

    #[test]
    fn evicted_pipe_submission_is_lease_expired() {
        let shard = RefShard::new(vec![0.0; 1], 3);
        shard.submit_at(0, 0, vec![3.0]).unwrap();
        assert_eq!(shard.evict(2), Ok(true));
        // Survivors 0 and 1 complete round 0 in degraded mode...
        shard.submit_at(0, 1, vec![5.0]).unwrap();
        assert_eq!(shard.weights_at(1), vec![4.0], "1/k with k=2");
        // ...and the dead pipe's late submission for that round is refused,
        // not silently treated as a duplicate.
        assert_eq!(
            shard.submit_at(0, 2, vec![9.0]),
            Err(Error::LeaseExpired { pipe: 2, round: 0 })
        );
        let rec = shard.round_record(0).unwrap();
        assert_eq!(rec, RoundRecord { round: 0, quorum: 2, members: 0b011 });
    }

    #[test]
    fn eviction_completes_a_stalled_round_degraded() {
        let shard = RefShard::new(vec![0.0; 2], 2);
        shard.submit_at(0, 0, vec![6.0, 6.0]).unwrap();
        // Pipe 1 never reports; its eviction finishes the round with k=1.
        assert_eq!(shard.evict(1), Ok(true));
        assert_eq!(shard.try_weights_at(1), Some(vec![6.0, 6.0]));
        assert_eq!(shard.round_record(0).unwrap().quorum, 1);
        assert_eq!(shard.live_count(), 1);
        assert_eq!(shard.member_mask(), 0b01);
    }

    #[test]
    fn readmit_at_uses_the_common_boundary_and_clamps_to_the_next_round() {
        let shard = RefShard::new(vec![0.0; 1], 2);
        shard.evict(1).unwrap();
        // A server-wide boundary ahead of this shard is taken verbatim:
        // pipe 1 is not required until round 5.
        assert_eq!(shard.readmit_at(1, 5), Ok(true));
        shard.submit_at(0, 0, vec![2.0]).unwrap();
        assert_eq!(shard.try_weights_at(1), Some(vec![2.0]), "round 0 must not wait for pipe 1");
        assert_eq!(shard.round_record(0).unwrap().quorum, 1);
        // A boundary behind the shard's own version is clamped forward —
        // a rejoiner is never required for the round already in flight.
        shard.evict(1).unwrap();
        assert_eq!(shard.readmit_at(1, 0), Ok(true));
        shard.submit_at(1, 0, vec![4.0]).unwrap();
        assert_eq!(shard.try_weights_at(2), Some(vec![6.0]), "round 1 must not wait for pipe 1");
        // From the clamped boundary on, the rejoiner is required again.
        shard.submit_at(2, 0, vec![6.0]).unwrap();
        assert_eq!(shard.try_weights_at(3), None, "round 2 must wait for pipe 1");
        shard.submit_at(2, 1, vec![8.0]).unwrap();
        assert_eq!(
            shard.round_record(2).unwrap(),
            RoundRecord { round: 2, quorum: 2, members: 0b11 }
        );
        // Readmitting a live member never slides its boundary.
        assert_eq!(shard.readmit_at(1, 40), Ok(false));
        assert!(shard.is_member(1));
    }

    #[test]
    fn evicting_the_last_member_is_quorum_lost() {
        let shard = RefShard::new(vec![0.0; 2], 2);
        shard.evict(0).unwrap();
        assert_eq!(shard.evict(1), Err(Error::QuorumLost { live: 1, round: 0 }));
        // The survivor is still a member and can finish the round alone.
        shard.submit_at(0, 1, vec![2.0, 2.0]).unwrap();
        assert_eq!(shard.try_weights_at(1), Some(vec![2.0, 2.0]));
        // Double eviction of an already-dead pipe is a no-op.
        assert_eq!(shard.evict(0), Ok(false));
    }

    #[test]
    fn duplicate_submit_straddling_a_quorum_change_is_not_double_counted() {
        let shard = RefShard::new(vec![0.0; 1], 3);
        assert_eq!(shard.submit_at(0, 0, vec![3.0]), Ok(SubmitOutcome::Applied));
        // Quorum shrinks mid-round; pipe 1's eviction applies round 0 over
        // pipes {0, 2} once pipe 2 reports.
        shard.evict(1).unwrap();
        shard.submit_at(0, 2, vec![5.0]).unwrap();
        assert_eq!(shard.version(), 1);
        assert_eq!(shard.snapshot(), vec![4.0]);
        // Pipe 0's retransmission of its round-0 submit — sent before it
        // learned the quorum changed — must be a duplicate, not a new
        // contribution under the new 1/k.
        assert_eq!(shard.submit_at(0, 0, vec![3.0]), Ok(SubmitOutcome::Duplicate));
        assert_eq!(shard.snapshot(), vec![4.0]);
    }

    #[test]
    fn rejoin_is_required_only_from_the_next_round_boundary() {
        let shard = RefShard::new(vec![0.0; 1], 2);
        shard.submit_at(0, 0, vec![2.0]).unwrap();
        shard.evict(1).unwrap(); // round 0 applies with k=1
        assert_eq!(shard.version(), 1);
        assert_eq!(shard.readmit(1), Ok(true));
        assert!(shard.is_member(1));
        // Round 1 (version 1) must NOT wait for the rejoiner: pipe 0 alone
        // completes it...
        shard.submit_at(1, 0, vec![4.0]).unwrap();
        assert_eq!(shard.version(), 2);
        assert_eq!(shard.round_record(1).unwrap().quorum, 1);
        // ...but round 2 requires both again.
        shard.submit_at(2, 0, vec![1.0]).unwrap();
        assert_eq!(shard.version(), 2, "round 2 must wait for the rejoiner");
        shard.submit_at(2, 1, vec![3.0]).unwrap();
        assert_eq!(shard.version(), 3);
        assert_eq!(
            shard.round_record(2).unwrap(),
            RoundRecord { round: 2, quorum: 2, members: 0b11 }
        );
        // Readmitting a live member is a no-op.
        assert_eq!(shard.readmit(1), Ok(false));
    }

    #[test]
    fn weights_at_least_wakes_on_a_degraded_version_bump() {
        let shard = Arc::new(RefShard::new(vec![0.0; 1], 2));
        shard.submit_at(0, 0, vec![8.0]).unwrap();
        let waiter = {
            let shard = Arc::clone(&shard);
            std::thread::spawn(move || shard.weights_at_least(1))
        };
        // Give the waiter time to block on version 0 → 1.
        std::thread::sleep(std::time::Duration::from_millis(30));
        shard.evict(1).unwrap(); // degraded apply bumps the version
        let (v, w) = waiter.join().unwrap();
        assert_eq!(v, 1);
        assert_eq!(w, vec![8.0]);
    }

    #[test]
    fn with_version_resumes_at_the_recorded_round() {
        let shard = RefShard::with_version(vec![7.0; 2], 2, 5);
        assert_eq!(shard.version(), 5);
        assert_eq!(shard.versioned_snapshot(), (5, vec![7.0, 7.0]));
        shard.submit_at(5, 0, vec![1.0, 1.0]).unwrap();
        shard.submit_at(5, 1, vec![3.0, 3.0]).unwrap();
        assert_eq!(shard.try_weights_at(6), Some(vec![9.0, 9.0]));
    }

    #[test]
    fn deferred_heartbeats_advance_a_stale_restored_shard_with_empty_rounds() {
        // A server restored from a checkpoint 3 rounds behind the fleet:
        // version 5, workers report round 8 — rounds 5..8 died with the
        // previous incarnation and will never be resubmitted.
        let shard = RefShard::with_version(vec![7.0; 2], 2, 5);
        shard.defer_until(0, 8);
        assert_eq!(shard.version(), 5, "one live pipe still owes round 5");
        shard.defer_until(1, 8);
        // Zero required members left for 5, 6, 7: all complete empty.
        assert_eq!(shard.version(), 8);
        assert_eq!(shard.versioned_snapshot(), (8, vec![7.0, 7.0]), "empty rounds change nothing");
        for r in 5..8 {
            assert_eq!(
                shard.round_record(r).unwrap(),
                RoundRecord { round: r, quorum: 0, members: 0 }
            );
        }
        // From the deferred boundary on, normal training resumes.
        shard.submit_at(8, 0, vec![1.0, 1.0]).unwrap();
        shard.submit_at(8, 1, vec![3.0, 3.0]).unwrap();
        assert_eq!(shard.try_weights_at(9), Some(vec![9.0, 9.0]));
    }

    #[test]
    fn defer_until_never_rewinds_and_ignores_pipes_with_pending_work() {
        let shard = RefShard::new(vec![0.0; 1], 2);
        shard.submit_at(0, 0, vec![2.0]).unwrap();
        // Pipe 0 already submitted round 0: a (reordered) heartbeat
        // claiming it is ahead must not un-require it.
        shard.defer_until(0, 3);
        assert_eq!(shard.version(), 0);
        shard.submit_at(0, 1, vec![4.0]).unwrap();
        assert_eq!(shard.try_weights_at(1), Some(vec![3.0]));
        // A stale heartbeat (round ≤ version) is a no-op.
        shard.defer_until(0, 1);
        shard.defer_until(1, 0);
        assert_eq!(shard.version(), 1);
        shard.submit_at(1, 0, vec![1.0]).unwrap();
        shard.submit_at(1, 1, vec![1.0]).unwrap();
        assert_eq!(shard.try_weights_at(2), Some(vec![4.0]));
    }

    #[test]
    fn local_channel_matches_direct_shard_access() {
        let seed = 61;
        let task = SyntheticTask::copy_translate(16, 4, 44);
        let n = 2;
        // Trainer built through the explicit LocalShards channel.
        let (stages, opts) = replicas(n, seed);
        let k = stages[0].len();
        let shards: Vec<Arc<RefShard>> =
            (0..k).map(|s| Arc::new(RefShard::new(stages[0][s].params_flat(), n))).collect();
        let eval = gnmt_analogue(CFG, &mut TensorRng::seed_from_u64(seed));
        let mut via_channel = ElasticTrainer::with_channel(
            stages,
            opts,
            2,
            None,
            eval,
            Arc::new(LocalShards::new(shards)),
        );
        // Default-constructed trainer.
        let (stages2, opts2) = replicas(n, seed);
        let eval2 = gnmt_analogue(CFG, &mut TensorRng::seed_from_u64(seed));
        let mut direct = ElasticTrainer::new(stages2, opts2, 2, None, eval2);
        for r in 0..3 {
            let batches: Vec<_> = (0..n as u64).map(|i| task.batch(4, r * 2 + i)).collect();
            let a = via_channel.round(&batches);
            let b = direct.round(&batches);
            assert_eq!(a, b, "round {r}");
        }
        for s in 0..k {
            assert_eq!(via_channel.reference(s), direct.reference(s), "stage {s}");
        }
    }
}
