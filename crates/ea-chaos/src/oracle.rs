//! Invariant oracles, evaluated after every simulated event.
//!
//! The oracle observes two things it can trust absolutely: the deltas the
//! network *delivered* to each server (decoded with the production codec
//! at the delivery site), and each server's shard state after every
//! mutation. From those it re-derives what the protocol is supposed to
//! compute and compares bitwise:
//!
//! * **Version monotonicity** — a shard's version never decreases within
//!   a server incarnation (a restart may legally regress to a stale
//!   checkpoint; that starts a new incarnation).
//! * **Quorum renormalization** — every applied round's weights must
//!   equal the previous weights plus each member's delta times `1/k`,
//!   folded in pipeline order, bit for bit. Empty (healed) rounds must
//!   not move the weights at all.
//! * **No mixed-version reads** — every weight-bearing reply must hash to
//!   exactly the recorded weights of the version it claims, so a reader
//!   can never observe a torn mid-apply state.
//! * **Idempotent submits** — a `(shard, round, pipe)` key is applied at
//!   most once per membership epoch; retransmissions must come back
//!   `duplicate` without a second fold.
//! * **Checkpoint consistency** — a captured checkpoint must hash to the
//!   weights history at its round, and a restore must come back at
//!   exactly the state the checkpoint recorded.
//! * **Error-feedback conservation** — a lossy worker's rounded deltas
//!   must be codec-idempotent (the server decodes exactly what the
//!   worker accounted for) with finite bounded residuals.
//! * **Resource bounds** — parked pulls ≤ open connections × owned
//!   shards, and neither they nor subscriptions name a closed connection.
//! * **Subscriptions** — pushed versions strictly increase per
//!   `(connection, shard)` (a snapshot reply may repeat one), and a
//!   subscriber never holds a pipeline id, hence no lease and no quorum.
//!
//! A violation records a message; the run stops and reports it together
//! with the seed and event log.

use crate::sched::SimTime;
use crate::Addr;
use ea_runtime::{ConnKey, ShardServerCore};
use std::collections::BTreeMap;

/// FNV-1a over the f32 bit patterns: bitwise weight fingerprints.
pub fn weights_hash(w: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in w {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

struct ShardView {
    inc: u64,
    version: u64,
    weights: Vec<f32>,
}

/// (server, incarnation, local shard, round, pipe) — the key for one
/// accepted delta submission.
type DeltaKey = (usize, u64, usize, u64, usize);

#[derive(Default)]
pub struct Oracle {
    /// Last audited state per (server, local shard).
    seen: BTreeMap<(usize, usize), ShardView>,
    /// Weights fingerprint per (server, incarnation, local shard,
    /// version) — the append-only history replies are checked against.
    history: BTreeMap<(usize, u64, usize, u64), u64>,
    /// Delta each server accepted (`Ack.duplicate == false`). The value
    /// also remembers the pipe's eviction epoch at accept time, to tell a
    /// legitimate re-accept after eviction from a double-apply.
    deltas: BTreeMap<DeltaKey, (u64, Vec<f32>)>,
    /// Evictions per (server, incarnation, pipe).
    evictions: BTreeMap<(usize, u64, usize), u64>,
    /// Last version sent per (server, incarnation, connection, local
    /// shard) subscription.
    pushed: BTreeMap<(usize, u64, ConnKey, usize), u64>,
    parked_peak: usize,
    violations: Vec<String>,
}

impl Oracle {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    fn fail(&mut self, now: SimTime, msg: String) {
        self.violations.push(format!("[t={}us] {msg}", now / 1_000));
    }

    /// Registers a (re)started server: seeds the weights history at its
    /// starting state and rebases the audit view.
    pub fn server_started(
        &mut self,
        now: SimTime,
        server: usize,
        inc: u64,
        core: &ShardServerCore,
    ) {
        for (i, sh) in core.shards().iter().enumerate() {
            let (version, weights) = sh.versioned_snapshot();
            self.history.insert((server, inc, i, version), weights_hash(&weights));
            self.seen.insert((server, i), ShardView { inc, version, weights });
        }
        let _ = now;
    }

    /// A server was restored from a checkpoint captured by incarnation
    /// `from_inc`: its starting weights must be exactly what that
    /// incarnation had at the checkpoint's round.
    pub fn check_restore(
        &mut self,
        now: SimTime,
        server: usize,
        from_inc: u64,
        ckpt: &ea_runtime::RefCheckpoint,
    ) {
        for (i, w) in ckpt.shards.iter().enumerate() {
            let got = weights_hash(w);
            match self.history.get(&(server, from_inc, i, ckpt.round)) {
                Some(&want) if want == got => {}
                Some(&want) => self.fail(
                    now,
                    format!(
                        "restore mismatch: server {server} shard {i} round {} restored \
                         {got:#018x}, incarnation {from_inc} recorded {want:#018x}",
                        ckpt.round
                    ),
                ),
                None => self.fail(
                    now,
                    format!(
                        "restore from unrecorded state: server {server} shard {i} round {} \
                         has no history for incarnation {from_inc}",
                        ckpt.round
                    ),
                ),
            }
        }
    }

    /// A checkpoint was captured: it must agree with the live history.
    pub fn check_capture(
        &mut self,
        now: SimTime,
        server: usize,
        inc: u64,
        ckpt: &ea_runtime::RefCheckpoint,
    ) {
        for (i, w) in ckpt.shards.iter().enumerate() {
            match self.history.get(&(server, inc, i, ckpt.round)) {
                Some(&want) if want == weights_hash(w) => {}
                _ => self.fail(
                    now,
                    format!(
                        "torn checkpoint: server {server} shard {i} capture at round {} does \
                         not match live history",
                        ckpt.round
                    ),
                ),
            }
        }
    }

    /// Records pipes evicted by a reap pass.
    pub fn note_evictions(&mut self, server: usize, inc: u64, pipes: &[usize]) {
        for &p in pipes {
            *self.evictions.entry((server, inc, p)).or_insert(0) += 1;
        }
    }

    /// Records a delta the server accepted (first, non-duplicate ack).
    /// An accept that lands on a key already accepted in the same
    /// membership epoch is a double-apply.
    #[allow(clippy::too_many_arguments)]
    pub fn note_accepted_delta(
        &mut self,
        now: SimTime,
        server: usize,
        inc: u64,
        shard: usize,
        round: u64,
        pipe: usize,
        delta: Vec<f32>,
    ) {
        let epoch = self.evictions.get(&(server, inc, pipe)).copied().unwrap_or(0);
        let key = (server, inc, shard, round, pipe);
        if let Some((prev_epoch, _)) = self.deltas.get(&key) {
            if *prev_epoch == epoch {
                self.fail(
                    now,
                    format!(
                        "double apply: server {server} shard {shard} round {round} pipe {pipe} \
                         accepted twice in one membership epoch"
                    ),
                );
            }
        }
        self.deltas.insert(key, (epoch, delta));
    }

    /// Audits a server after any state mutation: detects version bumps,
    /// replays each newly completed round from the recorded deltas, and
    /// compares the resulting weights bit for bit.
    pub fn check_server(
        &mut self,
        now: SimTime,
        server: usize,
        inc: u64,
        core: &ShardServerCore,
        n_pipelines: usize,
    ) {
        for (i, sh) in core.shards().iter().enumerate() {
            let (version, actual) = sh.versioned_snapshot();
            // Take the view out of the map so `self.fail` stays callable
            // while we hold it; it is re-inserted on every path below.
            let Some(mut view) = self.seen.remove(&(server, i)) else {
                self.fail(now, format!("server {server} shard {i} audited before start"));
                continue;
            };
            if view.inc != inc {
                self.fail(
                    now,
                    format!(
                        "server {server} shard {i} audited under incarnation {inc}, view has \
                         {} (missing server_started?)",
                        view.inc
                    ),
                );
                self.seen.insert((server, i), view);
                continue;
            }
            if version < view.version {
                self.fail(
                    now,
                    format!(
                        "version regression: server {server} shard {i} went {} -> {version} \
                         within incarnation {inc}",
                        view.version
                    ),
                );
                self.seen.insert((server, i), view);
                continue;
            }
            if version == view.version {
                self.seen.insert((server, i), view);
                continue;
            }
            // Replay every newly completed round over the last audited
            // weights.
            let mut expected = std::mem::take(&mut view.weights);
            let from = view.version;
            let mut broken = false;
            for r in from..version {
                let Some(rec) = sh.round_record(r) else {
                    self.fail(
                        now,
                        format!("server {server} shard {i} round {r} completed with no record"),
                    );
                    broken = true;
                    break;
                };
                if rec.quorum > 0 {
                    let k = rec.quorum as usize;
                    let inv = 1.0 / k as f32;
                    let mut folded = 0usize;
                    for pipe in 0..n_pipelines {
                        if pipe < 64 && rec.members & (1 << pipe) != 0 {
                            let Some((_, delta)) = self.deltas.get(&(server, inc, i, r, pipe))
                            else {
                                self.fail(
                                    now,
                                    format!(
                                        "server {server} shard {i} round {r} folded pipe \
                                         {pipe} but the oracle never saw its delta accepted"
                                    ),
                                );
                                broken = true;
                                break;
                            };
                            for (w, d) in expected.iter_mut().zip(delta) {
                                *w += d * inv;
                            }
                            folded += 1;
                        }
                    }
                    if broken {
                        break;
                    }
                    if folded != k {
                        self.fail(
                            now,
                            format!(
                                "server {server} shard {i} round {r} record says quorum {k} \
                                 but members mask has {folded} bits"
                            ),
                        );
                        broken = true;
                        break;
                    }
                }
                self.history.insert((server, inc, i, r + 1), weights_hash(&expected));
            }
            if !broken && weights_hash(&expected) != weights_hash(&actual) {
                self.fail(
                    now,
                    format!(
                        "quorum arithmetic mismatch: server {server} shard {i} rounds \
                         {from}..{version} replay disagrees with live weights"
                    ),
                );
            }
            view.version = version;
            view.weights = actual;
            self.seen.insert((server, i), view);
        }
    }

    /// A weight-bearing reply left a server: the weights must be exactly
    /// the recorded state of the version they claim — never a torn blend.
    pub fn check_weights_reply(
        &mut self,
        now: SimTime,
        server: usize,
        inc: u64,
        shard: usize,
        version: u64,
        weights: &[f32],
    ) {
        match self.history.get(&(server, inc, shard, version)) {
            Some(&want) if want == weights_hash(weights) => {}
            Some(_) => self.fail(
                now,
                format!(
                    "mixed-version read: server {server} shard {shard} replied weights for \
                     version {version} that do not match that version's recorded state"
                ),
            ),
            None => self.fail(
                now,
                format!(
                    "unrecorded read: server {server} shard {shard} replied version {version} \
                     which the oracle never saw complete"
                ),
            ),
        }
    }

    /// Most pulls any one server held parked at once.
    pub fn parked_peak(&self) -> usize {
        self.parked_peak
    }

    /// Audits the per-connection state of a live server against
    /// `latest_gen`, the newest connection generation the server has seen
    /// from each peer — every older one is a closed socket.
    pub fn check_resources(
        &mut self,
        now: SimTime,
        server: usize,
        core: &ShardServerCore,
        latest_gen: &BTreeMap<Addr, u64>,
    ) {
        let open: BTreeMap<ConnKey, Option<usize>> = core.conns().collect();
        let name = |c: ConnKey| format!("{:?} gen {}", Addr::of_conn(c), c.id);
        let (parked, shards) = (core.parked().len(), core.shards().len());
        self.parked_peak = self.parked_peak.max(parked);
        let mut broken = Vec::new();
        if parked > open.len() * shards {
            broken.push(format!(
                "{parked} parked pulls over {} open connections x {shards} shards",
                open.len()
            ));
        }
        for (&conn, &pipe) in &open {
            let peer = Addr::of_conn(conn);
            if latest_gen.get(&peer) != Some(&conn.id) {
                broken.push(format!("keeps state for closed connection {}", name(conn)));
            }
            if matches!(peer, Addr::Subscriber(_)) && pipe.is_some() {
                broken.push(format!("{peer:?} holds pipeline id {pipe:?} and with it a lease"));
            }
        }
        let waiting = core.parked().map(|(conn, ..)| conn).chain(core.subscriptions().map(|s| s.0));
        for conn in waiting.filter(|conn| !open.contains_key(conn)) {
            broken.push(format!("a parked pull or subscription names closed {}", name(conn)));
        }
        for what in broken {
            self.fail(now, format!("resource bound: server {server} {what}"));
        }
    }

    /// A `WeightsUpdate` left a server on a subscription: versions must
    /// strictly increase per (connection, shard), except that the direct
    /// reply to a (re)subscription may repeat the last one sent.
    #[allow(clippy::too_many_arguments)]
    pub fn check_push_order(
        &mut self,
        now: SimTime,
        server: usize,
        inc: u64,
        conn: ConnKey,
        shard: usize,
        version: u64,
        snapshot: bool,
    ) {
        let last = self.pushed.insert((server, inc, conn, shard), version);
        if last.is_some_and(|last| version < last || (version == last && !snapshot)) {
            self.fail(
                now,
                format!(
                    "push order: server {server} shard {shard} sent version {version} after \
                     {last:?} on one subscription"
                ),
            );
        }
    }

    /// Worker-side error-feedback checks on a rounded delta about to be
    /// shipped under a lossy codec.
    pub fn check_feedback(
        &mut self,
        now: SimTime,
        worker: usize,
        codec: ea_optim::Codec,
        rounded: &[f32],
        residual_l1: f64,
    ) {
        if rounded.iter().any(|v| !v.is_finite()) {
            self.fail(now, format!("worker {worker}: non-finite rounded delta under {codec:?}"));
            return;
        }
        if !residual_l1.is_finite() || residual_l1 > 1e6 {
            self.fail(
                now,
                format!("worker {worker}: feedback residual diverged (l1={residual_l1:e})"),
            );
        }
        // Codec idempotence: what the server decodes must be bitwise what
        // the worker accounted for in its residual.
        let mut buf = Vec::new();
        codec.encode(rounded, &mut buf);
        match codec.decode(rounded.len(), &buf) {
            Ok(redecoded) => {
                let same = redecoded.iter().zip(rounded).all(|(a, b)| a.to_bits() == b.to_bits());
                if !same {
                    self.fail(
                        now,
                        format!(
                            "worker {worker}: {codec:?} is not idempotent on its own rounded \
                             output — error feedback accounts for the wrong server-side value"
                        ),
                    );
                }
            }
            Err(e) => self.fail(
                now,
                format!("worker {worker}: re-decode of own {codec:?} encoding failed: {e}"),
            ),
        }
    }

    /// The run ended (horizon reached) with workers short of their target.
    pub fn fail_liveness(&mut self, now: SimTime, detail: String) {
        self.fail(now, format!("liveness: {detail}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_hash_is_bitwise() {
        let a = [1.0f32, -0.0, 3.5];
        let b = [1.0f32, 0.0, 3.5]; // -0.0 vs 0.0 differ bitwise
        assert_ne!(weights_hash(&a), weights_hash(&b));
        assert_eq!(weights_hash(&a), weights_hash(&[1.0, -0.0, 3.5]));
    }

    #[test]
    fn double_apply_in_same_epoch_is_flagged() {
        let mut o = Oracle::new();
        o.note_accepted_delta(0, 0, 1, 0, 5, 2, vec![1.0]);
        assert!(o.ok());
        // Eviction opens a new epoch: a re-accept is legitimate.
        o.note_evictions(0, 1, &[2]);
        o.note_accepted_delta(1, 0, 1, 0, 5, 2, vec![1.5]);
        assert!(o.ok());
        // Same epoch, same key again: double apply.
        o.note_accepted_delta(2, 0, 1, 0, 5, 2, vec![2.0]);
        assert!(!o.ok());
    }

    #[test]
    fn feedback_oracle_accepts_idempotent_codecs() {
        let mut o = Oracle::new();
        for codec in [ea_optim::Codec::F32, ea_optim::Codec::F16] {
            // A value already rounded through the codec must survive.
            let mut buf = Vec::new();
            let orig = vec![0.125f32, -3.0, 0.5];
            codec.encode(&orig, &mut buf);
            let rounded = codec.decode(orig.len(), &buf).unwrap();
            o.check_feedback(0, 0, codec, &rounded, 0.0);
        }
        assert!(o.ok(), "{:?}", o.violations());
    }
}
