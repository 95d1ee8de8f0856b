//! The simulated actors: shard servers, elastic workers and read-only
//! weight subscribers.
//!
//! The server actor is a thin message pump around the **production**
//! [`ShardServerCore`] — the same `on_message`/`on_disconnect`/
//! `reap_tick`/`flush` the reactor adapter calls, so lease accounting,
//! idempotent submits, quorum application, parked pulls, subscription
//! pushes and checkpoint capture all run the real code on virtual time.
//! The worker actor mirrors `ElasticWorker` + `SupervisedWorker` as an
//! explicit state machine (connect → resync → pull → submit → …) driving
//! the real wire messages and the real [`ErrorFeedback`], with synthetic
//! deterministic deltas in place of actual training.
//!
//! Crash/restart is modeled at process granularity: a crash drops all
//! in-memory state (the simulated "disk" keeps the last checkpoint), and
//! connection generations make sure messages from a previous life are
//! never mistaken for current traffic — exactly the job TCP connection
//! teardown does in the real deployment.

use crate::faults::RestartMode;
use crate::sched::hash_f32;
use crate::sched::SimTime;
use crate::sim::{SimConfig, SimCtx};
use crate::{Addr, Event, STimer, WTimer};
use ea_comms::Message;
use ea_optim::Codec;
use ea_runtime::{ConnKey, ErrorFeedback, RefCheckpoint, RefShard, ShardServerCore};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Deterministic initial weights for global shard `s`.
pub fn initial_weights(cfg: &SimConfig, s: usize) -> Vec<f32> {
    (0..cfg.shard_len).map(|i| hash_f32(&[0xBEEF, s as u64, i as u64])).collect()
}

/// Deterministic synthetic local update for (pipe, round, shard).
fn synthetic_delta(cfg: &SimConfig, pipe: usize, round: u64, shard: usize) -> Vec<f32> {
    (0..cfg.shard_len)
        .map(|i| hash_f32(&[pipe as u64 + 1, round, shard as u64, i as u64]))
        .collect()
}

// ---------------------------------------------------------------------
// Server actor
// ---------------------------------------------------------------------

pub struct ServerActor {
    id: usize,
    /// Incarnation: bumped on crash *and* on restart, so stale timer
    /// chains from a previous life never fire into the new one.
    inc: u64,
    /// `None` while crashed. All per-connection protocol state lives in
    /// here; the actor only decides which generations are still open.
    core: Option<ShardServerCore>,
    /// Highest generation seen per peer; lower generations are closed
    /// sockets and their traffic is dropped.
    latest_gen: BTreeMap<Addr, u64>,
    /// The simulated disk: survives crashes. Holds the checkpoint *file
    /// bytes*, so a restore goes through the real decoder, tagged with
    /// the incarnation that captured them so the restore oracle can
    /// compare histories.
    disk: Option<(u64, Vec<u8>)>,
}

impl ServerActor {
    pub fn new(id: usize) -> Self {
        ServerActor { id, inc: 0, core: None, latest_gen: BTreeMap::new(), disk: None }
    }

    pub fn core(&self) -> Option<&ShardServerCore> {
        self.core.as_ref()
    }

    fn fresh_core(&self, cfg: &SimConfig) -> ShardServerCore {
        let base = self.id * cfg.shards_per_server;
        let shards = (0..cfg.shards_per_server)
            .map(|j| Arc::new(RefShard::new(initial_weights(cfg, base + j), cfg.n_workers)))
            .collect();
        ShardServerCore::new(
            shards,
            cfg.n_workers,
            (base, cfg.n_shards()),
            Duration::from_nanos(cfg.lease_ns),
        )
    }

    /// Boots the server at sim start.
    pub fn start(&mut self, ctx: &mut SimCtx) {
        self.inc += 1;
        let core = self.fresh_core(ctx.cfg);
        ctx.oracle.server_started(ctx.now, self.id, self.inc, &core);
        self.core = Some(core);
        self.schedule_timers(ctx);
        ctx.logf(format!("server {} up (inc {})", self.id, self.inc));
    }

    fn schedule_timers(&self, ctx: &mut SimCtx) {
        let (id, inc) = (self.id, self.inc);
        ctx.at(ctx.cfg.reap_ns, Event::ServerTimer { server: id, inc, kind: STimer::Reap });
        ctx.at(
            ctx.cfg.checkpoint_ns,
            Event::ServerTimer { server: id, inc, kind: STimer::Checkpoint },
        );
    }

    pub fn crash(&mut self, ctx: &mut SimCtx) {
        let Some(core) = self.core.take() else { return };
        self.inc += 1; // kill timer chains
        for (conn, _) in core.conns() {
            ctx.conn_closed(Addr::of_conn(conn), Addr::Server(self.id), conn.id);
        }
        ctx.logf(format!("server {} CRASH", self.id));
    }

    pub fn restart(&mut self, ctx: &mut SimCtx, mode: RestartMode) {
        if self.core.is_some() {
            return;
        }
        self.inc += 1;
        let core = match (mode, &self.disk) {
            (RestartMode::FromCheckpoint, Some((from_inc, file))) => {
                let ck = &RefCheckpoint::decode(file).expect("the simulated disk never corrupts");
                let core = ShardServerCore::from_checkpoint(
                    ck,
                    ctx.cfg.n_workers,
                    Duration::from_nanos(ctx.cfg.lease_ns),
                );
                ctx.oracle.check_restore(ctx.now, self.id, *from_inc, ck);
                ctx.logf(format!(
                    "server {} RESTART from checkpoint round {} (inc {})",
                    self.id, ck.round, self.inc
                ));
                core
            }
            _ => {
                ctx.logf(format!("server {} RESTART fresh (inc {})", self.id, self.inc));
                self.fresh_core(ctx.cfg)
            }
        };
        ctx.oracle.server_started(ctx.now, self.id, self.inc, &core);
        self.core = Some(core);
        self.schedule_timers(ctx);
    }

    pub fn on_timer(&mut self, ctx: &mut SimCtx, inc: u64, kind: STimer) {
        if inc != self.inc {
            return;
        }
        let Some(core) = self.core.as_mut() else { return };
        match kind {
            STimer::Reap => {
                let evicted = core.reap_tick();
                if !evicted.is_empty() {
                    ctx.oracle.note_evictions(self.id, self.inc, &evicted);
                    ctx.logf(format!("server {} evicted pipes {evicted:?}", self.id));
                }
                // An eviction may have completed a stalled round degraded.
                let mut out = Vec::new();
                core.flush(&mut out);
                self.audit_and_send(ctx, None, false, out);
                ctx.at(ctx.cfg.reap_ns, Event::ServerTimer { server: self.id, inc, kind });
            }
            STimer::Checkpoint => {
                if let Some(ck) = core.capture_checkpoint() {
                    ctx.oracle.check_capture(ctx.now, self.id, self.inc, &ck);
                    ctx.logf(format!("server {} checkpoint at round {}", self.id, ck.round));
                    let file = ck.encode().expect("simulated shards fit one frame");
                    self.disk = Some((self.inc, file));
                }
                ctx.at(ctx.cfg.checkpoint_ns, Event::ServerTimer { server: self.id, inc, kind });
            }
        }
    }

    pub fn on_conn_closed(&mut self, ctx: &mut SimCtx, peer: Addr, gen: u64) {
        let Some(core) = self.core.as_mut() else { return };
        core.on_disconnect(peer.conn_key(gen));
        self.audit_and_send(ctx, None, false, Vec::new());
    }

    pub fn on_deliver(&mut self, ctx: &mut SimCtx, peer: Addr, gen: u64, msg: Message) {
        let Some(core) = self.core.as_mut() else {
            // Connection refused: the host is down, the OS answers with a
            // reset.
            ctx.conn_closed(peer, Addr::Server(self.id), gen);
            return;
        };
        let newest = self.latest_gen.get(&peer).copied().unwrap_or(0);
        if gen < newest {
            return; // closed socket, silently gone
        }
        if gen > newest {
            // The peer reconnected: its older sockets are gone.
            self.latest_gen.insert(peer, gen);
            let stale: Vec<ConnKey> = core
                .conns()
                .map(|(conn, _)| conn)
                .filter(|&conn| Addr::of_conn(conn) == peer && conn.id < gen)
                .collect();
            for conn in stale {
                core.on_disconnect(conn);
            }
        }

        // Decode a submission's payload the same way the server will, so
        // the oracle knows bitwise what the shard is being fed.
        let submitted: Option<Vec<f32>> = match &msg {
            Message::SubmitDelta { delta, .. } => Some(delta.clone()),
            Message::SubmitDeltaC { codec, n, blob, .. } => codec.decode(*n as usize, blob).ok(),
            _ => None,
        };
        let snapshot = matches!(msg, Message::SubscribeWeights { .. });

        let mut out = Vec::new();
        let served = core.on_message(peer.conn_key(gen), msg, &mut out);
        self.audit_and_send(ctx, submitted, snapshot, out);
        if let Err(e) = served {
            // Protocol violation: the core scrubbed the connection and
            // left shard state untouched; the driver's part is the close.
            ctx.logf(format!("server {} dropped conn to {peer:?} (gen {gen}): {e}", self.id));
            ctx.conn_closed(peer, Addr::Server(self.id), gen);
        }
    }

    /// Runs the oracles over the server's state and over every reply the
    /// core emitted — whichever connection it is addressed to — then puts
    /// the replies on the wire. `submitted` is the decoded delta of the
    /// message just served, if it was a submission; `snapshot` says the
    /// message was a `SubscribeWeights`, whose reply may repeat a version.
    fn audit_and_send(
        &self,
        ctx: &mut SimCtx,
        submitted: Option<Vec<f32>>,
        snapshot: bool,
        out: Vec<(ConnKey, Message)>,
    ) {
        let core = self.core.as_ref().expect("audited while up");
        let base = self.id * ctx.cfg.shards_per_server;
        // The accepted delta must be on record before the replay audit.
        if let (Some((_, Message::Ack { shard, round, pipe, duplicate: false })), Some(delta)) =
            (out.first(), submitted)
        {
            let (local, pipe) = (*shard as usize - base, *pipe as usize);
            ctx.oracle.note_accepted_delta(ctx.now, self.id, self.inc, local, *round, pipe, delta);
        }
        ctx.oracle.check_server(ctx.now, self.id, self.inc, core, ctx.cfg.n_workers);
        ctx.oracle.check_resources(ctx.now, self.id, core, &self.latest_gen);
        for (i, (conn, reply)) in out.into_iter().enumerate() {
            match &reply {
                Message::PullReply { shard, version, weights }
                | Message::WeightsUpdate { shard, version, weights } => {
                    let local = *shard as usize - base;
                    ctx.oracle
                        .check_weights_reply(ctx.now, self.id, self.inc, local, *version, weights);
                    if matches!(reply, Message::WeightsUpdate { .. }) {
                        // Only the direct reply to a (re)subscription may repeat.
                        let repeat_ok = snapshot && i == 0;
                        ctx.oracle.check_push_order(
                            ctx.now, self.id, self.inc, conn, local, *version, repeat_ok,
                        );
                    }
                }
                _ => {}
            }
            ctx.send(Addr::Server(self.id), Addr::of_conn(conn), conn.id, reply);
        }
    }
}

// ---------------------------------------------------------------------
// Worker actor
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Waiting out the reconnect backoff.
    Backoff,
    /// `Hello` sent to every server, collecting `HelloAck`s.
    Connect,
    /// Latest-snapshot pulls in flight (`version == u64::MAX`).
    Resync,
    /// Pulling every shard at exactly `round`.
    Pull,
    /// Submissions in flight, collecting `Ack`s.
    Submit,
}

pub struct WorkerActor {
    pipe: usize,
    codec: Codec,
    inc: u64,
    /// Connection generation, shared across this worker's connections to
    /// every server (the supervisor reconnects them as a set).
    gen: u64,
    alive: bool,
    done: bool,
    phase: Phase,
    round: u64,
    feedback: ErrorFeedback,
    hello_ok: Vec<bool>,
    resync_version: Vec<Option<u64>>,
    pulled: Vec<bool>,
    submits: Vec<Option<Message>>,
    acked: Vec<bool>,
}

impl WorkerActor {
    pub fn new(cfg: &SimConfig, pipe: usize) -> Self {
        let n_shards = cfg.n_shards();
        WorkerActor {
            pipe,
            codec: cfg.codec_of(pipe),
            inc: 0,
            gen: 0,
            alive: false,
            done: false,
            phase: Phase::Backoff,
            round: 0,
            feedback: ErrorFeedback::new(cfg.codec_of(pipe), n_shards),
            hello_ok: vec![false; cfg.n_servers],
            resync_version: vec![None; n_shards],
            pulled: vec![false; n_shards],
            submits: vec![None; n_shards],
            acked: vec![false; n_shards],
        }
    }

    pub fn done(&self) -> bool {
        self.done
    }

    pub fn rounds(&self) -> u64 {
        self.round
    }

    pub fn start(&mut self, ctx: &mut SimCtx) {
        self.inc += 1;
        self.alive = true;
        self.schedule_timers(ctx);
        self.begin_connect(ctx);
    }

    pub fn crash(&mut self, ctx: &mut SimCtx) {
        if !self.alive {
            return;
        }
        self.alive = false;
        self.inc += 1; // kill timer chains
                       // The OS tears the sockets down behind the dead process.
        for k in 0..self.hello_ok.len() {
            ctx.conn_closed(Addr::Server(k), Addr::Worker(self.pipe), self.gen);
        }
        ctx.logf(format!("worker {} CRASH at round {}", self.pipe, self.round));
    }

    pub fn restart(&mut self, ctx: &mut SimCtx) {
        if self.alive {
            return;
        }
        self.inc += 1;
        self.alive = true;
        self.done = false;
        self.round = 0;
        self.feedback = ErrorFeedback::new(self.codec, self.resync_version.len());
        ctx.logf(format!("worker {} RESTART (inc {})", self.pipe, self.inc));
        self.schedule_timers(ctx);
        self.begin_connect(ctx);
    }

    fn schedule_timers(&self, ctx: &mut SimCtx) {
        let (w, inc) = (self.pipe, self.inc);
        ctx.at(
            ctx.cfg.retransmit_ns,
            Event::WorkerTimer { worker: w, inc, kind: WTimer::Retransmit },
        );
        ctx.at(
            ctx.cfg.heartbeat_ns,
            Event::WorkerTimer { worker: w, inc, kind: WTimer::Heartbeat },
        );
    }

    fn begin_connect(&mut self, ctx: &mut SimCtx) {
        self.gen += 1;
        self.phase = Phase::Connect;
        self.hello_ok.fill(false);
        for k in 0..self.hello_ok.len() {
            self.send_hello(ctx, k);
        }
    }

    fn send_hello(&self, ctx: &mut SimCtx, server: usize) {
        let msg = Message::Hello {
            proto: ea_comms::PROTO_VERSION as u16,
            pipe: self.pipe as u32,
            codec: self.codec,
        };
        ctx.send(Addr::Worker(self.pipe), Addr::Server(server), self.gen, msg);
    }

    /// Any connection-level surprise: bump the generation, back off,
    /// reconnect everything — the supervisor's recovery path.
    fn reconnect_with_backoff(&mut self, ctx: &mut SimCtx, why: &str) {
        ctx.logf(format!("worker {} reconnecting: {why}", self.pipe));
        self.gen += 1; // retire the old connections immediately
        self.phase = Phase::Backoff;
        ctx.at(
            ctx.cfg.reconnect_backoff_ns,
            Event::WorkerTimer { worker: self.pipe, inc: self.inc, kind: WTimer::Reconnect },
        );
    }

    fn enter_resync(&mut self, ctx: &mut SimCtx) {
        self.phase = Phase::Resync;
        self.resync_version.fill(None);
        for s in 0..self.resync_version.len() {
            self.send_pull(ctx, s, u64::MAX);
        }
    }

    fn finish_resync(&mut self, ctx: &mut SimCtx) {
        let newest = self.resync_version.iter().map(|v| v.unwrap_or(0)).max().unwrap_or(0);
        self.round = newest;
        self.feedback.reset();
        if ctx.cfg.heartbeats_enabled {
            self.send_heartbeats(ctx);
        }
        ctx.logf(format!("worker {} resynced to round {newest}", self.pipe));
        self.enter_pull_or_finish(ctx);
    }

    fn enter_pull_or_finish(&mut self, ctx: &mut SimCtx) {
        if self.round >= ctx.cfg.target_rounds {
            self.done = true;
            ctx.logf(format!("worker {} DONE ({} rounds)", self.pipe, self.round));
            return;
        }
        self.phase = Phase::Pull;
        self.pulled.fill(false);
        for s in 0..self.pulled.len() {
            self.send_pull(ctx, s, self.round);
        }
    }

    fn send_pull(&self, ctx: &mut SimCtx, shard: usize, version: u64) {
        let owner = ctx.cfg.owner(shard);
        let msg = Message::PullRequest { shard: shard as u32, version };
        ctx.send(Addr::Worker(self.pipe), Addr::Server(owner), self.gen, msg);
    }

    fn send_heartbeats(&self, ctx: &mut SimCtx) {
        for k in 0..self.hello_ok.len() {
            let msg = Message::Heartbeat {
                pipe: self.pipe as u32,
                round: self.round,
                t_tx_us: ctx.now / 1_000,
            };
            ctx.send(Addr::Worker(self.pipe), Addr::Server(k), self.gen, msg);
        }
    }

    fn enter_submit(&mut self, ctx: &mut SimCtx) {
        self.phase = Phase::Submit;
        self.acked.fill(false);
        for s in 0..self.submits.len() {
            let raw = synthetic_delta(ctx.cfg, self.pipe, self.round, s);
            let rounded = self.feedback.apply(s, raw);
            if self.codec != Codec::F32 {
                ctx.oracle.check_feedback(
                    ctx.now,
                    self.pipe,
                    self.codec,
                    &rounded,
                    self.feedback.residual_l1(),
                );
            }
            let msg = if self.codec == Codec::F32 {
                Message::SubmitDelta {
                    shard: s as u32,
                    round: self.round,
                    pipe: self.pipe as u32,
                    delta: rounded,
                }
            } else {
                let mut blob = Vec::new();
                self.codec.encode(&rounded, &mut blob);
                Message::SubmitDeltaC {
                    shard: s as u32,
                    round: self.round,
                    pipe: self.pipe as u32,
                    codec: self.codec,
                    n: rounded.len() as u32,
                    blob,
                }
            };
            self.submits[s] = Some(msg.clone());
            let owner = ctx.cfg.owner(s);
            ctx.send(Addr::Worker(self.pipe), Addr::Server(owner), self.gen, msg);
        }
    }

    pub fn on_timer(&mut self, ctx: &mut SimCtx, inc: u64, kind: WTimer) {
        if inc != self.inc || !self.alive {
            return;
        }
        match kind {
            WTimer::Reconnect => {
                if self.phase == Phase::Backoff {
                    self.begin_connect(ctx);
                }
            }
            WTimer::Retransmit => {
                if !self.done {
                    self.retransmit(ctx);
                    ctx.at(
                        ctx.cfg.retransmit_ns,
                        Event::WorkerTimer { worker: self.pipe, inc, kind },
                    );
                }
            }
            WTimer::Heartbeat => {
                if !self.done {
                    if ctx.cfg.heartbeats_enabled && self.phase != Phase::Backoff {
                        self.send_heartbeats(ctx);
                    }
                    ctx.at(
                        ctx.cfg.heartbeat_ns,
                        Event::WorkerTimer { worker: self.pipe, inc, kind },
                    );
                }
            }
        }
    }

    fn retransmit(&mut self, ctx: &mut SimCtx) {
        match self.phase {
            Phase::Backoff => {}
            Phase::Connect => {
                for k in 0..self.hello_ok.len() {
                    if !self.hello_ok[k] {
                        self.send_hello(ctx, k);
                    }
                }
            }
            Phase::Resync => {
                for s in 0..self.resync_version.len() {
                    if self.resync_version[s].is_none() {
                        self.send_pull(ctx, s, u64::MAX);
                    }
                }
            }
            Phase::Pull => {
                for s in 0..self.pulled.len() {
                    if !self.pulled[s] {
                        self.send_pull(ctx, s, self.round);
                    }
                }
            }
            Phase::Submit => {
                for s in 0..self.acked.len() {
                    if !self.acked[s] {
                        if let Some(msg) = self.submits[s].clone() {
                            let owner = ctx.cfg.owner(s);
                            ctx.send(Addr::Worker(self.pipe), Addr::Server(owner), self.gen, msg);
                        }
                    }
                }
            }
        }
    }

    pub fn on_conn_closed(&mut self, ctx: &mut SimCtx, gen: u64) {
        if self.alive && gen == self.gen && self.phase != Phase::Backoff {
            self.reconnect_with_backoff(ctx, "connection closed by server");
        }
    }

    pub fn on_deliver(&mut self, ctx: &mut SimCtx, from_server: usize, gen: u64, msg: Message) {
        if !self.alive || gen != self.gen {
            return;
        }
        match msg {
            Message::HelloAck { shard_base, shard_count, .. } if self.phase == Phase::Connect => {
                debug_assert_eq!(shard_base as usize, from_server * ctx.cfg.shards_per_server);
                debug_assert_eq!(shard_count as usize, ctx.cfg.shards_per_server);
                self.hello_ok[from_server] = true;
                if self.hello_ok.iter().all(|&ok| ok) {
                    self.enter_resync(ctx);
                }
            }
            Message::PullReply { shard, version, .. } => {
                self.on_pull_reply(ctx, shard as usize, version);
            }
            Message::PullReplyC { shard, version, codec, n, blob } => {
                match codec.decode(n as usize, &blob) {
                    Ok(_) => self.on_pull_reply(ctx, shard as usize, version),
                    Err(e) => ctx.oracle.fail_liveness(
                        ctx.now,
                        format!("worker {} got undecodable PullReplyC: {e}", self.pipe),
                    ),
                }
            }
            Message::Ack { shard, round, duplicate, .. }
                if self.phase == Phase::Submit && round == self.round =>
            {
                let s = shard as usize;
                if duplicate && !self.acked[s] {
                    // First ack for this leg arriving as a duplicate means
                    // a previous transmission of ours was recorded; either
                    // way the submission landed.
                    ctx.logf(format!(
                        "worker {} round {round} shard {s} acked via retransmission",
                        self.pipe
                    ));
                }
                self.acked[s] = true;
                if self.acked.iter().all(|&a| a) {
                    self.round += 1;
                    self.submits.fill(None);
                    self.enter_pull_or_finish(ctx);
                }
            }
            Message::HeartbeatAck { .. } => {}
            _ => {}
        }
    }

    fn on_pull_reply(&mut self, ctx: &mut SimCtx, shard: usize, version: u64) {
        match self.phase {
            Phase::Resync if self.resync_version[shard].is_none() => {
                self.resync_version[shard] = Some(version);
                if self.resync_version.iter().all(|v| v.is_some()) {
                    self.finish_resync(ctx);
                }
            }
            Phase::Pull => {
                if version == self.round {
                    self.pulled[shard] = true;
                    if self.pulled.iter().all(|&p| p) {
                        self.enter_submit(ctx);
                    }
                } else if version > self.round {
                    // The quorum moved on without us (eviction during a
                    // partition, or a healed server ahead of our round):
                    // same recovery as the real worker — resync.
                    self.reconnect_with_backoff(
                        ctx,
                        &format!("shard {shard} at version {version}, we expected {}", self.round),
                    );
                }
                // version < round: stale retransmitted reply, ignore.
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Subscriber actor
// ---------------------------------------------------------------------

/// A read-only serving replica: subscribes to every shard of one server
/// and listens for round-boundary pushes. It never says `Hello`, so it
/// holds no lease and belongs to no quorum. It resubscribes on a fresh
/// connection when the server closes the old one (a crash) and when it
/// has heard nothing for a while (its own reconnect).
pub struct SubscriberActor {
    server: usize,
    gen: u64,
    /// Waiting out the reconnect backoff; nothing is sent meanwhile.
    backoff: bool,
    /// Newest version received per local shard on this connection.
    seen: Vec<Option<u64>>,
    last_heard: SimTime,
    pushes: u64,
}

impl SubscriberActor {
    pub fn new(cfg: &SimConfig, server: usize) -> Self {
        SubscriberActor {
            server,
            gen: 0,
            backoff: false,
            seen: vec![None; cfg.shards_per_server],
            last_heard: 0,
            pushes: 0,
        }
    }

    /// Weight-bearing messages received over the whole run.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    fn me(&self) -> Addr {
        Addr::Subscriber(self.server)
    }

    pub fn start(&mut self, ctx: &mut SimCtx) {
        self.connect(ctx);
        self.schedule(ctx, ctx.cfg.retransmit_ns, WTimer::Retransmit);
    }

    fn schedule(&self, ctx: &mut SimCtx, delay: u64, kind: WTimer) {
        ctx.at(delay, Event::SubscriberTimer { sub: self.server, gen: self.gen, kind });
    }

    fn connect(&mut self, ctx: &mut SimCtx) {
        self.gen += 1;
        self.backoff = false;
        self.seen.fill(None);
        self.last_heard = ctx.now;
        self.subscribe_missing(ctx);
    }

    fn subscribe_missing(&self, ctx: &mut SimCtx) {
        let base = self.server * ctx.cfg.shards_per_server;
        for (local, seen) in self.seen.iter().enumerate() {
            if seen.is_none() {
                let msg = Message::SubscribeWeights { shard: (base + local) as u32 };
                ctx.send(self.me(), Addr::Server(self.server), self.gen, msg);
            }
        }
    }

    fn back_off(&mut self, ctx: &mut SimCtx, why: &str) {
        ctx.logf(format!("subscriber {} reconnecting: {why}", self.server));
        self.gen += 1; // retire the old connection immediately
        self.backoff = true;
        self.schedule(ctx, ctx.cfg.reconnect_backoff_ns, WTimer::Reconnect);
    }

    pub fn on_timer(&mut self, ctx: &mut SimCtx, gen: u64, kind: WTimer) {
        match kind {
            WTimer::Reconnect if self.backoff && gen == self.gen => self.connect(ctx),
            WTimer::Retransmit => {
                if !self.backoff {
                    if ctx.now - self.last_heard > 4 * ctx.cfg.retransmit_ns {
                        // Closing our own socket: the server hears about it.
                        ctx.conn_closed(Addr::Server(self.server), self.me(), self.gen);
                        self.back_off(ctx, "silence");
                    } else {
                        self.subscribe_missing(ctx);
                    }
                }
                self.schedule(ctx, ctx.cfg.retransmit_ns, kind);
            }
            _ => {}
        }
    }

    pub fn on_conn_closed(&mut self, ctx: &mut SimCtx, gen: u64) {
        if gen == self.gen && !self.backoff {
            self.back_off(ctx, "connection closed by server");
        }
    }

    pub fn on_deliver(&mut self, ctx: &mut SimCtx, gen: u64, msg: Message) {
        if gen != self.gen {
            return;
        }
        if let Message::WeightsUpdate { shard, version, .. } = msg {
            let local = shard as usize - self.server * ctx.cfg.shards_per_server;
            // The link reorders and duplicates; keep the newest.
            self.seen[local] = self.seen[local].max(Some(version));
            self.last_heard = ctx.now;
            self.pushes += 1;
        }
    }
}
