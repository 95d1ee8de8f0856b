//! The simulation driver: wires actors, network, fault plan, and oracle
//! together under one virtual clock and runs the event loop to completion.

use crate::actors::{ServerActor, SubscriberActor, WorkerActor};
use crate::faults::{FaultKind, FaultPlan};
use crate::net::{NetConfig, NetStats, SimNet};
use crate::oracle::Oracle;
use crate::sched::{EventQueue, SimClock, SimTime};
use crate::{Addr, Event};
use ea_comms::clock;
use ea_comms::Message;
use ea_optim::Codec;
use std::cell::Cell;
use std::rc::Rc;

/// Everything that defines a simulated deployment. A `(SimConfig,
/// FaultPlan)` pair fully determines the run: same inputs, same event
/// log, same final weights, bit for bit.
#[derive(Clone, Debug)]
pub struct SimConfig {
    pub seed: u64,
    pub n_servers: usize,
    pub shards_per_server: usize,
    pub n_workers: usize,
    pub shard_len: usize,
    /// Rounds each worker must complete for the run to count as live.
    pub target_rounds: u64,
    /// Worker `w` speaks `codecs[w % codecs.len()]`.
    pub codecs: Vec<Codec>,
    pub lease_ns: u64,
    pub heartbeat_ns: u64,
    pub retransmit_ns: u64,
    pub reap_ns: u64,
    pub checkpoint_ns: u64,
    pub reconnect_backoff_ns: u64,
    /// The regression knob: with heartbeats off, a server restored from a
    /// stale state has no way to learn the workers' rounds and the
    /// PR 8-class restored-server deadlock comes back.
    pub heartbeats_enabled: bool,
    pub net: NetConfig,
    /// Virtual-time budget; workers short of `target_rounds` here is a
    /// liveness violation.
    pub horizon_ns: SimTime,
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            n_servers: 2,
            shards_per_server: 2,
            n_workers: 3,
            shard_len: 16,
            target_rounds: 10,
            codecs: vec![Codec::F32, Codec::F16, Codec::TopK, Codec::Int8],
            lease_ns: 600_000_000,
            heartbeat_ns: 150_000_000,
            retransmit_ns: 80_000_000,
            reap_ns: 100_000_000,
            checkpoint_ns: 450_000_000,
            reconnect_backoff_ns: 120_000_000,
            heartbeats_enabled: true,
            net: NetConfig::default(),
            horizon_ns: 60_000_000_000,
            max_events: 2_000_000,
        }
    }
}

impl SimConfig {
    pub fn n_shards(&self) -> usize {
        self.n_servers * self.shards_per_server
    }

    /// The server owning global shard `s`.
    pub fn owner(&self, s: usize) -> usize {
        s / self.shards_per_server
    }

    pub fn codec_of(&self, worker: usize) -> Codec {
        self.codecs[worker % self.codecs.len()]
    }
}

/// Shared mutable context handed to actor callbacks: virtual now, the
/// network, the event queue, the oracle, and the run log.
pub struct SimCtx<'a> {
    pub now: SimTime,
    pub cfg: &'a SimConfig,
    pub net: &'a mut SimNet,
    pub queue: &'a mut EventQueue<Event>,
    pub oracle: &'a mut Oracle,
    pub log: &'a mut Vec<String>,
}

impl SimCtx<'_> {
    /// Sends a protocol message through the faulty network, logging any
    /// fault decision so failing runs are replayable from the log alone.
    pub fn send(&mut self, from: Addr, to: Addr, gen: u64, msg: Message) {
        let name = msg.name();
        let outcome = self.net.send(self.queue, self.now, from, to, gen, msg);
        if outcome != "sent" {
            self.log.push(format!("{:>9}us {from:?}->{to:?} {name} {outcome}", self.now / 1_000));
        }
    }

    /// Reliable connection-teardown notification.
    pub fn conn_closed(&mut self, to: Addr, peer: Addr, gen: u64) {
        self.net.send_conn_closed(self.queue, self.now, to, peer, gen);
    }

    /// Schedules `ev` after `delay` virtual nanoseconds.
    pub fn at(&mut self, delay: u64, ev: Event) {
        self.queue.push(self.now + delay, ev);
    }

    pub fn logf(&mut self, msg: String) {
        self.log.push(format!("{:>9}us {msg}", self.now / 1_000));
    }
}

/// The outcome of one simulated run.
pub struct SimReport {
    pub seed: u64,
    pub ok: bool,
    pub violations: Vec<String>,
    pub log: Vec<String>,
    /// Final reference weights, per server per local shard (empty inner
    /// vec for a server that ended the run crashed).
    pub final_weights: Vec<Vec<Vec<f32>>>,
    pub worker_rounds: Vec<u64>,
    /// Most pulls any one server held parked at once.
    pub parked_peak: usize,
    /// Weight-bearing messages each server's subscriber received.
    pub subscriber_pushes: Vec<u64>,
    pub events: u64,
    pub end_ns: SimTime,
    pub net_stats: NetStats,
}

/// Runs one simulation to completion: until every worker reaches the
/// round target, an oracle trips, or the virtual horizon expires.
pub fn run_sim(cfg: &SimConfig, plan: &FaultPlan) -> SimReport {
    let now = Rc::new(Cell::new(0u64));
    let _guard = clock::install(Rc::new(SimClock::new(Rc::clone(&now))));

    let mut servers: Vec<ServerActor> = (0..cfg.n_servers).map(ServerActor::new).collect();
    let mut workers: Vec<WorkerActor> =
        (0..cfg.n_workers).map(|w| WorkerActor::new(cfg, w)).collect();
    let mut subscribers: Vec<SubscriberActor> =
        (0..cfg.n_servers).map(|k| SubscriberActor::new(cfg, k)).collect();
    let mut net = SimNet::new(cfg.seed, cfg.net.clone());
    let mut queue: EventQueue<Event> = EventQueue::new();
    let mut oracle = Oracle::new();
    let mut log: Vec<String> = Vec::new();

    // Expand the fault plan into scheduler events. Crash and restart are
    // one plan entry so a shrunk plan can never leave an actor down for
    // good.
    for ev in &plan.events {
        match ev.kind {
            FaultKind::ServerCrash { server, down_ns, mode } => {
                queue.push(ev.at_ns, Event::CrashServer { server });
                queue.push(ev.at_ns + down_ns, Event::RestartServer { server, mode });
            }
            FaultKind::WorkerCrash { worker, down_ns } => {
                queue.push(ev.at_ns, Event::CrashWorker { worker });
                queue.push(ev.at_ns + down_ns, Event::RestartWorker { worker });
            }
            FaultKind::Partition { a, b, duration_ns, symmetric } => {
                queue.push(ev.at_ns, Event::StartPartition { a, b, duration_ns, symmetric });
            }
        }
    }

    // Boot everything at t=0.
    {
        let mut ctx = SimCtx {
            now: 0,
            cfg,
            net: &mut net,
            queue: &mut queue,
            oracle: &mut oracle,
            log: &mut log,
        };
        for s in &mut servers {
            s.start(&mut ctx);
        }
        for w in &mut workers {
            w.start(&mut ctx);
        }
        for sub in &mut subscribers {
            sub.start(&mut ctx);
        }
    }

    let mut events = 0u64;
    let mut end_ns = 0;
    while let Some((at, ev)) = queue.pop() {
        if !oracle.ok() {
            break;
        }
        if at > cfg.horizon_ns {
            break;
        }
        now.set(at);
        end_ns = at;
        events += 1;
        if events > cfg.max_events {
            oracle.fail_liveness(at, format!("event budget exceeded ({} events)", cfg.max_events));
            break;
        }
        let mut ctx = SimCtx {
            now: at,
            cfg,
            net: &mut net,
            queue: &mut queue,
            oracle: &mut oracle,
            log: &mut log,
        };
        match ev {
            Event::Deliver { from, to: Addr::Server(k), gen, msg } => {
                servers[k].on_deliver(&mut ctx, from, gen, msg);
            }
            Event::Deliver { from: Addr::Server(k), to: Addr::Worker(w), gen, msg } => {
                workers[w].on_deliver(&mut ctx, k, gen, msg);
            }
            Event::Deliver { to: Addr::Subscriber(j), gen, msg, .. } => {
                subscribers[j].on_deliver(&mut ctx, gen, msg);
            }
            Event::Deliver { from, to, .. } => {
                unreachable!("no {from:?}->{to:?} links in this topology")
            }
            Event::ConnClosed { to: Addr::Worker(w), gen, .. } => {
                workers[w].on_conn_closed(&mut ctx, gen);
            }
            Event::ConnClosed { to: Addr::Subscriber(j), gen, .. } => {
                subscribers[j].on_conn_closed(&mut ctx, gen);
            }
            Event::ConnClosed { to: Addr::Server(k), peer, gen } => {
                servers[k].on_conn_closed(&mut ctx, peer, gen);
            }
            Event::WorkerTimer { worker, inc, kind } => {
                workers[worker].on_timer(&mut ctx, inc, kind);
            }
            Event::ServerTimer { server, inc, kind } => {
                servers[server].on_timer(&mut ctx, inc, kind);
            }
            Event::SubscriberTimer { sub, gen, kind } => {
                subscribers[sub].on_timer(&mut ctx, gen, kind);
            }
            Event::CrashServer { server } => servers[server].crash(&mut ctx),
            Event::RestartServer { server, mode } => servers[server].restart(&mut ctx, mode),
            Event::CrashWorker { worker } => workers[worker].crash(&mut ctx),
            Event::RestartWorker { worker } => workers[worker].restart(&mut ctx),
            Event::StartPartition { a, b, duration_ns, symmetric } => {
                ctx.logf(format!(
                    "partition {a:?}{}{b:?} for {}ms",
                    if symmetric { "<->" } else { "->" },
                    duration_ns / 1_000_000
                ));
                net.partition(at, a, b, duration_ns, symmetric);
            }
        }
        if workers.iter().all(|w| w.done()) {
            log.push(format!("{:>9}us all workers reached the round target", at / 1_000));
            break;
        }
    }

    if oracle.ok() && !workers.iter().all(|w| w.done()) {
        let rounds: Vec<u64> = workers.iter().map(|w| w.rounds()).collect();
        oracle.fail_liveness(
            end_ns,
            format!("horizon expired with workers at rounds {rounds:?} of {}", cfg.target_rounds),
        );
    } else if oracle.ok() {
        // Every worker got every reply it waited for, so nothing may be
        // left waiting on a server.
        for (k, server) in servers.iter().enumerate() {
            let parked = server.core().map_or(0, |core| core.parked().len());
            if parked > 0 {
                oracle.fail_liveness(
                    end_ns,
                    format!("server {k} ended the run with {parked} parked pulls unanswered"),
                );
            }
        }
    }

    let final_weights = servers
        .iter()
        .map(|s| match s.core() {
            Some(core) => core.shards().iter().map(|sh| sh.snapshot()).collect(),
            None => Vec::new(),
        })
        .collect();

    SimReport {
        seed: cfg.seed,
        ok: oracle.ok(),
        violations: oracle.violations().to_vec(),
        log,
        final_weights,
        worker_rounds: workers.iter().map(|w| w.rounds()).collect(),
        parked_peak: oracle.parked_peak(),
        subscriber_pushes: subscribers.iter().map(|sub| sub.pushes()).collect(),
        events,
        end_ns,
        net_stats: net.stats,
    }
}

/// Runs the default deployment under the fault plan drawn from `seed`.
pub fn run_seed(seed: u64) -> SimReport {
    let cfg = SimConfig { seed, ..SimConfig::default() };
    let plan =
        FaultPlan::generate(seed, cfg.n_servers, cfg.n_workers, cfg.lease_ns, cfg.net.quiesce_ns);
    run_sim(&cfg, &plan)
}
