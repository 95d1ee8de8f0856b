//! Top-level chaos harness tests: determinism, the bounded seed sweep
//! that gates every PR, and the restored-server deadlock regression.

use ea_chaos::faults::{FaultEvent, FaultKind, FaultPlan, RestartMode};
use ea_chaos::net::NetConfig;
use ea_chaos::shrink::shrink_plan;
use ea_chaos::sim::{run_seed, run_sim, SimConfig, SimReport};

fn weight_bits(report: &SimReport) -> Vec<Vec<Vec<u32>>> {
    report
        .final_weights
        .iter()
        .map(|srv| srv.iter().map(|sh| sh.iter().map(|w| w.to_bits()).collect()).collect())
        .collect()
}

#[test]
fn same_seed_is_bit_for_bit_reproducible() {
    for seed in [1u64, 17, 4242] {
        let a = run_seed(seed);
        let b = run_seed(seed);
        assert_eq!(a.log, b.log, "seed {seed}: event logs diverged");
        assert_eq!(a.events, b.events, "seed {seed}: event counts diverged");
        assert_eq!(a.end_ns, b.end_ns, "seed {seed}: virtual end times diverged");
        assert_eq!(weight_bits(&a), weight_bits(&b), "seed {seed}: final weights diverged");
        assert_eq!(a.worker_rounds, b.worker_rounds);
    }
}

#[test]
fn clean_network_run_completes_quickly() {
    let cfg = SimConfig {
        seed: 11,
        net: NetConfig { quiesce_ns: 0, ..NetConfig::default() },
        ..SimConfig::default()
    };
    let report = run_sim(&cfg, &FaultPlan::default());
    assert!(report.ok, "violations: {:?}\nlog tail: {:?}", report.violations, log_tail(&report));
    // 10 rounds of pull+submit over a clean 1ms network should be done in
    // well under a virtual second.
    assert!(report.end_ns < 1_000_000_000, "took {}ns of virtual time", report.end_ns);
    assert!(report.worker_rounds.iter().all(|&r| r >= cfg.target_rounds));
}

fn log_tail(report: &SimReport) -> Vec<String> {
    let n = report.log.len();
    report.log[n.saturating_sub(30)..].to_vec()
}

/// The PR-gating sweep: 500 random fault schedules with every codec in
/// play, a couple of seconds even unoptimized. `CHAOS_SEEDS` widens it
/// (the CI nightly runs far more through the `chaos_sweep` binary).
#[test]
fn seed_sweep_holds_all_invariants() {
    let seeds: u64 = std::env::var("CHAOS_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(500);
    let mut failed = Vec::new();
    for seed in 0..seeds {
        let report = run_seed(seed);
        if !report.ok {
            let cfg = SimConfig { seed, ..SimConfig::default() };
            let plan = FaultPlan::generate(
                seed,
                cfg.n_servers,
                cfg.n_workers,
                cfg.lease_ns,
                cfg.net.quiesce_ns,
            );
            let shrunk = shrink_plan(&cfg, &plan);
            eprintln!(
                "seed {seed} FAILED\nviolations: {:?}\nshrunk plan:\n{}\nlog tail:\n{}",
                shrunk.report.violations,
                shrunk.plan.describe(),
                log_tail(&shrunk.report).join("\n"),
            );
            failed.push(seed);
        }
    }
    assert!(failed.is_empty(), "failing seeds: {failed:?} (rerun with ea_chaos::run_seed)");
}

/// Directed regression for the PR 8 restored-server deadlock class: a
/// server loses its disk and restarts at round zero while workers are
/// several rounds ahead. Workers resync to the *maximum* version across
/// shards, so their pulls at the stale server hang forever — unless
/// worker heartbeats advertise their round so the server can fast-forward
/// through empty rounds (the `defer_until` heal). With heartbeats off the
/// deadlock must be caught by the liveness oracle; with them on, the same
/// schedule must converge.
fn stale_restart_scenario(heartbeats: bool) -> SimReport {
    let cfg = SimConfig {
        seed: 99,
        heartbeats_enabled: heartbeats,
        // Slow, clean 5ms links: a round takes ~20ms, so the crash at
        // t=100ms lands while the workers are a handful of rounds in.
        net: NetConfig { base_delay_ns: 5_000_000, quiesce_ns: 0, ..NetConfig::default() },
        target_rounds: 12,
        horizon_ns: 30_000_000_000,
        ..SimConfig::default()
    };
    let plan = FaultPlan {
        events: vec![FaultEvent {
            at_ns: 100_000_000, // mid-run: several rounds complete by then
            kind: FaultKind::ServerCrash {
                server: 1,
                down_ns: 10_000_000,
                mode: RestartMode::Fresh,
            },
        }],
    };
    run_sim(&cfg, &plan)
}

#[test]
fn stale_restart_without_heartbeats_deadlocks() {
    let report = stale_restart_scenario(false);
    assert!(!report.ok, "expected a liveness violation, run passed: {:?}", log_tail(&report));
    assert!(
        report.violations.iter().any(|v| v.contains("liveness")),
        "expected liveness violation, got: {:?}",
        report.violations
    );
}

#[test]
fn stale_restart_with_heartbeats_heals() {
    let report = stale_restart_scenario(true);
    assert!(
        report.ok,
        "heartbeat heal failed: {:?}\nlog tail: {:?}",
        report.violations,
        log_tail(&report)
    );
}

/// Checkpoint restore path: crash the server late enough that it has
/// checkpointed, bring it back from disk, and require convergence plus a
/// clean restore oracle.
#[test]
fn checkpoint_restart_converges() {
    let cfg = SimConfig {
        seed: 5,
        // Slow links keep the run alive past the 450ms checkpoint timer
        // and the 500ms crash.
        net: NetConfig { base_delay_ns: 5_000_000, quiesce_ns: 0, ..NetConfig::default() },
        target_rounds: 40,
        horizon_ns: 30_000_000_000,
        ..SimConfig::default()
    };
    let plan = FaultPlan {
        events: vec![FaultEvent {
            at_ns: 500_000_000, // after the 450ms checkpoint timer
            kind: FaultKind::ServerCrash {
                server: 0,
                down_ns: 50_000_000,
                mode: RestartMode::FromCheckpoint,
            },
        }],
    };
    let report = run_sim(&cfg, &plan);
    assert!(report.ok, "violations: {:?}\nlog tail: {:?}", report.violations, log_tail(&report));
    assert!(
        report.log.iter().any(|l| l.contains("RESTART from checkpoint")),
        "scenario never exercised the checkpoint-restore path"
    );
}

/// The simulated servers run the production park/complete/publish code:
/// pulls for incomplete rounds really park, and every server's read-only
/// subscriber really receives round-boundary pushes.
#[test]
fn parking_and_subscriptions_are_live_under_simulation() {
    // Jittery, lossy links and no scheduled faults: workers drift apart,
    // so the fast ones park on the slow ones' rounds.
    let cfg = SimConfig { seed: 3, ..SimConfig::default() };
    let report = run_sim(&cfg, &FaultPlan::default());
    assert!(report.ok, "violations: {:?}\nlog tail: {:?}", report.violations, log_tail(&report));
    assert!(report.parked_peak >= 1, "no pull ever parked");
    assert_eq!(report.subscriber_pushes.len(), cfg.n_servers);
    for (k, &pushes) in report.subscriber_pushes.iter().enumerate() {
        // A snapshot per shard and then pushes, 8% of which the links eat.
        let floor = cfg.target_rounds / 2 * cfg.shards_per_server as u64;
        assert!(pushes >= floor, "subscriber {k} got {pushes} pushes, expected >= {floor}");
    }
}

/// One worker retransmits the same pull 50+ times against a round stalled
/// on a crashed peer: the retransmissions replace each other, so the one
/// server never holds more than one parked pull.
#[test]
fn retransmitted_pulls_against_a_stalled_round_park_once() {
    let cfg = SimConfig {
        seed: 8,
        n_servers: 1,
        shards_per_server: 1,
        n_workers: 2,
        target_rounds: 3,
        lease_ns: 60_000_000_000, // nobody is evicted: the round really stalls
        net: NetConfig { quiesce_ns: 0, ..NetConfig::default() },
        ..SimConfig::default()
    };
    let down_ns = 60 * cfg.retransmit_ns;
    let plan = FaultPlan {
        events: vec![FaultEvent {
            at_ns: 500_000, // before its first message lands
            kind: FaultKind::WorkerCrash { worker: 1, down_ns },
        }],
    };
    let report = run_sim(&cfg, &plan);
    assert!(report.ok, "violations: {:?}\nlog tail: {:?}", report.violations, log_tail(&report));
    assert!(report.end_ns > down_ns, "the survivor did not wait out the outage");
    assert_eq!(report.parked_peak, 1, "retransmitted pulls stacked up");
}
