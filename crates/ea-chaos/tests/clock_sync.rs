//! Deterministic simulation of the NTP-style clock alignment that the
//! ops layer piggybacks on heartbeats and collector pushes.
//!
//! The [`OffsetEstimator`] never reads a real clock — it is pure
//! arithmetic over `(t_tx, t_remote, t_rx)` triples — so the simulation
//! drives it with virtual exchanges: a remote clock with a known true
//! skew, asymmetric base delays, seeded jitter, and occasional
//! multi-millisecond spikes (GC pauses, queue buildups). The estimate
//! must converge to the true skew with sub-millisecond error on every
//! seed, and the window reseed must track a secular drift instead of
//! pinning to one ancient minimum.

use ea_chaos::sched::SplitMix64;
use ea_comms::clock::OffsetEstimator;

/// One exchange at absolute virtual time `t_abs` (µs): the local clock
/// reads `t_abs`, the remote clock reads `t_abs + skew`. Returns the
/// `(t_tx, t_remote, t_rx)` triple the protocol would observe.
fn exchange(
    rng: &mut SplitMix64,
    t_abs: u64,
    skew_us: i64,
    up_base_us: u64,
    down_base_us: u64,
) -> (u64, u64, u64) {
    // Jitter: usually tens of µs, with a 5% chance of a spike in the
    // milliseconds — the samples the min-RTT filter exists to reject.
    let jitter = |r: &mut SplitMix64| -> u64 {
        if r.next_f64() < 0.05 {
            2_000 + r.below(20_000)
        } else {
            r.below(120)
        }
    };
    let d_up = up_base_us + jitter(rng);
    let d_down = down_base_us + jitter(rng);
    let t_tx = t_abs;
    let t_remote = ((t_abs + d_up) as i64 + skew_us) as u64;
    let t_rx = t_abs + d_up + d_down;
    (t_tx, t_remote, t_rx)
}

#[test]
fn estimator_converges_sub_millisecond_under_jitter() {
    // True skews spanning sign and magnitude, including "remote booted
    // long before us" territory.
    for &skew_us in &[-3_000_000i64, -777, 0, 1_234, 5_000_000] {
        for seed in 0..20u64 {
            let mut rng = SplitMix64::stream(seed, 0xC10C);
            let mut est = OffsetEstimator::new();
            let mut t_abs = 1_000u64;
            for _ in 0..200 {
                let (t_tx, t_remote, t_rx) = exchange(&mut rng, t_abs, skew_us, 300, 150);
                est.sample(t_tx, t_remote, t_rx);
                t_abs += 10_000; // 10 ms cadence, like a heartbeat
            }
            let got = est.offset_us().expect("estimate after 200 samples");
            let err = (got - skew_us).abs();
            // The irreducible bias is half the up/down asymmetry
            // (75 µs here); everything past that is jitter the filter
            // failed to reject. Sub-millisecond is the contract.
            assert!(err < 1_000, "seed {seed} skew {skew_us}: estimate {got} off by {err} µs");
        }
    }
}

#[test]
fn window_reseed_tracks_secular_drift() {
    // The remote clock drifts 10 µs per exchange (~1000 ppm at the
    // 10 ms cadence — far worse than real quartz, to make the point).
    // An estimator pinned to its first lucky minimum would end up
    // 5 ms stale after 500 exchanges; the window reseed must not.
    let mut rng = SplitMix64::stream(7, 0xD21F7);
    let mut est = OffsetEstimator::with_window(32);
    let mut t_abs = 1_000u64;
    let mut skew_us = 100_000i64;
    for _ in 0..500 {
        let (t_tx, t_remote, t_rx) = exchange(&mut rng, t_abs, skew_us, 300, 150);
        est.sample(t_tx, t_remote, t_rx);
        t_abs += 10_000;
        skew_us += 10;
    }
    let got = est.offset_us().expect("estimate");
    let err = (got - skew_us).abs();
    // The estimate may lag by up to ~2 windows of drift (the committed
    // minimum is at most that old) plus the delay-asymmetry bias —
    // comfortably under a millisecond at these rates.
    assert!(err < 1_000, "drift-tracking estimate {got} lags true skew {skew_us} by {err} µs");
}

#[test]
fn same_seed_same_estimate() {
    let run = |seed: u64| -> (Option<i64>, Option<u64>, u64) {
        let mut rng = SplitMix64::stream(seed, 0xC10C);
        let mut est = OffsetEstimator::new();
        let mut t_abs = 500u64;
        for _ in 0..100 {
            let (t_tx, t_remote, t_rx) = exchange(&mut rng, t_abs, 42_000, 250, 250);
            est.sample(t_tx, t_remote, t_rx);
            t_abs += 7_000;
        }
        (est.offset_us(), est.rtt_us(), est.samples())
    };
    for seed in [3u64, 99, 123456] {
        assert_eq!(run(seed), run(seed), "seed {seed}: clock-sync sim is not deterministic");
    }
}
