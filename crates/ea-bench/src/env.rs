//! What a run can say about the machine it ran on: a fingerprint, a fixed
//! spin loop that shows a disturbed machine, and `/proc` readers.

use crate::consts::{FORBIDDEN_ENV, MODEL_SEED, RNG_PIN};
use ea_tensor::TensorRng;
use std::process::Command;
use std::time::Instant;

/// Names of set variables that change speed without changing code.
pub fn forbidden_env_set() -> Vec<&'static str> {
    FORBIDDEN_ENV.iter().copied().filter(|name| std::env::var_os(name).is_some()).collect()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Which dependency set this binary was built against: the published
/// crates (cargo's normal sources), or the stand-ins in `offline-deps/`
/// that `run.sh` falls back to where no registry can be reached. `run.sh`
/// sets `EA_BENCH_DEPS` for the build; nothing else selects the stand-ins.
/// Numbers from the two are not comparable with each other.
pub fn deps() -> &'static str {
    match option_env!("EA_BENCH_DEPS") {
        Some("standins") => "standins (crates/ea-bench/offline-deps)",
        _ => "published crates",
    }
}

/// A few draws through every `TensorRng` call the models, tasks and
/// schedules make: `seed_from_u64` (the seed expansion), `fork` (a raw
/// `u64`), float and integer ranges, and the Bernoulli sampler.
pub fn rng_sample() -> [u32; 7] {
    let mut rng = TensorRng::seed_from_u64(MODEL_SEED);
    let mut child = rng.fork(1);
    let coins = (0..16).fold(0, |bits, i| bits | u32::from(rng.coin(0.3)) << i);
    [
        rng.uniform(-1.0, 1.0).to_bits(),
        rng.uniform(0.0, 1e-3).to_bits(),
        rng.below(512) as u32,
        rng.below(7) as u32,
        coins,
        child.uniform(-1.0, 1.0).to_bits(),
        child.below(32) as u32,
    ]
}

/// Whether this build draws the random streams the stream-dependent
/// constants (`TARGET_LOSS` and the rounds it is crossed at) were derived
/// on. They were derived on the stand-ins; a build against the published
/// crates draws the same streams if the stand-ins' seed expansion and
/// samplers follow `rand` 0.8.5 as they were written to.
pub fn rng_streams_calibrated() -> bool {
    rng_sample() == RNG_PIN
}

/// One line per fact, so that two reports can be compared with `diff`.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc", std::thread::available_parallelism().map_or(0, |n| n.get()).to_string()),
        ("cpu", cpu),
        ("simd", ea_tensor::simd::level_name(ea_tensor::simd::detected_level()).to_string()),
        ("rustc", command_line("rustc", &["--version"])),
        ("git_sha", command_line("git", &["rev-parse", "HEAD"])),
        ("deps", deps().to_string()),
        (
            "rng_streams",
            if rng_streams_calibrated() {
                "the ones the constants were derived on".to_string()
            } else {
                "NOT the ones the constants were derived on: the target crossings are reported, \
                 not checked; re-derive TARGET_LOSS (a `benchmark` issue)"
                    .to_string()
            },
        ),
        (
            "RAYON_NUM_THREADS",
            std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into()),
        ),
    ]
}

/// Times `iters` rounds of a fixed integer loop, in ms. It touches no
/// memory and makes no system call, so two readings differ only by what
/// else the machine did.
pub fn spin_ms(iters: u64) -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Linux USER_HZ, the unit of utime and stime in `/proc/*/stat`.
const TICKS_PER_SEC: f64 = 100.0;

/// CPU seconds (user + system) used so far by this process's threads
/// whose name starts with `prefix`.
pub fn threads_cpu_s(prefix: &str) -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0.0 };
    let mut total = 0.0;
    for task in tasks.flatten() {
        let Ok(line) = std::fs::read_to_string(task.path().join("stat")) else { continue };
        let (Some(open), Some(close)) = (line.find('('), line.rfind(')')) else { continue };
        if !line[open + 1..close].starts_with(prefix) {
            continue;
        }
        // After the name come state, ppid, ...; utime and stime are the
        // 12th and 13th of those fields.
        let fields: Vec<&str> = line[close + 1..].split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
        total += (ticks(11) + ticks(12)) / TICKS_PER_SEC;
    }
    total
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// draft-strombergson-chacha-test-vectors, TC1 (all-zero key and IV),
    /// 8 rounds, first keystream block. Trivial against the published
    /// `rand_chacha`; against the stand-in it is what shows that the
    /// generator under every model, task and schedule is the published one.
    #[test]
    fn the_generator_matches_the_published_chacha8_vector() {
        let mut rng = ChaCha8Rng::from_seed([0; 32]);
        let hex: String = (0..16)
            .flat_map(|_| rng.next_u32().to_le_bytes())
            .map(|byte| format!("{byte:02x}"))
            .collect();
        assert_eq!(
            hex,
            "3e00ef2f895f40d67f5bb8e81f09a5a12c840ec3ce9a7f3b181be188ef711a1e\
             984ce172b9216f419f445367456d5619314a42a3da86b001387bfdb80e0cfe42"
        );
    }

    /// Fails on a build whose seed expansion or samplers differ from the
    /// build the constants were derived on (the stand-ins): such a build
    /// must re-derive `TARGET_LOSS` and the crossing rounds before its
    /// target checks mean anything.
    #[test]
    fn this_build_draws_the_streams_the_constants_were_derived_on() {
        assert_eq!(rng_sample(), RNG_PIN, "got {:#x?}", rng_sample());
    }
}
