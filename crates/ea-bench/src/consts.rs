//! Every constant of the benchmark. Later issues name these workloads
//! and metrics verbatim, so none of this is a command-line option: a
//! change here is a `benchmark` issue of its own, and the baseline is
//! measured again after it. The README says how each value was derived.

use ea_models::AnalogueConfig;
use ea_optim::{Codec, OptKind};

/// Length of the timed window the horizons below are sized for, and the
/// only value `--seconds` accepts (`BENCHMARK.json`'s `run_seconds`).
pub const RUN_SECONDS: u64 = 10;

/// Worker driver threads (sized for 2 cores).
pub const N_WORKERS: usize = 2;
/// Shard servers on the wire workloads, each with one reactor thread.
pub const K_SERVERS: usize = 2;

/// Rounds run in set-up before the first timed round.
pub const WARMUP_ROUNDS: u64 = 32;
/// Set-up passes per untraced run; `setup_s` is their median.
pub const SETUP_PASSES: usize = 3;
/// Rounds whose mean loss is compared with the target.
pub const TRAIL: usize = 8;
/// A timed window is cut into this many segments; `op_p50_ms`, `ok_share`
/// and a training run's `ops_per_s` are the median of the segments'
/// values, so that one stall of the machine (they come, tens of ms long, a
/// few times a minute in the sandbox) moves one segment and not the metric.
pub const SEGMENTS: usize = 5;
/// A round (or request) counts in `ok_share` only if it finishes within
/// this multiple of the workload's reference p50.
pub const ROUND_LIMIT_FACTOR: f64 = 3.0;

/// Seed of every model's initial weights.
pub const MODEL_SEED: u64 = 42;
/// Seed of the synthetic tasks (for `next_token`, of its Markov chain).
pub const TASK_SEED: u64 = 7;
/// Which block of 2^32 batch indices the training workloads read. It is a
/// constant and not `--seed`: at these batch sizes the seed-to-seed
/// spread of rounds-to-target is about a quarter (measured: 325, 315 and
/// never on three streams), far beyond any bound, so time-to-target is
/// measured on one trajectory that the same code repeats exactly.
pub const DATA_STREAM: u64 = 1;

/// `env::rng_sample()` on the build the stream-dependent constants below
/// (`target_loss` and the round it is crossed at, [`F32_OPS_TO_TARGET`])
/// were derived on. A build whose sample differs reports those crossings
/// and does not check them.
pub const RNG_PIN: [u32; 7] = [0xbf4a_a2f4, 0x3934_1b13, 0xe3, 0x0, 0x4118, 0xbf4e_afc0, 0x3];

/// Rounds in each window of a traced run (reference, then traced).
pub const TRACED_ROUNDS: u64 = 300;
/// Rounds whose submitted deltas a traced run keeps for the codec,
/// error-feedback and apply replays.
pub const CAPTURED_ROUNDS: usize = 8;
/// `pull_latest` probes per worker after a traced window.
pub const PROBES: usize = 200;
/// Plain single-pipeline steps for the single-worker baseline.
pub const SINGLE_STEPS: usize = 150;
/// `checkpoint_now` calls after the traced window (`train_wire_f32`).
pub const CHECKPOINTS: usize = 5;

/// Iterations of the integer spin loop timed at both ends of a run.
pub const SPIN_ITERS: u64 = 40_000_000;
/// A gap between the two spin times above this marks the run disturbed.
pub const SPIN_GAP_LIMIT: f64 = 0.15;

/// Which synthetic task and model family a training workload uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Copy-translation on the GNMT analogue.
    Gnmt,
    /// Next-token prediction on the AWD-LSTM analogue.
    Awd,
}

/// How workers reach the reference shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exchange {
    /// `K_SERVERS` reactor shard servers over loopback TCP.
    Tcp(Codec),
    /// In-process `LocalShards`: no sockets, no codec.
    Local,
}

/// One training workload.
#[derive(Clone, Copy, Debug)]
pub struct TrainSpec {
    pub name: &'static str,
    pub family: Family,
    pub cfg: AnalogueConfig,
    pub batch: usize,
    pub micros: usize,
    pub opt: OptKind,
    pub exchange: Exchange,
    /// Timed rounds R: fixed work, so every count repeats.
    pub rounds: u64,
    /// Trailing-`TRAIL`-round mean of mean-worker loss that ends
    /// `time_to_target_s`.
    pub target_loss: f32,
    /// Reference `op_p50_ms` on the seed machine; `ok_share`'s limit is
    /// `ROUND_LIMIT_FACTOR` times this.
    pub ref_p50_ms: f64,
}

const WIRE_CFG: AnalogueConfig =
    AnalogueConfig { vocab: 512, seq: 8, hidden: 64, blocks: 4, stages: 2 };

pub const TRAIN_WIRE_F32: TrainSpec = TrainSpec {
    name: "train_wire_f32",
    family: Family::Gnmt,
    cfg: WIRE_CFG,
    batch: 8,
    micros: 2,
    opt: OptKind::Adam { lr: 1e-2 },
    exchange: Exchange::Tcp(Codec::F32),
    rounds: 500,
    target_loss: 4.4,
    ref_p50_ms: 19.0,
};

/// Identical to [`TRAIN_WIRE_F32`] in every constant but the codec.
pub const TRAIN_WIRE_INT8: TrainSpec = TrainSpec {
    name: "train_wire_int8",
    exchange: Exchange::Tcp(Codec::Int8),
    ref_p50_ms: 16.0,
    ..TRAIN_WIRE_F32
};

pub const TRAIN_COMPUTE_AWD: TrainSpec = TrainSpec {
    name: "train_compute_awd",
    family: Family::Awd,
    cfg: AnalogueConfig { vocab: 32, seq: 24, hidden: 64, blocks: 2, stages: 2 },
    batch: 16,
    micros: 4,
    opt: OptKind::Momentum { lr: 0.2, beta: 0.9 },
    exchange: Exchange::Local,
    rounds: 500,
    target_loss: 2.85,
    ref_p50_ms: 19.0,
};

/// `ops_to_target` of `train_wire_f32`; the int8 run must reach the
/// target within ⌈1.1 ×⌉ this many rounds.
pub const F32_OPS_TO_TARGET: u64 = 325;

/// One serving workload.
#[derive(Clone, Copy, Debug)]
pub struct ServeSpec {
    pub name: &'static str,
    /// Offered rate of the open-loop schedule, requests per second.
    pub rps: u64,
}

pub const SERVE_CFG: AnalogueConfig =
    AnalogueConfig { vocab: 32, seq: 8, hidden: 32, blocks: 4, stages: 2 };
pub const LOW_RPS: u64 = 300;
/// 31% of the closed-loop saturation measured on the seed machine
/// (16 100 replies/s). The issue asked for ≈ 60%; the README says what
/// 6 500, 8 000 and 9 600 req/s did to the tail on 2 cores.
pub const HIGH_RPS: u64 = 5000;
pub const SERVE_OPEN_LOW: ServeSpec = ServeSpec { name: "serve_open_low", rps: LOW_RPS };
pub const SERVE_OPEN_HIGH: ServeSpec = ServeSpec { name: "serve_open_high", rps: HIGH_RPS };

/// Scheduled requests run in set-up before the first timed request.
pub const SERVE_WARMUP_MS: u64 = 1500;
/// A hot swap is scheduled every this often.
pub const SWAP_EVERY_MS: u64 = 500;
/// A reply counts in `ok_share` only if it lands within this of its due
/// time.
pub const REQUEST_LIMIT_MS: f64 = 10.0;
/// The batcher's coalesce window.
pub const COALESCE_DELAY_MS: u64 = 2;
/// One reply in this many is replayed through `forward_eval`.
pub const REPLAY_EVERY: u64 = 64;
/// Requests in the traced window of a traced serve run, at least; the
/// reference window before it is half as long.
pub const TRACED_SERVE_REQUESTS: u64 = 3000;
/// The traced window is never shorter than this, so it sees several swaps.
pub const TRACED_SERVE_MIN_MS: u64 = 5000;
/// Warm-up and window of a `--smoke` serve run: one swap, in the window.
pub const SMOKE_SERVE_WARMUP_MS: u64 = 100;
pub const SMOKE_SERVE_WINDOW_MS: u64 = 600;
/// `--smoke` divides every training horizon and replay count by this.
pub const SMOKE_DIVISOR: u64 = 20;
/// A run whose load generator's p99 lateness reaches this is reported as
/// disturbed.
pub const LATE_LIMIT_MS: f64 = 2.0;

pub const WORKLOADS: [&str; 5] =
    ["train_wire_f32", "train_wire_int8", "train_compute_awd", "serve_open_low", "serve_open_high"];

/// Environment variables that change speed without changing code; a run
/// refuses to start with any of them set.
pub const FORBIDDEN_ENV: [&str; 5] =
    ["EA_SIMD", "EA_PAR_CHUNK", "EA_PAR_THRESHOLD", "EA_COMMS_THREADS", "EA_TRACE"];
