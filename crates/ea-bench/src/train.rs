//! The `train_*` workloads: `N_WORKERS` [`ElasticWorker`]s driven through
//! a fixed horizon of rounds against `K_SERVERS` reactor shard servers
//! over loopback TCP, or against in-process `LocalShards`.
//!
//! An untraced run sets the fleet up [`SETUP_PASSES`] times (the last one
//! is kept), runs the horizon and reports the end-to-end metrics. A traced
//! run sets up once with a [`TimedChannel`] around each worker's channel,
//! runs a reference window with recording off and a traced window with it
//! on, then replays captured deltas through the codec, the error
//! feedback and a scratch shard, and reports the layer budget.

use crate::consts::*;
use crate::env;
use crate::report::{Check, Summary};
use crate::span::{self, Sink, Span};
use crate::stats;
use crate::timed::{RoundDeltas, TimedChannel};
use ea_autograd::{Stage, StagedModel};
use ea_comms::reactor::ReactorConfig;
use ea_comms::{
    crc32, Codec, Reactor, RemoteShards, RetryConfig, ShardChannel, ShardClient, TcpConfig,
    TcpTransport,
};
use ea_data::{Batch, SyntheticTask};
use ea_models::{awd_analogue, gnmt_analogue};
use ea_optim::Optimizer;
use ea_runtime::{
    ElasticTrainer, ElasticWorker, ErrorFeedback, LocalShards, RefShard, RefShardServer,
    ThreadedPipeline,
};
use ea_tensor::TensorRng;
use std::net::TcpListener;
use std::ops::Range;
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn model(spec: &TrainSpec) -> StagedModel {
    let mut rng = TensorRng::seed_from_u64(MODEL_SEED);
    match spec.family {
        Family::Gnmt => gnmt_analogue(spec.cfg, &mut rng),
        Family::Awd => awd_analogue(spec.cfg, &mut rng),
    }
}

fn optimizers(spec: &TrainSpec) -> Vec<Box<dyn Optimizer>> {
    (0..spec.cfg.stages).map(|_| spec.opt.build()).collect()
}

fn task(spec: &TrainSpec) -> SyntheticTask {
    match spec.family {
        Family::Gnmt => SyntheticTask::copy_translate(spec.cfg.vocab, spec.cfg.seq, TASK_SEED),
        Family::Awd => SyntheticTask::next_token(spec.cfg.vocab, spec.cfg.seq, TASK_SEED),
    }
}

/// CRC32 of the little-endian bytes of `weights`: equal only for
/// bit-identical vectors.
pub fn weights_crc(weights: &[f32]) -> u32 {
    let mut bytes = Vec::with_capacity(weights.len() * 4);
    ea_optim::encode_f32s_le(weights, &mut bytes);
    crc32(&bytes)
}

/// Every batch of a run, generated before anything is timed:
/// `batches[round][pipe]`, from the task's stream at [`DATA_STREAM`].
fn pregenerate(spec: &TrainSpec, rounds: u64, sink: Option<&mut Sink>) -> Vec<Vec<Batch>> {
    let task = task(spec);
    let base = DATA_STREAM << 32;
    let mut sink = sink;
    (0..rounds)
        .map(|round| {
            (0..N_WORKERS as u64)
                .map(|pipe| {
                    let index = base + round * N_WORKERS as u64 + pipe;
                    let t0 = Instant::now();
                    let batch = task.batch(spec.batch, index);
                    if let Some(sink) = sink.as_deref_mut() {
                        sink.record("batch", None, index, t0, Instant::now());
                    }
                    batch
                })
                .collect()
        })
        .collect()
}

/// One timed call of `ElasticWorker::round`.
#[derive(Clone, Copy, Debug)]
pub struct RoundSample {
    pub start: Instant,
    pub end: Instant,
    pub loss: f32,
}

/// Tells a worker to run `rounds` once every party has reached `start`;
/// with `record`, it also keeps a `round` span for each. A worker stops
/// when its command channel closes.
struct Run {
    rounds: Range<u64>,
    start: Arc<Barrier>,
    record: bool,
}

type RunResult = Result<(Vec<RoundSample>, Vec<Span>), String>;

struct WorkerHandle {
    cmd: mpsc::Sender<Run>,
    done: mpsc::Receiver<RunResult>,
    join: JoinHandle<()>,
}

fn spawn_worker(
    spec: TrainSpec,
    pipe: usize,
    channel: Arc<dyn ShardChannel>,
    batches: Arc<Vec<Vec<Batch>>>,
    epoch: Instant,
) -> WorkerHandle {
    let (cmd_tx, cmd_rx) = mpsc::channel::<Run>();
    let (done_tx, done_rx) = mpsc::channel::<RunResult>();
    let join = std::thread::Builder::new()
        .name(format!("bench-worker-{pipe}"))
        .spawn(move || {
            let mut worker = ElasticWorker::new(
                model(&spec).into_stages(),
                optimizers(&spec),
                spec.micros,
                1.0 / N_WORKERS as f32,
                pipe,
                channel,
            );
            while let Ok(Run { rounds, start, record }) = cmd_rx.recv() {
                let mut samples = Vec::with_capacity(rounds.clone().count());
                let mut sink = Sink::new(epoch, pipe as u32);
                start.wait();
                let mut outcome = Ok(());
                for round in rounds {
                    let t0 = Instant::now();
                    let loss = worker.round(&batches[round as usize][pipe]);
                    let t1 = Instant::now();
                    match loss {
                        Ok(loss) => samples.push(RoundSample { start: t0, end: t1, loss }),
                        Err(e) => {
                            outcome = Err(format!("pipe {pipe} round {round}: {e}"));
                            break;
                        }
                    }
                    if record {
                        let op = ea_ops::exchange_span_id(round, pipe as u32);
                        sink.record("round", None, op, t0, t1);
                    }
                }
                let result = outcome.map(|()| (samples, sink.into_spans()));
                if done_tx.send(result).is_err() {
                    return;
                }
            }
        })
        .expect("spawn worker thread");
    WorkerHandle { cmd: cmd_tx, done: done_rx, join }
}

/// Servers (if any), shards and workers of one set-up.
struct Fleet {
    spec: TrainSpec,
    servers: Vec<RefShardServer>,
    reactors: Vec<Reactor>,
    /// Every reference shard, in global shard order.
    shards: Vec<Arc<RefShard>>,
    workers: Vec<WorkerHandle>,
    /// One per worker in a traced run, else empty.
    timed: Vec<Arc<TimedChannel>>,
    /// Initial weights by stage.
    init: Vec<Vec<f32>>,
    /// `batches[round][pipe]`, shared with the workers.
    batches: Arc<Vec<Vec<Batch>>>,
}

/// Samples of one window, per worker, and when it started.
struct Window {
    t0: Instant,
    per_worker: Vec<Vec<RoundSample>>,
    spans: Vec<Span>,
}

impl Window {
    fn wall_s(&self) -> f64 {
        let end = self.per_worker.iter().filter_map(|w| w.last()).map(|s| s.end).max();
        end.map_or(0.0, |e| e.duration_since(self.t0).as_secs_f64())
    }

    fn rounds(&self) -> usize {
        self.per_worker.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Mean over workers of each round's loss.
    fn mean_losses(&self) -> Vec<f32> {
        (0..self.rounds())
            .map(|r| self.per_worker.iter().map(|w| w[r].loss).sum::<f32>() / N_WORKERS as f32)
            .collect()
    }

    fn round_ms(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self
            .per_worker
            .iter()
            .flatten()
            .map(|s| s.end.duration_since(s.start).as_secs_f64() * 1e3)
            .collect();
        stats::sort(&mut all);
        all
    }
}

impl Fleet {
    /// Builds the model and task, generates every batch, binds, connects
    /// and handshakes, and spawns the workers. `traced` wraps each
    /// worker's channel in a [`TimedChannel`] (recording off).
    fn build(
        spec: &TrainSpec,
        total_rounds: u64,
        traced: bool,
        epoch: Instant,
        batch_sink: Option<&mut Sink>,
    ) -> Result<Fleet, String> {
        let batches = Arc::new(pregenerate(spec, total_rounds, batch_sink));
        let init: Vec<Vec<f32>> =
            model(spec).into_stages().iter().map(Stage::params_flat).collect();
        let total = init.len();

        let mut servers = Vec::new();
        let mut reactors = Vec::new();
        let mut shards = Vec::new();
        let mut channels: Vec<Arc<dyn ShardChannel>> = Vec::new();
        match spec.exchange {
            Exchange::Tcp(codec) => {
                for k in 0..K_SERVERS {
                    let (base, end) = (k * total / K_SERVERS, (k + 1) * total / K_SERVERS);
                    let server =
                        RefShardServer::from_initial_weights(init[base..end].to_vec(), N_WORKERS)
                            .with_shard_range(base, total);
                    shards.extend(server.shards().iter().cloned());
                    let listener =
                        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
                    let reactor = server
                        .serve_reactor(listener, ReactorConfig { threads: 1, ..Default::default() })
                        .map_err(|e| format!("serve_reactor: {e}"))?;
                    servers.push(server);
                    reactors.push(reactor);
                }
                // A parked pull waits for the other worker's round, so a
                // reply may take a whole round; retransmitting sooner
                // would only add frames.
                let retry = RetryConfig { reply_timeout: Duration::from_secs(20), max_attempts: 2 };
                for pipe in 0..N_WORKERS {
                    let mut clients = Vec::new();
                    for reactor in &reactors {
                        let conn =
                            TcpTransport::connect(reactor.local_addr(), TcpConfig::default())
                                .map_err(|e| format!("connect: {e}"))?;
                        let client =
                            ShardClient::handshake_with_codec(Box::new(conn), pipe, retry, codec)
                                .map_err(|e| format!("handshake: {e}"))?;
                        clients.push(client);
                    }
                    let remote = RemoteShards::sharded(vec![clients])
                        .map_err(|e| format!("shard map: {e}"))?;
                    channels.push(Arc::new(remote));
                }
            }
            Exchange::Local => {
                shards =
                    init.iter().map(|w| Arc::new(RefShard::new(w.clone(), N_WORKERS))).collect();
                let local: Arc<dyn ShardChannel> = Arc::new(LocalShards::new(shards.clone()));
                channels = vec![local; N_WORKERS];
            }
        }

        let mut timed = Vec::new();
        if traced {
            // Only a server can park a pull; in-process pulls block in
            // the caller, which the pull span already shows.
            let watch = if servers.is_empty() { Vec::new() } else { shards.clone() };
            for (pipe, channel) in channels.iter_mut().enumerate() {
                let t = Arc::new(TimedChannel::new(
                    Arc::clone(channel),
                    watch.clone(),
                    epoch,
                    pipe as u32,
                ));
                *channel = Arc::clone(&t) as Arc<dyn ShardChannel>;
                timed.push(t);
            }
        }

        let workers = channels
            .into_iter()
            .enumerate()
            .map(|(pipe, channel)| spawn_worker(*spec, pipe, channel, Arc::clone(&batches), epoch))
            .collect();
        Ok(Fleet { spec: *spec, servers, reactors, shards, workers, timed, init, batches })
    }

    /// Switches the wrappers and the `EA_TRACE=counters` level on or off.
    fn set_recording(&self, on: bool) {
        ea_trace::set_level(if on { ea_trace::Level::Counters } else { ea_trace::Level::Off });
        for t in &self.timed {
            t.set_on(on);
        }
    }

    /// Runs `rounds` on every worker, released together.
    fn run(&self, rounds: Range<u64>, record: bool) -> Result<Window, String> {
        let start = Arc::new(Barrier::new(N_WORKERS + 1));
        for w in &self.workers {
            let cmd = Run { rounds: rounds.clone(), start: Arc::clone(&start), record };
            w.cmd.send(cmd).map_err(|_| "a worker thread has died".to_string())?;
        }
        start.wait();
        let t0 = Instant::now();
        let mut per_worker = Vec::new();
        let mut spans = Vec::new();
        for w in &self.workers {
            let (samples, s) =
                w.done.recv().map_err(|_| "a worker thread has died".to_string())??;
            per_worker.push(samples);
            spans.extend(s);
        }
        Ok(Window { t0, per_worker, spans })
    }

    /// The set-up check: replays the warm-up rounds on an in-process
    /// [`ElasticTrainer`] and compares its reference weights with the
    /// fleet's. Lossless exchanges must agree bit for bit; the int8 wire
    /// must stay within 5% in L2, the envelope `elastic_worker
    /// --verify-local` uses.
    fn check_warmup(&self, warmup: &Window, rounds: u64) -> Vec<Check> {
        let spec = &self.spec;
        let mut checks = Summary::default();
        let mut replay = ElasticTrainer::new(
            (0..N_WORKERS).map(|_| model(spec).into_stages()).collect(),
            (0..N_WORKERS).map(|_| optimizers(spec)).collect(),
            spec.micros,
            None,
            model(spec),
        );
        let replay_losses: Vec<f32> =
            self.batches[..rounds as usize].iter().map(|batches| replay.round(batches)).collect();
        let reference: Vec<Vec<f32>> =
            (0..self.shards.len()).map(|s| replay.reference(s)).collect();
        let fleet: Option<Vec<Vec<f32>>> =
            self.shards.iter().map(|sh| sh.try_weights_at(rounds)).collect();
        let Some(fleet) = fleet else {
            checks.check(format!("every shard is at version {rounds} after warm-up"), false);
            return checks.checks;
        };
        if spec.exchange == Exchange::Tcp(Codec::Int8) {
            let (mut dist, mut norm) = (0.0f64, 0.0f64);
            for (a, b) in fleet.iter().flatten().zip(reference.iter().flatten()) {
                dist += f64::from(a - b).powi(2);
                norm += f64::from(*b).powi(2);
            }
            let rel = dist.sqrt() / norm.sqrt().max(1.0);
            checks.check(
                format!("reference after warm-up within 5% of the f32 replay (rel L2 {rel:.4})"),
                rel <= 0.05,
            );
        } else {
            checks.check(
                "reference after warm-up is bit-identical to the in-process replay",
                references_match(&fleet, &reference),
            );
            checks.check(
                "warm-up losses are bit-identical to the in-process replay",
                warmup.mean_losses() == replay_losses,
            );
        }
        checks.checks
    }

    fn tear_down(self) {
        let joins: Vec<JoinHandle<()>> = self.workers.into_iter().map(|w| w.join).collect();
        // The command senders are gone now, which ends each worker's loop.
        for join in joins {
            join.join().expect("worker thread panicked");
        }
        for reactor in self.reactors {
            reactor.shutdown();
        }
    }
}

/// Whether two sets of per-shard weights are bit-identical (CRC32 of
/// their little-endian bytes, shard by shard).
pub fn references_match(a: &[Vec<f32>], b: &[Vec<f32>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| weights_crc(x) == weights_crc(y))
}

/// First round (0-based) whose trailing-[`TRAIL`]-round mean loss is at
/// or below `target`.
pub fn first_at_target(mean_losses: &[f32], target: f32) -> Option<usize> {
    (TRAIL - 1..mean_losses.len()).find(|&r| {
        let window = &mean_losses[r + 1 - TRAIL..=r];
        window.iter().map(|l| f64::from(*l)).sum::<f64>() / TRAIL as f64 <= f64::from(target)
    })
}

/// One run of a training workload.
pub fn run(spec: &TrainSpec, seed: u64, trace: bool, smoke: bool) -> (Summary, Vec<Span>) {
    let mut summary = Summary { workload: spec.name, seed, traced: trace, ..Summary::default() };
    summary.info.push(format!(
        "training data is the committed stream {DATA_STREAM}: --seed {seed} changes nothing in a \
         train_* run, which replays one trajectory"
    ));
    let spin_iters = if smoke { SPIN_ITERS / SMOKE_DIVISOR } else { SPIN_ITERS };
    let spin_before = env::spin_ms(spin_iters);
    let spans = if trace {
        traced(spec, smoke, &mut summary)
    } else {
        untraced(spec, smoke, &mut summary);
        Vec::new()
    };
    let spin_after = env::spin_ms(spin_iters);
    note_spin(&mut summary, spin_before, spin_after);
    (summary, spans)
}

/// Records the two spin readings and says so if they disagree.
pub fn note_spin(summary: &mut Summary, before: f64, after: f64) {
    if summary.traced {
        summary.set("env.spin_ms_before", before);
        summary.set("env.spin_ms_after", after);
    }
    let gap = (after - before).abs() / before.min(after);
    summary.info.push(format!("spin {before:.2} ms before, {after:.2} ms after"));
    if gap > SPIN_GAP_LIMIT {
        summary.info.push(format!("DISTURBED: spin readings differ by {:.0}%", gap * 100.0));
    }
}

fn horizon(spec: &TrainSpec, smoke: bool) -> (u64, u64) {
    if smoke {
        (WARMUP_ROUNDS / 4, spec.rounds / SMOKE_DIVISOR)
    } else {
        (WARMUP_ROUNDS, spec.rounds)
    }
}

fn server_counters(fleet: &Fleet) -> (u64, u64) {
    fleet.servers.iter().fold((0, 0), |(pv, crc), s| {
        let m = s.metrics();
        (pv + m.protocol_violations, crc + m.crc_failures)
    })
}

fn untraced(spec: &TrainSpec, smoke: bool, summary: &mut Summary) {
    let (warmup, rounds) = horizon(spec, smoke);
    let passes = if smoke { 1 } else { SETUP_PASSES };
    let epoch = Instant::now();
    let mut setup_s = Vec::new();
    let mut kept = None;
    for pass in 0..passes {
        let t0 = Instant::now();
        let fleet = match Fleet::build(spec, warmup + rounds, false, epoch, None) {
            Ok(fleet) => fleet,
            Err(e) => return summary.check(format!("set-up: {e}"), false),
        };
        let window = match fleet.run(0..warmup, false) {
            Ok(w) => w,
            Err(e) => return summary.check(format!("warm-up: {e}"), false),
        };
        let checks = fleet.check_warmup(&window, warmup);
        setup_s.push(t0.elapsed().as_secs_f64());
        if pass + 1 == passes {
            summary.checks.extend(checks);
            kept = Some(fleet);
        } else {
            fleet.tear_down();
        }
    }
    let fleet = kept.expect("the last pass is kept");
    summary.info.push(format!("set-up passes: {setup_s:.3?} s"));
    summary.set("setup_s", stats::median(&mut setup_s));

    let window = match fleet.run(warmup..warmup + rounds, false) {
        Ok(w) => w,
        Err(e) => {
            summary.attempted = rounds * N_WORKERS as u64;
            summary.failed = summary.attempted;
            summary.check(format!("timed window: {e}"), false);
            return fleet.tear_down();
        }
    };
    end_to_end(spec, &window, smoke, summary);
    let (violations, crc_failures) = server_counters(&fleet);
    summary.check(
        format!("server protocol_violations = {violations}, crc_failures = {crc_failures}"),
        violations == 0 && crc_failures == 0,
    );
    fleet.tear_down();
}

/// The seven end-to-end metrics and the output checks of a timed window.
fn end_to_end(spec: &TrainSpec, window: &Window, smoke: bool, summary: &mut Summary) {
    let rounds = window.rounds();
    let losses = window.mean_losses();
    let wall = window.wall_s();
    let round_ms = window.round_ms();
    summary.attempted = (rounds * N_WORKERS) as u64;
    summary.failed = 0;

    let reached = first_at_target(&losses, spec.target_loss);
    let at = reached.unwrap_or(rounds - 1);
    let reached_at = window
        .per_worker
        .iter()
        .map(|w| w[at].end)
        .max()
        .expect("at least one worker")
        .duration_since(window.t0)
        .as_secs_f64();
    let limit_ms = ROUND_LIMIT_FACTOR * spec.ref_p50_ms;
    let ranges = stats::segments(rounds, SEGMENTS);
    let mut by_segment: Vec<Vec<f64>> = ranges
        .iter()
        .map(|range| {
            window
                .per_worker
                .iter()
                .flat_map(|w| &w[range.clone()])
                .map(|s| s.end.duration_since(s.start).as_secs_f64() * 1e3)
                .collect()
        })
        .collect();
    // A segment ends when the last worker finishes its last round.
    let ends: Vec<Instant> = ranges
        .iter()
        .map(|r| window.per_worker.iter().map(|w| w[r.end - 1].end).max().expect("a worker"))
        .collect();
    let mut rates: Vec<f64> = ranges
        .iter()
        .enumerate()
        .map(|(k, r)| {
            let from = if k == 0 { window.t0 } else { ends[k - 1] };
            r.len() as f64 / ends[k].duration_since(from).as_secs_f64()
        })
        .collect();

    summary.set("time_to_target_s", reached_at);
    summary.set("ops_to_target", (at + 1) as f64);
    summary.set("ops_per_s", stats::median(&mut rates));
    summary.set(
        "op_p50_ms",
        stats::median_over_segments(&mut by_segment, |s| stats::percentile(s, 0.50)),
    );
    let p95 = stats::median_over_segments(&mut by_segment, |s| stats::percentile(s, 0.95));
    summary.set(
        "ok_share",
        stats::median_over_segments(&mut by_segment, |s| {
            s.iter().filter(|ms| **ms <= limit_ms).count() as f64 / s.len() as f64
        }),
    );

    summary.info.push(format!(
        "{rounds} rounds in {wall:.3} s; {} round samples; limit {limit_ms:.1} ms; median \
         segment's p95 {p95:.3} ms; whole-window p50 {:.3} p95 {:.3} ms",
        round_ms.len(),
        stats::percentile(&round_ms, 0.50),
        stats::percentile(&round_ms, 0.95),
    ));
    let trail_at = |r: usize| {
        losses[r + 1 - TRAIL..=r].iter().map(|l| f64::from(*l)).sum::<f64>() / TRAIL as f64
    };
    let tenths: Vec<String> = (1..=10)
        .map(|i| (rounds * i / 10).max(TRAIL) - 1)
        .map(|r| format!("{:.3}", trail_at(r)))
        .collect();
    summary.info.push(format!(
        "trailing-{TRAIL} loss at each tenth of the horizon: {} (target {})",
        tenths.join(" "),
        spec.target_loss
    ));
    summary.info.push(format!("loss_crc {:#010x}", weights_crc(&losses)));

    summary.check("every loss is finite", losses.iter().all(|l| l.is_finite()));
    if !smoke {
        // The crossings were derived on one set of random streams; on any
        // other they are information, not a check.
        let calibrated = env::rng_streams_calibrated();
        let mut crossing = |what: String, passed: bool| {
            if calibrated {
                summary.check(what, passed);
            } else {
                summary.info.push(format!("UNCALIBRATED, not checked: {what}: {passed}"));
            }
        };
        crossing(
            format!("target loss {} reached before round {rounds}", spec.target_loss),
            reached.is_some(),
        );
        if spec.exchange == Exchange::Tcp(Codec::Int8) {
            let budget = (1.1 * F32_OPS_TO_TARGET as f64).ceil() as usize;
            crossing(
                format!("int8 reaches the target within {budget} rounds (1.1 x f32's)"),
                reached.is_some_and(|r| r < budget),
            );
        }
    }
}

/// Shares of `loop_ms` (the workers' summed loop wall) spent in
/// `pull_all`, in a round's self time (stage compute and error feedback),
/// in `submit_all`, and between rounds in the harness.
pub fn budget_shares(spans: &[Span], loop_ms: f64) -> [f64; 4] {
    let sum = |v: Vec<f64>| v.iter().sum::<f64>();
    let round_ms = sum(span::durations_ms(spans, "round"));
    let pull_ms = sum(span::durations_ms(spans, "pull_all"));
    let submit_ms = sum(span::durations_ms(spans, "submit_all"));
    let compute_ms = sum(span::self_times_ms(spans, "round"));
    [pull_ms, compute_ms, submit_ms, loop_ms - round_ms].map(|ms| ms / loop_ms)
}

/// A traced run; returns its spans.
fn traced(spec: &TrainSpec, smoke: bool, summary: &mut Summary) -> Vec<Span> {
    let (warmup, window_rounds) = if smoke {
        (WARMUP_ROUNDS / 4, TRACED_ROUNDS / SMOKE_DIVISOR)
    } else {
        (WARMUP_ROUNDS, TRACED_ROUNDS)
    };
    let total = warmup + 2 * window_rounds;
    let epoch = Instant::now();
    let mut batch_sink = Sink::new(epoch, 100);
    let fleet = match Fleet::build(spec, total, true, epoch, Some(&mut batch_sink)) {
        Ok(fleet) => fleet,
        Err(e) => {
            summary.check(format!("set-up: {e}"), false);
            return Vec::new();
        }
    };
    let mut spans = batch_sink.into_spans();
    let scale = if smoke { SMOKE_DIVISOR as usize } else { 1 };
    let result = traced_windows(&fleet, warmup, window_rounds, scale, summary, &mut spans);
    if let Err(e) = result {
        summary.check(format!("traced run: {e}"), false);
    }
    fleet.tear_down();
    spans
}

fn counter(name: &str) -> u64 {
    ea_trace::metrics::global().counter(name).get()
}

/// Process-wide transport counters: every frame on the wire is counted
/// once, by its sender, whichever side that is.
const COMMS_COUNTERS: [&str; 3] =
    ["ea_comms_bytes_sent_total", "ea_comms_frames_sent_total", "ea_comms_retries_total"];

fn traced_windows(
    fleet: &Fleet,
    warmup: u64,
    n: u64,
    // Divides the probe and single-step counts (`--smoke`).
    scale: usize,
    summary: &mut Summary,
    spans: &mut Vec<Span>,
) -> Result<(), String> {
    let spec = &fleet.spec;
    let warm = fleet.run(0..warmup, false)?;
    summary.checks.extend(fleet.check_warmup(&warm, warmup));

    // Reference and traced windows alternate (off, on, off, on), so that
    // a drift in the machine's speed lands on both sides of the overhead.
    let half = n / 2;
    let mut reference_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let (mut wall, mut loop_ms, mut reactor_cpu) = (0.0, 0.0, 0.0);
    let (mut bytes, mut frames, mut retries) = (0, 0, 0);
    let (mut pool_hits, mut pool_misses) = (0, 0);
    let mut next = warmup;
    for _ in 0..2 {
        fleet.set_recording(false);
        reference_ms.extend(fleet.run(next..next + half, false)?.round_ms());
        next += half;

        fleet.set_recording(true);
        ea_tensor::pool::reset_stats();
        let counters0 = COMMS_COUNTERS.map(counter);
        let reactor_cpu0 = env::threads_cpu_s("ea-reactor");
        let window = fleet.run(next..next + half, true)?;
        next += half;
        reactor_cpu += env::threads_cpu_s("ea-reactor") - reactor_cpu0;
        let counters1 = COMMS_COUNTERS.map(counter);
        bytes += counters1[0] - counters0[0];
        frames += counters1[1] - counters0[1];
        retries += counters1[2] - counters0[2];
        let pool = ea_tensor::pool::stats();
        pool_hits += pool.hits;
        pool_misses += pool.misses;
        wall += window.wall_s();
        // Where the budget's shares come from: each worker's loop wall.
        loop_ms += window
            .per_worker
            .iter()
            .map(|w| w.last().map_or(0.0, |l| l.end.duration_since(w[0].start).as_secs_f64() * 1e3))
            .sum::<f64>();
        traced_ms.extend(window.round_ms());
        spans.extend(window.spans);
    }
    stats::sort(&mut reference_ms);
    stats::sort(&mut traced_ms);
    let reference_p50 = stats::percentile(&reference_ms, 0.50);
    let rounds = (2 * half) as f64;
    summary.attempted = 2 * half * N_WORKERS as u64;

    let mut parked = 0;
    let mut captured: Vec<Vec<RoundDeltas>> = Vec::new();
    for t in &fleet.timed {
        let rec = t.take();
        parked += rec.parked_pulls;
        captured.push(rec.captured);
        spans.extend(rec.spans);
    }

    let shares = budget_shares(spans, loop_ms);
    summary.set("budget.pull_share", shares[0]);
    summary.set("budget.compute_share", shares[1]);
    summary.set("budget.submit_share", shares[2]);
    summary.set("budget.other_share", shares[3]);
    summary.set("budget.exchange_share", shares[0] + shares[2]);
    let total: f64 = shares.iter().sum();
    summary.check(format!("budget shares sum to 1 (sum {total:.4})"), (total - 1.0).abs() <= 0.02);
    let mut compute = span::self_times_ms(spans, "round");

    stats::sort(&mut compute);
    summary.set("ea-runtime.compute_ms_p50", stats::percentile(&compute, 0.50));
    summary.set("ea-runtime.compute_ms_p95", stats::percentile(&compute, 0.95));
    let mut pulls = span::durations_ms(spans, "pull_all");
    let mut submits = span::durations_ms(spans, "submit_all");
    stats::sort(&mut pulls);
    stats::sort(&mut submits);
    let pull_p50 = stats::percentile(&pulls, 0.50);
    summary.set("ea-comms.pull_ms_p50", pull_p50);
    summary.set("ea-comms.pull_ms_p95", stats::percentile(&pulls, 0.95));
    summary.set("ea-comms.submit_ms_p50", stats::percentile(&submits, 0.50));
    summary.set("ea-comms.submit_ms_p95", stats::percentile(&submits, 0.95));

    let mut batch_us: Vec<f64> =
        span::durations_ms(spans, "batch").iter().map(|ms| ms * 1e3).collect();
    summary.set("ea-data.batch_gen_us", stats::median(&mut batch_us));

    let traced_p50 = stats::percentile(&traced_ms, 0.50);
    summary.set("loadgen.op_p95_ms", stats::percentile(&traced_ms, 0.95));
    summary.set("trace.overhead_share", traced_p50 / reference_p50 - 1.0);
    summary.info.push(format!(
        "op_p50_ms {reference_p50:.3} with recording off, {traced_p50:.3} with it on \
         ({} rounds each, in alternating windows of {half})",
        2 * half
    ));

    if !fleet.servers.is_empty() {
        summary.set("ea-comms.wire_bytes_per_round", bytes as f64 / rounds);
        summary.set("ea-comms.frames_per_round", frames as f64 / rounds);
        summary.set("ea-comms.retries", retries as f64);
        summary.check(format!("no request was retransmitted ({retries} retries)"), retries == 0);
        summary.set("ea-comms.reactor_cpu_share", reactor_cpu / wall);
        summary.set("ea-runtime.parked_pulls", parked as f64);
        let (violations, crc_failures) = server_counters(fleet);
        summary.set("ea-runtime.protocol_violations", violations as f64);
        summary.set("ea-runtime.crc_failures", crc_failures as f64);
        summary.check(
            format!("server protocol_violations = {violations}, crc_failures = {crc_failures}"),
            violations == 0 && crc_failures == 0,
        );

        // `pull_latest` never parks: wire and server cost, no barrier.
        for i in 0..PROBES / scale {
            let (_, weights) = fleet.timed[0]
                .pull_latest(0, i % fleet.shards.len())
                .map_err(|e| format!("probe: {e}"))?;
            ea_tensor::pool::recycle(weights);
        }
        let probe_spans = fleet.timed[0].take().spans;
        let mut probes = span::durations_ms(&probe_spans, "pull_latest");
        let probe_p50 = stats::median(&mut probes);
        summary.set("ea-comms.probe_rtt_ms_p50", probe_p50);
        summary.set("ea-comms.barrier_wait_ms_p50", (pull_p50 - probe_p50).max(0.0));
        spans.extend(probe_spans);
    }

    summary.set(
        "ea-tensor.pool_hit_share",
        pool_hits as f64 / (pool_hits + pool_misses).max(1) as f64,
    );
    let peak = ea_tensor::pool::stats().peak_pooled_bytes;
    summary.set("ea-tensor.pool_peak_mb", peak as f64 / (1 << 20) as f64);

    replay_layers(fleet, &captured, summary, spans)?;

    // The single-worker baseline: one plain pipeline, same batches.
    let mut single =
        ThreadedPipeline::spawn(model(spec).into_stages(), optimizers(spec), spec.micros);
    let mut sink = Sink::new(Instant::now(), 0);
    let steps = (SINGLE_STEPS / scale).min(fleet.batches.len());
    let t_single = Instant::now();
    for (i, batches) in fleet.batches.iter().take(steps).enumerate() {
        let t0 = Instant::now();
        std::hint::black_box(single.step(&batches[0]));
        sink.record("single_step", None, i as u64, t0, Instant::now());
    }
    let single_wall = t_single.elapsed().as_secs_f64();
    drop(single);
    let single_spans = sink.into_spans();
    let mut single_ms = span::durations_ms(&single_spans, "single_step");
    summary.set("ea-runtime.single_step_ms_p50", stats::median(&mut single_ms));
    // Fleet samples/s over N times one pipeline's samples/s; the batch
    // size cancels.
    let fleet_rounds_per_s = rounds / wall;
    let single_steps_per_s = steps as f64 / single_wall;
    summary.set("ea-runtime.scaling_efficiency", fleet_rounds_per_s / single_steps_per_s);
    spans.extend(single_spans);

    summary.set("proc.peak_rss_mb", env::peak_rss_mb());
    Ok(())
}

/// Replays the deltas captured from the run through each layer's public
/// functions, one call at a time.
fn replay_layers(
    fleet: &Fleet,
    captured: &[Vec<RoundDeltas>],
    summary: &mut Summary,
    spans: &mut Vec<Span>,
) -> Result<(), String> {
    let mut sink = Sink::new(Instant::now(), 0);
    let n_rounds = captured.iter().map(Vec::len).min().unwrap_or(0);
    if n_rounds == 0 {
        return Err("no deltas were captured".into());
    }

    // RefShard::submit_at on a scratch shard: the last worker's call
    // normalises and applies the round.
    for (s, init) in fleet.init.iter().enumerate() {
        let scratch = RefShard::new(init.clone(), N_WORKERS);
        for round in 0..n_rounds {
            for (pipe, per_pipe) in captured.iter().enumerate() {
                let delta = per_pipe[round][s].clone();
                let t0 = Instant::now();
                scratch
                    .submit_at(round as u64, pipe, delta)
                    .map_err(|e| format!("scratch submit: {e}"))?;
                if pipe + 1 == captured.len() {
                    sink.record("apply", None, round as u64, t0, Instant::now());
                }
            }
        }
    }

    let codec = match fleet.spec.exchange {
        Exchange::Tcp(codec) => Some(codec),
        Exchange::Local => None,
    };
    let (mut dense, mut encoded) = (0usize, 0usize);
    if let Some(codec) = codec {
        let mut feedback = ErrorFeedback::new(codec, fleet.init.len());
        let mut blob = Vec::new();
        for (round, deltas) in captured[0].iter().enumerate() {
            for (s, delta) in deltas.iter().enumerate() {
                let op = round as u64;
                let t0 = Instant::now();
                let rounded = feedback.apply(s, delta.clone());
                sink.record("feedback", None, op, t0, Instant::now());
                ea_tensor::pool::recycle(rounded);

                blob.clear();
                let t0 = Instant::now();
                codec.encode(delta, &mut blob);
                let t1 = Instant::now();
                let back = codec.decode(delta.len(), &blob).map_err(|e| format!("decode: {e}"))?;
                let t2 = Instant::now();
                sink.record("encode", None, op, t0, t1);
                sink.record("decode", None, op, t1, t2);
                dense += delta.len() * 4;
                encoded += blob.len();
                std::hint::black_box(back);
            }
        }
    }

    if fleet.spec.name == TRAIN_WIRE_F32.name {
        let dir = std::path::Path::new("target/ea-bench");
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("checkpoint-{}.json", std::process::id()));
        let mut bytes = 0;
        for i in 0..CHECKPOINTS {
            let t0 = Instant::now();
            let written =
                fleet.servers[0].checkpoint_now(&path).map_err(|e| format!("checkpoint: {e}"))?;
            sink.record("checkpoint", None, i as u64, t0, Instant::now());
            if !written {
                return Err("checkpoint_now wrote nothing between rounds".into());
            }
            bytes = std::fs::metadata(&path).map_err(|e| format!("checkpoint file: {e}"))?.len();
        }
        std::fs::remove_file(&path).map_err(|e| format!("remove checkpoint: {e}"))?;
        summary.set("ea-runtime.checkpoint_bytes", bytes as f64);
    }

    let recorded = sink.into_spans();
    let p50_us = |name: &str| {
        let mut v: Vec<f64> =
            span::durations_ms(&recorded, name).iter().map(|ms| ms * 1e3).collect();
        if v.is_empty() {
            0.0
        } else {
            stats::median(&mut v)
        }
    };
    summary.set("ea-runtime.apply_us_p50", p50_us("apply"));
    summary.set("ea-runtime.feedback_us_p50", p50_us("feedback"));
    if dense > 0 {
        let mb = dense as f64 / 1e6;
        let total_us = |name: &str| span::durations_ms(&recorded, name).iter().sum::<f64>() * 1e3;
        summary.set("ea-optim.encode_us_per_mb", total_us("encode") / mb);
        summary.set("ea-optim.decode_us_per_mb", total_us("decode") / mb);
        summary.set("ea-optim.compress_ratio", dense as f64 / encoded as f64);
    }
    let checkpoints = span::durations_ms(&recorded, "checkpoint");
    if !checkpoints.is_empty() {
        summary.set(
            "ea-runtime.checkpoint_ms",
            checkpoints.iter().sum::<f64>() / checkpoints.len() as f64,
        );
    }
    spans.extend(recorded);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_shares_sum_to_one() {
        let epoch = Instant::now();
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let mut sink = Sink::new(epoch, 0);
        // Two rounds of 10 ms with a 1 ms gap between them: 21 ms of loop.
        for (op, t) in [(1u64, 0u64), (2, 11)] {
            sink.record("round", None, op, at(t), at(t + 10));
            sink.record("pull_all", Some("round"), op, at(t), at(t + 3));
            sink.record("submit_all", Some("round"), op, at(t + 8), at(t + 10));
        }
        let shares = budget_shares(&sink.into_spans(), 21.0);
        let expect = [6.0 / 21.0, 10.0 / 21.0, 4.0 / 21.0, 1.0 / 21.0];
        for (got, want) in shares.iter().zip(expect) {
            assert!((got - want).abs() < 1e-9, "{shares:?}");
        }
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn target_is_the_first_round_whose_trailing_mean_is_low_enough() {
        let mut losses = vec![5.0f32; 20];
        losses[12..].fill(3.0);
        // The window of rounds 8..=15 is the first with half its rounds at 3.
        assert_eq!(first_at_target(&losses, 4.0), Some(15));
        assert_eq!(first_at_target(&losses, 3.0), Some(19));
        assert_eq!(first_at_target(&losses, 2.9), None);
        assert_eq!(first_at_target(&losses[..5], 9.0), None);
    }

    /// The set-up check compares CRCs of the reference's bytes: one flipped
    /// bit in the replayed reference fails it, and a failed check is what
    /// makes the command exit non-zero.
    #[test]
    fn one_flipped_bit_in_the_replay_fails_the_check() {
        let fleet = vec![vec![0.5f32, -1.25, 3.0], vec![1.0, 2.0]];
        let mut replay = fleet.clone();
        assert!(references_match(&fleet, &replay));
        replay[1][0] = f32::from_bits(replay[1][0].to_bits() ^ 1);
        assert!(!references_match(&fleet, &replay));
        let mut summary = Summary::default();
        summary
            .check("reference after warm-up is bit-identical", references_match(&fleet, &replay));
        assert!(!summary.correct());
        assert!(summary.json_line().starts_with("{\"correct\": false"));
    }
}
