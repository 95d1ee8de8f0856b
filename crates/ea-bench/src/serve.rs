//! The `serve_*` workloads: an open-loop load generator (one connection,
//! a sender thread and a receiver thread) drives a `spawn_serving`
//! frontend with a fixed-count seeded Poisson schedule, through hot weight
//! swaps that a one-pipeline trainer stub triggers at a fixed cadence.
//! Every request is timed from the moment it was due, so a stall costs
//! every request behind it.

use crate::consts::*;
use crate::env;
use crate::report::Summary;
use crate::span::{self, Sink, Span};
use crate::stats;
use crate::train::note_spin;
use ea_autograd::StagedModel;
use ea_comms::reactor::ReactorConfig;
use ea_comms::wire::Message;
use ea_comms::{CommsError, Reactor, RetryConfig, ShardClient, TcpConfig, TcpTransport, Transport};
use ea_models::{analogue_spec, gnmt_analogue};
use ea_runtime::RefShardServer;
use ea_serve::{spawn_serving, ServeConfig, ServeEngine, SubscriberHandle, WeightsSubscriber};
use ea_tensor::{Tensor, TensorRng};
use ea_trace::{HistogramSnapshot, RegistrySnapshot};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the receiver waits for stragglers after the last due time.
const DRAIN: Duration = Duration::from_secs(5);

fn model() -> StagedModel {
    gnmt_analogue(SERVE_CFG, &mut TensorRng::seed_from_u64(MODEL_SEED))
}

/// One scheduled request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    pub id: u64,
    /// Offset of its due time from the start of its window.
    pub due: Duration,
    pub input: Vec<f32>,
}

/// A seeded open-loop schedule: `rps × millis / 1000` requests with
/// exponential gaps, scaled so that they span exactly `millis`. The count
/// is fixed by construction; the same seed gives the same due times and
/// inputs. Ids start at `first_id`.
pub fn schedule(seed: u64, rps: u64, millis: u64, first_id: u64) -> Vec<Request> {
    let n = (rps * millis / 1000) as usize;
    let mut rng = TensorRng::seed_from_u64(seed ^ first_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Exponential gaps; `cum[n]` closes the last gap, so the last request
    // is due before the window ends.
    let mut cum = Vec::with_capacity(n + 1);
    let mut t = 0.0f64;
    for _ in 0..=n {
        cum.push(t);
        t += -f64::from(1.0 - rng.uniform(0.0, 1.0)).ln();
    }
    let scale = millis as f64 / 1e3 / t;
    (0..n)
        .map(|i| Request {
            id: first_id + i as u64,
            due: Duration::from_secs_f64(cum[i] * scale),
            input: (0..SERVE_CFG.seq).map(|_| rng.below(SERVE_CFG.vocab) as f32).collect(),
        })
        .collect()
}

/// When, from the start of a window of `millis`, its swaps are scheduled:
/// every [`SWAP_EVERY_MS`], the window's end excluded.
pub fn swap_times(millis: u64) -> Vec<Duration> {
    (1..millis.div_ceil(SWAP_EVERY_MS)).map(|k| Duration::from_millis(k * SWAP_EVERY_MS)).collect()
}

/// What came back for one request.
#[derive(Clone, Debug)]
struct Reply {
    at: Instant,
    version: u64,
    shed: bool,
    /// Kept for one request in [`REPLAY_EVERY`].
    output: Option<Vec<f32>>,
}

/// One version the trainer stub published: when its last submit was
/// acknowledged, and the reference weights by shard.
struct Published {
    version: u64,
    acked: Instant,
    weights: Vec<Vec<f32>>,
}

/// Results of driving one window.
struct Driven {
    t0: Instant,
    sent: Vec<Instant>,
    /// By position in the schedule; `None` if no reply came.
    replies: Vec<Option<Reply>>,
    /// By position in the schedule: ms from the due time to the reply;
    /// `None` for a request that was shed or never answered.
    latency_ms: Vec<Option<f64>>,
    /// Versions in the order replies arrived.
    arrival_versions: Vec<u64>,
    published: Vec<Published>,
    spans: Vec<Span>,
}

/// Frontend, trainer stub and load-generator connection of one set-up.
struct Rig {
    engine: Arc<ServeEngine>,
    reactor: Reactor,
    subscriber: SubscriberHandle,
    server: RefShardServer,
    stub: ShardClient,
    tx: TcpTransport,
    rx: TcpTransport,
    /// One seeded delta per shard, submitted anew at every swap.
    deltas: Vec<Vec<f32>>,
    /// Next round the stub submits (= versions published so far).
    next_round: u64,
    /// Weights of every version served so far, version 0 first.
    history: Vec<Vec<Vec<f32>>>,
}

impl Rig {
    fn build(seed: u64) -> Result<Rig, String> {
        let active = model();
        let init: Vec<Vec<f32>> =
            (0..active.num_stages()).map(|k| active.stage(k).params_flat()).collect();
        let server = RefShardServer::from_initial_weights(init.clone(), 1);
        let engine = ServeEngine::start(
            active,
            model(),
            0,
            &analogue_spec(SERVE_CFG),
            ServeConfig {
                input_len: SERVE_CFG.seq,
                queue_cap: 4096,
                max_coalesce_delay: Duration::from_millis(COALESCE_DELAY_MS),
                ..ServeConfig::default()
            },
        );
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let reactor = spawn_serving(
            listener,
            ReactorConfig { threads: 1, ..ReactorConfig::default() },
            Arc::clone(&engine),
            &server,
        )
        .map_err(|e| format!("spawn_serving: {e}"))?;
        let addr = reactor.local_addr();
        let subscriber = WeightsSubscriber::spawn(addr, TcpConfig::default(), Arc::clone(&engine));

        let conn = TcpTransport::connect(addr, TcpConfig::default())
            .map_err(|e| format!("stub connect: {e}"))?;
        let retry = RetryConfig { reply_timeout: Duration::from_secs(10), max_attempts: 2 };
        let stub = ShardClient::handshake(Box::new(conn), 0, retry)
            .map_err(|e| format!("stub handshake: {e}"))?;

        let stream = TcpStream::connect(addr).map_err(|e| format!("loadgen connect: {e}"))?;
        let clone = stream.try_clone().map_err(|e| format!("clone stream: {e}"))?;
        let tx = TcpTransport::from_stream(stream, TcpConfig::default())
            .map_err(|e| format!("send half: {e}"))?;
        let rx = TcpTransport::from_stream(clone, TcpConfig::default())
            .map_err(|e| format!("receive half: {e}"))?;

        let mut rng = TensorRng::seed_from_u64(seed ^ 0xDE17A);
        let deltas =
            init.iter().map(|w| (0..w.len()).map(|_| rng.uniform(-1e-3, 1e-3)).collect()).collect();
        Ok(Rig {
            engine,
            reactor,
            subscriber,
            server,
            stub,
            tx,
            rx,
            deltas,
            next_round: 0,
            history: vec![init],
        })
    }

    /// Sends `requests` on schedule, receives their replies and lets the
    /// trainer stub publish a new version at each of `swaps`.
    fn drive(&mut self, requests: &[Request], swaps: &[Duration], record: bool) -> Driven {
        let n = requests.len();
        let first_id = requests.first().map_or(0, |r| r.id);
        let t0 = Instant::now() + Duration::from_millis(5);
        let last_due = requests.last().map_or(Duration::ZERO, |r| r.due);
        let deadline = t0 + last_due + DRAIN;
        let Rig { tx, rx, stub, deltas, next_round, .. } = self;

        let (sent, send_spans, received, published) = std::thread::scope(|scope| {
            let sender = scope.spawn(move || {
                let mut sink = Sink::new(t0, 0);
                let mut sent = Vec::with_capacity(n);
                for req in requests {
                    sleep_until(t0 + req.due);
                    let at = Instant::now();
                    if tx.send(Message::Infer { id: req.id, input: req.input.clone() }).is_err() {
                        break;
                    }
                    if record {
                        sink.record("send", Some("request"), req.id, at, Instant::now());
                    }
                    sent.push(at);
                }
                (sent, sink.into_spans())
            });
            let receiver = scope.spawn(move || {
                let mut replies: Vec<(u64, Reply)> = Vec::with_capacity(n);
                while replies.len() < n {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    match rx.recv_timeout(deadline - now) {
                        Ok(Message::InferReply { id, version, shed, output }) => {
                            let keep = id % REPLAY_EVERY == 0;
                            let reply = Reply {
                                at: Instant::now(),
                                version,
                                shed,
                                output: keep.then_some(output),
                            };
                            replies.push((id, reply));
                        }
                        Ok(_) => {}
                        Err(_) => break,
                    }
                }
                replies
            });
            let trainer = scope.spawn(move || {
                let mut published = Vec::new();
                for at in swaps {
                    sleep_until(t0 + *at);
                    for (shard, delta) in deltas.iter().enumerate() {
                        stub.submit(shard, *next_round, delta.clone())?;
                    }
                    let acked = Instant::now();
                    *next_round += 1;
                    let mut weights = Vec::new();
                    for shard in 0..deltas.len() {
                        let (version, w) = stub.pull_latest(shard)?;
                        if version != *next_round {
                            return Err(CommsError::Protocol(format!(
                                "shard {shard} is at version {version}, not {next_round}"
                            )));
                        }
                        weights.push(w);
                    }
                    published.push(Published { version: *next_round, acked, weights });
                }
                Ok::<_, CommsError>(published)
            });
            let (sent, spans) = sender.join().expect("sender panicked");
            let received = receiver.join().expect("receiver panicked");
            let published = trainer.join().expect("trainer stub panicked");
            (sent, spans, received, published)
        });

        let mut spans = send_spans;
        let mut replies: Vec<Option<Reply>> = vec![None; n];
        let mut latency_ms = vec![None; n];
        let mut arrival_versions = Vec::with_capacity(received.len());
        let mut sink = Sink::new(t0, 1);
        for (id, reply) in received {
            let Some(i) = id.checked_sub(first_id).map(|i| i as usize).filter(|i| *i < n) else {
                continue; // a straggler from an earlier window
            };
            let due = t0 + requests[i].due;
            arrival_versions.push(reply.version);
            if !reply.shed {
                latency_ms[i] = Some(reply.at.saturating_duration_since(due).as_secs_f64() * 1e3);
            }
            if record {
                sink.record("request", None, id, due, reply.at);
            }
            replies[i] = Some(reply);
        }
        spans.extend(sink.into_spans());
        // A failed swap leaves `published` short; the swap-count check
        // reports it.
        let published = published.unwrap_or_default();
        for p in &published {
            self.history.push(p.weights.clone());
        }
        Driven { t0, sent, replies, latency_ms, arrival_versions, published, spans }
    }

    fn tear_down(self) {
        self.subscriber.stop();
        self.reactor.shutdown_graceful(Duration::from_secs(5));
        self.engine.shutdown();
        drop(self.server);
    }
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if now < due {
        std::thread::sleep(due - now);
    }
}

/// Latency (ms, from due time) of every answered, unshed request, sorted.
fn latencies_ms(d: &Driven) -> Vec<f64> {
    let mut out: Vec<f64> = d.latency_ms.iter().flatten().copied().collect();
    stats::sort(&mut out);
    out
}

/// The output checks of one driven window.
fn check_outputs(rig: &Rig, requests: &[Request], swaps: usize, d: &Driven, summary: &mut Summary) {
    let answered = d.replies.iter().flatten().filter(|r| !r.shed).count();
    summary.check(
        format!("every request was answered and none shed ({answered} of {})", requests.len()),
        answered == requests.len(),
    );
    summary.check(
        format!("{swaps} scheduled swaps were published ({} were)", d.published.len()),
        d.published.len() == swaps,
    );
    let newest = rig.history.len() as u64 - 1;
    summary.check(
        format!("every reply carries a published version (0..={newest})"),
        d.arrival_versions.iter().all(|v| *v <= newest),
    );
    summary.check(
        "reply versions never decrease",
        d.arrival_versions.windows(2).all(|w| w[0] <= w[1]),
    );

    let mut check_model = model();
    let (mut replayed, mut identical) = (0, 0);
    for (req, reply) in requests.iter().zip(&d.replies) {
        let Some((reply, output)) = reply.as_ref().and_then(|r| r.output.as_ref().map(|o| (r, o)))
        else {
            continue;
        };
        let Some(weights) = rig.history.get(reply.version as usize) else { continue };
        for (s, w) in weights.iter().enumerate() {
            check_model.stage_mut(s).set_params_flat(w);
        }
        let expect =
            check_model.forward_eval(&Tensor::from_vec(req.input.clone(), &[req.input.len()]));
        replayed += 1;
        identical += usize::from(outputs_identical(expect.data(), output));
    }
    summary.check(
        format!(
            "{identical} of {replayed} sampled replies are bit-identical to forward_eval on \
             their version's weights"
        ),
        replayed > 0 && identical == replayed,
    );
}

/// Bit-for-bit equality of two output vectors.
pub fn outputs_identical(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One run of a serving workload.
pub fn run(spec: &ServeSpec, seed: u64, trace: bool, smoke: bool) -> (Summary, Vec<Span>) {
    let mut summary = Summary { workload: spec.name, seed, traced: trace, ..Summary::default() };
    let spin_iters = if smoke { SPIN_ITERS / SMOKE_DIVISOR } else { SPIN_ITERS };
    let spin_before = env::spin_ms(spin_iters);
    let spans = if trace {
        traced(spec, seed, smoke, &mut summary)
    } else {
        untraced(spec, seed, smoke, &mut summary);
        Vec::new()
    };
    let spin_after = env::spin_ms(spin_iters);
    note_spin(&mut summary, spin_before, spin_after);
    (summary, spans)
}

/// Builds a rig and runs the scheduled warm-up through it; with
/// `summary`, also checks the warm-up's outputs.
fn set_up(
    spec: &ServeSpec,
    seed: u64,
    warmup_ms: u64,
    summary: Option<&mut Summary>,
) -> Result<Rig, String> {
    let mut rig = Rig::build(seed)?;
    let requests = schedule(seed, spec.rps, warmup_ms, 0);
    let swaps = swap_times(warmup_ms);
    let driven = rig.drive(&requests, &swaps, false);
    let mut scratch = Summary::default();
    check_outputs(&rig, &requests, swaps.len(), &driven, &mut scratch);
    if let Some(failed) = scratch.checks.iter().find(|c| !c.passed) {
        return Err(format!("warm-up: {}", failed.what));
    }
    if let Some(summary) = summary {
        summary.check("warm-up replies passed every output check", true);
    }
    Ok(rig)
}

fn untraced(spec: &ServeSpec, seed: u64, smoke: bool, summary: &mut Summary) {
    let (warmup_ms, window_ms) = if smoke {
        (SMOKE_SERVE_WARMUP_MS, SMOKE_SERVE_WINDOW_MS)
    } else {
        (SERVE_WARMUP_MS, RUN_SECONDS * 1000)
    };
    let passes = if smoke { 1 } else { SETUP_PASSES };
    let mut setup_s = Vec::new();
    let mut kept = None;
    for pass in 0..passes {
        let t0 = Instant::now();
        let last = pass + 1 == passes;
        let rig = match set_up(spec, seed, warmup_ms, last.then_some(&mut *summary)) {
            Ok(rig) => rig,
            Err(e) => return summary.check(format!("set-up: {e}"), false),
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        if last {
            kept = Some(rig);
        } else {
            rig.tear_down();
        }
    }
    let mut rig = kept.expect("the last pass is kept");
    summary.info.push(format!("set-up passes: {setup_s:.3?} s"));
    summary.set("setup_s", stats::median(&mut setup_s));

    let requests = schedule(seed, spec.rps, window_ms, 1 << 32);
    let swaps = swap_times(window_ms);
    let driven = rig.drive(&requests, &swaps, false);
    end_to_end(&requests, &driven, summary);
    check_outputs(&rig, &requests, swaps.len(), &driven, summary);
    note_lateness(&requests, &driven, summary);
    rig.tear_down();
}

/// Send time minus due time (ms) of every request sent, sorted.
fn lateness_ms(requests: &[Request], d: &Driven) -> Vec<f64> {
    let mut late: Vec<f64> = requests
        .iter()
        .zip(&d.sent)
        .map(|(req, at)| at.saturating_duration_since(d.t0 + req.due).as_secs_f64() * 1e3)
        .collect();
    stats::sort(&mut late);
    late
}

/// Says how late the generator ran and returns the p99 (ms). A late
/// generator is a disturbed measurement, not a wrong output: it is
/// reported, and `correct` is left to the output checks.
fn note_lateness(requests: &[Request], d: &Driven, summary: &mut Summary) -> f64 {
    let late = lateness_ms(requests, d);
    if late.is_empty() {
        return 0.0;
    }
    let p99 = stats::percentile(&late, 0.99);
    summary.info.push(format!(
        "send lateness ms: p50 {:.3} p90 {:.3} p99 {p99:.3} max {:.3}",
        stats::percentile(&late, 0.5),
        stats::percentile(&late, 0.9),
        late[late.len() - 1]
    ));
    if p99 >= LATE_LIMIT_MS {
        summary.info.push(format!(
            "DISTURBED: the load generator ran late (p99 {p99:.3} ms, limit {LATE_LIMIT_MS} ms)"
        ));
    }
    p99
}

/// The end-to-end metrics of a timed window.
fn end_to_end(requests: &[Request], d: &Driven, summary: &mut Summary) {
    let lat = latencies_ms(d);
    summary.attempted = requests.len() as u64;
    summary.failed = (requests.len() - lat.len()) as u64;
    let last_reply = d.replies.iter().flatten().map(|r| r.at).max();
    let span_s = last_reply.map_or(0.0, |at| at.saturating_duration_since(d.t0).as_secs_f64());
    summary.set("time_to_target_s", span_s);
    summary.set("ops_to_target", requests.len() as f64);
    if lat.is_empty() {
        return;
    }
    summary.set("ops_per_s", lat.len() as f64 / span_s);

    // Segments of the schedule, in due-time order. A request that was
    // shed or never answered misses the limit: it counts as infinitely
    // late in `ok_share` and is left out of the latency percentiles.
    let ranges = stats::segments(requests.len(), SEGMENTS);
    let mut answered: Vec<Vec<f64>> = ranges
        .iter()
        .map(|r| d.latency_ms[r.clone()].iter().flatten().copied().collect())
        .collect();
    let mut ok_shares: Vec<f64> = answered
        .iter()
        .zip(&ranges)
        .map(|(a, r)| {
            a.iter().filter(|ms| **ms <= REQUEST_LIMIT_MS).count() as f64 / r.len() as f64
        })
        .collect();
    summary.set(
        "op_p50_ms",
        stats::median_over_segments(&mut answered, |s| stats::percentile(s, 0.50)),
    );
    let p95 = stats::median_over_segments(&mut answered, |s| stats::percentile(s, 0.95));
    summary.set("ok_share", stats::median(&mut ok_shares));
    summary.info.push(format!(
        "{} requests, {} answered, {:.3} s from first due time to last reply; limit \
         {REQUEST_LIMIT_MS} ms from due time; median segment's p95 {p95:.3} ms; whole-window \
         p50 {:.3} p95 {:.3} ms; the sample supports percentiles up to {:?}",
        requests.len(),
        lat.len(),
        span_s,
        stats::percentile(&lat, 0.50),
        stats::percentile(&lat, 0.95),
        stats::highest_supported(lat.len()),
    ));
}

fn histogram<'a>(snap: &'a RegistrySnapshot, name: &str) -> Option<&'a HistogramSnapshot> {
    snap.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
}

fn counter_of(snap: &RegistrySnapshot, name: &str) -> u64 {
    snap.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
}

/// The observations `after` holds beyond `before` (same histogram).
fn histogram_since(
    before: &RegistrySnapshot,
    after: &RegistrySnapshot,
    name: &str,
) -> HistogramSnapshot {
    let (Some(b), Some(a)) = (histogram(before, name), histogram(after, name)) else {
        return HistogramSnapshot::empty();
    };
    let old: std::collections::HashMap<u32, u64> = b.nonzero_buckets().collect();
    let pairs: Vec<(u32, u64)> = a
        .nonzero_buckets()
        .map(|(i, c)| (i, c - old.get(&i).copied().unwrap_or(0)))
        .filter(|(_, c)| *c > 0)
        .collect();
    HistogramSnapshot::from_sparse(&pairs, a.sum - b.sum, a.min, a.max)
        .expect("bucket indices come from a snapshot")
}

fn traced(spec: &ServeSpec, seed: u64, smoke: bool, summary: &mut Summary) -> Vec<Span> {
    let (warmup_ms, window_ms) = if smoke {
        (SMOKE_SERVE_WARMUP_MS, SMOKE_SERVE_WINDOW_MS)
    } else {
        (SERVE_WARMUP_MS, (TRACED_SERVE_REQUESTS * 1000 / spec.rps).max(TRACED_SERVE_MIN_MS))
    };
    let mut rig = match set_up(spec, seed, warmup_ms, Some(&mut *summary)) {
        Ok(rig) => rig,
        Err(e) => {
            summary.check(format!("set-up: {e}"), false);
            return Vec::new();
        }
    };

    // Reference window: same code, recording off, half as long.
    let reference = schedule(seed, spec.rps, window_ms / 2, 1 << 32);
    let driven = rig.drive(&reference, &swap_times(window_ms / 2), false);
    let reference_lat = latencies_ms(&driven);
    let reference_p50 =
        if reference_lat.is_empty() { 0.0 } else { stats::percentile(&reference_lat, 0.5) };

    ea_trace::set_level(ea_trace::Level::Counters);
    let requests = schedule(seed, spec.rps, window_ms, 2 << 32);
    let swaps = swap_times(window_ms);
    let before = rig.engine.metrics_snapshot();
    let reactor_cpu0 = env::threads_cpu_s("ea-reactor");
    ea_tensor::pool::reset_stats();
    let d = rig.drive(&requests, &swaps, true);
    let after = rig.engine.metrics_snapshot();
    let reactor_cpu = env::threads_cpu_s("ea-reactor") - reactor_cpu0;
    let pool = ea_tensor::pool::stats();

    let lat = latencies_ms(&d);
    summary.attempted = requests.len() as u64;
    summary.failed = (requests.len() - lat.len()) as u64;
    check_outputs(&rig, &requests, swaps.len(), &d, summary);
    let late_p99 = note_lateness(&requests, &d, summary);
    summary.set("loadgen.late_ms_p99", late_p99);
    if lat.is_empty() {
        rig.tear_down();
        return d.spans;
    }
    let wall = d
        .replies
        .iter()
        .flatten()
        .map(|r| r.at)
        .max()
        .map_or(0.0, |at| at.saturating_duration_since(d.t0).as_secs_f64());
    let p50 = stats::percentile(&lat, 0.50);
    summary.set("loadgen.op_p95_ms", stats::percentile_if_supported(&lat, 0.95));
    summary.set("loadgen.op_p99_ms", stats::percentile_if_supported(&lat, 0.99));
    summary.set("loadgen.op_p999_ms", stats::percentile_if_supported(&lat, 0.999));
    summary.set(
        "trace.overhead_share",
        if reference_p50 > 0.0 { p50 / reference_p50 - 1.0 } else { 0.0 },
    );
    summary.info.push(format!(
        "op_p50_ms {reference_p50:.3} with recording off ({} requests), {p50:.3} with it on ({})",
        reference.len(),
        requests.len()
    ));

    let queue = histogram_since(&before, &after, "ea_serve_queue_us");
    let exec = histogram_since(&before, &after, "ea_serve_exec_us");
    let e2e = histogram_since(&before, &after, "ea_serve_e2e_us");
    let since = |name: &str| counter_of(&after, name) - counter_of(&before, name);
    let ms = |us: u64| us as f64 / 1e3;
    summary.set("ea-serve.queue_ms_p50", ms(queue.percentile(0.50)));
    summary.set("ea-serve.queue_ms_p99", ms(queue.percentile(0.99)));
    summary.set("ea-serve.exec_ms_p50", ms(exec.percentile(0.50)));
    summary.set("ea-serve.engine_e2e_ms_p50", ms(e2e.percentile(0.50)));
    summary.set(
        "ea-serve.mean_batch",
        since("ea_serve_served_total") as f64 / since("ea_serve_batches_total").max(1) as f64,
    );
    summary.set("ea-serve.exec_busy_share", exec.sum as f64 / 1e6 / wall);
    let shed = since("ea_serve_shed_total");
    summary.set("ea-serve.shed", shed as f64);
    summary.check(format!("the engine shed nothing ({shed} shed)"), shed == 0);
    let swapped = since("ea_serve_swaps_total");
    summary.set("ea-serve.swaps", swapped as f64);
    summary.check(
        format!("the engine swapped once per scheduled swap ({swapped} of {})", swaps.len()),
        swapped as usize == swaps.len(),
    );
    summary.set("ea-serve.batch_cap", rig.engine.batch_cap() as f64);
    summary.set("ea-serve.wire_ms_p50", (p50 - ms(e2e.percentile(0.50))).max(0.0));

    // From the stub's last Ack to the first reply carrying the version.
    let mut arrivals: Vec<&Reply> = d.replies.iter().flatten().collect();
    arrivals.sort_by_key(|r| r.at);
    let mut lags: Vec<f64> = d
        .published
        .iter()
        .filter_map(|p| {
            let first = arrivals.iter().find(|r| r.version >= p.version)?;
            Some(first.at.saturating_duration_since(p.acked).as_secs_f64() * 1e3)
        })
        .collect();
    if !lags.is_empty() {
        summary.set("ea-serve.swap_lag_ms_p50", stats::median(&mut lags));
    }

    summary.set("ea-comms.reactor_cpu_share", reactor_cpu / wall);
    summary.set("ea-tensor.pool_hit_share", pool.hit_rate());
    summary.set("ea-tensor.pool_peak_mb", pool.peak_pooled_bytes as f64 / (1 << 20) as f64);
    summary.set("proc.peak_rss_mb", env::peak_rss_mb());
    let send_ms = span::durations_ms(&d.spans, "send");
    summary.info.push(format!(
        "{} send spans, mean {:.1} us",
        send_ms.len(),
        send_ms.iter().sum::<f64>() * 1e3 / send_ms.len().max(1) as f64
    ));
    rig.tear_down();
    d.spans
}

/// Closed-loop saturation of the frontend: `window` requests kept in
/// flight on one connection for `millis`; returns replies per second.
/// `HIGH_RPS` was derived from this (see the README); no run calls it.
pub fn closed_loop_rps(window: usize, millis: u64) -> Result<f64, String> {
    let mut rig = Rig::build(1)?;
    let pool = schedule(1, 1000, 1000, 0);
    let send = |tx: &mut TcpTransport, i: u64| {
        let input = pool[i as usize % pool.len()].input.clone();
        tx.send(Message::Infer { id: i, input }).map_err(|e| format!("send: {e}"))
    };
    let mut next = 0u64;
    for _ in 0..window {
        send(&mut rig.tx, next)?;
        next += 1;
    }
    let t0 = Instant::now();
    let mut answered = 0u64;
    while t0.elapsed() < Duration::from_millis(millis) {
        match rig.rx.recv_timeout(Duration::from_secs(2)) {
            Ok(Message::InferReply { .. }) => {
                answered += 1;
                send(&mut rig.tx, next)?;
                next += 1;
            }
            Ok(_) => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
    }
    let rps = answered as f64 / t0.elapsed().as_secs_f64();
    rig.tear_down();
    Ok(rps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_the_count_is_fixed() {
        let a = schedule(7, 300, 2000, 0);
        let b = schedule(7, 300, 2000, 0);
        assert_eq!(a, b);
        assert_eq!(a.len(), 600);
        let c = schedule(8, 300, 2000, 0);
        assert_eq!(c.len(), 600);
        assert_ne!(
            a.iter().map(|r| r.due).collect::<Vec<_>>(),
            c.iter().map(|r| r.due).collect::<Vec<_>>()
        );
        assert_ne!(a[0].input, c[0].input);
    }

    #[test]
    fn schedule_is_ordered_and_fills_its_window() {
        let s = schedule(3, 6000, 1000, 1 << 32);
        assert!(s.windows(2).all(|w| w[0].due <= w[1].due && w[0].id + 1 == w[1].id));
        assert_eq!(s[0].due, Duration::ZERO);
        let last = s.last().unwrap().due;
        assert!(last < Duration::from_millis(1000) && last > Duration::from_millis(990));
        assert!(s.iter().all(|r| r.input.len() == SERVE_CFG.seq
            && r.input.iter().all(|t| (*t as usize) < SERVE_CFG.vocab)));
    }

    #[test]
    fn swaps_fall_strictly_inside_the_window() {
        let ms = |v: &[u64]| v.iter().map(|m| Duration::from_millis(*m)).collect::<Vec<_>>();
        assert_eq!(swap_times(1500), ms(&[500, 1000]));
        assert_eq!(swap_times(1000), ms(&[500]));
        assert_eq!(swap_times(600), ms(&[500]));
        assert_eq!(swap_times(500), ms(&[]));
        assert_eq!(swap_times(10_000).len(), 19);
    }

    /// Not a test: prints the closed-loop saturation `HIGH_RPS` is derived
    /// from. `cargo test --release -p ea-bench -- --ignored --nocapture
    /// closed_loop`.
    #[test]
    #[ignore = "a measurement for re-deriving HIGH_RPS, not a check"]
    fn closed_loop_saturation() {
        for window in [8, 32, 128, 512] {
            let rps = closed_loop_rps(window, 3000).unwrap();
            println!("{window} in flight: {rps:.0} replies/s");
        }
    }
}
