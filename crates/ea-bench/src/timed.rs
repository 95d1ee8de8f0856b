//! `TimedChannel`: a [`ShardChannel`] that times the calls an
//! [`ElasticWorker`](ea_runtime::ElasticWorker) makes into the exchange and
//! passes everything through untouched. Off, it costs one relaxed load
//! per call; a traced run switches it on for the traced window only.

use crate::consts::CAPTURED_ROUNDS;
use crate::span::{Sink, Span};
use ea_comms::{Codec, CommsError, QuorumInfo, ShardChannel};
use ea_runtime::RefShard;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Deltas one worker submitted for one round, by shard.
pub type RoundDeltas = Vec<Vec<f32>>;

struct State {
    sink: Sink,
    parked: u64,
    captured: Vec<RoundDeltas>,
}

/// What a [`TimedChannel`] recorded while it was on.
pub struct Recorded {
    pub spans: Vec<Span>,
    /// Pulls issued before the reference had reached the requested
    /// version: the server parks those until the round completes.
    pub parked_pulls: u64,
    /// Copies of the first [`CAPTURED_ROUNDS`] submitted delta sets.
    pub captured: Vec<RoundDeltas>,
}

pub struct TimedChannel {
    inner: Arc<dyn ShardChannel>,
    /// The server's shards, to see whether a pull will park; empty when
    /// the exchange has no server.
    shards: Vec<Arc<RefShard>>,
    on: AtomicBool,
    epoch: Instant,
    lane: u32,
    state: Mutex<State>,
}

impl TimedChannel {
    pub fn new(
        inner: Arc<dyn ShardChannel>,
        shards: Vec<Arc<RefShard>>,
        epoch: Instant,
        lane: u32,
    ) -> TimedChannel {
        TimedChannel {
            inner,
            shards,
            on: AtomicBool::new(false),
            epoch,
            lane,
            state: Mutex::new(State {
                sink: Sink::new(epoch, lane),
                parked: 0,
                captured: Vec::new(),
            }),
        }
    }

    /// Starts or stops recording.
    pub fn set_on(&self, on: bool) {
        // Relaxed: the flag guards no data; the worker thread that reads it
        // is started, and joined, through channels that order the two.
        self.on.store(on, Ordering::Relaxed);
    }

    fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("a TimedChannel user panicked")
    }

    /// Takes everything recorded so far.
    pub fn take(&self) -> Recorded {
        let mut st = self.state();
        let fresh = Sink::new(self.epoch, self.lane);
        Recorded {
            spans: std::mem::replace(&mut st.sink, fresh).into_spans(),
            parked_pulls: std::mem::take(&mut st.parked),
            captured: std::mem::take(&mut st.captured),
        }
    }
}

impl ShardChannel for TimedChannel {
    fn n_shards(&self) -> usize {
        self.inner.n_shards()
    }

    fn pull(&self, pipe: usize, shard: usize, version: u64) -> Result<Vec<f32>, CommsError> {
        self.inner.pull(pipe, shard, version)
    }

    fn submit(
        &self,
        pipe: usize,
        shard: usize,
        round: u64,
        delta: Vec<f32>,
    ) -> Result<(), CommsError> {
        self.inner.submit(pipe, shard, round, delta)
    }

    fn pull_latest(&self, pipe: usize, shard: usize) -> Result<(u64, Vec<f32>), CommsError> {
        if !self.is_on() {
            return self.inner.pull_latest(pipe, shard);
        }
        let t0 = Instant::now();
        let out = self.inner.pull_latest(pipe, shard);
        let t1 = Instant::now();
        self.state().sink.record("pull_latest", None, shard as u64, t0, t1);
        out
    }

    fn heartbeat(&self, pipe: usize, round: u64) -> Result<QuorumInfo, CommsError> {
        self.inner.heartbeat(pipe, round)
    }

    fn codec(&self) -> Codec {
        self.inner.codec()
    }

    fn pull_all(&self, pipe: usize, version: u64) -> Result<Vec<Vec<f32>>, CommsError> {
        if !self.is_on() {
            return self.inner.pull_all(pipe, version);
        }
        let will_park = self.shards.iter().filter(|s| s.version() < version).count() as u64;
        let op = ea_ops::exchange_span_id(version, pipe as u32);
        let t0 = Instant::now();
        let out = self.inner.pull_all(pipe, version);
        let t1 = Instant::now();
        let mut st = self.state();
        st.parked += will_park;
        st.sink.record("pull_all", Some("round"), op, t0, t1);
        out
    }

    fn submit_all(&self, pipe: usize, round: u64, deltas: Vec<Vec<f32>>) -> Result<(), CommsError> {
        if !self.is_on() {
            return self.inner.submit_all(pipe, round, deltas);
        }
        let copy = (self.state().captured.len() < CAPTURED_ROUNDS).then(|| deltas.clone());
        let op = ea_ops::exchange_span_id(round, pipe as u32);
        let t0 = Instant::now();
        let out = self.inner.submit_all(pipe, round, deltas);
        let t1 = Instant::now();
        let mut st = self.state();
        st.sink.record("submit_all", Some("round"), op, t0, t1);
        st.captured.extend(copy);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_data::SyntheticTask;
    use ea_models::{gnmt_analogue, AnalogueConfig};
    use ea_optim::OptKind;
    use ea_runtime::{ElasticWorker, LocalShards};
    use ea_tensor::TensorRng;

    const CFG: AnalogueConfig =
        AnalogueConfig { vocab: 16, seq: 4, hidden: 16, blocks: 2, stages: 2 };

    /// Losses of one worker over `rounds`, with or without the wrapper.
    fn losses(wrap: bool, rounds: u64) -> (Vec<f32>, Option<Recorded>) {
        let stages = || gnmt_analogue(CFG, &mut TensorRng::seed_from_u64(5)).into_stages();
        let shards: Vec<Arc<RefShard>> =
            stages().iter().map(|s| Arc::new(RefShard::new(s.params_flat(), 1))).collect();
        let local: Arc<dyn ShardChannel> = Arc::new(LocalShards::new(shards.clone()));
        let timed = wrap.then(|| {
            let t = Arc::new(TimedChannel::new(Arc::clone(&local), shards, Instant::now(), 0));
            t.set_on(true);
            t
        });
        let channel = match &timed {
            Some(t) => Arc::clone(t) as Arc<dyn ShardChannel>,
            None => local,
        };
        let opts = (0..CFG.stages).map(|_| OptKind::Adam { lr: 1e-2 }.build()).collect();
        let mut worker = ElasticWorker::new(stages(), opts, 2, 1.0, 0, channel);
        let task = SyntheticTask::copy_translate(CFG.vocab, CFG.seq, 3);
        let losses = (0..rounds).map(|r| worker.round(&task.batch(4, r)).unwrap()).collect();
        (losses, timed.map(|t| t.take()))
    }

    #[test]
    fn wrapped_channel_is_a_bit_exact_passthrough() {
        let (plain, _) = losses(false, 6);
        let (wrapped, recorded) = losses(true, 6);
        assert_eq!(
            plain.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            wrapped.iter().map(|l| l.to_bits()).collect::<Vec<_>>()
        );
        let recorded = recorded.unwrap();
        let count = |name: &str| recorded.spans.iter().filter(|s| s.name == name).count();
        assert_eq!((count("pull_all"), count("submit_all")), (6, 6));
        assert_eq!(recorded.captured.len(), 6.min(CAPTURED_ROUNDS));
        assert_eq!(recorded.captured[0].len(), CFG.stages);
        // One worker: the reference is always at the version it asks for.
        assert_eq!(recorded.parked_pulls, 0);
        let op = ea_ops::exchange_span_id(3, 0);
        assert!(recorded.spans.iter().any(|s| s.op == op && s.parent == Some("round")));
    }
}
