//! Real execution runtime: threads as GPUs, channels as interconnect.
//!
//! This crate runs actual training (real tensors, real gradients) with the
//! concurrency structure of the paper's Figure 6:
//!
//! * [`ThreadedPipeline`] — one worker thread per pipeline stage,
//!   micro-batches streamed through crossbeam channels, gradients flowing
//!   back. Numerically identical to single-threaded execution (verified by
//!   tests), because micro-batch gradient accumulation is order-independent
//!   up to a fixed reduction order, which the driver enforces.
//! * [`ElasticTrainer`] — `N` parallel pipelines, each training a replica
//!   on its own batches, plus per-stage reference shards implementing
//!   Steps ❷–❺ (α-pull, async update shipping, accumulate, normalize &
//!   apply).
//! * [`semantic`] — deterministic single-threaded reference
//!   implementations of every training semantics the paper compares in
//!   Figure 14: synchronous SGD ("PyTorch"), multi-version stale gradients
//!   ("PipeDream"), one-step-stale ("PipeDream-2BW"), and elastic
//!   averaging ("AvgPipe"). The threaded implementations are tested to
//!   agree exactly with these.

//! ```
//! use ea_data::SyntheticTask;
//! use ea_models::{gnmt_analogue, AnalogueConfig};
//! use ea_optim::{OptKind, Optimizer};
//! use ea_runtime::ThreadedPipeline;
//! use ea_tensor::TensorRng;
//!
//! let cfg = AnalogueConfig { vocab: 16, seq: 4, hidden: 16, blocks: 2, stages: 2 };
//! let model = gnmt_analogue(cfg, &mut TensorRng::seed_from_u64(0));
//! let opts: Vec<Box<dyn Optimizer>> =
//!     (0..2).map(|_| OptKind::Adam { lr: 1e-2 }.build()).collect();
//!
//! // Two stage-worker threads, micro-batches streamed through channels.
//! let mut pipe = ThreadedPipeline::spawn(model.into_stages(), opts, 4);
//! let task = SyntheticTask::copy_translate(16, 4, 1);
//! let loss = pipe.step(&task.batch(8, 0));
//! assert!(loss.is_finite() && loss > 0.0);
//! ```

mod checkpoint;
mod elastic;
mod error;
mod membership;
mod metrics;
mod reactor_server;
pub mod semantic;
mod server;
mod supervisor;
mod threaded;

pub use checkpoint::RefCheckpoint;
pub use elastic::{
    ElasticTrainer, ErrorFeedback, LocalShards, RefShard, RoundRecord, SubmitOutcome,
};
pub use error::Error;
pub use membership::Membership;
pub use metrics::{
    epochs_to_target, evaluate, EpochsToTarget, EvalResult, ServerMetrics, ServerMetricsSnapshot,
};
pub use reactor_server::ReactorDispatch;
pub use semantic::{train_step, ElasticSemantic, StaleTrainer, SyncTrainer, Trainer};
pub use server::{ConnKey, ElasticWorker, FtConfig, RefShardServer, ShardServerCore};
pub use supervisor::{
    ChannelFactory, RoundReport, ShutdownHandle, SupervisedWorker, SupervisorConfig, WorkerMode,
};
pub use threaded::ThreadedPipeline;
