//! `ea-bench`: the repository's benchmark. Five workloads — three that
//! train a two-worker elastic-averaging fleet to a target loss and two
//! that serve an open-loop request schedule through hot weight swaps —
//! each reporting the same seven end-to-end metrics, and in a separate
//! traced pass the per-layer metrics and a round's layer budget. See
//! `README.md` for what each workload and metric is for.

pub mod consts;
pub mod env;
pub mod report;
pub mod serve;
pub mod span;
pub mod stats;
pub mod timed;
pub mod train;

use report::Summary;
use span::Span;

/// Runs one workload once and returns its summary and, for a traced run,
/// every span it recorded. `None` if `workload` names no workload.
pub fn run(workload: &str, seed: u64, trace: bool, smoke: bool) -> Option<(Summary, Vec<Span>)> {
    let train = [consts::TRAIN_WIRE_F32, consts::TRAIN_WIRE_INT8, consts::TRAIN_COMPUTE_AWD];
    if let Some(spec) = train.iter().find(|s| s.name == workload) {
        return Some(train::run(spec, seed, trace, smoke));
    }
    let serve = [consts::SERVE_OPEN_LOW, consts::SERVE_OPEN_HIGH];
    let spec = serve.iter().find(|s| s.name == workload)?;
    Some(serve::run(spec, seed, trace, smoke))
}
