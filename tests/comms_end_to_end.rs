//! End-to-end tests for the transport-backed elastic trainer: the same
//! training loop over the in-process shards, over TCP to the reactor, and
//! over fault-injected TCP must all produce byte-identical losses and
//! reference weights.

use avgpipe_suite::demo;
use ea_comms::reactor::{Reactor, ReactorConfig};
use ea_comms::{
    FaultConfig, FaultyTransport, RemoteShards, RetryConfig, ShardChannel, ShardClient, TcpConfig,
    TcpTransport, Transport,
};
use ea_data::Batch;
use ea_models::gnmt_analogue;
use ea_runtime::{ElasticTrainer, RefShardServer};
use ea_tensor::TensorRng;
use std::sync::Arc;

/// Builds the demo trainer over an arbitrary shard channel.
fn trainer_with(channel: Arc<dyn ShardChannel>) -> ElasticTrainer {
    let stages = (0..demo::N_PIPELINES).map(|_| demo::model_stages()).collect();
    let opts = (0..demo::N_PIPELINES).map(|_| demo::optimizers()).collect();
    let eval = gnmt_analogue(demo::CFG, &mut TensorRng::seed_from_u64(demo::MODEL_SEED));
    ElasticTrainer::with_channel(stages, opts, demo::MICROS, Some(demo::alpha()), eval, channel)
}

/// Runs `rounds` demo rounds; returns per-round losses and final
/// references.
fn run(trainer: &mut ElasticTrainer, rounds: u64) -> (Vec<f32>, Vec<Vec<f32>>) {
    let task = demo::task();
    let losses = (0..rounds)
        .map(|r| {
            let batches: Vec<Batch> =
                (0..demo::N_PIPELINES).map(|p| demo::worker_batch(&task, r, p)).collect();
            trainer.round(&batches)
        })
        .collect();
    let refs = (0..demo::CFG.stages).map(|s| trainer.reference(s)).collect();
    (losses, refs)
}

fn run_local(rounds: u64) -> (Vec<f32>, Vec<Vec<f32>>) {
    run(&mut demo::local_trainer(), rounds)
}

fn assert_identical(
    (losses, refs): (Vec<f32>, Vec<Vec<f32>>),
    (base_losses, base_refs): (Vec<f32>, Vec<Vec<f32>>),
) {
    assert_eq!(losses, base_losses, "per-round losses must be byte-identical");
    for (s, (a, b)) in refs.iter().zip(&base_refs).enumerate() {
        assert!(
            a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
            "stage {s} reference weights differ"
        );
    }
}

/// The demo reference behind a one-thread reactor on an ephemeral port.
fn serve_demo() -> (RefShardServer, Reactor) {
    let server = RefShardServer::from_initial_weights(demo::initial_reference(), demo::N_PIPELINES);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let reactor = server
        .serve_reactor(listener, ReactorConfig { threads: 1, ..ReactorConfig::default() })
        .unwrap();
    (server, reactor)
}

/// One handshaken client per demo pipeline, each over `wrap(pipe, socket)`.
fn connect_all(
    reactor: &Reactor,
    retry: RetryConfig,
    wrap: impl Fn(usize, TcpTransport) -> Box<dyn Transport>,
) -> Arc<dyn ShardChannel> {
    let clients = (0..demo::N_PIPELINES)
        .map(|p| {
            let conn = TcpTransport::connect(reactor.local_addr(), TcpConfig::default()).unwrap();
            ShardClient::handshake(wrap(p, conn), p, retry).unwrap()
        })
        .collect();
    Arc::new(RemoteShards::new(clients).unwrap())
}

#[test]
fn tcp_training_is_byte_identical_to_in_process() {
    let rounds = 4;
    let (_server, reactor) = serve_demo();
    let channel = connect_all(&reactor, RetryConfig::default(), |_, conn| Box::new(conn));
    let result = run(&mut trainer_with(channel), rounds);
    assert_identical(result, run_local(rounds));
}

/// The acceptance test of the fault-injection shim: 10% drop, 10% delay,
/// 10% duplicate on the client's side of every connection — lost and
/// duplicated *requests*, so retransmissions and duplicate acks — and
/// training still produces bit-for-bit the in-process result: retries
/// make delivery at-least-once, idempotent submissions make it effectively
/// exactly-once. (Server→client loss on every directed link, with reorder,
/// is the ea-chaos sweep's job: 500 seeds per CI run.)
#[test]
fn faulty_tcp_training_is_byte_identical_at_ten_percent_loss() {
    let rounds = 3;
    let (server, reactor) = serve_demo();
    // Tight reply timeout so dropped messages retransmit quickly.
    let retry =
        RetryConfig { reply_timeout: std::time::Duration::from_millis(100), max_attempts: 30 };
    let channel = connect_all(&reactor, retry, |p, conn| {
        Box::new(FaultyTransport::new(conn, FaultConfig::lossy_10(), 100 + p as u64))
    });
    let result = run(&mut trainer_with(channel), rounds);
    assert_identical(result, run_local(rounds));
    assert_eq!(server.metrics().protocol_violations, 0);
}
