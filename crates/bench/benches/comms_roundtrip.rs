//! Criterion benchmark of one transport round-trip (Step ❷ reference
//! pull) over TCP against the reactor, at a payload comparable to one
//! analogue-model stage: framing + CRC + kernel TCP + the server core.

use criterion::{criterion_group, criterion_main, Criterion};
use ea_comms::reactor::ReactorConfig;
use ea_comms::{RemoteShards, RetryConfig, ShardChannel, ShardClient, TcpConfig, TcpTransport};
use ea_runtime::RefShardServer;
use std::sync::Arc;

/// Weights per shard — same order of magnitude as one model stage.
const PARAMS: usize = 64 * 1024;

fn reference() -> Vec<Vec<f32>> {
    vec![(0..PARAMS).map(|i| (i as f32 * 0.37).sin()).collect()]
}

fn bench_tcp_pull(c: &mut Criterion) {
    let server = RefShardServer::from_initial_weights(reference(), 1);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let reactor = server
        .serve_reactor(listener, ReactorConfig { threads: 1, ..ReactorConfig::default() })
        .unwrap();
    let conn = TcpTransport::connect(reactor.local_addr(), TcpConfig::default()).unwrap();
    let client = ShardClient::handshake(Box::new(conn), 0, RetryConfig::default()).unwrap();
    let channel = Arc::new(RemoteShards::new(vec![client]).unwrap());
    c.bench_function("comms_roundtrip/tcp_pull_64k", |b| {
        b.iter(|| {
            let w = channel.pull(0, 0, 0).unwrap();
            let probe = w[PARAMS / 2];
            ea_tensor::pool::recycle(w);
            std::hint::black_box(probe)
        })
    });
}

criterion_group!(benches, bench_tcp_pull);
criterion_main!(benches);
