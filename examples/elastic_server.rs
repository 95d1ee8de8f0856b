//! Reference-shard server for the two-process elastic-averaging demo.
//!
//! Hosts the per-stage reference shards on the `ea-comms` reactor and
//! serves the configured number of worker pipelines until they finish and
//! disconnect, then prints a bit-exact checksum of the final reference
//! weights for each stage (the workers print the same checksums, so a
//! byte-level comparison across processes is a `grep` away).
//!
//! With `--fault-tolerant` the server also runs the membership/lease
//! protocol (and is done when every shard reaches `--rounds`, whoever is
//! still connected): workers that go silent past the lease are evicted and
//! stalled rounds complete degraded over the survivors; a restarted
//! worker rejoins at the next round boundary. `--checkpoint PATH` adds
//! periodic atomic reference checkpoints — if PATH already exists on
//! startup the server restores from it and resumes at the recorded round
//! (printing `RESTORED round=R`), which is what the kill-and-restart
//! script exercises.
//!
//! With `--shards K --shard-index I` this process hosts only slice `I`
//! of a `K`-server partition of the reference: the demo's stages are
//! split into `K` contiguous ranges and every worker scatter-gathers its
//! rounds across all `K` servers. `--codec` names the wire codec the
//! workers are expected to negotiate (the actual negotiation is
//! per-connection, in the worker's `Hello`). `--pipelines N` sizes the
//! worker ensemble (default: the demo's 2).
//!
//! ```text
//! cargo run --release --example elastic_server -- --addr 127.0.0.1:7070
//! cargo run --release --example elastic_worker -- --addr 127.0.0.1:7070 --pipe 0 &
//! cargo run --release --example elastic_worker -- --addr 127.0.0.1:7070 --pipe 1
//! ```

use avgpipe_suite::demo;
use ea_comms::reactor::ReactorConfig;
use ea_runtime::{FtConfig, RefCheckpoint, RefShardServer};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let mut addr = "127.0.0.1:7070".to_string();
    let mut fault_tolerant = false;
    let mut lease_ms: u64 = 2000;
    let mut checkpoint: Option<PathBuf> = None;
    let mut rounds: u64 = demo::ROUNDS;
    let mut shards: usize = 1;
    let mut shard_index: usize = 0;
    let mut codec = "f32".to_string();
    let mut pipelines = demo::N_PIPELINES;
    let mut ops_push: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().expect("--addr needs a value"),
            "--fault-tolerant" => fault_tolerant = true,
            "--lease-ms" => {
                lease_ms = args
                    .next()
                    .expect("--lease-ms needs a value")
                    .parse()
                    .expect("--lease-ms: integer milliseconds")
            }
            "--checkpoint" => {
                checkpoint = Some(PathBuf::from(args.next().expect("--checkpoint needs a path")))
            }
            "--rounds" => {
                rounds =
                    args.next().expect("--rounds needs a value").parse().expect("--rounds: integer")
            }
            "--shards" => {
                shards = args
                    .next()
                    .expect("--shards needs a value")
                    .parse()
                    .expect("--shards: integer server count")
            }
            "--shard-index" => {
                shard_index = args
                    .next()
                    .expect("--shard-index needs a value")
                    .parse()
                    .expect("--shard-index: integer")
            }
            "--codec" => codec = args.next().expect("--codec needs a value"),
            "--pipelines" => {
                pipelines = args
                    .next()
                    .expect("--pipelines needs a value")
                    .parse()
                    .expect("--pipelines: integer worker count")
            }
            "--ops-push" => {
                ops_push = Some(args.next().expect("--ops-push needs a collector HOST:PORT"))
            }
            "--help" | "-h" => {
                println!(
                    "usage: elastic_server [--addr HOST:PORT] [--fault-tolerant] \
                     [--lease-ms MS] [--checkpoint PATH] [--rounds R] \
                     [--shards K] [--shard-index I] [--codec f32|f16|int8|topk] \
                     [--pipelines N] [--ops-push HOST:PORT]"
                );
                return;
            }
            other => panic!("unknown argument {other:?}"),
        }
    }

    assert!(shards >= 1 && shard_index < shards, "--shard-index must be < --shards");
    assert!(pipelines >= 1, "--pipelines must be at least 1");
    ea_comms::Codec::parse(&codec).expect("--codec: f32, f16, int8, or topk");

    let n = pipelines;
    // This server's slice of the reference: stages are split into
    // `shards` contiguous ranges; slice `shard_index` is ours. Workers
    // address shards by *global* id, so the server remembers its base.
    let full = demo::initial_reference();
    let total = full.len();
    assert!(shards <= total, "more servers than reference shards");
    let base = shard_index * total / shards;
    let end = (shard_index + 1) * total / shards;
    // Crash-restart recovery: if the checkpoint file already exists we
    // are a restarted server — reload the reference shards and resume at
    // the recorded round instead of re-initializing. The checkpoint
    // carries the shard map, so a slice server restores its own slice.
    let server = match checkpoint.as_deref().filter(|p| p.exists()) {
        Some(path) => {
            let ckpt = RefCheckpoint::load(path).expect("load reference checkpoint");
            println!("RESTORED round={}", ckpt.round);
            RefShardServer::from_checkpoint(&ckpt, n)
        }
        None => {
            let slice: Vec<Vec<f32>> = full.into_iter().skip(base).take(end - base).collect();
            RefShardServer::from_initial_weights(slice, n).with_shard_range(base, total)
        }
    };

    let listener = std::net::TcpListener::bind(&addr).expect("bind the demo address");

    // Fleet observability: keep a flight-recorder window (dumped on
    // SIGUSR1 or a runtime anomaly) and stream this process's trace
    // rings and metrics to the ops collector for the duration of the
    // run.
    let recorder =
        ea_ops::FlightRecorder::new(Duration::from_secs(60), format!("flight-server{shard_index}"));
    recorder.install_sigusr1();
    ea_ops::recorder::register(&recorder);
    let _pusher = ops_push.map(|collector| {
        let collector = collector.parse().expect("--ops-push: HOST:PORT");
        let mut cfg = ea_ops::PusherConfig::new(format!("server{shard_index}"));
        cfg.recorder = Some(Arc::clone(&recorder));
        ea_ops::OpsPusher::spawn(collector, cfg).expect("connect to ops collector")
    });

    let server = if fault_tolerant {
        let lease = Duration::from_millis(lease_ms);
        server.with_fault_tolerance(FtConfig {
            lease,
            reap_interval: lease / 4,
            checkpoint: checkpoint.clone().map(|p| (p, lease / 4)),
        })
    } else {
        server
    };
    let reactor = server.serve_reactor(listener, ReactorConfig::default()).expect("serve");
    // The workers (and the CI smoke test) wait for this line.
    println!("LISTENING {} shards={base}..{end}/{total} codec={codec}", reactor.local_addr());

    // Fault-tolerant: workers connect, crash, and reconnect in any order;
    // the server is done once every shard has advanced past the target
    // round. Otherwise it is done once all `n` workers came and went.
    let done = || {
        if fault_tolerant {
            server.shards().iter().all(|s| s.version() >= rounds)
        } else {
            server.metrics().disconnects >= n as u64 && reactor.live_connections() == 0
        }
    };
    while !done() {
        std::thread::sleep(Duration::from_millis(20));
    }
    // Let the workers read the final reference and hang up — bounded,
    // because a partitioned worker's socket never closes on its own.
    let grace = Instant::now() + Duration::from_secs(2);
    while reactor.live_connections() > 0 && Instant::now() < grace {
        std::thread::sleep(Duration::from_millis(20));
    }
    reactor.shutdown_graceful(Duration::from_secs(1));
    let m = server.metrics();
    println!(
        "METRICS evictions={} rejoins={} degraded_rounds={} heartbeats={} \
         checkpoints_saved={} disconnects={} protocol_violations={} crc_failures={}",
        m.evictions,
        m.rejoins,
        m.degraded_rounds,
        m.heartbeats,
        m.checkpoints_saved,
        m.disconnects,
        m.protocol_violations,
        m.crc_failures,
    );
    println!("QUORUM live={}/{n}", server.live_count());
    for (s, shard) in server.shards().iter().enumerate() {
        let w = shard.snapshot();
        println!("REF_CHECKSUM stage={} {:#010x}", base + s, demo::weights_checksum(&w));
    }
    println!("SERVER DONE after {rounds} rounds");
}
