//! Fan-in benchmark of the comms server: N concurrent TCP workers
//! driving full elastic rounds (Step-❷ pull + Step-❸ submit) against one
//! reference shard served on the reactor. Writes `BENCH_6.json`.
//!
//! ```text
//! cargo run -p bench --release --bin fanin_report
//! cargo run -p bench --release --bin fanin_report -- --rounds 10 --dim 64
//! ```
//!
//! The sweep climbs 16 → 1024 workers. Per-round latency percentiles are
//! measured at the workers; server CPU is attributed by summing
//! utime+stime of the `ea-reactor-*` threads from `/proc/self/task`.

use std::net::TcpListener;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use ea_comms::reactor::ReactorConfig;
use ea_comms::{RetryConfig, ShardClient, TcpConfig, TcpTransport};
use ea_runtime::RefShardServer;

/// Linux USER_HZ: the unit of utime/stime in `/proc/*/stat`. Fixed at
/// 100 on every supported configuration of the kernels we run on.
const TICKS_PER_SEC: f64 = 100.0;

const SWEEP: &[usize] = &[16, 64, 256, 1024];

struct RunStats {
    workers: usize,
    rounds: u64,
    wall_s: f64,
    rounds_per_s: f64,
    exchanges_per_s: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    process_cpu_s: f64,
    /// CPU spent on `ea-reactor-*` threads.
    server_cpu_s: f64,
}

impl RunStats {
    fn to_json(&self) -> String {
        format!(
            "{{\"workers\": {}, \"rounds\": {}, \"wall_s\": {:.3}, \"rounds_per_s\": {:.2}, \
             \"exchanges_per_s\": {:.1}, \"p50_us\": {:.1}, \"p95_us\": {:.1}, \
             \"p99_us\": {:.1}, \"process_cpu_s\": {:.3}, \"server_cpu_s\": {}}}",
            self.workers,
            self.rounds,
            self.wall_s,
            self.rounds_per_s,
            self.exchanges_per_s,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.process_cpu_s,
            self.server_cpu_s
        )
    }
}

/// utime+stime of the whole process, in seconds.
fn process_cpu_s() -> f64 {
    cpu_from_stat(&std::fs::read_to_string("/proc/self/stat").unwrap_or_default())
}

/// Sum of utime+stime over threads whose comm starts with `prefix`.
fn threads_cpu_s(prefix: &str) -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0.0 };
    let mut total = 0.0;
    for task in tasks.flatten() {
        let stat = task.path().join("stat");
        let Ok(line) = std::fs::read_to_string(&stat) else { continue };
        let Some(open) = line.find('(') else { continue };
        let Some(close) = line.rfind(')') else { continue };
        if line[open + 1..close].starts_with(prefix) {
            total += cpu_from_stat(&line);
        }
    }
    total
}

/// Parses utime+stime (fields 14 and 15) out of a `/proc` stat line.
fn cpu_from_stat(line: &str) -> f64 {
    let Some(close) = line.rfind(')') else { return 0.0 };
    let fields: Vec<&str> = line[close + 1..].split_whitespace().collect();
    // After the comm field, utime/stime are the 12th and 13th fields.
    let utime: f64 = fields.get(11).and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.get(12).and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) / TICKS_PER_SEC
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q) as usize]
}

/// Drives `workers` concurrent clients for `rounds` full elastic rounds
/// against `addr`, returning every per-round (pull+submit) latency in µs.
fn drive_workers(
    addr: std::net::SocketAddr,
    workers: usize,
    rounds: u64,
    dim: usize,
) -> (Vec<f64>, f64) {
    let start = Arc::new(Barrier::new(workers + 1));
    let joins: Vec<_> = (0..workers)
        .map(|pipe| {
            let start = Arc::clone(&start);
            std::thread::Builder::new()
                .name(format!("fanin-{pipe}"))
                .stack_size(192 * 1024)
                .spawn(move || {
                    let conn = TcpTransport::connect(addr, TcpConfig::default()).expect("connect");
                    let retry = RetryConfig {
                        reply_timeout: std::time::Duration::from_secs(60),
                        max_attempts: 3,
                    };
                    let mut client =
                        ShardClient::handshake(Box::new(conn), pipe, retry).expect("handshake");
                    let delta = vec![1e-6f32; dim];
                    start.wait();
                    let mut samples = Vec::with_capacity(rounds as usize);
                    for round in 0..rounds {
                        let t0 = Instant::now();
                        let w = client.pull(0, round).expect("pull");
                        ea_tensor::pool::recycle(w);
                        let mut d = ea_tensor::pool::take_cleared(dim);
                        d.extend_from_slice(&delta);
                        client.submit(0, round, d).expect("submit");
                        samples.push(t0.elapsed().as_secs_f64() * 1e6);
                    }
                    samples
                })
                .expect("spawn worker")
        })
        .collect();

    start.wait();
    let t0 = Instant::now();
    let mut samples = Vec::new();
    for j in joins {
        samples.extend(j.join().expect("worker panicked"));
    }
    (samples, t0.elapsed().as_secs_f64())
}

fn run_stats(
    workers: usize,
    rounds: u64,
    wall_s: f64,
    mut samples: Vec<f64>,
    process_cpu: f64,
    server_cpu: f64,
) -> RunStats {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    RunStats {
        workers,
        rounds,
        wall_s,
        rounds_per_s: rounds as f64 / wall_s,
        exchanges_per_s: (rounds as f64 * workers as f64) / wall_s,
        p50_us: percentile(&samples, 0.50),
        p95_us: percentile(&samples, 0.95),
        p99_us: percentile(&samples, 0.99),
        process_cpu_s: process_cpu,
        server_cpu_s: server_cpu,
    }
}

fn bench_reactor(workers: usize, rounds: u64, dim: usize, threads: usize) -> RunStats {
    let server = RefShardServer::from_initial_weights(vec![vec![0.0; dim]], workers);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let reactor = server
        .serve_reactor(listener, ReactorConfig { threads, ..ReactorConfig::default() })
        .expect("serve_reactor");
    let cpu0 = process_cpu_s();
    let srv0 = threads_cpu_s("ea-reactor");
    let (samples, wall_s) = drive_workers(reactor.local_addr(), workers, rounds, dim);
    let cpu = process_cpu_s() - cpu0;
    let srv = threads_cpu_s("ea-reactor") - srv0;
    reactor.shutdown();
    run_stats(workers, rounds, wall_s, samples, cpu, srv)
}

fn main() {
    let mut rounds: u64 = 6;
    let mut dim: usize = 64;
    let mut threads: usize = 2;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--rounds" => rounds = args.next().expect("--rounds value").parse().expect("integer"),
            "--dim" => dim = args.next().expect("--dim value").parse().expect("integer"),
            "--threads" => {
                threads = args.next().expect("--threads value").parse().expect("integer")
            }
            other => panic!("unknown argument {other:?}"),
        }
    }

    println!("== fan-in report: {rounds} rounds, dim {dim}, {threads} reactor threads ==");

    let mut reactor_rows = Vec::new();
    for &n in SWEEP {
        let s = bench_reactor(n, rounds, dim, threads);
        println!(
            "  reactor  {:>5} workers   {:>8.1} rounds/s   p50 {:>9.1}us  p95 {:>9.1}us  p99 {:>9.1}us   server cpu {:.3}s",
            s.workers, s.rounds_per_s, s.p50_us, s.p95_us, s.p99_us, s.server_cpu_s
        );
        reactor_rows.push(s);
    }

    let max_reactor = reactor_rows.last().map_or(0, |s| s.workers);
    println!("  reactor sustains {max_reactor} workers");

    let rows = |v: &[RunStats]| {
        v.iter().map(|s| format!("    {}", s.to_json())).collect::<Vec<_>>().join(",\n")
    };
    let json = format!(
        "{{\n  \"bench\": \"fanin_report\",\n  \"rounds\": {rounds},\n  \"dim\": {dim},\n  \"reactor_threads\": {threads},\n  \"max_workers_sustained\": {max_reactor},\n  \"reactor\": [\n{}\n  ]\n}}\n",
        rows(&reactor_rows),
    );
    std::fs::write("BENCH_6.json", &json).expect("write BENCH_6.json");
    println!("  [saved BENCH_6.json]");
}
