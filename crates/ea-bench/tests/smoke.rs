//! Runs the real binary on every workload with `--smoke`: shortened
//! horizons, every output check on. This is what lets the workspace's
//! tests catch API drift that would break the benchmark. The numbers a
//! smoke run prints are never metrics.

use ea_bench::consts::{FORBIDDEN_ENV, WORKLOADS};
use std::process::Command;

fn smoke(workload: &str, trace: &str) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ea-bench"));
    cmd.args(["--workload", workload, "--seed", "3", "--trace", trace, "--smoke"]);
    // A traced run writes its spans under the working directory.
    cmd.current_dir(env!("CARGO_TARGET_TMPDIR"));
    for name in FORBIDDEN_ENV {
        cmd.env_remove(name);
    }
    let out = cmd.output().expect("run ea-bench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited {}:\n{stdout}{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn every_workload_passes(trace: &str) {
    for workload in WORKLOADS {
        let stdout = smoke(workload, trace);
        let last = stdout.lines().last().expect("a result line");
        assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{workload}: {last}");
        assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{workload}: {last}");
        assert!(stdout.contains("SMOKE RUN"), "{workload}: smoke runs say so");
    }
}

#[test]
fn every_workload_passes_its_checks_untraced_at_smoke_scale() {
    every_workload_passes("0");
}

#[test]
fn every_workload_passes_its_checks_traced_at_smoke_scale() {
    every_workload_passes("1");
}

#[test]
fn a_speed_changing_variable_or_a_wrong_argument_is_refused() {
    let exe = env!("CARGO_BIN_EXE_ea-bench");
    let refused = |cmd: &mut Command| {
        let out = cmd.output().expect("run ea-bench");
        assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
        assert!(out.stdout.is_empty(), "a refused run prints no result");
    };
    refused(
        Command::new(exe)
            .args(["--workload", "train_wire_f32", "--smoke"])
            .env("EA_SIMD", "scalar"),
    );
    refused(Command::new(exe).args(["--workload", "no_such_workload", "--smoke"]));
    refused(Command::new(exe).args(["--workload", "serve_open_low", "--seconds", "11"]));
    refused(Command::new(exe).args(["--workload", "serve_open_low", "--rounds", "5"]));
}
