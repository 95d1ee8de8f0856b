//! `ea-bench [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
//! [--smoke]`: runs one workload in this process, or with no `--workload`
//! all five, each in a child process of its own.

use ea_bench::consts::{RUN_SECONDS, WORKLOADS};
use std::process::{Command, ExitCode};

struct Args {
    workload: Option<String>,
    seed: u64,
    trace: bool,
    smoke: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args { workload: None, seed: 1, trace: false, smoke: false };
    let mut seconds = RUN_SECONDS;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if seconds != RUN_SECONDS {
        // Horizons are fixed work sized for this window, not a timer.
        return Err(format!(
            "--seconds must be {RUN_SECONDS}: every horizon is a committed constant"
        ));
    }
    Ok(args)
}

/// Runs every workload in a child process of its own, one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("ea-bench: cannot find my own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = Vec::new();
    for workload in WORKLOADS {
        let mut child = Command::new(&exe);
        child.args(["--workload", workload, "--seed", &args.seed.to_string()]);
        child.args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            child.arg("--smoke");
        }
        match child.status() {
            Ok(status) if status.success() => {}
            Ok(status) => failed.push(format!("{workload} ({status})")),
            Err(e) => failed.push(format!("{workload} (spawn: {e})")),
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("ea-bench: failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ea-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let set = ea_bench::env::forbidden_env_set();
    if !set.is_empty() {
        eprintln!("ea-bench: unset {} first: two runs may differ only by code", set.join(", "));
        return ExitCode::from(2);
    }
    let Some(workload) = &args.workload else { return run_all(&args) };
    if !WORKLOADS.contains(&workload.as_str()) {
        eprintln!("ea-bench: no workload named {workload}; there are {}", WORKLOADS.join(", "));
        return ExitCode::from(2);
    }

    for (key, value) in ea_bench::env::fingerprint() {
        println!("   {key}: {value}");
    }
    if args.smoke {
        println!("   SMOKE RUN: shortened horizons; these numbers are not metrics");
    }
    let (summary, spans) = ea_bench::run(workload, args.seed, args.trace, args.smoke)
        .expect("the name was checked against WORKLOADS");
    if args.trace {
        let path = std::path::Path::new("target/ea-bench").join(format!("{workload}.trace.json"));
        match ea_bench::span::write_chrome(&path, &spans) {
            Ok(()) => println!("   {} spans written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("ea-bench: cannot write {}: {e}", path.display()),
        }
    }
    print!("{}", summary.human());
    println!("{}", summary.json_line());
    if summary.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
