//! The result of one run, and the metric names `BENCHMARK.json` lists.

use std::fmt::Write as _;

/// Name and unit of every end-to-end metric; each workload reports all.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("time_to_target_s", "s"),
    ("ops_to_target", "count"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("ok_share", "ratio"),
];

/// Name and unit of every per-layer metric. A traced run reports all of
/// them; one that does not apply to the workload reads 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("budget.pull_share", "ratio"),
    ("budget.compute_share", "ratio"),
    ("budget.submit_share", "ratio"),
    ("budget.other_share", "ratio"),
    ("budget.exchange_share", "ratio"),
    ("ea-data.batch_gen_us", "us"),
    ("ea-runtime.compute_ms_p50", "ms"),
    ("ea-runtime.compute_ms_p95", "ms"),
    ("ea-runtime.single_step_ms_p50", "ms"),
    ("ea-runtime.scaling_efficiency", "ratio"),
    ("ea-runtime.apply_us_p50", "us"),
    ("ea-runtime.parked_pulls", "count"),
    ("ea-runtime.protocol_violations", "count"),
    ("ea-runtime.crc_failures", "count"),
    ("ea-runtime.feedback_us_p50", "us"),
    ("ea-runtime.checkpoint_ms", "ms"),
    ("ea-runtime.checkpoint_bytes", "bytes"),
    ("ea-optim.encode_us_per_mb", "us/MB"),
    ("ea-optim.decode_us_per_mb", "us/MB"),
    ("ea-optim.compress_ratio", "ratio"),
    ("ea-comms.pull_ms_p50", "ms"),
    ("ea-comms.pull_ms_p95", "ms"),
    ("ea-comms.submit_ms_p50", "ms"),
    ("ea-comms.submit_ms_p95", "ms"),
    ("ea-comms.probe_rtt_ms_p50", "ms"),
    ("ea-comms.barrier_wait_ms_p50", "ms"),
    ("ea-comms.wire_bytes_per_round", "bytes"),
    ("ea-comms.frames_per_round", "count"),
    ("ea-comms.retries", "count"),
    ("ea-comms.reactor_cpu_share", "ratio"),
    ("ea-serve.queue_ms_p50", "ms"),
    ("ea-serve.queue_ms_p99", "ms"),
    ("ea-serve.exec_ms_p50", "ms"),
    ("ea-serve.engine_e2e_ms_p50", "ms"),
    ("ea-serve.mean_batch", "count"),
    ("ea-serve.exec_busy_share", "ratio"),
    ("ea-serve.shed", "count"),
    ("ea-serve.swaps", "count"),
    ("ea-serve.batch_cap", "count"),
    ("ea-serve.swap_lag_ms_p50", "ms"),
    ("ea-serve.wire_ms_p50", "ms"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.op_p95_ms", "ms"),
    ("loadgen.op_p99_ms", "ms"),
    ("loadgen.op_p999_ms", "ms"),
    ("ea-tensor.pool_hit_share", "ratio"),
    ("ea-tensor.pool_peak_mb", "MB"),
    ("proc.peak_rss_mb", "MB"),
    ("trace.overhead_share", "ratio"),
    ("env.spin_ms_before", "ms"),
    ("env.spin_ms_after", "ms"),
];

/// One output check and whether it held.
#[derive(Clone, Debug)]
pub struct Check {
    pub what: String,
    pub passed: bool,
}

/// What one run of one workload produced.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Ops the run attempted and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)`; [`Summary::json_line`] adds the units.
    pub metrics: Vec<(&'static str, f64)>,
    pub checks: Vec<Check>,
    /// Lines for a reader: loss trail, sample counts, disturbance.
    pub info: Vec<String>,
}

impl Summary {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn check(&mut self, what: impl Into<String>, passed: bool) {
        self.checks.push(Check { what: what.into(), passed });
    }

    /// Every output check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The names this run must report, with their units.
    pub fn expected(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The one-line JSON result the driver reads: exactly the keys
    /// `correct`, `attempted`, `failed`, `metrics`. Values print with all
    /// their digits.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in self.expected().iter().enumerate() {
            let value = self.get(name).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
                .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }

    /// The report for a person: checks, info lines, and every metric by
    /// name and unit.
    pub fn human(&self) -> String {
        let mut out = String::new();
        let pass = if self.traced { "traced" } else { "untraced" };
        writeln!(out, "== {} seed {} ({pass}) ==", self.workload, self.seed).unwrap();
        for line in &self.info {
            writeln!(out, "   {line}").unwrap();
        }
        for c in &self.checks {
            writeln!(out, "   check {}: {}", if c.passed { "ok  " } else { "FAIL" }, c.what)
                .unwrap();
        }
        writeln!(out, "   ops attempted {} failed {}", self.attempted, self.failed).unwrap();
        for (name, unit) in self.expected() {
            let value = self.get(name).unwrap_or(0.0);
            writeln!(out, "   {name:<34} {value:>16.6} {unit}").unwrap();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys_and_every_expected_metric() {
        let mut s = Summary { workload: "w", attempted: 3, ..Summary::default() };
        s.set("op_p50_ms", 1.25);
        s.check("x", true);
        let line = s.json_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{name} in {line}");
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(line.contains("\"op_p50_ms\": {\"value\": 1.25, "));
        s.check("y", false);
        assert!(s.json_line().starts_with("{\"correct\": false"));
    }

    /// Every `"name": "..."` in `BENCHMARK.json`, in file order.
    fn benchmark_json_names() -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        text.split("\"name\":")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("a quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_prints() {
        let listed = benchmark_json_names();
        assert!(listed.iter().all(|n| {
            !n.is_empty() && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        }));
        let printed: Vec<&str> = crate::consts::WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        assert_eq!(listed, printed);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.0).collect();
        for n in &names {
            assert!(n.len() <= 64);
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
