#!/usr/bin/env bash
# A/A harness: runs the same ea-bench binary in two interleaved sets and
# reports, per workload and end-to-end metric, both set medians, their
# gap, the spreads and the bound from BENCHMARK.json, under two rules:
#
#   gap     the issue's: the second set's median is no worse than the
#           first's by more than the bound (and the bound is at least
#           twice the gap seen);
#   spread  the driver's, which accepts a benchmark only if the distance
#           between the quartiles of ten runs, over their median, stays
#           within the bound (`setup_s` excepted). With the default of 5
#           runs a set, the ten runs are both sets together.
#
# Every run takes another --seed, as the driver's runs do; on the train_*
# workloads the seed changes nothing (one committed data stream), so
# there the runs differ only by what the machine did.
#
#   bash crates/ea-bench/aa.sh [runs-per-set, default 5] > crates/ea-bench/AA.md
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/../.."
bash crates/ea-bench/run.sh --cargo build --release --quiet -p ea-bench
exec python3 - "${1:-5}" <<'PY'
import json, statistics, subprocess, sys

passes = int(sys.argv[1])
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m for m in spec["end_to_end"]}
workloads = [w["name"] for w in spec["workloads"]]
fingerprint = {}


def run(workload, seed):
    out = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stdout}{out.stderr}")
    lines = out.stdout.strip().splitlines()
    for line in lines:
        key, _, value = line.strip().partition(": ")
        if key in ("nproc", "cpu", "simd", "rustc", "deps", "rng_streams"):
            fingerprint[key] = value
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, result
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(workload, seed, json.dumps(values), file=sys.stderr)
    return values


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


sets = {w: ([], []) for w in workloads}
seed = 0
for i in range(passes):
    for which in (0, 1):          # A, B, A, B, ...: the sets see the same drift
        for w in workloads:
            seed += 1
            sets[w][which].append(run(w, seed))
            print(f"pass {i + 1}/{passes} set {'AB'[which]} {w} done", file=sys.stderr)

print(f"# A/A: two interleaved sets of {passes} runs of one binary\n")
print("Measured on: " + "; ".join(f"{k} {v}" for k, v in fingerprint.items()) + ".\n")
print("Every run has its own `--seed`. On `train_*` the seed changes nothing (the data is "
      "one committed stream), so those runs replay one trajectory and differ only by what "
      "the machine did; on `serve_*` it draws the schedule, the inputs and the swap deltas.\n")
print("`gap` is how much worse set B's median is than set A's, as a share of A's "
      "(negative: better). `iqr/med` is the distance between the quartiles "
      "(`statistics.quantiles(values, n=4)`) over the median: of set A, of set B, and of "
      f"all {2 * passes} runs. Two verdicts: `gap` holds if the gap is within the bound "
      "(the issue's rule; `2x` says whether the bound is also at least twice the gap); "
      f"`spread` holds if the spread of all {2 * passes} runs is within the bound, "
      "`setup_s` excepted (the rule the driver accepts a benchmark by; its aim is a "
      "spread under a third of the bound).\n")
print("| workload | metric | median A | median B | gap | iqr/med A | iqr/med B | iqr/med all "
      "| bound | gap | 2x | spread |")
print("|---|---|---|---|---|---|---|---|---|---|---|---|")
failed = 0
for w in workloads:
    a, b = sets[w]
    for name, m in bounds.items():
        va, vb = [r[name] for r in a], [r[name] for r in b]
        ma, mb = statistics.median(va), statistics.median(vb)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb, sall = spread(va), spread(vb), spread(va + vb)
        gap_ok = worse <= m["bound"]
        twice = 2 * abs(worse) <= m["bound"]
        spread_ok = name == "setup_s" or sall <= m["bound"]
        failed += not (gap_ok and spread_ok)
        print(f"| {w} | {name} | {ma:.6g} | {mb:.6g} | {worse:+.4f} | {sa:.4f} | {sb:.4f} "
              f"| {sall:.4f} | {m['bound']} | {'PASS' if gap_ok else 'FAIL'} "
              f"| {'yes' if twice else 'NO'} | {'PASS' if spread_ok else 'FAIL'} |")
    counts = sorted({r["ops_to_target"] for r in a + b})
    print(f"| {w} | ops_to_target values seen | {counts} | | | | | | | | | |")
print(f"\n{'every pairing passes both rules' if failed == 0 else f'{failed} pairings FAIL'}")
sys.exit(1 if failed else 0)
PY
