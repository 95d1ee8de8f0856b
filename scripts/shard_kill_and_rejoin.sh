#!/usr/bin/env bash
# Sharded chaos smoke test: SIGKILL one shard *server* mid-training.
#
# Splits the demo reference across 2 shard servers (int8 delta wire),
# trains 4 worker pipelines that scatter-gather every round across both,
# SIGKILLs server 1 mid-run, restarts it from its checkpoint, and
# asserts:
#   * the restarted server prints `RESTORED round=R` (checkpoint + shard
#     map reload) and catches up to the fleet — the workers' resync
#     heartbeats complete the rounds that died with the old incarnation
#   * all 4 workers finish all rounds (`VERIFY OK ... mode=ft`) without
#     falling back to local-only training
#   * both servers complete every round (`SERVER DONE`)
#
# Usage: scripts/shard_kill_and_rejoin.sh [logdir]
#   SKIP_BUILD=1  reuse the binaries already under
#                 ${CARGO_TARGET_DIR:-target}/release/examples

set -euo pipefail
cd "$(dirname "$0")/.."

LOGDIR="${1:-sharded-logs}"
ADDR0="127.0.0.1:7373"
ADDR1="127.0.0.1:7374"
ROUNDS=12
PIPELINES=4
CODEC=int8
CKPT0="$LOGDIR/shard0.ckpt"
CKPT1="$LOGDIR/shard1.ckpt"
mkdir -p "$LOGDIR"
rm -f "$LOGDIR"/*.log "$CKPT0" "$CKPT1"

if [ -z "${SKIP_BUILD:-}" ]; then
  cargo build --release --example elastic_server --example elastic_worker
fi
BIN="${CARGO_TARGET_DIR:-target}/release"
SERVER="$BIN/examples/elastic_server"
WORKER="$BIN/examples/elastic_worker"

WORKER_PIDS=()
cleanup() {
  for pid in "${S0_PID:-}" "${S1_PID:-}" "${S1B_PID:-}" "${WORKER_PIDS[@]}"; do
    if [ -n "$pid" ]; then
      kill "$pid" 2>/dev/null || true
    fi
  done
}
trap cleanup EXIT

start_server() { # addr, shard-index, checkpoint, logfile
  "$SERVER" --addr "$1" --shards 2 --shard-index "$2" --codec "$CODEC" \
    --pipelines "$PIPELINES" --fault-tolerant --lease-ms 500 \
    --checkpoint "$3" --rounds "$ROUNDS" > "$4" 2>&1 &
}

echo "== starting 2 fault-tolerant shard servers ($CODEC wire) =="
start_server "$ADDR0" 0 "$CKPT0" "$LOGDIR/server0.log"
S0_PID=$!
start_server "$ADDR1" 1 "$CKPT1" "$LOGDIR/server1.log"
S1_PID=$!
for log in "$LOGDIR/server0.log" "$LOGDIR/server1.log"; do
  for _ in $(seq 1 50); do
    grep -q LISTENING "$log" && break
    sleep 0.2
  done
  grep -q LISTENING "$log"
done

echo "== starting $PIPELINES workers (scatter-gather over both servers) =="
for p in $(seq 0 $((PIPELINES - 1))); do
  "$WORKER" --addr "$ADDR0" --addr "$ADDR1" --pipe "$p" --codec "$CODEC" \
    --pipelines "$PIPELINES" --tolerate-faults --target-rounds "$ROUNDS" \
    --round-delay-ms 300 > "$LOGDIR/worker$p.log" 2>&1 &
  WORKER_PIDS+=("$!")
done

# Let a few checkpointed rounds land, then kill server 1 the hard way.
sleep 2.0
echo "== SIGKILL shard server 1 (pid $S1_PID) mid-training =="
kill -9 "$S1_PID"
S1_PID=""
test -f "$CKPT1" # the restart below must have something to restore

# The workers' scatter legs to server 1 fail; they retry and reconnect.
sleep 0.8
echo "== restarting shard server 1 from its checkpoint =="
start_server "$ADDR1" 1 "$CKPT1" "$LOGDIR/server1_restarted.log"
S1B_PID=$!

for pid in "${WORKER_PIDS[@]}"; do
  wait "$pid"
done
wait "$S0_PID"
wait "$S1B_PID"

echo "== logs =="
tail -n 4 "$LOGDIR/server0.log" "$LOGDIR/server1_restarted.log" "$LOGDIR"/worker*.log

echo "== assertions =="
grep -q "RESTORED round=" "$LOGDIR/server1_restarted.log"
grep -q "shards=1..2/2" "$LOGDIR/server1_restarted.log"
for p in $(seq 0 $((PIPELINES - 1))); do
  grep -q "VERIFY OK pipe=$p mode=ft" "$LOGDIR/worker$p.log"
done
grep -q "SERVER DONE after $ROUNDS rounds" "$LOGDIR/server0.log"
grep -q "SERVER DONE after $ROUNDS rounds" "$LOGDIR/server1_restarted.log"
echo "SHARD-KILL-AND-REJOIN OK"
