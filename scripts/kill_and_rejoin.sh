#!/usr/bin/env bash
# Kill-and-rejoin chaos smoke test for the fault-tolerant demo.
#
# Starts the fault-tolerant elastic_server plus two workers, SIGKILLs
# worker 1 mid-training, lets the survivor run degraded rounds while the
# server evicts the corpse, then restarts worker 1 with --rejoin and
# asserts:
#   * both workers finish all rounds and print `VERIFY OK ... mode=ft`
#   * the server counted at least one eviction and one rejoin
#   * the quorum is back to 2/2 and no round stalled (SERVER DONE prints)
#   * the server wrote reference checkpoints along the way
#
# Usage: scripts/kill_and_rejoin.sh [logdir]
#   SKIP_BUILD=1  reuse the binaries already under
#                 ${CARGO_TARGET_DIR:-target}/release/examples

set -euo pipefail
cd "$(dirname "$0")/.."

LOGDIR="${1:-chaos-logs}"
ADDR="127.0.0.1:7272"
ROUNDS=12
CKPT="$LOGDIR/reference.ckpt"
mkdir -p "$LOGDIR"
rm -f "$LOGDIR"/*.log "$CKPT"

if [ -z "${SKIP_BUILD:-}" ]; then
  cargo build --release --example elastic_server --example elastic_worker
fi
BIN="${CARGO_TARGET_DIR:-target}/release"
SERVER="$BIN/examples/elastic_server"
WORKER="$BIN/examples/elastic_worker"

cleanup() {
  # No `kill 0` fallback: an unset pid must not signal the process group.
  for pid in "${SERVER_PID:-}" "${W0_PID:-}" "${W1_PID:-}" "${W1B_PID:-}"; do
    if [ -n "$pid" ]; then
      kill "$pid" 2>/dev/null || true
    fi
  done
}
trap cleanup EXIT

echo "== starting fault-tolerant server (lease 500ms, checkpointing) =="
"$SERVER" --addr "$ADDR" --fault-tolerant --lease-ms 500 \
  --checkpoint "$CKPT" --rounds "$ROUNDS" > "$LOGDIR/server.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 50); do
  grep -q LISTENING "$LOGDIR/server.log" && break
  sleep 0.2
done
grep -q LISTENING "$LOGDIR/server.log"

echo "== starting workers 0 and 1 =="
"$WORKER" --addr "$ADDR" --pipe 0 --tolerate-faults --target-rounds "$ROUNDS" \
  --round-delay-ms 300 > "$LOGDIR/worker0.log" 2>&1 &
W0_PID=$!
"$WORKER" --addr "$ADDR" --pipe 1 --tolerate-faults --target-rounds "$ROUNDS" \
  --round-delay-ms 300 > "$LOGDIR/worker1.log" 2>&1 &
W1_PID=$!

# Let a few full-quorum rounds land, then kill worker 1 the hard way.
sleep 1.5
echo "== SIGKILL worker 1 (pid $W1_PID) mid-training =="
kill -9 "$W1_PID"

# Survivor keeps going; the lease expires and the server evicts pipe 1.
sleep 1.2
echo "== restarting worker 1 with --rejoin =="
"$WORKER" --addr "$ADDR" --pipe 1 --tolerate-faults --rejoin \
  --target-rounds "$ROUNDS" --round-delay-ms 300 > "$LOGDIR/worker1_rejoined.log" 2>&1 &
W1B_PID=$!

wait "$W0_PID"
wait "$W1B_PID"
wait "$SERVER_PID"

echo "== logs =="
tail -n 5 "$LOGDIR/server.log" "$LOGDIR/worker0.log" "$LOGDIR/worker1_rejoined.log"

echo "== assertions =="
grep -q "VERIFY OK pipe=0 mode=ft" "$LOGDIR/worker0.log"
grep -q "REJOIN pipe=1" "$LOGDIR/worker1_rejoined.log"
grep -q "VERIFY OK pipe=1 mode=ft" "$LOGDIR/worker1_rejoined.log"
grep -Eq "METRICS evictions=[1-9][0-9]* rejoins=[1-9][0-9]*" "$LOGDIR/server.log"
grep -q "QUORUM live=2/2" "$LOGDIR/server.log"
grep -q "SERVER DONE after $ROUNDS rounds" "$LOGDIR/server.log"
test -f "$CKPT"
echo "KILL-AND-REJOIN OK"
