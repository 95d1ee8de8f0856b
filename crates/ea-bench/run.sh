#!/usr/bin/env bash
# The command BENCHMARK.json names: builds ea-bench and runs it with the
# arguments given.
#
#   bash crates/ea-bench/run.sh --workload W --seed N --seconds 10 --trace 0|1
#   bash crates/ea-bench/run.sh --cargo test --release -p ea-bench
#
# The build uses the published crates the workspace names, through cargo's
# normal sources (a registry, its cache, a vendored directory). Only where
# cargo cannot resolve them -- the sandbox this benchmark was written in
# has no registry -- does it fall back to the stand-ins in offline-deps/.
# That build runs in a shadow of the workspace under the target directory
# (the manifest copied, the sources linked), so it has a lockfile and a
# target directory of its own and never writes the workspace's Cargo.lock.
# The binary prints which of the two it was built against (`deps:`).
# `--cargo ARGS...` runs `cargo ARGS...` the same way, for tests and clippy.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
cd "$root"
if [ ! -f Cargo.toml ] || [ ! -d crates/ea-runtime ]; then
    echo "ea-bench: $root is not the workspace this benchmark measures" >&2
    exit 1
fi
target="$(realpath -m "${CARGO_TARGET_DIR:-target}")"

# Resolving is all this asks of the network, once, without retries: where
# there is no registry it fails in a few milliseconds.
if CARGO_NET_RETRY=0 CARGO_HTTP_TIMEOUT=10 \
    cargo metadata --format-version 1 >/dev/null 2>&1; then
    deps=published
    out="$target"
    flags=()
else
    deps=standins
    out="$target/ea-bench-standins"
    ws="$out/workspace"
    mkdir -p "$ws"
    cmp -s Cargo.toml "$ws/Cargo.toml" || cp Cargo.toml "$ws/Cargo.toml"
    for entry in crates src BENCHMARK.json; do
        ln -sfn "$root/$entry" "$ws/$entry"
    done
    flags=(--offline --manifest-path "$ws/Cargo.toml" --target-dir "$out"
        --config 'source.crates-io.replace-with="ea-bench-standins"'
        --config "source.ea-bench-standins.directory=\"$here/offline-deps\"")
fi
export EA_BENCH_DEPS="$deps"

if [ "${1:-}" = "--cargo" ]; then
    subcommand="$2"
    shift 2
    echo "ea-bench: cargo $subcommand against the $deps dependencies" >&2
    exec cargo "$subcommand" "${flags[@]}" "$@"
fi
cargo build --release --quiet -p ea-bench "${flags[@]}" >&2
exec "$out/release/ea-bench" "$@"
