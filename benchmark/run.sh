#!/usr/bin/env bash
# Build the pug-serve daemon and the pugbench binary from this checkout's
# sources, then run the benchmark:
#
#   bash benchmark/run.sh --workload proof-heavy --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh --workload all --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh check base/*.json -- change/*.json
#
# Build output goes to $CARGO_TARGET_DIR (default benchmark/target); result
# files and span dumps go to $CARGO_TARGET_DIR/pugbench/. Cargo's output
# goes to stderr, so the last line of stdout is the run's JSON summary.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f Cargo.toml ] || [ ! -d crates/serve ]; then
    echo "pugbench: the repository sources are not next to benchmark/; nothing to build" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet -p pug-serve >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/pugbench"

if [ "${1:-}" = "check" ]; then
    shift
    exec "$bin" check --bench BENCHMARK.json "$@"
fi
exec "$bin" run --daemon "$CARGO_TARGET_DIR/release/pug-serve" \
    --out-dir "$CARGO_TARGET_DIR/pugbench" "$@"
