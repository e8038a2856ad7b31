#!/usr/bin/env bash
# Repo CI: build, the full test suite, lints, rustdoc and the benchmark's
# self-test. The `cargo test` step runs every test file once, with debug
# assertions, so every satisfiable query's model is checked against the
# query as posed (the solver gets a class-substituted rewrite of it); the
# gates among them:
#   tests/work_counts.rs             work counts equal tests/golden/work_counts.txt;
#                                    backend agreement, the Param rung rows and the
#                                    canonicalization gains (the share of queries
#                                    answered without a solve, cache hits plus
#                                    rewrite discharges, grows) are checked in
#                                    code, so re-recording cannot accept their loss
#   tests/fault_injection.rs         the ladder's per-rung faults and cancellation
#   tests/race_witness_replay.rs     every race called provable replays
#   tests/normalize_differential.rs  normalize on and off agree
#   tests/trace_parity.rs            tracing is verdict-neutral, and every recorded
#                                    trace round-trips through its JSONL export
#   crates/serve/tests/serve_faults.rs  with the Param rung faulted, the daemon's
#                                    verdicts equal the in-process ladder's; live
#                                    /metrics; a clean drain within the deadline
#   crates/bench/tests/cell_faults.rs   every table cell resolves under injected
#                                    solver panics and spurious unknowns
#   golden_explain, golden_diagnostics  the narrative and diagnostic goldens
# Wall time is not gated here: `pugbench check` on alternating pairs
# measures it (benchmark/README.md). Prints a per-suite wall-clock summary
# at the end so slow suites are visible in the log.
set -euo pipefail
cd "$(dirname "$0")"

SUITES=()
TIMES=()

run_suite() {
  local name="$1"
  shift
  echo "==> $name"
  local start=$SECONDS
  "$@"
  SUITES+=("$name")
  TIMES+=("$((SECONDS - start))")
}

run_suite "cargo build --release" cargo build --workspace --release
run_suite "cargo test" cargo test --workspace -q
run_suite "cargo clippy" cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc warnings fail the build, so a doc link to a deleted or private
# item cannot go stale silently.
run_suite "cargo doc" env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# Benchmark self-test: `pugbench` is its own workspace and builds against
# the library crates, so an API change that breaks it only shows here. Its
# tests run every workload end to end in quick mode against the daemon.
run_suite "pugbench self-test" \
  cargo test --release --manifest-path benchmark/Cargo.toml

echo
echo "== wall-clock summary"
for i in "${!SUITES[@]}"; do
  printf '%-40s %4ss\n' "${SUITES[$i]}" "${TIMES[$i]}"
done
echo "CI OK"
