#!/usr/bin/env bash
# Repo CI: build, the full test suite, lints and smokes of the binaries.
# The `cargo test` step runs every test file once, the gates among them:
#   tests/work_counts.rs             work counts equal tests/golden/work_counts.txt;
#                                    backend agreement, the Param rung rows and the
#                                    cache gains are checked in code, so
#                                    re-recording cannot accept their loss
#   tests/fault_injection.rs         the ladder's per-rung faults and cancellation
#   tests/race_witness_replay.rs     every race called provable replays
#   tests/normalize_differential.rs  normalize on and off agree
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
run_suite "fault-injection smoke (sequential)" \
  cargo run --release -p pug-bench --bin repro-tables -- --fault-injection --timeout 20
# Observability smoke: one fully traced equivalence check; the JSONL export
# is written and re-parsed through the shared `pug_obs::Json` codec and the
# span tree structurally validated (balanced opens and closes, strictly
# increasing sequence). Non-zero exit on a broken trace.
run_suite "trace smoke" \
  cargo run --release -p pug-bench --bin repro-tables -- --trace /tmp/pug_trace_ci.jsonl
# Service smoke: starts the pug-serve daemon on an ephemeral port at the
# default config, runs corpus jobs over the wire (including one with an
# armed runner failpoint), asserts verdicts byte-identical to the
# in-process runner, checks the /metrics endpoint, and times a graceful
# shutdown. Non-zero exit on any disagreement or a dirty drain.
run_suite "serve smoke" \
  cargo run --release -p pug-serve -- --smoke
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
