#!/usr/bin/env bash
# Repo CI: build, full test suite (tests/fault_injection.rs among it covers
# the degradation ladder's per-rung faults and cancellation), lints, and the
# fault-injection smoke over the table grid. Prints a per-suite wall-clock
# summary at the end so slow suites are visible in the log.
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
# Generalized-qelim smoke: the differential suite proving elimination-on
# and elimination-off report identical verdicts across the corpus and a
# fuzzed grid, and that the symbolic-stride pair is answered by the fully
# parameterized rung only with the elimination on (off, it degrades to
# the legacy drop path with correct provenance). Plus the replay gate:
# every race the checker calls provable must carry a schedule this suite
# independently re-parses and replays.
run_suite "qelim smoke" \
  cargo test -q --test qelim_differential
run_suite "race-replay smoke" \
  cargo test -q --test race_witness_replay
# Canonicalization smoke: the differential suite proving normalize-on and
# normalize-off report the same verdicts and outcome classes on the corpus,
# plus the cache-effectiveness regression against the pre-normalization
# baseline (miss counts must not grow, hit rate must improve, and at least
# one obligation must be discharged by rewriting alone).
run_suite "normalize smoke" \
  cargo test -q --test normalize_differential corpus_pairs_agree
run_suite "cache-effectiveness gate" \
  cargo test -q -p pug-bench --test cache_effectiveness
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
# Perf smoke, run last: it gates wall time against a recorded baseline,
# so a slower machine can fail it, and under `set -e` a failure here
# skips nothing else. It runs multi-obligation equivalence rows through the
# incremental backend and the one-shot reference backend
# (`Ablation::OneShot`), exits non-zero if any verdict diverges between
# the two, and gates each row's incremental wall time
# against the committed baseline, which it reads with the shared
# `pug_obs::Json` codec (>10% + 50 ms slack counts as a regression; rows
# absent from the quick grid are reported, not gated). Also runs the
# rung-improvement grid and exits non-zero unless at least one row's
# answering rung gets strictly stronger with the generalized quantifier
# elimination on, verdicts agreeing.
run_suite "perf smoke + regression gate" \
  cargo run --release -p pug-bench --bin repro-tables -- \
    --bench-json /tmp/bench_pr10_ci.json --quick --timeout 60 \
    --baseline BENCH_pr10.json

echo
echo "== wall-clock summary"
for i in "${!SUITES[@]}"; do
  printf '%-40s %4ss\n' "${SUITES[$i]}" "${TIMES[$i]}"
done
echo "CI OK"
