//! Trace parity: observability must be read-only.
//!
//! Attaching a recording [`TraceSink`] and a live [`MetricsRegistry`] to a
//! verification run must change *nothing* observable about the result —
//! not the verdict, not the soundness level, not which rung answered, not
//! the rung-by-rung outcomes, and not the query sequence of the answering
//! rung. The property is checked on the real kernel corpus, on fuzzed
//! kernels (basic and extended grammar), and under deterministic fault
//! injection — and every recorded trace must also validate structurally
//! (balanced spans, strictly increasing sequence), even when rungs panic,
//! and its JSONL export must parse back to a trace of the same shape.
//!
//! Failpoints are process-global, so every test serializes on one lock.

use pug_obs::{parse_jsonl, validate, MetricsRegistry, TraceSink};
use pugpara::failpoints::{self, Fault};
use pugpara::runner::{run_resilient, ResilientReport, RungOutcome, RunnerOptions};
use pugpara::{explain_report, KernelUnit, Soundness, Verdict};
use pug_ir::GpuConfig;
use pug_testutil::KernelGen;
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

struct Scope(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Scope {
    fn armed(sites: &[(&str, Fault)]) -> Scope {
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        failpoints::reset();
        for &(site, fault) in sites {
            failpoints::arm(site, fault);
        }
        Scope(guard)
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        failpoints::reset();
    }
}

/// Everything the parity property quantifies over. Per-rung query counts
/// are compared only for *answered* rungs: a budget-limited rung's
/// progress depends on wall clock, traced or not.
fn fingerprint(r: &ResilientReport) -> String {
    let verdict = match &r.verdict {
        Verdict::Verified(Soundness::Sound) => "verified/sound".to_string(),
        Verdict::Verified(Soundness::UnderApprox) => "verified/under-approx".to_string(),
        Verdict::Bug(b) => format!("bug/{:?}", b.kind),
        Verdict::Timeout => "timeout".to_string(),
    };
    let answered = match r.provenance.answered_by {
        Some(rung) => rung.to_string(),
        None => "nobody".to_string(),
    };
    let mut out = format!("{verdict} by {answered}\n");
    for rung in &r.provenance.rungs {
        let outcome = match &rung.outcome {
            RungOutcome::Answered => "answered".to_string(),
            o => o.to_string(),
        };
        out.push_str(&format!("{} -> {outcome}", rung.rung));
        if matches!(rung.outcome, RungOutcome::Answered) {
            // The query sequence of an answered rung is deterministic:
            // same labels, same outcomes, in the same order.
            for q in &rung.stats {
                out.push_str(&format!("\n  {} = {}", q.label, q.outcome));
            }
        }
        out.push('\n');
    }
    out
}

/// Run a pair twice — sink disabled, then recording — and demand equal
/// fingerprints, a valid recorded trace and a JSONL export that parses
/// back to the same shape. Returns the recorded sink.
fn assert_parity(
    name: &str,
    src: &KernelUnit,
    tgt: &KernelUnit,
    cfg: &GpuConfig,
    opts: &RunnerOptions,
) -> TraceSink {
    let plain = run_resilient(src, tgt, cfg, opts);
    let sink = TraceSink::recording();
    let traced_opts = opts
        .clone()
        .with_trace(sink.clone())
        .with_metrics(MetricsRegistry::new());
    let traced = run_resilient(src, tgt, cfg, &traced_opts);
    assert_eq!(
        fingerprint(&plain),
        fingerprint(&traced),
        "{name}: tracing changed the result\nuntraced:\n{}\ntraced:\n{}",
        explain_report(&plain),
        explain_report(&traced)
    );
    let summary = validate(&sink.events())
        .unwrap_or_else(|e| panic!("{name}: recorded trace is structurally broken: {e}"));
    assert!(summary.spans > 0, "{name}: traced run recorded no spans");
    assert!(!sink.is_truncated(), "{name}: the trace overflowed its event cap");
    let parsed = parse_jsonl(&sink.to_jsonl())
        .unwrap_or_else(|e| panic!("{name}: the JSONL export does not parse back: {e}"));
    assert_eq!(validate(&parsed), Ok(summary), "{name}: the JSONL round trip changed the trace");
    sink
}

/// The corpus pairs (the determinism suite's grid): every headline
/// equivalence pair, verified and buggy alike.
fn corpus_pairs() -> Vec<(&'static str, KernelUnit, KernelUnit, GpuConfig, RunnerOptions)> {
    let load = |s: &str| KernelUnit::load(s).unwrap();
    // 2 s deadline + concretization: the fully symbolic Param rung times
    // out (it needs 5.6–5.9 s on a 2-CPU machine, 2.8–3.0x the deadline)
    // and "+C." answers, so the deadline path is exercised without
    // dominating the suite.
    let transpose_opts = RunnerOptions::with_rung_timeout(std::time::Duration::from_secs(2))
        .concretized("width", 8)
        .concretized("height", 8);
    vec![
        (
            "transpose naive/opt",
            load(pug_kernels::transpose::NAIVE),
            load(pug_kernels::transpose::OPTIMIZED),
            GpuConfig::symbolic_2d(8),
            transpose_opts,
        ),
        (
            "transpose naive/buggy-addr",
            load(pug_kernels::transpose::NAIVE),
            load(pug_kernels::transpose::BUGGY_ADDR),
            GpuConfig::symbolic_2d(8),
            RunnerOptions::default(),
        ),
        (
            "reduction v0/v1",
            load(pug_kernels::reduction::V0),
            load(pug_kernels::reduction::V1),
            GpuConfig::symbolic_1d(8),
            RunnerOptions::default(),
        ),
        (
            "reduction v0/buggy-index",
            load(pug_kernels::reduction::V0),
            load(pug_kernels::reduction::BUGGY_INDEX),
            GpuConfig::symbolic_1d(8),
            RunnerOptions::default(),
        ),
        (
            "vector-add ok/buggy",
            load(pug_kernels::vector_add::KERNEL),
            load(pug_kernels::vector_add::BUGGY),
            GpuConfig::symbolic_1d(8),
            RunnerOptions::default(),
        ),
    ]
}

/// Single-block symbolic-width configuration for fuzzed kernels (the
/// generator indexes by `tid.x` only).
fn fuzz_cfg() -> GpuConfig {
    GpuConfig {
        bits: 8,
        bdim: [pug_ir::Extent::Sym, pug_ir::Extent::Const(1), pug_ir::Extent::Const(1)],
        gdim: [pug_ir::Extent::Const(1), pug_ir::Extent::Const(1)],
    }
}

#[test]
fn tracing_is_verdict_neutral_on_corpus_pairs() {
    let _scope = Scope::armed(&[]);
    for (name, src, tgt, cfg, opts) in corpus_pairs() {
        assert_parity(name, &src, &tgt, &cfg, &opts);
    }
}

#[test]
fn tracing_is_verdict_neutral_on_fuzzed_kernels() {
    let _scope = Scope::armed(&[]);
    for seed in 0..4u64 {
        let basic = KernelGen::basic(seed * 13 + 1).kernel();
        let unit = KernelUnit::load(&basic).unwrap();
        assert_parity(
            &format!("basic fuzz seed {seed}"),
            &unit,
            &unit,
            &fuzz_cfg(),
            &RunnerOptions::default(),
        );
        let extended = KernelGen::extended(seed * 71 + 9).kernel();
        let unit = KernelUnit::load(&extended).unwrap();
        assert_parity(
            &format!("extended fuzz seed {seed}"),
            &unit,
            &unit,
            &fuzz_cfg(),
            &RunnerOptions::default(),
        );
    }
}

/// Parity holds when rungs fail: with the Param rung deterministically
/// exhausted, the traced and untraced ladders must still agree — and the
/// trace must stay balanced even though a rung was cut short.
#[test]
fn tracing_is_verdict_neutral_under_budget_faults() {
    let _scope = Scope::armed(&[("runner::param", Fault::BudgetExhausted)]);
    let naive = KernelUnit::load(pug_kernels::transpose::NAIVE).unwrap();
    let sink = assert_parity(
        "param exhausted",
        &naive,
        &naive,
        &GpuConfig::symbolic_2d(8),
        &RunnerOptions::default(),
    );
    // The faulted rung still opened and closed its span.
    let names: Vec<String> =
        sink.events().iter().map(|e| e.name.clone()).collect();
    assert!(names.iter().any(|n| n == "rung:Param"), "faulted rung missing from trace");
}

/// Spans stay balanced across panic unwinds: a panicking solver rips
/// through query/rung scopes, and the guards must close them on the way
/// out (the runner's catch_unwind turns the panic into a Crashed rung).
#[test]
fn traces_stay_balanced_when_rungs_panic() {
    let _scope = Scope::armed(&[("sat::solve", Fault::Panic)]);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // injected panics are expected
    let naive = KernelUnit::load(pug_kernels::transpose::NAIVE).unwrap();
    let sink = TraceSink::recording();
    let opts = RunnerOptions::default().with_trace(sink.clone());
    let report = run_resilient(&naive, &naive, &GpuConfig::symbolic_2d(8), &opts);
    std::panic::set_hook(prev);
    let crashed = report
        .provenance
        .rungs
        .iter()
        .filter(|r| matches!(r.outcome, RungOutcome::Crashed(_)))
        .count();
    assert!(crashed > 0, "panic fault did not reach any rung:\n{}", explain_report(&report));
    let summary = validate(&sink.events())
        .unwrap_or_else(|e| panic!("trace unbalanced after panics: {e}"));
    assert!(summary.spans > 0);
}
