//! `repro-tables --explain` — verdict narratives for the explain corpus.
//!
//! [`explain_rows`] runs the explain corpus's kernel pairs through the
//! degradation ladder and renders each [`ResilientReport`] as a verdict
//! narrative via [`pugpara::explain_report`].

use pug_ir::GpuConfig;
use pugpara::runner::{run_resilient, ResilientReport, RunnerOptions};
use pugpara::KernelUnit;
use std::time::Duration;

/// One kernel pair of the explain corpus, with its ladder policy.
struct GridPair {
    name: &'static str,
    src: KernelUnit,
    tgt: KernelUnit,
    cfg: GpuConfig,
    opts: RunnerOptions,
}

/// The explain corpus. On the two transpose −C. rows the fully-symbolic
/// Param rung must run out of budget and the NonParam(144) fallback is far
/// over any small deadline before NonParam(4) answers. A deadline alone
/// does not pin that ladder: at 8 bits the Param rung answers after about
/// 92,000 conflicts, in about 6 s on a 2-CPU machine, right at the 6 s
/// deadline. So every query is also capped at 20,000 conflicts, which the
/// Param rung reaches in under a second at 8 and 16 bits, while
/// NonParam(144) still runs out of its deadline and NonParam(4) answers
/// after a few hundred. The remaining rows answer on the first rung.
fn grid(quick: bool) -> Vec<GridPair> {
    let load = |s: &str| KernelUnit::load(s).expect("bundled kernel loads");
    let hard = |timeout_secs: u64| {
        let mut opts = RunnerOptions {
            rung_timeout: Some(Duration::from_secs(timeout_secs)),
            fallback_ns: vec![144, 4],
            ..RunnerOptions::default()
        };
        opts.engine.max_conflicts = Some(20_000);
        opts
    };
    let mut pairs = vec![GridPair {
        name: "Transpose -C. (8b)",
        src: load(pug_kernels::transpose::NAIVE),
        tgt: load(pug_kernels::transpose::OPTIMIZED),
        cfg: GpuConfig::symbolic_2d(8),
        opts: hard(6),
    }];
    if !quick {
        pairs.push(GridPair {
            name: "Transpose -C. (16b)",
            src: load(pug_kernels::transpose::NAIVE),
            tgt: load(pug_kernels::transpose::OPTIMIZED),
            cfg: GpuConfig::symbolic_2d(16),
            opts: hard(4),
        });
    }
    pairs.extend([
        GridPair {
            name: "Reduction v0/v1 (8b)",
            src: load(pug_kernels::reduction::V0),
            tgt: load(pug_kernels::reduction::V1),
            cfg: GpuConfig::symbolic_1d(8),
            opts: RunnerOptions::default(),
        },
        GridPair {
            name: "Transpose bug (16b)",
            src: load(pug_kernels::transpose::NAIVE),
            tgt: load(pug_kernels::transpose::BUGGY_ADDR),
            cfg: GpuConfig::symbolic_2d(16),
            opts: RunnerOptions::default(),
        },
        GridPair {
            name: "Reduction bug (8b)",
            src: load(pug_kernels::reduction::V0),
            tgt: load(pug_kernels::reduction::BUGGY_INDEX),
            cfg: GpuConfig::symbolic_1d(8),
            opts: RunnerOptions::default(),
        },
        GridPair {
            name: "VectorAdd bug (8b)",
            src: load(pug_kernels::vector_add::KERNEL),
            tgt: load(pug_kernels::vector_add::BUGGY),
            cfg: GpuConfig::symbolic_1d(8),
            opts: RunnerOptions::default(),
        },
    ]);
    pairs
}

/// Run every explain-corpus pair through the ladder.
/// `aux_passes` adds the race/bank-conflict/coalescing passes to each
/// narrative; the golden snapshot suite runs without them. The passes
/// share a row's caps, so on the hard transpose rows the race pass runs
/// out of the 20,000-conflict cap.
pub fn explain_corpus(quick: bool, aux_passes: bool) -> Vec<(String, ResilientReport)> {
    grid(quick)
        .into_iter()
        .map(|p| {
            let opts = if aux_passes { p.opts.with_aux_passes() } else { p.opts };
            let report = run_resilient(&p.src, &p.tgt, &p.cfg, &opts);
            (p.name.to_string(), report)
        })
        .collect()
}

/// Render the explain narrative (with times) for every corpus pair.
pub fn explain_rows(quick: bool) -> String {
    let mut out = String::new();
    for (name, report) in explain_corpus(quick, true) {
        out.push_str(&format!("=== {name} ===\n"));
        out.push_str(&pugpara::explain_report(&report));
        out.push('\n');
    }
    out
}
