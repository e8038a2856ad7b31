//! Work-count gate: the engine's effort on a fixed grid, pinned exactly.
//!
//! The paper's results rest on the size of its encodings (parameterized ≪
//! non-parameterized, blow-up in n and bit width), so CNF size and search
//! effort are this engine's machine-independent cost. The grid:
//!
//! * six equivalence rows, each run twice: through the persistent
//!   `SolveSession` backend with a per-row `QueryCache` (what the runner's
//!   rungs use) and through the one-shot reference path
//!   (`Ablation::OneShot`, no cache). Ladder rows run the FastBugHunt
//!   screen, then the full proof, so the proof re-issues every value
//!   obligation the screen discharged;
//! * two rung rows through `run_resilient`, each recording the rung that
//!   answered and its verdict;
//! * seven single-kernel rows: the race, bank-conflict, coalescing and
//!   parameterized postcondition checkers on corpus kernels.
//!
//! Every count of every cell is compared with `tests/golden/work_counts.txt`
//! byte for byte. The counts repeat exactly across runs, processes and
//! build profiles, and a bound on growth would miss regressions that move
//! counts down: turning SAT simplification off lowers conflicts while it
//! nearly doubles propagations. A change that moves the counts on purpose
//! re-records them and lists the diff in CHANGES.md:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test work_counts
//! ```
//!
//! Three properties are checked in code, outside the golden, so
//! re-recording cannot accept their loss: both backends agree on every
//! row's verdicts, both rung rows are sound proofs of the fully
//! parameterized rung, and canonicalization keeps its gains in queries
//! answered without a solve ([`PRE_CANONICALIZATION_CACHE`]).
//!
//! No time is recorded. A slowdown that leaves every count unchanged is
//! invisible here; `pugbench check` on alternating pairs measures wall time.

use pug_ir::GpuConfig;
use pug_kernels::{reduction, scalar_product, scan, stride, transpose, vector_add};
use pugpara::equiv::{check_equivalence_param, CheckOptions, Mode};
use pugpara::runner::{run_resilient, ResilientReport, RunnerOptions};
use pugpara::{
    check_bank_conflicts, check_coalescing, check_postcondition_param, check_races, Ablation,
    Error, KernelUnit, PerfReport, QueryCache, QueryStat, Report, Soundness, Verdict,
};
use std::path::Path;
use std::time::Duration;

/// Hang guard for every check and rung. The slowest cell takes about a
/// second; a cell that reaches this limit fails through its verdict.
const TIMEOUT: Duration = Duration::from_secs(120);

const HUNT_PROVE: &[Mode] = &[Mode::FastBugHunt, Mode::Prove];
const PROVE: &[Mode] = &[Mode::Prove];

/// Incremental cache traffic per row, `(row, hits, misses)`, as measured
/// before canonicalization discharged obligations ahead of the cache
/// lookup.
const PRE_CANONICALIZATION_CACHE: [(&str, usize, usize); 6] = [
    ("transpose+W/hunt+prove/8b", 1, 7),
    ("transpose+C/hunt+prove/12b", 1, 7),
    ("transpose-unconstrained/hunt+prove/8b", 0, 2),
    ("scalar_product/hunt+prove/8b", 3, 9),
    ("reduction/param/12b", 0, 15),
    ("reduction-buggy/param/12b", 0, 7),
];

/// One equivalence scenario: a kernel pair checked once per mode, in order.
struct Row {
    name: &'static str,
    src: String,
    tgt: String,
    cfg: GpuConfig,
    concretize: &'static [(&'static str, u64)],
    modes: &'static [Mode],
}

fn rows() -> Vec<Row> {
    let row = |name, src: &str, tgt: &str, cfg, concretize, modes| Row {
        name,
        src: src.to_string(),
        tgt: tgt.to_string(),
        cfg,
        concretize,
        modes,
    };
    let bound = reduction::safe_block_bound(12);
    let v0 = reduction::v0_bounded(bound);
    vec![
        // Height stays symbolic: the screen's value query is the grid's
        // hardest search, and the proof gets it from the cache.
        row(
            "transpose+W/hunt+prove/8b",
            transpose::NAIVE,
            transpose::OPTIMIZED,
            GpuConfig::symbolic_2d(8),
            &[("width", 16)],
            HUNT_PROVE,
        ),
        row(
            "transpose+C/hunt+prove/12b",
            transpose::NAIVE,
            transpose::OPTIMIZED,
            GpuConfig::symbolic_2d(12),
            &[("width", 16), ("height", 16)],
            HUNT_PROVE,
        ),
        row(
            "transpose-unconstrained/hunt+prove/8b",
            transpose::NAIVE,
            transpose::OPTIMIZED_UNCONSTRAINED,
            GpuConfig::symbolic_2d(8),
            &[],
            HUNT_PROVE,
        ),
        row(
            "scalar_product/hunt+prove/8b",
            scalar_product::KERNEL,
            scalar_product::KERNEL,
            GpuConfig::symbolic_1d(8),
            &[],
            HUNT_PROVE,
        ),
        // Single-phase rows: no obligation overlap for the cache to use.
        row(
            "reduction/param/12b",
            &v0,
            &reduction::v1_bounded(bound),
            GpuConfig::symbolic_1d(12),
            &[],
            PROVE,
        ),
        row(
            "reduction-buggy/param/12b",
            &v0,
            &reduction::buggy_index_bounded(bound),
            GpuConfig::symbolic_1d(12),
            &[],
            PROVE,
        ),
    ]
}

/// Verdict classes and work counts of one row in one backend, summed over
/// its phases and their queries.
#[derive(Default)]
struct Counts {
    /// Per-phase verdict classes joined with `+`, e.g. `clean+verified`.
    verdict: String,
    queries: usize,
    cached_queries: usize,
    discharged_by_rewrite: usize,
    cache_hits: usize,
    cache_misses: usize,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    cnf_vars: usize,
    cnf_clauses: usize,
    clauses_reused: usize,
    vars_eliminated: u64,
    clauses_subsumed: u64,
    gates_hashconsed: u64,
}

impl Counts {
    fn add_queries(&mut self, queries: &[QueryStat]) {
        for q in queries {
            let s = &q.stats;
            self.queries += 1;
            self.cached_queries += usize::from(s.cached);
            self.discharged_by_rewrite += usize::from(s.discharged_by_rewrite);
            self.conflicts += s.sat.conflicts;
            self.decisions += s.sat.decisions;
            self.propagations += s.sat.propagations;
            self.cnf_vars += s.cnf_vars;
            self.cnf_clauses += s.cnf_clauses;
            self.clauses_reused += s.clauses_reused;
            self.vars_eliminated += s.sat.vars_eliminated;
            self.clauses_subsumed += s.sat.clauses_subsumed;
            self.gates_hashconsed += s.gates_hashconsed;
        }
    }

    fn render(&self) -> String {
        format!(
            "verdict={} queries={} cached_queries={} discharged_by_rewrite={} \
             cache_hits={} cache_misses={} conflicts={} decisions={} propagations={} \
             cnf_vars={} cnf_clauses={} clauses_reused={} vars_eliminated={} \
             clauses_subsumed={} gates_hashconsed={}",
            self.verdict,
            self.queries,
            self.cached_queries,
            self.discharged_by_rewrite,
            self.cache_hits,
            self.cache_misses,
            self.conflicts,
            self.decisions,
            self.propagations,
            self.cnf_vars,
            self.cnf_clauses,
            self.clauses_reused,
            self.vars_eliminated,
            self.clauses_subsumed,
            self.gates_hashconsed,
        )
    }
}

fn load(src: &str) -> KernelUnit {
    KernelUnit::load(src).expect("corpus kernel loads")
}

fn verdict_class(v: Option<&Verdict>) -> &'static str {
    match v {
        Some(Verdict::Verified(Soundness::Sound)) => "verified",
        Some(Verdict::Verified(_)) => "clean",
        Some(Verdict::Bug(_)) => "bug",
        Some(Verdict::Timeout) => "timeout",
        None => "error",
    }
}

fn run_row(row: &Row, incremental: bool) -> Counts {
    let (src, tgt) = (load(&row.src), load(&row.tgt));
    let cache = incremental.then(QueryCache::new);
    let mut c = Counts::default();
    for (i, &mode) in row.modes.iter().enumerate() {
        let mut opts = CheckOptions::with_timeout(TIMEOUT);
        opts.mode = mode;
        for &(name, value) in row.concretize {
            opts = opts.concretized(name, value);
        }
        opts = match &cache {
            Some(cache) => opts.with_query_cache(cache.clone()),
            None => opts.ablate(Ablation::OneShot),
        };
        let report = check_equivalence_param(&src, &tgt, &row.cfg, &opts).ok();
        if i > 0 {
            c.verdict.push('+');
        }
        c.verdict.push_str(verdict_class(report.as_ref().map(|r| &r.verdict)));
        if let Some(r) = &report {
            c.add_queries(&r.queries);
        }
    }
    if let Some(cache) = &cache {
        c.cache_hits = cache.hits();
        c.cache_misses = cache.misses();
    }
    c
}

type Checker<R> = fn(&KernelUnit, &GpuConfig, &CheckOptions) -> Result<R, Error>;

/// A single-kernel checker: one that returns a verdict, or a performance
/// analysis that returns findings.
#[derive(Clone, Copy)]
enum Check {
    Verdict(Checker<Report>),
    Findings(Checker<PerfReport>),
}

/// Single-kernel checks at 8 bits with no cache: `(row, check, kernel,
/// 2-D launch)`. A 2-D row runs at `symbolic_2d(8)`, the others at
/// `symbolic_1d(8)`. Transpose races and the transpose postcondition are
/// left out: they take seconds each.
const CHECK_ROWS: [(&str, Check, &str, bool); 7] = [
    ("param-race/races/8b", Check::Verdict(check_races), stride::PARAM_RACE, false),
    ("reduction-v1/races/8b", Check::Verdict(check_races), reduction::V1, false),
    ("scan-naive/races/8b", Check::Verdict(check_races), scan::NAIVE, false),
    ("transpose-opt/bank/8b", Check::Findings(check_bank_conflicts), transpose::OPTIMIZED, true),
    ("reduction-v0/bank/8b", Check::Findings(check_bank_conflicts), reduction::V0, false),
    ("transpose-naive/coalescing/8b", Check::Findings(check_coalescing), transpose::NAIVE, true),
    (
        "vector_add/postcond/8b",
        Check::Verdict(check_postcondition_param),
        vector_add::WITH_POSTCOND,
        false,
    ),
];

/// Counts of one single-kernel check. A performance analysis's verdict is
/// its number of findings, e.g. `findings:1`.
fn run_check(check: Check, src: &str, two_d: bool) -> Counts {
    let unit = load(src);
    let cfg = if two_d { GpuConfig::symbolic_2d(8) } else { GpuConfig::symbolic_1d(8) };
    let opts = CheckOptions::with_timeout(TIMEOUT);
    let mut c = Counts::default();
    match check {
        Check::Verdict(f) => {
            let report = f(&unit, &cfg, &opts).ok();
            c.verdict = verdict_class(report.as_ref().map(|r| &r.verdict)).to_string();
            if let Some(r) = &report {
                c.add_queries(&r.queries);
            }
        }
        Check::Findings(f) => match f(&unit, &cfg, &opts) {
            Ok(r) => {
                c.verdict = format!("findings:{}", r.findings.len());
                c.add_queries(&r.queries);
            }
            Err(_) => c.verdict = "error".to_string(),
        },
    }
    c
}

/// Kernel pairs run through the degradation ladder at `symbolic_1d(8)`:
/// `(row, src, tgt)`. The fully parameterized rung must prove both: the
/// grid-stride pair through its symbolic-stride membership constraint,
/// the control pair through the witness correspondences alone.
const RUNG_ROWS: [(&str, &str, &str); 2] = [
    ("grid-stride/rung/8b", stride::GRID_STRIDE, stride::GRID_STRIDE_REASSOC),
    ("scalar_product/rung/8b", scalar_product::KERNEL, scalar_product::KERNEL),
];

/// The cell every rung row must read: a sound proof by the Param rung.
const RUNG_EXPECTED: &str = "Param:verified";

/// `rung:verdict` of one ladder run.
fn rung_cell(report: &ResilientReport) -> String {
    let rung = report.provenance.answered_by.map_or("none".to_string(), |r| r.to_string());
    format!("{rung}:{}", verdict_class(Some(&report.verdict)))
}

#[test]
fn work_counts_match_golden() {
    let mut doc = String::new();
    let mut problems = Vec::new();
    let mut incremental = Vec::new();
    for row in rows() {
        let inc = run_row(&row, true);
        let one = run_row(&row, false);
        for (mode, c) in [("incremental", &inc), ("one_shot", &one)] {
            doc.push_str(&format!("{} {mode} {}\n", row.name, c.render()));
            if c.verdict.split('+').any(|v| v == "timeout" || v == "error") {
                problems.push(format!("{} {mode}: a phase did not answer", row.name));
            }
        }
        if inc.verdict != one.verdict {
            problems.push(format!("{}: incremental and one-shot verdicts differ", row.name));
        }
        incremental.push((row.name, inc));
    }
    for (name, src, tgt) in RUNG_ROWS {
        let (src, tgt, cfg) = (load(src), load(tgt), GpuConfig::symbolic_1d(8));
        let report = run_resilient(&src, &tgt, &cfg, &RunnerOptions::with_rung_timeout(TIMEOUT));
        let cell = rung_cell(&report);
        if cell != RUNG_EXPECTED {
            problems.push(format!("{name}: answered {cell}, not {RUNG_EXPECTED}"));
        }
        doc.push_str(&format!("{name} {cell}\n"));
    }
    for (name, check, src, two_d) in CHECK_ROWS {
        let c = run_check(check, src, two_d);
        doc.push_str(&format!("{name} {}\n", c.render()));
        if c.verdict == "timeout" || c.verdict == "error" {
            problems.push(format!("{name}: the check did not answer"));
        }
    }
    cache_gain_problems(&incremental, &mut problems);

    // Under UPDATE_GOLDEN=1 this records the counts, but the problems
    // above still fail the test.
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/work_counts.txt");
    if let Err(drift) = pug_testutil::check_golden(&golden, &doc) {
        problems.push(drift);
    }
    assert!(problems.is_empty(), "{}\n\nwork counts:\n{doc}", problems.join("\n"));
}

/// Canonicalization discharges obligations before the cache lookup, so
/// against [`PRE_CANONICALIZATION_CACHE`]: no row's misses grow, some
/// row's shrink, the share of the incremental queries answered without a
/// solve strictly grows, and some obligation is discharged by rewriting
/// alone. A query is answered without a solve when it hits the cache or
/// is discharged by rewriting; a discharged query never looks the cache
/// up, so that share is `(hits + discharges) / (lookups + discharges)`.
fn cache_gain_problems(incremental: &[(&str, Counts)], problems: &mut Vec<String>) {
    let (mut old_free, mut old_queries, mut new_free, mut new_queries) = (0, 0, 0, 0);
    let mut fewer_misses = false;
    for &(name, hits, misses) in &PRE_CANONICALIZATION_CACHE {
        let (_, c) = incremental
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not in the grid"));
        if c.cache_misses > misses {
            problems.push(format!("{name}: cache misses grew ({misses} -> {})", c.cache_misses));
        }
        fewer_misses |= c.cache_misses < misses;
        old_free += hits;
        old_queries += hits + misses;
        new_free += c.cache_hits + c.discharged_by_rewrite;
        new_queries += c.cache_hits + c.cache_misses + c.discharged_by_rewrite;
    }
    if !fewer_misses {
        problems.push("no row's cache misses shrank: rewriting discharged none of them".into());
    }
    // new_free / new_queries > old_free / old_queries, in integers.
    if new_free * old_queries <= old_free * new_queries {
        problems.push(format!(
            "the share of queries answered without a solve did not grow: \
             {old_free}/{old_queries} -> {new_free}/{new_queries}"
        ));
    }
    if incremental.iter().all(|(_, c)| c.discharged_by_rewrite == 0) {
        problems.push("no obligation was discharged by rewriting".into());
    }
}
