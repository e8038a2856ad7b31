//! Machine-readable incremental-vs-one-shot benchmark (`--bench-json`).
//!
//! Each row is a verification *scenario* — one or more `check_equivalence_param`
//! phases over a kernel pair, modelling how the resilient runner actually
//! issues obligations. Ladder rows run the degradation
//! ladder's FastBugHunt screen followed by a full proof: the two phases
//! overlap on every value obligation, which is exactly the duplication the
//! cross-rung [`QueryCache`] exists to eliminate. Single-phase rows measure
//! the raw session against the one-shot path with no obligation overlap
//! (including rows where the persistent session is *slower* — easy queries
//! pay the session's larger live CNF without earning anything back; the
//! grid keeps them for honesty).
//!
//! Every scenario runs twice: once through the persistent
//! [`pug_smt::SolveSession`] backend with a shared per-row [`QueryCache`]
//! (`CheckOptions::default()`, what the runner's rungs use)
//! and once through the one-shot `check_detailed` path
//! (`Ablation::OneShot`, no cache). Per-stage timings
//! (reduce / blast / solve), cache hit rates and clause reuse go out as
//! JSON so the repo has a perf trajectory later PRs can diff. Phase-for-
//! phase verdict agreement between the two modes is the correctness smoke:
//! the caller exits non-zero when any row diverges.
//!
//! A second, smaller grid (`rung_rows`) measures what the generalized
//! (Presburger) quantifier elimination buys: each pair runs through the
//! resilient runner's degradation ladder with the elimination on and off,
//! and the `rows_rung_improved` headline counts the rows whose answering
//! rung got strictly stronger (e.g. a fully parameterized `Param` proof
//! instead of a `NonParam(n=4)` fallback) while the verdict stayed
//! identical. The caller gates on that count staying ≥ 1.

use pug_ir::GpuConfig;
use pug_obs::Json;
use pugpara::equiv::{check_equivalence_param, CheckOptions, Mode, Report};
use pugpara::runner::{run_resilient, ResilientReport, Rung, RunnerOptions};
use pugpara::{Ablation, KernelUnit, QueryCache, Soundness, Verdict};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Options factory handed to a row: yields fresh, identically-configured
/// [`CheckOptions`] for each phase of the scenario (mode set per phase;
/// incremental/one-shot and the shared cache fixed per run).
type MkOpts<'a> = &'a dyn Fn(Mode) -> CheckOptions;

/// A scenario body: runs its phases with options from the factory and
/// returns one report per phase (`None` = the check errored).
type RowRun = Box<dyn Fn(MkOpts) -> Vec<Option<Report>>>;

/// One benchmark row: a named scenario returning one report per phase.
struct RowSpec {
    name: &'static str,
    run: RowRun,
}

fn load(src: &str) -> KernelUnit {
    KernelUnit::load(src).expect("corpus parses")
}

/// FastBugHunt screen, then a full proof — the runner's ladder order. The
/// prove phase re-issues every value obligation the hunt already
/// discharged; with the shared cache those come back as hits.
fn ladder(
    src: &'static str,
    tgt: &'static str,
    cfg: GpuConfig,
    conc: &'static [(&'static str, u64)],
) -> RowRun {
    Box::new(move |mk| {
        let src = load(src);
        let tgt = load(tgt);
        let with_conc = |mut o: CheckOptions| {
            for &(name, val) in conc {
                o = o.concretized(name, val);
            }
            o
        };
        let hunt =
            check_equivalence_param(&src, &tgt, &cfg, &with_conc(mk(Mode::FastBugHunt))).ok();
        let prove = check_equivalence_param(&src, &tgt, &cfg, &with_conc(mk(Mode::Prove))).ok();
        vec![hunt, prove]
    })
}

fn rows(quick: bool) -> Vec<RowSpec> {
    let mut rows: Vec<RowSpec> = Vec::new();
    if !quick {
        // The heavyweight row: height stays symbolic, so the hunt's value
        // query is a hard multi-second search the prove phase gets for free.
        rows.push(RowSpec {
            name: "transpose+W/hunt+prove/8b",
            run: ladder(
                pug_kernels::transpose::NAIVE,
                pug_kernels::transpose::OPTIMIZED,
                GpuConfig::symbolic_2d(8),
                &[("width", 16)],
            ),
        });
    }
    rows.push(RowSpec {
        name: "transpose+C/hunt+prove/12b",
        run: ladder(
            pug_kernels::transpose::NAIVE,
            pug_kernels::transpose::OPTIMIZED,
            GpuConfig::symbolic_2d(12),
            &[("width", 16), ("height", 16)],
        ),
    });
    rows.push(RowSpec {
        name: "transpose-unconstrained/hunt+prove/8b",
        run: ladder(
            pug_kernels::transpose::NAIVE,
            pug_kernels::transpose::OPTIMIZED_UNCONSTRAINED,
            GpuConfig::symbolic_2d(8),
            &[],
        ),
    });
    rows.push(RowSpec {
        name: "scalar_product/hunt+prove/8b",
        run: ladder(
            pug_kernels::scalar_product::KERNEL,
            pug_kernels::scalar_product::KERNEL,
            GpuConfig::symbolic_1d(8),
            &[],
        ),
    });
    // Single-phase rows: no obligation overlap, so these measure the bare
    // session (easy many-query rows are where it is at its weakest).
    rows.push(RowSpec {
        name: "reduction/param/12b",
        run: Box::new(|mk| {
            let bound = pug_kernels::reduction::safe_block_bound(12);
            let v0 = load(&pug_kernels::reduction::v0_bounded(bound));
            let v1 = load(&pug_kernels::reduction::v1_bounded(bound));
            let cfg = GpuConfig::symbolic_1d(12);
            vec![check_equivalence_param(&v0, &v1, &cfg, &mk(Mode::Prove)).ok()]
        }),
    });
    rows.push(RowSpec {
        name: "reduction-buggy/param/12b",
        run: Box::new(|mk| {
            let bound = pug_kernels::reduction::safe_block_bound(12);
            let v0 = load(&pug_kernels::reduction::v0_bounded(bound));
            let buggy = load(&pug_kernels::reduction::buggy_index_bounded(bound));
            let cfg = GpuConfig::symbolic_1d(12);
            vec![check_equivalence_param(&v0, &buggy, &cfg, &mk(Mode::Prove)).ok()]
        }),
    });
    rows
}

/// One rung-improvement row: a kernel pair pushed through the resilient
/// runner's degradation ladder twice — once with the generalized
/// (Presburger) quantifier elimination on (the default) and once with
/// [`Ablation::NoGeneralizedQelim`] — comparing which rung answers.
/// An *improved* row is one where the verdicts agree but the elimination
/// lets a stronger rung answer (e.g. `Param` instead of `NonParam(n=4)`),
/// i.e. the proof got strictly more general at no soundness cost.
struct RungSpec {
    name: &'static str,
    src: &'static str,
    tgt: &'static str,
    cfg: GpuConfig,
}

fn rung_rows() -> Vec<RungSpec> {
    vec![
        // The symbolic-stride loop pair: without the generalized
        // elimination the Param rung fails (residual ∀-formula dropped)
        // and the ladder falls back to a concrete n; with it the loop's
        // write coverage becomes a stride-membership fact and the fully
        // parameterized rung answers.
        RungSpec {
            name: "grid-stride/rung/8b",
            src: pug_kernels::stride::GRID_STRIDE,
            tgt: pug_kernels::stride::GRID_STRIDE_REASSOC,
            cfg: GpuConfig::symbolic_1d(8),
        },
        // Control row: already answered by Param either way — the
        // elimination must not perturb pairs that never needed it.
        RungSpec {
            name: "scalar_product/rung/8b",
            src: pug_kernels::scalar_product::KERNEL,
            tgt: pug_kernels::scalar_product::KERNEL,
            cfg: GpuConfig::symbolic_1d(8),
        },
    ]
}

/// Ladder position of the answering rung: lower is stronger (closer to
/// the fully parameterized proof). `None` (no rung answered) ranks last.
fn rung_rank(r: Option<&Rung>) -> u8 {
    match r {
        Some(Rung::Param) => 0,
        Some(Rung::ParamConcretized) => 1,
        Some(Rung::NonParam { .. }) => 2,
        Some(Rung::FastBugHunt) => 3,
        None => 4,
    }
}

/// Aggregated metrics of one mode's run of one row (all phases).
#[derive(Default)]
struct ModeMetrics {
    /// Per-phase verdict classes joined with `+`, e.g. `clean+verified`.
    verdict: String,
    wall: Duration,
    solver: Duration,
    reduce: Duration,
    blast: Duration,
    solve: Duration,
    queries: usize,
    cached_queries: usize,
    /// Obligations the canonicalization pass collapsed to `⊥` — valid
    /// with zero SAT calls and zero cache traffic.
    discharged_by_rewrite: usize,
    conflicts: u64,
    clauses_reused: usize,
    cache_hits: usize,
    cache_misses: usize,
    vars_eliminated: u64,
    clauses_subsumed: u64,
    clauses_vivified: u64,
    gates_hashconsed: u64,
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

fn run_mode(spec: &RowSpec, timeout: Duration, incremental: bool) -> ModeMetrics {
    let cache = incremental.then(QueryCache::new);
    let mk = |mode: Mode| {
        let mut o = CheckOptions::with_timeout(timeout);
        o.mode = mode;
        if !incremental {
            o = o.ablate(Ablation::OneShot);
        }
        if let Some(c) = &cache {
            o = o.with_query_cache(c.clone());
        }
        o
    };
    let started = Instant::now();
    let reports = (spec.run)(&mk);
    let mut m = ModeMetrics { wall: started.elapsed(), ..ModeMetrics::default() };
    for (i, report) in reports.iter().enumerate() {
        if i > 0 {
            m.verdict.push('+');
        }
        m.verdict.push_str(verdict_class(report.as_ref().map(|r| &r.verdict)));
        if let Some(r) = report {
            m.solver += r.solver_time();
            m.queries += r.queries.len();
            for q in &r.queries {
                m.reduce += q.stats.reduce_time;
                m.blast += q.stats.blast_time;
                m.solve += q.stats.solve_time;
                m.conflicts += q.stats.sat.conflicts;
                m.clauses_reused += q.stats.clauses_reused;
                m.vars_eliminated += q.stats.sat.vars_eliminated;
                m.clauses_subsumed += q.stats.sat.clauses_subsumed;
                m.clauses_vivified += q.stats.sat.clauses_vivified;
                m.gates_hashconsed += q.stats.gates_hashconsed;
                if q.stats.cached {
                    m.cached_queries += 1;
                }
                if q.stats.discharged_by_rewrite {
                    m.discharged_by_rewrite += 1;
                }
            }
        }
    }
    if let Some(c) = &cache {
        m.cache_hits = c.hits();
        m.cache_misses = c.misses();
    }
    m
}

/// `x` rounded to `decimals` places: the value `{x:.decimals$}` prints.
fn rounded(x: f64, decimals: usize) -> Json {
    Json::Num(format!("{x:.decimals$}").parse().expect("a formatted float parses"))
}

fn mode_json(m: &ModeMetrics) -> Json {
    Json::obj(vec![
        ("verdict", m.verdict.as_str().into()),
        ("wall_secs", rounded(m.wall.as_secs_f64(), 3)),
        ("solver_secs", rounded(m.solver.as_secs_f64(), 3)),
        ("reduce_secs", rounded(m.reduce.as_secs_f64(), 3)),
        ("blast_secs", rounded(m.blast.as_secs_f64(), 3)),
        ("solve_secs", rounded(m.solve.as_secs_f64(), 3)),
        ("queries", m.queries.into()),
        ("cached_queries", m.cached_queries.into()),
        ("discharged_by_rewrite", m.discharged_by_rewrite.into()),
        ("conflicts", m.conflicts.into()),
        ("clauses_reused", m.clauses_reused.into()),
        ("cache_hits", m.cache_hits.into()),
        ("cache_misses", m.cache_misses.into()),
        ("vars_eliminated", m.vars_eliminated.into()),
        ("clauses_subsumed", m.clauses_subsumed.into()),
        ("clauses_vivified", m.clauses_vivified.into()),
        ("gates_hashconsed", m.gates_hashconsed.into()),
    ])
}

/// Result of the benchmark: the JSON document plus the headline numbers the
/// caller prints and gates on.
pub struct BenchJsonReport {
    pub json: String,
    pub rows_total: usize,
    pub rows_agreeing: usize,
    /// Rung-improvement rows whose answering rung got strictly stronger
    /// with the generalized quantifier elimination on, verdicts agreeing.
    pub rows_rung_improved: usize,
    /// Σ one-shot wall / Σ incremental wall across rows.
    pub aggregate_speedup: f64,
    /// Per-row (name, incremental wall seconds) — the numbers the baseline
    /// regression gate compares.
    pub row_walls: Vec<(String, f64)>,
}

/// Extract `(name, incremental wall_secs)` pairs from the `rows` of a bench
/// JSON document; rows without both are skipped.
fn parse_row_walls(json: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = Json::parse(json)?;
    let rows = doc.get("rows").and_then(Json::as_arr).unwrap_or_default();
    Ok(rows
        .iter()
        .filter_map(|row| {
            let wall = row.get("incremental")?.get("wall_secs")?.as_f64()?;
            Some((row.str_field("name")?.to_string(), wall))
        })
        .collect())
}

/// Gate a fresh run against a committed baseline document. A row regresses
/// when its incremental wall exceeds `old × 1.10 + 0.05 s` — the absolute
/// floor keeps millisecond-scale rows from tripping the gate on scheduler
/// noise. Rows absent from either side are reported but not gated (the
/// quick grid drops the heavyweight row). Returns a per-row summary, or the
/// list of regressions.
pub fn baseline_gate(report: &BenchJsonReport, baseline_json: &str) -> Result<String, String> {
    let old_rows = parse_row_walls(baseline_json).map_err(|e| format!("baseline: {e}"))?;
    if old_rows.is_empty() {
        return Err("baseline has no parsable rows".into());
    }
    let mut summary = String::new();
    let mut regressions = Vec::new();
    let mut old_sum = 0.0f64;
    let mut new_sum = 0.0f64;
    for (name, new_wall) in &report.row_walls {
        let Some((_, old_wall)) = old_rows.iter().find(|(n, _)| n == name) else {
            let _ = writeln!(summary, "  {name:<40} {new_wall:>7.3}s (not in baseline)");
            continue;
        };
        old_sum += old_wall;
        new_sum += new_wall;
        let allowed = old_wall * 1.10 + 0.05;
        let speedup = old_wall / new_wall.max(1e-9);
        let _ = writeln!(
            summary,
            "  {name:<40} {old_wall:>7.3}s -> {new_wall:>7.3}s  ({speedup:.2}x)"
        );
        if *new_wall > allowed {
            regressions.push(format!(
                "{name}: {new_wall:.3}s vs baseline {old_wall:.3}s (allowed {allowed:.3}s)"
            ));
        }
    }
    let _ = writeln!(
        summary,
        "  {:<40} {old_sum:>7.3}s -> {new_sum:>7.3}s  ({:.2}x)",
        "aggregate (common rows)",
        old_sum / new_sum.max(1e-9)
    );
    if regressions.is_empty() {
        Ok(summary)
    } else {
        Err(format!("{}\nregressions:\n  {}", summary, regressions.join("\n  ")))
    }
}

/// Run the incremental-vs-one-shot grid and render it as JSON.
pub fn bench_json_report(timeout: Duration, quick: bool) -> BenchJsonReport {
    let specs = rows(quick);
    let mut agree = 0usize;
    let mut inc_wall = Duration::ZERO;
    let mut one_wall = Duration::ZERO;
    let mut row_walls = Vec::new();
    let mut rows_json = Vec::new();
    for spec in &specs {
        eprintln!("bench-json: {} (incremental)", spec.name);
        let inc = run_mode(spec, timeout, true);
        eprintln!("bench-json: {} (one-shot)", spec.name);
        let one = run_mode(spec, timeout, false);
        let rows_agree = inc.verdict == one.verdict;
        if rows_agree {
            agree += 1;
        }
        row_walls.push((spec.name.to_string(), inc.wall.as_secs_f64()));
        inc_wall += inc.wall;
        one_wall += one.wall;
        let speedup = one.wall.as_secs_f64() / inc.wall.as_secs_f64().max(1e-9);
        rows_json.push(Json::obj(vec![
            ("name", spec.name.into()),
            ("agree", rows_agree.into()),
            ("speedup", rounded(speedup, 2)),
            ("incremental", mode_json(&inc)),
            ("one_shot", mode_json(&one)),
        ]));
    }

    // Rung-improvement grid: the answering rung with the generalized
    // elimination on vs off. Verdict classes must agree on every row; the
    // headline counts the rows where agreement holds *and* the answering
    // rung got strictly stronger.
    let mut rung_improved = 0usize;
    let mut rung_rows_json = Vec::new();
    for spec in rung_rows() {
        eprintln!("bench-json: {} (qelim on/off)", spec.name);
        let src = load(spec.src);
        let tgt = load(spec.tgt);
        let started = Instant::now();
        let on = run_resilient(&src, &tgt, &spec.cfg, &RunnerOptions::default());
        let on_wall = started.elapsed();
        let started = Instant::now();
        let off_opts = RunnerOptions::default().ablate(Ablation::NoGeneralizedQelim);
        let off = run_resilient(&src, &tgt, &spec.cfg, &off_opts);
        let off_wall = started.elapsed();
        // Agreement compares the *outcome* (clean / bug / timeout), not the
        // soundness decoration: a stronger answering rung upgrades
        // `Verified(Downgraded)` to `Verified(Sound)`, and that upgrade is
        // precisely what an improved row reports — it must not read as a
        // divergence.
        let outcome = |v: &Verdict| match verdict_class(Some(v)) {
            "verified" | "clean" => "clean",
            other => other,
        };
        let agree = outcome(&on.verdict) == outcome(&off.verdict);
        let improved = agree
            && rung_rank(on.provenance.answered_by.as_ref())
                < rung_rank(off.provenance.answered_by.as_ref());
        if improved {
            rung_improved += 1;
        }
        let run_json = |report: &ResilientReport, wall: Duration| {
            let rung = match &report.provenance.answered_by {
                Some(r) => r.to_string(),
                None => "none".into(),
            };
            Json::obj(vec![
                ("rung", rung.into()),
                ("verdict", verdict_class(Some(&report.verdict)).into()),
                ("wall_secs", rounded(wall.as_secs_f64(), 3)),
            ])
        };
        rung_rows_json.push(Json::obj(vec![
            ("name", spec.name.into()),
            ("agree", agree.into()),
            ("improved", improved.into()),
            ("qelim_on", run_json(&on, on_wall)),
            ("qelim_off", run_json(&off, off_wall)),
        ]));
    }

    let aggregate = one_wall.as_secs_f64() / inc_wall.as_secs_f64().max(1e-9);
    let doc = Json::obj(vec![
        ("bench", "pr10-generalized-qelim".into()),
        ("timeout_secs", timeout.as_secs().into()),
        ("quick", quick.into()),
        ("rows", Json::Arr(rows_json)),
        ("rung_rows", Json::Arr(rung_rows_json)),
        ("rows_total", specs.len().into()),
        ("rows_agreeing", agree.into()),
        ("rows_rung_improved", rung_improved.into()),
        ("aggregate_speedup", rounded(aggregate, 2)),
    ]);
    let mut json = doc.render();
    json.push('\n');

    BenchJsonReport {
        json,
        rows_total: specs.len(),
        rows_agreeing: agree,
        rows_rung_improved: rung_improved,
        aggregate_speedup: aggregate,
        row_walls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_agrees_and_is_valid_jsonish() {
        let r = bench_json_report(Duration::from_secs(60), true);
        assert_eq!(r.rows_agreeing, r.rows_total, "{}", r.json);
        // The elimination must buy at least one strictly stronger answering
        // rung (the grid-stride row) with the verdict preserved.
        assert!(r.rows_rung_improved >= 1, "{}", r.json);
        Json::parse(&r.json).expect("the document is JSON");
        // The document round-trips through the baseline parser, so a fresh
        // run can always be gated against this file once committed.
        let walls = parse_row_walls(&r.json).unwrap();
        assert_eq!(walls.len(), r.row_walls.len());
        for ((n1, w1), (n2, w2)) in walls.iter().zip(r.row_walls.iter()) {
            assert_eq!(n1, n2);
            assert!((w1 - w2).abs() < 0.001, "{n1}: {w1} vs {w2}");
        }
    }

    #[test]
    fn committed_baselines_parse() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut files = 0;
        for entry in std::fs::read_dir(root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_pr") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let walls = parse_row_walls(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!walls.is_empty(), "{name} yields no rows");
            files += 1;
        }
        assert!(files >= 5, "found only {files} committed baselines");
    }

    #[test]
    fn baseline_gate_flags_regressions_with_absolute_floor() {
        let baseline = r#"{
  "rows": [
  {
    "name": "fast-row",
    "incremental": {"verdict": "verified", "wall_secs": 0.010},
    "one_shot": {"verdict": "verified", "wall_secs": 0.020}
  },
  {
    "name": "slow-row",
    "incremental": {"verdict": "verified", "wall_secs": 2.000},
    "one_shot": {"verdict": "verified", "wall_secs": 4.000}
  }
  ]
}"#;
        let mk = |walls: &[(&str, f64)]| BenchJsonReport {
            json: String::new(),
            rows_total: walls.len(),
            rows_agreeing: walls.len(),
            rows_rung_improved: 1,
            aggregate_speedup: 1.0,
            row_walls: walls.iter().map(|&(n, w)| (n.to_string(), w)).collect(),
        };
        // Small absolute slowdowns on millisecond rows stay under the floor.
        let ok = mk(&[("fast-row", 0.055), ("slow-row", 1.0)]);
        assert!(baseline_gate(&ok, baseline).is_ok());
        // A >10% (+floor) regression on a real row trips the gate.
        let bad = mk(&[("fast-row", 0.010), ("slow-row", 2.5)]);
        let err = baseline_gate(&bad, baseline).unwrap_err();
        assert!(err.contains("slow-row"), "{err}");
        // Rows missing from the baseline are reported, never gated.
        let new_row = mk(&[("brand-new", 9.9)]);
        assert!(baseline_gate(&new_row, baseline).is_ok());
    }
}
