//! The metric catalogue, one run's accumulated results, and the result
//! JSON: the full file and the one-line summary the last line of standard
//! output carries.

use crate::json::Json;
use crate::oracle::{Answer, Expect};
use crate::stats;
use crate::trace::Span;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit, better, bound)`. Every workload
/// reports every one; `bound` is the share of the baseline median by which
/// a metric may worsen before `check` calls it a regression.
pub const END_TO_END: [(&str, &str, &str, f64); 7] = [
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("decided_ratio", "ratio", "higher", 0.02),
    ("sound_ratio", "ratio", "higher", 0.02),
];

/// Per-layer metrics of a traced run: `(name, unit, better)`. Totals are
/// per run; `share.*` are shares of the summed job wall.
pub const PER_LAYER: [(&str, &str, &str); 59] = [
    ("frontend.parse_us", "us", "lower"),
    ("frontend.typecheck_us", "us", "lower"),
    ("frontend.source_kb", "kB", "lower"),
    ("ir.split_us", "us", "lower"),
    ("ir.barrier_intervals", "count", "lower"),
    ("encode.extract_us", "us", "lower"),
    ("encode.cas", "count", "lower"),
    ("check.self_us", "us", "lower"),
    ("check.queries", "count", "lower"),
    ("check.discharged_by_rewrite", "count", "higher"),
    ("pool.sessions", "count", "higher"),
    ("pool.obligations_parallel", "count", "higher"),
    ("pool.obligations_fallback", "count", "lower"),
    ("pool.learnts_imported", "count", "higher"),
    ("smt.query_us", "us", "lower"),
    ("smt.prep_us", "us", "lower"),
    ("smt.reduce_us", "us", "lower"),
    ("smt.blast_us", "us", "lower"),
    ("smt.cnf_vars", "count", "lower"),
    ("smt.cnf_clauses", "count", "lower"),
    ("smt.ack_selects", "count", "lower"),
    ("smt.gates_hashconsed", "count", "higher"),
    ("smt.clauses_reused", "count", "higher"),
    ("sat.solve_us", "us", "lower"),
    ("sat.conflicts", "count", "lower"),
    ("sat.decisions", "count", "lower"),
    ("sat.propagations", "count", "lower"),
    ("sat.vars_eliminated", "count", "higher"),
    ("sat.clauses_vivified", "count", "higher"),
    ("sat.conflicts_per_s", "1/s", "higher"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("runner.self_us", "us", "lower"),
    ("runner.rungs_attempted", "count", "lower"),
    ("runner.descents", "count", "lower"),
    ("runner.rung_us.param", "us", "lower"),
    ("runner.rung_us.param_c", "us", "lower"),
    ("runner.rung_us.nonparam", "us", "lower"),
    ("runner.rung_us.fastbughunt", "us", "lower"),
    ("serve.server_ms", "ms", "lower"),
    ("serve.overhead_ms", "ms", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.admitted", "count", "higher"),
    ("serve.cache_hits", "count", "higher"),
    ("bench.generator_late_ms", "ms", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
    ("bench.glue_us", "us", "lower"),
    ("bench.self_coverage", "ratio", "higher"),
    ("bench.unmatched_queries", "count", "lower"),
    ("bench.job_wall_us", "us", "lower"),
    ("share.frontend", "ratio", "lower"),
    ("share.runner", "ratio", "lower"),
    ("share.check", "ratio", "lower"),
    ("share.smt", "ratio", "lower"),
    ("share.sat", "ratio", "lower"),
    ("share.bench", "ratio", "lower"),
    ("share.sat_of_queries", "ratio", "lower"),
    ("share.cache_hit_queries", "ratio", "higher"),
];

/// Named per-layer totals.
#[derive(Clone, Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_default() += v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Shares of the summed job wall, by layer family, plus coverage.
    pub fn set_shares(&mut self, totals: &BTreeMap<&'static str, f64>, job_wall_us: f64) {
        let sum = |prefixes: &[&str]| -> f64 {
            totals
                .iter()
                .filter(|(k, _)| prefixes.iter().any(|p| k.starts_with(p)))
                .map(|(_, v)| v)
                .sum()
        };
        let share = |v: f64| {
            if job_wall_us > 0.0 {
                v / job_wall_us
            } else {
                0.0
            }
        };
        self.add("bench.job_wall_us", job_wall_us);
        self.add("share.frontend", share(sum(&["frontend."])));
        self.add("share.runner", share(sum(&["runner."])));
        self.add("share.check", share(sum(&["check."])));
        self.add("share.smt", share(sum(&["smt."])));
        self.add("share.sat", share(sum(&["sat."])));
        self.add("share.bench", share(sum(&["bench."])));
        self.add("bench.self_coverage", share(totals.values().sum()));
    }

    /// Ratios derived from totals once the run is complete.
    fn finish(&mut self) {
        let (hits, misses) = (self.get("cache.hits"), self.get("cache.misses"));
        if hits + misses > 0.0 {
            self.add("cache.hit_ratio", hits / (hits + misses));
        }
        let solve_s = self.get("sat.solve_us") / 1e6;
        if solve_s > 0.0 {
            self.add("sat.conflicts_per_s", self.get("sat.conflicts") / solve_s);
        }
        let q = self.get("smt.query_us");
        if q > 0.0 {
            self.add("share.sat_of_queries", self.get("sat.solve_us") / q);
        }
        let n = self.get("check.queries");
        if n > 0.0 {
            self.add("share.cache_hit_queries", self.get("cache.hits") / n);
        }
    }
}

/// One timed job or request.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub input: usize,
    /// `None` for a request that got no verdict (shed, lost, error).
    pub latency_ms: Option<f64>,
    pub answer: Answer,
    pub decided: bool,
    pub failed: bool,
    pub wrong: bool,
}

/// One distinct input, for the per-input rows.
#[derive(Clone, Debug)]
pub struct InputRow {
    pub name: String,
    pub expect: Expect,
    pub why: String,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Run {
    pub setup_s: Vec<f64>,
    pub outcomes: Vec<Outcome>,
    /// Outcomes counted in the latency and ratio metrics; all of them
    /// when `None` (serve-mixed restricts them to its SLO steps).
    pub measured: Option<Vec<usize>>,
    pub inputs: Vec<InputRow>,
    /// The percentile `latency_tail_ms` is taken at; fixed per workload.
    pub tail_percentile: f64,
    pub jobs_per_s: f64,
    pub peak_rss_mb: f64,
    pub layers: Layers,
    pub spans: Vec<Span>,
    /// Workload-specific extras for the result file.
    pub details: Vec<(String, Json)>,
}

impl Run {
    pub fn set_inputs(&mut self, names: &[String], expect: &[(Expect, String)]) {
        self.inputs = names
            .iter()
            .zip(expect)
            .map(|(n, (e, why))| InputRow {
                name: n.clone(),
                expect: *e,
                why: why.clone(),
            })
            .collect();
    }

    fn measured(&self) -> Vec<&Outcome> {
        match &self.measured {
            Some(idx) => idx.iter().map(|&i| &self.outcomes[i]).collect(),
            None => self.outcomes.iter().collect(),
        }
    }

    pub fn wrong(&self) -> usize {
        self.outcomes.iter().filter(|o| o.wrong).count()
    }

    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.failed).count()
    }

    /// The end-to-end metric values, in catalogue order.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let m = self.measured();
        let lat: Vec<f64> = m.iter().filter_map(|o| o.latency_ms).collect();
        let decided = m.iter().filter(|o| o.decided).count() as f64 / m.len().max(1) as f64;
        let holds = m
            .iter()
            .filter(|o| matches!(o.answer, Answer::Holds { .. }))
            .count();
        let sound = m
            .iter()
            .filter(|o| o.answer == Answer::Holds { sound: true })
            .count();
        let values = [
            stats::median(&self.setup_s),
            stats::median(&lat),
            stats::percentile(&lat, self.tail_percentile),
            self.jobs_per_s,
            self.peak_rss_mb,
            decided,
            if holds > 0 {
                sound as f64 / holds as f64
            } else {
                0.0
            },
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u, _, _), v)| (n, v, u))
            .collect()
    }

    /// The per-layer metric values, in catalogue order.
    pub fn per_layer(&mut self) -> Vec<(&'static str, f64, &'static str)> {
        self.layers.finish();
        PER_LAYER
            .iter()
            .map(|&(n, u, _)| (n, self.layers.get(n), u))
            .collect()
    }
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> Json {
    Json::obj(
        metrics
            .iter()
            .map(|&(n, v, u)| (n, Json::obj(vec![("value", v.into()), ("unit", u.into())])))
            .collect(),
    )
}

/// The run's header: the machine and toolchain the numbers come from.
pub fn header(workload: &str, seed: u64, seconds: f64, traced: bool, quick: bool) -> Json {
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    Json::obj(vec![
        ("workload", workload.into()),
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("traced", traced.into()),
        ("quick", quick.into()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .into(),
        ),
        (
            "git_rev",
            cmd("git", &["rev-parse", "--short", "HEAD"]).into(),
        ),
        ("rustc", cmd("rustc", &["-V"]).into()),
    ])
}

/// The one-line summary and the full result document.
pub fn render(run: &mut Run, header: Json, traced: bool) -> (Json, Json) {
    let e2e = run.end_to_end();
    let metrics = if traced { run.per_layer() } else { e2e.clone() };
    let summary = Json::obj(vec![
        ("correct", (run.wrong() == 0).into()),
        ("attempted", run.outcomes.len().into()),
        ("failed", run.failed().into()),
        ("metrics", metrics_json(&metrics)),
    ]);
    let n_inputs = run.inputs.len();
    let mut by: Vec<Vec<&Outcome>> = vec![Vec::new(); n_inputs];
    for o in &run.outcomes {
        by[o.input].push(o);
    }
    let rows = run
        .inputs
        .iter()
        .zip(&by)
        .map(|(row, os)| {
            let lat: Vec<f64> = os.iter().filter_map(|o| o.latency_ms).collect();
            let mut answers: Vec<&str> = os.iter().map(|o| o.answer.label()).collect();
            answers.sort_unstable();
            answers.dedup();
            Json::obj(vec![
                ("name", row.name.as_str().into()),
                ("jobs", os.len().into()),
                ("median_ms", stats::median(&lat).into()),
                (
                    "answers",
                    Json::Arr(answers.into_iter().map(Json::from).collect()),
                ),
                ("expect", row.expect.label().into()),
                ("why", row.why.as_str().into()),
                ("wrong", os.iter().filter(|o| o.wrong).count().into()),
            ])
        })
        .collect();
    let mut fields = vec![
        ("header", header),
        ("correct", (run.wrong() == 0).into()),
        ("attempted", run.outcomes.len().into()),
        ("failed", run.failed().into()),
        ("wrong_verdicts", run.wrong().into()),
        (
            "unjudged",
            run.inputs
                .iter()
                .filter(|r| r.expect == Expect::Unjudged)
                .count()
                .into(),
        ),
        ("samples", run.measured().len().into()),
        ("tail_percentile", run.tail_percentile.into()),
        (
            "setup_samples_s",
            Json::Arr(run.setup_s.iter().map(|&v| v.into()).collect()),
        ),
        ("metrics", metrics_json(&e2e)),
    ];
    if traced {
        fields.push(("per_layer", metrics_json(&metrics)));
    }
    fields.push(("details", Json::obj(run.details.clone())));
    fields.push(("inputs", Json::Arr(rows)));
    (summary, Json::obj(fields))
}

/// Peak resident set (`VmHWM`) of process `pid` (`self` for this one), MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(input: usize, ms: f64, answer: Answer) -> Outcome {
        Outcome {
            input,
            latency_ms: Some(ms),
            answer,
            decided: answer != Answer::Undecided,
            failed: false,
            wrong: false,
        }
    }

    #[test]
    fn result_json_round_trips_and_carries_every_metric() {
        let mut run = Run {
            setup_s: vec![0.5, 0.25, 0.75],
            tail_percentile: 90.0,
            jobs_per_s: 12.5,
            peak_rss_mb: 40.0,
            ..Run::default()
        };
        run.set_inputs(
            &["a".into(), "b".into()],
            &[(Expect::Holds, "x".into()), (Expect::Unjudged, "y".into())],
        );
        for i in 0..30 {
            let answer = if i % 3 == 0 {
                Answer::Undecided
            } else {
                Answer::Holds { sound: i % 2 == 0 }
            };
            run.outcomes.push(outcome(i % 2, i as f64, answer));
        }
        let (summary, full) = render(&mut run, header("w", 1, 2.0, false, true), false);
        let line = summary.render();
        assert_eq!(Json::parse(&line).unwrap(), summary);
        assert_eq!(Json::parse(&full.render()).unwrap(), full);
        let keys: Vec<&str> = summary.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = summary.get("metrics").unwrap();
        for (name, unit, ..) in END_TO_END {
            assert_eq!(m.get(name).unwrap().str_field("unit"), Some(unit), "{name}");
        }
        assert_eq!(m.get("setup_s").unwrap().num_field("value"), Some(0.5));
        assert_eq!(
            m.get("decided_ratio").unwrap().num_field("value"),
            Some(20.0 / 30.0)
        );
        assert_eq!(full.get("inputs").unwrap().as_arr().len(), 2);
        // Nearest rank 27 of latencies 0..29.
        assert_eq!(
            m.get("latency_tail_ms").unwrap().num_field("value"),
            Some(26.0)
        );
        assert_eq!(full.num_field("tail_percentile"), Some(90.0));

        let (traced, _) = render(&mut run, header("w", 1, 2.0, true, true), true);
        assert_eq!(
            traced.get("metrics").unwrap().fields().len(),
            PER_LAYER.len()
        );
    }

    /// The tail of a run with `n` jobs of latencies 1..=n ms.
    fn tail_of(workload: &str, n: usize) -> (f64, f64) {
        let mut run = Run {
            tail_percentile: crate::workloads::tail_percentile(workload),
            ..Run::default()
        };
        run.set_inputs(&["a".into()], &[(Expect::Holds, "x".into())]);
        for i in 1..=n {
            run.outcomes
                .push(outcome(0, i as f64, Answer::Holds { sound: true }));
        }
        let (summary, full) = render(&mut run, header(workload, 1, 2.0, false, false), false);
        let tail = summary
            .get("metrics")
            .and_then(|m| m.get("latency_tail_ms"))
            .and_then(|m| m.num_field("value"))
            .unwrap();
        (tail, full.num_field("tail_percentile").unwrap())
    }

    #[test]
    fn tail_percentile_does_not_follow_the_sample_count() {
        // A faster program fits more jobs into a run: the tail stays p99.
        assert_eq!(tail_of("many-small", 7200), (7128.0, 99.0));
        assert_eq!(tail_of("many-small", 10_000), (9900.0, 99.0));
        // A slower one fits fewer: the tail stays p75.
        assert_eq!(tail_of("proof-heavy", 58), (44.0, 75.0));
        assert_eq!(tail_of("proof-heavy", 39), (30.0, 75.0));
    }

    #[test]
    fn catalogue_names_are_unique_and_valid() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
            );
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let doc = Json::parse(&text).unwrap();
        let e2e: Vec<(&str, &str, &str, f64)> = doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .iter()
            .map(|m| {
                (
                    m.str_field("name").unwrap(),
                    m.str_field("unit").unwrap(),
                    m.str_field("better").unwrap(),
                    m.num_field("bound").unwrap(),
                )
            })
            .collect();
        assert_eq!(e2e, END_TO_END);
        let layers: Vec<(&str, &str, &str)> = doc
            .get("per_layer")
            .unwrap()
            .as_arr()
            .iter()
            .map(|m| {
                (
                    m.str_field("name").unwrap(),
                    m.str_field("unit").unwrap(),
                    m.str_field("better").unwrap(),
                )
            })
            .collect();
        assert_eq!(layers, PER_LAYER);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.str_field("name").unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::WORKLOADS);
    }
}
