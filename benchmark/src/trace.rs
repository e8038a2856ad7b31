//! The traced run's span tree and the per-layer self-time arithmetic.
//!
//! Each traced job records into its own `pug_obs::TraceSink`: the
//! benchmark opens `job`, `frontend.*` and `runner` / `check.*` spans
//! around its calls into each layer, and the program adds its existing
//! `verify > rung > bi > query` spans. The program opens its top-level
//! spans at the sink root, so they are re-parented under whichever
//! benchmark span was open. Under every `query:` span the benchmark adds
//! `smt.reduce`, `smt.blast` and `sat.solve` children laid end to end from
//! that query's `QueryStat` (the order the pipeline runs them in).
//!
//! A span's self time is its duration minus the part of its interval its
//! children cover. Queries answered by pooled workers are traced by the
//! program as instants at merge time; their measured work is charged to
//! the span that waited for the pool ("lent" time), capped at its self
//! time, so self times still sum to the job's wall time.

use crate::json::Json;
use pug_obs::{AttrValue, EventKind, SpanId, TraceEvent};
use pugpara::QueryStat;
use std::collections::{BTreeMap, HashMap, HashSet};

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub job: usize,
    pub id: u64,
    /// 0 for the root.
    pub parent: u64,
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    /// Work done on pool threads while this span waited:
    /// `[reduce, blast, solve, prep]` µs.
    pub lent: [u64; 4],
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Build job `job`'s span tree from its sink's events. `mine` are the
/// spans the benchmark opened; `stats` are the job's queries in the order
/// the pipeline issued them. Returns the spans and how many query spans
/// and statistics found no partner.
pub fn job_spans(
    job: usize,
    events: &[TraceEvent],
    mine: &[SpanId],
    stats: &[QueryStat],
) -> (Vec<Span>, usize) {
    let mine: HashSet<u64> = mine.iter().map(|s| s.0).collect();
    let mut spans: Vec<Span> = Vec::new();
    let mut index: HashMap<u64, usize> = HashMap::new();
    let mut pooled: HashSet<u64> = HashSet::new();
    let mut stack: Vec<u64> = Vec::new();
    let mut last = 0;
    for ev in events {
        last = last.max(ev.t_us);
        match ev.kind {
            EventKind::Open => {
                let parent = if ev.parent.is_none() && !mine.contains(&ev.span.0) {
                    stack.last().copied().unwrap_or(0)
                } else {
                    ev.parent.0
                };
                if mine.contains(&ev.span.0) {
                    stack.push(ev.span.0);
                }
                index.insert(ev.span.0, spans.len());
                spans.push(Span {
                    job,
                    id: ev.span.0,
                    parent,
                    name: ev.name.clone(),
                    start_us: ev.t_us,
                    end_us: u64::MAX,
                    lent: [0; 4],
                });
            }
            EventKind::Close => {
                if let Some(&i) = index.get(&ev.span.0) {
                    spans[i].end_us = ev.t_us;
                }
                if stack.last() == Some(&ev.span.0) {
                    stack.pop();
                }
                if ev
                    .attrs
                    .iter()
                    .any(|(k, v)| k == "pooled" && *v == AttrValue::UInt(1))
                {
                    pooled.insert(ev.span.0);
                }
            }
            EventKind::Point => {}
        }
    }
    for s in &mut spans {
        if s.end_us == u64::MAX {
            s.end_us = last.max(s.start_us);
        }
    }

    // Pair query spans with the statistics in order; a span whose check
    // returned an error has no statistics and keeps its time unsplit.
    let queries: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name.starts_with("query:"))
        .collect();
    let mut stats = stats.iter().peekable();
    let mut unmatched = 0;
    let mut next_id = spans.iter().map(|s| s.id).max().unwrap_or(0) + 1;
    for i in queries {
        let Some(q) = stats.next_if(|q| spans[i].name["query:".len()..] == q.label) else {
            unmatched += 1;
            continue;
        };
        let parts = [
            q.stats.reduce_time.as_micros() as u64,
            q.stats.blast_time.as_micros() as u64,
            q.stats.solve_time.as_micros() as u64,
        ];
        if pooled.contains(&spans[i].id) {
            let total = q.duration.as_micros() as u64;
            let prep = total.saturating_sub(parts.iter().sum());
            if let Some(&p) = index.get(&spans[i].parent) {
                for (slot, v) in spans[p].lent.iter_mut().zip(parts.iter().chain([&prep])) {
                    *slot += v;
                }
            }
            continue;
        }
        let (qid, end) = (spans[i].id, spans[i].end_us);
        let mut t = spans[i].start_us;
        for (name, d) in ["smt.reduce", "smt.blast", "sat.solve"]
            .into_iter()
            .zip(parts)
        {
            let stop = (t + d).min(end);
            spans.push(Span {
                job,
                id: next_id,
                parent: qid,
                name: name.into(),
                start_us: t,
                end_us: stop,
                lent: [0; 4],
            });
            next_id += 1;
            t = stop;
        }
    }
    unmatched += stats.count();
    (spans, unmatched)
}

/// Self time of every span: duration minus the union of its children's
/// intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<(usize, u64), usize> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| ((s.job, s.id), i))
        .collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&(s.job, s.parent)) {
            let ps = &spans[p];
            let (a, b) = (s.start_us.max(ps.start_us), s.end_us.min(ps.end_us));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut iv)| {
            iv.sort_unstable();
            let (mut covered, mut reach) = (0, 0);
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

/// The layer a span's self time belongs to.
pub fn layer(name: &str) -> &'static str {
    match name {
        "job" => "bench.glue",
        "frontend.parse" => "frontend.parse",
        "frontend.typecheck" => "frontend.typecheck",
        "runner" | "verify" => "runner.self",
        "smt.reduce" => "smt.reduce",
        "smt.blast" => "smt.blast",
        "sat.solve" => "sat.solve",
        n if n.starts_with("query:") => "smt.prep",
        // rung, segment and checker spans: IR, extraction, resolution,
        // quantifier elimination and prefix commits.
        _ => "check.self",
    }
}

/// Sum self time per layer (µs), charging lent pool work to the layers
/// it was done in.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let lent: u64 = s.lent.iter().sum();
        let moved = lent.min(own) as f64;
        *out.entry(layer(&s.name)).or_default() += own as f64 - moved;
        if lent > 0 {
            for (l, v) in ["smt.reduce", "smt.blast", "sat.solve", "smt.prep"]
                .into_iter()
                .zip(s.lent)
            {
                *out.entry(l).or_default() += moved * v as f64 / lent as f64;
            }
        }
    }
    out
}

/// One JSONL line per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (s, own) in spans.iter().zip(selfs) {
        let line = Json::obj(vec![
            ("job", s.job.into()),
            ("id", s.id.into()),
            ("parent", s.parent.into()),
            ("name", s.name.as_str().into()),
            ("start_us", s.start_us.into()),
            ("end_us", s.end_us.into()),
            ("self_us", own.into()),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start: u64, end: u64) -> Span {
        Span {
            job: 0,
            id,
            parent,
            name: name.into(),
            start_us: start,
            end_us: end,
            lent: [0; 4],
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "job", 0, 100),
            span(2, 1, "frontend.parse", 10, 20),
            span(3, 1, "runner", 15, 60), // overlaps parse: union 10..60
            span(4, 3, "query:q", 50, 80), // sticks out of its parent
            span(5, 1, "check.race", 90, 130), // clipped to the job's end
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 10, 45 - 10, 30, 40]);
    }

    #[test]
    fn layers_sum_to_job_wall_and_lent_time_moves() {
        let mut spans = vec![
            span(1, 0, "job", 0, 100),
            span(2, 1, "runner", 0, 100),
            span(3, 2, "rung:Param", 0, 100),
            span(4, 3, "query:a", 10, 40),
            span(5, 4, "sat.solve", 10, 30),
        ];
        // 40 µs of pooled work charged to the rung (70 µs of self time).
        spans[2].lent = [10, 0, 20, 10];
        let t = layer_totals(&spans);
        assert_eq!(t["sat.solve"], 20.0 + 20.0);
        assert_eq!(t["smt.reduce"], 10.0);
        assert_eq!(t["smt.prep"], 10.0 + 10.0);
        assert_eq!(t["check.self"], 70.0 - 40.0);
        assert_eq!(t.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn program_root_spans_are_reparented_and_queries_expanded() {
        use pugpara::equiv::QueryStat;
        use std::time::Duration;
        let sink = pug_obs::TraceSink::recording();
        let job = sink.open(SpanId::NONE, "job");
        let runner = sink.open(job, "runner");
        let verify = sink.open(SpanId::NONE, "verify");
        let q = sink.open(verify, "query:x");
        std::thread::sleep(Duration::from_millis(2));
        sink.close(q);
        sink.close(verify);
        sink.close(runner);
        sink.close(job);
        let mut stat = QueryStat {
            label: "x".into(),
            outcome: "valid".into(),
            duration: Duration::from_micros(1500),
            stats: Default::default(),
        };
        stat.stats.solve_time = Duration::from_micros(1000);
        let (spans, unmatched) = job_spans(3, &sink.events(), &[job, runner], &[stat]);
        assert_eq!(unmatched, 0);
        let by = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        assert_eq!(by("verify").parent, runner.0);
        assert_eq!(by("sat.solve").parent, by("query:x").id);
        assert_eq!(by("sat.solve").job, 3);
        let total: f64 = layer_totals(&spans).values().sum();
        assert_eq!(total as u64, by("job").dur());
    }
}
