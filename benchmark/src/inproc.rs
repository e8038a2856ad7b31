//! The in-process workloads: closed-loop jobs from CUDA text to verdict
//! through the public entry points, untraced or traced.

use crate::json::Json;
use crate::oracle::{self, Answer, Expect};
use crate::report::{Layers, Outcome, Run};
use crate::trace::{self, Span};
use crate::workloads::{self, Input, Task, LOAD_THREADS};
use pug_ir::{GpuConfig, Segment};
use pug_obs::{MetricsRegistry, MetricsSnapshot, SpanId, TraceEvent, TraceSink, TraceSpan};
use pug_testutil::TestRng;
use pugpara::equiv::CheckOptions;
use pugpara::runner::{run_resilient, Rung, RungOutcome, RunnerOptions};
use pugpara::{KernelUnit, QueryStat, Soundness, Verdict};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// What a traced job leaves behind for the per-layer analysis.
pub struct JobTrace {
    events: Vec<TraceEvent>,
    mine: Vec<SpanId>,
    stats: Vec<QueryStat>,
    metrics: MetricsSnapshot,
    rungs: Vec<(Rung, bool, Duration)>,
    source_bytes: usize,
}

/// One finished job.
pub struct Job {
    pub input: usize,
    pub wall: Duration,
    pub answer: Answer,
    /// Answered, and (for kernel checks) both performance passes ran.
    pub decided: bool,
    /// Panicked, or its source failed to load.
    pub failed: bool,
    pub trace: Option<JobTrace>,
}

fn answer_of(v: &Verdict) -> Answer {
    match v {
        Verdict::Verified(s) => Answer::Holds {
            sound: *s == Soundness::Sound,
        },
        Verdict::Bug(_) => Answer::Violated,
        Verdict::Timeout => Answer::Undecided,
    }
}

/// Parse and type-check one kernel, each step in its own span.
fn load(
    sink: &TraceSink,
    job: SpanId,
    mine: &mut Vec<SpanId>,
    src: &str,
) -> Result<KernelUnit, String> {
    let s = sink.open(job, "frontend.parse");
    mine.push(s);
    let kernel = pug_cuda::parse_kernel(src);
    sink.close(s);
    let kernel = kernel.map_err(|e| e.to_string())?;
    let s = sink.open(job, "frontend.typecheck");
    mine.push(s);
    let types = pug_cuda::check_kernel(&kernel);
    sink.close(s);
    Ok(KernelUnit {
        kernel,
        types: types.map_err(|e| e.to_string())?,
    })
}

/// Run one job from source text to verdict. With `traced`, spans and
/// metrics are recorded; otherwise both sinks are the disabled ones.
pub fn run_job(index: usize, input: &Input, traced: bool) -> Job {
    let sink = if traced {
        TraceSink::recording()
    } else {
        TraceSink::disabled()
    };
    let metrics = if traced {
        MetricsRegistry::new()
    } else {
        MetricsRegistry::disabled()
    };
    let mut mine = Vec::new();
    let mut stats = Vec::new();
    let mut rungs = Vec::new();
    let started = Instant::now();
    let job = sink.open(SpanId::NONE, "job");
    mine.push(job);
    let result = catch_unwind(AssertUnwindSafe(|| -> Result<(Answer, bool), String> {
        match &input.task {
            Task::Equiv { src, tgt } => {
                let s = load(&sink, job, &mut mine, src)?;
                let t = load(&sink, job, &mut mine, tgt)?;
                let span = sink.open(job, "runner");
                mine.push(span);
                let opts = RunnerOptions {
                    trace: sink.clone(),
                    metrics: metrics.clone(),
                    ..RunnerOptions::default()
                };
                let report = run_resilient(&s, &t, &input.cfg, &opts);
                sink.close(span);
                for r in &report.provenance.rungs {
                    stats.extend(r.stats.iter().cloned());
                    rungs.push((
                        r.rung,
                        !matches!(r.outcome, RungOutcome::Skipped(_)),
                        r.elapsed,
                    ));
                }
                let answer = answer_of(&report.verdict);
                Ok((answer, answer != Answer::Undecided))
            }
            Task::Checks { src } => {
                let u = load(&sink, job, &mut mine, src)?;
                let opts = CheckOptions {
                    trace: TraceSpan::root(sink.clone()),
                    metrics: metrics.clone(),
                    ..CheckOptions::default()
                };
                let mut check = |name: &str| {
                    let span = sink.open(job, name);
                    mine.push(span);
                    span
                };
                let span = check("check.race");
                let race = pugpara::check_races(&u, &input.cfg, &opts);
                sink.close(span);
                let span = check("check.bank");
                let bank = pugpara::check_bank_conflicts(&u, &input.cfg, &opts);
                sink.close(span);
                let span = check("check.coalesce");
                let coal = pugpara::check_coalescing(&u, &input.cfg, &opts);
                sink.close(span);
                let answer = match &race {
                    Ok(r) => {
                        stats.extend(r.queries.iter().cloned());
                        answer_of(&r.verdict)
                    }
                    Err(_) => Answer::Undecided,
                };
                for p in [&bank, &coal].into_iter().flatten() {
                    stats.extend(p.queries.iter().cloned());
                }
                Ok((
                    answer,
                    answer != Answer::Undecided && bank.is_ok() && coal.is_ok(),
                ))
            }
        }
    }));
    sink.close(job);
    let wall = started.elapsed();
    let (answer, decided, failed) = match result {
        Ok(Ok((a, d))) => (a, d, false),
        Ok(Err(_)) | Err(_) => (Answer::Undecided, false, true),
    };
    let trace = traced.then(|| JobTrace {
        events: sink.events(),
        mine,
        stats,
        metrics: metrics.snapshot(),
        rungs,
        source_bytes: input.sources().iter().map(|s| s.len()).sum(),
    });
    Job {
        input: index,
        wall,
        answer,
        decided,
        failed,
        trace,
    }
}

/// The set-up probe: answer the workload's fixed first input in a fresh
/// process.
pub fn probe(workload: &str) -> Result<(), String> {
    let input = workloads::probe_input(workload).ok_or("not an in-process workload")?;
    if run_job(0, &input, false).failed {
        return Err(format!("{} failed", input.name));
    }
    Ok(())
}

/// One untraced pass over the distinct inputs on the load threads, which
/// take them from a shared counter in `order`: each input's wall time.
fn untraced_pass(inputs: &[Input], order: &[usize]) -> Vec<Duration> {
    let next = AtomicUsize::new(0);
    let walls: Vec<Vec<(usize, Duration)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..LOAD_THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        done.push((i, run_job(i, &inputs[i], false).wall));
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load thread"))
            .collect()
    });
    let mut out = vec![Duration::ZERO; inputs.len()];
    for (i, wall) in walls.into_iter().flatten() {
        out[i] = wall;
    }
    out
}

/// One load thread's closed loop until `deadline`: shuffled rounds over
/// every input. Returns its jobs and its rate, the jobs of its whole
/// rounds over their time (a cut-off last round would weigh the rate by
/// whichever inputs it held), or all its jobs over its time when not one
/// round finished.
fn closed_loop(
    inputs: &[Input],
    mut rng: TestRng,
    deadline: Instant,
    traced: bool,
) -> (Vec<Job>, f64) {
    let mut jobs = Vec::new();
    let (mut round_jobs, mut round_time) = (0, Duration::ZERO);
    let started = Instant::now();
    'rounds: loop {
        let (round_start, before) = (Instant::now(), jobs.len());
        for i in workloads::round(&mut rng, inputs) {
            if Instant::now() >= deadline {
                break 'rounds;
            }
            jobs.push(run_job(i, &inputs[i], traced));
        }
        round_jobs += jobs.len() - before;
        round_time += round_start.elapsed();
    }
    let rate = if round_jobs > 0 {
        round_jobs as f64 / round_time.as_secs_f64()
    } else {
        jobs.len() as f64 / started.elapsed().as_secs_f64()
    };
    (jobs, rate)
}

/// Run an in-process workload: one untimed warm-up pass over the distinct
/// inputs, then shuffled closed-loop rounds for `seconds` on each of the
/// load threads.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &mut Run,
) -> Result<(), String> {
    let inputs = workloads::inputs(workload, seed).ok_or("not an in-process workload")?;
    let in_order: Vec<usize> = (0..inputs.len()).collect();
    untraced_pass(&inputs, &in_order);
    // Memory is read after one pass over every input: over the timed loop
    // the peak kept growing by however the allocator's per-thread arenas
    // happened to fragment, 16–22 MB on many-small against 10–11 MB here.
    out.peak_rss_mb = crate::report::peak_rss_mb("self");

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let loops: Vec<(Vec<Job>, f64)> = std::thread::scope(|scope| {
        let loops: Vec<_> = (0..LOAD_THREADS as u64)
            .map(|t| {
                let rng = TestRng::seed_from_u64(seed ^ 0x5b0f_f1e5 ^ (t << 32));
                let inputs = &inputs;
                scope.spawn(move || closed_loop(inputs, rng, deadline, traced))
            })
            .collect();
        loops
            .into_iter()
            .map(|l| l.join().expect("load thread"))
            .collect()
    });
    // Throughput is the sum of the threads' rates.
    out.jobs_per_s = loops.iter().map(|l| l.1).sum();
    let jobs: Vec<Job> = loops.into_iter().flat_map(|l| l.0).collect();

    let expect: Vec<(Expect, String)> = inputs
        .iter()
        .map(|i| oracle::expectation(i, seed))
        .collect();
    for j in &jobs {
        let (e, _) = &expect[j.input];
        out.outcomes.push(Outcome {
            input: j.input,
            latency_ms: Some(j.wall.as_secs_f64() * 1e3),
            answer: j.answer,
            decided: j.decided,
            failed: j.failed,
            wrong: oracle::is_wrong(*e, j.answer),
        });
    }
    out.set_inputs(
        &inputs.iter().map(|i| i.name.clone()).collect::<Vec<_>>(),
        &expect,
    );

    if traced {
        // A warm untraced pass after the loop, on as many threads, is the
        // trace-overhead baseline. Shuffled: in list order the two threads
        // met the heavy corpus inputs together, which the timed loop never
        // does, and the baseline read a third slower than the traced jobs.
        let mut rng = TestRng::seed_from_u64(seed ^ 0x7e5e_7e5e);
        let order = workloads::shuffled(&mut rng, in_order);
        let reference = untraced_pass(&inputs, &order);
        let (spans, layers, pooled) = analyze(&inputs, &jobs, &reference);
        out.spans = spans;
        out.layers = layers;
        out.details.push(("pool_sessions_by_input".into(), pooled));
    }
    Ok(())
}

/// The per-layer numbers of a traced run, its spans, and the pool sessions
/// forked per input (where any were).
fn analyze(inputs: &[Input], jobs: &[Job], untraced: &[Duration]) -> (Vec<Span>, Layers, Json) {
    let mut l = Layers::default();
    let mut pooled: BTreeMap<&str, f64> = BTreeMap::new();
    let mut spans = Vec::new();
    let mut replayed_spans = Vec::new();
    let mut unmatched = 0;
    let mut job_wall = 0.0;
    for (n, j) in jobs.iter().enumerate() {
        let t = j.trace.as_ref().expect("traced run");
        let (s, n_unmatched) = trace::job_spans(n, &t.events, &t.mine, &t.stats);
        unmatched += n_unmatched;
        job_wall += s
            .first()
            .map_or(0.0, |root| (root.end_us - root.start_us) as f64);
        spans.extend(s);

        l.add("frontend.source_kb", t.source_bytes as f64 / 1024.0);
        for q in &t.stats {
            let c = &q.stats;
            l.add("check.queries", 1.0);
            l.add(
                "check.discharged_by_rewrite",
                f64::from(u8::from(c.discharged_by_rewrite)),
            );
            l.add("smt.query_us", q.duration.as_micros() as f64);
            for (name, v) in [
                ("smt.cnf_vars", c.cnf_vars as u64),
                ("smt.cnf_clauses", c.cnf_clauses as u64),
                ("smt.ack_selects", c.ack_selects as u64),
                ("smt.gates_hashconsed", c.gates_hashconsed),
                ("smt.clauses_reused", c.clauses_reused as u64),
                ("sat.conflicts", c.sat.conflicts),
                ("sat.decisions", c.sat.decisions),
                ("sat.propagations", c.sat.propagations),
                ("sat.vars_eliminated", c.sat.vars_eliminated),
                ("sat.clauses_vivified", c.sat.clauses_vivified),
            ] {
                l.add(name, v as f64);
            }
        }
        let m = &t.metrics;
        let sessions = m.gauge("pool.sessions").unwrap_or(0) as f64;
        l.add("pool.sessions", sessions);
        if sessions > 0.0 {
            *pooled.entry(&inputs[j.input].name).or_default() += sessions;
        }
        l.add(
            "pool.obligations_parallel",
            m.counter("obligations.parallel") as f64,
        );
        l.add(
            "pool.obligations_fallback",
            m.counter("obligations.fallback") as f64,
        );
        l.add(
            "pool.learnts_imported",
            m.counter("learnts.imported") as f64,
        );
        l.add("cache.hits", m.counter("cache.lookup_hits") as f64);
        l.add("cache.misses", m.counter("cache.lookup_misses") as f64);
        let attempted = t.rungs.iter().filter(|r| r.1).count();
        l.add("runner.rungs_attempted", attempted as f64);
        l.add("runner.descents", attempted.saturating_sub(1) as f64);
        for (rung, _, elapsed) in &t.rungs {
            let key = match rung {
                Rung::Param => "runner.rung_us.param",
                Rung::ParamConcretized => "runner.rung_us.param_c",
                Rung::NonParam { .. } => "runner.rung_us.nonparam",
                Rung::FastBugHunt => "runner.rung_us.fastbughunt",
            };
            l.add(key, elapsed.as_micros() as f64);
        }
    }
    let totals = trace::layer_totals(&spans);
    for (layer, us) in &totals {
        l.add(&format!("{layer}_us"), *us);
    }
    l.set_shares(&totals, job_wall);
    l.add("bench.unmatched_queries", unmatched as f64);

    // Trace overhead: traced job wall against an untraced run of the same
    // inputs.
    let traced: f64 = jobs.iter().map(|j| j.wall.as_secs_f64()).sum();
    let base: f64 = jobs.iter().map(|j| untraced[j.input].as_secs_f64()).sum();
    l.add(
        "bench.trace_overhead",
        if base > 0.0 { traced / base - 1.0 } else { 0.0 },
    );

    // IR and encoding replayed on the same kernels, outside the jobs: one
    // `replay.ir` and one `replay.encode` span per distinct kernel, under
    // job ids after the last job's.
    let mut replayed: HashMap<&str, (f64, f64, f64, f64)> = HashMap::new();
    for j in jobs {
        let input = &inputs[j.input];
        for src in input.sources() {
            let r = *replayed.entry(src).or_insert_with(|| {
                let r = replay(src, &input.cfg);
                let job = jobs.len() + replayed_spans.len() / 2;
                let (ir, enc) = (r.0 as u64, r.2 as u64);
                for (id, name, start, end) in
                    [(1, "replay.ir", 0, ir), (2, "replay.encode", ir, ir + enc)]
                {
                    replayed_spans.push(Span {
                        job,
                        id,
                        parent: 0,
                        name: name.into(),
                        start_us: start,
                        end_us: end,
                        lent: [0; 4],
                    });
                }
                r
            });
            l.add("ir.split_us", r.0);
            l.add("ir.barrier_intervals", r.1);
            l.add("encode.extract_us", r.2);
            l.add("encode.cas", r.3);
        }
    }
    spans.extend(replayed_spans);
    let pooled = Json::obj(pooled.into_iter().map(|(k, v)| (k, v.into())).collect());
    (spans, l, pooled)
}

/// Time `split_segments`/`split_bis` and `extract_region` on one kernel:
/// `(ir µs, barrier intervals, extract µs, conditional assignments)`.
fn replay(src: &str, cfg: &GpuConfig) -> (f64, f64, f64, f64) {
    let Ok(unit) = KernelUnit::load(src) else {
        return (0.0, 0.0, 0.0, 0.0);
    };
    let t = Instant::now();
    let Ok(segments) = pug_ir::split_segments(&unit.kernel.body) else {
        return (0.0, 0.0, 0.0, 0.0);
    };
    let bis: Vec<(Option<String>, Vec<Vec<pug_cuda::Stmt>>)> = segments
        .iter()
        .filter_map(|seg| match seg {
            Segment::Straight(stmts) => Some((None, pug_ir::split_bis(stmts).ok()?)),
            Segment::Loop {
                init,
                cond,
                update,
                body,
                ..
            } => {
                let header = pug_ir::normalize_header(init, cond, update)?;
                Some((Some(header.var), pug_ir::split_bis(body).ok()?))
            }
        })
        .collect();
    let ir_us = t.elapsed().as_micros() as f64;
    let n_bis: usize = bis.iter().map(|(_, b)| b.len()).sum();

    let t = Instant::now();
    let mut ctx = pug_smt::Ctx::new();
    let bound = cfg.bind(&mut ctx, "");
    let mut cas = 0;
    for (i, (var, b)) in bis.iter().enumerate() {
        let extra_locals = var
            .iter()
            .map(|v| {
                (
                    v.clone(),
                    ctx.mk_var(&format!("k!replay{i}"), pug_smt::Sort::BitVec(cfg.bits)),
                    false,
                )
            })
            .collect();
        let opts = pugpara::param::ExtractOptions {
            tag: &format!("r{i}"),
            entry_versions: HashMap::new(),
            extra_locals,
            region: format!("seg{i}"),
            concretize: HashMap::new(),
        };
        if let Ok(region) = pugpara::param::extract_region(&mut ctx, &unit, &bound, b, opts) {
            cas += region.versions.values().map(|v| v.cas.len()).sum::<usize>();
        }
    }
    (
        ir_us,
        n_bis as f64,
        t.elapsed().as_micros() as f64,
        cas as f64,
    )
}
