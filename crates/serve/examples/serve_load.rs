//! Load driver for the `pug-serve` daemon (ISSUE 6 acceptance run).
//!
//! Starts an in-process daemon with a deliberately small admission bound,
//! then drives it hard from many client threads:
//!
//! * **Burst**: 224 pipelined jobs (corpus pairs + KernelGen fuzz pairs,
//!   one rung failpoint armed process-wide) from 16 connections against
//!   `capacity = 8` — most submissions shed; clients retry on the
//!   `retry_after_ms` hint until every job lands a verdict.
//! * **Agreement**: every service verdict is compared **byte-for-byte**
//!   against the in-process [`run_resilient`] answer for the same pair
//!   (the sticky failpoint degrades both sides identically).
//! * **Disconnects**: connections that pipeline jobs and vanish without
//!   reading; the daemon must cancel exactly those jobs and drain to zero
//!   in-flight.
//! * **Shutdown**: graceful drain with live stragglers; must finish within
//!   the drain deadline plus cancellation grace, leaving nothing behind.
//!
//! Prints throughput and client-observed latency percentiles; the numbers
//! quoted in `EXPERIMENTS.md` ("Service under load — pug-serve") come
//! from this driver.
//!
//! ```text
//! cargo run --release -p pug-serve --example serve_load
//! ```

use pug_ir::GpuConfig;
use pug_obs::Json;
use pug_serve::client::{http_metrics, Client};
use pug_serve::protocol::{verify_corpus_request, verify_inline_request};
use pug_serve::server::{start, ServeConfig};
use pug_smt::failpoints::{self, Fault};
use pug_testutil::KernelGen;
use pugpara::runner::run_resilient;
use pugpara::KernelUnit;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 16;
const JOBS_PER_CLIENT: usize = 14; // 224 total ≥ 200
const CAPACITY: usize = 8; // small on purpose: force real shedding
const RUNG_TIMEOUT: Duration = Duration::from_secs(30);
const DRAIN: Duration = Duration::from_secs(8);

/// One distinct kernel pair: corpus names or inline sources.
#[derive(Clone)]
enum Pair {
    Corpus(&'static str, &'static str),
    Inline(String, String),
}

impl Pair {
    fn request(&self, id: &str) -> Json {
        match self {
            Pair::Corpus(src, tgt) => verify_corpus_request(id, src, tgt, Some(8), None),
            Pair::Inline(src, tgt) => verify_inline_request(id, src, tgt, 1, 8, None),
        }
    }
}

/// The distinct pairs the burst cycles over. Repeats across 224 jobs are
/// intentional: they exercise the process-wide warm unsat cache.
fn distinct_pairs() -> Vec<Pair> {
    let mut pairs: Vec<Pair> = vec![
        Pair::Corpus("transpose/naive", "transpose/optimized"),
        Pair::Corpus("transpose/naive", "transpose/buggy_addr"),
        Pair::Corpus("reduction/v0", "reduction/v1"),
        Pair::Corpus("reduction/v0", "reduction/buggy_index"),
        Pair::Corpus("vector_add/kernel", "vector_add/kernel"),
        Pair::Corpus("vector_add/kernel", "vector_add/buggy"),
        Pair::Corpus("scalar_product/kernel", "scalar_product/unconstrained"),
        Pair::Corpus("scan/naive", "scan/naive"),
    ];
    // Fuzz pairs: deterministic seeds, self-pairs (mostly equivalences)
    // and successive-pairs (mostly mismatches) from both generator
    // profiles. Determinism matters: the baseline runs the same sources.
    for seed in 0..6u64 {
        let mut gen = KernelGen::basic(seed);
        let k1 = gen.kernel();
        let k2 = gen.kernel();
        pairs.push(Pair::Inline(k1.clone(), k1.clone()));
        pairs.push(Pair::Inline(k1, k2));
    }
    for seed in 6..12u64 {
        let mut gen = KernelGen::extended(seed);
        let k1 = gen.kernel();
        pairs.push(Pair::Inline(k1.clone(), k1));
    }
    pairs
}

/// In-process baseline verdict for a pair, under the ladder policy the
/// daemon's jobs run with.
fn baseline(serve: &ServeConfig, pair: &Pair) -> String {
    let load_corpus = |name: &str| {
        let (src, _) = pug_serve::corpus::lookup(name).expect("corpus name");
        KernelUnit::load(src).expect("corpus kernel loads")
    };
    let (src, tgt, cfg) = match pair {
        Pair::Corpus(s, t) => {
            let dims = pug_serve::corpus::lookup(s).expect("corpus name").1;
            let cfg = match dims {
                pug_serve::corpus::Dims::One => GpuConfig::symbolic_1d(8),
                pug_serve::corpus::Dims::Two => GpuConfig::symbolic_2d(8),
            };
            (load_corpus(s), load_corpus(t), cfg)
        }
        Pair::Inline(s, t) => (
            KernelUnit::load(s).expect("fuzz src loads"),
            KernelUnit::load(t).expect("fuzz tgt loads"),
            GpuConfig::symbolic_1d(8),
        ),
    };
    run_resilient(&src, &tgt, &cfg, &serve.runner_options()).verdict.to_string()
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct ClientOutcome {
    latencies: Vec<Duration>,
    sheds_retried: u64,
    disagreements: Vec<String>,
    lost: Vec<String>,
}

/// One client connection: pipeline all jobs, collect responses, retry shed
/// ones after the daemon's hint, verify every verdict against the
/// baseline.
fn drive_client(
    addr: std::net::SocketAddr,
    client_idx: usize,
    pairs: &[Pair],
    expected: &[String],
    shed_counter: &AtomicU64,
) -> ClientOutcome {
    let mut outcome = ClientOutcome {
        latencies: Vec::new(),
        sheds_retried: 0,
        disagreements: Vec::new(),
        lost: Vec::new(),
    };
    let mut client = Client::connect(addr).expect("load client connects");
    client.set_recv_timeout(Some(Duration::from_secs(300))).unwrap();

    // job id -> (pair index, submission instant)
    let mut pending: HashMap<String, (usize, Instant)> = HashMap::new();
    for j in 0..JOBS_PER_CLIENT {
        let pair_idx = (client_idx * JOBS_PER_CLIENT + j) % pairs.len();
        let id = format!("c{client_idx}-j{j}");
        client.send(&pairs[pair_idx].request(&id)).expect("send");
        pending.insert(id, (pair_idx, Instant::now()));
    }

    while !pending.is_empty() {
        let resp = match client.recv() {
            Ok(Some(r)) => r,
            Ok(None) => {
                outcome.lost.extend(pending.keys().cloned());
                break;
            }
            Err(e) => {
                outcome.lost.extend(pending.keys().map(|id| format!("{id} ({e})")));
                break;
            }
        };
        let id = resp.str_field("id").unwrap_or("").to_string();
        let Some(&(pair_idx, started)) = pending.get(&id) else { continue };
        match resp.str_field("type") {
            Some("verdict") => {
                let have = resp.str_field("verdict").unwrap_or("");
                if have != expected[pair_idx] {
                    outcome.disagreements.push(format!(
                        "{id}: service `{have}` vs in-process `{}`",
                        expected[pair_idx]
                    ));
                }
                outcome.latencies.push(started.elapsed());
                pending.remove(&id);
            }
            Some("overloaded") => {
                // Explicit shed: honor the hint, then resubmit the SAME id.
                let hint = resp.u64_field("retry_after_ms").unwrap_or(100);
                outcome.sheds_retried += 1;
                shed_counter.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(hint.min(1_000)));
                client.send(&pairs[pair_idx].request(&id)).expect("resend");
            }
            other => {
                outcome.disagreements.push(format!(
                    "{id}: unexpected response type {other:?}: {}",
                    resp.render()
                ));
                pending.remove(&id);
            }
        }
    }
    outcome
}

fn main() {
    pug_serve::smoke::silence_failpoint_panics();
    // Sticky process-wide fault: the Param rung panics every time it runs,
    // for the baselines AND the service — agreement must hold anyway.
    failpoints::arm("runner::param", Fault::Panic);

    let cfg = ServeConfig {
        capacity: CAPACITY,
        rung_timeout: RUNG_TIMEOUT,
        drain: DRAIN,
        ..ServeConfig::default()
    };
    let pairs = distinct_pairs();
    println!("== baselines: {} distinct pairs (in-process run_resilient) ==", pairs.len());
    let t0 = Instant::now();
    let expected: Vec<String> = pairs.iter().map(|p| baseline(&cfg, p)).collect();
    println!("   done in {:?}", t0.elapsed());

    let server = start(&cfg, "127.0.0.1:0").expect("daemon starts");
    let addr = server.addr();
    println!("== daemon on {addr} (capacity {CAPACITY}) ==");

    // ---- Phase 1: the burst -------------------------------------------
    let total_jobs = CLIENTS * JOBS_PER_CLIENT;
    println!("== burst: {total_jobs} jobs from {CLIENTS} pipelined connections ==");
    let shed_counter = Arc::new(AtomicU64::new(0));
    let burst_t0 = Instant::now();
    let pairs_arc = Arc::new(pairs);
    let expected_arc = Arc::new(expected);
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let pairs = Arc::clone(&pairs_arc);
            let expected = Arc::clone(&expected_arc);
            let sheds = Arc::clone(&shed_counter);
            std::thread::spawn(move || drive_client(addr, i, &pairs, &expected, &sheds))
        })
        .collect();
    let outcomes: Vec<ClientOutcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let burst_elapsed = burst_t0.elapsed();

    let mut latencies: Vec<Duration> = outcomes.iter().flat_map(|o| o.latencies.clone()).collect();
    let lost: Vec<String> = outcomes.iter().flat_map(|o| o.lost.clone()).collect();
    let disagreements: Vec<String> =
        outcomes.iter().flat_map(|o| o.disagreements.clone()).collect();
    let sheds = shed_counter.load(Ordering::Relaxed);
    latencies.sort();

    assert!(lost.is_empty(), "lost jobs (no terminal response): {lost:?}");
    assert!(disagreements.is_empty(), "verdict disagreements:\n{}", disagreements.join("\n"));
    assert_eq!(latencies.len(), total_jobs, "every job must land a verdict");
    assert!(sheds > 0, "capacity {CAPACITY} under {total_jobs} pipelined jobs must shed");

    let throughput = total_jobs as f64 / burst_elapsed.as_secs_f64();
    println!("   all {total_jobs} verdicts agree with the in-process runner");
    println!("   sheds answered + retried: {sheds}");
    println!("   wall {burst_elapsed:?}  throughput {throughput:.1} jobs/s");
    println!(
        "   latency p50 {:?}  p90 {:?}  p99 {:?}  max {:?}",
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.90),
        percentile(&latencies, 0.99),
        latencies.last().copied().unwrap_or_default(),
    );

    // ---- Phase 2: vanishing clients -----------------------------------
    println!("== disconnect storm: 4 connections pipeline 6 jobs each, then vanish ==");
    for i in 0..4 {
        let mut client = Client::connect(addr).expect("disconnect client connects");
        for j in 0..6 {
            let id = format!("gone{i}-{j}");
            let pair = &pairs_arc[(i * 6 + j) % pairs_arc.len()];
            client.send(&pair.request(&id)).expect("send before vanishing");
        }
        drop(client); // vanish without reading a single response
    }
    let drain_watch = Instant::now();
    while server.inflight() > 0 && drain_watch.elapsed() < Duration::from_secs(120) {
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(server.inflight(), 0, "disconnected clients' jobs must not linger");
    println!("   in-flight back to 0 in {:?}", drain_watch.elapsed());

    // ---- Phase 3: metrics + graceful shutdown under live load ---------
    let page = http_metrics(addr).expect("GET /metrics");
    for needle in ["serve.jobs.admitted", "serve.jobs.shed", "cache.hits"] {
        assert!(page.contains(needle), "/metrics missing `{needle}`");
    }
    println!("== /metrics live; submitting stragglers then shutting down ==");
    let mut straggler = Client::connect(addr).expect("straggler client connects");
    straggler.set_recv_timeout(Some(Duration::from_secs(120))).unwrap();
    for j in 0..4 {
        let id = format!("straggler-{j}");
        straggler
            .send(&pairs_arc[j % pairs_arc.len()].request(&id))
            .expect("send straggler");
    }
    let shutdown_t0 = Instant::now();
    let report = server.shutdown_with(Duration::from_millis(50)); // deliberately tight
    assert!(report.clean, "shutdown must leave nothing behind: {report:?}");
    println!(
        "   drained: {} in flight at shutdown, {} cancelled, clean={} in {:?} (total {:?})",
        report.inflight_at_shutdown,
        report.stragglers_cancelled,
        report.clean,
        report.elapsed,
        shutdown_t0.elapsed()
    );
    // Stragglers answered terminally even across the drain: verdict if they
    // finished, `aborted` (with provenance) if the drain cancelled them,
    // `shutting_down` if they never got admitted.
    let mut straggler_answers = 0;
    while straggler_answers < 4 {
        match straggler.recv() {
            Ok(Some(resp)) => {
                let ty = resp.str_field("type").unwrap_or("?");
                assert!(
                    matches!(ty, "verdict" | "aborted" | "shutting_down"),
                    "straggler got unexpected `{ty}`: {}",
                    resp.render()
                );
                straggler_answers += 1;
            }
            Ok(None) => break, // daemon closed after draining: acceptable
            Err(e) => panic!("straggler recv failed: {e}"),
        }
    }
    println!("   stragglers answered terminally: {straggler_answers}/4 (rest closed post-drain)");

    failpoints::disarm("runner::param");
    println!("== serve_load PASSED ==");
}
