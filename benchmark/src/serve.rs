//! The serve-mixed workload: an open-loop load against the `pug-serve`
//! daemon binary over its documented line protocol, on one connection
//! with one sender and one receiver thread, then a closed-window burst on a
//! second connection whose latencies and throughput are the workload's
//! end-to-end timings.
//!
//! The wire code here is deliberately the benchmark's own (std sockets and
//! `crate::json`), not `pug_serve::client`: a codec change in the program
//! cannot change the load.

use crate::json::Json;
use crate::oracle::{self, Answer, Expect};
use crate::report::{Outcome, Run};
use crate::stats;
use crate::trace::Span;
use crate::workloads::{basic, shuffled, small_draws, Input, Origin, Task, MAX_SMALL_SOURCE};
use pug_ir::GpuConfig;
use pug_testutil::TestRng;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Corpus pairs resubmitted throughout the run (the warm half):
/// `(oracle name, src wire name, tgt wire name, width)`.
pub const CORPUS_PAIRS: [(&str, &str, &str, u64); 7] = [
    ("reduction/v0~v1@8", "reduction/v0", "reduction/v1", 8),
    (
        "scalar_product/self@7",
        "scalar_product/kernel",
        "scalar_product/kernel",
        7,
    ),
    (
        "transpose/naive~optimized@5",
        "transpose/naive",
        "transpose/optimized",
        5,
    ),
    (
        "transpose/naive~buggy_addr@5",
        "transpose/naive",
        "transpose/buggy_addr",
        5,
    ),
    (
        "vector_add/kernel~buggy@8",
        "vector_add/kernel",
        "vector_add/buggy",
        8,
    ),
    ("scan/self@8", "scan/naive", "scan/naive", 8),
    (
        "reduction/v0~buggy_index@8",
        "reduction/v0",
        "reduction/buggy_index",
        8,
    ),
];

/// Latency limit on the tail, ms.
pub const SLO_MS: f64 = 250.0;

/// Share of the run spent in the open loop; the closed-window burst takes
/// the rest.
const OPEN_LOOP_SHARE: f64 = 0.4;

/// Open-loop steps: `(requests per second, share of the open loop)`. They
/// find where the latency limit breaks (`max_rate_under_slo`) and are
/// reported per step in the result file.
const STEPS: [(f64, f64); 4] = [(10.0, 0.25), (20.0, 0.25), (40.0, 0.25), (80.0, 0.25)];

/// The step whose end the daemon's peak resident set is read at: later
/// steps add bursts of concurrent jobs whose overlap, and so the peak,
/// differs from run to run.
const RSS_STEP: usize = 1;

/// One request in this many resubmits a corpus pair.
const REPEAT_EVERY: usize = 4;

/// Burst requests prepared per second of burst: about twice what the
/// daemon answers on two CPUs. The end-to-end metrics other than set-up
/// and memory come from the burst: the open loop's completions only ever
/// equal its offered rate, and at its rates the daemon's CPUs are mostly
/// idle, so its latencies measured how fast this shared machine woke them
/// (a median of 4.2–6.8 ms over ten runs, moving with the generator's own
/// lateness) more than the daemon.
const BURST_PER_SECOND: f64 = 1000.0;

/// Requests the burst keeps in flight: enough to keep every default worker
/// busy, and well below the default admission capacity (four per worker),
/// so nothing is shed.
const BURST_WINDOW: usize = 8;

/// How long responses are awaited: after the open loop's last due time,
/// and in the burst after the last response.
const DRAIN: Duration = Duration::from_secs(30);

/// A running daemon; stopped and reaped on drop.
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
    log: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Start the daemon on an ephemeral port and wait until it listens.
    pub fn spawn(path: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(path)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", path.display()))?;
        let mut reader = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon exited before listening".into());
            }
            if let Some(a) = line.trim().strip_prefix("pug-serve: listening on ") {
                match a.parse() {
                    Ok(addr) => break addr,
                    Err(e) => return Err(format!("bad listen address `{a}`: {e}")),
                }
            }
        };
        // Keep draining the daemon's log so it can never block on stderr.
        let log = std::thread::spawn(move || {
            let _ = reader.read_to_end(&mut Vec::new());
        });
        Ok(Daemon {
            child,
            addr,
            log: Some(log),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask for a graceful shutdown and reap the process; kill it if it
    /// has not exited within 15 s.
    pub fn shutdown(mut self) {
        if let Ok(mut c) = Conn::connect(self.addr) {
            let _ = c.send(&Json::obj(vec![
                ("op", "shutdown".into()),
                ("drain_ms", 2000u64.into()),
            ]));
        }
        let deadline = Instant::now() + Duration::from_secs(15);
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.reap();
    }

    fn reap(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.log.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap();
    }
}

/// One protocol connection.
struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let w = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let _ = w.set_nodelay(true);
        let r = BufReader::new(w.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { w, r })
    }

    fn send(&mut self, v: &Json) -> Result<(), String> {
        let mut line = v.render();
        line.push('\n');
        self.w.write_all(line.as_bytes()).map_err(|e| e.to_string())
    }

    fn recv(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        match self.r.read_line(&mut line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Json::parse(line.trim()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Send one request and wait for its response.
    fn call(&mut self, v: &Json) -> Result<Json, String> {
        self.send(v)?;
        self.recv()
    }
}

fn corpus_request(id: &str, pair: usize) -> Json {
    let (_, src, tgt, width) = CORPUS_PAIRS[pair];
    Json::obj(vec![
        ("op", "verify".into()),
        ("id", id.into()),
        ("src_kernel", src.into()),
        ("tgt_kernel", tgt.into()),
        ("width", width.into()),
    ])
}

fn inline_request(id: &str, src: &str, tgt: &str) -> Json {
    Json::obj(vec![
        ("op", "verify".into()),
        ("id", id.into()),
        ("src", src.into()),
        ("tgt", tgt.into()),
        ("dims", 1u64.into()),
        ("width", 8u64.into()),
    ])
}

/// One set-up: daemon spawn to the first verdict. Returns the daemon and
/// the seconds it took.
pub fn setup(path: &Path) -> Result<(Daemon, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::spawn(path)?;
    let mut c = Conn::connect(daemon.addr)?;
    let pong = c.call(&Json::obj(vec![("op", "ping".into())]))?;
    if pong.str_field("type") != Some("pong") {
        return Err(format!("unexpected ping answer {}", pong.render()));
    }
    let v = c.call(&corpus_request("setup", 4))?;
    if v.str_field("type") != Some("verdict") {
        return Err(format!("set-up request failed: {}", v.render()));
    }
    Ok((daemon, t.elapsed().as_secs_f64()))
}

/// A scheduled request.
struct Planned {
    due: Duration,
    step: usize,
    input: usize,
    line: String,
}

/// A burst request: its input and its wire line.
type BurstRequest = (usize, String);

/// The distinct inputs, the open-loop schedule for `seconds` of load, and
/// the burst's requests.
fn plan(seed: u64, seconds: f64) -> (Vec<Input>, Vec<Planned>, Vec<BurstRequest>) {
    // Corpus repeats are loaded by the daemon itself; their inputs carry
    // only the name the oracle judges them by.
    let mut inputs: Vec<Input> = CORPUS_PAIRS
        .iter()
        .map(|&(name, ..)| Input {
            name: name.to_string(),
            task: Task::Equiv {
                src: String::new(),
                tgt: String::new(),
            },
            cfg: GpuConfig::symbolic_1d(8),
            origin: Origin::Corpus,
            weight: 1,
        })
        .collect();
    let mut rng = TestRng::seed_from_u64(seed ^ 0x5e12_7e00);
    let (mut sent, mut fresh) = (0usize, 0u64);
    let mut repeats: Vec<usize> = Vec::new();
    // Fresh pairs come from the basic profile: its cost tail is short,
    // where one long extended proof would hold CPUs that every concurrent
    // request then waits for.
    let mut draws = small_draws(seed, 11, basic, MAX_SMALL_SOURCE);
    // Every fourth request resubmits a corpus pair (warm), each pair once
    // per block of seven in a seeded order; the rest are fresh generated
    // pairs (cold). A fixed composition keeps the latency median from
    // moving with how often a seed drew each pair, and a cold majority puts
    // the median inside the continuous fresh distribution rather than
    // between two corpus pairs' latencies.
    let mut next = |id: String| -> (usize, String) {
        let (input, req) = if sent.is_multiple_of(REPEAT_EVERY) {
            if repeats.is_empty() {
                repeats = shuffled(&mut rng, (0..CORPUS_PAIRS.len()).collect());
            }
            let pair = repeats.pop().unwrap_or(0);
            (pair, corpus_request(&id, pair))
        } else {
            let self_pair = fresh.is_multiple_of(2);
            let s = draws.next().unwrap_or(0);
            let (src, tgt) = (
                basic(s),
                if self_pair {
                    basic(s)
                } else {
                    basic(draws.next().unwrap_or(0))
                },
            );
            fresh += 1;
            inputs.push(Input {
                name: format!("gen/{}/{s}", if self_pair { "self" } else { "cross" }),
                task: Task::Equiv {
                    src: src.clone(),
                    tgt: tgt.clone(),
                },
                cfg: GpuConfig::symbolic_1d(8),
                origin: if self_pair {
                    Origin::GenSelf
                } else {
                    Origin::Gen
                },
                weight: 1,
            });
            (inputs.len() - 1, inline_request(&id, &src, &tgt))
        };
        sent += 1;
        (input, req.render() + "\n")
    };
    let open = OPEN_LOOP_SHARE * seconds;
    let mut planned = Vec::new();
    let mut t0 = 0.0;
    for (step, &(rate, share)) in STEPS.iter().enumerate() {
        let n = (rate * share * open).round().max(1.0) as usize;
        for i in 0..n {
            let (input, line) = next(format!("r{}", planned.len()));
            planned.push(Planned {
                due: Duration::from_secs_f64(t0 + i as f64 / rate),
                step,
                input,
                line,
            });
        }
        t0 += share * open;
    }
    let n = (BURST_PER_SECOND * burst_time(seconds).as_secs_f64())
        .round()
        .max(BURST_WINDOW as f64) as usize;
    let burst = (0..n).map(|k| next(format!("b{k}"))).collect();
    (inputs, planned, burst)
}

/// How long the burst sends requests.
fn burst_time(seconds: f64) -> Duration {
    Duration::from_secs_f64((1.0 - OPEN_LOOP_SHARE) * seconds)
}

/// What the burst got back: per request sent, the response and its
/// latency from the send; the verdicts; and the time from the first send
/// to the last response.
struct BurstResult {
    responses: Vec<Option<(f64, Json)>>,
    verdicts: usize,
    wall: Duration,
}

/// The closed-window burst: [`BURST_WINDOW`] requests in flight on one
/// connection, new ones sent for `time` (or until `requests` run out),
/// then every one sent awaited, until the daemon has been silent for
/// [`DRAIN`].
fn run_burst(
    addr: SocketAddr,
    requests: &[BurstRequest],
    time: Duration,
) -> Result<BurstResult, String> {
    let mut c = Conn::connect(addr)?;
    let _ = c.r.get_ref().set_read_timeout(Some(DRAIN));
    let mut sent_at = Vec::with_capacity(requests.len());
    let mut responses = Vec::with_capacity(requests.len());
    let (mut answered, mut verdicts, mut wall) = (0, 0, Duration::ZERO);
    let start = Instant::now();
    loop {
        while sent_at.len() < requests.len()
            && sent_at.len() - answered < BURST_WINDOW
            && start.elapsed() < time
        {
            let line = &requests[sent_at.len()].1;
            c.w.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
            sent_at.push(start.elapsed());
            responses.push(None);
        }
        if answered == sent_at.len() {
            break;
        }
        let Ok(v) = c.recv() else { break };
        wall = start.elapsed();
        let k: Option<usize> = v
            .str_field("id")
            .and_then(|s| s.strip_prefix('b'))
            .and_then(|s| s.parse().ok());
        if let Some(k) = k.filter(|&k| k < sent_at.len() && responses[k].is_none()) {
            verdicts += usize::from(v.str_field("type") == Some("verdict"));
            responses[k] = Some(((wall - sent_at[k]).as_secs_f64() * 1e3, v));
            answered += 1;
        }
    }
    Ok(BurstResult {
        responses,
        verdicts,
        wall,
    })
}

/// Due time of request `due` against an actual send time, ms late.
pub fn lateness_ms(due: Duration, sent: Duration) -> f64 {
    sent.saturating_sub(due).as_secs_f64() * 1e3
}

/// Latency of a response, timed from when its request was due (so a
/// stalled generator cannot hide queueing it caused).
pub fn latency_from_due_ms(due: Duration, received: Duration) -> f64 {
    received.saturating_sub(due).as_secs_f64() * 1e3
}

/// Read the daemon's text metrics (`GET /metrics`) into `name → value`.
fn http_metrics(addr: SocketAddr) -> HashMap<String, f64> {
    let mut out = HashMap::new();
    let Ok(mut s) = TcpStream::connect(addr) else {
        return out;
    };
    let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
    if s.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").is_err() {
        return out;
    }
    let mut body = String::new();
    let _ = s.read_to_string(&mut body);
    for line in body.lines() {
        let parts: Vec<&str> = line.split_whitespace().collect();
        if let [_, name, "=", value, ..] = parts[..] {
            if let Ok(v) = value.parse() {
                out.insert(name.to_string(), v);
            }
        }
    }
    out
}

/// Run the serve-mixed workload against `daemon`, already set up.
pub fn run(
    daemon: Daemon,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &mut Run,
) -> Result<(), String> {
    // Warm-up: each corpus pair once, so repeats meet a warm cache.
    let mut c = Conn::connect(daemon.addr)?;
    for pair in 0..CORPUS_PAIRS.len() {
        c.call(&corpus_request(&format!("warm{pair}"), pair))?;
    }
    drop(c);

    let (mut inputs, planned, mut burst_requests) = plan(seed, seconds);
    let conn = Conn::connect(daemon.addr)?;
    let Conn {
        w: mut writer,
        r: mut reader,
    } = conn;
    let last_due = planned.last().map_or(Duration::ZERO, |p| p.due);
    let pid = daemon.pid().to_string();
    let start = Instant::now();
    let total = planned.len();

    let (sent, rss, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut sent = Vec::with_capacity(total);
            // The daemon's peak resident set as each step ends.
            let mut rss = Vec::new();
            for (k, p) in planned.iter().enumerate() {
                if k > 0 && planned[k - 1].step != p.step {
                    rss.push(crate::report::peak_rss_mb(&pid));
                }
                if let Some(wait) = p.due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                let ok = writer.write_all(p.line.as_bytes()).is_ok();
                sent.push(ok.then(|| start.elapsed()));
            }
            rss.push(crate::report::peak_rss_mb(&pid));
            (sent, rss)
        });
        let receiver = scope.spawn(|| {
            let _ = reader
                .get_ref()
                .set_read_timeout(Some(Duration::from_millis(200)));
            let mut got: HashMap<usize, (Duration, Json)> = HashMap::new();
            let mut line = String::new();
            while got.len() < total && start.elapsed() < last_due + DRAIN {
                match reader.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) => {
                        let at = start.elapsed();
                        if let Ok(v) = Json::parse(line.trim()) {
                            let id = v
                                .str_field("id")
                                .and_then(|s| s.strip_prefix('r'))
                                .and_then(|s| s.parse().ok());
                            if let Some(id) = id {
                                got.insert(id, (at, v));
                            }
                        }
                        line.clear();
                    }
                    // Timeouts keep any partial line in `line`.
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        continue
                    }
                    Err(_) => break,
                }
            }
            got
        });
        let (sent, rss) = sender.join().expect("sender thread");
        (sent, rss, receiver.join().expect("receiver thread"))
    });
    let burst = run_burst(daemon.addr, &burst_requests, burst_time(seconds))?;
    // Requests the burst had no time to send are not inputs of the run.
    burst_requests.truncate(burst.responses.len());
    let used = planned
        .iter()
        .map(|p| p.input)
        .chain(burst_requests.iter().map(|b| b.0))
        .max()
        .map_or(0, |i| i + 1);
    inputs.truncate(used.max(CORPUS_PAIRS.len()));

    let metrics = if traced {
        http_metrics(daemon.addr)
    } else {
        HashMap::new()
    };
    daemon.shutdown();
    out.peak_rss_mb = rss.get(RSS_STEP).copied().unwrap_or(0.0);

    let expect: Vec<(Expect, String)> = inputs
        .iter()
        .map(|i| oracle::expectation(i, seed))
        .collect();

    let mut steps = vec![StepStats::default(); STEPS.len()];
    let mut late = Vec::new();
    let mut server_ms = Vec::new();
    let mut overhead_ms = Vec::new();
    let mut spans = Vec::new();
    let mut measured = Vec::new();
    for (k, p) in planned.iter().enumerate() {
        let st = &mut steps[p.step];
        st.sent += 1;
        if let Some(s) = sent[k] {
            late.push(lateness_ms(p.due, s));
        }
        let (latency, answer, failed) = match received.get(&k) {
            None => {
                st.lost += 1;
                (None, Answer::Undecided, true)
            }
            Some((at, v)) => {
                let latency = latency_from_due_ms(p.due, *at);
                if *at > step_end(p.step, seconds) + Duration::from_secs_f64(2.0 * SLO_MS / 1e3) {
                    st.backlog += 1;
                }
                let r = st.classify(v, latency);
                if r.0.is_some() {
                    let server = v.num_field("elapsed_ms").unwrap_or(0.0);
                    spans.extend(request_span(k, p.due, *at, server));
                }
                r
            }
        };
        out.outcomes.push(Outcome {
            input: p.input,
            latency_ms: latency,
            answer,
            decided: answer != Answer::Undecided,
            failed,
            wrong: oracle::is_wrong(expect[p.input].0, answer),
        });
    }
    let mut burst_stats = StepStats::default();
    for (&(input, _), response) in burst_requests.iter().zip(&burst.responses) {
        burst_stats.sent += 1;
        let (latency, answer, failed) = match response {
            None => {
                burst_stats.lost += 1;
                (None, Answer::Undecided, true)
            }
            Some((latency, v)) => {
                let r = burst_stats.classify(v, *latency);
                if r.0.is_some() {
                    let server = v.num_field("elapsed_ms").unwrap_or(0.0);
                    server_ms.push(server);
                    overhead_ms.push(latency - server);
                }
                r
            }
        };
        measured.push(out.outcomes.len());
        out.outcomes.push(Outcome {
            input,
            latency_ms: latency,
            answer,
            decided: answer != Answer::Undecided,
            failed,
            wrong: oracle::is_wrong(expect[input].0, answer),
        });
    }
    out.jobs_per_s = burst.verdicts as f64 / burst.wall.as_secs_f64().max(1e-9);
    out.measured = Some(measured);
    out.set_inputs(
        &inputs.iter().map(|i| i.name.clone()).collect::<Vec<_>>(),
        &expect,
    );

    let rows: Vec<Json> = STEPS
        .iter()
        .zip(&steps)
        .map(|(&(rate, _), s)| s.row(vec![("rate", rate.into())]))
        .collect();
    let max_rate = STEPS
        .iter()
        .zip(&steps)
        .filter(|(_, s)| s.under_slo())
        .map(|(r, _)| r.0)
        .fold(0.0, f64::max);
    out.details.push(("steps".into(), Json::Arr(rows)));
    out.details
        .push(("max_rate_under_slo".into(), max_rate.into()));
    out.details.push((
        "burst".into(),
        burst_stats.row(vec![
            ("window", BURST_WINDOW.into()),
            ("wall_s", burst.wall.as_secs_f64().into()),
        ]),
    ));
    out.details.push((
        "daemon_peak_rss_mb_by_step".into(),
        Json::Arr(rss.iter().map(|&v| v.into()).collect()),
    ));
    out.details.push(("slo_ms".into(), SLO_MS.into()));
    out.details.push((
        "generator_late_p99_ms".into(),
        stats::percentile(&late, 99.0).into(),
    ));
    out.details.push((
        "generator_late_max_ms".into(),
        stats::percentile(&late, 100.0).into(),
    ));

    if traced {
        let l = &mut out.layers;
        l.add("serve.server_ms", stats::median(&server_ms));
        l.add("serve.overhead_ms", stats::median(&overhead_ms));
        l.add("serve.shed", steps.iter().map(|s| s.shed as f64).sum());
        l.add(
            "serve.admitted",
            metrics.get("serve.jobs.admitted").copied().unwrap_or(0.0),
        );
        l.add(
            "serve.cache_hits",
            metrics.get("cache.hits").copied().unwrap_or(0.0),
        );
        l.add(
            "cache.hits",
            metrics.get("cache.lookup_hits").copied().unwrap_or(0.0),
        );
        l.add(
            "cache.misses",
            metrics.get("cache.lookup_misses").copied().unwrap_or(0.0),
        );
        l.add("bench.generator_late_ms", stats::percentile(&late, 99.0));
        out.spans = spans;
    }
    Ok(())
}

fn step_end(step: usize, seconds: f64) -> Duration {
    let open = OPEN_LOOP_SHARE * seconds;
    Duration::from_secs_f64(STEPS[..=step].iter().map(|s| s.1 * open).sum())
}

/// A request as a span from its due time to its response; the server's
/// own time is a child ending at the response.
fn request_span(k: usize, due: Duration, at: Duration, server_ms: f64) -> [Span; 2] {
    let (start, end) = (due.as_micros() as u64, at.as_micros() as u64);
    let server_start = end.saturating_sub((server_ms * 1e3) as u64).max(start);
    [
        Span {
            job: k,
            id: 1,
            parent: 0,
            name: "request".into(),
            start_us: start,
            end_us: end,
            lent: [0; 4],
        },
        Span {
            job: k,
            id: 2,
            parent: 1,
            name: "serve.job".into(),
            start_us: server_start,
            end_us: end,
            lent: [0; 4],
        },
    ]
}

#[derive(Clone, Debug, Default)]
struct StepStats {
    sent: usize,
    latencies: Vec<f64>,
    shed: usize,
    errors: usize,
    lost: usize,
    backlog: usize,
}

impl StepStats {
    fn p90(&self) -> f64 {
        stats::percentile(&self.latencies, 90.0)
    }

    /// p90 within the limit, nothing shed, lost or failed, and no backlog
    /// left two limits after the step.
    fn under_slo(&self) -> bool {
        self.p90() <= SLO_MS
            && self.shed == 0
            && self.lost == 0
            && self.errors == 0
            && self.backlog == 0
    }

    /// Classify one response: a verdict's latency is recorded, a shed or
    /// an error counted. Returns `(latency of a verdict, answer, failed)`.
    fn classify(&mut self, v: &Json, latency: f64) -> (Option<f64>, Answer, bool) {
        match v.str_field("type") {
            Some("verdict") => {
                self.latencies.push(latency);
                (
                    Some(latency),
                    Answer::from_wire(v.str_field("verdict").unwrap_or("")),
                    false,
                )
            }
            Some("overloaded") => {
                self.shed += 1;
                (None, Answer::Undecided, false)
            }
            _ => {
                self.errors += 1;
                (None, Answer::Undecided, true)
            }
        }
    }

    /// The result-file row: `head` first, then the counts and latencies.
    fn row(&self, mut head: Vec<(&str, Json)>) -> Json {
        head.extend([
            ("sent", self.sent.into()),
            ("verdicts", self.latencies.len().into()),
            ("shed", self.shed.into()),
            (
                "shed_ratio",
                (self.shed as f64 / self.sent.max(1) as f64).into(),
            ),
            ("errors", self.errors.into()),
            ("lost", self.lost.into()),
            ("backlog", self.backlog.into()),
            ("p50_ms", stats::median(&self.latencies).into()),
            ("p90_ms", self.p90().into()),
            ("under_slo", self.under_slo().into()),
        ]);
        Json::obj(head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_follows_rates_and_seed() {
        let (inputs, planned, burst) = plan(5, 10.0);
        // A 4 s open loop: 10/s, 20/s, 40/s and 80/s for 1 s each.
        let per_step: Vec<usize> = (0..4)
            .map(|s| planned.iter().filter(|p| p.step == s).count())
            .collect();
        assert_eq!(per_step, [10, 20, 40, 80]);
        assert!(planned.windows(2).all(|w| w[0].due <= w[1].due));
        let second = planned.iter().find(|p| p.step == 1).unwrap();
        assert_eq!(second.due, Duration::from_secs(1));
        let step1: Vec<&Planned> = planned.iter().filter(|p| p.step == 1).collect();
        assert_eq!(step1[1].due - step1[0].due, Duration::from_millis(50));
        // The burst's 6 s get 1000 requests per second, ids b0….
        assert_eq!(burst_time(10.0), Duration::from_secs(6));
        assert_eq!(burst.len(), 6000);
        assert!(burst
            .iter()
            .enumerate()
            .all(|(k, b)| b.1.contains(&format!("\"id\":\"b{k}\""))));
        let all = planned.len() + burst.len();
        let repeats = planned
            .iter()
            .map(|p| p.input)
            .chain(burst.iter().map(|b| b.0))
            .filter(|&i| i < CORPUS_PAIRS.len())
            .count();
        assert_eq!(repeats, all.div_ceil(REPEAT_EVERY));
        assert_eq!(inputs.len() - CORPUS_PAIRS.len(), all - repeats);
        let (_, again, again_burst) = plan(5, 10.0);
        assert!(planned.iter().zip(&again).all(|(a, b)| a.line == b.line));
        assert_eq!(burst, again_burst);
    }

    #[test]
    fn open_loop_times_from_due_and_counts_lateness() {
        let due = Duration::from_millis(100);
        // Sent 30 ms late, answered 80 ms after it was due.
        assert_eq!(lateness_ms(due, Duration::from_millis(130)), 30.0);
        assert_eq!(latency_from_due_ms(due, Duration::from_millis(180)), 80.0);
        // Early sends are not negative lateness.
        assert_eq!(lateness_ms(due, Duration::from_millis(90)), 0.0);
        assert_eq!(step_end(0, 10.0), Duration::from_secs(1));
        assert_eq!(step_end(3, 10.0), Duration::from_secs(4));
    }

    #[test]
    fn slo_step_needs_p90_and_no_shed_or_backlog() {
        let ok = StepStats {
            sent: 20,
            latencies: vec![100.0; 20],
            ..StepStats::default()
        };
        assert!(ok.under_slo());
        assert!(!StepStats {
            shed: 1,
            ..ok.clone()
        }
        .under_slo());
        assert!(!StepStats {
            backlog: 1,
            ..ok.clone()
        }
        .under_slo());
        let mut slow = ok.clone();
        slow.latencies[18] = 300.0;
        slow.latencies[19] = 300.0;
        assert!(slow.under_slo(), "two slow samples of 20 sit beyond p90");
        slow.latencies[17] = 300.0;
        assert!(!slow.under_slo(), "p90 of 20 is the 18th value");
    }
}
