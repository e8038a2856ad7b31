//! End-to-end integration tests for the `pug-serve` daemon: real TCP, real
//! jobs, real shutdown. Each test boots its own daemon on an ephemeral
//! port. (Failpoints are process-global and these tests run concurrently,
//! so fault injection through the daemon lives in `serve_faults.rs`, a
//! test binary of its own.)

use pug_ir::GpuConfig;
use pug_obs::Json;
use pug_serve::client::{http_metrics, Client};
use pug_serve::protocol::{verify_corpus_request, verify_inline_request};
use pug_serve::server::{start, ServeConfig};
use pug_serve::ServerHandle;
use pugpara::runner::run_resilient;
use pugpara::KernelUnit;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn boot(cfg: &ServeConfig) -> ServerHandle {
    start(cfg, "127.0.0.1:0").expect("daemon binds an ephemeral port")
}

/// A deterministically *heavy* pair: `(a+b)·c` against
/// `(a|b)·c + (a&b)·c` at 32 bits. The two are equal because
/// `a + b = (a|b) + (a&b)`, but `|` and `&` are atoms to the rewrite
/// discharge, so the obligation reaches the SAT solver, where the 32-bit
/// multipliers make it a hard instance: every rung runs until its deadline
/// or a cancel (on a 2-CPU machine each rung ran out a 10 s budget).
/// Plain distributivity, `a·c + b·c`, would not do: it is a polynomial
/// identity, which the rewrite discharge proves without a SAT call.
fn mul_dist_request(id: &str, timeout_ms: u64) -> Json {
    const SRC: &str = r#"
__global__ void mulDist(int *d, int *a, int *b, int *c, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        d[i] = (a[i] + b[i]) * c[i];
    }
}
"#;
    const TGT: &str = r#"
__global__ void mulDist(int *d, int *a, int *b, int *c, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        d[i] = (a[i] | b[i]) * c[i] + (a[i] & b[i]) * c[i];
    }
}
"#;
    verify_inline_request(id, SRC, TGT, 1, 32, Some(timeout_ms))
}

/// A heavy job that stays in flight until cancelled: the generous rung
/// budget keeps every rung clear of its deadline.
fn heavy_request(id: &str) -> Json {
    mul_dist_request(id, 600_000)
}

fn connect(server: &ServerHandle) -> Client {
    let c = Client::connect(server.addr()).expect("client connects");
    c.set_recv_timeout(Some(Duration::from_secs(120))).unwrap();
    c
}

fn in_process_verdict(src_name: &str, tgt_name: &str) -> String {
    let (src, dims) = pug_serve::corpus::lookup(src_name).unwrap();
    let (tgt, _) = pug_serve::corpus::lookup(tgt_name).unwrap();
    let cfg = match dims {
        pug_serve::corpus::Dims::One => GpuConfig::symbolic_1d(8),
        pug_serve::corpus::Dims::Two => GpuConfig::symbolic_2d(8),
    };
    run_resilient(
        &KernelUnit::load(src).unwrap(),
        &KernelUnit::load(tgt).unwrap(),
        &cfg,
        &ServeConfig::default().runner_options(),
    )
    .verdict
    .to_string()
}

#[test]
fn ping_metrics_and_http_metrics() {
    let server = boot(&ServeConfig::default());
    let mut client = connect(&server);

    let pong = client.request(&Json::obj(vec![("op", "ping".into())])).unwrap();
    assert_eq!(pong.str_field("type"), Some("pong"));

    let metrics = client.request(&Json::obj(vec![("op", "metrics".into())])).unwrap();
    assert_eq!(metrics.str_field("type"), Some("metrics"));
    assert!(metrics.get("gauges").is_some());

    let page = http_metrics(server.addr()).unwrap();
    assert!(page.contains("serve.capacity"), "gauges should be on the page:\n{page}");

    let report = server.shutdown();
    assert!(report.clean);
}

#[test]
fn wire_verdicts_match_the_in_process_runner() {
    let server = boot(&ServeConfig::default());
    let mut client = connect(&server);

    // One equivalence, one real bug — both must agree byte-for-byte.
    for (id, src, tgt) in [
        ("eq", "vector_add/kernel", "vector_add/kernel"),
        ("bug", "vector_add/kernel", "vector_add/buggy"),
    ] {
        let resp =
            client.request(&verify_corpus_request(id, src, tgt, Some(8), None)).unwrap();
        assert_eq!(resp.str_field("type"), Some("verdict"), "got {}", resp.render());
        assert_eq!(resp.str_field("id"), Some(id));
        assert_eq!(
            resp.str_field("verdict").unwrap(),
            in_process_verdict(src, tgt),
            "service and in-process verdicts must be identical for {id}"
        );
        let rungs = resp.get("rungs").and_then(Json::as_arr).unwrap();
        assert!(!rungs.is_empty(), "provenance must carry at least one rung record");
    }
    assert!(server.shutdown().clean);
}

/// A rung deadline over the wire trips that rung only, never the job
/// token: the heavy pair under a 200 ms rung budget answers `verdict`, not
/// `aborted`, with a timed-out Param rung, far inside the job's hard
/// deadline of 4 × 200 ms + 5 s, and no job is counted as aborted for its
/// deadline.
#[test]
fn rung_deadline_over_the_wire_never_aborts_the_job() {
    let server = boot(&ServeConfig::default());
    let mut client = connect(&server);
    let t0 = Instant::now();
    let resp = client.request(&mul_dist_request("short", 200)).unwrap();
    let elapsed = t0.elapsed();
    assert_eq!(resp.str_field("type"), Some("verdict"), "got {}", resp.render());
    let rungs = resp.get("rungs").and_then(Json::as_arr).unwrap();
    let param = rungs.iter().find(|r| r.str_field("rung") == Some("Param")).unwrap();
    assert_eq!(param.str_field("outcome"), Some("timeout"), "got {}", resp.render());
    let hard_deadline = Duration::from_millis(4 * 200) + Duration::from_secs(5);
    assert!(elapsed < hard_deadline / 2, "job took {elapsed:?}");
    let page = http_metrics(server.addr()).unwrap();
    assert!(!page.contains("serve.jobs.aborted.deadline"), "a job was aborted:\n{page}");
    assert!(server.shutdown().clean);
}

/// Inline kernels nested about 10,000 levels deep, in the shapes of
/// `pug-cuda`'s nesting-limit tests, interleaved with corpus jobs on
/// several connections: every hostile job answers `error` with the nesting
/// diagnostic, every corpus job gets the in-process runner's verdict, and
/// the daemon still answers afterwards.
#[test]
fn hostile_cuda_mid_burst_answers_errors_and_daemon_keeps_serving() {
    const DEPTH: usize = 10_000;
    let wrap = |open: &str, inner: &str, close: &str| {
        format!("{}{inner}{}", open.repeat(DEPTH), close.repeat(DEPTH))
    };
    let assign = |e: String| format!("__global__ void k(int *a, int i) {{\n  a[i] = {e};\n}}");
    let body = |b: String| format!("__global__ void k(int *a, int i) {{\n  {b}\n}}");
    let hostile = [
        assign(wrap("(", "i", ")")),
        assign(wrap("-(", "i", ")")),
        assign(wrap("a[i] + (", "i", ")")),
        assign(wrap("a[", "i", "]")),
        body(wrap("if (i) { ", "a[i] = i;", " }")),
        body(wrap("{ ", "a[i] = i;", " }")),
        assign(format!("{}i", "- ".repeat(DEPTH))),
        assign(format!("{}a[i]", "a[i] + ".repeat(DEPTH))),
    ];
    let pairs = [
        ("vector_add/kernel", "vector_add/kernel"),
        ("vector_add/kernel", "vector_add/buggy"),
        ("transpose/naive", "transpose/buggy_addr"),
        ("reduction/v0", "reduction/buggy_index"),
    ];
    let expected: Vec<String> = pairs.iter().map(|(s, t)| in_process_verdict(s, t)).collect();

    let server = boot(&ServeConfig::default());
    let mut clients: Vec<Client> = (0..3).map(|_| connect(&server)).collect();
    let mut pending: Vec<HashMap<String, Option<usize>>> = vec![HashMap::new(); clients.len()];
    for (c, client) in clients.iter_mut().enumerate() {
        for i in 0..pairs.len() {
            let p = (c + i) % pairs.len();
            let id = format!("corpus-{c}-{i}");
            let (src, tgt) = pairs[p];
            client.send(&verify_corpus_request(&id, src, tgt, Some(8), None)).unwrap();
            pending[c].insert(id, Some(p));
            let h = &hostile[(c * pairs.len() + i) % hostile.len()];
            let id = format!("hostile-{c}-{i}");
            client.send(&verify_inline_request(&id, h, h, 1, 8, None)).unwrap();
            pending[c].insert(id, None);
        }
    }
    for (c, client) in clients.iter_mut().enumerate() {
        while !pending[c].is_empty() {
            let resp = client.recv().unwrap().expect("every job answers before close");
            let id = resp.str_field("id").unwrap_or_default().to_string();
            let job = pending[c].remove(&id).unwrap_or_else(|| panic!("stray {}", resp.render()));
            match job {
                Some(p) => {
                    assert_eq!(resp.str_field("type"), Some("verdict"), "got {}", resp.render());
                    assert_eq!(resp.str_field("verdict"), Some(expected[p].as_str()), "{id}");
                }
                None => {
                    assert_eq!(resp.str_field("type"), Some("error"), "got {}", resp.render());
                    let msg = resp.str_field("message").unwrap_or_default();
                    assert!(msg.ends_with("nesting deeper than 256 levels"), "{id}: {msg}");
                }
            }
        }
    }

    let pong = clients[0].request(&Json::obj(vec![("op", "ping".into())])).unwrap();
    assert_eq!(pong.str_field("type"), Some("pong"));
    assert!(server.shutdown().clean);
}

#[test]
fn explain_narrative_streams_on_request() {
    let server = boot(&ServeConfig::default());
    let mut client = connect(&server);
    let req = Json::obj(vec![
        ("op", "verify".into()),
        ("id", "explained".into()),
        ("src_kernel", "reduction/v0".into()),
        ("tgt_kernel", "reduction/buggy_guard".into()),
        ("explain", true.into()),
    ]);
    let resp = client.request(&req).unwrap();
    assert_eq!(resp.str_field("type"), Some("verdict"));
    let narrative = resp.str_field("explain").expect("explain requested, explain delivered");
    assert!(!narrative.is_empty());
    assert!(server.shutdown().clean);
}

#[test]
fn bad_requests_answer_errors_not_disconnects() {
    let server = boot(&ServeConfig::default());
    let mut client = connect(&server);
    for bad in [
        r#"{"op":"verify","id":"x","src_kernel":"no/such","tgt_kernel":"vector_add/kernel"}"#
            .to_string(),
        r#"{"op":"teleport"}"#.to_string(),
        "not json at all".to_string(),
        r#"{"op":"verify","src_kernel":"vector_add/kernel","tgt_kernel":"vector_add/kernel"}"#
            .to_string(), // missing id
        // 2^64 reads as u64::MAX, not as absent, and is no valid `dims`.
        r#"{"op":"verify","id":"big","src_kernel":"vector_add/kernel","tgt_kernel":"vector_add/kernel","dims":18446744073709551616}"#
            .to_string(),
    ] {
        let resp = client.request(&Json::parse(&bad).unwrap_or(Json::Str(bad))).unwrap();
        assert_eq!(resp.str_field("type"), Some("error"), "got {}", resp.render());
    }
    // The connection survived five errors.
    let pong = client.request(&Json::obj(vec![("op", "ping".into())])).unwrap();
    assert_eq!(pong.str_field("type"), Some("pong"));
    assert!(server.shutdown().clean);
}

/// A request nested far deeper than any real one answers `error` instead
/// of overflowing the connection thread's stack, which would abort the
/// whole daemon; other clients keep being served.
#[test]
fn deeply_nested_request_answers_error_and_daemon_survives() {
    let server = boot(&ServeConfig::default());
    let mut deep = TcpStream::connect(server.addr()).unwrap();
    deep.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let line = format!(r#"{{"op":"verify","id":"deep","src":{}}}"#, "[".repeat(10_000));
    deep.write_all(line.as_bytes()).unwrap();
    deep.write_all(b"\n").unwrap();
    let mut answer = String::new();
    BufReader::new(&deep).read_line(&mut answer).unwrap();
    let resp = Json::parse(answer.trim_end()).unwrap();
    assert_eq!(resp.str_field("type"), Some("error"), "got {answer}");

    let mut other = connect(&server);
    let pong = other.request(&Json::obj(vec![("op", "ping".into())])).unwrap();
    assert_eq!(pong.str_field("type"), Some("pong"));
    assert!(server.shutdown().clean);
}

/// Reading and parsing a line costs time linear in its length: a `verify`
/// line carrying a 1 MiB `src` string and a whitespace-only line just under
/// the 16 MiB line limit each get their `error` within 10 s, and the daemon
/// keeps serving other connections.
#[test]
fn long_lines_answer_errors_promptly_and_daemon_survives() {
    let server = boot(&ServeConfig::default());
    let long_src = Json::obj(vec![
        ("op", "verify".into()),
        ("id", "long".into()),
        ("src", "x".repeat(1 << 20).into()),
        ("tgt", "__global__ void k(){}".into()),
    ])
    .render();
    let blank = " ".repeat((16 << 20) - 16);
    for line in [long_src, blank] {
        let budget = Duration::from_secs(10);
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.set_write_timeout(Some(budget)).unwrap();
        conn.set_read_timeout(Some(budget)).unwrap();
        let t0 = Instant::now();
        conn.write_all(line.as_bytes()).unwrap();
        conn.write_all(b"\n").unwrap();
        let mut answer = String::new();
        BufReader::new(&conn).read_line(&mut answer).unwrap();
        let elapsed = t0.elapsed();
        let resp = Json::parse(answer.trim_end()).unwrap();
        assert_eq!(resp.str_field("type"), Some("error"), "got {answer}");
        assert!(elapsed < budget, "a {}-byte line was answered after {elapsed:?}", line.len());
    }

    let mut other = connect(&server);
    let pong = other.request(&Json::obj(vec![("op", "ping".into())])).unwrap();
    assert_eq!(pong.str_field("type"), Some("pong"));
    assert!(server.shutdown().clean);
}

/// A `shutdown` request whose `drain_ms` is `u64::MAX` is acked and
/// recorded, not silently dropped by an overflowing `ms + 1` encoding.
#[test]
fn shutdown_request_with_maximal_drain_is_recorded() {
    let server = boot(&ServeConfig::default());
    let mut client = connect(&server);
    let ack = client
        .request(&Json::obj(vec![("op", "shutdown".into()), ("drain_ms", u64::MAX.into())]))
        .unwrap();
    assert_eq!(ack.str_field("type"), Some("shutdown_ack"), "got {}", ack.render());
    assert!(server.shutdown_requested().is_some(), "the acked shutdown request was lost");
    assert!(server.shutdown().clean);
}

/// With a single admission slot held by a heavy job, the next submission
/// must be shed *immediately* with an explicit `overloaded` + retry hint —
/// and a vanished client must free its slot for others.
#[test]
fn overload_sheds_explicitly_and_disconnect_frees_the_slot() {
    let cfg = ServeConfig { capacity: 1, ..ServeConfig::default() };
    let server = boot(&cfg);

    // Connection A occupies the only slot with the heavy job.
    let mut heavy = connect(&server);
    heavy.send(&heavy_request("heavy")).unwrap();
    let t0 = Instant::now();
    while server.inflight() == 0 && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.inflight(), 1, "the heavy job must be admitted");

    // Connection B is shed, immediately and explicitly.
    let mut quick = connect(&server);
    let shed = quick
        .request(&verify_corpus_request("quick", "vector_add/kernel", "vector_add/kernel", Some(8), None))
        .unwrap();
    assert_eq!(shed.str_field("type"), Some("overloaded"), "got {}", shed.render());
    assert!(shed.u64_field("retry_after_ms").unwrap_or(0) > 0, "shed needs a retry hint");

    // A vanishes without reading: its job is cancelled, the slot frees.
    drop(heavy);
    let t1 = Instant::now();
    while server.inflight() > 0 && t1.elapsed() < Duration::from_secs(60) {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(server.inflight(), 0, "disconnect must cancel the heavy job and free its slot");

    // B retries and now completes.
    let resp = quick
        .request(&verify_corpus_request("quick", "vector_add/kernel", "vector_add/kernel", Some(8), None))
        .unwrap();
    assert_eq!(resp.str_field("type"), Some("verdict"), "got {}", resp.render());

    let metrics = server.metrics().snapshot();
    assert!(metrics.counters.get("serve.jobs.shed").copied().unwrap_or(0) >= 1);
    assert!(
        metrics.counters.get("serve.jobs.aborted.disconnect").copied().unwrap_or(0) >= 1,
        "the cancelled heavy job must be classified as a disconnect abort"
    );
    assert!(server.shutdown().clean);
}

/// Graceful shutdown with a live straggler: the drain deadline passes, the
/// root token cancels the job, and the daemon still exits clean — with the
/// straggler counted.
#[test]
fn shutdown_drains_and_cancels_stragglers_within_deadline() {
    let server = boot(&ServeConfig::default());
    let mut client = connect(&server);
    client.send(&heavy_request("straggler")).unwrap();
    let t0 = Instant::now();
    while server.inflight() == 0 && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.inflight(), 1);

    let t1 = Instant::now();
    let report = server.shutdown_with(Duration::from_millis(300));
    assert!(report.clean, "shutdown left work behind: {report:?}");
    assert_eq!(report.inflight_at_shutdown, 1);
    assert_eq!(report.stragglers_cancelled, 1, "the heavy job cannot finish in 300ms");
    assert!(
        t1.elapsed() < Duration::from_secs(30),
        "drain + cancellation grace blew way past the deadline: {:?}",
        t1.elapsed()
    );

    // The straggler's client still gets a terminal, provenance-carrying
    // answer (aborted), not silence.
    let resp = client.recv().unwrap().expect("straggler answered before close");
    assert_eq!(resp.str_field("type"), Some("aborted"), "got {}", resp.render());
    assert!(resp.str_field("reason").unwrap_or("").contains("shutdown"));
    assert!(resp.get("rungs").is_some(), "aborts carry partial provenance");
}

/// Regression: a client whose connection was still in the listen backlog
/// when shutdown began (handshake done, never `accept`ed) must get
/// explicit `shutting_down` answers — not a TCP reset that discards them.
#[test]
fn backlogged_connection_across_fast_drain_gets_explicit_answers() {
    let server = boot(&ServeConfig::default());
    let mut client = connect(&server);
    for j in 0..4 {
        client
            .send(&verify_corpus_request(
                &format!("s{j}"),
                "vector_add/kernel",
                "vector_add/kernel",
                Some(8),
                None,
            ))
            .unwrap();
    }
    // Shut down immediately: with high probability the accept loop has not
    // yet picked the connection out of the backlog.
    let report = server.shutdown_with(Duration::from_millis(50));
    assert!(report.clean);
    let mut answered = 0;
    loop {
        match client.recv() {
            Ok(Some(resp)) => {
                assert!(
                    matches!(resp.str_field("type"), Some("verdict" | "shutting_down")),
                    "got {}",
                    resp.render()
                );
                answered += 1;
                if answered == 4 {
                    break;
                }
            }
            Ok(None) => panic!("connection closed after only {answered} answers"),
            Err(e) => panic!("recv failed after {answered} answers: {e}"),
        }
    }
}

/// New work is refused while draining.
#[test]
fn draining_daemon_refuses_new_jobs_explicitly() {
    let server = boot(&ServeConfig::default());
    let mut client = connect(&server);
    client.send(&heavy_request("heavy")).unwrap();
    let t0 = Instant::now();
    while server.inflight() == 0 && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(10));
    }

    // Begin shutdown on a helper thread (it blocks while draining).
    let shutdown = std::thread::spawn(move || server.shutdown_with(Duration::from_millis(500)));
    std::thread::sleep(Duration::from_millis(100)); // let DRAINING latch

    let resp = client
        .request(&verify_corpus_request("late", "vector_add/kernel", "vector_add/kernel", Some(8), None))
        .unwrap();
    assert_eq!(resp.str_field("type"), Some("shutting_down"), "got {}", resp.render());

    let report = shutdown.join().unwrap();
    assert!(report.clean);
}
