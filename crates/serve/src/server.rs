//! The daemon: admission control, per-job fault isolation, graceful
//! shutdown, warm shared state.
//!
//! ## Fault boundaries, inside out
//!
//! 1. **Rung** — every ladder rung already runs under `catch_unwind` plus
//!    its own watchdog'd [`CancelToken`] (see `pugpara::runner::run_rung`);
//!    a panicking or hung encoding costs that rung only.
//! 2. **Job** — each admitted job gets a child token of the daemon root, a
//!    hard wall-clock deadline, and a `catch_unwind` around the whole job
//!    thread, so even a bug in the service layer poisons one job, never
//!    the daemon. The shared [`QueryCache`] recovers poisoned locks
//!    explicitly, so a crashed job cannot silently disable caching.
//! 3. **Connection** — a vanished client cancels exactly its own in-flight
//!    jobs (their tokens are tracked per connection); other connections and
//!    the pool never notice.
//! 4. **Process** — SIGTERM/ctrl-c (or the `shutdown` op) stops admission,
//!    drains in-flight jobs up to the drain deadline, then cancels
//!    stragglers via the root token; stragglers answer with
//!    provenance-carrying `aborted` responses.
//!
//! ## Admission control
//!
//! The job queue is bounded by a **process-wide [`ResourceBudget`]**: the
//! budget's memory caps divided by a per-job slice give the admission
//! capacity, and every admitted job runs under exactly that slice — so the
//! daemon's worst-case memory is the budget, not `jobs × slice`. When the
//! bound is reached the daemon sheds load *immediately* with an
//! `overloaded` + `retry_after_ms` response (derived from the observed job
//! latency) instead of queueing unboundedly.

use crate::corpus::{self, Dims};
use crate::json::Json;
use crate::protocol::{
    aborted_response, error_response, overloaded_response, parse_request, shutting_down_response,
    verdict_response, KernelSpec, Request, VerifyRequest,
};
use crate::wire::{write_line, write_raw, LineReader, SharedWriter};
use pug_ir::GpuConfig;
use pug_obs::MetricsRegistry;
use pug_smt::{CancelToken, ResourceBudget};
use pugpara::explain::{explain_with, ExplainOptions};
use pugpara::portfolio::{verify_all_on, PortfolioOptions, QueryCache, VerifyTask, WorkerPool};
use pugpara::runner::{panic_message, ResilientReport, RunnerOptions, Watchdog};
use pugpara::{KernelUnit, Verdict};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration. `Default` is tuned for a mid-size host; every
/// field can be overridden from the CLI.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads in the shared rung pool. `0` = `max(4, cores)`.
    pub workers: usize,
    /// Admission bound (running + admitted jobs). `0` = derive from
    /// `budget` (process caps ÷ per-job slice).
    pub capacity: usize,
    /// Process-wide resource budget. Its memory caps bound the *sum* of
    /// all concurrently admitted jobs; each job gets `caps / capacity`.
    pub budget: ResourceBudget,
    /// Per-job memory slice used to derive `capacity` when it is `0`.
    pub per_job_clause_bytes: usize,
    /// Per-job term-node slice used to derive `capacity` when it is `0`.
    pub per_job_term_nodes: usize,
    /// Default per-rung wall-clock budget (requests may override).
    pub rung_timeout: Duration,
    /// Graceful-shutdown drain deadline: in-flight jobs get this long to
    /// finish before the root token cancels them.
    pub drain: Duration,
    /// Process-wide [`QueryCache`] retention bound, in fingerprints.
    pub cache_capacity: usize,
    /// Retry hint handed to shed clients before any latency data exists.
    pub retry_after: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 0,
            capacity: 0,
            budget: ResourceBudget::unlimited()
                .and_clause_bytes(2 << 30)
                .and_term_nodes(256 << 20),
            per_job_clause_bytes: 64 << 20,
            per_job_term_nodes: 8 << 20,
            rung_timeout: Duration::from_secs(30),
            drain: Duration::from_secs(10),
            cache_capacity: pugpara::DEFAULT_QUERY_CACHE_CAPACITY,
            retry_after: Duration::from_millis(200),
        }
    }
}

/// Lifecycle states. Monotonic: `RUNNING → DRAINING → STOPPED`.
const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPED: u8 = 2;

/// Extra wall-clock granted after the drain deadline for *cancelled*
/// stragglers to unwind cooperatively (cancellation is observed at
/// propagation / bit-blast granularity, so this is generous).
const CANCEL_GRACE: Duration = Duration::from_secs(15);

/// Resolved admission/slice numbers derived from a [`ServeConfig`].
#[derive(Clone, Copy, Debug)]
struct Resolved {
    workers: usize,
    capacity: usize,
    job_clause_bytes: Option<usize>,
    job_term_nodes: Option<usize>,
    rung_timeout: Duration,
    drain: Duration,
    retry_after: Duration,
}

fn resolve(cfg: &ServeConfig) -> Resolved {
    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).max(4)
    } else {
        cfg.workers
    };
    let capacity = if cfg.capacity != 0 {
        cfg.capacity
    } else {
        // The admission bound is the process budget divided into per-job
        // slices: admitting more jobs than the budget holds slices would
        // let the aggregate footprint exceed the process-wide caps.
        let by_clauses = cfg
            .budget
            .max_clause_bytes
            .map(|total| (total / cfg.per_job_clause_bytes.max(1)).max(1));
        let by_nodes = cfg
            .budget
            .max_term_nodes
            .map(|total| (total / cfg.per_job_term_nodes.max(1)).max(1));
        match (by_clauses, by_nodes) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => workers * 4,
        }
    };
    // Every admitted job runs under an equal slice of the process caps.
    let job_clause_bytes = cfg.budget.max_clause_bytes.map(|total| (total / capacity).max(1));
    let job_term_nodes = cfg.budget.max_term_nodes.map(|total| (total / capacity).max(1));
    Resolved {
        workers,
        capacity,
        job_clause_bytes,
        job_term_nodes,
        rung_timeout: cfg.rung_timeout,
        drain: cfg.drain,
        retry_after: cfg.retry_after,
    }
}

/// State shared by the accept loop, connection threads and job threads.
struct Shared {
    cfg: Resolved,
    state: AtomicU8,
    /// Daemon-wide kill switch: every job token is a child of this.
    root: CancelToken,
    pool: WorkerPool,
    cache: QueryCache,
    metrics: MetricsRegistry,
    inflight: AtomicUsize,
    /// Drain deadline requested over the protocol (`ms + 1`; 0 = none).
    shutdown_req: AtomicU64,
    next_conn: AtomicU64,
}

impl Shared {
    fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }

    /// RAII admission permit; `None` = shed.
    fn try_admit(self: &Arc<Shared>) -> Option<Permit> {
        let mut cur = self.inflight.load(Ordering::Relaxed);
        loop {
            if cur >= self.cfg.capacity {
                self.metrics.incr("serve.jobs.shed");
                return None;
            }
            match self.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        self.metrics.incr("serve.jobs.admitted");
        self.metrics.set_gauge("serve.inflight", self.inflight.load(Ordering::Relaxed) as u64);
        Some(Permit(Arc::clone(self)))
    }

    /// Retry hint for shed clients: the observed mean job latency when we
    /// have one, clamped to something a client can reasonably sleep.
    fn retry_after_ms(&self) -> u64 {
        let configured = self.cfg.retry_after.as_millis() as u64;
        match self.metrics.snapshot().histogram("serve.job_us") {
            Some(h) if h.count > 0 => (h.mean_us() / 1000).clamp(configured.max(50), 5_000),
            _ => configured,
        }
    }

    fn publish_gauges(&self) {
        self.metrics.set_gauge("serve.inflight", self.inflight.load(Ordering::Relaxed) as u64);
        self.metrics.set_gauge("serve.capacity", self.cfg.capacity as u64);
        self.metrics.set_gauge("serve.workers", self.cfg.workers as u64);
        self.metrics.set_gauge("serve.state", self.state() as u64);
        self.cache.publish(&self.metrics);
    }
}

/// Decrements the in-flight count (and gauge) when the job ends, however
/// it ends — the permit rides inside the job thread.
struct Permit(Arc<Shared>);

impl Drop for Permit {
    fn drop(&mut self) {
        let now = self.0.inflight.fetch_sub(1, Ordering::AcqRel) - 1;
        self.0.metrics.set_gauge("serve.inflight", now as u64);
    }
}

/// Per-connection state: which jobs are in flight (for disconnect
/// cancellation) and whether the client is gone.
struct ConnState {
    gone: AtomicBool,
    jobs: Mutex<HashMap<u64, CancelToken>>,
    next_job: AtomicU64,
}

/// What graceful shutdown did, for logs and assertions.
#[derive(Clone, Copy, Debug)]
pub struct DrainReport {
    /// Jobs in flight when shutdown began.
    pub inflight_at_shutdown: usize,
    /// Jobs still running when the drain deadline passed (then cancelled).
    pub stragglers_cancelled: usize,
    /// Whether every job finished (or was cancelled and unwound) in time.
    pub clean: bool,
    /// Wall-clock from shutdown start to completion.
    pub elapsed: Duration,
}

/// A running daemon. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

/// Bind `addr` (e.g. `127.0.0.1:0`) and start accepting connections.
pub fn start(cfg: &ServeConfig, addr: &str) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let resolved = resolve(cfg);
    let shared = Arc::new(Shared {
        cfg: resolved,
        state: AtomicU8::new(RUNNING),
        root: CancelToken::new(),
        pool: WorkerPool::new(resolved.workers),
        cache: QueryCache::with_capacity(cfg.cache_capacity),
        metrics: MetricsRegistry::new(),
        inflight: AtomicUsize::new(0),
        shutdown_req: AtomicU64::new(0),
        next_conn: AtomicU64::new(0),
    });
    shared.publish_gauges();
    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("pug-serve-accept".into())
        .spawn(move || accept_loop(accept_shared, listener))?;
    Ok(ServerHandle { addr: local, shared, accept: Some(accept) })
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's live metrics registry (all clones share state).
    pub fn metrics(&self) -> MetricsRegistry {
        self.shared.metrics.clone()
    }

    /// The process-wide warm query cache.
    pub fn cache(&self) -> QueryCache {
        self.shared.cache.clone()
    }

    /// Jobs currently admitted (running or about to run).
    pub fn inflight(&self) -> usize {
        self.shared.inflight.load(Ordering::Relaxed)
    }

    /// Drain deadline requested via the wire `shutdown` op, if any.
    pub fn shutdown_requested(&self) -> Option<Duration> {
        match self.shared.shutdown_req.load(Ordering::Acquire) {
            0 => None,
            ms_plus_one => Some(Duration::from_millis(ms_plus_one - 1)),
        }
    }

    /// Gracefully stop with the configured drain deadline.
    pub fn shutdown(self) -> DrainReport {
        let drain = self.shared.cfg.drain;
        self.shutdown_with(drain)
    }

    /// Gracefully stop: refuse new work, drain in-flight jobs up to
    /// `drain`, cancel stragglers via the root token, then join every
    /// thread the daemon owns.
    pub fn shutdown_with(mut self, drain: Duration) -> DrainReport {
        let t0 = Instant::now();
        let shared = &self.shared;
        shared.state.store(DRAINING, Ordering::Release);
        shared.publish_gauges();
        let inflight_at_shutdown = shared.inflight.load(Ordering::Relaxed);

        // Phase 1: let in-flight jobs finish on their own merits.
        while shared.inflight.load(Ordering::Relaxed) > 0 && t0.elapsed() < drain {
            std::thread::sleep(Duration::from_millis(10));
        }
        let stragglers_cancelled = shared.inflight.load(Ordering::Relaxed);

        // Phase 2: past the deadline — trip the daemon root. Every job
        // token is a child, so all stragglers' rungs observe cancellation
        // and unwind; their clients receive `aborted` responses.
        if stragglers_cancelled > 0 {
            shared.root.cancel();
            let grace_end = t0.elapsed() + CANCEL_GRACE;
            while shared.inflight.load(Ordering::Relaxed) > 0 && t0.elapsed() < grace_end {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        let clean = shared.inflight.load(Ordering::Relaxed) == 0;

        shared.state.store(STOPPED, Ordering::Release);
        shared.publish_gauges();
        if let Some(h) = self.accept.take() {
            let _ = h.join(); // joins connection threads transitively
        }
        let report = DrainReport {
            inflight_at_shutdown,
            stragglers_cancelled,
            clean,
            elapsed: t0.elapsed(),
        };
        shared.metrics.observe("serve.drain_us", report.elapsed);
        report
    }
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    // Non-blocking accept so the loop can observe shutdown promptly.
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    // Keep accepting through DRAINING (not just RUNNING): a client whose
    // handshake completed in the listen backlog has already sent requests;
    // refusing to accept it would RST the socket on listener close and
    // silently discard them, when the contract is an *explicit*
    // `shutting_down` answer.
    while shared.state() != STOPPED {
        match listener.accept() {
            Ok((stream, _peer)) => spawn_conn(&shared, stream, &mut conns),
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock) => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    // Same reasoning at the very end: drain the backlog of connections
    // that arrived between the last poll and STOPPED, so each gets its
    // explicit refusal before the listener closes.
    while let Ok((stream, _peer)) = listener.accept() {
        spawn_conn(&shared, stream, &mut conns);
    }
    for h in conns {
        let _ = h.join();
    }
}

fn spawn_conn(shared: &Arc<Shared>, stream: TcpStream, conns: &mut Vec<JoinHandle<()>>) {
    let conn_shared = Arc::clone(shared);
    let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    match std::thread::Builder::new()
        .name(format!("pug-serve-conn-{conn_id}"))
        .spawn(move || handle_conn(conn_shared, stream))
    {
        Ok(h) => conns.push(h),
        Err(_) => { /* spawn failure: drop the connection */ }
    }
    conns.retain(|h| !h.is_finished());
}

fn handle_conn(shared: Arc<Shared>, stream: TcpStream) {
    shared.metrics.incr("serve.conns.opened");
    let _ = stream.set_nodelay(true);
    // Accepted sockets must be blocking-with-timeout: the reader polls the
    // daemon state between timeouts instead of parking forever.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let writer: SharedWriter = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => {
            shared.metrics.incr("serve.conns.closed");
            return;
        }
    };
    let conn = Arc::new(ConnState {
        gone: AtomicBool::new(false),
        jobs: Mutex::new(HashMap::new()),
        next_job: AtomicU64::new(0),
    });
    let mut reader = LineReader::new(stream);
    loop {
        match reader.next_line() {
            Ok(Some(line)) => {
                if line.starts_with("GET ") {
                    handle_http(&shared, &writer, &line);
                    break; // HTTP is one-shot: respond and close
                }
                if line.is_empty() {
                    continue;
                }
                dispatch(&shared, &conn, &writer, &line);
            }
            Ok(None) => break, // clean EOF
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                let state = shared.state();
                if state == STOPPED {
                    break;
                }
                let no_jobs =
                    conn.jobs.lock().unwrap_or_else(PoisonError::into_inner).is_empty();
                if state == DRAINING && no_jobs {
                    // Draining and nothing left to deliver to this client.
                    break;
                }
            }
            Err(_) => break, // connection reset / protocol violation
        }
    }
    // The client is gone (or the daemon stopped): cancel exactly this
    // connection's in-flight jobs. Their job threads observe the
    // cancellation, classify it, and unwind — other connections never
    // notice.
    conn.gone.store(true, Ordering::Release);
    let jobs = conn.jobs.lock().unwrap_or_else(PoisonError::into_inner);
    for token in jobs.values() {
        token.cancel();
    }
    drop(jobs);
    shared.metrics.incr("serve.conns.closed");
}

/// Minimal HTTP surface: `GET /metrics` renders the registry as text.
fn handle_http(shared: &Arc<Shared>, writer: &SharedWriter, request_line: &str) {
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, body) = if path == "/metrics" {
        shared.metrics.incr("serve.http.metrics");
        shared.publish_gauges();
        ("200 OK", shared.metrics.render())
    } else {
        ("404 Not Found", format!("no such path: {path}\n"))
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = write_raw(writer, &response);
}

fn dispatch(shared: &Arc<Shared>, conn: &Arc<ConnState>, writer: &SharedWriter, line: &str) {
    match parse_request(line) {
        Err(msg) => {
            shared.metrics.incr("serve.requests.bad");
            let _ = write_line(writer, &error_response("", &msg));
        }
        Ok(Request::Ping) => {
            let _ = write_line(writer, &Json::obj(vec![("type", "pong".into())]));
        }
        Ok(Request::Metrics) => {
            shared.publish_gauges();
            let _ = write_line(writer, &metrics_json(shared));
        }
        Ok(Request::Shutdown { drain_ms }) => {
            // Record the request; the handle owner (the daemon main loop)
            // performs the actual drain so shutdown has a single owner.
            let encoded = drain_ms.unwrap_or(shared.cfg.drain.as_millis() as u64) + 1;
            shared.shutdown_req.store(encoded, Ordering::Release);
            let _ = write_line(writer, &Json::obj(vec![("type", "shutdown_ack".into())]));
        }
        Ok(Request::Verify(req)) => submit_job(shared, conn, writer, *req),
    }
}

fn metrics_json(shared: &Arc<Shared>) -> Json {
    let snap = shared.metrics.snapshot();
    let counters =
        snap.counters.iter().map(|(k, v)| (k.clone(), Json::from(*v))).collect::<Vec<_>>();
    let gauges =
        snap.gauges.iter().map(|(k, v)| (k.clone(), Json::from(*v))).collect::<Vec<_>>();
    let histograms = snap
        .histograms
        .iter()
        .map(|(k, h)| {
            (
                k.clone(),
                Json::obj(vec![
                    ("count", h.count.into()),
                    ("sum_us", h.sum_us.into()),
                    ("mean_us", h.mean_us().into()),
                ]),
            )
        })
        .collect::<Vec<_>>();
    Json::obj(vec![
        ("type", "metrics".into()),
        ("counters", Json::Obj(counters)),
        ("gauges", Json::Obj(gauges)),
        ("histograms", Json::Obj(histograms)),
    ])
}

fn submit_job(
    shared: &Arc<Shared>,
    conn: &Arc<ConnState>,
    writer: &SharedWriter,
    req: VerifyRequest,
) {
    if shared.state() != RUNNING {
        shared.metrics.incr("serve.jobs.shed_draining");
        let _ = write_line(writer, &shutting_down_response(&req.id));
        return;
    }
    let Some(permit) = shared.try_admit() else {
        let _ = write_line(writer, &overloaded_response(&req.id, shared.retry_after_ms()));
        return;
    };
    let token = shared.root.child();
    let req_id = req.id.clone();
    let job_key = conn.next_job.fetch_add(1, Ordering::Relaxed);
    conn.jobs.lock().unwrap_or_else(PoisonError::into_inner).insert(job_key, token.clone());

    let job_shared = Arc::clone(shared);
    let job_conn = Arc::clone(conn);
    let job_writer = Arc::clone(writer);
    let spawned = std::thread::Builder::new().name("pug-serve-job".into()).spawn(move || {
        let id = req.id.clone();
        // Job-level fault boundary: a panic in the service layer itself
        // (kernel loading, response building) answers `error` and poisons
        // nothing shared.
        let response = match catch_unwind(AssertUnwindSafe(|| {
            run_job(&job_shared, &job_conn, &req, &token)
        })) {
            Ok(resp) => resp,
            Err(payload) => {
                job_shared.metrics.incr("serve.jobs.panicked");
                error_response(&id, &format!("internal panic: {}", panic_message(&*payload)))
            }
        };
        // A vanished client makes this write fail; that is fine — the job
        // is already accounted for and the permit releases below.
        let _ = write_line(&job_writer, &response);
        job_conn.jobs.lock().unwrap_or_else(PoisonError::into_inner).remove(&job_key);
        drop(permit);
    });
    if spawned.is_err() {
        // The closure (and its permit) was dropped by the failed spawn, so
        // the admission slot is already released.
        // Could not even spawn the job thread: undo the bookkeeping and
        // tell the client to retry.
        conn.jobs.lock().unwrap_or_else(PoisonError::into_inner).remove(&job_key);
        shared.metrics.incr("serve.jobs.spawn_failed");
        let _ = write_line(writer, &overloaded_response(&req_id, shared.retry_after_ms()));
    }
}

/// Resolve a kernel spec to a loaded unit plus its corpus dims hint.
fn load_spec(spec: &KernelSpec) -> Result<(KernelUnit, Option<Dims>), String> {
    match spec {
        KernelSpec::Corpus(name) => {
            let (src, dims) =
                corpus::lookup(name).ok_or_else(|| format!("unknown corpus kernel `{name}`"))?;
            let unit = KernelUnit::load(src)
                .map_err(|e| format!("corpus kernel `{name}` failed to load: {e}"))?;
            Ok((unit, Some(dims)))
        }
        KernelSpec::Inline(src) => {
            let unit = KernelUnit::load(src).map_err(|e| format!("kernel parse error: {e}"))?;
            Ok((unit, None))
        }
    }
}

/// Run one admitted job to a terminal response. Called inside the job
/// thread's `catch_unwind`.
fn run_job(
    shared: &Arc<Shared>,
    conn: &Arc<ConnState>,
    req: &VerifyRequest,
    token: &CancelToken,
) -> Json {
    let t0 = Instant::now();
    let (src, src_dims) = match load_spec(&req.src) {
        Ok(v) => v,
        Err(msg) => {
            shared.metrics.incr("serve.jobs.errors");
            return error_response(&req.id, &msg);
        }
    };
    let (tgt, tgt_dims) = match load_spec(&req.tgt) {
        Ok(v) => v,
        Err(msg) => {
            shared.metrics.incr("serve.jobs.errors");
            return error_response(&req.id, &msg);
        }
    };
    let dims = match req.dims {
        Some(1) => Dims::One,
        Some(2) => Dims::Two,
        Some(other) => {
            shared.metrics.incr("serve.jobs.errors");
            return error_response(&req.id, &format!("dims must be 1 or 2, got {other}"));
        }
        None => src_dims.or(tgt_dims).unwrap_or(Dims::One),
    };
    let width = req.width.unwrap_or(8).clamp(1, 64) as u32;
    let cfg = match dims {
        Dims::One => GpuConfig::symbolic_1d(width),
        Dims::Two => GpuConfig::symbolic_2d(width),
    };
    let rung_timeout =
        req.timeout_ms.map(Duration::from_millis).unwrap_or(shared.cfg.rung_timeout);
    let opts = PortfolioOptions {
        runner: RunnerOptions {
            rung_timeout: Some(rung_timeout),
            max_clause_bytes: shared.cfg.job_clause_bytes,
            max_term_nodes: shared.cfg.job_term_nodes,
            query_cache: Some(shared.cache.clone()),
            metrics: shared.metrics.clone(),
            ..RunnerOptions::default()
        },
        threads: None,
    };
    // Hard job deadline: the racing ladder is three rungs wide under the
    // default policy, so even fully serialized on a saturated pool the job
    // should resolve within a few rung budgets; beyond that something is
    // wedged and the job token trips.
    let hard_deadline = rung_timeout.saturating_mul(4) + Duration::from_secs(5);
    let _watchdog = Watchdog::arm(token.clone(), hard_deadline);

    let task = VerifyTask::new(&req.id, src, tgt, cfg);
    let report: ResilientReport =
        verify_all_on(&shared.pool, std::slice::from_ref(&task), &opts, token)
            .pop()
            .expect("one task in, one report out");
    shared.metrics.observe("serve.job_us", t0.elapsed());

    // Classify a cancelled job: an externally tripped token turned the
    // verdict into `Timeout`; report it as an explicit abort with the
    // partial provenance instead of a look-alike solver timeout.
    if matches!(report.verdict, Verdict::Timeout) && token.is_cancelled() {
        let reason = if shared.state() != RUNNING {
            shared.metrics.incr("serve.jobs.aborted.shutdown");
            "daemon shutdown: drain deadline exceeded"
        } else if conn.gone.load(Ordering::Acquire) {
            shared.metrics.incr("serve.jobs.aborted.disconnect");
            "client disconnected"
        } else {
            shared.metrics.incr("serve.jobs.aborted.deadline");
            "job deadline exceeded"
        };
        return aborted_response(&req.id, reason, &report.provenance);
    }

    shared.metrics.incr("serve.jobs.completed");
    let explain = req.explain.then(|| explain_with(&report, &ExplainOptions::stable()));
    verdict_response(&req.id, &report, explain)
}
