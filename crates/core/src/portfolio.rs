//! Portfolio-parallel verification: racing the degradation ladder.
//!
//! The sequential ladder of [`crate::runner`] tries one encoding at a time,
//! so its wall-clock cost is the *sum* of every rung attempted before the
//! answering one — and most of that sum is deadline-bound waiting when an
//! upper rung times out. The paper's §III/§IV duality makes the rungs
//! complementary (the parameterized proof and the concrete-`n` bug hunt
//! have opposite best cases), which is exactly the profile portfolio
//! racing exploits: launch every rung concurrently, adopt the first
//! *conclusive* verdict by soundness priority, and cancel the losers.
//!
//! ## Determinism
//!
//! "First conclusive verdict wins" is arbitrated by *ladder priority*, not
//! arrival time: a weaker rung's answer is adopted only once every
//! stronger rung has resolved without answering (timeout, crash, error).
//! The winner is therefore the strongest answering rung — the same rung
//! the sequential ladder would have stopped at — so racing returns the
//! same verdict at the same soundness level, every run. Rungs *below* an
//! answering rung are cancelled immediately (their result can never take
//! priority); their partial cost is recorded as
//! [`RungOutcome::Abandoned`].
//!
//! ## Budget splitting
//!
//! Each rung runs under its own [`CancelToken::child`] of a per-task root
//! token and its own resource caps — the per-rung caps the sequential
//! ladder would grant, not a shared pool. Sharing one `ResourceBudget`
//! across concurrent rungs would double-count conflicts and term nodes
//! against the caps and, worse, let one rung's watchdog cancel its
//! siblings; the child-token tree keeps exhaustion strictly per-rung while
//! the task root remains a portfolio-wide kill switch.
//!
//! ## Batch mode
//!
//! [`verify_all`] schedules many verification tasks across one worker
//! pool: every (task, rung) pair becomes an independent pool job, so a
//! deadline-waiting rung of one kernel never blocks another kernel's
//! progress. Results come back in input order with full per-task
//! provenance — which rung answered and what the abandoned rungs cost.

use crate::kernel::KernelUnit;
use crate::runner::{
    adopt_verdict, build_ladder, dispatch_rung, run_aux_passes, rung_outcome_key, rung_timeout,
    run_rung, Provenance, ResilientReport, RungOutcome, RungRecord, RungResult, RunnerOptions,
};
use crate::equiv::{QueryStat, Report};
use crate::verdict::Verdict;
use pug_ir::GpuConfig;
use pug_obs::{MetricsRegistry, TraceSpan};
use pug_smt::CancelToken;
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default [`QueryCache`] capacity, in fingerprints. Generous on purpose:
/// a fingerprint is 16 bytes, so a full cache holds ~16 MiB of keys —
/// far beyond what any single run records — and the cap only exists so a
/// long-lived process (the `pug-serve` daemon) cannot grow without bound.
pub const DEFAULT_QUERY_CACHE_CAPACITY: usize = 1 << 20;

/// Default number of [`QueryCache`] shards (a power of two). Sixteen
/// shards keep the per-shard mutex essentially uncontended for the
/// concurrent jobs of the `pug-serve` daemon and the racing rungs of a
/// portfolio batch, which all share one cache, while the fixed overhead —
/// sixteen empty `HashSet`s — stays trivial.
pub const DEFAULT_QUERY_CACHE_SHARDS: usize = 16;

/// Acquire `m`, recovering the guard if a panicking holder poisoned it.
///
/// The cache's invariants are re-established before any panic point inside
/// the critical sections below, so the data is always structurally valid;
/// mapping poisoning to a miss (the old behavior) silently disabled
/// caching forever after one crashed worker.
fn recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Cross-rung cache of obligations already proven unsatisfiable.
///
/// Portfolio rungs race *different encodings of the same kernel pair*, and
/// several of them (Param and FastBugHunt verbatim; Param+C when nothing is
/// concretized away) issue structurally identical value queries. The cache
/// keys on the canonical fingerprint of the fully concretized assert set
/// ([`pug_smt::assert_fingerprint`]), which is context-independent — the
/// deterministic encoders produce the same variable names in every rung's
/// private [`pug_smt::Ctx`], so equal obligations collide across rungs.
///
/// Only **Unsat** ("obligation valid") verdicts are cached: a `Sat` answer
/// carries a model whose terms live in the answering rung's context, and
/// `Unknown` is budget-dependent. Unsat is also the common case — every
/// discharged proof obligation — and the one worth sharing.
///
/// The cache is **bounded**: at most `capacity` fingerprints are retained,
/// evicted FIFO (oldest insertion first) once full. The default capacity
/// ([`DEFAULT_QUERY_CACHE_CAPACITY`]) is far above any single run's
/// footprint, so batch/bench behavior is unchanged; the bound matters for
/// the long-lived `pug-serve` daemon, where one process-wide cache absorbs
/// every submitted kernel family indefinitely.
///
/// ## Sharding
///
/// The store is split into a power-of-two number of *shards*, each its own
/// `Mutex<CacheInner>` selected by folding the 128-bit fingerprint
/// (`(fp ^ (fp >> 64)) & mask`). Concurrent jobs (the daemon's workers,
/// a batch's racing rungs) therefore serialize only when two lookups land
/// on the same shard, not on one process-wide lock; the `contended`
/// counter per shard records how often a lock was actually busy
/// (`try_lock` failed and the caller had to wait). The shard capacities
/// sum to exactly `capacity`, so occupancy never exceeds it; eviction is
/// FIFO *per shard*, so the oldest entry overall is not always the one
/// evicted. Single-shard caches ([`QueryCache::with_shards`]`(cap, 1)`)
/// keep the exact global FIFO.
#[derive(Clone)]
pub struct QueryCache {
    shards: Arc<[CacheShard]>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: usize,
    /// The requested (global) retention bound, as reported by `stats()`.
    capacity: usize,
}

/// One lock's worth of [`QueryCache`]: a fingerprint set with FIFO
/// eviction order plus its own hit/miss/contention counters (atomics, so
/// the read path never takes a second lock to account for itself).
struct CacheShard {
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    contended: AtomicU64,
}

struct CacheInner {
    set: HashSet<u128>,
    /// Insertion order of the fingerprints in `set`, for FIFO eviction.
    order: VecDeque<u128>,
    capacity: usize,
    evictions: u64,
}

/// Point-in-time counters of a [`QueryCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryCacheStats {
    /// Distinct unsat fingerprints currently stored.
    pub entries: usize,
    /// Retention bound, in fingerprints.
    pub capacity: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to be solved.
    pub misses: u64,
    /// Fingerprints dropped to stay within `capacity`.
    pub evictions: u64,
    /// Number of shards the store is split across.
    pub shards: usize,
    /// Lookups/records that found their shard's lock busy and had to wait.
    pub contended: u64,
}

/// Per-shard counters of a [`QueryCache`] (see [`QueryCache::shard_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Distinct unsat fingerprints currently stored in this shard.
    pub entries: usize,
    /// Lookups answered from this shard.
    pub hits: u64,
    /// Lookups on this shard that had to be solved.
    pub misses: u64,
    /// Acquisitions that found this shard's lock busy.
    pub contended: u64,
}

impl Default for QueryCache {
    fn default() -> QueryCache {
        QueryCache::with_capacity(DEFAULT_QUERY_CACHE_CAPACITY)
    }
}

impl QueryCache {
    pub fn new() -> QueryCache {
        QueryCache::default()
    }

    /// A cache retaining at most `capacity` fingerprints (FIFO eviction),
    /// split across [`DEFAULT_QUERY_CACHE_SHARDS`] shards. A capacity of
    /// zero stores nothing (every record is evicted on the spot) while
    /// still counting lookups.
    pub fn with_capacity(capacity: usize) -> QueryCache {
        QueryCache::with_shards(capacity, DEFAULT_QUERY_CACHE_SHARDS)
    }

    /// A cache with an explicit shard count. `shards` is rounded up to
    /// the next power of two (minimum one). The shard capacities sum to
    /// exactly `capacity`: each shard gets `capacity / shards` slots and
    /// the first `capacity % shards` shards one more, so with fewer slots
    /// than shards some shards retain nothing.
    pub fn with_shards(capacity: usize, shards: usize) -> QueryCache {
        let n = shards.max(1).next_power_of_two();
        let shards: Vec<CacheShard> = (0..n)
            .map(|i| CacheShard {
                inner: Mutex::new(CacheInner {
                    set: HashSet::new(),
                    order: VecDeque::new(),
                    capacity: capacity / n + usize::from(i < capacity % n),
                    evictions: 0,
                }),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                contended: AtomicU64::new(0),
            })
            .collect();
        QueryCache { shards: shards.into(), mask: n - 1, capacity }
    }

    /// Shard index for a fingerprint: fold the two 64-bit halves together
    /// (the canonical hash mixes well in both) and mask.
    fn shard_index(&self, fp: u128) -> usize {
        ((fp ^ (fp >> 64)) as usize) & self.mask
    }

    /// Lock a shard's store, counting the acquisition as contended when
    /// the lock was busy on first try. Poisoned locks are recovered like
    /// [`recover`].
    fn lock_shard(shard: &CacheShard) -> MutexGuard<'_, CacheInner> {
        match shard.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                shard.contended.fetch_add(1, Ordering::Relaxed);
                recover(&shard.inner)
            }
        }
    }

    /// Is this fingerprint a known-unsat assert set? Counts a hit or miss.
    pub fn lookup_unsat(&self, fp: u128) -> bool {
        let shard = &self.shards[self.shard_index(fp)];
        let hit = Self::lock_shard(shard).set.contains(&fp);
        if hit {
            shard.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            shard.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Record a proven-unsat assert set, evicting the oldest entries of
    /// its shard if that shard is at capacity.
    pub fn record_unsat(&self, fp: u128) {
        let shard = &self.shards[self.shard_index(fp)];
        let mut inner = Self::lock_shard(shard);
        if inner.set.insert(fp) {
            inner.order.push_back(fp);
            while inner.order.len() > inner.capacity {
                if let Some(old) = inner.order.pop_front() {
                    inner.set.remove(&old);
                    inner.evictions += 1;
                }
            }
        }
    }

    /// Lookups answered from the cache (all shards).
    pub fn hits(&self) -> usize {
        self.shards.iter().map(|s| s.hits.load(Ordering::Relaxed)).sum::<u64>() as usize
    }

    /// Lookups that had to be solved (all shards).
    pub fn misses(&self) -> usize {
        self.shards.iter().map(|s| s.misses.load(Ordering::Relaxed)).sum::<u64>() as usize
    }

    /// Fingerprints evicted to stay within capacity (all shards).
    pub fn evictions(&self) -> u64 {
        self.shards.iter().map(|s| Self::lock_shard(s).evictions).sum()
    }

    /// Distinct unsat fingerprints stored (all shards).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock_shard(s).set.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All counters in one aggregate snapshot (shards are read one after
    /// another, so concurrent writers can skew totals by a few entries —
    /// the counters are monotonic, never inconsistent).
    pub fn stats(&self) -> QueryCacheStats {
        let mut s = QueryCacheStats {
            capacity: self.capacity,
            shards: self.shards.len(),
            ..QueryCacheStats::default()
        };
        for shard in self.shards.iter() {
            let inner = Self::lock_shard(shard);
            s.entries += inner.set.len();
            s.evictions += inner.evictions;
            drop(inner);
            s.hits += shard.hits.load(Ordering::Relaxed);
            s.misses += shard.misses.load(Ordering::Relaxed);
            s.contended += shard.contended.load(Ordering::Relaxed);
        }
        s
    }

    /// Per-shard counters, in shard-index order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|shard| ShardStats {
                entries: Self::lock_shard(shard).set.len(),
                hits: shard.hits.load(Ordering::Relaxed),
                misses: shard.misses.load(Ordering::Relaxed),
                contended: shard.contended.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Surface the cache counters as `cache.*` gauges in `metrics`
    /// (no-op on a disabled registry). Aggregates come first; per-shard
    /// contention counters are published as `cache.shard<i>.contended`
    /// (hits likewise) so a hot shard is visible in `/metrics` output.
    pub fn publish(&self, metrics: &MetricsRegistry) {
        if !metrics.is_enabled() {
            return;
        }
        let s = self.stats();
        metrics.set_gauge("cache.entries", s.entries as u64);
        metrics.set_gauge("cache.capacity", s.capacity as u64);
        metrics.set_gauge("cache.hits", s.hits);
        metrics.set_gauge("cache.misses", s.misses);
        metrics.set_gauge("cache.evictions", s.evictions);
        metrics.set_gauge("cache.shards", s.shards as u64);
        metrics.set_gauge("cache.contended", s.contended);
        for (i, sh) in self.shard_stats().iter().enumerate() {
            metrics.set_gauge(&format!("cache.shard{i}.hits"), sh.hits);
            metrics.set_gauge(&format!("cache.shard{i}.contended"), sh.contended);
        }
    }
}

impl fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        f.debug_struct("QueryCache")
            .field("entries", &s.entries)
            .field("capacity", &s.capacity)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .field("shards", &s.shards)
            .field("contended", &s.contended)
            .finish()
    }
}

/// A boxed unit of work for the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Hand-rolled fixed-size worker pool: `std::thread` workers pulling boxed
/// jobs from one shared channel. No external dependencies, no async
/// runtime — the jobs here are seconds-long solver calls, so scheduling
/// overhead is irrelevant next to isolation and determinism.
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `threads` workers (at least one).
    pub fn new(threads: usize) -> WorkerPool {
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("pug-portfolio-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only for the receive; the job runs
                        // unlocked so workers hand off the queue promptly.
                        // Poison recovery matters here: treating a poisoned
                        // queue mutex as fatal would silently retire every
                        // worker, and the next submit would kill the
                        // process instead of running the job.
                        let job = recover(&rx).recv();
                        match job {
                            // Belt and braces: rung jobs already catch
                            // checker panics, but a worker must survive
                            // anything so the pool never loses capacity.
                            Ok(job) => {
                                let _ = catch_unwind(AssertUnwindSafe(job));
                            }
                            Err(_) => break, // pool dropped: drain and exit
                        }
                    })
                    .expect("spawn portfolio worker")
            })
            .collect();
        WorkerPool { tx: Some(tx), workers }
    }

    /// Enqueue a job; workers pick jobs up in FIFO order.
    pub fn submit(&self, job: Job) {
        self.tx
            .as_ref()
            .expect("pool not shut down")
            .send(job)
            .expect("portfolio workers alive");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.tx.take(); // close the channel: workers drain and exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// One batch verification task: prove `src` ≡ `tgt` under `cfg`.
#[derive(Clone, Debug)]
pub struct VerifyTask {
    /// Label carried into logs and batch renderings.
    pub name: String,
    pub src: KernelUnit,
    pub tgt: KernelUnit,
    pub cfg: GpuConfig,
}

impl VerifyTask {
    pub fn new(name: &str, src: KernelUnit, tgt: KernelUnit, cfg: GpuConfig) -> VerifyTask {
        VerifyTask { name: name.to_string(), src, tgt, cfg }
    }
}

/// Portfolio policy: the ladder policy plus scheduling knobs.
#[derive(Clone, Debug, Default)]
pub struct PortfolioOptions {
    /// The ladder raced by every task (rungs, per-rung timeouts, caps).
    pub runner: RunnerOptions,
    /// Worker threads. `None` picks `max(ladder width, available cores)`:
    /// at least one thread per rung so deadline-bound rungs overlap their
    /// waiting instead of serializing it, even on a single core.
    pub threads: Option<usize>,
}

impl PortfolioOptions {
    pub fn with_runner(runner: RunnerOptions) -> PortfolioOptions {
        PortfolioOptions { runner, threads: None }
    }
}

/// What one rung job reports back to the arbiter.
struct RungMsg {
    task: usize,
    index: usize,
    result: RungResult,
    elapsed: Duration,
    stats: Vec<QueryStat>,
}

/// A resolved rung, parked until the task finalizes.
struct Slot {
    outcome: RungOutcome,
    report: Option<Report>,
    elapsed: Duration,
    stats: Vec<QueryStat>,
}

/// Per-task arbitration state.
struct TaskState {
    tokens: Vec<CancelToken>,
    slots: Vec<Option<Slot>>,
    /// Rungs the arbiter cancelled (as opposed to genuinely timing out).
    axed: Vec<bool>,
    /// Winning ladder index, once the frontier reaches an answered rung.
    winner: Option<usize>,
    /// Wall-clock from batch start to the verdict decision.
    decided_after: Option<Duration>,
}

impl TaskState {
    fn new(width: usize, root: &CancelToken) -> TaskState {
        TaskState {
            tokens: (0..width).map(|_| root.child()).collect(),
            slots: (0..width).map(|_| None).collect(),
            axed: vec![false; width],
            winner: None,
            decided_after: None,
        }
    }

    /// Cancel every undecided rung strictly below `index` in priority.
    fn axe_below(&mut self, index: usize) {
        for j in (index + 1)..self.tokens.len() {
            if self.slots[j].is_none() && !self.axed[j] {
                self.tokens[j].cancel();
                self.axed[j] = true;
            }
        }
    }

    /// Advance the priority frontier: the task is decided once the
    /// strongest unresolved-or-answered position holds an answer.
    fn arbitrate(&mut self, since_start: Duration) {
        if self.winner.is_some() {
            return;
        }
        for (i, slot) in self.slots.iter().enumerate() {
            match slot {
                None => return, // a stronger rung is still in flight
                Some(s) if matches!(s.outcome, RungOutcome::Answered) => {
                    self.winner = Some(i);
                    self.decided_after = Some(since_start);
                    self.axe_below(i);
                    return;
                }
                Some(_) => {} // resolved without answering: descend
            }
        }
    }
}

/// Race the degradation ladder for one kernel pair: all rungs launch
/// concurrently and the strongest answering rung's verdict is adopted (see
/// the module docs for the determinism argument). The returned provenance
/// records every rung — answered, timed out, crashed, or abandoned — with
/// its cost.
pub fn run_portfolio(
    src: &KernelUnit,
    tgt: &KernelUnit,
    cfg: &GpuConfig,
    opts: &PortfolioOptions,
) -> ResilientReport {
    let task = VerifyTask::new("race", src.clone(), tgt.clone(), cfg.clone());
    verify_all(std::slice::from_ref(&task), opts)
        .pop()
        .expect("one task in, one report out")
}

/// Verify a batch of kernel pairs across a private worker pool.
///
/// Every (task, rung) pair is an independent job, scheduled task-major so
/// earlier tasks' ladders fill the pool first. Results are returned in
/// input order regardless of completion order; each task's verdict is
/// arbitrated exactly as in [`run_portfolio`], so batch results equal the
/// sequential ladder's task by task.
pub fn verify_all(tasks: &[VerifyTask], opts: &PortfolioOptions) -> Vec<ResilientReport> {
    if tasks.is_empty() {
        return Vec::new();
    }
    let (ladder, _) = build_ladder(&opts.runner);
    let width = ladder.len();
    let threads = opts.threads.unwrap_or_else(|| {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        width.max(cores)
    });
    let pool = WorkerPool::new(threads.min(width * tasks.len()));
    verify_all_on(&pool, tasks, opts, &CancelToken::new())
}

/// [`verify_all`] on an **externally owned** worker pool, under an
/// **external cancellation parent**.
///
/// This is the service entry point: a long-running process (`pug-serve`)
/// keeps one warm pool for its whole lifetime and calls this from many
/// threads concurrently — `WorkerPool::submit` takes `&self`, so batches
/// interleave their (task, rung) jobs in FIFO submission order. Every
/// task's root token is a [`CancelToken::child`] of `parent`: cancelling
/// `parent` (client disconnect, daemon drain) aborts this batch's rungs
/// without touching other batches sharing the pool, while each rung still
/// gets its own grandchild token so sibling isolation inside the batch is
/// unchanged.
pub fn verify_all_on(
    pool: &WorkerPool,
    tasks: &[VerifyTask],
    opts: &PortfolioOptions,
    parent: &CancelToken,
) -> Vec<ResilientReport> {
    if tasks.is_empty() {
        return Vec::new();
    }
    let started = Instant::now();
    let (ladder, skipped) = build_ladder(&opts.runner);
    let width = ladder.len();
    let (tx, rx) = channel::<RungMsg>();

    // One query cache per batch: rungs racing the same task (and identical
    // tasks within the batch) share discharged obligations, so no obligation
    // is ever solved twice across the portfolio.
    let mut runner_opts = opts.runner.clone();
    if runner_opts.query_cache.is_none() {
        runner_opts.query_cache = Some(QueryCache::new());
    }

    let mut states: Vec<TaskState> = Vec::with_capacity(tasks.len());
    let mut verify_spans: Vec<TraceSpan> = Vec::with_capacity(tasks.len());
    for (t, task) in tasks.iter().enumerate() {
        let root = parent.child();
        let state = TaskState::new(width, &root);
        let shared = Arc::new(task.clone());
        // The task's verify span stays open until its report is assembled,
        // so every racing rung's span nests under a live parent.
        let vspan = if runner_opts.trace.is_enabled() {
            TraceSpan::root(runner_opts.trace.clone()).child_with(
                "verify",
                vec![
                    ("task", task.name.as_str().into()),
                    ("src", task.src.kernel.name.as_str().into()),
                    ("tgt", task.tgt.kernel.name.as_str().into()),
                ],
            )
        } else {
            TraceSpan::disabled()
        };
        for (i, &rung) in ladder.iter().enumerate() {
            let token = state.tokens[i].clone();
            let tx = tx.clone();
            let task = Arc::clone(&shared);
            let ropts = runner_opts.clone();
            let timeout = rung_timeout(&ropts, i);
            let vspan = vspan.clone();
            pool.submit(Box::new(move || {
                let (result, elapsed, stats) = if token.is_cancelled() {
                    // Axed while still queued: zero cost, never started.
                    (RungResult::Timeout, Duration::ZERO, Vec::new())
                } else {
                    let rung_span = if vspan.is_enabled() {
                        vspan.child(&format!("rung:{rung}"))
                    } else {
                        TraceSpan::disabled()
                    };
                    let r = run_rung(rung, timeout, token, rung_span.clone(), ropts.metrics.clone(), |check_opts| {
                        dispatch_rung(rung, &task.src, &task.tgt, &task.cfg, &ropts, check_opts)
                    });
                    if rung_span.is_enabled() {
                        // Raw fate at close time; the arbiter may later
                        // reclassify a cancelled timeout as "abandoned" in
                        // the provenance.
                        let outcome = match &r.0 {
                            RungResult::Verdict(_) => "answered",
                            RungResult::Timeout => "timeout",
                            RungResult::Crashed(_) => "crashed",
                            RungResult::Failed(_) => "failed",
                        };
                        rung_span.close_with(vec![
                            ("outcome", outcome.into()),
                            ("queries", r.2.len().into()),
                        ]);
                    }
                    r
                };
                // The arbiter outlives every job; a send can only fail if
                // the batch already panicked, in which case silence is fine.
                let _ = tx.send(RungMsg { task: t, index: i, result, elapsed, stats });
            }));
        }
        states.push(state);
        verify_spans.push(vspan);
    }
    drop(tx);

    // Arbiter: collect every rung's fate; decide each task at its frontier.
    let mut remaining = tasks.len() * width;
    while remaining > 0 {
        let msg = rx.recv().expect("rung job lost without reporting");
        remaining -= 1;
        let state = &mut states[msg.task];
        let (outcome, report) = match msg.result {
            RungResult::Verdict(r) => (RungOutcome::Answered, Some(r)),
            RungResult::Timeout => (RungOutcome::Timeout, None),
            RungResult::Crashed(m) => (RungOutcome::Crashed(m), None),
            RungResult::Failed(m) => (RungOutcome::Failed(m), None),
        };
        if matches!(outcome, RungOutcome::Answered) {
            // Whatever the frontier says, rungs weaker than an answered one
            // can never win: stop paying for them now.
            state.axe_below(msg.index);
        }
        state.slots[msg.index] =
            Some(Slot { outcome, report, elapsed: msg.elapsed, stats: msg.stats });
        state.arbitrate(started.elapsed());
    }

    // Assemble reports in input order.
    let reports: Vec<ResilientReport> = states
        .into_iter()
        .zip(tasks.iter())
        .zip(verify_spans)
        .map(|((mut state, task), vspan)| {
            if runner_opts.metrics.is_enabled() {
                for r in &skipped {
                    runner_opts.metrics.incr(rung_outcome_key(&r.outcome));
                }
            }
            let mut prov = Provenance { rungs: skipped.clone(), ..Provenance::default() };
            let mut verdict = Verdict::Timeout;
            if let Some(w) = state.winner {
                let rung = ladder[w];
                prov.answered_by = Some(rung);
                prov.soundness_note = rung.downgrade();
                let report = state.slots[w]
                    .as_mut()
                    .and_then(|s| s.report.take())
                    .expect("winner slot holds a report");
                verdict = adopt_verdict(report.verdict, rung);
            }
            for (i, slot) in state.slots.into_iter().enumerate() {
                let slot = slot.expect("all slots resolved");
                // A rung the arbiter cancelled that then yielded `Unknown`
                // did not time out on its own merits: it lost the race.
                let outcome = match slot.outcome {
                    RungOutcome::Timeout if state.axed[i] => RungOutcome::Abandoned,
                    o => o,
                };
                if runner_opts.metrics.is_enabled() {
                    runner_opts.metrics.incr(rung_outcome_key(&outcome));
                }
                prov.rungs.push(RungRecord {
                    rung: ladder[i],
                    outcome,
                    elapsed: slot.elapsed,
                    queries: slot.stats.len(),
                    stats: slot.stats,
                });
            }
            if runner_opts.aux_passes {
                prov.passes = run_aux_passes(&task.tgt, &task.cfg, &runner_opts, &vspan);
            }
            vspan.close_with(vec![("verdict", verdict.to_string().into())]);
            let elapsed = state.decided_after.unwrap_or_else(|| started.elapsed());
            ResilientReport { verdict, provenance: prov, elapsed }
        })
        .collect();
    if let Some(cache) = &runner_opts.query_cache {
        cache.publish(&runner_opts.metrics);
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Rung;
    use crate::verdict::Soundness;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_all_jobs_and_survives_panics() {
        let pool = WorkerPool::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        for i in 0..16 {
            let counter = Arc::clone(&counter);
            pool.submit(Box::new(move || {
                if i % 5 == 0 {
                    // Suppress the default hook's backtrace spam for the
                    // deliberate panics below.
                    let hook = std::panic::take_hook();
                    std::panic::set_hook(Box::new(|_| {}));
                    let result = catch_unwind(|| panic!("job {i} dies"));
                    std::panic::set_hook(hook);
                    assert!(result.is_err());
                }
                counter.fetch_add(1, Ordering::SeqCst);
            }));
        }
        drop(pool); // joins workers after the queue drains
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn racing_easy_pair_answers_param_and_abandons_losers() {
        let naive = KernelUnit::load(pug_kernels::transpose::NAIVE).unwrap();
        let report = run_portfolio(
            &naive,
            &naive,
            &GpuConfig::symbolic_2d(8),
            &PortfolioOptions::default(),
        );
        assert!(report.verdict.is_verified(), "{}", report.provenance.render());
        assert_eq!(report.provenance.answered_by, Some(Rung::Param));
        assert!(report.provenance.soundness_note.is_none());
        assert!(matches!(report.verdict, Verdict::Verified(Soundness::Sound)));
        // Weaker rungs either lost the race or answered first and were
        // outranked — none may have timed out on its own.
        for r in &report.provenance.rungs {
            assert!(
                !matches!(r.outcome, RungOutcome::Timeout),
                "rung {} reports a genuine timeout in a race with no deadline",
                r.rung
            );
        }
    }

    #[test]
    fn batch_results_come_back_in_input_order() {
        let naive = KernelUnit::load(pug_kernels::transpose::NAIVE).unwrap();
        let buggy = KernelUnit::load(pug_kernels::transpose::BUGGY_ADDR).unwrap();
        let cfg = GpuConfig::symbolic_2d(8);
        let tasks = vec![
            VerifyTask::new("self", naive.clone(), naive.clone(), cfg.clone()),
            VerifyTask::new("buggy", naive.clone(), buggy, cfg.clone()),
            VerifyTask::new("self2", naive.clone(), naive, cfg),
        ];
        let reports = verify_all(&tasks, &PortfolioOptions::default());
        assert_eq!(reports.len(), 3);
        assert!(reports[0].verdict.is_verified());
        assert!(reports[1].verdict.is_bug(), "{}", reports[1].provenance.render());
        assert!(reports[2].verdict.is_verified());
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(verify_all(&[], &PortfolioOptions::default()).is_empty());
    }

    #[test]
    fn query_cache_evicts_fifo_at_capacity() {
        // Single-shard: the only configuration with an exact global FIFO.
        let cache = QueryCache::with_shards(3, 1);
        for fp in 0..3u128 {
            cache.record_unsat(fp);
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 0);
        cache.record_unsat(3); // evicts 0
        cache.record_unsat(4); // evicts 1
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 2);
        assert!(!cache.lookup_unsat(0), "oldest entry must be gone");
        assert!(!cache.lookup_unsat(1));
        assert!(cache.lookup_unsat(2) && cache.lookup_unsat(3) && cache.lookup_unsat(4));
        // Re-recording a present fingerprint is a no-op, not an eviction.
        cache.record_unsat(4);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 2);
        let s = cache.stats();
        assert_eq!((s.entries, s.capacity, s.evictions), (3, 3, 2));
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 2);
        assert_eq!(s.shards, 1);
    }

    #[test]
    fn query_cache_shards_partition_and_aggregate() {
        let cache = QueryCache::with_capacity(64);
        let s = cache.stats();
        assert_eq!(s.shards, DEFAULT_QUERY_CACHE_SHARDS);
        // Fingerprints spanning every shard index land in distinct shards
        // and aggregate back to the global counts.
        for fp in 0..32u128 {
            cache.record_unsat(fp);
        }
        assert_eq!(cache.len(), 32);
        let per_shard = cache.shard_stats();
        assert_eq!(per_shard.len(), DEFAULT_QUERY_CACHE_SHARDS);
        assert_eq!(per_shard.iter().map(|s| s.entries).sum::<usize>(), 32);
        // fp and fp^(fp>>64) agree for small values: 0..16 covers each
        // shard exactly twice with 32 entries.
        assert!(per_shard.iter().all(|s| s.entries == 2));
        for fp in 0..32u128 {
            assert!(cache.lookup_unsat(fp));
        }
        assert!(!cache.lookup_unsat(999));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (32, 1));
    }

    #[test]
    fn query_cache_retains_exactly_its_capacity() {
        // Fewer slots than shards, a remainder, and an even split: the
        // shard capacities must always sum to the requested bound.
        for capacity in [3usize, 20, 100] {
            let cache = QueryCache::with_capacity(capacity);
            for fp in 0..1000u128 {
                cache.record_unsat(fp);
            }
            assert_eq!(cache.len(), capacity, "capacity {capacity}");
            assert_eq!(cache.evictions(), 1000 - capacity as u64);
            assert_eq!(cache.stats().capacity, capacity);
        }
    }

    #[test]
    fn query_cache_zero_capacity_stores_nothing() {
        let cache = QueryCache::with_capacity(0);
        cache.record_unsat(7);
        assert!(cache.is_empty());
        assert_eq!(cache.evictions(), 1);
        assert!(!cache.lookup_unsat(7));
    }

    #[test]
    fn query_cache_survives_poisoning() {
        let cache = QueryCache::with_capacity(8);
        cache.record_unsat(1);
        // Poison the shard mutex holding fingerprint 1 the way a panicking
        // worker would: unwind while holding the guard. Fingerprint 2 maps
        // to a different shard, so the recovery path is exercised on both
        // the poisoned shard (lookup of 1) and a healthy one (record of 2).
        let c2 = cache.clone();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let _ = std::thread::spawn(move || {
            let _guard = recover(&c2.shards[c2.shard_index(1)].inner);
            panic!("worker dies holding the cache lock");
        })
        .join();
        std::panic::set_hook(hook);
        // A poisoned lock must not silently degrade to a permanent miss.
        assert!(cache.lookup_unsat(1), "hit must survive lock poisoning");
        cache.record_unsat(2);
        assert!(cache.lookup_unsat(2), "recording must survive lock poisoning");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn query_cache_publishes_gauges() {
        let cache = QueryCache::with_capacity(4);
        cache.record_unsat(1);
        let _ = cache.lookup_unsat(1);
        let _ = cache.lookup_unsat(9);
        let metrics = pug_obs::MetricsRegistry::new();
        cache.publish(&metrics);
        let snap = metrics.snapshot();
        assert_eq!(snap.gauge("cache.entries"), Some(1));
        assert_eq!(snap.gauge("cache.capacity"), Some(4));
        assert_eq!(snap.gauge("cache.hits"), Some(1));
        assert_eq!(snap.gauge("cache.misses"), Some(1));
        assert_eq!(snap.gauge("cache.evictions"), Some(0));
        assert_eq!(snap.gauge("cache.shards"), Some(DEFAULT_QUERY_CACHE_SHARDS as u64));
        assert_eq!(snap.gauge("cache.contended"), Some(0));
        // Per-shard counters: fingerprint 1 lives in shard 1, 9 in shard 9.
        assert_eq!(snap.gauge("cache.shard1.hits"), Some(1));
        assert_eq!(snap.gauge("cache.shard9.contended"), Some(0));
    }

    #[test]
    fn verify_all_on_shares_an_external_pool_and_parent_token() {
        let naive = KernelUnit::load(pug_kernels::transpose::NAIVE).unwrap();
        let cfg = GpuConfig::symbolic_2d(8);
        let pool = WorkerPool::new(4);
        let parent = CancelToken::new();
        let tasks =
            vec![VerifyTask::new("self", naive.clone(), naive.clone(), cfg.clone())];
        let reports = verify_all_on(&pool, &tasks, &PortfolioOptions::default(), &parent);
        assert!(reports[0].verdict.is_verified());
        // A pre-cancelled parent aborts the whole batch: every rung is
        // cancelled before doing real work, so no rung answers.
        parent.cancel();
        let reports = verify_all_on(&pool, &tasks, &PortfolioOptions::default(), &parent);
        assert!(matches!(reports[0].verdict, Verdict::Timeout));
        assert!(reports[0].provenance.answered_by.is_none());
        // The pool is still healthy for subsequent batches.
        let reports =
            verify_all_on(&pool, &tasks, &PortfolioOptions::default(), &CancelToken::new());
        assert!(reports[0].verdict.is_verified());
    }
}
