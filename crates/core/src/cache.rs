//! Cross-rung cache of discharged obligations: [`QueryCache`].

use pug_obs::MetricsRegistry;
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Default [`QueryCache`] capacity, in fingerprints. Generous on purpose:
/// a fingerprint is 16 bytes, so a full cache holds ~16 MiB of keys —
/// far beyond what any single run records — and the cap only exists so a
/// long-lived process (the `pug-serve` daemon) cannot grow without bound.
pub const DEFAULT_QUERY_CACHE_CAPACITY: usize = 1 << 20;

/// Default number of [`QueryCache`] shards (a power of two). Sixteen
/// shards keep the per-shard mutex essentially uncontended for the
/// concurrent jobs of the `pug-serve` daemon, whose pool workers share one
/// cache and are its only concurrent users, while the fixed overhead —
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
/// The rungs of the degradation ladder are *different encodings of the
/// same kernel pair*, and several of them (Param and FastBugHunt verbatim;
/// Param+C when nothing is concretized away) issue structurally identical
/// value queries. The cache keys on the canonical fingerprint of the fully
/// concretized assert set ([`pug_smt::assert_fingerprint`]), which is
/// context-independent — the deterministic encoders produce the same
/// variable names in every rung's private [`pug_smt::Ctx`], so equal
/// obligations collide across rungs.
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
/// (`(fp ^ (fp >> 64)) & mask`). Concurrent jobs (the daemon's pool
/// workers) therefore serialize only when two lookups land on the same
/// shard, not on one process-wide lock; the `contended` counter per shard
/// records how often a lock was actually busy (`try_lock` failed and the
/// caller had to wait). The shard capacities
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
