//! Cross-rung cache of discharged obligations: [`QueryCache`].

use pug_obs::MetricsRegistry;
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Default [`QueryCache`] capacity, in fingerprints. Generous on purpose:
/// a fingerprint is 16 bytes, so a full cache holds ~16 MiB of keys —
/// far beyond what any single run records — and the cap only exists so a
/// long-lived process (the `pug-serve` daemon) cannot grow without bound.
pub const DEFAULT_QUERY_CACHE_CAPACITY: usize = 1 << 20;

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
/// One mutex guards the store and its counters. Its only concurrent users
/// are the daemon's pool workers, and each holds it for one hash-set
/// operation at a time.
#[derive(Clone)]
pub struct QueryCache {
    inner: Arc<Mutex<CacheInner>>,
}

struct CacheInner {
    set: HashSet<u128>,
    /// Insertion order of the fingerprints in `set`, for FIFO eviction.
    order: VecDeque<u128>,
    capacity: usize,
    hits: u64,
    misses: u64,
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

    /// A cache retaining at most `capacity` fingerprints (FIFO eviction).
    /// A capacity of zero stores nothing (every record is evicted on the
    /// spot) while still counting lookups.
    pub fn with_capacity(capacity: usize) -> QueryCache {
        QueryCache {
            inner: Arc::new(Mutex::new(CacheInner {
                set: HashSet::new(),
                order: VecDeque::new(),
                capacity,
                hits: 0,
                misses: 0,
                evictions: 0,
            })),
        }
    }

    /// Acquire the store, recovering the guard if a panicking holder
    /// poisoned it. The cache's invariants are re-established before any
    /// panic point inside the critical sections below, so the data is
    /// always structurally valid; mapping poisoning to a miss would
    /// silently disable caching forever after one crashed worker.
    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Is this fingerprint a known-unsat assert set? Counts a hit or miss.
    pub fn lookup_unsat(&self, fp: u128) -> bool {
        let mut inner = self.lock();
        let hit = inner.set.contains(&fp);
        if hit {
            inner.hits += 1;
        } else {
            inner.misses += 1;
        }
        hit
    }

    /// Record a proven-unsat assert set, evicting the oldest entries if
    /// the cache is at capacity.
    pub fn record_unsat(&self, fp: u128) {
        let mut inner = self.lock();
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

    /// Lookups answered from the cache.
    pub fn hits(&self) -> usize {
        self.lock().hits as usize
    }

    /// Lookups that had to be solved.
    pub fn misses(&self) -> usize {
        self.lock().misses as usize
    }

    /// Fingerprints evicted to stay within capacity.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// Distinct unsat fingerprints stored.
    pub fn len(&self) -> usize {
        self.lock().set.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All counters in one consistent snapshot.
    pub fn stats(&self) -> QueryCacheStats {
        let inner = self.lock();
        QueryCacheStats {
            entries: inner.set.len(),
            capacity: inner.capacity,
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
        }
    }

    /// Surface the cache counters as `cache.*` gauges in `metrics`
    /// (no-op on a disabled registry).
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
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_cache_evicts_fifo_at_capacity() {
        let cache = QueryCache::with_capacity(3);
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
    }

    #[test]
    fn query_cache_retains_exactly_its_capacity() {
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
        // Poison the mutex the way a panicking worker would: unwind while
        // holding the guard.
        let c2 = cache.clone();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let _ = std::thread::spawn(move || {
            let _guard = c2.lock();
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
    }
}
