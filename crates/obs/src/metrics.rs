//! A process-local metrics registry: named counters, gauges and
//! log-bucketed duration histograms behind one mutex.
//!
//! Mirrors the sink design in [`crate::trace`]: the registry is an
//! `Option<Arc<Mutex<..>>>`, so [`MetricsRegistry::disabled`] (the default)
//! costs one branch per call and allocates nothing. Names are plain
//! dotted strings (`queries.total`, `sat.conflicts`); snapshots come back
//! in `BTreeMap` order so rendered output is deterministic.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of histogram buckets: bucket `i` holds values `< 4^(i+1)` µs,
/// the last bucket is the overflow (≥ ~4.6 hours never happens in a rung).
pub const HIST_BUCKETS: usize = 14;

/// A log-4 bucketed histogram of microsecond values.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    pub count: u64,
    pub sum_us: u64,
    pub buckets: [u64; HIST_BUCKETS],
}

impl Histogram {
    fn record(&mut self, us: u64) {
        self.count += 1;
        self.sum_us += us;
        let mut idx = 0usize;
        let mut bound = 4u64;
        while idx + 1 < HIST_BUCKETS && us >= bound {
            idx += 1;
            bound = bound.saturating_mul(4);
        }
        self.buckets[idx] += 1;
    }

    /// Mean value in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Cheap-to-clone handle to a shared registry; all clones feed the same
/// maps. The default is [`MetricsRegistry::disabled`].
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => write!(f, "MetricsRegistry::disabled"),
            Some(_) => write!(f, "MetricsRegistry::recording"),
        }
    }
}

impl MetricsRegistry {
    /// A registry that records nothing; every method is a single branch.
    pub fn disabled() -> MetricsRegistry {
        MetricsRegistry { inner: None }
    }

    /// A live registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry { inner: Some(Arc::new(Mutex::new(Inner::default()))) }
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> Option<R> {
        let inner = self.inner.as_ref()?;
        let mut g = match inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        Some(f(&mut g))
    }

    /// Add `delta` to the counter `name`.
    pub fn add(&self, name: &str, delta: u64) {
        if delta > 0 {
            self.with(|i| *i.counters.entry(name.to_string()).or_insert(0) += delta);
        }
    }

    /// Increment the counter `name` by one.
    pub fn incr(&self, name: &str) {
        self.with(|i| *i.counters.entry(name.to_string()).or_insert(0) += 1);
    }

    /// Set the gauge `name` to `value` (last write wins).
    pub fn set_gauge(&self, name: &str, value: u64) {
        self.with(|i| {
            i.gauges.insert(name.to_string(), value);
        });
    }

    /// Record `us` microseconds into the histogram `name`.
    pub fn observe_micros(&self, name: &str, us: u64) {
        self.with(|i| i.histograms.entry(name.to_string()).or_default().record(us));
    }

    /// Record a duration into the histogram `name`.
    pub fn observe(&self, name: &str, d: Duration) {
        if self.is_enabled() {
            self.observe_micros(name, d.as_micros() as u64);
        }
    }

    /// Copy out the current state (empty when disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.with(|i| MetricsSnapshot {
            counters: i.counters.clone(),
            gauges: i.gauges.clone(),
            histograms: i.histograms.clone(),
        })
        .unwrap_or_default()
    }

    /// Render the current state as sorted `name value` lines.
    pub fn render(&self) -> String {
        self.snapshot().render()
    }
}

/// A point-in-time copy of a registry's state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Counter value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Histogram, if any value was observed.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Deterministic textual rendering (sorted by name within each kind).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter   {k} = {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "gauge     {k} = {v}");
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram {k} = count {} / sum {}us / mean {}us",
                h.count,
                h.sum_us,
                h.mean_us()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_empty_and_inert() {
        let m = MetricsRegistry::disabled();
        m.incr("a");
        m.add("a", 5);
        m.set_gauge("g", 7);
        m.observe_micros("h", 100);
        assert!(!m.is_enabled());
        let snap = m.snapshot();
        assert_eq!(snap, MetricsSnapshot::default());
        assert_eq!(snap.counter("a"), 0);
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let m = MetricsRegistry::new();
        m.incr("q.total");
        m.add("q.total", 2);
        m.add("q.total", 0); // no-op, must not create churn
        m.set_gauge("cnf_vars", 10);
        m.set_gauge("cnf_vars", 20);
        m.observe_micros("lat", 3); // bucket 0 (<4us)
        m.observe_micros("lat", 4); // bucket 1
        m.observe_micros("lat", 1_000_000); // ~4^10
        let snap = m.snapshot();
        assert_eq!(snap.counter("q.total"), 3);
        assert_eq!(snap.gauge("cnf_vars"), Some(20));
        let h = snap.histogram("lat").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum_us, 1_000_007);
        assert_eq!(h.buckets.iter().sum::<u64>(), 3);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
    }

    #[test]
    fn overflow_lands_in_last_bucket() {
        let m = MetricsRegistry::new();
        m.observe_micros("lat", u64::MAX);
        let snap = m.snapshot();
        assert_eq!(snap.histogram("lat").unwrap().buckets[HIST_BUCKETS - 1], 1);
    }

    #[test]
    fn render_is_sorted_and_stable() {
        let m = MetricsRegistry::new();
        m.incr("z.last");
        m.incr("a.first");
        m.set_gauge("mid", 1);
        m.observe(std::stringify!(lat), Duration::from_micros(10));
        let r1 = m.render();
        let r2 = m.render();
        assert_eq!(r1, r2);
        let a = r1.find("a.first").unwrap();
        let z = r1.find("z.last").unwrap();
        assert!(a < z);
    }

    #[test]
    fn clones_share_state_across_threads() {
        let m = MetricsRegistry::new();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    m.incr("shared");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.snapshot().counter("shared"), 4000);
    }
}
