//! Named metric handles and the [`Registry`] that owns them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::Histogram;
use crate::snapshot::{Snapshot, SnapshotEntry, SnapshotValue};

/// A monotonically increasing event counter.
///
/// Cloning is cheap and every clone refers to the same underlying
/// atomic, so a handle can be registered once and cached on the hot
/// path.
///
/// ```
/// let r = nb_metrics::Registry::new();
/// let c = r.counter("requests");
/// c.inc();
/// c.add(4);
/// assert_eq!(c.get(), 5);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Creates a detached counter (not attached to any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depths, table sizes).
///
/// ```
/// let r = nb_metrics::Registry::new();
/// let g = r.gauge("depth");
/// g.set(7);
/// g.dec();
/// assert_eq!(g.get(), 6);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Creates a detached gauge (not attached to any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the current value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements by one.
    #[inline]
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of metrics.
///
/// Registration is get-or-create: asking twice for the same name
/// returns handles to the same metric. Asking for an existing name
/// with a different metric kind panics — names are a flat global
/// namespace per registry and a kind clash is a programming error.
///
/// The registry itself is `Clone + Send + Sync` (shared interior), so
/// a component can hand out its registry for snapshotting while its
/// workers keep cached handles.
#[derive(Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut map = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Returns the counter named `name`, creating it if absent.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} already registered as {}", other.kind()),
        }
    }

    /// Returns the gauge named `name`, creating it if absent.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} already registered as {}", other.kind()),
        }
    }

    /// Returns the histogram named `name`, creating it if absent.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} already registered as {}", other.kind()),
        }
    }

    /// Captures the current value of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let entries = map
            .iter()
            .map(|(name, metric)| SnapshotEntry {
                name: name.clone(),
                value: match metric {
                    Metric::Counter(c) => SnapshotValue::Counter(c.get()),
                    Metric::Gauge(g) => SnapshotValue::Gauge(g.get()),
                    Metric::Histogram(h) => SnapshotValue::Histogram(h.summary()),
                },
            })
            .collect();
        Snapshot::from_entries(entries)
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let map = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("Registry").field("len", &map.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_by_name() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(r.snapshot().counter("x"), Some(3));
    }

    #[test]
    fn gauge_set_inc_dec() {
        let r = Registry::new();
        let g = r.gauge("depth");
        g.set(10);
        g.inc();
        g.dec();
        g.dec();
        assert_eq!(g.get(), 9);
        assert_eq!(r.snapshot().gauge("depth"), Some(9));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_clash_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let r = Registry::new();
        r.counter("b");
        r.counter("a");
        let names: Vec<_> = r
            .snapshot()
            .entries()
            .iter()
            .map(|e| e.name.clone())
            .collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let r = Registry::new();
        let c = r.counter("n");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }
}
