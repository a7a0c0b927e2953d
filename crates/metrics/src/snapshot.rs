//! Point-in-time registry snapshots and their text renderings.

use crate::histogram::HistogramSummary;

/// The captured value of one metric.
///
/// The histogram variant is much larger than the scalar ones
/// (65 log₂ buckets), but snapshots are cold-path value types built
/// once per capture — indirection would cost more in ergonomics than
/// the padding costs in memory.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotValue {
    /// A counter's cumulative value.
    Counter(u64),
    /// A gauge's instantaneous value.
    Gauge(i64),
    /// A histogram's distribution summary.
    Histogram(HistogramSummary),
}

/// One named metric captured by [`Registry::snapshot`][crate::Registry::snapshot].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// Fully qualified metric name (including any prefixes).
    pub name: String,
    /// Captured value.
    pub value: SnapshotValue,
}

/// An ordered, owned capture of a registry's metrics.
///
/// Snapshots compose: [`prefixed`][Snapshot::prefixed] namespaces all
/// entries under a component id and [`merge`][Snapshot::merge] combines
/// captures from several components into one report.
///
/// ```
/// use nb_metrics::Registry;
///
/// let broker = Registry::new();
/// broker.counter("publish.accepted").add(3);
/// let engine = Registry::new();
/// engine.counter("pings.sent").add(9);
///
/// let report = broker
///     .snapshot()
///     .prefixed("broker-0")
///     .merge(engine.snapshot().prefixed("engine-0"));
/// assert_eq!(report.counter("broker-0.publish.accepted"), Some(3));
/// assert_eq!(report.counter("engine-0.pings.sent"), Some(9));
///
/// // Line-oriented dump: one `key value` pair per line.
/// let dump = report.to_dump();
/// assert!(dump.contains("broker-0.publish.accepted 3"));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    entries: Vec<SnapshotEntry>,
}

impl Snapshot {
    /// Builds a snapshot from explicit entries (sorted by name).
    ///
    /// Public so decoders can reconstruct a snapshot received off the
    /// wire (see `nb-obs`); registries use it internally.
    pub fn from_entries(mut entries: Vec<SnapshotEntry>) -> Self {
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot { entries }
    }

    /// All captured entries, sorted by name.
    pub fn entries(&self) -> &[SnapshotEntry] {
        &self.entries
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of captured entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns a copy with every metric name prefixed by `prefix` and
    /// a dot separator.
    #[must_use]
    pub fn prefixed(mut self, prefix: &str) -> Self {
        for e in &mut self.entries {
            e.name = format!("{prefix}.{}", e.name);
        }
        self
    }

    /// Combines two snapshots, re-sorting by name. Duplicate names are
    /// kept verbatim (callers namespace with [`prefixed`][Self::prefixed]).
    #[must_use]
    pub fn merge(mut self, other: Snapshot) -> Self {
        self.entries.extend(other.entries);
        self.entries.sort_by(|a, b| a.name.cmp(&b.name));
        self
    }

    /// Looks up a counter's value by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries.iter().find_map(|e| match &e.value {
            SnapshotValue::Counter(v) if e.name == name => Some(*v),
            _ => None,
        })
    }

    /// Looks up a gauge's value by exact name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.entries.iter().find_map(|e| match &e.value {
            SnapshotValue::Gauge(v) if e.name == name => Some(*v),
            _ => None,
        })
    }

    /// Looks up a histogram's summary by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.entries.iter().find_map(|e| match &e.value {
            SnapshotValue::Histogram(h) if e.name == name => Some(h),
            _ => None,
        })
    }

    /// Sums every counter whose name starts with `prefix`.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.name.starts_with(prefix))
            .filter_map(|e| match &e.value {
                SnapshotValue::Counter(v) => Some(*v),
                _ => None,
            })
            .sum()
    }

    /// The change between this (later) snapshot and an `earlier` one
    /// of the same source.
    ///
    /// Counters subtract (saturating, so a restarted source reports
    /// its full value instead of wrapping); gauges keep this snapshot's
    /// instantaneous reading (a gauge difference is rarely meaningful);
    /// histograms subtract bucket-wise via
    /// [`HistogramSummary::delta`]. Entries absent from `earlier` are
    /// taken verbatim; entries only in `earlier` (or whose kind
    /// changed) are dropped.
    ///
    /// Together with [`accumulate`][Self::accumulate] this round-trips
    /// exactly for counters and histogram buckets/count/sum:
    /// `earlier.accumulate(&later.delta(&earlier)) == later` in those
    /// fields.
    #[must_use]
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                let value = match &e.value {
                    SnapshotValue::Counter(v) => {
                        let prev = earlier.counter(&e.name).unwrap_or(0);
                        SnapshotValue::Counter(v.saturating_sub(prev))
                    }
                    SnapshotValue::Gauge(v) => SnapshotValue::Gauge(*v),
                    SnapshotValue::Histogram(h) => {
                        let prev = earlier.histogram(&e.name);
                        SnapshotValue::Histogram(match prev {
                            Some(p) => h.delta(p),
                            None => h.clone(),
                        })
                    }
                };
                SnapshotEntry {
                    name: e.name.clone(),
                    value,
                }
            })
            .collect();
        Snapshot::from_entries(entries)
    }

    /// Re-applies a [`delta`][Self::delta] on top of this snapshot.
    ///
    /// Counters add, gauges take the delta's (newer) reading,
    /// histograms add via [`HistogramSummary::accumulate`]; entries
    /// only present in the delta are inserted.
    #[must_use]
    pub fn accumulate(&self, delta: &Snapshot) -> Snapshot {
        let mut entries: Vec<SnapshotEntry> = self.entries.clone();
        for d in &delta.entries {
            match entries.iter_mut().find(|e| e.name == d.name) {
                Some(e) => {
                    e.value = match (&e.value, &d.value) {
                        (SnapshotValue::Counter(a), SnapshotValue::Counter(b)) => {
                            SnapshotValue::Counter(a.wrapping_add(*b))
                        }
                        (SnapshotValue::Histogram(a), SnapshotValue::Histogram(b)) => {
                            SnapshotValue::Histogram(a.accumulate(b))
                        }
                        // Gauges carry the newest reading; a kind
                        // clash resolves the same way (delta wins).
                        _ => d.value.clone(),
                    };
                }
                None => entries.push(d.clone()),
            }
        }
        Snapshot::from_entries(entries)
    }

    /// Per-second rate of the counter `name` over an observation
    /// `window`, for delta snapshots.
    ///
    /// Returns `None` when the counter is absent or the window is
    /// zero-length.
    pub fn rate(&self, name: &str, window: std::time::Duration) -> Option<f64> {
        let secs = window.as_secs_f64();
        if secs <= 0.0 {
            return None;
        }
        Some(self.counter(name)? as f64 / secs)
    }

    /// Renders an aligned, human-readable table.
    ///
    /// One row per metric: name, kind, then the value — counters and
    /// gauges print the number, histograms print
    /// `n=<count> sum=<sum> min=<min> p50=<..> p90=<..> p99=<..> max=<max>`.
    pub fn to_table(&self) -> String {
        let name_w = self
            .entries
            .iter()
            .map(|e| e.name.len())
            .chain(std::iter::once("metric".len()))
            .max()
            .unwrap_or(6);
        let mut out = String::new();
        out.push_str(&format!("{:<name_w$}  {:<9}  value\n", "metric", "kind"));
        out.push_str(&format!("{:-<name_w$}  {:-<9}  {:-<5}\n", "", "", ""));
        for e in &self.entries {
            let (kind, value) = match &e.value {
                SnapshotValue::Counter(v) => ("counter", v.to_string()),
                SnapshotValue::Gauge(v) => ("gauge", v.to_string()),
                SnapshotValue::Histogram(h) => (
                    "histogram",
                    format!(
                        "n={} sum={} min={} p50={} p90={} p99={} max={}",
                        h.count,
                        h.sum,
                        render_min(h),
                        h.quantile(0.5),
                        h.quantile(0.9),
                        h.quantile(0.99),
                        h.max
                    ),
                ),
            };
            out.push_str(&format!("{:<name_w$}  {kind:<9}  {value}\n", e.name));
        }
        out
    }

    /// Renders a machine-parsable `key value` dump, one pair per line.
    ///
    /// Histograms expand into `<name>.count`, `<name>.sum`,
    /// `<name>.min`, `<name>.p50`, `<name>.p90`, `<name>.p99` and
    /// `<name>.max` lines.
    pub fn to_dump(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            match &e.value {
                SnapshotValue::Counter(v) => out.push_str(&format!("{} {v}\n", e.name)),
                SnapshotValue::Gauge(v) => out.push_str(&format!("{} {v}\n", e.name)),
                SnapshotValue::Histogram(h) => {
                    out.push_str(&format!("{}.count {}\n", e.name, h.count));
                    out.push_str(&format!("{}.sum {}\n", e.name, h.sum));
                    out.push_str(&format!("{}.min {}\n", e.name, render_min(h)));
                    out.push_str(&format!("{}.p50 {}\n", e.name, h.quantile(0.5)));
                    out.push_str(&format!("{}.p90 {}\n", e.name, h.quantile(0.9)));
                    out.push_str(&format!("{}.p99 {}\n", e.name, h.quantile(0.99)));
                    out.push_str(&format!("{}.max {}\n", e.name, h.max));
                }
            }
        }
        out
    }
}

/// Displayable `min` of a histogram summary: an empty (or
/// sentinel-carrying) summary renders `0`, never `u64::MAX`.
fn render_min(h: &HistogramSummary) -> u64 {
    if h.count == 0 || h.min == u64::MAX {
        0
    } else {
        h.min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn prefix_and_merge_namespace_entries() {
        let a = Registry::new();
        a.counter("hits").inc();
        let b = Registry::new();
        b.gauge("depth").set(-2);

        let merged = a.snapshot().prefixed("a").merge(b.snapshot().prefixed("b"));
        assert_eq!(merged.counter("a.hits"), Some(1));
        assert_eq!(merged.gauge("b.depth"), Some(-2));
        assert_eq!(merged.len(), 2);
        assert!(!merged.is_empty());
    }

    #[test]
    fn counter_sum_over_prefix() {
        let r = Registry::new();
        r.counter("topic.load.n").add(2);
        r.counter("topic.avail.n").add(3);
        r.counter("other").add(100);
        let s = r.snapshot();
        assert_eq!(s.counter_sum("topic."), 5);
    }

    #[test]
    fn table_is_aligned_and_complete() {
        let r = Registry::new();
        r.counter("a.very.long.metric.name").add(1);
        r.gauge("g").set(5);
        r.histogram("h").record(7);
        let table = r.snapshot().to_table();
        let lines: Vec<&str> = table.lines().collect();
        // header + separator + 3 metrics
        assert_eq!(lines.len(), 5);
        assert!(table.contains("a.very.long.metric.name"));
        assert!(table.contains("histogram"));
        assert!(table.contains("n=1"));
    }

    #[test]
    fn dump_expands_histograms() {
        let r = Registry::new();
        r.histogram("lat").record(10);
        let dump = r.snapshot().to_dump();
        assert!(dump.contains("lat.count 1"));
        assert!(dump.contains("lat.sum 10"));
        assert!(dump.contains("lat.p50 10"));
        assert!(dump.contains("lat.max 10"));
    }

    #[test]
    fn empty_histogram_renders_sane() {
        // Regression: an empty histogram must never render its
        // internal u64::MAX min sentinel in either text form.
        let r = Registry::new();
        r.histogram("idle");
        let snap = r.snapshot();
        let dump = snap.to_dump();
        assert!(dump.contains("idle.count 0"));
        assert!(dump.contains("idle.min 0"));
        assert!(!dump.contains(&u64::MAX.to_string()));
        let table = snap.to_table();
        assert!(table.contains("n=0 sum=0 min=0"));
        assert!(!table.contains(&u64::MAX.to_string()));

        // Even a summary caught mid-first-record (count bumped, min
        // still the sentinel) renders min=0 and does not panic.
        let racy = Snapshot::from_entries(vec![SnapshotEntry {
            name: "racy".into(),
            value: SnapshotValue::Histogram(HistogramSummary {
                count: 1,
                sum: 7,
                min: u64::MAX,
                max: 7,
                ..HistogramSummary::empty()
            }),
        }]);
        assert!(racy.to_dump().contains("racy.min 0"));
        let _ = racy.to_table();
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_gauges() {
        let r = Registry::new();
        let c = r.counter("sent");
        let g = r.gauge("depth");
        c.add(5);
        g.set(2);
        let earlier = r.snapshot();
        c.add(3);
        g.set(9);
        let d = r.snapshot().delta(&earlier);
        assert_eq!(d.counter("sent"), Some(3));
        assert_eq!(d.gauge("depth"), Some(9));
    }

    #[test]
    fn delta_of_unchanged_histogram_is_empty_and_sane() {
        let r = Registry::new();
        r.histogram("lat").record(100);
        let earlier = r.snapshot();
        let d = r.snapshot().delta(&earlier);
        let h = d.histogram("lat").unwrap();
        assert_eq!(h.count, 0);
        assert_eq!((h.min, h.max, h.sum), (0, 0, 0));
        assert!(d.to_dump().contains("lat.min 0"));
    }

    #[test]
    fn delta_then_accumulate_round_trips() {
        let r = Registry::new();
        let c = r.counter("n");
        let h = r.histogram("lat");
        c.add(4);
        h.record(3);
        h.record(900);
        let earlier = r.snapshot();
        c.add(11);
        h.record(65_000);
        let later = r.snapshot();
        let rebuilt = earlier.accumulate(&later.delta(&earlier));
        assert_eq!(rebuilt.counter("n"), later.counter("n"));
        let (a, b) = (
            rebuilt.histogram("lat").unwrap(),
            later.histogram("lat").unwrap(),
        );
        assert_eq!(a.count, b.count);
        assert_eq!(a.sum, b.sum);
        assert_eq!(a.buckets, b.buckets);
    }

    #[test]
    fn delta_tolerates_new_and_vanished_entries() {
        let a = Registry::new();
        a.counter("old").add(2);
        let earlier = a.snapshot();
        let b = Registry::new();
        b.counter("new").add(7);
        let d = b.snapshot().delta(&earlier);
        assert_eq!(d.counter("new"), Some(7));
        assert_eq!(d.counter("old"), None);
    }

    #[test]
    fn rate_is_per_second() {
        use std::time::Duration;
        let r = Registry::new();
        r.counter("sent").add(500);
        let d = r.snapshot(); // pretend it is already a delta
        assert_eq!(d.rate("sent", Duration::from_secs(2)), Some(250.0));
        assert_eq!(d.rate("sent", Duration::ZERO), None);
        assert_eq!(d.rate("missing", Duration::from_secs(1)), None);
    }
}
