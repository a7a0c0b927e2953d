//! [`ClusterAggregator`]: rebuilds the cluster-wide metrics view from
//! telemetry frames received anywhere in the mesh.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use nb_crypto::RsaPublicKey;
use nb_metrics::{Counter, Gauge, Registry, Snapshot, SnapshotEntry, SnapshotValue};
use nb_wire::{Message, Payload};
use parking_lot::{Mutex, RwLock};

use crate::frame::{NodeKind, TelemetryFrame};
use crate::telemetry_topic;

/// Cumulative samples kept per node: the time-series depth windowed
/// rates are computed over.
const RING_CAPACITY: usize = 128;
/// Heartbeat intervals of silence before a node is `Degraded`.
const DEGRADED_AFTER: u64 = 3;
/// Heartbeat intervals of silence before a node is `Down`.
const DOWN_AFTER: u64 = 6;

/// Health of one reporting node, judged by heartbeat staleness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Heartbeats arriving on schedule.
    Up,
    /// Missed a few intervals (3 or more intervals silent).
    Degraded,
    /// Considered gone (6 or more intervals silent).
    Down,
}

impl HealthState {
    /// Lower-case label used in exposition output.
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Up => "up",
            HealthState::Degraded => "degraded",
            HealthState::Down => "down",
        }
    }
}

/// One row of the health scoreboard.
#[derive(Debug, Clone)]
pub struct NodeHealth {
    /// Node identifier.
    pub node: String,
    /// Node role.
    pub kind: NodeKind,
    /// Staleness judgement at the evaluation instant.
    pub state: HealthState,
    /// Highest heartbeat sequence number seen.
    pub seq: u64,
    /// Publisher-stamped clock of the freshest frame.
    pub last_heard_ms: u64,
    /// Completed Up → (Degraded|Down) → Up cycles.
    pub flaps: u64,
    /// Frames accepted from this node.
    pub frames: u64,
}

/// A windowed difference of one node's time series.
#[derive(Debug, Clone)]
pub struct WindowDelta {
    /// Counter/histogram changes over the window (gauges carry the
    /// newest reading).
    pub delta: Snapshot,
    /// Actual time spanned by the two samples the delta was taken
    /// between (≤ the requested window when the ring is short).
    pub span: Duration,
}

impl WindowDelta {
    /// Per-second rate of a counter over this window.
    pub fn rate(&self, name: &str) -> Option<f64> {
        self.delta.rate(name, self.span)
    }
}

struct NodeSeries {
    kind: NodeKind,
    last_seq: u64,
    interval_ms: u64,
    last_heard_ms: u64,
    frames: u64,
    flaps: u64,
    state: HealthState,
    /// Latest cumulative value per entry name (sparse frames overlay
    /// onto this; keyframes replace it).
    total: Snapshot,
    /// (publisher clock, cumulative snapshot) ring, newest at back.
    ring: VecDeque<(u64, Snapshot)>,
}

struct AggMetrics {
    registry: Registry,
    accepted: Counter,
    rejected: Counter,
    duplicate: Counter,
    gaps: Counter,
    flaps: Counter,
    nodes: Gauge,
}

impl AggMetrics {
    fn new() -> Self {
        let registry = Registry::new();
        AggMetrics {
            accepted: registry.counter("obs.frames.accepted"),
            rejected: registry.counter("obs.frames.rejected"),
            duplicate: registry.counter("obs.frames.duplicate"),
            gaps: registry.counter("obs.frames.gap"),
            flaps: registry.counter("obs.node.flap"),
            nodes: registry.gauge("obs.nodes"),
            registry,
        }
    }
}

struct Inner {
    trusted_key: RwLock<Option<RsaPublicKey>>,
    nodes: Mutex<BTreeMap<String, NodeSeries>>,
    metrics: AggMetrics,
}

/// Maintains per-node time series, cluster rollups and the health
/// scoreboard from a stream of telemetry messages.
///
/// Feed it with [`ingest`][Self::ingest] from wherever the frames
/// arrive — an internal broker subscription, an operator client, a
/// test. Clones share state, so one aggregator can be filled by a
/// drain thread and read by a renderer.
#[derive(Clone)]
pub struct ClusterAggregator {
    inner: Arc<Inner>,
}

impl Default for ClusterAggregator {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterAggregator {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        ClusterAggregator {
            inner: Arc::new(Inner {
                trusted_key: RwLock::new(None),
                nodes: Mutex::new(BTreeMap::new()),
                metrics: AggMetrics::new(),
            }),
        }
    }

    /// Requires every subsequent frame to carry a valid signature by
    /// `key` (the telemetry plane's credential). Unsigned or
    /// mis-signed frames are rejected and counted in
    /// `obs.frames.rejected`.
    pub fn require_signatures(&self, key: RsaPublicKey) {
        *self.inner.trusted_key.write() = Some(key);
    }

    /// Ingests one message from the telemetry topic. Returns `true`
    /// when the frame was accepted into the view; `false` for
    /// off-topic messages, undecodable/tampered frames and
    /// duplicates.
    pub fn ingest(&self, msg: &Message) -> bool {
        let inner = &*self.inner;
        if msg.topic != telemetry_topic() {
            return false;
        }
        if let Some(key) = &*inner.trusted_key.read() {
            if msg.verify_signature(key).is_err() {
                inner.metrics.rejected.inc();
                return false;
            }
        }
        let Payload::Blob { data } = &msg.payload else {
            inner.metrics.rejected.inc();
            return false;
        };
        let frame = match TelemetryFrame::from_bytes(data) {
            Ok(frame) => frame,
            Err(_) => {
                inner.metrics.rejected.inc();
                return false;
            }
        };
        self.ingest_frame(frame)
    }

    /// Ingests an already-decoded frame (the `ingest` tail; public for
    /// tests and in-process pipelines).
    pub fn ingest_frame(&self, frame: TelemetryFrame) -> bool {
        let inner = &*self.inner;
        let mut nodes = inner.nodes.lock();
        let series = nodes
            .entry(frame.node.clone())
            .or_insert_with(|| NodeSeries {
                kind: frame.kind,
                last_seq: 0,
                interval_ms: frame.interval_ms.max(1),
                last_heard_ms: 0,
                frames: 0,
                flaps: 0,
                state: HealthState::Up,
                total: Snapshot::default(),
                ring: VecDeque::new(),
            });
        if series.frames > 0 && frame.seq <= series.last_seq {
            inner.metrics.duplicate.inc();
            return false;
        }
        if series.frames > 0 && frame.seq > series.last_seq + 1 {
            inner.metrics.gaps.add(frame.seq - series.last_seq - 1);
        }
        if series.state != HealthState::Up {
            // The node had been judged Degraded/Down and is heard
            // again: one completed flap cycle.
            series.flaps += 1;
            inner.metrics.flaps.inc();
            series.state = HealthState::Up;
        }
        series.kind = frame.kind;
        series.last_seq = frame.seq;
        series.interval_ms = frame.interval_ms.max(1);
        series.last_heard_ms = series.last_heard_ms.max(frame.clock_ms);
        series.frames += 1;
        series.total = if frame.full {
            frame.snapshot
        } else {
            overlay(&series.total, &frame.snapshot)
        };
        series
            .ring
            .push_back((frame.clock_ms, series.total.clone()));
        while series.ring.len() > RING_CAPACITY {
            series.ring.pop_front();
        }
        inner.metrics.nodes.set(nodes.len() as i64);
        inner.metrics.accepted.inc();
        true
    }

    /// Ids of every node heard from, sorted.
    pub fn nodes(&self) -> Vec<String> {
        self.inner.nodes.lock().keys().cloned().collect()
    }

    /// Latest cumulative snapshot reconstructed for `node`.
    pub fn node_total(&self, node: &str) -> Option<Snapshot> {
        self.inner.nodes.lock().get(node).map(|s| s.total.clone())
    }

    /// Every node's cumulative snapshot, each prefixed by its node id
    /// — the distributed equivalent of a merged in-process
    /// `metrics_snapshot()`.
    pub fn per_node(&self) -> Snapshot {
        let nodes = self.inner.nodes.lock();
        let mut merged = Snapshot::default();
        for (id, series) in nodes.iter() {
            merged = merged.merge(series.total.clone().prefixed(id));
        }
        merged
    }

    /// Cluster rollup: entries summed across nodes per metric name
    /// (counters and gauges add, histograms merge bucket-wise).
    pub fn rollup(&self) -> Snapshot {
        let nodes = self.inner.nodes.lock();
        let mut acc: BTreeMap<String, SnapshotValue> = BTreeMap::new();
        for series in nodes.values() {
            for e in series.total.entries() {
                match acc.get_mut(&e.name) {
                    None => {
                        acc.insert(e.name.clone(), e.value.clone());
                    }
                    Some(existing) => {
                        *existing = match (&*existing, &e.value) {
                            (SnapshotValue::Counter(a), SnapshotValue::Counter(b)) => {
                                SnapshotValue::Counter(a.wrapping_add(*b))
                            }
                            (SnapshotValue::Gauge(a), SnapshotValue::Gauge(b)) => {
                                SnapshotValue::Gauge(a.wrapping_add(*b))
                            }
                            (SnapshotValue::Histogram(a), SnapshotValue::Histogram(b)) => {
                                SnapshotValue::Histogram(a.accumulate(b))
                            }
                            // Kind clash across nodes: keep the first.
                            (kept, _) => kept.clone(),
                        };
                    }
                }
            }
        }
        Snapshot::from_entries(
            acc.into_iter()
                .map(|(name, value)| SnapshotEntry { name, value })
                .collect(),
        )
    }

    /// The change in `node`'s series over (up to) `window`, ending at
    /// its freshest sample. `None` until two samples exist.
    pub fn window_delta(&self, node: &str, window: Duration) -> Option<WindowDelta> {
        let nodes = self.inner.nodes.lock();
        let series = nodes.get(node)?;
        let (newest_t, newest) = series.ring.back()?;
        let cutoff = newest_t.saturating_sub(window.as_millis() as u64);
        // Oldest retained sample at/after the cutoff, so the delta
        // spans at most the requested window.
        let (base_t, base) = series
            .ring
            .iter()
            .take(series.ring.len() - 1)
            .find(|(t, _)| *t >= cutoff)?;
        Some(WindowDelta {
            delta: newest.delta(base),
            span: Duration::from_millis((newest_t - base_t).max(1)),
        })
    }

    /// Evaluates the scoreboard at `now_ms` (same clock domain the
    /// publishers stamp frames with). Nodes silent for 3 or 6
    /// intervals or more are marked degraded or down; a completed
    /// departure-and-return is counted in `obs.node.flap` when the node
    /// is next heard.
    pub fn health_report(&self, now_ms: u64) -> Vec<NodeHealth> {
        let inner = &*self.inner;
        let mut nodes = inner.nodes.lock();
        nodes
            .iter_mut()
            .map(|(id, series)| {
                let silent_ms = now_ms.saturating_sub(series.last_heard_ms);
                let silent_intervals = silent_ms / series.interval_ms;
                let state = if silent_intervals >= DOWN_AFTER {
                    HealthState::Down
                } else if silent_intervals >= DEGRADED_AFTER {
                    HealthState::Degraded
                } else {
                    HealthState::Up
                };
                // Only ever degrade here; recovery (and the flap
                // count) happens on frame arrival, where it is
                // unambiguous.
                if state > series.state {
                    series.state = state;
                }
                NodeHealth {
                    node: id.clone(),
                    kind: series.kind,
                    state: series.state,
                    seq: series.last_seq,
                    last_heard_ms: series.last_heard_ms,
                    flaps: series.flaps,
                    frames: series.frames,
                }
            })
            .collect()
    }

    /// The aggregator's own `obs.*` metrics.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.inner.metrics.registry.snapshot()
    }
}

/// Overlays a sparse frame's entries (cumulative values) onto the
/// running total: matching names are replaced, new names inserted.
fn overlay(total: &Snapshot, sparse: &Snapshot) -> Snapshot {
    let mut entries: Vec<SnapshotEntry> = total.entries().to_vec();
    for s in sparse.entries() {
        match entries.iter_mut().find(|e| e.name == s.name) {
            Some(e) => e.value = s.value.clone(),
            None => entries.push(s.clone()),
        }
    }
    Snapshot::from_entries(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nb_metrics::Registry;

    fn frame(
        node: &str,
        seq: u64,
        clock_ms: u64,
        full: bool,
        snapshot: Snapshot,
    ) -> TelemetryFrame {
        TelemetryFrame {
            node: node.into(),
            kind: NodeKind::Broker,
            seq,
            clock_ms,
            interval_ms: 100,
            full,
            snapshot,
        }
    }

    fn counters(pairs: &[(&str, u64)]) -> Snapshot {
        let r = Registry::new();
        for (name, v) in pairs {
            r.counter(name).add(*v);
        }
        r.snapshot()
    }

    #[test]
    fn keyframe_then_sparse_overlay_reconstructs_totals() {
        let agg = ClusterAggregator::default();
        assert!(agg.ingest_frame(frame("b0", 0, 100, true, counters(&[("x", 5), ("y", 1)]))));
        assert!(agg.ingest_frame(frame("b0", 1, 200, false, counters(&[("x", 9)]))));
        let total = agg.node_total("b0").unwrap();
        assert_eq!(total.counter("x"), Some(9));
        assert_eq!(total.counter("y"), Some(1));
    }

    #[test]
    fn duplicates_and_regressions_are_dropped() {
        let agg = ClusterAggregator::default();
        assert!(agg.ingest_frame(frame("b0", 0, 100, true, counters(&[("x", 1)]))));
        assert!(agg.ingest_frame(frame("b0", 1, 200, false, counters(&[("x", 2)]))));
        assert!(!agg.ingest_frame(frame("b0", 1, 200, false, counters(&[("x", 2)]))));
        assert!(!agg.ingest_frame(frame("b0", 0, 100, true, counters(&[("x", 1)]))));
        assert_eq!(agg.node_total("b0").unwrap().counter("x"), Some(2));
        assert_eq!(
            agg.metrics_snapshot().counter("obs.frames.duplicate"),
            Some(2)
        );
    }

    #[test]
    fn gaps_are_counted_and_keyframe_resynchronizes() {
        let agg = ClusterAggregator::default();
        assert!(agg.ingest_frame(frame("b0", 0, 100, true, counters(&[("x", 1)]))));
        // Frames 1..=3 lost; keyframe 4 lands.
        assert!(agg.ingest_frame(frame("b0", 4, 500, true, counters(&[("x", 40), ("z", 7)]))));
        assert_eq!(agg.metrics_snapshot().counter("obs.frames.gap"), Some(3));
        let total = agg.node_total("b0").unwrap();
        assert_eq!(total.counter("x"), Some(40));
        assert_eq!(total.counter("z"), Some(7));
    }

    #[test]
    fn rollup_sums_across_nodes() {
        let agg = ClusterAggregator::default();
        agg.ingest_frame(frame("b0", 0, 100, true, counters(&[("pub", 10)])));
        agg.ingest_frame(frame("b1", 0, 100, true, counters(&[("pub", 32)])));
        let rollup = agg.rollup();
        assert_eq!(rollup.counter("pub"), Some(42));
        let per_node = agg.per_node();
        assert_eq!(per_node.counter("b0.pub"), Some(10));
        assert_eq!(per_node.counter("b1.pub"), Some(32));
    }

    #[test]
    fn windowed_rate_uses_ring_samples() {
        let agg = ClusterAggregator::default();
        agg.ingest_frame(frame("b0", 0, 0, true, counters(&[("pub", 0)])));
        agg.ingest_frame(frame("b0", 1, 1_000, false, counters(&[("pub", 500)])));
        agg.ingest_frame(frame("b0", 2, 2_000, false, counters(&[("pub", 1_500)])));
        let w = agg.window_delta("b0", Duration::from_secs(10)).unwrap();
        assert_eq!(w.delta.counter("pub"), Some(1_500));
        assert_eq!(w.span, Duration::from_secs(2));
        assert_eq!(w.rate("pub"), Some(750.0));
        // Tight window: only the last hop.
        let w = agg.window_delta("b0", Duration::from_secs(1)).unwrap();
        assert_eq!(w.delta.counter("pub"), Some(1_000));
        assert_eq!(w.rate("pub"), Some(1_000.0));
    }

    #[test]
    fn health_transitions_and_flaps() {
        let agg = ClusterAggregator::new();
        assert_eq!((DEGRADED_AFTER, DOWN_AFTER), (3, 6));
        agg.ingest_frame(frame("b0", 0, 1_000, true, Snapshot::default()));

        // Fresh: up.
        assert_eq!(agg.health_report(1_050)[0].state, HealthState::Up);
        // 3 intervals silent (interval 100ms): degraded.
        assert_eq!(agg.health_report(1_350)[0].state, HealthState::Degraded);
        // 6 intervals: down.
        assert_eq!(agg.health_report(1_650)[0].state, HealthState::Down);
        // Health never un-degrades without a frame.
        assert_eq!(agg.health_report(1_050)[0].state, HealthState::Down);

        // Node returns: up again, one flap recorded.
        agg.ingest_frame(frame("b0", 1, 1_700, false, Snapshot::default()));
        let h = &agg.health_report(1_750)[0];
        assert_eq!(h.state, HealthState::Up);
        assert_eq!(h.flaps, 1);
        assert_eq!(agg.metrics_snapshot().counter("obs.node.flap"), Some(1));
    }

    #[test]
    fn off_topic_and_garbage_messages_are_ignored() {
        use nb_wire::{Message, Payload, Topic};
        let agg = ClusterAggregator::default();
        let off_topic = Message::new(
            1,
            Topic::parse("/Some/Other/Topic").unwrap(),
            "x",
            0,
            Payload::Blob {
                data: vec![1, 2, 3],
            },
        );
        assert!(!agg.ingest(&off_topic));
        let garbage = Message::new(
            2,
            crate::telemetry_topic(),
            "x",
            0,
            Payload::Blob {
                data: vec![1, 2, 3],
            },
        );
        assert!(!agg.ingest(&garbage));
        assert_eq!(
            agg.metrics_snapshot().counter("obs.frames.rejected"),
            Some(1)
        );
        assert!(agg.nodes().is_empty());
    }
}
