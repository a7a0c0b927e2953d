//! The telemetry frame: one node's metric report, on the wire.

use nb_metrics::{HistogramSummary, Snapshot, SnapshotEntry, SnapshotValue};
use nb_wire::codec::{Reader, Writer};
use nb_wire::{Result, WireError};

/// Telemetry frame encoding version.
pub const FRAME_VERSION: u8 = 1;

const VALUE_COUNTER: u8 = 0;
const VALUE_GAUGE: u8 = 1;
const VALUE_HISTOGRAM: u8 = 2;

/// What kind of node produced a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A pub/sub broker (`broker.*` families).
    Broker,
    /// A tracing engine (`tracing.*` families).
    Engine,
    /// A topic-discovery node (`tdn.*` families).
    Tdn,
    /// Anything else reporting into the plane.
    Other,
}

impl NodeKind {
    fn tag(self) -> u8 {
        match self {
            NodeKind::Broker => 0,
            NodeKind::Engine => 1,
            NodeKind::Tdn => 2,
            NodeKind::Other => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            0 => NodeKind::Broker,
            1 => NodeKind::Engine,
            2 => NodeKind::Tdn,
            3 => NodeKind::Other,
            _ => {
                return Err(WireError::UnknownTag {
                    what: "telemetry node kind",
                    tag,
                })
            }
        })
    }

    /// Lower-case label used in exposition output.
    pub fn label(self) -> &'static str {
        match self {
            NodeKind::Broker => "broker",
            NodeKind::Engine => "engine",
            NodeKind::Tdn => "tdn",
            NodeKind::Other => "node",
        }
    }
}

/// One periodic metric report from one node.
///
/// Entries carry **cumulative** values (the node's current counters),
/// not bare differences: a frame is interpretable on its own, so frame
/// loss thins the time series without corrupting totals. Non-keyframe
/// frames are *sparse* — they carry only the entries whose value
/// changed since the previous publish (found with
/// [`Snapshot::delta`]); every `full_every`-th frame (`full = true`)
/// carries the complete snapshot so an aggregator that missed sparse
/// frames resynchronizes exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryFrame {
    /// Reporting node's identifier (broker id, `engine@b`, TDN id).
    pub node: String,
    /// Reporting node's role.
    pub kind: NodeKind,
    /// Heartbeat sequence number, starting at 0, one per publish.
    pub seq: u64,
    /// Publisher's clock (ms since epoch) when the frame was built.
    pub clock_ms: u64,
    /// Configured publish interval — lets any observer judge
    /// staleness without out-of-band configuration.
    pub interval_ms: u64,
    /// True when this frame carries the node's complete snapshot
    /// (keyframe); false when it carries only changed entries.
    pub full: bool,
    /// The reported entries (cumulative values).
    pub snapshot: Snapshot,
}

impl TelemetryFrame {
    /// Serializes the frame for a message payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(FRAME_VERSION);
        w.put_str(&self.node);
        w.put_u8(self.kind.tag());
        w.put_u64(self.seq);
        w.put_u64(self.clock_ms);
        w.put_varint(self.interval_ms);
        w.put_bool(self.full);
        w.put_seq(self.snapshot.entries(), |w, e| {
            w.put_str(&e.name);
            match &e.value {
                SnapshotValue::Counter(v) => {
                    w.put_u8(VALUE_COUNTER);
                    w.put_varint(*v);
                }
                SnapshotValue::Gauge(v) => {
                    w.put_u8(VALUE_GAUGE);
                    w.put_u64(*v as u64);
                }
                SnapshotValue::Histogram(h) => {
                    w.put_u8(VALUE_HISTOGRAM);
                    w.put_varint(h.count);
                    w.put_u64(h.sum);
                    w.put_varint(h.min);
                    w.put_varint(h.max);
                    // Sparse buckets: (index, count) pairs.
                    let nonzero: Vec<(u8, u64)> = h
                        .buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, &n)| n > 0)
                        .map(|(i, &n)| (i as u8, n))
                        .collect();
                    w.put_seq(&nonzero, |w, (i, n)| {
                        w.put_u8(*i);
                        w.put_varint(*n);
                    });
                }
            }
        });
        w.into_bytes()
    }

    /// Decodes a frame from a message payload.
    ///
    /// # Errors
    ///
    /// Returns the wire error when the bytes do not parse — including
    /// tampered frames whose structure no longer holds together.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let version = r.get_u8()?;
        if version != FRAME_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let node = r.get_str()?;
        let kind = NodeKind::from_tag(r.get_u8()?)?;
        let seq = r.get_u64()?;
        let clock_ms = r.get_u64()?;
        let interval_ms = r.get_varint()?;
        let full = r.get_bool()?;
        let entries = r.get_seq(|r| {
            let name = r.get_str()?;
            let value =
                match r.get_u8()? {
                    VALUE_COUNTER => SnapshotValue::Counter(r.get_varint()?),
                    VALUE_GAUGE => SnapshotValue::Gauge(r.get_u64()? as i64),
                    VALUE_HISTOGRAM => {
                        let count = r.get_varint()?;
                        let sum = r.get_u64()?;
                        let min = r.get_varint()?;
                        let max = r.get_varint()?;
                        let mut h = HistogramSummary::empty();
                        h.count = count;
                        h.sum = sum;
                        h.min = min;
                        h.max = max;
                        let pairs = r.get_seq(|r| {
                            let idx = r.get_u8()?;
                            let n = r.get_varint()?;
                            Ok((idx, n))
                        })?;
                        for (idx, n) in pairs {
                            let slot = h.buckets.get_mut(idx as usize).ok_or(
                                WireError::LengthOverflow("telemetry histogram bucket index"),
                            )?;
                            *slot = n;
                        }
                        SnapshotValue::Histogram(h)
                    }
                    tag => {
                        return Err(WireError::UnknownTag {
                            what: "telemetry value kind",
                            tag,
                        })
                    }
                };
            Ok(SnapshotEntry { name, value })
        })?;
        r.expect_end("telemetry frame")?;
        Ok(TelemetryFrame {
            node,
            kind,
            seq,
            clock_ms,
            interval_ms,
            full,
            snapshot: Snapshot::from_entries(entries),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nb_metrics::Registry;

    fn sample_snapshot() -> Snapshot {
        let r = Registry::new();
        r.counter("broker.publish.accepted").add(42);
        r.gauge("broker.clients").set(-3);
        let h = r.histogram("broker.route.ns");
        h.record(0);
        h.record(5);
        h.record(70_000);
        h.record(u64::MAX);
        r.snapshot()
    }

    #[test]
    fn frame_round_trips() {
        let frame = TelemetryFrame {
            node: "broker-1".into(),
            kind: NodeKind::Broker,
            seq: 7,
            clock_ms: 123_456,
            interval_ms: 250,
            full: true,
            snapshot: sample_snapshot(),
        };
        let decoded = TelemetryFrame::from_bytes(&frame.to_bytes()).unwrap();
        assert_eq!(decoded, frame);
        let h = decoded.snapshot.histogram("broker.route.ns").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.max, u64::MAX);
    }

    #[test]
    fn empty_frame_round_trips() {
        let frame = TelemetryFrame {
            node: "tdn-0".into(),
            kind: NodeKind::Tdn,
            seq: 0,
            clock_ms: 1,
            interval_ms: 1000,
            full: false,
            snapshot: Snapshot::default(),
        };
        assert_eq!(
            TelemetryFrame::from_bytes(&frame.to_bytes()).unwrap(),
            frame
        );
    }

    #[test]
    fn truncated_and_garbage_bytes_are_rejected() {
        let frame = TelemetryFrame {
            node: "b".into(),
            kind: NodeKind::Engine,
            seq: 1,
            clock_ms: 2,
            interval_ms: 3,
            full: true,
            snapshot: sample_snapshot(),
        };
        let bytes = frame.to_bytes();
        assert!(TelemetryFrame::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(TelemetryFrame::from_bytes(&[9, 9, 9]).is_err());
        let mut version_flip = bytes.clone();
        version_flip[0] = FRAME_VERSION + 1;
        assert!(TelemetryFrame::from_bytes(&version_flip).is_err());
    }

    #[test]
    fn bad_bucket_index_is_rejected() {
        let mut w = Writer::new();
        w.put_u8(FRAME_VERSION);
        w.put_str("n");
        w.put_u8(0); // broker
        w.put_u64(0);
        w.put_u64(0);
        w.put_varint(10);
        w.put_bool(false);
        w.put_varint(1); // one entry
        w.put_str("h");
        w.put_u8(VALUE_HISTOGRAM);
        w.put_varint(1); // count
        w.put_u64(1); // sum
        w.put_varint(1); // min
        w.put_varint(1); // max
        w.put_varint(1); // one bucket pair
        w.put_u8(200); // out-of-range bucket index
        w.put_varint(1);
        assert!(TelemetryFrame::from_bytes(&w.into_bytes()).is_err());
    }
}
