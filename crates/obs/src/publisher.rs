//! [`TelemetryPublisher`]: one node's periodic metric reporter.

use std::sync::Arc;

use nb_crypto::Credential;
use nb_metrics::{Snapshot, SnapshotValue};
use nb_transport::clock::{SharedClock, Ticker};
use nb_wire::{Message, Payload};
use parking_lot::Mutex;

use crate::frame::{NodeKind, TelemetryFrame};
use crate::telemetry_topic;

/// Callback a publisher hands encoded telemetry messages to —
/// typically `Broker::publish_internal` on the node's own broker.
pub type ObsSink = Arc<dyn Fn(Message) + Send + Sync>;

/// Source of the node's current metrics, called once per publish.
pub type SnapshotFn = Arc<dyn Fn() -> Snapshot + Send + Sync>;

/// Publish cadence and keyframe policy.
#[derive(Debug, Clone)]
pub struct PublisherConfig {
    /// Milliseconds between publishes (heartbeat period).
    pub interval_ms: u64,
    /// Every `full_every`-th frame is a keyframe carrying the complete
    /// snapshot (sequence 0 always is); the frames in between carry
    /// only changed entries. Clamped to ≥ 1 (1 = every frame full).
    pub full_every: u64,
}

impl Default for PublisherConfig {
    fn default() -> Self {
        PublisherConfig {
            interval_ms: 1_000,
            full_every: 8,
        }
    }
}

struct PublisherState {
    /// Snapshot as of the previous publish (delta baseline).
    last: Snapshot,
    /// Next heartbeat sequence number.
    seq: u64,
    /// Per-sender message ids (ids are scoped to the sender).
    msg_id: u64,
}

struct Inner {
    node: String,
    kind: NodeKind,
    source: SnapshotFn,
    sink: ObsSink,
    clock: SharedClock,
    ticker: Ticker,
    config: PublisherConfig,
    credential: Option<Credential>,
    state: Mutex<PublisherState>,
}

/// Periodically snapshots one node's registries and publishes the
/// changes on [`telemetry_topic`].
///
/// Cadence is polled, not threaded: [`tick`][Self::tick] consults the
/// injected clock through a [`Ticker`], so tests driving a `MockClock`
/// get deterministic sequence numbers, and production callers call
/// `tick` from a loop they already run (a deployment's obs plane ticks
/// every publisher from one thread). Frames carry
/// cumulative values for entries whose value changed since the last
/// publish (computed with [`Snapshot::delta`]); every
/// [`full_every`][PublisherConfig::full_every]-th frame is a keyframe
/// with the complete snapshot. A frame is published every interval
/// even when nothing changed — the empty frame is the heartbeat the
/// aggregator's health scoreboard feeds on.
#[derive(Clone)]
pub struct TelemetryPublisher {
    inner: Arc<Inner>,
}

impl TelemetryPublisher {
    /// Builds a publisher for `node`. `source` is called once per
    /// publish for the node's current metrics; `sink` receives the
    /// encoded messages (typically the broker's internal publisher).
    pub fn new(
        node: impl Into<String>,
        kind: NodeKind,
        source: SnapshotFn,
        sink: ObsSink,
        clock: SharedClock,
        config: PublisherConfig,
    ) -> Self {
        let config = PublisherConfig {
            interval_ms: config.interval_ms.max(1),
            full_every: config.full_every.max(1),
        };
        TelemetryPublisher {
            inner: Arc::new(Inner {
                node: node.into(),
                kind,
                source,
                sink,
                ticker: Ticker::new(clock.clone(), config.interval_ms),
                clock,
                config,
                credential: None,
                state: Mutex::new(PublisherState {
                    last: Snapshot::default(),
                    seq: 0,
                    msg_id: 1,
                }),
            }),
        }
    }

    /// Returns a copy of this publisher that signs every frame with
    /// `credential`, letting aggregators authenticate the stream.
    ///
    /// Call before the first publish — the returned publisher has
    /// fresh sequence state.
    #[must_use]
    pub fn signed(&self, credential: Credential) -> Self {
        let inner = &self.inner;
        TelemetryPublisher {
            inner: Arc::new(Inner {
                node: inner.node.clone(),
                kind: inner.kind,
                source: inner.source.clone(),
                sink: inner.sink.clone(),
                ticker: Ticker::new(inner.clock.clone(), inner.config.interval_ms),
                clock: inner.clock.clone(),
                config: inner.config.clone(),
                credential: Some(credential),
                state: Mutex::new(PublisherState {
                    last: Snapshot::default(),
                    seq: 0,
                    msg_id: 1,
                }),
            }),
        }
    }

    /// The node id frames are attributed to.
    pub fn node(&self) -> &str {
        &self.inner.node
    }

    /// The configured publish interval.
    pub fn interval_ms(&self) -> u64 {
        self.inner.config.interval_ms
    }

    /// Publishes now if a full interval elapsed on the injected clock;
    /// returns whether a frame went out. Cheap when not due (one
    /// atomic load), safe to call from any thread.
    pub fn tick(&self) -> bool {
        if !self.inner.ticker.due() {
            return false;
        }
        self.publish_now();
        true
    }

    /// Builds and publishes a frame unconditionally (used by `tick`,
    /// by tests, and to flush a final report before shutdown).
    pub fn publish_now(&self) {
        let inner = &*self.inner;
        let current = (inner.source)();
        let (frame, msg_id) = {
            let mut state = inner.state.lock();
            let seq = state.seq;
            let full = seq.is_multiple_of(inner.config.full_every);
            let snapshot = if full {
                current.clone()
            } else {
                sparse_changes(&current, &state.last)
            };
            state.last = current;
            state.seq += 1;
            let msg_id = state.msg_id;
            state.msg_id += 1;
            (
                TelemetryFrame {
                    node: inner.node.clone(),
                    kind: inner.kind,
                    seq,
                    clock_ms: inner.clock.now_ms(),
                    interval_ms: inner.config.interval_ms,
                    full,
                    snapshot,
                },
                msg_id,
            )
        };
        let mut msg = Message::new(
            msg_id,
            telemetry_topic(),
            inner.node.clone(),
            frame.clock_ms,
            Payload::Blob {
                data: frame.to_bytes(),
            },
        );
        if let Some(credential) = &inner.credential {
            if msg.sign(credential).is_err() {
                return;
            }
        }
        (inner.sink)(msg);
    }
}

/// The entries of `current` whose value differs from `last`, as
/// cumulative values (the sparse body of a non-keyframe).
fn sparse_changes(current: &Snapshot, last: &Snapshot) -> Snapshot {
    let delta = current.delta(last);
    let changed: Vec<_> = current
        .entries()
        .iter()
        .filter(
            |e| match delta.entries().iter().find(|d| d.name == e.name) {
                Some(d) => match (&d.value, &e.value) {
                    (SnapshotValue::Counter(dc), _) => *dc > 0,
                    (SnapshotValue::Histogram(dh), _) => dh.count > 0,
                    // Gauges: the delta carries the current reading, so
                    // compare against the previous snapshot directly.
                    (SnapshotValue::Gauge(_), v) => last
                        .entries()
                        .iter()
                        .find(|p| p.name == e.name)
                        .is_none_or(|p| p.value != *v),
                },
                None => true,
            },
        )
        .cloned()
        .collect();
    Snapshot::from_entries(changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nb_metrics::Registry;
    use nb_transport::clock::MockClock;
    use nb_wire::Payload;

    fn harness() -> (
        Registry,
        MockClock,
        TelemetryPublisher,
        Arc<Mutex<Vec<Message>>>,
    ) {
        let registry = Registry::new();
        let out: Arc<Mutex<Vec<Message>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_out = out.clone();
        let source_registry = registry.clone();
        let clock = MockClock::new(1_000);
        let publisher = TelemetryPublisher::new(
            "broker-0",
            NodeKind::Broker,
            Arc::new(move || source_registry.snapshot()),
            Arc::new(move |msg| sink_out.lock().push(msg)),
            Arc::new(clock.clone()),
            PublisherConfig {
                interval_ms: 100,
                full_every: 4,
            },
        );
        (registry, clock, publisher, out)
    }

    fn decode(msg: &Message) -> TelemetryFrame {
        match &msg.payload {
            Payload::Blob { data } => TelemetryFrame::from_bytes(data).unwrap(),
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn tick_respects_the_mock_clock() {
        let (_registry, clock, publisher, out) = harness();
        assert!(!publisher.tick(), "not due yet");
        clock.advance(99);
        assert!(!publisher.tick());
        clock.advance(1);
        assert!(publisher.tick());
        assert!(!publisher.tick(), "edge-triggered");
        assert_eq!(out.lock().len(), 1);
    }

    #[test]
    fn keyframes_and_sparse_frames_alternate() {
        let (registry, _clock, publisher, out) = harness();
        let c = registry.counter("broker.publish.accepted");
        registry.counter("broker.deliver.local").add(5);

        c.add(1);
        publisher.publish_now(); // seq 0: keyframe
        publisher.publish_now(); // seq 1: nothing changed — empty heartbeat
        c.add(2);
        publisher.publish_now(); // seq 2: sparse, one changed counter

        let frames: Vec<TelemetryFrame> = out.lock().iter().map(decode).collect();
        assert_eq!(frames.len(), 3);
        assert!(frames[0].full);
        assert_eq!(frames[0].seq, 0);
        assert_eq!(frames[0].snapshot.len(), 2);
        assert!(!frames[1].full);
        assert!(frames[1].snapshot.is_empty(), "heartbeat only");
        assert!(!frames[2].full);
        assert_eq!(frames[2].snapshot.len(), 1);
        // Sparse entries are cumulative, not bare deltas.
        assert_eq!(
            frames[2].snapshot.counter("broker.publish.accepted"),
            Some(3)
        );
    }

    #[test]
    fn every_nth_frame_is_full() {
        let (_registry, _clock, publisher, out) = harness();
        for _ in 0..9 {
            publisher.publish_now();
        }
        let fulls: Vec<bool> = out.lock().iter().map(|m| decode(m).full).collect();
        assert_eq!(
            fulls,
            vec![true, false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    fn gauge_changes_appear_in_sparse_frames() {
        let (registry, _clock, publisher, out) = harness();
        let g = registry.gauge("broker.clients");
        g.set(1);
        publisher.publish_now(); // keyframe
        g.set(2);
        publisher.publish_now(); // sparse with new gauge reading
        publisher.publish_now(); // unchanged — empty
        let frames: Vec<TelemetryFrame> = out.lock().iter().map(decode).collect();
        assert_eq!(frames[1].snapshot.gauge("broker.clients"), Some(2));
        assert!(frames[2].snapshot.is_empty());
    }

    #[test]
    fn signed_frames_verify_and_tampering_breaks_them() {
        use nb_crypto::cert::{CertificateAuthority, Validity};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(7);
        let mut ca =
            CertificateAuthority::new("ca", 512, Validity::starting_now(0, u64::MAX / 4), &mut rng)
                .unwrap();
        let credential = ca
            .issue("Obs", Validity::starting_now(0, u64::MAX / 4), &mut rng)
            .unwrap();
        let key = credential.certificate.public_key.clone();

        let (_registry, _clock, publisher, out) = harness();
        let publisher = publisher.signed(credential);
        publisher.publish_now();
        let msg = out.lock().pop().unwrap();
        assert!(msg.verify_signature(&key).is_ok());

        let mut tampered = msg;
        if let Payload::Blob { data } = &mut tampered.payload {
            data[0] ^= 0xff;
        }
        assert!(tampered.verify_signature(&key).is_err());
    }
}
