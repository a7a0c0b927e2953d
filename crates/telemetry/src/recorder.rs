//! The flight recorder: a bounded, lock-free, overwrite-oldest ring of
//! span events, one per node instance.
//!
//! Writers never block and never allocate: a slot is claimed with one
//! `fetch_add`, guarded by a per-slot sequence word (a seqlock built
//! from plain atomics — no `unsafe`), and written with relaxed stores.
//! If two writers land on the same slot simultaneously the loser drops
//! its span and bumps a collision counter instead of spinning; for
//! telemetry, losing one span beats stalling a broker hot path.

use crate::context::TraceContext;
use crate::fresh_span_id;
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Pipeline stage a span measures. Discriminants are stable because
/// they are packed into the recorder's slot words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Stage {
    /// Broker ingress: frame decoded, origin classified.
    Accept = 0,
    /// Broker constraint/permit/token enforcement.
    AuthCheck = 1,
    /// Broker subscription-table matching.
    Route = 2,
    /// Broker handing a message to an in-process consumer queue.
    Enqueue = 3,
    /// Broker delivering to an attached client endpoint.
    Deliver = 4,
    /// Broker forwarding to a neighbour broker.
    Forward = 5,
    /// Engine publishing a trace event.
    TracePublish = 6,
    /// Engine issuing a failure-detector ping.
    PingSend = 7,
    /// Engine emitting a suspicion/failure verdict.
    Verdict = 8,
    /// Engine consuming an inbound session message.
    Consume = 9,
    /// Tracker folding a verified trace into its view.
    TrackerApply = 10,
    /// Tracker refusing a trace for a missing/invalid token.
    TrackerReject = 11,
    /// TDN serving a topic-creation request.
    TdnCreate = 12,
    /// TDN evaluating a discovery query.
    TdnDiscover = 13,
    /// TDN accepting (or refusing) a replicated advertisement.
    TdnReplicate = 14,
    /// Synthetic stage for inter-node gaps, emitted by report tooling.
    Transit = 15,
}

impl Stage {
    /// Short lower-case name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Accept => "accept",
            Stage::AuthCheck => "auth",
            Stage::Route => "route",
            Stage::Enqueue => "enqueue",
            Stage::Deliver => "deliver",
            Stage::Forward => "forward",
            Stage::TracePublish => "trace_publish",
            Stage::PingSend => "ping",
            Stage::Verdict => "verdict",
            Stage::Consume => "consume",
            Stage::TrackerApply => "apply",
            Stage::TrackerReject => "reject",
            Stage::TdnCreate => "tdn_create",
            Stage::TdnDiscover => "tdn_discover",
            Stage::TdnReplicate => "tdn_replicate",
            Stage::Transit => "transit",
        }
    }

    /// Subsystem category used by the Chrome exporter's `cat` field.
    pub fn category(self) -> &'static str {
        match self {
            Stage::Accept
            | Stage::AuthCheck
            | Stage::Route
            | Stage::Enqueue
            | Stage::Deliver
            | Stage::Forward => "broker",
            Stage::TracePublish | Stage::PingSend | Stage::Verdict | Stage::Consume => "engine",
            Stage::TrackerApply | Stage::TrackerReject => "tracker",
            Stage::TdnCreate | Stage::TdnDiscover | Stage::TdnReplicate => "tdn",
            Stage::Transit => "transport",
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => Stage::Accept,
            1 => Stage::AuthCheck,
            2 => Stage::Route,
            3 => Stage::Enqueue,
            4 => Stage::Deliver,
            5 => Stage::Forward,
            6 => Stage::TracePublish,
            7 => Stage::PingSend,
            8 => Stage::Verdict,
            9 => Stage::Consume,
            10 => Stage::TrackerApply,
            11 => Stage::TrackerReject,
            12 => Stage::TdnCreate,
            13 => Stage::TdnDiscover,
            14 => Stage::TdnReplicate,
            15 => Stage::Transit,
            _ => return None,
        })
    }
}

/// One recorded span: a stage of one message's journey on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Trace this span belongs to.
    pub trace_id: u128,
    /// Process-unique id of this span.
    pub span_id: u64,
    /// Span that caused this one (0 = root).
    pub parent_span: u64,
    /// Broker hop count at the time of recording.
    pub hop: u8,
    /// Pipeline stage measured.
    pub stage: Stage,
    /// Start, ns on the process-wide monotonic timebase.
    pub start_ns: u64,
    /// End, ns on the process-wide monotonic timebase.
    pub end_ns: u64,
}

impl SpanEvent {
    /// Span for `stage` under `ctx`, with a fresh span id. Allocates
    /// nothing.
    pub fn new(ctx: &TraceContext, stage: Stage, start_ns: u64, end_ns: u64) -> Self {
        Self {
            trace_id: ctx.trace_id,
            span_id: fresh_span_id(),
            parent_span: ctx.parent_span,
            hop: ctx.hop_count,
            stage,
            start_ns,
            end_ns,
        }
    }

    /// Span duration in nanoseconds (0 if the clock stepped oddly).
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One ring slot. `seq` is the seqlock word: even = stable, odd = a
/// writer is mid-flight; it advances by 2 per successful write, so
/// readers can detect both torn reads and never-written slots (seq 0
/// with an all-zero payload is skipped via the span id).
struct Slot {
    seq: AtomicU64,
    trace_hi: AtomicU64,
    trace_lo: AtomicU64,
    span: AtomicU64,
    parent: AtomicU64,
    /// stage in bits 0..8, hop in bits 8..16.
    meta: AtomicU64,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Self {
            seq: AtomicU64::new(0),
            trace_hi: AtomicU64::new(0),
            trace_lo: AtomicU64::new(0),
            span: AtomicU64::new(0),
            parent: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            end_ns: AtomicU64::new(0),
        }
    }
}

/// A per-node, bounded, overwrite-oldest span ring.
///
/// `record` is wait-free and allocation-free; `snapshot` is a
/// best-effort consistent read that skips slots caught mid-write.
pub struct FlightRecorder {
    node: String,
    slots: Box<[Slot]>,
    mask: u64,
    head: AtomicU64,
    recorded: AtomicU64,
    collisions: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("node", &self.node)
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded())
            .field("collisions", &self.collisions())
            .finish()
    }
}

impl FlightRecorder {
    /// Recorder for `node` holding `capacity` spans (rounded up to a
    /// power of two, minimum 16).
    pub fn new(node: impl Into<String>, capacity: usize) -> Self {
        let cap = capacity.max(16).next_power_of_two();
        let slots: Vec<Slot> = (0..cap).map(|_| Slot::empty()).collect();
        Self {
            node: node.into(),
            slots: slots.into_boxed_slice(),
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
        }
    }

    /// Name of the node this recorder belongs to.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// Ring capacity in spans.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Spans successfully recorded over the recorder's lifetime
    /// (including any since overwritten).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Spans dropped because two writers collided on one slot.
    pub fn collisions(&self) -> u64 {
        self.collisions.load(Ordering::Relaxed)
    }

    /// Records a span. Wait-free; never allocates; overwrites the
    /// oldest span when the ring is full.
    pub fn record(&self, ev: SpanEvent) {
        let idx = (self.head.fetch_add(1, Ordering::Relaxed) & self.mask) as usize;
        let slot = &self.slots[idx];
        let seq = slot.seq.load(Ordering::Acquire);
        if seq & 1 == 1 {
            self.collisions.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if slot
            .seq
            .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.collisions.fetch_add(1, Ordering::Relaxed);
            return;
        }
        slot.trace_hi
            .store((ev.trace_id >> 64) as u64, Ordering::Relaxed);
        slot.trace_lo.store(ev.trace_id as u64, Ordering::Relaxed);
        slot.span.store(ev.span_id, Ordering::Relaxed);
        slot.parent.store(ev.parent_span, Ordering::Relaxed);
        slot.meta.store(
            u64::from(ev.stage as u8) | (u64::from(ev.hop) << 8),
            Ordering::Relaxed,
        );
        slot.start_ns.store(ev.start_ns, Ordering::Relaxed);
        slot.end_ns.store(ev.end_ns, Ordering::Relaxed);
        slot.seq.store(seq + 2, Ordering::Release);
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Best-effort consistent copy of the ring's current contents,
    /// sorted by start time. Slots caught mid-write are skipped.
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 & 1 == 1 {
                continue;
            }
            let trace_hi = slot.trace_hi.load(Ordering::Relaxed);
            let trace_lo = slot.trace_lo.load(Ordering::Relaxed);
            let span = slot.span.load(Ordering::Relaxed);
            let parent = slot.parent.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let start_ns = slot.start_ns.load(Ordering::Relaxed);
            let end_ns = slot.end_ns.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue;
            }
            let Some(stage) = Stage::from_u8((meta & 0xff) as u8) else {
                continue;
            };
            out.push(SpanEvent {
                trace_id: (u128::from(trace_hi) << 64) | u128::from(trace_lo),
                span_id: span,
                parent_span: parent,
                hop: ((meta >> 8) & 0xff) as u8,
                stage,
                start_ns,
                end_ns,
            });
        }
        out.sort_by_key(|e| (e.start_ns, e.span_id));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ev(trace: u128, start: u64) -> SpanEvent {
        SpanEvent {
            trace_id: trace,
            span_id: fresh_span_id(),
            parent_span: 0,
            hop: 2,
            stage: Stage::Route,
            start_ns: start,
            end_ns: start + 10,
        }
    }

    #[test]
    fn records_and_snapshots_in_start_order() {
        let rec = FlightRecorder::new("n0", 16);
        rec.record(ev(1, 300));
        rec.record(ev(2, 100));
        rec.record(ev(3, 200));
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(
            snap.iter().map(|e| e.start_ns).collect::<Vec<_>>(),
            vec![100, 200, 300]
        );
        assert_eq!(rec.recorded(), 3);
        assert_eq!(rec.collisions(), 0);
    }

    #[test]
    fn round_trips_every_field() {
        let rec = FlightRecorder::new("n0", 16);
        let trace = (u128::from(u64::MAX) << 64) | 0x1234_5678;
        let span = SpanEvent {
            trace_id: trace,
            span_id: 42,
            parent_span: 7,
            hop: 255,
            stage: Stage::TdnReplicate,
            start_ns: 1_000,
            end_ns: 2_500,
        };
        rec.record(span);
        let snap = rec.snapshot();
        assert_eq!(snap, vec![span]);
        assert_eq!(snap[0].dur_ns(), 1_500);
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let rec = FlightRecorder::new("n0", 16);
        for i in 0..40u64 {
            rec.record(ev(u128::from(i), i));
        }
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 16);
        // Only the newest 16 survive.
        assert!(snap.iter().all(|e| e.start_ns >= 24));
        assert_eq!(rec.recorded(), 40);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(FlightRecorder::new("n", 0).capacity(), 16);
        assert_eq!(FlightRecorder::new("n", 17).capacity(), 32);
        assert_eq!(FlightRecorder::new("n", 1024).capacity(), 1024);
    }

    #[test]
    fn concurrent_writers_never_corrupt_spans() {
        let rec = Arc::new(FlightRecorder::new("n0", 64));
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        // Encode the writer id into every field so torn
                        // mixes are detectable.
                        let tag = t * 1_000_000 + i;
                        rec.record(SpanEvent {
                            trace_id: u128::from(tag),
                            span_id: tag,
                            parent_span: tag,
                            hop: t as u8,
                            stage: Stage::Accept,
                            start_ns: tag,
                            end_ns: tag,
                        });
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        for e in rec.snapshot() {
            assert_eq!(e.trace_id, u128::from(e.span_id));
            assert_eq!(e.parent_span, e.span_id);
            assert_eq!(e.start_ns, e.span_id);
            assert_eq!(u64::from(e.hop), e.span_id / 1_000_000);
        }
        assert_eq!(rec.recorded() + rec.collisions(), 8_000);
    }
}
