//! Trace context: the causal identity a message carries across hops.

use std::sync::atomic::{AtomicU64, Ordering};

/// Routing TTL: a broker drops a message whose
/// [`TraceContext::hop_count`], after its neighbour-ingress increment,
/// exceeds this (counted in `broker.drop.ttl_exceeded`), closing the
/// forwarding-loop hazard. The standard monitors' `ttl` bound is the
/// same number. Well above the paper's longest chain of 6 brokers.
pub const MAX_HOPS: u8 = 16;

/// Causal identity carried inside a `wire::Message` envelope.
///
/// The context is small, `Copy`, and deliberately excluded from
/// signature/MAC coverage: `hop_count` mutates at every broker-to-broker
/// hop, and re-signing at each hop would defeat the paper's end-to-end
/// authentication model. Tampering with it can therefore corrupt
/// *telemetry*, never *authorization*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Identifies the end-to-end causal trace (all spans of one
    /// message's journey share it).
    pub trace_id: u128,
    /// Span id of the sender-side span that caused this message, so a
    /// receiver can parent its own spans under it.
    pub parent_span: u64,
    /// Broker-to-broker hops taken so far; doubles as a routing TTL
    /// (see [`MAX_HOPS`]).
    pub hop_count: u8,
    /// Head-sampling decision made at publish time. Unsampled messages
    /// still carry the context (for the TTL and for tail sampling) but
    /// recorders skip them on the hot path.
    pub sampled: bool,
}

impl TraceContext {
    /// A root context for a freshly published message: new trace id,
    /// the given parent span, zero hops.
    pub fn root(parent_span: u64, sampled: bool) -> Self {
        Self {
            trace_id: fresh_trace_id(),
            parent_span,
            hop_count: 0,
            sampled,
        }
    }

    /// Copy of this context with the hop count incremented
    /// (saturating — the TTL check fires long before 255).
    #[must_use]
    pub fn next_hop(mut self) -> Self {
        self.hop_count = self.hop_count.saturating_add(1);
        self
    }
}

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

/// SplitMix64 finalizer — a cheap, high-quality bit mixer.
pub(crate) fn mix64(seed: u64) -> u64 {
    let mut x = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A process-unique span id. Sequential under the hood, mixed so ids
/// from concurrent threads do not visually collide in exports.
pub fn fresh_span_id() -> u64 {
    let n = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    // Mixing a distinct nonzero sequence is injective, so ids are
    // unique for the life of the process.
    mix64(n)
}

/// A process-unique 128-bit trace id.
///
/// The low half mixes in the monotonic clock so ids differ across
/// processes/restarts; the high half mixes a process-local counter so
/// they are unique within one.
pub fn fresh_trace_id() -> u128 {
    let n = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
    let hi = mix64(n ^ 0x7c15_9e37_79b9_7f4a);
    let lo = mix64(crate::now_ns().wrapping_add(n.rotate_left(32)));
    (u128::from(hi) << 64) | u128::from(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_are_unique() {
        let a = fresh_span_id();
        let b = fresh_span_id();
        assert_ne!(a, b);
        assert_ne!(a, 0);
    }

    #[test]
    fn trace_ids_are_unique() {
        let a = fresh_trace_id();
        let b = fresh_trace_id();
        assert_ne!(a, b);
    }

    #[test]
    fn root_starts_at_hop_zero() {
        let ctx = TraceContext::root(7, true);
        assert_eq!(ctx.hop_count, 0);
        assert_eq!(ctx.parent_span, 7);
        assert!(ctx.sampled);
    }

    #[test]
    fn next_hop_increments_and_saturates() {
        let ctx = TraceContext::root(0, false);
        assert_eq!(ctx.next_hop().hop_count, 1);
        let mut far = ctx;
        far.hop_count = u8::MAX;
        assert_eq!(far.next_hop().hop_count, u8::MAX);
    }
}
