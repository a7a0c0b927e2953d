//! # nb-telemetry — causal per-message tracing
//!
//! The aggregate counters of `nb-metrics` say *that* a deployment is
//! slow; this crate says *where* along a message's path. It is a
//! zero-dependency, Dapper-style causal tracing layer:
//!
//! * a [`TraceContext`] (trace id, parent span id, hop count, sampled
//!   flag) rides inside the `wire::Message` envelope and is propagated
//!   across every layer — transport framing, broker
//!   accept → auth-check → route → forward → enqueue → deliver, the
//!   tracing engine's trace/ping/verdict paths, tracker apply/reject,
//!   and TDN discovery/replication;
//! * each broker/engine/tracker/TDN records [`SpanEvent`]s into a
//!   per-instance [`FlightRecorder`] — a bounded, lock-free,
//!   overwrite-oldest ring buffer that never allocates on the hot
//!   path;
//! * sampling is decided by a [`TelemetryConfig`]: probabilistic
//!   *head* sampling at publish ([`TelemetryConfig::mint`], through a
//!   [`HeadSampler`]), recording only sampled traces
//!   ([`TelemetryConfig::sampled`]), plus *tail* sampling that always
//!   records the terminal span of traces whose end-to-end latency
//!   reaches [`SLOW_THRESHOLD_MS`];
//! * [`export`] renders recorder contents as JSON-lines and Chrome
//!   `trace_event` JSON for offline analysis.
//!
//! Timestamps are nanoseconds on a process-wide monotonic timebase
//! ([`now_ns`]), so spans recorded by different in-process nodes are
//! directly comparable — which is what makes per-hop latency
//! attribution possible (see `bench/src/bin/trace_report.rs`).
//!
//! The settings and formats are documented in `docs/OBSERVABILITY.md`
//! under "Causal tracing".

pub mod context;
pub mod export;
pub mod recorder;
pub mod sampler;

pub use context::{fresh_span_id, fresh_trace_id, TraceContext, MAX_HOPS};
pub use export::{chrome_trace, json_lines, NodeSpans};
pub use recorder::{FlightRecorder, SpanEvent, Stage};
pub use sampler::{HeadSampler, TelemetryConfig, RECORDER_CAPACITY, SLOW_THRESHOLD_MS};

use std::sync::LazyLock;
use std::time::Instant;

static EPOCH: LazyLock<Instant> = LazyLock::new(Instant::now);

/// Nanoseconds since the process-wide monotonic epoch.
///
/// Every recorder stamps spans on this shared timebase, so spans from
/// different in-process nodes (brokers, engines, trackers, TDNs) can
/// be ordered and subtracted directly. Does not allocate.
pub fn now_ns() -> u64 {
    EPOCH.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
