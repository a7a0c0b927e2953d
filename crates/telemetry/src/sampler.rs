//! Sampling: the `TelemetryConfig` that decides, once for every node,
//! which messages carry a context and which are recorded, plus the
//! tail threshold for slow traces.

use crate::context::{fresh_span_id, mix64, TraceContext};

/// Tail-sampling threshold, ms: an *unsampled* message whose observed
/// end-to-end latency meets or exceeds this records its terminal
/// spans anyway, so slow outliers are never invisible.
pub const SLOW_THRESHOLD_MS: u64 = 1_000;

/// Flight-recorder capacity, in spans, of every broker, engine and
/// tracker. Oldest spans are overwritten.
pub const RECORDER_CAPACITY: usize = 4_096;

/// The causal tracing layer's two settings.
///
/// Carried by `TracingConfig` and `BrokerConfig` so one struct
/// configures every node in a deployment. The defaults cost nothing
/// on the hot path: tracing enabled, nothing head-sampled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch. When `false` no context is attached at publish
    /// and recorders drop everything.
    pub enabled: bool,
    /// Head-sampling rate in parts-per-million of published messages
    /// (`1_000_000` = trace everything, `0` = trace nothing).
    pub sample_ppm: u32,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            sample_ppm: 0,
        }
    }
}

impl TelemetryConfig {
    /// A root trace context for a freshly published message, with the
    /// head-sampling decision made; `None` when telemetry is off.
    pub fn mint(&self) -> Option<TraceContext> {
        if !self.enabled {
            return None;
        }
        let mut ctx = TraceContext::root(fresh_span_id(), false);
        ctx.sampled = HeadSampler::new(self.sample_ppm).decide(ctx.trace_id);
        Some(ctx)
    }

    /// The context a node records spans under: `trace` when telemetry
    /// is on and the trace was head-sampled, else `None`.
    #[inline]
    pub fn sampled(&self, trace: Option<TraceContext>) -> Option<TraceContext> {
        trace.filter(|ctx| self.enabled && ctx.sampled)
    }
}

/// Deterministic head sampler: hashes the trace id against a
/// parts-per-million threshold, so every node in a deployment makes the
/// same decision for the same trace without coordination.
#[derive(Debug, Clone, Copy)]
pub struct HeadSampler {
    ppm: u32,
}

impl HeadSampler {
    /// Sampler keeping roughly `ppm` per million traces.
    pub fn new(ppm: u32) -> Self {
        Self { ppm }
    }

    /// Whether the trace with this id should be head-sampled.
    pub fn decide(&self, trace_id: u128) -> bool {
        if self.ppm == 0 {
            return false;
        }
        if self.ppm >= 1_000_000 {
            return true;
        }
        let folded = (trace_id as u64) ^ ((trace_id >> 64) as u64);
        mix64(folded) % 1_000_000 < u64::from(self.ppm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::fresh_trace_id;

    #[test]
    fn zero_keeps_nothing_full_keeps_everything() {
        let none = HeadSampler::new(0);
        let all = HeadSampler::new(1_000_000);
        for _ in 0..64 {
            let id = fresh_trace_id();
            assert!(!none.decide(id));
            assert!(all.decide(id));
        }
    }

    #[test]
    fn decision_is_deterministic_per_trace() {
        let a = HeadSampler::new(500_000);
        let b = HeadSampler::new(500_000);
        for _ in 0..64 {
            let id = fresh_trace_id();
            assert_eq!(a.decide(id), b.decide(id));
        }
    }

    #[test]
    fn half_rate_is_roughly_half() {
        let s = HeadSampler::new(500_000);
        let kept = (0..2_000).filter(|_| s.decide(fresh_trace_id())).count();
        assert!((600..1_400).contains(&kept), "kept {kept} of 2000");
    }

    #[test]
    fn disabled_config_keeps_nothing() {
        let cfg = TelemetryConfig {
            enabled: false,
            sample_ppm: 1_000_000,
        };
        assert_eq!(cfg.mint(), None);
        assert_eq!(cfg.sampled(Some(TraceContext::root(1, true))), None);
    }

    #[test]
    fn enabled_config_mints_and_records_sampled_traces() {
        let all = TelemetryConfig {
            enabled: true,
            sample_ppm: 1_000_000,
        };
        assert!(all
            .mint()
            .is_some_and(|ctx| ctx.sampled && ctx.hop_count == 0));
        let unsampled = TelemetryConfig::default().mint();
        assert!(unsampled.is_some_and(|ctx| !ctx.sampled));
        let sampled = Some(TraceContext::root(1, true));
        assert_eq!(all.sampled(sampled), sampled);
        assert_eq!(all.sampled(unsampled), None);
        assert_eq!(all.sampled(None), None);
    }
}
