//! The failure-detection state machine (paper §3.3).
//!
//! "An entity is pinged based on whether the ping interval has
//! elapsed. Depending on the history of the past pings … this ping
//! interval is varied. If consecutive pings do not have responses
//! associated with them, the ping interval is reduced to hasten the
//! failure detection of the entity. If a ping response is not
//! received for a set of successive pings …, a FAILURE_SUSPICION
//! trace is reported … Lack of responses … for additional pings is
//! taken as a sign that the traced entity has failed."
//!
//! The detector is a pure state machine over explicit timestamps, so
//! it is deterministic under a mock clock.

use crate::config::{TracingConfig, PING_WINDOW};
use nb_transport::metrics::{PingOutcome, PingWindow, RttEstimator};
use std::collections::HashMap;

/// Liveness verdict for a traced entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// Responding normally.
    Alive,
    /// Missed `suspicion_threshold` consecutive pings.
    Suspected,
    /// Missed `suspicion_threshold + failure_threshold` consecutive
    /// pings.
    Failed,
}

/// Events the detector asks its driver to act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorEvent {
    /// Publish FAILURE_SUSPICION.
    Suspect,
    /// Publish FAILED.
    Fail,
    /// The entity answered again after suspicion/failure.
    Recover,
}

/// Per-entity ping bookkeeping and verdicts.
#[derive(Debug)]
pub struct FailureDetector {
    base_interval_ms: u64,
    min_interval_ms: u64,
    response_timeout_ms: u64,
    suspicion_threshold: usize,
    failure_threshold: usize,
    window: PingWindow,
    rtt: RttEstimator,
    outstanding: HashMap<u64, u64>,
    next_seq: u64,
    last_ping_ms: Option<u64>,
    highest_answered_seq: Option<u64>,
    /// Timestamp of the last evidence of liveness: the last answered
    /// ping, or the first ping sent for entities that never answered.
    /// Drives the time-to-detection histogram.
    last_evidence_ms: Option<u64>,
    liveness: Liveness,
}

impl FailureDetector {
    /// Creates a detector from the scheme configuration.
    pub fn new(config: &TracingConfig) -> Self {
        FailureDetector {
            base_interval_ms: config.ping_interval.as_millis() as u64,
            min_interval_ms: config.min_ping_interval.as_millis() as u64,
            response_timeout_ms: config.response_timeout.as_millis() as u64,
            suspicion_threshold: config.suspicion_threshold,
            failure_threshold: config.failure_threshold,
            window: PingWindow::new(PING_WINDOW),
            rtt: RttEstimator::new(),
            outstanding: HashMap::new(),
            next_seq: 1,
            last_ping_ms: None,
            highest_answered_seq: None,
            last_evidence_ms: None,
            liveness: Liveness::Alive,
        }
    }

    /// Current liveness verdict.
    pub fn liveness(&self) -> Liveness {
        self.liveness
    }

    /// The adaptive ping interval: halves per trailing consecutive
    /// loss, floored at the configured minimum.
    pub fn current_interval_ms(&self) -> u64 {
        let losses = self.window.consecutive_losses().min(16) as u32;
        (self.base_interval_ms >> losses).max(self.min_interval_ms)
    }

    /// Whether a new ping is due at `now_ms`.
    pub fn ping_due(&self, now_ms: u64) -> bool {
        match self.last_ping_ms {
            None => true,
            Some(last) => now_ms.saturating_sub(last) >= self.current_interval_ms(),
        }
    }

    /// Registers a ping send; returns its sequence number (pings carry
    /// "a monotonically increasing message number and the timestamp").
    pub fn on_ping_sent(&mut self, now_ms: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.outstanding.insert(seq, now_ms);
        self.last_ping_ms = Some(now_ms);
        if self.last_evidence_ms.is_none() {
            self.last_evidence_ms = Some(now_ms);
        }
        seq
    }

    /// Processes a ping response. Returns `Some(DetectorEvent::Recover)`
    /// when a suspected/failed entity comes back.
    pub fn on_response(&mut self, seq: u64, now_ms: u64) -> Option<DetectorEvent> {
        let sent_at = self.outstanding.remove(&seq)?;
        let rtt = now_ms.saturating_sub(sent_at) as f64;
        let in_order = self.highest_answered_seq.map(|h| seq > h).unwrap_or(true);
        if in_order {
            self.highest_answered_seq = Some(seq);
        }
        self.rtt.observe(rtt);
        self.last_evidence_ms = Some(now_ms);
        self.window.record(PingOutcome::Answered {
            rtt_ms: rtt,
            in_order,
        });
        if self.liveness != Liveness::Alive {
            self.liveness = Liveness::Alive;
            return Some(DetectorEvent::Recover);
        }
        None
    }

    /// Expires outstanding pings whose deadline passed, recording
    /// losses and escalating liveness. Returns at most one event.
    pub fn on_tick(&mut self, now_ms: u64) -> Option<DetectorEvent> {
        let timeout = self
            .rtt
            .timeout_ms(self.response_timeout_ms as f64)
            .max(self.response_timeout_ms as f64) as u64;
        let expired: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, &sent)| now_ms.saturating_sub(sent) >= timeout)
            .map(|(&seq, _)| seq)
            .collect();
        if expired.is_empty() {
            return None;
        }
        for seq in expired {
            self.outstanding.remove(&seq);
            self.window.record(PingOutcome::Lost);
        }
        let losses = self.window.consecutive_losses();
        match self.liveness {
            Liveness::Alive if losses >= self.suspicion_threshold => {
                self.liveness = Liveness::Suspected;
                Some(DetectorEvent::Suspect)
            }
            Liveness::Suspected if losses >= self.suspicion_threshold + self.failure_threshold => {
                self.liveness = Liveness::Failed;
                Some(DetectorEvent::Fail)
            }
            _ => None,
        }
    }

    /// Access to the ping window (loss/out-of-order rates for
    /// NETWORK_METRICS traces).
    pub fn window(&self) -> &PingWindow {
        &self.window
    }

    /// Smoothed RTT estimate.
    pub fn srtt_ms(&self) -> Option<f64> {
        self.rtt.srtt_ms()
    }

    /// Number of unanswered pings currently in flight.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// When the entity last showed signs of life: the last answered
    /// ping, falling back to the first ping sent when nothing was ever
    /// answered. `None` before the first ping.
    pub fn last_evidence_ms(&self) -> Option<u64> {
        self.last_evidence_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> TracingConfig {
        TracingConfig::for_tests() // suspicion 2, failure 2, timeout 50ms
    }

    fn detector() -> FailureDetector {
        FailureDetector::new(&config())
    }

    #[test]
    fn first_ping_is_immediately_due() {
        let d = detector();
        assert!(d.ping_due(0));
        assert_eq!(d.liveness(), Liveness::Alive);
    }

    #[test]
    fn interval_gates_subsequent_pings() {
        let mut d = detector();
        d.on_ping_sent(0);
        assert!(!d.ping_due(50)); // base interval 100ms
        assert!(d.ping_due(100));
    }

    #[test]
    fn responses_keep_entity_alive() {
        let mut d = detector();
        let mut now = 0;
        for _ in 0..20 {
            let seq = d.on_ping_sent(now);
            assert_eq!(d.on_response(seq, now + 5), None);
            now += 100;
            assert_eq!(d.on_tick(now), None);
        }
        assert_eq!(d.liveness(), Liveness::Alive);
        assert!(d.srtt_ms().unwrap() > 0.0);
    }

    #[test]
    fn consecutive_losses_suspect_then_fail() {
        let mut d = detector();
        let mut now = 0;
        let mut events = Vec::new();
        // 4 lost pings: suspicion after 2, failure after 4.
        for _ in 0..4 {
            d.on_ping_sent(now);
            now += 1000; // way past the timeout
            if let Some(e) = d.on_tick(now) {
                events.push(e);
            }
        }
        assert_eq!(events, vec![DetectorEvent::Suspect, DetectorEvent::Fail]);
        assert_eq!(d.liveness(), Liveness::Failed);
    }

    #[test]
    fn recovery_event_after_suspicion() {
        let mut d = detector();
        let mut now = 0;
        for _ in 0..2 {
            d.on_ping_sent(now);
            now += 1000;
            d.on_tick(now);
        }
        assert_eq!(d.liveness(), Liveness::Suspected);
        let seq = d.on_ping_sent(now);
        assert_eq!(d.on_response(seq, now + 5), Some(DetectorEvent::Recover));
        assert_eq!(d.liveness(), Liveness::Alive);
    }

    #[test]
    fn adaptive_interval_shrinks_on_losses() {
        let mut d = detector();
        let base = d.current_interval_ms();
        assert_eq!(base, 100);
        let mut now = 0;
        d.on_ping_sent(now);
        now += 1000;
        d.on_tick(now); // 1 loss
        assert_eq!(d.current_interval_ms(), 50);
        d.on_ping_sent(now);
        now += 1000;
        d.on_tick(now); // 2 losses
        assert_eq!(d.current_interval_ms(), 25);
        // Floors at the minimum.
        for _ in 0..10 {
            d.on_ping_sent(now);
            now += 1000;
            d.on_tick(now);
        }
        assert_eq!(d.current_interval_ms(), 10);
    }

    #[test]
    fn interval_restores_after_recovery() {
        let mut d = detector();
        let mut now = 0;
        d.on_ping_sent(now);
        now += 1000;
        d.on_tick(now);
        assert!(d.current_interval_ms() < 100);
        let seq = d.on_ping_sent(now);
        d.on_response(seq, now + 5);
        assert_eq!(d.current_interval_ms(), 100);
    }

    #[test]
    fn late_response_to_expired_ping_is_ignored() {
        let mut d = detector();
        let seq = d.on_ping_sent(0);
        d.on_tick(1000); // expired
        assert_eq!(d.on_response(seq, 1001), None); // unknown seq now
        assert_eq!(d.window().loss_rate(), 1.0);
    }

    #[test]
    fn out_of_order_responses_are_detected() {
        let mut d = detector();
        let s1 = d.on_ping_sent(0);
        let s2 = d.on_ping_sent(10);
        // s2 answered before s1.
        d.on_response(s2, 15);
        d.on_response(s1, 20);
        assert!(d.window().out_of_order_rate() > 0.0);
    }

    #[test]
    fn unknown_seq_is_ignored() {
        let mut d = detector();
        assert_eq!(d.on_response(999, 5), None);
        assert!(d.window().is_empty());
    }

    #[test]
    fn evidence_tracks_last_answered_ping() {
        let mut d = detector();
        assert_eq!(d.last_evidence_ms(), None);
        let s1 = d.on_ping_sent(10);
        assert_eq!(d.last_evidence_ms(), Some(10)); // first ping is the fallback
        d.on_response(s1, 25);
        assert_eq!(d.last_evidence_ms(), Some(25));
        d.on_ping_sent(100);
        assert_eq!(d.last_evidence_ms(), Some(25)); // unanswered pings are not evidence
    }

    #[test]
    fn rtt_spikes_extend_the_timeout() {
        let mut d = detector();
        let mut now = 0;
        // Train the estimator on slow responses (rtt 40ms).
        for _ in 0..10 {
            let seq = d.on_ping_sent(now);
            d.on_response(seq, now + 40);
            now += 100;
        }
        // With srtt≈40 and rttvar settling, timeout > base 50ms floor.
        let seq = d.on_ping_sent(now);
        let _ = seq;
        assert!(d.on_tick(now + 51).is_none() || d.window().consecutive_losses() == 0);
    }
}
