//! Link-quality estimators feeding NETWORK_METRICS traces (§3.3).
//!
//! "The nature of the pings and the corresponding responses allow a
//! broker to determine the loss rates, latency and out-of-order
//! delivery rates over the link."

use std::collections::VecDeque;

/// Exponentially weighted RTT estimator (RFC 6298 shape: smoothed RTT
/// plus variance).
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt_ms: Option<f64>,
    rttvar_ms: f64,
    alpha: f64,
    beta: f64,
}

impl Default for RttEstimator {
    fn default() -> Self {
        RttEstimator {
            srtt_ms: None,
            rttvar_ms: 0.0,
            alpha: 0.125,
            beta: 0.25,
        }
    }
}

impl RttEstimator {
    /// Creates an estimator with default RFC 6298 gains.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one RTT sample (milliseconds).
    pub fn observe(&mut self, rtt_ms: f64) {
        match self.srtt_ms {
            None => {
                self.srtt_ms = Some(rtt_ms);
                self.rttvar_ms = rtt_ms / 2.0;
            }
            Some(srtt) => {
                self.rttvar_ms =
                    (1.0 - self.beta) * self.rttvar_ms + self.beta * (srtt - rtt_ms).abs();
                self.srtt_ms = Some((1.0 - self.alpha) * srtt + self.alpha * rtt_ms);
            }
        }
    }

    /// Smoothed RTT, if any sample has arrived.
    pub fn srtt_ms(&self) -> Option<f64> {
        self.srtt_ms
    }

    /// RTT variance estimate.
    pub fn rttvar_ms(&self) -> f64 {
        self.rttvar_ms
    }

    /// A conservative retransmission/suspicion timeout:
    /// `srtt + 4·rttvar`, floored at `min_ms`.
    pub fn timeout_ms(&self, min_ms: f64) -> f64 {
        match self.srtt_ms {
            Some(srtt) => (srtt + 4.0 * self.rttvar_ms).max(min_ms),
            None => min_ms,
        }
    }
}

/// Outcome of one ping in the sliding window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PingOutcome {
    /// Response arrived; RTT in ms, and whether it arrived in order.
    Answered {
        /// Round-trip time in milliseconds.
        rtt_ms: f64,
        /// False when a later ping's response overtook this one.
        in_order: bool,
    },
    /// No response within the deadline.
    Lost,
}

/// Sliding window over the last `capacity` ping outcomes. The paper's
/// broker keeps "the response times (and loss rates) associated with
/// the last 10 pings".
#[derive(Debug, Clone)]
pub struct PingWindow {
    window: VecDeque<PingOutcome>,
    capacity: usize,
}

impl PingWindow {
    /// Creates a window over the last `capacity` pings (the paper
    /// uses 10).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        PingWindow {
            window: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Records one outcome, evicting the oldest beyond capacity.
    pub fn record(&mut self, outcome: PingOutcome) {
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(outcome);
    }

    /// Fraction of pings in the window that were lost (0.0 when empty).
    pub fn loss_rate(&self) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        let lost = self
            .window
            .iter()
            .filter(|o| matches!(o, PingOutcome::Lost))
            .count();
        lost as f64 / self.window.len() as f64
    }

    /// Fraction of answered pings that arrived out of order.
    pub fn out_of_order_rate(&self) -> f64 {
        let answered: Vec<_> = self
            .window
            .iter()
            .filter_map(|o| match o {
                PingOutcome::Answered { in_order, .. } => Some(*in_order),
                PingOutcome::Lost => None,
            })
            .collect();
        if answered.is_empty() {
            return 0.0;
        }
        answered.iter().filter(|&&ord| !ord).count() as f64 / answered.len() as f64
    }

    /// Mean RTT over answered pings in the window.
    pub fn mean_rtt_ms(&self) -> Option<f64> {
        let rtts: Vec<f64> = self
            .window
            .iter()
            .filter_map(|o| match o {
                PingOutcome::Answered { rtt_ms, .. } => Some(*rtt_ms),
                PingOutcome::Lost => None,
            })
            .collect();
        if rtts.is_empty() {
            None
        } else {
            Some(rtts.iter().sum::<f64>() / rtts.len() as f64)
        }
    }

    /// Number of trailing consecutive losses (drives the paper's
    /// failure suspicion).
    pub fn consecutive_losses(&self) -> usize {
        self.window
            .iter()
            .rev()
            .take_while(|o| matches!(o, PingOutcome::Lost))
            .count()
    }

    /// Number of outcomes currently recorded.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether no outcomes are recorded.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_rtt_sample_initializes() {
        let mut e = RttEstimator::new();
        assert_eq!(e.srtt_ms(), None);
        e.observe(10.0);
        assert_eq!(e.srtt_ms(), Some(10.0));
        assert_eq!(e.rttvar_ms(), 5.0);
    }

    #[test]
    fn rtt_converges_toward_stable_samples() {
        let mut e = RttEstimator::new();
        for _ in 0..100 {
            e.observe(20.0);
        }
        let srtt = e.srtt_ms().unwrap();
        assert!((srtt - 20.0).abs() < 0.01, "srtt={srtt}");
        assert!(e.rttvar_ms() < 0.5);
    }

    #[test]
    fn rtt_spike_raises_variance() {
        let mut e = RttEstimator::new();
        for _ in 0..50 {
            e.observe(10.0);
        }
        let var_before = e.rttvar_ms();
        e.observe(100.0);
        assert!(e.rttvar_ms() > var_before);
        assert!(e.srtt_ms().unwrap() > 10.0);
    }

    #[test]
    fn timeout_floors_at_minimum() {
        let mut e = RttEstimator::new();
        assert_eq!(e.timeout_ms(250.0), 250.0);
        e.observe(1.0);
        assert_eq!(e.timeout_ms(250.0), 250.0);
        for _ in 0..20 {
            e.observe(200.0);
        }
        assert!(e.timeout_ms(250.0) > 250.0);
    }

    #[test]
    fn window_evicts_oldest() {
        let mut w = PingWindow::new(3);
        for _ in 0..3 {
            w.record(PingOutcome::Lost);
        }
        assert_eq!(w.loss_rate(), 1.0);
        for _ in 0..3 {
            w.record(PingOutcome::Answered {
                rtt_ms: 1.0,
                in_order: true,
            });
        }
        assert_eq!(w.loss_rate(), 0.0);
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn loss_rate_is_fractional() {
        let mut w = PingWindow::new(10);
        for i in 0..10 {
            if i % 2 == 0 {
                w.record(PingOutcome::Lost);
            } else {
                w.record(PingOutcome::Answered {
                    rtt_ms: 2.0,
                    in_order: true,
                });
            }
        }
        assert_eq!(w.loss_rate(), 0.5);
    }

    #[test]
    fn out_of_order_rate_only_counts_answered() {
        let mut w = PingWindow::new(10);
        w.record(PingOutcome::Lost);
        w.record(PingOutcome::Answered {
            rtt_ms: 1.0,
            in_order: false,
        });
        w.record(PingOutcome::Answered {
            rtt_ms: 1.0,
            in_order: true,
        });
        assert_eq!(w.out_of_order_rate(), 0.5);
    }

    #[test]
    fn consecutive_losses_track_the_tail() {
        let mut w = PingWindow::new(10);
        w.record(PingOutcome::Answered {
            rtt_ms: 1.0,
            in_order: true,
        });
        w.record(PingOutcome::Lost);
        w.record(PingOutcome::Lost);
        assert_eq!(w.consecutive_losses(), 2);
        w.record(PingOutcome::Answered {
            rtt_ms: 1.0,
            in_order: true,
        });
        assert_eq!(w.consecutive_losses(), 0);
    }

    #[test]
    fn empty_window_metrics_are_neutral() {
        let w = PingWindow::new(5);
        assert!(w.is_empty());
        assert_eq!(w.loss_rate(), 0.0);
        assert_eq!(w.out_of_order_rate(), 0.0);
        assert_eq!(w.mean_rtt_ms(), None);
        assert_eq!(w.consecutive_losses(), 0);
    }

    #[test]
    fn mean_rtt_over_answered_only() {
        let mut w = PingWindow::new(5);
        w.record(PingOutcome::Answered {
            rtt_ms: 2.0,
            in_order: true,
        });
        w.record(PingOutcome::Lost);
        w.record(PingOutcome::Answered {
            rtt_ms: 4.0,
            in_order: true,
        });
        assert_eq!(w.mean_rtt_ms(), Some(3.0));
    }
}
