//! The naive all-to-all heartbeat scheme (paper §1).
//!
//! "If there are N entities within the system, with each of them
//! issuing one message at regular intervals, every entity within the
//! system receives (N−1) messages. If every entity issues one such
//! message per second, there would be N×(N−1) messages within the
//! system every second."
//!
//! This simulator executes the scheme round by round so benches can
//! count messages and measure time-to-detection against the tracing
//! scheme.

use std::collections::HashMap;

/// Naive-scheme parameters.
#[derive(Debug, Clone)]
pub struct NaiveConfig {
    /// Heartbeat period in ms.
    pub period_ms: u64,
    /// An entity is deemed failed after this many missed periods.
    pub miss_threshold: u32,
}

impl Default for NaiveConfig {
    fn default() -> Self {
        NaiveConfig {
            period_ms: 1000,
            miss_threshold: 3,
        }
    }
}

#[derive(Debug)]
struct Member {
    alive: bool,
    /// Last heartbeat time observed by each peer, keyed by observer.
    last_seen_by: HashMap<usize, u64>,
}

/// A round-driven all-to-all heartbeat simulation.
#[derive(Debug)]
pub struct NaiveHeartbeatSystem {
    config: NaiveConfig,
    members: Vec<Member>,
    now_ms: u64,
    messages_sent: u64,
}

impl NaiveHeartbeatSystem {
    /// Creates a system of `n` live members at time zero.
    pub fn new(n: usize, config: NaiveConfig) -> Self {
        let members = (0..n)
            .map(|i| Member {
                alive: true,
                last_seen_by: (0..n).filter(|&j| j != i).map(|j| (j, 0)).collect(),
            })
            .collect();
        NaiveHeartbeatSystem {
            config,
            members,
            now_ms: 0,
            messages_sent: 0,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the system has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Current simulated time.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Total heartbeat messages exchanged so far.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Messages generated per round with the current live population:
    /// every live member sends to every other member.
    pub fn messages_per_round(&self) -> u64 {
        let live = self.members.iter().filter(|m| m.alive).count() as u64;
        let n = self.members.len() as u64;
        live * n.saturating_sub(1)
    }

    /// Kills a member (it stops heartbeating).
    pub fn kill(&mut self, idx: usize) {
        self.members[idx].alive = false;
    }

    /// Revives a member.
    pub fn revive(&mut self, idx: usize) {
        self.members[idx].alive = true;
    }

    /// Advances one heartbeat period: live members broadcast, every
    /// member updates its view.
    #[allow(clippy::needless_range_loop)] // sender/receiver index pairs
    pub fn run_round(&mut self) {
        self.now_ms += self.config.period_ms;
        let now = self.now_ms;
        let n = self.members.len();
        let alive: Vec<bool> = self.members.iter().map(|m| m.alive).collect();
        for sender in 0..n {
            if !alive[sender] {
                continue;
            }
            for receiver in 0..n {
                if receiver == sender {
                    continue;
                }
                self.messages_sent += 1;
                self.members[sender].last_seen_by.insert(receiver, now);
            }
        }
    }

    /// Whether `observer` currently considers `target` failed.
    pub fn considers_failed(&self, observer: usize, target: usize) -> bool {
        let last = self.members[target]
            .last_seen_by
            .get(&observer)
            .copied()
            .unwrap_or(0);
        let silence = self.now_ms.saturating_sub(last);
        silence > self.config.miss_threshold as u64 * self.config.period_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_complexity_is_quadratic() {
        // The paper's N×(N−1) claim, verbatim.
        for n in [2usize, 5, 10, 30] {
            let mut sys = NaiveHeartbeatSystem::new(n, NaiveConfig::default());
            sys.run_round();
            assert_eq!(sys.messages_sent(), (n * (n - 1)) as u64, "n={n}");
            assert_eq!(sys.messages_per_round(), (n * (n - 1)) as u64);
        }
    }

    #[test]
    fn live_members_are_not_suspected() {
        let mut sys = NaiveHeartbeatSystem::new(4, NaiveConfig::default());
        for _ in 0..10 {
            sys.run_round();
        }
        for observer in 0..4 {
            for target in 0..4 {
                if observer != target {
                    assert!(!sys.considers_failed(observer, target));
                }
            }
        }
    }

    #[test]
    fn dead_member_is_detected_after_threshold() {
        let config = NaiveConfig {
            period_ms: 1000,
            miss_threshold: 3,
        };
        let mut sys = NaiveHeartbeatSystem::new(3, config);
        sys.run_round();
        sys.kill(2);
        // Not yet failed within the threshold.
        for _ in 0..3 {
            sys.run_round();
            assert!(!sys.considers_failed(0, 2));
        }
        sys.run_round(); // 4th silent period exceeds 3×period
        assert!(sys.considers_failed(0, 2));
        assert!(sys.considers_failed(1, 2));
        // Live members still look fine.
        assert!(!sys.considers_failed(0, 1));
    }

    #[test]
    fn dead_members_stop_sending() {
        let mut sys = NaiveHeartbeatSystem::new(10, NaiveConfig::default());
        sys.run_round();
        let full_round = sys.messages_sent();
        sys.kill(0);
        sys.run_round();
        let partial = sys.messages_sent() - full_round;
        assert_eq!(partial, 9 * 9); // 9 live senders × 9 receivers
    }

    #[test]
    fn revival_resumes_heartbeats() {
        let config = NaiveConfig {
            period_ms: 1000,
            miss_threshold: 1,
        };
        let mut sys = NaiveHeartbeatSystem::new(2, config);
        sys.kill(1);
        sys.run_round();
        sys.run_round();
        assert!(sys.considers_failed(0, 1));
        sys.revive(1);
        sys.run_round();
        assert!(!sys.considers_failed(0, 1));
    }
}
