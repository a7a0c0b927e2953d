//! Injectable time source.
//!
//! The paper relies on NTP-synchronized wall clocks (token validity,
//! ping timestamps). Production code uses [`SystemClock`];
//! failure-detection and expiry tests use [`MockClock`], which is
//! advanced explicitly, making timing-sensitive behaviour
//! deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

/// A source of wall-clock time in milliseconds since the Unix epoch.
pub trait Clock: Send + Sync {
    /// Current time, ms since epoch.
    fn now_ms(&self) -> u64;
}

/// The real system clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now_ms(&self) -> u64 {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("system clock before Unix epoch")
            .as_millis() as u64
    }
}

/// A manually advanced clock for deterministic tests.
#[derive(Debug, Clone, Default)]
pub struct MockClock {
    now: Arc<AtomicU64>,
}

impl MockClock {
    /// Creates a clock reading `start_ms`.
    pub fn new(start_ms: u64) -> Self {
        MockClock {
            now: Arc::new(AtomicU64::new(start_ms)),
        }
    }

    /// Advances the clock by `delta_ms`.
    pub fn advance(&self, delta_ms: u64) {
        self.now.fetch_add(delta_ms, Ordering::SeqCst);
    }

    /// Sets the clock to an absolute instant.
    pub fn set(&self, now_ms: u64) {
        self.now.store(now_ms, Ordering::SeqCst);
    }
}

impl Clock for MockClock {
    fn now_ms(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

/// Shared, dynamically dispatched clock handle.
pub type SharedClock = Arc<dyn Clock>;

/// Convenience constructor for a shared system clock.
pub fn system_clock() -> SharedClock {
    Arc::new(SystemClock)
}

/// A clock-driven periodic schedule.
///
/// `due()` is edge-triggered against the injected [`Clock`]: it
/// returns `true` at most once per elapsed interval and is safe to
/// poll from several threads (first poller wins the tick). Because it
/// reads the shared clock rather than a thread timer, schedules built
/// on a [`MockClock`] fire deterministically when tests advance
/// simulated time — this is what gives the telemetry publish cadence
/// (`nb-obs`) reproducible sequence numbers under the sim transport.
pub struct Ticker {
    clock: SharedClock,
    interval_ms: u64,
    next_due: AtomicU64,
}

impl std::fmt::Debug for Ticker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticker")
            .field("interval_ms", &self.interval_ms)
            .field("next_due", &self.next_due)
            .finish()
    }
}

impl Ticker {
    /// Creates a schedule firing every `interval_ms`, first due one
    /// full interval from now. `interval_ms` is clamped to ≥ 1.
    pub fn new(clock: SharedClock, interval_ms: u64) -> Self {
        let interval_ms = interval_ms.max(1);
        let next = clock.now_ms() + interval_ms;
        Ticker {
            clock,
            interval_ms,
            next_due: AtomicU64::new(next),
        }
    }

    /// The configured interval in milliseconds.
    pub fn interval_ms(&self) -> u64 {
        self.interval_ms
    }

    /// Returns `true` exactly once per due tick.
    ///
    /// If more than one interval elapsed since the last poll the
    /// schedule re-anchors at `now + interval` (one tick fires, missed
    /// ones are skipped) — a slow poller degrades to a lower cadence
    /// instead of bursting.
    pub fn due(&self) -> bool {
        let now = self.clock.now_ms();
        loop {
            let next = self.next_due.load(Ordering::SeqCst);
            if now < next {
                return false;
            }
            if self
                .next_due
                .compare_exchange(
                    next,
                    now + self.interval_ms,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                return true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotonic_enough() {
        let c = SystemClock;
        let a = c.now_ms();
        let b = c.now_ms();
        assert!(b >= a);
        // Sanity: after 2020-01-01.
        assert!(a > 1_577_836_800_000);
    }

    #[test]
    fn mock_clock_advances_explicitly() {
        let c = MockClock::new(1000);
        assert_eq!(c.now_ms(), 1000);
        c.advance(500);
        assert_eq!(c.now_ms(), 1500);
        c.set(99);
        assert_eq!(c.now_ms(), 99);
    }

    #[test]
    fn mock_clock_clones_share_state() {
        let c = MockClock::new(0);
        let c2 = c.clone();
        c.advance(10);
        assert_eq!(c2.now_ms(), 10);
    }

    #[test]
    fn ticker_fires_once_per_interval() {
        let mock = MockClock::new(1000);
        let t = Ticker::new(Arc::new(mock.clone()), 100);
        assert!(!t.due());
        mock.advance(99);
        assert!(!t.due());
        mock.advance(1);
        assert!(t.due());
        assert!(!t.due(), "edge-triggered: one true per tick");
        mock.advance(100);
        assert!(t.due());
    }

    #[test]
    fn ticker_skips_missed_intervals() {
        let mock = MockClock::new(0);
        let t = Ticker::new(Arc::new(mock.clone()), 10);
        mock.advance(1000);
        assert!(t.due());
        assert!(!t.due(), "missed ticks are skipped, not burst");
        mock.advance(9);
        assert!(!t.due());
        mock.advance(1);
        assert!(t.due(), "the next tick is one interval after the poll");
    }

    #[test]
    fn ticker_zero_interval_is_clamped() {
        let mock = MockClock::new(0);
        let t = Ticker::new(Arc::new(mock.clone()), 0);
        assert_eq!(t.interval_ms(), 1);
        mock.advance(1);
        assert!(t.due());
    }
}
