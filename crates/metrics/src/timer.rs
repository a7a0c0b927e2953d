//! Scoped latency timing.

use std::time::Instant;

use crate::histogram::Histogram;

/// A drop guard that records elapsed wall-clock **microseconds** into
/// a [`Histogram`].
///
/// Created by [`Histogram::start_timer`]; recording happens when the
/// guard is dropped (or immediately via [`Timer::observe`]).
///
/// ```
/// let r = nb_metrics::Registry::new();
/// let h = r.histogram("op_us");
/// {
///     let _t = h.start_timer();
///     // ... timed work ...
/// } // recorded here
/// assert_eq!(h.summary().count, 1);
/// ```
#[derive(Debug)]
pub struct Timer {
    histogram: Histogram,
    start: Instant,
    done: bool,
}

impl Timer {
    pub(crate) fn new(histogram: Histogram) -> Self {
        Timer {
            histogram,
            start: Instant::now(),
            done: false,
        }
    }

    /// Records the elapsed time now and returns it in microseconds.
    /// The drop handler will not record a second observation.
    pub fn observe(mut self) -> u64 {
        let us = self.start.elapsed().as_micros() as u64;
        self.histogram.record(us);
        self.done = true;
        us
    }

    /// Discards the measurement without recording.
    pub fn cancel(mut self) {
        self.done = true;
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        if !self.done {
            self.histogram
                .record(self.start.elapsed().as_micros() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    #[test]
    fn drop_records_once() {
        let r = Registry::new();
        let h = r.histogram("t");
        {
            let _t = h.start_timer();
        }
        assert_eq!(h.summary().count, 1);
    }

    #[test]
    fn observe_records_once_and_returns_elapsed() {
        let r = Registry::new();
        let h = r.histogram("t");
        let t = h.start_timer();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let us = t.observe();
        assert!(us >= 1_000, "expected >=1ms elapsed, got {us}us");
        assert_eq!(h.summary().count, 1);
    }

    #[test]
    fn cancel_discards() {
        let r = Registry::new();
        let h = r.histogram("t");
        h.start_timer().cancel();
        assert_eq!(h.summary().count, 0);
    }
}
