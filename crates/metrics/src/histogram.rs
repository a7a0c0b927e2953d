//! Log2-bucketed value histogram.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::timer::Timer;

/// Number of buckets: bucket 0 holds the value `0`, bucket `i`
/// (1..=64) holds values in `[2^(i-1), 2^i - 1]`.
const BUCKETS: usize = 65;

struct Inner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A lock-free value distribution with power-of-two buckets.
///
/// Designed for latency measurements (microseconds or milliseconds)
/// where an exact distribution is unnecessary but order-of-magnitude
/// quantiles matter. Recording is a handful of relaxed atomic ops.
///
/// ```
/// let r = nb_metrics::Registry::new();
/// let h = r.histogram("latency_us");
/// for v in [100, 200, 400, 800] {
///     h.record(v);
/// }
/// let s = h.summary();
/// assert_eq!(s.count, 4);
/// assert_eq!(s.sum, 1500);
/// assert_eq!(s.min, 100);
/// assert_eq!(s.max, 800);
/// assert!(s.quantile(0.5) >= 100);
/// ```
#[derive(Clone)]
pub struct Histogram(Arc<Inner>);

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates a detached histogram (not attached to any registry).
    pub fn new() -> Self {
        Histogram(Arc::new(Inner {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }

    /// Records one observation of `value`.
    #[inline]
    pub fn record(&self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        };
        let inner = &self.0;
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
        inner.min.fetch_min(value, Ordering::Relaxed);
        inner.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Starts a [`Timer`] that records elapsed **microseconds** into
    /// this histogram when dropped.
    pub fn start_timer(&self) -> Timer {
        Timer::new(self.clone())
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Captures the current distribution.
    pub fn summary(&self) -> HistogramSummary {
        let inner = &self.0;
        let mut buckets = [0u64; BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(inner.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        let count = inner.count.load(Ordering::Relaxed);
        let min = inner.min.load(Ordering::Relaxed);
        HistogramSummary {
            count,
            sum: inner.sum.load(Ordering::Relaxed),
            // `record` bumps `count` before `fetch_min`, so a snapshot
            // racing the very first observation can see count > 0 with
            // `min` still at its u64::MAX sentinel; never leak it.
            min: if count == 0 || min == u64::MAX {
                0
            } else {
                min
            },
            max: inner.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .finish()
    }
}

/// An owned, point-in-time view of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values (wrapping on overflow).
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Per-bucket observation counts; bucket 0 holds the value `0`,
    /// bucket `i` holds values in `[2^(i-1), 2^i - 1]`.
    pub buckets: [u64; BUCKETS],
}

/// Inclusive lower bound of bucket `i`.
fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Inclusive upper bound of bucket `i`.
fn bucket_hi(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl HistogramSummary {
    /// An all-zero summary (no observations).
    pub fn empty() -> Self {
        HistogramSummary {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    /// The change between this (later) summary and an `earlier` one of
    /// the same histogram.
    ///
    /// `count`, `sum` and every bucket subtract exactly (saturating, so
    /// a restarted source degrades to "everything is new" instead of
    /// wrapping). `min`/`max` of the in-between window are not
    /// recoverable from two cumulative summaries, so they are estimated
    /// from the delta buckets' bounds — exact to bucket resolution —
    /// and zeroed when the delta is empty. When `earlier` is empty the
    /// delta is this summary verbatim (exact `min`/`max`).
    #[must_use]
    pub fn delta(&self, earlier: &HistogramSummary) -> HistogramSummary {
        if earlier.count == 0 {
            return self.clone();
        }
        let mut buckets = [0u64; BUCKETS];
        let mut lo_bucket = None;
        let mut hi_bucket = None;
        for (i, slot) in buckets.iter_mut().enumerate() {
            let d = self.buckets[i].saturating_sub(earlier.buckets[i]);
            *slot = d;
            if d > 0 {
                lo_bucket.get_or_insert(i);
                hi_bucket = Some(i);
            }
        }
        let count = self.count.saturating_sub(earlier.count);
        if count == 0 {
            return HistogramSummary::empty();
        }
        let max = hi_bucket.map_or(0, |i| bucket_hi(i).min(self.max));
        let min = lo_bucket.map_or(0, |i| bucket_lo(i).max(self.min)).min(max);
        HistogramSummary {
            count,
            sum: self.sum.wrapping_sub(earlier.sum),
            min,
            max,
            buckets,
        }
    }

    /// Re-accumulates a [`delta`][Self::delta] on top of this summary.
    ///
    /// Inverse of `delta` for `count`, `sum` and the buckets:
    /// `earlier.accumulate(&later.delta(&earlier))` reproduces `later`
    /// exactly in those fields. `min`/`max` combine conservatively
    /// (empty sides are ignored).
    #[must_use]
    pub fn accumulate(&self, delta: &HistogramSummary) -> HistogramSummary {
        let mut buckets = [0u64; BUCKETS];
        for (i, slot) in buckets.iter_mut().enumerate() {
            *slot = self.buckets[i].wrapping_add(delta.buckets[i]);
        }
        let min = match (self.count, delta.count) {
            (0, _) => delta.min,
            (_, 0) => self.min,
            _ => self.min.min(delta.min),
        };
        HistogramSummary {
            count: self.count.wrapping_add(delta.count),
            sum: self.sum.wrapping_add(delta.sum),
            min,
            max: self.max.max(delta.max),
            buckets,
        }
    }

    /// Mean of the observed values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) from the buckets.
    ///
    /// Returns the midpoint of the bucket in which the quantile
    /// falls, clamped to the observed `[min, max]` range; exact for
    /// the extremes, order-of-magnitude accurate in between.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let mid = if i == 0 {
                    0
                } else {
                    let lo = 1u64 << (i - 1);
                    let hi = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
                    lo + (hi - lo) / 2
                };
                // Defensive .min/.max instead of clamp(): a summary
                // assembled from racy or delta'd parts may carry
                // min > max, and clamp would panic on it.
                return mid.max(self.min).min(self.max.max(self.min));
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zeroed() {
        let h = Histogram::new();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn bucket_boundaries() {
        let h = Histogram::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(2); // bucket 2
        h.record(3); // bucket 2
        h.record(4); // bucket 3
        h.record(u64::MAX); // bucket 64
        let s = h.summary();
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 2);
        assert_eq!(s.buckets[3], 1);
        assert_eq!(s.buckets[64], 1);
        assert_eq!(s.count, 6);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.summary();
        let p50 = s.quantile(0.5);
        let p90 = s.quantile(0.9);
        let p99 = s.quantile(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        assert!(p50 >= s.min && p99 <= s.max);
        assert_eq!(s.quantile(0.0), s.min);
        assert_eq!(s.quantile(1.0), s.max);
    }

    #[test]
    fn delta_against_empty_is_identity() {
        let h = Histogram::new();
        h.record(5);
        h.record(300);
        let s = h.summary();
        assert_eq!(s.delta(&HistogramSummary::empty()), s);
    }

    #[test]
    fn delta_and_accumulate_round_trip_buckets() {
        let h = Histogram::new();
        h.record(1);
        h.record(1000);
        let earlier = h.summary();
        h.record(7);
        h.record(7);
        h.record(u64::MAX);
        let later = h.summary();
        let d = later.delta(&earlier);
        assert_eq!(d.count, 3);
        assert_eq!(d.sum, later.sum.wrapping_sub(earlier.sum));
        // min/max are bucket-resolution estimates bracketing the new
        // observations.
        assert!(d.min <= 7 && d.min >= 4, "min {}", d.min);
        assert_eq!(d.max, u64::MAX);
        let rebuilt = earlier.accumulate(&d);
        assert_eq!(rebuilt.count, later.count);
        assert_eq!(rebuilt.sum, later.sum);
        assert_eq!(rebuilt.buckets, later.buckets);
        assert_eq!(rebuilt.min, later.min);
        assert_eq!(rebuilt.max, later.max);
    }

    #[test]
    fn delta_of_identical_summaries_is_empty() {
        let h = Histogram::new();
        h.record(42);
        let s = h.summary();
        let d = s.delta(&s.clone());
        assert_eq!(d, HistogramSummary::empty());
    }

    #[test]
    fn single_value_quantiles_are_exact() {
        let h = Histogram::new();
        h.record(42);
        let s = h.summary();
        assert_eq!(s.quantile(0.5), 42);
        assert_eq!(s.quantile(0.99), 42);
        assert_eq!(s.mean(), 42.0);
    }
}
