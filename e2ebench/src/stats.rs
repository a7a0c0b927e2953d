//! The benchmark's own arithmetic: percentiles, failure ratios, the
//! host-speed calibration, busy time from metric-snapshot deltas, and
//! the latency waterfall.

use nb_metrics::Snapshot;

/// Fewest samples that must lie strictly above a reported percentile.
/// A p99 over 200 samples would rest on two observations; such a
/// percentile is not reported at all.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank `q`-percentile (`0 < q < 1`) of `samples`, or `None`
/// when fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n - rank < MIN_TAIL {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of `values` without the highest and the lowest one (all of
/// them when there are fewer than three; 0 when empty). One stalled
/// segment moves it by a share, not by its whole excess.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let kept = if sorted.len() >= 3 {
        &sorted[1..sorted.len() - 1]
    } else {
        &sorted[..]
    };
    per_op(kept.iter().sum(), kept.len() as u64)
}

/// Completions per second between the first and the last completion
/// (times in seconds), so an open loop reads its offered rate as
/// measured rather than a whole count. 0 with fewer than two.
pub fn completion_rate(done_at_s: &[f64]) -> f64 {
    let first = done_at_s.iter().copied().fold(f64::INFINITY, f64::min);
    let last = done_at_s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if done_at_s.len() < 2 || last <= first {
        return 0.0;
    }
    (done_at_s.len() - 1) as f64 / (last - first)
}

/// Rounds of [`speed_kernel`] in one calibration.
const CALIBRATION_ROUNDS: u32 = 200_000;
/// What one calibration takes at the reference speed, seconds: about
/// its time on one vCPU of an idle 2-vCPU Intel Xeon VM.
pub const REFERENCE_CALIBRATION_S: f64 = 0.01;

/// The benchmark's own fixed compute work: 512-bit schoolbook
/// multiply-accumulate rounds on 64-bit limbs, the arithmetic that RSA
/// key generation spends its time in. It shares no code with the
/// program, so a change to the program cannot move it.
fn speed_kernel(rounds: u32) -> u64 {
    let mut a = [0x9e37_79b9_7f4a_7c15u64; 8];
    let b = [0xbf58_476d_1ce4_e5b9u64, 3, 5, 7, 11, 13, 17, 19];
    let mut acc = 0u64;
    for r in 0..rounds {
        let mut t = [0u64; 16];
        for i in 0..8 {
            let mut carry = 0u128;
            for j in 0..8 {
                let s = t[i + j] as u128 + a[i] as u128 * b[j] as u128 + carry;
                t[i + j] = s as u64;
                carry = s >> 64;
            }
            t[i + 8] = carry as u64;
        }
        a.copy_from_slice(&t[4..12]);
        a[0] ^= u64::from(r);
        acc ^= t[7];
    }
    acc
}

/// Times one calibration: the host's current speed, as the wall time
/// of [`CALIBRATION_ROUNDS`] rounds of the fixed kernel.
pub fn calibration_s() -> f64 {
    let t = std::time::Instant::now();
    std::hint::black_box(speed_kernel(std::hint::black_box(CALIBRATION_ROUNDS)));
    t.elapsed().as_secs_f64()
}

/// `wall_s` at the reference speed: scaled by the reference
/// calibration time over the calibration time measured around it.
pub fn at_reference_speed(wall_s: f64, calibration_s: f64) -> f64 {
    if calibration_s > 0.0 {
        wall_s * REFERENCE_CALIBRATION_S / calibration_s
    } else {
        wall_s
    }
}

/// Failed operations over attempted ones (0 when nothing was attempted).
pub fn fail_ratio(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed.min(attempted) as f64 / attempted as f64
    }
}

/// Counter growth between two snapshots of the same source.
pub fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> u64 {
    after
        .counter(name)
        .unwrap_or(0)
        .saturating_sub(before.counter(name).unwrap_or(0))
}

/// Observations and summed value a histogram gained between two
/// snapshots: `(count, sum)`. For the `crypto.*_us` histograms the sum
/// is the busy time spent in the operation, in microseconds.
pub fn histogram_delta(before: &Snapshot, after: &Snapshot, name: &str) -> (u64, u64) {
    match (before.histogram(name), after.histogram(name)) {
        (Some(b), Some(a)) => {
            let d = a.delta(b);
            (d.count, d.sum)
        }
        (None, Some(a)) => (a.count, a.sum),
        _ => (0, 0),
    }
}

/// `numerator / ops`, or 0 when no operation completed.
pub fn per_op(numerator: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        numerator / ops as f64
    }
}

/// One stage on an operation's blocking path: the replayed (or
/// measured) self time of one call and how often the path makes it.
#[derive(Debug, Clone)]
pub struct Stage {
    /// Layer and call, e.g. `crypto.rsa_sign`.
    pub name: String,
    /// Self time of one call, microseconds.
    pub self_us: f64,
    /// Calls per operation along the blocking path.
    pub per_op: f64,
}

impl Stage {
    /// Builds a stage.
    pub fn new(name: &str, self_us: f64, per_op: f64) -> Stage {
        Stage {
            name: name.to_string(),
            self_us,
            per_op,
        }
    }

    /// Busy time this stage adds to one operation, microseconds.
    pub fn busy_us(&self) -> f64 {
        self.self_us * self.per_op
    }
}

/// An operation's latency split into per-layer busy time and the
/// remainder spent waiting (queues, thread hand-offs, scheduling).
#[derive(Debug, Clone)]
pub struct Waterfall {
    /// Blocking-path stages.
    pub stages: Vec<Stage>,
    /// Sum of the stages' busy time, microseconds.
    pub busy_us: f64,
    /// Median latency minus busy time, microseconds. Negative when the
    /// replayed self times overstate the in-situ cost.
    pub wait_us: f64,
    /// The median the waterfall reconciles to, microseconds.
    pub median_us: f64,
}

impl Waterfall {
    /// Reconciles `stages` against the operation's median latency.
    pub fn new(stages: Vec<Stage>, median_us: f64) -> Waterfall {
        let busy_us: f64 = stages.iter().map(Stage::busy_us).sum();
        Waterfall {
            stages,
            busy_us,
            wait_us: median_us - busy_us,
            median_us,
        }
    }

    /// Human-readable table, one line per stage.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.stages {
            out.push_str(&format!(
                "  {:<28} {:>10.2} us x {:>7.3} = {:>10.2} us\n",
                s.name,
                s.self_us,
                s.per_op,
                s.busy_us()
            ));
        }
        out.push_str(&format!(
            "  {:<28} {:>35.2} us\n",
            "busy (sum)", self.busy_us
        ));
        out.push_str(&format!(
            "  {:<28} {:>35.2} us\n",
            "wait (median - busy)", self.wait_us
        ));
        out.push_str(&format!("  {:<28} {:>35.2} us\n", "median", self.median_us));
        out
    }
}

/// Deterministic 64-bit generator (SplitMix64) for workload inputs:
/// the same seed always yields the same inputs.
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    /// Generator seeded with `seed`.
    pub fn new(seed: u64) -> SeedRng {
        SeedRng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform value in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nb_metrics::Registry;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        // Order of the input does not matter.
        let mut reversed = samples.clone();
        reversed.reverse();
        assert_eq!(percentile(&reversed, 0.9), Some(90.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 of 100 samples has one sample beyond it.
        assert_eq!(percentile(&samples, 0.99), None);
        // p90 of 100 has exactly ten beyond it: allowed.
        assert!(percentile(&samples, 0.9).is_some());
        // p90 of 99 has fewer than ten beyond it.
        assert_eq!(percentile(&samples[..99], 0.9), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.99), Some(990.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn trimmed_mean_leaves_out_the_extremes() {
        // Six segment p50s, one stalled: the stall and the fastest are
        // left out.
        assert_eq!(
            trimmed_mean(&[300.0, 310.0, 650.0, 290.0, 320.0, 280.0]),
            305.0
        );
        // Stacks at two levels average rather than flip.
        assert_eq!(trimmed_mean(&[95.0, 125.0, 95.0, 125.0, 125.0]), 115.0);
        assert_eq!(trimmed_mean(&[10.0, 30.0]), 20.0);
        assert_eq!(trimmed_mean(&[]), 0.0);
    }

    #[test]
    fn completion_rate_is_measured() {
        // 100 completions spread over 4 s: 99 intervals.
        let done: Vec<f64> = (0..100).map(|i| i as f64 * 0.04).collect();
        assert!((completion_rate(&done) - 99.0 / 3.96).abs() < 1e-9);
        // Eleven completions 0.09 s apart: measured, not counted.
        let spaced: Vec<f64> = (0..11).map(|i| i as f64 * 0.09).collect();
        assert!((completion_rate(&spaced) - 10.0 / 0.9).abs() < 1e-9);
        assert_eq!(completion_rate(&[0.5]), 0.0);
    }

    #[test]
    fn fail_ratio_bounds() {
        assert_eq!(fail_ratio(0, 0), 0.0);
        assert_eq!(fail_ratio(200, 0), 0.0);
        assert_eq!(fail_ratio(200, 50), 0.25);
        // More failures than attempts cannot exceed 1.
        assert_eq!(fail_ratio(10, 20), 1.0);
    }

    #[test]
    fn reference_speed_scales_by_the_calibration() {
        // A host at half the reference speed takes twice as long.
        let slow = 2.0 * REFERENCE_CALIBRATION_S;
        assert!((at_reference_speed(1.4, slow) - 0.7).abs() < 1e-12);
        assert_eq!(at_reference_speed(0.7, REFERENCE_CALIBRATION_S), 0.7);
        assert_eq!(at_reference_speed(0.7, 0.0), 0.7);
        // The kernel's work is fixed.
        assert_eq!(speed_kernel(1000), speed_kernel(1000));
        assert!(calibration_s() > 0.0);
    }

    #[test]
    fn snapshot_deltas_give_busy_time() {
        let registry = Registry::new();
        let hist = registry.histogram("crypto.rsa.sign_us");
        let ops = registry.counter("ops");
        hist.record(300);
        ops.add(5);
        let before = registry.snapshot();
        for v in [320, 340, 360] {
            hist.record(v);
        }
        ops.add(3);
        let after = registry.snapshot();
        assert_eq!(
            histogram_delta(&before, &after, "crypto.rsa.sign_us"),
            (3, 1020)
        );
        assert_eq!(counter_delta(&before, &after, "ops"), 3);
        assert_eq!(counter_delta(&before, &after, "absent"), 0);
        assert_eq!(histogram_delta(&before, &after, "absent"), (0, 0));
        // Busy per operation: 1020 us over 3 operations.
        assert_eq!(per_op(1020.0, 3), 340.0);
        assert_eq!(per_op(1020.0, 0), 0.0);
    }

    #[test]
    fn waterfall_sums_to_the_median() {
        let stages = vec![
            Stage::new("crypto.rsa_sign", 330.0, 1.0),
            Stage::new("crypto.rsa_verify", 18.0, 3.0),
            Stage::new("transport.tcp_hop", 25.0, 4.0),
        ];
        let w = Waterfall::new(stages, 480.0);
        assert_eq!(w.busy_us, 330.0 + 54.0 + 100.0);
        assert_eq!(w.wait_us, 480.0 - 484.0);
        assert!((w.busy_us + w.wait_us - 480.0).abs() < 1e-9);
        assert!(w.render().contains("crypto.rsa_verify"));
    }

    #[test]
    fn seeded_inputs_repeat() {
        let mut a = SeedRng::new(7);
        let mut b = SeedRng::new(7);
        let mut c = SeedRng::new(8);
        let xa: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let xb: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        let xc: Vec<u64> = (0..4).map(|_| c.next_u64()).collect();
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
        assert!((0..100).all(|_| a.below(3) < 3 && a.unit() < 1.0));
    }
}
