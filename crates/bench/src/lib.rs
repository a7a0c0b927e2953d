//! # nb-bench — experiment harnesses for the paper's evaluation (§6)
//!
//! Every table and figure of the paper maps to a binary in
//! `src/bin/` (see DESIGN.md's per-experiment index):
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Table 3 / Figure 2 — trace routing overhead vs hops | `hops_table` |
//! | Table 3 — security & authorization op costs | `crypto_table` |
//! | Table 3 — key distribution overhead | `keydist_table` |
//! | Figure 4 — tracing while increasing trackers | `trackers_sweep` |
//! | Figure 5 — reduction of signing costs | `signing_opt` |
//! | Table 4 — increasing traced entities | `entities_table` |
//! | §1 message-complexity claim (ablation) | `baseline_compare` |
//!
//! `cargo bench -p nb-bench` additionally runs Criterion micro-benches
//! over the crypto primitives and the failure detector, plus a
//! reduced-sample pass over all the tables.
//!
//! The repo's own cost claims each have a report binary that writes a
//! `BENCH_*.json` at the repo root, checked by `ci/check_bench_json.py`:
//!
//! | Claim | Binary | Bar |
//! |---|---|---|
//! | data-plane throughput, exact delivery, decode-free routing | `throughput_report` | — |
//! | runtime monitors on unmonitored traffic | `monitor_report` | 10% budget |
//! | the cluster telemetry plane | `obs_report` | 2% budget |
//! | session keys vs per-trace RSA / token verify; keyring on plain traffic | `session_report` | ≥ 10×, > 1×; 5% budget |
//! | durability on the data plane; replay and compaction | `recovery_report` | 5% budget |
//!
//! These five share the [`loopback`] harness and its trial policy:
//! [`loopback::TRIALS`] interleaved trials per configuration, each
//! section recording the median, min, max and interquartile distance
//! of msgs/sec, and overhead gates on medians that fail only beyond
//! both the budget and the baseline's own spread. `metrics_report`,
//! `trace_report` and `chaos_report` exercise the metrics, causal
//! tracing and link supervision end to end.
//!
//! This module holds the shared measurement machinery for the paper's
//! tables: summary statistics matching the paper's mean/σ/stderr
//! columns and the load-marker latency probe used for "trace routing
//! overhead".

pub mod loopback;

use nb_tracing::entity::TracedEntity;
use nb_tracing::harness::Deployment;
use nb_tracing::tracker::Tracker;
use nb_wire::trace::LoadInformation;
use std::time::{Duration, Instant};

/// Mean / standard deviation / standard error, as reported in the
/// paper's tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Standard error of the mean.
    pub std_err: f64,
    /// Sample count.
    pub n: usize,
}

impl Stats {
    /// Computes summary statistics over `samples`.
    pub fn from_samples(samples: &[f64]) -> Stats {
        let n = samples.len();
        if n == 0 {
            return Stats {
                mean: 0.0,
                std_dev: 0.0,
                std_err: 0.0,
                n: 0,
            };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let std_dev = var.sqrt();
        Stats {
            mean,
            std_dev,
            std_err: std_dev / (n as f64).sqrt(),
            n,
        }
    }
}

/// Prints a table row in the paper's `Operation | Mean | Std.Dev |
/// Std.Err` format (values in the unit the caller measured).
pub fn print_row(label: &str, stats: &Stats) {
    println!(
        "{label:<42} {:>10.3} {:>10.3} {:>10.3}   (n={})",
        stats.mean, stats.std_dev, stats.std_err, stats.n
    );
}

/// Prints the table header matching [`print_row`].
pub fn print_header(title: &str, unit: &str) {
    println!("\n{title}");
    println!(
        "{:<42} {:>10} {:>10} {:>10}",
        "Operation",
        format!("Mean {unit}"),
        format!("σ {unit}"),
        format!("SE {unit}")
    );
    println!("{}", "-".repeat(80));
}

/// Number of samples per experiment point; override with the
/// `NB_BENCH_SAMPLES` environment variable (the `paper_tables` bench
/// target sets a small value to keep `cargo bench` quick).
pub fn sample_count(default: usize) -> usize {
    std::env::var("NB_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Waits until the hosting engine has registered `min` interested
/// trackers for `entity_id`.
pub fn wait_interest(dep: &Deployment, broker_idx: usize, entity_id: &str, min: usize) -> bool {
    loopback::wait_until(Duration::from_secs(30), || {
        dep.engine(broker_idx).interest_count(entity_id) >= min
    })
}

/// The paper's "trace routing overhead": time from the traced entity
/// emitting a trace-worthy event to the measuring tracker observing
/// it. Implemented with load reports carrying a unique workload
/// marker; the tracker side spins on its availability view.
///
/// Entity and measuring tracker run in the same process — the paper's
/// trick "to obviate the need for clock synchronizations".
pub fn measure_trace_latencies(
    entity: &TracedEntity,
    tracker: &Tracker,
    samples: usize,
    warmup: usize,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(samples);
    for i in 0..(samples + warmup) {
        let marker = 1_000_000 + i as u64;
        let t0 = Instant::now();
        if entity
            .report_load(LoadInformation {
                cpu_percent: 50.0,
                memory_used_bytes: 1 << 30,
                memory_total_bytes: 4 << 30,
                workload: marker,
            })
            .is_err()
        {
            continue;
        }
        let deadline = t0 + Duration::from_secs(10);
        let mut seen = false;
        while Instant::now() < deadline {
            let got = tracker
                .view()
                .get(entity.id())
                .and_then(|r| r.load)
                .map(|l| l.workload);
            if got == Some(marker) {
                seen = true;
                break;
            }
            std::hint::spin_loop();
            std::thread::yield_now();
        }
        if seen && i >= warmup {
            out.push(t0.elapsed().as_secs_f64() * 1000.0);
        }
    }
    out
}

/// Prints a metrics epilogue for a finished experiment: the given
/// snapshot rendered as an aligned table under a titled separator.
///
/// Benches that tear deployments down per measurement point pass the
/// process-wide [`nb_metrics::global`] snapshot (crypto, token and
/// transport aggregates survive the deployments); benches holding one
/// long-lived [`Deployment`] pass `dep.metrics_snapshot()` for the
/// per-broker view as well.
pub fn print_metrics_epilogue(title: &str, snapshot: &nb_metrics::Snapshot) {
    println!("\n== metrics: {title} ==");
    if snapshot.is_empty() {
        println!("(no metrics recorded)");
    } else {
        println!("{}", snapshot.to_table());
    }
}

/// Waits (spinning) until `tracker` has a trace key, returning the
/// elapsed time — the per-tracker component of the paper's "key
/// distribution overhead".
pub fn wait_trace_key(tracker: &Tracker, timeout: Duration) -> Option<f64> {
    let t0 = Instant::now();
    let deadline = t0 + timeout;
    while Instant::now() < deadline {
        if tracker.has_trace_key() {
            return Some(t0.elapsed().as_secs_f64() * 1000.0);
        }
        std::thread::yield_now();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_known_samples() {
        let s = Stats::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-9);
        // Sample std dev of this classic set is ~2.138.
        assert!((s.std_dev - 2.138).abs() < 0.01);
        assert_eq!(s.n, 8);
        assert!((s.std_err - s.std_dev / (8f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn stats_degenerate_cases() {
        let empty = Stats::from_samples(&[]);
        assert_eq!(empty.n, 0);
        assert_eq!(empty.mean, 0.0);
        let single = Stats::from_samples(&[3.5]);
        assert_eq!(single.mean, 3.5);
        assert_eq!(single.std_dev, 0.0);
    }

    #[test]
    fn sample_count_env_override() {
        std::env::remove_var("NB_BENCH_SAMPLES");
        assert_eq!(sample_count(50), 50);
    }
}
