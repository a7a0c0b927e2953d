//! **Figure 4** — tracing while increasing the number of trackers.
//!
//! The paper's topology (Figure 3): one traced entity; trackers are
//! added 10 at a time, with each group of 10 behind its own broker
//! (they were "hosted on different machines"). The measuring tracker
//! reports the trace time as the fleet grows.
//!
//! Expected shape (paper): "the trace time increases very slowly with
//! an increase in the number of trackers" — fan-out happens inside the
//! broker network, not at the traced entity.

#![allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively

use nb_bench::{
    measure_trace_latencies, print_header, print_row, sample_count, wait_interest, Stats,
};
use nb_tracing::config::{SigningMode, TracingConfig};
use nb_tracing::harness::{Deployment, Topology};
use nb_transport::clock::system_clock;
use nb_transport::sim::LinkConfig;
use nb_wire::payload::DiscoveryRestrictions;
use nb_wire::trace::TraceCategory;

fn main() {
    let samples = sample_count(30);
    let max_groups: usize = std::env::var("NB_BENCH_GROUPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(6);
    println!("== Figure 4: trace time while increasing trackers ==");
    println!("(star topology: hub + {max_groups} leaf brokers, 10 trackers per group; {samples} samples per point)");

    let mut config = TracingConfig::default();
    config.rsa_bits = 1024;
    let dep = Deployment::new(
        Topology::Star(max_groups),
        LinkConfig::default(),
        system_clock(),
        config,
    )
    .expect("deployment");

    // The traced entity lives on the hub; the measuring tracker too
    // (same process ⇒ same clock, mirroring the paper's setup).
    let entity = dep
        .traced_entity(
            0,
            "sweep-entity",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .expect("entity");
    let measuring = dep
        .tracker(
            0,
            "measuring-tracker",
            "sweep-entity",
            vec![TraceCategory::Load, TraceCategory::ChangeNotifications],
        )
        .expect("measuring tracker");
    assert!(wait_interest(&dep, 0, "sweep-entity", 1));

    print_header("Trace time vs number of trackers", "ms");
    let mut fleet = Vec::new();
    for group in 1..=max_groups {
        // Add 10 trackers on leaf broker `group`.
        for t in 0..10 {
            let tracker = dep
                .tracker(
                    group,
                    &format!("tracker-{group}-{t}"),
                    "sweep-entity",
                    vec![
                        TraceCategory::Load,
                        TraceCategory::AllUpdates,
                        TraceCategory::ChangeNotifications,
                    ],
                )
                .expect("fleet tracker");
            fleet.push(tracker);
        }
        // +1 for the measuring tracker.
        assert!(wait_interest(&dep, 0, "sweep-entity", fleet.len() + 1));

        let latencies = measure_trace_latencies(&entity, &measuring, samples, 3);
        let stats = Stats::from_samples(&latencies);
        print_row(&format!("{} trackers", fleet.len()), &stats);
    }

    // One long-lived deployment ⇒ the merged snapshot includes every
    // broker's and engine's view of the sweep, plus process-wide
    // crypto/token/transport totals.
    nb_bench::print_metrics_epilogue("full deployment", &dep.metrics_snapshot());
}
