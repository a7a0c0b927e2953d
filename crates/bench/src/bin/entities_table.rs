//! **Table 4** — trace routing overhead while increasing the number of
//! traced entities.
//!
//! The paper's setup: 1 broker, 30 trackers held constant, traced
//! entities ∈ {10, 20, 30}, all entities and trackers co-resident (the
//! co-residency is also why the paper's absolute numbers degrade: all
//! per-trace security operations contend on one host).
//!
//! Expected shape (paper): mean and standard deviation grow
//! super-linearly with the entity count as per-trace crypto work
//! contends on the shared host.

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

fn run_point(entities: usize, trackers: usize, samples: usize) -> Option<Stats> {
    let mut config = TracingConfig::default();
    config.rsa_bits = 1024;
    // Active tracing: brisk heartbeats keep every entity's security
    // pipeline busy, as in the paper's "traced actively".
    config.ping_interval = std::time::Duration::from_millis(100);
    let dep = Deployment::new(
        Topology::Chain(1),
        LinkConfig::default(),
        system_clock(),
        config,
    )
    .ok()?;

    // The measured entity plus (entities-1) background entities.
    let measured = dep
        .traced_entity(
            0,
            "entity-0",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .ok()?;
    let mut background = Vec::new();
    for i in 1..entities {
        background.push(
            dep.traced_entity(
                0,
                &format!("entity-{i}"),
                DiscoveryRestrictions::Open,
                SigningMode::RsaSign,
                false,
            )
            .ok()?,
        );
    }

    // 30 trackers, spread across the entities round-robin; tracker 0
    // is the measuring tracker on entity-0.
    let measuring = dep
        .tracker(
            0,
            "tracker-0",
            "entity-0",
            vec![
                TraceCategory::Load,
                TraceCategory::AllUpdates,
                TraceCategory::ChangeNotifications,
            ],
        )
        .ok()?;
    let mut fleet = Vec::new();
    for t in 1..trackers {
        let target = format!("entity-{}", t % entities);
        fleet.push(
            dep.tracker(
                0,
                &format!("tracker-{t}"),
                &target,
                vec![
                    TraceCategory::AllUpdates,
                    TraceCategory::ChangeNotifications,
                ],
            )
            .ok()?,
        );
    }
    wait_interest(&dep, 0, "entity-0", 1).then_some(())?;

    let latencies = measure_trace_latencies(&measured, &measuring, samples, 3);
    // Keep the background alive until measurement ends.
    drop(background);
    drop(fleet);
    if latencies.is_empty() {
        None
    } else {
        Some(Stats::from_samples(&latencies))
    }
}

fn main() {
    let samples = sample_count(40);
    println!("== Table 4: trace routing overhead vs number of traced entities ==");
    println!("(1 broker, 30 trackers, all co-resident; {samples} samples per point)");
    print_header("Traced entities (TCP-equivalent, co-resident)", "ms");
    for entities in [10usize, 20, 30] {
        match run_point(entities, 30, samples) {
            Some(stats) => print_row(&format!("{entities} entities"), &stats),
            None => println!("{entities} entities: MEASUREMENT FAILED"),
        }
    }
    nb_bench::print_metrics_epilogue(
        "process-wide totals across all points",
        &nb_metrics::global().snapshot(),
    );
}
