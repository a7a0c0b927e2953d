//! **Metrics report** — drives a small end-to-end deployment and dumps
//! the complete observability surface.
//!
//! Stands up a 3-broker chain with one traced entity (secured tracing,
//! so the crypto path is exercised end to end) and two trackers, lets
//! traces flow, injects a failure, and then prints the merged
//! deployment snapshot twice: as the aligned human-readable table and
//! as the line-oriented `key value` dump (the machine-readable form
//! described in `docs/OBSERVABILITY.md`).
//!
//! The report covers every instrumented layer: `broker.*`,
//! `tracing.*`, `tdn.*`, and the process-wide `transport.*`, `token.*`
//! and `crypto.*` families.

#![allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively

use nb_bench::loopback::wait_until;
use nb_tracing::config::{SigningMode, TracingConfig};
use nb_tracing::harness::{Deployment, Topology};
use nb_tracing::view::EntityStatus;
use nb_transport::clock::system_clock;
use nb_transport::sim::LinkConfig;
use nb_wire::payload::DiscoveryRestrictions;
use nb_wire::trace::{EntityState, LoadInformation, TraceCategory};
use std::time::Duration;

fn main() {
    println!("== metrics report: 3-broker chain, 1 secured entity, 2 trackers ==");
    let mut config = TracingConfig::for_tests();
    config.auto_tick = true;
    config.tick = Duration::from_millis(10);

    let dep = Deployment::new(
        Topology::Chain(3),
        LinkConfig::default(),
        system_clock(),
        config,
    )
    .expect("deployment");

    let entity = dep
        .traced_entity(
            0,
            "report-svc",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            true, // secured: exercise trace encryption + key delivery
        )
        .expect("traced entity");
    let far_tracker = dep
        .tracker(
            2,
            "far-watcher",
            "report-svc",
            vec![
                TraceCategory::ChangeNotifications,
                TraceCategory::AllUpdates,
                TraceCategory::Load,
            ],
        )
        .expect("far tracker");
    let near_tracker = dep
        .tracker(
            0,
            "near-watcher",
            "report-svc",
            vec![TraceCategory::ChangeNotifications],
        )
        .expect("near tracker");

    // Drive real traffic: availability, state changes, load reports.
    assert!(
        wait_until(Duration::from_secs(15), || {
            far_tracker.view().status("report-svc") == Some(EntityStatus::Available)
        }),
        "entity never became available at the far tracker"
    );
    entity.set_state(EntityState::Ready).expect("state report");
    for i in 0..5u64 {
        entity
            .report_load(LoadInformation {
                cpu_percent: 10.0 * i as f64,
                memory_used_bytes: 1 << 28,
                memory_total_bytes: 1 << 30,
                workload: i,
            })
            .expect("load report");
        std::thread::sleep(Duration::from_millis(30));
    }
    assert!(wait_until(Duration::from_secs(15), || {
        entity.pings_answered() >= 3
    }));

    // Inject a failure so the detector pipeline (suspicion → failed →
    // time-to-detection histogram) shows up in the report.
    entity.stop();
    wait_until(Duration::from_secs(30), || {
        far_tracker.view().status("report-svc") == Some(EntityStatus::Failed)
    });

    let snapshot = dep.metrics_snapshot();
    println!("\n-- table form --");
    println!("{}", snapshot.to_table());
    println!("-- dump form (key value) --");
    println!("{}", snapshot.to_dump());

    // Keep the report honest: every instrumented layer must be present.
    for family in [
        "broker-0.broker.",
        "broker-0.tracing.",
        "tdn-0.tdn.",
        "transport.",
        "token.",
        "crypto.",
    ] {
        assert!(
            snapshot
                .entries()
                .iter()
                .any(|e| e.name.starts_with(family)),
            "metrics report is missing the {family}* family"
        );
    }
    let _ = near_tracker;
    println!("all layers reporting: broker, tracing, tdn, transport, token, crypto");

    // Epilogue: the same numbers again, but collected over the mesh —
    // every node self-publishes on the Obs topic and the cluster
    // aggregator reassembles per-node and cluster-summed views.
    let obs = dep
        .telemetry(nb_obs::PublisherConfig::default())
        .expect("telemetry plane");
    assert!(
        wait_until(Duration::from_secs(15), || {
            obs.publish_all();
            obs.pump();
            obs.aggregator().nodes().len() == obs.publishers().len()
        }),
        "not every node reached the aggregator"
    );
    println!("\n-- per-node view (aggregated over the mesh) --");
    println!("{}", obs.aggregator().per_node().to_table());
    println!("-- cluster rollup (summed across nodes) --");
    let rollup = obs.aggregator().rollup();
    println!("{}", rollup.to_table());
    for family in ["broker.", "tracing.", "tdn."] {
        assert!(
            rollup.entries().iter().any(|e| e.name.starts_with(family)),
            "cluster rollup is missing the {family}* family"
        );
    }
    println!(
        "telemetry plane: {} nodes aggregated, {} frames accepted",
        obs.aggregator().nodes().len(),
        obs.aggregator()
            .metrics_snapshot()
            .counter("obs.frames.accepted")
            .unwrap_or(0)
    );
}
