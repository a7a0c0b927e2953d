//! The same tracking flow over every medium of §6.1: simulated links,
//! real TCP, and real UDP over loopback.

#![allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively

use nb_broker::network::Medium;
use nb_tracing::config::{SigningMode, TracingConfig};
use nb_tracing::harness::{Deployment, Topology};
use nb_tracing::view::EntityStatus;
use nb_transport::clock::system_clock;
use nb_transport::sim::LinkConfig;
use nb_wire::payload::DiscoveryRestrictions;
use nb_wire::trace::TraceCategory;
use std::time::{Duration, Instant};

fn run_flow(medium: Medium) {
    let mut config = TracingConfig::for_tests();
    config.auto_tick = true;
    config.tick = Duration::from_millis(10);
    let dep = Deployment::over(Topology::Chain(2), medium, system_clock(), config).unwrap();
    let entity = dep
        .traced_entity(
            0,
            "xport-entity",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .unwrap();
    let tracker = dep
        .tracker(
            1,
            "xport-tracker",
            "xport-entity",
            vec![
                TraceCategory::ChangeNotifications,
                TraceCategory::AllUpdates,
            ],
        )
        .unwrap();

    // Condition-based waits: both ride condition variables (the
    // tracker's availability view, the entity's ping signal) instead
    // of the 10 ms sleep-poll loop this used to be.
    let deadline = Instant::now() + Duration::from_secs(15);
    assert!(
        tracker.wait_for_status(EntityStatus::Available, Duration::from_secs(15)),
        "tracker never saw the entity over {medium:?}"
    );
    assert!(
        entity.wait_for_pings(2, deadline.saturating_duration_since(Instant::now())),
        "pings stalled over {medium:?}"
    );
}

#[test]
fn tracking_over_simulated_links() {
    run_flow(Medium::Sim(LinkConfig::instant()));
}

#[test]
fn tracking_over_real_tcp() {
    run_flow(Medium::Tcp);
}

#[test]
fn tracking_over_real_udp() {
    run_flow(Medium::Udp);
}
