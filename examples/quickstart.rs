//! Quickstart: one traced entity, one tracker, two brokers.
//!
//! Demonstrates the paper's core loop end to end: topic creation at
//! the TDN, authorized registration, heartbeats, a simulated crash,
//! and the tracker's view moving Available → Suspected → Failed.
//!
//! Run with: `cargo run --release --example quickstart`

#![allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively

use entity_tracing::prelude::*;
use std::time::{Duration, Instant};

fn main() {
    println!("== entity-tracing quickstart ==\n");

    // Stand up the full stack: CA, 3 replicated TDNs, a 2-broker
    // chain over ~1.5 ms simulated links and one tracing engine per
    // broker.
    let mut config = TracingConfig::default();
    config.ping_interval = Duration::from_millis(200);
    config.response_timeout = Duration::from_millis(100);
    config.rsa_bits = 512; // keep the demo snappy
    let deployment = Deployment::new(
        Topology::Chain(2),
        LinkConfig::default(),
        system_clock(),
        config,
    )
    .expect("deployment");
    println!(
        "deployment up: {} brokers, {} TDNs",
        deployment.network.len(),
        deployment.tdns.len()
    );

    // The entity requests tracing (§3.1–3.2): it creates its trace
    // topic, registers with broker 0, and delegates publication
    // rights via an authorization token.
    let entity = deployment
        .traced_entity(
            0,
            "web-service",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .expect("traced entity");
    println!(
        "entity registered: trace topic {} session {}",
        entity.trace_topic(),
        entity.session_id()
    );

    // A tracker on the *other* broker discovers the trace topic and
    // subscribes to change notifications + heartbeats.
    let tracker = deployment
        .tracker(
            1,
            "ops-console",
            "web-service",
            vec![
                TraceCategory::ChangeNotifications,
                TraceCategory::AllUpdates,
            ],
        )
        .expect("tracker");
    println!("tracker attached on broker 1\n");

    // Watch the availability view come alive.
    wait_for(&tracker, "web-service", EntityStatus::Available, 10_000);
    let record = tracker.view().get("web-service").unwrap();
    println!(
        "tracker sees web-service AVAILABLE ({} traces, pings answered: {})",
        record.traces_seen,
        entity.pings_answered()
    );

    // The entity reports some load.
    entity
        .report_load(LoadInformation {
            cpu_percent: 42.0,
            memory_used_bytes: 6 << 30,
            memory_total_bytes: 16 << 30,
            workload: 17,
        })
        .unwrap();

    // Simulate a crash: the entity stops answering pings. The broker
    // escalates FAILURE_SUSPICION → FAILED (§3.3).
    println!("\nsimulating crash of web-service…");
    entity.stop();
    wait_for(&tracker, "web-service", EntityStatus::Suspected, 15_000);
    println!("tracker sees web-service SUSPECTED");
    wait_for(&tracker, "web-service", EntityStatus::Failed, 15_000);
    println!("tracker sees web-service FAILED");

    let stats = deployment.engine(0).stats();
    println!(
        "\nengine stats: {} pings, {} traces published, {} gated, {} suspicions, {} failures",
        stats.pings_sent,
        stats.traces_published,
        stats.traces_gated,
        stats.suspicions,
        stats.failures
    );
}

fn wait_for(tracker: &Tracker, entity: &str, want: EntityStatus, timeout_ms: u64) {
    let deadline = Instant::now() + Duration::from_millis(timeout_ms);
    while Instant::now() < deadline {
        if tracker.view().status(entity) == Some(want) {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out waiting for {entity} to become {want:?}");
}
