//! Grid service monitor: many services on several brokers, one
//! operations console tracking them all with selective interests.
//!
//! This is the workload the paper's introduction motivates: "an
//! application may be interested in the availability of a resource at
//! all times … a user would be interested in the availability of a
//! given service." The console subscribes only to the categories it
//! needs per service — change notifications for everything, plus load
//! for the compute services — instead of drowning in N×(N−1)
//! heartbeats.
//!
//! Run with: `cargo run --release --example grid_service_monitor`

#![allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively

use entity_tracing::prelude::*;
use std::time::{Duration, Instant};

const SERVICES: [(&str, bool); 5] = [
    // (service name, monitor load too?)
    ("compute-node-a", true),
    ("compute-node-b", true),
    ("metadata-service", false),
    ("storage-gateway", false),
    ("job-scheduler", false),
];

fn main() {
    println!("== grid service monitor ==\n");

    let mut config = TracingConfig::default();
    config.ping_interval = Duration::from_millis(250);
    config.response_timeout = Duration::from_millis(120);
    config.rsa_bits = 512;
    // Star topology: hub broker 0, three leaf brokers (Figure 3 shape).
    let deployment = Deployment::new(
        Topology::Star(3),
        LinkConfig::default(),
        system_clock(),
        config,
    )
    .expect("deployment");

    // Spread the services over the leaf brokers.
    let mut entities = Vec::new();
    for (i, (name, _)) in SERVICES.iter().enumerate() {
        let broker_idx = 1 + (i % 3);
        let entity = deployment
            .traced_entity(
                broker_idx,
                name,
                DiscoveryRestrictions::Open,
                SigningMode::RsaSign,
                false,
            )
            .expect("entity");
        println!("{name} registered at broker {broker_idx}");
        entities.push(entity);
    }

    // The console sits on the hub and tracks every service.
    let mut trackers = Vec::new();
    for (name, with_load) in SERVICES {
        let mut interests = vec![
            TraceCategory::ChangeNotifications,
            TraceCategory::AllUpdates,
        ];
        if with_load {
            interests.push(TraceCategory::Load);
        }
        let tracker = deployment
            .tracker(0, &format!("console-{name}"), name, interests)
            .expect("tracker");
        trackers.push((name, tracker));
    }
    println!(
        "\nconsole tracking {} services from the hub\n",
        trackers.len()
    );

    // Compute nodes report load.
    for (i, entity) in entities.iter().enumerate() {
        if SERVICES[i].1 {
            entity
                .report_load(LoadInformation {
                    cpu_percent: 20.0 + 30.0 * i as f64,
                    memory_used_bytes: (i as u64 + 1) << 30,
                    memory_total_bytes: 32 << 30,
                    workload: 5 * (i as u64 + 1),
                })
                .unwrap();
        }
    }

    // Wait for full visibility.
    let deadline = Instant::now() + Duration::from_secs(15);
    while Instant::now() < deadline {
        let visible = trackers
            .iter()
            .filter(|(name, t)| t.view().status(name) == Some(EntityStatus::Available))
            .count();
        if visible == trackers.len() {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }

    // One service fails; the console should notice just that one.
    println!("killing metadata-service…\n");
    entities[2].stop();
    let deadline = Instant::now() + Duration::from_secs(20);
    while Instant::now() < deadline {
        if trackers[2].1.view().status("metadata-service") == Some(EntityStatus::Failed) {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }

    println!("console status board:");
    for (name, tracker) in &trackers {
        let record = tracker.view().get(name);
        match record {
            Some(r) => {
                let load = r
                    .load
                    .map(|l| format!(" load={:.0}% cpu, workload={}", l.cpu_percent, l.workload))
                    .unwrap_or_default();
                println!(
                    "  {name:<18} {:?}{load} ({} traces)",
                    r.status, r.traces_seen
                );
            }
            None => println!("  {name:<18} (no data)"),
        }
    }

    let healthy = trackers
        .iter()
        .filter(|(name, t)| t.view().status(name) == Some(EntityStatus::Available))
        .count();
    println!("\n{healthy}/{} services healthy", trackers.len());
}
