//! Secure fleet tracking: confidential traces, restricted discovery,
//! and the §6.3 signing-cost optimization.
//!
//! A fleet of workers is traced with **encrypted traces** (§5.1): only
//! trackers holding the sealed trace key can read them. Discovery of
//! the trace topics is restricted to the authorized operations
//! subjects (§3.1) — an unauthorized console cannot even learn the
//! 128-bit trace topic exists, which is also the scheme's DoS shield
//! (§5.2). Workers use the symmetric-key signing optimization for
//! their heartbeat path (§6.3).
//!
//! Run with: `cargo run --release --example secure_fleet_tracker`

#![allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively

use entity_tracing::prelude::*;
use std::time::{Duration, Instant};

fn main() {
    println!("== secure fleet tracker ==\n");

    let mut config = TracingConfig::default();
    config.ping_interval = Duration::from_millis(250);
    config.response_timeout = Duration::from_millis(120);
    config.rsa_bits = 512;
    let deployment = Deployment::new(
        Topology::Chain(3),
        LinkConfig::default(),
        system_clock(),
        config,
    )
    .expect("deployment");

    // Three workers, traced with encryption on, discovery restricted
    // to the fleet console, and symmetric-key message authentication.
    let mut workers = Vec::new();
    for i in 0..3 {
        let name = format!("worker-{i}");
        let entity = deployment
            .traced_entity(
                0,
                &name,
                DiscoveryRestrictions::AllowedSubjects(vec![
                    "tracker:fleet-console-0".to_string(),
                    "tracker:fleet-console-1".to_string(),
                    "tracker:fleet-console-2".to_string(),
                ]),
                SigningMode::SymmetricKey, // §6.3 optimization
                true,                      // §5.1 secured traces
            )
            .expect("worker");
        println!(
            "{name}: secured tracing enabled (topic {})",
            entity.trace_topic()
        );
        workers.push((name, entity));
    }

    // The authorized consoles (their subjects match the restriction).
    let mut consoles = Vec::new();
    for (i, (name, _)) in workers.iter().enumerate() {
        let tracker = deployment
            .tracker(
                2,
                &format!("fleet-console-{i}"),
                name,
                vec![
                    TraceCategory::ChangeNotifications,
                    TraceCategory::AllUpdates,
                ],
            )
            .expect("authorized tracker");
        consoles.push((name.clone(), tracker));
    }
    println!("\nfleet consoles attached (authorized)");

    // An unauthorized console: discovery is silently ignored, so it
    // cannot even construct the subscription topics.
    let spy = deployment.tracker(
        2,
        "rogue-console",
        "worker-0",
        vec![TraceCategory::AllUpdates],
    );
    match spy {
        Err(e) => println!("rogue-console rejected: {e}"),
        Ok(_) => panic!("unauthorized discovery must fail"),
    }

    // Wait for keys to be delivered and encrypted traces to decode.
    let deadline = Instant::now() + Duration::from_secs(20);
    while Instant::now() < deadline {
        let ready = consoles
            .iter()
            .filter(|(name, t)| {
                t.has_trace_key() && t.view().status(name) == Some(EntityStatus::Available)
            })
            .count();
        if ready == consoles.len() {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }

    println!("\nfleet status (decrypted traces):");
    for (name, tracker) in &consoles {
        let status = tracker.view().status(name);
        println!(
            "  {name:<10} {:?}  key={} traces={} rejected-tokens={}",
            status,
            tracker.has_trace_key(),
            tracker.traces_applied(),
            tracker.rejected_tokens()
        );
        assert_eq!(status, Some(EntityStatus::Available));
        assert!(tracker.has_trace_key());
    }

    let engine_stats = deployment.engine(0).stats();
    println!(
        "\nengine at broker 0: {} keys delivered, {} traces published, 0 expected auth failures (got {})",
        engine_stats.keys_delivered, engine_stats.traces_published, engine_stats.auth_failures
    );
}
