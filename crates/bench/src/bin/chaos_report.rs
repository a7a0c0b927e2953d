//! **Chaos report** — measures time-to-reconverge through repeated
//! link outages on a supervised 3-broker chain (see
//! `docs/ARCHITECTURE.md`, "Fault tolerance").
//!
//! Stands up the chain with link supervision enabled — entity at
//! broker 0, tracker at broker 2 — then repeatedly severs the middle
//! link mid-trace, heals it, and measures how long the far tracker
//! takes to see fresh traces again. Prints per-cycle reconvergence
//! times and the supervised-link counters (repair cycles, frames
//! buffered / replayed / shed) from the merged metrics snapshot.
//!
//! Run with `--smoke` (CI) for fewer cycles with the same assertions:
//! every cycle reconverges inside the budget and the repair cycles are
//! visible in `broker.link.reconnects`.

#![allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively

use nb_bench::loopback::wait_until;
use nb_tracing::config::{SigningMode, TracingConfig};
use nb_tracing::harness::{Deployment, Topology};
use nb_tracing::view::EntityStatus;
use nb_transport::clock::system_clock;
use nb_transport::sim::LinkConfig;
use nb_transport::supervisor::{LinkState, SupervisorConfig};
use nb_wire::payload::DiscoveryRestrictions;
use nb_wire::trace::TraceCategory;
use std::time::{Duration, Instant};

/// Per-cycle ceiling on reconvergence; generous against scheduler
/// noise — typical times are tens of milliseconds.
const RECONVERGE_BUDGET: Duration = Duration::from_secs(10);

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cycles = if smoke { 2 } else { 5 };
    println!("== chaos report: supervised 3-broker chain, {cycles} outage cycles ==");

    let mut config = TracingConfig::for_tests();
    config.auto_tick = true;
    config.tick = Duration::from_millis(10);
    config.link_supervision = Some(SupervisorConfig::fast());
    let dep = Deployment::new(
        Topology::Chain(3),
        LinkConfig::instant(),
        system_clock(),
        config,
    )
    .expect("deployment");

    let entity = dep
        .traced_entity(
            0,
            "chaos-svc",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            true, // secured: outages must not corrupt the sealed flow
        )
        .expect("traced entity");
    let tracker = dep
        .tracker(
            2,
            "chaos-watcher",
            "chaos-svc",
            vec![TraceCategory::ChangeNotifications, TraceCategory::AllUpdates],
        )
        .expect("tracker");

    assert!(
        tracker.wait_for_status(EntityStatus::Available, Duration::from_secs(15)),
        "tracker never converged before the first fault"
    );

    // Counters are cumulative across cycles, so outage detection is
    // measured against a per-cycle baseline: either a fresh send
    // failure or a link visibly out of the Up state.
    let total_send_failures = |dep: &Deployment| -> u64 {
        dep.network
            .brokers
            .iter()
            .flat_map(|b| b.link_stats())
            .map(|s| s.send_failures)
            .sum()
    };
    let any_link_not_up = |dep: &Deployment| {
        dep.network
            .brokers
            .iter()
            .any(|b| b.link_stats().iter().any(|s| s.state != LinkState::Up))
    };
    let total_reconnects = |dep: &Deployment| -> u64 {
        dep.network
            .brokers
            .iter()
            .flat_map(|b| b.link_stats())
            .map(|s| s.reconnects)
            .sum()
    };

    println!("\n-- per-cycle time-to-reconverge --");
    let mut times = Vec::with_capacity(cycles);
    for cycle in 0..cycles {
        let before = tracker
            .view()
            .get("chaos-svc")
            .map(|r| r.traces_seen)
            .unwrap_or(0);
        let reconnects_before = total_reconnects(&dep);
        let failures_before = total_send_failures(&dep);

        assert!(dep.network.drop_link(1), "middle link must be droppable");
        assert!(
            wait_until(Duration::from_secs(10), || {
                total_send_failures(&dep) > failures_before || any_link_not_up(&dep)
            }),
            "cycle {cycle}: no supervisor observed the outage"
        );

        assert!(dep.network.restore_link(1));
        let healed_at = Instant::now();
        let reconverged = wait_until(RECONVERGE_BUDGET, || {
            tracker.view().get("chaos-svc").is_some_and(|r| {
                r.status == EntityStatus::Available && r.traces_seen >= before + 2
            })
        });
        let elapsed = healed_at.elapsed();
        assert!(
            reconverged,
            "cycle {cycle}: tracker did not reconverge within {RECONVERGE_BUDGET:?}"
        );
        // The repair cycle itself must also have completed.
        assert!(
            wait_until(Duration::from_secs(10), || {
                total_reconnects(&dep) > reconnects_before
            }),
            "cycle {cycle}: no supervised link completed a repair cycle"
        );
        println!("cycle {cycle}: reconverged in {:>8.2} ms", elapsed.as_secs_f64() * 1e3);
        times.push(elapsed);
    }

    let mean_ms =
        times.iter().map(Duration::as_secs_f64).sum::<f64>() / times.len() as f64 * 1e3;
    let max_ms = times
        .iter()
        .map(Duration::as_secs_f64)
        .fold(0.0f64, f64::max)
        * 1e3;
    println!("mean {mean_ms:.2} ms, max {max_ms:.2} ms over {cycles} cycles");

    println!("\n-- supervised-link counters --");
    let snap = dep.metrics_snapshot();
    let mut reconnects = 0u64;
    for broker in &dep.network.brokers {
        let id = broker.id();
        let c = |name: &str| snap.counter(&format!("{id}.{name}")).unwrap_or(0);
        reconnects += c("broker.link.reconnects");
        println!(
            "{id}: supervised={} reconnects={} state_changes={} down_events={}",
            snap.gauge(&format!("{id}.broker.links.supervised")).unwrap_or(0),
            c("broker.link.reconnects"),
            c("broker.link.state_changes"),
            c("broker.link.down_events"),
        );
    }
    for name in [
        "transport.link.reconnects",
        "transport.link.frames.buffered",
        "transport.link.frames.replayed",
        "transport.link.frames.shed",
        "transport.sim.fault.rejected",
    ] {
        println!("{name} {}", snap.counter(name).unwrap_or(0));
    }

    // Keep the report honest — these also back the CI smoke run.
    assert!(reconnects >= cycles as u64, "repair cycles missing from metrics");
    assert!(entity.pings_answered() > 0, "entity stopped answering pings");
    println!("\nchaos report OK: {cycles} cycles, mean reconverge {mean_ms:.2} ms");
}
