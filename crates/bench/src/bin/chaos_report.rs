//! **Chaos report** — measures time-to-reconverge through repeated
//! outages of the middle link of a 3-broker chain (see
//! `docs/ARCHITECTURE.md`, "Fault tolerance").
//!
//! Stands up the chain — entity at broker 0, tracker at broker 2 —
//! then repeatedly downs the middle link mid-trace, waits until it has
//! held frames, heals it, and measures how long the far tracker takes
//! to see fresh traces again. A downed simulated link holds its frames
//! as a TCP connection does through a transient outage, and delivers
//! them in order when it heals. Prints per-cycle reconvergence times
//! and the transport counters from the merged metrics snapshot.
//!
//! Run with `--smoke` (CI) for fewer cycles with the same assertions:
//! every cycle holds frames, reconverges inside the budget, and the
//! tracker applies every trace seq of the run exactly once.

#![allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively

use nb_bench::loopback::wait_until;
use nb_tracing::config::{SigningMode, TracingConfig};
use nb_tracing::harness::{Deployment, Topology};
use nb_tracing::view::EntityStatus;
use nb_transport::clock::system_clock;
use nb_transport::sim::LinkConfig;
use nb_wire::payload::DiscoveryRestrictions;
use nb_wire::trace::TraceCategory;
use std::time::{Duration, Instant};

/// Per-cycle ceiling on reconvergence; generous against scheduler
/// noise — typical times are tens of milliseconds.
const RECONVERGE_BUDGET: Duration = Duration::from_secs(10);

/// Frames held by downed simulated links so far, process-wide.
fn held() -> u64 {
    nb_metrics::global()
        .counter("transport.sim.fault.held")
        .get()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cycles = if smoke { 2 } else { 5 };
    println!("== chaos report: 3-broker chain, {cycles} outage cycles ==");

    let mut config = TracingConfig::for_tests();
    config.auto_tick = true;
    config.tick = Duration::from_millis(10);
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
            vec![
                TraceCategory::ChangeNotifications,
                TraceCategory::AllUpdates,
            ],
        )
        .expect("tracker");

    assert!(
        tracker.wait_for_status(EntityStatus::Available, Duration::from_secs(15)),
        "tracker never converged before the first fault"
    );
    let start = tracker.view().get("chaos-svc").expect("a record");

    println!("\n-- per-cycle time-to-reconverge --");
    let mut times = Vec::with_capacity(cycles);
    for cycle in 0..cycles {
        let before = tracker
            .view()
            .get("chaos-svc")
            .map(|r| r.traces_seen)
            .unwrap_or(0);
        let held_before = held();

        assert!(dep.network.drop_link(1), "middle link must be droppable");
        assert!(
            wait_until(Duration::from_secs(10), || held() > held_before),
            "cycle {cycle}: the downed link held no frames"
        );

        assert!(dep.network.restore_link(1));
        let healed_at = Instant::now();
        let reconverged = wait_until(RECONVERGE_BUDGET, || {
            tracker
                .view()
                .get("chaos-svc")
                .is_some_and(|r| r.status == EntityStatus::Available && r.traces_seen >= before + 2)
        });
        let elapsed = healed_at.elapsed();
        assert!(
            reconverged,
            "cycle {cycle}: tracker did not reconverge within {RECONVERGE_BUDGET:?}"
        );
        println!(
            "cycle {cycle}: reconverged in {:>8.2} ms",
            elapsed.as_secs_f64() * 1e3
        );
        times.push(elapsed);
    }

    let mean_ms = times.iter().map(Duration::as_secs_f64).sum::<f64>() / times.len() as f64 * 1e3;
    let max_ms = times
        .iter()
        .map(Duration::as_secs_f64)
        .fold(0.0f64, f64::max)
        * 1e3;
    println!("mean {mean_ms:.2} ms, max {max_ms:.2} ms over {cycles} cycles");

    println!("\n-- transport counters --");
    let snap = dep.metrics_snapshot();
    for name in [
        "transport.sim.fault.held",
        "transport.frames.sent",
        "transport.frames.received",
    ] {
        println!("{name} {}", snap.counter(name).unwrap_or(0));
    }

    // Keep the report honest — these also back the CI smoke run. Held
    // frames arrive once each: every trace seq since the start is
    // applied exactly once.
    let end = tracker.view().get("chaos-svc").expect("a record");
    assert_eq!(
        end.traces_seen - start.traces_seen,
        end.last_seq - start.last_seq,
        "traces lost or applied twice"
    );
    assert!(
        entity.pings_answered() > 0,
        "entity stopped answering pings"
    );
    println!("\nchaos report OK: {cycles} cycles, mean reconverge {mean_ms:.2} ms");
}
