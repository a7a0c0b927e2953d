//! Chaos test: a secured tracking flow survives an outage of the middle
//! broker↔broker link.
//!
//! Topology is a 3-broker chain — entity at `b0`, tracker at `b2` — so
//! every trace crosses both inter-broker links. Dropping the middle
//! link (`b1 — b2`) mid-trace severs the tracker from the entity; the
//! link holds the traces through the outage, as a TCP connection does,
//! and delivers them in order once it heals: every trace is applied
//! exactly once.

#![allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively

use nb_tracing::config::{SigningMode, TracingConfig};
use nb_tracing::harness::{Deployment, Topology};
use nb_tracing::view::EntityStatus;
use nb_transport::clock::system_clock;
use nb_transport::sim::LinkConfig;
use nb_wire::payload::DiscoveryRestrictions;
use nb_wire::trace::TraceCategory;
use std::io::Write;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(15);

/// Frames held by downed simulated links so far, process-wide.
fn held() -> u64 {
    nb_metrics::global()
        .counter("transport.sim.fault.held")
        .get()
}

/// Waits up to [`WAIT`] for `ready`.
fn wait_until(mut ready: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + WAIT;
    while !ready() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

/// Exercises the TCP oversized-frame guard once so the lazily
/// registered `transport.frame.oversized` counter appears in the
/// process-global registry (and therefore in deployment snapshots).
fn oversized_tcp_probe() {
    let listener = nb_transport::tcp::TcpTransportListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let writer = std::thread::spawn(move || {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let bogus_len = (nb_transport::endpoint::MAX_FRAME_LEN as u32 + 1).to_be_bytes();
        stream.write_all(&bogus_len).unwrap();
        stream
    });
    let server = listener.accept().unwrap();
    let _stream = writer.join().unwrap();
    assert!(
        server.recv_timeout(Duration::from_secs(5)).is_err(),
        "oversized wire frame must surface an error"
    );
}

#[test]
fn secured_tracking_survives_middle_link_outage() {
    let mut config = TracingConfig::for_tests();
    config.auto_tick = true;
    config.tick = Duration::from_millis(10);
    let dep = Deployment::new(
        Topology::Chain(3),
        LinkConfig::instant(),
        system_clock(),
        config,
    )
    .unwrap();
    assert_eq!(dep.network.link_count(), 2, "chain(3) has two links");

    // Secured entity (sealed trace keys, encrypted payloads) at one
    // end of the chain, tracker at the other.
    let entity = dep
        .traced_entity(
            0,
            "chaos-entity",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            true,
        )
        .unwrap();
    let tracker = dep
        .tracker(
            2,
            "chaos-tracker",
            "chaos-entity",
            vec![
                TraceCategory::ChangeNotifications,
                TraceCategory::AllUpdates,
            ],
        )
        .unwrap();

    // Baseline: traces flow end to end across both links.
    assert!(
        tracker.wait_for_status(EntityStatus::Available, WAIT),
        "tracker never converged before the fault"
    );
    assert!(
        tracker.view().wait_until(WAIT, |v| {
            v.get("chaos-entity").is_some_and(|r| r.traces_seen >= 3)
        }),
        "heartbeats never flowed before the fault"
    );
    let before = tracker.view().get("chaos-entity").unwrap();

    // Mid-trace outage: sever the middle link. Heartbeats keep being
    // published, and the link holds them.
    let held_before = held();
    assert!(dep.network.drop_link(1), "middle link must be droppable");
    assert!(
        wait_until(|| held() > held_before),
        "the downed link held no frames"
    );

    // Heal the link: what it held arrives, in order.
    assert!(dep.network.restore_link(1));

    // Reconvergence: fresh traces reach the tracker and the entity
    // reads Available again.
    assert!(
        tracker.view().wait_until(WAIT, |v| {
            v.get("chaos-entity").is_some_and(|r| {
                r.status == EntityStatus::Available
                    && r.traces_seen >= before.traces_seen + 3
                    && r.last_seq > before.last_seq
            })
        }),
        "tracker failed to reconverge after the outage"
    );

    // Exactly once: per-entity trace seqs are unique and increase by
    // one per trace, so the tracker applies exactly as many traces as
    // the sequence space that elapsed — none lost in the outage, none
    // applied twice.
    let after = tracker.view().get("chaos-entity").unwrap();
    assert_eq!(
        after.traces_seen - before.traces_seen,
        after.last_seq - before.last_seq,
        "{} traces applied across {} seqs",
        after.traces_seen - before.traces_seen,
        after.last_seq - before.last_seq
    );
    // The entity's own link (b0, unaffected) never flapped.
    assert!(
        entity.pings_answered() > 0,
        "entity stopped answering pings"
    );

    // Observability: the held frames and the oversized-frame guard
    // are both visible in one merged deployment snapshot.
    oversized_tcp_probe();
    let snap = dep.metrics_snapshot();
    assert!(
        snap.counter("transport.sim.fault.held").unwrap_or(0) > 0,
        "transport.sim.fault.held missing from the merged snapshot"
    );
    assert!(
        snap.counter("transport.frame.oversized").unwrap_or(0) > 0,
        "transport.frame.oversized missing from the merged snapshot"
    );
}

#[test]
fn flaky_link_heals_without_flapping() {
    // A lossy-then-healed link: `flaky` drops frames probabilistically
    // until its deadline, after which the fault self-heals. A flaky
    // drop is silent loss (the sim reports success), so the flow must
    // keep converging without tearing anything down.
    let mut config = TracingConfig::for_tests();
    config.auto_tick = true;
    config.tick = Duration::from_millis(10);
    let dep = Deployment::new(
        Topology::Chain(3),
        LinkConfig::instant(),
        system_clock(),
        config,
    )
    .unwrap();
    let _entity = dep
        .traced_entity(
            0,
            "flaky-entity",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .unwrap();
    let tracker = dep
        .tracker(
            2,
            "flaky-tracker",
            "flaky-entity",
            vec![TraceCategory::AllUpdates],
        )
        .unwrap();
    assert!(
        tracker.wait_for_status(EntityStatus::Available, WAIT),
        "tracker never converged"
    );
    let before = tracker.view().get("flaky-entity").unwrap().traces_seen;

    // 40% loss on the middle link for 300 ms, then self-heal.
    assert!(dep.network.flaky_link(1, 0.4, Duration::from_millis(300)));
    assert!(
        tracker.view().wait_until(WAIT, |v| {
            v.get("flaky-entity")
                .is_some_and(|r| r.traces_seen >= before + 5)
        }),
        "traces never resumed after the flaky window"
    );
    assert_eq!(
        tracker.view().status("flaky-entity"),
        Some(EntityStatus::Available)
    );
}
