//! Deterministic engine tests: a mock clock plus manual `tick_now`
//! drives every timing-dependent behaviour with zero wall-clock
//! sensitivity.

#![allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively

use nb_tracing::config::{SigningMode, TracingConfig};
use nb_tracing::harness::{Deployment, Topology};
use nb_tracing::Liveness;
use nb_transport::clock::{Clock, MockClock};
use nb_transport::sim::LinkConfig;
use nb_wire::payload::DiscoveryRestrictions;
use nb_wire::trace::TraceCategory;
use std::sync::Arc;
use std::time::Duration;

const START: u64 = 1_700_000_000_000;

/// Config with the background ticker disabled: time moves only when
/// the test advances the mock clock and calls `tick_now`.
fn manual_config() -> TracingConfig {
    let mut config = TracingConfig::for_tests();
    config.auto_tick = false;
    // Generous thresholds so the numbers below are easy to follow:
    // ping every 100 ms, loss after 50 ms, suspect at 2, fail at +2.
    config
}

fn deployment(clock: &MockClock) -> Deployment {
    let shared: Arc<dyn Clock> = Arc::new(clock.clone());
    Deployment::new(
        Topology::Chain(1),
        LinkConfig::instant(),
        shared,
        manual_config(),
    )
    .unwrap()
}

/// Message pumps still run on real threads; give them a moment to
/// drain after each virtual-time step.
fn settle() {
    std::thread::sleep(Duration::from_millis(40));
}

#[test]
fn failure_detection_follows_virtual_time_exactly() {
    let clock = MockClock::new(START);
    let dep = deployment(&clock);
    let entity = dep
        .traced_entity(
            0,
            "det-entity",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .unwrap();
    settle();
    dep.tick_all(); // first ping goes out
    settle();
    assert_eq!(entity.pings_answered(), 1);
    assert_eq!(
        dep.engine(0).liveness_of("det-entity"),
        Some(Liveness::Alive)
    );

    // Crash the entity, then march virtual time forward. With
    // suspicion_threshold=2 / failure_threshold=2, four expired pings
    // escalate Alive → Suspected → Failed.
    entity.stop();
    settle();
    let mut suspected_at = None;
    let mut failed_at = None;
    for step in 1..=40 {
        clock.advance(100);
        dep.tick_all();
        settle();
        match dep.engine(0).liveness_of("det-entity") {
            Some(Liveness::Suspected) if suspected_at.is_none() => {
                suspected_at = Some(step);
            }
            Some(Liveness::Failed) => {
                failed_at = Some(step);
                break;
            }
            _ => {}
        }
    }
    let suspected_at = suspected_at.expect("suspicion never fired");
    let failed_at = failed_at.expect("failure never fired");
    assert!(suspected_at < failed_at);
    let stats = dep.engine(0).stats();
    assert_eq!(stats.suspicions, 1);
    assert_eq!(stats.failures, 1);
    // Failed entities stop being pinged.
    let pings_at_failure = dep.engine(0).stats().pings_sent;
    clock.advance(1000);
    dep.tick_all();
    settle();
    assert_eq!(dep.engine(0).stats().pings_sent, pings_at_failure);
}

#[test]
fn heartbeats_track_ping_count_deterministically() {
    let clock = MockClock::new(START);
    let dep = deployment(&clock);
    let entity = dep
        .traced_entity(
            0,
            "hb-det",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .unwrap();
    let tracker = dep
        .tracker(
            0,
            "hb-watch",
            "hb-det",
            vec![
                TraceCategory::AllUpdates,
                TraceCategory::ChangeNotifications,
            ],
        )
        .unwrap();
    settle();

    // 5 ping rounds → 5 answered pings → 5 ALLS_WELL heartbeats.
    for _ in 0..5 {
        dep.tick_all();
        settle();
        clock.advance(100);
    }
    assert_eq!(entity.pings_answered(), 5);
    let heartbeats = tracker
        .view()
        .get("hb-det")
        .map(|r| r.traces_seen)
        .unwrap_or(0);
    // JOIN + 5 heartbeats (exact: no timing jitter in virtual time).
    assert!(
        (5..=7).contains(&heartbeats),
        "expected ~6 traces, saw {heartbeats}"
    );
}

#[test]
fn interest_expires_when_probes_go_unanswered() {
    let clock = MockClock::new(START);
    let dep = deployment(&clock);
    let _entity = dep
        .traced_entity(
            0,
            "exp-entity",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .unwrap();
    let tracker = dep
        .tracker(
            0,
            "exp-tracker",
            "exp-entity",
            vec![TraceCategory::AllUpdates],
        )
        .unwrap();
    settle();
    dep.tick_all();
    settle();
    assert_eq!(dep.engine(0).interest_count("exp-entity"), 1);

    // The tracker dies silently; after > 4 gauge intervals its
    // interest entry must lapse.
    tracker.stop();
    settle();
    // gauge_interval (test config) = 500 ms; TTL = 4×500 ms.
    for _ in 0..8 {
        clock.advance(500);
        dep.tick_all();
        settle();
    }
    assert_eq!(
        dep.engine(0).interest_count("exp-entity"),
        0,
        "stale tracker interest must expire"
    );
}

#[test]
fn live_tracker_interest_survives_expiry_rounds() {
    let clock = MockClock::new(START);
    let dep = deployment(&clock);
    let _entity = dep
        .traced_entity(
            0,
            "sur-entity",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .unwrap();
    let _tracker = dep
        .tracker(
            0,
            "sur-tracker",
            "sur-entity",
            vec![TraceCategory::AllUpdates],
        )
        .unwrap();
    settle();
    dep.tick_all();
    settle();
    // Many probe rounds: the live tracker keeps answering, so its
    // interest must persist.
    for _ in 0..8 {
        clock.advance(500);
        dep.tick_all();
        settle();
    }
    assert_eq!(dep.engine(0).interest_count("sur-entity"), 1);
}

#[test]
fn adaptive_interval_hastens_detection() {
    // Same crash, two configurations; the adaptive detector must need
    // no more virtual time than the fixed one.
    fn time_to_failure(adaptive: bool) -> u64 {
        let clock = MockClock::new(START);
        let shared: Arc<dyn Clock> = Arc::new(clock.clone());
        let mut config = manual_config();
        if !adaptive {
            config.min_ping_interval = config.ping_interval;
        }
        let dep =
            Deployment::new(Topology::Chain(1), LinkConfig::instant(), shared, config).unwrap();
        let entity = dep
            .traced_entity(
                0,
                "adapt",
                DiscoveryRestrictions::Open,
                SigningMode::RsaSign,
                false,
            )
            .unwrap();
        settle();
        dep.tick_all();
        settle();
        entity.stop();
        settle();
        let mut elapsed = 0;
        loop {
            clock.advance(10);
            elapsed += 10;
            dep.tick_all();
            if dep.engine(0).liveness_of("adapt") == Some(Liveness::Failed) {
                return elapsed;
            }
            assert!(elapsed < 60_000, "never failed");
        }
    }
    let adaptive = time_to_failure(true);
    let fixed = time_to_failure(false);
    assert!(
        adaptive <= fixed,
        "adaptive ({adaptive} ms) must not be slower than fixed ({fixed} ms)"
    );
}
