//! End-to-end tracing-scheme tests on full deployments: registration,
//! heartbeats, failure detection, authorization, secured traces, and
//! the §6.3 optimization.

#![allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively

use nb_tracing::config::{SigningMode, TracingConfig};
use nb_tracing::harness::{Deployment, Topology};
use nb_tracing::view::EntityStatus;
use nb_tracing::Liveness;
use nb_transport::clock::system_clock;
use nb_transport::sim::LinkConfig;
use nb_wire::payload::DiscoveryRestrictions;
use nb_wire::trace::{EntityState, LoadInformation, TraceCategory};
use std::time::{Duration, Instant};

fn deployment(topology: Topology) -> Deployment {
    let mut config = TracingConfig::for_tests();
    config.auto_tick = true; // background ticker; real-time tests
    config.tick = Duration::from_millis(10);
    Deployment::new(topology, LinkConfig::instant(), system_clock(), config).unwrap()
}

fn wait_until(timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

const WAIT: Duration = Duration::from_secs(10);

#[test]
fn entity_registers_and_tracker_sees_it_available() {
    let dep = deployment(Topology::Chain(2));
    let _entity = dep
        .traced_entity(
            0,
            "web-service",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .unwrap();
    assert_eq!(dep.engine(0).session_count(), 1);
    assert!(wait_until(WAIT, || dep.engine(0).has_token("web-service")));

    let tracker = dep
        .tracker(
            1,
            "ops-console",
            "web-service",
            vec![
                TraceCategory::ChangeNotifications,
                TraceCategory::AllUpdates,
            ],
        )
        .unwrap();

    // JOIN (change notification) or ALLS_WELL must surface the entity.
    assert!(wait_until(WAIT, || {
        tracker.view().status("web-service") == Some(EntityStatus::Available)
    }));
    assert!(tracker.traces_applied() >= 1);
}

#[test]
fn heartbeats_flow_to_interested_trackers() {
    let dep = deployment(Topology::Chain(2));
    let entity = dep
        .traced_entity(
            0,
            "hb-entity",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .unwrap();
    let tracker = dep
        .tracker(
            1,
            "hb-tracker",
            "hb-entity",
            vec![TraceCategory::AllUpdates],
        )
        .unwrap();

    assert!(wait_until(WAIT, || entity.pings_answered() >= 3));
    assert!(wait_until(WAIT, || {
        tracker
            .view()
            .get("hb-entity")
            .map(|r| r.traces_seen)
            .unwrap_or(0)
            >= 3
    }));
    assert_eq!(
        dep.engine(0).liveness_of("hb-entity"),
        Some(Liveness::Alive)
    );
}

#[test]
fn crashed_entity_is_suspected_then_failed() {
    let dep = deployment(Topology::Chain(2));
    let entity = dep
        .traced_entity(
            0,
            "crasher",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .unwrap();
    let tracker = dep
        .tracker(
            1,
            "watcher",
            "crasher",
            vec![TraceCategory::ChangeNotifications],
        )
        .unwrap();
    assert!(wait_until(WAIT, || entity.pings_answered() >= 2));

    // Simulate a crash: stop answering pings.
    entity.stop();

    assert!(wait_until(WAIT, || {
        tracker.view().status("crasher") == Some(EntityStatus::Suspected)
            || tracker.view().status("crasher") == Some(EntityStatus::Failed)
    }));
    assert!(wait_until(WAIT, || {
        tracker.view().status("crasher") == Some(EntityStatus::Failed)
    }));
    assert_eq!(dep.engine(0).liveness_of("crasher"), Some(Liveness::Failed));
    let stats = dep.engine(0).stats();
    assert!(stats.suspicions >= 1);
    assert!(stats.failures >= 1);
}

#[test]
fn state_transitions_and_load_reports_propagate() {
    let dep = deployment(Topology::Chain(2));
    let entity = dep
        .traced_entity(
            0,
            "stateful",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .unwrap();
    let tracker = dep
        .tracker(
            1,
            "state-watcher",
            "stateful",
            vec![
                TraceCategory::StateTransitions,
                TraceCategory::Load,
                TraceCategory::ChangeNotifications,
            ],
        )
        .unwrap();
    // Wait for the tracker's interest to register at the engine.
    assert!(wait_until(WAIT, || dep
        .engine(0)
        .interest_count("stateful")
        >= 1));

    entity.set_state(EntityState::Recovering).unwrap();
    assert!(wait_until(WAIT, || {
        tracker.view().get("stateful").and_then(|r| r.state) == Some(EntityState::Recovering)
    }));

    entity
        .report_load(LoadInformation {
            cpu_percent: 73.5,
            memory_used_bytes: 3 << 30,
            memory_total_bytes: 8 << 30,
            workload: 12,
        })
        .unwrap();
    assert!(wait_until(WAIT, || {
        tracker
            .view()
            .get("stateful")
            .and_then(|r| r.load)
            .map(|l| l.cpu_percent == 73.5)
            .unwrap_or(false)
    }));
}

#[test]
fn silent_mode_marks_entity_offline() {
    let dep = deployment(Topology::Chain(2));
    let entity = dep
        .traced_entity(
            0,
            "quitter",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .unwrap();
    let tracker = dep
        .tracker(
            1,
            "quit-watcher",
            "quitter",
            vec![TraceCategory::ChangeNotifications],
        )
        .unwrap();
    assert!(wait_until(WAIT, || {
        tracker.view().status("quitter") == Some(EntityStatus::Available)
    }));

    entity.go_silent().unwrap();
    assert!(wait_until(WAIT, || {
        tracker.view().status("quitter") == Some(EntityStatus::Offline)
    }));
    // The engine dropped the session.
    assert!(wait_until(WAIT, || dep.engine(0).session_count() == 0));
}

#[test]
fn unauthorized_tracker_cannot_even_discover_the_topic() {
    let dep = deployment(Topology::Chain(2));
    let _entity = dep
        .traced_entity(
            0,
            "private-entity",
            DiscoveryRestrictions::AllowedSubjects(vec!["tracker:friend".to_string()]),
            SigningMode::RsaSign,
            false,
        )
        .unwrap();

    // The authorized tracker works.
    let friend = dep.tracker(
        1,
        "friend",
        "private-entity",
        vec![TraceCategory::ChangeNotifications],
    );
    assert!(friend.is_ok());

    // The stranger's discovery is silently ignored.
    let stranger = dep.tracker(
        1,
        "stranger",
        "private-entity",
        vec![TraceCategory::ChangeNotifications],
    );
    assert!(matches!(
        stranger,
        Err(nb_tracing::TracingError::TopicNotFound(_))
    ));
}

#[test]
fn secured_traces_are_encrypted_and_only_keyed_trackers_read_them() {
    let dep = deployment(Topology::Chain(2));
    let _entity = dep
        .traced_entity(
            0,
            "secret-entity",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            true, // secured
        )
        .unwrap();
    let tracker = dep
        .tracker(
            1,
            "cleared-tracker",
            "secret-entity",
            vec![
                TraceCategory::AllUpdates,
                TraceCategory::ChangeNotifications,
            ],
        )
        .unwrap();

    // Key delivery must happen, then encrypted traces decode.
    assert!(wait_until(WAIT, || tracker.has_trace_key()));
    assert!(wait_until(WAIT, || {
        tracker.view().status("secret-entity") == Some(EntityStatus::Available)
    }));
    assert!(dep.engine(0).stats().keys_delivered >= 1);
}

#[test]
fn symmetric_signing_mode_works_end_to_end() {
    let dep = deployment(Topology::Chain(2));
    let entity = dep
        .traced_entity(
            0,
            "fast-entity",
            DiscoveryRestrictions::Open,
            SigningMode::SymmetricKey,
            false,
        )
        .unwrap();
    let tracker = dep
        .tracker(
            1,
            "fast-tracker",
            "fast-entity",
            vec![
                TraceCategory::AllUpdates,
                TraceCategory::ChangeNotifications,
            ],
        )
        .unwrap();

    assert!(wait_until(WAIT, || entity.pings_answered() >= 3));
    assert!(wait_until(WAIT, || {
        tracker.view().status("fast-entity") == Some(EntityStatus::Available)
    }));
    // No authentication failures along the way.
    assert_eq!(dep.engine(0).stats().auth_failures, 0);
}

#[test]
fn interest_gating_suppresses_unwanted_categories() {
    let dep = deployment(Topology::Chain(2));
    let entity = dep
        .traced_entity(
            0,
            "gated",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .unwrap();
    // Tracker interested ONLY in change notifications.
    let tracker = dep
        .tracker(
            1,
            "cn-only",
            "gated",
            vec![TraceCategory::ChangeNotifications],
        )
        .unwrap();
    assert!(wait_until(WAIT, || entity.pings_answered() >= 3));

    // ALLS_WELL traffic must be gated (nobody wants AllUpdates).
    let stats = dep.engine(0).stats();
    assert!(stats.traces_gated >= 1, "gated={}", stats.traces_gated);
    // The tracker still learned about availability via JOIN.
    assert!(wait_until(WAIT, || {
        tracker.view().status("gated") == Some(EntityStatus::Available)
    }));
    // Load reports from the entity are also gated. Condition-based:
    // wait for the engine to actually gate the report (its gated
    // counter ticks) instead of sleeping a fixed 300 ms and hoping the
    // report has flowed through by then.
    let gated_before = dep.engine(0).stats().traces_gated;
    entity
        .report_load(LoadInformation {
            cpu_percent: 1.0,
            memory_used_bytes: 1,
            memory_total_bytes: 2,
            workload: 0,
        })
        .unwrap();
    assert!(wait_until(WAIT, || {
        dep.engine(0).stats().traces_gated > gated_before
    }));
    assert!(tracker.view().get("gated").and_then(|r| r.load).is_none());
}

#[test]
fn multiple_trackers_with_different_interests() {
    let dep = deployment(Topology::Star(2));
    let entity = dep
        .traced_entity(
            0,
            "popular",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .unwrap();
    let t_all = dep
        .tracker(
            1,
            "wants-all",
            "popular",
            vec![
                TraceCategory::AllUpdates,
                TraceCategory::ChangeNotifications,
                TraceCategory::Load,
            ],
        )
        .unwrap();
    let t_cn = dep
        .tracker(
            2,
            "wants-changes",
            "popular",
            vec![TraceCategory::ChangeNotifications],
        )
        .unwrap();

    assert!(wait_until(WAIT, || dep.engine(0).interest_count("popular") == 2));
    assert!(wait_until(WAIT, || entity.pings_answered() >= 3));
    assert!(wait_until(WAIT, || {
        t_all
            .view()
            .get("popular")
            .map(|r| r.traces_seen)
            .unwrap_or(0)
            >= 3
    }));
    // Both see availability.
    assert!(wait_until(WAIT, || {
        t_cn.view().status("popular") == Some(EntityStatus::Available)
    }));
    // But the changes-only tracker sees far fewer traces (heartbeats
    // flow only to the all-updates tracker).
    assert!(wait_until(WAIT, || {
        t_all.traces_applied() >= t_cn.traces_applied() + 2
    }));
}

#[test]
fn token_refresh_keeps_traces_flowing() {
    let dep = deployment(Topology::Chain(2));
    let entity = dep
        .traced_entity(
            0,
            "refresher",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .unwrap();
    let tracker = dep
        .tracker(
            1,
            "refresh-watcher",
            "refresher",
            vec![
                TraceCategory::AllUpdates,
                TraceCategory::ChangeNotifications,
            ],
        )
        .unwrap();
    assert!(wait_until(WAIT, || tracker.traces_applied() >= 2));

    // Rotate the delegate key pair mid-flight.
    entity.refresh_token().unwrap();
    let before = tracker.traces_applied();
    assert!(wait_until(WAIT, || tracker.traces_applied() > before + 2));
    assert_eq!(tracker.rejected_tokens(), 0);
}

#[test]
fn tracing_works_across_four_hops() {
    let dep = deployment(Topology::Chain(5));
    let _entity = dep
        .traced_entity(
            0,
            "far-entity",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .unwrap();
    let tracker = dep
        .tracker(
            4,
            "far-tracker",
            "far-entity",
            vec![
                TraceCategory::AllUpdates,
                TraceCategory::ChangeNotifications,
            ],
        )
        .unwrap();
    assert!(wait_until(WAIT, || {
        tracker.view().status("far-entity") == Some(EntityStatus::Available)
    }));
    assert!(wait_until(WAIT, || tracker.traces_applied() >= 3));
}

#[test]
fn failed_entity_recovers_by_reregistering() {
    let dep = deployment(Topology::Chain(2));
    let entity = dep
        .traced_entity(
            0,
            "phoenix",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .unwrap();
    let tracker = dep
        .tracker(
            1,
            "phoenix-watcher",
            "phoenix",
            vec![
                TraceCategory::ChangeNotifications,
                TraceCategory::AllUpdates,
            ],
        )
        .unwrap();
    assert!(wait_until(WAIT, || {
        tracker.view().status("phoenix") == Some(EntityStatus::Available)
    }));

    // Crash and wait for the FAILED verdict.
    entity.stop();
    assert!(wait_until(WAIT, || {
        tracker.view().status("phoenix") == Some(EntityStatus::Failed)
    }));

    // Recovery: the entity comes back and re-registers (the engine
    // tears down the dead session and grants a fresh one).
    let revived = dep
        .traced_entity(
            0,
            "phoenix",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .unwrap();
    assert!(wait_until(WAIT, || revived.pings_answered() >= 2));
    assert_eq!(dep.engine(0).liveness_of("phoenix"), Some(Liveness::Alive));
    // The revived entity got a fresh session and trace topic; the old
    // tracker is bound to the dead topic (its view stays Failed), so
    // resuming tracking means re-running discovery — which prefers the
    // newest advertisement.
    assert_ne!(revived.session_id(), entity.session_id());
    assert_ne!(revived.trace_topic(), entity.trace_topic());
    let tracker2 = dep
        .tracker(
            1,
            "phoenix-watcher-2",
            "phoenix",
            vec![
                TraceCategory::ChangeNotifications,
                TraceCategory::AllUpdates,
            ],
        )
        .unwrap();
    assert_eq!(tracker2.trace_topic(), revived.trace_topic());
    assert!(wait_until(WAIT, || {
        tracker2.view().status("phoenix") == Some(EntityStatus::Available)
    }));
}

#[test]
fn secured_tracing_with_negotiated_ctr_mode() {
    // §5.1 negotiates "the encryption algorithm and padding scheme";
    // run the secured flow with AES-CTR instead of the default CBC.
    let mut config = TracingConfig::for_tests();
    config.auto_tick = true;
    config.tick = Duration::from_millis(10);
    config.trace_cipher = nb_crypto::modes::CipherMode::Ctr;
    let dep = Deployment::new(
        Topology::Chain(2),
        LinkConfig::instant(),
        system_clock(),
        config,
    )
    .unwrap();
    let _entity = dep
        .traced_entity(
            0,
            "ctr-entity",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            true,
        )
        .unwrap();
    let tracker = dep
        .tracker(
            1,
            "ctr-tracker",
            "ctr-entity",
            vec![
                TraceCategory::AllUpdates,
                TraceCategory::ChangeNotifications,
            ],
        )
        .unwrap();
    assert!(wait_until(WAIT, || tracker.has_trace_key()));
    assert!(wait_until(WAIT, || {
        tracker.view().status("ctr-entity") == Some(EntityStatus::Available)
    }));
    assert!(wait_until(WAIT, || tracker.traces_applied() >= 3));
}
