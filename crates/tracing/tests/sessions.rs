//! Full-stack session-key tests: the entity announces an HMAC session
//! key through the RSA-sealed handshake, the engine installs it in the
//! hosting broker's keyring and tags every trace publication, the
//! tracker receives the sealed key and authenticates traces with one
//! HMAC — and rotation swaps keys without interrupting the stream,
//! leaving a signed revocation notice on the audit topic.

#![allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively

use nb_tracing::config::{SigningMode, TracingConfig};
use nb_tracing::harness::{Deployment, Topology};
use nb_tracing::view::EntityStatus;
use nb_transport::clock::system_clock;
use nb_transport::sim::LinkConfig;
use nb_wire::payload::DiscoveryRestrictions;
use nb_wire::trace::TraceCategory;
use nb_wire::Payload;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(10);

fn session_deployment(max_messages: u64) -> Deployment {
    let mut config = TracingConfig::for_tests();
    config.auto_tick = true; // background ticker; real-time tests
    config.tick = Duration::from_millis(10);
    config.session_keys = true;
    config.session_max_messages = max_messages;
    Deployment::new(
        Topology::Chain(2),
        LinkConfig::instant(),
        system_clock(),
        config,
    )
    .unwrap()
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

#[test]
fn session_tagged_traces_flow_end_to_end() {
    let dep = session_deployment(1 << 16);
    let monitor = dep.monitors().unwrap();
    let _entity = dep
        .traced_entity(
            0,
            "svc",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .unwrap();
    let tracker = dep
        .tracker(
            1,
            "console",
            "svc",
            vec![
                TraceCategory::ChangeNotifications,
                TraceCategory::AllUpdates,
            ],
        )
        .unwrap();

    // The availability pipeline works as before…
    assert!(wait_until(WAIT, || {
        tracker.view().status("svc") == Some(EntityStatus::Available)
    }));
    // …and the session layer is actually carrying it: the engine
    // adopted the announced key, the tracker received its sealed copy,
    // and traces authenticate by session MAC at both ends.
    assert!(wait_until(WAIT, || {
        dep.engine(0).stats().session_established >= 1
    }));
    assert!(wait_until(WAIT, || tracker.has_session_key()));
    assert!(
        wait_until(WAIT, || tracker.session_verified() >= 3),
        "tracker must authenticate a stream of traces by HMAC"
    );
    let hosting = dep.network.broker(0).metrics_snapshot();
    assert!(
        hosting.counter("broker.session.verified").unwrap_or(0) >= 1,
        "the hosting broker admits tagged traces through the keyring"
    );
    assert_eq!(
        monitor.violation_count(),
        0,
        "clean session traffic must leave the monitors silent"
    );
}

#[test]
fn session_rotation_is_seamless_and_audited() {
    // A six-message budget forces a rotation within the first second
    // of heartbeat traffic.
    let dep = session_deployment(6);
    let audit_rx = {
        let broker = dep.network.broker(0);
        let rx = broker.register_internal("audit-probe");
        broker
            .subscribe_internal("audit-probe", nb_monitor::audit_topic())
            .unwrap();
        rx
    };
    let _entity = dep
        .traced_entity(
            0,
            "rotating",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .unwrap();
    let tracker = dep
        .tracker(
            1,
            "watcher",
            "rotating",
            vec![
                TraceCategory::ChangeNotifications,
                TraceCategory::AllUpdates,
            ],
        )
        .unwrap();

    assert!(
        wait_until(WAIT, || dep.engine(0).stats().session_rotations >= 1),
        "spent budget must trigger a rotation"
    );
    // Seamless: the tracker keeps authenticating by session MAC after
    // the swap (the fresh key was delivered before the old one died).
    let verified_at_rotation = tracker.session_verified();
    assert!(
        wait_until(WAIT, || {
            tracker.session_verified() > verified_at_rotation
        }),
        "the tagged stream must continue under the fresh key"
    );
    assert!(tracker.has_session_key());

    // The rotation left a signed revocation notice on the audit topic.
    let deadline = Instant::now() + WAIT;
    let mut audited = false;
    while Instant::now() < deadline {
        let Ok(msg) = audit_rx.recv_timeout(Duration::from_millis(100)) else {
            continue;
        };
        if let Payload::SessionKeyRevoke { key_id, .. } = &msg.payload {
            assert!(*key_id != 0);
            assert!(
                msg.signature.is_some(),
                "audit revocations must be RSA-signed"
            );
            audited = true;
            break;
        }
    }
    assert!(
        audited,
        "rotation must publish a revocation on the audit topic"
    );
}
