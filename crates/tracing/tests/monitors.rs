//! Deployment-level runtime-verification tests: a clean end-to-end
//! run stays violation-free, and causally inconsistent availability
//! verdicts (the reordered-verdict attack) are caught and reported on
//! the audit topic.

#![allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively

use nb_monitor::{audit_topic, VerdictKind, Violation};
use nb_telemetry::{Stage, TraceContext};
use nb_tracing::config::{SigningMode, TracingConfig};
use nb_tracing::harness::{Deployment, Topology};
use nb_transport::clock::system_clock;
use nb_transport::sim::LinkConfig;
use nb_wire::payload::DiscoveryRestrictions;
use nb_wire::trace::TraceCategory;
use nb_wire::Payload;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(10);

fn deployment() -> Deployment {
    let mut config = TracingConfig::for_tests();
    config.auto_tick = true;
    config.tick = Duration::from_millis(10);
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

/// A clean run — registration, pings, heartbeats, verdicts, trackers —
/// must produce zero violations while the monitors observe real
/// traffic on every property.
#[test]
fn clean_end_to_end_run_reports_zero_violations() {
    let dep = deployment();
    let monitor = dep.monitors().unwrap();

    let entity = dep
        .traced_entity(
            0,
            "clean-svc",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .unwrap();
    let tracker = dep
        .tracker(
            1,
            "clean-ops",
            "clean-svc",
            vec![
                TraceCategory::ChangeNotifications,
                TraceCategory::AllUpdates,
            ],
        )
        .unwrap();

    // Let real traffic flow: several answered pings and heartbeats
    // reaching the remote tracker.
    assert!(wait_until(WAIT, || entity.pings_answered() >= 3));
    assert!(wait_until(WAIT, || {
        tracker
            .view()
            .get("clean-svc")
            .map(|r| r.traces_seen)
            .unwrap_or(0)
            >= 3
    }));

    // The monitors watched real deliveries, pings and verdicts…
    let snapshot = monitor.metrics_snapshot();
    assert!(
        snapshot.counter("monitor.events").unwrap_or(0) > 0,
        "monitors saw no events"
    );
    // …and none of it violated a property.
    assert_eq!(monitor.violation_count(), 0, "{:?}", monitor.violations());
    assert_eq!(snapshot.counter("monitor.audit.published"), Some(0));
    // The sampled overhead histogram populated (event 0 is sampled).
    assert!(
        snapshot
            .histogram("monitor.check_ns")
            .map(|h| h.count)
            .unwrap_or(0)
            >= 1
    );

    // The offline span sweep over the whole deployment's telemetry is
    // also clean.
    let mut flagged = 0;
    for node in dep.telemetry_spans() {
        flagged += monitor.check_spans(&node.node, &node.spans);
    }
    assert_eq!(flagged, 0);
    assert_eq!(monitor.violation_count(), 0);
}

/// The reordered-verdict attack: availability verdicts that no ping
/// traffic supports. A verdict about an entity nobody pinged (or a
/// positive verdict with no observed response) is causally
/// inconsistent and must be flagged and reported on the audit topic.
#[test]
fn causally_inconsistent_verdicts_are_caught_on_the_audit_topic() {
    let dep = deployment();
    let monitor = dep.monitors().unwrap();

    // Auditors subscribe to the monitor's audit topic like any client.
    let auditor = dep.network.attach_client(0, "auditor").unwrap();
    auditor.subscribe(audit_topic(), WAIT).unwrap();

    // Real traffic in the background proves the ledger tracks genuine
    // ping causality (no false positives while we attack).
    let entity = dep
        .traced_entity(
            0,
            "causal-svc",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .unwrap();
    assert!(wait_until(WAIT, || entity.pings_answered() >= 2));
    assert_eq!(monitor.violation_count(), 0);

    // Inject verdicts about an entity the engine never pinged — the
    // signature of a compromised or reordered verdict stream.
    let node = dep.network.broker(0).id().to_string();
    let now = dep.clock.now_ms();
    monitor.on_verdict(&node, "ghost-entity", VerdictKind::AllsWell, now);
    monitor.on_verdict(&node, "ghost-entity", VerdictKind::Failed, now);

    let violations = monitor.violations();
    assert_eq!(violations.len(), 2, "{violations:?}");
    assert!(violations.iter().all(|v| v.property == "causal"));
    assert!(violations[0].detail.contains("supporting ping response"));
    assert!(violations[1]
        .detail
        .contains("no outstanding unanswered ping"));
    assert_eq!(violations[0].topic, "/Entities/ghost-entity");

    // Both reports arrive signed on the audit topic.
    for _ in 0..2 {
        let msg = auditor.next_message(WAIT).expect("audit report arrives");
        msg.verify_signature(&monitor.certificate().public_key)
            .expect("valid monitor signature");
        let Payload::Blob { data } = &msg.payload else {
            panic!("audit payload should be a violation blob");
        };
        let report = Violation::from_bytes(data).expect("violation decodes");
        assert_eq!(report.property, "causal");
        assert_eq!(report.node, node);
    }
    assert_eq!(
        monitor
            .metrics_snapshot()
            .counter("monitor.violations.causal"),
        Some(2)
    );
}

/// The offline span sweep flags telemetry whose recorded hop count
/// exceeds the TTL bound — the flight-recorder face of property 2.
#[test]
fn span_sweep_flags_out_of_bound_hops() {
    let dep = deployment();
    let monitor = dep.monitors().unwrap();

    let mut ctx = TraceContext::root(0, true);
    ctx.hop_count = 200; // far beyond the default bound of 16
    let span = nb_telemetry::SpanEvent::new(&ctx, Stage::Route, 10, 20);
    // Both hop-bound properties (`ttl` and the strict `ttl-strip`)
    // re-check the recorded hop, so one bad span flags twice.
    let flagged = monitor.check_spans("probe-node", &[span]);
    assert_eq!(flagged, 2);
    let violations = monitor.violations();
    assert_eq!(violations.len(), 2);
    assert_eq!(violations[0].property, "ttl");
    assert_eq!(violations[1].property, "ttl-strip");
    assert!(violations.iter().all(|v| v.node == "probe-node"));
    assert!(violations[0].detail.contains("exceeds"));
}
