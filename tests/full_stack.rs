//! Cross-crate integration tests through the `entity-tracing` facade:
//! the full stack under failure injection, lossy links, and adversarial
//! inputs.

#![allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively

use entity_tracing::prelude::*;
use entity_tracing::tracing::config::SigningMode as Mode;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(15);

/// The loss-injection tests each stand up a deployment with hundreds
/// of threads and probabilistic delivery; running them concurrently
/// makes their tail latencies compound. Serialize them.
static LOSSY_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Serializes a lossy test, recovering the gate if a previous holder
/// panicked — one failing test must not cascade into poison panics in
/// every later gated test.
fn lossy_gate() -> std::sync::MutexGuard<'static, ()> {
    LOSSY_GATE.lock().unwrap_or_else(|e| e.into_inner())
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

fn fast_config() -> TracingConfig {
    let mut config = TracingConfig::for_tests();
    config.auto_tick = true;
    config.tick = Duration::from_millis(10);
    config
}

#[test]
fn prelude_quickstart_flow() {
    let deployment = Deployment::new(
        Topology::Chain(2),
        LinkConfig::instant(),
        system_clock(),
        fast_config(),
    )
    .unwrap();
    let entity = deployment
        .traced_entity(
            0,
            "svc",
            DiscoveryRestrictions::Open,
            Mode::RsaSign,
            false,
        )
        .unwrap();
    let tracker = deployment
        .tracker(
            1,
            "watcher",
            "svc",
            vec![TraceCategory::ChangeNotifications, TraceCategory::AllUpdates],
        )
        .unwrap();
    assert!(wait_until(WAIT, || {
        tracker.view().status("svc") == Some(EntityStatus::Available)
    }));
    assert!(wait_until(WAIT, || entity.pings_answered() >= 2));
}

#[test]
fn tracking_survives_a_lossy_entity_link() {
    let _gate = lossy_gate();
    // 20% loss on every link: pings and responses drop, the adaptive
    // interval kicks in, but a live entity must stay Available (no
    // false FAILED verdict) because suspicion needs *consecutive*
    // losses beyond the threshold and responses keep resetting it.
    let mut config = fast_config();
    config.suspicion_threshold = 4;
    config.failure_threshold = 4;
    let deployment = Deployment::new(
        Topology::Chain(2),
        LinkConfig::lossy(0.2).with_latency(Duration::from_micros(200)),
        system_clock(),
        config,
    )
    .unwrap();
    let entity = deployment
        .traced_entity(
            0,
            "flaky-link-svc",
            DiscoveryRestrictions::Open,
            Mode::RsaSign,
            false,
        )
        .unwrap();
    let tracker = deployment
        .tracker(
            1,
            "patient-watcher",
            "flaky-link-svc",
            vec![TraceCategory::ChangeNotifications, TraceCategory::AllUpdates],
        )
        .unwrap();

    assert!(wait_until(WAIT, || entity.pings_answered() >= 10));
    assert!(wait_until(WAIT, || {
        tracker.view().status("flaky-link-svc") == Some(EntityStatus::Available)
    }));
    // Whatever transient suspicions occurred, the entity must not be
    // deemed failed while it keeps answering.
    assert_ne!(
        deployment.engine(0).liveness_of("flaky-link-svc"),
        Some(entity_tracing::tracing::Liveness::Failed)
    );
}

#[test]
fn network_metrics_reflect_injected_loss() {
    let _gate = lossy_gate();
    let mut config = fast_config();
    config.suspicion_threshold = 6;
    config.failure_threshold = 6;
    config.metrics_interval = Duration::from_millis(200);
    // 15% loss: enough that the ping window reliably records losses,
    // low enough that GAUGE_INTEREST refresh round trips outpace the
    // 4×gauge_interval interest TTL (at 30% loss the tracker's
    // interest entry flaps and metrics publication gets gated).
    let deployment = Deployment::new(
        Topology::Chain(2),
        LinkConfig::lossy(0.15).with_latency(Duration::from_micros(200)),
        system_clock(),
        config,
    )
    .unwrap();
    let _entity = deployment
        .traced_entity(
            0,
            "measured-svc",
            DiscoveryRestrictions::Open,
            Mode::RsaSign,
            false,
        )
        .unwrap();
    let tracker = deployment
        .tracker(
            1,
            "metrics-watcher",
            "measured-svc",
            vec![
                TraceCategory::NetworkMetrics,
                TraceCategory::ChangeNotifications,
            ],
        )
        .unwrap();

    // Eventually a NETWORK_METRICS trace arrives showing nonzero loss.
    // Generous timeout: 30% loss on every link makes each control and
    // trace exchange probabilistic, and the suite runs under parallel
    // CPU contention.
    assert!(wait_until(Duration::from_secs(90), || {
        tracker
            .view()
            .get("measured-svc")
            .and_then(|r| r.network)
            .map(|m| m.loss_rate > 0.0)
            .unwrap_or(false)
    }));
}

#[test]
fn duplicated_frames_do_not_corrupt_the_view() {
    let _gate = lossy_gate();
    let mut link = LinkConfig::instant();
    link.duplicate_rate = 0.5;
    let deployment = Deployment::new(
        Topology::Chain(2),
        link,
        system_clock(),
        fast_config(),
    )
    .unwrap();
    let entity = deployment
        .traced_entity(
            0,
            "dup-svc",
            DiscoveryRestrictions::Open,
            Mode::RsaSign,
            false,
        )
        .unwrap();
    let tracker = deployment
        .tracker(
            1,
            "dup-watcher",
            "dup-svc",
            vec![
                TraceCategory::ChangeNotifications,
                TraceCategory::AllUpdates,
                TraceCategory::StateTransitions,
            ],
        )
        .unwrap();
    assert!(wait_until(WAIT, || entity.pings_answered() >= 5));
    assert!(wait_until(WAIT, || {
        tracker.view().status("dup-svc") == Some(EntityStatus::Available)
    }));
    // Stale-sequence filtering keeps the view consistent.
    entity.set_state(EntityState::Shutdown).unwrap();
    entity.stop();
    assert!(wait_until(WAIT, || {
        tracker.view().get("dup-svc").and_then(|r| r.state) == Some(EntityState::Shutdown)
    }));
}

#[test]
fn many_entities_many_trackers_cross_broker() {
    let deployment = Deployment::new(
        Topology::Star(3),
        LinkConfig::instant(),
        system_clock(),
        fast_config(),
    )
    .unwrap();
    let mut entities = Vec::new();
    for i in 0..6 {
        entities.push(
            deployment
                .traced_entity(
                    1 + (i % 3),
                    &format!("svc-{i}"),
                    DiscoveryRestrictions::Open,
                    Mode::RsaSign,
                    false,
                )
                .unwrap(),
        );
    }
    let mut trackers = Vec::new();
    for i in 0..6 {
        trackers.push(
            deployment
                .tracker(
                    0,
                    &format!("watch-{i}"),
                    &format!("svc-{i}"),
                    vec![TraceCategory::ChangeNotifications, TraceCategory::AllUpdates],
                )
                .unwrap(),
        );
    }
    for (i, tracker) in trackers.iter().enumerate() {
        assert!(
            wait_until(WAIT, || {
                tracker.view().status(&format!("svc-{i}")) == Some(EntityStatus::Available)
            }),
            "svc-{i} never became available"
        );
    }
    // Kill half the fleet; exactly those become Failed.
    for entity in entities.iter().step_by(2) {
        entity.stop();
    }
    for (i, tracker) in trackers.iter().enumerate() {
        let want = if i % 2 == 0 {
            EntityStatus::Failed
        } else {
            EntityStatus::Available
        };
        assert!(
            wait_until(Duration::from_secs(30), || {
                tracker.view().status(&format!("svc-{i}")) == Some(want)
            }),
            "svc-{i} did not reach {want:?}"
        );
    }
}

#[test]
fn metrics_snapshot_covers_every_layer() {
    let deployment = Deployment::new(
        Topology::Chain(2),
        LinkConfig::instant(),
        system_clock(),
        fast_config(),
    )
    .unwrap();
    let entity = deployment
        .traced_entity(
            0,
            "metered-svc",
            DiscoveryRestrictions::Open,
            Mode::RsaSign,
            false,
        )
        .unwrap();
    let tracker = deployment
        .tracker(
            1,
            "metered-watcher",
            "metered-svc",
            vec![TraceCategory::ChangeNotifications, TraceCategory::AllUpdates],
        )
        .unwrap();
    assert!(wait_until(WAIT, || {
        tracker.view().status("metered-svc") == Some(EntityStatus::Available)
    }));
    assert!(wait_until(WAIT, || entity.pings_answered() >= 2));

    let snapshot = deployment.metrics_snapshot();

    // Broker layer: the home broker accepted the entity's publishes and
    // delivered to local consumers; the trace topic shows up in the
    // per-family counters.
    assert!(snapshot.counter("broker-0.broker.publish.accepted").unwrap() > 0);
    assert!(snapshot.counter("broker-0.broker.deliver.local").unwrap() > 0);
    assert!(snapshot.counter_sum("broker-0.broker.publish.topic.") > 0);

    // Tracing engine layer: pings flowed, traces were published, and a
    // session is live at broker 0.
    assert!(snapshot.counter("broker-0.tracing.pings.sent").unwrap() > 0);
    assert!(snapshot.counter("broker-0.tracing.traces.published").unwrap() > 0);
    assert_eq!(snapshot.gauge("broker-0.tracing.sessions"), Some(1));

    // TDN layer: the entity created its trace topic at one member and
    // the cluster replicated it; the tracker ran a discovery query.
    assert!(snapshot.counter_sum("tdn-0.tdn.topics.created") + snapshot.counter_sum("tdn-1.tdn.topics.created") > 0);
    assert!(snapshot.counter_sum("tdn-0.tdn.discovery.queries") > 0 || snapshot.counter_sum("tdn-1.tdn.discovery.queries") > 0 || snapshot.counter_sum("tdn-2.tdn.discovery.queries") > 0);

    // Process-wide layers (shared with concurrently running tests, so
    // only direction is asserted): transport moved frames, tokens were
    // minted and verified, RSA signing ran.
    assert!(snapshot.counter("transport.frames.sent").unwrap() > 0);
    assert!(snapshot.counter("transport.bytes.sent").unwrap() > 0);
    assert!(snapshot.counter("token.minted").unwrap() > 0);
    assert!(snapshot.counter("token.verify.ok").unwrap() > 0);
    let sign = snapshot.histogram("crypto.rsa.sign_us").expect("rsa sign timings");
    assert!(sign.count > 0);

    // The rendered forms carry every entry.
    let table = snapshot.to_table();
    let dump = snapshot.to_dump();
    for needle in ["broker-0.broker.publish.accepted", "crypto.rsa.sign_us"] {
        assert!(table.contains(needle), "table missing {needle}");
        assert!(dump.contains(needle), "dump missing {needle}");
    }
}

#[test]
fn view_is_shared_across_clones_and_threads() {
    let deployment = Deployment::new(
        Topology::Chain(2),
        LinkConfig::instant(),
        system_clock(),
        fast_config(),
    )
    .unwrap();
    let _entity = deployment
        .traced_entity(
            0,
            "shared-svc",
            DiscoveryRestrictions::Open,
            Mode::RsaSign,
            false,
        )
        .unwrap();
    let tracker = deployment
        .tracker(
            1,
            "shared-watcher",
            "shared-svc",
            vec![TraceCategory::ChangeNotifications, TraceCategory::AllUpdates],
        )
        .unwrap();
    let view = tracker.view();
    let handle = std::thread::spawn(move || {
        let deadline = Instant::now() + WAIT;
        while Instant::now() < deadline {
            if view.status("shared-svc") == Some(EntityStatus::Available) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        false
    });
    assert!(handle.join().unwrap());
}
