//! A frame that does not decode must not stop an entity or a tracker.
//! Any attached client may publish on the plain topics they stay
//! subscribed to (`channels::registration_reply`,
//! `channels::key_delivery`), and the broker forwards such a frame on
//! its fast path without decoding the payload; the receiving client
//! skips it and keeps going.

use nb_broker::BrokerClient;
use nb_tracing::channels;
use nb_tracing::config::{SigningMode, TracingConfig};
use nb_tracing::harness::{Deployment, Topology};
use nb_tracing::view::EntityStatus;
use nb_transport::clock::system_clock;
use nb_transport::endpoint::FrameSender;
use nb_transport::sim::LinkConfig;
use nb_wire::codec::Encode;
use nb_wire::payload::DiscoveryRestrictions;
use nb_wire::trace::{LoadInformation, TraceCategory};
use nb_wire::{MessageView, Payload, Topic};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(10);

fn deployment() -> Deployment {
    let config = TracingConfig {
        auto_tick: true,
        tick: Duration::from_millis(10),
        ..TracingConfig::for_tests()
    };
    Deployment::new(
        Topology::Chain(1),
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

/// Attaches `mallory` to broker 0 over a sim link, then publishes one
/// `Blob` message on `topic` whose payload tag byte is `0xFE`, a tag no
/// payload has, through the link's raw sender. Returns once the broker
/// has routed it: a client's frames are handled in order, so a later
/// subscribe's acknowledgement is the barrier.
fn publish_undecodable(dep: &Deployment, topic: Topic) -> BrokerClient {
    let (broker_side, client_side) = dep.network.sim().symmetric_link(LinkConfig::instant());
    dep.network.broker(0).attach_client(broker_side);
    let raw: Arc<dyn FrameSender> = client_side.sender();
    let mallory = BrokerClient::attach(client_side, "mallory", dep.clock.clone(), WAIT).unwrap();
    let mut frame = mallory
        .make_message(topic, Payload::Blob { data: vec![0; 16] })
        .to_bytes();
    let view = MessageView::parse(&frame).unwrap();
    let tag_at = view.payload.as_ptr() as usize - frame.as_ptr() as usize;
    frame[tag_at] = 0xFE;
    raw.send_frame(&frame).unwrap();
    mallory
        .subscribe(Topic::parse("/Mallory/Barrier").unwrap(), WAIT)
        .unwrap();
    mallory
}

#[test]
fn tracker_applies_a_load_published_after_an_undecodable_frame() {
    let dep = deployment();
    let entity = dep
        .traced_entity(
            0,
            "loaded",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .unwrap();
    let tracker = dep
        .tracker(0, "load-watcher", "loaded", vec![TraceCategory::Load])
        .unwrap();
    assert!(wait_until(WAIT, || dep.engine(0).interest_count("loaded") >= 1));

    let _mallory = publish_undecodable(&dep, channels::key_delivery("load-watcher"));
    entity
        .report_load(LoadInformation {
            cpu_percent: 42.5,
            memory_used_bytes: 1 << 30,
            memory_total_bytes: 8 << 30,
            workload: 3,
        })
        .unwrap();
    assert!(wait_until(WAIT, || {
        tracker
            .view()
            .get("loaded")
            .and_then(|r| r.load)
            .is_some_and(|l| l.cpu_percent == 42.5)
    }));
}

#[test]
fn entity_answers_pings_after_an_undecodable_frame() {
    let dep = deployment();
    let entity = dep
        .traced_entity(
            0,
            "pinged",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .unwrap();
    let tracker = dep
        .tracker(
            0,
            "ping-watcher",
            "pinged",
            vec![TraceCategory::ChangeNotifications],
        )
        .unwrap();
    assert!(tracker.wait_for_status(EntityStatus::Available, WAIT));

    let _mallory = publish_undecodable(&dep, channels::registration_reply("pinged"));
    let answered = entity.pings_answered();
    assert!(entity.wait_for_pings(answered + 5, WAIT));
    assert!(tracker.wait_for_status(EntityStatus::Available, WAIT));
}
