//! End-to-end broker-network tests: routing, subscription
//! propagation, constrained-topic enforcement, token-gated trace
//! forwarding, and DoS containment.

use nb_broker::network::BrokerNetwork;
use nb_broker::{Broker, BrokerClient, BrokerConfig, BrokerError};
use nb_crypto::cert::{CertificateAuthority, Credential, Validity};
use nb_crypto::rsa::RsaKeyPair;
use nb_crypto::Uuid;
use nb_monitor::{parse_properties, MonitorSet};
use nb_transport::clock::{system_clock, SharedClock};
use nb_transport::sim::{LinkConfig, SimNetwork};
use nb_wire::codec::{Decode, Encode};
use nb_wire::token::{AuthorizationToken, Rights};
use nb_wire::trace::{topics, TraceCategory, TraceEvent, TraceKind};
use nb_wire::{Message, MessageView, Payload, Topic};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(5);

fn t(s: &str) -> Topic {
    Topic::parse(s).unwrap()
}

fn chain(n: usize) -> BrokerNetwork {
    let net = BrokerNetwork::chain(
        n,
        LinkConfig::instant(),
        system_clock(),
        BrokerConfig::default(),
    );
    assert!(net.wait_for_mesh(TIMEOUT));
    net
}

/// Certificates are expensive to mint; share a CA across tests.
fn ca() -> &'static Mutex<CertificateAuthority> {
    static CA: OnceLock<Mutex<CertificateAuthority>> = OnceLock::new();
    CA.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xb20c);
        Mutex::new(
            CertificateAuthority::new(
                "test-ca",
                512,
                Validity::starting_now(0, u64::MAX / 2),
                &mut rng,
            )
            .unwrap(),
        )
    })
}

fn credential(subject: &str) -> Credential {
    let mut rng = StdRng::seed_from_u64(subject.len() as u64);
    ca().lock()
        .unwrap()
        .issue(subject, Validity::starting_now(0, u64::MAX / 2), &mut rng)
        .unwrap()
}

#[test]
fn single_broker_pub_sub() {
    let net = chain(1);
    let publisher = net.attach_client(0, "pub-1").unwrap();
    let subscriber = net.attach_client(0, "sub-1").unwrap();
    subscriber.subscribe(t("/News/Sports"), TIMEOUT).unwrap();

    publisher
        .publish(
            t("/News/Sports"),
            Payload::Blob {
                data: b"goal!".to_vec(),
            },
        )
        .unwrap();
    let msg = subscriber.next_message(TIMEOUT).unwrap();
    assert_eq!(msg.topic, t("/News/Sports"));
    assert!(matches!(msg.payload, Payload::Blob { ref data } if data == b"goal!"));
}

#[test]
fn publisher_does_not_receive_own_message() {
    let net = chain(1);
    let client = net.attach_client(0, "self-sub").unwrap();
    client.subscribe(t("/Echo"), TIMEOUT).unwrap();
    client
        .publish(
            t("/Echo"),
            Payload::Blob {
                data: b"me".to_vec(),
            },
        )
        .unwrap();
    assert!(client.next_message(Duration::from_millis(200)).is_err());
}

#[test]
fn routing_respects_topic_selectivity() {
    let net = chain(1);
    let publisher = net.attach_client(0, "pub").unwrap();
    let sub_a = net.attach_client(0, "sub-a").unwrap();
    let sub_b = net.attach_client(0, "sub-b").unwrap();
    sub_a.subscribe(t("/T/A"), TIMEOUT).unwrap();
    sub_b.subscribe(t("/T/B"), TIMEOUT).unwrap();

    publisher
        .publish(t("/T/A"), Payload::Blob { data: vec![1] })
        .unwrap();
    assert!(sub_a.next_message(TIMEOUT).is_ok());
    assert!(sub_b.next_message(Duration::from_millis(200)).is_err());
}

#[test]
fn multi_hop_routing_across_chain() {
    let net = chain(4);
    let publisher = net.attach_client(0, "edge-pub").unwrap();
    let subscriber = net.attach_client(3, "edge-sub").unwrap();
    subscriber.subscribe(t("/Far/Away"), TIMEOUT).unwrap();
    // Allow the subscription advert to propagate down the chain.
    std::thread::sleep(Duration::from_millis(100));

    publisher
        .publish(
            t("/Far/Away"),
            Payload::Blob {
                data: b"4 hops".to_vec(),
            },
        )
        .unwrap();
    let msg = subscriber.next_message(TIMEOUT).unwrap();
    assert!(matches!(msg.payload, Payload::Blob { ref data } if data == b"4 hops"));
}

#[test]
fn messages_do_not_leak_to_uninterested_brokers() {
    let net = chain(3);
    let publisher = net.attach_client(0, "p").unwrap();
    let subscriber = net.attach_client(1, "s").unwrap();
    subscriber.subscribe(t("/Mid"), TIMEOUT).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let before = net.broker(2).stats();
    for _ in 0..5 {
        publisher
            .publish(t("/Mid"), Payload::Blob { data: vec![7] })
            .unwrap();
    }
    subscriber.next_message(TIMEOUT).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let after = net.broker(2).stats();
    // Broker 2 never advertised interest, so nothing reaches it.
    assert_eq!(before.delivered_local, after.delivered_local);
}

#[test]
fn wildcard_subscription_spans_topics() {
    let net = chain(1);
    let publisher = net.attach_client(0, "pub").unwrap();
    let subscriber = net.attach_client(0, "sub").unwrap();
    subscriber.subscribe(t("/Traces/#"), TIMEOUT).unwrap();
    publisher
        .publish(t("/Traces/e1/Load"), Payload::Blob { data: vec![1] })
        .unwrap();
    publisher
        .publish(t("/Traces/e2/Metrics"), Payload::Blob { data: vec![2] })
        .unwrap();
    assert!(subscriber.next_message(TIMEOUT).is_ok());
    assert!(subscriber.next_message(TIMEOUT).is_ok());
}

#[test]
fn constrained_publish_only_refuses_entity_publishers() {
    let net = chain(1);
    let mallory = net.attach_client(0, "mallory").unwrap();
    let topic = t("/Constrained/Traces/Broker/Publish-Only/some-topic/AllUpdates");
    // The publish is silently rejected (and counted) — nothing routes.
    mallory
        .publish(topic.clone(), Payload::Blob { data: vec![0] })
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    assert!(net.broker(0).stats().rejected >= 1);
}

#[test]
fn constrained_subscribe_only_refuses_entity_subscribers() {
    let net = chain(1);
    let mallory = net.attach_client(0, "mallory").unwrap();
    let topic = t("/Constrained/Traces/Broker/Subscribe-Only/Registration");
    let err = mallory.subscribe(topic, TIMEOUT).unwrap_err();
    assert!(matches!(err, BrokerError::Refused(_)));
}

#[test]
fn entity_constrainer_may_subscribe_its_own_channel() {
    let net = chain(1);
    let entity = net.attach_client(0, "entity-7").unwrap();
    let own = t("/Constrained/Traces/entity-7/Subscribe-Only/tt/sess");
    entity.subscribe(own, TIMEOUT).unwrap();

    let other = net.attach_client(0, "entity-8").unwrap();
    let not_yours = t("/Constrained/Traces/entity-7/Subscribe-Only/tt/sess");
    assert!(other.subscribe(not_yours, TIMEOUT).is_err());
}

#[test]
fn repeated_bogus_attempts_terminate_the_client() {
    let net = chain(1);
    let mallory = net.attach_client(0, "mallory").unwrap();
    let forbidden = t("/Constrained/Traces/Broker/Publish-Only/tt/AllUpdates");
    // Default limit is 3 bogus attempts.
    for _ in 0..3 {
        let _ = mallory.publish(forbidden.clone(), Payload::Blob { data: vec![0] });
    }
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(net.broker(0).stats().terminated_clients, 1);
    assert_eq!(net.broker(0).client_count(), 0);
}

#[test]
fn internal_publish_and_subscribe() {
    let net = chain(1);
    let broker = net.broker(0);
    let rx = broker.register_internal("engine");
    broker
        .subscribe_internal("engine", t("/Internal/Channel"))
        .unwrap();
    let client = net.attach_client(0, "c").unwrap();
    client
        .publish(
            t("/Internal/Channel"),
            Payload::Blob {
                data: b"to engine".to_vec(),
            },
        )
        .unwrap();
    let msg = rx.recv_timeout(TIMEOUT).unwrap();
    assert!(matches!(msg.payload, Payload::Blob { ref data } if data == b"to engine"));
}

#[test]
fn suppressed_subscription_stays_local() {
    let net = chain(2);
    // Broker 0's engine subscribes to the registration topic, which is
    // Subscribe-Only + Limited: the advert must NOT propagate.
    let b0 = net.broker(0);
    let _rx = b0.register_internal("engine");
    b0.subscribe_internal("engine", topics::registration())
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // A client on broker 1 publishing a registration reaches broker 1
    // only; broker 0 must not see it (its interest was suppressed).
    let before = b0.stats();
    let client = net.attach_client(1, "remote-entity").unwrap();
    client
        .publish(topics::registration(), Payload::Blob { data: vec![9] })
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let after = b0.stats();
    assert_eq!(before.delivered_local, after.delivered_local);
}

fn make_trace_message(
    broker: &Broker,
    owner: &Credential,
    trace_topic: Uuid,
    delegate: &RsaKeyPair,
    clock: &SharedClock,
    with_token: bool,
) -> Message {
    let now = clock.now_ms();
    let event = TraceEvent {
        entity_id: "entity-1".to_string(),
        trace_topic,
        seq: 1,
        timestamp_ms: now,
        kind: TraceKind::AllsWell,
    };
    let mut msg = Message::new(
        broker.next_message_id(),
        topics::publication(&trace_topic, TraceCategory::AllUpdates),
        broker.id().to_string(),
        now,
        Payload::Trace { event },
    );
    if with_token {
        let token = AuthorizationToken::issue(
            owner,
            trace_topic,
            delegate.public.clone(),
            Rights::Publish,
            now.saturating_sub(1000),
            now + 60_000,
        )
        .unwrap();
        msg = msg.with_token(token);
    }
    msg
}

#[test]
fn tokened_traces_route_and_tokenless_traces_are_dropped() {
    let net = chain(2);
    let clock: SharedClock = system_clock();
    let owner = credential("entity:owner-x");
    let mut rng = StdRng::seed_from_u64(7);
    let delegate = RsaKeyPair::generate(512, &mut rng).unwrap();
    let trace_topic = Uuid::new_v4(&mut rng);

    // The hosting broker knows the owner key (registration did this).
    net.broker(0)
        .register_topic_owner(trace_topic, owner.certificate.public_key.clone());

    // Tracker on broker 1 subscribes to the publication channel.
    let tracker = net.attach_client(1, "tracker-1").unwrap();
    tracker
        .subscribe(
            topics::publication(&trace_topic, TraceCategory::AllUpdates),
            TIMEOUT,
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // With a token: delivered end to end.
    let good = make_trace_message(net.broker(0), &owner, trace_topic, &delegate, &clock, true);
    net.broker(0).publish_internal(good);
    let got = tracker.next_message(TIMEOUT).unwrap();
    assert!(matches!(got.payload, Payload::Trace { .. }));

    // Without a token: the hosting broker drops it as spurious.
    let bad = make_trace_message(net.broker(0), &owner, trace_topic, &delegate, &clock, false);
    net.broker(0).publish_internal(bad);
    assert!(tracker.next_message(Duration::from_millis(300)).is_err());
    assert!(net.broker(0).stats().dropped_spurious >= 1);
}

#[test]
fn forged_token_is_dropped_at_the_knowing_broker() {
    let net = chain(2);
    let clock: SharedClock = system_clock();
    let owner = credential("entity:owner-y");
    let imposter = credential("entity:imposter");
    let mut rng = StdRng::seed_from_u64(8);
    let delegate = RsaKeyPair::generate(512, &mut rng).unwrap();
    let trace_topic = Uuid::new_v4(&mut rng);
    net.broker(0)
        .register_topic_owner(trace_topic, owner.certificate.public_key.clone());

    let tracker = net.attach_client(1, "tracker").unwrap();
    tracker
        .subscribe(
            topics::publication(&trace_topic, TraceCategory::AllUpdates),
            TIMEOUT,
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // Token signed by the WRONG owner.
    let forged = make_trace_message(
        net.broker(0),
        &imposter,
        trace_topic,
        &delegate,
        &clock,
        true,
    );
    net.broker(0).publish_internal(forged);
    assert!(tracker.next_message(Duration::from_millis(300)).is_err());
    assert!(net.broker(0).stats().dropped_spurious >= 1);
}

#[test]
fn expired_token_is_dropped_without_owner_key() {
    // Even a transit broker that cannot verify the signature enforces
    // the validity window.
    let net = chain(2);
    let clock: SharedClock = system_clock();
    let owner = credential("entity:owner-z");
    let mut rng = StdRng::seed_from_u64(9);
    let delegate = RsaKeyPair::generate(512, &mut rng).unwrap();
    let trace_topic = Uuid::new_v4(&mut rng);

    let tracker = net.attach_client(1, "tracker").unwrap();
    tracker
        .subscribe(
            topics::publication(&trace_topic, TraceCategory::AllUpdates),
            TIMEOUT,
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let now = clock.now_ms();
    let event = TraceEvent {
        entity_id: "entity-1".to_string(),
        trace_topic,
        seq: 1,
        timestamp_ms: now,
        kind: TraceKind::AllsWell,
    };
    let expired_token = AuthorizationToken::issue(
        &owner,
        trace_topic,
        delegate.public.clone(),
        Rights::Publish,
        now.saturating_sub(120_000),
        now.saturating_sub(60_000), // expired a minute ago
    )
    .unwrap();
    let msg = Message::new(
        net.broker(0).next_message_id(),
        topics::publication(&trace_topic, TraceCategory::AllUpdates),
        net.broker(0).id().to_string(),
        now,
        Payload::Trace { event },
    )
    .with_token(expired_token);
    net.broker(0).publish_internal(msg);
    assert!(tracker.next_message(Duration::from_millis(300)).is_err());
}

/// A transit broker decides a relayed trace publication on its token
/// alone, decoding nothing else: an in-window token carries a frame
/// whose payload does not decode (the token never covered the
/// payload), the monitor's `require-token` does not flag it, and an
/// expired token is still dropped and counted.
#[test]
fn relayed_trace_is_judged_on_its_token_alone() {
    let clock: SharedClock = system_clock();
    let net = SimNetwork::new(27);
    let transit = Broker::new("transit", clock.clone(), BrokerConfig::default());
    let specs = parse_properties("auth: require-token on /Constrained/Traces/*/Publish-Only/#\n");
    let monitor = MonitorSet::new(specs.unwrap(), credential("Monitor"));
    transit.attach_monitor(monitor.clone());
    let owner = credential("entity:owner-relay");
    let mut rng = StdRng::seed_from_u64(27);
    let delegate = RsaKeyPair::generate(512, &mut rng).unwrap();
    let trace_topic = Uuid::new_v4(&mut rng);
    let topic = topics::publication(&trace_topic, TraceCategory::AllUpdates);

    // A raw subscriber: it reads each frame exactly as the broker sends it.
    let (broker_side, tracker) = net.symmetric_link(LinkConfig::instant());
    transit.attach_client(broker_side);
    let control = [
        Payload::Attach {
            client_id: "tracker".into(),
        },
        Payload::Subscribe {
            filter: topic.clone(),
        },
    ];
    for (id, payload) in control.into_iter().enumerate() {
        let request = Message::new(id as u64, nb_broker::control_topic(), "tracker", 0, payload);
        tracker.send(&request.to_bytes()).unwrap();
        let reply = Message::from_bytes(&tracker.recv_timeout(TIMEOUT).unwrap()).unwrap();
        assert!(matches!(reply.payload, Payload::Ack));
    }

    let now = clock.now_ms();
    let relayed = |valid_from_ms, valid_until_ms| {
        let token = AuthorizationToken::issue(
            &owner,
            trace_topic,
            delegate.public.clone(),
            Rights::Publish,
            valid_from_ms,
            valid_until_ms,
        )
        .unwrap();
        let msg = Message::new(
            1,
            topic.clone(),
            "broker-0",
            now,
            Payload::Blob { data: vec![7; 8] },
        )
        .with_token(token);
        let mut frame = msg.to_bytes();
        // A payload tag byte no payload has.
        let view = MessageView::parse(&frame).unwrap();
        let tag_at = view.payload.as_ptr() as usize - frame.as_ptr() as usize;
        frame[tag_at] = 0xFE;
        assert!(Message::from_bytes(&frame).is_err());
        frame
    };
    let spurious = || {
        let snap = transit.metrics_snapshot();
        snap.counter("broker.drop.spurious_token").unwrap_or(0)
    };

    let mut frame = relayed(now - 1_000, now + 60_000);
    let sent = frame.clone();
    transit.ingest_neighbor_frame("broker-0", &mut frame);
    assert_eq!(
        tracker.recv_timeout(TIMEOUT).unwrap(),
        sent,
        "forwarded as relayed"
    );
    assert_eq!(spurious(), 0);
    let events = monitor.metrics_snapshot().counter("monitor.events");
    assert_eq!((events, monitor.violation_count()), (Some(1), 0));

    let mut expired = relayed(now - 120_000, now - 60_000);
    transit.ingest_neighbor_frame("broker-0", &mut expired);
    assert_eq!(spurious(), 1);
    assert!(tracker.recv_timeout(Duration::from_millis(200)).is_err());
}

#[test]
fn late_subscriber_still_gets_interest_via_new_neighbor_sync() {
    // Subscriptions made BEFORE a neighbour link comes up must reach
    // the new neighbour (full-table sync on connect).
    let clock = system_clock();
    let net = SimNetwork::new(99);
    let b0 = Broker::new("b0", clock.clone(), BrokerConfig::default());
    let b1 = Broker::new("b1", clock.clone(), BrokerConfig::default());

    // Client subscribes on b1 first.
    let (bs, cs) = net.symmetric_link(LinkConfig::instant());
    b1.attach_client(bs);
    let sub = BrokerClient::attach(cs, "early-sub", clock.clone(), TIMEOUT).unwrap();
    sub.subscribe(t("/Pre/Linked"), TIMEOUT).unwrap();

    // Now wire the brokers together.
    let (l0, l1) = net.symmetric_link(LinkConfig::instant());
    b0.connect_neighbor(l0);
    b1.connect_neighbor(l1);
    std::thread::sleep(Duration::from_millis(100));

    let (bs, cs) = net.symmetric_link(LinkConfig::instant());
    b0.attach_client(bs);
    let publisher = BrokerClient::attach(cs, "late-pub", clock, TIMEOUT).unwrap();
    publisher
        .publish(t("/Pre/Linked"), Payload::Blob { data: vec![5] })
        .unwrap();
    assert!(sub.next_message(TIMEOUT).is_ok());
}

#[test]
fn star_topology_routes_hub_to_all_leaves() {
    let net = BrokerNetwork::star(
        3,
        LinkConfig::instant(),
        system_clock(),
        BrokerConfig::default(),
    );
    assert!(net.wait_for_mesh(TIMEOUT));
    let publisher = net.attach_client(0, "hub-pub").unwrap();
    let subs: Vec<_> = (1..=3)
        .map(|i| {
            let c = net.attach_client(i, &format!("leaf-sub-{i}")).unwrap();
            c.subscribe(t("/Fan/Out"), TIMEOUT).unwrap();
            c
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));
    publisher
        .publish(t("/Fan/Out"), Payload::Blob { data: vec![1] })
        .unwrap();
    for s in &subs {
        assert!(s.next_message(TIMEOUT).is_ok());
    }
}

#[test]
fn unsubscribe_stops_delivery() {
    let net = chain(1);
    let publisher = net.attach_client(0, "p").unwrap();
    let subscriber = net.attach_client(0, "s").unwrap();
    subscriber.subscribe(t("/OnOff"), TIMEOUT).unwrap();
    publisher
        .publish(t("/OnOff"), Payload::Blob { data: vec![1] })
        .unwrap();
    assert!(subscriber.next_message(TIMEOUT).is_ok());

    subscriber.unsubscribe(t("/OnOff"), TIMEOUT).unwrap();
    publisher
        .publish(t("/OnOff"), Payload::Blob { data: vec![2] })
        .unwrap();
    assert!(subscriber.next_message(Duration::from_millis(200)).is_err());
}
