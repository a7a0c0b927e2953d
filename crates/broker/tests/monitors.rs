//! Red-team tests for the runtime-verification monitors: each
//! delivery property is attacked through the sim transport's
//! adversarial hooks (frame tampering, replay) and must (a) fire on
//! the injected violation, (b) report it as a signed message on the
//! audit topic, and (c) stay silent on the clean traffic that
//! precedes the attack.

use nb_broker::network::BrokerNetwork;
use nb_broker::{Broker, BrokerClient, BrokerConfig};
use nb_crypto::cert::{CertificateAuthority, Credential, Validity};
use nb_crypto::rsa::RsaKeyPair;
use nb_crypto::Uuid;
use nb_monitor::{audit_topic, parse_properties, MonitorSet, Violation};
use nb_telemetry::TraceContext;
use nb_transport::clock::{system_clock, SharedClock};
use nb_transport::sim::LinkConfig;
use nb_wire::codec::{Decode, Encode};
use nb_wire::token::{AuthorizationToken, Rights};
use nb_wire::trace::{topics, TraceCategory, TraceEvent, TraceKind};
use nb_wire::{Message, Payload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(5);

/// Certificates are expensive to mint; share a CA across tests.
fn ca() -> &'static Mutex<CertificateAuthority> {
    static CA: OnceLock<Mutex<CertificateAuthority>> = OnceLock::new();
    CA.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x40b5);
        Mutex::new(
            CertificateAuthority::new(
                "monitor-test-ca",
                512,
                Validity::starting_now(0, u64::MAX / 2),
                &mut rng,
            )
            .unwrap(),
        )
    })
}

fn credential(subject: &str) -> Credential {
    let mut rng = StdRng::seed_from_u64(subject.len() as u64 ^ 0x5eed);
    ca().lock()
        .unwrap()
        .issue(subject, Validity::starting_now(0, u64::MAX / 2), &mut rng)
        .unwrap()
}

/// A two-broker chain of *misbehaving* brokers: token enforcement is
/// off, so forged or stripped frames flow freely through the cached
/// fast path — exactly the deployment the monitor exists to audit.
fn lax_chain() -> BrokerNetwork {
    let cfg = BrokerConfig {
        require_tokens: false,
        ..BrokerConfig::default()
    };
    let net = BrokerNetwork::chain(2, LinkConfig::instant(), system_clock(), cfg);
    assert!(net.wait_for_mesh(TIMEOUT));
    net
}

/// Builds a monitor from DSL text, attaches it to `broker`, and wires
/// its audit reports through that broker. Returns the monitor and an
/// attached client already subscribed to the audit topic.
fn attach_monitor(net: &BrokerNetwork, idx: usize, dsl: &str) -> (MonitorSet, BrokerClient) {
    let specs = parse_properties(dsl).expect("test DSL parses");
    let monitor = MonitorSet::new(specs, credential("Monitor"));
    let broker: &Broker = net.broker(idx);
    broker.attach_monitor(monitor.clone());
    let audit_broker = broker.clone();
    monitor.set_audit_sink(Arc::new(move |msg| audit_broker.publish_internal(msg)));

    let auditor = net.attach_client(idx, "auditor").unwrap();
    auditor.subscribe(audit_topic(), TIMEOUT).unwrap();
    (monitor, auditor)
}

/// Receives the next audit report, checks its signature against the
/// monitor's certificate, and decodes the violation payload.
fn next_audit_report(auditor: &BrokerClient, monitor: &MonitorSet) -> Violation {
    let msg = auditor.next_message(TIMEOUT).expect("audit report arrives");
    assert_eq!(msg.topic, audit_topic());
    msg.verify_signature(&monitor.certificate().public_key)
        .expect("audit report carries a valid monitor signature");
    let Payload::Blob { data } = &msg.payload else {
        panic!("audit payload should be a violation blob");
    };
    Violation::from_bytes(data).expect("violation decodes")
}

fn trace_message(broker: &Broker, trace_topic: Uuid, clock: &SharedClock) -> Message {
    let now = clock.now_ms();
    let event = TraceEvent {
        entity_id: "entity-1".to_string(),
        trace_topic,
        seq: 1,
        timestamp_ms: now,
        kind: TraceKind::AllsWell,
    };
    Message::new(
        broker.next_message_id(),
        topics::publication(&trace_topic, TraceCategory::AllUpdates),
        broker.id().to_string(),
        now,
        Payload::Trace { event },
    )
}

fn valid_token(
    owner: &Credential,
    trace_topic: Uuid,
    now: u64,
    delegate: &RsaKeyPair,
) -> AuthorizationToken {
    AuthorizationToken::issue(
        owner,
        trace_topic,
        delegate.public.clone(),
        Rights::Publish,
        now.saturating_sub(1_000),
        now + 60_000,
    )
    .unwrap()
}

/// Property 1 (no delivery without valid authorization): an in-flight
/// adversary swaps a genuine owner-signed token for one signed by an
/// attacker key. The lax brokers forward it anyway; the monitor, which
/// knows the real owner key, catches the forgery.
#[test]
fn forged_token_in_flight_is_caught_on_the_audit_topic() {
    let net = lax_chain();
    let clock: SharedClock = system_clock();
    let mut rng = StdRng::seed_from_u64(41);
    let owner = credential("entity:owner-a");
    let attacker = credential("entity:attacker");
    let delegate = RsaKeyPair::generate(512, &mut rng).unwrap();
    let trace_topic = Uuid::new_v4(&mut rng);

    let (monitor, auditor) = attach_monitor(
        &net,
        1,
        "auth: require-token on /Constrained/Traces/*/Publish-Only/#\n",
    );
    monitor.register_owner(trace_topic, owner.certificate.public_key.clone());

    let subscriber = net.attach_client(1, "tracker").unwrap();
    let pub_topic = topics::publication(&trace_topic, TraceCategory::AllUpdates);
    subscriber.subscribe(pub_topic.clone(), TIMEOUT).unwrap();
    assert!(net
        .broker(0)
        .wait_for_remote_subscription(&pub_topic, TIMEOUT));

    // Clean phase: a genuine owner-signed token crosses both brokers.
    let now = clock.now_ms();
    let msg = trace_message(net.broker(0), trace_topic, &clock).with_token(valid_token(
        &owner,
        trace_topic,
        now,
        &delegate,
    ));
    net.broker(0).publish_internal(msg);
    subscriber.next_message(TIMEOUT).expect("clean delivery");
    assert_eq!(monitor.violation_count(), 0, "clean token must not fire");

    // Attack phase: the link adversary re-signs the delegation with
    // the attacker's key, leaving everything else intact.
    let attacker_for_tamper = attacker.clone();
    let delegate_pub = delegate.public.clone();
    net.tamper_link(0, move |bytes| {
        let Ok(mut msg) = Message::from_bytes(&bytes) else {
            return bytes;
        };
        let Some(token) = msg.token.take() else {
            return bytes;
        };
        let forged = AuthorizationToken::issue(
            &attacker_for_tamper,
            token.trace_topic,
            delegate_pub.clone(),
            Rights::Publish,
            token.valid_from_ms,
            token.valid_until_ms,
        )
        .unwrap();
        msg.with_token(forged).to_bytes()
    });

    let now = clock.now_ms();
    let msg = trace_message(net.broker(0), trace_topic, &clock).with_token(valid_token(
        &owner,
        trace_topic,
        now,
        &delegate,
    ));
    net.broker(0).publish_internal(msg);

    // The misbehaving broker still delivers the forged message…
    subscriber
        .next_message(TIMEOUT)
        .expect("lax broker delivers");
    // …but the monitor flags it and reports on the audit topic.
    let report = next_audit_report(&auditor, &monitor);
    assert_eq!(report.property, "auth");
    assert_eq!(report.node, "broker-1");
    assert!(
        report.detail.contains("signature"),
        "unexpected detail: {}",
        report.detail
    );
    let snapshot = monitor.metrics_snapshot();
    assert_eq!(snapshot.counter("monitor.violations.auth"), Some(1));
    assert!(snapshot.counter("monitor.events").unwrap_or(0) > 0);
}

/// Property 2 (hop/TTL bounds): one adversary strips the trace/TTL
/// section entirely, another inflates the hop counter past the
/// property bound (but below the broker's own routing TTL, so the
/// frame still flows). Both are caught.
#[test]
fn stripped_and_inflated_ttl_are_caught() {
    let net = lax_chain();
    let clock: SharedClock = system_clock();
    let mut rng = StdRng::seed_from_u64(42);
    let trace_topic = Uuid::new_v4(&mut rng);

    let (monitor, auditor) = attach_monitor(
        &net,
        1,
        "ttl-strip: require-ttl 8 on /Constrained/Traces/#\n\
         ttl: max-hops 2 on /Constrained/Traces/#\n",
    );

    let subscriber = net.attach_client(1, "tracker").unwrap();
    let pub_topic = topics::publication(&trace_topic, TraceCategory::AllUpdates);
    subscriber.subscribe(pub_topic.clone(), TIMEOUT).unwrap();
    assert!(net
        .broker(0)
        .wait_for_remote_subscription(&pub_topic, TIMEOUT));

    // Clean phase: a traced frame arrives at broker-1 with hop 1.
    let msg =
        trace_message(net.broker(0), trace_topic, &clock).with_trace(TraceContext::root(0, false));
    net.broker(0).publish_internal(msg);
    subscriber.next_message(TIMEOUT).expect("clean delivery");
    assert_eq!(monitor.violation_count(), 0, "in-bound TTL must not fire");

    // Attack 1: strip the TTL section in flight.
    net.tamper_link(0, |bytes| {
        let Ok(mut msg) = Message::from_bytes(&bytes) else {
            return bytes;
        };
        if msg.trace.take().is_none() {
            return bytes;
        }
        msg.to_bytes()
    });
    let msg =
        trace_message(net.broker(0), trace_topic, &clock).with_trace(TraceContext::root(0, false));
    net.broker(0).publish_internal(msg);
    subscriber
        .next_message(TIMEOUT)
        .expect("stripped frame still delivered");
    let report = next_audit_report(&auditor, &monitor);
    assert_eq!(report.property, "ttl-strip");
    assert!(
        report.detail.contains("missing"),
        "detail: {}",
        report.detail
    );

    // Attack 2: inflate the hop counter past the property bound (2)
    // but under the broker TTL (16), so routing does not drop it.
    net.tamper_link(0, |bytes| {
        let Ok(mut msg) = Message::from_bytes(&bytes) else {
            return bytes;
        };
        match msg.trace.as_mut() {
            Some(ctx) => ctx.hop_count = 5,
            None => return bytes,
        }
        msg.to_bytes()
    });
    let msg =
        trace_message(net.broker(0), trace_topic, &clock).with_trace(TraceContext::root(0, false));
    net.broker(0).publish_internal(msg);
    subscriber
        .next_message(TIMEOUT)
        .expect("inflated frame still delivered");
    let report = next_audit_report(&auditor, &monitor);
    assert_eq!(report.property, "ttl");
    assert!(
        report.detail.contains("exceeds"),
        "detail: {}",
        report.detail
    );
    assert_eq!(monitor.violation_count(), 2);
}

/// Property 3 (exactly-once): a replaying link delivers every frame
/// twice after "repair". The duplicate routing decision at broker-1
/// trips the dedup window.
#[test]
fn replayed_frames_are_caught_exactly_once_violation() {
    let net = lax_chain();
    let clock: SharedClock = system_clock();
    let mut rng = StdRng::seed_from_u64(43);
    let trace_topic = Uuid::new_v4(&mut rng);

    let (monitor, auditor) =
        attach_monitor(&net, 1, "replay: exactly-once on /Constrained/Traces/#\n");

    let subscriber = net.attach_client(1, "tracker").unwrap();
    let pub_topic = topics::publication(&trace_topic, TraceCategory::AllUpdates);
    subscriber.subscribe(pub_topic.clone(), TIMEOUT).unwrap();
    assert!(net
        .broker(0)
        .wait_for_remote_subscription(&pub_topic, TIMEOUT));

    // Clean phase.
    net.broker(0)
        .publish_internal(trace_message(net.broker(0), trace_topic, &clock));
    subscriber.next_message(TIMEOUT).expect("clean delivery");
    assert_eq!(
        monitor.violation_count(),
        0,
        "single delivery must not fire"
    );

    // Attack phase: the link now replays every frame once.
    assert!(net.replay_link(0, 1));
    net.broker(0)
        .publish_internal(trace_message(net.broker(0), trace_topic, &clock));

    // The broker faithfully delivers both copies…
    subscriber.next_message(TIMEOUT).expect("first copy");
    subscriber.next_message(TIMEOUT).expect("replayed copy");
    // …and the monitor flags the duplicate.
    let report = next_audit_report(&auditor, &monitor);
    assert_eq!(report.property, "replay");
    assert!(
        report.detail.contains("duplicate"),
        "detail: {}",
        report.detail
    );
    assert_eq!(monitor.violation_count(), 1);
    assert_eq!(
        monitor
            .metrics_snapshot()
            .counter("monitor.audit.published"),
        Some(1)
    );
}

/// Delivery events carry the broker's clock, never the timestamp the
/// publisher wrote into the frame: a token that expired a minute ago
/// is a violation even on a frame backdated to when it was valid.
#[test]
fn events_are_stamped_with_the_broker_clock() {
    let net = lax_chain();
    let clock: SharedClock = system_clock();
    let mut rng = StdRng::seed_from_u64(44);
    let owner = credential("entity:owner-b");
    let delegate = RsaKeyPair::generate(512, &mut rng).unwrap();
    let trace_topic = Uuid::new_v4(&mut rng);

    let (monitor, auditor) = attach_monitor(
        &net,
        1,
        "auth: require-token on /Constrained/Traces/*/Publish-Only/#\n",
    );
    let subscriber = net.attach_client(1, "tracker").unwrap();
    let pub_topic = topics::publication(&trace_topic, TraceCategory::AllUpdates);
    subscriber.subscribe(pub_topic.clone(), TIMEOUT).unwrap();
    assert!(net
        .broker(0)
        .wait_for_remote_subscription(&pub_topic, TIMEOUT));

    let now = clock.now_ms();
    let expired = AuthorizationToken::issue(
        &owner,
        trace_topic,
        delegate.public.clone(),
        Rights::Publish,
        now - 120_000,
        now - 60_000,
    )
    .unwrap();
    let mut msg = trace_message(net.broker(0), trace_topic, &clock).with_token(expired);
    msg.timestamp_ms = now - 90_000;
    net.broker(0).publish_internal(msg);

    subscriber
        .next_message(TIMEOUT)
        .expect("lax broker delivers");
    let report = next_audit_report(&auditor, &monitor);
    assert_eq!(report.property, "auth");
    assert!(
        report.detail.contains("validity window"),
        "detail: {}",
        report.detail
    );
    assert!(report.timestamp_ms >= now, "stamped with the broker clock");
    assert_eq!(monitor.violation_count(), 1);
}

/// A routing decision with nobody to deliver to is not a delivery: a
/// client subscribed to its own topic publishes, echo suppression
/// leaves no recipient, and the monitor must see no event.
#[test]
fn no_event_without_a_recipient() {
    let net = BrokerNetwork::chain(
        1,
        LinkConfig::instant(),
        system_clock(),
        BrokerConfig::default(),
    );
    let specs = parse_properties("replay: exactly-once on /Echo/#\n").unwrap();
    let monitor = MonitorSet::new(specs, credential("Monitor"));
    net.broker(0).attach_monitor(monitor.clone());

    let client = net.attach_client(0, "echo").unwrap();
    let topic = nb_wire::Topic::parse("/Echo/Self").unwrap();
    client.subscribe(topic.clone(), TIMEOUT).unwrap();
    for i in 0..5u8 {
        client
            .publish(topic.clone(), Payload::Blob { data: vec![i] })
            .unwrap();
    }
    // The publishes are processed in order behind this acknowledged
    // control round trip.
    client
        .subscribe(nb_wire::Topic::parse("/Echo/Barrier").unwrap(), TIMEOUT)
        .unwrap();
    let stats = net.broker(0).stats();
    assert_eq!(stats.published, 5);
    assert_eq!(stats.delivered_local, 0);
    assert_eq!(
        monitor.metrics_snapshot().counter("monitor.events"),
        Some(0)
    );
}
