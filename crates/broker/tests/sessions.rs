//! Session-key data-plane tests: trace frames tagged under a live
//! session key must authenticate with one HMAC on the cached fast
//! path (no RSA), unknown keys must fall back to the token path, and
//! — the red-team case — a frame replayed under a *revoked* key must
//! be dropped and fire exactly one monitor violation.

use nb_broker::network::BrokerNetwork;
use nb_broker::{Broker, BrokerConfig};
use nb_crypto::cert::{CertificateAuthority, Credential, Validity};
use nb_crypto::rsa::RsaKeyPair;
use nb_crypto::{SessionKey, Uuid};
use nb_monitor::{parse_properties, MonitorSet};
use nb_transport::clock::{system_clock, SharedClock};
use nb_transport::sim::LinkConfig;
use nb_wire::token::{AuthorizationToken, Rights};
use nb_wire::trace::{topics, TraceCategory, TraceEvent, TraceKind};
use nb_wire::{Message, Payload, SessionTag};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(5);
const SILENCE: Duration = Duration::from_millis(300);

fn ca() -> &'static Mutex<CertificateAuthority> {
    static CA: OnceLock<Mutex<CertificateAuthority>> = OnceLock::new();
    CA.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x5e5510);
        Mutex::new(
            CertificateAuthority::new(
                "session-test-ca",
                512,
                Validity::starting_now(0, u64::MAX / 2),
                &mut rng,
            )
            .unwrap(),
        )
    })
}

fn credential(subject: &str) -> Credential {
    let mut rng = StdRng::seed_from_u64(subject.len() as u64 ^ 0x5e55);
    ca().lock()
        .unwrap()
        .issue(subject, Validity::starting_now(0, u64::MAX / 2), &mut rng)
        .unwrap()
}

/// A two-broker chain with token enforcement ON — the configuration
/// where the session layer actually changes the data plane.
fn strict_chain() -> BrokerNetwork {
    let net = BrokerNetwork::chain(
        2,
        LinkConfig::instant(),
        system_clock(),
        BrokerConfig::default(),
    );
    assert!(net.wait_for_mesh(TIMEOUT));
    net
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

/// Tags `msg` the way a publishing entity would: HMAC under `key`
/// over the signable region, carried in the trailing section.
fn tag_under(msg: Message, key: &SessionKey, seq: u64) -> Message {
    let signable = msg.signable_bytes();
    let mac = key.mac(seq, &[&signable]);
    msg.with_session(SessionTag {
        key_id: key.key_id,
        seq,
        mac,
    })
}

/// Subscribes a tracker at broker `idx` to the topic's publications
/// and waits until broker 0 can route toward it.
fn subscribe_tracker(net: &BrokerNetwork, trace_topic: Uuid) -> nb_broker::BrokerClient {
    let subscriber = net.attach_client(1, "tracker").unwrap();
    let pub_topic = topics::publication(&trace_topic, TraceCategory::AllUpdates);
    subscriber.subscribe(pub_topic.clone(), TIMEOUT).unwrap();
    assert!(net.broker(0).wait_for_remote_subscription(&pub_topic, TIMEOUT));
    subscriber
}

#[test]
fn session_tagged_frames_route_without_rsa() {
    let net = strict_chain();
    let clock: SharedClock = system_clock();
    let mut rng = StdRng::seed_from_u64(7);
    let trace_topic = Uuid::new_v4(&mut rng);
    let key = SessionKey::mint(trace_topic, clock.now_ms(), 600_000, 1 << 20, &mut rng);
    net.broker(0).install_session_key(key.clone());
    net.broker(1).install_session_key(key.clone());

    let subscriber = subscribe_tracker(&net, trace_topic);

    // No token anywhere: only the session tag authenticates the frame
    // across both brokers.
    for seq in 1..=8u64 {
        let msg = tag_under(trace_message(net.broker(0), trace_topic, &clock), &key, seq);
        net.broker(0).publish_internal(msg);
        let got = subscriber.next_message(TIMEOUT).expect("tagged delivery");
        assert_eq!(got.session.map(|t| t.seq), Some(seq), "tag survives relay");
    }

    // The relay counts a frame once it has delivered it, so the
    // subscriber can read the eighth frame before the relay counts it.
    let deadline = Instant::now() + TIMEOUT;
    let relay = loop {
        let relay = net.broker(1).metrics_snapshot();
        if relay.counter("broker.route.fastpath").unwrap_or(0) >= 8 || Instant::now() >= deadline {
            break relay;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(
        relay.counter("broker.session.verified").unwrap_or(0) >= 8,
        "relay authenticated via the keyring"
    );
    assert!(
        relay.counter("broker.route.fastpath").unwrap_or(0) >= 8,
        "session frames stay on the cached fast path"
    );
    assert_eq!(relay.counter("broker.drop.spurious_token"), Some(0));
}

#[test]
fn bad_mac_session_frame_is_dropped() {
    let net = strict_chain();
    let clock: SharedClock = system_clock();
    let mut rng = StdRng::seed_from_u64(8);
    let trace_topic = Uuid::new_v4(&mut rng);
    let key = SessionKey::mint(trace_topic, clock.now_ms(), 600_000, 1 << 20, &mut rng);
    net.broker(1).install_session_key(key.clone());

    let subscriber = subscribe_tracker(&net, trace_topic);

    // Forge a frame at the relay's doorstep: valid key id, garbage
    // MAC. Publishing from broker 1's own ingress keeps broker 0 (which
    // has no key and would need a token) out of the picture.
    let msg = trace_message(net.broker(1), trace_topic, &clock).with_session(SessionTag {
        key_id: key.key_id,
        seq: 1,
        mac: [0xAA; 32],
    });
    net.broker(1).publish_internal(msg);

    assert!(
        subscriber.next_message(SILENCE).is_err(),
        "forged MAC must not be delivered"
    );
    let relay = net.broker(1).metrics_snapshot();
    assert!(relay.counter("broker.session.rejected").unwrap_or(0) >= 1);
    assert!(relay.counter("broker.drop.spurious_token").unwrap_or(0) >= 1);
}

#[test]
fn unknown_key_falls_back_to_rsa_tokens() {
    let net = strict_chain();
    let clock: SharedClock = system_clock();
    let mut rng = StdRng::seed_from_u64(9);
    let trace_topic = Uuid::new_v4(&mut rng);
    let key = SessionKey::mint(trace_topic, clock.now_ms(), 600_000, 1 << 20, &mut rng);
    // Broker 0 knows the key; the relay holds a key for some *other*
    // topic, so the tag's key id is unknown there (not just absent).
    net.broker(0).install_session_key(key.clone());
    let other = SessionKey::mint(Uuid::new_v4(&mut rng), clock.now_ms(), 600_000, 8, &mut rng);
    net.broker(1).install_session_key(other);

    let subscriber = subscribe_tracker(&net, trace_topic);

    // Belt and braces: the frame carries both the session tag and a
    // window-valid token, the rotation-window posture. The relay
    // cannot resolve the key and must fall back to the token path.
    let owner = credential("entity:owner");
    let delegate = RsaKeyPair::generate(512, &mut rng).unwrap();
    let now = clock.now_ms();
    let token = AuthorizationToken::issue(
        &owner,
        trace_topic,
        delegate.public.clone(),
        Rights::Publish,
        now.saturating_sub(1_000),
        now + 60_000,
    )
    .unwrap();
    let msg = tag_under(
        trace_message(net.broker(0), trace_topic, &clock).with_token(token),
        &key,
        1,
    );
    net.broker(0).publish_internal(msg);

    subscriber
        .next_message(TIMEOUT)
        .expect("token fallback delivers");
    let relay = net.broker(1).metrics_snapshot();
    assert!(
        relay.counter("broker.session.fallback").unwrap_or(0) >= 1,
        "unknown key id must be counted as a fallback"
    );
}

/// The red-team scenario from the issue: a session-tagged frame is
/// delivered cleanly, its key is revoked, and the *identical* frame is
/// replayed. The relay must drop it and the attached monitor must
/// raise exactly one violation — no more (no double-count under
/// `require-token`), no fewer.
#[test]
fn revoked_session_replay_fires_exactly_one_violation() {
    let net = strict_chain();
    let clock: SharedClock = system_clock();
    let mut rng = StdRng::seed_from_u64(10);
    let trace_topic = Uuid::new_v4(&mut rng);
    let now = clock.now_ms();
    // Two keys for the topic, the rotation posture: after revoking
    // `old_key` the relay still holds a live key, so its route entry
    // keeps the session gate open and the replay meets the keyring —
    // where it reads Revoked, not Unknown.
    let old_key = SessionKey::mint(trace_topic, now, 600_000, 1 << 20, &mut rng);
    let new_key = SessionKey::mint(trace_topic, now, 600_000, 1 << 20, &mut rng);
    for idx in 0..2 {
        net.broker(idx).install_session_key(old_key.clone());
        net.broker(idx).install_session_key(new_key.clone());
    }

    let specs = parse_properties(
        "auth: require-token on /Constrained/Traces/*/Publish-Only/#\n\
         session: require-session on /Constrained/Traces/*/Publish-Only/#\n",
    )
    .unwrap();
    let monitor = MonitorSet::new(specs, credential("Monitor"), 100);
    net.broker(1).attach_monitor(monitor.clone());

    let subscriber = subscribe_tracker(&net, trace_topic);

    // Clean phase: the tagged frame crosses both brokers, silently.
    let msg = tag_under(trace_message(net.broker(0), trace_topic, &clock), &old_key, 1);
    net.broker(0).publish_internal(msg.clone());
    subscriber.next_message(TIMEOUT).expect("clean delivery");
    assert_eq!(monitor.violation_count(), 0, "clean run must stay silent");

    // Revocation reaches the relay (and via it, the monitor) — but
    // not broker 0, which faithfully forwards the replay.
    assert!(net.broker(1).revoke_session_key(old_key.key_id));
    assert!(monitor.is_session_revoked(old_key.key_id));

    // Replay the identical frame.
    net.broker(0).publish_internal(msg);
    assert!(
        subscriber.next_message(SILENCE).is_err(),
        "replay under a revoked key must not be delivered"
    );
    assert_eq!(
        monitor.violation_count(),
        1,
        "exactly one violation for the replay"
    );
    let violation = &monitor.violations()[0];
    assert_eq!(violation.property, "session");
    assert!(
        violation.detail.contains("revoked session key"),
        "detail: {}",
        violation.detail
    );
    let relay = net.broker(1).metrics_snapshot();
    assert_eq!(relay.counter("broker.session.revoked_drop"), Some(1));

    // Rotation completes: traffic under the new key flows, and the
    // violation count stays at one.
    let msg = tag_under(trace_message(net.broker(0), trace_topic, &clock), &new_key, 1);
    net.broker(0).publish_internal(msg);
    subscriber.next_message(TIMEOUT).expect("new key delivers");
    assert_eq!(monitor.violation_count(), 1);
}

/// §5.2 applies before §4.3: a client publishing on a broker-reserved
/// trace channel is punished for the attempt whatever authentication
/// it attaches. Frames tagged with a live key id and a bad MAC must
/// count as constraint rejections and get the client disconnected at
/// the bogus-attempt limit, not slip away as spurious-token drops.
#[test]
fn session_tag_does_not_shield_a_client_from_punishment() {
    let net = strict_chain();
    let clock: SharedClock = system_clock();
    let mut rng = StdRng::seed_from_u64(11);
    let trace_topic = Uuid::new_v4(&mut rng);
    let key = SessionKey::mint(trace_topic, clock.now_ms(), 600_000, 1 << 20, &mut rng);
    net.broker(0).install_session_key(key.clone());

    let rogue = net.attach_client(0, "rogue").unwrap();
    for seq in 1..=6u64 {
        let msg = trace_message(net.broker(0), trace_topic, &clock).with_session(SessionTag {
            key_id: key.key_id,
            seq,
            mac: [0xAA; 32],
        });
        rogue.send_message(&msg).unwrap();
    }
    let notice = rogue.next_message(TIMEOUT).expect("termination notice");
    assert!(
        matches!(&notice.payload, Payload::Nack { reason } if reason.contains("terminated")),
        "unexpected notice: {:?}",
        notice.payload
    );
    let stats = net.broker(0).stats();
    assert_eq!(stats.rejected, 3, "each attempt up to the limit is a rejection");
    assert_eq!(stats.terminated_clients, 1);
    assert_eq!(stats.dropped_spurious, 0, "no frame reached token admission");
}
