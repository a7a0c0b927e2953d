//! Kill-and-restart recovery: each node kind (tracker, broker, TDN)
//! dies mid-workload and comes back over the same data directory,
//! recovering to a consistent view.
//!
//! Deterministic: simulated transport plus a `MockClock` everywhere —
//! time only moves when the test advances it, so the pre-crash state,
//! the crash point, and the reconvergence window are all scripted.
//!
//! What "consistent" means per node:
//!
//! * **tracker** — the availability view equals the pre-crash fold
//!   (same status, `last_seq`, `traces_seen`: nothing lost, nothing
//!   double-applied), then fresh traces resume and the exactly-once
//!   invariant `Δtraces_seen ≤ Δlast_seq` keeps holding;
//! * **broker** — client subscriptions survive the crash (crash ≠
//!   orderly disconnect), a re-attaching client resumes deliveries
//!   without re-subscribing, and a fresh neighbour learns the
//!   recovered filters through the ordinary handshake;
//! * **TDN** — the signed advertisement registry and the replication
//!   epoch survive, provenance (original TDN signatures) intact,
//!   purges not resurrected.

#![allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively

use nb_broker::network::BrokerNetwork;
use nb_broker::{Broker, BrokerClient, BrokerConfig};
use nb_crypto::cert::{CertificateAuthority, Validity};
use nb_store::{StoreConfig, TempDir};
use nb_tdn::Tdn;
use nb_tracing::config::{SigningMode, TracingConfig};
use nb_tracing::harness::{Deployment, Topology};
use nb_tracing::view::EntityStatus;
use nb_transport::clock::{Clock, MockClock, SharedClock};
use nb_transport::sim::{LinkConfig, SimNetwork};
use nb_wire::payload::DiscoveryRestrictions;
use nb_wire::trace::TraceCategory;
use nb_wire::{Payload, Topic};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

const START: u64 = 1_700_000_000_000;
const WAIT: Duration = Duration::from_secs(10);

/// Message pumps still run on real threads; give them a moment to
/// drain after each virtual-time step.
fn settle() {
    std::thread::sleep(Duration::from_millis(40));
}

fn topic(s: &str) -> Topic {
    Topic::parse(s).unwrap()
}

/// Advances virtual time in 100 ms steps, ticking every engine, until
/// `pred` holds or `max_steps` elapse.
fn pump_until(
    clock: &MockClock,
    dep: &Deployment,
    max_steps: u32,
    pred: impl Fn() -> bool,
) -> bool {
    for _ in 0..max_steps {
        if pred() {
            return true;
        }
        clock.advance(100);
        dep.tick_all();
        settle();
    }
    pred()
}

#[test]
fn tracker_restart_recovers_view_exactly_once() {
    let clock = MockClock::new(START);
    let shared: Arc<dyn Clock> = Arc::new(clock.clone());
    let mut config = TracingConfig::for_tests();
    config.auto_tick = false;
    let dep = Deployment::new(Topology::Chain(1), LinkConfig::instant(), shared, config).unwrap();
    let entity = dep
        .traced_entity(
            0,
            "rec-entity",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .unwrap();
    let dir = TempDir::new("tracker-restart").unwrap();
    let tracker = dep
        .tracker_with_dir(
            0,
            "rec-tracker",
            "rec-entity",
            vec![
                TraceCategory::AllUpdates,
                TraceCategory::ChangeNotifications,
            ],
            Some(dir.path().to_path_buf()),
        )
        .unwrap();
    assert!(
        tracker.recovery().unwrap().started_fresh,
        "first incarnation must start from an empty store"
    );

    // Mid-workload: several heartbeat rounds land before the kill.
    settle();
    assert!(
        pump_until(&clock, &dep, 40, || {
            tracker
                .view()
                .get("rec-entity")
                .is_some_and(|r| r.traces_seen >= 4)
        }),
        "traces never flowed before the kill"
    );
    let before = tracker.view().get("rec-entity").unwrap();
    assert_eq!(before.status, EntityStatus::Available);

    // Kill: stop the pump and drop the handle — no checkpoint, no
    // goodbye. Everything recoverable is already in the WAL.
    tracker.stop();
    drop(tracker);
    settle();

    // Restart over the same directory, same identity.
    let tracker = dep
        .tracker_with_dir(
            0,
            "rec-tracker",
            "rec-entity",
            vec![
                TraceCategory::AllUpdates,
                TraceCategory::ChangeNotifications,
            ],
            Some(dir.path().to_path_buf()),
        )
        .unwrap();
    let rec = tracker.recovery().unwrap();
    assert!(!rec.started_fresh, "restart must find the journal");
    assert!(!rec.repaired(), "clean kill must not need repair");
    assert_eq!(
        rec.snapshot_seq + rec.records_replayed,
        before.traces_seen,
        "exactly the applied events must replay"
    );

    // The recovered view is the pre-crash fold, bit for bit: nothing
    // lost (no missing verdicts), nothing double-applied.
    let recovered = tracker.view().get("rec-entity").expect("view recovered");
    assert_eq!(recovered.status, before.status);
    assert_eq!(recovered.last_seq, before.last_seq);
    assert_eq!(recovered.traces_seen, before.traces_seen);

    // Reconvergence: fresh traces resume on top of the recovered view.
    assert!(
        pump_until(&clock, &dep, 40, || {
            tracker
                .view()
                .get("rec-entity")
                .is_some_and(|r| r.traces_seen >= before.traces_seen + 3)
        }),
        "traces never resumed after the restart"
    );
    let after = tracker.view().get("rec-entity").unwrap();
    assert_eq!(after.status, EntityStatus::Available);
    // Exactly-once across the whole crash: applied count can never
    // outrun the sequence space that elapsed.
    assert!(
        after.traces_seen - before.traces_seen <= after.last_seq - before.last_seq,
        "duplicated traces after restart: {} applied across {} seqs",
        after.traces_seen - before.traces_seen,
        after.last_seq - before.last_seq
    );
    assert!(entity.pings_answered() > 0);
}

#[test]
fn broker_crash_restart_restores_subscriptions_and_resyncs() {
    let clock: SharedClock = Arc::new(MockClock::new(START));
    let net = SimNetwork::new(0x4ec0);
    let dir = TempDir::new("broker-restart").unwrap();
    let cfg = BrokerConfig {
        data_dir: Some(dir.path().to_path_buf()),
        ..BrokerConfig::default()
    };

    // First incarnation: a consumer subscribes, a publisher delivers.
    let broker = Broker::new("b-dur", clock.clone(), cfg.clone());
    assert!(broker.recovery().unwrap().started_fresh);
    let (s, c) = net.symmetric_link(LinkConfig::instant());
    broker.attach_client(s);
    let consumer = BrokerClient::attach(c, "rec-consumer", clock.clone(), WAIT).unwrap();
    consumer.subscribe(topic("chat/room"), WAIT).unwrap();
    let (s, c) = net.symmetric_link(LinkConfig::instant());
    broker.attach_client(s);
    let publisher = BrokerClient::attach(c, "rec-publisher", clock.clone(), WAIT).unwrap();
    publisher
        .publish(topic("chat/room"), Payload::Blob { data: vec![1] })
        .unwrap();
    let msg = consumer.next_message(WAIT).unwrap();
    assert!(matches!(msg.payload, Payload::Blob { ref data } if data == &[1]));

    // Crash mid-workload: journalling stops *before* the teardown, so
    // the ConsumerGone cleanup the dying workers run never reaches the
    // log — the crash semantics that let clients re-attach.
    broker.simulate_crash();
    drop(consumer);
    drop(publisher);
    drop(broker);
    settle();

    // Second incarnation over the same directory.
    let broker = Broker::new("b-dur", clock.clone(), cfg);
    let rec = broker.recovery().unwrap();
    assert!(!rec.started_fresh, "restart must find the journal");
    assert!(
        rec.snapshot_seq + rec.records_replayed >= 1,
        "the subscription op must have survived: {rec:?}"
    );

    // The consumer re-attaches under its old id and resumes deliveries
    // WITHOUT re-subscribing: the subscription came off the log.
    let (s, c) = net.symmetric_link(LinkConfig::instant());
    broker.attach_client(s);
    let consumer = BrokerClient::attach(c, "rec-consumer", clock.clone(), WAIT).unwrap();

    // A fresh neighbour learns the recovered filter purely through the
    // ordinary handshake — subscription re-sync after restart.
    let peer = Broker::new("b-peer", clock.clone(), BrokerConfig::default());
    let (a, b) = net.symmetric_link(LinkConfig::instant());
    broker.connect_neighbor(a);
    peer.connect_neighbor(b);
    assert!(
        peer.wait_for_remote_subscription(&topic("chat/room"), WAIT),
        "recovered subscription never re-advertised to the new neighbour"
    );

    // End to end across the mesh: publish at the peer, deliver to the
    // re-attached consumer through the restarted broker.
    let (s, c) = net.symmetric_link(LinkConfig::instant());
    peer.attach_client(s);
    let publisher = BrokerClient::attach(c, "peer-publisher", clock.clone(), WAIT).unwrap();
    publisher
        .publish(topic("chat/room"), Payload::Blob { data: vec![2] })
        .unwrap();
    let msg = consumer.next_message(WAIT).unwrap();
    assert!(
        matches!(msg.payload, Payload::Blob { ref data } if data == &[2]),
        "delivery must resume without a fresh subscribe"
    );
}

#[test]
fn broker_crash_restart_restores_every_subscriber_of_a_filter() {
    let clock: SharedClock = Arc::new(MockClock::new(START));
    let net = SimNetwork::new(0x4ec1);
    let dir = TempDir::new("broker-restart-shared").unwrap();
    let cfg = BrokerConfig {
        data_dir: Some(dir.path().to_path_buf()),
        ..BrokerConfig::default()
    };
    let attach = |broker: &Broker, id: &str| {
        let (s, c) = net.symmetric_link(LinkConfig::instant());
        broker.attach_client(s);
        BrokerClient::attach(c, id, clock.clone(), WAIT).unwrap()
    };

    // Two consumers share one filter: the second subscription is not
    // news to the broker, but it is still the second consumer's.
    let broker = Broker::new("b-shared", clock.clone(), cfg.clone());
    let first = attach(&broker, "first-consumer");
    first.subscribe(topic("chat/room"), WAIT).unwrap();
    let second = attach(&broker, "second-consumer");
    second.subscribe(topic("chat/room"), WAIT).unwrap();
    broker.simulate_crash();
    drop(first);
    drop(second);
    drop(broker);
    settle();

    // Only the second consumer comes back, without re-subscribing.
    let broker = Broker::new("b-shared", clock.clone(), cfg);
    let second = attach(&broker, "second-consumer");
    let publisher = attach(&broker, "shared-publisher");
    publisher
        .publish(topic("chat/room"), Payload::Blob { data: vec![3] })
        .unwrap();
    let msg = second
        .next_message(WAIT)
        .expect("the second consumer's subscription was not recovered");
    assert!(matches!(msg.payload, Payload::Blob { ref data } if data == &[3]));
}

#[test]
fn broker_network_drop_keeps_every_subscription() {
    let clock: SharedClock = Arc::new(MockClock::new(START));
    let dir = TempDir::new("broker-network-drop").unwrap();
    let cfg = BrokerConfig {
        data_dir: Some(dir.path().to_path_buf()),
        ..BrokerConfig::default()
    };
    let subscribers = [
        ("first-consumer", "chat/room"),
        ("second-consumer", "chat/room"),
        ("third-consumer", "chat/lobby"),
    ];

    // Dropping the network shuts its broker down while the clients are
    // still attached, with no simulated crash: shutdown is not a
    // departure, so the clients' links closing journals nothing.
    let net = BrokerNetwork::chain(1, LinkConfig::instant(), clock.clone(), cfg.clone());
    let clients: Vec<BrokerClient> = subscribers
        .iter()
        .map(|(id, filter)| {
            let client = net.attach_client(0, id).unwrap();
            client.subscribe(topic(filter), WAIT).unwrap();
            client
        })
        .collect();
    drop(net);
    drop(clients);
    settle();

    // Reopened over the same directory, each subscriber re-attaches and
    // is delivered to without re-subscribing.
    let net = BrokerNetwork::chain(1, LinkConfig::instant(), clock.clone(), cfg);
    assert!(!net.broker(0).recovery().unwrap().started_fresh);
    let publisher = net.attach_client(0, "drop-publisher").unwrap();
    for (id, filter) in subscribers {
        let consumer = net.attach_client(0, id).unwrap();
        let data = id.as_bytes().to_vec();
        publisher
            .publish(topic(filter), Payload::Blob { data: data.clone() })
            .unwrap();
        let msg = consumer
            .next_message(WAIT)
            .unwrap_or_else(|e| panic!("{id}'s subscription to {filter} was not recovered: {e:?}"));
        assert_eq!(msg.payload, Payload::Blob { data });
    }
}

#[test]
fn tdn_restart_recovers_registry_provenance_and_epoch() {
    let mock = MockClock::new(START);
    let clock: SharedClock = Arc::new(mock.clone());
    let mut rng = StdRng::seed_from_u64(0x4ec1);
    let validity = Validity::starting_now(START - 60_000, u64::MAX / 4);
    let bits = TracingConfig::for_tests().rsa_bits;
    let mut ca = CertificateAuthority::new("rec-ca", bits, validity, &mut rng).unwrap();
    let ca_key = ca.certificate().public_key.clone();
    let tdn_cred = ca.issue("tdn-rec", validity, &mut rng).unwrap();
    let owner = ca.issue("owner", validity, &mut rng).unwrap();

    let dir = TempDir::new("tdn-restart").unwrap();
    let tdn = Tdn::new(
        "tdn-rec",
        tdn_cred.clone(),
        ca_key.clone(),
        clock.clone(),
        1,
    );
    let rec0 = tdn.persist_to(dir.path(), StoreConfig::default()).unwrap();
    assert!(rec0.started_fresh);

    // Mid-workload: two local creations (one short-lived), one
    // verified replica from a peer, then an expiry sweep.
    tdn.create_topic(
        &owner.certificate,
        "entity/one",
        DiscoveryRestrictions::Open,
        0,
    )
    .unwrap();
    tdn.create_topic(
        &owner.certificate,
        "entity/ephemeral",
        DiscoveryRestrictions::Open,
        10,
    )
    .unwrap();
    let peer_cred = ca.issue("tdn-peer", validity, &mut rng).unwrap();
    let peer = Tdn::new("tdn-peer", peer_cred, ca_key.clone(), clock.clone(), 2);
    tdn.add_peer("tdn-peer", peer.public_key());
    let replica = peer
        .create_topic(
            &owner.certificate,
            "entity/three",
            DiscoveryRestrictions::Open,
            0,
        )
        .unwrap();
    tdn.replicate(replica).unwrap();

    mock.advance(60_000);
    assert_eq!(tdn.purge_expired(), 1, "the ephemeral topic must expire");
    assert_eq!(tdn.advert_count(), 2);
    assert_eq!(tdn.replication_epoch(), 3, "three installs ever");
    let key_before = tdn.public_key();
    drop(tdn);

    // Restart over the same directory.
    let tdn = Tdn::new("tdn-rec", tdn_cred, ca_key, clock, 1);
    let rec = tdn.persist_to(dir.path(), StoreConfig::default()).unwrap();
    assert!(!rec.started_fresh);
    assert!(!rec.repaired());
    assert_eq!(tdn.advert_count(), 2, "registry must recover");
    assert_eq!(tdn.replication_epoch(), 3, "epoch must resume, not reset");

    // Provenance survives: recovered advertisements still verify
    // against their *original* signer keys.
    let found = tdn.discover("entity/one", &owner.certificate);
    assert_eq!(found.len(), 1);
    assert!(found[0].verify(&key_before).is_ok(), "local signature lost");
    let found = tdn.discover("entity/three", &owner.certificate);
    assert_eq!(found.len(), 1);
    assert!(
        found[0].verify(&peer.public_key()).is_ok(),
        "replica provenance lost"
    );
    // Purges are not resurrected by replay.
    assert!(
        tdn.discover("entity/ephemeral", &owner.certificate)
            .is_empty(),
        "purged advert came back from the dead"
    );
}

#[test]
fn restarted_tracker_regains_both_keys_and_decrypts() {
    // A secured, session-keyed entity: its traces are encrypted under
    // the §5.1 trace key and tagged under a session key. A tracker that
    // restarts under its id holds neither; the interest response it
    // sends at start-up must bring both back before any trace flows.
    let clock = MockClock::new(START);
    let shared: Arc<dyn Clock> = Arc::new(clock.clone());
    let mut config = TracingConfig::for_tests();
    config.auto_tick = false;
    config.session_keys = true;
    let dep = Deployment::new(Topology::Chain(1), LinkConfig::instant(), shared, config).unwrap();
    let _entity = dep
        .traced_entity(
            0,
            "keyed-entity",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            true,
        )
        .unwrap();
    let interests = vec![
        TraceCategory::AllUpdates,
        TraceCategory::ChangeNotifications,
    ];
    let start = || {
        dep.tracker(0, "keyed-tracker", "keyed-entity", interests.clone())
            .unwrap()
    };
    let tracker = start();
    settle();
    assert!(
        pump_until(&clock, &dep, 40, || tracker.traces_applied() >= 3),
        "the first incarnation never applied a trace"
    );
    assert!(tracker.has_trace_key() && tracker.has_session_key());

    // Kill and restart under the same id, with no time passing: the
    // engine still holds the first incarnation's registration.
    tracker.stop();
    drop(tracker);
    settle();
    let tracker = start();
    let deadline = std::time::Instant::now() + WAIT;
    while !(tracker.has_trace_key() && tracker.has_session_key())
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        tracker.has_trace_key(),
        "the restarted tracker never got the trace key"
    );
    assert!(
        tracker.has_session_key(),
        "the restarted tracker never got the session key"
    );

    assert!(
        pump_until(&clock, &dep, 40, || tracker.traces_applied() >= 3),
        "the restarted tracker applied no fresh trace"
    );
    let undecryptable = tracker
        .metrics_snapshot()
        .counter("tracker.traces.undecryptable")
        .unwrap_or(0);
    assert_eq!(
        undecryptable, 0,
        "traces reached the restarted tracker before its keys"
    );
    assert!(
        tracker.session_verified() > 0,
        "traces did not verify by session MAC"
    );
}

#[test]
fn a_replaced_trace_key_reaches_registered_trackers_at_once() {
    // An entity that re-sends its setup mints a fresh trace key each
    // time. Trackers registered under the old key must keep decrypting
    // without waiting for a gauge round, so none falls in this test.
    let clock = MockClock::new(START);
    let shared: Arc<dyn Clock> = Arc::new(clock.clone());
    let mut config = TracingConfig::for_tests();
    config.auto_tick = false;
    config.gauge_interval = Duration::from_secs(3600);
    let dep = Deployment::new(Topology::Chain(2), LinkConfig::instant(), shared, config).unwrap();
    let entity = dep
        .traced_entity(
            0,
            "rekeyed-entity",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            true,
        )
        .unwrap();
    let tracker = dep
        .tracker(
            1,
            "rekeyed-tracker",
            "rekeyed-entity",
            vec![
                TraceCategory::AllUpdates,
                TraceCategory::ChangeNotifications,
            ],
        )
        .unwrap();
    settle();
    assert!(
        pump_until(&clock, &dep, 40, || tracker.traces_applied() >= 3),
        "no trace applied under the first key"
    );

    entity.send_trace_key().unwrap();
    settle();
    let applied = tracker.traces_applied();
    assert!(
        pump_until(&clock, &dep, 40, || tracker.traces_applied() >= applied + 3),
        "no trace applied under the replaced key"
    );
    let undecryptable = tracker
        .metrics_snapshot()
        .counter("tracker.traces.undecryptable")
        .unwrap_or(0);
    assert_eq!(undecryptable, 0, "the tracker missed the replaced key");
}
