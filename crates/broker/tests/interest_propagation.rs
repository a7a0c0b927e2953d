//! Subscription interest reaches exactly the brokers on the path to a
//! subscriber, and leaves them when the subscriber goes: a second
//! subscriber's advert is relayed past a broker that already held the
//! filter, every way a subscriber can leave withdraws its interest
//! upstream, a link that heals from an outage delivers what it held
//! once and echoes no neighbour's own interest back to it, and a
//! full-set advert never lands behind a withdrawal.
//! Anti-entropy is off throughout, so only the incremental adverts are
//! under test.

use nb_broker::network::BrokerNetwork;
use nb_broker::{Broker, BrokerClient, BrokerConfig};
use nb_transport::clock::system_clock;
use nb_transport::endpoint::{Endpoint, FrameSender};
use nb_transport::sim::LinkConfig;
use nb_wire::codec::{Decode, Encode};
use nb_wire::{Message, Payload, Topic};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(5);

fn t(s: &str) -> Topic {
    Topic::parse(s).unwrap()
}

fn config() -> BrokerConfig {
    BrokerConfig {
        advert_refresh: None,
        ..BrokerConfig::default()
    }
}

fn chain(n: usize, config: BrokerConfig) -> BrokerNetwork {
    let net = BrokerNetwork::chain(n, LinkConfig::instant(), system_clock(), config);
    assert!(net.wait_for_mesh(TIMEOUT));
    net
}

fn wait_until(timeout: Duration, mut ready: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if ready() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    ready()
}

/// The broker's `broker.subscriptions.remote` gauge.
fn remote(broker: &Broker) -> i64 {
    broker
        .metrics_snapshot()
        .gauge("broker.subscriptions.remote")
        .unwrap()
}

fn blob(i: u8) -> Payload {
    Payload::Blob { data: vec![i] }
}

#[test]
fn a_second_subscriber_is_relayed_past_a_broker_that_holds_the_filter() {
    let net = chain(3, config());
    let x = t("/Relay/X");
    let near = net.attach_client(0, "near").unwrap();
    near.subscribe(x.clone(), TIMEOUT).unwrap();
    assert!(net.broker(2).wait_for_remote_subscription(&x, TIMEOUT));
    // broker-1 already holds /Relay/X from broker-0; broker-0 must
    // still learn that broker-2 wants it.
    let far = net.attach_client(2, "far").unwrap();
    far.subscribe(x.clone(), TIMEOUT).unwrap();
    assert!(
        net.broker(0).wait_for_remote_subscription(&x, TIMEOUT),
        "broker-0 never learned of broker-2's subscriber"
    );
    let publisher = net.attach_client(0, "pub").unwrap();
    publisher.publish(x.clone(), blob(1)).unwrap();
    assert_eq!(far.next_message(TIMEOUT).unwrap().topic, x);
    assert_eq!(near.next_message(TIMEOUT).unwrap().topic, x);
}

/// Accepts and discards every frame.
struct Discard;

impl FrameSender for Discard {
    fn send_frame(&self, _frame: &[u8]) -> nb_transport::Result<()> {
        Ok(())
    }
}

/// Publishes five frames on `topic` at `from` and asserts `from`
/// routed all of them and forwarded none.
fn assert_not_forwarded(from: &BrokerNetwork, at: usize, topic: &Topic, why: &str) {
    let broker = from.broker(at);
    assert!(
        wait_until(TIMEOUT, || remote(broker) == 0),
        "{why}: broker-{at} still holds remote interest"
    );
    let publisher = from.attach_client(at, &format!("pub-{why}")).unwrap();
    let before = broker.stats();
    for i in 0..5 {
        publisher.publish(topic.clone(), blob(i)).unwrap();
    }
    assert!(wait_until(TIMEOUT, || broker.stats().published == before.published + 5));
    assert_eq!(
        broker.stats().forwarded,
        before.forwarded,
        "{why}: forwarded"
    );
}

#[test]
fn every_way_a_subscriber_leaves_withdraws_its_interest() {
    let x = t("/Withdraw/X");
    // Each way of leaving hands back the client if its link stays up,
    // so only the withdrawal under test can clear the interest.
    type Leave = fn(BrokerClient, &Topic) -> Option<BrokerClient>;
    let leaves: [(&str, Leave); 3] = [
        ("unsubscribe", |client, x| {
            client.unsubscribe(x.clone(), TIMEOUT).unwrap();
            Some(client)
        }),
        ("disconnect", |_, _| None),
        ("termination", |client, _| {
            // Three publishes a client may not make: §5.2 terminates it.
            let reserved = nb_broker::control_topic();
            for i in 0..3 {
                client.publish(reserved.clone(), blob(i)).unwrap();
            }
            Some(client)
        }),
    ];
    for (why, leave) in leaves {
        let net = chain(2, config());
        let subscriber = net.attach_client(0, "sub").unwrap();
        subscriber.subscribe(x.clone(), TIMEOUT).unwrap();
        assert!(net.broker(1).wait_for_remote_subscription(&x, TIMEOUT));
        let _still_attached = leave(subscriber, &x);
        assert_not_forwarded(&net, 1, &x, why);
    }

    // A neighbour departing withdraws what it advertised from the
    // brokers beyond: broker-0's stand-in advertises, then its link
    // closes.
    let net = chain(2, config());
    let (uplink, rx) = crossbeam::channel::unbounded();
    net.broker(0)
        .connect_neighbor(Endpoint::from_parts(Arc::new(Discard), rx));
    let control =
        |payload| Message::new(1, nb_broker::control_topic(), "stand-in", 0, payload).to_bytes();
    let hello = Payload::NeighborHello {
        broker_id: "stand-in".into(),
    };
    uplink.send(control(hello)).unwrap();
    uplink
        .send(control(Payload::NeighborSubscribe { filter: x.clone() }))
        .unwrap();
    assert!(net.broker(1).wait_for_remote_subscription(&x, TIMEOUT));
    drop(uplink);
    assert_not_forwarded(&net, 1, &x, "departure");
}

#[test]
fn link_repair_does_not_echo_a_neighbours_own_interest() {
    let net = chain(2, config());
    let x = t("/Echo/X");
    let subscriber = net.attach_client(0, "sub").unwrap();
    subscriber.subscribe(x.clone(), TIMEOUT).unwrap();
    assert!(net.broker(1).wait_for_remote_subscription(&x, TIMEOUT));
    assert_eq!(remote(net.broker(0)), 0);

    // Down the link while broker-1 forwards to broker-0, then heal it:
    // the link holds each publish through the outage and delivers it
    // once, in order.
    let publisher = net.attach_client(1, "pub").unwrap();
    assert!(net.drop_link(0));
    let forwarded = net.broker(1).stats().forwarded;
    for i in 0..10 {
        publisher.publish(x.clone(), blob(i)).unwrap();
    }
    assert!(wait_until(TIMEOUT, || {
        net.broker(1).stats().forwarded == forwarded + 10
    }));
    assert!(
        subscriber.next_message(Duration::from_millis(50)).is_err(),
        "a publish crossed the downed link"
    );
    assert!(net.restore_link(0));
    for i in 0..10 {
        assert_eq!(subscriber.next_message(TIMEOUT).unwrap().payload, blob(i));
    }
    assert!(
        subscriber.next_message(Duration::from_millis(200)).is_err(),
        "a held publish arrived twice"
    );
    assert!(
        !wait_until(Duration::from_millis(500), || remote(net.broker(0)) != 0),
        "the outage told broker-0 that broker-1 wants broker-0's own filter"
    );

    // And the interest still leaves cleanly from both sides.
    subscriber.unsubscribe(x.clone(), TIMEOUT).unwrap();
    assert!(wait_until(TIMEOUT, || remote(net.broker(1)) == 0));
    assert_eq!(remote(net.broker(0)), 0);
}

/// A stand-in neighbour's sender: reports every advert and withdrawal
/// it is handed, in order, and holds the thread that sends the first
/// one until released. The hold is claimed before the report, so the
/// thread the test hears from first is the one held.
struct Gate {
    seen: crossbeam::channel::Sender<Payload>,
    hold: Mutex<Option<crossbeam::channel::Receiver<()>>>,
}

impl FrameSender for Gate {
    fn send_frame(&self, frame: &[u8]) -> nb_transport::Result<()> {
        let Ok(msg) = Message::from_bytes(frame) else {
            return Ok(());
        };
        if let Payload::NeighborSubscribe { .. } | Payload::NeighborUnsubscribe { .. } = msg.payload
        {
            let hold = self.hold.lock().unwrap().take();
            self.seen.send(msg.payload).unwrap();
            if let Some(release) = hold {
                let _ = release.recv();
            }
        }
        Ok(())
    }
}

#[test]
fn a_full_set_advert_never_lands_behind_a_withdrawal() {
    let net = chain(1, config());
    let filters: Vec<Topic> = (0..3).map(|i| t(&format!("/Order/{i}"))).collect();
    let subscriber = net.attach_client(0, "sub").unwrap();
    for filter in &filters {
        subscriber.subscribe(filter.clone(), TIMEOUT).unwrap();
    }

    // A neighbour joins; broker-0's handshake sends it the full set,
    // and the gate holds that send after its first advert.
    let (seen_tx, seen) = crossbeam::channel::unbounded();
    let (release, hold) = crossbeam::channel::unbounded();
    let gate = Gate {
        seen: seen_tx,
        hold: Mutex::new(Some(hold)),
    };
    let (uplink, rx) = crossbeam::channel::unbounded();
    net.broker(0)
        .connect_neighbor(Endpoint::from_parts(Arc::new(gate), rx));
    let hello = Payload::NeighborHello {
        broker_id: "stand-in".into(),
    };
    uplink
        .send(Message::new(1, nb_broker::control_topic(), "stand-in", 0, hello).to_bytes())
        .unwrap();
    let mut sent = vec![seen.recv_timeout(TIMEOUT).unwrap()];

    // The subscriber leaves while the set is part-way out, and its
    // withdrawals get every chance to overtake the held send.
    drop(subscriber);
    let deadline = Instant::now() + Duration::from_millis(500);
    while sent.len() < 1 + filters.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        let Ok(payload) = seen.recv_timeout(left) else {
            break;
        };
        sent.push(payload);
    }
    release.send(()).unwrap();
    // One advert and one withdrawal per filter, in whatever order.
    while sent.len() < 2 * filters.len() {
        sent.push(seen.recv_timeout(TIMEOUT).unwrap());
    }

    let mut held: Vec<Topic> = Vec::new();
    for payload in &sent {
        match payload {
            Payload::NeighborSubscribe { filter } => held.push(filter.clone()),
            Payload::NeighborUnsubscribe { filter } => held.retain(|f| f != filter),
            _ => unreachable!(),
        }
    }
    assert!(
        held.is_empty(),
        "the neighbour was left holding {held:?}: {sent:?}"
    );
}
