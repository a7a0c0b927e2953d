//! What a neighbour link sends on its own: its hello every 200 ms until
//! the peer's arrives, at most one answer a second to a peer that keeps
//! re-sending its hello, and the peer's full set every `advert_refresh`
//! however busy the link is. Each test serves one link to a stand-in
//! peer that records what the broker sends it.

use crossbeam::channel::{unbounded, Sender};
use nb_broker::{Broker, BrokerConfig};
use nb_transport::clock::system_clock;
use nb_transport::endpoint::{Endpoint, FrameSender};
use nb_wire::codec::{Decode, Encode};
use nb_wire::{Message, Payload, Topic};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(10);

/// The stand-in peer's side of the link: every frame the broker sends,
/// decoded.
#[derive(Default)]
struct Peer(Mutex<Vec<Payload>>);

impl FrameSender for Peer {
    fn send_frame(&self, frame: &[u8]) -> nb_transport::Result<()> {
        if let Ok(msg) = Message::from_bytes(frame) {
            self.0.lock().push(msg.payload);
        }
        Ok(())
    }
}

impl Peer {
    fn hellos(&self) -> usize {
        let sent = self.0.lock();
        sent.iter()
            .filter(|p| matches!(p, Payload::NeighborHello { .. }))
            .count()
    }

    fn adverts(&self) -> usize {
        let sent = self.0.lock();
        sent.iter()
            .filter(|p| matches!(p, Payload::NeighborSubscribe { .. }))
            .count()
    }
}

/// Connects a stand-in peer to `broker`; frames sent on the returned
/// channel reach the broker's link worker.
fn stand_in(broker: &Broker) -> (Arc<Peer>, Sender<Vec<u8>>) {
    let peer = Arc::new(Peer::default());
    let (uplink, rx) = unbounded();
    broker.connect_neighbor(Endpoint::from_parts(peer.clone(), rx));
    (peer, uplink)
}

/// The stand-in's hello.
fn hello() -> Vec<u8> {
    let payload = Payload::NeighborHello {
        broker_id: "stand-in".into(),
    };
    Message::new(1, nb_broker::control_topic(), "stand-in", 0, payload).to_bytes()
}

#[test]
fn an_unanswered_link_resends_its_hello() {
    let broker = Broker::new("broker-0", system_clock(), BrokerConfig::default());
    let (peer, _uplink) = stand_in(&broker);
    std::thread::sleep(Duration::from_millis(700));
    // Sent at once and again every 200 ms: 4 in 700 ms.
    assert!(peer.hellos() >= 3, "{} hellos in 700 ms", peer.hellos());
}

#[test]
fn a_registered_link_answers_a_hello_storm_once() {
    let broker = Broker::new("broker-0", system_clock(), BrokerConfig::default());
    let (peer, uplink) = stand_in(&broker);
    uplink.send(hello()).unwrap();
    assert!(broker.wait_for_neighbors(1, TIMEOUT));
    let before = peer.hellos();
    for _ in 0..10 {
        uplink.send(hello()).unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        peer.hellos() - before,
        1,
        "10 re-sent hellos within 200 ms get exactly one answer"
    );
}

#[test]
fn traffic_does_not_starve_anti_entropy() {
    let config = BrokerConfig {
        advert_refresh: Some(Duration::from_millis(20)),
        ..BrokerConfig::default()
    };
    let broker = Broker::new("broker-0", system_clock(), config);
    // One local filter, so each full set is one advert; the local
    // consumer also receives the stand-in's data frames.
    let data = Topic::parse("/Busy/Data").unwrap();
    let delivered = broker.register_internal("local");
    broker.subscribe_internal("local", data.clone()).unwrap();
    let (peer, uplink) = stand_in(&broker);
    uplink.send(hello()).unwrap();
    assert!(broker.wait_for_neighbors(1, TIMEOUT));

    let frame = Message::new(2, data, "stand-in", 0, Payload::Blob { data: vec![1] }).to_bytes();
    let before = peer.adverts();
    let start = Instant::now();
    let mut sent = 0;
    while start.elapsed() < Duration::from_millis(400) {
        uplink.send(frame.clone()).unwrap();
        sent += 1;
        std::thread::sleep(Duration::from_micros(500));
    }
    let rounds = peer.adverts() - before;
    // A round every 20 ms: about 20 in 400 ms.
    assert!(rounds >= 8, "{rounds} full sets in 400 ms of traffic");
    let deadline = Instant::now() + TIMEOUT;
    while delivered.len() < sent && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(delivered.len(), sent, "the link routed every data frame");
}
