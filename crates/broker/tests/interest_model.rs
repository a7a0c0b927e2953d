//! Reference-model test of subscription propagation.
//!
//! Random sequences of client subscribe, unsubscribe and detach, and
//! in-process subscribe and unsubscribe, run over a 4-broker chain and
//! a 3-spoke star of instant simulated links with anti-entropy off.
//! The model is the per-neighbour rule on a tree: neighbour `n` holds
//! a filter from broker `b` exactly when some consumer on `b`'s side of
//! the `b`–`n` link subscribes to it. After every step, once the
//! gauges settle, every broker's `broker.subscriptions.remote` must
//! equal the model's count, and one publish per live filter, from a
//! random broker, must reach exactly the model's subscribers, once.

use nb_broker::network::BrokerNetwork;
use nb_broker::{BrokerClient, BrokerConfig};
use nb_transport::clock::system_clock;
use nb_transport::sim::LinkConfig;
use nb_wire::{Message, Payload, Topic};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(2);
const FILTERS: u8 = 3;
const SLOTS: u8 = 2;

#[derive(Debug, Clone, Copy)]
enum Op {
    Subscribe { broker: u8, slot: u8, filter: u8 },
    Unsubscribe { broker: u8, slot: u8, filter: u8 },
    Detach { broker: u8, slot: u8 },
    InternalSubscribe { broker: u8, filter: u8 },
    InternalUnsubscribe { broker: u8, filter: u8 },
}

/// A step: one op, then one publish per live filter from broker
/// `from + i` (mod the broker count) for the `i`-th filter.
fn arb_steps() -> impl Strategy<Value = Vec<(Op, u8)>> {
    let op = prop_oneof![
        4 => (0u8..4, 0..SLOTS, 0..FILTERS)
            .prop_map(|(broker, slot, filter)| Op::Subscribe { broker, slot, filter }),
        2 => (0u8..4, 0..SLOTS, 0..FILTERS)
            .prop_map(|(broker, slot, filter)| Op::Unsubscribe { broker, slot, filter }),
        1 => (0u8..4, 0..SLOTS).prop_map(|(broker, slot)| Op::Detach { broker, slot }),
        2 => (0u8..4, 0..FILTERS)
            .prop_map(|(broker, filter)| Op::InternalSubscribe { broker, filter }),
        1 => (0u8..4, 0..FILTERS)
            .prop_map(|(broker, filter)| Op::InternalUnsubscribe { broker, filter }),
    ];
    proptest::collection::vec((op, 0u8..4), 1..24)
}

fn filter(i: u8) -> Topic {
    Topic::parse(&format!("/Model/{i}")).unwrap()
}

/// Who consumes a message: a client slot incarnation or a broker's
/// in-process engine.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Consumer {
    Client(String),
    Engine(usize),
}

/// The system under test plus the model it must agree with.
struct Rig {
    net: BrokerNetwork,
    /// Undirected broker links.
    edges: Vec<(usize, usize)>,
    publishers: Vec<BrokerClient>,
    engines: Vec<crossbeam::channel::Receiver<Message>>,
    /// Attached clients by (broker, slot): id and handle.
    clients: BTreeMap<(usize, u8), (String, BrokerClient)>,
    /// Incarnations so far, so a re-attached slot gets a fresh id.
    attached: u32,
    /// Model: each broker's local (consumer, filter) registrations.
    local: Vec<BTreeSet<(Consumer, u8)>>,
    step: u32,
}

impl Rig {
    fn new(net: BrokerNetwork, edges: Vec<(usize, usize)>) -> Rig {
        assert!(net.wait_for_mesh(TIMEOUT));
        let n = net.len();
        let publishers = (0..n)
            .map(|b| net.attach_client(b, &format!("publisher-{b}")).unwrap())
            .collect();
        let engines = (0..n)
            .map(|b| net.broker(b).register_internal(&format!("engine-{b}")))
            .collect();
        Rig {
            net,
            edges,
            publishers,
            engines,
            clients: BTreeMap::new(),
            attached: 0,
            local: vec![BTreeSet::new(); n],
            step: 0,
        }
    }

    fn apply(&mut self, op: Op) {
        let n = self.net.len();
        match op {
            Op::Subscribe {
                broker,
                slot,
                filter: f,
            } => {
                let b = usize::from(broker) % n;
                let (id, client) = self.clients.entry((b, slot)).or_insert_with(|| {
                    self.attached += 1;
                    let id = format!("client-{b}-{slot}-{}", self.attached);
                    let client = self.net.attach_client(b, &id).unwrap();
                    (id, client)
                });
                client.subscribe(filter(f), TIMEOUT).unwrap();
                self.local[b].insert((Consumer::Client(id.clone()), f));
            }
            Op::Unsubscribe {
                broker,
                slot,
                filter: f,
            } => {
                let b = usize::from(broker) % n;
                if let Some((id, client)) = self.clients.get(&(b, slot)) {
                    client.unsubscribe(filter(f), TIMEOUT).unwrap();
                    self.local[b].remove(&(Consumer::Client(id.clone()), f));
                }
            }
            Op::Detach { broker, slot } => {
                let b = usize::from(broker) % n;
                if let Some((id, _)) = self.clients.remove(&(b, slot)) {
                    self.local[b].retain(|(c, _)| *c != Consumer::Client(id.clone()));
                }
            }
            Op::InternalSubscribe { broker, filter: f } => {
                let b = usize::from(broker) % n;
                let engine = format!("engine-{b}");
                self.net
                    .broker(b)
                    .subscribe_internal(&engine, filter(f))
                    .unwrap();
                self.local[b].insert((Consumer::Engine(b), f));
            }
            Op::InternalUnsubscribe { broker, filter: f } => {
                let b = usize::from(broker) % n;
                let engine = format!("engine-{b}");
                self.net.broker(b).unsubscribe_internal(&engine, &filter(f));
                self.local[b].remove(&(Consumer::Engine(b), f));
            }
        }
    }

    /// The brokers on `to`'s side of the `from`–`to` link.
    fn side(&self, from: usize, to: usize) -> Vec<usize> {
        let mut seen = vec![from, to];
        let mut frontier = vec![to];
        while let Some(b) = frontier.pop() {
            for &(x, y) in &self.edges {
                for (a, c) in [(x, y), (y, x)] {
                    if a == b && !seen.contains(&c) {
                        seen.push(c);
                        frontier.push(c);
                    }
                }
            }
        }
        seen.split_off(1)
    }

    /// The model's `(clients, local, remote)` gauges for broker `b`.
    fn expected_gauges(&self, b: usize) -> (i64, i64, i64) {
        let clients = 1 + self.clients.keys().filter(|(at, _)| *at == b).count();
        let mut remote = 0;
        for &(x, y) in &self.edges {
            let neighbor = match (x == b, y == b) {
                (true, _) => y,
                (_, true) => x,
                _ => continue,
            };
            let wanted: BTreeSet<u8> = self
                .side(b, neighbor)
                .into_iter()
                .flat_map(|s| self.local[s].iter().map(|(_, f)| *f))
                .collect();
            remote += wanted.len();
        }
        (clients as i64, self.local[b].len() as i64, remote as i64)
    }

    fn gauges(&self, b: usize) -> (i64, i64, i64) {
        let snap = self.net.broker(b).metrics_snapshot();
        let gauge = |name| snap.gauge(name).unwrap();
        (
            gauge("broker.clients"),
            gauge("broker.subscriptions.local"),
            gauge("broker.subscriptions.remote"),
        )
    }

    /// Waits for every broker's gauges to reach the model's.
    fn settle(&self, op: Op) {
        let deadline = Instant::now() + TIMEOUT;
        for b in 0..self.net.len() {
            let want = self.expected_gauges(b);
            while self.gauges(b) != want && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(
                self.gauges(b),
                want,
                "broker-{b} (clients, local, remote) after {op:?} at step {}",
                self.step
            );
        }
    }

    /// Publishes once on every live filter and checks each consumer
    /// gets exactly the publishes the model says it subscribes to.
    fn check_delivery(&mut self, from: u8) {
        self.step += 1;
        let mut expected: BTreeMap<Consumer, BTreeSet<Vec<u8>>> = BTreeMap::new();
        let live: BTreeSet<u8> = self.local.iter().flatten().map(|(_, f)| *f).collect();
        for (i, f) in live.into_iter().enumerate() {
            let mut data = self.step.to_be_bytes().to_vec();
            data.push(f);
            for (consumer, _) in self.local.iter().flatten().filter(|(_, g)| *g == f) {
                expected
                    .entry(consumer.clone())
                    .or_default()
                    .insert(data.clone());
            }
            let origin = (usize::from(from) + i) % self.net.len();
            self.publishers[origin]
                .publish(filter(f), Payload::Blob { data })
                .unwrap();
        }
        let ids: Vec<Consumer> = self
            .clients
            .values()
            .map(|(id, _)| Consumer::Client(id.clone()))
            .chain((0..self.net.len()).map(Consumer::Engine))
            .collect();
        for consumer in ids {
            let mut want = expected.remove(&consumer).unwrap_or_default();
            // Everything expected arrives, then nothing else is queued.
            while let Some(data) = self.receive(&consumer, !want.is_empty()) {
                assert!(
                    want.remove(&data),
                    "{consumer:?} got an unexpected or duplicate publish at step {}",
                    self.step
                );
            }
            assert!(
                want.is_empty(),
                "{consumer:?} missed {want:?} at step {}",
                self.step
            );
        }
    }

    /// The next publish queued for `consumer`: waits when `wait`,
    /// otherwise only takes what is already there.
    fn receive(&self, consumer: &Consumer, wait: bool) -> Option<Vec<u8>> {
        let timeout = if wait { TIMEOUT } else { Duration::ZERO };
        let msg = match consumer {
            Consumer::Client(id) => {
                let (_, client) = self.clients.values().find(|(c, _)| c == id).unwrap();
                client.next_message(timeout).ok()?
            }
            Consumer::Engine(b) => self.engines[*b].recv_timeout(timeout).ok()?,
        };
        match msg.payload {
            Payload::Blob { data } => Some(data),
            other => panic!("{consumer:?} got {other:?}"),
        }
    }

    fn run(mut self, steps: Vec<(Op, u8)>) {
        for (op, from) in steps {
            self.apply(op);
            self.settle(op);
            self.check_delivery(from);
        }
    }
}

fn config() -> BrokerConfig {
    BrokerConfig {
        advert_refresh: None,
        ..BrokerConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn chain_matches_the_interest_model(steps in arb_steps()) {
        let net = BrokerNetwork::chain(4, LinkConfig::instant(), system_clock(), config());
        Rig::new(net, vec![(0, 1), (1, 2), (2, 3)]).run(steps);
    }

    #[test]
    fn star_matches_the_interest_model(steps in arb_steps()) {
        let net = BrokerNetwork::star(3, LinkConfig::instant(), system_clock(), config());
        Rig::new(net, vec![(0, 1), (0, 2), (0, 3)]).run(steps);
    }
}
