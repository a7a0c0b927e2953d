//! Concurrent-publish stress for the sharded route cache: many
//! publishers hammer one topic while another client churns
//! subscriptions (invalidating the cache), and every subscriber must
//! still see exactly one copy of every message — no loss, no
//! duplication, per-publisher order preserved.

use nb_broker::network::BrokerNetwork;
use nb_broker::BrokerConfig;
use nb_transport::clock::system_clock;
use nb_transport::sim::LinkConfig;
use nb_wire::{Message, Payload, Topic};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const PUBLISHERS: usize = 4;
const PER_PUBLISHER: u32 = 250;

fn topic() -> Topic {
    Topic::parse("/Stress/Fanout").unwrap()
}

/// Drains `expected` messages and checks them off against a
/// per-publisher sequence ledger: every (publisher, seq) pair must
/// arrive exactly once and in increasing seq order per publisher,
/// across exactly `senders` distinct publishers.
fn collect_from(sub: &nb_broker::BrokerClient, expected: usize, senders: usize, who: &str) {
    let mut last_seq: HashMap<String, u32> = HashMap::new();
    let mut received = 0usize;
    while received < expected {
        let msg: Message = sub
            .next_message(Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("{who}: lost messages after {received}/{expected}: {e:?}"));
        let Payload::Blob { data } = msg.payload else {
            panic!("{who}: unexpected payload");
        };
        let seq = u32::from_be_bytes(data[..4].try_into().unwrap());
        match last_seq.get(&msg.sender) {
            None => assert_eq!(
                seq, 0,
                "{who}: first message from {} out of order",
                msg.sender
            ),
            Some(&prev) => assert_eq!(
                seq,
                prev + 1,
                "{who}: gap or duplicate from {} (prev {prev}, got {seq})",
                msg.sender
            ),
        }
        last_seq.insert(msg.sender.clone(), seq);
        received += 1;
    }
    assert_eq!(
        last_seq.len(),
        senders,
        "{who}: missing a publisher entirely"
    );
}

/// See [`collect_from`] — the common case with `PUBLISHERS` senders.
fn collect_and_check(sub: &nb_broker::BrokerClient, expected: usize, who: &str) {
    collect_from(sub, expected, PUBLISHERS, who);
}

#[test]
fn concurrent_publishers_lose_and_duplicate_nothing() {
    let net = Arc::new(BrokerNetwork::chain(
        2,
        LinkConfig::instant(),
        system_clock(),
        BrokerConfig::default(),
    ));
    assert!(net.wait_for_mesh(Duration::from_secs(10)));

    let local_sub = net.attach_client(0, "sub-local").unwrap();
    let remote_sub = net.attach_client(1, "sub-remote").unwrap();
    local_sub
        .subscribe(topic(), Duration::from_secs(10))
        .unwrap();
    remote_sub
        .subscribe(topic(), Duration::from_secs(10))
        .unwrap();
    // Publishing starts only once broker 0 has seen broker 1's advert,
    // otherwise early messages are (correctly) never forwarded.
    assert!(net
        .broker(0)
        .wait_for_remote_subscription(&topic(), Duration::from_secs(10)));

    // Subscription churn on the hot topic and a cold one, running for
    // the whole publish phase: every cycle bumps the route version and
    // forces the cache to refill mid-traffic.
    let stop = Arc::new(AtomicBool::new(false));
    let churn = {
        let stop = Arc::clone(&stop);
        let churner = net.attach_client(0, "churner").unwrap();
        std::thread::spawn(move || {
            let cold = Topic::parse("/Stress/Cold").unwrap();
            let mut cycles = 0u32;
            while !stop.load(Ordering::Relaxed) || cycles < 20 {
                churner.subscribe(topic(), Duration::from_secs(5)).unwrap();
                churner
                    .subscribe(cold.clone(), Duration::from_secs(5))
                    .unwrap();
                churner
                    .unsubscribe(topic(), Duration::from_secs(5))
                    .unwrap();
                churner
                    .unsubscribe(cold.clone(), Duration::from_secs(5))
                    .unwrap();
                cycles += 1;
            }
        })
    };

    let publishers: Vec<_> = (0..PUBLISHERS)
        .map(|p| {
            let client = net.attach_client(0, &format!("pub-{p}")).unwrap();
            std::thread::spawn(move || {
                for seq in 0..PER_PUBLISHER {
                    client
                        .publish(
                            topic(),
                            Payload::Blob {
                                data: seq.to_be_bytes().to_vec(),
                            },
                        )
                        .unwrap();
                }
            })
        })
        .collect();
    for p in publishers {
        p.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    churn.join().unwrap();

    let expected = PUBLISHERS * PER_PUBLISHER as usize;
    collect_and_check(&local_sub, expected, "local subscriber");
    collect_and_check(&remote_sub, expected, "remote subscriber");

    // Nothing further may arrive: a duplicate would surface here.
    assert!(local_sub.next_message(Duration::from_millis(200)).is_err());
    assert!(remote_sub.next_message(Duration::from_millis(200)).is_err());

    // The overhaul must actually be exercised: steady-state publishes
    // ride the fast path, and churn forces stale-entry refills.
    let snap = net.broker(0).metrics_snapshot();
    let fast = snap.counter("broker.route.fastpath").unwrap_or(0);
    assert!(
        fast >= expected as u64,
        "fast path barely used: {fast} of {expected} publishes"
    );
}

/// A subscriber that unsubscribes (and re-points its subscription at
/// another topic) in the middle of a flood must never receive another
/// hot-topic message once the broker acknowledges the change — cached
/// route entries from before the change are stale and must not be
/// served.
#[test]
fn mid_flood_unsubscribe_never_delivers_to_a_stale_subscriber() {
    let net = Arc::new(BrokerNetwork::chain(
        2,
        LinkConfig::instant(),
        system_clock(),
        BrokerConfig::default(),
    ));
    assert!(net.wait_for_mesh(Duration::from_secs(10)));
    let cold = Topic::parse("/Stress/Cold").unwrap();

    // The keeper (remote, so neighbor forwarding stays hot) holds the
    // subscription for the whole flood and must see every message; the
    // victim drops out mid-flood and must see none after the ack.
    let keeper = net.attach_client(1, "keeper").unwrap();
    let victim = net.attach_client(0, "victim").unwrap();
    keeper.subscribe(topic(), Duration::from_secs(10)).unwrap();
    victim.subscribe(topic(), Duration::from_secs(10)).unwrap();
    assert!(net
        .broker(0)
        .wait_for_remote_subscription(&topic(), Duration::from_secs(10)));

    let publishers: Vec<_> = (0..PUBLISHERS)
        .map(|p| {
            let client = net.attach_client(0, &format!("pub-{p}")).unwrap();
            std::thread::spawn(move || {
                for seq in 0..PER_PUBLISHER {
                    client
                        .publish(
                            topic(),
                            Payload::Blob {
                                data: seq.to_be_bytes().to_vec(),
                            },
                        )
                        .unwrap();
                }
            })
        })
        .collect();

    // Mid-flood: the victim proves it is receiving, then changes its
    // subscription policy — off the hot topic, onto the cold one.
    for _ in 0..100 {
        victim
            .next_message(Duration::from_secs(10))
            .expect("victim receives mid-flood");
    }
    victim
        .unsubscribe(topic(), Duration::from_secs(10))
        .unwrap();
    victim
        .subscribe(cold.clone(), Duration::from_secs(10))
        .unwrap();

    // Drain deliveries routed before the ack (already queued or in
    // flight on the instant links) until the victim's queue goes quiet.
    while victim.next_message(Duration::from_millis(300)).is_ok() {}

    for p in publishers {
        p.join().unwrap();
    }

    // Guaranteed post-ack traffic: a fresh publisher floods the hot
    // topic (rebuilding the route cache entry), then marks the cold
    // topic so the victim's new subscription proves live.
    let late = net.attach_client(0, "pub-late").unwrap();
    for seq in 0..200u32 {
        late.publish(
            topic(),
            Payload::Blob {
                data: seq.to_be_bytes().to_vec(),
            },
        )
        .unwrap();
    }
    late.publish(
        cold.clone(),
        Payload::Blob {
            data: u32::MAX.to_be_bytes().to_vec(),
        },
    )
    .unwrap();

    // The victim sees exactly the cold marker — zero stale hot-topic
    // deliveries — and then nothing.
    let marker = victim
        .next_message(Duration::from_secs(10))
        .expect("cold marker arrives");
    assert_eq!(marker.topic, cold, "stale delivery after unsubscribe ack");
    assert!(
        victim.next_message(Duration::from_millis(500)).is_err(),
        "victim received hot-topic traffic after unsubscribing"
    );

    // The keeper saw the entire flood exactly once: the cache
    // invalidation dropped the victim without perturbing routing.
    let expected = PUBLISHERS * PER_PUBLISHER as usize + 200;
    collect_from(&keeper, expected, PUBLISHERS + 1, "keeper");
    assert!(keeper.next_message(Duration::from_millis(200)).is_err());

    // The unsubscribe/resubscribe really did invalidate cached routes.
    let snap = net.broker(0).metrics_snapshot();
    let stale = snap.counter("broker.route.cache_stale").unwrap_or(0);
    assert!(stale > 0, "no cached route entry was ever invalidated");
}
