//! Subscription adverts lost on a lossy link must eventually be
//! repaired by the anti-entropy re-advertisement path.

use nb_broker::network::BrokerNetwork;
use nb_broker::BrokerConfig;
use nb_transport::clock::system_clock;
use nb_transport::sim::LinkConfig;
use nb_wire::{Payload, Topic};
use std::time::Duration;

#[test]
fn anti_entropy_repairs_lost_adverts() {
    let link = LinkConfig::lossy(0.5).with_latency(Duration::from_micros(100));
    let net = BrokerNetwork::chain(2, link, system_clock(), BrokerConfig::default());
    assert!(net.wait_for_mesh(Duration::from_secs(10)));
    let publisher = net.attach_client(0, "pub").unwrap();
    let subscriber = net.attach_client(1, "sub").unwrap();
    subscriber
        .subscribe(
            Topic::parse("/Lossy/Topic").unwrap(),
            Duration::from_secs(10),
        )
        .unwrap();
    // Publish once per 100ms; with the advert repaired, one of these
    // must arrive within 20s.
    for i in 0..200u32 {
        publisher
            .publish(
                Topic::parse("/Lossy/Topic").unwrap(),
                Payload::Blob {
                    data: i.to_be_bytes().to_vec(),
                },
            )
            .unwrap();
        if subscriber.next_message(Duration::from_millis(100)).is_ok() {
            eprintln!("delivered after {} publishes", i + 1);
            return;
        }
    }
    panic!("no delivery in 200 attempts — adverts never repaired");
}
