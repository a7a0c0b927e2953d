//! Cluster telemetry plane at the broker level: constrained-topic
//! enforcement on the Obs family, internal publisher wiring, and
//! exact aggregator convergence across a 3-broker mesh under a flaky
//! link with a replay adversary.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nb_broker::network::BrokerNetwork;
use nb_broker::{Broker, BrokerConfig};
use nb_metrics::Registry;
use nb_obs::{telemetry_topic, ClusterAggregator, NodeKind, PublisherConfig, TelemetryPublisher};
use nb_transport::clock::system_clock;
use nb_transport::sim::LinkConfig;
use nb_wire::Payload;

const TIMEOUT: Duration = Duration::from_secs(10);

fn counter(broker: &Broker, name: &str) -> u64 {
    broker.metrics_snapshot().counter(name).unwrap_or(0)
}

/// Drains every delivered message into the aggregator until `done`
/// holds or the deadline passes; returns whether `done` held.
fn pump_until(
    rx: &crossbeam::channel::Receiver<nb_wire::Message>,
    agg: &ClusterAggregator,
    done: impl Fn(&ClusterAggregator) -> bool,
) -> bool {
    let deadline = Instant::now() + TIMEOUT;
    loop {
        while let Ok(msg) = rx.try_recv() {
            agg.ingest(&msg);
        }
        if done(agg) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn broker_publisher_feeds_a_local_aggregator() {
    let net = BrokerNetwork::chain(
        1,
        LinkConfig::instant(),
        system_clock(),
        BrokerConfig::default(),
    );
    let broker = net.broker(0).clone();
    let rx = broker.register_internal("agg");
    broker.subscribe_internal("agg", telemetry_topic()).unwrap();

    let publisher = broker.telemetry_publisher(PublisherConfig::default());
    publisher.publish_now();

    let agg = ClusterAggregator::new();
    assert!(pump_until(&rx, &agg, |a| !a.nodes().is_empty()));
    assert_eq!(agg.nodes(), vec![broker.id().to_string()]);
    // The keyframe carries the broker's own metric families.
    let total = agg.node_total(broker.id()).unwrap();
    assert!(!total.is_empty());
}

#[test]
fn unauthorized_client_publisher_is_refused() {
    let net = BrokerNetwork::chain(
        1,
        LinkConfig::instant(),
        system_clock(),
        BrokerConfig::default(),
    );
    let broker = net.broker(0).clone();
    let rx = broker.register_internal("agg");
    broker.subscribe_internal("agg", telemetry_topic()).unwrap();
    let rejected_before = counter(&broker, "broker.reject.constraint");

    // A client is not the `Obs` constrainer: its publish on the
    // Publish-Only Obs topic must be refused at the broker.
    let mallory = net.attach_client(0, "mallory").unwrap();
    let _ = mallory.publish(
        telemetry_topic(),
        Payload::Blob {
            data: vec![0xde, 0xad],
        },
    );

    let deadline = Instant::now() + TIMEOUT;
    while counter(&broker, "broker.reject.constraint") == rejected_before
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        counter(&broker, "broker.reject.constraint") > rejected_before,
        "constrained-topic enforcement must count the refusal"
    );
    // Nothing was delivered to the telemetry subscriber.
    std::thread::sleep(Duration::from_millis(50));
    assert!(rx.try_recv().is_err(), "forged frame must not be delivered");
}

#[test]
fn three_broker_aggregator_converges_exactly_under_flaky_link_and_replay() {
    let net = BrokerNetwork::chain(
        3,
        LinkConfig::instant(),
        system_clock(),
        BrokerConfig::default(),
    );
    assert!(net.wait_for_mesh(TIMEOUT));

    // The aggregator lives at b0; subscription interest gossips to b1
    // and b2 so their frames are forwarded across the chain.
    let home = net.broker(0).clone();
    let rx = home.register_internal("agg");
    home.subscribe_internal("agg", telemetry_topic()).unwrap();
    // Let the subscription advert gossip across the chain before
    // anything publishes, so no pre-fault frame is lost to a race.
    assert!(net
        .broker(1)
        .wait_for_remote_subscription(&telemetry_topic(), TIMEOUT));
    assert!(net
        .broker(2)
        .wait_for_remote_subscription(&telemetry_topic(), TIMEOUT));

    // Each node reports a private registry only this test mutates, so
    // expected totals are exact, not racing live broker counters.
    let clock = system_clock();
    let registries: Vec<Registry> = (0..3).map(|_| Registry::new()).collect();
    let publishers: Vec<TelemetryPublisher> = (0..3)
        .map(|i| {
            let registry = registries[i].clone();
            let sink = net.broker(i).clone();
            TelemetryPublisher::new(
                format!("node-{i}"),
                NodeKind::Other,
                Arc::new(move || registry.snapshot()),
                Arc::new(move |msg| sink.publish_internal(msg)),
                clock.clone(),
                PublisherConfig {
                    interval_ms: 10,
                    full_every: 4,
                },
            )
        })
        .collect();

    let agg = ClusterAggregator::new();

    // Round 0 doubles as the subscription-propagation barrier: all
    // three seq-0 keyframes must arrive before faults are injected.
    for r in &registries {
        r.counter("app.work").add(1);
    }
    for p in &publishers {
        p.publish_now();
    }
    assert!(
        pump_until(&rx, &agg, |a| a.nodes().len() == 3),
        "all three nodes must reach the aggregator before the fault"
    );

    // Flaky window: the b0—b1 link drops everything, so frames from
    // node-1 and node-2 (seqs 1..=3) are lost in transit.
    assert!(net.flaky_link(0, 1.0, Duration::from_secs(30)));
    for round in 0..3u64 {
        for r in &registries {
            r.counter("app.work").add(round + 2);
        }
        for p in &publishers {
            p.publish_now();
        }
    }
    std::thread::sleep(Duration::from_millis(50));

    // Heal the link and add a replay adversary: every later frame
    // crossing it is delivered three times; seq dedup must absorb it.
    assert!(net.restore_link(0));
    assert!(net.replay_link(0, 2));

    // Post-outage rounds cross the next keyframe (seq 4 of 0..=7), so
    // the aggregator resynchronizes exactly despite the lost frames.
    for round in 0..4u64 {
        for r in &registries {
            r.counter("app.work").add(10 + round);
        }
        for p in &publishers {
            p.publish_now();
        }
    }

    let expected: u64 = 1 + (2 + 3 + 4) + (10 + 11 + 12 + 13);
    let converged = pump_until(&rx, &agg, |a| {
        (0..3).all(|i| {
            a.node_total(&format!("node-{i}"))
                .and_then(|t| t.counter("app.work"))
                == Some(expected)
        })
    });
    assert!(
        converged,
        "every node's counter must reconstruct exactly; got {:?}",
        (0..3)
            .map(|i| agg
                .node_total(&format!("node-{i}"))
                .and_then(|t| t.counter("app.work")))
            .collect::<Vec<_>>()
    );

    let obs = agg.metrics_snapshot();
    assert!(
        obs.counter("obs.frames.gap").unwrap_or(0) > 0,
        "the flaky window must have cost at least one frame"
    );
    assert!(
        obs.counter("obs.frames.duplicate").unwrap_or(0) > 0,
        "replayed frames must be deduplicated by sequence number"
    );
    // Cluster rollup sums the three identical counters.
    assert_eq!(agg.rollup().counter("app.work"), Some(3 * expected));
}
