//! Causal-tracing integration: the hop-count TTL drops looping/
//! over-travelled messages, untraced traffic is untouched, and sampled
//! messages leave a complete span trail in every broker's flight
//! recorder.

use nb_broker::network::BrokerNetwork;
use nb_broker::BrokerConfig;
use nb_telemetry::{Stage, TelemetryConfig, TraceContext, MAX_HOPS};
use nb_transport::clock::system_clock;
use nb_transport::sim::LinkConfig;
use nb_wire::{Payload, Topic};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(5);

fn t(s: &str) -> Topic {
    Topic::parse(s).unwrap()
}

fn wait_until(timeout: Duration, mut ready: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if ready() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    ready()
}

#[test]
fn hop_ttl_drops_messages_beyond_max_hops() {
    // 3-broker chain, published one hop short of the budget: broker-1
    // (hop MAX_HOPS) may still deliver, broker-2 (hop MAX_HOPS + 1)
    // must drop.
    let net = BrokerNetwork::chain(
        3,
        LinkConfig::instant(),
        system_clock(),
        BrokerConfig::default(),
    );
    assert!(net.wait_for_mesh(TIMEOUT));
    let publisher = net.attach_client(0, "ttl-pub").unwrap();
    let near = net.attach_client(1, "ttl-near").unwrap();
    let far = net.attach_client(2, "ttl-far").unwrap();
    near.subscribe(t("/Ttl/Topic"), TIMEOUT).unwrap();
    far.subscribe(t("/Ttl/Topic"), TIMEOUT).unwrap();
    assert!(net
        .broker(0)
        .wait_for_remote_subscription(&t("/Ttl/Topic"), TIMEOUT));
    // Broker 0's wait above can be satisfied by `near` (broker 1's
    // local subscriber) alone; the frame only travels the second hop
    // once broker 1 has also learned `far`'s subscription from broker
    // 2 — wait for that too or the publish races the propagation.
    assert!(net
        .broker(1)
        .wait_for_remote_subscription(&t("/Ttl/Topic"), TIMEOUT));

    // The TTL applies to any message carrying a context, sampled or not.
    let mut ctx = TraceContext::root(0, false);
    ctx.hop_count = MAX_HOPS - 1;
    publisher
        .publish_traced(t("/Ttl/Topic"), Payload::Blob { data: vec![1] }, ctx)
        .unwrap();

    // One hop away: delivered.
    assert!(near.next_message(TIMEOUT).is_ok());
    // Two hops away: dropped at broker-2's ingress, counted there.
    assert!(wait_until(TIMEOUT, || net.broker(2).stats().dropped_ttl >= 1));
    assert!(far.next_message(Duration::from_millis(200)).is_err());
    assert_eq!(net.broker(2).stats().delivered_local, 0);
}

#[test]
fn untraced_messages_are_not_ttl_checked() {
    // MAX_HOPS + 1 broker-to-broker hops: a traced frame would be
    // dropped at the last broker.
    let brokers = usize::from(MAX_HOPS) + 2;
    let net = BrokerNetwork::chain(
        brokers,
        LinkConfig::instant(),
        system_clock(),
        BrokerConfig::default(),
    );
    assert!(net.wait_for_mesh(TIMEOUT));
    let last = brokers - 1;
    let publisher = net.attach_client(0, "plain-pub").unwrap();
    let far = net.attach_client(last, "plain-far").unwrap();
    far.subscribe(t("/Plain/Topic"), TIMEOUT).unwrap();
    // The advert reaches broker 0 last, after every broker between.
    assert!(net
        .broker(0)
        .wait_for_remote_subscription(&t("/Plain/Topic"), TIMEOUT));

    // No trace context ⇒ no TTL: still delivered across every hop.
    publisher
        .publish(t("/Plain/Topic"), Payload::Blob { data: vec![2] })
        .unwrap();
    assert!(far.next_message(TIMEOUT).is_ok());
    assert!(net.brokers.iter().all(|b| b.stats().dropped_ttl == 0));
}

#[test]
fn sampled_messages_leave_a_span_trail_on_every_broker() {
    let cfg = BrokerConfig {
        telemetry: TelemetryConfig {
            sample_ppm: 1_000_000,
            ..TelemetryConfig::default()
        },
        ..BrokerConfig::default()
    };
    let net = BrokerNetwork::chain(2, LinkConfig::instant(), system_clock(), cfg);
    assert!(net.wait_for_mesh(TIMEOUT));
    let publisher = net.attach_client(0, "span-pub").unwrap();
    let sub = net.attach_client(1, "span-sub").unwrap();
    sub.subscribe(t("/Span/Topic"), TIMEOUT).unwrap();
    assert!(net
        .broker(0)
        .wait_for_remote_subscription(&t("/Span/Topic"), TIMEOUT));

    let ctx = TraceContext::root(7, true);
    publisher
        .publish_traced(t("/Span/Topic"), Payload::Blob { data: vec![3] }, ctx)
        .unwrap();
    let delivered = sub.next_message(TIMEOUT).unwrap();
    assert_eq!(
        delivered
            .trace
            .map(|c| (c.trace_id, c.hop_count, c.sampled)),
        Some((ctx.trace_id, 1, true)),
        "context must propagate with the hop count incremented"
    );

    // Spans are recorded synchronously in route(), but delivery to the
    // test client can overtake the recorder stores — poll briefly.
    let has = |idx: usize, stage: Stage, hop: u8| {
        let spans = net.broker(idx).flight_recorder().snapshot();
        spans
            .iter()
            .any(|s| s.trace_id == ctx.trace_id && s.stage == stage && s.hop == hop)
    };
    assert!(wait_until(TIMEOUT, || {
        // Origin broker: auth + route + forward at hop 0.
        has(0, Stage::AuthCheck, 0)
            && has(0, Stage::Route, 0)
            && has(0, Stage::Forward, 0)
            // Next broker: auth + route + deliver at hop 1.
            && has(1, Stage::AuthCheck, 1)
            && has(1, Stage::Route, 1)
            && has(1, Stage::Deliver, 1)
    }));
}

#[test]
fn unsampled_messages_record_nothing() {
    let cfg = BrokerConfig {
        telemetry: TelemetryConfig {
            sample_ppm: 0,
            ..TelemetryConfig::default()
        },
        ..BrokerConfig::default()
    };
    let net = BrokerNetwork::chain(1, LinkConfig::instant(), system_clock(), cfg);
    let publisher = net.attach_client(0, "quiet-pub").unwrap();
    let sub = net.attach_client(0, "quiet-sub").unwrap();
    sub.subscribe(t("/Quiet"), TIMEOUT).unwrap();
    publisher
        .publish_traced(
            t("/Quiet"),
            Payload::Blob { data: vec![4] },
            TraceContext::root(0, false),
        )
        .unwrap();
    assert!(sub.next_message(TIMEOUT).is_ok());
    assert_eq!(net.broker(0).flight_recorder().recorded(), 0);
}
