//! Proves the data-plane claim in `docs/PERFORMANCE.md`: once the
//! route cache is warm, routing a frame to its local subscribers
//! allocates nothing — a plain client publish, a head-sampled one that
//! records its AuthCheck/Route/Deliver spans, neighbour ingress with
//! its in-place hop patch, a session-tagged trace relayed to a broker
//! that holds its key (one keyring HMAC in `admit`), and a publish
//! that reaches the broker's client worker over a real loopback TCP
//! link. Uses a counting global allocator that sees every thread, so
//! everything is measured inside one test function to keep the counter
//! unpolluted by parallel tests.

use nb_broker::{Broker, BrokerConfig};
use nb_crypto::{SessionKey, Uuid};
use nb_telemetry::{TelemetryConfig, TraceContext};
use nb_transport::clock::system_clock;
use nb_transport::endpoint::{Endpoint, FrameSender};
use nb_transport::tcp::{self, TcpTransportListener};
use nb_wire::codec::{Decode, Encode};
use nb_wire::trace::{topics, TraceCategory, TraceEvent, TraceKind};
use nb_wire::{Message, MessageView, Payload, SessionTag, Topic};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Broker-side sender for the subscriber's endpoint: swallows every
/// outbound frame after counting it, touching nothing but an atomic.
#[derive(Default)]
struct SinkSender {
    delivered: AtomicU64,
}

impl FrameSender for SinkSender {
    fn send_frame(&self, _frame: &[u8]) -> nb_transport::Result<()> {
        self.delivered.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// Warms `route` (route-cache entry, metric handles, the monotonic
/// clock epoch), then asserts that 10,000 more routes allocate nothing
/// and each reaches the subscriber. A route that hands its frame to
/// another thread (a TCP send) is waited for before counting.
fn assert_route_never_allocates(label: &str, sink: &SinkSender, mut route: impl FnMut()) {
    let delivered = || sink.delivered.load(Ordering::Relaxed);
    let await_delivered = |target: u64| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while delivered() < target && Instant::now() < deadline {
            std::thread::yield_now();
        }
    };
    let warm = delivered() + 1_000;
    for _ in 0..1_000 {
        route();
    }
    await_delivered(warm);
    let delivered_before = delivered();
    let before = allocations();
    for _ in 0..10_000 {
        route();
    }
    await_delivered(delivered_before + 10_000);
    assert_eq!(
        allocations() - before,
        0,
        "{label}: steady-state route path allocated"
    );
    assert_eq!(
        sink.delivered.load(Ordering::Relaxed) - delivered_before,
        10_000,
        "{label}: every measured frame must reach the subscriber"
    );
}

#[test]
fn warm_route_path_never_allocates() {
    let cfg = BrokerConfig {
        advert_refresh: None,
        telemetry: TelemetryConfig {
            sample_ppm: 1_000_000,
            ..TelemetryConfig::default()
        },
        ..BrokerConfig::default()
    };
    let broker = Broker::new("b0", system_clock(), cfg);

    // Hand-built subscriber endpoint: the broker's outbound side is a
    // pure sink, and we inject the client's control frames directly
    // into the receive channel.
    let sink = Arc::new(SinkSender::default());
    let (frames_tx, frames_rx) = crossbeam::channel::unbounded::<Vec<u8>>();
    broker.attach_client(Endpoint::from_parts(
        Arc::clone(&sink) as Arc<dyn FrameSender>,
        frames_rx,
    ));

    let control = Topic::parse("/Constrained/RealTime/Broker/PublishSubscribe/Control").unwrap();
    let topic = Topic::parse("/Sensor/NoAlloc/Temp").unwrap();
    frames_tx
        .send(
            Message::new(
                1,
                control.clone(),
                "sub",
                0,
                Payload::Attach {
                    client_id: "sub".into(),
                },
            )
            .to_bytes(),
        )
        .unwrap();
    frames_tx
        .send(
            Message::new(
                2,
                control,
                "sub",
                0,
                Payload::Subscribe {
                    filter: topic.clone(),
                },
            )
            .to_bytes(),
        )
        .unwrap();

    // One pre-encoded data frame, reused for every publish. Client
    // ingress never mutates the buffer (hop patching only applies on
    // neighbour ingress), so reuse is sound.
    let message = Message::new(
        7,
        topic,
        "pub",
        0,
        Payload::Ping {
            seq: 0,
            sent_at_ms: 0,
        },
    );
    let mut frame = message.to_bytes();

    // Wait until the subscription is live: the sink sees two control
    // acks (attach + subscribe) and then the first delivered copy.
    let mut ready = false;
    for _ in 0..500 {
        broker.ingest_client_frame("pub", &mut frame);
        if sink.delivered.load(Ordering::Relaxed) >= 3 {
            ready = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(ready, "subscription never became routable");

    assert_route_never_allocates("plain client frame", &sink, || {
        broker.ingest_client_frame("pub", &mut frame)
    });

    // Head-sampled: the same pipeline records its spans into the
    // lock-free flight recorder.
    let mut sampled = message
        .clone()
        .with_trace(TraceContext::root(0, true))
        .to_bytes();
    let recorded = broker.flight_recorder().recorded();
    assert_route_never_allocates("head-sampled client frame", &sink, || {
        broker.ingest_client_frame("pub", &mut sampled)
    });
    assert_eq!(
        broker.flight_recorder().recorded() - recorded,
        3 * 11_000,
        "AuthCheck + Route + Deliver per sampled frame"
    );

    // Neighbour ingress patches the hop byte in place; restore it per
    // frame so the TTL never trips.
    let template = message.with_trace(TraceContext::root(0, false)).to_bytes();
    let mut relayed = template.clone();
    assert_route_never_allocates("neighbour ingress", &sink, || {
        relayed.copy_from_slice(&template);
        broker.ingest_neighbor_frame("peer", &mut relayed)
    });
    let hop = MessageView::parse(&relayed)
        .unwrap()
        .trace
        .map(|ctx| ctx.hop_count);
    assert_eq!(
        hop,
        Some(1),
        "the relayed frame carries the incremented hop"
    );

    // A session-tagged trace publication relayed from a neighbour:
    // tokens are required on trace topics, and this broker holds the
    // session key, so `admit` authenticates every frame with one
    // keyring HMAC over the frame in place.
    let mut rng = StdRng::seed_from_u64(11);
    let trace_topic = Uuid::new_v4(&mut rng);
    let now = system_clock().now_ms();
    let key = SessionKey::mint(trace_topic, now, 600_000, u64::MAX, &mut rng);
    broker.install_session_key(key.clone());
    let publication = topics::publication(&trace_topic, TraceCategory::AllUpdates);
    let control = Topic::parse("/Constrained/RealTime/Broker/PublishSubscribe/Control").unwrap();
    frames_tx
        .send(
            Message::new(
                3,
                control,
                "sub",
                0,
                Payload::Subscribe {
                    filter: publication.clone(),
                },
            )
            .to_bytes(),
        )
        .unwrap();
    let trace = Message::new(
        8,
        publication,
        "b1",
        now,
        Payload::Trace {
            event: TraceEvent {
                entity_id: "entity-1".into(),
                trace_topic,
                seq: 1,
                timestamp_ms: now,
                kind: TraceKind::AllsWell,
            },
        },
    );
    let mac = key.mac(0, &[&trace.signable_bytes()]);
    let mut tagged = trace
        .with_session(SessionTag {
            key_id: key.key_id,
            seq: 0,
            mac,
        })
        .to_bytes();
    let verified = || {
        broker
            .metrics_snapshot()
            .counter("broker.session.verified")
            .unwrap_or(0)
    };
    let delivered = sink.delivered.load(Ordering::Relaxed);
    let mut ready = false;
    for _ in 0..500 {
        broker.ingest_neighbor_frame("peer", &mut tagged);
        // The subscribe's ack, then a delivered copy.
        if sink.delivered.load(Ordering::Relaxed) >= delivered + 2 {
            ready = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(ready, "the trace subscription never became routable");
    let verified_before = verified();
    assert_route_never_allocates("session-tagged relayed trace", &sink, || {
        broker.ingest_neighbor_frame("peer", &mut tagged)
    });
    assert_eq!(
        verified() - verified_before,
        11_000,
        "every relayed trace authenticates through the keyring"
    );

    // TCP ingress: a publisher on a real loopback link. The client
    // worker reads the socket itself and routes each frame in place in
    // the endpoint's receive buffer (`Endpoint::recv_with`).
    let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let dialer = std::thread::spawn(move || tcp::connect(addr).unwrap());
    broker.attach_client(listener.accept().unwrap());
    let publisher = dialer.join().unwrap();
    let control = Topic::parse("/Constrained/RealTime/Broker/PublishSubscribe/Control").unwrap();
    let attach = Message::new(
        1,
        control,
        "tcp-pub",
        0,
        Payload::Attach {
            client_id: "tcp-pub".into(),
        },
    );
    publisher.send(&attach.to_bytes()).unwrap();
    let ack = publisher.recv_timeout(Duration::from_secs(5)).unwrap();
    assert!(matches!(
        Message::from_bytes(&ack).unwrap().payload,
        Payload::Ack
    ));
    let published = Message::new(
        9,
        Topic::parse("/Sensor/NoAlloc/Temp").unwrap(),
        "tcp-pub",
        0,
        Payload::Ping {
            seq: 0,
            sent_at_ms: 0,
        },
    )
    .to_bytes();
    assert_route_never_allocates("TCP client ingress", &sink, || {
        publisher.send(&published).unwrap()
    });
}
