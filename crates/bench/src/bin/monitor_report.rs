//! **Monitor overhead report** — measures what online runtime
//! verification costs the broker fast path and writes
//! `BENCH_monitor.json` (see `docs/OBSERVABILITY.md`).
//!
//! Three configurations of the same loopback broker are driven back to
//! back through its routing pipeline:
//!
//! * **monitors_off** — no monitors attached: the fast-path baseline;
//! * **monitors_on** — the standard property set attached, traffic on
//!   an unmonitored topic: the cost every routed frame pays (one
//!   branch on the `monitored` flag cached in its route entry);
//! * **monitored_topic** — same monitors, traffic on a constrained
//!   trace topic with a token and a trace context attached, unique
//!   message ids: every frame runs the full auth + TTL + exactly-once
//!   check battery, reported as per-event check overhead.
//!
//! Delivery counts are asserted exact, the clean traffic must produce
//! zero violations, and attaching monitors must cost less than 10% of
//! the fast-path throughput — all asserted inside the binary so the CI
//! smoke run fails loudly. Run with `--quick` (CI) for a shorter drive
//! with the same assertions and JSON shape.

use nb_broker::{Broker, BrokerConfig};
use nb_crypto::cert::{CertificateAuthority, Credential, Validity};
use nb_crypto::Uuid;
use nb_monitor::MonitorSet;
use nb_transport::clock::system_clock;
use nb_transport::endpoint::{Endpoint, FrameSender};
use nb_wire::codec::Encode;
use nb_wire::token::{AuthorizationToken, Rights};
use nb_wire::{Message, Payload, Topic};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Broker-side sender for the subscriber endpoint: swallows frames
/// after counting them, so the bench measures routing, not a consumer.
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

/// The unmonitored hot topic (matches no property pattern).
fn plain_topic() -> Topic {
    Topic::parse("/Bench/Monitor/Loopback").unwrap()
}

/// The entity that constrains (and may publish on) the monitored
/// topic — every monitored-run frame is ingested under this identity.
const PUBLISHER: &str = "bench-entity";

/// A canonical constrained trace-publication topic every data-plane
/// property (auth, TTL, exactly-once) matches. Constrained by
/// [`PUBLISHER`] so client publishes pass the broker's Publish-Only
/// enforcement.
fn monitored_topic() -> Topic {
    Topic::parse(&format!(
        "/Constrained/Traces/{PUBLISHER}/Publish-Only/Disseminate/t1/AllUpdates"
    ))
    .unwrap()
}

/// Issues the bench credentials from a throwaway 512-bit CA (size is
/// irrelevant here: the monitor only window-checks the token because
/// no owner key is registered).
fn credentials() -> (Credential, Credential) {
    let mut rng = StdRng::seed_from_u64(0xb41c);
    let validity = Validity::starting_now(0, u64::MAX / 2);
    let mut ca = CertificateAuthority::new("bench-ca", 512, validity, &mut rng)
        .expect("bench CA");
    let monitor = ca.issue("Monitor", validity, &mut rng).expect("monitor cred");
    let owner = ca.issue("entity:bench", validity, &mut rng).expect("owner cred");
    (monitor, owner)
}

/// Pre-encodes one data frame for `topic`; monitored frames carry an
/// authorization token and a trace context like real trace traffic.
fn data_frame(sender: &str, topic: Topic, monitored: bool, owner: &Credential) -> Vec<u8> {
    let mut msg = Message::new(10, topic, sender, 0, Payload::Ping { seq: 1, sent_at_ms: 0 });
    if monitored {
        let token = AuthorizationToken::issue(
            owner,
            Uuid::from_bytes([7; 16]),
            owner.certificate.public_key.clone(),
            Rights::Publish,
            0,
            u64::MAX / 2,
        )
        .expect("bench token");
        msg = msg
            .with_token(token)
            .with_trace(nb_telemetry::TraceContext::root(0, false));
    }
    msg.to_bytes()
}

/// Attaches one sink-backed client and registers its filters, waiting
/// for every control ack. Returns the sink and the client's uplink —
/// dropping the uplink reads as a link failure and detaches the
/// client, so callers must hold it.
fn attach_sink_client(
    broker: &Broker,
    id: &str,
    filters: &[Topic],
) -> (Arc<SinkSender>, crossbeam::channel::Sender<Vec<u8>>) {
    let sink = Arc::new(SinkSender::default());
    let (frames_tx, frames_rx) = crossbeam::channel::unbounded::<Vec<u8>>();
    broker.attach_client(Endpoint::from_parts(
        Arc::clone(&sink) as Arc<dyn FrameSender>,
        frames_rx,
    ));
    let control = Topic::parse("/Constrained/RealTime/Broker/PublishSubscribe/Control").unwrap();
    frames_tx
        .send(
            Message::new(1, control.clone(), id, 0, Payload::Attach { client_id: id.to_string() })
                .to_bytes(),
        )
        .expect("attach frame");
    for (i, filter) in filters.iter().enumerate() {
        frames_tx
            .send(
                Message::new(
                    2 + i as u64,
                    control.clone(),
                    id,
                    0,
                    Payload::Subscribe { filter: filter.clone() },
                )
                .to_bytes(),
            )
            .expect("subscribe frame");
    }
    let expected = 1 + filters.len() as u64;
    let deadline = Instant::now() + Duration::from_secs(10);
    while sink.delivered.load(Ordering::Relaxed) < expected {
        assert!(Instant::now() < deadline, "client {id} never finished its handshake");
        std::thread::sleep(Duration::from_millis(1));
    }
    (sink, frames_tx)
}

/// Stands up a fast-path loopback broker subscribed to `topic`,
/// optionally with the standard monitors attached, and blocks until
/// the subscription is routable.
#[allow(clippy::type_complexity)]
fn routable_broker(
    topic: &Topic,
    monitor: Option<&MonitorSet>,
    monitored_frames: bool,
    owner: &Credential,
) -> (Broker, Arc<SinkSender>, Vec<crossbeam::channel::Sender<Vec<u8>>>) {
    let cfg = BrokerConfig {
        advert_refresh: None,
        require_tokens: false,
        // Keep span recording off: broker-side telemetry is not what
        // this bench measures.
        telemetry: nb_telemetry::TelemetryConfig { enabled: false, ..Default::default() },
        ..BrokerConfig::default()
    };
    let broker = Broker::new("bench", system_clock(), cfg);
    if let Some(m) = monitor {
        broker.attach_monitor(m.clone());
    }
    let (sink, uplink) = attach_sink_client(&broker, "sub", std::slice::from_ref(topic));

    // Probe-publish (fresh id each attempt — exactly-once monitoring
    // is live) until the first copy lands behind the control acks.
    let acks = sink.delivered.load(Ordering::Relaxed);
    let mut probe = data_frame(PUBLISHER, topic.clone(), monitored_frames, owner);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut probe_id = u64::MAX;
    while sink.delivered.load(Ordering::Relaxed) <= acks {
        assert!(Instant::now() < deadline, "subscription never became routable");
        probe[1..9].copy_from_slice(&probe_id.to_be_bytes());
        probe_id -= 1;
        broker.ingest_client_frame(PUBLISHER, &mut probe);
        std::thread::sleep(Duration::from_millis(2));
    }
    (broker, sink, vec![uplink])
}

struct RunStats {
    msgs_per_sec: f64,
    p50_ns: u64,
    p99_ns: u64,
    delivered: u64,
}

/// Drives one configuration: a multi-threaded saturation phase for
/// throughput, then a single-threaded timed phase for latency. Each
/// publisher patches a fresh big-endian message id into its
/// pre-encoded frame so exactly-once tracking sees unique ids.
fn run_config(
    topic: &Topic,
    monitor: Option<&MonitorSet>,
    monitored_frames: bool,
    owner: &Credential,
    threads: usize,
    per_thread: u64,
    timed: u64,
) -> RunStats {
    let (broker, sink, _uplinks) = routable_broker(topic, monitor, monitored_frames, owner);
    let broker = Arc::new(broker);
    let delivered_start = sink.delivered.load(Ordering::Relaxed);

    let barrier = Arc::new(Barrier::new(threads + 1));
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let broker = Arc::clone(&broker);
            let barrier = Arc::clone(&barrier);
            let topic = topic.clone();
            let owner = owner.clone();
            std::thread::spawn(move || {
                // Monitored frames publish as the topic's constrainer
                // (Publish-Only enforcement); plain frames use
                // per-thread identities.
                let id =
                    if monitored_frames { PUBLISHER.to_string() } else { format!("pub-{t}") };
                let mut frame = data_frame(&id, topic, monitored_frames, &owner);
                barrier.wait();
                for seq in 0..per_thread {
                    // Message id sits after the version byte (offset
                    // 1..9, big-endian) — patch it in place.
                    frame[1..9].copy_from_slice(&(t as u64 * per_thread + seq).to_be_bytes());
                    broker.ingest_client_frame(&id, &mut frame);
                }
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    for w in workers {
        w.join().expect("publisher thread");
    }
    let elapsed = t0.elapsed();
    let msgs = threads as u64 * per_thread;
    let msgs_per_sec = msgs as f64 / elapsed.as_secs_f64();

    let timed_id = if monitored_frames { PUBLISHER } else { "pub-timed" };
    let mut frame = data_frame(timed_id, topic.clone(), monitored_frames, owner);
    let mut lat_ns: Vec<u64> = Vec::with_capacity(timed as usize);
    for seq in 0..timed {
        frame[1..9].copy_from_slice(&(u64::MAX / 2 + seq).to_be_bytes());
        let t = Instant::now();
        broker.ingest_client_frame(timed_id, &mut frame);
        lat_ns.push(t.elapsed().as_nanos() as u64);
    }
    lat_ns.sort_unstable();
    let pct = |q: f64| lat_ns[((lat_ns.len() - 1) as f64 * q) as usize];

    let delivered = sink.delivered.load(Ordering::Relaxed) - delivered_start;
    assert_eq!(delivered, msgs + timed, "lost or duplicated deliveries on {topic}");

    RunStats {
        msgs_per_sec,
        p50_ns: pct(0.50),
        p99_ns: pct(0.99),
        delivered,
    }
}

fn json_section(s: &RunStats) -> String {
    format!(
        "{{\n    \"msgs_per_sec\": {:.0},\n    \"p50_route_ns\": {},\n    \"p99_route_ns\": {},\n    \"delivered\": {}\n  }}",
        s.msgs_per_sec, s.p50_ns, s.p99_ns, s.delivered
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4);
    let (per_thread, timed) = if quick { (50_000, 20_000) } else { (500_000, 200_000) };
    println!(
        "== monitor report: loopback broker, {threads} publishers x {per_thread} msgs ({}) ==",
        if quick { "quick" } else { "full" }
    );

    let (monitor_cred, owner) = credentials();
    let specs = nb_monitor::standard_properties(BrokerConfig::default().max_hops, true);
    let monitor = MonitorSet::new(specs, monitor_cred, 100);

    let off = run_config(&plain_topic(), None, false, &owner, threads, per_thread, timed);
    println!(
        "monitors off       : {:>12.0} msgs/sec   p50 {:>6} ns   p99 {:>6} ns",
        off.msgs_per_sec, off.p50_ns, off.p99_ns
    );
    let on = run_config(&plain_topic(), Some(&monitor), false, &owner, threads, per_thread, timed);
    println!(
        "monitors on        : {:>12.0} msgs/sec   p50 {:>6} ns   p99 {:>6} ns",
        on.msgs_per_sec, on.p50_ns, on.p99_ns
    );
    let events_before = monitor.metrics_snapshot().counter("monitor.events").unwrap_or(0);
    let hot = run_config(
        &monitored_topic(),
        Some(&monitor),
        true,
        &owner,
        threads,
        per_thread,
        timed,
    );
    println!(
        "monitored topic    : {:>12.0} msgs/sec   p50 {:>6} ns   p99 {:>6} ns",
        hot.msgs_per_sec, hot.p50_ns, hot.p99_ns
    );

    // Clean traffic: every frame checked, nothing flagged.
    let snap = monitor.metrics_snapshot();
    let events = snap.counter("monitor.events").unwrap_or(0) - events_before;
    assert!(
        events >= threads as u64 * per_thread + timed,
        "monitors missed events: {events}"
    );
    assert_eq!(monitor.violation_count(), 0, "{:?}", monitor.violations());

    // Per-event check overhead, two ways: the sampled in-monitor
    // timing, and the end-to-end throughput delta per message.
    let check = snap.histogram("monitor.check_ns").expect("check_ns sampled");
    let check_ns_mean = check.mean();
    let overhead_pct = (off.msgs_per_sec - on.msgs_per_sec) / off.msgs_per_sec * 100.0;
    let checked_overhead_ns = 1e9 / hot.msgs_per_sec - 1e9 / off.msgs_per_sec;
    println!(
        "prefilter overhead: {overhead_pct:.1}%   full-check overhead: {checked_overhead_ns:.0} ns/msg (sampled mean {check_ns_mean:.0} ns)"
    );

    // The acceptance bar: enabling monitors costs < 10% of the
    // fast-path msgs/sec on unmonitored traffic.
    assert!(
        on.msgs_per_sec >= off.msgs_per_sec * 0.9,
        "monitors cost {overhead_pct:.1}% of fast-path throughput (budget 10%)"
    );

    let json = format!(
        "{{\n  \"bench\": \"monitor_report\",\n  \"mode\": \"{}\",\n  \"threads\": {},\n  \"saturation_msgs_per_config\": {},\n  \"timed_msgs_per_config\": {},\n  \"monitors_off\": {},\n  \"monitors_on\": {},\n  \"monitored_topic\": {},\n  \"monitor_events\": {},\n  \"violations\": {},\n  \"prefilter_overhead_pct\": {:.2},\n  \"per_event_check_ns\": {:.0},\n  \"sampled_check_ns_mean\": {:.0}\n}}\n",
        if quick { "quick" } else { "full" },
        threads,
        threads as u64 * per_thread,
        timed,
        json_section(&off),
        json_section(&on),
        json_section(&hot),
        events,
        monitor.violation_count(),
        overhead_pct,
        checked_overhead_ns.max(0.0),
        check_ns_mean
    );
    std::fs::write("BENCH_monitor.json", &json).expect("write BENCH_monitor.json");
    println!("wrote BENCH_monitor.json ({} bytes)", json.len());
}
