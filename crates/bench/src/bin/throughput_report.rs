//! **Throughput report** — saturates a loopback broker's data plane
//! and writes `BENCH_throughput.json` (see `docs/PERFORMANCE.md`).
//!
//! The broker's routing pipeline (zero-copy view, sharded route cache,
//! original bytes fanned out) gets a multi-threaded saturation phase
//! (the msgs/sec headline) and a single-threaded timed phase
//! (per-message route latency percentiles). Delivery counts are
//! asserted exact — a throughput number that loses messages is not a
//! throughput number — and every data frame must be routed without an
//! owned decode (`broker.route.fastpath`).
//!
//! Run with `--quick` (CI) for a shorter drive with the same
//! assertions and JSON shape.

use nb_broker::{Broker, BrokerConfig};
use nb_transport::clock::system_clock;
use nb_transport::endpoint::{Endpoint, FrameSender};
use nb_wire::codec::Encode;
use nb_wire::{Message, Payload, Topic};
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

fn topic() -> Topic {
    Topic::parse("/Bench/Throughput/Loopback").unwrap()
}

fn data_frame(sender: &str, seq: u64) -> Vec<u8> {
    Message::new(
        seq,
        topic(),
        sender,
        0,
        Payload::Ping { seq, sent_at_ms: 0 },
    )
    .to_bytes()
}

/// Idle subscribers populating the broker: a realistic data plane is
/// never matching against one filter. Each idle client carries
/// [`IDLE_FILTERS`] disjoint filters the hot topic must be matched
/// against (and rejected by) on every route-cache fill.
const IDLE_SUBSCRIBERS: usize = 64;
const IDLE_FILTERS: usize = 4;

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
            Message::new(
                1,
                control.clone(),
                id,
                0,
                Payload::Attach { client_id: id.to_string() },
            )
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
    // One ack per control message proves the worker registered them.
    let expected = 1 + filters.len() as u64;
    let deadline = Instant::now() + Duration::from_secs(10);
    while sink.delivered.load(Ordering::Relaxed) < expected {
        assert!(Instant::now() < deadline, "client {id} never finished its handshake");
        std::thread::sleep(Duration::from_millis(1));
    }
    (sink, frames_tx)
}

/// Stands up a loopback broker carrying a populated subscription table
/// (one hot-topic subscriber plus the idle fleet) and blocks until the
/// hot subscription is routable.
fn routable_broker() -> (Broker, Arc<SinkSender>, Vec<crossbeam::channel::Sender<Vec<u8>>>) {
    let cfg = BrokerConfig {
        advert_refresh: None,
        ..BrokerConfig::default()
    };
    let broker = Broker::new("hot", system_clock(), cfg);

    let mut uplinks = Vec::new();
    for i in 0..IDLE_SUBSCRIBERS {
        let filters: Vec<Topic> = (0..IDLE_FILTERS)
            .map(|j| Topic::parse(&format!("/Bench/Idle/{i}/{j}")).unwrap())
            .collect();
        let (_, uplink) = attach_sink_client(&broker, &format!("idle-{i}"), &filters);
        uplinks.push(uplink);
    }
    let (sink, uplink) = attach_sink_client(&broker, "sub", &[topic()]);
    uplinks.push(uplink);

    // Probe-publish until the first copy lands behind the control
    // acks, proving the hot subscription is live.
    let acks = sink.delivered.load(Ordering::Relaxed);
    let mut probe = data_frame("probe", 1);
    let deadline = Instant::now() + Duration::from_secs(10);
    while sink.delivered.load(Ordering::Relaxed) <= acks {
        assert!(Instant::now() < deadline, "subscription never became routable");
        broker.ingest_client_frame("probe", &mut probe);
        std::thread::sleep(Duration::from_millis(2));
    }
    (broker, sink, uplinks)
}

struct RunStats {
    msgs_per_sec: f64,
    p50_ns: u64,
    p99_ns: u64,
    delivered: u64,
    fastpath: u64,
    slowpath: u64,
    cache_hits: u64,
    cache_stale: u64,
}

/// Drives the broker: a multi-threaded saturation phase for
/// throughput, then a single-threaded timed phase for latency.
fn run(threads: usize, per_thread: u64, timed: u64) -> RunStats {
    let (broker, sink, _uplinks) = routable_broker();
    let broker = Arc::new(broker);
    let delivered_start = sink.delivered.load(Ordering::Relaxed);

    // Saturation phase: untimed tight loops, wall-clocked end to end.
    let barrier = Arc::new(Barrier::new(threads + 1));
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let broker = Arc::clone(&broker);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let id = format!("pub-{t}");
                let mut frame = data_frame(&id, t as u64 + 10);
                barrier.wait();
                for _ in 0..per_thread {
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

    // Latency phase: per-message timing, one thread, no contention.
    let mut frame = data_frame("pub-timed", 7);
    let mut lat_ns: Vec<u64> = Vec::with_capacity(timed as usize);
    for _ in 0..timed {
        let t = Instant::now();
        broker.ingest_client_frame("pub-timed", &mut frame);
        lat_ns.push(t.elapsed().as_nanos() as u64);
    }
    lat_ns.sort_unstable();
    let pct = |q: f64| lat_ns[((lat_ns.len() - 1) as f64 * q) as usize];

    let delivered = sink.delivered.load(Ordering::Relaxed) - delivered_start;
    assert_eq!(delivered, msgs + timed, "lost or duplicated deliveries");

    let snap = broker.metrics_snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    RunStats {
        msgs_per_sec,
        p50_ns: pct(0.50),
        p99_ns: pct(0.99),
        delivered,
        fastpath: counter("broker.route.fastpath"),
        slowpath: counter("broker.route.slowpath"),
        cache_hits: counter("broker.route.cache_hit"),
        cache_stale: counter("broker.route.cache_stale"),
    }
}

fn json_section(s: &RunStats) -> String {
    format!(
        "{{\n    \"msgs_per_sec\": {:.0},\n    \"p50_route_ns\": {},\n    \"p99_route_ns\": {},\n    \"delivered\": {},\n    \"fastpath\": {},\n    \"slowpath\": {},\n    \"cache_hits\": {},\n    \"cache_stale\": {}\n  }}",
        s.msgs_per_sec, s.p50_ns, s.p99_ns, s.delivered, s.fastpath, s.slowpath, s.cache_hits, s.cache_stale
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4);
    let (per_thread, timed) = if quick { (50_000, 20_000) } else { (500_000, 200_000) };
    println!(
        "== throughput report: loopback broker, {threads} publishers x {per_thread} msgs ({}) ==",
        if quick { "quick" } else { "full" }
    );

    let stats = run(threads, per_thread, timed);
    println!(
        "pipeline: {:>12.0} msgs/sec   p50 {:>6} ns   p99 {:>6} ns   ({} of {} frames routed without a decode)",
        stats.msgs_per_sec,
        stats.p50_ns,
        stats.p99_ns,
        stats.fastpath,
        stats.fastpath + stats.slowpath
    );

    // Shape checks backing the CI smoke run.
    assert!(
        stats.fastpath >= stats.delivered,
        "a data frame needed an owned decode"
    );
    assert!(stats.cache_hits > 0, "route cache never hit");

    let json = format!(
        "{{\n  \"bench\": \"throughput_report\",\n  \"mode\": \"{}\",\n  \"threads\": {},\n  \"saturation_msgs\": {},\n  \"timed_msgs\": {},\n  \"pipeline\": {}\n}}\n",
        if quick { "quick" } else { "full" },
        threads,
        threads as u64 * per_thread,
        timed,
        json_section(&stats),
    );
    std::fs::write("BENCH_throughput.json", &json).expect("write BENCH_throughput.json");
    println!("wrote BENCH_throughput.json ({} bytes)", json.len());
}
