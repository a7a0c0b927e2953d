//! **Telemetry overhead report** — measures what the cluster
//! telemetry plane costs the broker fast path and writes
//! `BENCH_obs.json` (see `docs/OBSERVABILITY.md`).
//!
//! Two configurations of the same loopback broker are driven back to
//! back with the route cache on:
//!
//! * **telemetry_off** — no publisher attached: the bare fast-path
//!   baseline;
//! * **telemetry_on** — the broker's own `TelemetryPublisher` pumping
//!   signed frames every 100 ms onto the constrained Obs topic, with a
//!   `ClusterAggregator` subscribed on the same broker ingesting them
//!   live.
//!
//! Each configuration runs three times and reports its best
//! saturation throughput (the bound is tight, so per-run scheduler
//! noise must not decide it). The acceptance bar — asserted inside the
//! binary so the CI smoke run fails loudly — is that telemetry-on
//! costs **less than 2%** of the fast-path msgs/sec. The report also
//! proves the plane worked: frames were accepted, the per-node totals
//! carry the broker families, and both expositions render. Run with
//! `--quick` (CI) for a shorter drive with the same assertions and
//! JSON shape.

use nb_broker::{Broker, BrokerConfig};
use nb_crypto::cert::{CertificateAuthority, Credential, Validity};
use nb_obs::{
    json_export, prometheus_text, telemetry_topic, AggregatorConfig, ClusterAggregator,
    PublisherConfig,
};
use nb_transport::clock::system_clock;
use nb_wire::codec::Encode;
use nb_transport::endpoint::{Endpoint, FrameSender};
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

/// The hot data topic (unrelated to the Obs family).
fn bench_topic() -> Topic {
    Topic::parse("/Bench/Obs/Loopback").unwrap()
}

/// The `Obs` credential the publisher signs frames with.
fn obs_credential() -> Credential {
    let mut rng = StdRng::seed_from_u64(0x0b5);
    let validity = Validity::starting_now(0, u64::MAX / 2);
    let mut ca =
        CertificateAuthority::new("bench-ca", 512, validity, &mut rng).expect("bench CA");
    ca.issue("Obs", validity, &mut rng).expect("obs cred")
}

/// Pre-encodes one data frame for the bench topic.
fn data_frame(sender: &str) -> Vec<u8> {
    Message::new(10, bench_topic(), sender, 0, Payload::Ping { seq: 1, sent_at_ms: 0 }).to_bytes()
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

/// Stands up a fast-path loopback broker subscribed to the bench
/// topic and blocks until the subscription is routable.
fn routable_broker() -> (Broker, Arc<SinkSender>, crossbeam::channel::Sender<Vec<u8>>) {
    let cfg = BrokerConfig {
        advert_refresh: None,
        require_tokens: false,
        telemetry: nb_telemetry::TelemetryConfig { enabled: false, ..Default::default() },
        ..BrokerConfig::default()
    };
    let broker = Broker::new("bench", system_clock(), cfg);
    let (sink, uplink) = attach_sink_client(&broker, "sub", &[bench_topic()]);

    let acks = sink.delivered.load(Ordering::Relaxed);
    let mut probe = data_frame("pub-0");
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut probe_id = u64::MAX;
    while sink.delivered.load(Ordering::Relaxed) <= acks {
        assert!(Instant::now() < deadline, "subscription never became routable");
        probe[1..9].copy_from_slice(&probe_id.to_be_bytes());
        probe_id -= 1;
        broker.ingest_client_frame("pub-0", &mut probe);
        std::thread::sleep(Duration::from_millis(2));
    }
    (broker, sink, uplink)
}

struct RunStats {
    msgs_per_sec: f64,
    p50_ns: u64,
    p99_ns: u64,
    delivered: u64,
}

/// Drives one configuration: a multi-threaded saturation phase for
/// throughput, then a single-threaded timed phase for latency. With
/// `telemetry` on, the broker's own publisher pumps signed frames
/// throughout and `agg` (subscribed on the same broker) ingests them.
fn run_config(
    telemetry: bool,
    agg: Option<&ClusterAggregator>,
    threads: usize,
    per_thread: u64,
    timed: u64,
) -> RunStats {
    let (broker, sink, _uplink) = routable_broker();
    let broker = Arc::new(broker);

    // The telemetry plane rides along: publisher on its own cadence,
    // aggregator drained by a background thread, both for the whole
    // duration of the measured run.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut plane: Option<std::thread::JoinHandle<()>> = None;
    if telemetry {
        let agg = agg.expect("aggregator required when telemetry is on").clone();
        let rx = broker.register_internal("obs-agg");
        broker
            .subscribe_internal("obs-agg", telemetry_topic())
            .expect("subscribe obs");
        let publisher = broker
            .telemetry_publisher(PublisherConfig { interval_ms: 100, full_every: 8 })
            .signed(obs_credential());
        let stop = Arc::clone(&stop);
        plane = Some(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                publisher.tick();
                while let Ok(msg) = rx.try_recv() {
                    agg.ingest(&msg);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            // Flush a final frame so short quick runs still aggregate.
            publisher.publish_now();
            while let Ok(msg) = rx.try_recv() {
                agg.ingest(&msg);
            }
        }));
    }
    let delivered_start = sink.delivered.load(Ordering::Relaxed);

    let barrier = Arc::new(Barrier::new(threads + 1));
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let broker = Arc::clone(&broker);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let id = format!("pub-{t}");
                let mut frame = data_frame(&id);
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

    let mut frame = data_frame("pub-timed");
    let mut lat_ns: Vec<u64> = Vec::with_capacity(timed as usize);
    for seq in 0..timed {
        frame[1..9].copy_from_slice(&(u64::MAX / 2 + seq).to_be_bytes());
        let t = Instant::now();
        broker.ingest_client_frame("pub-timed", &mut frame);
        lat_ns.push(t.elapsed().as_nanos() as u64);
    }
    lat_ns.sort_unstable();
    let pct = |q: f64| lat_ns[((lat_ns.len() - 1) as f64 * q) as usize];

    stop.store(true, Ordering::Relaxed);
    if let Some(handle) = plane {
        handle.join().expect("telemetry plane thread");
    }

    // Telemetry frames go to the internal subscriber, not the sink, so
    // the data-plane delivery count stays exact either way.
    let delivered = sink.delivered.load(Ordering::Relaxed) - delivered_start;
    assert_eq!(delivered, msgs + timed, "lost or duplicated deliveries");

    RunStats { msgs_per_sec, p50_ns: pct(0.50), p99_ns: pct(0.99), delivered }
}

/// Best-of-`runs` for one configuration (throughput takes the max;
/// latency percentiles take the run that won).
fn best_of(
    runs: usize,
    telemetry: bool,
    agg: Option<&ClusterAggregator>,
    threads: usize,
    per_thread: u64,
    timed: u64,
) -> RunStats {
    let mut best: Option<RunStats> = None;
    for _ in 0..runs {
        let stats = run_config(telemetry, agg, threads, per_thread, timed);
        if best.as_ref().is_none_or(|b| stats.msgs_per_sec > b.msgs_per_sec) {
            best = Some(stats);
        }
    }
    best.expect("at least one run")
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
    let (per_thread, timed, runs) =
        if quick { (50_000, 20_000, 2) } else { (500_000, 200_000, 3) };
    println!(
        "== obs report: loopback broker, {threads} publishers x {per_thread} msgs, best of {runs} ({}) ==",
        if quick { "quick" } else { "full" }
    );

    let agg = ClusterAggregator::new(AggregatorConfig::default());
    agg.require_signatures(obs_credential().certificate.public_key.clone());

    let off = best_of(runs, false, None, threads, per_thread, timed);
    println!(
        "telemetry off      : {:>12.0} msgs/sec   p50 {:>6} ns   p99 {:>6} ns",
        off.msgs_per_sec, off.p50_ns, off.p99_ns
    );
    let on = best_of(runs, true, Some(&agg), threads, per_thread, timed);
    println!(
        "telemetry on       : {:>12.0} msgs/sec   p50 {:>6} ns   p99 {:>6} ns",
        on.msgs_per_sec, on.p50_ns, on.p99_ns
    );

    // The plane must actually have run: signed frames accepted, none
    // rejected, and the node totals carry the broker families.
    let obs_metrics = agg.metrics_snapshot();
    let accepted = obs_metrics.counter("obs.frames.accepted").unwrap_or(0);
    let rejected = obs_metrics.counter("obs.frames.rejected").unwrap_or(0);
    assert!(accepted > 0, "no telemetry frames aggregated");
    assert_eq!(rejected, 0, "genuine frames must verify");
    let total = agg.node_total("bench").expect("bench node aggregated");
    assert!(
        total.entries().iter().any(|e| e.name.starts_with("broker.")),
        "node totals must carry the broker family"
    );

    // Both expositions render from the live aggregator.
    let now_ms = system_clock().now_ms();
    let prom = prometheus_text(&agg, now_ms);
    let json_doc = json_export(&agg, now_ms, Duration::from_secs(10));
    assert!(prom.contains("obs_node_health{node=\"bench\""));
    assert!(json_doc.contains("\"node\": \"bench\""));

    let overhead_pct = (off.msgs_per_sec - on.msgs_per_sec) / off.msgs_per_sec * 100.0;
    println!(
        "telemetry overhead: {overhead_pct:.2}%   frames accepted {accepted}   prom {} B   json {} B",
        prom.len(),
        json_doc.len()
    );

    // The acceptance bar: self-published telemetry costs < 2% of the
    // fast-path msgs/sec.
    assert!(
        on.msgs_per_sec >= off.msgs_per_sec * 0.98,
        "telemetry cost {overhead_pct:.2}% of fast-path throughput (budget 2%)"
    );

    let json = format!(
        "{{\n  \"bench\": \"obs_report\",\n  \"mode\": \"{}\",\n  \"threads\": {},\n  \"saturation_msgs_per_config\": {},\n  \"timed_msgs_per_config\": {},\n  \"telemetry_off\": {},\n  \"telemetry_on\": {},\n  \"frames_accepted\": {},\n  \"frames_rejected\": {},\n  \"overhead_pct\": {:.2},\n  \"prometheus_bytes\": {},\n  \"json_bytes\": {}\n}}\n",
        if quick { "quick" } else { "full" },
        threads,
        threads as u64 * per_thread,
        timed,
        json_section(&off),
        json_section(&on),
        accepted,
        rejected,
        overhead_pct,
        prom.len(),
        json_doc.len()
    );
    std::fs::write("BENCH_obs.json", &json).expect("write BENCH_obs.json");
    println!("wrote BENCH_obs.json ({} bytes)", json.len());
}
