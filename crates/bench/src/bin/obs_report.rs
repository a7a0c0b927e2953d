//! **Telemetry overhead report** — measures what the cluster
//! telemetry plane costs the broker fast path and writes
//! `BENCH_obs.json` (see `docs/OBSERVABILITY.md`).
//!
//! Two configurations of the same loopback broker are driven with the
//! route cache on, in the shared harness's interleaved trials
//! (`nb_bench::loopback`):
//!
//! * **telemetry_off** — no publisher attached and no plane thread:
//!   the bare fast-path baseline;
//! * **telemetry_on** — the broker's own `TelemetryPublisher` pumping
//!   signed frames every 100 ms onto the constrained Obs topic, with a
//!   fresh `ClusterAggregator` subscribed on the same broker ingesting
//!   them live.
//!
//! The acceptance bar — asserted inside the binary so the CI smoke run
//! fails loudly — is the 2% overhead gate on the telemetry-on median.
//! The report also proves the plane worked in every telemetry-on
//! trial: frames were accepted, none rejected or dropped as
//! duplicates, the per-node totals carry the broker families, and both
//! expositions render. Run with `--quick` (CI) for a shorter drive
//! with the same assertions and JSON shape.

use crossbeam::channel::Receiver;
use nb_bench::loopback::{publisher_threads, run_trials, write_report, Gate, Loopback};
use nb_broker::{Broker, BrokerConfig};
use nb_crypto::cert::{CertificateAuthority, Credential, Validity};
use nb_obs::{
    json_export, prometheus_text, telemetry_topic, ClusterAggregator, PublisherConfig,
    TelemetryPublisher,
};
use nb_transport::clock::system_clock;
use nb_wire::codec::Encode;
use nb_wire::{Message, Payload, Topic};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// The hot data topic (unrelated to the Obs family).
fn bench_topic() -> Topic {
    Topic::parse("/Bench/Obs/Loopback").unwrap()
}

/// The `Obs` credential the publisher signs frames with.
fn obs_credential() -> Credential {
    let mut rng = StdRng::seed_from_u64(0x0b5);
    let validity = Validity::starting_now(0, u64::MAX / 2);
    let mut ca = CertificateAuthority::new("bench-ca", 512, validity, &mut rng).expect("bench CA");
    ca.issue("Obs", validity, &mut rng).expect("obs cred")
}

/// Pre-encodes one data frame for the bench topic.
fn data_frame(sender: &str) -> Vec<u8> {
    Message::new(
        10,
        bench_topic(),
        sender,
        0,
        Payload::Ping {
            seq: 1,
            sent_at_ms: 0,
        },
    )
    .to_bytes()
}

/// The plane's pump thread: every 5 ms until `stop` is set, ticks
/// the broker's own publisher and has `agg` ingest what it published.
fn pump(
    rx: Receiver<Message>,
    publisher: TelemetryPublisher,
    agg: &ClusterAggregator,
    stop: &AtomicBool,
) {
    let drain = || {
        while let Ok(msg) = rx.try_recv() {
            agg.ingest(&msg);
        }
    };
    while !stop.load(Ordering::Relaxed) {
        publisher.tick();
        drain();
        std::thread::sleep(Duration::from_millis(5));
    }
    // Flush a final frame so short quick runs still aggregate.
    publisher.publish_now();
    drain();
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = publisher_threads();
    let (per_thread, timed) = if quick {
        (50_000, 20_000)
    } else {
        (500_000, 200_000)
    };
    println!(
        "== obs report: loopback broker, {threads} publishers x {per_thread} msgs ({}) ==",
        if quick { "quick" } else { "full" }
    );

    let credential = obs_credential();
    let config = BrokerConfig {
        require_tokens: false,
        telemetry: nb_telemetry::TelemetryConfig {
            enabled: false,
            ..Default::default()
        },
        ..BrokerConfig::default()
    };

    // One aggregator per telemetry-on trial: every trial's broker is a
    // new node "bench" whose publisher counts from seq 0 again, so a
    // shared aggregator would drop later trials' frames as duplicates.
    let mut planes: Vec<ClusterAggregator> = Vec::new();
    let [off, on] = run_trials(|c| {
        let mut probe = data_frame("pub-0");
        let lb = Loopback::new(
            config.clone(),
            false,
            &[bench_topic()],
            |_| {},
            |b| b.ingest_client_frame("pub-0", &mut probe),
        );
        let publish = |t: usize| {
            let id = format!("pub-{t}");
            let mut frame = data_frame(&id);
            move |b: &Broker, seq: u64| {
                // Message id sits after the version byte (offset
                // 1..9, big-endian) — patch it in place.
                frame[1..9].copy_from_slice(&(t as u64 * per_thread + seq).to_be_bytes());
                b.ingest_client_frame(&id, &mut frame);
            }
        };
        if c == 0 {
            return lb.trial(threads, per_thread, timed, publish);
        }
        let agg = ClusterAggregator::new();
        agg.require_signatures(credential.certificate.public_key.clone());
        let rx = lb.broker.register_internal("obs-agg");
        lb.broker
            .subscribe_internal("obs-agg", telemetry_topic())
            .expect("subscribe obs");
        let publisher = lb
            .broker
            .telemetry_publisher(PublisherConfig {
                interval_ms: 100,
                full_every: 8,
            })
            .signed(credential.clone());
        let stop = AtomicBool::new(false);
        let trial = std::thread::scope(|s| {
            s.spawn(|| pump(rx, publisher, &agg, &stop));
            // Telemetry frames go to the internal subscriber, not the
            // sink, so the data-plane delivery count stays exact.
            let trial = lb.trial(threads, per_thread, timed, publish);
            stop.store(true, Ordering::Relaxed);
            trial
        });
        planes.push(agg);
        trial
    });
    off.print("telemetry off");
    on.print("telemetry on");

    // The plane must actually have run in every trial: signed frames
    // accepted, none rejected or dropped as duplicates, and the node
    // totals carry the broker families.
    let count =
        |agg: &ClusterAggregator, name: &str| agg.metrics_snapshot().counter(name).unwrap_or(0);
    let accepted: Vec<u64> = planes
        .iter()
        .map(|a| count(a, "obs.frames.accepted"))
        .collect();
    let rejected: u64 = planes.iter().map(|a| count(a, "obs.frames.rejected")).sum();
    let duplicate: u64 = planes
        .iter()
        .map(|a| count(a, "obs.frames.duplicate"))
        .sum();
    assert!(
        accepted.iter().all(|&n| n > 0),
        "a trial aggregated no frames: {accepted:?}"
    );
    assert_eq!(rejected, 0, "genuine frames must verify");
    assert_eq!(duplicate, 0, "a trial's frames were dropped as duplicates");
    for agg in &planes {
        let total = agg.node_total("bench").expect("bench node aggregated");
        assert!(
            total
                .entries()
                .iter()
                .any(|e| e.name.starts_with("broker.")),
            "node totals must carry the broker family"
        );
    }

    // Both expositions render from the last trial's aggregator.
    let agg = planes.last().expect("telemetry-on trials ran");
    let now_ms = system_clock().now_ms();
    let prom = prometheus_text(agg, now_ms);
    let json_doc = json_export(agg, now_ms, Duration::from_secs(10));
    assert!(prom.contains("obs_node_health{node=\"bench\""));
    assert!(json_doc.contains("\"node\": \"bench\""));
    println!(
        "frames accepted {accepted:?}   prom {} B   json {} B",
        prom.len(),
        json_doc.len()
    );

    // The acceptance bar: self-published telemetry costs < 2% of the
    // fast-path msgs/sec.
    let gate = Gate::check(2.0, ("telemetry_off", &off), ("telemetry_on", &on));

    write_report(
        "BENCH_obs.json",
        "obs_report",
        quick,
        threads,
        &[
            (
                "saturation_msgs_per_config",
                (threads as u64 * per_thread).to_string(),
            ),
            ("timed_msgs_per_config", timed.to_string()),
            ("telemetry_off", off.json()),
            ("telemetry_on", on.json()),
            ("frames_accepted", format!("{accepted:?}")),
            ("frames_rejected", rejected.to_string()),
            ("frames_duplicate", duplicate.to_string()),
            ("gate", gate.json()),
            ("prometheus_bytes", prom.len().to_string()),
            ("json_bytes", json_doc.len().to_string()),
        ],
    );
}
