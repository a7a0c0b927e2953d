//! **Throughput report** — saturates a loopback broker's data plane
//! and writes `BENCH_throughput.json` (see `docs/PERFORMANCE.md`).
//!
//! The broker's routing pipeline (zero-copy view, sharded route cache,
//! original bytes fanned out) gets a multi-threaded saturation phase
//! (the msgs/sec headline) and a single-threaded timed phase
//! (per-message route latency percentiles), over the shared harness's
//! interleaved trials (`nb_bench::loopback`). Delivery counts are
//! asserted exact — a throughput number that loses messages is not a
//! throughput number — and every data frame must be routed without an
//! owned decode (`broker.route.fastpath`).
//!
//! Run with `--quick` (CI) for a shorter drive with the same
//! assertions and JSON shape.

use nb_bench::loopback::{publisher_threads, run_trials, write_report, Loopback};
use nb_broker::{Broker, BrokerConfig};
use nb_wire::codec::Encode;
use nb_wire::{Message, Payload, Topic};

/// The broker's own `broker.route.*` counters, summed over the trials.
const ROUTE_COUNTERS: [&str; 4] = [
    "broker.route.fastpath",
    "broker.route.slowpath",
    "broker.route.cache_hit",
    "broker.route.cache_stale",
];

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

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = publisher_threads();
    let (per_thread, timed) = if quick {
        (50_000, 20_000)
    } else {
        (500_000, 200_000)
    };
    println!(
        "== throughput report: loopback broker, {threads} publishers x {per_thread} msgs ({}) ==",
        if quick { "quick" } else { "full" }
    );

    let mut counters = [0u64; 4];
    let [pipeline] = run_trials(|_| {
        let mut probe = data_frame("probe", 1);
        let lb = Loopback::new(
            BrokerConfig::default(),
            true,
            &[topic()],
            |_| {},
            |b| b.ingest_client_frame("probe", &mut probe),
        );
        let trial = lb.trial(threads, per_thread, timed, |t| {
            let id = format!("pub-{t}");
            let mut frame = data_frame(&id, t as u64 + 10);
            move |b: &Broker, _seq: u64| b.ingest_client_frame(&id, &mut frame)
        });
        let snap = lb.broker.metrics_snapshot();
        for (total, name) in counters.iter_mut().zip(ROUTE_COUNTERS) {
            *total += snap.counter(name).unwrap_or(0);
        }
        trial
    });
    pipeline.print("pipeline");
    let [fastpath, slowpath, cache_hits, cache_stale] = counters;
    println!(
        "{fastpath} of {} frames routed without a decode",
        fastpath + slowpath
    );

    // Shape checks backing the CI smoke run.
    assert!(
        fastpath >= pipeline.sent(),
        "a data frame needed an owned decode"
    );
    assert!(cache_hits > 0, "route cache never hit");

    write_report(
        "BENCH_throughput.json",
        "throughput_report",
        quick,
        threads,
        &[
            ("saturation_msgs", (threads as u64 * per_thread).to_string()),
            ("timed_msgs", timed.to_string()),
            ("pipeline", pipeline.json()),
            ("fastpath", fastpath.to_string()),
            ("slowpath", slowpath.to_string()),
            ("cache_hits", cache_hits.to_string()),
            ("cache_stale", cache_stale.to_string()),
        ],
    );
}
