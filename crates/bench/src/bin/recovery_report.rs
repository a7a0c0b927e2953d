//! **Recovery report** — measures the durability subsystem and writes
//! `BENCH_recovery.json` (see `docs/PERFORMANCE.md`).
//!
//! Three measurements:
//!
//! * **WAL append throughput** — raw [`Durable::record`] rate over the
//!   tracker's availability ledger (trace events, buffered fsync
//!   policy): appends/sec and MB/sec;
//! * **recovery time vs log length** — logs of increasing length are
//!   written, closed, and reopened with the open timed: the replay
//!   cost a crashed node pays at restart, plus the same store after a
//!   checkpoint to show compaction collapsing the curve;
//! * **steady-state fast-path overhead** — the loopback broker from
//!   the throughput report driven volatile and durable back to back.
//!   Publishes never touch the WAL (only control-plane mutations are
//!   journalled), so durability must cost < 5% of data-plane
//!   throughput — asserted here and re-checked by CI against the JSON.
//!
//! Run with `--quick` (CI) for a shorter drive with the same
//! assertions and JSON shape.

use nb_broker::persist::BrokerDurableState;
use nb_broker::{Broker, BrokerConfig};
use nb_crypto::Uuid;
use nb_store::{Durable, StoreConfig, TempDir};
use nb_tracing::persist::TrackerDurableState;
use nb_transport::clock::system_clock;
use nb_transport::endpoint::{Endpoint, FrameSender};
use nb_wire::codec::Encode;
use nb_wire::trace::{TraceEvent, TraceKind};
use nb_wire::{Message, Payload, Topic};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Store tuning for the append/recovery phases: auto-checkpointing off
/// so the measured log length is exactly what the phase wrote.
fn no_checkpoint() -> StoreConfig {
    StoreConfig {
        checkpoint_every: u64::MAX,
        ..StoreConfig::default()
    }
}

fn event(seq: u64) -> TraceEvent {
    TraceEvent {
        entity_id: "bench-entity".to_string(),
        trace_topic: Uuid::nil(),
        seq,
        timestamp_ms: 1_700_000_000_000 + seq,
        kind: TraceKind::AllsWell,
    }
}

struct AppendStats {
    records: u64,
    bytes: u64,
    appends_per_sec: f64,
    mb_per_sec: f64,
}

/// Raw append rate: `records` trace events through [`Durable::record`].
fn wal_append(records: u64) -> AppendStats {
    let dir = TempDir::new("bench-wal-append").unwrap();
    let (mut durable, _, _) =
        Durable::<TrackerDurableState>::open(dir.path(), "append", no_checkpoint()).unwrap();
    let op_bytes = event(0).to_bytes().len() as u64;
    let t0 = Instant::now();
    for seq in 0..records {
        durable.record(&event(seq)).expect("append");
    }
    let secs = t0.elapsed().as_secs_f64();
    AppendStats {
        records,
        bytes: op_bytes * records,
        appends_per_sec: records as f64 / secs,
        mb_per_sec: (op_bytes * records) as f64 / secs / 1e6,
    }
}

struct RecoveryPoint {
    log_records: u64,
    replayed: u64,
    recovery_ms: f64,
    replay_per_sec: f64,
}

/// Writes a log of `len` events, drops the store, and times the
/// reopen — the restart cost at that log length.
fn recovery_at(len: u64) -> RecoveryPoint {
    let dir = TempDir::new("bench-recovery").unwrap();
    let (mut durable, _, _) =
        Durable::<TrackerDurableState>::open(dir.path(), "curve", no_checkpoint()).unwrap();
    for seq in 0..len {
        durable.record(&event(seq)).expect("append");
    }
    drop(durable);

    let t0 = Instant::now();
    let (_, _, rec) =
        Durable::<TrackerDurableState>::open(dir.path(), "curve", no_checkpoint()).unwrap();
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(rec.records_replayed, len, "replay must cover the whole log");
    assert!(!rec.repaired(), "clean log must not need repair");
    RecoveryPoint {
        log_records: len,
        replayed: rec.records_replayed,
        recovery_ms: secs * 1e3,
        replay_per_sec: len as f64 / secs,
    }
}

struct CheckpointPoint {
    log_records: u64,
    replayed: u64,
    snapshot_seq: u64,
    recovery_ms: f64,
}

/// The same log length, but checkpointed before the kill: compaction
/// replaces replay with one snapshot load.
fn recovery_checkpointed(len: u64) -> CheckpointPoint {
    let dir = TempDir::new("bench-recovery-ckpt").unwrap();
    let (mut durable, state, _) =
        Durable::<TrackerDurableState>::open(dir.path(), "ckpt", no_checkpoint()).unwrap();
    for seq in 0..len {
        let ev = event(seq);
        state.view.apply(&ev);
        durable.record(&ev).expect("append");
    }
    durable.checkpoint(&state).expect("checkpoint");
    drop(durable);

    let t0 = Instant::now();
    let (_, _, rec) =
        Durable::<TrackerDurableState>::open(dir.path(), "ckpt", no_checkpoint()).unwrap();
    let secs = t0.elapsed().as_secs_f64();
    assert!(rec.snapshot_loaded, "checkpoint must leave a snapshot");
    assert_eq!(rec.records_replayed, 0, "compaction must empty the log");
    CheckpointPoint {
        log_records: len,
        replayed: rec.records_replayed,
        snapshot_seq: rec.snapshot_seq,
        recovery_ms: secs * 1e3,
    }
}

// ---------------------------------------------------------------------
// Steady-state fast-path overhead: the throughput report's loopback
// broker, volatile vs durable.
// ---------------------------------------------------------------------

/// Broker-side sender for a subscriber endpoint: swallows frames after
/// counting them, so the bench measures routing, not a consumer.
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
    Topic::parse("/Bench/Recovery/Loopback").unwrap()
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

/// Idle subscribers populating the broker, as in the throughput
/// report: a realistic data plane is never matching one filter. Every
/// idle subscription is also a journalled op in the durable run.
const IDLE_SUBSCRIBERS: usize = 64;
const IDLE_FILTERS: usize = 4;

/// Attaches one sink-backed client and registers its filters, waiting
/// for every control ack. The uplink must be held — dropping it reads
/// as a link failure and detaches the client.
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
    let expected = 1 + filters.len() as u64;
    let deadline = Instant::now() + Duration::from_secs(10);
    while sink.delivered.load(Ordering::Relaxed) < expected {
        assert!(Instant::now() < deadline, "client {id} never finished its handshake");
        std::thread::sleep(Duration::from_millis(1));
    }
    (sink, frames_tx)
}

struct SteadyRun {
    msgs_per_sec: f64,
    delivered: u64,
}

/// Saturates one broker configuration's fast path. `data_dir = Some`
/// journals every control-plane mutation; publishes are identical in
/// both modes.
fn run_fast_path(data_dir: Option<PathBuf>, threads: usize, per_thread: u64) -> SteadyRun {
    let cfg = BrokerConfig {
        advert_refresh: None,
        data_dir: data_dir.clone(),
        ..BrokerConfig::default()
    };
    let broker = Broker::new(
        if data_dir.is_some() { "durable" } else { "volatile" },
        system_clock(),
        cfg,
    );

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

    // Probe-publish until the hot subscription is routable.
    let acks = sink.delivered.load(Ordering::Relaxed);
    let mut probe = data_frame("probe", 1);
    let deadline = Instant::now() + Duration::from_secs(10);
    while sink.delivered.load(Ordering::Relaxed) <= acks {
        assert!(Instant::now() < deadline, "subscription never became routable");
        broker.ingest_client_frame("probe", &mut probe);
        std::thread::sleep(Duration::from_millis(2));
    }
    let delivered_start = sink.delivered.load(Ordering::Relaxed);

    let broker = Arc::new(broker);
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
    let delivered = sink.delivered.load(Ordering::Relaxed) - delivered_start;
    assert_eq!(delivered, msgs, "lost or duplicated deliveries");
    // End the run as a crash, not an orderly teardown: otherwise the
    // dying client workers journal ConsumerGone for every subscriber
    // and the log reopened below shows an empty table. No-op when
    // volatile.
    broker.simulate_crash();
    SteadyRun {
        msgs_per_sec: msgs as f64 / elapsed.as_secs_f64(),
        delivered,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4);
    let (append_n, curve, ckpt_n, per_thread) = if quick {
        (100_000u64, vec![1_000u64, 10_000, 50_000], 50_000u64, 50_000u64)
    } else {
        (1_000_000, vec![1_000, 10_000, 100_000, 500_000], 500_000, 500_000)
    };
    println!(
        "== recovery report: WAL + restart + fast-path overhead ({}) ==",
        if quick { "quick" } else { "full" }
    );

    // Phase 1: raw append throughput.
    let append = wal_append(append_n);
    println!(
        "wal append: {:>12.0} appends/sec   {:>8.1} MB/sec   ({} records, {} payload bytes)",
        append.appends_per_sec, append.mb_per_sec, append.records, append.bytes
    );

    // Phase 2: recovery time vs log length, then the checkpointed
    // store showing compaction collapsing the curve.
    println!("\n-- recovery time vs log length --");
    let points: Vec<RecoveryPoint> = curve.iter().map(|&len| recovery_at(len)).collect();
    for p in &points {
        println!(
            "{:>8} records: {:>9.2} ms   ({:>11.0} replays/sec)",
            p.log_records, p.recovery_ms, p.replay_per_sec
        );
    }
    let ckpt = recovery_checkpointed(ckpt_n);
    println!(
        "{:>8} records checkpointed: {:>7.2} ms   (snapshot seq {}, {} replayed)",
        ckpt.log_records, ckpt.recovery_ms, ckpt.snapshot_seq, ckpt.replayed
    );

    // Phase 3: steady-state overhead on the throughput fast path.
    // Best of two rounds per mode damps scheduler noise; the claim
    // under test is architectural (publishes never touch the WAL), not
    // a micro-optimisation.
    println!("\n-- steady-state fast-path overhead --");
    let volatile = (0..2)
        .map(|_| run_fast_path(None, threads, per_thread))
        .max_by(|a, b| a.msgs_per_sec.total_cmp(&b.msgs_per_sec))
        .unwrap();
    let dir = TempDir::new("bench-durable-broker").unwrap();
    let durable = (0..2)
        .map(|i| {
            // A fresh subdirectory per round: each round is a fresh
            // first boot, not a recovery.
            run_fast_path(Some(dir.path().join(format!("round-{i}"))), threads, per_thread)
        })
        .max_by(|a, b| a.msgs_per_sec.total_cmp(&b.msgs_per_sec))
        .unwrap();
    let overhead_pct = (1.0 - durable.msgs_per_sec / volatile.msgs_per_sec) * 100.0;
    println!(
        "volatile: {:>12.0} msgs/sec\ndurable : {:>12.0} msgs/sec   overhead {overhead_pct:.2}%",
        volatile.msgs_per_sec, durable.msgs_per_sec
    );

    // The durable broker's log must actually hold the control plane:
    // reopen the last round's store and count what a restart replays.
    let (_, state, rec) = Durable::<BrokerDurableState>::open(
        &dir.path().join("round-1"),
        "broker",
        StoreConfig::default(),
    )
    .expect("reopen durable broker log");
    let wal_records = rec.snapshot_seq + rec.records_replayed;
    let expected_subs = (IDLE_SUBSCRIBERS * IDLE_FILTERS + 1) as u64;
    println!(
        "durable broker log: {wal_records} journalled ops, {} recovered subscriptions",
        state.subs.len()
    );

    // Assertions backing the CI smoke run.
    assert!(
        overhead_pct < 5.0,
        "durability costs {overhead_pct:.2}% of fast-path throughput (budget 5%)"
    );
    assert!(
        wal_records >= expected_subs,
        "durable broker journalled {wal_records} ops, expected >= {expected_subs}"
    );
    assert_eq!(
        state.subs.len() as u64,
        expected_subs,
        "recovered subscription table incomplete"
    );

    let curve_json: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{ \"log_records\": {}, \"replayed\": {}, \"recovery_ms\": {:.3}, \"replay_per_sec\": {:.0} }}",
                p.log_records, p.replayed, p.recovery_ms, p.replay_per_sec
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"recovery_report\",\n  \"mode\": \"{}\",\n  \"threads\": {},\n  \"wal_append\": {{\n    \"records\": {},\n    \"bytes\": {},\n    \"appends_per_sec\": {:.0},\n    \"mb_per_sec\": {:.2}\n  }},\n  \"recovery_curve\": [\n    {}\n  ],\n  \"checkpointed\": {{ \"log_records\": {}, \"replayed\": {}, \"snapshot_seq\": {}, \"recovery_ms\": {:.3} }},\n  \"steady_state\": {{\n    \"volatile_msgs_per_sec\": {:.0},\n    \"durable_msgs_per_sec\": {:.0},\n    \"overhead_pct\": {:.2},\n    \"delivered_per_mode\": {},\n    \"wal_records\": {}\n  }}\n}}\n",
        if quick { "quick" } else { "full" },
        threads,
        append.records,
        append.bytes,
        append.appends_per_sec,
        append.mb_per_sec,
        curve_json.join(",\n    "),
        ckpt.log_records,
        ckpt.replayed,
        ckpt.snapshot_seq,
        ckpt.recovery_ms,
        volatile.msgs_per_sec,
        durable.msgs_per_sec,
        overhead_pct,
        durable.delivered,
        wal_records
    );
    std::fs::write("BENCH_recovery.json", &json).expect("write BENCH_recovery.json");
    println!("\nwrote BENCH_recovery.json ({} bytes)", json.len());
}
