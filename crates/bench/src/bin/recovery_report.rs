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
//!   the throughput report driven volatile and durable in the shared
//!   harness's interleaved trials (`nb_bench::loopback`). Publishes
//!   never touch the WAL (only control-plane mutations are
//!   journalled): every durable trial must append exactly zero WAL
//!   records, and the durable median must pass the 5% overhead gate —
//!   asserted here and re-checked by CI against the JSON.
//!
//! Run with `--quick` (CI) for a shorter drive with the same
//! assertions and JSON shape.

use nb_bench::loopback::{
    publisher_threads, run_trials, write_report, Gate, Loopback, IDLE_FILTERS, IDLE_SUBSCRIBERS,
    TRIALS,
};
use nb_broker::persist::BrokerDurableState;
use nb_broker::{Broker, BrokerConfig};
use nb_crypto::Uuid;
use nb_store::{Durable, StoreConfig, TempDir};
use nb_tracing::persist::TrackerDurableState;
use nb_wire::codec::Encode;
use nb_wire::trace::{TraceEvent, TraceKind};
use nb_wire::{Message, Payload, Topic};
use std::time::Instant;

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

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = publisher_threads();
    let (append_n, curve, ckpt_n, per_thread, timed) = if quick {
        (
            100_000u64,
            vec![1_000u64, 10_000, 50_000],
            50_000u64,
            50_000u64,
            20_000u64,
        )
    } else {
        (
            1_000_000,
            vec![1_000, 10_000, 100_000, 500_000],
            500_000,
            500_000,
            200_000,
        )
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

    // Phase 3: steady-state overhead on the throughput fast path. Every
    // idle subscription is a journalled op on the durable broker;
    // publishes must append nothing.
    println!("\n-- steady-state fast-path overhead --");
    let dir = TempDir::new("bench-durable-broker").unwrap();
    let wal_appends = nb_metrics::global().counter("store.wal.appends");
    let (mut durable_trials, mut data_plane_appends) = (0, 0);
    let [volatile, durable] = run_trials(|c| {
        // A fresh subdirectory per durable trial: each is a first boot,
        // not a recovery.
        let data_dir = (c == 1).then(|| {
            durable_trials += 1;
            dir.path().join(format!("trial-{durable_trials}"))
        });
        let mut probe = data_frame("probe", 1);
        let config = BrokerConfig {
            data_dir,
            ..BrokerConfig::default()
        };
        let lb = Loopback::new(
            config,
            true,
            &[topic()],
            |_| {},
            |b| b.ingest_client_frame("probe", &mut probe),
        );
        let before = wal_appends.get();
        let trial = lb.trial(threads, per_thread, timed, |t| {
            let id = format!("pub-{t}");
            let mut frame = data_frame(&id, t as u64 + 10);
            move |b: &Broker, _seq: u64| b.ingest_client_frame(&id, &mut frame)
        });
        data_plane_appends += wal_appends.get() - before;
        // End the trial as a crash, not an orderly teardown: otherwise
        // the dying client workers journal ConsumerGone for every
        // subscriber and the log reopened below shows an empty table.
        // No-op when volatile.
        lb.broker.simulate_crash();
        trial
    });
    volatile.print("volatile");
    durable.print("durable");

    // The durable broker's log must actually hold the control plane:
    // reopen the last trial's store and count what a restart replays.
    let (_, state, rec) = Durable::<BrokerDurableState>::open(
        &dir.path().join(format!("trial-{TRIALS}")),
        "broker",
        StoreConfig::default(),
    )
    .expect("reopen durable broker log");
    let wal_records = rec.snapshot_seq + rec.records_replayed;
    let expected_subs = (IDLE_SUBSCRIBERS * IDLE_FILTERS + 1) as u64;
    println!(
        "durable broker log: {wal_records} journalled ops, {} recovered subscriptions, {data_plane_appends} appended while publishing",
        state.subs.len()
    );

    // Assertions backing the CI smoke run.
    assert_eq!(data_plane_appends, 0, "publishes touched the WAL");
    assert!(
        wal_records >= expected_subs,
        "durable broker journalled {wal_records} ops, expected >= {expected_subs}"
    );
    assert_eq!(
        state.subs.len() as u64,
        expected_subs,
        "recovered subscription table incomplete"
    );
    let gate = Gate::check(5.0, ("volatile", &volatile), ("durable", &durable));

    let curve_json: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{ \"log_records\": {}, \"replayed\": {}, \"recovery_ms\": {:.3}, \"replay_per_sec\": {:.0} }}",
                p.log_records, p.replayed, p.recovery_ms, p.replay_per_sec
            )
        })
        .collect();
    write_report(
        "BENCH_recovery.json",
        "recovery_report",
        quick,
        threads,
        &[
            (
                "wal_append",
                format!(
                    "{{\n    \"records\": {},\n    \"bytes\": {},\n    \"appends_per_sec\": {:.0},\n    \"mb_per_sec\": {:.2}\n  }}",
                    append.records, append.bytes, append.appends_per_sec, append.mb_per_sec
                ),
            ),
            ("recovery_curve", format!("[\n    {}\n  ]", curve_json.join(",\n    "))),
            (
                "checkpointed",
                format!(
                    "{{ \"log_records\": {}, \"replayed\": {}, \"snapshot_seq\": {}, \"recovery_ms\": {:.3} }}",
                    ckpt.log_records, ckpt.replayed, ckpt.snapshot_seq, ckpt.recovery_ms
                ),
            ),
            ("saturation_msgs_per_config", (threads as u64 * per_thread).to_string()),
            ("timed_msgs_per_config", timed.to_string()),
            ("volatile", volatile.json()),
            ("durable", durable.json()),
            ("gate", gate.json()),
            ("wal_appends_while_publishing", data_plane_appends.to_string()),
            ("wal_records", wal_records.to_string()),
        ],
    );
}
