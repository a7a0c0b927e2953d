//! The typed durability API the node layers use.
//!
//! A state type implements [`DurableState`] — how to apply one journal
//! op, and how to encode/decode a whole-state snapshot in the wire
//! codec — and a [`Durable<T>`] handle gives it write-ahead
//! journalling ([`Durable::record`]), snapshot checkpoints with log
//! compaction ([`Durable::checkpoint`]) and crash recovery
//! ([`Durable::open`] → [`Recovery`]).
//!
//! ## Recovery protocol
//!
//! 1. Load the snapshot if one exists (a malformed one is quarantined
//!    and recovery continues from a blank state).
//! 2. Open the log, truncating a torn tail / quarantining corruption
//!    (see [`crate::wal`]).
//! 3. Replay every surviving log record onto the state, in order.
//!    A record whose payload no longer decodes as an op is counted
//!    and skipped, never silently misapplied.
//!
//! Replay is exactly-once: each surviving op is applied once, in
//! append order. Owners whose ops are *themselves* idempotent (the
//! tracker's sequence-numbered trace events, the TDN's keyed upserts)
//! additionally tolerate the op-duplication that can arise when a
//! crash lands between a state mutation and its journal append.
//!
//! ## Checkpointing
//!
//! The state being snapshotted lives behind the owner's own locks, so
//! checkpointing is **owner-driven**: after recording ops, the owner
//! asks [`Durable::should_checkpoint`] and, while still holding its
//! state lock, calls [`Durable::checkpoint`] with the current state.
//! The snapshot is written atomically first; only then is the log
//! compacted, so there is no instant at which state exists only in
//! memory.

use crate::instrument;
use crate::snapshot;
use crate::wal::Wal;
use crate::{Result, StoreError};
use nb_wire::codec::{Decode, Encode, Reader, Writer};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// State that can be journalled and snapshotted.
pub trait DurableState: Sized + Default {
    /// One journalled mutation.
    type Op: Encode + Decode;

    /// Applies one op (both live, before journalling, and during
    /// replay — the implementation must not care which).
    fn apply(&mut self, op: Self::Op);

    /// Encodes the complete state for a snapshot.
    fn snapshot_encode(&self, w: &mut Writer);

    /// Decodes a complete state from a snapshot payload.
    fn snapshot_decode(r: &mut Reader<'_>) -> nb_wire::Result<Self>;
}

/// When appends reach the physical device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Buffered writes only: durable against process crash (the
    /// kernel holds the bytes) but not power loss. The default — it
    /// keeps journalling off the node's latency path, and the
    /// availability protocol itself re-establishes anything a whole
    /// machine loses (tokens expire, pings resume).
    #[default]
    Buffered,
    /// `fsync` after every append and snapshot: durable against power
    /// loss, at a large throughput cost.
    Always,
}

/// Tuning for a [`Durable`] store.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Checkpoint (snapshot + compact) once this many ops accumulate
    /// in the log. Bounds recovery time by bounding replay length.
    pub checkpoint_every: u64,
    /// Fsync policy for appends and snapshots.
    pub fsync: FsyncPolicy,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            checkpoint_every: 1024,
            fsync: FsyncPolicy::default(),
        }
    }
}

/// What [`Durable::open`] found on disk and how it rebuilt the state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Nothing on disk: this is a first boot, not a restart.
    pub started_fresh: bool,
    /// A snapshot was loaded as the replay base.
    pub snapshot_loaded: bool,
    /// Cumulative op count the loaded snapshot covered.
    pub snapshot_seq: u64,
    /// Log records replayed on top of the base state.
    pub records_replayed: u64,
    /// Log records that no longer decoded as ops (skipped, counted).
    pub ops_decode_failed: u64,
    /// Torn-tail bytes truncated from the log.
    pub torn_bytes: u64,
    /// Corrupt log bytes moved to the `.quarantine` sidecar.
    pub quarantined_bytes: u64,
    /// The snapshot file existed but failed validation and was moved
    /// aside; replay started from a blank state.
    pub snapshot_quarantined: bool,
}

impl Recovery {
    /// Whether recovery had to repair anything (torn tail, corrupt
    /// records, undecodable ops, or a quarantined snapshot).
    pub fn repaired(&self) -> bool {
        self.torn_bytes > 0
            || self.quarantined_bytes > 0
            || self.ops_decode_failed > 0
            || self.snapshot_quarantined
    }
}

/// A durable store for one state value: write-ahead log + snapshots
/// under `<dir>/<name>.wal` / `<dir>/<name>.snap`.
pub struct Durable<T: DurableState> {
    wal: Wal,
    snap_path: PathBuf,
    cfg: StoreConfig,
    /// Cumulative ops covered by the last snapshot.
    snapshot_seq: u64,
    _state: PhantomData<fn() -> T>,
}

impl<T: DurableState> Durable<T> {
    /// Opens (or creates) the store under `dir`, recovering the state
    /// from `snapshot ∘ log`. Returns the handle, the recovered state
    /// and a [`Recovery`] report.
    pub fn open(dir: &Path, name: &str, cfg: StoreConfig) -> Result<(Self, T, Recovery)> {
        std::fs::create_dir_all(dir)?;
        let snap_path = dir.join(format!("{name}.snap"));
        let wal_path = dir.join(format!("{name}.wal"));
        let mut recovery = Recovery::default();

        let mut state = match snapshot::read(&snap_path)? {
            snapshot::ReadOutcome::Missing => T::default(),
            snapshot::ReadOutcome::Quarantined { .. } => {
                recovery.snapshot_quarantined = true;
                instrument::SNAPSHOTS_QUARANTINED.inc();
                T::default()
            }
            snapshot::ReadOutcome::Ok(loaded) => {
                let mut r = Reader::new(&loaded.payload);
                let state = T::snapshot_decode(&mut r).map_err(StoreError::Codec)?;
                r.expect_end("snapshot payload")
                    .map_err(StoreError::Codec)?;
                recovery.snapshot_loaded = true;
                recovery.snapshot_seq = loaded.wal_seq;
                instrument::SNAPSHOTS_LOADED.inc();
                state
            }
        };

        let fsync = matches!(cfg.fsync, FsyncPolicy::Always);
        let (wal, records, wal_recovery) = Wal::open(&wal_path, fsync)?;
        recovery.torn_bytes = wal_recovery.torn_bytes;
        recovery.quarantined_bytes = wal_recovery.quarantined_bytes;
        for payload in &records {
            match T::Op::from_bytes(payload) {
                Ok(op) => {
                    state.apply(op);
                    recovery.records_replayed += 1;
                }
                Err(_) => {
                    recovery.ops_decode_failed += 1;
                    instrument::OPS_DECODE_FAILED.inc();
                }
            }
        }
        recovery.started_fresh = !recovery.snapshot_loaded
            && !recovery.snapshot_quarantined
            && records.is_empty()
            && wal_recovery == crate::wal::WalRecovery::default();
        instrument::RECOVERIES.inc();

        Ok((
            Durable {
                wal,
                snap_path,
                cfg,
                snapshot_seq: recovery.snapshot_seq,
                _state: PhantomData,
            },
            state,
            recovery,
        ))
    }

    /// Journals one op. The owner applies the op to its in-memory
    /// state itself (usually just before this call, under its own
    /// lock).
    pub fn record(&mut self, op: &T::Op) -> Result<()> {
        self.wal.append(&op.to_bytes())?;
        instrument::OPS_RECORDED.inc();
        Ok(())
    }

    /// Whether enough ops have accumulated to warrant a checkpoint.
    pub fn should_checkpoint(&self) -> bool {
        self.wal.record_count() >= self.cfg.checkpoint_every
    }

    /// Snapshots `state` (atomic replace) and compacts the log.
    pub fn checkpoint(&mut self, state: &T) -> Result<()> {
        let mut w = Writer::new();
        state.snapshot_encode(&mut w);
        let seq = self.total_seq();
        let fsync = matches!(self.cfg.fsync, FsyncPolicy::Always);
        snapshot::write(&self.snap_path, seq, &w.into_bytes(), fsync)?;
        instrument::SNAPSHOTS_WRITTEN.inc();
        self.wal.reset()?;
        self.snapshot_seq = seq;
        Ok(())
    }

    /// Checkpoints iff [`Durable::should_checkpoint`]; returns whether
    /// it did.
    pub fn maybe_checkpoint(&mut self, state: &T) -> Result<bool> {
        if self.should_checkpoint() {
            self.checkpoint(state)?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Cumulative op count (snapshot coverage + log records).
    pub fn total_seq(&self) -> u64 {
        self.snapshot_seq + self.wal.record_count()
    }

    /// Ops currently in the log (i.e. since the last checkpoint).
    pub fn wal_records(&self) -> u64 {
        self.wal.record_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    /// Toy state: an append-only list of u64s.
    #[derive(Default, Debug, PartialEq, Eq)]
    struct Nums(Vec<u64>);

    /// One appended number.
    struct PushOp(u64);

    impl Encode for PushOp {
        fn encode(&self, w: &mut Writer) {
            w.put_u64(self.0);
        }
    }
    impl Decode for PushOp {
        fn decode(r: &mut Reader<'_>) -> nb_wire::Result<Self> {
            Ok(PushOp(r.get_u64()?))
        }
    }

    impl DurableState for Nums {
        type Op = PushOp;
        fn apply(&mut self, op: PushOp) {
            self.0.push(op.0);
        }
        fn snapshot_encode(&self, w: &mut Writer) {
            w.put_seq(&self.0, |w, v| w.put_u64(*v));
        }
        fn snapshot_decode(r: &mut Reader<'_>) -> nb_wire::Result<Self> {
            Ok(Nums(r.get_seq(|r| r.get_u64())?))
        }
    }

    fn reopen(dir: &Path) -> (Durable<Nums>, Nums, Recovery) {
        Durable::open(dir, "nums", StoreConfig::default()).unwrap()
    }

    #[test]
    fn fresh_open_then_replay() {
        let dir = TempDir::new("durable").unwrap();
        {
            let (mut d, mut state, rec) = reopen(dir.path());
            assert!(rec.started_fresh);
            for v in [1u64, 2, 3] {
                state.apply(PushOp(v));
                d.record(&PushOp(v)).unwrap();
            }
        }
        let (_, state, rec) = reopen(dir.path());
        assert_eq!(state, Nums(vec![1, 2, 3]));
        assert!(!rec.started_fresh);
        assert_eq!(rec.records_replayed, 3);
        assert!(!rec.snapshot_loaded);
    }

    #[test]
    fn checkpoint_compacts_and_recovers() {
        let dir = TempDir::new("durable").unwrap();
        {
            let (mut d, mut state, _) = reopen(dir.path());
            for v in 0..10u64 {
                state.apply(PushOp(v));
                d.record(&PushOp(v)).unwrap();
            }
            d.checkpoint(&state).unwrap();
            assert_eq!(d.wal_records(), 0);
            assert_eq!(d.total_seq(), 10);
            // Two more after the checkpoint.
            for v in [10u64, 11] {
                state.apply(PushOp(v));
                d.record(&PushOp(v)).unwrap();
            }
        }
        let (d, state, rec) = reopen(dir.path());
        assert_eq!(state.0, (0..12).collect::<Vec<_>>());
        assert!(rec.snapshot_loaded);
        assert_eq!(rec.snapshot_seq, 10);
        assert_eq!(rec.records_replayed, 2);
        assert_eq!(d.total_seq(), 12);
    }

    #[test]
    fn should_checkpoint_threshold() {
        let dir = TempDir::new("durable").unwrap();
        let cfg = StoreConfig {
            checkpoint_every: 3,
            ..StoreConfig::default()
        };
        let (mut d, mut state, _) = Durable::<Nums>::open(dir.path(), "nums", cfg).unwrap();
        for v in 0..3u64 {
            assert!(!d.should_checkpoint());
            state.apply(PushOp(v));
            d.record(&PushOp(v)).unwrap();
        }
        assert!(d.should_checkpoint());
        assert!(d.maybe_checkpoint(&state).unwrap());
        assert!(!d.should_checkpoint());
        assert!(!d.maybe_checkpoint(&state).unwrap());
    }

    #[test]
    fn quarantined_snapshot_restarts_blank() {
        let dir = TempDir::new("durable").unwrap();
        {
            let (mut d, mut state, _) = reopen(dir.path());
            state.apply(PushOp(5));
            d.record(&PushOp(5)).unwrap();
            d.checkpoint(&state).unwrap();
        }
        // Rot the snapshot on disk.
        let snap = dir.path().join("nums.snap");
        let mut bytes = std::fs::read(&snap).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xff;
        std::fs::write(&snap, &bytes).unwrap();

        let (_, state, rec) = reopen(dir.path());
        assert!(rec.snapshot_quarantined);
        assert!(rec.repaired());
        assert_eq!(state, Nums(vec![]));
        assert!(snap.with_extension("snap.quarantine").exists());
    }
}
