//! # nb-store — write-ahead log + snapshot durability
//!
//! The paper's brokers, trackers and Topic Discovery Nodes hold all of
//! their state in memory; this crate is the persistence subsystem that
//! lets a node crash and restart without losing it. It is deliberately
//! zero-dependency (files + the workspace's own [`nb_wire`] codec) and
//! built from three layers:
//!
//! * [`wal`] — an append-only binary **write-ahead log**. Each record
//!   is length-prefixed and CRC32-framed; opening a log scans it,
//!   truncates a torn tail (the normal signature of a crash mid-write)
//!   and quarantines any corrupt remainder to a sidecar file rather
//!   than silently dropping bytes.
//! * [`snapshot`] — a point-in-time **snapshot store**. Snapshots are
//!   written to a temp file and atomically renamed into place, after
//!   which the log is compacted (truncated to zero): recovery cost is
//!   bounded by the checkpoint interval, not by process uptime.
//! * [`durable`] — the typed [`Durable<T>`](durable::Durable) /
//!   [`Recovery`] API the node layers use: a state
//!   type implements [`DurableState`] (apply an
//!   op, encode/decode a snapshot) and gets journalling, checkpointing
//!   and crash recovery for free.
//!
//! Recovery replays `snapshot ∘ log` and reports exactly what it did
//! ([`durable::Recovery`]): records replayed, torn bytes truncated,
//! corrupt bytes quarantined. Replay is **exactly-once** from the
//! store's point of view — every op in the log is applied once, in
//! order; node layers pair this with their own idempotent op semantics
//! (e.g. the tracker's sequence-numbered trace events).
//!
//! Everything is instrumented on the process-global metrics registry
//! under the `store.*` family (catalogued in `docs/OBSERVABILITY.md`).
//!
//! The [`tempdir`] module is a shared test helper: scoped data
//! directories with drop-cleanup, so recovery/chaos tests never leave
//! `*.wal` / `*.snap` files in the tree.

pub mod durable;
mod instrument;
pub mod snapshot;
pub mod tempdir;
pub mod wal;

pub use durable::{Durable, DurableState, FsyncPolicy, Recovery, StoreConfig};
pub use tempdir::TempDir;
pub use wal::{crc32, ScanEnd, Wal, WalRecovery};

use std::fmt;

/// Errors from the durability layer.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A snapshot or log payload failed to decode.
    Codec(nb_wire::WireError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Codec(e) => write!(f, "store codec error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<nb_wire::WireError> for StoreError {
    fn from(e: nb_wire::WireError) -> Self {
        StoreError::Codec(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, StoreError>;
