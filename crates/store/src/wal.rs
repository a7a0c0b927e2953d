//! Append-only, CRC-framed binary write-ahead log.
//!
//! ## Record framing
//!
//! ```text
//! ┌──────────────┬──────────────┬─────────────────┐
//! │ len: u32 BE  │ crc: u32 BE  │ payload (len B) │
//! └──────────────┴──────────────┴─────────────────┘
//! ```
//!
//! `crc` is the IEEE CRC32 of the payload alone. `len` is capped at
//! [`MAX_RECORD_LEN`] (the same 16 MiB bound the wire codec enforces on
//! chunks) so a corrupted length prefix cannot trigger an allocation
//! blow-up.
//!
//! ## Opening semantics
//!
//! [`Wal::open`] scans the file front to back and classifies the end of
//! the valid prefix ([`ScanEnd`]):
//!
//! * **Clean** — every byte belongs to a well-formed record.
//! * **Torn tail** — the file ends inside a header or payload. This is
//!   the expected signature of a crash mid-append; the tail is
//!   *truncated* and the bytes counted in [`WalRecovery`].
//! * **Corrupt** — a complete record fails its CRC (or claims an
//!   impossible length). That is *not* a crash signature — it means
//!   bytes changed under us — so the remainder of the file is
//!   *quarantined* to a `<log>.quarantine` sidecar for forensics
//!   before the log is truncated at the last good record.
//!
//! Either way the log is left physically consistent: the next append
//! lands after the last intact record.

use crate::instrument;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Upper bound on a single record's payload (16 MiB), mirroring
/// [`nb_wire::codec::MAX_CHUNK_LEN`].
pub const MAX_RECORD_LEN: usize = 16 * 1024 * 1024;

/// Bytes of framing per record (`len` + `crc`).
pub const RECORD_HEADER_LEN: usize = 8;

/// IEEE CRC32 lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC32 (the ubiquitous zlib/Ethernet polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Frames one payload as a WAL record (`len` + `crc` + payload).
pub fn encode_record(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_RECORD_LEN, "record payload too large");
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(payload).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// How a scan of the log's bytes ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanEnd {
    /// Every byte belonged to a well-formed record.
    Clean,
    /// The file ended mid-record (crash mid-append); the tail should
    /// be truncated.
    TornTail {
        /// Bytes past the last intact record.
        dropped_bytes: u64,
    },
    /// A complete record failed validation; everything from `offset`
    /// on should be quarantined.
    Corrupt {
        /// File offset of the first bad record.
        offset: u64,
        /// Human-readable reason (`"crc mismatch"` / `"length
        /// overflow"`).
        reason: &'static str,
    },
}

/// Result of scanning a log's bytes: the intact record payloads, the
/// length of the valid prefix, and how the scan ended.
#[derive(Debug)]
pub struct Scan<'a> {
    /// Payloads of every intact record, in append order.
    pub records: Vec<&'a [u8]>,
    /// Length of the valid prefix (where the next append belongs).
    pub valid_len: u64,
    /// Why scanning stopped.
    pub end: ScanEnd,
}

/// Scans an in-memory image of a log. Pure — this is the function the
/// property tests drive directly with synthesized corruption.
pub fn scan(buf: &[u8]) -> Scan<'_> {
    let mut records = Vec::new();
    let mut at = 0usize;
    loop {
        let remaining = buf.len() - at;
        if remaining == 0 {
            return Scan {
                records,
                valid_len: at as u64,
                end: ScanEnd::Clean,
            };
        }
        if remaining < RECORD_HEADER_LEN {
            return Scan {
                records,
                valid_len: at as u64,
                end: ScanEnd::TornTail {
                    dropped_bytes: remaining as u64,
                },
            };
        }
        let len = u32::from_be_bytes(buf[at..at + 4].try_into().unwrap()) as usize;
        let crc = u32::from_be_bytes(buf[at + 4..at + 8].try_into().unwrap());
        if len > MAX_RECORD_LEN {
            return Scan {
                records,
                valid_len: at as u64,
                end: ScanEnd::Corrupt {
                    offset: at as u64,
                    reason: "length overflow",
                },
            };
        }
        if remaining - RECORD_HEADER_LEN < len {
            return Scan {
                records,
                valid_len: at as u64,
                end: ScanEnd::TornTail {
                    dropped_bytes: remaining as u64,
                },
            };
        }
        let payload = &buf[at + RECORD_HEADER_LEN..at + RECORD_HEADER_LEN + len];
        if crc32(payload) != crc {
            return Scan {
                records,
                valid_len: at as u64,
                end: ScanEnd::Corrupt {
                    offset: at as u64,
                    reason: "crc mismatch",
                },
            };
        }
        records.push(payload);
        at += RECORD_HEADER_LEN + len;
    }
}

/// What opening a log found and repaired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalRecovery {
    /// Intact records found (and returned for replay).
    pub records: u64,
    /// Torn-tail bytes truncated (crash mid-append).
    pub torn_bytes: u64,
    /// Corrupt bytes moved to the `.quarantine` sidecar.
    pub quarantined_bytes: u64,
}

/// An open write-ahead log, positioned for appending.
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Records currently in the log (intact at open + appended since).
    records: u64,
    /// Whether every append is followed by `fsync`.
    fsync: bool,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, repairs its tail,
    /// and returns the log, the intact record payloads in append
    /// order, and a [`WalRecovery`] describing any repair.
    ///
    /// With `fsync`, every append is flushed through to the device
    /// before returning — durable against power loss at a large
    /// throughput cost. Without it, appends are buffered writes:
    /// durable against *process* crash (the kernel holds the bytes)
    /// but not power failure. See `docs/ARCHITECTURE.md`.
    pub fn open(path: &Path, fsync: bool) -> std::io::Result<(Self, Vec<Vec<u8>>, WalRecovery)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;

        let scanned = scan(&buf);
        let mut recovery = WalRecovery {
            records: scanned.records.len() as u64,
            ..WalRecovery::default()
        };
        match scanned.end {
            ScanEnd::Clean => {}
            ScanEnd::TornTail { dropped_bytes } => {
                recovery.torn_bytes = dropped_bytes;
                instrument::WAL_TORN_BYTES.add(dropped_bytes);
            }
            ScanEnd::Corrupt { offset, .. } => {
                let bad = &buf[offset as usize..];
                recovery.quarantined_bytes = bad.len() as u64;
                instrument::WAL_QUARANTINED_BYTES.add(bad.len() as u64);
                let mut sidecar = path.as_os_str().to_owned();
                sidecar.push(".quarantine");
                std::fs::write(PathBuf::from(sidecar), bad)?;
            }
        }
        if scanned.valid_len != buf.len() as u64 {
            file.set_len(scanned.valid_len)?;
        }
        file.seek(SeekFrom::Start(scanned.valid_len))?;

        let records: Vec<Vec<u8>> = scanned.records.iter().map(|r| r.to_vec()).collect();
        instrument::WAL_REPLAYED.add(recovery.records);
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                records: recovery.records,
                fsync,
            },
            records,
            recovery,
        ))
    }

    /// Appends one record and (under the fsync policy) flushes it.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<()> {
        let frame = encode_record(payload);
        self.file.write_all(&frame)?;
        if self.fsync {
            self.file.sync_data()?;
        }
        self.records += 1;
        instrument::WAL_APPENDS.inc();
        instrument::WAL_BYTES.add(frame.len() as u64);
        Ok(())
    }

    /// Truncates the log to zero records (compaction, after the state
    /// it described has been captured in a snapshot).
    pub fn reset(&mut self) -> std::io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        if self.fsync {
            self.file.sync_data()?;
        }
        self.records = 0;
        Ok(())
    }

    /// Records currently in the log.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// The log's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn append_and_reopen_round_trips() {
        let dir = TempDir::new("wal-roundtrip").unwrap();
        let path = dir.path().join("t.wal");
        {
            let (mut wal, recs, rec) = Wal::open(&path, false).unwrap();
            assert!(recs.is_empty());
            assert_eq!(rec, WalRecovery::default());
            wal.append(b"one").unwrap();
            wal.append(b"").unwrap();
            wal.append(b"three").unwrap();
            assert_eq!(wal.record_count(), 3);
        }
        let (wal, recs, rec) = Wal::open(&path, false).unwrap();
        assert_eq!(recs, vec![b"one".to_vec(), b"".to_vec(), b"three".to_vec()]);
        assert_eq!(rec.records, 3);
        assert_eq!(rec.torn_bytes, 0);
        assert_eq!(wal.record_count(), 3);
    }

    #[test]
    fn torn_tail_is_truncated() {
        let dir = TempDir::new("wal-torn").unwrap();
        let path = dir.path().join("t.wal");
        {
            let (mut wal, _, _) = Wal::open(&path, false).unwrap();
            wal.append(b"kept").unwrap();
        }
        // Simulate a crash mid-append: half a header.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0x00, 0x00, 0x00]);
        std::fs::write(&path, &bytes).unwrap();

        let (mut wal, recs, rec) = Wal::open(&path, false).unwrap();
        assert_eq!(recs, vec![b"kept".to_vec()]);
        assert_eq!(rec.torn_bytes, 3);
        assert_eq!(rec.quarantined_bytes, 0);
        // The log is usable again.
        wal.append(b"after").unwrap();
        drop(wal);
        let (_, recs, rec) = Wal::open(&path, false).unwrap();
        assert_eq!(recs, vec![b"kept".to_vec(), b"after".to_vec()]);
        assert_eq!(rec.torn_bytes, 0);
    }

    #[test]
    fn corruption_is_quarantined() {
        let dir = TempDir::new("wal-corrupt").unwrap();
        let path = dir.path().join("t.wal");
        {
            let (mut wal, _, _) = Wal::open(&path, false).unwrap();
            wal.append(b"good").unwrap();
            wal.append(b"flipped").unwrap();
        }
        // Flip a payload byte of the second record.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let (_, recs, rec) = Wal::open(&path, false).unwrap();
        assert_eq!(recs, vec![b"good".to_vec()]);
        assert_eq!(rec.quarantined_bytes, (RECORD_HEADER_LEN + 7) as u64);
        let sidecar = std::fs::read(path.with_extension("wal.quarantine")).unwrap();
        assert_eq!(sidecar.len(), RECORD_HEADER_LEN + 7);
    }

    #[test]
    fn reset_compacts_to_empty() {
        let dir = TempDir::new("wal-reset").unwrap();
        let path = dir.path().join("t.wal");
        let (mut wal, _, _) = Wal::open(&path, false).unwrap();
        wal.append(b"a").unwrap();
        wal.append(b"b").unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.record_count(), 0);
        wal.append(b"c").unwrap();
        drop(wal);
        let (_, recs, _) = Wal::open(&path, false).unwrap();
        assert_eq!(recs, vec![b"c".to_vec()]);
    }
}
