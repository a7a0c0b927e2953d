//! Scoped data directories with drop-cleanup.
//!
//! A shared test helper (usable from any crate in the workspace): each
//! [`TempDir`] is a freshly created directory under the OS temp root,
//! removed — recursively — when the value drops. Recovery and chaos
//! tests use these for their `*.wal` / `*.snap` files so test data
//! never lands in the repository tree (the `.gitignore` patterns are a
//! second line of defense).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide uniquifier so concurrent tests never collide.
static NEXT: AtomicU64 = AtomicU64::new(0);

/// A temporary directory that removes itself (and its contents) on
/// drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates a fresh directory under the OS temp root named
    /// `<prefix>-<pid>-<n>`.
    pub fn new(prefix: &str) -> std::io::Result<Self> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("nb-{}-{}-{}", prefix, std::process::id(), n));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Consumes the guard *without* deleting the directory (for
    /// debugging a failing test's on-disk state).
    pub fn keep(mut self) -> PathBuf {
        std::mem::take(&mut self.path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if !self.path.as_os_str().is_empty() {
            // Best-effort: a cleanup failure must not panic a test's
            // unwind path.
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_and_removes() {
        let kept;
        {
            let dir = TempDir::new("unit").unwrap();
            kept = dir.path().to_path_buf();
            std::fs::write(dir.path().join("f.wal"), b"x").unwrap();
            assert!(kept.is_dir());
        }
        assert!(!kept.exists());
    }

    #[test]
    fn distinct_per_call() {
        let a = TempDir::new("unit").unwrap();
        let b = TempDir::new("unit").unwrap();
        assert_ne!(a.path(), b.path());
    }

    #[test]
    fn keep_disarms_cleanup() {
        let dir = TempDir::new("unit").unwrap();
        let path = dir.keep();
        assert!(path.is_dir());
        std::fs::remove_dir_all(&path).unwrap();
    }
}
