//! # `ld-store` — crash-safe durable state for the live engine
//!
//! The rest of the workspace keeps all state in RAM. This crate makes
//! the delegation stream itself durable, production-log style:
//!
//! * [`wal`] — an append-only write-ahead log of
//!   [`Update`](ld_live::Update) events: length-prefixed,
//!   CRC32-framed records ([`ld_live::codec`] payloads), immediate
//!   writes with batched fsync, and typed torn-tail detection that
//!   truncates at the last whole record after a crash.
//! * [`snapshot`] — periodic compaction into a binary image of the
//!   engine's resolved state (actions, competencies, depths, and the
//!   `ld-core` CSR arena verbatim) that reads back into
//!   [`LiveEngine`](ld_live::LiveEngine) /
//!   [`CsrForest`](ld_core::csr::CsrForest) through validated flat
//!   passes — no JSON, no resolver rerun.
//! * [`store`] — the two composed: `snapshot-<k>.bin` + WAL tail,
//!   with [`recover`] producing an engine bit-identical to one that
//!   never crashed, and [`Store::resume`] reopening for appends.
//! * [`fault`] — deterministic crash-point injection
//!   ([`FaultPlan`]: fail / short-write / corrupt at the k-th I/O,
//!   seedable from the workspace stream-RNG machinery), which is how
//!   the crash matrix in `tests/crash_recovery.rs` and the
//!   `wal-crash-oracle` conformance check stay exhaustive and
//!   reproducible instead of flaky.
//! * [`crc`] — a hand-rolled IEEE CRC32 (the workspace depends on no
//!   external crate).
//!
//! Every read is plain `std` file I/O: a snapshot is read whole (its
//! CRC covers every byte anyway), and the WAL is read from the
//! snapshot's tail offset on, so recovery costs O(tail), not O(log).
//!
//! Driven from the CLI as `repro recover` / `repro store-bench`, and
//! by `repro stress --wal <dir>` which tees the churn workload's
//! accepted updates through a store so a `kill -9` mid-run is a
//! recoverable event, not a lost one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod fault;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use fault::{FaultClock, FaultKind, FaultPlan};
pub use snapshot::Snapshot;
pub use store::{
    recover, recover_capped, recover_with, RecoverMode, Recovery, Store, StoreOptions, WAL_FILE,
};
pub use wal::{TailStatus, TornReason, TornTail, WalScan};

use std::io;
use std::path::{Path, PathBuf};

/// Errors from the durable-state layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// A filesystem operation failed (possibly an injected fault).
    Io {
        /// What was being attempted.
        op: &'static str,
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A file exists but fails structural validation (bad magic or
    /// version, geometry mismatch, CRC failure, rejected rehydration).
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What was wrong.
        reason: String,
    },
    /// No snapshot in the directory validates; recovery has no base.
    NoSnapshot {
        /// The store directory.
        dir: PathBuf,
    },
    /// A logged record was rejected on replay — the log and directory
    /// do not belong together.
    Replay {
        /// Zero-based record index in the WAL.
        record: u64,
        /// The engine's rejection reason.
        reason: String,
    },
}

impl StoreError {
    /// Adapter: `map_err(StoreError::io("append wal", &path))`.
    pub(crate) fn io<'a>(
        op: &'static str,
        path: &'a Path,
    ) -> impl Fn(io::Error) -> StoreError + 'a {
        move |source| StoreError::Io {
            op,
            path: path.to_path_buf(),
            source,
        }
    }

    /// Whether this error came from an injected fault (used by crash
    /// tests to tell planned crashes from real bugs).
    pub fn is_injected(&self) -> bool {
        matches!(self, StoreError::Io { source, .. }
            if source.to_string().contains("injected fault"))
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, path, source } => {
                write!(f, "{op} ({}): {source}", path.display())
            }
            StoreError::Corrupt { path, reason } => {
                write!(f, "corrupt store file {}: {reason}", path.display())
            }
            StoreError::NoSnapshot { dir } => {
                write!(f, "no valid snapshot in {}", dir.display())
            }
            StoreError::Replay { record, reason } => {
                write!(f, "record {record} rejected on replay: {reason}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Fsyncs the parent directory of `path`, making a rename or create
/// durable. A no-op on platforms where directories cannot be opened.
pub(crate) fn fsync_parent_dir(path: &Path) -> io::Result<()> {
    let Some(parent) = path.parent() else {
        return Ok(());
    };
    let parent = if parent.as_os_str().is_empty() {
        Path::new(".")
    } else {
        parent
    };
    match std::fs::File::open(parent) {
        Ok(d) => d.sync_all(),
        // Opening a directory read-only can fail on exotic platforms;
        // the data-file fsync already happened, so degrade gracefully.
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_chain() {
        let e = StoreError::io("probe", Path::new("/nope/x"))(io::Error::other("boom"));
        assert!(e.to_string().contains("probe"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(!e.is_injected());
        let e = StoreError::io("probe", Path::new("x"))(io::Error::other("injected fault: fail"));
        assert!(e.is_injected());
        let e = StoreError::NoSnapshot {
            dir: PathBuf::from("/tmp/d"),
        };
        assert!(e.to_string().contains("snapshot"));
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_good<E: std::error::Error + Send + Sync + 'static>() {}
        assert_good::<StoreError>();
    }
}
