//! Deterministic crash-point fault injection.
//!
//! Every durable write the store performs — WAL record writes, fsyncs,
//! snapshot section writes — goes through a [`FaultFile`], which counts
//! I/O operations on a store-wide [`FaultClock`] and injects exactly
//! one planned fault when the counter reaches the plan's trigger:
//!
//! * [`FaultKind::FailIo`] — the operation fails without touching the
//!   file (a full-stop crash before the write).
//! * [`FaultKind::ShortWrite`] — half the buffer lands, then the
//!   operation fails (kill -9 mid-`write`, the torn-tail case).
//! * [`FaultKind::CorruptByte`] — the write *succeeds* but one bit is
//!   flipped in flight (latent media corruption, caught later by CRC).
//!
//! Plans are plain data and derivable from the workspace's seeded
//! stream machinery ([`FaultPlan::seeded`] uses
//! [`ld_prob::rng::stream_rng`]), so "crash at the k-th I/O" is a
//! reproducible point in a test matrix, not a flaky race.

use ld_prob::rng::Rng;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// What happens at the planned I/O operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails cleanly before writing anything.
    FailIo,
    /// Half the buffer is written, then the operation fails.
    ShortWrite,
    /// The write succeeds with one bit flipped in the buffer.
    CorruptByte,
}

impl FaultKind {
    /// Stable identifier, as accepted by `--crash-at` on the CLI.
    pub fn id(self) -> &'static str {
        match self {
            FaultKind::FailIo => "fail",
            FaultKind::ShortWrite => "short-write",
            FaultKind::CorruptByte => "corrupt",
        }
    }

    /// Parses a fault-kind identifier.
    pub fn parse(s: &str) -> Option<FaultKind> {
        [
            FaultKind::FailIo,
            FaultKind::ShortWrite,
            FaultKind::CorruptByte,
        ]
        .into_iter()
        .find(|k| k.id() == s)
    }
}

/// A deterministic plan: inject `kind` at the `at`-th I/O operation
/// (0-based, counted store-wide across WAL and snapshot files).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Operation index at which the fault fires; `u64::MAX` = never.
    pub at: u64,
    /// The injected behaviour.
    pub kind: FaultKind,
}

impl FaultPlan {
    /// No fault: every operation passes through.
    pub fn none() -> Self {
        FaultPlan {
            at: u64::MAX,
            kind: FaultKind::FailIo,
        }
    }

    /// Fail the `k`-th I/O operation outright.
    pub fn fail_at(k: u64) -> Self {
        FaultPlan {
            at: k,
            kind: FaultKind::FailIo,
        }
    }

    /// Tear the `k`-th write in half.
    pub fn short_write_at(k: u64) -> Self {
        FaultPlan {
            at: k,
            kind: FaultKind::ShortWrite,
        }
    }

    /// Flip one bit in the `k`-th write.
    pub fn corrupt_at(k: u64) -> Self {
        FaultPlan {
            at: k,
            kind: FaultKind::CorruptByte,
        }
    }

    /// A reproducible plan drawn from stream `stream` of `master`:
    /// uniform trigger in `[0, max_ops)`, uniform kind. The same
    /// `(master, stream, max_ops)` always yields the same plan.
    pub fn seeded(master: u64, stream: u64, max_ops: u64) -> Self {
        let mut rng = ld_prob::rng::stream_rng(master, stream ^ 0x00FA_017F_A017);
        let kind = match rng.gen_range(0..3u8) {
            0 => FaultKind::FailIo,
            1 => FaultKind::ShortWrite,
            _ => FaultKind::CorruptByte,
        };
        FaultPlan {
            at: rng.gen_range(0..max_ops.max(1)),
            kind,
        }
    }
}

/// The store-wide operation counter a plan is evaluated against.
///
/// Shared (`Arc`) between the WAL writer and the snapshot writer so
/// "the k-th I/O" means the k-th durable operation of the whole store,
/// whichever file it lands on. A plan fires at most once.
#[derive(Debug)]
pub struct FaultClock {
    plan: FaultPlan,
    ops: AtomicU64,
    fired: AtomicBool,
}

impl FaultClock {
    /// A clock executing `plan`.
    pub fn new(plan: FaultPlan) -> Arc<Self> {
        Arc::new(FaultClock {
            plan,
            ops: AtomicU64::new(0),
            fired: AtomicBool::new(false),
        })
    }

    /// Total I/O operations observed so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Whether the planned fault has fired.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Relaxed)
    }

    /// Advances the counter by one operation and reports the fault to
    /// inject, if this is the planned one.
    fn tick(&self) -> Option<FaultKind> {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        if op == self.plan.at && !self.fired.swap(true, Ordering::Relaxed) {
            Some(self.plan.kind)
        } else {
            None
        }
    }
}

fn injected(kind: FaultKind, op: &str) -> io::Error {
    io::Error::other(format!("injected fault: {} at {op}", kind.id()))
}

/// A file whose writes and fsyncs pass through a [`FaultClock`].
#[derive(Debug)]
pub struct FaultFile {
    file: File,
    clock: Arc<FaultClock>,
}

impl FaultFile {
    /// Wraps `file` under `clock`.
    pub fn new(file: File, clock: Arc<FaultClock>) -> Self {
        FaultFile { file, clock }
    }

    /// Writes the whole buffer as one counted operation, injecting the
    /// planned fault if this is the trigger operation.
    pub fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.clock.tick() {
            None => self.file.write_all(buf),
            Some(FaultKind::FailIo) => Err(injected(FaultKind::FailIo, "write")),
            Some(FaultKind::ShortWrite) => {
                self.file.write_all(&buf[..buf.len() / 2])?;
                // Make the torn bytes durable so recovery really sees
                // them, then report the crash.
                self.file.sync_data().ok();
                Err(injected(FaultKind::ShortWrite, "write"))
            }
            Some(FaultKind::CorruptByte) => {
                if buf.is_empty() {
                    return self.file.write_all(buf);
                }
                let mut bent = buf.to_vec();
                let mid = bent.len() / 2;
                bent[mid] ^= 0x01;
                self.file.write_all(&bent)
            }
        }
    }

    /// Flushes file contents to stable storage as one counted
    /// operation. A planned [`FaultKind::CorruptByte`] on an fsync
    /// degrades to a plain failure (there is no buffer to corrupt).
    pub fn sync_data(&mut self) -> io::Result<()> {
        match self.clock.tick() {
            None => self.file.sync_data(),
            Some(kind) => Err(injected(kind, "fsync")),
        }
    }

    /// Truncates or extends the file (not counted: recovery-side only).
    pub fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    /// Seeks (not counted: positioning, not durability).
    pub fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.file.seek(pos)
    }

    /// Reads into `buf` (not counted: reads cannot lose data).
    pub fn read_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        self.file.read_exact(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ld-store-fault-{}-{name}", std::process::id()))
    }

    fn open(path: &PathBuf, clock: &Arc<FaultClock>) -> FaultFile {
        let file = File::options()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(path)
            .unwrap();
        FaultFile::new(file, Arc::clone(clock))
    }

    #[test]
    fn unarmed_plan_is_transparent() {
        let path = tmp("none.bin");
        let clock = FaultClock::new(FaultPlan::none());
        let mut f = open(&path, &clock);
        f.write_all(b"hello").unwrap();
        f.sync_data().unwrap();
        assert_eq!(clock.ops(), 2);
        assert!(!clock.fired());
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn short_write_leaves_half_the_buffer() {
        let path = tmp("short.bin");
        let clock = FaultClock::new(FaultPlan::short_write_at(1));
        let mut f = open(&path, &clock);
        f.write_all(b"aaaa").unwrap();
        let err = f.write_all(b"bbbbbbbb").unwrap_err();
        assert!(err.to_string().contains("short-write"), "{err}");
        assert!(clock.fired());
        assert_eq!(std::fs::read(&path).unwrap(), b"aaaabbbb");
        // The plan fires once; later writes pass.
        f.write_all(b"cc").unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_byte_flips_exactly_one_bit() {
        let path = tmp("corrupt.bin");
        let clock = FaultClock::new(FaultPlan::corrupt_at(0));
        let mut f = open(&path, &clock);
        f.write_all(&[0u8; 9]).unwrap();
        let on_disk = std::fs::read(&path).unwrap();
        let flipped: u32 = on_disk.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit differs: {on_disk:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn seeded_plans_are_reproducible_and_varied() {
        let a = FaultPlan::seeded(7, 3, 100);
        assert_eq!(a, FaultPlan::seeded(7, 3, 100));
        assert!(a.at < 100);
        let kinds: std::collections::BTreeSet<&str> = (0..64)
            .map(|s| FaultPlan::seeded(7, s, 100).kind.id())
            .collect();
        assert_eq!(kinds.len(), 3, "all kinds appear across streams");
    }

    #[test]
    fn fail_on_fsync_is_injected() {
        let path = tmp("fsync.bin");
        let clock = FaultClock::new(FaultPlan::fail_at(1));
        let mut f = open(&path, &clock);
        f.write_all(b"x").unwrap();
        assert!(f.sync_data().is_err());
        std::fs::remove_file(&path).ok();
    }
}
