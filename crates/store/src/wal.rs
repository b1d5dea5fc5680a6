//! The append-only write-ahead log: CRC32-framed update records with
//! batched fsync and torn-tail recovery.
//!
//! # Framing
//!
//! A WAL file is a 16-byte header followed by back-to-back records:
//!
//! ```text
//! header  [magic: 8][version: u32][reserved: u32]
//! record  [len: u32][crc32(payload): u32][payload: len bytes]
//! ```
//!
//! Records are frames of the one [`crate::log`] codec, which the serve
//! logs and the wire protocol share. Payloads are [`ld_live::codec`]
//! update encodings (≤ 13 bytes today; the scanner tolerates up to
//! [`MAX_FRAME_PAYLOAD`] for forward compatibility — anything larger is
//! corruption by definition).
//!
//! # Torn tails
//!
//! [`scan_records`] walks frames until the first record that is
//! truncated, oversized, CRC-mismatched, or undecodable, and reports it
//! as a typed [`TornTail`] — the valid prefix is always record-aligned,
//! and a partial record is never surfaced as an update. Recovery
//! truncates at [`WalScan::valid_len`] and the log is clean again.
//!
//! Unlike `epochs.log` and `identity.log`, which refuse damage before
//! their final frame, the WAL truncates at its first bad frame of any
//! kind: records are fsynced in windows, not one by one, and the writer
//! keeps appending after a write that silently damaged a record (the
//! crash matrix's corrupt-byte cells), so interior damage is a state a
//! crash can leave and recovery keeps the prefix before it.
//!
//! # Durability policy
//!
//! [`WalWriter`] writes each record (or batch — one `write(2)` per
//! [`WalWriter::append_batch`] call) immediately, so an OS crash loses
//! at most what the page cache held; an explicit `fsync` runs every
//! `sync_every` records (and on [`WalWriter::sync`]), bounding what a
//! *power* failure can lose to the configured window. Compaction
//! fsyncs before snapshotting, so a snapshot at record `k` implies the
//! log durably holds ≥ `k` records.

use crate::fault::{FaultClock, FaultFile};
use crate::log::{self, FrameError};
use crate::StoreError;
use ld_live::codec::{self, CodecError};
use ld_live::Update;
use std::fs::File;
use std::io::SeekFrom;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// WAL file magic ("LDWAL", a ^Z so `cat` stops, format byte).
pub const WAL_MAGIC: [u8; 8] = *b"LDWAL\x1a\x00\x01";
/// Current WAL format version.
pub const WAL_VERSION: u32 = 1;
/// Bytes before the first record.
pub const WAL_HEADER_LEN: usize = 16;
pub use crate::log::FRAME_HEADER_LEN;
/// Largest payload the scanner accepts; larger lengths are corruption.
pub const MAX_FRAME_PAYLOAD: u32 = 64;
/// The payload lengths a record frame may claim.
const RECORD_LENS: std::ops::RangeInclusive<u32> = 0..=MAX_FRAME_PAYLOAD;

/// Appends one framed record for `update` to `out`; returns the frame
/// size in bytes.
pub fn encode_record(update: &Update, out: &mut Vec<u8>) -> usize {
    log::encode_frame(out, &RECORD_LENS, |out| {
        codec::encode_update(update, out);
    })
    .expect("an update encoding fits a record frame")
}

/// Writes and fsyncs the WAL file header at the file's position.
fn write_header(file: &mut FaultFile) -> std::io::Result<()> {
    let mut header = Vec::with_capacity(WAL_HEADER_LEN);
    header.extend_from_slice(&WAL_MAGIC);
    header.extend_from_slice(&WAL_VERSION.to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    file.write_all(&header)?;
    file.sync_data()
}

/// Why a record failed to parse — the first invalid record's diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TornReason {
    /// Fewer than [`FRAME_HEADER_LEN`] bytes remain.
    TruncatedHeader {
        /// Bytes that do remain.
        have: usize,
    },
    /// The frame header promises more payload than the file holds.
    TruncatedPayload {
        /// Promised payload length.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The length field exceeds [`MAX_FRAME_PAYLOAD`].
    OversizedLength(u32),
    /// The stored CRC32 does not match the payload.
    CrcMismatch {
        /// Checksum stored in the frame.
        stored: u32,
        /// Checksum of the payload as found.
        computed: u32,
    },
    /// The CRC held but the payload is not a valid update encoding.
    Malformed(CodecError),
}

impl std::fmt::Display for TornReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TornReason::TruncatedHeader { have } => {
                write!(f, "truncated frame header ({have} bytes remain)")
            }
            TornReason::TruncatedPayload { need, have } => {
                write!(f, "truncated payload (need {need} bytes, have {have})")
            }
            TornReason::OversizedLength(len) => write!(f, "oversized record length {len}"),
            TornReason::CrcMismatch { stored, computed } => write!(
                f,
                "crc mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            TornReason::Malformed(e) => write!(f, "undecodable payload: {e}"),
        }
    }
}

impl From<FrameError> for TornReason {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::TruncatedHeader { have } => TornReason::TruncatedHeader { have },
            FrameError::TruncatedPayload { need, have } => {
                TornReason::TruncatedPayload { need, have }
            }
            FrameError::BadLength(len) => TornReason::OversizedLength(len),
            FrameError::CrcMismatch { stored, computed } => {
                TornReason::CrcMismatch { stored, computed }
            }
        }
    }
}

/// A typed torn tail: the log is valid up to byte `at`, then `trailing`
/// bytes fail to parse for `reason`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset (within the scanned region) of the first invalid
    /// record — always a record boundary.
    pub at: usize,
    /// Invalid bytes from `at` to the end of the region.
    pub trailing: usize,
    /// What was wrong with the record starting at `at`.
    pub reason: TornReason,
}

impl std::fmt::Display for TornTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "torn tail at byte {} ({} trailing bytes): {}",
            self.at, self.trailing, self.reason
        )
    }
}

/// Whether a scan consumed the whole region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailStatus {
    /// The region ends exactly on a record boundary.
    Clean,
    /// An invalid suffix was found (and excluded from the updates).
    Torn(TornTail),
}

impl TailStatus {
    /// True when no invalid suffix was found.
    pub fn is_clean(&self) -> bool {
        matches!(self, TailStatus::Clean)
    }
}

/// The result of scanning a record region: the decoded valid prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct WalScan {
    /// Every fully-valid record, in log order.
    pub updates: Vec<Update>,
    /// Byte length of the valid record-aligned prefix.
    pub valid_len: usize,
    /// Whether anything invalid followed it.
    pub tail: TailStatus,
}

impl WalScan {
    /// Number of valid records.
    pub fn records(&self) -> u64 {
        self.updates.len() as u64
    }
}

/// Scans a record region (a WAL body, *without* the file header),
/// decoding the longest valid record-aligned prefix.
///
/// Never panics and never yields a partial record, for any byte string
/// whatsoever — the property `tests/proptest_torn_tail.rs` pins at
/// every truncation offset of valid logs and on arbitrary junk.
pub fn scan_records(body: &[u8]) -> WalScan {
    let mut updates = Vec::new();
    let scanned = log::scan(body, &RECORD_LENS, |payload| {
        codec::decode_update(payload)
            .map(|u| updates.push(u))
            .map_err(TornReason::Malformed)
    });
    let (valid_len, tail) = match scanned {
        Ok(()) => (body.len(), TailStatus::Clean),
        Err(stop) => (
            stop.at,
            TailStatus::Torn(TornTail {
                at: stop.at,
                trailing: body.len() - stop.at,
                reason: stop.reason,
            }),
        ),
    };
    WalScan {
        updates,
        valid_len,
        tail,
    }
}

/// A scanned WAL *file*: header handling plus the body scan.
#[derive(Debug, Clone, PartialEq)]
pub struct FileScan {
    /// The body scan (offsets relative to the end of the header). With
    /// a tail offset, `scan.updates` holds only the records *after*
    /// the snapshot-covered prefix.
    pub scan: WalScan,
    /// Records before the scanned region, vouched for by the snapshot
    /// that supplied the tail offset; `0` for a plain [`read_wal`].
    pub covered: u64,
    /// Valid file length in bytes (header + valid body prefix); the
    /// truncation point for reopening after a crash.
    pub file_valid_len: u64,
    /// The file ends before the header does (a crash during creation);
    /// the whole file is rewritten on reopen.
    pub header_torn: bool,
}

/// Reads and scans a WAL file.
///
/// # Errors
///
/// [`StoreError::Io`] if the file cannot be opened and
/// [`StoreError::Corrupt`] if a *complete* header carries the wrong
/// magic or version — that is a different file, not a torn one. A
/// short header is reported via [`FileScan::header_torn`], not an
/// error: it is a legitimate crash point.
pub fn read_wal(path: &Path) -> Result<FileScan, StoreError> {
    read_wal_tail(path, WAL_HEADER_LEN as u64, 0)
}

/// [`read_wal`], starting the validated scan at byte `tail_at` and
/// trusting that `covered` records precede it.
///
/// Both values come from a CRC-validated snapshot: compaction records
/// the WAL byte length alongside the record count, and the snapshot's
/// own checksum vouches for the state those records produced — so the
/// covered prefix needs neither re-checksumming nor even reading: the
/// file's header is read, then a seek to `tail_at` skips the prefix,
/// and snapshot recovery is O(tail) instead of O(log). Only the tail is
/// validated; a `tail_at` outside the file (a snapshot from a
/// different or shorter log) yields an empty scan with `covered = 0`,
/// which callers treat as "this snapshot is unusable" and fall back.
///
/// # Errors
///
/// As [`read_wal`].
pub fn read_wal_tail(path: &Path, tail_at: u64, covered: u64) -> Result<FileScan, StoreError> {
    use std::io::{Read, Seek};
    let ioerr = StoreError::io("open wal", path);
    let mut file = File::open(path).map_err(&ioerr)?;
    let file_len = file.metadata().map_err(&ioerr)?.len();
    let mut header = [0u8; WAL_HEADER_LEN];
    let have = file_len.min(WAL_HEADER_LEN as u64) as usize;
    file.read_exact(&mut header[..have]).map_err(&ioerr)?;
    // A scan of no records: a torn header, or a tail outside the file.
    let empty = |tail, file_valid_len, header_torn| FileScan {
        scan: WalScan {
            updates: Vec::new(),
            valid_len: 0,
            tail,
        },
        covered: 0,
        file_valid_len,
        header_torn,
    };
    if have < WAL_HEADER_LEN {
        let reason = TornReason::TruncatedHeader { have };
        let torn = TornTail {
            at: 0,
            trailing: have,
            reason,
        };
        return Ok(empty(TailStatus::Torn(torn), 0, true));
    }
    if header[..8] != WAL_MAGIC {
        return Err(StoreError::Corrupt {
            path: path.to_path_buf(),
            reason: "bad WAL magic".to_string(),
        });
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if version != WAL_VERSION {
        return Err(StoreError::Corrupt {
            path: path.to_path_buf(),
            reason: format!("unsupported WAL version {version} (this build reads {WAL_VERSION})"),
        });
    }
    let in_range = usize::try_from(tail_at)
        .ok()
        .filter(|&t| t >= WAL_HEADER_LEN && tail_at <= file_len);
    let Some(tail_at) = in_range else {
        return Ok(empty(TailStatus::Clean, WAL_HEADER_LEN as u64, false));
    };
    let mut tail = Vec::new();
    file.seek(SeekFrom::Start(tail_at as u64)).map_err(&ioerr)?;
    file.read_to_end(&mut tail).map_err(&ioerr)?;
    let mut scan = scan_records(&tail);
    // Rebase scan offsets from the tail to the body start, so callers
    // see the same coordinates a full scan would report.
    let base = tail_at - WAL_HEADER_LEN;
    scan.valid_len += base;
    if let TailStatus::Torn(t) = &mut scan.tail {
        t.at += base;
    }
    let file_valid_len = (WAL_HEADER_LEN + scan.valid_len) as u64;
    Ok(FileScan {
        scan,
        covered,
        file_valid_len,
        header_torn: false,
    })
}

/// The append half of the log: immediate writes, batched fsync, all
/// I/O routed through the store's [`FaultClock`].
#[derive(Debug)]
pub struct WalWriter {
    file: FaultFile,
    path: PathBuf,
    records: u64,
    len_bytes: u64,
    since_sync: u64,
    /// Whether the file changed since its last fsync: a write, or a
    /// truncation or header rewrite on reopen.
    dirty: bool,
    sync_every: u64,
    scratch: Vec<u8>,
    obs: WalObs,
}

/// The writer's ld-obs handles, looked up once when it opens.
#[derive(Debug)]
struct WalObs {
    appends: ld_obs::Counter,
    bytes: ld_obs::Counter,
    fsyncs: ld_obs::Counter,
    fsync_ns: ld_obs::Histogram,
}

impl WalObs {
    fn resolve() -> Self {
        WalObs {
            appends: ld_obs::counter("wal.appends"),
            bytes: ld_obs::counter("wal.bytes"),
            fsyncs: ld_obs::counter("wal.fsyncs"),
            fsync_ns: ld_obs::histogram("wal.fsync_ns"),
        }
    }
}

impl WalWriter {
    /// Creates a fresh log at `path` (truncating any existing file):
    /// header, fsync, parent-directory fsync.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on any filesystem failure (including injected
    /// faults).
    pub fn create(
        path: &Path,
        clock: Arc<FaultClock>,
        sync_every: u64,
    ) -> Result<WalWriter, StoreError> {
        // An empty file is a log whose creation was torn before its
        // header: reopening it writes and fsyncs the header.
        let ioerr = StoreError::io("create wal", path);
        File::create(path).map_err(&ioerr)?;
        let (wal, _) = Self::open_for_append(path, clock, sync_every)?;
        crate::fsync_parent_dir(path).map_err(&ioerr)?;
        Ok(wal)
    }

    /// Reopens an existing log for appending: scans it, truncates any
    /// torn tail (rewriting the header if creation itself was torn),
    /// and positions at the end of the valid prefix.
    ///
    /// Returns the writer plus the pre-truncation scan, so the caller
    /// knows what survived.
    ///
    /// # Errors
    ///
    /// Propagates [`read_wal`] errors and [`StoreError::Io`].
    pub fn open_for_append(
        path: &Path,
        clock: Arc<FaultClock>,
        sync_every: u64,
    ) -> Result<(WalWriter, FileScan), StoreError> {
        Self::open_for_append_trusting(path, clock, sync_every, WAL_HEADER_LEN as u64, 0)
    }

    /// [`WalWriter::open_for_append`], validating only the tail from
    /// byte `tail_at` and trusting that `covered` records precede it —
    /// both from a CRC-validated snapshot (see [`read_wal_tail`]).
    /// Keeps the truncation point consistent with what snapshot
    /// recovery just reported.
    ///
    /// # Errors
    ///
    /// Propagates [`read_wal`] errors and [`StoreError::Io`].
    pub fn open_for_append_trusting(
        path: &Path,
        clock: Arc<FaultClock>,
        sync_every: u64,
        tail_at: u64,
        covered: u64,
    ) -> Result<(WalWriter, FileScan), StoreError> {
        let found = read_wal_tail(path, tail_at, covered)?;
        let ioerr = StoreError::io("reopen wal", path);
        let file = File::options()
            .read(true)
            .write(true)
            .open(path)
            .map_err(&ioerr)?;
        let truncated = file.metadata().map_err(&ioerr)?.len() != found.file_valid_len;
        let mut file = FaultFile::new(file, clock);
        // A torn header has `file_valid_len` 0: the file is rewritten.
        file.set_len(found.file_valid_len).map_err(&ioerr)?;
        file.seek(SeekFrom::Start(found.file_valid_len))
            .map_err(&ioerr)?;
        if found.header_torn {
            write_header(&mut file).map_err(&ioerr)?;
        }
        let len_bytes = found.file_valid_len.max(WAL_HEADER_LEN as u64);
        Ok((
            WalWriter {
                file,
                path: path.to_path_buf(),
                records: found.covered + found.scan.records(),
                len_bytes,
                since_sync: 0,
                // A cut tail is not durable until the next fsync; count a
                // rewritten header the same way.
                dirty: truncated || found.header_torn,
                sync_every,
                scratch: Vec::with_capacity(4096),
                obs: WalObs::resolve(),
            },
            found,
        ))
    }

    /// Appends one record (one `write(2)`), fsyncing if the batching
    /// window filled.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] — after which the log may hold a torn tail;
    /// that is exactly the state recovery handles.
    pub fn append(&mut self, update: &Update) -> Result<(), StoreError> {
        self.append_batch(std::slice::from_ref(update))
    }

    /// Appends a batch of records as a single `write(2)`, fsyncing if
    /// the batching window filled.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`]; on failure none, some, or a torn prefix of
    /// the batch may be on disk — recovery truncates to the last whole
    /// record either way.
    pub fn append_batch(&mut self, updates: &[Update]) -> Result<(), StoreError> {
        if updates.is_empty() {
            return Ok(());
        }
        self.scratch.clear();
        for u in updates {
            encode_record(u, &mut self.scratch);
        }
        let bytes = self.scratch.len() as u64;
        self.dirty = true;
        let write = self.file.write_all(&self.scratch);
        write.map_err(StoreError::io("append wal", &self.path))?;
        self.obs.appends.add(updates.len() as u64);
        self.obs.bytes.add(bytes);
        self.records += updates.len() as u64;
        self.len_bytes += bytes;
        self.since_sync += updates.len() as u64;
        if self.sync_every > 0 && self.since_sync >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Makes everything written so far durable: an fsync, unless nothing
    /// changed since the last one (a barrier right after a batch that
    /// filled the `sync_every` window costs nothing).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`].
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if !self.dirty {
            return Ok(());
        }
        let start = Instant::now();
        let synced = self.file.sync_data();
        self.obs.fsync_ns.record(start.elapsed().as_nanos() as u64);
        synced.map_err(StoreError::io("fsync wal", &self.path))?;
        self.obs.fsyncs.incr();
        self.since_sync = 0;
        self.dirty = false;
        Ok(())
    }

    /// Records appended so far (including any recovered prefix).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Current file length in bytes (header plus every appended frame)
    /// — the tail offset compaction stamps into its snapshot.
    pub fn len_bytes(&self) -> u64 {
        self.len_bytes
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        // Best-effort durability on clean shutdown; errors are already
        // survivable by design (recovery truncates).
        if self.dirty {
            self.file.sync_data().ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn updates() -> Vec<Update> {
        vec![
            Update::Delegate {
                voter: 0,
                target: 3,
            },
            Update::Vote { voter: 1 },
            Update::Abstain { voter: 2 },
            Update::Competence { voter: 3, p: 0.75 },
            Update::Delegate {
                voter: 4,
                target: 0,
            },
        ]
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ld-store-wal-{}-{name}", std::process::id()))
    }

    #[test]
    fn encode_scan_round_trip() {
        let us = updates();
        let mut body = Vec::new();
        for u in &us {
            encode_record(u, &mut body);
        }
        let scan = scan_records(&body);
        assert_eq!(scan.updates, us);
        assert_eq!(scan.valid_len, body.len());
        assert!(scan.tail.is_clean());
    }

    #[test]
    fn every_truncation_yields_an_aligned_prefix() {
        let us = updates();
        let mut body = Vec::new();
        let mut boundaries = vec![0usize];
        for u in &us {
            encode_record(u, &mut body);
            boundaries.push(body.len());
        }
        for cut in 0..=body.len() {
            let scan = scan_records(&body[..cut]);
            let k = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(scan.updates, us[..k], "cut at {cut}");
            assert_eq!(scan.valid_len, boundaries[k]);
            assert_eq!(scan.tail.is_clean(), cut == boundaries[k]);
        }
    }

    #[test]
    fn corruption_is_caught_by_crc() {
        let us = updates();
        let mut body = Vec::new();
        for u in &us {
            encode_record(u, &mut body);
        }
        for i in 0..body.len() {
            let mut bent = body.clone();
            bent[i] ^= 0x10;
            let scan = scan_records(&bent);
            // The flipped bit must be noticed: scanning corrupted bytes
            // never reproduces the original sequence (usually the scan
            // stops early with a typed torn tail).
            assert_ne!(scan.updates, us, "flip at byte {i} went unnoticed");
        }
    }

    #[test]
    fn junk_never_panics() {
        use ld_prob::rng::Rng;
        let mut rng = ld_prob::rng::StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let len = rng.gen_range(0..200);
            let junk: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let scan = scan_records(&junk);
            assert!(scan.valid_len <= junk.len());
        }
    }

    #[test]
    fn writer_appends_and_reopens_truncating_torn_tail() {
        let path = tmp("writer.wal");
        let clock = FaultClock::new(FaultPlan::none());
        let us = updates();
        {
            let mut w = WalWriter::create(&path, Arc::clone(&clock), 2).unwrap();
            for u in &us {
                w.append(u).unwrap();
            }
            assert_eq!(w.records(), 5);
        }
        // Simulate a torn in-flight record: append garbage half-frame.
        {
            use std::io::Write;
            let mut f = File::options().append(true).open(&path).unwrap();
            f.write_all(&[13, 0, 0, 0, 0xde, 0xad]).unwrap();
        }
        let (w, found) = WalWriter::open_for_append(&path, clock, 2).unwrap();
        assert_eq!(found.scan.updates, us);
        assert!(!found.scan.tail.is_clean());
        assert_eq!(w.records(), 5);
        drop(w);
        // After truncation the file scans clean.
        let rescan = read_wal(&path).unwrap();
        assert!(rescan.scan.tail.is_clean());
        assert_eq!(rescan.scan.updates, us);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_header_is_reported_and_rewritten() {
        let path = tmp("tornheader.wal");
        std::fs::write(&path, &WAL_MAGIC[..5]).unwrap();
        let found = read_wal(&path).unwrap();
        assert!(found.header_torn);
        assert_eq!(found.file_valid_len, 0);
        let clock = FaultClock::new(FaultPlan::none());
        let (mut w, _) = WalWriter::open_for_append(&path, clock, 0).unwrap();
        w.append(&Update::Vote { voter: 0 }).unwrap();
        drop(w);
        let rescan = read_wal(&path).unwrap();
        assert!(!rescan.header_torn);
        assert_eq!(rescan.scan.records(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tail_reads_cover_empty_missing_and_out_of_range_files() {
        let path = tmp("tail.wal");
        std::fs::write(&path, b"").unwrap();
        let empty = read_wal(&path).unwrap();
        assert!(empty.header_torn && empty.scan.updates.is_empty());
        let clock = FaultClock::new(FaultPlan::none());
        let us = updates();
        let mut w = WalWriter::create(&path, clock, 0).unwrap();
        w.append_batch(&us[..2]).unwrap();
        let tail_at = w.len_bytes();
        w.append_batch(&us[2..]).unwrap();
        let (end, records) = (w.len_bytes(), w.records());
        drop(w);
        let tail = read_wal_tail(&path, tail_at, 2).unwrap();
        assert_eq!((tail.scan.updates.as_slice(), tail.covered), (&us[2..], 2));
        assert_eq!(tail.file_valid_len, end);
        assert_eq!(tail.scan.records() + tail.covered, records);
        for outside in [0, WAL_HEADER_LEN as u64 - 1, end + 1, u64::MAX] {
            let found = read_wal_tail(&path, outside, 2).unwrap();
            assert!(found.scan.updates.is_empty() && found.scan.tail.is_clean());
            assert_eq!(
                (found.covered, found.file_valid_len),
                (0, WAL_HEADER_LEN as u64)
            );
        }
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(read_wal(&path), Err(StoreError::Io { .. })));
    }

    #[test]
    fn wrong_magic_is_corrupt_not_torn() {
        let path = tmp("magic.wal");
        std::fs::write(&path, b"NOTAWAL!\x01\x00\x00\x00\x00\x00\x00\x00").unwrap();
        assert!(matches!(read_wal(&path), Err(StoreError::Corrupt { .. })));
        std::fs::remove_file(&path).ok();
    }
}
