//! The durable store: one WAL, a set of snapshots, and recovery.
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/events.wal                    append-only update log
//! <dir>/snapshot-00000000000000000000.bin   genesis (state before record 0)
//! <dir>/snapshot-<k>.bin              state after the first k records
//! ```
//!
//! The WAL is never rewritten (only a torn tail is truncated on
//! reopen); compaction adds a new snapshot and prunes old ones, always
//! keeping genesis — the full-log-replay baseline `repro store-bench`
//! measures against — and the two newest.
//!
//! # Crash safety
//!
//! * Appends go to the WAL first; an interrupted append leaves at most
//!   a torn tail, which [`recover`] truncates.
//! * [`Store::compact`] fsyncs the WAL *before* writing
//!   `snapshot-<k>.bin`, so a snapshot's existence implies the log
//!   durably holds ≥ `k` records — recovery can always replay forward
//!   from any surviving snapshot.
//! * Snapshot writes are temp-file + fsync + rename + dir-fsync; a
//!   crash mid-compaction leaves the previous snapshot set intact.
//!
//! Recovery therefore composes: newest *valid* snapshot (CRC-checked;
//! a corrupt one falls back to the next older), rehydrate without
//! resolving, replay the WAL tail. The result is bit-identical to an
//! engine that never crashed — the property the `wal-crash-oracle`
//! conformance check and `crates/store/tests/crash_recovery.rs` pin
//! at every crash point.

use crate::fault::{FaultClock, FaultPlan};
use crate::snapshot::{parse_snapshot_name, write_snapshot, Snapshot};
use crate::wal::{read_wal_tail, TailStatus, TornTail, WalWriter, WAL_HEADER_LEN};
use crate::StoreError;
use ld_live::{LiveEngine, Update};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The WAL file name inside a store directory.
pub const WAL_FILE: &str = "events.wal";

/// Tuning and fault-injection knobs for a store.
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Records per fsync (`0` = only explicit [`Store::sync`] /
    /// compaction fsyncs).
    pub sync_every: u64,
    /// WAL records between automatic compactions in
    /// [`Store::maybe_compact`] (`0` = manual compaction only).
    pub snapshot_every: u64,
    /// Deterministic fault plan for the store's I/O (see
    /// [`FaultPlan`]).
    pub fault: FaultPlan,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            sync_every: 1024,
            snapshot_every: 0,
            fault: FaultPlan::none(),
        }
    }
}

/// An open store: the WAL writer plus compaction bookkeeping.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    wal: WalWriter,
    clock: Arc<FaultClock>,
    last_snapshot: u64,
    opts: StoreOptions,
}

/// Snapshot files in `dir`, newest (highest `applied`) first.
fn snapshots_desc(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let entries = std::fs::read_dir(dir).map_err(StoreError::io("list store dir", dir))?;
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry.map_err(StoreError::io("list store dir", dir))?;
        if let Some(applied) = entry.file_name().to_str().and_then(parse_snapshot_name) {
            found.push((applied, entry.path()));
        }
    }
    found.sort_by_key(|&(applied, _)| std::cmp::Reverse(applied));
    Ok(found)
}

impl Store {
    /// Creates a fresh store in `dir` (created if missing): a genesis
    /// snapshot of `engine` and an empty WAL. Any existing store files
    /// in `dir` are replaced.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure (including injected
    /// faults).
    pub fn create(
        dir: &Path,
        engine: &LiveEngine,
        opts: StoreOptions,
    ) -> Result<Store, StoreError> {
        std::fs::create_dir_all(dir).map_err(StoreError::io("create store dir", dir))?;
        for (_, stale) in snapshots_desc(dir)? {
            std::fs::remove_file(&stale).map_err(StoreError::io("clear stale snapshot", &stale))?;
        }
        let clock = FaultClock::new(opts.fault);
        write_snapshot(dir, engine, 0, WAL_HEADER_LEN as u64, &clock)?;
        let wal = WalWriter::create(&dir.join(WAL_FILE), Arc::clone(&clock), opts.sync_every)?;
        Ok(Store {
            dir: dir.to_path_buf(),
            wal,
            clock,
            last_snapshot: 0,
            opts,
        })
    }

    /// Recovers the store in `dir` and reopens it for appending: the
    /// torn tail (if any) is truncated and the engine is rebuilt from
    /// the newest valid snapshot plus the log tail.
    ///
    /// # Errors
    ///
    /// Propagates [`recover`] and WAL-reopen failures.
    pub fn resume(dir: &Path, opts: StoreOptions) -> Result<(Store, Recovery), StoreError> {
        let recovery = recover(dir)?;
        // Trust the prefix the recovery snapshot covered so the reopen
        // truncates at the same point recovery just reported.
        let (tail_at, covered) = (recovery.tail_offset, recovery.snapshot_applied);
        Self::reopen(dir, opts, recovery, tail_at, covered)
    }

    /// Reopens the WAL of a recovered store for appending, validating
    /// only the tail from byte `tail_at` and trusting that `covered`
    /// records precede it.
    fn reopen(
        dir: &Path,
        opts: StoreOptions,
        recovery: Recovery,
        tail_at: u64,
        covered: u64,
    ) -> Result<(Store, Recovery), StoreError> {
        let clock = FaultClock::new(opts.fault);
        let (wal, _) = WalWriter::open_for_append_trusting(
            &dir.join(WAL_FILE),
            Arc::clone(&clock),
            opts.sync_every,
            tail_at,
            covered,
        )?;
        Ok((
            Store {
                dir: dir.to_path_buf(),
                wal,
                clock,
                last_snapshot: recovery.snapshot_applied,
                opts,
            },
            recovery,
        ))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total records in the WAL (including any recovered prefix).
    pub fn records(&self) -> u64 {
        self.wal.records()
    }

    /// The `applied` count of the newest snapshot this handle wrote or
    /// recovered from.
    pub fn last_snapshot(&self) -> u64 {
        self.last_snapshot
    }

    /// The store's fault clock (operation counts, fired flag).
    pub fn clock(&self) -> &Arc<FaultClock> {
        &self.clock
    }

    /// Appends one accepted update.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] — the WAL may then hold a torn tail; recovery
    /// truncates it.
    pub fn append(&mut self, update: &Update) -> Result<(), StoreError> {
        self.wal.append(update)
    }

    /// Appends a batch of accepted updates as one `write(2)`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`], as for [`Store::append`].
    pub fn append_batch(&mut self, updates: &[Update]) -> Result<(), StoreError> {
        self.wal.append_batch(updates)
    }

    /// Forces a WAL fsync.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`].
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.wal.sync()
    }

    /// Compacts now: fsyncs the WAL, snapshots `engine` at the current
    /// record count, and prunes old snapshots (keeping genesis and the
    /// two newest).
    ///
    /// `engine` must be the state produced by exactly the updates
    /// appended so far — the caller owns that pairing.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`]; on failure the previous snapshot set is
    /// still intact.
    pub fn compact(&mut self, engine: &LiveEngine) -> Result<PathBuf, StoreError> {
        self.wal.sync()?;
        let applied = self.wal.records();
        let wal_len = self.wal.len_bytes();
        let path = write_snapshot(&self.dir, engine, applied, wal_len, &self.clock)?;
        self.last_snapshot = applied;
        ld_obs::counter("store.compactions").incr();
        // Prune: keep genesis (the full-replay baseline) and the two
        // newest snapshots. Pruning is advisory — failures are ignored,
        // extra snapshots only cost disk.
        let snaps = snapshots_desc(&self.dir)?;
        for (applied, path) in snaps.iter().skip(2) {
            if *applied != 0 {
                std::fs::remove_file(path).ok();
            }
        }
        Ok(path)
    }

    /// Compacts if `snapshot_every` records accumulated since the last
    /// snapshot; returns the new snapshot path if one was written.
    ///
    /// # Errors
    ///
    /// As for [`Store::compact`].
    pub fn maybe_compact(&mut self, engine: &LiveEngine) -> Result<Option<PathBuf>, StoreError> {
        if self.opts.snapshot_every > 0
            && self.wal.records() - self.last_snapshot >= self.opts.snapshot_every
        {
            self.compact(engine).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Recovers the store in `dir` truncated to exactly `cap` records
    /// and reopens it for appending: the WAL is cut at the `cap`-record
    /// boundary (dropping any durable-but-uncovered suffix along with
    /// the torn tail) and the engine is rebuilt from the newest valid
    /// snapshot at or before the cut.
    ///
    /// This is the commit primitive `ld-serve` builds on: appends that
    /// follow the last epoch barrier can reach the disk before a kill,
    /// so the durable WAL may run past the last *published* state. The
    /// service's epoch log records the record count of each committed
    /// epoch; resuming capped at it restores exactly the state that
    /// epoch published, which the logged tally digest then proves.
    ///
    /// # Errors
    ///
    /// Propagates [`recover_capped`] and WAL-reopen failures.
    pub fn resume_capped(
        dir: &Path,
        opts: StoreOptions,
        cap: u64,
    ) -> Result<(Store, Recovery), StoreError> {
        let (recovery, cut) = recover_capped(dir, cap)?;
        let wal_path = dir.join(WAL_FILE);
        // Physically drop everything past the cut, then reopen trusting
        // the capped prefix; the subsequent scan starts at the cut and
        // finds a clean, empty tail.
        let ioerr = StoreError::io("truncate wal at cap", &wal_path);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .map_err(&ioerr)?;
        file.set_len(cut).map_err(&ioerr)?;
        file.sync_data().map_err(&ioerr)?;
        drop(file);
        Self::reopen(dir, opts, recovery, cut, cap)
    }
}

/// The outcome of a recovery.
#[derive(Debug)]
pub struct Recovery {
    /// The rehydrated engine, bit-identical to one that never crashed.
    pub engine: LiveEngine,
    /// Snapshot the recovery started from.
    pub snapshot_path: PathBuf,
    /// WAL records that snapshot already incorporated.
    pub snapshot_applied: u64,
    /// WAL byte offset where replay began (the snapshot's recorded
    /// compaction offset).
    pub tail_offset: u64,
    /// WAL tail records replayed on top of it.
    pub replayed: u64,
    /// Total valid records in the WAL.
    pub records: u64,
    /// The torn tail that was detected (and ignored), if any.
    pub torn: Option<TornTail>,
    /// Snapshots that failed validation and were skipped, newest first.
    pub snapshots_skipped: Vec<PathBuf>,
}

/// How [`recover_with`] picks its snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverMode {
    /// Newest valid snapshot + WAL tail (the fast path).
    Latest,
    /// Genesis snapshot + full log replay (the slow baseline
    /// `repro store-bench` compares against).
    FullReplay,
}

/// Recovers the engine from `dir`: newest valid snapshot plus WAL
/// tail. Read-only — the torn tail, if any, is reported but the file
/// is left untouched (reopening via [`Store::resume`] truncates it).
///
/// # Errors
///
/// * [`StoreError::Io`] / [`StoreError::Corrupt`] from the WAL layer.
/// * [`StoreError::NoSnapshot`] if no snapshot in `dir` validates.
/// * [`StoreError::Replay`] if a logged record is rejected on replay —
///   impossible for a log written by [`Store`], so it indicates a
///   mismatched store directory.
pub fn recover(dir: &Path) -> Result<Recovery, StoreError> {
    recover_with(dir, RecoverMode::Latest)
}

/// [`recover`], with an explicit snapshot-selection mode.
///
/// # Errors
///
/// As for [`recover`].
pub fn recover_with(dir: &Path, mode: RecoverMode) -> Result<Recovery, StoreError> {
    let _span = ld_obs::span("recover.total_ns");
    let full_replay = mode == RecoverMode::FullReplay;
    Ok(recover_upto(dir, |applied| !full_replay || applied == 0, None)?.0)
}

/// Recovers the engine from `dir` as of exactly `cap` records: newest
/// valid snapshot with `applied ≤ cap`, plus the WAL tail up to the
/// cut. Returns the recovery and the WAL byte offset of the
/// `cap`-record boundary (the truncation point
/// [`Store::resume_capped`] uses). Read-only, like [`recover`].
///
/// Snapshots past the cut are skipped silently — compaction may have
/// outrun the caller's consistency point, and genesis is always kept,
/// so a usable snapshot always exists in an intact store.
///
/// # Errors
///
/// As for [`recover`], plus [`StoreError::Corrupt`] if the log's valid
/// prefix holds fewer than `cap` records — the caller's cut came from
/// a barrier that fsynced first, so a shorter log is a damaged store.
pub fn recover_capped(dir: &Path, cap: u64) -> Result<(Recovery, u64), StoreError> {
    let _span = ld_obs::span("recover.capped_ns");
    recover_upto(dir, |applied| applied <= cap, Some(cap))
}

/// The one recovery behind [`recover_with`] and [`recover_capped`]: the
/// newest snapshot that `usable` admits and that validates, plus the
/// WAL tail replayed in full or up to `cap` records. Returns the
/// recovery and, when capped, the WAL byte offset of the cut.
fn recover_upto(
    dir: &Path,
    usable: impl Fn(u64) -> bool,
    cap: Option<u64>,
) -> Result<(Recovery, u64), StoreError> {
    let wal_path = dir.join(WAL_FILE);
    let mut skipped = Vec::new();
    let mut chosen = None;
    for (applied, path) in snapshots_desc(dir)? {
        if !usable(applied) {
            continue;
        }
        let opened =
            Snapshot::open(&path).and_then(|s| Ok((s.applied(), s.wal_len(), s.to_engine()?)));
        let (snap_applied, wal_len, engine) = match opened {
            Ok((snap_applied, wal_len, engine)) if snap_applied == applied => {
                (snap_applied, wal_len, engine)
            }
            _ => {
                skipped.push(path);
                continue;
            }
        };
        // Seek straight to the tail the snapshot recorded: its own
        // checksum vouches for the state of the covered prefix, so only
        // the tail needs reading — the fast path is O(tail), not
        // O(log).
        let found = read_wal_tail(&wal_path, wal_len, snap_applied)?;
        if found.covered < snap_applied {
            // The log does not reach the offset the snapshot claims —
            // cannot happen for a store whose compaction fsyncs first;
            // treat as unusable.
            skipped.push(path);
            continue;
        }
        chosen = Some((snap_applied, wal_len, engine, path, found));
        break;
    }
    let Some((snapshot_applied, tail_offset, mut engine, snapshot_path, found)) = chosen else {
        return Err(StoreError::NoSnapshot {
            dir: dir.to_path_buf(),
        });
    };
    ld_obs::counter("recover.snapshots_skipped").add(skipped.len() as u64);
    let records = found.covered + found.scan.records();
    let capped = cap.is_some();
    let cap = cap.unwrap_or(records);
    if records < cap {
        return Err(StoreError::Corrupt {
            path: wal_path,
            reason: format!(
                "capped recovery needs {cap} records but the valid prefix holds {records}"
            ),
        });
    }
    let torn = match &found.scan.tail {
        TailStatus::Clean => None,
        TailStatus::Torn(t) => Some(t.clone()),
    };
    let take = (cap - snapshot_applied) as usize;
    let tail = &found.scan.updates[..take];
    // A capped cut's byte offset: the tail start plus the exact framed
    // size of every replayed record (framing is deterministic per
    // update).
    let mut cut = tail_offset;
    let mut scratch = Vec::with_capacity(32);
    for (i, u) in tail.iter().enumerate() {
        engine.apply(*u).map_err(|r| StoreError::Replay {
            record: snapshot_applied + i as u64,
            reason: r.to_string(),
        })?;
        if capped {
            scratch.clear();
            cut += crate::wal::encode_record(u, &mut scratch) as u64;
        }
    }
    ld_obs::counter("recover.replayed").add(tail.len() as u64);
    Ok((
        Recovery {
            engine,
            snapshot_path,
            snapshot_applied,
            tail_offset,
            replayed: tail.len() as u64,
            records,
            torn,
            snapshots_skipped: skipped,
        },
        cut,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_core::delegation::{Action, DelegationGraph};

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ld-store-store-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn fresh_engine(n: usize) -> LiveEngine {
        LiveEngine::new(vec![Action::Vote; n], vec![0.6; n]).unwrap()
    }

    fn drive(n: usize, updates: usize, seed: u64) -> Vec<Update> {
        use ld_live::workload::{Trace, TraceConfig};
        Trace::new(TraceConfig::balanced(n), seed)
            .unwrap()
            .take(updates)
            .collect()
    }

    fn assert_same(a: &LiveEngine, b: &LiveEngine) {
        assert_eq!(a.resolution(), b.resolution());
        assert_eq!(a.actions(), b.actions());
        assert_eq!(a.competences(), b.competences());
        assert_eq!(a.depths(), b.depths());
    }

    #[test]
    fn recover_equals_uncrashed_engine_with_and_without_snapshots() {
        let dir = tmp_dir("roundtrip");
        let n = 40;
        let mut engine = fresh_engine(n);
        let mut store = Store::create(
            &dir,
            &engine,
            StoreOptions {
                sync_every: 8,
                snapshot_every: 64,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        for u in drive(n, 500, 17) {
            if engine.apply(u).is_ok() {
                store.append(&u).unwrap();
            }
            store.maybe_compact(&engine).unwrap();
        }
        store.sync().unwrap();
        assert!(store.last_snapshot() > 0, "compaction ran");
        drop(store);

        let fast = recover(&dir).unwrap();
        assert_same(&fast.engine, &engine);
        assert!(fast.snapshot_applied > 0, "fast path used a snapshot");
        assert!(fast.torn.is_none());
        fast.engine.self_check().unwrap();

        let slow = recover_with(&dir, RecoverMode::FullReplay).unwrap();
        assert_eq!(slow.snapshot_applied, 0);
        assert_eq!(slow.replayed, slow.records);
        assert_same(&slow.engine, &engine);

        // Bit-identical to a from-scratch resolve of the final actions.
        let scratch = DelegationGraph::new(fast.engine.actions().to_vec())
            .resolve()
            .unwrap();
        assert_eq!(scratch, fast.engine.resolution());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_older() {
        let dir = tmp_dir("fallback");
        let n = 20;
        let mut engine = fresh_engine(n);
        let mut store = Store::create(&dir, &engine, StoreOptions::default()).unwrap();
        for u in drive(n, 200, 3) {
            if engine.apply(u).is_ok() {
                store.append(&u).unwrap();
            }
        }
        let snap = store.compact(&engine).unwrap();
        drop(store);
        // Flip a byte inside the newest snapshot.
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&snap, &bytes).unwrap();

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.snapshot_applied, 0, "fell back to genesis");
        assert_eq!(rec.snapshots_skipped.len(), 1);
        assert_same(&rec.engine, &engine);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_continues_appending_after_a_torn_tail() {
        let dir = tmp_dir("resume");
        let n = 20;
        let mut engine = fresh_engine(n);
        let mut store = Store::create(&dir, &engine, StoreOptions::default()).unwrap();
        let us = drive(n, 120, 5);
        for u in &us[..100] {
            if engine.apply(*u).is_ok() {
                store.append(u).unwrap();
            }
        }
        store.sync().unwrap();
        drop(store);
        // Tear the tail by hand.
        {
            use std::io::Write;
            let mut f = std::fs::File::options()
                .append(true)
                .open(dir.join(WAL_FILE))
                .unwrap();
            f.write_all(&[9, 0, 0, 0, 1, 2]).unwrap();
        }
        let (mut store, rec) = Store::resume(&dir, StoreOptions::default()).unwrap();
        assert!(rec.torn.is_some());
        let mut engine2 = rec.engine;
        assert_same(&engine2, &engine);
        for u in &us[100..] {
            if engine2.apply(*u).is_ok() {
                engine.apply(*u).unwrap();
                store.append(u).unwrap();
            }
        }
        store.sync().unwrap();
        drop(store);
        let back = recover(&dir).unwrap();
        assert_same(&back.engine, &engine2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn capped_recovery_cuts_at_the_record_boundary_and_resumes() {
        let dir = tmp_dir("capped");
        let n = 30;
        let mut engine = fresh_engine(n);
        let mut store = Store::create(&dir, &engine, StoreOptions::default()).unwrap();
        let us = drive(n, 400, 11);
        let mut accepted = Vec::new();
        let mut snapshot_at_200_done = false;
        for u in &us {
            if engine.apply(*u).is_ok() {
                store.append(u).unwrap();
                accepted.push(*u);
            }
            // Compact once past 200 accepted records, so the newest
            // snapshot lies BEYOND the cap below and capped recovery
            // must fall back to an older snapshot.
            if !snapshot_at_200_done && accepted.len() >= 200 {
                store.compact(&engine).unwrap();
                snapshot_at_200_done = true;
            }
        }
        store.sync().unwrap();
        drop(store);

        let cap = 120u64;
        let (rec, _cut) = recover_capped(&dir, cap).unwrap();
        assert_eq!(rec.snapshot_applied, 0, "fell back to genesis");
        assert_eq!(rec.replayed, cap);
        // Bit-identical to replaying exactly the first `cap` accepted
        // updates from scratch.
        let mut prefix = fresh_engine(n);
        for u in &accepted[..cap as usize] {
            prefix.apply(*u).unwrap();
        }
        assert_same(&rec.engine, &prefix);

        // Resuming capped truncates the log: a plain recover now sees
        // exactly `cap` records, and appends continue from there.
        let (mut store, rec2) = Store::resume_capped(&dir, StoreOptions::default(), cap).unwrap();
        assert_same(&rec2.engine, &prefix);
        let extra = Update::Competence { voter: 0, p: 0.5 };
        prefix.apply(extra).unwrap();
        store.append(&extra).unwrap();
        store.sync().unwrap();
        drop(store);
        let back = recover(&dir).unwrap();
        assert_eq!(back.records, cap + 1);
        assert_same(&back.engine, &prefix);

        // A cap beyond the valid log is a typed corruption error.
        assert!(matches!(
            recover_capped(&dir, 10_000),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_store_is_a_typed_error() {
        let dir = tmp_dir("missing");
        assert!(matches!(recover(&dir), Err(StoreError::Io { .. })));
        std::fs::create_dir_all(&dir).unwrap();
        // A WAL but no snapshot at all.
        let clock = FaultClock::new(FaultPlan::none());
        WalWriter::create(&dir.join(WAL_FILE), clock, 0).unwrap();
        assert!(matches!(recover(&dir), Err(StoreError::NoSnapshot { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }
}
