//! Binary snapshots: the compacted form of the event log.
//!
//! A snapshot freezes a [`LiveEngine`]'s full resolved state — inputs
//! *and* outputs — as flat little-endian sections, CRC32-sealed:
//!
//! ```text
//! [magic "LDSNAPS1": 8]
//! [version: u32][flags: u32]
//! [n: u64][applied: u64][discarded: u64][delegators: u64][wal_len: u64]
//! [actions:    n × u32]                 (VOTE / ABSTAIN sentinels, else target)
//! [competence: n × u64]                 (f64 bit patterns)
//! [depth:      n × u32]                 (chain depth in edges)
//! [arena:      (2n+1+tallied) × u32]    (sink_of, offsets, members)
//! [crc32 of everything after the magic: u32]
//! ```
//!
//! `applied` is the number of WAL records the snapshot incorporates —
//! the file is named `snapshot-<applied>.bin` — and `wal_len` is the
//! WAL byte length at compaction time, so recovery seeks straight to
//! the tail instead of walking `applied` frames. Because the resolved view (`sink_of` via
//! the arena, `depth`) is stored alongside the inputs, rehydration is
//! [`LiveEngine::from_resolved_parts`] — flat `O(n)` validation passes,
//! no resolver run, no JSON. The arena is the snapshot's own CSR
//! layout, built from the engine's `sink_of` by a counting sort:
//! `sink_of` (n words, [`DISCARDED`] for abstention chains), then
//! `offsets` (n + 1 words; sink `s`'s members are
//! `members[offsets[s]..offsets[s + 1]]`), then `members` (voter ids
//! grouped by sink). Only its `sink_of` prefix is read back; the offsets
//! and members sections are still written, sized and CRC-checked, so
//! the file format is unchanged.
//!
//! Writes are atomic and durable: temp file, streamed chunked writes
//! through the store's [`FaultClock`], fsync, rename into place, fsync
//! of the parent directory. A crash anywhere in that sequence leaves
//! either the old snapshot set or the new one — never a half-file
//! under the live name (and a half-written temp file fails the CRC
//! check, so even a confused reader rejects it).

use crate::crc::{crc32, Crc32};
use crate::fault::{FaultClock, FaultFile};
use crate::StoreError;
use ld_core::csr::DISCARDED;
use ld_core::delegation::Action;
use ld_live::LiveEngine;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Snapshot file magic.
pub const SNAP_MAGIC: [u8; 8] = *b"LDSNAPS1";
/// Current snapshot format version.
pub const SNAP_VERSION: u32 = 1;
/// Sentinel for [`Action::Vote`] in the actions section.
pub const ACTION_VOTE: u32 = u32::MAX;
/// Sentinel for [`Action::Abstain`] in the actions section.
pub const ACTION_ABSTAIN: u32 = u32::MAX - 1;

/// Fixed bytes before the variable sections (magic through
/// `wal_len`).
const FIXED_HEADER: usize = 8 + 4 + 4 + 8 * 5;

/// Chunk size for streamed section writes: bounds both peak memory and
/// the granularity of injected faults without making the I/O-op count
/// depend on timing.
const WRITE_CHUNK: usize = 1 << 22;

/// The file name for a snapshot incorporating `applied` WAL records
/// (zero-padded so lexical order is numeric order).
pub fn snapshot_file_name(applied: u64) -> String {
    format!("snapshot-{applied:020}.bin")
}

/// Parses a snapshot file name back to its `applied` count.
pub fn parse_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix("snapshot-")?
        .strip_suffix(".bin")?
        .parse()
        .ok()
}

fn push_u32s(buf: &mut Vec<u8>, it: impl Iterator<Item = u32>) {
    for v in it {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Builds the CSR arena for the engine's current state by counting
/// sort over `sink_of` — `O(n)`, no chain chased.
fn engine_arena(engine: &LiveEngine) -> Vec<u32> {
    let n = engine.n();
    let tallied = engine.tallied();
    let mut arena = vec![0u32; 2 * n + 1 + tallied];
    let (sink_of, rest) = arena.split_at_mut(n);
    let (offsets, members) = rest.split_at_mut(n + 1);
    for (v, slot) in sink_of.iter_mut().enumerate() {
        *slot = match engine.sink_of(v) {
            Some(s) => s as u32,
            None => DISCARDED,
        };
    }
    for &s in sink_of.iter() {
        if s != DISCARDED {
            offsets[s as usize + 1] += 1;
        }
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor: Vec<u32> = offsets[..n].to_vec();
    for (v, &s) in sink_of.iter().enumerate() {
        if s != DISCARDED {
            members[cursor[s as usize] as usize] = v as u32;
            cursor[s as usize] += 1;
        }
    }
    arena
}

fn write_chunked(file: &mut FaultFile, crc: &mut Crc32, bytes: &[u8]) -> std::io::Result<()> {
    for chunk in bytes.chunks(WRITE_CHUNK.max(1)) {
        file.write_all(chunk)?;
        crc.update(chunk);
    }
    Ok(())
}

/// Writes `engine`'s state as `snapshot-<applied>.bin` in `dir`,
/// atomically and durably; returns the final path.
///
/// # Errors
///
/// [`StoreError::Io`] on any filesystem failure (including injected
/// faults) — in which case the temp file may linger but the live
/// snapshot set is untouched.
pub fn write_snapshot(
    dir: &Path,
    engine: &LiveEngine,
    applied: u64,
    wal_len: u64,
    clock: &Arc<FaultClock>,
) -> Result<PathBuf, StoreError> {
    let _span = ld_obs::span("snapshot.save_ns");
    let n = engine.n();
    let path = dir.join(snapshot_file_name(applied));
    let tmp = path.with_extension("bin.tmp");
    let ioerr = StoreError::io("write snapshot", &tmp);
    let file = File::options()
        .create(true)
        .truncate(true)
        .write(true)
        .open(&tmp)
        .map_err(&ioerr)?;
    let mut file = FaultFile::new(file, Arc::clone(clock));
    let mut crc = Crc32::new();

    let mut head = Vec::with_capacity(FIXED_HEADER);
    head.extend_from_slice(&SNAP_MAGIC);
    head.extend_from_slice(&SNAP_VERSION.to_le_bytes());
    head.extend_from_slice(&0u32.to_le_bytes());
    for meta in [
        n as u64,
        applied,
        engine.discarded() as u64,
        engine.delegators() as u64,
        wal_len,
    ] {
        head.extend_from_slice(&meta.to_le_bytes());
    }
    file.write_all(&head).map_err(&ioerr)?;
    crc.update(&head[8..]);

    let mut section = Vec::with_capacity(8 * n.max(1));
    push_u32s(
        &mut section,
        engine.actions().iter().map(|a| match a {
            Action::Vote => ACTION_VOTE,
            Action::Abstain => ACTION_ABSTAIN,
            Action::Delegate(t) => *t as u32,
            // `LiveEngine` state is single-target by construction.
            _ => unreachable!("live engine holds single-target actions"),
        }),
    );
    write_chunked(&mut file, &mut crc, &section).map_err(&ioerr)?;

    section.clear();
    for &p in engine.competences() {
        section.extend_from_slice(&p.to_bits().to_le_bytes());
    }
    write_chunked(&mut file, &mut crc, &section).map_err(&ioerr)?;

    section.clear();
    push_u32s(&mut section, engine.depths().iter().copied());
    write_chunked(&mut file, &mut crc, &section).map_err(&ioerr)?;

    section.clear();
    push_u32s(&mut section, engine_arena(engine).into_iter());
    write_chunked(&mut file, &mut crc, &section).map_err(&ioerr)?;

    file.write_all(&crc.finish().to_le_bytes())
        .map_err(&ioerr)?;
    file.sync_data().map_err(&ioerr)?;
    std::fs::rename(&tmp, &path).map_err(StoreError::io("rename snapshot", &path))?;
    crate::fsync_parent_dir(&path).map_err(StoreError::io("fsync snapshot dir", &path))?;
    ld_obs::counter("snapshot.saves").incr();
    Ok(path)
}

/// An opened, fully-validated snapshot; sections are decoded on
/// demand.
#[derive(Debug)]
pub struct Snapshot {
    bytes: Vec<u8>,
    path: PathBuf,
    n: usize,
    applied: u64,
    wal_len: u64,
}

impl Snapshot {
    /// Opens and validates `path`: magic, version, section geometry,
    /// and the trailing CRC32 over the whole file.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the file cannot be read,
    /// [`StoreError::Corrupt`] for any validation failure — including a
    /// half-written temp file that was never renamed.
    pub fn open(path: &Path) -> Result<Snapshot, StoreError> {
        let bytes = std::fs::read(path).map_err(StoreError::io("open snapshot", path))?;
        let b = bytes.as_slice();
        let corrupt = |reason: String| StoreError::Corrupt {
            path: path.to_path_buf(),
            reason,
        };
        if b.len() < FIXED_HEADER + 4 {
            return Err(corrupt(format!("file too short ({} bytes)", b.len())));
        }
        if b[..8] != SNAP_MAGIC {
            return Err(corrupt("bad snapshot magic".to_string()));
        }
        let version = u32::from_le_bytes(b[8..12].try_into().expect("4 bytes"));
        if version != SNAP_VERSION {
            return Err(corrupt(format!(
                "unsupported snapshot version {version} (this build reads {SNAP_VERSION})"
            )));
        }
        let u64_at = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"));
        let n = u64_at(16);
        let applied = u64_at(24);
        let discarded = u64_at(32);
        let delegators = u64_at(40);
        let wal_len = u64_at(48);
        let n_us = usize::try_from(n).map_err(|_| corrupt(format!("n={n} overflows usize")))?;
        if n_us >= (u32::MAX - 1) as usize {
            return Err(corrupt(format!("n={n} exceeds the engine voter bound")));
        }
        if discarded > n || delegators > n {
            return Err(corrupt(format!(
                "counters exceed n={n}: discarded={discarded}, delegators={delegators}"
            )));
        }
        if wal_len < crate::wal::WAL_HEADER_LEN as u64 {
            return Err(corrupt(format!(
                "wal tail offset {wal_len} is inside the WAL header"
            )));
        }
        let tallied = n_us - discarded as usize;
        let expect =
            FIXED_HEADER + 4 * n_us + 8 * n_us + 4 * n_us + 4 * (2 * n_us + 1 + tallied) + 4;
        if b.len() != expect {
            return Err(corrupt(format!(
                "file is {} bytes, expected {expect} for n={n}",
                b.len()
            )));
        }
        let stored = u32::from_le_bytes(b[b.len() - 4..].try_into().expect("4 bytes"));
        let computed = crc32(&b[8..b.len() - 4]);
        if stored != computed {
            return Err(corrupt(format!(
                "crc mismatch (stored {stored:#010x}, computed {computed:#010x})"
            )));
        }
        ld_obs::counter("snapshot.loads").incr();
        Ok(Snapshot {
            bytes,
            path: path.to_path_buf(),
            n: n_us,
            applied,
            wal_len,
        })
    }

    /// Number of voters.
    pub fn n(&self) -> usize {
        self.n
    }

    /// WAL records this snapshot incorporates.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// WAL byte length at compaction time — where the replay tail
    /// begins.
    pub fn wal_len(&self) -> u64 {
        self.wal_len
    }

    /// The file this snapshot was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn u32_section(&self, start: usize, count: usize) -> impl Iterator<Item = u32> + '_ {
        let b = &self.bytes[start..start + 4 * count];
        b.chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
    }

    fn actions_at(&self) -> usize {
        FIXED_HEADER
    }
    fn competence_at(&self) -> usize {
        self.actions_at() + 4 * self.n
    }
    fn depth_at(&self) -> usize {
        self.competence_at() + 8 * self.n
    }
    fn arena_at(&self) -> usize {
        self.depth_at() + 4 * self.n
    }

    /// Decodes the action vector.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] for a target that is neither a sentinel
    /// nor in range.
    pub fn actions(&self) -> Result<Vec<Action>, StoreError> {
        let n = self.n;
        self.u32_section(self.actions_at(), n)
            .enumerate()
            .map(|(v, raw)| match raw {
                ACTION_VOTE => Ok(Action::Vote),
                ACTION_ABSTAIN => Ok(Action::Abstain),
                t if (t as usize) < n => Ok(Action::Delegate(t as usize)),
                t => Err(StoreError::Corrupt {
                    path: self.path.clone(),
                    reason: format!("voter {v} has out-of-range action target {t}"),
                }),
            })
            .collect()
    }

    /// Decodes the competence vector (exact stored bit patterns).
    pub fn competences(&self) -> Vec<f64> {
        let b = &self.bytes[self.competence_at()..self.competence_at() + 8 * self.n];
        b.chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .collect()
    }

    /// Decodes the per-voter depth vector.
    pub fn depths(&self) -> Vec<u32> {
        self.u32_section(self.depth_at(), self.n).collect()
    }

    /// Rehydrates a [`LiveEngine`] — validated flat passes, no resolver
    /// run (see [`LiveEngine::from_resolved_parts`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] if decoding or consistency validation
    /// fails.
    pub fn to_engine(&self) -> Result<LiveEngine, StoreError> {
        let actions = self.actions()?;
        let competence = self.competences();
        let sink_of: Vec<Option<usize>> = self
            .u32_section(self.arena_at(), self.n)
            .map(|s| {
                if s == DISCARDED {
                    None
                } else {
                    Some(s as usize)
                }
            })
            .collect();
        let engine = LiveEngine::from_resolved_parts(actions, competence, sink_of, self.depths())
            .map_err(|e| StoreError::Corrupt {
            path: self.path.clone(),
            reason: format!("engine rehydration rejected snapshot: {e}"),
        })?;
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use ld_live::Update;

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ld-store-snap-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn small_engine() -> LiveEngine {
        let mut e =
            LiveEngine::new(vec![Action::Vote; 6], vec![0.5, 0.6, 0.7, 0.8, 0.55, 0.65]).unwrap();
        for u in [
            Update::Delegate {
                voter: 0,
                target: 1,
            },
            Update::Delegate {
                voter: 1,
                target: 2,
            },
            Update::Abstain { voter: 3 },
            Update::Delegate {
                voter: 4,
                target: 3,
            },
            Update::Competence { voter: 2, p: 0.91 },
        ] {
            e.apply(u).unwrap();
        }
        e
    }

    #[test]
    fn snapshot_round_trips_engine_and_csr() {
        let dir = tmp_dir("roundtrip");
        let engine = small_engine();
        let clock = FaultClock::new(FaultPlan::none());
        let path = write_snapshot(&dir, &engine, 5, 121, &clock).unwrap();
        assert_eq!(
            parse_snapshot_name(path.file_name().unwrap().to_str().unwrap()),
            Some(5)
        );
        let snap = Snapshot::open(&path).unwrap();
        assert_eq!(snap.n(), 6);
        assert_eq!(snap.applied(), 5);
        let back = snap.to_engine().unwrap();
        assert_eq!(back.resolution(), engine.resolution());
        assert_eq!(back.actions(), engine.actions());
        assert_eq!(back.competences(), engine.competences());
        assert_eq!(back.depths(), engine.depths());
        back.self_check().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_corrupted_byte_is_rejected() {
        let dir = tmp_dir("corrupt");
        let engine = small_engine();
        let clock = FaultClock::new(FaultPlan::none());
        let path =
            write_snapshot(&dir, &engine, 0, crate::wal::WAL_HEADER_LEN as u64, &clock).unwrap();
        let good = std::fs::read(&path).unwrap();
        let bent_path = dir.join("bent.bin");
        for i in 0..good.len() {
            let mut bent = good.clone();
            bent[i] ^= 0x04;
            std::fs::write(&bent_path, &bent).unwrap();
            let opened = Snapshot::open(&bent_path);
            let ok = opened.and_then(|s| s.to_engine()).is_ok();
            assert!(!ok, "flip at byte {i} slipped through validation");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncations_are_rejected() {
        let dir = tmp_dir("trunc");
        let engine = small_engine();
        let clock = FaultClock::new(FaultPlan::none());
        let path =
            write_snapshot(&dir, &engine, 0, crate::wal::WAL_HEADER_LEN as u64, &clock).unwrap();
        let good = std::fs::read(&path).unwrap();
        let cut_path = dir.join("cut.bin");
        for cut in 0..good.len() {
            std::fs::write(&cut_path, &good[..cut]).unwrap();
            assert!(Snapshot::open(&cut_path).is_err(), "cut at {cut}");
        }
        std::fs::remove_file(&cut_path).unwrap();
        let missing = Snapshot::open(&cut_path);
        assert!(matches!(missing, Err(StoreError::Io { .. })), "{missing:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_names_sort_numerically() {
        let mut names = [
            snapshot_file_name(10),
            snapshot_file_name(2),
            snapshot_file_name(100),
            snapshot_file_name(0),
        ];
        names.sort();
        let parsed: Vec<u64> = names
            .iter()
            .map(|s| parse_snapshot_name(s).unwrap())
            .collect();
        assert_eq!(parsed, vec![0, 2, 10, 100]);
        assert_eq!(parse_snapshot_name("snapshot-x.bin"), None);
        assert_eq!(parse_snapshot_name("events.wal"), None);
    }
}
