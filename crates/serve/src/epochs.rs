//! The epoch barrier log and election meta file.
//!
//! The WAL may run ahead of what was published: updates appended after
//! the last barrier can reach the disk before a crash. The epoch log is
//! the commit point: at every publish the WAL is fsynced first, then
//! one `epochs.log` record captures the accepted-record count plus the
//! tally digest. Recovery reads the last whole record and *caps* the
//! WAL replay at its count ([`ld_store::Store::resume_capped`]),
//! reconstructing exactly the engine state behind the last published
//! epoch — and the digest proves it, bit for bit.
//!
//! `epochs.log` is an [`ld_store::log::AppendLog`], framed by the one
//! codec the WAL also uses, after an 8-byte magic. The two differ in
//! policy: the WAL truncates at its first bad frame, because its writer
//! keeps appending after a silently damaged record, while each epoch
//! record is fsynced before the next, so only a torn final record (or a
//! torn magic) is a crash artifact and is truncated, and damage to an
//! earlier one is an error naming its byte offset.
//!
//! Both files keep the layout of the earlier multi-shard service with
//! the shard count fixed at 1: `serve.meta` stores `shards = 1` and
//! each epoch record one count, so existing election directories open
//! unchanged.

use std::fs::File;
use std::io::Write;
use std::path::Path;

use ld_store::crc::crc32;
use ld_store::log::AppendLog;
use ld_store::StoreError;

use crate::{ServeError, MAX_VOTERS};

/// File name of the epoch barrier log inside an election directory.
pub const EPOCHS_FILE: &str = "epochs.log";

/// File name of the election meta file inside an election directory.
pub const META_FILE: &str = "serve.meta";

const EPOCHS_MAGIC: [u8; 8] = *b"LDEPO\x1a\x00\x01";
const META_MAGIC: [u8; 8] = *b"LDSRV\x1a\x00\x01";

/// The shard count the on-disk formats record; always 1.
const SHARDS: u32 = 1;

/// One committed epoch: the cut the service published.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochEntry {
    /// Monotonic epoch counter (first published epoch is 1).
    pub epoch: u64,
    /// Accepted records in the WAL at the barrier (the replay cap).
    pub records: u64,
    /// [`crate::tally::tally_digest`] of the published tally.
    pub digest: u64,
    /// Cumulative accepted updates at the barrier.
    pub applied: u64,
    /// Cumulative rejected updates at the barrier.
    pub rejected: u64,
}

impl EpochEntry {
    /// Payload bytes: epoch, shard count, one record count, digest,
    /// applied, rejected.
    const PAYLOAD_LEN: usize = 8 + 4 + 8 + 8 + 8 + 8;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&SHARDS.to_le_bytes());
        out.extend_from_slice(&self.records.to_le_bytes());
        out.extend_from_slice(&self.digest.to_le_bytes());
        out.extend_from_slice(&self.applied.to_le_bytes());
        out.extend_from_slice(&self.rejected.to_le_bytes());
    }

    /// Decodes a payload of exactly [`Self::PAYLOAD_LEN`] bytes.
    fn decode(payload: &[u8]) -> Result<EpochEntry, String> {
        let u64_at =
            |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().expect("8 bytes"));
        let k = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes"));
        if k != SHARDS {
            return Err(format!("epoch record for {k} shards"));
        }
        Ok(EpochEntry {
            epoch: u64_at(0),
            records: u64_at(12),
            digest: u64_at(20),
            applied: u64_at(28),
            rejected: u64_at(36),
        })
    }
}

/// The append-only epoch log: an [`AppendLog`] of [`EpochEntry`]
/// frames.
#[derive(Debug)]
pub struct EpochLog {
    log: AppendLog,
    last: Option<EpochEntry>,
}

impl EpochLog {
    /// Opens (or creates) `epochs.log` at `path`, replaying committed
    /// entries. A torn final record (crash mid-append) is truncated, and
    /// so is a torn magic (crash mid-creation); interior corruption and
    /// records of another shape are errors.
    ///
    /// # Errors
    ///
    /// [`ServeError::Meta`] on structural violations, [`ServeError::Io`]
    /// on filesystem failure.
    pub fn open(path: &Path) -> Result<EpochLog, ServeError> {
        let mut last = None;
        let lens = EpochEntry::PAYLOAD_LEN as u32..=EpochEntry::PAYLOAD_LEN as u32;
        let log = AppendLog::open(path, EPOCHS_MAGIC, lens, |payload| {
            last = Some(EpochEntry::decode(payload)?);
            Ok::<_, String>(())
        })
        .map_err(log_error)?;
        Ok(EpochLog { log, last })
    }

    /// The last committed epoch, if any.
    #[must_use]
    pub fn last(&self) -> Option<&EpochEntry> {
        self.last.as_ref()
    }

    /// Appends and fsyncs one epoch commit record.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on append failure (the entry is then *not*
    /// committed; recovery falls back to the previous epoch).
    pub fn append(&mut self, entry: &EpochEntry) -> Result<(), ServeError> {
        self.log
            .append(|out| entry.encode(out))
            .map_err(log_error)?;
        self.last = Some(entry.clone());
        Ok(())
    }
}

/// An epoch-log error as a [`ServeError`]: damage is
/// [`ServeError::Meta`], a filesystem failure [`ServeError::Io`].
fn log_error(e: StoreError) -> ServeError {
    match e {
        StoreError::Io { op, path, source } => ServeError::Io { op, path, source },
        StoreError::Corrupt { path, reason } => ServeError::Meta { path, reason },
        e => ServeError::Store(e),
    }
}

/// The immutable facts of a durable election, persisted at creation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Meta {
    /// Electorate size.
    pub n: u32,
    /// Initial competence assigned to every voter at creation.
    pub default_p: f64,
}

impl Meta {
    /// Writes `serve.meta` into `dir` (magic, fields, CRC), fsynced.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on filesystem failure.
    pub fn write(&self, dir: &Path) -> Result<(), ServeError> {
        let path = dir.join(META_FILE);
        let mut payload = Vec::with_capacity(16);
        payload.extend_from_slice(&self.n.to_le_bytes());
        payload.extend_from_slice(&SHARDS.to_le_bytes());
        payload.extend_from_slice(&self.default_p.to_bits().to_le_bytes());
        let mut bytes = Vec::with_capacity(28);
        bytes.extend_from_slice(&META_MAGIC);
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        let mut file = File::create(&path).map_err(ServeError::io("create meta", &path))?;
        file.write_all(&bytes)
            .map_err(ServeError::io("write meta", &path))?;
        file.sync_data()
            .map_err(ServeError::io("sync meta", &path))?;
        Ok(())
    }

    /// Reads and validates `serve.meta` from `dir`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Meta`] when structurally invalid, when it records
    /// more than [`MAX_VOTERS`] voters or a shard count other than 1;
    /// [`ServeError::Io`] when it cannot be read.
    pub fn read(dir: &Path) -> Result<Meta, ServeError> {
        let path = dir.join(META_FILE);
        let bytes = std::fs::read(&path).map_err(ServeError::io("read meta", &path))?;
        if bytes.len() != 28 || bytes[..8] != META_MAGIC {
            return Err(ServeError::Meta {
                path,
                reason: "bad magic or length".to_string(),
            });
        }
        let payload = &bytes[8..24];
        let stored = u32::from_le_bytes(bytes[24..28].try_into().expect("4 bytes"));
        if crc32(payload) != stored {
            return Err(ServeError::Meta {
                path,
                reason: "CRC mismatch".to_string(),
            });
        }
        let n = u32::from_le_bytes(payload[0..4].try_into().expect("4 bytes"));
        let shards = u32::from_le_bytes(payload[4..8].try_into().expect("4 bytes"));
        let reason = if n > MAX_VOTERS {
            format!("{n} voters exceeds the limit of {MAX_VOTERS}")
        } else if shards != SHARDS {
            format!("{shards} shards; only single-engine elections are supported")
        } else {
            return Ok(Meta {
                n,
                default_p: f64::from_bits(u64::from_le_bytes(
                    payload[8..16].try_into().expect("8 bytes"),
                )),
            });
        };
        Err(ServeError::Meta { path, reason })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ld-serve-epochs-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn entry(epoch: u64) -> EpochEntry {
        EpochEntry {
            epoch,
            records: epoch * 10,
            digest: 0x1234_5678_9ABC_DEF0 ^ epoch,
            applied: epoch * 10,
            rejected: epoch,
        }
    }

    /// Frames `payload` as the epoch log does.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn epoch_log_replays_the_last_committed_entry() {
        let dir = scratch("replay");
        let path = dir.join(EPOCHS_FILE);
        {
            let mut log = EpochLog::open(&path).expect("open");
            assert!(log.last().is_none());
            for e in 1..=5u64 {
                log.append(&entry(e)).expect("append");
            }
        }
        let log = EpochLog::open(&path).expect("reopen");
        assert_eq!(log.last(), Some(&entry(5)));
        // Torn tail: drop two bytes, the last whole entry wins.
        let whole = std::fs::read(&path).expect("read");
        std::fs::write(&path, &whole[..whole.len() - 2]).expect("tear");
        let log = EpochLog::open(&path).expect("reopen torn");
        assert_eq!(log.last(), Some(&entry(4)));
        // A whole record for 4 shards: typed error, not silent misparse.
        let mut four = 7u64.to_le_bytes().to_vec();
        four.extend_from_slice(&4u32.to_le_bytes());
        four.extend_from_slice(&[0u8; 8 * 4 + 24]);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(&frame(&four));
        std::fs::write(&path, &bytes).expect("append 4-shard record");
        assert!(matches!(
            EpochLog::open(&path),
            Err(ServeError::Meta { .. })
        ));
    }

    /// Writes a `serve.meta` with arbitrary fields and a valid CRC.
    fn write_raw_meta(dir: &Path, n: u32, shards: u32, default_p: f64) {
        let mut payload = n.to_le_bytes().to_vec();
        payload.extend_from_slice(&shards.to_le_bytes());
        payload.extend_from_slice(&default_p.to_bits().to_le_bytes());
        let mut bytes = META_MAGIC.to_vec();
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        std::fs::write(dir.join(META_FILE), bytes).expect("write meta");
    }

    #[test]
    fn meta_round_trips_and_validates() {
        let dir = scratch("meta");
        let meta = Meta {
            n: 10_000,
            default_p: 0.55,
        };
        meta.write(&dir).expect("write");
        assert_eq!(Meta::read(&dir).expect("read"), meta);
        let path = dir.join(META_FILE);
        let mut bytes = std::fs::read(&path).expect("read bytes");
        bytes[9] ^= 0x01;
        std::fs::write(&path, &bytes).expect("corrupt");
        assert!(matches!(Meta::read(&dir), Err(ServeError::Meta { .. })));
        // The same layout, written by hand, reads back.
        write_raw_meta(&dir, 10_000, 1, 0.55);
        assert_eq!(Meta::read(&dir).expect("read"), meta);
    }

    #[test]
    fn meta_refuses_many_shards_and_oversized_electorates() {
        let dir = scratch("meta-bounds");
        write_raw_meta(&dir, 1_000, 4, 0.5);
        assert!(matches!(Meta::read(&dir), Err(ServeError::Meta { .. })));
        write_raw_meta(&dir, u32::MAX, 1, 0.5);
        assert!(matches!(Meta::read(&dir), Err(ServeError::Meta { .. })));
        write_raw_meta(&dir, MAX_VOTERS, 1, 0.5);
        assert_eq!(Meta::read(&dir).expect("at the limit").n, MAX_VOTERS);
    }
}
