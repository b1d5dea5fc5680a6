//! Stable voter identity: opaque byte keys interned to dense ids.
//!
//! The engines, WALs, and wire updates all speak dense `u32` voter ids
//! (`0..n`), but clients hold opaque identity keys — public keys,
//! account handles, whatever the deployment uses. The [`IdentityMap`]
//! interns keys to ids first-come-first-served; [`IdentityLog`] makes
//! the assignment durable as an [`ld_store::log::AppendLog`] — the same
//! frame codec as the `ld-store` WAL, one key per frame — so a restarted
//! service hands every returning key the exact id its votes were logged
//! under. Losing that mapping would silently re-key the electorate,
//! which is why registration fsyncs per entry (registration is rare;
//! updates are the hot path).
//!
//! The log's policy differs from the WAL's. The WAL truncates at its
//! first bad frame, because its writer keeps appending after a silently
//! damaged record; each identity record is fsynced before the next, so
//! only a torn final record (or a torn magic) is a crash artifact and is
//! truncated, and a damaged earlier record, which would re-key every
//! voter after it, is an error naming its byte offset.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use ld_store::log::AppendLog;
use ld_store::StoreError;

/// Longest accepted identity key, in bytes. Generous for hashes and
/// handles while keeping wire frames and log records small.
pub const MAX_KEY_LEN: usize = 64;

/// File name of the durable identity log inside an election directory.
pub const IDENTITY_FILE: &str = "identity.log";

/// Magic + version header of the identity log.
const IDENTITY_MAGIC: [u8; 8] = *b"LDIDN\x1a\x00\x01";

/// Why a key could not be registered or replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IdentityError {
    /// The key is already registered, to the returned id.
    Duplicate {
        /// The id the key already maps to.
        id: u32,
    },
    /// Empty keys are reserved (they cannot round-trip usefully).
    EmptyKey,
    /// The key exceeds [`MAX_KEY_LEN`].
    KeyTooLong {
        /// The offending key length.
        len: usize,
    },
    /// Every dense id is taken; the election was sized for `capacity`.
    Full {
        /// The fixed electorate size.
        capacity: u32,
    },
    /// A filesystem operation on the identity log failed.
    Io {
        /// What was being attempted.
        op: &'static str,
        /// The log path.
        path: PathBuf,
        /// Stringified source error (kept `Clone` for test plumbing).
        message: String,
    },
    /// The identity log exists but fails structural validation.
    Corrupt {
        /// The log path.
        path: PathBuf,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for IdentityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IdentityError::Duplicate { id } => {
                write!(f, "key already registered as voter {id}")
            }
            IdentityError::EmptyKey => write!(f, "identity keys must be non-empty"),
            IdentityError::KeyTooLong { len } => {
                write!(
                    f,
                    "identity key of {len} bytes exceeds the {MAX_KEY_LEN}-byte cap"
                )
            }
            IdentityError::Full { capacity } => {
                write!(f, "all {capacity} voter ids are registered")
            }
            IdentityError::Io { op, path, message } => {
                write!(f, "{op} ({}): {message}", path.display())
            }
            IdentityError::Corrupt { path, reason } => {
                write!(f, "corrupt identity log {}: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for IdentityError {}

/// In-memory key interner: opaque byte keys to dense ids `0..capacity`,
/// assigned in registration order.
#[derive(Debug, Clone, Default)]
pub struct IdentityMap {
    ids: HashMap<Box<[u8]>, u32>,
    keys: Vec<Box<[u8]>>,
    capacity: u32,
}

impl IdentityMap {
    /// An empty map that will hand out at most `capacity` ids.
    #[must_use]
    pub fn with_capacity(capacity: u32) -> Self {
        IdentityMap {
            ids: HashMap::new(),
            keys: Vec::new(),
            capacity,
        }
    }

    /// The id `key` would be registered to, without registering it.
    fn admit(&self, key: &[u8]) -> Result<u32, IdentityError> {
        if key.is_empty() {
            return Err(IdentityError::EmptyKey);
        }
        if key.len() > MAX_KEY_LEN {
            return Err(IdentityError::KeyTooLong { len: key.len() });
        }
        if let Some(&id) = self.ids.get(key) {
            return Err(IdentityError::Duplicate { id });
        }
        let id = u32::try_from(self.keys.len()).expect("ids bounded by u32 capacity");
        if id >= self.capacity {
            return Err(IdentityError::Full {
                capacity: self.capacity,
            });
        }
        Ok(id)
    }

    /// Interns `key`, returning its fresh dense id.
    ///
    /// # Errors
    ///
    /// Typed [`IdentityError`] for duplicates, empty or oversized keys,
    /// and a full electorate; the map is unchanged on error.
    pub fn register(&mut self, key: &[u8]) -> Result<u32, IdentityError> {
        let id = self.admit(key)?;
        let owned: Box<[u8]> = key.into();
        self.ids.insert(owned.clone(), id);
        self.keys.push(owned);
        Ok(id)
    }

    /// The id a key maps to, if registered.
    #[must_use]
    pub fn lookup(&self, key: &[u8]) -> Option<u32> {
        self.ids.get(key).copied()
    }

    /// The key a dense id was assigned to, if any.
    #[must_use]
    pub fn key_of(&self, id: u32) -> Option<&[u8]> {
        self.keys.get(id as usize).map(|k| &**k)
    }

    /// Number of registered keys.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.keys.len() as u32
    }

    /// Whether no key is registered yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The fixed id capacity.
    #[must_use]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }
}

/// The durable identity map: [`IdentityMap`] plus an append-only log
/// whose replay reproduces the exact key-to-id assignment.
#[derive(Debug)]
pub struct IdentityLog {
    map: IdentityMap,
    log: AppendLog,
}

impl IdentityLog {
    /// Opens (or creates) the identity log at `path`, replaying every
    /// whole record into a fresh map of `capacity` ids. A torn tail —
    /// the crash mid-append case — is truncated away, and so is a torn
    /// magic (a crash mid-creation); a corrupt *interior* record is an
    /// error.
    ///
    /// # Errors
    ///
    /// [`IdentityError::Io`] on filesystem failure, `Corrupt` when the
    /// header or an interior record fails validation or the log holds
    /// more keys than `capacity`.
    pub fn open(path: &Path, capacity: u32) -> Result<IdentityLog, IdentityError> {
        let mut map = IdentityMap::with_capacity(capacity);
        // One frame per registration: its payload is the key.
        let key_lens = 1..=MAX_KEY_LEN as u32;
        let log = AppendLog::open(path, IDENTITY_MAGIC, key_lens, |key| {
            map.register(key)
                .map(drop)
                .map_err(|e| format!("replayed record rejected: {e}"))
        })
        .map_err(log_error)?;
        Ok(IdentityLog { map, log })
    }

    /// Registers a key durably: the log record is appended and fsynced
    /// *before* the in-memory map commits, so a crash can lose at most
    /// an unacknowledged registration, never invent one.
    ///
    /// # Errors
    ///
    /// Validation errors from [`IdentityMap::register`], or
    /// [`IdentityError::Io`] if the append fails (the map is unchanged).
    pub fn register(&mut self, key: &[u8]) -> Result<u32, IdentityError> {
        self.map.admit(key)?;
        self.log
            .append(|out| out.extend_from_slice(key))
            .map_err(log_error)?;
        self.map.register(key)
    }

    /// The replayed/committed in-memory view.
    #[must_use]
    pub fn map(&self) -> &IdentityMap {
        &self.map
    }
}

/// An identity-log error as an [`IdentityError`]: damage is
/// [`IdentityError::Corrupt`], a filesystem failure [`IdentityError::Io`].
fn log_error(e: StoreError) -> IdentityError {
    match e {
        StoreError::Corrupt { path, reason } => IdentityError::Corrupt { path, reason },
        StoreError::Io { op, path, source } => IdentityError::Io {
            op,
            path,
            message: source.to_string(),
        },
        // An append log fails only with the two above.
        e => IdentityError::Corrupt {
            path: PathBuf::new(),
            reason: e.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_store::log::FRAME_HEADER_LEN;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ld-serve-identity-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir.join(IDENTITY_FILE)
    }

    #[test]
    fn registers_dense_ids_and_rejects_bad_keys() {
        let mut map = IdentityMap::with_capacity(2);
        assert_eq!(map.register(b"alice"), Ok(0));
        assert_eq!(map.register(b"bob"), Ok(1));
        assert_eq!(
            map.register(b"alice"),
            Err(IdentityError::Duplicate { id: 0 })
        );
        assert_eq!(
            map.register(b"carol"),
            Err(IdentityError::Full { capacity: 2 })
        );
        assert_eq!(map.register(b""), Err(IdentityError::EmptyKey));
        assert_eq!(
            map.register(&[7u8; MAX_KEY_LEN + 1]),
            Err(IdentityError::KeyTooLong {
                len: MAX_KEY_LEN + 1
            })
        );
        assert_eq!(map.lookup(b"bob"), Some(1));
        assert_eq!(map.key_of(0), Some(&b"alice"[..]));
        assert_eq!(map.key_of(9), None);
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn log_replay_reproduces_the_assignment() {
        let path = tmp("replay");
        let keys: Vec<Vec<u8>> = (0..40u32)
            .map(|k| format!("voter-{k}").into_bytes())
            .collect();
        {
            let mut log = IdentityLog::open(&path, 64).expect("open fresh");
            for key in &keys {
                log.register(key).expect("register");
            }
            assert_eq!(
                log.register(&keys[3]),
                Err(IdentityError::Duplicate { id: 3 })
            );
        }
        let log = IdentityLog::open(&path, 64).expect("reopen");
        for (id, key) in keys.iter().enumerate() {
            assert_eq!(log.map().lookup(key), Some(id as u32), "key {id}");
        }
        assert_eq!(log.map().len(), 40);
    }

    #[test]
    fn torn_tail_is_truncated_but_interior_corruption_is_typed() {
        let path = tmp("torn");
        {
            let mut log = IdentityLog::open(&path, 8).expect("open");
            log.register(b"alice").expect("a");
            log.register(b"bob").expect("b");
        }
        let whole = std::fs::read(&path).expect("read log");
        // Chop mid-record: replay keeps the whole prefix only.
        std::fs::write(&path, &whole[..whole.len() - 2]).expect("tear");
        let log = IdentityLog::open(&path, 8).expect("reopen torn");
        assert_eq!(log.map().lookup(b"alice"), Some(0));
        assert_eq!(log.map().lookup(b"bob"), None, "torn record dropped");
        assert_eq!(
            std::fs::metadata(&path).expect("stat").len(),
            whole.len() as u64 - (FRAME_HEADER_LEN as u64 + 3),
            "torn frame physically truncated"
        );
        // Interior flip: typed corruption, not silent truncation.
        let mut evil = whole.clone();
        let flip_at = IDENTITY_MAGIC.len() + FRAME_HEADER_LEN; // first key byte
        evil[flip_at] ^= 0xFF;
        std::fs::write(&path, &evil).expect("corrupt");
        match IdentityLog::open(&path, 8) {
            Err(IdentityError::Corrupt { reason, .. }) => {
                assert!(reason.contains("CRC"), "got: {reason}")
            }
            other => panic!("interior corruption not detected: {other:?}"),
        }
    }
}
