//! The one frame codec of the workspace: the WAL body, `epochs.log`,
//! `identity.log` and the `ld-serve` wire protocol all use it.
//!
//! ```text
//! frame  [len: u32 LE][crc32(payload): u32 LE][payload: len bytes]
//! ```
//!
//! Each format passes the payload lengths it allows; [`parse_header`]
//! refuses any other before a payload byte is read or allocated.
//! [`encode_frame`] and [`check_frame`] work in place in the caller's
//! buffer, and [`FrameError`] is the one diagnosis every reader shares.
//!
//! One scan checks back-to-back frames and says where and why it
//! stopped, and whether the failed frame is torn: cut short, or failing
//! its CRC with nothing after it, which is what a crash during its
//! append leaves. The scanner applies no policy; its callers do, and
//! they differ:
//!
//! * the WAL truncates at the first bad frame of any kind: it fsyncs in
//!   windows, and its writer keeps appending after a write that
//!   silently damaged a record, so interior damage is a crash state;
//! * an [`AppendLog`] (`epochs.log`, `identity.log`) fsyncs every frame
//!   before the next, so it truncates only a torn final frame; earlier
//!   damage is no crash artifact and is an error naming its byte offset.

use crate::crc::crc32;
use crate::StoreError;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};

/// Bytes of framing per frame (`len` + `crc`).
pub const FRAME_HEADER_LEN: usize = 8;

/// Why a frame failed its check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer than [`FRAME_HEADER_LEN`] bytes remain.
    TruncatedHeader {
        /// Bytes that do remain.
        have: usize,
    },
    /// The header promises more payload than the bytes hold.
    TruncatedPayload {
        /// Promised payload length.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The length field is outside the format's allowed range.
    BadLength(u32),
    /// The stored CRC32 does not match the payload.
    CrcMismatch {
        /// Checksum stored in the frame.
        stored: u32,
        /// Checksum of the payload as found.
        computed: u32,
    },
}

impl From<FrameError> for String {
    fn from(e: FrameError) -> String {
        e.to_string()
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TruncatedHeader { have } => {
                write!(f, "truncated frame header ({have} bytes remain)")
            }
            FrameError::TruncatedPayload { need, have } => {
                write!(f, "truncated payload (need {need} bytes, have {have})")
            }
            FrameError::BadLength(len) => write!(f, "bad frame length {len}"),
            FrameError::CrcMismatch { stored, computed } => write!(
                f,
                "CRC mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
        }
    }
}

/// Appends one frame to `out`: the payload written in place by
/// `encode`, then the header filled in before it. Returns the frame's
/// size.
///
/// # Errors
///
/// [`FrameError::BadLength`] if the payload length is not in `lens`;
/// `out` is then left as it was.
pub fn encode_frame(
    out: &mut Vec<u8>,
    lens: &RangeInclusive<u32>,
    encode: impl FnOnce(&mut Vec<u8>),
) -> Result<usize, FrameError> {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    encode(out);
    let len = u32::try_from(out.len() - start - FRAME_HEADER_LEN).unwrap_or(u32::MAX);
    if !lens.contains(&len) {
        out.truncate(start);
        return Err(FrameError::BadLength(len));
    }
    let crc = crc32(&out[start + FRAME_HEADER_LEN..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + FRAME_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    Ok(out.len() - start)
}

/// Parses a frame header into the payload length it claims and the CRC
/// it stores.
///
/// # Errors
///
/// [`FrameError::BadLength`] if the claimed length is not in `lens`.
pub fn parse_header(
    header: &[u8; FRAME_HEADER_LEN],
    lens: &RangeInclusive<u32>,
) -> Result<(usize, u32), FrameError> {
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    if !lens.contains(&len) {
        return Err(FrameError::BadLength(len));
    }
    let stored = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    Ok((len as usize, stored))
}

/// Checks the frame at the front of `bytes` in place — header, length,
/// completeness, CRC — and returns its payload and the bytes after it.
///
/// # Errors
///
/// The first [`FrameError`] the frame fails, in that order.
pub fn check_frame<'a>(
    bytes: &'a [u8],
    lens: &RangeInclusive<u32>,
) -> Result<(&'a [u8], &'a [u8]), FrameError> {
    let header = bytes
        .first_chunk()
        .ok_or(FrameError::TruncatedHeader { have: bytes.len() })?;
    let (len, stored) = parse_header(header, lens)?;
    let body = &bytes[FRAME_HEADER_LEN..];
    if body.len() < len {
        let have = body.len();
        return Err(FrameError::TruncatedPayload { need: len, have });
    }
    let (payload, rest) = body.split_at(len);
    let computed = crc32(payload);
    if computed != stored {
        return Err(FrameError::CrcMismatch { stored, computed });
    }
    Ok((payload, rest))
}

/// Where and why a [`scan`] stopped before the end of its bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Stop<E> {
    /// Offset of the failed frame: the length of the valid prefix.
    pub at: usize,
    /// The failed frame is the last and is cut short, or is whole and
    /// fails its CRC: what a crash during its append leaves. A bad
    /// length, damage with bytes after it, or a refused payload is not.
    pub torn: bool,
    /// The frame's [`FrameError`], or the decoder's error.
    pub reason: E,
}

/// Checks back-to-back frames from the start of `bytes`, passing each
/// payload to `decode` in order. Never panics, for any bytes.
///
/// # Errors
///
/// The first frame that fails its check or whose payload `decode`
/// refuses; `Ok` when the bytes end on a frame boundary.
pub(crate) fn scan<E: From<FrameError>>(
    bytes: &[u8],
    lens: &RangeInclusive<u32>,
    mut decode: impl FnMut(&[u8]) -> Result<(), E>,
) -> Result<(), Stop<E>> {
    let mut rest = bytes;
    while !rest.is_empty() {
        let at = bytes.len() - rest.len();
        let (torn, reason) = match check_frame(rest, lens) {
            Ok((payload, after)) => match decode(payload) {
                Ok(()) => {
                    rest = after;
                    continue;
                }
                Err(e) => (false, e),
            },
            Err(e @ FrameError::CrcMismatch { .. }) => {
                let len = u32::from_le_bytes(rest[..4].try_into().expect("a whole header"));
                (rest.len() == FRAME_HEADER_LEN + len as usize, e.into())
            }
            Err(e) => (!matches!(e, FrameError::BadLength(_)), e.into()),
        };
        return Err(Stop { at, torn, reason });
    }
    Ok(())
}

/// A magic-headed, append-only log of frames; every append is fsynced
/// before it returns.
#[derive(Debug)]
pub struct AppendLog {
    file: File,
    path: PathBuf,
    lens: RangeInclusive<u32>,
}

impl AppendLog {
    /// Opens the log at `path`, passing every valid payload to `decode`
    /// in order, and positions it for appends. A missing or empty file,
    /// or a strict prefix of `magic` (a crash during creation), is
    /// created afresh: magic, fsync, parent-directory fsync. A torn final
    /// frame is truncated away, with an fsync.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure; [`StoreError::Corrupt`]
    /// for a wrong magic, or naming the byte offset of a damaged frame
    /// that is not the torn final one or of a payload `decode` refuses.
    pub fn open(
        path: &Path,
        magic: [u8; 8],
        lens: RangeInclusive<u32>,
        mut decode: impl FnMut(&[u8]) -> Result<(), String>,
    ) -> Result<AppendLog, StoreError> {
        let corrupt = |reason| StoreError::Corrupt {
            path: path.to_path_buf(),
            reason,
        };
        let ioerr = StoreError::io("open log", path);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(&ioerr)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(&ioerr)?;
        let valid = if bytes.len() < magic.len() && magic.starts_with(&bytes) {
            file.set_len(0).map_err(&ioerr)?;
            file.seek(SeekFrom::Start(0)).map_err(&ioerr)?;
            file.write_all(&magic).map_err(&ioerr)?;
            file.sync_data().map_err(&ioerr)?;
            crate::fsync_parent_dir(path).map_err(&ioerr)?;
            magic.len()
        } else if !bytes.starts_with(&magic) {
            return Err(corrupt("bad log magic".to_string()));
        } else {
            let frames = &bytes[magic.len()..];
            match scan(frames, &lens, &mut decode) {
                Ok(()) => bytes.len(),
                Err(Stop { at, torn: true, .. }) => {
                    file.set_len((magic.len() + at) as u64).map_err(&ioerr)?;
                    file.sync_data().map_err(&ioerr)?;
                    magic.len() + at
                }
                Err(Stop { at, reason, .. }) => {
                    let at = magic.len() + at;
                    return Err(corrupt(format!("frame at byte {at}: {reason}")));
                }
            }
        };
        file.seek(SeekFrom::Start(valid as u64)).map_err(&ioerr)?;
        Ok(AppendLog {
            file,
            path: path.to_path_buf(),
            lens,
        })
    }

    /// Appends one frame, its payload written by `encode`, with one
    /// write, then fsyncs.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the payload length is not allowed or the
    /// write or fsync fails; the frame is then not committed.
    pub fn append(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), StoreError> {
        let ioerr = StoreError::io("append log frame", &self.path);
        let mut frame = Vec::new();
        encode_frame(&mut frame, &self.lens, encode)
            .map_err(|e| ioerr(std::io::Error::other(e.to_string())))?;
        self.file.write_all(&frame).map_err(&ioerr)?;
        self.file.sync_data().map_err(&ioerr)
    }
}
