//! The compact binary wire protocol of the election service.
//!
//! Every message travels as one frame — `[len: u32][crc32: u32]` then
//! `len` payload bytes, little-endian — of [`ld_store::log`], the one
//! frame codec the WAL, `epochs.log` and `identity.log` also use.
//! Payloads open with a tag byte; request tags sit below `0x80`,
//! response tags at or above it, so a stream desynchronisation is
//! caught by the tag check even when the CRC happens to collide.
//! [`Update`] payloads reuse [`ld_live::codec`] verbatim — the service
//! logs the exact bytes it receives, so wire and WAL can never drift.
//!
//! Every encoder writes the codec's header (length, capped at
//! [`MAX_WIRE_PAYLOAD`], and CRC): [`encode_frame`] builds a frame in
//! place in one buffer (the loopback and the socket loop), [`write_frame`]
//! sends one from a payload with one write. Every reader applies the
//! codec's checks: [`check_frame`] validates a frame in place (the
//! loopback and the socket loop) and [`read_frame`] reads and validates
//! one from a stream, with the same typed [`WireError`]s, mapped from
//! the codec's [`FrameError`]. Unlike the logs — the WAL truncates at
//! its first bad frame, `epochs.log` and `identity.log` only at a torn
//! final one — a stream has no torn-tail policy: any bad frame ends the
//! connection, since the peer can no longer be trusted to be in step.

use ld_live::codec::{decode_update, encode_update};
use ld_live::Update;
use ld_store::log::{self, FrameError};
use std::io::{ErrorKind, Read, Write};
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::identity::MAX_KEY_LEN;

/// Hard cap on a frame payload: a tag plus a few fixed fields plus a
/// bounded identity key or error string never legitimately exceeds it.
pub const MAX_WIRE_PAYLOAD: u32 = 512;

pub use ld_store::log::FRAME_HEADER_LEN;

/// The payload lengths a wire frame may claim.
const WIRE_LENS: RangeInclusive<u32> = 0..=MAX_WIRE_PAYLOAD;

const TAG_CREATE: u8 = 0x01;
const TAG_REGISTER: u8 = 0x02;
const TAG_LOOKUP: u8 = 0x03;
const TAG_SUBMIT: u8 = 0x04;
const TAG_QUERY: u8 = 0x05;
const TAG_FLUSH: u8 = 0x06;
const TAG_SHUTDOWN: u8 = 0x07;

const TAG_CREATED: u8 = 0x81;
const TAG_REGISTERED: u8 = 0x82;
const TAG_FOUND: u8 = 0x83;
const TAG_ENQUEUED: u8 = 0x84;
const TAG_TALLY: u8 = 0x85;
const TAG_BYE: u8 = 0x86;
const TAG_ERROR: u8 = 0xFF;

/// Wire-level failures (framing, checksum, or payload shape).
#[derive(Debug)]
#[non_exhaustive]
pub enum WireError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The stream ended inside a frame.
    Truncated,
    /// A frame header claims more than [`MAX_WIRE_PAYLOAD`] bytes.
    Oversized {
        /// The claimed payload length.
        len: u32,
    },
    /// The payload checksum does not match its header.
    Crc {
        /// CRC stored in the frame header.
        stored: u32,
        /// CRC computed over the received payload.
        computed: u32,
    },
    /// The payload carries an unknown message tag.
    BadTag(u8),
    /// The payload is structurally wrong for its tag.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O: {e}"),
            WireError::Truncated => write!(f, "stream ended inside a frame"),
            WireError::Oversized { len } => {
                write!(f, "frame claims {len} bytes (cap {MAX_WIRE_PAYLOAD})")
            }
            WireError::Crc { stored, computed } => {
                write!(f, "frame CRC {stored:#010x} != computed {computed:#010x}")
            }
            WireError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::TruncatedHeader { .. } | FrameError::TruncatedPayload { .. } => {
                WireError::Truncated
            }
            FrameError::BadLength(len) => WireError::Oversized { len },
            FrameError::CrcMismatch { stored, computed } => WireError::Crc { stored, computed },
        }
    }
}

/// A client request to the election host.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Create an in-memory election `election` with a fixed electorate.
    Create {
        /// Host-scoped election id.
        election: u32,
        /// Electorate size (at most [`crate::MAX_VOTERS`]).
        n: u32,
        /// Initial competence for every voter.
        default_p: f64,
    },
    /// Register an identity key, minting the next dense voter id.
    Register {
        /// Target election.
        election: u32,
        /// Opaque identity key (`1..=MAX_KEY_LEN` bytes).
        key: Vec<u8>,
    },
    /// Look up the id a key was registered under.
    Lookup {
        /// Target election.
        election: u32,
        /// The key to resolve.
        key: Vec<u8>,
    },
    /// Enqueue one delegation-stream update (fire-and-forget).
    Submit {
        /// Target election.
        election: u32,
        /// The update, by dense voter id.
        update: Update,
    },
    /// Read the latest published epoch snapshot.
    Query {
        /// Target election.
        election: u32,
    },
    /// Drain pending ingest and publish a fresh epoch, then report it.
    Flush {
        /// Target election.
        election: u32,
    },
    /// Ask the host to shut down gracefully.
    Shutdown,
}

/// The tally fields of a published epoch, as sent on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireTally {
    /// Epoch counter of the snapshot.
    pub epoch: u64,
    /// Electorate size.
    pub n: u32,
    /// Votes reaching a ballot.
    pub tallied: u64,
    /// Votes discarded through abstention.
    pub discarded: u64,
    /// Number of distinct sinks.
    pub sink_count: u64,
    /// Heaviest single sink.
    pub max_weight: u64,
    /// Mean correct-vote weight `Σ w·p`.
    pub mean: f64,
    /// Variance `Σ w²·p(1-p)`.
    pub variance: f64,
    /// Normal-approximation probability the correct option wins.
    pub p_correct: f64,
    /// Integer digest of the full weight vector (restart conformance).
    pub digest: u64,
}

/// A host response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The election was created.
    Created {
        /// Its host-scoped id.
        election: u32,
    },
    /// A key was registered.
    Registered {
        /// The minted dense voter id.
        id: u32,
    },
    /// Lookup result (`None` when the key is unknown).
    Found {
        /// The id, if registered.
        id: Option<u32>,
    },
    /// The update was accepted into the ingest queue.
    Enqueued,
    /// A published tally snapshot.
    Tally(WireTally),
    /// Acknowledges shutdown; the connection closes after this.
    Bye,
    /// The request failed.
    Error {
        /// Machine-readable error class (stable across releases).
        code: u8,
        /// Human-readable detail.
        message: String,
    },
}

/// Error codes carried by [`Response::Error`].
pub mod error_code {
    /// The addressed election does not exist.
    pub const NO_SUCH_ELECTION: u8 = 1;
    /// The election id is already taken.
    pub const ELECTION_EXISTS: u8 = 2;
    /// Identity registration or lookup failed.
    pub const IDENTITY: u8 = 3;
    /// The service rejected or could not accept the update.
    pub const REJECTED: u8 = 4;
    /// Internal service failure.
    pub const INTERNAL: u8 = 5;
    /// The request's parameters are unusable (an electorate above
    /// [`crate::MAX_VOTERS`], an invalid competence).
    pub const BAD_REQUEST: u8 = 6;
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, k: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .at
            .checked_add(k)
            .ok_or(WireError::Malformed("length overflow"))?;
        if end > self.buf.len() {
            return Err(WireError::Malformed("payload shorter than its tag implies"));
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn rest(self) -> &'a [u8] {
        &self.buf[self.at..]
    }

    fn done(&self) -> Result<(), WireError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after payload"))
        }
    }
}

fn check_key(key: &[u8]) -> Result<(), WireError> {
    if key.is_empty() || key.len() > MAX_KEY_LEN {
        return Err(WireError::Malformed("identity key length out of bounds"));
    }
    Ok(())
}

impl Request {
    /// Appends this request's payload (tag + fields) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Request::Create {
                election,
                n,
                default_p,
            } => {
                out.push(TAG_CREATE);
                put_u32(out, election);
                put_u32(out, n);
                put_f64(out, default_p);
            }
            Request::Register { election, ref key } => {
                out.push(TAG_REGISTER);
                put_u32(out, election);
                out.extend_from_slice(key);
            }
            Request::Lookup { election, ref key } => {
                out.push(TAG_LOOKUP);
                put_u32(out, election);
                out.extend_from_slice(key);
            }
            Request::Submit {
                election,
                ref update,
            } => {
                out.push(TAG_SUBMIT);
                put_u32(out, election);
                encode_update(update, out);
            }
            Request::Query { election } => {
                out.push(TAG_QUERY);
                put_u32(out, election);
            }
            Request::Flush { election } => {
                out.push(TAG_FLUSH);
                put_u32(out, election);
            }
            Request::Shutdown => out.push(TAG_SHUTDOWN),
        }
    }

    /// Decodes one request payload.
    ///
    /// # Errors
    ///
    /// [`WireError`] on unknown tags, short or oversized fields, and
    /// invalid embedded update encodings.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let (&tag, body) = payload
            .split_first()
            .ok_or(WireError::Malformed("empty payload"))?;
        let mut c = Cursor::new(body);
        match tag {
            TAG_CREATE => {
                let req = Request::Create {
                    election: c.u32()?,
                    n: c.u32()?,
                    default_p: c.f64()?,
                };
                c.done()?;
                Ok(req)
            }
            TAG_REGISTER | TAG_LOOKUP => {
                let election = c.u32()?;
                let key = c.rest();
                check_key(key)?;
                let key = key.to_vec();
                Ok(if tag == TAG_REGISTER {
                    Request::Register { election, key }
                } else {
                    Request::Lookup { election, key }
                })
            }
            TAG_SUBMIT => {
                let election = c.u32()?;
                let update = decode_update(c.rest())
                    .map_err(|_| WireError::Malformed("embedded update encoding"))?;
                Ok(Request::Submit { election, update })
            }
            TAG_QUERY => {
                let req = Request::Query { election: c.u32()? };
                c.done()?;
                Ok(req)
            }
            TAG_FLUSH => {
                let req = Request::Flush { election: c.u32()? };
                c.done()?;
                Ok(req)
            }
            TAG_SHUTDOWN => {
                c.done()?;
                Ok(Request::Shutdown)
            }
            other => Err(WireError::BadTag(other)),
        }
    }
}

impl Response {
    /// Appends this response's payload (tag + fields) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Response::Created { election } => {
                out.push(TAG_CREATED);
                put_u32(out, election);
            }
            Response::Registered { id } => {
                out.push(TAG_REGISTERED);
                put_u32(out, id);
            }
            Response::Found { id } => {
                out.push(TAG_FOUND);
                out.push(u8::from(id.is_some()));
                put_u32(out, id.unwrap_or(0));
            }
            Response::Enqueued => out.push(TAG_ENQUEUED),
            Response::Tally(t) => {
                out.push(TAG_TALLY);
                put_u64(out, t.epoch);
                put_u32(out, t.n);
                put_u64(out, t.tallied);
                put_u64(out, t.discarded);
                put_u64(out, t.sink_count);
                put_u64(out, t.max_weight);
                put_f64(out, t.mean);
                put_f64(out, t.variance);
                put_f64(out, t.p_correct);
                put_u64(out, t.digest);
            }
            Response::Bye => out.push(TAG_BYE),
            Response::Error { code, ref message } => {
                out.push(TAG_ERROR);
                out.push(code);
                let cap = MAX_WIRE_PAYLOAD as usize - FRAME_HEADER_LEN - 2;
                let msg = message.as_bytes();
                out.extend_from_slice(&msg[..msg.len().min(cap)]);
            }
        }
    }

    /// Decodes one response payload.
    ///
    /// # Errors
    ///
    /// [`WireError`] on unknown tags or malformed fields.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let (&tag, body) = payload
            .split_first()
            .ok_or(WireError::Malformed("empty payload"))?;
        let mut c = Cursor::new(body);
        match tag {
            TAG_CREATED => {
                let r = Response::Created { election: c.u32()? };
                c.done()?;
                Ok(r)
            }
            TAG_REGISTERED => {
                let r = Response::Registered { id: c.u32()? };
                c.done()?;
                Ok(r)
            }
            TAG_FOUND => {
                let some = match c.take(1)?[0] {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Malformed("found flag")),
                };
                let id = c.u32()?;
                c.done()?;
                Ok(Response::Found {
                    id: some.then_some(id),
                })
            }
            TAG_ENQUEUED => {
                c.done()?;
                Ok(Response::Enqueued)
            }
            TAG_TALLY => {
                let t = WireTally {
                    epoch: c.u64()?,
                    n: c.u32()?,
                    tallied: c.u64()?,
                    discarded: c.u64()?,
                    sink_count: c.u64()?,
                    max_weight: c.u64()?,
                    mean: c.f64()?,
                    variance: c.f64()?,
                    p_correct: c.f64()?,
                    digest: c.u64()?,
                };
                c.done()?;
                Ok(Response::Tally(t))
            }
            TAG_BYE => {
                c.done()?;
                Ok(Response::Bye)
            }
            TAG_ERROR => {
                let code = c.take(1)?[0];
                let message = String::from_utf8_lossy(c.rest()).into_owned();
                Ok(Response::Error { code, message })
            }
            other => Err(WireError::BadTag(other)),
        }
    }
}

/// Appends one `[len][crc][payload]` frame to `out`, the payload written
/// in place by `encode` and the header filled in after it, so the frame
/// is built in one buffer.
///
/// # Errors
///
/// [`WireError::Oversized`] if the payload exceeds the cap; `out` is
/// then left as it was.
pub fn encode_frame(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), WireError> {
    log::encode_frame(out, &WIRE_LENS, encode)?;
    Ok(())
}

/// Checks the frame at the front of `bytes` in place — header, length
/// cap, completeness and CRC, with the same typed errors as
/// [`read_frame`] — and returns its payload and the bytes after it.
///
/// # Errors
///
/// [`WireError::Truncated`] when `bytes` ends inside the frame, plus
/// length and checksum violations.
pub fn check_frame(bytes: &[u8]) -> Result<(&[u8], &[u8]), WireError> {
    Ok(log::check_frame(bytes, &WIRE_LENS)?)
}

/// Writes one `[len][crc][payload]` frame with a single `write_all`.
///
/// # Errors
///
/// [`WireError::Oversized`] if the payload exceeds the cap, otherwise
/// stream I/O errors.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    encode_frame(&mut frame, |out| out.extend_from_slice(payload))?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, validating length and checksum.
///
/// Returns `Ok(None)` on a clean end-of-stream (no header byte read) —
/// a peer hanging up between frames is normal connection teardown.
///
/// # Errors
///
/// [`WireError::Truncated`] when the stream dies inside a frame, plus
/// checksum/length violations and I/O errors.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + MAX_WIRE_PAYLOAD as usize);
    if read_checked_frame(r, &mut frame, None)?.is_none() {
        return Ok(None);
    }
    frame.drain(..FRAME_HEADER_LEN);
    Ok(Some(frame))
}

/// Reads one whole frame into `frame`, header included, refusing a bad
/// length before the payload is allocated, checks it there with
/// [`check_frame`], and returns its payload; `None` on a clean hang-up
/// between frames. With a `stop` flag the read is patient: read
/// timeouts are retried, and between frames they check the flag and
/// return `None` once it is set, which keeps an idle connection
/// responsive to SIGTERM.
pub(crate) fn read_checked_frame<'a>(
    r: &mut impl Read,
    frame: &'a mut Vec<u8>,
    stop: Option<&AtomicBool>,
) -> Result<Option<&'a [u8]>, WireError> {
    frame.clear();
    frame.resize(FRAME_HEADER_LEN, 0);
    let mut got = 0;
    while got < frame.len() {
        match r.read(&mut frame[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated),
            Ok(k) => got += k,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e)
                if stop.is_some()
                    && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                if got == 0 && stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
                    return Ok(None);
                }
            }
            Err(e) => return Err(WireError::Io(e)),
        }
        if got == FRAME_HEADER_LEN {
            let header = frame.first_chunk().expect("header read");
            let (len, _) = log::parse_header(header, &WIRE_LENS)?;
            frame.resize(FRAME_HEADER_LEN + len, 0);
        }
    }
    Ok(Some(check_frame(frame)?.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests() -> Vec<Request> {
        vec![
            Request::Create {
                election: 1,
                n: 100,
                default_p: 0.625,
            },
            Request::Register {
                election: 1,
                key: b"alice".to_vec(),
            },
            Request::Lookup {
                election: 1,
                key: vec![0xAB; MAX_KEY_LEN],
            },
            Request::Submit {
                election: 2,
                update: Update::Delegate {
                    voter: 3,
                    target: 9,
                },
            },
            Request::Submit {
                election: 2,
                update: Update::Competence { voter: 7, p: 0.75 },
            },
            Request::Query { election: 9 },
            Request::Flush { election: 0 },
            Request::Shutdown,
        ]
    }

    fn responses() -> Vec<Response> {
        vec![
            Response::Created { election: 4 },
            Response::Registered { id: 17 },
            Response::Found { id: Some(3) },
            Response::Found { id: None },
            Response::Enqueued,
            Response::Tally(WireTally {
                epoch: 12,
                n: 1000,
                tallied: 990,
                discarded: 10,
                sink_count: 402,
                max_weight: 31,
                mean: 512.25,
                variance: 199.5,
                p_correct: 0.875,
                digest: 0xDEAD_BEEF_CAFE_F00D,
            }),
            Response::Bye,
            Response::Error {
                code: error_code::REJECTED,
                message: "voter 9 outside the 4-voter set".to_string(),
            },
        ]
    }

    #[test]
    fn several_frames_stream_back_to_back() {
        let mut stream = Vec::new();
        for req in requests() {
            let mut payload = Vec::new();
            req.encode(&mut payload);
            write_frame(&mut stream, &payload).expect("write");
        }
        let mut r = stream.as_slice();
        for req in requests() {
            let got = read_frame(&mut r).expect("read").expect("frame");
            assert_eq!(Request::decode(&got).expect("decode"), req);
        }
        assert!(read_frame(&mut r).expect("eof").is_none(), "clean end");
    }

    /// Frames one message both ways — `write_frame` over its payload and
    /// `encode_frame` in place, as the loopback does — checks that the
    /// bytes agree and that both readers give the payload back, and
    /// returns it.
    fn framed_payload(encode: &dyn Fn(&mut Vec<u8>)) -> Vec<u8> {
        let mut payload = Vec::new();
        encode(&mut payload);
        let mut written = Vec::new();
        write_frame(&mut written, &payload).expect("write");
        let mut built = vec![0xEE]; // appends after what is there
        encode_frame(&mut built, encode).expect("encode");
        assert_eq!(built[1..], written[..], "one frame, one byte layout");
        assert_eq!(
            check_frame(&written).expect("check"),
            (&payload[..], &[][..])
        );
        let read = read_frame(&mut written.as_slice()).expect("read");
        assert_eq!(read.as_ref(), Some(&payload));
        payload
    }

    #[test]
    fn requests_and_responses_round_trip_through_frames() {
        for req in requests() {
            let payload = framed_payload(&|out| req.encode(out));
            assert_eq!(Request::decode(&payload).expect("decode"), req);
        }
        for resp in responses() {
            let payload = framed_payload(&|out| resp.encode(out));
            assert_eq!(Response::decode(&payload).expect("decode"), resp);
        }
        // An oversized payload leaves the buffer as it was.
        let mut out = vec![1, 2, 3];
        let too_big = |o: &mut Vec<u8>| o.resize(o.len() + MAX_WIRE_PAYLOAD as usize + 1, 0);
        assert!(matches!(
            encode_frame(&mut out, too_big),
            Err(WireError::Oversized { len }) if len == MAX_WIRE_PAYLOAD + 1
        ));
        assert_eq!(out, [1, 2, 3]);
    }

    /// Every frame in `bytes`, read with [`read_frame`].
    fn frames_read(mut bytes: &[u8]) -> Result<Vec<Vec<u8>>, WireError> {
        let mut frames = Vec::new();
        while let Some(payload) = read_frame(&mut bytes)? {
            frames.push(payload);
        }
        Ok(frames)
    }

    /// Every frame in `bytes`, checked in place with [`check_frame`].
    fn frames_checked(mut bytes: &[u8]) -> Result<Vec<Vec<u8>>, WireError> {
        let mut frames = Vec::new();
        while !bytes.is_empty() {
            let (payload, rest) = check_frame(bytes)?;
            frames.push(payload.to_vec());
            bytes = rest;
        }
        Ok(frames)
    }

    #[test]
    fn corrupt_frames_fail_alike_in_place_and_from_a_stream() {
        let mut payload = Vec::new();
        Request::Flush { election: 7 }.encode(&mut payload);
        let mut good = Vec::new();
        write_frame(&mut good, &payload).expect("write");
        let with = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = good.clone();
            edit(&mut bytes);
            bytes
        };
        let bad_crc = with(&|b| *b.last_mut().expect("payload") ^= 0x40);
        let oversized = with(&|b| b[..4].copy_from_slice(&(MAX_WIRE_PAYLOAD + 1).to_le_bytes()));
        // (case, bytes, the `Debug` form of the error both must give)
        let oversized_error = format!("Oversized {{ len: {} }}", MAX_WIRE_PAYLOAD + 1);
        let cases = [
            ("bad CRC", bad_crc, "Crc {"),
            ("length above the cap", oversized, &oversized_error),
            ("truncated header", good[..5].to_vec(), "Truncated"),
            (
                "truncated payload",
                good[..good.len() - 2].to_vec(),
                "Truncated",
            ),
            // The bytes after a frame start another that never ends.
            (
                "trailing bytes",
                with(&|b| b.extend_from_slice(&[9, 9, 9])),
                "Truncated",
            ),
        ];
        for (what, bytes, expected) in cases {
            let (read, checked) = (frames_read(&bytes), frames_checked(&bytes));
            let (Err(read), Err(checked)) = (&read, &checked) else {
                panic!("{what}: read {read:?}, checked {checked:?}");
            };
            let (read, checked) = (format!("{read:?}"), format!("{checked:?}"));
            assert!(read.starts_with(expected), "{what}: read_frame gave {read}");
            assert_eq!(read, checked, "{what}");
        }
        assert_eq!(frames_checked(&good).expect("good"), [payload.clone()]);
        assert_eq!(frames_read(&good).expect("good"), [payload]);
    }

    #[test]
    fn framing_violations_are_typed() {
        let mut stream = Vec::new();
        write_frame(&mut stream, &[TAG_SHUTDOWN]).expect("write");
        // Flip a payload byte: CRC catches it.
        let mut evil = stream.clone();
        let last = evil.len() - 1;
        evil[last] ^= 0x40;
        assert!(matches!(
            read_frame(&mut evil.as_slice()),
            Err(WireError::Crc { .. })
        ));
        // Chop inside the payload: truncated.
        assert!(matches!(
            read_frame(&mut &stream[..stream.len() - 1]),
            Err(WireError::Truncated)
        ));
        // Chop inside the header: truncated.
        assert!(matches!(
            read_frame(&mut &stream[..3]),
            Err(WireError::Truncated)
        ));
        // Oversized claim.
        let mut huge = (MAX_WIRE_PAYLOAD + 1).to_le_bytes().to_vec();
        huge.extend_from_slice(&[0; 4]);
        assert!(matches!(
            read_frame(&mut huge.as_slice()),
            Err(WireError::Oversized { .. })
        ));
        // Unknown tag and malformed bodies.
        assert!(matches!(
            Request::decode(&[0x6F]),
            Err(WireError::BadTag(0x6F))
        ));
        assert!(matches!(
            Request::decode(&[TAG_QUERY, 1, 2]),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            Request::decode(&[TAG_REGISTER, 1, 0, 0, 0]),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            Response::decode(&[]),
            Err(WireError::Malformed(_))
        ));
    }
}
