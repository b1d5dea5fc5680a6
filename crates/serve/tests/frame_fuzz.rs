//! Seeded fuzzing of the one frame codec (`ld_store::log`) through every
//! format built on it: the WAL body, `epochs.log`, `identity.log` and
//! the wire frame. Each case builds valid bytes of its format with the
//! format's own writer and damages them three ways: a cut at every byte
//! offset, every single-bit flip, and a length field that lies (0, the
//! format's cap, the cap + 1 and `u32::MAX`). No case may panic, and
//! each must end in the typed outcome its format's policy names:
//!
//! * the WAL returns exactly the records before the damaged frame;
//! * a serve log opens on exactly the frames before the damaged one
//!   when the damage is what a crash leaves (a cut, or a final frame
//!   that is cut short or fails its CRC), and otherwise refuses with a
//!   typed error naming the damaged frame's byte offset;
//! * a wire frame is refused as `Truncated`, `Oversized` or `Crc`, the
//!   same by `check_frame` in place and by `read_frame` from a stream,
//!   and an oversized length is refused before anything is allocated
//!   for it.
//!
//! A failure names its case, whose seeded generator replays it.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use ld_live::Update;
use ld_prob::rng::{for_each_case, Rng, StdRng};
use ld_serve::epochs::{EpochEntry, EpochLog, EPOCHS_FILE};
use ld_serve::identity::{IdentityLog, IDENTITY_FILE};
use ld_serve::wire::{check_frame, read_frame, write_frame, FRAME_HEADER_LEN, MAX_WIRE_PAYLOAD};
use ld_serve::{IdentityError, Request, ServeError, WireError, MAX_KEY_LEN};
use ld_store::wal::{encode_record, scan_records, MAX_FRAME_PAYLOAD};
use ld_store::{TailStatus, TornReason};

/// Bytes of the magic that heads each serve log.
const MAGIC_LEN: usize = 8;

static DIR: AtomicU64 = AtomicU64::new(0);

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ld-serve-frame-fuzz-{}-{}",
        std::process::id(),
        DIR.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// One damaged copy of valid bytes, and the frame it damages first.
struct Damaged {
    bytes: Vec<u8>,
    /// Index of the first frame that is not intact.
    frame: usize,
    what: String,
}

/// The length field a damaged frame now claims, if its header is whole.
fn claimed_len(d: &Damaged, starts: &[usize]) -> Option<u32> {
    let at = starts[d.frame];
    let header = d.bytes.get(at..at + 4)?;
    Some(u32::from_le_bytes(header.try_into().expect("4 bytes")))
}

/// Every cut, single-bit flip and lying length field of `valid`, whose
/// frames start at `starts` (the last entry is the end of the bytes).
/// Cuts on a frame boundary, and lies that tell the truth, are left
/// out: they damage nothing.
fn damages(valid: &[u8], starts: &[usize], cap: u32) -> Vec<Damaged> {
    let frame_of = |at: usize| {
        starts
            .iter()
            .rposition(|&s| s <= at)
            .expect("inside a frame")
    };
    let mut out = Vec::new();
    for cut in starts[0]..valid.len() {
        if !starts.contains(&cut) {
            out.push(Damaged {
                bytes: valid[..cut].to_vec(),
                frame: frame_of(cut),
                what: format!("cut at byte {cut}"),
            });
        }
    }
    for at in starts[0]..valid.len() {
        for bit in 0..8 {
            let mut bytes = valid.to_vec();
            bytes[at] ^= 1 << bit;
            out.push(Damaged {
                bytes,
                frame: frame_of(at),
                what: format!("bit {bit} of byte {at} flipped"),
            });
        }
    }
    for (frame, &start) in starts[..starts.len() - 1].iter().enumerate() {
        for lie in [0, cap, cap + 1, u32::MAX] {
            let mut bytes = valid.to_vec();
            bytes[start..start + 4].copy_from_slice(&lie.to_le_bytes());
            if bytes != valid {
                out.push(Damaged {
                    bytes,
                    frame,
                    what: format!("frame {frame} claims {lie} bytes"),
                });
            }
        }
    }
    out
}

/// Whether a serve log whose frames allow `lens` must open on the frames
/// before the damaged one (`true`) or refuse naming its offset
/// (`false`). A cut is a crash; so is a frame whose length is allowed
/// and that runs to or past the end of the file, since its payload was
/// cut short or it is the final frame and fails its CRC. Anything else
/// is damage a crash cannot leave.
fn must_open(d: &Damaged, starts: &[usize], lens: std::ops::RangeInclusive<u32>) -> bool {
    if d.what.starts_with("cut") {
        return true;
    }
    let len = claimed_len(d, starts).expect("flips and lies keep the header");
    lens.contains(&len) && starts[d.frame] + FRAME_HEADER_LEN + len as usize >= d.bytes.len()
}

/// Start offsets of back-to-back frames of the given sizes that follow
/// `head` bytes, then the offset where the last one ends.
fn starts(head: usize, sizes: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut starts = vec![head];
    for size in sizes {
        starts.push(starts.last().expect("head") + size);
    }
    starts
}

fn random_update(rng: &mut StdRng) -> Update {
    let (voter, target) = (rng.gen_range(0usize..5000), rng.gen_range(0usize..5000));
    match rng.gen_range(0u8..4) {
        0 => Update::Delegate { voter, target },
        1 => Update::Vote { voter },
        2 => Update::Abstain { voter },
        _ => Update::Competence {
            voter,
            p: f64::from(rng.gen_range(0u32..=1000)) / 1000.0,
        },
    }
}

#[test]
fn wal_keeps_exactly_the_records_before_the_damage() {
    for_each_case(
        "wal_keeps_exactly_the_records_before_the_damage",
        16,
        |rng| {
            let updates: Vec<Update> = (0..rng.gen_range(1usize..6))
                .map(|_| random_update(rng))
                .collect();
            let mut body = Vec::new();
            let sizes: Vec<usize> = updates
                .iter()
                .map(|u| encode_record(u, &mut body))
                .collect();
            let starts = starts(0, sizes);
            for d in damages(&body, &starts, MAX_FRAME_PAYLOAD) {
                let scan = scan_records(&d.bytes);
                let k = d.frame;
                assert_eq!(scan.updates, updates[..k], "{}", d.what);
                assert_eq!(scan.valid_len, starts[k], "{}", d.what);
                let TailStatus::Torn(t) = scan.tail else {
                    panic!("{}: damage reported clean", d.what);
                };
                let trailing = d.bytes.len() - starts[k];
                assert_eq!((t.at, t.trailing), (starts[k], trailing), "{}", d.what);
                match claimed_len(&d, &starts) {
                    Some(len) if len > MAX_FRAME_PAYLOAD => {
                        assert_eq!(t.reason, TornReason::OversizedLength(len), "{}", d.what);
                    }
                    _ if d.what.starts_with("cut") => assert!(
                        matches!(
                            t.reason,
                            TornReason::TruncatedHeader { .. }
                                | TornReason::TruncatedPayload { .. }
                        ),
                        "{}: {}",
                        d.what,
                        t.reason
                    ),
                    _ => {}
                }
            }
        },
    );
}

#[test]
fn epoch_log_truncates_only_a_torn_final_frame() {
    for_each_case("epoch_log_truncates_only_a_torn_final_frame", 4, |rng| {
        let dir = scratch();
        let path = dir.join(EPOCHS_FILE);
        let entries: Vec<EpochEntry> = (1..=rng.gen_range(2u64..4))
            .map(|epoch| EpochEntry {
                epoch,
                records: rng.gen_range(0u64..1 << 40),
                digest: rng.gen(),
                applied: rng.gen_range(0u64..1 << 40),
                rejected: rng.gen_range(0u64..1 << 20),
            })
            .collect();
        let mut log = EpochLog::open(&path).expect("create");
        for e in &entries {
            log.append(e).expect("append");
        }
        drop(log);
        let valid = std::fs::read(&path).expect("read");
        let starts = starts(MAGIC_LEN, entries.iter().map(|_| 52));
        assert_eq!(*starts.last().expect("end"), valid.len());
        for d in damages(&valid, &starts, 44) {
            std::fs::write(&path, &d.bytes).expect("write damaged log");
            let k = d.frame;
            match EpochLog::open(&path) {
                Ok(log) => {
                    assert!(must_open(&d, &starts, 44..=44), "{}: opened", d.what);
                    assert_eq!(
                        log.last(),
                        k.checked_sub(1).map(|i| &entries[i]),
                        "{}",
                        d.what
                    );
                    let len = std::fs::metadata(&path).expect("stat").len();
                    assert_eq!(len, starts[k] as u64, "{}: truncated", d.what);
                }
                Err(ServeError::Meta { reason, .. }) => {
                    assert!(!must_open(&d, &starts, 44..=44), "{}: {reason}", d.what);
                    let at = format!("frame at byte {}", starts[k]);
                    assert!(reason.contains(&at), "{}: {reason}", d.what);
                }
                Err(other) => panic!("{}: untyped outcome {other:?}", d.what),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn identity_log_truncates_only_a_torn_final_frame() {
    for_each_case("identity_log_truncates_only_a_torn_final_frame", 4, |rng| {
        let dir = scratch();
        let path = dir.join(IDENTITY_FILE);
        let keys: Vec<Vec<u8>> = (0..rng.gen_range(2u8..4))
            .map(|i| {
                let mut key = vec![i];
                key.extend((1..rng.gen_range(1usize..=12)).map(|_| rng.gen::<u8>()));
                key
            })
            .collect();
        let mut log = IdentityLog::open(&path, 16).expect("create");
        for key in &keys {
            log.register(key).expect("register");
        }
        drop(log);
        let valid = std::fs::read(&path).expect("read");
        let starts = starts(MAGIC_LEN, keys.iter().map(|k| FRAME_HEADER_LEN + k.len()));
        let lens = 1..=MAX_KEY_LEN as u32;
        for d in damages(&valid, &starts, MAX_KEY_LEN as u32) {
            std::fs::write(&path, &d.bytes).expect("write damaged log");
            let k = d.frame;
            match IdentityLog::open(&path, 16) {
                Ok(log) => {
                    assert!(must_open(&d, &starts, lens.clone()), "{}: opened", d.what);
                    assert_eq!(log.map().len() as usize, k, "{}", d.what);
                    for (id, key) in keys[..k].iter().enumerate() {
                        assert_eq!(log.map().lookup(key), Some(id as u32), "{}", d.what);
                    }
                    let len = std::fs::metadata(&path).expect("stat").len();
                    assert_eq!(len, starts[k] as u64, "{}: truncated", d.what);
                }
                Err(IdentityError::Corrupt { reason, .. }) => {
                    assert!(
                        !must_open(&d, &starts, lens.clone()),
                        "{}: {reason}",
                        d.what
                    );
                    let at = format!("frame at byte {}", starts[k]);
                    assert!(reason.contains(&at), "{}: {reason}", d.what);
                }
                Err(other) => panic!("{}: untyped outcome {other:?}", d.what),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn wire_frames_fail_alike_in_place_and_from_a_stream() {
    for_each_case(
        "wire_frames_fail_alike_in_place_and_from_a_stream",
        16,
        |rng| {
            let request = match rng.gen_range(0u8..3) {
                0 => Request::Submit {
                    election: rng.gen(),
                    update: random_update(rng),
                },
                1 => Request::Register {
                    election: rng.gen(),
                    key: (0..rng.gen_range(1usize..=MAX_KEY_LEN))
                        .map(|_| rng.gen())
                        .collect(),
                },
                _ => Request::Query {
                    election: rng.gen(),
                },
            };
            let mut payload = Vec::new();
            request.encode(&mut payload);
            let mut frame = Vec::new();
            write_frame(&mut frame, &payload).expect("write");
            let starts = [0, frame.len()];
            assert!(read_frame(&mut &frame[..0]).expect("clean end").is_none());
            for d in damages(&frame, &starts, MAX_WIRE_PAYLOAD) {
                let checked = check_frame(&d.bytes).map(|(p, _)| p.to_vec());
                let read = read_frame(&mut d.bytes.as_slice());
                let expected = match claimed_len(&d, &starts) {
                    Some(len) if len > MAX_WIRE_PAYLOAD => format!("Oversized {{ len: {len} }}"),
                    Some(len) if FRAME_HEADER_LEN + len as usize <= d.bytes.len() => "Crc".into(),
                    _ => "Truncated".into(),
                };
                let (Err(checked), Err(read)) = (&checked, &read) else {
                    panic!("{}: checked {checked:?}, read {read:?}", d.what);
                };
                let (checked, read) = (format!("{checked:?}"), format!("{read:?}"));
                assert!(checked.starts_with(&expected), "{}: {checked}", d.what);
                assert_eq!(read, checked, "{}", d.what);
            }
            // A lying length is refused before a payload buffer is sized
            // from it: were it allocated and read first, the stream's end
            // would answer `Truncated`.
            let mut huge = frame.clone();
            huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(matches!(
                read_frame(&mut huge.as_slice()),
                Err(WireError::Oversized { len: u32::MAX })
            ));
        },
    );
}

/// A crash during a serve log's 8-byte magic write leaves 1–7 bytes of
/// it. Reopening creates the log afresh, and it then appends and
/// replays; bytes that are not a prefix of the magic are still refused.
#[test]
fn a_torn_magic_reopens_as_an_empty_log() {
    let dir = scratch();
    let (epochs, identity) = (dir.join(EPOCHS_FILE), dir.join(IDENTITY_FILE));
    drop(EpochLog::open(&epochs).expect("create epoch log"));
    drop(IdentityLog::open(&identity, 4).expect("create identity log"));
    let epoch_magic = std::fs::read(&epochs).expect("read");
    let identity_magic = std::fs::read(&identity).expect("read");
    assert_eq!(
        (epoch_magic.len(), identity_magic.len()),
        (MAGIC_LEN, MAGIC_LEN)
    );
    let entry = EpochEntry {
        epoch: 1,
        records: 7,
        digest: 0xD1,
        applied: 7,
        rejected: 2,
    };
    for cut in 1..MAGIC_LEN {
        std::fs::write(&epochs, &epoch_magic[..cut]).expect("tear");
        let mut log = EpochLog::open(&epochs).expect("reopen torn magic");
        assert!(log.last().is_none(), "cut {cut}");
        log.append(&entry).expect("append");
        drop(log);
        let log = EpochLog::open(&epochs).expect("replay");
        assert_eq!(log.last(), Some(&entry), "cut {cut}");

        std::fs::write(&identity, &identity_magic[..cut]).expect("tear");
        let mut log = IdentityLog::open(&identity, 4).expect("reopen torn magic");
        assert!(log.map().is_empty(), "cut {cut}");
        assert_eq!(log.register(b"alice"), Ok(0));
        drop(log);
        let log = IdentityLog::open(&identity, 4).expect("replay");
        assert_eq!(log.map().lookup(b"alice"), Some(0), "cut {cut}");
    }
    for bytes in [&b"LDEPO\x1a\x00\x02"[..], b"NOTALOG!", b"LDX", b"\0"] {
        std::fs::write(&epochs, bytes).expect("write");
        assert!(
            matches!(EpochLog::open(&epochs), Err(ServeError::Meta { .. })),
            "{bytes:?}"
        );
        std::fs::write(&identity, bytes).expect("write");
        assert!(
            matches!(
                IdentityLog::open(&identity, 4),
                Err(IdentityError::Corrupt { .. })
            ),
            "{bytes:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
