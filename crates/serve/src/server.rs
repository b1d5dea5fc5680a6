//! The multi-election host and its transports.
//!
//! [`Host`] owns a set of named [`Election`]s and answers [`Request`]s
//! with [`Response`]s — transport-agnostic, so the same handler backs
//! both the Unix-socket server ([`serve_unix`]) and the in-process
//! [`LoopbackClient`]. The loopback is not a shortcut around the wire
//! format: it encodes each request to bytes, decodes it, dispatches,
//! and round-trips the response the same way, so every CLI smoke test
//! exercises the real codec path.
//!
//! The host's map lock covers only the lookup: each request runs on a
//! cloned `Arc<Election>` handle, so a `Flush` waiting out an epoch
//! barrier never delays a `Query`, nor any request to another election.
//!
//! Shutdown is cooperative: the accept loop polls a stop flag (set by
//! a `Shutdown` request or by SIGTERM via [`install_sigterm_flag`]),
//! then drops the host — and dropping an [`Election`] *is* the
//! graceful path: pending ingest drains, the WAL fsyncs, and a final
//! epoch publishes before the process exits.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::election::{Election, ElectionConfig};
use crate::wire::{error_code, read_frame, write_frame, Request, Response, WireError, WireTally};
use crate::{IdentityError, ServeError};

/// A transport-agnostic host for multiple named elections.
#[derive(Debug, Default)]
pub struct Host {
    elections: Mutex<HashMap<u32, Arc<Election>>>,
}

impl Host {
    /// An empty host.
    #[must_use]
    pub fn new() -> Host {
        Host::default()
    }

    /// Installs an already-created election under `id` (the CLI uses
    /// this for durable or pre-configured elections that wire `Create`
    /// — which is in-memory only — cannot express).
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] if the id is taken.
    pub fn insert(&self, id: u32, election: Election) -> Result<(), ServeError> {
        let mut map = self.elections.lock().expect("elections lock");
        if map.contains_key(&id) {
            return Err(ServeError::Config(format!("election {id} already exists")));
        }
        map.insert(id, Arc::new(election));
        Ok(())
    }

    /// Handles one request. Never panics on bad input — protocol-level
    /// problems come back as [`Response::Error`].
    pub fn handle(&self, request: &Request) -> Response {
        match *request {
            Request::Create {
                election,
                n,
                default_p,
            } => {
                let exists = || Response::Error {
                    code: error_code::ELECTION_EXISTS,
                    message: format!("election {election} already exists"),
                };
                // Checked before creating: a taken id must not cost the
                // engine and thread of a full-width election. An `n`
                // above `MAX_VOTERS` is refused by `Election::create`
                // before it allocates, as `BAD_REQUEST` below.
                if self
                    .elections
                    .lock()
                    .expect("elections lock")
                    .contains_key(&election)
                {
                    return exists();
                }
                let mut cfg = ElectionConfig::new(n);
                cfg.default_p = default_p;
                match Election::create(&cfg) {
                    Ok(e) => {
                        // Re-checked under the lock: a concurrent Create
                        // may have taken the id meanwhile.
                        let mut map = self.elections.lock().expect("elections lock");
                        if map.contains_key(&election) {
                            return exists();
                        }
                        map.insert(election, Arc::new(e));
                        Response::Created { election }
                    }
                    Err(e) => Response::Error {
                        code: match e {
                            ServeError::Config(_) => error_code::BAD_REQUEST,
                            _ => error_code::INTERNAL,
                        },
                        message: e.to_string(),
                    },
                }
            }
            Request::Register { election, ref key } => {
                self.with_election(election, |e| match e.register(key) {
                    Ok(id) => Response::Registered { id },
                    Err(err) => Response::Error {
                        code: identity_code(&err),
                        message: err.to_string(),
                    },
                })
            }
            Request::Lookup { election, ref key } => {
                self.with_election(election, |e| Response::Found { id: e.lookup(key) })
            }
            Request::Submit {
                election,
                ref update,
            } => self.with_election(election, |e| match e.submit(*update) {
                Ok(()) => Response::Enqueued,
                Err(err) => Response::Error {
                    code: error_code::REJECTED,
                    message: err.to_string(),
                },
            }),
            Request::Query { election } => {
                self.with_election(election, |e| Response::Tally(wire_tally(&e.snapshot())))
            }
            Request::Flush { election } => self.with_election(election, |e| match e.flush() {
                Ok(snap) => Response::Tally(wire_tally(&snap)),
                Err(err) => Response::Error {
                    code: error_code::INTERNAL,
                    message: err.to_string(),
                },
            }),
            Request::Shutdown => Response::Bye,
        }
    }

    fn with_election(&self, id: u32, f: impl FnOnce(&Election) -> Response) -> Response {
        // The map lock is released before `f` runs: a Flush blocks for
        // a whole barrier and must hold up no other request.
        let election = self
            .elections
            .lock()
            .expect("elections lock")
            .get(&id)
            .cloned();
        match election {
            Some(e) => f(&e),
            None => Response::Error {
                code: error_code::NO_SUCH_ELECTION,
                message: format!("no election {id}"),
            },
        }
    }

    /// Removes every hosted election and gracefully shuts down each one
    /// no request still holds, surfacing the first failure. An election
    /// whose handle an in-flight request still holds shuts down through
    /// `Drop` when that request finishes, and its failure, if any, is
    /// not reported here.
    ///
    /// # Errors
    ///
    /// The first [`ServeError`] any election reported.
    pub fn shutdown_all(&self) -> Result<(), ServeError> {
        let drained: Vec<Arc<Election>> = self
            .elections
            .lock()
            .expect("elections lock")
            .drain()
            .map(|(_, election)| election)
            .collect();
        let mut first = None;
        for election in drained.into_iter().filter_map(|e| Arc::try_unwrap(e).ok()) {
            if let Err(e) = election.shutdown() {
                first.get_or_insert(e);
            }
        }
        first.map_or(Ok(()), Err)
    }
}

fn wire_tally(snap: &crate::election::EpochSnapshot) -> WireTally {
    WireTally {
        epoch: snap.epoch,
        n: snap.tally.n,
        tallied: snap.tally.tallied,
        discarded: snap.tally.discarded,
        sink_count: snap.tally.sink_count,
        max_weight: snap.tally.max_weight,
        mean: snap.tally.mean,
        variance: snap.tally.variance,
        p_correct: snap.tally.p_correct,
        digest: snap.tally.digest,
    }
}

fn identity_code(err: &IdentityError) -> u8 {
    match err {
        IdentityError::Io { .. } | IdentityError::Corrupt { .. } => error_code::INTERNAL,
        _ => error_code::IDENTITY,
    }
}

/// An in-process client that still round-trips every message through
/// the binary wire codec — the loopback transport of the CLI and the
/// conformance checks.
#[derive(Debug)]
pub struct LoopbackClient<'a> {
    host: &'a Host,
}

impl<'a> LoopbackClient<'a> {
    /// A loopback client for `host`.
    #[must_use]
    pub fn new(host: &'a Host) -> Self {
        LoopbackClient { host }
    }

    /// Encodes `request`, decodes it, dispatches it, and round-trips
    /// the response — byte-identical to one socket exchange.
    ///
    /// # Errors
    ///
    /// [`WireError`] if either direction fails to round-trip (a codec
    /// bug, which the conformance suite would flag).
    pub fn call(&self, request: &Request) -> Result<Response, WireError> {
        let mut frame = Vec::new();
        let mut payload = Vec::new();
        request.encode(&mut payload);
        write_frame(&mut frame, &payload)?;
        let echoed = read_frame(&mut frame.as_slice())?.ok_or(WireError::Truncated)?;
        let decoded = Request::decode(&echoed)?;
        let response = self.host.handle(&decoded);
        let mut back = Vec::new();
        let mut resp_payload = Vec::new();
        response.encode(&mut resp_payload);
        write_frame(&mut back, &resp_payload)?;
        let got = read_frame(&mut back.as_slice())?.ok_or(WireError::Truncated)?;
        Response::decode(&got)
    }
}

/// The process-wide SIGTERM latch used by [`install_sigterm_flag`].
static SIGTERM: AtomicBool = AtomicBool::new(false);

/// Installs a SIGTERM handler that sets (and returns) a process-wide
/// stop flag, for use as [`serve_unix`]'s stop signal. The handler
/// only stores to an atomic — async-signal-safe — and the accept loop
/// does the actual draining. On non-Unix targets the flag is returned
/// uninstalled (nothing will set it).
pub fn install_sigterm_flag() -> &'static AtomicBool {
    #[cfg(unix)]
    {
        extern "C" fn on_sigterm(_: i32) {
            SIGTERM.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGTERM_NO: i32 = 15;
        // SAFETY: installs an async-signal-safe handler (a single
        // atomic store) for SIGTERM via the C `signal` entry point.
        unsafe {
            signal(SIGTERM_NO, on_sigterm as *const () as usize);
        }
    }
    &SIGTERM
}

/// Serves `host` over a Unix domain socket at `path` until `stop` goes
/// true (SIGTERM, or a client `Shutdown` request). Connections are
/// handled sequentially — this is an operational endpoint, not a
/// high-fanout gateway; the ingest hot path stays in-process.
///
/// Returns after the listener closes; the caller decides when to run
/// [`Host::shutdown_all`].
///
/// # Errors
///
/// Socket setup failures. Per-connection protocol errors terminate
/// that connection only.
#[cfg(unix)]
pub fn serve_unix(
    host: &Host,
    path: &std::path::Path,
    stop: &AtomicBool,
) -> Result<(), std::io::Error> {
    use std::os::unix::net::UnixListener;

    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                stream.set_read_timeout(Some(Duration::from_millis(100)))?;
                serve_connection(host, stream, stop);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// Handles one connection: frames in, frames out, until the peer hangs
/// up, the stop flag trips, or the peer asks for shutdown.
#[cfg(unix)]
fn serve_connection(host: &Host, mut stream: impl Read + Write, stop: &AtomicBool) {
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let payload = match read_frame_patient(&mut stream, stop) {
            Ok(Some(p)) => p,
            Ok(None) => return,
            Err(_) => return,
        };
        let response = match Request::decode(&payload) {
            Ok(request) => {
                let r = host.handle(&request);
                if matches!(request, Request::Shutdown) {
                    stop.store(true, Ordering::SeqCst);
                }
                r
            }
            Err(e) => Response::Error {
                code: error_code::INTERNAL,
                message: e.to_string(),
            },
        };
        let mut out = Vec::new();
        response.encode(&mut out);
        if write_frame(&mut stream, &out).is_err() {
            return;
        }
        if matches!(response, Response::Bye) {
            return;
        }
    }
}

/// Like [`read_frame`], but tolerates read timeouts *between* frames
/// (checking the stop flag) while treating a timeout *inside* a frame
/// as fatal truncation. Keeps idle connections responsive to SIGTERM.
#[cfg(unix)]
fn read_frame_patient(
    stream: &mut impl Read,
    stop: &AtomicBool,
) -> Result<Option<Vec<u8>>, WireError> {
    use crate::wire::FRAME_HEADER_LEN;

    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut got = 0;
    while got < header.len() {
        match stream.read(&mut header[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(None)
                } else {
                    Err(WireError::Truncated)
                };
            }
            Ok(k) => got += k,
            Err(e)
                if got == 0
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    // Header complete: delegate the rest to the strict reader by
    // re-assembling a chained stream.
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let stored = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len > crate::wire::MAX_WIRE_PAYLOAD {
        return Err(WireError::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    let mut at = 0;
    while at < payload.len() {
        match stream.read(&mut payload[at..]) {
            Ok(0) => return Err(WireError::Truncated),
            Ok(k) => at += k,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let computed = ld_store::crc::crc32(&payload);
    if computed != stored {
        return Err(WireError::Crc { stored, computed });
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_VOTERS;
    use ld_live::Update;

    fn tiny_host() -> Host {
        let host = Host::new();
        let resp = host.handle(&Request::Create {
            election: 1,
            n: 8,
            default_p: 0.6,
        });
        assert_eq!(resp, Response::Created { election: 1 });
        host
    }

    #[test]
    fn oversized_create_is_refused_before_allocating() {
        // An election of u32::MAX voters would need hundreds of GB; the
        // bound on `n` refuses it (and anything past the bound) with a
        // typed error.
        let host = Host::new();
        for n in [MAX_VOTERS + 1, u32::MAX] {
            let resp = host.handle(&Request::Create {
                election: 1,
                n,
                default_p: 0.6,
            });
            assert!(
                matches!(
                    resp,
                    Response::Error {
                        code: error_code::BAD_REQUEST,
                        ..
                    }
                ),
                "n = {n}: got {resp:?}"
            );
        }
        let bad_p = host.handle(&Request::Create {
            election: 1,
            n: 8,
            default_p: f64::NAN,
        });
        assert!(
            matches!(
                bad_p,
                Response::Error {
                    code: error_code::BAD_REQUEST,
                    ..
                }
            ),
            "got {bad_p:?}"
        );
    }

    #[test]
    fn duplicate_create_is_refused_before_allocating() {
        // A taken id must be refused before `Election::create` runs:
        // were the duplicate check skipped, `create` would refuse this
        // `n` as `BAD_REQUEST` and the assertion below would fail.
        let host = tiny_host();
        let resp = host.handle(&Request::Create {
            election: 1,
            n: u32::MAX,
            default_p: 0.6,
        });
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: error_code::ELECTION_EXISTS,
                    ..
                }
            ),
            "got {resp:?}"
        );
    }

    #[test]
    fn loopback_drives_a_full_session_through_the_codec() {
        let host = tiny_host();
        let client = LoopbackClient::new(&host);
        let resp = client
            .call(&Request::Register {
                election: 1,
                key: b"alice".to_vec(),
            })
            .expect("register");
        assert_eq!(resp, Response::Registered { id: 0 });
        assert_eq!(
            client
                .call(&Request::Lookup {
                    election: 1,
                    key: b"alice".to_vec(),
                })
                .expect("lookup"),
            Response::Found { id: Some(0) }
        );
        for update in [
            Update::Delegate {
                voter: 1,
                target: 0,
            },
            Update::Delegate {
                voter: 2,
                target: 1,
            },
            Update::Abstain { voter: 5 },
        ] {
            assert_eq!(
                client
                    .call(&Request::Submit {
                        election: 1,
                        update
                    })
                    .expect("submit"),
                Response::Enqueued
            );
        }
        let resp = client.call(&Request::Flush { election: 1 }).expect("flush");
        let Response::Tally(t) = resp else {
            panic!("expected tally, got {resp:?}");
        };
        assert_eq!(t.n, 8);
        assert_eq!(t.discarded, 1, "5 abstained");
        assert_eq!(t.max_weight, 3, "0 carries 0,1,2");
        assert!(t.epoch >= 1);
        // Query re-reads the same published epoch.
        let again = client.call(&Request::Query { election: 1 }).expect("query");
        assert_eq!(again, Response::Tally(t));
        // Unknown election: typed protocol error.
        let missing = client.call(&Request::Query { election: 9 }).expect("call");
        assert!(matches!(
            missing,
            Response::Error {
                code: error_code::NO_SUCH_ELECTION,
                ..
            }
        ));
        host.shutdown_all().expect("shutdown");
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_serves_and_shuts_down() {
        let dir = std::env::temp_dir().join(format!("ld-serve-sock-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let sock = dir.join("serve.sock");
        let host = std::sync::Arc::new(tiny_host());
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let server = {
            let host = std::sync::Arc::clone(&host);
            let stop = std::sync::Arc::clone(&stop);
            let sock = sock.clone();
            std::thread::spawn(move || serve_unix(&host, &sock, &stop))
        };
        // Wait for the socket to appear.
        for _ in 0..200 {
            if sock.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut conn = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
        let call = |conn: &mut std::os::unix::net::UnixStream, req: &Request| -> Response {
            let mut payload = Vec::new();
            req.encode(&mut payload);
            write_frame(conn, &payload).expect("write");
            let frame = read_frame(conn).expect("read").expect("frame");
            Response::decode(&frame).expect("decode")
        };
        assert_eq!(
            call(
                &mut conn,
                &Request::Register {
                    election: 1,
                    key: b"bob".to_vec(),
                }
            ),
            Response::Registered { id: 0 }
        );
        assert_eq!(
            call(
                &mut conn,
                &Request::Submit {
                    election: 1,
                    update: Update::Delegate {
                        voter: 1,
                        target: 0
                    },
                }
            ),
            Response::Enqueued
        );
        let Response::Tally(t) = call(&mut conn, &Request::Flush { election: 1 }) else {
            panic!("expected tally");
        };
        assert_eq!(t.max_weight, 2);
        assert_eq!(call(&mut conn, &Request::Shutdown), Response::Bye);
        server.join().expect("join").expect("serve ok");
        assert!(stop.load(Ordering::SeqCst), "shutdown tripped the flag");
        host.shutdown_all().expect("shutdown");
    }
}
