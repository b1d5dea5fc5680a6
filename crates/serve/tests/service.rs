//! End-to-end service conformance: the batched, epoch-published service
//! must be observationally identical to one `LiveEngine` applying the
//! same stream — including across graceful shutdowns and abrupt kills
//! with WAL-backed recovery.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ld_core::delegation::Action;
use ld_core::tally::TieBreak;
use ld_live::{LiveEngine, RejectReason, Update};
use ld_serve::epochs::{EpochLog, EPOCHS_FILE};
use ld_serve::{tally_digest, Election, ElectionConfig, Host, Request, Response, ServeError};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ld-serve-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic mixed-op stream: delegations (some forming chains
/// and attempted cycles), direct votes, abstentions, competence churn,
/// and a sprinkle of invalid updates the sequencer must reject.
fn stream(n: usize, ops: usize, seed: u64) -> Vec<Update> {
    (0..ops)
        .map(|k| {
            let r = splitmix64(seed ^ (k as u64).wrapping_mul(0x9E37_79B9));
            let voter = (r >> 8) as usize % n;
            match r % 100 {
                0..=54 => Update::Delegate {
                    voter,
                    // Mostly near neighbours, so chains and cycle
                    // attempts actually happen; occasionally out of
                    // range to exercise rejection.
                    target: if r.is_multiple_of(97) {
                        n + 3
                    } else {
                        (voter + 1 + (r >> 32) as usize % 7) % n
                    },
                },
                55..=69 => Update::Vote { voter },
                70..=79 => Update::Abstain { voter },
                80..=97 => Update::Competence {
                    voter,
                    p: ((r >> 16) % 1000) as f64 / 1000.0,
                },
                _ => Update::Competence {
                    voter,
                    p: 1.5, // invalid: must be rejected
                },
            }
        })
        .collect()
}

/// Streams through a single reference engine, returning the engine and
/// the accepted updates in acceptance order.
fn oracle(n: usize, updates: &[Update]) -> (LiveEngine, Vec<Update>) {
    let mut engine = LiveEngine::new(vec![Action::Vote; n], vec![0.5; n]).expect("oracle engine");
    let mut accepted = Vec::new();
    for &u in updates {
        if engine.apply(u).is_ok() {
            accepted.push(u);
        }
    }
    (engine, accepted)
}

fn assert_matches_engine(snap: &ld_serve::EpochSnapshot, engine: &LiveEngine, what: &str) {
    let want: Vec<u64> = engine.weights().iter().map(|&w| w as u64).collect();
    assert_eq!(snap.tally.weights, want, "{what}: weights");
    assert_eq!(
        snap.tally.discarded,
        engine.discarded() as u64,
        "{what}: discarded"
    );
    assert_eq!(
        snap.tally.tallied,
        engine.tallied() as u64,
        "{what}: tallied"
    );
    assert_eq!(
        snap.tally.sink_count,
        engine.sink_count() as u64,
        "{what}: sinks"
    );
    let p = engine.decision_probability_normal(TieBreak::CoinFlip);
    assert!(
        (snap.tally.p_correct - p).abs() < 1e-9,
        "{what}: p_correct {} vs {p}",
        snap.tally.p_correct
    );
}

#[test]
fn service_matches_the_single_engine_oracle() {
    let n = 97;
    let updates = stream(n, 1500, 0xC0FFEE);
    let (engine, accepted) = oracle(n, &updates);
    let mut cfg = ElectionConfig::new(n as u32);
    cfg.window = Duration::from_micros(200);
    cfg.publish_every = 4;
    let election = Election::create(&cfg).expect("create");
    for &u in &updates {
        election.submit(u).expect("submit");
    }
    let snap = election.flush().expect("flush");
    assert_eq!(snap.applied, accepted.len() as u64, "applied");
    assert_eq!(
        snap.rejected,
        (updates.len() - accepted.len()) as u64,
        "rejected"
    );
    assert_matches_engine(&snap, &engine, "service");
    // A second flush republishes the same combinatorial state.
    let again = election.flush().expect("reflush");
    assert_eq!(again.tally.digest, snap.tally.digest, "digest");
    // Every enqueued op got a latency sample by now.
    assert_eq!(
        election.latency_ns().count,
        updates.len() as u64,
        "latency samples"
    );
    election.shutdown().expect("shutdown");
}

#[test]
fn create_refuses_more_than_one_shard() {
    let mut cfg = ElectionConfig::new(16);
    cfg.shards = 4;
    assert!(matches!(Election::create(&cfg), Err(ServeError::Config(_))));
}

#[test]
fn graceful_shutdown_loses_no_accepted_op() {
    let n = 64;
    let updates = stream(n, 700, 0xBEEF);
    let (engine, accepted) = oracle(n, &updates);
    let mut cfg = ElectionConfig::new(n as u32);
    cfg.publish_every = 0; // publish only at shutdown: the drain must carry everything
    let election = Election::create(&cfg).expect("create");
    for &u in &updates {
        election.submit(u).expect("submit");
    }
    // No flush: shutdown itself must drain the queue, sync, publish.
    let snap = election.shutdown().expect("shutdown");
    assert_eq!(
        snap.applied + snap.rejected,
        updates.len() as u64,
        "every enqueued op was sequenced"
    );
    assert_eq!(snap.applied, accepted.len() as u64);
    assert_matches_engine(&snap, &engine, "graceful shutdown");
}

#[test]
fn killed_service_recovers_the_committed_epoch_bit_identically() {
    let n = 80;
    let dir = scratch("kill-recover");
    let phase1 = stream(n, 400, 0xA11CE);
    let lost = stream(n, 200, 0xDEAD); // submitted after the commit, then killed
    let phase2 = stream(n, 150, 0xF00D);

    let mut cfg = ElectionConfig::new(n as u32);
    cfg.publish_every = 0; // epochs commit only on flush: the cut is exact
    cfg.dir = Some(dir.clone());
    let election = Election::create(&cfg).expect("create durable");
    assert_eq!(election.register(b"auditor"), Ok(0));
    for &u in &phase1 {
        election.submit(u).expect("submit");
    }
    let committed = election.flush().expect("flush");
    for &u in &lost {
        election.submit(u).expect("submit lost");
    }
    election.kill(); // no barrier, no commit: crash semantics

    let (revived, report) = Election::recover(&dir, &cfg).expect("recover");
    assert_eq!(
        report.epoch, committed.epoch,
        "resumes at the committed epoch"
    );
    assert_eq!(
        report.digest, committed.tally.digest,
        "digest proves bit-identity"
    );
    assert_eq!(report.applied, committed.applied);
    let resnap = revived.snapshot();
    assert_eq!(
        resnap.tally, committed.tally,
        "full tally survives the crash"
    );
    assert_eq!(revived.lookup(b"auditor"), Some(0), "identity survives");
    assert_eq!(
        revived.register(b"auditor"),
        Err(ld_serve::IdentityError::Duplicate { id: 0 })
    );

    // The revived service keeps serving: phase 2 lands on the recovered
    // state exactly as it would have on a never-crashed service that
    // had only seen phase 1.
    for &u in &phase2 {
        revived.submit(u).expect("submit phase2");
    }
    let fin = revived.flush().expect("flush phase2");
    let mut replay: Vec<Update> = phase1.clone();
    replay.extend_from_slice(&phase2);
    let (engine, _) = oracle(n, &replay);
    assert_matches_engine(&fin, &engine, "post-recovery");
    revived.shutdown().expect("shutdown");
}

#[test]
fn a_kill_inside_an_open_window_loses_that_window() {
    let n = 70;
    let dir = scratch("kill-open-window");
    let committed_ops = stream(n, 300, 0x0BE1);
    let in_window = stream(n, 120, 0x0BE2);
    let mut cfg = ElectionConfig::new(n as u32);
    // Only a Flush, a Kill or shutdown ends a window this long.
    cfg.window = Duration::from_secs(10);
    cfg.publish_every = 0;
    cfg.dir = Some(dir.clone());
    let election = Election::create(&cfg).expect("create durable");
    for &u in &committed_ops {
        election.submit(u).expect("submit");
    }
    let committed = election.flush().expect("flush");
    for &u in &in_window {
        election.submit(u).expect("submit in window");
    }
    // Long enough for the sequencer to apply them: they are in its
    // engine, but their window has not been logged.
    std::thread::sleep(Duration::from_millis(50));
    election.kill();

    let wal = ld_store::recover(&dir.join("shard-0")).expect("uncapped store recovery");
    assert_eq!(
        wal.records, committed.applied,
        "the WAL holds no record of the open window"
    );
    let (revived, report) = Election::recover(&dir, &cfg).expect("recover");
    assert_eq!(report.epoch, committed.epoch);
    assert_eq!(report.digest, committed.tally.digest);
    assert_eq!(report.applied, committed.applied);
    assert_eq!(report.rejected, committed.rejected);
    let (engine, _) = oracle(n, &committed_ops);
    assert_matches_engine(&revived.snapshot(), &engine, "recovered");
    revived.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flush_mid_window_covers_every_prior_submit_without_waiting_out_the_window() {
    let n = 90;
    let updates = stream(n, 900, 0xF1A5);
    let mut cfg = ElectionConfig::new(n as u32);
    cfg.window = Duration::from_secs(10);
    cfg.publish_every = 0;
    let election = Election::create(&cfg).expect("create");
    for (round, chunk) in updates.chunks(300).enumerate() {
        for &u in chunk {
            election.submit(u).expect("submit");
        }
        let start = Instant::now();
        let snap = election.flush().expect("flush");
        let waited = start.elapsed();
        assert!(
            waited < Duration::from_secs(5),
            "flush {round} waited {waited:?} for a 10 s window"
        );
        let prior = &updates[..300 * (round + 1)];
        let (engine, accepted) = oracle(n, prior);
        assert_eq!(
            snap.applied,
            accepted.len() as u64,
            "flush {round}: applied"
        );
        assert_eq!(
            snap.rejected,
            (prior.len() - accepted.len()) as u64,
            "flush {round}: rejected"
        );
        assert_matches_engine(&snap, &engine, &format!("flush {round}"));
    }
    election.shutdown().expect("shutdown");
}

/// Accepted churn with one update of every reject kind after each
/// four: an out-of-range voter, an out-of-range target, a delegation
/// that closes a cycle, and a competence outside `[0, 1]`.
fn churn_with_every_reject(n: usize, ops: usize, seed: u64) -> Vec<Update> {
    let mut out = Vec::with_capacity(ops);
    let mut k = 0u64;
    while out.len() < ops {
        let r = splitmix64(seed ^ k.wrapping_mul(0x9E37_79B9));
        let voter = (r >> 8) as usize % n;
        let target = (voter + 1 + (r >> 32) as usize % 5) % n;
        out.push(match k % 5 {
            4 => match (k / 5) % 4 {
                0 => Update::Vote { voter: n + voter },
                1 => Update::Delegate {
                    voter,
                    target: n + target,
                },
                // Follows `voter -> target` below when that was
                // accepted, so the reverse edge closes a cycle.
                2 => Update::Delegate {
                    voter: target,
                    target: voter,
                },
                _ => Update::Competence {
                    voter,
                    p: if r.is_multiple_of(2) { 1.5 } else { -0.25 },
                },
            },
            3 => Update::Delegate { voter, target },
            2 => Update::Competence {
                voter,
                p: ((r >> 16) % 1000) as f64 / 1000.0,
            },
            1 => Update::Vote { voter },
            _ => Update::Abstain { voter },
        });
        k += 1;
    }
    out
}

#[test]
fn long_drained_runs_with_rejects_match_the_oracle_and_log_in_arrival_order() {
    let n = 120;
    let dir = scratch("drained-runs");
    let updates = churn_with_every_reject(n, 6000, 0xD2A1);
    // The oracle, one update at a time; every reject kind must occur.
    let mut engine = LiveEngine::new(vec![Action::Vote; n], vec![0.5; n]).expect("oracle engine");
    let (mut accepted, mut kinds) = (Vec::new(), [0usize; 4]);
    for &u in &updates {
        match engine.apply(u) {
            Ok(_) => accepted.push(u),
            Err(reason) => {
                kinds[match reason {
                    RejectReason::VoterOutOfRange { .. } => 0,
                    RejectReason::TargetOutOfRange { .. } => 1,
                    RejectReason::WouldCreateCycle { .. } => 2,
                    RejectReason::InvalidCompetence { .. } => 3,
                }] += 1;
            }
        }
    }
    assert!(kinds.iter().all(|&k| k > 0), "reject kinds {kinds:?}");

    let mut cfg = ElectionConfig::new(n as u32);
    // Only `max_batch`, a Flush or shutdown ends a window this long, so
    // the burst queues up behind the sequencer and is drained in runs.
    cfg.window = Duration::from_secs(10);
    cfg.publish_every = 0;
    cfg.dir = Some(dir.clone());
    let election = Election::create(&cfg).expect("create durable");
    for &u in &updates {
        election.submit(u).expect("submit");
    }
    let snap = election.flush().expect("flush");
    assert_matches_engine(&snap, &engine, "drained runs");
    assert_eq!(snap.applied, accepted.len() as u64, "applied");
    assert_eq!(
        snap.rejected,
        (updates.len() - accepted.len()) as u64,
        "rejected"
    );
    election.shutdown().expect("shutdown");

    let store = dir.join("shard-0");
    let recovered = ld_store::recover(&store).expect("uncapped store recovery");
    assert_eq!(recovered.records, accepted.len() as u64, "WAL records");
    assert_eq!(
        recovered.engine.weights(),
        engine.weights(),
        "replayed state"
    );
    let wal = ld_store::wal::read_wal(&store.join(ld_store::WAL_FILE)).expect("read WAL");
    assert!(
        wal.scan.updates == accepted,
        "the WAL holds exactly the accepted updates, in arrival order"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn midrun_kill_recovers_some_accepted_prefix_exactly() {
    let n = 50;
    let dir = scratch("midrun-kill");
    let updates = stream(n, 600, 0x5EED);
    let (_, accepted) = oracle(n, &updates);

    let mut cfg = ElectionConfig::new(n as u32);
    cfg.window = Duration::from_micros(100);
    cfg.publish_every = 2; // commit often so the kill lands mid-history
    cfg.dir = Some(dir.clone());
    let election = Election::create(&cfg).expect("create durable");
    for &u in &updates {
        election.submit(u).expect("submit");
    }
    election.kill();

    // Whatever epoch the kill left committed, it must be an exact
    // prefix of the deterministic acceptance order.
    let (revived, report) = Election::recover(&dir, &cfg).expect("recover");
    let k = usize::try_from(report.applied).expect("fits");
    assert!(
        k <= accepted.len(),
        "committed prefix within accepted stream"
    );
    let mut prefix_engine =
        LiveEngine::new(vec![Action::Vote; n], vec![0.5; n]).expect("prefix engine");
    let report2 = prefix_engine.apply_batch(&accepted[..k]);
    assert!(
        report2.rejected.is_empty(),
        "accepted prefix replays cleanly"
    );
    assert_matches_engine(&revived.snapshot(), &prefix_engine, "mid-run recovery");
    revived.shutdown().expect("shutdown");
}

#[test]
fn midstream_kill_recovers_the_committed_epochs_digest_and_count() {
    let n = 60;
    let dir = scratch("midstream-count");
    let updates = stream(n, 3000, 0x0DDBA11);
    let mut cfg = ElectionConfig::new(n as u32);
    cfg.window = Duration::from_micros(50);
    cfg.max_batch = 64;
    cfg.publish_every = 1; // an epoch per window, so the kill lands between commits
    cfg.dir = Some(dir.clone());
    let election = Election::create(&cfg).expect("create durable");
    for &u in &updates {
        election.submit(u).expect("submit");
    }
    election.kill();

    let committed = EpochLog::open(&dir.join(EPOCHS_FILE))
        .expect("epoch log")
        .last()
        .cloned();
    let (revived, report) = Election::recover(&dir, &cfg).expect("recover");
    let (epoch, digest, records) =
        committed.map_or((0, report.digest, 0), |e| (e.epoch, e.digest, e.records));
    assert_eq!(report.epoch, epoch, "resumes at the last committed epoch");
    assert_eq!(
        report.digest, digest,
        "recovered digest is the committed one"
    );
    assert_eq!(
        report.applied, records,
        "replay capped at the epoch's count"
    );
    let snap = revived.snapshot();
    assert_eq!(snap.tally.digest, digest);
    assert_eq!(snap.applied, records);
    revived.shutdown().expect("shutdown");
}

#[test]
fn a_wal_failure_is_sticky_and_surfaces_at_shutdown() {
    let n = 32;
    let updates = stream(n, 200, 0xFA17);
    let mut failed = 0;
    // The k-th store I/O operation fails; small k hit election
    // creation, later ones hit ingest or a barrier.
    for k in 1..40 {
        let dir = scratch(&format!("wal-fault-{k}"));
        let mut cfg = ElectionConfig::new(n as u32);
        cfg.publish_every = 0;
        cfg.dir = Some(dir.clone());
        cfg.store.fault = ld_store::FaultPlan::fail_at(k);
        let Ok(election) = Election::create(&cfg) else {
            continue;
        };
        for &u in &updates {
            election.submit(u).expect("submit");
        }
        if election.flush().is_ok() {
            // The fault may still land in shutdown's final barrier.
            let _ = election.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
            continue;
        }
        failed += 1;
        assert!(
            matches!(election.flush(), Err(ServeError::Sequencer(_))),
            "k = {k}: a failed election must not publish again"
        );
        assert!(
            matches!(election.shutdown(), Err(ServeError::Sequencer(_))),
            "k = {k}: shutdown surfaces the failure"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(failed > 0, "some fault landed after creation");
}

#[test]
fn durable_round_trip_with_heavy_sinks_recovers_the_committed_digest() {
    let n = 3000;
    let dir = scratch("heavy-round-trip");
    // Two heavy sinks (weight >= 256), many light ones, many zeros.
    let mut updates: Vec<Update> = (2..n)
        .map(|voter| Update::Delegate {
            voter,
            target: match voter % 10 {
                0..=3 => 0,
                4..=5 => 1,
                _ => voter - voter % 10 + 6,
            },
        })
        .collect();
    updates.extend(stream(n, 2000, 0x4EA7));
    let (engine, _) = oracle(n, &updates);
    assert!(engine.weights().iter().any(|&w| w >= 256), "a heavy sink");

    let mut cfg = ElectionConfig::new(n as u32);
    cfg.publish_every = 0;
    cfg.dir = Some(dir.clone());
    let election = Election::create(&cfg).expect("create durable");
    for &u in &updates {
        election.submit(u).expect("submit");
    }
    let committed = election.flush().expect("flush");
    assert_matches_engine(&committed, &engine, "flushed");
    let weights: Vec<u64> = engine.weights().iter().map(|&w| w as u64).collect();
    let (discarded, tallied) = (engine.discarded() as u64, engine.tallied() as u64);
    assert_eq!(
        committed.tally.digest,
        tally_digest(&weights, discarded, tallied),
        "digest"
    );
    election.kill();

    let (revived, report) = Election::recover(&dir, &cfg).expect("recover without DigestMismatch");
    assert_eq!(report.digest, committed.tally.digest);
    assert_eq!(revived.snapshot().tally, committed.tally);
    revived.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_is_answered_while_another_requests_flush_is_in_progress() {
    let n = 100_000;
    let dir = scratch("query-during-flush");
    let mut cfg = ElectionConfig::new(n as u32);
    cfg.publish_every = 0;
    cfg.dir = Some(dir.clone());
    let host = Host::new();
    host.insert(1, Election::create(&cfg).expect("create durable"))
        .expect("insert");
    let submit = |update| {
        let response = host.handle(&Request::Submit {
            election: 1,
            update,
        });
        assert_eq!(response, Response::Enqueued);
    };
    // A star: every voter but 1 carried by voter 0.
    for voter in 2..n {
        submit(Update::Delegate { voter, target: 0 });
    }
    let Response::Tally(star) = host.handle(&Request::Flush { election: 1 }) else {
        panic!("flush answered no tally");
    };
    // A backlog the Flush below must wait out: each update moves the
    // whole star between sinks 0 and 1, O(n) work apiece.
    for _ in 0..100 {
        submit(Update::Delegate {
            voter: 0,
            target: 1,
        });
        submit(Update::Vote { voter: 0 });
    }
    let (flushed, answered_inside) = std::thread::scope(|scope| {
        let host = &host;
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let flusher = scope.spawn(move || {
            started_tx.send(()).expect("signal");
            let response = host.handle(&Request::Flush { election: 1 });
            (response, Instant::now())
        });
        started_rx.recv().expect("flush started");
        // Long enough for a host that ran requests under its map lock
        // to be holding that lock for the Flush.
        std::thread::sleep(Duration::from_millis(2));
        let mut answers = Vec::new();
        while !flusher.is_finished() {
            let Response::Tally(t) = host.handle(&Request::Query { election: 1 }) else {
                panic!("query answered no tally");
            };
            answers.push((t.epoch, Instant::now()));
            std::thread::sleep(Duration::from_micros(100));
        }
        let (response, flush_done) = flusher.join().expect("flusher");
        let Response::Tally(flushed) = response else {
            panic!("flush answered no tally");
        };
        // Strictly inside: answered before the Flush returned, from the
        // epoch before the one the Flush published.
        let inside = answers
            .iter()
            .filter(|&&(epoch, at)| epoch == star.epoch && at < flush_done)
            .count();
        (flushed, inside)
    });
    assert_eq!(flushed.epoch, star.epoch + 1);
    assert!(
        answered_inside > 0,
        "no Query was answered while the Flush was in progress"
    );
    host.shutdown_all().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
