//! The WAL fsyncs only what changed: a barrier right after a batch that
//! filled the `sync_every` window, or on a reopened log that nothing
//! has touched, costs no fsync, while a reopen that cut a torn tail
//! still does.
//!
//! `wal.fsyncs` is a process-wide ld-obs counter, so this file holds a
//! single test: no other test in its process writes a WAL.

use ld_live::Update;
use ld_store::wal::WalWriter;
use ld_store::{FaultClock, FaultPlan};
use std::sync::Arc;

fn fsyncs() -> u64 {
    let counters = ld_obs::snapshot().counters;
    counters
        .iter()
        .find(|(name, _)| name == "wal.fsyncs")
        .map_or(0, |&(_, count)| count)
}

#[test]
fn a_barrier_after_a_full_window_or_a_clean_reopen_adds_no_fsync() {
    let path = std::env::temp_dir().join(format!("ld-store-fsyncs-{}.wal", std::process::id()));
    let clock = FaultClock::new(FaultPlan::none());
    let votes: Vec<Update> = (0..4).map(|voter| Update::Vote { voter }).collect();
    {
        let mut wal = WalWriter::create(&path, Arc::clone(&clock), 4).unwrap();
        let before = fsyncs();
        wal.append_batch(&votes).unwrap();
        wal.sync().unwrap();
        assert_eq!(fsyncs() - before, 1, "a full window then a barrier");

        // A partial window is synced by the barrier, once.
        let before = fsyncs();
        wal.append_batch(&votes[..1]).unwrap();
        wal.sync().unwrap();
        wal.sync().unwrap();
        assert_eq!(fsyncs() - before, 1, "a partial window then two barriers");
    }

    // A clean reopen changed nothing.
    let (mut wal, _) = WalWriter::open_for_append(&path, Arc::clone(&clock), 4).unwrap();
    let before = fsyncs();
    wal.sync().unwrap();
    assert_eq!(fsyncs() - before, 0, "a barrier on a clean reopen");
    drop(wal);

    // A reopen that cuts a torn tail must make the cut durable.
    {
        use std::io::Write;
        let mut f = std::fs::File::options().append(true).open(&path).unwrap();
        f.write_all(&[13, 0, 0, 0, 0xde, 0xad]).unwrap();
    }
    let (mut wal, found) = WalWriter::open_for_append(&path, clock, 4).unwrap();
    assert!(!found.scan.tail.is_clean());
    assert_eq!(wal.records(), 5);
    let before = fsyncs();
    wal.sync().unwrap();
    wal.sync().unwrap();
    assert_eq!(fsyncs() - before, 1, "a barrier after cutting a torn tail");
    drop(wal);
    std::fs::remove_file(&path).unwrap();
}
