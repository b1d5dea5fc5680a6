//! Drivers for the `ld-serve` election service: the `repro serve-bench`
//! throughput/latency gate, the `repro serve-recover` restart check, and
//! the service-routed variant of `repro stress`.
//!
//! The bench is differential by construction: every run streams the same
//! seeded trace through a single reference [`LiveEngine`] and fails
//! unless the service's published epoch tally is bit-identical
//! (weights, discarded, tallied, sinks) and its normal-approximation
//! `P[correct]` agrees to within `1e-9` — the same oracle discipline the
//! testkit `serve-replay` conformance check applies on the small grid,
//! applied here at millions of operations.

use crate::error::{Result, SimError};
use ld_core::delegation::{Action, DelegationGraph};
use ld_core::tally::TieBreak;
use ld_live::workload::{Trace, TraceConfig};
use ld_live::{LiveEngine, Update};
use ld_serve::{Election, ElectionConfig, EpochSnapshot, ServeRecovery};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of one `serve-bench` run.
#[derive(Debug, Clone)]
pub struct ServeBenchSpec {
    /// The churn trace (voters, mix, skew).
    pub trace: TraceConfig,
    /// Updates to stream through the service.
    pub updates: usize,
    /// Master seed (trace and initial competences).
    pub seed: u64,
    /// Ingest batching window.
    pub window: Duration,
    /// Updates per applied batch, at most.
    pub max_batch: usize,
    /// Windows between automatic epoch publishes.
    pub publish_every: u32,
    /// Durable root; `None` benches the in-memory service.
    pub dir: Option<PathBuf>,
    /// Simulate a crash: commit an epoch after this many updates, stream
    /// the remainder without committing, then kill the service abruptly
    /// (needs `dir`; `repro serve-recover` proves the restart).
    pub kill_at: Option<usize>,
}

impl ServeBenchSpec {
    /// The default full-scale gate: 1M mixed operations.
    #[must_use]
    pub fn full(seed: u64) -> Self {
        ServeBenchSpec {
            trace: TraceConfig::balanced(100_000),
            updates: 1_000_000,
            seed,
            window: Duration::from_millis(1),
            max_batch: 4096,
            publish_every: 8,
            dir: None,
            kill_at: None,
        }
    }

    /// The CI-sized variant: 40k operations over 10k voters.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        ServeBenchSpec {
            trace: TraceConfig::balanced(10_000),
            updates: 40_000,
            ..ServeBenchSpec::full(seed)
        }
    }
}

/// What one `serve-bench` run measured (after the oracle differential
/// passed — a mismatch is an error, not an outcome).
#[derive(Debug, Clone)]
pub struct ServeBenchOutcome {
    /// Voters.
    pub n: usize,
    /// Updates accepted by the sequencer.
    pub applied: u64,
    /// Updates rejected by the sequencer.
    pub rejected: u64,
    /// Wall-clock seconds for ingest + final flush.
    pub elapsed: f64,
    /// Sequenced operations per second.
    pub ops_per_sec: f64,
    /// Median ingest→publish latency, microseconds (a bucket-midpoint
    /// estimate from the election's latency histogram).
    pub p50_us: f64,
    /// 99th-percentile ingest→publish latency, microseconds (likewise).
    pub p99_us: f64,
    /// Final published epoch.
    pub epoch: u64,
    /// Final tally digest (the restart-conformance token).
    pub digest: u64,
    /// Sinks in the final tally.
    pub sinks: u64,
    /// Discarded (abstaining-tree) voters.
    pub discarded: u64,
    /// Normal-approximation decision probability.
    pub p_correct: f64,
    /// Whether the run ended in a simulated crash (`kill_at`).
    pub killed: bool,
    /// The epoch committed before the simulated crash, when `kill_at`.
    pub committed_epoch: Option<u64>,
}

fn serve_err(e: ld_serve::ServeError) -> SimError {
    SimError::Config {
        reason: format!("serve: {e}"),
    }
}

/// Streams the seeded trace through an election and verifies the
/// published tally against the single-engine oracle (unless the run is
/// a `kill_at` crash simulation, which exits early by design).
///
/// # Errors
///
/// Service-layer failures, trace-configuration errors, and — the point
/// of the gate — any divergence between the published tally and the
/// single-engine oracle.
pub fn run_serve_bench(spec: &ServeBenchSpec) -> Result<ServeBenchOutcome> {
    let n = spec.trace.n;
    let competences = spec.trace.initial_competences(spec.seed);
    let mut cfg = ElectionConfig::new(n as u32);
    cfg.window = spec.window;
    cfg.max_batch = spec.max_batch;
    cfg.publish_every = spec.publish_every;
    cfg.competences = Some(competences.clone());
    cfg.dir.clone_from(&spec.dir);
    let updates: Vec<Update> = Trace::new(spec.trace.clone(), spec.seed)
        .map_err(|reason| SimError::Config { reason })?
        .take(spec.updates)
        .collect();

    if let Some(k) = spec.kill_at {
        if spec.dir.is_none() {
            return Err(SimError::Config {
                reason: "serve-bench --kill-at needs --dir (recovery reads the WALs)".to_string(),
            });
        }
        let k = k.min(updates.len());
        let election = Election::create(&cfg).map_err(serve_err)?;
        let t0 = Instant::now();
        for u in &updates[..k] {
            election.submit(*u).map_err(serve_err)?;
        }
        let committed = election.flush().map_err(serve_err)?;
        for u in &updates[k..] {
            election.submit(*u).map_err(serve_err)?;
        }
        let elapsed = t0.elapsed().as_secs_f64();
        election.kill();
        return Ok(ServeBenchOutcome {
            n,
            applied: committed.applied,
            rejected: committed.rejected,
            elapsed,
            ops_per_sec: updates.len() as f64 / elapsed.max(1e-9),
            p50_us: 0.0,
            p99_us: 0.0,
            epoch: committed.epoch,
            digest: committed.tally.digest,
            sinks: committed.tally.sink_count,
            discarded: committed.tally.discarded,
            p_correct: committed.tally.p_correct,
            killed: true,
            committed_epoch: Some(committed.epoch),
        });
    }

    let election = Election::create(&cfg).map_err(serve_err)?;
    let t0 = Instant::now();
    for u in &updates {
        election.submit(*u).map_err(serve_err)?;
    }
    let snap = election.flush().map_err(serve_err)?;
    let elapsed = t0.elapsed().as_secs_f64();
    let latency = election.latency_ns();
    let outcome = ServeBenchOutcome {
        n,
        applied: snap.applied,
        rejected: snap.rejected,
        elapsed,
        ops_per_sec: updates.len() as f64 / elapsed.max(1e-9),
        p50_us: latency.p50 as f64 / 1_000.0,
        p99_us: latency.p99 as f64 / 1_000.0,
        epoch: snap.epoch,
        digest: snap.tally.digest,
        sinks: snap.tally.sink_count,
        discarded: snap.tally.discarded,
        p_correct: snap.tally.p_correct,
        killed: false,
        committed_epoch: None,
    };
    verify_against_oracle(&snap, n, &competences, &updates)?;
    election.shutdown().map_err(serve_err)?;
    Ok(outcome)
}

/// The differential: a single engine streams the identical trace, its
/// final state is re-proved from scratch, and the service's published
/// tally must match it field for field.
fn verify_against_oracle(
    snap: &EpochSnapshot,
    n: usize,
    competences: &[f64],
    updates: &[Update],
) -> Result<()> {
    let fail = |reason: String| -> SimError {
        SimError::Config {
            reason: format!("serve-bench oracle mismatch: {reason}"),
        }
    };
    let mut oracle = LiveEngine::new(vec![Action::Vote; n], competences.to_vec()).map_err(|e| {
        SimError::Config {
            reason: format!("oracle engine: {e}"),
        }
    })?;
    let mut accepted = 0u64;
    for u in updates {
        if oracle.apply(*u).is_ok() {
            accepted += 1;
        }
    }
    if snap.applied != accepted || snap.rejected != (updates.len() as u64 - accepted) {
        return Err(fail(format!(
            "service sequenced {} applied / {} rejected, oracle accepted {accepted} of {}",
            snap.applied,
            snap.rejected,
            updates.len()
        )));
    }
    // From-scratch resolve of the oracle's own final action vector: the
    // incremental state must be reproducible before it is trusted as the
    // comparison baseline.
    let scratch = DelegationGraph::new(oracle.actions().to_vec())
        .resolve()
        .map_err(|e| fail(format!("from-scratch resolve errored: {e}")))?;
    if scratch != oracle.resolution() {
        return Err(fail(
            "oracle incremental state differs from from-scratch resolve".to_string(),
        ));
    }
    let want: Vec<u64> = oracle.weights().iter().map(|&w| w as u64).collect();
    if snap.tally.weights != want {
        let first = snap
            .tally
            .weights
            .iter()
            .zip(&want)
            .position(|(a, b)| a != b);
        return Err(fail(format!(
            "published weights diverge from the single engine (first difference at voter {first:?})"
        )));
    }
    if (
        snap.tally.discarded,
        snap.tally.tallied,
        snap.tally.sink_count,
    ) != (
        oracle.discarded() as u64,
        oracle.tallied() as u64,
        oracle.sink_count() as u64,
    ) {
        return Err(fail(format!(
            "aggregates (discarded {}, tallied {}, sinks {}) vs oracle ({}, {}, {})",
            snap.tally.discarded,
            snap.tally.tallied,
            snap.tally.sink_count,
            oracle.discarded(),
            oracle.tallied(),
            oracle.sink_count()
        )));
    }
    let p = oracle.decision_probability_normal(TieBreak::CoinFlip);
    if (snap.tally.p_correct - p).abs() > 1e-9 {
        return Err(fail(format!(
            "P[correct] {} vs oracle {p}",
            snap.tally.p_correct
        )));
    }
    Ok(())
}

/// Recovers a durable election from `dir`, returning the restart report
/// and the published snapshot, then shuts the revived service down.
///
/// # Errors
///
/// Durable-layer failures and [`ld_serve::ServeError::DigestMismatch`]
/// when the WAL does not reproduce the committed epoch.
pub fn run_serve_recover(dir: &Path) -> Result<(ServeRecovery, Arc<EpochSnapshot>)> {
    // Only the tuning fields of the config are read on recovery; the
    // election's facts come from its own meta file.
    let tuning = ElectionConfig::new(0);
    let (election, report) = Election::recover(dir, &tuning).map_err(serve_err)?;
    let snap = election.snapshot();
    election.shutdown().map_err(serve_err)?;
    Ok((report, snap))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_passes_its_own_oracle() {
        let mut spec = ServeBenchSpec::quick(11);
        spec.trace = TraceConfig::balanced(500);
        spec.updates = 3_000;
        spec.window = Duration::from_micros(200);
        let out = run_serve_bench(&spec).expect("bench with oracle check");
        assert_eq!(out.applied + out.rejected, 3_000);
        assert!(out.ops_per_sec > 0.0);
        assert!(
            0.0 < out.p50_us && out.p50_us <= out.p99_us,
            "latency p50 {} us, p99 {} us",
            out.p50_us,
            out.p99_us
        );
        assert!(!out.killed);
    }

    #[test]
    fn kill_and_recover_round_trips_the_committed_digest() {
        let dir = std::env::temp_dir().join(format!("ld-sim-serve-kill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = ServeBenchSpec::quick(13);
        spec.trace = TraceConfig::balanced(300);
        spec.updates = 2_000;
        spec.dir = Some(dir.clone());
        spec.kill_at = Some(1_200);
        let out = run_serve_bench(&spec).expect("crash simulation");
        assert!(out.killed);
        let (report, snap) = run_serve_recover(&dir).expect("recovery");
        assert_eq!(report.epoch, out.committed_epoch.expect("committed"));
        assert_eq!(report.digest, out.digest, "digest survives the crash");
        assert_eq!(snap.tally.digest, out.digest);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
