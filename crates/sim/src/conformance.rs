//! Simulation-layer conformance checks and the `repro conformance` gate.
//!
//! `ld-testkit` owns the core differential suite (resolver, tally, live
//! engine, normal approximation); this module adds the checks that need
//! the simulation engine itself — multi-worker determinism and store
//! crash recovery — and merges everything into one [`ConformanceReport`] for the CLI gate.

use crate::engine::Engine;
use ld_core::mechanisms::ApprovalThreshold;
use ld_core::{CompetencyProfile, ProblemInstance};
use ld_graph::generators;
use ld_testkit::report::{ConformanceReport, Mismatch};
use ld_testkit::{run_conformance, ConformanceConfig};

/// Pseudo-cell id under which engine-determinism mismatches are reported.
const ENGINE_CELL: &str = "sim/engine-determinism";
/// Pseudo-cell id under which store crash-recovery mismatches are
/// reported.
const STORE_CELL: &str = "sim/store-crash-recovery";

/// Runs the full conformance gate: the `ld-testkit` grid plus the
/// simulation-layer differential checks.
pub fn run_full_conformance(cfg: &ConformanceConfig) -> ConformanceReport {
    type SimCheck = (
        &'static str,
        &'static str,
        fn(u64, bool) -> Result<(), String>,
    );
    let sim_checks: [SimCheck; 2] = [
        ("engine-determinism", ENGINE_CELL, check_engine_determinism),
        (
            "store-crash-recovery",
            STORE_CELL,
            check_store_crash_recovery,
        ),
    ];
    // `--only` takes a comma-separated id list: sim-layer ids go to the
    // sim checks, the rest to the testkit grid, which is skipped when no
    // grid ids remain.
    let only: Option<Vec<&str>> = cfg.only.as_deref().map(|o| {
        o.split(',')
            .map(str::trim)
            .filter(|part| !part.is_empty())
            .collect()
    });
    let grid_only: Option<Vec<&str>> = only.as_ref().map(|parts| {
        parts
            .iter()
            .copied()
            .filter(|p| !sim_checks.iter().any(|(name, _, _)| name == p))
            .collect()
    });
    let mut report = match grid_only {
        Some(rest) if rest.is_empty() => ConformanceReport {
            master_seed: cfg.seed,
            quick: cfg.quick,
            mutation: cfg.mutation.map(|m| m.id().to_string()),
            cells: 0,
            checks_run: 0,
            checks_skipped: 0,
            corpus_entries: 0,
            mismatches: Vec::new(),
        },
        rest => run_conformance(&ConformanceConfig {
            only: rest.map(|r| r.join(",")),
            ..cfg.clone()
        }),
    };
    for (check, cell, run) in sim_checks {
        if only.as_ref().is_some_and(|parts| !parts.contains(&check)) {
            continue;
        }
        if cfg
            .case_filter
            .as_deref()
            .is_some_and(|f| !cell.contains(f))
        {
            continue;
        }
        report.checks_run += 1;
        if let Err(detail) = run(cfg.seed, cfg.quick) {
            report.mismatches.push(Mismatch {
                check: check.to_string(),
                cell: cell.to_string(),
                seed: cfg.seed,
                detail,
                shrunk: None,
                repro: cfg.repro_command(cell, check, cfg.seed),
            });
        }
    }
    // A filter that selects nothing must not pass silently.
    if report.checks_run == 0 && report.ok() {
        report.mismatches.push(Mismatch {
            check: "config".to_string(),
            cell: String::new(),
            seed: cfg.seed,
            detail: "the --only/--case filters select no check to run".to_string(),
            shrunk: None,
            repro: "repro conformance --help".to_string(),
        });
    }
    report
}

/// The chunked trial scheduler must be scheduling-free for a fixed
/// `(seed, trials)` pair: repeated runs are bit-identical, and so are
/// runs across *different* worker counts — trial `t` always draws from
/// `stream_rng(seed, t)` and chunk partials merge in canonical order, so
/// the worker count cannot participate in the result.
fn check_engine_determinism(seed: u64, _quick: bool) -> Result<(), String> {
    let profile = CompetencyProfile::linear(24, 0.25, 0.75).map_err(|e| e.to_string())?;
    let instance =
        ProblemInstance::new(generators::complete(24), profile, 0.05).map_err(|e| e.to_string())?;
    let mechanism = ApprovalThreshold::new(1);
    // Bit-level comparison of every observable statistic; `to_bits`
    // distinguishes values an epsilon comparison would conflate.
    let fingerprint = |g: &ld_core::gain::GainEstimate| {
        let floats = [
            g.p_direct(),
            g.p_mechanism(),
            g.gain(),
            g.gain_ci(1.96).0,
            g.gain_ci(1.96).1,
            g.mean_delegators(),
            g.mean_sinks(),
            g.mean_max_weight(),
            g.mean_longest_chain(),
            g.mean_abstained(),
            g.mean_weight_gini(),
        ];
        (g.trials(), floats.map(f64::to_bits))
    };
    let reference = Engine::new(seed)
        .with_workers(1)
        .estimate_gain(&instance, &mechanism, 60)
        .map_err(|e| e.to_string())?;
    for workers in [1usize, 2, 3, 4, 8] {
        let engine = Engine::new(seed).with_workers(workers);
        let first = engine
            .estimate_gain(&instance, &mechanism, 60)
            .map_err(|e| e.to_string())?;
        let second = engine
            .estimate_gain(&instance, &mechanism, 60)
            .map_err(|e| e.to_string())?;
        if fingerprint(&first) != fingerprint(&second) {
            return Err(format!(
                "estimate_gain not bit-identical across repeated runs with {workers} \
                 worker(s), seed {seed}: p_mechanism {} vs {}, gain {} vs {}",
                first.p_mechanism(),
                second.p_mechanism(),
                first.gain(),
                second.gain()
            ));
        }
        if fingerprint(&first) != fingerprint(&reference) {
            return Err(format!(
                "estimate_gain with {workers} worker(s) diverged from the single-worker \
                 run, seed {seed}: p_mechanism {} vs {}, gain {} vs {}",
                first.p_mechanism(),
                reference.p_mechanism(),
                first.gain(),
                reference.gain()
            ));
        }
    }
    Ok(())
}

/// Crash the durable store at seeded I/O offsets, recover, and demand
/// the crash contract at scale: the recovered engine is bit-identical
/// to replaying the surviving WAL prefix, and after resuming and
/// finishing the interrupted trace it converges bit-identically with
/// the replica that never crashed. Quick mode runs a small population
/// over many offsets; the full grid runs n = 10⁶ over sampled offsets
/// (byte-level exhaustiveness lives in the `wal-crash-oracle` check and
/// the store's own property tests).
fn check_store_crash_recovery(seed: u64, quick: bool) -> Result<(), String> {
    use crate::durable::{run_durable, scratch_dir, DurableSpec};
    use ld_store::{recover, FaultPlan, Store, StoreError, StoreOptions};

    let (n, updates, probes) = if quick {
        (500usize, 2_500usize, 8u64)
    } else {
        (1_000_000, 120_000, 4)
    };
    let opts = StoreOptions {
        sync_every: 64,
        snapshot_every: (updates as u64 / 3).max(1),
        fault: FaultPlan::none(),
    };
    let spec = DurableSpec::balanced(n, updates, seed, opts);

    // The fault-free replica: the convergence target and the op budget
    // that seeded crash offsets are drawn from.
    let base_dir = scratch_dir(&format!("conformance-base-{seed}"));
    let baseline = run_durable(&base_dir, &spec).map_err(|e| e.to_string())?;
    // Records undercount I/O ops (fsyncs, snapshot sections), so seeded
    // offsets skew toward the WAL body — exactly the interesting region.
    let total_ops = baseline.records.max(1);
    std::fs::remove_dir_all(&base_dir).ok();

    for probe in 0..probes {
        let fault = FaultPlan::seeded(seed, probe, total_ops);
        let dir = scratch_dir(&format!("conformance-{seed}-{probe}"));
        let cell = || format!("{} at op {} (probe {probe})", fault.kind.id(), fault.at);
        let crashed = run_durable(
            &dir,
            &DurableSpec {
                opts: StoreOptions { fault, ..opts },
                ..spec.clone()
            },
        )
        .map_err(|e| format!("{}: {e}", cell()))?;
        if crashed.crashed.is_none() {
            // The plan landed past the run's actual op count; nothing
            // to recover from — a completed store is covered elsewhere.
            std::fs::remove_dir_all(&dir).ok();
            continue;
        }

        let recovery = match recover(&dir) {
            Ok(r) => r,
            Err(StoreError::Corrupt { .. }) if fault.kind == ld_store::FaultKind::CorruptByte => {
                // A corruption fault on the WAL header itself: the
                // typed-error contract, not a recovery bug.
                std::fs::remove_dir_all(&dir).ok();
                continue;
            }
            Err(_) if crashed.applied == 0 => {
                // Crash before any durable state existed.
                std::fs::remove_dir_all(&dir).ok();
                continue;
            }
            Err(e) => return Err(format!("{}: recovery failed: {e}", cell())),
        };

        // Prefix property: replaying the surviving records from the
        // initial state reproduces the recovered engine exactly.
        let records = recovery.records as usize;
        if records > crashed.applied {
            return Err(format!(
                "{}: {records} records survived, only {} were appended",
                cell(),
                crashed.applied
            ));
        }
        let mut replayed = spec.initial_engine().map_err(|e| e.to_string())?;
        let mut accepted = 0usize;
        let mut consumed_at_prefix = 0usize;
        for (i, u) in spec
            .trace_updates()
            .map_err(|e| e.to_string())?
            .iter()
            .enumerate()
        {
            if accepted == records {
                consumed_at_prefix = i;
                break;
            }
            if replayed.apply(*u).is_ok() {
                accepted += 1;
            }
            consumed_at_prefix = i + 1;
        }
        if accepted != records {
            return Err(format!(
                "{}: trace yields only {accepted} accepted updates, log holds {records}",
                cell()
            ));
        }
        let same = |a: &ld_live::LiveEngine, b: &ld_live::LiveEngine| {
            a.resolution() == b.resolution()
                && a.actions() == b.actions()
                && a.competences() == b.competences()
                && a.depths() == b.depths()
        };
        if !same(&recovery.engine, &replayed) {
            return Err(format!(
                "{}: recovered engine is not the replay of its own {records}-record prefix",
                cell()
            ));
        }

        // Reconvergence: resume, finish the interrupted trace, and land
        // bit-identically on the fault-free replica.
        let (mut store, resumed) =
            Store::resume(&dir, opts).map_err(|e| format!("{}: resume failed: {e}", cell()))?;
        let mut engine = resumed.engine;
        for u in spec
            .trace_updates()
            .map_err(|e| e.to_string())?
            .into_iter()
            .skip(consumed_at_prefix)
        {
            if engine.apply(u).is_ok() {
                store.append(&u).map_err(|e| format!("{}: {e}", cell()))?;
            }
        }
        store.sync().map_err(|e| format!("{}: {e}", cell()))?;
        drop(store);
        if !same(&engine, &baseline.engine) {
            return Err(format!(
                "{}: resumed run diverged from the replica that never crashed",
                cell()
            ));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_determinism_holds() {
        check_engine_determinism(0x5EED, true).expect("engine must be deterministic");
    }

    #[test]
    fn store_crash_recovery_holds_quick() {
        check_store_crash_recovery(0x5EED, true).expect("crash recovery must converge");
    }

    #[test]
    fn full_gate_includes_sim_checks() {
        let cfg = ConformanceConfig {
            quick: true,
            only: Some("engine-determinism".to_string()),
            include_corpus: false,
            ..ConformanceConfig::default()
        };
        let report = run_full_conformance(&cfg);
        assert!(report.ok(), "{}", report.to_json());
        assert_eq!(report.checks_run, 1);
    }

    #[test]
    fn a_mixed_only_list_splits_between_sim_and_grid() {
        let cfg = ConformanceConfig {
            quick: true,
            only: Some("engine-determinism,weight-conservation".to_string()),
            include_corpus: false,
            ..ConformanceConfig::default()
        };
        let report = run_full_conformance(&cfg);
        assert!(report.ok(), "{}", report.to_json());
        // One weight-conservation run (or skip) per grid cell, plus the
        // engine check.
        assert!(report.cells > 0);
        assert_eq!(report.checks_run + report.checks_skipped, report.cells + 1);
        let bad = ConformanceConfig {
            only: Some("engine-determinism,no-such-check".to_string()),
            ..cfg
        };
        let report = run_full_conformance(&bad);
        assert_eq!(report.mismatches[0].check, "config");
    }

    #[test]
    fn a_run_with_zero_checks_is_a_config_error() {
        let cfg = ConformanceConfig {
            quick: true,
            only: Some("engine-determinism".to_string()),
            case_filter: Some("complete/linear".to_string()),
            include_corpus: false,
            ..ConformanceConfig::default()
        };
        let report = run_full_conformance(&cfg);
        assert_eq!(report.checks_run, 0);
        assert!(!report.ok());
        assert_eq!(report.mismatches.len(), 1);
        assert_eq!(report.mismatches[0].check, "config");
    }
}
