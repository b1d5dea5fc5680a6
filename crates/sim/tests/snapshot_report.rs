//! Golden-file snapshot tests for the user-facing renderings.
//!
//! Pinned surfaces: the Figure 1 experiment table, the verify verdict
//! table, both dynamics tables, and the redacted `--obs-summary` table. Each rendering is
//! compared byte-for-byte against a file in `tests/golden/`; refresh
//! them after an intentional format change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p ld-sim --test snapshot_report
//! ```
//!
//! Timing fields never reach a golden: the experiment/verify tables
//! contain none, and the obs summary is rendered with
//! `redact_timing = true`, so every golden is bit-stable across machines
//! for a fixed seed.

use ld_sim::experiments::{dynamics, fig1_star, ExperimentConfig};
use ld_sim::verify;
use std::path::PathBuf;
use std::sync::Mutex;

/// Serializes the tests in this binary: the obs registry is global, so
/// the snapshot test must not observe another test's counters.
static GOLDEN_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GOLDEN_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the committed golden, or rewrites the
/// golden when `UPDATE_GOLDEN=1` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("golden updated: {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "rendering drifted from golden {} (refresh with UPDATE_GOLDEN=1 \
         if the change is intentional)",
        path.display()
    );
}

#[test]
fn fig1_table_rendering_matches_golden() {
    let _guard = lock();
    let cfg = ExperimentConfig::quick(1);
    let tables = fig1_star::run(&cfg).expect("fig1 runs");
    assert_golden("fig1_table.golden", &tables[0].to_text());
}

#[test]
fn verify_table_rendering_matches_golden() {
    let _guard = lock();
    let cfg = ExperimentConfig::quick(1);
    let tables = fig1_star::run(&cfg).expect("fig1 runs");
    let verdicts = vec![
        verify::check("fig1", &tables),
        verify::check("not-a-claim", &[]),
    ];
    assert_golden(
        "verify_table.golden",
        &verify::to_table(&verdicts).to_text(),
    );
}

/// Both dynamics tables of the quick grid: every cell's `kernel_P`,
/// `P_final` and trajectory digest, and every coalition row.
#[test]
fn dynamics_tables_rendering_matches_golden() {
    let _guard = lock();
    let tables = dynamics::run(&ExperimentConfig::quick(1)).expect("dynamics runs");
    let rendered: String = tables.iter().map(|t| t.to_text()).collect();
    assert_golden("dynamics_tables.golden", &rendered);
}

/// The obs summary golden: a fixed workload through the live engine and
/// the Monte Carlo engine, rendered with timing fields redacted. Counter
/// values and non-timing histograms (touched-subtree sizes, batch region
/// counts) are deterministic for a fixed seed, and so is every span's
/// sample *count*, so the redacted rendering is bit-stable.
#[test]
fn obs_summary_rendering_matches_golden() {
    use ld_core::delegation::Action;
    use ld_core::mechanisms::GreedyMax;
    use ld_live::workload::{Trace, TraceConfig};
    use ld_live::LiveEngine;
    use ld_sim::engine::Engine;
    use ld_sim::obs_report;

    let _guard = lock();
    ld_obs::reset();

    let n = 64;
    let trace = TraceConfig::balanced(n);
    let updates: Vec<_> = Trace::new(trace.clone(), 9)
        .expect("valid trace")
        .take(96)
        .collect();
    let mut live = LiveEngine::new(vec![Action::Vote; n], trace.initial_competences(9))
        .expect("valid live engine");
    for u in &updates[..32] {
        let _ = live.apply(*u);
    }
    let _ = live.apply_batch(&updates[32..]);

    let inst = fig1_star::star_instance(9).expect("star instance");
    Engine::new(1)
        .with_workers(1)
        .estimate_gain(&inst, &GreedyMax, 8)
        .expect("estimate runs");

    let snap = ld_obs::snapshot();
    let rendered = obs_report::summary_table(&snap, true).to_text();
    ld_obs::reset();
    assert_golden("obs_summary.golden", &rendered);
}
