//! Obs is behaviour-neutral: always-on recording must not change a
//! single bit of any computed result.
//!
//! The constants below were pinned from a build in which ld-obs was a
//! compile-time feature, switched off, so nothing was recorded. Every
//! build records now, and reproducing them bit-for-bit shows that spans
//! and counters observe the computation but never participate in it.
//! Regenerate after an *intentional* engine change by running with
//! `PRINT_NEUTRALITY=1 cargo test -p ld-sim --test obs_neutrality -- --nocapture`
//! and pasting the printed constants.
//!
//! The suite also checks what the counters report: the accounting
//! identity `started == finished + lost`, including across a panicking
//! mechanism (the quarantine path), the scheduler counters, and the
//! service's `serve.applied`.

use ld_core::distributions::CompetencyDistribution;
use ld_core::mechanisms::ApprovalThreshold;
use ld_core::tally::TieBreak;
use ld_graph::generators;
use ld_live::workload::{Trace, TraceConfig};
use ld_live::LiveEngine;
use ld_prob::rng::stream_rng;
use ld_sim::engine::Engine;
use std::sync::Mutex;

/// Serializes the tests in this binary: the registry is global, and a
/// counter test must not observe another test's work.
static NEUTRALITY_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    NEUTRALITY_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn mc_instance(n: usize) -> ld_core::ProblemInstance {
    let mut rng = stream_rng(0x0B5_0FF, 1);
    let dist = CompetencyDistribution::Uniform { lo: 0.35, hi: 0.65 };
    let profile = dist.sample(n, &mut rng).expect("valid profile");
    ld_core::ProblemInstance::new(generators::complete(n), profile, 0.05).expect("valid instance")
}

fn counter(snap: &ld_obs::Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

fn maybe_print(label: &str, bits: u64) {
    if std::env::var("PRINT_NEUTRALITY").is_ok_and(|v| v == "1") {
        eprintln!("const {label}: u64 = {bits:#018x};");
    }
}

/// `estimate_gain` bits pinned before recording was always on (n = 96,
/// seed 7, 48 trials; sequential and two-worker paths). Since the
/// chunked trial scheduler the SEQ and PAR2 constants are *equal* —
/// the worker count no longer participates in the result at all.
const SEQ_P_DIRECT_BITS: u64 = 0x3fd7fc8da514cc34;
const SEQ_P_MECH_BITS: u64 = 0x3fe9aeb3e865a291;
const PAR2_P_DIRECT_BITS: u64 = 0x3fd7fc8da514cc34;
const PAR2_P_MECH_BITS: u64 = 0x3fe9aeb3e865a291;

/// Live replay summary pinned before recording was always on (n = 128,
/// balanced trace, seed 11, 300 updates).
const LIVE_APPLIED: u64 = 0x000000000000012b;
const LIVE_TOUCHED_TOTAL: u64 = 0x0000000000000118;
const LIVE_DECISION_BITS: u64 = 0x3fc09092229b25f4;

#[test]
fn estimate_gain_matches_bits_pinned_without_recording() {
    let _guard = lock();
    let inst = mc_instance(96);
    let mech = ApprovalThreshold::new(1);
    let cases = [
        (1usize, "SEQ", SEQ_P_DIRECT_BITS, SEQ_P_MECH_BITS),
        (2, "PAR2", PAR2_P_DIRECT_BITS, PAR2_P_MECH_BITS),
    ];
    let measured: Vec<_> = cases
        .iter()
        .map(|&(workers, label, ..)| {
            let est = Engine::new(7)
                .with_workers(workers)
                .estimate_gain(&inst, &mech, 48)
                .expect("estimate runs");
            maybe_print(&format!("{label}_P_DIRECT_BITS"), est.p_direct().to_bits());
            maybe_print(&format!("{label}_P_MECH_BITS"), est.p_mechanism().to_bits());
            (est.p_direct().to_bits(), est.p_mechanism().to_bits())
        })
        .collect();
    for (&(_, label, expect_direct, expect_mech), &(direct, mech_bits)) in
        cases.iter().zip(&measured)
    {
        assert_eq!(
            direct, expect_direct,
            "{label}: P[direct] drifted from the pinned bits"
        );
        assert_eq!(
            mech_bits, expect_mech,
            "{label}: P[mechanism] drifted from the pinned bits"
        );
    }
}

#[test]
fn live_replay_matches_summary_pinned_without_recording() {
    let _guard = lock();
    let n = 128;
    let trace = TraceConfig::balanced(n);
    let updates: Vec<_> = Trace::new(trace.clone(), 11)
        .expect("valid trace")
        .take(300)
        .collect();
    let mut live = LiveEngine::new(
        vec![ld_core::delegation::Action::Vote; n],
        trace.initial_competences(11),
    )
    .expect("valid live engine");
    let mut applied = 0u64;
    let mut touched_total = 0u64;
    for u in &updates {
        if let Ok(touched) = live.apply(*u) {
            applied += 1;
            touched_total += touched as u64;
        }
    }
    let decision = live.decision_probability_normal(TieBreak::Incorrect);
    maybe_print("LIVE_APPLIED", applied);
    maybe_print("LIVE_TOUCHED_TOTAL", touched_total);
    maybe_print("LIVE_DECISION_BITS", decision.to_bits());
    assert_eq!(applied, LIVE_APPLIED, "accepted-update count drifted");
    assert_eq!(touched_total, LIVE_TOUCHED_TOTAL, "touched totals drifted");
    assert_eq!(
        decision.to_bits(),
        LIVE_DECISION_BITS,
        "decision probability drifted from the pinned bits"
    );
}

/// The accounting identity: every started trial is eventually counted
/// as finished or lost, even when the mechanism panics mid-batch.
#[test]
fn trial_counters_reconcile_even_across_panics() {
    use ld_core::delegation::Action;
    use ld_core::ProblemInstance;

    let _guard = lock();
    // Healthy run: nothing is lost.
    ld_obs::reset();
    let inst = mc_instance(32);
    Engine::new(3)
        .with_workers(2)
        .estimate_gain(&inst, &ApprovalThreshold::new(1), 24)
        .expect("estimate runs");
    let snap = ld_obs::snapshot();
    let (started, finished, lost) = (
        counter(&snap, "engine.trials.started"),
        counter(&snap, "engine.trials.finished"),
        counter(&snap, "engine.trials.lost"),
    );
    assert_eq!(started, 24);
    assert_eq!(lost, 0);
    assert_eq!(started, finished + lost);

    // Scheduler counters. The chunk total is deterministic (24 trials in
    // 16-trial chunks = 2); steals and scratch growth depend on how many
    // OS threads actually ran, so only their invariants are pinned:
    // nobody can steal more chunks than exist, and every trial either
    // reused a warm arena or grew one (at most one growth per worker).
    let claimed = counter(&snap, "engine.chunks.claimed");
    let steals = counter(&snap, "engine.steals");
    let reuse = counter(&snap, "engine.scratch.reuse");
    assert_eq!(claimed, 2, "24 trials / 16-trial chunks");
    assert!(steals <= claimed, "steals {steals} > chunks {claimed}");
    assert!(
        reuse < started && started - reuse <= 2,
        "scratch reuse {reuse} inconsistent with {started} trials on ≤2 workers"
    );

    // Panicking mechanism: trials are lost, but the identity holds — the
    // guard flushes from the unwinding worker.
    struct Bomb;
    impl ld_core::mechanisms::Mechanism for Bomb {
        fn act(
            &self,
            _instance: &ProblemInstance,
            _voter: usize,
            _rng: &mut dyn ld_prob::rng::RngCore,
        ) -> Action {
            panic!("neutrality-test bomb");
        }
        fn name(&self) -> String {
            "bomb".to_string()
        }
    }
    ld_obs::reset();
    let err = Engine::new(3)
        .with_workers(2)
        .estimate_gain(&inst, &Bomb, 24)
        .expect_err("bomb must surface as an error");
    assert!(err.to_string().contains("bomb"), "unexpected error: {err}");
    let snap = ld_obs::snapshot();
    let (started, finished, lost) = (
        counter(&snap, "engine.trials.started"),
        counter(&snap, "engine.trials.finished"),
        counter(&snap, "engine.trials.lost"),
    );
    assert!(lost > 0, "panicked trials must be counted as lost");
    assert_eq!(
        started,
        finished + lost,
        "accounting identity broken across a panic"
    );
    ld_obs::reset();
}

/// On a single worker the scheduler counters are fully deterministic:
/// every chunk is claimed in order by the one worker (so no steals), and
/// every trial after the first reuses the warm arena.
#[test]
fn scheduler_counters_are_deterministic_on_one_worker() {
    let _guard = lock();
    ld_obs::reset();
    let inst = mc_instance(32);
    Engine::new(3)
        .with_workers(1)
        .estimate_gain(&inst, &ApprovalThreshold::new(1), 40)
        .expect("estimate runs");
    let snap = ld_obs::snapshot();
    assert_eq!(
        counter(&snap, "engine.chunks.claimed"),
        3,
        "40 trials / 16-trial chunks = 3"
    );
    assert_eq!(counter(&snap, "engine.steals"), 0);
    assert_eq!(
        counter(&snap, "engine.scratch.reuse"),
        39,
        "all but the very first resolve reuse the arena"
    );
    ld_obs::reset();
}

/// `serve.applied` counts accepted updates once each: every publish adds
/// what it applied since the previous publish, not the running total.
#[test]
fn serve_applied_counts_each_update_once() {
    use ld_live::Update;
    use ld_serve::{Election, ElectionConfig};

    let _guard = lock();
    ld_obs::reset();
    let election = Election::create(&ElectionConfig::new(16)).expect("election");
    let submit = |voters: std::ops::Range<usize>| {
        for voter in voters {
            election.submit(Update::Vote { voter }).expect("submit");
        }
    };
    submit(0..10);
    election.flush().expect("first flush");
    submit(10..15);
    election.flush().expect("second flush");
    let snap = election.flush().expect("empty flush");
    assert_eq!(snap.applied, 15);
    assert_eq!(counter(&ld_obs::snapshot(), "serve.applied"), 15);
    election.shutdown().expect("shutdown");
    ld_obs::reset();
}
