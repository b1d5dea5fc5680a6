//! Determinism of the dynamics experiment across the one execution axis
//! that must never matter: the worker count.
//!
//! The trajectory digest is computed from proposals and states only, so
//! it is bit-identical by construction across workers ∈ {1..16}; the
//! pinned constant turns any drift — a scheduling leak into the proposal
//! order, a grid or seed-split change — into a test failure instead of a
//! silently moved baseline.

use ld_sim::dynamics::{run_dynamics, DynamicsConfig};

/// Master seed shared with the regression corpus witnesses.
const PIN_SEED: u64 = 0x7E57_0C0D;

/// Quick-grid digest at [`PIN_SEED`]; re-pin deliberately if the grid,
/// the seed split, or the dynamics arithmetic changes.
const PINNED_GRID_DIGEST: u64 = 0xaef4_5660_a1f5_b924;

#[test]
fn grid_digest_is_pinned_across_all_worker_counts_and_kernels() {
    for workers in 1..=16 {
        let rep = run_dynamics(&DynamicsConfig {
            workers,
            ..DynamicsConfig::quick(PIN_SEED)
        })
        .unwrap();
        assert_eq!(
            rep.grid_digest, PINNED_GRID_DIGEST,
            "grid digest drifted at workers={workers}"
        );
        assert!(rep.outcomes.iter().all(|o| o.kernel_p_final.is_finite()));
    }
}
