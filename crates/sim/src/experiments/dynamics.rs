//! **Dynamics** — best-response re-delegation until convergence.
//!
//! The paper's one-shot mechanisms produce a single delegation graph;
//! this experiment lets voters *respond* to it: every round each voter
//! evaluates keep / switch edge / vote directly against an immutable
//! snapshot (utility = expected correctness under the normal
//! approximation of the tally), and the round applies as one
//! `LiveEngine` batch — iterating to a fixpoint, a detected limit
//! cycle, or a round cap (Escoffier–Gilbert–Pass-Lanneau's model on
//! this repo's topology grid). The second table sweeps a seeded
//! coalition of `k` variance-seeking manipulators and reports how far
//! they shift the tally variance and decision probability.
//!
//! The heavy lifting lives in [`crate::dynamics`]; this wrapper picks
//! [`DynamicsConfig::quick`] or [`DynamicsConfig::new`] by the shared
//! [`ExperimentConfig`] and takes its worker count, so `repro dynamics`
//! and `repro all` share seeds, grids and coalitions. The convergence
//! table's `kernel_P` is the exact decision probability of each honest
//! trajectory's final state.

use super::ExperimentConfig;
use crate::dynamics::{run_dynamics, DynamicsConfig};
use crate::error::Result;
use crate::table::Table;

/// Runs the dynamics suite under the shared experiment configuration.
///
/// # Errors
///
/// Propagates [`crate::SimError::Config`] from cell generation or the
/// exact tally.
pub fn run(cfg: &ExperimentConfig) -> Result<Vec<Table>> {
    let dyn_cfg = DynamicsConfig {
        workers: cfg.workers,
        ..if cfg.quick {
            DynamicsConfig::quick(cfg.seed)
        } else {
            DynamicsConfig::new(cfg.seed)
        }
    };
    let report = run_dynamics(&dyn_cfg)?;
    Ok(report.tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_both_tables() {
        let tables = run(&ExperimentConfig::quick(0x1DDE_C0DE)).unwrap();
        assert_eq!(tables.len(), 2);
        assert!(tables[0].title().contains("convergence"));
        assert!(tables[1].title().contains("coalition"));
    }
}
