//! Theorem 5's mechanism for bounded-minimum-degree graphs.

use crate::delegation::Action;
use crate::instance::ProblemInstance;
use crate::mechanisms::{choose_approved, Mechanism};
use ld_prob::rng::RngCore;

/// The mechanism of Theorem 5: a voter delegates (to a uniformly random
/// approved neighbour) iff at least a `fraction` of its neighbours are
/// approved. The paper uses `fraction = 1/4`.
///
/// On graphs with minimum degree `δ ≥ n^ε` this mechanism achieves SPG
/// (with `PC = α/4` and `Delegate(n) ≥ h` for `h ≥ √n`) and DNH (with
/// bounded competencies) — Theorem 5.
///
/// # Examples
///
/// ```
/// use ld_core::mechanisms::{MinDegreeFraction, Mechanism};
/// use ld_core::{CompetencyProfile, ProblemInstance};
/// use ld_graph::generators;
///
/// let mut rng = ld_prob::rng::StdRng::seed_from_u64(3);
/// let graph = generators::random_min_degree(64, 6, &mut rng)?;
/// let inst = ProblemInstance::new(graph, CompetencyProfile::linear(64, 0.3, 0.7)?, 0.02)?;
/// let dg = MinDegreeFraction::quarter().run(&inst, &mut rng);
/// assert!(dg.is_acyclic());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinDegreeFraction {
    fraction: f64,
}

impl MinDegreeFraction {
    /// The paper's rule: delegate iff at least `1/4` of neighbours are
    /// approved.
    pub fn quarter() -> Self {
        MinDegreeFraction { fraction: 0.25 }
    }

    /// A custom fraction in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not a finite value in `[0, 1]`.
    pub fn new(fraction: f64) -> Self {
        assert!(
            fraction.is_finite() && (0.0..=1.0).contains(&fraction),
            "fraction {fraction} must be in [0, 1]"
        );
        MinDegreeFraction { fraction }
    }

    /// The delegation fraction.
    pub fn fraction(&self) -> f64 {
        self.fraction
    }
}

impl Mechanism for MinDegreeFraction {
    fn act(&self, instance: &ProblemInstance, voter: usize, rng: &mut dyn RngCore) -> Action {
        let degree = instance.graph().degree(voter);
        if degree == 0 {
            return Action::Vote;
        }
        let approved = instance.approval_rows(voter);
        let needed = (self.fraction * degree as f64).ceil().max(1.0) as usize;
        if approved.len() >= needed {
            match choose_approved(instance, voter, approved, rng) {
                Some(target) => Action::Delegate(target),
                None => Action::Vote,
            }
        } else {
            Action::Vote
        }
    }

    fn name(&self) -> String {
        format!("min-degree-fraction({})", self.fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::competency::CompetencyProfile;
    use ld_graph::generators;
    use ld_prob::rng::StdRng;

    fn instance(seed: u64) -> ProblemInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::random_min_degree(60, 5, &mut rng).unwrap();
        let profile = CompetencyProfile::linear(60, 0.2, 0.8).unwrap();
        ProblemInstance::new(graph, profile, 0.02).unwrap()
    }

    #[test]
    fn quarter_rule_delegates_a_reasonable_share() {
        let inst = instance(1);
        let mut rng = StdRng::seed_from_u64(2);
        let dg = MinDegreeFraction::quarter().run(&inst, &mut rng);
        let share = dg.delegator_count() as f64 / 60.0;
        assert!(share > 0.3, "only {share} of voters delegated");
        assert!(dg.is_acyclic());
    }

    #[test]
    fn targets_are_approved_neighbours() {
        let inst = instance(3);
        let mut rng = StdRng::seed_from_u64(4);
        let dg = MinDegreeFraction::quarter().run(&inst, &mut rng);
        for (i, a) in dg.actions().iter().enumerate() {
            if let Action::Delegate(t) = a {
                assert!(inst.approves(i, *t), "voter {i} → {t} not approved");
            }
        }
    }

    #[test]
    fn fraction_one_requires_full_approval() {
        let inst = instance(5);
        let mut rng = StdRng::seed_from_u64(6);
        let strict = MinDegreeFraction::new(1.0)
            .run(&inst, &mut rng)
            .delegator_count();
        let lax = MinDegreeFraction::new(0.01)
            .run(&inst, &mut rng)
            .delegator_count();
        assert!(strict <= lax);
    }

    #[test]
    fn isolated_vertex_votes() {
        let inst = ProblemInstance::new(
            ld_graph::Graph::empty(3),
            CompetencyProfile::linear(3, 0.2, 0.8).unwrap(),
            0.05,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let dg = MinDegreeFraction::quarter().run(&inst, &mut rng);
        assert_eq!(dg.delegator_count(), 0);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn rejects_bad_fraction() {
        let _ = MinDegreeFraction::new(1.5);
    }

    #[test]
    fn name_mentions_fraction() {
        assert_eq!(
            MinDegreeFraction::quarter().name(),
            "min-degree-fraction(0.25)"
        );
    }
}
