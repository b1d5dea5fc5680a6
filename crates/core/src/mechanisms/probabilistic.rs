//! The Kahng et al. probabilistic baseline: delegate with probability `q`.

use crate::delegation::Action;
use crate::instance::ProblemInstance;
use crate::mechanisms::{choose_approved, Mechanism};
use ld_prob::rng::{Rng, RngCore};

/// The canonical local mechanism family of Kahng, Mackenzie and Procaccia
/// \[25\]: each voter with a nonempty approval set delegates with probability
/// `q` (to a uniformly random approved neighbour) and votes directly
/// otherwise.
///
/// `q` interpolates between direct voting (`q = 0`) and the fully eager
/// Example 1 mechanism (`q = 1`); the impossibility result of \[25\] applies
/// to the whole family, which makes it the natural baseline to run beside
/// the paper's threshold mechanisms.
///
/// # Examples
///
/// ```
/// use ld_core::mechanisms::{ProbabilisticDelegation, Mechanism};
/// use ld_core::{CompetencyProfile, ProblemInstance};
/// use ld_graph::generators;
///
/// let inst = ProblemInstance::new(
///     generators::complete(50),
///     CompetencyProfile::linear(50, 0.3, 0.7)?,
///     0.05,
/// )?;
/// let mech = ProbabilisticDelegation::new(0.5);
/// let mut rng = ld_prob::rng::StdRng::seed_from_u64(1);
/// let dg = mech.run(&inst, &mut rng);
/// assert!(dg.is_acyclic());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbabilisticDelegation {
    q: f64,
}

impl ProbabilisticDelegation {
    /// Delegate with probability `q` whenever the approval set is
    /// nonempty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a finite probability in `[0, 1]`.
    pub fn new(q: f64) -> Self {
        assert!(
            q.is_finite() && (0.0..=1.0).contains(&q),
            "delegation probability {q} must be in [0, 1]"
        );
        ProbabilisticDelegation { q }
    }

    /// The delegation probability.
    pub fn q(&self) -> f64 {
        self.q
    }
}

impl Mechanism for ProbabilisticDelegation {
    fn act(&self, instance: &ProblemInstance, voter: usize, rng: &mut dyn RngCore) -> Action {
        if self.q == 0.0 || !rng.gen_bool(self.q) {
            return Action::Vote;
        }
        let approved = instance.approval_rows(voter);
        match choose_approved(instance, voter, approved, rng) {
            Some(target) => Action::Delegate(target),
            None => Action::Vote,
        }
    }

    fn name(&self) -> String {
        format!("probabilistic(q={})", self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::competency::CompetencyProfile;
    use ld_graph::generators;
    use ld_prob::rng::StdRng;

    fn inst(n: usize) -> ProblemInstance {
        ProblemInstance::new(
            generators::complete(n),
            CompetencyProfile::linear(n, 0.2, 0.8).unwrap(),
            0.02,
        )
        .unwrap()
    }

    #[test]
    fn q_zero_is_direct_voting() {
        let inst = inst(20);
        let mut rng = StdRng::seed_from_u64(1);
        let dg = ProbabilisticDelegation::new(0.0).run(&inst, &mut rng);
        assert_eq!(dg.delegator_count(), 0);
    }

    #[test]
    fn q_one_delegates_everyone_with_approvals() {
        let inst = inst(20);
        let mut rng = StdRng::seed_from_u64(2);
        let dg = ProbabilisticDelegation::new(1.0).run(&inst, &mut rng);
        // Everyone but the top voter has a nonempty approval set on K_n.
        assert_eq!(dg.delegator_count(), 19);
        assert_eq!(*dg.action(19), Action::Vote);
    }

    #[test]
    fn intermediate_q_delegates_a_matching_fraction() {
        let inst = inst(200);
        let mut rng = StdRng::seed_from_u64(3);
        let mut total = 0usize;
        let runs = 20;
        for _ in 0..runs {
            total += ProbabilisticDelegation::new(0.3)
                .run(&inst, &mut rng)
                .delegator_count();
        }
        let mean = total as f64 / runs as f64;
        // ≈ 0.3 · 199 eligible voters ≈ 60.
        assert!((45.0..=75.0).contains(&mean), "mean delegators {mean}");
    }

    #[test]
    fn targets_are_approved() {
        let inst = inst(30);
        let mut rng = StdRng::seed_from_u64(4);
        let dg = ProbabilisticDelegation::new(0.8).run(&inst, &mut rng);
        for (i, a) in dg.actions().iter().enumerate() {
            if let Action::Delegate(t) = a {
                assert!(inst.approves(i, *t));
            }
        }
        assert!(dg.is_acyclic());
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn rejects_bad_probability() {
        let _ = ProbabilisticDelegation::new(-0.1);
    }

    #[test]
    fn name_mentions_q() {
        assert_eq!(
            ProbabilisticDelegation::new(0.25).name(),
            "probabilistic(q=0.25)"
        );
        assert_eq!(ProbabilisticDelegation::new(0.25).q(), 0.25);
    }
}
