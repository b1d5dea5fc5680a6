//! Local delegation mechanisms (§2.2 of the paper).
//!
//! A *delegation mechanism* maps a problem instance to, for each voter, a
//! (random) choice of whom to delegate to — or to vote directly. A *local*
//! mechanism bases that choice only on the voter's approval set `J(i)`
//! (approved neighbours), never on global knowledge.
//!
//! | paper artifact | implementation |
//! |---|---|
//! | Example 2: direct voting | [`DirectVoting`] |
//! | Example 1 / **Algorithm 1** (complete graphs, Theorem 2) | [`ApprovalThreshold`] |
//! | **Algorithm 2** (random `d`-regular graphs, Theorem 3) | [`SampledThreshold`] |
//! | Theorem 5's `δ/4` rule (bounded min degree) | [`MinDegreeFraction`] |
//! | Figure 1's dictatorship-forming mechanism | [`GreedyMax`] |
//! | Kahng et al.'s delegate-with-probability-q baseline | [`ProbabilisticDelegation`] |
//! | §6 vote abstaining | [`Abstaining`] |
//! | §6 weighted majority vote | [`WeightedMajorityDelegation`] |
//! | Lemma 5's max-weight condition enforced mechanically | [`WeightCapped`] |

mod abstaining;
mod approval_threshold;
mod direct;
mod greedy;
mod min_degree_fraction;
mod probabilistic;
mod sampled_threshold;
mod weight_capped;
mod weighted_majority;

pub use abstaining::Abstaining;
pub use approval_threshold::{ApprovalThreshold, ThresholdRule};
pub use direct::DirectVoting;
pub use greedy::GreedyMax;
pub use min_degree_fraction::MinDegreeFraction;
pub use probabilistic::ProbabilisticDelegation;
pub use sampled_threshold::SampledThreshold;
pub use weight_capped::WeightCapped;
pub use weighted_majority::WeightedMajorityDelegation;

use crate::delegation::{Action, DelegationGraph};
use crate::instance::ProblemInstance;
use ld_prob::rng::RngCore;
use std::ops::Range;

/// A (local) delegation mechanism.
///
/// Implementors define the per-voter decision in [`Mechanism::act`]; the
/// provided [`Mechanism::run`] applies it to every voter independently.
/// Mechanisms that need to coordinate across voters (e.g. weight caps)
/// override `run`.
///
/// The trait is object-safe so experiments can iterate over heterogeneous
/// mechanism lists (`&dyn Mechanism`).
pub trait Mechanism {
    /// Decide what `voter` does on `instance`.
    ///
    /// Implementations must be *local*: they may consult `voter`'s
    /// neighbourhood and approval set via the instance, and randomness, but
    /// nothing else.
    fn act(&self, instance: &ProblemInstance, voter: usize, rng: &mut dyn RngCore) -> Action;

    /// Run the mechanism on every voter, producing a delegation graph.
    fn run(&self, instance: &ProblemInstance, rng: &mut dyn RngCore) -> DelegationGraph {
        (0..instance.n())
            .map(|v| self.act(instance, v, rng))
            .collect()
    }

    /// A short human-readable name for reports.
    fn name(&self) -> String;
}

/// Chooses a uniformly random member of `voter`'s approval set, given as
/// its row positions ([`ProblemInstance::approval_rows`]), or `None` if it
/// is empty.
///
/// The mechanisms in the paper always delegate to a *uniformly random*
/// approved voter, reflecting that approved voters are indistinguishable
/// to the delegator (§2.1, *Available Information*).
pub(crate) fn choose_approved(
    instance: &ProblemInstance,
    voter: usize,
    rows: Range<usize>,
    rng: &mut dyn RngCore,
) -> Option<usize> {
    use ld_prob::rng::Rng;
    if rows.is_empty() {
        None
    } else {
        let k = rows.start + rng.gen_range(0..rows.len());
        Some(instance.graph().nth_neighbor(voter, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::competency::CompetencyProfile;
    use ld_graph::generators;
    use ld_prob::rng::StdRng;

    #[test]
    fn choose_approved_covers_the_approval_set() {
        let inst = ProblemInstance::new(
            generators::complete(6),
            CompetencyProfile::linear(6, 0.1, 0.9).unwrap(),
            0.2,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            seen.insert(choose_approved(&inst, 1, inst.approval_rows(1), &mut rng).unwrap());
        }
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), inst.approval_set(1));
        assert!(choose_approved(&inst, 5, inst.approval_rows(5), &mut rng).is_none());
    }

    #[test]
    fn default_run_applies_act_to_every_voter() {
        struct AlwaysVote;
        impl Mechanism for AlwaysVote {
            fn act(&self, _: &ProblemInstance, _: usize, _: &mut dyn RngCore) -> Action {
                Action::Vote
            }
            fn name(&self) -> String {
                "always-vote".to_string()
            }
        }
        let inst = ProblemInstance::new(
            generators::complete(5),
            CompetencyProfile::constant(5, 0.5).unwrap(),
            0.1,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let dg = AlwaysVote.run(&inst, &mut rng);
        assert_eq!(dg.n(), 5);
        assert!(dg.actions().iter().all(|a| *a == Action::Vote));
    }

    #[test]
    fn mechanism_is_object_safe() {
        fn assert_dyn(_: &dyn Mechanism) {}
        assert_dyn(&DirectVoting);
    }
}
