//! The weighted-majority-vote extension (§6 of the paper).

use crate::delegation::Action;
use crate::error::{CoreError, Result};
use crate::instance::ProblemInstance;
use crate::mechanisms::Mechanism;
use ld_prob::rng::{Rng, RngCore};

/// Delegates to **several** approved neighbours: whenever the approval set
/// has at least `threshold` members, the voter picks
/// `min(k, |J(i)|)` distinct approved neighbours uniformly at random, and
/// their effective ballot becomes the majority of those delegates'
/// outcomes.
///
/// This is the paper's §6 *Weighted Majority Vote* extension (with the
/// uniform weight function): "it is similar to sampling the random
/// delegate multiple times and taking the best outcomes", so SPG transfers;
/// the experiment `X1` verifies the gain is at least that of
/// single-delegation.
///
/// The resulting delegation graph contains [`Action::DelegateMany`] nodes
/// and is evaluated by outcome-propagation sampling (see
/// [`crate::tally::sample_decision`]) rather than the exact sink-weight
/// DP: one scan in reverse topological order of the actions draws the
/// outcome and reads the sinks and longest chain the gain estimate
/// records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightedMajorityDelegation {
    k: usize,
    threshold: usize,
}

impl WeightedMajorityDelegation {
    /// Delegate to up to `k` approved neighbours when at least `threshold`
    /// are available.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`; [`WeightedMajorityDelegation::try_new`] is the
    /// non-panicking variant for parameters that arrive from a config
    /// file or the command line.
    pub fn new(k: usize, threshold: usize) -> Self {
        Self::try_new(k, threshold).expect("delegate count k must be positive")
    }

    /// Fallible constructor: like [`WeightedMajorityDelegation::new`] but
    /// reports a zero delegate count as a typed error instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `k == 0` (a voter must
    /// delegate to at least one neighbour for the majority-of-delegates
    /// ballot to be defined).
    pub fn try_new(k: usize, threshold: usize) -> Result<Self> {
        if k == 0 {
            return Err(CoreError::InvalidParameter {
                reason: "weighted-majority delegate count k must be positive".to_string(),
            });
        }
        Ok(WeightedMajorityDelegation { k, threshold })
    }

    /// Number of delegates per voter.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Minimum approval-set size to delegate.
    pub fn threshold(&self) -> usize {
        self.threshold
    }
}

impl Mechanism for WeightedMajorityDelegation {
    fn act(&self, instance: &ProblemInstance, voter: usize, rng: &mut dyn RngCore) -> Action {
        let mut approved = instance.approval_set(voter);
        if approved.len() < self.threshold.max(1) {
            return Action::Vote;
        }
        // Partial Fisher–Yates for min(k, |J|) distinct targets.
        let take = self.k.min(approved.len());
        for i in 0..take {
            let j = rng.gen_range(i..approved.len());
            approved.swap(i, j);
        }
        approved.truncate(take);
        if take == 1 {
            Action::Delegate(approved[0])
        } else {
            Action::DelegateMany(approved)
        }
    }

    fn name(&self) -> String {
        format!("weighted-majority(k={}, j={})", self.k, self.threshold)
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
    fn targets_are_distinct_and_approved() {
        let inst = inst(30);
        let mech = WeightedMajorityDelegation::new(3, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let dg = mech.run(&inst, &mut rng);
        for (i, a) in dg.actions().iter().enumerate() {
            if let Action::DelegateMany(ts) = a {
                let set: std::collections::HashSet<_> = ts.iter().collect();
                assert_eq!(set.len(), ts.len(), "voter {i} repeated a delegate");
                for &t in ts {
                    assert!(inst.approves(i, t), "voter {i} → {t} not approved");
                }
                assert!(ts.len() <= 3);
            }
        }
        assert!(dg.is_acyclic());
    }

    #[test]
    fn k_one_reduces_to_single_delegation() {
        let inst = inst(20);
        let mech = WeightedMajorityDelegation::new(1, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let dg = mech.run(&inst, &mut rng);
        assert!(dg.is_single_target());
        assert!(dg.delegator_count() > 0);
    }

    #[test]
    fn threshold_gates_delegation() {
        let inst = inst(10);
        let mech = WeightedMajorityDelegation::new(3, 100);
        let mut rng = StdRng::seed_from_u64(3);
        let dg = mech.run(&inst, &mut rng);
        assert_eq!(dg.delegator_count(), 0);
    }

    #[test]
    fn small_approval_sets_are_taken_whole() {
        // Voter n-2 approves only voter n-1: with k = 3 it still delegates,
        // to exactly that one voter.
        let inst = inst(10);
        let mech = WeightedMajorityDelegation::new(3, 1);
        let mut rng = StdRng::seed_from_u64(4);
        let dg = mech.run(&inst, &mut rng);
        match dg.action(8) {
            Action::Delegate(t) => assert_eq!(*t, 9),
            other => panic!("expected single delegation, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_zero_k() {
        let _ = WeightedMajorityDelegation::new(0, 1);
    }

    #[test]
    fn try_new_reports_zero_k_as_typed_error() {
        let err = WeightedMajorityDelegation::try_new(0, 1).unwrap_err();
        assert!(
            matches!(
                &err,
                CoreError::InvalidParameter { reason } if reason.contains("k must be positive")
            ),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn try_new_accepts_positive_k_and_matches_new() {
        let mech = WeightedMajorityDelegation::try_new(3, 2).unwrap();
        assert_eq!(mech, WeightedMajorityDelegation::new(3, 2));
        assert_eq!(mech.k(), 3);
        assert_eq!(mech.threshold(), 2);
    }

    #[test]
    fn name_mentions_parameters() {
        assert_eq!(
            WeightedMajorityDelegation::new(3, 2).name(),
            "weighted-majority(k=3, j=2)"
        );
    }
}
