//! The bridge between delegation and recycle sampling.
//!
//! The first insight in the proof of Lemma 7 is that the outcome sequence
//! `Y_n` of Algorithm 1 on the complete graph **is** a
//! `(j(n), 1/α, n)`-recycle-sampled family: a voter who delegates copies
//! the realized vote of a uniformly random approved voter, and on `K_n`
//! with the paper's sorted competencies the approval set of a voter is
//! exactly the set of voters above them by `α` — a *prefix* once voters
//! are enumerated from most to least competent. That set is the voter
//! range `v_cut..n` that [`ProblemInstance::approval_rows`] finds by one
//! binary search over the profile; `generators::complete` keeps no edge
//! list, so the translation takes `O(n log n)` time and `O(n)` memory at
//! any `n`.
//!
//! [`to_recycle_graph`] performs that translation exactly, so the recycle
//! machinery in `ld-prob` (exact expectation/variance DPs, Lemma 2
//! deviation apparatus) can be applied to real mechanism outcomes, and the
//! mechanism simulation can be cross-validated against the abstract model.
//! The module is unit-test-only so far: its own tests do that
//! cross-validation, and no experiment calls it.

use crate::error::{CoreError, Result};
use crate::instance::ProblemInstance;
use crate::mechanisms::ThresholdRule;
use ld_graph::properties;
use ld_prob::recycle::{RecycleGraph, RecycleNode};

/// Translates Algorithm 1 on a **complete-graph** instance into the
/// recycle-sampling graph it realizes.
///
/// Nodes are ordered from most to least competent (the recycle convention:
/// copied-from vertices come first). Voter at competency rank `r` (0 =
/// best) becomes node `r` with:
///
/// * `prefix` = |J(i)| — the number of strictly-more-competent-by-α voters
///   (a prefix of the reversed order on `K_n`);
/// * `fresh_prob` = 0 if `|J(i)| ≥ j(n)` (the voter surely delegates,
///   i.e. surely recycles), else 1 (the voter surely votes fresh);
/// * `success_prob` = the voter's competency.
///
/// The realized sum of the recycle graph has **exactly** the distribution
/// of the number of correct votes under Algorithm 1 on this instance
/// (delegation resolves transitively; so does recycling).
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if the instance's graph is not
/// complete — on incomplete graphs approval sets are not prefixes and the
/// translation would be inexact.
///
/// # Examples
///
/// ```
/// use ld_core::{CompetencyProfile, ProblemInstance};
/// use ld_core::mechanisms::ThresholdRule;
/// use ld_core::recycle_bridge::to_recycle_graph;
/// use ld_graph::generators;
///
/// let inst = ProblemInstance::new(
///     generators::complete(16),
///     CompetencyProfile::linear(16, 0.3, 0.7)?,
///     0.05,
/// )?;
/// let rg = to_recycle_graph(&inst, ThresholdRule::Constant(2))?;
/// assert_eq!(rg.n(), 16);
/// // Exact expectation of Algorithm 1's correct-vote count, no sampling:
/// let mu = rg.expected_sum();
/// assert!(mu > inst.profile().as_slice().iter().sum::<f64>());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn to_recycle_graph(instance: &ProblemInstance, rule: ThresholdRule) -> Result<RecycleGraph> {
    if !properties::is_complete(instance.graph()) {
        return Err(CoreError::InvalidParameter {
            reason: "the recycle bridge is exact only on complete graphs".to_string(),
        });
    }
    let n = instance.n();
    let threshold = rule.threshold(n.saturating_sub(1)).max(1);
    let mut nodes = Vec::with_capacity(n);
    // Enumerate voters from most to least competent: original index n-1
    // down to 0.
    for rank in 0..n {
        let voter = n - 1 - rank;
        let approved = instance.approval_count(voter);
        // On K_n the approved voters are exactly the first `approved`
        // nodes in this reversed order (the most competent ones), because
        // approval is the threshold condition p_voter + α ≤ p_other and
        // competencies are sorted.
        let node = if approved >= threshold {
            RecycleNode::recycling(0.0, instance.competency(voter), approved)
        } else {
            RecycleNode::fresh(instance.competency(voter))
        };
        nodes.push(node);
    }
    Ok(RecycleGraph::new(nodes)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::competency::CompetencyProfile;
    use crate::mechanisms::{ApprovalThreshold, Mechanism};
    use ld_graph::generators;
    use ld_prob::rng::StdRng;
    use ld_prob::stats::Welford;

    fn instance(n: usize) -> ProblemInstance {
        ProblemInstance::new(
            generators::complete(n),
            CompetencyProfile::linear(n, 0.30, 0.70).unwrap(),
            0.05,
        )
        .unwrap()
    }

    #[test]
    fn rejects_incomplete_graphs() {
        let inst = ProblemInstance::new(
            generators::cycle(8),
            CompetencyProfile::linear(8, 0.3, 0.7).unwrap(),
            0.05,
        )
        .unwrap();
        assert!(to_recycle_graph(&inst, ThresholdRule::Constant(1)).is_err());
    }

    #[test]
    fn prefix_sizes_match_approval_counts() {
        let inst = instance(12);
        let rg = to_recycle_graph(&inst, ThresholdRule::Constant(1)).unwrap();
        for rank in 0..12 {
            let voter = 11 - rank;
            let node = rg.nodes()[rank];
            if node.prefix > 0 {
                assert_eq!(node.prefix, inst.approval_count(voter), "rank {rank}");
                assert!(
                    node.prefix <= rank,
                    "prefix must reference predecessors only"
                );
            }
        }
        // The most competent voter never recycles.
        assert_eq!(rg.nodes()[0].prefix, 0);
    }

    #[test]
    fn recycle_expectation_matches_mechanism_simulation() {
        // The bridge's expected sum must equal the Monte Carlo mean of
        // actual correct votes under Algorithm 1 + resolution + voting.
        let inst = instance(30);
        let rule = ThresholdRule::Constant(3);
        let rg = to_recycle_graph(&inst, rule).unwrap();
        let exact_mu = rg.expected_sum();
        let exact_var = rg.exact_variance().unwrap();

        let mech = ApprovalThreshold::with_rule(rule);
        let mut rng = StdRng::seed_from_u64(5);
        let mut sums = Welford::new();
        for _ in 0..20_000 {
            let res = mech.run(&inst, &mut rng).resolve().unwrap();
            // Realize the sinks' votes and count delegated correct votes.
            let correct: usize = res
                .sink_weights()
                .map(|(s, w)| {
                    use ld_prob::rng::Rng;
                    if rng.gen_bool(inst.competency(s)) {
                        w
                    } else {
                        0
                    }
                })
                .sum();
            sums.push(correct as f64);
        }
        assert!(
            (sums.mean() - exact_mu).abs() < 4.0 * sums.std_error().max(0.05),
            "mechanism mean {} vs recycle-exact {exact_mu}",
            sums.mean()
        );
        let rel = (sums.sample_variance() - exact_var).abs() / exact_var;
        assert!(
            rel < 0.1,
            "mechanism variance {} vs recycle-exact {exact_var}",
            sums.sample_variance()
        );
    }

    #[test]
    fn partition_complexity_is_bounded_by_one_over_alpha() {
        // Lemma 7: on K_n the partition complexity is at most 1/α (voters
        // within α of each other cannot approve one another).
        let inst = ProblemInstance::new(
            generators::complete(60),
            CompetencyProfile::linear(60, 0.2, 0.8).unwrap(),
            0.1,
        )
        .unwrap();
        let rg = to_recycle_graph(&inst, ThresholdRule::Constant(1)).unwrap();
        let bound = ((0.8f64 - 0.2) / 0.1).ceil() as usize;
        assert!(
            rg.partition_complexity() <= bound,
            "complexity {} exceeds span/alpha = {bound}",
            rg.partition_complexity()
        );
        assert!(rg.partition_complexity() >= 2);
    }

    #[test]
    fn high_threshold_gives_all_fresh_nodes() {
        let inst = instance(10);
        let rg = to_recycle_graph(&inst, ThresholdRule::Constant(100)).unwrap();
        assert_eq!(rg.partition_complexity(), 0);
        let direct_mean: f64 = inst.profile().as_slice().iter().sum();
        assert!((rg.expected_sum() - direct_mean).abs() < 1e-12);
    }
}
