//! Tallying: from a delegation graph to the probability (or a sample) of a
//! correct decision.
//!
//! The paper's rule (§2.2): each sink `v_i` votes correctly with
//! probability `p_i` carrying weight `w_i`; the correct option wins iff
//! the correct weight **strictly** exceeds the incorrect weight. Given a
//! resolved delegation graph the correct-weight distribution is an exact
//! weighted Poisson-binomial, so `P^M(G)` conditional on the delegation
//! draw is computed in closed form — no vote-level sampling noise.

use crate::delegation::{Action, DelegationGraph, Resolution};
use crate::error::Result;
use crate::instance::ProblemInstance;
use ld_prob::poisson_binomial::WeightedBernoulliSum;
use ld_prob::rng::{Rng, RngCore};

/// How an exact tie between correct and incorrect weight is scored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TieBreak {
    /// A tie counts as an incorrect decision — the paper's strict-majority
    /// rule ("the correct option will be chosen only if Σ_{S'} w >
    /// Σ_{S\S'} w").
    #[default]
    Incorrect,
    /// A tie is resolved by a fair coin.
    CoinFlip,
    /// A tie counts as correct (optimistic variant, for ablations).
    Correct,
}

impl TieBreak {
    /// The probability credit a tie receives.
    pub fn credit(self) -> f64 {
        match self {
            TieBreak::Incorrect => 0.0,
            TieBreak::CoinFlip => 0.5,
            TieBreak::Correct => 1.0,
        }
    }
}

/// The exact probability that the delegated election decides correctly,
/// conditional on a resolved (single-target) delegation graph.
///
/// Computes the weighted Poisson-binomial of `(w_s, p_s)` over sinks and
/// evaluates the majority rule against the tallied vote count (abstained
/// votes are excluded from both sides).
///
/// # Errors
///
/// Propagates probability-layer validation errors (cannot occur for a
/// validated instance).
pub fn exact_correct_probability(
    instance: &ProblemInstance,
    resolution: &Resolution,
    tie: TieBreak,
) -> Result<f64> {
    let terms: Vec<(usize, f64)> = resolution
        .sink_weights()
        .map(|(s, w)| (w, instance.competency(s)))
        .collect();
    let sum = WeightedBernoulliSum::new(&terms)?;
    Ok(sum.majority_with_ties(resolution.tallied(), tie.credit()))
}

/// The exact probability that **direct voting** decides correctly: the
/// Poisson-binomial of the profile's competences under the majority rule
/// over all `n` votes, ties credited per `tie`. The distribution is the
/// instance's own ([`ProblemInstance::direct_distribution`]), computed
/// once per instance.
///
/// # Errors
///
/// None: a validated profile always yields a distribution. The
/// signature matches the other tally functions, whose errors callers
/// propagate alike.
pub fn direct_probability(instance: &ProblemInstance, tie: TieBreak) -> Result<f64> {
    Ok(instance
        .direct_distribution()
        .majority_with_ties(tie.credit()))
}

/// Samples one election outcome for an arbitrary delegation graph
/// (including [`Action::DelegateMany`]), returning whether the decision
/// was correct.
///
/// Outcomes propagate through the delegation DAG:
///
/// * a voting sink draws `Bernoulli(p_i)`;
/// * a single delegator inherits its target's outcome;
/// * a weighted-majority delegator takes the strict majority of its
///   delegates' outcomes, breaking internal ties (and all-abstained
///   delegate sets) with its **own** `Bernoulli(p_i)` draw;
/// * an abstainer contributes nothing, and votes that resolve to an
///   abstainer are discarded.
///
/// Voters are evaluated in reverse of
/// [`DelegationGraph::topological_order`], so targets come before their
/// delegators and the coins are drawn in a fixed order.
///
/// # Errors
///
/// * [`crate::CoreError::DelegationTargetOutOfRange`] at the first
///   out-of-range target, in voter order.
/// * [`crate::CoreError::CyclicDelegation`] if the graph is cyclic.
pub fn sample_decision(
    instance: &ProblemInstance,
    dg: &DelegationGraph,
    tie: TieBreak,
    rng: &mut dyn RngCore,
) -> Result<bool> {
    score_multi_target(instance, dg, tie, rng).map(|draw| draw.correct)
}

/// One [`sample_decision`] draw together with the structural statistics
/// of its graph, all read off the same scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct MultiTargetDraw {
    /// Whether the sampled decision was correct.
    pub(crate) correct: bool,
    /// Voters that delegate, singly or to many.
    pub(crate) delegators: usize,
    /// Voters that cast a ballot: a vote or a self-delegation, the
    /// voters [`crate::csr::CsrForest::sink_count`] counts.
    pub(crate) sinks: usize,
    /// Longest delegation path in edges, self-targets ignored.
    pub(crate) longest_chain: usize,
    /// Votes discarded through abstention (`n − tallied`), the count
    /// [`crate::csr::CsrForest::discarded`] reports: abstainers and the
    /// voters whose delegation ends at one.
    pub(crate) discarded: usize,
}

/// [`sample_decision`], plus the statistics the trial pipeline records
/// for a multi-target draw: one topological order, one scan in reverse
/// of it.
pub(crate) fn score_multi_target(
    instance: &ProblemInstance,
    dg: &DelegationGraph,
    tie: TieBreak,
    rng: &mut dyn RngCore,
) -> Result<MultiTargetDraw> {
    let order = dg.topological_order()?;
    let n = dg.n();
    // outcome[i]: Some(correct?) or None for abstained/discarded;
    // chain[i]: the longest delegation path leaving i, in edges.
    let mut outcome: Vec<Option<bool>> = vec![None; n];
    let mut chain = vec![0usize; n];
    let mut draw = MultiTargetDraw::default();
    let (mut correct, mut tallied) = (0usize, 0usize);
    for &i in order.iter().rev() {
        let action = dg.action(i);
        chain[i] = action
            .targets()
            .iter()
            .filter(|&&t| t != i)
            .map(|&t| chain[t] + 1)
            .max()
            .unwrap_or(0);
        draw.longest_chain = draw.longest_chain.max(chain[i]);
        draw.delegators += usize::from(action.is_delegation());
        outcome[i] = match action {
            Action::Vote => {
                draw.sinks += 1;
                Some(rng.gen_bool(instance.competency(i)))
            }
            Action::Abstain => None,
            Action::Delegate(t) => {
                if *t == i {
                    draw.sinks += 1;
                    Some(rng.gen_bool(instance.competency(i)))
                } else {
                    outcome[*t]
                }
            }
            Action::DelegateMany(ts) => {
                // A self-target reads `outcome[i]`, still `None` here.
                let (mut yes, mut no) = (0usize, 0usize);
                for &t in ts {
                    match outcome[t] {
                        Some(true) => yes += 1,
                        Some(false) => no += 1,
                        None => {}
                    }
                }
                if yes == no {
                    Some(rng.gen_bool(instance.competency(i)))
                } else {
                    Some(yes > no)
                }
            }
        };
        if let Some(o) = outcome[i] {
            tallied += 1;
            correct += usize::from(o);
        }
    }
    draw.discarded = n - tallied;
    let incorrect = tallied - correct;
    draw.correct = if correct != incorrect {
        correct > incorrect
    } else {
        match tie {
            TieBreak::Incorrect => false,
            TieBreak::Correct => true,
            TieBreak::CoinFlip => rng.gen_bool(0.5),
        }
    };
    Ok(draw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::competency::CompetencyProfile;
    use crate::error::CoreError;
    use ld_graph::generators;
    use ld_prob::rng::StdRng;
    use ld_prob::stats::Proportion;

    fn inst(ps: Vec<f64>) -> ProblemInstance {
        let n = ps.len();
        ProblemInstance::new(
            generators::complete(n),
            CompetencyProfile::from_unsorted(ps).unwrap(),
            0.01,
        )
        .unwrap()
    }

    #[test]
    fn direct_probability_matches_instance_method() {
        let inst = inst(vec![0.3, 0.5, 0.6, 0.7, 0.8]);
        let a = direct_probability(&inst, TieBreak::Incorrect).unwrap();
        let b = inst.direct_voting_probability().unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn dictatorship_probability_is_the_dictator_competency() {
        let inst = inst(vec![1.0 / 3.0; 8].into_iter().chain([2.0 / 3.0]).collect());
        let mut actions = vec![Action::Delegate(8); 8];
        actions.push(Action::Vote);
        let res = DelegationGraph::new(actions).resolve().unwrap();
        let p = exact_correct_probability(&inst, &res, TieBreak::Incorrect).unwrap();
        assert!((p - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn all_vote_equals_direct() {
        let inst = inst(vec![0.4, 0.5, 0.6, 0.7]);
        let res = DelegationGraph::new(vec![Action::Vote; 4])
            .resolve()
            .unwrap();
        let p = exact_correct_probability(&inst, &res, TieBreak::CoinFlip).unwrap();
        let d = direct_probability(&inst, TieBreak::CoinFlip).unwrap();
        assert!((p - d).abs() < 1e-12);
    }

    #[test]
    fn tie_break_ordering() {
        let inst = inst(vec![0.5, 0.5]);
        let res = DelegationGraph::new(vec![Action::Vote; 2])
            .resolve()
            .unwrap();
        let pess = exact_correct_probability(&inst, &res, TieBreak::Incorrect).unwrap();
        let coin = exact_correct_probability(&inst, &res, TieBreak::CoinFlip).unwrap();
        let opt = exact_correct_probability(&inst, &res, TieBreak::Correct).unwrap();
        assert!(pess < coin && coin < opt);
        assert!((pess - 0.25).abs() < 1e-12);
        assert!((coin - 0.5).abs() < 1e-12);
        assert!((opt - 0.75).abs() < 1e-12);
    }

    #[test]
    fn abstention_excludes_votes_from_both_sides() {
        // Voters: 0 abstains, 1 votes with p = 1. Tallied = 1, threshold
        // strict majority of 1 → correct iff voter 1 correct.
        let inst = inst(vec![0.2, 1.0]);
        let res = DelegationGraph::new(vec![Action::Abstain, Action::Vote])
            .resolve()
            .unwrap();
        let p = exact_correct_probability(&inst, &res, TieBreak::Incorrect).unwrap();
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_decision_agrees_with_exact_on_single_target_graphs() {
        let inst = inst(vec![0.3, 0.45, 0.55, 0.6, 0.75]);
        let dg = DelegationGraph::new(vec![
            Action::Delegate(4),
            Action::Delegate(2),
            Action::Vote,
            Action::Vote,
            Action::Vote,
        ]);
        let res = dg.resolve().unwrap();
        let exact = exact_correct_probability(&inst, &res, TieBreak::Incorrect).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut prop = Proportion::new();
        for _ in 0..40_000 {
            prop.push(sample_decision(&inst, &dg, TieBreak::Incorrect, &mut rng).unwrap());
        }
        let (lo, hi) = prop.wilson_ci(3.5);
        assert!(
            (lo..=hi).contains(&exact),
            "exact {exact} outside sampled CI [{lo}, {hi}]"
        );
    }

    #[test]
    fn sample_decision_rejects_cycles() {
        let inst = inst(vec![0.4, 0.6]);
        let dg = DelegationGraph::new(vec![Action::Delegate(1), Action::Delegate(0)]);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            sample_decision(&inst, &dg, TieBreak::Incorrect, &mut rng).unwrap_err(),
            CoreError::CyclicDelegation
        );
        let many =
            DelegationGraph::new(vec![Action::DelegateMany(vec![0, 1]), Action::Delegate(0)]);
        assert_eq!(
            sample_decision(&inst, &many, TieBreak::Incorrect, &mut rng).unwrap_err(),
            CoreError::CyclicDelegation
        );
    }

    #[test]
    fn delegate_many_majority_improves_on_single_bad_delegate() {
        // Voter 0 delegates to three delegates with competencies
        // 0.9, 0.9, 0.1: majority of three beats a uniformly random single
        // delegate on average.
        let inst = inst(vec![0.1, 0.1, 0.9, 0.9]);
        // indices sorted: p = [0.1, 0.1, 0.9, 0.9]; voter 0 delegates to
        // {1, 2, 3}: majority of (0.1, 0.9, 0.9).
        let dg_many = DelegationGraph::new(vec![
            Action::DelegateMany(vec![1, 2, 3]),
            Action::Vote,
            Action::Vote,
            Action::Vote,
        ]);
        let mut rng = StdRng::seed_from_u64(9);
        let mut many = Proportion::new();
        for _ in 0..20_000 {
            many.push(sample_decision(&inst, &dg_many, TieBreak::CoinFlip, &mut rng).unwrap());
        }
        // Exact via direct voting for comparison: the DelegateMany voter's
        // effective competency is P[majority of {0.1, 0.9, 0.9}] ≈ 0.83 —
        // well above its own 0.1.
        let direct = direct_probability(&inst, TieBreak::CoinFlip).unwrap();
        assert!(
            many.estimate() > direct + 0.02,
            "weighted majority {} not above direct {direct}",
            many.estimate()
        );
    }

    #[test]
    fn all_abstain_is_always_incorrect_under_strict_rule() {
        let inst = inst(vec![0.9, 0.9]);
        let dg = DelegationGraph::new(vec![Action::Abstain, Action::Abstain]);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(!sample_decision(&inst, &dg, TieBreak::Incorrect, &mut rng).unwrap());
        assert!(sample_decision(&inst, &dg, TieBreak::Correct, &mut rng).unwrap());
    }

    #[test]
    fn tie_credit_values() {
        assert_eq!(TieBreak::Incorrect.credit(), 0.0);
        assert_eq!(TieBreak::CoinFlip.credit(), 0.5);
        assert_eq!(TieBreak::Correct.credit(), 1.0);
        assert_eq!(TieBreak::default(), TieBreak::Incorrect);
    }

    fn scan(actions: Vec<Action>) -> MultiTargetDraw {
        let inst = inst(vec![0.6; actions.len()]);
        let mut rng = StdRng::seed_from_u64(3);
        let dg = DelegationGraph::new(actions);
        score_multi_target(&inst, &dg, TieBreak::Incorrect, &mut rng).unwrap()
    }

    #[test]
    fn multi_target_scan_of_no_delegation() {
        // No delegation: every voter is a sink and no chain has an edge.
        let all_vote = scan(vec![Action::Vote; 3]);
        assert_eq!((all_vote.sinks, all_vote.longest_chain), (3, 0));
        assert_eq!((all_vote.delegators, all_vote.discarded), (0, 0));
    }

    #[test]
    fn multi_target_scan_of_a_chain() {
        // 0 → {1, 2}, 1 → 2 → 3: one sink, the chain 0 → 1 → 2 → 3.
        let chain = scan(vec![
            Action::DelegateMany(vec![1, 2]),
            Action::Delegate(2),
            Action::Delegate(3),
            Action::Vote,
        ]);
        assert_eq!(
            (chain.sinks, chain.longest_chain, chain.delegators),
            (1, 3, 3)
        );
    }

    #[test]
    fn multi_target_scan_of_branches() {
        // Branches 0 → 1 → 2 → 3 and 0 → 4 → 3; 5 votes on its own.
        let branches = scan(vec![
            Action::DelegateMany(vec![1, 4]),
            Action::Delegate(2),
            Action::Delegate(3),
            Action::Vote,
            Action::Delegate(3),
            Action::Vote,
        ]);
        assert_eq!((branches.sinks, branches.longest_chain), (2, 3));
    }

    #[test]
    fn multi_target_scan_of_the_star() {
        // The Figure 1 star, each leaf also naming 5: two sinks, depth 1.
        let mut star = vec![Action::Vote];
        star.extend((1..5).map(|_| Action::DelegateMany(vec![0, 5])));
        star.push(Action::Vote);
        let star = scan(star);
        assert_eq!((star.sinks, star.longest_chain, star.delegators), (2, 1, 4));
    }

    #[test]
    fn multi_target_scan_discards_votes_delegated_into_an_abstainer() {
        // 0 abstains and 1 delegates to it: two votes are discarded. 2
        // names only 0, so its tie of no votes falls to its own coin.
        let discarding = scan(vec![
            Action::Abstain,
            Action::Delegate(0),
            Action::DelegateMany(vec![0]),
            Action::Vote,
        ]);
        assert_eq!((discarding.discarded, discarding.sinks), (2, 1));
    }

    #[test]
    fn multi_target_scan_of_self_targets() {
        // Self-targets are no edges: a self-delegation is a sink, and a
        // multi-delegator naming itself is neither a sink nor a cycle.
        let selfish = scan(vec![
            Action::Delegate(0),
            Action::DelegateMany(vec![1, 2]),
            Action::Vote,
        ]);
        assert_eq!((selfish.sinks, selfish.longest_chain), (2, 1));
    }

    #[test]
    fn out_of_range_multi_target_is_a_typed_error() {
        let mut rng = StdRng::seed_from_u64(1);
        for (actions, voter, target) in [
            (vec![Action::DelegateMany(vec![1, 5]), Action::Vote], 0, 5),
            (
                vec![
                    Action::Delegate(9),
                    Action::DelegateMany(vec![0, 2]),
                    Action::Vote,
                ],
                0,
                9,
            ),
        ] {
            let n = actions.len();
            let inst = inst(vec![0.6; n]);
            let dg = DelegationGraph::new(actions);
            let want = CoreError::DelegationTargetOutOfRange { voter, target, n };
            assert_eq!(
                sample_decision(&inst, &dg, TieBreak::Incorrect, &mut rng).unwrap_err(),
                want
            );
            assert_eq!(dg.validate_targets().unwrap_err(), want);
            assert!(!dg.is_acyclic());
            let mut est = crate::gain::empty_estimate(&inst, TieBreak::Incorrect).unwrap();
            let err = crate::gain::accumulate_draw(
                &inst,
                &dg,
                TieBreak::Incorrect,
                &mut rng,
                &mut est,
                &mut crate::csr::CsrForest::new(),
                &mut crate::gain::DrawTally::Exact,
            )
            .unwrap_err();
            assert_eq!(err, want);
        }
    }
}
