//! Property-based invariants for the liquid-democracy core model.

use ld_core::delegation::{Action, DelegationGraph};
use ld_core::gain::estimate_gain;
use ld_core::mechanisms::{
    Abstaining, ApprovalThreshold, DirectVoting, GreedyMax, Mechanism, MinDegreeFraction,
    SampledThreshold, WeightCapped, WeightedMajorityDelegation,
};
use ld_core::tally::{direct_probability, exact_correct_probability, TieBreak};
use ld_core::{CompetencyProfile, ProblemInstance};
use ld_graph::generators;
use ld_prob::rng::{for_each_case, Rng, StdRng};

/// An arbitrary instance: Erdős–Rényi graph with linear competencies.
fn arbitrary_instance(n: usize, density: f64, seed: u64) -> ProblemInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = generators::erdos_renyi_gnp(n, density, &mut rng).unwrap();
    let profile = CompetencyProfile::linear(n, 0.2, 0.8).unwrap();
    ProblemInstance::new(graph, profile, 0.03).unwrap()
}

fn mechanisms() -> Vec<Box<dyn Mechanism>> {
    vec![
        Box::new(DirectVoting),
        Box::new(ApprovalThreshold::new(1)),
        Box::new(ApprovalThreshold::new(3)),
        Box::new(GreedyMax),
        Box::new(MinDegreeFraction::quarter()),
        Box::new(SampledThreshold::fresh(5, 2)),
        Box::new(SampledThreshold::from_graph(4, 1)),
        Box::new(Abstaining::new(ApprovalThreshold::new(1), 0.3)),
        Box::new(WeightCapped::new(GreedyMax, 3)),
    ]
}

/// Every single-target mechanism produces an acyclic delegation graph
/// whose resolution conserves votes: Σ sink weights + discarded = n.
#[test]
fn mechanisms_produce_acyclic_conserving_graphs() {
    for_each_case("mechanisms_produce_acyclic_conserving_graphs", 64, |rng| {
        let n = rng.gen_range(2usize..40);
        let density = rng.gen_range(0.1f64..0.9);
        let seed = rng.gen_range(0u64..300);
        let inst = arbitrary_instance(n, density, seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(7));
        for mech in mechanisms() {
            let dg = mech.run(&inst, &mut rng);
            assert!(dg.is_acyclic(), "{} produced a cycle", mech.name());
            let res = dg.resolve().unwrap();
            let total: usize = res.sink_weights().map(|(_, w)| w).sum();
            assert_eq!(total + res.discarded(), n, "{} lost votes", mech.name());
            assert_eq!(total, res.tallied());
        }
    });
}

/// Delegation targets are always approved neighbours (for graph-based
/// mechanisms) or approved voters (for fresh sampling).
#[test]
fn delegation_respects_approval() {
    for_each_case("delegation_respects_approval", 64, |rng| {
        let n = rng.gen_range(2usize..40);
        let density = rng.gen_range(0.1f64..0.9);
        let seed = rng.gen_range(0u64..300);
        let inst = arbitrary_instance(n, density, seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(13));
        for mech in mechanisms() {
            let dg = mech.run(&inst, &mut rng);
            for (i, a) in dg.actions().iter().enumerate() {
                if let Action::Delegate(t) = a {
                    assert!(
                        inst.competency(i) + inst.alpha() <= inst.competency(*t),
                        "{}: voter {} delegated to non-approved {}",
                        mech.name(),
                        i,
                        t
                    );
                }
            }
        }
    });
}

/// Direct voting always has exactly zero gain.
#[test]
fn direct_voting_zero_gain() {
    for_each_case("direct_voting_zero_gain", 64, |rng| {
        let n = rng.gen_range(1usize..30);
        let seed = rng.gen_range(0u64..200);
        let inst = arbitrary_instance(n, 0.5, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let est = estimate_gain(&inst, &DirectVoting, 3, &mut rng).unwrap();
        assert!(est.gain().abs() < 1e-12);
    });
}

/// Exact tally probabilities are valid probabilities, and monotone in
/// the tie credit.
#[test]
fn tally_probability_is_valid_and_tie_monotone() {
    for_each_case("tally_probability_is_valid_and_tie_monotone", 64, |rng| {
        let n = rng.gen_range(1usize..30);
        let seed = rng.gen_range(0u64..200);
        let inst = arbitrary_instance(n, 0.4, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let dg = ApprovalThreshold::new(1).run(&inst, &mut rng);
        let res = dg.resolve().unwrap();
        let pess = exact_correct_probability(&inst, &res, TieBreak::Incorrect).unwrap();
        let coin = exact_correct_probability(&inst, &res, TieBreak::CoinFlip).unwrap();
        let opt = exact_correct_probability(&inst, &res, TieBreak::Correct).unwrap();
        assert!((0.0..=1.0).contains(&pess));
        assert!((0.0..=1.0).contains(&opt));
        assert!(pess <= coin + 1e-12 && coin <= opt + 1e-12);
    });
}

/// The weight cap is always enforced and never discards votes.
#[test]
fn weight_cap_enforced() {
    for_each_case("weight_cap_enforced", 64, |rng| {
        let n = rng.gen_range(2usize..40);
        let cap = rng.gen_range(1usize..10);
        let seed = rng.gen_range(0u64..200);
        let inst = arbitrary_instance(n, 0.6, seed);
        let mech = WeightCapped::new(GreedyMax, cap);
        let mut rng = StdRng::seed_from_u64(seed);
        let res = mech.run(&inst, &mut rng).resolve().unwrap();
        assert!(res.max_weight() <= cap.max(1));
        assert_eq!(res.tallied(), n);
    });
}

/// Weighted-majority delegation graphs are acyclic and their targets
/// are all approved.
#[test]
fn weighted_majority_graphs_are_sane() {
    for_each_case("weighted_majority_graphs_are_sane", 64, |rng| {
        let n = rng.gen_range(3usize..40);
        let k = rng.gen_range(1usize..5);
        let seed = rng.gen_range(0u64..200);
        let inst = arbitrary_instance(n, 0.7, seed);
        let mech = WeightedMajorityDelegation::new(k, 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let dg = mech.run(&inst, &mut rng);
        assert!(dg.is_acyclic());
        for (i, a) in dg.actions().iter().enumerate() {
            if let Action::DelegateMany(ts) = a {
                assert!(!ts.is_empty() && ts.len() <= k);
                for &t in ts {
                    assert!(inst.approves(i, t));
                }
            }
        }
    });
}

/// Direct probability equals the all-vote delegation tally for every
/// instance and tie rule.
#[test]
fn direct_equals_trivial_delegation() {
    for_each_case("direct_equals_trivial_delegation", 64, |rng| {
        let n = rng.gen_range(1usize..25);
        let seed = rng.gen_range(0u64..100);
        let inst = arbitrary_instance(n, 0.3, seed);
        let res = DelegationGraph::new(vec![Action::Vote; n])
            .resolve()
            .unwrap();
        for tie in [TieBreak::Incorrect, TieBreak::CoinFlip, TieBreak::Correct] {
            let a = direct_probability(&inst, tie).unwrap();
            let b = exact_correct_probability(&inst, &res, tie).unwrap();
            assert!((a - b).abs() < 1e-12);
        }
    });
}

/// Delegating to strictly better voters never lowers the mean sink
/// competency below the mean voter competency.
#[test]
fn delegation_raises_expected_correct_votes() {
    for_each_case("delegation_raises_expected_correct_votes", 64, |rng| {
        let n = rng.gen_range(4usize..40);
        let seed = rng.gen_range(0u64..200);
        let inst = arbitrary_instance(n, 0.8, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let dg = ApprovalThreshold::new(1).run(&inst, &mut rng);
        let res = dg.resolve().unwrap();
        // Expected correct votes under delegation: Σ w_s p_s.
        let delegated: f64 = res
            .sink_weights()
            .map(|(s, w)| w as f64 * inst.competency(s))
            .sum();
        let direct: f64 = inst.profile().as_slice().iter().sum();
        assert!(
            delegated + 1e-9 >= direct,
            "delegation lowered expected correct votes: {} < {}",
            delegated,
            direct
        );
    });
}

/// A multi-target delegation graph whose targets all lie above their
/// delegator is acyclic and its topological order puts every delegator
/// before its targets; one delegation back to a delegator closes a cycle.
#[test]
fn delegation_graph_acyclicity() {
    for_each_case("delegation_graph_acyclicity", 64, |rng| {
        let n = rng.gen_range(2usize..50);
        let mut actions: Vec<Action> = (0..n)
            .map(|u| {
                if u + 1 < n && rng.gen_bool(0.7) {
                    let k = rng.gen_range(1usize..4);
                    Action::DelegateMany((0..k).map(|_| rng.gen_range(u + 1..n)).collect())
                } else {
                    Action::Vote
                }
            })
            .collect();
        let dg = DelegationGraph::new(actions.clone());
        let order = dg.topological_order().unwrap();
        let mut pos = vec![usize::MAX; n];
        for (idx, &v) in order.iter().enumerate() {
            pos[v] = idx;
        }
        assert!(pos.iter().all(|&p| p < n), "order is not a permutation");
        for (u, a) in actions.iter().enumerate() {
            if let Action::DelegateMany(ts) = a {
                assert!(ts.iter().all(|&t| pos[u] < pos[t]));
            }
        }
        if let Some(u) = actions.iter().position(Action::is_delegation) {
            let Action::DelegateMany(ts) = &actions[u] else {
                unreachable!("only multi-target delegations are drawn")
            };
            let v = ts[0];
            actions[v] = Action::DelegateMany(vec![v, u]);
            let cyclic = DelegationGraph::new(actions);
            assert!(!cyclic.is_acyclic());
            assert_eq!(
                cyclic.topological_order(),
                Err(ld_core::CoreError::CyclicDelegation)
            );
        }
    });
}
