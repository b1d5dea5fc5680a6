//! Greedy delegation to the most competent approved neighbour — the
//! dictatorship-forming mechanism behind Figure 1's negative example.

use crate::delegation::Action;
use crate::instance::ProblemInstance;
use crate::mechanisms::Mechanism;
use ld_prob::rng::RngCore;

/// Delegates to the **most competent** approved neighbour whenever the
/// approval set is nonempty; votes directly otherwise.
///
/// This mechanism "delegates votes to strictly more competent voters", the
/// rule assumed in Figure 1 of the paper. On a star it funnels every leaf
/// vote to the hub, collapsing the outcome variance to a single Bernoulli
/// draw — the canonical violation of Do No Harm that motivates the entire
/// paper. It is implemented here to *reproduce* the negative result, not
/// as a recommendation.
///
/// Note that unlike the paper's uniform-choice mechanisms this one uses
/// the competency ranking among approved voters (ties broken towards the
/// higher index, i.e. the at-least-as-competent voter under the sorted
/// order), which is the strongest concentration of power a local
/// mechanism can produce.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedyMax;

impl Mechanism for GreedyMax {
    fn act(&self, instance: &ProblemInstance, voter: usize, _rng: &mut dyn RngCore) -> Action {
        // Voters are sorted by competency, so the approved neighbour with
        // the largest index is the most competent.
        match instance.approval_rows(voter).next_back() {
            Some(k) => Action::Delegate(instance.graph().nth_neighbor(voter, k)),
            None => Action::Vote,
        }
    }

    fn name(&self) -> String {
        "greedy-max".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::competency::CompetencyProfile;
    use ld_graph::generators;
    use ld_prob::rng::StdRng;

    #[test]
    fn star_becomes_a_dictatorship() {
        // Figure 1: hub (index 8) at 2/3, leaves at 1/3.
        let inst = ProblemInstance::new(
            generators::star(9),
            CompetencyProfile::two_point(8, 1.0 / 3.0, 1, 2.0 / 3.0).unwrap(),
            0.01,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let dg = GreedyMax.run(&inst, &mut rng);
        let res = dg.resolve().unwrap();
        assert_eq!(res.sinks(), &[8]);
        assert_eq!(res.max_weight(), 9);
        assert_eq!(res.delegators(), 8);
    }

    #[test]
    fn complete_graph_all_delegate_to_top_voter() {
        let inst = ProblemInstance::new(
            generators::complete(6),
            CompetencyProfile::linear(6, 0.1, 0.9).unwrap(),
            0.05,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let dg = GreedyMax.run(&inst, &mut rng);
        for i in 0..5 {
            assert_eq!(*dg.action(i), Action::Delegate(5), "voter {i}");
        }
        assert_eq!(*dg.action(5), Action::Vote);
    }

    #[test]
    fn isolated_voters_vote() {
        let inst = ProblemInstance::new(
            ld_graph::Graph::empty(4),
            CompetencyProfile::linear(4, 0.2, 0.8).unwrap(),
            0.05,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let dg = GreedyMax.run(&inst, &mut rng);
        assert_eq!(dg.delegator_count(), 0);
    }

    #[test]
    fn deterministic_mechanism() {
        let inst = ProblemInstance::new(
            generators::cycle(8),
            CompetencyProfile::linear(8, 0.1, 0.9).unwrap(),
            0.05,
        )
        .unwrap();
        let a = GreedyMax.run(&inst, &mut StdRng::seed_from_u64(1));
        let b = GreedyMax.run(&inst, &mut StdRng::seed_from_u64(999));
        assert_eq!(a, b, "greedy-max should not depend on randomness");
    }
}
