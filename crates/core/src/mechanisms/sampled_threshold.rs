//! Algorithm 2: sampled-neighbourhood threshold delegation.

use crate::delegation::Action;
use crate::instance::ProblemInstance;
use crate::mechanisms::Mechanism;
use ld_prob::rng::{Rng, RngCore};

/// **Algorithm 2**: voter `v_i` samples `d` random voters
/// (`RandomNeighbours(d)`), checks whether at least `j(d)` of them are in
/// the approval set, and if so delegates to a uniformly random approved
/// voter among the sample.
///
/// The paper uses this algorithm *both* to generate `Rand(n, d)` (each
/// voter's sampled set is its neighbourhood) and as the delegation rule on
/// it; Theorem 3 proves SPG and DNH for it. Two sampling semantics are
/// provided:
///
/// * [`SampledThreshold::fresh`] — the literal Algorithm 2: sample `d`
///   uniform voters from the whole electorate (the graph is *implied* by
///   the sampling; the instance's edge set is ignored).
/// * [`SampledThreshold::from_graph`] — sample `d` voters **from the
///   voter's neighbourhood** in the instance graph; on a `d`-regular graph
///   with sample size `d` this uses the whole neighbourhood, which is the
///   "graph first, then delegate" reading. The T3 experiment compares the
///   two (they behave near-identically, as the proof of Theorem 3 argues).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledThreshold {
    d: usize,
    /// Minimum number of approved voters among the sample.
    j_of_d: usize,
    /// Whether to sample from the whole electorate (`true`, literal
    /// Algorithm 2) or from the instance graph's neighbourhood (`false`).
    fresh_sampling: bool,
}

impl SampledThreshold {
    /// Literal Algorithm 2: sample `d` uniform voters, delegate if at
    /// least `j_of_d` are approved (`j(d)` is "a fraction of d" in the
    /// paper).
    pub fn fresh(d: usize, j_of_d: usize) -> Self {
        SampledThreshold {
            d,
            j_of_d,
            fresh_sampling: true,
        }
    }

    /// Graph-based variant: sample up to `d` distinct voters from the
    /// voter's neighbourhood in the instance graph.
    pub fn from_graph(d: usize, j_of_d: usize) -> Self {
        SampledThreshold {
            d,
            j_of_d,
            fresh_sampling: false,
        }
    }

    /// The sample size `d`.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The approval threshold `j(d)`.
    pub fn threshold(&self) -> usize {
        self.j_of_d
    }

    /// Draws the candidate set for one voter.
    fn sample_candidates(
        &self,
        instance: &ProblemInstance,
        voter: usize,
        rng: &mut dyn RngCore,
    ) -> Vec<usize> {
        if self.fresh_sampling {
            // d uniform draws from V \ {voter}, without replacement. An
            // ordered set, so the candidate order (which the uniform
            // choice below indexes into) does not depend on a hash seed.
            let n = instance.n();
            if n <= 1 {
                return Vec::new();
            }
            let mut picks = std::collections::BTreeSet::new();
            let want = self.d.min(n - 1);
            while picks.len() < want {
                let v = rng.gen_range(0..n);
                if v != voter {
                    picks.insert(v);
                }
            }
            picks.into_iter().collect()
        } else {
            let mut pool: Vec<usize> = instance.graph().neighbors(voter).collect();
            if pool.len() <= self.d {
                return pool;
            }
            // Partial Fisher–Yates for d distinct neighbours.
            for i in 0..self.d {
                let j = rng.gen_range(i..pool.len());
                pool.swap(i, j);
            }
            pool.truncate(self.d);
            pool
        }
    }
}

impl Mechanism for SampledThreshold {
    fn act(&self, instance: &ProblemInstance, voter: usize, rng: &mut dyn RngCore) -> Action {
        let candidates = self.sample_candidates(instance, voter, rng);
        let pi = instance.competency(voter);
        let approved: Vec<usize> = candidates
            .into_iter()
            .filter(|&j| pi + instance.alpha() <= instance.competency(j))
            .collect();
        if approved.len() >= self.j_of_d.max(1) {
            Action::Delegate(approved[rng.gen_range(0..approved.len())])
        } else {
            Action::Vote
        }
    }

    fn name(&self) -> String {
        let kind = if self.fresh_sampling {
            "fresh"
        } else {
            "graph"
        };
        format!("algorithm2(d={}, j={}, {kind})", self.d, self.j_of_d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::competency::CompetencyProfile;
    use ld_graph::generators;
    use ld_prob::rng::StdRng;

    fn regular_instance(n: usize, d: usize, seed: u64) -> ProblemInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::random_regular(n, d, &mut rng).unwrap();
        let profile = CompetencyProfile::linear(n, 0.2, 0.8).unwrap();
        ProblemInstance::new(graph, profile, 0.05).unwrap()
    }

    #[test]
    fn fresh_sampling_delegates_upward_only() {
        let inst = regular_instance(50, 6, 1);
        let mech = SampledThreshold::fresh(6, 2);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let dg = mech.run(&inst, &mut rng);
            for (i, a) in dg.actions().iter().enumerate() {
                if let Action::Delegate(t) = a {
                    assert!(
                        inst.competency(i) + inst.alpha() <= inst.competency(*t),
                        "voter {i} delegated to non-approved {t}"
                    );
                }
            }
            assert!(dg.is_acyclic());
        }
    }

    #[test]
    fn graph_sampling_targets_are_neighbours() {
        let inst = regular_instance(50, 6, 3);
        let mech = SampledThreshold::from_graph(4, 1);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10 {
            let dg = mech.run(&inst, &mut rng);
            for (i, a) in dg.actions().iter().enumerate() {
                if let Action::Delegate(t) = a {
                    assert!(
                        inst.graph().has_edge(i, *t),
                        "voter {i} delegated off-graph to {t}"
                    );
                    assert!(inst.approves(i, *t));
                }
            }
        }
    }

    #[test]
    fn larger_threshold_means_fewer_delegations() {
        let inst = regular_instance(100, 8, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let lax: usize = (0..10)
            .map(|_| {
                SampledThreshold::fresh(8, 1)
                    .run(&inst, &mut rng)
                    .delegator_count()
            })
            .sum();
        let strict: usize = (0..10)
            .map(|_| {
                SampledThreshold::fresh(8, 6)
                    .run(&inst, &mut rng)
                    .delegator_count()
            })
            .sum();
        assert!(lax > strict, "lax {lax} vs strict {strict}");
    }

    #[test]
    fn single_voter_instance_degenerates_to_direct() {
        let inst = ProblemInstance::new(
            generators::complete(1),
            CompetencyProfile::constant(1, 0.5).unwrap(),
            0.1,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let dg = SampledThreshold::fresh(5, 1).run(&inst, &mut rng);
        assert_eq!(*dg.action(0), Action::Vote);
    }

    #[test]
    fn graph_variant_with_large_d_uses_whole_neighbourhood() {
        let inst = regular_instance(30, 4, 8);
        // d larger than the degree: the candidate set is the full
        // neighbourhood, making this equivalent to Algorithm 1 with j = 1.
        let mech = SampledThreshold::from_graph(100, 1);
        let mut rng = StdRng::seed_from_u64(9);
        let dg = mech.run(&inst, &mut rng);
        assert!(dg.delegator_count() > 0);
    }

    #[test]
    fn fresh_sampling_is_a_pure_function_of_the_rng() {
        // The candidate order feeds the uniform choice among approved
        // voters, so it must follow from the draws alone, never from a
        // per-process hash seed.
        let inst = regular_instance(200, 6, 10);
        let mech = SampledThreshold::fresh(16, 1);
        let run = || mech.run(&inst, &mut StdRng::seed_from_u64(11));
        let first = run();
        for _ in 0..4 {
            assert_eq!(run().actions(), first.actions());
        }
    }

    #[test]
    fn names_distinguish_variants() {
        assert!(SampledThreshold::fresh(8, 2).name().contains("fresh"));
        assert!(SampledThreshold::from_graph(8, 2).name().contains("graph"));
    }
}
