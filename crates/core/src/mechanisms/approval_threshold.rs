//! Algorithm 1: threshold delegation on the approval set.

use crate::delegation::{Action, DelegationGraph};
use crate::instance::ProblemInstance;
use crate::mechanisms::{choose_approved, Mechanism};
use ld_prob::rng::{Rng, RngCore};

/// How the delegation threshold `j(·)` scales with the voter's
/// neighbourhood size.
///
/// Algorithm 1 compares `|J(i)|` with `j(n)` where the argument is the
/// number of neighbours of `v_i` (equal to the total number of voters on a
/// complete graph). The paper wants `j(n)` small — even `o(n)` — so as
/// many voters as possible delegate; Theorem 2's DNH proof additionally
/// assumes `j(n) ≤ n/3`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ThresholdRule {
    /// A fixed threshold `j(n) = c`.
    Constant(usize),
    /// `j(n) = ⌈n^exponent⌉` (e.g. `exponent = 0.5` for `√n`).
    Power {
        /// The exponent applied to the neighbourhood size.
        exponent: f64,
    },
    /// `j(n) = ⌈fraction · n⌉`.
    Fraction {
        /// The fraction of the neighbourhood size.
        fraction: f64,
    },
    /// `j(n) = ⌈log₂(n + 1)⌉`.
    Log,
}

impl ThresholdRule {
    /// Evaluates the threshold for a neighbourhood of the given size.
    pub fn threshold(&self, neighbourhood: usize) -> usize {
        match *self {
            ThresholdRule::Constant(c) => c,
            ThresholdRule::Power { exponent } => {
                (neighbourhood as f64).powf(exponent).ceil() as usize
            }
            ThresholdRule::Fraction { fraction } => {
                (fraction * neighbourhood as f64).ceil() as usize
            }
            ThresholdRule::Log => ((neighbourhood as f64) + 1.0).log2().ceil() as usize,
        }
    }
}

/// **Algorithm 1** (and Example 1): voter `v_i` delegates to a uniformly
/// random member of their approval set `J(i)` whenever `|J(i)| ≥ j(n)`,
/// where `n` is the size of `v_i`'s neighbourhood; otherwise they vote
/// directly.
///
/// On the complete graph `K_n` with plausible changeability `PC = α/2` and
/// `Delegate(n) ≥ n/k`, Theorem 2 shows this mechanism achieves strong
/// positive gain, and DNH on all of `K_n`.
///
/// # Examples
///
/// ```
/// use ld_core::mechanisms::{ApprovalThreshold, Mechanism};
/// use ld_core::{CompetencyProfile, ProblemInstance};
/// use ld_graph::generators;
///
/// let inst = ProblemInstance::new(
///     generators::complete(16),
///     CompetencyProfile::linear(16, 0.3, 0.7)?,
///     0.05,
/// )?;
/// let mechanism = ApprovalThreshold::new(2);
/// let mut rng = ld_prob::rng::StdRng::seed_from_u64(1);
/// let dg = mechanism.run(&inst, &mut rng);
/// assert!(dg.delegator_count() > 0);
/// assert!(dg.is_acyclic());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApprovalThreshold {
    rule: ThresholdRule,
}

impl ApprovalThreshold {
    /// Algorithm 1 with a constant threshold `j(n) = j`.
    pub fn new(j: usize) -> Self {
        ApprovalThreshold {
            rule: ThresholdRule::Constant(j),
        }
    }

    /// Algorithm 1 with a scaling threshold rule.
    pub fn with_rule(rule: ThresholdRule) -> Self {
        ApprovalThreshold { rule }
    }

    /// The threshold rule.
    pub fn rule(&self) -> ThresholdRule {
        self.rule
    }
}

impl Mechanism for ApprovalThreshold {
    fn act(&self, instance: &ProblemInstance, voter: usize, rng: &mut dyn RngCore) -> Action {
        // The approval set is a range of row positions, so a run is
        // allocation-free apart from the output vector, and on K_n reads
        // no adjacency memory at all.
        let threshold = self.rule.threshold(instance.graph().degree(voter)).max(1);
        let rows = instance.approval_rows(voter);
        if rows.len() >= threshold {
            match choose_approved(instance, voter, rows, rng) {
                Some(target) => Action::Delegate(target),
                None => Action::Vote,
            }
        } else {
            Action::Vote
        }
    }

    /// The [`Mechanism::act`] loop with nothing left but the draw: one
    /// pass over the instance's approval cuts, the threshold evaluated
    /// once per run of equal degrees, and one `gen_range(0..|J(i)|)` per
    /// delegating voter in voter order. It emits the same actions and
    /// leaves `rng` in the same state as the per-voter loop.
    fn run(&self, instance: &ProblemInstance, rng: &mut dyn RngCore) -> DelegationGraph {
        let graph = instance.graph();
        let mut last = None;
        let mut threshold = 0;
        instance
            .approval_cuts()
            .iter()
            .enumerate()
            .map(|(v, &cut)| {
                let degree = graph.degree(v);
                if last != Some(degree) {
                    last = Some(degree);
                    threshold = self.rule.threshold(degree).max(1);
                }
                let (cut, len) = (cut as usize, degree - cut as usize);
                if len >= threshold {
                    Action::Delegate(graph.nth_neighbor(v, cut + rng.gen_range(0..len)))
                } else {
                    Action::Vote
                }
            })
            .collect()
    }

    fn name(&self) -> String {
        match self.rule {
            ThresholdRule::Constant(c) => format!("algorithm1(j={c})"),
            ThresholdRule::Power { exponent } => format!("algorithm1(j=n^{exponent})"),
            ThresholdRule::Fraction { fraction } => format!("algorithm1(j={fraction}n)"),
            ThresholdRule::Log => "algorithm1(j=log n)".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::competency::CompetencyProfile;
    use ld_graph::generators;
    use ld_prob::rng::StdRng;

    fn complete_instance(n: usize) -> ProblemInstance {
        ProblemInstance::new(
            generators::complete(n),
            CompetencyProfile::linear(n, 0.2, 0.8).unwrap(),
            0.05,
        )
        .unwrap()
    }

    #[test]
    fn threshold_rules_evaluate() {
        assert_eq!(ThresholdRule::Constant(5).threshold(100), 5);
        assert_eq!(ThresholdRule::Power { exponent: 0.5 }.threshold(100), 10);
        assert_eq!(
            ThresholdRule::Fraction { fraction: 0.25 }.threshold(100),
            25
        );
        assert_eq!(ThresholdRule::Log.threshold(7), 3);
        assert_eq!(ThresholdRule::Log.threshold(0), 0);
    }

    #[test]
    fn delegates_only_to_approved_voters() {
        let inst = complete_instance(12);
        let mech = ApprovalThreshold::new(1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let dg = mech.run(&inst, &mut rng);
            for (i, a) in dg.actions().iter().enumerate() {
                if let Action::Delegate(t) = a {
                    assert!(
                        inst.approves(i, *t),
                        "voter {i} delegated to unapproved {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn produces_acyclic_delegation_graphs() {
        let inst = complete_instance(20);
        let mech = ApprovalThreshold::new(1);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            assert!(mech.run(&inst, &mut rng).is_acyclic());
        }
    }

    #[test]
    fn most_competent_voter_never_delegates() {
        let inst = complete_instance(10);
        let mech = ApprovalThreshold::new(1);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10 {
            let dg = mech.run(&inst, &mut rng);
            assert_eq!(*dg.action(9), Action::Vote, "top voter must vote directly");
        }
    }

    #[test]
    fn high_threshold_suppresses_delegation() {
        let inst = complete_instance(10);
        // Threshold larger than any approval set: nobody delegates.
        let mech = ApprovalThreshold::new(50);
        let mut rng = StdRng::seed_from_u64(5);
        let dg = mech.run(&inst, &mut rng);
        assert_eq!(dg.delegator_count(), 0);
    }

    #[test]
    fn zero_threshold_is_clamped_to_one() {
        // j = 0 would let voters with empty approval sets "delegate";
        // clamping to 1 keeps them voting.
        let inst = complete_instance(6);
        let mech = ApprovalThreshold::new(0);
        let mut rng = StdRng::seed_from_u64(6);
        let dg = mech.run(&inst, &mut rng);
        assert_eq!(*dg.action(5), Action::Vote);
        assert!(dg.delegator_count() >= 1);
    }

    #[test]
    fn delegation_count_grows_as_threshold_falls() {
        let inst = complete_instance(40);
        let mut rng = StdRng::seed_from_u64(7);
        let low = ApprovalThreshold::new(1)
            .run(&inst, &mut rng)
            .delegator_count();
        let high = ApprovalThreshold::new(30)
            .run(&inst, &mut rng)
            .delegator_count();
        assert!(
            low > high,
            "low-threshold {low} should exceed high-threshold {high}"
        );
    }

    #[test]
    fn run_matches_the_act_loop_bit_for_bit() {
        // `run`'s one loop over the cut table against the trait's
        // per-voter `act` loop: the same actions, and the generator left
        // in the same state, on every topology and threshold rule.
        let mut gen = StdRng::seed_from_u64(0xA1);
        let rules = [
            ThresholdRule::Constant(0),
            ThresholdRule::Constant(1),
            ThresholdRule::Constant(3),
            ThresholdRule::Constant(40),
            ThresholdRule::Power { exponent: 0.5 },
            ThresholdRule::Fraction { fraction: 0.25 },
            ThresholdRule::Log,
        ];
        // Voters that delegate, that stay below the threshold with a
        // nonempty J(i), and whose J(i) is empty.
        let (mut delegating, mut below, mut empty) = (0, 0, 0);
        for n in [3, 9, 33, 64, 200] {
            let mut graphs = vec![
                generators::complete(n),
                generators::star(n),
                generators::cycle(n),
                generators::erdos_renyi_gnp(n, 0.3, &mut gen).unwrap(),
                generators::erdos_renyi_gnp(n, 0.02, &mut gen).unwrap(),
            ];
            if n > 8 {
                graphs.push(generators::random_regular(n, 8, &mut gen).unwrap());
            }
            // Competences on a 0.1 grid with α = 0.1: many exact-margin
            // ties and many voters of equal competence.
            let mut ps: Vec<f64> = (0..n)
                .map(|_| f64::from(gen.gen_range(1..10u8)) / 10.0)
                .collect();
            ps.sort_by(f64::total_cmp);
            let profile = CompetencyProfile::new(ps).unwrap();
            for graph in graphs {
                let inst = ProblemInstance::new(graph, profile.clone(), 0.1).unwrap();
                for rule in rules {
                    let mech = ApprovalThreshold::with_rule(rule);
                    let seed = gen.next_u64();
                    let mut r1 = StdRng::seed_from_u64(seed);
                    let mut r2 = StdRng::seed_from_u64(seed);
                    let via_run = mech.run(&inst, &mut r1);
                    let via_act: DelegationGraph =
                        (0..n).map(|v| mech.act(&inst, v, &mut r2)).collect();
                    assert_eq!(via_run, via_act, "n={n} {rule:?}");
                    assert_eq!(r1.next_u64(), r2.next_u64(), "n={n} {rule:?}");
                    for v in 0..n {
                        let len = inst.approval_count(v);
                        let threshold = rule.threshold(inst.graph().degree(v)).max(1);
                        match len {
                            0 => empty += 1,
                            _ if len < threshold => below += 1,
                            _ => delegating += 1,
                        }
                    }
                }
            }
        }
        assert!(delegating > 0 && below > 0 && empty > 0);
    }

    #[test]
    fn names_describe_rule() {
        assert_eq!(ApprovalThreshold::new(3).name(), "algorithm1(j=3)");
        assert!(ApprovalThreshold::with_rule(ThresholdRule::Log)
            .name()
            .contains("log"));
    }
}
