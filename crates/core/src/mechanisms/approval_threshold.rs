//! Algorithm 1: threshold delegation on the approval set.

use crate::delegation::Action;
use crate::instance::ProblemInstance;
use crate::mechanisms::{choose_approved, Mechanism};
use ld_prob::rng::RngCore;

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
    fn buffered_run_equals_per_voter_act() {
        let inst = complete_instance(24);
        let mech = ApprovalThreshold::new(2);
        let mut r1 = StdRng::seed_from_u64(11);
        let mut r2 = StdRng::seed_from_u64(11);
        let via_run = mech.run(&inst, &mut r1);
        let via_act: crate::delegation::DelegationGraph =
            (0..inst.n()).map(|v| mech.act(&inst, v, &mut r2)).collect();
        assert_eq!(via_run, via_act);
    }

    #[test]
    fn names_describe_rule() {
        assert_eq!(ApprovalThreshold::new(3).name(), "algorithm1(j=3)");
        assert!(ApprovalThreshold::with_rule(ThresholdRule::Log)
            .name()
            .contains("log"));
    }
}
