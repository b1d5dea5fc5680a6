//! Gain of a mechanism over direct voting (§2.2 of the paper).
//!
//! `gain(M, G) = P^M(G) − P^D(G)`. `P^D` is computed exactly; `P^M`
//! averages the **exact** conditional correctness probability over draws
//! of the mechanism's randomness (and falls back to outcome sampling for
//! weighted-majority graphs, which admit no exact DP).

use crate::csr::{CsrForest, PackedSinkWeights};
use crate::delegation::DelegationGraph;
use crate::error::Result;
use crate::instance::ProblemInstance;
use crate::mechanisms::Mechanism;
use crate::tally::{direct_probability, score_multi_target, TieBreak};
use ld_prob::coins::PackedCompetence;
use ld_prob::rng::RngCore;
use ld_prob::stats::Welford;

/// A gain estimate plus the structural statistics the paper's lemmas are
/// stated in terms of (delegations, sinks, max weight, chain length).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GainEstimate {
    /// Exact probability of a correct decision under direct voting.
    p_direct: f64,
    /// Per-draw correctness probabilities of the mechanism.
    p_mechanism: Welford,
    /// Per-draw number of delegating voters (Definition 2's `Delegate(n)`).
    delegators: Welford,
    /// Per-draw number of sinks: voters that cast a ballot (a vote or
    /// a self-delegation), in both branches of [`accumulate_draw`].
    sinks: Welford,
    /// Per-draw maximum sink weight (Lemma 5's `w`).
    max_weight: Welford,
    /// Per-draw longest delegation chain.
    longest_chain: Welford,
    /// Per-draw abstained votes.
    abstained: Welford,
    /// Per-draw Gini coefficient of voting power.
    weight_gini: Welford,
}

impl GainEstimate {
    /// Exact `P^D(G)`.
    pub fn p_direct(&self) -> f64 {
        self.p_direct
    }

    /// Estimated `P^M(G)` (mean over mechanism draws).
    pub fn p_mechanism(&self) -> f64 {
        self.p_mechanism.mean()
    }

    /// Estimated gain `P^M(G) − P^D(G)`.
    pub fn gain(&self) -> f64 {
        self.p_mechanism() - self.p_direct
    }

    /// Two-sided confidence interval for the gain at `z` standard errors.
    pub fn gain_ci(&self, z: f64) -> (f64, f64) {
        let (lo, hi) = self.p_mechanism.mean_ci(z);
        (lo - self.p_direct, hi - self.p_direct)
    }

    /// Number of mechanism draws.
    pub fn trials(&self) -> u64 {
        self.p_mechanism.count()
    }

    /// Mean number of delegating voters per draw.
    pub fn mean_delegators(&self) -> f64 {
        self.delegators.mean()
    }

    /// Mean number of sinks (ballot-casting voters) per draw.
    pub fn mean_sinks(&self) -> f64 {
        self.sinks.mean()
    }

    /// Mean maximum sink weight per draw (Lemma 5's `w`).
    pub fn mean_max_weight(&self) -> f64 {
        self.max_weight.mean()
    }

    /// Mean longest delegation chain per draw.
    pub fn mean_longest_chain(&self) -> f64 {
        self.longest_chain.mean()
    }

    /// Mean number of abstained votes per draw.
    pub fn mean_abstained(&self) -> f64 {
        self.abstained.mean()
    }

    /// Mean Gini coefficient of voting power per draw (0 = direct voting,
    /// → 1 = dictatorship) — the concentration diagnostic of the empirical
    /// studies the paper cites [26, 32]. Only defined for single-target
    /// draws; 0 if none were recorded.
    pub fn mean_weight_gini(&self) -> f64 {
        self.weight_gini.mean()
    }

    /// Merges another estimate of the **same** instance/mechanism pair
    /// (e.g. from a parallel worker).
    pub fn merge(&mut self, other: &GainEstimate) {
        self.p_mechanism.merge(&other.p_mechanism);
        self.delegators.merge(&other.delegators);
        self.sinks.merge(&other.sinks);
        self.max_weight.merge(&other.max_weight);
        self.longest_chain.merge(&other.longest_chain);
        self.abstained.merge(&other.abstained);
        self.weight_gini.merge(&other.weight_gini);
    }
}

/// Estimates `gain(M, G)` with `trials` draws of the mechanism's
/// randomness, using the paper's strict-majority tie rule.
///
/// For single-target delegation graphs each draw contributes the **exact**
/// conditional probability (weighted Poisson-binomial), so the only Monte
/// Carlo noise is over the mechanism's own randomness. Weighted-majority
/// graphs ([`crate::delegation::Action::DelegateMany`]) contribute one
/// sampled outcome per draw instead.
///
/// # Errors
///
/// Propagates tallying errors (e.g. a cyclic delegation graph, which no
/// approval-based mechanism can produce).
///
/// # Examples
///
/// ```
/// use ld_core::{CompetencyProfile, ProblemInstance};
/// use ld_core::mechanisms::ApprovalThreshold;
/// use ld_core::gain::estimate_gain;
/// use ld_graph::generators;
///
/// let inst = ProblemInstance::new(
///     generators::complete(32),
///     CompetencyProfile::linear(32, 0.35, 0.62)?,
///     0.05,
/// )?;
/// let mut rng = ld_prob::rng::StdRng::seed_from_u64(7);
/// let est = estimate_gain(&inst, &ApprovalThreshold::new(2), 64, &mut rng)?;
/// assert!(est.gain() > 0.0, "delegation should help here");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn estimate_gain(
    instance: &ProblemInstance,
    mechanism: &dyn Mechanism,
    trials: u64,
    rng: &mut dyn RngCore,
) -> Result<GainEstimate> {
    estimate_gain_with(instance, mechanism, trials, TieBreak::Incorrect, rng)
}

/// [`estimate_gain`] with an explicit tie rule (for ablations).
///
/// # Errors
///
/// Propagates tallying errors.
pub fn estimate_gain_with(
    instance: &ProblemInstance,
    mechanism: &dyn Mechanism,
    trials: u64,
    tie: TieBreak,
    rng: &mut dyn RngCore,
) -> Result<GainEstimate> {
    let mut est = empty_estimate(instance, tie)?;
    let mut forest = CsrForest::new();
    for _ in 0..trials {
        let dg = mechanism.run(instance, rng);
        accumulate_draw(
            instance,
            &dg,
            tie,
            rng,
            &mut est,
            &mut forest,
            &mut DrawTally::Exact,
        )?;
    }
    Ok(est)
}

/// How [`accumulate_draw`] scores a single-target draw.
#[derive(Debug)]
pub enum DrawTally<'a> {
    /// The exact conditional correctness probability (weighted
    /// Poisson-binomial): the only Monte Carlo noise is over the
    /// mechanism's own randomness.
    Exact,
    /// `samples` bit-packed coin vectors drawn from `competence` (built
    /// once per run from the instance's profile) and folded against the
    /// resolution's weight planes. `p̂ = (wins + tie_credit · ties) /
    /// samples`, where a win is `2·weight(true) > tallied` and a tie is
    /// equality — the same majority rule the exact kernel integrates —
    /// adding `O(1/√samples)` noise on top of the noise over draws.
    Packed {
        /// Per-voter competences in packed-threshold form.
        competence: &'a PackedCompetence,
        /// Coin vectors per draw (clamped to at least one).
        samples: u32,
        /// Coin buffer and weight planes, paired with the caller's
        /// forest.
        scratch: &'a mut PackedTallyScratch,
    },
}

/// Records one mechanism draw into a [`GainEstimate`]: the per-trial
/// pipeline shared by [`estimate_gain_with`] and the parallel engine in
/// `ld-sim`.
///
/// Single-target draws resolve into the caller's reusable
/// [`CsrForest`] (no allocation once its buffers have grown) and are
/// scored by `tally`; the structural statistics (delegators, sinks, max
/// weight, chain, abstentions, Gini) do not depend on the tally.
/// Weighted-majority graphs ([`crate::delegation::Action::DelegateMany`])
/// admit no sink-weight tally, so they contribute one
/// [`crate::tally::sample_decision`] outcome, and the delegators, sinks
/// (ballot casters, as for single-target draws), chain and abstentions
/// read off the same topological scan; no graph is built. The resolve's
/// own scan tells the two apart; the draw is not scanned beforehand.
///
/// All randomness comes from `rng`, so with per-trial streams the result
/// is deterministic for a fixed seed regardless of scheduling.
///
/// Returns whether the draw was single-target, i.e. went through
/// `forest`.
///
/// # Errors
///
/// Propagates resolution and tallying errors.
pub fn accumulate_draw(
    instance: &ProblemInstance,
    dg: &DelegationGraph,
    tie: TieBreak,
    rng: &mut dyn RngCore,
    est: &mut GainEstimate,
    forest: &mut CsrForest,
    tally: &mut DrawTally<'_>,
) -> Result<bool> {
    let p = match tally {
        DrawTally::Exact => {
            if forest.try_resolve(dg)? {
                Some(forest.exact_correct_probability(instance, tie)?)
            } else {
                None
            }
        }
        DrawTally::Packed {
            competence,
            samples,
            scratch,
        } => {
            debug_assert_eq!(
                competence.n(),
                instance.n(),
                "packed competence built for a different instance"
            );
            scratch.sample(dg, forest, competence, *samples, tie, rng)?
        }
    };
    let Some(p) = p else {
        // Max weight and Gini are not defined for weighted-majority
        // graphs under the sink-weight model, so they are skipped.
        let draw = score_multi_target(instance, dg, tie, rng)?;
        est.p_mechanism.push(draw.correct as u8 as f64);
        est.delegators.push(draw.delegators as f64);
        est.sinks.push(draw.sinks as f64);
        est.longest_chain.push(draw.longest_chain as f64);
        est.abstained.push(draw.discarded as f64);
        return Ok(false);
    };
    est.p_mechanism.push(p);
    est.delegators.push(forest.delegators() as f64);
    est.sinks.push(forest.sink_count() as f64);
    est.max_weight.push(forest.max_weight() as f64);
    est.longest_chain.push(forest.longest_chain() as f64);
    est.abstained.push(forest.discarded() as f64);
    est.weight_gini.push(forest.weight_gini());
    Ok(true)
}

/// Reusable per-worker scratch for [`DrawTally::Packed`]: one bit-packed
/// coin buffer plus the sink-weight bit-plane transpose. Both only ever
/// grow, so one instance serves an unbounded trial stream without
/// allocating after warm-up.
#[derive(Debug, Default, Clone)]
pub struct PackedTallyScratch {
    coins: Vec<u64>,
    weights: PackedSinkWeights,
}

impl PackedTallyScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        PackedTallyScratch::default()
    }

    /// Resolves `dg` into `forest`, packs its sink weights into planes and
    /// folds `samples` packed coin vectors against them. `None`, with no
    /// randomness drawn, for a multi-target `dg`.
    fn sample(
        &mut self,
        dg: &DelegationGraph,
        forest: &mut CsrForest,
        competence: &PackedCompetence,
        samples: u32,
        tie: TieBreak,
        rng: &mut dyn RngCore,
    ) -> Result<Option<f64>> {
        if !forest.try_resolve(dg)? {
            return Ok(None);
        }
        forest.pack_sink_weights(&mut self.weights);
        let total = forest.tallied() as u64;
        let samples = samples.max(1);
        let (mut wins, mut ties) = (0u64, 0u64);
        for _ in 0..samples {
            competence.draw_packed(rng, &mut self.coins);
            let w = forest.fold_weighted_coins_packed(&self.weights, &self.coins);
            wins += u64::from(2 * w > total);
            ties += u64::from(2 * w == total);
        }
        Ok(Some(
            (wins as f64 + tie.credit() * ties as f64) / f64::from(samples),
        ))
    }
}

/// Builds an empty [`GainEstimate`] for the given instance (used by the
/// parallel engine to merge worker results).
///
/// # Errors
///
/// Propagates probability-layer validation errors.
pub fn empty_estimate(instance: &ProblemInstance, tie: TieBreak) -> Result<GainEstimate> {
    Ok(GainEstimate {
        p_direct: direct_probability(instance, tie)?,
        p_mechanism: Welford::new(),
        delegators: Welford::new(),
        sinks: Welford::new(),
        max_weight: Welford::new(),
        longest_chain: Welford::new(),
        abstained: Welford::new(),
        weight_gini: Welford::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::competency::CompetencyProfile;
    use crate::delegation::Action;
    use crate::mechanisms::{Abstaining, ApprovalThreshold, DirectVoting, GreedyMax};
    use ld_graph::generators;
    use ld_prob::rng::StdRng;

    fn complete_instance(n: usize, lo: f64, hi: f64) -> ProblemInstance {
        ProblemInstance::new(
            generators::complete(n),
            CompetencyProfile::linear(n, lo, hi).unwrap(),
            0.05,
        )
        .unwrap()
    }

    #[test]
    fn direct_voting_has_zero_gain() {
        let inst = complete_instance(15, 0.3, 0.7);
        let mut rng = StdRng::seed_from_u64(1);
        let est = estimate_gain(&inst, &DirectVoting, 10, &mut rng).unwrap();
        assert!(est.gain().abs() < 1e-12);
        assert_eq!(est.trials(), 10);
        assert_eq!(est.mean_delegators(), 0.0);
        assert_eq!(est.mean_max_weight(), 1.0);
    }

    #[test]
    fn delegation_gains_on_complete_graph_below_half() {
        // Mean competency below 1/2: direct voting fails with high
        // probability at large n; delegation to better voters helps.
        let inst = complete_instance(64, 0.35, 0.60);
        let mut rng = StdRng::seed_from_u64(2);
        let est = estimate_gain(&inst, &ApprovalThreshold::new(2), 128, &mut rng).unwrap();
        assert!(est.gain() > 0.05, "gain {} too small", est.gain());
        let (lo, _) = est.gain_ci(2.0);
        assert!(lo > 0.0, "gain CI should exclude zero");
    }

    #[test]
    fn greedy_on_star_loses_about_one_third() {
        // Figure 1: leaves slightly above 1/2 make direct voting → 1 for
        // large n, while greedy delegation concentrates all power on the
        // hub (p = 2/3), for an asymptotic loss of 1/3.
        let n = 101;
        let inst = ProblemInstance::new(
            generators::star(n),
            CompetencyProfile::two_point(n - 1, 0.6, 1, 2.0 / 3.0).unwrap(),
            0.01,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let est = estimate_gain(&inst, &GreedyMax, 4, &mut rng).unwrap();
        assert!(
            est.p_direct() > 0.97,
            "direct should be near 1, got {}",
            est.p_direct()
        );
        assert!((est.p_mechanism() - 2.0 / 3.0).abs() < 1e-9);
        assert!(
            (est.gain() + 1.0 / 3.0).abs() < 0.03,
            "gain {} ≠ -1/3",
            est.gain()
        );
        assert_eq!(est.mean_max_weight(), n as f64);
    }

    #[test]
    fn structural_statistics_are_recorded() {
        let inst = complete_instance(32, 0.3, 0.7);
        let mut rng = StdRng::seed_from_u64(4);
        let est = estimate_gain(&inst, &ApprovalThreshold::new(1), 32, &mut rng).unwrap();
        assert!(est.mean_delegators() > 1.0);
        assert!(est.mean_sinks() >= 1.0);
        assert!(est.mean_max_weight() >= 1.0);
        assert!(est.mean_longest_chain() >= 1.0);
        assert_eq!(est.mean_abstained(), 0.0);
    }

    #[test]
    fn abstaining_records_abstentions() {
        let inst = complete_instance(32, 0.3, 0.7);
        let mech = Abstaining::new(ApprovalThreshold::new(1), 0.5);
        let mut rng = StdRng::seed_from_u64(5);
        let est = estimate_gain(&inst, &mech, 32, &mut rng).unwrap();
        assert!(est.mean_abstained() > 0.0);
    }

    #[test]
    fn multi_target_sinks_are_ballot_casters() {
        // 1 abstains (3's vote is discarded through it) and 5 delegates to
        // itself. The single-target analogue swaps 0's pair for one target.
        let inst = complete_instance(6, 0.3, 0.7);
        let actions = |first: Action| {
            vec![
                first,
                Action::Abstain,
                Action::Vote,
                Action::Delegate(1),
                Action::Vote,
                Action::Delegate(5),
            ]
        };
        let many = DelegationGraph::new(actions(Action::DelegateMany(vec![2, 4])));
        let mut est = empty_estimate(&inst, TieBreak::Incorrect).unwrap();
        let mut forest = CsrForest::new();
        let mut rng = StdRng::seed_from_u64(9);
        let single = accumulate_draw(
            &inst,
            &many,
            TieBreak::Incorrect,
            &mut rng,
            &mut est,
            &mut forest,
            &mut DrawTally::Exact,
        )
        .unwrap();
        assert!(!single);
        forest
            .resolve(&DelegationGraph::new(actions(Action::Delegate(2))))
            .unwrap();
        assert_eq!(forest.sink_count(), 3);
        assert_eq!(est.mean_sinks(), forest.sink_count() as f64);
        assert_eq!(est.mean_delegators(), forest.delegators() as f64);
        assert_eq!(est.mean_longest_chain(), 1.0);
        // 1's own vote and 3's, delegated to it.
        assert_eq!(forest.discarded(), 2);
        assert_eq!(est.mean_abstained(), forest.discarded() as f64);
    }

    #[test]
    fn merge_combines_trials() {
        let inst = complete_instance(16, 0.3, 0.7);
        let mech = ApprovalThreshold::new(1);
        let mut r1 = StdRng::seed_from_u64(6);
        let mut r2 = StdRng::seed_from_u64(7);
        let mut a = estimate_gain(&inst, &mech, 20, &mut r1).unwrap();
        let b = estimate_gain(&inst, &mech, 30, &mut r2).unwrap();
        a.merge(&b);
        assert_eq!(a.trials(), 50);
        assert!((0.0..=1.0).contains(&a.p_mechanism()));
    }

    /// One packed draw through [`accumulate_draw`].
    #[allow(clippy::too_many_arguments)]
    fn packed_draw(
        inst: &ProblemInstance,
        dg: &DelegationGraph,
        rng: &mut StdRng,
        est: &mut GainEstimate,
        forest: &mut CsrForest,
        competence: &PackedCompetence,
        scratch: &mut PackedTallyScratch,
        samples: u32,
    ) {
        let mut tally = DrawTally::Packed {
            competence,
            samples,
            scratch,
        };
        accumulate_draw(inst, dg, TieBreak::Incorrect, rng, est, forest, &mut tally).unwrap();
    }

    #[test]
    fn packed_accumulate_matches_exact_within_sampling_noise() {
        let inst = complete_instance(48, 0.35, 0.65);
        let mech = ApprovalThreshold::new(2);
        let mut rng = StdRng::seed_from_u64(11);
        let dg = mech.run(&inst, &mut rng);
        let tie = TieBreak::Incorrect;
        let mut forest = CsrForest::new();
        let mut exact = empty_estimate(&inst, tie).unwrap();
        let mut tally = DrawTally::Exact;
        accumulate_draw(
            &inst,
            &dg,
            tie,
            &mut rng,
            &mut exact,
            &mut forest,
            &mut tally,
        )
        .unwrap();
        let competence = PackedCompetence::new(inst.profile().as_slice()).unwrap();
        let mut scratch = PackedTallyScratch::new();
        let mut sampled = empty_estimate(&inst, tie).unwrap();
        packed_draw(
            &inst,
            &dg,
            &mut rng,
            &mut sampled,
            &mut forest,
            &competence,
            &mut scratch,
            4096,
        );
        assert!(
            (exact.p_mechanism() - sampled.p_mechanism()).abs() < 0.05,
            "exact {} vs sampled {}",
            exact.p_mechanism(),
            sampled.p_mechanism()
        );
        // Structural statistics bypass the sampler entirely.
        assert_eq!(exact.mean_delegators(), sampled.mean_delegators());
        assert_eq!(exact.mean_sinks(), sampled.mean_sinks());
        assert_eq!(exact.mean_max_weight(), sampled.mean_max_weight());
        assert_eq!(exact.mean_weight_gini(), sampled.mean_weight_gini());
    }

    #[test]
    fn packed_accumulate_is_exact_on_degenerate_profiles() {
        // Every voter has competence 1: each packed sample is a certain
        // win, so the sampled probability is exactly 1 with no noise.
        let inst = complete_instance(20, 1.0, 1.0);
        let mech = ApprovalThreshold::new(1);
        let mut rng = StdRng::seed_from_u64(12);
        let dg = mech.run(&inst, &mut rng);
        let competence = PackedCompetence::new(inst.profile().as_slice()).unwrap();
        let mut est = empty_estimate(&inst, TieBreak::Incorrect).unwrap();
        packed_draw(
            &inst,
            &dg,
            &mut rng,
            &mut est,
            &mut CsrForest::new(),
            &competence,
            &mut PackedTallyScratch::new(),
            8,
        );
        assert_eq!(est.p_mechanism(), 1.0);
    }

    #[test]
    fn reused_scratch_is_bit_identical_to_fresh() {
        // A deterministic mechanism emits the same delegation outcome
        // every draw. One scratch reused across the draws and a fresh
        // scratch per draw must produce bit-identical estimates from the
        // same rng stream.
        let inst = complete_instance(40, 0.35, 0.65);
        let dg = GreedyMax.run(&inst, &mut StdRng::seed_from_u64(13));
        let competence = PackedCompetence::new(inst.profile().as_slice()).unwrap();

        let run = |fresh_scratch: bool| {
            let mut rng = StdRng::seed_from_u64(14);
            let mut forest = CsrForest::new();
            let mut scratch = PackedTallyScratch::new();
            let mut est = empty_estimate(&inst, TieBreak::Incorrect).unwrap();
            for _ in 0..16 {
                if fresh_scratch {
                    scratch = PackedTallyScratch::new();
                }
                packed_draw(
                    &inst,
                    &dg,
                    &mut rng,
                    &mut est,
                    &mut forest,
                    &competence,
                    &mut scratch,
                    32,
                );
            }
            est
        };
        let reused = run(false);
        let fresh = run(true);
        assert_eq!(
            reused.p_mechanism().to_bits(),
            fresh.p_mechanism().to_bits()
        );
        assert_eq!(reused.mean_max_weight(), fresh.mean_max_weight());
        assert_eq!(reused.mean_weight_gini(), fresh.mean_weight_gini());
        assert_eq!(reused.trials(), fresh.trials());
    }

    #[test]
    fn reused_scratch_follows_a_changed_outcome() {
        // Alternating between two different delegation outcomes through
        // one scratch and forest: a stale forest would corrupt the
        // (rng-independent) structural statistics.
        let inst = complete_instance(24, 0.35, 0.65);
        let mech = ApprovalThreshold::new(1);
        let dg_a = mech.run(&inst, &mut StdRng::seed_from_u64(15));
        let dg_b = GreedyMax.run(&inst, &mut StdRng::seed_from_u64(16));
        assert_ne!(dg_a.actions(), dg_b.actions());
        let competence = PackedCompetence::new(inst.profile().as_slice()).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let mut forest = CsrForest::new();
        let mut scratch = PackedTallyScratch::new();
        let mut est = empty_estimate(&inst, TieBreak::Incorrect).unwrap();
        for draw in 0..8 {
            let dg = if draw % 2 == 0 { &dg_a } else { &dg_b };
            packed_draw(
                &inst,
                &dg.clone(),
                &mut rng,
                &mut est,
                &mut forest,
                &competence,
                &mut scratch,
                8,
            );
        }
        let expect_max = |dg: &DelegationGraph| dg.resolve().unwrap().max_weight() as f64;
        let want = (expect_max(&dg_a) + expect_max(&dg_b)) / 2.0;
        assert_eq!(est.mean_max_weight(), want);
    }

    #[test]
    fn failed_resolve_leaves_no_stale_planes() {
        // A cyclic draw errors halfway through the resolve; the next
        // draw of the previous outcome must resolve again rather than
        // read the half-written forest.
        let inst = complete_instance(12, 0.35, 0.65);
        let dg = GreedyMax.run(&inst, &mut StdRng::seed_from_u64(18));
        let mut cyclic = vec![crate::delegation::Action::Delegate(1); 12];
        cyclic[1] = crate::delegation::Action::Delegate(0);
        let cyclic = DelegationGraph::new(cyclic);
        let competence = PackedCompetence::new(inst.profile().as_slice()).unwrap();
        let mut rng = StdRng::seed_from_u64(19);
        let mut forest = CsrForest::new();
        let mut scratch = PackedTallyScratch::new();
        let mut est = empty_estimate(&inst, TieBreak::Incorrect).unwrap();
        for draw in [&dg, &cyclic, &dg] {
            let mut tally = DrawTally::Packed {
                competence: &competence,
                samples: 4,
                scratch: &mut scratch,
            };
            let _ = accumulate_draw(
                &inst,
                draw,
                TieBreak::Incorrect,
                &mut rng,
                &mut est,
                &mut forest,
                &mut tally,
            );
        }
        let mut fresh = CsrForest::new();
        fresh.resolve(&dg).unwrap();
        assert_eq!(est.trials(), 2);
        assert_eq!(est.mean_weight_gini(), fresh.weight_gini());
    }

    #[test]
    fn tie_break_variant_is_plumbed_through() {
        // Even-sized electorate of fair coins: direct probability differs
        // by tie rule.
        let inst = complete_instance(2, 0.5, 0.5);
        let mut rng = StdRng::seed_from_u64(8);
        let pess =
            estimate_gain_with(&inst, &DirectVoting, 4, TieBreak::Incorrect, &mut rng).unwrap();
        let coin =
            estimate_gain_with(&inst, &DirectVoting, 4, TieBreak::CoinFlip, &mut rng).unwrap();
        assert!(pess.p_direct() < coin.p_direct());
    }
}
