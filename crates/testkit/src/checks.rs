//! Differential and metamorphic conformance checks.
//!
//! Each check compares an optimised implementation against a naive
//! oracle ([`crate::oracle`]) or asserts a metamorphic property the
//! semantics guarantee (relabeling equivariance, weight conservation,
//! monotonicity, mechanism locality). Checks are pure functions of a
//! generated case plus an optional injected [`Mutation`]; each mutant
//! names the checks that must catch it ([`Mutation::caught_by`]).

use crate::gen::{ranked_ballots, Case, ALPHA};
use crate::oracle::{self, OracleOutcome};
use crate::Mutation;
use ld_core::csr::CsrForest;
use ld_core::csr::PackedSinkWeights;
use ld_core::delegation::{Action, DelegationGraph};
use ld_core::ranked::{resolve_ranked, DelegationRule, RankedBallot, RankedProfile, MAX_RANKS};
use ld_core::tally::{direct_probability, exact_correct_probability, sample_decision, TieBreak};
use ld_core::{CompetencyProfile, CoreError, ProblemInstance};
use ld_graph::generators;
use ld_graph::Graph;
use ld_live::dynamics::{
    run_dynamics, state_hash, DynamicsSpec, DynamicsView, MoveRule, Termination, TieBreakRule,
};
use ld_live::ranked::RankedMirror;
use ld_live::{LiveEngine, Update};
use ld_prob::bounds::berry_esseen_weighted;
use ld_prob::coins::{draw_scalar_coins, packed_bit, PackedCompetence};
use ld_prob::normal::std_normal_cdf;
use ld_prob::poisson_binomial::{PoissonBinomial, WeightedBernoulliSum};
use ld_prob::rng::{split_seed, stream_rng, Rng};

/// Result of one check on one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// The property held.
    Pass,
    /// The check does not apply to this case (reason attached).
    Skip(&'static str),
    /// The property failed, with a diagnostic naming both sides.
    Fail(String),
}

/// Identifiers for every conformance check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckId {
    /// CSR resolver vs the recursive `O(n²)` oracle: sinks, weights,
    /// members, max weight, discarded, chain, delegators, and error kinds
    /// with voter and target.
    ResolveOracle,
    /// `resolve()` is deterministic, and a reused `CsrForest` agrees
    /// with it on two consecutive resolves.
    ResolveDeterminism,
    /// Σ sink weights + discarded = n, plus sink-list invariants.
    WeightConservation,
    /// Exact DP tally vs brute-force enumeration of outcome vectors.
    TallyOracle,
    /// Exact tally vs direct Monte Carlo simulation.
    TallySimulation,
    /// `sample_decision` vs exact coin-vector enumeration (n ≤ 12).
    SampleOracle,
    /// Live engine replay vs from-scratch resolution and tally.
    LiveReplay,
    /// Normal approximation within the Berry–Esseen envelope of the
    /// exact Poisson-binomial.
    NormalEnvelope,
    /// Voter-relabeling equivariance of resolution and tally.
    RelabelEquivariance,
    /// P\[correct\] under direct voting is monotone in competency.
    Monotonicity,
    /// Mechanism choices are unchanged by edits outside the voter's
    /// neighbourhood.
    Locality,
    /// CSR structure-of-arrays coin-fold tally vs a naive per-voter walk
    /// over the oracle's sink assignments, plus the CSR exact tally vs
    /// the `Resolution` tally over the oracle's weights.
    CsrTallyOracle,
    /// Bit-packed 64-wide coin kernel and weighted fold vs the scalar
    /// oracle: packed words expanded bit by bit must equal the scalar
    /// per-voter draws, the plane fold must equal the scalar fold and a
    /// naive per-voter walk, and (for `n ≤ 12`) the majority probability
    /// integrated by the packed fold over all `2^n` coin vectors must
    /// equal the `O(2^n)` brute-force oracle.
    PackedTallyOracle,
    /// WAL crash oracle: the update stream is framed through the
    /// `ld-store` codec, then the log is crashed at every byte offset —
    /// the scanned prefix must replay (streamed and batched) to states
    /// bit-identical to from-scratch resolution, and corrupted records
    /// must be caught by the frame CRC.
    WalCrashOracle,
    /// Service conformance: the same update stream driven through the
    /// `ld-serve` election (batched ingest, sequenced apply, epoch
    /// publish) must reproduce the streamed replay, the batched
    /// replay, and from-scratch resolution exactly.
    ServeReplay,
    /// Best-response dynamics vs a brute-force oracle (`n ≤ 12`): every
    /// round's proposed moves (each voter's full candidate set enumerated
    /// against the naive `O(n²)` resolver), the sequential acceptance
    /// bits, the post-round states, the fixpoint/cycle verdict, and the
    /// round count must all match the fast loop exactly.
    DynamicsOracle,
    /// Dynamics trajectory replay: the recorded per-round moves replayed
    /// through `LiveEngine` streamed and batched must agree with each
    /// other, with from-scratch resolution, and with the recorded state
    /// hash at every round boundary; a crash at a seeded WAL operation
    /// (via the existing `FaultPlan`) must recover to a bit-identical
    /// continuation.
    DynamicsReplay,
    /// Ranked resolution vs a brute-force assignment oracle: ballots are
    /// derived deterministically from the case, both delegation rules
    /// resolve their selected forest exactly as the recursive oracle
    /// does, single-edge profiles must reproduce the legacy `resolve`
    /// result (including error precedence) exactly, chosen
    /// ranks must cite the *submitted* preference order, the exhausted
    /// set must equal the unattainable fixpoint, and (for `n ≤ 10`)
    /// MinDepth depths and the MinSum rank total must match the
    /// enumeration of every valid cycle-free assignment.
    RankedResolveOracle,
    /// Ranked churn replay: a `RankedMirror` fed seeded ballot edits
    /// must stay in lockstep with from-scratch selection and
    /// resolution — engine state bit-identical, reported change counts
    /// exact, internal forest invariants intact — after every edit.
    RankedLiveReplay,
}

impl CheckId {
    /// All checks, in execution order.
    pub fn all() -> [CheckId; 19] {
        [
            CheckId::ResolveOracle,
            CheckId::ResolveDeterminism,
            CheckId::WeightConservation,
            CheckId::TallyOracle,
            CheckId::TallySimulation,
            CheckId::SampleOracle,
            CheckId::LiveReplay,
            CheckId::NormalEnvelope,
            CheckId::RelabelEquivariance,
            CheckId::Monotonicity,
            CheckId::Locality,
            CheckId::CsrTallyOracle,
            CheckId::PackedTallyOracle,
            CheckId::WalCrashOracle,
            CheckId::ServeReplay,
            CheckId::DynamicsOracle,
            CheckId::DynamicsReplay,
            CheckId::RankedResolveOracle,
            CheckId::RankedLiveReplay,
        ]
    }

    /// Stable kebab-case identifier, used in reports and `--only`.
    pub fn id(self) -> &'static str {
        match self {
            CheckId::ResolveOracle => "resolve-oracle",
            CheckId::ResolveDeterminism => "resolve-determinism",
            CheckId::WeightConservation => "weight-conservation",
            CheckId::TallyOracle => "tally-oracle",
            CheckId::TallySimulation => "tally-simulation",
            CheckId::SampleOracle => "sample-oracle",
            CheckId::LiveReplay => "live-replay",
            CheckId::NormalEnvelope => "normal-envelope",
            CheckId::RelabelEquivariance => "relabel-equivariance",
            CheckId::Monotonicity => "monotonicity",
            CheckId::Locality => "locality",
            CheckId::CsrTallyOracle => "csr-tally-oracle",
            CheckId::PackedTallyOracle => "packed-tally-oracle",
            CheckId::WalCrashOracle => "wal-crash-oracle",
            CheckId::ServeReplay => "serve-replay",
            CheckId::DynamicsOracle => "dynamics-oracle",
            CheckId::DynamicsReplay => "dynamics-replay",
            CheckId::RankedResolveOracle => "ranked-resolve-oracle",
            CheckId::RankedLiveReplay => "ranked-live-replay",
        }
    }

    /// Parses a check identifier.
    pub fn parse(s: &str) -> Option<CheckId> {
        CheckId::all().into_iter().find(|c| c.id() == s)
    }

    /// Whether the check is a pure function of `(actions, competencies)`
    /// and therefore amenable to structural shrinking.
    pub fn shrinkable(self) -> bool {
        !matches!(self, CheckId::Locality)
    }
}

/// Runs one check on a generated case.
pub fn run_check(check: CheckId, case: &Case, mutation: Option<Mutation>) -> CheckOutcome {
    match check {
        CheckId::Locality => check_locality(case),
        _ => recheck_structural(
            check,
            case.dg.actions(),
            case.instance.profile().as_slice(),
            case.seed,
            mutation,
        ),
    }
}

/// Re-runs a structural check on a bare `(actions, competencies)` pair —
/// the entry point the shrinker drives.
pub fn recheck_structural(
    check: CheckId,
    actions: &[Action],
    ps: &[f64],
    seed: u64,
    mutation: Option<Mutation>,
) -> CheckOutcome {
    match check {
        CheckId::ResolveOracle => check_resolve_oracle(actions, mutation),
        CheckId::ResolveDeterminism => check_resolve_determinism(actions),
        CheckId::WeightConservation => check_weight_conservation(actions),
        CheckId::TallyOracle => check_tally_oracle(actions, ps, mutation),
        CheckId::TallySimulation => check_tally_simulation(actions, ps, seed, mutation),
        CheckId::SampleOracle => check_sample_oracle(actions, ps, seed),
        CheckId::LiveReplay => check_live_replay(actions, ps),
        CheckId::NormalEnvelope => check_normal_envelope(actions, ps),
        CheckId::RelabelEquivariance => check_relabel_equivariance(actions, ps, seed),
        CheckId::Monotonicity => check_monotonicity(ps),
        CheckId::Locality => CheckOutcome::Skip("locality needs the full instance and mechanism"),
        CheckId::CsrTallyOracle => check_csr_tally_oracle(actions, ps, seed, mutation),
        CheckId::PackedTallyOracle => check_packed_tally_oracle(actions, ps, seed, mutation),
        CheckId::WalCrashOracle => check_wal_crash_oracle(actions, ps, seed, mutation),
        CheckId::ServeReplay => check_serve_replay(actions, ps, seed, mutation),
        CheckId::DynamicsOracle => check_dynamics_oracle(actions, ps, mutation),
        CheckId::DynamicsReplay => check_dynamics_replay(actions, ps, seed),
        CheckId::RankedResolveOracle => check_ranked_resolve_oracle(actions, seed, mutation),
        CheckId::RankedLiveReplay => check_ranked_live_replay(actions, ps, seed, mutation),
    }
}

/// Slack for comparisons of two exact `f64` computations.
const EXACT_EPS: f64 = 1e-9;
/// Absolute error budget of the rational-approximation `erf`.
const ERF_SLACK: f64 = 1e-6;

/// Builds the CSR forest under test: the production resolve, with the
/// weight skew applied afterwards when the context injects the mutant.
fn resolve_csr(actions: &[Action], mutation: Option<Mutation>) -> Result<CsrForest, CoreError> {
    let mut forest = CsrForest::new();
    forest.resolve(&DelegationGraph::new(actions.to_vec()))?;
    if mutation == Some(Mutation::CsrOffset) {
        forest.skew_weights_for_tests();
    }
    Ok(forest)
}

fn check_resolve_oracle(actions: &[Action], mutation: Option<Mutation>) -> CheckOutcome {
    let system = resolve_csr(actions, mutation);
    let reference = oracle::resolve_recursive(actions);
    // Sinks, weights, discarded, chain and delegators through the owned
    // snapshot (`sink_of` and the weight array, voter by voter); error
    // kinds with voter and target.
    let snapshot = system
        .as_ref()
        .map(CsrForest::to_resolution)
        .map_err(Clone::clone);
    if let Some(diff) = reference.mismatch(&snapshot) {
        return CheckOutcome::Fail(diff);
    }
    let (Ok(forest), OracleOutcome::Resolved(orc)) = (system, reference) else {
        return CheckOutcome::Pass;
    };
    let oracle_max = orc.weight.iter().copied().max().unwrap_or(0);
    if forest.max_weight() != oracle_max {
        return CheckOutcome::Fail(format!(
            "max weight differs: CSR {} vs oracle {oracle_max}",
            forest.max_weight()
        ));
    }
    CheckOutcome::Pass
}

fn check_resolve_determinism(actions: &[Action]) -> CheckOutcome {
    let dg = DelegationGraph::new(actions.to_vec());
    let first = dg.resolve();
    let second = dg.resolve();
    if first != second {
        return CheckOutcome::Fail(format!(
            "resolve() not deterministic: {first:?} vs {second:?}"
        ));
    }
    let mut forest = CsrForest::new();
    for pass in 0..2 {
        let reused = forest.resolve(&dg).map(|()| forest.to_resolution());
        if first != reused {
            return CheckOutcome::Fail(format!(
                "reused CsrForest (pass {pass}) disagrees with resolve(): \
                 {reused:?} vs {first:?}"
            ));
        }
    }
    CheckOutcome::Pass
}

/// Coin vectors per `csr-tally-oracle` run; enough to make a skewed
/// weight essentially always visible while staying cheap on the grid.
const CSR_COIN_ROUNDS: usize = 8;

fn check_csr_tally_oracle(
    actions: &[Action],
    ps: &[f64],
    seed: u64,
    mutation: Option<Mutation>,
) -> CheckOutcome {
    let n = actions.len();
    if n == 0 {
        return CheckOutcome::Skip("empty electorate");
    }
    let dg = DelegationGraph::new(actions.to_vec());
    if !dg.is_single_target() {
        return CheckOutcome::Skip("multi-target graphs are tallied by sampling only");
    }
    let OracleOutcome::Resolved(orc) = oracle::resolve_recursive(actions) else {
        return CheckOutcome::Skip("resolver rejects this graph");
    };
    let mut forest = match resolve_csr(actions, mutation) {
        Ok(f) => f,
        Err(e) => return CheckOutcome::Fail(format!("CSR resolve errored: {e}")),
    };
    // The SoA fold vs a naive per-voter walk: draw seeded coin vectors
    // and compare the weighted correct mass both ways.
    let mut rng = stream_rng(seed, 13);
    for round in 0..CSR_COIN_ROUNDS {
        let coins: Vec<bool> = (0..n).map(|v| rng.gen_range(0.0..1.0) < ps[v]).collect();
        let kernel = forest.fold_weighted_coins(&coins);
        let naive: u64 = orc
            .sink_of
            .iter()
            .flatten()
            .map(|&s| u64::from(coins[s]))
            .sum();
        if kernel != naive {
            return CheckOutcome::Fail(format!(
                "coin fold (round {round}) differs: kernel {kernel} vs per-voter walk \
                 {naive} on coins {coins:?}"
            ));
        }
    }
    // The CSR exact tally vs the Resolution-based tally over the
    // oracle's weights.
    let inst = match carrier_instance(ps) {
        Ok(i) => i,
        Err(e) => return CheckOutcome::Fail(format!("carrier instance: {e}")),
    };
    let res = orc.to_resolution();
    for tie in [TieBreak::Incorrect, TieBreak::CoinFlip] {
        let reference = match exact_correct_probability(&inst, &res, tie) {
            Ok(p) => p,
            Err(e) => return CheckOutcome::Fail(format!("reference tally errored: {e}")),
        };
        let system = match forest.exact_correct_probability(&inst, tie) {
            Ok(p) => p,
            Err(e) => return CheckOutcome::Fail(format!("CSR tally errored: {e}")),
        };
        if (system - reference).abs() > EXACT_EPS {
            return CheckOutcome::Fail(format!(
                "CSR exact tally ({tie:?}) {system} differs from the oracle resolution's \
                 {reference}"
            ));
        }
    }
    CheckOutcome::Pass
}

/// Packed coin words drawn per `packed-tally-oracle` run; each word is
/// also expanded bit by bit against the scalar oracle, so one round of
/// divergence anywhere in the 64-wide kernel fails the check.
const PACKED_COIN_ROUNDS: usize = 8;

/// The packed coin kernel under test: the production build, with the
/// plane-threshold skew applied when the context injects the mutant.
fn build_packed_competence(
    ps: &[f64],
    mutation: Option<Mutation>,
) -> Result<PackedCompetence, String> {
    let mut competence = PackedCompetence::new(ps).map_err(|e| e.to_string())?;
    if mutation == Some(Mutation::PackedThreshold) {
        competence.skew_threshold_for_tests();
    }
    Ok(competence)
}

fn check_packed_tally_oracle(
    actions: &[Action],
    ps: &[f64],
    seed: u64,
    mutation: Option<Mutation>,
) -> CheckOutcome {
    let n = actions.len();
    if n == 0 {
        return CheckOutcome::Skip("empty electorate");
    }
    let dg = DelegationGraph::new(actions.to_vec());
    if !dg.is_single_target() {
        return CheckOutcome::Skip("multi-target graphs are tallied by sampling only");
    }
    let OracleOutcome::Resolved(orc) = oracle::resolve_recursive(actions) else {
        return CheckOutcome::Skip("resolver rejects this graph");
    };
    let forest = match resolve_csr(actions, mutation) {
        Ok(f) => f,
        Err(e) => return CheckOutcome::Fail(format!("CSR resolve errored: {e}")),
    };
    let competence = match build_packed_competence(ps, mutation) {
        Ok(c) => c,
        Err(e) => return CheckOutcome::Fail(format!("packed competence: {e}")),
    };
    let mut weights = PackedSinkWeights::new();
    forest.pack_sink_weights(&mut weights);

    // Leg 1: the packed kernel vs the scalar oracle, word by word and
    // bit by bit, on seeded rounds sharing one RNG stream — any extra,
    // missing, or misthresholded word desynchronizes a later round even
    // if the coins of this one happen to agree.
    let mut packed_rng = stream_rng(seed, 17);
    let mut scalar_rng = stream_rng(seed, 17);
    let mut words = Vec::new();
    let mut bools = Vec::new();
    let total = forest.tallied() as u64;
    for round in 0..PACKED_COIN_ROUNDS {
        competence.draw_packed(&mut packed_rng, &mut words);
        if let Err(e) = draw_scalar_coins(ps, &mut scalar_rng, &mut bools) {
            return CheckOutcome::Fail(format!("scalar oracle errored: {e}"));
        }
        for (i, &coin) in bools.iter().enumerate() {
            if packed_bit(&words, i) != coin {
                return CheckOutcome::Fail(format!(
                    "round {round}: packed coin for voter {i} is {}, scalar oracle drew \
                     {coin} (p = {})",
                    packed_bit(&words, i),
                    ps[i]
                ));
            }
        }
        for i in n..words.len() * 64 {
            if packed_bit(&words, i) {
                return CheckOutcome::Fail(format!(
                    "round {round}: ragged tail bit {i} is set (n = {n})"
                ));
            }
        }
        // Leg 2: the plane fold vs the scalar fold vs a naive per-voter
        // walk over the oracle's sink assignments.
        let plane = forest.fold_weighted_coins_packed(&weights, &words);
        let scalar = forest.fold_weighted_coins(&bools);
        let naive: u64 = orc
            .sink_of
            .iter()
            .flatten()
            .map(|&s| u64::from(bools[s]))
            .sum();
        if plane != scalar || plane != naive {
            return CheckOutcome::Fail(format!(
                "round {round}: weighted mass differs — plane fold {plane}, scalar fold \
                 {scalar}, per-voter walk {naive}"
            ));
        }
    }

    // Leg 3 (n ≤ 12): integrate the majority rule through the packed
    // fold over ALL 2^n coin vectors and compare with the O(2^n)
    // brute-force oracle — the fold path is pinned to the exact
    // distribution, not just to sampled agreement.
    if n <= oracle::COIN_BRUTE_MAX_N {
        let Some(reference) = oracle::brute_force_decision_by_coins(actions, ps) else {
            return CheckOutcome::Skip("cyclic delegation graph");
        };
        let mut integrated = 0.0f64;
        for mask in 0u64..(1u64 << n) {
            let mut prob = 1.0;
            for (i, &p) in ps.iter().enumerate() {
                prob *= if (mask >> i) & 1 == 1 { p } else { 1.0 - p };
            }
            if prob == 0.0 {
                continue;
            }
            let w = forest.fold_weighted_coins_packed(&weights, &[mask]);
            if 2 * w > total {
                integrated += prob;
            }
        }
        if (integrated - reference).abs() > EXACT_EPS {
            return CheckOutcome::Fail(format!(
                "packed-fold integration {integrated} differs from the brute-force \
                 oracle {reference} over {n} voters"
            ));
        }
    }
    CheckOutcome::Pass
}

fn check_weight_conservation(actions: &[Action]) -> CheckOutcome {
    let dg = DelegationGraph::new(actions.to_vec());
    let Ok(res) = dg.resolve() else {
        return CheckOutcome::Skip("resolver rejects this graph");
    };
    let n = actions.len();
    let weight_sum: usize = res.weights().iter().sum();
    if weight_sum + res.discarded() != n {
        return CheckOutcome::Fail(format!(
            "weight not conserved: Σ weights {} + discarded {} != n {}",
            weight_sum,
            res.discarded(),
            n
        ));
    }
    if res.tallied() != n - res.discarded() {
        return CheckOutcome::Fail(format!(
            "tallied {} != n {} - discarded {}",
            res.tallied(),
            n,
            res.discarded()
        ));
    }
    if !res.sinks().windows(2).all(|w| w[0] < w[1]) {
        return CheckOutcome::Fail(format!("sink list not strictly sorted: {:?}", res.sinks()));
    }
    for v in 0..n {
        let is_sink = res.sinks().binary_search(&v).is_ok();
        if is_sink != (res.weight_of(v) > 0) {
            return CheckOutcome::Fail(format!(
                "voter {v}: in sink list = {is_sink} but weight = {}",
                res.weight_of(v)
            ));
        }
        let incoming = res
            .sink_assignments()
            .iter()
            .filter(|s| **s == Some(v))
            .count();
        if res.weight_of(v) != incoming {
            return CheckOutcome::Fail(format!(
                "voter {v}: weight {} != {} votes assigned to it",
                res.weight_of(v),
                incoming
            ));
        }
    }
    let discarded = res
        .sink_assignments()
        .iter()
        .filter(|s| s.is_none())
        .count();
    if discarded != res.discarded() {
        return CheckOutcome::Fail(format!(
            "discarded {} != {} unassigned voters",
            res.discarded(),
            discarded
        ));
    }
    if res.max_weight() != res.weights().iter().copied().max().unwrap_or(0) {
        return CheckOutcome::Fail(format!(
            "max_weight {} != max of weights {:?}",
            res.max_weight(),
            res.weights()
        ));
    }
    CheckOutcome::Pass
}

/// Sink `(weight, competency)` terms of a resolved single-target graph,
/// or a skip reason.
fn sink_terms(actions: &[Action], ps: &[f64]) -> Result<(Vec<(usize, f64)>, usize), CheckOutcome> {
    let dg = DelegationGraph::new(actions.to_vec());
    if !dg.is_single_target() {
        return Err(CheckOutcome::Skip(
            "multi-target graphs are tallied by sampling only",
        ));
    }
    let res = dg
        .resolve()
        .map_err(|_| CheckOutcome::Skip("resolver rejects this graph"))?;
    let terms: Vec<(usize, f64)> = res.sink_weights().map(|(s, w)| (w, ps[s])).collect();
    Ok((terms, res.tallied()))
}

/// The tally under test: the production DP, or the tie-flipped mutant.
fn system_tally(
    mutation: Option<Mutation>,
    terms: &[(usize, f64)],
    tallied: usize,
    credit: f64,
) -> Result<f64, String> {
    let sum = WeightedBernoulliSum::new(terms).map_err(|e| e.to_string())?;
    Ok(if mutation == Some(Mutation::TieFlip) {
        sum.majority_with_ties(tallied, 1.0 - credit)
    } else {
        sum.majority_with_ties(tallied, credit)
    })
}

/// Rebuilds a minimal instance carrying `ps` (the tally only reads the
/// profile, so a complete graph serves any `(actions, ps)` pair).
fn carrier_instance(ps: &[f64]) -> Result<ProblemInstance, String> {
    let profile = CompetencyProfile::new(ps.to_vec()).map_err(|e| e.to_string())?;
    ProblemInstance::new(generators::complete(ps.len()), profile, ALPHA).map_err(|e| e.to_string())
}

/// The direct-voting leg of `tally-oracle`: [`direct_probability`] under
/// every tie policy against brute force over unit terms, or against the
/// naive full-width DP when the electorate is too large to enumerate.
fn check_direct_tally(ps: &[f64], mutation: Option<Mutation>) -> Result<(), CheckOutcome> {
    let naive_pmf =
        (ps.len() > oracle::BRUTE_FORCE_MAX_TERMS).then(|| oracle::naive_direct_pmf(ps));
    let units: Vec<(usize, f64)> = ps.iter().map(|&p| (1, p)).collect();
    let inst =
        carrier_instance(ps).map_err(|e| CheckOutcome::Fail(format!("carrier instance: {e}")))?;
    for tie in [TieBreak::Incorrect, TieBreak::CoinFlip, TieBreak::Correct] {
        let system = if mutation == Some(Mutation::TieFlip) {
            PoissonBinomial::new(ps)
                .map_err(|e| CheckOutcome::Fail(format!("mutant direct tally errored: {e}")))?
                .majority_with_ties(1.0 - tie.credit())
        } else {
            direct_probability(&inst, tie)
                .map_err(|e| CheckOutcome::Fail(format!("direct tally errored: {e}")))?
        };
        let (reference, oracle_name) = match &naive_pmf {
            Some(pmf) => (
                oracle::direct_majority_from_pmf(pmf, tie.credit()),
                "the naive DP",
            ),
            None => (
                oracle::brute_force_majority(&units, ps.len(), tie.credit())
                    .expect("electorate within the brute-force limit"),
                "brute force",
            ),
        };
        if (system - reference).abs() > EXACT_EPS {
            return Err(CheckOutcome::Fail(format!(
                "direct tally ({tie:?}) disagrees with {oracle_name}: system {system} vs \
                 oracle {reference} on {} voters",
                ps.len()
            )));
        }
    }
    Ok(())
}

fn check_tally_oracle(actions: &[Action], ps: &[f64], mutation: Option<Mutation>) -> CheckOutcome {
    if actions.is_empty() {
        return CheckOutcome::Skip("empty electorate");
    }
    if let Err(fail) = check_direct_tally(ps, mutation) {
        return fail;
    }
    let (terms, tallied) = match sink_terms(actions, ps) {
        Ok(t) => t,
        Err(skip) => return skip,
    };
    if terms.len() > oracle::BRUTE_FORCE_MAX_TERMS {
        return CheckOutcome::Skip("too many sinks for brute-force enumeration");
    }
    for tie in [TieBreak::Incorrect, TieBreak::CoinFlip, TieBreak::Correct] {
        // Pin the full production path for the real tally; the mutant
        // stands in for a bug in the tie-break credit.
        let system = if mutation == Some(Mutation::TieFlip) {
            match system_tally(mutation, &terms, tallied, tie.credit()) {
                Ok(p) => p,
                Err(e) => return CheckOutcome::Fail(format!("mutant tally errored: {e}")),
            }
        } else {
            let inst = match carrier_instance(ps) {
                Ok(i) => i,
                Err(e) => return CheckOutcome::Fail(format!("carrier instance: {e}")),
            };
            let dg = DelegationGraph::new(actions.to_vec());
            let res = match dg.resolve() {
                Ok(r) => r,
                Err(e) => return CheckOutcome::Fail(format!("re-resolve failed: {e}")),
            };
            match exact_correct_probability(&inst, &res, tie) {
                Ok(p) => p,
                Err(e) => return CheckOutcome::Fail(format!("exact tally errored: {e}")),
            }
        };
        let Some(reference) = oracle::brute_force_majority(&terms, tallied, tie.credit()) else {
            return CheckOutcome::Skip("too many sinks for brute-force enumeration");
        };
        if (system - reference).abs() > EXACT_EPS {
            return CheckOutcome::Fail(format!(
                "tally ({tie:?}) disagrees with brute force: system {system} vs oracle \
                 {reference} on {} sinks, {} tallied",
                terms.len(),
                tallied
            ));
        }
    }
    CheckOutcome::Pass
}

fn check_tally_simulation(
    actions: &[Action],
    ps: &[f64],
    seed: u64,
    mutation: Option<Mutation>,
) -> CheckOutcome {
    let (terms, tallied) = match sink_terms(actions, ps) {
        Ok(t) => t,
        Err(skip) => return skip,
    };
    if terms.is_empty() {
        return CheckOutcome::Skip("everyone abstained");
    }
    // Incorrect ties make the mutant maximally visible (credit 0 vs 1).
    let system = match system_tally(mutation, &terms, tallied, 0.0) {
        Ok(p) => p,
        Err(e) => return CheckOutcome::Fail(format!("tally errored: {e}")),
    };
    let mut rng = stream_rng(seed, 7);
    let est = oracle::simulate_majority(&terms, tallied, 0.0, 2500, &mut rng);
    let tolerance = 5.0 * est.std_error + EXACT_EPS;
    if (system - est.estimate).abs() > tolerance {
        return CheckOutcome::Fail(format!(
            "tally {} is {} from the simulated {} (tolerance {}, {} trials)",
            system,
            (system - est.estimate).abs(),
            est.estimate,
            tolerance,
            est.trials
        ));
    }
    CheckOutcome::Pass
}

fn check_sample_oracle(actions: &[Action], ps: &[f64], seed: u64) -> CheckOutcome {
    let n = actions.len();
    if n == 0 {
        return CheckOutcome::Skip("empty electorate");
    }
    if n > oracle::COIN_BRUTE_MAX_N {
        return CheckOutcome::Skip("electorate too large for coin-vector enumeration");
    }
    let dg = DelegationGraph::new(actions.to_vec());
    if dg.validate_targets().is_err() {
        return CheckOutcome::Skip("out-of-range targets");
    }
    let Some(exact) = oracle::brute_force_decision_by_coins(actions, ps) else {
        return CheckOutcome::Skip("cyclic delegation graph");
    };
    let inst = match carrier_instance(ps) {
        Ok(i) => i,
        Err(e) => return CheckOutcome::Fail(format!("carrier instance: {e}")),
    };
    let trials: u64 = 1500;
    let mut rng = stream_rng(seed, 8);
    let mut correct = 0u64;
    for _ in 0..trials {
        match sample_decision(&inst, &dg, TieBreak::Incorrect, &mut rng) {
            Ok(true) => correct += 1,
            Ok(false) => {}
            Err(e) => return CheckOutcome::Fail(format!("sample_decision errored: {e}")),
        }
    }
    let sampled = correct as f64 / trials as f64;
    let se = (exact * (1.0 - exact) / trials as f64).sqrt();
    let tolerance = 5.0 * se + EXACT_EPS;
    if (sampled - exact).abs() > tolerance {
        return CheckOutcome::Fail(format!(
            "sample_decision frequency {sampled} is {} from the exact {exact} \
             (tolerance {tolerance}, {trials} trials)",
            (sampled - exact).abs()
        ));
    }
    CheckOutcome::Pass
}

/// Replays `actions` into a live engine (starting from everyone voting),
/// one update per non-voting voter in index order.
fn replay_updates(actions: &[Action]) -> Vec<Update> {
    actions
        .iter()
        .enumerate()
        .filter_map(|(voter, a)| match a {
            Action::Vote => None,
            Action::Abstain => Some(Update::Abstain { voter }),
            Action::Delegate(target) => Some(Update::Delegate {
                voter,
                target: *target,
            }),
            // DelegateMany has no live-engine update; future `Action`
            // variants (the enum is non_exhaustive) are left at the
            // engine's initial Vote state, so a real semantic difference
            // surfaces as a replay mismatch instead of a silent pass.
            _ => None,
        })
        .collect()
}

fn check_live_replay(actions: &[Action], ps: &[f64]) -> CheckOutcome {
    let n = actions.len();
    if n == 0 {
        return CheckOutcome::Skip("empty electorate");
    }
    let dg = DelegationGraph::new(actions.to_vec());
    if !dg.is_single_target() {
        return CheckOutcome::Skip("live engine handles single-target graphs only");
    }
    let Ok(res) = dg.resolve() else {
        return CheckOutcome::Skip("resolver rejects this graph");
    };
    let updates = replay_updates(actions);
    let mut live = match LiveEngine::new(vec![Action::Vote; n], ps.to_vec()) {
        Ok(e) => e,
        Err(e) => return CheckOutcome::Fail(format!("live engine construction: {e}")),
    };
    for u in &updates {
        if let Err(reject) = live.apply(*u) {
            return CheckOutcome::Fail(format!(
                "replay rejected {u:?}: {reject:?} (final graph is acyclic, so every \
                 prefix of the in-order replay must be too)"
            ));
        }
    }
    if live.resolution() != res {
        return CheckOutcome::Fail(format!(
            "incremental resolution differs from from-scratch: {:?} vs {:?}",
            live.resolution(),
            res
        ));
    }
    if let Err(e) = live.self_check() {
        return CheckOutcome::Fail(format!("live self-check failed after replay: {e}"));
    }
    let mut batch_engine = match LiveEngine::new(vec![Action::Vote; n], ps.to_vec()) {
        Ok(e) => e,
        Err(e) => return CheckOutcome::Fail(format!("live engine construction: {e}")),
    };
    let report = batch_engine.apply_batch(&updates);
    if !report.rejected.is_empty() {
        return CheckOutcome::Fail(format!("batch replay rejected {:?}", report.rejected));
    }
    if batch_engine.resolution() != res {
        return CheckOutcome::Fail(
            "batched replay resolution differs from from-scratch".to_string(),
        );
    }
    let inst = match carrier_instance(ps) {
        Ok(i) => i,
        Err(e) => return CheckOutcome::Fail(format!("carrier instance: {e}")),
    };
    let from_scratch = match exact_correct_probability(&inst, &res, TieBreak::CoinFlip) {
        Ok(p) => p,
        Err(e) => return CheckOutcome::Fail(format!("from-scratch tally errored: {e}")),
    };
    let incremental = match live.decision_probability_exact(TieBreak::CoinFlip) {
        Ok(p) => p,
        Err(e) => return CheckOutcome::Fail(format!("live exact tally errored: {e}")),
    };
    if (incremental - from_scratch).abs() > EXACT_EPS {
        return CheckOutcome::Fail(format!(
            "live exact tally {incremental} differs from from-scratch {from_scratch}"
        ));
    }
    CheckOutcome::Pass
}

fn check_normal_envelope(actions: &[Action], ps: &[f64]) -> CheckOutcome {
    let (terms, tallied) = match sink_terms(actions, ps) {
        Ok(t) => t,
        Err(skip) => return skip,
    };
    if terms.is_empty() {
        return CheckOutcome::Skip("everyone abstained");
    }
    let bound = match berry_esseen_weighted(&terms) {
        Ok(b) => b,
        Err(_) => return CheckOutcome::Skip("zero variance, Berry-Esseen undefined"),
    };
    let sum = match WeightedBernoulliSum::new(&terms) {
        Ok(s) => s,
        Err(e) => return CheckOutcome::Fail(format!("exact DP errored: {e}")),
    };
    if sum.variance() <= 1e-9 {
        return CheckOutcome::Skip("zero variance, Berry-Esseen undefined");
    }
    let exact = sum.strict_majority(tallied);
    // Berry–Esseen bounds sup_x |F(x) − Φ((x−μ)/σ)| over ALL real x, and
    // F is flat between integer atoms, so both the engine's evaluation
    // point (t/2, possibly half-integer) and ⌊t/2⌋ are covered.
    let mean = sum.mean();
    let sd = sum.variance().sqrt();
    let normal = 1.0 - std_normal_cdf(((tallied / 2) as f64 - mean) / sd);
    if (normal - exact).abs() > bound + ERF_SLACK {
        return CheckOutcome::Fail(format!(
            "normal approximation {normal} strays {} from exact {exact}, beyond the \
             Berry-Esseen envelope {bound}",
            (normal - exact).abs()
        ));
    }
    let n = actions.len();
    let mut live = match LiveEngine::new(vec![Action::Vote; n], ps.to_vec()) {
        Ok(e) => e,
        Err(e) => return CheckOutcome::Fail(format!("live engine construction: {e}")),
    };
    for u in replay_updates(actions) {
        if live.apply(u).is_err() {
            return CheckOutcome::Skip("replay rejected (covered by live-replay)");
        }
    }
    let live_normal = live.decision_probability_normal(TieBreak::Incorrect);
    if (live_normal - exact).abs() > bound + ERF_SLACK {
        return CheckOutcome::Fail(format!(
            "live O(1) normal approximation {live_normal} strays {} from exact {exact}, \
             beyond the Berry-Esseen envelope {bound}",
            (live_normal - exact).abs()
        ));
    }
    CheckOutcome::Pass
}

/// A seed-derived uniformly random permutation of `0..n`.
fn derive_permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = stream_rng(seed, 11);
    let mut pi: Vec<usize> = (0..n).collect();
    // Fisher–Yates.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        pi.swap(i, j);
    }
    pi
}

/// Relabels actions so that voter `π(i)` performs `A[i]` with targets
/// mapped through `π`.
fn relabel(actions: &[Action], pi: &[usize]) -> Vec<Action> {
    let mut out = vec![Action::Vote; actions.len()];
    for (i, a) in actions.iter().enumerate() {
        out[pi[i]] = match a {
            Action::Vote => Action::Vote,
            Action::Abstain => Action::Abstain,
            Action::Delegate(t) => Action::Delegate(pi[*t]),
            Action::DelegateMany(ts) => Action::DelegateMany(ts.iter().map(|&t| pi[t]).collect()),
            // Future variants are relabeled as-is; if they carry targets
            // the equivariance check will fail loudly rather than lie.
            other => other.clone(),
        };
    }
    out
}

fn check_relabel_equivariance(actions: &[Action], ps: &[f64], seed: u64) -> CheckOutcome {
    let n = actions.len();
    if n == 0 {
        return CheckOutcome::Skip("empty electorate");
    }
    let dg = DelegationGraph::new(actions.to_vec());
    if dg.validate_targets().is_err() {
        return CheckOutcome::Skip("relabeling undefined for out-of-range targets");
    }
    let pi = derive_permutation(n, seed);
    let relabeled = relabel(actions, &pi);
    let direct = dg.resolve();
    let mapped = DelegationGraph::new(relabeled).resolve();
    match (direct, mapped) {
        (Ok(a), Ok(b)) => {
            for i in 0..n {
                if b.sink_of(pi[i]) != a.sink_of(i).map(|s| pi[s]) {
                    return CheckOutcome::Fail(format!(
                        "voter {i}: sink {:?} maps to {:?}, relabeled resolves to {:?}",
                        a.sink_of(i),
                        a.sink_of(i).map(|s| pi[s]),
                        b.sink_of(pi[i])
                    ));
                }
                if b.weight_of(pi[i]) != a.weight_of(i) {
                    return CheckOutcome::Fail(format!(
                        "voter {i}: weight {} != relabeled weight {}",
                        a.weight_of(i),
                        b.weight_of(pi[i])
                    ));
                }
            }
            if (
                a.tallied(),
                a.discarded(),
                a.sink_count(),
                a.max_weight(),
                a.longest_chain(),
            ) != (
                b.tallied(),
                b.discarded(),
                b.sink_count(),
                b.max_weight(),
                b.longest_chain(),
            ) {
                return CheckOutcome::Fail(
                    "aggregate resolution statistics changed under relabeling".to_string(),
                );
            }
            // Tally equivariance: the sink (weight, competency) multiset
            // is invariant, so the decision probability must be too.
            let mut ps_pi = vec![0.0; n];
            for i in 0..n {
                ps_pi[pi[i]] = ps[i];
            }
            let terms_a: Vec<(usize, f64)> = a.sink_weights().map(|(s, w)| (w, ps[s])).collect();
            let terms_b: Vec<(usize, f64)> = b.sink_weights().map(|(s, w)| (w, ps_pi[s])).collect();
            if terms_a.is_empty() {
                return CheckOutcome::Pass;
            }
            let (sum_a, sum_b) = match (
                WeightedBernoulliSum::new(&terms_a),
                WeightedBernoulliSum::new(&terms_b),
            ) {
                (Ok(x), Ok(y)) => (x, y),
                (x, y) => return CheckOutcome::Fail(format!("tally DP errored: {x:?} / {y:?}")),
            };
            for credit in [0.0, 0.5, 1.0] {
                let pa = sum_a.majority_with_ties(a.tallied(), credit);
                let pb = sum_b.majority_with_ties(b.tallied(), credit);
                if (pa - pb).abs() > 1e-12 {
                    return CheckOutcome::Fail(format!(
                        "tally changed under relabeling (credit {credit}): {pa} vs {pb}"
                    ));
                }
            }
            CheckOutcome::Pass
        }
        (Err(ea), Err(eb)) => {
            if std::mem::discriminant(&ea) == std::mem::discriminant(&eb) {
                CheckOutcome::Pass
            } else {
                CheckOutcome::Fail(format!(
                    "error kind changed under relabeling: {ea:?} vs {eb:?}"
                ))
            }
        }
        (a, b) => CheckOutcome::Fail(format!(
            "relabeling changed the outcome kind: {a:?} vs {b:?}"
        )),
    }
}

fn check_monotonicity(ps: &[f64]) -> CheckOutcome {
    let n = ps.len();
    if n == 0 {
        return CheckOutcome::Skip("empty electorate");
    }
    let base = match PoissonBinomial::new(ps) {
        Ok(pb) => pb.strict_majority(),
        Err(e) => return CheckOutcome::Fail(format!("Poisson-binomial errored: {e}")),
    };
    let mut probe_indices = vec![0, n / 2, n - 1];
    probe_indices.dedup();
    for idx in probe_indices {
        let mut bumped = ps.to_vec();
        bumped[idx] = (bumped[idx] + 0.1).min(1.0);
        let improved = match PoissonBinomial::new(&bumped) {
            Ok(pb) => pb.strict_majority(),
            Err(e) => return CheckOutcome::Fail(format!("Poisson-binomial errored: {e}")),
        };
        if improved < base - 1e-12 {
            return CheckOutcome::Fail(format!(
                "raising voter {idx}'s competency {} -> {} LOWERED P[correct] {} -> {}",
                ps[idx], bumped[idx], base, improved
            ));
        }
    }
    CheckOutcome::Pass
}

fn check_locality(case: &Case) -> CheckOutcome {
    let inst = &case.instance;
    let n = inst.n();
    if n < 4 {
        return CheckOutcome::Skip("electorate too small for a remote edit");
    }
    let mut probes = vec![0, n / 2, n - 1];
    probes.dedup();
    let mut edits_found = false;
    for v in probes {
        let mut closed = vec![false; n];
        closed[v] = true;
        for u in inst.graph().neighbors(v) {
            closed[u] = true;
        }
        // First vertex pair entirely outside v's closed neighbourhood;
        // toggle that edge.
        let mut edit = None;
        'outer: for u in 0..n {
            if closed[u] {
                continue;
            }
            if let Some(w) = ((u + 1)..n).find(|&w| !closed[w]) {
                edit = Some((u, w));
                break 'outer;
            }
        }
        let Some((u, w)) = edit else {
            continue;
        };
        edits_found = true;
        let had_edge = inst.graph().has_edge(u, w);
        // Rebuild BOTH sides from the same edge list (minus/plus the
        // toggled edge) so adjacency-list ordering — which RNG-driven
        // mechanisms are sensitive to — is identical except for the edit.
        let base_edges: Vec<(usize, usize)> = inst.graph().edges().collect();
        let edited_edges: Vec<(usize, usize)> = if had_edge {
            base_edges
                .iter()
                .copied()
                .filter(|&e| e != (u, w))
                .collect()
        } else {
            base_edges
                .iter()
                .copied()
                .chain(std::iter::once((u, w)))
                .collect()
        };
        let rebuild = |edges: Vec<(usize, usize)>| -> Result<ProblemInstance, String> {
            let g = Graph::from_edges(n, edges).map_err(|e| e.to_string())?;
            ProblemInstance::new(g, inst.profile().clone(), inst.alpha()).map_err(|e| e.to_string())
        };
        let baseline = match rebuild(base_edges) {
            Ok(i) => i,
            Err(e) => return CheckOutcome::Fail(format!("baseline rebuild: {e}")),
        };
        let edited = match rebuild(edited_edges) {
            Ok(i) => i,
            Err(e) => return CheckOutcome::Fail(format!("edited instance rebuild: {e}")),
        };
        let verb = if had_edge { "removing" } else { "adding" };
        for salt in [21u64, 22] {
            let mut rng_a = stream_rng(case.seed, salt);
            let mut rng_b = stream_rng(case.seed, salt);
            let before = case.mechanism.act(&baseline, v, &mut rng_a);
            let after = case.mechanism.act(&edited, v, &mut rng_b);
            if before != after {
                return CheckOutcome::Fail(format!(
                    "{verb} remote edge ({u},{w}) changed voter {v}'s action: \
                     {before:?} -> {after:?}"
                ));
            }
        }
    }
    if edits_found {
        CheckOutcome::Pass
    } else {
        CheckOutcome::Skip("no vertex pair outside any probed neighbourhood")
    }
}

/// Deliberately buggy testkit-local WAL scanner: trusts frame lengths
/// and never verifies the stored CRC32. `--mutate wal-crc` routes the
/// crash oracle through it, so a corrupted record decodes "successfully"
/// and the differential comparison below must flag the divergence.
fn scan_records_skipping_crc(body: &[u8]) -> Vec<Update> {
    use ld_store::wal::{FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD};
    let mut updates = Vec::new();
    let mut at = 0usize;
    while body.len() - at >= FRAME_HEADER_LEN {
        let len = u32::from_le_bytes(body[at..at + 4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_PAYLOAD as usize || body.len() - at - FRAME_HEADER_LEN < len {
            break;
        }
        let payload = &body[at + FRAME_HEADER_LEN..at + FRAME_HEADER_LEN + len];
        match ld_live::codec::decode_update(payload) {
            Ok(u) => updates.push(u),
            Err(_) => break,
        }
        at += FRAME_HEADER_LEN + len;
    }
    updates
}

/// The crash oracle, extending [`check_live_replay`] through the
/// durable-log codec: the accepted update stream is framed exactly as
/// `ld-store` writes it, the resulting log is truncated at EVERY byte
/// offset (a crash can land anywhere), and each surviving prefix must be
/// record-aligned and replay — streamed and batched — to states
/// bit-identical to a from-scratch resolve. Finally, single-bit
/// corruption of early/middle/final records must leave the scanner on
/// the exact prefix before the damage: one decoded post-corruption
/// record is a conformance failure.
fn check_wal_crash_oracle(
    actions: &[Action],
    ps: &[f64],
    seed: u64,
    mutation: Option<Mutation>,
) -> CheckOutcome {
    use ld_store::wal::{encode_record, scan_records, FRAME_HEADER_LEN};
    let n = actions.len();
    if n == 0 {
        return CheckOutcome::Skip("empty electorate");
    }
    let dg = DelegationGraph::new(actions.to_vec());
    if !dg.is_single_target() {
        return CheckOutcome::Skip("live engine handles single-target graphs only");
    }
    if dg.resolve().is_err() {
        return CheckOutcome::Skip("resolver rejects this graph");
    }

    // The logged stream: the structural replay plus seeded competence
    // churn, so every record tag the codec defines appears in the WAL.
    let mut updates = replay_updates(actions);
    let mut rng = stream_rng(seed, 0x57A1_C4A5);
    for _ in 0..4.min(n) {
        updates.push(Update::Competence {
            voter: rng.gen_range(0..n),
            p: rng.gen_range(0.0..1.0),
        });
    }
    let mut reference = match LiveEngine::new(vec![Action::Vote; n], ps.to_vec()) {
        Ok(e) => e,
        Err(e) => return CheckOutcome::Fail(format!("live engine construction: {e}")),
    };
    let mut accepted = Vec::new();
    let mut body = Vec::new();
    let mut boundaries = vec![0usize];
    for u in updates {
        if reference.apply(u).is_ok() {
            accepted.push(u);
            encode_record(&u, &mut body);
            boundaries.push(body.len());
        }
    }
    let scan = |bytes: &[u8]| -> Vec<Update> {
        if mutation == Some(Mutation::WalCrc) {
            scan_records_skipping_crc(bytes)
        } else {
            scan_records(bytes).updates
        }
    };

    // Crash at every byte offset: the scan must recover exactly the
    // records whose frames survived whole — never a partial decode.
    for cut in 0..=body.len() {
        let got = scan(&body[..cut]);
        let whole = boundaries.partition_point(|&b| b <= cut) - 1;
        if got != accepted[..whole] {
            return CheckOutcome::Fail(format!(
                "crash at byte {cut}: scanner recovered {} records, expected the \
                 aligned prefix of {whole}",
                got.len()
            ));
        }
    }

    // At sampled record boundaries, the recovered prefix must replay to
    // the same state streamed, batched, and from scratch.
    let m = accepted.len();
    let mut sample = vec![0, m / 2, m];
    sample.dedup();
    for k in sample {
        let prefix = scan(&body[..boundaries[k]]);
        let mut streamed = match LiveEngine::new(vec![Action::Vote; n], ps.to_vec()) {
            Ok(e) => e,
            Err(e) => return CheckOutcome::Fail(format!("live engine construction: {e}")),
        };
        for u in &prefix {
            if let Err(reject) = streamed.apply(*u) {
                return CheckOutcome::Fail(format!(
                    "recovered record {u:?} rejected on replay at boundary {k}: {reject:?}"
                ));
            }
        }
        let mut batched = match LiveEngine::new(vec![Action::Vote; n], ps.to_vec()) {
            Ok(e) => e,
            Err(e) => return CheckOutcome::Fail(format!("live engine construction: {e}")),
        };
        let report = batched.apply_batch(&prefix);
        if !report.rejected.is_empty() {
            return CheckOutcome::Fail(format!(
                "batched replay of recovered prefix rejected {:?}",
                report.rejected
            ));
        }
        if streamed.resolution() != batched.resolution()
            || streamed.competences() != batched.competences()
        {
            return CheckOutcome::Fail(format!(
                "streamed and batched replays of the recovered prefix diverge at boundary {k}"
            ));
        }
        let scratch = match DelegationGraph::new(streamed.actions().to_vec()).resolve() {
            Ok(r) => r,
            Err(e) => {
                return CheckOutcome::Fail(format!(
                    "from-scratch resolve of recovered state errored: {e}"
                ))
            }
        };
        if scratch != streamed.resolution() {
            return CheckOutcome::Fail(format!(
                "recovered state at boundary {k} is not bit-identical to from-scratch resolve"
            ));
        }
    }

    // Corruption teeth: flip one payload bit in the first, middle, and
    // last records; the scanner must surface exactly the prefix before
    // the damaged record and nothing decoded from or past it.
    if m > 0 {
        let mut probes = vec![0, m / 2, m - 1];
        probes.dedup();
        for idx in probes {
            let mut corrupted = body.clone();
            // Offset of the record's voter-id low byte: frame header,
            // then the one-byte tag.
            let off = boundaries[idx] + FRAME_HEADER_LEN + 1;
            corrupted[off] ^= 0x01;
            let got = scan(&corrupted);
            if got != accepted[..idx] {
                return CheckOutcome::Fail(format!(
                    "single-bit corruption in record {idx} was not caught: scanner \
                     returned {} records (valid prefix is {idx}) — a corrupted voter \
                     id would be silently applied on recovery",
                    got.len()
                ));
            }
        }
    }
    CheckOutcome::Pass
}

/// Service conformance, extending [`check_live_replay`] through the
/// `ld-serve` front-end: the accepted update stream (structural replay
/// plus seeded competence churn) is driven through an election with a
/// zero batching window and an epoch barrier after every batch, and the
/// published tally must be bit-identical to the streamed replay, the
/// batched replay, and from-scratch resolution. Under `--mutate
/// serve-drop` one delegating voter's last delegation is withheld from
/// the service; the differential below must flag it.
fn check_serve_replay(
    actions: &[Action],
    ps: &[f64],
    seed: u64,
    mutation: Option<Mutation>,
) -> CheckOutcome {
    use ld_serve::{Election, ElectionConfig};
    let n = actions.len();
    if n == 0 {
        return CheckOutcome::Skip("empty electorate");
    }
    let dg = DelegationGraph::new(actions.to_vec());
    if !dg.is_single_target() {
        return CheckOutcome::Skip("live engine handles single-target graphs only");
    }
    if dg.resolve().is_err() {
        return CheckOutcome::Skip("resolver rejects this graph");
    }
    let mut updates = replay_updates(actions);
    let mut rng = stream_rng(seed, 0x5E12_7E55);
    for _ in 0..4.min(n) {
        updates.push(Update::Competence {
            voter: rng.gen_range(0..n),
            p: rng.gen_range(0.0..1.0),
        });
    }
    // The three single-engine views the service must reproduce.
    let mut streamed = match LiveEngine::new(vec![Action::Vote; n], ps.to_vec()) {
        Ok(e) => e,
        Err(e) => return CheckOutcome::Fail(format!("live engine construction: {e}")),
    };
    for u in &updates {
        if let Err(reject) = streamed.apply(*u) {
            return CheckOutcome::Fail(format!("streamed replay rejected {u:?}: {reject:?}"));
        }
    }
    let mut batched = match LiveEngine::new(vec![Action::Vote; n], ps.to_vec()) {
        Ok(e) => e,
        Err(e) => return CheckOutcome::Fail(format!("live engine construction: {e}")),
    };
    let report = batched.apply_batch(&updates);
    if !report.rejected.is_empty() {
        return CheckOutcome::Fail(format!("batched replay rejected {:?}", report.rejected));
    }
    if batched.resolution() != streamed.resolution() {
        return CheckOutcome::Fail("streamed and batched replays diverge".to_string());
    }
    let scratch = match DelegationGraph::new(streamed.actions().to_vec()).resolve() {
        Ok(r) => r,
        Err(e) => return CheckOutcome::Fail(format!("from-scratch resolve errored: {e}")),
    };
    if scratch != streamed.resolution() {
        return CheckOutcome::Fail(
            "replayed state is not bit-identical to from-scratch resolve".to_string(),
        );
    }
    // The service: zero window so every submit dispatches, an epoch
    // barrier after every batch so the publish path is exercised
    // throughout the stream, not just at the end.
    let mut cfg = ElectionConfig::new(n as u32);
    cfg.window = std::time::Duration::ZERO;
    cfg.publish_every = 1;
    cfg.competences = Some(ps.to_vec());
    let dropped = if mutation == Some(Mutation::ServeDrop) {
        streamed
            .actions()
            .iter()
            .enumerate()
            .find_map(|(v, a)| match a {
                Action::Delegate(t) if *t != v => Some(v),
                _ => None,
            })
            .and_then(|v| {
                updates
                    .iter()
                    .rposition(|u| matches!(*u, Update::Delegate { voter, .. } if voter == v))
            })
    } else {
        None
    };
    let election = match Election::create(&cfg) {
        Ok(e) => e,
        Err(e) => return CheckOutcome::Fail(format!("service construction: {e}")),
    };
    for (k, &u) in updates.iter().enumerate() {
        if Some(k) == dropped {
            continue;
        }
        if let Err(e) = election.submit(u) {
            return CheckOutcome::Fail(format!("service refused {u:?}: {e}"));
        }
    }
    let snap = match election.flush() {
        Ok(s) => s,
        Err(e) => return CheckOutcome::Fail(format!("service flush errored: {e}")),
    };
    if snap.applied != updates.len() as u64 || snap.rejected != 0 {
        return CheckOutcome::Fail(format!(
            "service sequenced {} applied / {} rejected, the engine accepted all {}",
            snap.applied,
            snap.rejected,
            updates.len()
        ));
    }
    let want: Vec<u64> = streamed.weights().iter().map(|&w| w as u64).collect();
    if snap.tally.weights != want {
        return CheckOutcome::Fail(format!(
            "published weights {:?} differ from the single-engine weights {:?}",
            snap.tally.weights, want
        ));
    }
    if (
        snap.tally.discarded,
        snap.tally.tallied,
        snap.tally.sink_count,
    ) != (
        streamed.discarded() as u64,
        streamed.tallied() as u64,
        streamed.sink_count() as u64,
    ) {
        return CheckOutcome::Fail(format!(
            "published aggregates (discarded {}, tallied {}, sinks {}) differ from the \
             engine ({}, {}, {})",
            snap.tally.discarded,
            snap.tally.tallied,
            snap.tally.sink_count,
            streamed.discarded(),
            streamed.tallied(),
            streamed.sink_count()
        ));
    }
    let p = streamed.decision_probability_normal(TieBreak::CoinFlip);
    if (snap.tally.p_correct - p).abs() > EXACT_EPS {
        return CheckOutcome::Fail(format!(
            "published P[correct] {} differs from the engine's {p}",
            snap.tally.p_correct
        ));
    }
    if let Err(e) = election.shutdown() {
        return CheckOutcome::Fail(format!("graceful shutdown failed: {e}"));
    }
    CheckOutcome::Pass
}

/// Electorate bound for the brute-force dynamics oracle.
const DYN_ORACLE_MAX_N: usize = 12;
/// Round cap shared by both sides of the dynamics differential.
const DYN_ORACLE_MAX_ROUNDS: usize = 24;

/// Naively recomputed round state for the dynamics oracle: sinks from
/// the recursive resolver, carried weights from per-voter chain walks
/// (`O(n²)`), and the tally sums accumulated in ascending sink order —
/// the same summation order the fast snapshot uses, so deviation scores
/// are bit-identical and exact ties stay exact.
struct DynOracleSnapshot {
    actions: Vec<Action>,
    sink_of: Vec<Option<usize>>,
    weight: Vec<usize>,
    tallied: usize,
    mu: f64,
    var: f64,
}

fn dyn_oracle_snapshot(actions: &[Action], ps: &[f64]) -> Option<DynOracleSnapshot> {
    let orc = match oracle::resolve_recursive(actions) {
        OracleOutcome::Resolved(orc) => orc,
        _ => return None,
    };
    let n = actions.len();
    let mut weight = vec![0usize; n];
    for v in 0..n {
        let mut cur = v;
        for _ in 0..=n {
            weight[cur] += 1;
            match actions[cur] {
                Action::Delegate(t) if t != cur => cur = t,
                _ => break,
            }
        }
    }
    let mut mu = 0.0f64;
    let mut var = 0.0f64;
    for s in 0..n {
        if orc.sink_of[s] == Some(s) {
            let w = weight[s] as f64;
            let p = ps[s];
            mu += w * p;
            var += w * w * p * (1.0 - p);
        }
    }
    Some(DynOracleSnapshot {
        actions: actions.to_vec(),
        sink_of: orc.sink_of,
        weight,
        tallied: n - orc.discarded,
        mu,
        var,
    })
}

/// Where a one-step deviation sends the voter's carried ballots
/// (mirrors `ld_live::dynamics::Deviation` without depending on it).
#[derive(Clone, Copy)]
enum DynDest {
    SelfVote,
    ToSink(Option<usize>),
}

/// The deviated `(μ′, σ²′, T′)`, copied operation for operation from the
/// normative `ld_live::dynamics::deviation_sums` — the order must not be
/// reassociated or exact candidate ties would break.
fn dyn_oracle_deviation(
    snap: &DynOracleSnapshot,
    ps: &[f64],
    i: usize,
    dest: DynDest,
) -> (f64, f64, usize) {
    let w = snap.weight[i];
    let wf = w as f64;
    let mut mu = snap.mu;
    let mut var = snap.var;
    let mut tallied = snap.tallied;
    if let Some(s) = snap.sink_of[i] {
        let cap = snap.weight[s] as f64;
        let p = ps[s];
        mu -= wf * p;
        var -= (cap * cap - (cap - wf) * (cap - wf)) * p * (1.0 - p);
        tallied -= w;
    }
    match dest {
        DynDest::SelfVote => {
            mu += wf * ps[i];
            var += wf * wf * ps[i] * (1.0 - ps[i]);
            tallied += w;
        }
        DynDest::ToSink(Some(s)) => {
            let base = if snap.sink_of[i] == Some(s) {
                (snap.weight[s] - w) as f64
            } else {
                snap.weight[s] as f64
            };
            let p = ps[s];
            mu += wf * p;
            var += ((base + wf) * (base + wf) - base * base) * p * (1.0 - p);
            tallied += w;
        }
        DynDest::ToSink(None) => {}
    }
    (mu, var, tallied)
}

/// `P[correct]` of a deviated tally, copied from the normative
/// `ld_live::dynamics::normal_majority`.
fn dyn_oracle_majority(mu: f64, var: f64, tallied: usize) -> f64 {
    let half = tallied as f64 / 2.0;
    if tallied == 0 {
        return 0.0;
    }
    if var <= 0.0 {
        return if mu > half { 1.0 } else { 0.0 };
    }
    1.0 - std_normal_cdf((half - mu) / var.sqrt())
}

/// Whether `i` sits on the chain from `j` (naive walk).
fn dyn_oracle_chain_hits(snap: &DynOracleSnapshot, j: usize, i: usize) -> bool {
    let mut v = j;
    for _ in 0..=snap.actions.len() {
        if v == i {
            return true;
        }
        match snap.actions[v] {
            Action::Delegate(t) if t != v => v = t,
            _ => return false,
        }
    }
    false
}

/// The canonical best response for voter `i`, every candidate enumerated
/// explicitly over the complete carrier view: keep first, then vote
/// directly, then approved targets in ascending order with a strict
/// improvement required to displace.
fn dyn_oracle_best_move(snap: &DynOracleSnapshot, ps: &[f64], i: usize) -> Option<Action> {
    let n = snap.actions.len();
    let current = &snap.actions[i];
    if matches!(current, Action::Abstain | Action::DelegateMany(_)) {
        return None;
    }
    let keep_dest = match *current {
        Action::Vote => DynDest::SelfVote,
        Action::Delegate(t) if t == i => DynDest::SelfVote,
        Action::Delegate(t) => DynDest::ToSink(snap.sink_of[t]),
        _ => return None,
    };
    let score = |dest: DynDest| -> f64 {
        let (mu, var, tallied) = dyn_oracle_deviation(snap, ps, i, dest);
        dyn_oracle_majority(mu, var, tallied)
    };
    let mut best = score(keep_dest);
    let mut chosen: Option<Action> = None;
    if !matches!(*current, Action::Vote) {
        let s = score(DynDest::SelfVote);
        if s > best {
            best = s;
            chosen = Some(Action::Vote);
        }
    }
    for j in 0..n {
        if j == i || ps[i] + ALPHA > ps[j] || *current == Action::Delegate(j) {
            continue;
        }
        if dyn_oracle_chain_hits(snap, j, i) {
            continue;
        }
        let s = score(DynDest::ToSink(snap.sink_of[j]));
        if s > best {
            best = s;
            chosen = Some(Action::Delegate(j));
        }
    }
    chosen
}

/// Sequential acceptance in canonical voter order: an edge change can
/// only close a cycle through its own voter, so a naive walk from the
/// new state decides each move; rejected moves are reverted in place.
fn dyn_oracle_apply_round(
    state: &mut [Action],
    proposals: &[(usize, Action)],
) -> Vec<(usize, Action, bool)> {
    let creates_cycle = |state: &[Action], voter: usize| -> bool {
        let mut cur = voter;
        for _ in 0..=state.len() {
            match state[cur] {
                Action::Delegate(t) if t != cur => {
                    cur = t;
                    if cur == voter {
                        return true;
                    }
                }
                _ => return false,
            }
        }
        true
    };
    let mut out = Vec::with_capacity(proposals.len());
    for (voter, action) in proposals {
        let prev = state[*voter].clone();
        state[*voter] = action.clone();
        let accepted = !creates_cycle(state, *voter);
        if !accepted {
            state[*voter] = prev;
        }
        out.push((*voter, action.clone(), accepted));
    }
    out
}

fn check_dynamics_oracle(
    actions: &[Action],
    ps: &[f64],
    mutation: Option<Mutation>,
) -> CheckOutcome {
    let n = actions.len();
    if n == 0 {
        return CheckOutcome::Skip("empty electorate");
    }
    if n > DYN_ORACLE_MAX_N {
        return CheckOutcome::Skip("dynamics oracle bounded to n <= 12");
    }
    let dg = DelegationGraph::new(actions.to_vec());
    if !dg.is_single_target() {
        return CheckOutcome::Skip("dynamics requires single-target graphs");
    }
    if dg.resolve().is_err() {
        return CheckOutcome::Skip("resolver rejects this graph");
    }

    // The fast loop under test, tie-break selected by the context.
    let view = DynamicsView::complete(ps, ALPHA);
    let rules = vec![MoveRule::BestResponse; n];
    let spec = DynamicsSpec {
        max_rounds: DYN_ORACLE_MAX_ROUNDS,
        tiebreak: if mutation == Some(Mutation::BrTiebreak) {
            TieBreakRule::SkewedForTests
        } else {
            TieBreakRule::Canonical
        },
    };
    let traj = match run_dynamics(&view, actions, &rules, &spec) {
        Ok(t) => t,
        Err(e) => return CheckOutcome::Fail(format!("fast dynamics errored: {e}")),
    };

    // The reference loop: brute-force canonical best responses, naive
    // sequential acceptance, full-state cycle detection.
    let mut state = actions.to_vec();
    let mut seen: Vec<Vec<Action>> = vec![state.clone()];
    let mut oracle_moves: Vec<Vec<(usize, Action, bool)>> = Vec::new();
    let mut oracle_hashes: Vec<u64> = Vec::new();
    let mut termination = Termination::Capped;
    for round in 1..=DYN_ORACLE_MAX_ROUNDS {
        let snap = match dyn_oracle_snapshot(&state, ps) {
            Some(s) => s,
            None => {
                return CheckOutcome::Fail(format!(
                    "oracle state became unresolvable in round {round}"
                ))
            }
        };
        let proposals: Vec<(usize, Action)> = (0..n)
            .filter_map(|i| dyn_oracle_best_move(&snap, ps, i).map(|a| (i, a)))
            .collect();
        if proposals.is_empty() {
            termination = Termination::Fixpoint { round };
            break;
        }
        let moves = dyn_oracle_apply_round(&mut state, &proposals);
        if moves.iter().filter(|m| m.2).count() == 0 {
            termination = Termination::Fixpoint { round };
            break;
        }
        oracle_moves.push(moves);
        oracle_hashes.push(state_hash(&state));
        if let Some(first_seen) = seen.iter().position(|s| s.as_slice() == state.as_slice()) {
            termination = Termination::Cycle {
                first_seen,
                period: round - first_seen,
            };
            break;
        }
        seen.push(state.clone());
    }

    if traj.moves.len() != oracle_moves.len() {
        return CheckOutcome::Fail(format!(
            "round counts differ: fast executed {} rounds ({:?}), oracle {} ({termination:?})",
            traj.moves.len(),
            traj.termination,
            oracle_moves.len()
        ));
    }
    for (r, (fast, slow)) in traj.moves.iter().zip(&oracle_moves).enumerate() {
        if fast != slow {
            return CheckOutcome::Fail(format!(
                "round {}: fast moves {fast:?} vs oracle {slow:?}",
                r + 1
            ));
        }
        if traj.rounds[r].state_hash != oracle_hashes[r] {
            return CheckOutcome::Fail(format!(
                "round {}: fast state hash {:#018x} vs oracle {:#018x}",
                r + 1,
                traj.rounds[r].state_hash,
                oracle_hashes[r]
            ));
        }
    }
    if traj.termination != termination {
        return CheckOutcome::Fail(format!(
            "termination differs: fast {:?} vs oracle {termination:?}",
            traj.termination
        ));
    }
    if traj.engine.actions() != state.as_slice() {
        return CheckOutcome::Fail(format!(
            "final states differ: fast {:?} vs oracle {state:?}",
            traj.engine.actions()
        ));
    }
    CheckOutcome::Pass
}

fn check_dynamics_replay(actions: &[Action], ps: &[f64], seed: u64) -> CheckOutcome {
    use ld_store::{recover, FaultPlan, Store, StoreOptions};
    let n = actions.len();
    if n == 0 {
        return CheckOutcome::Skip("empty electorate");
    }
    let dg = DelegationGraph::new(actions.to_vec());
    if !dg.is_single_target() {
        return CheckOutcome::Skip("dynamics requires single-target graphs");
    }
    if dg.resolve().is_err() {
        return CheckOutcome::Skip("resolver rejects this graph");
    }
    let view = DynamicsView::complete(ps, ALPHA);
    let rules = vec![MoveRule::BestResponse; n];
    let spec = DynamicsSpec {
        max_rounds: 16,
        tiebreak: TieBreakRule::Canonical,
    };
    let traj = match run_dynamics(&view, actions, &rules, &spec) {
        Ok(t) => t,
        Err(e) => return CheckOutcome::Fail(format!("dynamics errored: {e}")),
    };

    // Streamed and batched replicas of the recorded trajectory; at every
    // round boundary both must match each other, the from-scratch
    // resolve, and the state hash the loop recorded.
    let mut streamed = match LiveEngine::new(actions.to_vec(), ps.to_vec()) {
        Ok(e) => e,
        Err(e) => return CheckOutcome::Fail(format!("live engine construction: {e}")),
    };
    let mut batched = match LiveEngine::new(actions.to_vec(), ps.to_vec()) {
        Ok(e) => e,
        Err(e) => return CheckOutcome::Fail(format!("live engine construction: {e}")),
    };
    let mut all_updates: Vec<Update> = Vec::new();
    for (r, moves) in traj.moves.iter().enumerate() {
        let updates: Vec<Update> = moves
            .iter()
            .filter(|m| m.2)
            .map(|(voter, action, _)| match action {
                Action::Vote => Update::Vote { voter: *voter },
                Action::Delegate(target) => Update::Delegate {
                    voter: *voter,
                    target: *target,
                },
                other => unreachable!("dynamics only proposes Vote/Delegate, got {other:?}"),
            })
            .collect();
        for u in &updates {
            if let Err(reject) = streamed.apply(*u) {
                return CheckOutcome::Fail(format!(
                    "round {}: accepted move {u:?} rejected on streamed replay: {reject:?}",
                    r + 1
                ));
            }
        }
        let report = batched.apply_batch(&updates);
        if !report.rejected.is_empty() {
            return CheckOutcome::Fail(format!(
                "round {}: batched replay rejected {:?}",
                r + 1,
                report.rejected
            ));
        }
        if streamed.actions() != batched.actions() {
            return CheckOutcome::Fail(format!(
                "round {}: streamed and batched replays diverge",
                r + 1
            ));
        }
        if state_hash(streamed.actions()) != traj.rounds[r].state_hash {
            return CheckOutcome::Fail(format!(
                "round {}: replayed state hash differs from the recorded {:#018x}",
                r + 1,
                traj.rounds[r].state_hash
            ));
        }
        let scratch = match DelegationGraph::new(streamed.actions().to_vec()).resolve() {
            Ok(res) => res,
            Err(e) => {
                return CheckOutcome::Fail(format!(
                    "round {}: from-scratch resolve errored: {e}",
                    r + 1
                ))
            }
        };
        if scratch != streamed.resolution() || scratch != batched.resolution() {
            return CheckOutcome::Fail(format!(
                "round {}: replayed resolution is not bit-identical to from-scratch",
                r + 1
            ));
        }
        all_updates.extend(updates);
    }
    if streamed.actions() != traj.engine.actions() {
        return CheckOutcome::Fail("replayed final state differs from the trajectory".to_string());
    }
    if all_updates.is_empty() {
        return CheckOutcome::Pass;
    }

    // Crash leg: tee the accepted stream through an ld-store WAL with a
    // seeded short write armed, recover the torn log, re-apply the lost
    // suffix, and require bit-identical convergence with the replica
    // that never crashed.
    // Unique per call: concurrent runs in one process (parallel tests)
    // may check the same cell.
    static RUNS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ld-testkit-dynrep-{}-{}-{:016x}",
        std::process::id(),
        RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        state_hash(actions) ^ seed
    ));
    std::fs::remove_dir_all(&dir).ok();
    let genesis = match LiveEngine::new(actions.to_vec(), ps.to_vec()) {
        Ok(e) => e,
        Err(e) => return CheckOutcome::Fail(format!("live engine construction: {e}")),
    };
    let opts = StoreOptions {
        sync_every: 4,
        snapshot_every: 64,
        // Op indices past the run's end simply never fire, so every
        // cell still exercises recovery of an untorn log.
        fault: FaultPlan::short_write_at(1 + seed % 64),
    };
    let outcome = (|| {
        let mut store = match Store::create(&dir, &genesis, opts) {
            Ok(s) => s,
            Err(e) if e.is_injected() => {
                // Crashed before anything durable existed: nothing to
                // recover, and nothing to check.
                return CheckOutcome::Pass;
            }
            Err(e) => return CheckOutcome::Fail(format!("store create errored: {e}")),
        };
        let mut crashed = false;
        for u in &all_updates {
            match store.append(u) {
                Ok(()) => {}
                Err(e) if e.is_injected() => {
                    crashed = true;
                    break;
                }
                Err(e) => return CheckOutcome::Fail(format!("store append errored: {e}")),
            }
        }
        if !crashed {
            match store.sync() {
                Ok(()) => {}
                Err(e) if e.is_injected() => {}
                Err(e) => return CheckOutcome::Fail(format!("store sync errored: {e}")),
            }
        }
        drop(store);
        let recovery = match recover(&dir) {
            Ok(r) => r,
            Err(e) => return CheckOutcome::Fail(format!("recovery errored: {e}")),
        };
        let survived = recovery.records as usize;
        if survived > all_updates.len() {
            return CheckOutcome::Fail(format!(
                "recovery produced {survived} records from {} appends",
                all_updates.len()
            ));
        }
        let mut resumed = recovery.engine;
        for (k, u) in all_updates[survived..].iter().enumerate() {
            if let Err(reject) = resumed.apply(*u) {
                return CheckOutcome::Fail(format!(
                    "recovered continuation rejected record {}: {reject:?}",
                    survived + k
                ));
            }
        }
        if resumed.actions() != streamed.actions() || resumed.resolution() != streamed.resolution()
        {
            return CheckOutcome::Fail(
                "crash + recover + re-apply did not converge to the uncrashed state".to_string(),
            );
        }
        CheckOutcome::Pass
    })();
    std::fs::remove_dir_all(&dir).ok();
    outcome
}

/// Salt separating the ranked-replay churn stream from the ballot
/// derivation stream.
const RANKED_REPLAY_SALT: u64 = 0x7A4E_4B3D_5EED_0001;

/// Derives the case's ranked preference profile and the production copy
/// the rules actually consult (reversed under `--mutate rank-order`).
fn ranked_profiles(
    actions: &[Action],
    seed: u64,
    mutation: Option<Mutation>,
) -> Result<(RankedProfile, RankedProfile), CheckOutcome> {
    let ballots = ranked_ballots(actions, seed);
    let truth = match RankedProfile::new(ballots) {
        Ok(p) => p,
        Err(_) => return Err(CheckOutcome::Skip("derived ballots are invalid")),
    };
    let mut production = truth.clone();
    if mutation == Some(Mutation::RankOrder) {
        production.reverse_ranks_for_tests();
    }
    Ok((truth, production))
}

fn check_ranked_resolve_oracle(
    actions: &[Action],
    seed: u64,
    mutation: Option<Mutation>,
) -> CheckOutcome {
    let (truth, production) = match ranked_profiles(actions, seed, mutation) {
        Ok(pair) => pair,
        Err(skip) => return skip,
    };
    let n = truth.n();
    // Independent attainability fixpoint over the submitted lists: the
    // production reverse-BFS must abstain exactly the voters this naive
    // iteration never reaches.
    let mut attainable: Vec<bool> = (0..n)
        .map(|v| !matches!(truth.ballot(v), RankedBallot::Ranked(_)))
        .collect();
    loop {
        let mut changed = false;
        for v in 0..n {
            if attainable[v] {
                continue;
            }
            if let RankedBallot::Ranked(list) = truth.ballot(v) {
                if list.iter().any(|&t| t == v || attainable[t]) {
                    attainable[v] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let unattainable: Vec<usize> = (0..n).filter(|&v| !attainable[v]).collect();

    if truth.is_single_edge() {
        // Single-entry profiles must reproduce the legacy resolver
        // bit for bit, including the error contract.
        let equiv: Vec<Action> = (0..n)
            .map(|v| match truth.ballot(v) {
                RankedBallot::Cast => Action::Vote,
                RankedBallot::Abstain => Action::Abstain,
                RankedBallot::Ranked(list) => Action::Delegate(list[0]),
            })
            .collect();
        let legacy = oracle::resolve_recursive(&equiv);
        for rule in DelegationRule::all() {
            let ranked = resolve_ranked(&production, rule).map(|(_, res)| res);
            if let Some(diff) = legacy.mismatch(&ranked) {
                return CheckOutcome::Fail(format!("single-edge {}: {diff}", rule.id()));
            }
        }
        return CheckOutcome::Pass;
    }

    let brute = oracle::ranked_brute_force(&truth);
    for rule in DelegationRule::all() {
        let (sel, res) = match resolve_ranked(&production, rule) {
            Ok(pair) => pair,
            Err(e) => {
                return CheckOutcome::Fail(format!(
                    "{} errored on a multi-entry profile: {e}",
                    rule.id()
                ))
            }
        };
        // The selected forest's resolution vs the recursive oracle.
        if let Some(diff) = oracle::resolve_recursive(sel.actions()).mismatch(&Ok(res)) {
            return CheckOutcome::Fail(format!("{}: {diff}", rule.id()));
        }
        if sel.exhausted() != unattainable.as_slice() {
            return CheckOutcome::Fail(format!(
                "{}: exhausted {:?} differs from the unattainable fixpoint {:?}",
                rule.id(),
                sel.exhausted(),
                unattainable
            ));
        }
        // Chosen ranks must cite the *submitted* preference order — the
        // property `--mutate rank-order` breaks at every grid size.
        let mut true_rank_sum = 0u64;
        for v in 0..n {
            match &sel.actions()[v] {
                Action::Delegate(t) => {
                    let RankedBallot::Ranked(list) = truth.ballot(v) else {
                        return CheckOutcome::Fail(format!(
                            "{}: voter {v} delegated without a ranked ballot",
                            rule.id()
                        ));
                    };
                    let Some(idx) = list.iter().position(|x| x == t) else {
                        return CheckOutcome::Fail(format!(
                            "{}: voter {v} selected {t}, which its submitted list never ranks",
                            rule.id()
                        ));
                    };
                    let want = idx as u8 + 1;
                    if sel.chosen_rank()[v] != Some(want) {
                        return CheckOutcome::Fail(format!(
                            "{}: voter {v} reports rank {:?} but target {t} sits at submitted \
                             rank {want}",
                            rule.id(),
                            sel.chosen_rank()[v]
                        ));
                    }
                    true_rank_sum += u64::from(want);
                }
                Action::Vote | Action::Abstain => {
                    if sel.chosen_rank()[v].is_some()
                        && !matches!(truth.ballot(v), RankedBallot::Ranked(_))
                    {
                        return CheckOutcome::Fail(format!(
                            "{}: non-ranked voter {v} carries a chosen rank",
                            rule.id()
                        ));
                    }
                }
                other => {
                    return CheckOutcome::Fail(format!(
                        "{}: voter {v} selected a non-single-edge action {other:?}",
                        rule.id()
                    ))
                }
            }
        }
        if sel.rank_sum() != true_rank_sum {
            return CheckOutcome::Fail(format!(
                "{}: reported rank sum {} differs from the submitted-order sum {}",
                rule.id(),
                sel.rank_sum(),
                true_rank_sum
            ));
        }
        // Maximality: every attainable ranked voter must be assigned.
        for (v, &reachable) in attainable.iter().enumerate() {
            if reachable
                && matches!(truth.ballot(v), RankedBallot::Ranked(_))
                && sel.chosen_rank()[v].is_none()
            {
                return CheckOutcome::Fail(format!(
                    "{}: attainable voter {v} was left unassigned",
                    rule.id()
                ));
            }
        }
        // Brute-force scoring on small electorates.
        if let Some(report) = &brute {
            match rule {
                DelegationRule::MinDepth => {
                    let depths = chase_depths(sel.actions(), &attainable, &truth);
                    if depths != report.min_depth {
                        return CheckOutcome::Fail(format!(
                            "min-depth: selected depths {depths:?} differ from the brute-force \
                             minima {:?}",
                            report.min_depth
                        ));
                    }
                    // First-listed tie-break among depth-optimal edges.
                    for v in 0..n {
                        let RankedBallot::Ranked(list) = truth.ballot(v) else {
                            continue;
                        };
                        let Some(d) = report.min_depth[v] else {
                            continue;
                        };
                        let expect = if d == 0 {
                            v
                        } else {
                            match list
                                .iter()
                                .find(|&&t| t != v && report.min_depth[t] == Some(d - 1))
                            {
                                Some(&t) => t,
                                None => {
                                    return CheckOutcome::Fail(format!(
                                        "min-depth: no submitted edge of voter {v} achieves \
                                         depth {}",
                                        d - 1
                                    ))
                                }
                            }
                        };
                        if sel.actions()[v] != Action::Delegate(expect) {
                            return CheckOutcome::Fail(format!(
                                "min-depth: voter {v} should take its first depth-optimal edge \
                                 to {expect}, selected {:?}",
                                sel.actions()[v]
                            ));
                        }
                    }
                }
                DelegationRule::MinSum => {
                    if true_rank_sum != report.min_rank_sum {
                        return CheckOutcome::Fail(format!(
                            "min-sum: selected rank total {true_rank_sum} vs brute-force \
                             optimum {}",
                            report.min_rank_sum
                        ));
                    }
                }
            }
        }
    }
    CheckOutcome::Pass
}

/// Per-voter chain depths of a selected forest, chased naively; `None`
/// for exhausted (unattainable) ranked voters.
fn chase_depths(
    actions: &[Action],
    attainable: &[bool],
    truth: &RankedProfile,
) -> Vec<Option<usize>> {
    let n = actions.len();
    (0..n)
        .map(|v| {
            if !attainable[v] && matches!(truth.ballot(v), RankedBallot::Ranked(_)) {
                return None;
            }
            let mut cur = v;
            let mut hops = 0usize;
            loop {
                match actions[cur] {
                    Action::Delegate(t) if t != cur => {
                        hops += 1;
                        if hops > n {
                            return None;
                        }
                        cur = t;
                    }
                    _ => return Some(hops),
                }
            }
        })
        .collect()
}

fn check_ranked_live_replay(
    actions: &[Action],
    ps: &[f64],
    seed: u64,
    mutation: Option<Mutation>,
) -> CheckOutcome {
    if actions.is_empty() {
        return CheckOutcome::Skip("empty electorate");
    }
    let (_, production) = match ranked_profiles(actions, seed, mutation) {
        Ok(pair) => pair,
        Err(skip) => return skip,
    };
    let n = production.n();
    for rule in DelegationRule::all() {
        let mut mirror = match RankedMirror::new(production.clone(), rule, ps.to_vec()) {
            Ok(m) => m,
            // A cyclic single-edge profile cannot boot by contract; the
            // resolve-oracle check pins that contract against legacy.
            Err(CoreError::CyclicDelegation) => continue,
            Err(e) => {
                return CheckOutcome::Fail(format!("{}: mirror boot errored: {e}", rule.id()))
            }
        };
        if let Err(msg) = ranked_lockstep(&mirror) {
            return CheckOutcome::Fail(format!("{}: at boot, {msg}", rule.id()));
        }
        let mut rng = stream_rng(split_seed(seed, RANKED_REPLAY_SALT), 0);
        for probe in 0..8 {
            let voter = rng.gen_range(0..n);
            let ballot = match rng.gen_range(0..4u8) {
                0 => RankedBallot::Cast,
                1 => RankedBallot::Abstain,
                _ => {
                    let len = rng.gen_range(1..=MAX_RANKS);
                    let mut list = Vec::new();
                    for _ in 0..len {
                        let t = rng.gen_range(0..n);
                        if !list.contains(&t) {
                            list.push(t);
                        }
                    }
                    RankedBallot::Ranked(list)
                }
            };
            let before = mirror.selection().actions().to_vec();
            match mirror.set_ballot(voter, ballot) {
                Ok(changed) => {
                    let recount = before
                        .iter()
                        .zip(mirror.selection().actions())
                        .filter(|(a, b)| a != b)
                        .count();
                    if changed != recount {
                        return CheckOutcome::Fail(format!(
                            "{}: probe {probe} reported {changed} changed voters, diff says \
                             {recount}",
                            rule.id()
                        ));
                    }
                    if let Err(msg) = ranked_lockstep(&mirror) {
                        return CheckOutcome::Fail(format!(
                            "{}: after probe {probe}, {msg}",
                            rule.id()
                        ));
                    }
                }
                Err(CoreError::CyclicDelegation) => {
                    // Single-edge cycle: the edit must roll back cleanly.
                    if mirror.selection().actions() != before.as_slice() {
                        return CheckOutcome::Fail(format!(
                            "{}: probe {probe} was rejected but mutated the selection",
                            rule.id()
                        ));
                    }
                }
                Err(e) => {
                    return CheckOutcome::Fail(format!(
                        "{}: probe {probe} rejected unexpectedly: {e}",
                        rule.id()
                    ))
                }
            }
        }
    }
    CheckOutcome::Pass
}

/// Asserts a mirror's engine matches from-scratch selection and
/// resolution of its current profile.
fn ranked_lockstep(m: &RankedMirror) -> Result<(), String> {
    let (sel, res) = resolve_ranked(m.profile(), m.rule())
        .map_err(|e| format!("from-scratch resolution errored: {e}"))?;
    if sel.actions() != m.selection().actions() {
        return Err("mirror selection differs from from-scratch selection".to_string());
    }
    if res != m.engine().resolution() {
        return Err("engine resolution differs from from-scratch resolution".to_string());
    }
    m.engine()
        .self_check()
        .map_err(|e| format!("engine self-check failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_ids_round_trip() {
        for check in CheckId::all() {
            assert_eq!(CheckId::parse(check.id()), Some(check));
        }
        assert_eq!(CheckId::parse("nonsense"), None);
    }

    #[test]
    fn structural_checks_pass_on_a_simple_chain() {
        let actions = vec![Action::Delegate(1), Action::Delegate(2), Action::Vote];
        let ps = vec![0.3, 0.5, 0.7];
        for check in CheckId::all().into_iter().filter(|c| c.shrinkable()) {
            let outcome = recheck_structural(check, &actions, &ps, 5, None);
            assert!(
                !matches!(outcome, CheckOutcome::Fail(_)),
                "{} failed: {outcome:?}",
                check.id()
            );
        }
    }

    #[test]
    fn tie_flip_mutant_is_detected_on_an_even_split() {
        // Two direct voters at p = 0.5: tie probability 0.5, so flipping
        // the Incorrect credit from 0 to 1 shifts the tally by 0.5.
        let actions = vec![Action::Vote, Action::Vote];
        let ps = vec![0.5, 0.5];
        let mutated = Some(Mutation::TieFlip);
        let outcome = check_tally_oracle(&actions, &ps, mutated);
        assert!(
            matches!(outcome, CheckOutcome::Fail(_)),
            "mutant not detected: {outcome:?}"
        );
        assert_eq!(check_tally_oracle(&actions, &ps, None), CheckOutcome::Pass);
    }

    #[test]
    fn tie_flip_mutant_is_detected_by_the_direct_leg_above_brute_force_size() {
        // 24 voters all delegating to voter 23: the one sink has no tie
        // mass, so only the direct-voting leg (checked against the naive
        // DP at this size) sees the flipped credit.
        let mut actions = vec![Action::Delegate(23); 23];
        actions.push(Action::Vote);
        let ps = vec![0.5; 24];
        let mutated = Some(Mutation::TieFlip);
        let outcome = check_tally_oracle(&actions, &ps, mutated);
        assert!(
            matches!(&outcome, CheckOutcome::Fail(msg) if msg.contains("the naive DP")),
            "mutant not detected by the direct leg: {outcome:?}"
        );
        assert_eq!(check_tally_oracle(&actions, &ps, None), CheckOutcome::Pass);
    }

    #[test]
    fn csr_offset_mutant_is_detected_on_a_delegation_chain() {
        // Skewing the weight array shifts a vote from each sink to the
        // next voter, so both CSR checks must flag it while the real
        // build passes. A chain plus a lone voter gives two sinks with
        // unequal weights, which the skew visibly redistributes.
        let actions = vec![Action::Delegate(1), Action::Vote, Action::Vote];
        let ps = vec![0.4, 0.6, 0.7];
        let mutated = Some(Mutation::CsrOffset);
        let resolve = check_resolve_oracle(&actions, mutated);
        assert!(
            matches!(resolve, CheckOutcome::Fail(_)),
            "resolve mutant not detected: {resolve:?}"
        );
        let tally = check_csr_tally_oracle(&actions, &ps, 5, mutated);
        assert!(
            matches!(tally, CheckOutcome::Fail(_)),
            "tally mutant not detected: {tally:?}"
        );
        assert_eq!(check_resolve_oracle(&actions, None), CheckOutcome::Pass);
        assert_eq!(
            check_csr_tally_oracle(&actions, &ps, 5, None),
            CheckOutcome::Pass
        );
    }

    #[test]
    fn wal_crc_mutant_is_detected_on_a_delegation_chain() {
        // Skipping the frame CRC lets a bit-flipped voter id decode
        // "successfully", so the crash oracle's corruption probes must
        // flag the CRC-skipping scanner while the real one passes.
        let actions = vec![Action::Delegate(1), Action::Delegate(2), Action::Vote];
        let ps = vec![0.3, 0.5, 0.7];
        let mutated = Some(Mutation::WalCrc);
        let outcome = check_wal_crash_oracle(&actions, &ps, 5, mutated);
        assert!(
            matches!(outcome, CheckOutcome::Fail(_)),
            "wal-crc mutant not detected: {outcome:?}"
        );
        assert_eq!(
            check_wal_crash_oracle(&actions, &ps, 5, None),
            CheckOutcome::Pass
        );
    }

    #[test]
    fn serve_drop_mutant_is_detected_on_a_delegation_chain() {
        // Withholding the delegator's last delegation leaves it voting
        // for itself, so the published tally must visibly diverge from
        // the single-engine oracle while the full stream passes.
        let actions = vec![Action::Delegate(1), Action::Delegate(2), Action::Vote];
        let ps = vec![0.3, 0.5, 0.7];
        let mutated = Some(Mutation::ServeDrop);
        let outcome = check_serve_replay(&actions, &ps, 5, mutated);
        assert!(
            matches!(outcome, CheckOutcome::Fail(_)),
            "serve-drop mutant not detected: {outcome:?}"
        );
        assert_eq!(
            check_serve_replay(&actions, &ps, 5, None),
            CheckOutcome::Pass
        );
    }

    #[test]
    fn packed_threshold_mutant_is_detected_on_a_delegation_chain() {
        // Skipping the most significant quantizer plane flips roughly
        // half the coins of every plane-thresholded lane, so the
        // packed-vs-scalar differential must flag the skewed kernel on
        // the first diverging round while the real one passes.
        let actions = vec![Action::Delegate(1), Action::Vote, Action::Vote];
        let ps = vec![0.4, 0.6, 0.7];
        let mutated = Some(Mutation::PackedThreshold);
        let outcome = check_packed_tally_oracle(&actions, &ps, 5, mutated);
        assert!(
            matches!(outcome, CheckOutcome::Fail(_)),
            "packed-threshold mutant not detected: {outcome:?}"
        );
        assert_eq!(
            check_packed_tally_oracle(&actions, &ps, 5, None),
            CheckOutcome::Pass
        );
    }

    #[test]
    fn packed_check_also_sees_the_csr_offset_mutant() {
        // The fold legs go through the (possibly skewed) CSR forest, so
        // the packed differential independently catches a wrong flat
        // layout too.
        let actions = vec![Action::Delegate(1), Action::Vote, Action::Vote];
        let ps = vec![0.4, 0.6, 0.7];
        let mutated = Some(Mutation::CsrOffset);
        let outcome = check_packed_tally_oracle(&actions, &ps, 5, mutated);
        assert!(
            matches!(outcome, CheckOutcome::Fail(_)),
            "csr-offset not visible through the packed fold: {outcome:?}"
        );
    }

    #[test]
    fn br_tiebreak_mutant_is_detected_on_a_shared_sink_tie() {
        // Voter 0 can reach the top sink 3 via 1, via 2, or directly:
        // three candidates with bit-identical deviation scores. The
        // canonical rule picks Delegate(1); the skew picks Delegate(3),
        // so the oracle differential must flag the very first round
        // while the real tie-break passes.
        let actions = vec![
            Action::Vote,
            Action::Delegate(3),
            Action::Delegate(3),
            Action::Vote,
        ];
        let ps = vec![0.3, 0.5, 0.55, 0.9];
        let mutated = Some(Mutation::BrTiebreak);
        let outcome = check_dynamics_oracle(&actions, &ps, mutated);
        assert!(
            matches!(outcome, CheckOutcome::Fail(_)),
            "br-tiebreak mutant not detected: {outcome:?}"
        );
        assert_eq!(
            check_dynamics_oracle(&actions, &ps, None),
            CheckOutcome::Pass
        );
    }

    #[test]
    fn dynamics_oracle_matches_on_a_cycling_instance() {
        // Six direct voters on a linear profile cycle with period 3
        // under simultaneous best responses; the brute-force loop must
        // agree round for round, including the cycle verdict.
        let actions = vec![Action::Vote; 6];
        let ps: Vec<f64> = (0..6).map(|i| 0.3 + 0.08 * i as f64).collect();
        assert_eq!(
            check_dynamics_oracle(&actions, &ps, None),
            CheckOutcome::Pass
        );
    }

    #[test]
    fn dynamics_replay_covers_crash_and_recovery() {
        // A converging instance with several rounds of accepted moves:
        // the WAL crash leg must recover and re-converge bit-identically
        // for any seeded crash point (three seeds probe early, middle,
        // and past-the-end op indices).
        let actions = vec![Action::Vote; 6];
        let ps: Vec<f64> = (0..6).map(|i| 0.3 + 0.08 * i as f64).collect();
        for seed in [0, 7, 63] {
            assert_eq!(
                check_dynamics_replay(&actions, &ps, seed),
                CheckOutcome::Pass,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn dynamics_corpus_entries_converge_cycle_and_shift_as_noted() {
        // The three dynamics regression seeds must keep witnessing the
        // behaviours their notes claim: one converging trajectory, one
        // period-3 limit cycle, and one coalition-shifted variance. The
        // pin is by (seed, cell) through the same generator the
        // conformance replay uses, so corpus drift fails loudly here.
        use crate::corpus;
        use crate::gen::default_grid;
        use ld_live::dynamics::RoundSnapshot;

        let entries = corpus::entries().unwrap();
        let grid = default_grid(true);
        let run_cell = |cell: &str, seed: u64, rules_of: &dyn Fn(usize) -> Vec<MoveRule>| {
            let spec = grid
                .iter()
                .find(|s| s.id().contains(cell))
                .unwrap_or_else(|| panic!("corpus cell {cell} matches no quick-grid cell"));
            let case = spec.build(seed).unwrap();
            let actions = case.dg.actions().to_vec();
            let ps = case.instance.profile().as_slice().to_vec();
            let view = DynamicsView::complete(&ps, ALPHA);
            let spec = DynamicsSpec {
                max_rounds: DYN_ORACLE_MAX_ROUNDS,
                tiebreak: TieBreakRule::Canonical,
            };
            run_dynamics(&view, &actions, &rules_of(actions.len()), &spec).unwrap()
        };
        let honest = |n: usize| vec![MoveRule::BestResponse; n];

        let converging = entries
            .iter()
            .find(|e| e.note.contains("(converging)"))
            .expect("corpus lost its converging dynamics entry");
        let traj = run_cell(&converging.cell, converging.seed, &honest);
        assert!(
            matches!(traj.termination, Termination::Fixpoint { .. }) && !traj.rounds.is_empty(),
            "converging entry now terminates as {:?} after {} rounds",
            traj.termination,
            traj.rounds.len()
        );

        let cycling = entries
            .iter()
            .find(|e| e.note.contains("(cycling)"))
            .expect("corpus lost its cycling dynamics entry");
        let traj = run_cell(&cycling.cell, cycling.seed, &honest);
        assert!(
            matches!(traj.termination, Termination::Cycle { .. }),
            "cycling entry now terminates as {:?}",
            traj.termination
        );

        let shifted = entries
            .iter()
            .find(|e| e.note.contains("(coalition-shifted)"))
            .expect("corpus lost its coalition-shifted dynamics entry");
        let base = run_cell(&shifted.cell, shifted.seed, &honest);
        let coalition = run_cell(&shifted.cell, shifted.seed, &|n| {
            let mut rules = vec![MoveRule::BestResponse; n];
            rules[0] = MoveRule::VarianceSeeking;
            rules[1] = MoveRule::VarianceSeeking;
            rules
        });
        let honest_var = RoundSnapshot::from_engine(&base.engine).var;
        let coalition_var = RoundSnapshot::from_engine(&coalition.engine).var;
        assert!(
            (honest_var - coalition_var).abs() > 1e-6,
            "coalition no longer shifts the variance: {honest_var} vs {coalition_var}"
        );
    }

    #[test]
    fn dynamics_corpus_coalition_entry_shifts_variance() {
        // Named by the corpus note; the substantive assertions live in
        // dynamics_corpus_entries_converge_cycle_and_shift_as_noted.
        dynamics_corpus_entries_converge_cycle_and_shift_as_noted();
    }

    #[test]
    fn ranked_corpus_entries_witness_fallback_split_and_exhaustion() {
        // The three ranked regression seeds must keep witnessing the
        // behaviours their notes claim: a forced fall-back past a dead
        // rank-1 edge, a MinDepth/MinSum disagreement, and whole lists
        // exhausting into abstention. The pin is by (seed, cell)
        // through the same ballot derivation the conformance checks
        // use, so generator or rule drift fails loudly here.
        use crate::corpus;
        use crate::gen::default_grid;
        use std::collections::HashSet;

        let entries = corpus::entries().unwrap();
        let grid = default_grid(true);
        let select_cell = |cell: &str, seed: u64| {
            let spec = grid
                .iter()
                .find(|s| s.id().contains(cell))
                .unwrap_or_else(|| panic!("corpus cell {cell} matches no quick-grid cell"));
            let case = spec.build(seed).unwrap();
            let ballots = ranked_ballots(case.dg.actions(), seed);
            let profile = RankedProfile::new(ballots).unwrap();
            assert!(
                !profile.is_single_edge(),
                "{cell}: witness degenerated to a single-edge profile"
            );
            let depth = DelegationRule::MinDepth.select(&profile).unwrap();
            let sum = DelegationRule::MinSum.select(&profile).unwrap();
            (profile, depth, sum)
        };

        let fallback = entries
            .iter()
            .find(|e| e.note.contains("(rank-fallback)"))
            .expect("corpus lost its rank-fallback ranked entry");
        let (profile, depth, sum) = select_cell(&fallback.cell, fallback.seed);
        let dead: HashSet<usize> = depth.exhausted().iter().copied().collect();
        let forced = (0..profile.n()).any(|v| match profile.ballot(v) {
            RankedBallot::Ranked(list) => {
                dead.contains(&list[0])
                    && depth.chosen_rank()[v].is_some_and(|r| r >= 2)
                    && sum.chosen_rank()[v].is_some_and(|r| r >= 2)
            }
            _ => false,
        });
        assert!(
            forced,
            "rank-fallback entry no longer forces a lower-ranked edge"
        );

        let split = entries
            .iter()
            .find(|e| e.note.contains("(rule-split)"))
            .expect("corpus lost its rule-split ranked entry");
        let (_, depth, sum) = select_cell(&split.cell, split.seed);
        assert_ne!(
            depth.actions(),
            sum.actions(),
            "rule-split entry: MinDepth and MinSum now agree"
        );

        let exhausted = entries
            .iter()
            .find(|e| e.note.contains("(rank-exhausted)"))
            .expect("corpus lost its rank-exhausted ranked entry");
        let (profile, depth, _) = select_cell(&exhausted.cell, exhausted.seed);
        assert!(
            !depth.exhausted().is_empty(),
            "rank-exhausted entry no longer exhausts any list"
        );
        let (_, res) = resolve_ranked(&profile, DelegationRule::MinDepth).unwrap();
        assert!(
            res.discarded() >= depth.exhausted().len(),
            "exhausted voters must be discarded in the resolution"
        );
    }

    #[test]
    fn relabel_check_passes_on_random_style_graph() {
        let actions = vec![
            Action::Delegate(4),
            Action::Vote,
            Action::Abstain,
            Action::Delegate(2),
            Action::Vote,
        ];
        let ps = vec![0.2, 0.3, 0.5, 0.6, 0.8];
        assert_eq!(
            check_relabel_equivariance(&actions, &ps, 99),
            CheckOutcome::Pass
        );
    }

    #[test]
    fn conservation_check_passes_with_abstention() {
        let actions = vec![Action::Delegate(1), Action::Abstain, Action::Vote];
        assert_eq!(check_weight_conservation(&actions), CheckOutcome::Pass);
    }

    #[test]
    fn ranked_checks_pass_on_seeded_cases() {
        let actions = vec![
            Action::Delegate(1),
            Action::Delegate(2),
            Action::Vote,
            Action::Delegate(2),
            Action::Abstain,
            Action::Vote,
        ];
        let ps = vec![0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
        for seed in 0..32u64 {
            let resolve = check_ranked_resolve_oracle(&actions, seed, None);
            assert_eq!(resolve, CheckOutcome::Pass, "resolve failed at seed {seed}");
            let replay = check_ranked_live_replay(&actions, &ps, seed, None);
            assert_eq!(replay, CheckOutcome::Pass, "replay failed at seed {seed}");
        }
    }

    #[test]
    fn rank_order_mutant_is_detected_on_seeded_cases() {
        // Reversing the submitted lists re-routes any voter whose
        // selection is not the middle of its list, and the chosen-rank
        // bookkeeping cites the wrong submitted position — some seed in
        // this sweep must expose it while every honest run passes.
        let actions = vec![
            Action::Delegate(1),
            Action::Delegate(2),
            Action::Vote,
            Action::Delegate(2),
            Action::Abstain,
            Action::Vote,
        ];
        let mutated = Some(Mutation::RankOrder);
        let mut detected = 0usize;
        for seed in 0..32u64 {
            if matches!(
                check_ranked_resolve_oracle(&actions, seed, mutated),
                CheckOutcome::Fail(_)
            ) {
                detected += 1;
            }
            assert_eq!(
                check_ranked_resolve_oracle(&actions, seed, None),
                CheckOutcome::Pass
            );
        }
        assert!(detected > 0, "rank-order mutant never detected");
    }

    #[test]
    fn single_edge_ranked_cells_defer_to_the_legacy_resolver() {
        // A profile whose every list has one entry must reproduce the
        // legacy error contract: a two-cycle under single-edge lists is
        // CyclicDelegation, never an abstain fallback. Built directly so
        // the test does not depend on the derivation stream.
        let profile = RankedProfile::new(vec![
            RankedBallot::Ranked(vec![1]),
            RankedBallot::Ranked(vec![0]),
            RankedBallot::Cast,
        ])
        .unwrap();
        for rule in DelegationRule::all() {
            let err = rule.select(&profile).unwrap_err();
            assert!(matches!(err, CoreError::CyclicDelegation));
        }
    }
}
