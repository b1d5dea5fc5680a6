//! The incremental delegation engine.
//!
//! # State and invariants
//!
//! The engine stores the current action vector plus the *resolved* view
//! that `DelegationGraph::resolve` would produce for it:
//!
//! * `first_child[j]` / `next_sibling[i]` / `prev_sibling[i]` — the
//!   reverse delegation forest as flat intrusive `u32` sibling lists:
//!   `first_child[j]` heads the list of voters whose `Delegate` target
//!   is `j` (self-delegations are terminals and carry no edge), and each
//!   voter sits in at most one list, doubly linked through the two
//!   sibling arrays. Edge insertion is an `O(1)` push-front, removal an
//!   `O(1)` unlink — three flat arrays instead of `n` heap-allocated
//!   child vectors, matching the CSR arena style of `ld_core::csr`.
//! * `sink_of[v]` / `depth[v]` — the terminal of `v`'s delegation chain
//!   (`None` when the chain ends at an abstainer) and the chain length
//!   in edges.
//! * `weight[s]` — votes carried by sink `s`; `discarded`, `delegators`,
//!   `sink_count`, and a depth histogram for `longest_chain`.
//! * `sum_wp = Σ_s w_s·p_s` and `sum_w2pq = Σ_s w_s²·p_s·(1-p_s)` — the
//!   mean and variance of the correct-vote weight, maintained by ±1
//!   weight deltas so a normal-approximation decision probability is an
//!   `O(1)` query after every update (the exact weighted
//!   Poisson-binomial stays available on demand).
//!
//! # Why updates are `O(affected subtree)`
//!
//! Changing voter `i`'s action only alters `i`'s outgoing edge, so a
//! voter's terminal can change only if its chain passes through a
//! changed voter — i.e. only inside the reverse-subtree of some dirty
//! root. Take the *first* changed voter `d` on any such old chain: the
//! prefix up to `d` uses unchanged edges, so that voter still reaches
//! `d` in the new forest too. Hence the union of new-forest
//! reverse-subtrees of the dirty roots covers every voter whose
//! resolution can differ, and the batch recompute (remove old
//! contributions, re-chase within the touched set, add new ones) is
//! complete.

use ld_core::csr::CsrForest;
use ld_core::delegation::{Action, DelegationGraph, Resolution};
use ld_core::tally::TieBreak;
use ld_core::CoreError;
use ld_prob::normal::std_normal_cdf;
use ld_prob::poisson_binomial::WeightedBernoulliSum;
use std::time::Instant;

/// One event in a delegation stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Update {
    /// Voter `voter` now delegates to `target` (a self-target counts as
    /// voting directly, as in `DelegationGraph::resolve`).
    Delegate {
        /// The updating voter.
        voter: usize,
        /// Their new delegate.
        target: usize,
    },
    /// Voter `voter` reclaims their vote and casts it directly.
    Vote {
        /// The updating voter.
        voter: usize,
    },
    /// Voter `voter` abstains; votes delegated to them are discarded.
    Abstain {
        /// The updating voter.
        voter: usize,
    },
    /// Voter `voter`'s competency estimate changes to `p`.
    Competence {
        /// The updating voter.
        voter: usize,
        /// New correctness probability, in `[0, 1]`.
        p: f64,
    },
}

impl Update {
    /// The voter this update concerns.
    pub fn voter(&self) -> usize {
        match *self {
            Update::Delegate { voter, .. }
            | Update::Vote { voter }
            | Update::Abstain { voter }
            | Update::Competence { voter, .. } => voter,
        }
    }
}

/// Why an update was rejected (state is untouched in every case).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RejectReason {
    /// The updating voter is outside `0..n`.
    VoterOutOfRange {
        /// The offending voter index.
        voter: usize,
        /// Engine size.
        n: usize,
    },
    /// A delegation target is outside `0..n`.
    TargetOutOfRange {
        /// The delegating voter.
        voter: usize,
        /// The offending target.
        target: usize,
        /// Engine size.
        n: usize,
    },
    /// Accepting the delegation would close a directed cycle, which
    /// `DelegationGraph::resolve` treats as an error.
    WouldCreateCycle {
        /// The delegating voter.
        voter: usize,
        /// The target whose chain already reaches `voter`.
        target: usize,
    },
    /// A competency was not a finite number in `[0, 1]`.
    InvalidCompetence {
        /// The voter being updated.
        voter: usize,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            RejectReason::VoterOutOfRange { voter, n } => {
                write!(f, "voter {voter} outside the {n}-voter set")
            }
            RejectReason::TargetOutOfRange { voter, target, n } => {
                write!(
                    f,
                    "voter {voter} delegates to {target}, outside the {n}-voter set"
                )
            }
            RejectReason::WouldCreateCycle { voter, target } => {
                write!(f, "delegation {voter} -> {target} would create a cycle")
            }
            RejectReason::InvalidCompetence { voter, value } => {
                write!(f, "competency {value} for voter {voter} not in [0, 1]")
            }
        }
    }
}

/// Outcome of [`LiveEngine::apply_batch`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchReport {
    /// Updates accepted and applied.
    pub applied: usize,
    /// Rejected updates as `(index in batch, reason)`; the rest of the
    /// batch still applies.
    pub rejected: Vec<(usize, RejectReason)>,
    /// Voters whose resolution was recomputed (each counted once even if
    /// several updates hit its region).
    pub touched: usize,
}

/// Sentinel for "no link" in the flat sibling lists.
const NO_LINK: u32 = u32::MAX;

/// After this many floating-point delta operations the tally
/// accumulators are recomputed from scratch, bounding drift. Refresh is
/// `O(n)` but triggered at most once per `O(n)` delta ops, so the
/// amortized cost per update stays `O(1)`.
const TALLY_REFRESH_OPS_PER_VOTER: usize = 8;

/// A stateful delegation engine: the resolved view of a delegation
/// graph, maintained incrementally under a stream of [`Update`]s.
///
/// # Examples
///
/// ```
/// use ld_core::delegation::Action;
/// use ld_live::{LiveEngine, Update};
///
/// let mut live = LiveEngine::new(
///     vec![Action::Vote, Action::Delegate(0), Action::Vote],
///     vec![0.6, 0.5, 0.9],
/// )?;
/// assert_eq!(live.weight_of(0), 2);
///
/// live.apply(Update::Delegate { voter: 2, target: 0 }).unwrap();
/// assert_eq!(live.weight_of(0), 3);
///
/// // 0 -> 2 would close a cycle now: rejected, state unchanged.
/// assert!(live.apply(Update::Delegate { voter: 0, target: 2 }).is_err());
/// assert_eq!(live.weight_of(0), 3);
/// # Ok::<(), ld_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LiveEngine {
    actions: Vec<Action>,
    competence: Vec<f64>,
    first_child: Vec<u32>,
    next_sibling: Vec<u32>,
    prev_sibling: Vec<u32>,
    sink_of: Vec<Option<usize>>,
    depth: Vec<u32>,
    weight: Vec<usize>,
    discarded: usize,
    delegators: usize,
    sink_count: usize,
    /// Histogram of chain depths; `longest_chain` is its max occupied
    /// index, tracked as a lazily tightened upper bound.
    depth_count: Vec<usize>,
    max_depth_bound: usize,
    sum_wp: f64,
    sum_w2pq: f64,
    tally_ops: usize,
    /// Batch bookkeeping: `mark[v] == epoch` means touched this batch,
    /// `mark[v] == epoch + 1` means already re-resolved this batch.
    mark: Vec<u64>,
    epoch: u64,
    dirty: Vec<usize>,
    touched: Vec<usize>,
    stack: Vec<usize>,
    obs: LiveObs,
}

/// The engine's ld-obs handles, looked up once at construction so an
/// update records with relaxed atomics only.
#[derive(Debug, Clone)]
struct LiveObs {
    applied: ld_obs::Counter,
    rejected: ld_obs::Counter,
    batches: ld_obs::Counter,
    touched: ld_obs::Histogram,
    batch_regions: ld_obs::Histogram,
    apply_ns: ld_obs::Histogram,
    apply_batch_ns: ld_obs::Histogram,
}

impl LiveObs {
    fn resolve() -> Self {
        LiveObs {
            applied: ld_obs::counter("live.applied"),
            rejected: ld_obs::counter("live.rejected"),
            batches: ld_obs::counter("live.batches"),
            touched: ld_obs::histogram("live.touched"),
            batch_regions: ld_obs::histogram("live.batch_regions"),
            apply_ns: ld_obs::histogram("live.apply_ns"),
            apply_batch_ns: ld_obs::histogram("live.apply_batch_ns"),
        }
    }
}

impl LiveEngine {
    /// Builds the engine from an initial action vector and per-voter
    /// competencies (correctness probabilities, *not* required to be
    /// sorted — this is live per-voter state, not a
    /// `CompetencyProfile`).
    ///
    /// # Errors
    ///
    /// * [`CoreError::SizeMismatch`] if the vectors disagree on `n`.
    /// * [`CoreError::InvalidCompetency`] for a competency outside
    ///   `[0, 1]`.
    /// * [`CoreError::InvalidParameter`] for `Action::DelegateMany`
    ///   (the live engine is single-target, like `resolve`).
    /// * [`CoreError::DelegationTargetOutOfRange`] for an out-of-range
    ///   initial target.
    /// * [`CoreError::CyclicDelegation`] if the initial graph has a
    ///   delegation cycle.
    pub fn new(actions: Vec<Action>, competence: Vec<f64>) -> Result<Self, CoreError> {
        if actions.len() != competence.len() {
            return Err(CoreError::SizeMismatch {
                graph_n: actions.len(),
                profile_n: competence.len(),
            });
        }
        for (i, &p) in competence.iter().enumerate() {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(CoreError::InvalidCompetency {
                    value: p,
                    index: Some(i),
                });
            }
        }
        let n = actions.len();
        if n >= NO_LINK as usize {
            return Err(CoreError::InvalidParameter {
                reason: format!("live engine limited to {} voters, got {n}", NO_LINK - 1),
            });
        }
        let dg = DelegationGraph::new(actions);
        // Validates single-target, targets in range, and acyclicity.
        let mut forest = CsrForest::new();
        forest.resolve(&dg)?;
        let actions = dg.actions().to_vec();

        let mut engine = LiveEngine {
            actions,
            competence,
            first_child: vec![NO_LINK; n],
            next_sibling: vec![NO_LINK; n],
            prev_sibling: vec![NO_LINK; n],
            sink_of: (0..n).map(|v| forest.sink_of(v)).collect(),
            depth: vec![0; n],
            weight: (0..n).map(|v| forest.weight_of(v)).collect(),
            discarded: forest.discarded(),
            delegators: forest.delegators(),
            sink_count: forest.sink_count(),
            depth_count: Vec::new(),
            max_depth_bound: 0,
            sum_wp: 0.0,
            sum_w2pq: 0.0,
            tally_ops: 0,
            mark: vec![0; n],
            epoch: 0,
            dirty: Vec::new(),
            touched: Vec::new(),
            stack: Vec::new(),
            obs: LiveObs::resolve(),
        };
        engine.rebuild_forest_and_depths();
        engine.refresh_tally();
        Ok(engine)
    }

    /// Rehydrates an engine from previously-resolved state — the
    /// recovery path of `ld-store` snapshots — without re-running the
    /// resolver: no chain is chased, every pass is a flat `O(n)` scan.
    ///
    /// The caller supplies the resolved view (`sink_of`, `depth`)
    /// alongside the inputs (`actions`, `competence`); consistency is
    /// *fully validated* by local rules before anything is trusted:
    ///
    /// * a terminal (vote, self-delegation, abstention) has depth `0`
    ///   and is its own sink (or `None` for abstention);
    /// * a delegator `v → t` has `depth[v] == depth[t] + 1` and
    ///   `sink_of[v] == sink_of[t]`.
    ///
    /// The depth rule makes cycles unrepresentable (depth strictly
    /// decreases along every chain) and, by induction on depth, forces
    /// `sink_of` to equal exactly what `resolve` would compute — so a
    /// snapshot that passes rehydration is bit-identical to a
    /// from-scratch resolve, without paying for one.
    ///
    /// # Errors
    ///
    /// * [`CoreError::SizeMismatch`] if the vectors disagree on `n`.
    /// * [`CoreError::InvalidCompetency`] for a competency outside
    ///   `[0, 1]`.
    /// * [`CoreError::DelegationTargetOutOfRange`] for an out-of-range
    ///   target.
    /// * [`CoreError::InvalidParameter`] for a multi-target action, an
    ///   oversized `n`, or any `sink_of`/`depth` local-rule violation
    ///   (a corrupt or logically stale snapshot).
    pub fn from_resolved_parts(
        actions: Vec<Action>,
        competence: Vec<f64>,
        sink_of: Vec<Option<usize>>,
        depth: Vec<u32>,
    ) -> Result<Self, CoreError> {
        let n = actions.len();
        if competence.len() != n {
            return Err(CoreError::SizeMismatch {
                graph_n: n,
                profile_n: competence.len(),
            });
        }
        if sink_of.len() != n || depth.len() != n {
            return Err(CoreError::InvalidParameter {
                reason: format!(
                    "resolved parts disagree on n: actions {n}, sink_of {}, depth {}",
                    sink_of.len(),
                    depth.len()
                ),
            });
        }
        if n >= NO_LINK as usize {
            return Err(CoreError::InvalidParameter {
                reason: format!("live engine limited to {} voters, got {n}", NO_LINK - 1),
            });
        }
        for (i, &p) in competence.iter().enumerate() {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(CoreError::InvalidCompetency {
                    value: p,
                    index: Some(i),
                });
            }
        }
        let inconsistent = |v: usize, what: &str| CoreError::InvalidParameter {
            reason: format!("snapshot inconsistent at voter {v}: {what}"),
        };
        let mut weight = vec![0usize; n];
        let mut discarded = 0usize;
        let mut delegators = 0usize;
        let mut sink_count = 0usize;
        for v in 0..n {
            // A self-delegation resolves as a terminal but is still a
            // delegation action; `delegators` counts actions, not edges.
            delegators += usize::from(actions[v].is_delegation());
            let terminal_sink = match actions[v] {
                Action::Vote => Some(Some(v)),
                Action::Abstain => Some(None),
                Action::Delegate(t) if t == v => Some(Some(v)),
                Action::Delegate(t) => {
                    if t >= n {
                        return Err(CoreError::DelegationTargetOutOfRange {
                            voter: v,
                            target: t,
                            n,
                        });
                    }
                    None
                }
                _ => {
                    return Err(CoreError::InvalidParameter {
                        reason: format!(
                            "voter {v}: live engine rehydrates single-target actions only"
                        ),
                    })
                }
            };
            match terminal_sink {
                Some(expected) => {
                    if depth[v] != 0 {
                        return Err(inconsistent(v, "terminal with nonzero depth"));
                    }
                    if sink_of[v] != expected {
                        return Err(inconsistent(v, "terminal not its own sink"));
                    }
                }
                None => {
                    let t = match actions[v] {
                        Action::Delegate(t) => t,
                        _ => unreachable!("delegator by construction"),
                    };
                    if depth[v] != depth[t] + 1 {
                        return Err(inconsistent(v, "depth is not target depth + 1"));
                    }
                    if sink_of[v] != sink_of[t] {
                        return Err(inconsistent(v, "sink differs from target's sink"));
                    }
                }
            }
            match sink_of[v] {
                Some(s) => {
                    if s >= n {
                        return Err(inconsistent(v, "sink out of range"));
                    }
                    weight[s] += 1;
                    if s == v {
                        sink_count += 1;
                    }
                }
                None => discarded += 1,
            }
        }

        let mut engine = LiveEngine {
            actions,
            competence,
            first_child: vec![NO_LINK; n],
            next_sibling: vec![NO_LINK; n],
            prev_sibling: vec![NO_LINK; n],
            sink_of,
            depth,
            weight,
            discarded,
            delegators,
            sink_count,
            depth_count: Vec::new(),
            max_depth_bound: 0,
            sum_wp: 0.0,
            sum_w2pq: 0.0,
            tally_ops: 0,
            mark: vec![0; n],
            epoch: 0,
            dirty: Vec::new(),
            touched: Vec::new(),
            stack: Vec::new(),
            obs: LiveObs::resolve(),
        };
        // Recomputes depths (and the histogram) by DFS; the local rules
        // above guarantee it reproduces the supplied array.
        engine.rebuild_forest_and_depths();
        engine.refresh_tally();
        Ok(engine)
    }

    /// Number of voters.
    pub fn n(&self) -> usize {
        self.actions.len()
    }

    /// The current action vector (always resolvable: single-target,
    /// in-range, acyclic).
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// The current per-voter competencies.
    pub fn competences(&self) -> &[f64] {
        &self.competence
    }

    /// Votes currently carried by voter `v` (0 unless `v` is a sink).
    pub fn weight_of(&self, v: usize) -> usize {
        self.weight[v]
    }

    /// The full per-voter weight vector (index = voter; 0 for
    /// non-sinks) — the flat view `ld-serve`'s epoch tally iterates
    /// instead of `n` accessor calls.
    pub fn weights(&self) -> &[usize] {
        &self.weight
    }

    /// The full per-voter sink-assignment vector (index = voter;
    /// `None` = discarded through abstention), the companion flat view
    /// to [`LiveEngine::weights`].
    pub fn sink_assignments(&self) -> &[Option<usize>] {
        &self.sink_of
    }

    /// The sink voter `v`'s vote currently ends at (`None` = discarded
    /// through abstention).
    pub fn sink_of(&self, v: usize) -> Option<usize> {
        self.sink_of[v]
    }

    /// Per-voter delegation-chain depths in edges (index = voter); what
    /// `ld-store` snapshots persist so rehydration can validate
    /// `sink_of` without chasing chains.
    pub fn depths(&self) -> &[u32] {
        &self.depth
    }

    /// Votes discarded through abstention.
    pub fn discarded(&self) -> usize {
        self.discarded
    }

    /// Votes that reach a ballot (`n - discarded`).
    pub fn tallied(&self) -> usize {
        self.n() - self.discarded
    }

    /// Number of distinct sinks.
    pub fn sink_count(&self) -> usize {
        self.sink_count
    }

    /// Number of delegating voters.
    pub fn delegators(&self) -> usize {
        self.delegators
    }

    /// Length of the longest delegation chain, in edges.
    pub fn longest_chain(&self) -> usize {
        let mut d = self.max_depth_bound;
        while d > 0 && self.depth_count[d] == 0 {
            d -= 1;
        }
        d
    }

    /// Materializes the engine's state as a [`Resolution`] —
    /// bit-identical to `DelegationGraph::new(actions).resolve()`.
    pub fn resolution(&self) -> Resolution {
        Resolution::from_parts(
            self.sink_of.clone(),
            self.weight.clone(),
            self.discarded,
            self.delegators,
            self.longest_chain(),
        )
    }

    /// `O(1)` normal-approximation probability that the correct option
    /// wins the strict weighted majority, using the incrementally
    /// maintained mean `Σ w_s p_s` and variance `Σ w_s² p_s(1-p_s)` of
    /// the correct-vote weight ([`normal_decision_probability`]).
    pub fn decision_probability_normal(&self, tie: TieBreak) -> f64 {
        normal_decision_probability(self.tallied(), self.sum_wp, self.sum_w2pq, tie)
    }

    /// Exact decision probability via the weighted Poisson-binomial over
    /// the current sinks — `O(n·W)` like the snapshot tally, for
    /// on-demand checks of the `O(1)` approximation.
    ///
    /// # Errors
    ///
    /// Propagates probability-layer validation errors (cannot occur for
    /// a live engine, whose competencies are validated on entry).
    pub fn decision_probability_exact(&self, tie: TieBreak) -> Result<f64, CoreError> {
        let terms: Vec<(usize, f64)> = (0..self.n())
            .filter(|&v| self.weight[v] > 0)
            .map(|v| (self.weight[v], self.competence[v]))
            .collect();
        let sum = WeightedBernoulliSum::new(&terms)?;
        Ok(sum.majority_with_ties(self.tallied(), tie.credit()))
    }

    /// Applies one update immediately. Returns the number of voters
    /// whose resolution was recomputed.
    ///
    /// # Errors
    ///
    /// Returns the typed [`RejectReason`] for an invalid update; the
    /// engine state is unchanged in that case.
    pub fn apply(&mut self, update: Update) -> Result<usize, RejectReason> {
        let start = Instant::now();
        self.dirty.clear();
        let outcome = match self.validate(update) {
            Err(reason) => {
                self.obs.rejected.incr();
                Err(reason)
            }
            Ok(()) => {
                self.apply_structural(update);
                let touched = self.recompute_dirty();
                self.obs.applied.incr();
                self.obs.touched.record(touched as u64);
                Ok(touched)
            }
        };
        self.obs.apply_ns.record(start.elapsed().as_nanos() as u64);
        outcome
    }

    /// Applies a batch of updates, recomputing each touched region once:
    /// `k` updates landing in overlapping subtrees cost one traversal of
    /// their union, not `k`. Invalid updates are skipped (reported in
    /// the returned [`BatchReport`]) and do not abort the batch, and
    /// validation happens against the sequentially updated state — so a
    /// batch accepts exactly the same updates as streaming them one at a
    /// time through [`LiveEngine::apply`].
    pub fn apply_batch(&mut self, updates: &[Update]) -> BatchReport {
        let start = Instant::now();
        let mut report = BatchReport::default();
        self.dirty.clear();
        for (k, &update) in updates.iter().enumerate() {
            match self.validate(update) {
                Ok(()) => {
                    self.apply_structural(update);
                    report.applied += 1;
                }
                Err(reason) => report.rejected.push((k, reason)),
            }
        }
        self.obs.batch_regions.record(self.dirty.len() as u64);
        report.touched = self.recompute_dirty();
        self.obs.batches.incr();
        self.obs.applied.add(report.applied as u64);
        self.obs.rejected.add(report.rejected.len() as u64);
        self.obs.touched.record(report.touched as u64);
        self.obs
            .apply_batch_ns
            .record(start.elapsed().as_nanos() as u64);
        report
    }

    /// Recomputes the tally accumulators from scratch, zeroing
    /// accumulated floating-point drift. Called automatically every
    /// `O(n)` delta operations; public so callers can force it before a
    /// high-precision query.
    pub fn refresh_tally(&mut self) {
        self.sum_wp = 0.0;
        self.sum_w2pq = 0.0;
        for v in 0..self.n() {
            let w = self.weight[v];
            if w > 0 {
                let p = self.competence[v];
                self.sum_wp += w as f64 * p;
                self.sum_w2pq += (w * w) as f64 * p * (1.0 - p);
            }
        }
        self.tally_ops = 0;
    }

    /// Checks the incremental state against a from-scratch resolve of
    /// the current actions plus fresh tally accumulators.
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence found.
    pub fn self_check(&self) -> Result<(), String> {
        let fresh = DelegationGraph::new(self.actions.clone())
            .resolve()
            .map_err(|e| format!("stored actions do not resolve: {e}"))?;
        if fresh != self.resolution() {
            return Err("incremental resolution diverges from from-scratch resolve".to_string());
        }
        let (mut wp, mut w2pq) = (0.0, 0.0);
        for v in 0..self.n() {
            let w = self.weight[v];
            if w > 0 {
                let p = self.competence[v];
                wp += w as f64 * p;
                w2pq += (w * w) as f64 * p * (1.0 - p);
            }
        }
        let scale = |x: f64, y: f64| (x - y).abs() / x.abs().max(y.abs()).max(1.0);
        if scale(wp, self.sum_wp) > 1e-6 || scale(w2pq, self.sum_w2pq) > 1e-6 {
            return Err(format!(
                "tally accumulators drifted: Σwp {} vs {}, Σw²pq {} vs {}",
                self.sum_wp, wp, self.sum_w2pq, w2pq
            ));
        }
        Ok(())
    }

    fn validate(&self, update: Update) -> Result<(), RejectReason> {
        let n = self.n();
        let voter = update.voter();
        if voter >= n {
            return Err(RejectReason::VoterOutOfRange { voter, n });
        }
        match update {
            Update::Delegate { target, .. } if target >= n => {
                Err(RejectReason::TargetOutOfRange { voter, target, n })
            }
            // A self-delegation is a terminal (counts as voting), never a
            // cycle — matching `resolve`.
            Update::Delegate { target, .. } if target == voter => Ok(()),
            Update::Delegate { target, .. } => {
                // Walk target's chain through the *current* actions; if it
                // reaches `voter`, the new edge would close a cycle. Cost
                // is one chain length, within the O(affected) budget.
                let mut cur = target;
                loop {
                    if cur == voter {
                        return Err(RejectReason::WouldCreateCycle { voter, target });
                    }
                    match self.actions[cur] {
                        Action::Delegate(t) if t != cur => cur = t,
                        _ => return Ok(()),
                    }
                }
            }
            Update::Competence { p, .. } if !p.is_finite() || !(0.0..=1.0).contains(&p) => {
                Err(RejectReason::InvalidCompetence { voter, value: p })
            }
            _ => Ok(()),
        }
    }

    /// Applies a validated update to the action vector, forest edges,
    /// and counters; resolution changes are deferred to
    /// [`LiveEngine::recompute_dirty`].
    fn apply_structural(&mut self, update: Update) {
        let voter = update.voter();
        if let Update::Competence { p, .. } = update {
            let old = self.competence[voter];
            if old != p {
                let w = self.weight[voter];
                if w > 0 {
                    self.sum_wp += w as f64 * (p - old);
                    self.sum_w2pq += (w * w) as f64 * (p * (1.0 - p) - old * (1.0 - old));
                    self.tally_ops += 1;
                }
                self.competence[voter] = p;
            }
            self.maybe_refresh_tally();
            return;
        }
        let new_action = match update {
            Update::Delegate { target, .. } => Action::Delegate(target),
            Update::Vote { .. } => Action::Vote,
            Update::Abstain { .. } => Action::Abstain,
            Update::Competence { .. } => unreachable!("handled above"),
        };
        if self.actions[voter] == new_action {
            return;
        }
        match self.actions[voter] {
            Action::Delegate(t) if t != voter => self.remove_child(t, voter),
            _ => {}
        }
        if let Action::Delegate(t) = new_action {
            if t != voter {
                self.add_child(t, voter);
            }
        }
        self.delegators -= usize::from(self.actions[voter].is_delegation());
        self.delegators += usize::from(new_action.is_delegation());
        self.actions[voter] = new_action;
        self.dirty.push(voter);
    }

    /// Links `child` at the front of `parent`'s sibling list — `O(1)`,
    /// no allocation.
    fn add_child(&mut self, parent: usize, child: usize) {
        let head = self.first_child[parent];
        self.next_sibling[child] = head;
        self.prev_sibling[child] = NO_LINK;
        if head != NO_LINK {
            self.prev_sibling[head as usize] = child as u32;
        }
        self.first_child[parent] = child as u32;
    }

    /// Unlinks `child` from `parent`'s sibling list — `O(1)` through the
    /// doubly-linked sibling pointers.
    fn remove_child(&mut self, parent: usize, child: usize) {
        let (prev, next) = (self.prev_sibling[child], self.next_sibling[child]);
        if prev == NO_LINK {
            debug_assert_eq!(self.first_child[parent], child as u32);
            self.first_child[parent] = next;
        } else {
            self.next_sibling[prev as usize] = next;
        }
        if next != NO_LINK {
            self.prev_sibling[next as usize] = prev;
        }
        self.prev_sibling[child] = NO_LINK;
        self.next_sibling[child] = NO_LINK;
    }

    /// Phase 2 of an update/batch: marks the union of reverse-subtrees
    /// of the dirty roots, removes their old contributions, re-chases
    /// terminals within the touched set, and adds the new contributions.
    /// Returns the number of touched voters.
    fn recompute_dirty(&mut self) -> usize {
        if self.dirty.is_empty() {
            return 0;
        }
        // Two marks per batch: `epoch` = touched, `epoch + 1` = resolved.
        self.epoch += 2;
        let epoch = self.epoch;
        self.touched.clear();

        // Mark + removal pass: every voter in a dirty reverse-subtree
        // gives up its vote (and depth-histogram slot) before any new
        // contribution lands, so the ±1 weight deltas telescope cleanly.
        for d in 0..self.dirty.len() {
            let root = self.dirty[d];
            if self.mark[root] >= epoch {
                continue;
            }
            self.stack.push(root);
            self.mark[root] = epoch;
            while let Some(v) = self.stack.pop() {
                self.touched.push(v);
                let mut c = self.first_child[v];
                while c != NO_LINK {
                    let child = c as usize;
                    if self.mark[child] < epoch {
                        self.mark[child] = epoch;
                        self.stack.push(child);
                    }
                    c = self.next_sibling[child];
                }
                self.depth_count[self.depth[v] as usize] -= 1;
                match self.sink_of[v] {
                    Some(s) => self.remove_vote_at(s),
                    None => self.discarded -= 1,
                }
            }
        }
        self.dirty.clear();

        // Re-chase pass, exactly `resolve`'s iterative chase restricted
        // to the touched set: a chain leaving the set hits values that
        // are still valid (their resolution cannot have changed).
        for t in 0..self.touched.len() {
            let start = self.touched[t];
            if self.mark[start] > epoch {
                continue; // already resolved this batch
            }
            debug_assert!(self.stack.is_empty());
            let mut cur = start;
            let (terminal, base) = loop {
                if self.mark[cur] != epoch {
                    // Outside the touched set, or touched and already
                    // resolved: stored values are current.
                    break (self.sink_of[cur], self.depth[cur]);
                }
                match self.actions[cur] {
                    Action::Vote => break (Some(cur), 0),
                    Action::Abstain => break (None, 0),
                    Action::Delegate(t) if t == cur => break (Some(cur), 0),
                    Action::Delegate(t) => {
                        assert!(
                            self.stack.len() <= self.n(),
                            "live forest invariant violated: delegation cycle"
                        );
                        self.stack.push(cur);
                        self.mark[cur] = epoch + 1;
                        cur = t;
                    }
                    _ => unreachable!("live engine never stores DelegateMany"),
                }
            };
            if self.mark[cur] == epoch {
                // `cur` is a touched terminal: record it.
                self.mark[cur] = epoch + 1;
                self.set_resolved(cur, terminal, base);
            }
            for back in (0..self.stack.len()).rev() {
                let v = self.stack[back];
                let d = base + (self.stack.len() - back) as u32;
                self.set_resolved(v, terminal, d);
            }
            self.stack.clear();
        }

        self.tally_ops += self.touched.len();
        self.maybe_refresh_tally();
        self.touched.len()
    }

    fn set_resolved(&mut self, v: usize, terminal: Option<usize>, d: u32) {
        self.sink_of[v] = terminal;
        self.depth[v] = d;
        let d = d as usize;
        if d >= self.depth_count.len() {
            self.depth_count.resize(d + 1, 0);
        }
        self.depth_count[d] += 1;
        self.max_depth_bound = self.max_depth_bound.max(d);
        match terminal {
            Some(s) => self.add_vote_at(s),
            None => self.discarded += 1,
        }
    }

    fn add_vote_at(&mut self, s: usize) {
        let w = self.weight[s];
        let p = self.competence[s];
        self.sum_wp += p;
        self.sum_w2pq += (2 * w + 1) as f64 * p * (1.0 - p);
        self.weight[s] = w + 1;
        self.sink_count += usize::from(w == 0);
    }

    fn remove_vote_at(&mut self, s: usize) {
        let w = self.weight[s];
        debug_assert!(w > 0);
        let p = self.competence[s];
        self.sum_wp -= p;
        self.sum_w2pq -= (2 * w - 1) as f64 * p * (1.0 - p);
        self.weight[s] = w - 1;
        self.sink_count -= usize::from(w == 1);
    }

    fn maybe_refresh_tally(&mut self) {
        if self.tally_ops >= TALLY_REFRESH_OPS_PER_VOTER * self.n().max(512) {
            self.refresh_tally();
        }
    }

    /// Builds the reverse forest, per-voter depths, and the depth
    /// histogram from the (already resolved) action vector.
    fn rebuild_forest_and_depths(&mut self) {
        let n = self.n();
        for i in 0..n {
            if let Action::Delegate(t) = self.actions[i] {
                if t != i {
                    self.add_child(t, i);
                }
            }
        }
        // Depths via DFS from the terminals down the reverse forest —
        // every voter is reachable from exactly one terminal because the
        // graph is acyclic and single-target.
        self.depth_count = vec![0; 1];
        for v in 0..n {
            let is_terminal = match self.actions[v] {
                Action::Vote | Action::Abstain => true,
                Action::Delegate(t) => t == v,
                _ => unreachable!("rejected by resolve"),
            };
            if !is_terminal {
                continue;
            }
            self.depth[v] = 0;
            self.depth_count[0] += 1;
            self.stack.push(v);
            while let Some(u) = self.stack.pop() {
                let mut c = self.first_child[u];
                while c != NO_LINK {
                    let child = c as usize;
                    let d = (self.depth[u] + 1) as usize;
                    self.depth[child] = d as u32;
                    if d >= self.depth_count.len() {
                        self.depth_count.resize(d + 1, 0);
                    }
                    self.depth_count[d] += 1;
                    self.max_depth_bound = self.max_depth_bound.max(d);
                    self.stack.push(child);
                    c = self.next_sibling[child];
                }
            }
        }
    }
}

/// Normal-approximation probability that the correct option wins the
/// strict weighted majority of `tallied` votes, given the mean `Σ w·p`
/// and variance `Σ w²·p(1-p)` of the correct-vote weight.
///
/// Degenerate cases (zero variance, nobody tallied) fall back to the
/// deterministic outcome with `tie.credit()` for exact ties.
#[must_use]
pub fn normal_decision_probability(tallied: usize, mean: f64, variance: f64, tie: TieBreak) -> f64 {
    let threshold = tallied as f64 / 2.0;
    let var = variance.max(0.0);
    if var <= f64::EPSILON * tallied.max(1) as f64 {
        return if mean > threshold + 1e-12 {
            1.0
        } else if (mean - threshold).abs() <= 1e-12 {
            tie.credit()
        } else {
            0.0
        };
    }
    1.0 - std_normal_cdf((threshold - mean) / var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(actions: Vec<Action>) -> LiveEngine {
        let n = actions.len();
        LiveEngine::new(actions, vec![0.6; n]).expect("valid engine")
    }

    fn check_against_scratch(live: &LiveEngine) {
        let fresh = DelegationGraph::new(live.actions().to_vec())
            .resolve()
            .expect("resolves");
        assert_eq!(fresh, live.resolution());
        live.self_check().expect("self-check");
    }

    #[test]
    fn initial_state_matches_resolve() {
        let live = engine(vec![
            Action::Delegate(2),
            Action::Delegate(0),
            Action::Vote,
            Action::Abstain,
            Action::Delegate(3),
        ]);
        assert_eq!(live.weight_of(2), 3);
        assert_eq!(live.discarded(), 2);
        assert_eq!(live.longest_chain(), 2);
        assert_eq!(live.sink_count(), 1);
        check_against_scratch(&live);
    }

    #[test]
    fn redelegation_moves_whole_subtree() {
        let mut live = engine(vec![
            Action::Vote,        // 0
            Action::Delegate(0), // 1
            Action::Delegate(1), // 2
            Action::Delegate(2), // 3
            Action::Vote,        // 4
        ]);
        assert_eq!(live.weight_of(0), 4);
        let touched = live
            .apply(Update::Delegate {
                voter: 1,
                target: 4,
            })
            .unwrap();
        assert_eq!(touched, 3, "1's reverse-subtree is {{1, 2, 3}}");
        assert_eq!(live.weight_of(0), 1);
        assert_eq!(live.weight_of(4), 4);
        check_against_scratch(&live);
    }

    #[test]
    fn abstention_discards_subtree_and_vote_restores_it() {
        let mut live = engine(vec![Action::Vote, Action::Delegate(0), Action::Delegate(1)]);
        live.apply(Update::Abstain { voter: 0 }).unwrap();
        assert_eq!(live.discarded(), 3);
        assert_eq!(live.sink_count(), 0);
        assert_eq!(live.tallied(), 0);
        check_against_scratch(&live);

        live.apply(Update::Vote { voter: 0 }).unwrap();
        assert_eq!(live.discarded(), 0);
        assert_eq!(live.weight_of(0), 3);
        check_against_scratch(&live);
    }

    #[test]
    fn cycle_is_rejected_and_state_unchanged() {
        let mut live = engine(vec![Action::Delegate(1), Action::Delegate(2), Action::Vote]);
        let before = live.resolution();
        let err = live
            .apply(Update::Delegate {
                voter: 2,
                target: 0,
            })
            .unwrap_err();
        assert_eq!(
            err,
            RejectReason::WouldCreateCycle {
                voter: 2,
                target: 0
            }
        );
        assert_eq!(live.resolution(), before);
        // Self-delegation is voting, not a cycle.
        live.apply(Update::Delegate {
            voter: 2,
            target: 2,
        })
        .unwrap();
        assert_eq!(live.weight_of(2), 3);
        assert_eq!(live.delegators(), 3);
        check_against_scratch(&live);
    }

    #[test]
    fn out_of_range_updates_are_rejected() {
        let mut live = engine(vec![Action::Vote, Action::Vote]);
        assert_eq!(
            live.apply(Update::Vote { voter: 7 }),
            Err(RejectReason::VoterOutOfRange { voter: 7, n: 2 })
        );
        assert_eq!(
            live.apply(Update::Delegate {
                voter: 0,
                target: 9
            }),
            Err(RejectReason::TargetOutOfRange {
                voter: 0,
                target: 9,
                n: 2
            })
        );
        assert_eq!(
            live.apply(Update::Competence { voter: 0, p: 1.5 }),
            Err(RejectReason::InvalidCompetence {
                voter: 0,
                value: 1.5
            })
        );
        assert!(matches!(
            live.apply(Update::Competence { voter: 0, p: f64::NAN }),
            Err(RejectReason::InvalidCompetence { voter: 0, value }) if value.is_nan()
        ));
    }

    #[test]
    fn batch_equals_stream_and_touches_union_once() {
        let actions = vec![
            Action::Delegate(4),
            Action::Delegate(0),
            Action::Delegate(1),
            Action::Delegate(1),
            Action::Vote,
            Action::Vote,
        ];
        let updates = [
            Update::Delegate {
                voter: 0,
                target: 5,
            },
            Update::Delegate {
                voter: 4,
                target: 0,
            }, // now legal: 0 -> 5
            Update::Delegate {
                voter: 5,
                target: 4,
            }, // cycle: rejected
            Update::Competence { voter: 5, p: 0.9 },
            Update::Abstain { voter: 5 },
        ];
        let mut streamed = engine(actions.clone());
        for &u in &updates {
            let _ = streamed.apply(u);
        }
        let mut batched = engine(actions);
        let report = batched.apply_batch(&updates);
        assert_eq!(report.applied, 4);
        assert_eq!(
            report.rejected,
            vec![(
                2,
                RejectReason::WouldCreateCycle {
                    voter: 5,
                    target: 4
                }
            )]
        );
        assert_eq!(streamed.resolution(), batched.resolution());
        assert_eq!(streamed.competences(), batched.competences());
        // The union {0,4,5} ∪ reverse-subtrees is recomputed once: all six
        // voters hang under the dirty roots here.
        assert_eq!(report.touched, 6);
        check_against_scratch(&batched);
    }

    #[test]
    fn competence_updates_track_the_exact_tally() {
        let mut live = engine(vec![
            Action::Delegate(1),
            Action::Vote,
            Action::Vote,
            Action::Delegate(2),
            Action::Vote,
        ]);
        live.apply(Update::Competence { voter: 1, p: 0.95 })
            .unwrap();
        live.apply(Update::Competence { voter: 4, p: 0.3 }).unwrap();
        let exact = live
            .decision_probability_exact(TieBreak::Incorrect)
            .unwrap();
        let approx = live.decision_probability_normal(TieBreak::Incorrect);
        assert!(
            (exact - approx).abs() < 0.25,
            "exact {exact} vs approx {approx}"
        );
        check_against_scratch(&live);
    }

    #[test]
    fn normal_approximation_degenerate_cases() {
        // All competencies 1.0: zero variance, certain win.
        let live = LiveEngine::new(vec![Action::Vote; 3], vec![1.0; 3]).unwrap();
        assert_eq!(live.decision_probability_normal(TieBreak::Incorrect), 1.0);
        // Everyone abstains: tie at zero, scored by the tie credit.
        let mut live = engine(vec![Action::Vote; 2]);
        live.apply(Update::Abstain { voter: 0 }).unwrap();
        live.apply(Update::Abstain { voter: 1 }).unwrap();
        assert_eq!(live.decision_probability_normal(TieBreak::Incorrect), 0.0);
        assert_eq!(live.decision_probability_normal(TieBreak::CoinFlip), 0.5);
    }

    #[test]
    fn constructor_rejects_invalid_inputs() {
        assert!(matches!(
            LiveEngine::new(vec![Action::Vote], vec![0.5, 0.5]),
            Err(CoreError::SizeMismatch { .. })
        ));
        assert!(matches!(
            LiveEngine::new(vec![Action::Vote], vec![1.5]),
            Err(CoreError::InvalidCompetency { .. })
        ));
        assert!(matches!(
            LiveEngine::new(vec![Action::Delegate(3)], vec![0.5]),
            Err(CoreError::DelegationTargetOutOfRange { .. })
        ));
        assert!(matches!(
            LiveEngine::new(
                vec![Action::Delegate(1), Action::Delegate(0)],
                vec![0.5, 0.5]
            ),
            Err(CoreError::CyclicDelegation)
        ));
    }

    #[test]
    fn long_chain_depth_histogram_tracks_redelegation() {
        let mut live = engine(vec![
            Action::Vote,
            Action::Delegate(0),
            Action::Delegate(1),
            Action::Delegate(2),
        ]);
        assert_eq!(live.longest_chain(), 3);
        live.apply(Update::Delegate {
            voter: 1,
            target: 0,
        })
        .unwrap();
        assert_eq!(live.longest_chain(), 3);
        live.apply(Update::Vote { voter: 3 }).unwrap();
        assert_eq!(live.longest_chain(), 2);
        live.apply(Update::Vote { voter: 2 }).unwrap();
        assert_eq!(live.longest_chain(), 1);
        check_against_scratch(&live);
    }
}
