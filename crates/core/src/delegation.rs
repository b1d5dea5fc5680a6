//! Delegation graphs: the resolved output of running a mechanism.

use crate::csr::CsrForest;
use crate::error::{CoreError, Result};

/// What one voter does with their vote.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Action {
    /// Cast the ballot directly.
    Vote,
    /// Delegate the vote to a single (approved) neighbour.
    Delegate(usize),
    /// Delegate to several approved neighbours; the voter's effective
    /// ballot is the majority of the delegates' outcomes (§6, *Weighted
    /// Majority Vote* extension).
    DelegateMany(Vec<usize>),
    /// Cast nothing (§6, *Vote Abstaining* extension). The paper's model
    /// only allows voters that *could* delegate to abstain.
    Abstain,
}

impl Action {
    /// Whether this action hands the vote to someone else.
    pub fn is_delegation(&self) -> bool {
        matches!(self, Action::Delegate(_) | Action::DelegateMany(_))
    }

    /// The voters this action hands the vote to, in action order (empty
    /// for a vote or an abstention).
    pub(crate) fn targets(&self) -> &[usize] {
        match self {
            Action::Vote | Action::Abstain => &[],
            Action::Delegate(t) => std::slice::from_ref(t),
            Action::DelegateMany(ts) => ts,
        }
    }
}

/// The delegation graph induced by one run of a mechanism on an instance:
/// one [`Action`] per voter.
///
/// # Examples
///
/// ```
/// use ld_core::delegation::{Action, DelegationGraph};
///
/// // 0 and 1 delegate to 2; 2 votes.
/// let dg = DelegationGraph::new(vec![
///     Action::Delegate(2),
///     Action::Delegate(2),
///     Action::Vote,
/// ]);
/// let res = dg.resolve()?;
/// assert_eq!(res.sinks(), &[2]);
/// assert_eq!(res.weight_of(2), 3);
/// assert_eq!(res.max_weight(), 3);
/// # Ok::<(), ld_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelegationGraph {
    actions: Vec<Action>,
}

impl DelegationGraph {
    /// Wraps a vector of per-voter actions.
    ///
    /// Targets are *not* validated here (mechanisms only emit in-bounds
    /// neighbours); [`DelegationGraph::resolve`] and
    /// [`DelegationGraph::try_new`] both report out-of-range targets as
    /// [`CoreError::DelegationTargetOutOfRange`].
    pub fn new(actions: Vec<Action>) -> Self {
        DelegationGraph { actions }
    }

    /// Wraps a vector of per-voter actions, validating every delegation
    /// target against the voter set.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DelegationTargetOutOfRange`] for the first
    /// voter whose target (single or multi) is `>= actions.len()`.
    pub fn try_new(actions: Vec<Action>) -> Result<Self> {
        let dg = DelegationGraph { actions };
        dg.validate_targets()?;
        Ok(dg)
    }

    /// Checks that every delegation target names a voter in `0..n`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DelegationTargetOutOfRange`] at the first
    /// violation, in voter order.
    pub fn validate_targets(&self) -> Result<()> {
        let n = self.n();
        for (voter, a) in self.actions.iter().enumerate() {
            if let Some(&target) = a.targets().iter().find(|&&t| t >= n) {
                return Err(CoreError::DelegationTargetOutOfRange { voter, target, n });
            }
        }
        Ok(())
    }

    /// Number of voters.
    pub fn n(&self) -> usize {
        self.actions.len()
    }

    /// The per-voter actions.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Action of voter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n()`.
    pub fn action(&self, i: usize) -> &Action {
        &self.actions[i]
    }

    /// Number of voters that delegate (singly or to many).
    ///
    /// This is the quantity of the paper's `Delegate(n) ≥ f(n)` restriction
    /// (Definition 2).
    pub fn delegator_count(&self) -> usize {
        self.actions.iter().filter(|a| a.is_delegation()).count()
    }

    /// Number of abstaining voters.
    pub fn abstainer_count(&self) -> usize {
        self.actions
            .iter()
            .filter(|a| matches!(a, Action::Abstain))
            .count()
    }

    /// Whether every delegation is to a single target (no
    /// [`Action::DelegateMany`]); only such graphs admit the exact
    /// sink-weight tally.
    pub fn is_single_target(&self) -> bool {
        !self
            .actions
            .iter()
            .any(|a| matches!(a, Action::DelegateMany(_)))
    }

    /// A topological order of the voters: every delegator comes before
    /// each of its targets. Self-targets are ignored.
    ///
    /// The order is Kahn's algorithm on a stack, and it is fixed by the
    /// actions alone: in-degrees count every non-self target (a repeated
    /// target counts twice), the stack starts with the voters nobody
    /// delegates to in ascending order, and a popped voter's targets are
    /// pushed in action order. [`crate::tally::sample_decision`] draws
    /// its coins in reverse of this order, so it must not change.
    ///
    /// # Errors
    ///
    /// * [`CoreError::DelegationTargetOutOfRange`] at the first
    ///   out-of-range target, in voter order (as
    ///   [`DelegationGraph::validate_targets`] reports it).
    /// * [`CoreError::CyclicDelegation`] if delegations form a cycle.
    pub fn topological_order(&self) -> Result<Vec<usize>> {
        let n = self.n();
        let mut indegree = vec![0usize; n];
        for (voter, a) in self.actions.iter().enumerate() {
            for &target in a.targets() {
                if target >= n {
                    return Err(CoreError::DelegationTargetOutOfRange { voter, target, n });
                }
                indegree[target] += usize::from(target != voter);
            }
        }
        let mut stack: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(voter) = stack.pop() {
            order.push(voter);
            for &target in self.actions[voter].targets() {
                if target != voter {
                    indegree[target] -= 1;
                    if indegree[target] == 0 {
                        stack.push(target);
                    }
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(CoreError::CyclicDelegation)
        }
    }

    /// Whether the delegation graph is acyclic (up to self-loops). The
    /// paper guarantees this for every approval-based mechanism because the
    /// approval margin `α > 0` forbids mutual approval.
    ///
    /// This is whether [`DelegationGraph::topological_order`] succeeds,
    /// so a graph with an out-of-range target is reported as `false`: it
    /// has no order over the voters `0..n`.
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_ok()
    }

    /// Resolves a single-target delegation graph into sinks and weights.
    ///
    /// Every non-abstaining voter's vote travels along delegation edges to
    /// a *sink* (a voter who casts a ballot); the sink's weight counts the
    /// votes it carries (including its own). Votes whose chain ends at an
    /// abstaining voter are discarded.
    ///
    /// This is [`CsrForest::resolve`] followed by
    /// [`CsrForest::to_resolution`]; hot loops should hold a
    /// [`CsrForest`] and skip the owned snapshot.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] if the graph contains
    ///   [`Action::DelegateMany`] (use the sampling tally for those).
    /// * [`CoreError::DelegationTargetOutOfRange`] if a delegation names a
    ///   voter outside `0..n`.
    /// * [`CoreError::CyclicDelegation`] if delegations form a cycle.
    pub fn resolve(&self) -> Result<Resolution> {
        let mut forest = CsrForest::new();
        forest.resolve(self)?;
        Ok(forest.to_resolution())
    }
}

impl FromIterator<Action> for DelegationGraph {
    fn from_iter<T: IntoIterator<Item = Action>>(iter: T) -> Self {
        DelegationGraph::new(iter.into_iter().collect())
    }
}

/// The resolved form of a single-target [`DelegationGraph`]: sinks,
/// weights, and the structural statistics the paper's lemmas are stated in
/// terms of. An owned snapshot of a [`CsrForest`] resolution, for callers
/// that keep or compare results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution {
    /// For each voter: the sink that ends up casting their vote, or `None`
    /// if the chain reached an abstainer.
    sink_of: Vec<Option<usize>>,
    /// `weight[v]` = number of votes cast by `v` (0 for non-sinks).
    weight: Vec<usize>,
    /// Sinks in increasing order (voters with positive weight).
    sinks: Vec<usize>,
    /// Votes discarded through abstention.
    discarded: usize,
    /// Number of delegating voters.
    delegators: usize,
    /// Longest delegation chain (bounds the recycle-sampling partition
    /// complexity).
    longest_chain: usize,
}

impl Resolution {
    /// Assembles a `Resolution` from delta-maintained internals — the
    /// export path of incremental engines (`ld-live`) that track
    /// `sink_of`, weights, and counts under streaming updates and
    /// periodically materialize a full resolution for cross-checking
    /// against [`DelegationGraph::resolve`].
    ///
    /// The sorted sink list is derived from `weight` here so callers
    /// cannot hand in an inconsistent one.
    ///
    /// # Panics
    ///
    /// Debug builds assert the invariants (`sink_of.len() == weight.len()`,
    /// weights sum to `n - discarded`, discarded matches the `None`
    /// entries); release builds trust the caller.
    pub fn from_parts(
        sink_of: Vec<Option<usize>>,
        weight: Vec<usize>,
        discarded: usize,
        delegators: usize,
        longest_chain: usize,
    ) -> Self {
        debug_assert_eq!(sink_of.len(), weight.len());
        debug_assert_eq!(sink_of.iter().filter(|s| s.is_none()).count(), discarded);
        debug_assert_eq!(weight.iter().sum::<usize>() + discarded, sink_of.len());
        let sinks: Vec<usize> = (0..weight.len()).filter(|&v| weight[v] > 0).collect();
        Resolution {
            sink_of,
            weight,
            sinks,
            discarded,
            delegators,
            longest_chain,
        }
    }

    /// Number of voters.
    pub fn n(&self) -> usize {
        self.sink_of.len()
    }

    /// The sinks (ballot-casting voters), in increasing order.
    pub fn sinks(&self) -> &[usize] {
        &self.sinks
    }

    /// Weight carried by voter `v` (0 unless `v` is a sink).
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.n()`.
    pub fn weight_of(&self, v: usize) -> usize {
        self.weight[v]
    }

    /// The sink voter `i`'s vote ends at, or `None` if it was discarded by
    /// abstention.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n()`.
    pub fn sink_of(&self, i: usize) -> Option<usize> {
        self.sink_of[i]
    }

    /// Iterator over `(sink, weight)` pairs.
    pub fn sink_weights(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.sinks.iter().map(move |&s| (s, self.weight[s]))
    }

    /// The full per-voter weight vector (`0` for non-sinks) — the
    /// delta-friendly view incremental engines diff against.
    pub fn weights(&self) -> &[usize] {
        &self.weight
    }

    /// The full per-voter sink assignment (`None` for discarded votes).
    pub fn sink_assignments(&self) -> &[Option<usize>] {
        &self.sink_of
    }

    /// The maximum weight of any single voter — the quantity Lemma 5
    /// bounds to guarantee DNH. Zero when everyone abstained.
    pub fn max_weight(&self) -> usize {
        self.sinks
            .iter()
            .map(|&s| self.weight[s])
            .max()
            .unwrap_or(0)
    }

    /// Total tallied votes `n - discarded`.
    pub fn tallied(&self) -> usize {
        self.n() - self.discarded
    }

    /// Votes discarded through abstention.
    pub fn discarded(&self) -> usize {
        self.discarded
    }

    /// Number of delegating voters (Definition 2's `Delegate(n)`).
    pub fn delegators(&self) -> usize {
        self.delegators
    }

    /// Number of sinks.
    pub fn sink_count(&self) -> usize {
        self.sinks.len()
    }

    /// Longest delegation chain.
    pub fn longest_chain(&self) -> usize {
        self.longest_chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_vote_resolution() {
        let dg: DelegationGraph = (0..4).map(|_| Action::Vote).collect();
        let res = dg.resolve().unwrap();
        assert_eq!(res.sinks(), &[0, 1, 2, 3]);
        assert_eq!(res.max_weight(), 1);
        assert_eq!(res.tallied(), 4);
        assert_eq!(res.delegators(), 0);
        assert_eq!(res.longest_chain(), 0);
        assert_eq!(res.sink_count(), 4);
    }

    #[test]
    fn chain_resolution_accumulates_weight() {
        // 0 -> 1 -> 2 -> 3 (votes)
        let dg = DelegationGraph::new(vec![
            Action::Delegate(1),
            Action::Delegate(2),
            Action::Delegate(3),
            Action::Vote,
        ]);
        let res = dg.resolve().unwrap();
        assert_eq!(res.sinks(), &[3]);
        assert_eq!(res.weight_of(3), 4);
        assert_eq!(res.sink_of(0), Some(3));
        assert_eq!(res.longest_chain(), 3);
        assert_eq!(res.delegators(), 3);
    }

    #[test]
    fn star_delegation_is_the_dictatorship() {
        let mut actions = vec![Action::Delegate(8); 8];
        actions.push(Action::Vote);
        let dg = DelegationGraph::new(actions);
        let res = dg.resolve().unwrap();
        assert_eq!(res.sinks(), &[8]);
        assert_eq!(res.max_weight(), 9);
        assert_eq!(res.sink_count(), 1);
    }

    #[test]
    fn cycle_is_rejected() {
        let dg = DelegationGraph::new(vec![Action::Delegate(1), Action::Delegate(0)]);
        assert!(!dg.is_acyclic());
        assert_eq!(dg.resolve().unwrap_err(), CoreError::CyclicDelegation);
    }

    #[test]
    fn multi_target_cycle_is_detected() {
        let cyclic = DelegationGraph::new(vec![
            Action::Delegate(1),
            Action::DelegateMany(vec![2, 2]),
            Action::Delegate(0),
        ]);
        assert!(!cyclic.is_acyclic());
        assert_eq!(
            cyclic.topological_order().unwrap_err(),
            CoreError::CyclicDelegation
        );
    }

    #[test]
    fn multi_target_self_targets_are_not_cycles() {
        let self_loops = DelegationGraph::new(vec![
            Action::Delegate(1),
            Action::DelegateMany(vec![1, 2]),
            Action::Delegate(2),
        ]);
        assert_eq!(self_loops.topological_order().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn topological_order_follows_the_stack_discipline() {
        // Seeds pop largest first; a popped voter's targets are pushed
        // in action order, so the last-named target comes out first.
        assert_eq!(
            DelegationGraph::new(vec![Action::Vote; 3]).topological_order(),
            Ok(vec![2, 1, 0])
        );
        let dg = DelegationGraph::new(vec![
            Action::DelegateMany(vec![2, 1]),
            Action::Vote,
            Action::Vote,
            Action::DelegateMany(vec![1, 1]),
        ]);
        // 1 is named twice by 3 and once by 0: it is released only
        // after both have been popped.
        assert_eq!(dg.topological_order(), Ok(vec![3, 0, 1, 2]));
    }

    #[test]
    fn topological_order_respects_delegations() {
        // A deterministic pseudo-random DAG on 500 voters (targets only
        // above the delegator, so acyclic by construction).
        let n = 500;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut actions: Vec<Action> = (0..n - 1)
            .map(|u| {
                Action::DelegateMany(
                    (0..3)
                        .map(|_| u + 1 + (next() as usize) % (n - u - 1))
                        .collect(),
                )
            })
            .collect();
        actions.push(Action::Vote);
        let dg = DelegationGraph::new(actions);
        let order = dg.topological_order().unwrap();
        let mut pos = vec![usize::MAX; n];
        for (idx, &v) in order.iter().enumerate() {
            assert_eq!(pos[v], usize::MAX, "voter {v} repeated in order");
            pos[v] = idx;
        }
        for (u, a) in dg.actions().iter().enumerate() {
            for &v in a.targets() {
                assert!(pos[u] < pos[v], "delegation ({u},{v}) violates the order");
            }
        }
    }

    #[test]
    fn self_delegation_counts_as_voting() {
        let dg = DelegationGraph::new(vec![Action::Delegate(0), Action::Delegate(0)]);
        let res = dg.resolve().unwrap();
        assert_eq!(res.sinks(), &[0]);
        assert_eq!(res.weight_of(0), 2);
    }

    #[test]
    fn abstention_discards_whole_chain() {
        // 0 delegates to 1 who abstains; 2 votes.
        let dg = DelegationGraph::new(vec![Action::Delegate(1), Action::Abstain, Action::Vote]);
        let res = dg.resolve().unwrap();
        assert_eq!(res.sinks(), &[2]);
        assert_eq!(res.tallied(), 1);
        assert_eq!(res.discarded(), 2);
        assert_eq!(res.sink_of(0), None);
        assert_eq!(res.sink_of(2), Some(2));
    }

    #[test]
    fn weights_conserve_votes() {
        let dg = DelegationGraph::new(vec![
            Action::Delegate(2),
            Action::Vote,
            Action::Vote,
            Action::Delegate(1),
            Action::Abstain,
        ]);
        let res = dg.resolve().unwrap();
        let total: usize = res.sink_weights().map(|(_, w)| w).sum();
        assert_eq!(total + res.discarded(), 5);
        assert_eq!(total, res.tallied());
    }

    #[test]
    fn delegate_many_blocks_exact_resolution() {
        let dg = DelegationGraph::new(vec![
            Action::DelegateMany(vec![1, 2]),
            Action::Vote,
            Action::Vote,
        ]);
        assert!(!dg.is_single_target());
        assert!(matches!(
            dg.resolve(),
            Err(CoreError::InvalidParameter { .. })
        ));
        assert_eq!(dg.delegator_count(), 1);
        assert!(dg.is_acyclic());
    }

    #[test]
    fn empty_graph_resolution() {
        let dg = DelegationGraph::new(vec![]);
        let res = dg.resolve().unwrap();
        assert_eq!(res.n(), 0);
        assert_eq!(res.max_weight(), 0);
        assert_eq!(res.tallied(), 0);
    }

    #[test]
    fn out_of_range_target_is_a_typed_error() {
        let dg = DelegationGraph::new(vec![Action::Delegate(5), Action::Vote]);
        assert_eq!(
            dg.resolve().unwrap_err(),
            CoreError::DelegationTargetOutOfRange {
                voter: 0,
                target: 5,
                n: 2
            }
        );
        assert_eq!(
            DelegationGraph::try_new(vec![Action::Vote, Action::DelegateMany(vec![0, 7])])
                .unwrap_err(),
            CoreError::DelegationTargetOutOfRange {
                voter: 1,
                target: 7,
                n: 2
            }
        );
        assert!(DelegationGraph::try_new(vec![Action::Delegate(1), Action::Vote]).is_ok());
    }

    #[test]
    fn from_parts_roundtrips_a_resolution() {
        let dg = DelegationGraph::new(vec![
            Action::Delegate(2),
            Action::Abstain,
            Action::Vote,
            Action::Delegate(2),
            Action::Vote,
        ]);
        let res = dg.resolve().unwrap();
        let rebuilt = Resolution::from_parts(
            res.sink_assignments().to_vec(),
            res.weights().to_vec(),
            res.discarded(),
            res.delegators(),
            res.longest_chain(),
        );
        assert_eq!(rebuilt, res);
    }

    #[test]
    fn action_is_delegation() {
        assert!(!Action::Vote.is_delegation());
        assert!(!Action::Abstain.is_delegation());
        assert!(Action::Delegate(3).is_delegation());
        assert!(Action::DelegateMany(vec![1]).is_delegation());
    }
}
