//! Flat CSR (compressed sparse row) delegation resolver and the
//! resolution/tally kernels built on it.
//!
//! A [`CsrForest`] is the repository's one delegation resolver:
//! [`DelegationGraph::resolve`] runs it once and snapshots the result as
//! an owned [`Resolution`], while Monte Carlo loops keep one forest and
//! resolve millions of draws into it without allocating. The forest
//! holds two reusable `u32` arrays of `n` entries:
//!
//! ```text
//! sink_of = [ sink of voter 0 | sink of voter 1 | ... ]   (or DISCARDED)
//! weight  = [ votes voter 0 casts | votes voter 1 casts | ... ]
//! ```
//!
//! * `sink_of[i]` — the sink that casts voter `i`'s vote, or
//!   [`DISCARDED`] when the chain ends at an abstainer;
//! * `weight[v]` — the votes sink `v` casts (its own plus every vote
//!   delegated to it), 0 unless `v` is a sink.
//!
//! [`CsrForest::resolve`] is an iterative chase with path memoisation
//! that writes both arrays in one pass and never allocates once the
//! buffers have grown to the working size. Every tally reads only
//! `weight`: [`CsrForest::fold_weighted_coins`] folds a coin vector
//! against it, and [`CsrForest::exact_correct_probability`] feeds its
//! sinks to the weighted Poisson-binomial.
//!
//! For bit-packed coin vectors (64 voters per `u64` word, as drawn by
//! `ld_prob::coins`), [`CsrForest::pack_sink_weights`] transposes the
//! weight array into [`PackedSinkWeights`] bit-planes — plane `b`
//! holds bit `b` of every sink's weight, voter `i` at bit `i % 64` of
//! word `i / 64` — and [`CsrForest::fold_weighted_coins_packed`] reduces
//! a whole word per plane with `popcount(coins & plane) << b`, summing
//! 64 weighted coins per AND+POPCNT instead of one per multiply.
//!
//! The differential conformance suite (`ld-testkit`'s `resolve-oracle`
//! and `csr-tally-oracle` checks) pins this module against the naive
//! recursive oracles on the full seeded grid;
//! [`CsrForest::skew_weights_for_tests`] exists so the suite can prove a
//! deliberately misplaced vote in the weight array is actually caught.

use crate::delegation::{Action, DelegationGraph, Resolution};
use crate::error::{CoreError, Result};
use crate::instance::ProblemInstance;
use crate::tally::TieBreak;
use ld_prob::poisson_binomial::WeightedBernoulliSum;

/// Sentinel in `sink_of`: the voter's chain reached an abstainer and the
/// vote is discarded.
pub const DISCARDED: u32 = u32::MAX;

/// Sentinel used only *during* a resolve: the voter has not been chased
/// yet. Never visible after [`CsrForest::resolve`] returns.
const UNRESOLVED: u32 = u32::MAX - 1;

/// Bit-plane transpose of a resolution's sink-weight array, sized for
/// 64-wide packed coin words: plane `b`, word `w` holds bit `b` of the
/// weight of each sink `s` with `s / 64 == w`, at bit position `s % 64`.
/// Non-sinks (weight 0) contribute zero bits to every plane, so a packed
/// fold never needs a sink mask. Built by
/// [`CsrForest::pack_sink_weights`]; one instance is reusable scratch
/// across resolutions of any size (buffers only grow).
#[derive(Debug, Default, Clone)]
pub struct PackedSinkWeights {
    /// Coin words the planes are sized for (`ceil(n / 64)`).
    words: usize,
    /// Plane-major bit matrix: `planes[b * words + w]`.
    planes: Vec<u64>,
}

impl PackedSinkWeights {
    /// Empty scratch; sized on first [`CsrForest::pack_sink_weights`].
    pub fn new() -> Self {
        PackedSinkWeights::default()
    }

    /// Coin words per plane (`ceil(n / 64)` of the packed resolution).
    pub fn words(&self) -> usize {
        self.words
    }

    /// Number of bit-planes (`bit_length(max_weight)`; 0 when every vote
    /// was discarded).
    pub fn plane_count(&self) -> usize {
        self.planes.len().checked_div(self.words).unwrap_or(0)
    }

    /// Folds packed coins against the planes: the total weight behind
    /// `true` coins, `Σ_b popcount(coins[w] & plane_b[w]) << b`. Spare
    /// tail bits in `coins` beyond the packed `n` are harmless — the
    /// planes are zero there.
    ///
    /// # Panics
    ///
    /// Panics if `coins` holds fewer than [`Self::words`] words.
    pub fn fold(&self, coins: &[u64]) -> u64 {
        assert!(
            coins.len() >= self.words,
            "coin vector holds {} words, planes need {}",
            coins.len(),
            self.words
        );
        let mut acc = 0u64;
        for (b, plane) in self.planes.chunks_exact(self.words.max(1)).enumerate() {
            let mut ones = 0u64;
            for (&p, &c) in plane.iter().zip(coins.iter()) {
                ones += u64::from((p & c).count_ones());
            }
            acc += ones << b;
        }
        acc
    }
}

/// A resolved delegation forest in CSR form, plus the scratch buffers the
/// resolve itself needs. One instance serves an unbounded stream of
/// resolutions of any sizes; buffers only ever grow.
///
/// # Examples
///
/// ```
/// use ld_core::csr::CsrForest;
/// use ld_core::delegation::{Action, DelegationGraph};
///
/// let dg = DelegationGraph::new(vec![
///     Action::Delegate(2),
///     Action::Delegate(2),
///     Action::Vote,
/// ]);
/// let mut forest = CsrForest::new();
/// forest.resolve(&dg)?;
/// assert_eq!(forest.weight_of(2), 3);
/// assert_eq!(forest.weight_of(0), 0);
/// assert_eq!(forest.sink_of(0), Some(2));
/// assert_eq!(forest.sink_weights().collect::<Vec<_>>(), [(2, 3)]);
/// # Ok::<(), ld_core::CoreError>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct CsrForest {
    /// Per-voter sink, or [`DISCARDED`]; `n` entries.
    sink_of: Vec<u32>,
    /// Per-voter cast votes, plus one trailing slot that counts the
    /// discarded votes during a resolve; `n + 1` entries.
    weight: Vec<u32>,
    /// Voters in the currently-held resolution.
    n: usize,
    /// Votes discarded through abstention.
    discarded: usize,
    /// Delegating voters (single or multi; mirrors
    /// [`DelegationGraph::delegator_count`]).
    delegators: usize,
    /// Longest delegation chain in edges.
    longest_chain: usize,
    /// Maximum weight of any sink.
    max_weight: usize,
    /// Number of sinks (voters with positive weight).
    sink_count: usize,
    /// Largest `n` ever resolved — the scratch-reuse high-water mark.
    cap_n: usize,
    /// Per-voter successor, written by the resolve's scan: the target
    /// of a delegation, the voter itself for a direct vote (or a
    /// self-delegation), [`DISCARDED`] for an abstention.
    next: Vec<u32>,
    /// Per-voter chain depth in edges.
    depth: Vec<u32>,
    /// Voters per weight `0..=max_weight`, for [`CsrForest::weight_gini`].
    gini: Vec<u32>,
    /// `(weight, competency)` buffer for
    /// [`CsrForest::exact_correct_probability`].
    terms: Vec<(usize, f64)>,
}

impl CsrForest {
    /// An empty forest; buffers grow on first use.
    pub fn new() -> Self {
        CsrForest::default()
    }

    /// A forest with buffers pre-sized for `n`-voter graphs.
    pub fn with_capacity(n: usize) -> Self {
        CsrForest {
            sink_of: Vec::with_capacity(n),
            weight: Vec::with_capacity(n + 1),
            next: Vec::with_capacity(n),
            depth: Vec::with_capacity(n),
            cap_n: n,
            ..CsrForest::default()
        }
    }

    /// Whether resolving an `n`-voter graph reuses the existing buffers
    /// without growing them — the scheduler's scratch-reuse signal.
    pub fn fits(&self, n: usize) -> bool {
        n <= self.cap_n
    }

    /// Resolves `dg` into the forest, replacing any previous contents.
    ///
    /// Errors come in a fixed precedence (`DelegateMany` first, then
    /// out-of-range targets in voter order, then cycles); self-delegation
    /// counts as voting, and chains into abstainers are discarded.
    ///
    /// One scan over the actions checks them, counts the delegators and
    /// turns each action into a `u32` successor; then an iterative chase
    /// with path memoisation resolves every voter. The chase starts from voters in
    /// *reverse* index order. No output depends on that order (each
    /// voter's sink and depth are a function of the graph, and so is
    /// every counter), but cost does: approval mechanisms only delegate
    /// to more competent voters, who have higher indices, so by the time
    /// a voter is chased its target is already resolved and the chase
    /// stops after one step. In voter order it would instead walk each
    /// chain to its sink before memoising anything.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] if the graph contains
    ///   [`Action::DelegateMany`] or has `u32::MAX - 1` voters or more.
    /// * [`CoreError::DelegationTargetOutOfRange`] for the first voter
    ///   whose target is `>= n`.
    /// * [`CoreError::CyclicDelegation`] if delegations form a cycle.
    pub fn resolve(&mut self, dg: &DelegationGraph) -> Result<()> {
        if self.try_resolve(dg)? {
            Ok(())
        } else {
            Err(CoreError::InvalidParameter {
                reason: "resolve requires single-target delegations; \
                         use tally::sample_decision for weighted-majority graphs"
                    .to_string(),
            })
        }
    }

    /// [`Self::resolve`], but a graph with an [`Action::DelegateMany`]
    /// is `Ok(false)` and leaves the forest as it was, so a caller that
    /// scores such graphs another way needs no scan of its own.
    pub(crate) fn try_resolve(&mut self, dg: &DelegationGraph) -> Result<bool> {
        let actions = dg.actions();
        let n = actions.len();
        let mut delegators = 0usize;
        let mut out_of_range = None;
        self.next.clear();
        self.next.resize(n, 0);
        for ((voter, action), next) in actions.iter().enumerate().zip(&mut self.next) {
            *next = match *action {
                Action::Vote => voter as u32,
                Action::Abstain => DISCARDED,
                Action::Delegate(target) => {
                    delegators += 1;
                    if target >= n && out_of_range.is_none() {
                        out_of_range = Some((voter, target));
                    }
                    target as u32
                }
                Action::DelegateMany(_) => return Ok(false),
            };
        }
        if let Some((voter, target)) = out_of_range {
            return Err(CoreError::DelegationTargetOutOfRange { voter, target, n });
        }
        if n >= UNRESOLVED as usize {
            return Err(CoreError::InvalidParameter {
                reason: format!(
                    "CSR resolve supports at most {} voters, got {n}",
                    UNRESOLVED
                ),
            });
        }
        self.n = n;
        self.cap_n = self.cap_n.max(n);
        self.sink_of.clear();
        self.sink_of.resize(n, UNRESOLVED);
        self.weight.clear();
        self.weight.resize(n + 1, 0);
        self.depth.clear();
        self.depth.resize(n, 0);

        // Chase with path memoisation, latest voter first (see above). A
        // chase walks `next` to the first voter that is already resolved
        // or ends the chain itself (a vote, a self-delegation or an
        // abstention, resolved on the spot), then walks the same path
        // again writing its terminal and depth. No acyclic chain has more
        // than n - 1 edges, so a walk longer than n is a cycle. Every
        // voter is written once, so adding each chase's newly resolved
        // voters to its terminal's weight counts every vote exactly
        // once; `weight[n]` takes the discarded ones.
        let (sink_of, weight) = (&mut self.sink_of, &mut self.weight);
        let (next, depth) = (&self.next, &mut self.depth);
        let mut longest_chain = 0u32;
        for start in (0..n).rev() {
            let (mut end, mut len, mut own) = (start, 0u32, 0u32);
            while sink_of[end] == UNRESOLVED {
                let t = next[end];
                if t == end as u32 || t == DISCARDED {
                    sink_of[end] = t;
                    own = 1;
                    break;
                }
                if len as usize == n {
                    return Err(CoreError::CyclicDelegation);
                }
                len += 1;
                end = t as usize;
            }
            // (terminal, base): the chain's end (sink id or DISCARDED) and
            // the chain depth at `end`; the voter k edges above it sits at
            // depth base + k.
            let (terminal, base) = (sink_of[end], depth[end]);
            let mut v = start;
            for above in (1..=len).rev() {
                sink_of[v] = terminal;
                depth[v] = base + above;
                v = next[v] as usize;
            }
            weight[(terminal as usize).min(n)] += len + own;
            longest_chain = longest_chain.max(base + len);
        }
        let (mut max_weight, mut sink_count) = (0u32, 0usize);
        for &w in &weight[..n] {
            max_weight = max_weight.max(w);
            sink_count += usize::from(w > 0);
        }

        self.discarded = weight[n] as usize;
        self.delegators = delegators;
        self.longest_chain = longest_chain as usize;
        self.max_weight = max_weight as usize;
        self.sink_count = sink_count;
        Ok(true)
    }

    /// Number of voters in the held resolution.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total tallied votes `n - discarded`.
    pub fn tallied(&self) -> usize {
        self.n - self.discarded
    }

    /// Votes discarded through abstention.
    pub fn discarded(&self) -> usize {
        self.discarded
    }

    /// Number of delegating voters.
    pub fn delegators(&self) -> usize {
        self.delegators
    }

    /// Longest delegation chain in edges.
    pub fn longest_chain(&self) -> usize {
        self.longest_chain
    }

    /// Maximum weight of any sink (0 when everyone abstained).
    pub fn max_weight(&self) -> usize {
        self.max_weight
    }

    /// Number of sinks.
    pub fn sink_count(&self) -> usize {
        self.sink_count
    }

    /// The weight array: `weights()[v]` votes are cast by voter `v` (0
    /// unless `v` is a sink).
    fn weights(&self) -> &[u32] {
        &self.weight[..self.n]
    }

    /// The sink that casts voter `i`'s vote, or `None` if discarded.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n()`.
    pub fn sink_of(&self, i: usize) -> Option<usize> {
        assert!(i < self.n, "voter {i} out of range (n = {})", self.n);
        match self.sink_of[i] {
            DISCARDED => None,
            s => Some(s as usize),
        }
    }

    /// Weight carried by voter `v` (0 unless `v` is a sink).
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.n()`.
    pub fn weight_of(&self, v: usize) -> usize {
        self.weights()[v] as usize
    }

    /// Iterator over `(sink, weight)` pairs in increasing sink order.
    pub fn sink_weights(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.weights()
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w > 0)
            .map(|(s, &w)| (s, w as usize))
    }

    /// The structure-of-arrays tally kernel: folds a per-voter coin vector
    /// over the weight array in one branch-free pass, returning the
    /// total weight behind `true` coins. Only sinks' coins matter (a sink
    /// votes its whole subtree's weight); non-sinks contribute weight 0
    /// regardless of their coin.
    ///
    /// # Panics
    ///
    /// Panics if `coins.len() < self.n()`.
    pub fn fold_weighted_coins(&self, coins: &[bool]) -> u64 {
        assert!(coins.len() >= self.n, "coin vector shorter than n");
        self.weights()
            .iter()
            .zip(coins)
            .map(|(&w, &c)| u64::from(w) * u64::from(c))
            .sum()
    }

    /// Transposes the held resolution's sink weights into `out`'s
    /// bit-planes for [`CsrForest::fold_weighted_coins_packed`]. Weights
    /// are bounded by `n`, so the plane count is `bit_length(max_weight)`
    /// — at most `ceil(log2(n + 1))` word-passes per fold. The pack is
    /// per-resolution scratch: rebuild it after every [`Self::resolve`],
    /// never inside the tally loop.
    ///
    /// The transpose has no branch on a weight or a bit: eight lanes'
    /// bytes `(w >> low) as u8` are loaded as one `u64`, and each plane
    /// `b` in `low..low + 8` takes bit `b − low` of all eight bytes at
    /// once, gathered into one byte by a multiply (the bits sit 8 apart,
    /// so the partial products never carry into the top byte).
    pub fn pack_sink_weights(&self, out: &mut PackedSinkWeights) {
        const LOW_BITS: u64 = 0x0101_0101_0101_0101;
        const GATHER: u64 = 0x0102_0408_1020_4080;
        let words = self.n.div_ceil(64);
        let bits = (usize::BITS - self.max_weight.leading_zeros()) as usize;
        out.words = words;
        out.planes.clear();
        out.planes.resize(bits * words, 0);
        for (i, lanes) in self.weights().chunks(8).enumerate() {
            let (word, shift) = (i / 8, 8 * (i % 8));
            for low in (0..bits).step_by(8) {
                let mut bytes = [0u8; 8];
                for (byte, &w) in bytes.iter_mut().zip(lanes) {
                    *byte = (w >> low) as u8;
                }
                let x = u64::from_le_bytes(bytes);
                for b in low..bits.min(low + 8) {
                    let gathered = ((x >> (b - low)) & LOW_BITS).wrapping_mul(GATHER) >> 56;
                    out.planes[b * words + word] |= gathered << shift;
                }
            }
        }
    }

    /// The 64-wide tally kernel: folds a bit-packed coin vector (voter
    /// `i` at bit `i % 64` of `coins[i / 64]`, per the `ld_prob::coins`
    /// contract) against pre-transposed weight planes, returning the same
    /// total as [`CsrForest::fold_weighted_coins`] on the expanded coins.
    ///
    /// # Panics
    ///
    /// Panics if `weights` was packed for a different `n` than the held
    /// resolution, or if `coins` is shorter than the packed word count.
    pub fn fold_weighted_coins_packed(&self, weights: &PackedSinkWeights, coins: &[u64]) -> u64 {
        assert_eq!(
            weights.words,
            self.n.div_ceil(64),
            "weight planes packed for a different resolution size"
        );
        weights.fold(coins)
    }

    /// Exact probability that the held resolution decides correctly on
    /// `instance` — [`crate::tally::exact_correct_probability`] on the
    /// held resolution, reusing an internal term buffer, bit for bit:
    /// terms are emitted in increasing sink order, and the weighted DP
    /// skips only the pmf entries that can no longer reach a majority
    /// ([`WeightedBernoulliSum::majority_with_ties_of`]).
    ///
    /// # Errors
    ///
    /// Propagates probability-layer validation errors.
    pub fn exact_correct_probability(
        &mut self,
        instance: &ProblemInstance,
        tie: TieBreak,
    ) -> Result<f64> {
        let ps = instance.profile().as_slice();
        let mut terms = std::mem::take(&mut self.terms);
        terms.clear();
        terms.extend(self.sink_weights().map(|(s, w)| (w, ps[s])));
        let p = WeightedBernoulliSum::majority_with_ties_of(&terms, self.tallied(), tie.credit());
        self.terms = terms;
        Ok(p?)
    }

    /// The Gini coefficient of voting power across **all** voters (weight
    /// 0 for non-sinks): 0 for direct voting (everyone holds one vote),
    /// approaching 1 for a dictatorship. Returns 0 when no votes were
    /// tallied. `&mut` only for the internal counting buffer.
    ///
    /// Concentration of voting power is exactly what the empirical liquid
    /// democracy studies the paper cites (\[26\] on the Pirate Party's
    /// LiquidFeedback, \[32\] on Gitcoin and the Internet Computer)
    /// measure; this makes the same diagnostic available on simulated
    /// outcomes.
    pub fn weight_gini(&mut self) -> f64 {
        let n = self.n;
        let total = self.tallied();
        if n == 0 || total == 0 {
            return 0.0;
        }
        // Sorted-weights formula with 1-based ranks:
        // G = (2 Σ_i i·w_(i)) / (n Σ w) − (n + 1)/n.
        // Weights are at most `max_weight`, so a counting sort orders
        // them. Zero weights precede the sinks and add nothing to the rank
        // sum, so the sum starts past them and adds the sinks' terms in
        // ascending weight order.
        let counts = &mut self.gini;
        counts.clear();
        counts.resize(self.max_weight + 1, 0);
        for &w in &self.weight[..n] {
            counts[w as usize] += 1;
        }
        let mut rank = counts[0] as usize;
        let mut weighted_rank_sum = 0.0f64;
        for (w, &count) in counts.iter().enumerate().skip(1) {
            for _ in 0..count {
                weighted_rank_sum += (rank as f64 + 1.0) * w as f64;
                rank += 1;
            }
        }
        let nf = n as f64;
        (2.0 * weighted_rank_sum / (nf * total as f64) - (nf + 1.0) / nf).max(0.0)
    }

    /// Materializes the held resolution as an owning [`Resolution`] — the
    /// interop/cross-check path; allocates, so keep it off hot loops.
    pub fn to_resolution(&self) -> Resolution {
        Resolution::from_parts(
            (0..self.n).map(|i| self.sink_of(i)).collect(),
            self.weights().iter().map(|&w| w as usize).collect(),
            self.discarded,
            self.delegators,
            self.longest_chain,
        )
    }

    /// **Testing only.** Misplaces votes in the weight array: every sink
    /// `s < n − 1`, in increasing order, hands one vote to voter `s + 1`,
    /// and `max_weight`/`sink_count` are recounted so the packed planes
    /// carry the skewed weights. The total and `sink_of` are unchanged,
    /// but the weights are now wrong wherever some sink other than voter
    /// `n − 1` exists (on direct voting the first voter loses its vote
    /// and the last one gains it). The differential `resolve-oracle`,
    /// `csr-tally-oracle` and `packed-tally-oracle` checks must catch
    /// this; `ld-testkit` wires it up as the `csr-offset` mutation.
    pub fn skew_weights_for_tests(&mut self) {
        let n = self.n;
        for s in 0..n.saturating_sub(1) {
            if self.sink_of[s] == s as u32 {
                self.weight[s] -= 1;
                self.weight[s + 1] += 1;
            }
        }
        let weights = &self.weight[..n];
        self.max_weight = weights.iter().copied().max().unwrap_or(0) as usize;
        self.sink_count = weights.iter().filter(|&&w| w > 0).count();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delegation::DelegationGraph;

    fn resolved(actions: Vec<Action>) -> CsrForest {
        let mut forest = CsrForest::new();
        forest
            .resolve(&DelegationGraph::new(actions))
            .expect("resolves");
        forest
    }

    #[test]
    fn chain_matches_recursive_resolution() {
        let forest = resolved(vec![
            Action::Delegate(1),
            Action::Delegate(2),
            Action::Delegate(3),
            Action::Vote,
        ]);
        assert_eq!(forest.weight_of(3), 4);
        assert_eq!(forest.weights(), &[0, 0, 0, 4]);
        assert!((0..4).all(|v| forest.sink_of(v) == Some(3)));
        assert_eq!(forest.longest_chain(), 3);
        assert_eq!(forest.delegators(), 3);
        assert_eq!(forest.max_weight(), 4);
        assert_eq!(forest.sink_count(), 1);
    }

    #[test]
    fn abstention_discards_whole_chain() {
        let forest = resolved(vec![Action::Delegate(1), Action::Abstain, Action::Vote]);
        assert_eq!(forest.sink_of(0), None);
        assert_eq!(forest.sink_of(1), None);
        assert_eq!(forest.sink_of(2), Some(2));
        assert_eq!(forest.discarded(), 2);
        assert_eq!(forest.tallied(), 1);
        assert_eq!(forest.weights(), &[0, 0, 1]);
    }

    #[test]
    fn fold_weighted_coins_matches_per_voter_walk() {
        let actions = vec![
            Action::Delegate(2),
            Action::Vote,
            Action::Vote,
            Action::Delegate(1),
            Action::Abstain,
            Action::Delegate(4),
        ];
        let forest = resolved(actions.clone());
        let coins = [true, false, true, true, false, true];
        let naive: u64 = (0..actions.len())
            .filter_map(|i| forest.sink_of(i))
            .map(|s| u64::from(coins[s]))
            .sum();
        assert_eq!(forest.fold_weighted_coins(&coins), naive);
    }

    /// Packs a bool coin vector into the 64-wide word layout.
    fn pack_coins(coins: &[bool]) -> Vec<u64> {
        let mut words = vec![0u64; coins.len().div_ceil(64)];
        for (i, &c) in coins.iter().enumerate() {
            words[i / 64] |= u64::from(c) << (i % 64);
        }
        words
    }

    #[test]
    fn packed_fold_matches_scalar_fold_and_per_voter_walk() {
        use ld_prob::rng::{Rng, StdRng};

        let mut rng = StdRng::seed_from_u64(0xC01_F01D);
        let mut forest = CsrForest::new();
        let mut packed = PackedSinkWeights::new();
        // Sizes straddle word boundaries: ragged tails, one exact word,
        // and multi-word arenas.
        for n in [1usize, 2, 63, 64, 65, 127, 130, 200] {
            for _ in 0..8 {
                let actions: Vec<Action> = (0..n)
                    .map(|_| match rng.gen_range(0u8..10) {
                        0 => Action::Abstain,
                        1..=6 => Action::Delegate(rng.gen_range(0..n)),
                        _ => Action::Vote,
                    })
                    .collect();
                let dg = DelegationGraph::new(actions);
                if forest.resolve(&dg).is_err() {
                    continue; // cyclic draw; irrelevant here
                }
                forest.pack_sink_weights(&mut packed);
                assert_eq!(packed.words(), n.div_ceil(64));
                let coins: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
                let words = pack_coins(&coins);
                let scalar = forest.fold_weighted_coins(&coins);
                let fast = forest.fold_weighted_coins_packed(&packed, &words);
                assert_eq!(fast, scalar, "n={n}");
                let naive: u64 = (0..n)
                    .filter_map(|i| forest.sink_of(i))
                    .map(|s| u64::from(coins[s]))
                    .sum();
                assert_eq!(fast, naive, "n={n}");
            }
        }
    }

    #[test]
    fn packed_fold_ignores_dirty_tail_bits() {
        let forest = resolved(vec![Action::Vote, Action::Delegate(0), Action::Vote]);
        let mut packed = PackedSinkWeights::new();
        forest.pack_sink_weights(&mut packed);
        let clean = forest.fold_weighted_coins_packed(&packed, &[0b101]);
        // Bits ≥ n never intersect a weight plane, whatever their value.
        let dirty = forest.fold_weighted_coins_packed(&packed, &[0b101 | !0b111]);
        assert_eq!(clean, dirty);
        assert_eq!(clean, 3); // sink 0 carries 2, sink 2 carries 1
    }

    #[test]
    fn packed_fold_on_empty_and_all_abstain_forests() {
        let empty = resolved(vec![]);
        let mut packed = PackedSinkWeights::new();
        empty.pack_sink_weights(&mut packed);
        assert_eq!(packed.words(), 0);
        assert_eq!(packed.plane_count(), 0);
        assert_eq!(empty.fold_weighted_coins_packed(&packed, &[]), 0);
        let gone = resolved(vec![Action::Abstain; 70]);
        gone.pack_sink_weights(&mut packed);
        assert_eq!(packed.words(), 2);
        assert_eq!(packed.plane_count(), 0);
        assert_eq!(gone.fold_weighted_coins_packed(&packed, &[!0u64; 2]), 0);
    }

    #[test]
    fn skewed_weights_are_visible_through_the_packed_fold() {
        let mut forest = resolved(vec![Action::Vote; 4]);
        let mut packed = PackedSinkWeights::new();
        forest.pack_sink_weights(&mut packed);
        let honest = forest.fold_weighted_coins_packed(&packed, &[0b0101]);
        forest.skew_weights_for_tests();
        forest.pack_sink_weights(&mut packed);
        let skewed = forest.fold_weighted_coins_packed(&packed, &[0b0101]);
        assert_ne!(honest, skewed, "the csr-offset mutation must be observable");
    }

    #[test]
    fn scratch_reuse_across_sizes() {
        let mut forest = CsrForest::new();
        assert!(!forest.fits(1));
        forest
            .resolve(&DelegationGraph::new(vec![Action::Vote; 16]))
            .unwrap();
        assert!(forest.fits(16));
        assert!(!forest.fits(17));
        // Shrinking keeps the high-water mark.
        forest
            .resolve(&DelegationGraph::new(vec![Action::Vote; 4]))
            .unwrap();
        assert!(forest.fits(16));
        assert_eq!(forest.n(), 4);
        assert_eq!(forest.tallied(), 4);
    }

    #[test]
    fn skewed_weights_move_votes_but_keep_the_total() {
        for (actions, want) in [
            (vec![Action::Vote; 4], vec![0, 1, 1, 2]),
            // One sink below the top voter hands a vote to a delegator,
            // which the packed planes must then carry as a new sink.
            (
                vec![Action::Delegate(1), Action::Vote, Action::Delegate(1)],
                vec![0, 2, 1],
            ),
        ] {
            let mut forest = resolved(actions);
            let sinks: Vec<_> = (0..forest.n()).map(|v| forest.sink_of(v)).collect();
            forest.skew_weights_for_tests();
            assert_eq!(forest.weights(), want, "the mutation must be observable");
            assert_eq!(
                forest.weights().iter().sum::<u32>() as usize,
                forest.tallied()
            );
            let now: Vec<_> = (0..forest.n()).map(|v| forest.sink_of(v)).collect();
            assert_eq!(now, sinks);
            assert_eq!(forest.max_weight(), *want.iter().max().unwrap() as usize);
            assert_eq!(forest.sink_count(), want.iter().filter(|&&w| w > 0).count());
        }
    }

    #[test]
    fn weights_count_the_voters_each_sink_receives() {
        use ld_prob::rng::{Rng, StdRng};

        let mut rng = StdRng::seed_from_u64(0x5EED_CAFE);
        let mut forest = CsrForest::new();
        for n in [1usize, 2, 7, 64, 65, 300] {
            for _ in 0..8 {
                let actions: Vec<Action> = (0..n)
                    .map(|_| match rng.gen_range(0u8..10) {
                        0 => Action::Abstain,
                        1..=6 => Action::Delegate(rng.gen_range(0..n)),
                        _ => Action::Vote,
                    })
                    .collect();
                if forest.resolve(&DelegationGraph::new(actions)).is_err() {
                    continue;
                }
                let mut landed = vec![0u32; n];
                for v in 0..n {
                    if let Some(s) = forest.sink_of(v) {
                        landed[s] += 1;
                    }
                }
                assert_eq!(forest.weights(), landed, "n={n}");
                let discarded = (0..n).filter(|&v| forest.sink_of(v).is_none()).count();
                assert_eq!(forest.discarded(), discarded);
                assert_eq!(forest.max_weight(), *landed.iter().max().unwrap() as usize);
                assert_eq!(
                    forest.sink_count(),
                    landed.iter().filter(|&&w| w > 0).count()
                );
            }
        }
    }

    /// The comparison sort `weight_gini` used before the counting sort.
    fn sorted_gini(forest: &CsrForest) -> f64 {
        let n = forest.n();
        let total = forest.tallied();
        if n == 0 || total == 0 {
            return 0.0;
        }
        let mut sorted: Vec<u32> = forest
            .weights()
            .iter()
            .copied()
            .filter(|&w| w > 0)
            .collect();
        sorted.sort_unstable();
        let rank_offset = n - sorted.len();
        let weighted_rank_sum: f64 = sorted
            .iter()
            .enumerate()
            .map(|(idx, &w)| ((rank_offset + idx) as f64 + 1.0) * w as f64)
            .sum();
        let nf = n as f64;
        (2.0 * weighted_rank_sum / (nf * total as f64) - (nf + 1.0) / nf).max(0.0)
    }

    #[test]
    fn counting_sort_gini_is_bit_identical_to_the_sorted_sum() {
        use ld_prob::rng::{Rng, StdRng};

        let mut rng = StdRng::seed_from_u64(0x6141);
        let mut forest = CsrForest::new();
        for n in [1usize, 2, 10, 129, 1000] {
            for delegate in [0u8, 3, 6, 9] {
                let actions: Vec<Action> = (0..n)
                    .map(|v| match rng.gen_range(0u8..10) {
                        0 => Action::Abstain,
                        d if d <= delegate && v + 1 < n => {
                            Action::Delegate(rng.gen_range(v + 1..n))
                        }
                        _ => Action::Vote,
                    })
                    .collect();
                forest.resolve(&DelegationGraph::new(actions)).unwrap();
                let want = sorted_gini(&forest);
                assert_eq!(forest.weight_gini().to_bits(), want.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn gini_extremes() {
        // Direct voting: perfectly equal, Gini 0.
        assert!(resolved(vec![Action::Vote; 10]).weight_gini().abs() < 1e-12);
        // Dictatorship: Gini (n-1)/n.
        let mut actions = vec![Action::Delegate(9); 9];
        actions.push(Action::Vote);
        assert!((resolved(actions).weight_gini() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn gini_is_monotone_in_concentration() {
        // Two sinks with weights 5/5 vs two sinks with weights 1/9.
        let mut balanced = Vec::new();
        balanced.extend(std::iter::repeat_n(Action::Delegate(4), 4));
        balanced.push(Action::Vote); // sink 4, weight 5
        balanced.extend(std::iter::repeat_n(Action::Delegate(9), 4));
        balanced.push(Action::Vote); // sink 9, weight 5
        let g_balanced = resolved(balanced).weight_gini();

        let mut skewed = vec![Action::Delegate(9); 8];
        skewed.push(Action::Vote); // sink 8, weight 1
        skewed.push(Action::Vote); // sink 9, weight 9
        let g_skewed = resolved(skewed).weight_gini();
        assert!(
            g_skewed > g_balanced,
            "skewed {g_skewed} vs balanced {g_balanced}"
        );
    }

    #[test]
    fn empty_and_all_abstain_edge_cases() {
        let mut empty = resolved(vec![]);
        assert_eq!(empty.n(), 0);
        assert_eq!(empty.tallied(), 0);
        assert_eq!(empty.fold_weighted_coins(&[]), 0);
        assert_eq!(empty.weight_gini(), 0.0);
        let mut gone = resolved(vec![Action::Abstain; 3]);
        assert_eq!(gone.tallied(), 0);
        assert_eq!(gone.max_weight(), 0);
        assert_eq!(gone.weight_gini(), 0.0);
    }
}
