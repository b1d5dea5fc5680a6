//! Exact distributions of (weighted) sums of independent Bernoulli
//! variables.
//!
//! Direct voting is a sum of independent `Bernoulli(p_i)`; a resolved
//! delegation graph is a **weighted** sum `Σ w_i · Bernoulli(p_i)` over its
//! sinks. Both distributions are computed exactly here by dynamic
//! programming, which lets the simulator evaluate the probability of a
//! correct decision `P^M(G)` without vote-level sampling noise.
//!
//! The unweighted DP ([`PoissonBinomial`]) updates only the live band of
//! its pmf, `O(n · band)` rather than `O(n²)`, and stores every value
//! below `f64::MIN_POSITIVE` as 0: the band's edges would otherwise be
//! subnormal at every step, and subnormal arithmetic is an order of
//! magnitude slower on common hardware.

use crate::error::{check_probability, ProbError, Result};
use std::ops::Range;

/// The exact distribution of `Σ Bernoulli(p_i)` (the Poisson-binomial
/// distribution).
///
/// # Examples
///
/// ```
/// use ld_prob::poisson_binomial::PoissonBinomial;
///
/// let pb = PoissonBinomial::new(&[0.5, 0.5])?;
/// assert!((pb.pmf(1) - 0.5).abs() < 1e-12);
/// assert!((pb.mean() - 1.0).abs() < 1e-12);
/// # Ok::<(), ld_prob::ProbError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PoissonBinomial {
    /// `pmf[k] = P[X = k]`, length `n + 1`.
    pmf: Vec<f64>,
    mean: f64,
    variance: f64,
}

impl PoissonBinomial {
    /// Computes the exact distribution by a banded convolution DP in
    /// `O(n · band)`, where `band` is the widest run of pmf entries that
    /// are at least `f64::MIN_POSITIVE` (for competences bounded away from
    /// 0 and 1 it grows like `√n` once it is narrower than `n`).
    ///
    /// Voter `i` maps `pmf[k]` to `pmf[k]·(1 − p_i) + pmf[k − 1]·p_i`,
    /// inside the live band only. After each voter, band-edge entries
    /// below `f64::MIN_POSITIVE` are set to 0 and the band shrinks past
    /// them. A Poisson-binomial pmf is unimodal, so no interior entry is
    /// below both edges: **every value below `f64::MIN_POSITIVE` is stored
    /// as 0** and no entry is ever subnormal. Each step is non-negative and
    /// mass-preserving, so the flush moves the total mass by at most
    /// `(n + 1)² · f64::MIN_POSITIVE`. Entries far above underflow come
    /// out bit-identical to the full-width DP: `ld-testkit` pins majority
    /// probabilities of at least `1e-280` to it bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidProbability`] if any `p_i` is outside
    /// `[0, 1]` or not finite.
    pub fn new(ps: &[f64]) -> Result<Self> {
        for &p in ps {
            check_probability(p, "Poisson-binomial parameter")?;
        }
        let mut pmf = vec![0.0f64; ps.len() + 1];
        pmf[0] = 1.0;
        // The live band `lo..=hi`; every entry outside it is exactly 0.
        let (mut lo, mut hi) = (0usize, 0usize);
        for &p in ps {
            let q = 1.0 - p;
            hi += 1;
            // In place, carrying the old `pmf[k − 1]` forward; the old
            // `pmf[lo − 1]` and `pmf[hi]` are 0.
            let mut below = 0.0;
            for v in &mut pmf[lo..=hi] {
                let old = *v;
                *v = old * q + below * p;
                below = old;
            }
            // The mass is ~1, so the band never empties.
            while lo < hi && pmf[lo] < f64::MIN_POSITIVE {
                pmf[lo] = 0.0;
                lo += 1;
            }
            while hi > lo && pmf[hi] < f64::MIN_POSITIVE {
                pmf[hi] = 0.0;
                hi -= 1;
            }
        }
        let mean = ps.iter().sum();
        let variance = ps.iter().map(|p| p * (1.0 - p)).sum();
        Ok(PoissonBinomial {
            pmf,
            mean,
            variance,
        })
    }

    /// Number of summands `n`.
    pub fn n(&self) -> usize {
        self.pmf.len() - 1
    }

    /// `P[X = k]`; zero for `k > n`.
    pub fn pmf(&self, k: usize) -> f64 {
        self.pmf.get(k).copied().unwrap_or(0.0)
    }

    /// The full probability mass function as a slice of length `n + 1`.
    pub fn pmf_slice(&self) -> &[f64] {
        &self.pmf
    }

    /// `P[X ≥ k]`.
    pub fn tail_ge(&self, k: usize) -> f64 {
        self.pmf.iter().skip(k).sum()
    }

    /// `P[X ≤ k]`.
    pub fn cdf(&self, k: usize) -> f64 {
        self.pmf.iter().take(k.saturating_add(1)).sum()
    }

    /// Exact mean `Σ p_i`.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Exact variance `Σ p_i (1 - p_i)`.
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// Probability that a strict majority of the `n` variables is 1, i.e.
    /// `P[X > n/2]` — the probability that direct voting decides correctly
    /// under the paper's strict-majority rule.
    pub fn strict_majority(&self) -> f64 {
        let n = self.n();
        // strict majority: X > n/2  ⇔  2X > n  ⇔  X ≥ floor(n/2) + 1
        self.tail_ge(n / 2 + 1)
    }

    /// Probability that direct voting decides correctly under a
    /// tie-handling policy: a strict majority wins outright, and an exact
    /// tie (even `n` only) is correct with probability `tie_credit` — 0
    /// for the paper's strict-majority rule, 0.5 for a fair coin.
    pub fn majority_with_ties(&self, tie_credit: f64) -> f64 {
        let n = self.n();
        let strict = self.strict_majority();
        if n.is_multiple_of(2) {
            strict + tie_credit * self.pmf(n / 2)
        } else {
            strict
        }
    }
}

/// The exact distribution of a **weighted** Bernoulli sum
/// `Σ w_i · Bernoulli(p_i)` with nonnegative integer weights.
///
/// For a delegation graph with sinks `s_1, …, s_k` carrying weights
/// `w_1, …, w_k` (Σ w_i = n), the number of correct votes is exactly this
/// distribution; [`WeightedBernoulliSum::strict_majority`] with total `n`
/// is the probability the delegated election is decided correctly.
///
/// # Examples
///
/// ```
/// use ld_prob::poisson_binomial::WeightedBernoulliSum;
///
/// // One dictator holding all 9 votes with competency 2/3 (Figure 1).
/// let w = WeightedBernoulliSum::new(&[(9, 2.0 / 3.0)])?;
/// assert!((w.strict_majority(9) - 2.0 / 3.0).abs() < 1e-12);
/// # Ok::<(), ld_prob::ProbError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedBernoulliSum {
    /// `pmf[t] = P[Σ w_i x_i = t]`, length `W + 1` where `W = Σ w_i`.
    pmf: Vec<f64>,
    mean: f64,
    variance: f64,
}

impl WeightedBernoulliSum {
    /// Computes the exact distribution by DP over total weight in
    /// `O(k · W)` where `k` is the number of terms and `W = Σ w_i`.
    ///
    /// Term `(w, p)` maps the pmf `cur` reached so far to
    /// `next[t] = cur[t]·(1 − p) + cur[t − w]·p`, out of place into a
    /// second buffer, and the buffers swap. Where only one side exists
    /// (`t < w`) that product is stored as is, and a missing `cur[t]`
    /// (past the support) is 0, which adds nothing. So every entry is the
    /// same product, or the same sum of the same two products, that an
    /// in-place pass adding `mass·p` onto the scaled `pmf[t + w]`
    /// computes: the pmf is identical bit for bit, subnormals included.
    ///
    /// Two bands of `cur` are tracked: outside its nonzero support the
    /// result is 0 with no arithmetic, and where both inputs are below
    /// `f64::MIN_POSITIVE` the entry is computed exactly in integers
    /// (the private `SubnormalScale`), because subnormal floating-point
    /// arithmetic is an order of magnitude slower on common hardware and
    /// long sums keep thousands of subnormal entries in their tails. The
    /// rest are branch-free zips over disjoint slices, which the compiler
    /// vectorises at the baseline target.
    ///
    /// Terms with zero weight are permitted and contribute nothing.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidProbability`] for a parameter outside
    /// `[0, 1]`.
    pub fn new(terms: &[(usize, f64)]) -> Result<Self> {
        for &(_, p) in terms {
            check_probability(p, "weighted Bernoulli parameter")?;
        }
        let total: usize = terms.iter().map(|&(w, _)| w).sum();
        let mut pmf = vec![0.0f64; total + 1];
        let mut next = vec![0.0f64; total + 1];
        pmf[0] = 1.0;
        // `pmf[len..]` is zero; so is `pmf` outside `zl..=zh`, and it is
        // below `f64::MIN_POSITIVE` outside `lo..=hi`, which is never
        // empty because the mass is ~1.
        let (mut len, mut zl, mut zh, mut lo, mut hi) = (1usize, 0usize, 0usize, 0usize, 0usize);
        for &(w, p) in terms {
            if w == 0 {
                continue;
            }
            let q = 1.0 - p;
            let (cur, out) = (&pmf[..], &mut next[..len + w]);
            // The stale buffer may hold mass anywhere below `len`.
            out[..zl].fill(0.0);
            out[zh + w + 1..].fill(0.0);
            // Entries with a normal input: `lo..=hi` and `lo + w..=hi + w`.
            let fast = |out: &mut [f64], range: Range<usize>| {
                let split = range.end.min(w).max(range.start);
                for (o, &c) in out[range.start..split].iter_mut().zip(&cur[range.start..]) {
                    *o = c * q;
                }
                if split < range.end {
                    let both = out[split..range.end].iter_mut().zip(&cur[split..]);
                    for ((o, &c), &b) in both.zip(&cur[split - w..]) {
                        *o = c * q + b * p;
                    }
                }
            };
            let (by_q, by_p) = (SubnormalScale::new(q), SubnormalScale::new(p));
            let exact = |out: &mut [f64], range: Range<usize>| {
                for (t, o) in range.clone().zip(&mut out[range]) {
                    let below = if t >= w { cur[t - w] } else { 0.0 };
                    *o = f64::from_bits(by_q.apply(cur[t]) + by_p.apply(below));
                }
            };
            exact(out, zl..lo);
            if lo + w <= hi + 1 {
                fast(out, lo..hi + w + 1);
            } else {
                fast(out, lo..hi + 1);
                exact(out, hi + 1..lo + w);
                fast(out, lo + w..hi + w + 1);
            }
            exact(out, hi + w + 1..zh + w + 1);
            len += w;
            zl += out[zl..].iter().position(|&v| v != 0.0).expect("mass ~1");
            zh = out[..=zh + w]
                .iter()
                .rposition(|&v| v != 0.0)
                .expect("mass ~1");
            lo = zl
                + out[zl..]
                    .iter()
                    .position(|&v| v >= f64::MIN_POSITIVE)
                    .expect("mass ~1");
            hi = out[..=zh]
                .iter()
                .rposition(|&v| v >= f64::MIN_POSITIVE)
                .expect("mass ~1");
            std::mem::swap(&mut pmf, &mut next);
        }
        let mean = terms.iter().map(|&(w, p)| w as f64 * p).sum();
        let variance = terms
            .iter()
            .map(|&(w, p)| (w as f64).powi(2) * p * (1.0 - p))
            .sum();
        Ok(WeightedBernoulliSum {
            pmf,
            mean,
            variance,
        })
    }

    /// Total weight `W = Σ w_i`.
    pub fn total_weight(&self) -> usize {
        self.pmf.len() - 1
    }

    /// `P[Σ w_i x_i = t]`; zero for `t > W`.
    pub fn pmf(&self, t: usize) -> f64 {
        self.pmf.get(t).copied().unwrap_or(0.0)
    }

    /// `P[Σ w_i x_i ≥ t]`.
    pub fn tail_ge(&self, t: usize) -> f64 {
        self.pmf.iter().skip(t).sum()
    }

    /// Exact mean `Σ w_i p_i`.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Exact variance `Σ w_i² p_i (1 - p_i)`.
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// Probability that the correct side holds a **strict** majority of
    /// `total_votes`: `P[Σ w_i x_i > total_votes / 2]`.
    ///
    /// `total_votes` is passed explicitly because abstention (§6 of the
    /// paper) can make the tallied weight smaller than the electorate; the
    /// paper's rule compares correct weight against incorrect weight, i.e.
    /// against `W - X` where `W` is the tallied weight.
    ///
    /// With `total_votes = W` this is `P[X > W - X]`.
    pub fn strict_majority(&self, total_votes: usize) -> f64 {
        // X > total/2  ⇔  2X > total  ⇔  X ≥ total/2 + 1 (integer X)
        self.tail_ge(total_votes / 2 + 1)
    }

    /// Probability of a correct decision under a tie-handling policy:
    /// strict majority wins outright; an exact tie is correct with
    /// probability `tie_credit` (0 for the paper's pessimistic rule, 0.5
    /// for a fair coin flip).
    pub fn majority_with_ties(&self, total_votes: usize, tie_credit: f64) -> f64 {
        let strict = self.strict_majority(total_votes);
        if total_votes.is_multiple_of(2) {
            strict + tie_credit * self.pmf(total_votes / 2)
        } else {
            strict
        }
    }
}

/// Multiplication by a fixed `y` in `[0, 1]` of values `x` below
/// `f64::MIN_POSITIVE`, in integers: [`SubnormalScale::apply`] is the
/// IEEE product `fl(x·y)` in units of the smallest subnormal `2^-1074`,
/// with no subnormal floating-point operation.
///
/// `x = m·2^-1074` with the integer `m = x.to_bits() < 2^52`, and the
/// product is below `2^-1022`, where doubles are spaced `2^-1074` apart,
/// so `fl(x·y)` is `m·y` rounded to the nearest integer, ties to even.
/// With `y = mant·2^-shift`, `m·mant` is exact in `u128`. Two such
/// results sum to less than `2^53`, which is still exact and still a
/// double's bit pattern, so `f64::from_bits(a + b)` is
/// `fl(fl(x·q) + fl(x'·p))` bit for bit.
#[derive(Debug, Clone, Copy)]
struct SubnormalScale {
    mant: u128,
    shift: u32,
}

impl SubnormalScale {
    fn new(y: f64) -> Self {
        debug_assert!((0.0..=1.0).contains(&y));
        let bits = y.to_bits();
        // A normal y has 2^52 ≤ mant < 2^53 and shift ≥ 52 because
        // y ≤ 1, so m·mant < 2^105: past a shift of 105 (or for a
        // subnormal or zero y) every product is below half a unit.
        let shift = 1075 - (bits >> 52) as u32;
        if shift > 105 {
            return SubnormalScale { mant: 0, shift: 1 };
        }
        let mant = (bits & ((1 << 52) - 1)) | 1 << 52;
        SubnormalScale {
            mant: u128::from(mant),
            shift,
        }
    }

    #[inline]
    fn apply(self, x: f64) -> u64 {
        let m = x.to_bits();
        debug_assert!(m < 1 << 52);
        let prod = u128::from(m) * self.mant;
        // Round half to even: add just under half a unit, plus one more
        // when the truncated quotient is odd.
        let odd = (prod >> self.shift) & 1;
        ((prod + (1 << (self.shift - 1)) - 1 + odd) >> self.shift) as u64
    }
}

/// Brute-force reference: exact majority probability by enumerating all
/// `2^k` outcomes. Exponential; intended for testing the DPs (`k ≤ ~20`).
pub fn brute_force_majority(terms: &[(usize, f64)], total_votes: usize) -> Result<f64> {
    for &(_, p) in terms {
        check_probability(p, "brute-force parameter")?;
    }
    if terms.len() > 25 {
        return Err(ProbError::InvalidParameter {
            reason: format!("brute force limited to 25 terms, got {}", terms.len()),
        });
    }
    let k = terms.len();
    let mut acc = 0.0;
    for mask in 0u32..(1u32 << k) {
        let mut prob = 1.0;
        let mut weight = 0usize;
        for (i, &(w, p)) in terms.iter().enumerate() {
            if mask >> i & 1 == 1 {
                prob *= p;
                weight += w;
            } else {
                prob *= 1.0 - p;
            }
        }
        if 2 * weight > total_votes {
            acc += prob;
        }
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_special_case() {
        // 4 fair coins: pmf = (1, 4, 6, 4, 1) / 16.
        let pb = PoissonBinomial::new(&[0.5; 4]).unwrap();
        let want = [1.0, 4.0, 6.0, 4.0, 1.0].map(|x| x / 16.0);
        for (k, w) in want.iter().enumerate() {
            assert!((pb.pmf(k) - w).abs() < 1e-12, "k = {k}");
        }
    }

    #[test]
    fn empty_sum_is_deterministic_zero() {
        let pb = PoissonBinomial::new(&[]).unwrap();
        assert_eq!(pb.n(), 0);
        assert_eq!(pb.pmf(0), 1.0);
        assert_eq!(pb.mean(), 0.0);
        // 0 > 0/2 is false: strict majority of zero voters is impossible.
        assert_eq!(pb.strict_majority(), 0.0);
    }

    #[test]
    fn pmf_sums_to_one_and_moments_match() {
        let ps = [0.1, 0.9, 0.33, 0.77, 0.5];
        let pb = PoissonBinomial::new(&ps).unwrap();
        let total: f64 = pb.pmf_slice().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        let mean_from_pmf: f64 = pb
            .pmf_slice()
            .iter()
            .enumerate()
            .map(|(k, &p)| k as f64 * p)
            .sum();
        assert!((mean_from_pmf - pb.mean()).abs() < 1e-9);
        let var_from_pmf: f64 = pb
            .pmf_slice()
            .iter()
            .enumerate()
            .map(|(k, &p)| (k as f64 - pb.mean()).powi(2) * p)
            .sum();
        assert!((var_from_pmf - pb.variance()).abs() < 1e-9);
    }

    #[test]
    fn deterministic_parameters() {
        let pb = PoissonBinomial::new(&[1.0, 1.0, 0.0]).unwrap();
        assert_eq!(pb.pmf(2), 1.0);
        assert_eq!(pb.strict_majority(), 1.0); // 2 > 1.5
    }

    #[test]
    fn rejects_invalid_probability() {
        assert!(PoissonBinomial::new(&[0.5, 1.2]).is_err());
        assert!(PoissonBinomial::new(&[f64::NAN]).is_err());
    }

    #[test]
    fn strict_majority_condorcet_grows_with_n() {
        // Condorcet jury theorem: p = 0.6, probability of a correct
        // majority increases with n (odd sizes).
        let mut last = 0.0;
        for n in [1usize, 11, 31, 101] {
            let pb = PoissonBinomial::new(&vec![0.6; n]).unwrap();
            let p = pb.strict_majority();
            assert!(p > last, "n = {n}: {p} not above {last}");
            last = p;
        }
        assert!(last > 0.97);
    }

    #[test]
    fn tail_and_cdf_are_complementary() {
        let pb = PoissonBinomial::new(&[0.3, 0.6, 0.2, 0.9]).unwrap();
        for k in 0..=4usize {
            let total = pb.cdf(k) + pb.tail_ge(k + 1);
            assert!((total - 1.0).abs() < 1e-12, "k = {k}");
        }
    }

    #[test]
    fn weighted_matches_unweighted_when_weights_are_one() {
        let ps = [0.25, 0.5, 0.8, 0.66];
        let pb = PoissonBinomial::new(&ps).unwrap();
        let terms: Vec<(usize, f64)> = ps.iter().map(|&p| (1, p)).collect();
        let wb = WeightedBernoulliSum::new(&terms).unwrap();
        for t in 0..=4usize {
            assert!((pb.pmf(t) - wb.pmf(t)).abs() < 1e-12, "t = {t}");
        }
        assert!((pb.strict_majority() - wb.strict_majority(4)).abs() < 1e-12);
    }

    #[test]
    fn majority_with_ties_credits_the_tie_mass() {
        let pb = PoissonBinomial::new(&[0.5, 0.5]).unwrap();
        assert_eq!(pb.majority_with_ties(0.0), 0.25);
        assert_eq!(pb.majority_with_ties(0.5), 0.5);
        assert_eq!(pb.majority_with_ties(1.0), 0.75);
        // Odd n has no tie.
        let odd = PoissonBinomial::new(&[0.5; 3]).unwrap();
        assert_eq!(odd.majority_with_ties(1.0), odd.strict_majority());
    }

    #[test]
    fn band_edges_below_min_positive_are_stored_as_zero() {
        // 0.01^200 underflows past the subnormals: the unbanded DP would
        // leave pmf[200] and its neighbours subnormal or tiny.
        let pb = PoissonBinomial::new(&[0.01; 200]).unwrap();
        assert!(pb
            .pmf_slice()
            .iter()
            .all(|&v| v == 0.0 || v >= f64::MIN_POSITIVE));
        assert_eq!(pb.pmf(200), 0.0);
        let total: f64 = pb.pmf_slice().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_dictator_is_figure_one() {
        // Figure 1: all votes delegated to a single center with p = 2/3.
        let wb = WeightedBernoulliSum::new(&[(9, 2.0 / 3.0)]).unwrap();
        assert!((wb.strict_majority(9) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(wb.total_weight(), 9);
    }

    #[test]
    fn weighted_zero_weight_terms_are_ignored() {
        let a = WeightedBernoulliSum::new(&[(2, 0.7), (0, 0.9), (1, 0.4)]).unwrap();
        let b = WeightedBernoulliSum::new(&[(2, 0.7), (1, 0.4)]).unwrap();
        assert_eq!(a.pmf, b.pmf);
    }

    #[test]
    fn weighted_moments() {
        let wb = WeightedBernoulliSum::new(&[(3, 0.5), (2, 0.25)]).unwrap();
        assert!((wb.mean() - (1.5 + 0.5)).abs() < 1e-12);
        assert!((wb.variance() - (9.0 * 0.25 + 4.0 * 0.1875)).abs() < 1e-12);
        let s: f64 = wb.pmf.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_agrees_with_brute_force() {
        let terms = [(3usize, 0.8), (2, 0.3), (1, 0.5), (4, 0.65), (1, 0.1)];
        let total: usize = terms.iter().map(|t| t.0).sum();
        let wb = WeightedBernoulliSum::new(&terms).unwrap();
        let brute = brute_force_majority(&terms, total).unwrap();
        assert!((wb.strict_majority(total) - brute).abs() < 1e-12);
    }

    #[test]
    fn tie_handling() {
        // Two voters, one vote each, p = 0.5 each: P[X = 1] = 0.5 tie mass.
        let wb = WeightedBernoulliSum::new(&[(1, 0.5), (1, 0.5)]).unwrap();
        assert!((wb.majority_with_ties(2, 0.0) - 0.25).abs() < 1e-12);
        assert!((wb.majority_with_ties(2, 0.5) - 0.5).abs() < 1e-12);
        assert!((wb.majority_with_ties(2, 1.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn abstention_smaller_total() {
        // 3 voters but only 2 votes tallied (one abstained): strict
        // majority needs ≥ 2 of the 2 tallied.
        let wb = WeightedBernoulliSum::new(&[(1, 1.0), (1, 1.0)]).unwrap();
        assert_eq!(wb.strict_majority(2), 1.0);
        let wb2 = WeightedBernoulliSum::new(&[(1, 1.0), (1, 0.0)]).unwrap();
        assert_eq!(wb2.strict_majority(2), 0.0); // 1 vote is not > 1
    }

    /// The in-place scalar recurrence `WeightedBernoulliSum::new` used
    /// before the out-of-place pass: every pinned exact tally was produced
    /// by it.
    fn in_place_reference(terms: &[(usize, f64)]) -> WeightedBernoulliSum {
        let total: usize = terms.iter().map(|&(w, _)| w).sum();
        let mut pmf = vec![0.0f64; total + 1];
        pmf[0] = 1.0;
        let mut reached = 0usize;
        for &(w, p) in terms {
            if w == 0 {
                continue;
            }
            for t in (0..=reached).rev() {
                let mass = pmf[t];
                if mass == 0.0 {
                    continue;
                }
                pmf[t] = mass * (1.0 - p);
                pmf[t + w] += mass * p;
            }
            reached += w;
        }
        WeightedBernoulliSum {
            pmf,
            mean: 0.0,
            variance: 0.0,
        }
    }

    #[test]
    fn weighted_pmf_is_bit_identical_to_the_in_place_recurrence() {
        use crate::rng::{for_each_case, Rng};
        let mut subnormal_entries = 0usize;
        for_each_case("weighted_pmf_bit_identity", 256, |rng| {
            // One case in eight is a long sum of light terms, whose pmf
            // tails pass through the subnormal range on their way to 0.
            let long = rng.gen_range(0u32..8) == 0;
            let k = if long {
                rng.gen_range(1100usize..=1600)
            } else {
                rng.gen_range(0usize..=40)
            };
            let terms: Vec<(usize, f64)> = (0..k)
                .map(|_| {
                    let w = match rng.gen_range(0u32..4) {
                        _ if long => rng.gen_range(1usize..=2),
                        0 => 0,
                        1 => rng.gen_range(1usize..=3),
                        _ => rng.gen_range(0usize..=64),
                    };
                    let p = match rng.gen_range(0u32..10) {
                        _ if long && rng.gen_bool(0.9) => rng.gen_range(0.2..0.8),
                        0 => 0.0,
                        1 => 0.5,
                        2 => 1.0,
                        3 => rng.gen_range(0.0..1e-300),
                        4 => 1.0 - rng.gen_range(0.0..1e-15),
                        5 => 10f64.powi(-rng.gen_range(1i32..=320)),
                        _ => rng.gen_range(0.0..1.0),
                    };
                    (w, p)
                })
                .collect();
            let got = WeightedBernoulliSum::new(&terms).unwrap();
            let want = in_place_reference(&terms);
            assert_eq!(got.pmf.len(), want.pmf.len());
            for (t, (a, b)) in got.pmf.iter().zip(&want.pmf).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "pmf[{t}] of {terms:?}");
            }
            subnormal_entries += want.pmf.iter().filter(|v| v.is_subnormal()).count();
            let total = got.total_weight();
            for votes in [total, total.saturating_sub(1)] {
                for credit in [0.0, 0.5] {
                    assert_eq!(
                        got.majority_with_ties(votes, credit).to_bits(),
                        want.majority_with_ties(votes, credit).to_bits(),
                        "majority of {votes} at tie credit {credit}"
                    );
                }
            }
        });
        assert!(
            subnormal_entries > 1000,
            "only {subnormal_entries} subnormal entries: the integer path went untested"
        );
    }

    #[test]
    fn subnormal_scale_is_the_ieee_product() {
        use crate::rng::{for_each_case, Rng};
        for_each_case("subnormal_scale_is_the_ieee_product", 64, |rng| {
            // Just below 2^-52 = ε the product rounds to 0 or 1 unit.
            let y = match rng.gen_range(0u32..7) {
                0 => 0.0,
                1 => 1.0,
                2 => f64::from_bits(rng.gen_range(1u64..1 << 52)),
                3 => 10f64.powi(-rng.gen_range(1i32..=40)),
                4 => rng.gen_range(f64::EPSILON / 2.0..f64::EPSILON),
                _ => rng.gen_range(0.0..1.0),
            };
            for _ in 0..256 {
                let x = f64::from_bits(rng.gen_range(0u64..1 << 52));
                let x2 = f64::from_bits(rng.gen_range(0u64..1 << 52));
                let want = x * y + x2 * (1.0 - y);
                let got = SubnormalScale::new(y).apply(x) + SubnormalScale::new(1.0 - y).apply(x2);
                assert_eq!(got, want.to_bits(), "{x:e}·{y:e} + {x2:e}·(1 − {y:e})");
            }
        });
    }

    #[test]
    fn brute_force_guard() {
        let terms: Vec<(usize, f64)> = (0..26).map(|_| (1usize, 0.5)).collect();
        assert!(brute_force_majority(&terms, 26).is_err());
    }
}
