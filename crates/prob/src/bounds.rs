//! Concentration and anti-concentration bounds used in the paper's proofs.
//!
//! These are *calculators*: given the same parameters the paper's lemmas
//! use, they return the bound value, so experiments can overlay measured
//! deviation frequencies against the theoretical envelope.

use crate::error::{check_probability, ProbError, Result};
use crate::normal::erf;

/// Multiplicative Chernoff lower-tail bound:
/// `P[X ≤ (1 - δ) μ] ≤ exp(-δ² μ / 2)` for a sum of independent Bernoulli
/// variables with mean `μ`.
///
/// Lemma 1 of the paper instantiates this with `δ = ε / j^{1/3}` to show
/// that prefixes of independent voters rarely fall far below their mean.
/// Unit-test-only so far: no experiment calls it.
///
/// # Errors
///
/// Returns [`ProbError::InvalidParameter`] if `delta` is not in `[0, 1]`
/// or `mu` is negative.
pub fn chernoff_lower_tail(mu: f64, delta: f64) -> Result<f64> {
    if !(0.0..=1.0).contains(&delta) || !delta.is_finite() {
        return Err(ProbError::InvalidParameter {
            reason: format!("chernoff delta {delta} must be in [0, 1]"),
        });
    }
    if mu < 0.0 || !mu.is_finite() {
        return Err(ProbError::InvalidParameter {
            reason: format!("chernoff mean {mu} must be nonnegative"),
        });
    }
    Ok((-delta * delta * mu / 2.0).exp().min(1.0))
}

/// Multiplicative Chernoff upper-tail bound:
/// `P[X ≥ (1 + δ) μ] ≤ exp(-δ² μ / 3)` for `δ ∈ [0, 1]`.
///
/// # Errors
///
/// Returns [`ProbError::InvalidParameter`] for `delta` outside `[0, 1]` or
/// negative `mu`.
pub fn chernoff_upper_tail(mu: f64, delta: f64) -> Result<f64> {
    if !(0.0..=1.0).contains(&delta) || !delta.is_finite() {
        return Err(ProbError::InvalidParameter {
            reason: format!("chernoff delta {delta} must be in [0, 1]"),
        });
    }
    if mu < 0.0 || !mu.is_finite() {
        return Err(ProbError::InvalidParameter {
            reason: format!("chernoff mean {mu} must be nonnegative"),
        });
    }
    Ok((-delta * delta * mu / 3.0).exp().min(1.0))
}

/// Hoeffding's inequality (the paper's Theorem 1): for independent
/// `a_i ≤ X_i ≤ b_i` and `S = Σ X_i`,
/// `P[|S - E[S]| ≥ t] ≤ 2 exp(-2t² / Σ (b_i - a_i)²)`.
///
/// `ranges_sq` is `Σ (b_i - a_i)²`.
///
/// # Errors
///
/// Returns [`ProbError::InvalidParameter`] if `t < 0` or
/// `ranges_sq ≤ 0`.
///
/// # Examples
///
/// ```
/// // 100 sinks of weight 1: Σ (b-a)² = 100; deviation ≥ 20.
/// let bound = ld_prob::bounds::hoeffding_two_sided(20.0, 100.0)?;
/// assert!(bound < 2.0 * (-8.0f64).exp() + 1e-12);
/// # Ok::<(), ld_prob::ProbError>(())
/// ```
pub fn hoeffding_two_sided(t: f64, ranges_sq: f64) -> Result<f64> {
    if t < 0.0 || !t.is_finite() {
        return Err(ProbError::InvalidParameter {
            reason: format!("hoeffding deviation t = {t} must be nonnegative"),
        });
    }
    if ranges_sq <= 0.0 || !ranges_sq.is_finite() {
        return Err(ProbError::InvalidParameter {
            reason: format!("hoeffding range sum {ranges_sq} must be positive"),
        });
    }
    Ok((2.0 * (-2.0 * t * t / ranges_sq).exp()).min(1.0))
}

/// Lemma 6's instantiation of Hoeffding for delegation graphs: with at
/// least `n / w` sinks each of weight at most `w`, the probability that the
/// weighted correct-vote total deviates from its mean by at least
/// `√(n^{1+ε} · w)` is at most `2·exp(-2 n^ε)`.
///
/// Returns the pair `(deviation_radius, probability_bound)`.
///
/// # Errors
///
/// Returns [`ProbError::InvalidParameter`] if `n == 0`, `w == 0`, or
/// `w > n`.
pub fn max_weight_radius(n: usize, w: usize, epsilon: f64) -> Result<(f64, f64)> {
    if n == 0 || w == 0 || w > n {
        return Err(ProbError::InvalidParameter {
            reason: format!("need 0 < w ≤ n, got w = {w}, n = {n}"),
        });
    }
    let nf = n as f64;
    let radius = (nf.powf(1.0 + epsilon) * w as f64).sqrt();
    // Hoeffding with ≥ n/w sinks of range ≤ w: Σ (b-a)² ≤ (n/w)·w² = n·w.
    let bound = hoeffding_two_sided(radius, nf * w as f64)?;
    Ok((radius, bound))
}

/// Berry–Esseen bound for a sum of independent Bernoulli variables:
/// `sup_x |F_n(x) − Φ(x)| ≤ C₀ · Σ ρ_i / (Σ σ_i²)^{3/2}` with
/// `ρ_i = p_i(1-p_i)(p_i² + (1-p_i)²)` and `C₀ = 0.56`.
///
/// This quantifies the convergence rate behind the paper's Lemma 4 (the
/// normal approximation of the direct-voting tally): for competencies
/// bounded in `(β, 1-β)` the bound is `O(1/√n)`.
///
/// # Errors
///
/// Returns [`ProbError::InvalidProbability`] if some `p_i` is outside
/// `[0, 1]`, or [`ProbError::InvalidParameter`] if the total variance is
/// zero (all parameters deterministic).
pub fn berry_esseen_bernoulli(ps: &[f64]) -> Result<f64> {
    for &p in ps {
        check_probability(p, "Berry-Esseen parameter")?;
    }
    let variance: f64 = ps.iter().map(|p| p * (1.0 - p)).sum();
    if variance <= 0.0 {
        return Err(ProbError::InvalidParameter {
            reason: "Berry-Esseen requires positive total variance".to_string(),
        });
    }
    let rho: f64 = ps
        .iter()
        .map(|p| p * (1.0 - p) * (p * p + (1.0 - p) * (1.0 - p)))
        .sum();
    Ok((0.56 * rho / variance.powf(1.5)).min(1.0))
}

/// Berry–Esseen bound for a **weighted** Bernoulli sum
/// `Σ w_i · Bernoulli(p_i)` (nonnegative integer weights):
/// `sup_x |F(x) − Φ((x-μ)/σ)| ≤ C₀ · Σ ρ_i / (Σ σ_i²)^{3/2}` with
/// `σ_i² = w_i² p_i (1-p_i)`, `ρ_i = E|w_i(X_i - p_i)|³ =
/// w_i³ p_i(1-p_i)(p_i² + (1-p_i)²)`, and `C₀ = 0.56`.
///
/// This is the envelope within which the live engine's O(1)
/// normal-approximation decision probability must agree with the exact
/// weighted Poisson-binomial: both the conformance suite and the
/// `ld-prob` property tests assert
/// `|normal − exact| ≤ berry_esseen_weighted(terms)` at the majority
/// threshold. Zero-weight terms are permitted and contribute nothing.
///
/// # Errors
///
/// Returns [`ProbError::InvalidProbability`] if some `p_i` is outside
/// `[0, 1]`, or [`ProbError::InvalidParameter`] if the total variance is
/// zero (all terms deterministic).
pub fn berry_esseen_weighted(terms: &[(usize, f64)]) -> Result<f64> {
    for &(_, p) in terms {
        check_probability(p, "Berry-Esseen weighted parameter")?;
    }
    let variance: f64 = terms
        .iter()
        .map(|&(w, p)| (w as f64).powi(2) * p * (1.0 - p))
        .sum();
    if variance <= 0.0 {
        return Err(ProbError::InvalidParameter {
            reason: "Berry-Esseen requires positive total variance".to_string(),
        });
    }
    let rho: f64 = terms
        .iter()
        .map(|&(w, p)| (w as f64).powi(3) * p * (1.0 - p) * (p * p + (1.0 - p) * (1.0 - p)))
        .sum();
    Ok((0.56 * rho / variance.powf(1.5)).min(1.0))
}

/// Lemma 3's anti-concentration bound: with all competencies in
/// `(β, 1-β)`, the probability that delegating `n^{1/2-ε}` votes flips the
/// outcome is at most `erf(2·n^{1/2-ε} / (σ√2))` where
/// `σ ≥ √(n·β(1-β))` is the standard deviation of the direct-voting tally;
/// asymptotically this is `erf(n^{-ε}·c) → 0`.
///
/// Returns the bound on the flip probability.
///
/// # Errors
///
/// Returns [`ProbError::InvalidProbability`] if `beta` is not in
/// `(0, 1/2)`, or [`ProbError::InvalidParameter`] if `n == 0` or
/// `delegations` exceeds `n`.
pub fn anti_concentration_flip_bound(n: usize, delegations: usize, beta: f64) -> Result<f64> {
    check_probability(beta, "bounded-competency beta")?;
    if beta <= 0.0 || beta >= 0.5 {
        return Err(ProbError::InvalidProbability {
            value: beta,
            context: "beta must be in (0, 1/2)",
        });
    }
    if n == 0 {
        return Err(ProbError::InvalidParameter {
            reason: "n must be positive".to_string(),
        });
    }
    if delegations > n {
        return Err(ProbError::InvalidParameter {
            reason: format!("delegations {delegations} exceed n = {n}"),
        });
    }
    // Worst-case swing from `delegations` delegated votes is 2·delegations;
    // the outcome flips only if the direct tally lands within that swing of
    // the majority threshold. With tally std dev σ ≥ √(n β (1-β)), the
    // normal-window mass is at most erf(2·delegations / (σ √2)).
    let sigma = (n as f64 * beta * (1.0 - beta)).sqrt();
    let z = 2.0 * delegations as f64 / (sigma * std::f64::consts::SQRT_2);
    Ok(erf(z).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chernoff_lower_tail_values() {
        // δ = 1, μ = 10 → e^{-5}
        let b = chernoff_lower_tail(10.0, 1.0).unwrap();
        assert!((b - (-5.0f64).exp()).abs() < 1e-12);
        // δ = 0 → bound is 1 (vacuous)
        assert_eq!(chernoff_lower_tail(10.0, 0.0).unwrap(), 1.0);
    }

    #[test]
    fn chernoff_bounds_are_monotone_in_mu_and_delta() {
        let mut last = 1.0;
        for mu in [1.0, 10.0, 100.0, 1000.0] {
            let b = chernoff_lower_tail(mu, 0.3).unwrap();
            assert!(b <= last);
            last = b;
        }
        let mut last = 1.0;
        for delta in [0.1, 0.3, 0.6, 0.9] {
            let b = chernoff_upper_tail(50.0, delta).unwrap();
            assert!(b <= last);
            last = b;
        }
    }

    #[test]
    fn chernoff_rejects_bad_parameters() {
        assert!(chernoff_lower_tail(-1.0, 0.5).is_err());
        assert!(chernoff_lower_tail(1.0, 1.5).is_err());
        assert!(chernoff_upper_tail(1.0, -0.1).is_err());
        assert!(chernoff_upper_tail(f64::NAN, 0.1).is_err());
    }

    #[test]
    fn hoeffding_reference_value() {
        // t = 20, Σ ranges² = 100 → 2 e^{-8}
        let b = hoeffding_two_sided(20.0, 100.0).unwrap();
        assert!((b - 2.0 * (-8.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn hoeffding_caps_at_one() {
        assert_eq!(hoeffding_two_sided(0.0, 100.0).unwrap(), 1.0);
    }

    #[test]
    fn hoeffding_rejects_bad_parameters() {
        assert!(hoeffding_two_sided(-1.0, 10.0).is_err());
        assert!(hoeffding_two_sided(1.0, 0.0).is_err());
    }

    #[test]
    fn max_weight_radius_shrinks_relative_to_n_for_small_w() {
        // For w = 1 the radius is n^{(1+ε)/2} = o(n); for w = n it is n·n^{ε/2}.
        let (r_small, b_small) = max_weight_radius(10_000, 1, 0.1).unwrap();
        let (r_big, _) = max_weight_radius(10_000, 10_000, 0.1).unwrap();
        assert!(r_small / 10_000.0 < 0.1, "small-w radius should be o(n)");
        assert!(r_big >= 10_000.0, "dictator radius exceeds n");
        // The bound is 2·exp(-2·n^ε) = 2·exp(-2·10000^0.1) ≈ 0.013.
        assert!((b_small - 2.0 * (-2.0 * 10_000f64.powf(0.1)).exp()).abs() < 1e-9);
    }

    #[test]
    fn max_weight_radius_rejects_bad_parameters() {
        assert!(max_weight_radius(0, 1, 0.1).is_err());
        assert!(max_weight_radius(10, 0, 0.1).is_err());
        assert!(max_weight_radius(10, 11, 0.1).is_err());
    }

    #[test]
    fn berry_esseen_shrinks_at_root_n() {
        let mut last = f64::INFINITY;
        for n in [16usize, 64, 256, 1024] {
            let ps = vec![0.4; n];
            let b = berry_esseen_bernoulli(&ps).unwrap();
            assert!(b < last, "bound should shrink with n");
            // Rate check: bound ≈ C/√n.
            let expected = 0.56 * (0.16 + 0.36) / (0.24f64).sqrt() / (n as f64).sqrt();
            assert!((b - expected).abs() < 1e-9, "n = {n}: {b} vs {expected}");
            last = b;
        }
    }

    #[test]
    fn berry_esseen_weighted_reduces_to_bernoulli_for_unit_weights() {
        let ps = [0.3, 0.45, 0.5, 0.62, 0.71];
        let terms: Vec<(usize, f64)> = ps.iter().map(|&p| (1, p)).collect();
        let a = berry_esseen_bernoulli(&ps).unwrap();
        let b = berry_esseen_weighted(&terms).unwrap();
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    #[test]
    fn berry_esseen_weighted_shrinks_with_more_equal_weight_terms() {
        let mut last = f64::INFINITY;
        for k in [8usize, 32, 128, 512] {
            let terms: Vec<(usize, f64)> = (0..k).map(|_| (2, 0.4)).collect();
            let b = berry_esseen_weighted(&terms).unwrap();
            assert!(b < last, "k = {k}: {b} not below {last}");
            last = b;
        }
    }

    #[test]
    fn berry_esseen_weighted_ignores_zero_weight_terms() {
        let a = berry_esseen_weighted(&[(3, 0.4), (1, 0.6)]).unwrap();
        let b = berry_esseen_weighted(&[(3, 0.4), (0, 0.9), (1, 0.6)]).unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn berry_esseen_weighted_rejects_degenerate_inputs() {
        assert!(berry_esseen_weighted(&[(3, 0.0), (2, 1.0)]).is_err()); // zero variance
        assert!(berry_esseen_weighted(&[(1, 1.5)]).is_err());
        assert!(berry_esseen_weighted(&[]).is_err());
        assert!(berry_esseen_weighted(&[(0, 0.5)]).is_err()); // zero-weight only
    }

    #[test]
    fn berry_esseen_rejects_degenerate_inputs() {
        assert!(berry_esseen_bernoulli(&[0.0, 1.0]).is_err()); // zero variance
        assert!(berry_esseen_bernoulli(&[1.5]).is_err());
        assert!(berry_esseen_bernoulli(&[]).is_err());
    }

    #[test]
    fn flip_bound_decreases_in_n_for_sublinear_delegations() {
        // delegations = n^{0.25} (ε = 0.25): the bound must vanish at rate
        // ≈ n^{-0.25}; check it is strictly decreasing and gets small.
        let mut last = 1.0;
        for n in [100usize, 1000, 10_000, 100_000, 1_000_000] {
            let d = (n as f64).powf(0.25).round() as usize;
            let b = anti_concentration_flip_bound(n, d, 0.25).unwrap();
            assert!(b < last, "n = {n}: bound {b} not decreasing from {last}");
            last = b;
        }
        assert!(last < 0.15, "final bound {last} should be small");
    }

    #[test]
    fn flip_bound_is_vacuous_for_linear_delegations() {
        // Delegating a constant fraction: the bound goes to 1.
        let b = anti_concentration_flip_bound(10_000, 5_000, 0.25).unwrap();
        assert!(b > 0.99);
    }

    #[test]
    fn flip_bound_rejects_bad_parameters() {
        assert!(anti_concentration_flip_bound(0, 0, 0.25).is_err());
        assert!(anti_concentration_flip_bound(10, 11, 0.25).is_err());
        assert!(anti_concentration_flip_bound(10, 1, 0.0).is_err());
        assert!(anti_concentration_flip_bound(10, 1, 0.5).is_err());
    }
}
