//! Streaming statistics, confidence intervals, and rate extraction.

/// Welford's online algorithm for running mean and variance.
///
/// Numerically stable, mergeable (for parallel trial collection), and
/// allocation-free.
///
/// # Examples
///
/// ```
/// use ld_prob::stats::Welford;
///
/// let mut w = Welford::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     w.push(x);
/// }
/// assert_eq!(w.count(), 4);
/// assert!((w.mean() - 2.5).abs() < 1e-12);
/// assert!((w.sample_variance() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; 0 if empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance; 0 with fewer than two observations.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean; 0 if empty.
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sample_std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Merges another accumulator into this one (Chan et al. parallel
    /// combination); used to combine per-thread statistics.
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        *self = Welford {
            count: total,
            mean,
            m2,
        };
    }

    /// A two-sided normal-approximation confidence interval for the mean at
    /// `z` standard errors (`z = 1.96` for 95%).
    pub fn mean_ci(&self, z: f64) -> (f64, f64) {
        let half = z * self.std_error();
        (self.mean - half, self.mean + half)
    }
}

impl Extend<f64> for Welford {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Welford {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut w = Welford::new();
        w.extend(iter);
        w
    }
}

/// An estimate of a Bernoulli proportion with its trial count.
///
/// Used for Monte Carlo estimates of `P^M(G)` and of tail probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Proportion {
    successes: u64,
    trials: u64,
}

impl Proportion {
    /// Creates an empty estimate.
    pub fn new() -> Self {
        Proportion {
            successes: 0,
            trials: 0,
        }
    }

    /// Creates an estimate from counts.
    ///
    /// # Panics
    ///
    /// Panics if `successes > trials`.
    pub fn from_counts(successes: u64, trials: u64) -> Self {
        assert!(
            successes <= trials,
            "successes {successes} exceed trials {trials}"
        );
        Proportion { successes, trials }
    }

    /// Records one trial outcome.
    pub fn push(&mut self, success: bool) {
        self.trials += 1;
        if success {
            self.successes += 1;
        }
    }

    /// Number of successes.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Number of trials.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Point estimate `successes / trials`; 0 if no trials.
    pub fn estimate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// Merges another estimate (e.g. from another thread).
    pub fn merge(&mut self, other: &Proportion) {
        self.successes += other.successes;
        self.trials += other.trials;
    }

    /// The Wilson score interval at `z` standard normal quantiles
    /// (`z = 1.96` for 95%). Well-behaved near 0 and 1, unlike the Wald
    /// interval.
    ///
    /// Returns `(0, 1)` if there are no trials.
    pub fn wilson_ci(&self, z: f64) -> (f64, f64) {
        if self.trials == 0 {
            return (0.0, 1.0);
        }
        let n = self.trials as f64;
        let p = self.estimate();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        ((center - half).max(0.0), (center + half).min(1.0))
    }
}

impl Default for Proportion {
    fn default() -> Self {
        Proportion::new()
    }
}

/// The Kolmogorov–Smirnov statistic between an empirical sample and a
/// reference CDF: `sup_x |F_n(x) − F(x)|`.
///
/// Used by the Lemma 4 experiment to quantify how fast the direct-voting
/// tally converges to its normal approximation. Returns 0 for an empty
/// sample.
///
/// # Examples
///
/// ```
/// use ld_prob::stats::ks_statistic;
/// // A sample exactly at the median of the uniform CDF on [0, 1].
/// let d = ks_statistic(&mut [0.5], |x| x.clamp(0.0, 1.0));
/// assert!((d - 0.5).abs() < 1e-12);
/// ```
pub fn ks_statistic<F: Fn(f64) -> f64>(sample: &mut [f64], cdf: F) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    sample.sort_by(|a, b| a.partial_cmp(b).expect("sample values are comparable"));
    let n = sample.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in sample.iter().enumerate() {
        let f = cdf(x);
        let before = i as f64 / n;
        let after = (i + 1) as f64 / n;
        d = d.max((f - before).abs()).max((after - f).abs());
    }
    d
}

/// Ordinary least squares on `(x, y)` pairs; returns `(slope, intercept)`.
///
/// Returns `None` with fewer than two distinct x values.
pub fn linear_fit(points: &[(f64, f64)]) -> Option<(f64, f64)> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    Some((slope, intercept))
}

/// Fits `y ≈ C · x^a` by regressing `log y` on `log x`; returns the
/// exponent `a`.
///
/// Points with non-positive coordinates are skipped. Returns `None` when
/// fewer than two usable points remain. Meant for extracting empirical
/// convergence rates (e.g. how fast the loss in Lemma 3 vanishes with
/// `n`), but unit-test-only so far: no experiment calls it.
pub fn power_law_exponent(points: &[(f64, f64)]) -> Option<f64> {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, y)| x > 0.0 && y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    linear_fit(&logs).map(|(slope, _)| slope)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_empty() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.sample_variance(), 0.0);
        assert_eq!(w.std_error(), 0.0);
    }

    #[test]
    fn welford_single_observation() {
        let w: Welford = [5.0].into_iter().collect();
        assert_eq!(w.mean(), 5.0);
        assert_eq!(w.sample_variance(), 0.0);
    }

    #[test]
    fn welford_matches_two_pass_computation() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 / 7.0).collect();
        let w: Welford = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-9);
        assert!((w.sample_variance() - var).abs() < 1e-9);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64).sin()).collect();
        let (a, b) = xs.split_at(123);
        let mut wa: Welford = a.iter().copied().collect();
        let wb: Welford = b.iter().copied().collect();
        wa.merge(&wb);
        let all: Welford = xs.iter().copied().collect();
        assert_eq!(wa.count(), all.count());
        assert!((wa.mean() - all.mean()).abs() < 1e-10);
        assert!((wa.sample_variance() - all.sample_variance()).abs() < 1e-9);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut w: Welford = [1.0, 2.0].into_iter().collect();
        let before = w;
        w.merge(&Welford::new());
        assert_eq!(w, before);
        let mut e = Welford::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn welford_ci_contains_mean() {
        let w: Welford = (0..100).map(|i| i as f64).collect();
        let (lo, hi) = w.mean_ci(1.96);
        assert!(lo < w.mean() && w.mean() < hi);
    }

    #[test]
    fn proportion_estimate_and_counts() {
        let mut p = Proportion::new();
        for i in 0..10 {
            p.push(i % 4 == 0);
        }
        assert_eq!(p.trials(), 10);
        assert_eq!(p.successes(), 3);
        assert!((p.estimate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn proportion_merge() {
        let mut a = Proportion::from_counts(3, 10);
        let b = Proportion::from_counts(7, 10);
        a.merge(&b);
        assert_eq!(a.estimate(), 0.5);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn proportion_from_counts_validates() {
        let _ = Proportion::from_counts(5, 3);
    }

    #[test]
    fn wilson_interval_sane() {
        let p = Proportion::from_counts(80, 100);
        let (lo, hi) = p.wilson_ci(1.96);
        assert!(lo > 0.70 && lo < 0.80, "lo = {lo}");
        assert!(hi > 0.80 && hi < 0.90, "hi = {hi}");
        // Degenerate cases stay in [0, 1].
        let zero = Proportion::from_counts(0, 50);
        let (lo, hi) = zero.wilson_ci(1.96);
        assert!(lo == 0.0 && hi < 0.15);
        let all = Proportion::from_counts(50, 50);
        let (lo, hi) = all.wilson_ci(1.96);
        assert!(lo > 0.85 && hi == 1.0);
        assert_eq!(Proportion::new().wilson_ci(1.96), (0.0, 1.0));
    }

    #[test]
    fn ks_statistic_basics() {
        // Empty sample.
        assert_eq!(ks_statistic(&mut [], |_| 0.5), 0.0);
        // Perfectly matched sample: quantiles of the uniform.
        let mut s: Vec<f64> = (1..=9).map(|i| i as f64 / 10.0).collect();
        let d = ks_statistic(&mut s, |x| x.clamp(0.0, 1.0));
        assert!(
            d <= 0.12,
            "near-uniform sample should have small KS, got {d}"
        );
        // Degenerate mismatch: all mass at 0 against uniform.
        let mut zeros = vec![0.0; 10];
        let d = ks_statistic(&mut zeros, |x| x.clamp(0.0, 1.0));
        assert!((d - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ks_statistic_detects_shift() {
        // Sample uniform on [0.5, 1.5] against uniform CDF on [0, 1]:
        // KS distance is 0.5.
        let mut s: Vec<f64> = (0..100).map(|i| 0.5 + i as f64 / 100.0).collect();
        let d = ks_statistic(&mut s, |x| x.clamp(0.0, 1.0));
        assert!((d - 0.5).abs() < 0.02, "got {d}");
    }

    #[test]
    fn linear_fit_recovers_line() {
        let pts: Vec<(f64, f64)> = (0..20).map(|i| (i as f64, 3.0 * i as f64 - 2.0)).collect();
        let (slope, intercept) = linear_fit(&pts).unwrap();
        assert!((slope - 3.0).abs() < 1e-9);
        assert!((intercept + 2.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_degenerate_inputs() {
        assert_eq!(linear_fit(&[]), None);
        assert_eq!(linear_fit(&[(1.0, 1.0)]), None);
        assert_eq!(linear_fit(&[(2.0, 1.0), (2.0, 5.0)]), None);
    }

    #[test]
    fn power_law_exponent_recovers_rate() {
        // y = 7 x^{-0.5}
        let pts: Vec<(f64, f64)> = [10.0f64, 100.0, 1000.0, 10_000.0]
            .iter()
            .map(|&x| (x, 7.0 * x.powf(-0.5)))
            .collect();
        let a = power_law_exponent(&pts).unwrap();
        assert!((a + 0.5).abs() < 1e-9, "exponent {a}");
    }

    #[test]
    fn power_law_skips_nonpositive_points() {
        let pts = [(0.0, 1.0), (-1.0, 2.0), (1.0, 0.0)];
        assert_eq!(power_law_exponent(&pts), None);
    }
}
