//! Monte-Carlo yield estimation.
//!
//! Yield is the probability that a fabricated circuit meets all of its
//! specifications under process variation. A Monte-Carlo estimate is the
//! fraction of sampled process points whose simulated performances pass every
//! spec — the mean of the Bernoulli indicator `J(x, ξ)` used in the paper.

/// A Monte-Carlo yield estimate: accumulated yield contribution over sample
/// count.
///
/// For the unweighted estimators the accumulated `sum` is exactly the pass
/// count; the importance-sampling estimator stores fractional per-sample
/// yield contributions (see [`crate::estimator::weighted_outcome`]), so the
/// sum is a float. [`Self::value`] is the mean either way.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct YieldEstimate {
    /// Accumulated yield contribution (the pass count for unweighted
    /// estimators), clamped to `[0, samples]`.
    pub sum: f64,
    /// Total number of samples evaluated.
    pub samples: usize,
}

impl YieldEstimate {
    /// Creates an estimate from explicit pass/sample counts.
    ///
    /// # Panics
    ///
    /// Panics if `passes > samples`.
    pub fn new(passes: usize, samples: usize) -> Self {
        assert!(passes <= samples, "passes cannot exceed samples");
        Self {
            sum: passes as f64,
            samples,
        }
    }

    /// Creates an estimate from an accumulated (possibly fractional) yield
    /// contribution; the sum is clamped to `[0, samples]` so
    /// [`Self::value`] always stays a probability.
    pub fn from_sum(sum: f64, samples: usize) -> Self {
        Self {
            sum: sum.clamp(0.0, samples as f64),
            samples,
        }
    }

    /// The estimated yield in `[0, 1]`; zero when no samples were taken.
    pub fn value(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum / self.samples as f64
        }
    }

    /// Binomial standard error of the estimate.
    pub fn std_error(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let p = self.value();
        (p * (1.0 - p) / self.samples as f64).sqrt()
    }

    /// Wilson-score confidence interval at the given z value
    /// (1.96 for 95 % confidence).
    pub fn wilson_interval(&self, z: f64) -> (f64, f64) {
        if self.samples == 0 {
            return (0.0, 1.0);
        }
        let n = self.samples as f64;
        let p = self.value();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let centre = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * ((p * (1.0 - p) / n) + z2 / (4.0 * n * n)).sqrt();
        ((centre - half).max(0.0), (centre + half).min(1.0))
    }

    /// Merges two estimates (e.g. stage-1 and stage-2 samples of the same design).
    pub fn merge(&self, other: &YieldEstimate) -> YieldEstimate {
        YieldEstimate {
            sum: self.sum + other.sum,
            samples: self.samples + other.samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_and_errors() {
        let e = YieldEstimate::new(80, 100);
        assert!((e.value() - 0.8).abs() < 1e-12);
        assert!((e.std_error() - (0.8_f64 * 0.2 / 100.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_estimate_is_zero() {
        let e = YieldEstimate::default();
        assert_eq!(e.value(), 0.0);
        assert_eq!(e.std_error(), 0.0);
        assert_eq!(e.wilson_interval(1.96), (0.0, 1.0));
    }

    #[test]
    #[should_panic]
    fn passes_cannot_exceed_samples() {
        let _ = YieldEstimate::new(5, 3);
    }

    #[test]
    fn wilson_interval_contains_point_estimate() {
        let e = YieldEstimate::new(95, 100);
        let (lo, hi) = e.wilson_interval(1.96);
        assert!(lo < e.value() && e.value() < hi);
        assert!(lo > 0.85 && hi <= 1.0);
        // Perfect observed yield: the Wilson upper bound stays just below 1,
        // reflecting the residual uncertainty of a finite sample.
        let p = YieldEstimate::new(100, 100);
        let (lo2, hi2) = p.wilson_interval(1.96);
        assert!(lo2 < 1.0 && hi2 > 0.99 && hi2 <= 1.0);
    }

    #[test]
    fn merge_accumulates_counts() {
        let a = YieldEstimate::new(10, 20);
        let b = YieldEstimate::new(30, 40);
        let m = a.merge(&b);
        assert_eq!(m.sum, 40.0);
        assert_eq!(m.samples, 60);
    }

    #[test]
    fn from_sum_clamps_into_the_probability_range() {
        // Importance-sampling sums can stray slightly outside [0, n]; the
        // constructor clamps so value() stays a probability.
        let high = YieldEstimate::from_sum(10.4, 10);
        assert_eq!(high.value(), 1.0);
        let low = YieldEstimate::from_sum(-0.3, 10);
        assert_eq!(low.value(), 0.0);
        let mid = YieldEstimate::from_sum(7.5, 10);
        assert!((mid.value() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn wilson_interval_is_clamped_for_degenerate_estimates() {
        // All-fail: the lower bound clamps to exactly 0 and the upper bound
        // stays strictly positive (residual uncertainty).
        let all_fail = YieldEstimate::new(0, 50);
        let (lo, hi) = all_fail.wilson_interval(1.96);
        assert!(lo.abs() < 1e-12, "lower {lo}");
        assert!(hi > 0.0 && hi < 0.2, "upper {hi}");
        // All-pass: mirror image at 1.
        let all_pass = YieldEstimate::new(50, 50);
        let (lo2, hi2) = all_pass.wilson_interval(1.96);
        assert!(hi2 > 1.0 - 1e-12 && hi2 <= 1.0, "upper {hi2}");
        assert!(lo2 > 0.8 && lo2 < 1.0, "lower {lo2}");
        // Zero samples: the interval is the whole unit range.
        assert_eq!(YieldEstimate::default().wilson_interval(1.96), (0.0, 1.0));
    }
}
