//! Probability distributions used for process-variation sampling.
//!
//! Only the distributions the yield flow needs are implemented: the normal
//! distribution (Box–Muller sampling plus an inverse-CDF used to map Latin
//! Hypercube points), a uniform distribution and a truncated normal. Keeping
//! them in-tree avoids an external `rand_distr` dependency.

use rand::Rng;

/// A one-dimensional distribution that can be sampled and inverse-transformed.
pub trait Distribution1d {
    /// Draws one sample using `rng`.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;
    /// Maps a uniform variate `u` in `(0, 1)` through the inverse CDF.
    fn inverse_cdf(&self, u: f64) -> f64;
    /// Distribution mean.
    fn mean(&self) -> f64;
    /// Distribution standard deviation.
    fn std_dev(&self) -> f64;
}

/// Normal (Gaussian) distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    /// Mean.
    pub mean: f64,
    /// Standard deviation (non-negative).
    pub sigma: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn new(mean: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0 && sigma.is_finite(), "sigma must be >= 0");
        Self { mean, sigma }
    }
}

impl Distribution1d for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.sigma * standard_normal(rng)
    }

    fn inverse_cdf(&self, u: f64) -> f64 {
        self.mean + self.sigma * standard_normal_inverse_cdf(u)
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn std_dev(&self) -> f64 {
        self.sigma
    }
}

/// Uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (exclusive).
    pub hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `hi <= lo`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(hi > lo, "uniform distribution requires hi > lo");
        Self { lo, hi }
    }
}

impl Distribution1d for Uniform {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.lo + (self.hi - self.lo) * rng.gen::<f64>()
    }

    fn inverse_cdf(&self, u: f64) -> f64 {
        self.lo + (self.hi - self.lo) * u.clamp(0.0, 1.0)
    }

    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    fn std_dev(&self) -> f64 {
        (self.hi - self.lo) / 12f64.sqrt()
    }
}

/// Normal distribution truncated to `[mean - k*sigma, mean + k*sigma]`
/// by rejection (sampling) or clamping (inverse CDF).
///
/// Foundry statistical models typically truncate at 3–4 sigma so that
/// physically impossible parameter values (negative oxide thickness, …)
/// cannot be generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedNormal {
    /// The underlying normal distribution.
    pub normal: Normal,
    /// Truncation half-width in sigmas.
    pub k: f64,
}

impl TruncatedNormal {
    /// Creates a truncated normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not strictly positive.
    pub fn new(mean: f64, sigma: f64, k: f64) -> Self {
        assert!(k > 0.0, "truncation width must be positive");
        Self {
            normal: Normal::new(mean, sigma),
            k,
        }
    }
}

impl Distribution1d for TruncatedNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let lo = self.normal.mean - self.k * self.normal.sigma;
        let hi = self.normal.mean + self.k * self.normal.sigma;
        // Rejection sampling: acceptance probability is > 99% for k >= 3.
        for _ in 0..1000 {
            let x = self.normal.sample(rng);
            if x >= lo && x <= hi {
                return x;
            }
        }
        self.normal.mean
    }

    fn inverse_cdf(&self, u: f64) -> f64 {
        let x = self.normal.inverse_cdf(u);
        let lo = self.normal.mean - self.k * self.normal.sigma;
        let hi = self.normal.mean + self.k * self.normal.sigma;
        x.clamp(lo, hi)
    }

    fn mean(&self) -> f64 {
        self.normal.mean
    }

    fn std_dev(&self) -> f64 {
        self.normal.sigma
    }
}

/// Draws a standard-normal variate using the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

/// Inverse CDF (quantile function) of the standard normal distribution.
///
/// Delegates to the canonical implementation in
/// [`moheco_sampling::oracle::standard_normal_quantile`] (Acklam's rational
/// approximation, |err| < 1.15e-9).
pub fn standard_normal_inverse_cdf(p: f64) -> f64 {
    moheco_sampling::oracle::standard_normal_quantile(p)
}

/// CDF of the standard normal distribution.
///
/// Delegates to the canonical implementation in
/// [`moheco_sampling::oracle::standard_normal_cdf`] (Abramowitz-Stegun
/// 26.2.17, |err| < 7.5e-8).
pub fn standard_normal_cdf(x: f64) -> f64 {
    moheco_sampling::oracle::standard_normal_cdf(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn normal_sample_statistics() {
        let d = Normal::new(2.0, 0.5);
        let mut r = rng();
        let n = 40_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - 0.5).abs() < 0.02, "sigma {}", var.sqrt());
    }

    #[test]
    fn normal_inverse_cdf_known_quantiles() {
        let d = Normal::new(0.0, 1.0);
        assert!((d.inverse_cdf(0.5)).abs() < 1e-8);
        assert!((d.inverse_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((d.inverse_cdf(0.025) + 1.959964).abs() < 1e-4);
        assert!((d.inverse_cdf(0.84134) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn inverse_cdf_and_cdf_are_inverses() {
        for &x in &[-2.5, -1.0, -0.3, 0.0, 0.7, 1.5, 3.0] {
            let p = standard_normal_cdf(x);
            let back = standard_normal_inverse_cdf(p);
            assert!((back - x).abs() < 2e-4, "x {x} -> p {p} -> {back}");
        }
    }

    #[test]
    fn normal_scaling() {
        let d = Normal::new(10.0, 2.0);
        assert!((d.inverse_cdf(0.975) - (10.0 + 2.0 * 1.959964)).abs() < 1e-3);
        assert_eq!(d.mean(), 10.0);
        assert_eq!(d.std_dev(), 2.0);
    }

    #[test]
    #[should_panic]
    fn normal_rejects_negative_sigma() {
        let _ = Normal::new(0.0, -1.0);
    }

    #[test]
    fn uniform_sample_within_bounds() {
        let d = Uniform::new(-1.0, 3.0);
        let mut r = rng();
        for _ in 0..1000 {
            let x = d.sample(&mut r);
            assert!((-1.0..3.0).contains(&x));
        }
        assert_eq!(d.mean(), 1.0);
        assert!((d.std_dev() - 4.0 / 12f64.sqrt()).abs() < 1e-12);
        assert_eq!(d.inverse_cdf(0.0), -1.0);
        assert_eq!(d.inverse_cdf(1.0), 3.0);
    }

    #[test]
    #[should_panic]
    fn uniform_rejects_empty_interval() {
        let _ = Uniform::new(1.0, 1.0);
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        let d = TruncatedNormal::new(0.0, 1.0, 3.0);
        let mut r = rng();
        for _ in 0..5000 {
            let x = d.sample(&mut r);
            assert!(x.abs() <= 3.0 + 1e-12);
        }
        assert!(d.inverse_cdf(0.9999999) <= 3.0);
        assert!(d.inverse_cdf(1e-9) >= -3.0);
    }

    #[test]
    fn standard_normal_has_unit_variance() {
        let mut r = rng();
        let n = 40_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02);
        assert!((var - 1.0).abs() < 0.03);
    }

    #[test]
    fn cdf_symmetry() {
        for &x in &[0.1, 0.5, 1.0, 2.0] {
            let s = standard_normal_cdf(x) + standard_normal_cdf(-x);
            assert!((s - 1.0).abs() < 1e-7);
        }
        assert!((standard_normal_cdf(0.0) - 0.5).abs() < 1e-7);
    }
}
