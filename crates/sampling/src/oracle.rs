//! Closed-form yield oracles for analytic benchmark problems.
//!
//! The synthetic scenarios of the `moheco-scenarios` crate are built so that
//! their true yield is computable in closed form: every specification margin
//! is an analytic function of the design point plus additive Gaussian noise,
//! and the noise terms of different specifications are independent. For such
//! a problem the yield is a product of normal CDF values, so Monte-Carlo
//! estimator accuracy can be *asserted* against ground truth instead of
//! eyeballed against another Monte-Carlo run.
//!
//! This module is also the canonical home of the standard-normal CDF and
//! quantile approximations used across the workspace (`moheco-process`
//! re-exports them for its distribution samplers).
//!
//! # Example
//!
//! A specification that passes with 2σ of margin, next to an independent one
//! with 1σ, has a closed-form joint yield of `Φ(2) · Φ(1)`:
//!
//! ```
//! use moheco_sampling::oracle::{independent_margins_yield, standard_normal_cdf};
//!
//! let yield_ = independent_margins_yield(&[(2.0, 1.0), (0.5, 0.5)]);
//! let expected = standard_normal_cdf(2.0) * standard_normal_cdf(1.0);
//! assert!((yield_ - expected).abs() < 1e-12);
//! ```

/// CDF of the standard normal distribution.
///
/// Abramowitz–Stegun 26.2.17 rational approximation, absolute error below
/// `7.5e-8` — far tighter than any Monte-Carlo tolerance asserted in tests.
///
/// # Example
///
/// ```
/// use moheco_sampling::standard_normal_cdf;
///
/// assert!((standard_normal_cdf(0.0) - 0.5).abs() < 1e-9);
/// assert!((standard_normal_cdf(1.96) - 0.975).abs() < 1e-3);
/// ```
pub fn standard_normal_cdf(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.2316419 * x.abs());
    let poly = t
        * (0.319381530
            + t * (-0.356563782 + t * (1.781477937 + t * (-1.821255978 + t * 1.330274429))));
    let pdf = (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
    let tail = pdf * poly;
    if x >= 0.0 {
        1.0 - tail
    } else {
        tail
    }
}

// Acklam's coefficients: `A`/`B` for the central region, `C`/`D` for the
// tails.
const A: [f64; 6] = [
    -3.969683028665376e+01,
    2.209460984245205e+02,
    -2.759285104469687e+02,
    1.38357751867269e+02,
    -3.066479806614716e+01,
    2.506628277459239e+00,
];
const B: [f64; 5] = [
    -5.447609879822406e+01,
    1.615858368580409e+02,
    -1.556989798598866e+02,
    6.680131188771972e+01,
    -1.328068155288572e+01,
];
const C: [f64; 6] = [
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e+00,
    -2.549732539343734e+00,
    4.374664141464968e+00,
    2.938163982698783e+00,
];
const D: [f64; 4] = [
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e+00,
    3.754408661907416e+00,
];
/// Lower edge of the central region.
const P_LOW: f64 = 0.02425;
/// Upper edge of the central region.
const P_HIGH: f64 = 1.0 - P_LOW;

/// Inverse CDF (quantile function) of the standard normal distribution.
///
/// Acklam's rational approximation, accurate to about `1.15e-9` over the
/// open interval `(0, 1)`; inputs are clamped away from 0 and 1.
///
/// # Example
///
/// ```
/// use moheco_sampling::{standard_normal_cdf, standard_normal_quantile};
///
/// let z = standard_normal_quantile(0.975);
/// assert!((z - 1.959964).abs() < 1e-5);
/// assert!((standard_normal_cdf(z) - 0.975).abs() < 1e-6);
/// ```
pub fn standard_normal_quantile(p: f64) -> f64 {
    let p = p.clamp(1e-15, 1.0 - 1e-15);
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        central_quantile(p)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Acklam's central branch, exact for `P_LOW <= p <= P_HIGH` (where the
/// clamp of [`standard_normal_quantile`] is the identity).
#[inline(always)]
fn central_quantile(p: f64) -> f64 {
    let q = p - 0.5;
    let r = q * q;
    (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
        / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
}

/// Number of values [`standard_normal_quantiles`] evaluates together.
const QUANTILE_LANES: usize = 8;

/// [`standard_normal_quantile`] of every `ps[i]`, written to `out[i]`, bit
/// for bit.
///
/// Values are taken [`QUANTILE_LANES`] at a time: every lane runs the central
/// branch with the scalar's exact operation sequence (Rust never contracts or
/// reassociates floats, so the vectorised lanes round identically), and a
/// lane in either tail, or NaN, is then overwritten by the scalar function.
///
/// # Panics
///
/// Panics if `ps.len() != out.len()`.
pub fn standard_normal_quantiles(ps: &[f64], out: &mut [f64]) {
    assert_eq!(ps.len(), out.len(), "quantile output must match the input");
    let mut p_chunks = ps.chunks_exact(QUANTILE_LANES);
    let mut o_chunks = out.chunks_exact_mut(QUANTILE_LANES);
    for (p, o) in (&mut p_chunks).zip(&mut o_chunks) {
        quantile_lanes(
            p.try_into().expect("exact chunk"),
            o.try_into().expect("exact chunk"),
        );
    }
    let rest = p_chunks.remainder();
    if !rest.is_empty() {
        // Pad with the centre; the padding lanes are discarded.
        let mut p = [0.5; QUANTILE_LANES];
        let mut o = [0.0; QUANTILE_LANES];
        p[..rest.len()].copy_from_slice(rest);
        quantile_lanes(&p, &mut o);
        o_chunks.into_remainder().copy_from_slice(&o[..rest.len()]);
    }
}

#[inline(always)]
fn quantile_lanes(p: &[f64; QUANTILE_LANES], out: &mut [f64; QUANTILE_LANES]) {
    let mut any_tail = false;
    for k in 0..QUANTILE_LANES {
        out[k] = central_quantile(p[k]);
        any_tail |= !(P_LOW <= p[k] && p[k] <= P_HIGH);
    }
    if any_tail {
        for k in 0..QUANTILE_LANES {
            if !(P_LOW <= p[k] && p[k] <= P_HIGH) {
                out[k] = standard_normal_quantile(p[k]);
            }
        }
    }
}

/// Probability that a single Gaussian-noise specification passes:
/// `P[margin + sigma·Z ≥ 0] = Φ(margin / sigma)` for `Z ~ N(0, 1)`.
///
/// A `sigma` of zero degenerates to the deterministic indicator.
///
/// # Example
///
/// ```
/// use moheco_sampling::gaussian_margin_yield;
///
/// // One sigma of margin passes ~84.1 % of the time.
/// assert!((gaussian_margin_yield(1.0, 1.0) - 0.8413).abs() < 1e-3);
/// // No noise: the margin sign decides outright.
/// assert_eq!(gaussian_margin_yield(0.1, 0.0), 1.0);
/// ```
///
/// # Panics
///
/// Panics if `sigma` is negative or not finite.
pub fn gaussian_margin_yield(margin: f64, sigma: f64) -> f64 {
    assert!(sigma >= 0.0 && sigma.is_finite(), "sigma must be >= 0");
    if sigma == 0.0 {
        return if margin >= 0.0 { 1.0 } else { 0.0 };
    }
    standard_normal_cdf(margin / sigma)
}

/// Joint yield of several specifications with *independent* Gaussian noise:
/// the product of the per-spec [`gaussian_margin_yield`] values.
///
/// Independence must be guaranteed by the caller (the synthetic scenarios
/// give each specification a disjoint block of statistical variables).
pub fn independent_margins_yield(margins_and_sigmas: &[(f64, f64)]) -> f64 {
    margins_and_sigmas
        .iter()
        .map(|&(m, s)| gaussian_margin_yield(m, s))
        .product()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_matches_known_values() {
        assert!((standard_normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((standard_normal_cdf(1.0) - 0.841344746).abs() < 1e-7);
        assert!((standard_normal_cdf(-1.0) - 0.158655254).abs() < 1e-7);
        assert!((standard_normal_cdf(1.959963985) - 0.975).abs() < 1e-7);
        assert!(standard_normal_cdf(8.0) > 1.0 - 1e-12);
        assert!(standard_normal_cdf(-8.0) < 1e-12);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &p in &[0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let x = standard_normal_quantile(p);
            assert!(
                (standard_normal_cdf(x) - p).abs() < 1e-6,
                "round trip failed at p = {p}"
            );
        }
    }

    #[test]
    fn quantile_is_antisymmetric() {
        for &p in &[0.01, 0.2, 0.4] {
            let lo = standard_normal_quantile(p);
            let hi = standard_normal_quantile(1.0 - p);
            assert!((lo + hi).abs() < 1e-8, "asymmetry at p = {p}");
        }
        assert!(standard_normal_quantile(0.5).abs() < 1e-9);
    }

    #[test]
    fn laned_quantile_matches_the_scalar_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let up = |v: f64| f64::from_bits(v.to_bits() + 1);
        let down = |v: f64| f64::from_bits(v.to_bits() - 1);
        let mut pool = vec![
            0.0,
            1e-16,
            1e-15,
            down(P_LOW),
            P_LOW,
            up(P_LOW),
            down(P_HIGH),
            P_HIGH,
            up(P_HIGH),
            0.5,
            1.0 - 1e-15,
            1.0,
            f64::NAN,
        ];
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..64 {
            pool.push(rng.gen::<f64>());
        }
        // Every length 0..=17 at every rotation of the pool, so each special
        // value lands in every lane and in the padded remainder.
        for len in 0..=17 {
            for start in 0..pool.len() {
                let ps: Vec<f64> = (0..len).map(|i| pool[(start + i) % pool.len()]).collect();
                let mut got = vec![0.0; len];
                standard_normal_quantiles(&ps, &mut got);
                for (p, g) in ps.iter().zip(&got) {
                    let want = standard_normal_quantile(*p);
                    // NaN payloads are unspecified; NaN must map to NaN.
                    let same = g.to_bits() == want.to_bits() || (g.is_nan() && want.is_nan());
                    assert!(same, "p = {p:e}: {g} vs {want}");
                }
            }
        }
    }

    #[test]
    fn margin_yield_limits() {
        assert_eq!(gaussian_margin_yield(1.0, 0.0), 1.0);
        assert_eq!(gaussian_margin_yield(-1.0, 0.0), 0.0);
        assert!((gaussian_margin_yield(0.0, 2.0) - 0.5).abs() < 1e-9);
        // Three sigma of margin: ~99.87 %.
        assert!((gaussian_margin_yield(3.0, 1.0) - 0.998650102).abs() < 1e-6);
    }

    #[test]
    fn independent_specs_multiply() {
        let specs = [(1.0, 1.0), (2.0, 2.0)];
        let expected = gaussian_margin_yield(1.0, 1.0) * gaussian_margin_yield(2.0, 2.0);
        assert!((independent_margins_yield(&specs) - expected).abs() < 1e-12);
        assert_eq!(independent_margins_yield(&[]), 1.0);
    }

    #[test]
    #[should_panic]
    fn negative_sigma_panics() {
        let _ = gaussian_margin_yield(0.0, -1.0);
    }
}
