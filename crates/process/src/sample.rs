//! Process-variation samples (`ξ` vectors) and their generation.
//!
//! A [`ProcessSample`] holds one realisation of every statistical variable of
//! a circuit: the inter-die parameter deviations (in their physical units)
//! plus, for every transistor, four intra-die mismatch z-scores (`TOX`,
//! `VTH0`, `LD`, `WD`). The z-scores are kept unscaled because the mismatch
//! standard deviation depends on the device area, which is only known to the
//! circuit evaluator.
//!
//! Samples can be drawn directly from a RNG ([`ProcessSampler::sample`]) or
//! mapped from a point in the unit hypercube
//! ([`ProcessSampler::from_unit_point`]) so that Latin Hypercube Sampling and
//! other design-of-experiment generators can be used unchanged.

use crate::correlation::Correlation;
use crate::distributions::standard_normal;
use crate::parameters::MISMATCH_COMPONENTS;
use crate::technology::Technology;
use moheco_sampling::oracle::standard_normal_quantiles;
use rand::Rng;

/// One realisation of all statistical process variables of a circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessSample {
    /// Inter-die parameter deviations, one per technology parameter, in the
    /// physical units implied by the parameter's effect.
    pub inter: Vec<f64>,
    /// Per-device mismatch z-scores: `intra[d] = [z_tox, z_vth, z_ld, z_wd]`.
    pub intra: Vec<[f64; MISMATCH_COMPONENTS]>,
}

impl ProcessSample {
    /// The nominal (variation-free) sample: all deviations are zero.
    pub fn nominal(num_inter: usize, num_devices: usize) -> Self {
        Self {
            inter: vec![0.0; num_inter],
            intra: vec![[0.0; MISMATCH_COMPONENTS]; num_devices],
        }
    }

    /// Total number of scalar statistical variables in the sample.
    pub fn dimension(&self) -> usize {
        self.inter.len() + MISMATCH_COMPONENTS * self.intra.len()
    }

    /// Returns `true` when every deviation is exactly zero.
    pub fn is_nominal(&self) -> bool {
        self.inter.iter().all(|&v| v == 0.0)
            && self.intra.iter().all(|d| d.iter().all(|&v| v == 0.0))
    }

    /// Flattens the sample into a single vector (inter-die first, then the
    /// per-device mismatch z-scores). Useful for surrogate-model training.
    pub fn to_flat_vec(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.dimension());
        v.extend_from_slice(&self.inter);
        for d in &self.intra {
            v.extend_from_slice(d);
        }
        v
    }
}

/// Generator of [`ProcessSample`]s for a given technology and device count.
#[derive(Debug, Clone)]
pub struct ProcessSampler {
    tech: Technology,
    num_devices: usize,
    correlation: Correlation,
}

impl ProcessSampler {
    /// Creates a sampler with independent inter-die parameters.
    pub fn new(tech: Technology, num_devices: usize) -> Self {
        let dim = tech.num_inter_die();
        Self {
            tech,
            num_devices,
            correlation: Correlation::identity(dim),
        }
    }

    /// Creates a sampler with a correlation structure over the inter-die
    /// parameters.
    ///
    /// # Panics
    ///
    /// Panics if the correlation dimension does not match the number of
    /// inter-die parameters of the technology.
    pub fn with_correlation(
        tech: Technology,
        num_devices: usize,
        correlation: Correlation,
    ) -> Self {
        assert_eq!(
            correlation.dim(),
            tech.num_inter_die(),
            "correlation dimension must match the number of inter-die parameters"
        );
        Self {
            tech,
            num_devices,
            correlation,
        }
    }

    /// The technology this sampler draws from.
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// Number of devices (transistors) in the circuit.
    pub fn num_devices(&self) -> usize {
        self.num_devices
    }

    /// Total dimension of the statistical space
    /// (`num_inter_die + 4 * num_devices`).
    pub fn dimension(&self) -> usize {
        self.tech.num_variables(self.num_devices)
    }

    /// The nominal (all-zero) sample.
    pub fn nominal(&self) -> ProcessSample {
        ProcessSample::nominal(self.tech.num_inter_die(), self.num_devices)
    }

    /// Draws one sample using the supplied RNG (primitive Monte Carlo).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> ProcessSample {
        let n_inter = self.tech.num_inter_die();
        let z: Vec<f64> = (0..n_inter).map(|_| standard_normal(rng)).collect();
        let zc = self.correlation.correlate(&z);
        let inter: Vec<f64> = zc
            .iter()
            .zip(&self.tech.inter_die)
            .map(|(z, p)| z * p.sigma)
            .collect();
        let intra: Vec<[f64; MISMATCH_COMPONENTS]> = (0..self.num_devices)
            .map(|_| {
                [
                    standard_normal(rng),
                    standard_normal(rng),
                    standard_normal(rng),
                    standard_normal(rng),
                ]
            })
            .collect();
        ProcessSample { inter, intra }
    }

    /// Maps a point `u` of the unit hypercube `[0,1)^d` to a process sample,
    /// where `d == self.dimension()`. Each coordinate is pushed through the
    /// standard normal inverse CDF; inter-die coordinates are then correlated
    /// and scaled by their sigmas.
    ///
    /// This is the hook used by Latin Hypercube Sampling.
    ///
    /// # Panics
    ///
    /// Panics if `u.len() != self.dimension()`.
    pub fn from_unit_point(&self, u: &[f64]) -> ProcessSample {
        assert_eq!(u.len(), self.dimension(), "unit point has wrong dimension");
        // The quantiles run in lanes straight into the sample, and the
        // correlation in place, with the bits of the one-coordinate-at-a-time
        // mapping.
        let n_inter = self.tech.num_inter_die();
        let mut xi = self.nominal();
        standard_normal_quantiles(&u[..n_inter], &mut xi.inter);
        self.correlation.correlate_in_place(&mut xi.inter);
        for (v, p) in xi.inter.iter_mut().zip(&self.tech.inter_die) {
            *v *= p.sigma;
        }
        standard_normal_quantiles(&u[n_inter..], xi.intra.as_flattened_mut());
        xi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::standard_normal_inverse_cdf;
    use crate::technology::{tech_035um, tech_90nm};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn nominal_sample_is_all_zero() {
        let s = ProcessSample::nominal(20, 15);
        assert!(s.is_nominal());
        assert_eq!(s.dimension(), 80);
        assert_eq!(s.to_flat_vec().len(), 80);
    }

    #[test]
    fn sampler_dimensions_match_paper() {
        let s1 = ProcessSampler::new(tech_035um(), 15);
        assert_eq!(s1.dimension(), 80);
        let s2 = ProcessSampler::new(tech_90nm(), 19);
        assert_eq!(s2.dimension(), 123);
        assert_eq!(s2.num_devices(), 19);
    }

    #[test]
    fn samples_have_expected_shape_and_spread() {
        let tech = tech_035um();
        let expected_sigma = tech.inter_die[1].sigma; // VTH0Rn
        let sampler = ProcessSampler::new(tech, 15);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 4000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let s = sampler.sample(&mut rng);
            assert_eq!(s.inter.len(), 20);
            assert_eq!(s.intra.len(), 15);
            // Check the VTH0Rn inter-die parameter against its declared sigma.
            sum += s.inter[1];
            sum2 += s.inter[1] * s.inter[1];
        }
        let mean = sum / n as f64;
        let sigma = (sum2 / n as f64 - mean * mean).sqrt();
        assert!(mean.abs() < 3e-3, "mean {mean}");
        assert!(
            (sigma - expected_sigma).abs() < 0.1 * expected_sigma,
            "sigma {sigma} vs declared {expected_sigma}"
        );
    }

    #[test]
    fn unit_point_mapping_center_is_nominal() {
        let sampler = ProcessSampler::new(tech_035um(), 15);
        let u = vec![0.5; sampler.dimension()];
        let s = sampler.from_unit_point(&u);
        for v in &s.inter {
            assert!(v.abs() < 1e-8);
        }
        for d in &s.intra {
            for v in d {
                assert!(v.abs() < 1e-8);
            }
        }
    }

    #[test]
    fn unit_point_extremes_map_to_tails() {
        let sampler = ProcessSampler::new(tech_035um(), 2);
        let mut u = vec![0.5; sampler.dimension()];
        u[1] = 0.999; // VTH0Rn high tail
        let s = sampler.from_unit_point(&u);
        assert!(s.inter[1] > 2.5 * 0.020, "tail value {}", s.inter[1]);
    }

    /// The one-coordinate-at-a-time mapping `from_unit_point` replaced: the
    /// reference for the laned, in-place one.
    fn reference_from_unit_point(
        tech: &Technology,
        num_devices: usize,
        correlation: &Correlation,
        u: &[f64],
    ) -> ProcessSample {
        let n_inter = tech.num_inter_die();
        let z: Vec<f64> = u[..n_inter]
            .iter()
            .map(|&ui| standard_normal_inverse_cdf(ui))
            .collect();
        let dim = correlation.dim();
        let chol = correlation.factor();
        let zc: Vec<f64> = (0..dim)
            .map(|i| {
                chol[i * dim..i * dim + i + 1]
                    .iter()
                    .zip(&z)
                    .map(|(&l, &zj)| l * zj)
                    .sum()
            })
            .collect();
        let inter = zc
            .iter()
            .zip(&tech.inter_die)
            .map(|(z, p)| z * p.sigma)
            .collect();
        let intra = (0..num_devices)
            .map(|d| {
                let base = n_inter + d * MISMATCH_COMPONENTS;
                std::array::from_fn(|k| standard_normal_inverse_cdf(u[base + k]))
            })
            .collect();
        ProcessSample { inter, intra }
    }

    #[test]
    fn unit_point_mapping_matches_the_scalar_reference_bit_for_bit() {
        use rand::Rng;
        let specials = [0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, 1.0];
        for (tech, devices) in [(tech_035um(), 15), (tech_90nm(), 19)] {
            let n_inter = tech.num_inter_die();
            let correlations = [
                Correlation::identity(n_inter),
                Correlation::exponential(n_inter, 0.5).unwrap(),
                Correlation::exponential(n_inter, 0.0).unwrap(),
            ];
            for corr in correlations {
                let sampler = ProcessSampler::with_correlation(tech.clone(), devices, corr.clone());
                let mut rng = StdRng::seed_from_u64(5);
                for case in 0..60 {
                    let mut u: Vec<f64> = (0..sampler.dimension()).map(|_| rng.gen()).collect();
                    // Sprinkle exact centres (z = +0.0, the row-sum fallback)
                    // and, in later cases, non-finite inputs over the point.
                    let sprinkle = if case < 20 { 1 } else { specials.len() };
                    for _ in 0..case % 12 {
                        let k = rng.gen_range(0..u.len());
                        u[k] = specials[rng.gen_range(0..sprinkle)];
                    }
                    if case == 1 {
                        u.iter_mut().for_each(|v| *v = 0.5);
                    }
                    let want = reference_from_unit_point(&tech, devices, &corr, &u);
                    let got = sampler.from_unit_point(&u);
                    assert_eq!(got.inter.len(), want.inter.len());
                    assert_eq!(got.intra.len(), want.intra.len());
                    for (g, w) in got.to_flat_vec().iter().zip(want.to_flat_vec()) {
                        // NaN payloads are unspecified; NaN must map to NaN.
                        let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
                        assert!(same, "case {case}: {g} vs {w}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn unit_point_wrong_dimension_panics() {
        let sampler = ProcessSampler::new(tech_035um(), 15);
        let _ = sampler.from_unit_point(&[0.5; 3]);
    }

    #[test]
    fn correlated_sampler_requires_matching_dimension() {
        let tech = tech_035um();
        let corr = Correlation::exponential(tech.num_inter_die(), 0.5).unwrap();
        let sampler = ProcessSampler::with_correlation(tech, 15, corr);
        let mut rng = StdRng::seed_from_u64(3);
        let s = sampler.sample(&mut rng);
        assert_eq!(s.inter.len(), 20);
    }

    #[test]
    #[should_panic]
    fn correlated_sampler_dimension_mismatch_panics() {
        let tech = tech_035um();
        let corr = Correlation::identity(5);
        let _ = ProcessSampler::with_correlation(tech, 15, corr);
    }

    #[test]
    fn different_seeds_give_different_samples() {
        let sampler = ProcessSampler::new(tech_035um(), 15);
        let a = sampler.sample(&mut StdRng::seed_from_u64(1));
        let b = sampler.sample(&mut StdRng::seed_from_u64(2));
        assert_ne!(a, b);
        // Same seed reproduces.
        let c = sampler.sample(&mut StdRng::seed_from_u64(1));
        assert_eq!(a, c);
    }
}
