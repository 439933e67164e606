//! Process-variation samples (`ξ` vectors) and their generation.
//!
//! A [`ProcessSample`] holds one realisation of every statistical variable of
//! a circuit: the inter-die parameter deviations (in their physical units)
//! plus, for every transistor, four intra-die mismatch z-scores (`TOX`,
//! `VTH0`, `LD`, `WD`). The z-scores are kept unscaled because the mismatch
//! standard deviation depends on the device area, which is only known to the
//! circuit evaluator.
//!
//! Every variable is an independent standard normal; an inter-die value is
//! that normal times its parameter's sigma. Samples can be drawn directly
//! from a RNG by Box–Muller ([`ProcessSampler::sample`]) or mapped from a
//! point in the unit hypercube through the standard normal quantile
//! ([`ProcessSampler::from_unit_point`]) so that Latin Hypercube Sampling and
//! other design-of-experiment generators can be used unchanged.

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
}

/// Generator of [`ProcessSample`]s for a given technology and device count.
#[derive(Debug, Clone)]
pub struct ProcessSampler {
    tech: Technology,
    num_devices: usize,
}

impl ProcessSampler {
    /// Creates a sampler with independent inter-die parameters.
    pub fn new(tech: Technology, num_devices: usize) -> Self {
        Self { tech, num_devices }
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

    /// Draws one sample using the supplied RNG (primitive Monte Carlo): a
    /// Box–Muller normal per variable, inter-die ones scaled by their sigmas.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> ProcessSample {
        let inter = self
            .tech
            .inter_die
            .iter()
            .map(|p| standard_normal(rng) * p.sigma)
            .collect();
        let intra = (0..self.num_devices)
            .map(|_| std::array::from_fn(|_| standard_normal(rng)))
            .collect();
        ProcessSample { inter, intra }
    }

    /// Maps a point `u` of the unit hypercube `[0,1)^d` to a process sample,
    /// where `d == self.dimension()`. Each coordinate is pushed through the
    /// standard normal quantile; inter-die coordinates are then scaled by
    /// their sigmas.
    ///
    /// This is the hook used by Latin Hypercube Sampling.
    ///
    /// # Panics
    ///
    /// Panics if `u.len() != self.dimension()`.
    pub fn from_unit_point(&self, u: &[f64]) -> ProcessSample {
        assert_eq!(u.len(), self.dimension(), "unit point has wrong dimension");
        // The quantiles run in lanes straight into the sample, with the bits
        // of the one-coordinate-at-a-time mapping.
        let n_inter = self.tech.num_inter_die();
        let mut xi = self.nominal();
        standard_normal_quantiles(&u[..n_inter], &mut xi.inter);
        for (v, p) in xi.inter.iter_mut().zip(&self.tech.inter_die) {
            *v *= p.sigma;
        }
        standard_normal_quantiles(&u[n_inter..], xi.intra.as_flattened_mut());
        xi
    }
}

/// Draws a standard-normal variate using the Box–Muller transform.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::technology::{tech_035um, tech_90nm};
    use moheco_sampling::standard_normal_quantile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn nominal_sample_is_all_zero() {
        let s = ProcessSample::nominal(20, 15);
        assert!(s
            .inter
            .iter()
            .chain(s.intra.as_flattened())
            .all(|&v| v == 0.0));
        assert_eq!((s.inter.len(), s.intra.len()), (20, 15));
    }

    #[test]
    fn sampler_dimensions_match_paper() {
        let s1 = ProcessSampler::new(tech_035um(), 15);
        assert_eq!(s1.dimension(), 80);
        let s2 = ProcessSampler::new(tech_90nm(), 19);
        assert_eq!(s2.dimension(), 123);
        assert_eq!(s2.nominal().intra.len(), 19);
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
    /// reference for the laned one.
    fn reference_from_unit_point(
        tech: &Technology,
        num_devices: usize,
        u: &[f64],
    ) -> ProcessSample {
        let n_inter = tech.num_inter_die();
        let inter = u[..n_inter]
            .iter()
            .zip(&tech.inter_die)
            .map(|(&ui, p)| standard_normal_quantile(ui) * p.sigma)
            .collect();
        let intra = (0..num_devices)
            .map(|d| {
                let base = n_inter + d * MISMATCH_COMPONENTS;
                std::array::from_fn(|k| standard_normal_quantile(u[base + k]))
            })
            .collect();
        ProcessSample { inter, intra }
    }

    #[test]
    fn unit_point_mapping_matches_the_scalar_reference_bit_for_bit() {
        use rand::Rng;
        let specials = [0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, 1.0];
        for (tech, devices) in [(tech_035um(), 15), (tech_90nm(), 19)] {
            let sampler = ProcessSampler::new(tech.clone(), devices);
            let mut rng = StdRng::seed_from_u64(5);
            for case in 0..60 {
                let mut u: Vec<f64> = (0..sampler.dimension()).map(|_| rng.gen()).collect();
                // Sprinkle exact centres (z = +0.0) and, in later cases,
                // non-finite inputs over the point.
                let sprinkle = if case < 20 { 1 } else { specials.len() };
                for _ in 0..case % 12 {
                    let k = rng.gen_range(0..u.len());
                    u[k] = specials[rng.gen_range(0..sprinkle)];
                }
                if case == 1 {
                    u.iter_mut().for_each(|v| *v = 0.5);
                }
                let want = reference_from_unit_point(&tech, devices, &u);
                let got = sampler.from_unit_point(&u);
                assert_eq!(got.inter.len(), want.inter.len());
                assert_eq!(got.intra.len(), want.intra.len());
                let flat = |s: &ProcessSample| -> Vec<f64> {
                    s.inter
                        .iter()
                        .chain(s.intra.as_flattened())
                        .copied()
                        .collect()
                };
                for (g, w) in flat(&got).into_iter().zip(flat(&want)) {
                    // NaN payloads are unspecified; NaN must map to NaN.
                    let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
                    assert!(same, "case {case}: {g} vs {w}");
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
    fn different_seeds_give_different_samples() {
        let sampler = ProcessSampler::new(tech_035um(), 15);
        let a = sampler.sample(&mut StdRng::seed_from_u64(1));
        let b = sampler.sample(&mut StdRng::seed_from_u64(2));
        assert_ne!(a, b);
        // Same seed reproduces.
        let c = sampler.sample(&mut StdRng::seed_from_u64(1));
        assert_eq!(a, c);
    }

    #[test]
    fn standard_normal_has_unit_variance() {
        let mut r = StdRng::seed_from_u64(42);
        let n = 40_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02);
        assert!((var - 1.0).abs() < 0.03);
    }
}
