//! Latin Hypercube Sampling (LHS).
//!
//! The MOHECO paper replaces primitive Monte-Carlo sampling with LHS (a
//! design-of-experiments technique, Stein 1987) to reduce the variance of the
//! yield estimate for a given number of circuit simulations. The generator
//! here produces points in the unit hypercube `[0, 1)^d`; the
//! `moheco-process` crate maps them to physical process-parameter samples via
//! the normal inverse CDF.

use rand::Rng;

/// Sampling plans available to the Monte-Carlo yield estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplingPlan {
    /// Primitive (i.i.d.) Monte Carlo.
    PrimitiveMonteCarlo,
    /// Latin Hypercube Sampling (the workspace default, as in the paper).
    #[default]
    LatinHypercube,
}

impl SamplingPlan {
    /// Generates `n` unit-hypercube points of dimension `dim` according to
    /// the plan, one row per sample: the rows of [`Self::generate_flat`].
    pub fn generate<R: Rng + ?Sized>(self, rng: &mut R, n: usize, dim: usize) -> Vec<Vec<f64>> {
        self.generate_flat(rng, n, dim)
            .chunks_exact(dim)
            .map(<[f64]>::to_vec)
            .collect()
    }

    /// Generates `n` unit-hypercube points of dimension `dim` into one
    /// row-major buffer: sample `i` is `out[i * dim..(i + 1) * dim]`.
    ///
    /// This is the one generator body; the draws happen in the plan's fixed
    /// order, so a stream gives the same points whatever the layout.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`, or if `n == 0` under Latin-Hypercube sampling.
    pub fn generate_flat<R: Rng + ?Sized>(self, rng: &mut R, n: usize, dim: usize) -> Vec<f64> {
        assert!(dim > 0, "dimension must be positive");
        match self {
            SamplingPlan::PrimitiveMonteCarlo => (0..n * dim).map(|_| rng.gen::<f64>()).collect(),
            SamplingPlan::LatinHypercube => {
                assert!(n > 0, "sample count must be positive");
                let mut out = vec![0.0; n * dim];
                let mut perm: Vec<usize> = (0..n).collect();
                for d in 0..dim {
                    // Fisher–Yates shuffle of the stratum indices for this
                    // dimension, continuing from the previous dimension's.
                    for i in (1..n).rev() {
                        let j = rng.gen_range(0..=i);
                        perm.swap(i, j);
                    }
                    for (i, &stratum) in perm.iter().enumerate() {
                        let jitter: f64 = rng.gen();
                        out[i * dim + d] = (stratum as f64 + jitter) / n as f64;
                    }
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lhs_points_are_in_unit_cube() {
        let mut rng = StdRng::seed_from_u64(1);
        let pts = SamplingPlan::LatinHypercube.generate(&mut rng, 50, 7);
        assert_eq!(pts.len(), 50);
        for p in &pts {
            assert_eq!(p.len(), 7);
            for &x in p {
                assert!((0.0..1.0).contains(&x));
            }
        }
    }

    #[test]
    fn lhs_stratification_one_point_per_stratum() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20;
        let pts = SamplingPlan::LatinHypercube.generate(&mut rng, n, 3);
        for d in 0..3 {
            let mut counts = vec![0usize; n];
            for p in &pts {
                let stratum = (p[d] * n as f64).floor() as usize;
                counts[stratum.min(n - 1)] += 1;
            }
            assert!(
                counts.iter().all(|&c| c == 1),
                "dimension {d} strata counts {counts:?}"
            );
        }
    }

    #[test]
    fn lhs_mean_estimate_has_lower_variance_than_pmc() {
        // Estimate E[x] for x uniform; LHS should have (much) lower variance.
        let runs = 200;
        let n = 16;
        let mut lhs_means = Vec::new();
        let mut pmc_means = Vec::new();
        for seed in 0..runs {
            let mut rng = StdRng::seed_from_u64(seed);
            let l = SamplingPlan::LatinHypercube.generate(&mut rng, n, 1);
            lhs_means.push(l.iter().map(|p| p[0]).sum::<f64>() / n as f64);
            let p = SamplingPlan::PrimitiveMonteCarlo.generate(&mut rng, n, 1);
            pmc_means.push(p.iter().map(|q| q[0]).sum::<f64>() / n as f64);
        }
        let var = |xs: &[f64]| {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64
        };
        assert!(
            var(&lhs_means) < var(&pmc_means) / 5.0,
            "lhs {} pmc {}",
            var(&lhs_means),
            var(&pmc_means)
        );
    }

    #[test]
    fn pmc_points_are_in_unit_cube() {
        let mut rng = StdRng::seed_from_u64(3);
        let pts = SamplingPlan::PrimitiveMonteCarlo.generate(&mut rng, 100, 5);
        assert_eq!(pts.len(), 100);
        for p in &pts {
            for &x in p {
                assert!((0.0..1.0).contains(&x));
            }
        }
    }

    #[test]
    fn plan_dispatch() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = SamplingPlan::LatinHypercube.generate(&mut rng, 8, 2);
        let b = SamplingPlan::PrimitiveMonteCarlo.generate(&mut rng, 8, 2);
        assert_eq!(a.len(), 8);
        assert_eq!(b.len(), 8);
    }

    #[test]
    #[should_panic]
    fn zero_samples_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = SamplingPlan::LatinHypercube.generate(&mut rng, 0, 3);
    }

    #[test]
    #[should_panic]
    fn zero_dimension_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let _ = SamplingPlan::PrimitiveMonteCarlo.generate(&mut rng, 3, 0);
    }
}
