//! Synthetic analytic yield benchmarks with closed-form ground truth.
//!
//! Each benchmark is a set of specifications of the form
//! `margin_j(x) + w_j · z ≥ 0`, where `margin_j` is an analytic function of
//! the design point, `z` is a vector of independent standard normals (mapped
//! from the engine's unit-hypercube points through the normal quantile) and
//! every specification owns a *disjoint* block of the statistical variables.
//! The joint yield is then exactly
//!
//! ```text
//! Y(x) = Π_j Φ( margin_j(x) / ‖w_j‖ )
//! ```
//!
//! (see [`moheco_sampling::oracle`]), so Monte-Carlo estimator accuracy can
//! be asserted against truth instead of against a bigger Monte-Carlo run.
//! Nominal margins are reported in units of each spec's noise deviation
//! (z-scores), which makes the acceptance-sampling screen behave exactly as
//! it does for circuits.

use moheco::Benchmark;
use moheco_runtime::SimulationModel;
use moheco_sampling::oracle::{independent_margins_yield, standard_normal_quantile};

/// Analytic form of one specification margin `margin(x)`.
#[derive(Debug, Clone, PartialEq)]
pub enum MarginForm {
    /// `threshold - Σ_i weights[i] * (x[i] - center[i])²`.
    Quadratic {
        /// Centre of the feasibility basin.
        center: Vec<f64>,
        /// Per-dimension curvature weights (non-negative).
        weights: Vec<f64>,
        /// Feasibility threshold (margin at the centre).
        threshold: f64,
    },
    /// `threshold - (x-center)ᵀ A (x-center)` with a full (row-major,
    /// symmetric positive-definite) matrix `A` — a rotated ellipsoid.
    Ellipsoid {
        /// Centre of the ellipsoid.
        center: Vec<f64>,
        /// Row-major `d × d` quadratic-form matrix.
        matrix: Vec<f64>,
        /// Feasibility threshold.
        threshold: f64,
    },
    /// `threshold - min(q₁(x), q₂(x))` with two weighted-quadratic basins —
    /// a multi-modal acceptance region.
    TwoBasin {
        /// Centres of the two basins.
        centers: [Vec<f64>; 2],
        /// Curvature weights of the two basins.
        weights: [Vec<f64>; 2],
        /// Feasibility threshold.
        threshold: f64,
    },
    /// `offset + weights · x` — a flat acceptance boundary.
    Linear {
        /// Linear coefficients.
        weights: Vec<f64>,
        /// Margin at the origin.
        offset: f64,
    },
}

impl MarginForm {
    /// The analytic margin of design `x`.
    pub fn margin(&self, x: &[f64]) -> f64 {
        fn quad(x: &[f64], center: &[f64], weights: &[f64]) -> f64 {
            x.iter()
                .zip(center)
                .zip(weights)
                .map(|((&xi, &ci), &wi)| wi * (xi - ci) * (xi - ci))
                .sum()
        }
        match self {
            MarginForm::Quadratic {
                center,
                weights,
                threshold,
            } => threshold - quad(x, center, weights),
            MarginForm::Ellipsoid {
                center,
                matrix,
                threshold,
            } => {
                let d = center.len();
                let dx = x.iter().zip(center).map(|(&xi, &ci)| xi - ci);
                let mut q = 0.0;
                for (i, dxi) in dx.clone().enumerate() {
                    for (j, dxj) in dx.clone().enumerate() {
                        q += dxi * matrix[i * d + j] * dxj;
                    }
                }
                threshold - q
            }
            MarginForm::TwoBasin {
                centers,
                weights,
                threshold,
            } => {
                let q1 = quad(x, &centers[0], &weights[0]);
                let q2 = quad(x, &centers[1], &weights[1]);
                threshold - q1.min(q2)
            }
            MarginForm::Linear { weights, offset } => {
                offset + x.iter().zip(weights).map(|(&xi, &wi)| wi * xi).sum::<f64>()
            }
        }
    }
}

/// One specification of a synthetic benchmark: an analytic margin plus a
/// block of Gaussian noise variables.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Human-readable name (e.g. `"sphere"`).
    pub name: String,
    /// The analytic nominal margin.
    pub form: MarginForm,
    /// Index of the spec's first statistical variable.
    pub noise_offset: usize,
    /// Noise weights `w`; the spec's margin noise is `w · z` over its block,
    /// i.e. Gaussian with standard deviation `‖w‖`.
    pub noise_weights: Vec<f64>,
}

impl SyntheticSpec {
    /// Standard deviation of the spec's margin noise (`‖w‖₂`).
    pub fn sigma(&self) -> f64 {
        self.noise_weights.iter().map(|w| w * w).sum::<f64>().sqrt()
    }
}

/// A synthetic analytic yield benchmark (see the module documentation).
#[derive(Debug, Clone)]
pub struct SyntheticBench {
    name: String,
    bounds: Vec<(f64, f64)>,
    reference: Vec<f64>,
    specs: Vec<SyntheticSpec>,
    stat_dim: usize,
}

impl SyntheticBench {
    /// Creates a synthetic benchmark.
    ///
    /// # Panics
    ///
    /// Panics if the reference design is outside the bounds, any spec has an
    /// empty or zero noise block, or the noise blocks of two specs overlap
    /// (overlap would break the independence the closed-form yield relies
    /// on).
    pub fn new(
        name: impl Into<String>,
        bounds: Vec<(f64, f64)>,
        reference: Vec<f64>,
        specs: Vec<SyntheticSpec>,
    ) -> Self {
        assert!(!bounds.is_empty(), "need at least one design variable");
        assert_eq!(reference.len(), bounds.len(), "reference/bounds mismatch");
        for (v, (lo, hi)) in reference.iter().zip(&bounds) {
            assert!(lo <= v && v <= hi, "reference design out of bounds");
        }
        assert!(!specs.is_empty(), "need at least one specification");
        let mut blocks: Vec<(usize, usize)> = specs
            .iter()
            .map(|s| {
                assert!(!s.noise_weights.is_empty(), "empty noise block");
                assert!(s.sigma() > 0.0, "zero noise deviation");
                (s.noise_offset, s.noise_offset + s.noise_weights.len())
            })
            .collect();
        blocks.sort_unstable();
        for pair in blocks.windows(2) {
            assert!(
                pair[0].1 <= pair[1].0,
                "noise blocks overlap: independence (and the closed-form yield) would break"
            );
        }
        let stat_dim = blocks.last().expect("non-empty").1;
        Self {
            name: name.into(),
            bounds,
            reference,
            specs,
            stat_dim,
        }
    }

    /// The specifications.
    pub fn specs(&self) -> &[SyntheticSpec] {
        &self.specs
    }

    /// The exact yield of design `x` (always available for synthetic
    /// benchmarks).
    pub fn exact_yield(&self, x: &[f64]) -> f64 {
        let terms: Vec<(f64, f64)> = self
            .specs
            .iter()
            .map(|s| (s.form.margin(x), s.sigma()))
            .collect();
        independent_margins_yield(&terms)
    }

    /// The pass/fail outcome at unit point `u`, given spec `j`'s nominal
    /// margin as `margin(j)`: 0.0 at the first spec whose margin plus noise
    /// is negative, 1.0 when none is.
    fn outcome(&self, u: &[f64], margin: impl Fn(usize) -> f64) -> f64 {
        for (j, spec) in self.specs.iter().enumerate() {
            let noise: f64 = spec
                .noise_weights
                .iter()
                .enumerate()
                .map(|(k, &w)| w * standard_normal_quantile(u[spec.noise_offset + k]))
                .sum();
            if margin(j) + noise < 0.0 {
                return 0.0;
            }
        }
        1.0
    }
}

impl SimulationModel for SyntheticBench {
    fn unit_dimension(&self) -> usize {
        self.stat_dim
    }

    fn simulate_point(&self, x: &[f64], u: &[f64]) -> f64 {
        self.outcome(u, |j| self.specs[j].form.margin(x))
    }

    fn simulate_block(&self, x: &[f64], us: &[Vec<f64>], out: &mut [f64]) {
        assert_eq!(us.len(), out.len(), "outcome buffer must match the block");
        // A margin depends on the design alone, so one evaluation per spec
        // serves the whole block with the value `simulate_point` computes
        // for each sample.
        let margins: Vec<f64> = self.specs.iter().map(|s| s.form.margin(x)).collect();
        for (o, u) in out.iter_mut().zip(us) {
            *o = self.outcome(u, |j| margins[j]);
        }
    }

    fn nominal(&self, x: &[f64]) -> Vec<f64> {
        // Margins as z-scores, so the acceptance-sampling screen's thresholds
        // mean the same thing they mean for circuits.
        self.specs
            .iter()
            .map(|s| s.form.margin(x) / s.sigma())
            .collect()
    }

    fn importance_shift(&self, x: &[f64]) -> Option<Vec<f64>> {
        // Dominant failure spec: the one whose boundary sits fewest sigmas
        // away from the nominal margin. Shift the mean of that spec's noise
        // block to the boundary (classic mean-shift importance sampling for
        // a linear limit state), capped at 3σ so likelihood weights stay
        // bounded. The shift is a pure function of `x`, as the engine's
        // determinism contract requires.
        let (spec, z_dist) = self
            .specs
            .iter()
            .map(|s| (s, s.form.margin(x) / s.sigma()))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite margins"))?;
        if z_dist <= 0.0 {
            // Nominally failing design: the acceptance screen rejects it
            // before any Monte-Carlo sampling, so no shift is useful.
            return None;
        }
        let scale = z_dist.min(3.0) / spec.sigma();
        let mut shift = vec![0.0; self.stat_dim];
        for (k, &w) in spec.noise_weights.iter().enumerate() {
            // Failure direction of `margin + w · z ≥ 0` is −w; normalise by
            // σ = ‖w‖ so the shifted mean lands on (or 3σ toward) the
            // boundary.
            shift[spec.noise_offset + k] = -scale * w;
        }
        Some(shift)
    }
}

impl Benchmark for SyntheticBench {
    fn name(&self) -> &str {
        &self.name
    }

    fn dimension(&self) -> usize {
        self.bounds.len()
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        self.bounds.clone()
    }

    fn reference_design(&self) -> Vec<f64> {
        self.reference.clone()
    }

    fn true_yield(&self, x: &[f64]) -> Option<f64> {
        Some(self.exact_yield(x))
    }

    fn as_model(&self) -> &dyn SimulationModel {
        self
    }
}

/// Builds a deterministic rotated SPD matrix `Rᵀ D R` for the ellipsoid
/// benchmark: `D` is log-spaced between `cond_lo` and `cond_hi` and `R` is a
/// product of Givens rotations with fixed angles.
pub fn rotated_spd_matrix(d: usize, cond_lo: f64, cond_hi: f64) -> Vec<f64> {
    assert!(d >= 2 && cond_lo > 0.0 && cond_hi >= cond_lo);
    // Start from the diagonal.
    let mut a = vec![0.0; d * d];
    for i in 0..d {
        let t = i as f64 / (d - 1) as f64;
        a[i * d + i] = cond_lo * (cond_hi / cond_lo).powf(t);
    }
    // Apply Givens rotations G(i, i+1, θ_i) on both sides: A <- Gᵀ A G.
    for i in 0..d - 1 {
        let theta = 0.4 + 0.3 * i as f64;
        let (s, c) = theta.sin_cos();
        // Columns i and i+1: A <- A G.
        for r in 0..d {
            let (ai, aj) = (a[r * d + i], a[r * d + i + 1]);
            a[r * d + i] = c * ai - s * aj;
            a[r * d + i + 1] = s * ai + c * aj;
        }
        // Rows i and i+1: A <- Gᵀ A.
        for col in 0..d {
            let (ai, aj) = (a[i * d + col], a[(i + 1) * d + col]);
            a[i * d + col] = c * ai - s * aj;
            a[(i + 1) * d + col] = s * ai + c * aj;
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_bench() -> SyntheticBench {
        SyntheticBench::new(
            "unit_sphere",
            vec![(-2.0, 2.0); 3],
            vec![0.0; 3],
            vec![SyntheticSpec {
                name: "sphere".into(),
                form: MarginForm::Quadratic {
                    center: vec![0.0; 3],
                    weights: vec![1.0; 3],
                    threshold: 2.0,
                },
                noise_offset: 0,
                noise_weights: vec![1.0],
            }],
        )
    }

    #[test]
    fn margins_and_truth_are_consistent() {
        let b = simple_bench();
        let x = vec![0.0; 3];
        assert_eq!(b.nominal(&x), vec![2.0]);
        let truth = b.exact_yield(&x);
        assert!(
            (truth - moheco_sampling::standard_normal_cdf(2.0)).abs() < 1e-12,
            "truth {truth}"
        );
        assert_eq!(Benchmark::true_yield(&b, &x), Some(truth));
    }

    #[test]
    fn simulate_point_matches_the_margin_sign() {
        let b = simple_bench();
        let x = vec![0.0; 3];
        // u = Φ(-margin) puts the noise exactly on the boundary; nudge both
        // ways.
        let boundary = moheco_sampling::standard_normal_cdf(-2.0);
        assert_eq!(b.simulate_point(&x, &[boundary * 1.5]), 1.0);
        assert_eq!(b.simulate_point(&x, &[boundary * 0.5]), 0.0);
    }

    #[test]
    fn ellipsoid_margin_is_rotation_invariant_at_center() {
        let m = rotated_spd_matrix(4, 0.5, 3.0);
        let form = MarginForm::Ellipsoid {
            center: vec![1.0; 4],
            matrix: m.clone(),
            threshold: 2.5,
        };
        assert!((form.margin(&[1.0; 4]) - 2.5).abs() < 1e-12);
        // The matrix is symmetric and positive definite: any off-centre
        // point has a smaller margin.
        for i in 0..4 {
            for j in 0..4 {
                assert!((m[i * 4 + j] - m[j * 4 + i]).abs() < 1e-9, "asymmetry");
            }
        }
        let mut x = vec![1.0; 4];
        x[2] = 2.0;
        assert!(form.margin(&x) < 2.5);
    }

    #[test]
    fn two_basin_is_multi_modal() {
        let form = MarginForm::TwoBasin {
            centers: [vec![-1.5, 0.0], vec![1.5, 0.0]],
            weights: [vec![1.0, 1.0], vec![0.5, 0.5]],
            threshold: 1.0,
        };
        let at_c1 = form.margin(&[-1.5, 0.0]);
        let at_c2 = form.margin(&[1.5, 0.0]);
        let between = form.margin(&[0.0, 0.0]);
        assert_eq!(at_c1, 1.0);
        assert_eq!(at_c2, 1.0);
        assert!(between < at_c1 && between < at_c2, "between {between}");
    }

    #[test]
    fn importance_shift_targets_the_dominant_spec_boundary() {
        let b = simple_bench();
        let x = vec![0.0; 3];
        // Single spec with margin 2 and sigma 1: the shift moves the mean of
        // the spec's (only) noise variable 2σ toward failure.
        let shift = b.importance_shift(&x).expect("feasible design shifts");
        assert_eq!(shift.len(), 1);
        assert!((shift[0] + 2.0).abs() < 1e-12, "shift {shift:?}");
        // The shifted noise mean sits exactly on the failure boundary:
        // margin + w · μ = 0.
        assert!((b.nominal(&x)[0] + shift[0]).abs() < 1e-12);
        // A distant margin is capped at 3σ.
        let far = SyntheticBench::new(
            "far",
            vec![(-2.0, 2.0)],
            vec![0.0],
            vec![SyntheticSpec {
                name: "wall".into(),
                form: MarginForm::Linear {
                    weights: vec![0.0],
                    offset: 10.0,
                },
                noise_offset: 0,
                noise_weights: vec![2.0],
            }],
        );
        let capped = far.importance_shift(&[0.0]).unwrap();
        let norm = capped.iter().map(|m| m * m).sum::<f64>().sqrt();
        assert!((norm - 3.0).abs() < 1e-12, "norm {norm}");
        // Nominally infeasible designs get no shift.
        let infeasible = b.importance_shift(&[2.0, 0.0, 0.0]);
        assert!(infeasible.is_none());
    }

    #[test]
    fn simulate_block_matches_simulate_point_on_every_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let oracles: Vec<_> = crate::all_scenarios()
            .into_iter()
            .filter(|s| s.has_true_yield())
            .map(|s| s.bench())
            .collect();
        assert_eq!(oracles.len(), 5, "the registry ships five oracles");
        let mut rng = StdRng::seed_from_u64(0x0AC1E);
        for bench in &oracles {
            let mut outcomes = [0usize; 2];
            for d in 0..40 {
                let x: Vec<f64> = if d == 0 {
                    bench.reference_design()
                } else {
                    bench
                        .bounds()
                        .iter()
                        .map(|&(lo, hi)| rng.gen_range(lo..=hi))
                        .collect()
                };
                let n = 1 + (d * 7) % 25;
                let us: Vec<Vec<f64>> = (0..n)
                    .map(|_| {
                        (0..bench.unit_dimension())
                            .map(|_| match rng.gen_range(0..12) {
                                0 => rng.gen_range(0.0..1e-9),
                                1 => 1.0 - rng.gen_range(0.0..1e-9),
                                2 => [0.0, 0.5, 1.0][rng.gen_range(0..3)],
                                _ => rng.gen(),
                            })
                            .collect()
                    })
                    .collect();
                let mut out = vec![f64::NAN; n];
                bench.simulate_block(&x, &us, &mut out);
                for (i, u) in us.iter().enumerate() {
                    let want = bench.simulate_point(&x, u);
                    assert_eq!(
                        out[i].to_bits(),
                        want.to_bits(),
                        "{} design {d} sample {i}",
                        bench.name()
                    );
                    outcomes[want as usize] += 1;
                }
            }
            assert!(
                outcomes[0] > 0 && outcomes[1] > 0,
                "{}: both outcomes must occur: {outcomes:?}",
                bench.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_noise_blocks_panic() {
        let spec = |offset| SyntheticSpec {
            name: "s".into(),
            form: MarginForm::Linear {
                weights: vec![0.0],
                offset: 1.0,
            },
            noise_offset: offset,
            noise_weights: vec![1.0, 1.0],
        };
        let _ = SyntheticBench::new("bad", vec![(-1.0, 1.0)], vec![0.0], vec![spec(0), spec(1)]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_reference_panics() {
        let _ = SyntheticBench::new(
            "bad",
            vec![(-1.0, 1.0)],
            vec![2.0],
            vec![SyntheticSpec {
                name: "s".into(),
                form: MarginForm::Linear {
                    weights: vec![1.0],
                    offset: 1.0,
                },
                noise_offset: 0,
                noise_weights: vec![1.0],
            }],
        );
    }
}
