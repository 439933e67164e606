//! Property-style tests of the core data structures and invariants: OCBA
//! allocations and the sequential OCBA loop, Latin Hypercube
//! stratification and its survival through the process-variation mapping,
//! yield estimates, the feasibility comparator and the LU solve.
//!
//! The original seed used the `proptest` crate; this build environment is
//! offline, so the same properties are exercised by deterministic seeded
//! case generators instead (every case that would have been drawn by a
//! strategy is now drawn from a seeded `StdRng`, so failures stay
//! reproducible).

use moheco_ocba::allocation::allocate;
use moheco_ocba::sequential::{run_sequential_batched, SequentialConfig};
use moheco_ocba::{allocate_arm_increment, Arm};
use moheco_optim::constraints::{feasibility_compare, is_better_or_equal};
use moheco_optim::problem::Evaluation;
use moheco_process::{tech_035um, tech_90nm, ProcessSampler};
use moheco_sampling::{standard_normal_quantile, SamplingPlan, YieldEstimate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spicelite::linalg::Matrix;

const CASES: u64 = 64;

/// OCBA allocations always sum to the requested budget and are non-negative.
#[test]
fn ocba_allocation_sums_to_total() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2usize..20);
        let means: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let total = rng.gen_range(1usize..2000);
        let variances: Vec<f64> = means
            .iter()
            .map(|m| (m * (1.0 - m)).max(1e-6 * ((seed % 7 + 1) as f64)))
            .collect();
        let alloc = allocate(&means, &variances, total).expect("valid inputs");
        assert_eq!(alloc.len(), means.len(), "seed {seed}");
        assert_eq!(alloc.iter().sum::<usize>(), total, "seed {seed}");
    }
}

/// The OCBA incremental allocation never assigns a negative top-up and
/// always distributes exactly `delta`.
#[test]
fn ocba_incremental_distributes_delta() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let n = rng.gen_range(2usize..12);
        let arms: Vec<Arm> = (0..n)
            .map(|_| {
                let m = rng.gen_range(0.05..0.95);
                let spent = rng.gen_range(1usize..200);
                Arm::new(m, m * (1.0 - m), spent)
            })
            .collect();
        let delta = rng.gen_range(1usize..500);
        let add = allocate_arm_increment(&arms, delta).expect("valid");
        assert_eq!(add.iter().sum::<usize>(), delta, "seed {seed}");
    }
}

/// Latin Hypercube samples are stratified: every dimension has exactly one
/// point per stratum, and all coordinates lie in [0, 1).
#[test]
fn lhs_is_stratified() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(2000 + seed);
        let n = rng.gen_range(2usize..40);
        let dim = rng.gen_range(1usize..10);
        let pts = SamplingPlan::LatinHypercube.generate(&mut rng, n, dim);
        assert_eq!(pts.len(), n);
        for d in 0..dim {
            let mut counts = vec![0usize; n];
            for p in &pts {
                assert!(p[d] >= 0.0 && p[d] < 1.0, "seed {seed}");
                let stratum = ((p[d] * n as f64).floor() as usize).min(n - 1);
                counts[stratum] += 1;
            }
            assert!(counts.iter().all(|&c| c == 1), "seed {seed} dim {d}");
        }
    }
}

/// Yield estimates stay in [0, 1], and merging preserves the pass counts.
#[test]
fn yield_estimate_merge_is_consistent() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(3000 + seed);
        let n1 = rng.gen_range(0usize..100);
        let n2 = rng.gen_range(0usize..100);
        let p1 = rng.gen_range(0usize..100).min(n1);
        let p2 = rng.gen_range(0usize..100).min(n2);
        let a = YieldEstimate::new(p1, n1);
        let b = YieldEstimate::new(p2, n2);
        let m = a.merge(&b);
        assert_eq!(m.samples, n1 + n2);
        assert_eq!(m.sum, (p1 + p2) as f64);
        assert!((0.0..=1.0).contains(&m.value()));
        let p = m.value();
        assert!(p * (1.0 - p) <= 0.25 + 1e-12);
    }
}

/// The feasibility comparator is antisymmetric and consistent with
/// `is_better_or_equal`.
#[test]
fn feasibility_comparator_is_antisymmetric() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(4000 + seed);
        let a = Evaluation::new(rng.gen_range(-1e3..1e3), rng.gen_range(0.0..10.0));
        let b = Evaluation::new(rng.gen_range(-1e3..1e3), rng.gen_range(0.0..10.0));
        let ab = feasibility_compare(&a, &b);
        let ba = feasibility_compare(&b, &a);
        assert_eq!(ab, ba.reverse(), "seed {seed}");
        if is_better_or_equal(&a, &b) && is_better_or_equal(&b, &a) {
            assert_eq!(ab, std::cmp::Ordering::Equal, "seed {seed}");
        }
    }
}

/// The sequential OCBA loop spends exactly its budget when no cap binds,
/// and with a per-design cap no design exceeds it while the budget is spent
/// up to the total cap room.
#[test]
fn sequential_spends_the_budget_within_caps() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(5000 + seed);
        let n = rng.gen_range(2usize..12);
        let n0 = rng.gen_range(1usize..16);
        let cap = (seed % 2 == 1).then(|| rng.gen_range(1usize..60));
        let config = SequentialConfig {
            n0,
            delta: rng.gen_range(1usize..30),
            total_budget: n * n0 + rng.gen_range(0usize..500),
            per_design_cap: cap,
        };
        let probs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let out = run_sequential_batched(n, config, |round| {
            round
                .iter()
                .map(|&(d, k)| {
                    (0..k)
                        .map(|_| f64::from(u8::from(rng.gen::<f64>() < probs[d])))
                        .collect()
                })
                .collect()
        })
        .expect("at least two designs");
        assert_eq!(
            out.spent.iter().sum::<usize>(),
            out.total_spent,
            "seed {seed}"
        );
        match cap {
            None => assert_eq!(out.total_spent, config.total_budget, "seed {seed}"),
            Some(cap) => {
                assert!(out.spent.iter().all(|&s| s <= cap), "seed {seed}");
                assert_eq!(
                    out.total_spent,
                    config.total_budget.min(cap * n),
                    "seed {seed}"
                );
            }
        }
    }
}

/// Solving a diagonally dominant system and multiplying back recovers the
/// right-hand side.
#[test]
fn lu_solve_roundtrip() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(6000 + seed);
        let dim = rng.gen_range(1usize..8);
        let mut a = Matrix::zeros(dim, dim);
        for i in 0..dim {
            let mut row_sum = 0.0;
            for j in 0..dim {
                if i != j {
                    let v: f64 = rng.gen_range(-1.0..1.0);
                    a[(i, j)] = v;
                    row_sum += v.abs();
                }
            }
            a[(i, i)] = row_sum + 1.0; // strict diagonal dominance
        }
        let x_true: Vec<f64> = (0..dim).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let b: Vec<f64> = (0..dim)
            .map(|i| (0..dim).map(|j| a[(i, j)] * x_true[j]).sum())
            .collect();
        let x = a.solve(&b).expect("diagonally dominant");
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-8, "seed {seed}");
        }
    }
}

/// The process-variation mapping keeps Latin Hypercube stratification: an
/// n-point block mapped through `from_unit_point` puts exactly one value of
/// every coordinate in each stratum `[σ·Φ⁻¹(k/n), σ·Φ⁻¹((k+1)/n))`, with
/// `σ = 1` for the mismatch z-scores and the outer strata open-ended.
#[test]
fn unit_point_mapping_keeps_lhs_strata() {
    for seed in 0..CASES {
        let (tech, devices) = if seed % 2 == 0 {
            (tech_035um(), 15)
        } else {
            (tech_90nm(), 19)
        };
        let mut rng = StdRng::seed_from_u64(7000 + seed);
        let n = rng.gen_range(2usize..40);
        let sampler = ProcessSampler::new(tech.clone(), devices);
        let pts = SamplingPlan::LatinHypercube.generate(&mut rng, n, sampler.dimension());
        let values: Vec<Vec<f64>> = pts
            .iter()
            .map(|u| {
                let xi = sampler.from_unit_point(u);
                xi.inter
                    .iter()
                    .chain(xi.intra.as_flattened())
                    .copied()
                    .collect()
            })
            .collect();
        let sigmas = tech
            .inter_die
            .iter()
            .map(|p| p.sigma)
            .chain(std::iter::repeat(1.0));
        for (d, sigma) in (0..sampler.dimension()).zip(sigmas) {
            let edges: Vec<f64> = (1..n)
                .map(|k| sigma * standard_normal_quantile(k as f64 / n as f64))
                .collect();
            let mut counts = vec![0usize; n];
            for v in &values {
                counts[edges.iter().filter(|&&e| e <= v[d]).count()] += 1;
            }
            assert!(counts.iter().all(|&c| c == 1), "seed {seed} coordinate {d}");
        }
    }
}
