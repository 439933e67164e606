//! Seed-driven property suite for the dense linear-algebra kernels.
//!
//! The LU routines in `linalg` are the arithmetic floor the whole workspace
//! stands on — the AC sweep, the batched simulation path and the surrogate
//! fits all funnel through them. The unit tests in the module pin a handful
//! of hand-computed systems; this suite drives the kernels over families of
//! random systems and asserts the *properties* that must hold for every
//! member: small residuals on well-conditioned systems, detected
//! singularities with the correct pivot, and round-trips through the complex
//! solver.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spicelite::linalg::lu_solve_in_place;
use spicelite::{CMatrix, Complex, Matrix, SpiceError};

/// Random square matrix with entries in `[-2, 2)` plus `2n` on the diagonal,
/// which makes it strictly diagonally dominant and therefore comfortably
/// non-singular.
fn random_dominant(rng: &mut StdRng, n: usize) -> Matrix {
    let mut m = Matrix::from_vec(n, n, (0..n * n).map(|_| rng.gen_range(-2.0..2.0)).collect());
    m.add_diagonal(2.0 * n as f64);
    m
}

fn residual_norm(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
    let n = x.len();
    (0..n)
        .map(|i| {
            let ax: f64 = (0..n).map(|j| a[(i, j)] * x[j]).sum();
            (ax - b[i]) * (ax - b[i])
        })
        .sum::<f64>()
        .sqrt()
}

#[test]
fn random_dominant_solves_have_small_residuals() {
    for seed in 0..25u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..13);
        let a = random_dominant(&mut rng, n);
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let x = a.solve(&b).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
        let bnorm = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        let res = residual_norm(&a, &x, &b);
        assert!(
            res <= 1e-10 * (1.0 + bnorm),
            "seed {seed} n {n}: residual {res:e}"
        );
    }
}

#[test]
fn solve_is_bit_identical_to_the_in_place_kernel() {
    // `Matrix::solve` is documented to be a thin allocator around
    // `lu_solve_in_place`; the batched AC path relies on the two entry points
    // agreeing bit-for-bit.
    for seed in 100..120u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..10);
        let a = random_dominant(&mut rng, n);
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let via_matrix = a.solve(&b).unwrap();
        let mut flat = a.as_slice().to_vec();
        let mut x = b.clone();
        lu_solve_in_place(n, &mut flat, &mut x).unwrap();
        for (i, (m, k)) in via_matrix.iter().zip(&x).enumerate() {
            assert_eq!(m.to_bits(), k.to_bits(), "seed {seed} x[{i}]: {m} vs {k}");
        }
    }
}

#[test]
fn zeroed_columns_report_the_failing_pivot() {
    // A zero column stays zero under row elimination, so the factorisation
    // must fail exactly when it reaches that column — the `pivot` field is
    // what the AC sweep surfaces to diagnose which MNA row went singular.
    for seed in 0..15u64 {
        let mut rng = StdRng::seed_from_u64(0xBAD + seed);
        let n = rng.gen_range(2..9);
        let dead = rng.gen_range(0..n);
        let mut a = random_dominant(&mut rng, n);
        for i in 0..n {
            a[(i, dead)] = 0.0;
        }
        let b = vec![1.0; n];
        match a.solve(&b) {
            Err(SpiceError::SingularMatrix { pivot }) => assert_eq!(
                pivot, dead,
                "seed {seed} n {n}: expected failure at column {dead}"
            ),
            other => panic!("seed {seed}: expected SingularMatrix, got {other:?}"),
        }
    }
}

#[test]
fn duplicated_rows_are_singular() {
    for seed in 0..15u64 {
        let mut rng = StdRng::seed_from_u64(0xD0 + seed);
        let n = rng.gen_range(2..9);
        let mut a = random_dominant(&mut rng, n);
        let src = rng.gen_range(0..n);
        let dst = (src + 1) % n;
        for j in 0..n {
            let v = a[(src, j)];
            a[(dst, j)] = v;
        }
        assert!(
            matches!(
                a.solve(&vec![1.0; n]),
                Err(SpiceError::SingularMatrix { .. })
            ),
            "seed {seed}: duplicated rows must be singular"
        );
    }
}

#[test]
fn complex_solves_round_trip_random_systems() {
    for seed in 0..25u64 {
        let mut rng = StdRng::seed_from_u64(0xCAFE + seed);
        let n = rng.gen_range(1..9);
        let mut a = CMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
            }
            // Diagonal dominance keeps the system well conditioned.
            a[(i, i)] += Complex::new(2.0 * n as f64, 0.0);
        }
        let x_true: Vec<Complex> = (0..n)
            .map(|_| Complex::new(rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)))
            .collect();
        let mut b = vec![Complex::ZERO; n];
        for i in 0..n {
            for j in 0..n {
                b[i] += a[(i, j)] * x_true[j];
            }
        }
        let x = a.solve(&b).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
        for (i, (got, want)) in x.iter().zip(&x_true).enumerate() {
            assert!(
                (*got - *want).abs() < 1e-10,
                "seed {seed} x[{i}]: {got:?} vs {want:?}"
            );
        }
    }
}

#[test]
fn complex_zero_column_reports_the_failing_pivot() {
    let n = 5;
    let dead = 2;
    let mut a = CMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            a[(i, j)] = Complex::new((i + 2 * j + 1) as f64, (i as f64) - (j as f64));
        }
        a[(i, i)] += Complex::new(10.0, 0.0);
    }
    for i in 0..n {
        a[(i, dead)] = Complex::ZERO;
    }
    match a.solve(&vec![Complex::ONE; n]) {
        Err(SpiceError::SingularMatrix { pivot }) => assert_eq!(pivot, dead),
        other => panic!("expected SingularMatrix, got {other:?}"),
    }
}

/// Satellite regression anchor: no numeric divergence between the scalar and
/// batched paths was found while building the batch kernel, so instead this
/// pins the solution of a pathological, nearly singular system to exact bit
/// patterns. Any future change to the elimination order, pivot strategy or
/// accumulation style of `lu_solve_in_place` shows up here first — which is
/// the alarm the bit-identity contract of the batched path needs.
#[test]
fn near_singular_solve_is_digest_pinned() {
    // Scaled 4x4 Hilbert matrix with one row nudged by 1e-12: condition
    // number ~1e4 * 1e12, right at the edge of double precision.
    let mut a = Matrix::zeros(4, 4);
    for i in 0..4 {
        for j in 0..4 {
            a[(i, j)] = 1.0 / ((i + j + 1) as f64);
        }
    }
    a[(3, 3)] += 1e-12;
    let b = [1.0, 0.0, 0.0, 1.0];
    let x = a.solve(&b).expect("perturbed Hilbert system must solve");
    let got: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
    let expected = [
        0xc05efffffe701f58u64, // -123.999999627585
        0x40985ffffed4178au64, //  1559.9999955310218
        0xc0aeeffffe891d80u64, // -3959.9999888275634
        0x40a4c7ffff0613b5u64, //  2659.9999925517136
    ];
    assert_eq!(
        got, expected,
        "pinned near-singular solution drifted: {x:?}"
    );
}
