//! Optimization-problem abstractions shared by every search engine in the
//! workspace.
//!
//! All engines minimise the objective. Yield optimization maximises yield, so
//! the MOHECO layers report `objective = -yield`. Constraints are aggregated
//! into a single non-negative violation value (0 = feasible), matching the
//! selection-based constraint handling of Deb (2000) used in the paper.

use rand::Rng;

/// The outcome of evaluating one candidate solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Objective value to be minimised.
    pub objective: f64,
    /// Aggregate constraint violation; `0.0` means feasible.
    pub constraint_violation: f64,
}

impl Evaluation {
    /// Creates an evaluation.
    pub fn new(objective: f64, constraint_violation: f64) -> Self {
        Self {
            objective,
            constraint_violation: constraint_violation.max(0.0),
        }
    }

    /// A feasible evaluation with the given objective.
    pub fn feasible(objective: f64) -> Self {
        Self::new(objective, 0.0)
    }

    /// An infeasible evaluation with the given violation; the objective is set
    /// to infinity so it can never win against a feasible candidate on value.
    pub fn infeasible(constraint_violation: f64) -> Self {
        Self::new(f64::INFINITY, constraint_violation)
    }

    /// Returns `true` when the candidate satisfies all constraints.
    pub fn is_feasible(&self) -> bool {
        self.constraint_violation <= 0.0
    }
}

/// A box-constrained, possibly noisy optimization problem.
pub trait Problem {
    /// Number of decision variables.
    fn dimension(&self) -> usize;

    /// Lower/upper bounds of each decision variable.
    fn bounds(&self) -> Vec<(f64, f64)>;

    /// Evaluates one candidate.
    fn evaluate(&mut self, x: &[f64]) -> Evaluation;

    /// Evaluates a whole generation of candidates at once.
    ///
    /// Every population-based engine in this crate (DE and the memetic
    /// coupling) routes its per-generation evaluations through this method,
    /// so problems backed by a batch-capable evaluator — such as the
    /// `moheco-runtime` simulation engine — can dispatch the generation in
    /// parallel. The default implementation evaluates serially, one by one,
    /// which keeps plain closure-backed problems unchanged.
    fn evaluate_batch(&mut self, xs: &[Vec<f64>]) -> Vec<Evaluation> {
        xs.iter().map(|x| self.evaluate(x)).collect()
    }
}

/// A problem defined by closures; convenient for tests and benchmarks.
pub struct FnProblem<F> {
    dimension: usize,
    bounds: Vec<(f64, f64)>,
    f: F,
}

impl<F> FnProblem<F>
where
    F: FnMut(&[f64]) -> Evaluation,
{
    /// Creates a closure-backed problem.
    ///
    /// # Panics
    ///
    /// Panics if `bounds.len() != dimension` or any bound is inverted.
    pub fn new(dimension: usize, bounds: Vec<(f64, f64)>, f: F) -> Self {
        assert_eq!(bounds.len(), dimension, "one bound pair per dimension");
        for (lo, hi) in &bounds {
            assert!(hi > lo, "bounds must satisfy hi > lo");
        }
        Self {
            dimension,
            bounds,
            f,
        }
    }
}

impl<F> Problem for FnProblem<F>
where
    F: FnMut(&[f64]) -> Evaluation,
{
    fn dimension(&self) -> usize {
        self.dimension
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        self.bounds.clone()
    }

    fn evaluate(&mut self, x: &[f64]) -> Evaluation {
        (self.f)(x)
    }
}

/// Draws a uniformly random point inside the given bounds.
pub fn random_point<R: Rng + ?Sized>(bounds: &[(f64, f64)], rng: &mut R) -> Vec<f64> {
    bounds
        .iter()
        .map(|&(lo, hi)| lo + (hi - lo) * rng.gen::<f64>())
        .collect()
}

/// Clamps a point into the given bounds, component-wise.
pub fn clamp_to_bounds(x: &mut [f64], bounds: &[(f64, f64)]) {
    for (xi, &(lo, hi)) in x.iter_mut().zip(bounds) {
        *xi = xi.clamp(lo, hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn evaluation_constructors() {
        let f = Evaluation::feasible(1.5);
        assert!(f.is_feasible());
        assert_eq!(f.objective, 1.5);
        let i = Evaluation::infeasible(3.0);
        assert!(!i.is_feasible());
        assert!(i.objective.is_infinite());
        // Negative violations are clamped to zero.
        let c = Evaluation::new(1.0, -2.0);
        assert!(c.is_feasible());
    }

    #[test]
    fn fn_problem_roundtrip() {
        let mut p = FnProblem::new(2, vec![(-1.0, 1.0), (0.0, 2.0)], |x: &[f64]| {
            Evaluation::feasible(x[0] * x[0] + x[1])
        });
        assert_eq!(p.dimension(), 2);
        assert_eq!(p.bounds().len(), 2);
        let e = p.evaluate(&[0.5, 1.0]);
        assert!((e.objective - 1.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn inverted_bounds_panic() {
        let _ = FnProblem::new(1, vec![(1.0, -1.0)], |_x: &[f64]| Evaluation::feasible(0.0));
    }

    #[test]
    fn random_point_respects_bounds() {
        let bounds = vec![(-2.0, -1.0), (5.0, 6.0)];
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let p = random_point(&bounds, &mut rng);
            assert!(p[0] >= -2.0 && p[0] < -1.0);
            assert!(p[1] >= 5.0 && p[1] < 6.0);
        }
    }

    #[test]
    fn clamp_pushes_points_inside() {
        let bounds = vec![(0.0, 1.0), (0.0, 1.0)];
        let mut x = vec![-0.5, 2.0];
        clamp_to_bounds(&mut x, &bounds);
        assert_eq!(x, vec![0.0, 1.0]);
    }
}
