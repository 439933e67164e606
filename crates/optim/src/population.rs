//! Populations of candidate solutions.

use crate::constraints::feasibility_compare;
use crate::problem::{random_point, Evaluation, Problem};
use rand::Rng;
use std::cmp::Ordering;

/// One candidate solution together with its evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Individual {
    /// Decision-variable vector.
    pub x: Vec<f64>,
    /// Evaluation of `x`.
    pub eval: Evaluation,
}

impl Individual {
    /// Creates an individual.
    pub fn new(x: Vec<f64>, eval: Evaluation) -> Self {
        Self { x, eval }
    }
}

/// A population of individuals.
#[derive(Debug, Clone, Default)]
pub struct Population {
    /// The members of the population.
    pub members: Vec<Individual>,
}

impl Population {
    /// Creates an empty population.
    pub fn new() -> Self {
        Self::default()
    }

    /// Initialises a population of `size` random individuals, evaluated on
    /// `problem` as one batch (see [`Problem::evaluate_batch`]).
    pub fn random<P: Problem + ?Sized, R: Rng + ?Sized>(
        problem: &mut P,
        size: usize,
        rng: &mut R,
    ) -> Self {
        let bounds = problem.bounds();
        let xs: Vec<Vec<f64>> = (0..size).map(|_| random_point(&bounds, rng)).collect();
        let evals = problem.evaluate_batch(&xs);
        let members = xs
            .into_iter()
            .zip(evals)
            .map(|(x, eval)| Individual::new(x, eval))
            .collect();
        Self { members }
    }

    /// Number of individuals.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` when the population is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Index of the best individual under the feasibility rules, or `None`
    /// when the population is empty.
    pub fn best_index(&self) -> Option<usize> {
        if self.members.is_empty() {
            return None;
        }
        let mut best = 0;
        for i in 1..self.members.len() {
            if feasibility_compare(&self.members[i].eval, &self.members[best].eval)
                == Ordering::Less
            {
                best = i;
            }
        }
        Some(best)
    }

    /// The best individual, or `None` when the population is empty.
    pub fn best(&self) -> Option<&Individual> {
        self.best_index().map(|i| &self.members[i])
    }

    /// Iterator over the members.
    pub fn iter(&self) -> std::slice::Iter<'_, Individual> {
        self.members.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::FnProblem;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sphere_problem() -> FnProblem<impl FnMut(&[f64]) -> Evaluation> {
        FnProblem::new(3, vec![(-5.0, 5.0); 3], |x: &[f64]| {
            Evaluation::feasible(x.iter().map(|v| v * v).sum())
        })
    }

    #[test]
    fn random_population_is_within_bounds_and_evaluated() {
        let mut p = sphere_problem();
        let mut rng = StdRng::seed_from_u64(5);
        let pop = Population::random(&mut p, 20, &mut rng);
        assert_eq!(pop.len(), 20);
        assert!(!pop.is_empty());
        for ind in pop.iter() {
            assert!(ind.x.iter().all(|v| (-5.0..5.0).contains(v)));
            assert!(ind.eval.objective >= 0.0);
        }
    }

    #[test]
    fn best_individual_has_lowest_objective() {
        let mut p = sphere_problem();
        let mut rng = StdRng::seed_from_u64(6);
        let pop = Population::random(&mut p, 30, &mut rng);
        let best = pop.best().unwrap();
        for ind in pop.iter() {
            assert!(best.eval.objective <= ind.eval.objective);
        }
    }

    #[test]
    fn feasibility_dominates_best_selection() {
        let pop = Population {
            members: vec![
                Individual::new(vec![0.0], Evaluation::infeasible(0.01)),
                Individual::new(vec![1.0], Evaluation::feasible(99.0)),
            ],
        };
        assert_eq!(pop.best_index(), Some(1));
    }

    #[test]
    fn empty_population_has_no_best() {
        let pop = Population::new();
        assert!(pop.best().is_none());
        assert!(pop.is_empty());
    }
}
