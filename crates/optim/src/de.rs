//! Differential Evolution (DE).
//!
//! DE (Price & Storn) is the global search engine of MOHECO: a simple
//! differential mutation operator creates trial vectors and a greedy
//! one-to-one selection (here under Deb's feasibility rules) decides whether
//! each trial replaces its parent. The paper uses a population of 50,
//! crossover rate `CR = 0.8` and step size `F = 0.8`.
//!
//! The mutation/crossover operators are exposed as free functions so the
//! MOHECO core (which owns its own generation loop because of the two-stage
//! yield estimation) can reuse exactly the same operators.

use crate::constraints::is_better_or_equal;
use crate::population::{Individual, Population};
use crate::problem::{clamp_to_bounds, Problem};
use crate::result::OptimizationResult;
use rand::Rng;

/// Configuration of the DE engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeConfig {
    /// Population size (paper: 50).
    pub population_size: usize,
    /// Differential weight `F` (paper: 0.8).
    pub f: f64,
    /// Crossover rate `CR` (paper: 0.8).
    pub cr: f64,
    /// Maximum number of generations.
    pub max_generations: usize,
    /// Stop when the best objective has not improved for this many
    /// generations (paper: 20). `None` disables the criterion.
    pub stagnation_limit: Option<usize>,
    /// Stop as soon as the best objective reaches this value or better.
    pub target_objective: Option<f64>,
}

impl Default for DeConfig {
    fn default() -> Self {
        Self {
            population_size: 50,
            f: 0.8,
            cr: 0.8,
            max_generations: 200,
            stagnation_limit: Some(20),
            target_objective: None,
        }
    }
}

/// Generates the `DE/best/1` mutant (donor) vector for member `target` of an
/// `n`-member population whose member `j` has the design `member(j)`: the
/// `base` member (the caller's current best) plus `f` times the difference of
/// two random members (the paper's "select base vector" step, which
/// propagates good schemata).
///
/// # Panics
///
/// Panics if the population has fewer than four members.
pub fn de_mutant<'a, R: Rng + ?Sized>(
    n: usize,
    member: impl Fn(usize) -> &'a [f64],
    base: usize,
    target: usize,
    f: f64,
    bounds: &[(f64, f64)],
    rng: &mut R,
) -> Vec<f64> {
    assert!(n >= 4, "DE needs at least four individuals");
    // Pick three distinct indices different from the target (`DE/rand/1`'s
    // triple; `DE/best/1` replaces the first with `base`).
    let mut pick = || loop {
        let r = rng.gen_range(0..n);
        if r != target {
            break r;
        }
    };
    let (r1, mut r2, mut r3) = (pick(), pick(), pick());
    while r2 == r1 {
        r2 = pick();
    }
    while r3 == r1 || r3 == r2 {
        r3 = pick();
    }
    let (a, b) = (member(r2), member(r3));
    let mut mutant: Vec<f64> = member(base)
        .iter()
        .zip(a.iter().zip(b.iter()))
        .map(|(&base_j, (&a_j, &b_j))| base_j + f * (a_j - b_j))
        .collect();
    clamp_to_bounds(&mut mutant, bounds);
    mutant
}

/// Binomial (uniform) crossover between the target vector and the mutant.
///
/// At least one component is always taken from the mutant.
pub fn de_crossover<R: Rng + ?Sized>(
    target: &[f64],
    mutant: &[f64],
    cr: f64,
    rng: &mut R,
) -> Vec<f64> {
    let d = target.len();
    let forced = rng.gen_range(0..d);
    (0..d)
        .map(|j| {
            if j == forced || rng.gen::<f64>() < cr {
                mutant[j]
            } else {
                target[j]
            }
        })
        .collect()
}

/// The DE optimizer.
#[derive(Debug, Clone)]
pub struct DifferentialEvolution {
    config: DeConfig,
}

impl DifferentialEvolution {
    /// Creates a DE engine with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the population size is below 4 or `f`/`cr` are out of range.
    pub fn new(config: DeConfig) -> Self {
        assert!(config.population_size >= 4, "population must be >= 4");
        assert!(config.f > 0.0 && config.f <= 2.0, "F must be in (0, 2]");
        assert!((0.0..=1.0).contains(&config.cr), "CR must be in [0, 1]");
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DeConfig {
        &self.config
    }

    /// Runs the optimizer on `problem`.
    pub fn run<P: Problem + ?Sized, R: Rng + ?Sized>(
        &self,
        problem: &mut P,
        rng: &mut R,
    ) -> OptimizationResult {
        let bounds = problem.bounds();
        let mut population = Population::random(problem, self.config.population_size, rng);
        let mut evaluations = population.len();
        let mut history = Vec::new();
        let mut best_so_far = population.best().cloned();
        let mut stagnation = 0usize;
        let mut generations = 0usize;

        for _ in 0..self.config.max_generations {
            generations += 1;
            let mut improved = false;
            // Synchronous (generational) DE: all trial vectors derive from the
            // population as it stood at the start of the generation, so the
            // whole generation can be evaluated as one batch (and, with a
            // batch-capable problem, dispatched in parallel).
            let n = population.len();
            let base = population.best_index().expect("non-empty population");
            let member = |i: usize| population.members[i].x.as_slice();
            let trials: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    let mutant = de_mutant(n, member, base, i, self.config.f, &bounds, rng);
                    de_crossover(&population.members[i].x, &mutant, self.config.cr, rng)
                })
                .collect();
            let trial_evals = problem.evaluate_batch(&trials);
            evaluations += trial_evals.len();
            for (i, (trial_x, trial_eval)) in trials.into_iter().zip(trial_evals).enumerate() {
                if is_better_or_equal(&trial_eval, &population.members[i].eval) {
                    population.members[i] = Individual::new(trial_x, trial_eval);
                }
            }
            let best = population.best().cloned().expect("non-empty population");
            if let Some(prev) = &best_so_far {
                if is_better_or_equal(&best.eval, &prev.eval)
                    && best.eval.objective < prev.eval.objective - 1e-15
                {
                    improved = true;
                }
                if crate::constraints::feasibility_compare(&best.eval, &prev.eval)
                    == std::cmp::Ordering::Less
                {
                    best_so_far = Some(best.clone());
                }
            } else {
                best_so_far = Some(best.clone());
                improved = true;
            }
            history.push(best_so_far.as_ref().unwrap().eval.objective);

            if improved {
                stagnation = 0;
            } else {
                stagnation += 1;
            }
            if let Some(target) = self.config.target_objective {
                if best_so_far.as_ref().unwrap().eval.is_feasible()
                    && best_so_far.as_ref().unwrap().eval.objective <= target
                {
                    break;
                }
            }
            if let Some(limit) = self.config.stagnation_limit {
                if stagnation >= limit {
                    break;
                }
            }
        }

        OptimizationResult {
            best: best_so_far.expect("population was evaluated"),
            generations,
            evaluations,
            history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Evaluation, FnProblem};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sphere(dim: usize) -> FnProblem<impl FnMut(&[f64]) -> Evaluation> {
        FnProblem::new(dim, vec![(-5.0, 5.0); dim], |x: &[f64]| {
            Evaluation::feasible(x.iter().map(|v| v * v).sum())
        })
    }

    fn rosenbrock() -> FnProblem<impl FnMut(&[f64]) -> Evaluation> {
        FnProblem::new(2, vec![(-2.0, 2.0); 2], |x: &[f64]| {
            let a = 1.0 - x[0];
            let b = x[1] - x[0] * x[0];
            Evaluation::feasible(a * a + 100.0 * b * b)
        })
    }

    /// Constrained problem: minimise x0 + x1 subject to x0*x1 >= 1, x in [0, 10].
    fn constrained() -> FnProblem<impl FnMut(&[f64]) -> Evaluation> {
        FnProblem::new(2, vec![(0.0, 10.0); 2], |x: &[f64]| {
            let violation = (1.0 - x[0] * x[1]).max(0.0);
            if violation > 0.0 {
                Evaluation::new(x[0] + x[1], violation)
            } else {
                Evaluation::feasible(x[0] + x[1])
            }
        })
    }

    #[test]
    fn config_validation() {
        let c = DeConfig {
            population_size: 3,
            ..DeConfig::default()
        };
        assert!(std::panic::catch_unwind(|| DifferentialEvolution::new(c)).is_err());
        let c2 = DeConfig {
            cr: 1.5,
            ..DeConfig::default()
        };
        assert!(std::panic::catch_unwind(|| DifferentialEvolution::new(c2)).is_err());
    }

    #[test]
    fn mutant_stays_in_bounds() {
        let mut problem = sphere(4);
        let mut rng = StdRng::seed_from_u64(9);
        let pop = Population::random(&mut problem, 10, &mut rng);
        let bounds = problem.bounds();
        let member = |i: usize| pop.members[i].x.as_slice();
        for i in 0..pop.len() {
            let m = de_mutant(pop.len(), member, 0, i, 0.8, &bounds, &mut rng);
            assert!(m.iter().all(|v| (-5.0..=5.0).contains(v)));
        }
    }

    #[test]
    fn zero_step_mutant_is_the_clamped_base_member() {
        let designs = [
            vec![0.5, -0.5],
            vec![7.0, -9.0],
            vec![1.0, 2.0],
            vec![-3.0, 4.0],
            vec![0.0, 0.0],
        ];
        let bounds = [(-5.0, 5.0); 2];
        let mut rng = StdRng::seed_from_u64(16);
        for base in 0..designs.len() {
            for target in 0..designs.len() {
                let m = de_mutant(
                    designs.len(),
                    |i| designs[i].as_slice(),
                    base,
                    target,
                    0.0,
                    &bounds,
                    &mut rng,
                );
                let mut expected = designs[base].clone();
                clamp_to_bounds(&mut expected, &bounds);
                assert_eq!(m, expected);
            }
        }
    }

    #[test]
    fn crossover_takes_at_least_one_mutant_component() {
        let mut rng = StdRng::seed_from_u64(10);
        let target = vec![0.0; 8];
        let mutant = vec![1.0; 8];
        // Even with CR = 0 one component must come from the mutant.
        let child = de_crossover(&target, &mutant, 0.0, &mut rng);
        assert!(child.contains(&1.0));
        // With CR = 1 every component comes from the mutant.
        let child_full = de_crossover(&target, &mutant, 1.0, &mut rng);
        assert!(child_full.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn de_minimises_sphere() {
        let mut problem = sphere(5);
        let mut rng = StdRng::seed_from_u64(11);
        let de = DifferentialEvolution::new(DeConfig {
            population_size: 30,
            max_generations: 150,
            stagnation_limit: None,
            ..DeConfig::default()
        });
        let result = de.run(&mut problem, &mut rng);
        assert!(
            result.best_objective() < 1e-3,
            "best {}",
            result.best_objective()
        );
        assert!(result.evaluations > 30);
    }

    #[test]
    fn de_minimises_rosenbrock() {
        let mut problem = rosenbrock();
        let mut rng = StdRng::seed_from_u64(12);
        let de = DifferentialEvolution::new(DeConfig {
            population_size: 40,
            max_generations: 300,
            stagnation_limit: None,
            ..DeConfig::default()
        });
        let result = de.run(&mut problem, &mut rng);
        assert!(
            result.best_objective() < 1e-2,
            "best {}",
            result.best_objective()
        );
        assert!((result.best.x[0] - 1.0).abs() < 0.2);
    }

    #[test]
    fn de_satisfies_constraints() {
        let mut problem = constrained();
        let mut rng = StdRng::seed_from_u64(13);
        let de = DifferentialEvolution::new(DeConfig {
            population_size: 30,
            max_generations: 200,
            stagnation_limit: None,
            ..DeConfig::default()
        });
        let result = de.run(&mut problem, &mut rng);
        assert!(result.is_feasible());
        // Optimum is x0 = x1 = 1 with objective 2.
        assert!(
            (result.best_objective() - 2.0).abs() < 0.05,
            "best {}",
            result.best_objective()
        );
    }

    #[test]
    fn stagnation_limit_stops_early() {
        let mut problem = sphere(3);
        let mut rng = StdRng::seed_from_u64(14);
        let de = DifferentialEvolution::new(DeConfig {
            population_size: 20,
            max_generations: 500,
            stagnation_limit: Some(5),
            ..DeConfig::default()
        });
        let result = de.run(&mut problem, &mut rng);
        assert!(result.generations < 500);
    }

    #[test]
    fn target_objective_stops_early() {
        let mut problem = sphere(3);
        let mut rng = StdRng::seed_from_u64(15);
        let de = DifferentialEvolution::new(DeConfig {
            population_size: 20,
            max_generations: 500,
            stagnation_limit: None,
            target_objective: Some(0.5),
            ..DeConfig::default()
        });
        let result = de.run(&mut problem, &mut rng);
        assert!(result.best_objective() <= 0.5);
        assert!(result.generations < 500);
    }

    #[test]
    fn history_is_monotone_non_increasing() {
        let mut problem = sphere(4);
        let mut rng = StdRng::seed_from_u64(17);
        let de = DifferentialEvolution::new(DeConfig::default());
        let result = de.run(&mut problem, &mut rng);
        for w in result.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }
}
