//! The MOHECO algorithm (Fig. 4 of the paper) and its baselines.
//!
//! One [`YieldOptimizer`] implements all compared methods; the
//! [`MohecoConfig`] selects the variant:
//!
//! * **MOHECO** — two-stage OO estimation + memetic DE/NM search
//!   ([`MohecoConfig::paper`]).
//! * **OO + AS + LHS** — two-stage OO estimation, no memetic operator
//!   ([`MohecoConfig::as_oo_without_memetic`]).
//! * **AS + LHS with N simulations** — fixed per-candidate budget, no memetic
//!   operator ([`MohecoConfig::as_fixed_budget`]).
//!
//! All variants share the DE engine, the selection-based constraint handling,
//! the acceptance-sampling screen and the LHS sampling plan, exactly as in the
//! paper's experimental setup.

use crate::benchmark::Benchmark;
use crate::candidate::{best_candidate_index, Candidate};
use crate::config::{MohecoConfig, YieldStrategy};
use crate::problem::YieldProblem;
use crate::trace::{GenerationRecord, Trace};
use crate::two_stage::{estimate_fixed_budget, estimate_two_stage};
use moheco_obs::Span;
use moheco_optim::de::{de_crossover, de_mutant};
use moheco_optim::memetic::StagnationTracker;
use moheco_optim::nelder_mead::{nelder_mead, NelderMeadConfig};
use moheco_optim::problem::random_point;
use moheco_sampling::{EstimatedYield, YieldEstimate};
use rand::Rng;

/// Result of one yield-optimization run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The best sizing found.
    pub best_x: Vec<f64>,
    /// The reported yield of the best sizing (stage-2 / `n_max`-sample estimate).
    pub reported_yield: f64,
    /// The best sizing's final estimate under the problem's configured
    /// variance-reduction estimator: point estimate plus standard error /
    /// CI half-width. Empty (zero samples) when no feasible design was
    /// found. `best_report.value` equals [`Self::reported_yield`].
    pub best_report: EstimatedYield,
    /// Total number of circuit simulations consumed by the run.
    pub total_simulations: u64,
    /// Number of generations executed.
    pub generations: usize,
    /// Number of times the Nelder–Mead local search was triggered.
    pub local_searches: usize,
    /// Per-generation trace.
    pub trace: Trace,
}

impl RunResult {
    /// Best-yield history over the generations.
    pub fn history(&self) -> Vec<f64> {
        self.trace.best_yield_history()
    }
}

/// The configurable yield optimizer.
#[derive(Debug, Clone)]
pub struct YieldOptimizer {
    config: MohecoConfig,
}

impl YieldOptimizer {
    /// Creates an optimizer with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`MohecoConfig::validate`]).
    pub fn new(config: MohecoConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MohecoConfig {
        &self.config
    }

    /// Runs the optimizer on `problem`.
    ///
    /// The driving `rng` is consumed only by the search operators (initial
    /// population, DE mutation/crossover); all Monte-Carlo sampling routes
    /// through the problem's evaluation engine, whose per-design sample
    /// streams are deterministic in the engine seed. A run is therefore
    /// reproducible from `(engine seed, rng seed)` and bit-identical between
    /// serial and parallel engines.
    pub fn run<B: Benchmark + ?Sized, R: Rng + ?Sized>(
        &self,
        problem: &YieldProblem<B>,
        rng: &mut R,
    ) -> RunResult {
        self.run_from(problem, &[], rng)
    }

    /// [`Self::run`] with a warm start: up to `population_size` seed designs
    /// (clamped to the bounds) fill the first population slots, the rest is
    /// random.
    ///
    /// This models the paper's overall flow, where yield optimization starts
    /// from a nominally sized design rather than from scratch — without a
    /// warm start, circuits with severe specifications (example 2) can spend
    /// the whole budget of a short run just finding the feasible region.
    pub fn run_from<B: Benchmark + ?Sized, R: Rng + ?Sized>(
        &self,
        problem: &YieldProblem<B>,
        warm_starts: &[Vec<f64>],
        rng: &mut R,
    ) -> RunResult {
        let cfg = &self.config;
        let bounds = problem.bounds();
        let sims_at_start = problem.simulations();
        // Everything below runs under the "optimize" phase; harnesses may
        // wrap this call in an outer span of their own (e.g. "run").
        let tracer = problem.tracer().clone();
        let run_span = Span::enter(&tracer, "optimize");

        // Step 0: initial population — warm-start seeds first, random fill —
        // screened for feasibility as one engine batch.
        let initial_xs: Vec<Vec<f64>> = warm_starts
            .iter()
            .take(cfg.population_size)
            .map(|x| {
                assert_eq!(x.len(), bounds.len(), "warm-start dimension mismatch");
                x.iter()
                    .zip(&bounds)
                    .map(|(&v, &(lo, hi))| v.clamp(lo, hi))
                    .collect()
            })
            .chain(
                (warm_starts.len().min(cfg.population_size)..cfg.population_size)
                    .map(|_| random_point(&bounds, rng)),
            )
            .collect();
        let mut population = self.screen_batch(problem, initial_xs);
        let init_samples = self.estimate_generation(problem, &mut population);

        let mut trace = Trace::new();
        let mut best = population[best_candidate_index(&population).expect("non-empty")].clone();
        trace.push(self.record(0, &population, &init_samples, problem, sims_at_start));

        let mut memetic_tracker = StagnationTracker::new(cfg.memetic_trigger);
        let mut stop_stagnation = 0usize;
        let mut generations = 1usize;
        let mut local_searches = 0usize;

        for gen in 1..cfg.max_generations {
            generations = gen + 1;
            // Steps 1-3: DE/best/1 mutation + crossover + feasibility screen.
            let n = population.len();
            let base = best_candidate_index(&population).expect("non-empty");
            let member = |i: usize| population[i].x.as_slice();
            let trial_xs: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    let mutant = de_mutant(n, member, base, i, cfg.de_f, &bounds, rng);
                    de_crossover(&population[i].x, &mutant, cfg.de_cr, rng)
                })
                .collect();
            let mut trials = self.screen_batch(problem, trial_xs);

            // Steps 4-7: yield estimation of the trial candidates.
            let samples = self.estimate_generation(problem, &mut trials);

            // Step 8: one-to-one selection.
            for (parent, trial) in population.iter_mut().zip(trials) {
                if trial.beats(parent) {
                    *parent = trial;
                }
            }

            // Track the best candidate.
            let gen_best =
                population[best_candidate_index(&population).expect("non-empty")].clone();
            let improved = gen_best.beats(&best)
                && (gen_best.yield_value() > best.yield_value() + 1e-12
                    || (!best.feasible && gen_best.feasible));
            if improved {
                best = gen_best.clone();
                stop_stagnation = 0;
            } else {
                stop_stagnation += 1;
            }

            // Steps 9-10: adaptive memetic local search on the best member.
            let trigger_value = if gen_best.feasible {
                -gen_best.yield_value()
            } else {
                f64::INFINITY
            };
            if cfg.memetic_enabled && memetic_tracker.update(trigger_value) && gen_best.feasible {
                local_searches += 1;
                let refined = self.local_search(problem, &gen_best, &bounds);
                if let Some(refined) = refined {
                    let idx = best_candidate_index(&population).expect("non-empty");
                    if refined.beats(&population[idx]) {
                        population[idx] = refined.clone();
                    }
                    if refined.beats(&best) && refined.yield_value() > best.yield_value() {
                        best = refined;
                        stop_stagnation = 0;
                    }
                }
            }

            trace.push(self.record(gen, &population, &samples, problem, sims_at_start));

            // Step 11: stopping criteria.
            if best.feasible && best.yield_value() >= cfg.target_yield {
                break;
            }
            if stop_stagnation >= cfg.stop_stagnation {
                break;
            }
        }

        // Final report: make sure the best candidate carries an n_max-sample
        // estimate (it may still be a stage-1 estimate for the fixed variants).
        let report_span = Span::enter(&tracer, "final_report");
        if best.feasible && best.estimate.samples < cfg.n_max {
            let missing = cfg.n_max - best.estimate.samples;
            let outcomes = problem.outcomes(&best.x, best.estimate.samples, missing);
            best.estimate = best.estimate.merge(&YieldEstimate::from_sum(
                outcomes.iter().sum(),
                outcomes.len(),
            ));
        }
        // Uncertainty of the final estimate under the configured estimator;
        // the samples were all fetched above, so this is pure cache traffic.
        let best_report = if best.feasible {
            problem.report_first(&best.x, best.estimate.samples)
        } else {
            EstimatedYield::empty(problem.estimator())
        };
        drop(report_span);
        drop(run_span);

        RunResult {
            best_x: best.x.clone(),
            reported_yield: best.yield_value(),
            best_report,
            total_simulations: problem.simulations() - sims_at_start,
            generations,
            local_searches,
            trace,
        }
    }

    /// Nominal feasibility screen of a whole generation (steps 3 and 7 of
    /// the flow), dispatched to the engine as one batch.
    fn screen_batch<B: Benchmark + ?Sized>(
        &self,
        problem: &YieldProblem<B>,
        xs: Vec<Vec<f64>>,
    ) -> Vec<Candidate> {
        let _span = Span::enter(problem.tracer(), "screening");
        let reports = problem.feasibility_batch(&xs);
        xs.into_iter()
            .zip(reports)
            .map(|(x, report)| Candidate::screened(&report, x))
            .collect()
    }

    /// Steps 4-7: estimate the yields of one generation of candidates;
    /// returns the Monte-Carlo samples served to each.
    fn estimate_generation<B: Benchmark + ?Sized>(
        &self,
        problem: &YieldProblem<B>,
        candidates: &mut [Candidate],
    ) -> Vec<usize> {
        let _span = Span::enter(problem.tracer(), "estimation");
        match self.config.strategy {
            YieldStrategy::TwoStageOo => estimate_two_stage(problem, candidates, &self.config),
            YieldStrategy::FixedBudget { sims_per_candidate } => {
                estimate_fixed_budget(problem, candidates, sims_per_candidate)
            }
        }
    }

    /// Step 10: Nelder–Mead refinement of the best member.
    ///
    /// Each probe point's estimate reads the first `n_max` samples of that
    /// design's stream, so re-probing a previously visited point — which
    /// Nelder–Mead does constantly while shrinking its simplex — is served
    /// entirely from the engine cache.
    fn local_search<B: Benchmark + ?Sized>(
        &self,
        problem: &YieldProblem<B>,
        start: &Candidate,
        bounds: &[(f64, f64)],
    ) -> Option<Candidate> {
        let _span = Span::enter(problem.tracer(), "nm_refine");
        let cfg = &self.config;
        let nm_cfg = NelderMeadConfig {
            max_iterations: cfg.nm_iterations,
            ..NelderMeadConfig::memetic_default()
        };
        let objective = |x: &[f64]| {
            let report = problem.feasibility(x);
            if !report.is_feasible() {
                return 1e6 + report.violation;
            }
            let est = problem.estimate_yield(x, cfg.n_max, report.decision);
            -est.value()
        };
        let result = nelder_mead(objective, &start.x, bounds, &nm_cfg);
        // Re-screen and re-estimate the refined point so the candidate carries
        // consistent data (both served from the cache).
        let report = problem.feasibility(&result.x);
        if !report.is_feasible() {
            return None;
        }
        let est = problem.estimate_yield(&result.x, cfg.n_max, report.decision);
        let mut refined = Candidate::feasible(result.x, report.decision);
        refined.estimate = est;
        Some(refined)
    }

    fn record<B: Benchmark + ?Sized>(
        &self,
        generation: usize,
        population: &[Candidate],
        samples: &[usize],
        problem: &YieldProblem<B>,
        sims_at_start: u64,
    ) -> GenerationRecord {
        let best_idx = best_candidate_index(population).expect("non-empty");
        GenerationRecord {
            generation,
            best_yield: population[best_idx].yield_value(),
            simulations_so_far: problem.simulations() - sims_at_start,
            candidates: population
                .iter()
                .zip(samples)
                .map(|(c, &n)| (c.x.clone(), c.yield_value(), n))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moheco_analog::{FoldedCascode, Testbench};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_config() -> MohecoConfig {
        MohecoConfig {
            population_size: 8,
            n0: 4,
            sim_ave: 10,
            delta: 6,
            n_max: 40,
            max_generations: 6,
            stop_stagnation: 5,
            nm_iterations: 3,
            ..MohecoConfig::fast()
        }
    }

    #[test]
    fn moheco_run_produces_a_feasible_design_with_decent_yield() {
        let problem = YieldProblem::new(FoldedCascode::new());
        let optimizer = YieldOptimizer::new(tiny_config());
        let mut rng = StdRng::seed_from_u64(1);
        let result = optimizer.run(&problem, &mut rng);
        assert!(result.total_simulations > 0);
        assert_eq!(result.total_simulations, problem.simulations());
        assert!(result.generations >= 1 && result.generations <= 6);
        assert!(!result.trace.is_empty());
        assert!(result.reported_yield >= 0.0 && result.reported_yield <= 1.0);
        assert_eq!(result.best_x.len(), problem.dimension());
    }

    #[test]
    fn fixed_budget_variant_spends_more_simulations_than_two_stage() {
        let mut sims_fixed = 0;
        let mut sims_oo = 0;
        for seed in 0..2u64 {
            let problem = YieldProblem::new(FoldedCascode::new());
            let fixed = YieldOptimizer::new(tiny_config().as_fixed_budget(60))
                .run(&problem, &mut StdRng::seed_from_u64(seed));
            sims_fixed += fixed.total_simulations;

            let problem2 = YieldProblem::new(FoldedCascode::new());
            let oo = YieldOptimizer::new(tiny_config().as_oo_without_memetic())
                .run(&problem2, &mut StdRng::seed_from_u64(seed));
            sims_oo += oo.total_simulations;
        }
        assert!(
            sims_oo < sims_fixed,
            "OO variant should be cheaper: {sims_oo} vs {sims_fixed}"
        );
    }

    #[test]
    fn trace_contains_training_data() {
        let problem = YieldProblem::new(FoldedCascode::new());
        let optimizer = YieldOptimizer::new(tiny_config());
        // Seed chosen so the tiny 8-member / 6-generation budget actually
        // finds feasible candidates (some seeds legitimately do not).
        let mut rng = StdRng::seed_from_u64(0);
        let result = optimizer.run(&problem, &mut rng);
        let pairs = result.trace.training_pairs(result.generations - 1);
        assert!(!pairs.is_empty());
        for (x, y) in &pairs {
            assert_eq!(x.len(), problem.dimension());
            assert!((0.0..=1.0).contains(y));
        }
    }

    #[test]
    fn warm_started_run_keeps_the_seed_design_in_play() {
        let problem = YieldProblem::new(FoldedCascode::new());
        let optimizer = YieldOptimizer::new(tiny_config());
        let reference = problem.testbench().reference_design();
        // Seed deliberately outside the bounds on one axis: it must be
        // clamped, not rejected.
        let mut seed = reference.clone();
        seed[0] = -1.0;
        let mut rng = StdRng::seed_from_u64(3);
        let result = optimizer.run_from(&problem, &[reference.clone(), seed], &mut rng);
        // With the known-good reference in the initial population the run is
        // feasible from generation 0.
        assert!(
            result.reported_yield > 0.0,
            "yield {}",
            result.reported_yield
        );
        assert!(result.trace.records[0].best_yield > 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn warm_start_with_wrong_dimension_panics() {
        let problem = YieldProblem::new(FoldedCascode::new());
        let optimizer = YieldOptimizer::new(tiny_config());
        let mut rng = StdRng::seed_from_u64(3);
        let _ = optimizer.run_from(&problem, &[vec![1.0; 3]], &mut rng);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let run = |seed: u64| {
            let problem = YieldProblem::new(FoldedCascode::new());
            let optimizer = YieldOptimizer::new(tiny_config());
            let mut rng = StdRng::seed_from_u64(seed);
            let r = optimizer.run(&problem, &mut rng);
            (r.best_x.clone(), r.total_simulations)
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        let c = run(10);
        assert!(a.0 != c.0 || a.1 != c.1);
    }

    #[test]
    #[should_panic]
    fn invalid_configuration_is_rejected() {
        let mut cfg = tiny_config();
        cfg.population_size = 2;
        let _ = YieldOptimizer::new(cfg);
    }
}
