//! The unified experiment harness behind the `moheco-campaign` binary.
//!
//! [`RunSpec`] executes one (scenario, algorithm, budget, seed, engine)
//! combination through the PR-1 evaluation engine and condenses it into one
//! [`ScenarioResult`]:
//!
//! ```text
//! RunSpec::new(scenario, algo)
//!     .budget(..).seed(..).estimator(..).prescreen(..)
//!     .tracer(..).engine(..)        // all optional
//!     .execute()
//! ```
//!
//! Four algorithms are exposed:
//!
//! * `memetic` — full MOHECO (two-stage OO estimation + DE/NM search);
//! * `two-stage` — OO + AS + LHS without the memetic operator;
//! * `de` / `ga` — plain Differential Evolution / Genetic Algorithm over a
//!   fixed-budget yield objective (the `AS + LHS` baseline family), routed
//!   through the same engine so cache hits and simulation counts stay
//!   comparable.

use crate::results::{trace_digest, ScenarioResult};
use crate::EngineKind;
use moheco::{
    Benchmark, MohecoConfig, PrescreenConfig, PrescreenKind, YieldOptimizer, YieldProblem,
    YieldStrategy,
};
use moheco_obs::json::fmt_f64;
use moheco_obs::{Span, Tracer};
use moheco_optim::de::{DeConfig, DifferentialEvolution};
use moheco_optim::filter::{AdmitAll, TrialFilter};
use moheco_optim::ga::{GaConfig, GeneticAlgorithm};
use moheco_optim::problem::{Evaluation, Problem};
use moheco_optim::result::OptimizationResult;
use moheco_runtime::EvalEngine;
use moheco_sampling::{EstimatorKind, Z_95};
use moheco_scenarios::Scenario;
use moheco_surrogate::{PrescreenModel, RsbPrescreen};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// The algorithms `moheco-campaign --algo` accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algo {
    /// Plain DE over a fixed-budget yield objective.
    De,
    /// Plain GA over a fixed-budget yield objective.
    Ga,
    /// Full MOHECO (two-stage OO + memetic DE/NM).
    #[default]
    Memetic,
    /// Two-stage OO estimation without the memetic operator.
    TwoStage,
}

impl Algo {
    /// Parses a `--algo` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "de" => Some(Self::De),
            "ga" => Some(Self::Ga),
            "memetic" => Some(Self::Memetic),
            "two-stage" => Some(Self::TwoStage),
            _ => None,
        }
    }

    /// The stable label used in results and file names.
    pub fn label(&self) -> &'static str {
        match self {
            Self::De => "de",
            Self::Ga => "ga",
            Self::Memetic => "memetic",
            Self::TwoStage => "two-stage",
        }
    }
}

/// The budget classes `moheco-campaign --budget` accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BudgetClass {
    /// Minimal settings for unit tests (seconds per scenario).
    Tiny,
    /// CI smoke settings: big enough for meaningful yields, small enough to
    /// run the whole registry on every push.
    #[default]
    Small,
    /// The paper's full-scale settings.
    Paper,
}

impl BudgetClass {
    /// Parses a `--budget` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "tiny" => Some(Self::Tiny),
            "small" => Some(Self::Small),
            "paper" => Some(Self::Paper),
            _ => None,
        }
    }

    /// The stable label used in results.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Tiny => "tiny",
            Self::Small => "small",
            Self::Paper => "paper",
        }
    }

    /// The optimizer configuration of this budget class.
    pub fn config(&self) -> MohecoConfig {
        match self {
            Self::Tiny => MohecoConfig {
                population_size: 8,
                n0: 4,
                sim_ave: 10,
                delta: 6,
                n_max: 40,
                max_generations: 4,
                stop_stagnation: 3,
                nm_iterations: 3,
                ..MohecoConfig::fast()
            },
            Self::Small => MohecoConfig {
                population_size: 10,
                n0: 5,
                sim_ave: 14,
                delta: 8,
                n_max: 80,
                max_generations: 8,
                stop_stagnation: 5,
                nm_iterations: 4,
                ..MohecoConfig::fast()
            },
            Self::Paper => MohecoConfig::paper(),
        }
    }

    /// Samples per feasible candidate for the fixed-budget `de` / `ga`
    /// objective (the mid-range `AS + LHS` baseline of this scale).
    pub fn fixed_sims(&self) -> usize {
        match self {
            Self::Tiny => 20,
            Self::Small => 40,
            Self::Paper => 500,
        }
    }
}

/// A fixed-budget yield-maximisation objective over a [`YieldProblem`],
/// exposed through the `moheco-optim` [`Problem`] trait so the plain DE/GA
/// engines can run on any registered scenario.
struct YieldSearchProblem<'a> {
    problem: &'a YieldProblem<dyn Benchmark>,
    samples: usize,
}

impl Problem for YieldSearchProblem<'_> {
    fn dimension(&self) -> usize {
        self.problem.dimension()
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        self.problem.bounds()
    }

    fn evaluate(&mut self, x: &[f64]) -> Evaluation {
        self.evaluate_batch(std::slice::from_ref(&x.to_vec()))
            .pop()
            .expect("one design yields one evaluation")
    }

    fn evaluate_batch(&mut self, xs: &[Vec<f64>]) -> Vec<Evaluation> {
        let reports = self.problem.feasibility_batch(xs);
        xs.iter()
            .zip(reports)
            .map(|(x, rep)| {
                if rep.is_feasible() {
                    let est = self.problem.estimate_yield(x, self.samples, rep.decision);
                    Evaluation::feasible(-est.value())
                } else {
                    Evaluation::new(f64::INFINITY, rep.violation.max(1e-12))
                }
            })
            .collect()
    }
}

/// A [`TrialFilter`] over a yield-search problem backed by an online
/// surrogate: trial candidates predicted far below the incumbent yield are
/// rejected before their fixed-budget Monte-Carlo estimate is paid.
///
/// This is the DE/GA counterpart of the two-stage prescreen in
/// `moheco::prescreen` and follows the same policy: observations come only
/// from *measured* evaluations, the screen stays inactive until the model
/// has trained, and every `explore_every`-th generation bypasses it.
struct SurrogateTrialFilter {
    model: Box<dyn PrescreenModel>,
    margin: f64,
    explore_every: usize,
    refit_every: usize,
    incumbent: f64,
    skips: u64,
}

impl SurrogateTrialFilter {
    fn new(config: &PrescreenConfig) -> Self {
        config.validate();
        Self {
            model: Box::new(
                RsbPrescreen::new(config.seed).with_min_observations(config.min_observations),
            ),
            margin: config.margin,
            explore_every: config.explore_every,
            refit_every: config.refit_every,
            incumbent: 0.0,
            skips: 0,
        }
    }
}

impl TrialFilter for SurrogateTrialFilter {
    fn admit(&mut self, generation: usize, trials: &[Vec<f64>]) -> Vec<bool> {
        // admit() is called exactly once per generation, so the refit
        // cadence mirrors Prescreener::absorb.
        if generation.is_multiple_of(self.refit_every) {
            self.model.refit();
        }
        if generation.is_multiple_of(self.explore_every) || !self.model.ready() {
            return vec![true; trials.len()];
        }
        let threshold = self.incumbent - self.margin;
        trials
            .iter()
            .map(|x| {
                let keep = match self.model.predict(x) {
                    Some(pred) => pred >= threshold,
                    None => true,
                };
                if !keep {
                    self.skips += 1;
                }
                keep
            })
            .collect()
    }

    fn observe(&mut self, x: &[f64], eval: &Evaluation) {
        if eval.is_feasible() {
            let y = (-eval.objective).clamp(0.0, 1.0);
            self.model.observe(x, y);
            if y > self.incumbent {
                self.incumbent = y;
            }
        }
    }
}

/// A fully-specified single experiment run, built incrementally and executed
/// with [`RunSpec::execute`] — the one entry point every binary, test and the
/// job server drive runs through.
///
/// Defaults: [`BudgetClass::Small`], seed 1, serial engine, plain
/// Monte-Carlo estimator, no prescreen, disabled tracer.
///
/// Two engine modes:
///
/// * **Owned** (default): `execute()` builds a fresh engine of
///   [`RunSpec::engine_kind`] seeded with the run seed and configured with
///   the requested estimator.
/// * **Pooled** ([`RunSpec::engine`]): the run executes on a caller-provided
///   long-lived engine (the campaign/server pools). The caller is
///   responsible for the engine's state between runs
///   ([`moheco_runtime::EvalEngine::reseed`] plus `reset()` or
///   `reset_counters()`); `execute()` only checks that the engine's active
///   seed matches the run seed, because a mismatch would silently produce
///   the wrong sample streams. In this mode the estimator is read from the
///   engine's configuration (the estimator shapes the cached sample blocks,
///   so it cannot differ from what the pool built).
pub struct RunSpec<'a> {
    scenario: &'a dyn Scenario,
    algo: Algo,
    budget: BudgetClass,
    seed: u64,
    engine_kind: EngineKind,
    estimator: EstimatorKind,
    prescreen: PrescreenKind,
    tracer: Tracer,
    engine: Option<Arc<dyn EvalEngine>>,
    engine_label: Option<String>,
}

impl<'a> RunSpec<'a> {
    /// Starts a run specification with the default budget, seed, engine,
    /// estimator and prescreen.
    pub fn new(scenario: &'a dyn Scenario, algo: Algo) -> Self {
        Self {
            scenario,
            algo,
            budget: BudgetClass::default(),
            seed: 1,
            engine_kind: EngineKind::default(),
            estimator: EstimatorKind::default(),
            prescreen: PrescreenKind::default(),
            tracer: Tracer::disabled(),
            engine: None,
            engine_label: None,
        }
    }

    /// Sets the budget class.
    pub fn budget(mut self, budget: BudgetClass) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the run seed (search RNG, engine streams and prescreen model).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the engine implementation built by `execute()` (ignored when
    /// a prebuilt engine is supplied via [`RunSpec::engine`]).
    pub fn engine_kind(mut self, kind: EngineKind) -> Self {
        self.engine_kind = kind;
        self
    }

    /// Sets the variance-reduction estimator (ignored when a prebuilt
    /// engine is supplied — the engine's configured estimator wins, because
    /// it already shaped the cached sample blocks).
    pub fn estimator(mut self, estimator: EstimatorKind) -> Self {
        self.estimator = estimator;
        self
    }

    /// Sets the surrogate prescreen mode.
    pub fn prescreen(mut self, prescreen: PrescreenKind) -> Self {
        self.prescreen = prescreen;
        self
    }

    /// Runs under an observability [`Tracer`]: the whole run becomes a
    /// `"run"` root span, the engine's counters are probed at every span
    /// boundary (so each phase is charged exactly the simulations it
    /// spent), and a final `run_summary` event records the run identity
    /// plus the engine totals for downstream reconciliation
    /// (`moheco-profile --check`). With [`Tracer::disabled`] (the default)
    /// results are bit-identical and no collector traffic occurs.
    pub fn tracer(mut self, tracer: &Tracer) -> Self {
        self.tracer = tracer.clone();
        self
    }

    /// Runs on a *prebuilt* long-lived engine (the campaign/server pools)
    /// instead of a fresh one. The result's `engine` label defaults to
    /// [`moheco_runtime::EvalEngine::name`]; override it with
    /// [`RunSpec::engine_label`].
    pub fn engine(mut self, engine: Arc<dyn EvalEngine>) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Overrides the engine label recorded in the result row.
    pub fn engine_label(mut self, label: &str) -> Self {
        self.engine_label = Some(label.to_string());
        self
    }

    /// Executes the run and condenses it into the machine-readable result
    /// record (including the estimator's 95 % CI half-width for the final
    /// yield estimate).
    ///
    /// With a prescreen, the `memetic` / `two-stage` algorithms demote
    /// predicted-poor candidates out of the stage-1 OCBA round (see
    /// `moheco::prescreen`), while `de` / `ga` gate their trial vectors
    /// through a [`TrialFilter`] so rejected trials never buy their fixed
    /// Monte-Carlo budget. The surrogate is seeded from the run seed, so
    /// results stay deterministic in
    /// `(scenario, algo, budget, seed, estimator, prescreen)`.
    ///
    /// # Panics
    ///
    /// Panics if a prebuilt engine was supplied whose
    /// `active_seed()` does not match the run seed.
    pub fn execute(self) -> ScenarioResult {
        let Self {
            scenario,
            algo,
            budget,
            seed,
            engine_kind,
            estimator,
            prescreen,
            tracer,
            engine,
            engine_label,
        } = self;
        let tracer = &tracer;
        let (engine, estimator, engine_label) = match engine {
            Some(engine) => {
                assert_eq!(
                    engine.active_seed(),
                    seed,
                    "engine active seed does not match the run seed"
                );
                let estimator = engine.config().estimator;
                let label = engine_label.unwrap_or_else(|| engine.name().to_string());
                (engine, estimator, label)
            }
            None => {
                let engine = engine_kind.build_configured(seed, estimator);
                let label = engine_label.unwrap_or_else(|| engine_kind.label().to_string());
                (engine, estimator, label)
            }
        };
        // The probe must be wired before the root span opens so the counter
        // baseline predates every attribution boundary; scenario
        // construction runs no simulations, so the root span still covers
        // the whole spend.
        moheco_runtime::attach_engine_probe(tracer, &engine);
        let run_span = Span::enter(tracer, "run");
        let problem = scenario.build(engine).with_tracer(tracer.clone());
        let config = budget.config();
        let prescreen_config = PrescreenConfig {
            seed,
            ..PrescreenConfig::of_kind(prescreen)
        };
        let started = Instant::now();

        let (
            best_x,
            best_yield,
            ci_half_width,
            feasible,
            generations,
            local_searches,
            prescreen_skips,
            digest,
        ) = match algo {
            Algo::Memetic | Algo::TwoStage => {
                let config = if algo == Algo::Memetic {
                    MohecoConfig {
                        memetic_enabled: true,
                        strategy: YieldStrategy::TwoStageOo,
                        ..config
                    }
                } else {
                    config.as_oo_without_memetic()
                };
                let config = config.with_prescreen(prescreen_config);
                let optimizer = YieldOptimizer::new(config);
                let mut rng = StdRng::seed_from_u64(seed);
                let result = optimizer.run_from(&problem, &scenario.warm_start(), &mut rng);
                let digest = trace_digest(
                    result
                        .trace
                        .records
                        .iter()
                        .flat_map(|r| [r.best_yield, r.simulations_so_far as f64]),
                );
                let feasible = problem.feasibility(&result.best_x).is_feasible();
                (
                    result.best_x,
                    result.reported_yield,
                    result.best_report.half_width(Z_95),
                    feasible,
                    result.generations,
                    result.local_searches,
                    result.prescreen_stats.screened_out,
                    digest,
                )
            }
            Algo::De | Algo::Ga => {
                let mut search = YieldSearchProblem {
                    problem: &problem,
                    samples: budget.fixed_sims(),
                };
                let mut rng = StdRng::seed_from_u64(seed);
                let mut filter: Option<SurrogateTrialFilter> = match prescreen {
                    PrescreenKind::Off => None,
                    PrescreenKind::Rsb => Some(SurrogateTrialFilter::new(&prescreen_config)),
                };
                let result: OptimizationResult = if algo == Algo::De {
                    let de = DifferentialEvolution::new(DeConfig {
                        population_size: config.population_size,
                        f: config.de_f,
                        cr: config.de_cr,
                        max_generations: config.max_generations,
                        stagnation_limit: Some(config.stop_stagnation),
                        target_objective: None,
                        ..DeConfig::default()
                    });
                    match filter.as_mut() {
                        Some(f) => de.run_traced_filtered(&mut search, f, tracer, &mut rng),
                        None => {
                            de.run_traced_filtered(&mut search, &mut AdmitAll, tracer, &mut rng)
                        }
                    }
                } else {
                    let ga = GeneticAlgorithm::new(GaConfig {
                        population_size: config.population_size,
                        max_generations: config.max_generations,
                        stagnation_limit: Some(config.stop_stagnation),
                        target_objective: None,
                        ..GaConfig::default()
                    });
                    match filter.as_mut() {
                        Some(f) => ga.run_traced_filtered(&mut search, f, tracer, &mut rng),
                        None => {
                            ga.run_traced_filtered(&mut search, &mut AdmitAll, tracer, &mut rng)
                        }
                    }
                };
                let digest = trace_digest(result.history.iter().copied());
                let best_x = result.best.x.clone();
                // Final report at the accurate n_max budget, like the MOHECO
                // variants (served partly from the engine cache).
                let report_span = Span::enter(tracer, "final_report");
                let rep = problem.feasibility(&best_x);
                let (best_yield, ci, feasible) = if rep.is_feasible() {
                    let est = problem.estimate_with_ci(&best_x, config.n_max, rep.decision);
                    (est.value, est.half_width(Z_95), true)
                } else {
                    (0.0, 0.0, false)
                };
                drop(report_span);
                (
                    best_x,
                    best_yield,
                    ci,
                    feasible,
                    result.generations,
                    0,
                    filter.map(|f| f.skips).unwrap_or(0),
                    digest,
                )
            }
        };

        drop(run_span);
        let wall_time_ms = started.elapsed().as_secs_f64() * 1e3;
        let true_yield = problem.true_yield(&best_x);
        let bench = scenario.bench();
        let engine_stats = problem.engine_stats();
        if tracer.is_enabled() {
            tracer.emit(
                "run_summary",
                &[
                    ("scenario", scenario.name().to_string()),
                    ("algo", algo.label().to_string()),
                    ("budget", budget.label().to_string()),
                    ("seed", seed.to_string()),
                    ("best_yield", fmt_f64(best_yield)),
                    ("simulations_run", engine_stats.simulations_run.to_string()),
                    ("cache_hits", engine_stats.cache_hits.to_string()),
                ],
            );
            tracer.flush();
        }
        ScenarioResult {
            scenario: scenario.name().to_string(),
            algo: algo.label().to_string(),
            budget: budget.label().to_string(),
            engine: engine_label,
            estimator: estimator.label().to_string(),
            prescreen: prescreen.label().to_string(),
            seed,
            dimension: bench.dimension() as u64,
            statistical_dimension: bench.unit_dimension() as u64,
            feasible,
            best_yield,
            ci_half_width,
            true_yield,
            true_yield_abs_error: true_yield.map(|t| (best_yield - t).abs()),
            simulations: problem.simulations(),
            generations: generations as u64,
            local_searches: local_searches as u64,
            prescreen_skips,
            trace_digest: digest,
            wall_time_ms,
            engine_stats,
            phase_breakdown: tracer.breakdown(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::parse_flat_json;
    use moheco_scenarios::find_scenario;

    #[test]
    fn algo_and_budget_labels_roundtrip() {
        for algo in [Algo::De, Algo::Ga, Algo::Memetic, Algo::TwoStage] {
            assert_eq!(Algo::parse(algo.label()), Some(algo));
        }
        assert_eq!(Algo::parse("bogus"), None);
        for budget in [BudgetClass::Tiny, BudgetClass::Small, BudgetClass::Paper] {
            assert_eq!(BudgetClass::parse(budget.label()), Some(budget));
            budget.config().validate();
        }
        assert_eq!(BudgetClass::parse("huge"), None);
    }

    #[test]
    fn tiny_memetic_run_produces_a_consistent_result() {
        let scenario = find_scenario("margin_wall").expect("registered");
        let r = RunSpec::new(scenario.as_ref(), Algo::Memetic)
            .budget(BudgetClass::Tiny)
            .seed(1)
            .execute();
        assert_eq!(r.scenario, "margin_wall");
        assert!(r.simulations > 0);
        assert!(r.generations >= 1);
        assert!((0.0..=1.0).contains(&r.best_yield));
        assert!(r.true_yield.is_some(), "synthetic scenario has a truth");
        let parsed = parse_flat_json(r.to_jsonl_row().trim_end()).expect("schema is well-formed");
        assert_eq!(parsed.str("algo"), Some("memetic"));
        assert_eq!(parsed.num("seed"), Some(1.0));
    }

    #[test]
    fn runs_are_deterministic_in_the_seed() {
        let scenario = find_scenario("quadratic_feasibility").expect("registered");
        let run = |seed| {
            RunSpec::new(scenario.as_ref(), Algo::TwoStage)
                .budget(BudgetClass::Tiny)
                .seed(seed)
                .execute()
        };
        let (a, b, c) = (run(5), run(5), run(6));
        assert_eq!(a.best_yield, b.best_yield);
        assert_eq!(a.trace_digest, b.trace_digest);
        assert_eq!(a.simulations, b.simulations);
        assert!(
            c.trace_digest != a.trace_digest || c.simulations != a.simulations,
            "different seeds should differ"
        );
    }

    #[test]
    fn de_and_ga_report_an_accurate_final_estimate() {
        let scenario = find_scenario("margin_wall").expect("registered");
        for algo in [Algo::De, Algo::Ga] {
            let r = RunSpec::new(scenario.as_ref(), algo)
                .budget(BudgetClass::Tiny)
                .seed(2)
                .execute();
            assert_eq!(r.algo, algo.label());
            assert!(r.simulations > 0, "{}", algo.label());
            assert_eq!(r.local_searches, 0);
            if r.feasible {
                let err = r.true_yield_abs_error.expect("synthetic truth");
                assert!(err < 0.35, "{}: error {err}", algo.label());
            }
        }
    }
}
