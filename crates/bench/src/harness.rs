//! The unified experiment harness behind the `moheco-campaign` binary.
//!
//! [`RunSpec`] executes one (scenario, algorithm, budget, seed, engine)
//! combination through the PR-1 evaluation engine and condenses it into one
//! [`ScenarioResult`]:
//!
//! ```text
//! RunSpec::new(scenario, algo)
//!     .budget(..).fixed_sims(..).seed(..).prescreen(..)
//!     .tracer(..).engine(..).engine_label(..)   // all optional
//!     .execute()
//! ```
//!
//! The three algorithms are the paper's three methods, all run by the one
//! [`YieldOptimizer`] DE/best/1 loop with Deb's selection rules:
//!
//! * `memetic` — full MOHECO (two-stage OO estimation + DE/NM search);
//! * `two-stage` — OO + AS + LHS without the memetic operator;
//! * `fixed` — AS + LHS with [`BudgetClass::fixed_sims`] (or
//!   [`RunSpec::fixed_sims`]) simulations per feasible candidate
//!   ([`MohecoConfig::as_fixed_budget`]), no memetic operator.
//!
//! [`Algo::config`] is the one place an algorithm's configuration is built.

use crate::results::{trace_digest, ScenarioResult};
use crate::EngineKind;
use moheco::{MohecoConfig, YieldOptimizer, YieldStrategy};
use moheco_obs::json::fmt_f64;
use moheco_obs::{Span, Tracer};
use moheco_runtime::EvalEngine;
use moheco_sampling::{EstimatorKind, Z_95};
use moheco_scenarios::Scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// The algorithms `moheco-campaign --algo` accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algo {
    /// AS + LHS with a fixed per-candidate budget, no memetic operator.
    Fixed,
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
            "fixed" => Some(Self::Fixed),
            "memetic" => Some(Self::Memetic),
            "two-stage" => Some(Self::TwoStage),
            _ => None,
        }
    }

    /// The stable label used in results and file names.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Fixed => "fixed",
            Self::Memetic => "memetic",
            Self::TwoStage => "two-stage",
        }
    }

    /// The optimizer configuration of this algorithm at `budget` (`fixed`
    /// spends [`BudgetClass::fixed_sims`] per feasible candidate).
    pub fn config(&self, budget: BudgetClass) -> MohecoConfig {
        match self {
            Self::Memetic => MohecoConfig {
                memetic_enabled: true,
                strategy: YieldStrategy::TwoStageOo,
                ..budget.config()
            },
            Self::TwoStage => budget.config().as_oo_without_memetic(),
            Self::Fixed => budget.config().as_fixed_budget(budget.fixed_sims()),
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

    /// Samples per feasible candidate of the `fixed` algorithm: the middle
    /// of [`Self::fixed_budgets`].
    pub fn fixed_sims(&self) -> usize {
        self.fixed_budgets()[1]
    }

    /// The three `AS + LHS` per-candidate budgets the paper tables compare
    /// (the paper's 300 / 500 / 700 at paper scale).
    pub fn fixed_budgets(&self) -> [usize; 3] {
        match self {
            Self::Tiny => [10, 20, 30],
            Self::Small => [20, 40, 60],
            Self::Paper => [300, 500, 700],
        }
    }

    /// Independent runs (seeds `1..=table_runs`) per method of a paper
    /// table.
    pub fn table_runs(&self) -> u64 {
        match self {
            Self::Tiny => 2,
            Self::Small => 3,
            Self::Paper => 10,
        }
    }

    /// Monte-Carlo samples of the reference yield a paper table measures
    /// each reported yield against (the paper's 50 000 at paper scale).
    pub fn reference_samples(&self) -> usize {
        match self {
            Self::Tiny => 1_000,
            Self::Small => 4_000,
            Self::Paper => 50_000,
        }
    }
}

/// The `prescreen` identity of a run. Only [`PrescreenKind::Off`] exists:
/// the online surrogate prescreen was removed, and the value survives as the
/// constant `prescreen` row field of results schema v5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrescreenKind {
    /// No prescreening: every feasible candidate is estimated.
    #[default]
    Off,
}

impl PrescreenKind {
    /// Parses a `"prescreen"` job-spec value (`off` only).
    pub fn parse(s: &str) -> Option<Self> {
        (s == "off").then_some(Self::Off)
    }

    /// The stable label used in results.
    pub fn label(&self) -> &'static str {
        "off"
    }
}

/// A fully-specified single experiment run, built incrementally and executed
/// with [`RunSpec::execute`] — the one entry point every binary, test and the
/// job server drive runs through.
///
/// Defaults: [`BudgetClass::Small`], seed 1, disabled tracer, `fixed` runs
/// at [`BudgetClass::fixed_sims`], and a fresh one-worker engine with the
/// plain Monte-Carlo estimator, seeded with the run seed.
///
/// [`RunSpec::engine`] runs on a caller-provided engine instead: a fresh one
/// of another kind or estimator
/// ([`EngineKind::build_configured`]`(seed, estimator)`), or a long-lived one
/// leased from an [`crate::EnginePool`]. The caller is responsible for the
/// engine's state between runs ([`moheco_runtime::EvalEngine::reseed`] plus
/// `reset()` or `reset_counters()`, which [`crate::EnginePool::checkout`]
/// does); `execute()` only checks that the engine's active seed matches the
/// run seed, because a mismatch would silently produce the wrong sample
/// streams. The row's estimator is read from the engine's configuration
/// (the estimator shapes the cached sample blocks).
pub struct RunSpec<'a> {
    scenario: &'a dyn Scenario,
    algo: Algo,
    budget: BudgetClass,
    fixed_sims: Option<usize>,
    seed: u64,
    tracer: Tracer,
    engine: Option<Arc<dyn EvalEngine>>,
    engine_label: Option<String>,
}

impl<'a> RunSpec<'a> {
    /// Starts a run specification with the default budget, seed and engine.
    pub fn new(scenario: &'a dyn Scenario, algo: Algo) -> Self {
        Self {
            scenario,
            algo,
            budget: BudgetClass::default(),
            fixed_sims: None,
            seed: 1,
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

    /// Sets the per-candidate budget of an [`Algo::Fixed`] run, in place of
    /// the budget class's [`BudgetClass::fixed_sims`] (other algorithms
    /// ignore it). The paper tables compare three such budgets.
    pub fn fixed_sims(mut self, sims: usize) -> Self {
        self.fixed_sims = Some(sims);
        self
    }

    /// Sets the run seed (search RNG and engine streams).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Accepts the `prescreen` identity of a job spec. It is always
    /// [`PrescreenKind::Off`], which every row records.
    pub fn prescreen(self, _prescreen: PrescreenKind) -> Self {
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

    /// Runs on a prebuilt engine (a fresh one of another kind or
    /// estimator, or one leased from an [`crate::EnginePool`]) instead of
    /// the default one. The result's `engine` label defaults to
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
    /// yield estimate). Results are deterministic in `(scenario, algo,
    /// budget, seed, estimator)`.
    ///
    /// # Panics
    ///
    /// Panics if the engine's `active_seed()` does not match the run seed.
    pub fn execute(self) -> ScenarioResult {
        let Self {
            scenario,
            algo,
            budget,
            fixed_sims,
            seed,
            tracer,
            engine,
            engine_label,
        } = self;
        let tracer = &tracer;
        let engine = engine.unwrap_or_else(|| {
            EngineKind::default().build_configured(seed, EstimatorKind::default())
        });
        assert_eq!(
            engine.active_seed(),
            seed,
            "engine active seed does not match the run seed"
        );
        let estimator = engine.config().estimator;
        let engine_label = engine_label.unwrap_or_else(|| engine.name().to_string());
        // The probe must be wired before the root span opens so the counter
        // baseline predates every attribution boundary; scenario
        // construction runs no simulations, so the root span still covers
        // the whole spend.
        moheco_runtime::attach_engine_probe(tracer, &engine);
        let run_span = Span::enter(tracer, "run");
        let problem = scenario.build(engine).with_tracer(tracer.clone());
        let config = match (algo, fixed_sims) {
            (Algo::Fixed, Some(sims)) => budget.config().as_fixed_budget(sims),
            _ => algo.config(budget),
        };
        let started = Instant::now();
        let mut rng = StdRng::seed_from_u64(seed);
        let result =
            YieldOptimizer::new(config).run_from(&problem, &scenario.warm_start(), &mut rng);
        let digest = trace_digest(
            result
                .trace
                .records
                .iter()
                .flat_map(|r| [r.best_yield, r.simulations_so_far as f64]),
        );
        let feasible = problem.feasibility(&result.best_x).is_feasible();
        let best_yield = result.reported_yield;
        drop(run_span);
        let wall_time_ms = started.elapsed().as_secs_f64() * 1e3;
        let true_yield = problem.true_yield(&result.best_x);
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
            prescreen: PrescreenKind::Off.label().to_string(),
            seed,
            dimension: bench.dimension() as u64,
            statistical_dimension: bench.unit_dimension() as u64,
            feasible,
            best_yield,
            ci_half_width: result.best_report.half_width(Z_95),
            true_yield,
            true_yield_abs_error: true_yield.map(|t| (best_yield - t).abs()),
            simulations: problem.simulations(),
            generations: result.generations as u64,
            local_searches: result.local_searches as u64,
            prescreen_skips: 0,
            trace_digest: digest,
            best_x: result.best_x,
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
    fn algo_budget_and_prescreen_labels_roundtrip() {
        for algo in [Algo::Fixed, Algo::Memetic, Algo::TwoStage] {
            assert_eq!(Algo::parse(algo.label()), Some(algo));
        }
        // `ga` and `de` were algorithms once; they are rejected like any
        // other name.
        for unknown in ["bogus", "ga", "de"] {
            assert_eq!(Algo::parse(unknown), None);
        }
        for budget in [BudgetClass::Tiny, BudgetClass::Small, BudgetClass::Paper] {
            assert_eq!(BudgetClass::parse(budget.label()), Some(budget));
            budget.config().validate();
        }
        assert_eq!(BudgetClass::parse("huge"), None);
        // `off` is the one prescreen left; the removed `rsb` is rejected.
        assert_eq!(
            PrescreenKind::parse(PrescreenKind::Off.label()),
            Some(PrescreenKind::Off)
        );
        assert_eq!(PrescreenKind::parse("rsb"), None);
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
    fn fixed_row_is_the_fixed_budget_optimizer_run() {
        for budget in [BudgetClass::Tiny, BudgetClass::Small, BudgetClass::Paper] {
            assert_eq!(budget.fixed_sims(), budget.fixed_budgets()[1]);
        }
        let scenario = find_scenario("margin_wall").expect("registered");
        let budget = BudgetClass::Tiny;
        let fixed = || {
            RunSpec::new(scenario.as_ref(), Algo::Fixed)
                .budget(budget)
                .seed(2)
        };
        // The same run outside the harness: `YieldOptimizer` with the
        // fixed-budget config, from the warm start, on a seed-2 engine.
        let direct = |sims: usize| {
            let engine = EngineKind::default().build_configured(2, EstimatorKind::default());
            let problem = scenario.build(engine);
            let config = budget.config().as_fixed_budget(sims);
            let mut rng = StdRng::seed_from_u64(2);
            let run =
                YieldOptimizer::new(config).run_from(&problem, &scenario.warm_start(), &mut rng);
            let digest = trace_digest(
                run.trace
                    .records
                    .iter()
                    .flat_map(|g| [g.best_yield, g.simulations_so_far as f64]),
            );
            (run, digest, problem.simulations())
        };

        let r = fixed().execute();
        assert_eq!(r.algo, "fixed");
        assert_eq!(r.local_searches, 0);
        let (run, digest, simulations) = direct(budget.fixed_sims());
        assert_eq!(r.trace_digest, digest);
        assert_eq!(r.best_yield.to_bits(), run.reported_yield.to_bits());
        assert_eq!(r.simulations, simulations);
        assert_eq!(run.local_searches, 0);

        // `fixed_sims` at the class default is the default row; any other
        // value is the direct run at that budget.
        let default = fixed().fixed_sims(budget.fixed_sims()).execute();
        assert_eq!(default.to_jsonl_row(), r.to_jsonl_row());
        let sims = budget.fixed_budgets()[2];
        let other = fixed().fixed_sims(sims).execute();
        let (run, digest, _) = direct(sims);
        assert_eq!(other.trace_digest, digest);
        assert_eq!(other.best_yield.to_bits(), run.reported_yield.to_bits());
        assert_ne!(other.trace_digest, r.trace_digest, "the override is live");
    }
}
