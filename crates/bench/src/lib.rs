//! `moheco-bench` — experiment harness shared by the table/figure binaries,
//! the campaign runner and the `engine_throughput` benchmark.
//!
//! Every figure binary accepts `--paper` to switch from the fast,
//! scaled-down default settings to the paper's full-scale settings
//! (population 50, `n_max = 500`, 10 independent runs, 50 000-sample
//! reference yields).

#![warn(missing_docs)]

pub mod campaign;
pub mod cli;
pub mod exec;
pub mod harness;
pub mod jobspec;
pub mod results;
pub mod schedule;

pub use campaign::{run_campaign, CampaignEngines, CampaignReport, CellWriter};
pub use cli::CliArgs;
pub use exec::{drive_schedule, CellOutcome, ExecutionCore};
pub use harness::{Algo, BudgetClass, PrescreenKind, RunSpec};
pub use jobspec::{EngineReuse, JobSpec, ScheduleKind};
pub use schedule::{
    scheduler_for, CampaignScheduler, Cell, FixedGrid, GroupOutcome, OcbaSchedule, ScheduleOutcome,
};

use moheco::{CircuitBench, MohecoConfig, RunResult, RunSummary, YieldOptimizer, YieldProblem};
use moheco_analog::Testbench;
use moheco_optim::problem::{Evaluation, Problem};
use moheco_runtime::{Engine, EngineConfig, EvalEngine, SimulationModel};
use moheco_sampling::{EstimatorKind, SamplingPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Which evaluation engine the experiment binaries dispatch simulations
/// through (`--parallel` on the command line selects the work-stealing
/// engine; results are bit-identical either way, see `moheco-runtime`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// In-order dispatch on the calling thread.
    #[default]
    Serial,
    /// Work-stealing dispatch over the configured workers (all available
    /// cores by default).
    Parallel,
}

impl EngineKind {
    /// Builds a fresh engine of this kind with the default configuration
    /// (LHS sampling, default master seed, plain Monte-Carlo estimator).
    pub fn build(self) -> Arc<dyn EvalEngine> {
        self.build_seeded(EngineConfig::default().seed)
    }

    /// Builds a fresh engine of this kind with an explicit master seed.
    ///
    /// Independent experiment repetitions must use distinct seeds so their
    /// Monte-Carlo sample streams are independent — otherwise the multi-run
    /// statistics of Tables 1-4 would understate the estimator variance.
    pub fn build_seeded(self, seed: u64) -> Arc<dyn EvalEngine> {
        self.build_configured(seed, EstimatorKind::default())
    }

    /// [`Self::build_seeded`] with an explicit variance-reduction estimator
    /// (`moheco-campaign --estimator`).
    pub fn build_configured(self, seed: u64, estimator: EstimatorKind) -> Arc<dyn EvalEngine> {
        self.build_with(EngineConfig {
            plan: SamplingPlan::LatinHypercube,
            seed,
            estimator,
            ..EngineConfig::default()
        })
    }

    /// Builds a fresh engine of this kind from an explicit configuration
    /// (the campaign layer threads `max_cached_blocks` through this).
    /// `Serial` forces `workers = 1`, whatever the configuration says, so it
    /// never spawns a thread; `Parallel` keeps the configured worker count.
    pub fn build_with(self, config: EngineConfig) -> Arc<dyn EvalEngine> {
        let config = match self {
            Self::Serial => config.with_workers(1),
            Self::Parallel => config,
        };
        Arc::new(Engine::new(config))
    }

    /// The stable label used in results (`serial` / `parallel`).
    pub fn label(&self) -> &'static str {
        match self {
            Self::Serial => "serial",
            Self::Parallel => "parallel",
        }
    }
}

/// The methods compared in Tables 1–4 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `AS + LHS` with a fixed number of simulations per feasible candidate.
    FixedBudget(usize),
    /// `OO + AS + LHS`: two-stage estimation without the memetic operator.
    OoOnly,
    /// Full MOHECO: two-stage estimation plus the memetic DE/NM engine.
    Moheco,
}

impl Method {
    /// Table label of the method.
    pub fn label(&self) -> String {
        match self {
            Method::FixedBudget(n) => format!("{n} simulations (AS+LHS)"),
            Method::OoOnly => "OO+AS+LHS".to_string(),
            Method::Moheco => "MOHECO".to_string(),
        }
    }

    /// Builds the optimizer configuration of this method from a base config.
    pub fn config(&self, base: MohecoConfig) -> MohecoConfig {
        match self {
            Method::FixedBudget(n) => base.as_fixed_budget(*n),
            Method::OoOnly => base.as_oo_without_memetic(),
            Method::Moheco => MohecoConfig {
                memetic_enabled: true,
                strategy: moheco::YieldStrategy::TwoStageOo,
                ..base
            },
        }
    }
}

/// Scale of an experiment: fast (default) or paper-scale (`--paper`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// Number of independent optimization runs per method.
    pub runs: usize,
    /// Base optimizer configuration.
    pub config: MohecoConfig,
    /// Number of Monte-Carlo samples for the reference ("true") yield.
    pub reference_samples: usize,
    /// Which evaluation engine dispatches the simulations.
    pub engine: EngineKind,
}

impl ExperimentScale {
    /// Fast settings used by default so the binaries finish in minutes.
    pub fn fast() -> Self {
        Self {
            runs: 3,
            config: MohecoConfig::fast(),
            reference_samples: 4_000,
            engine: EngineKind::Serial,
        }
    }

    /// The paper's full-scale settings (10 runs, population 50, 50 000-sample
    /// reference yields).
    pub fn paper() -> Self {
        Self {
            runs: 10,
            config: MohecoConfig::paper(),
            reference_samples: 50_000,
            engine: EngineKind::Serial,
        }
    }

    /// Fixed per-candidate budgets that remain meaningful at this scale: the
    /// paper's 300/500/700 at paper scale, smaller values at fast scale.
    pub fn fixed_budgets(&self) -> Vec<usize> {
        if self.reference_samples >= 50_000 {
            vec![300, 500, 700]
        } else {
            vec![60, 100, 140]
        }
    }
}

/// Per-method outcome over the independent runs.
#[derive(Debug, Clone, Default)]
pub struct MethodOutcome {
    /// Deviation (percentage points) between each run's reported yield and
    /// the reference yield of its final design.
    pub deviations_pp: Vec<f64>,
    /// Total simulation count of each run.
    pub simulations: Vec<f64>,
    /// Reported yield of each run.
    pub reported_yields: Vec<f64>,
    /// Number of generations of each run.
    pub generations: Vec<f64>,
}

impl MethodOutcome {
    /// Summary of the deviations (Tables 1 and 3).
    pub fn deviation_summary(&self) -> RunSummary {
        RunSummary::of(&self.deviations_pp)
    }

    /// Summary of the simulation counts (Tables 2 and 4).
    pub fn simulation_summary(&self) -> RunSummary {
        RunSummary::of(&self.simulations)
    }
}

/// Runs one method `scale.runs` times on `testbench` and collects the table
/// statistics. Seeds are derived from `master_seed` so that every method sees
/// the same sequence of run seeds (paired comparison).
pub fn run_method<T, F>(
    make_testbench: F,
    method: Method,
    scale: &ExperimentScale,
    master_seed: u64,
) -> MethodOutcome
where
    T: Testbench,
    F: Fn() -> T,
{
    let mut outcome = MethodOutcome::default();
    for run in 0..scale.runs {
        let engine_seed = master_seed ^ (run as u64).wrapping_mul(0xD135_2F2D_0785_6A21);
        let problem =
            YieldProblem::with_engine(make_testbench(), scale.engine.build_seeded(engine_seed));
        let optimizer = YieldOptimizer::new(method.config(scale.config));
        let mut rng = StdRng::seed_from_u64(master_seed ^ (run as u64).wrapping_mul(0x9E37_79B9));
        let result = optimizer.run(&problem, &mut rng);
        let mut ref_rng =
            StdRng::seed_from_u64(0xACC0_0000 ^ master_seed ^ (run as u64).wrapping_mul(31));
        let reference =
            problem.reference_yield(&result.best_x, scale.reference_samples, &mut ref_rng);
        outcome
            .deviations_pp
            .push((result.reported_yield - reference).abs() * 100.0);
        outcome.simulations.push(result.total_simulations as f64);
        outcome.reported_yields.push(result.reported_yield);
        outcome.generations.push(result.generations as f64);
    }
    outcome
}

/// Runs a single optimization (used by the Fig. 3 and §3.4 binaries that need
/// a trace rather than multi-run statistics).
pub fn run_single<T: Testbench>(
    testbench: T,
    config: MohecoConfig,
    seed: u64,
) -> (RunResult, YieldProblem<CircuitBench<T>>) {
    run_single_with_engine(testbench, config, seed, EngineKind::Serial)
}

/// [`run_single`] with an explicit engine choice. The run seed also seeds
/// the engine, so different seeds get independent Monte-Carlo sample
/// streams, not just different search trajectories.
pub fn run_single_with_engine<T: Testbench>(
    testbench: T,
    config: MohecoConfig,
    seed: u64,
    engine: EngineKind,
) -> (RunResult, YieldProblem<CircuitBench<T>>) {
    let problem = YieldProblem::with_engine(testbench, engine.build_seeded(seed));
    let optimizer = YieldOptimizer::new(config);
    let mut rng = StdRng::seed_from_u64(seed);
    let result = optimizer.run(&problem, &mut rng);
    (result, problem)
}

/// Prints a deviation table (Tables 1 / 3) for the given methods.
pub fn print_deviation_table(title: &str, rows: &[(Method, &MethodOutcome)]) {
    println!("\n{title}");
    println!(
        "{:<28} {:>12} {:>12} {:>12} {:>12}",
        "method", "best", "worst", "average", "variance"
    );
    for (method, outcome) in rows {
        let s = outcome.deviation_summary();
        println!(
            "{:<28} {:>11.3}% {:>11.3}% {:>11.3}% {:>12.3e}",
            method.label(),
            s.min,
            s.max,
            s.mean,
            s.variance
        );
    }
}

/// Prints a simulation-count table (Tables 2 / 4) for the given methods.
pub fn print_simulation_table(title: &str, rows: &[(Method, &MethodOutcome)]) {
    println!("\n{title}");
    println!(
        "{:<28} {:>12} {:>12} {:>12} {:>12}",
        "method", "best", "worst", "average", "variance"
    );
    for (method, outcome) in rows {
        let s = outcome.simulation_summary();
        println!(
            "{:<28} {:>12.0} {:>12.0} {:>12.0} {:>12.3e}",
            method.label(),
            s.min,
            s.max,
            s.mean,
            s.variance
        );
    }
}

/// Prints the Fig. 6 series (average deviation and average simulation count
/// per method) as CSV so it can be plotted directly.
pub fn print_fig6_csv(rows: &[(Method, &MethodOutcome)]) {
    println!("\n# Fig. 6 series (CSV): method, avg_deviation_pp, avg_simulations");
    for (method, outcome) in rows {
        println!(
            "{},{:.4},{:.0}",
            method.label(),
            outcome.deviation_summary().mean,
            outcome.simulation_summary().mean
        );
    }
}

/// Nominal-only [`SimulationModel`] adapter: the nominal-sizing workload
/// dispatches no Monte-Carlo jobs, only nominal evaluations.
struct NominalModel<T> {
    testbench: T,
}

impl<T: Testbench> SimulationModel for NominalModel<T> {
    fn unit_dimension(&self) -> usize {
        1
    }

    fn simulate_point(&self, _x: &[f64], _u: &[f64]) -> f64 {
        unreachable!("nominal sizing dispatches no Monte-Carlo jobs")
    }

    fn nominal(&self, x: &[f64]) -> Vec<f64> {
        self.testbench.nominal_margins(x)
    }
}

/// A nominal (variation-free) sizing problem over a testbench: minimise the
/// aggregate specification violation at the nominal process point. Used by
/// the `nominal_sizing` binary to reproduce the §3.3 convergence
/// observations.
///
/// Evaluations are dispatched through an [`EvalEngine`], so whole DE
/// generations run as one (optionally parallel) nominal batch and repeated
/// probes of the same sizing are served from the engine cache.
pub struct NominalSizingProblem<T> {
    model: NominalModel<T>,
    engine: Arc<dyn EvalEngine>,
    evaluations: usize,
}

impl<T: Testbench> NominalSizingProblem<T> {
    /// Wraps a testbench, dispatching through a fresh serial engine.
    pub fn new(testbench: T) -> Self {
        Self::with_engine(testbench, EngineKind::Serial.build())
    }

    /// Wraps a testbench with an explicit engine.
    pub fn with_engine(testbench: T, engine: Arc<dyn EvalEngine>) -> Self {
        Self {
            model: NominalModel { testbench },
            engine,
            evaluations: 0,
        }
    }

    /// Number of evaluations requested so far (engine cache hits included).
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    fn margins_to_eval(margins: &[f64]) -> Evaluation {
        let violation: f64 = margins.iter().filter(|&&m| m < 0.0).map(|&m| -m).sum();
        if violation > 0.0 {
            Evaluation::new(violation, violation)
        } else {
            // Feasible: reward extra margin (maximise the worst margin).
            let worst = margins.iter().cloned().fold(f64::INFINITY, f64::min);
            Evaluation::feasible(-worst)
        }
    }
}

impl<T: Testbench> Problem for NominalSizingProblem<T> {
    fn dimension(&self) -> usize {
        self.model.testbench.dimension()
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        self.model.testbench.bounds()
    }

    fn evaluate(&mut self, x: &[f64]) -> Evaluation {
        self.evaluations += 1;
        let margins = self.engine.nominal_single(&self.model, x);
        Self::margins_to_eval(&margins)
    }

    fn evaluate_batch(&mut self, xs: &[Vec<f64>]) -> Vec<Evaluation> {
        self.evaluations += xs.len();
        self.engine
            .nominal_batch(&self.model, xs)
            .into_iter()
            .map(|margins| Self::margins_to_eval(&margins))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moheco_analog::FoldedCascode;

    #[test]
    fn method_labels_and_configs() {
        assert!(Method::FixedBudget(500).label().contains("500"));
        assert_eq!(Method::Moheco.label(), "MOHECO");
        let base = MohecoConfig::fast();
        assert!(!Method::FixedBudget(100).config(base).memetic_enabled);
        assert!(!Method::OoOnly.config(base).memetic_enabled);
        assert!(Method::Moheco.config(base).memetic_enabled);
    }

    #[test]
    fn scales_are_valid() {
        ExperimentScale::fast().config.validate();
        ExperimentScale::paper().config.validate();
        assert_eq!(
            ExperimentScale::paper().fixed_budgets(),
            vec![300, 500, 700]
        );
        assert_eq!(ExperimentScale::fast().fixed_budgets().len(), 3);
    }

    #[test]
    fn nominal_sizing_problem_reports_feasibility() {
        let mut p = NominalSizingProblem::new(FoldedCascode::new());
        let good = p.evaluate(&FoldedCascode::new().reference_design());
        assert!(good.is_feasible());
        let bounds = p.bounds();
        let low: Vec<f64> = bounds.iter().map(|b| b.0).collect();
        let bad = p.evaluate(&low);
        assert!(!bad.is_feasible());
        assert_eq!(p.evaluations(), 2);
    }
}
