//! `moheco-bench` — experiment harness shared by the table/figure binaries,
//! the campaign runner and the `engine_throughput` benchmark.
//!
//! Every figure binary runs at [`BudgetClass::Small`] by default and at
//! [`BudgetClass::Paper`] with `--paper` (population 50, `n_max = 500`,
//! 10 independent runs, 50 000-sample reference yields). The paper tables
//! are campaign cells ([`tables`]).

#![warn(missing_docs)]

pub mod campaign;
pub mod cli;
pub mod exec;
pub mod harness;
pub mod jobspec;
pub mod pool;
pub mod results;
pub mod schedule;
pub mod tables;

pub use campaign::{run_campaign, CampaignReport, CellWriter};
pub use cli::CliArgs;
pub use exec::{drive_schedule, CellOutcome, CellRunner, Claim, ExecutionCore};
pub use harness::{Algo, BudgetClass, PrescreenKind, RunSpec};
pub use jobspec::{EngineReuse, JobSpec, ScheduleKind};
pub use pool::{EngineLease, EnginePool};
pub use schedule::{
    scheduler_for, CampaignScheduler, Cell, FixedGrid, GroupOutcome, OcbaSchedule, ScheduleOutcome,
};
pub use tables::{print_fig6_csv, print_tables, MethodRows};

use moheco_analog::Testbench;
use moheco_optim::problem::{Evaluation, Problem};
use moheco_runtime::{Engine, EngineConfig, EvalEngine, SimulationModel};
use moheco_sampling::EstimatorKind;
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
    /// Builds a fresh LHS engine of this kind with a master seed and a
    /// variance-reduction estimator (`moheco-campaign --estimator`).
    ///
    /// Independent experiment repetitions must use distinct seeds so their
    /// Monte-Carlo sample streams are independent — otherwise the multi-run
    /// statistics of Tables 1-4 would understate the estimator variance.
    pub fn build_configured(self, seed: u64, estimator: EstimatorKind) -> Arc<dyn EvalEngine> {
        self.build_with(EngineConfig {
            seed,
            estimator,
            ..EngineConfig::default()
        })
    }

    /// Builds a fresh engine of this kind from an explicit configuration
    /// ([`EnginePool::checkout`] threads a job's estimator and
    /// `max_cached_blocks` through this). `Serial` forces `workers = 1`,
    /// whatever the configuration says, so it never spawns a thread;
    /// `Parallel` keeps the configured worker count.
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
    fn nominal_sizing_problem_reports_feasibility() {
        let engine = EngineKind::Serial.build_with(EngineConfig::default());
        let mut p = NominalSizingProblem::with_engine(FoldedCascode::new(), engine);
        let good = p.evaluate(&FoldedCascode::new().reference_design());
        assert!(good.is_feasible());
        let bounds = p.bounds();
        let low: Vec<f64> = bounds.iter().map(|b| b.0).collect();
        let bad = p.evaluate(&low);
        assert!(!bad.is_feasible());
        assert_eq!(p.evaluations(), 2);
    }
}
