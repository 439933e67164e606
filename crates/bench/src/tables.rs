//! The paper's Tables 1–4 and the Fig. 6 series as reports over campaign
//! cells.
//!
//! A table method is one [`Algo`] (`fixed` at one of the budget class's
//! [`BudgetClass::fixed_budgets`], `two-stage`, or `memetic`) run through
//! [`RunSpec`] at seeds `1..=budget.table_runs()` from the scenario's warm
//! start. Those are exactly the cells `moheco-campaign` writes for the same
//! scenario, algorithm, budget and seeds, so the methods are paired by seed.
//! Each cell's reported yield is measured against the reference yield of
//! its best design ([`reference_yield`]).

use crate::results::ScenarioResult;
use crate::{Algo, BudgetClass, EngineKind, RunSpec};
use moheco::RunSummary;
use moheco_runtime::EngineConfig;
use moheco_sampling::EstimatorKind;
use moheco_scenarios::Scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Tag XORed into the run seed to seed the reference Monte-Carlo, so the
/// reference measurement never replays the search RNG's stream.
const REFERENCE_STREAM: u64 = 0xACC0_0000;

/// The reference ("true") yield of a result's best design: the closed-form
/// truth where the scenario has one, else a `budget.reference_samples()`
/// Monte-Carlo estimate seeded by the run seed. The reference samples are
/// charged to no run.
pub fn reference_yield(
    scenario: &dyn Scenario,
    result: &ScenarioResult,
    budget: BudgetClass,
) -> f64 {
    result.true_yield.unwrap_or_else(|| {
        let mut rng = StdRng::seed_from_u64(REFERENCE_STREAM ^ result.seed);
        let engine = EngineKind::Serial.build_with(EngineConfig::default());
        scenario
            .build(engine)
            .reference_yield(&result.best_x, budget.reference_samples(), &mut rng)
    })
}

/// The rows of one method in a paper table.
#[derive(Debug)]
pub struct MethodRows {
    /// Table label of the method.
    pub label: String,
    /// One campaign cell per seed `1..=budget.table_runs()`.
    pub results: Vec<ScenarioResult>,
    /// Deviation (percentage points) of each cell's reported yield from
    /// its [`reference_yield`].
    pub deviations_pp: Vec<f64>,
}

impl MethodRows {
    /// Runs `algo` on `scenario` at every table seed of `budget`.
    /// `fixed_sims` sets the per-candidate budget of [`Algo::Fixed`]
    /// (`None` keeps [`BudgetClass::fixed_sims`]).
    pub fn run(
        scenario: &dyn Scenario,
        algo: Algo,
        fixed_sims: Option<usize>,
        budget: BudgetClass,
        engine: EngineKind,
    ) -> Self {
        let sims = fixed_sims.unwrap_or(budget.fixed_sims());
        let label = match algo {
            Algo::Fixed => format!("{sims} simulations (AS+LHS)"),
            Algo::TwoStage => "OO+AS+LHS".to_string(),
            Algo::Memetic => "MOHECO".to_string(),
        };
        eprintln!("running {label} ...");
        let results: Vec<ScenarioResult> = (1..=budget.table_runs())
            .map(|seed| {
                RunSpec::new(scenario, algo)
                    .budget(budget)
                    .fixed_sims(sims)
                    .seed(seed)
                    .engine(engine.build_configured(seed, EstimatorKind::default()))
                    .execute()
            })
            .collect();
        let deviations_pp = results
            .iter()
            .map(|r| (r.best_yield - reference_yield(scenario, r, budget)).abs() * 100.0)
            .collect();
        Self {
            label,
            results,
            deviations_pp,
        }
    }

    /// Summary of the deviations (Tables 1 and 3).
    pub fn deviation_summary(&self) -> RunSummary {
        RunSummary::of(&self.deviations_pp)
    }

    /// Summary of the simulation counts (Tables 2 and 4).
    pub fn simulation_summary(&self) -> RunSummary {
        let simulations: Vec<f64> = self.results.iter().map(|r| r.simulations as f64).collect();
        RunSummary::of(&simulations)
    }
}

/// Prints a pair of paper tables over `groups`: Table `first`, the
/// deviation of the reported yield from the reference yield, and Table
/// `first + 1`, the total number of simulations, both for `example`. Then
/// prints MOHECO's (the last group's) average simulation count as a share
/// of the middle fixed budget's (the second group), next to the paper's
/// `paper_ratio`.
pub fn print_tables(first: u32, example: &str, paper_ratio: &str, groups: &[MethodRows]) {
    let deviation = format!(
        "Table {first}: deviation of the reported yield from the reference yield ({example})"
    );
    print_table(&deviation, groups, MethodRows::deviation_summary, 3, "%");
    let simulations = format!(
        "Table {}: total number of simulations ({example})",
        first + 1
    );
    print_table(&simulations, groups, MethodRows::simulation_summary, 0, "");
    let fixed = groups[1].simulation_summary();
    let moheco = groups
        .last()
        .expect("groups non-empty")
        .simulation_summary();
    if fixed.mean > 0.0 {
        println!(
            "\nMOHECO uses {:.1}% of the simulations of the {} baseline (paper: {paper_ratio})",
            100.0 * moheco.mean / fixed.mean,
            groups[1].label
        );
    }
}

/// Prints one table: best / worst / average / variance of `summary` per
/// method, with `decimals` decimals and a `unit` suffix.
fn print_table(
    title: &str,
    groups: &[MethodRows],
    summary: fn(&MethodRows) -> RunSummary,
    decimals: usize,
    unit: &str,
) {
    println!("\n{title}");
    println!(
        "{:<28} {:>12} {:>12} {:>12} {:>12}",
        "method", "best", "worst", "average", "variance"
    );
    let width = 12 - unit.len();
    let cell = |v: f64| format!("{v:>width$.decimals$}{unit}");
    for group in groups {
        let s = summary(group);
        println!(
            "{:<28} {} {} {} {:>12.3e}",
            group.label,
            cell(s.min),
            cell(s.max),
            cell(s.mean),
            s.variance
        );
    }
}

/// Prints the Fig. 6 series (average deviation and average simulation count
/// per method) as CSV so it can be plotted directly.
pub fn print_fig6_csv(groups: &[MethodRows]) {
    println!("\n# Fig. 6 series (CSV): method, avg_deviation_pp, avg_simulations");
    for group in groups {
        println!(
            "{},{:.4},{:.0}",
            group.label,
            group.deviation_summary().mean,
            group.simulation_summary().mean
        );
    }
}
