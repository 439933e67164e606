//! Reproduces Tables 1 and 2 (and the Fig. 6 series) of the MOHECO paper:
//! yield-estimate deviation and total simulation count for the folded-cascode
//! amplifier (example 1), comparing the fixed-budget `AS + LHS` baselines,
//! `OO + AS + LHS` and full MOHECO.
//!
//! Every table cell is the `folded_cascode` campaign cell of its method
//! (`fixed` at three budgets, `two-stage`, `memetic`) and seed. Run with
//! `--paper` for `BudgetClass::Paper` (10 runs, population 50, 50 000-sample
//! reference yields); the default, `BudgetClass::Small`, finishes in
//! seconds.

use moheco_bench::{print_fig6_csv, print_tables, Algo, MethodRows};
use moheco_scenarios::find_scenario;

fn main() {
    let (budget, engine) = moheco_bench::cli::figure_binary_scale();
    let scenario = find_scenario("folded_cascode").expect("registered scenario");
    println!(
        "Example 1 (folded cascode, 0.35um): {} runs per method, reference yield from {} samples",
        budget.table_runs(),
        budget.reference_samples()
    );

    let [low, mid, high] = budget.fixed_budgets();
    let groups: Vec<MethodRows> = [
        (Algo::Fixed, Some(low)),
        (Algo::Fixed, Some(mid)),
        (Algo::Fixed, Some(high)),
        (Algo::TwoStage, None),
        (Algo::Memetic, None),
    ]
    .into_iter()
    .map(|(algo, sims)| MethodRows::run(scenario.as_ref(), algo, sims, budget, engine))
    .collect();

    // Headline ratio of the paper: MOHECO uses ~1/7 of the simulations of the
    // AS+LHS-500 flow (the middle fixed budget here).
    print_tables(1, "example 1", "~14%", &groups);
    print_fig6_csv(&groups);
}
