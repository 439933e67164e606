//! Reproduces Tables 3 and 4 of the MOHECO paper: yield-estimate deviation
//! and total simulation count for the two-stage telescopic-cascode amplifier
//! in 90 nm (example 2), comparing the fixed-budget `AS + LHS` baselines and
//! MOHECO.
//!
//! Every table cell is the `telescopic` campaign cell of its method and
//! seed. Run with `--paper` for `BudgetClass::Paper`.

use moheco_bench::{print_tables, Algo, MethodRows};
use moheco_scenarios::find_scenario;

fn main() {
    let (budget, engine) = moheco_bench::cli::figure_binary_scale();
    let scenario = find_scenario("telescopic").expect("registered scenario");
    println!(
        "Example 2 (two-stage telescopic cascode, 90nm): {} runs per method, reference yield from {} samples",
        budget.table_runs(),
        budget.reference_samples()
    );

    // The paper's Table 3/4 compares the 300- and 500-simulation baselines
    // against MOHECO for this (more expensive) circuit.
    let [low, mid, _] = budget.fixed_budgets();
    let groups: Vec<MethodRows> = [
        (Algo::Fixed, Some(low)),
        (Algo::Fixed, Some(mid)),
        (Algo::Memetic, None),
    ]
    .into_iter()
    .map(|(algo, sims)| MethodRows::run(scenario.as_ref(), algo, sims, budget, engine))
    .collect();

    print_tables(3, "example 2", "14.16%", &groups);
}
