//! Reproduces the nominal-sizing convergence observations of §3.3:
//! without process variations, example 1 converges in a few tens of
//! generations while example 2's severe specifications need hundreds. The
//! engine is the paper's: DE with selection-based (Deb's rules) constraint
//! handling (SBDE). The footer prints the generations it measured on both
//! examples next to the paper's counts.
//!
//! Run with `--paper` for larger populations and generation budgets.

use moheco_analog::{FoldedCascode, TelescopicTwoStage, Testbench};
use moheco_bench::{BudgetClass, EngineKind, NominalSizingProblem};
use moheco_optim::de::{DeConfig, DifferentialEvolution};
use moheco_runtime::EngineConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn gens_label(gens: Option<usize>) -> String {
    gens.map(|g| g.to_string())
        .unwrap_or_else(|| "never".to_string())
}

/// Runs SBDE on `tb`, prints its row and returns its generations to
/// feasibility.
fn run_sbde<T: Testbench>(
    name: &str,
    tb: T,
    population: usize,
    generations: usize,
    engine: EngineKind,
) -> Option<usize> {
    println!(
        "\nNominal sizing of {name} (population {population}, up to {generations} generations)"
    );
    let de_cfg = DeConfig {
        population_size: population,
        max_generations: generations,
        stagnation_limit: None,
        // Target: every spec met with at least half a normalisation unit of
        // margin, which requires genuine optimization rather than a lucky
        // initial sample.
        target_objective: Some(-0.5),
        ..DeConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(0x51E1);
    let mut p = NominalSizingProblem::with_engine(tb, engine.build_with(EngineConfig::default()));
    let result = DifferentialEvolution::new(de_cfg).run(&mut p, &mut rng);
    // The objective is the negated worst normalised spec margin once feasible;
    // "gens to feasible" is the generation at which a feasible sizing first
    // appeared in the history.
    let gens_to_feasible = result.generations_to_reach(0.0);
    println!(
        "{:<28} feasible: {:<5} gens to feasible: {:>6} best worst-margin: {:>8.3} evaluations: {:>6}",
        "SBDE (DE + Deb rules)",
        result.is_feasible(),
        gens_label(gens_to_feasible),
        -result.best_objective(),
        result.evaluations,
    );
    gens_to_feasible
}

fn main() {
    let (budget, engine) = moheco_bench::cli::figure_binary_scale();
    let (population, gens_easy, gens_hard) = if budget == BudgetClass::Paper {
        (60, 120, 300)
    } else {
        (24, 40, 80)
    };
    let easy = run_sbde(
        "example 1 (folded cascode)",
        FoldedCascode::new(),
        population,
        gens_easy,
        engine,
    );
    let hard = run_sbde(
        "example 2 (telescopic two-stage, severe specs)",
        TelescopicTwoStage::new(),
        population,
        gens_hard,
        engine,
    );
    println!("\nPaper observation: example 1 converges in 20-30 generations while example 2's");
    println!("severe specifications need 200-300.");
    println!("Measured SBDE generations to feasibility:");
    for (example, gens) in [("example 1", easy), ("example 2", hard)] {
        println!("  {example}: {}", gens_label(gens));
    }
}
