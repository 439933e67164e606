//! Reproduces the nominal-sizing convergence observations of §3.3:
//! without process variations, example 1 converges in a few tens of
//! generations while example 2's severe specifications need hundreds. The
//! footer prints the generations each DE-based engine measured on both
//! examples next to the paper's counts.
//!
//! Run with `--paper` for larger populations and generation budgets.

use moheco_analog::{FoldedCascode, TelescopicTwoStage, Testbench};
use moheco_bench::{EngineKind, NominalSizingProblem};
use moheco_optim::de::{DeConfig, DifferentialEvolution};
use moheco_optim::memetic::{MemeticConfig, MemeticOptimizer};
use moheco_optim::penalty::PenaltyProblem;
use moheco_optim::problem::Problem;
use moheco_optim::result::OptimizationResult;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn gens_label(gens: Option<usize>) -> String {
    gens.map(|g| g.to_string())
        .unwrap_or_else(|| "never".to_string())
}

/// Prints one engine's row and returns its generations to feasibility.
fn report(label: &str, result: &OptimizationResult) -> Option<usize> {
    // The objective is the negated worst normalised spec margin once feasible;
    // "gens to feasible" is the generation at which a feasible sizing first
    // appeared in the history.
    let gens_to_feasible = result.generations_to_reach(0.0);
    println!(
        "{:<28} feasible: {:<5} gens to feasible: {:>6} best worst-margin: {:>8.3} evaluations: {:>6}",
        label,
        result.is_feasible(),
        gens_label(gens_to_feasible),
        -result.best_objective(),
        result.evaluations,
    );
    gens_to_feasible
}

/// Runs SBDE, memetic DE + NM and DE + penalty on `tb` and returns their
/// generations to feasibility, in that order.
fn run_engines<T: Testbench + Clone>(
    name: &str,
    tb: T,
    population: usize,
    generations: usize,
    engine: EngineKind,
) -> [Option<usize>; 3] {
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
    let mut p = NominalSizingProblem::with_engine(tb.clone(), engine.build());
    let de = DifferentialEvolution::new(de_cfg).run(&mut p, &mut rng);
    let de_gens = report("SBDE (DE + Deb rules)", &de);

    let mut rng = StdRng::seed_from_u64(0x51E1);
    let mut p = NominalSizingProblem::with_engine(tb.clone(), engine.build());
    let memetic = MemeticOptimizer::new(MemeticConfig {
        de: de_cfg,
        ..MemeticConfig::default()
    })
    .run(&mut p, &mut rng);
    let memetic_gens = report("Memetic DE + NM (MSOEA-like)", &memetic);

    let mut rng = StdRng::seed_from_u64(0x51E1);
    let tb_check = tb.clone();
    let mut p = PenaltyProblem::new(NominalSizingProblem::with_engine(tb, engine.build()), 100.0);
    let pen = DifferentialEvolution::new(de_cfg).run(&mut p, &mut rng);
    // Re-check real feasibility of the penalty solution.
    let mut checker = NominalSizingProblem::new(tb_check);
    let feasible = checker.evaluate(&pen.best.x).is_feasible();
    println!(
        "{:<28} feasible: {:<5} gens to feasible: {:>6} best worst-margin: {:>8} evaluations: {:>6}",
        "DE + penalty function",
        feasible,
        pen.generations,
        "n/a",
        pen.evaluations
    );
    [de_gens, memetic_gens, feasible.then_some(pen.generations)]
}

fn main() {
    let scale = moheco_bench::cli::figure_binary_scale();
    let (population, gens_easy, gens_hard) = if scale.reference_samples >= 50_000 {
        (60, 120, 300)
    } else {
        (24, 40, 80)
    };
    let easy = run_engines(
        "example 1 (folded cascode)",
        FoldedCascode::new(),
        population,
        gens_easy,
        scale.engine,
    );
    let hard = run_engines(
        "example 2 (telescopic two-stage, severe specs)",
        TelescopicTwoStage::new(),
        population,
        gens_hard,
        scale.engine,
    );
    println!("\nPaper observation: example 1 converges in 20-30 generations while example 2's");
    println!("severe specifications need 200-300.");
    println!("Measured generations to feasibility (SBDE / memetic DE + NM / DE + penalty):");
    for (example, gens) in [("example 1", easy), ("example 2", hard)] {
        let gens: Vec<String> = gens.into_iter().map(gens_label).collect();
        println!("  {example}: {}", gens.join(" / "));
    }
}
