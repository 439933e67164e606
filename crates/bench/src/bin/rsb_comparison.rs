//! Reproduces the §3.4 response-surface comparison of the MOHECO paper.
//!
//! A MOHECO run on example 1 produces `(design point, yield)` data; at each
//! generation a 20-neuron neural network is trained (Levenberg–Marquardt) on
//! the data of all previous generations and used to predict the yields of the
//! current generation. The paper reports that the RMS error remains ≈6.9 %
//! even with 50 generations of training data — too inaccurate for a surrogate
//! to replace Monte Carlo in the loop.
//!
//! The MOHECO run is the `folded_cascode` `memetic` campaign cell of seed 1
//! (same configuration, warm start and sample streams); the binary runs it
//! through [`YieldOptimizer`] directly because it needs the per-generation
//! trace, which result rows do not carry. Run with `--paper` for
//! paper-scale settings.

use moheco::YieldOptimizer;
use moheco_bench::Algo;
use moheco_sampling::EstimatorKind;
use moheco_scenarios::find_scenario;
use moheco_surrogate::{LmConfig, RsbYieldModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let (budget, engine) = moheco_bench::cli::figure_binary_scale();
    let scenario = find_scenario("folded_cascode").expect("registered scenario");
    eprintln!("running MOHECO on example 1 to collect trajectory data ...");
    let seed = 1;
    let problem = scenario.build(engine.build_configured(seed, EstimatorKind::default()));
    let result = YieldOptimizer::new(Algo::Memetic.config(budget)).run_from(
        &problem,
        &scenario.warm_start(),
        &mut StdRng::seed_from_u64(seed),
    );
    let trace = &result.trace;
    println!(
        "MOHECO converged to a reported yield of {:.1}% in {} generations ({} simulations)",
        100.0 * result.reported_yield,
        result.generations,
        result.total_simulations
    );

    println!(
        "\nSection 3.4: NN (20 hidden neurons, Levenberg-Marquardt) trained on generations 0..g,"
    );
    println!("tested on the candidates of generation g+1.");
    println!(
        "{:>12} {:>16} {:>16}",
        "generation", "training points", "RMS error (pp)"
    );

    let mut rng = StdRng::seed_from_u64(0x2024);
    let lm = LmConfig {
        max_iterations: 40,
        ..LmConfig::default()
    };
    let mut errors = Vec::new();
    let last = trace.len().saturating_sub(1);
    for g in 1..=last {
        let train = trace.training_pairs(g - 1);
        let test = trace.generation_pairs(g);
        if train.len() < 10 || test.is_empty() {
            continue;
        }
        let Ok(model) = RsbYieldModel::fit(&train, 20, &lm, &mut rng) else {
            continue;
        };
        let rms = model.rms_error(&test) * 100.0;
        errors.push(rms);
        println!("{:>12} {:>16} {:>15.2}%", g, train.len(), rms);
    }
    if let Some(last_err) = errors.last() {
        println!(
            "\nRMS error with all available training data: {last_err:.2} percentage points (paper: 6.86%)"
        );
        println!("Conclusion (as in the paper): the surrogate's error remains far larger than the");
        println!("0.3-0.5 pp accuracy MOHECO achieves for the same simulation budget.");
    } else {
        println!("\nNot enough trajectory data to train the surrogate; rerun with --paper.");
    }
}
