//! Reproduces Fig. 3 of the MOHECO paper: how the ordinal-optimization budget
//! allocation distributes Monte-Carlo samples over one typical population of
//! example 1.
//!
//! The paper reports that candidates with yield > 70 % (36 % of the
//! population) receive 55 % of the simulations, candidates with yield < 40 %
//! (30 % of the population) receive 13 %, and the total is ~11 % of the
//! budget the `AS + LHS` flow with a fixed 500-sample budget would spend.
//!
//! The settings are the `memetic` configuration of the budget class and its
//! `fixed_sims`. Run with `--paper` for the paper-scale population
//! (50 candidates, `sim_ave = 35`, fixed budget 500).

use moheco::{estimate_fixed_budget, estimate_two_stage, Candidate, MohecoConfig, YieldProblem};
use moheco_analog::{FoldedCascode, Testbench};
use moheco_bench::Algo;
use moheco_optim::problem::random_point;
use moheco_sampling::EstimatorKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let (budget, engine) = moheco_bench::cli::figure_binary_scale();
    let config = MohecoConfig {
        stage2_threshold: 1.1, // keep everything in stage 1 for this figure
        ..Algo::Memetic.config(budget)
    };
    let fixed_budget = budget.fixed_sims();
    let fresh_problem = || {
        let engine = engine.build_configured(0xF163, EstimatorKind::default());
        YieldProblem::with_engine(FoldedCascode::new(), engine)
    };
    let problem = fresh_problem();
    let mut rng = StdRng::seed_from_u64(0xF163);
    let bounds = problem.bounds();
    let reference = problem.testbench().reference_design();

    // Build a "typical population": a mix of perturbed good designs and
    // random designs, mimicking a mid-run DE population.
    let mut candidates: Vec<Candidate> = Vec::new();
    for i in 0..config.population_size {
        let x: Vec<f64> = if i % 4 != 3 {
            // Perturbation of the reference design (mostly feasible, with a
            // wide spread of yields under the strengthened process variation).
            reference
                .iter()
                .zip(&bounds)
                .map(|(&v, &(lo, hi))| {
                    let span = hi - lo;
                    (v + span * 0.12 * (rng.gen::<f64>() - 0.5)).clamp(lo, hi)
                })
                .collect()
        } else {
            random_point(&bounds, &mut rng)
        };
        candidates.push(Candidate::screened(&problem.feasibility(&x), x));
    }
    let mut fixed_candidates = candidates.clone();

    let before = problem.simulations();
    let served = estimate_two_stage(&problem, &mut candidates, &config);
    let oo_sims = problem.simulations() - before;

    // Bin the feasible candidates by estimated yield.
    let bins = [
        (0.7, f64::INFINITY, "> 70%"),
        (0.4, 0.7, "40% - 70%"),
        (-1.0, 0.4, "< 40%"),
    ];
    let population = candidates.len() as f64;
    let total_samples: usize = served.iter().sum();
    println!("Fig. 3: OO budget allocation over one typical population (example 1)");
    println!(
        "{:<12} {:>18} {:>18}",
        "yield bin", "% of population", "% of simulations"
    );
    for (lo, hi, label) in bins {
        let mut members = 0usize;
        let mut samples = 0usize;
        for (c, &s) in candidates.iter().zip(&served) {
            let y = c.yield_value();
            if c.feasible && y >= lo && y < hi {
                members += 1;
                samples += s;
            }
        }
        println!(
            "{:<12} {:>17.1}% {:>17.1}%",
            label,
            100.0 * members as f64 / population,
            100.0 * samples as f64 / total_samples.max(1) as f64
        );
    }
    let infeasible = candidates.iter().filter(|c| !c.feasible).count();
    println!(
        "(infeasible: {:.1}% of the population, 0% of the simulations)",
        100.0 * infeasible as f64 / population
    );

    // Compare against the fixed-budget flow on the same population. A fresh
    // problem (fresh engine cache) keeps the comparison honest: the
    // fixed-budget flow must not be served from the OO run's sample cache.
    let problem_fixed = fresh_problem();
    let before = problem_fixed.simulations();
    let _ = estimate_fixed_budget(&problem_fixed, &mut fixed_candidates, fixed_budget);
    let fixed_sims = problem_fixed.simulations() - before;
    println!(
        "\nOO population budget: {oo_sims} simulations = {:.1}% of the AS+LHS-{fixed_budget} budget ({fixed_sims}) (paper: ~11%)",
        100.0 * oo_sims as f64 / fixed_sims.max(1) as f64
    );
}
