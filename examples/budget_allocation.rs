//! Demonstrates the ordinal-optimization / OCBA machinery on its own: a bank
//! of noisy Bernoulli "designs" (simulated yields) is ranked with far fewer
//! samples than uniform allocation would need — the effect behind Fig. 3 of
//! the paper.
//!
//! ```text
//! cargo run --release --example budget_allocation
//! ```

use moheco_ocba::allocation::allocate;
use moheco_ocba::sequential::{run_sequential_batched, SequentialConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Indices of `values` from the highest value to the lowest (a stable
/// sort, so ties keep index order).
fn rank_descending(values: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[b].total_cmp(&values[a]));
    order
}

fn main() {
    // True (unknown) yields of ten candidate designs.
    let true_yields = [0.97, 0.95, 0.91, 0.86, 0.78, 0.66, 0.52, 0.41, 0.28, 0.12];
    let mut rng = StdRng::seed_from_u64(2024);

    // Run the sequential OCBA loop with the paper's parameters (n0 = 15,
    // Δ = 20, sim_ave = 35 per design on average).
    let config = SequentialConfig {
        n0: 15,
        delta: 20,
        total_budget: 35 * true_yields.len(),
        per_design_cap: None,
    };
    let outcome = run_sequential_batched(true_yields.len(), config, |round| {
        round
            .iter()
            .map(|&(design, n)| {
                (0..n)
                    .map(|_| {
                        if rng.gen::<f64>() < true_yields[design] {
                            1.0
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect()
    })
    .expect("at least two designs");

    println!("design   true yield   estimated   samples allocated");
    for (i, stats) in outcome.stats.iter().enumerate() {
        println!(
            "{:>6}   {:>9.2}%   {:>8.2}%   {:>6}",
            i,
            100.0 * true_yields[i],
            100.0 * stats.mean,
            outcome.spent[i]
        );
    }
    println!(
        "\ntotal samples: {} (uniform allocation would also use {}, but spread evenly)",
        outcome.total_spent, config.total_budget
    );
    let estimated: Vec<f64> = outcome.stats.iter().map(|s| s.mean).collect();
    let ranking = rank_descending(&estimated);
    println!("best design found: {}", ranking[0]);

    // How good is the ranking?
    println!(
        "observed top-3 {:?} vs true top-3 {:?}",
        &ranking[..3],
        &rank_descending(&true_yields)[..3]
    );

    // A one-shot OCBA allocation for a fresh budget, given the estimates.
    let variances: Vec<f64> = outcome
        .stats
        .iter()
        .map(|s| s.variance().max(1e-4))
        .collect();
    let next_allocation = allocate(&estimated, &variances, 350).expect("valid inputs");
    println!("\nnext-round OCBA allocation of 350 samples: {next_allocation:?}");
    println!("ranking of designs by estimated yield: {ranking:?}");
}
