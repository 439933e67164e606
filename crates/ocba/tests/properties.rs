//! Property-style tests of the sequential OCBA loop: across randomized
//! (cap, budget, variance) configurations the loop must conserve its budget
//! exactly — never exceeding a per-design cap, never stranding budget while
//! capacity remains, and always spending precisely what the configuration
//! admits.

use moheco_ocba::sequential::{run_sequential_batched, SequentialConfig};
use moheco_ocba::{allocate_arm_increment, Arm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic Bernoulli simulator with per-design success probabilities.
struct Bernoulli {
    probs: Vec<f64>,
    state: u64,
}

impl Bernoulli {
    fn new(probs: Vec<f64>, seed: u64) -> Self {
        Self {
            probs,
            state: seed | 1,
        }
    }

    fn simulate(&mut self, design: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| {
                self.state = self
                    .state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (self.state >> 11) as f64 / (1u64 << 53) as f64;
                if u < self.probs[design] {
                    1.0
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// The exact spend the configuration admits: the initial phase costs
/// `min(n0, cap)` per design even when that overshoots the budget, further
/// rounds fill towards the budget, and the per-design cap bounds everything.
fn expected_spend(num_designs: usize, config: &SequentialConfig) -> usize {
    let cap = config.per_design_cap.unwrap_or(usize::MAX);
    let initial = config.n0.min(cap) * num_designs;
    config
        .total_budget
        .max(initial)
        .min(cap.saturating_mul(num_designs))
}

#[test]
fn randomized_configurations_conserve_budget() {
    let mut rng = StdRng::seed_from_u64(0xB0D6E7);
    for trial in 0..60 {
        let num_designs = rng.gen_range(2..9usize);
        let n0 = rng.gen_range(1..16usize);
        let delta = rng.gen_range(1..25usize);
        let cap = if rng.gen::<f64>() < 0.7 {
            Some(rng.gen_range(1..60usize))
        } else {
            None
        };
        let total_budget = rng.gen_range(1..400usize);
        let probs: Vec<f64> = (0..num_designs).map(|_| rng.gen::<f64>()).collect();
        let config = SequentialConfig {
            n0,
            delta,
            total_budget,
            per_design_cap: cap,
        };
        let mut sim = Bernoulli::new(probs, 1 + trial);
        let out = run_sequential_batched(num_designs, config, |round| {
            round.iter().map(|&(d, n)| sim.simulate(d, n)).collect()
        })
        .expect("at least two designs");

        // Spent vector and total agree.
        assert_eq!(
            out.spent.iter().sum::<usize>(),
            out.total_spent,
            "trial {trial}: spent vector disagrees with the total"
        );
        // The cap is never exceeded.
        if let Some(cap) = cap {
            for (d, &s) in out.spent.iter().enumerate() {
                assert!(s <= cap, "trial {trial}: design {d} spent {s} > cap {cap}");
            }
        }
        // Budget is spent exactly: no stranded budget while capacity
        // remains, no overspend beyond what the initial phase forces.
        assert_eq!(
            out.total_spent,
            expected_spend(num_designs, &config),
            "trial {trial}: config {config:?} spent {:?}",
            out.spent
        );
        // Statistics saw every replication.
        for (s, &n) in out.stats.iter().zip(&out.spent) {
            assert_eq!(s.count, n, "trial {trial}: stats/spend mismatch");
        }
    }
}

#[test]
fn rounds_allocate_exactly_delta_until_capacity_binds() {
    // Observe every simulator round: after the initial phase, each round's
    // request must sum to exactly min(delta, remaining budget, remaining
    // capacity) — the redistribution guarantees no round silently shrinks.
    let num_designs = 5;
    let cap = 40usize;
    let config = SequentialConfig {
        n0: 10,
        delta: 24,
        total_budget: 500, // cap binds first: 5 * 40 = 200
        per_design_cap: Some(cap),
    };
    let mut sim = Bernoulli::new(vec![0.9, 0.85, 0.8, 0.3, 0.1], 7);
    let mut rounds: Vec<usize> = Vec::new();
    let out = run_sequential_batched(num_designs, config, |round| {
        rounds.push(round.iter().map(|&(_, n)| n).sum());
        round
            .iter()
            .map(|&(d, n)| sim.simulate(d, n))
            .collect::<Vec<_>>()
    })
    .unwrap();
    assert_eq!(rounds[0], num_designs * config.n0, "initial phase");
    let mut spent = rounds[0];
    for (k, &r) in rounds.iter().enumerate().skip(1) {
        let room = num_designs * cap - spent;
        let remaining = config.total_budget - spent;
        assert_eq!(
            r,
            config.delta.min(remaining).min(room),
            "round {k} under-allocated (spent so far {spent})"
        );
        spent += r;
    }
    assert_eq!(out.total_spent, num_designs * cap);
}

#[test]
fn incremental_allocations_sum_to_delta_over_random_stats() {
    let mut rng = StdRng::seed_from_u64(0xA110C);
    for _ in 0..200 {
        let n = rng.gen_range(2..10usize);
        let arms: Vec<Arm> = (0..n)
            .map(|_| {
                Arm::new(
                    rng.gen::<f64>(),
                    rng.gen::<f64>() * 0.25,
                    rng.gen_range(0..500usize),
                )
            })
            .collect();
        let delta = rng.gen_range(1..100usize);
        let add = allocate_arm_increment(&arms, delta).expect("valid inputs");
        assert_eq!(add.iter().sum::<usize>(), delta, "arms {arms:?}");
    }
}
