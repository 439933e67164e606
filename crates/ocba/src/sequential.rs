//! Sequential OCBA allocation loop.
//!
//! This is the procedure the first stage of MOHECO runs on each population of
//! feasible candidates:
//!
//! 1. spend `n0` replications on every design to obtain initial mean/variance
//!    estimates;
//! 2. repeatedly ask the OCBA rule for the next increment of `delta`
//!    replications and spend them on the designs the rule selects;
//! 3. stop when the total budget `T` is exhausted.
//!
//! The simulator is abstracted as a closure `FnMut(design, n) -> Vec<f64>`
//! returning the outcomes of `n` fresh replications of the given design (in
//! MOHECO, Bernoulli pass/fail outcomes of Monte-Carlo yield samples).

use crate::allocation::{AllocScratch, OcbaError};
use crate::arms::{arm_increment, Arm};

/// Running statistics of one design maintained with Welford's algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    /// Number of replications accumulated.
    pub count: usize,
    /// Running mean.
    pub mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Adds many observations.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Sample variance of a single replication (unbiased); zero with fewer
    /// than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.variance() / self.count as f64).sqrt()
        }
    }
}

/// Configuration of the sequential allocation loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequentialConfig {
    /// Initial number of replications per design (`n0` in the paper; 15).
    pub n0: usize,
    /// Increment of replications allocated per OCBA round (`Δ`).
    pub delta: usize,
    /// Total replication budget `T` across all designs.
    pub total_budget: usize,
    /// Optional per-design cap on replications (`n_max`); `None` = unlimited.
    pub per_design_cap: Option<usize>,
}

/// Result of a sequential allocation run.
#[derive(Debug, Clone)]
pub struct SequentialOutcome {
    /// Final running statistics per design.
    pub stats: Vec<RunningStats>,
    /// Number of replications spent on each design.
    pub spent: Vec<usize>,
    /// Total number of replications spent.
    pub total_spent: usize,
    /// Number of OCBA rounds executed after the initial `n0` phase.
    pub rounds: usize,
}

/// Runs the sequential OCBA loop over `num_designs` designs with a *batched*
/// simulator.
///
/// `simulate_round(&[(design, n), ...])` receives every allocation of one
/// round at once — the initial `n0` phase is one round, and each subsequent
/// `Δ`-increment is one round — and must return exactly one outcome vector
/// per entry, in entry order. A vector may be *shorter* than requested when
/// the simulator's own budget caps that design (e.g. a design entering with
/// prior samples close to its ceiling); accounting and the progress check
/// use the returned length. Batching the round is what lets an evaluation
/// engine dispatch all replications of a round in parallel; the allocation
/// decisions themselves are identical to the per-design formulation.
///
/// # Errors
///
/// Propagates [`OcbaError`] from the allocation rule (only possible with
/// fewer than two designs).
pub fn run_sequential_batched<F>(
    num_designs: usize,
    config: SequentialConfig,
    mut simulate_round: F,
) -> Result<SequentialOutcome, OcbaError>
where
    F: FnMut(&[(usize, usize)]) -> Vec<Vec<f64>>,
{
    if num_designs < 2 {
        return Err(OcbaError::TooFewDesigns { got: num_designs });
    }
    let mut stats = vec![RunningStats::new(); num_designs];
    let mut spent = vec![0usize; num_designs];
    let cap = config.per_design_cap.unwrap_or(usize::MAX);
    let mut total_spent = 0usize;

    let mut run_round = |round: &[(usize, usize)],
                         stats: &mut Vec<RunningStats>,
                         spent: &mut Vec<usize>,
                         total_spent: &mut usize| {
        if round.is_empty() {
            return false;
        }
        let outcomes = simulate_round(round);
        debug_assert_eq!(outcomes.len(), round.len(), "one outcome vector per entry");
        let mut progressed = false;
        for (&(d, n), out) in round.iter().zip(&outcomes) {
            debug_assert!(out.len() <= n, "simulator returned more than requested");
            stats[d].extend(out);
            spent[d] += out.len();
            *total_spent += out.len();
            progressed |= !out.is_empty();
        }
        progressed
    };

    // Phase 1: n0 replications each (bounded by the cap), as one round.
    let mut round: Vec<(usize, usize)> = (0..num_designs)
        .filter_map(|d| {
            let n = config.n0.min(cap);
            (n > 0).then_some((d, n))
        })
        .collect();
    run_round(&round, &mut stats, &mut spent, &mut total_spent);

    // Phase 2: incremental OCBA rounds. Each design is an abstract arm with
    // the per-design cap; the arm layer clamps every grant to its cap room
    // and redistributes whatever the caps swallowed to designs that still
    // have room. Without that redistribution, a round whose funded designs
    // are all at `per_design_cap` comes back empty and the loop stops —
    // stranding budget even though other designs are below their cap.
    // The arms, grants, round and the rule's scratch live across rounds, so
    // a round allocates nothing on this side of `simulate_round`.
    let mut arms = vec![
        Arm {
            mean: 0.0,
            variance: 0.0,
            count: 0,
            cap: config.per_design_cap,
        };
        num_designs
    ];
    let mut scratch = AllocScratch::default();
    let mut granted = Vec::with_capacity(num_designs);
    let mut rounds = 0usize;
    while total_spent < config.total_budget {
        let remaining = config.total_budget - total_spent;
        let delta = config.delta.min(remaining).max(1);
        for ((arm, s), &n) in arms.iter_mut().zip(&stats).zip(&spent) {
            (arm.mean, arm.variance, arm.count) = (s.mean, s.variance(), n);
        }
        arm_increment(&arms, delta, &mut scratch, &mut granted)?;
        round.clear();
        round.extend(
            granted
                .iter()
                .enumerate()
                .filter_map(|(d, &n)| (n > 0).then_some((d, n))),
        );
        let progressed = run_round(&round, &mut stats, &mut spent, &mut total_spent);
        rounds += 1;
        if !progressed {
            // All designs are capped; nothing more to do.
            break;
        }
    }

    Ok(SequentialOutcome {
        stats,
        spent,
        total_spent,
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random Bernoulli simulator for tests.
    struct FakeBernoulli {
        probs: Vec<f64>,
        state: u64,
    }

    impl FakeBernoulli {
        fn new(probs: Vec<f64>) -> Self {
            Self {
                probs,
                state: 0x9E3779B97F4A7C15,
            }
        }
        fn next_uniform(&mut self) -> f64 {
            self.state = self
                .state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.state >> 11) as f64 / (1u64 << 53) as f64
        }
        fn simulate(&mut self, design: usize, n: usize) -> Vec<f64> {
            (0..n)
                .map(|_| {
                    if self.next_uniform() < self.probs[design] {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect()
        }
        /// Runs the batched loop, simulating each round entry in order.
        fn run(&mut self, config: SequentialConfig) -> SequentialOutcome {
            let designs = self.probs.len();
            run_sequential_batched(designs, config, |round| {
                round.iter().map(|&(d, n)| self.simulate(d, n)).collect()
            })
            .unwrap()
        }
    }

    #[test]
    fn running_stats_mean_and_variance() {
        let mut s = RunningStats::new();
        s.extend(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert!(s.std_error() > 0.0);
        assert_eq!(s.count, 8);
    }

    #[test]
    fn running_stats_degenerate_cases() {
        let s = RunningStats::new();
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_error(), 0.0);
        let mut s1 = RunningStats::new();
        s1.push(3.0);
        assert_eq!(s1.variance(), 0.0);
        assert_eq!(s1.mean, 3.0);
    }

    #[test]
    fn sequential_respects_total_budget() {
        let mut sim = FakeBernoulli::new(vec![0.9, 0.7, 0.5, 0.3, 0.1]);
        let config = SequentialConfig {
            n0: 10,
            delta: 20,
            total_budget: 200,
            per_design_cap: None,
        };
        let out = sim.run(config);
        assert_eq!(out.total_spent, 200);
        assert_eq!(out.spent.iter().sum::<usize>(), 200);
    }

    #[test]
    fn sequential_identifies_the_best_design() {
        let probs = vec![0.55, 0.95, 0.40, 0.30];
        let mut sim = FakeBernoulli::new(probs);
        let config = SequentialConfig {
            n0: 15,
            delta: 20,
            total_budget: 35 * 4,
            per_design_cap: None,
        };
        let out = sim.run(config);
        let best = (0..4)
            .max_by(|&a, &b| out.stats[a].mean.total_cmp(&out.stats[b].mean))
            .unwrap();
        assert_eq!(best, 1);
    }

    #[test]
    fn good_designs_receive_more_samples_than_bad_ones() {
        // Mirrors the Fig. 3 claim: promising designs get most of the budget.
        let probs = vec![0.92, 0.88, 0.85, 0.2, 0.15, 0.1];
        let mut sim = FakeBernoulli::new(probs.clone());
        let config = SequentialConfig {
            n0: 15,
            delta: 20,
            total_budget: 35 * probs.len(),
            per_design_cap: None,
        };
        let out = sim.run(config);
        let good: usize = out.spent[..3].iter().sum();
        let bad: usize = out.spent[3..].iter().sum();
        assert!(good > bad, "good {good} bad {bad}");
    }

    #[test]
    fn per_design_cap_is_enforced() {
        let probs = vec![0.9, 0.8, 0.1];
        let mut sim = FakeBernoulli::new(probs);
        let config = SequentialConfig {
            n0: 10,
            delta: 30,
            total_budget: 500,
            per_design_cap: Some(40),
        };
        let out = sim.run(config);
        for &s in &out.spent {
            assert!(s <= 40, "spent {s} exceeds cap");
        }
        // Budget cannot be fully spent because of the cap; with the capped
        // round redistribution the loop fills every design exactly to it.
        assert_eq!(out.total_spent, 120);
    }

    #[test]
    fn capped_rounds_redistribute_to_uncapped_designs() {
        // Four close competitors hog the OCBA allocation; once they hit the
        // per-design cap, the rule still funds only them, so pre-fix the
        // round comes back empty and the loop breaks — stranding budget even
        // though the clearly-bad design 4 is far below its own cap.
        let probs = vec![0.9, 0.88, 0.86, 0.84, 0.1];
        let mut sim = FakeBernoulli::new(probs.clone());
        let config = SequentialConfig {
            n0: 15,
            delta: 25,
            total_budget: 50 * probs.len(),
            per_design_cap: Some(30),
        };
        let out = sim.run(config);
        // Every design must be filled to its cap: the cap binds before the
        // budget (5 * 30 < 250).
        assert_eq!(
            out.total_spent,
            config.total_budget.min(probs.len() * 30),
            "spent {:?}",
            out.spent
        );
        for &s in &out.spent {
            assert_eq!(s, 30, "all designs reach the cap: {:?}", out.spent);
        }
    }

    #[test]
    fn too_few_designs_is_an_error() {
        let config = SequentialConfig {
            n0: 15,
            delta: 20,
            total_budget: 35,
            per_design_cap: None,
        };
        let res = run_sequential_batched(1, config, |round| {
            round.iter().map(|&(_, n)| vec![1.0; n]).collect()
        });
        assert!(matches!(res, Err(OcbaError::TooFewDesigns { .. })));
    }
}
