//! Monte-Carlo estimates of the synthetic scenarios must converge to their
//! closed-form ground truth, for the serial and the parallel engine alike.
//!
//! These are the assertions the ISSUE calls "estimator accuracy asserted,
//! not eyeballed": every analytic scenario's yield oracle is checked against
//! a seeded Monte-Carlo estimate at several design points, and the parallel
//! engine must reproduce the serial engine's outcomes bit-identically.

use moheco_runtime::{Engine, EngineConfig, EvalEngine};
use moheco_sampling::SamplingPlan;
use moheco_scenarios::{all_scenarios, Scenario};
use std::sync::Arc;

const SAMPLES: usize = 4000;
/// Binomial standard error at p = 0.5 and n = 4000 is ~0.008; LHS
/// stratification tightens it further. 0.025 is > 3 sigma.
const TOLERANCE: f64 = 0.025;

fn engine(seed: u64, parallel: bool) -> Arc<dyn EvalEngine> {
    let config = EngineConfig {
        plan: SamplingPlan::LatinHypercube,
        seed,
        ..EngineConfig::default()
    };
    Arc::new(Engine::new(config.with_workers(if parallel {
        3
    } else {
        1
    })))
}

/// Design points to check: the reference design plus two deterministic
/// perturbations towards the bounds (lower-yield regions).
fn probe_points(scenario: &dyn Scenario) -> Vec<Vec<f64>> {
    let bench = scenario.bench();
    let reference = bench.reference_design();
    let bounds = bench.bounds();
    let towards = |frac: f64| -> Vec<f64> {
        reference
            .iter()
            .zip(&bounds)
            .enumerate()
            .map(|(i, (&r, &(lo, hi)))| {
                let target = if i % 2 == 0 { hi } else { lo };
                r + frac * (target - r)
            })
            .collect()
    };
    let points = vec![towards(0.0), towards(0.15), towards(0.3)];
    points
}

fn check_convergence(parallel: bool) {
    for scenario in all_scenarios() {
        if !scenario.has_true_yield() {
            continue; // circuits have no closed form; covered by table tests
        }
        let problem = scenario.build(engine(0xC0FFEE, parallel));
        for (k, x) in probe_points(scenario.as_ref()).iter().enumerate() {
            let truth = problem
                .true_yield(x)
                .expect("analytic scenario has a closed form");
            let outcomes = problem.outcomes(x, 0, SAMPLES);
            let est = outcomes.iter().filter(|&&o| o > 0.5).count() as f64 / SAMPLES as f64;
            assert!(
                (est - truth).abs() <= TOLERANCE,
                "{} point {k}: estimate {est:.4} vs truth {truth:.4} ({} engine)",
                scenario.name(),
                if parallel { "parallel" } else { "serial" },
            );
        }
    }
}

#[test]
fn serial_estimates_converge_to_closed_form_truth() {
    check_convergence(false);
}

#[test]
fn parallel_estimates_converge_to_closed_form_truth() {
    check_convergence(true);
}

#[test]
fn parallel_outcomes_are_bit_identical_to_serial() {
    for scenario in all_scenarios() {
        if !scenario.has_true_yield() {
            continue;
        }
        let serial = scenario.build(engine(7, false));
        let parallel = scenario.build(engine(7, true));
        let x = scenario.bench().reference_design();
        assert_eq!(
            serial.outcomes(&x, 0, 600),
            parallel.outcomes(&x, 0, 600),
            "{}",
            scenario.name()
        );
        assert_eq!(serial.simulations(), parallel.simulations());
    }
}

#[test]
fn estimates_converge_from_independent_seeds() {
    // The tolerance must hold across engine seeds, not for one lucky stream.
    let scenario = moheco_scenarios::find_scenario("margin_wall").unwrap();
    let x = scenario.bench().reference_design();
    for seed in [1u64, 2, 3] {
        let problem = scenario.build(engine(seed, false));
        let truth = problem.true_yield(&x).unwrap();
        let outcomes = problem.outcomes(&x, 0, SAMPLES);
        let est = outcomes.iter().filter(|&&o| o > 0.5).count() as f64 / SAMPLES as f64;
        assert!(
            (est - truth).abs() <= TOLERANCE,
            "seed {seed}: estimate {est:.4} vs truth {truth:.4}"
        );
    }
}
