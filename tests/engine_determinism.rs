//! Determinism property of the evaluation engine: an `Engine` on the
//! work-stealing pool and an in-order one-worker `Engine` produce
//! **bit-identical** results for the same seeds — identical `YieldEstimate`s for a generation
//! and identical `RunResult`s for a whole optimization — because all
//! Monte-Carlo randomness lives in per-(design, block) RNG streams that do
//! not depend on execution order.

use moheco::runtime::{Engine, EngineConfig};
use moheco::{Candidate, CircuitBench, MohecoConfig, RunResult, YieldOptimizer, YieldProblem};
use moheco_analog::{FoldedCascode, Testbench};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn serial_problem(seed: u64) -> YieldProblem<CircuitBench<FoldedCascode>> {
    YieldProblem::with_engine(
        FoldedCascode::new(),
        Arc::new(Engine::new(
            EngineConfig::default().with_seed(seed).with_workers(1),
        )),
    )
}

fn parallel_problem(seed: u64, workers: usize) -> YieldProblem<CircuitBench<FoldedCascode>> {
    YieldProblem::with_engine(
        FoldedCascode::new(),
        Arc::new(Engine::new(
            EngineConfig::default()
                .with_seed(seed)
                .with_workers(workers),
        )),
    )
}

fn tiny() -> MohecoConfig {
    MohecoConfig {
        population_size: 8,
        n0: 4,
        sim_ave: 10,
        delta: 6,
        n_max: 40,
        max_generations: 5,
        stop_stagnation: 5,
        nm_iterations: 3,
        ..MohecoConfig::fast()
    }
}

fn run(problem: &YieldProblem<CircuitBench<FoldedCascode>>, rng_seed: u64) -> RunResult {
    let optimizer = YieldOptimizer::new(tiny());
    let mut rng = StdRng::seed_from_u64(rng_seed);
    optimizer.run(problem, &mut rng)
}

#[test]
fn parallel_and_serial_yield_estimates_are_identical() {
    let serial = serial_problem(42);
    let parallel = parallel_problem(42, 4);
    let reference = serial.testbench().reference_design();

    // A small generation of candidates of varying quality.
    let currents = [130.0, 145.0, 160.0, 172.0, 55.0];
    let build = |problem: &YieldProblem<CircuitBench<FoldedCascode>>| -> Vec<Candidate> {
        currents
            .iter()
            .map(|&i| {
                let mut x = reference.clone();
                x[8] = i;
                let rep = problem.feasibility(&x);
                if rep.is_feasible() {
                    Candidate::feasible(x, rep.decision)
                } else {
                    Candidate::infeasible(x, rep.violation)
                }
            })
            .collect()
    };
    let config = MohecoConfig {
        n0: 6,
        sim_ave: 18,
        delta: 8,
        n_max: 80,
        stage2_threshold: 0.6,
        ..MohecoConfig::fast()
    };

    let mut cs = build(&serial);
    let mut cp = build(&parallel);
    let rec_s = moheco::estimate_two_stage(&serial, &mut cs, &config);
    let rec_p = moheco::estimate_two_stage(&parallel, &mut cp, &config);

    assert_eq!(rec_s.samples, rec_p.samples);
    assert_eq!(rec_s.yields, rec_p.yields);
    assert_eq!(rec_s.promoted, rec_p.promoted);
    for (a, b) in cs.iter().zip(&cp) {
        assert_eq!(a.estimate, b.estimate, "estimates must be bit-identical");
        assert_eq!(a.stage, b.stage);
    }
    assert_eq!(serial.simulations(), parallel.simulations());
}

#[test]
fn parallel_and_serial_runs_are_identical() {
    let serial = serial_problem(7);
    let parallel = parallel_problem(7, 4);
    let rs = run(&serial, 11);
    let rp = run(&parallel, 11);

    assert_eq!(rs.best_x, rp.best_x, "best design must be bit-identical");
    assert_eq!(rs.reported_yield, rp.reported_yield);
    assert_eq!(rs.total_simulations, rp.total_simulations);
    assert_eq!(rs.generations, rp.generations);
    assert_eq!(rs.local_searches, rp.local_searches);
    assert_eq!(rs.trace.len(), rp.trace.len());
    for (a, b) in rs.trace.records.iter().zip(&rp.trace.records) {
        assert_eq!(a.best_yield, b.best_yield);
        assert_eq!(a.num_feasible, b.num_feasible);
        assert_eq!(a.simulations_so_far, b.simulations_so_far);
        assert_eq!(a.simulations_this_generation, b.simulations_this_generation);
        assert_eq!(a.candidates, b.candidates);
    }
    // The instrumentation agrees on everything except wall time.
    let (ss, sp) = (rs.engine_stats, rp.engine_stats);
    assert_eq!(ss.simulations_run, sp.simulations_run);
    assert_eq!(ss.mc_samples_served, sp.mc_samples_served);
    assert_eq!(ss.cache_hits, sp.cache_hits);
}

#[test]
fn worker_count_does_not_change_results() {
    let one = run(&parallel_problem(3, 1), 5);
    let many = run(&parallel_problem(3, 8), 5);
    assert_eq!(one.best_x, many.best_x);
    assert_eq!(one.reported_yield, many.reported_yield);
    assert_eq!(one.total_simulations, many.total_simulations);
}

#[test]
fn different_engine_seeds_change_sample_streams() {
    let a = serial_problem(1);
    let b = serial_problem(2);
    let x = a.testbench().reference_design();
    assert_ne!(a.outcomes(&x, 0, 200), b.outcomes(&x, 0, 200));
}

#[test]
fn engine_stats_are_surfaced_in_the_run_result() {
    let problem = parallel_problem(9, 2);
    let result = run(&problem, 1);
    let stats = result.engine_stats;
    assert!(stats.simulations_run > 0);
    assert_eq!(stats.simulations_run, result.total_simulations);
    assert!(stats.batches > 0);
    // Accounting identity without subtraction (which could underflow when
    // cached serves exceed executed work).
    assert!(stats.mc_samples_served + stats.nominal_served >= stats.simulations_run);
    // The trace carries the cumulative cache-hit series (the final top-up
    // after the last recorded generation may add a few more hits).
    let last = result.trace.records.last().unwrap();
    assert!(last.cache_hits_so_far <= stats.cache_hits);
}
