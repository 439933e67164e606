//! End-to-end integration tests of the yield-optimization flow, spanning the
//! circuit substrate, the process models, the sampling machinery, the OCBA
//! allocator and the MOHECO core.

use moheco::{MohecoConfig, YieldOptimizer, YieldProblem};
use moheco_analog::{FoldedCascode, TelescopicTwoStage, Testbench};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

#[test]
fn moheco_end_to_end_on_example_1() {
    let problem = YieldProblem::new(FoldedCascode::new());
    let optimizer = YieldOptimizer::new(tiny());
    let mut rng = StdRng::seed_from_u64(101);
    let result = optimizer.run(&problem, &mut rng);

    // The run's accounting must be consistent.
    assert_eq!(result.total_simulations, problem.simulations());
    assert!(result.total_simulations > 0);
    assert_eq!(result.best_x.len(), problem.dimension());
    assert_eq!(result.trace.len(), result.generations);

    // The reported yield must lie in [0, 1] and agree reasonably with an
    // independent reference estimate of the same design.
    assert!((0.0..=1.0).contains(&result.reported_yield));
    let mut ref_rng = StdRng::seed_from_u64(999);
    let reference = problem.reference_yield(&result.best_x, 1_500, &mut ref_rng);
    assert!(
        (result.reported_yield - reference).abs() < 0.25,
        "reported {} vs reference {}",
        result.reported_yield,
        reference
    );
}

#[test]
fn moheco_uses_fewer_simulations_than_fixed_budget_for_similar_quality() {
    // The headline claim of the paper in miniature: with matched generation
    // budgets, the two-stage OO estimation spends far fewer simulations than
    // the fixed-budget flow.
    let seeds = [5u64, 6, 7];
    let mut moheco_sims = 0.0;
    let mut fixed_sims = 0.0;
    let mut moheco_yield = 0.0;
    let mut fixed_yield = 0.0;
    for &seed in &seeds {
        let problem = YieldProblem::new(FoldedCascode::new());
        let result = YieldOptimizer::new(tiny()).run(&problem, &mut StdRng::seed_from_u64(seed));
        moheco_sims += result.total_simulations as f64;
        moheco_yield += result.reported_yield;

        let problem = YieldProblem::new(FoldedCascode::new());
        let result = YieldOptimizer::new(tiny().as_fixed_budget(40))
            .run(&problem, &mut StdRng::seed_from_u64(seed));
        fixed_sims += result.total_simulations as f64;
        fixed_yield += result.reported_yield;
    }
    assert!(
        moheco_sims < fixed_sims,
        "MOHECO {moheco_sims} should use fewer simulations than fixed {fixed_sims}"
    );
    // Quality must remain comparable (within 20 yield points on average for
    // these very small budgets).
    assert!(
        (moheco_yield - fixed_yield).abs() / seeds.len() as f64 <= 0.2,
        "MOHECO avg yield {} vs fixed {}",
        moheco_yield / seeds.len() as f64,
        fixed_yield / seeds.len() as f64
    );
}

#[test]
fn optimizer_runs_on_example_2_as_well() {
    let problem = YieldProblem::new(TelescopicTwoStage::new());
    let optimizer = YieldOptimizer::new(MohecoConfig {
        max_generations: 3,
        ..tiny()
    });
    let mut rng = StdRng::seed_from_u64(202);
    let result = optimizer.run(&problem, &mut rng);
    assert_eq!(result.best_x.len(), 12);
    assert!(result.total_simulations > 0);
    assert!((0.0..=1.0).contains(&result.reported_yield));
}

#[test]
fn optimization_improves_over_the_initial_population() {
    let problem = YieldProblem::new(FoldedCascode::new());
    let optimizer = YieldOptimizer::new(MohecoConfig {
        max_generations: 8,
        ..tiny()
    });
    let mut rng = StdRng::seed_from_u64(303);
    let result = optimizer.run(&problem, &mut rng);
    let history = result.history();
    assert!(!history.is_empty());
    let first = history[0];
    let last = *history.last().expect("non-empty");
    assert!(
        last >= first,
        "best yield must not degrade: first {first}, last {last}"
    );
}

#[test]
fn reference_design_beats_random_designs_on_yield() {
    // Sanity link between the testbench and the yield problem: the
    // hand-crafted reference design has a much better yield than a random
    // corner of the design space.
    let problem = YieldProblem::new(FoldedCascode::new());
    let tb = problem.testbench();
    let reference = tb.reference_design();
    let lows: Vec<f64> = tb.bounds().iter().map(|b| b.0).collect();
    let mut rng = StdRng::seed_from_u64(404);
    let y_ref = problem.reference_yield(&reference, 800, &mut rng);
    let y_low = problem.reference_yield(&lows, 200, &mut rng);
    assert!(y_ref > y_low, "reference {y_ref} vs low-corner {y_low}");
    assert!(y_ref > 0.5);
}
