//! `moheco-scenarios` — the scenario registry and unified benchmark surface
//! of the MOHECO reproduction.
//!
//! The paper validates its method on two opamp testbenches. This crate turns
//! the repository into a *benchmarkable system*: a [`Scenario`] bundles a
//! [`Benchmark`] (circuit or synthetic) with registry metadata, and
//! [`all_scenarios`] exposes a fixed, ordered registry that the
//! `moheco-campaign` experiment runner and the CI baseline gate iterate
//! over:
//!
//! * the two paper circuits at multiple process-corner severities
//!   ([`moheco_analog::FoldedCascode::with_corner`] /
//!   [`moheco_analog::TelescopicTwoStage::with_corner`]), and
//! * synthetic analytic yield problems ([`synthetic::SyntheticBench`]) —
//!   quadratic feasibility, a rotated ill-conditioned ellipsoid, a
//!   multi-modal two-basin region, a moderate-yield linear wall and a 24-d
//!   stress case — whose true yield is computable in closed form
//!   ([`moheco_sampling::oracle`]), so estimator accuracy is *asserted*, not
//!   eyeballed.
//!
//! # Example
//!
//! ```
//! use moheco_scenarios::{find_scenario, Scenario};
//! use moheco_runtime::{Engine, EngineConfig};
//! use std::sync::Arc;
//!
//! let scenario = find_scenario("quadratic_feasibility").unwrap();
//! let problem = scenario.build(Arc::new(Engine::new(EngineConfig::default().with_workers(1))));
//! let x = problem.bench().reference_design();
//! let truth = problem.true_yield(&x).unwrap();
//! let outcomes = problem.outcomes(&x, 0, 2000);
//! let est = outcomes.iter().filter(|&&o| o > 0.5).count() as f64 / 2000.0;
//! assert!((est - truth).abs() < 0.05);
//! ```

#![warn(missing_docs)]

pub mod registry;
pub mod synthetic;

pub use registry::{all_scenarios, find_scenario, scenario_names, RegisteredScenario};
pub use synthetic::{MarginForm, SyntheticBench, SyntheticSpec};

use moheco::{Benchmark, YieldProblem};
use moheco_runtime::EvalEngine;
use std::sync::Arc;

/// One registered benchmark scenario: a name, its specifications, an
/// optional closed-form ground truth and a builder returning a
/// [`YieldProblem`] wired to an evaluation engine.
pub trait Scenario: Send + Sync {
    /// Registry name (unique, stable; used by `moheco-campaign --scenario`).
    fn name(&self) -> &str;

    /// One-line human-readable description.
    fn description(&self) -> &str;

    /// Names of the specifications the yield is defined over.
    fn spec_names(&self) -> Vec<String>;

    /// The benchmark itself (shared; cheap to clone the `Arc`).
    fn bench(&self) -> Arc<dyn Benchmark>;

    /// Number of design variables.
    fn dimension(&self) -> usize {
        self.bench().dimension()
    }

    /// Number of statistical (process-variation / noise) variables.
    fn statistical_dimension(&self) -> usize {
        self.bench().unit_dimension()
    }

    /// Whether [`Benchmark::true_yield`] returns a closed-form ground truth.
    fn has_true_yield(&self) -> bool {
        let bench = self.bench();
        let x = bench.reference_design();
        bench.true_yield(&x).is_some()
    }

    /// Warm-start designs for the optimizer's initial population.
    ///
    /// Circuit scenarios return their reference sizing — mirroring the
    /// paper's flow, where yield optimization starts from a nominally sized
    /// design — so that short CI-budget runs reach the yield-estimation
    /// phase even on circuits whose feasible region random sampling would
    /// take hundreds of generations to find (example 2). Synthetic scenarios
    /// return nothing: their feasible regions are reachable from scratch.
    fn warm_start(&self) -> Vec<Vec<f64>> {
        Vec::new()
    }

    /// Builds the yield problem for this scenario over the given engine.
    fn build(&self, engine: Arc<dyn EvalEngine>) -> YieldProblem<dyn Benchmark> {
        YieldProblem::from_bench(self.bench(), engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moheco_runtime::{Engine, EngineConfig};

    fn serial() -> Arc<dyn EvalEngine> {
        Arc::new(Engine::new(EngineConfig::default().with_workers(1)))
    }

    #[test]
    fn registry_has_at_least_eight_scenarios_with_unique_names() {
        let all = all_scenarios();
        assert!(all.len() >= 8, "only {} scenarios registered", all.len());
        let mut names = scenario_names();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate scenario names");
    }

    #[test]
    fn every_scenario_is_well_formed() {
        for s in all_scenarios() {
            let bench = s.bench();
            let x = bench.reference_design();
            assert_eq!(x.len(), s.dimension(), "{}", s.name());
            assert_eq!(bench.bounds().len(), s.dimension(), "{}", s.name());
            for (v, (lo, hi)) in x.iter().zip(bench.bounds()) {
                assert!(lo <= *v && *v <= hi, "{} reference out of bounds", s.name());
            }
            assert!(s.statistical_dimension() > 0, "{}", s.name());
            assert!(!s.spec_names().is_empty(), "{}", s.name());
            assert!(!s.description().is_empty(), "{}", s.name());
            // The reference design must be nominally feasible.
            let margins = bench.as_model().nominal(&x);
            assert!(
                margins.iter().all(|&m| m >= 0.0),
                "{} reference design infeasible: {margins:?}",
                s.name()
            );
            if let Some(truth) = bench.true_yield(&x) {
                assert!((0.0..=1.0).contains(&truth), "{} truth {truth}", s.name());
                assert!(truth > 0.5, "{} reference truth too low: {truth}", s.name());
            }
        }
    }

    #[test]
    fn both_scenario_families_are_present() {
        let all = all_scenarios();
        let with_truth = all.iter().filter(|s| s.has_true_yield()).count();
        let without = all.len() - with_truth;
        assert!(with_truth >= 4, "need >= 4 analytic scenarios");
        assert!(without >= 4, "need >= 4 circuit scenarios");
    }

    /// `YieldProblem::reference_yield` runs each 2 000-sample chunk as one
    /// `simulate_block` call; it must count exactly the passes of the
    /// scalar `simulate_point` loop over the same stream. 2 500 samples
    /// make one full chunk and one partial chunk.
    #[test]
    fn reference_yield_matches_the_scalar_loop() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const N: usize = 2_500;
        let scalar = |problem: &YieldProblem<dyn Benchmark>, x: &[f64], seed: u64| {
            let (dim, plan) = (
                problem.bench().unit_dimension(),
                problem.engine().config().plan,
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let passes: usize = [2_000, N - 2_000]
                .into_iter()
                .flat_map(|m| plan.generate_flat(&mut rng, m, dim))
                .collect::<Vec<f64>>()
                .chunks_exact(dim)
                .filter(|u| problem.bench().as_model().simulate_point(x, u) > 0.5)
                .count();
            passes as f64 / N as f64
        };
        let mut design_rng = StdRng::seed_from_u64(11);
        for name in ["folded_cascode", "telescopic", "margin_wall"] {
            let problem = find_scenario(name).unwrap().build(serial());
            let reference = problem.bench().reference_design();
            let perturbed: Vec<f64> = (reference.iter().zip(problem.bounds()))
                .map(|(&r, (lo, hi))| {
                    (r * (1.0 + 0.4 * (design_rng.gen::<f64>() - 0.5))).clamp(lo, hi)
                })
                .collect();
            for (i, x) in [reference, perturbed].iter().enumerate() {
                let seed = 0xACC0 + i as u64;
                let block = problem.reference_yield(x, N, &mut StdRng::seed_from_u64(seed));
                assert_eq!(
                    block.to_bits(),
                    scalar(&problem, x, seed).to_bits(),
                    "{name} {i}"
                );
                assert!(0.0 < block && block < 1.0, "{name} design {i}: {block}");
            }
            assert_eq!(
                problem.simulations(),
                0,
                "{name}: reference MC is uncounted"
            );
        }
    }

    #[test]
    fn corner_scenarios_share_structure_with_their_nominal_circuit() {
        let nominal = find_scenario("folded_cascode").unwrap();
        let harsh = find_scenario("folded_cascode_harsh").unwrap();
        assert_eq!(nominal.dimension(), harsh.dimension());
        assert_eq!(
            nominal.statistical_dimension(),
            harsh.statistical_dimension()
        );
        assert_eq!(nominal.spec_names(), harsh.spec_names());
        // But the benchmarks carry distinct names (distinct cache identities).
        assert_ne!(nominal.bench().name(), harsh.bench().name());
    }

    #[test]
    fn find_scenario_roundtrips_every_name() {
        for name in scenario_names() {
            let s = find_scenario(&name).expect("registered name must resolve");
            assert_eq!(s.name(), name);
        }
        assert!(find_scenario("no_such_scenario").is_none());
    }

    #[test]
    fn build_wires_the_problem_to_the_engine() {
        let s = find_scenario("margin_wall").unwrap();
        let problem = s.build(serial());
        let x = problem.bench().reference_design();
        let rep = problem.feasibility(&x);
        assert!(rep.is_feasible());
        assert_eq!(problem.simulations(), 1);
        assert_eq!(problem.dimension(), 4);
    }
}
