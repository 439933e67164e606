//! Differential suite for the engine's batched dispatch.
//!
//! Both engines now route every Monte-Carlo block through
//! [`SimulationModel::simulate_block`]. The contract is that this is pure
//! plumbing: outcomes, estimator weighting, RNG streams, cache keys, counters
//! and eviction behaviour must all be **bit-identical** to the scalar
//! `simulate_point` loop. This suite pits each benchmark against a wrapper
//! that hides the model's block override (forcing the trait's default scalar
//! loop) and asserts exact equality across all nine registry scenarios — the
//! four circuit scenarios exercise the real spicelite batch path — all four
//! estimators, and both engines, plus the bounded-cache eviction interaction.

use moheco::{Benchmark, CircuitBench};
use moheco_analog::FoldedCascode;
use moheco_runtime::{Engine, EngineConfig, EvalEngine, McRequest, SimulationModel};
use moheco_sampling::EstimatorKind;
use moheco_scenarios::all_scenarios;
use std::sync::Arc;

/// Forwards everything *except* `simulate_block`, so the trait's default
/// scalar loop runs even for models with a batched fast path. This is the
/// reference path every batched result is compared against.
struct ScalarizeModel<'a>(&'a dyn SimulationModel);

impl SimulationModel for ScalarizeModel<'_> {
    fn unit_dimension(&self) -> usize {
        self.0.unit_dimension()
    }
    fn simulate_point(&self, x: &[f64], u: &[f64]) -> f64 {
        self.0.simulate_point(x, u)
    }
    fn nominal(&self, x: &[f64]) -> Vec<f64> {
        self.0.nominal(x)
    }
    fn importance_shift(&self, x: &[f64]) -> Option<Vec<f64>> {
        self.0.importance_shift(x)
    }
}

fn engine(parallel: bool, kind: EstimatorKind, bounded: Option<usize>) -> Arc<dyn EvalEngine> {
    let mut config = EngineConfig::default().with_seed(42).with_estimator(kind);
    if let Some(max) = bounded {
        config = config.with_max_cached_blocks(max);
    }
    Arc::new(Engine::new(config.with_workers(if parallel {
        4
    } else {
        1
    })))
}

/// Multi-block, overlapping, misaligned request set over two designs: the
/// shapes the dedup/gather logic in the engines has to get right.
fn requests(bench: &dyn Benchmark) -> Vec<McRequest> {
    let a = bench.reference_design();
    let mut b = a.clone();
    let (lo, hi) = bench.bounds()[0];
    b[0] = lo + 0.6 * (hi - lo);
    vec![
        McRequest::new(a.clone(), 0, 120),
        McRequest::new(a, 60, 90), // overlaps the first request
        McRequest::new(b, 25, 60), // straddles a block boundary
    ]
}

fn assert_outcomes_bit_equal(batched: &[Vec<f64>], scalar: &[Vec<f64>], ctx: &str) {
    assert_eq!(batched.len(), scalar.len(), "{ctx}: request count");
    for (r, (ob, os)) in batched.iter().zip(scalar).enumerate() {
        assert_eq!(ob.len(), os.len(), "{ctx}: request {r} length");
        for (i, (vb, vs)) in ob.iter().zip(os).enumerate() {
            assert_eq!(
                vb.to_bits(),
                vs.to_bits(),
                "{ctx}: request {r} outcome {i}: batched {vb} vs scalar {vs}"
            );
        }
    }
}

#[test]
fn batched_dispatch_matches_scalar_loop_everywhere() {
    for scenario in all_scenarios() {
        let bench = scenario.bench();
        let reqs = requests(bench.as_ref());
        for kind in EstimatorKind::ALL {
            for parallel in [false, true] {
                let ctx = format!(
                    "{} / {:?} / {}",
                    scenario.name(),
                    kind,
                    if parallel { "parallel" } else { "serial" }
                );
                let eb = engine(parallel, kind, None);
                let es = engine(parallel, kind, None);
                let outs_b = eb.mc_outcomes(bench.as_model(), &reqs);
                let scalarized = ScalarizeModel(bench.as_model());
                let outs_s = es.mc_outcomes(&scalarized, &reqs);
                assert_outcomes_bit_equal(&outs_b, &outs_s, &ctx);
                assert_eq!(eb.simulations(), es.simulations(), "{ctx}: simulations");
                let (sb, ss) = (eb.stats(), es.stats());
                assert_eq!(sb.simulations_run, ss.simulations_run, "{ctx}: runs");
                assert_eq!(sb.mc_samples_served, ss.mc_samples_served, "{ctx}: served");
                assert_eq!(sb.cache_hits, ss.cache_hits, "{ctx}: cache hits");
            }
        }
    }
}

#[test]
fn repeated_requests_are_cache_served_identically() {
    // Second identical batch must come from the cache on both paths: same
    // outcomes, zero extra simulations.
    let bench = CircuitBench::new(FoldedCascode::new());
    let reqs = requests(&bench);
    let eb = engine(false, EstimatorKind::MonteCarlo, None);
    let es = engine(false, EstimatorKind::MonteCarlo, None);
    let first_b = eb.mc_outcomes(&bench, &reqs);
    let scalarized = ScalarizeModel(&bench);
    let first_s = es.mc_outcomes(&scalarized, &reqs);
    let (runs_b, runs_s) = (eb.stats().simulations_run, es.stats().simulations_run);
    let second_b = eb.mc_outcomes(&bench, &reqs);
    let second_s = es.mc_outcomes(&scalarized, &reqs);
    assert_outcomes_bit_equal(&first_b, &first_s, "first batch");
    assert_outcomes_bit_equal(&second_b, &second_s, "second batch");
    assert_eq!(first_b, second_b, "cache replay must be exact");
    assert_eq!(
        eb.stats().simulations_run,
        runs_b,
        "batched: no re-simulation"
    );
    assert_eq!(
        es.stats().simulations_run,
        runs_s,
        "scalar: no re-simulation"
    );
}

#[test]
fn bounded_cache_eviction_interacts_identically_with_batching() {
    // Satellite: a bounded cache forces evictions *between* batches; the
    // batched path must re-simulate exactly the same blocks with exactly the
    // same values, keeping the eviction counters in lockstep with the scalar
    // path.
    let bench = CircuitBench::new(FoldedCascode::new());
    let reference = Benchmark::reference_design(&bench);
    let designs: Vec<Vec<f64>> = (0..6)
        .map(|k| {
            let mut x = reference.clone();
            x[8] = 100.0 + 12.0 * k as f64;
            x
        })
        .collect();
    for parallel in [false, true] {
        let eb = engine(parallel, EstimatorKind::MonteCarlo, Some(2));
        let es = engine(parallel, EstimatorKind::MonteCarlo, Some(2));
        let scalarized = ScalarizeModel(&bench);
        for round in 0..2 {
            for (d, x) in designs.iter().enumerate() {
                let reqs = [McRequest::new(x.clone(), 0, 60)];
                let ob = eb.mc_outcomes(&bench, &reqs);
                let os = es.mc_outcomes(&scalarized, &reqs);
                let ctx = format!(
                    "{} round {round} design {d}",
                    if parallel { "parallel" } else { "serial" }
                );
                assert_outcomes_bit_equal(&ob, &os, &ctx);
            }
        }
        let (sb, ss) = (eb.stats(), es.stats());
        assert!(sb.evicted_blocks > 0, "bound of 2 must evict");
        assert_eq!(sb.evicted_blocks, ss.evicted_blocks, "eviction counters");
        assert_eq!(
            sb.simulations_run, ss.simulations_run,
            "re-simulation count"
        );
        assert_eq!(eb.cache_blocks(), es.cache_blocks(), "retained blocks");
    }
}
