//! The benchmark abstraction that generalizes yield optimization beyond the
//! two hard-coded circuits of the paper.
//!
//! A [`Benchmark`] is anything the optimizer can run on: it extends the
//! engine-facing [`SimulationModel`] (pass/fail Monte-Carlo outcomes plus
//! nominal margins) with the design-space description the search layer needs
//! (bounds, dimension, a reference design) and an optional closed-form
//! ground-truth yield. Two families implement it:
//!
//! * [`CircuitBench`] adapts any `moheco-analog` [`Testbench`] (a circuit +
//!   its statistical process model) — this is the paper's setting.
//! * The synthetic analytic benchmarks of the `moheco-scenarios` crate
//!   implement it directly, with [`Benchmark::true_yield`] returning the
//!   exact yield so estimator accuracy can be asserted in tests and CI.
//!
//! [`YieldProblem`](crate::YieldProblem) is generic over `B: Benchmark +
//! ?Sized`, so heterogeneous collections (the scenario registry) can use
//! `YieldProblem<dyn Benchmark>` while the monomorphic circuit paths keep
//! their static dispatch.

use moheco_analog::Testbench;
use moheco_process::{ProcessSample, ProcessSampler};
use moheco_runtime::SimulationModel;
use std::cell::Cell;

/// A yield-optimization benchmark: an engine-dispatchable simulation model
/// plus its design-space description.
pub trait Benchmark: SimulationModel {
    /// Short identifier of the benchmark (unique within a registry).
    fn name(&self) -> &str;

    /// Number of design variables.
    fn dimension(&self) -> usize;

    /// Box bounds of the design space, in design-variable order.
    fn bounds(&self) -> Vec<(f64, f64)>;

    /// A reference design known to be feasible at the nominal statistical
    /// point; used as a sanity anchor by tests and examples.
    fn reference_design(&self) -> Vec<f64>;

    /// The exact yield of design `x`, when the benchmark admits a closed
    /// form (synthetic analytic benchmarks). Circuits return `None`.
    fn true_yield(&self, _x: &[f64]) -> Option<f64> {
        None
    }

    /// View of the benchmark as the engine's simulation-model interface.
    ///
    /// Implementations are always `fn as_model(&self) -> &dyn SimulationModel
    /// { self }`; the method exists because generic code over `B: Benchmark +
    /// ?Sized` cannot coerce `&B` to `&dyn SimulationModel` itself.
    fn as_model(&self) -> &dyn SimulationModel;
}

thread_local! {
    /// The process samples [`CircuitBench::simulate_block`] maps a block
    /// into, reused across blocks, designs and circuits on this thread.
    static SAMPLES: Cell<Vec<ProcessSample>> = const { Cell::new(Vec::new()) };
}

/// Adapter exposing a circuit [`Testbench`] + matched [`ProcessSampler`] pair
/// as a [`Benchmark`].
///
/// The statistical space is the testbench technology's unit hypercube: a
/// Monte-Carlo point `u` is mapped through the sampler to a process sample
/// `ξ`, the circuit is evaluated at `(x, ξ)` and the outcome is the pass/fail
/// indicator of the specification set.
pub struct CircuitBench<T> {
    testbench: T,
    sampler: ProcessSampler,
}

impl<T: Testbench> CircuitBench<T> {
    /// Wraps a testbench, deriving the process sampler from its technology
    /// and device count.
    pub fn new(testbench: T) -> Self {
        let sampler = ProcessSampler::new(testbench.technology().clone(), testbench.num_devices());
        Self { testbench, sampler }
    }

    /// The underlying testbench.
    pub fn testbench(&self) -> &T {
        &self.testbench
    }

    /// The process sampler matched to the testbench.
    pub fn sampler(&self) -> &ProcessSampler {
        &self.sampler
    }
}

impl<T: Testbench> SimulationModel for CircuitBench<T> {
    fn unit_dimension(&self) -> usize {
        self.sampler.dimension()
    }

    fn simulate_point(&self, x: &[f64], u: &[f64]) -> f64 {
        let xi = self.sampler.from_unit_point(u);
        let perf = self.testbench.evaluate(x, &xi);
        if self.testbench.specs().all_met(&perf) {
            1.0
        } else {
            0.0
        }
    }

    fn simulate_block(&self, x: &[f64], us: &[Vec<f64>], out: &mut [f64]) {
        assert_eq!(us.len(), out.len(), "outcome buffer must match the block");
        // Taken out of the thread's slot rather than borrowed, so a testbench
        // that re-enters a benchmark on this thread gets samples of its own.
        let mut xis = SAMPLES.take();
        if xis.len() < us.len() {
            xis.resize_with(us.len(), || self.sampler.nominal());
        }
        for (u, xi) in us.iter().zip(&mut xis) {
            self.sampler.from_unit_point_into(u, xi);
        }
        self.testbench.outcome_block(x, &xis[..us.len()], out);
        SAMPLES.set(xis);
    }

    fn nominal(&self, x: &[f64]) -> Vec<f64> {
        self.testbench.nominal_margins(x)
    }
}

impl<T: Testbench> Benchmark for CircuitBench<T> {
    fn name(&self) -> &str {
        self.testbench.name()
    }

    fn dimension(&self) -> usize {
        self.testbench.dimension()
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        self.testbench.bounds()
    }

    fn reference_design(&self) -> Vec<f64> {
        self.testbench.reference_design()
    }

    fn as_model(&self) -> &dyn SimulationModel {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moheco_analog::FoldedCascode;
    use std::sync::Arc;

    #[test]
    fn circuit_bench_mirrors_its_testbench() {
        let bench = CircuitBench::new(FoldedCascode::new());
        let tb = FoldedCascode::new();
        assert_eq!(Benchmark::name(&bench), tb.name());
        assert_eq!(Benchmark::dimension(&bench), tb.dimension());
        assert_eq!(Benchmark::bounds(&bench), tb.bounds());
        assert_eq!(bench.reference_design(), tb.reference_design());
        assert_eq!(bench.unit_dimension(), 80);
        assert!(bench.true_yield(&tb.reference_design()).is_none());
    }

    #[test]
    fn nominal_point_passes_for_the_reference_design() {
        let bench = CircuitBench::new(FoldedCascode::new());
        let x = bench.reference_design();
        // The exact centre of the unit hypercube maps to the nominal sample.
        let u = vec![0.5; bench.unit_dimension()];
        assert_eq!(bench.simulate_point(&x, &u), 1.0);
        assert!(bench.nominal(&x).iter().all(|&m| m >= 0.0));
    }

    #[test]
    fn simulate_block_matches_simulate_point_on_both_circuits() {
        use moheco_analog::TelescopicTwoStage;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        fn check<T: Testbench>(bench: &CircuitBench<T>, seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let reference = bench.reference_design();
            let mut outcomes = [0usize; 2];
            for d in 0..30 {
                let x: Vec<f64> = reference
                    .iter()
                    .zip(bench.bounds())
                    .map(|(&r, (lo, hi))| {
                        (r * (1.0 + 0.4 * (2.0 * rng.gen::<f64>() - 1.0))).clamp(lo, hi)
                    })
                    .collect();
                let n = 1 + (d * 7) % 20;
                let us: Vec<Vec<f64>> = (0..n)
                    .map(|_| {
                        (0..bench.unit_dimension())
                            .map(|_| {
                                if rng.gen::<f64>() < 0.05 {
                                    0.5
                                } else {
                                    rng.gen()
                                }
                            })
                            .collect()
                    })
                    .collect();
                let mut out = vec![f64::NAN; n];
                bench.simulate_block(&x, &us, &mut out);
                for (i, u) in us.iter().enumerate() {
                    let want = bench.simulate_point(&x, u);
                    assert_eq!(out[i], want, "{} design {d} sample {i}", bench.name());
                    outcomes[want as usize] += 1;
                }
            }
            assert!(outcomes[0] > 0 && outcomes[1] > 0, "{outcomes:?}");
        }
        check(&CircuitBench::new(FoldedCascode::new()), 3);
        check(&CircuitBench::new(TelescopicTwoStage::new()), 4);
    }

    #[test]
    fn works_behind_dyn_dispatch() {
        let bench: Arc<dyn Benchmark> = Arc::new(CircuitBench::new(FoldedCascode::new()));
        assert_eq!(bench.dimension(), 10);
        let x = bench.reference_design();
        assert_eq!(bench.as_model().nominal(&x).len(), 6); // 5 specs + saturation
    }
}
