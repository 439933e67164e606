//! The circuit-testbench abstraction used by the yield optimizer.
//!
//! A testbench owns everything the optimizer needs to know about a benchmark
//! circuit: the design-variable space, the technology (statistical model),
//! the specification set, and the mapping
//! `(design x, process sample ξ) → performances`.

use crate::specs::{AmplifierPerformance, SpecSet};
use moheco_process::{ProcessSample, Technology};

/// One design variable (a transistor dimension, a bias current, …).
#[derive(Debug, Clone, PartialEq)]
pub struct DesignVariable {
    /// Human-readable name (e.g. `"w_in"`).
    pub name: String,
    /// Lower bound in `unit`.
    pub lo: f64,
    /// Upper bound in `unit`.
    pub hi: f64,
    /// Unit string for reports (e.g. `"um"`, `"uA"`, `"pF"`).
    pub unit: &'static str,
}

impl DesignVariable {
    /// Creates a design variable.
    ///
    /// # Panics
    ///
    /// Panics if `hi <= lo`.
    pub fn new(name: impl Into<String>, lo: f64, hi: f64, unit: &'static str) -> Self {
        assert!(hi > lo, "design variable bounds must satisfy hi > lo");
        Self {
            name: name.into(),
            lo,
            hi,
            unit,
        }
    }
}

/// A benchmark circuit with its evaluation map.
///
/// `Send + Sync` is a supertrait: testbenches play the role HSPICE plays in
/// the paper, and the evaluation engine (`moheco-runtime`) dispatches them
/// from worker threads. Implementations are plain data + pure functions, so
/// this costs nothing.
pub trait Testbench: Send + Sync {
    /// Short identifier of the circuit (e.g. `"folded_cascode_035"`).
    fn name(&self) -> &str;

    /// The technology / statistical process model the circuit is designed in.
    fn technology(&self) -> &Technology;

    /// Number of transistors (defines the intra-die mismatch dimension).
    fn num_devices(&self) -> usize;

    /// The design variables and their ranges.
    fn design_variables(&self) -> &[DesignVariable];

    /// The specification set.
    fn specs(&self) -> &SpecSet;

    /// A hand-crafted reference sizing known to meet the specifications at
    /// the nominal process point; used by examples, tests and as a sanity
    /// anchor for the optimizer.
    fn reference_design(&self) -> Vec<f64>;

    /// Evaluates the circuit performances for sizing `x` at process sample `xi`.
    fn evaluate(&self, x: &[f64], xi: &ProcessSample) -> AmplifierPerformance;

    /// Evaluates one sizing against a whole block of process samples.
    ///
    /// The default implementation loops [`Self::evaluate`]; circuits whose
    /// evaluation is dominated by a repeated linear solve override it with a
    /// batched fast path (shared symbolic factorization, SIMD lanes). Any
    /// override MUST be *bit-identical* to the default loop — sample `i` of
    /// the returned vector must equal `self.evaluate(x, &xis[i])` exactly,
    /// including every failure case. The `batch_equivalence` integration
    /// suite enforces this for the shipped benchmarks.
    fn evaluate_block(&self, x: &[f64], xis: &[ProcessSample]) -> Vec<AmplifierPerformance> {
        xis.iter().map(|xi| self.evaluate(x, xi)).collect()
    }

    /// Writes the pass/fail outcome of sizing `x` at every sample of a block:
    /// `out[i]` is `1.0` when `self.specs().all_met(&self.evaluate(x,
    /// &xis[i]))` holds and `0.0` otherwise, failed evaluations included.
    ///
    /// The default judges [`Self::evaluate_block`]. An override may skip work
    /// the verdict cannot depend on (the benchmark circuits skip the AC sweep
    /// of a sample an analytic specification already fails), but MUST keep
    /// this contract exactly.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != xis.len()`.
    fn outcome_block(&self, x: &[f64], xis: &[ProcessSample], out: &mut [f64]) {
        assert_eq!(xis.len(), out.len(), "outcome buffer must match the block");
        for (o, perf) in out.iter_mut().zip(self.evaluate_block(x, xis)) {
            *o = if self.specs().all_met(&perf) {
                1.0
            } else {
                0.0
            };
        }
    }

    /// Box bounds of the design space, in design-variable order.
    fn bounds(&self) -> Vec<(f64, f64)> {
        self.design_variables()
            .iter()
            .map(|v| (v.lo, v.hi))
            .collect()
    }

    /// Number of design variables.
    fn dimension(&self) -> usize {
        self.design_variables().len()
    }

    /// Evaluates the circuit at the nominal (variation-free) process point.
    fn evaluate_nominal(&self, x: &[f64]) -> AmplifierPerformance {
        let xi = ProcessSample::nominal(self.technology().num_inter_die(), self.num_devices());
        self.evaluate(x, &xi)
    }

    /// Normalised nominal specification margins of sizing `x` (used by the
    /// acceptance-sampling screen).
    fn nominal_margins(&self, x: &[f64]) -> Vec<f64> {
        let perf = self.evaluate_nominal(x);
        self.specs().margins(&perf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_variable_construction() {
        let v = DesignVariable::new("w_in", 10.0, 100.0, "um");
        assert_eq!((v.lo, v.hi), (10.0, 100.0));
        assert_eq!(v.unit, "um");
    }

    #[test]
    #[should_panic]
    fn inverted_bounds_panic() {
        let _ = DesignVariable::new("bad", 5.0, 1.0, "um");
    }
}
