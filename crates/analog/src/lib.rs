//! `moheco-analog` — the benchmark analog circuits of the MOHECO paper.
//!
//! The paper evaluates MOHECO on two fully differential amplifiers sized under
//! process variation:
//!
//! * [`folded_cascode::FoldedCascode`] — example 1: a folded-cascode OTA in a
//!   0.35 µm / 3.3 V technology (15 transistors, 80 statistical variables,
//!   specs on gain, GBW, phase margin, output swing and power).
//! * [`telescopic::TelescopicTwoStage`] — example 2: a two-stage
//!   telescopic-cascode amplifier in a 90 nm / 1.2 V technology
//!   (19 transistors, 123 statistical variables, additionally constrained on
//!   area and input offset).
//!
//! Both circuits implement the [`testbench::Testbench`] trait: the yield
//! optimizer only sees the map `(design x, process sample ξ) → performances`,
//! exactly the role HSPICE plays in the paper. The evaluation combines the
//! square-law compact model and the MNA AC engine of the `spicelite` crate
//! with the statistical process models of `moheco-process`.
//!
//! # Example
//!
//! ```
//! use moheco_analog::{FoldedCascode, Testbench};
//!
//! let tb = FoldedCascode::new();
//! let perf = tb.evaluate_nominal(&tb.reference_design());
//! assert!(tb.specs().all_met(&perf));
//! ```

#![warn(missing_docs)]

pub(crate) mod batch_eval;
pub mod folded_cascode;
pub mod specs;
pub mod telescopic;
pub mod testbench;
pub mod variation_map;

pub use folded_cascode::FoldedCascode;
pub use specs::{AmplifierPerformance, SpecKind, SpecSet, SpecTarget, Specification};
pub use telescopic::TelescopicTwoStage;
pub use testbench::{DesignVariable, Testbench};
pub use variation_map::{
    bias_current_factor_from_shifts, inter_die_shifts, mismatch_deltas,
    perturbed_model_with_shifts, MismatchDeltas, PolarityShift,
};
