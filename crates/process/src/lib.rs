//! `moheco-process` — process-variation substrate for the MOHECO reproduction.
//!
//! The MOHECO paper optimizes yield under *inter-die* (die-to-die) and
//! *intra-die* (device mismatch) process variations drawn from foundry
//! statistical models. Those models are proprietary, so this crate provides a
//! synthetic but realistically structured replacement:
//!
//! * [`technology`] — the two technology nodes of the paper with exactly the
//!   same statistical dimensionality (20 inter-die variables for 0.35 µm,
//!   47 for 90 nm, four mismatch variables per transistor).
//! * [`parameters`] — the inter-die parameters, their effects on the device
//!   models, and the Pelgrom mismatch model.
//! * [`sample`] — [`sample::ProcessSample`] (a ξ vector) and
//!   [`sample::ProcessSampler`], which draws independent normals directly
//!   (Box–Muller) or maps unit-hypercube points from a design-of-experiments
//!   generator through the standard normal quantile, scaling each inter-die
//!   value by its sigma.
//!
//! # Example
//!
//! ```
//! use moheco_process::{ProcessSampler, tech_035um};
//! use rand::SeedableRng;
//!
//! let sampler = ProcessSampler::new(tech_035um(), 15);
//! assert_eq!(sampler.dimension(), 80); // as in the paper's example 1
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let xi = sampler.sample(&mut rng);
//! assert_eq!(xi.inter.len(), 20);
//! assert_eq!(xi.intra.len(), 15);
//!
//! // A unit-cube point maps coordinate by coordinate: its centre is nominal.
//! let centre = sampler.from_unit_point(&[0.5; 80]);
//! assert_eq!(centre, sampler.nominal());
//! ```

#![warn(missing_docs)]

pub mod parameters;
pub mod sample;
pub mod technology;

pub use parameters::{InterDieEffect, InterDieParameter, MismatchModel, MISMATCH_COMPONENTS};
pub use sample::{ProcessSample, ProcessSampler};
pub use technology::{tech_035um, tech_90nm, Technology};
