//! `moheco-sampling` — Monte-Carlo yield-estimation substrate.
//!
//! The paper keeps Monte-Carlo simulation as the yield estimator (for its
//! generality and accuracy) and accelerates it with two standard techniques
//! that this crate provides, alongside the estimator itself:
//!
//! * [`lhs`] — Latin Hypercube Sampling and primitive Monte-Carlo generation
//!   of unit-hypercube points ([`lhs::SamplingPlan`]).
//! * [`acceptance`] — the acceptance-sampling screen that skips Monte-Carlo
//!   sampling for candidates far from the acceptance-region border.
//! * [`yield_est`] — the Bernoulli yield estimate, standard errors and
//!   Wilson confidence intervals.
//! * [`estimator`] — the pluggable variance-reduction estimator layer
//!   ([`estimator::YieldEstimator`]): plain Monte-Carlo, stratified LHS,
//!   antithetic pairs and mean-shifted importance sampling, each with its
//!   own correct variance formula.
//! * [`oracle`] — closed-form yield oracles for analytic benchmarks (and the
//!   canonical standard-normal CDF / quantile approximations).
//! * [`stream`] — reproducible RNG streams and the shared simulation counter
//!   used to fill Tables 2 and 4.
//!
//! # Example
//!
//! ```
//! use moheco_sampling::{SamplingPlan, YieldEstimate};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let points = SamplingPlan::LatinHypercube.generate_flat(&mut rng, 2000, 2);
//! // A toy "circuit" passes when the sum of two uniform variates is below 1.5.
//! let passes = points.chunks_exact(2).filter(|u| u[0] + u[1] < 1.5).count();
//! let est = YieldEstimate::new(passes, 2000);
//! assert!((est.value() - 0.875).abs() < 0.03);
//! ```

#![warn(missing_docs)]

pub mod acceptance;
pub mod estimator;
pub mod lhs;
pub mod oracle;
pub mod stream;
pub mod yield_est;

pub use acceptance::{AcceptanceSampler, AsDecision};
pub use estimator::{
    weighted_outcome, AntitheticEstimator, BlockPoints, EstimatedYield, EstimatorKind,
    ImportanceSamplingEstimator, MonteCarloEstimator, StratifiedLhsEstimator, YieldEstimator, Z_95,
};
pub use lhs::SamplingPlan;
pub use oracle::{
    gaussian_margin_yield, independent_margins_yield, standard_normal_cdf,
    standard_normal_quantile, standard_normal_quantiles,
};
pub use stream::{splitmix64, RngStreams, SimulationCounter};
pub use yield_est::YieldEstimate;
