//! `moheco` — the Memetic Ordinal-Optimization-based Hybrid Evolutionary
//! Constrained Optimization algorithm for analog yield optimization.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Liu, Fernández, Gielen, *DATE 2010*): a Monte-Carlo-based yield optimizer
//! that keeps the accuracy and generality of MC yield estimation while
//! spending roughly 7× fewer circuit simulations than a state-of-the-art
//! `AS + LHS` flow with a fixed per-candidate budget. The two key ideas:
//!
//! 1. **Two-stage yield estimation** ([`two_stage`]): within each generation,
//!    the simulation budget is distributed over the feasible candidates with
//!    the OCBA rule (stage 1, ranking only); candidates whose estimate
//!    exceeds 97 % are promoted to stage 2 and re-estimated with the maximum
//!    sample count.
//! 2. **Memetic search** ([`algorithm`]): Differential Evolution explores the
//!    sizing space; a short Nelder–Mead refinement of the best member fires
//!    only after five stagnant generations.
//!
//! The same [`algorithm::YieldOptimizer`] also implements the paper's
//! baselines (fixed-budget `AS + LHS`, and `OO + AS + LHS` without the
//! memetic operator) so that Tables 1–4 can be regenerated with a shared code
//! path.
//!
//! Every circuit simulation is dispatched through the evaluation engine of
//! the [`moheco_runtime`] crate (re-exported here as [`runtime`]): batches
//! run in parallel on a multi-worker [`runtime::Engine`] with bit-identical
//! results to the one-worker engine, repeated evaluations are served from the
//! engine cache, and the engine instrumentation is read from
//! [`YieldProblem::engine_stats`]. Construct a problem with
//! [`YieldProblem::with_engine`] to choose the engine.
//!
//! # Example
//!
//! ```no_run
//! use moheco::{MohecoConfig, YieldOptimizer, YieldProblem};
//! use moheco_analog::FoldedCascode;
//! use rand::SeedableRng;
//!
//! let problem = YieldProblem::new(FoldedCascode::new());
//! let optimizer = YieldOptimizer::new(MohecoConfig::fast());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let result = optimizer.run(&problem, &mut rng);
//! println!(
//!     "best yield {:.1}% after {} simulations",
//!     100.0 * result.reported_yield,
//!     result.total_simulations
//! );
//! ```

#![warn(missing_docs)]

pub mod algorithm;
pub mod benchmark;
pub mod candidate;
pub mod config;
pub mod problem;
pub mod stats;
pub mod trace;
pub mod two_stage;

pub use moheco_runtime as runtime;

pub use algorithm::{RunResult, YieldOptimizer};
pub use benchmark::{Benchmark, CircuitBench};
pub use candidate::{best_candidate_index, Candidate};
pub use config::{MohecoConfig, YieldStrategy};
pub use problem::{FeasibilityReport, YieldProblem};
pub use stats::RunSummary;
pub use trace::{GenerationRecord, Trace};
pub use two_stage::{estimate_fixed_budget, estimate_two_stage};
