//! `moheco-optim` — search-engine substrate of the MOHECO reproduction.
//!
//! MOHECO's search machinery combines several classical components, each of
//! which is provided (and unit-tested) here independently of the yield
//! problem so they can be reused and benchmarked on analytic test functions:
//!
//! * [`de`] — Differential Evolution (`DE/best/1/bin` and `DE/rand/1/bin`)
//!   with the paper's parameters (population 50, `F = CR = 0.8`). The
//!   mutation and crossover operators are exposed as free functions so the
//!   MOHECO core can drive its own generation loop.
//! * [`nelder_mead`](mod@nelder_mead) — the derivative-free simplex local search used as the
//!   memetic exploitation operator.
//! * [`constraints`] — Deb's selection-based feasibility rules.
//! * [`memetic`] — the adaptive DE + Nelder–Mead coupling (local search only
//!   on the best member, only after 5 stagnant generations).
//! * [`penalty`] — the penalty-function baseline the paper compares
//!   against.
//!
//! # Example
//!
//! ```
//! use moheco_optim::de::{DeConfig, DifferentialEvolution};
//! use moheco_optim::problem::{Evaluation, FnProblem};
//! use rand::SeedableRng;
//!
//! let mut sphere = FnProblem::new(3, vec![(-5.0, 5.0); 3], |x: &[f64]| {
//!     Evaluation::feasible(x.iter().map(|v| v * v).sum())
//! });
//! let de = DifferentialEvolution::new(DeConfig::default());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let result = de.run(&mut sphere, &mut rng);
//! assert!(result.best_objective() < 1e-2);
//! ```

#![warn(missing_docs)]

pub mod constraints;
pub mod de;
pub mod filter;
pub mod memetic;
pub mod nelder_mead;
pub mod penalty;
pub mod population;
pub mod problem;
pub mod result;

pub use constraints::{aggregate_violations, best_index, feasibility_compare, is_better_or_equal};
pub use de::{de_crossover, de_mutant, DeConfig, DeStrategy, DifferentialEvolution};
pub use filter::{AdmitAll, TrialFilter};
pub use memetic::{MemeticConfig, MemeticOptimizer, StagnationTracker};
pub use nelder_mead::{nelder_mead, NelderMeadConfig, NelderMeadResult};
pub use penalty::PenaltyProblem;
pub use population::{Individual, Population};
pub use problem::{clamp_to_bounds, random_point, Evaluation, FnProblem, Problem};
pub use result::OptimizationResult;
