//! `moheco-ocba` — ordinal optimization and optimal computing budget
//! allocation.
//!
//! MOHECO's first stage treats each population of feasible circuit sizings as
//! an ordinal-optimization problem: the Monte-Carlo yield of every candidate
//! is estimated just accurately enough to *rank* them, with the simulation
//! budget distributed by the OCBA asymptotic rule (Eq. (1) of the paper, from
//! Chen et al. 2000) so that promising candidates receive many samples and
//! clearly bad candidates receive few.
//!
//! * [`allocation`] — the OCBA rule itself ([`allocation::allocate`]).
//! * [`arms`] — the rule's incremental form over abstract arms
//!   (mean/variance/count/cap), which tops up arms already partially
//!   simulated; used by both the sequential design loop and the campaign
//!   scheduler.
//! * [`sequential`] — the `n0`-then-`Δ`-increments loop used inside one
//!   MOHECO generation ([`sequential::run_sequential_batched`]).
//!
//! # Example
//!
//! ```
//! use moheco_ocba::allocation::allocate;
//!
//! // Four candidate designs with estimated yields and per-sample variances.
//! let means = [0.92, 0.88, 0.45, 0.20];
//! let variances = [0.07, 0.10, 0.25, 0.16];
//! let alloc = allocate(&means, &variances, 140)?;
//! assert_eq!(alloc.iter().sum::<usize>(), 140);
//! // The runner-up close to the best receives more budget than the stragglers.
//! assert!(alloc[1] > alloc[3]);
//! # Ok::<(), moheco_ocba::allocation::OcbaError>(())
//! ```

#![warn(missing_docs)]

pub mod allocation;
pub mod arms;
pub mod sequential;

pub use allocation::{allocate, OcbaError};
pub use arms::{allocate_arm_increment, Arm};
pub use sequential::{run_sequential_batched, RunningStats, SequentialConfig, SequentialOutcome};
