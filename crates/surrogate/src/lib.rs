//! `moheco-surrogate` — the response-surface and worst-case baselines of
//! §3.4 of the MOHECO paper.
//!
//! * [`mlp`] / [`levenberg_marquardt`] — the backward-propagation neural
//!   network (20 hidden neurons in the paper) and its Levenberg–Marquardt
//!   trainer.
//! * [`rsb`] — the response-surface-based yield model trained on MOHECO
//!   trajectory data, used to reproduce the "RMS error is still ~7 % after 50
//!   iterations of training data" observation.
//! * [`pswcd`] — the performance-specific worst-case design screen, used to
//!   reproduce the over-design discussion (a design with high Monte-Carlo
//!   yield is rejected when each spec is checked at its own worst case).
//!
//! The response surface is an *offline* model only: §3.4 argues it is too
//! inaccurate to stand in for Monte-Carlo estimates inside the optimization
//! loop, so no optimizer consults it.
//!
//! # Example
//!
//! ```
//! use moheco_surrogate::{LmConfig, RsbYieldModel};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let pairs: Vec<(Vec<f64>, f64)> = (0..50)
//!     .map(|i| {
//!         let x = i as f64 / 50.0;
//!         (vec![x, 1.0 - x], (1.0 - x * x).max(0.0))
//!     })
//!     .collect();
//! let model = RsbYieldModel::fit(&pairs, 8, &LmConfig::default(), &mut rng)?;
//! assert!(model.predict(&[0.1, 0.9]) > 0.5);
//! # Ok::<(), moheco_surrogate::RsbError>(())
//! ```

#![warn(missing_docs)]

pub mod levenberg_marquardt;
pub mod mlp;
pub mod pswcd;
pub mod rsb;

pub use levenberg_marquardt::{sse, train, LmConfig, LmReport};
pub use mlp::Mlp;
pub use pswcd::{overdesign_comparison, pswcd_analyze, PswcdConfig, PswcdReport};
pub use rsb::{RsbError, RsbYieldModel};
