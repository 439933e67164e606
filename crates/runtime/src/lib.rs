//! `moheco-runtime` — the parallel, cached, deterministic
//! simulation-evaluation engine of the MOHECO reproduction.
//!
//! MOHECO's entire cost model is "number of circuit simulations": the paper's
//! contribution is spending ~7× fewer of them through two-stage OCBA yield
//! estimation. This crate is the layer that makes every *remaining*
//! simulation as cheap as the hardware allows. It owns all circuit-simulation
//! dispatch for the workspace:
//!
//! * [`engine::EvalEngine`] — the dispatch abstraction, implemented by
//!   [`engine::Engine`]. Its worker count ([`EngineConfig::workers`]) is the
//!   only dispatch knob: `1` runs in order on the calling thread with zero
//!   threads, anything else uses a work-stealing pool of `std::thread`
//!   workers (the build environment has no `rayon`, so the pool in [`pool`]
//!   plays its role).
//! * **Deterministic per-job RNG streams** — every Monte-Carlo outcome of a
//!   design is indexed. Outcomes are generated in fixed-size *blocks* whose
//!   RNG seed derives from `(engine seed, quantized design, block index)`
//!   alone, never from execution order. Parallel and serial execution
//!   therefore produce bit-identical yield estimates.
//! * [`cache`] — a concurrent simulation cache keyed by the quantized design
//!   point and the sample block, so repeated evaluations (elite carry-over,
//!   Nelder–Mead re-probes, stage-2 promotion re-estimates) are free.
//! * [`stats::EngineStats`] — instrumentation (simulations run, cache hits,
//!   batch sizes, busy wall time) surfaced by the core optimizer in its
//!   `Trace` / `RunResult`.
//!
//! # How simulations flow
//!
//! ```text
//!  YieldOptimizer / two_stage / OCBA loop / Nelder-Mead
//!        │  batches of McRequest { design, start, count }
//!        ▼
//!  Engine (workers = 1: inline, otherwise: pool)
//!        │  split into per-(design, block) tasks, deduplicated
//!        ▼
//!  SimCache ──hit──► outcomes already on file (free)
//!        │ miss
//!        ▼
//!  block RNG stream ─► unit points ─► SimulationModel::simulate_block
//!                                     (one call per task; the default
//!                                      loops simulate_point)
//! ```
//!
//! # Example
//!
//! ```
//! use moheco_runtime::{Engine, EngineConfig, EvalEngine, McRequest, SimulationModel};
//!
//! /// A toy "circuit": passes when the first coordinate of the process
//! /// sample is below the first design variable.
//! struct Toy;
//! impl SimulationModel for Toy {
//!     fn unit_dimension(&self) -> usize { 2 }
//!     fn simulate_point(&self, x: &[f64], u: &[f64]) -> f64 {
//!         if u[0] < x[0] { 1.0 } else { 0.0 }
//!     }
//!     fn nominal(&self, x: &[f64]) -> Vec<f64> { vec![x[0]] }
//! }
//!
//! let engine = Engine::new(EngineConfig::default().with_workers(1));
//! let req = McRequest::new(vec![0.8, 0.0], 0, 200);
//! let outcomes = engine.mc_outcomes(&Toy, std::slice::from_ref(&req));
//! let passes = outcomes[0].iter().filter(|&&o| o > 0.5).count();
//! assert!((passes as f64 / 200.0 - 0.8).abs() < 0.1);
//! // Re-requesting the same samples is free:
//! let before = engine.simulations();
//! engine.mc_outcomes(&Toy, std::slice::from_ref(&req));
//! assert_eq!(engine.simulations(), before);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod metrics;
pub mod model;
pub mod pool;
pub mod stats;

pub use cache::{design_key, Block, SimCache};
pub use engine::{Engine, EngineConfig, EvalEngine};
pub use metrics::{attach_engine_probe, render_pool_cache, render_prometheus, EngineCacheUsage};
pub use model::{McRequest, SimulationModel};
pub use stats::{EngineStats, EngineStatsSnapshot, EngineTiming};
