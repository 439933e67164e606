//! `moheco-obs` — structured span tracing, phase budget attribution, and
//! metrics exposition for the MOHECO reproduction.
//!
//! The paper's whole contribution is *where the simulation budget goes*
//! (OCBA allocation vs. memetic search phases), so this crate provides the
//! telemetry substrate the rest of the workspace threads through its
//! engine/optimizer/campaign layers:
//!
//! * [`Tracer`] / [`Span`] — a lightweight hierarchical span API. Phases are
//!   named like paths (`optimize/estimation/stage1/ocba_round`); entering a
//!   span is an RAII guard ([`Span::enter`]) on the orchestration thread, and
//!   every simulation, cache hit and eviction observed through the installed
//!   counter [`probe`](Tracer::set_probe) is attributed to the **innermost
//!   active phase** at the moment it happens.
//! * [`Collector`] — the pluggable event sink. [`NoopCollector`] (the
//!   default) discards events, [`MemoryCollector`] records them
//!   deterministically for tests, and [`JsonlCollector`] streams one flat
//!   JSON object per event to a file with timing fields segregated last —
//!   the same discipline the campaign rows use so gated digests stay
//!   bit-identical.
//! * [`PhaseBreakdown`] — the aggregated per-phase budget attribution
//!   (spans, simulations, cache hits, evictions, wall nanos), rendered as a
//!   self-time table or a text flamegraph by `moheco-profile`.
//! * [`json`] — the flat-JSON writer, string escaper, float format and
//!   parser behind every persisted or served record (campaign rows,
//!   baselines, `BENCH_*.json`, job specs and status bodies, events).
//! * [`prometheus`] — Prometheus-style text exposition helpers used by the
//!   campaign process to publish engine and phase counters.
//!
//! # Determinism rules
//!
//! Everything except wall-clock time is deterministic: phase paths, span
//! counts and counter deltas reproduce bit-identically across runs of the
//! same seed (parallel engines included — spans are entered on the
//! orchestration thread between engine batches, where the engine is
//! quiescent). Wall-nanos fields are *timing*: they must never enter gated
//! digests, campaign rows, or [`PhaseBreakdown::digest`]. A disabled tracer
//! (the default, [`Tracer::disabled`]) does nothing at all, so instrumented
//! code paths stay bit-identical to uninstrumented ones.
//!
//! # Example
//!
//! ```
//! use moheco_obs::{MemoryCollector, ProbeCounters, Span, Tracer};
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let sims = Arc::new(AtomicU64::new(0));
//! let collector = Arc::new(MemoryCollector::new());
//! let tracer = Tracer::new(collector.clone());
//! let probe_sims = sims.clone();
//! tracer.set_probe(move || ProbeCounters {
//!     simulations: probe_sims.load(Ordering::Relaxed),
//!     ..ProbeCounters::default()
//! });
//!
//! {
//!     let _run = Span::enter(&tracer, "run");
//!     sims.fetch_add(3, Ordering::Relaxed); // attributed to "run"
//!     let _inner = Span::enter(&tracer, "stage1/ocba_round");
//!     sims.fetch_add(7, Ordering::Relaxed); // attributed to the round
//! }
//!
//! let breakdown = tracer.breakdown();
//! assert_eq!(breakdown.total_simulations(), 10);
//! assert_eq!(breakdown.get("run/stage1/ocba_round").unwrap().simulations, 7);
//! ```

#![warn(missing_docs)]

mod breakdown;
mod collector;
pub mod json;
pub mod prometheus;
mod span;

pub use breakdown::{PhaseBreakdown, PhaseEntry};
pub use collector::{Collector, JsonlCollector, MemoryCollector, NoopCollector, RecordedEvent};
pub use span::{ProbeCounters, Span, SpanEvent, Tracer};
