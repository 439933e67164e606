//! Engine instrumentation: what the runtime actually did.
//!
//! All counters are atomics so worker threads update them without
//! coordination; [`EngineStats::snapshot`] captures a consistent-enough view
//! for reporting (the engine is quiescent between batches, where snapshots
//! are taken).

use std::sync::atomic::{AtomicU64, Ordering};

/// Live atomic counters owned by an engine.
///
/// Executed-simulation counting lives in the engine's shared
/// `SimulationCounter` (a single source of truth); the snapshot's
/// `simulations_run` field is filled from it by the engine.
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Monte-Carlo samples served to callers (run + cache hits).
    mc_samples_served: AtomicU64,
    /// Nominal evaluations served to callers (run + cache hits).
    nominal_served: AtomicU64,
    /// Samples served without running a simulation.
    cache_hits: AtomicU64,
    /// Batches dispatched (Monte-Carlo + nominal).
    batches: AtomicU64,
    /// Monte-Carlo batches dispatched.
    mc_batches: AtomicU64,
    /// Per-(design, block) tasks executed.
    tasks: AtomicU64,
    /// Largest batch (in requested samples) seen so far.
    max_batch_samples: AtomicU64,
    /// Cache blocks evicted by the bounded-memory policy.
    evicted_blocks: AtomicU64,
    /// Wall-clock nanoseconds spent inside batch dispatch.
    busy_nanos: AtomicU64,
}

impl EngineStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_mc_batch(&self, samples_served: u64, tasks: u64, busy_nanos: u64) {
        self.mc_samples_served
            .fetch_add(samples_served, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.mc_batches.fetch_add(1, Ordering::Relaxed);
        self.tasks.fetch_add(tasks, Ordering::Relaxed);
        self.max_batch_samples
            .fetch_max(samples_served, Ordering::Relaxed);
        self.busy_nanos.fetch_add(busy_nanos, Ordering::Relaxed);
    }

    pub(crate) fn record_nominal_batch(&self, served: u64, busy_nanos: u64) {
        self.nominal_served.fetch_add(served, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.busy_nanos.fetch_add(busy_nanos, Ordering::Relaxed);
    }

    pub(crate) fn record_cache_hits(&self, n: u64) {
        self.cache_hits.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_evictions(&self, n: u64) {
        self.evicted_blocks.fetch_add(n, Ordering::Relaxed);
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.mc_samples_served.store(0, Ordering::Relaxed);
        self.nominal_served.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.batches.store(0, Ordering::Relaxed);
        self.mc_batches.store(0, Ordering::Relaxed);
        self.tasks.store(0, Ordering::Relaxed);
        self.max_batch_samples.store(0, Ordering::Relaxed);
        self.evicted_blocks.store(0, Ordering::Relaxed);
        self.busy_nanos.store(0, Ordering::Relaxed);
    }

    /// Captures the current counter values (`simulations_run` is filled in
    /// by the engine from its shared counter). Wall-clock timing is *not*
    /// part of the snapshot — see [`EngineStats::timing`].
    pub fn snapshot(&self) -> EngineStatsSnapshot {
        EngineStatsSnapshot {
            simulations_run: 0,
            mc_samples_served: self.mc_samples_served.load(Ordering::Relaxed),
            nominal_served: self.nominal_served.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            mc_batches: self.mc_batches.load(Ordering::Relaxed),
            tasks: self.tasks.load(Ordering::Relaxed),
            max_batch_samples: self.max_batch_samples.load(Ordering::Relaxed),
            evicted_blocks: self.evicted_blocks.load(Ordering::Relaxed),
        }
    }

    /// Captures the engine's wall-clock accounting.
    ///
    /// Timing lives in its own struct — deliberately segregated from
    /// [`EngineStatsSnapshot`], whose counter fields feed gated, baselined
    /// serializations that must stay bit-identical across machines. Nothing
    /// in [`EngineTiming`] may ever enter a digest or a baseline gate.
    pub fn timing(&self) -> EngineTiming {
        EngineTiming {
            busy_nanos: self.busy_nanos.load(Ordering::Relaxed),
        }
    }
}

/// Wall-clock accounting of an engine, split from [`EngineStatsSnapshot`]
/// so non-deterministic timing can never be gated on by accident.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineTiming {
    /// Wall-clock nanoseconds spent inside batch dispatch.
    pub busy_nanos: u64,
}

impl EngineTiming {
    /// Busy time in milliseconds.
    pub fn busy_ms(&self) -> f64 {
        self.busy_nanos as f64 / 1e6
    }
}

impl std::fmt::Display for EngineTiming {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1} ms busy", self.busy_ms())
    }
}

/// A point-in-time copy of [`EngineStats`], cheap to clone and embed in run
/// results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStatsSnapshot {
    /// Circuit simulations actually executed (Monte-Carlo + nominal).
    pub simulations_run: u64,
    /// Monte-Carlo samples served to callers (run + cache hits).
    pub mc_samples_served: u64,
    /// Nominal evaluations served to callers (run + cache hits).
    pub nominal_served: u64,
    /// Samples served straight from the cache.
    pub cache_hits: u64,
    /// Batches dispatched (Monte-Carlo + nominal).
    pub batches: u64,
    /// Monte-Carlo batches dispatched.
    pub mc_batches: u64,
    /// Per-(design, block) tasks executed.
    pub tasks: u64,
    /// Largest batch (in requested samples) dispatched.
    pub max_batch_samples: u64,
    /// Cache blocks evicted under [`crate::EngineConfig::max_cached_blocks`]
    /// (0 on unbounded engines).
    pub evicted_blocks: u64,
}

impl EngineStatsSnapshot {
    /// Fraction of served work (samples + nominals) answered by the cache.
    pub fn hit_rate(&self) -> f64 {
        let served = self.mc_samples_served + self.nominal_served;
        if served == 0 {
            0.0
        } else {
            self.cache_hits as f64 / served as f64
        }
    }

    /// Accumulates another snapshot into this one: every counter is summed
    /// except `max_batch_samples`, which is a high-water mark and takes the
    /// maximum. Used by campaign totals and the service's per-tenant /
    /// pool-wide accounting.
    pub fn absorb(&mut self, other: &EngineStatsSnapshot) {
        self.simulations_run += other.simulations_run;
        self.mc_samples_served += other.mc_samples_served;
        self.nominal_served += other.nominal_served;
        self.cache_hits += other.cache_hits;
        self.batches += other.batches;
        self.mc_batches += other.mc_batches;
        self.tasks += other.tasks;
        self.max_batch_samples = self.max_batch_samples.max(other.max_batch_samples);
        self.evicted_blocks += other.evicted_blocks;
    }

    /// Stable `(name, value)` pairs of every counter field, in schema order.
    ///
    /// This is the single source of the snapshot's serialized shape: every
    /// flat-JSON record that carries engine counters (campaign rows, the
    /// `engine_throughput` bench record) writes these pairs under an
    /// `engine_` prefix, so no record can drift from the counter set
    /// silently. Every field here is deterministic; wall-clock timing lives
    /// in [`EngineTiming`] and is serialized separately (never gated).
    pub fn counter_fields(&self) -> [(&'static str, u64); 9] {
        [
            ("simulations_run", self.simulations_run),
            ("mc_samples_served", self.mc_samples_served),
            ("nominal_served", self.nominal_served),
            ("cache_hits", self.cache_hits),
            ("batches", self.batches),
            ("mc_batches", self.mc_batches),
            ("tasks", self.tasks),
            ("max_batch_samples", self.max_batch_samples),
            ("evicted_blocks", self.evicted_blocks),
        ]
    }
}

impl std::fmt::Display for EngineStatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} sims run, {} samples served ({:.1}% cached), {} batches, {} tasks",
            self.simulations_run,
            self.mc_samples_served,
            100.0 * self.hit_rate(),
            self.batches,
            self.tasks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let stats = EngineStats::new();
        stats.record_mc_batch(40, 3, 1_000);
        stats.record_mc_batch(20, 1, 500);
        stats.record_nominal_batch(8, 100);
        stats.record_cache_hits(50);
        let snap = stats.snapshot();
        assert_eq!(snap.mc_samples_served, 60);
        assert_eq!(snap.nominal_served, 8);
        assert_eq!(snap.cache_hits, 50);
        assert_eq!(snap.batches, 3);
        assert_eq!(snap.mc_batches, 2);
        assert_eq!(snap.tasks, 4);
        assert_eq!(snap.max_batch_samples, 40);
        assert_eq!(stats.timing().busy_nanos, 1_600);
        assert!((snap.hit_rate() - 50.0 / 68.0).abs() < 1e-12);
        stats.reset();
        assert_eq!(stats.snapshot(), EngineStatsSnapshot::default());
        assert_eq!(stats.timing(), EngineTiming::default());
    }

    #[test]
    fn timing_is_segregated_from_the_counter_schema() {
        let stats = EngineStats::new();
        stats.record_mc_batch(4, 1, 1_500_000);
        let snap = stats.snapshot();
        assert!(
            snap.counter_fields()
                .iter()
                .all(|(name, _)| !name.contains("nanos")),
            "wall-clock timing must never appear among gated counter fields"
        );
        let timing = stats.timing();
        assert_eq!(timing.busy_nanos, 1_500_000);
        assert!((timing.busy_ms() - 1.5).abs() < 1e-12);
        assert_eq!(timing.to_string(), "1.5 ms busy");
    }

    #[test]
    fn absorb_sums_counters_and_maxes_the_high_water_mark() {
        let a = EngineStats::new();
        a.record_mc_batch(40, 3, 0);
        a.record_cache_hits(5);
        let b = EngineStats::new();
        b.record_mc_batch(20, 1, 0);
        b.record_nominal_batch(8, 0);
        b.record_evictions(2);
        let mut total = a.snapshot();
        total.absorb(&b.snapshot());
        assert_eq!(total.mc_samples_served, 60);
        assert_eq!(total.nominal_served, 8);
        assert_eq!(total.cache_hits, 5);
        assert_eq!(total.batches, 3);
        assert_eq!(total.mc_batches, 2);
        assert_eq!(total.tasks, 4);
        assert_eq!(total.max_batch_samples, 40, "high-water mark, not a sum");
        assert_eq!(total.evicted_blocks, 2);
    }

    #[test]
    fn empty_snapshot_rates_are_zero() {
        let snap = EngineStatsSnapshot::default();
        assert_eq!(snap.hit_rate(), 0.0);
    }
}
