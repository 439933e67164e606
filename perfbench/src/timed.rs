//! Delegating timers around the public engine and model traits.
//!
//! [`TimedEngine`] wraps any [`EvalEngine`] and [`TimedModel`] wraps the
//! [`SimulationModel`] the engine is handed, so every number here is taken
//! at a trait boundary from outside the program crates. Both forward every
//! method to the inner object — including the batched `simulate_block` and
//! `importance_shift` overrides, which the traits' defaults would otherwise
//! silently replace — so a wrapped run produces the same bits as an
//! unwrapped one.

use moheco_obs::{Span, Tracer};
use moheco_runtime::{
    EngineConfig, EngineStatsSnapshot, EngineTiming, EvalEngine, McRequest, SimulationModel,
};
use moheco_sampling::{EstimatedYield, SimulationCounter};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Counters shared by every timer of one measured run. Statistics only:
/// relaxed atomics publish nothing else.
#[derive(Default)]
pub struct LayerStats {
    pub model_block_calls: AtomicU64,
    pub model_block_samples: AtomicU64,
    pub model_point_calls: AtomicU64,
    /// CPU-side busy time inside the model, summed over worker threads.
    pub model_busy_ns: AtomicU64,
    pub mc_calls: AtomicU64,
    pub mc_wall_ns: AtomicU64,
    pub samples_requested: AtomicU64,
    pub nominal_wall_ns: AtomicU64,
    pub estimate_calls: AtomicU64,
    pub estimate_ns: AtomicU64,
    /// Largest cache footprint seen at the end of a cell. The footprint
    /// only grows within a cell (or plateaus at the block bound), and
    /// measuring it walks the whole cache, so it is read once per cell.
    pub cache_bytes_peak: AtomicU64,
    /// Requested samples per Monte-Carlo batch, for the batch-size median.
    pub batch_samples: Mutex<Vec<u64>>,
}

fn add(counter: &AtomicU64, value: u64) {
    counter.fetch_add(value, Ordering::Relaxed);
}

pub fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

fn nanos_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// A [`SimulationModel`] that times every call into the inner model.
pub struct TimedModel<'a> {
    inner: &'a dyn SimulationModel,
    stats: &'a LayerStats,
}

impl<'a> TimedModel<'a> {
    pub fn new(inner: &'a dyn SimulationModel, stats: &'a LayerStats) -> Self {
        Self { inner, stats }
    }
}

impl SimulationModel for TimedModel<'_> {
    fn unit_dimension(&self) -> usize {
        self.inner.unit_dimension()
    }

    fn simulate_point(&self, x: &[f64], u: &[f64]) -> f64 {
        let start = Instant::now();
        let outcome = self.inner.simulate_point(x, u);
        add(&self.stats.model_busy_ns, nanos_since(start));
        add(&self.stats.model_point_calls, 1);
        outcome
    }

    fn simulate_block(&self, x: &[f64], us: &[Vec<f64>], out: &mut [f64]) {
        let start = Instant::now();
        self.inner.simulate_block(x, us, out);
        add(&self.stats.model_busy_ns, nanos_since(start));
        add(&self.stats.model_block_calls, 1);
        add(&self.stats.model_block_samples, us.len() as u64);
    }

    fn nominal(&self, x: &[f64]) -> Vec<f64> {
        let start = Instant::now();
        let margins = self.inner.nominal(x);
        add(&self.stats.model_busy_ns, nanos_since(start));
        margins
    }

    fn importance_shift(&self, x: &[f64]) -> Option<Vec<f64>> {
        self.inner.importance_shift(x)
    }
}

/// An [`EvalEngine`] that times the inner engine's dispatch calls, hands
/// the inner engine a [`TimedModel`], and wraps each dispatch call in an
/// `engine` span so the enclosing algorithm phase's self time excludes it.
pub struct TimedEngine {
    inner: Arc<dyn EvalEngine>,
    stats: Arc<LayerStats>,
    tracer: Tracer,
}

impl TimedEngine {
    pub fn new(inner: Arc<dyn EvalEngine>, stats: Arc<LayerStats>, tracer: Tracer) -> Self {
        Self {
            inner,
            stats,
            tracer,
        }
    }
}

impl EvalEngine for TimedEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn config(&self) -> &EngineConfig {
        self.inner.config()
    }

    fn mc_outcomes(&self, model: &dyn SimulationModel, requests: &[McRequest]) -> Vec<Vec<f64>> {
        let requested: u64 = requests.iter().map(|r| r.count as u64).sum();
        let _span = Span::enter(&self.tracer, "engine");
        let timed = TimedModel::new(model, &self.stats);
        let start = Instant::now();
        let outcomes = self.inner.mc_outcomes(&timed, requests);
        add(&self.stats.mc_wall_ns, nanos_since(start));
        add(&self.stats.mc_calls, 1);
        add(&self.stats.samples_requested, requested);
        self.stats
            .batch_samples
            .lock()
            .expect("batch-size log poisoned")
            .push(requested);
        outcomes
    }

    fn estimate(&self, outcomes: &[f64]) -> EstimatedYield {
        let _span = Span::enter(&self.tracer, "engine");
        let start = Instant::now();
        let estimate = self.inner.estimate(outcomes);
        add(&self.stats.estimate_ns, nanos_since(start));
        add(&self.stats.estimate_calls, 1);
        estimate
    }

    fn nominal_batch(&self, model: &dyn SimulationModel, designs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let _span = Span::enter(&self.tracer, "engine");
        let timed = TimedModel::new(model, &self.stats);
        let start = Instant::now();
        let margins = self.inner.nominal_batch(&timed, designs);
        add(&self.stats.nominal_wall_ns, nanos_since(start));
        margins
    }

    fn stats(&self) -> EngineStatsSnapshot {
        self.inner.stats()
    }

    fn timing(&self) -> EngineTiming {
        self.inner.timing()
    }

    fn simulations(&self) -> u64 {
        self.inner.simulations()
    }

    fn counter(&self) -> SimulationCounter {
        self.inner.counter()
    }

    fn reset(&self) {
        self.inner.reset()
    }

    fn reset_counters(&self) {
        self.inner.reset_counters()
    }

    fn reseed(&self, seed: u64) {
        self.inner.reseed(seed)
    }

    fn active_seed(&self) -> u64 {
        self.inner.active_seed()
    }

    fn cache_blocks(&self) -> usize {
        self.inner.cache_blocks()
    }

    fn cache_bytes(&self) -> usize {
        self.inner.cache_bytes()
    }

    fn enforce_cache_limit(&self, max_blocks: usize) -> u64 {
        self.inner.enforce_cache_limit(max_blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moheco_bench::{Algo, BudgetClass, EngineKind, RunSpec};
    use moheco_sampling::EstimatorKind;
    use moheco_scenarios::find_scenario;

    /// The row of one tiny memetic cell, on a plain engine or behind the
    /// timers and an aggregating tracer. The wrapped engine is built with
    /// another seed and reseeded through the wrapper, so the run only
    /// matches if `reseed` and `active_seed` reach the inner engine.
    fn row(scenario: &str, estimator: EstimatorKind, wrapped: bool) -> (String, Arc<LayerStats>) {
        let scenario = find_scenario(scenario).expect("registered scenario");
        let stats = Arc::new(LayerStats::default());
        let tracer = Tracer::aggregating();
        let run = RunSpec::new(scenario.as_ref(), Algo::Memetic)
            .budget(BudgetClass::Tiny)
            .seed(3);
        let run = if wrapped {
            let inner = EngineKind::Serial.build_configured(99, estimator);
            let engine = TimedEngine::new(inner, stats.clone(), tracer.clone());
            engine.reseed(3);
            run.engine(Arc::new(engine)).tracer(&tracer)
        } else {
            run.engine(EngineKind::Serial.build_configured(3, estimator))
        };
        (run.execute().to_jsonl_row(), stats)
    }

    #[test]
    fn wrapped_runs_reproduce_unwrapped_rows() {
        for (scenario, estimator) in [
            ("telescopic", EstimatorKind::MonteCarlo),
            ("margin_wall", EstimatorKind::MonteCarlo),
            // Importance sampling reads the model's shift (only the
            // synthetic scenarios define one): the rows only agree if the
            // timed model forwards it.
            ("margin_wall", EstimatorKind::ImportanceSampling),
        ] {
            let (plain, _) = row(scenario, estimator, false);
            let (timed, stats) = row(scenario, estimator, true);
            assert_eq!(plain, timed, "{scenario}: the timers changed the row");
            assert!(
                load(&stats.model_block_calls) > 0,
                "{scenario}: no block timed"
            );
            assert_eq!(
                load(&stats.model_point_calls),
                0,
                "{scenario}: blocks fell back to the scalar loop"
            );
        }
    }
}
