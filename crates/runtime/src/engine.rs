//! The evaluation engine: dispatch over the shared block cache with
//! deterministic per-block RNG streams.
//!
//! A batch of [`McRequest`]s is split into per-`(design, block)` tasks
//! (deduplicated and merged, so one block is touched by exactly one task per
//! batch), the tasks are executed — inline at one worker, on the
//! work-stealing pool otherwise — and the outcomes are assembled back in
//! request order. Because a block's unit points are a pure function of
//! `(engine seed, quantized design, block index)` and outcomes are cached per
//! sample index, the *values* returned and the *number of simulations
//! executed* are identical regardless of execution order: every worker count
//! gives bit-identical runs.

use crate::cache::{design_key, Block, SimCache};
use crate::model::{McRequest, SimulationModel};
use crate::pool;
use crate::stats::{EngineStats, EngineStatsSnapshot, EngineTiming};
use moheco_sampling::{
    splitmix64, weighted_outcome, EstimatedYield, EstimatorKind, RngStreams, SamplingPlan,
    SimulationCounter, YieldEstimator,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Master seed of every per-block RNG stream. Two engines with the same
    /// seed produce identical sample streams for identical designs.
    pub seed: u64,
    /// Sampling plan used to generate each block of unit points.
    pub plan: SamplingPlan,
    /// Samples per cache block. Latin-Hypercube stratification applies
    /// *within* a block, so this is also the LHS stratum count: an estimate
    /// spanning k blocks is k independent `block_size`-stratum LHS designs,
    /// not one big one. Smaller blocks give finer cache granularity and more
    /// intra-design parallelism; larger blocks give stronger stratification
    /// per estimate. The default (50) sits between the paper's stage-1
    /// budgets (~15-35 samples, which a bigger block would under-stratify)
    /// and `n_max` (500).
    pub block_size: usize,
    /// Worker threads of the engine: `1` runs every batch inline on the
    /// calling thread (the "serial" engine), `0` uses the machine's
    /// available parallelism and `n > 1` uses `n` pool threads (both
    /// "parallel"). Results are bit-identical at every worker count.
    pub workers: usize,
    /// The variance-reduction estimator shaping every block of the sample
    /// streams (see `moheco_sampling::estimator`). The default
    /// ([`EstimatorKind::MonteCarlo`]) reproduces the pre-estimator streams
    /// bit for bit.
    pub estimator: EstimatorKind,
    /// Upper bound on retained cache blocks (`0` = unbounded, the default).
    /// When set, the engine sweeps the cache after every Monte-Carlo batch
    /// with a deterministic second-chance FIFO ([`SimCache::enforce_limit`])
    /// and trims the (much smaller) nominal-evaluation map to the same
    /// entry count after every nominal batch, so a bounded long-lived
    /// engine is bounded in *both* retention maps. Eviction only ever costs
    /// re-simulation — evicted blocks re-create bit-identically on the next
    /// request — so outcomes are unchanged and parallel == serial still
    /// holds (including the simulation counts, because the sweep order is
    /// independent of worker scheduling).
    pub max_cached_blocks: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            seed: 0x4D4F_4845, // "MOHE"
            plan: SamplingPlan::LatinHypercube,
            block_size: 50,
            workers: 0,
            estimator: EstimatorKind::MonteCarlo,
            max_cached_blocks: 0,
        }
    }
}

impl EngineConfig {
    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker count (`1` = inline, `0` = all cores).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the variance-reduction estimator.
    pub fn with_estimator(mut self, estimator: EstimatorKind) -> Self {
        self.estimator = estimator;
        self
    }

    /// Bounds the number of retained cache blocks (`0` = unbounded).
    pub fn with_max_cached_blocks(mut self, max: usize) -> Self {
        self.max_cached_blocks = max;
        self
    }

    /// Builds the estimator implementation matching this configuration
    /// (variance formulas are parameterized by the block size).
    pub fn build_estimator(&self) -> Box<dyn YieldEstimator> {
        self.estimator.build(self.block_size)
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero, or odd while the antithetic estimator
    /// is selected (a mirrored pair may never straddle two cache blocks).
    pub fn validate(&self) {
        assert!(self.block_size > 0, "block size must be positive");
        if self.estimator == EstimatorKind::Antithetic {
            assert!(
                self.block_size.is_multiple_of(2),
                "antithetic pairing requires an even block size"
            );
        }
    }
}

/// The simulation-dispatch abstraction every consumer in the workspace
/// routes circuit evaluations through.
pub trait EvalEngine: Send + Sync {
    /// Short human-readable name ("serial" / "parallel").
    fn name(&self) -> &'static str;

    /// The engine configuration.
    fn config(&self) -> &EngineConfig;

    /// Evaluates a batch of Monte-Carlo outcome requests, returning one
    /// outcome vector per request (same order). Outcomes are deterministic
    /// functions of `(engine seed, design, sample index)` and cached.
    fn mc_outcomes(&self, model: &dyn SimulationModel, requests: &[McRequest]) -> Vec<Vec<f64>>;

    /// Condenses outcome values (starting at sample index 0 of one design's
    /// stream) into a yield estimate with the engine's configured
    /// estimator — the same instance that shaped the blocks, so the variance
    /// formula always matches the sample layout.
    fn estimate(&self, outcomes: &[f64]) -> EstimatedYield;

    /// Evaluates a batch of designs at the nominal process point, returning
    /// the specification margins per design. Cached by design.
    fn nominal_batch(&self, model: &dyn SimulationModel, designs: &[Vec<f64>]) -> Vec<Vec<f64>>;

    /// Instrumentation snapshot (deterministic counters only).
    fn stats(&self) -> EngineStatsSnapshot;

    /// Wall-clock accounting, segregated from the gated counter snapshot.
    fn timing(&self) -> EngineTiming;

    /// Total circuit simulations executed so far (Monte-Carlo + nominal).
    fn simulations(&self) -> u64;

    /// A shared handle on the engine's simulation counter.
    fn counter(&self) -> SimulationCounter;

    /// Resets counters *and* the cache (used between experiment repetitions,
    /// so a repetition cannot be served from a previous run's cache). The
    /// active seed is left untouched.
    fn reset(&self);

    /// Resets only the instrumentation counters, keeping the cache warm.
    /// Used by the campaign layer's shared-cache mode, where one long-lived
    /// engine serves many runs and each run's counters must start at zero.
    fn reset_counters(&self);

    /// Switches the engine's *active seed*: all sample streams generated
    /// after this call derive from the new seed, exactly as if the engine
    /// had been constructed with it. Cache entries are keyed by the active
    /// seed, so blocks of different seeds never alias — a reseeded engine
    /// returns bit-identical outcomes to a fresh engine of the same seed
    /// (the warm cache can only change *how many* simulations were executed
    /// to serve them, never their values). Nominal evaluations are
    /// seed-independent and stay shared across seeds.
    fn reseed(&self, seed: u64);

    /// The seed currently shaping the sample streams (the construction seed
    /// until [`Self::reseed`] is called).
    fn active_seed(&self) -> u64;

    /// Number of blocks currently retained by the cache.
    fn cache_blocks(&self) -> usize;

    /// Estimated heap footprint of the cache in bytes (block contents plus
    /// backing table capacity; see `SimCache::bytes`).
    fn cache_bytes(&self) -> usize;

    /// Trims the cache down to at most `max_blocks` retained Monte-Carlo
    /// blocks (and the same bound on nominal entries), returning the number
    /// of blocks evicted. Evictions are recorded in the engine counters.
    ///
    /// This is the hook external quota policies (the service's per-tenant
    /// cache quotas) use to shrink an *idle* engine below its configured
    /// `max_cached_blocks`. It must only be called while the engine is
    /// quiescent — between batches, like the internal bound sweep — because
    /// eviction mid-batch would break block assembly. The default does
    /// nothing (mock engines have no cache to trim).
    fn enforce_cache_limit(&self, max_blocks: usize) -> u64 {
        let _ = max_blocks;
        0
    }

    /// Convenience: outcomes `start .. start + count` of one design.
    fn mc_single(
        &self,
        model: &dyn SimulationModel,
        x: &[f64],
        start: usize,
        count: usize,
    ) -> Vec<f64> {
        let req = McRequest::new(x.to_vec(), start, count);
        self.mc_outcomes(model, std::slice::from_ref(&req))
            .pop()
            .expect("one request yields one result")
    }

    /// Convenience: nominal margins of one design.
    fn nominal_single(&self, model: &dyn SimulationModel, x: &[f64]) -> Vec<f64> {
        self.nominal_batch(model, std::slice::from_ref(&x.to_vec()))
            .pop()
            .expect("one design yields one result")
    }
}

/// Iterates the `(block index, lo, hi)` triples covering sample indices
/// `start .. start + count`, with `lo`/`hi` local to each block. The single
/// source of block-addressing arithmetic for task planning and assembly.
fn block_ranges(
    start: usize,
    count: usize,
    block_size: usize,
) -> impl Iterator<Item = (u64, usize, usize)> {
    let end = start + count;
    (start / block_size..)
        .take_while(move |b| b * block_size < end)
        .map(move |b| {
            let block_lo = b * block_size;
            let lo = start.max(block_lo) - block_lo;
            let hi = end.min(block_lo + block_size) - block_lo;
            (b as u64, lo, hi)
        })
}

/// One deduplicated unit of work: the requested sample ranges inside one
/// block of one design's stream. Ranges are kept separate (not merged into
/// their convex hull) so that disjoint requests never cause the gap between
/// them to be simulated.
///
/// `cache_key` mixes the active seed into the design key so blocks of
/// different seeds never alias in a long-lived (reseeded) engine;
/// `stream_key` is the plain design key, which together with the active seed
/// derives the RNG stream exactly as before the campaign layer existed.
struct BlockTask {
    cache_key: u64,
    stream_key: u64,
    block: u64,
    request_index: usize,
    ranges: Vec<(usize, usize)>,
}

/// The evaluation engine. [`EngineConfig::workers`] is its only dispatch
/// knob: at `1` every batch runs inline on the calling thread (no thread is
/// ever spawned), otherwise tasks are drained by the work-stealing
/// [`pool`]. All randomness lives in per-block streams that do not depend on
/// execution order, and the cache guarantees each sample is simulated at
/// most once, so every worker count produces bit-identical results for the
/// same [`EngineConfig::seed`].
pub struct Engine {
    config: EngineConfig,
    /// Resolved pool size (`config.workers`, with `0` = available cores).
    workers: usize,
    estimator: Box<dyn YieldEstimator>,
    cache: SimCache,
    stats: EngineStats,
    counter: SimulationCounter,
    /// The seed currently shaping sample streams (starts at `config.seed`;
    /// `reseed` swaps it between runs of a long-lived engine).
    active_seed: AtomicU64,
    /// Monotonic batch sequence, stamped on cache entries for FIFO eviction.
    batch_seq: AtomicU64,
}

/// Mixes the active seed into a design key to form the cache-map key. The
/// mix is a pure bijection per seed, so within one seed it only permutes
/// keys (shard selection changes, results do not), while across seeds it
/// separates the streams of a reseeded engine.
fn seeded_cache_key(design_key: u64, seed: u64) -> u64 {
    splitmix64(design_key ^ splitmix64(seed ^ 0xCA11_ED5E_ED00_0001))
}

impl Engine {
    /// Creates an engine; see [`EngineConfig::workers`] for the worker count.
    pub fn new(config: EngineConfig) -> Self {
        config.validate();
        let workers = match config.workers {
            0 => pool::default_workers(),
            n => n,
        };
        Self {
            workers,
            estimator: config.build_estimator(),
            cache: SimCache::new(),
            stats: EngineStats::new(),
            counter: SimulationCounter::new(),
            active_seed: AtomicU64::new(config.seed),
            batch_seq: AtomicU64::new(0),
            config,
        }
    }

    fn make_block(
        &self,
        model: &dyn SimulationModel,
        design: &[f64],
        stream_key: u64,
        block: u64,
    ) -> Block {
        // Per-(design, block) stream derived from the *active* seed through
        // the workspace's shared RngStreams scheme — independent of execution
        // order, which is what makes parallel == serial. The estimator shapes
        // the block (plan points, LHS strata, mirrored pairs or a shifted
        // weighted cloud) but its input is only this stream, the design and
        // the model's pure shift hint, so the guarantee is unchanged. For a
        // never-reseeded engine the active seed *is* the config seed, so the
        // historic streams are reproduced bit for bit.
        let mut rng = RngStreams::new(self.active_seed()).stream(stream_key, block);
        let shift = if self.config.estimator == EstimatorKind::ImportanceSampling {
            model.importance_shift(design)
        } else {
            None
        };
        let generated = self.estimator.generate_block(
            &mut rng,
            self.config.block_size,
            model.unit_dimension(),
            self.config.plan,
            shift.as_deref(),
        );
        Block::with_weights(generated.points, generated.weights)
    }

    /// Splits the requests into deduplicated per-(design, block) tasks.
    fn plan_tasks(&self, requests: &[McRequest]) -> Vec<BlockTask> {
        let block_size = self.config.block_size;
        let seed = self.active_seed();
        let mut needed: HashMap<(u64, u64), BlockTask> = HashMap::new();
        for (request_index, request) in requests.iter().enumerate() {
            if request.count == 0 {
                continue;
            }
            let stream_key = design_key(&request.design);
            let cache_key = seeded_cache_key(stream_key, seed);
            for (block, lo, hi) in block_ranges(request.start, request.count, block_size) {
                needed
                    .entry((cache_key, block))
                    .and_modify(|t| t.ranges.push((lo, hi)))
                    .or_insert(BlockTask {
                        cache_key,
                        stream_key,
                        block,
                        request_index,
                        ranges: vec![(lo, hi)],
                    });
            }
        }
        let mut tasks: Vec<BlockTask> = needed.into_values().collect();
        // Deterministic dispatch order (helps reproducible profiling; the
        // results never depend on it).
        tasks.sort_by_key(|t| (t.cache_key, t.block));
        tasks
    }
}

impl EvalEngine for Engine {
    /// `"serial"` when configured with one worker, `"parallel"` otherwise.
    /// The label follows the configured count, not the resolved one, so a
    /// `workers: 0` engine is `"parallel"` even on a one-core host.
    fn name(&self) -> &'static str {
        if self.config.workers == 1 {
            "serial"
        } else {
            "parallel"
        }
    }

    fn config(&self) -> &EngineConfig {
        &self.config
    }

    fn mc_outcomes(&self, model: &dyn SimulationModel, requests: &[McRequest]) -> Vec<Vec<f64>> {
        let start_time = Instant::now();
        let batch = self.batch_seq.fetch_add(1, Ordering::Relaxed);
        let tasks = self.plan_tasks(requests);
        let executed = AtomicU64::new(0);

        pool::run_tasks(&tasks, self.workers, |task| {
            let design = &requests[task.request_index].design;
            let block = self.cache.block(task.cache_key, task.block, batch, || {
                self.make_block(model, design, task.stream_key, task.block)
            });
            let mut guard = block.lock().expect("block poisoned");
            // Gather the pending sample indices of this task. Overlapping
            // ranges are harmless: the `is_none` guard plus the `queued`
            // marker make every sample index simulate at most once. Each unit
            // point is consumed (taken) by its simulation — a simulated index
            // is never re-simulated, so the point is dead weight afterwards;
            // this keeps even partially simulated blocks lean.
            let mut pending: Vec<usize> = Vec::new();
            {
                let mut queued = vec![false; guard.outcomes.len()];
                for &(lo, hi) in &task.ranges {
                    #[allow(clippy::needless_range_loop)] // `i` indexes two slices
                    for i in lo..hi {
                        if guard.outcomes[i].is_none() && !queued[i] {
                            queued[i] = true;
                            pending.push(i);
                        }
                    }
                }
            }
            let ran = pending.len() as u64;
            if ran > 0 {
                // One whole-block dispatch: models with a batched fast path
                // amortise their per-design setup across the samples; the
                // default implementation loops simulate_point, so outcomes
                // are bit-identical either way (see SimulationModel).
                let points: Vec<Vec<f64>> = pending
                    .iter()
                    .map(|&i| std::mem::take(&mut guard.points[i]))
                    .collect();
                let mut raws = vec![0.0; points.len()];
                model.simulate_block(design, &points, &mut raws);
                for (&i, &raw) in pending.iter().zip(&raws) {
                    // Stored outcomes are yield contributions: the raw
                    // indicator under unit weights, `1 − w (1 − J)` for
                    // importance-sampled blocks.
                    let outcome = match guard.weights.get(i) {
                        Some(&w) => weighted_outcome(w, raw),
                        None => raw,
                    };
                    guard.outcomes[i] = Some(outcome);
                }
                // A fully simulated block never reads points or weights
                // again; drop the (now all-empty) outer vectors too.
                if guard.outcomes.iter().all(|o| o.is_some()) {
                    guard.points = Vec::new();
                    guard.weights = Vec::new();
                }
                executed.fetch_add(ran, Ordering::Relaxed);
            }
        });

        // Assemble in request order; every needed outcome now exists.
        let block_size = self.config.block_size;
        let seed = self.active_seed();
        let results: Vec<Vec<f64>> = requests
            .iter()
            .map(|request| {
                if request.count == 0 {
                    return Vec::new();
                }
                let key = seeded_cache_key(design_key(&request.design), seed);
                let mut out = Vec::with_capacity(request.count);
                for (block, lo, hi) in block_ranges(request.start, request.count, block_size) {
                    let entry = self.cache.block(key, block, batch, || {
                        unreachable!("block was materialised by its task")
                    });
                    let guard = entry.lock().expect("block poisoned");
                    for i in lo..hi {
                        out.push(guard.outcomes[i].expect("outcome computed by its task"));
                    }
                }
                out
            })
            .collect();

        let served: u64 = requests.iter().map(|r| r.count as u64).sum();
        let ran = executed.load(Ordering::Relaxed);
        self.counter.add(ran);
        self.stats.record_cache_hits(served - ran);
        self.stats.record_mc_batch(
            served,
            tasks.len() as u64,
            start_time.elapsed().as_nanos() as u64,
        );
        // Bounded-memory engines sweep between batches, when no task holds a
        // block handle (eviction mid-batch would break assembly). The sweep
        // order is deterministic, so parallel == serial — counters included.
        if self.config.max_cached_blocks > 0 {
            let evicted = self.cache.enforce_limit(self.config.max_cached_blocks);
            if evicted > 0 {
                self.stats.record_evictions(evicted);
            }
        }
        results
    }

    fn estimate(&self, outcomes: &[f64]) -> EstimatedYield {
        self.estimator.estimate(outcomes)
    }

    fn nominal_batch(&self, model: &dyn SimulationModel, designs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let start_time = Instant::now();
        let batch = self.batch_seq.fetch_add(1, Ordering::Relaxed);
        let keys: Vec<u64> = designs.iter().map(|d| design_key(d)).collect();
        let mut missing: Vec<(u64, usize)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (i, &key) in keys.iter().enumerate() {
            if self.cache.nominal(key).is_none() && seen.insert(key) {
                missing.push((key, i));
            }
        }
        missing.sort_by_key(|&(key, _)| key);

        pool::run_tasks(&missing, self.workers, |&(key, i)| {
            let margins = model.nominal(&designs[i]);
            self.cache.store_nominal(key, Arc::new(margins), batch);
        });

        let ran = missing.len() as u64;
        self.counter.add(ran);
        self.stats.record_cache_hits(designs.len() as u64 - ran);
        self.stats
            .record_nominal_batch(designs.len() as u64, start_time.elapsed().as_nanos() as u64);

        let results: Vec<Vec<f64>> = keys
            .iter()
            .map(|&key| {
                self.cache
                    .nominal(key)
                    .expect("nominal evaluated above")
                    .as_ref()
                    .clone()
            })
            .collect();
        // The same bound covers the (much smaller) nominal entries, so a
        // bounded long-lived engine really is bounded — not just in its
        // Monte-Carlo blocks. The trim order is deterministic, so the
        // parallel == serial guarantee holds here too.
        if self.config.max_cached_blocks > 0 {
            self.cache
                .enforce_nominal_limit(self.config.max_cached_blocks);
        }
        results
    }

    /// `simulations_run` is sourced from the shared counter (the single
    /// source of truth for executed simulations).
    fn stats(&self) -> EngineStatsSnapshot {
        let mut snap = self.stats.snapshot();
        snap.simulations_run = self.counter.total();
        snap
    }

    fn timing(&self) -> EngineTiming {
        self.stats.timing()
    }

    fn simulations(&self) -> u64 {
        self.counter.total()
    }

    fn counter(&self) -> SimulationCounter {
        self.counter.clone()
    }

    fn reset(&self) {
        self.stats.reset();
        self.counter.reset();
        self.cache.clear();
    }

    fn reset_counters(&self) {
        self.stats.reset();
        self.counter.reset();
    }

    fn reseed(&self, seed: u64) {
        self.active_seed.store(seed, Ordering::Relaxed);
    }

    fn active_seed(&self) -> u64 {
        self.active_seed.load(Ordering::Relaxed)
    }

    fn cache_blocks(&self) -> usize {
        self.cache.blocks()
    }

    fn cache_bytes(&self) -> usize {
        self.cache.bytes()
    }

    /// Quiescent-time cache trim for external quota policies; evictions land
    /// in the same counter the internal bound sweep uses.
    fn enforce_cache_limit(&self, max_blocks: usize) -> u64 {
        let evicted = self.cache.enforce_limit(max_blocks);
        self.cache.enforce_nominal_limit(max_blocks);
        if evicted > 0 {
            self.stats.record_evictions(evicted);
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-worker (inline) engine.
    fn serial(config: EngineConfig) -> Engine {
        Engine::new(config.with_workers(1))
    }

    /// Toy model: passes when `u[0] < x[0]`; nominal margins echo the design.
    struct Threshold;

    impl SimulationModel for Threshold {
        fn unit_dimension(&self) -> usize {
            3
        }

        fn simulate_point(&self, x: &[f64], u: &[f64]) -> f64 {
            if u[0] < x[0] {
                1.0
            } else {
                0.0
            }
        }

        fn nominal(&self, x: &[f64]) -> Vec<f64> {
            x.to_vec()
        }
    }

    fn requests() -> Vec<McRequest> {
        vec![
            McRequest::new(vec![0.7, 1.0, 2.0], 0, 73),
            McRequest::new(vec![0.3, 1.0, 2.0], 10, 125),
            McRequest::new(vec![0.7, 1.0, 2.0], 73, 40), // continuation of the first
            McRequest::new(vec![0.5, 0.5, 0.5], 0, 0),   // empty
        ]
    }

    #[test]
    fn serial_and_parallel_outcomes_are_bit_identical() {
        let serial = serial(EngineConfig::default().with_seed(11));
        let parallel = Engine::new(EngineConfig::default().with_seed(11).with_workers(4));
        let a = serial.mc_outcomes(&Threshold, &requests());
        let b = parallel.mc_outcomes(&Threshold, &requests());
        assert_eq!(a, b);
        assert_eq!(serial.simulations(), parallel.simulations());
        // Nominal margins too.
        let designs = vec![vec![0.1, 0.2, 0.3], vec![0.4, 0.5, 0.6]];
        assert_eq!(
            serial.nominal_batch(&Threshold, &designs),
            parallel.nominal_batch(&Threshold, &designs)
        );
    }

    #[test]
    fn repeated_requests_are_served_from_cache() {
        let engine = serial(EngineConfig::default());
        let reqs = requests();
        let first = engine.mc_outcomes(&Threshold, &reqs);
        let after_first = engine.simulations();
        let second = engine.mc_outcomes(&Threshold, &reqs);
        assert_eq!(first, second);
        assert_eq!(engine.simulations(), after_first, "all cache hits");
        assert!(engine.stats().cache_hits > 0);
    }

    #[test]
    fn sample_ranges_compose_into_one_stream() {
        // Reading [0, 90) in one request equals reading [0, 40) + [40, 90).
        let whole = serial(EngineConfig::default().with_seed(5));
        let split = serial(EngineConfig::default().with_seed(5));
        let x = vec![0.6, 0.1, 0.9];
        let full = whole.mc_single(&Threshold, &x, 0, 90);
        let head = split.mc_single(&Threshold, &x, 0, 40);
        let tail = split.mc_single(&Threshold, &x, 40, 50);
        let joined: Vec<f64> = head.into_iter().chain(tail).collect();
        assert_eq!(full, joined);
        // The split engine never re-simulated the overlap.
        assert_eq!(whole.simulations(), split.simulations());
    }

    #[test]
    fn disjoint_ranges_in_one_block_do_not_simulate_the_gap() {
        // Two requests for the same design with a gap between their ranges:
        // the gap samples must not be simulated, and the cache-hit
        // accounting must not underflow (served >= ran).
        let engine = serial(EngineConfig::default());
        let x = vec![0.5, 0.5, 0.5];
        let reqs = vec![
            McRequest::new(x.clone(), 5, 5),
            McRequest::new(x.clone(), 30, 5),
        ];
        let out = engine.mc_outcomes(&Threshold, &reqs);
        assert_eq!(out[0].len(), 5);
        assert_eq!(out[1].len(), 5);
        assert_eq!(engine.simulations(), 10, "gap [10, 30) must stay lazy");
        assert_eq!(engine.stats().cache_hits, 0);
        // Duplicate overlapping requests in one batch count as hits, never
        // as extra simulations.
        let dup = vec![McRequest::new(x.clone(), 5, 5), McRequest::new(x, 5, 5)];
        let out2 = engine.mc_outcomes(&Threshold, &dup);
        assert_eq!(out2[0], out2[1]);
        assert_eq!(engine.simulations(), 10);
        assert_eq!(engine.stats().cache_hits, 10);
    }

    #[test]
    fn simulation_counts_are_exact_for_fresh_requests() {
        let engine = serial(EngineConfig::default());
        let x = vec![0.5, 0.5, 0.5];
        let out = engine.mc_single(&Threshold, &x, 0, 37);
        assert_eq!(out.len(), 37);
        assert_eq!(engine.simulations(), 37, "partial blocks are lazy");
        let _ = engine.nominal_single(&Threshold, &x);
        assert_eq!(engine.simulations(), 38);
        let _ = engine.nominal_single(&Threshold, &x);
        assert_eq!(engine.simulations(), 38, "nominal evals are cached");
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a = serial(EngineConfig::default().with_seed(1));
        let b = serial(EngineConfig::default().with_seed(2));
        let x = vec![0.5, 0.5, 0.5];
        assert_ne!(
            a.mc_single(&Threshold, &x, 0, 200),
            b.mc_single(&Threshold, &x, 0, 200)
        );
    }

    #[test]
    fn estimates_track_the_true_probability() {
        let engine = Engine::new(EngineConfig::default().with_workers(3));
        let x = vec![0.42, 0.0, 0.0];
        let outcomes = engine.mc_single(&Threshold, &x, 0, 4_000);
        let mean = outcomes.iter().sum::<f64>() / outcomes.len() as f64;
        assert!((mean - 0.42).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn reset_clears_counts_and_cache() {
        let engine = serial(EngineConfig::default());
        let x = vec![0.5, 0.5, 0.5];
        let _ = engine.mc_single(&Threshold, &x, 0, 20);
        assert!(engine.simulations() > 0);
        engine.reset();
        assert_eq!(engine.simulations(), 0);
        assert_eq!(engine.counter().total(), 0);
        // After a reset the same request costs simulations again.
        let _ = engine.mc_single(&Threshold, &x, 0, 20);
        assert_eq!(engine.simulations(), 20);
    }

    #[test]
    fn counter_handle_tracks_engine() {
        let engine = serial(EngineConfig::default());
        let counter = engine.counter();
        let _ = engine.mc_single(&Threshold, &[0.5, 0.5, 0.5], 0, 12);
        assert_eq!(counter.total(), 12);
    }

    /// Model that leaks the first coordinate of the unit point as its
    /// outcome, so tests can observe the generated stream itself.
    struct Echo;

    impl SimulationModel for Echo {
        fn unit_dimension(&self) -> usize {
            2
        }

        fn simulate_point(&self, _x: &[f64], u: &[f64]) -> f64 {
            u[0]
        }

        fn nominal(&self, x: &[f64]) -> Vec<f64> {
            x.to_vec()
        }
    }

    #[test]
    fn antithetic_streams_are_mirrored_within_blocks() {
        let engine = serial(EngineConfig::default().with_estimator(EstimatorKind::Antithetic));
        let x = vec![0.5, 0.5, 0.5];
        let out = engine.mc_single(&Echo, &x, 0, 100);
        for (i, pair) in out.chunks_exact(2).enumerate() {
            assert!(
                (pair[0] + pair[1] - 1.0).abs() < 1e-12,
                "pair {i} not mirrored: {pair:?}"
            );
        }
    }

    #[test]
    fn antithetic_pairs_share_one_cache_block_even_under_partial_reads() {
        // Reading the two halves of a pair through separate requests must
        // materialise exactly one block (same (design, block) key, hence the
        // same cache shard), and re-reading the mirror half must be free.
        let engine = serial(EngineConfig::default().with_estimator(EstimatorKind::Antithetic));
        let x = vec![0.5, 0.5, 0.5];
        // Sample 48 and its mirror 49 sit at the end of block 0 (size 50).
        let even = engine.mc_single(&Echo, &x, 48, 1);
        let odd = engine.mc_single(&Echo, &x, 49, 1);
        assert!(
            (even[0] + odd[0] - 1.0).abs() < 1e-12,
            "pair split across blocks"
        );
        assert_eq!(engine.simulations(), 2);

        // Serial and parallel engines materialise identical pairs.
        let parallel = Engine::new(
            EngineConfig::default()
                .with_estimator(EstimatorKind::Antithetic)
                .with_workers(4),
        );
        assert_eq!(parallel.mc_single(&Echo, &x, 48, 1), even);
        assert_eq!(parallel.mc_single(&Echo, &x, 49, 1), odd);
    }

    #[test]
    fn every_estimator_is_deterministic_and_parallel_equals_serial() {
        for kind in EstimatorKind::ALL {
            let serial = serial(EngineConfig::default().with_seed(7).with_estimator(kind));
            let parallel = Engine::new(
                EngineConfig::default()
                    .with_seed(7)
                    .with_estimator(kind)
                    .with_workers(4),
            );
            let a = serial.mc_outcomes(&Threshold, &requests());
            let b = parallel.mc_outcomes(&Threshold, &requests());
            assert_eq!(a, b, "{kind:?} diverged");
            assert_eq!(serial.simulations(), parallel.simulations(), "{kind:?}");
        }
    }

    /// One-dimensional threshold with an analytic importance shift: passes
    /// when `z > Φ⁻¹(0.1)`, i.e. with probability 0.9, and shifts the mean
    /// one sigma toward the failure region.
    struct Shifted;

    impl SimulationModel for Shifted {
        fn unit_dimension(&self) -> usize {
            1
        }

        fn simulate_point(&self, _x: &[f64], u: &[f64]) -> f64 {
            if u[0] > 0.1 {
                1.0
            } else {
                0.0
            }
        }

        fn nominal(&self, x: &[f64]) -> Vec<f64> {
            x.to_vec()
        }

        fn importance_shift(&self, _x: &[f64]) -> Option<Vec<f64>> {
            Some(vec![-1.0])
        }
    }

    #[test]
    fn importance_sampled_outcomes_are_weighted_but_unbiased() {
        let engine =
            serial(EngineConfig::default().with_estimator(EstimatorKind::ImportanceSampling));
        let x = vec![0.0];
        let out = engine.mc_single(&Shifted, &x, 0, 2_000);
        // The shift pushes samples into the failure region, so failures are
        // observed often but carry small weights: outcomes are fractional.
        assert!(
            out.iter().any(|o| *o != 0.0 && *o != 1.0),
            "expected weighted contributions"
        );
        let mean = out.iter().sum::<f64>() / out.len() as f64;
        assert!((mean - 0.9).abs() < 0.03, "IS mean {mean}");
        // Without a shift hint the same estimator stores raw indicators.
        let plain =
            serial(EngineConfig::default().with_estimator(EstimatorKind::ImportanceSampling));
        let raw = plain.mc_single(&Threshold, &[0.7, 0.0, 0.0], 0, 100);
        assert!(raw.iter().all(|o| *o == 0.0 || *o == 1.0));
    }

    #[test]
    fn default_estimator_streams_are_bit_identical_to_the_plain_plan() {
        // The estimator field must not disturb the historic default streams:
        // an explicit MonteCarlo estimator and the plain default produce the
        // same outcomes for the same seed.
        let default_engine = serial(EngineConfig::default().with_seed(3));
        let explicit = serial(
            EngineConfig::default()
                .with_seed(3)
                .with_estimator(EstimatorKind::MonteCarlo),
        );
        let x = vec![0.6, 0.2, 0.9];
        assert_eq!(
            default_engine.mc_single(&Echo, &x, 0, 150),
            explicit.mc_single(&Echo, &x, 0, 150)
        );
    }

    #[test]
    fn reseeded_engine_matches_fresh_engine_bit_for_bit() {
        let fresh_a = serial(EngineConfig::default().with_seed(21));
        let fresh_b = serial(EngineConfig::default().with_seed(22));
        let reused = serial(EngineConfig::default().with_seed(21));
        let x = vec![0.6, 0.3, 0.8];
        assert_eq!(
            reused.mc_single(&Echo, &x, 0, 120),
            fresh_a.mc_single(&Echo, &x, 0, 120)
        );
        // Switch seeds without clearing the cache: values must match a fresh
        // engine of the new seed (seed-keyed blocks never alias).
        reused.reseed(22);
        assert_eq!(reused.active_seed(), 22);
        assert_eq!(
            reused.mc_single(&Echo, &x, 0, 120),
            fresh_b.mc_single(&Echo, &x, 0, 120)
        );
        // And back: the first seed's blocks are still cached, so re-serving
        // them is free while the values stay those of seed 21.
        reused.reseed(21);
        let before = reused.simulations();
        assert_eq!(
            reused.mc_single(&Echo, &x, 0, 120),
            fresh_a.mc_single(&Echo, &x, 0, 120)
        );
        assert_eq!(reused.simulations(), before, "seed-21 blocks were cached");
    }

    #[test]
    fn reset_counters_keeps_the_cache_warm() {
        let engine = serial(EngineConfig::default());
        let x = vec![0.5, 0.5, 0.5];
        let first = engine.mc_single(&Threshold, &x, 0, 30);
        assert_eq!(engine.simulations(), 30);
        engine.reset_counters();
        assert_eq!(engine.simulations(), 0);
        let second = engine.mc_single(&Threshold, &x, 0, 30);
        assert_eq!(first, second);
        assert_eq!(engine.simulations(), 0, "served from the warm cache");
        assert!(engine.cache_blocks() > 0);
        assert!(engine.cache_bytes() > 0);
    }

    #[test]
    fn external_cache_trim_evicts_and_records() {
        let engine = serial(EngineConfig::default().with_seed(5));
        let designs: Vec<Vec<f64>> = (0..5).map(|i| vec![0.1 * i as f64, 0.2, 0.3]).collect();
        let mut reference = Vec::new();
        for x in &designs {
            reference.push(engine.mc_single(&Echo, x, 0, 60));
        }
        let before_blocks = engine.cache_blocks();
        assert!(before_blocks > 2);
        // External quota trim (the service's per-tenant enforcement path):
        // shrinks below the configured bound, records the evictions.
        let evicted = engine.enforce_cache_limit(2);
        assert_eq!(evicted as usize, before_blocks - engine.cache_blocks());
        assert!(engine.cache_blocks() <= 2);
        assert_eq!(engine.stats().evicted_blocks, evicted);
        // Evicted blocks re-create bit-identically on the next request.
        for (i, x) in designs.iter().enumerate() {
            assert_eq!(engine.mc_single(&Echo, x, 0, 60), reference[i]);
        }
    }

    #[test]
    fn eviction_preserves_outcomes_and_determinism() {
        // A bound tight enough to force evictions across these designs.
        let bounded_config = EngineConfig::default()
            .with_seed(9)
            .with_max_cached_blocks(2);
        let unbounded = serial(EngineConfig::default().with_seed(9));
        let bounded = serial(bounded_config);
        let bounded_twin = serial(bounded_config);
        let parallel = Engine::new(EngineConfig {
            workers: 4,
            ..bounded_config
        });

        let designs: Vec<Vec<f64>> = (0..6).map(|i| vec![0.1 * i as f64, 0.2, 0.3]).collect();
        let mut reference = Vec::new();
        for x in &designs {
            reference.push(unbounded.mc_single(&Echo, x, 0, 60));
        }
        for (i, x) in designs.iter().enumerate() {
            assert_eq!(bounded.mc_single(&Echo, x, 0, 60), reference[i]);
            assert_eq!(bounded_twin.mc_single(&Echo, x, 0, 60), reference[i]);
            assert_eq!(parallel.mc_single(&Echo, x, 0, 60), reference[i]);
        }
        // Revisit every design: evicted blocks re-create bit-identically.
        for (i, x) in designs.iter().enumerate() {
            assert_eq!(bounded.mc_single(&Echo, x, 0, 60), reference[i]);
            assert_eq!(bounded_twin.mc_single(&Echo, x, 0, 60), reference[i]);
            assert_eq!(parallel.mc_single(&Echo, x, 0, 60), reference[i]);
        }
        assert!(bounded.cache_blocks() <= 2, "bound is enforced");
        assert!(bounded.stats().evicted_blocks > 0, "evictions happened");
        // Determinism: an identical twin (and the parallel engine) executed
        // the exact same number of simulations, evictions included.
        assert_eq!(bounded.simulations(), bounded_twin.simulations());
        assert_eq!(bounded.simulations(), parallel.simulations());
        assert_eq!(
            parallel.stats().evicted_blocks,
            bounded_twin.stats().evicted_blocks
        );
        // The unbounded engine never evicts and paid fewer re-simulations.
        assert_eq!(unbounded.stats().evicted_blocks, 0);
        assert!(unbounded.simulations() < bounded.simulations());
    }

    #[test]
    #[should_panic(expected = "even block size")]
    fn antithetic_engine_rejects_odd_block_sizes() {
        let config = EngineConfig {
            block_size: 49,
            estimator: EstimatorKind::Antithetic,
            ..EngineConfig::default()
        };
        let _ = serial(config);
    }
}
