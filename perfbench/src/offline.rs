//! Campaign rounds driven through `drive_schedule` with the benchmark's own
//! closures, optionally under the delegating timers and an aggregating
//! tracer.

use crate::measure::{cpu_seconds, quantile};
use crate::timed::{load, LayerStats, TimedEngine};
use moheco_bench::results::ScenarioResult;
use moheco_bench::schedule::Cell;
use moheco_bench::{drive_schedule, Algo, CellOutcome, CellWriter, EngineReuse, JobSpec, RunSpec};
use moheco_obs::{PhaseBreakdown, Tracer};
use moheco_runtime::{EngineConfig, EvalEngine};
use moheco_sampling::SamplingPlan;
use moheco_scenarios::Scenario;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads of every parallel engine the benchmark builds: pinned,
/// so the workload does not change shape with the host's core count.
pub const ENGINE_WORKERS: usize = 2;

/// The algorithm phases reported per layer, keyed by the suffix of their
/// span path.
pub const PHASES: [(&str, &str); 6] = [
    ("screening", "screening"),
    ("estimation.stage1", "estimation/stage1"),
    ("ocba_round", "ocba_round"),
    ("stage2_promotion", "stage2_promotion"),
    ("nm_refine", "nm_refine"),
    ("final_report", "final_report"),
];

/// One job spec's scenarios and long-lived per-scenario engines, built once
/// and reset at the start of every round.
pub struct Campaign {
    pub spec: JobSpec,
    scenarios: BTreeMap<String, Arc<dyn Scenario>>,
    engines: BTreeMap<String, Arc<dyn EvalEngine>>,
}

impl Campaign {
    /// Resolves the spec's scenarios and builds one engine per scenario,
    /// configured like the campaign runner's engines except for the pinned
    /// worker count.
    pub fn new(spec: JobSpec) -> Result<Self, String> {
        spec.validate()?;
        let mut scenarios = BTreeMap::new();
        let mut engines = BTreeMap::new();
        for scenario in spec.resolve_scenarios()? {
            let name = scenario.name().to_string();
            let engine = spec.engine.build_with(EngineConfig {
                plan: SamplingPlan::LatinHypercube,
                seed: spec.seeds[0],
                estimator: spec.estimator,
                max_cached_blocks: spec.max_cached_blocks,
                workers: ENGINE_WORKERS,
                ..EngineConfig::default()
            });
            engines.insert(name.clone(), engine);
            scenarios.insert(name, scenario);
        }
        Ok(Self {
            spec,
            scenarios,
            engines,
        })
    }
}

/// The instruments of a traced round.
pub struct Trace {
    pub stats: Arc<LayerStats>,
    pub tracer: Tracer,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            stats: Arc::default(),
            tracer: Tracer::aggregating(),
        }
    }
}

/// What one executed cell reported.
pub struct CellRecord {
    pub result: ScenarioResult,
    /// Wall time of the `execute` closure for this cell.
    pub latency: Duration,
    /// Process CPU seconds spent while the closure ran.
    pub cpu_s: f64,
}

/// One completed round.
pub struct Round {
    /// `to_jsonl_row` of every executed cell, in commit order.
    pub rows: Vec<String>,
    pub cells: Vec<CellRecord>,
    pub wall: Duration,
    pub cpu_s: f64,
    pub execute: Duration,
    pub callbacks: Duration,
}

impl Round {
    pub fn simulations(&self) -> u64 {
        self.cells.iter().map(|c| c.result.simulations).sum()
    }
}

/// Runs the campaign once, from cold engines, writing its rows to `path`
/// (any earlier file there is removed first, so nothing resumes).
pub fn run_round(campaign: &Campaign, path: &Path, trace: Option<&Trace>) -> Result<Round, String> {
    let spec = &campaign.spec;
    if let Some(dir) = path.parent() {
        if dir.exists() {
            std::fs::remove_dir_all(dir)
                .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
        }
    }
    let tracer = trace.map_or_else(Tracer::disabled, |t| t.tracer.clone());
    let engines: BTreeMap<&str, Arc<dyn EvalEngine>> = campaign
        .engines
        .iter()
        .map(|(name, engine)| {
            engine.reset();
            let engine: Arc<dyn EvalEngine> = match trace {
                Some(t) => Arc::new(TimedEngine::new(
                    engine.clone(),
                    t.stats.clone(),
                    t.tracer.clone(),
                )),
                None => engine.clone(),
            };
            (name.as_str(), engine)
        })
        .collect();
    let writer = CellWriter::open(path, spec)?;

    let mut costs = Vec::new();
    let mut execute_time = Duration::ZERO;
    let mut callback_time = Duration::ZERO;
    let mut rows = Vec::new();
    let mut results = Vec::new();
    let cpu_start = cpu_seconds();
    let start = Instant::now();
    let execute = |cell: &Cell| -> Result<ScenarioResult, String> {
        let began = Instant::now();
        let cpu_began = cpu_seconds();
        let scenario = campaign
            .scenarios
            .get(&cell.scenario)
            .ok_or_else(|| format!("unknown scenario {:?}", cell.scenario))?;
        let algo =
            Algo::parse(&cell.algo).ok_or_else(|| format!("unknown algo {:?}", cell.algo))?;
        let engine = engines[cell.scenario.as_str()].clone();
        engine.reseed(cell.seed);
        match spec.reuse {
            EngineReuse::Reset => engine.reset(),
            EngineReuse::SharedCache => engine.reset_counters(),
        }
        let result = RunSpec::new(scenario.as_ref(), algo)
            .budget(cell.budget)
            .seed(cell.seed)
            .engine(engine.clone())
            .engine_label(spec.engine.label())
            .prescreen(spec.prescreen)
            .tracer(&tracer)
            .execute();
        if let Some(t) = trace {
            t.stats
                .cache_bytes_peak
                .fetch_max(engine.cache_bytes() as u64, Ordering::Relaxed);
        }
        let took = began.elapsed();
        execute_time += took;
        costs.push((took, cpu_seconds() - cpu_began));
        Ok(result)
    };
    let on_cell = |_cell: &Cell, outcome: CellOutcome<'_>| -> Result<(), String> {
        let began = Instant::now();
        match outcome {
            CellOutcome::Executed(result) => {
                rows.push(result.to_jsonl_row());
                results.push(result.clone());
            }
            CellOutcome::Resumed { .. } => {
                return Err("a cleared campaign file resumed a cell".to_string())
            }
        }
        callback_time += began.elapsed();
        Ok(())
    };
    drive_schedule(spec, writer, &tracer, execute, on_cell)?;
    let wall = start.elapsed();
    let cpu_s = cpu_seconds() - cpu_start;
    // `drive_schedule` runs cells one at a time and commits each in turn.
    let cells = results
        .into_iter()
        .zip(costs)
        .map(|(result, (latency, cpu_s))| CellRecord {
            result,
            latency,
            cpu_s,
        })
        .collect();
    Ok(Round {
        rows,
        cells,
        wall,
        cpu_s,
        execute: execute_time,
        callbacks: callback_time,
    })
}

/// Self wall time per span path: each entry's inclusive time minus that of
/// its direct children (the nearest recorded ancestor is the parent).
pub fn self_nanos(breakdown: &PhaseBreakdown) -> BTreeMap<String, i128> {
    let paths: Vec<&str> = breakdown.phases.iter().map(|e| e.path.as_str()).collect();
    let mut own: BTreeMap<String, i128> = breakdown
        .phases
        .iter()
        .map(|e| (e.path.clone(), i128::from(e.wall_nanos)))
        .collect();
    for entry in &breakdown.phases {
        let parent = paths
            .iter()
            .filter(|p| {
                entry.path.len() > p.len()
                    && entry.path.starts_with(**p)
                    && entry.path.as_bytes()[p.len()] == b'/'
            })
            .max_by_key(|p| p.len());
        if let Some(parent) = parent {
            *own.get_mut(*parent).expect("parent is recorded") -= i128::from(entry.wall_nanos);
        }
    }
    own
}

/// Per-layer figures of the traced rounds of one campaign, per round.
#[derive(Default)]
pub struct Ledger {
    /// Threads the engine dispatches the model on.
    pub workers: f64,
    pub rounds: f64,
    pub drive_ms: f64,
    pub execute_ms: f64,
    pub callback_ms: f64,
    pub cells: f64,
    pub engine_wall_ms: f64,
    pub phase_self_ms: f64,
    pub simulations_run: u64,
    pub phase_sims: u64,
    pub layer: BTreeMap<String, f64>,
}

impl Ledger {
    /// Folds one traced round into the ledger.
    pub fn absorb(&mut self, round: &Round, trace: &Trace) {
        let breakdown = trace.tracer.breakdown();
        let own = self_nanos(&breakdown);
        self.rounds += 1.0;
        self.drive_ms += round.wall.as_secs_f64() * 1e3;
        self.execute_ms += round.execute.as_secs_f64() * 1e3;
        self.callback_ms += round.callbacks.as_secs_f64() * 1e3;
        self.cells += round.cells.len() as f64;
        for entry in &breakdown.phases {
            let self_ms = own[&entry.path] as f64 * 1e-6;
            self.phase_sims += entry.simulations;
            if entry.path.ends_with("/engine") {
                self.engine_wall_ms += self_ms;
                continue;
            }
            if entry.path.starts_with("campaign/") {
                // The exec core's own scheduling spans: already part of
                // the drive time outside `execute`.
                continue;
            }
            self.phase_self_ms += self_ms;
            let phase = PHASES
                .iter()
                .find(|(_, suffix)| entry.path.ends_with(suffix))
                .map(|(name, _)| *name);
            if let Some(name) = phase {
                // A phase is charged the simulations its engine calls ran.
                let engine_sims = breakdown
                    .get(&format!("{}/engine", entry.path))
                    .map_or(0, |e| e.simulations);
                *self.bump(&format!("core.{name}.self_ms")) += self_ms;
                *self.bump(&format!("core.{name}.sims")) +=
                    (entry.simulations + engine_sims) as f64;
                *self.bump(&format!("core.{name}.spans")) += entry.spans as f64;
            }
        }
        for cell in &round.cells {
            self.simulations_run += cell.result.engine_stats.simulations_run;
            let s = &cell.result.engine_stats;
            *self.bump("runtime.sims_executed") += s.simulations_run as f64;
            *self.bump("runtime.cache_hits") += s.cache_hits as f64;
            *self.bump("runtime.served") += (s.mc_samples_served + s.nominal_served) as f64;
            *self.bump("runtime.evictions") += s.evicted_blocks as f64;
        }
        let stats = &trace.stats;
        *self.bump("model.block_calls") += load(&stats.model_block_calls) as f64;
        *self.bump("model.block_samples") += load(&stats.model_block_samples) as f64;
        *self.bump("model.busy_ms") += load(&stats.model_busy_ns) as f64 * 1e-6;
        *self.bump("runtime.mc_calls") += load(&stats.mc_calls) as f64;
        *self.bump("runtime.mc_wall_ms") += load(&stats.mc_wall_ns) as f64 * 1e-6;
        *self.bump("runtime.nominal_wall_ms") += load(&stats.nominal_wall_ns) as f64 * 1e-6;
        *self.bump("runtime.samples_requested") += load(&stats.samples_requested) as f64;
        *self.bump("sampling.estimate_calls") += load(&stats.estimate_calls) as f64;
        *self.bump("sampling.estimate_ms") += load(&stats.estimate_ns) as f64 * 1e-6;
        let batches = stats.batch_samples.lock().expect("batch-size log poisoned");
        let batches: Vec<f64> = batches.iter().map(|&b| b as f64).collect();
        *self.bump("runtime.batch_samples_p50") += quantile(&batches, 0.5);
        let peak = self.bump("runtime.cache_bytes_peak");
        *peak = peak.max(load(&stats.cache_bytes_peak) as f64);
    }

    fn bump(&mut self, key: &str) -> &mut f64 {
        self.layer.entry(key.to_string()).or_insert(0.0)
    }

    fn per_round(&self, key: &str) -> f64 {
        self.layer.get(key).copied().unwrap_or(0.0) / self.rounds.max(1.0)
    }

    /// Drive wall time not covered by the exec core's own time, its
    /// callbacks, the phases' self time or the engine calls: the time spent
    /// inside `execute` outside every span.
    pub fn unattributed_ms(&self) -> f64 {
        self.execute_ms - self.phase_self_ms - self.engine_wall_ms
    }

    /// The per-layer metrics, per round.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let mut out: Vec<(String, f64, &'static str)> = Vec::new();
        let samples = self.per_round("model.block_samples");
        let busy_ms = self.per_round("model.busy_ms");
        let mc_wall_ms = self.per_round("runtime.mc_wall_ms");
        out.push((
            "model.block_calls".into(),
            self.per_round("model.block_calls"),
            "count",
        ));
        out.push(("model.block_busy_ms".into(), busy_ms, "ms"));
        out.push((
            "model.ns_per_sim".into(),
            if samples > 0.0 {
                busy_ms * 1e6 / samples
            } else {
                0.0
            },
            "ns",
        ));
        out.push((
            "runtime.mc_calls".into(),
            self.per_round("runtime.mc_calls"),
            "count",
        ));
        out.push(("runtime.mc_wall_ms".into(), mc_wall_ms, "ms"));
        out.push((
            "runtime.batch_samples_p50".into(),
            self.per_round("runtime.batch_samples_p50"),
            "count",
        ));
        out.push((
            "runtime.samples_requested".into(),
            self.per_round("runtime.samples_requested"),
            "count",
        ));
        out.push((
            "runtime.sims_executed".into(),
            self.per_round("runtime.sims_executed"),
            "count",
        ));
        let served = self.per_round("runtime.served");
        out.push((
            "runtime.cache_hit_ratio".into(),
            if served > 0.0 {
                self.per_round("runtime.cache_hits") / served
            } else {
                0.0
            },
            "ratio",
        ));
        out.push((
            "runtime.evictions".into(),
            self.per_round("runtime.evictions"),
            "count",
        ));
        out.push((
            "runtime.cache_bytes_peak".into(),
            self.layer
                .get("runtime.cache_bytes_peak")
                .copied()
                .unwrap_or(0.0),
            "bytes",
        ));
        let dispatch_ms = mc_wall_ms + self.per_round("runtime.nominal_wall_ms");
        out.push((
            "runtime.worker_util".into(),
            if dispatch_ms > 0.0 {
                busy_ms / (dispatch_ms * self.workers.max(1.0))
            } else {
                0.0
            },
            "ratio",
        ));
        out.push((
            "sampling.estimate_calls".into(),
            self.per_round("sampling.estimate_calls"),
            "count",
        ));
        out.push((
            "sampling.estimate_ms".into(),
            self.per_round("sampling.estimate_ms"),
            "ms",
        ));
        for (name, _) in PHASES {
            for (field, unit) in [("self_ms", "ms"), ("sims", "count"), ("spans", "count")] {
                let key = format!("core.{name}.{field}");
                out.push((key.clone(), self.per_round(&key), unit));
            }
        }
        let drive_ms = self.drive_ms / self.rounds.max(1.0);
        let execute_ms = self.execute_ms / self.rounds.max(1.0);
        let callback_ms = self.callback_ms / self.rounds.max(1.0);
        out.push((
            "exec.cells".into(),
            self.cells / self.rounds.max(1.0),
            "count",
        ));
        out.push(("exec.execute_ms".into(), execute_ms, "ms"));
        out.push((
            "exec.self_ms".into(),
            drive_ms - execute_ms - callback_ms,
            "ms",
        ));
        out
    }
}
