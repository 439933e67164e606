//! Engine-side observability glue: tracer probe wiring and Prometheus
//! exposition of engine counters.

use crate::engine::EvalEngine;
use crate::stats::EngineStatsSnapshot;
use moheco_obs::prometheus::{push_header, push_sample, render_phase_metrics};
use moheco_obs::{PhaseBreakdown, ProbeCounters, Tracer};
use std::sync::Arc;

/// Installs `engine`'s counters as the budget-attribution probe of `tracer`.
///
/// After this call, every simulation, cache hit and eviction the engine
/// performs while a span is active is attributed to the innermost phase.
/// Reading the probe only loads relaxed atomics, and the tracer reads it at
/// span boundaries only — the engine itself is untouched, so a traced run
/// produces bit-identical yields, counters and digests to an untraced one.
pub fn attach_engine_probe(tracer: &Tracer, engine: &Arc<dyn EvalEngine>) {
    if !tracer.is_enabled() {
        return;
    }
    let engine = Arc::clone(engine);
    tracer.set_probe(move || {
        let stats = engine.stats();
        ProbeCounters {
            simulations: engine.simulations(),
            cache_hits: stats.cache_hits,
            evictions: stats.evicted_blocks,
        }
    });
}

/// Renders an engine snapshot plus a phase breakdown in the Prometheus text
/// exposition format — the campaign process's metrics endpoint.
///
/// Engine counters come out as `moheco_engine_<counter>` counter families
/// (plus a `moheco_engine_cache_hit_ratio` gauge); phase attribution follows
/// via [`moheco_obs::prometheus::render_phase_metrics`].
pub fn render_prometheus(stats: &EngineStatsSnapshot, breakdown: &PhaseBreakdown) -> String {
    let mut out = String::new();
    for (name, value) in stats.counter_fields() {
        let metric = format!("moheco_engine_{name}");
        push_header(
            &mut out,
            &metric,
            "counter",
            "Engine counter (see EngineStatsSnapshot).",
        );
        push_sample(&mut out, &metric, &[], value as f64);
    }
    push_header(
        &mut out,
        "moheco_engine_cache_hit_ratio",
        "gauge",
        "Fraction of served work answered by the cache.",
    );
    push_sample(
        &mut out,
        "moheco_engine_cache_hit_ratio",
        &[],
        stats.hit_rate(),
    );
    out.push_str(&render_phase_metrics(breakdown));
    out
}

/// One engine's current cache footprint inside a pool, labelled for
/// exposition (the campaign labels by scenario, the service by
/// `tenant/scenario/estimator`).
///
/// Exists because `SimCache::bytes()` was only ever reported *per engine*:
/// nothing summed it across a pool, so a campaign or service enforcing
/// per-tenant quotas on top of `max_cached_blocks` had no observable
/// pool-level total. [`render_pool_cache`] closes that gap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineCacheUsage {
    /// Stable exposition label of the engine within the pool.
    pub label: String,
    /// Cached simulation blocks currently retained.
    pub blocks: usize,
    /// Estimated bytes of cached outcomes currently retained.
    pub bytes: usize,
}

/// Renders a pool's per-engine cache breakdown plus the pool-level totals in
/// the Prometheus text exposition format.
///
/// Families: `moheco_pool_engines` (gauge), `moheco_pool_cache_blocks` /
/// `moheco_pool_cache_bytes` (per-engine gauges, `engine` label), and
/// `moheco_pool_cache_blocks_total` / `moheco_pool_cache_bytes_total`.
/// These are deliberately *separate* families from the
/// `moheco_engine_<counter>` ones: the counter schema feeds gated baselines
/// and must not grow gauge fields.
pub fn render_pool_cache(usage: &[EngineCacheUsage]) -> String {
    let mut out = String::new();
    push_header(
        &mut out,
        "moheco_pool_engines",
        "gauge",
        "Engines currently alive in the pool.",
    );
    push_sample(&mut out, "moheco_pool_engines", &[], usage.len() as f64);
    push_header(
        &mut out,
        "moheco_pool_cache_blocks",
        "gauge",
        "Cached simulation blocks retained by each pool engine.",
    );
    for u in usage {
        push_sample(
            &mut out,
            "moheco_pool_cache_blocks",
            &[("engine", &u.label)],
            u.blocks as f64,
        );
    }
    push_header(
        &mut out,
        "moheco_pool_cache_bytes",
        "gauge",
        "Estimated cached bytes retained by each pool engine.",
    );
    for u in usage {
        push_sample(
            &mut out,
            "moheco_pool_cache_bytes",
            &[("engine", &u.label)],
            u.bytes as f64,
        );
    }
    let blocks_total: usize = usage.iter().map(|u| u.blocks).sum();
    let bytes_total: usize = usage.iter().map(|u| u.bytes).sum();
    push_header(
        &mut out,
        "moheco_pool_cache_blocks_total",
        "gauge",
        "Cached simulation blocks retained across the whole pool.",
    );
    push_sample(
        &mut out,
        "moheco_pool_cache_blocks_total",
        &[],
        blocks_total as f64,
    );
    push_header(
        &mut out,
        "moheco_pool_cache_bytes_total",
        "gauge",
        "Estimated cached bytes retained across the whole pool.",
    );
    push_sample(
        &mut out,
        "moheco_pool_cache_bytes_total",
        &[],
        bytes_total as f64,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::model::McRequest;
    use crate::SimulationModel;
    use moheco_obs::Span;

    struct Toy;
    impl SimulationModel for Toy {
        fn unit_dimension(&self) -> usize {
            1
        }
        fn simulate_point(&self, x: &[f64], u: &[f64]) -> f64 {
            if u[0] < x[0] {
                1.0
            } else {
                0.0
            }
        }
        fn nominal(&self, x: &[f64]) -> Vec<f64> {
            vec![x[0]]
        }
    }

    #[test]
    fn probe_attributes_engine_work_to_phases() {
        let engine: Arc<dyn EvalEngine> =
            Arc::new(Engine::new(EngineConfig::default().with_workers(1)));
        let tracer = Tracer::aggregating();
        attach_engine_probe(&tracer, &engine);
        let req = McRequest::new(vec![0.5], 0, 100);
        {
            let _run = Span::enter(&tracer, "run");
            engine.mc_outcomes(&Toy, std::slice::from_ref(&req));
            {
                let _rerun = Span::enter(&tracer, "reread");
                // Same samples again: pure cache hits, zero simulations.
                engine.mc_outcomes(&Toy, std::slice::from_ref(&req));
            }
        }
        let b = tracer.breakdown();
        assert_eq!(b.get("run").unwrap().simulations, 100);
        assert_eq!(b.get("run/reread").unwrap().simulations, 0);
        assert_eq!(b.get("run/reread").unwrap().cache_hits, 100);
        assert_eq!(b.total_simulations(), engine.simulations());
    }

    #[test]
    fn pool_cache_exposition_reports_breakdown_and_totals() {
        let usage = vec![
            EngineCacheUsage {
                label: "acme/margin_wall/mc".to_string(),
                blocks: 3,
                bytes: 1_200,
            },
            EngineCacheUsage {
                label: "beta/margin_wall/mc".to_string(),
                blocks: 5,
                bytes: 2_000,
            },
        ];
        let text = render_pool_cache(&usage);
        assert!(text.contains("moheco_pool_engines 2"));
        assert!(text.contains("moheco_pool_cache_blocks{engine=\"acme/margin_wall/mc\"} 3"));
        assert!(text.contains("moheco_pool_cache_bytes{engine=\"beta/margin_wall/mc\"} 2000"));
        assert!(text.contains("moheco_pool_cache_blocks_total 8"));
        assert!(text.contains("moheco_pool_cache_bytes_total 3200"));
        // An empty pool still renders well-formed totals.
        let empty = render_pool_cache(&[]);
        assert!(empty.contains("moheco_pool_engines 0"));
        assert!(empty.contains("moheco_pool_cache_bytes_total 0"));
    }

    #[test]
    fn probe_on_a_disabled_tracer_is_a_no_op() {
        let engine: Arc<dyn EvalEngine> =
            Arc::new(Engine::new(EngineConfig::default().with_workers(1)));
        let tracer = Tracer::disabled();
        attach_engine_probe(&tracer, &engine);
        let _span = Span::enter(&tracer, "run");
        assert!(tracer.breakdown().is_empty());
    }

    #[test]
    fn prometheus_snapshot_includes_engine_and_phase_families() {
        let engine: Arc<dyn EvalEngine> =
            Arc::new(Engine::new(EngineConfig::default().with_workers(1)));
        let tracer = Tracer::aggregating();
        attach_engine_probe(&tracer, &engine);
        {
            let _run = Span::enter(&tracer, "run");
            let req = McRequest::new(vec![0.5], 0, 50);
            engine.mc_outcomes(&Toy, std::slice::from_ref(&req));
        }
        let text = render_prometheus(&engine.stats(), &tracer.breakdown());
        assert!(text.contains("moheco_engine_simulations_run 50"));
        assert!(text.contains("moheco_engine_cache_hit_ratio"));
        assert!(text.contains("moheco_phase_simulations_total{phase=\"run\"} 50"));
        assert!(
            !text.contains("busy_nanos"),
            "wall-clock timing is not part of the counter snapshot"
        );
    }
}
