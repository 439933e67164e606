//! Every registered scenario upholds the budget-attribution invariant: under
//! a root span, the sum of per-phase self simulations equals the engine's
//! executed-simulation counter exactly — no code path spends budget outside
//! the span taxonomy.

use moheco::{MohecoConfig, YieldOptimizer, YieldStrategy};
use moheco_obs::{Span, Tracer};
use moheco_runtime::{attach_engine_probe, Engine, EngineConfig, EvalEngine};
use moheco_sampling::SamplingPlan;
use moheco_scenarios::all_scenarios;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

#[test]
fn every_scenario_attributes_its_full_budget_to_phases() {
    for scenario in all_scenarios() {
        let engine: Arc<dyn EvalEngine> = Arc::new(Engine::new(EngineConfig {
            plan: SamplingPlan::LatinHypercube,
            seed: 7,
            workers: 1,
            ..EngineConfig::default()
        }));
        let tracer = Tracer::aggregating();
        attach_engine_probe(&tracer, &engine);
        let root = Span::enter(&tracer, "run");
        let problem = scenario.build(engine.clone()).with_tracer(tracer.clone());
        let optimizer = YieldOptimizer::new(MohecoConfig {
            memetic_enabled: true,
            strategy: YieldStrategy::TwoStageOo,
            // A short run: the invariant is boundary accounting, which five
            // generations exercise as thoroughly as twenty-five.
            max_generations: 5,
            ..MohecoConfig::fast()
        });
        let mut rng = StdRng::seed_from_u64(7);
        let result = optimizer.run_from(&problem, &scenario.warm_start(), &mut rng);
        drop(root);

        let breakdown = tracer.breakdown();
        assert_eq!(
            breakdown.total_simulations(),
            engine.simulations(),
            "{}: unattributed simulations",
            scenario.name()
        );
        assert_eq!(
            breakdown.total_cache_hits(),
            problem.engine_stats().cache_hits,
            "{}: unattributed cache hits",
            scenario.name()
        );
        assert!(
            breakdown.get("run/optimize/screening").is_some(),
            "{}: screening phase missing",
            scenario.name()
        );
        // The result's own breakdown (captured inside the optimizer, while
        // the root span was still open) carries the same nested paths.
        assert!(result.phase_breakdown.get("run/optimize").is_some());
    }
}
