//! Acceptance tests for the observability layer: attribution completeness,
//! no-op bit-identity, serial/parallel attribution equality, and
//! `moheco-profile` reading back what `JsonlCollector` writes.

use moheco_bench::{Algo, BudgetClass, EngineKind, RunSpec};
use moheco_obs::{Collector, JsonlCollector, MemoryCollector, SpanEvent, Tracer};
use moheco_sampling::EstimatorKind;
use moheco_scenarios::find_scenario;
use std::sync::Arc;

fn traced(
    scenario: &str,
    seed: u64,
    budget: BudgetClass,
    engine: EngineKind,
    tracer: &Tracer,
) -> moheco_bench::results::ScenarioResult {
    RunSpec::new(
        find_scenario(scenario).expect("registered").as_ref(),
        Algo::Memetic,
    )
    .budget(budget)
    .seed(seed)
    .engine(engine.build_configured(seed, EstimatorKind::default()))
    .tracer(tracer)
    .execute()
}

#[test]
fn per_phase_simulations_sum_exactly_to_the_engine_counter() {
    let tracer = Tracer::aggregating();
    let result = traced(
        "margin_wall",
        1,
        BudgetClass::Tiny,
        EngineKind::Serial,
        &tracer,
    );
    let breakdown = &result.phase_breakdown;
    assert!(!breakdown.is_empty());
    assert_eq!(
        breakdown.total_simulations(),
        result.engine_stats.simulations_run,
        "every simulation must be attributed to exactly one phase"
    );
    assert_eq!(breakdown.total_cache_hits(), result.engine_stats.cache_hits);
    // The two-stage taxonomy shows up as distinct phases.
    for phase in [
        "run",
        "run/optimize",
        "run/optimize/screening",
        "run/optimize/estimation/stage1/ocba_round",
        "run/optimize/estimation/stage2_promotion",
    ] {
        assert!(breakdown.get(phase).is_some(), "missing phase {phase}");
    }
}

#[test]
fn nm_refinement_is_attributed_as_its_own_phase() {
    // quadratic_feasibility at seed 3 is a pinned cell where the memetic
    // improvement tracker actually triggers Nelder-Mead refinement.
    let tracer = Tracer::aggregating();
    let result = traced(
        "quadratic_feasibility",
        3,
        BudgetClass::Small,
        EngineKind::Serial,
        &tracer,
    );
    assert!(result.local_searches > 0, "the NM trigger must have fired");
    let nm = result
        .phase_breakdown
        .get("run/optimize/nm_refine")
        .expect("nm_refine phase recorded");
    assert!(nm.simulations > 0);
    assert_eq!(
        result.phase_breakdown.total_simulations(),
        result.engine_stats.simulations_run
    );
}

#[test]
fn disabled_and_enabled_tracing_are_bit_identical_to_an_untraced_run() {
    let plain = RunSpec::new(
        find_scenario("margin_wall").expect("registered").as_ref(),
        Algo::Memetic,
    )
    .budget(BudgetClass::Tiny)
    .seed(1)
    .engine(EngineKind::Serial.build_configured(1, EstimatorKind::default()))
    .execute();
    let collector = Arc::new(MemoryCollector::new());
    let enabled = traced(
        "margin_wall",
        1,
        BudgetClass::Tiny,
        EngineKind::Serial,
        &Tracer::new(collector.clone()),
    );
    assert!(!collector.spans().is_empty(), "spans must have streamed");
    let disabled = traced(
        "margin_wall",
        1,
        BudgetClass::Tiny,
        EngineKind::Serial,
        &Tracer::disabled(),
    );
    assert!(disabled.phase_breakdown.is_empty());
    for result in [&enabled, &disabled] {
        assert_eq!(result.best_yield.to_bits(), plain.best_yield.to_bits());
        assert_eq!(
            result.ci_half_width.to_bits(),
            plain.ci_half_width.to_bits()
        );
        assert_eq!(result.trace_digest, plain.trace_digest);
        assert_eq!(result.simulations, plain.simulations);
        assert_eq!(result.engine_stats, plain.engine_stats);
    }
}

#[test]
fn parallel_attribution_matches_serial() {
    // Spans live on the orchestration thread and the probe is read only at
    // span boundaries (where the engine is quiescent), so the work-stealing
    // engine attributes identically to the serial one.
    let serial_tracer = Tracer::aggregating();
    let serial = traced(
        "margin_wall",
        1,
        BudgetClass::Tiny,
        EngineKind::Serial,
        &serial_tracer,
    );
    let parallel_tracer = Tracer::aggregating();
    let parallel = traced(
        "margin_wall",
        1,
        BudgetClass::Tiny,
        EngineKind::Parallel,
        &parallel_tracer,
    );
    // Digest and compact form cover paths, span counts and counters but not
    // wall time — the only field allowed to differ.
    assert_eq!(
        serial.phase_breakdown.digest(),
        parallel.phase_breakdown.digest()
    );
    assert_eq!(
        serial.phase_breakdown.to_compact(),
        parallel.phase_breakdown.to_compact()
    );
    assert_eq!(serial.best_yield.to_bits(), parallel.best_yield.to_bits());
}

#[test]
fn moheco_profile_checks_a_stream_with_escaped_control_characters() {
    let path = std::env::temp_dir().join(format!(
        "moheco-profile-escapes-{}.jsonl",
        std::process::id()
    ));
    {
        let collector = JsonlCollector::create(&path).expect("create stream");
        collector.span(&SpanEvent {
            seq: 1,
            path: "run/\"odd\"\tphase\r\n\u{1}".into(),
            depth: 1,
            simulations: 5,
            cache_hits: 1,
            evictions: 0,
            wall_nanos: 10,
        });
        collector.event(
            "run_summary",
            &[
                ("scenario", "multi\nline".to_string()),
                ("simulations_run", "5".to_string()),
                ("cache_hits", "1".to_string()),
            ],
        );
    }
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_moheco-profile"))
        .arg("--input")
        .arg(&path)
        .arg("--check")
        .output()
        .expect("run moheco-profile");
    std::fs::remove_file(&path).ok();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("check: OK"), "{stdout}");
}
