//! Determinism guarantees of the surrogate prescreening stage.
//!
//! * `--prescreen off` (the default) must reproduce the committed baseline
//!   results bit-for-bit — the prescreen subsystem may not perturb a single
//!   sample of an unscreened run;
//! * `--prescreen rsb` must be deterministic in the run seed, and
//!   bit-identical between the serial and parallel engines (the surrogate
//!   only ever sees measured estimates, which are engine-independent).

use moheco::PrescreenKind;
use moheco_bench::results::parse_flat_json;
use moheco_bench::{Algo, BudgetClass, EngineKind, RunSpec};
use moheco_sampling::EstimatorKind;
use moheco_scenarios::find_scenario;
use std::path::Path;

fn run(
    algo: Algo,
    seed: u64,
    engine: EngineKind,
    prescreen: PrescreenKind,
) -> moheco_bench::results::ScenarioResult {
    let scenario = find_scenario("margin_wall").expect("registered");
    RunSpec::new(scenario.as_ref(), algo)
        .budget(BudgetClass::Small)
        .seed(seed)
        .engine_kind(engine)
        .estimator(EstimatorKind::default())
        .prescreen(prescreen)
        .execute()
}

#[test]
fn prescreen_off_reproduces_the_committed_baseline_bit_for_bit() {
    // The committed baseline is a 3-seed aggregate (schema v4); a fresh
    // unscreened seed-1 run must reproduce the first per-seed trace digest
    // bit-for-bit and land inside the aggregate's observed yield range.
    let baseline_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines/RESULTS_margin_wall.json");
    let baseline = parse_flat_json(&std::fs::read_to_string(baseline_path).expect("baseline"))
        .expect("well-formed baseline");
    assert_eq!(baseline.str("seeds"), Some("1,2,3"), "3-seed aggregate");
    let fresh = run(Algo::Memetic, 1, EngineKind::Serial, PrescreenKind::Off);
    let digests = baseline.str("trace_digests").expect("per-seed digests");
    assert_eq!(
        Some(fresh.trace_digest.as_str()),
        digests.split(',').next(),
        "seed-1 trace digest drifted from the committed baseline"
    );
    let lo = baseline.num("best_yield_min").expect("min");
    let hi = baseline.num("best_yield_max").expect("max");
    assert!(
        (lo..=hi).contains(&fresh.best_yield),
        "seed-1 yield {} outside the committed range [{lo}, {hi}]",
        fresh.best_yield
    );
    assert_eq!(fresh.prescreen, "off");
    assert_eq!(fresh.prescreen_skips, 0);
}

#[test]
fn prescreen_rsb_is_deterministic_in_the_seed() {
    let (a, b, c) = (
        run(Algo::Memetic, 1, EngineKind::Serial, PrescreenKind::Rsb),
        run(Algo::Memetic, 1, EngineKind::Serial, PrescreenKind::Rsb),
        run(Algo::Memetic, 2, EngineKind::Serial, PrescreenKind::Rsb),
    );
    assert_eq!(a.trace_digest, b.trace_digest);
    assert_eq!(a.best_yield, b.best_yield);
    assert_eq!(a.simulations, b.simulations);
    assert_eq!(a.prescreen_skips, b.prescreen_skips);
    assert!(
        c.trace_digest != a.trace_digest || c.simulations != a.simulations,
        "different seeds should differ"
    );
}

#[test]
fn prescreen_rsb_parallel_matches_serial() {
    let serial = run(Algo::Memetic, 1, EngineKind::Serial, PrescreenKind::Rsb);
    let parallel = run(Algo::Memetic, 1, EngineKind::Parallel, PrescreenKind::Rsb);
    assert_eq!(serial.trace_digest, parallel.trace_digest);
    assert_eq!(serial.best_yield, parallel.best_yield);
    assert_eq!(serial.simulations, parallel.simulations);
    assert_eq!(serial.prescreen_skips, parallel.prescreen_skips);
}

#[test]
fn prescreen_rsb_engages_and_saves_simulations_on_margin_wall() {
    let off = run(Algo::Memetic, 1, EngineKind::Serial, PrescreenKind::Off);
    let rsb = run(Algo::Memetic, 1, EngineKind::Serial, PrescreenKind::Rsb);
    assert!(rsb.prescreen_skips > 0, "the screen never engaged");
    assert!(
        rsb.simulations < off.simulations,
        "rsb {} vs off {}",
        rsb.simulations,
        off.simulations
    );
    assert!(
        (rsb.best_yield - off.best_yield).abs() <= moheco_bench::results::YIELD_TOLERANCE,
        "yield drifted: rsb {} off {}",
        rsb.best_yield,
        off.best_yield
    );
}

#[test]
fn de_trial_filter_is_seed_deterministic() {
    let a = run(Algo::De, 3, EngineKind::Serial, PrescreenKind::Rsb);
    let b = run(Algo::De, 3, EngineKind::Serial, PrescreenKind::Rsb);
    assert_eq!(a.trace_digest, b.trace_digest);
    assert_eq!(a.simulations, b.simulations);
    assert_eq!(a.prescreen_skips, b.prescreen_skips);
    // The unfiltered run differs once the filter engages (it may not on
    // every seed, but the result must still be well-formed).
    assert!(a.best_yield >= 0.0 && a.best_yield <= 1.0);
}
