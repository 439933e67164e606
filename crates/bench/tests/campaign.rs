//! Determinism guarantees of the campaign layer.
//!
//! * A campaign's per-seed rows are **bit-identical** to standalone
//!   [`RunSpec::execute`] runs of the same
//!   `(scenario, algo, budget, seed, estimator)` — engine reuse
//!   with a per-cell reset changes nothing — so the paper tables'
//!   cells are campaign rows.
//! * A **killed-and-resumed** campaign (including one killed mid-row-write)
//!   produces byte-identical JSONL and aggregate output to an uninterrupted
//!   one.
//! * The **shared-cache** reuse mode preserves every yield and trajectory
//!   decision (sample streams are seed-keyed pure functions); only executed-
//!   simulation counters shrink.
//! * **Eviction** under `max_cached_blocks` preserves yields, and a bounded
//!   parallel engine matches a bounded serial engine bit-for-bit, trace
//!   digests and counters included.
//! * Fresh `memetic` runs reproduce the committed `baselines/` aggregate
//!   of `margin_wall` seed for seed.

use moheco_bench::campaign::run_campaign;
use moheco_bench::results::parse_flat_json;
use moheco_bench::{
    Algo, BudgetClass, EngineKind, EngineReuse, JobSpec, MethodRows, PrescreenKind, RunSpec,
    ScheduleKind,
};
use moheco_sampling::EstimatorKind;
use moheco_scenarios::find_scenario;
use std::path::{Path, PathBuf};

fn spec(reuse: EngineReuse, engine_kind: EngineKind, max_cached_blocks: usize) -> JobSpec {
    JobSpec {
        scenarios: vec![
            "margin_wall".to_string(),
            "quadratic_feasibility".to_string(),
        ],
        algos: vec![Algo::TwoStage],
        budget: BudgetClass::Tiny,
        seeds: vec![1, 2, 3],
        engine: engine_kind,
        estimator: EstimatorKind::default(),
        prescreen: PrescreenKind::Off,
        reuse,
        max_cached_blocks,
        schedule: ScheduleKind::Fixed,
    }
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("moheco-campaign-suite-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join("campaign.jsonl")
}

#[test]
fn paper_table_cells_are_campaign_rows() {
    // A paper table's method runs standalone `RunSpec` cells; its
    // `memetic`, `two-stage` and middle-`fixed` rows must be the rows a
    // campaign over the same scenarios, algos, budget and seeds writes.
    let budget = BudgetClass::Tiny;
    let algos = [Algo::Memetic, Algo::TwoStage, Algo::Fixed];
    let spec = JobSpec {
        scenarios: ["margin_wall", "quadratic_feasibility", "folded_cascode"]
            .map(String::from)
            .to_vec(),
        algos: algos.to_vec(),
        seeds: (1..=budget.table_runs()).collect(),
        ..spec(EngineReuse::Reset, EngineKind::Serial, 0)
    };
    let path = temp_path("paper-tables");
    run_campaign(&spec, &path, |_| {}).expect("campaign runs");
    let text = std::fs::read_to_string(&path).expect("rows on disk");
    let mut lines = text.lines();
    for name in &spec.scenarios {
        let scenario = find_scenario(name).expect("registered");
        for algo in algos {
            let sims = (algo == Algo::Fixed).then(|| budget.fixed_budgets()[1]);
            let table = MethodRows::run(scenario.as_ref(), algo, sims, budget, EngineKind::Serial);
            assert_eq!(table.deviations_pp.len() as u64, budget.table_runs());
            for result in &table.results {
                let row = lines.next().expect("one row per cell");
                assert_eq!(
                    format!("{row}\n"),
                    result.to_jsonl_row(),
                    "{name}/{}/seed {}: table cell differs from the campaign row",
                    algo.label(),
                    result.seed
                );
            }
        }
    }
    assert!(lines.next().is_none(), "no extra rows");
}

#[test]
fn killed_campaign_resumes_byte_identically() {
    // Reference: one uninterrupted campaign.
    let full_path = temp_path("resume-full");
    let s = spec(EngineReuse::Reset, EngineKind::Serial, 0);
    let full_report = run_campaign(&s, &full_path, |_| {}).expect("uninterrupted");
    let full_bytes = std::fs::read(&full_path).expect("full file");
    let full_aggregates: Vec<String> = full_report.aggregates.iter().map(|a| a.to_json()).collect();

    // "Kill" mid-campaign: keep the first two complete rows plus a torn
    // partial row (a mid-write kill leaves exactly this shape on disk,
    // alongside the intact spec fingerprint sidecar).
    let killed_path = temp_path("resume-killed");
    let text = String::from_utf8(full_bytes.clone()).expect("utf8");
    let mut keep: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
    keep.push_str("{\"schema_version\": 4, \"scenario\": \"margin_w"); // torn write
    std::fs::write(&killed_path, &keep).expect("partial file");
    std::fs::copy(
        full_path.with_extension("jsonl.spec"),
        killed_path.with_extension("jsonl.spec"),
    )
    .expect("spec sidecar survives a kill");

    let resumed_report = run_campaign(&s, &killed_path, |_| {}).expect("resume");
    assert_eq!(resumed_report.resumed, 2, "two complete rows were skipped");
    assert_eq!(resumed_report.executed, s.cells() - 2);
    let resumed_bytes = std::fs::read(&killed_path).expect("resumed file");
    assert_eq!(
        resumed_bytes, full_bytes,
        "resumed campaign JSONL differs from the uninterrupted run"
    );
    let resumed_aggregates: Vec<String> = resumed_report
        .aggregates
        .iter()
        .map(|a| a.to_json())
        .collect();
    assert_eq!(resumed_aggregates, full_aggregates);
}

#[test]
fn shared_cache_reuse_preserves_yields_and_trajectories() {
    // Two algorithms over the same seeds: their initial populations (a pure
    // function of the run seed) coincide, so the second algorithm's stage-1
    // estimates can be served from the first one's warm cache. Different
    // *seeds* never share Monte-Carlo blocks (streams are seed-keyed), which
    // is exactly why the values cannot drift.
    let with_algos = |reuse| JobSpec {
        algos: vec![Algo::TwoStage, Algo::Memetic],
        ..spec(reuse, EngineKind::Serial, 0)
    };
    let reset_path = temp_path("shared-reset");
    let shared_path = temp_path("shared-warm");
    run_campaign(&with_algos(EngineReuse::Reset), &reset_path, |_| {}).expect("reset campaign");
    run_campaign(&with_algos(EngineReuse::SharedCache), &shared_path, |_| {})
        .expect("shared campaign");

    let reset_text = std::fs::read_to_string(&reset_path).unwrap();
    let shared_text = std::fs::read_to_string(&shared_path).unwrap();
    let mut warm_hits = false;
    for (r, s) in reset_text.lines().zip(shared_text.lines()) {
        let r = parse_flat_json(r).expect("reset row");
        let s = parse_flat_json(s).expect("shared row");
        // Identical search outcome...
        assert_eq!(r.str("scenario"), s.str("scenario"));
        assert_eq!(r.num("seed"), s.num("seed"));
        assert_eq!(r.num("best_yield"), s.num("best_yield"), "yield drifted");
        assert_eq!(r.num("generations"), s.num("generations"));
        assert_eq!(r.num("ci_half_width"), s.num("ci_half_width"));
        // ...while the warm cache can only reduce executed simulations.
        let (rs, ss) = (r.num("simulations").unwrap(), s.num("simulations").unwrap());
        assert!(ss <= rs, "shared-cache mode executed more simulations");
        if ss < rs {
            warm_hits = true;
        }
    }
    assert!(
        warm_hits,
        "the shared cache never served anything across cells"
    );
}

#[test]
fn bounded_cache_campaign_preserves_yields_and_parallel_matches_serial() {
    let unbounded_path = temp_path("bounded-ref");
    let bounded_path = temp_path("bounded-serial");
    let parallel_path = temp_path("bounded-parallel");
    run_campaign(
        &spec(EngineReuse::Reset, EngineKind::Serial, 0),
        &unbounded_path,
        |_| {},
    )
    .expect("unbounded campaign");
    // A bound small enough to force evictions at tiny budgets.
    run_campaign(
        &spec(EngineReuse::Reset, EngineKind::Serial, 3),
        &bounded_path,
        |_| {},
    )
    .expect("bounded campaign");
    run_campaign(
        &spec(EngineReuse::Reset, EngineKind::Parallel, 3),
        &parallel_path,
        |_| {},
    )
    .expect("bounded parallel campaign");

    let unbounded = std::fs::read_to_string(&unbounded_path).unwrap();
    let bounded = std::fs::read_to_string(&bounded_path).unwrap();
    let parallel = std::fs::read_to_string(&parallel_path).unwrap();

    let mut evictions = 0.0;
    for (u, b) in unbounded.lines().zip(bounded.lines()) {
        let u = parse_flat_json(u).expect("unbounded row");
        let b = parse_flat_json(b).expect("bounded row");
        assert_eq!(
            u.num("best_yield"),
            b.num("best_yield"),
            "eviction changed a yield"
        );
        assert_eq!(u.num("generations"), b.num("generations"));
        evictions += b.num("engine_evicted_blocks").unwrap_or(0.0);
    }
    assert!(evictions > 0.0, "the bound never forced an eviction");

    // A bounded parallel campaign is bit-identical to the bounded serial
    // one — eviction order is deterministic, so even the executed-simulation
    // counters and trace digests agree; only the engine label differs.
    for (b, p) in bounded.lines().zip(parallel.lines()) {
        assert_eq!(
            b.replace("\"engine\": \"serial\"", "\"engine\": \"parallel\""),
            p,
            "bounded parallel row diverged from serial"
        );
    }
}

#[test]
fn memetic_runs_reproduce_the_committed_baseline_bit_for_bit() {
    // The committed baseline is a 3-seed aggregate; fresh runs must
    // reproduce every per-seed trace digest bit-for-bit, the pooled
    // simulation count, and land inside the observed yield range.
    let baseline_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines/RESULTS_margin_wall.json");
    let baseline = parse_flat_json(&std::fs::read_to_string(baseline_path).expect("baseline"))
        .expect("well-formed baseline");
    assert_eq!(baseline.str("algo"), Some("memetic"));
    assert_eq!(baseline.str("seeds"), Some("1,2,3"), "3-seed aggregate");
    let digests: Vec<&str> = baseline
        .str("trace_digests")
        .expect("per-seed digests")
        .split(',')
        .collect();
    assert_eq!(digests.len(), 3);
    let lo = baseline.num("best_yield_min").expect("min");
    let hi = baseline.num("best_yield_max").expect("max");
    let scenario = find_scenario("margin_wall").expect("registered");
    let mut simulations = 0;
    for (seed, digest) in (1..=3).zip(digests) {
        let fresh = RunSpec::new(scenario.as_ref(), Algo::Memetic)
            .budget(BudgetClass::Small)
            .seed(seed)
            .engine(EngineKind::Serial.build_configured(seed, EstimatorKind::default()))
            .execute();
        assert_eq!(
            fresh.trace_digest, digest,
            "seed-{seed} trace digest drifted from the committed baseline"
        );
        assert!(
            (lo..=hi).contains(&fresh.best_yield),
            "seed-{seed} yield {} outside the committed range [{lo}, {hi}]",
            fresh.best_yield
        );
        simulations += fresh.simulations;
    }
    assert_eq!(Some(simulations as f64), baseline.num("simulations_total"));
}
