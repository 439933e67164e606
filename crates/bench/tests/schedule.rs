//! Scheduler-level guarantees of the campaign layer.
//!
//! * The [`FixedGrid`] refactor changed **nothing**: a fixed campaign's
//!   JSONL is byte-identical to the committed pre-refactor golden file.
//! * An `ocba` campaign's JSONL is byte-identical to its committed golden
//!   file, so the adaptive schedule's floor, gate and allocation are
//!   pinned too.
//! * A killed `--schedule ocba` campaign — including one killed mid-row-
//!   write — re-derives the identical schedule on resume and appends
//!   byte-identical remaining rows, because scheduler state is rebuilt
//!   purely from the rows consumed in schedule order.
//! * The adaptive schedule honors the min-seeds floor: no group ever
//!   gates on fewer than `min(min_seeds, pool)` observations.
//! * The schedule is observable: one `campaign/schedule` span and one
//!   `campaign_schedule` event per allocation round.

use moheco_bench::campaign::{run_campaign, run_campaign_traced};
use moheco_bench::results::parse_flat_json;
use moheco_bench::{Algo, BudgetClass, JobSpec, OcbaSchedule, ScheduleKind};
use moheco_obs::{MemoryCollector, Tracer};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

fn ocba_spec() -> JobSpec {
    JobSpec {
        scenarios: vec![
            "margin_wall".to_string(),
            "quadratic_feasibility".to_string(),
        ],
        algos: vec![Algo::TwoStage],
        budget: BudgetClass::Tiny,
        seeds: (1..=6).collect(),
        schedule: ScheduleKind::Ocba,
        ..JobSpec::default()
    }
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("moheco-schedule-suite-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join("campaign.jsonl")
}

#[test]
fn fixed_campaign_matches_the_pre_refactor_golden_file() {
    // The golden file was produced by the pre-scheduler campaign loop (the
    // literal triple-nested rectangle) at the commit before this refactor.
    // The FixedGrid path must keep reproducing it byte for byte.
    let path = temp_path("golden");
    let spec = JobSpec {
        scenarios: vec!["margin_wall".to_string()],
        algos: vec![Algo::TwoStage],
        budget: BudgetClass::Tiny,
        seeds: vec![1, 2, 3],
        schedule: ScheduleKind::Fixed,
        ..JobSpec::default()
    };
    run_campaign(&spec, &path, |_| {}).expect("fixed campaign");
    let produced = std::fs::read(&path).expect("rows on disk");
    let golden = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/golden_fixed_campaign.jsonl"
    ))
    .expect("committed golden file");
    assert_eq!(
        produced, golden,
        "FixedGrid campaign drifted from the pre-refactor byte stream"
    );
}

#[test]
fn ocba_campaign_matches_the_golden_file() {
    // Pins the adaptive schedule's bytes: at tiny these groups stop at 5, 8
    // and 8 of their 8 seeds, so phase-B OCBA grants across several arms
    // shape the file. Any change to the floor, the gate or the allocation
    // rule shows up here as a diff.
    let path = temp_path("golden-ocba");
    let spec = JobSpec {
        scenarios: vec![
            "margin_wall".to_string(),
            "quadratic_feasibility".to_string(),
            "two_basin".to_string(),
        ],
        algos: vec![Algo::TwoStage],
        budget: BudgetClass::Tiny,
        seeds: (1..=8).collect(),
        schedule: ScheduleKind::Ocba,
        ..JobSpec::default()
    };
    run_campaign(&spec, &path, |_| {}).expect("ocba campaign");
    let produced = std::fs::read(&path).expect("rows on disk");
    let golden = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/golden_ocba_campaign.jsonl"
    ))
    .expect("committed golden file");
    assert_eq!(
        produced, golden,
        "ocba campaign drifted from the committed byte stream"
    );
}

#[test]
fn killed_ocba_campaign_resumes_byte_identically() {
    // Reference: one uninterrupted adaptive campaign.
    let full_path = temp_path("ocba-full");
    let spec = ocba_spec();
    let full_report = run_campaign(&spec, &full_path, |_| {}).expect("uninterrupted");
    let full_bytes = std::fs::read(&full_path).expect("full file");
    let full_rows = full_bytes.iter().filter(|&&b| b == b'\n').count();
    assert!(
        full_rows >= 4,
        "need several rows to truncate mid-campaign, got {full_rows}"
    );
    assert_eq!(full_report.schedule.scheduled, full_rows);
    assert_eq!(full_report.executed, full_rows);
    assert!(
        full_report.schedule.rounds >= 2,
        "an adaptive campaign at this spec should take multiple rounds"
    );

    // "Kill" it mid-round: keep the first four complete rows plus a torn
    // partial row, exactly what a mid-write kill leaves on disk.
    let killed_path = temp_path("ocba-killed");
    let text = String::from_utf8(full_bytes.clone()).expect("utf8");
    let mut keep: String = text.lines().take(4).map(|l| format!("{l}\n")).collect();
    keep.push_str("{\"schema_version\": 5, \"scenario\": \"quadratic_fea"); // torn write
    std::fs::write(&killed_path, &keep).expect("partial file");
    std::fs::copy(
        full_path.with_extension("jsonl.spec"),
        killed_path.with_extension("jsonl.spec"),
    )
    .expect("spec sidecar survives a kill");

    // The resumed process must rebuild the scheduler state from the four
    // rows on disk, reach the identical next allocation, and append
    // byte-identical remaining rows.
    let resumed_report = run_campaign(&spec, &killed_path, |_| {}).expect("resume");
    assert_eq!(resumed_report.resumed, 4, "four complete rows were skipped");
    assert_eq!(resumed_report.executed, full_rows - 4);
    assert_eq!(resumed_report.schedule.resumed, 4);
    assert_eq!(resumed_report.schedule.executed, full_rows - 4);
    assert_eq!(resumed_report.schedule.scheduled, full_rows);
    assert_eq!(resumed_report.schedule.rounds, full_report.schedule.rounds);
    assert_eq!(
        resumed_report.schedule.seeds_saved,
        full_report.schedule.seeds_saved
    );
    let resumed_bytes = std::fs::read(&killed_path).expect("resumed file");
    assert_eq!(
        resumed_bytes, full_bytes,
        "resumed adaptive campaign JSONL differs from the uninterrupted run"
    );
    let full_aggregates: Vec<String> = full_report.aggregates.iter().map(|a| a.to_json()).collect();
    let resumed_aggregates: Vec<String> = resumed_report
        .aggregates
        .iter()
        .map(|a| a.to_json())
        .collect();
    assert_eq!(resumed_aggregates, full_aggregates);
}

#[test]
fn ocba_campaign_honors_the_min_seeds_floor() {
    let path = temp_path("floor");
    let spec = ocba_spec();
    let report = run_campaign(&spec, &path, |_| {}).expect("adaptive campaign");

    let floor = OcbaSchedule::default().min_seeds.min(spec.seeds.len());
    let text = std::fs::read_to_string(&path).expect("rows");
    let mut seeds_by_group: HashMap<String, Vec<u64>> = HashMap::new();
    for line in text.lines() {
        let row = parse_flat_json(line).expect("row");
        let key = format!(
            "{}/{}",
            row.str("scenario").unwrap(),
            row.str("algo").unwrap()
        );
        seeds_by_group
            .entry(key)
            .or_default()
            .push(row.num("seed").unwrap() as u64);
    }
    assert_eq!(
        seeds_by_group.len(),
        spec.scenarios.len() * spec.algos.len()
    );
    for (group, seeds) in &seeds_by_group {
        assert!(
            seeds.len() >= floor,
            "{group} gated on {} seed(s), floor is {floor}",
            seeds.len()
        );
    }
    // The outcome's savings accounting matches the rows on disk.
    let used: usize = seeds_by_group.values().map(Vec::len).sum();
    assert_eq!(
        report.schedule.seeds_saved,
        spec.cells() - used,
        "seeds_saved disagrees with the row log"
    );
}

#[test]
fn schedule_rounds_are_observable_as_spans_and_events() {
    let path = temp_path("obs");
    let collector = Arc::new(MemoryCollector::new());
    let tracer = Tracer::new(collector.clone());
    let report =
        run_campaign_traced(&ocba_spec(), &path, &tracer, |_| {}).expect("traced campaign");

    // Every allocation round (plus the final empty one that ends the
    // campaign) runs under a `campaign/schedule` span...
    let schedule_spans = collector
        .spans()
        .iter()
        .filter(|s| s.path == "campaign/schedule")
        .count();
    assert_eq!(schedule_spans, report.schedule.rounds + 1);

    // ...and every non-empty round emits one `campaign_schedule` event
    // carrying the scheduler label and the round's cell count.
    let rounds: Vec<_> = collector
        .events()
        .into_iter()
        .filter(|(kind, _)| kind == "campaign_schedule")
        .collect();
    assert_eq!(rounds.len(), report.schedule.rounds);
    let mut cells_announced = 0;
    for (_, fields) in &rounds {
        let field = |k: &str| {
            fields
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("campaign_schedule event missing {k:?}"))
        };
        assert_eq!(field("schedule"), "ocba");
        cells_announced += field("cells").parse::<usize>().expect("cell count");
    }
    assert_eq!(cells_announced, report.schedule.scheduled);
}
