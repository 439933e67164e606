//! `schedule-study` — measures what adaptive campaign scheduling buys.
//!
//! Runs every registered scenario through two campaigns with the two-stage
//! OO algorithm — `fixed` (the full seed rectangle) vs `ocba` (seed
//! replications allocated by cross-seed variance, groups stopped once
//! their 95 % CI half-width clears the gate) — and compares, per scenario,
//! the total simulations spent and the cross-seed median yield reached.
//! Simulation totals come from the scheduler's own group accounting. A
//! scenario's medians are **equal** when they differ by no more than the
//! larger of the fixed campaign's own cross-seed CI half-width and the
//! baseline-gate tolerance ([`YIELD_TOLERANCE`]) — tighter than the fixed
//! campaign can resolve itself is a distinction without a difference. The
//! headline number is the **pooled oracle savings**: across the
//! closed-form (oracle) scenarios, `1 − total ocba sims / total fixed
//! sims`.
//!
//! Two checks run every time, and a violation exits non-zero:
//!
//! * the **min-seeds floor** — every (scenario, algo) group that stopped
//!   early must still have run at least `min(3, pool)` seeds;
//! * the **subset property** — every `ocba` row must equal, byte for byte,
//!   the `fixed` row of the same `(scenario, algo, seed)`. Under the
//!   default `engine_reuse: reset` a row is a pure function of its cell,
//!   so the adaptive campaign runs a subset of the fixed grid and can
//!   never cost more.
//!
//! With `--strict` it additionally fails unless the pooled oracle savings
//! reach [`SAVINGS_GATE_PCT`] percent with every scenario's median equal,
//! circuit scenarios included. The aggregate is written to
//! `BENCH_schedule.json` and a markdown savings table for the README is
//! printed.
//!
//! Both campaigns stream through the standard resumable
//! [`moheco_bench::CellWriter`] files under `--data-dir`, so an interrupted
//! study resumes instead of re-simulating.
//!
//! ```text
//! schedule-study [--budget tiny|small|paper] [--seeds N] [--data-dir DIR]
//!                [--out FILE] [--strict]
//! ```

use moheco_bench::campaign::run_campaign;
use moheco_bench::jobspec::seed_count;
use moheco_bench::results::{AggregateResult, YIELD_TOLERANCE};
use moheco_bench::{Algo, BudgetClass, CliArgs, GroupOutcome, JobSpec, OcbaSchedule, ScheduleKind};
use moheco_obs::json::{parse_flat_json, JsonWriter};
use moheco_scenarios::all_scenarios;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Minimum pooled percentage of simulations the adaptive schedule must save
/// across the oracle scenarios (`1 − total ocba sims / total fixed sims`)
/// under `--strict`.
const SAVINGS_GATE_PCT: f64 = 25.0;

const USAGE: &str = "usage: schedule-study [--budget tiny|small|paper] \
[--seeds N] [--data-dir DIR] [--out FILE] [--strict]";

struct Row {
    scenario: String,
    oracle: bool,
    sims_fixed: u64,
    sims_ocba: u64,
    median_fixed: f64,
    median_ocba: f64,
    ci_fixed: f64,
    ci_ocba: f64,
    seeds_used: usize,
    seeds_saved: usize,
    median_equal: bool,
}

fn fail(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn find<'a>(aggregates: &'a [AggregateResult], scenario: &str) -> Option<&'a AggregateResult> {
    aggregates.iter().find(|a| a.scenario == scenario)
}

fn group_of<'a>(groups: &'a [GroupOutcome], scenario: &str) -> Option<&'a GroupOutcome> {
    groups
        .iter()
        .find(|g| g.scenario == scenario && g.algo == "two-stage")
}

/// A campaign row's cell: `(scenario, algo, seed)`.
type CellKey = (String, String, u64);

/// The rows of a campaign file in file order, each with its cell and its
/// exact line.
fn rows_by_cell(path: &Path) -> Result<Vec<(CellKey, String)>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let row = parse_flat_json(line).map_err(|e| format!("{}: {e}", path.display()))?;
            let key = (
                row.str("scenario").unwrap_or_default().to_string(),
                row.str("algo").unwrap_or_default().to_string(),
                row.num("seed").unwrap_or(-1.0) as u64,
            );
            Ok((key, line.to_string()))
        })
        .collect()
}

/// Every `ocba` row that is not byte-identical to the `fixed` row of the
/// same cell, as one message each.
fn subset_violations(fixed: &Path, ocba: &Path) -> Result<Vec<String>, String> {
    let fixed: HashMap<_, _> = rows_by_cell(fixed)?.into_iter().collect();
    Ok(rows_by_cell(ocba)?
        .into_iter()
        .filter(|(key, line)| fixed.get(key) != Some(line))
        .map(|((scenario, algo, seed), _)| {
            format!("{scenario}/{algo}/seed {seed}: ocba row differs from the fixed row")
        })
        .collect())
}

fn main() -> ExitCode {
    let args = CliArgs::parse();
    if let Err(e) = args.expect_only(
        &["--strict"],
        &["--budget", "--seeds", "--data-dir", "--out"],
    ) {
        return fail(&e);
    }
    let budget = match args.parsed_or("--budget", BudgetClass::Tiny, BudgetClass::parse) {
        Ok(b) => b,
        Err(e) => return fail(&e),
    };
    let seed_pool = match args.u64_of("--seeds", 8).and_then(seed_count) {
        Ok(s) => s,
        Err(e) => return fail(&format!("--seeds: {e}")),
    };
    let seeds = seed_pool.len() as u64;
    let data_dir = match args.value_of("--data-dir") {
        Err(e) => return fail(&e),
        Ok(v) => v.unwrap_or("schedule-study-data").to_string(),
    };
    let out_path = match args.value_of("--out") {
        Err(e) => return fail(&e),
        Ok(v) => v.unwrap_or("BENCH_schedule.json").to_string(),
    };

    let scenarios = all_scenarios();
    let floor = OcbaSchedule::default().min_seeds.min(seeds as usize);
    eprintln!(
        "schedule-study: {} scenario(s), algo two-stage, budget {}, seed pool 1..={}, fixed vs ocba, floor {}",
        scenarios.len(),
        budget.label(),
        seeds,
        floor,
    );

    let base = JobSpec {
        scenarios: scenarios.iter().map(|s| s.name().to_string()).collect(),
        algos: vec![Algo::TwoStage],
        budget,
        seeds: seed_pool,
        ..JobSpec::default()
    };
    let mut reports = Vec::new();
    let mut files: Vec<PathBuf> = Vec::new();
    for schedule in [ScheduleKind::Fixed, ScheduleKind::Ocba] {
        let spec = JobSpec {
            schedule,
            ..base.clone()
        };
        let jsonl = Path::new(&data_dir).join(format!("{}.jsonl", schedule.label()));
        eprintln!(
            "running the {} campaign -> {}",
            schedule.label(),
            jsonl.display()
        );
        let report = match run_campaign(&spec, &jsonl, |line| eprintln!("  {line}")) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "  {} executed, {} resumed, {} round(s), {} seed(s) saved",
            report.executed, report.resumed, report.schedule.rounds, report.schedule.seeds_saved,
        );
        reports.push(report);
        files.push(jsonl);
    }
    let (fixed, ocba) = (&reports[0], &reports[1]);

    // The floor and subset checks are unconditional: a violation means the
    // scheduler or the campaign layer is broken, not that the study
    // "failed".
    let mut violations: Vec<String> = ocba
        .aggregates
        .iter()
        .filter(|agg| agg.seeds.len() < floor)
        .map(|agg| {
            format!(
                "floor violation: {}/{}: only {} seed(s), floor is {floor}",
                agg.scenario,
                agg.algo,
                agg.seeds.len()
            )
        })
        .collect();
    match subset_violations(&files[0], &files[1]) {
        Ok(v) => violations.extend(v.into_iter().map(|m| format!("subset violation: {m}"))),
        Err(e) => violations.push(format!("subset check: {e}")),
    }
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("{v}");
        }
        return ExitCode::FAILURE;
    }

    let mut rows = Vec::new();
    for scenario in &scenarios {
        let (Some(f), Some(o)) = (
            find(&fixed.aggregates, scenario.name()),
            find(&ocba.aggregates, scenario.name()),
        ) else {
            eprintln!("error: missing aggregates for {}", scenario.name());
            return ExitCode::FAILURE;
        };
        let ci_fixed = f.best_yield_ci_half_width();
        let median_equal =
            (o.best_yield.median - f.best_yield.median).abs() <= ci_fixed.max(YIELD_TOLERANCE);
        let (Some(gf), Some(go)) = (
            group_of(&fixed.schedule.groups, scenario.name()),
            group_of(&ocba.schedule.groups, scenario.name()),
        ) else {
            eprintln!("error: missing schedule groups for {}", scenario.name());
            return ExitCode::FAILURE;
        };
        rows.push(Row {
            scenario: scenario.name().to_string(),
            oracle: scenario.has_true_yield(),
            sims_fixed: gf.simulations,
            sims_ocba: go.simulations,
            median_fixed: f.best_yield.median,
            median_ocba: o.best_yield.median,
            ci_fixed,
            ci_ocba: o.best_yield_ci_half_width(),
            seeds_used: o.seeds.len(),
            seeds_saved: seeds as usize - o.seeds.len(),
            median_equal,
        });
    }

    let oracle_fixed: u64 = rows.iter().filter(|r| r.oracle).map(|r| r.sims_fixed).sum();
    let oracle_ocba: u64 = rows.iter().filter(|r| r.oracle).map(|r| r.sims_ocba).sum();
    let oracle_savings_pct = if oracle_fixed > 0 {
        100.0 * (1.0 - oracle_ocba as f64 / oracle_fixed as f64)
    } else {
        0.0
    };
    let scenarios_total = rows.len();
    let scenarios_equal = rows.iter().filter(|r| r.median_equal).count();
    let pass = oracle_savings_pct >= SAVINGS_GATE_PCT && scenarios_equal == scenarios_total;

    // Flat JSON record, same writer conventions as the result aggregates.
    let mut json = JsonWriter::pretty();
    json.bare("schema_version", 3)
        .str("schedule", ScheduleKind::Ocba.label())
        .str("algo", "two-stage")
        .str("budget", budget.label())
        .bare("seed_pool", seeds)
        .bare("min_seeds_floor", floor)
        .f64("gate_savings_pct", SAVINGS_GATE_PCT)
        .f64("gate_yield_tolerance", YIELD_TOLERANCE);
    for r in &rows {
        let s = &r.scenario;
        let savings_pct = if r.sims_fixed > 0 {
            (10_000.0 * (1.0 - r.sims_ocba as f64 / r.sims_fixed as f64)).round() / 100.0
        } else {
            0.0
        };
        json.bare(&format!("{s}_sims_fixed"), r.sims_fixed)
            .bare(&format!("{s}_sims_ocba"), r.sims_ocba)
            .f64(&format!("{s}_savings_pct"), savings_pct)
            .f64(&format!("{s}_median_fixed"), r.median_fixed)
            .f64(&format!("{s}_median_ocba"), r.median_ocba)
            .f64(&format!("{s}_ci_fixed"), r.ci_fixed)
            .f64(&format!("{s}_ci_ocba"), r.ci_ocba)
            .bare(&format!("{s}_seeds_used"), r.seeds_used)
            .bare(&format!("{s}_seeds_saved"), r.seeds_saved)
            .bare(&format!("{s}_median_equal"), r.median_equal);
    }
    json.f64(
        "oracle_savings_pct_pooled",
        (oracle_savings_pct * 100.0).round() / 100.0,
    )
    .bare("scenarios_total", scenarios_total)
    .bare("scenarios_equal", scenarios_equal)
    .bare("pass", pass);
    let json = json.finish();
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }

    // Markdown savings table for the README.
    println!(
        "| scenario | sims (fixed) | sims (ocba) | saved | seeds used | median (fixed) | median (ocba) | equal |"
    );
    println!("|---|---:|---:|---:|---:|---:|---:|---|");
    for r in &rows {
        println!(
            "| {}{} | {} | {} | {:.1}% | {}/{} | {:.4} ±{:.4} | {:.4} ±{:.4} | {} |",
            r.scenario,
            if r.oracle { "" } else { " †" },
            r.sims_fixed,
            r.sims_ocba,
            if r.sims_fixed > 0 {
                100.0 * (1.0 - r.sims_ocba as f64 / r.sims_fixed as f64)
            } else {
                0.0
            },
            r.seeds_used,
            seeds,
            r.median_fixed,
            r.ci_fixed,
            r.median_ocba,
            r.ci_ocba,
            if r.median_equal { "yes" } else { "NO" },
        );
    }
    println!("\n† circuit scenario (no closed-form oracle: its median is gated, its simulations are not pooled)");
    println!(
        "\npooled oracle savings {oracle_savings_pct:.1}% ({scenarios_equal}/{scenarios_total} medians equal, floor {floor} honored, every ocba row equals its fixed row) -> {out_path}"
    );

    if args.has("--strict") && !pass {
        eprintln!(
            "strict gate: pooled oracle savings {oracle_savings_pct:.1}% (need ≥{SAVINGS_GATE_PCT}%) with {scenarios_equal}/{scenarios_total} medians equal"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
