//! `prescreen-study` — measures what the surrogate prescreen buys, with
//! error bars.
//!
//! Runs every closed-form (oracle) scenario with the two-stage OO algorithm
//! twice per seed — `--prescreen off` vs `--prescreen rsb` — through the
//! campaign engine pool (one long-lived engine per scenario, reset between
//! cells), and aggregates simulation counts and final yields *across the
//! seeds as a distribution*: the study reports mean ± std, not a pooled
//! point estimate, because a single-seed comparison of two noisy
//! Monte-Carlo optimizations can record a "regression" that is pure seed
//! noise. A scenario *passes* when the **pooled** savings (1 − total rsb
//! sims / total off sims, the operationally meaningful "how much did the
//! prescreen save overall" number) reach [`SAVINGS_GATE_PCT`] percent of
//! the simulate() calls while the mean reported yield stays within the
//! baseline-gate tolerance ([`YIELD_TOLERANCE`]) of the unscreened run;
//! the per-seed savings-ratio std is the error bar on that number.
//!
//! The `two_basin` scenario carries a special verdict field: PR 4 recorded
//! it as a −16 % regression (the prescreen *cost* simulations), and this
//! study now either **confirms** the regression (pooled savings negative
//! *and* the per-seed distribution excludes zero by one std), **retracts**
//! it (pooled savings non-negative), or calls it **inconclusive** (pooled
//! savings negative but within one per-seed std of zero).
//!
//! The aggregate is written to `BENCH_prescreen.json` (flat schema, same
//! writer conventions as `RESULTS_*.json`) and a markdown cost table with
//! mean ± std columns is printed for the README. With `--strict` the binary
//! exits non-zero unless at least three scenarios pass — the CI invocation
//! uses this.
//!
//! ```text
//! prescreen-study [--budget tiny|small|paper] [--seeds N] [--out FILE]
//!                 [--strict]
//! ```

use moheco::{PrescreenKind, RunSummary};
use moheco_bench::campaign::CampaignEngines;
use moheco_bench::results::YIELD_TOLERANCE;
use moheco_bench::{Algo, BudgetClass, CliArgs, EngineKind, EngineReuse, RunSpec};
use moheco_obs::json::JsonWriter;
use moheco_sampling::EstimatorKind;
use moheco_scenarios::all_scenarios;
use std::process::ExitCode;

/// Minimum *pooled* percentage of simulate() calls the prescreen must save
/// (`1 − total rsb sims / total off sims` across the seeds).
const SAVINGS_GATE_PCT: f64 = 30.0;
/// Scenarios that must pass under `--strict`.
const STRICT_MIN_PASSING: usize = 3;

const USAGE: &str =
    "usage: prescreen-study [--budget tiny|small|paper] [--seeds N] [--out FILE] [--strict]";

struct Row {
    scenario: String,
    /// Pooled savings: `1 − total rsb sims / total off sims`, the
    /// operationally meaningful "how much did the prescreen save" number
    /// (and the PR-4 headline metric) — gated.
    savings_pooled_pct: f64,
    /// Per-seed savings-ratio distribution — the error bar on the pooled
    /// number.
    savings: RunSummary,
    yield_off: RunSummary,
    yield_rsb: RunSummary,
    sims_off: RunSummary,
    sims_rsb: RunSummary,
    skips: u64,
    pass: bool,
}

/// Verdict on a previously recorded regression: *confirmed* when the pooled
/// savings are negative and the per-seed distribution excludes zero by one
/// std, *retracted* when the pooled savings are non-negative, otherwise
/// *inconclusive* (the effect cannot be distinguished from seed noise).
fn regression_verdict(pooled_pct: f64, savings: &RunSummary) -> &'static str {
    if pooled_pct >= 0.0 {
        "retracted"
    } else if savings.mean + savings.std_dev() < 0.0 {
        "confirmed"
    } else {
        "inconclusive"
    }
}

fn main() -> ExitCode {
    let args = CliArgs::parse();
    if let Err(e) = args.expect_only(&["--strict"], &["--budget", "--seeds", "--out"]) {
        eprintln!("error: {e}");
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let budget = match args.parsed_or("--budget", BudgetClass::Paper, BudgetClass::parse) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let seeds = match args.u64_of("--seeds", 3) {
        Ok(s) if s >= 1 => s,
        Ok(_) => {
            eprintln!("error: --seeds must be >= 1");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let out_path = match args.value_of("--out") {
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
        Ok(v) => v.unwrap_or("BENCH_prescreen.json").to_string(),
    };

    let oracle: Vec<_> = all_scenarios()
        .into_iter()
        .filter(|s| s.has_true_yield())
        .collect();
    eprintln!(
        "prescreen-study: {} oracle scenario(s), algo two-stage, budget {}, seeds 1..={} (campaign engine pool)",
        oracle.len(),
        budget.label(),
        seeds
    );

    // One long-lived engine per scenario; a full reset between cells keeps
    // every run bit-identical to a standalone invocation.
    let mut engines = CampaignEngines::new(
        EngineKind::Serial,
        EstimatorKind::default(),
        0,
        EngineReuse::Reset,
    );

    let mut rows: Vec<Row> = Vec::new();
    for scenario in &oracle {
        let mut yields_off = Vec::new();
        let mut yields_rsb = Vec::new();
        let mut sims_off = Vec::new();
        let mut sims_rsb = Vec::new();
        let mut savings = Vec::new();
        let mut skips = 0u64;
        for seed in 1..=seeds {
            let mut per_kind = [0u64; 2];
            for (i, kind) in [PrescreenKind::Off, PrescreenKind::Rsb]
                .into_iter()
                .enumerate()
            {
                let engine = engines.prepare(scenario.name(), seed);
                let r = RunSpec::new(scenario.as_ref(), Algo::TwoStage)
                    .budget(budget)
                    .seed(seed)
                    .engine(engine)
                    .engine_label(EngineKind::Serial.label())
                    .prescreen(kind)
                    .execute();
                per_kind[i] = r.simulations;
                match kind {
                    PrescreenKind::Off => yields_off.push(r.best_yield),
                    PrescreenKind::Rsb => {
                        yields_rsb.push(r.best_yield);
                        skips += r.prescreen_skips;
                    }
                }
            }
            sims_off.push(per_kind[0] as f64);
            sims_rsb.push(per_kind[1] as f64);
            savings.push(if per_kind[0] > 0 {
                100.0 * (1.0 - per_kind[1] as f64 / per_kind[0] as f64)
            } else {
                0.0
            });
        }
        let savings = RunSummary::of(&savings);
        let yield_off = RunSummary::of(&yields_off);
        let yield_rsb = RunSummary::of(&yields_rsb);
        let total_off: f64 = sims_off.iter().sum();
        let total_rsb: f64 = sims_rsb.iter().sum();
        let savings_pooled_pct = if total_off > 0.0 {
            100.0 * (1.0 - total_rsb / total_off)
        } else {
            0.0
        };
        let pass = savings_pooled_pct >= SAVINGS_GATE_PCT
            && (yield_rsb.mean - yield_off.mean).abs() <= YIELD_TOLERANCE;
        rows.push(Row {
            scenario: scenario.name().to_string(),
            savings_pooled_pct,
            savings,
            yield_off,
            yield_rsb,
            sims_off: RunSummary::of(&sims_off),
            sims_rsb: RunSummary::of(&sims_rsb),
            skips,
            pass,
        });
    }
    let passing = rows.iter().filter(|r| r.pass).count();

    // Flat JSON record (same conventions as RESULTS_*.json). v2: per-seed
    // statistics (mean ± std) replace the pooled single-pass totals, and
    // regression verdicts are recorded explicitly.
    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    let mut json = JsonWriter::pretty();
    json.bare("schema_version", 2)
        .str("algo", "two-stage")
        .str("budget", budget.label())
        .bare("seeds", seeds)
        .f64("gate_savings_pct", SAVINGS_GATE_PCT)
        .f64("gate_yield_tolerance", YIELD_TOLERANCE);
    for r in &rows {
        let s = &r.scenario;
        json.f64(&format!("{s}_sims_off_mean"), r.sims_off.mean)
            .f64(&format!("{s}_sims_off_std"), r.sims_off.std_dev())
            .f64(&format!("{s}_sims_rsb_mean"), r.sims_rsb.mean)
            .f64(&format!("{s}_sims_rsb_std"), r.sims_rsb.std_dev())
            .f64(
                &format!("{s}_savings_pct_pooled"),
                round2(r.savings_pooled_pct),
            )
            .f64(&format!("{s}_savings_pct_mean"), round2(r.savings.mean))
            .f64(&format!("{s}_savings_pct_std"), round2(r.savings.std_dev()))
            .f64(&format!("{s}_yield_off_mean"), r.yield_off.mean)
            .f64(&format!("{s}_yield_off_std"), r.yield_off.std_dev())
            .f64(&format!("{s}_yield_rsb_mean"), r.yield_rsb.mean)
            .f64(&format!("{s}_yield_rsb_std"), r.yield_rsb.std_dev())
            .bare(&format!("{s}_skips"), r.skips)
            .bare(&format!("{s}_pass"), r.pass);
    }
    // The PR-4 two_basin "regression": confirmed or retracted with error
    // bars (mean ± std across the seeds) instead of a single-seed pool.
    if let Some(tb) = rows.iter().find(|r| r.scenario == "two_basin") {
        json.str(
            "two_basin_regression",
            regression_verdict(tb.savings_pooled_pct, &tb.savings),
        );
    }
    json.bare("scenarios_total", rows.len())
        .bare("scenarios_passing", passing);
    let json = json.finish();
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }

    // Markdown cost table for the README (mean ± std over the seeds).
    println!("| scenario | sims (off) | sims (rsb) | saved | yield (off) | yield (rsb) | gate |");
    println!("|---|---:|---:|---:|---:|---:|---|");
    for r in &rows {
        println!(
            "| {} | {:.0} ± {:.0} | {:.0} ± {:.0} | {:.1}% ± {:.1} | {:.4} ± {:.4} | {:.4} ± {:.4} | {} |",
            r.scenario,
            r.sims_off.mean,
            r.sims_off.std_dev(),
            r.sims_rsb.mean,
            r.sims_rsb.std_dev(),
            r.savings_pooled_pct,
            r.savings.std_dev(),
            r.yield_off.mean,
            r.yield_off.std_dev(),
            r.yield_rsb.mean,
            r.yield_rsb.std_dev(),
            if r.pass { "pass" } else { "-" }
        );
    }
    if let Some(tb) = rows.iter().find(|r| r.scenario == "two_basin") {
        println!(
            "\ntwo_basin regression verdict: **{}** (pooled savings {:.1}%, per-seed {:.1}% ± {:.1} across {} seeds)",
            regression_verdict(tb.savings_pooled_pct, &tb.savings),
            tb.savings_pooled_pct,
            tb.savings.mean,
            tb.savings.std_dev(),
            seeds
        );
    }
    println!(
        "\n{passing} of {} oracle scenarios reach equivalent mean yield (±{YIELD_TOLERANCE}) with ≥{SAVINGS_GATE_PCT}% pooled simulation savings -> {out_path}",
        rows.len()
    );

    if args.has("--strict") && passing < STRICT_MIN_PASSING {
        eprintln!("strict gate: only {passing} scenario(s) passed (need {STRICT_MIN_PASSING})");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
