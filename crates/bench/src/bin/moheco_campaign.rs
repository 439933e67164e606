//! `moheco-campaign` — the experiment runner over the scenario registry:
//! multi-seed campaigns and the schema-v4 aggregate gate.
//!
//! ```text
//! moheco-campaign [--scenario <name>|all] [--algo fixed|memetic|two-stage]
//!                 [--budget tiny|small|paper] [--estimator mc|lhs|antithetic|is]
//!                 [--seeds N] [--parallel]
//!                 [--schedule fixed|ocba]
//!                 [--engine-reuse reset|shared-cache] [--max-cached-blocks N]
//!                 [--jsonl FILE] [--out-dir DIR] [--baseline-dir DIR]
//!                 [--obs off|jsonl:FILE] [--metrics-out FILE] [--list]
//! ```
//!
//! `--list` prints the scenario registry (dimensions, spec count, whether a
//! closed-form truth exists) and exits. Otherwise the scenario × algorithm ×
//! seed grid runs as one long-lived process with one engine per scenario,
//! over the seeds `1..=N`. Each completed cell streams one deterministic
//! JSONL row to `--jsonl` (default `<out-dir>/CAMPAIGN.jsonl`); under the
//! default `--engine-reuse reset` the seed-`s` row is byte-identical to a
//! standalone run of seed `s`, and a killed
//! campaign restarted with the same arguments skips the rows already on
//! disk and finishes with byte-identical output. Per-(scenario, algo)
//! aggregates (mean/median/std/CI over the seeds) are written to
//! `RESULTS_<scenario>.json` in `--out-dir`, and with `--baseline-dir` each
//! aggregate is gated against the committed baseline on the cross-seed
//! *median* yield — a single-seed gate could pass or fail on seed noise
//! alone.
//!
//! After the grid completes, the per-cell cost summary (simulations, wall
//! time, cache efficiency of every cell executed in this invocation) goes to
//! stderr. With `--obs jsonl:FILE` the cells run under a span tracer whose
//! event stream — span exits, one `run_summary` and one live `campaign_cell`
//! record per cell — lands in `FILE` (readable by `moheco-profile`); with
//! `--metrics-out FILE` the campaign's final engine counters and phase
//! attribution are written to `FILE` in the Prometheus text exposition
//! format. Tracing never touches the search RNG, so rows and aggregates are
//! bit-identical with observability on or off.

use moheco_bench::campaign::run_campaign_traced;
use moheco_bench::jobspec::seed_count;
use moheco_bench::results::compare_aggregates;
use moheco_bench::{
    Algo, BudgetClass, CliArgs, EngineKind, EngineReuse, JobSpec, PrescreenKind, ScheduleKind,
};
use moheco_obs::{JsonlCollector, Tracer};
use moheco_runtime::{render_pool_cache, render_prometheus};
use moheco_sampling::EstimatorKind;
use moheco_scenarios::all_scenarios;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: moheco-campaign [--scenario <name>|all] \
[--algo fixed|memetic|two-stage] [--budget tiny|small|paper] \
[--estimator mc|lhs|antithetic|is] [--seeds N] \
[--parallel] [--schedule fixed|ocba] \
[--engine-reuse reset|shared-cache] [--max-cached-blocks N] \
[--jsonl FILE] [--out-dir DIR] [--baseline-dir DIR] [--obs off|jsonl:FILE] \
[--metrics-out FILE] [--list]";

fn fail(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// What one invocation runs, and where its outputs go.
struct Invocation {
    spec: JobSpec,
    out_dir: String,
    jsonl: PathBuf,
    baseline_dir: Option<String>,
    metrics_out: Option<String>,
    tracer: Tracer,
}

/// Reads the campaign from the command line, creating the output directory
/// and the obs stream on the way.
fn invocation(args: &CliArgs) -> Result<Invocation, String> {
    let scenarios = match args.value_of("--scenario")? {
        None | Some("all") => moheco_scenarios::scenario_names(),
        Some(name) => vec![name.to_string()],
    };
    let spec = JobSpec {
        scenarios,
        algos: vec![args.parsed_or("--algo", Algo::default(), Algo::parse)?],
        budget: args.parsed_or("--budget", BudgetClass::default(), BudgetClass::parse)?,
        seeds: seed_count(args.u64_of("--seeds", 3)?).map_err(|e| format!("--seeds: {e}"))?,
        engine: args.engine_kind(),
        estimator: args.parsed_or(
            "--estimator",
            EstimatorKind::default(),
            EstimatorKind::parse,
        )?,
        prescreen: PrescreenKind::Off,
        reuse: args.parsed_or("--engine-reuse", EngineReuse::default(), EngineReuse::parse)?,
        max_cached_blocks: args.u64_of("--max-cached-blocks", 0)? as usize,
        schedule: args.parsed_or("--schedule", ScheduleKind::default(), ScheduleKind::parse)?,
    };
    spec.validate()?;
    let out_dir = args.value_of("--out-dir")?.unwrap_or(".").to_string();
    let jsonl = match args.value_of("--jsonl")? {
        Some(p) => PathBuf::from(p),
        None => Path::new(&out_dir).join("CAMPAIGN.jsonl"),
    };
    let baseline_dir = args.value_of("--baseline-dir")?.map(str::to_string);
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create out dir {out_dir:?}: {e}"))?;
    let metrics_out = args.value_of("--metrics-out")?.map(str::to_string);
    let tracer = match args.value_of("--obs")?.unwrap_or("off") {
        // Phase attribution without an event stream: the Prometheus snapshot
        // needs the aggregated breakdown only.
        "off" if metrics_out.is_some() => Tracer::aggregating(),
        "off" => Tracer::disabled(),
        obs => {
            let path = obs
                .strip_prefix("jsonl:")
                .ok_or_else(|| format!("unknown obs mode {obs:?}; expected off or jsonl:FILE"))?;
            let collector = JsonlCollector::create(Path::new(path))
                .map_err(|e| format!("cannot create obs stream {path:?}: {e}"))?;
            Tracer::new(Arc::new(collector))
        }
    };
    Ok(Invocation {
        spec,
        out_dir,
        jsonl,
        baseline_dir,
        metrics_out,
        tracer,
    })
}

fn main() -> ExitCode {
    let args = CliArgs::parse();
    if let Err(e) = args.expect_only(
        &["--parallel", "--list"],
        &[
            "--scenario",
            "--algo",
            "--budget",
            "--estimator",
            "--seeds",
            "--schedule",
            "--engine-reuse",
            "--max-cached-blocks",
            "--jsonl",
            "--out-dir",
            "--baseline-dir",
            "--obs",
            "--metrics-out",
        ],
    ) {
        return fail(&e);
    }

    if args.has("--list") {
        println!(
            "{:<24} {:>4} {:>5} {:>6} {:<6} description",
            "scenario", "dim", "stats", "specs", "truth"
        );
        for s in all_scenarios() {
            println!(
                "{:<24} {:>4} {:>5} {:>6} {:<6} {}",
                s.name(),
                s.dimension(),
                s.statistical_dimension(),
                s.spec_names().len(),
                if s.has_true_yield() { "exact" } else { "mc" },
                s.description()
            );
        }
        return ExitCode::SUCCESS;
    }

    let Invocation {
        spec,
        out_dir,
        jsonl,
        baseline_dir,
        metrics_out,
        tracer,
    } = match invocation(&args) {
        Ok(i) => i,
        Err(e) => return fail(&e),
    };
    eprintln!(
        "moheco-campaign: {} cell(s) ({} scenario(s) x {} x {} seed(s)), budget {}, estimator {}, {} engine, reuse {}, schedule {}{}",
        spec.cells(),
        spec.scenarios.len(),
        spec.algos[0].label(),
        spec.seeds.len(),
        spec.budget.label(),
        spec.estimator.label(),
        spec.engine.label(),
        spec.reuse.label(),
        spec.schedule.label(),
        if spec.max_cached_blocks > 0 {
            format!(", cache bound {} blocks", spec.max_cached_blocks)
        } else {
            String::new()
        },
    );

    let report = match run_campaign_traced(&spec, &jsonl, &tracer, |line| eprintln!("  {line}")) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    tracer.flush();
    eprintln!(
        "moheco-campaign: {} executed, {} resumed from {}",
        report.executed,
        report.resumed,
        jsonl.display()
    );
    eprintln!(
        "schedule {}: {} round(s), {} cell(s) scheduled, {} group(s) stopped early, {} seed(s) saved of {}, {} simulation(s) spent",
        report.schedule.label,
        report.schedule.rounds,
        report.schedule.scheduled,
        report.schedule.groups_gated,
        report.schedule.seeds_saved,
        spec.cells(),
        report.schedule.simulations_total,
    );

    // Final per-cell cost summary: what this invocation actually spent.
    if report.cell_costs.is_empty() {
        eprintln!("cell costs: none (every cell resumed from disk)");
    } else {
        eprintln!("cell costs ({} executed):", report.cell_costs.len());
        let mut wall_total = 0.0;
        for c in &report.cell_costs {
            wall_total += c.wall_time_ms;
            eprintln!(
                "  {}/{}/seed {}: {} sims, {:.0} ms, cache {:.1}% ({} hits)",
                c.scenario,
                c.algo,
                c.seed,
                c.engine_stats.simulations_run,
                c.wall_time_ms,
                100.0 * c.engine_stats.hit_rate(),
                c.engine_stats.cache_hits,
            );
        }
        let total = report.total_engine_stats();
        eprintln!(
            "  total: {} sims, {:.0} ms, cache {:.1}% ({} hits)",
            total.simulations_run,
            wall_total,
            100.0 * total.hit_rate(),
            total.cache_hits,
        );
    }

    if let Some(path) = &metrics_out {
        let mut text = render_prometheus(&report.total_engine_stats(), &tracer.breakdown());
        text.push_str(&render_pool_cache(&report.engine_cache));
        report.schedule.render_prometheus(&mut text);
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("metrics snapshot -> {path}");
    }

    let mut failures: Vec<String> = Vec::new();
    for agg in &report.aggregates {
        let json = agg.to_json();
        let path = Path::new(&out_dir).join(agg.file_name());
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        match &baseline_dir {
            None => {
                println!(
                    "{}/{}: yield median {:.4} mean {:.4} ±{:.4} (CI ±{:.4}) sims mean {:.0} over seeds {} -> {}",
                    agg.scenario,
                    agg.algo,
                    agg.best_yield.median,
                    agg.best_yield.mean,
                    agg.best_yield.std_dev(),
                    agg.best_yield_ci_half_width(),
                    agg.simulations.mean,
                    agg.seeds_label(),
                    path.display()
                );
            }
            Some(dir) => {
                let baseline_path = Path::new(dir).join(agg.file_name());
                match std::fs::read_to_string(&baseline_path) {
                    Err(e) => {
                        // The hint must carry every identity flag of this
                        // invocation — a regenerated baseline with a
                        // different estimator/engine would fail
                        // the identity gate forever.
                        let mut hint = format!(
                            "moheco-campaign --scenario {} --algo {} --budget {} --seeds {}",
                            agg.scenario,
                            agg.algo,
                            spec.budget.label(),
                            agg.seeds.len(),
                        );
                        if spec.estimator != EstimatorKind::default() {
                            hint.push_str(&format!(" --estimator {}", spec.estimator.label()));
                        }
                        if spec.engine == EngineKind::Parallel {
                            hint.push_str(" --parallel");
                        }
                        let msg = format!(
                            "{}: missing baseline {} ({e}); run `{hint} --out-dir {dir}` and commit it",
                            agg.scenario,
                            baseline_path.display(),
                        );
                        println!("{msg}");
                        failures.push(msg);
                    }
                    Ok(baseline) => {
                        let cmp = compare_aggregates(&baseline, &json);
                        println!("{}", cmp.summary);
                        for f in &cmp.failures {
                            eprintln!("  FAIL {f}");
                            failures.push(format!("{}: {f}", cmp.scenario));
                        }
                    }
                }
            }
        }
    }

    if failures.is_empty() {
        if baseline_dir.is_some() {
            println!(
                "aggregate gate: all {} cell group(s) within tolerance",
                report.aggregates.len()
            );
        }
        ExitCode::SUCCESS
    } else {
        eprintln!("aggregate gate: {} failure(s)", failures.len());
        ExitCode::FAILURE
    }
}
