//! `moheco-profile` — renders the obs event stream of a traced run.
//!
//! ```text
//! moheco-profile --input FILE [--check]
//! ```
//!
//! `FILE` is a JSONL stream written by `moheco-campaign --obs jsonl:FILE` (or
//! any `JsonlCollector`): one flat JSON object per span exit plus one
//! `run_summary` record per completed run. The binary rebuilds the
//! [`PhaseBreakdown`] from the raw span events and prints a self-time table
//! (sorted by self simulations) followed by a text flamegraph over
//! *inclusive* simulations.
//!
//! With `--check` it also reconciles the stream against the engine counters:
//! the per-phase self simulations must sum exactly to the `simulations_run`
//! total reported by the `run_summary` records (and likewise cache hits).
//! Any mismatch means a code path ran simulations outside every span — the
//! attribution invariant the workspace tests enforce — and exits non-zero,
//! which is how CI gates the profiled smoke run.

use moheco_bench::CliArgs;
use moheco_obs::json::parse_flat_json;
use moheco_obs::{PhaseBreakdown, SpanEvent};
use std::process::ExitCode;

const USAGE: &str = "usage: moheco-profile --input FILE [--check]";

fn fail(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Engine-counter totals accumulated from `run_summary` records.
#[derive(Default)]
struct SummaryTotals {
    runs: u64,
    simulations_run: u64,
    cache_hits: u64,
}

fn main() -> ExitCode {
    let args = CliArgs::parse();
    if let Err(e) = args.expect_only(&["--check"], &["--input"]) {
        return fail(&e);
    }
    let input = match args.value_of("--input") {
        Err(e) => return fail(&e),
        Ok(Some(p)) => p.to_string(),
        Ok(None) => return fail("--input FILE is required"),
    };
    let text = match std::fs::read_to_string(&input) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read {input:?}: {e}")),
    };

    let mut spans: Vec<SpanEvent> = Vec::new();
    let mut totals = SummaryTotals::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = match parse_flat_json(line) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {input}:{}: {e}", lineno + 1);
                return ExitCode::FAILURE;
            }
        };
        let u64_field = |key: &str| record.num(key).unwrap_or(0.0) as u64;
        match record.str("event") {
            Some("span") => spans.push(SpanEvent {
                seq: u64_field("seq"),
                path: record.str("path").unwrap_or("?").to_string(),
                depth: u64_field("depth") as u32,
                simulations: u64_field("simulations"),
                cache_hits: u64_field("cache_hits"),
                evictions: u64_field("evictions"),
                wall_nanos: u64_field("wall_nanos"),
            }),
            Some("run_summary") => {
                totals.runs += 1;
                totals.simulations_run += u64_field("simulations_run");
                totals.cache_hits += u64_field("cache_hits");
                println!(
                    "run: scenario {} algo {} budget {} seed {} yield {} sims {} hits {}",
                    record.str("scenario").unwrap_or("?"),
                    record.str("algo").unwrap_or("?"),
                    record.str("budget").unwrap_or("?"),
                    u64_field("seed"),
                    record.num("best_yield").unwrap_or(f64::NAN),
                    u64_field("simulations_run"),
                    u64_field("cache_hits"),
                );
            }
            // Other event kinds (campaign progress, future additions) are
            // valid stream content the profiler has no use for.
            _ => {}
        }
    }
    if spans.is_empty() {
        eprintln!("error: no span events in {input}");
        return ExitCode::FAILURE;
    }

    let breakdown = PhaseBreakdown::from_span_events(spans);
    println!("\nself-time table ({} phases):", breakdown.phases.len());
    print!("{}", breakdown.render_table());
    println!("\nflamegraph (inclusive simulations):");
    print!("{}", breakdown.render_flamegraph());
    println!("\nbreakdown digest: {}", breakdown.digest());

    if args.has("--check") {
        if totals.runs == 0 {
            eprintln!("check: FAIL — no run_summary records to reconcile against");
            return ExitCode::FAILURE;
        }
        let mut mismatches = Vec::new();
        if breakdown.total_simulations() != totals.simulations_run {
            mismatches.push(format!(
                "per-phase simulations sum to {} but the engine ran {}",
                breakdown.total_simulations(),
                totals.simulations_run
            ));
        }
        if breakdown.total_cache_hits() != totals.cache_hits {
            mismatches.push(format!(
                "per-phase cache hits sum to {} but the engine served {}",
                breakdown.total_cache_hits(),
                totals.cache_hits
            ));
        }
        if !mismatches.is_empty() {
            for m in &mismatches {
                eprintln!("check: FAIL — {m}");
            }
            return ExitCode::FAILURE;
        }
        println!(
            "check: OK — {} phase(s) reconcile with {} run(s): {} simulations, {} cache hits",
            breakdown.phases.len(),
            totals.runs,
            totals.simulations_run,
            totals.cache_hits
        );
    }
    ExitCode::SUCCESS
}
