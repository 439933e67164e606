//! `moheco-perfbench` — the repository's end-to-end benchmark with an
//! outside-in per-layer ledger.
//!
//! ```text
//! moheco-perfbench --workload <circuit-paper|oracle-dispatch>
//!                  --seed <n> --seconds <s> --trace <0|1>
//!                  [--pins perfbench/pins.json] [--work-dir <dir>]
//! ```
//!
//! `circuit-paper` times paper-budget MOHECO runs on the telescopic
//! circuit, where the per-sample circuit path dominates; `oracle-dispatch`
//! times a paper-budget campaign over the closed-form oracles, where the
//! models are nearly free and engine dispatch, OCBA and the optimizer
//! dominate. `--seed` draws the order of each round's cells and the
//! service layer's job specs.
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! instrumentation installed; with `--trace 1` it alternates untraced and
//! traced rounds and reports the per-layer metrics, the tracing overhead
//! and the reconciliation of the layers against the measured total (and,
//! for `oracle-dispatch`, the parallel engine and the HTTP service). Both
//! modes check the outputs; any failed check makes the result
//! `"correct": false` and the exit status 1. The last line of standard
//! output is the JSON result.

mod measure;
mod offline;
mod probes;
mod serve;
mod timed;

use measure::{median, mix, ms, peak_rss_mb, quantile};
use moheco_bench::jobspec::{EngineReuse, JobSpec, ScheduleKind};
use moheco_bench::results::parse_flat_json;
use moheco_bench::{Algo, BudgetClass, EngineKind};
use offline::{run_round, Campaign, Ledger, Round, Trace};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Largest share of the traced drive time the layers may leave
/// unattributed before the reconciliation check fails.
const UNATTRIBUTED_MAX: f64 = 0.10;

/// Set-up is repeated this many times after every round and reported as
/// the median over the run: spread through the run, the repetitions see
/// the host in as many states as the rounds do.
const SETUP_REPS_PER_ROUND: usize = 5;

/// Rounds run before timing starts: checked, but not timed.
const WARMUP_ROUNDS: usize = 1;

/// Run seeds per round: the run set is the fixed pool `1..=n`. The cost
/// of one paper-budget run varies threefold between run seeds, so a run
/// set drawn afresh from each workload seed would move every cost metric
/// by far more than any bound could tolerate; the workload seed instead
/// draws the order of the pool's cells. The circuit pool is small so that
/// each of its seconds-long cells is timed in about ten rounds of a run.
const CIRCUIT_POOL: u64 = 2;
const ORACLE_POOL: u64 = 4;

/// The closed-form oracle scenarios of the registry.
const ORACLES: [&str; 5] = [
    "quadratic_feasibility",
    "rotated_ellipsoid",
    "two_basin",
    "margin_wall",
    "stress_24d",
];

/// Cache-block bound of the long-lived `oracle-dispatch` engines.
const ORACLE_MAX_CACHED_BLOCKS: usize = 2048;

/// Seconds the service layer's closed loop runs in a traced
/// `oracle-dispatch` run: long enough for over a thousand jobs, so the
/// p99 latencies have more than ten jobs beyond them.
const SERVE_SECONDS: f64 = 10.0;

/// Oracle cells must report a yield within this many standard errors of
/// an `n_max`-sample estimate at the closed-form truth (plus one sample's
/// worth). The reported yield is the best of many candidates, so it leans
/// high; the margin absorbs that selection bias.
const ORACLE_SIGMAS: f64 = 5.0;

/// Every per-layer metric, in report order. Layers a workload does not
/// exercise report 0.
const PER_LAYER: [(&str, &str); 60] = [
    ("model.block_calls", "count"),
    ("model.block_busy_ms", "ms"),
    ("model.ns_per_sim", "ns"),
    ("runtime.mc_calls", "count"),
    ("runtime.mc_wall_ms", "ms"),
    ("runtime.batch_samples_p50", "count"),
    ("runtime.samples_requested", "count"),
    ("runtime.sims_executed", "count"),
    ("runtime.cache_hit_ratio", "ratio"),
    ("runtime.evictions", "count"),
    ("runtime.cache_bytes_peak", "bytes"),
    ("runtime.worker_util", "ratio"),
    ("runtime.parallel_over_serial", "ratio"),
    ("sampling.estimate_calls", "count"),
    ("sampling.estimate_ms", "ms"),
    ("core.screening.self_ms", "ms"),
    ("core.screening.sims", "count"),
    ("core.screening.spans", "count"),
    ("core.estimation.stage1.self_ms", "ms"),
    ("core.estimation.stage1.sims", "count"),
    ("core.estimation.stage1.spans", "count"),
    ("core.ocba_round.self_ms", "ms"),
    ("core.ocba_round.sims", "count"),
    ("core.ocba_round.spans", "count"),
    ("core.stage2_promotion.self_ms", "ms"),
    ("core.stage2_promotion.sims", "count"),
    ("core.stage2_promotion.spans", "count"),
    ("core.nm_refine.self_ms", "ms"),
    ("core.nm_refine.sims", "count"),
    ("core.nm_refine.spans", "count"),
    ("core.final_report.self_ms", "ms"),
    ("core.final_report.sims", "count"),
    ("core.final_report.spans", "count"),
    ("exec.cells", "count"),
    ("exec.execute_ms", "ms"),
    ("exec.self_ms", "ms"),
    ("serve.jobs_per_s", "1/s"),
    ("serve.job_ms_p50", "ms"),
    ("serve.job_ms_p99", "ms"),
    ("serve.first_row_ms_p50", "ms"),
    ("serve.first_row_ms_p99", "ms"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.submit_ms_p99", "ms"),
    ("serve.row_gap_ms_p50", "ms"),
    ("serve.row_gap_ms_p99", "ms"),
    ("serve.jobs_rejected", "count"),
    ("serve.jobs_failed", "count"),
    ("serve.engine_sims", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.threads_peak", "count"),
    ("spicelite.sweep_ns", "ns"),
    ("spicelite.vgs_for_current_ns", "ns"),
    ("analog.folded_cascode.evaluate_block_ns_per_sample", "ns"),
    ("analog.folded_cascode.evaluate_ns_per_sample", "ns"),
    ("analog.telescopic.evaluate_block_ns_per_sample", "ns"),
    ("analog.telescopic.evaluate_ns_per_sample", "ns"),
    ("runtime.pool.spawn_join_us", "us"),
    ("sampling.generate_block_us", "us"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.unattributed_ratio", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pins: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(name.to_string(), value);
    }
    let take = |map: &mut BTreeMap<String, String>, key: &str| {
        map.remove(key)
            .ok_or_else(|| format!("--{key} is required"))
    };
    let workload = take(&mut map, "workload")?;
    let seed = take(&mut map, "seed")?
        .parse()
        .map_err(|_| "--seed must be a non-negative integer".to_string())?;
    let seconds: f64 = take(&mut map, "seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match take(&mut map, "trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let pins = PathBuf::from(map.remove("pins").unwrap_or("perfbench/pins.json".into()));
    let work_dir = PathBuf::from(
        map.remove("work-dir")
            .unwrap_or(".bench_build/perfbench-work".into()),
    );
    if let Some(key) = map.keys().next() {
        return Err(format!("unknown flag --{key}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        pins,
        work_dir,
    })
}

/// Operations attempted and failed, plus every failure's message.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    fn ops(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// A workload's measured metrics, by name, with units.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, String)>,
    /// Mean |reported − true| yield in percentage points, where the
    /// workload's scenarios have a closed-form truth. Printed, not gated:
    /// `circuit-paper` has no truth to compare with.
    yield_err_pp: Option<f64>,
    notes: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// `items` in an order drawn from the workload seed (Fisher–Yates).
fn shuffled<T>(mut items: Vec<T>, seed: u64, salt: u64) -> Vec<T> {
    for i in (1..items.len()).rev() {
        let j = (mix(seed ^ mix(salt ^ i as u64)) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
    items
}

fn circuit_spec(seeds: Vec<u64>) -> JobSpec {
    JobSpec {
        scenarios: vec!["telescopic".into()],
        algos: vec![Algo::Memetic],
        budget: BudgetClass::Paper,
        seeds,
        engine: EngineKind::Serial,
        reuse: EngineReuse::Reset,
        schedule: ScheduleKind::Fixed,
        ..JobSpec::default()
    }
}

fn oracle_spec(scenarios: Vec<String>, seeds: Vec<u64>, engine: EngineKind) -> JobSpec {
    JobSpec {
        scenarios,
        algos: vec![Algo::Memetic],
        budget: BudgetClass::Paper,
        seeds,
        engine,
        reuse: EngineReuse::SharedCache,
        max_cached_blocks: ORACLE_MAX_CACHED_BLOCKS,
        schedule: ScheduleKind::Fixed,
        ..JobSpec::default()
    }
}

/// The round an offline workload times: its fixed pool of cells, in an
/// order drawn from the workload seed. `circuit-paper` resets its engine
/// per cell, so any seed order yields the same rows; `oracle-dispatch`
/// shares each scenario's cache across its seeds, so only the scenario
/// order (one engine per scenario) is drawn and the rows stay the same.
fn workload_spec(workload: &str, seed: u64) -> Option<JobSpec> {
    match workload {
        "circuit-paper" => Some(circuit_spec(shuffled(
            (1..=CIRCUIT_POOL).collect(),
            seed,
            1,
        ))),
        "oracle-dispatch" => {
            let scenarios = ORACLES.iter().map(|s| s.to_string()).collect();
            Some(oracle_spec(
                shuffled(scenarios, seed, 2),
                (1..=ORACLE_POOL).collect(),
                EngineKind::Serial,
            ))
        }
        _ => None,
    }
}

fn pinned_digest(pins: &Path, workload: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(pins)
        .map_err(|e| format!("cannot read pins {}: {e}", pins.display()))?;
    let record = parse_flat_json(&text).map_err(|e| format!("{}: {e}", pins.display()))?;
    record
        .str(workload)
        .map(str::to_string)
        .ok_or_else(|| format!("{} pins no digest for {workload}", pins.display()))
}

/// Sets the campaign up, recording how long it took in `times`.
fn timed_setup(spec: &JobSpec, times: &mut Vec<f64>) -> Result<Campaign, String> {
    let start = Instant::now();
    let campaign = Campaign::new(spec.clone())?;
    times.push(start.elapsed().as_secs_f64());
    Ok(campaign)
}

/// Mean |reported − true| yield in percentage points over the round's
/// cells, checking each against its tolerance.
fn oracle_accuracy(round: &Round, checks: &mut Checks, report: &mut Report) -> f64 {
    let mut errors = Vec::new();
    let mut worst_sigmas: f64 = 0.0;
    for cell in &round.cells {
        let r = &cell.result;
        let Some(truth) = r.true_yield else {
            checks.check(false, || format!("{} has no closed-form truth", r.scenario));
            continue;
        };
        let n_max = BudgetClass::parse(&r.budget).map_or(500, |b| b.config().n_max) as f64;
        let sigma = (truth * (1.0 - truth) / n_max).sqrt();
        let err = (r.best_yield - truth).abs();
        errors.push(err * 100.0);
        worst_sigmas = worst_sigmas.max(err / sigma.max(1e-12));
        let tolerance = ORACLE_SIGMAS * sigma + 1.0 / n_max;
        checks.check(err <= tolerance, || {
            format!(
                "{} seed {}: yield {} is {err:.4} from truth {truth}, beyond {tolerance:.4}",
                r.scenario, r.seed, r.best_yield
            )
        });
    }
    report.notes.push(format!(
        "oracle cells: worst error {worst_sigmas:.2} standard errors (bound {ORACLE_SIGMAS})"
    ));
    errors.iter().sum::<f64>() / errors.len().max(1) as f64
}

/// Times the workload's round repeatedly for `--seconds` and reports the
/// median of the repeats, cell by cell. The first round warms the heap and
/// the host's caches and is checked but not timed. Every round does the
/// same work, so a cell's spread over the rounds is the host's noise: the
/// median of many repeats holds still where the best one does not (brief
/// bursts of full speed make the minimum jump from run to run). A round's
/// time is the sum of its cells' median times plus the median of its time
/// outside the cells; memory is the peak through the first round.
fn run_offline(args: &Args, checks: &mut Checks, report: &mut Report) -> Result<(), String> {
    let spec = workload_spec(&args.workload, args.seed).expect("offline workload");
    let rows_path = args.work_dir.join("campaign").join("rows.jsonl");
    let mut setup_times = Vec::new();
    let campaign = timed_setup(&spec, &mut setup_times)?;
    let mut ledger = Ledger {
        workers: match spec.engine {
            EngineKind::Serial => 1.0,
            EngineKind::Parallel => offline::ENGINE_WORKERS as f64,
        },
        ..Ledger::default()
    };

    // Rounds repeat while another one is expected to fit in `--seconds`;
    // a traced run alternates untraced and traced rounds.
    let mut plain: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut peak_rss = None;
    let start = Instant::now();
    loop {
        let round = run_round(&campaign, &rows_path, None)?;
        // Later rounds start from whatever heap the earlier ones left.
        peak_rss.get_or_insert_with(peak_rss_mb);
        checks.ops(round.cells.len());
        if let Some(first) = plain.first() {
            checks.check(round.rows == first.rows, || {
                "a repeated round produced different rows".to_string()
            });
        }
        plain.push(round);
        if args.trace {
            let trace = Trace::new();
            let round = run_round(&campaign, &rows_path, Some(&trace))?;
            checks.ops(round.cells.len());
            checks.check(round.rows == plain[0].rows, || {
                "the traced round's rows differ from the untraced round's".to_string()
            });
            ledger.absorb(&round, &trace);
            traced.push(round);
        }
        for _ in 0..SETUP_REPS_PER_ROUND {
            timed_setup(&spec, &mut setup_times)?;
        }
        let elapsed = start.elapsed().as_secs_f64();
        let projected = elapsed * (plain.len() + 1) as f64 / plain.len() as f64;
        if plain.len() > WARMUP_ROUNDS && projected > args.seconds {
            break;
        }
    }
    let first = &plain[0];
    let timed = &plain[WARMUP_ROUNDS..];
    if args.workload == "oracle-dispatch" {
        report.yield_err_pp = Some(oracle_accuracy(first, checks, report));
    }

    // The rows, in a canonical order, must match the pinned digest.
    let mut sorted = first.rows.clone();
    sorted.sort();
    let got = measure::digest(&sorted);
    let want = pinned_digest(&args.pins, &args.workload)?;
    checks.check(got == want, || {
        format!("row digest {got} does not match the pinned {want}")
    });

    let cell_median = |cost: &dyn Fn(&offline::CellRecord) -> f64| -> Vec<f64> {
        (0..first.cells.len())
            .map(|i| median(&timed.iter().map(|r| cost(&r.cells[i])).collect::<Vec<_>>()))
            .collect()
    };
    let latencies = cell_median(&|c| ms(c.latency));
    let cpus = cell_median(&|c| c.cpu_s);
    let outside = |total: &dyn Fn(&Round) -> f64, cell: &dyn Fn(&offline::CellRecord) -> f64| {
        median(
            &timed
                .iter()
                .map(|r| total(r) - r.cells.iter().map(cell).sum::<f64>())
                .collect::<Vec<_>>(),
        )
    };
    let wall = latencies.iter().sum::<f64>() / 1e3
        + outside(&|r| r.wall.as_secs_f64(), &|c| c.latency.as_secs_f64());
    let cpu = cpus.iter().sum::<f64>() + outside(&|r| r.cpu_s, &|c| c.cpu_s);
    let walls: Vec<f64> = plain.iter().map(|r| r.wall.as_secs_f64()).collect();
    let yields: Vec<f64> = first.cells.iter().map(|c| c.result.best_yield).collect();
    report.put("setup_s", median(&setup_times), "s");
    report.put("wall_s", wall, "s");
    report.put("cpu_s", cpu, "s");
    report.put("sims", first.simulations() as f64, "count");
    report.put("peak_rss_mb", peak_rss.unwrap_or(0.0), "MiB");
    report.put("best_yield", median(&yields), "fraction");
    report.put("job_p50_ms", quantile(&latencies, 0.5), "ms");
    report.put("job_p99_ms", quantile(&latencies, 0.99), "ms");
    // A cell commits exactly one row, so its first row is its last.
    report.put("first_row_p50_ms", quantile(&latencies, 0.5), "ms");
    report.put("first_row_p99_ms", quantile(&latencies, 0.99), "ms");
    report.put("jobs_per_s", latencies.len() as f64 / wall, "1/s");
    report.notes.push(format!(
        "{} rounds ({} timed) of {} cells ({} seeds); round walls {:?} s",
        plain.len(),
        timed.len(),
        first.cells.len(),
        spec.seeds.len(),
        walls
            .iter()
            .map(|w| (w * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
    ));

    if args.trace {
        let traced_wall = median(
            &traced
                .iter()
                .map(|r| r.wall.as_secs_f64())
                .collect::<Vec<_>>(),
        );
        let plain_wall = median(&walls[WARMUP_ROUNDS..]);
        report.put(
            "bench.trace_overhead_ratio",
            traced_wall / plain_wall - 1.0,
            "ratio",
        );
        reconcile(&ledger, checks, report);
        if args.workload == "oracle-dispatch" {
            parallel_comparison(&spec, &rows_path, first, plain_wall, checks, report)?;
            serve_layer(args, checks, report)?;
        }
        let dimension = campaign_unit_dimension(&spec)?;
        for (name, value, unit) in probes::run(dimension) {
            report.put(&name, value, unit);
        }
    }
    Ok(())
}

/// Runs the round once more on engines that dispatch over a pool of
/// `ENGINE_WORKERS` threads, which must simulate exactly as much, and
/// reports its wall time over the serial round's. The ratio is a layer
/// figure only: on a shared 2-core host the pool's per-batch thread
/// hand-offs swing its wall time by 2.5x, far beyond any end-to-end bound.
fn parallel_comparison(
    spec: &JobSpec,
    rows_path: &Path,
    serial: &Round,
    serial_wall: f64,
    checks: &mut Checks,
    report: &mut Report,
) -> Result<(), String> {
    let campaign = Campaign::new(JobSpec {
        engine: EngineKind::Parallel,
        ..spec.clone()
    })?;
    let round = run_round(&campaign, rows_path, None)?;
    checks.ops(round.cells.len());
    checks.check(round.simulations() == serial.simulations(), || {
        format!(
            "the parallel engines ran {} simulations, the serial ones {}",
            round.simulations(),
            serial.simulations()
        )
    });
    report.put(
        "runtime.parallel_over_serial",
        round.wall.as_secs_f64() / serial_wall,
        "ratio",
    );
    Ok(())
}

fn campaign_unit_dimension(spec: &JobSpec) -> Result<usize, String> {
    Ok(spec
        .resolve_scenarios()?
        .iter()
        .map(|s| s.statistical_dimension())
        .max()
        .unwrap_or(1))
}

/// Reports the ledger's per-layer metrics, prints the layer sum beside the
/// measured total, and checks simulation attribution and the unattributed
/// share.
fn reconcile(ledger: &Ledger, checks: &mut Checks, report: &mut Report) {
    for (name, value, unit) in ledger.metrics() {
        report.put(&name, value, unit);
    }
    checks.check(ledger.phase_sims == ledger.simulations_run, || {
        format!(
            "phase self simulations sum to {} but the engines ran {}",
            ledger.phase_sims, ledger.simulations_run
        )
    });
    let rounds = ledger.rounds.max(1.0);
    let drive = ledger.drive_ms / rounds;
    let exec_self = (ledger.drive_ms - ledger.execute_ms - ledger.callback_ms) / rounds;
    let callbacks = ledger.callback_ms / rounds;
    let phases = ledger.phase_self_ms / rounds;
    let engine = ledger.engine_wall_ms / rounds;
    let unattributed = ledger.unattributed_ms() / rounds;
    let ratio = if drive > 0.0 {
        unattributed / drive
    } else {
        0.0
    };
    report.notes.push(format!(
        "ledger per round: exec self {exec_self:.3} + callbacks {callbacks:.3} + phase self {phases:.3} + engine calls {engine:.3} = {:.3} ms of {drive:.3} ms measured; unattributed {unattributed:.3} ms ({:.2}%, bound {:.0}%)",
        exec_self + callbacks + phases + engine,
        ratio * 100.0,
        UNATTRIBUTED_MAX * 100.0
    ));
    report.put("bench.unattributed_ratio", ratio, "ratio");
    checks.check(ratio.abs() <= UNATTRIBUTED_MAX, || {
        format!(
            "unattributed share {:.2}% exceeds {:.0}%",
            ratio * 100.0,
            UNATTRIBUTED_MAX * 100.0
        )
    });
}

/// The service layer, measured in `oracle-dispatch`'s traced runs: an
/// in-process server with `SERVER_WORKERS` workers and `CLIENTS`
/// closed-loop clients, timed from the client side plus a `/metrics`
/// scrape. Every job must complete with every row streamed, and the jobs
/// sampled from the workload seed are replayed offline through
/// `drive_schedule` and must match the streamed rows byte for byte.
fn serve_layer(args: &Args, checks: &mut Checks, report: &mut Report) -> Result<(), String> {
    let data_dir = args.work_dir.join("serve-data");
    if data_dir.exists() {
        // Rows left by an earlier run would be resumed, not recomputed.
        std::fs::remove_dir_all(&data_dir)
            .map_err(|e| format!("cannot clear {}: {e}", data_dir.display()))?;
    }
    let server = serve::start(&data_dir)?;
    let run = serve::closed_loop(server.addr(), args.seed, SERVE_SECONDS);
    let scraped = serve::scrape(server.addr());
    server.shutdown();
    let scraped = scraped?;

    let mut replays = Vec::new();
    for job in &run.jobs {
        checks.ops(1);
        if let Some(error) = &job.error {
            checks.failures.push(format!("serve job failed: {error}"));
        }
        if let Some(body) = &job.body {
            replays.push((job.spec.clone(), body));
        }
    }
    checks.check(!replays.is_empty(), || {
        "no job was sampled for replay".into()
    });
    let rows_path = args.work_dir.join("replay").join("rows.jsonl");
    for (spec, body) in &replays {
        let round = run_round(&Campaign::new(spec.clone())?, &rows_path, None)?;
        checks.check(round.rows.concat().as_bytes() == body.as_slice(), || {
            format!(
                "streamed rows of seeds {:?} differ from the offline replay",
                spec.seeds
            )
        });
    }

    let ok: Vec<&serve::JobRun> = run.jobs.iter().filter(|j| j.ok).collect();
    let column = |f: fn(&serve::JobRun) -> f64| ok.iter().map(|j| f(j)).collect::<Vec<f64>>();
    let job = column(|j| j.job_ms);
    let first = column(|j| j.first_row_ms);
    let submit = column(|j| j.submit_ms);
    let gaps: Vec<f64> = ok
        .iter()
        .flat_map(|j| j.row_gaps_ms.iter().copied())
        .collect();
    let scraped_value = |name: &str| {
        scraped
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    report.put("serve.jobs_per_s", ok.len() as f64 / run.seconds, "1/s");
    report.put("serve.job_ms_p50", quantile(&job, 0.5), "ms");
    report.put("serve.job_ms_p99", quantile(&job, 0.99), "ms");
    report.put("serve.first_row_ms_p50", quantile(&first, 0.5), "ms");
    report.put("serve.first_row_ms_p99", quantile(&first, 0.99), "ms");
    report.put("serve.submit_ms_p50", quantile(&submit, 0.5), "ms");
    report.put("serve.submit_ms_p99", quantile(&submit, 0.99), "ms");
    report.put("serve.row_gap_ms_p50", quantile(&gaps, 0.5), "ms");
    report.put("serve.row_gap_ms_p99", quantile(&gaps, 0.99), "ms");
    report.put(
        "serve.jobs_rejected",
        scraped_value("moheco_serve_jobs_rejected_total"),
        "count",
    );
    report.put(
        "serve.jobs_failed",
        scraped_value("moheco_serve_jobs_failed_total"),
        "count",
    );
    report.put(
        "serve.engine_sims",
        scraped_value("moheco_engine_simulations_run"),
        "count",
    );
    report.put(
        "serve.cache_hit_ratio",
        scraped_value("moheco_engine_cache_hit_ratio"),
        "ratio",
    );
    report.put("serve.threads_peak", run.threads_peak, "count");
    report.notes.push(format!(
        "service: {} jobs by {} closed-loop clients on {} server workers in {:.1} s; {} replayed offline",
        ok.len(),
        serve::CLIENTS,
        serve::SERVER_WORKERS,
        run.seconds,
        replays.len()
    ));
    Ok(())
}

/// The metric names a run must report, with units.
fn expected_metrics(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.to_vec()
    } else {
        vec![
            ("setup_s", "s"),
            ("wall_s", "s"),
            ("cpu_s", "s"),
            ("sims", "count"),
            ("peak_rss_mb", "MiB"),
            ("best_yield", "fraction"),
            ("job_p50_ms", "ms"),
            ("job_p99_ms", "ms"),
            ("first_row_p50_ms", "ms"),
            ("first_row_p99_ms", "ms"),
            ("jobs_per_s", "1/s"),
        ]
    }
}

fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut checks = Checks::default();
    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "circuit-paper" | "oracle-dispatch" => run_offline(&args, &mut checks, &mut report),
        other => {
            eprintln!("error: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        checks.attempted += 1;
        checks.failures.push(e);
    }

    let mut metrics = Vec::new();
    for (name, unit) in expected_metrics(args.trace) {
        let value = report.get(name).unwrap_or(0.0);
        if !value.is_finite() {
            checks.failures.push(format!("{name} is not finite"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{:<52} {:>16} {unit}", name, format!("{value:.6}"));
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    for note in &report.notes {
        println!("# {note}");
    }
    let failed = checks.failures.len() as u64;
    let attempted = checks.attempted.max(1);
    if !args.trace {
        let err = report
            .yield_err_pp
            .map_or("n/a (no truth)".to_string(), |e| format!("{e:.6}"));
        println!("{:<52} {:>16} pp", "yield_err_pp", err);
    }
    println!(
        "{:<52} {:>16} ratio",
        "failed_ratio",
        format!("{:.6}", failed as f64 / attempted as f64)
    );
    for failure in &checks.failures {
        println!("# FAILED: {failure}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
