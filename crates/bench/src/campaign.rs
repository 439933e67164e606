//! The campaign layer: seed × scenario × algorithm grids as one long-lived
//! process.
//!
//! Every verdict this repository used to produce — the CI yield gate, the
//! estimator cost tables — was a *single-seed point estimate*, so a pass/fail could be pure seed noise.
//! [`run_campaign`] executes the full grid of a [`JobSpec`] and moves the
//! trust boundary to statistics over repeated runs:
//!
//! * **Engine reuse** — every cell runs through the one
//!   [`CellRunner`] on an engine leased from an [`EnginePool`] (quota-free,
//!   one tenant named `campaign`), so one engine per scenario lives for the
//!   whole campaign. In the default [`EngineReuse::Reset`] mode it is
//!   reseeded and fully reset before each cell, so every row is
//!   bit-identical to a standalone [`crate::RunSpec::execute`] of the same
//!   `(scenario, algo, budget, seed, estimator)`. The opt-in
//!   [`EngineReuse::SharedCache`] mode keeps the cache warm across cells:
//!   sample streams are seed-keyed, so every *yield* is still bit-identical —
//!   only the executed-simulation counters shrink (cache hits replace
//!   re-simulation), which is why shared-cache rows are not byte-comparable
//!   to standalone runs and `Reset` is the default.
//! * **Streaming resume** — each completed cell appends one deterministic
//!   JSONL row ([`crate::results::ScenarioResult::to_jsonl_row`]) through a
//!   [`CellWriter`], and the file is the source of truth: a killed campaign
//!   restarted with the same spec skips the rows already on disk (a
//!   trailing partial line from a mid-write kill is dropped). In the
//!   default `Reset` mode — where cells are independent — the resumed file
//!   is **byte-identical** to an uninterrupted run. In `SharedCache` mode
//!   only the *yields and trajectories* of post-resume rows are guaranteed
//!   identical: skipped cells never warmed the cache, so the
//!   executed-simulation counters of later rows can be larger than in an
//!   uninterrupted run. A sidecar `<jsonl>.spec` fingerprint
//!   ([`JobSpec::fingerprint`]) pins the reuse mode and cache bound, so a
//!   file can never be resumed under a different counter regime. The same
//!   `CellWriter` machinery backs `moheco-serve`'s HTTP jobs, so a killed
//!   and resumed *streamed* job reproduces the identical bytes too.
//! * **Aggregation** — after the grid completes, the rows are re-read and
//!   condensed into per-(scenario, algo) [`AggregateResult`]s
//!   (mean/median/std/CI of `best_yield`, simulation statistics, cache
//!   hit-rates), the schema-v4 records the CI baseline gate compares.

pub use crate::jobspec::{EngineReuse, JobSpec};

use crate::exec::{drive_schedule, CellOutcome, CellRunner};
use crate::pool::EnginePool;
use crate::results::{aggregate_rows, AggregateResult, ScenarioResult};
use crate::schedule::{Cell, ScheduleOutcome};
use moheco_obs::json::{fmt_f64, parse_flat_json, JsonRecord};
use moheco_obs::Tracer;
use moheco_runtime::{EngineCacheUsage, EngineStatsSnapshot};
use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The tenant a campaign's cells lease their engines under (the campaign
/// runs on its own quota-free [`EnginePool`]).
const CAMPAIGN_TENANT: &str = "campaign";

/// Cost accounting of one cell executed in this invocation (resumed cells
/// ran in an earlier process and consumed nothing here).
#[derive(Debug, Clone)]
pub struct CellCost {
    /// Scenario name of the cell.
    pub scenario: String,
    /// Algorithm label of the cell.
    pub algo: String,
    /// Seed of the cell.
    pub seed: u64,
    /// Engine counters of the cell (counters are reset before every cell, so
    /// these are per-cell even under [`EngineReuse::SharedCache`]).
    pub engine_stats: EngineStatsSnapshot,
    /// Wall-clock time of the cell in milliseconds. Timing — report it, but
    /// never gate or digest on it.
    pub wall_time_ms: f64,
}

/// What [`run_campaign`] did and found.
#[derive(Debug)]
pub struct CampaignReport {
    /// Cells skipped because their row was already on disk.
    pub resumed: usize,
    /// Cells executed in this invocation.
    pub executed: usize,
    /// Per-(scenario, algo) aggregates over the complete grid, in first-seen
    /// row order.
    pub aggregates: Vec<AggregateResult>,
    /// Per-cell costs of the cells executed in this invocation, in execution
    /// order.
    pub cell_costs: Vec<CellCost>,
    /// Final cache footprint of every pool engine (per-scenario breakdown
    /// plus implied totals), captured after the last cell so quota and
    /// bound enforcement are observable in `--metrics-out`.
    pub engine_cache: Vec<EngineCacheUsage>,
    /// What the campaign scheduler did: rounds, cells, gated groups, and
    /// seeds saved relative to the full rectangle.
    pub schedule: ScheduleOutcome,
}

impl CampaignReport {
    /// Engine counters summed over the cells executed in this invocation
    /// (`max_batch_samples` takes the maximum — it is a high-water mark, not
    /// a count). This is the snapshot the campaign's Prometheus exposition
    /// renders.
    pub fn total_engine_stats(&self) -> EngineStatsSnapshot {
        let mut total = EngineStatsSnapshot::default();
        for cell in &self.cell_costs {
            total.absorb(&cell.engine_stats);
        }
        total
    }
}

/// The sidecar path pinning a campaign file's spec fingerprint.
fn spec_path(jsonl_path: &Path) -> PathBuf {
    let mut name = jsonl_path.as_os_str().to_os_string();
    name.push(".spec");
    PathBuf::from(name)
}

/// An existing campaign JSONL file, read once.
struct ExistingFile {
    /// The parsed, identity-checked complete rows.
    rows: Vec<JsonRecord>,
    /// The file content up to (and including) the last newline.
    complete_text: String,
    /// Whether bytes follow the last newline (a torn mid-write tail).
    torn_tail: bool,
}

/// Reads the resumable rows of an existing campaign JSONL file (one read):
/// complete, parsable lines whose fixed identity matches the spec. A
/// trailing partial line (mid-write kill) is flagged for truncation; a
/// *mismatched* complete row is an error, because silently mixing two
/// campaigns' rows in one file would corrupt the aggregates. Returns `None`
/// when the file does not exist.
fn read_existing_rows(path: &Path, spec: &JobSpec) -> Result<Option<ExistingFile>, String> {
    let mut text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let complete_through = text.rfind('\n').map(|i| i + 1).unwrap_or(0);
    let torn_tail = complete_through < text.len();
    // Every row of one file shares these; a mismatch means the file belongs
    // to a different campaign.
    let expect: [(&str, String); 5] = [
        ("schema_version", crate::results::SCHEMA_VERSION.to_string()),
        ("budget", spec.budget.label().to_string()),
        ("engine", spec.engine.label().to_string()),
        ("estimator", spec.estimator.label().to_string()),
        ("prescreen", spec.prescreen.label().to_string()),
    ];
    let mut rows = Vec::new();
    for (lineno, line) in text[..complete_through].lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let row =
            parse_flat_json(line).map_err(|e| format!("{}:{}: {e}", path.display(), lineno + 1))?;
        for (field, want) in &expect {
            let got = row
                .str(field)
                .map(str::to_string)
                .or_else(|| row.num(field).map(|v| format!("{v}")));
            if got.as_deref() != Some(want.as_str()) {
                return Err(format!(
                    "{}:{}: row {field} is {got:?} but this campaign runs {want:?} — refusing to mix campaigns in one file",
                    path.display(),
                    lineno + 1
                ));
            }
        }
        rows.push(row);
    }
    text.truncate(complete_through);
    Ok(Some(ExistingFile {
        rows,
        complete_text: text,
        torn_tail,
    }))
}

/// Verifies (or, for a fresh campaign, writes) the sidecar spec fingerprint
/// next to the JSONL file. The rows themselves carry most of the identity,
/// but the reuse mode and cache bound shape the counters without appearing
/// in any row — resuming under different settings would silently mix
/// counter regimes in one aggregate, which is exactly what this rejects.
fn check_spec_fingerprint(jsonl_path: &Path, spec: &JobSpec, has_rows: bool) -> Result<(), String> {
    let path = spec_path(jsonl_path);
    let fingerprint = spec.fingerprint();
    match std::fs::read_to_string(&path) {
        Ok(existing) if existing == fingerprint => Ok(()),
        Ok(existing) => Err(format!(
            "{}: campaign spec changed — file was written with\n  {}but this invocation runs\n  {}refusing to mix counter regimes in one file",
            path.display(),
            existing,
            fingerprint
        )),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            if has_rows {
                return Err(format!(
                    "{}: campaign rows exist but the spec fingerprint {} is missing; re-run in a fresh --jsonl location",
                    jsonl_path.display(),
                    path.display()
                ));
            }
            std::fs::write(&path, fingerprint)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))
        }
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}

/// The resumable JSONL cell sink shared by `moheco-campaign` and the
/// `moheco-serve` job executor — the whole torn-write/resume protocol in
/// one place.
///
/// Opening a writer (1) creates the parent directories, (2) reads and
/// identity-checks any rows already on disk, (3) verifies or writes the
/// sidecar spec fingerprint, and (4) truncates a torn trailing line left by
/// a mid-write kill. Afterwards [`CellWriter::row_stats`] answers whether
/// (and with what statistics) a cell's row is already on disk and
/// [`CellWriter::append`] streams one flushed row per completed cell.
pub struct CellWriter {
    path: PathBuf,
    file: std::fs::File,
    /// `(best_yield, simulations)` per completed `(scenario, algo, seed)`
    /// cell — the observations an adaptive scheduler replays its decisions
    /// from when rows come off disk. Every row of a file shares the spec's
    /// budget class, so the budget is not part of the key.
    stats: HashMap<(String, String, u64), (f64, f64)>,
}

impl CellWriter {
    /// Opens (or creates) the campaign file for `spec`, enforcing the
    /// fingerprint/resume protocol described above.
    pub fn open(jsonl_path: &Path, spec: &JobSpec) -> Result<Self, String> {
        if let Some(parent) = jsonl_path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
            }
        }
        let existing = read_existing_rows(jsonl_path, spec)?;
        check_spec_fingerprint(
            jsonl_path,
            spec,
            existing.as_ref().is_some_and(|e| !e.rows.is_empty()),
        )?;
        let mut stats: HashMap<(String, String, u64), (f64, f64)> = HashMap::new();
        let file = match existing {
            None => std::fs::File::create(jsonl_path)
                .map_err(|e| format!("cannot create {}: {e}", jsonl_path.display()))?,
            Some(ex) => {
                for row in &ex.rows {
                    let key = (
                        row.str("scenario").unwrap_or_default().to_string(),
                        row.str("algo").unwrap_or_default().to_string(),
                        row.num("seed").unwrap_or(-1.0) as u64,
                    );
                    if let Some(y) = row.num("best_yield") {
                        stats.insert(key, (y, row.num("simulations").unwrap_or(0.0)));
                    }
                }
                // Drop a torn trailing line (mid-write kill) by re-writing
                // the complete prefix already in memory; an intact file is
                // opened for append untouched.
                if ex.torn_tail {
                    std::fs::write(jsonl_path, &ex.complete_text)
                        .map_err(|e| format!("cannot truncate {}: {e}", jsonl_path.display()))?;
                }
                std::fs::OpenOptions::new()
                    .append(true)
                    .open(jsonl_path)
                    .map_err(|e| format!("cannot append to {}: {e}", jsonl_path.display()))?
            }
        };
        Ok(Self {
            path: jsonl_path.to_path_buf(),
            file,
            stats,
        })
    }

    /// The `(best_yield, simulations)` of a completed cell (on disk at
    /// open, or appended since), or `None` when the cell has no row yet.
    pub fn row_stats(&self, scenario: &str, algo: &str, seed: u64) -> Option<(f64, f64)> {
        self.stats
            .get(&(scenario.to_string(), algo.to_string(), seed))
            .copied()
    }

    /// Number of identity-checked rows that were on disk at open time.
    pub fn resumed_rows(&self) -> usize {
        self.stats.len()
    }

    /// Appends one cell row and flushes it to disk (the row *is* the commit
    /// point of the resume protocol).
    pub fn append(&mut self, result: &ScenarioResult) -> Result<(), String> {
        self.file
            .write_all(result.to_jsonl_row().as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| format!("cannot append to {}: {e}", self.path.display()))?;
        let key = (result.scenario.clone(), result.algo.clone(), result.seed);
        self.stats
            .insert(key, (result.best_yield, result.simulations as f64));
        Ok(())
    }
}

/// Executes the campaign grid, streaming one JSONL row per completed cell to
/// `jsonl_path` and skipping cells whose rows are already on disk.
///
/// `progress` receives one human-readable line per cell (executed or
/// skipped) for the caller's log.
///
/// # Errors
///
/// Returns a message on I/O failures, on an invalid spec, or when
/// `jsonl_path` holds rows of a different campaign spec.
pub fn run_campaign(
    spec: &JobSpec,
    jsonl_path: &Path,
    progress: impl FnMut(&str),
) -> Result<CampaignReport, String> {
    run_campaign_traced(spec, jsonl_path, &Tracer::disabled(), progress)
}

/// [`run_campaign`] under a span tracer: every cell runs traced (the probe is
/// re-pointed at the cell's engine, so a campaign-wide [`Tracer::breakdown`]
/// aggregates phase attribution across all executed cells), and one live
/// `campaign_cell` event is emitted per completed cell with its cost fields
/// (`wall_time_ms` last, per the timing-segregation rule). The tracer never
/// touches the search RNG — rows are bit-identical with tracing on or off.
pub fn run_campaign_traced(
    spec: &JobSpec,
    jsonl_path: &Path,
    tracer: &Tracer,
    mut progress: impl FnMut(&str),
) -> Result<CampaignReport, String> {
    let pool = Arc::new(EnginePool::new(0));
    let runner = CellRunner::new(spec, pool.clone(), CAMPAIGN_TENANT)?;
    let writer = CellWriter::open(jsonl_path, spec)?;
    let mut cell_costs: Vec<CellCost> = Vec::new();
    let execute = |cell: &Cell| runner.run(cell, tracer);
    let on_cell = |cell: &Cell, outcome: CellOutcome| -> Result<(), String> {
        match outcome {
            CellOutcome::Resumed { .. } => progress(&format!(
                "{}/{}/seed {}: already on disk, skipped",
                cell.scenario, cell.algo, cell.seed
            )),
            CellOutcome::Executed(result) => {
                cell_costs.push(CellCost {
                    scenario: cell.scenario.clone(),
                    algo: cell.algo.clone(),
                    seed: cell.seed,
                    engine_stats: result.engine_stats,
                    wall_time_ms: result.wall_time_ms,
                });
                tracer.emit(
                    "campaign_cell",
                    &[
                        ("scenario", cell.scenario.clone()),
                        ("algo", cell.algo.clone()),
                        ("seed", cell.seed.to_string()),
                        ("budget", cell.budget.label().to_string()),
                        ("best_yield", fmt_f64(result.best_yield)),
                        ("simulations", result.simulations.to_string()),
                        ("cache_hit_rate", fmt_f64(result.engine_stats.hit_rate())),
                        ("wall_time_ms", fmt_f64(result.wall_time_ms)),
                    ],
                );
                let (blocks, bytes) = pool
                    .usage()
                    .iter()
                    .fold((0, 0), |(n, b), u| (n + u.blocks, b + u.bytes));
                progress(&format!(
                    "{}/{}/seed {}: yield {:.4} sims {} ({:.0} ms, cache {} blocks / {:.1} MiB)",
                    cell.scenario,
                    cell.algo,
                    cell.seed,
                    result.best_yield,
                    result.simulations,
                    result.wall_time_ms,
                    blocks,
                    bytes as f64 / (1024.0 * 1024.0),
                ));
            }
        }
        Ok(())
    };
    let schedule = drive_schedule(spec, writer, tracer, execute, on_cell)?;
    let resumed = schedule.resumed;
    let executed = schedule.executed;

    // Aggregates are computed from the rows on disk — the same source a
    // resumed campaign sees — so fresh and resumed runs emit byte-identical
    // aggregate records. Only rows of the *requested* grid participate: a
    // file written by a wider earlier invocation (more seeds, more
    // scenarios) resumes fine, but its stale cells must not leak into this
    // campaign's aggregates — e.g. regenerating 3-seed baselines over a
    // 5-seed file would otherwise silently commit 5-seed aggregates.
    // The grid is a product, so a row lies in it exactly when each of its
    // three coordinates lies on the matching axis.
    let seeds: HashSet<u64> = spec.seeds.iter().copied().collect();
    let rows = read_existing_rows(jsonl_path, spec)?
        .map(|e| e.rows)
        .unwrap_or_default();
    let total_rows = rows.len();
    let rows: Vec<JsonRecord> = rows
        .into_iter()
        .filter(|row| {
            runner.covers(
                row.str("scenario").unwrap_or_default(),
                row.str("algo").unwrap_or_default(),
            ) && seeds.contains(&(row.num("seed").unwrap_or(-1.0) as u64))
        })
        .collect();
    if rows.len() < total_rows {
        progress(&format!(
            "{} row(s) on disk lie outside the requested grid and are excluded from the aggregates",
            total_rows - rows.len()
        ));
    }
    let aggregates = aggregate_rows(&rows)?;
    Ok(CampaignReport {
        resumed,
        executed,
        aggregates,
        cell_costs,
        engine_cache: pool.usage(),
        schedule,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algo, BudgetClass, EngineKind, PrescreenKind};
    use moheco_sampling::EstimatorKind;

    fn tiny_spec(scenario: &str) -> JobSpec {
        JobSpec {
            scenarios: vec![scenario.to_string()],
            algos: vec![Algo::TwoStage],
            budget: BudgetClass::Tiny,
            seeds: vec![1, 2, 3],
            engine: EngineKind::Serial,
            estimator: EstimatorKind::default(),
            prescreen: PrescreenKind::Off,
            reuse: EngineReuse::Reset,
            max_cached_blocks: 0,
            schedule: crate::jobspec::ScheduleKind::Fixed,
        }
    }

    #[test]
    fn campaign_streams_rows_and_aggregates() {
        let dir = std::env::temp_dir().join("moheco-campaign-test-basic");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.jsonl");
        let spec = tiny_spec("margin_wall");
        let report = run_campaign(&spec, &path, |_| {}).expect("campaign runs");
        assert_eq!(report.executed, 3);
        assert_eq!(report.resumed, 0);
        assert_eq!(report.aggregates.len(), 1);
        let agg = &report.aggregates[0];
        assert_eq!(agg.scenario, "margin_wall");
        assert_eq!(agg.seeds, vec![1, 2, 3]);
        assert_eq!(agg.best_yield.runs, 3);
        assert!(agg.best_yield.std_dev() >= 0.0);
        // The final pool breakdown names the scenario's engine as
        // `tenant/scenario/estimator`.
        assert_eq!(report.engine_cache.len(), 1);
        assert_eq!(report.engine_cache[0].label, "campaign/margin_wall/mc");
        // Rows are on disk, one complete line per cell.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        // Re-running the identical spec resumes everything and re-emits the
        // exact same aggregates.
        let again = run_campaign(&spec, &path, |_| {}).expect("resume");
        assert_eq!(again.executed, 0);
        assert_eq!(again.resumed, 3);
        assert_eq!(again.aggregates[0].to_json(), agg.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mixed_campaign_files_are_rejected() {
        let dir = std::env::temp_dir().join("moheco-campaign-test-mixed");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.jsonl");
        let spec = tiny_spec("margin_wall");
        run_campaign(&spec, &path, |_| {}).expect("campaign runs");
        let mut other = tiny_spec("margin_wall");
        other.budget = BudgetClass::Small;
        let err = run_campaign(&other, &path, |_| {}).unwrap_err();
        assert!(err.contains("refusing to mix"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_rows_outside_the_requested_grid_are_excluded_from_aggregates() {
        // A 3-seed campaign file resumed by a 2-seed invocation must emit
        // 2-seed aggregates — the stale seed-3 rows stay on disk but never
        // leak into the written baselines.
        let dir = std::env::temp_dir().join("moheco-campaign-test-subset");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.jsonl");
        run_campaign(&tiny_spec("margin_wall"), &path, |_| {}).expect("3-seed campaign");
        let mut narrower = tiny_spec("margin_wall");
        narrower.seeds = vec![1, 2];
        let mut excluded_note = false;
        let report = run_campaign(&narrower, &path, |line| {
            excluded_note |= line.contains("outside the requested grid");
        })
        .expect("2-seed resume");
        assert_eq!(report.executed, 0);
        assert_eq!(report.resumed, 2);
        assert!(excluded_note, "exclusion must be reported");
        assert_eq!(report.aggregates.len(), 1);
        assert_eq!(report.aggregates[0].seeds, vec![1, 2]);
        assert_eq!(report.aggregates[0].best_yield.runs, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn counter_regime_changes_are_rejected_on_resume() {
        // The reuse mode and cache bound shape the row counters without
        // appearing in any row; the sidecar fingerprint must catch both.
        let dir = std::env::temp_dir().join("moheco-campaign-test-regime");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.jsonl");
        run_campaign(&tiny_spec("margin_wall"), &path, |_| {}).expect("campaign runs");

        let mut shared = tiny_spec("margin_wall");
        shared.reuse = EngineReuse::SharedCache;
        let err = run_campaign(&shared, &path, |_| {}).unwrap_err();
        assert!(err.contains("spec changed"), "{err}");

        let mut bounded = tiny_spec("margin_wall");
        bounded.max_cached_blocks = 4;
        let err = run_campaign(&bounded, &path, |_| {}).unwrap_err();
        assert!(err.contains("spec changed"), "{err}");

        // Rows without a fingerprint (e.g. a hand-assembled file) are
        // refused too: the counter regime cannot be established.
        std::fs::remove_file(path.with_extension("jsonl.spec")).unwrap();
        let err = run_campaign(&tiny_spec("margin_wall"), &path, |_| {}).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_specs_are_rejected_before_touching_disk() {
        let dir = std::env::temp_dir().join("moheco-campaign-test-invalid");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("campaign.jsonl");
        let mut spec = tiny_spec("margin_wall");
        spec.seeds.clear();
        let err = run_campaign(&spec, &path, |_| {}).unwrap_err();
        assert!(err.contains("no seeds"), "{err}");
        assert!(!path.exists(), "invalid spec must not create files");
    }
}
