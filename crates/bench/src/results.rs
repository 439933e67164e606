//! The machine-readable result schema of the experiment harness and the CI
//! baseline gate built on it.
//!
//! One run of one scenario produces one [`ScenarioResult`]. Its
//! deterministic fields serialize as one flat JSONL row with a stable key
//! order ([`ScenarioResult::to_jsonl_row`]), the campaign row format. The
//! engine counters are embedded under an `engine_` prefix straight from
//! [`EngineStatsSnapshot::counter_fields`], so the runtime instrumentation
//! and the result schema cannot drift apart silently.
//!
//! `moheco-campaign` condenses the rows of each (scenario, algo) group into
//! one multi-seed [`AggregateResult`] (`RESULTS_<scenario>.json`). CI commits
//! one aggregate per scenario under `baselines/`, re-runs the 3-seed
//! campaign on every push, and [`compare_aggregates`] fails the build on
//!
//! * **schema drift** — the key set of the fresh aggregate differs from the
//!   baseline's (a new field means the baselines must be regenerated
//!   deliberately, in the same PR), or an identity field (scenario, algo,
//!   budget, engine, estimator, prescreen, seeds) changed;
//! * **yield deviation** — the cross-seed median yield moved by more than
//!   [`YIELD_TOLERANCE`] (5 percentage points) from the committed value.
//!
//! Timing (`wall_time_ms`, the engine's busy time) never reaches a row or
//! an aggregate, and the simulation counters are *reported* in the one-line
//! trend summary but never gated: they vary across hosts, while the gated
//! fields are deterministic in `(scenario, algo, budget, seed)` up to libm
//! rounding.
//!
//! Rows and aggregates are written and read through [`moheco_obs::json`];
//! its parser is re-exported here.

use moheco_obs::json::JsonWriter;
pub use moheco_obs::json::{parse_flat_json, JsonRecord, JsonValue};
use moheco_obs::PhaseBreakdown;
use moheco_runtime::EngineStatsSnapshot;
use std::collections::BTreeMap;

/// Version of the result schema; bump when a field is added, removed or
/// re-interpreted (and regenerate `baselines/`).
///
/// v2 added the `estimator` identity field and the `ci_half_width` outcome
/// field (the pluggable variance-reduction estimator layer). v3 added the
/// `prescreen` identity field and the `prescreen_skips` outcome field (the
/// surrogate candidate-prescreening stage). v4 is the campaign layer: the
/// per-run record gains the `engine_evicted_blocks` counter (bounded-memory
/// cache), a deterministic one-line JSONL form ([`ScenarioResult::
/// to_jsonl_row`]) streams per-(scenario, algo, seed) campaign cells, and
/// committed baselines become multi-seed [`AggregateResult`] records
/// (`seeds` + mean/median/std/CI fields) gated on the aggregate median —
/// a single-seed point estimate can pass or fail on seed noise alone, so
/// the trust boundary moved to statistics over repeated runs. v5 is the
/// observability layer: engine busy time moved to the segregated
/// [`moheco_runtime::EngineTiming`] struct, out of the counter snapshot,
/// and a traced run carries its [`ScenarioResult::phase_breakdown`] (never
/// in JSONL rows; the full span stream lives in the `--obs jsonl:` event
/// file read by `moheco-profile`). The online prescreen is gone, but v5
/// keeps its two fields as constants: `prescreen` is always `off` and
/// `prescreen_skips` always 0.
pub const SCHEMA_VERSION: u64 = 5;

/// Maximum allowed absolute deviation of `best_yield` from the committed
/// baseline (5 percentage points, per the CI gating policy).
pub const YIELD_TOLERANCE: f64 = 0.05;

/// The result record of one scenario execution ([`crate::RunSpec::execute`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Registry name of the scenario.
    pub scenario: String,
    /// Algorithm label (`fixed`, `memetic`, `two-stage`).
    pub algo: String,
    /// Budget-class label (`tiny`, `small`, `paper`).
    pub budget: String,
    /// Engine label (`serial`, `parallel`).
    pub engine: String,
    /// Variance-reduction estimator label (`mc`, `lhs`, `antithetic`, `is`).
    pub estimator: String,
    /// Prescreen label, always `off` (a constant field of schema v5).
    pub prescreen: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Number of design variables.
    pub dimension: u64,
    /// Number of statistical variables.
    pub statistical_dimension: u64,
    /// Whether the run ended with a feasible best design.
    pub feasible: bool,
    /// Reported yield of the best design.
    pub best_yield: f64,
    /// 95 % confidence-interval half-width of the final yield estimate,
    /// computed with the estimator's own variance formula (0 when no
    /// feasible design was found).
    pub ci_half_width: f64,
    /// Closed-form true yield of the best design (synthetic scenarios).
    pub true_yield: Option<f64>,
    /// `|best_yield - true_yield|`, when the truth is known.
    pub true_yield_abs_error: Option<f64>,
    /// Simulations executed by the run.
    pub simulations: u64,
    /// Generations executed.
    pub generations: u64,
    /// Nelder-Mead local searches triggered (memetic runs).
    pub local_searches: u64,
    /// Always 0: the prescreen that vetoed candidates was removed, and the
    /// field stays as a constant of schema v5.
    pub prescreen_skips: u64,
    /// FNV-1a digest of the per-generation trace (yield history + spend).
    pub trace_digest: String,
    /// The best design found. Like the timing fields it never appears in
    /// JSONL rows; the paper tables measure its reference yield.
    pub best_x: Vec<f64>,
    /// Wall-clock time of the run in milliseconds (reported, never gated).
    pub wall_time_ms: f64,
    /// Engine instrumentation snapshot (deterministic counters only).
    pub engine_stats: EngineStatsSnapshot,
    /// Per-phase budget attribution of the run; empty unless the run was
    /// traced. Like the other timing-adjacent data it never appears in
    /// JSONL rows.
    pub phase_breakdown: PhaseBreakdown,
}

impl ScenarioResult {
    /// Serializes the *deterministic* fields as a single JSONL line
    /// (newline included) in schema order: the campaign row format.
    /// `best_x`, `wall_time_ms` and the phase breakdown are excluded, so the row is a
    /// pure function of `(scenario, algo, budget, seed, engine, estimator)`:
    /// two runs of the same cell — standalone, inside a
    /// campaign, or after a campaign resume — produce byte-identical rows.
    pub fn to_jsonl_row(&self) -> String {
        let mut row = JsonWriter::inline();
        row.bare("schema_version", SCHEMA_VERSION)
            .str("scenario", &self.scenario)
            .str("algo", &self.algo)
            .str("budget", &self.budget)
            .str("engine", &self.engine)
            .str("estimator", &self.estimator)
            .str("prescreen", &self.prescreen)
            .bare("seed", self.seed)
            .bare("dimension", self.dimension)
            .bare("statistical_dimension", self.statistical_dimension)
            .bare("feasible", self.feasible)
            .f64("best_yield", self.best_yield)
            .f64("ci_half_width", self.ci_half_width)
            .opt_f64("true_yield", self.true_yield)
            .opt_f64("true_yield_abs_error", self.true_yield_abs_error)
            .bare("simulations", self.simulations)
            .bare("generations", self.generations)
            .bare("local_searches", self.local_searches)
            .bare("prescreen_skips", self.prescreen_skips)
            .str("trace_digest", &self.trace_digest);
        for (name, value) in self.engine_stats.counter_fields() {
            row.bare(&format!("engine_{name}"), value);
        }
        row.f64("engine_hit_rate", self.engine_stats.hit_rate());
        row.finish() + "\n"
    }
}

/// Outcome of gating one fresh result against its committed baseline.
#[derive(Debug, Clone)]
pub struct BaselineComparison {
    /// Scenario under comparison.
    pub scenario: String,
    /// Gating failures; empty means the gate passes.
    pub failures: Vec<String>,
    /// One-line trend summary for the CI job log.
    pub summary: String,
}

/// Multi-seed aggregate of one (scenario, algo) campaign cell group: the
/// schema-v4 baseline record. Where a v3 baseline froze one seed's point
/// estimate — so a gate verdict could be pure seed noise — the aggregate
/// carries the cross-seed distribution (mean / median / std / CI), and the
/// CI gate compares *medians*, which one outlier seed cannot drag.
///
/// Aggregates are a pure function of the campaign's per-seed JSONL rows
/// (timing fields are excluded end to end), so a resumed campaign emits
/// byte-identical aggregate files too.
#[derive(Debug, Clone)]
pub struct AggregateResult {
    /// Registry name of the scenario.
    pub scenario: String,
    /// Algorithm label.
    pub algo: String,
    /// Budget-class label.
    pub budget: String,
    /// Engine label.
    pub engine: String,
    /// Estimator label.
    pub estimator: String,
    /// Prescreen label.
    pub prescreen: String,
    /// The seeds aggregated over, ascending.
    pub seeds: Vec<u64>,
    /// Cross-seed summary of `best_yield`.
    pub best_yield: moheco::RunSummary,
    /// Mean per-run estimator CI half-width (within-run uncertainty).
    pub ci_half_width_mean: f64,
    /// Mean `|best_yield - true_yield|` where the truth is known.
    pub true_yield_abs_error_mean: Option<f64>,
    /// Exact total simulations across the seeds (an integer sum, not a
    /// lossy `mean × runs` reconstruction).
    pub simulations_total: u64,
    /// Cross-seed summary of the simulation counts.
    pub simulations: moheco::RunSummary,
    /// Mean generation count.
    pub generations_mean: f64,
    /// Total prescreen vetoes across seeds (always 0).
    pub prescreen_skips_total: u64,
    /// Mean engine cache hit-rate across seeds.
    pub cache_hit_rate_mean: f64,
    /// Per-seed trace digests, in seed order (informational, never gated).
    pub trace_digests: Vec<String>,
}

impl AggregateResult {
    /// Renders the seeds as the stable `"1,2,3"` identity string.
    pub fn seeds_label(&self) -> String {
        self.seeds
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }

    /// 95 % confidence half-width of the cross-seed mean yield
    /// (`Z · std / √runs`), the error bar that justifies the gate tolerance.
    pub fn best_yield_ci_half_width(&self) -> f64 {
        if self.best_yield.runs == 0 {
            0.0
        } else {
            moheco_sampling::Z_95 * self.best_yield.std_dev() / (self.best_yield.runs as f64).sqrt()
        }
    }

    /// Serializes the aggregate as a flat JSON object with a stable key
    /// order (the committed-baseline format).
    pub fn to_json(&self) -> String {
        let mut out = JsonWriter::pretty();
        out.bare("schema_version", SCHEMA_VERSION)
            .str("scenario", &self.scenario)
            .str("algo", &self.algo)
            .str("budget", &self.budget)
            .str("engine", &self.engine)
            .str("estimator", &self.estimator)
            .str("prescreen", &self.prescreen)
            .str("seeds", &self.seeds_label())
            .bare("runs", self.best_yield.runs)
            .f64("best_yield_mean", self.best_yield.mean)
            .f64("best_yield_median", self.best_yield.median)
            .f64("best_yield_std", self.best_yield.std_dev())
            .f64("best_yield_min", self.best_yield.min)
            .f64("best_yield_max", self.best_yield.max)
            .f64("best_yield_ci_half_width", self.best_yield_ci_half_width())
            .f64("ci_half_width_mean", self.ci_half_width_mean)
            .opt_f64("true_yield_abs_error_mean", self.true_yield_abs_error_mean)
            .bare("simulations_total", self.simulations_total)
            .f64("simulations_mean", self.simulations.mean)
            .f64("simulations_median", self.simulations.median)
            .f64("simulations_std", self.simulations.std_dev())
            .f64("generations_mean", self.generations_mean)
            .bare("prescreen_skips_total", self.prescreen_skips_total)
            .f64("cache_hit_rate_mean", self.cache_hit_rate_mean)
            .str("trace_digests", &self.trace_digests.join(","));
        out.finish()
    }

    /// The baseline file name. The default (`memetic`) algorithm keeps the
    /// historic `RESULTS_<scenario>.json` name so the committed `baselines/`
    /// layout is stable; other algorithms are qualified.
    pub fn file_name(&self) -> String {
        if self.algo == "memetic" {
            format!("RESULTS_{}.json", self.scenario)
        } else {
            format!("RESULTS_{}.{}.json", self.scenario, self.algo)
        }
    }
}

/// Groups parsed campaign rows by `(scenario, algo)` — preserving first-seen
/// order — and condenses each group into an [`AggregateResult`].
///
/// # Errors
///
/// Returns a message when a row lacks a required field.
pub fn aggregate_rows(rows: &[JsonRecord]) -> Result<Vec<AggregateResult>, String> {
    let mut order: Vec<(String, String)> = Vec::new();
    let mut groups: BTreeMap<(String, String), Vec<&JsonRecord>> = BTreeMap::new();
    for row in rows {
        let scenario = row
            .str("scenario")
            .ok_or("row without scenario")?
            .to_string();
        let algo = row.str("algo").ok_or("row without algo")?.to_string();
        let key = (scenario, algo);
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push(row);
    }

    let need = |row: &JsonRecord, key: &str| -> Result<f64, String> {
        row.num(key)
            .ok_or_else(|| format!("row without numeric {key:?}"))
    };

    let mut aggregates = Vec::with_capacity(order.len());
    for key in order {
        let mut rows = groups.remove(&key).expect("grouped above");
        // Seed order is the canonical aggregate order.
        rows.sort_by(|a, b| {
            a.num("seed")
                .partial_cmp(&b.num("seed"))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let first = rows[0];
        let mut seeds = Vec::new();
        let mut yields = Vec::new();
        let mut cis = Vec::new();
        let mut errors: Vec<f64> = Vec::new();
        let mut sims = Vec::new();
        let mut gens = Vec::new();
        let mut skips = 0u64;
        let mut hit_rates = Vec::new();
        let mut digests = Vec::new();
        for row in &rows {
            seeds.push(need(row, "seed")? as u64);
            yields.push(need(row, "best_yield")?);
            cis.push(need(row, "ci_half_width")?);
            if let Some(e) = row.num("true_yield_abs_error") {
                errors.push(e);
            }
            sims.push(need(row, "simulations")?);
            gens.push(need(row, "generations")?);
            skips += need(row, "prescreen_skips")? as u64;
            hit_rates.push(need(row, "engine_hit_rate")?);
            digests.push(row.str("trace_digest").unwrap_or("?").to_string());
        }
        let n = rows.len() as f64;
        aggregates.push(AggregateResult {
            scenario: key.0,
            algo: key.1,
            budget: first.str("budget").unwrap_or("?").to_string(),
            engine: first.str("engine").unwrap_or("?").to_string(),
            estimator: first.str("estimator").unwrap_or("?").to_string(),
            prescreen: first.str("prescreen").unwrap_or("?").to_string(),
            seeds,
            best_yield: moheco::RunSummary::of(&yields),
            ci_half_width_mean: cis.iter().sum::<f64>() / n,
            true_yield_abs_error_mean: (!errors.is_empty())
                .then(|| errors.iter().sum::<f64>() / errors.len() as f64),
            simulations_total: sims.iter().map(|&s| s as u64).sum(),
            simulations: moheco::RunSummary::of(&sims),
            generations_mean: gens.iter().sum::<f64>() / n,
            prescreen_skips_total: skips,
            cache_hit_rate_mean: hit_rates.iter().sum::<f64>() / n,
            trace_digests: digests,
        });
    }
    Ok(aggregates)
}

/// Fields that must match the baseline exactly: the group identity, with
/// the seed set in place of a single seed. The schema version is included so
/// a version bump always forces a deliberate baseline regeneration, even
/// when the key set happens not to change.
const AGGREGATE_IDENTITY_FIELDS: [&str; 8] = [
    "schema_version",
    "scenario",
    "algo",
    "budget",
    "engine",
    "estimator",
    "prescreen",
    "seeds",
];

/// Gates a fresh multi-seed aggregate (as JSON text) against its committed
/// baseline: schema drift and identity changes fail, and the yield
/// criterion compares the cross-seed *medians* within [`YIELD_TOLERANCE`].
/// The one-line summary reports the measured cross-seed std alongside, so
/// the tolerance is visibly justified (or not) by the actual run-to-run
/// noise.
pub fn compare_aggregates(baseline_text: &str, current_text: &str) -> BaselineComparison {
    let mut failures = Vec::new();
    let (baseline, current) = match (
        parse_flat_json(baseline_text),
        parse_flat_json(current_text),
    ) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            if let Err(e) = b {
                failures.push(format!("baseline unparsable: {e}"));
            }
            if let Err(e) = c {
                failures.push(format!("result unparsable: {e}"));
            }
            return BaselineComparison {
                scenario: "?".into(),
                failures,
                summary: "unparsable aggregate".into(),
            };
        }
    };
    let scenario = current.str("scenario").unwrap_or("?").to_string();

    if baseline.keys != current.keys {
        let missing: Vec<&String> = baseline
            .keys
            .iter()
            .filter(|k| !current.keys.contains(k))
            .collect();
        let extra: Vec<&String> = current
            .keys
            .iter()
            .filter(|k| !baseline.keys.contains(k))
            .collect();
        failures.push(format!(
            "schema drift: missing keys {missing:?}, new keys {extra:?} (regenerate baselines/ deliberately if intended)"
        ));
    }
    for field in AGGREGATE_IDENTITY_FIELDS {
        if baseline.values.get(field) != current.values.get(field) {
            failures.push(format!(
                "identity field {field:?} changed: baseline {:?}, current {:?}",
                baseline.values.get(field),
                current.values.get(field)
            ));
        }
    }

    let b_median = baseline.num("best_yield_median").unwrap_or(f64::NAN);
    let c_median = current.num("best_yield_median").unwrap_or(f64::NAN);
    let dy = c_median - b_median;
    if dy.is_nan() || dy.abs() > YIELD_TOLERANCE {
        failures.push(format!(
            "median yield deviation {dy:.3} exceeds the ±{YIELD_TOLERANCE} gate (baseline {b_median:.4}, current {c_median:.4})"
        ));
    }

    let c_std = current.num("best_yield_std").unwrap_or(f64::NAN);
    let b_sims = baseline.num("simulations_mean").unwrap_or(f64::NAN);
    let c_sims = current.num("simulations_mean").unwrap_or(f64::NAN);
    let sims_trend = if b_sims > 0.0 {
        format!("{:+.1}%", 100.0 * (c_sims - b_sims) / b_sims)
    } else {
        "n/a".to_string()
    };
    let summary = format!(
        "{scenario}: median yield {c_median:.4} (baseline {b_median:.4}, {dy:+.4}; cross-seed std {c_std:.4}) mean sims {c_sims:.0} (baseline {b_sims:.0}, {sims_trend}) {}",
        if failures.is_empty() { "OK" } else { "FAIL" }
    );
    BaselineComparison {
        scenario,
        failures,
        summary,
    }
}

/// FNV-1a digest of a stream of `f64` values (the per-generation trace),
/// rendered as 16 hex digits.
pub fn trace_digest(values: impl IntoIterator<Item = f64>) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> ScenarioResult {
        ScenarioResult {
            scenario: "margin_wall".into(),
            algo: "memetic".into(),
            budget: "small".into(),
            engine: "serial".into(),
            estimator: "mc".into(),
            prescreen: "off".into(),
            seed: 1,
            dimension: 4,
            statistical_dimension: 1,
            feasible: true,
            best_yield: 0.8725,
            ci_half_width: 0.0456,
            true_yield: Some(0.871),
            true_yield_abs_error: Some(0.0015),
            simulations: 1234,
            generations: 8,
            local_searches: 1,
            prescreen_skips: 0,
            trace_digest: "00ff00ff00ff00ff".into(),
            best_x: vec![0.5; 4],
            wall_time_ms: 12.5,
            engine_stats: EngineStatsSnapshot::default(),
            phase_breakdown: PhaseBreakdown::default(),
        }
    }

    #[test]
    fn digest_is_deterministic_and_sensitive() {
        let a = trace_digest([0.1, 0.2, 0.3]);
        let b = trace_digest([0.1, 0.2, 0.3]);
        let c = trace_digest([0.1, 0.2, 0.30000001]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn jsonl_row_roundtrips_every_field_and_drops_timing() {
        use moheco_obs::SpanEvent;
        let mut r = sample_result();
        // A traced run: the phase breakdown stays off the row like timing.
        r.phase_breakdown = PhaseBreakdown::from_span_events([SpanEvent {
            seq: 0,
            path: "run".into(),
            depth: 0,
            simulations: 1234,
            cache_hits: 0,
            evictions: 0,
            wall_nanos: 10,
        }]);
        let row = r.to_jsonl_row();
        assert!(row.ends_with('\n'));
        assert_eq!(row.trim_end().lines().count(), 1, "one line per row");
        let parsed = parse_flat_json(row.trim_end()).expect("row parses");
        assert_eq!(parsed.str("scenario"), Some("margin_wall"));
        assert_eq!(parsed.num("schema_version"), Some(SCHEMA_VERSION as f64));
        assert_eq!(parsed.num("best_yield"), Some(0.8725));
        assert_eq!(parsed.str("estimator"), Some("mc"));
        assert_eq!(parsed.num("ci_half_width"), Some(0.0456));
        assert_eq!(parsed.num("true_yield"), Some(0.871));
        assert_eq!(parsed.num("simulations"), Some(1234.0));
        assert_eq!(parsed.values.get("feasible"), Some(&JsonValue::Bool(true)));
        assert_eq!(
            parsed.values.get("engine_cache_hits"),
            Some(&JsonValue::Num(0.0))
        );
        assert_eq!(parsed.str("trace_digest"), Some("00ff00ff00ff00ff"));
        for timing in [
            "wall_time_ms",
            "engine_busy_nanos",
            "phase_breakdown",
            "best_x",
        ] {
            assert!(!parsed.values.contains_key(timing), "{timing} excluded");
        }

        r.true_yield = None;
        let parsed = parse_flat_json(r.to_jsonl_row().trim_end()).unwrap();
        assert_eq!(parsed.values.get("true_yield"), Some(&JsonValue::Null));
    }

    fn sample_rows() -> Vec<JsonRecord> {
        [(1u64, 0.90, 1000u64), (2, 0.80, 1200), (3, 0.95, 1100)]
            .into_iter()
            .map(|(seed, best_yield, simulations)| {
                let mut r = sample_result();
                r.seed = seed;
                r.best_yield = best_yield;
                r.simulations = simulations;
                parse_flat_json(r.to_jsonl_row().trim_end()).expect("row parses")
            })
            .collect()
    }

    #[test]
    fn aggregate_rows_computes_cross_seed_statistics() {
        let aggs = aggregate_rows(&sample_rows()).expect("aggregates");
        assert_eq!(aggs.len(), 1);
        let a = &aggs[0];
        assert_eq!(a.scenario, "margin_wall");
        assert_eq!(a.seeds, vec![1, 2, 3]);
        assert_eq!(a.seeds_label(), "1,2,3");
        assert_eq!(a.best_yield.median, 0.90);
        assert!((a.best_yield.mean - 0.8833333333333333).abs() < 1e-12);
        assert_eq!(a.simulations.median, 1100.0);
        assert_eq!(a.simulations_total, 3300, "exact integer sum");
        assert!(a.best_yield_ci_half_width() > 0.0);
        assert_eq!(a.trace_digests.len(), 3);
        assert_eq!(a.file_name(), "RESULTS_margin_wall.json");
        // Non-default algorithms get a qualified file name.
        let mut other = a.clone();
        other.algo = "fixed".into();
        assert_eq!(other.file_name(), "RESULTS_margin_wall.fixed.json");
        // The serialized aggregate round-trips through the flat parser.
        let parsed = parse_flat_json(&a.to_json()).expect("aggregate parses");
        assert_eq!(parsed.num("best_yield_median"), Some(0.90));
        assert_eq!(parsed.str("seeds"), Some("1,2,3"));
        assert_eq!(parsed.num("runs"), Some(3.0));
    }

    #[test]
    fn aggregate_gate_compares_medians_within_tolerance() {
        let baseline = aggregate_rows(&sample_rows()).unwrap().remove(0);
        // Small median drift passes; the mean may move freely.
        let mut near = baseline.clone();
        near.best_yield.median += 0.03;
        near.best_yield.mean += 0.2;
        let cmp = compare_aggregates(&baseline.to_json(), &near.to_json());
        assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
        assert!(cmp.summary.contains("cross-seed std"));
        // A large median drift fails.
        let mut far = baseline.clone();
        far.best_yield.median += 0.08;
        let cmp = compare_aggregates(&baseline.to_json(), &far.to_json());
        assert!(!cmp.failures.is_empty());
        assert!(cmp.failures[0].contains("median yield deviation"));
        // The seed set is part of the identity: a 2-seed aggregate can never
        // silently replace a 3-seed baseline.
        let mut fewer = baseline.clone();
        fewer.seeds = vec![1, 2];
        let cmp = compare_aggregates(&baseline.to_json(), &fewer.to_json());
        assert!(!cmp.failures.is_empty());
        assert!(cmp.failures.iter().any(|f| f.contains("seeds")));
        // So are the estimator and the prescreen: an lhs or prescreened
        // aggregate can never silently replace an mc or unscreened baseline.
        let mut lhs = baseline.clone();
        lhs.estimator = "lhs".into();
        let mut rsb = baseline.clone();
        rsb.prescreen = "rsb".into();
        for (other, field) in [(lhs, "estimator"), (rsb, "prescreen")] {
            let cmp = compare_aggregates(&baseline.to_json(), &other.to_json());
            assert!(cmp.failures.iter().any(|f| f.contains(field)), "{field}");
        }
        // A dropped key is schema drift.
        let current = baseline.to_json().replace("  \"runs\": 3,\n", "");
        let cmp = compare_aggregates(&baseline.to_json(), &current);
        assert!(cmp.failures.iter().any(|f| f.contains("schema drift")));
    }
}
