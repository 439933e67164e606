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
//! No serialization crates exist in this build environment, so the module
//! carries its own minimal JSON writer and parser.

use moheco_obs::PhaseBreakdown;
use moheco_runtime::EngineStatsSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

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
/// file read by `moheco-profile`).
pub const SCHEMA_VERSION: u64 = 5;

/// Maximum allowed absolute deviation of `best_yield` from the committed
/// baseline (5 percentage points, per the CI gating policy).
pub const YIELD_TOLERANCE: f64 = 0.05;

/// The result record of one scenario execution ([`crate::RunSpec::execute`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Registry name of the scenario.
    pub scenario: String,
    /// Algorithm label (`de`, `ga`, `memetic`, `two-stage`).
    pub algo: String,
    /// Budget-class label (`tiny`, `small`, `paper`).
    pub budget: String,
    /// Engine label (`serial`, `parallel`).
    pub engine: String,
    /// Variance-reduction estimator label (`mc`, `lhs`, `antithetic`, `is`).
    pub estimator: String,
    /// Surrogate-prescreen label (`off`, `rsb`).
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
    /// Candidates the surrogate prescreen vetoed (0 when prescreening is
    /// off). For `memetic` / `two-stage` runs these are candidates demoted
    /// from their stage-1 OCBA seat to the probe budget; for `de` / `ga`
    /// runs they are trial vectors discarded without any evaluation.
    pub prescreen_skips: u64,
    /// FNV-1a digest of the per-generation trace (yield history + spend).
    pub trace_digest: String,
    /// Wall-clock time of the run in milliseconds (reported, never gated).
    pub wall_time_ms: f64,
    /// Engine instrumentation snapshot (deterministic counters only).
    pub engine_stats: EngineStatsSnapshot,
    /// Per-phase budget attribution of the run; empty unless the run was
    /// traced. Like the other timing-adjacent data it never appears in
    /// JSONL rows.
    pub phase_breakdown: PhaseBreakdown,
}

/// Formats a float for the flat-JSON writers (full round-trip precision so
/// baselines don't lose information; integral values keep a `.0` suffix so
/// they stay visibly floats).
pub fn fmt_f64(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map(fmt_f64).unwrap_or_else(|| "null".to_string())
}

impl ScenarioResult {
    /// Serializes the *deterministic* fields as a single JSONL line
    /// (newline included) in schema order: the campaign row format.
    /// `wall_time_ms` and the phase breakdown are excluded, so the row is a
    /// pure function of `(scenario, algo, budget, seed, engine, estimator,
    /// prescreen)`: two runs of the same cell — standalone, inside a
    /// campaign, or after a campaign resume — produce byte-identical rows.
    pub fn to_jsonl_row(&self) -> String {
        let mut out = String::from("{");
        let mut field = |k: &str, v: String| {
            let sep = if out.len() == 1 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{k}\": {v}");
        };
        field("schema_version", SCHEMA_VERSION.to_string());
        field("scenario", format!("\"{}\"", self.scenario));
        field("algo", format!("\"{}\"", self.algo));
        field("budget", format!("\"{}\"", self.budget));
        field("engine", format!("\"{}\"", self.engine));
        field("estimator", format!("\"{}\"", self.estimator));
        field("prescreen", format!("\"{}\"", self.prescreen));
        field("seed", self.seed.to_string());
        field("dimension", self.dimension.to_string());
        field(
            "statistical_dimension",
            self.statistical_dimension.to_string(),
        );
        field("feasible", self.feasible.to_string());
        field("best_yield", fmt_f64(self.best_yield));
        field("ci_half_width", fmt_f64(self.ci_half_width));
        field("true_yield", fmt_opt(self.true_yield));
        field("true_yield_abs_error", fmt_opt(self.true_yield_abs_error));
        field("simulations", self.simulations.to_string());
        field("generations", self.generations.to_string());
        field("local_searches", self.local_searches.to_string());
        field("prescreen_skips", self.prescreen_skips.to_string());
        field("trace_digest", format!("\"{}\"", self.trace_digest));
        for (name, value) in self.engine_stats.counter_fields() {
            field(&format!("engine_{name}"), value.to_string());
        }
        field("engine_hit_rate", fmt_f64(self.engine_stats.hit_rate()));
        out.push_str("}\n");
        out
    }
}

/// A parsed JSON scalar (the schema is flat; nested values are rejected).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (no escape handling beyond `\"` — the schema needs none).
    Str(String),
}

impl JsonValue {
    fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A parsed flat JSON object, key order preserved.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JsonRecord {
    /// Keys in file order.
    pub keys: Vec<String>,
    /// Key → value map.
    pub values: BTreeMap<String, JsonValue>,
}

impl JsonRecord {
    /// Numeric field accessor.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.values.get(key).and_then(JsonValue::as_f64)
    }

    /// String field accessor.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.values.get(key).and_then(JsonValue::as_str)
    }
}

/// Parses a flat JSON object (`{"k": scalar, ...}`).
///
/// # Errors
///
/// Returns a message describing the first syntax problem, including nested
/// arrays/objects (the result schema is flat by design).
pub fn parse_flat_json(text: &str) -> Result<JsonRecord, String> {
    let mut chars = text.chars().peekable();
    let mut record = JsonRecord::default();

    fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars>) {
        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
            chars.next();
        }
    }
    fn expect(chars: &mut std::iter::Peekable<std::str::Chars>, want: char) -> Result<(), String> {
        skip_ws(chars);
        match chars.next() {
            Some(c) if c == want => Ok(()),
            other => Err(format!("expected {want:?}, found {other:?}")),
        }
    }
    fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars>) -> Result<String, String> {
        expect(chars, '"')?;
        let mut s = String::new();
        loop {
            match chars.next() {
                Some('"') => return Ok(s),
                Some('\\') => match chars.next() {
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    other => return Err(format!("unsupported escape {other:?}")),
                },
                Some(c) => s.push(c),
                None => return Err("unterminated string".into()),
            }
        }
    }

    expect(&mut chars, '{')?;
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
        return Ok(record);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        expect(&mut chars, ':')?;
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some('"') => JsonValue::Str(parse_string(&mut chars)?),
            Some('{') | Some('[') => {
                return Err(format!("key {key:?}: nested values are not allowed"))
            }
            Some(_) => {
                let mut token = String::new();
                while matches!(chars.peek(), Some(c) if !",}".contains(*c) && !c.is_whitespace()) {
                    token.push(chars.next().expect("peeked"));
                }
                match token.as_str() {
                    "null" => JsonValue::Null,
                    "true" => JsonValue::Bool(true),
                    "false" => JsonValue::Bool(false),
                    t => JsonValue::Num(
                        t.parse()
                            .map_err(|_| format!("key {key:?}: bad number {t:?}"))?,
                    ),
                }
            }
            None => return Err("unexpected end of input".into()),
        };
        if record.values.insert(key.clone(), value).is_some() {
            return Err(format!("duplicate key {key:?}"));
        }
        record.keys.push(key);
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => continue,
            Some('}') => break,
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing content after the object".into());
    }
    Ok(record)
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

impl BaselineComparison {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
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
    /// Total prescreen vetoes across seeds.
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
        let mut out = String::from("{\n");
        let mut field = |k: &str, v: String| {
            let _ = writeln!(out, "  \"{k}\": {v},");
        };
        field("schema_version", SCHEMA_VERSION.to_string());
        field("scenario", format!("\"{}\"", self.scenario));
        field("algo", format!("\"{}\"", self.algo));
        field("budget", format!("\"{}\"", self.budget));
        field("engine", format!("\"{}\"", self.engine));
        field("estimator", format!("\"{}\"", self.estimator));
        field("prescreen", format!("\"{}\"", self.prescreen));
        field("seeds", format!("\"{}\"", self.seeds_label()));
        field("runs", self.best_yield.runs.to_string());
        field("best_yield_mean", fmt_f64(self.best_yield.mean));
        field("best_yield_median", fmt_f64(self.best_yield.median));
        field("best_yield_std", fmt_f64(self.best_yield.std_dev()));
        field("best_yield_min", fmt_f64(self.best_yield.min));
        field("best_yield_max", fmt_f64(self.best_yield.max));
        field(
            "best_yield_ci_half_width",
            fmt_f64(self.best_yield_ci_half_width()),
        );
        field("ci_half_width_mean", fmt_f64(self.ci_half_width_mean));
        field(
            "true_yield_abs_error_mean",
            fmt_opt(self.true_yield_abs_error_mean),
        );
        field("simulations_total", self.simulations_total.to_string());
        field("simulations_mean", fmt_f64(self.simulations.mean));
        field("simulations_median", fmt_f64(self.simulations.median));
        field("simulations_std", fmt_f64(self.simulations.std_dev()));
        field("generations_mean", fmt_f64(self.generations_mean));
        field(
            "prescreen_skips_total",
            self.prescreen_skips_total.to_string(),
        );
        field("cache_hit_rate_mean", fmt_f64(self.cache_hit_rate_mean));
        // Last field without the trailing comma.
        let _ = write!(
            out,
            "  \"trace_digests\": \"{}\"\n}}\n",
            self.trace_digests.join(",")
        );
        out
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
            wall_time_ms: 12.5,
            engine_stats: EngineStatsSnapshot::default(),
            phase_breakdown: PhaseBreakdown::default(),
        }
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse_flat_json("").is_err());
        assert!(parse_flat_json("{\"a\": }").is_err());
        assert!(parse_flat_json("{\"a\": {\"b\": 1}}").is_err());
        assert!(parse_flat_json("{\"a\": 1} trailing").is_err());
        assert!(parse_flat_json("{\"a\": 1, \"a\": 2}").is_err());
        assert!(parse_flat_json("{}").unwrap().keys.is_empty());
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
        for timing in ["wall_time_ms", "engine_busy_nanos", "phase_breakdown"] {
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
        other.algo = "de".into();
        assert_eq!(other.file_name(), "RESULTS_margin_wall.de.json");
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
        assert!(cmp.passed(), "{:?}", cmp.failures);
        assert!(cmp.summary.contains("cross-seed std"));
        // A large median drift fails.
        let mut far = baseline.clone();
        far.best_yield.median += 0.08;
        let cmp = compare_aggregates(&baseline.to_json(), &far.to_json());
        assert!(!cmp.passed());
        assert!(cmp.failures[0].contains("median yield deviation"));
        // The seed set is part of the identity: a 2-seed aggregate can never
        // silently replace a 3-seed baseline.
        let mut fewer = baseline.clone();
        fewer.seeds = vec![1, 2];
        let cmp = compare_aggregates(&baseline.to_json(), &fewer.to_json());
        assert!(!cmp.passed());
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
