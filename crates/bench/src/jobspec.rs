//! [`JobSpec`] — the one serializable description of a scenario × algorithm
//! × seed grid, shared verbatim by `moheco-campaign` (CLI) and
//! `moheco-serve` (HTTP `POST /jobs` bodies).
//!
//! A spec names its scenarios (resolution against the registry happens at
//! execution time), so the same object round-trips through the flat-JSON
//! wire format: [`JobSpec::to_json`] / [`JobSpec::parse`] are inverses. The
//! `.spec` sidecar fingerprint that pins a campaign JSONL file's counter
//! regime ([`JobSpec::fingerprint`]) is computed here and **only** here —
//! the CLI and the HTTP server can never drift apart on what "the same
//! campaign" means.

use crate::harness::PrescreenKind;
use crate::results::SCHEMA_VERSION;
use crate::{Algo, BudgetClass, EngineKind};
use moheco_obs::json::{parse_flat_json, JsonWriter};
use moheco_sampling::EstimatorKind;
use moheco_scenarios::{find_scenario, Scenario};
use std::collections::HashSet;
use std::hash::Hash;
use std::sync::Arc;

/// The largest seed count (`"seeds": N`, `--seeds N`) a spec may expand.
///
/// A count is shorthand for the explicit list `"1,2,…,N"`, so it may never
/// expand past what such a list could carry in a `POST /jobs` body
/// (`moheco-serve` caps bodies at 1 MiB): the list up to 100,000 is 588,894
/// bytes. Without a cap, `"seeds": 1e15` would abort the process on the
/// allocation of an 8 PB seed vector.
pub const MAX_SEED_COUNT: u64 = 100_000;

/// The largest grid (`scenarios × algos × seeds` cells) a spec may expand.
///
/// It equals [`MAX_SEED_COUNT`], so every seed count a spec accepts still
/// fits for one scenario and one algorithm; a wider study is several jobs.
pub const MAX_CELLS: usize = MAX_SEED_COUNT as usize;

/// Whether `items` holds some value twice.
fn has_repeat<T: Eq + Hash>(items: &[T]) -> bool {
    let mut seen = HashSet::with_capacity(items.len());
    !items.iter().all(|item| seen.insert(item))
}

/// Expands a seed count `n` into the seeds `1..=n`.
///
/// # Errors
///
/// Returns an error when `n` is 0 or above [`MAX_SEED_COUNT`].
pub fn seed_count(n: u64) -> Result<Vec<u64>, String> {
    if !(1..=MAX_SEED_COUNT).contains(&n) {
        return Err(format!(
            "seed count {n} must be between 1 and {MAX_SEED_COUNT}"
        ));
    }
    Ok((1..=n).collect())
}

/// How the per-scenario engine is prepared between campaign cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineReuse {
    /// Reseed + full reset before every cell: rows are bit-identical to
    /// standalone [`crate::RunSpec`] runs (the default, and the mode the
    /// determinism acceptance tests pin down).
    #[default]
    Reset,
    /// Reseed + counter reset only, keeping the cache warm across cells.
    /// Yields and search trajectories are unchanged (streams are seed-keyed
    /// pure functions), but executed-simulation counters shrink, so rows are
    /// *not* byte-comparable to standalone runs — and a *resumed*
    /// shared-cache campaign re-runs its remaining cells against a colder
    /// cache than an uninterrupted one would, so only the yield/trajectory
    /// fields of post-resume rows are reproducible, not the counters.
    /// Combine with [`JobSpec::max_cached_blocks`] to bound the long-lived
    /// memory.
    SharedCache,
}

impl EngineReuse {
    /// Parses a `--engine-reuse` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "reset" => Some(Self::Reset),
            "shared-cache" => Some(Self::SharedCache),
            _ => None,
        }
    }

    /// The stable label.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Reset => "reset",
            Self::SharedCache => "shared-cache",
        }
    }
}

/// Which [`crate::schedule::CampaignScheduler`] drives the campaign's cell
/// order and seed counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleKind {
    /// The full scenario × algo × seed rectangle in grid order (the default,
    /// bit-identical to the historical triple-nested loop).
    #[default]
    Fixed,
    /// OCBA over the campaign: seed replications flow to the noisy
    /// (scenario, algo) groups after a min-seeds floor, and a group stops
    /// early once its cross-seed CI half-width clears the gate threshold.
    /// Every cell runs at the spec's budget class, so an `ocba` campaign
    /// runs a subset of the `fixed` grid's cells.
    Ocba,
}

impl ScheduleKind {
    /// Parses a `--schedule` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fixed" => Some(Self::Fixed),
            "ocba" => Some(Self::Ocba),
            _ => None,
        }
    }

    /// The stable label.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Fixed => "fixed",
            Self::Ocba => "ocba",
        }
    }
}

/// The full, serializable specification of one job: a scenario × algorithm
/// × seed grid plus everything that shapes its rows and counters.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Scenario names, in execution (outer-loop) order; resolved against
    /// the registry by [`JobSpec::resolve_scenarios`].
    pub scenarios: Vec<String>,
    /// Algorithms, in execution (middle-loop) order.
    pub algos: Vec<Algo>,
    /// Budget class shared by every cell.
    pub budget: BudgetClass,
    /// Seeds, in execution (inner-loop) order.
    pub seeds: Vec<u64>,
    /// Engine implementation (serial / parallel).
    pub engine: EngineKind,
    /// Variance-reduction estimator shared by every cell.
    pub estimator: EstimatorKind,
    /// Prescreen identity, always [`PrescreenKind::Off`]; the `prescreen`
    /// key of the wire format parses `off` only.
    pub prescreen: PrescreenKind,
    /// Engine preparation mode between cells.
    pub reuse: EngineReuse,
    /// Cache-block bound of the long-lived engines (0 = unbounded).
    pub max_cached_blocks: usize,
    /// Campaign scheduler deciding cell order and per-group seed counts.
    /// `Fixed` runs the whole rectangle; `Ocba` may *omit* cells, which
    /// changes what lands on disk — so non-default kinds join the
    /// fingerprint and the wire format (absent = fixed, keeping every
    /// pre-existing sidecar and job id valid).
    pub schedule: ScheduleKind,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            scenarios: Vec::new(),
            algos: vec![Algo::default()],
            budget: BudgetClass::default(),
            seeds: vec![1],
            engine: EngineKind::default(),
            estimator: EstimatorKind::default(),
            prescreen: PrescreenKind::default(),
            reuse: EngineReuse::default(),
            max_cached_blocks: 0,
            schedule: ScheduleKind::default(),
        }
    }
}

impl JobSpec {
    /// A spec over the named scenarios with every other field defaulted.
    pub fn new(scenarios: Vec<String>) -> Self {
        Self {
            scenarios,
            ..Self::default()
        }
    }

    /// Number of grid cells.
    pub fn cells(&self) -> usize {
        self.scenarios.len() * self.algos.len() * self.seeds.len()
    }

    /// Checks the spec is executable: non-empty grid axes, every scenario
    /// name registered, no duplicate cells, and at most [`MAX_CELLS`] cells.
    ///
    /// Every check is linear in the axis lengths and runs before anything
    /// per cell is built, so a short hostile body cannot make a request
    /// handler expand a huge grid only to reject it.
    pub fn validate(&self) -> Result<(), String> {
        if self.scenarios.is_empty() {
            return Err("spec selects no scenarios".into());
        }
        if self.algos.is_empty() {
            return Err("spec selects no algorithms".into());
        }
        if self.seeds.is_empty() {
            return Err("spec selects no seeds".into());
        }
        let registered = moheco_scenarios::scenario_names();
        if let Some(name) = self.scenarios.iter().find(|n| !registered.contains(n)) {
            let names = registered.join(", ");
            return Err(format!("unknown scenario {name:?}; registered: {names}"));
        }
        // The grid is a product, so it repeats a cell exactly when one of
        // its axes repeats a value.
        let algos: Vec<&str> = self.algos.iter().map(Algo::label).collect();
        if has_repeat(&self.scenarios) || has_repeat(&algos) || has_repeat(&self.seeds) {
            return Err("spec repeats a (scenario, algo, seed) cell".into());
        }
        if self.cells() > MAX_CELLS {
            return Err(format!(
                "spec expands to {} cells; at most {MAX_CELLS} are allowed",
                self.cells()
            ));
        }
        Ok(())
    }

    /// Resolves the scenario names against the registry, in spec order.
    pub fn resolve_scenarios(&self) -> Result<Vec<Arc<dyn Scenario>>, String> {
        self.scenarios
            .iter()
            .map(|name| {
                find_scenario(name).ok_or_else(|| {
                    let names = moheco_scenarios::scenario_names().join(", ");
                    format!("unknown scenario {name:?}; registered: {names}")
                })
            })
            .collect()
    }

    /// The fixed-identity fingerprint of this job, written to the sidecar
    /// `<jsonl>.spec` file. It covers everything rows share (and so cannot
    /// be cross-checked per row) **plus** the settings that shape the
    /// counters without appearing in the rows at all — the reuse mode and
    /// the cache bound — so a file can never be resumed under a different
    /// counter regime. This is the single place the fingerprint format
    /// lives; the CLI campaign runner and the job server both call it.
    pub fn fingerprint(&self) -> String {
        // The schedule joins the fingerprint only when non-default: every
        // sidecar written before schedulers existed stays valid for fixed
        // campaigns, while an adaptive file can never be resumed as fixed
        // (or vice versa) — the two modes disagree on which cells exist.
        let schedule = match self.schedule {
            ScheduleKind::Fixed => String::new(),
            other => format!(" schedule={}", other.label()),
        };
        format!(
            "schema_version={} budget={} engine={} estimator={} prescreen={} engine_reuse={} max_cached_blocks={}{schedule}\n",
            SCHEMA_VERSION,
            self.budget.label(),
            self.engine.label(),
            self.estimator.label(),
            self.prescreen.label(),
            self.reuse.label(),
            self.max_cached_blocks,
        )
    }

    /// A stable hexadecimal job identifier: the FNV-1a hash of the tenant
    /// and the canonical serialization. Two submissions of the same spec by
    /// the same tenant collapse onto one job (and one resumable JSONL
    /// file); any differing field — including grid order — yields a
    /// different id.
    pub fn job_id(&self, tenant: &str) -> String {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in tenant.bytes().chain([0u8]).chain(self.to_json().bytes()) {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{hash:016x}")
    }

    /// Serializes the spec as one flat JSON object (lists are comma-joined
    /// strings — the workspace's flat parser takes no nested values).
    pub fn to_json(&self) -> String {
        let seeds = self
            .seeds
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let algos = self
            .algos
            .iter()
            .map(|a| a.label())
            .collect::<Vec<_>>()
            .join(",");
        let mut out = JsonWriter::inline();
        out.bare("schema_version", SCHEMA_VERSION)
            .str("scenarios", &self.scenarios.join(","))
            .str("algos", &algos)
            .str("budget", self.budget.label())
            .str("seeds", &seeds)
            .str("engine", self.engine.label())
            .str("estimator", self.estimator.label())
            .str("prescreen", self.prescreen.label())
            .str("engine_reuse", self.reuse.label())
            .bare("max_cached_blocks", self.max_cached_blocks);
        // Like the fingerprint, the schedule key appears only when
        // non-default, so the canonical serialization (and thus every job
        // id) of pre-existing fixed specs is unchanged.
        if self.schedule != ScheduleKind::Fixed {
            out.str("schedule", self.schedule.label());
        }
        out.finish()
    }

    /// Parses a spec from the flat JSON wire format ([`JobSpec::to_json`]'s
    /// inverse, also the `POST /jobs` request body). Only `scenarios` is
    /// required; every other field takes its [`JobSpec::default`]. `seeds`
    /// accepts either an explicit comma-joined list (`"seeds": "1,2,3"`) or
    /// a count (`"seeds": 3` means seeds 1..=3, like `--seeds 3`).
    ///
    /// Unknown keys are rejected by name: every optional field here has a
    /// default, so a typo'd key (`"schdule"`) would otherwise be a silent
    /// fallback to the default behavior rather than an error.
    pub fn parse(text: &str) -> Result<Self, String> {
        const KNOWN_KEYS: [&str; 11] = [
            "schema_version",
            "scenarios",
            "algos",
            "budget",
            "seeds",
            "engine",
            "estimator",
            "prescreen",
            "engine_reuse",
            "max_cached_blocks",
            "schedule",
        ];
        let record = parse_flat_json(text)?;
        for key in &record.keys {
            if !KNOWN_KEYS.contains(&key.as_str()) {
                return Err(format!(
                    "unknown spec key {key:?}; known keys: {}",
                    KNOWN_KEYS.join(", ")
                ));
            }
        }
        if let Some(v) = record.num("schema_version") {
            if v != SCHEMA_VERSION as f64 {
                return Err(format!(
                    "spec schema_version is {v} but this build writes {SCHEMA_VERSION}"
                ));
            }
        }
        let scenarios = match record.str("scenarios") {
            Some(s) => s.split(',').map(|p| p.trim().to_string()).collect(),
            None => return Err("spec is missing \"scenarios\"".into()),
        };
        let mut spec = Self {
            scenarios,
            ..Self::default()
        };
        if let Some(s) = record.str("algos") {
            spec.algos = s
                .split(',')
                .map(|p| {
                    Algo::parse(p.trim()).ok_or_else(|| format!("unknown algo {:?}", p.trim()))
                })
                .collect::<Result<_, _>>()?;
        }
        if let Some(s) = record.str("budget") {
            spec.budget = BudgetClass::parse(s).ok_or_else(|| format!("unknown budget {s:?}"))?;
        }
        if let Some(s) = record.str("seeds") {
            spec.seeds = s
                .split(',')
                .map(|p| {
                    p.trim()
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {:?}", p.trim()))
                })
                .collect::<Result<_, _>>()?;
        } else if let Some(n) = record.num("seeds") {
            if n < 1.0 || n.fract() != 0.0 {
                return Err(format!("\"seeds\": {n} must be a positive integer count"));
            }
            spec.seeds = seed_count(n as u64)?;
        }
        if let Some(s) = record.str("engine") {
            spec.engine = match s {
                "serial" => EngineKind::Serial,
                "parallel" => EngineKind::Parallel,
                _ => return Err(format!("unknown engine {s:?}")),
            };
        }
        if let Some(s) = record.str("estimator") {
            spec.estimator =
                EstimatorKind::parse(s).ok_or_else(|| format!("unknown estimator {s:?}"))?;
        }
        if let Some(s) = record.str("prescreen") {
            spec.prescreen =
                PrescreenKind::parse(s).ok_or_else(|| format!("unknown prescreen {s:?}"))?;
        }
        if let Some(s) = record.str("engine_reuse") {
            spec.reuse =
                EngineReuse::parse(s).ok_or_else(|| format!("unknown engine_reuse {s:?}"))?;
        }
        if let Some(n) = record.num("max_cached_blocks") {
            if n < 0.0 || n.fract() != 0.0 {
                return Err(format!(
                    "\"max_cached_blocks\": {n} must be a non-negative integer"
                ));
            }
            spec.max_cached_blocks = n as usize;
        }
        if let Some(s) = record.str("schedule") {
            spec.schedule =
                ScheduleKind::parse(s).ok_or_else(|| format!("unknown schedule {s:?}"))?;
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobSpec {
        JobSpec {
            scenarios: vec!["margin_wall".into(), "quadratic_feasibility".into()],
            algos: vec![Algo::TwoStage, Algo::Fixed],
            budget: BudgetClass::Tiny,
            seeds: vec![1, 2, 3],
            engine: EngineKind::Serial,
            estimator: EstimatorKind::default(),
            prescreen: PrescreenKind::Off,
            reuse: EngineReuse::SharedCache,
            max_cached_blocks: 64,
            schedule: ScheduleKind::Fixed,
        }
    }

    #[test]
    fn reuse_labels_roundtrip() {
        for reuse in [EngineReuse::Reset, EngineReuse::SharedCache] {
            assert_eq!(EngineReuse::parse(reuse.label()), Some(reuse));
        }
        assert_eq!(EngineReuse::parse("bogus"), None);
    }

    #[test]
    fn json_roundtrips() {
        let spec = sample();
        let parsed = JobSpec::parse(&spec.to_json()).expect("roundtrip");
        assert_eq!(parsed, spec);
        assert_eq!(spec.cells(), 12);
        spec.validate().expect("valid");
    }

    #[test]
    fn parse_defaults_and_seed_counts() {
        let spec = JobSpec::parse("{\"scenarios\": \"margin_wall\", \"seeds\": 3}").unwrap();
        assert_eq!(spec.scenarios, vec!["margin_wall"]);
        assert_eq!(spec.seeds, vec![1, 2, 3]);
        assert_eq!(spec.algos, vec![Algo::default()]);
        assert_eq!(spec.reuse, EngineReuse::Reset);
        assert!(
            JobSpec::parse("{\"budget\": \"tiny\"}").is_err(),
            "scenarios required"
        );
        // `ga` and `de` were algorithms once; an old spec naming one fails
        // closed.
        for unknown in ["warp", "ga", "de"] {
            let body = format!("{{\"scenarios\": \"margin_wall\", \"algos\": \"{unknown}\"}}");
            let err = JobSpec::parse(&body).expect_err("unknown algo");
            assert_eq!(err, format!("unknown algo {unknown:?}"));
        }
        // So does the removed `rsb` prescreen; `off` is the only value left.
        let body = "{\"scenarios\": \"margin_wall\", \"prescreen\": \"rsb\"}";
        assert_eq!(
            JobSpec::parse(body).expect_err("unknown prescreen"),
            "unknown prescreen \"rsb\""
        );
        let body = "{\"scenarios\": \"margin_wall\", \"prescreen\": \"off\"}";
        assert_eq!(JobSpec::parse(body).unwrap().prescreen, PrescreenKind::Off);
        assert!(JobSpec::parse("{\"scenarios\": \"margin_wall\", \"seeds\": 0}").is_err());
        // A count expands only up to the cap, so 1e15 is an error, not an
        // aborted allocation.
        assert!(JobSpec::parse("{\"scenarios\": \"margin_wall\", \"seeds\": 1e15}").is_err());
        let at_cap = format!("{{\"scenarios\": \"margin_wall\", \"seeds\": {MAX_SEED_COUNT}}}");
        assert_eq!(
            JobSpec::parse(&at_cap).unwrap().seeds.len() as u64,
            MAX_SEED_COUNT
        );
        assert!(seed_count(0).is_err() && seed_count(MAX_SEED_COUNT + 1).is_err());
    }

    #[test]
    fn validation_catches_bad_grids() {
        let mut empty = sample();
        empty.scenarios.clear();
        assert!(empty.validate().is_err());
        for repeat in [
            |s: &mut JobSpec| s.seeds = vec![1, 1],
            |s: &mut JobSpec| s.algos = vec![Algo::Fixed, Algo::Memetic, Algo::Fixed],
            |s: &mut JobSpec| s.scenarios.push("margin_wall".into()),
        ] {
            let mut dup = sample();
            repeat(&mut dup);
            assert!(dup.validate().unwrap_err().contains("repeats"), "{dup:?}");
        }
        let mut unknown = sample();
        unknown.scenarios = vec!["not_a_scenario".into()];
        assert!(unknown.validate().unwrap_err().contains("unknown scenario"));
        assert!(unknown.resolve_scenarios().is_err());
        assert_eq!(sample().resolve_scenarios().unwrap().len(), 2);
    }

    #[test]
    fn job_ids_are_stable_and_identity_sensitive() {
        let spec = sample();
        assert_eq!(spec.job_id("alice"), spec.job_id("alice"));
        assert_ne!(spec.job_id("alice"), spec.job_id("bob"));
        let mut other = sample();
        other.seeds = vec![1, 2];
        assert_ne!(spec.job_id("alice"), other.job_id("alice"));
        assert_eq!(spec.job_id("alice").len(), 16);
    }

    #[test]
    fn schedule_labels_roundtrip() {
        for kind in [ScheduleKind::Fixed, ScheduleKind::Ocba] {
            assert_eq!(ScheduleKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(ScheduleKind::parse("bogus"), None);
    }

    #[test]
    fn schedule_is_absent_from_fixed_wire_format_but_roundtrips_ocba() {
        // Fixed specs serialize exactly as they did before schedulers
        // existed — same canonical JSON, same job id space, same sidecar
        // fingerprint — so nothing on disk or in flight is invalidated.
        let fixed = sample();
        assert!(!fixed.to_json().contains("schedule"));
        assert!(!fixed.fingerprint().contains("schedule"));

        let mut ocba = sample();
        ocba.schedule = ScheduleKind::Ocba;
        assert!(ocba.to_json().contains("\"schedule\": \"ocba\""));
        assert!(ocba.fingerprint().contains(" schedule=ocba"));
        assert_ne!(fixed.fingerprint(), ocba.fingerprint());
        assert_ne!(fixed.job_id("alice"), ocba.job_id("alice"));
        let parsed = JobSpec::parse(&ocba.to_json()).expect("roundtrip");
        assert_eq!(parsed, ocba);
        // `ocba-shrink` was a schedule once; an old spec naming it fails
        // closed instead of silently running another policy.
        for unknown in ["warp", "ocba-shrink"] {
            let body = format!("{{\"scenarios\": \"margin_wall\", \"schedule\": \"{unknown}\"}}");
            let err = JobSpec::parse(&body).expect_err("unknown schedule");
            assert_eq!(err, format!("unknown schedule {unknown:?}"));
        }
    }

    #[test]
    fn unknown_spec_keys_are_rejected_by_name() {
        let err = JobSpec::parse("{\"scenarios\": \"margin_wall\", \"schdule\": \"ocba\"}")
            .expect_err("typo must not silently fall back to the default");
        assert!(err.contains("schdule"), "{err}");
        assert!(err.contains("known keys"), "{err}");
    }

    #[test]
    fn fingerprint_pins_the_counter_regime() {
        let spec = sample();
        let fp = spec.fingerprint();
        assert!(fp.contains("engine_reuse=shared-cache"));
        assert!(fp.contains("max_cached_blocks=64"));
        assert!(fp.ends_with('\n'));
        let mut reset = sample();
        reset.reuse = EngineReuse::Reset;
        assert_ne!(fp, reset.fingerprint());
        // Seeds/scenarios are carried per row, not in the fingerprint.
        let mut wider = sample();
        wider.seeds.push(9);
        assert_eq!(fp, wider.fingerprint());
    }

    #[test]
    fn canonical_wire_bytes_and_job_ids_are_pinned() {
        // The job id hashes these bytes and names the resumable
        // `job-<id>.jsonl` file, so any byte drift orphans files on disk.
        let fixed = JobSpec {
            scenarios: vec!["margin_wall".into()],
            seeds: vec![1, 2, 3],
            ..JobSpec::default()
        };
        assert_eq!(
            fixed.to_json(),
            "{\"schema_version\": 5, \"scenarios\": \"margin_wall\", \"algos\": \"memetic\", \
             \"budget\": \"small\", \"seeds\": \"1,2,3\", \"engine\": \"serial\", \"estimator\": \"mc\", \
             \"prescreen\": \"off\", \"engine_reuse\": \"reset\", \"max_cached_blocks\": 0}"
        );
        assert_eq!(fixed.job_id("acme"), "54ee9ed55f36ba74");
        let mut ocba = sample();
        ocba.schedule = ScheduleKind::Ocba;
        assert_eq!(
            ocba.to_json(),
            "{\"schema_version\": 5, \"scenarios\": \"margin_wall,quadratic_feasibility\", \
             \"algos\": \"two-stage,fixed\", \"budget\": \"tiny\", \"seeds\": \"1,2,3\", \"engine\": \"serial\", \
             \"estimator\": \"mc\", \"prescreen\": \"off\", \"engine_reuse\": \"shared-cache\", \
             \"max_cached_blocks\": 64, \"schedule\": \"ocba\"}"
        );
        assert_eq!(ocba.job_id("acme"), "8d1a56c53acd0a85");
    }
}
