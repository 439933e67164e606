//! Campaign scheduling: which cells run, in what order, and when to stop.
//!
//! The paper's budget-allocation insight — spend replications where the
//! observed variance says they buy information — applied one level up. A
//! campaign is a set of `(scenario, algo)` **groups**, each with a pool of
//! candidate seeds at the spec's [`BudgetClass`]; a [`CampaignScheduler`]
//! decides, round by round, which `(scenario, algo, seed)` cells to run
//! next based on the cross-seed statistics observed so far:
//!
//! * [`FixedGrid`] reproduces the historical behavior exactly: one round
//!   containing the whole remaining rectangle in grid order (scenario
//!   outer, algo middle, seed inner). Bit-identical rows, counters, and
//!   progress order.
//! * [`OcbaSchedule`] treats each group as an OCBA arm
//!   ([`moheco_ocba::Arm`]): after a min-seeds floor it grants further seed
//!   replications by cross-seed variance, and a group stops early once its
//!   95 % CI half-width on the cross-seed mean yield clears the gate
//!   threshold — converged cells stop buying seeds that noisy cells need.
//!   Every replication costs the same, as in the paper's Eq. (1), and
//!   every cell it runs is a cell of the fixed grid — so it can never cost
//!   more than [`FixedGrid`].
//!
//! # Determinism under resume
//!
//! [`crate::drive_schedule`] rebuilds scheduler state **only** from the
//! rows it consumes, in schedule order. Round 1 is a pure function of the
//! spec; every later round is a pure function of the
//! `(cell, best_yield, simulations)` sequence consumed so far. In
//! [`crate::EngineReuse::Reset`] mode each cell's row is a pure function of
//! `(scenario, algo, seed, budget)`, and rows are appended in schedule
//! order — so the rows a killed campaign left on disk are exactly a prefix
//! of the cell sequence the resumed process re-derives. The resumed process
//! consumes that prefix from disk (identical state evolution), reaches the
//! identical next decision, and appends byte-identical remaining rows. No
//! schedule journal is needed; the row log *is* the journal.

use crate::harness::BudgetClass;
use crate::jobspec::{JobSpec, ScheduleKind};
use crate::results::YIELD_TOLERANCE;
use moheco_obs::prometheus::{push_header, push_sample};
use moheco_ocba::{allocate_arm_increment, Arm};

/// One schedulable unit of campaign work.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cell {
    /// Registry name of the scenario.
    pub scenario: String,
    /// Algorithm label.
    pub algo: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Budget class the cell runs at (the spec's).
    pub budget: BudgetClass,
}

/// One completed cell of a group, as observed by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedCell {
    /// Master seed of the run.
    pub seed: u64,
    /// Reported yield of the run's best design.
    pub best_yield: f64,
    /// Simulations the run spent.
    pub simulations: f64,
}

/// Observed state of one `(scenario, algo)` group: its seed pool, its
/// budget class, and the cells completed so far, in completion order.
#[derive(Debug, Clone)]
pub struct GroupState {
    /// Registry name of the scenario.
    pub scenario: String,
    /// Algorithm label.
    pub algo: String,
    /// Candidate seeds, in spec order; the scheduler may use a prefix.
    pub seed_pool: Vec<u64>,
    /// Budget class every cell of the group runs at — the spec's.
    pub budget: BudgetClass,
    /// Every completed cell, in completion order.
    pub completed: Vec<CompletedCell>,
}

impl GroupState {
    /// Seeds completed so far.
    pub fn used(&self) -> usize {
        self.completed.len()
    }

    /// Pool seeds not yet completed, in pool order.
    pub fn unused(&self) -> impl Iterator<Item = u64> + '_ {
        self.seed_pool
            .iter()
            .copied()
            .filter(move |s| !self.completed.iter().any(|c| c.seed == *s))
    }

    /// Cross-seed mean of `best_yield` (NaN with no completions).
    pub fn mean(&self) -> f64 {
        if self.completed.is_empty() {
            return f64::NAN;
        }
        self.completed.iter().map(|c| c.best_yield).sum::<f64>() / self.used() as f64
    }

    /// Unbiased cross-seed variance of `best_yield` (0 below two
    /// completions).
    pub fn variance(&self) -> f64 {
        let n = self.used();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        self.completed
            .iter()
            .map(|c| (c.best_yield - mean).powi(2))
            .sum::<f64>()
            / (n - 1) as f64
    }

    /// 95 % CI half-width of the cross-seed mean yield, the same
    /// `Z_95 · std / √n` the aggregate records report. Infinite below two
    /// completions — a group can never gate on a single observation.
    pub fn ci_half_width(&self) -> f64 {
        let n = self.used();
        if n < 2 {
            return f64::INFINITY;
        }
        moheco_sampling::Z_95 * self.variance().sqrt() / (n as f64).sqrt()
    }
}

/// Everything a [`CampaignScheduler`] may condition on: the per-group
/// cross-seed observations, with groups in grid order (scenario outer, algo
/// middle).
#[derive(Debug, Clone)]
pub struct CampaignState {
    /// Per-group state, in grid order.
    pub groups: Vec<GroupState>,
}

impl CampaignState {
    /// The initial (empty-observation) state of a spec's grid.
    pub fn new(spec: &JobSpec) -> Self {
        let groups = spec
            .scenarios
            .iter()
            .flat_map(|scenario| {
                spec.algos.iter().map(|algo| GroupState {
                    scenario: scenario.clone(),
                    algo: algo.label().to_string(),
                    seed_pool: spec.seeds.clone(),
                    budget: spec.budget,
                    completed: Vec::new(),
                })
            })
            .collect();
        Self { groups }
    }

    /// Records one completed cell. Cells outside the grid are ignored;
    /// duplicate seed completions of a group are ignored.
    pub fn record(&mut self, cell: &Cell, best_yield: f64, simulations: f64) {
        if let Some(group) = self
            .groups
            .iter_mut()
            .find(|g| g.scenario == cell.scenario && g.algo == cell.algo)
        {
            if !group.completed.iter().any(|c| c.seed == cell.seed) {
                group.completed.push(CompletedCell {
                    seed: cell.seed,
                    best_yield,
                    simulations,
                });
            }
        }
    }
}

/// A campaign scheduling policy: given the observations so far, the next
/// round of cells to run (empty = campaign complete).
///
/// # Contract
///
/// Implementations must be **pure functions of the state** (no interior
/// mutability, no clocks, no RNG): [`crate::drive_schedule`] relies on this
/// to replay a killed campaign's decisions from its row log. Each non-empty
/// round must contain at least one cell not yet completed in some group —
/// otherwise the driver could loop forever — and must never repeat a
/// completed cell.
pub trait CampaignScheduler {
    /// The stable label (`fixed`, `ocba`) used in events and metrics.
    fn label(&self) -> &'static str;

    /// The next round of cells, in execution order.
    fn next_cells(&self, state: &CampaignState) -> Vec<Cell>;
}

/// A group's cell for `seed`, at the group's budget class.
fn cell_of(group: &GroupState, seed: u64) -> Cell {
    Cell {
        scenario: group.scenario.clone(),
        algo: group.algo.clone(),
        seed,
        budget: group.budget,
    }
}

/// The historical fixed rectangle: one round with every remaining cell in
/// grid order, at the spec's budget class. Bit-identical to the
/// pre-scheduler triple-nested loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedGrid;

impl CampaignScheduler for FixedGrid {
    fn label(&self) -> &'static str {
        "fixed"
    }

    fn next_cells(&self, state: &CampaignState) -> Vec<Cell> {
        state
            .groups
            .iter()
            .flat_map(|g| g.unused().map(|seed| cell_of(g, seed)))
            .collect()
    }
}

/// OCBA over the campaign grid: seed replications flow to the groups whose
/// cross-seed variance says they need them.
///
/// Round 1 grants every group its floor — `min(min_seeds, pool)` seeds —
/// so no group ever gates on fewer than [`OcbaSchedule::min_seeds`]
/// observations. Afterwards, each round considers the **open** groups
/// (unused seeds remain and the CI half-width still exceeds
/// [`OcbaSchedule::gate_half_width`]), maps each to an OCBA arm
/// (mean/variance = cross-seed statistics, count = seeds used, cap = pool
/// size), and asks [`allocate_arm_increment`] to split a delta of one
/// replication per open group. Converged or exhausted groups receive
/// nothing; the campaign ends when no group is open.
#[derive(Debug, Clone, Copy)]
pub struct OcbaSchedule {
    /// Minimum seeds per group before the gate may stop it.
    pub min_seeds: usize,
    /// CI half-width below which a group is considered converged. The
    /// default is [`YIELD_TOLERANCE`] — once the cross-seed mean is pinned
    /// tighter than the baseline gate's own tolerance, more seeds cannot
    /// change the verdict.
    pub gate_half_width: f64,
}

impl Default for OcbaSchedule {
    fn default() -> Self {
        Self {
            min_seeds: 3,
            gate_half_width: YIELD_TOLERANCE,
        }
    }
}

impl OcbaSchedule {
    /// Whether a group still wants seeds: unused seeds remain, and the CI
    /// half-width has not cleared the gate.
    fn is_open(&self, group: &GroupState) -> bool {
        group.used() < group.seed_pool.len() && group.ci_half_width() > self.gate_half_width
    }
}

impl CampaignScheduler for OcbaSchedule {
    fn label(&self) -> &'static str {
        "ocba"
    }

    fn next_cells(&self, state: &CampaignState) -> Vec<Cell> {
        // Phase A: the floor round. Any group below its floor gets topped
        // up first — statistics on fewer than `min_seeds` seeds are too
        // weak to allocate on (or to gate on).
        let mut floor_cells = Vec::new();
        for group in &state.groups {
            let floor = self.min_seeds.min(group.seed_pool.len());
            if group.used() < floor {
                floor_cells.extend(
                    group
                        .unused()
                        .take(floor - group.used())
                        .map(|seed| cell_of(group, seed)),
                );
            }
        }
        if !floor_cells.is_empty() {
            return floor_cells;
        }

        // Phase B: OCBA over the open groups, one replication per open
        // group per round. Every open group has `ci_half_width > gate`,
        // which requires a strictly positive variance — so the allocation
        // inputs are always valid, and the delta (= number of open groups)
        // always fits in the open groups' remaining room: each round
        // schedules at least one cell, and the campaign terminates.
        let open: Vec<&GroupState> = state.groups.iter().filter(|g| self.is_open(g)).collect();
        if open.is_empty() {
            return Vec::new();
        }
        let arms: Vec<Arm> = open
            .iter()
            .map(|g| Arm::new(g.mean(), g.variance(), g.used()).with_cap(g.seed_pool.len()))
            .collect();
        let grants = allocate_arm_increment(&arms, open.len())
            // Unreachable with yields in [0, 1] and ≥ 2 observations per
            // open group; the uniform fallback keeps the guarantee that a
            // non-empty open set always makes progress.
            .unwrap_or_else(|_| vec![1; open.len()]);
        open.iter()
            .zip(&grants)
            .flat_map(|(group, &n)| group.unused().take(n).map(|seed| cell_of(group, seed)))
            .collect()
    }
}

/// The scheduler implementation of a [`ScheduleKind`].
pub fn scheduler_for(kind: ScheduleKind) -> Box<dyn CampaignScheduler + Send + Sync> {
    match kind {
        ScheduleKind::Fixed => Box::new(FixedGrid),
        ScheduleKind::Ocba => Box::new(OcbaSchedule::default()),
    }
}

/// What one group of a completed schedule spent and saved.
#[derive(Debug, Clone)]
pub struct GroupOutcome {
    /// Registry name of the scenario.
    pub scenario: String,
    /// Algorithm label.
    pub algo: String,
    /// Seeds completed.
    pub seeds_used: usize,
    /// Pool seeds left unspent.
    pub seeds_saved: usize,
    /// Simulations the group spent in total.
    pub simulations: u64,
}

/// What a completed schedule did, for reports and metrics.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// The scheduler's stable label.
    pub label: &'static str,
    /// Allocation rounds taken (number of non-empty `next_cells` calls).
    pub rounds: usize,
    /// Cells the scheduler asked for in total.
    pub scheduled: usize,
    /// Scheduled cells executed in this invocation.
    pub executed: usize,
    /// Scheduled cells consumed from rows already on disk.
    pub resumed: usize,
    /// Groups stopped before exhausting their seed pool (0 under
    /// [`FixedGrid`], which always runs the full rectangle).
    pub groups_gated: usize,
    /// Seeds left unspent across all groups — the campaign-level budget the
    /// scheduler saved.
    pub seeds_saved: usize,
    /// Simulations spent across all groups.
    pub simulations_total: u64,
    /// Per-group accounting, in grid order.
    pub groups: Vec<GroupOutcome>,
}

impl ScheduleOutcome {
    pub(crate) fn new(label: &'static str) -> Self {
        Self {
            label,
            rounds: 0,
            scheduled: 0,
            executed: 0,
            resumed: 0,
            groups_gated: 0,
            seeds_saved: 0,
            simulations_total: 0,
            groups: Vec::new(),
        }
    }

    /// Fills the end-of-campaign accounting from the final scheduler
    /// state.
    pub(crate) fn finalize(&mut self, state: &CampaignState) {
        self.groups = state
            .groups
            .iter()
            .map(|g| {
                let simulations: f64 = g.completed.iter().map(|c| c.simulations).sum();
                GroupOutcome {
                    scenario: g.scenario.clone(),
                    algo: g.algo.clone(),
                    seeds_used: g.used(),
                    seeds_saved: g.seed_pool.len() - g.used(),
                    simulations: simulations.round() as u64,
                }
            })
            .collect();
        self.groups_gated = self.groups.iter().filter(|g| g.seeds_saved > 0).count();
        self.seeds_saved = self.groups.iter().map(|g| g.seeds_saved).sum();
        self.simulations_total = self.groups.iter().map(|g| g.simulations).sum();
    }

    /// Renders the `moheco_schedule_*` metric families in Prometheus text
    /// exposition format, labelled by scheduler.
    pub fn render_prometheus(&self, out: &mut String) {
        let families: [(&str, &str, f64); 7] = [
            (
                "moheco_schedule_rounds_total",
                "Allocation rounds taken by the campaign scheduler.",
                self.rounds as f64,
            ),
            (
                "moheco_schedule_cells_scheduled_total",
                "Cells the campaign scheduler asked for.",
                self.scheduled as f64,
            ),
            (
                "moheco_schedule_cells_executed_total",
                "Scheduled cells executed in this invocation.",
                self.executed as f64,
            ),
            (
                "moheco_schedule_cells_resumed_total",
                "Scheduled cells consumed from rows already on disk.",
                self.resumed as f64,
            ),
            (
                "moheco_schedule_groups_gated_total",
                "Groups stopped before exhausting their seed pool.",
                self.groups_gated as f64,
            ),
            (
                "moheco_schedule_seeds_saved_total",
                "Seeds left unspent across all groups.",
                self.seeds_saved as f64,
            ),
            (
                "moheco_schedule_simulations_total",
                "Simulations spent across all groups.",
                self.simulations_total as f64,
            ),
        ];
        for (name, help, value) in families {
            push_header(out, name, "counter", help);
            push_sample(out, name, &[("schedule", self.label)], value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algo, BudgetClass};

    fn grid_spec() -> JobSpec {
        JobSpec {
            scenarios: vec!["a".into(), "b".into()],
            algos: vec![Algo::TwoStage, Algo::Fixed],
            budget: BudgetClass::Tiny,
            seeds: vec![1, 2, 3],
            ..JobSpec::default()
        }
    }

    fn record_all(state: &mut CampaignState, cells: &[Cell], yield_of: impl Fn(&Cell) -> f64) {
        for cell in cells {
            let y = yield_of(cell);
            state.record(cell, y, 100.0);
        }
    }

    #[test]
    fn fixed_grid_is_one_round_in_grid_order() {
        let spec = grid_spec();
        let mut state = CampaignState::new(&spec);
        let round = FixedGrid.next_cells(&state);
        assert_eq!(round.len(), 12);
        // Scenario outer, algo middle, seed inner, all at the spec budget.
        assert_eq!(
            (
                round[0].scenario.as_str(),
                round[0].algo.as_str(),
                round[0].seed
            ),
            ("a", "two-stage", 1)
        );
        assert_eq!(
            (
                round[3].scenario.as_str(),
                round[3].algo.as_str(),
                round[3].seed
            ),
            ("a", "fixed", 1)
        );
        assert_eq!(
            (
                round[6].scenario.as_str(),
                round[6].algo.as_str(),
                round[6].seed
            ),
            ("b", "two-stage", 1)
        );
        assert!(round.iter().all(|c| c.budget == BudgetClass::Tiny));
        record_all(&mut state, &round, |_| 0.5);
        assert!(FixedGrid.next_cells(&state).is_empty(), "second round ends");
    }

    #[test]
    fn fixed_grid_resumes_with_the_remaining_rectangle() {
        let spec = grid_spec();
        let mut state = CampaignState::new(&spec);
        let full = FixedGrid.next_cells(&state);
        record_all(&mut state, &full[..5], |_| 0.5);
        let rest = FixedGrid.next_cells(&state);
        assert_eq!(rest, full[5..].to_vec());
    }

    #[test]
    fn ocba_floor_round_covers_every_group() {
        let spec = grid_spec();
        let sched = OcbaSchedule::default();
        let state = CampaignState::new(&spec);
        let round = sched.next_cells(&state);
        // 4 groups × floor 3 = the whole 3-seed pool here.
        assert_eq!(round.len(), 12);
        for group in &state.groups {
            let mine = round
                .iter()
                .filter(|c| c.scenario == group.scenario && c.algo == group.algo)
                .count();
            assert_eq!(mine, 3, "floor seeds for {}/{}", group.scenario, group.algo);
        }
    }

    #[test]
    fn ocba_gates_converged_groups_and_feeds_noisy_ones() {
        let mut spec = grid_spec();
        spec.seeds = (1..=8).collect();
        let sched = OcbaSchedule::default();
        let mut state = CampaignState::new(&spec);
        // Group a/two-stage is noisy (±0.3); everything else is converged
        // (±0.001 across seeds).
        let yield_of = |c: &Cell| {
            let wiggle = if c.scenario == "a" && c.algo == "two-stage" {
                0.3
            } else {
                0.001
            };
            0.5 + wiggle * (c.seed as f64 - 2.0)
        };
        let floor = sched.next_cells(&state);
        assert_eq!(floor.len(), 12, "floor: 4 groups x 3 seeds");
        record_all(&mut state, &floor, yield_of);
        let round = sched.next_cells(&state);
        assert!(!round.is_empty());
        assert!(
            round
                .iter()
                .all(|c| c.scenario == "a" && c.algo == "two-stage"),
            "only the noisy group stays open: {round:?}"
        );
        // Run the campaign dry: it must terminate with the noisy group
        // exhausted and every converged group stopped at the floor.
        let mut guard = 0;
        loop {
            let round = sched.next_cells(&state);
            if round.is_empty() {
                break;
            }
            record_all(&mut state, &round, yield_of);
            guard += 1;
            assert!(guard < 100, "scheduler must terminate");
        }
        for group in &state.groups {
            if group.scenario == "a" && group.algo == "two-stage" {
                assert_eq!(group.used(), 8, "noisy group spends its whole pool");
            } else {
                assert_eq!(group.used(), 3, "converged groups stop at the floor");
                assert!(group.ci_half_width() <= sched.gate_half_width);
            }
        }
    }

    #[test]
    fn ocba_honors_short_pools() {
        let mut spec = grid_spec();
        spec.seeds = vec![7, 9];
        let sched = OcbaSchedule::default();
        let mut state = CampaignState::new(&spec);
        let floor = sched.next_cells(&state);
        assert_eq!(floor.len(), 8, "floor clamps to the 2-seed pool");
        // Wildly noisy yields: the gate never clears, but the pools are
        // exhausted, so the schedule still ends.
        record_all(&mut state, &floor, |c| if c.seed == 7 { 0.1 } else { 0.9 });
        assert!(sched.next_cells(&state).is_empty());
    }

    #[test]
    fn schedule_decisions_replay_from_the_completion_log() {
        // The determinism-under-resume argument, in miniature: replaying a
        // prefix of the (cell, yield) log reproduces the identical next
        // round.
        let mut spec = grid_spec();
        spec.seeds = (1..=6).collect();
        let sched = OcbaSchedule::default();
        let yield_of =
            |c: &Cell| 0.4 + 0.07 * ((c.seed * 13 + c.algo.len() as u64 * 31) % 7) as f64;
        let mut log: Vec<(Cell, f64)> = Vec::new();
        let mut state = CampaignState::new(&spec);
        for _ in 0..4 {
            let round = sched.next_cells(&state);
            if round.is_empty() {
                break;
            }
            for cell in round {
                let y = yield_of(&cell);
                state.record(&cell, y, 100.0);
                log.push((cell, y));
            }
        }
        let reference = sched.next_cells(&state);
        // Replay the full log into a fresh state: same decision.
        let mut replayed = CampaignState::new(&spec);
        for (cell, y) in &log {
            replayed.record(cell, *y, 100.0);
        }
        assert_eq!(sched.next_cells(&replayed), reference);
    }

    #[test]
    fn outcome_metrics_render_all_families() {
        let outcome = ScheduleOutcome {
            label: "ocba",
            rounds: 4,
            scheduled: 15,
            executed: 10,
            resumed: 5,
            groups_gated: 3,
            seeds_saved: 9,
            simulations_total: 1234,
            groups: Vec::new(),
        };
        let mut out = String::new();
        outcome.render_prometheus(&mut out);
        for family in [
            "moheco_schedule_rounds_total",
            "moheco_schedule_cells_scheduled_total",
            "moheco_schedule_cells_executed_total",
            "moheco_schedule_cells_resumed_total",
            "moheco_schedule_groups_gated_total",
            "moheco_schedule_seeds_saved_total",
            "moheco_schedule_simulations_total",
        ] {
            assert!(out.contains(family), "missing {family}:\n{out}");
        }
        assert!(out.contains("schedule=\"ocba\""), "{out}");
        assert!(out.contains("moheco_schedule_seeds_saved_total{schedule=\"ocba\"} 9"));
        assert!(out.contains("moheco_schedule_simulations_total{schedule=\"ocba\"} 1234"));
    }
}
