//! The unified execution core: one scheduler-driven state machine shared
//! by `moheco-campaign`, the `moheco-serve` workers, and `schedule-study`.
//!
//! [`ExecutionCore`] owns the whole replay protocol described in
//! [`crate::schedule`]: it cuts allocation rounds from the scheduler,
//! resolves each cell either from rows already on disk or by running it,
//! and commits completions — row append, scheduler-state update, caller
//! callback — **in schedule order**, however many workers execute cells.
//!
//! # In-flight semantics
//!
//! A round is cut **once**, from the committed state, and its cells become
//! slots. [`ExecutionCore::claim`] hands out pending slots in order, the
//! caller runs each cell wherever it likes, and [`ExecutionCore::complete`]
//! posts the result; a commit pointer advances over the longest done-prefix,
//! so rows land in the file in the exact order a single-worker run would
//! produce. The next round is cut only when the current round is fully
//! committed (a barrier, where `claim` returns `None` before the core is
//! finished): scheduler decisions depend only on fully-ordered completions.
//!
//! So under [`crate::EngineReuse::Reset`], where each cell's row is a pure
//! function of the cell identity, N workers produce the byte-identical JSONL
//! a single worker would. (Under [`crate::EngineReuse::SharedCache`] yields
//! are still identical, but cache-warmth counters depend on execution
//! order, so byte-identity is only guaranteed with one worker.)
//!
//! The core is a plain `&mut self` state machine: no lock, no waiting, no
//! stored closure — the commit callback is passed to each call that may
//! commit. [`drive_schedule`] runs it on the calling thread; the service
//! keeps its cores under the job registry's one mutex and condvar. The
//! first error fails the core for good, and every [`Claim`] carries the
//! epoch of the core that issued it, so a result posted to a failed core or
//! to a newer core of the same job is dropped, never written.
//!
//! [`CellRunner`] is the one cell executor of `moheco-campaign` and
//! `moheco-serve`: a cell's [`RunSpec`] on an engine leased from an
//! [`EnginePool`].

use crate::campaign::CellWriter;
use crate::harness::{Algo, RunSpec};
use crate::jobspec::JobSpec;
use crate::pool::EnginePool;
use crate::results::ScenarioResult;
use crate::schedule::{scheduler_for, CampaignScheduler, CampaignState, Cell, ScheduleOutcome};
use moheco_obs::{Span, Tracer};
use moheco_scenarios::Scenario;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How the core resolved one scheduled cell, for the caller's per-cell
/// accounting (progress lines, cost records, quota enforcement).
pub enum CellOutcome<'a> {
    /// The cell's row was already on disk and was consumed, not re-run.
    Resumed {
        /// `best_yield` of the on-disk row.
        best_yield: f64,
    },
    /// The cell executed in this invocation; its row has been appended.
    Executed(&'a ScenarioResult),
}

/// How a slot's cell completed.
enum Resolution {
    /// Consumed from a row already on disk.
    Resumed { best_yield: f64, simulations: f64 },
    /// Executed by a worker in this invocation.
    Executed(Box<ScenarioResult>),
}

/// One cell of the current round.
enum Slot {
    /// Not yet claimed by any worker.
    Pending,
    /// Claimed by a worker (or already committed — slots behind the
    /// commit pointer are never inspected again).
    Claimed,
    /// Completed, waiting for the commit pointer to reach it.
    Done(Resolution),
}

/// The source of core epochs: every core gets a number no other core of
/// this process has, so a claim can never complete a core it did not come
/// from.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

/// The right to post one cell's result back to the core that issued it
/// ([`ExecutionCore::claim`] / [`ExecutionCore::complete`]). Not `Clone`:
/// each claim completes at most once.
#[derive(Debug)]
pub struct Claim {
    epoch: u64,
    index: usize,
}

/// A scheduler-driven campaign execution: rounds are cut from observed
/// state, cells execute (possibly concurrently), completions commit in
/// schedule order. See the module docs for the full contract.
pub struct ExecutionCore {
    scheduler: Box<dyn CampaignScheduler + Send + Sync>,
    epoch: u64,
    state: CampaignState,
    writer: CellWriter,
    tracer: Tracer,
    outcome: ScheduleOutcome,
    round: Vec<Cell>,
    slots: Vec<Slot>,
    committed: usize,
    finished: bool,
    error: Option<String>,
}

impl ExecutionCore {
    /// Builds the core for `spec`'s campaign and fast-forwards through the
    /// rows `writer` already holds: when this returns, the current round
    /// is ready for claims (or the campaign is already finished, if every
    /// scheduled cell was on disk).
    ///
    /// `commit` observes every cell resolved from disk here; later
    /// completions are observed by the callback passed to
    /// [`ExecutionCore::complete`]. Together they see every scheduled cell,
    /// in schedule order.
    ///
    /// # Errors
    ///
    /// Propagates `commit` errors and writer I/O errors verbatim.
    pub fn new<C>(
        spec: &JobSpec,
        writer: CellWriter,
        tracer: Tracer,
        commit: &mut C,
    ) -> Result<Self, String>
    where
        C: FnMut(&Cell, CellOutcome<'_>) -> Result<(), String>,
    {
        let scheduler = scheduler_for(spec.schedule);
        let mut core = Self {
            epoch: NEXT_EPOCH.fetch_add(1, Ordering::Relaxed),
            state: CampaignState::new(spec),
            writer,
            tracer,
            outcome: ScheduleOutcome::new(scheduler.label()),
            scheduler,
            round: Vec::new(),
            slots: Vec::new(),
            committed: 0,
            finished: false,
            error: None,
        };
        core.cut_rounds(commit)?;
        Ok(core)
    }

    /// This core's epoch: unique among the cores of this process, and
    /// carried by every [`Claim`] the core issues.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the core has stopped for good: every scheduled cell is
    /// committed, or a completion failed it.
    pub fn is_finished(&self) -> bool {
        self.finished || self.error.is_some()
    }

    /// The campaign's savings accounting once every scheduled cell is
    /// committed.
    ///
    /// # Errors
    ///
    /// Returns the error that failed the core, or a message while cells
    /// are still outstanding.
    pub fn outcome(&self) -> Result<ScheduleOutcome, String> {
        match &self.error {
            Some(err) => Err(err.clone()),
            None if self.finished => Ok(self.outcome.clone()),
            None => Err("the campaign has cells outstanding".to_string()),
        }
    }

    /// Claims the first pending cell of the current round. `None` at a
    /// round barrier (every cell of the round is claimed, some are not yet
    /// completed) and once the core is finished.
    pub fn claim(&mut self) -> Option<(Claim, Cell)> {
        if self.is_finished() {
            return None;
        }
        let index = (self.committed..self.slots.len())
            .find(|&index| matches!(self.slots[index], Slot::Pending))?;
        self.slots[index] = Slot::Claimed;
        let claim = Claim {
            epoch: self.epoch,
            index,
        };
        Some((claim, self.round[index].clone()))
    }

    /// Posts a claimed cell's result: commits the longest done-prefix of
    /// the round (row append, state update, `commit`), and cuts the next
    /// round once the current one is fully committed.
    ///
    /// A claim issued by another core (a stale epoch) is dropped. A result
    /// posted to a failed core is dropped too, and returns the error that
    /// failed it.
    ///
    /// # Errors
    ///
    /// The first error wins: an `Err` result, a `commit` error or a writer
    /// I/O error fails the core, and this and every later completion
    /// return it.
    pub fn complete<C>(
        &mut self,
        claim: Claim,
        result: Result<ScenarioResult, String>,
        commit: &mut C,
    ) -> Result<(), String>
    where
        C: FnMut(&Cell, CellOutcome<'_>) -> Result<(), String>,
    {
        if claim.epoch != self.epoch {
            return Ok(());
        }
        if let Some(err) = &self.error {
            return Err(err.clone());
        }
        let step = result.and_then(|result| {
            self.slots[claim.index] = Slot::Done(Resolution::Executed(Box::new(result)));
            self.advance_commit(commit)?;
            if self.committed == self.slots.len() {
                self.cut_rounds(commit)?;
            }
            Ok(())
        });
        if let Err(err) = &step {
            self.error = Some(err.clone());
        }
        step
    }

    /// Advances the commit pointer over the longest done-prefix of the
    /// round: each committed cell appends its row (if executed), feeds the
    /// scheduler state, and fires the caller's commit callback — the exact
    /// order the historical sequential driver used.
    fn advance_commit<C>(&mut self, commit: &mut C) -> Result<(), String>
    where
        C: FnMut(&Cell, CellOutcome<'_>) -> Result<(), String>,
    {
        while self.committed < self.slots.len()
            && matches!(self.slots[self.committed], Slot::Done(_))
        {
            let slot = std::mem::replace(&mut self.slots[self.committed], Slot::Claimed);
            let Slot::Done(resolution) = slot else {
                unreachable!("the matches! guard admits only done slots");
            };
            let cell = &self.round[self.committed];
            match resolution {
                Resolution::Resumed {
                    best_yield,
                    simulations,
                } => {
                    self.outcome.resumed += 1;
                    self.state.record(cell, best_yield, simulations);
                    commit(cell, CellOutcome::Resumed { best_yield })?;
                }
                Resolution::Executed(result) => {
                    self.writer.append(&result)?;
                    self.outcome.executed += 1;
                    self.state
                        .record(cell, result.best_yield, result.simulations as f64);
                    commit(cell, CellOutcome::Executed(&result))?;
                }
            }
            self.committed += 1;
        }
        Ok(())
    }

    /// Cuts rounds until one has work left to execute (or the schedule
    /// ends): asks the scheduler for the next round, pre-resolves every
    /// cell whose row is already on disk, and commits the resolved prefix.
    /// A round that resolves entirely from disk commits in full and the
    /// loop cuts the next one — so a resumed campaign fast-forwards through
    /// its consumed prefix without handing out a single claim.
    fn cut_rounds<C>(&mut self, commit: &mut C) -> Result<(), String>
    where
        C: FnMut(&Cell, CellOutcome<'_>) -> Result<(), String>,
    {
        loop {
            let round = {
                let _span = Span::enter(&self.tracer, "campaign/schedule");
                self.scheduler.next_cells(&self.state)
            };
            if round.is_empty() {
                self.finished = true;
                self.outcome.finalize(&self.state);
                return Ok(());
            }
            self.outcome.rounds += 1;
            self.outcome.scheduled += round.len();
            self.tracer.emit(
                "campaign_schedule",
                &[
                    ("schedule", self.scheduler.label().to_string()),
                    ("round", self.outcome.rounds.to_string()),
                    ("cells", round.len().to_string()),
                ],
            );
            self.slots = round
                .iter()
                .map(
                    |cell| match self.writer.row_stats(&cell.scenario, &cell.algo, cell.seed) {
                        Some((best_yield, simulations)) => Slot::Done(Resolution::Resumed {
                            best_yield,
                            simulations,
                        }),
                        None => Slot::Pending,
                    },
                )
                .collect();
            self.round = round;
            self.committed = 0;
            self.advance_commit(commit)?;
            if self.committed < self.slots.len() {
                return Ok(());
            }
        }
    }
}

/// Runs `spec`'s campaign under its scheduler on the calling thread: asks
/// for rounds of cells, consumes each from disk when its row is already
/// there, executes it via `execute` otherwise, and feeds every completion
/// back into the scheduler state (the replay protocol described in
/// [`crate::schedule`]).
///
/// Each allocation round runs inside a `campaign/schedule` span and emits a
/// live `campaign_schedule` event; the spans attribute no simulations (the
/// allocation itself never simulates), so campaign phase breakdowns still
/// reconcile exactly with the engine counters.
///
/// `execute` runs one cell and returns its result; `on_cell` observes every
/// scheduled cell (resumed or executed), in schedule order.
///
/// # Errors
///
/// Propagates `execute`/`on_cell` errors and writer I/O errors verbatim;
/// panics in `execute` propagate too.
pub fn drive_schedule(
    spec: &JobSpec,
    writer: CellWriter,
    tracer: &Tracer,
    mut execute: impl FnMut(&Cell) -> Result<ScenarioResult, String>,
    mut on_cell: impl FnMut(&Cell, CellOutcome<'_>) -> Result<(), String>,
) -> Result<ScheduleOutcome, String> {
    let mut core = ExecutionCore::new(spec, writer, tracer.clone(), &mut on_cell)?;
    while let Some((claim, cell)) = core.claim() {
        let result = execute(&cell)?;
        core.complete(claim, Ok(result), &mut on_cell)?;
    }
    core.outcome()
}

/// The one cell executor of `moheco-campaign` and `moheco-serve`: runs a
/// scheduled [`Cell`] of one [`JobSpec`] as a [`RunSpec`] on an engine
/// leased from an [`EnginePool`] under one tenant.
pub struct CellRunner {
    spec: JobSpec,
    scenarios: HashMap<String, Arc<dyn Scenario>>,
    algos: HashMap<String, Algo>,
    pool: Arc<EnginePool>,
    tenant: String,
}

impl CellRunner {
    /// Validates `spec` and resolves its scenarios and algorithms once.
    ///
    /// # Errors
    ///
    /// Returns a message for an invalid spec or an unknown scenario.
    pub fn new(spec: &JobSpec, pool: Arc<EnginePool>, tenant: &str) -> Result<Self, String> {
        spec.validate()?;
        let scenarios = spec
            .resolve_scenarios()?
            .into_iter()
            .map(|s| (s.name().to_string(), s))
            .collect();
        let algos = spec
            .algos
            .iter()
            .map(|a| (a.label().to_string(), *a))
            .collect();
        Ok(Self {
            spec: spec.clone(),
            scenarios,
            algos,
            pool,
            tenant: tenant.to_string(),
        })
    }

    /// Whether `(scenario, algo)` lies on the spec's scenario and algorithm
    /// axes.
    pub fn covers(&self, scenario: &str, algo: &str) -> bool {
        self.scenarios.contains_key(scenario) && self.algos.contains_key(algo)
    }

    /// Runs one cell: leases the scenario's engine (prepared for the cell's
    /// seed), executes the run under `tracer`, drops the lease, then
    /// enforces the tenant's cache quota (a no-op in a quota-free pool).
    ///
    /// # Errors
    ///
    /// Returns a message when the cell names a scenario or algorithm that
    /// is not in the spec.
    pub fn run(&self, cell: &Cell, tracer: &Tracer) -> Result<ScenarioResult, String> {
        let scenario = self
            .scenarios
            .get(&cell.scenario)
            .ok_or_else(|| format!("scheduler produced unknown scenario {:?}", cell.scenario))?;
        let algo = *self
            .algos
            .get(&cell.algo)
            .ok_or_else(|| format!("scheduler produced unknown algo {:?}", cell.algo))?;
        let result = {
            let lease = self
                .pool
                .checkout(&self.tenant, &cell.scenario, &self.spec, cell.seed);
            RunSpec::new(scenario.as_ref(), algo)
                .budget(cell.budget)
                .seed(cell.seed)
                .engine(lease.engine.clone())
                .engine_label(self.spec.engine.label())
                .tracer(tracer)
                .execute()
            // The lease drops here, before quota enforcement: never hold
            // one slot while locking others.
        };
        self.pool.enforce_tenant_quota(&self.tenant);
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobspec::ScheduleKind;
    use crate::{BudgetClass, EngineReuse};
    use std::path::{Path, PathBuf};

    fn ocba_spec() -> JobSpec {
        JobSpec {
            scenarios: vec!["margin_wall".into()],
            algos: vec![Algo::TwoStage, Algo::Fixed],
            budget: BudgetClass::Tiny,
            seeds: (1..=6).collect(),
            reuse: EngineReuse::Reset,
            schedule: ScheduleKind::Ocba,
            ..JobSpec::default()
        }
    }

    fn fresh_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("moheco-exec-test-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join("campaign.jsonl")
    }

    fn runner(spec: &JobSpec) -> CellRunner {
        CellRunner::new(spec, Arc::new(EnginePool::new(0)), "test").expect("valid spec")
    }

    fn open_core(spec: &JobSpec, path: &Path) -> ExecutionCore {
        let writer = CellWriter::open(path, spec).expect("writer");
        ExecutionCore::new(spec, writer, Tracer::disabled(), &mut no_commit).expect("core")
    }

    fn no_commit(_: &Cell, _: CellOutcome<'_>) -> Result<(), String> {
        Ok(())
    }

    /// Runs the whole campaign with [`drive_schedule`].
    fn run_sequentially(spec: &JobSpec, path: &Path) {
        let runner = runner(spec);
        let writer = CellWriter::open(path, spec).expect("writer");
        let tracer = Tracer::disabled();
        let execute = |cell: &Cell| runner.run(cell, &tracer);
        drive_schedule(spec, writer, &tracer, execute, no_commit).expect("sequential run");
    }

    #[test]
    fn out_of_order_completions_commit_in_schedule_order() {
        let spec = ocba_spec();
        let reference = fresh_path("reference");
        run_sequentially(&spec, &reference);

        let path = fresh_path("out-of-order");
        let runner = runner(&spec);
        let mut core = open_core(&spec, &path);
        let (mut rounds, mut widest) = (0, 0);
        while !core.is_finished() {
            // Claim the whole round, then post the results newest first.
            let claimed: Vec<_> = std::iter::from_fn(|| core.claim()).collect();
            rounds += 1;
            widest = widest.max(claimed.len());
            for (claim, cell) in claimed.into_iter().rev() {
                let result = runner.run(&cell, &Tracer::disabled());
                core.complete(claim, result, &mut no_commit)
                    .expect("complete");
            }
        }
        assert!(rounds > 1 && widest > 1, "{rounds} rounds, widest {widest}");
        assert!(core.outcome().expect("finished").executed > 0);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&reference).unwrap()
        );
    }

    #[test]
    fn a_failed_core_writes_nothing_more() {
        let spec = ocba_spec();
        let path = fresh_path("failed");
        let mut core = open_core(&spec, &path);
        let (first, first_cell) = core.claim().expect("first cell");
        let (second, _) = core.claim().expect("second cell");
        core.complete(second, Err("boom".into()), &mut no_commit)
            .expect_err("an Err completion fails the core");
        assert!(core.is_finished());
        assert_eq!(core.outcome().unwrap_err(), "boom");
        assert!(core.claim().is_none());
        // The first cell heads the commit prefix; it must not land.
        let result = runner(&spec).run(&first_cell, &Tracer::disabled());
        let err = core
            .complete(first, result, &mut no_commit)
            .expect_err("the first error wins");
        assert_eq!(err, "boom");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
    }

    #[test]
    fn a_stale_epoch_completion_is_dropped() {
        let spec = ocba_spec();
        let mut old = open_core(&spec, &fresh_path("stale-old"));
        let path = fresh_path("stale-new");
        let mut new = open_core(&spec, &path);
        assert_ne!(old.epoch(), new.epoch());
        let (stale, cell) = old.claim().expect("a cell");
        let result = runner(&spec).run(&cell, &Tracer::disabled());
        new.complete(stale, result, &mut no_commit)
            .expect("a stale claim is dropped, not an error");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        // The newer core still hands out the cell the stale claim named.
        let (_, first) = new.claim().expect("untouched slot");
        assert_eq!((first.algo, first.seed), (cell.algo, cell.seed));
    }

    #[test]
    fn a_campaign_on_disk_is_finished_at_new() {
        let spec = ocba_spec();
        let path = fresh_path("on-disk");
        run_sequentially(&spec, &path);
        let mut core = open_core(&spec, &path);
        assert!(core.is_finished());
        assert!(core.claim().is_none());
        let outcome = core.outcome().expect("finished");
        assert_eq!((outcome.executed, outcome.resumed), (0, outcome.scheduled));
    }
}
