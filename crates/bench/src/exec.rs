//! The unified execution core: one scheduler-driven driver shared by
//! `moheco-campaign`, the `moheco-serve` workers, and `schedule-study`.
//!
//! [`ExecutionCore`] owns the whole replay protocol described in
//! [`crate::schedule`]: it cuts allocation rounds from the scheduler,
//! resolves each cell either from rows already on disk or by running it,
//! and commits completions — row append, scheduler-state update, caller
//! callback — **in schedule order**, regardless of how many workers are
//! executing cells concurrently.
//!
//! # In-flight semantics
//!
//! A round is cut **once**, from the committed state, and its cells become
//! slots. Workers claim pending slots in order, execute outside the lock,
//! and post results back; a commit pointer advances over the longest
//! done-prefix, so rows land in the file in the exact order a single-worker
//! run would produce. The next round is cut only when the current round is
//! fully committed (a barrier): scheduler decisions therefore depend only
//! on fully-ordered completions, never on which worker finished first.
//!
//! This gives the multi-worker byte-identity guarantee: under
//! [`crate::EngineReuse::Reset`] each cell's row is a pure function of the
//! cell identity, the round sequence is a pure function of the committed
//! rows, and commits happen in schedule order — so N workers produce the
//! byte-identical JSONL a single worker would. (Under
//! [`crate::EngineReuse::SharedCache`] yields are still identical, but
//! cache-warmth counters depend on execution order, so byte-identity is
//! only guaranteed with one worker.)
//!
//! Two driving modes share the same core:
//!
//! * [`ExecutionCore::run_to_completion`] — the sequential in-process mode
//!   used by [`drive_schedule`]: no locking overhead beyond uncontended
//!   `Mutex::get_mut`, errors propagate verbatim.
//! * [`ExecutionCore::drive`] / [`ExecutionCore::help`] — the concurrent
//!   mode used by the service: any number of workers pull claims from one
//!   allocation loop, coordinated by a condvar; panics in `execute` are
//!   caught and surfaced as job errors.
//!
//! [`CellRunner`] is the one `execute` body of `moheco-campaign` and
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
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

const POISONED: &str = "execution core poisoned by a panicking commit callback";

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

/// Everything the lock protects: scheduler state, the row writer, the
/// caller's commit callback, and the current round's slots.
struct CoreInner<C> {
    state: CampaignState,
    writer: CellWriter,
    commit: C,
    tracer: Tracer,
    outcome: ScheduleOutcome,
    round: Vec<Cell>,
    slots: Vec<Slot>,
    committed: usize,
    finished: bool,
    error: Option<String>,
}

/// A scheduler-driven campaign execution: rounds are cut from observed
/// state, cells execute (possibly concurrently), completions commit in
/// schedule order. See the module docs for the full contract.
pub struct ExecutionCore<E, C> {
    scheduler: Box<dyn CampaignScheduler + Send + Sync>,
    execute: E,
    inner: Mutex<CoreInner<C>>,
    progress: Condvar,
}

/// Advances the commit pointer over the longest done-prefix of the round:
/// each committed cell appends its row (if executed), feeds the scheduler
/// state, and fires the caller's commit callback — the exact order the
/// historical sequential driver used.
fn advance_commit<C>(inner: &mut CoreInner<C>) -> Result<(), String>
where
    C: FnMut(&Cell, CellOutcome<'_>) -> Result<(), String>,
{
    while inner.committed < inner.slots.len()
        && matches!(inner.slots[inner.committed], Slot::Done(_))
    {
        let slot = std::mem::replace(&mut inner.slots[inner.committed], Slot::Claimed);
        let Slot::Done(resolution) = slot else {
            unreachable!("the matches! guard admits only done slots");
        };
        let cell = inner.round[inner.committed].clone();
        match resolution {
            Resolution::Resumed {
                best_yield,
                simulations,
            } => {
                inner.outcome.resumed += 1;
                inner.state.record(&cell, best_yield, simulations);
                (inner.commit)(&cell, CellOutcome::Resumed { best_yield })?;
            }
            Resolution::Executed(result) => {
                inner.writer.append(&result)?;
                inner.outcome.executed += 1;
                inner
                    .state
                    .record(&cell, result.best_yield, result.simulations as f64);
                (inner.commit)(&cell, CellOutcome::Executed(&result))?;
            }
        }
        inner.committed += 1;
    }
    Ok(())
}

/// Cuts rounds until one has work left to execute (or the schedule ends):
/// asks the scheduler for the next round, pre-resolves every cell whose
/// row is already on disk, and commits the resolved prefix. A round that
/// resolves entirely from disk commits in full and the loop cuts the next
/// one — so a resumed campaign fast-forwards through its consumed prefix
/// without ever blocking on a worker.
fn cut_rounds<C>(inner: &mut CoreInner<C>, scheduler: &dyn CampaignScheduler) -> Result<(), String>
where
    C: FnMut(&Cell, CellOutcome<'_>) -> Result<(), String>,
{
    loop {
        let round = {
            let _span = Span::enter(&inner.tracer, "campaign/schedule");
            scheduler.next_cells(&inner.state)
        };
        if round.is_empty() {
            inner.finished = true;
            inner.outcome.finalize(&inner.state);
            return Ok(());
        }
        inner.outcome.rounds += 1;
        inner.outcome.scheduled += round.len();
        inner.tracer.emit(
            "campaign_schedule",
            &[
                ("schedule", scheduler.label().to_string()),
                ("round", inner.outcome.rounds.to_string()),
                ("cells", round.len().to_string()),
            ],
        );
        let mut slots = Vec::with_capacity(round.len());
        for cell in &round {
            let on_disk = inner
                .writer
                .row_stats(&cell.scenario, &cell.algo, cell.seed);
            slots.push(match on_disk {
                Some((best_yield, simulations)) => Slot::Done(Resolution::Resumed {
                    best_yield,
                    simulations,
                }),
                None => Slot::Pending,
            });
        }
        inner.round = round;
        inner.slots = slots;
        inner.committed = 0;
        advance_commit(inner)?;
        if inner.committed < inner.slots.len() {
            return Ok(());
        }
    }
}

/// Claims the first pending slot at or after the commit pointer.
fn claim<C>(inner: &mut CoreInner<C>) -> Option<(usize, Cell)> {
    for index in inner.committed..inner.slots.len() {
        if matches!(inner.slots[index], Slot::Pending) {
            inner.slots[index] = Slot::Claimed;
            return Some((index, inner.round[index].clone()));
        }
    }
    None
}

impl<E, C> ExecutionCore<E, C> {
    /// The scheduler's stable label (`fixed`, `ocba`).
    pub fn label(&self) -> &'static str {
        self.scheduler.label()
    }

    fn lock(&self) -> Result<MutexGuard<'_, CoreInner<C>>, String> {
        self.inner.lock().map_err(|_| POISONED.to_string())
    }
}

impl<E, C> ExecutionCore<E, C>
where
    C: FnMut(&Cell, CellOutcome<'_>) -> Result<(), String>,
{
    /// Builds the core for `spec`'s campaign and fast-forwards through the
    /// rows `writer` already holds: when this returns, the current round
    /// is ready for claims (or the campaign is already finished, if every
    /// scheduled cell was on disk).
    ///
    /// `execute` runs one cell and returns its result; `commit` observes
    /// every completed cell (resumed or executed), in schedule order.
    ///
    /// # Errors
    ///
    /// Propagates `commit` errors and writer I/O errors verbatim.
    pub fn new(
        spec: &JobSpec,
        writer: CellWriter,
        tracer: Tracer,
        execute: E,
        commit: C,
    ) -> Result<Self, String> {
        let scheduler = scheduler_for(spec.schedule);
        let mut inner = CoreInner {
            state: CampaignState::new(spec),
            writer,
            commit,
            tracer,
            outcome: ScheduleOutcome::new(scheduler.label()),
            round: Vec::new(),
            slots: Vec::new(),
            committed: 0,
            finished: false,
            error: None,
        };
        cut_rounds(&mut inner, scheduler.as_ref())?;
        Ok(Self {
            scheduler,
            execute,
            inner: Mutex::new(inner),
            progress: Condvar::new(),
        })
    }
}

impl<E, C> ExecutionCore<E, C>
where
    E: FnMut(&Cell) -> Result<ScenarioResult, String>,
    C: FnMut(&Cell, CellOutcome<'_>) -> Result<(), String>,
{
    /// Runs the whole campaign on the calling thread — the sequential mode
    /// behind [`drive_schedule`]. Errors (and panics) from `execute`
    /// propagate verbatim, exactly like the historical driver.
    pub fn run_to_completion(mut self) -> Result<ScheduleOutcome, String> {
        loop {
            let inner = self.inner.get_mut().map_err(|_| POISONED.to_string())?;
            if inner.finished {
                return Ok(inner.outcome.clone());
            }
            let (index, cell) = claim(inner)
                .ok_or_else(|| "scheduler cut a round with no pending cells".to_string())?;
            let result = (self.execute)(&cell)?;
            let inner = self.inner.get_mut().map_err(|_| POISONED.to_string())?;
            inner.slots[index] = Slot::Done(Resolution::Executed(Box::new(result)));
            advance_commit(inner)?;
            if inner.committed == inner.slots.len() {
                cut_rounds(inner, self.scheduler.as_ref())?;
            }
        }
    }
}

impl<E, C> ExecutionCore<E, C>
where
    E: Fn(&Cell) -> Result<ScenarioResult, String> + Sync,
    C: FnMut(&Cell, CellOutcome<'_>) -> Result<(), String> + Send,
{
    /// Drives the campaign to completion, executing cells on the calling
    /// thread whenever one is claimable and waiting on the round barrier
    /// otherwise. Any number of threads may call `drive` (and
    /// [`ExecutionCore::help`]) on the same core; the first error wins and
    /// every driver returns it.
    pub fn drive(&self) -> Result<ScheduleOutcome, String> {
        let mut inner = self.lock()?;
        loop {
            if let Some(err) = &inner.error {
                return Err(err.clone());
            }
            if inner.finished {
                return Ok(inner.outcome.clone());
            }
            if let Some((index, cell)) = claim(&mut inner) {
                drop(inner);
                self.execute_claimed(index, &cell);
                inner = self.lock()?;
            } else {
                inner = self
                    .progress
                    .wait(inner)
                    .map_err(|_| POISONED.to_string())?;
            }
        }
    }

    /// Executes at most one claimable cell — the idle-worker mode: a
    /// worker with no job of its own lends a hand to another job's core.
    /// Waits up to `patience` for a claim to appear before giving up.
    /// Returns whether a cell was executed.
    pub fn help(&self, patience: Duration) -> Result<bool, String> {
        let mut inner = self.lock()?;
        for attempt in 0..2 {
            if inner.finished || inner.error.is_some() {
                return Ok(false);
            }
            if let Some((index, cell)) = claim(&mut inner) {
                drop(inner);
                self.execute_claimed(index, &cell);
                return Ok(true);
            }
            if attempt == 0 {
                inner = self
                    .progress
                    .wait_timeout(inner, patience)
                    .map_err(|_| POISONED.to_string())?
                    .0;
            }
        }
        Ok(false)
    }

    /// Executes one claimed cell outside the lock, posts the result (or
    /// the first error) back, advances the commit pointer, and wakes every
    /// waiting worker.
    fn execute_claimed(&self, index: usize, cell: &Cell) {
        let result = catch_unwind(AssertUnwindSafe(|| (self.execute)(cell)));
        let Ok(mut inner) = self.inner.lock() else {
            // A commit callback panicked in another worker; the job is
            // already dead and every driver will report the poison.
            return;
        };
        match result {
            Ok(Ok(result)) => {
                inner.slots[index] = Slot::Done(Resolution::Executed(Box::new(result)));
                let mut step = advance_commit(&mut inner);
                if step.is_ok() && inner.committed == inner.slots.len() && !inner.finished {
                    step = cut_rounds(&mut inner, self.scheduler.as_ref());
                }
                if let Err(err) = step {
                    inner.error.get_or_insert(err);
                }
            }
            Ok(Err(err)) => {
                inner.error.get_or_insert(err);
            }
            Err(_) => {
                inner.error.get_or_insert(format!(
                    "{}/{}/seed {}: cell execution panicked",
                    cell.scenario, cell.algo, cell.seed
                ));
            }
        }
        drop(inner);
        self.progress.notify_all();
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
/// Propagates `execute`/`on_cell` errors and writer I/O errors verbatim.
pub fn drive_schedule(
    spec: &JobSpec,
    writer: CellWriter,
    tracer: &Tracer,
    execute: impl FnMut(&Cell) -> Result<ScenarioResult, String>,
    on_cell: impl FnMut(&Cell, CellOutcome<'_>) -> Result<(), String>,
) -> Result<ScheduleOutcome, String> {
    ExecutionCore::new(spec, writer, tracer.clone(), execute, on_cell)?.run_to_completion()
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
