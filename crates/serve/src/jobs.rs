//! Job lifecycle: the FIFO queue with depth-limited backpressure, per-job
//! status, and the one place the worker threads wait.
//!
//! A job is `(tenant, JobSpec)`; its identity is
//! [`JobSpec::job_id`], so resubmitting the same spec collapses onto the
//! same job — and onto the same resumable JSONL file on disk. The queue is
//! strictly bounded: a submission that would exceed the depth is rejected
//! *before* anything is registered or written, so a 429 response means "the
//! server holds nothing of yours — retry later", never a silent drop.
//!
//! The [`Registry`] also holds every opened job's [`ExecutionCore`], in
//! activation order, under its one mutex, and each worker thread lives in
//! [`Registry::work`]: under the lock it decides its next step — open a
//! dequeued job, claim one cell, or exit — and otherwise blocks on the
//! registry's one condvar. Opening and running cells happen outside the
//! lock; each result comes back under it, commits in schedule order, and
//! wakes every waiting worker.

use moheco_bench::jobspec::JobSpec;
use moheco_bench::results::ScenarioResult;
use moheco_bench::{Cell, CellOutcome, CellRunner, CellWriter, Claim, EnginePool, ExecutionCore};
use moheco_obs::json::JsonWriter;
use moheco_obs::Tracer;
use moheco_runtime::EngineStatsSnapshot;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing cells.
    Running,
    /// Every cell's row is on disk.
    Completed,
    /// Execution stopped with an error (kept so the tenant can read it; a
    /// resubmission re-queues the job and resumes from the rows on disk).
    Failed(String),
}

impl JobState {
    /// Stable label for status responses.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Completed => "completed",
            Self::Failed(_) => "failed",
        }
    }
}

/// One job's full record.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Submitting tenant.
    pub tenant: String,
    /// The spec as submitted.
    pub spec: JobSpec,
    /// The spec's scheduler label (`fixed`, `ocba`) — kept on the record so
    /// status consumers can bucket latency and savings by schedule kind
    /// without re-parsing the spec.
    pub schedule: &'static str,
    /// Lifecycle state.
    pub state: JobState,
    /// Cells whose rows were already on disk when the job started.
    pub resumed: usize,
    /// Cells executed by this server process.
    pub executed: usize,
    /// Seed replications the adaptive schedule skipped (0 for `fixed`, and
    /// until the job completes).
    pub seeds_saved: usize,
    /// Engine counters accumulated over the executed cells.
    pub stats: EngineStatsSnapshot,
}

impl JobRecord {
    /// Status response body: one line of flat JSON.
    pub fn to_json(&self, id: &str) -> String {
        let mut body = JsonWriter::inline();
        body.str("job", id)
            .str("tenant", &self.tenant)
            .str("state", self.state.label())
            .str("schedule", self.schedule)
            .bare("cells", self.spec.cells())
            .bare("resumed", self.resumed)
            .bare("executed", self.executed)
            .bare("seeds_saved", self.seeds_saved)
            .bare("simulations", self.stats.simulations_run);
        if let JobState::Failed(e) = &self.state {
            body.str("error", e);
        }
        body.finish() + "\n"
    }
}

/// Outcome of a submission.
#[derive(Debug, PartialEq, Eq)]
pub enum Submit {
    /// Newly queued under this id.
    Accepted(String),
    /// The identical job already exists (any live state); nothing was
    /// queued.
    Existing(String),
    /// The queue is at depth; nothing was registered (respond 429).
    QueueFull,
}

/// What a worker does next ([`Inner::next_work`]).
enum Work {
    /// Open this dequeued job, already marked running: `(id, tenant, spec)`.
    Open(String, String, JobSpec),
    /// Run this claimed cell outside the lock: `(job id, claim, cell, runner)`.
    Cell(String, Claim, Cell, Arc<CellRunner>),
    /// The server is stopping and the worker has no job of its own.
    Exit,
}

/// An opened job: its execution core and the executor its cells run on.
struct ActiveCore {
    id: String,
    core: ExecutionCore,
    runner: Arc<CellRunner>,
}

impl ActiveCore {
    /// Opens a dequeued job: the tenant's [`CellRunner`], its row file and
    /// the execution core over them. Returns the job and the number of rows
    /// already on disk. Rows go through the campaign [`CellWriter`] (same
    /// fingerprint check, torn-tail truncation and append-per-cell commit
    /// point), which is why a killed job resumes byte-identically.
    fn open(
        pool: &Arc<EnginePool>,
        data_dir: &Path,
        id: &str,
        tenant: &str,
        spec: &JobSpec,
    ) -> Result<(Self, usize), String> {
        let runner = Arc::new(CellRunner::new(spec, pool.clone(), tenant)?);
        let writer = CellWriter::open(&job_path(data_dir, tenant, id), spec)?;
        let resumed = writer.resumed_rows();
        let core = ExecutionCore::new(spec, writer, Tracer::disabled(), &mut |_, _| Ok(()))?;
        let id = id.to_string();
        Ok((Self { id, core, runner }, resumed))
    }
}

struct Inner {
    jobs: HashMap<String, JobRecord>,
    queue: VecDeque<String>,
    /// Opened jobs with cells outstanding, in activation order.
    active: Vec<ActiveCore>,
    /// Where an idle worker's round-robin scan of `active` starts.
    next_help: usize,
    running: usize,
    shutdown: bool,
    // Service counters for /metrics.
    submitted: u64,
    completed: u64,
    failed: u64,
    rejected: u64,
}

impl Inner {
    /// The worker policy. A worker whose `home` job (the epoch of the core
    /// it opened) is still active claims only from that job. A worker with
    /// no home job exits on shutdown, else takes the next queued job, else
    /// claims one cell from the active jobs round-robin. `None` means
    /// wait; a home job that has finished clears `home`.
    fn next_work(&mut self, home: &mut Option<u64>) -> Option<Work> {
        if let Some(epoch) = *home {
            match self.active.iter().position(|a| a.core.epoch() == epoch) {
                Some(index) => return self.claim(index),
                None => *home = None,
            }
        }
        if self.shutdown {
            return Some(Work::Exit);
        }
        if let Some(id) = self.queue.pop_front() {
            self.running += 1;
            let job = self.jobs.get_mut(&id).expect("queued job is registered");
            job.state = JobState::Running;
            let (tenant, spec) = (job.tenant.clone(), job.spec.clone());
            return Some(Work::Open(id, tenant, spec));
        }
        let (jobs, start) = (self.active.len(), self.next_help);
        (0..jobs).map(|k| (start + k) % jobs).find_map(|index| {
            let work = self.claim(index)?;
            self.next_help = index + 1;
            Some(work)
        })
    }

    /// Claims one cell of the active job at `index`.
    fn claim(&mut self, index: usize) -> Option<Work> {
        let active = &mut self.active[index];
        let (claim, cell) = active.core.claim()?;
        let runner = active.runner.clone();
        Some(Work::Cell(active.id.clone(), claim, cell, runner))
    }

    /// Posts a cell's result to its job: commits in schedule order
    /// (recording each executed cell's counters against the job), and
    /// finishes the job once its core stops. A result for a job that has
    /// already failed, or for an older core of a reopened job, is dropped
    /// and never written.
    fn complete(&mut self, job: &str, claim: Claim, result: Result<ScenarioResult, String>) {
        let Some(index) = self.active.iter().position(|a| a.id == job) else {
            return;
        };
        let jobs = &mut self.jobs;
        let mut record = |_: &Cell, outcome: CellOutcome<'_>| {
            if let (CellOutcome::Executed(result), Some(record)) = (outcome, jobs.get_mut(job)) {
                record.executed += 1;
                record.stats.absorb(&result.engine_stats);
            }
            Ok(())
        };
        // A failure stays in the core, which reports it as its outcome. A
        // panic (in the scheduler, say) must not poison the registry: it
        // fails the job instead.
        let core = &mut self.active[index].core;
        let committed = catch_unwind(AssertUnwindSafe(|| {
            core.complete(claim, result, &mut record)
        }));
        if committed.is_ok() && !core.is_finished() {
            return;
        }
        let done = self.active.remove(index);
        let outcome = match committed {
            Ok(_) => done.core.outcome().map(|o| o.seeds_saved),
            Err(panic) => Err(panic_message(panic)),
        };
        self.finish(&done.id, outcome);
    }

    /// Marks a running job finished: its state, its savings accounting
    /// (`Ok(seeds_saved)`) and the service counters.
    fn finish(&mut self, id: &str, outcome: Result<usize, String>) {
        self.running = self.running.saturating_sub(1);
        match &outcome {
            Ok(_) => self.completed += 1,
            Err(_) => self.failed += 1,
        }
        if let Some(job) = self.jobs.get_mut(id) {
            job.state = match outcome {
                Ok(seeds_saved) => {
                    job.seeds_saved = seeds_saved;
                    JobState::Completed
                }
                Err(e) => JobState::Failed(e),
            };
        }
    }
}

/// The shared job table, FIFO queue and opened jobs. Workers live in
/// [`Registry::work`]; everything else is non-blocking.
pub struct Registry {
    queue_depth: usize,
    inner: Mutex<Inner>,
    wake: Condvar,
}

/// Point-in-time service counters for the metrics endpoint.
#[derive(Debug, Clone, Copy)]
pub struct ServiceCounters {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs finished in error.
    pub failed: u64,
    /// Submissions rejected with 429.
    pub rejected: u64,
    /// Jobs currently queued.
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
}

impl Registry {
    /// Creates an empty registry with the given queue depth bound.
    pub fn new(queue_depth: usize) -> Self {
        Self {
            queue_depth,
            inner: Mutex::new(Inner {
                jobs: HashMap::new(),
                queue: VecDeque::new(),
                active: Vec::new(),
                next_help: 0,
                running: 0,
                shutdown: false,
                submitted: 0,
                completed: 0,
                failed: 0,
                rejected: 0,
            }),
            wake: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("registry lock")
    }

    /// Submits a job. The spec must already be validated.
    pub fn submit(&self, tenant: &str, spec: JobSpec) -> Submit {
        let id = spec.job_id(tenant);
        let mut inner = self.lock();
        match inner.jobs.get(&id).map(|j| j.state.clone()) {
            Some(JobState::Failed(_)) | None => {}
            Some(_) => return Submit::Existing(id),
        }
        if inner.queue.len() >= self.queue_depth {
            inner.rejected += 1;
            return Submit::QueueFull;
        }
        let schedule = spec.schedule.label();
        inner.jobs.insert(
            id.clone(),
            JobRecord {
                tenant: tenant.to_string(),
                spec,
                schedule,
                state: JobState::Queued,
                resumed: 0,
                executed: 0,
                seeds_saved: 0,
                stats: EngineStatsSnapshot::default(),
            },
        );
        inner.queue.push_back(id.clone());
        inner.submitted += 1;
        drop(inner);
        self.wake.notify_all();
        Submit::Accepted(id)
    }

    /// One worker thread's whole life: does what the worker policy hands
    /// out until the server stops. Waits only on the registry's condvar;
    /// the open step and each cell run outside the lock, under
    /// `catch_unwind`, so a panic fails the job, not the worker. Every
    /// open, completion, submission and shutdown wakes all waiting workers.
    pub fn work(&self, pool: &Arc<EnginePool>, data_dir: &Path) {
        let mut home = None;
        let mut inner = self.lock();
        loop {
            let Some(work) = inner.next_work(&mut home) else {
                inner = self.wake.wait(inner).expect("registry lock");
                continue;
            };
            match work {
                Work::Exit => return,
                Work::Open(id, tenant, spec) => {
                    drop(inner);
                    let opened = catch_unwind(AssertUnwindSafe(|| {
                        ActiveCore::open(pool, data_dir, &id, &tenant, &spec)
                    }))
                    .unwrap_or_else(|panic| Err(panic_message(panic)));
                    inner = self.lock();
                    match opened {
                        Ok((active, resumed)) => {
                            home = Some(active.core.epoch());
                            if let Some(job) = inner.jobs.get_mut(&id) {
                                job.resumed = resumed;
                            }
                            // Every row may already be on disk.
                            if active.core.is_finished() {
                                inner.finish(&id, active.core.outcome().map(|o| o.seeds_saved));
                            } else {
                                inner.active.push(active);
                            }
                        }
                        Err(e) => inner.finish(&id, Err(e)),
                    }
                }
                Work::Cell(job, claim, cell, runner) => {
                    drop(inner);
                    let result =
                        catch_unwind(AssertUnwindSafe(|| runner.run(&cell, &Tracer::disabled())))
                            .unwrap_or_else(|_| {
                                Err(format!(
                                    "{}/{}/seed {}: cell execution panicked",
                                    cell.scenario, cell.algo, cell.seed
                                ))
                            });
                    inner = self.lock();
                    inner.complete(&job, claim, result);
                }
            }
            self.wake.notify_all();
        }
    }

    /// A copy of the job's record, if registered.
    pub fn get(&self, id: &str) -> Option<JobRecord> {
        self.lock().jobs.get(id).cloned()
    }

    /// Whether the job has reached a terminal state (streamers use this to
    /// decide when the file can have no further appends).
    pub fn is_finished(&self, id: &str) -> Option<bool> {
        self.lock()
            .jobs
            .get(id)
            .map(|j| matches!(j.state, JobState::Completed | JobState::Failed(_)))
    }

    /// Engine counters summed over every job the server has executed.
    pub fn total_stats(&self) -> EngineStatsSnapshot {
        let inner = self.lock();
        let mut total = EngineStatsSnapshot::default();
        for job in inner.jobs.values() {
            total.absorb(&job.stats);
        }
        total
    }

    /// Service counters for the metrics endpoint.
    pub fn counters(&self) -> ServiceCounters {
        let inner = self.lock();
        ServiceCounters {
            submitted: inner.submitted,
            completed: inner.completed,
            failed: inner.failed,
            rejected: inner.rejected,
            queued: inner.queue.len(),
            running: inner.running,
        }
    }

    /// Stops handing out queued jobs: idle workers exit, and a worker
    /// driving a job exits once that job finishes.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.wake.notify_all();
    }
}

/// The JSONL file of a job: `<data_dir>/<tenant>/job-<id>.jsonl` (its
/// `.spec` fingerprint sidecar sits next to it). One place computes this so
/// the executor, the streamers and the tests agree.
pub fn job_path(data_dir: &Path, tenant: &str, id: &str) -> PathBuf {
    data_dir.join(tenant).join(format!("job-{id}.jsonl"))
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    match panic.downcast_ref::<&str>() {
        Some(msg) => format!("worker panicked: {msg}"),
        None => match panic.downcast_ref::<String>() {
            Some(msg) => format!("worker panicked: {msg}"),
            None => "worker panicked".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moheco_obs::json::parse_flat_json;

    fn spec(seeds: Vec<u64>) -> JobSpec {
        JobSpec {
            scenarios: vec!["margin_wall".into()],
            seeds,
            ..JobSpec::default()
        }
    }

    #[test]
    fn queue_depth_rejects_before_registering() {
        let registry = Registry::new(2);
        let a = registry.submit("t", spec(vec![1]));
        let b = registry.submit("t", spec(vec![2]));
        assert!(matches!(a, Submit::Accepted(_)));
        assert!(matches!(b, Submit::Accepted(_)));
        let full = registry.submit("t", spec(vec![3]));
        assert_eq!(full, Submit::QueueFull);
        // Nothing of the rejected job exists server-side.
        let rejected_id = spec(vec![3]).job_id("t");
        assert!(registry.get(&rejected_id).is_none());
        assert_eq!(registry.counters().rejected, 1);
        assert_eq!(registry.counters().queued, 2);
    }

    #[test]
    fn duplicate_submissions_collapse_and_failures_requeue() {
        let registry = Registry::new(8);
        let id = match registry.submit("t", spec(vec![1])) {
            Submit::Accepted(id) => id,
            other => panic!("expected acceptance, got {other:?}"),
        };
        assert_eq!(
            registry.submit("t", spec(vec![1])),
            Submit::Existing(id.clone())
        );
        // Same spec, different tenant: a different job.
        assert!(matches!(
            registry.submit("u", spec(vec![1])),
            Submit::Accepted(_)
        ));
        // Take + fail the job: the next submission re-queues it.
        let Some(Work::Open(taken, _, _)) = registry.lock().next_work(&mut None) else {
            panic!("expected the queued job");
        };
        assert_eq!(taken, id);
        registry.lock().finish(&id, Err("boom".into()));
        assert_eq!(
            registry.get(&id).unwrap().state,
            JobState::Failed("boom".into())
        );
        assert!(matches!(
            registry.submit("t", spec(vec![1])),
            Submit::Accepted(_)
        ));
    }

    #[test]
    fn shutdown_unblocks_workers() {
        let registry = std::sync::Arc::new(Registry::new(4));
        let worker = {
            let registry = registry.clone();
            let pool = Arc::new(EnginePool::new(0));
            std::thread::spawn(move || registry.work(&pool, Path::new("unused")))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        registry.shutdown();
        worker.join().expect("worker exits");
    }

    #[test]
    fn failed_status_body_is_one_line_of_valid_json() {
        // An `assert_eq!` panic message spans lines; the body must not.
        let message = "assertion `left == right` failed\n  left: 1\n right: 2";
        let registry = Registry::new(1);
        let id = match registry.submit("t", spec(vec![1])) {
            Submit::Accepted(id) => id,
            other => panic!("expected acceptance, got {other:?}"),
        };
        registry.lock().finish(&id, Err(message.into()));
        let body = registry.get(&id).expect("registered").to_json(&id);
        assert_eq!(body.lines().count(), 1, "{body:?}");
        assert!(body.ends_with("}\n"));
        let record = parse_flat_json(&body).expect("valid JSON");
        assert_eq!(record.str("error"), Some(message));
        assert_eq!(record.str("state"), Some("failed"));
        assert_eq!(record.str("job"), Some(id.as_str()));
    }
}
