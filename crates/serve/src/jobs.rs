//! Job lifecycle: the FIFO queue with depth-limited backpressure, per-job
//! status, and the cell executor the worker threads run.
//!
//! A job is `(tenant, JobSpec)`; its identity is
//! [`JobSpec::job_id`], so resubmitting the same spec collapses onto the
//! same job — and onto the same resumable JSONL file on disk. The queue is
//! strictly bounded: a submission that would exceed the depth is rejected
//! *before* anything is registered or written, so a 429 response means "the
//! server holds nothing of yours — retry later", never a silent drop.

use moheco_bench::jobspec::JobSpec;
use moheco_bench::results::ScenarioResult;
use moheco_bench::{
    Cell, CellOutcome, CellRunner, CellWriter, EnginePool, ExecutionCore, ScheduleOutcome,
};
use moheco_obs::json::JsonWriter;
use moheco_obs::Tracer;
use moheco_runtime::EngineStatsSnapshot;
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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

struct Inner {
    jobs: HashMap<String, JobRecord>,
    queue: VecDeque<String>,
    running: usize,
    shutdown: bool,
    // Service counters for /metrics.
    submitted: u64,
    completed: u64,
    failed: u64,
    rejected: u64,
}

/// The shared job table + FIFO queue. Workers block on
/// [`Registry::next_job`]; everything else is non-blocking.
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

    /// Submits a job. The spec must already be validated.
    pub fn submit(&self, tenant: &str, spec: JobSpec) -> Submit {
        let id = spec.job_id(tenant);
        let mut inner = self.inner.lock().expect("registry lock");
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
        self.wake.notify_one();
        Submit::Accepted(id)
    }

    /// Blocks for the next queued job; `None` means shutdown.
    pub fn next_job(&self) -> Option<(String, String, JobSpec)> {
        let mut inner = self.inner.lock().expect("registry lock");
        loop {
            if inner.shutdown {
                return None;
            }
            if let Some(job) = take_next(&mut inner) {
                return Some(job);
            }
            inner = self.wake.wait(inner).expect("registry lock");
        }
    }

    /// Waits up to `timeout` for a queued job. [`NextJob::Idle`] tells the
    /// worker nothing is queued right now — the moment to lend a hand to
    /// another worker's in-flight job instead of sleeping.
    pub fn next_job_timeout(&self, timeout: Duration) -> NextJob {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().expect("registry lock");
        loop {
            if inner.shutdown {
                return NextJob::Shutdown;
            }
            if let Some((id, tenant, spec)) = take_next(&mut inner) {
                return NextJob::Job(id, tenant, spec);
            }
            let now = Instant::now();
            if now >= deadline {
                return NextJob::Idle;
            }
            inner = self
                .wake
                .wait_timeout(inner, deadline - now)
                .expect("registry lock")
                .0;
        }
    }

    /// Records one executed cell's counters against a running job.
    pub fn record_cell(&self, id: &str, stats: &EngineStatsSnapshot) {
        let mut inner = self.inner.lock().expect("registry lock");
        if let Some(job) = inner.jobs.get_mut(id) {
            job.executed += 1;
            job.stats.absorb(stats);
        }
    }

    /// Records how many cells a starting job found already on disk.
    pub fn record_resumed(&self, id: &str, resumed: usize) {
        let mut inner = self.inner.lock().expect("registry lock");
        if let Some(job) = inner.jobs.get_mut(id) {
            job.resumed = resumed;
        }
    }

    /// Records the finished schedule's savings accounting against the job.
    pub fn record_outcome(&self, id: &str, outcome: &ScheduleOutcome) {
        let mut inner = self.inner.lock().expect("registry lock");
        if let Some(job) = inner.jobs.get_mut(id) {
            job.seeds_saved = outcome.seeds_saved;
        }
    }

    /// Marks a running job finished (successfully or not).
    pub fn finish(&self, id: &str, outcome: Result<(), String>) {
        let mut inner = self.inner.lock().expect("registry lock");
        inner.running = inner.running.saturating_sub(1);
        match &outcome {
            Ok(()) => inner.completed += 1,
            Err(_) => inner.failed += 1,
        }
        if let Some(job) = inner.jobs.get_mut(id) {
            job.state = match outcome {
                Ok(()) => JobState::Completed,
                Err(e) => JobState::Failed(e),
            };
        }
    }

    /// A copy of the job's record, if registered.
    pub fn get(&self, id: &str) -> Option<JobRecord> {
        self.inner
            .lock()
            .expect("registry lock")
            .jobs
            .get(id)
            .cloned()
    }

    /// Whether the job has reached a terminal state (streamers use this to
    /// decide when the file can have no further appends).
    pub fn is_finished(&self, id: &str) -> Option<bool> {
        self.inner
            .lock()
            .expect("registry lock")
            .jobs
            .get(id)
            .map(|j| matches!(j.state, JobState::Completed | JobState::Failed(_)))
    }

    /// Engine counters summed over every job the server has executed.
    pub fn total_stats(&self) -> EngineStatsSnapshot {
        let inner = self.inner.lock().expect("registry lock");
        let mut total = EngineStatsSnapshot::default();
        for job in inner.jobs.values() {
            total.absorb(&job.stats);
        }
        total
    }

    /// Service counters for the metrics endpoint.
    pub fn counters(&self) -> ServiceCounters {
        let inner = self.inner.lock().expect("registry lock");
        ServiceCounters {
            submitted: inner.submitted,
            completed: inner.completed,
            failed: inner.failed,
            rejected: inner.rejected,
            queued: inner.queue.len(),
            running: inner.running,
        }
    }

    /// Wakes every worker with "no more jobs".
    pub fn shutdown(&self) {
        self.inner.lock().expect("registry lock").shutdown = true;
        self.wake.notify_all();
    }
}

/// Pops the queue head and marks it running. Call with the registry lock.
fn take_next(inner: &mut Inner) -> Option<(String, String, JobSpec)> {
    let id = inner.queue.pop_front()?;
    inner.running += 1;
    let job = inner.jobs.get_mut(&id).expect("queued job is registered");
    job.state = JobState::Running;
    Some((id.clone(), job.tenant.clone(), job.spec.clone()))
}

/// Outcome of a bounded wait for queue work ([`Registry::next_job_timeout`]).
#[derive(Debug)]
pub enum NextJob {
    /// A job was dequeued and marked running: `(id, tenant, spec)`.
    Job(String, String, JobSpec),
    /// Nothing was queued within the timeout.
    Idle,
    /// The server is stopping; the worker should exit.
    Shutdown,
}

/// The JSONL file of a job: `<data_dir>/<tenant>/job-<id>.jsonl` (its
/// `.spec` fingerprint sidecar sits next to it). One place computes this so
/// the executor, the streamers and the tests agree.
pub fn job_path(data_dir: &Path, tenant: &str, id: &str) -> PathBuf {
    data_dir.join(tenant).join(format!("job-{id}.jsonl"))
}

type ExecuteFn = Box<dyn Fn(&Cell) -> Result<ScenarioResult, String> + Send + Sync>;
type CommitFn = Box<dyn FnMut(&Cell, CellOutcome<'_>) -> Result<(), String> + Send>;

/// One job opened for execution: the shared scheduler-driven
/// [`ExecutionCore`] wired to the engine pool and the registry.
///
/// The worker that dequeued the job calls [`ActiveJob::drive`]; any idle
/// worker may call [`ActiveJob::help`] on the same job concurrently — the
/// core hands each of them cells from one `next_cells` allocation loop and
/// commits completions in schedule order, so the job's JSONL stays
/// byte-identical to a single-worker run (under `reuse: reset`; see the
/// core's docs for the shared-cache caveat). Rows stream through the
/// campaign [`CellWriter`] — same fingerprint check, same torn-tail
/// truncation, same append-per-cell commit point — which is exactly why a
/// killed-and-resumed HTTP job reproduces byte-identical JSONL.
pub struct ActiveJob {
    core: ExecutionCore<ExecuteFn, CommitFn>,
}

impl ActiveJob {
    /// Opens the job's row file (resuming from whatever rows it holds) and
    /// builds the execution core over it. Cells run through the tenant's
    /// [`CellRunner`], which leases one pool slot per cell and drops it
    /// before tenant-quota enforcement.
    pub fn open(
        registry: &Arc<Registry>,
        pool: &Arc<EnginePool>,
        data_dir: &Path,
        id: &str,
        tenant: &str,
        spec: &JobSpec,
    ) -> Result<Self, String> {
        let runner = CellRunner::new(spec, pool.clone(), tenant)?;
        let writer = CellWriter::open(&job_path(data_dir, tenant, id), spec)?;
        registry.record_resumed(id, writer.resumed_rows());
        let execute: ExecuteFn = Box::new(move |cell: &Cell| runner.run(cell, &Tracer::disabled()));
        let commit: CommitFn = {
            let registry = registry.clone();
            let id = id.to_string();
            Box::new(move |_cell: &Cell, outcome: CellOutcome<'_>| {
                if let CellOutcome::Executed(result) = outcome {
                    registry.record_cell(&id, &result.engine_stats);
                }
                Ok(())
            })
        };
        Ok(Self {
            core: ExecutionCore::new(spec, writer, Tracer::disabled(), execute, commit)?,
        })
    }

    /// Drives the job to completion (the dequeuing worker's call). Safe to
    /// call while helpers run cells; the first error wins.
    pub fn drive(&self) -> Result<ScheduleOutcome, String> {
        self.core.drive()
    }

    /// Executes at most one of the job's claimable cells (an idle worker's
    /// call), waiting up to `patience` for one to appear. Returns whether a
    /// cell was executed; errors surface through [`ActiveJob::drive`] too.
    pub fn help(&self, patience: Duration) -> Result<bool, String> {
        self.core.help(patience)
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
        let (taken, _, _) = registry.next_job().expect("job queued");
        assert_eq!(taken, id);
        registry.finish(&id, Err("boom".into()));
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
            std::thread::spawn(move || registry.next_job())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        registry.shutdown();
        assert!(worker.join().expect("worker").is_none());
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
        registry.finish(&id, Err(message.into()));
        let body = registry.get(&id).expect("registered").to_json(&id);
        assert_eq!(body.lines().count(), 1, "{body:?}");
        assert!(body.ends_with("}\n"));
        let record = parse_flat_json(&body).expect("valid JSON");
        assert_eq!(record.str("error"), Some(message));
        assert_eq!(record.str("state"), Some("failed"));
        assert_eq!(record.str("job"), Some(id.as_str()));
    }
}
