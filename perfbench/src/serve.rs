//! The service layer: an in-process job server driven by closed-loop HTTP
//! clients, timed from the client side.

use crate::measure::{mix, ms, threads};
use moheco_bench::jobspec::{EngineReuse, JobSpec, ScheduleKind};
use moheco_bench::{Algo, BudgetClass};
use moheco_serve::client::{request, request_observed};
use moheco_serve::{Server, ServerConfig};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The scenario every service job runs.
pub const SERVE_SCENARIO: &str = "stress_24d";

pub const CLIENTS: usize = 2;
pub const SERVER_WORKERS: usize = 2;
const SEEDS_PER_JOB: u64 = 3;
/// One job in this many is replayed offline and compared byte for byte.
const VERIFY_ONE_IN: u64 = 40;

fn config(data_dir: &Path) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: SERVER_WORKERS,
        queue_depth: 16,
        data_dir: data_dir.to_path_buf(),
        tenant_quota_blocks: 0,
    }
}

fn tenant(client: usize) -> String {
    format!("client-{client}")
}

/// The `index`-th job of `client`: `stress_24d` × `two-stage` × a few
/// seeds at the small budget, fixed and OCBA schedules alternating. Seeds
/// never repeat within a client, so no submission collapses onto an earlier
/// job. The job is sized so its first row is never ready before the
/// server's first read of the job file: with tiny jobs on a mix of oracles
/// about half the jobs finished before the stream opened and the rest waited
/// for the 10 ms stream poll, which split every latency median between two
/// modes from run to run.
pub fn job_spec(seed: u64, index: usize) -> JobSpec {
    let first = 1 + mix(seed) % 1_000_000 + index as u64 * SEEDS_PER_JOB;
    JobSpec {
        scenarios: vec![SERVE_SCENARIO.to_string()],
        algos: vec![Algo::TwoStage],
        budget: BudgetClass::Small,
        seeds: (first..first + SEEDS_PER_JOB).collect(),
        reuse: EngineReuse::Reset,
        schedule: if index.is_multiple_of(2) {
            ScheduleKind::Fixed
        } else {
            ScheduleKind::Ocba
        },
        ..JobSpec::default()
    }
}

/// Whether the benchmark replays this job offline.
pub fn verified(seed: u64, client: usize, index: usize) -> bool {
    mix(seed ^ 0x5eed ^ mix(((client as u64) << 32) | index as u64)).is_multiple_of(VERIFY_ONE_IN)
}

/// One completed (or failed) job, seen from its client.
pub struct JobRun {
    pub spec: JobSpec,
    pub ok: bool,
    pub error: Option<String>,
    pub submit_ms: f64,
    pub first_row_ms: f64,
    pub job_ms: f64,
    pub row_gaps_ms: Vec<f64>,
    /// The streamed body, kept only for jobs chosen for verification.
    pub body: Option<Vec<u8>>,
}

fn json_field(body: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\": \"");
    let start = body.find(&marker)? + marker.len();
    let end = body[start..].find('"')? + start;
    Some(body[start..end].to_string())
}

/// Submits one job, streams its rows to completion and checks its final
/// state. Never panics on a server fault: faults come back as failed runs.
fn run_job(addr: SocketAddr, seed: u64, client: usize, index: usize) -> JobRun {
    let spec = job_spec(seed, index);
    let mut run = JobRun {
        spec: spec.clone(),
        ok: false,
        error: None,
        submit_ms: 0.0,
        first_row_ms: 0.0,
        job_ms: 0.0,
        row_gaps_ms: Vec::new(),
        body: None,
    };
    let tenant = tenant(client);
    let started = Instant::now();
    let submitted = request(
        addr,
        "POST",
        "/jobs",
        &[("X-Tenant", tenant.as_str())],
        spec.to_json().as_bytes(),
    );
    run.submit_ms = ms(started.elapsed());
    let id = match submitted {
        Ok(resp) if resp.status == 202 => match json_field(&resp.text(), "job") {
            Some(id) => id,
            None => {
                run.error = Some("202 without a job id".into());
                return run;
            }
        },
        Ok(resp) => {
            run.error = Some(format!("submit answered {}", resp.status));
            return run;
        }
        Err(e) => {
            run.error = Some(e);
            return run;
        }
    };
    let mut arrivals: Vec<f64> = Vec::new();
    let streamed = request_observed(
        addr,
        "GET",
        &format!("/jobs/{id}/stream"),
        &[],
        b"",
        |chunk| {
            let at = ms(started.elapsed());
            arrivals.extend(chunk.iter().filter(|&&b| b == b'\n').map(|_| at));
        },
    );
    let body = match streamed {
        Ok(resp) if resp.status == 200 => resp.body,
        Ok(resp) => {
            run.error = Some(format!("stream answered {}", resp.status));
            return run;
        }
        Err(e) => {
            run.error = Some(e);
            return run;
        }
    };
    let state = request(addr, "GET", &format!("/jobs/{id}"), &[], b"")
        .ok()
        .and_then(|resp| json_field(&resp.text(), "state"));
    let complete = !arrivals.is_empty() && body.ends_with(b"\n");
    run.first_row_ms = arrivals.first().copied().unwrap_or(0.0);
    run.job_ms = arrivals.last().copied().unwrap_or(0.0);
    run.row_gaps_ms = arrivals.windows(2).map(|w| w[1] - w[0]).collect();
    if verified(seed, client, index) {
        run.body = Some(body);
    }
    if state.as_deref() != Some("completed") {
        run.error = Some(format!("job {id} ended in state {state:?}"));
    } else if !complete {
        run.error = Some(format!("job {id} streamed no complete rows"));
    } else {
        run.ok = true;
    }
    run
}

/// What the closed loop measured.
pub struct LoopRun {
    pub jobs: Vec<JobRun>,
    pub seconds: f64,
    pub threads_peak: f64,
}

/// Runs `CLIENTS` closed-loop clients against the server for `seconds`;
/// each waits for its job's stream to end before submitting the next. A
/// sampler thread records the process's peak thread count.
pub fn closed_loop(addr: SocketAddr, seed: u64, seconds: f64) -> LoopRun {
    let deadline = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let done = AtomicBool::new(false);
    let (jobs, threads_peak) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = threads();
            while !done.load(Ordering::Relaxed) {
                peak = peak.max(threads());
                std::thread::sleep(Duration::from_millis(2));
            }
            peak
        });
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut runs = Vec::new();
                    while start.elapsed() < deadline {
                        runs.push(run_job(addr, seed, client, runs.len()));
                    }
                    runs
                })
            })
            .collect();
        let jobs: Vec<JobRun> = clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect();
        done.store(true, Ordering::Relaxed);
        (jobs, sampler.join().expect("thread sampler panicked"))
    });
    LoopRun {
        jobs,
        seconds: start.elapsed().as_secs_f64(),
        threads_peak,
    }
}

/// Starts a server and waits until it answers `/healthz`.
pub fn start(data_dir: &Path) -> Result<Server, String> {
    let server = Server::start(config(data_dir)).map_err(|e| format!("server start: {e}"))?;
    let resp = request(server.addr(), "GET", "/healthz", &[], b"")?;
    if resp.status != 200 {
        return Err(format!("/healthz answered {}", resp.status));
    }
    Ok(server)
}

/// A sample of the server's Prometheus exposition by metric name (the
/// first sample of that family).
pub fn scrape(addr: SocketAddr) -> Result<Vec<(String, f64)>, String> {
    let resp = request(addr, "GET", "/metrics", &[], b"")?;
    if resp.status != 200 {
        return Err(format!("/metrics answered {}", resp.status));
    }
    Ok(resp
        .text()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}
