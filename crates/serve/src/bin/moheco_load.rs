//! `moheco-load` — mixed-tenant load generator and service acceptance
//! check for `moheco-serve`.
//!
//! ```text
//! moheco-load --addr 127.0.0.1:7811 [--tenants 2] [--jobs-per-tenant 2]
//!             [--seeds 2] [--budget tiny] [--out BENCH_service.json]
//! ```
//!
//! One thread per tenant submits its jobs sequentially, streaming each
//! job's rows live and timing every row from submission to arrival. After a
//! job completes the generator re-streams it twice (any byte difference is
//! a determinism violation) and resubmits the identical spec (anything but
//! "already known, completed, same bytes" is a resume violation). 429
//! rejections are counted and retried — never silently dropped. Results
//! land in a flat `BENCH_service.json`; the exit status is nonzero if any
//! job failed or any violation was observed, which is what lets CI gate on
//! this binary directly.

use moheco_bench::jobspec::{EngineReuse, JobSpec, ScheduleKind};
use moheco_bench::{Algo, BudgetClass, CliArgs};
use moheco_obs::json::{parse_flat_json, JsonWriter};
use moheco_serve::client::{request, request_observed};
use std::io::Write;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

#[derive(Default)]
struct TenantOutcome {
    rows: usize,
    row_latencies_ms: Vec<f64>,
    // Per-scheduler buckets: fixed and adaptive jobs have structurally
    // different row cadences (the rectangle streams steadily; OCBA rounds
    // burst), so pooling their latencies into one p50/p99 hides both.
    fixed_jobs: usize,
    fixed_row_latencies_ms: Vec<f64>,
    ocba_jobs: usize,
    ocba_row_latencies_ms: Vec<f64>,
    ocba_seeds_saved: usize,
    rejected_429: usize,
    resubmits: usize,
    determinism_violations: usize,
    resume_violations: usize,
    failures: usize,
}

fn main() {
    let args = CliArgs::parse();
    match run(&args) {
        Ok(0) => {}
        Ok(violations) => {
            eprintln!("error: {violations} violation(s) observed");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn job_spec(budget: BudgetClass, job_index: usize, seeds_per_job: usize) -> JobSpec {
    let first = (job_index * seeds_per_job) as u64 + 1;
    JobSpec {
        scenarios: vec!["margin_wall".to_string()],
        algos: vec![Algo::TwoStage],
        budget,
        seeds: (first..first + seeds_per_job as u64).collect(),
        reuse: EngineReuse::SharedCache,
        // Alternate the scheduler across jobs so every load pass exercises
        // both the fixed rectangle and the adaptive OCBA path over real
        // TCP — including their separate resume/determinism re-checks.
        schedule: if job_index.is_multiple_of(2) {
            ScheduleKind::Fixed
        } else {
            ScheduleKind::Ocba
        },
        ..JobSpec::default()
    }
}

/// The 64-bit finalizer from splitmix64 — a cheap, deterministic mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The delay before retrying a 429'd submission: exponential backoff from
/// 25ms, doubling per attempt and capped at 2s, plus jitter of up to half
/// the base delay hashed from `(tenant, job_index, attempt)`. The jitter
/// desynchronizes tenants that got rejected in the same instant (so they
/// don't stampede the queue in lockstep forever) while staying fully
/// deterministic: a re-run of the same load shape backs off identically.
fn backoff_delay(tenant: &str, job_index: usize, attempt: u32) -> Duration {
    const BASE_MS: u64 = 25;
    const CAP_MS: u64 = 2_000;
    let base = BASE_MS.saturating_mul(1 << attempt.min(16)).min(CAP_MS);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for byte in tenant.bytes() {
        hash = splitmix64(hash ^ u64::from(byte));
    }
    hash = splitmix64(hash ^ job_index as u64);
    hash = splitmix64(hash ^ u64::from(attempt));
    Duration::from_millis(base + hash % (base / 2).max(1))
}

fn submit_with_retry(
    addr: SocketAddr,
    tenant: &str,
    job_index: usize,
    body: &str,
    outcome: &mut TenantOutcome,
) -> Result<(u16, String), String> {
    let mut attempt = 0u32;
    loop {
        let response = request(
            addr,
            "POST",
            "/jobs",
            &[("X-Tenant", tenant), ("Content-Type", "application/json")],
            body.as_bytes(),
        )?;
        if response.status == 429 {
            outcome.rejected_429 += 1;
            std::thread::sleep(backoff_delay(tenant, job_index, attempt));
            attempt += 1;
            continue;
        }
        if response.status != 202 && response.status != 200 {
            return Err(format!(
                "submit for {tenant} got {}: {}",
                response.status,
                response.text().trim()
            ));
        }
        let id = parse_flat_json(&response.text())
            .ok()
            .and_then(|record| record.str("job").map(str::to_string))
            .ok_or_else(|| format!("no job id in {:?}", response.text()))?;
        return Ok((response.status, id));
    }
}

fn run_tenant(
    addr: SocketAddr,
    tenant: String,
    jobs: usize,
    seeds_per_job: usize,
    budget: BudgetClass,
) -> Result<TenantOutcome, String> {
    let mut outcome = TenantOutcome::default();
    for job_index in 0..jobs {
        let spec = job_spec(budget, job_index, seeds_per_job);
        let adaptive = spec.schedule == ScheduleKind::Ocba;
        let body = spec.to_json();
        let submitted_at = Instant::now();
        let (_, id) = submit_with_retry(addr, &tenant, job_index, &body, &mut outcome)?;

        // Stream the rows live, timing each one against the submission.
        let mut latencies = Vec::new();
        let first = request_observed(
            addr,
            "GET",
            &format!("/jobs/{id}/stream"),
            &[],
            b"",
            |chunk| {
                let arrived = submitted_at.elapsed().as_secs_f64() * 1e3;
                for _ in chunk.iter().filter(|&&b| b == b'\n') {
                    latencies.push(arrived);
                }
            },
        )?;
        if first.status != 200 {
            return Err(format!("stream for {id} got {}", first.status));
        }
        outcome.rows += latencies.len();
        if adaptive {
            outcome.ocba_jobs += 1;
            outcome.ocba_row_latencies_ms.extend(latencies.iter());
        } else {
            outcome.fixed_jobs += 1;
            outcome.fixed_row_latencies_ms.extend(latencies.iter());
        }
        outcome.row_latencies_ms.append(&mut latencies);

        let status = request(addr, "GET", &format!("/jobs/{id}"), &[], b"")?;
        let record = parse_flat_json(&status.text()).unwrap_or_default();
        if record.str("state") != Some("completed") {
            outcome.failures += 1;
            eprintln!("job {id} did not complete: {}", status.text().trim());
            continue;
        }
        if adaptive {
            outcome.ocba_seeds_saved += record.num("seeds_saved").unwrap_or(0.0) as usize;
        }

        // Determinism: a finished job's stream is a pure file read — any
        // byte drift between re-streams is a bug.
        for _ in 0..2 {
            let again = request(addr, "GET", &format!("/jobs/{id}/stream"), &[], b"")?;
            if again.body != first.body {
                outcome.determinism_violations += 1;
            }
        }

        // Resume: the identical spec must collapse onto the same completed
        // job (200, not 202) and stream the same bytes.
        outcome.resubmits += 1;
        let (resubmit_status, resubmit_id) =
            submit_with_retry(addr, &tenant, job_index, &body, &mut outcome)?;
        let replay = request(
            addr,
            "GET",
            &format!("/jobs/{resubmit_id}/stream"),
            &[],
            b"",
        )?;
        if resubmit_status != 200 || resubmit_id != id || replay.body != first.body {
            outcome.resume_violations += 1;
        }
    }
    Ok(outcome)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// min/max of per-tenant cached blocks from `/metrics` (1.0 when every
/// tenant holds the same amount — including all-zero).
fn quota_fairness(metrics: &str) -> f64 {
    let blocks: Vec<f64> = metrics
        .lines()
        .filter(|l| l.starts_with("moheco_tenant_cache_blocks{"))
        .filter_map(|l| l.rsplit(' ').next()?.parse().ok())
        .collect();
    let max = blocks.iter().cloned().fold(0.0, f64::max);
    if max == 0.0 {
        return 1.0;
    }
    let min = blocks.iter().cloned().fold(f64::INFINITY, f64::min);
    min / max
}

fn run(args: &CliArgs) -> Result<usize, String> {
    args.expect_only(
        &[],
        &[
            "--addr",
            "--tenants",
            "--jobs-per-tenant",
            "--seeds",
            "--budget",
            "--out",
        ],
    )?;
    let addr: SocketAddr = args
        .value_of("--addr")?
        .ok_or("--addr is required")?
        .parse()
        .map_err(|e| format!("bad --addr: {e}"))?;
    let tenants = args.u64_of("--tenants", 2)? as usize;
    let jobs_per_tenant = args.u64_of("--jobs-per-tenant", 2)? as usize;
    let seeds_per_job = args.u64_of("--seeds", 2)? as usize;
    let budget = match args.value_of("--budget")? {
        None => BudgetClass::Tiny,
        Some(v) => BudgetClass::parse(v).ok_or_else(|| format!("bad --budget {v:?}"))?,
    };
    let out_path = args
        .value_of("--out")?
        .unwrap_or("BENCH_service.json")
        .to_string();

    let started = Instant::now();
    let handles: Vec<_> = (0..tenants)
        .map(|i| {
            let tenant = format!("tenant-{i}");
            std::thread::spawn(move || {
                run_tenant(addr, tenant, jobs_per_tenant, seeds_per_job, budget)
            })
        })
        .collect();
    let mut total = TenantOutcome::default();
    for handle in handles {
        let outcome = handle.join().map_err(|_| "tenant thread panicked")??;
        total.rows += outcome.rows;
        total.row_latencies_ms.extend(outcome.row_latencies_ms);
        total.fixed_jobs += outcome.fixed_jobs;
        total
            .fixed_row_latencies_ms
            .extend(outcome.fixed_row_latencies_ms);
        total.ocba_jobs += outcome.ocba_jobs;
        total
            .ocba_row_latencies_ms
            .extend(outcome.ocba_row_latencies_ms);
        total.ocba_seeds_saved += outcome.ocba_seeds_saved;
        total.rejected_429 += outcome.rejected_429;
        total.resubmits += outcome.resubmits;
        total.determinism_violations += outcome.determinism_violations;
        total.resume_violations += outcome.resume_violations;
        total.failures += outcome.failures;
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    let metrics = request(addr, "GET", "/metrics", &[], b"")?;
    let fairness = quota_fairness(&metrics.text());

    let sort = |latencies: &mut Vec<f64>| {
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    };
    sort(&mut total.row_latencies_ms);
    sort(&mut total.fixed_row_latencies_ms);
    sort(&mut total.ocba_row_latencies_ms);
    let jobs = tenants * jobs_per_tenant;
    // Schema v2: the pooled fields stay (dashboards keep working), and each
    // scheduler kind gets its own latency bucket plus the adaptive savings.
    let p50 = |latencies: &[f64]| format!("{:.3}", percentile(latencies, 50.0));
    let p99 = |latencies: &[f64]| format!("{:.3}", percentile(latencies, 99.0));
    let report = JsonWriter::pretty()
        .bare("schema_version", 2)
        .bare("jobs", jobs)
        .bare("tenants", tenants)
        .bare("rows", total.rows)
        .bare(
            "jobs_per_sec",
            format_args!("{:.3}", jobs as f64 / (wall_ms / 1e3).max(1e-9)),
        )
        .bare("row_latency_p50_ms", p50(&total.row_latencies_ms))
        .bare("row_latency_p99_ms", p99(&total.row_latencies_ms))
        .bare("fixed_jobs", total.fixed_jobs)
        .bare("fixed_rows", total.fixed_row_latencies_ms.len())
        .bare(
            "fixed_row_latency_p50_ms",
            p50(&total.fixed_row_latencies_ms),
        )
        .bare(
            "fixed_row_latency_p99_ms",
            p99(&total.fixed_row_latencies_ms),
        )
        .bare("ocba_jobs", total.ocba_jobs)
        .bare("ocba_rows", total.ocba_row_latencies_ms.len())
        .bare("ocba_row_latency_p50_ms", p50(&total.ocba_row_latencies_ms))
        .bare("ocba_row_latency_p99_ms", p99(&total.ocba_row_latencies_ms))
        .bare("ocba_seeds_saved", total.ocba_seeds_saved)
        .bare("rejected_429", total.rejected_429)
        .bare("resubmits", total.resubmits)
        .bare("failures", total.failures)
        .bare("determinism_violations", total.determinism_violations)
        .bare("resume_violations", total.resume_violations)
        .bare("quota_fairness", format_args!("{fairness:.3}"))
        .bare("wall_time_ms", format_args!("{wall_ms:.1}"))
        .finish();
    let mut file =
        std::fs::File::create(&out_path).map_err(|e| format!("create {out_path}: {e}"))?;
    file.write_all(report.as_bytes())
        .map_err(|e| format!("write {out_path}: {e}"))?;
    println!("{report}");
    Ok(total.failures + total.determinism_violations + total.resume_violations)
}
