//! End-to-end service guarantees, exercised over real TCP connections:
//!
//! * Basic routes behave (`/healthz`, `/metrics`, 404s, 400s, 405s); a
//!   spec naming a retired schedule is a 400.
//! * A seed count too large to expand is a 400, not a dead server.
//! * Two tenants' jobs run concurrently and their streamed rows are
//!   byte-identical to an offline `run_campaign` of the same spec.
//! * A job killed mid-row (torn JSONL tail on disk) and resubmitted to a
//!   fresh server over the same data directory resumes and streams
//!   byte-identical output — the HTTP torture version of the campaign
//!   resume test.
//! * A full queue answers 429 and holds nothing of the rejected job; the
//!   resubmission after drain completes normally (no silent drop).
//! * Per-tenant cache quotas trim a cache-hungry tenant without starving a
//!   small one.

use moheco_bench::jobspec::{EngineReuse, JobSpec, MAX_SEED_COUNT};
use moheco_bench::{run_campaign, Algo, BudgetClass, ScheduleKind};
use moheco_obs::json::parse_flat_json;
use moheco_serve::client::request;
use moheco_serve::http::MAX_BODY_BYTES;
use moheco_serve::{job_path, Server, ServerConfig};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("moheco-service-suite-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn server(name: &str, workers: usize, queue_depth: usize, quota: usize) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_depth,
        data_dir: temp_dir(name),
        tenant_quota_blocks: quota,
    })
    .expect("server starts")
}

fn spec(seeds: Vec<u64>, reuse: EngineReuse) -> JobSpec {
    JobSpec {
        scenarios: vec!["margin_wall".to_string()],
        algos: vec![Algo::TwoStage],
        budget: BudgetClass::Tiny,
        seeds,
        reuse,
        ..JobSpec::default()
    }
}

fn submit(addr: SocketAddr, tenant: &str, spec: &JobSpec) -> (u16, String) {
    let response = request(
        addr,
        "POST",
        "/jobs",
        &[("X-Tenant", tenant)],
        spec.to_json().as_bytes(),
    )
    .expect("submit");
    let id = parse_flat_json(&response.text())
        .ok()
        .and_then(|body| body.str("job").map(str::to_string));
    (response.status, id.unwrap_or_default())
}

fn stream(addr: SocketAddr, id: &str) -> Vec<u8> {
    let response = request(addr, "GET", &format!("/jobs/{id}/stream"), &[], b"").expect("stream");
    assert_eq!(response.status, 200, "stream status for {id}");
    response.body
}

fn wait_for_state(addr: SocketAddr, id: &str, state: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let response = request(addr, "GET", &format!("/jobs/{id}"), &[], b"").expect("status");
        let body = response.text();
        if body.contains(&format!("\"state\": \"{state}\"")) {
            return body;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} never reached {state}: {body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn basic_routes_and_errors() {
    let server = server("routes", 1, 4, 0);
    let addr = server.addr();

    let health = request(addr, "GET", "/healthz", &[], b"").expect("healthz");
    assert_eq!((health.status, health.text().as_str()), (200, "ok\n"));

    let metrics = request(addr, "GET", "/metrics", &[], b"").expect("metrics");
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    assert!(text.contains("moheco_serve_jobs_submitted_total"));
    assert!(text.contains("moheco_serve_queue_depth"));
    assert!(text.contains("moheco_pool_cache_blocks_total"));
    assert!(text.contains("moheco_tenant_cache_quota_blocks"));

    let missing = request(addr, "GET", "/jobs/no-such-job", &[], b"").expect("404");
    assert_eq!(missing.status, 404);
    let missing_stream = request(addr, "GET", "/jobs/no-such-job/stream", &[], b"").expect("404");
    assert_eq!(missing_stream.status, 404);

    let garbage = request(addr, "POST", "/jobs", &[], b"not json at all").expect("400");
    assert_eq!(garbage.status, 400);
    let empty_grid = request(addr, "POST", "/jobs", &[], b"{\"scenarios\": \"\"}").expect("400");
    assert_eq!(empty_grid.status, 400);
    // A retired schedule or algorithm fails closed rather than running
    // another one.
    for (key, name, error) in [
        (
            "schedule",
            "ocba-shrink",
            "unknown schedule \"ocba-shrink\"",
        ),
        ("algos", "ga", "unknown algo \"ga\""),
    ] {
        let body = format!("{{\"scenarios\": \"margin_wall\", \"{key}\": \"{name}\"}}");
        let retired = request(addr, "POST", "/jobs", &[], body.as_bytes()).expect("400");
        assert_eq!(retired.status, 400);
        assert!(retired.text().contains(error), "{}", retired.text());
    }
    let bad_tenant = request(
        addr,
        "POST",
        "/jobs",
        &[("X-Tenant", "no spaces allowed")],
        b"{}",
    )
    .expect("400");
    assert_eq!(bad_tenant.status, 400);

    let bad_method = request(addr, "DELETE", "/jobs/x", &[], b"").expect("405");
    assert_eq!(bad_method.status, 405);

    server.shutdown();
}

#[test]
fn huge_seed_count_is_rejected_and_the_server_survives() {
    // A count may expand no further than an explicit list in a body could.
    let explicit: Vec<String> = (1..=MAX_SEED_COUNT).map(|s| s.to_string()).collect();
    assert!(explicit.join(",").len() < MAX_BODY_BYTES);

    let server = server("huge-seeds", 1, 4, 0);
    let addr = server.addr();
    let body = b"{\"scenarios\": \"margin_wall\", \"seeds\": 1e15}";
    let huge = request(addr, "POST", "/jobs", &[], body).expect("400");
    assert_eq!(huge.status, 400, "{}", huge.text());
    assert!(huge.text().contains(&MAX_SEED_COUNT.to_string()));
    let health = request(addr, "GET", "/healthz", &[], b"").expect("healthz");
    assert_eq!((health.status, health.text().as_str()), (200, "ok\n"));
    server.shutdown();
}

#[test]
fn concurrent_tenants_stream_campaign_identical_rows() {
    let server = server("concurrent", 2, 8, 0);
    let addr = server.addr();
    let spec = spec(vec![1, 2], EngineReuse::Reset);

    // Both jobs enter the queue before either stream is opened, so the two
    // workers execute them concurrently.
    let (status_a, id_a) = submit(addr, "acme", &spec);
    let (status_b, id_b) = submit(addr, "beta", &spec);
    assert_eq!((status_a, status_b), (202, 202));
    assert_ne!(id_a, id_b, "tenant is part of the job identity");

    // Stream both concurrently (each blocks until its job finishes).
    let handle = {
        let id_b = id_b.clone();
        std::thread::spawn(move || stream(addr, &id_b))
    };
    let rows_a = stream(addr, &id_a);
    let rows_b = handle.join().expect("stream thread");
    assert_eq!(rows_a, rows_b, "same spec, same rows, tenant-independent");

    // Reset-mode service rows are byte-identical to an offline campaign of
    // the same spec — the server adds transport, not drift.
    let reference_path = temp_dir("concurrent-ref").join("campaign.jsonl");
    run_campaign(&spec, &reference_path, |_| {}).expect("reference campaign");
    let reference = std::fs::read(&reference_path).expect("reference rows");
    assert_eq!(rows_a, reference);

    // Identical resubmission collapses onto the completed job.
    let (status_again, id_again) = submit(addr, "acme", &spec);
    assert_eq!((status_again, id_again), (200, id_a));

    server.shutdown();
}

#[test]
fn killed_job_resumes_byte_identically_over_http() {
    let spec = spec(vec![1, 2, 3], EngineReuse::Reset);

    // Reference pass: run the job to completion on server A.
    let server_a = server("torture-a", 1, 4, 0);
    let (status, id) = submit(server_a.addr(), "acme", &spec);
    assert_eq!(status, 202);
    let full_bytes = stream(server_a.addr(), &id);
    assert_eq!(spec.job_id("acme"), id, "job id is the spec fingerprint");
    let path_a = job_path(&temp_dir_existing("torture-a"), "acme", &id);
    server_a.shutdown();

    // "Kill the worker mid-row": server B's data dir gets the first two
    // complete rows plus a torn partial row, and the intact `.spec`
    // sidecar — exactly what a mid-write kill leaves behind.
    let dir_b = temp_dir("torture-b");
    let path_b = job_path(&dir_b, "acme", &id);
    std::fs::create_dir_all(path_b.parent().expect("tenant dir")).expect("mkdir");
    let text = String::from_utf8(full_bytes.clone()).expect("utf8 rows");
    let mut torn: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
    torn.push_str("{\"schema_version\": 5, \"scenario\": \"margin_w");
    std::fs::write(&path_b, &torn).expect("torn file");
    std::fs::copy(
        path_a.with_extension("jsonl.spec"),
        path_b.with_extension("jsonl.spec"),
    )
    .expect("sidecar survives the kill");

    // Resubmitting the identical spec to a fresh server resumes the job and
    // streams byte-identical output.
    let server_b = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 4,
        data_dir: dir_b,
        tenant_quota_blocks: 0,
    })
    .expect("server B");
    let (status, resumed_id) = submit(server_b.addr(), "acme", &spec);
    assert_eq!((status, resumed_id.as_str()), (202, id.as_str()));
    let resumed_bytes = stream(server_b.addr(), &id);
    assert_eq!(
        resumed_bytes, full_bytes,
        "resumed streamed JSONL differs from the uninterrupted run"
    );
    let final_status = wait_for_state(server_b.addr(), &id, "completed");
    assert!(
        final_status.contains("\"resumed\": 2"),
        "two complete rows should have been skipped: {final_status}"
    );
    server_b.shutdown();
}

/// [`temp_dir`] without the wipe — for re-opening a dir another server made.
fn temp_dir_existing(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("moheco-service-suite-{name}"))
}

/// An adaptive spec whose schedule takes several rounds: two scenario
/// groups, six seeds each, gated by cross-seed CI.
fn ocba_spec() -> JobSpec {
    JobSpec {
        scenarios: vec![
            "margin_wall".to_string(),
            "quadratic_feasibility".to_string(),
        ],
        algos: vec![Algo::TwoStage],
        budget: BudgetClass::Tiny,
        seeds: (1..=6).collect(),
        schedule: ScheduleKind::Ocba,
        reuse: EngineReuse::Reset,
        ..JobSpec::default()
    }
}

#[test]
fn killed_ocba_job_resumes_byte_identically_over_http() {
    // An adaptive job's row log IS its scheduler's replay journal, so this
    // is the sharpest resume test the service can face: kill the job
    // mid-row, resubmit to a fresh server, and demand that the scheduler
    // re-derive the identical allocation sequence from the consumed rows.
    let spec = ocba_spec();

    // Reference pass: the full job on server A — and the acceptance bar
    // that a single-worker service run is byte-identical to the offline
    // campaign runner on the same spec.
    let server_a = server("ocba-torture-a", 1, 4, 0);
    let (status, id) = submit(server_a.addr(), "acme", &spec);
    assert_eq!(status, 202);
    let full_bytes = stream(server_a.addr(), &id);
    let status_a = wait_for_state(server_a.addr(), &id, "completed");
    assert!(
        status_a.contains("\"schedule\": \"ocba\""),
        "status must carry the scheduler kind: {status_a}"
    );
    let path_a = job_path(&temp_dir_existing("ocba-torture-a"), "acme", &id);
    server_a.shutdown();

    let reference_path = temp_dir("ocba-torture-ref").join("campaign.jsonl");
    let reference = run_campaign(&spec, &reference_path, |_| {}).expect("reference campaign");
    assert_eq!(
        full_bytes,
        std::fs::read(&reference_path).expect("reference rows"),
        "single-worker service rows differ from the offline campaign"
    );
    assert!(
        status_a.contains(&format!(
            "\"seeds_saved\": {}",
            reference.schedule.seeds_saved
        )),
        "status seeds_saved must match the offline schedule: {status_a}"
    );

    // Kill it mid-row: four complete rows plus a torn tail, plus the
    // intact `.spec` sidecar, in a fresh server's data dir.
    let full_rows = full_bytes.iter().filter(|&&b| b == b'\n').count();
    assert!(full_rows > 4, "need rows beyond the torn prefix");
    let dir_b = temp_dir("ocba-torture-b");
    let path_b = job_path(&dir_b, "acme", &id);
    std::fs::create_dir_all(path_b.parent().expect("tenant dir")).expect("mkdir");
    let text = String::from_utf8(full_bytes.clone()).expect("utf8 rows");
    let mut torn: String = text.lines().take(4).map(|l| format!("{l}\n")).collect();
    torn.push_str("{\"schema_version\": 5, \"scenario\": \"quadratic_fea");
    std::fs::write(&path_b, &torn).expect("torn file");
    std::fs::copy(
        path_a.with_extension("jsonl.spec"),
        path_b.with_extension("jsonl.spec"),
    )
    .expect("sidecar survives the kill");

    let server_b = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 4,
        data_dir: dir_b,
        tenant_quota_blocks: 0,
    })
    .expect("server B");
    let (status, resumed_id) = submit(server_b.addr(), "acme", &spec);
    assert_eq!((status, resumed_id.as_str()), (202, id.as_str()));
    let resumed_bytes = stream(server_b.addr(), &id);
    assert_eq!(
        resumed_bytes, full_bytes,
        "resumed adaptive job streamed different JSONL than the uninterrupted run"
    );
    let final_status = wait_for_state(server_b.addr(), &id, "completed");
    assert!(
        final_status.contains("\"resumed\": 4"),
        "four complete rows should have been skipped: {final_status}"
    );
    server_b.shutdown();
}

#[test]
fn multi_worker_ocba_job_streams_single_worker_bytes() {
    // Three workers over one adaptive job: one drives, the idle two pull
    // cells from the same allocation loop. Because the core commits
    // completions in schedule order and reset-mode cells are pure functions
    // of their identity, the extra workers must change nothing in the
    // stream — and the savings accounting must match the offline run.
    let spec = ocba_spec();
    let reference_path = temp_dir("multiworker-ref").join("campaign.jsonl");
    let reference = run_campaign(&spec, &reference_path, |_| {}).expect("reference campaign");
    let reference_bytes = std::fs::read(&reference_path).expect("reference rows");

    let server = server("multiworker", 3, 4, 0);
    let (status, id) = submit(server.addr(), "acme", &spec);
    assert_eq!(status, 202);
    let rows = stream(server.addr(), &id);
    assert_eq!(
        rows, reference_bytes,
        "multi-worker service rows differ from the single-worker bytes"
    );
    let final_status = wait_for_state(server.addr(), &id, "completed");
    assert!(
        final_status.contains(&format!(
            "\"seeds_saved\": {}",
            reference.schedule.seeds_saved
        )),
        "multi-worker seeds_saved must match the offline schedule: {final_status}"
    );
    server.shutdown();
}

#[test]
fn full_queue_answers_429_and_drops_nothing() {
    // No workers yet: submissions stay queued, deterministically.
    let mut server = server("backpressure", 0, 2, 0);
    let addr = server.addr();

    let (s1, id1) = submit(addr, "acme", &spec(vec![1], EngineReuse::Reset));
    let (s2, id2) = submit(addr, "acme", &spec(vec![2], EngineReuse::Reset));
    assert_eq!((s1, s2), (202, 202));

    let rejected_spec = spec(vec![3], EngineReuse::Reset);
    let (s3, _) = submit(addr, "acme", &rejected_spec);
    assert_eq!(s3, 429, "third job exceeds the queue depth");

    // The rejected job left no trace: its would-be id is unknown.
    let ghost = request(
        addr,
        "GET",
        &format!("/jobs/{}", rejected_spec.job_id("acme")),
        &[],
        b"",
    )
    .expect("status");
    assert_eq!(ghost.status, 404);
    let metrics = request(addr, "GET", "/metrics", &[], b"").expect("metrics");
    assert!(metrics
        .text()
        .contains("moheco_serve_jobs_rejected_total 1"));
    assert!(metrics.text().contains("moheco_serve_queue_depth 2"));

    // Drain the queue, then resubmit the rejected job: it runs to
    // completion — backpressure delayed it, nothing was lost.
    server.start_workers(1);
    wait_for_state(addr, &id1, "completed");
    wait_for_state(addr, &id2, "completed");
    let (s3_again, id3) = submit(addr, "acme", &rejected_spec);
    assert_eq!(s3_again, 202);
    wait_for_state(addr, &id3, "completed");
    assert!(!stream(addr, &id3).is_empty());

    server.shutdown();
}

#[test]
fn tenant_quota_trims_the_hog_without_starving_the_mouse() {
    // Reference: the hog's grid on an unlimited server.
    let hog_spec = JobSpec {
        scenarios: vec![
            "margin_wall".to_string(),
            "quadratic_feasibility".to_string(),
        ],
        algos: vec![Algo::TwoStage],
        budget: BudgetClass::Tiny,
        seeds: vec![1, 2, 3],
        reuse: EngineReuse::SharedCache,
        ..JobSpec::default()
    };
    let mouse_spec = spec(vec![1], EngineReuse::SharedCache);

    let unlimited = server("quota-ref", 1, 4, 0);
    let (_, ref_id) = submit(unlimited.addr(), "hog", &hog_spec);
    wait_for_state(unlimited.addr(), &ref_id, "completed");
    let unbounded_blocks: usize = unlimited
        .pool()
        .tenant_usage()
        .iter()
        .map(|(_, blocks, _)| *blocks)
        .sum();
    unlimited.shutdown();

    let quota = 2;
    assert!(
        unbounded_blocks > quota,
        "reference run must out-size the quota for this test to mean anything \
         (got {unbounded_blocks} blocks)"
    );

    let limited = server("quota", 2, 8, quota);
    let addr = limited.addr();
    let (_, hog_id) = submit(addr, "hog", &hog_spec);
    let (_, mouse_id) = submit(addr, "mouse", &mouse_spec);
    wait_for_state(addr, &hog_id, "completed");
    wait_for_state(addr, &mouse_id, "completed");

    let usage = limited.pool().tenant_usage();
    let blocks_of = |tenant: &str| {
        usage
            .iter()
            .find(|(t, _, _)| t == tenant)
            .map(|(_, blocks, _)| *blocks)
            .unwrap_or(0)
    };
    assert!(
        blocks_of("hog") <= quota,
        "hog holds {} blocks, quota is {quota}",
        blocks_of("hog")
    );
    assert!(
        blocks_of("mouse") > 0,
        "the mouse's warm cache must survive the hog's trimming"
    );

    // The quota shows up in the exposition too.
    let metrics = request(addr, "GET", "/metrics", &[], b"")
        .expect("metrics")
        .text();
    assert!(metrics.contains("moheco_tenant_cache_blocks{tenant=\"hog\"}"));
    assert!(metrics.contains("moheco_tenant_cache_blocks{tenant=\"mouse\"}"));
    assert!(metrics.contains(&format!("moheco_tenant_cache_quota_blocks {quota}")));

    limited.shutdown();
}
