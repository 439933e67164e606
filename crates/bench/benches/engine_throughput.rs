//! Throughput benchmark of the `moheco-runtime` evaluation engine:
//! serial vs parallel batch evaluation, cache-miss vs cache-hit paths, and
//! the batched (`simulate_block`) vs scalar (`simulate_point` loop) fast
//! path, on the folded-cascode testbench of example 1.
//!
//! Runs as a plain `harness = false` benchmark (the environment has no real
//! criterion) and emits a machine-readable `BENCH_runtime.json` at the
//! workspace root alongside the human-readable report. CI gates on the
//! `batch_speedup` field.
//!
//! Pass `--samples <n>` / `--designs <n>` / `--reps <n>` to change the load.

use moheco::runtime::{Engine, EngineConfig, EvalEngine, McRequest, SimulationModel};
use moheco::{CircuitBench, YieldProblem};
use moheco_analog::{FoldedCascode, Testbench};
use std::sync::Arc;
use std::time::Instant;

/// Hides the model's `simulate_block` override so the engine falls back to
/// the trait's default scalar loop — the pre-batching reference path.
struct ScalarizeModel<'a>(&'a dyn SimulationModel);

impl SimulationModel for ScalarizeModel<'_> {
    fn unit_dimension(&self) -> usize {
        self.0.unit_dimension()
    }
    fn simulate_point(&self, x: &[f64], u: &[f64]) -> f64 {
        self.0.simulate_point(x, u)
    }
    fn nominal(&self, x: &[f64]) -> Vec<f64> {
        self.0.nominal(x)
    }
    fn importance_shift(&self, x: &[f64]) -> Option<Vec<f64>> {
        self.0.importance_shift(x)
    }
}

/// One timed pass: evaluate `designs × samples` Monte-Carlo outcomes as one
/// batch. Returns wall nanoseconds.
fn timed_batch(
    problem: &YieldProblem<moheco::CircuitBench<FoldedCascode>>,
    designs: &[Vec<f64>],
    samples: usize,
) -> u64 {
    let requests: Vec<McRequest> = designs
        .iter()
        .map(|x| McRequest::new(x.clone(), 0, samples))
        .collect();
    let start = Instant::now();
    let outcomes = problem.outcomes_batch(&requests);
    let elapsed = start.elapsed().as_nanos() as u64;
    assert_eq!(outcomes.len(), designs.len());
    elapsed
}

/// Cold pass through a fresh one-worker engine, dispatching either
/// the batched model or its scalarized wrapper. Isolates the `simulate_block`
/// fast path from parallelism and cache effects.
fn timed_cold_dispatch(designs: &[Vec<f64>], samples: usize, scalarize: bool) -> u64 {
    let bench = CircuitBench::new(FoldedCascode::new());
    let engine = Engine::new(EngineConfig::default().with_workers(1));
    let requests: Vec<McRequest> = designs
        .iter()
        .map(|x| McRequest::new(x.clone(), 0, samples))
        .collect();
    let start = Instant::now();
    let outcomes = if scalarize {
        let wrapped = ScalarizeModel(&bench);
        engine.mc_outcomes(&wrapped, &requests)
    } else {
        engine.mc_outcomes(&bench, &requests)
    };
    let elapsed = start.elapsed().as_nanos() as u64;
    assert_eq!(outcomes.len(), designs.len());
    elapsed
}

/// Times the AC-sweep kernel alone — scalar `ac::sweep` vs the batched
/// `FactorizedCircuit::sweep` — on the folded-cascode half circuit at the
/// same size the testbench stamps it (four nodes plus the stimulus branch,
/// 50 frequency points). This isolates the SIMD LU fast path from the
/// bias-point solve and engine plumbing that both dispatch paths share.
fn timed_kernel_sweep(reps: usize) -> (u64, u64) {
    use spicelite::ac::{log_space, sweep};
    use spicelite::{FactorizedCircuit, LinearCircuit};
    let mut ckt = LinearCircuit::new();
    let vin = ckt.node();
    let fold = ckt.node();
    let out = ckt.node();
    let casn = ckt.node();
    ckt.add_vsource(vin, 0, 1.0);
    // Input device folded onto the PMOS cascode, NMOS mirror below.
    ckt.add_mos_small_signal(
        fold, vin, 0, 0, 1.1e-3, 9e-6, 0.0, 9e-14, 1.1e-14, 2e-14, 2e-14,
    );
    ckt.add_conductance(fold, 0, 1.2e-5);
    ckt.add_capacitance(fold, 0, 3.4e-14);
    ckt.add_mos_small_signal(
        out, 0, fold, 0, 8e-4, 7e-6, 1.9e-4, 7e-14, 1e-14, 1.8e-14, 1.8e-14,
    );
    ckt.add_mos_small_signal(
        out, 0, casn, 0, 9e-4, 8e-6, 2.1e-4, 8e-14, 1e-14, 1.9e-14, 1.9e-14,
    );
    ckt.add_conductance(casn, 0, 1.4e-5);
    ckt.add_capacitance(casn, 0, 3.1e-14);
    ckt.add_capacitance(out, 0, 2e-12);
    let freqs = log_space(1e3, 3e10, 50);
    let n = 400usize;

    let mut scalar = Vec::new();
    let mut batched = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        let mut acc = 0.0;
        for _ in 0..n {
            acc += sweep(&ckt, out, &freqs).unwrap().dc_gain_db();
        }
        scalar.push(start.elapsed().as_nanos() as u64 / n as u64);
        assert!(acc.is_finite());

        let mut fac = FactorizedCircuit::new(&ckt);
        let start = Instant::now();
        let mut acc_b = 0.0;
        for _ in 0..n {
            acc_b += fac.sweep(&ckt, out, &freqs).unwrap().dc_gain_db();
        }
        batched.push(start.elapsed().as_nanos() as u64 / n as u64);
        assert_eq!(acc.to_bits(), acc_b.to_bits(), "kernel paths must agree");
    }
    (median(scalar), median(batched))
}

fn build_designs(n: usize) -> Vec<Vec<f64>> {
    let reference = FoldedCascode::new().reference_design();
    (0..n)
        .map(|i| {
            let mut x = reference.clone();
            x[8] = 120.0 + 3.0 * i as f64; // spread of tail currents
            x
        })
        .collect()
}

fn arg(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn main() {
    let designs_n = arg("--designs", 8);
    let samples = arg("--samples", 150);
    let reps = arg("--reps", 5);
    assert!(
        reps >= 2,
        "engine_throughput needs at least 2 repetitions for a stable median \
         (got --reps {reps})"
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let designs = build_designs(designs_n);
    let total = designs_n * samples;

    // Cold-cache passes use a fresh engine per repetition so every sample is
    // a cache miss; the immediate second pass on the same engine is the pure
    // cache-hit path.
    let mut serial_cold = Vec::new();
    let mut parallel_cold = Vec::new();
    let mut serial_warm = Vec::new();
    let mut parallel_warm = Vec::new();
    let mut scalar_cold = Vec::new();
    let mut batched_cold = Vec::new();
    for _ in 0..reps {
        let problem = YieldProblem::with_engine(
            FoldedCascode::new(),
            Arc::new(Engine::new(EngineConfig::default().with_workers(1))),
        );
        serial_cold.push(timed_batch(&problem, &designs, samples));
        serial_warm.push(timed_batch(&problem, &designs, samples));

        let problem = YieldProblem::with_engine(
            FoldedCascode::new(),
            Arc::new(Engine::new(EngineConfig::default())),
        );
        parallel_cold.push(timed_batch(&problem, &designs, samples));
        parallel_warm.push(timed_batch(&problem, &designs, samples));

        scalar_cold.push(timed_cold_dispatch(&designs, samples, true));
        batched_cold.push(timed_cold_dispatch(&designs, samples, false));
    }
    let (sweep_scalar, sweep_batched) = timed_kernel_sweep(reps);

    // A final instrumented pass for the stats block.
    let instrumented = YieldProblem::with_engine(
        FoldedCascode::new(),
        Arc::new(Engine::new(EngineConfig::default())),
    );
    let _ = timed_batch(&instrumented, &designs, samples);
    let _ = timed_batch(&instrumented, &designs, samples);
    let stats = instrumented.engine_stats();

    let s_cold = median(serial_cold);
    let p_cold = median(parallel_cold);
    let s_warm = median(serial_warm);
    let p_warm = median(parallel_warm);
    let sc_cold = median(scalar_cold);
    let b_cold = median(batched_cold);
    let speedup = s_cold as f64 / p_cold.max(1) as f64;
    let hit_speedup = s_cold as f64 / s_warm.max(1) as f64;
    let batch_speedup = sc_cold as f64 / b_cold.max(1) as f64;
    let kernel_sweep_speedup = sweep_scalar as f64 / sweep_batched.max(1) as f64;
    let scalar_per_sample = sc_cold as f64 / total.max(1) as f64;
    let batched_per_sample = b_cold as f64 / total.max(1) as f64;

    println!(
        "engine_throughput: {designs_n} designs x {samples} samples = {total} simulations/batch, {reps} reps, {cores} core(s)"
    );
    println!(
        "  serial   cold {:>10.3} ms   warm {:>10.3} ms",
        s_cold as f64 / 1e6,
        s_warm as f64 / 1e6
    );
    println!(
        "  parallel cold {:>10.3} ms   warm {:>10.3} ms",
        p_cold as f64 / 1e6,
        p_warm as f64 / 1e6
    );
    println!(
        "  1-core dispatch: scalar cold {:>10.3} ms ({:.0} ns/sample)   batched cold {:>10.3} ms ({:.0} ns/sample)",
        sc_cold as f64 / 1e6,
        scalar_per_sample,
        b_cold as f64 / 1e6,
        batched_per_sample
    );
    println!("  batched/scalar speedup (cold, 1 core): {batch_speedup:.2}x");
    println!(
        "  AC-sweep kernel alone: scalar {sweep_scalar} ns/sweep   batched {sweep_batched} ns/sweep   ({kernel_sweep_speedup:.2}x)"
    );
    println!("  parallel/serial speedup (cold): {speedup:.2}x  (machine has {cores} core(s))");
    println!("  cache hit/miss speedup (serial): {hit_speedup:.2}x");
    println!("  instrumented pass: {stats}");

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"engine_throughput\",\n",
            "  \"circuit\": \"folded_cascode_035\",\n",
            "  \"cores\": {},\n",
            "  \"designs\": {},\n",
            "  \"samples_per_design\": {},\n",
            "  \"simulations_per_batch\": {},\n",
            "  \"reps\": {},\n",
            "  \"serial_cold_ns\": {},\n",
            "  \"parallel_cold_ns\": {},\n",
            "  \"serial_warm_ns\": {},\n",
            "  \"parallel_warm_ns\": {},\n",
            "  \"scalar_cold_ns\": {},\n",
            "  \"batched_cold_ns\": {},\n",
            "  \"scalar_per_sample_ns\": {:.1},\n",
            "  \"batched_per_sample_ns\": {:.1},\n",
            "  \"batch_speedup\": {:.4},\n",
            "  \"scalar_sweep_ns\": {},\n",
            "  \"batched_sweep_ns\": {},\n",
            "  \"kernel_sweep_speedup\": {:.4},\n",
            "  \"parallel_speedup\": {:.4},\n",
            "  \"cache_hit_speedup\": {:.4},\n",
            "  \"engine_stats\": {}\n",
            "}}\n"
        ),
        cores,
        designs_n,
        samples,
        total,
        reps,
        s_cold,
        p_cold,
        s_warm,
        p_warm,
        sc_cold,
        b_cold,
        scalar_per_sample,
        batched_per_sample,
        batch_speedup,
        sweep_scalar,
        sweep_batched,
        kernel_sweep_speedup,
        speedup,
        hit_speedup,
        stats.to_json(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runtime.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("  wrote {path}"),
        Err(e) => eprintln!("  could not write {path}: {e}"),
    }
}
