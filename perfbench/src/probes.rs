//! Kernel probes: timed calls into public functions of single layers, each
//! reported as the median over a few repetitions of a fixed-size loop.

use crate::measure::median;
use moheco::CircuitBench;
use moheco_analog::{FoldedCascode, TelescopicTwoStage, Testbench};
use moheco_sampling::{EstimatorKind, SamplingPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spicelite::mosfet::{model_035um, MosGeometry, MosType, Mosfet};
use spicelite::{log_space, FactorizedCircuit, LinearCircuit};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;

/// Median over `REPS` repetitions of the mean nanoseconds per call of
/// `iters` calls to `f`.
fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let per_rep: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per_rep)
}

/// The folded-cascode half circuit at the size the testbench stamps it:
/// four nodes plus the stimulus branch.
fn folded_cascode_half_circuit() -> (LinearCircuit, usize) {
    let mut ckt = LinearCircuit::new();
    let vin = ckt.node();
    let fold = ckt.node();
    let out = ckt.node();
    let casn = ckt.node();
    ckt.add_vsource(vin, 0, 1.0);
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
    (ckt, out)
}

fn sweep_ns() -> f64 {
    let (ckt, out) = folded_cascode_half_circuit();
    let freqs = log_space(1e3, 3e10, 50);
    let mut fac = FactorizedCircuit::new(&ckt);
    ns_per_call(400, || {
        let response = fac.sweep(&ckt, out, &freqs).expect("half circuit solves");
        black_box(response.dc_gain_db());
    })
}

fn vgs_for_current_ns() -> f64 {
    let geometry = MosGeometry::new(40e-6, 1e-6, 1.0).expect("valid geometry");
    let mosfet = Mosfet::new(model_035um(MosType::Nmos), geometry);
    ns_per_call(2000, || {
        let vgs = mosfet
            .vgs_for_current(black_box(60e-6), 1.0, 0.0)
            .expect("bias point exists");
        black_box(vgs);
    })
}

/// Nanoseconds per sample of a 50-sample `evaluate_block` and of 50
/// scalar `evaluate` calls at the circuit's reference design.
fn evaluate_ns<T: Testbench>(testbench: T) -> (f64, f64) {
    const BLOCK: usize = 50;
    let bench = CircuitBench::new(testbench);
    let x = bench.testbench().reference_design();
    let mut rng = StdRng::seed_from_u64(7);
    let points =
        SamplingPlan::LatinHypercube.generate(&mut rng, BLOCK, bench.sampler().dimension());
    let samples: Vec<_> = points
        .iter()
        .map(|u| bench.sampler().from_unit_point(u))
        .collect();
    let block = ns_per_call(20, || {
        black_box(bench.testbench().evaluate_block(&x, &samples));
    }) / BLOCK as f64;
    let scalar = ns_per_call(20, || {
        for xi in &samples {
            black_box(bench.testbench().evaluate(&x, xi));
        }
    }) / BLOCK as f64;
    (block, scalar)
}

fn spawn_join_us() -> f64 {
    let tasks = [0u8; 2];
    ns_per_call(500, || {
        moheco_runtime::pool::run_tasks(&tasks, 2, |t| {
            black_box(t);
        });
    }) / 1e3
}

fn generate_block_us(dimension: usize) -> f64 {
    let estimator = EstimatorKind::MonteCarlo.build(50);
    let mut rng = StdRng::seed_from_u64(11);
    ns_per_call(200, || {
        let block =
            estimator.generate_block(&mut rng, 50, dimension, SamplingPlan::LatinHypercube, None);
        black_box(block);
    }) / 1e3
}

/// Every probe, at the workload's unit dimension for the sampling probe.
pub fn run(unit_dimension: usize) -> Vec<(String, f64, &'static str)> {
    let (fc_block, fc_scalar) = evaluate_ns(FoldedCascode::new());
    let (tc_block, tc_scalar) = evaluate_ns(TelescopicTwoStage::new());
    vec![
        ("spicelite.sweep_ns".into(), sweep_ns(), "ns"),
        (
            "spicelite.vgs_for_current_ns".into(),
            vgs_for_current_ns(),
            "ns",
        ),
        (
            "analog.folded_cascode.evaluate_block_ns_per_sample".into(),
            fc_block,
            "ns",
        ),
        (
            "analog.folded_cascode.evaluate_ns_per_sample".into(),
            fc_scalar,
            "ns",
        ),
        (
            "analog.telescopic.evaluate_block_ns_per_sample".into(),
            tc_block,
            "ns",
        ),
        (
            "analog.telescopic.evaluate_ns_per_sample".into(),
            tc_scalar,
            "ns",
        ),
        ("runtime.pool.spawn_join_us".into(), spawn_join_us(), "us"),
        (
            "sampling.generate_block_us".into(),
            generate_block_us(unit_dimension),
            "us",
        ),
    ]
}
