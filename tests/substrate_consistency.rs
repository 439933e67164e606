//! Cross-crate consistency checks between the circuit substrate, the process
//! models and the benchmark testbenches.

use moheco_analog::{
    inter_die_shifts, perturbed_model_with_shifts, FoldedCascode, TelescopicTwoStage, Testbench,
};
use moheco_process::{tech_035um, tech_90nm, ProcessSample, ProcessSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spicelite::ac::{log_space, sweep};
use spicelite::mosfet::{model_035um, MosGeometry, MosType, Mosfet};
use spicelite::netlist::LinearCircuit;

#[test]
fn statistical_dimensions_match_the_paper() {
    // Example 1: 80 variables (60 intra + 20 inter); example 2: 123 (76 + 47).
    let fc = FoldedCascode::new();
    assert_eq!(fc.technology().num_inter_die(), 20);
    assert_eq!(4 * fc.num_devices(), 60);
    assert_eq!(fc.technology().num_variables(fc.num_devices()), 80);

    let ts = TelescopicTwoStage::new();
    assert_eq!(ts.technology().num_inter_die(), 47);
    assert_eq!(4 * ts.num_devices(), 76);
    assert_eq!(ts.technology().num_variables(ts.num_devices()), 123);
}

#[test]
fn sampler_dimension_matches_testbench_expectations() {
    let fc = FoldedCascode::new();
    let sampler = ProcessSampler::new(fc.technology().clone(), fc.num_devices());
    assert_eq!(sampler.dimension(), 80);
    let mut rng = StdRng::seed_from_u64(5);
    let xi = sampler.sample(&mut rng);
    // The testbench accepts the sample and produces finite performances.
    let perf = fc.evaluate(&fc.reference_design(), &xi);
    assert!(perf.a0_db.is_finite());
    assert!(perf.gbw_hz.is_finite());
    assert!(perf.power_w.is_finite());
}

#[test]
fn analytic_single_pole_amplifier_matches_mna() {
    // gm * R = 40 dB amplifier with a single pole: the MNA sweep must agree
    // with the hand-computed gain and bandwidth.
    let gm = 1e-3;
    let r = 100e3;
    let c = 1e-12;
    let mut ckt = LinearCircuit::new();
    let vin = ckt.node();
    let vout = ckt.node();
    ckt.add_vsource(vin, 0, 1.0);
    ckt.add_vccs(vout, 0, vin, 0, gm);
    ckt.add_resistor(vout, 0, r);
    ckt.add_capacitance(vout, 0, c);
    let resp = sweep(&ckt, vout, &log_space(1.0, 1e12, 300)).expect("sweep");
    assert!((resp.dc_gain_db() - 40.0).abs() < 0.1);
    let gbw = resp.unity_gain_freq().expect("crossing");
    let expected = gm / (2.0 * std::f64::consts::PI * c);
    assert!((gbw - expected).abs() / expected < 0.03);
}

#[test]
fn inter_die_mobility_shift_changes_gbw_in_the_right_direction() {
    let fc = FoldedCascode::new();
    let x = fc.reference_design();
    let tech = tech_035um();
    let mut slow = ProcessSample::nominal(tech.num_inter_die(), fc.num_devices());
    let mut fast = slow.clone();
    // Index 2 is DELUON (NMOS mobility, relative).
    slow.inter[2] = -0.10;
    fast.inter[2] = 0.10;
    let p_slow = fc.evaluate(&x, &slow);
    let p_fast = fc.evaluate(&x, &fast);
    // The input pair is NMOS: higher mobility -> higher gm -> higher GBW.
    assert!(
        p_fast.gbw_hz > p_slow.gbw_hz,
        "fast {} vs slow {}",
        p_fast.gbw_hz,
        p_slow.gbw_hz
    );
}

#[test]
fn perturbed_models_change_device_current_consistently() {
    let tech = tech_90nm();
    let mut sample = ProcessSample::nominal(tech.num_inter_die(), 19);
    // Index 1 is VTH0Rn: a +30 mV global NMOS threshold shift.
    sample.inter[1] = 0.03;
    let shifts = inter_die_shifts(&tech, &sample);
    assert!((shifts.0.d_vth0 - 0.03).abs() < 1e-12);
    let g = MosGeometry::new(10e-6, 0.2e-6, 1.0).expect("geometry");
    let nominal = Mosfet::new(model_035um(MosType::Nmos), g);
    let shifted = Mosfet::new(
        perturbed_model_with_shifts(model_035um(MosType::Nmos), &shifts, &tech, &sample, 0, g),
        g,
    );
    let id_nom = nominal.operating_point(0.8, 1.0, 0.0).id;
    let id_shift = shifted.operating_point(0.8, 1.0, 0.0).id;
    assert!(id_shift < id_nom, "higher vth must reduce the current");
}

#[test]
fn yields_of_both_examples_respond_to_design_changes() {
    // Moving the folded cascode's tail current towards the power limit must
    // not increase the yield; this ties the whole stack together.
    let fc = FoldedCascode::new();
    let sampler = ProcessSampler::new(fc.technology().clone(), fc.num_devices());
    let yield_of = |x: &[f64], seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 250;
        let mut pass = 0;
        for _ in 0..n {
            let xi = sampler.sample(&mut rng);
            if fc.specs().all_met(&fc.evaluate(x, &xi)) {
                pass += 1;
            }
        }
        pass as f64 / n as f64
    };
    let reference = fc.reference_design();
    let mut hot = reference.clone();
    hot[8] = 172.0; // right at the power boundary
    let y_ref = yield_of(&reference, 7);
    let y_hot = yield_of(&hot, 7);
    assert!(
        y_ref >= y_hot - 0.05,
        "reference yield {y_ref} should not be clearly worse than boundary design {y_hot}"
    );
}
