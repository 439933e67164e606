//! Example 1: fully differential folded-cascode amplifier in 0.35 µm CMOS.
//!
//! This is the first benchmark circuit of the MOHECO paper (Fig. 5): a
//! fully differential folded-cascode OTA in a 0.35 µm, 3.3 V process with 15
//! transistors, specified as `A0 ≥ 70 dB`, `GBW ≥ 40 MHz`, `PM ≥ 60°`,
//! `output swing ≥ 4.6 V`, `power ≤ 1.07 mW`, and all transistors saturated.
//!
//! The evaluation flow is:
//! 1. derive the branch currents from the programmed tail current (with a
//!    resistor-defined bias spread and current-mirror mismatch),
//! 2. solve each transistor's gate bias for its branch current using the
//!    square-law compact model (with the process sample applied to the model
//!    card), yielding gm / gds / capacitances,
//! 3. assemble the differential half-circuit small-signal netlist and run an
//!    MNA AC sweep to extract `A0`, `GBW` and `PM`,
//! 4. compute output swing, power, area and input offset analytically from
//!    the operating points.

use crate::batch_eval::{
    evaluate_block_batched, evaluate_scalar, outcome_block_batched, BiasSolve, PreparedSample,
    SampleCircuit,
};
use crate::specs::{AmplifierPerformance, SpecKind, SpecSet, SpecTarget, Specification};
use crate::testbench::{DesignVariable, Testbench};
use crate::variation_map::{
    bias_current_factor_from_shifts, inter_die_shifts, mismatch_deltas, perturbed_model_with_shifts,
};
use moheco_process::{tech_035um, ProcessSample, Technology};
use spicelite::mosfet::{model_035um, BiasRequest, MosGeometry, MosType, Mosfet};
use spicelite::netlist::ElementSink;

/// Index of each transistor in the mismatch vector (15 devices).
mod dev {
    pub const M1_IN_P: usize = 0;
    pub const M2_IN_N: usize = 1;
    pub const M3_TAIL: usize = 2;
    pub const M4_PSRC_P: usize = 3;
    pub const M5_PSRC_N: usize = 4;
    pub const M6_PCAS_P: usize = 5;
    #[allow(dead_code)]
    pub const M7_PCAS_N: usize = 6;
    pub const M8_NCAS_P: usize = 7;
    #[allow(dead_code)]
    pub const M9_NCAS_N: usize = 8;
    pub const M10_NMIR_P: usize = 9;
    pub const M11_NMIR_N: usize = 10;
    pub const M12_BIAS0: usize = 11;
    pub const COUNT: usize = 15;
}

/// The folded-cascode benchmark (example 1 of the paper).
#[derive(Debug, Clone)]
pub struct FoldedCascode {
    name: String,
    tech: Technology,
    specs: SpecSet,
    variables: Vec<DesignVariable>,
    /// Differential load capacitance per output (F).
    pub load_capacitance: f64,
}

impl Default for FoldedCascode {
    fn default() -> Self {
        Self::new()
    }
}

impl FoldedCascode {
    /// Creates the benchmark with the paper's specification values.
    pub fn new() -> Self {
        let specs = SpecSet::new(vec![
            Specification::new("A0", SpecTarget::GainDb, SpecKind::AtLeast, 70.0, 5.0),
            Specification::new("GBW", SpecTarget::GbwHz, SpecKind::AtLeast, 40e6, 10e6),
            Specification::new(
                "PM",
                SpecTarget::PhaseMarginDeg,
                SpecKind::AtLeast,
                60.0,
                5.0,
            ),
            Specification::new("OS", SpecTarget::OutputSwingV, SpecKind::AtLeast, 4.6, 0.3),
            Specification::new(
                "power",
                SpecTarget::PowerW,
                SpecKind::AtMost,
                1.07e-3,
                0.1e-3,
            ),
        ]);
        let variables = vec![
            DesignVariable::new("w_in", 50.0, 600.0, "um"),
            DesignVariable::new("l_in", 0.35, 2.0, "um"),
            DesignVariable::new("w_psrc", 50.0, 800.0, "um"),
            DesignVariable::new("l_p", 0.5, 2.0, "um"),
            DesignVariable::new("w_pcas", 50.0, 800.0, "um"),
            DesignVariable::new("w_ncas", 20.0, 400.0, "um"),
            DesignVariable::new("w_nmir", 20.0, 400.0, "um"),
            DesignVariable::new("l_n", 0.5, 2.0, "um"),
            DesignVariable::new("i_tail", 50.0, 500.0, "uA"),
            DesignVariable::new("l_cas", 0.35, 1.5, "um"),
        ];
        Self {
            name: "folded_cascode_035".into(),
            tech: tech_035um(),
            specs,
            variables,
            load_capacitance: 2e-12,
        }
    }

    /// Creates the benchmark at a process corner whose statistical spreads
    /// (inter-die sigmas and mismatch coefficients) are the nominal ones
    /// multiplied by `severity`: `> 1` models a harsher corner with lower
    /// yields, `< 1` a milder one. `severity = 1` is exactly [`Self::new`].
    ///
    /// The testbench name gains a `@x<severity>` suffix so scenario results
    /// from different corners can never be confused. Note that the engine
    /// simulation cache is keyed by the design point alone, not by the
    /// benchmark name — different corners of the same circuit must each get
    /// their own engine (as `Scenario::build` and `RunSpec::execute` do),
    /// never share one.
    pub fn with_corner(severity: f64) -> Self {
        let mut tb = Self::new();
        if severity != 1.0 {
            tb.tech = tb.tech.with_sigma_scale(severity);
            tb.name = format!("folded_cascode_035@x{severity:.2}");
        }
        tb
    }
}

/// Fraction of the half tail current that flows through each folded branch.
const FOLD_RATIO: f64 = 0.75;
/// Bias-network current as a fraction of the tail current.
const BIAS_NETWORK_RATIO: f64 = 0.15;
/// Saturation headroom margin on each output stack (V).
const SWING_MARGIN: f64 = 0.1;

impl Testbench for FoldedCascode {
    fn name(&self) -> &str {
        &self.name
    }

    fn technology(&self) -> &Technology {
        &self.tech
    }

    fn num_devices(&self) -> usize {
        dev::COUNT
    }

    fn design_variables(&self) -> &[DesignVariable] {
        &self.variables
    }

    fn specs(&self) -> &SpecSet {
        &self.specs
    }

    fn reference_design(&self) -> Vec<f64> {
        // w_in, l_in, w_psrc, l_p, w_pcas, w_ncas, w_nmir, l_n, i_tail, l_cas
        vec![120.0, 1.0, 300.0, 1.0, 120.0, 100.0, 120.0, 1.0, 160.0, 0.7]
    }

    fn evaluate(&self, x: &[f64], xi: &ProcessSample) -> AmplifierPerformance {
        evaluate_scalar(self, x, xi)
    }

    fn evaluate_block(&self, x: &[f64], xis: &[ProcessSample]) -> Vec<AmplifierPerformance> {
        evaluate_block_batched(self, x, xis)
    }

    fn outcome_block(&self, x: &[f64], xis: &[ProcessSample], out: &mut [f64]) {
        outcome_block_batched(self, x, xis, out)
    }
}

impl SampleCircuit for FoldedCascode {
    fn prepare<S: ElementSink>(
        &self,
        x: &[f64],
        xi: &ProcessSample,
        bias: BiasSolve,
        ckt: &mut S,
    ) -> Option<PreparedSample> {
        assert_eq!(x.len(), self.dimension(), "wrong design-vector length");
        let um = 1e-6;
        let ua = 1e-6;
        let vdd = self.tech.vdd;

        let (w_in, l_in) = (x[0] * um, x[1] * um);
        let (w_psrc, l_p) = (x[2] * um, x[3] * um);
        let w_pcas = x[4] * um;
        let w_ncas = x[5] * um;
        let (w_nmir, l_n) = (x[6] * um, x[7] * um);
        let i_tail_prog = x[8] * ua;
        let l_cas = x[9] * um;

        // Geometries (the bias network uses fixed moderate devices).
        let geom = |w: f64, l: f64| MosGeometry::new(w, l, 1.0);
        let g_in = geom(w_in, l_in).ok()?;
        let g_tail = geom((2.0 * w_nmir).max(1e-6), l_n).ok()?;
        let g_psrc = geom(w_psrc, l_p).ok()?;
        let g_pcas = geom(w_pcas, l_cas).ok()?;
        let g_ncas = geom(w_ncas, l_cas).ok()?;
        let g_nmir = geom(w_nmir, l_n).ok()?;
        let g_bias = MosGeometry::new(10e-6, 1e-6, 1.0).expect("fixed bias geometry");

        // Branch currents. The programmed tail current spreads with the
        // resistor-defined bias reference; the folded-branch current picks up
        // a small mirror error from the bottom-mirror threshold mismatch.
        // The inter-die shifts depend only on the sample, so they are
        // accumulated once here instead of once per device model.
        let shifts = inter_die_shifts(&self.tech, xi);
        let bias_factor = bias_current_factor_from_shifts(&shifts);
        let i_tail = i_tail_prog * bias_factor;
        let id_in = 0.5 * i_tail;
        let mm_mir_p = mismatch_deltas(&self.tech.mismatch, xi, dev::M10_NMIR_P, g_nmir, 7.6e-9);
        let mm_mir_n = mismatch_deltas(&self.tech.mismatch, xi, dev::M11_NMIR_N, g_nmir, 7.6e-9);
        let mirror_err = -5.0 * 0.5 * (mm_mir_p.d_vth0 + mm_mir_n.d_vth0);
        let i_fold = (FOLD_RATIO * id_in * (1.0 + mirror_err)).max(1e-9);
        let i_psrc = id_in + i_fold;
        let i_bias_net = BIAS_NETWORK_RATIO * i_tail;

        // Per-device perturbed models.
        let nmodel = |idx: usize, g: MosGeometry| {
            perturbed_model_with_shifts(model_035um(MosType::Nmos), &shifts, &self.tech, xi, idx, g)
        };
        let pmodel = |idx: usize, g: MosGeometry| {
            perturbed_model_with_shifts(model_035um(MosType::Pmos), &shifts, &self.tech, xi, idx, g)
        };

        let m_in = Mosfet::new(nmodel(dev::M1_IN_P, g_in), g_in);
        let m_tail = Mosfet::new(nmodel(dev::M3_TAIL, g_tail), g_tail);
        let m_psrc = Mosfet::new(pmodel(dev::M4_PSRC_P, g_psrc), g_psrc);
        let m_pcas = Mosfet::new(pmodel(dev::M6_PCAS_P, g_pcas), g_pcas);
        let m_ncas = Mosfet::new(nmodel(dev::M8_NCAS_P, g_ncas), g_ncas);
        let m_nmir = Mosfet::new(nmodel(dev::M10_NMIR_P, g_nmir), g_nmir);

        // Solve gate biases for the branch currents at representative Vds.
        let req = |device: Mosfet, id_target: f64, vds: f64| BiasRequest {
            device,
            id_target,
            vds,
            vsb: 0.0,
        };
        let [op_in, op_tail, op_psrc, op_pcas, op_ncas, op_nmir] = bias.operating_points(&[
            req(m_in, id_in, 1.0),
            req(m_tail, i_tail, 0.4),
            req(m_psrc, i_psrc, 0.5),
            req(m_pcas, i_fold, vdd / 2.0),
            req(m_ncas, i_fold, 0.7),
            req(m_nmir, i_fold, 0.5),
        ])?;

        // Saturation / headroom checks.
        let overdrives = [
            op_in.vov,
            op_tail.vov,
            op_psrc.vov,
            op_pcas.vov,
            op_ncas.vov,
            op_nmir.vov,
        ];
        let vov_ok = overdrives.iter().all(|&v| (0.04..=0.7).contains(&v));
        let stack_drop = op_psrc.vov + op_pcas.vov + op_ncas.vov + op_nmir.vov + 2.0 * SWING_MARGIN;
        let swing = 2.0 * (vdd - stack_drop).max(0.0);
        let input_headroom = op_in.vgs_headroom(vdd, op_tail.vov);
        let all_saturated = vov_ok && swing > 0.2 && input_headroom;

        // Small-signal half circuit.
        let vin = ckt.node();
        let fold = ckt.node();
        let out = ckt.node();
        let casn = ckt.node();
        ckt.add_vsource(vin, 0, 1.0);
        // Input device: drain at the folding node, source at (AC ground) tail.
        ckt.add_mos_small_signal(
            fold, vin, 0, 0, op_in.gm, op_in.gds, 0.0, op_in.cgs, op_in.cgd, op_in.cdb, op_in.csb,
        );
        // Top PMOS current source: drain at the folding node.
        ckt.add_conductance(fold, 0, op_psrc.gds);
        ckt.add_capacitance(fold, 0, op_psrc.cdb + op_psrc.cgd);
        // PMOS cascode: common-gate from the folding node to the output.
        ckt.add_mos_small_signal(
            out,
            0,
            fold,
            0,
            op_pcas.gm,
            op_pcas.gds,
            op_pcas.gmb,
            op_pcas.cgs,
            op_pcas.cgd,
            op_pcas.cdb,
            op_pcas.csb,
        );
        // NMOS cascode: common-gate from the mirror node to the output.
        ckt.add_mos_small_signal(
            out,
            0,
            casn,
            0,
            op_ncas.gm,
            op_ncas.gds,
            op_ncas.gmb,
            op_ncas.cgs,
            op_ncas.cgd,
            op_ncas.cdb,
            op_ncas.csb,
        );
        // Bottom NMOS mirror: drain at the mirror node.
        ckt.add_conductance(casn, 0, op_nmir.gds);
        ckt.add_capacitance(casn, 0, op_nmir.cdb + op_nmir.cgd);
        // Load capacitance at the output.
        ckt.add_capacitance(out, 0, self.load_capacitance);

        // Power, area, offset.
        let power_w = vdd * (2.0 * i_psrc + i_bias_net);
        let area_um2 = (2.0 * g_in.gate_area()
            + g_tail.gate_area()
            + 2.0 * g_psrc.gate_area()
            + 2.0 * g_pcas.gate_area()
            + 2.0 * g_ncas.gate_area()
            + 2.0 * g_nmir.gate_area()
            + 4.0 * g_bias.gate_area())
            * 1e12;

        let mm = |idx: usize, g: MosGeometry| {
            mismatch_deltas(&self.tech.mismatch, xi, idx, g, 7.6e-9).d_vth0
        };
        let d_in = mm(dev::M1_IN_P, g_in) - mm(dev::M2_IN_N, g_in);
        let d_psrc = mm(dev::M4_PSRC_P, g_psrc) - mm(dev::M5_PSRC_N, g_psrc);
        let d_nmir = mm(dev::M10_NMIR_P, g_nmir) - mm(dev::M11_NMIR_N, g_nmir);
        let _ = mm(dev::M12_BIAS0, g_bias);
        let offset_v =
            (d_in + d_psrc * op_psrc.gm / op_in.gm + d_nmir * op_nmir.gm / op_in.gm).abs();

        Some(PreparedSample {
            out,
            output_swing_v: swing,
            power_w,
            area_um2,
            offset_v,
            all_saturated,
        })
    }
}

/// Helper extension: checks the input device's gate bias leaves headroom for
/// the tail current source.
trait HeadroomCheck {
    fn vgs_headroom(&self, vdd: f64, tail_vov: f64) -> bool;
}

impl HeadroomCheck for spicelite::mosfet::MosOperatingPoint {
    fn vgs_headroom(&self, vdd: f64, tail_vov: f64) -> bool {
        // Gate at mid-supply: source sits at vdd/2 - vgs; the tail needs at
        // least its overdrive plus a small margin below that.
        let source_voltage = vdd / 2.0 - (self.vth + self.vov);
        source_voltage > tail_vov + 0.05
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moheco_process::ProcessSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dimensions_match_paper() {
        let tb = FoldedCascode::new();
        assert_eq!(tb.num_devices(), 15);
        assert_eq!(tb.technology().num_variables(tb.num_devices()), 80);
        assert_eq!(tb.dimension(), 10);
        assert_eq!(tb.specs().len(), 5);
    }

    #[test]
    fn corner_builder_scales_spreads_and_renames() {
        let nominal = FoldedCascode::new();
        let harsh = FoldedCascode::with_corner(1.5);
        assert_eq!(FoldedCascode::with_corner(1.0).name(), nominal.name());
        assert_ne!(harsh.name(), nominal.name());
        for (n, h) in nominal
            .technology()
            .inter_die
            .iter()
            .zip(&harsh.technology().inter_die)
        {
            assert!((h.sigma - 1.5 * n.sigma).abs() <= 1e-12 * n.sigma.max(1.0));
        }
        // Nominal behaviour is untouched: same specs, same nominal margins.
        let x = nominal.reference_design();
        assert_eq!(nominal.nominal_margins(&x), harsh.nominal_margins(&x));
    }

    #[test]
    fn reference_design_meets_all_specs_nominally() {
        let tb = FoldedCascode::new();
        let x = tb.reference_design();
        let perf = tb.evaluate_nominal(&x);
        let margins = tb.specs().margins(&perf);
        assert!(
            tb.specs().all_met(&perf),
            "reference design must be feasible: {perf:?}, margins {margins:?}"
        );
        // Sanity on the magnitudes.
        assert!(perf.a0_db > 70.0 && perf.a0_db < 110.0, "A0 {}", perf.a0_db);
        assert!(
            perf.gbw_hz > 40e6 && perf.gbw_hz < 1e9,
            "GBW {}",
            perf.gbw_hz
        );
        assert!(
            perf.pm_deg > 60.0 && perf.pm_deg < 95.0,
            "PM {}",
            perf.pm_deg
        );
        assert!(perf.power_w < 1.07e-3, "power {}", perf.power_w);
        assert!(perf.output_swing_v >= 4.6, "swing {}", perf.output_swing_v);
        assert!(perf.all_saturated);
    }

    #[test]
    fn more_tail_current_means_more_power_and_gbw() {
        let tb = FoldedCascode::new();
        let mut lo = tb.reference_design();
        let mut hi = tb.reference_design();
        lo[8] = 100.0;
        hi[8] = 300.0;
        let p_lo = tb.evaluate_nominal(&lo);
        let p_hi = tb.evaluate_nominal(&hi);
        assert!(p_hi.power_w > p_lo.power_w);
        assert!(p_hi.gbw_hz > p_lo.gbw_hz);
    }

    #[test]
    fn excessive_current_violates_the_power_spec() {
        let tb = FoldedCascode::new();
        let mut x = tb.reference_design();
        x[8] = 450.0;
        let perf = tb.evaluate_nominal(&x);
        assert!(perf.power_w > 1.07e-3);
        assert!(!tb.specs().all_met(&perf));
    }

    #[test]
    fn longer_channels_increase_gain() {
        let tb = FoldedCascode::new();
        let mut short = tb.reference_design();
        let mut long = tb.reference_design();
        short[9] = 0.5;
        long[9] = 1.2;
        let p_short = tb.evaluate_nominal(&short);
        let p_long = tb.evaluate_nominal(&long);
        assert!(p_long.a0_db > p_short.a0_db);
    }

    #[test]
    fn process_variation_spreads_the_performances() {
        let tb = FoldedCascode::new();
        let x = tb.reference_design();
        let sampler = ProcessSampler::new(tb.technology().clone(), tb.num_devices());
        let mut rng = StdRng::seed_from_u64(42);
        let mut powers = Vec::new();
        let mut gains = Vec::new();
        let mut offsets = Vec::new();
        for _ in 0..120 {
            let xi = sampler.sample(&mut rng);
            let p = tb.evaluate(&x, &xi);
            powers.push(p.power_w);
            gains.push(p.a0_db);
            offsets.push(p.offset_v);
        }
        let spread = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64).sqrt() / m.abs()
        };
        assert!(
            spread(&powers) > 0.002,
            "power must vary: {}",
            spread(&powers)
        );
        assert!(spread(&powers) < 0.2);
        assert!(
            spread(&gains) > 0.0005,
            "gain must vary: {}",
            spread(&gains)
        );
        // Offsets are mismatch-driven and therefore non-zero in general.
        assert!(offsets.iter().any(|&o| o > 1e-5));
    }

    #[test]
    fn reference_design_yield_is_high_but_not_trivially_zero() {
        let tb = FoldedCascode::new();
        let x = tb.reference_design();
        let sampler = ProcessSampler::new(tb.technology().clone(), tb.num_devices());
        let mut rng = StdRng::seed_from_u64(7);
        let n = 300;
        let mut passes = 0;
        for _ in 0..n {
            let xi = sampler.sample(&mut rng);
            if tb.specs().all_met(&tb.evaluate(&x, &xi)) {
                passes += 1;
            }
        }
        let y = passes as f64 / n as f64;
        assert!(y > 0.5, "reference yield too low: {y}");
    }

    #[test]
    fn nominal_margins_reflect_feasibility() {
        let tb = FoldedCascode::new();
        let good = tb.nominal_margins(&tb.reference_design());
        assert!(good.iter().all(|&m| m >= 0.0), "margins {good:?}");
        let mut bad_x = tb.reference_design();
        bad_x[8] = 60.0; // starves the amplifier
        let bad = tb.nominal_margins(&bad_x);
        assert!(bad.iter().any(|&m| m < 0.0), "margins {bad:?}");
    }

    #[test]
    #[should_panic]
    fn wrong_design_vector_length_panics() {
        let tb = FoldedCascode::new();
        let xi = ProcessSample::nominal(20, 15);
        let _ = tb.evaluate(&[1.0, 2.0], &xi);
    }
}
