//! Mapping of statistical process samples onto device model cards.
//!
//! A [`moheco_process::ProcessSample`] contains inter-die parameter deviations
//! and per-device mismatch z-scores. This module translates them into
//! perturbed [`MosModel`] cards: inter-die effects shift every device of the
//! matching polarity; mismatch z-scores are scaled by the Pelgrom model of the
//! technology (using the actual device gate area) and added on top.

use moheco_process::{InterDieEffect, MismatchModel, ProcessSample, Technology};
use spicelite::mosfet::{MosGeometry, MosModel, MosType};

/// Accumulated inter-die deviations for one device polarity.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PolarityShift {
    /// Absolute oxide-thickness deviation (m).
    pub d_tox: f64,
    /// Absolute threshold-voltage deviation (V).
    pub d_vth0: f64,
    /// Absolute lateral-diffusion deviation (m).
    pub d_ld: f64,
    /// Absolute width-reduction deviation (m).
    pub d_wd: f64,
    /// Relative mobility deviation.
    pub u0_rel: f64,
    /// Relative junction-capacitance deviation.
    pub cj_rel: f64,
    /// Relative sidewall junction-capacitance deviation.
    pub cjsw_rel: f64,
    /// Relative diffusion-resistance deviation (used for bias-current spread).
    pub rdiff_rel: f64,
}

/// Extracts the per-polarity inter-die shifts from a process sample.
///
/// # Panics
///
/// Panics if the sample's inter-die vector does not match the technology.
pub fn inter_die_shifts(
    tech: &Technology,
    sample: &ProcessSample,
) -> (PolarityShift, PolarityShift) {
    assert_eq!(
        sample.inter.len(),
        tech.num_inter_die(),
        "sample does not match technology"
    );
    let mut n = PolarityShift::default();
    let mut p = PolarityShift::default();
    for (param, &dv) in tech.inter_die.iter().zip(&sample.inter) {
        match param.effect {
            InterDieEffect::ToxN => n.d_tox += dv,
            InterDieEffect::ToxP => p.d_tox += dv,
            InterDieEffect::Vth0N => n.d_vth0 += dv,
            InterDieEffect::Vth0P => p.d_vth0 += dv,
            InterDieEffect::MobilityN => n.u0_rel += dv,
            InterDieEffect::MobilityP => p.u0_rel += dv,
            InterDieEffect::LdN => n.d_ld += dv,
            InterDieEffect::LdP => p.d_ld += dv,
            InterDieEffect::WdN => n.d_wd += dv,
            InterDieEffect::WdP => p.d_wd += dv,
            InterDieEffect::DeltaL => {
                n.d_ld += 0.5 * dv;
                p.d_ld += 0.5 * dv;
            }
            InterDieEffect::DeltaW => {
                n.d_wd += 0.5 * dv;
                p.d_wd += 0.5 * dv;
            }
            InterDieEffect::CjN => n.cj_rel += dv,
            InterDieEffect::CjP => p.cj_rel += dv,
            InterDieEffect::CjswN => n.cjsw_rel += dv,
            InterDieEffect::CjswP => p.cjsw_rel += dv,
            // Doping variations shift the threshold by a fraction of the
            // relative doping change (first-order sensitivity ~ 0.1 V).
            InterDieEffect::DopingN => n.d_vth0 += 0.1 * dv,
            InterDieEffect::DopingP => p.d_vth0 += 0.1 * dv,
            InterDieEffect::RdiffN => n.rdiff_rel += dv,
            InterDieEffect::RdiffP => p.rdiff_rel += dv,
        }
    }
    (n, p)
}

/// Per-device mismatch deltas in physical units.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MismatchDeltas {
    /// Absolute oxide-thickness mismatch (m).
    pub d_tox: f64,
    /// Absolute threshold-voltage mismatch (V).
    pub d_vth0: f64,
    /// Absolute lateral-diffusion mismatch (m).
    pub d_ld: f64,
    /// Absolute width-reduction mismatch (m).
    pub d_wd: f64,
}

/// Converts the mismatch z-scores of device `index` into physical deltas
/// using the Pelgrom coefficients and the device gate area.
///
/// Returns all-zero deltas when the sample has no entry for the device
/// (e.g. the nominal sample of a smaller circuit).
pub fn mismatch_deltas(
    mismatch: &MismatchModel,
    sample: &ProcessSample,
    index: usize,
    geometry: MosGeometry,
    nominal_tox: f64,
) -> MismatchDeltas {
    let Some(z) = sample.intra.get(index) else {
        return MismatchDeltas::default();
    };
    let area_um2 = geometry.gate_area() * 1e12;
    MismatchDeltas {
        d_tox: z[0] * mismatch.sigma_tox_rel(area_um2) * nominal_tox,
        d_vth0: z[1] * mismatch.sigma_vth(area_um2),
        d_ld: z[2] * mismatch.sigma_ld(area_um2),
        d_wd: z[3] * mismatch.sigma_wd(area_um2),
    }
}

/// Builds the perturbed model card of device `index` with polarity `base`
/// from the inter-die shifts computed by [`inter_die_shifts`]. The shifts
/// depend only on `(tech, sample)`, so a testbench evaluating many devices
/// against one sample computes them once, outside its per-device loop.
pub fn perturbed_model_with_shifts(
    base: MosModel,
    shifts: &(PolarityShift, PolarityShift),
    tech: &Technology,
    sample: &ProcessSample,
    index: usize,
    geometry: MosGeometry,
) -> MosModel {
    let shift = match base.mos_type {
        MosType::Nmos => shifts.0,
        MosType::Pmos => shifts.1,
    };
    let mm = mismatch_deltas(&tech.mismatch, sample, index, geometry, base.tox);
    base.perturbed(
        shift.d_tox + mm.d_tox,
        shift.d_vth0 + mm.d_vth0,
        shift.d_ld + mm.d_ld,
        shift.d_wd + mm.d_wd,
        shift.u0_rel,
        shift.cj_rel,
        shift.cjsw_rel,
    )
}

/// Multiplicative spread of a resistor-defined bias current caused by the
/// diffusion-resistance inter-die parameters (both polarities contribute),
/// from the inter-die shifts computed by [`inter_die_shifts`].
pub fn bias_current_factor_from_shifts(shifts: &(PolarityShift, PolarityShift)) -> f64 {
    // A resistor-defined reference current varies inversely with the sheet
    // resistance; average the two polarities' diffusion-resistance spread.
    let rel = 0.5 * (shifts.0.rdiff_rel + shifts.1.rdiff_rel);
    (1.0 / (1.0 + rel)).clamp(0.5, 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use moheco_process::{tech_035um, ProcessSample, ProcessSampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spicelite::mosfet::{model_035um, MosGeometry, MosType};

    #[test]
    fn nominal_sample_produces_no_shift() {
        let tech = tech_035um();
        let sample = ProcessSample::nominal(tech.num_inter_die(), 15);
        let (n, p) = inter_die_shifts(&tech, &sample);
        assert_eq!(n, PolarityShift::default());
        assert_eq!(p, PolarityShift::default());
        assert!((bias_current_factor_from_shifts(&(n, p)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nominal_sample_leaves_model_unchanged() {
        let tech = tech_035um();
        let sample = ProcessSample::nominal(tech.num_inter_die(), 15);
        let base = model_035um(MosType::Nmos);
        let g = MosGeometry::new(20e-6, 1e-6, 1.0).unwrap();
        let shifts = inter_die_shifts(&tech, &sample);
        let m = perturbed_model_with_shifts(base, &shifts, &tech, &sample, 0, g);
        assert!((m.vth0 - base.vth0).abs() < 1e-12);
        assert!((m.tox - base.tox).abs() < 1e-15);
        assert!((m.u0 - base.u0).abs() < 1e-12);
    }

    #[test]
    fn vth_inter_die_shift_reaches_the_right_polarity() {
        let tech = tech_035um();
        let mut sample = ProcessSample::nominal(tech.num_inter_die(), 15);
        // Index 1 is VTH0Rn in the 0.35um list.
        sample.inter[1] = 0.05;
        let shifts = inter_die_shifts(&tech, &sample);
        assert!((shifts.0.d_vth0 - 0.05).abs() < 1e-12);
        assert_eq!(shifts.1.d_vth0, 0.0);
        let g = MosGeometry::new(20e-6, 1e-6, 1.0).unwrap();
        let model =
            |ty| perturbed_model_with_shifts(model_035um(ty), &shifts, &tech, &sample, 0, g);
        let (nmod, pmod) = (model(MosType::Nmos), model(MosType::Pmos));
        assert!(nmod.vth0 > model_035um(MosType::Nmos).vth0 + 0.04);
        assert!((pmod.vth0 - model_035um(MosType::Pmos).vth0).abs() < 1e-9);
    }

    #[test]
    fn mismatch_scales_with_device_area() {
        let tech = tech_035um();
        let mut sample = ProcessSample::nominal(tech.num_inter_die(), 2);
        sample.intra[0] = [0.0, 2.0, 0.0, 0.0]; // +2 sigma vth mismatch
        sample.intra[1] = [0.0, 2.0, 0.0, 0.0];
        let small = MosGeometry::new(2e-6, 0.5e-6, 1.0).unwrap(); // 1 um^2
        let large = MosGeometry::new(20e-6, 5e-6, 1.0).unwrap(); // 100 um^2
        let d_small = mismatch_deltas(&tech.mismatch, &sample, 0, small, 7.6e-9);
        let d_large = mismatch_deltas(&tech.mismatch, &sample, 1, large, 7.6e-9);
        assert!(d_small.d_vth0 > 5.0 * d_large.d_vth0);
    }

    #[test]
    fn missing_device_index_gives_zero_mismatch() {
        let tech = tech_035um();
        let sample = ProcessSample::nominal(tech.num_inter_die(), 1);
        let g = MosGeometry::new(2e-6, 0.5e-6, 1.0).unwrap();
        let d = mismatch_deltas(&tech.mismatch, &sample, 5, g, 7.6e-9);
        assert_eq!(d, MismatchDeltas::default());
    }

    #[test]
    fn random_samples_produce_moderate_spread() {
        let tech = tech_035um();
        let sampler = ProcessSampler::new(tech.clone(), 15);
        let mut rng = StdRng::seed_from_u64(77);
        let g = MosGeometry::new(50e-6, 1e-6, 1.0).unwrap();
        let base = model_035um(MosType::Nmos);
        let mut max_rel_vth: f64 = 0.0;
        for _ in 0..200 {
            let s = sampler.sample(&mut rng);
            let m =
                perturbed_model_with_shifts(base, &inter_die_shifts(&tech, &s), &tech, &s, 0, g);
            max_rel_vth = max_rel_vth.max(((m.vth0 - base.vth0) / base.vth0).abs());
        }
        // Shifts should be noticeable but nowhere near 100%.
        assert!(max_rel_vth > 0.01, "max relative vth shift {max_rel_vth}");
        assert!(max_rel_vth < 0.5, "max relative vth shift {max_rel_vth}");
    }

    #[test]
    fn bias_factor_responds_to_rdiff() {
        let tech = tech_035um();
        let mut sample = ProcessSample::nominal(tech.num_inter_die(), 15);
        // Index 5 is DELRDIFFN; +10% sheet resistance lowers the current.
        sample.inter[5] = 0.10;
        let f = bias_current_factor_from_shifts(&inter_die_shifts(&tech, &sample));
        assert!(f < 1.0 && f > 0.9);
    }
}
