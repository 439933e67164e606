//! Technology descriptions: the statistical process models of the two CMOS
//! nodes used in the MOHECO paper.
//!
//! The paper's example 1 uses a 0.35 µm process with **20 inter-die** and
//! **4 intra-die variables per transistor** (15 transistors → 80 variables in
//! total). Example 2 uses a 90 nm process with **47 inter-die** variables
//! (19 transistors → 76 intra-die → 123 total). The foundry statistical data
//! is proprietary, so the numbers here are synthetic but realistically
//! structured: Gaussian inter-die corners with a few-percent spread plus
//! Pelgrom-scaled mismatch.

use crate::parameters::{InterDieEffect, InterDieParameter, MismatchModel, MISMATCH_COMPONENTS};

/// A CMOS technology node with its statistical process description.
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    /// Human-readable name (e.g. `"cmos035"`).
    pub name: String,
    /// Nominal supply voltage (V).
    pub vdd: f64,
    /// Minimum drawn channel length (m).
    pub l_min: f64,
    /// Inter-die statistical parameters.
    pub inter_die: Vec<InterDieParameter>,
    /// Intra-die (mismatch) model.
    pub mismatch: MismatchModel,
}

impl Technology {
    /// Number of inter-die statistical variables.
    pub fn num_inter_die(&self) -> usize {
        self.inter_die.len()
    }

    /// Returns a copy of the technology with every statistical standard
    /// deviation — inter-die sigmas and Pelgrom mismatch coefficients —
    /// multiplied by `scale`, and `(xN.NN)` appended to the name.
    ///
    /// This models a harsher (`scale > 1`) or milder (`scale < 1`) process
    /// corner than the nominal characterisation; the corner-parameterized
    /// benchmark builders in `moheco-analog` use it to turn each circuit into
    /// a family of scenarios of graded difficulty.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not strictly positive and finite.
    pub fn with_sigma_scale(mut self, scale: f64) -> Self {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "sigma scale must be positive and finite"
        );
        for p in &mut self.inter_die {
            p.sigma *= scale;
        }
        self.mismatch.a_vth *= scale;
        self.mismatch.a_tox_rel *= scale;
        self.mismatch.a_ld *= scale;
        self.mismatch.a_wd *= scale;
        self.name = format!("{}(x{:.2})", self.name, scale);
        self
    }

    /// Total number of statistical variables for a circuit with
    /// `num_devices` transistors ([`MISMATCH_COMPONENTS`] mismatch variables
    /// per device).
    pub fn num_variables(&self, num_devices: usize) -> usize {
        self.num_inter_die() + MISMATCH_COMPONENTS * num_devices
    }
}

/// The 0.35 µm CMOS technology of example 1 (3.3 V supply).
///
/// The 20 inter-die parameter names follow the list given in the paper:
/// `TOXRn, VTH0Rn, DELUON, DELL, DELW, DELRDIFFN, VTH0Rp, DELUOP, DELRDIFFP,
/// CJSWRn, CJSWRp, CJRn, CJRp, NPEAKn, NPEAKp, TOXRp, LDn, WDn, LDp, WDp`.
pub fn tech_035um() -> Technology {
    use InterDieEffect as E;
    let inter_die = vec![
        InterDieParameter::new("TOXRn", 0.15e-9, E::ToxN),
        InterDieParameter::new("VTH0Rn", 0.035, E::Vth0N),
        InterDieParameter::new("DELUON", 0.06, E::MobilityN),
        InterDieParameter::new("DELL", 0.015e-6, E::DeltaL),
        InterDieParameter::new("DELW", 0.015e-6, E::DeltaW),
        InterDieParameter::new("DELRDIFFN", 0.09, E::RdiffN),
        InterDieParameter::new("VTH0Rp", 0.038, E::Vth0P),
        InterDieParameter::new("DELUOP", 0.06, E::MobilityP),
        InterDieParameter::new("DELRDIFFP", 0.09, E::RdiffP),
        InterDieParameter::new("CJSWRn", 0.04, E::CjswN),
        InterDieParameter::new("CJSWRp", 0.04, E::CjswP),
        InterDieParameter::new("CJRn", 0.04, E::CjN),
        InterDieParameter::new("CJRp", 0.04, E::CjP),
        InterDieParameter::new("NPEAKn", 0.03, E::DopingN),
        InterDieParameter::new("NPEAKp", 0.03, E::DopingP),
        InterDieParameter::new("TOXRp", 0.15e-9, E::ToxP),
        InterDieParameter::new("LDn", 0.005e-6, E::LdN),
        InterDieParameter::new("WDn", 0.005e-6, E::WdN),
        InterDieParameter::new("LDp", 0.005e-6, E::LdP),
        InterDieParameter::new("WDp", 0.005e-6, E::WdP),
    ];
    Technology {
        name: "cmos035".into(),
        vdd: 3.3,
        l_min: 0.35e-6,
        inter_die,
        mismatch: MismatchModel {
            a_vth: 12.0e-3, // 12 mV*um (pessimistic corner of a 0.35um process)
            a_tox_rel: 1.0e-3,
            a_ld: 2.0e-9,
            a_wd: 2.0e-9,
        },
    }
}

/// The 90 nm CMOS technology of example 2 (1.2 V supply).
///
/// The paper states 47 inter-die variables for this technology; the foundry
/// list is not published, so the set below contains the 20 base parameters of
/// the 0.35 µm list (rescaled to 90 nm magnitudes) plus additional per-device
/// corner parameters that nanometre PDKs typically expose (gate-leakage
/// oxide thickness split, low-/high-Vt flavour thresholds, poly CD, well
/// proximity, narrow-width effects, …), for a total of exactly 47.
pub fn tech_90nm() -> Technology {
    use InterDieEffect as E;
    let mut inter_die = vec![
        InterDieParameter::new("TOXRn", 0.03e-9, E::ToxN),
        InterDieParameter::new("VTH0Rn", 0.030, E::Vth0N),
        InterDieParameter::new("DELUON", 0.08, E::MobilityN),
        InterDieParameter::new("DELL", 3.0e-9, E::DeltaL),
        InterDieParameter::new("DELW", 4.0e-9, E::DeltaW),
        InterDieParameter::new("DELRDIFFN", 0.11, E::RdiffN),
        InterDieParameter::new("VTH0Rp", 0.032, E::Vth0P),
        InterDieParameter::new("DELUOP", 0.08, E::MobilityP),
        InterDieParameter::new("DELRDIFFP", 0.11, E::RdiffP),
        InterDieParameter::new("CJSWRn", 0.05, E::CjswN),
        InterDieParameter::new("CJSWRp", 0.05, E::CjswP),
        InterDieParameter::new("CJRn", 0.05, E::CjN),
        InterDieParameter::new("CJRp", 0.05, E::CjP),
        InterDieParameter::new("NPEAKn", 0.04, E::DopingN),
        InterDieParameter::new("NPEAKp", 0.04, E::DopingP),
        InterDieParameter::new("TOXRp", 0.03e-9, E::ToxP),
        InterDieParameter::new("LDn", 1.0e-9, E::LdN),
        InterDieParameter::new("WDn", 1.0e-9, E::WdN),
        InterDieParameter::new("LDp", 1.0e-9, E::LdP),
        InterDieParameter::new("WDp", 1.0e-9, E::WdP),
    ];
    // Additional corner parameters found in nanometre PDK statistical decks.
    // Each is mapped onto the nearest compact-model effect so that it has a
    // real (if second-order) influence on the evaluated performances.
    let extra: [(&str, f64, InterDieEffect); 27] = [
        ("VTHLVTn", 0.012, E::Vth0N),
        ("VTHLVTp", 0.013, E::Vth0P),
        ("VTHHVTn", 0.012, E::Vth0N),
        ("VTHHVTp", 0.013, E::Vth0P),
        ("TOXGLn", 0.02e-9, E::ToxN),
        ("TOXGLp", 0.02e-9, E::ToxP),
        ("POLYCD", 2.0e-9, E::DeltaL),
        ("ACTCD", 3.0e-9, E::DeltaW),
        ("WPEn", 0.008, E::Vth0N),
        ("WPEp", 0.008, E::Vth0P),
        ("NWELLR", 0.03, E::DopingP),
        ("PWELLR", 0.03, E::DopingN),
        ("U0STRESSn", 0.02, E::MobilityN),
        ("U0STRESSp", 0.02, E::MobilityP),
        ("CGDOn", 0.05, E::CjN),
        ("CGDOp", 0.05, E::CjP),
        ("CGSOn", 0.05, E::CjswN),
        ("CGSOp", 0.05, E::CjswP),
        ("RSHn", 0.04, E::RdiffN),
        ("RSHp", 0.04, E::RdiffP),
        ("XJn", 1.0e-9, E::LdN),
        ("XJp", 1.0e-9, E::LdP),
        ("NARROWn", 1.0e-9, E::WdN),
        ("NARROWp", 1.0e-9, E::WdP),
        ("DIBLn", 0.008, E::Vth0N),
        ("DIBLp", 0.008, E::Vth0P),
        ("GLOBALU0", 0.02, E::MobilityN),
    ];
    for (name, sigma, effect) in extra {
        inter_die.push(InterDieParameter::new(name, sigma, effect));
    }
    Technology {
        name: "cmos90".into(),
        vdd: 1.2,
        l_min: 0.09e-6,
        inter_die,
        mismatch: MismatchModel {
            a_vth: 5.0e-3, // 5 mV*um (pessimistic corner of a 90nm process)
            a_tox_rel: 1.5e-3,
            a_ld: 0.8e-9,
            a_wd: 0.8e-9,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tech_035_matches_paper_dimensions() {
        let t = tech_035um();
        assert_eq!(t.num_inter_die(), 20);
        // Example 1: 15 transistors -> 80 statistical variables.
        assert_eq!(t.num_variables(15), 80);
        assert_eq!(t.vdd, 3.3);
    }

    #[test]
    fn tech_90_matches_paper_dimensions() {
        let t = tech_90nm();
        assert_eq!(t.num_inter_die(), 47);
        // Example 2: 19 transistors -> 123 statistical variables.
        assert_eq!(t.num_variables(19), 123);
        assert_eq!(t.vdd, 1.2);
    }

    #[test]
    fn parameter_names_are_unique() {
        for t in [tech_035um(), tech_90nm()] {
            let mut names: Vec<&str> = t.inter_die.iter().map(|p| p.name.as_str()).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(
                before,
                names.len(),
                "duplicate parameter name in {}",
                t.name
            );
        }
    }

    #[test]
    fn sigmas_are_positive_and_finite() {
        for t in [tech_035um(), tech_90nm()] {
            for p in &t.inter_die {
                assert!(p.sigma > 0.0 && p.sigma.is_finite(), "{} sigma", p.name);
            }
        }
    }

    #[test]
    fn nanometre_node_has_smaller_mismatch_coefficient() {
        assert!(tech_90nm().mismatch.a_vth < tech_035um().mismatch.a_vth);
        assert!(tech_90nm().l_min < tech_035um().l_min);
    }

    #[test]
    fn sigma_scale_multiplies_every_spread() {
        let base = tech_035um();
        let harsh = tech_035um().with_sigma_scale(1.5);
        for (b, h) in base.inter_die.iter().zip(&harsh.inter_die) {
            assert!((h.sigma - 1.5 * b.sigma).abs() < 1e-15 * b.sigma.max(1.0));
        }
        assert!((harsh.mismatch.a_vth - 1.5 * base.mismatch.a_vth).abs() < 1e-12);
        assert!((harsh.mismatch.a_ld - 1.5 * base.mismatch.a_ld).abs() < 1e-20);
        assert!(harsh.name.contains("x1.50"));
        // Structure (dimension, nominal values) is unchanged.
        assert_eq!(harsh.num_inter_die(), base.num_inter_die());
        assert_eq!(harsh.vdd, base.vdd);
    }

    #[test]
    #[should_panic]
    fn zero_sigma_scale_panics() {
        let _ = tech_035um().with_sigma_scale(0.0);
    }
}
