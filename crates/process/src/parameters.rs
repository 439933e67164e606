//! Declarations of statistical process parameters.
//!
//! The MOHECO paper splits process variation into *inter-die* variables
//! (one value per die, shared by every device: oxide thickness shifts,
//! global threshold shifts, mobility, junction capacitances, …) and
//! *intra-die* variables (per-device mismatch on `TOX`, `VTH0`, `LD`, `WD`).
//! This module declares the parameter metadata; actual sampling lives in
//! [`crate::sample`].

/// How an inter-die parameter deviation maps onto the device compact model.
///
/// The effect tells the circuit evaluator which model-card quantity to shift
/// and for which device polarity. Relative effects are expressed as a
/// fractional change; absolute effects in SI units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterDieEffect {
    /// Absolute oxide-thickness shift for NMOS devices (metres).
    ToxN,
    /// Absolute oxide-thickness shift for PMOS devices (metres).
    ToxP,
    /// Absolute threshold-voltage shift for NMOS devices (volts).
    Vth0N,
    /// Absolute threshold-voltage shift for PMOS devices (volts).
    Vth0P,
    /// Relative mobility change for NMOS devices.
    MobilityN,
    /// Relative mobility change for PMOS devices.
    MobilityP,
    /// Absolute lateral-diffusion shift for NMOS devices (metres).
    LdN,
    /// Absolute lateral-diffusion shift for PMOS devices (metres).
    LdP,
    /// Absolute width-reduction shift for NMOS devices (metres).
    WdN,
    /// Absolute width-reduction shift for PMOS devices (metres).
    WdP,
    /// Absolute channel-length shift applied to both polarities (metres).
    DeltaL,
    /// Absolute channel-width shift applied to both polarities (metres).
    DeltaW,
    /// Relative junction-capacitance change for NMOS devices.
    CjN,
    /// Relative junction-capacitance change for PMOS devices.
    CjP,
    /// Relative sidewall junction-capacitance change for NMOS devices.
    CjswN,
    /// Relative sidewall junction-capacitance change for PMOS devices.
    CjswP,
    /// Relative channel-doping change for NMOS devices (maps to a threshold shift).
    DopingN,
    /// Relative channel-doping change for PMOS devices (maps to a threshold shift).
    DopingP,
    /// Relative diffusion-resistance change for NMOS devices (maps to a small mobility change).
    RdiffN,
    /// Relative diffusion-resistance change for PMOS devices (maps to a small mobility change).
    RdiffP,
}

/// One inter-die statistical parameter: a name, its standard deviation and
/// the model quantity it perturbs.
#[derive(Debug, Clone, PartialEq)]
pub struct InterDieParameter {
    /// Foundry-style parameter name (e.g. `"TOXRn"`).
    pub name: String,
    /// Standard deviation of the parameter, in the units implied by its effect.
    pub sigma: f64,
    /// Which model quantity the parameter perturbs.
    pub effect: InterDieEffect,
}

impl InterDieParameter {
    /// Creates a parameter declaration.
    pub fn new(name: impl Into<String>, sigma: f64, effect: InterDieEffect) -> Self {
        Self {
            name: name.into(),
            sigma,
            effect,
        }
    }
}

/// Number of intra-die mismatch components per transistor (the paper uses
/// exactly four: `TOX`, `VTH0`, `LD`, `WD`, in that order).
pub const MISMATCH_COMPONENTS: usize = 4;

/// Pelgrom-style mismatch model: the standard deviation of each per-device
/// component scales as `A / sqrt(W_eff * L_eff)` with the gate area expressed
/// in µm².
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MismatchModel {
    /// Threshold-voltage area coefficient `A_VT` (V · µm).
    pub a_vth: f64,
    /// Relative oxide-thickness area coefficient (µm).
    pub a_tox_rel: f64,
    /// Effective-length area coefficient (m · µm).
    pub a_ld: f64,
    /// Effective-width area coefficient (m · µm).
    pub a_wd: f64,
}

impl MismatchModel {
    /// Standard deviation of the threshold mismatch for a device with
    /// `area_um2` µm² of gate area (volts).
    pub fn sigma_vth(&self, area_um2: f64) -> f64 {
        self.a_vth / area_um2.max(1e-6).sqrt()
    }

    /// Standard deviation of the relative oxide-thickness mismatch.
    pub fn sigma_tox_rel(&self, area_um2: f64) -> f64 {
        self.a_tox_rel / area_um2.max(1e-6).sqrt()
    }

    /// Standard deviation of the lateral-diffusion mismatch (metres).
    pub fn sigma_ld(&self, area_um2: f64) -> f64 {
        self.a_ld / area_um2.max(1e-6).sqrt()
    }

    /// Standard deviation of the width-reduction mismatch (metres).
    pub fn sigma_wd(&self, area_um2: f64) -> f64 {
        self.a_wd / area_um2.max(1e-6).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_construction() {
        let p = InterDieParameter::new("TOXRn", 0.1e-9, InterDieEffect::ToxN);
        assert_eq!(p.name, "TOXRn");
        assert_eq!(p.effect, InterDieEffect::ToxN);
        assert!(p.sigma > 0.0);
    }

    #[test]
    fn mismatch_sigma_scales_with_inverse_sqrt_area() {
        let m = MismatchModel {
            a_vth: 9e-3,
            a_tox_rel: 1e-3,
            a_ld: 1e-9,
            a_wd: 1e-9,
        };
        let s1 = m.sigma_vth(1.0);
        let s4 = m.sigma_vth(4.0);
        assert!((s1 / s4 - 2.0).abs() < 1e-12);
        assert!(m.sigma_tox_rel(1.0) > m.sigma_tox_rel(100.0));
        assert!(m.sigma_ld(1.0) > 0.0 && m.sigma_wd(1.0) > 0.0);
    }

    #[test]
    fn tiny_area_does_not_blow_up() {
        let m = MismatchModel {
            a_vth: 9e-3,
            a_tox_rel: 1e-3,
            a_ld: 1e-9,
            a_wd: 1e-9,
        };
        assert!(m.sigma_vth(0.0).is_finite());
    }
}
