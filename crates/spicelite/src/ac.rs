//! Small-signal AC analysis and amplifier figure-of-merit extraction.
//!
//! The AC engine solves the complex MNA system `(G + jωC) x = b` of a
//! [`LinearCircuit`] over a logarithmic frequency sweep and extracts the
//! figures of merit the MOHECO benchmark circuits are specified on: DC gain,
//! gain–bandwidth product (unity-gain frequency) and phase margin.

use crate::complex::Complex;
use crate::error::SpiceError;
use crate::linalg::CMatrix;
use crate::netlist::{LinearCircuit, NodeId};

/// Generates `points` logarithmically spaced frequencies from `f_start` to
/// `f_stop` (both inclusive, in hertz).
///
/// # Panics
///
/// Panics if the frequencies are not positive, `f_stop <= f_start`, or
/// `points < 2`.
pub fn log_space(f_start: f64, f_stop: f64, points: usize) -> Vec<f64> {
    assert!(f_start > 0.0 && f_stop > f_start, "invalid frequency range");
    assert!(points >= 2, "need at least two points");
    let l0 = f_start.log10();
    let l1 = f_stop.log10();
    (0..points)
        .map(|i| 10f64.powf(l0 + (l1 - l0) * i as f64 / (points - 1) as f64))
        .collect()
}

/// Solves the complex MNA system of `circuit` at angular frequency `omega`
/// and returns the node voltage phasors (ground included, index 0, always 0).
///
/// # Errors
///
/// Returns [`SpiceError::SingularMatrix`] if the system cannot be solved at
/// this frequency.
pub fn solve_at(circuit: &LinearCircuit, omega: f64) -> Result<Vec<Complex>, SpiceError> {
    let n = circuit.num_nodes();
    let m = circuit.num_vsources();
    let dim = (n - 1) + m;
    if dim == 0 {
        return Ok(vec![Complex::ZERO; n]);
    }
    let mut a = CMatrix::zeros(dim, dim);
    let mut rhs = vec![Complex::ZERO; dim];
    let idx = |node: NodeId| -> Option<usize> {
        if node == 0 {
            None
        } else {
            Some(node - 1)
        }
    };

    let stamp_adm = |a: &mut CMatrix, p: NodeId, q: NodeId, y: Complex| {
        if let Some(i) = idx(p) {
            a[(i, i)] += y;
        }
        if let Some(j) = idx(q) {
            a[(j, j)] += y;
        }
        if let (Some(i), Some(j)) = (idx(p), idx(q)) {
            a[(i, j)] -= y;
            a[(j, i)] -= y;
        }
    };

    for &(p, q, g) in &circuit.conductances {
        stamp_adm(&mut a, p, q, Complex::from_real(g));
    }
    for &(p, q, c) in &circuit.capacitances {
        stamp_adm(&mut a, p, q, Complex::from_imag(omega * c));
    }
    for g in &circuit.vccs {
        for (out_node, sign_out) in [(g.out_p, 1.0), (g.out_n, -1.0)] {
            if let Some(i) = idx(out_node) {
                if let Some(j) = idx(g.in_p) {
                    a[(i, j)] += Complex::from_real(sign_out * g.gm);
                }
                if let Some(j) = idx(g.in_n) {
                    a[(i, j)] -= Complex::from_real(sign_out * g.gm);
                }
            }
        }
    }
    for s in &circuit.isources {
        if let Some(i) = idx(s.from) {
            rhs[i] -= Complex::from_real(s.amps);
        }
        if let Some(i) = idx(s.to) {
            rhs[i] += Complex::from_real(s.amps);
        }
    }
    for (k, vs) in circuit.vsources.iter().enumerate() {
        let row = (n - 1) + k;
        if let Some(i) = idx(vs.p) {
            a[(i, row)] += Complex::ONE;
            a[(row, i)] += Complex::ONE;
        }
        if let Some(i) = idx(vs.n) {
            a[(i, row)] -= Complex::ONE;
            a[(row, i)] -= Complex::ONE;
        }
        rhs[row] = Complex::from_real(vs.ac);
    }

    let x = a.solve(&rhs)?;
    let mut v = vec![Complex::ZERO; n];
    v[1..n].copy_from_slice(&x[..n - 1]);
    Ok(v)
}

/// The complex response of one output node over a frequency sweep.
#[derive(Debug, Clone)]
pub struct FrequencyResponse {
    /// Sweep frequencies in hertz, ascending.
    pub freqs: Vec<f64>,
    /// Output phasor at each frequency.
    pub values: Vec<Complex>,
}

impl FrequencyResponse {
    /// Gain magnitude (linear) at sweep point `i`.
    pub fn magnitude(&self, i: usize) -> f64 {
        self.values[i].abs()
    }

    /// Gain in dB at sweep point `i`.
    pub fn gain_db(&self, i: usize) -> f64 {
        20.0 * self.magnitude(i).max(1e-30).log10()
    }

    /// Phase in degrees at every sweep point, unwrapped so that it
    /// decreases monotonically through poles (standard Bode convention
    /// starting near 180° for an inverting amplifier or 0° for a
    /// non-inverting one).
    fn unwrapped_phase(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.values.len());
        let mut prev = self.values[0].arg_deg();
        out.push(prev);
        for v in &self.values[1..] {
            let mut p = v.arg_deg();
            while p - prev > 180.0 {
                p -= 360.0;
            }
            while p - prev < -180.0 {
                p += 360.0;
            }
            out.push(p);
            prev = p;
        }
        out
    }

    /// Low-frequency (DC) gain in dB — the gain at the first sweep point.
    pub fn dc_gain_db(&self) -> f64 {
        self.gain_db(0)
    }

    /// Unity-gain frequency in hertz, found by log-linear interpolation of the
    /// first 0 dB crossing. For a single-dominant-pole amplifier this equals
    /// the gain–bandwidth product.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::AcExtraction`] when the gain never crosses 0 dB
    /// inside the swept range.
    pub fn unity_gain_freq(&self) -> Result<f64, SpiceError> {
        let n = self.freqs.len();
        if self.gain_db(0) <= 0.0 {
            return Err(SpiceError::AcExtraction {
                reason: "gain is below 0 dB at the lowest swept frequency".into(),
            });
        }
        for i in 1..n {
            let g0 = self.gain_db(i - 1);
            let g1 = self.gain_db(i);
            if g0 > 0.0 && g1 <= 0.0 {
                // Interpolate in log-frequency.
                let t = g0 / (g0 - g1);
                let lf = self.freqs[i - 1].log10()
                    + t * (self.freqs[i].log10() - self.freqs[i - 1].log10());
                return Ok(10f64.powf(lf));
            }
        }
        Err(SpiceError::AcExtraction {
            reason: "no unity-gain crossing within the swept range".into(),
        })
    }

    /// Phase margin in degrees: `180° + phase(unity-gain frequency)`, where the
    /// phase is measured relative to the low-frequency phase (so the result is
    /// independent of whether the amplifier output is inverting).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::AcExtraction`] when no unity-gain crossing exists.
    pub fn phase_margin_deg(&self) -> Result<f64, SpiceError> {
        let fu = self.unity_gain_freq()?;
        let phases = self.unwrapped_phase();
        // Interpolate the unwrapped phase at fu.
        let mut phase_at_fu = phases[phases.len() - 1];
        for i in 1..self.freqs.len() {
            if self.freqs[i] >= fu {
                let t = (fu.log10() - self.freqs[i - 1].log10())
                    / (self.freqs[i].log10() - self.freqs[i - 1].log10());
                phase_at_fu = phases[i - 1] + t * (phases[i] - phases[i - 1]);
                break;
            }
        }
        let phase_shift = phase_at_fu - phases[0];
        Ok(180.0 + phase_shift)
    }
}

/// The amplifier figures of merit of one frequency response, extracted by
/// [`foms`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcFoms {
    /// Gain at the first sweep point, in dB.
    pub dc_gain_db: f64,
    /// `(unity-gain frequency in Hz, phase margin in degrees)`, or `None`
    /// where [`FrequencyResponse::unity_gain_freq`] (and with it
    /// [`FrequencyResponse::phase_margin_deg`]) returns an error.
    pub crossing: Option<(f64, f64)>,
}

/// Extracts DC gain, unity-gain frequency and phase margin from the output
/// phasors `values` of a sweep over `freqs`, bit-identical to
/// [`FrequencyResponse::dc_gain_db`], [`FrequencyResponse::unity_gain_freq`]
/// and [`FrequencyResponse::phase_margin_deg`].
///
/// Only the prefix the figures depend on is visited: gains up to the first
/// 0 dB crossing (and only where `|v|^2` alone cannot rule a crossing out),
/// and phases — unwrapped on the fly with the same running correction — up
/// to the first frequency at or above the crossing. Nothing is allocated.
///
/// # Panics
///
/// Panics if `values` is empty or not the same length as `freqs`.
pub fn foms(freqs: &[f64], values: &[Complex]) -> AcFoms {
    assert_eq!(freqs.len(), values.len(), "one phasor per frequency");
    let gain_db = |i: usize| 20.0 * values[i].abs().max(1e-30).log10();
    let dc_gain_db = gain_db(0);
    let none = AcFoms {
        dc_gain_db,
        crossing: None,
    };
    if dc_gain_db <= 0.0 {
        return none;
    }
    // A crossing at `i` needs gain(i) <= 0 dB. A point whose |v|^2 exceeds
    // 1.0001 is above 0 dB by a margin no rounding in `norm_sqr`, `hypot` or
    // `log10` can close, so it is skipped without evaluating its gain; the
    // exact gains are computed only where the test is inconclusive.
    let mut unity = None;
    let mut g0 = Some(dc_gain_db);
    for i in 1..freqs.len() {
        if values[i].norm_sqr() > 1.0001 {
            g0 = None;
            continue;
        }
        let g1 = gain_db(i);
        let g0_exact = g0.unwrap_or_else(|| gain_db(i - 1));
        if g0_exact > 0.0 && g1 <= 0.0 {
            let t = g0_exact / (g0_exact - g1);
            let lf = freqs[i - 1].log10() + t * (freqs[i].log10() - freqs[i - 1].log10());
            unity = Some(10f64.powf(lf));
            break;
        }
        g0 = Some(g1);
    }
    let Some(fu) = unity else {
        return none;
    };
    let phase0 = values[0].arg_deg();
    let mut prev = phase0;
    let mut phase_at_fu = None;
    for i in 1..freqs.len() {
        let mut p = values[i].arg_deg();
        while p - prev > 180.0 {
            p -= 360.0;
        }
        while p - prev < -180.0 {
            p += 360.0;
        }
        if freqs[i] >= fu {
            let t = (fu.log10() - freqs[i - 1].log10()) / (freqs[i].log10() - freqs[i - 1].log10());
            phase_at_fu = Some(prev + t * (p - prev));
            break;
        }
        prev = p;
    }
    // No frequency reaches fu: the last unwrapped phase, which `prev` holds.
    let phase_shift = phase_at_fu.unwrap_or(prev) - phase0;
    AcFoms {
        dc_gain_db,
        crossing: Some((fu, 180.0 + phase_shift)),
    }
}

/// Sweeps `circuit` over `freqs` and records the phasor at `output`.
///
/// The stimulus must already be present in the circuit (an AC voltage source
/// or current source).
///
/// # Errors
///
/// Propagates [`SpiceError::SingularMatrix`] from any sweep point.
pub fn sweep(
    circuit: &LinearCircuit,
    output: NodeId,
    freqs: &[f64],
) -> Result<FrequencyResponse, SpiceError> {
    let mut values = Vec::with_capacity(freqs.len());
    for &f in freqs {
        let omega = 2.0 * std::f64::consts::PI * f;
        let v = solve_at(circuit, omega)?;
        values.push(v[output]);
    }
    Ok(FrequencyResponse {
        freqs: freqs.to_vec(),
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::LinearCircuit;

    /// RC low-pass driven by a unit AC source through the resistor.
    fn rc_lowpass(r: f64, c: f64) -> (LinearCircuit, NodeId) {
        let mut ckt = LinearCircuit::new();
        let vin = ckt.node();
        let vout = ckt.node();
        ckt.add_vsource(vin, 0, 1.0);
        ckt.add_resistor(vin, vout, r);
        ckt.add_capacitance(vout, 0, c);
        (ckt, vout)
    }

    #[test]
    fn log_space_endpoints() {
        let f = log_space(1.0, 1e6, 7);
        assert_eq!(f.len(), 7);
        assert!((f[0] - 1.0).abs() < 1e-12);
        assert!((f[6] - 1e6).abs() < 1e-6);
        assert!((f[3] - 1e3).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn log_space_rejects_bad_range() {
        let _ = log_space(10.0, 1.0, 5);
    }

    #[test]
    fn rc_lowpass_corner_frequency() {
        let r = 1_000.0;
        let c = 1e-6; // fc = 159.15 Hz
        let (ckt, out) = rc_lowpass(r, c);
        let fc = 1.0 / (2.0 * std::f64::consts::PI * r * c);
        let freqs = vec![fc / 1000.0, fc, fc * 1000.0];
        let resp = sweep(&ckt, out, &freqs).unwrap();
        // At DC the gain is ~1 (0 dB); at fc it is -3 dB; far above it rolls off.
        assert!(resp.gain_db(0).abs() < 0.01);
        assert!((resp.gain_db(1) + 3.0103).abs() < 0.05);
        assert!(resp.gain_db(2) < -55.0);
    }

    #[test]
    fn rc_lowpass_phase_at_corner_is_minus_45() {
        let r = 1_000.0;
        let c = 1e-6;
        let (ckt, out) = rc_lowpass(r, c);
        let fc = 1.0 / (2.0 * std::f64::consts::PI * r * c);
        let resp = sweep(&ckt, out, &[fc / 1e3, fc]).unwrap();
        let phases = resp.unwrapped_phase();
        let phase_shift = phases[1] - phases[0];
        assert!((phase_shift + 45.0).abs() < 0.5, "shift {phase_shift}");
    }

    #[test]
    fn single_pole_amplifier_foms() {
        // gm stage into R||C load: A0 = gm*R, GBW = gm/(2 pi C), PM ~ 90 deg.
        let gm = 1e-3;
        let r = 1e6;
        let c = 1e-12;
        let mut ckt = LinearCircuit::new();
        let vin = ckt.node();
        let vout = ckt.node();
        ckt.add_vsource(vin, 0, 1.0);
        ckt.add_vccs(vout, 0, vin, 0, gm);
        ckt.add_resistor(vout, 0, r);
        ckt.add_capacitance(vout, 0, c);
        let freqs = log_space(1.0, 1e12, 400);
        let resp = sweep(&ckt, vout, &freqs).unwrap();
        let a0_expected = 20.0 * (gm * r).log10();
        assert!((resp.dc_gain_db() - a0_expected).abs() < 0.1);
        let gbw_expected = gm / (2.0 * std::f64::consts::PI * c);
        let gbw = resp.unity_gain_freq().unwrap();
        assert!(
            (gbw - gbw_expected).abs() / gbw_expected < 0.02,
            "gbw {gbw} vs {gbw_expected}"
        );
        let pm = resp.phase_margin_deg().unwrap();
        assert!((pm - 90.0).abs() < 2.0, "pm {pm}");
    }

    #[test]
    fn two_pole_amplifier_phase_margin_drops() {
        // Two cascaded gm stages -> two poles; PM well below 90 degrees when
        // the poles are close together.
        let mut ckt = LinearCircuit::new();
        let vin = ckt.node();
        let mid = ckt.node();
        let vout = ckt.node();
        ckt.add_vsource(vin, 0, 1.0);
        ckt.add_vccs(mid, 0, vin, 0, 1e-3);
        ckt.add_resistor(mid, 0, 100e3);
        ckt.add_capacitance(mid, 0, 1e-12);
        ckt.add_vccs(vout, 0, mid, 0, 1e-3);
        ckt.add_resistor(vout, 0, 100e3);
        ckt.add_capacitance(vout, 0, 1e-12);
        let freqs = log_space(1.0, 1e12, 500);
        let resp = sweep(&ckt, vout, &freqs).unwrap();
        let pm = resp.phase_margin_deg().unwrap();
        assert!(
            pm < 45.0,
            "two identical poles should give low PM, got {pm}"
        );
        assert!(pm > -30.0);
    }

    #[test]
    fn unity_gain_extraction_fails_for_passive_network() {
        let (ckt, out) = rc_lowpass(1_000.0, 1e-9);
        let freqs = log_space(1.0, 1e6, 50);
        let resp = sweep(&ckt, out, &freqs).unwrap();
        assert!(resp.unity_gain_freq().is_err());
        assert!(resp.phase_margin_deg().is_err());
    }

    #[test]
    fn foms_bit_identical_to_individual_methods() {
        // Cover all three shapes: clean crossing, no crossing (gain < 0 dB at
        // DC), and no crossing inside the swept range.
        let mut responses = Vec::new();
        {
            let mut ckt = LinearCircuit::new();
            let vin = ckt.node();
            let vout = ckt.node();
            ckt.add_vsource(vin, 0, 1.0);
            ckt.add_vccs(vout, 0, vin, 0, 1e-3);
            ckt.add_resistor(vout, 0, 1e6);
            ckt.add_capacitance(vout, 0, 1e-12);
            responses.push(sweep(&ckt, vout, &log_space(1.0, 1e12, 173)).unwrap());
            responses.push(sweep(&ckt, vout, &log_space(1.0, 1e3, 40)).unwrap());
        }
        {
            let (ckt, out) = rc_lowpass(1_000.0, 1e-9);
            responses.push(sweep(&ckt, out, &log_space(1.0, 1e6, 50)).unwrap());
        }
        for resp in &responses {
            let foms = foms(&resp.freqs, &resp.values);
            assert_eq!(foms.dc_gain_db.to_bits(), resp.dc_gain_db().to_bits());
            match (
                foms.crossing,
                resp.unity_gain_freq(),
                resp.phase_margin_deg(),
            ) {
                (Some((fu, pm)), Ok(a), Ok(b)) => {
                    assert_eq!(fu.to_bits(), a.to_bits());
                    assert_eq!(pm.to_bits(), b.to_bits());
                }
                (None, Err(_), Err(_)) => {}
                (a, b, c) => panic!("foms {a:?} vs methods {b:?} / {c:?}"),
            }
        }
    }

    #[test]
    fn foms_match_methods_on_random_responses() {
        // Synthetic responses: falling magnitudes that may or may not cross
        // 0 dB (sometimes exactly on a grid point) and phase steps large enough to need unwrapping in both
        // directions. The prefix extraction must reproduce the methods' bits.
        let mut state = 0x0f0f_5eed_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let freqs = log_space(1e3, 3e10, 50);
        let mut crossings = 0;
        for case in 0..3000 {
            let mut mag = 10f64.powf(-1.0 + 5.0 * next());
            let mut phase = 360.0 * next() - 180.0;
            let exact = (next() * 60.0) as usize;
            let values: Vec<Complex> = (0..freqs.len())
                .map(|i| {
                    mag *= 10f64.powf(-0.3 * next());
                    phase += 200.0 * next() - 150.0;
                    // Some points sit right around unit magnitude, where
                    // only the exact gain can tell which side of 0 dB they
                    // are on.
                    let m = if i == exact {
                        1.0
                    } else if next() < 0.1 {
                        1.0 + 4e-4 * (next() - 0.5)
                    } else {
                        mag
                    };
                    let rad = phase.to_radians();
                    Complex::new(m * rad.cos(), m * rad.sin())
                })
                .collect();
            let resp = FrequencyResponse {
                freqs: freqs.clone(),
                values,
            };
            let f = foms(&resp.freqs, &resp.values);
            assert_eq!(f.dc_gain_db.to_bits(), resp.dc_gain_db().to_bits());
            match (f.crossing, resp.unity_gain_freq(), resp.phase_margin_deg()) {
                (Some((fu, pm)), Ok(a), Ok(b)) => {
                    crossings += 1;
                    assert_eq!(fu.to_bits(), a.to_bits(), "case {case}");
                    assert_eq!(pm.to_bits(), b.to_bits(), "case {case}");
                }
                (None, Err(_), Err(_)) => {}
                (a, b, c) => panic!("case {case}: foms {a:?} vs methods {b:?} / {c:?}"),
            }
        }
        assert!(crossings > 500, "only {crossings} responses crossed 0 dB");
    }

    #[test]
    fn foms_match_methods_when_crossing_rounds_past_the_sweep() {
        // Gain exactly 0 dB at the last point, with the interval starting at
        // 1 Hz, puts the interpolated crossing at 10^log10(x), which rounds
        // above x for many x: then no frequency reaches the crossing and the
        // phase margin falls back to the last unwrapped phase.
        let mut past_end = 0;
        for k in 0..400 {
            let x = 1e3 * (1.0 + 0.0137 * k as f64);
            let freqs = vec![0.5, 1.0, x];
            let values = [3.0, 2.0, 1.0]
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    let rad = (-170.0 * i as f64).to_radians();
                    Complex::new(m * rad.cos(), m * rad.sin())
                })
                .collect();
            let resp = FrequencyResponse { freqs, values };
            let f = foms(&resp.freqs, &resp.values);
            let (fu, pm) = f.crossing.expect("the gain reaches 0 dB at the last point");
            assert_eq!(fu.to_bits(), resp.unity_gain_freq().unwrap().to_bits());
            assert_eq!(pm.to_bits(), resp.phase_margin_deg().unwrap().to_bits());
            if fu > x {
                past_end += 1;
            }
        }
        assert!(past_end > 0, "no grid rounded the crossing past the sweep");
    }

    #[test]
    fn empty_circuit_solves_to_zero() {
        let ckt = LinearCircuit::new();
        let v = solve_at(&ckt, 1.0).unwrap();
        assert_eq!(v.len(), 1);
    }
}
