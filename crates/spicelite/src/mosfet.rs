//! Square-law MOSFET compact model with process-dependent parameters.
//!
//! The model is intentionally simple — a long-channel square-law model with
//! channel-length modulation and a smooth subthreshold cut-off — but it
//! exposes exactly the process "knobs" the MOHECO paper perturbs per device
//! (`TOX`, `VTH0`, `LD`, `WD`) plus global (inter-die) parameters such as the
//! mobility and junction capacitances. The optimizer never looks inside the
//! model; it only sees circuit-level performance numbers, so the square-law
//! model is a faithful stand-in for the HSPICE/BSIM evaluations used in the
//! paper as far as algorithmic behaviour is concerned.

use crate::error::SpiceError;
use crate::simd::{Kernel, LANES};

/// Polarity of a MOSFET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosType {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

/// Operating region of the device at a given bias.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// `|Vgs| < |Vth|`: the device is (nearly) off.
    Cutoff,
    /// `|Vds| < |Vgs - Vth|`: linear / triode operation.
    Triode,
    /// `|Vds| >= |Vgs - Vth|`: saturation (the region analog design wants).
    Saturation,
}

/// Technology-level model card for one device polarity.
///
/// All quantities are in SI units (V, A, m, F).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosModel {
    /// Device polarity.
    pub mos_type: MosType,
    /// Zero-bias threshold voltage magnitude (V).
    pub vth0: f64,
    /// Low-field mobility (m^2 / V / s).
    pub u0: f64,
    /// Gate-oxide thickness (m).
    pub tox: f64,
    /// Channel-length modulation coefficient per unit length (V^-1 * m).
    ///
    /// The effective lambda of a device is `lambda_l / l_eff`, which captures
    /// the familiar improvement of output resistance with channel length.
    pub lambda_l: f64,
    /// Lateral diffusion (m); reduces the effective channel length on each side.
    pub ld: f64,
    /// Width reduction (m); reduces the effective channel width on each side.
    pub wd: f64,
    /// Zero-bias bulk junction capacitance per area (F/m^2).
    pub cj: f64,
    /// Zero-bias bulk junction sidewall capacitance per length (F/m).
    pub cjsw: f64,
    /// Body-effect coefficient gamma (V^0.5). Used only for gmb estimation.
    pub gamma: f64,
    /// Subthreshold slope parameter n (unitless, typically 1.2 - 1.6).
    pub subthreshold_n: f64,
}

/// Permittivity of SiO2 (F/m).
pub const EPS_OX: f64 = 3.9 * 8.854e-12;
/// Thermal voltage at 300 K (V).
pub const VT_THERMAL: f64 = 0.02585;

impl MosModel {
    /// Gate-oxide capacitance per unit area, `Cox = eps_ox / tox` (F/m^2).
    pub fn cox(&self) -> f64 {
        EPS_OX / self.tox
    }

    /// Process transconductance `k' = u0 * Cox` (A/V^2).
    pub fn kp(&self) -> f64 {
        self.u0 * self.cox()
    }

    /// Returns a copy of the model with perturbed process parameters.
    ///
    /// `d_*` arguments are *absolute* deviations added to the nominal values;
    /// this is how per-device (intra-die) mismatch and global (inter-die)
    /// shifts are injected by the `moheco-process` crate.
    #[allow(clippy::too_many_arguments)] // one argument per perturbed physical parameter
    pub fn perturbed(
        &self,
        d_tox: f64,
        d_vth0: f64,
        d_ld: f64,
        d_wd: f64,
        d_u0_rel: f64,
        d_cj_rel: f64,
        d_cjsw_rel: f64,
    ) -> MosModel {
        MosModel {
            tox: (self.tox + d_tox).max(self.tox * 0.5),
            vth0: self.vth0 + d_vth0,
            ld: (self.ld + d_ld).max(0.0),
            wd: (self.wd + d_wd).max(0.0),
            u0: self.u0 * (1.0 + d_u0_rel).max(0.1),
            cj: self.cj * (1.0 + d_cj_rel).max(0.1),
            cjsw: self.cjsw * (1.0 + d_cjsw_rel).max(0.1),
            ..*self
        }
    }
}

/// Geometry of a MOSFET instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosGeometry {
    /// Drawn channel width (m).
    pub w: f64,
    /// Drawn channel length (m).
    pub l: f64,
    /// Parallel multiplier (number of fingers), >= 1.
    pub m: f64,
}

impl MosGeometry {
    /// Creates a geometry description.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidElement`] if any dimension is not strictly
    /// positive.
    pub fn new(w: f64, l: f64, m: f64) -> Result<Self, SpiceError> {
        if w <= 0.0 || l <= 0.0 || m < 1.0 {
            return Err(SpiceError::InvalidElement {
                reason: format!("invalid MOS geometry w={w}, l={l}, m={m}"),
            });
        }
        Ok(Self { w, l, m })
    }

    /// Gate area `W * L * m` (m^2), used for mismatch scaling and area estimates.
    pub fn gate_area(&self) -> f64 {
        self.w * self.l * self.m
    }
}

/// Small-signal and large-signal operating-point data for one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosOperatingPoint {
    /// Operating region.
    pub region: Region,
    /// Drain current magnitude (A).
    pub id: f64,
    /// Gate overdrive `|Vgs| - |Vth|` (V); negative in cutoff.
    pub vov: f64,
    /// Effective threshold voltage magnitude (V).
    pub vth: f64,
    /// Transconductance gm (S).
    pub gm: f64,
    /// Output conductance gds (S).
    pub gds: f64,
    /// Bulk transconductance gmb (S).
    pub gmb: f64,
    /// Gate-source capacitance (F).
    pub cgs: f64,
    /// Gate-drain (overlap) capacitance (F).
    pub cgd: f64,
    /// Drain-bulk junction capacitance (F).
    pub cdb: f64,
    /// Source-bulk junction capacitance (F).
    pub csb: f64,
    /// Saturation voltage `Vdsat` (V).
    pub vdsat: f64,
}

/// A MOSFET device: model card plus geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mosfet {
    /// Model card (possibly perturbed by process variation).
    pub model: MosModel,
    /// Instance geometry.
    pub geometry: MosGeometry,
}

impl Mosfet {
    /// Creates a device from a model card and geometry.
    pub fn new(model: MosModel, geometry: MosGeometry) -> Self {
        Self { model, geometry }
    }

    /// Effective channel length after lateral diffusion (m).
    pub fn l_eff(&self) -> f64 {
        (self.geometry.l - 2.0 * self.model.ld).max(1e-9)
    }

    /// Effective channel width after width reduction (m), including multiplier.
    pub fn w_eff(&self) -> f64 {
        ((self.geometry.w - 2.0 * self.model.wd).max(1e-9)) * self.geometry.m
    }

    /// Effective channel-length modulation coefficient (1/V).
    pub fn lambda(&self) -> f64 {
        self.model.lambda_l / self.l_eff()
    }

    /// Evaluates the large- and small-signal behaviour at bias `(vgs, vds, vsb)`.
    ///
    /// All voltages follow the usual *magnitude* convention for the device
    /// polarity: for a PMOS pass `vgs = vsg`, `vds = vsd`, `vsb = vbs`, i.e.
    /// positive numbers for a normally biased device. Currents returned are
    /// magnitudes.
    pub fn operating_point(&self, vgs: f64, vds: f64, vsb: f64) -> MosOperatingPoint {
        let m = &self.model;
        let w_eff = self.w_eff();
        let l_eff = self.l_eff();
        let kp = m.kp();
        let beta = kp * w_eff / l_eff;
        // Body effect on threshold (simple first-order model).
        let phi_f2 = 0.7;
        let vth = m.vth0 + m.gamma * ((phi_f2 + vsb.max(0.0)).sqrt() - phi_f2.sqrt());
        let vov = vgs - vth;
        let lambda = self.lambda();
        let vdsat = vov.max(0.0);

        let (region, id, gm, gds) = if vov <= 0.0 {
            // Subthreshold: exponential tail so the DC solver sees a smooth,
            // monotone characteristic instead of a hard zero.
            let n = m.subthreshold_n;
            let i0 = beta * n * VT_THERMAL * VT_THERMAL * 2.0;
            let id = i0 * (vov / (n * VT_THERMAL)).exp() * (1.0 - (-vds / VT_THERMAL).exp());
            let gm = id / (n * VT_THERMAL);
            let gds = (i0 * (vov / (n * VT_THERMAL)).exp() * (-vds / VT_THERMAL).exp()
                / VT_THERMAL)
                .max(1e-12);
            (Region::Cutoff, id.max(0.0), gm.max(0.0), gds)
        } else if vds < vdsat {
            // Triode.
            let id = beta * (vov * vds - 0.5 * vds * vds) * (1.0 + lambda * vds);
            let gm = beta * vds * (1.0 + lambda * vds);
            let gds = beta * (vov - vds) * (1.0 + lambda * vds)
                + beta * (vov * vds - 0.5 * vds * vds) * lambda;
            (Region::Triode, id.max(0.0), gm.max(0.0), gds.max(1e-12))
        } else {
            // Saturation.
            let id = 0.5 * beta * vov * vov * (1.0 + lambda * vds);
            let gm = beta * vov * (1.0 + lambda * vds);
            let gds = 0.5 * beta * vov * vov * lambda;
            (Region::Saturation, id, gm, gds.max(1e-12))
        };

        // Body transconductance: gmb = gm * gamma / (2 sqrt(phi + vsb)).
        let gmb = gm * m.gamma / (2.0 * (phi_f2 + vsb.max(0.0)).sqrt());

        // Capacitances.
        let cox = m.cox();
        let c_overlap = w_eff * m.ld.max(1e-9) * cox;
        let cgs = match region {
            Region::Saturation | Region::Cutoff => (2.0 / 3.0) * w_eff * l_eff * cox + c_overlap,
            Region::Triode => 0.5 * w_eff * l_eff * cox + c_overlap,
        };
        let cgd = match region {
            Region::Saturation | Region::Cutoff => c_overlap,
            Region::Triode => 0.5 * w_eff * l_eff * cox + c_overlap,
        };
        // Junction capacitances assume a drain/source diffusion length of ~3x
        // the minimum feature; only the scaling with W matters for the
        // pole locations that set GBW/PM.
        let ldiff = 3.0 * self.geometry.l.min(1e-6);
        let cdb = m.cj * w_eff * ldiff + m.cjsw * (2.0 * (w_eff + ldiff));
        let csb = cdb;

        MosOperatingPoint {
            region,
            id,
            vov,
            vth,
            gm,
            gds,
            gmb,
            cgs,
            cgd,
            cdb,
            csb,
            vdsat,
        }
    }

    /// Drain current magnitude at bias `(vgs, vds, vsb)` — bit-identical to
    /// `self.operating_point(vgs, vds, vsb).id` but skipping the small-signal
    /// and capacitance computation.
    ///
    /// This is the inner function of the [`Self::vgs_for_current`] bisection,
    /// which only ever observes the current; `tests` pin the bit-identity
    /// against [`Self::operating_point`] over a dense bias grid.
    pub fn drain_current(&self, vgs: f64, vds: f64, vsb: f64) -> f64 {
        let m = &self.model;
        let w_eff = self.w_eff();
        let l_eff = self.l_eff();
        let kp = m.kp();
        let beta = kp * w_eff / l_eff;
        let phi_f2 = 0.7;
        let vth = m.vth0 + m.gamma * ((phi_f2 + vsb.max(0.0)).sqrt() - phi_f2.sqrt());
        let vov = vgs - vth;
        let lambda = self.lambda();
        let vdsat = vov.max(0.0);
        if vov <= 0.0 {
            let n = m.subthreshold_n;
            let i0 = beta * n * VT_THERMAL * VT_THERMAL * 2.0;
            let id = i0 * (vov / (n * VT_THERMAL)).exp() * (1.0 - (-vds / VT_THERMAL).exp());
            id.max(0.0)
        } else if vds < vdsat {
            let id = beta * (vov * vds - 0.5 * vds * vds) * (1.0 + lambda * vds);
            id.max(0.0)
        } else {
            0.5 * beta * vov * vov * (1.0 + lambda * vds)
        }
    }

    /// Solves for the `|Vgs|` that produces the requested drain current in
    /// saturation at the given `|Vds|`, via bisection on the device equation.
    ///
    /// This is the workhorse used by the analytic bias generators in the
    /// `moheco-analog` crate: branch currents are set by current mirrors, and
    /// each device's gate voltage follows from its current.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::DcNoConvergence`] when the target current cannot
    /// be reached within the gate-voltage search range (0 to 5 V overdrive).
    pub fn vgs_for_current(&self, id_target: f64, vds: f64, vsb: f64) -> Result<f64, SpiceError> {
        if id_target <= 0.0 {
            return Err(SpiceError::InvalidElement {
                reason: format!("target current must be positive, got {id_target}"),
            });
        }
        let mut lo = 0.0_f64;
        let mut hi = self.model.vth0 + 5.0;
        // Hoisted replica of [`Self::drain_current`]: every quantity that does
        // not depend on `vgs` is computed once, with the exact expressions the
        // per-call version uses, so each iteration sees bit-identical values
        // while skipping the redundant sqrt/exp work (the bisection runs this
        // ~40 times per bias point).
        let m = &self.model;
        let w_eff = self.w_eff();
        let l_eff = self.l_eff();
        let kp = m.kp();
        let beta = kp * w_eff / l_eff;
        let phi_f2 = 0.7;
        let vth = m.vth0 + m.gamma * ((phi_f2 + vsb.max(0.0)).sqrt() - phi_f2.sqrt());
        let lambda = self.lambda();
        let n = m.subthreshold_n;
        let nvt = n * VT_THERMAL;
        let i0 = beta * n * VT_THERMAL * VT_THERMAL * 2.0;
        let drain_factor = 1.0 - (-vds / VT_THERMAL).exp();
        let clm = 1.0 + lambda * vds;
        let f = |vgs: f64| {
            let vov = vgs - vth;
            let vdsat = vov.max(0.0);
            let id = if vov <= 0.0 {
                (i0 * (vov / nvt).exp() * drain_factor).max(0.0)
            } else if vds < vdsat {
                (beta * (vov * vds - 0.5 * vds * vds) * clm).max(0.0)
            } else {
                0.5 * beta * vov * vov * clm
            };
            id - id_target
        };
        if f(hi) < 0.0 {
            return Err(SpiceError::DcNoConvergence {
                iterations: 0,
                residual: -f(hi),
            });
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if f(mid) > 0.0 {
                hi = mid;
            } else {
                lo = mid;
            }
            if hi - lo < 1e-12 {
                break;
            }
        }
        Ok(0.5 * (lo + hi))
    }
}

/// One bias point for [`vgs_for_current_lanes`]: a device and the arguments
/// of its [`Mosfet::vgs_for_current`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiasRequest {
    /// The device to bias.
    pub device: Mosfet,
    /// Target drain current magnitude (A).
    pub id_target: f64,
    /// Drain-source voltage magnitude (V).
    pub vds: f64,
    /// Source-bulk voltage magnitude (V).
    pub vsb: f64,
}

/// The `vgs`-independent quantities of one bisection, computed with exactly
/// the expressions of [`Mosfet::vgs_for_current`].
struct Hoisted {
    vth: f64,
    nvt: f64,
    i0: f64,
    drain_factor: f64,
    beta: f64,
    clm: f64,
}

impl Hoisted {
    fn new(d: &Mosfet, vds: f64, vsb: f64) -> Self {
        let m = &d.model;
        let w_eff = d.w_eff();
        let l_eff = d.l_eff();
        let kp = m.kp();
        let beta = kp * w_eff / l_eff;
        let phi_f2 = 0.7;
        let vth = m.vth0 + m.gamma * ((phi_f2 + vsb.max(0.0)).sqrt() - phi_f2.sqrt());
        let lambda = d.lambda();
        let n = m.subthreshold_n;
        Self {
            vth,
            nvt: n * VT_THERMAL,
            i0: beta * n * VT_THERMAL * VT_THERMAL * 2.0,
            drain_factor: 1.0 - (-vds / VT_THERMAL).exp(),
            beta,
            clm: 1.0 + lambda * vds,
        }
    }

    /// Drain current at `vgs`, as the scalar bisection computes it.
    fn current(&self, vgs: f64, vds: f64) -> f64 {
        let vov = vgs - self.vth;
        let vdsat = vov.max(0.0);
        if vov <= 0.0 {
            (self.i0 * (vov / self.nvt).exp() * self.drain_factor).max(0.0)
        } else if vds < vdsat {
            (self.beta * (vov * vds - 0.5 * vds * vds) * self.clm).max(0.0)
        } else {
            0.5 * self.beta * vov * vov * self.clm
        }
    }
}

/// One group of [`LANES`] doubles.
type Lane = [f64; LANES];

/// Structure-of-arrays state of up to [`LANES`] bisections.
#[derive(Default)]
struct BisectLanes {
    vth: Lane,
    nvt: Lane,
    i0: Lane,
    drain_factor: Lane,
    beta: Lane,
    clm: Lane,
    vds: Lane,
    target: Lane,
    lo: Lane,
    hi: Lane,
    /// All-ones while the lane is still bisecting.
    active: [u64; LANES],
}

/// Solves up to [`LANES`] bias points together; `out[k]` receives exactly —
/// bit for bit, errors included — what
/// `requests[k].device.vgs_for_current(id_target, vds, vsb)` returns.
///
/// Each lane replays the scalar bisection's operation sequence: the three
/// operating regions are evaluated branch-free and selected per lane, `exp`
/// runs only for lanes currently in subthreshold, and a lane freezes once
/// `hi - lo < 1e-12`, as the scalar loop breaks. The loop ends when every
/// lane is frozen or after the scalar's 200 iterations.
///
/// # Panics
///
/// Panics if `requests` holds more than [`LANES`] entries or `out` is not
/// the same length as `requests`.
pub fn vgs_for_current_lanes(requests: &[BiasRequest], out: &mut [Result<f64, SpiceError>]) {
    vgs_for_current_lanes_on(Kernel::detect(), requests, out);
}

/// [`vgs_for_current_lanes`] on an explicitly chosen compiled kernel — every
/// kernel returns the same bits; this exists so tests can cover each one.
///
/// # Panics
///
/// Panics as [`vgs_for_current_lanes`] does, and if the running CPU does not
/// support `kernel`.
pub fn vgs_for_current_lanes_on(
    kernel: Kernel,
    requests: &[BiasRequest],
    out: &mut [Result<f64, SpiceError>],
) {
    assert!(
        requests.len() <= LANES,
        "at most {LANES} bias points per call"
    );
    assert_eq!(requests.len(), out.len(), "one result slot per request");
    assert!(kernel.is_supported(), "kernel {kernel:?} unsupported here");
    let mut s = BisectLanes::default();
    let mut solved = [false; LANES];
    for (l, (r, slot)) in requests.iter().zip(out.iter_mut()).enumerate() {
        if r.id_target <= 0.0 {
            *slot = Err(SpiceError::InvalidElement {
                reason: format!("target current must be positive, got {}", r.id_target),
            });
            continue;
        }
        let h = Hoisted::new(&r.device, r.vds, r.vsb);
        let hi = r.device.model.vth0 + 5.0;
        let f_hi = h.current(hi, r.vds) - r.id_target;
        if f_hi < 0.0 {
            *slot = Err(SpiceError::DcNoConvergence {
                iterations: 0,
                residual: -f_hi,
            });
            continue;
        }
        s.vth[l] = h.vth;
        s.nvt[l] = h.nvt;
        s.i0[l] = h.i0;
        s.drain_factor[l] = h.drain_factor;
        s.beta[l] = h.beta;
        s.clm[l] = h.clm;
        s.vds[l] = r.vds;
        s.target[l] = r.id_target;
        s.lo[l] = 0.0;
        s.hi[l] = hi;
        s.active[l] = !0;
        solved[l] = true;
    }
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `is_supported` confirmed AVX-512F above.
        Kernel::Avx512 => unsafe { bisect_lanes_avx512(&mut s) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `is_supported` confirmed AVX2 above.
        Kernel::Avx2 => unsafe { bisect_lanes_avx2(&mut s) },
        Kernel::Generic => bisect_lanes_impl(&mut s),
    }
    for (l, slot) in out.iter_mut().enumerate() {
        if solved[l] {
            *slot = Ok(0.5 * (s.lo[l] + s.hi[l]));
        }
    }
}

/// All-ones when `c` holds, zero otherwise.
#[inline(always)]
fn mask(c: bool) -> u64 {
    u64::from(c).wrapping_neg()
}

/// Bitwise select: `a` where `m` is all-ones, `b` where it is zero.
#[inline(always)]
fn select(m: u64, a: f64, b: f64) -> f64 {
    f64::from_bits((a.to_bits() & m) | (b.to_bits() & !m))
}

/// The lane bisection. Lane state and every branch are bit masks and
/// bitwise selects, which the vectorizer turns into straight-line SIMD; a
/// `bool`-driven formulation of the same loop compiled to scalar code.
#[inline(always)]
fn bisect_lanes_impl(s: &mut BisectLanes) {
    const L: usize = LANES;
    for _ in 0..200 {
        if s.active.iter().fold(0, |any, &a| any | a) == 0 {
            break;
        }
        let mut mid = [0.0f64; L];
        let mut vov = [0.0f64; L];
        let mut needs_exp = 0u64;
        for l in 0..L {
            mid[l] = 0.5 * (s.lo[l] + s.hi[l]);
            vov[l] = mid[l] - s.vth[l];
            needs_exp |= s.active[l] & mask(vov[l] <= 0.0);
        }
        // The only transcendental of the loop, evaluated only for active
        // lanes in subthreshold — rare once the bracket has closed in.
        let mut sub = [0.0f64; L];
        if needs_exp != 0 {
            for l in 0..L {
                if s.active[l] != 0 && vov[l] <= 0.0 {
                    sub[l] = (s.i0[l] * (vov[l] / s.nvt[l]).exp() * s.drain_factor[l]).max(0.0);
                }
            }
        }
        for l in 0..L {
            let v = vov[l];
            let vds = s.vds[l];
            let vdsat = v.max(0.0);
            let triode = (s.beta[l] * (v * vds - 0.5 * vds * vds) * s.clm[l]).max(0.0);
            let sat = 0.5 * s.beta[l] * v * v * s.clm[l];
            let id = select(
                mask(v <= 0.0),
                sub[l],
                select(mask(vds < vdsat), triode, sat),
            );
            let up = mask(id - s.target[l] > 0.0);
            let a = s.active[l];
            let hi = select(a & up, mid[l], s.hi[l]);
            let lo = select(a & !up, mid[l], s.lo[l]);
            s.hi[l] = hi;
            s.lo[l] = lo;
            s.active[l] = a & !mask(hi - lo < 1e-12);
        }
    }
}

/// # Safety
///
/// The running CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn bisect_lanes_avx512(s: &mut BisectLanes) {
    bisect_lanes_impl(s);
}

/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn bisect_lanes_avx2(s: &mut BisectLanes) {
    bisect_lanes_impl(s);
}

/// Returns a representative 0.35 µm model card for the requested polarity.
///
/// Values are textbook-level approximations of a 0.35 µm CMOS process
/// (3.3 V supply): |Vth0| ≈ 0.55/0.65 V, tox ≈ 7.6 nm.
pub fn model_035um(mos_type: MosType) -> MosModel {
    match mos_type {
        MosType::Nmos => MosModel {
            mos_type,
            vth0: 0.55,
            u0: 0.0430,
            tox: 7.6e-9,
            lambda_l: 0.06e-6,
            ld: 0.03e-6,
            wd: 0.02e-6,
            cj: 9.0e-4,
            cjsw: 2.8e-10,
            gamma: 0.58,
            subthreshold_n: 1.4,
        },
        MosType::Pmos => MosModel {
            mos_type,
            vth0: 0.65,
            u0: 0.0145,
            tox: 7.6e-9,
            lambda_l: 0.08e-6,
            ld: 0.03e-6,
            wd: 0.02e-6,
            cj: 1.1e-3,
            cjsw: 3.0e-10,
            gamma: 0.52,
            subthreshold_n: 1.45,
        },
    }
}

/// Returns a representative 90 nm model card for the requested polarity.
///
/// Values approximate a 90 nm CMOS process (1.2 V supply): |Vth0| ≈ 0.30/0.33 V,
/// tox ≈ 2.1 nm.
pub fn model_90nm(mos_type: MosType) -> MosModel {
    match mos_type {
        MosType::Nmos => MosModel {
            mos_type,
            vth0: 0.30,
            u0: 0.0280,
            tox: 2.1e-9,
            lambda_l: 0.025e-6,
            ld: 0.008e-6,
            wd: 0.005e-6,
            cj: 1.1e-3,
            cjsw: 1.0e-10,
            gamma: 0.35,
            subthreshold_n: 1.5,
        },
        MosType::Pmos => MosModel {
            mos_type,
            vth0: 0.33,
            u0: 0.0110,
            tox: 2.1e-9,
            lambda_l: 0.035e-6,
            ld: 0.008e-6,
            wd: 0.005e-6,
            cj: 1.2e-3,
            cjsw: 1.1e-10,
            gamma: 0.32,
            subthreshold_n: 1.55,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nmos_035(w_um: f64, l_um: f64) -> Mosfet {
        Mosfet::new(
            model_035um(MosType::Nmos),
            MosGeometry::new(w_um * 1e-6, l_um * 1e-6, 1.0).unwrap(),
        )
    }

    #[test]
    fn geometry_validation() {
        assert!(MosGeometry::new(1e-6, 0.35e-6, 1.0).is_ok());
        assert!(MosGeometry::new(-1e-6, 0.35e-6, 1.0).is_err());
        assert!(MosGeometry::new(1e-6, 0.0, 1.0).is_err());
        assert!(MosGeometry::new(1e-6, 0.35e-6, 0.5).is_err());
    }

    #[test]
    fn cox_and_kp_are_physical() {
        let m = model_035um(MosType::Nmos);
        let cox = m.cox();
        // ~4.5 mF/m^2 for 7.6nm oxide
        assert!(cox > 3e-3 && cox < 6e-3, "cox = {cox}");
        assert!(m.kp() > 1e-4 && m.kp() < 3e-4, "kp = {}", m.kp());
    }

    #[test]
    fn saturation_current_follows_square_law() {
        let d = nmos_035(10.0, 1.0);
        let op1 = d.operating_point(0.55 + 0.2, 1.5, 0.0);
        let op2 = d.operating_point(0.55 + 0.4, 1.5, 0.0);
        assert_eq!(op1.region, Region::Saturation);
        assert_eq!(op2.region, Region::Saturation);
        // Doubling Vov should roughly quadruple Id (lambda causes slight deviation).
        let ratio = op2.id / op1.id;
        assert!((ratio - 4.0).abs() < 0.3, "ratio = {ratio}");
    }

    #[test]
    fn gm_matches_finite_difference() {
        let d = nmos_035(20.0, 0.7);
        let vgs = 0.9;
        let vds = 1.2;
        let op = d.operating_point(vgs, vds, 0.0);
        let h = 1e-6;
        let gm_fd = (d.operating_point(vgs + h, vds, 0.0).id
            - d.operating_point(vgs - h, vds, 0.0).id)
            / (2.0 * h);
        assert!(
            (op.gm - gm_fd).abs() / gm_fd < 1e-3,
            "gm {} vs fd {}",
            op.gm,
            gm_fd
        );
    }

    #[test]
    fn gds_matches_finite_difference_in_saturation() {
        let d = nmos_035(20.0, 0.7);
        let vgs = 0.9;
        let vds = 1.5;
        let op = d.operating_point(vgs, vds, 0.0);
        assert_eq!(op.region, Region::Saturation);
        let h = 1e-6;
        let gds_fd = (d.operating_point(vgs, vds + h, 0.0).id
            - d.operating_point(vgs, vds - h, 0.0).id)
            / (2.0 * h);
        assert!(
            (op.gds - gds_fd).abs() / gds_fd < 1e-2,
            "gds {} vs fd {}",
            op.gds,
            gds_fd
        );
    }

    #[test]
    fn regions_are_classified() {
        let d = nmos_035(10.0, 0.35);
        assert_eq!(d.operating_point(0.3, 1.0, 0.0).region, Region::Cutoff);
        assert_eq!(d.operating_point(1.2, 0.2, 0.0).region, Region::Triode);
        assert_eq!(d.operating_point(1.2, 1.5, 0.0).region, Region::Saturation);
    }

    #[test]
    fn cutoff_current_is_tiny_but_positive() {
        let d = nmos_035(10.0, 0.35);
        let op = d.operating_point(0.2, 1.0, 0.0);
        assert!(op.id >= 0.0);
        assert!(op.id < 1e-6);
    }

    #[test]
    fn longer_channel_gives_higher_output_resistance() {
        let short = nmos_035(10.0, 0.35);
        let long = nmos_035(10.0, 1.4);
        // Bias both to the same overdrive.
        let op_s = short.operating_point(0.85, 1.5, 0.0);
        let op_l = long.operating_point(0.85, 1.5, 0.0);
        let ro_s = 1.0 / op_s.gds;
        let ro_l = 1.0 / op_l.gds;
        assert!(ro_l > ro_s, "ro_l {ro_l} should exceed ro_s {ro_s}");
    }

    #[test]
    fn body_effect_raises_threshold() {
        let d = nmos_035(10.0, 0.35);
        let op0 = d.operating_point(1.0, 1.5, 0.0);
        let op1 = d.operating_point(1.0, 1.5, 1.0);
        assert!(op1.vth > op0.vth);
        assert!(op1.id < op0.id);
    }

    #[test]
    fn vgs_for_current_inverts_the_model() {
        // Every model card, with and without body bias, in both saturation
        // and triode: the operating point at the solved vgs carries the
        // target current.
        let target = 100e-6;
        for (card, l) in [
            (model_035um as fn(MosType) -> MosModel, 0.5e-6),
            (model_90nm, 0.18e-6),
        ] {
            for mos_type in [MosType::Nmos, MosType::Pmos] {
                let d = Mosfet::new(card(mos_type), MosGeometry::new(20e-6, l, 1.0).unwrap());
                for vsb in [0.0, 0.3] {
                    for (vds, region) in [(1.0, Region::Saturation), (0.02, Region::Triode)] {
                        let case = format!("{mos_type:?} L={l} vsb={vsb} vds={vds}");
                        let vgs = d.vgs_for_current(target, vds, vsb).expect(&case);
                        let op = d.operating_point(vgs, vds, vsb);
                        assert_eq!(op.region, region, "{case}");
                        assert!((op.id - target).abs() / target < 1e-6, "{case}: {}", op.id);
                    }
                }
            }
        }
    }

    #[test]
    fn vgs_for_current_rejects_bad_input() {
        let d = nmos_035(50.0, 0.5);
        assert!(d.vgs_for_current(-1.0, 1.5, 0.0).is_err());
        assert!(d.vgs_for_current(0.0, 1.5, 0.0).is_err());
        // Unreachable current for a tiny device.
        let tiny = nmos_035(0.5, 10.0);
        assert!(tiny.vgs_for_current(1.0, 1.5, 0.0).is_err());
    }

    #[test]
    fn drain_current_is_bit_identical_to_operating_point() {
        // Seeded LCG grid spanning cutoff, triode and saturation for both
        // polarities and both model cards; the id-only fast path must agree
        // with the full operating-point evaluation bit for bit, and the
        // bisection built on it must land on bitwise-identical vgs values.
        let mut state = 0x9e37_79b9_97f4_a7c5_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let devices = [
            Mosfet::new(
                model_035um(MosType::Nmos),
                MosGeometry::new(20e-6, 0.5e-6, 1.0).unwrap(),
            ),
            Mosfet::new(
                model_035um(MosType::Pmos),
                MosGeometry::new(40e-6, 0.5e-6, 2.0).unwrap(),
            ),
            Mosfet::new(
                model_90nm(MosType::Nmos),
                MosGeometry::new(2e-6, 0.1e-6, 1.0).unwrap(),
            ),
            Mosfet::new(
                model_90nm(MosType::Pmos),
                MosGeometry::new(4e-6, 0.1e-6, 1.0).unwrap(),
            ),
        ];
        let mut regions = [0usize; 3];
        for d in &devices {
            for _ in 0..500 {
                let vgs = -0.5 + 3.0 * next();
                let vds = 3.0 * next();
                let vsb = -0.2 + 1.0 * next();
                let op = d.operating_point(vgs, vds, vsb);
                regions[match op.region {
                    Region::Cutoff => 0,
                    Region::Triode => 1,
                    Region::Saturation => 2,
                }] += 1;
                assert_eq!(
                    d.drain_current(vgs, vds, vsb).to_bits(),
                    op.id.to_bits(),
                    "id mismatch at vgs={vgs} vds={vds} vsb={vsb}"
                );
            }
            for _ in 0..20 {
                let id_target = 1e-6 + 200e-6 * next();
                let vds = 0.2 + 2.0 * next();
                let via_fast = d.vgs_for_current(id_target, vds, 0.0);
                // Reference bisection over the full operating-point id.
                let slow = |id_target: f64, vds: f64, vsb: f64| -> Result<f64, SpiceError> {
                    let mut lo = 0.0_f64;
                    let mut hi = d.model.vth0 + 5.0;
                    let f = |vgs: f64| d.operating_point(vgs, vds, vsb).id - id_target;
                    if f(hi) < 0.0 {
                        return Err(SpiceError::DcNoConvergence {
                            iterations: 0,
                            residual: -f(hi),
                        });
                    }
                    for _ in 0..200 {
                        let mid = 0.5 * (lo + hi);
                        if f(mid) > 0.0 {
                            hi = mid;
                        } else {
                            lo = mid;
                        }
                        if hi - lo < 1e-12 {
                            break;
                        }
                    }
                    Ok(0.5 * (lo + hi))
                };
                match (via_fast, slow(id_target, vds, 0.0)) {
                    (Ok(a), Ok(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!("divergent results: {a:?} vs {b:?}"),
                }
            }
        }
        assert!(
            regions.iter().all(|&c| c > 0),
            "bias grid must exercise all regions, got {regions:?}"
        );
    }

    #[test]
    fn perturbation_shifts_vth_and_current() {
        let base = model_035um(MosType::Nmos);
        let pert = base.perturbed(0.0, 0.05, 0.0, 0.0, 0.0, 0.0, 0.0);
        let g = MosGeometry::new(10e-6, 0.35e-6, 1.0).unwrap();
        let d0 = Mosfet::new(base, g);
        let d1 = Mosfet::new(pert, g);
        let id0 = d0.operating_point(1.0, 1.5, 0.0).id;
        let id1 = d1.operating_point(1.0, 1.5, 0.0).id;
        assert!(id1 < id0, "higher vth must reduce current");
    }

    #[test]
    fn thinner_oxide_raises_current() {
        let base = model_035um(MosType::Nmos);
        let pert = base.perturbed(-0.5e-9, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        let g = MosGeometry::new(10e-6, 0.35e-6, 1.0).unwrap();
        let id0 = Mosfet::new(base, g).operating_point(1.0, 1.5, 0.0).id;
        let id1 = Mosfet::new(pert, g).operating_point(1.0, 1.5, 0.0).id;
        assert!(id1 > id0);
    }

    #[test]
    fn capacitances_scale_with_width() {
        let small = nmos_035(5.0, 0.35);
        let big = nmos_035(50.0, 0.35);
        let op_s = small.operating_point(1.0, 1.5, 0.0);
        let op_b = big.operating_point(1.0, 1.5, 0.0);
        assert!(op_b.cgs > 5.0 * op_s.cgs);
        assert!(op_b.cdb > 5.0 * op_s.cdb);
    }

    #[test]
    fn pmos_models_exist_for_both_nodes() {
        for m in [
            model_035um(MosType::Pmos),
            model_90nm(MosType::Nmos),
            model_90nm(MosType::Pmos),
        ] {
            assert!(m.vth0 > 0.0 && m.tox > 0.0 && m.u0 > 0.0);
        }
        assert!(model_90nm(MosType::Nmos).tox < model_035um(MosType::Nmos).tox);
    }

    #[test]
    fn multiplier_scales_current() {
        let m = model_035um(MosType::Nmos);
        let d1 = Mosfet::new(m, MosGeometry::new(10e-6, 0.35e-6, 1.0).unwrap());
        let d4 = Mosfet::new(m, MosGeometry::new(10e-6, 0.35e-6, 4.0).unwrap());
        let id1 = d1.operating_point(1.0, 1.5, 0.0).id;
        let id4 = d4.operating_point(1.0, 1.5, 0.0).id;
        assert!((id4 / id1 - 4.0).abs() < 0.05);
    }
}
