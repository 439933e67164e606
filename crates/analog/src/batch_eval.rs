//! Shared evaluation plumbing for the benchmark testbenches: the scalar
//! reference path and the batched block path.
//!
//! Both benchmark circuits implement [`SampleCircuit::prepare`]: sizing
//! parse, process-sample application, bias solution, the small-signal half
//! circuit (stamped into any [`ElementSink`]) and the analytic figures —
//! swing, power, area, offset, saturation flags. What differs is how the two
//! paths run it:
//!
//! * [`evaluate_scalar`] is the reference. It solves each bias point with
//!   [`Mosfet::vgs_for_current`](spicelite::mosfet::Mosfet::vgs_for_current),
//!   stamps a [`LinearCircuit`], sweeps it with [`spicelite::ac::sweep`] and
//!   reads the figures of merit through the [`FrequencyResponse`] methods.
//! * [`evaluate_block_batched`] solves all bias points of a sample together
//!   with [`vgs_for_current_lanes`], builds a [`LinearCircuit`] only for the
//!   block's first sample (the template of one [`FactorizedCircuit`]), then
//!   writes every later sample's element values straight into that template
//!   through a [`ValueWriter`](spicelite::batch::ValueWriter), sweeps over
//!   SIMD lanes into a reused buffer, and extracts the figures of merit from
//!   the prefix of the response they depend on ([`foms`]).
//!
//! Each replacement is bit-identical to what it replaces by construction
//! (see `spicelite::batch` and `spicelite::mosfet`), so the two paths
//! produce bitwise-equal performances; the `block_equivalence` and
//! `batch_equivalence` suites pin this, with the scalar path as the oracle.
//!
//! [`FrequencyResponse`]: spicelite::ac::FrequencyResponse

use crate::specs::AmplifierPerformance;
use moheco_process::ProcessSample;
use spicelite::ac::{foms, log_space, sweep};
use spicelite::batch::FactorizedCircuit;
use spicelite::mosfet::{vgs_for_current_lanes, BiasRequest, MosOperatingPoint};
use spicelite::netlist::{ElementSink, LinearCircuit, NodeId};
use std::sync::OnceLock;

/// The AC analysis grid shared by both benchmark circuits: 50 log-spaced
/// points from 1 kHz to 30 GHz. The scalar path recomputes it per sample (the
/// historical behaviour); the batched path reuses this cached copy —
/// `log_space` is pure, so the values are identical.
pub(crate) fn sweep_freqs() -> &'static [f64] {
    static FREQS: OnceLock<Vec<f64>> = OnceLock::new();
    FREQS.get_or_init(|| log_space(1e3, 3e10, 50))
}

/// How a sample's bias points are solved.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BiasSolve {
    /// One [`Mosfet::vgs_for_current`](spicelite::mosfet::Mosfet::vgs_for_current)
    /// bisection per device — the reference.
    Scalar,
    /// All devices at once through [`vgs_for_current_lanes`].
    Laned,
}

impl BiasSolve {
    /// Solves every request and evaluates each device's operating point at
    /// its solution. `None` when any device has no bias solution.
    pub fn operating_points<const N: usize>(
        self,
        requests: &[BiasRequest; N],
    ) -> Option<[MosOperatingPoint; N]> {
        let mut vgs = [0.0; N];
        match self {
            BiasSolve::Scalar => {
                for (v, r) in vgs.iter_mut().zip(requests) {
                    *v = r.device.vgs_for_current(r.id_target, r.vds, r.vsb).ok()?;
                }
            }
            BiasSolve::Laned => {
                let mut solved = std::array::from_fn::<_, N, _>(|_| Ok(0.0));
                vgs_for_current_lanes(requests, &mut solved);
                for (v, r) in vgs.iter_mut().zip(solved) {
                    *v = r.ok()?;
                }
            }
        }
        Some(std::array::from_fn(|k| {
            let r = &requests[k];
            r.device.operating_point(vgs[k], r.vds, r.vsb)
        }))
    }
}

/// Everything a testbench knows about one sample before the AC sweep, apart
/// from the netlist it stamped.
pub(crate) struct PreparedSample {
    /// Output node to probe.
    pub out: NodeId,
    /// Analytic output swing (V).
    pub output_swing_v: f64,
    /// Analytic power (W).
    pub power_w: f64,
    /// Analytic area (µm²).
    pub area_um2: f64,
    /// Analytic input-referred offset (V).
    pub offset_v: f64,
    /// Saturation / headroom verdict.
    pub all_saturated: bool,
}

impl PreparedSample {
    /// Combines the analytic figures with the AC figures of merit.
    pub fn into_performance(self, a0_db: f64, gbw_hz: f64, pm_deg: f64) -> AmplifierPerformance {
        AmplifierPerformance {
            a0_db,
            gbw_hz,
            pm_deg,
            output_swing_v: self.output_swing_v,
            power_w: self.power_w,
            area_um2: self.area_um2,
            offset_v: self.offset_v,
            all_saturated: self.all_saturated,
        }
    }
}

/// A benchmark circuit evaluated one process sample at a time.
pub(crate) trait SampleCircuit {
    /// Everything before the AC sweep: sizing parse, process-sample
    /// application, bias solution via `bias`, the small-signal half circuit
    /// stamped into `ckt`, and the analytic figures. `None` means the sample
    /// fails evaluation ([`AmplifierPerformance::failed`]).
    fn prepare<S: ElementSink>(
        &self,
        x: &[f64],
        xi: &ProcessSample,
        bias: BiasSolve,
        ckt: &mut S,
    ) -> Option<PreparedSample>;
}

/// The scalar reference evaluation of one sample.
pub(crate) fn evaluate_scalar<T: SampleCircuit>(
    tb: &T,
    x: &[f64],
    xi: &ProcessSample,
) -> AmplifierPerformance {
    let mut ckt = LinearCircuit::new();
    let Some(p) = tb.prepare(x, xi, BiasSolve::Scalar, &mut ckt) else {
        return AmplifierPerformance::failed();
    };
    let freqs = log_space(1e3, 3e10, 50);
    let Ok(resp) = sweep(&ckt, p.out, &freqs) else {
        return AmplifierPerformance::failed();
    };
    let a0_db = resp.dc_gain_db();
    let (gbw_hz, pm_deg) = match (resp.unity_gain_freq(), resp.phase_margin_deg()) {
        (Ok(f), Ok(pm)) => (f, pm),
        _ => (0.0, 0.0),
    };
    p.into_performance(a0_db, gbw_hz, pm_deg)
}

/// Evaluates a block of process samples of one design through the laned
/// bias solve and a shared factorized AC sweep. Samples whose preparation
/// fails (bad geometry, no bias solution) or whose sweep hits a singular
/// matrix map to [`AmplifierPerformance::failed`], exactly as on the scalar
/// path.
pub(crate) fn evaluate_block_batched<T: SampleCircuit>(
    tb: &T,
    x: &[f64],
    xis: &[ProcessSample],
) -> Vec<AmplifierPerformance> {
    let freqs = sweep_freqs();
    let mut fac: Option<FactorizedCircuit> = None;
    xis.iter()
        .map(|xi| {
            let written = fac.as_mut().map(|f| {
                let mut values = f.writer();
                let p = tb.prepare(x, xi, BiasSolve::Laned, &mut values);
                (p, values.finish())
            });
            let p = match written {
                Some((None, _)) => return AmplifierPerformance::failed(),
                Some((Some(p), true)) => p,
                // The block's first sample builds the template. A netlist
                // whose structure departs from it (the gmb stamp is skipped
                // when gmb <= 0) re-templates the same way.
                _ => {
                    let mut ckt = LinearCircuit::new();
                    let Some(p) = tb.prepare(x, xi, BiasSolve::Laned, &mut ckt) else {
                        return AmplifierPerformance::failed();
                    };
                    fac.insert(FactorizedCircuit::new(&ckt)).load(&ckt);
                    p
                }
            };
            let fac = fac.as_mut().expect("factorized template installed above");
            match fac.sweep_loaded(p.out, freqs) {
                Ok(values) => {
                    let foms = foms(freqs, values);
                    let (gbw_hz, pm_deg) = foms.crossing.unwrap_or((0.0, 0.0));
                    p.into_performance(foms.dc_gain_db, gbw_hz, pm_deg)
                }
                Err(_) => AmplifierPerformance::failed(),
            }
        })
        .collect()
}
