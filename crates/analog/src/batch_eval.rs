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
//!   with [`vgs_for_current_lanes`], writes every sample's element values
//!   straight into a [`FactorizedCircuit`] template through a
//!   [`ValueWriter`](spicelite::batch::ValueWriter), sweeps over SIMD lanes
//!   into a reused buffer, and extracts the figures of merit from the prefix
//!   of the response they depend on ([`foms`]). The template is kept per
//!   thread and reused across blocks, designs and circuits; a
//!   [`LinearCircuit`] is built only when a sample's netlist departs from it
//!   (the first sample on a thread, a switch of circuit, a flipped gmb
//!   stamp), and that netlist becomes the new template.
//!   [`Testbench::evaluate_nominal`] runs here too, as a one-sample block.
//! * [`outcome_block_batched`] runs the same per-sample core (`BlockCore`)
//!   for the pass/fail outcome alone, and skips the sweep and the figures
//!   of merit of a sample an analytic specification already fails.
//!
//! Each replacement is bit-identical to what it replaces by construction
//! (see `spicelite::batch` and `spicelite::mosfet`), so the two paths
//! produce bitwise-equal performances; the `block_equivalence` and
//! `batch_equivalence` suites pin this, with the scalar path as the oracle.
//!
//! [`FrequencyResponse`]: spicelite::ac::FrequencyResponse

use crate::specs::AmplifierPerformance;
use crate::testbench::Testbench;
use moheco_process::ProcessSample;
use spicelite::ac::{foms, log_space, sweep};
use spicelite::batch::FactorizedCircuit;
use spicelite::mosfet::{vgs_for_current_lanes, BiasRequest, MosOperatingPoint};
use spicelite::netlist::{ElementSink, LinearCircuit, NodeId};
use std::cell::Cell;
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
    pub fn performance(&self, a0_db: f64, gbw_hz: f64, pm_deg: f64) -> AmplifierPerformance {
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
    p.performance(a0_db, gbw_hz, pm_deg)
}

thread_local! {
    /// The [`FactorizedCircuit`] template the last block on this thread
    /// left behind. A template holds only a netlist's structure, so it
    /// serves any later block, design or circuit that stamps the same
    /// structure; [`ValueWriter::finish`](spicelite::batch::ValueWriter::finish)
    /// catches every one that does not.
    static TEMPLATE: Cell<Option<FactorizedCircuit>> = const { Cell::new(None) };
}

/// The per-sample core of both block paths: one design's samples in order,
/// through the laned bias solve and one [`FactorizedCircuit`] template that
/// every sample writes its element values into. The template is taken from
/// the thread's slot and returned to it on drop; a sample whose netlist
/// departs from it (or the first sample on a thread) builds a new one.
struct BlockCore<'a, T> {
    tb: &'a T,
    x: &'a [f64],
    fac: Option<FactorizedCircuit>,
}

impl<'a, T: SampleCircuit> BlockCore<'a, T> {
    fn new(tb: &'a T, x: &'a [f64]) -> Self {
        // Taken out of the slot rather than borrowed, so a block nested in
        // another on this thread builds a template of its own.
        let fac = TEMPLATE.take();
        Self { tb, x, fac }
    }

    /// Prepares `xi` and loads its element values into the template. `None`
    /// when preparation fails (bad geometry, no bias solution).
    fn prepare(&mut self, xi: &ProcessSample) -> Option<PreparedSample> {
        let (tb, x) = (self.tb, self.x);
        let written = self.fac.as_mut().map(|f| {
            let mut values = f.writer();
            let p = tb.prepare(x, xi, BiasSolve::Laned, &mut values);
            (p, values.finish())
        });
        match written {
            Some((None, _)) => None,
            Some((Some(p), true)) => Some(p),
            // The first sample on a thread builds the template. A netlist
            // whose structure departs from it (the other circuit; the gmb
            // stamp is skipped when gmb <= 0) re-templates the same way.
            _ => {
                let mut ckt = LinearCircuit::new();
                let p = tb.prepare(x, xi, BiasSolve::Laned, &mut ckt)?;
                builds::record();
                self.fac.insert(FactorizedCircuit::new(&ckt)).load(&ckt);
                Some(p)
            }
        }
    }

    /// Sweeps the sample [`Self::prepare`] just loaded and combines its
    /// figures of merit with `p`'s analytic figures. A singular matrix maps
    /// to [`AmplifierPerformance::failed`].
    fn sweep(&mut self, p: &PreparedSample) -> AmplifierPerformance {
        let freqs = sweep_freqs();
        let fac = self.fac.as_mut().expect("prepare installed the template");
        match fac.sweep_loaded(p.out, freqs) {
            Ok(values) => {
                let foms = foms(freqs, values);
                let (gbw_hz, pm_deg) = foms.crossing.unwrap_or((0.0, 0.0));
                p.performance(foms.dc_gain_db, gbw_hz, pm_deg)
            }
            Err(_) => AmplifierPerformance::failed(),
        }
    }
}

impl<T> Drop for BlockCore<'_, T> {
    fn drop(&mut self) {
        if let Some(fac) = self.fac.take() {
            TEMPLATE.set(Some(fac));
        }
    }
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
    let mut core = BlockCore::new(tb, x);
    xis.iter()
        .map(|xi| match core.prepare(xi) {
            Some(p) => core.sweep(&p),
            None => AmplifierPerformance::failed(),
        })
        .collect()
}

/// The pass/fail outcomes of [`evaluate_block_batched`] under `tb`'s specs,
/// with the AC sweep skipped for every sample whose verdict is already
/// decided.
///
/// `all_met` is a conjunction, and a prepared sample's performance carries
/// its analytic figures unchanged, or is [`AmplifierPerformance::failed`]
/// when the sweep fails. So when the analytic verdict
/// ([`SpecSet::analytic_met`](crate::SpecSet::analytic_met)) fails on the
/// prepared figures and `failed()` fails the specs too, the outcome is 0
/// whatever the sweep would return. Every other sample is swept and judged
/// in full.
pub(crate) fn outcome_block_batched<T: SampleCircuit + Testbench>(
    tb: &T,
    x: &[f64],
    xis: &[ProcessSample],
    out: &mut [f64],
) {
    assert_eq!(xis.len(), out.len(), "outcome buffer must match the block");
    let specs = tb.specs();
    let failed_passes = specs.all_met(&AmplifierPerformance::failed());
    let mut core = BlockCore::new(tb, x);
    for (i, (o, xi)) in out.iter_mut().zip(xis).enumerate() {
        let pass = match core.prepare(xi) {
            None => failed_passes,
            Some(p)
                if !failed_passes
                    && !specs.analytic_met(&p.performance(f64::NAN, f64::NAN, f64::NAN)) =>
            {
                skips::record(i);
                false
            }
            Some(p) => specs.all_met(&core.sweep(&p)),
        };
        *o = if pass { 1.0 } else { 0.0 };
    }
}

/// Which block indices [`outcome_block_batched`] decided without a sweep,
/// on this thread. Recorded in test builds only.
#[cfg(test)]
mod skips {
    use std::cell::RefCell;

    thread_local! {
        static SKIPPED: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    pub fn record(i: usize) {
        SKIPPED.with(|s| s.borrow_mut().push(i));
    }

    /// The indices recorded since the last call.
    pub fn take() -> Vec<usize> {
        SKIPPED.with(|s| std::mem::take(&mut *s.borrow_mut()))
    }
}

#[cfg(not(test))]
mod skips {
    #[inline(always)]
    pub fn record(_: usize) {}
}

/// How many [`FactorizedCircuit`] templates the block paths built on this
/// thread. Counted in test builds only.
#[cfg(test)]
mod builds {
    use std::cell::Cell;

    thread_local! {
        static BUILT: Cell<usize> = const { Cell::new(0) };
    }

    pub fn record() {
        BUILT.set(BUILT.get() + 1);
    }

    /// The builds counted since the last call.
    pub fn take() -> usize {
        BUILT.take()
    }
}

#[cfg(not(test))]
mod builds {
    #[inline(always)]
    pub fn record() {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::SpecTarget;
    use crate::{FoldedCascode, TelescopicTwoStage};
    use moheco_process::ProcessSampler;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// How often each way of failing turned up.
    #[derive(Default, Debug)]
    struct Coverage {
        /// Samples failing each analytic target (`SpecTarget as usize`).
        analytic: [usize; 7],
        saturation: usize,
        /// Samples whose only analytic failure is saturation.
        saturation_alone: usize,
        /// Prepared samples that fail only an A0/GBW/PM spec.
        sweep_only: usize,
        passed: usize,
        unprepared: usize,
    }

    /// Runs `outcome_block` over seeded designs spread around the reference
    /// and checks every outcome against `all_met(evaluate(..))`, and every
    /// skip against the analytic verdict of the scalar path's preparation.
    fn check_outcomes<T: SampleCircuit + Testbench>(tb: &T, seed: u64, spread: f64) -> Coverage {
        let specs = tb.specs();
        assert!(!specs.all_met(&AmplifierPerformance::failed()));
        let sampler = ProcessSampler::new(tb.technology().clone(), tb.num_devices());
        let mut rng = StdRng::seed_from_u64(seed);
        let reference = tb.reference_design();
        let mut cov = Coverage::default();
        for d in 0..40 {
            let x: Vec<f64> = if d == 0 {
                reference.clone()
            } else if d == 1 {
                // A negative width fails preparation on every sample.
                let mut x = reference.clone();
                x[0] = -1.0;
                x
            } else {
                reference
                    .iter()
                    .zip(tb.bounds())
                    .map(|(&r, (lo, hi))| {
                        (r * (1.0 + spread * (2.0 * rng.gen::<f64>() - 1.0))).clamp(lo, hi)
                    })
                    .collect()
            };
            let xis: Vec<_> = (0..13)
                .map(|_| {
                    let u: Vec<f64> = (0..sampler.dimension()).map(|_| rng.gen()).collect();
                    sampler.from_unit_point(&u)
                })
                .collect();
            let mut out = vec![f64::NAN; xis.len()];
            skips::take();
            tb.outcome_block(&x, &xis, &mut out);
            let skipped = skips::take();
            for (i, xi) in xis.iter().enumerate() {
                let perf = tb.evaluate(&x, xi);
                let want = if specs.all_met(&perf) { 1.0 } else { 0.0 };
                assert_eq!(out[i], want, "{} design {d} sample {i}", tb.name());
                let prepared = tb.prepare(&x, xi, BiasSolve::Scalar, &mut LinearCircuit::new());
                let Some(p) = prepared else {
                    cov.unprepared += 1;
                    assert!(!skipped.contains(&i), "design {d} sample {i}");
                    continue;
                };
                // The analytic verdict, judged here spec by spec.
                let figures = p.performance(f64::NAN, f64::NAN, f64::NAN);
                let mut failing = 0;
                for s in specs.specs.iter().filter(|s| !s.target.from_sweep()) {
                    if !s.is_met(&figures) {
                        cov.analytic[s.target as usize] += 1;
                        failing += 1;
                    }
                }
                let unsaturated = specs.require_saturation && !p.all_saturated;
                cov.saturation += usize::from(unsaturated);
                cov.saturation_alone += usize::from(unsaturated && failing == 0);
                let analytic_fails = unsaturated || failing > 0;
                assert_eq!(
                    skipped.contains(&i),
                    analytic_fails,
                    "{} design {d} sample {i}: skip must follow the analytic verdict",
                    tb.name()
                );
                cov.sweep_only += usize::from(!analytic_fails && want == 0.0);
                cov.passed += usize::from(want == 1.0);
            }
        }
        cov
    }

    #[test]
    fn outcome_block_skips_exactly_the_analytically_failed_sweeps() {
        // Between them the two circuits fail every analytic spec kind on
        // some samples (the telescopic power bound is out of reach), and
        // each has samples failing saturation alone and A0/GBW/PM alone.
        let cov = check_outcomes(&TelescopicTwoStage::new(), 13, 0.4);
        eprintln!("telescopic {cov:?}");
        for target in [
            SpecTarget::OutputSwingV,
            SpecTarget::AreaUm2,
            SpecTarget::OffsetV,
        ] {
            assert!(cov.analytic[target as usize] > 0, "no {target:?} failure");
        }
        assert!(cov.saturation_alone > 0 && cov.sweep_only > 0 && cov.passed > 0);
        assert!(cov.unprepared > 0);
        let cov = check_outcomes(&FoldedCascode::new(), 13, 0.4);
        eprintln!("folded {cov:?}");
        assert!(
            cov.analytic[SpecTarget::PowerW as usize] > 0,
            "no power failure"
        );
        assert!(cov.saturation_alone > 0 && cov.sweep_only > 0 && cov.passed > 0);
        assert!(cov.unprepared > 0);
    }

    /// `evaluate_block` bits against the scalar loop; NaN payloads are
    /// unspecified (see `spicelite::batch`), so NaN matches any NaN.
    fn assert_matches_scalar<T: Testbench>(tb: &T, x: &[f64], xis: &[ProcessSample], ctx: &str) {
        let got = tb.evaluate_block(x, xis);
        assert_eq!(got.len(), xis.len());
        for (i, (g, xi)) in got.iter().zip(xis).enumerate() {
            let w = tb.evaluate(x, xi);
            let fields = |p: &AmplifierPerformance| {
                [
                    p.a0_db,
                    p.gbw_hz,
                    p.pm_deg,
                    p.output_swing_v,
                    p.power_w,
                    p.area_um2,
                    p.offset_v,
                ]
            };
            for (a, b) in fields(g).into_iter().zip(fields(&w)) {
                let same = a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
                assert!(same, "{ctx} sample {i}: {a} vs {b}");
            }
            assert_eq!(g.all_saturated, w.all_saturated, "{ctx} sample {i}");
        }
    }

    fn assert_outcomes_match_scalar<T: Testbench>(
        tb: &T,
        x: &[f64],
        xis: &[ProcessSample],
        ctx: &str,
    ) {
        let mut out = vec![f64::NAN; xis.len()];
        tb.outcome_block(x, xis, &mut out);
        for (i, (o, xi)) in out.iter().zip(xis).enumerate() {
            let want = if tb.specs().all_met(&tb.evaluate(x, xi)) {
                1.0
            } else {
                0.0
            };
            assert_eq!(*o, want, "{ctx} sample {i}");
        }
    }

    #[test]
    fn template_reuse_across_blocks_designs_and_circuits_keeps_the_scalar_bits() {
        let tele = TelescopicTwoStage::new();
        let fold = FoldedCascode::new();
        let tele_sampler = ProcessSampler::new(tele.technology().clone(), tele.num_devices());
        let fold_sampler = ProcessSampler::new(fold.technology().clone(), fold.num_devices());
        assert_ne!(tele_sampler.dimension(), fold_sampler.dimension());
        let mut rng = StdRng::seed_from_u64(32);
        // One set of sample buffers for both technologies, as
        // `CircuitBench::simulate_block` keeps per thread: every block is
        // mapped into buffers the other technology filled last.
        let mut buffers: Vec<ProcessSample> = Vec::new();
        let mut block = |sampler: &ProcessSampler, nan_at: Option<(usize, usize)>| {
            let n = 13;
            buffers.resize_with(n, || ProcessSample::nominal(0, 0));
            for (i, xi) in buffers.iter_mut().enumerate() {
                let mut u: Vec<f64> = (0..sampler.dimension()).map(|_| rng.gen()).collect();
                if let Some((sample, coord)) = nan_at {
                    if i == sample {
                        u[coord] = f64::NAN;
                    }
                }
                sampler.from_unit_point_into(&u, xi);
                let want = sampler.from_unit_point(&u);
                assert_eq!(xi.inter.len(), want.inter.len());
                assert_eq!(xi.intra.len(), want.intra.len());
                let flat = |s: &ProcessSample| -> Vec<u64> {
                    s.inter
                        .iter()
                        .chain(s.intra.as_flattened())
                        .map(|v| if v.is_nan() { f64::NAN } else { *v }.to_bits())
                        .collect()
                };
                assert_eq!(flat(xi), flat(&want), "sample {i}");
            }
            buffers.clone()
        };

        let tele_x = tele.reference_design();
        let mut tele_y = tele_x.clone();
        tele_y[11] *= 1.3;
        let fold_x = fold.reference_design();
        let mut fold_bad = fold_x.clone();
        fold_bad[0] = -1.0;

        builds::take();
        let xis = block(&tele_sampler, None);
        assert_outcomes_match_scalar(&tele, &tele_x, &xis, "telescopic x");
        assert_eq!(builds::take(), 1, "the thread's first block builds");
        let xis = block(&tele_sampler, None);
        assert_matches_scalar(&tele, &tele_y, &xis, "telescopic y");
        assert_eq!(builds::take(), 0, "a new design reuses the template");
        let xis = block(&fold_sampler, None);
        assert_outcomes_match_scalar(&fold, &fold_x, &xis, "folded x");
        assert_eq!(builds::take(), 1, "the other circuit re-templates once");
        let xis = block(&fold_sampler, None);
        assert_matches_scalar(&fold, &fold_bad, &xis, "folded, negative width");
        let failed = vec![AmplifierPerformance::failed(); xis.len()];
        assert_eq!(fold.evaluate_block(&fold_bad, &xis), failed);
        assert_eq!(builds::take(), 0);
        let xis = block(&fold_sampler, None);
        assert_outcomes_match_scalar(&fold, &fold_x, &xis, "folded after a failure");
        assert_eq!(builds::take(), 0, "a failed design leaves the template");

        // A NaN threshold mismatch makes a device's gmb NaN, so its gmb
        // stamp drops out and the netlist departs from the template.
        let xis = block(&tele_sampler, None);
        let mut ckt = LinearCircuit::new();
        tele.prepare(&tele_x, &xis[0], BiasSolve::Scalar, &mut ckt)
            .expect("the reference design prepares");
        let template = FactorizedCircuit::new(&ckt);
        let n_inter = tele.technology().num_inter_die();
        let flips = (0..tele.num_devices()).find(|&d| {
            let mut xi = xis[0].clone();
            xi.intra[d][1] = f64::NAN;
            let mut ckt = LinearCircuit::new();
            tele.prepare(&tele_x, &xi, BiasSolve::Scalar, &mut ckt)
                .is_some_and(|_| !template.matches(&ckt))
        });
        let d = flips.expect("some device's NaN mismatch flips the gmb stamp");
        builds::take();
        let xis = block(&tele_sampler, Some((5, n_inter + 4 * d + 1)));
        assert_matches_scalar(&tele, &tele_x, &xis, "telescopic gmb flip");
        assert_outcomes_match_scalar(&tele, &tele_x, &xis, "telescopic gmb flip");
        // Circuit switch, flip, flip back; then the flip and back again.
        assert_eq!(builds::take(), 5);
        let xis = block(&tele_sampler, None);
        assert_matches_scalar(&tele, &tele_y, &xis, "telescopic after the flip");
        assert_eq!(builds::take(), 0, "the flip restored the template");
    }
}
