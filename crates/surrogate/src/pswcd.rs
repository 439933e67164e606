//! Performance-specific worst-case design (PSWCD) baseline.
//!
//! §3.4 of the paper discusses why PSWCD methods over-design: each
//! specification's worst case is found as a *separate* optimization over the
//! process parameters, and a design is only accepted when it meets every
//! specification at its own worst case. Because the individual worst-case
//! process points generally cannot occur simultaneously, their combination is
//! pessimistic — designs with perfectly acceptable Monte-Carlo yield get
//! rejected.
//!
//! The implementation searches the worst case of each spec by random probes
//! of the ±k·σ box over the inter-die and mismatch variables (the nominal
//! point first). Each spec's probes are judged as one batched
//! [`Testbench::evaluate_block`] call, and the Monte-Carlo yield of
//! [`overdesign_comparison`] as one [`Testbench::outcome_block`] call.

use moheco_analog::Testbench;
use moheco_process::ProcessSample;
use rand::Rng;

/// Configuration of the PSWCD analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PswcdConfig {
    /// Worst-case search radius in sigmas (typically 3).
    pub k_sigma: f64,
    /// Number of random probes per specification.
    pub probes: usize,
}

impl Default for PswcdConfig {
    fn default() -> Self {
        Self {
            k_sigma: 3.0,
            probes: 60,
        }
    }
}

/// Outcome of a PSWCD analysis of one design point.
#[derive(Debug, Clone)]
pub struct PswcdReport {
    /// Worst-case normalised margin found for each specification
    /// (same order as the testbench's spec set, saturation excluded).
    pub worst_margins: Vec<f64>,
    /// `true` when every specification passes at its own worst case.
    pub accepted: bool,
    /// Number of circuit simulations spent.
    pub simulations: usize,
}

/// Runs the spec-wise worst-case analysis of design `x`.
pub fn pswcd_analyze<T: Testbench, R: Rng + ?Sized>(
    testbench: &T,
    x: &[f64],
    config: &PswcdConfig,
    rng: &mut R,
) -> PswcdReport {
    let tech = testbench.technology();
    let n_inter = tech.num_inter_die();
    let n_dev = testbench.num_devices();
    let mut worst_margins = vec![f64::INFINITY; testbench.specs().len()];
    let mut simulations = 0usize;

    for (spec, worst) in testbench.specs().specs.iter().zip(&mut worst_margins) {
        // Random search over the ±k sigma box for this spec's worst case.
        let probes: Vec<ProcessSample> = (0..config.probes)
            .map(|probe| {
                let mut sample = ProcessSample::nominal(n_inter, n_dev);
                if probe > 0 {
                    for (j, v) in sample.inter.iter_mut().enumerate() {
                        let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                        let magnitude = rng.gen::<f64>() * config.k_sigma;
                        *v = sign * magnitude * tech.inter_die[j].sigma;
                    }
                    for d in sample.intra.iter_mut() {
                        for z in d.iter_mut() {
                            let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                            *z = sign * rng.gen::<f64>() * config.k_sigma;
                        }
                    }
                }
                sample
            })
            .collect();
        for perf in testbench.evaluate_block(x, &probes) {
            let margin = spec.margin(&perf);
            if margin < *worst {
                *worst = margin;
            }
        }
        simulations += probes.len();
    }

    let accepted = worst_margins.iter().all(|&m| m >= 0.0);
    PswcdReport {
        worst_margins,
        accepted,
        simulations,
    }
}

/// Quantifies PSWCD over-design on one design point: returns
/// `(pswcd_accepted, monte_carlo_yield)`. A high MC yield together with a
/// PSWCD rejection is exactly the over-design case discussed in the paper.
pub fn overdesign_comparison<T: Testbench, R: Rng + ?Sized>(
    testbench: &T,
    x: &[f64],
    mc_samples: usize,
    config: &PswcdConfig,
    rng: &mut R,
) -> (bool, f64) {
    let report = pswcd_analyze(testbench, x, config, rng);
    let sampler = moheco_process::ProcessSampler::new(
        testbench.technology().clone(),
        testbench.num_devices(),
    );
    let samples: Vec<ProcessSample> = (0..mc_samples).map(|_| sampler.sample(rng)).collect();
    let mut outcomes = vec![0.0; mc_samples];
    testbench.outcome_block(x, &samples, &mut outcomes);
    let passes = outcomes.iter().filter(|&&o| o == 1.0).count();
    (report.accepted, passes as f64 / mc_samples.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use moheco_analog::{FoldedCascode, TelescopicTwoStage, Testbench};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn worst_margins_are_no_better_than_nominal() {
        let tb = FoldedCascode::new();
        let x = tb.reference_design();
        let nominal = tb.nominal_margins(&x);
        let mut rng = StdRng::seed_from_u64(3);
        let report = pswcd_analyze(
            &tb,
            &x,
            &PswcdConfig {
                probes: 20,
                ..Default::default()
            },
            &mut rng,
        );
        assert_eq!(report.worst_margins.len(), tb.specs().len());
        for (w, n) in report.worst_margins.iter().zip(&nominal) {
            assert!(w <= n, "worst-case margin {w} cannot exceed nominal {n}");
        }
        assert!(report.simulations >= tb.specs().len() * 20);
    }

    #[test]
    fn pswcd_is_pessimistic_about_a_high_yield_design() {
        // The reference design has a high Monte-Carlo yield, but combining
        // per-spec 3-sigma worst cases rejects it (over-design).
        let tb = FoldedCascode::new();
        let x = tb.reference_design();
        let mut rng = StdRng::seed_from_u64(4);
        let (accepted, mc_yield) = overdesign_comparison(
            &tb,
            &x,
            150,
            &PswcdConfig {
                k_sigma: 3.0,
                probes: 40,
            },
            &mut rng,
        );
        assert!(mc_yield > 0.5, "reference design MC yield {mc_yield}");
        // With 3-sigma worst cases on every variable simultaneously the
        // screen is far more pessimistic than the true yield.
        assert!(
            !accepted || mc_yield > 0.95,
            "pswcd accepted={accepted} while yield={mc_yield}"
        );
    }

    /// [`overdesign_comparison`] as a scalar loop: one [`Testbench::evaluate`]
    /// per probe and per Monte-Carlo sample, drawing from `rng` in the same
    /// order. Returns the worst margins, the analysis's simulation count and
    /// the Monte-Carlo yield.
    fn scalar_reference<T: Testbench>(
        tb: &T,
        x: &[f64],
        mc_samples: usize,
        config: &PswcdConfig,
        rng: &mut StdRng,
    ) -> (Vec<f64>, usize, f64) {
        let tech = tb.technology();
        let mut worst_margins = vec![f64::INFINITY; tb.specs().len()];
        let mut simulations = 0usize;
        for (spec_idx, worst) in worst_margins.iter_mut().enumerate() {
            for probe in 0..config.probes {
                let mut sample = ProcessSample::nominal(tech.num_inter_die(), tb.num_devices());
                if probe > 0 {
                    for (j, v) in sample.inter.iter_mut().enumerate() {
                        let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                        let magnitude = rng.gen::<f64>() * config.k_sigma;
                        *v = sign * magnitude * tech.inter_die[j].sigma;
                    }
                    for d in sample.intra.iter_mut() {
                        for z in d.iter_mut() {
                            let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                            *z = sign * rng.gen::<f64>() * config.k_sigma;
                        }
                    }
                }
                let perf = tb.evaluate(x, &sample);
                simulations += 1;
                let margin = tb.specs().specs[spec_idx].margin(&perf);
                if margin < *worst {
                    *worst = margin;
                }
            }
        }
        let sampler = moheco_process::ProcessSampler::new(tech.clone(), tb.num_devices());
        let mut passes = 0usize;
        for _ in 0..mc_samples {
            let xi = sampler.sample(rng);
            if tb.specs().all_met(&tb.evaluate(x, &xi)) {
                passes += 1;
            }
        }
        (
            worst_margins,
            simulations,
            passes as f64 / mc_samples.max(1) as f64,
        )
    }

    fn check_block_matches_scalar<T: Testbench>(tb: &T, seed: u64) {
        let reference = tb.reference_design();
        let bounds = tb.bounds();
        // The reference sizing, a corner of the design box and a mid-box
        // sizing: feasible, failing and in-between designs.
        let designs = [
            reference.clone(),
            bounds.iter().map(|&(lo, _)| lo).collect(),
            bounds
                .iter()
                .map(|&(lo, hi)| 0.5 * (lo + hi))
                .collect::<Vec<f64>>(),
        ];
        let config = PswcdConfig {
            k_sigma: 3.0,
            probes: 9,
        };
        for (d, x) in designs.iter().enumerate() {
            let rng = || StdRng::seed_from_u64(seed + d as u64);
            let (margins, simulations, mc_yield) = scalar_reference(tb, x, 30, &config, &mut rng());
            let report = pswcd_analyze(tb, x, &config, &mut rng());
            let bits = |v: &[f64]| v.iter().map(|m| m.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&report.worst_margins), bits(&margins), "design {d}");
            assert_eq!(report.simulations, simulations);
            let (accepted, block_yield) = overdesign_comparison(tb, x, 30, &config, &mut rng());
            assert_eq!(accepted, margins.iter().all(|&m| m >= 0.0));
            assert_eq!(block_yield.to_bits(), mc_yield.to_bits(), "design {d}");
        }
    }

    #[test]
    fn block_pswcd_matches_the_scalar_reference_loop() {
        check_block_matches_scalar(&FoldedCascode::new(), 31);
        check_block_matches_scalar(&TelescopicTwoStage::new(), 47);
    }

    #[test]
    fn zero_probes_yields_nominal_margins_only() {
        let tb = FoldedCascode::new();
        let x = tb.reference_design();
        let mut rng = StdRng::seed_from_u64(5);
        let report = pswcd_analyze(
            &tb,
            &x,
            &PswcdConfig {
                probes: 1,
                ..Default::default()
            },
            &mut rng,
        );
        // With a single (nominal) probe per spec the design must be accepted,
        // because the reference design is nominally feasible.
        assert!(report.accepted);
    }
}
