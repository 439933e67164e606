//! Differential suite: `Testbench::evaluate_block` must be bit-identical to
//! the scalar `evaluate` loop for both benchmark circuits — including failure
//! samples — because the engine cache, the estimators and the committed yield
//! baselines all assume the two paths are interchangeable.

use moheco_analog::{AmplifierPerformance, FoldedCascode, TelescopicTwoStage, Testbench};
use moheco_process::ProcessSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_bit_equal(a: &AmplifierPerformance, b: &AmplifierPerformance, ctx: &str) {
    let pairs = [
        ("a0_db", a.a0_db, b.a0_db),
        ("gbw_hz", a.gbw_hz, b.gbw_hz),
        ("pm_deg", a.pm_deg, b.pm_deg),
        ("output_swing_v", a.output_swing_v, b.output_swing_v),
        ("power_w", a.power_w, b.power_w),
        ("area_um2", a.area_um2, b.area_um2),
        ("offset_v", a.offset_v, b.offset_v),
    ];
    for (name, va, vb) in pairs {
        assert_eq!(
            va.to_bits(),
            vb.to_bits(),
            "{ctx}: field {name} diverged: {va} vs {vb}"
        );
    }
    assert_eq!(a.all_saturated, b.all_saturated, "{ctx}: all_saturated");
}

fn check_testbench(tb: &dyn Testbench, designs: &[Vec<f64>], seed: u64, block: usize) {
    let sampler = ProcessSampler::new(tb.technology().clone(), tb.num_devices());
    let mut rng = StdRng::seed_from_u64(seed);
    for (di, x) in designs.iter().enumerate() {
        let xis: Vec<_> = (0..block).map(|_| sampler.sample(&mut rng)).collect();
        let batched = tb.evaluate_block(x, &xis);
        assert_eq!(batched.len(), xis.len());
        for (i, (xi, got)) in xis.iter().zip(&batched).enumerate() {
            let want = tb.evaluate(x, xi);
            assert_bit_equal(got, &want, &format!("{} design {di} sample {i}", tb.name()));
        }
    }
}

#[test]
fn folded_cascode_block_matches_scalar_loop() {
    let tb = FoldedCascode::new();
    let reference = tb.reference_design();
    // A starved design exercises bias-solution failures inside the block.
    let mut starved = reference.clone();
    starved[8] = 50.0;
    let mut hot = reference.clone();
    hot[8] = 500.0;
    check_testbench(&tb, &[reference, starved, hot], 2024, 40);
}

#[test]
fn telescopic_block_matches_scalar_loop() {
    let tb = TelescopicTwoStage::new();
    let reference = tb.reference_design();
    let mins: Vec<f64> = tb.design_variables().iter().map(|v| v.lo).collect();
    let mut small_cc = reference.clone();
    small_cc[11] = 0.2;
    check_testbench(&tb, &[reference, mins, small_cc], 7, 40);
}

#[test]
fn harsh_corner_block_matches_scalar_loop() {
    // Corner technologies scale the statistical spreads, producing more
    // failure samples; the block path must track every one of them.
    let tb = FoldedCascode::with_corner(2.5);
    let x = tb.reference_design();
    check_testbench(&tb, &[x], 99, 60);
}

/// About 100 designs drawn uniformly inside the testbench's bounds, each
/// evaluated as one 13-sample block (the typical block of a paper-budget
/// run) against the scalar loop.
fn check_random_designs(tb: &dyn Testbench, seed: u64) {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let designs: Vec<Vec<f64>> = (0..100)
        .map(|_| {
            tb.design_variables()
                .iter()
                .map(|v| rng.gen_range(v.lo..=v.hi))
                .collect()
        })
        .collect();
    check_testbench(tb, &designs, seed ^ 0x5eed, 13);
}

#[test]
fn folded_cascode_random_designs_match_scalar_loop() {
    check_random_designs(&FoldedCascode::new(), 41);
}

#[test]
fn telescopic_random_designs_match_scalar_loop() {
    check_random_designs(&TelescopicTwoStage::new(), 43);
}

/// `evaluate_nominal` and `nominal_margins` run on the block path; both must
/// return the bits of the scalar `evaluate` at the nominal sample. The
/// designs, evaluated in sequence on one thread so each one meets the
/// template the one before left: the reference, a negative width, the
/// all-minimum corner (starved), then 240 draws: two thirds inside the
/// bounds, one third from a box stretched past them, and every sixth with one
/// coordinate negated, so that preparation fails on some (a negative
/// dimension, an unreachable bias point).
fn check_nominal(tb: &dyn Testbench, seed: u64) {
    use rand::Rng;
    let nominal = ProcessSampler::new(tb.technology().clone(), tb.num_devices()).nominal();
    let reference = tb.reference_design();
    let mut negative = reference.clone();
    negative[0] = -1.0;
    let mins: Vec<f64> = tb.design_variables().iter().map(|v| v.lo).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut designs = vec![reference, negative, mins];
    designs.extend((0..240).map(|d| {
        let mut x: Vec<f64> = tb
            .design_variables()
            .iter()
            .map(|v| match d % 3 {
                2 => rng.gen_range(0.05 * v.lo..=3.0 * v.hi),
                _ => rng.gen_range(v.lo..=v.hi),
            })
            .collect();
        if d % 6 == 5 {
            let k = rng.gen_range(0..x.len());
            x[k] = -x[k];
        }
        x
    }));
    let failed = AmplifierPerformance::failed();
    let mut unprepared = 0;
    for (di, x) in designs.iter().enumerate() {
        let ctx = format!("{} nominal design {di}", tb.name());
        let want = tb.evaluate(x, &nominal);
        assert_bit_equal(&tb.evaluate_nominal(x), &want, &ctx);
        let margins = tb.nominal_margins(x);
        let want_margins = tb.specs().margins(&want);
        assert_eq!(margins.len(), want_margins.len(), "{ctx}");
        for (k, (g, w)) in margins.iter().zip(&want_margins).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{ctx} margin {k}: {g} vs {w}");
        }
        unprepared += usize::from(want == failed);
    }
    assert_eq!(tb.evaluate(&designs[1], &nominal), failed, "negative width");
    assert!(
        unprepared >= 20,
        "{}: {unprepared} failed designs",
        tb.name()
    );
}

#[test]
fn nominal_evaluation_matches_the_scalar_reference() {
    check_nominal(&TelescopicTwoStage::new(), 32);
    check_nominal(&FoldedCascode::new(), 33);
}
