//! Differential test of the OCBA allocation rule against its historical
//! implementation.
//!
//! The rule in `src` runs in one reusable kernel (fused passes, selections
//! instead of stable sorts, truncating casts instead of `floor`) and must
//! return exactly what the straightforward version below returned: the same
//! grants, or the same error with the same fields. The `reference_*`
//! functions are that version, kept verbatim apart from their names and
//! line wrapping; they are the specification, so do not "fix" them here.

use moheco_ocba::allocation::OcbaError;
use moheco_ocba::arms::Arm;
use moheco_ocba::sequential::{RunningStats, SequentialConfig, SequentialOutcome};
use moheco_ocba::{allocate, allocate_arm_increment, run_sequential_batched};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// The reference rule.
// ---------------------------------------------------------------------------

fn finite_or_worst(mean: f64) -> f64 {
    if mean.is_finite() {
        mean
    } else {
        f64::NEG_INFINITY
    }
}

fn reference_allocate(
    means: &[f64],
    variances: &[f64],
    total: usize,
) -> Result<Vec<usize>, OcbaError> {
    if means.len() != variances.len() {
        return Err(OcbaError::LengthMismatch {
            means: means.len(),
            variances: variances.len(),
        });
    }
    if means.len() < 2 {
        return Err(OcbaError::TooFewDesigns { got: means.len() });
    }
    if total == 0 {
        return Err(OcbaError::ZeroBudget);
    }
    for (i, &v) in variances.iter().enumerate() {
        if v < 0.0 || !v.is_finite() {
            return Err(OcbaError::InvalidVariance { index: i, value: v });
        }
    }

    let s = means.len();
    // Best design: highest mean. Non-finite means (NaN from a degenerate
    // estimate, infinities from an overflowed one) are treated as
    // worst-possible, so a poisoned design can never be selected as `b` and
    // contaminate every delta below.
    let sane: Vec<f64> = means.iter().map(|&m| finite_or_worst(m)).collect();
    let b = sane
        .iter()
        .enumerate()
        .max_by(|a, c| a.1.partial_cmp(c.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0);

    // Regularisation floors.
    let var_floor = variances
        .iter()
        .cloned()
        .filter(|v| *v > 0.0)
        .fold(f64::INFINITY, f64::min);
    let var_floor = if var_floor.is_finite() {
        var_floor * 1e-3
    } else {
        1e-12
    };
    let mut deltas: Vec<f64> = sane.iter().map(|&m| sane[b] - m).collect();
    let delta_floor = deltas
        .iter()
        .cloned()
        .filter(|d| *d > 0.0)
        .fold(f64::INFINITY, f64::min);
    let delta_floor = if delta_floor.is_finite() {
        delta_floor * 1e-2
    } else {
        1e-6
    };
    for (i, d) in deltas.iter_mut().enumerate() {
        if i != b && *d <= 0.0 {
            *d = delta_floor;
        }
    }

    // Relative ratios w_i = (sigma_i / delta_i)^2 for i != b, w_ref for the
    // first non-best design as reference.
    let sigma = |i: usize| variances[i].max(var_floor).sqrt();
    let mut weights = vec![0.0; s];
    for i in 0..s {
        if i == b {
            continue;
        }
        let w = (sigma(i) / deltas[i]).powi(2);
        weights[i] = w;
    }
    // n_b proportional to sigma_b * sqrt(sum_i (w_i / sigma_i)^2 * sigma_i^2)
    //  = sigma_b * sqrt(sum_i w_i^2 / sigma_i^2)
    let sum_sq: f64 = (0..s)
        .filter(|&i| i != b)
        .map(|i| (weights[i] * weights[i]) / variances[i].max(var_floor))
        .sum();
    weights[b] = sigma(b) * sum_sq.sqrt();

    let weight_sum: f64 = weights.iter().sum();
    if weight_sum <= 0.0 || !weight_sum.is_finite() {
        // Fall back to uniform allocation.
        let each = total / s;
        let mut out = vec![each; s];
        let mut rem = total - each * s;
        let mut i = 0;
        while rem > 0 {
            out[i] += 1;
            rem -= 1;
            i = (i + 1) % s;
        }
        return Ok(out);
    }

    // Convert ratios to integer allocations summing to `total` (largest
    // remainder method).
    let raw: Vec<f64> = weights
        .iter()
        .map(|w| w / weight_sum * total as f64)
        .collect();
    let mut alloc: Vec<usize> = raw.iter().map(|r| r.floor() as usize).collect();
    let mut assigned: usize = alloc.iter().sum();
    let mut remainders: Vec<(usize, f64)> = raw
        .iter()
        .enumerate()
        .map(|(i, r)| (i, r - r.floor()))
        .collect();
    remainders.sort_by(|a, c| c.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut k = 0;
    while assigned < total {
        alloc[remainders[k % s].0] += 1;
        assigned += 1;
        k += 1;
    }
    Ok(alloc)
}

/// Summary statistics of one design under simulation: the input of the
/// reference incremental rule (the library's `Arm` without the cap).
#[derive(Debug, Clone, Copy)]
struct DesignStats {
    mean: f64,
    variance: f64,
    samples: usize,
}

impl DesignStats {
    fn new(mean: f64, variance: f64, samples: usize) -> Self {
        Self {
            mean,
            variance,
            samples,
        }
    }
}

/// Computes the incremental allocation given already-spent samples.
///
/// `stats[i].samples` simulations have already been spent on design `i`; the
/// function allocates `delta` *additional* simulations so that the cumulative
/// totals track the OCBA-optimal proportions as closely as possible (designs
/// that already exceed their target receive nothing).
///
/// Returns the number of additional simulations for each design (sums to
/// `delta`).
///
/// # Errors
///
/// Propagates the errors of [`reference_allocate`].
fn reference_allocate_incremental(
    stats: &[DesignStats],
    delta: usize,
) -> Result<Vec<usize>, OcbaError> {
    let means: Vec<f64> = stats.iter().map(|s| s.mean).collect();
    let variances: Vec<f64> = stats.iter().map(|s| s.variance).collect();
    let spent: usize = stats.iter().map(|s| s.samples).sum();
    let total = spent + delta;
    let target = reference_allocate(&means, &variances, total)?;
    // Additional samples: shortfall wrt target, then renormalise to `delta`.
    let shortfall: Vec<usize> = target
        .iter()
        .zip(stats)
        .map(|(&t, s)| t.saturating_sub(s.samples))
        .collect();
    let short_total: usize = shortfall.iter().sum();
    if short_total == 0 {
        // Everyone is at or above target; spread uniformly.
        let s = stats.len();
        let each = delta / s;
        let mut out = vec![each; s];
        let mut rem = delta - each * s;
        let mut i = 0;
        while rem > 0 {
            out[i] += 1;
            rem -= 1;
            i = (i + 1) % s;
        }
        return Ok(out);
    }
    let mut out: Vec<usize> = shortfall
        .iter()
        .map(|&sf| ((sf as f64 / short_total as f64) * delta as f64).floor() as usize)
        .collect();
    let mut assigned: usize = out.iter().sum();
    // Distribute the remainder to the designs with the largest shortfall.
    // Only designs that are actually under their OCBA target may receive
    // remainder units: cycling through the full design list would hand
    // increments to already-over-target designs whenever the remainder
    // exceeds the number of underfunded ones (possible through floating-point
    // rounding of the proportional split at large deltas).
    let mut order: Vec<usize> = (0..stats.len()).filter(|&i| shortfall[i] > 0).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(shortfall[i]));
    let mut k = 0;
    while assigned < delta {
        out[order[k % order.len()]] += 1;
        assigned += 1;
        k += 1;
    }
    Ok(out)
}

fn reference_allocate_arm_increment(arms: &[Arm], delta: usize) -> Result<Vec<usize>, OcbaError> {
    if arms.is_empty() {
        return Err(OcbaError::TooFewDesigns { got: 0 });
    }
    if delta == 0 {
        return Err(OcbaError::ZeroBudget);
    }
    let mut granted: Vec<usize> = if arms.len() == 1 {
        vec![delta.min(arms[0].room())]
    } else {
        let stats: Vec<DesignStats> = arms
            .iter()
            .map(|a| DesignStats::new(a.mean, a.variance, a.count))
            .collect();
        let add = reference_allocate_incremental(&stats, delta)?;
        add.iter()
            .zip(arms)
            .map(|(&n, arm)| n.min(arm.room()))
            .collect()
    };
    // Redistribute what the caps swallowed: one replication per arm per lap,
    // in index order, to arms still below their cap. Deterministic, and
    // identical to the redistribution the sequential design loop always ran.
    let mut leftover = delta - granted.iter().sum::<usize>();
    while leftover > 0 {
        let mut placed = false;
        for (g, arm) in granted.iter_mut().zip(arms) {
            if leftover == 0 {
                break;
            }
            if *g < arm.room() {
                *g += 1;
                leftover -= 1;
                placed = true;
            }
        }
        if !placed {
            break; // every arm is at its cap
        }
    }
    Ok(granted)
}

fn reference_run_sequential_batched<F>(
    num_designs: usize,
    config: SequentialConfig,
    mut simulate_round: F,
) -> Result<SequentialOutcome, OcbaError>
where
    F: FnMut(&[(usize, usize)]) -> Vec<Vec<f64>>,
{
    if num_designs < 2 {
        return Err(OcbaError::TooFewDesigns { got: num_designs });
    }
    let mut stats = vec![RunningStats::new(); num_designs];
    let mut spent = vec![0usize; num_designs];
    let cap = config.per_design_cap.unwrap_or(usize::MAX);
    let mut total_spent = 0usize;

    let mut run_round = |round: &[(usize, usize)],
                         stats: &mut Vec<RunningStats>,
                         spent: &mut Vec<usize>,
                         total_spent: &mut usize| {
        if round.is_empty() {
            return false;
        }
        let outcomes = simulate_round(round);
        debug_assert_eq!(outcomes.len(), round.len(), "one outcome vector per entry");
        let mut progressed = false;
        for (&(d, n), out) in round.iter().zip(&outcomes) {
            debug_assert!(out.len() <= n, "simulator returned more than requested");
            stats[d].extend(out);
            spent[d] += out.len();
            *total_spent += out.len();
            progressed |= !out.is_empty();
        }
        progressed
    };

    // Phase 1: n0 replications each (bounded by the cap), as one round.
    let initial: Vec<(usize, usize)> = (0..num_designs)
        .filter_map(|d| {
            let n = config.n0.min(cap);
            (n > 0).then_some((d, n))
        })
        .collect();
    run_round(&initial, &mut stats, &mut spent, &mut total_spent);

    // Phase 2: incremental OCBA rounds. Each design is an abstract arm with
    // the per-design cap; the arm layer clamps every grant to its cap room
    // and redistributes whatever the caps swallowed to designs that still
    // have room. Without that redistribution, a round whose funded designs
    // are all at `per_design_cap` comes back empty and the loop stops —
    // stranding budget even though other designs are below their cap.
    let mut rounds = 0usize;
    while total_spent < config.total_budget {
        let remaining = config.total_budget - total_spent;
        let delta = config.delta.min(remaining).max(1);
        let arms: Vec<Arm> = stats
            .iter()
            .zip(&spent)
            .map(|(s, &n)| {
                let mut arm = Arm::new(s.mean, s.variance(), n);
                if let Some(c) = config.per_design_cap {
                    arm = arm.with_cap(c);
                }
                arm
            })
            .collect();
        let granted = reference_allocate_arm_increment(&arms, delta)?;
        let round: Vec<(usize, usize)> = granted
            .iter()
            .enumerate()
            .filter_map(|(d, &n)| (n > 0).then_some((d, n)))
            .collect();
        let progressed = run_round(&round, &mut stats, &mut spent, &mut total_spent);
        rounds += 1;
        if !progressed {
            // All designs are capped; nothing more to do.
            break;
        }
    }

    Ok(SequentialOutcome {
        stats,
        spent,
        total_spent,
        rounds,
    })
}

// ---------------------------------------------------------------------------
// Adversarial case generation.
// ---------------------------------------------------------------------------

type Grants = Result<Vec<usize>, OcbaError>;

/// Whole-`Result` equality, with error payloads compared bit for bit (a NaN
/// variance must come back as the same NaN at the same index).
fn same(a: &Grants, b: &Grants) -> bool {
    match (a, b) {
        (
            Err(OcbaError::InvalidVariance { index: i, value: v }),
            Err(OcbaError::InvalidVariance { index: j, value: w }),
        ) => i == j && v.to_bits() == w.to_bits(),
        _ => a == b,
    }
}

/// Design counts biased toward the 1-3 arm edge cases, up to 60.
fn population_size(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..10) {
        0 => rng.gen_range(0..=1),
        1..=3 => rng.gen_range(2..=3),
        _ => rng.gen_range(2..=60),
    }
}

/// Totals from 1 up to 1e16, roughly log-uniform. Past about 1e14 a share
/// moves by a sizeable fraction of a unit when the weight sum moves by one
/// ulp, so a re-ordered summation changes grants; past 2^53 the shares are
/// whole numbers.
fn big_total(rng: &mut StdRng) -> usize {
    let exp = rng.gen_range(0.0..16.0);
    (10f64.powf(exp) as usize).max(1)
}

/// Means of one case: mostly proportions on a coarse grid (so means, and
/// with them fractions, tie), plus NaN and infinities, and sometimes no
/// finite mean at all.
fn means(rng: &mut StdRng, s: usize) -> Vec<f64> {
    let mode = rng.gen_range(0..10);
    (0..s)
        .map(|_| match mode {
            0 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3)],
            1 => 0.5,
            _ => match rng.gen_range(0..20) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3..=11 => rng.gen_range(0..=20) as f64 / 20.0,
                _ => rng.gen(),
            },
        })
        .collect()
}

/// Variances of one case: Bernoulli-like values, exact zeros, 1e-300 and
/// 1e300, and sometimes one invalid entry (negative, NaN or infinite).
fn variances(rng: &mut StdRng, s: usize) -> Vec<f64> {
    let shared = rng.gen_bool(0.15).then(|| rng.gen_range(0.0..0.25));
    let mut v: Vec<f64> = (0..s)
        .map(|_| match (shared, rng.gen_range(0..12)) {
            (Some(v), _) => v,
            (None, 0) => 0.0,
            (None, 1) => 1e-300,
            (None, 2) => 1e300,
            (None, 3..=6) => {
                let p = rng.gen_range(0..=20) as f64 / 20.0;
                p * (1.0 - p)
            }
            _ => rng.gen_range(0.0..0.25),
        })
        .collect();
    if s > 0 && rng.gen_bool(0.08) {
        let bad = [-0.01, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for _ in 0..rng.gen_range(1..=2) {
            let i = rng.gen_range(0..s);
            v[i] = bad[rng.gen_range(0..bad.len())];
        }
    }
    v
}

/// Replications already spent: equal across designs (tied shortfalls),
/// small and ragged, or large (up to 1e12 in total).
fn counts(rng: &mut StdRng, s: usize) -> Vec<usize> {
    match rng.gen_range(0..4) {
        0 => vec![rng.gen_range(0..50); s],
        1 => (0..s).map(|_| rng.gen_range(0..200)).collect(),
        2 => (0..s).map(|_| rng.gen_range(0..5) * 20).collect(),
        _ => (0..s).map(|_| big_total(rng) / 60).collect(),
    }
}

/// A delta: zero, small, or large.
fn delta(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..20) {
        0 => 0,
        1..=14 => rng.gen_range(1..=40),
        _ => big_total(rng),
    }
}

// ---------------------------------------------------------------------------
// The differential tests.
// ---------------------------------------------------------------------------

#[test]
fn allocate_matches_the_reference_rule() {
    let mut rng = StdRng::seed_from_u64(0xA110C);
    for case in 0..20_000 {
        let s = population_size(&mut rng);
        let m = means(&mut rng, s);
        let mut v = variances(&mut rng, s);
        if rng.gen_bool(0.03) {
            v.push(0.1);
        }
        let total = match rng.gen_range(0..20) {
            0 => 0,
            1..=9 => rng.gen_range(1..=2_000),
            _ => big_total(&mut rng),
        };
        let want = reference_allocate(&m, &v, total);
        let got = allocate(&m, &v, total);
        assert!(
            same(&got, &want),
            "case {case}: means {m:?} variances {v:?} total {total}: got {got:?}, want {want:?}"
        );
    }
}

#[test]
fn allocate_arm_increment_matches_the_reference_rule() {
    let mut rng = StdRng::seed_from_u64(0xA125);
    for case in 0..20_000 {
        let s = population_size(&mut rng);
        let m = means(&mut rng, s);
        let v = variances(&mut rng, s);
        let n = counts(&mut rng, s);
        let d = delta(&mut rng);
        let cap_mode = rng.gen_range(0..5);
        let arms: Vec<Arm> = (0..s)
            .map(|i| {
                let arm = Arm::new(m[i], v[i], n[i]);
                match cap_mode {
                    0 => arm,
                    // At or below the count: no room at all.
                    1 => arm.with_cap(n[i].saturating_sub(rng.gen_range(0..3))),
                    // A little room, so deltas overrun the total cap room.
                    2 => arm.with_cap(n[i] + rng.gen_range(0..4)),
                    _ => match rng.gen_range(0..3) {
                        0 => arm,
                        1 => arm.with_cap(n[i]),
                        _ => arm.with_cap(n[i] + rng.gen_range(0..60)),
                    },
                }
            })
            .collect();
        let got = allocate_arm_increment(&arms, d);
        if let Ok(grants) = &got {
            // Whatever the reference says, the grants fill the delta up to
            // the total cap room and respect every cap.
            let room: u128 = arms.iter().map(|a| a.room() as u128).sum();
            let sum: u128 = grants.iter().map(|&g| g as u128).sum();
            assert_eq!(
                sum,
                room.min(d as u128),
                "case {case}: arms {arms:?} delta {d}"
            );
            assert!(
                grants.iter().zip(&arms).all(|(&g, a)| g <= a.room()),
                "case {case}: arms {arms:?} delta {d}: cap broken by {grants:?}"
            );
        }
        // The reference hands out leftover units one per arm per lap, so it
        // is checked only where that loop is bounded: a delta up to 1e5, or
        // no uncapped arm (mode 0 leaves nothing over, modes 1-2 little room).
        if d <= 100_000 || cap_mode < 3 {
            let want = reference_allocate_arm_increment(&arms, d);
            assert!(
                same(&got, &want),
                "case {case}: arms {arms:?} delta {d}: got {got:?}, want {want:?}"
            );
        }
    }
}

/// Deterministic Bernoulli simulator; `ceiling` (if any) truncates what a
/// design may return in total, as a stream cap behind the loop would.
struct Bernoulli {
    probs: Vec<f64>,
    state: u64,
    ceiling: Option<usize>,
    served: Vec<usize>,
}

impl Bernoulli {
    fn new(probs: Vec<f64>, seed: u64, ceiling: Option<usize>) -> Self {
        let served = vec![0; probs.len()];
        Self {
            probs,
            state: seed | 1,
            ceiling,
            served,
        }
    }

    fn round(&mut self, round: &[(usize, usize)]) -> Vec<Vec<f64>> {
        round
            .iter()
            .map(|&(d, n)| {
                let room = self.ceiling.map_or(n, |c| c.saturating_sub(self.served[d]));
                let take = n.min(room);
                self.served[d] += take;
                (0..take)
                    .map(|_| {
                        self.state = self
                            .state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let u = (self.state >> 11) as f64 / (1u64 << 53) as f64;
                        if u < self.probs[d] {
                            1.0
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

#[test]
fn sequential_grant_traces_match_the_reference_loop() {
    let mut rng = StdRng::seed_from_u64(0x5E9);
    for case in 0..300 {
        let s = rng.gen_range(2..=60);
        // Certain passes and failures (zero variance), shared probabilities
        // (tied means) and free ones.
        let probs: Vec<f64> = (0..s)
            .map(|_| match rng.gen_range(0..6) {
                0 => 1.0,
                1 => 0.0,
                2 => 0.9,
                _ => rng.gen(),
            })
            .collect();
        let config = SequentialConfig {
            n0: rng.gen_range(0..=15),
            delta: rng.gen_range(1..=30),
            total_budget: rng.gen_range(1..=40) * s,
            per_design_cap: rng.gen_bool(0.6).then(|| rng.gen_range(1..=120)),
        };
        let ceiling = rng.gen_bool(0.3).then(|| rng.gen_range(0..=100));
        let seed = rng.gen();

        let mut want_trace = Vec::new();
        let mut sim = Bernoulli::new(probs.clone(), seed, ceiling);
        let want = reference_run_sequential_batched(s, config, |round| {
            want_trace.push(round.to_vec());
            sim.round(round)
        })
        .expect("two or more designs");

        let mut got_trace = Vec::new();
        let mut sim = Bernoulli::new(probs, seed, ceiling);
        let got = run_sequential_batched(s, config, |round| {
            got_trace.push(round.to_vec());
            sim.round(round)
        })
        .expect("two or more designs");

        assert_eq!(got_trace, want_trace, "case {case}: {config:?}");
        assert_eq!(
            (&got.spent, got.total_spent, got.rounds),
            (&want.spent, want.total_spent, want.rounds),
            "case {case}"
        );
        let bits = |o: &SequentialOutcome| -> Vec<(u64, u64)> {
            o.stats
                .iter()
                .map(|s| (s.mean.to_bits(), s.variance().to_bits()))
                .collect()
        };
        assert_eq!(bits(&got), bits(&want), "case {case}");
    }
}
