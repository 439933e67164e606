//! The optimal computing budget allocation (OCBA) rule.
//!
//! Given `S` candidate designs with estimated means `J_i` and variances
//! `σ_i²`, and a total simulation budget `T`, OCBA (Chen et al. 2000 — the
//! rule quoted as Eq. (1) in the MOHECO paper) asymptotically maximises the
//! probability of correctly selecting the best design by allocating
//!
//! ```text
//! n_i / n_j = (σ_i / δ_{b,i})² / (σ_j / δ_{b,j})²      i, j ≠ b
//! n_b       = σ_b * sqrt( Σ_{i≠b} n_i² / σ_i² )
//! ```
//!
//! where `b` is the current best design and `δ_{b,i} = J_b - J_i`.
//!
//! In MOHECO the "designs" are the feasible candidate circuit sizings of one
//! population and the "simulations" are Monte-Carlo samples of the yield
//! indicator; the best design is the one with the highest estimated yield.

use std::fmt;

/// Errors returned by the allocation routines.
#[derive(Debug, Clone, PartialEq)]
pub enum OcbaError {
    /// Fewer than two designs were supplied.
    TooFewDesigns {
        /// Number supplied.
        got: usize,
    },
    /// The statistics vectors have mismatched lengths.
    LengthMismatch {
        /// Length of the means vector.
        means: usize,
        /// Length of the variances vector.
        variances: usize,
    },
    /// The total budget is zero.
    ZeroBudget,
    /// A variance was negative or not finite.
    InvalidVariance {
        /// Index of the offending design.
        index: usize,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for OcbaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OcbaError::TooFewDesigns { got } => {
                write!(f, "ocba needs at least two designs, got {got}")
            }
            OcbaError::LengthMismatch { means, variances } => write!(
                f,
                "means ({means}) and variances ({variances}) must have the same length"
            ),
            OcbaError::ZeroBudget => write!(f, "total budget must be positive"),
            OcbaError::InvalidVariance { index, value } => {
                write!(f, "invalid variance {value} for design {index}")
            }
        }
    }
}

impl std::error::Error for OcbaError {}

/// Maps a non-finite mean (NaN or an infinity) to the worst possible value
/// so comparisons against it are total and it can never win a best-design
/// selection. Finite means pass through unchanged.
fn finite_or_worst(mean: f64) -> f64 {
    if mean.is_finite() {
        mean
    } else {
        f64::NEG_INFINITY
    }
}

/// Computes the OCBA allocation ratios for a total budget of `total` new
/// simulations, maximising the mean (use negated means to minimise).
///
/// Returns the *target cumulative* number of simulations for each design such
/// that the targets sum to `total`. Degenerate situations are regularised:
/// zero variances are floored at a small epsilon and zero mean-differences at
/// a fraction of the smallest non-zero difference, matching common OCBA
/// implementations.
///
/// # Errors
///
/// Returns [`OcbaError`] on invalid input (fewer than two designs, length
/// mismatch, zero budget or negative variance).
pub fn allocate(means: &[f64], variances: &[f64], total: usize) -> Result<Vec<usize>, OcbaError> {
    if means.len() != variances.len() {
        return Err(OcbaError::LengthMismatch {
            means: means.len(),
            variances: variances.len(),
        });
    }
    let mut scratch = AllocScratch::default();
    scratch.targets(means.len(), |i| means[i], |i| variances[i], total)?;
    Ok(scratch.target)
}

/// `2^53`: below it every non-negative integer is an `f64`, so an integer
/// part read back through `u64` is exact.
const EXACT_INT_BOUND: f64 = 9_007_199_254_740_992.0;

/// Ascending order on these keys is "score descending, then index
/// ascending" — the order a stable sort by descending score leaves behind.
/// `score_bits` must be monotone in the score (the bits of a non-negative
/// `f64`, or an integer).
fn rank_key(score_bits: u64, index: usize) -> u128 {
    (u128::from(!score_bits) << 64) | index as u128
}

/// Hands `extra` units round-robin over the indices in `keys`, visited in
/// key order, as `while extra > 0 { out[order[k % len]] += 1; k += 1 }`
/// would. That loop gives every index `extra / len` units plus one more to
/// the first `extra % len` in order, so only the *set* of those first ones
/// matters: a selection picks it without sorting. Keys are distinct (they
/// carry the index), so the set is the same one a stable sort's prefix
/// holds.
fn round_robin(keys: &mut [u128], extra: usize, out: &mut [usize]) {
    let len = keys.len();
    let (laps, top) = (extra / len, extra % len);
    if top > 0 {
        keys.select_nth_unstable(top - 1);
    }
    for (rank, &key) in keys.iter().enumerate() {
        out[key as u64 as usize] += laps + usize::from(rank < top);
    }
}

/// Working memory of the allocation rule, reusable across calls so that a
/// sequential loop runs its rounds without allocating.
///
/// The rule has this one body; [`allocate`] and
/// [`crate::allocate_arm_increment`] are wrappers that hand it fresh
/// buffers. It reproduces the historical rule bit for bit: every float
/// expression and summation order is unchanged, the two stable sorts became
/// selections of the same sets (see [`round_robin`]), and `floor` became a
/// truncating cast only where the two provably agree.
#[derive(Debug, Default)]
pub(crate) struct AllocScratch {
    /// Regularised means, then the mean differences to the best design.
    deltas: Vec<f64>,
    weights: Vec<f64>,
    keys: Vec<u128>,
    /// Cumulative targets, then the shortfalls against them.
    target: Vec<usize>,
}

impl AllocScratch {
    /// The body of [`allocate`] over `s` designs (lengths already agree):
    /// writes the cumulative targets into `self.target`.
    pub(crate) fn targets(
        &mut self,
        s: usize,
        mean: impl Fn(usize) -> f64,
        variance: impl Fn(usize) -> f64,
        total: usize,
    ) -> Result<(), OcbaError> {
        if s < 2 {
            return Err(OcbaError::TooFewDesigns { got: s });
        }
        if total == 0 {
            return Err(OcbaError::ZeroBudget);
        }
        // One pass validates the variances (the first bad index is reported,
        // as before), takes their positive minimum, and picks the best
        // design: the *last* highest mean, as `max_by` picks. Non-finite
        // means (NaN from a degenerate estimate, infinities from an
        // overflowed one) are treated as worst-possible, so a poisoned
        // design can never be selected as `b` and contaminate every delta.
        let sane = &mut self.deltas;
        sane.clear();
        let (mut b, mut best) = (0, f64::NEG_INFINITY);
        let mut var_min = f64::INFINITY;
        for i in 0..s {
            let v = variance(i);
            if v < 0.0 || !v.is_finite() {
                return Err(OcbaError::InvalidVariance { index: i, value: v });
            }
            if v > 0.0 {
                var_min = var_min.min(v);
            }
            let m = finite_or_worst(mean(i));
            if m >= best {
                (b, best) = (i, m);
            }
            sane.push(m);
        }

        // Regularisation floors.
        let var_floor = if var_min.is_finite() {
            var_min * 1e-3
        } else {
            1e-12
        };
        let deltas = sane;
        let mut delta_min = f64::INFINITY;
        for d in deltas.iter_mut() {
            *d = best - *d;
            if *d > 0.0 {
                delta_min = delta_min.min(*d);
            }
        }
        let delta_floor = if delta_min.is_finite() {
            delta_min * 1e-2
        } else {
            1e-6
        };

        // Relative ratios w_i = (sigma_i / delta_i)^2 for i != b.
        let sigma = |i: usize| variance(i).max(var_floor).sqrt();
        let weights = &mut self.weights;
        weights.clear();
        for (i, d) in deltas.iter_mut().enumerate() {
            if i == b {
                weights.push(0.0);
                continue;
            }
            if *d <= 0.0 {
                *d = delta_floor;
            }
            weights.push((sigma(i) / *d).powi(2));
        }
        // n_b proportional to sigma_b * sqrt(sum_i (w_i / sigma_i)^2 * sigma_i^2)
        //  = sigma_b * sqrt(sum_i w_i^2 / sigma_i^2)
        let sum_sq: f64 = (0..s)
            .filter(|&i| i != b)
            .map(|i| (weights[i] * weights[i]) / variance(i).max(var_floor))
            .sum();
        weights[b] = sigma(b) * sum_sq.sqrt();

        let weight_sum: f64 = weights.iter().sum();
        let target = &mut self.target;
        target.clear();
        if weight_sum <= 0.0 || !weight_sum.is_finite() {
            // Fall back to uniform allocation.
            let each = total / s;
            target.resize(s, each);
            for t in &mut target[..total - each * s] {
                *t += 1;
            }
            return Ok(());
        }

        // Convert ratios to integer allocations summing to `total` (largest
        // remainder method). Here `weight_sum` is positive and finite, so
        // every weight is finite and non-negative and each share `r` is
        // finite with `+0.0 <= r`. For such `r`, `r as usize` truncates
        // toward zero, which equals `floor` on non-negative values, and
        // saturates exactly as `r.floor() as usize` does. Below 2^53 the
        // integer part read back through `u64` is exactly `r.floor()`, so
        // the fractional part is the same `f64` too; at or above 2^53 the
        // `floor` is kept. The fraction is never `-0.0` (`x - x` is `+0.0`),
        // so its bits order it like its value.
        let keys = &mut self.keys;
        keys.clear();
        for (i, w) in weights.iter().enumerate() {
            let r = w / weight_sum * total as f64;
            target.push(r as usize);
            let frac = if r < EXACT_INT_BOUND {
                r - (r as u64) as f64
            } else {
                r - r.floor()
            };
            keys.push(rank_key(frac.to_bits(), i));
        }
        let assigned: usize = target.iter().sum();
        if assigned < total {
            round_robin(keys, total - assigned, target);
        }
        Ok(())
    }

    /// Computes the incremental allocation given already-spent samples:
    /// `count(i)` simulations have already been spent on design `i`, and
    /// `delta` *additional* ones are split so that the cumulative totals
    /// track the OCBA-optimal proportions as closely as possible (designs
    /// that already exceed their target receive nothing). Writes the
    /// additional simulations per design, summing to `delta`, into `out`.
    pub(crate) fn increment(
        &mut self,
        s: usize,
        mean: impl Fn(usize) -> f64,
        variance: impl Fn(usize) -> f64,
        count: impl Fn(usize) -> usize,
        delta: usize,
        out: &mut Vec<usize>,
    ) -> Result<(), OcbaError> {
        let spent: usize = (0..s).map(&count).sum();
        let total = spent + delta;
        self.targets(s, mean, variance, total)?;
        // Additional samples: shortfall wrt target, then renormalise to `delta`.
        let shortfall = &mut self.target;
        for (i, t) in shortfall.iter_mut().enumerate() {
            *t = t.saturating_sub(count(i));
        }
        let short_total: usize = shortfall.iter().sum();
        out.clear();
        if short_total == 0 {
            // Everyone is at or above target; spread uniformly.
            let each = delta / s;
            out.resize(s, each);
            for o in &mut out[..delta - each * s] {
                *o += 1;
            }
            return Ok(());
        }
        // The proportional share is non-negative, so the truncating cast is
        // its `floor` (see `targets`).
        out.extend(
            shortfall
                .iter()
                .map(|&sf| ((sf as f64 / short_total as f64) * delta as f64) as usize),
        );
        let assigned: usize = out.iter().sum();
        // Distribute the remainder to the designs with the largest shortfall.
        // Only designs that are actually under their OCBA target may receive
        // remainder units: cycling through the full design list would hand
        // increments to already-over-target designs whenever the remainder
        // exceeds the number of underfunded ones (possible through floating-point
        // rounding of the proportional split at large deltas).
        if assigned < delta {
            let keys = &mut self.keys;
            keys.clear();
            keys.extend(
                shortfall
                    .iter()
                    .enumerate()
                    .filter(|&(_, &sf)| sf > 0)
                    .map(|(i, &sf)| rank_key(sf as u64, i)),
            );
            round_robin(keys, delta - assigned, out);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The incremental rule over `(mean, variance, spent)` designs.
    fn increment(designs: &[(f64, f64, usize)], delta: usize) -> Vec<usize> {
        let mut out = Vec::new();
        AllocScratch::default()
            .increment(
                designs.len(),
                |i| designs[i].0,
                |i| designs[i].1,
                |i| designs[i].2,
                delta,
                &mut out,
            )
            .unwrap();
        out
    }

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(
            allocate(&[1.0], &[1.0], 10),
            Err(OcbaError::TooFewDesigns { .. })
        ));
        assert!(matches!(
            allocate(&[1.0, 2.0], &[1.0], 10),
            Err(OcbaError::LengthMismatch { .. })
        ));
        assert!(matches!(
            allocate(&[1.0, 2.0], &[1.0, 1.0], 0),
            Err(OcbaError::ZeroBudget)
        ));
        assert!(matches!(
            allocate(&[1.0, 2.0], &[1.0, -1.0], 10),
            Err(OcbaError::InvalidVariance { .. })
        ));
    }

    #[test]
    fn allocation_sums_to_total() {
        let means = [0.9, 0.7, 0.5, 0.3];
        let vars = [0.09, 0.21, 0.25, 0.21];
        for total in [10, 100, 997] {
            let a = allocate(&means, &vars, total).unwrap();
            assert_eq!(a.iter().sum::<usize>(), total);
        }
    }

    #[test]
    fn close_competitors_receive_more_budget() {
        // Design 1 is close to the best (0.88 vs 0.9); design 3 is far away.
        let means = [0.90, 0.88, 0.60, 0.30];
        let vars = [0.1, 0.1, 0.1, 0.1];
        let a = allocate(&means, &vars, 1000).unwrap();
        assert!(
            a[1] > a[2] && a[2] > a[3],
            "closer competitors should get more: {a:?}"
        );
        // The best itself also receives a healthy share.
        assert!(a[0] > a[3]);
    }

    #[test]
    fn noisier_designs_receive_more_budget() {
        let means = [0.9, 0.7, 0.7];
        let vars = [0.05, 0.25, 0.05];
        let a = allocate(&means, &vars, 1000).unwrap();
        assert!(a[1] > a[2], "higher variance should get more: {a:?}");
    }

    #[test]
    fn clearly_bad_designs_get_little() {
        // Mirrors Fig. 3 of the paper qualitatively: good candidates hog the
        // budget, bad candidates receive only a small share.
        let means = [0.95, 0.90, 0.85, 0.30, 0.20, 0.10];
        let vars = [0.05, 0.09, 0.13, 0.21, 0.16, 0.09];
        let total = 6 * 35;
        let a = allocate(&means, &vars, total).unwrap();
        let good: usize = a[..3].iter().sum();
        let bad: usize = a[3..].iter().sum();
        assert!(
            good as f64 / total as f64 > 0.6,
            "good designs should receive most of the budget: {a:?}"
        );
        assert!(bad < good);
    }

    #[test]
    fn ties_are_regularised_not_fatal() {
        let means = [0.5, 0.5, 0.5];
        let vars = [0.25, 0.25, 0.25];
        let a = allocate(&means, &vars, 99).unwrap();
        assert_eq!(a.iter().sum::<usize>(), 99);
        // Roughly uniform under complete symmetry.
        for &ai in &a {
            assert!(ai > 10);
        }
    }

    #[test]
    fn zero_variance_designs_do_not_panic() {
        let means = [1.0, 0.9, 0.5];
        let vars = [0.0, 0.0, 0.0];
        let a = allocate(&means, &vars, 30).unwrap();
        assert_eq!(a.iter().sum::<usize>(), 30);
    }

    #[test]
    fn incremental_allocation_tops_up_underfunded_designs() {
        let designs = [(0.9, 0.09, 50), (0.88, 0.10, 15), (0.3, 0.21, 15)];
        let add = increment(&designs, 60);
        assert_eq!(add.iter().sum::<usize>(), 60);
        // The close competitor that is underfunded should receive the most.
        assert!(add[1] >= add[2], "allocation {add:?}");
    }

    #[test]
    fn incremental_handles_overfunded_population() {
        // Everyone already has far more than the target for such a tiny delta.
        let designs = [(0.9, 0.01, 1000), (0.2, 0.01, 1000)];
        let add = increment(&designs, 5);
        assert_eq!(add.iter().sum::<usize>(), 5);
    }

    #[test]
    fn nan_mean_is_never_selected_as_best() {
        // Pre-fix, the NaN mean wins the max_by comparison (partial_cmp
        // returns None -> Equal -> the later element is kept), poisoning
        // every delta and collapsing the allocation to the uniform fallback.
        let a = allocate(&[0.9, 0.7, f64::NAN], &[0.1, 0.1, 0.1], 300).unwrap();
        assert_eq!(a.iter().sum::<usize>(), 300);
        assert_eq!(a[2], 0, "NaN-mean design must receive nothing: {a:?}");
        assert!(
            a[0] > 0 && a[1] > 0,
            "finite designs share the budget: {a:?}"
        );
    }

    #[test]
    fn nan_mean_does_not_poison_the_deltas() {
        // NaN in the *non-best* position: pre-fix the delta of the NaN design
        // is NaN, the weight sum is NaN and every design falls back to the
        // uniform split. Post-fix the finite designs keep their OCBA shares.
        let a = allocate(&[f64::NAN, 0.5, 0.4], &[0.1, 0.04, 0.1], 300).unwrap();
        assert_eq!(a.iter().sum::<usize>(), 300);
        assert_eq!(a[0], 0, "NaN-mean design must receive nothing: {a:?}");
        assert_ne!(a[1], a[2], "finite designs must not be uniform: {a:?}");
        // Infinite means are equally non-finite and equally excluded.
        let b = allocate(&[0.6, f64::INFINITY, 0.5], &[0.1, 0.1, 0.1], 300).unwrap();
        assert_eq!(b[1], 0, "infinite-mean design must receive nothing: {b:?}");
    }

    #[test]
    fn remainder_never_reaches_overfunded_designs() {
        // Design 0 sits far above its OCBA target (an overfunded competitor);
        // every remainder unit of the proportional split must land on a
        // design with a positive shortfall, for any delta.
        for delta in [1, 3, 7, 20, 61, 1000] {
            let designs = [
                (0.9, 0.09, 5000),
                (0.88, 0.10, 15),
                (0.86, 0.12, 15),
                (0.3, 0.21, 15),
            ];
            let add = increment(&designs, delta);
            assert_eq!(add.iter().sum::<usize>(), delta);
            assert_eq!(
                add[0], 0,
                "overfunded design funded at delta {delta}: {add:?}"
            );
        }
        // At large deltas the f64 proportional split rounds down by more
        // than one unit per design, so the remainder exceeds the number of
        // underfunded designs and the pre-fix full-list cycling wraps around
        // into the overfunded competitor.
        let designs = [(0.9, 0.25, 0), (0.2, 0.01, 1_000_000_000_000_000_000)];
        let delta = (1usize << 60) + 127;
        let add = increment(&designs, delta);
        assert_eq!(add.iter().sum::<usize>(), delta);
        assert_eq!(add[1], 0, "overfunded design funded: {add:?}");
    }

    #[test]
    fn error_display() {
        assert!(OcbaError::ZeroBudget.to_string().contains("budget"));
        assert!(OcbaError::TooFewDesigns { got: 1 }
            .to_string()
            .contains("two"));
    }
}
