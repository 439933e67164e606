//! Pluggable variance-reduction yield estimators.
//!
//! Plain Monte-Carlo acceptance counting treats every sample the same way:
//! the yield estimate is the pass fraction and its confidence interval comes
//! from the binomial variance `p (1 - p) / n`. That interval width is what
//! actually drives simulation cost — an optimizer keeps sampling until the
//! interval is narrow enough to rank or certify a design — so an estimator
//! that *honestly reports a narrower interval from the same samples* saves
//! `simulate()` calls on the hot path.
//!
//! This module defines the estimator contract ([`YieldEstimator`]) and four
//! implementations selected by [`EstimatorKind`]:
//!
//! | Kind | Block points | Variance formula |
//! |---|---|---|
//! | [`MonteCarloEstimator`] | engine sampling plan (unchanged) | binomial `p(1-p)/n` |
//! | [`StratifiedLhsEstimator`] | Latin Hypercube per block | per-stratum-block pooling (replicate variance of block means) |
//! | [`AntitheticEstimator`] | LHS half-block + mirrored pairs | paired variance (pair means), pooled per block |
//! | [`ImportanceSamplingEstimator`] | mean shift toward the dominant failure spec | weighted sample variance of the per-sample yield contributions |
//!
//! # How estimators plug into the engine
//!
//! An estimator influences two things and nothing else:
//!
//! 1. **Block generation** ([`YieldEstimator::generate_block`]): the unit
//!    points (and, for importance sampling, the likelihood weights) of one
//!    cache block are a pure function of the block's RNG stream, exactly
//!    like the plain plan — so per-`(design, block)` determinism, the
//!    sharded cache and parallel == serial all survive unchanged.
//! 2. **Aggregation** ([`YieldEstimator::estimate`]): indexed outcome values
//!    are condensed into an [`EstimatedYield`] carrying the point estimate
//!    *and* a standard error computed with the estimator's own correct
//!    variance formula.
//!
//! Outcome values are *yield contributions*: for the non-weighted estimators
//! they are the raw pass/fail indicators (0.0 / 1.0); for importance
//! sampling each value is `1 - w · (1 - J)` (see [`weighted_outcome`]), so
//! the plain mean of any outcome vector is an unbiased yield estimate under
//! every estimator. Consumers that only need the point estimate can keep
//! summing outcomes; consumers that need an interval call
//! [`YieldEstimator::estimate`].

use crate::lhs::SamplingPlan;
use crate::oracle::{standard_normal_cdf, standard_normal_quantile};
use crate::yield_est::YieldEstimate;
use rand::rngs::StdRng;

/// z value of a two-sided 95 % normal confidence interval.
pub const Z_95: f64 = 1.96;

/// The variance-reduction estimators `moheco-campaign --estimator` can
/// select.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EstimatorKind {
    /// Plain Monte-Carlo acceptance counting over the engine's sampling plan
    /// (the default; bit-identical to the pre-estimator behaviour).
    #[default]
    MonteCarlo,
    /// Latin-Hypercube stratification with per-stratum-block pooled variance.
    StratifiedLhs,
    /// Antithetic pairs `(u, 1 - u)` with paired variance.
    Antithetic,
    /// Mean-shifted importance sampling toward the dominant failure spec.
    ImportanceSampling,
}

impl EstimatorKind {
    /// Every kind, in CLI order.
    pub const ALL: [EstimatorKind; 4] = [
        EstimatorKind::MonteCarlo,
        EstimatorKind::StratifiedLhs,
        EstimatorKind::Antithetic,
        EstimatorKind::ImportanceSampling,
    ];

    /// Parses a `--estimator` value (`mc`, `lhs`, `antithetic`, `is`).
    ///
    /// # Example
    ///
    /// ```
    /// use moheco_sampling::EstimatorKind;
    ///
    /// assert_eq!(EstimatorKind::parse("lhs"), Some(EstimatorKind::StratifiedLhs));
    /// assert_eq!(EstimatorKind::parse("bogus"), None);
    /// ```
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "mc" => Some(Self::MonteCarlo),
            "lhs" => Some(Self::StratifiedLhs),
            "antithetic" => Some(Self::Antithetic),
            "is" => Some(Self::ImportanceSampling),
            _ => None,
        }
    }

    /// The stable label used by the CLI and the result schema.
    pub fn label(&self) -> &'static str {
        match self {
            Self::MonteCarlo => "mc",
            Self::StratifiedLhs => "lhs",
            Self::Antithetic => "antithetic",
            Self::ImportanceSampling => "is",
        }
    }

    /// Whether this estimator stores fractional likelihood-weighted yield
    /// contributions rather than raw 0/1 pass indicators. Consumers that
    /// reconstruct pass counts from outcome sums (e.g. the two-stage OCBA
    /// loop) must not round weighted sums back to integers.
    ///
    /// # Example
    ///
    /// ```
    /// use moheco_sampling::EstimatorKind;
    ///
    /// assert!(EstimatorKind::ImportanceSampling.weighted_outcomes());
    /// assert!(!EstimatorKind::StratifiedLhs.weighted_outcomes());
    /// ```
    pub fn weighted_outcomes(&self) -> bool {
        matches!(self, Self::ImportanceSampling)
    }

    /// Builds the estimator implementation for an engine whose cache blocks
    /// hold `block_size` samples.
    ///
    /// # Example
    ///
    /// ```
    /// use moheco_sampling::EstimatorKind;
    ///
    /// let est = EstimatorKind::StratifiedLhs.build(50);
    /// assert_eq!(est.kind(), EstimatorKind::StratifiedLhs);
    /// ```
    pub fn build(&self, block_size: usize) -> Box<dyn YieldEstimator> {
        match self {
            Self::MonteCarlo => Box::new(MonteCarloEstimator),
            Self::StratifiedLhs => Box::new(StratifiedLhsEstimator::new(block_size)),
            Self::Antithetic => Box::new(AntitheticEstimator::new(block_size)),
            Self::ImportanceSampling => Box::new(ImportanceSamplingEstimator),
        }
    }
}

/// The unit points (and optional likelihood weights) of one sample block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPoints {
    /// Unit-hypercube points in one row-major buffer: sample `i` of a block
    /// of dimension `dim` is `points[i * dim..(i + 1) * dim]`.
    pub points: Vec<f64>,
    /// Per-sample likelihood weights; empty means all weights are exactly 1
    /// (every estimator except importance sampling).
    pub weights: Vec<f64>,
}

/// A yield estimate with the estimator's own uncertainty quantification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatedYield {
    /// The point estimate of the yield, clamped to `[0, 1]`.
    pub value: f64,
    /// Standard error of the estimate under the estimator's variance formula.
    ///
    /// This is the plug-in (maximum-likelihood) estimate, so degenerate
    /// samples report exactly zero: an all-pass/all-fail sample under the
    /// binomial formula, or coinciding replicate means under the pooled
    /// formulas. Consumers *certifying* a yield from few samples should use
    /// [`YieldEstimate::wilson_interval`](crate::yield_est::YieldEstimate::wilson_interval)
    /// on the counting representation (via `From<EstimatedYield>`), which
    /// keeps a strictly positive width at observed yields of 0 and 1.
    pub std_error: f64,
    /// Number of samples the estimate is based on.
    pub samples: usize,
    /// Which estimator produced the estimate.
    pub kind: EstimatorKind,
}

impl EstimatedYield {
    /// An empty estimate (no samples; value 0).
    pub fn empty(kind: EstimatorKind) -> Self {
        Self {
            value: 0.0,
            std_error: 0.0,
            samples: 0,
            kind,
        }
    }

    /// Confidence-interval half-width at the given z value
    /// ([`Z_95`] for 95 % confidence).
    ///
    /// # Example
    ///
    /// ```
    /// use moheco_sampling::{EstimatedYield, EstimatorKind, Z_95};
    ///
    /// let e = EstimatedYield {
    ///     value: 0.9,
    ///     std_error: 0.01,
    ///     samples: 900,
    ///     kind: EstimatorKind::MonteCarlo,
    /// };
    /// assert!((e.half_width(Z_95) - 0.0196).abs() < 1e-12);
    /// ```
    pub fn half_width(&self, z: f64) -> f64 {
        z * self.std_error
    }

    /// Variance of the estimate (`std_error²`).
    pub fn variance(&self) -> f64 {
        self.std_error * self.std_error
    }
}

/// Contract of a pluggable yield estimator.
///
/// An implementation owns both ends of the estimation pipeline: it decides
/// how the unit points of one cache block are laid out
/// ([`Self::generate_block`] — a pure function of the block's RNG stream, so
/// the engine's determinism and cache-stability guarantees hold under every
/// estimator), and how indexed outcome values condense into a yield estimate
/// with an honest standard error ([`Self::estimate`]).
pub trait YieldEstimator: Send + Sync + std::fmt::Debug {
    /// The kind selecting this implementation.
    fn kind(&self) -> EstimatorKind;

    /// Generates the `n` unit points (dimension `dim`) of one block from the
    /// block's RNG stream.
    ///
    /// `plan` is the engine's base sampling plan (used verbatim by the plain
    /// Monte-Carlo estimator; the others impose their own layout). `shift` is
    /// the model's importance-sampling mean shift in z-space (`None` for
    /// models without one, and ignored by every estimator except importance
    /// sampling).
    fn generate_block(
        &self,
        rng: &mut StdRng,
        n: usize,
        dim: usize,
        plan: SamplingPlan,
        shift: Option<&[f64]>,
    ) -> BlockPoints;

    /// Condenses outcome values `0 .. n` of one design's stream into a yield
    /// estimate with the estimator's own variance formula.
    ///
    /// Outcome values are the per-sample yield contributions stored by the
    /// engine: raw 0/1 indicators for the non-weighted estimators, weighted
    /// contributions ([`weighted_outcome`]) for importance sampling. The
    /// slice must start at sample index 0 of the stream — block and pair
    /// alignment is defined from the stream origin.
    fn estimate(&self, outcomes: &[f64]) -> EstimatedYield;
}

/// The per-sample yield contribution stored by the engine: `1 − w · (1 − J)`
/// for likelihood weight `w` and pass/fail indicator `J`.
///
/// With `w = 1` this is exactly `J`, so non-weighted estimators are
/// unaffected. With an importance-sampling weight it makes the plain mean of
/// the stored outcomes an unbiased yield estimate:
/// `E_q[1 − w (1 − J)] = 1 − E_p[1 − J] = Y`.
///
/// # Example
///
/// ```
/// use moheco_sampling::weighted_outcome;
///
/// assert_eq!(weighted_outcome(1.0, 1.0), 1.0); // unweighted pass
/// assert_eq!(weighted_outcome(1.0, 0.0), 0.0); // unweighted fail
/// assert_eq!(weighted_outcome(0.25, 0.0), 0.75); // down-weighted failure
/// ```
pub fn weighted_outcome(weight: f64, indicator: f64) -> f64 {
    1.0 - weight * (1.0 - indicator)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Unbiased sample variance; zero with fewer than two observations.
fn sample_variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64
}

/// Binomial standard error `√(p (1 − p) / n)` of a pass fraction.
fn binomial_std_error(p: f64, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    (p.clamp(0.0, 1.0) * (1.0 - p.clamp(0.0, 1.0)) / n as f64).sqrt()
}

fn clamped(value: f64, std_error: f64, samples: usize, kind: EstimatorKind) -> EstimatedYield {
    EstimatedYield {
        value: value.clamp(0.0, 1.0),
        std_error,
        samples,
        kind,
    }
}

/// Plain Monte-Carlo acceptance counting (the default estimator).
///
/// Block points come from the engine's base sampling plan unchanged, the
/// point estimate is the pass fraction and the standard error is binomial —
/// exactly the pre-estimator behaviour of the workspace, which is what makes
/// this the drop-in default.
///
/// # Example
///
/// ```
/// use moheco_sampling::{EstimatorKind, MonteCarloEstimator, YieldEstimator};
///
/// let est = MonteCarloEstimator;
/// let r = est.estimate(&[1.0, 1.0, 0.0, 1.0]);
/// assert_eq!(r.kind, EstimatorKind::MonteCarlo);
/// assert!((r.value - 0.75).abs() < 1e-12);
/// // Binomial standard error: sqrt(0.75 * 0.25 / 4).
/// assert!((r.std_error - (0.75_f64 * 0.25 / 4.0).sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct MonteCarloEstimator;

impl YieldEstimator for MonteCarloEstimator {
    fn kind(&self) -> EstimatorKind {
        EstimatorKind::MonteCarlo
    }

    fn generate_block(
        &self,
        rng: &mut StdRng,
        n: usize,
        dim: usize,
        plan: SamplingPlan,
        _shift: Option<&[f64]>,
    ) -> BlockPoints {
        BlockPoints {
            points: plan.generate_flat(rng, n, dim),
            weights: Vec::new(),
        }
    }

    fn estimate(&self, outcomes: &[f64]) -> EstimatedYield {
        let p = mean(outcomes);
        clamped(
            p,
            binomial_std_error(p, outcomes.len()),
            outcomes.len(),
            self.kind(),
        )
    }
}

/// Latin-Hypercube stratification with per-stratum-block pooled variance.
///
/// Each cache block is one independent `stratum`-point Latin-Hypercube
/// design, so an estimate spanning `k` complete blocks is the mean of `k`
/// i.i.d. replicates. The variance formula pools at that granularity: the
/// spread of the per-block means estimates the (stratification-reduced)
/// variance of one replicate, and a partial trailing block contributes its
/// binomial term. With fewer than two complete blocks there is no replicate
/// information and the estimator falls back to the binomial formula (which
/// is conservative for stratified samples).
///
/// # Example
///
/// ```
/// use moheco_sampling::{EstimatorKind, StratifiedLhsEstimator, YieldEstimator};
///
/// // Two strata of 4 samples with very similar block means: the pooled
/// // standard error is far below the binomial one for the same data.
/// let est = StratifiedLhsEstimator::new(4);
/// let outcomes = [1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0];
/// let r = est.estimate(&outcomes);
/// assert_eq!(r.kind, EstimatorKind::StratifiedLhs);
/// assert!((r.value - 0.75).abs() < 1e-12);
/// let binomial = (0.75_f64 * 0.25 / 8.0).sqrt();
/// assert!(r.std_error < binomial, "{} vs {binomial}", r.std_error);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StratifiedLhsEstimator {
    stratum: usize,
}

impl StratifiedLhsEstimator {
    /// Creates the estimator for an engine with `stratum` samples per cache
    /// block.
    ///
    /// # Panics
    ///
    /// Panics if `stratum` is zero.
    pub fn new(stratum: usize) -> Self {
        assert!(stratum > 0, "stratum size must be positive");
        Self { stratum }
    }

    /// Samples per stratum block.
    pub fn stratum(&self) -> usize {
        self.stratum
    }
}

/// Replicate variance of the mean over complete blocks plus the binomial
/// contribution of a partial trailing block. Shared by the LHS and
/// antithetic estimators (whose replicates are both the engine blocks).
fn block_pooled_std_error(outcomes: &[f64], block: usize) -> f64 {
    let n = outcomes.len();
    let complete = n / block;
    if complete < 2 {
        // No replicate information: conservative binomial fallback.
        return binomial_std_error(mean(outcomes), n);
    }
    let head = complete * block;
    let block_means: Vec<f64> = outcomes[..head].chunks_exact(block).map(mean).collect();
    let replicate_var = sample_variance(&block_means);
    // Var(ŷ) for the weighted combination of k block means and a partial
    // remainder of r samples: (head/n)² · s²/k + (r/n)² · p(1−p)/r.
    let mut variance = (head as f64 / n as f64).powi(2) * replicate_var / complete as f64;
    let r = n - head;
    if r > 0 {
        let tail = &outcomes[head..];
        let p_tail = mean(tail);
        variance += (r as f64 / n as f64).powi(2) * p_tail * (1.0 - p_tail) / r as f64;
    }
    variance.max(0.0).sqrt()
}

impl YieldEstimator for StratifiedLhsEstimator {
    fn kind(&self) -> EstimatorKind {
        EstimatorKind::StratifiedLhs
    }

    fn generate_block(
        &self,
        rng: &mut StdRng,
        n: usize,
        dim: usize,
        _plan: SamplingPlan,
        _shift: Option<&[f64]>,
    ) -> BlockPoints {
        // Always Latin-Hypercube, regardless of the base plan: the variance
        // formula is only valid for stratified blocks.
        BlockPoints {
            points: SamplingPlan::LatinHypercube.generate_flat(rng, n, dim),
            weights: Vec::new(),
        }
    }

    fn estimate(&self, outcomes: &[f64]) -> EstimatedYield {
        clamped(
            mean(outcomes),
            block_pooled_std_error(outcomes, self.stratum),
            outcomes.len(),
            self.kind(),
        )
    }
}

/// Antithetic pairs with paired variance, pooled per stratum block.
///
/// A block holds `block/2` Latin-Hypercube base points at even indices and
/// their mirrors `1 − u` at odd indices, so a pair always lives inside one
/// cache block (and therefore one cache shard key) — partial reads, the
/// sharded cache and parallel execution can never split a pair.
///
/// The atoms of the variance formula are the pair means
/// `t_i = (J_{2i} + J_{2i+1}) / 2`, which capture the negative covariance of
/// a mirrored pair. Because the base points of one block are additionally
/// LHS-coupled, pair means within a block are not independent; the blocks
/// are, so the pooling happens at block granularity exactly as for
/// [`StratifiedLhsEstimator`] (a block mean *is* the mean of its pair
/// means). With fewer than two complete blocks the estimator falls back to
/// treating pair means as i.i.d. (`s²_t / m`, conservative under LHS
/// coupling), and with fewer than two pairs to the binomial formula.
///
/// # Example
///
/// ```
/// use moheco_sampling::{AntitheticEstimator, EstimatorKind, YieldEstimator};
///
/// let est = AntitheticEstimator::new(50);
/// // Two pairs whose members disagree: every pair mean is exactly 0.5, so
/// // the paired variance — and the standard error — is zero.
/// let r = est.estimate(&[1.0, 0.0, 0.0, 1.0]);
/// assert_eq!(r.kind, EstimatorKind::Antithetic);
/// assert!((r.value - 0.5).abs() < 1e-12);
/// assert!(r.std_error < 1e-12);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AntitheticEstimator {
    block: usize,
}

impl AntitheticEstimator {
    /// Creates the estimator for an engine with `block` samples per cache
    /// block.
    ///
    /// # Panics
    ///
    /// Panics if `block` is zero or odd (pairs may not straddle blocks).
    pub fn new(block: usize) -> Self {
        assert!(block > 0, "block size must be positive");
        assert!(
            block.is_multiple_of(2),
            "antithetic pairing requires an even block size"
        );
        Self { block }
    }
}

impl YieldEstimator for AntitheticEstimator {
    fn kind(&self) -> EstimatorKind {
        EstimatorKind::Antithetic
    }

    fn generate_block(
        &self,
        rng: &mut StdRng,
        n: usize,
        dim: usize,
        _plan: SamplingPlan,
        _shift: Option<&[f64]>,
    ) -> BlockPoints {
        // LHS base points at even indices, mirrors at odd indices. An odd
        // trailing sample (only possible when the engine block size is odd,
        // which the constructor rejects) would get no mirror.
        let half = n / 2;
        let mut points = Vec::with_capacity(n * dim);
        if half > 0 {
            let base = SamplingPlan::LatinHypercube.generate_flat(rng, half, dim);
            for row in base.chunks_exact(dim) {
                points.extend_from_slice(row);
                points.extend(row.iter().map(|&u| 1.0 - u));
            }
        }
        if n % 2 == 1 {
            points.extend(SamplingPlan::PrimitiveMonteCarlo.generate_flat(rng, 1, dim));
        }
        BlockPoints {
            points,
            weights: Vec::new(),
        }
    }

    fn estimate(&self, outcomes: &[f64]) -> EstimatedYield {
        let n = outcomes.len();
        let value = mean(outcomes);
        let pairs = n / 2;
        if pairs < 2 {
            return clamped(value, binomial_std_error(value, n), n, self.kind());
        }
        if n / self.block >= 2 {
            // Enough complete blocks for replicate pooling (a block mean is
            // the mean of its pair means).
            return clamped(
                value,
                block_pooled_std_error(outcomes, self.block),
                n,
                self.kind(),
            );
        }
        // Treat pair means as i.i.d. (conservative under the LHS coupling of
        // one block); an unpaired trailing sample adds its binomial term.
        let head = pairs * 2;
        let pair_means: Vec<f64> = outcomes[..head]
            .chunks_exact(2)
            .map(|pair| 0.5 * (pair[0] + pair[1]))
            .collect();
        let mut variance =
            (head as f64 / n as f64).powi(2) * sample_variance(&pair_means) / pairs as f64;
        if n > head {
            let p = outcomes[head].clamp(0.0, 1.0);
            variance += (1.0 / n as f64).powi(2) * p * (1.0 - p);
        }
        clamped(value, variance.max(0.0).sqrt(), n, self.kind())
    }
}

/// Mean-shifted importance sampling toward the dominant failure spec.
///
/// When the model exposes a z-space mean shift `μ` (see the runtime's
/// `SimulationModel::importance_shift`), each base point is shifted through
/// `u ↦ Φ(Φ⁻¹(u) + μ)` and carries the likelihood weight
/// `w = exp(−μ·z′ + ½‖μ‖²)` of the shifted sample `z′`. The engine stores
/// the *yield contribution* `1 − w (1 − J)` per sample
/// ([`weighted_outcome`]), so the mean of the stored outcomes estimates
/// `1 − E_p[1 − J] = Y` without bias, and the estimator's variance is the
/// sample variance of those contributions over `n` — the correct weighted
/// variance, which is small exactly when the shift concentrates samples
/// where failures happen.
///
/// Models without a shift hint (`None`) degrade gracefully: the points are
/// the base plan's, every weight is 1, and the estimate matches plain
/// Monte-Carlo up to the `n/(n−1)` sample-variance factor.
///
/// # Example
///
/// ```
/// use moheco_sampling::{EstimatorKind, ImportanceSamplingEstimator, YieldEstimator};
///
/// let est = ImportanceSamplingEstimator;
/// // Weighted yield contributions: two certain passes and two failures
/// // observed with weight 0.5 (i.e. contribution 1 − 0.5·1 = 0.5).
/// let r = est.estimate(&[1.0, 0.5, 1.0, 0.5]);
/// assert_eq!(r.kind, EstimatorKind::ImportanceSampling);
/// assert!((r.value - 0.75).abs() < 1e-12);
/// assert!(r.std_error > 0.0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ImportanceSamplingEstimator;

impl YieldEstimator for ImportanceSamplingEstimator {
    fn kind(&self) -> EstimatorKind {
        EstimatorKind::ImportanceSampling
    }

    fn generate_block(
        &self,
        rng: &mut StdRng,
        n: usize,
        dim: usize,
        plan: SamplingPlan,
        shift: Option<&[f64]>,
    ) -> BlockPoints {
        let mut points = plan.generate_flat(rng, n, dim);
        let Some(mu) = shift.filter(|mu| mu.iter().any(|&m| m != 0.0)) else {
            return BlockPoints {
                points,
                weights: Vec::new(),
            };
        };
        assert_eq!(mu.len(), dim, "importance shift dimension mismatch");
        let mu_norm2: f64 = mu.iter().map(|m| m * m).sum();
        let mut weights = Vec::with_capacity(n);
        // Each base point is shifted in place.
        for u in points.chunks_exact_mut(dim) {
            let mut dot = 0.0;
            for (ui, &mi) in u.iter_mut().zip(mu) {
                let z_shifted = standard_normal_quantile(*ui) + mi;
                dot += mi * z_shifted;
                *ui = standard_normal_cdf(z_shifted);
            }
            // Likelihood ratio φ(z′) / φ(z′ − μ) = exp(−μ·z′ + ½‖μ‖²).
            weights.push((-dot + 0.5 * mu_norm2).exp());
        }
        BlockPoints { points, weights }
    }

    fn estimate(&self, outcomes: &[f64]) -> EstimatedYield {
        let n = outcomes.len();
        let value = mean(outcomes);
        let std_error = if n < 2 {
            binomial_std_error(value, n)
        } else {
            (sample_variance(outcomes) / n as f64).sqrt()
        };
        clamped(value, std_error, n, self.kind())
    }
}

/// Converts an [`EstimatedYield`] into the counting representation used by
/// the optimizer's bookkeeping ([`YieldEstimate`]); the uncertainty
/// information is dropped.
impl From<EstimatedYield> for YieldEstimate {
    fn from(est: EstimatedYield) -> Self {
        YieldEstimate::from_sum(est.value * est.samples as f64, est.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Estimates the yield of `indicator` with a fresh estimator of `kind`:
    /// `blocks × block` samples generated block by block from `rng`,
    /// simulated, and condensed with the estimator's variance formula.
    fn estimate_blocks(
        kind: EstimatorKind,
        rng: &mut StdRng,
        blocks: usize,
        block: usize,
        dim: usize,
        indicator: impl Fn(&[f64]) -> bool,
    ) -> EstimatedYield {
        let estimator = kind.build(block);
        let mut outcomes = Vec::with_capacity(blocks * block);
        for _ in 0..blocks {
            let generated =
                estimator.generate_block(rng, block, dim, SamplingPlan::default(), None);
            for (i, point) in generated.points.chunks_exact(dim).enumerate() {
                let raw = if indicator(point) { 1.0 } else { 0.0 };
                let w = generated.weights.get(i).copied().unwrap_or(1.0);
                outcomes.push(weighted_outcome(w, raw));
            }
        }
        estimator.estimate(&outcomes)
    }

    #[test]
    fn kind_labels_roundtrip() {
        for kind in EstimatorKind::ALL {
            assert_eq!(EstimatorKind::parse(kind.label()), Some(kind));
            assert_eq!(kind.build(50).kind(), kind);
        }
        assert_eq!(EstimatorKind::parse("nope"), None);
        assert_eq!(EstimatorKind::default(), EstimatorKind::MonteCarlo);
    }

    #[test]
    fn mc_block_matches_the_plan_stream() {
        // The plain estimator must reproduce the engine's historic blocks
        // bit for bit: same RNG stream, same plan, no transformation.
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let expected = SamplingPlan::LatinHypercube.generate_flat(&mut a, 50, 3);
        let block =
            MonteCarloEstimator.generate_block(&mut b, 50, 3, SamplingPlan::LatinHypercube, None);
        assert_eq!(block.points, expected);
        assert!(block.weights.is_empty());
    }

    #[test]
    fn antithetic_blocks_are_mirrored_pairs() {
        let mut rng = StdRng::seed_from_u64(4);
        let block = AntitheticEstimator::new(50).generate_block(
            &mut rng,
            50,
            4,
            SamplingPlan::default(),
            None,
        );
        assert_eq!(block.points.len(), 50 * 4);
        for pair in block.points.chunks_exact(2 * 4) {
            let (base, mirror) = pair.split_at(4);
            for (u, v) in base.iter().zip(mirror) {
                assert!((u + v - 1.0).abs() < 1e-12, "not mirrored: {u} {v}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "even block size")]
    fn antithetic_rejects_odd_blocks() {
        let _ = AntitheticEstimator::new(51);
    }

    #[test]
    fn is_weights_have_unit_mean_under_the_shift() {
        // E_q[w] = 1 by construction; a sample average over many points must
        // sit close to 1.
        let mut rng = StdRng::seed_from_u64(11);
        let shift = vec![-1.2, 0.0, 0.4];
        let mut total = 0.0;
        let mut count = 0usize;
        for _ in 0..200 {
            let block = ImportanceSamplingEstimator.generate_block(
                &mut rng,
                50,
                3,
                SamplingPlan::LatinHypercube,
                Some(&shift),
            );
            assert_eq!(block.weights.len(), 50);
            total += block.weights.iter().sum::<f64>();
            count += block.weights.len();
        }
        let avg = total / count as f64;
        assert!((avg - 1.0).abs() < 0.05, "mean weight {avg}");
    }

    #[test]
    fn is_without_shift_degenerates_to_the_plan() {
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        let plain = SamplingPlan::LatinHypercube.generate_flat(&mut a, 20, 2);
        let block = ImportanceSamplingEstimator.generate_block(
            &mut b,
            20,
            2,
            SamplingPlan::LatinHypercube,
            Some(&[0.0, 0.0]),
        );
        assert_eq!(block.points, plain);
        assert!(block.weights.is_empty());
    }

    /// The nested-row generator bodies the flat ones replaced, kept as the
    /// reference for their draw order and arithmetic.
    mod nested {
        use super::*;
        use rand::Rng;

        fn latin_hypercube(rng: &mut StdRng, n: usize, dim: usize) -> Vec<Vec<f64>> {
            let mut points = vec![vec![0.0; dim]; n];
            let mut perm: Vec<usize> = (0..n).collect();
            for d in 0..dim {
                for i in (1..n).rev() {
                    let j = rng.gen_range(0..=i);
                    perm.swap(i, j);
                }
                for (i, point) in points.iter_mut().enumerate() {
                    let jitter: f64 = rng.gen();
                    point[d] = (perm[i] as f64 + jitter) / n as f64;
                }
            }
            points
        }

        fn plan(plan: SamplingPlan, rng: &mut StdRng, n: usize, dim: usize) -> Vec<Vec<f64>> {
            match plan {
                SamplingPlan::LatinHypercube => latin_hypercube(rng, n, dim),
                SamplingPlan::PrimitiveMonteCarlo => (0..n)
                    .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
                    .collect(),
            }
        }

        /// One block of `kind`, as rows plus weights.
        pub fn block(
            kind: EstimatorKind,
            rng: &mut StdRng,
            n: usize,
            dim: usize,
            base: SamplingPlan,
            shift: Option<&[f64]>,
        ) -> (Vec<Vec<f64>>, Vec<f64>) {
            match kind {
                EstimatorKind::MonteCarlo => (plan(base, rng, n, dim), Vec::new()),
                EstimatorKind::StratifiedLhs => (latin_hypercube(rng, n, dim), Vec::new()),
                EstimatorKind::Antithetic => {
                    let mut points = Vec::new();
                    if n / 2 > 0 {
                        for row in latin_hypercube(rng, n / 2, dim) {
                            let mirror = row.iter().map(|&u| 1.0 - u).collect();
                            points.push(row);
                            points.push(mirror);
                        }
                    }
                    if n % 2 == 1 {
                        points.extend(plan(SamplingPlan::PrimitiveMonteCarlo, rng, 1, dim));
                    }
                    (points, Vec::new())
                }
                EstimatorKind::ImportanceSampling => {
                    let rows = plan(base, rng, n, dim);
                    let Some(mu) = shift else {
                        return (rows, Vec::new());
                    };
                    let mu_norm2: f64 = mu.iter().map(|m| m * m).sum();
                    let mut weights = Vec::new();
                    let shifted = rows
                        .iter()
                        .map(|u| {
                            let mut dot = 0.0;
                            let row = u
                                .iter()
                                .zip(mu)
                                .map(|(&ui, &mi)| {
                                    let z = standard_normal_quantile(ui) + mi;
                                    dot += mi * z;
                                    standard_normal_cdf(z)
                                })
                                .collect();
                            weights.push((-dot + 0.5 * mu_norm2).exp());
                            row
                        })
                        .collect();
                    (shifted, weights)
                }
            }
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn flat_blocks_match_the_nested_generator() {
        for kind in EstimatorKind::ALL {
            for n in [1, 7, 50] {
                for dim in [1, 2, 5, 24, 65] {
                    for base in [
                        SamplingPlan::LatinHypercube,
                        SamplingPlan::PrimitiveMonteCarlo,
                    ] {
                        let shift: Vec<f64> =
                            (0..dim).map(|d| 0.25 * (d % 5) as f64 - 0.5).collect();
                        let seed = (n * 131 + dim) as u64;
                        let ctx = format!("{kind:?} n {n} dim {dim} {base:?}");
                        let (rows, weights) = nested::block(
                            kind,
                            &mut StdRng::seed_from_u64(seed),
                            n,
                            dim,
                            base,
                            Some(&shift),
                        );
                        // Antithetic blocks need an even size in the engine,
                        // but the generator itself also covers odd ones.
                        let flat = kind.build(2).generate_block(
                            &mut StdRng::seed_from_u64(seed),
                            n,
                            dim,
                            base,
                            Some(&shift),
                        );
                        assert_eq!(bits(&flat.points), bits(&rows.concat()), "{ctx}");
                        assert_eq!(bits(&flat.weights), bits(&weights), "{ctx}");
                        let wrapped = base.generate(&mut StdRng::seed_from_u64(seed), n, dim);
                        let direct = base.generate_flat(&mut StdRng::seed_from_u64(seed), n, dim);
                        assert_eq!(bits(&wrapped.concat()), bits(&direct), "{ctx}");
                        assert!(wrapped.iter().all(|row| row.len() == dim), "{ctx}");
                    }
                }
            }
        }
        // A pinned digest of one seeded block per estimator, taken from the
        // nested generator: any change to the draw order fails here.
        let shift = [-1.0, 0.5, 0.0, 0.25, -0.75];
        let mut digest = 0u64;
        for kind in EstimatorKind::ALL {
            let block = kind.build(50).generate_block(
                &mut StdRng::seed_from_u64(2026),
                50,
                5,
                SamplingPlan::LatinHypercube,
                Some(&shift),
            );
            for v in block.points.iter().chain(&block.weights) {
                digest = crate::splitmix64(digest ^ v.to_bits());
            }
        }
        assert_eq!(digest, 0xc501_91af_b1f9_3f1a);
    }

    #[test]
    fn empty_outcomes_give_empty_estimates() {
        for kind in EstimatorKind::ALL {
            let est = kind.build(50).estimate(&[]);
            assert_eq!(est.samples, 0);
            assert_eq!(est.value, 0.0);
            assert_eq!(est.std_error, 0.0);
        }
    }

    #[test]
    fn all_pass_and_all_fail_have_zero_error() {
        for kind in EstimatorKind::ALL {
            let est = kind.build(4).estimate(&[1.0; 12]);
            assert_eq!(est.value, 1.0);
            assert!(est.std_error < 1e-12, "{kind:?}: {}", est.std_error);
            let est = kind.build(4).estimate(&[0.0; 12]);
            assert_eq!(est.value, 0.0);
            assert!(est.std_error < 1e-12);
        }
    }

    #[test]
    fn lhs_pooling_beats_binomial_on_homogeneous_blocks() {
        // Three blocks with identical means: replicate variance is zero even
        // though the binomial formula sees a mixed sample.
        let est = StratifiedLhsEstimator::new(4);
        let outcomes = [1.0, 0.0, 1.0, 1.0].repeat(3);
        let r = est.estimate(&outcomes);
        assert!((r.value - 0.75).abs() < 1e-12);
        assert!(r.std_error < 1e-12, "pooled se {}", r.std_error);
        // A single (partial) block has no replicates: binomial fallback.
        let single = est.estimate(&[1.0, 0.0, 1.0]);
        let p: f64 = 2.0 / 3.0;
        assert!((single.std_error - (p * (1.0 - p) / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn lhs_partial_tail_contributes_binomial_variance() {
        let est = StratifiedLhsEstimator::new(2);
        // Two complete identical blocks plus a mixed partial tail of one
        // sample (deterministic, so only the tail formula matters).
        let outcomes = [1.0, 0.0, 1.0, 0.0, 1.0];
        let r = est.estimate(&outcomes);
        assert!((r.value - 0.6).abs() < 1e-12);
        // Replicate variance is 0; the tail of one pass contributes
        // (1/5)² · 1·0/1 = 0 as well.
        assert!(r.std_error < 1e-12);
    }

    #[test]
    fn antithetic_paired_variance_sees_the_negative_covariance() {
        let est = AntitheticEstimator::new(50);
        // Perfectly anti-correlated pairs: zero paired variance.
        let perfect = est.estimate(&[1.0, 0.0, 0.0, 1.0, 1.0, 0.0]);
        assert!(perfect.std_error < 1e-12);
        // Identical pairs: paired variance equals the binomial variance of
        // the pair means.
        let worst = est.estimate(&[1.0, 1.0, 0.0, 0.0]);
        assert!(worst.std_error > 0.3);
    }

    #[test]
    fn every_kind_is_unbiased() {
        // P[u0 + u1 < 1.0] = 0.5; average over seeds must track it.
        for kind in EstimatorKind::ALL {
            let mut total = 0.0;
            let runs = 30;
            for seed in 0..runs {
                let mut rng = StdRng::seed_from_u64(seed);
                let est = estimate_blocks(kind, &mut rng, 4, 50, 2, |u| u[0] + u[1] < 1.0);
                assert_eq!(est.samples, 200);
                total += est.value;
            }
            let avg = total / runs as f64;
            assert!((avg - 0.5).abs() < 0.02, "{kind:?}: mean {avg}");
        }
    }

    #[test]
    fn reported_intervals_cover_the_truth() {
        // For each estimator, the 95 % interval must cover the true value in
        // the vast majority of seeded runs (calibration sanity).
        for kind in EstimatorKind::ALL {
            let mut covered = 0;
            let runs = 40;
            for seed in 0..runs {
                let mut rng = StdRng::seed_from_u64(1000 + seed);
                let est = estimate_blocks(kind, &mut rng, 8, 50, 1, |u| u[0] < 0.8);
                let h = est.half_width(Z_95).max(1e-9);
                if (est.value - 0.8).abs() <= 1.5 * h {
                    covered += 1;
                }
            }
            assert!(
                covered >= runs * 9 / 10,
                "{kind:?}: covered {covered}/{runs}"
            );
        }
    }

    #[test]
    fn estimated_yield_conversion_keeps_value_and_samples() {
        let est = EstimatedYield {
            value: 0.85,
            std_error: 0.01,
            samples: 200,
            kind: EstimatorKind::StratifiedLhs,
        };
        let ye: YieldEstimate = est.into();
        assert_eq!(ye.samples, 200);
        assert!((ye.value() - 0.85).abs() < 1e-12);
        let empty = EstimatedYield::empty(EstimatorKind::MonteCarlo);
        assert_eq!(empty.samples, 0);
        assert_eq!(empty.half_width(Z_95), 0.0);
    }
}
