//! The yield-optimization problem: glue between a benchmark, its statistical
//! model and the evaluation engine.
//!
//! A [`YieldProblem`] owns a [`Benchmark`] (a circuit testbench wrapped in a
//! [`CircuitBench`], or any synthetic analytic benchmark), an
//! [`AcceptanceSampler`] screen and an [`EvalEngine`]. Every evaluation —
//! nominal feasibility checks and Monte-Carlo yield samples alike — is
//! dispatched through the engine, so that (a) the simulation counts reported
//! in Tables 2 and 4 are complete, (b) batches run in parallel when the
//! [`moheco_runtime::Engine`] has more than one worker, and (c) repeated
//! evaluations of a design are served from the engine cache.
//!
//! The problem is generic over `B: Benchmark + ?Sized`: the circuit paths
//! keep their static dispatch (`YieldProblem<CircuitBench<FoldedCascode>>`),
//! while the scenario registry of `moheco-scenarios` builds heterogeneous
//! `YieldProblem<dyn Benchmark>` values from `Arc<dyn Benchmark>`.
//!
//! Monte-Carlo samples are *indexed*: each design owns one deterministic
//! sample stream (see [`moheco_runtime`]), and consumers request ranges
//! `start .. start + count` of it. Accumulating consumers (stage-1 OCBA,
//! stage-2 top-up, the final re-estimate) pass the number of samples they
//! already hold as `start`, which makes their merged estimates consistent
//! and lets the cache serve re-probes for free.

use crate::benchmark::{Benchmark, CircuitBench};
use moheco_analog::Testbench;
use moheco_runtime::{Engine, EngineConfig, EvalEngine, McRequest};
use moheco_sampling::{
    AcceptanceSampler, AsDecision, EstimatedYield, EstimatorKind, YieldEstimate,
};
use rand::Rng;
use std::sync::Arc;

/// Result of the nominal feasibility screen of one candidate sizing.
#[derive(Debug, Clone, PartialEq)]
pub struct FeasibilityReport {
    /// Normalised nominal specification margins (positive = pass).
    pub margins: Vec<f64>,
    /// Aggregate constraint violation (0 = feasible).
    pub violation: f64,
    /// Acceptance-sampling decision derived from the margins.
    pub decision: AsDecision,
}

impl FeasibilityReport {
    /// Returns `true` when the nominal design meets every specification.
    pub fn is_feasible(&self) -> bool {
        self.violation <= 0.0
    }
}

/// The yield-optimization problem over a benchmark.
pub struct YieldProblem<B: Benchmark + ?Sized> {
    bench: Arc<B>,
    acceptance: AcceptanceSampler,
    engine: Arc<dyn EvalEngine>,
    tracer: moheco_obs::Tracer,
}

impl<T: Testbench> YieldProblem<CircuitBench<T>> {
    /// Creates the yield problem for a circuit `testbench`, dispatching
    /// through a fresh one-worker [`Engine`] (Latin-Hypercube sample
    /// streams, the default estimator).
    pub fn new(testbench: T) -> Self {
        let engine = Arc::new(Engine::new(EngineConfig::default().with_workers(1)));
        Self::with_engine(testbench, engine)
    }

    /// Creates the yield problem for a circuit testbench dispatching through
    /// an explicit engine (serial or parallel; the engine's configuration
    /// supplies the sampling plan and master seed).
    pub fn with_engine(testbench: T, engine: Arc<dyn EvalEngine>) -> Self {
        Self::from_bench(Arc::new(CircuitBench::new(testbench)), engine)
    }

    /// The underlying testbench.
    pub fn testbench(&self) -> &T {
        self.bench.testbench()
    }
}

impl<B: Benchmark + ?Sized> YieldProblem<B> {
    /// Creates the yield problem over an arbitrary (possibly type-erased)
    /// benchmark, dispatching through an explicit engine.
    pub fn from_bench(bench: Arc<B>, engine: Arc<dyn EvalEngine>) -> Self {
        Self {
            bench,
            acceptance: AcceptanceSampler::default(),
            engine,
            tracer: moheco_obs::Tracer::disabled(),
        }
    }

    /// Attaches an observability tracer, wiring this problem's engine as the
    /// tracer's budget-attribution probe: simulations, cache hits and
    /// evictions are attributed to whichever phase span is innermost when
    /// they happen. With the default disabled tracer every span operation is
    /// a no-op, so traced and untraced runs are bit-identical.
    pub fn with_tracer(mut self, tracer: moheco_obs::Tracer) -> Self {
        moheco_runtime::attach_engine_probe(&tracer, &self.engine);
        self.tracer = tracer;
        self
    }

    /// The attached observability tracer ([`moheco_obs::Tracer::disabled`]
    /// unless [`Self::with_tracer`] was called).
    pub fn tracer(&self) -> &moheco_obs::Tracer {
        &self.tracer
    }

    /// The benchmark under optimization.
    pub fn bench(&self) -> &B {
        &self.bench
    }

    /// The evaluation engine dispatching this problem's simulations.
    pub fn engine(&self) -> &Arc<dyn EvalEngine> {
        &self.engine
    }

    /// Snapshot of the engine instrumentation (simulations run, cache hits,
    /// batch sizes, busy time).
    pub fn engine_stats(&self) -> moheco_runtime::EngineStatsSnapshot {
        self.engine.stats()
    }

    /// Total number of simulations spent so far.
    pub fn simulations(&self) -> u64 {
        self.engine.simulations()
    }

    /// Design-space bounds of the benchmark.
    pub fn bounds(&self) -> Vec<(f64, f64)> {
        self.bench.bounds()
    }

    /// Number of design variables.
    pub fn dimension(&self) -> usize {
        self.bench.dimension()
    }

    /// The exact yield of design `x` when the benchmark admits a closed form
    /// (synthetic analytic benchmarks; `None` for circuits).
    pub fn true_yield(&self, x: &[f64]) -> Option<f64> {
        self.bench.true_yield(x)
    }

    fn report_from_margins(&self, margins: Vec<f64>) -> FeasibilityReport {
        let violation = margins.iter().filter(|&&m| m < 0.0).map(|&m| -m).sum();
        let decision = self.acceptance.screen(&margins);
        FeasibilityReport {
            margins,
            violation,
            decision,
        }
    }

    /// Nominal feasibility screen (costs one simulation; repeats of the same
    /// design are served from the engine cache for free).
    pub fn feasibility(&self, x: &[f64]) -> FeasibilityReport {
        self.feasibility_batch(std::slice::from_ref(&x.to_vec()))
            .pop()
            .expect("one design yields one report")
    }

    /// Nominal feasibility screen of a whole batch of designs, dispatched to
    /// the engine as one batch (parallel with a parallel engine).
    pub fn feasibility_batch(&self, xs: &[Vec<f64>]) -> Vec<FeasibilityReport> {
        self.engine
            .nominal_batch(self.bench.as_model(), xs)
            .into_iter()
            .map(|margins| self.report_from_margins(margins))
            .collect()
    }

    /// Monte-Carlo pass/fail outcomes `start .. start + count` of the sample
    /// stream of design `x` (1.0 = all specs met). Fresh indices cost one
    /// simulation each; previously simulated indices are free.
    pub fn outcomes(&self, x: &[f64], start: usize, count: usize) -> Vec<f64> {
        self.engine
            .mc_single(self.bench.as_model(), x, start, count)
    }

    /// Batch variant of [`Self::outcomes`]: all requests are dispatched to
    /// the engine at once (one work-stealing batch with a parallel engine).
    pub fn outcomes_batch(&self, requests: &[McRequest]) -> Vec<Vec<f64>> {
        self.engine.mc_outcomes(self.bench.as_model(), requests)
    }

    /// The variance-reduction estimator shaping this problem's sample
    /// streams (configured on the engine; [`EstimatorKind::MonteCarlo`] by
    /// default).
    pub fn estimator(&self) -> EstimatorKind {
        self.engine.config().estimator
    }

    /// Estimates the yield of design `x` from the first `n` samples of its
    /// stream, honouring the acceptance-sampling screen: candidates rejected
    /// by the screen report zero yield without spending samples, deeply
    /// accepted candidates spend a reduced confirmation budget.
    ///
    /// Outcome values are the engine's per-sample yield contributions, so
    /// the returned estimate is unbiased under every configured estimator
    /// (including importance sampling, whose raw pass fraction would be
    /// biased). For an estimate with an uncertainty interval, see
    /// [`Self::report_first`].
    pub fn estimate_yield(&self, x: &[f64], n: usize, decision: AsDecision) -> YieldEstimate {
        let budget = self.acceptance.budget_for(decision, n);
        if budget == 0 {
            return YieldEstimate::default();
        }
        let outcomes = self.outcomes(x, 0, budget);
        YieldEstimate::from_sum(outcomes.iter().sum(), outcomes.len())
    }

    /// Condenses outcome values `0 .. n` of design `x`'s stream with the
    /// configured estimator (no acceptance-sampling budget adjustment).
    /// Samples already simulated are served from the engine cache, so
    /// re-reporting an estimated design costs no simulations.
    pub fn report_first(&self, x: &[f64], n: usize) -> EstimatedYield {
        if n == 0 {
            return EstimatedYield::empty(self.estimator());
        }
        let outcomes = self.outcomes(x, 0, n);
        self.engine.estimate(&outcomes)
    }

    /// High-accuracy reference yield of design `x` (used to fill the
    /// "deviation from a 50 000-sample MC" columns of Tables 1 and 3).
    ///
    /// The samples spent here are *not* charged to the engine's counter and
    /// bypass its cache: they belong to the experimental methodology (an
    /// independent measurement with its own RNG), not to the method under
    /// test. Each chunk of samples runs as one `simulate_block` call, whose
    /// outcomes are bit-identical to a `simulate_point` loop.
    pub fn reference_yield<R: Rng + ?Sized>(&self, x: &[f64], n: usize, rng: &mut R) -> f64 {
        let dim = self.bench.unit_dimension();
        let plan = self.engine.config().plan;
        let mut passes = 0usize;
        let mut outcomes = Vec::new();
        // Generate in chunks to bound the memory of the LHS permutation.
        let chunk = 2000;
        let mut remaining = n;
        while remaining > 0 {
            let m = remaining.min(chunk);
            let us: Vec<Vec<f64>> = plan
                .generate_flat(rng, m, dim)
                .chunks_exact(dim)
                .map(<[f64]>::to_vec)
                .collect();
            outcomes.resize(m, 0.0);
            self.bench.simulate_block(x, &us, &mut outcomes);
            passes += outcomes.iter().filter(|&&o| o > 0.5).count();
            remaining -= m;
        }
        passes as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moheco_analog::FoldedCascode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn problem() -> YieldProblem<CircuitBench<FoldedCascode>> {
        YieldProblem::new(FoldedCascode::new())
    }

    #[test]
    fn feasibility_screen_counts_one_simulation() {
        let p = problem();
        let x = p.testbench().reference_design();
        assert_eq!(p.simulations(), 0);
        let rep = p.feasibility(&x);
        assert!(rep.is_feasible(), "report {rep:?}");
        assert_eq!(p.simulations(), 1);
        assert_ne!(rep.decision, AsDecision::RejectWithoutSampling);
        // Re-screening the same design is free (nominal cache).
        let rep2 = p.feasibility(&x);
        assert_eq!(rep, rep2);
        assert_eq!(p.simulations(), 1);
    }

    #[test]
    fn infeasible_design_is_rejected_without_sampling() {
        let p = problem();
        let mut x = p.testbench().reference_design();
        x[8] = 480.0; // far too much current: power spec violated
        let rep = p.feasibility(&x);
        assert!(!rep.is_feasible());
        assert_eq!(rep.decision, AsDecision::RejectWithoutSampling);
        let est = p.estimate_yield(&x, 100, rep.decision);
        assert_eq!(est.samples, 0);
        assert_eq!(est.value(), 0.0);
        // Only the feasibility simulation was spent.
        assert_eq!(p.simulations(), 1);
    }

    #[test]
    fn yield_estimate_counts_samples() {
        let p = problem();
        let x = p.testbench().reference_design();
        let rep = p.feasibility(&x);
        let est = p.estimate_yield(&x, 60, rep.decision);
        assert!(est.samples > 0 && est.samples <= 60);
        assert!(est.value() > 0.3, "yield {}", est.value());
        assert_eq!(p.simulations(), 1 + est.samples as u64);
        // Re-estimating with the same budget is free (sample cache).
        let est2 = p.estimate_yield(&x, 60, rep.decision);
        assert_eq!(est, est2);
        assert_eq!(p.simulations(), 1 + est.samples as u64);
    }

    #[test]
    fn outcome_ranges_merge_consistently() {
        let p = problem();
        let x = p.testbench().reference_design();
        let head = p.outcomes(&x, 0, 30);
        let tail = p.outcomes(&x, 30, 30);
        let joined: Vec<f64> = head.iter().chain(tail.iter()).copied().collect();
        assert_eq!(p.outcomes(&x, 0, 60), joined);
        // 60 distinct sample indices -> exactly 60 simulations.
        assert_eq!(p.simulations(), 60);
    }

    #[test]
    fn reference_yield_does_not_touch_the_counter() {
        let p = problem();
        let x = p.testbench().reference_design();
        let mut rng = StdRng::seed_from_u64(3);
        let y = p.reference_yield(&x, 200, &mut rng);
        assert!(y > 0.3 && y <= 1.0);
        assert_eq!(p.simulations(), 0);
    }

    #[test]
    fn counter_reset() {
        let p = problem();
        let x = p.testbench().reference_design();
        let _ = p.feasibility(&x);
        assert!(p.simulations() > 0);
        p.engine().reset();
        assert_eq!(p.simulations(), 0);
    }

    #[test]
    fn outcomes_returns_requested_count() {
        let p = problem();
        let x = p.testbench().reference_design();
        let out = p.outcomes(&x, 0, 25);
        assert_eq!(out.len(), 25);
        assert!(out.iter().all(|&v| v == 0.0 || v == 1.0));
        assert!(p.outcomes(&x, 25, 0).is_empty());
    }

    #[test]
    fn serial_and_parallel_problems_agree() {
        let serial = problem();
        let parallel = YieldProblem::with_engine(
            FoldedCascode::new(),
            Arc::new(Engine::new(EngineConfig::default().with_workers(3))),
        );
        let x = serial.testbench().reference_design();
        assert_eq!(serial.feasibility(&x), parallel.feasibility(&x));
        assert_eq!(serial.outcomes(&x, 0, 120), parallel.outcomes(&x, 0, 120));
        assert_eq!(serial.simulations(), parallel.simulations());
    }

    #[test]
    fn default_estimator_is_plain_monte_carlo() {
        let p = problem();
        assert_eq!(p.estimator(), moheco_sampling::EstimatorKind::MonteCarlo);
        let x = p.testbench().reference_design();
        let rep = p.feasibility(&x);
        let est = p.estimate_yield(&x, 60, rep.decision);
        let ci = p.report_first(&x, est.samples);
        // Same samples, same value; the CI report adds only the uncertainty.
        assert_eq!(ci.samples, est.samples);
        assert!((ci.value - est.value()).abs() < 1e-12);
        assert!(ci.std_error > 0.0 || est.value() == 1.0 || est.value() == 0.0);
        // The report reads cached samples: no extra simulations.
        let sims = p.simulations();
        let _ = p.report_first(&x, est.samples);
        assert_eq!(p.simulations(), sims);
        // A zero-sample report is empty.
        assert_eq!(p.report_first(&x, 0).samples, 0);
    }

    #[test]
    fn estimator_choice_threads_through_the_problem() {
        use moheco_sampling::EstimatorKind;
        let config = EngineConfig::default()
            .with_workers(1)
            .with_estimator(EstimatorKind::Antithetic);
        let p = YieldProblem::with_engine(FoldedCascode::new(), Arc::new(Engine::new(config)));
        assert_eq!(p.estimator(), EstimatorKind::Antithetic);
        let x = p.testbench().reference_design();
        let ci = p.report_first(&x, 100);
        assert_eq!(ci.kind, EstimatorKind::Antithetic);
        assert!(ci.samples > 0);
        assert!((0.0..=1.0).contains(&ci.value));
    }

    #[test]
    fn type_erased_problem_behaves_like_the_static_one() {
        let erased: YieldProblem<dyn Benchmark> = YieldProblem::from_bench(
            Arc::new(CircuitBench::new(FoldedCascode::new())),
            Arc::new(Engine::new(EngineConfig::default().with_workers(1))),
        );
        let static_p = YieldProblem::with_engine(
            FoldedCascode::new(),
            Arc::new(Engine::new(EngineConfig::default().with_workers(1))),
        );
        let x = erased.bench().reference_design();
        assert_eq!(erased.dimension(), static_p.dimension());
        assert_eq!(erased.feasibility(&x), static_p.feasibility(&x));
        assert_eq!(erased.outcomes(&x, 0, 40), static_p.outcomes(&x, 0, 40));
        assert!(erased.true_yield(&x).is_none());
    }
}
