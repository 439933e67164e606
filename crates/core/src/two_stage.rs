//! The two-stage yield-estimation flow (the first key idea of MOHECO).
//!
//! Stage 1 treats the feasible candidates of one generation as an
//! ordinal-optimization problem: a total budget `T = sim_ave × N_fea` is
//! distributed by the sequential OCBA loop so that promising candidates are
//! ranked reliably while clearly bad ones receive only a few samples.
//! Candidates whose stage-1 estimate exceeds the promotion threshold (97 %)
//! are moved to stage 2, where their estimate is topped up to the maximum
//! sample count `n_max` for an accurate final figure.
//!
//! Every simulation is dispatched through the problem's [`EvalEngine`]
//! (`moheco-runtime`): each OCBA round is one engine batch, the stage-2
//! promotions are one batch, and the fixed-budget baseline estimates its
//! whole generation as a single batch — so a parallel engine saturates its
//! workers and the engine cache makes re-estimates of already-sampled
//! designs free. No randomness is consumed here: sample streams are indexed
//! per design (see [`crate::problem::YieldProblem::outcomes`]).
//!
//! The fixed-budget baseline (`AS + LHS with N simulations per candidate`)
//! is implemented here too so all methods share the same plumbing.
//!
//! [`EvalEngine`]: moheco_runtime::EvalEngine

use crate::benchmark::Benchmark;
use crate::candidate::Candidate;
use crate::config::MohecoConfig;
use crate::problem::YieldProblem;
use moheco_obs::Span;
use moheco_ocba::sequential::{run_sequential_batched, SequentialConfig};
use moheco_runtime::McRequest;
use moheco_sampling::{AsDecision, YieldEstimate};

/// Estimates the yields of a generation of candidates with the two-stage
/// OO scheme, updating the candidates in place.
///
/// Returns the Monte-Carlo samples *served* to each candidate (same order
/// as `candidates`; infeasible candidates receive 0). Samples re-read from
/// the engine cache (e.g. when re-estimating a previously seen design) count
/// here even though they cost no executed simulation — the executed count
/// lives in the engine's counter.
pub fn estimate_two_stage<B: Benchmark + ?Sized>(
    problem: &YieldProblem<B>,
    candidates: &mut [Candidate],
    config: &MohecoConfig,
) -> Vec<usize> {
    let feasible_idx: Vec<usize> = candidates
        .iter()
        .enumerate()
        .filter(|(_, c)| c.feasible && c.decision != AsDecision::RejectWithoutSampling)
        .map(|(i, _)| i)
        .collect();
    let mut served = vec![0; candidates.len()];

    match feasible_idx.len() {
        0 => {}
        1 => {
            // A single feasible candidate: no ranking problem to solve, just
            // give it the average budget (clamped so prior samples plus this
            // allocation never exceed the n_max ceiling).
            let _span = Span::enter(problem.tracer(), "stage1/single");
            let i = feasible_idx[0];
            let start = candidates[i].estimate.samples;
            let take = config.sim_ave.min(config.n_max.saturating_sub(start));
            let outcomes = problem.outcomes(&candidates[i].x, start, take);
            candidates[i].estimate = candidates[i].estimate.merge(&YieldEstimate::from_sum(
                outcomes.iter().sum(),
                outcomes.len(),
            ));
            served[i] = outcomes.len();
        }
        _ => {
            // Sequential OCBA over the feasible candidates; every round becomes
            // one engine batch. Per-design cursors track how many samples of
            // each design's stream have been consumed so far.
            let _stage1_span = Span::enter(problem.tracer(), "stage1");
            let total_budget = config.sim_ave * feasible_idx.len();
            let seq = SequentialConfig {
                n0: config.n0,
                delta: config.delta,
                total_budget,
                per_design_cap: Some(config.n_max),
            };
            let xs: Vec<Vec<f64>> = feasible_idx
                .iter()
                .map(|&i| candidates[i].x.clone())
                .collect();
            let prior: Vec<YieldEstimate> = feasible_idx
                .iter()
                .map(|&i| candidates[i].estimate)
                .collect();
            let mut cursors: Vec<usize> = prior.iter().map(|e| e.samples).collect();
            let outcome = run_sequential_batched(feasible_idx.len(), seq, |round| {
                // Each OCBA round is one engine batch and one span
                // occurrence: the per-round spans aggregate under
                // `.../stage1/ocba_round` in the phase breakdown.
                let _round_span = Span::enter(problem.tracer(), "ocba_round");
                // The sequential loop's internal cap only tracks samples of
                // *this call*; clamp each allocation against the design's
                // whole stream position so candidates entering with prior
                // samples never exceed n_max in total.
                let requests: Vec<McRequest> = round
                    .iter()
                    .map(|&(design, n)| {
                        let room = config.n_max.saturating_sub(cursors[design]);
                        let take = n.min(room);
                        let request = McRequest::new(xs[design].clone(), cursors[design], take);
                        cursors[design] += take;
                        request
                    })
                    .collect();
                problem.outcomes_batch(&requests)
            })
            .expect("at least two designs");
            // The sequential loop reports Welford means; reconstruct each
            // design's outcome sum from them. Binary estimators round the
            // product back to the exact integer pass count (undoing Welford
            // rounding noise, which keeps default runs bit-identical to the
            // pre-estimator behaviour); weighted estimators keep the raw
            // fractional sum of their likelihood-weighted contributions.
            let weighted = problem.estimator().weighted_outcomes();
            for (k, &i) in feasible_idx.iter().enumerate() {
                let stats = &outcome.stats[k];
                let product = stats.mean * stats.count as f64;
                let sum = if weighted { product } else { product.round() };
                // Merge onto any prior samples (whose stream indices the
                // cursors skipped), mirroring the single-feasible branch.
                candidates[i].estimate = prior[k].merge(&YieldEstimate::from_sum(sum, stats.count));
                served[i] = outcome.spent[k];
            }
        }
    }

    // Stage-2 promotion: top up promising candidates to n_max samples, as a
    // single engine batch across all promoted candidates.
    let mut topups: Vec<(usize, usize)> = Vec::new(); // (candidate index, missing)
    for &i in &feasible_idx {
        if candidates[i].estimate.value() >= config.stage2_threshold {
            let missing = config.n_max.saturating_sub(candidates[i].estimate.samples);
            if missing > 0 {
                topups.push((i, missing));
            }
        }
    }
    if !topups.is_empty() {
        let _promotion_span = Span::enter(problem.tracer(), "stage2_promotion");
        let requests: Vec<McRequest> = topups
            .iter()
            .map(|&(i, missing)| {
                McRequest::new(
                    candidates[i].x.clone(),
                    candidates[i].estimate.samples,
                    missing,
                )
            })
            .collect();
        let outcomes = problem.outcomes_batch(&requests);
        for (&(i, _), out) in topups.iter().zip(&outcomes) {
            candidates[i].estimate = candidates[i]
                .estimate
                .merge(&YieldEstimate::from_sum(out.iter().sum(), out.len()));
            served[i] += out.len();
        }
    }
    served
}

/// Estimates the yields of a generation with the fixed-budget baseline
/// (`sims` samples per feasible candidate, reduced for deeply accepted
/// ones), dispatched to the engine as one batch. Returns the samples served
/// to each candidate, as [`estimate_two_stage`] does.
pub fn estimate_fixed_budget<B: Benchmark + ?Sized>(
    problem: &YieldProblem<B>,
    candidates: &mut [Candidate],
    sims: usize,
) -> Vec<usize> {
    let _span = Span::enter(problem.tracer(), "fixed_budget");
    candidates
        .iter_mut()
        .map(|c| {
            if !c.feasible {
                return 0;
            }
            c.estimate = problem.estimate_yield(&c.x, sims, c.decision);
            c.estimate.samples
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MohecoConfig;
    use moheco_analog::{FoldedCascode, Testbench};

    fn make_candidates(
        problem: &YieldProblem<crate::CircuitBench<FoldedCascode>>,
    ) -> Vec<Candidate> {
        // Reference design (good), a starved variant (infeasible) and a
        // perturbed-but-feasible variant.
        let reference = problem.testbench().reference_design();
        let mut starved = reference.clone();
        starved[8] = 55.0;
        let mut warm = reference.clone();
        warm[8] = 180.0;
        [reference, starved, warm]
            .into_iter()
            .map(|x| Candidate::screened(&problem.feasibility(&x), x))
            .collect()
    }

    #[test]
    fn two_stage_allocates_only_to_feasible_candidates() {
        let problem = YieldProblem::new(FoldedCascode::new());
        let mut candidates = make_candidates(&problem);
        let config = MohecoConfig {
            n0: 6,
            sim_ave: 15,
            delta: 8,
            n_max: 60,
            ..MohecoConfig::fast()
        };
        let served = estimate_two_stage(&problem, &mut candidates, &config);
        assert_eq!(served.len(), candidates.len());
        // The infeasible candidate received no samples.
        for (c, &s) in candidates.iter().zip(&served) {
            if !c.feasible {
                assert_eq!(s, 0);
                assert_eq!(c.yield_value(), 0.0);
            } else {
                assert!(s > 0, "feasible candidates must be sampled");
            }
        }
    }

    #[test]
    fn promotion_tops_up_to_n_max() {
        let problem = YieldProblem::new(FoldedCascode::new());
        let mut candidates = make_candidates(&problem);
        let config = MohecoConfig {
            n0: 6,
            sim_ave: 15,
            delta: 8,
            n_max: 80,
            stage2_threshold: 0.5,
            ..MohecoConfig::fast()
        };
        let _ = estimate_two_stage(&problem, &mut candidates, &config);
        let promoted: Vec<&Candidate> = candidates
            .iter()
            .filter(|c| c.feasible && c.yield_value() >= config.stage2_threshold)
            .collect();
        assert!(
            !promoted.is_empty(),
            "the reference design should be promoted"
        );
        for c in promoted {
            assert_eq!(c.estimate.samples, 80);
        }
    }

    #[test]
    fn single_feasible_candidate_gets_average_budget() {
        let problem = YieldProblem::new(FoldedCascode::new());
        let reference = problem.testbench().reference_design();
        let mut starved = reference.clone();
        starved[8] = 55.0;
        let mut candidates: Vec<Candidate> = [reference, starved]
            .into_iter()
            .map(|x| Candidate::screened(&problem.feasibility(&x), x))
            .collect();
        let config = MohecoConfig {
            sim_ave: 20,
            n0: 5,
            n_max: 50,
            stage2_threshold: 1.1, // disable promotion
            ..MohecoConfig::fast()
        };
        let served = estimate_two_stage(&problem, &mut candidates, &config);
        assert_eq!(served, [20, 0]);
    }

    #[test]
    fn fixed_budget_gives_every_feasible_candidate_the_same_samples() {
        let problem = YieldProblem::new(FoldedCascode::new());
        let mut candidates = make_candidates(&problem);
        let served = estimate_fixed_budget(&problem, &mut candidates, 40);
        for (c, &s) in candidates.iter().zip(&served) {
            if c.feasible && c.decision == AsDecision::FullSampling {
                assert_eq!(s, 40);
            } else if !c.feasible {
                assert_eq!(s, 0);
            }
        }
    }

    #[test]
    fn ocba_spends_more_on_better_candidates_on_average() {
        // This is the mechanism behind Fig. 3 of the paper.
        let problem = YieldProblem::new(FoldedCascode::new());
        let reference = problem.testbench().reference_design();
        // Construct several feasible candidates of varying quality by pushing
        // the tail current towards the power limit (lower yield).
        let currents = [150.0, 160.0, 168.0, 172.0];
        let mut candidates: Vec<Candidate> = currents
            .iter()
            .map(|&i| {
                let mut x = reference.clone();
                x[8] = i;
                Candidate::screened(&problem.feasibility(&x), x)
            })
            .collect();
        let config = MohecoConfig {
            n0: 10,
            sim_ave: 35,
            delta: 15,
            n_max: 200,
            stage2_threshold: 1.1,
            ..MohecoConfig::fast()
        };
        let served = estimate_two_stage(&problem, &mut candidates, &config);
        let feasible_total: usize = served.iter().sum();
        assert!(feasible_total > 0);
        // Best-yield candidate should not be starved relative to the worst.
        let yields: Vec<f64> = candidates.iter().map(Candidate::yield_value).collect();
        let best = yields
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let worst_feasible = candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.feasible)
            .min_by(|a, b| a.1.yield_value().partial_cmp(&b.1.yield_value()).unwrap())
            .unwrap()
            .0;
        assert!(
            served[best] + config.delta >= served[worst_feasible],
            "allocation {:?} yields {:?}",
            served,
            yields
        );
    }

    #[test]
    fn accumulated_candidates_never_exceed_n_max() {
        // Candidates may enter with prior samples (their estimates merge and
        // their stream cursors continue); the per-design ceiling must hold
        // for the *total* sample count, not just this call's allocation.
        let problem = YieldProblem::new(FoldedCascode::new());
        let mut candidates = make_candidates(&problem);
        let config = MohecoConfig {
            n0: 6,
            sim_ave: 15,
            delta: 8,
            n_max: 60,
            stage2_threshold: 1.1, // keep everything in stage 1
            ..MohecoConfig::fast()
        };
        for c in candidates.iter_mut() {
            if c.feasible {
                c.estimate = YieldEstimate::new(55, 55); // 5 samples of headroom
            }
        }
        let served = estimate_two_stage(&problem, &mut candidates, &config);
        for (c, &served) in candidates.iter().zip(&served) {
            if c.feasible {
                assert!(
                    c.estimate.samples <= config.n_max,
                    "total {} exceeds n_max",
                    c.estimate.samples
                );
                assert!(served <= 5, "only the headroom may be allocated");
            }
        }
    }

    #[test]
    fn repeated_estimation_of_the_same_generation_is_cached() {
        let problem = YieldProblem::new(FoldedCascode::new());
        let template = make_candidates(&problem);
        let config = MohecoConfig {
            n0: 6,
            sim_ave: 15,
            delta: 8,
            n_max: 60,
            stage2_threshold: 1.1,
            ..MohecoConfig::fast()
        };
        let mut first = template.clone();
        let served1 = estimate_two_stage(&problem, &mut first, &config);
        let after_first = problem.simulations();
        // Re-estimating clones of the same candidates replays the same
        // sample streams: identical estimates, zero new simulations.
        let mut second = template.clone();
        let served2 = estimate_two_stage(&problem, &mut second, &config);
        assert_eq!(served1, served2);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.estimate, b.estimate);
        }
        assert_eq!(problem.simulations(), after_first);
        assert!(problem.engine_stats().cache_hits > 0);
    }
}
