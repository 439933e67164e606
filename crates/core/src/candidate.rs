//! Candidate solutions of the yield optimizer.

use crate::problem::FeasibilityReport;
use moheco_sampling::{AsDecision, YieldEstimate};

/// One candidate sizing with its feasibility and yield information.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Design-variable vector.
    pub x: Vec<f64>,
    /// `true` when the nominal design meets every specification.
    pub feasible: bool,
    /// Aggregate nominal constraint violation (0 when feasible).
    pub violation: f64,
    /// Acceptance-sampling decision for this candidate.
    pub decision: AsDecision,
    /// Accumulated Monte-Carlo yield estimate.
    pub estimate: YieldEstimate,
}

impl Candidate {
    /// Creates an infeasible candidate (yield fixed at zero, per step 7 of the
    /// paper's flow).
    pub fn infeasible(x: Vec<f64>, violation: f64) -> Self {
        Self {
            x,
            feasible: false,
            violation,
            decision: AsDecision::RejectWithoutSampling,
            estimate: YieldEstimate::default(),
        }
    }

    /// Creates a feasible candidate awaiting yield estimation.
    pub fn feasible(x: Vec<f64>, decision: AsDecision) -> Self {
        Self {
            x,
            feasible: true,
            violation: 0.0,
            decision,
            estimate: YieldEstimate::default(),
        }
    }

    /// The candidate a nominal feasibility screen of `x` makes: feasible with
    /// the report's acceptance-sampling decision, or infeasible with its
    /// violation.
    pub fn screened(report: &FeasibilityReport, x: Vec<f64>) -> Self {
        if report.is_feasible() {
            Self::feasible(x, report.decision)
        } else {
            Self::infeasible(x, report.violation)
        }
    }

    /// The candidate's estimated yield (0 for infeasible candidates).
    pub fn yield_value(&self) -> f64 {
        if self.feasible {
            self.estimate.value()
        } else {
            0.0
        }
    }

    /// Selection rule of the algorithm (Deb's feasibility rules applied to
    /// yield maximisation): returns `true` when `self` should replace `other`
    /// in the one-to-one DE selection.
    ///
    /// Ties between feasible candidates go to `self` (DE's greedy
    /// replacement) — except when `self` carries no measured samples at all
    /// (e.g. the acceptance-sampling screen rejected it unsampled): an unmeasured
    /// candidate must not displace a measured competitor on the
    /// `0.0 == 0.0` tie.
    pub fn beats(&self, other: &Candidate) -> bool {
        match (self.feasible, other.feasible) {
            (true, false) => true,
            (false, true) => false,
            (true, true) => {
                if self.estimate.samples == 0 && other.estimate.samples > 0 {
                    self.yield_value() > other.yield_value()
                } else {
                    self.yield_value() >= other.yield_value()
                }
            }
            (false, false) => self.violation <= other.violation,
        }
    }
}

/// Returns the index of the best candidate (highest yield among feasible
/// candidates, otherwise smallest violation), or `None` for an empty slice.
pub fn best_candidate_index(candidates: &[Candidate]) -> Option<usize> {
    if candidates.is_empty() {
        return None;
    }
    let mut best = 0;
    for i in 1..candidates.len() {
        let a = &candidates[i];
        let b = &candidates[best];
        let a_wins = match (a.feasible, b.feasible) {
            (true, false) => true,
            (false, true) => false,
            (true, true) => a.yield_value() > b.yield_value(),
            (false, false) => a.violation < b.violation,
        };
        if a_wins {
            best = i;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feasible_with_yield(passes: usize, samples: usize) -> Candidate {
        let mut c = Candidate::feasible(vec![0.0], AsDecision::FullSampling);
        c.estimate = YieldEstimate::new(passes, samples);
        c
    }

    #[test]
    fn infeasible_candidates_report_zero_yield() {
        let c = Candidate::infeasible(vec![1.0], 2.5);
        assert_eq!(c.yield_value(), 0.0);
        assert!(!c.feasible);
        assert_eq!(c.violation, 2.5);
    }

    #[test]
    fn feasible_always_beats_infeasible() {
        let f = feasible_with_yield(1, 100); // terrible yield, but feasible
        let i = Candidate::infeasible(vec![0.0], 0.001);
        assert!(f.beats(&i));
        assert!(!i.beats(&f));
    }

    #[test]
    fn higher_yield_wins_between_feasible() {
        let a = feasible_with_yield(90, 100);
        let b = feasible_with_yield(80, 100);
        assert!(a.beats(&b));
        assert!(!b.beats(&a));
        // Ties are accepted (>=), matching DE's greedy replacement.
        assert!(a.beats(&a.clone()));
    }

    #[test]
    fn unmeasured_candidate_never_displaces_a_measured_one_on_a_tie() {
        // Both report 0.0 yield, but the parent paid for its estimate while
        // the trial was never sampled: the parent survives.
        let measured_zero = feasible_with_yield(0, 14);
        let unmeasured = Candidate::feasible(vec![0.0], AsDecision::FullSampling);
        assert!(!unmeasured.beats(&measured_zero));
        assert!(measured_zero.beats(&unmeasured));
        // Two unmeasured candidates still tie in the trial's favour.
        assert!(unmeasured.beats(&unmeasured.clone()));
    }

    #[test]
    fn lower_violation_wins_between_infeasible() {
        let a = Candidate::infeasible(vec![0.0], 0.5);
        let b = Candidate::infeasible(vec![0.0], 1.5);
        assert!(a.beats(&b));
        assert!(!b.beats(&a));
    }

    #[test]
    fn best_candidate_selection() {
        let candidates = vec![
            Candidate::infeasible(vec![0.0], 0.01),
            feasible_with_yield(50, 100),
            feasible_with_yield(95, 100),
            Candidate::infeasible(vec![0.0], 5.0),
        ];
        assert_eq!(best_candidate_index(&candidates), Some(2));
        assert_eq!(best_candidate_index(&[]), None);
        let all_bad = vec![
            Candidate::infeasible(vec![0.0], 3.0),
            Candidate::infeasible(vec![0.0], 1.0),
        ];
        assert_eq!(best_candidate_index(&all_bad), Some(1));
    }
}
