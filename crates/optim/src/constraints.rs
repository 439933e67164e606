//! Selection-based constraint handling (Deb's feasibility rules).
//!
//! The paper handles circuit performance specifications with the
//! selection-based method of Deb (2000), as combined with DE for analog
//! sizing in the authors' earlier work: when two candidates are compared,
//!
//! 1. a feasible candidate beats an infeasible one,
//! 2. two feasible candidates are compared on the objective,
//! 3. two infeasible candidates are compared on constraint violation.
//!
//! No penalty coefficients are needed, which is why the technique is popular
//! for simulation-based sizing where the objective and violation scales are
//! incommensurate.

use crate::problem::Evaluation;
use std::cmp::Ordering;

/// Compares two evaluations under Deb's feasibility rules, for minimisation.
///
/// Returns `Ordering::Less` when `a` is strictly better than `b`.
pub fn feasibility_compare(a: &Evaluation, b: &Evaluation) -> Ordering {
    match (a.is_feasible(), b.is_feasible()) {
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (true, true) => a
            .objective
            .partial_cmp(&b.objective)
            .unwrap_or(Ordering::Equal),
        (false, false) => a
            .constraint_violation
            .partial_cmp(&b.constraint_violation)
            .unwrap_or(Ordering::Equal),
    }
}

/// Returns `true` when `a` is better than or equivalent to `b` under the
/// feasibility rules (the acceptance test of DE's one-to-one selection).
pub fn is_better_or_equal(a: &Evaluation, b: &Evaluation) -> bool {
    feasibility_compare(a, b) != Ordering::Greater
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feasible_beats_infeasible() {
        let f = Evaluation::feasible(100.0);
        let i = Evaluation::infeasible(0.001);
        assert_eq!(feasibility_compare(&f, &i), Ordering::Less);
        assert_eq!(feasibility_compare(&i, &f), Ordering::Greater);
        assert!(is_better_or_equal(&f, &i));
        assert!(!is_better_or_equal(&i, &f));
    }

    #[test]
    fn two_feasible_compare_on_objective() {
        let a = Evaluation::feasible(1.0);
        let b = Evaluation::feasible(2.0);
        assert_eq!(feasibility_compare(&a, &b), Ordering::Less);
        assert_eq!(feasibility_compare(&b, &a), Ordering::Greater);
        assert_eq!(feasibility_compare(&a, &a), Ordering::Equal);
    }

    #[test]
    fn two_infeasible_compare_on_violation() {
        let a = Evaluation::infeasible(0.5);
        let b = Evaluation::infeasible(2.0);
        assert_eq!(feasibility_compare(&a, &b), Ordering::Less);
        assert!(is_better_or_equal(&a, &b));
    }

    #[test]
    fn equal_evaluations_accepted_by_selection() {
        let a = Evaluation::feasible(3.0);
        assert!(is_better_or_equal(&a, &a));
    }
}
