//! The adaptive trigger of the memetic operator.
//!
//! The paper's memetic engine departs from the textbook construction in two
//! ways that make it affordable inside an expensive Monte-Carlo loop:
//!
//! 1. the local search is applied **only to the best member** of the DE
//!    population (whose schemata propagate to the next generation through the
//!    `DE/best/1` base vector), never to the whole population;
//! 2. the local search is **triggered adaptively**: only when the best yield
//!    has not improved for 5 consecutive generations does a short (≈10
//!    iteration) Nelder–Mead refinement run, after which control returns to
//!    DE.
//!
//! `moheco::YieldOptimizer` runs that loop; this module holds the
//! [`StagnationTracker`] that decides when the refinement fires.

/// Tracks how many consecutive generations the best objective has failed to
/// improve, and decides when the memetic local search should fire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagnationTracker {
    /// Number of stagnant generations after which the local search triggers.
    pub trigger: usize,
    stagnant: usize,
    last_best: Option<f64>,
    /// Minimum improvement that resets the counter.
    pub tolerance: f64,
}

impl StagnationTracker {
    /// Creates a tracker that triggers after `trigger` stagnant generations.
    pub fn new(trigger: usize) -> Self {
        Self {
            trigger,
            stagnant: 0,
            last_best: None,
            tolerance: 1e-12,
        }
    }

    /// Records the best objective of the current generation and returns
    /// `true` when the local search should be triggered (the counter resets
    /// after firing).
    pub fn update(&mut self, best_objective: f64) -> bool {
        let improved = match self.last_best {
            None => true,
            Some(prev) => best_objective < prev - self.tolerance,
        };
        if improved {
            self.last_best = Some(best_objective);
            self.stagnant = 0;
        } else {
            self.stagnant += 1;
        }
        if self.stagnant >= self.trigger {
            self.stagnant = 0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stagnation_tracker_counts_and_fires() {
        let mut t = StagnationTracker::new(3);
        assert!(!t.update(10.0)); // first value = improvement
        assert!(!t.update(10.0));
        assert!(!t.update(10.0));
        assert!(t.update(10.0)); // third stagnant generation fires
        assert_eq!(t.stagnant, 0); // reset after firing
        assert!(!t.update(9.0)); // improvement resets
        assert!(!t.update(9.5));
        assert!(!t.update(9.5));
        assert!(t.update(9.5));
    }
}
