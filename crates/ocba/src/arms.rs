//! OCBA over abstract arms.
//!
//! The allocation rule in [`crate::allocation`] speaks in "designs" because
//! that is what the paper allocates over: candidate circuit sizings inside
//! one population. The rule itself only ever consumes four numbers per
//! competitor — mean, variance, replications spent, and an optional cap —
//! so the same machinery applies one level up, where the competitors are
//! campaign cells and a "replication" is a whole seeded optimization run.
//! [`Arm`] is that four-number abstraction, and [`allocate_arm_increment`]
//! is the capped incremental allocation every consumer (the sequential
//! design loop, the campaign scheduler) routes through: it runs the rule's
//! incremental shortfall split (including the remainder-to-underfunded-only
//! and NaN-ranking fixes) and owns the cap-clamp-then-redistribute step that
//! used to live inline in [`crate::run_sequential_batched`].

use crate::allocation::{AllocScratch, OcbaError};

/// One competitor in an abstract OCBA allocation: anything with an observed
/// mean, an observed variance, a replication count, and (optionally) a hard
/// cap on how many replications it may ever receive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arm {
    /// Sample mean of the arm's performance (higher is better).
    pub mean: f64,
    /// Sample variance of a single replication of the arm.
    pub variance: f64,
    /// Replications already spent on the arm.
    pub count: usize,
    /// Hard cap on the arm's cumulative replications (`None` = unlimited).
    pub cap: Option<usize>,
}

impl Arm {
    /// Creates an uncapped arm.
    pub fn new(mean: f64, variance: f64, count: usize) -> Self {
        Self {
            mean,
            variance,
            count,
            cap: None,
        }
    }

    /// Sets the cumulative replication cap.
    pub fn with_cap(mut self, cap: usize) -> Self {
        self.cap = Some(cap);
        self
    }

    /// Replications the arm can still receive before hitting its cap.
    pub fn room(&self) -> usize {
        self.cap.unwrap_or(usize::MAX).saturating_sub(self.count)
    }
}

/// Allocates `delta` additional replications across `arms`, tracking the
/// OCBA-optimal cumulative proportions and respecting every arm's cap.
///
/// The grant vector sums to `min(delta, total cap room)`: each arm's OCBA
/// grant is clamped to its remaining cap room, and whatever the caps
/// swallowed is redistributed to arms that still have room — one replication
/// per arm per lap, in index order — so budget is never stranded while an
/// uncapped (or under-cap) arm could absorb it. With a single arm the OCBA
/// proportions are vacuous and the arm simply receives `min(delta, room)`.
///
/// # Errors
///
/// Returns [`OcbaError::ZeroBudget`] when `delta` is zero and
/// [`OcbaError::TooFewDesigns`] when `arms` is empty; otherwise propagates
/// [`crate::allocate`]'s input validation (e.g. a negative or non-finite
/// variance).
pub fn allocate_arm_increment(arms: &[Arm], delta: usize) -> Result<Vec<usize>, OcbaError> {
    let mut granted = Vec::new();
    arm_increment(arms, delta, &mut AllocScratch::default(), &mut granted)?;
    Ok(granted)
}

/// The body of [`allocate_arm_increment`], writing the grants into
/// `granted` and working in `scratch`, so a caller that keeps both across
/// rounds allocates nothing.
pub(crate) fn arm_increment(
    arms: &[Arm],
    delta: usize,
    scratch: &mut AllocScratch,
    granted: &mut Vec<usize>,
) -> Result<(), OcbaError> {
    if arms.is_empty() {
        return Err(OcbaError::TooFewDesigns { got: 0 });
    }
    if delta == 0 {
        return Err(OcbaError::ZeroBudget);
    }
    if arms.len() == 1 {
        granted.clear();
        granted.push(delta.min(arms[0].room()));
    } else {
        scratch.increment(
            arms.len(),
            |i| arms[i].mean,
            |i| arms[i].variance,
            |i| arms[i].count,
            delta,
            granted,
        )?;
        for (g, arm) in granted.iter_mut().zip(arms) {
            *g = (*g).min(arm.room());
        }
    }
    // Redistribute what the caps swallowed: one replication per arm per lap,
    // in index order, to arms still below their cap. Deterministic, and
    // identical to the redistribution the sequential design loop always ran.
    // Whole laps are granted arithmetically: while `k` arms have room, each
    // lap gives each of them one unit, so `min(leftover / k, smallest room)`
    // laps in one step change no outcome. Every step either ends the loop or
    // fills an arm, so it runs at most `arms.len()` times.
    let mut leftover = delta - granted.iter().sum::<usize>();
    while leftover > 0 {
        let (with_room, min_room) = granted
            .iter()
            .zip(arms)
            .map(|(&g, arm)| arm.room() - g)
            .filter(|&room| room > 0)
            .fold((0, usize::MAX), |(k, min), room| (k + 1, min.min(room)));
        if with_room == 0 {
            break; // every arm is at its cap
        }
        let laps = (leftover / with_room).min(min_room);
        if laps == 0 {
            // Fewer units than arms with room: one partial lap ends it.
            for (g, arm) in granted.iter_mut().zip(arms) {
                if leftover == 0 {
                    break;
                }
                if *g < arm.room() {
                    *g += 1;
                    leftover -= 1;
                }
            }
            break;
        }
        for (g, arm) in granted.iter_mut().zip(arms) {
            if *g < arm.room() {
                *g += laps;
            }
        }
        leftover -= laps * with_room;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_input() {
        assert!(matches!(
            allocate_arm_increment(&[], 5),
            Err(OcbaError::TooFewDesigns { got: 0 })
        ));
        assert!(matches!(
            allocate_arm_increment(&[Arm::new(0.5, 0.1, 3)], 0),
            Err(OcbaError::ZeroBudget)
        ));
        assert!(matches!(
            allocate_arm_increment(&[Arm::new(0.5, -1.0, 3), Arm::new(0.4, 0.1, 3)], 5),
            Err(OcbaError::InvalidVariance { .. })
        ));
    }

    #[test]
    fn single_arm_gets_the_delta_up_to_its_cap() {
        let uncapped = allocate_arm_increment(&[Arm::new(0.5, 0.1, 3)], 7).unwrap();
        assert_eq!(uncapped, vec![7]);
        let capped = allocate_arm_increment(&[Arm::new(0.5, 0.1, 3).with_cap(5)], 7).unwrap();
        assert_eq!(capped, vec![2]);
        let full = allocate_arm_increment(&[Arm::new(0.5, 0.1, 5).with_cap(5)], 7).unwrap();
        assert_eq!(full, vec![0]);
    }

    #[test]
    fn noisier_arms_receive_more() {
        let arms = [
            Arm::new(0.9, 0.002, 3),
            Arm::new(0.7, 0.2, 3),
            Arm::new(0.69, 0.002, 3),
        ];
        let grants = allocate_arm_increment(&arms, 30).unwrap();
        assert_eq!(grants.iter().sum::<usize>(), 30);
        assert!(
            grants[1] > grants[2],
            "high-variance arm should earn more: {grants:?}"
        );
    }

    #[test]
    fn caps_redistribute_instead_of_stranding_budget() {
        // The noisy arm would hog the grant, but its cap leaves room for one
        // replication only; the rest must flow to the arms with room.
        let arms = [
            Arm::new(0.9, 0.3, 4).with_cap(5),
            Arm::new(0.85, 0.001, 3).with_cap(10),
            Arm::new(0.2, 0.001, 3).with_cap(10),
        ];
        let grants = allocate_arm_increment(&arms, 9).unwrap();
        assert_eq!(grants.iter().sum::<usize>(), 9, "{grants:?}");
        assert!(grants[0] <= 1, "cap respected: {grants:?}");
        for (g, arm) in grants.iter().zip(&arms) {
            assert!(g + arm.count <= arm.cap.unwrap(), "{grants:?}");
        }
    }

    #[test]
    fn fully_capped_arms_truncate_the_grant() {
        let arms = [
            Arm::new(0.9, 0.1, 5).with_cap(5),
            Arm::new(0.5, 0.1, 4).with_cap(5),
        ];
        let grants = allocate_arm_increment(&arms, 10).unwrap();
        assert_eq!(grants, vec![0, 1], "only the remaining room is granted");
    }

    #[test]
    fn nan_mean_arm_is_ranked_worst_not_poisonous() {
        // Inherited from the allocation core: a NaN mean must neither win
        // the best-arm selection nor collapse the split to uniform.
        let arms = [
            Arm::new(f64::NAN, 0.1, 3),
            Arm::new(0.8, 0.05, 3),
            Arm::new(0.75, 0.2, 3),
        ];
        let grants = allocate_arm_increment(&arms, 30).unwrap();
        assert_eq!(grants.iter().sum::<usize>(), 30);
        assert!(
            grants[1] + grants[2] >= grants[0],
            "finite arms dominate: {grants:?}"
        );
    }
}
