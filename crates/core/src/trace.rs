//! Per-generation traces of a yield-optimization run.
//!
//! Traces serve two purposes in the reproduction: they provide the
//! per-population allocation data behind Fig. 3, and they supply the
//! `(design point, yield)` pairs used in §3.4 to train the response-surface
//! (neural-network) baseline.

/// Snapshot of one generation.
#[derive(Debug, Clone, Default)]
pub struct GenerationRecord {
    /// Generation index (0-based).
    pub generation: usize,
    /// Best yield estimate in the population after this generation.
    pub best_yield: f64,
    /// Cumulative circuit simulations (executed, not cache-served) after
    /// this generation.
    pub simulations_so_far: u64,
    /// `(design point, estimated yield, samples served)` for every member of
    /// the population after this generation; the samples are those this
    /// generation's estimation served to the slot's trial candidate.
    pub candidates: Vec<(Vec<f64>, f64, usize)>,
}

/// The full trace of a run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// One record per generation.
    pub records: Vec<GenerationRecord>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a generation record.
    pub fn push(&mut self, record: GenerationRecord) {
        self.records.push(record);
    }

    /// Number of recorded generations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when no generations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All `(design point, yield)` pairs recorded up to and including
    /// generation `up_to` (inclusive), the training-set construction used by
    /// the §3.4 response-surface comparison.
    pub fn training_pairs(&self, up_to: usize) -> Vec<(Vec<f64>, f64)> {
        self.records
            .iter()
            .filter(|r| r.generation <= up_to)
            .flat_map(|r| {
                r.candidates
                    .iter()
                    .filter(|(_, _, samples)| *samples > 0)
                    .map(|(x, y, _)| (x.clone(), *y))
            })
            .collect()
    }

    /// The evaluated pairs of exactly one generation (the §3.4 test set).
    pub fn generation_pairs(&self, generation: usize) -> Vec<(Vec<f64>, f64)> {
        self.records
            .iter()
            .filter(|r| r.generation == generation)
            .flat_map(|r| {
                r.candidates
                    .iter()
                    .filter(|(_, _, samples)| *samples > 0)
                    .map(|(x, y, _)| (x.clone(), *y))
            })
            .collect()
    }

    /// Best-yield convergence history (one value per generation).
    pub fn best_yield_history(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.best_yield).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(generation: usize, best: f64, n: usize) -> GenerationRecord {
        GenerationRecord {
            generation,
            best_yield: best,
            simulations_so_far: (generation as u64 + 1) * 100,
            candidates: (0..n)
                .map(|i| (vec![i as f64], 0.5 + 0.1 * i as f64, 10 * (i + 1)))
                .collect(),
        }
    }

    #[test]
    fn push_and_len() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.push(record(0, 0.8, 2));
        t.push(record(1, 0.9, 3));
        assert_eq!(t.len(), 2);
        assert_eq!(t.best_yield_history(), vec![0.8, 0.9]);
    }

    #[test]
    fn training_pairs_accumulate_up_to_generation() {
        let mut t = Trace::new();
        t.push(record(0, 0.8, 2));
        t.push(record(1, 0.9, 3));
        t.push(record(2, 0.95, 1));
        assert_eq!(t.training_pairs(0).len(), 2);
        assert_eq!(t.training_pairs(1).len(), 5);
        assert_eq!(t.training_pairs(2).len(), 6);
        assert_eq!(t.generation_pairs(1).len(), 3);
        assert!(t.generation_pairs(9).is_empty());
    }

    #[test]
    fn unevaluated_candidates_are_excluded() {
        let mut r = record(0, 0.8, 2);
        r.candidates.push((vec![9.0], 0.0, 0)); // infeasible, never sampled
        let mut t = Trace::new();
        t.push(r);
        assert_eq!(t.training_pairs(0).len(), 2);
    }
}
