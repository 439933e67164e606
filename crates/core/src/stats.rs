//! Multi-run statistics used to fill the paper's tables.
//!
//! Every experiment in the paper reports best / worst / average / variance
//! over 10 independent optimization runs.

/// Summary statistics over a set of independent runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunSummary {
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Mean value.
    pub mean: f64,
    /// Median value (midpoint of the two central values for even counts).
    /// The campaign layer's aggregate gate compares medians because they are
    /// robust to one outlier seed.
    pub median: f64,
    /// Population variance.
    pub variance: f64,
    /// Number of runs.
    pub runs: usize,
}

impl RunSummary {
    /// Computes the summary of a set of values.
    ///
    /// Returns the all-zero summary for an empty slice.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self::default();
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let variance = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let mid = sorted.len() / 2;
        let median = if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        };
        Self {
            min,
            max,
            mean,
            median,
            variance,
            runs: values.len(),
        }
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = RunSummary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.median, 2.5);
        assert_eq!(RunSummary::of(&[3.0, 1.0, 2.0]).median, 2.0);
        assert!((s.variance - 1.25).abs() < 1e-12);
        assert!((s.std_dev() - 1.25f64.sqrt()).abs() < 1e-12);
        assert_eq!(s.runs, 4);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = RunSummary::of(&[]);
        assert_eq!(s.runs, 0);
        assert_eq!(s.mean, 0.0);
    }
}
