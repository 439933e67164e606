//! Correlation handling for inter-die parameters.
//!
//! Foundry statistical models frequently specify correlated inter-die
//! parameters (e.g. NMOS and PMOS oxide thickness move together because they
//! are grown in the same step). This module provides a small symmetric
//! positive-definite correlation matrix type with a Cholesky factorisation so
//! correlated standard-normal vectors can be generated from independent ones.

use std::fmt;

/// Error returned when a correlation matrix is invalid.
#[derive(Debug, Clone, PartialEq)]
pub enum CorrelationError {
    /// An off-diagonal entry was outside `[-1, 1]` or a diagonal entry was not 1.
    InvalidEntry {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
        /// The offending value.
        value: f64,
    },
    /// The matrix is not positive definite (Cholesky failed).
    NotPositiveDefinite {
        /// Row at which the factorisation failed.
        row: usize,
    },
    /// The matrix is not square or does not match the expected dimension.
    Dimension {
        /// Expected dimension.
        expected: usize,
        /// Dimension received.
        got: usize,
    },
}

impl fmt::Display for CorrelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorrelationError::InvalidEntry { row, col, value } => {
                write!(f, "invalid correlation entry ({row},{col}) = {value}")
            }
            CorrelationError::NotPositiveDefinite { row } => {
                write!(f, "correlation matrix is not positive definite (row {row})")
            }
            CorrelationError::Dimension { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for CorrelationError {}

/// A correlation matrix together with its lower-triangular Cholesky factor.
#[derive(Debug, Clone, PartialEq)]
pub struct Correlation {
    dim: usize,
    /// Lower-triangular Cholesky factor, row-major.
    chol: Vec<f64>,
    /// Whether `chol` is exactly the identity, decided once at construction.
    identity: bool,
}

impl Correlation {
    /// The identity correlation (independent variables) of dimension `dim`.
    pub fn identity(dim: usize) -> Self {
        let mut chol = vec![0.0; dim * dim];
        for i in 0..dim {
            chol[i * dim + i] = 1.0;
        }
        Self {
            dim,
            chol,
            identity: true,
        }
    }

    /// Builds a correlation structure from a full correlation matrix given as
    /// row-major `dim x dim` data.
    ///
    /// # Errors
    ///
    /// Returns [`CorrelationError::Dimension`] when `data.len() != dim*dim`,
    /// [`CorrelationError::InvalidEntry`] when entries are out of range and
    /// [`CorrelationError::NotPositiveDefinite`] when the Cholesky
    /// factorisation fails.
    pub fn from_matrix(dim: usize, data: &[f64]) -> Result<Self, CorrelationError> {
        if data.len() != dim * dim {
            return Err(CorrelationError::Dimension {
                expected: dim * dim,
                got: data.len(),
            });
        }
        for i in 0..dim {
            for j in 0..dim {
                let v = data[i * dim + j];
                if i == j && (v - 1.0).abs() > 1e-9 {
                    return Err(CorrelationError::InvalidEntry {
                        row: i,
                        col: j,
                        value: v,
                    });
                }
                if !(-1.0 - 1e-12..=1.0 + 1e-12).contains(&v) {
                    return Err(CorrelationError::InvalidEntry {
                        row: i,
                        col: j,
                        value: v,
                    });
                }
            }
        }
        // Cholesky factorisation.
        let mut l = vec![0.0; dim * dim];
        for i in 0..dim {
            for j in 0..=i {
                let mut sum = data[i * dim + j];
                for k in 0..j {
                    sum -= l[i * dim + k] * l[j * dim + k];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(CorrelationError::NotPositiveDefinite { row: i });
                    }
                    l[i * dim + j] = sum.sqrt();
                } else {
                    l[i * dim + j] = sum / l[j * dim + j];
                }
            }
        }
        let identity = (0..dim).all(|i| {
            let row = &l[i * dim..(i + 1) * dim];
            row.iter()
                .enumerate()
                .all(|(j, &v)| v == if i == j { 1.0 } else { 0.0 })
        });
        Ok(Self {
            dim,
            chol: l,
            identity,
        })
    }

    /// The exponential-decay correlation `rho_{ij} = rho^{|i-j|}`: a
    /// synthetic structure in which "nearby" parameters (same processing
    /// step) are correlated.
    #[cfg(test)]
    pub(crate) fn exponential(dim: usize, rho: f64) -> Result<Self, CorrelationError> {
        let mut data = vec![0.0; dim * dim];
        for i in 0..dim {
            for j in 0..dim {
                data[i * dim + j] = rho.powi((i as i32 - j as i32).abs());
            }
        }
        Self::from_matrix(dim, &data)
    }

    /// Dimension of the correlation matrix.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The lower-triangular Cholesky factor, row-major.
    #[cfg(test)]
    pub(crate) fn factor(&self) -> &[f64] {
        &self.chol
    }

    /// Transforms a vector of independent standard normals `z` into a vector
    /// of correlated standard normals `L z`.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != self.dim()`.
    pub fn correlate(&self, z: &[f64]) -> Vec<f64> {
        let mut v = z.to_vec();
        self.correlate_in_place(&mut v);
        v
    }

    /// [`Self::correlate`] in place: overwrites `z` with `L z`, bit for bit.
    ///
    /// Row `i` reads only `z[..=i]`, so the rows are computed last to first.
    /// An identity factor passes `z_i` through whenever the row sum would
    /// give it exactly: every `z` finite (so each `0 * z_j` is a signed zero)
    /// and `z_i != 0` (so the signs of those zeros cannot show). Otherwise
    /// the row sum runs as written.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != self.dim()`.
    pub(crate) fn correlate_in_place(&self, z: &mut [f64]) {
        assert_eq!(z.len(), self.dim, "dimension mismatch in correlate");
        let finite = self.identity && z.iter().all(|v| v.is_finite());
        for i in (0..self.dim).rev() {
            if finite && z[i] != 0.0 {
                continue;
            }
            z[i] = self.chol[i * self.dim..i * self.dim + i + 1]
                .iter()
                .zip(&*z)
                .map(|(&l, &zj)| l * zj)
                .sum();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn standard_normal(rng: &mut StdRng) -> f64 {
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    #[test]
    fn identity_is_a_passthrough() {
        let c = Correlation::identity(3);
        let z = vec![1.0, -2.0, 0.5];
        assert_eq!(c.correlate(&z), z);
        assert_eq!(c.dim(), 3);
    }

    #[test]
    fn identity_passthrough_matches_the_row_sum() {
        let row_sums = |c: &Correlation, z: &[f64]| -> Vec<f64> {
            let (dim, l) = (c.dim(), c.factor());
            (0..dim)
                .map(|i| (0..=i).map(|j| l[i * dim + j] * z[j]).sum())
                .collect()
        };
        let values = [1.5, -2.0, 0.0, -0.0, f64::NAN, f64::INFINITY, -1e-300];
        for c in [
            Correlation::identity(4),
            Correlation::exponential(4, 0.0).unwrap(),
        ] {
            // Every 4-vector over `values`.
            for code in 0..values.len().pow(4) {
                let z: Vec<f64> = (0..4)
                    .map(|k| values[code / values.len().pow(k) % values.len()])
                    .collect();
                let mut got = z.clone();
                c.correlate_in_place(&mut got);
                for (g, w) in got.iter().zip(row_sums(&c, &z)) {
                    // NaN payloads are unspecified; a NaN only has to stay NaN.
                    let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
                    assert!(same, "z = {z:?}: {g} vs {w}");
                }
            }
        }
    }

    #[test]
    fn from_matrix_validates_entries() {
        // Diagonal not 1.
        assert!(Correlation::from_matrix(2, &[2.0, 0.0, 0.0, 1.0]).is_err());
        // Out of range off-diagonal.
        assert!(Correlation::from_matrix(2, &[1.0, 1.5, 1.5, 1.0]).is_err());
        // Wrong size.
        assert!(matches!(
            Correlation::from_matrix(2, &[1.0, 0.0, 1.0]),
            Err(CorrelationError::Dimension { .. })
        ));
        // Not positive definite (rho = 1 duplicated columns beyond tolerance).
        let res = Correlation::from_matrix(
            3,
            &[
                1.0, 1.0, 0.0, //
                1.0, 1.0, 0.0, //
                0.0, 0.0, 1.0,
            ],
        );
        assert!(matches!(
            res,
            Err(CorrelationError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn exponential_structure_reproduces_sample_correlation() {
        let rho = 0.6;
        let c = Correlation::exponential(2, rho).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 50_000;
        let mut sum_xy = 0.0;
        let mut sum_x2 = 0.0;
        let mut sum_y2 = 0.0;
        for _ in 0..n {
            let z = vec![standard_normal(&mut rng), standard_normal(&mut rng)];
            let v = c.correlate(&z);
            sum_xy += v[0] * v[1];
            sum_x2 += v[0] * v[0];
            sum_y2 += v[1] * v[1];
        }
        let r = sum_xy / (sum_x2.sqrt() * sum_y2.sqrt());
        assert!((r - rho).abs() < 0.02, "sample correlation {r}");
    }

    #[test]
    fn error_display() {
        let e = CorrelationError::NotPositiveDefinite { row: 2 };
        assert!(e.to_string().contains("row 2"));
    }
}
