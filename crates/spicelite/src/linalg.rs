//! Dense linear algebra kernels used by the MNA solver and by the
//! normal-equation solves of Levenberg–Marquardt training in
//! `moheco-surrogate`.
//!
//! Only the operations the workspace needs are implemented: dense storage,
//! diagonal damping and LU factorisation with partial pivoting (real and
//! complex).

use crate::complex::Complex;
use crate::error::SpiceError;

/// A dense, row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use spicelite::linalg::Matrix;
///
/// let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
/// let x = a.solve(&[3.0, 5.0]).expect("non-singular");
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Adds `k * I` to the diagonal in place (used for LM damping).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_diagonal(&mut self, k: f64) {
        assert!(self.is_square(), "add_diagonal requires a square matrix");
        for i in 0..self.rows {
            self[(i, i)] += k;
        }
    }

    /// Solves `A x = b` by LU factorisation with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] when a pivot underflows,
    /// [`SpiceError::DimensionMismatch`] if `b` has the wrong length or the
    /// matrix is not square.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SpiceError> {
        if !self.is_square() {
            return Err(SpiceError::DimensionMismatch {
                expected: self.rows,
                got: self.cols,
            });
        }
        if b.len() != self.rows {
            return Err(SpiceError::DimensionMismatch {
                expected: self.rows,
                got: b.len(),
            });
        }
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x: Vec<f64> = b.to_vec();
        lu_solve_in_place(n, &mut a, &mut x)?;
        Ok(x)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// A dense, row-major matrix of [`Complex`] entries, used by the AC solver.
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl CMatrix {
    /// Creates a `rows x cols` complex matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![Complex::ZERO; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Solves `A x = b` by complex LU factorisation with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] when the matrix is numerically
    /// singular and [`SpiceError::DimensionMismatch`] on shape errors.
    pub fn solve(&self, b: &[Complex]) -> Result<Vec<Complex>, SpiceError> {
        if self.rows != self.cols {
            return Err(SpiceError::DimensionMismatch {
                expected: self.rows,
                got: self.cols,
            });
        }
        if b.len() != self.rows {
            return Err(SpiceError::DimensionMismatch {
                expected: self.rows,
                got: b.len(),
            });
        }
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x: Vec<Complex> = b.to_vec();
        clu_solve_in_place(n, &mut a, &mut x)?;
        Ok(x)
    }
}

/// Solves `A x = b` in place by real LU factorisation with partial pivoting.
///
/// `a` is an `n x n` row-major matrix that is overwritten with its (permuted)
/// LU factors; `x` holds the right-hand side on entry and the solution on
/// return. This is the arithmetic core of [`Matrix::solve`], exposed so a
/// caller can reuse preallocated buffers while producing **bit-identical**
/// results to the allocating API — both call this exact function.
///
/// # Errors
///
/// Returns [`SpiceError::SingularMatrix`] when a pivot underflows.
///
/// # Panics
///
/// Panics if `a.len() < n * n` or `x.len() < n`.
pub fn lu_solve_in_place(n: usize, a: &mut [f64], x: &mut [f64]) -> Result<(), SpiceError> {
    // In-place LU with partial pivoting, forward/back substitution.
    for k in 0..n {
        // Pivot search.
        let mut p = k;
        let mut max = a[k * n + k].abs();
        for i in (k + 1)..n {
            let v = a[i * n + k].abs();
            if v > max {
                max = v;
                p = i;
            }
        }
        if max < 1e-300 {
            return Err(SpiceError::SingularMatrix { pivot: k });
        }
        if p != k {
            for j in 0..n {
                a.swap(k * n + j, p * n + j);
            }
            x.swap(k, p);
        }
        let pivot = a[k * n + k];
        for i in (k + 1)..n {
            let f = a[i * n + k] / pivot;
            if f == 0.0 {
                continue;
            }
            a[i * n + k] = 0.0;
            for j in (k + 1)..n {
                a[i * n + j] -= f * a[k * n + j];
            }
            x[i] -= f * x[k];
        }
    }
    // Back substitution.
    for i in (0..n).rev() {
        let mut acc = x[i];
        for j in (i + 1)..n {
            acc -= a[i * n + j] * x[j];
        }
        x[i] = acc / a[i * n + i];
    }
    Ok(())
}

/// Complex counterpart of [`lu_solve_in_place`]: the arithmetic core of
/// [`CMatrix::solve`], shared with the batched AC sweep so both paths run the
/// identical floating-point operation sequence.
///
/// # Errors
///
/// Returns [`SpiceError::SingularMatrix`] when a pivot underflows.
///
/// # Panics
///
/// Panics if `a.len() < n * n` or `x.len() < n`.
pub fn clu_solve_in_place(
    n: usize,
    a: &mut [Complex],
    x: &mut [Complex],
) -> Result<(), SpiceError> {
    for k in 0..n {
        let mut p = k;
        let mut max = a[k * n + k].norm_sqr();
        for i in (k + 1)..n {
            let v = a[i * n + k].norm_sqr();
            if v > max {
                max = v;
                p = i;
            }
        }
        if max < 1e-300 {
            return Err(SpiceError::SingularMatrix { pivot: k });
        }
        if p != k {
            for j in 0..n {
                a.swap(k * n + j, p * n + j);
            }
            x.swap(k, p);
        }
        let pivot = a[k * n + k];
        for i in (k + 1)..n {
            let f = a[i * n + k] / pivot;
            if f == Complex::ZERO {
                continue;
            }
            a[i * n + k] = Complex::ZERO;
            for j in (k + 1)..n {
                let update = f * a[k * n + j];
                a[i * n + j] -= update;
            }
            let update = f * x[k];
            x[i] -= update;
        }
    }
    for i in (0..n).rev() {
        let mut acc = x[i];
        for j in (i + 1)..n {
            acc -= a[i * n + j] * x[j];
        }
        x[i] = acc / a[i * n + i];
    }
    Ok(())
}

impl std::ops::Index<(usize, usize)> for CMatrix {
    type Output = Complex;
    fn index(&self, (i, j): (usize, usize)) -> &Complex {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for CMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_returns_rhs() {
        let mut a = Matrix::zeros(4, 4);
        a.add_diagonal(1.0);
        let b = vec![1.0, -2.0, 3.0, 0.5];
        let x = a.solve(&b).unwrap();
        for (xi, bi) in x.iter().zip(&b) {
            assert!((xi - bi).abs() < 1e-14);
        }
    }

    #[test]
    fn solve_2x2() {
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero pivot forces a row swap.
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(SpiceError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn non_square_solve_is_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(SpiceError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rhs_length_mismatch_is_rejected() {
        let a = Matrix::zeros(3, 3);
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(SpiceError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn add_diagonal_damps() {
        let mut a = Matrix::zeros(2, 2);
        a.add_diagonal(1.5);
        assert_eq!(a[(0, 0)], 1.5);
        assert_eq!(a[(1, 1)], 1.5);
        assert_eq!(a[(0, 1)], 0.0);
    }

    #[test]
    fn complex_solve_roundtrip() {
        let mut a = CMatrix::zeros(2, 2);
        a[(0, 0)] = Complex::new(1.0, 1.0);
        a[(0, 1)] = Complex::new(0.0, -1.0);
        a[(1, 0)] = Complex::new(2.0, 0.0);
        a[(1, 1)] = Complex::new(3.0, 1.0);
        let x_true = [Complex::new(1.0, -1.0), Complex::new(0.5, 2.0)];
        // b = A * x_true
        let b = [
            a[(0, 0)] * x_true[0] + a[(0, 1)] * x_true[1],
            a[(1, 0)] * x_true[0] + a[(1, 1)] * x_true[1],
        ];
        let x = a.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((*xi - *ti).abs() < 1e-12);
        }
    }

    #[test]
    fn complex_singular_detected() {
        let a = CMatrix::zeros(2, 2);
        assert!(matches!(
            a.solve(&[Complex::ONE, Complex::ONE]),
            Err(SpiceError::SingularMatrix { .. })
        ));
    }
}
