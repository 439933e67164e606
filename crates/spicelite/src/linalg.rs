//! Dense linear algebra kernels used by the MNA solver and by other crates in
//! the workspace (Cholesky factorisation for correlated process sampling,
//! normal-equation solves for Levenberg–Marquardt training).
//!
//! Only the operations the workspace needs are implemented: dense storage,
//! matrix/vector products, LU factorisation with partial pivoting (real and
//! complex) and Cholesky factorisation for symmetric positive definite
//! matrices.

use crate::complex::Complex;
use crate::error::SpiceError;
use std::fmt;

/// A dense, row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use spicelite::linalg::Matrix;
///
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
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

    /// Creates an identity matrix of dimension `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
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

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix-vector product `A * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in mul_vec");
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            let mut acc = 0.0;
            for j in 0..self.cols {
                acc += self[(i, j)] * x[j];
            }
            y[i] = acc;
        }
        y
    }

    /// Matrix-matrix product `A * B`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not agree.
    pub fn mul_mat(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.cols, b.rows, "dimension mismatch in mul_mat");
        let mut c = Matrix::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..b.cols {
                    c[(i, j)] += aik * b[(k, j)];
                }
            }
        }
        c
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

    /// Cholesky factorisation `A = L L^T` of a symmetric positive-definite
    /// matrix, returning the lower-triangular factor `L`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::NotPositiveDefinite`] when a diagonal entry of the
    /// factor would be non-positive, and [`SpiceError::DimensionMismatch`] when
    /// the matrix is not square.
    pub fn cholesky(&self) -> Result<Matrix, SpiceError> {
        if !self.is_square() {
            return Err(SpiceError::DimensionMismatch {
                expected: self.rows,
                got: self.cols,
            });
        }
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(SpiceError::NotPositiveDefinite { row: i });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
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

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.4e} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
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

/// Computes the dot product of two equally sized slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product requires equal lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_returns_rhs() {
        let a = Matrix::identity(4);
        let b = vec![1.0, -2.0, 3.0, 0.5];
        let x = a.solve(&b).unwrap();
        for (xi, bi) in x.iter().zip(&b) {
            assert!((xi - bi).abs() < 1e-14);
        }
    }

    #[test]
    fn solve_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero pivot forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
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
        let a = Matrix::identity(3);
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(SpiceError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn matmul_and_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let c = a.mul_mat(&b);
        assert_eq!(c, Matrix::from_rows(&[&[2.0, 1.0], &[4.0, 3.0]]));
        let t = a.transpose();
        assert_eq!(t, Matrix::from_rows(&[&[1.0, 3.0], &[2.0, 4.0]]));
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let y = a.mul_vec(&[1.0, 0.0, -1.0]);
        assert_eq!(y, vec![-2.0, -2.0]);
    }

    #[test]
    fn cholesky_of_spd_matrix() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let l = a.cholesky().unwrap();
        // Reconstruct L * L^T and compare.
        let lt = l.transpose();
        let rec = l.mul_mat(&lt);
        for i in 0..2 {
            for j in 0..2 {
                assert!((rec[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(matches!(
            a.cholesky(),
            Err(SpiceError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn add_diagonal_damps() {
        let mut a = Matrix::identity(2);
        a.add_diagonal(0.5);
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

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-14);
    }

    #[test]
    fn frobenius_norm_of_identity() {
        let a = Matrix::identity(4);
        assert!((a.frobenius_norm() - 2.0).abs() < 1e-14);
    }
}
