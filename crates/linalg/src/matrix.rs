//! Dense row-major matrix type and elementwise / BLAS-like operations.

use crate::vector::Vector;
use crate::{LinalgError, Result};
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense, row-major, `f64` matrix.
///
/// Sized for control workloads: ARX regressor matrices with hundreds of rows
/// and MPC Hessians with tens of rows. All operations are straightforward
/// dense loops; no blocking or SIMD, which would be overkill at these sizes.
///
/// # Examples
///
/// ```
/// use vdc_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c, a);
/// assert_eq!(a.transpose()[(0, 1)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a matrix of `rows x cols` filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix filled with a constant value.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Build a matrix from nested row slices (handy in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "Matrix::from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Build a diagonal matrix from a slice of diagonal entries.
    pub fn diag(entries: &[f64]) -> Self {
        let n = entries.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &v) in entries.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    #[inline]
    pub(crate) fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// A single row as a slice.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A single row as a mutable slice.
    #[inline]
    pub(crate) fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy of column `c` as a `Vector`.
    pub(crate) fn col(&self, c: usize) -> Vector {
        let mut v = Vec::with_capacity(self.rows);
        for r in 0..self.rows {
            v.push(self[(r, c)]);
        }
        Vector::from_vec(v)
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix multiplication, returning an error on dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "matmul",
                got: (rhs.rows, rhs.cols),
                expected: (self.cols, rhs.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order: innermost loop walks both operands contiguously.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(rhs_row.iter()) {
                    *o += aik * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `A * x`.
    pub fn matvec(&self, x: &Vector) -> Result<Vector> {
        if self.cols != x.len() {
            return Err(LinalgError::DimensionMismatch {
                context: "matvec",
                got: (x.len(), 1),
                expected: (self.cols, 1),
            });
        }
        let mut out = Vec::with_capacity(self.rows);
        for r in 0..self.rows {
            let row = self.row(r);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.as_slice()) {
                acc += a * b;
            }
            out.push(acc);
        }
        Ok(Vector::from_vec(out))
    }

    /// Transposed matrix-vector product `Aᵀ * x`.
    pub fn tr_matvec(&self, x: &Vector) -> Result<Vector> {
        if self.rows != x.len() {
            return Err(LinalgError::DimensionMismatch {
                context: "tr_matvec",
                got: (x.len(), 1),
                expected: (self.rows, 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(r)) {
                *o += a * xr;
            }
        }
        Ok(Vector::from_vec(out))
    }

    /// Gram matrix `AᵀA` (symmetric positive semi-definite).
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..n {
                let ai = row[i];
                if ai == 0.0 {
                    continue;
                }
                for j in i..n {
                    g[(i, j)] += ai * row[j];
                }
            }
        }
        for i in 0..n {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// Scale all entries in place.
    pub fn scale_mut(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Scaled copy.
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut m = self.clone();
        m.scale_mut(s);
        m
    }

    /// Max absolute entry (∞-norm of the vectorized matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Extract the sub-matrix `rows x cols` starting at `(r0, c0)`.
    ///
    /// # Panics
    /// Panics if the block extends past the matrix bounds.
    pub fn block(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Matrix {
        assert!(
            r0 + rows <= self.rows && c0 + cols <= self.cols,
            "block out of bounds"
        );
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            out.row_mut(r)
                .copy_from_slice(&self.row(r0 + r)[c0..c0 + cols]);
        }
        out
    }

    /// Write `src` into this matrix with its top-left corner at `(r0, c0)`.
    ///
    /// # Panics
    /// Panics if `src` extends past the matrix bounds.
    pub(crate) fn set_block(&mut self, r0: usize, c0: usize, src: &Matrix) {
        assert!(
            r0 + src.rows <= self.rows && c0 + src.cols <= self.cols,
            "set_block out of bounds"
        );
        for r in 0..src.rows {
            let dst = &mut self.row_mut(r0 + r)[c0..c0 + src.cols];
            dst.copy_from_slice(src.row(r));
        }
    }

    /// Add `s * I` to the matrix in place (Tikhonov / Levenberg damping).
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn add_diag_mut(&mut self, s: f64) {
        assert!(self.is_square(), "add_diag_mut requires a square matrix");
        for i in 0..self.rows {
            self[(i, i)] += s;
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix add: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "matrix add: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs).expect("matrix mul: dimension mismatch")
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, s: f64) -> Matrix {
        self.scaled(s)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scaled(-1.0)
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:>10.4}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.data.iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn from_rows_and_index() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_ragged_panics() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_dimension_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 3.0, 9.0]]);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn matvec_and_transpose_matvec() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let x = Vector::from_vec(vec![1.0, -1.0]);
        let y = a.matvec(&x).unwrap();
        assert_eq!(y.as_slice(), &[-1.0, -1.0, -1.0]);
        let z = Vector::from_vec(vec![1.0, 1.0, 1.0]);
        let w = a.tr_matvec(&z).unwrap();
        assert_eq!(w.as_slice(), &[9.0, 12.0]);
    }

    #[test]
    fn gram_matches_explicit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = a.gram();
        let g2 = a.transpose().matmul(&a).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!(approx(g[(i, j)], g2[(i, j)]));
            }
        }
    }

    #[test]
    fn block_and_set_block() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        let b = m.block(1, 1, 2, 2);
        assert_eq!(b, Matrix::from_rows(&[&[5.0, 6.0], &[8.0, 9.0]]));
        let mut z = Matrix::zeros(3, 3);
        z.set_block(0, 1, &b);
        assert_eq!(z[(0, 1)], 5.0);
        assert_eq!(z[(1, 2)], 9.0);
        assert_eq!(z[(2, 2)], 0.0);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -4.0]]);
        assert!(approx(m.max_abs(), 4.0));
    }

    #[test]
    fn arithmetic_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::identity(2);
        let s = &a + &b;
        assert_eq!(s[(0, 0)], 2.0);
        let d = &s - &b;
        assert_eq!(d, a);
        let n = -&a;
        assert_eq!(n[(1, 1)], -4.0);
        let sc = &a * 2.0;
        assert_eq!(sc[(1, 0)], 6.0);
    }

    #[test]
    fn add_diag() {
        let mut m = Matrix::zeros(3, 3);
        m.add_diag_mut(2.5);
        assert_eq!(m, Matrix::diag(&[2.5, 2.5, 2.5]));
    }

    #[test]
    fn col_extraction() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.col(1).as_slice(), &[2.0, 4.0]);
    }
}
