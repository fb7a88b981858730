//! Owned, row-major dense matrices.

use crate::num::Num;
use psml_parallel::Mt19937;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense `rows x cols` matrix stored row-major in one contiguous buffer.
#[derive(Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Num> Matrix<T> {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// Builds a matrix from a closure of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
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

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the dense wire representation in bytes.
    #[inline]
    pub fn byte_size(&self) -> usize {
        self.len() * T::BYTES
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the underlying buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix<T>) -> Matrix<T> {
        self.zip_map(rhs, T::add)
    }

    /// Element-wise difference `self - rhs`.
    pub fn sub(&self, rhs: &Matrix<T>) -> Matrix<T> {
        self.zip_map(rhs, T::sub)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, rhs: &Matrix<T>) -> Matrix<T> {
        self.zip_map(rhs, T::mul)
    }

    /// In-place element-wise addition.
    pub fn add_assign(&mut self, rhs: &Matrix<T>) {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a = a.add(*b);
        }
    }

    /// In-place element-wise subtraction.
    pub fn sub_assign(&mut self, rhs: &Matrix<T>) {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a = a.sub(*b);
        }
    }

    /// Scales every element by `k`.
    pub fn scale(&self, k: T) -> Matrix<T> {
        self.map(|x| x.mul(k))
    }

    /// Applies `f` element-wise.
    pub fn map(&self, f: impl Fn(T) -> T) -> Matrix<T> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Combines two equal-shaped matrices element-wise.
    pub fn zip_map(&self, rhs: &Matrix<T>, f: impl Fn(T, T) -> T) -> Matrix<T> {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Matrix transpose, cache-blocked: each `TILE x TILE` block is read
    /// as strided column walks that stay inside the block's cache lines
    /// and written as contiguous row segments of the result.
    pub fn transpose(&self) -> Matrix<T> {
        const TILE: usize = 32;
        let (rows, cols) = (self.rows, self.cols);
        let mut out = Matrix::zeros(cols, rows);
        if rows == 0 || cols == 0 {
            return out;
        }
        for r0 in (0..rows).step_by(TILE) {
            let r1 = (r0 + TILE).min(rows);
            for c0 in (0..cols).step_by(TILE) {
                for c in c0..(c0 + TILE).min(cols) {
                    let column = self.data[r0 * cols + c..].iter().step_by(cols);
                    let segment = &mut out.data[c * rows + r0..c * rows + r1];
                    for (dst, &src) in segment.iter_mut().zip(column) {
                        *dst = src;
                    }
                }
            }
        }
        out
    }

    /// Matrix product via the size-dispatching production kernel
    /// (see [`crate::gemm::gemm_auto`]).
    pub fn matmul(&self, rhs: &Matrix<T>) -> Matrix<T> {
        crate::gemm::gemm_auto(self, rhs)
    }

    /// Horizontal concatenation `[self | rhs]` (Eq. 8's row-block operand).
    ///
    /// # Panics
    /// Panics if row counts differ.
    pub fn hconcat(&self, rhs: &Matrix<T>) -> Matrix<T> {
        assert_eq!(self.rows, rhs.rows, "hconcat row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + rhs.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(rhs.row(r));
        }
        out
    }

    /// Vertical concatenation `[self ; rhs]` (Eq. 8's column-block operand).
    ///
    /// # Panics
    /// Panics if column counts differ.
    pub fn vconcat(&self, rhs: &Matrix<T>) -> Matrix<T> {
        assert_eq!(self.cols, rhs.cols, "vconcat col mismatch");
        let mut data = Vec::with_capacity(self.len() + rhs.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&rhs.data);
        Matrix {
            rows: self.rows + rhs.rows,
            cols: self.cols,
            data,
        }
    }

    /// Fraction of elements equal to zero, in `[0, 1]`.
    pub fn zero_fraction(&self) -> f64 {
        if self.data.is_empty() {
            return 1.0;
        }
        let zeros = self.data.iter().filter(|x| x.is_zero()).count();
        zeros as f64 / self.data.len() as f64
    }
}

impl Matrix<f32> {
    /// Fills with uniform values in `[lo, hi)` from a caller-supplied
    /// MT19937 generator (the paper's CPU random-matrix generation path).
    pub fn random(rows: usize, cols: usize, rng: &mut Mt19937, lo: f32, hi: f32) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        rng.fill_f32(m.as_mut_slice(), lo, hi);
        m
    }

    /// Maximum absolute element-wise difference to `rhs`.
    pub fn max_abs_diff(&self, rhs: &Matrix<f32>) -> f32 {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch");
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl Matrix<f64> {
    /// Maximum absolute element-wise difference to `rhs`.
    pub fn max_abs_diff(&self, rhs: &Matrix<f64>) -> f64 {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch");
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl<T: Num> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        debug_assert!(r < self.rows && c < self.cols, "index out of range");
        &self.data[r * self.cols + c]
    }
}

impl<T: Num> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        debug_assert!(r < self.rows && c < self.cols, "index out of range");
        &mut self.data[r * self.cols + c]
    }
}

impl<T: Num> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for r in 0..show_rows {
            let show_cols = self.cols.min(8);
            write!(f, "  ")?;
            for c in 0..show_cols {
                write!(f, "{:?} ", self[(r, c)])?;
            }
            if self.cols > show_cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize) -> Matrix<f32> {
        Matrix::from_fn(rows, cols, |r, c| (r * cols + c) as f32)
    }

    #[test]
    fn construction_and_indexing() {
        let m = mat(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(2, 3)], 11.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0, 7.0]);
        assert_eq!(m.byte_size(), 48);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = mat(2, 3);
        let b = Matrix::from_fn(2, 3, |r, c| (r + c) as f32);
        let sum = a.add(&b);
        assert_eq!(sum.sub(&b), a);
    }

    #[test]
    fn in_place_ops_match_pure_ops() {
        let a = mat(4, 4);
        let b = Matrix::from_fn(4, 4, |r, c| (r * c) as f32);
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c, a.add(&b));
        c.sub_assign(&b);
        assert_eq!(c, a);
    }

    #[test]
    fn transpose_involution() {
        let m = mat(3, 5);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn hconcat_and_vconcat_shapes() {
        let a = mat(2, 3);
        let b = mat(2, 2);
        let h = a.hconcat(&b);
        assert_eq!(h.shape(), (2, 5));
        assert_eq!(h[(1, 3)], b[(1, 0)]);
        let c = mat(3, 3);
        let v = mat(2, 3).vconcat(&c);
        assert_eq!(v.shape(), (5, 3));
        assert_eq!(v[(2, 0)], c[(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "hconcat row mismatch")]
    fn hconcat_rejects_mismatched_rows() {
        let _ = mat(2, 3).hconcat(&mat(3, 3));
    }

    #[test]
    fn zero_fraction_counts_zeros() {
        let mut m = Matrix::<f32>::zeros(2, 2);
        assert_eq!(m.zero_fraction(), 1.0);
        m[(0, 0)] = 5.0;
        assert_eq!(m.zero_fraction(), 0.75);
        assert_eq!(Matrix::<f32>::zeros(0, 0).zero_fraction(), 1.0);
    }

    #[test]
    fn scale_multiplies_every_element() {
        let m = mat(2, 2);
        assert_eq!(m.scale(2.0)[(1, 1)], 6.0);
    }

    #[test]
    fn ring_matrix_wraps() {
        let a = Matrix::from_vec(1, 2, vec![u64::MAX, 5]);
        let b = Matrix::from_vec(1, 2, vec![1u64, u64::MAX]);
        let s = a.add(&b);
        assert_eq!(s.as_slice(), &[0, 4]);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut r1 = Mt19937::new(9);
        let mut r2 = Mt19937::new(9);
        let a = Matrix::random(4, 4, &mut r1, -1.0, 1.0);
        let b = Matrix::random(4, 4, &mut r2, -1.0, 1.0);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn max_abs_diff_finds_the_largest_gap() {
        let a = mat(2, 2);
        let mut b = a.clone();
        b[(1, 0)] += 0.5;
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_checks_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0f32; 3]);
    }
}
