//! Compressed Sparse Row storage and the density test driving the paper's
//! compressed transmission (Section 4.4).
//!
//! Before a server ships `E_i`/`F_i` deltas to its peer, it checks whether
//! the delta is sparse ("75 percent elements in the matrix are zero in our
//! default settings"); if so it transmits CSR instead of the dense matrix.

use crate::matrix::Matrix;
use crate::num::Num;

/// The paper's default sparsity threshold: compress when >= 75 % zeros.
pub const DEFAULT_SPARSITY_THRESHOLD: f64 = 0.75;

/// Fraction of zero elements in a dense buffer.
pub fn density_of_zeros<T: Num>(data: &[T]) -> f64 {
    if data.is_empty() {
        return 1.0;
    }
    data.iter().filter(|x| x.is_zero()).count() as f64 / data.len() as f64
}

/// A Compressed Sparse Row matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr<T> {
    rows: usize,
    cols: usize,
    /// `row_ptr[r]..row_ptr[r+1]` indexes this row's entries. Length `rows+1`.
    row_ptr: Vec<u32>,
    /// Column index of each stored entry.
    col_idx: Vec<u32>,
    /// Stored values, row-major by construction.
    values: Vec<T>,
}

impl<T: Num> Csr<T> {
    /// Compresses a dense matrix, keeping only non-zero entries.
    ///
    /// # Panics
    /// Panics if the matrix has more than `u32::MAX` columns or non-zeros
    /// (the wire format uses 32-bit indices, as cuSPARSE does).
    pub fn from_dense(m: &Matrix<T>) -> Self {
        assert!(m.cols() <= u32::MAX as usize, "too many columns for CSR");
        let mut row_ptr = Vec::with_capacity(m.rows() + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0u32);
        for r in 0..m.rows() {
            for (c, &v) in m.row(r).iter().enumerate() {
                if !v.is_zero() {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            assert!(values.len() <= u32::MAX as usize, "too many non-zeros");
            row_ptr.push(values.len() as u32);
        }
        Csr {
            rows: m.rows(),
            cols: m.cols(),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Expands back to a dense matrix.
    pub fn to_dense(&self) -> Matrix<T> {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let lo = self.row_ptr[r] as usize;
            let hi = self.row_ptr[r + 1] as usize;
            let row = out.row_mut(r);
            for e in lo..hi {
                row[self.col_idx[e] as usize] = self.values[e];
            }
        }
        out
    }

    /// Adds this sparse matrix into `dense` in place (the receive-side of
    /// delta transmission: `E_{j+1} = E_j + delta`).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_into(&self, dense: &mut Matrix<T>) {
        assert_eq!(dense.shape(), (self.rows, self.cols), "shape mismatch");
        for r in 0..self.rows {
            let lo = self.row_ptr[r] as usize;
            let hi = self.row_ptr[r + 1] as usize;
            let row = dense.row_mut(r);
            for e in lo..hi {
                let c = self.col_idx[e] as usize;
                row[c] = row[c].add(self.values[e]);
            }
        }
    }

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `(rows, cols)` of the logical dense matrix.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Size of the CSR wire representation in bytes:
    /// `row_ptr` + `col_idx` (4 B each) + values.
    pub fn byte_size(&self) -> usize {
        (self.row_ptr.len() + self.col_idx.len()) * 4 + self.values.len() * T::BYTES
    }

    /// Whether shipping this matrix as CSR is smaller than dense.
    pub fn wins_over_dense(&self) -> bool {
        self.byte_size() < self.rows * self.cols * T::BYTES
    }

    /// Accessors for the raw arrays (wire encoding).
    pub fn raw_parts(&self) -> (&[u32], &[u32], &[T]) {
        (&self.row_ptr, &self.col_idx, &self.values)
    }

    /// Rebuilds a CSR matrix from raw arrays (wire decoding). The arrays
    /// come from outside the process, so structural inconsistency is an
    /// error naming the violated invariant, never a panic.
    pub fn try_from_raw_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        values: Vec<T>,
    ) -> Result<Self, &'static str> {
        if rows.checked_add(1) != Some(row_ptr.len()) {
            return Err("bad row_ptr length");
        }
        if col_idx.len() != values.len() {
            return Err("col/value length mismatch");
        }
        if row_ptr[0] != 0 || row_ptr[rows] as usize != values.len() {
            return Err("row_ptr does not span 0..nnz");
        }
        if !row_ptr.windows(2).all(|w| w[0] <= w[1]) {
            return Err("row_ptr not monotone");
        }
        if !col_idx.iter().all(|&c| (c as usize) < cols) {
            return Err("column index out of range");
        }
        Ok(Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse_matrix() -> Matrix<f32> {
        Matrix::from_fn(10, 10, |r, c| {
            if (r * 10 + c) % 5 == 0 {
                (r + c) as f32 + 1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn roundtrip_preserves_matrix() {
        let m = sparse_matrix();
        let csr = Csr::from_dense(&m);
        assert_eq!(csr.nnz(), 20);
        assert_eq!(csr.to_dense(), m);
    }

    #[test]
    fn empty_and_full_extremes() {
        let zero = Matrix::<f32>::zeros(4, 4);
        let csr = Csr::from_dense(&zero);
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.to_dense(), zero);

        let full = Matrix::from_fn(4, 4, |r, c| (r * 4 + c + 1) as f32);
        let csr = Csr::from_dense(&full);
        assert_eq!(csr.nnz(), 16);
        assert!(!csr.wins_over_dense());
        assert_eq!(csr.to_dense(), full);
    }

    #[test]
    fn byte_size_accounts_for_indices() {
        let m = sparse_matrix();
        let csr = Csr::from_dense(&m);
        // 11 row ptrs + 20 col idx @4B + 20 values @4B.
        assert_eq!(csr.byte_size(), (11 + 20) * 4 + 20 * 4);
        assert!(csr.wins_over_dense());
    }

    #[test]
    fn add_into_applies_delta() {
        let base = Matrix::from_fn(3, 3, |r, c| (r + c) as f32);
        let mut delta = Matrix::<f32>::zeros(3, 3);
        delta[(1, 1)] = 5.0;
        delta[(2, 0)] = -2.0;
        let csr = Csr::from_dense(&delta);
        let mut out = base.clone();
        csr.add_into(&mut out);
        assert_eq!(out, base.add(&delta));
    }

    #[test]
    fn density_of_zeros_handles_empty() {
        assert_eq!(density_of_zeros::<f32>(&[]), 1.0);
        assert_eq!(density_of_zeros(&[0.0f32, 1.0]), 0.5);
    }

    #[test]
    fn raw_parts_roundtrip() {
        let m = sparse_matrix();
        let csr = Csr::from_dense(&m);
        let (rp, ci, v) = csr.raw_parts();
        let rebuilt = Csr::try_from_raw_parts(10, 10, rp.to_vec(), ci.to_vec(), v.to_vec());
        assert_eq!(rebuilt, Ok(csr));
    }

    #[test]
    fn malformed_raw_parts_rejected() {
        let bad = |rows, cols, rp: &[u32], ci: &[u32]| {
            let vals = vec![1.0f32; ci.len()];
            Csr::try_from_raw_parts(rows, cols, rp.to_vec(), ci.to_vec(), vals).unwrap_err()
        };
        assert_eq!(bad(2, 2, &[0, 1], &[0]), "bad row_ptr length");
        assert_eq!(bad(usize::MAX, 2, &[0], &[]), "bad row_ptr length");
        assert_eq!(bad(2, 2, &[0, 2, 1], &[0]), "row_ptr not monotone");
        assert_eq!(bad(2, 2, &[1, 1, 1], &[0]), "row_ptr does not span 0..nnz");
        assert_eq!(bad(1, 2, &[0, 2], &[0]), "row_ptr does not span 0..nnz");
        assert_eq!(bad(1, 2, &[0, 1], &[5]), "column index out of range");
    }
}
