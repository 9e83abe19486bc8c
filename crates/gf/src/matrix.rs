//! Dense matrices over GF(2^8): the linear-algebra layer used to build
//! systematic Reed–Solomon generator matrices, invert decode matrices, and
//! rank-test LRC erasure patterns.

use crate::field::{gf_div, gf_inv, gf_mul, gf_pow};
use std::fmt;

/// A row-major dense matrix over GF(2^8).
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl Matrix {
    /// An all-zero `rows x cols` matrix.
    pub fn zero(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// The `n x n` identity.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m.set(i, i, 1);
        }
        m
    }

    /// An `rows x cols` Vandermonde matrix: entry `(i, j) = i^j`.
    ///
    /// Any `cols` rows of this matrix are linearly independent when
    /// `rows <= 256`, which is what makes it a valid MDS construction seed.
    pub fn vandermonde(rows: usize, cols: usize) -> Matrix {
        assert!(rows <= 256, "GF(2^8) Vandermonde supports at most 256 rows");
        let mut m = Matrix::zero(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, gf_pow(i as u8, j));
            }
        }
        m
    }

    /// An `rows x cols` Cauchy matrix with `x_i = i` and `y_j = rows + j`:
    /// entry `(i, j) = 1 / (x_i + y_j)`. Every square submatrix of a Cauchy
    /// matrix is invertible, so it is MDS without post-processing.
    ///
    /// # Panics
    /// Panics if `rows + cols > 256` (the x/y sets must be disjoint).
    pub fn cauchy(rows: usize, cols: usize) -> Matrix {
        assert!(
            rows + cols <= 256,
            "Cauchy needs rows+cols <= 256 in GF(2^8)"
        );
        let mut m = Matrix::zero(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                let denom = (i as u8) ^ ((rows + j) as u8);
                m.set(i, j, gf_inv(denom));
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> u8 {
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: u8) {
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    pub fn row(&self, r: usize) -> &[u8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in matrix multiply");
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for l in 0..self.cols {
                let a = self.get(i, l);
                if a == 0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    let prod = gf_mul(a, rhs.get(l, j));
                    let slot = out.get(i, j);
                    out.set(i, j, slot ^ prod);
                }
            }
        }
        out
    }

    /// A new matrix from the given subset of row indices.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zero(indices.len(), self.cols);
        for (oi, &ri) in indices.iter().enumerate() {
            let src = self.row(ri).to_vec();
            out.data[oi * self.cols..(oi + 1) * self.cols].copy_from_slice(&src);
        }
        out
    }

    /// Vertical concatenation `[self; bottom]`.
    ///
    /// # Panics
    /// Panics on column-count mismatch.
    pub fn stack(&self, bottom: &Matrix) -> Matrix {
        assert_eq!(self.cols, bottom.cols, "column mismatch in stack");
        let mut data = self.data.clone();
        data.extend_from_slice(&bottom.data);
        Matrix {
            rows: self.rows + bottom.rows,
            cols: self.cols,
            data,
        }
    }

    /// Rank via Gaussian elimination on a scratch copy.
    pub fn rank(&self) -> usize {
        let mut m = self.clone();
        let mut rank = 0;
        for col in 0..m.cols {
            if rank == m.rows {
                break;
            }
            // Find a pivot at or below `rank` in this column.
            let Some(pivot) = (rank..m.rows).find(|&r| m.get(r, col) != 0) else {
                continue;
            };
            m.swap_rows(rank, pivot);
            let inv = gf_inv(m.get(rank, col));
            for c in 0..m.cols {
                let v = m.get(rank, c);
                m.set(rank, c, gf_mul(v, inv));
            }
            for r in 0..m.rows {
                if r != rank {
                    let factor = m.get(r, col);
                    if factor != 0 {
                        for c in 0..m.cols {
                            let v = m.get(r, c) ^ gf_mul(factor, m.get(rank, c));
                            m.set(r, c, v);
                        }
                    }
                }
            }
            rank += 1;
        }
        rank
    }

    /// Inverse of a square matrix via Gauss–Jordan, or `None` if singular.
    pub fn invert(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "inverse of a non-square matrix");
        let n = self.rows;
        let mut work = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            let pivot = (col..n).find(|&r| work.get(r, col) != 0)?;
            work.swap_rows(col, pivot);
            inv.swap_rows(col, pivot);
            let scale = work.get(col, col);
            for c in 0..n {
                work.set(col, c, gf_div(work.get(col, c), scale));
                inv.set(col, c, gf_div(inv.get(col, c), scale));
            }
            for r in 0..n {
                if r != col {
                    let factor = work.get(r, col);
                    if factor != 0 {
                        for c in 0..n {
                            let wv = work.get(r, c) ^ gf_mul(factor, work.get(col, c));
                            work.set(r, c, wv);
                            let iv = inv.get(r, c) ^ gf_mul(factor, inv.get(col, c));
                            inv.set(r, c, iv);
                        }
                    }
                }
            }
        }
        Some(inv)
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(a * self.cols + c, b * self.cols + c);
        }
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:02x} ", self.get(r, c))?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A matrix from a nested-slice literal.
    fn from_rows(rows: &[&[u8]]) -> Matrix {
        Matrix {
            rows: rows.len(),
            cols: rows[0].len(),
            data: rows.concat(),
        }
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let m = Matrix::vandermonde(4, 4);
        let id = Matrix::identity(4);
        assert_eq!(m.mul(&id), m);
        assert_eq!(id.mul(&m), m);
    }

    #[test]
    fn invert_round_trips() {
        // Vandermonde over distinct points is invertible.
        let m = Matrix::vandermonde(5, 5);
        let inv = m.invert().expect("vandermonde must be invertible");
        assert_eq!(m.mul(&inv), Matrix::identity(5));
        assert_eq!(inv.mul(&m), Matrix::identity(5));
    }

    #[test]
    fn invert_round_trips_scaled() {
        // Same Gauss–Jordan path at a workload-scaled size: 16×16
        // natively, 6×6 under Miri (the interpreter is ~1000× slower).
        let n = if cfg!(miri) { 6 } else { 16 };
        let m = Matrix::vandermonde(n, n);
        let inv = m.invert().expect("vandermonde must be invertible");
        assert_eq!(m.mul(&inv), Matrix::identity(n));
        assert_eq!(inv.mul(&m), Matrix::identity(n));
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let m = from_rows(&[&[1, 2], &[1, 2]]);
        assert!(m.invert().is_none());
        assert_eq!(m.rank(), 1);
    }

    #[test]
    fn rank_of_rectangular() {
        let m = Matrix::vandermonde(6, 3);
        assert_eq!(m.rank(), 3);
        let z = Matrix::zero(4, 7);
        assert_eq!(z.rank(), 0);
    }

    #[test]
    fn cauchy_every_square_submatrix_invertible() {
        let m = Matrix::cauchy(4, 4);
        // Check all 2x2 minors are non-singular (a spot check of the MDS
        // property; full-rank of row subsets is exercised by the RS tests).
        for r0 in 0..4 {
            for r1 in (r0 + 1)..4 {
                for c0 in 0..4 {
                    for c1 in (c0 + 1)..4 {
                        let det = gf_mul(m.get(r0, c0), m.get(r1, c1))
                            ^ gf_mul(m.get(r0, c1), m.get(r1, c0));
                        assert_ne!(det, 0, "singular 2x2 minor at {r0},{r1},{c0},{c1}");
                    }
                }
            }
        }
    }

    #[test]
    fn vandermonde_any_k_rows_full_rank() {
        let k = 4;
        let m = Matrix::vandermonde(8, k);
        // Exhaustively test every k-subset of the 8 rows.
        for a in 0..8 {
            for b in (a + 1)..8 {
                for c in (b + 1)..8 {
                    for d in (c + 1)..8 {
                        let sub = m.select_rows(&[a, b, c, d]);
                        assert_eq!(sub.rank(), k, "rows {a},{b},{c},{d}");
                    }
                }
            }
        }
    }

    #[test]
    fn stack_and_select_rows() {
        let top = Matrix::identity(2);
        let bottom = from_rows(&[&[3, 4]]);
        let s = top.stack(&bottom);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.row(2), &[3, 4]);
        let sel = s.select_rows(&[2, 0]);
        assert_eq!(sel.row(0), &[3, 4]);
        assert_eq!(sel.row(1), &[1, 0]);
    }
}
