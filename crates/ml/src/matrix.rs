//! A small dense row-major matrix with exactly the operations the MLP and
//! the linear solvers need.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dense `rows × cols` matrix of `f64`, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// Xavier/Glorot-uniform initialization, deterministic in `seed`.
    ///
    /// Bound is `sqrt(6 / (fan_in + fan_out))`, the standard choice for the
    /// tanh/sigmoid networks this workspace trains.
    pub fn xavier(rows: usize, cols: usize, seed: u64) -> Self {
        let bound = (6.0 / (rows + cols) as f64).sqrt();
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Matrix { rows, cols, data }
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
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat parameter buffer (used by the optimizer).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat parameter buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// `y = W · x` for a column vector `x` (`len == cols`).
    ///
    /// Runs on the row-blocked kernel ([`crate::kernels::matvec_into`]);
    /// each output element accumulates in ascending column order, so the
    /// result is bit-identical to the scalar per-row loop this replaced.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = Vec::with_capacity(self.rows);
        crate::kernels::matvec_into(&self.data, self.rows, self.cols, x, &mut y);
        y
    }

    /// `y = Wᵀ · x` for a column vector `x` (`len == rows`).
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_t dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for r in 0..self.rows {
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            let row = self.row(r);
            for (c, w) in row.iter().enumerate() {
                y[c] += w * xr;
            }
        }
        y
    }

    /// Rank-1 accumulate: `W += scale · a · bᵀ` (gradient accumulation).
    pub fn add_outer(&mut self, scale: f64, a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), self.rows);
        assert_eq!(b.len(), self.cols);
        for r in 0..self.rows {
            let s = scale * a[r];
            if s == 0.0 {
                continue;
            }
            let base = r * self.cols;
            for c in 0..self.cols {
                self.data[base + c] += s * b[c];
            }
        }
    }

    /// Reset all entries to zero (gradient buffers between batches).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::dot;
    use proptest::prelude::*;

    #[test]
    fn matvec_known() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        assert_eq!(m.matvec_t(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn outer_accumulates() {
        let mut m = Matrix::zeros(2, 2);
        m.add_outer(2.0, &[1.0, 3.0], &[4.0, 5.0]);
        assert_eq!(m.get(0, 0), 8.0);
        assert_eq!(m.get(0, 1), 10.0);
        assert_eq!(m.get(1, 0), 24.0);
        assert_eq!(m.get(1, 1), 30.0);
        m.fill_zero();
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn xavier_is_deterministic_and_bounded() {
        let a = Matrix::xavier(4, 6, 42);
        let b = Matrix::xavier(4, 6, 42);
        let c = Matrix::xavier(4, 6, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let bound = (6.0 / 10.0f64).sqrt();
        assert!(a.as_slice().iter().all(|&v| v.abs() <= bound));
    }

    #[test]
    fn accessors() {
        let mut m = Matrix::zeros(2, 2);
        *m.get_mut(1, 0) = 7.0;
        assert_eq!(m.get(1, 0), 7.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.row(1), &[7.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "buffer size mismatch")]
    fn from_vec_validates() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    proptest! {
        #[test]
        fn matvec_linearity(
            vals in proptest::collection::vec(-5.0f64..5.0, 6),
            x in proptest::collection::vec(-5.0f64..5.0, 3),
            y in proptest::collection::vec(-5.0f64..5.0, 3),
        ) {
            let m = Matrix::from_vec(2, 3, vals);
            let sum: Vec<f64> = x.iter().zip(y.iter()).map(|(a, b)| a + b).collect();
            let lhs = m.matvec(&sum);
            let rhs: Vec<f64> = m.matvec(&x).iter().zip(m.matvec(&y).iter())
                .map(|(a, b)| a + b).collect();
            for (l, r) in lhs.iter().zip(rhs.iter()) {
                prop_assert!((l - r).abs() < 1e-9);
            }
        }

        #[test]
        fn transpose_consistency(
            vals in proptest::collection::vec(-3.0f64..3.0, 6),
            x in proptest::collection::vec(-3.0f64..3.0, 3),
            y in proptest::collection::vec(-3.0f64..3.0, 2),
        ) {
            // ⟨Wx, y⟩ == ⟨x, Wᵀy⟩
            let m = Matrix::from_vec(2, 3, vals);
            let lhs = dot(&m.matvec(&x), &y);
            let rhs = dot(&x, &m.matvec_t(&y));
            prop_assert!((lhs - rhs).abs() < 1e-9);
        }
    }
}
