//! Blocked dense kernels: the inner loops under [`crate::Matrix`] and the
//! MLP forward pass.
//!
//! ## The determinism constraint
//!
//! Every float sum in this workspace is byte-compared somewhere — golden
//! store fixtures pin trained weights, `bench_serve_load` byte-compares
//! served explanations, and the property suites pin kernel ≡ scalar
//! bit-equality. Float addition is not associative, so a kernel may **never
//! reassociate a reduction**: each dot product must accumulate its terms in
//! ascending index order, exactly like the scalar loop it replaces.
//!
//! The parallelism therefore lives in the *independent* dimensions, not in
//! the reduction:
//!
//! - [`matvec_into`] blocks **output rows** four at a time: four
//!   accumulators advance in lockstep over the shared input vector, each
//!   summing its own row in index order. `x[k]` is loaded once per block
//!   instead of once per row, and the four independent FP chains pipeline
//!   where the single-accumulator loop serializes.
//! - [`dot`] keeps the single sequential chain (its reduction order *is*
//!   the contract) but walks fixed-width blocks via slice patterns, which
//!   eliminates per-element bounds checks without touching the association
//!   order.
//!
//! This module is on the `certa-lint` `no-panic-path` deny list: every
//! function is total — shapes are taken from slice lengths, tails are
//! handled explicitly, and nothing indexes, unwraps, or asserts.

/// Block width of [`dot`]'s walk.
const LANES: usize = 8;

/// Output-row block width of [`matvec_into`].
const ROW_BLOCK: usize = 4;

/// Sequential dot product of `a` and `b`, walked in eight-wide blocks.
///
/// Bit-identical to the `zip().map().sum()` loop it replaced, including
/// `Iterator::sum`'s `-0.0` starting identity (an empty dot is `-0.0`,
/// and a run of `-0.0` products stays `-0.0`). The blocks only remove
/// bounds checks and loop overhead; the association order is unchanged.
/// Extra elements of the longer slice are ignored (callers pass equal
/// lengths; `debug_assert` guards the contract in test builds).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut acc = -0.0;
    let mut chunks_a = a.chunks_exact(LANES);
    let mut chunks_b = b.chunks_exact(LANES);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        if let ([a0, a1, a2, a3, a4, a5, a6, a7], [b0, b1, b2, b3, b4, b5, b6, b7]) = (ca, cb) {
            // Sequential adds: same association as the scalar loop.
            acc += a0 * b0;
            acc += a1 * b1;
            acc += a2 * b2;
            acc += a3 * b3;
            acc += a4 * b4;
            acc += a5 * b5;
            acc += a6 * b6;
            acc += a7 * b7;
        }
    }
    for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        acc += x * y;
    }
    acc
}

/// `y = W · x` for row-major `w` (`rows × cols`), blocked four output rows
/// at a time. Each row's accumulator starts at `+0.0` and sums in
/// ascending `k` order — exactly the scalar `acc = 0.0; acc += w * x[k]`
/// loop this replaced, so every output element is bit-identical to it.
///
/// `y` is cleared and resized to `rows`; with `cols == 0` it is all
/// `+0.0`, matching the scalar loop. Callers pass `w.len() == rows * cols`
/// (`debug_assert` guards the contract in test builds).
pub fn matvec_into(w: &[f64], rows: usize, cols: usize, x: &[f64], y: &mut Vec<f64>) {
    debug_assert_eq!(x.len(), cols, "matvec dimension mismatch");
    debug_assert_eq!(w.len(), rows * cols, "weight buffer size mismatch");
    y.clear();
    if cols == 0 {
        y.resize(rows, 0.0);
        return;
    }
    let mut blocks = w.chunks_exact(ROW_BLOCK * cols);
    for block in &mut blocks {
        let mut block_rows = block.chunks_exact(cols);
        if let (Some(r0), Some(r1), Some(r2), Some(r3)) = (
            block_rows.next(),
            block_rows.next(),
            block_rows.next(),
            block_rows.next(),
        ) {
            let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
            for (((w0, w1), (w2, w3)), xk) in r0.iter().zip(r1).zip(r2.iter().zip(r3)).zip(x) {
                // Four independent chains, each in ascending k order.
                a0 += w0 * xk;
                a1 += w1 * xk;
                a2 += w2 * xk;
                a3 += w3 * xk;
            }
            y.extend_from_slice(&[a0, a1, a2, a3]);
        }
    }
    for row in blocks.remainder().chunks_exact(cols) {
        let mut acc = 0.0;
        for (wk, xk) in row.iter().zip(x) {
            acc += wk * xk;
        }
        y.push(acc);
    }
    y.resize(rows, 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-PR-9 scalar reduction the kernels must match bit-for-bit.
    fn dot_ref(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
    }

    fn sample(n: usize, seed: u64) -> Vec<f64> {
        // Cheap deterministic pseudo-values with awkward mantissas.
        (0..n)
            .map(|i| {
                let x = (seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i as u64 * 0x2545_f491)) as f64;
                (x / u64::MAX as f64) * 6.0 - 3.0 + 1e-13 * i as f64
            })
            .collect()
    }

    /// The pre-PR-9 scalar matvec row loop (`acc = 0.0; acc += w * x[k]`).
    fn matvec_row_ref(row: &[f64], x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (w, xi) in row.iter().zip(x.iter()) {
            acc += w * xi;
        }
        acc
    }

    #[test]
    fn dot_matches_scalar_bitwise_across_lengths() {
        for n in [0, 1, 2, 7, 8, 9, 15, 16, 17, 63, 100] {
            let a = sample(n, 1);
            let b = sample(n, 2);
            assert_eq!(dot(&a, &b).to_bits(), dot_ref(&a, &b).to_bits(), "n={n}");
        }
        // Including Iterator::sum's -0.0 identity on degenerate inputs.
        assert_eq!(dot(&[], &[]).to_bits(), dot_ref(&[], &[]).to_bits());
        assert_eq!(
            dot(&[-0.0], &[0.5]).to_bits(),
            dot_ref(&[-0.0], &[0.5]).to_bits()
        );
    }

    #[test]
    fn matvec_matches_per_row_scalar_bitwise() {
        for (rows, cols) in [(1, 1), (3, 5), (4, 8), (5, 3), (9, 17), (16, 1), (1, 40)] {
            let w = sample(rows * cols, 3);
            let x = sample(cols, 4);
            let mut y = Vec::new();
            matvec_into(&w, rows, cols, &x, &mut y);
            assert_eq!(y.len(), rows);
            for (r, yr) in y.iter().enumerate() {
                let row = &w[r * cols..(r + 1) * cols];
                assert_eq!(
                    yr.to_bits(),
                    matvec_row_ref(row, &x).to_bits(),
                    "{rows}x{cols} row {r}"
                );
            }
        }
    }

    #[test]
    fn empty_shapes_are_total() {
        let mut y = vec![1.0];
        matvec_into(&[], 0, 0, &[], &mut y);
        assert!(y.is_empty());
        let mut y = Vec::new();
        matvec_into(&[], 3, 0, &[], &mut y);
        assert_eq!(y, vec![0.0, 0.0, 0.0]);
    }
}
