//! Property tests pinning the blocked kernels **bit-identical** to the
//! scalar implementations they replaced, on arbitrary shapes and values.
//!
//! The reference functions in this file are verbatim copies of the pre-PR-9
//! loops (`Iterator::sum` dot, `acc = 0.0` matvec rows). If a kernel ever
//! reassociates a reduction, these properties catch it on the first awkward
//! mantissa.
//!
//! The vendored proptest shim has no `prop_flat_map`, so shape-dependent
//! inputs are sampled as max-size buffers plus independent dimensions, then
//! sliced to `rows * cols` inside the test body.

use certa_ml::kernels;
use proptest::prelude::*;
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;

/// The pre-PR-9 `dot`: `zip().map().sum()` (folds from `-0.0`).
fn dot_ref(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// The pre-PR-9 `Matrix::matvec` inner loop: `acc = 0.0`, ascending `k`.
fn matvec_ref(w: &[f64], rows: usize, cols: usize, x: &[f64]) -> Vec<f64> {
    let mut y = Vec::with_capacity(rows);
    for r in 0..rows {
        let mut acc = 0.0;
        for (wk, xk) in w[r * cols..(r + 1) * cols].iter().zip(x.iter()) {
            acc += wk * xk;
        }
        y.push(acc);
    }
    y
}

/// Values with awkward mantissas, huge/tiny magnitudes, and both zeros —
/// the inputs where reassociated float sums actually change bits.
#[derive(Clone, Copy, Debug)]
struct Val;

impl Strategy for Val {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        match rng.next_u64() % 8 {
            0 => 0.0,
            1 => -0.0,
            2 => (-1e-9f64..1e-9).generate(rng),
            3 => (-1e9f64..1e9).generate(rng),
            _ => (-1e3f64..1e3).generate(rng),
        }
    }
}

fn assert_bits_eq(a: &[f64], b: &[f64]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "element {} diverged: {} vs {}",
            i,
            x,
            y
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn dot_bit_identical_to_scalar(
        n in 0usize..200,
        raw_a in proptest::collection::vec(Val, 200),
        raw_b in proptest::collection::vec(Val, 200),
    ) {
        let (a, b) = (&raw_a[..n], &raw_b[..n]);
        prop_assert_eq!(kernels::dot(a, b).to_bits(), dot_ref(a, b).to_bits());
    }

    #[test]
    fn matvec_bit_identical_to_scalar(
        rows in 0usize..12,
        cols in 0usize..36,
        raw_w in proptest::collection::vec(Val, 12 * 36),
        raw_x in proptest::collection::vec(Val, 36),
    ) {
        let w = &raw_w[..rows * cols];
        let x = &raw_x[..cols];
        let mut y = Vec::new();
        kernels::matvec_into(w, rows, cols, x, &mut y);
        assert_bits_eq(&y, &matvec_ref(w, rows, cols, x))?;
    }
}
