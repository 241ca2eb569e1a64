//! Probability-of-necessity bookkeeping (Equation 1).
//!
//! Frequentist estimate (§4): `φ_a = N[a] / f`, where `f` counts all flipped
//! lattice nodes across all triangles (tested **or** inferred — the worked
//! example of §4 is explicit about counting both) and `N[a]` counts the
//! flipped nodes whose changed attribute set contains `a`.

use crate::explanation::SaliencyExplanation;
use crate::lattice::{mask_attrs, AttrMask};
use certa_core::Side;

/// Accumulates flip counts across triangles and converts them into saliency
/// scores.
#[derive(Debug, Clone)]
pub struct NecessityCounter {
    left: Vec<u64>,
    right: Vec<u64>,
    flips: u64,
}

impl NecessityCounter {
    /// Counter for the two sides' arities.
    pub fn new(left_arity: usize, right_arity: usize) -> Self {
        NecessityCounter {
            left: vec![0; left_arity],
            right: vec![0; right_arity],
            flips: 0,
        }
    }

    /// Record one flipped lattice node on `side` with changed set `mask`.
    pub fn record_flip(&mut self, side: Side, mask: AttrMask) {
        self.flips += 1;
        let counts = match side {
            Side::Left => &mut self.left,
            Side::Right => &mut self.right,
        };
        for i in mask_attrs(mask) {
            if i < counts.len() {
                counts[i] += 1;
            }
        }
    }

    /// Total flipped nodes observed (the paper's `f`).
    pub fn total_flips(&self) -> u64 {
        self.flips
    }

    /// Finalize into `Φ = N[a] / f` (all-zero when no flips were seen).
    pub fn into_explanation(self) -> SaliencyExplanation {
        if self.flips == 0 {
            return SaliencyExplanation::zeros(self.left.len(), self.right.len());
        }
        let f = self.flips as f64;
        SaliencyExplanation::new(
            self.left.into_iter().map(|n| n as f64 / f).collect(),
            self.right.into_iter().map(|n| n as f64 / f).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explanation::AttrRef;

    /// Reproduce the §4 worked example: lattices of Figure 9 over {N, D, P}.
    #[test]
    fn worked_example_probabilities() {
        let mut c = NecessityCounter::new(3, 3);
        // Flipped masks per triangle (N = bit0, D = bit1, P = bit2):
        let w1 = [0b001, 0b010, 0b011, 0b101, 0b110, 0b111];
        let w2 = [0b001, 0b011, 0b101, 0b110, 0b111];
        let w3 = [0b001, 0b011, 0b101, 0b111];
        let w4 = [0b011, 0b101, 0b110, 0b111];
        for masks in [&w1[..], &w2[..], &w3[..], &w4[..]] {
            for &m in masks {
                c.record_flip(Side::Left, m);
            }
        }
        assert_eq!(c.total_flips(), 19);
        let phi = c.into_explanation();
        let n = phi.score(AttrRef::new(Side::Left, 0));
        let d = phi.score(AttrRef::new(Side::Left, 1));
        let p = phi.score(AttrRef::new(Side::Left, 2));
        assert!((n - 15.0 / 19.0).abs() < 1e-12, "φ_N = {n}");
        assert!((p - 11.0 / 19.0).abs() < 1e-12, "φ_P = {p}");
        // Note: the paper states φ_D = 13/19 but its own definition yields
        // 12/19 on these lattices (D ∈ {D, ND, DP, NDP} in w1 = 4; w2: 3;
        // w3: 2; w4: 3). We implement the definition.
        assert!((d - 12.0 / 19.0).abs() < 1e-12, "φ_D = {d}");
        // Untouched right side stays zero.
        assert_eq!(phi.score(AttrRef::new(Side::Right, 0)), 0.0);
    }

    #[test]
    fn no_flips_yields_zero_explanation() {
        let c = NecessityCounter::new(2, 2);
        let phi = c.into_explanation();
        assert!(phi.iter().all(|(_, s)| s == 0.0));
    }

    #[test]
    fn saliency_bounded_by_one() {
        let mut c = NecessityCounter::new(1, 1);
        for _ in 0..5 {
            c.record_flip(Side::Left, 0b1);
        }
        let phi = c.into_explanation();
        assert_eq!(phi.score(AttrRef::new(Side::Left, 0)), 1.0);
        assert_eq!(phi.score(AttrRef::new(Side::Right, 0)), 0.0);
    }

    #[test]
    fn both_sides_share_the_flip_denominator() {
        let mut c = NecessityCounter::new(1, 1);
        c.record_flip(Side::Left, 0b1);
        c.record_flip(Side::Right, 0b1);
        let phi = c.into_explanation();
        // 2 flips total; each attribute appears in 1.
        assert_eq!(phi.score(AttrRef::new(Side::Left, 0)), 0.5);
        assert_eq!(phi.score(AttrRef::new(Side::Right, 0)), 0.5);
    }
}
