//! Powerset lattices over one side's attributes, explored bottom-up with
//! optional monotone flip propagation (§4).
//!
//! Subsets are bitmasks ([`AttrMask`]) over attribute positions; the lattice
//! of Figure 8 for arity 3 has nodes `0b001 … 0b111`. The empty set is always
//! tagged non-flip (γ(∅) = 0 by definition: copying nothing changes nothing)
//! and the full set is, per footnote 2, *not tested* — it can only be tagged
//! through monotone inference, unless the caller asks [`explore`] to test it
//! (CERTA does so only for single-attribute sides, where it is the only
//! node).

use serde::{Deserialize, Serialize};

/// An attribute subset as a bitmask (bit `i` = attribute `i`).
pub type AttrMask = u32;

/// Maximum supported arity (bitmask width minus safety margin).
pub const MAX_ARITY: usize = 20;

/// Iterate the attribute indices present in a mask.
pub fn mask_attrs(mask: AttrMask) -> impl Iterator<Item = usize> {
    (0..MAX_ARITY).filter(move |&i| mask & (1 << i) != 0)
}

/// Number of attributes in the subset.
pub fn mask_len(mask: AttrMask) -> usize {
    mask.count_ones() as usize
}

/// Build a mask from attribute indices.
pub fn mask_of(attrs: &[usize]) -> AttrMask {
    attrs.iter().fold(0, |m, &i| {
        assert!(i < MAX_ARITY, "attribute index {i} out of mask range");
        m | (1 << i)
    })
}

/// How the lattice is explored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreMode {
    /// Assume monotone classification: a tested flip at `A` is propagated to
    /// every superset of `A` without testing (the paper's optimization).
    Monotone,
    /// Test every node explicitly (ground truth for the Table 7 audit).
    Exhaustive,
}

/// How a node's tag was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Provenance {
    /// The model was called on the node's perturbation.
    Tested,
    /// The tag was inferred through monotone propagation.
    Inferred,
    /// Never visited (only the full set, when testing it is disabled).
    Skipped,
}

/// The outcome of exploring one triangle's lattice.
#[derive(Debug, Clone)]
pub struct Exploration {
    arity: usize,
    /// Flip tag per mask (`true` = prediction flipped). Index = mask.
    tags: Vec<bool>,
    /// Provenance per mask.
    provenance: Vec<Provenance>,
}

impl Exploration {
    /// Attribute count of the explored side.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The full-set mask for this arity.
    pub fn full_mask(&self) -> AttrMask {
        ((1u64 << self.arity) - 1) as AttrMask
    }

    /// Flip tag of a subset (∅ is always `false`).
    pub fn flipped(&self, mask: AttrMask) -> bool {
        self.tags[mask as usize]
    }

    /// Provenance of a subset's tag.
    pub fn provenance(&self, mask: AttrMask) -> Provenance {
        self.provenance[mask as usize]
    }

    /// All flipped masks (tested or inferred), ascending; excludes ∅.
    pub fn flipped_masks(&self) -> impl Iterator<Item = AttrMask> + '_ {
        (1..=self.full_mask()).filter(|&m| self.tags[m as usize])
    }

    /// Flipped masks whose tag came from an actual model call.
    pub fn tested_flips(&self) -> impl Iterator<Item = AttrMask> + '_ {
        self.flipped_masks()
            .filter(|&m| self.provenance[m as usize] == Provenance::Tested)
    }

    /// The minimal flipping antichain: flipped nodes none of whose proper
    /// subsets flipped.
    pub fn minimal_flipping_antichain(&self) -> Vec<AttrMask> {
        self.flipped_masks()
            .filter(|&m| {
                // Enumerate proper non-empty subsets of m.
                let mut sub = (m - 1) & m;
                loop {
                    if sub == 0 {
                        return true;
                    }
                    if self.tags[sub as usize] {
                        return false;
                    }
                    sub = (sub - 1) & m;
                }
            })
            .collect()
    }

    /// Counters for the Table 7 audit.
    pub fn stats(&self) -> LatticeStats {
        let mut performed = 0usize;
        let mut inferred = 0usize;
        let mut skipped = 0usize;
        for &p in &self.provenance[1..] {
            match p {
                Provenance::Tested => performed += 1,
                Provenance::Inferred => inferred += 1,
                Provenance::Skipped => skipped += 1,
            }
        }
        LatticeStats {
            arity: self.arity,
            expected: (1usize << self.arity) - 2,
            performed,
            inferred,
            skipped,
        }
    }
}

/// Prediction-count accounting for one lattice (Table 7's columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatticeStats {
    /// Attribute count.
    pub arity: usize,
    /// Predictions needed without inference: `2^l − 2` (footnote 2).
    pub expected: usize,
    /// Predictions actually performed.
    pub performed: usize,
    /// Node tags obtained by monotone propagation.
    pub inferred: usize,
    /// Nodes never visited (untested full set).
    pub skipped: usize,
}

impl LatticeStats {
    /// `expected − performed` (clamped at zero; testing the full set can
    /// make `performed` exceed the footnote-2 budget by one).
    pub fn saved(&self) -> usize {
        self.expected.saturating_sub(self.performed)
    }
}

/// Explore the lattice over `arity` attributes, calling `test(mask)` for the
/// perturbation of each visited subset; `test` returns whether the
/// prediction flipped.
///
/// Visits proceed bottom-up in breadth-first (level) order, smaller masks
/// first within a level — matching §4's description and making exploration
/// deterministic. In [`ExploreMode::Monotone`], a tested flip is propagated
/// to all supersets as [`Provenance::Inferred`]. The full set is tested only
/// when `test_full_set` is true (and never inferred *from*, only *to*).
pub fn explore(
    arity: usize,
    mode: ExploreMode,
    test_full_set: bool,
    mut test: impl FnMut(AttrMask) -> bool,
) -> Exploration {
    assert!(arity >= 1, "lattice needs at least one attribute");
    assert!(arity <= MAX_ARITY, "arity {arity} exceeds mask capacity");
    let full: AttrMask = ((1u64 << arity) - 1) as AttrMask;
    let n_nodes = (full as usize) + 1;
    let mut tags = vec![false; n_nodes];
    let mut provenance = vec![Provenance::Skipped; n_nodes];
    provenance[0] = Provenance::Tested; // ∅: trivially non-flip, free.

    // Masks in (level, value) order.
    let mut order: Vec<AttrMask> = (1..=full).collect();
    order.sort_by_key(|&m| (mask_len(m), m));

    for &mask in &order {
        if provenance[mask as usize] == Provenance::Inferred {
            continue; // already known to flip
        }
        if mask == full && !test_full_set {
            continue; // footnote 2: never test the top
        }
        let flipped = test(mask);
        tags[mask as usize] = flipped;
        provenance[mask as usize] = Provenance::Tested;
        if flipped && mode == ExploreMode::Monotone {
            propagate_up(mask, full, &mut tags, &mut provenance);
        }
    }
    Exploration {
        arity,
        tags,
        provenance,
    }
}

/// Tag every proper superset of `mask` as an inferred flip.
fn propagate_up(mask: AttrMask, full: AttrMask, tags: &mut [bool], provenance: &mut [Provenance]) {
    // Standard superset enumeration: s = (s + 1) | mask walks all supersets.
    let mut s = mask;
    while s != full {
        s = (s + 1) | mask;
        let idx = s as usize;
        if provenance[idx] != Provenance::Tested {
            tags[idx] = true;
            provenance[idx] = Provenance::Inferred;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::hash::FxHashSet;

    /// The Figure 8 scenario: every subset flips except {Price} alone.
    fn fig8_test(mask: AttrMask) -> bool {
        mask != 0b100
    }

    #[test]
    fn mask_helpers() {
        let m = mask_of(&[0, 2]);
        assert_eq!(m, 0b101);
        assert_eq!(mask_len(m), 2);
        assert_eq!(mask_attrs(m).collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn figure8_monotone_exploration() {
        let mut calls = Vec::new();
        let exp = explore(3, ExploreMode::Monotone, false, |m| {
            calls.push(m);
            fig8_test(m)
        });
        // Level 1: tests N={001}, D={010}, P={100}; N and D flip, so all
        // their supersets are inferred. The only untagged level-2 node would
        // be... none: {011},{101},{110} all contain N or D. Full set inferred.
        assert_eq!(calls, vec![0b001, 0b010, 0b100]);
        assert!(exp.flipped(0b001) && exp.flipped(0b010) && !exp.flipped(0b100));
        assert!(exp.flipped(0b111));
        assert_eq!(exp.provenance(0b111), Provenance::Inferred);
        // MFA = {{N},{D}} as in Figure 8.
        assert_eq!(exp.minimal_flipping_antichain(), vec![0b001, 0b010]);
        let stats = exp.stats();
        assert_eq!(stats.expected, 6);
        assert_eq!(stats.performed, 3);
        assert_eq!(stats.saved(), 3);
    }

    /// One Figure 9 scenario: (name, oracle, expected MFA, expected flips).
    type WScenario = (&'static str, fn(AttrMask) -> bool, Vec<AttrMask>, usize);

    /// The four worked-example lattices of Figure 9.
    fn w_scenarios() -> Vec<WScenario> {
        // (name, oracle, expected MFA, expected flip count incl. inferred)
        vec![
            // w1: N, D flip; P doesn't. 6 flips total.
            ("w1", |m| m != 0b100, vec![0b001, 0b010], 6),
            // w2: only N flips at level 1; {D,P} flips at level 2. 5 flips.
            (
                "w2",
                |m| m == 0b001 || mask_len(m) >= 2,
                vec![0b001, 0b110],
                5,
            ),
            // w3: only N; {D,P} does NOT flip. 4 flips.
            (
                "w3",
                |m| (m & 0b001 != 0) && m != 0, // any set containing N
                vec![0b001],
                4,
            ),
            // w4: no singleton flips; all pairs flip. 4 flips.
            ("w4", |m| mask_len(m) >= 2, vec![0b011, 0b101, 0b110], 4),
        ]
    }

    #[test]
    fn figure9_worked_examples() {
        for (name, oracle, mfa, flips) in w_scenarios() {
            let exp = explore(3, ExploreMode::Monotone, false, oracle);
            assert_eq!(exp.minimal_flipping_antichain(), mfa, "{name} MFA");
            assert_eq!(exp.flipped_masks().count(), flips, "{name} flip count");
        }
    }

    #[test]
    fn paper_example_totals() {
        // §4: across w1..w4 there are 19 flips; N appears in 15, P in 11.
        let mut total = 0;
        let mut n_count = 0;
        let mut p_count = 0;
        for (_, oracle, _, _) in w_scenarios() {
            let exp = explore(3, ExploreMode::Monotone, false, oracle);
            for m in exp.flipped_masks() {
                total += 1;
                if m & 0b001 != 0 {
                    n_count += 1;
                }
                if m & 0b100 != 0 {
                    p_count += 1;
                }
            }
        }
        assert_eq!(total, 19);
        assert_eq!(n_count, 15);
        assert_eq!(p_count, 11);
    }

    #[test]
    fn exhaustive_tests_every_node() {
        let mut calls = FxHashSet::default();
        let exp = explore(3, ExploreMode::Exhaustive, false, |m| {
            calls.insert(m);
            fig8_test(m)
        });
        assert_eq!(calls.len(), 6, "all non-∅, non-full nodes tested");
        assert_eq!(exp.stats().performed, 6);
        assert_eq!(exp.stats().saved(), 0);
        // Full set untested and (in exhaustive mode) never inferred.
        assert_eq!(exp.provenance(0b111), Provenance::Skipped);
        assert!(!exp.flipped(0b111));
    }

    #[test]
    fn test_full_set_flag() {
        let mut tested_full = false;
        let _ = explore(2, ExploreMode::Exhaustive, true, |m| {
            if m == 0b11 {
                tested_full = true;
            }
            false
        });
        assert!(tested_full);
    }

    #[test]
    fn monotone_inference_can_be_wrong_by_design() {
        // Non-monotone oracle: {0} flips but {0,1} would not. Monotone mode
        // must still tag {0,1} as flipped (that's the documented error the
        // Table 7 audit measures).
        let exp = explore(2, ExploreMode::Monotone, false, |m| m == 0b01);
        assert!(exp.flipped(0b11));
        assert_eq!(exp.provenance(0b11), Provenance::Inferred);
        let truth = explore(2, ExploreMode::Exhaustive, true, |m| m == 0b01);
        assert!(!truth.flipped(0b11));
    }

    #[test]
    fn no_flips_anywhere() {
        let exp = explore(3, ExploreMode::Monotone, false, |_| false);
        assert_eq!(exp.flipped_masks().count(), 0);
        assert!(exp.minimal_flipping_antichain().is_empty());
        assert_eq!(exp.stats().performed, 6);
        assert_eq!(exp.stats().skipped, 1, "untested full set");
    }

    #[test]
    fn mfa_members_are_tested() {
        for (_, oracle, _, _) in w_scenarios() {
            let exp = explore(3, ExploreMode::Monotone, false, oracle);
            let tested: FxHashSet<AttrMask> = exp.tested_flips().collect();
            for m in exp.minimal_flipping_antichain() {
                assert!(
                    tested.contains(&m),
                    "MFA node {m:b} must be a real model call"
                );
            }
        }
    }

    #[test]
    fn large_arity_works() {
        // IA has 8 attributes: 254 nodes.
        let exp = explore(8, ExploreMode::Monotone, false, |m| mask_len(m) >= 3);
        assert_eq!(exp.stats().expected, 254);
        // All singletons (8) + all pairs (28) tested and failed; all triples
        // containing any tested triple... first triple tested flips and
        // propagates. Performed = 8 + 28 + #tested triples.
        assert!(exp.stats().performed < 100);
        assert!(exp.flipped(exp.full_mask()));
    }

    #[test]
    #[should_panic(expected = "mask capacity")]
    fn arity_bound_enforced() {
        let _ = explore(MAX_ARITY + 1, ExploreMode::Monotone, false, |_| false);
    }
}
