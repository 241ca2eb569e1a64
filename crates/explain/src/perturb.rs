//! The perturbing record function ψ (§3).
//!
//! `ψ(u, w, A)` produces a copy of the free record `u` where every attribute
//! in `A` has been replaced by the support record `w`'s value — "replacing
//! sequences of tokens of all the attributes in A in the free record with
//! their corresponding sequences of tokens from the support record".

use crate::lattice::AttrMask;
use certa_core::Record;

/// Apply ψ: copy the attributes selected by `mask` from `support` into a
/// fresh copy of `free` — [`perturb_into`] on a clone of `free`.
pub fn perturb(free: &Record, support: &Record, mask: AttrMask) -> Record {
    let mut psi = free.clone();
    perturb_into(&mut psi, free, support, mask);
    psi
}

/// Write ψ(`free`, `support`, `mask`) into `psi` in place, whatever `psi`
/// held before (it must share the schema).
///
/// One O(arity) pass picks each attribute's interned handle from `free` or
/// `support` directly off the mask bits and leaves a slot alone when it
/// already holds that handle — no `Vec<AttrId>` materialization and zero
/// string allocation (ψ never creates new values, it only re-combines
/// existing handles, so the score cache and featurizer memo see stable
/// content hashes / `ValueId`s). The lattice walk reuses one `psi` per
/// triangle, so a node costs only the handles that differ from the
/// previous node's.
pub fn perturb_into(psi: &mut Record, free: &Record, support: &Record, mask: AttrMask) {
    debug_assert_eq!(
        free.arity(),
        support.arity(),
        "ψ requires same-schema records"
    );
    psi.set_values_merged(free, support, |i| {
        i < AttrMask::BITS as usize && mask & (1 << i) != 0
    });
}

/// All perturbed copies `U_{w,a}` of Example 1: every subset containing
/// attribute `a_index` (excluding the empty set), paired with its mask.
///
/// Exposed mainly for testing and for exhaustive-mode experiments; the CERTA
/// algorithm itself enumerates lazily through the lattice.
pub fn copies_containing(
    free: &Record,
    support: &Record,
    a_index: usize,
) -> Vec<(AttrMask, Record)> {
    let arity = free.arity();
    assert!(a_index < arity);
    let full: AttrMask = ((1u64 << arity) - 1) as AttrMask;
    let bit = 1 << a_index;
    (1..=full)
        .filter(|m| m & bit != 0)
        .map(|m| (m, perturb(free, support, m)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::RecordId;

    fn free() -> Record {
        Record::new(
            RecordId(1),
            vec![
                "sony bravia theater".into(),
                "black micro system".into(),
                String::new(),
            ],
        )
    }

    fn support() -> Record {
        Record::new(
            RecordId(2),
            vec![
                "altec lansing inmotion".into(),
                "portable audio system".into(),
                "49.99".into(),
            ],
        )
    }

    #[test]
    fn perturb_replaces_exactly_masked_attrs() {
        let p = perturb(&free(), &support(), 0b001);
        assert_eq!(p.values()[0], "altec lansing inmotion");
        assert_eq!(p.values()[1], "black micro system");
        assert_eq!(p.values()[2], "");

        let p = perturb(&free(), &support(), 0b101);
        assert_eq!(p.values()[0], "altec lansing inmotion");
        assert_eq!(p.values()[1], "black micro system");
        assert_eq!(p.values()[2], "49.99");
    }

    #[test]
    fn empty_mask_is_identity_copy() {
        let p = perturb(&free(), &support(), 0);
        assert_eq!(p.values(), free().values());
        assert_eq!(
            p.id(),
            free().id(),
            "perturbed copy keeps the free record's id"
        );
    }

    #[test]
    fn full_mask_becomes_support_values() {
        let p = perturb(&free(), &support(), 0b111);
        assert_eq!(p.values(), support().values());
    }

    #[test]
    fn example1_has_four_copies_containing_name() {
        // Example 1: U'_{u2, Name_Abt} holds 4 perturbed copies (subsets of
        // a 3-attribute schema containing Name).
        let copies = copies_containing(&free(), &support(), 0);
        assert_eq!(copies.len(), 4);
        for (mask, copy) in &copies {
            assert!(mask & 1 != 0);
            assert_eq!(copy.values()[0], "altec lansing inmotion");
        }
        // The specific copy ψ(u, w, {Name, Description}) from the example.
        let nd = copies.iter().find(|(m, _)| *m == 0b011).unwrap();
        assert_eq!(nd.1.values()[1], "portable audio system");
        assert_eq!(nd.1.values()[2], "");
    }

    #[test]
    fn originals_never_mutated() {
        let f = free();
        let s = support();
        let _ = perturb(&f, &s, 0b111);
        assert_eq!(f.values()[0], "sony bravia theater");
        assert_eq!(s.values()[2], "49.99");
    }
}
