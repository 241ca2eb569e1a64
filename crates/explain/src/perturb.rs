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
    fn originals_never_mutated() {
        let f = free();
        let s = support();
        let _ = perturb(&f, &s, 0b111);
        assert_eq!(f.values()[0], "sony bravia theater");
        assert_eq!(s.values()[2], "49.99");
    }
}
