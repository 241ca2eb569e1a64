//! Property tests pinning that the copy-on-write ψ (mask-driven handle
//! merge) is observationally identical to the pre-refactor implementation,
//! which cloned the free record and overwrote each masked attribute with a
//! freshly allocated `String`.

use certa_core::{AttrId, AttrValue, Record, RecordId};
use certa_explain::lattice::AttrMask;
use certa_explain::perturb::{perturb, perturb_into};
use proptest::prelude::*;

/// The pre-refactor ψ, reconstructed over plain strings: the semantics the
/// COW path must reproduce exactly.
fn perturb_reference(free: &Record, support: &Record, mask: AttrMask) -> Record {
    let values: Vec<String> = (0..free.arity())
        .map(|i| {
            let donor = mask & (1 << i) != 0;
            let side = if donor { support } else { free };
            side.value(AttrId(i as u16)).to_string()
        })
        .collect();
    Record::new(free.id(), values)
}

proptest! {
    /// (b) COW perturb ≡ the old string-rebuilding `with_values_from` path:
    /// equal values, equal id, equal content hash — for arbitrary value
    /// vectors and every mask of every arity up to 6.
    #[test]
    fn cow_perturb_matches_string_reference(
        free_values in proptest::collection::vec("[a-z0-9 ]{0,16}", 1..6),
        mask in 0u32..64,
        seed in 0u32..1000,
    ) {
        let arity = free_values.len();
        let free = Record::new(RecordId(1), free_values);
        // Derive a support record from the seed so the pair exercises both
        // shared and differing values.
        let support = Record::new(
            RecordId(2),
            (0..arity)
                .map(|i| {
                    if (seed >> i) & 1 == 0 {
                        free.value(AttrId(i as u16)).to_string()
                    } else {
                        format!("donor {seed} {i}")
                    }
                })
                .collect(),
        );
        let cow = perturb(&free, &support, mask);
        let reference = perturb_reference(&free, &support, mask);
        prop_assert_eq!(&cow, &reference);
        prop_assert_eq!(cow.id(), free.id());
        prop_assert_eq!(cow.content_hash(), reference.content_hash());
        // And the COW copy truly shares handles instead of re-allocating.
        for i in 0..arity {
            let a = AttrId(i as u16);
            let donor_side = mask & (1 << i) != 0;
            let expected = if donor_side { &support } else { &free };
            prop_assert!(AttrValue::ptr_eq(cow.attr_value(a), expected.attr_value(a)));
        }
    }

    /// ψ equivalence under the explicit-attribute-list API the explainers
    /// previously used.
    #[test]
    fn with_values_from_matches_merged(mask in 0u32..32) {
        let free = Record::new(
            RecordId(1),
            vec![
                "sony bravia theater".into(),
                "black micro system".into(),
                String::new(),
                "49.99".into(),
                "hdmi output".into(),
            ],
        );
        let support = Record::new(
            RecordId(2),
            vec![
                "altec lansing inmotion".into(),
                "portable audio system".into(),
                "im600".into(),
                String::new(),
                "usb charging".into(),
            ],
        );
        let attrs: Vec<AttrId> = (0..5)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| AttrId(i as u16))
            .collect();
        let listed = free.with_values_from(&support, &attrs);
        let merged = perturb(&free, &support, mask);
        prop_assert_eq!(listed, merged);
    }

    /// In-place ψ over a random sequence of masks ≡ a fresh `perturb` for
    /// every mask: the scratch record carries nothing over from the masks
    /// before it, whatever it started as.
    #[test]
    fn in_place_perturb_matches_fresh_perturb(
        free_values in proptest::collection::vec("[a-z0-9 ]{0,16}", 1..6),
        masks in proptest::collection::vec(0u32..64, 1..24),
        seed in 0u32..1000,
    ) {
        let arity = free_values.len();
        let free = Record::new(RecordId(1), free_values);
        let support = Record::new(
            RecordId(2),
            (0..arity)
                .map(|i| {
                    if (seed >> i) & 1 == 0 {
                        free.value(AttrId(i as u16)).to_string()
                    } else {
                        format!("donor {seed} {i}")
                    }
                })
                .collect(),
        );
        let mut psi = support.clone();
        for &mask in &masks {
            perturb_into(&mut psi, &free, &support, mask);
            let fresh = perturb(&free, &support, mask);
            prop_assert_eq!(&psi, &fresh);
            prop_assert_eq!(psi.id(), free.id());
            prop_assert_eq!(psi.content_hash(), fresh.content_hash());
            for i in 0..arity {
                let a = AttrId(i as u16);
                prop_assert!(AttrValue::ptr_eq(psi.attr_value(a), fresh.attr_value(a)));
            }
        }
    }
}
