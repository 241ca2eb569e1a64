//! Data augmentation for support-record supply (§3.3).
//!
//! When a table cannot provide enough open triangles, CERTA generates extra
//! candidate records: "For each record w in U, we generate a new set of
//! records W_w, by changing each possible combination of attributes in w by
//! dropping the first-k or the last-k tokens, with k varying between 1 and
//! n − 1." Each candidate still has to pass the support test
//! `M(⟨w', v⟩) = ȳ` before becoming a triangle.

use certa_core::{AttrId, AttrValue, Record};

/// The two §3.3 token drops, first-k then last-k, in candidate order.
const DROPS: [fn(&AttrValue, usize) -> Option<&AttrValue>; 2] =
    [AttrValue::drop_first_k, AttrValue::drop_last_k];

/// Enumerate augmented variants of `record`, most conservative first
/// (single-attribute, small `k`), up to `budget` variants.
///
/// The full combinatorial set of the paper is exponential; candidates are
/// ordered so that truncation keeps the most label-preserving variants:
/// all single-attribute drops (k ascending), then pairwise-attribute drops.
/// Each dropped value comes from the value's own variant cache
/// ([`AttrValue::drop_first_k`]), and is interned only when a candidate
/// uses it.
pub fn augmented_candidates(record: &Record, budget: usize) -> Vec<Record> {
    let mut out = Vec::new();
    if budget == 0 {
        return out;
    }
    let arity = record.arity();

    // Pass 1: single-attribute first-k / last-k drops, k ascending.
    let max_tokens = record
        .values()
        .iter()
        .map(AttrValue::token_count)
        .max()
        .unwrap_or(0);
    for k in 1..max_tokens.max(1) {
        for a in 0..arity {
            let attr = AttrId(a as u16);
            for drop in DROPS {
                if let Some(new_value) = drop(record.attr_value(attr), k) {
                    out.push(record.with_value(attr, new_value));
                    if out.len() >= budget {
                        return out;
                    }
                }
            }
        }
    }

    // Pass 2: drop one token from each of two attributes simultaneously.
    for a in 0..arity {
        for b in (a + 1)..arity {
            let (ia, ib) = (AttrId(a as u16), AttrId(b as u16));
            for drop in DROPS {
                if let (Some(va), Some(vb)) = (
                    drop(record.attr_value(ia), 1),
                    drop(record.attr_value(ib), 1),
                ) {
                    let mut r = record.with_value(ia, va);
                    r.set_value(ib, vb);
                    out.push(r);
                    if out.len() >= budget {
                        return out;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::RecordId;

    fn rec() -> Record {
        Record::new(RecordId(3), vec!["a b c d".into(), "x y".into()])
    }

    #[test]
    fn single_attribute_drops_come_first() {
        let cands = augmented_candidates(&rec(), 100);
        assert!(!cands.is_empty());
        // First candidates: k=1 drops of attribute 0 and 1.
        assert_eq!(cands[0].values()[0], "b c d"); // drop first 1 of attr 0
        assert_eq!(cands[0].values()[1], "x y");
        assert_eq!(cands[1].values()[0], "a b c"); // drop last 1 of attr 0
        assert_eq!(cands[2].values()[1], "y"); // drop first 1 of attr 1
        assert_eq!(cands[3].values()[1], "x"); // drop last 1 of attr 1
    }

    #[test]
    fn k_ranges_to_token_count_minus_one() {
        let cands = augmented_candidates(&rec(), 100);
        // Attribute 0 has 4 tokens → k ∈ {1,2,3}: 6 variants; attribute 1
        // has 2 tokens → k ∈ {1}: 2 variants. Plus pass-2 pairs: 2.
        let singles = cands
            .iter()
            .filter(|c| (c.values()[0] != "a b c d") ^ (c.values()[1] != "x y"))
            .count();
        assert_eq!(singles, 8);
        assert_eq!(cands.len(), 10);
        // No variant drops *all* tokens.
        assert!(cands
            .iter()
            .all(|c| !c.values()[0].is_empty() || !c.values()[1].is_empty()));
    }

    #[test]
    fn budget_truncates() {
        let cands = augmented_candidates(&rec(), 3);
        assert_eq!(cands.len(), 3);
        assert!(augmented_candidates(&rec(), 0).is_empty());
    }

    #[test]
    fn single_token_values_produce_no_variants() {
        let r = Record::new(RecordId(0), vec!["single".into()]);
        assert!(augmented_candidates(&r, 10).is_empty());
    }

    #[test]
    fn variants_preserve_id_and_arity() {
        for c in augmented_candidates(&rec(), 50) {
            assert_eq!(c.id(), RecordId(3));
            assert_eq!(c.arity(), 2);
        }
    }
}
