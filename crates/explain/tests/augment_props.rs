//! Property tests pinning that §3.3 augmentation over cached, interned
//! variants returns exactly the records the string-building implementation
//! returned: same candidates, same order, same truncation at the budget.

use certa_core::tokens::{drop_first_k, drop_last_k, token_count};
use certa_core::{AttrId, Record, RecordId};
use certa_explain::augment::augmented_candidates;
use proptest::prelude::*;

/// Short tokens between runs of spaces and tabs: many tokens per value, with
/// repeated, leading and trailing whitespace, and blank values.
const SPACED: &str = "[ \ta-c]{0,24}";

/// The string-building augmentation the cached path replaced: every variant
/// is rebuilt with `drop_first_k`/`drop_last_k` and interned on insertion.
fn augmented_reference(record: &Record, budget: usize) -> Vec<Record> {
    let mut out = Vec::new();
    if budget == 0 {
        return out;
    }
    let arity = record.arity();
    let max_tokens = record
        .values()
        .iter()
        .map(|v| token_count(v))
        .max()
        .unwrap_or(0);
    for k in 1..max_tokens.max(1) {
        for a in 0..arity {
            let attr = AttrId(a as u16);
            let value = record.value(attr);
            for new_value in [drop_first_k(value, k), drop_last_k(value, k)]
                .into_iter()
                .flatten()
            {
                out.push(record.with_value(attr, new_value));
                if out.len() >= budget {
                    return out;
                }
            }
        }
    }
    for a in 0..arity {
        for b in (a + 1)..arity {
            let (ia, ib) = (AttrId(a as u16), AttrId(b as u16));
            for (fa, fb) in [
                (
                    drop_first_k(record.value(ia), 1),
                    drop_first_k(record.value(ib), 1),
                ),
                (
                    drop_last_k(record.value(ia), 1),
                    drop_last_k(record.value(ib), 1),
                ),
            ] {
                if let (Some(va), Some(vb)) = (fa, fb) {
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

proptest! {
    /// Cached augmentation ≡ the string-building reference, on a cold and
    /// on a warm variant cache, for budgets that stop inside either pass.
    #[test]
    fn cached_candidates_match_string_building(
        values in proptest::collection::vec(SPACED, 1..5),
        budget in 0usize..80,
    ) {
        let record = Record::new(RecordId(4), values);
        let cold = augmented_candidates(&record, budget);
        let reference = augmented_reference(&record, budget);
        prop_assert_eq!(&cold, &reference);
        for (c, r) in cold.iter().zip(&reference) {
            prop_assert_eq!(c.content_hash(), r.content_hash());
        }
        prop_assert_eq!(augmented_candidates(&record, budget), reference);
    }
}
