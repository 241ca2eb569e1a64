//! Classic blocking baselines: sorted-neighborhood and token-prefix.
//!
//! Both exist to calibrate the LSH blocker — `bench_block` reports all
//! three side by side. They share the [`crate::Blocker`] output contract:
//! sorted, deduplicated, deterministic candidate lists.

use crate::{finish_pairs, Blocker};
use certa_core::blocking::TokenIndex;
use certa_core::hash::FxHashMap;
use certa_core::{RecordPair, Side, Table};

/// Sorted-neighborhood blocking: merge both tables under a lexicographic
/// key (the cleaned, space-joined record text), then slide a window of
/// `window` entries over the merged list and emit every cross-side pair
/// inside it.
///
/// Strong when duplicates share a prefix (same leading brand/title token),
/// blind to duplicates whose corruption touches the first characters —
/// exactly the failure mode the MinHash blocker does not have.
#[derive(Debug, Clone, Copy)]
pub struct SortedNeighborhood {
    /// Neighborhood size: each entry pairs with the `window` entries after
    /// it in sorted order.
    pub window: usize,
}

impl Default for SortedNeighborhood {
    fn default() -> Self {
        SortedNeighborhood { window: 10 }
    }
}

/// The sort key of one record: its cleaned attribute values joined by a
/// single space (empty attributes skipped).
fn sort_key(record: &certa_core::Record) -> String {
    let mut key = String::new();
    for value in record.values() {
        let cleaned = value.cleaned();
        if cleaned.is_empty() {
            continue;
        }
        if !key.is_empty() {
            key.push(' ');
        }
        key.push_str(cleaned);
    }
    key
}

impl Blocker for SortedNeighborhood {
    fn name(&self) -> String {
        format!("sorted-neighborhood(w={})", self.window)
    }

    fn candidates(&self, left: &Table, right: &Table) -> Vec<RecordPair> {
        // (key, side, id): the id tiebreak makes the order total, so equal
        // keys cannot reorder across runs.
        let mut entries: Vec<(String, Side, u32)> = Vec::with_capacity(left.len() + right.len());
        for r in left.records() {
            entries.push((sort_key(r), Side::Left, r.id().0));
        }
        for r in right.records() {
            entries.push((sort_key(r), Side::Right, r.id().0));
        }
        entries.sort_unstable();
        let mut raw = Vec::new();
        for (i, (_, side, id)) in entries.iter().enumerate() {
            for (_, other_side, other_id) in entries.iter().skip(i + 1).take(self.window) {
                match (side, other_side) {
                    (Side::Left, Side::Right) => raw.push((*id, *other_id)),
                    (Side::Right, Side::Left) => raw.push((*other_id, *id)),
                    _ => {}
                }
            }
        }
        finish_pairs(raw)
    }
}

/// Token-prefix blocking: each record is keyed by its `prefix_len` rarest
/// tokens (ascending document frequency across both tables, token text as
/// tiebreak); records sharing a key token become candidates.
///
/// Tokens with document frequency above `max_df` are never used as keys —
/// the same stop-word discipline as [`TokenIndex`]'s `max_posting`, and
/// the guard that keeps common-token buckets from degenerating into the
/// full cross product.
#[derive(Debug, Clone, Copy)]
pub struct TokenPrefix {
    /// How many of the rarest tokens key each record.
    pub prefix_len: usize,
    /// Document-frequency cutoff above which a token is a stop word.
    pub max_df: usize,
}

impl Default for TokenPrefix {
    fn default() -> Self {
        TokenPrefix {
            prefix_len: 3,
            max_df: 500,
        }
    }
}

impl Blocker for TokenPrefix {
    fn name(&self) -> String {
        format!("token-prefix(p={},max_df={})", self.prefix_len, self.max_df)
    }

    fn candidates(&self, left: &Table, right: &Table) -> Vec<RecordPair> {
        // Document frequency of every distinct clean token, borrowed from
        // the interned spans — no per-token allocation.
        fn distinct_tokens<'t>(record: &'t certa_core::Record, scratch: &mut Vec<&'t str>) {
            scratch.clear();
            for value in record.values() {
                scratch.extend(value.clean_tokens());
            }
            scratch.sort_unstable();
            scratch.dedup();
        }
        let mut df: FxHashMap<&str, u32> = FxHashMap::default();
        let mut scratch: Vec<&str> = Vec::new();
        for table in [left, right] {
            for r in table.records() {
                distinct_tokens(r, &mut scratch);
                for &tok in scratch.iter() {
                    *df.entry(tok).or_insert(0) += 1;
                }
            }
        }
        // Bucket each record under its rarest admissible tokens.
        let mut buckets: FxHashMap<&str, (Vec<u32>, Vec<u32>)> = FxHashMap::default();
        for (table, side) in [(left, Side::Left), (right, Side::Right)] {
            for r in table.records() {
                distinct_tokens(r, &mut scratch);
                // Rarest first; token text breaks df ties deterministically.
                scratch.sort_unstable_by_key(|tok| (df[tok], *tok));
                for &tok in scratch
                    .iter()
                    .filter(|tok| (df[**tok] as usize) <= self.max_df)
                    .take(self.prefix_len)
                {
                    let entry = buckets.entry(tok).or_default();
                    match side {
                        Side::Left => entry.0.push(r.id().0),
                        Side::Right => entry.1.push(r.id().0),
                    }
                }
            }
        }
        let mut keys: Vec<&str> = buckets.keys().copied().collect();
        keys.sort_unstable();
        let mut raw = Vec::new();
        for key in keys {
            let (ls, rs) = &buckets[key];
            for &l in ls {
                for &r in rs {
                    raw.push((l, r));
                }
            }
        }
        finish_pairs(raw)
    }
}

/// Containment blocking on [`certa_core::blocking::TokenIndex`]: a pair
/// becomes a candidate when the records share at least `min_overlap`
/// distinct tokens **and** the shared tokens cover at least
/// `min_containment` of the *smaller* record's distinct-token set.
///
/// Containment — overlap over the smaller set, not the union — is the
/// measure that survives missing attributes: a record whose title
/// collapsed to `NaN` keeps only its author/venue/year tokens, and those
/// few tokens are almost entirely contained in its duplicate even though
/// the pair's Jaccard similarity is diluted below any workable LSH
/// threshold. This is exactly the blind spot of [`crate::LshBlocker`],
/// which is why the default pipeline unions the two passes
/// (see [`crate::MultiPass`]).
///
/// The underlying index's build-time stop-word cutoff (its `max_posting`)
/// is `max(1000, |right| / 4)`: it never drops tokens at benchmark scales
/// but bounds the index on stop-word-heavy web data.
#[derive(Debug, Clone, Copy)]
pub struct TokenOverlap {
    /// Absolute floor on shared distinct tokens.
    pub min_overlap: usize,
    /// Minimum `overlap / min(|tokens(u)|, |tokens(v)|)` for candidacy.
    pub min_containment: f64,
}

impl Default for TokenOverlap {
    /// Tuned on the datagen benchmarks: matched pairs' containment stays
    /// above ~0.55 even when an attribute goes missing entirely, while
    /// under 1% of unrelated pairs reach 0.5 — so `min_containment: 0.5`
    /// recalls every seeded duplicate at smoke/default scale and ≥ 99.7%
    /// at paper scale while keeping the candidate list a few hundred times
    /// smaller than the cross product.
    fn default() -> Self {
        TokenOverlap {
            min_overlap: 2,
            min_containment: 0.5,
        }
    }
}

/// Distinct clean-token count of one record (all attributes).
fn distinct_token_count(record: &certa_core::Record, scratch: &mut Vec<u64>) -> usize {
    scratch.clear();
    for value in record.values() {
        for tok in value.clean_tokens() {
            scratch.push(certa_core::hash::fx_hash_one(tok));
        }
    }
    scratch.sort_unstable();
    scratch.dedup();
    scratch.len()
}

impl Blocker for TokenOverlap {
    fn name(&self) -> String {
        format!(
            "token-overlap(k={},c={},max_posting=auto)",
            self.min_overlap, self.min_containment
        )
    }

    fn candidates(&self, left: &Table, right: &Table) -> Vec<RecordPair> {
        let index = TokenIndex::build(right, 1000.max(right.len() / 4));
        let mut scratch: Vec<u64> = Vec::new();
        // Distinct-token counts of the right records, for the containment
        // denominator.
        let right_counts: FxHashMap<u32, usize> = right
            .records()
            .iter()
            .map(|r| (r.id().0, distinct_token_count(r, &mut scratch)))
            .collect();
        let mut raw = Vec::new();
        for l in left.records() {
            let nu = distinct_token_count(l, &mut scratch);
            for (rid, overlap) in index.candidates(l, self.min_overlap.max(1), None) {
                let nv = right_counts[&rid.0];
                let denom = nu.min(nv).max(1) as f64;
                if overlap as f64 + 1e-9 >= self.min_containment * denom {
                    raw.push((l.id().0, rid.0));
                }
            }
        }
        finish_pairs(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::{Record, RecordId, Schema};

    fn table(rows: &[&str]) -> Table {
        let mut t = Table::new(Schema::shared("T", ["text"]));
        for (i, row) in rows.iter().enumerate() {
            t.insert(Record::new(RecordId(i as u32), vec![row.to_string()]))
                .expect("arity matches");
        }
        t
    }

    #[test]
    fn sorted_neighborhood_pairs_adjacent_keys() {
        let left = table(&["canon eos r5 camera", "zzz unrelated widget"]);
        let right = table(&["canon eos r5 camera body", "nikon z7 camera"]);
        let cands = SortedNeighborhood { window: 1 }.candidates(&left, &right);
        assert!(cands.contains(&RecordPair::new(RecordId(0), RecordId(0))));
        assert!(
            !cands.contains(&RecordPair::new(RecordId(1), RecordId(0))),
            "zzz-keyed record sorts far from canon"
        );
    }

    #[test]
    fn sorted_neighborhood_emits_only_cross_side_pairs() {
        let rows = ["a b", "a c", "a d", "b c"];
        let t = table(&rows);
        let cands = SortedNeighborhood { window: 8 }.candidates(&t, &t);
        // Window covers everything: all |L|×|R| = 16 pairs, never more.
        assert_eq!(cands.len(), 16);
    }

    #[test]
    fn token_prefix_keys_on_rare_tokens() {
        let left = table(&["the ultraflux widget", "the common thing"]);
        let right = table(&["ultraflux widget the", "another common thing"]);
        let cands = TokenPrefix {
            prefix_len: 2,
            max_df: 10,
        }
        .candidates(&left, &right);
        // "ultraflux"/"widget" (df=2) key L0 and R0 → candidate; L1 and R1
        // share "common" in their two-rarest prefixes.
        assert!(cands.contains(&RecordPair::new(RecordId(0), RecordId(0))));
        assert!(cands.contains(&RecordPair::new(RecordId(1), RecordId(1))));
        assert!(!cands.contains(&RecordPair::new(RecordId(0), RecordId(1))));
    }

    #[test]
    fn token_prefix_respects_max_df() {
        // Every record shares "common"; with max_df below its df the token
        // is banned and nothing collides.
        let rows: Vec<String> = (0..8).map(|i| format!("common unique{i}")).collect();
        let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
        let t = table(&refs);
        let none = TokenPrefix {
            prefix_len: 2,
            max_df: 4,
        }
        .candidates(&t, &t);
        // Each record still self-pairs through its unique token.
        assert_eq!(none.len(), 8);
        let all = TokenPrefix {
            prefix_len: 2,
            max_df: 1000,
        }
        .candidates(&t, &t);
        assert_eq!(all.len(), 64, "admitting the stop word joins everything");
    }

    #[test]
    fn baselines_obey_output_contract() {
        let rows: Vec<String> = (0..30)
            .map(|i| format!("item {} batch {}", i % 5, i % 3))
            .collect();
        let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
        let t = table(&refs);
        for blocker in [
            Box::new(SortedNeighborhood::default()) as Box<dyn Blocker>,
            Box::new(TokenPrefix::default()) as Box<dyn Blocker>,
        ] {
            let cands = blocker.candidates(&t, &t);
            let mut sorted = cands.clone();
            sorted.sort_unstable_by_key(|p| (p.left.0, p.right.0));
            sorted.dedup();
            assert_eq!(cands, sorted, "{} contract", blocker.name());
        }
    }
}
