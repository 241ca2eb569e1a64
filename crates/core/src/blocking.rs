//! Token-based blocking: candidate generation via an inverted index.
//!
//! Real ER pipelines never score the full `U × V` cross product; a blocking
//! pass proposes candidate pairs that share evidence. The synthetic benchmark
//! generator uses this index to build realistic *hard negatives* (similar but
//! non-matching pairs) for the train/test splits, and CERTA's triangle search
//! can use it to rank likely support records instead of scanning a whole
//! table. Dataset-scale candidate generation (MinHash/LSH banding and the
//! sorted-neighborhood / token-prefix baselines) lives in `certa-block`,
//! which composes with this index.
//!
//! # Scale contract
//!
//! Both the build and the query path are bounded at million-record scale:
//!
//! * `build` stops growing a token's posting list once it passes
//!   `max_posting` (hyper-common tokens can never drive candidates, so
//!   their lists are capped at `max_posting + 1` entries during the scan
//!   and dropped entirely before `build` returns);
//! * `candidates` dedupes probe tokens through the cached clean-token
//!   spans of the interned values — the hot path allocates no `String`s
//!   per probe token;
//! * `candidates` counts shared tokens in a dense per-thread array indexed
//!   by table position, reused from query to query and reset through the
//!   list of positions the query touched — so a query costs the postings
//!   it reads, never `|table|`. The array grows to the largest table the
//!   thread has queried (4 bytes per record) and lives as long as the
//!   thread.

use crate::hash::FxHashMap;
use crate::record::{Record, RecordId};
use crate::table::Table;
use std::cell::RefCell;

/// Inverted index from token → table positions of the records containing
/// it, over one table.
#[derive(Debug, Clone)]
pub struct TokenIndex {
    /// Ascending table positions per token. Tokens appearing in more than
    /// `max_posting` records are dropped at build time (stop-word
    /// behaviour); queries therefore never see them.
    postings: FxHashMap<String, Vec<u32>>,
    /// Table position → record id.
    ids: Vec<RecordId>,
}

impl TokenIndex {
    /// Index every (cleaned) token of every attribute of every record.
    ///
    /// `max_posting` bounds how common a token may be and still drive
    /// candidate generation; pass `usize::MAX` to disable the cutoff.
    ///
    /// Memory is bounded even on stop-word-heavy tables: a posting list
    /// stops growing at `max_posting + 1` entries (just enough to prove the
    /// token is over the cutoff) instead of accumulating one entry per
    /// containing record, and every over-cutoff list is dropped before the
    /// index is returned — so the finished index holds at most
    /// `max_posting` entries per surviving token and zero for stop words.
    pub fn build(table: &Table, max_posting: usize) -> Self {
        let mut postings: FxHashMap<String, Vec<u32>> = FxHashMap::default();
        let ids: Vec<RecordId> = table.records().iter().map(Record::id).collect();
        for (r, pos) in table.records().iter().zip(0u32..) {
            for value in r.values() {
                // Cleaned tokens are cached on the interned value — indexing
                // re-reads them instead of re-cleaning every string.
                for tok in value.clean_tokens() {
                    match postings.get_mut(tok) {
                        Some(positions) => {
                            // Past the cutoff this token can never drive a
                            // candidate; stop paying memory for it. (The +1
                            // overshoot is what marks the list as oversized
                            // for the retain pass below.)
                            if positions.len() > max_posting {
                                continue;
                            }
                            if positions.last() != Some(&pos) {
                                positions.push(pos);
                            }
                        }
                        None => {
                            // First sighting: the only point the token is
                            // materialized as an owned String.
                            postings.insert(tok.to_string(), vec![pos]);
                        }
                    }
                }
            }
        }
        if max_posting != usize::MAX {
            postings.retain(|_, positions| {
                if positions.len() > max_posting {
                    false
                } else {
                    positions.shrink_to_fit();
                    true
                }
            });
        }
        TokenIndex { postings, ids }
    }

    /// Records sharing at least `min_overlap` distinct indexed tokens with
    /// `probe`, ranked by descending overlap count, then ascending id.
    /// `exclude` (if given) is removed from the results — used when
    /// searching support records `w ∈ U \ {u}`.
    ///
    /// Allocation discipline: probe tokens are deduped through the cached
    /// `&str` clean-token spans of the probe's interned values — no `String`
    /// is built per probe token (pinned by `candidates_match_owned_dedupe`)
    /// — and overlaps are counted in this thread's reused dense array (see
    /// the module's scale contract).
    pub fn candidates(
        &self,
        probe: &Record,
        min_overlap: usize,
        exclude: Option<RecordId>,
    ) -> Vec<(RecordId, usize)> {
        COUNTS.with(|counts| match counts.try_borrow_mut() {
            Ok(mut counts) => self.count(&mut counts, probe, min_overlap, exclude),
            Err(_) => self.count(&mut OverlapCounts::default(), probe, min_overlap, exclude),
        })
    }

    /// [`TokenIndex::candidates`] on `buf`, which it leaves all zeros.
    fn count(
        &self,
        buf: &mut OverlapCounts,
        probe: &Record,
        min_overlap: usize,
        exclude: Option<RecordId>,
    ) -> Vec<(RecordId, usize)> {
        let OverlapCounts { counts, touched } = buf;
        if counts.len() < self.ids.len() {
            counts.resize(self.ids.len(), 0);
        }
        let mut seen: crate::hash::FxHashSet<&str> = crate::hash::FxHashSet::default();
        for value in probe.values() {
            for tok in value.clean_tokens() {
                if !seen.insert(tok) {
                    continue; // count each distinct probe token once
                }
                for &pos in self.postings.get(tok).into_iter().flatten() {
                    let count = &mut counts[pos as usize];
                    if *count == 0 {
                        touched.push(pos);
                    }
                    *count += 1;
                }
            }
        }
        let mut out: Vec<(RecordId, usize)> = Vec::with_capacity(touched.len());
        for pos in touched.drain(..) {
            let count = std::mem::take(&mut counts[pos as usize]) as usize;
            let id = self.ids[pos as usize];
            if count >= min_overlap && Some(id) != exclude {
                out.push((id, count));
            }
        }
        // Deterministic order: overlap desc, then id asc.
        out.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Number of distinct indexed tokens (stop words are not counted: they
    /// are dropped at build time).
    #[cfg(test)]
    pub fn vocabulary_size(&self) -> usize {
        self.postings.len()
    }

    /// Total posting-list entries held by the index — the memory the index
    /// actually retains, which the build-time cutoff bounds.
    #[cfg(test)]
    pub fn posting_entries(&self) -> usize {
        self.postings.values().map(Vec::len).sum()
    }
}

/// One thread's overlap counters: `counts` is indexed by table position
/// and is all zeros between queries; `touched` lists the positions the
/// running query has counted, so resetting costs what counting did.
#[derive(Debug, Default)]
struct OverlapCounts {
    counts: Vec<u32>,
    touched: Vec<u32>,
}

thread_local! {
    /// This thread's counters, reused by [`TokenIndex::candidates`].
    static COUNTS: RefCell<OverlapCounts> = RefCell::new(OverlapCounts::default());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn table() -> Table {
        let schema = Schema::shared("U", ["name"]);
        Table::from_records(
            schema,
            vec![
                Record::new(RecordId(0), vec!["sony bravia tv".into()]),
                Record::new(RecordId(1), vec!["sony walkman player".into()]),
                Record::new(RecordId(2), vec!["lg oled tv".into()]),
                Record::new(RecordId(3), vec!["bose speaker".into()]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn candidates_ranked_by_overlap() {
        let t = table();
        let idx = TokenIndex::build(&t, usize::MAX);
        let probe = Record::new(RecordId(99), vec!["sony bravia oled tv".into()]);
        let cands = idx.candidates(&probe, 1, None);
        // Record 0 shares sony+bravia+tv (3); record 2 shares oled+tv (2);
        // record 1 shares sony (1).
        assert_eq!(cands[0].0, RecordId(0));
        assert_eq!(cands[0].1, 3);
        assert_eq!(cands[1].0, RecordId(2));
        assert!(cands.iter().all(|&(id, _)| id != RecordId(3)));
    }

    #[test]
    fn exclude_removes_self() {
        let t = table();
        let idx = TokenIndex::build(&t, usize::MAX);
        let probe = t.get(RecordId(0)).unwrap().clone();
        let cands = idx.candidates(&probe, 1, Some(RecordId(0)));
        assert!(cands.iter().all(|&(id, _)| id != RecordId(0)));
        assert!(!cands.is_empty());
    }

    #[test]
    fn min_overlap_filters() {
        let t = table();
        let idx = TokenIndex::build(&t, usize::MAX);
        let probe = Record::new(RecordId(99), vec!["sony bravia oled tv".into()]);
        let cands = idx.candidates(&probe, 2, None);
        assert!(cands.iter().all(|&(_, c)| c >= 2));
    }

    #[test]
    fn stop_tokens_ignored() {
        let t = table();
        // With max_posting = 1, "sony" (2 postings) and "tv" (2 postings)
        // are treated as stop words.
        let idx = TokenIndex::build(&t, 1);
        let probe = Record::new(RecordId(99), vec!["sony tv".into()]);
        assert!(idx.candidates(&probe, 1, None).is_empty());
        let all = TokenIndex::build(&t, usize::MAX);
        assert_eq!(all.vocabulary_size() - idx.vocabulary_size(), 2);
    }

    #[test]
    fn duplicate_probe_tokens_count_once() {
        let t = table();
        let idx = TokenIndex::build(&t, usize::MAX);
        let probe = Record::new(RecordId(99), vec!["sony sony sony".into()]);
        let cands = idx.candidates(&probe, 1, None);
        let c0 = cands.iter().find(|&&(id, _)| id == RecordId(0)).unwrap();
        assert_eq!(c0.1, 1);
    }

    #[test]
    fn vocabulary_size_counts_tokens() {
        let t = table();
        let idx = TokenIndex::build(&t, usize::MAX);
        // sony bravia tv walkman player lg oled bose speaker = 9
        assert_eq!(idx.vocabulary_size(), 9);
    }

    /// The build-time cutoff regression: a stop-word-heavy table must not
    /// accumulate O(records) posting entries for its hyper-common tokens.
    /// Before the fix, `build` grew every list unboundedly and only *skipped*
    /// oversized lists at query time — 1000 records sharing "the premium
    /// item" cost 3000 retained entries; now those lists are capped during
    /// the scan and dropped before `build` returns.
    #[test]
    fn build_bounds_memory_on_stop_word_heavy_tables() {
        let n = 1000u32;
        let schema = Schema::shared("U", ["name"]);
        let records: Vec<Record> = (0..n)
            .map(|i| {
                // Three stop words in every record plus one rare token.
                Record::new(RecordId(i), vec![format!("the premium item sku{i}")])
            })
            .collect();
        let table = Table::from_records(schema, records).unwrap();

        let max_posting = 10;
        let idx = TokenIndex::build(&table, max_posting);
        // The three stop words are gone entirely …
        let all = TokenIndex::build(&table, usize::MAX);
        assert_eq!(all.vocabulary_size() - idx.vocabulary_size(), 3);
        assert_eq!(idx.vocabulary_size(), n as usize, "only sku tokens remain");
        // … and retained memory is exactly one entry per rare token, far
        // below the 4 × n entries the unbounded build held.
        assert_eq!(idx.posting_entries(), n as usize);
        // Queries behave like the old skip-at-query-time semantics.
        let probe = Record::new(RecordId(n + 1), vec!["the premium item sku7".into()]);
        let cands = idx.candidates(&probe, 1, None);
        assert_eq!(cands, vec![(RecordId(7), 1)]);
    }

    #[test]
    fn unbounded_build_retains_everything() {
        let t = table();
        let idx = TokenIndex::build(&t, usize::MAX);
        // 4 records × 3,3,3,2 tokens = 11 posting entries, none dropped.
        assert_eq!(idx.posting_entries(), 11);
    }

    /// Before/after equivalence for the allocation-free probe dedupe and the
    /// dense position-indexed counts: the results must equal the old
    /// owned-`String` implementation's, which counted per record id in a
    /// map, on probes with repeated tokens across and within attributes.
    /// The second table's ids are a permutation of other numbers than its
    /// positions (0 → 30, 1 → 81, 2 → 9, …), so a position read as an id,
    /// or a tie ranked by position, fails.
    #[test]
    fn candidates_match_owned_dedupe() {
        let identity = |i: u32| i;
        let scattered = |i: u32| 3 * ((i * 17 + 10) % 41);
        for id_of in [&identity as &dyn Fn(u32) -> u32, &scattered] {
            let schema = Schema::shared("U", ["name", "desc"]);
            let records: Vec<Record> = (0..40u32)
                .map(|i| {
                    Record::new(
                        RecordId(id_of(i)),
                        vec![
                            format!("brand{} tv model{}", i % 7, i),
                            format!("brand{} premium tv", i % 7),
                        ],
                    )
                })
                .collect();
            let t = Table::from_records(schema, records).unwrap();
            for max_posting in [usize::MAX, 8, 3, 1] {
                let idx = TokenIndex::build(&t, max_posting);
                for probe_pos in [0usize, 3, 13, 39] {
                    let probe = t.records()[probe_pos].clone();
                    for (min_overlap, exclude) in [1usize, 2, 3]
                        .into_iter()
                        .flat_map(|m| [(m, Some(probe.id())), (m, None)])
                    {
                        let fast = idx.candidates(&probe, min_overlap, exclude);
                        // Reference: the pre-fix owned-String dedupe and
                        // per-id map, with each posted position mapped back
                        // to its record's id through the table.
                        let mut counts: FxHashMap<RecordId, usize> = FxHashMap::default();
                        let mut seen: crate::hash::FxHashSet<String> =
                            crate::hash::FxHashSet::default();
                        for value in probe.values() {
                            for tok in value.clean_tokens() {
                                if !seen.insert(tok.to_string()) {
                                    continue;
                                }
                                if let Some(positions) = idx.postings.get(tok) {
                                    if positions.len() > max_posting {
                                        continue;
                                    }
                                    for &pos in positions {
                                        let id = t.records()[pos as usize].id();
                                        if Some(id) != exclude {
                                            *counts.entry(id).or_insert(0) += 1;
                                        }
                                    }
                                }
                            }
                        }
                        let mut expected: Vec<(RecordId, usize)> = counts
                            .into_iter()
                            .filter(|&(_, c)| c >= min_overlap)
                            .collect();
                        expected.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                        assert_eq!(
                            fast,
                            expected,
                            "ids {:?} probe {probe_pos} min_overlap {min_overlap} \
                             exclude {exclude:?} max_posting {max_posting}",
                            t.records()[1].id()
                        );
                    }
                }
            }
        }
    }
}
