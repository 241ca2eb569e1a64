//! The parallel batch explanation engine.
//!
//! CERTA's cost is dominated by black-box matcher invocations, and distinct
//! predictions are embarrassingly parallel: nothing about explaining
//! `⟨u₁, v₁⟩` depends on `⟨u₂, v₂⟩`. [`Certa::explain_batch`] exploits that
//! by fanning whole pairs out on [`certa_core::run_indexed`], the
//! workspace's work-stealing pool: a pair with an expensive lattice doesn't
//! stall a statically-assigned partner, and each result lands in its
//! input-index slot.
//!
//! ## Determinism guarantee
//!
//! `explain_batch` is **output-identical** to a sequential loop of
//! [`Certa::explain`] calls over the same pairs, in input order — same
//! saliency, golden set, counterfactual examples, lattice statistics, and
//! mean probabilities, byte for byte. This holds because each per-pair
//! explanation is deterministic in the [`CertaConfig`](crate::CertaConfig)
//! (seeded candidate scans, fixed lattice visit order, counters merged in
//! triangle order) and workers never share mutable state — only the slot
//! they own. Scheduling affects wall-clock time, never values. The property
//! is enforced by a property test (`tests/batch_props.rs`).
//!
//! The pair pool is the explainer's only fan-out: each worker runs
//! [`Certa::explain`], which is sequential.

use crate::certa::{Certa, CertaExplanation};
use certa_core::{run_indexed, Dataset, LabeledPair, Matcher, Record};

impl Certa {
    /// Explain a batch of predictions in parallel; results are returned in
    /// input order and are identical to a loop of [`Certa::explain`] calls.
    ///
    /// The worker count is `config.workers`, resolved by
    /// [`certa_core::worker_count`] (`0` = one per core) and clamped to the
    /// batch size. With one worker (or one pair) this *is* the sequential
    /// loop.
    pub fn explain_batch(
        &self,
        matcher: &dyn Matcher,
        dataset: &Dataset,
        pairs: &[(&Record, &Record)],
    ) -> Vec<CertaExplanation> {
        run_indexed(pairs.len(), self.config().workers, |i| {
            let (u, v) = pairs[i];
            self.explain(matcher, dataset, u, v)
        })
    }

    /// [`Certa::explain_batch`] over labeled pairs resolved against the
    /// dataset — the shape the evaluation runners hold.
    pub fn explain_labeled(
        &self,
        matcher: &dyn Matcher,
        dataset: &Dataset,
        pairs: &[LabeledPair],
    ) -> Vec<CertaExplanation> {
        let refs: Vec<(&Record, &Record)> = pairs
            .iter()
            .map(|lp| dataset.expect_pair(lp.pair))
            .collect();
        self.explain_batch(matcher, dataset, &refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CertaConfig;
    use certa_core::{FnMatcher, RecordId, Schema, Side, Table};

    fn dataset() -> Dataset {
        let ls = Schema::shared("U", ["key", "noise", "price"]);
        let rs = Schema::shared("V", ["key", "noise", "price"]);
        let mk = |i: u32, key: &str| {
            Record::new(
                RecordId(i),
                vec![
                    key.to_string(),
                    format!("noise{i} extra pad"),
                    format!("{}", 10 + i),
                ],
            )
        };
        let left = Table::from_records(
            ls,
            (0..12)
                .map(|i| mk(i, if i < 6 { "alpha" } else { "beta" }))
                .collect(),
        )
        .unwrap();
        let right = Table::from_records(
            rs,
            (0..12)
                .map(|i| mk(i, if i < 6 { "alpha" } else { "beta" }))
                .collect(),
        )
        .unwrap();
        Dataset::new(
            "toy",
            left,
            right,
            vec![LabeledPair::new(RecordId(0), RecordId(0), true)],
            vec![
                LabeledPair::new(RecordId(0), RecordId(0), true),
                LabeledPair::new(RecordId(1), RecordId(2), true),
                LabeledPair::new(RecordId(0), RecordId(6), false),
                LabeledPair::new(RecordId(7), RecordId(8), true),
                LabeledPair::new(RecordId(5), RecordId(9), false),
            ],
        )
        .unwrap()
    }

    fn key_matcher() -> impl Matcher {
        FnMatcher::new("key-eq", |u: &Record, v: &Record| {
            if u.values()[0] == v.values()[0] {
                0.92
            } else {
                0.08
            }
        })
    }

    fn pair_refs(d: &Dataset) -> Vec<(&Record, &Record)> {
        d.split(certa_core::Split::Test)
            .iter()
            .map(|lp| d.expect_pair(lp.pair))
            .collect()
    }

    fn certa(workers: usize) -> Certa {
        Certa::new(CertaConfig {
            num_triangles: 10,
            use_augmentation: false,
            workers,
            ..Default::default()
        })
    }

    #[test]
    fn batch_is_identical_to_sequential_loop() {
        let d = dataset();
        let m = key_matcher();
        let pairs = pair_refs(&d);
        // Force real threads even on a single-core machine.
        let batch = certa(4).explain_batch(&m, &d, &pairs);
        let sequential: Vec<CertaExplanation> = pairs
            .iter()
            .map(|(u, v)| certa(1).explain(&m, &d, u, v))
            .collect();
        assert_eq!(batch, sequential);
    }

    #[test]
    fn batch_handles_empty_and_singleton_inputs() {
        let d = dataset();
        let m = key_matcher();
        assert!(certa(4).explain_batch(&m, &d, &[]).is_empty());
        let pairs = pair_refs(&d);
        let one = certa(4).explain_batch(&m, &d, &pairs[..1]);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0], certa(1).explain(&m, &d, pairs[0].0, pairs[0].1));
    }

    #[test]
    fn labeled_entry_point_matches_batch() {
        let d = dataset();
        let m = key_matcher();
        let labeled = d.split(certa_core::Split::Test);
        let by_label = certa(2).explain_labeled(&m, &d, labeled);
        let by_refs = certa(2).explain_batch(&m, &d, &pair_refs(&d));
        assert_eq!(by_label, by_refs);
    }

    #[test]
    fn batch_results_are_in_input_order() {
        let d = dataset();
        let m = key_matcher();
        let pairs = pair_refs(&d);
        let batch = certa(3).explain_batch(&m, &d, &pairs);
        assert_eq!(batch.len(), pairs.len());
        for ((u, v), exp) in pairs.iter().zip(&batch) {
            assert_eq!(exp.prediction.score, m.score(u, v), "slot out of order");
        }
        // The mixed-label workload really contains both classes.
        assert!(batch.iter().any(|e| e.prediction.is_match()));
        assert!(batch.iter().any(|e| !e.prediction.is_match()));
        // Saliency agrees with the single-pair path, pair by pair.
        for ((u, v), exp) in pairs.iter().zip(&batch) {
            assert_eq!(exp.saliency, certa(1).explain(&m, &d, u, v).saliency);
        }
        assert!(batch
            .iter()
            .all(|e| e.saliency.score(crate::AttrRef::new(Side::Left, 0)) > 0.0));
    }
}
