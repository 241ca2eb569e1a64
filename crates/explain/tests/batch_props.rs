//! Property test for the batch engine's determinism guarantee: over random
//! schemas, worlds, and matchers, `Certa::explain_batch` must be
//! **byte-identical** to a loop of sequential `explain` calls — same
//! saliency, golden set, counterfactual examples, lattice statistics, and
//! mean probabilities, in input order.

use certa_core::{Dataset, FnMatcher, LabeledPair, Record, RecordId, Schema, Table};
use certa_explain::{Certa, CertaConfig, CertaExplanation};
use proptest::prelude::*;

/// Two-family world: records of the same family share every attribute value,
/// so copying an attribute subset across families moves exactly that
/// subset's weight mass — random weights make the flip structure of every
/// lattice non-trivial.
fn build_dataset(arity: usize, families: &[bool], salt: &str) -> Dataset {
    let names: Vec<String> = (0..arity).map(|j| format!("a{j}")).collect();
    let ls = Schema::shared("U", names.clone());
    let rs = Schema::shared("V", names);
    let mk = |i: usize, fam: bool| {
        let tag = if fam { "alpha" } else { "beta" };
        Record::new(
            RecordId(i as u32),
            (0..arity)
                .map(|j| format!("{tag} f{j} {salt} tail"))
                .collect(),
        )
    };
    let records = |_side: &str| -> Vec<Record> {
        families
            .iter()
            .enumerate()
            .map(|(i, &fam)| mk(i, fam))
            .collect()
    };
    let left = Table::from_records(ls, records("U")).unwrap();
    let right = Table::from_records(rs, records("V")).unwrap();
    let n = families.len() as u32;
    Dataset::new(
        "prop",
        left,
        right,
        vec![LabeledPair::new(RecordId(0), RecordId(0), true)],
        vec![
            LabeledPair::new(RecordId(0), RecordId(0), true),
            LabeledPair::new(RecordId(1), RecordId(n - 1), false),
            LabeledPair::new(RecordId(n - 1), RecordId(n - 2), true),
            LabeledPair::new(RecordId(2), RecordId(1), true),
        ],
    )
    .unwrap()
}

/// Weighted attribute-equality matcher: score = Σ wᵢ·[uᵢ = vᵢ] / Σ wᵢ.
fn weighted_matcher(weights: Vec<f64>) -> impl certa_core::Matcher {
    FnMatcher::new("weighted-eq", move |u: &Record, v: &Record| {
        let arity = u.arity().min(v.arity()).min(weights.len());
        let total: f64 = weights[..arity].iter().sum();
        if total == 0.0 {
            return 0.0;
        }
        let agree: f64 = (0..arity)
            .filter(|&i| u.values()[i] == v.values()[i])
            .map(|i| weights[i])
            .sum();
        agree / total
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn explain_batch_is_byte_identical_to_sequential_loop(
        arity in 1usize..4,
        families in proptest::collection::vec(any::<bool>(), 6..11),
        salt in "[a-z]{2,6}",
        weights in proptest::collection::vec(0.05f64..1.0, 3),
        augment in any::<bool>(),
        tau in 2usize..9,
    ) {
        // Both families must exist or no open triangle can ever form.
        prop_assume!(families.iter().any(|&b| b) && families.iter().any(|&b| !b));
        let dataset = build_dataset(arity, &families, &salt);
        let matcher = weighted_matcher(weights);
        let pairs: Vec<(&Record, &Record)> = dataset
            .split(certa_core::Split::Test)
            .iter()
            .map(|lp| dataset.expect_pair(lp.pair))
            .collect();
        let base = CertaConfig {
            num_triangles: tau,
            use_augmentation: augment,
            seed: 0xAB5,
            ..Default::default()
        };
        // 4 workers forces real threads even on a single-core machine.
        let batch = Certa::new(CertaConfig { workers: 4, ..base })
            .explain_batch(&matcher, &dataset, &pairs);
        let sequential: Vec<CertaExplanation> = {
            let certa = Certa::new(CertaConfig { workers: 1, ..base });
            pairs
                .iter()
                .map(|&(u, v)| certa.explain(&matcher, &dataset, u, v))
                .collect()
        };
        prop_assert_eq!(&batch, &sequential);
        // Spot-check the field-level guarantees the ISSUE names explicitly
        // (saliency, golden set, lattice stats, input order) so a future
        // change to `PartialEq` cannot silently weaken this test.
        for (b, s) in batch.iter().zip(&sequential) {
            prop_assert_eq!(&b.saliency, &s.saliency);
            prop_assert_eq!(&b.counterfactual.golden_set, &s.counterfactual.golden_set);
            prop_assert_eq!(&b.lattice_stats, &s.lattice_stats);
            prop_assert_eq!(b.triangle_stats, s.triangle_stats);
            prop_assert_eq!(b.mean_sufficiency, s.mean_sufficiency);
            prop_assert_eq!(b.mean_necessity, s.mean_necessity);
        }
    }
}
