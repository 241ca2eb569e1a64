//! Property tests pinning batch scoring through real trained models:
//! `score_batch` (the trait's per-pair loop) must be **bit-for-bit
//! identical** to scoring each pair alone through `score`, on arbitrary
//! record contents and batch sizes, repeated records included.

use certa_core::{Matcher, Record, RecordId};
use certa_datagen::{generate, DatasetId, Scale};
use certa_models::{train_model, ModelKind, TrainConfig};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Train one matcher per family once — training is far too slow to repeat
/// per proptest case, and the batch ≡ single contract must hold for any
/// fixed trained model.
fn models() -> &'static Vec<certa_models::ErModel> {
    static MODELS: OnceLock<Vec<certa_models::ErModel>> = OnceLock::new();
    MODELS.get_or_init(|| {
        let d = generate(DatasetId::AB, Scale::Smoke, 17);
        [ModelKind::DeepEr, ModelKind::DeepMatcher, ModelKind::Ditto]
            .into_iter()
            .map(|kind| train_model(kind, &d, &TrainConfig::for_kind(kind)).0)
            .collect()
    })
}

/// Attribute-value alphabet: tokens, numbers with decimal points,
/// punctuation, and blanks — the shapes the featurizers tokenize.
const VALUE: &str = "[a-zA-Z0-9 ,.!]{0,20}";

const ARITY: usize = 3;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn score_batch_bit_identical_to_score(
        lefts in proptest::collection::vec(proptest::collection::vec(VALUE, ARITY), 1..10),
        rights in proptest::collection::vec(proptest::collection::vec(VALUE, ARITY), 1..10),
    ) {
        let us: Vec<Record> = lefts
            .iter()
            .enumerate()
            .map(|(i, vals)| Record::new(RecordId(i as u32), vals.clone()))
            .collect();
        let vs: Vec<Record> = rights
            .iter()
            .enumerate()
            .map(|(i, vals)| Record::new(RecordId(1000 + i as u32), vals.clone()))
            .collect();
        // Cross product: exercises repeated records inside one batch too.
        let pairs: Vec<(&Record, &Record)> =
            us.iter().flat_map(|u| vs.iter().map(move |v| (u, v))).collect();
        for model in models() {
            let batch = model.score_batch(&pairs);
            prop_assert_eq!(batch.len(), pairs.len());
            for ((u, v), p) in pairs.iter().zip(batch.iter()) {
                prop_assert_eq!(
                    p.to_bits(),
                    model.score(u, v).to_bits(),
                    "{}: batch diverged from single scoring",
                    model.name()
                );
            }
        }
        prop_assert!(models()[0].score_batch(&[]).is_empty());
    }
}
