//! Training harness: featurize a dataset's train split, fit the MLP head,
//! and report train/test quality.

use crate::cache::CacheStats;
use crate::features::{Featurizer, FeaturizerKind};
use crate::memo::FeatureMemo;
use crate::zoo::ModelKind;
use certa_core::tokens::tokens;
use certa_core::{Dataset, MatchLabel, Matcher, Record, Split};
use certa_ml::dataset::Standardizer;
use certa_ml::metrics::confusion;
use certa_ml::{Mlp, MlpConfig, TrainSet};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Training configuration for one ER model.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// MLP architecture + optimizer settings.
    pub mlp: MlpConfig,
    /// Ditto-style augmented copies per training pair (ignored for other
    /// models).
    pub augment_copies: usize,
    /// RNG seed for augmentation.
    pub seed: u64,
}

impl TrainConfig {
    /// Per-model defaults (architecture widths mirror the relative capacity
    /// of the original systems).
    pub fn for_kind(kind: ModelKind) -> TrainConfig {
        let (hidden, epochs, augment) = match kind {
            ModelKind::DeepEr => (vec![24], 35, 0),
            ModelKind::DeepMatcher => (vec![16], 45, 0),
            ModelKind::Ditto => (vec![32], 40, 1),
        };
        TrainConfig {
            mlp: MlpConfig {
                hidden,
                epochs,
                batch_size: 16,
                seed: 0x5eed ^ kind as u64,
                ..MlpConfig::default()
            },
            augment_copies: augment,
            seed: 0xA06 ^ kind as u64,
        }
    }
}

/// A trained ER matcher: featurizer + standardizer + MLP head, with a
/// per-model [`FeatureMemo`] caching per-value featurization artifacts.
///
/// Implements [`Matcher`]; everything downstream treats it as a black box.
/// The memo is enabled by default and shared by clones of the model (it
/// caches pure functions of interned values, so memoized and unmemoized
/// scoring are bit-identical — see [`Featurizer::features_with`]).
#[derive(Debug, Clone)]
pub struct ErModel {
    kind: ModelKind,
    name: String,
    featurizer: Featurizer,
    standardizer: Standardizer,
    net: Mlp,
    memo: Option<Arc<FeatureMemo>>,
}

impl ErModel {
    /// Which family this model belongs to.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// The fitted featurizer (for direct featurization benchmarks).
    pub fn featurizer(&self) -> &Featurizer {
        &self.featurizer
    }

    /// The fitted feature standardizer (persistence path).
    pub fn standardizer(&self) -> &Standardizer {
        &self.standardizer
    }

    /// The trained MLP head (persistence path).
    pub fn net(&self) -> &Mlp {
        &self.net
    }

    /// The model's featurization memo, when enabled (persistence path:
    /// `certa-store` snapshots warm artifacts through this handle).
    pub fn feature_memo(&self) -> Option<&Arc<FeatureMemo>> {
        self.memo.as_ref()
    }

    /// Reassemble a model from persisted parts — the decode path of
    /// `certa-store`. The name is derived from `kind` (the same derivation
    /// [`train_model`] uses) and a fresh, enabled memo is attached.
    ///
    /// # Panics
    /// Panics when the featurizer width, standardizer width, and network
    /// input dimension disagree — persisted artifacts are validated before
    /// this is called; disagreement is a caller bug, exactly as for
    /// [`Mlp::new`].
    pub fn from_parts(
        kind: ModelKind,
        featurizer: Featurizer,
        standardizer: Standardizer,
        net: Mlp,
    ) -> Self {
        assert_eq!(
            featurizer.dim(),
            net.input_dim(),
            "featurizer width must match the network input"
        );
        assert_eq!(
            standardizer.dim(),
            net.input_dim(),
            "standardizer width must match the network input"
        );
        ErModel {
            kind,
            name: kind.model_name().to_string(),
            featurizer,
            standardizer,
            net,
            memo: Some(Arc::new(FeatureMemo::new())),
        }
    }

    /// Enable (fresh memo) or disable the featurizer memo. Scores are
    /// bit-identical either way; only throughput changes.
    pub fn with_feature_memo(mut self, enabled: bool) -> Self {
        self.memo = enabled.then(|| Arc::new(FeatureMemo::new()));
        self
    }

    /// Hit/miss counters of the featurizer memo (zeros when disabled).
    pub fn memo_stats(&self) -> CacheStats {
        self.memo
            .as_deref()
            .map(FeatureMemo::stats)
            .unwrap_or_default()
    }

    /// Number of cached featurization artifacts (0 when disabled).
    pub fn memo_len(&self) -> usize {
        self.memo.as_deref().map_or(0, FeatureMemo::len)
    }
}

impl Matcher for ErModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn score(&self, u: &Record, v: &Record) -> f64 {
        let mut feats = self.featurizer.features_with(u, v, self.memo.as_deref());
        self.standardizer.apply(&mut feats);
        self.net.predict_proba(&feats)
    }
}

/// Quality report from [`train_model`].
#[derive(Debug, Clone, Copy)]
pub struct TrainReport {
    /// F1 on the train split.
    pub train_f1: f64,
    /// F1 on the held-out test split.
    pub test_f1: f64,
    /// Final training loss.
    pub final_loss: f64,
}

/// Train one matcher family on a dataset. Deterministic in the configs.
pub fn train_model(
    kind: ModelKind,
    dataset: &Dataset,
    cfg: &TrainConfig,
) -> (ErModel, TrainReport) {
    let featurizer = fit_featurizer(kind, dataset);
    let net = Mlp::new(featurizer.dim(), &cfg.mlp);
    fit_from(kind, dataset, cfg, featurizer, net, &cfg.mlp)
}

/// Warm-start one matcher family on a dataset from an already-trained
/// `base` model (transfer across related datasets): the network starts
/// from `base`'s weights instead of a fresh init and trains for an eighth
/// of the cold epoch budget (min 4). The featurizer and standardizer are
/// refit on `dataset` — only the head transfers.
///
/// Returns `None` when the transfer is structurally impossible — `base`
/// is a different family, or `dataset`'s featurization width differs from
/// the base network's input — so the caller falls back to a cold
/// [`train_model`]. Deterministic in the configs and the base weights.
pub fn fine_tune_model(
    kind: ModelKind,
    dataset: &Dataset,
    base: &ErModel,
    cfg: &TrainConfig,
) -> Option<(ErModel, TrainReport)> {
    if base.kind() != kind {
        return None;
    }
    let featurizer = fit_featurizer(kind, dataset);
    if featurizer.dim() != base.net().input_dim() {
        return None;
    }
    let net = Mlp::from_snapshot(base.net().snapshot()).ok()?;
    let mut tune = cfg.mlp.clone();
    // Warm-started heads converge in a few passes: an eighth of the cold
    // budget holds quality (bench_repo gates the F1 delta) while keeping
    // transfer comfortably past its 2x speedup floor.
    tune.epochs = (cfg.mlp.epochs / 8).max(4);
    Some(fit_from(kind, dataset, cfg, featurizer, net, &tune))
}

fn fit_featurizer(kind: ModelKind, dataset: &Dataset) -> Featurizer {
    let fkind = match kind {
        ModelKind::DeepEr => FeaturizerKind::DeepEr,
        ModelKind::DeepMatcher => FeaturizerKind::DeepMatcher,
        ModelKind::Ditto => FeaturizerKind::Ditto,
    };
    Featurizer::fit(fkind, dataset)
}

/// Shared tail of [`train_model`] and [`fine_tune_model`]: build the
/// (possibly augmented) train set, fit the standardizer, run `mlp_cfg`
/// epochs of SGD from `net`'s current weights, and report quality.
fn fit_from(
    kind: ModelKind,
    dataset: &Dataset,
    cfg: &TrainConfig,
    featurizer: Featurizer,
    mut net: Mlp,
    mlp_cfg: &MlpConfig,
) -> (ErModel, TrainReport) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // The model's memo is created up front and threaded through the train
    // loop, so the per-value artifacts computed here are reused by the
    // quality evaluation below (and by later scoring) instead of being
    // recomputed. Augmented copies stay unmemoized: their one-off values
    // would bloat the memo — and every artifact snapshot embedding it —
    // for no reuse.
    let memo = Arc::new(FeatureMemo::new());
    let mut train = TrainSet::new();
    for lp in dataset.split(Split::Train) {
        let (u, v) = dataset.expect_pair(lp.pair);
        let y = if lp.label.is_match() { 1.0 } else { 0.0 };
        train.push(featurizer.features_with(u, v, Some(&memo)), y);
        for _ in 0..cfg.augment_copies {
            // Ditto §3.2-style data augmentation: train on corrupted copies
            // so the model is robust to in-distribution token noise.
            let ua = augment_record(u, &mut rng);
            let va = augment_record(v, &mut rng);
            train.push(featurizer.features(&ua, &va), y);
        }
    }

    let standardizer = train.fit_standardizer();
    let xs: Vec<Vec<f64>> = train
        .features()
        .iter()
        .map(|x| standardizer.transform(x))
        .collect();
    let losses = net.fit(&xs, train.labels(), mlp_cfg);

    let model = ErModel {
        kind,
        name: kind.model_name().to_string(),
        featurizer,
        standardizer,
        net,
        memo: Some(memo),
    };
    let report = TrainReport {
        train_f1: evaluate_f1(&model, dataset, Split::Train),
        test_f1: evaluate_f1(&model, dataset, Split::Test),
        final_loss: losses.last().copied().unwrap_or(f64::NAN),
    };
    (model, report)
}

/// F1 of a matcher on one split of a dataset.
pub fn evaluate_f1(matcher: &dyn Matcher, dataset: &Dataset, split: Split) -> f64 {
    let pairs = dataset.split(split);
    let mut pred = Vec::with_capacity(pairs.len());
    let mut actual = Vec::with_capacity(pairs.len());
    for lp in pairs {
        let (u, v) = dataset.expect_pair(lp.pair);
        pred.push(matcher.predict(u, v) == MatchLabel::Match);
        actual.push(lp.label.is_match());
    }
    confusion(&pred, &actual).f1()
}

/// Random token drop/swap on each attribute (the augmentation operator).
fn augment_record(r: &Record, rng: &mut StdRng) -> Record {
    let values = r
        .values()
        .iter()
        .map(|v| {
            let mut toks: Vec<&str> = tokens(v).collect();
            if toks.len() >= 2 && rng.gen_bool(0.5) {
                let i = rng.gen_range(0..toks.len());
                toks.remove(i);
            }
            if toks.len() >= 2 && rng.gen_bool(0.3) {
                let i = rng.gen_range(0..toks.len() - 1);
                toks.swap(i, i + 1);
            }
            toks.join(" ")
        })
        .collect();
    Record::new(r.id(), values)
}

/// Shuffle + subsample labeled pairs (used by experiments that explain a
/// bounded number of test predictions).
pub fn sample_pairs(
    dataset: &Dataset,
    split: Split,
    n: usize,
    seed: u64,
) -> Vec<certa_core::LabeledPair> {
    let mut pairs = dataset.split(split).to_vec();
    let mut rng = StdRng::seed_from_u64(seed);
    pairs.shuffle(&mut rng);
    pairs.truncate(n);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_datagen::{generate, DatasetId, Scale};

    #[test]
    fn all_models_learn_smoke_ab_above_chance() {
        let d = generate(DatasetId::AB, Scale::Smoke, 11);
        for kind in ModelKind::all() {
            let cfg = TrainConfig::for_kind(kind);
            let (_, report) = train_model(kind, &d, &cfg);
            assert!(
                report.test_f1 > 0.5,
                "{kind:?} test F1 {:.3} too low (train {:.3})",
                report.test_f1,
                report.train_f1
            );
        }
    }

    #[test]
    fn scores_are_probabilities() {
        let d = generate(DatasetId::FZ, Scale::Smoke, 2);
        let (model, _) = train_model(
            ModelKind::DeepMatcher,
            &d,
            &TrainConfig::for_kind(ModelKind::DeepMatcher),
        );
        for lp in d.split(Split::Test) {
            let (u, v) = d.expect_pair(lp.pair);
            let s = model.score(u, v);
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn training_is_deterministic() {
        let d = generate(DatasetId::BA, Scale::Smoke, 4);
        let cfg = TrainConfig::for_kind(ModelKind::Ditto);
        let (m1, r1) = train_model(ModelKind::Ditto, &d, &cfg);
        let (m2, r2) = train_model(ModelKind::Ditto, &d, &cfg);
        assert_eq!(r1.test_f1, r2.test_f1);
        let (u, v) = d.expect_pair(d.split(Split::Test)[0].pair);
        assert_eq!(m1.score(u, v), m2.score(u, v));
    }

    #[test]
    fn sample_pairs_bounded_and_deterministic() {
        let d = generate(DatasetId::AB, Scale::Smoke, 1);
        let a = sample_pairs(&d, Split::Test, 5, 3);
        let b = sample_pairs(&d, Split::Test, 5, 3);
        assert_eq!(a, b);
        assert!(a.len() <= 5);
        let c = sample_pairs(&d, Split::Test, 5, 4);
        assert_ne!(
            a, c,
            "different seed, different sample (overwhelmingly likely)"
        );
    }

    #[test]
    fn batch_scores_are_value_identical_across_families() {
        let d = generate(DatasetId::FZ, Scale::Smoke, 2);
        let pairs: Vec<(&Record, &Record)> = d
            .split(Split::Test)
            .iter()
            .map(|lp| d.expect_pair(lp.pair))
            .collect();
        for kind in ModelKind::all() {
            let (model, _) = train_model(kind, &d, &TrainConfig::for_kind(kind));
            let batch = model.score_batch(&pairs);
            assert_eq!(batch.len(), pairs.len());
            for ((u, v), s) in pairs.iter().zip(&batch) {
                assert_eq!(*s, model.score(u, v), "{kind:?} batch diverged");
            }
        }
    }

    #[test]
    fn from_parts_rebuilds_a_bit_identical_scorer() {
        let d = generate(DatasetId::AB, Scale::Smoke, 3);
        let kind = ModelKind::DeepMatcher;
        let (model, _) = train_model(kind, &d, &TrainConfig::for_kind(kind));
        let rebuilt = ErModel::from_parts(
            kind,
            model.featurizer().clone(),
            model.standardizer().clone(),
            certa_ml::Mlp::from_snapshot(model.net().snapshot()).unwrap(),
        );
        assert_eq!(rebuilt.kind(), kind);
        assert_eq!(rebuilt.name(), model.name());
        assert!(rebuilt.feature_memo().is_some(), "fresh memo attached");
        for lp in d.split(Split::Test) {
            let (u, v) = d.expect_pair(lp.pair);
            assert_eq!(
                rebuilt.score(u, v).to_bits(),
                model.score(u, v).to_bits(),
                "rebuilt model diverged on {:?}",
                lp.pair
            );
        }
    }

    #[test]
    fn fine_tuning_transfers_across_sibling_seeds() {
        let kind = ModelKind::DeepMatcher;
        let cfg = TrainConfig::for_kind(kind);
        let base_data = generate(DatasetId::FZ, Scale::Smoke, 7);
        let (base, _) = train_model(kind, &base_data, &cfg);

        // Same family, same schema family: transfer works, is
        // deterministic, and lands at competitive quality.
        let target = generate(DatasetId::FZ, Scale::Smoke, 8);
        let (tuned, report) = fine_tune_model(kind, &target, &base, &cfg).expect("same family");
        assert_eq!(tuned.kind(), kind);
        assert!(
            report.test_f1 > 0.5,
            "warm-started F1 {:.3} below chance",
            report.test_f1
        );
        let (tuned2, report2) = fine_tune_model(kind, &target, &base, &cfg).unwrap();
        assert_eq!(report.test_f1, report2.test_f1, "fine-tuning deterministic");
        let (u, v) = target.expect_pair(target.split(Split::Test)[0].pair);
        assert_eq!(tuned.score(u, v).to_bits(), tuned2.score(u, v).to_bits());

        // Wrong family is a structural miss, not a crash.
        assert!(fine_tune_model(ModelKind::Ditto, &target, &base, &cfg).is_none());
    }

    #[test]
    fn model_kind_is_exposed() {
        let d = generate(DatasetId::AB, Scale::Smoke, 1);
        let (m, _) = train_model(
            ModelKind::DeepEr,
            &d,
            &TrainConfig::for_kind(ModelKind::DeepEr),
        );
        assert_eq!(m.kind(), ModelKind::DeepEr);
        assert_eq!(m.name(), "deeper-sim");
    }
}
