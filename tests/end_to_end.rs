//! Cross-crate integration: generate → train → explain → evaluate, at smoke
//! scale, with robust (non-flaky) assertions.

use certa_repro::baselines::{CfMethod, SaliencyMethod};
use certa_repro::core::{Matcher, Split};
use certa_repro::datagen::{generate, DatasetId, Scale};
use certa_repro::eval::cf_metrics::cf_metrics_for;
use certa_repro::eval::confidence::confidence_indication;
use certa_repro::eval::faithfulness::faithfulness_auc;
use certa_repro::explain::{Certa, CertaConfig};
use certa_repro::models::{train_zoo, trainer::sample_pairs, CachingMatcher, ModelKind};

#[test]
fn full_pipeline_on_fz() {
    let dataset = generate(DatasetId::FZ, Scale::Smoke, 17);
    let zoo = train_zoo(&dataset);
    let pairs = sample_pairs(&dataset, Split::Test, 3, 5);
    assert!(!pairs.is_empty());

    for (kind, matcher) in zoo.iter() {
        let cached = CachingMatcher::new(matcher);
        // Every saliency method produces a full, finite explanation.
        for method in SaliencyMethod::all() {
            let explainer = method.build(CertaConfig::default().with_triangles(16), 3);
            let (u, v) = dataset.expect_pair(pairs[0].pair);
            let phi = explainer.explain_saliency(&cached, &dataset, u, v);
            assert_eq!(phi.len(), 12, "{kind:?}/{method:?}: 6 attrs per side");
            assert!(phi.iter().all(|(_, s)| s.is_finite() && s >= 0.0));
        }
        // Metrics are bounded. CERTA explains the pairs once; every metric
        // reads the same explanations.
        let (saliencies, counterfactuals): (Vec<_>, Vec<_>) =
            Certa::new(CertaConfig::default().with_triangles(16))
                .explain_labeled(&cached, &dataset, &pairs)
                .into_iter()
                .map(|e| (e.saliency, e.counterfactual))
                .unzip();
        let auc = faithfulness_auc(&cached, &dataset, &saliencies, &pairs);
        assert!((0.0..=1.0).contains(&auc), "{kind:?} AUC {auc}");
        let ci = confidence_indication(&cached, &dataset, &saliencies, &pairs);
        assert!((0.0..=1.0).contains(&ci), "{kind:?} CI {ci}");
        let cf = cf_metrics_for(&dataset, &counterfactuals, &pairs);
        assert!((0.0..=1.0).contains(&cf.proximity));
        assert!((0.0..=1.0).contains(&cf.sparsity));
        assert!((0.0..=1.0 + 1e-9).contains(&cf.diversity));
        assert!(cf.count >= 0.0);
    }
}

#[test]
fn certa_counterfactuals_always_flip() {
    // Structural guarantee of the algorithm: every returned example was
    // verified to flip. Check it across datasets and models.
    for id in [DatasetId::AB, DatasetId::DA] {
        let dataset = generate(id, Scale::Smoke, 23);
        let zoo = train_zoo(&dataset);
        let pairs = sample_pairs(&dataset, Split::Test, 2, 2);
        let certa = Certa::new(CertaConfig::default().with_triangles(20));
        for (_, matcher) in zoo.iter() {
            let cached = CachingMatcher::new(matcher);
            for lp in &pairs {
                let (u, v) = dataset.expect_pair(lp.pair);
                let original = cached.prediction(u, v);
                let exp = certa.explain(&cached, &dataset, u, v);
                for ex in &exp.counterfactual.examples {
                    let flipped = certa_repro::core::MatchLabel::from_score(ex.score);
                    assert_ne!(flipped, original.label, "{id:?}: example did not flip");
                }
            }
        }
    }
}

#[test]
fn counterfactual_methods_respect_schema() {
    let dataset = generate(DatasetId::WA, Scale::Smoke, 31);
    let zoo = train_zoo(&dataset);
    let matcher = CachingMatcher::new(zoo.matcher(ModelKind::DeepMatcher));
    let pairs = sample_pairs(&dataset, Split::Test, 2, 7);
    for method in CfMethod::all() {
        let explainer = method.build(CertaConfig::default().with_triangles(12), 5);
        for lp in &pairs {
            let (u, v) = dataset.expect_pair(lp.pair);
            let cf = explainer.explain_counterfactual(&matcher, &dataset, u, v);
            for ex in &cf.examples {
                assert_eq!(ex.left.arity(), u.arity(), "{method:?}");
                assert_eq!(ex.right.arity(), v.arity());
                assert!(
                    !ex.changed.is_empty(),
                    "{method:?}: counterfactual must change something"
                );
                assert!((0.0..=1.0).contains(&ex.score));
            }
        }
    }
}

#[test]
fn prediction_caching_is_transparent() {
    // The cached matcher must agree with the raw matcher everywhere the
    // experiments touch it.
    let dataset = generate(DatasetId::AG, Scale::Smoke, 41);
    let zoo = train_zoo(&dataset);
    let raw = zoo.matcher(ModelKind::Ditto);
    let cached = CachingMatcher::new(zoo.matcher(ModelKind::Ditto));
    for lp in dataset.split(Split::Test) {
        let (u, v) = dataset.expect_pair(lp.pair);
        assert_eq!(raw.score(u, v), cached.score(u, v));
        assert_eq!(
            raw.score(u, v),
            cached.score(u, v),
            "second read hits the cache"
        );
    }
    assert!(cached.len() >= dataset.split(Split::Test).len().min(1));
}
