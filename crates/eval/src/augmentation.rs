//! Data-augmentation experiments (Tables 8–10, §5.7).
//!
//! Table 8 measures how many of the requested τ = 100 open triangles the
//! tables can supply *without* augmentation (BA and FZ are the scarce ones —
//! tiny sources, few boundary-crossing records). Tables 9–10 measure how the
//! saliency and counterfactual metrics move when CERTA is forced to use
//! *only* augmented triangles, relative to the default configuration.

use crate::cf_metrics::cf_metrics_for;
use crate::confidence::confidence_indication;
use crate::faithfulness::faithfulness_auc;
use certa_core::{Dataset, LabeledPair, Matcher};
use certa_explain::{find_triangles, Certa, CertaConfig};

/// Average number of *natural* open triangles found per explained pair when
/// augmentation is disabled (Table 8; target is `cfg.num_triangles`).
pub fn natural_triangle_supply(
    matcher: &dyn Matcher,
    dataset: &Dataset,
    pairs: &[LabeledPair],
    cfg: &CertaConfig,
) -> f64 {
    assert!(!pairs.is_empty());
    let no_aug = CertaConfig {
        use_augmentation: false,
        augmentation_only: false,
        ..*cfg
    };
    let mut total = 0usize;
    for lp in pairs {
        let (u, v) = dataset.expect_pair(lp.pair);
        let y = matcher.predict(u, v);
        let (_, stats) = find_triangles(matcher, dataset, u, v, y, &no_aug);
        total += stats.natural;
    }
    total as f64 / pairs.len() as f64
}

/// Metric deltas when forcing augmentation-only triangles (Tables 9–10):
/// `value(augmented-only) − value(default)`. Positive proximity / sparsity /
/// diversity deltas mean augmentation helped; faithfulness and CI are
/// lower-is-better, so *negative* deltas are improvements there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AugmentationEffect {
    /// Δ proximity.
    pub proximity: f64,
    /// Δ sparsity.
    pub sparsity: f64,
    /// Δ diversity.
    pub diversity: f64,
    /// Δ faithfulness AUC.
    pub faithfulness: f64,
    /// Δ confidence-indication MAE.
    pub confidence: f64,
}

/// Explain `pairs` once under each of the two configurations (default vs
/// augmentation-only) and report the metric deltas; every metric of one
/// configuration reads the same explanations.
pub fn augmentation_effect(
    matcher: &dyn Matcher,
    dataset: &Dataset,
    pairs: &[LabeledPair],
    cfg: &CertaConfig,
) -> AugmentationEffect {
    let forced_cfg = CertaConfig {
        augmentation_only: true,
        use_augmentation: true,
        ..*cfg
    };

    let run = |c: CertaConfig| {
        let (saliencies, counterfactuals): (Vec<_>, Vec<_>) = Certa::new(c)
            .explain_labeled(matcher, dataset, pairs)
            .into_iter()
            .map(|e| (e.saliency, e.counterfactual))
            .unzip();
        (
            cf_metrics_for(dataset, &counterfactuals, pairs),
            faithfulness_auc(matcher, dataset, &saliencies, pairs),
            confidence_indication(matcher, dataset, &saliencies, pairs),
        )
    };
    let (cf_d, faith_d, ci_d) = run(*cfg);
    let (cf_f, faith_f, ci_f) = run(forced_cfg);

    AugmentationEffect {
        proximity: cf_f.proximity - cf_d.proximity,
        sparsity: cf_f.sparsity - cf_d.sparsity,
        diversity: cf_f.diversity - cf_d.diversity,
        faithfulness: faith_f - faith_d,
        confidence: ci_f - ci_d,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::Split;
    use certa_datagen::{generate, DatasetId, Scale};
    use certa_models::{trainer::sample_pairs, RuleMatcher};
    use std::sync::Arc;

    fn setup() -> (Dataset, Arc<dyn Matcher>, Vec<LabeledPair>) {
        let d = generate(DatasetId::FZ, Scale::Smoke, 5);
        let m: Arc<dyn Matcher> = Arc::new(RuleMatcher::uniform(6).with_threshold(0.6));
        let pairs = sample_pairs(&d, Split::Test, 2, 9);
        (d, m, pairs)
    }

    #[test]
    fn natural_supply_is_bounded_by_tau() {
        let (d, m, pairs) = setup();
        let cfg = CertaConfig {
            num_triangles: 20,
            ..Default::default()
        };
        let supply = natural_triangle_supply(m.as_ref(), &d, &pairs, &cfg);
        assert!(supply >= 0.0);
        assert!(supply <= 20.0, "cannot exceed the requested τ: {supply}");
    }

    #[test]
    fn augmentation_effect_produces_finite_deltas() {
        let (d, m, pairs) = setup();
        let cfg = CertaConfig {
            num_triangles: 10,
            ..Default::default()
        };
        let eff = augmentation_effect(m.as_ref(), &d, &pairs, &cfg);
        for v in [
            eff.proximity,
            eff.sparsity,
            eff.diversity,
            eff.faithfulness,
            eff.confidence,
        ] {
            assert!(v.is_finite());
            assert!(v.abs() <= 1.0 + 1e-9, "deltas of [0,1] metrics: {eff:?}");
        }
    }
}
