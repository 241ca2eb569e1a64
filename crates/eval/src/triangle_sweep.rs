//! The Figure 11 sweep: how CERTA's probabilities and all quality metrics
//! move as the triangle budget τ grows.
//!
//! §5.5 runs WA, AB, DDA and IA across all three classifiers and reports,
//! per τ: mean probability of sufficiency (a), mean probability of necessity
//! (b), confidence indication (c), faithfulness (d), proximity (e),
//! sparsity (f) and diversity (g). All metrics stabilize beyond τ ≈ 75–80.

use crate::cf_metrics::cf_metrics_for;
use crate::confidence::confidence_indication;
use crate::faithfulness::faithfulness_auc;
use certa_core::{Dataset, LabeledPair, Matcher};
use certa_explain::{Certa, CertaConfig};

/// One point of the Figure 11 series (all seven panels at one τ).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Triangle budget.
    pub tau: usize,
    /// Figure 11(a): mean probability of sufficiency.
    pub sufficiency: f64,
    /// Figure 11(b): mean probability of necessity.
    pub necessity: f64,
    /// Figure 11(c): confidence indication MAE.
    pub confidence: f64,
    /// Figure 11(d): faithfulness AUC.
    pub faithfulness: f64,
    /// Figure 11(e): counterfactual proximity.
    pub proximity: f64,
    /// Figure 11(f): counterfactual sparsity.
    pub sparsity: f64,
    /// Figure 11(g): counterfactual diversity.
    pub diversity: f64,
}

/// Run CERTA at one τ over `pairs` and aggregate all seven panel metrics.
/// Explanations come from [`Certa::explain_labeled`] (the parallel batch
/// engine), once per pair; every panel reads the same explanations.
pub fn sweep_point(
    matcher: &dyn Matcher,
    dataset: &Dataset,
    pairs: &[LabeledPair],
    base: &CertaConfig,
    tau: usize,
) -> SweepPoint {
    assert!(!pairs.is_empty());
    let certa = Certa::new(base.with_triangles(tau));
    let explanations = certa.explain_labeled(matcher, dataset, pairs);
    let n = pairs.len() as f64;
    let sufficiency = explanations.iter().map(|e| e.mean_sufficiency).sum::<f64>() / n;
    let necessity = explanations.iter().map(|e| e.mean_necessity).sum::<f64>() / n;
    let (saliencies, counterfactuals): (Vec<_>, Vec<_>) = explanations
        .into_iter()
        .map(|e| (e.saliency, e.counterfactual))
        .unzip();
    let cf = cf_metrics_for(dataset, &counterfactuals, pairs);
    SweepPoint {
        tau,
        sufficiency,
        necessity,
        confidence: confidence_indication(matcher, dataset, &saliencies, pairs),
        faithfulness: faithfulness_auc(matcher, dataset, &saliencies, pairs),
        proximity: cf.proximity,
        sparsity: cf.sparsity,
        diversity: cf.diversity,
    }
}

/// Sweep a τ grid.
pub fn sweep(
    matcher: &dyn Matcher,
    dataset: &Dataset,
    pairs: &[LabeledPair],
    base: &CertaConfig,
    taus: &[usize],
) -> Vec<SweepPoint> {
    taus.iter()
        .map(|&tau| sweep_point(matcher, dataset, pairs, base, tau))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::Split;
    use certa_datagen::{generate, DatasetId, Scale};
    use certa_models::{trainer::sample_pairs, RuleMatcher};

    #[test]
    fn sweep_produces_bounded_series() {
        let d = generate(DatasetId::AB, Scale::Smoke, 4);
        let m = RuleMatcher::uniform(3).with_threshold(0.55);
        let pairs = sample_pairs(&d, Split::Test, 3, 1);
        let base = CertaConfig {
            use_augmentation: true,
            ..Default::default()
        };
        let points = sweep(&m, &d, &pairs, &base, &[4, 12]);
        assert_eq!(points.len(), 2);
        for p in &points {
            for v in [
                p.sufficiency,
                p.necessity,
                p.confidence,
                p.faithfulness,
                p.proximity,
                p.sparsity,
                p.diversity,
            ] {
                assert!((0.0..=1.0 + 1e-9).contains(&v), "{p:?}");
            }
        }
        assert_eq!(points[0].tau, 4);
        assert_eq!(points[1].tau, 12);
    }

    #[test]
    fn larger_tau_changes_estimates_smoothly() {
        let d = generate(DatasetId::FZ, Scale::Smoke, 2);
        let m = RuleMatcher::uniform(6).with_threshold(0.6);
        let pairs = sample_pairs(&d, Split::Test, 2, 5);
        let base = CertaConfig::default();
        let points = sweep(&m, &d, &pairs, &base, &[2, 30]);
        // No hard guarantee of monotonicity, but both must be valid numbers
        // and the larger budget must have explored at least as much.
        assert!(points[1].tau > points[0].tau);
        assert!(points.iter().all(|p| p.faithfulness.is_finite()));
    }
}
