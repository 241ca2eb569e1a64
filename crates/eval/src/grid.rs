//! The (dataset × model × method) experiment driver shared by all table
//! binaries.

use certa_baselines::{CfMethod, SaliencyMethod};
use certa_core::{BoxedMatcher, Dataset, LabeledPair, Split};
use certa_datagen::{generate, DatasetId, Scale};
use certa_explain::CertaConfig;
use certa_models::{train_zoo, trainer::sample_pairs, CachingMatcher, ModelKind, TrainedZoo};

use crate::cf_metrics::{cf_metrics_for, CfAggregate};

/// Global experiment parameters.
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Dataset scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Test pairs explained per (dataset, model).
    pub n_explained: usize,
    /// CERTA triangle budget τ.
    pub tau: usize,
    /// Datasets included (defaults to all twelve).
    pub datasets: Vec<DatasetId>,
    /// Models included (defaults to all three).
    pub models: Vec<ModelKind>,
    /// Worker threads for the batch explanation engine (`0` = one per
    /// core). Never changes results — only wall-clock time.
    pub workers: usize,
}

impl GridConfig {
    /// Sensible defaults per scale: `Smoke` for CI-speed runs, `Default`
    /// for a full reproduction of the tables, `Paper` for the closest approach to
    /// the paper's setup (τ = 100 everywhere, per §5.3).
    pub fn for_scale(scale: Scale) -> Self {
        let n_explained = match scale {
            Scale::Smoke => 4,
            Scale::Default => 12,
            // Xl is the blocking/candidate-generation scale; the
            // explanation grid itself is not meant to grow past Paper.
            Scale::Paper | Scale::Xl => 30,
        };
        GridConfig {
            scale,
            seed: 7,
            n_explained,
            tau: 100,
            datasets: DatasetId::all().to_vec(),
            models: ModelKind::all().to_vec(),
            workers: 0,
        }
    }

    /// CERTA configuration induced by this grid.
    pub fn certa_config(&self) -> CertaConfig {
        CertaConfig::default()
            .with_triangles(self.tau)
            .with_seed(self.seed)
            .with_workers(self.workers)
    }
}

/// One dataset generated, its model zoo trained, and the explained test
/// pairs sampled.
pub struct PreparedDataset {
    /// Which benchmark this is.
    pub id: DatasetId,
    /// The generated dataset.
    pub dataset: Dataset,
    /// The three trained matchers.
    pub zoo: TrainedZoo,
    /// The sampled test pairs every method explains.
    pub explained: Vec<LabeledPair>,
    /// One shared score cache per model, so every experiment in a process
    /// reuses earlier perturbation scores (explainers re-probe the same
    /// perturbed pairs heavily across tables).
    caches: Vec<(ModelKind, std::sync::Arc<CachingMatcher>)>,
}

impl PreparedDataset {
    /// Build one dataset + zoo + sample.
    pub fn build(id: DatasetId, cfg: &GridConfig) -> PreparedDataset {
        let dataset = generate(id, cfg.scale, cfg.seed);
        let zoo = train_zoo(&dataset);
        let explained = sample_pairs(&dataset, Split::Test, cfg.n_explained, cfg.seed ^ 0xE11A);
        let caches = ModelKind::all()
            .into_iter()
            .map(|k| (k, CachingMatcher::new(zoo.matcher(k))))
            .collect();
        PreparedDataset {
            id,
            dataset,
            zoo,
            explained,
            caches,
        }
    }

    /// The cached matcher for one model family (content-addressed score
    /// cache — perturbation workloads repeat pairs heavily). The cache is
    /// shared across every call for the same kind.
    pub fn cached_matcher(&self, kind: ModelKind) -> BoxedMatcher {
        let cache = &self
            .caches
            .iter()
            .find(|(k, _)| *k == kind)
            .expect("all model kinds cached")
            .1;
        std::sync::Arc::clone(cache) as BoxedMatcher
    }
}

/// Prepare all configured datasets, parallelized with scoped threads.
pub fn prepare(cfg: &GridConfig) -> Vec<PreparedDataset> {
    let mut out: Vec<Option<PreparedDataset>> = cfg.datasets.iter().map(|_| None).collect();
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    let chunk = cfg.datasets.len().div_ceil(workers.max(1)).max(1);
    std::thread::scope(|s| {
        for (ids, outs) in cfg.datasets.chunks(chunk).zip(out.chunks_mut(chunk)) {
            s.spawn(move || {
                for (id, slot) in ids.iter().zip(outs.iter_mut()) {
                    *slot = Some(PreparedDataset::build(*id, cfg));
                }
            });
        }
    });
    out.into_iter()
        .map(|o| o.expect("all slots filled"))
        .collect()
}

/// One cell of a saliency table (Tables 2–3).
#[derive(Debug, Clone, Copy)]
pub struct SaliencyCell {
    /// Row dataset.
    pub dataset: DatasetId,
    /// Model block.
    pub model: ModelKind,
    /// Method column.
    pub method: SaliencyMethod,
    /// Metric value.
    pub value: f64,
}

/// One cell of a counterfactual table (Tables 4–6, Figure 10).
#[derive(Debug, Clone, Copy)]
pub struct CfCell {
    /// Row dataset.
    pub dataset: DatasetId,
    /// Model block.
    pub model: ModelKind,
    /// Method column.
    pub method: CfMethod,
    /// All counterfactual metrics at once.
    pub value: CfAggregate,
}

/// Per-cell explainer worker budget. An explicit `GridConfig::workers`
/// (the `--workers` flag) wins; otherwise the cores are divided across the
/// datasets running in parallel — the grid already runs one thread per
/// dataset, so nesting full `available_parallelism` under that fan-out
/// would oversubscribe the CPU with no extra throughput.
fn cell_workers(cfg: &GridConfig, datasets: usize) -> usize {
    if cfg.workers > 0 {
        return cfg.workers;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (cores / datasets.max(1)).max(1)
}

/// Evaluate a saliency metric over the full grid.
///
/// `metric` receives `(matcher, dataset, explainer, pairs)` and returns the
/// scalar for one cell. Runs datasets in parallel; within a cell, the
/// metrics route explanations through the explainer's *batch* entry point
/// (`explain_saliency_batch`), so CERTA's work-stealing engine and the
/// sharded score cache are exercised by every table binary. The batch
/// engine's worker count is divided by the dataset fan-out ([`cell_workers`])
/// so the two parallelism levels share the machine instead of multiplying.
pub fn run_saliency_grid<F>(
    prepared: &[PreparedDataset],
    cfg: &GridConfig,
    methods: &[SaliencyMethod],
    metric: F,
) -> Vec<SaliencyCell>
where
    F: Fn(
            &dyn certa_core::Matcher,
            &Dataset,
            &dyn certa_explain::SaliencyExplainer,
            &[LabeledPair],
        ) -> f64
        + Sync,
{
    let metric = &metric;
    let workers = cell_workers(cfg, prepared.len());
    let mut all: Vec<Vec<SaliencyCell>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = prepared
            .iter()
            .map(|p| {
                let cfg = cfg.clone();
                let methods = methods.to_vec();
                s.spawn(move || {
                    let mut cells = Vec::new();
                    for &model in &cfg.models {
                        let matcher = p.cached_matcher(model);
                        for &method in &methods {
                            let explainer =
                                method.build(cfg.certa_config().with_workers(workers), cfg.seed);
                            let value =
                                metric(&matcher, &p.dataset, explainer.as_ref(), &p.explained);
                            cells.push(SaliencyCell {
                                dataset: p.id,
                                model,
                                method,
                                value,
                            });
                        }
                    }
                    cells
                })
            })
            .collect();
        for h in handles {
            all.push(h.join().expect("grid worker must not panic"));
        }
    });
    all.into_iter().flatten().collect()
}

/// Evaluate all counterfactual metrics over the full grid (same
/// parallelism-sharing scheme as [`run_saliency_grid`]).
pub fn run_cf_grid(
    prepared: &[PreparedDataset],
    cfg: &GridConfig,
    methods: &[CfMethod],
) -> Vec<CfCell> {
    let workers = cell_workers(cfg, prepared.len());
    let mut all: Vec<Vec<CfCell>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = prepared
            .iter()
            .map(|p| {
                let cfg = cfg.clone();
                let methods = methods.to_vec();
                s.spawn(move || {
                    let mut cells = Vec::new();
                    for &model in &cfg.models {
                        let matcher = p.cached_matcher(model);
                        for &method in &methods {
                            let explainer =
                                method.build(cfg.certa_config().with_workers(workers), cfg.seed);
                            let value = cf_metrics_for(
                                &matcher,
                                &p.dataset,
                                explainer.as_ref(),
                                &p.explained,
                            );
                            cells.push(CfCell {
                                dataset: p.id,
                                model,
                                method,
                                value,
                            });
                        }
                    }
                    cells
                })
            })
            .collect();
        for h in handles {
            all.push(h.join().expect("grid worker must not panic"));
        }
    });
    all.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faithfulness::faithfulness_auc;

    #[test]
    fn explicit_workers_override_the_core_split() {
        let mut cfg = GridConfig::for_scale(Scale::Smoke);
        assert!(cell_workers(&cfg, 4) >= 1);
        cfg.workers = 3;
        assert_eq!(cell_workers(&cfg, 4), 3);
        assert_eq!(cfg.certa_config().workers, 3);
    }

    #[test]
    fn prepare_with_no_datasets_is_empty_not_a_panic() {
        let mut cfg = GridConfig::for_scale(Scale::Smoke);
        cfg.datasets.clear();
        assert!(prepare(&cfg).is_empty());
    }

    fn tiny_cfg() -> GridConfig {
        GridConfig {
            scale: Scale::Smoke,
            seed: 3,
            n_explained: 2,
            tau: 8,
            datasets: vec![DatasetId::FZ],
            models: vec![ModelKind::DeepMatcher],
            workers: 0,
        }
    }

    #[test]
    fn prepare_builds_requested_datasets() {
        let cfg = tiny_cfg();
        let prepared = prepare(&cfg);
        assert_eq!(prepared.len(), 1);
        assert_eq!(prepared[0].id, DatasetId::FZ);
        assert_eq!(prepared[0].explained.len(), 2);
        assert!(!prepared[0].dataset.left().is_empty());
    }

    #[test]
    fn saliency_grid_produces_all_cells() {
        let cfg = tiny_cfg();
        let prepared = prepare(&cfg);
        let methods = [SaliencyMethod::Certa, SaliencyMethod::Shap];
        let cells = run_saliency_grid(&prepared, &cfg, &methods, |m, d, e, p| {
            faithfulness_auc(m, d, e, p)
        });
        assert_eq!(cells.len(), 2);
        for c in &cells {
            assert!(c.value.is_finite());
            assert!((0.0..=1.0).contains(&c.value), "{c:?}");
        }
        let methods_seen: Vec<SaliencyMethod> = cells.iter().map(|c| c.method).collect();
        assert!(methods_seen.contains(&SaliencyMethod::Certa));
        assert!(methods_seen.contains(&SaliencyMethod::Shap));
    }

    #[test]
    fn cf_grid_produces_all_cells() {
        let cfg = tiny_cfg();
        let prepared = prepare(&cfg);
        let methods = [CfMethod::Certa, CfMethod::LimeC];
        let cells = run_cf_grid(&prepared, &cfg, &methods);
        assert_eq!(cells.len(), 2);
        for c in &cells {
            assert!((0.0..=1.0).contains(&c.value.proximity), "{c:?}");
            assert!((0.0..=1.0).contains(&c.value.sparsity));
            assert!(c.value.count >= 0.0);
            assert_eq!(c.value.pairs, 2);
        }
    }

    #[test]
    fn cell_worker_budget_is_positive_and_bounded() {
        let auto = GridConfig::for_scale(Scale::Smoke);
        assert!(cell_workers(&auto, 1) >= 1);
        assert_eq!(
            cell_workers(&auto, usize::MAX),
            1,
            "huge fan-out degrades to 1"
        );
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert!(cell_workers(&auto, 1) <= cores);
    }

    #[test]
    fn grid_config_scales() {
        let smoke = GridConfig::for_scale(Scale::Smoke);
        let paper = GridConfig::for_scale(Scale::Paper);
        assert!(smoke.n_explained < paper.n_explained);
        assert_eq!(smoke.tau, 100);
        assert_eq!(smoke.datasets.len(), 12);
        assert_eq!(smoke.models.len(), 3);
        assert_eq!(smoke.certa_config().num_triangles, 100);
    }
}
