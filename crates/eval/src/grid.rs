//! The (dataset × model × method) experiment driver shared by all table
//! binaries.
//!
//! [`prepare`] builds each dataset once: generation, the model zoo and the
//! sampled test pairs. [`run_saliency_grid`] and [`run_cf_grid`] then run
//! one [`run_indexed`] pool of [`GridConfig::workers`] threads over every
//! (dataset, model, method) cell. A cell builds its method, explains each
//! sampled pair once with the per-pair method, and hands those
//! explanations to every metric of its tables; no metric explains
//! anything itself. Cells come back in (dataset, model, method) order, so
//! no table depends on the worker count.

use certa_baselines::{CfMethod, SaliencyMethod};
use certa_core::{run_indexed, BoxedMatcher, Dataset, LabeledPair, Matcher, Record, Split};
use certa_datagen::{generate, DatasetId, Scale};
use certa_explain::CertaConfig;
use certa_models::{train_zoo, trainer::sample_pairs, CachingMatcher, ModelKind, TrainedZoo};

use crate::cf_metrics::{cf_metrics_for, CfAggregate};
use crate::confidence::confidence_indication;
use crate::faithfulness::faithfulness_auc;

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
    /// Worker threads (`0` = one per core) for the grid's pool over
    /// (dataset, model, method) cells and for CERTA's pair pool
    /// ([`CertaConfig::workers`]) where a runner explains a whole sample
    /// with one configuration. Never changes results — only wall-clock
    /// time.
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

/// Prepare all configured datasets, one [`run_indexed`] task per dataset
/// over one worker per available core.
pub fn prepare(cfg: &GridConfig) -> Vec<PreparedDataset> {
    run_indexed(cfg.datasets.len(), 0, |i| {
        PreparedDataset::build(cfg.datasets[i], cfg)
    })
}

/// One cell of the method grid: a (dataset, model, method) triple and
/// the metrics of the method's explanations of that dataset's sample.
#[derive(Debug, Clone, Copy)]
pub struct Cell<M, V> {
    /// Row dataset.
    pub dataset: DatasetId,
    /// Model block.
    pub model: ModelKind,
    /// Method column.
    pub method: M,
    /// Every metric of the cell at once.
    pub value: V,
}

/// The saliency metrics of one grid cell (Tables 2–3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaliencyAggregate {
    /// Table 2: faithfulness AUC (lower = better).
    pub faithfulness: f64,
    /// Table 3: confidence-indication MAE (lower = better).
    pub confidence: f64,
}

/// One cell of a saliency table (Tables 2–3).
pub type SaliencyCell = Cell<SaliencyMethod, SaliencyAggregate>;

/// One cell of a counterfactual table (Tables 4–6, Figure 10).
pub type CfCell = Cell<CfMethod, CfAggregate>;

/// The grid loop shared by [`run_saliency_grid`] and [`run_cf_grid`]: one
/// [`run_indexed`] pool of `cfg.workers` threads over every (dataset,
/// model, method) cell. `value` receives the dataset, its cached matcher
/// for the model and the method; cells come back in (dataset, model,
/// method) order whatever the worker count.
fn run_grid<M: Copy + Send + Sync, V: Send + Sync>(
    prepared: &[PreparedDataset],
    cfg: &GridConfig,
    methods: &[M],
    value: impl Fn(&PreparedDataset, &dyn Matcher, M) -> V + Sync,
) -> Vec<Cell<M, V>> {
    let per_model = methods.len();
    let per_dataset = cfg.models.len() * per_model;
    run_indexed(prepared.len() * per_dataset, cfg.workers, |i| {
        let p = &prepared[i / per_dataset];
        let model = cfg.models[i % per_dataset / per_model];
        let method = methods[i % per_model];
        Cell {
            dataset: p.id,
            model,
            method,
            value: value(p, p.cached_matcher(model).as_ref(), method),
        }
    })
}

/// Explain every sampled pair of `p` with the per-pair method `explain`.
fn explain_sample<E>(p: &PreparedDataset, explain: impl Fn(&Record, &Record) -> E) -> Vec<E> {
    p.explained
        .iter()
        .map(|lp| {
            let (u, v) = p.dataset.expect_pair(lp.pair);
            explain(u, v)
        })
        .collect()
}

/// Both saliency metrics over the full grid: each cell explains its
/// sample once, and faithfulness and confidence indication read the same
/// explanations.
pub fn run_saliency_grid(
    prepared: &[PreparedDataset],
    cfg: &GridConfig,
    methods: &[SaliencyMethod],
) -> Vec<SaliencyCell> {
    run_grid(prepared, cfg, methods, |p, matcher, method| {
        let explainer = method.build(cfg.certa_config(), cfg.seed);
        let explanations = explain_sample(p, |u, v| {
            explainer.explain_saliency(matcher, &p.dataset, u, v)
        });
        SaliencyAggregate {
            faithfulness: faithfulness_auc(matcher, &p.dataset, &explanations, &p.explained),
            confidence: confidence_indication(matcher, &p.dataset, &explanations, &p.explained),
        }
    })
}

/// Every counterfactual metric over the full grid: each cell explains its
/// sample once.
pub fn run_cf_grid(
    prepared: &[PreparedDataset],
    cfg: &GridConfig,
    methods: &[CfMethod],
) -> Vec<CfCell> {
    run_grid(prepared, cfg, methods, |p, matcher, method| {
        let explainer = method.build(cfg.certa_config(), cfg.seed);
        let explanations = explain_sample(p, |u, v| {
            explainer.explain_counterfactual(matcher, &p.dataset, u, v)
        });
        cf_metrics_for(&p.dataset, &explanations, &p.explained)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let cells = run_saliency_grid(&prepared, &cfg, &methods);
        assert_eq!(cells.len(), 2);
        for c in &cells {
            assert!((0.0..=1.0).contains(&c.value.faithfulness), "{c:?}");
            assert!((0.0..=1.0).contains(&c.value.confidence), "{c:?}");
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
    fn grid_cells_do_not_depend_on_the_worker_count() {
        let mut cfg = tiny_cfg();
        cfg.datasets = vec![DatasetId::FZ, DatasetId::IA];
        cfg.n_explained = 4;
        let prepared = prepare(&cfg);
        let at = |workers: usize| GridConfig {
            workers,
            ..cfg.clone()
        };
        let saliency = |workers: usize| {
            let cells = run_saliency_grid(
                &prepared,
                &at(workers),
                &[SaliencyMethod::Certa, SaliencyMethod::Shap],
            );
            format!("{cells:?}")
        };
        assert_eq!(saliency(1), saliency(3));
        let cf = |workers: usize| {
            let cells = run_cf_grid(&prepared, &at(workers), &[CfMethod::Certa, CfMethod::LimeC]);
            format!("{cells:?}")
        };
        assert_eq!(cf(1), cf(3));
        // One flat index covers every (dataset, model, method) cell once,
        // in that order, whatever the worker count.
        let mut want = Vec::new();
        for dataset in [DatasetId::FZ, DatasetId::IA] {
            for model in ModelKind::all() {
                for method in [0u8, 1, 2] {
                    want.push((dataset, model, method));
                }
            }
        }
        for workers in [1, 3] {
            let cfg = GridConfig {
                models: ModelKind::all().to_vec(),
                ..at(workers)
            };
            let cells = run_grid(&prepared, &cfg, &[0u8, 1, 2], |p, _, method| (p.id, method));
            let got: Vec<_> = cells
                .iter()
                .map(|c| {
                    assert_eq!(c.value, (c.dataset, c.method), "{workers} workers");
                    (c.dataset, c.model, c.method)
                })
                .collect();
            assert_eq!(got, want, "{workers} workers");
        }
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
