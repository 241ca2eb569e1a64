//! Ablation study of CERTA's design choices — beyond the
//! paper's own ablations (τ in Figure 11, monotonicity in Table 7,
//! augmentation in Tables 8–10), this isolates each switch on one dataset
//! and reports both *cost* (model calls per explanation) and *quality*
//! (faithfulness, CF proximity/count):
//!
//! * monotone lattice inference: on / off;
//! * §3.3 data augmentation: on / off / only;
//! * candidate cap during triangle search: 50 / 500 / unlimited;
//! * counterfactual example cap: 1 / 10 / unlimited.

use certa_bench::{banner, CliOptions};
use certa_core::BoxedMatcher;
use certa_datagen::DatasetId;
use certa_eval::cf_metrics::cf_metrics_for;
use certa_eval::faithfulness::faithfulness_auc;
use certa_eval::grid::{GridConfig, PreparedDataset};
use certa_eval::TableBuilder;
use certa_explain::{Certa, CertaConfig};
use certa_models::{CountingMatcher, ModelKind};

struct Variant {
    name: &'static str,
    cfg: CertaConfig,
}

fn variants(base: CertaConfig) -> Vec<Variant> {
    vec![
        Variant {
            name: "default",
            cfg: base,
        },
        Variant {
            name: "exhaustive lattice",
            cfg: CertaConfig {
                monotone: false,
                ..base
            },
        },
        Variant {
            name: "no augmentation",
            cfg: CertaConfig {
                use_augmentation: false,
                ..base
            },
        },
        Variant {
            name: "augmentation only",
            cfg: CertaConfig {
                augmentation_only: true,
                ..base
            },
        },
        Variant {
            name: "candidates<=50",
            cfg: CertaConfig {
                max_candidates: 50,
                ..base
            },
        },
        Variant {
            name: "candidates<=500",
            cfg: CertaConfig {
                max_candidates: 500,
                ..base
            },
        },
        Variant {
            name: "1 example",
            cfg: CertaConfig {
                max_examples: 1,
                ..base
            },
        },
        Variant {
            name: "unlimited examples",
            cfg: CertaConfig {
                max_examples: usize::MAX,
                ..base
            },
        },
    ]
}

fn main() {
    let opts = CliOptions::from_env();
    banner(
        "Ablation — CERTA design choices (DeepMatcher-sim on AB)",
        &opts,
    );
    let mut grid: GridConfig = opts.grid();
    grid.datasets = vec![DatasetId::AB];
    if opts.tau.is_none() {
        grid.tau = 50; // keep the exhaustive-lattice variant affordable
    }
    let p = PreparedDataset::build(DatasetId::AB, &grid);
    // Count raw model invocations per variant (no shared cache here: the
    // point is the cost comparison).
    let raw = p.zoo.matcher(ModelKind::DeepMatcher);

    let mut table = TableBuilder::new(format!(
        "τ = {}, {} explained pairs; calls = model invocations per explanation",
        grid.tau,
        p.explained.len()
    ))
    .header([
        "Variant",
        "Calls/expl",
        "Faithfulness",
        "CF proximity",
        "CF count",
    ]);

    for v in variants(grid.certa_config().with_triangles(grid.tau)) {
        let counting = CountingMatcher::new(raw.clone());
        let matcher: BoxedMatcher = counting.clone();
        // Explain the pairs once and count the calls before the metrics
        // re-score anything.
        counting.reset();
        let explanations = Certa::new(v.cfg).explain_labeled(&matcher, &p.dataset, &p.explained);
        let calls = counting.count() as f64 / p.explained.len() as f64;
        let (saliencies, counterfactuals): (Vec<_>, Vec<_>) = explanations
            .into_iter()
            .map(|e| (e.saliency, e.counterfactual))
            .unzip();
        let faith = faithfulness_auc(&matcher, &p.dataset, &saliencies, &p.explained);
        let cf = cf_metrics_for(&p.dataset, &counterfactuals, &p.explained);
        table.row([
            v.name.to_string(),
            format!("{calls:.0}"),
            format!("{faith:.3}"),
            format!("{:.3}", cf.proximity),
            format!("{:.2}", cf.count),
        ]);
        eprintln!("  {} done", v.name);
    }
    println!("{}", table.render());
    println!("notes:");
    println!("- 'exhaustive lattice' shows the cost of dropping the §4 monotonicity shortcut;");
    println!("- 'augmentation only' is the Tables 9-10 condition;");
    println!("- candidate caps trade triangle recall for search cost on big tables;");
    println!("- the example cap trades Figure 10 counts for Table 4 proximity.");
}
