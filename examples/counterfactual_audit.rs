//! Counterfactual audit: compare all four counterfactual methods on the
//! same predictions — who actually flips the model, how close the edits
//! stay, and how many options each method offers (Tables 4–6 / Figure 10 in
//! miniature).
//!
//! ```text
//! cargo run --release --example counterfactual_audit
//! ```

use certa_repro::baselines::CfMethod;
use certa_repro::core::Split;
use certa_repro::datagen::{generate, DatasetId, Scale};
use certa_repro::eval::cf_metrics::cf_metrics_for;
use certa_repro::explain::CertaConfig;
use certa_repro::models::{train_model, ModelKind, TrainConfig};

fn main() {
    let dataset = generate(DatasetId::BA, Scale::Smoke, 21);
    let (matcher, report) = train_model(
        ModelKind::Ditto,
        &dataset,
        &TrainConfig::for_kind(ModelKind::Ditto),
    );
    println!("ditto-sim on BA: test F1 {:.2}\n", report.test_f1);

    let pairs: Vec<_> = dataset.split(Split::Test).iter().take(4).copied().collect();
    let certa_cfg = CertaConfig::default().with_triangles(40);

    for lp in &pairs {
        let (u, v) = dataset.expect_pair(lp.pair);
        let pred = certa_repro::core::Matcher::prediction(&&matcher, u, v);
        println!(
            "pair {} — predicted {} ({:.2}), truth {}",
            lp.pair, pred.label, pred.score, lp.label
        );
        for method in CfMethod::all() {
            let explainer = method.build(certa_cfg, 11);
            let cf = explainer.explain_counterfactual(&matcher, &dataset, u, v);
            if cf.examples.is_empty() {
                println!("  {:<7} found nothing", method.paper_name());
                continue;
            }
            let valid = cf
                .examples
                .iter()
                .filter(|e| (e.score > 0.5) != pred.is_match())
                .count();
            let n = cf.examples.len();
            let metrics = cf_metrics_for(&dataset, &[cf], &[*lp]);
            println!(
                "  {:<7} {} examples ({} valid flips)  proximity {:.2}  sparsity {:.2}  diversity {:.2}",
                method.paper_name(),
                n,
                valid,
                metrics.proximity,
                metrics.sparsity,
                metrics.diversity,
            );
        }
        println!();
    }

    println!("note: SEDC-style methods (LIME-C / SHAP-C) can only *remove* evidence, so they");
    println!("often fail to flip non-match predictions — the paper's Figure 10 effect.");
}
