//! A complete entity-resolution pipeline on two raw tables:
//! blocking → matching → explanation.
//!
//! This is the "downstream adopter" workflow: you have two record sources,
//! you want the matches, and for anything surprising you want to know *why*.
//!
//! ```text
//! cargo run --release --example er_pipeline
//! ```

use certa_repro::core::blocking::TokenIndex;
use certa_repro::core::{Matcher, RecordPair, Split};
use certa_repro::datagen::{generate, DatasetId, Scale};
use certa_repro::explain::{Certa, CertaConfig};
use certa_repro::models::{train_model, ModelKind, TrainConfig};

fn main() {
    // Two product tables (synthetic Walmart-Amazon at smoke scale).
    let dataset = generate(DatasetId::WA, Scale::Smoke, 55);
    println!(
        "sources: {} ({} records) vs {} ({} records)",
        dataset.left().name(),
        dataset.left().len(),
        dataset.right().name(),
        dataset.right().len()
    );

    // 1. Blocking: an inverted token index proposes candidate pairs, so we
    //    never score the full cross product.
    let index = TokenIndex::build(dataset.right(), dataset.right().len() / 3 + 1);
    let mut candidates: Vec<RecordPair> = Vec::new();
    for u in dataset.left().records() {
        for (rid, _overlap) in index.candidates(u, 2, None).into_iter().take(3) {
            candidates.push(RecordPair::new(u.id(), rid));
        }
    }
    let cross = dataset.left().len() * dataset.right().len();
    println!(
        "blocking: {} candidate pairs (vs {} in the cross product, {:.1}% kept)\n",
        candidates.len(),
        cross,
        100.0 * candidates.len() as f64 / cross as f64
    );

    // 2. Matching: train a matcher on the labeled split, score candidates.
    let (matcher, report) = train_model(
        ModelKind::Ditto,
        &dataset,
        &TrainConfig::for_kind(ModelKind::Ditto),
    );
    println!("matcher {} (test F1 {:.2})", matcher.name(), report.test_f1);
    let mut matched: Vec<(RecordPair, f64)> = candidates
        .iter()
        .filter_map(|&pair| {
            let (u, v) = dataset.expect_pair(pair);
            let s = matcher.score(u, v);
            (s > 0.5).then_some((pair, s))
        })
        .collect();
    matched.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("matching: {} pairs declared matches", matched.len());

    // 3. Explanation: take the *least confident* match and ask CERTA why
    //    the model accepted it.
    let Some(&(pair, score)) = matched.last() else {
        println!("no matches found — nothing to explain");
        return;
    };
    let (u, v) = dataset.expect_pair(pair);
    println!("\nleast-confident match (score {score:.3}):");
    println!("  u = {}", u.display_with(dataset.left().schema()));
    println!("  v = {}", v.display_with(dataset.right().schema()));

    let certa = Certa::new(CertaConfig::default().with_triangles(40));
    let explanation = certa.explain(&matcher, &dataset, u, v);
    println!("\nattribute saliency:");
    for (attr, s) in explanation.saliency.ranked().into_iter().take(4) {
        println!("  {:<22} {:.3}", attr.qualified(&dataset), s);
    }

    // Sanity: the pipeline found real matches (the split has ground truth).
    let truth: usize = dataset
        .split(Split::Test)
        .iter()
        .chain(dataset.split(Split::Train))
        .filter(|lp| lp.label.is_match())
        .count();
    println!("\n(ground truth held {truth} matching pairs in the labeled splits)");
}
