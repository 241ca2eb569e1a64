//! End-to-end reproduction of the paper's §4 worked example (Figure 9)
//! through the real CERTA engine.
//!
//! A scripted black-box matcher realizes exactly the four lattices of
//! Figure 9 for four support records w1..w4; the test then checks every
//! number the paper derives: the 19 flips, the saliency probabilities, the
//! sufficiency values χ_A, the golden set A★ and the counterfactual set E.

use certa_repro::core::{
    Dataset, FnMatcher, LabeledPair, Matcher, Record, RecordId, Schema, Side, Table,
};
use certa_repro::explain::{AttrRef, Certa, CertaConfig};

const ATTR_SUFFIX: [&str; 3] = ["n", "d", "p"]; // N(ame), D(escription), P(rice)

fn support_value(k: usize, attr: usize) -> String {
    format!("w{k}_{}", ATTR_SUFFIX[attr])
}

fn build_dataset() -> Dataset {
    let ls = Schema::shared("Abt", ["Name", "Description", "Price"]);
    let rs = Schema::shared("Buy", ["Name", "Description", "Price"]);
    let mut left_records = vec![Record::new(
        RecordId(0),
        vec!["u_n".into(), "u_d".into(), "u_p".into()],
    )];
    for k in 1..=4 {
        left_records.push(Record::new(
            RecordId(k as u32),
            (0..3).map(|a| support_value(k, a)).collect(),
        ));
    }
    let left = Table::from_records(ls, left_records).unwrap();
    let right = Table::from_records(
        rs,
        vec![Record::new(
            RecordId(0),
            vec!["v_n".into(), "v_d".into(), "v_p".into()],
        )],
    )
    .unwrap();
    Dataset::new(
        "worked-example",
        left,
        right,
        vec![LabeledPair::new(RecordId(0), RecordId(0), true)],
        vec![LabeledPair::new(RecordId(0), RecordId(0), true)],
    )
    .unwrap()
}

/// Which support's values (if any) appear in `x`, and at which attributes.
fn support_mask(x: &Record, k: usize) -> u32 {
    let mut mask = 0u32;
    for (i, val) in x.values().iter().enumerate().take(3) {
        if *val == support_value(k, i) {
            mask |= 1 << i;
        }
    }
    mask
}

/// The scripted model of Figure 9: per support wk, the perturbation masks
/// that flip the original Match prediction are exactly the tagged-1 lattice
/// nodes of the figure.
fn figure9_matcher() -> impl Matcher {
    FnMatcher::new("figure9", |x: &Record, _v: &Record| {
        for k in 1..=4usize {
            let mask = support_mask(x, k);
            if mask == 0 {
                continue;
            }
            let len = mask.count_ones();
            let flips = match k {
                1 => mask & 0b011 != 0,             // N or D alone suffice
                2 => mask & 0b001 != 0 || len >= 2, // N, or any pair
                3 => mask & 0b001 != 0,             // only sets containing N
                4 => len >= 2,                      // no singleton flips
                _ => unreachable!(),
            };
            return if flips { 0.1 } else { 0.9 };
        }
        0.9 // the unperturbed u (or anything without support tokens): Match
    })
}

fn explain() -> certa_repro::explain::CertaExplanation {
    let dataset = build_dataset();
    let matcher = figure9_matcher();
    let (u, v) = dataset.expect_pair(dataset.split(certa_repro::core::Split::Test)[0].pair);
    // 8 triangles requested → 4 per side. The left table supplies exactly
    // w1..w4; the right table has no candidate records, so all triangles are
    // left — matching the worked example's setting.
    let certa = Certa::new(CertaConfig {
        num_triangles: 8,
        use_augmentation: false,
        ..Default::default()
    });
    certa.explain(&matcher, &dataset, u, v)
}

#[test]
fn prediction_and_triangles_match_the_setup() {
    let exp = explain();
    assert!(exp.prediction.is_match());
    assert_eq!(
        exp.triangle_stats.natural, 4,
        "w1..w4 all qualify as supports"
    );
    assert_eq!(exp.triangle_stats.augmented, 0);
    assert_eq!(exp.lattice_stats.len(), 4);
}

#[test]
fn saliency_matches_the_worked_example() {
    let exp = explain();
    let phi_n = exp.saliency.score(AttrRef::new(Side::Left, 0));
    let phi_d = exp.saliency.score(AttrRef::new(Side::Left, 1));
    let phi_p = exp.saliency.score(AttrRef::new(Side::Left, 2));
    // §4: 19 total flips; φ_N = 15/19 and φ_P = 11/19 as printed. For D the
    // paper prints 13/19 but its own definition gives 12/19 on the Figure 9
    // lattices; we assert the definition.
    assert!((phi_n - 15.0 / 19.0).abs() < 1e-12, "φ_N = {phi_n}");
    assert!((phi_d - 12.0 / 19.0).abs() < 1e-12, "φ_D = {phi_d}");
    assert!((phi_p - 11.0 / 19.0).abs() < 1e-12, "φ_P = {phi_p}");
    // Right-side attributes never flip anything (no right triangles).
    for i in 0..3 {
        assert_eq!(exp.saliency.score(AttrRef::new(Side::Right, i)), 0.0);
    }
}

#[test]
fn counterfactual_matches_the_worked_example() {
    let exp = explain();
    let cf = &exp.counterfactual;
    // χ_{N,D} = χ_{N,P} = 1; the canonical tie-break picks {N, D}.
    assert_eq!(cf.sufficiency, 1.0);
    assert_eq!(
        cf.golden_set,
        vec![AttrRef::new(Side::Left, 0), AttrRef::new(Side::Left, 1)],
        "A★ = {{Name, Description}}"
    );
    // E: ψ(u, w, {N, D}) flips for every w ∈ W → 4 examples, all verified.
    assert_eq!(cf.examples.len(), 4);
    for ex in &cf.examples {
        assert!(ex.score <= 0.5, "counterfactual must flip: {}", ex.score);
        assert_eq!(ex.changed, cf.golden_set);
        // Name and Description come from some support; Price stays u's.
        assert!(ex.left.values()[0].starts_with('w'));
        assert!(ex.left.values()[1].starts_with('w'));
        assert_eq!(ex.left.values()[2], "u_p");
        assert_eq!(ex.right.values(), &["v_n", "v_d", "v_p"]);
    }
}

#[test]
fn lattice_exploration_cost_matches_hand_count() {
    // Hand count of model calls per lattice under monotone exploration:
    // w1: N, D, P tested (3); w2: N, D, P, {D,P} (4); w3: same shape (4);
    // w4: all singletons + all pairs (6). Total 17 of the 24 expected.
    let exp = explain();
    let performed: usize = exp.lattice_stats.iter().map(|s| s.performed).sum();
    let expected: usize = exp.lattice_stats.iter().map(|s| s.expected).sum();
    assert_eq!(expected, 24);
    assert_eq!(performed, 17);
    assert_eq!(
        exp.lattice_stats.iter().map(|s| s.saved()).sum::<usize>(),
        7
    );
}

#[test]
fn deterministic_end_to_end() {
    let a = explain();
    let b = explain();
    assert_eq!(a.saliency, b.saliency);
    assert_eq!(a.counterfactual.golden_set, b.counterfactual.golden_set);
    assert_eq!(
        a.counterfactual.examples.len(),
        b.counterfactual.examples.len()
    );
}
