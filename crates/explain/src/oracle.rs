//! Reference oracle for lines 9–33 of Algorithm 1 (§4, Equations 1–3).
//!
//! `Certa::explain_with_triangles` walks each triangle's lattice, counts
//! the flips and turns them into Φ, χ, `A★` and `E`. This module recomputes
//! all of that straight from the definitions: every lattice node of every
//! triangle gets one plain `score` call (no cache, memo, threads or
//! monotone inference), and the counts are taken over the resulting flips.
//! Random arities, triangle sets, supports and example caps must give both
//! the same Φ, `A★`, χ★ and `E`, bit for bit.
//!
//! Footnote 2 holds in both: the full set is scored only when the side has
//! one attribute. Otherwise the monotone walk tags it as a flip exactly when
//! some proper subset flipped, and the exhaustive walk leaves it untagged.

use crate::certa::{pair_token_overlap, Certa};
use crate::config::CertaConfig;
use crate::explanation::{
    AttrRef, CounterfactualExample, CounterfactualExplanation, SaliencyExplanation,
};
use crate::lattice::AttrMask;
use crate::triangles::{OpenTriangle, TriangleStats};
use certa_core::{FnMatcher, MatchLabel, Matcher, Record, RecordId, Side};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// ⟨ψ(u, w, A), v⟩ for a left triangle and ⟨u, ψ(v, w, A)⟩ for a right
/// one, with ψ assembled value by value.
fn perturbed_pair(u: &Record, v: &Record, t: &OpenTriangle, mask: AttrMask) -> (Record, Record) {
    let free = if t.side == Side::Left { u } else { v };
    let values = (0..free.arity())
        .map(|i| {
            let from = if mask & (1 << i) != 0 {
                &t.support
            } else {
                free
            };
            from.values()[i].clone()
        })
        .collect();
    let psi = Record::from_attr_values(free.id(), values);
    match t.side {
        Side::Left => (psi, v.clone()),
        Side::Right => (u.clone(), psi),
    }
}

/// Every flipped node of one triangle's lattice, in mask order.
fn flipped_masks(
    matcher: &dyn Matcher,
    u: &Record,
    v: &Record,
    t: &OpenTriangle,
    y: MatchLabel,
    monotone: bool,
) -> Vec<AttrMask> {
    let arity = if t.side == Side::Left {
        u.arity()
    } else {
        v.arity()
    };
    let full: AttrMask = (1 << arity) - 1;
    let flips = |mask: AttrMask| {
        let (l, r) = perturbed_pair(u, v, t, mask);
        MatchLabel::from_score(matcher.score(&l, &r)) != y
    };
    let mut out: Vec<AttrMask> = (1..full).filter(|&m| flips(m)).collect();
    let full_flips = if arity == 1 {
        flips(full)
    } else {
        monotone && !out.is_empty()
    };
    if full_flips {
        out.push(full);
    }
    out
}

/// What lines 9–33 must produce: Φ, `A★` with χ★ and `E`, and the two means.
struct Reference {
    saliency: SaliencyExplanation,
    counterfactual: CounterfactualExplanation,
    mean_sufficiency: f64,
    mean_necessity: f64,
}

fn reference(
    matcher: &dyn Matcher,
    u: &Record,
    v: &Record,
    triangles: &[OpenTriangle],
    monotone: bool,
    max_examples: usize,
) -> Reference {
    let y = matcher.predict(u, v);
    let flips: Vec<(Side, Vec<AttrMask>)> = triangles
        .iter()
        .map(|t| (t.side, flipped_masks(matcher, u, v, t, y, monotone)))
        .collect();
    let arity = |side| match side {
        Side::Left => u.arity(),
        Side::Right => v.arity(),
    };

    // Equation 1: Φ_a = N[a] / f over all flipped nodes of all triangles.
    let f = flips.iter().map(|(_, masks)| masks.len()).sum::<usize>();
    let phi = |side: Side| -> Vec<f64> {
        (0..arity(side))
            .map(|a| {
                let n = flips
                    .iter()
                    .filter(|(s, _)| *s == side)
                    .flat_map(|(_, masks)| masks)
                    .filter(|&&m| m & (1 << a) != 0)
                    .count();
                if f == 0 {
                    0.0
                } else {
                    n as f64 / f as f64
                }
            })
            .collect()
    };
    let saliency = SaliencyExplanation::new(phi(Side::Left), phi(Side::Right));
    let scored: Vec<f64> = saliency
        .iter()
        .map(|(_, s)| s)
        .filter(|&s| s > 0.0)
        .collect();
    let mean_necessity = if scored.is_empty() {
        0.0
    } else {
        scored.iter().sum::<f64>() / scored.len() as f64
    };

    // Equation 2: χ_A = (side's triangles where A flipped) / (side's
    // triangles), for every A that flipped somewhere.
    let mut chi: Vec<(Side, AttrMask, f64)> = Vec::new();
    for side in Side::both() {
        let on_side: Vec<&Vec<AttrMask>> = flips
            .iter()
            .filter(|(s, _)| *s == side)
            .map(|(_, masks)| masks)
            .collect();
        for mask in 1..=(1 << arity(side)) - 1 {
            let s = on_side.iter().filter(|masks| masks.contains(&mask)).count();
            if s > 0 {
                chi.push((side, mask, s as f64 / on_side.len() as f64));
            }
        }
    }
    let mean_sufficiency = if chi.is_empty() {
        0.0
    } else {
        chi.iter().map(|c| c.2).sum::<f64>() / chi.len() as f64
    };

    // Equation 3: A★ maximizes χ over proper subsets; ties go to the
    // smaller |A|, then to (side, mask).
    let mut candidates: Vec<(Side, AttrMask, f64)> = chi
        .into_iter()
        .filter(|&(side, mask, _)| mask != (1 << arity(side)) - 1)
        .collect();
    candidates.sort_by(|a, b| {
        b.2.total_cmp(&a.2)
            .then(a.1.count_ones().cmp(&b.1.count_ones()))
            .then((a.0, a.1).cmp(&(b.0, b.1)))
    });

    // Lines 21–33: ψ at A★ for each triangle on A★'s side, kept if it
    // flips; past the cap, the closest to ⟨u, v⟩ are kept (stable, so ties
    // keep triangle order).
    let counterfactual = match candidates.first() {
        None => CounterfactualExplanation::default(),
        Some(&(side, mask, sufficiency)) => {
            let golden_set: Vec<AttrRef> = (0..arity(side))
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| AttrRef::new(side, i as u16))
                .collect();
            let mut examples = Vec::new();
            for t in triangles.iter().filter(|t| t.side == side) {
                let (left, right) = perturbed_pair(u, v, t, mask);
                let score = matcher.score(&left, &right);
                if MatchLabel::from_score(score) != y {
                    examples.push(CounterfactualExample {
                        left,
                        right,
                        changed: golden_set.clone(),
                        score,
                    });
                }
            }
            if examples.len() > max_examples {
                let closeness = |e: &CounterfactualExample| {
                    pair_token_overlap(u, &e.left) + pair_token_overlap(v, &e.right)
                };
                examples.sort_by(|a, b| closeness(b).total_cmp(&closeness(a)));
                examples.truncate(max_examples);
            }
            CounterfactualExplanation {
                examples,
                golden_set,
                sufficiency,
            }
        }
    };

    Reference {
        saliency,
        counterfactual,
        mean_sufficiency,
        mean_necessity,
    }
}

/// A random explained pair with 0–5 triangles per side. Each free value is
/// 1–4 distinct tokens; each support value keeps a random prefix of those
/// tokens and appends 0–2 marker tokens (`m…`) of its own, so the supports'
/// ψ copies sit at different distances from ⟨u, v⟩.
fn world(
    left_arity: usize,
    right_arity: usize,
    per_side: (usize, usize),
    seed: u64,
) -> (Record, Record, Vec<OpenTriangle>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut free_record = |tag: char, arity: usize| {
        let values = (0..arity)
            .map(|i| {
                let n = rng.gen_range(1..5);
                let tokens: Vec<String> = (0..n).map(|j| format!("{tag}{i}t{j}")).collect();
                tokens.join(" ")
            })
            .collect();
        Record::new(RecordId(0), values)
    };
    let (u, v) = (free_record('u', left_arity), free_record('v', right_arity));
    let mut triangles = Vec::new();
    for (side, free, count) in [(Side::Left, &u, per_side.0), (Side::Right, &v, per_side.1)] {
        for k in 0..count {
            let values = free
                .values()
                .iter()
                .enumerate()
                .map(|(i, value)| {
                    let tokens: Vec<&str> = value.split_whitespace().collect();
                    let mut kept: Vec<String> = tokens[..rng.gen_range(0..=tokens.len())]
                        .iter()
                        .map(|t| t.to_string())
                        .collect();
                    kept.extend((0..rng.gen_range(0..3)).map(|j| format!("m{k}a{i}x{j}")));
                    kept.join(" ")
                })
                .collect();
            triangles.push(OpenTriangle {
                side,
                support: Record::new(RecordId(k as u32 + 1), values),
                augmented: false,
            });
        }
    }
    (u, v, triangles)
}

/// A uniform pseudo-random number in `[0, 1)` keyed on both records' content.
fn unit_hash(l: &Record, r: &Record, salt: u64) -> f64 {
    let mut x = l.content_hash() ^ r.content_hash().rotate_left(29) ^ salt;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Run `explain_with_triangles` and the oracle on one world and compare.
fn check(
    matcher: &dyn Matcher,
    world: (Record, Record, Vec<OpenTriangle>),
    monotone: bool,
    cap: usize,
) -> Result<(), TestCaseError> {
    let (u, v, triangles) = world;
    // Cap 7 stands for "no cap".
    let max_examples = if cap == 7 { usize::MAX } else { cap };
    let certa = Certa::new(CertaConfig {
        monotone,
        max_examples,
        ..CertaConfig::default()
    });
    let prediction = matcher.prediction(&u, &v);
    let got = certa.explain_with_triangles(
        matcher,
        &u,
        &v,
        prediction,
        &triangles,
        TriangleStats::default(),
    );
    let want = reference(matcher, &u, &v, &triangles, monotone, max_examples);

    prop_assert_eq!(got.lattice_stats.len(), triangles.len());
    // `PartialEq` compares every score and probability exactly.
    prop_assert_eq!(&got.saliency, &want.saliency);
    prop_assert_eq!(&got.counterfactual, &want.counterfactual);
    // Both means are sums in an order the definitions leave open.
    prop_assert!((got.mean_sufficiency - want.mean_sufficiency).abs() <= 1e-12);
    prop_assert!((got.mean_necessity - want.mean_necessity).abs() <= 1e-12);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Exhaustive mode tests every node, so it must match the oracle for
    /// any matcher — here a hash of both records.
    #[test]
    fn exhaustive_explanation_matches_the_definitions(
        left_arity in 1usize..7,
        right_arity in 1usize..7,
        left_triangles in 0usize..6,
        right_triangles in 0usize..6,
        cap in 0usize..8,
        seed in any::<u64>(),
    ) {
        let matcher = FnMatcher::new("hash", move |l: &Record, r: &Record| unit_hash(l, r, seed));
        let world = world(left_arity, right_arity, (left_triangles, right_triangles), seed);
        check(&matcher, world, false, cap)?;
    }

    /// Monotone inference is exact for upward-closed matchers: this one
    /// flips once the weight of support-origin (marker-bearing) values
    /// clears a threshold, in either label direction.
    #[test]
    fn monotone_explanation_matches_the_definitions_for_upward_closed_matchers(
        left_arity in 1usize..7,
        right_arity in 1usize..7,
        left_triangles in 0usize..6,
        right_triangles in 0usize..6,
        cap in 0usize..8,
        seed in any::<u64>(),
        threshold in 0.05f64..2.0,
        invert in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(!seed);
        let weights: Vec<f64> = (0..12).map(|_| rng.gen_range(0.0..1.0)).collect();
        let matcher = FnMatcher::new("upward-closed", move |l: &Record, r: &Record| {
            let marked = |rec: &Record, w: &[f64]| -> f64 {
                rec.values()
                    .iter()
                    .zip(w)
                    .filter(|(value, _)| value.split_whitespace().any(|t| t.starts_with('m')))
                    .map(|(_, w)| w)
                    .sum()
            };
            let weight = marked(l, &weights[..6]) + marked(r, &weights[6..]);
            let jitter = 0.4 * unit_hash(l, r, seed);
            let s = if weight >= threshold { 0.55 + jitter } else { 0.45 - jitter };
            if invert { 1.0 - s } else { s }
        });
        let world = world(left_arity, right_arity, (left_triangles, right_triangles), seed);
        check(&matcher, world, true, cap)?;
    }
}
