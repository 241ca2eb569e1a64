//! Cross-commit golden for served bytes.
//!
//! Every other byte-equality gate compares two paths of one build (served ≡
//! in-process, batch ≡ sequential, 1/2/8 workers ≡), so a change that moves
//! both paths at once passes them all. This file pins the bytes themselves:
//! for each FZ model family at smoke scale (seed 7, τ = 12), an FNV-1a
//! digest of the `POST /v1/explain` response for each of the first three
//! test pairs, and one digest over the bits of every score a batch call
//! returns for the test split plus the first 8×8 left×right cross pairs.

use certa_core::{Record, Split};
use certa_serve::router::explain_response_bytes;
use certa_serve::{Registry, ServeConfig};

/// `(model, explain digests of test pairs 0..3, score digest)`, captured
/// while batch scoring still ran the models' vectorized forward pass.
const GOLDEN: [(&str, [u64; 3], u64); 3] = [
    (
        "FZ/DeepER",
        [
            0xd761_114e_ba87_aa02,
            0x0cd7_4648_8666_d2ac,
            0x5aed_c0f2_0ad6_a365,
        ],
        0x20f2_0123_e8e4_16d0,
    ),
    (
        "FZ/DeepMatcher",
        [
            0x4de2_5c76_ce70_f719,
            0x459d_eba0_77d7_0c36,
            0x31ce_35f5_727a_08e5,
        ],
        0x9b43_aeba_4eac_c9ca,
    ),
    (
        "FZ/Ditto",
        [
            0x3b4f_be85_b992_d17a,
            0x2b32_ec3e_281a_22e6,
            0xdbd7_29df_1749_23bf,
        ],
        0xc3fa_7839_0824_b334,
    ),
];

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn served_explanations_and_scores_match_the_golden_digests() {
    let registry = Registry::new(ServeConfig {
        tau: 12,
        ..ServeConfig::default()
    });
    let mut mismatches = Vec::new();
    for (model, want_explain, want_scores) in GOLDEN {
        let entry = registry.resolve(model).expect("resolve");
        let d = &entry.dataset;
        let test = d.split(Split::Test);
        assert_eq!(test.len(), 10, "{model}: smoke FZ has 10 test pairs");

        for (i, want) in want_explain.into_iter().enumerate() {
            let (u, v) = d.expect_pair(test[i].pair);
            let got = fnv1a(explain_response_bytes(&entry, u, v));
            if got != want {
                mismatches.push(format!(
                    "{model} explain test pair {i}: digest {got:#018x}, want {want:#018x}"
                ));
            }
        }

        let mut pairs: Vec<(&Record, &Record)> =
            test.iter().map(|lp| d.expect_pair(lp.pair)).collect();
        for u in &d.left().records()[..8] {
            pairs.extend(d.right().records()[..8].iter().map(|v| (u, v)));
        }
        let scores = entry.matcher().score_batch(&pairs);
        assert_eq!(scores.len(), 74);
        let got = fnv1a(scores.iter().flat_map(|s| s.to_bits().to_le_bytes()));
        if got != want_scores {
            mismatches.push(format!(
                "{model} scores: digest {got:#018x}, want {want_scores:#018x}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
