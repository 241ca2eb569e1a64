//! Cross-commit golden for the three featurizer families.
//!
//! Pins the exact bits (`f64::to_bits`) of every feature vector the DeepER,
//! DeepMatcher and Ditto featurizers produce for a few hand-built record
//! pairs, memoized and not, as one FNV-1a digest per vector. A rewrite of
//! any similarity under the featurizers (trigram sets, token Jaccard, the
//! TF-IDF cosine, Ditto's serializer) that moves a single feature by one ulp
//! fails here. The pairs cover non-ASCII text, decimals Ditto rounds, empty
//! attributes and tokens starting with `col`, which Ditto's serializer
//! treats specially. Three more Ditto pairs pin the edges of Ditto's
//! per-value fold: two-digit attribute markers, a last attribute that trims
//! away, and one-char values.

use certa_core::{Dataset, LabeledPair, Record, RecordId, Schema, Table};
use certa_models::{FeatureMemo, Featurizer, FeaturizerKind};

const ATTRS: [&str; 3] = ["title", "description", "price"];

const LEFT: [[&str; 3]; 4] = [
    [
        "Café Crème Brûlée 500ml",
        "crème pâtissière — édition spéciale 東京",
        "12.49",
    ],
    [
        "Columbia Pictures DVD",
        "collector's edition, colorized",
        "19.99",
    ],
    ["sony bravia theater", "", "379.72"],
    ["canon pixma mx700", "photo inkjet printer", "89"],
];

const RIGHT: [[&str; 3]; 4] = [
    ["cafe creme brulee 0.5l", "creme patissiere edition", "12.5"],
    [
        "columbia pictures dvd box",
        "colorized collectors edition",
        "20",
    ],
    ["Sony BRAVIA home theater", "black 5.1 surround", "380"],
    ["canon pixma printer", "", ""],
];

/// `(family, pair index, feature count, digest)`, captured when
/// `trigram_sim` still built one `String` per trigram, so the packed
/// trigram codes are pinned to that implementation's output.
const GOLDEN: [(FeaturizerKind, usize, usize, u64); 12] = [
    (FeaturizerKind::DeepEr, 0, 49, 0xdfd5_a63c_3590_916d),
    (FeaturizerKind::DeepEr, 1, 49, 0xf359_4665_d878_74d3),
    (FeaturizerKind::DeepEr, 2, 49, 0x6561_cc23_57c7_638d),
    (FeaturizerKind::DeepEr, 3, 49, 0x2db1_5108_e564_5b60),
    (FeaturizerKind::DeepMatcher, 0, 19, 0xd679_653a_e98f_cc06),
    (FeaturizerKind::DeepMatcher, 1, 19, 0x6f9b_c228_4510_9b08),
    (FeaturizerKind::DeepMatcher, 2, 19, 0x04f1_1f2f_ba1d_5844),
    (FeaturizerKind::DeepMatcher, 3, 19, 0xd3ba_649c_cb77_2ac4),
    (FeaturizerKind::Ditto, 0, 52, 0xe7f5_3d02_bd9d_418d),
    (FeaturizerKind::Ditto, 1, 52, 0xae7a_448c_abcd_ae89),
    (FeaturizerKind::Ditto, 2, 52, 0x0222_777a_b35c_c945),
    (FeaturizerKind::Ditto, 3, 52, 0x664c_0aab_ee6d_1d13),
];

fn table(name: &str, rows: &[[&str; 3]]) -> Table {
    let records = rows
        .iter()
        .zip(0u32..)
        .map(|(row, id)| Record::new(RecordId(id), row.iter().map(|s| s.to_string()).collect()))
        .collect();
    Table::from_records(Schema::shared(name, ATTRS), records).unwrap()
}

/// The hand-built tables, with every aligned pair as a training pair so the
/// DeepMatcher corpus sees all of them.
fn dataset() -> Dataset {
    let pairs = (0u32..4)
        .map(|i| LabeledPair::new(RecordId(i), RecordId(i), i != 3))
        .collect();
    Dataset::new(
        "golden",
        table("U", &LEFT),
        table("V", &RIGHT),
        pairs,
        vec![LabeledPair::new(RecordId(0), RecordId(1), false)],
    )
    .unwrap()
}

/// FNV-1a over the little-endian bytes of every feature's bits, in order.
fn digest(features: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in features.iter().flat_map(|x| x.to_bits().to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn feature_vectors_are_bit_identical_to_the_golden_digests() {
    let d = dataset();
    let mut mismatches = Vec::new();
    for (kind, pair, len, want) in GOLDEN {
        let featurizer = Featurizer::fit(kind, &d);
        let u = d.left().expect(RecordId(pair as u32));
        let v = d.right().expect(RecordId(pair as u32));
        let memo = FeatureMemo::new();
        let runs = [
            ("plain", featurizer.features(u, v)),
            ("cold memo", featurizer.features_with(u, v, Some(&memo))),
            ("warm memo", featurizer.features_with(u, v, Some(&memo))),
        ];
        for (mode, features) in runs {
            let got = digest(&features);
            if features.len() != len || got != want {
                let bits: Vec<String> = features
                    .iter()
                    .map(|x| format!("{:#018x}", x.to_bits()))
                    .collect();
                mismatches.push(format!(
                    "{kind:?} pair {pair} ({mode}): {} features, digest {got:#018x}, \
                     want {len} and {want:#018x}\n  bits: [{}]",
                    features.len(),
                    bits.join(", ")
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// Ditto pairs outside the arity-3 schema above, `(left, right, feature
/// count, digest)`, captured while Ditto still featurized by serializing
/// both records: an arity-11 pair (two-digit `col1x` markers, `col`-prefixed
/// tokens, `1e300`, multi-byte UTF-8, tokens that clean to nothing), a pair
/// whose last attribute is whitespace-only on one side and cleans to
/// nothing on the other, and one-char values.
const DITTO_EDGES: [(&[&str], &[&str], usize, u64); 3] = [
    (
        &[
            "Columbia Records col7",
            "col the colossus",
            "1e300",
            "",
            "Ünïcödé straße 東京 😀",
            "12.5 -3.49 0.5",
            "a",
            "—  !!",
            "x-y/z.w",
            "columbia",
            "Last Attr 10",
        ],
        &[
            "columbia records",
            "the colossus",
            "1e300 1E300",
            "   ",
            "unicode strasse 東京",
            "12 -3 1",
            "b",
            "!!",
            "x y z w",
            "col10",
            "last attr ten",
        ],
        52,
        0x5faf_0edc_0453_fed2,
    ),
    (
        &["sony bravia tv", "black theater", "   "],
        &["sony bravia", "theater black", "— !!"],
        52,
        0xc709_b821_816e_f653,
    ),
    (
        &["a", "é", "7"],
        &["a", "b", "x"],
        52,
        0xe714_9085_31fd_18e9,
    ),
];

#[test]
fn ditto_edge_pairs_are_bit_identical_to_the_golden_digests() {
    let featurizer = Featurizer::fit(FeaturizerKind::Ditto, &dataset());
    let record = |id: u32, values: &[&str]| {
        Record::new(RecordId(id), values.iter().map(|s| s.to_string()).collect())
    };
    let mut mismatches = Vec::new();
    for (case, (left, right, len, want)) in DITTO_EDGES.into_iter().enumerate() {
        let (u, v) = (record(0, left), record(1, right));
        let memo = FeatureMemo::new();
        let runs = [
            ("plain", featurizer.features(&u, &v)),
            ("cold memo", featurizer.features_with(&u, &v, Some(&memo))),
            ("warm memo", featurizer.features_with(&u, &v, Some(&memo))),
        ];
        for (mode, features) in runs {
            let got = digest(&features);
            if features.len() != len || got != want {
                mismatches.push(format!(
                    "Ditto edge case {case} ({mode}): {} features, digest {got:#018x}, \
                     want {len} and {want:#018x}",
                    features.len()
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
