//! Cross-commit golden for the blocking layer.
//!
//! Pins the count and the FxHash digest of every candidate list that
//! [`MultiPass::standard`], the default [`LshBlocker`] and the default
//! [`TokenOverlap`] produce, and of the default LSH signatures of both
//! tables, on default-scale AB, DS and FZ at seed 7. `block_props.rs`
//! checks the output contract, band nesting, recall and run-to-run
//! determinism; only this file notices a rewrite of MinHash signing or of
//! the inverted index that moves a single candidate or signature bit.

use certa_block::{Blocker, LshBlocker, LshConfig, MultiPass, TokenOverlap};
use certa_core::hash::fx_hash_one;
use certa_core::RecordPair;
use certa_datagen::{generate, DatasetId, Scale};

/// One pinned output: how many items and the digest of all of them.
type Pin = (usize, u64);

/// `(dataset, multi-pass, LSH, token overlap, signatures)`. The candidate
/// pins count pairs; the signature pin counts non-empty signatures over
/// both tables. Captured before MinHash hashed each distinct shingle once
/// per call and before `TokenIndex` counted overlaps in a dense array.
const GOLDEN: [(DatasetId, Pin, Pin, Pin, Pin); 3] = [
    (
        DatasetId::AB,
        (153, 0x7b96_00a6_7b0c_d817),
        (99, 0x52d5_627f_8fb0_4db4),
        (153, 0x7b96_00a6_7b0c_d817),
        (261, 0x1422_663e_1846_5d25),
    ),
    (
        DatasetId::DS,
        (782, 0x9f07_4130_e4d2_0b8a),
        (311, 0x88ca_a1a2_c4f1_cb09),
        (781, 0xf0d5_16dd_dc05_1fff),
        (764, 0xb27f_c725_345e_627a),
    ),
    (
        DatasetId::FZ,
        (13, 0xd8d0_6913_4e1e_6ff2),
        (10, 0x596e_fbc3_9bb9_5977),
        (13, 0xd8d0_6913_4e1e_6ff2),
        (104, 0x1868_4996_8809_e3a0),
    ),
];

fn pin_pairs(pairs: &[RecordPair]) -> Pin {
    let raw: Vec<(u32, u32)> = pairs.iter().map(|p| (p.left.0, p.right.0)).collect();
    (raw.len(), fx_hash_one(&raw))
}

#[test]
fn blocking_output_matches_the_golden() {
    let lsh = LshBlocker::new(LshConfig::default()).expect("default config is valid");
    let mut got = Vec::new();
    for (id, ..) in GOLDEN {
        let d = generate(id, Scale::Default, 7);
        let (left, right) = (d.left(), d.right());
        let sigs = (lsh.signatures(left), lsh.signatures(right));
        let non_empty = sigs.0.iter().chain(&sigs.1).filter(|s| !s.is_empty());
        got.push((
            id,
            pin_pairs(&MultiPass::standard().candidates(left, right)),
            pin_pairs(&lsh.candidates(left, right)),
            pin_pairs(&TokenOverlap::default().candidates(left, right)),
            (non_empty.count(), fx_hash_one(&sigs)),
        ));
    }
    assert_eq!(got, GOLDEN);
}
