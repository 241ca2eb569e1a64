//! Dataset signatures: per-attribute token/IDF sketches that make stored
//! artifacts *searchable*.
//!
//! A [`Signature`] summarizes a dataset as one [`AttributeSketch`] per
//! schema attribute (left and right tables pooled by attribute name):
//!
//! - a fixed-width MinHash over the attribute's distinct clean tokens
//!   ([`MINHASH_COORDS`] coordinates, seeded permutations — the same
//!   token-set Jaccard machinery the blocking layer uses);
//! - the [`TOP_TOKENS`] highest-document-frequency tokens with their df
//!   counts, which give a tiny IDF-weighted vocabulary fingerprint;
//! - the attribute's non-empty document count, the IDF denominator.
//!
//! [`similarity`] is the repository's ranking function. It is a pure
//! function of the two signatures with a deterministic bit-level contract
//! (pinned by the property tests at the bottom of this file):
//!
//! - **reflexive**: `similarity(a, a)` is exactly `1.0`;
//! - **symmetric**: `similarity(a, b)` equals `similarity(b, a)`
//!   bit-for-bit (every merge walks both sides in one canonical sorted
//!   order and combines with commutative float products);
//! - **build-deterministic**: a signature is a pure function of the
//!   dataset's content (the build folds both tables into one set of
//!   `BTreeMap` accumulators with integer df sums and coordinate-wise
//!   minima).
//!
//! This module is covered by certa-lint's `no-nondeterminism` and
//! `no-unordered-iteration` rules at deny level with zero suppressions:
//! all intermediate maps are `BTreeMap`s and nothing reads a clock.
//!
//! [`similarity`]: Signature::similarity

use crate::codec::{Reader, Writer};
use crate::error::{Result, StoreError};
use certa_core::hash::{fx_hash_one, splitmix64};
use certa_core::Dataset;
use std::collections::BTreeMap;

/// MinHash coordinates per attribute sketch.
pub const MINHASH_COORDS: usize = 64;

/// Document-frequency tokens kept per attribute sketch.
pub const TOP_TOKENS: usize = 16;

/// Seed for the per-coordinate MinHash permutations.
const COORD_SEED: u64 = 0x51_67_4e_41_54_55_52_45; // "SIGNATURE" flavored

/// The token/IDF sketch of one schema attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeSketch {
    /// Attribute name (the join key across signatures).
    pub name: String,
    /// Records (both tables pooled) with at least one clean token here.
    pub doc_count: u64,
    /// Coordinate-wise minimum of the permuted token hashes;
    /// `u64::MAX` coordinates mean "no tokens seen".
    pub minhash: Vec<u64>,
    /// Up to [`TOP_TOKENS`] highest-df tokens, stored sorted by token
    /// ascending (the canonical order every merge walks).
    pub top_tokens: Vec<(String, u64)>,
}

impl AttributeSketch {
    /// IDF weight of a token with document frequency `df` in this sketch.
    fn weight(&self, df: u64) -> f64 {
        (1.0 + self.doc_count as f64 / df.max(1) as f64).ln()
    }

    /// Sum of squared IDF weights over the stored tokens — the cosine
    /// denominator half, accumulated in canonical token order.
    fn weight_norm(&self) -> f64 {
        let mut sum = 0.0;
        for (_, df) in &self.top_tokens {
            let w = self.weight(*df);
            sum += w * w;
        }
        sum
    }

    /// Per-attribute similarity in `[0, 1]`: the mean of MinHash coordinate
    /// agreement and a squared IDF-cosine over the shared top tokens.
    fn sim(&self, other: &AttributeSketch) -> f64 {
        let agree = self
            .minhash
            .iter()
            .zip(&other.minhash)
            .filter(|(a, b)| a == b)
            .count();
        let coords = self.minhash.len().min(other.minhash.len()).max(1);
        let minhash_sim = agree as f64 / coords as f64;

        let cosine = if self.top_tokens.is_empty() && other.top_tokens.is_empty() {
            1.0
        } else {
            let sa = self.weight_norm();
            let sb = other.weight_norm();
            // Shared-token dot product via a sorted merge join; for
            // `sim(a, a)` this walks the identical list and accumulates the
            // identical products as `weight_norm`, so `num == sa == sb`
            // bitwise and the quotient below is exactly 1.0.
            let mut num = 0.0;
            let mut xs = self.top_tokens.as_slice();
            let mut ys = other.top_tokens.as_slice();
            while let (Some((x, xr)), Some((y, yr))) = (xs.split_first(), ys.split_first()) {
                match x.0.cmp(&y.0) {
                    std::cmp::Ordering::Less => xs = xr,
                    std::cmp::Ordering::Greater => ys = yr,
                    std::cmp::Ordering::Equal => {
                        num += self.weight(x.1) * other.weight(y.1);
                        xs = xr;
                        ys = yr;
                    }
                }
            }
            if sa == 0.0 || sb == 0.0 {
                0.0
            } else {
                (num * num) / (sa * sb)
            }
        };
        0.5 * minhash_sim + 0.5 * cosine
    }
}

/// A dataset's searchable fingerprint: attribute sketches sorted by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// Sketches sorted strictly ascending by attribute name.
    pub attributes: Vec<AttributeSketch>,
}

/// Per-attribute accumulation state during a build.
struct AttrStats {
    doc_count: u64,
    minhash: Vec<u64>,
    df: BTreeMap<String, u64>,
}

impl AttrStats {
    fn new() -> AttrStats {
        AttrStats {
            doc_count: 0,
            minhash: vec![u64::MAX; MINHASH_COORDS],
            df: BTreeMap::new(),
        }
    }
}

/// Fold one table's records into the per-attribute accumulators, pooled by
/// attribute name. `splitmix64(base ^ salt)` is the per-coordinate
/// permutation of a token's base hash.
fn sketch_records(
    acc: &mut BTreeMap<String, AttrStats>,
    names: &[String],
    records: &[certa_core::Record],
    salts: &[u64],
) {
    for record in records {
        for (name, value) in names.iter().zip(record.values()) {
            let mut toks: Vec<&str> = value.clean_tokens().collect();
            if toks.is_empty() {
                continue;
            }
            toks.sort_unstable();
            toks.dedup();
            let stats = acc.entry(name.clone()).or_insert_with(AttrStats::new);
            stats.doc_count += 1;
            for tok in toks {
                *stats.df.entry(tok.to_string()).or_insert(0) += 1;
                let base = fx_hash_one(tok);
                for (slot, salt) in stats.minhash.iter_mut().zip(salts) {
                    let h = splitmix64(base ^ salt);
                    if h < *slot {
                        *slot = h;
                    }
                }
            }
        }
    }
}

/// Build a dataset's signature, sketching the left table and then the
/// right one.
pub fn build_signature(dataset: &Dataset) -> Signature {
    let salts: Vec<u64> = (0..MINHASH_COORDS)
        .map(|k| splitmix64(COORD_SEED ^ k as u64))
        .collect();
    let mut merged: BTreeMap<String, AttrStats> = BTreeMap::new();
    for t in [dataset.left(), dataset.right()] {
        let names = t.schema().attr_names();
        sketch_records(&mut merged, names, t.records(), &salts);
        // Schema attributes with zero tokens anywhere still appear (empty
        // sketch), so attribute-name overlap is visible to `similarity`.
        for name in names {
            merged.entry(name.clone()).or_insert_with(AttrStats::new);
        }
    }
    let attributes = merged
        .into_iter()
        .map(|(name, stats)| {
            let mut by_df: Vec<(String, u64)> = stats.df.into_iter().collect();
            // Highest df first, token ascending as the tiebreak; then the
            // kept prefix is re-sorted into the canonical token order.
            by_df.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            by_df.truncate(TOP_TOKENS);
            by_df.sort_by(|a, b| a.0.cmp(&b.0));
            AttributeSketch {
                name,
                doc_count: stats.doc_count,
                minhash: stats.minhash,
                top_tokens: by_df,
            }
        })
        .collect();
    Signature { attributes }
}

impl Signature {
    /// Similarity in `[0, 1]`: the mean per-attribute similarity over the
    /// union of attribute names (absent-on-one-side attributes score 0).
    /// Exactly reflexive and bit-for-bit symmetric — see the module docs.
    pub fn similarity(&self, other: &Signature) -> f64 {
        let mut total = 0.0;
        let mut n = 0u64;
        let mut xs = self.attributes.as_slice();
        let mut ys = other.attributes.as_slice();
        loop {
            match (xs.split_first(), ys.split_first()) {
                (Some((x, xr)), Some((y, yr))) => match x.name.cmp(&y.name) {
                    std::cmp::Ordering::Less => {
                        n += 1;
                        xs = xr;
                    }
                    std::cmp::Ordering::Greater => {
                        n += 1;
                        ys = yr;
                    }
                    std::cmp::Ordering::Equal => {
                        total += x.sim(y);
                        n += 1;
                        xs = xr;
                        ys = yr;
                    }
                },
                (Some((_, xr)), None) => {
                    n += 1;
                    xs = xr;
                }
                (None, Some((_, yr))) => {
                    n += 1;
                    ys = yr;
                }
                (None, None) => break,
            }
        }
        if n == 0 {
            return 1.0;
        }
        total / n as f64
    }
}

/// Append a signature to an open writer (shared by the dataset- and
/// model-side section encoders).
fn encode_signature_into(w: &mut Writer, sig: &Signature) {
    w.u32(sig.attributes.len() as u32);
    for attr in &sig.attributes {
        w.str_(&attr.name);
        w.u64(attr.doc_count);
        w.u32(attr.minhash.len() as u32);
        for &m in &attr.minhash {
            w.u64(m);
        }
        w.u32(attr.top_tokens.len() as u32);
        for (tok, df) in &attr.top_tokens {
            w.str_(tok);
            w.u64(*df);
        }
    }
}

fn decode_signature_from(r: &mut Reader<'_>) -> Result<Signature> {
    // Minimum bytes per attribute: name len + doc count + two counts.
    let n = r.count(4 + 8 + 4 + 4, "signature attribute count")?;
    let mut attributes: Vec<AttributeSketch> = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.string("signature attribute name")?;
        if let Some(prev) = attributes.last() {
            if prev.name >= name {
                return Err(StoreError::Malformed(format!(
                    "signature attributes not strictly sorted at `{name}`"
                )));
            }
        }
        let doc_count = r.u64("signature doc count")?;
        let coords = r.count(8, "signature minhash coords")?;
        if coords != MINHASH_COORDS {
            return Err(StoreError::Malformed(format!(
                "signature minhash has {coords} coords, expected {MINHASH_COORDS}"
            )));
        }
        let mut minhash = Vec::with_capacity(coords);
        for _ in 0..coords {
            minhash.push(r.u64("signature minhash coord")?);
        }
        let t = r.count(4 + 8, "signature token count")?;
        if t > TOP_TOKENS {
            return Err(StoreError::Malformed(format!(
                "signature stores {t} tokens, limit is {TOP_TOKENS}"
            )));
        }
        let mut top_tokens: Vec<(String, u64)> = Vec::with_capacity(t);
        for _ in 0..t {
            let tok = r.string("signature token")?;
            let df = r.u64("signature token df")?;
            if df == 0 || df > doc_count {
                return Err(StoreError::Malformed(format!(
                    "signature token `{tok}` has df {df} outside 1..={doc_count}"
                )));
            }
            if let Some((prev, _)) = top_tokens.last() {
                if *prev >= tok {
                    return Err(StoreError::Malformed(format!(
                        "signature tokens not strictly sorted at `{tok}`"
                    )));
                }
            }
            top_tokens.push((tok, df));
        }
        attributes.push(AttributeSketch {
            name,
            doc_count,
            minhash,
            top_tokens,
        });
    }
    Ok(Signature { attributes })
}

/// Encode a bare signature — the dataset artifact's SIGNATURE payload.
pub fn encode_signature(sig: &Signature) -> Vec<u8> {
    let mut w = Writer::new();
    encode_signature_into(&mut w, sig);
    w.into_bytes()
}

/// Decode a bare signature section payload.
pub fn decode_signature(bytes: &[u8]) -> Result<Signature> {
    let mut r = Reader::new(bytes);
    let sig = decode_signature_from(&mut r)?;
    r.finish()?;
    Ok(sig)
}

/// A model artifact's SIGNATURE payload: the training dataset's signature
/// plus the provenance key the repository ranks and reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSignature {
    /// Table 1 dataset code the model was trained on (e.g. `"FZ"`).
    pub dataset: String,
    /// Scale name (e.g. `"smoke"`).
    pub scale: String,
    /// Master seed the training dataset was generated with.
    pub seed: u64,
    /// The training dataset's signature.
    pub signature: Signature,
}

/// Encode a model-side signature section payload.
pub fn encode_model_signature(ms: &ModelSignature) -> Vec<u8> {
    let mut w = Writer::new();
    w.str_(&ms.dataset);
    w.str_(&ms.scale);
    w.u64(ms.seed);
    encode_signature_into(&mut w, &ms.signature);
    w.into_bytes()
}

/// Decode a model-side signature section payload.
pub fn decode_model_signature(bytes: &[u8]) -> Result<ModelSignature> {
    let mut r = Reader::new(bytes);
    let dataset = r.string("signature dataset code")?;
    let scale = r.string("signature scale")?;
    let seed = r.u64("signature seed")?;
    let signature = decode_signature_from(&mut r)?;
    r.finish()?;
    Ok(ModelSignature {
        dataset,
        scale,
        seed,
        signature,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_datagen::{generate, DatasetId, Scale};

    fn sig(id: DatasetId, seed: u64) -> Signature {
        build_signature(&generate(id, Scale::Smoke, seed))
    }

    #[test]
    fn reflexivity_is_exact() {
        for id in [DatasetId::FZ, DatasetId::AB, DatasetId::IA] {
            let s = sig(id, 7);
            assert_eq!(s.similarity(&s).to_bits(), 1.0f64.to_bits(), "{id}");
        }
        let empty = Signature {
            attributes: Vec::new(),
        };
        assert_eq!(empty.similarity(&empty), 1.0);
    }

    #[test]
    fn symmetry_is_bit_for_bit() {
        let ids = [DatasetId::FZ, DatasetId::AB, DatasetId::DA, DatasetId::IA];
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i..] {
                let (sa, sb) = (sig(a, 7), sig(b, 8));
                assert_eq!(
                    sa.similarity(&sb).to_bits(),
                    sb.similarity(&sa).to_bits(),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn similarity_is_bounded_and_ranks_siblings_first() {
        let fz7 = sig(DatasetId::FZ, 7);
        let fz8 = sig(DatasetId::FZ, 8);
        let ab7 = sig(DatasetId::AB, 7);
        for (a, b) in [(&fz7, &fz8), (&fz7, &ab7), (&fz8, &ab7)] {
            let s = a.similarity(b);
            assert!((0.0..=1.0).contains(&s), "similarity {s} out of range");
        }
        // A sibling seed of the same dataset family beats a different
        // family — the property the transfer mode's ranking relies on.
        assert!(
            fz7.similarity(&fz8) > fz7.similarity(&ab7),
            "sibling {} <= cross-family {}",
            fz7.similarity(&fz8),
            fz7.similarity(&ab7)
        );
    }

    #[test]
    fn codec_roundtrips_and_rejects_corruption() {
        let s = sig(DatasetId::FZ, 7);
        let bytes = encode_signature(&s);
        assert_eq!(decode_signature(&bytes).unwrap(), s);

        let ms = ModelSignature {
            dataset: "FZ".to_string(),
            scale: "smoke".to_string(),
            seed: 7,
            signature: s.clone(),
        };
        let bytes = encode_model_signature(&ms);
        assert_eq!(decode_model_signature(&bytes).unwrap(), ms);

        // Truncations fail typed.
        for cut in 0..bytes.len() {
            assert!(
                decode_model_signature(&bytes[..cut]).is_err(),
                "prefix of {cut} decoded"
            );
        }
        // Trailing bytes fail typed.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(
            decode_model_signature(&padded).unwrap_err(),
            StoreError::TrailingBytes(1)
        ));
    }

    #[test]
    fn decoder_enforces_canonical_form() {
        let s = sig(DatasetId::FZ, 7);
        // Unsorted attributes: swap the first two sketches.
        let mut swapped = s.clone();
        swapped.attributes.swap(0, 1);
        assert!(matches!(
            decode_signature(&encode_signature(&swapped)).unwrap_err(),
            StoreError::Malformed(_)
        ));
        // Wrong coordinate width.
        let mut narrow = s.clone();
        if let Some(a) = narrow.attributes.first_mut() {
            a.minhash.truncate(MINHASH_COORDS - 1);
        }
        assert!(matches!(
            decode_signature(&encode_signature(&narrow)).unwrap_err(),
            StoreError::Malformed(_)
        ));
        // df above doc_count.
        let mut inflated = s;
        if let Some(a) = inflated.attributes.first_mut() {
            if let Some(t) = a.top_tokens.first_mut() {
                t.1 = a.doc_count + 1;
            }
        }
        assert!(matches!(
            decode_signature(&encode_signature(&inflated)).unwrap_err(),
            StoreError::Malformed(_)
        ));
    }
}
