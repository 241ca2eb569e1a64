//! Warm-state snapshots: the sharded score cache and the featurization
//! memo.
//!
//! Both caches are keyed by **process-portable** identities on the wire:
//!
//! * the score cache's keys are already content hashes of record values —
//!   pure functions of the strings — so entries are written verbatim
//!   (sorted by key for deterministic bytes);
//! * the featurization memo is keyed by process-local
//!   [`certa_core::ValueId`]s, which must never be persisted (see the
//!   `certa_core::value` stability rules). The encoder therefore translates
//!   every id back to its value **string** via
//!   [`certa_core::AttrValue::all_interned`], and the decoder re-interns
//!   each string through the fresh process's interner before seeding — the
//!   "rebuilt through the interner so `ValueId` handles re-cons correctly"
//!   half of the persistence contract.

use crate::codec::{Reader, Writer};
use crate::container::{tag, write_container, ArtifactKind, Container};
use crate::error::{Result, StoreError};
use certa_core::hash::FxHashMap;
use certa_core::AttrValue;
use certa_models::cache::CachingMatcher;
use certa_models::features::ATTR_FEATURES;
use certa_models::memo::{EmbedArtifact, FeatureMemo};
use certa_models::Featurizer;

// ------------------------------------------------------------- score cache

/// Encode a standalone score-cache snapshot (sorted `(key, score)` entries).
pub fn encode_score_cache(cache: &CachingMatcher) -> Vec<u8> {
    encode_score_entries(&cache.snapshot())
}

/// Encode pre-extracted score entries (the form [`CachingMatcher::snapshot`]
/// returns; callers may filter before persisting).
pub fn encode_score_entries(entries: &[((u64, u64), f64)]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(entries.len() as u32);
    for &((a, b), score) in entries {
        w.u64(a);
        w.u64(b);
        w.f64(score);
    }
    write_container(
        ArtifactKind::ScoreCache,
        &[(tag::SCORE_CACHE, w.into_bytes())],
    )
}

/// Decode a score-cache snapshot back into `(key, score)` entries, ready
/// for [`CachingMatcher::seed`].
pub fn decode_score_cache(bytes: &[u8]) -> Result<Vec<((u64, u64), f64)>> {
    let c = Container::parse_kind(bytes, ArtifactKind::ScoreCache)?;
    c.restrict(&[tag::SCORE_CACHE])?;
    let mut r = Reader::new(c.require(tag::SCORE_CACHE, "score-cache")?);
    let n = r.count(24, "score-cache entries")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let a = r.u64("score key")?;
        let b = r.u64("score key")?;
        let score = r.f64("score")?;
        out.push(((a, b), score));
    }
    r.finish()?;
    Ok(out)
}

// --------------------------------------------------------------------- memo

/// Encode a featurization-memo snapshot (the `MEMO` section payload of a
/// model artifact). Ids are translated to value strings; entries are sorted
/// by string key so the bytes are deterministic for a given memo content.
pub fn encode_memo(memo: &FeatureMemo) -> Vec<u8> {
    // One reverse-lookup table for all three families.
    let by_id: FxHashMap<u32, AttrValue> = AttrValue::all_interned()
        .into_iter()
        .map(|v| (v.id().0, v))
        .collect();
    let resolve = |id: certa_core::ValueId| by_id.get(&id.0).map(|v| v.as_str().to_string());

    let mut w = Writer::new();

    let mut embed: Vec<(String, std::sync::Arc<EmbedArtifact>)> = memo
        .embed_entries()
        .into_iter()
        .filter_map(|(id, a)| resolve(id).map(|s| (s, a)))
        .collect();
    embed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    w.u32(embed.len() as u32);
    for (value, artifact) in &embed {
        w.str_(value);
        w.u64(artifact.count as u64);
        w.f64_slice(&artifact.sum);
    }

    let mut columns: Vec<(u16, String, String, std::sync::Arc<[f64]>)> = memo
        .column_entries()
        .into_iter()
        .filter_map(|((attr, a, b), col)| Some((attr, resolve(a)?, resolve(b)?, col)))
        .collect();
    columns.sort_unstable_by(|x, y| (x.0, &x.1, &x.2).cmp(&(y.0, &y.1, &y.2)));
    w.u32(columns.len() as u32);
    for (attr, a, b, col) in &columns {
        w.u16(*attr);
        w.str_(a);
        w.str_(b);
        w.f64_slice(col);
    }

    let mut segments: Vec<(String, std::sync::Arc<str>)> = memo
        .segment_entries()
        .into_iter()
        .filter_map(|(id, s)| resolve(id).map(|v| (v, s)))
        .collect();
    segments.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    w.u32(segments.len() as u32);
    for (value, segment) in &segments {
        w.str_(value);
        w.str_(segment);
    }

    w.into_bytes()
}

/// Decode a `MEMO` section payload into an existing memo: every value
/// string is re-interned (allocating a fresh, process-valid
/// [`ValueId`](certa_core::ValueId)) and its artifact seeded.
///
/// Every artifact is validated against `featurizer` **before** seeding —
/// a checksum-valid but dimensionally wrong artifact (a short DeepMatcher
/// column, an embed sum of the wrong width, entries for a family the
/// featurizer doesn't use) is a typed error here, not a panic at first
/// score when the featurizer consumes the poisoned cache.
pub fn decode_memo_into(bytes: &[u8], memo: &FeatureMemo, featurizer: &Featurizer) -> Result<()> {
    let mut r = Reader::new(bytes);

    let embed_dim = match featurizer {
        Featurizer::DeepEr { embedder } => Some(embedder.dim()),
        _ => None,
    };
    let (column_arity, column_width) = match featurizer {
        Featurizer::DeepMatcher { arity, .. } => (Some(*arity), Some(ATTR_FEATURES)),
        _ => (None, None),
    };
    let segments_allowed = matches!(featurizer, Featurizer::Ditto { .. });

    let n = r.count(4, "memo embed entries")?;
    for _ in 0..n {
        let value = AttrValue::intern(r.str_("embed value")?);
        let count = r.u64("embed token count")?;
        let sum = r.f64_vec("embed sum")?;
        let Some(dim) = embed_dim else {
            return Err(StoreError::Malformed(
                "memo carries embed artifacts but the featurizer is not DeepER".into(),
            ));
        };
        if sum.len() != dim {
            return Err(StoreError::Malformed(format!(
                "embed artifact width {} does not match embedder dimension {dim}",
                sum.len()
            )));
        }
        memo.seed_embed(
            value.id(),
            EmbedArtifact {
                sum,
                count: count as usize,
            },
        );
    }

    let n = r.count(4, "memo column entries")?;
    for _ in 0..n {
        let attr = r.u16("column attr")?;
        let a = AttrValue::intern(r.str_("column u-value")?);
        let b = AttrValue::intern(r.str_("column v-value")?);
        let col = r.f64_vec("column values")?;
        let (Some(arity), Some(width)) = (column_arity, column_width) else {
            return Err(StoreError::Malformed(
                "memo carries similarity columns but the featurizer is not DeepMatcher".into(),
            ));
        };
        if (attr as usize) >= arity {
            return Err(StoreError::Malformed(format!(
                "column attribute {attr} outside the featurizer arity {arity}"
            )));
        }
        if col.len() != width {
            return Err(StoreError::Malformed(format!(
                "similarity column width {} does not match ATTR_FEATURES {width}",
                col.len()
            )));
        }
        memo.seed_column(attr, a.id(), b.id(), col);
    }

    let n = r.count(4, "memo segment entries")?;
    for _ in 0..n {
        let value = AttrValue::intern(r.str_("segment value")?);
        let segment = r.str_("segment text")?;
        if !segments_allowed {
            return Err(StoreError::Malformed(
                "memo carries serialized segments but the featurizer is not Ditto".into(),
            ));
        }
        memo.seed_segment(value.id(), segment);
    }

    r.finish()
        .map_err(|_| StoreError::Malformed("trailing bytes inside the memo section".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::{BoxedMatcher, FnMatcher, Matcher, Record, RecordId};
    use std::sync::Arc;

    fn rec(id: u32, val: &str) -> Record {
        Record::new(RecordId(id), vec![val.to_string()])
    }

    #[test]
    fn score_cache_snapshot_roundtrips_and_seeds() {
        let base: BoxedMatcher = Arc::new(FnMatcher::new("t", |u: &Record, _: &Record| {
            u.values()[0].len() as f64 / 100.0
        }));
        let cache = CachingMatcher::new(Arc::clone(&base));
        let v = rec(99, "pivot");
        let records: Vec<Record> = (0..12).map(|i| rec(i, &format!("value {i}"))).collect();
        for u in &records {
            cache.score(u, &v);
        }
        let bytes = encode_score_cache(&cache);
        assert_eq!(bytes, encode_score_cache(&cache), "deterministic bytes");
        let entries = decode_score_cache(&bytes).unwrap();
        assert_eq!(entries, cache.snapshot());

        let fresh = CachingMatcher::new(base);
        fresh.seed(entries);
        for u in &records {
            assert_eq!(fresh.score(u, &v).to_bits(), cache.score(u, &v).to_bits());
        }
        assert_eq!(fresh.stats().misses, 0, "warm cache never hit the model");
    }

    #[test]
    fn score_cache_rejects_truncation_and_padding() {
        let base: BoxedMatcher = Arc::new(FnMatcher::new("t", |_: &Record, _: &Record| 0.5));
        let cache = CachingMatcher::new(base);
        cache.score(&rec(0, "a"), &rec(1, "b"));
        let bytes = encode_score_cache(&cache);
        for cut in 0..bytes.len() {
            assert!(decode_score_cache(&bytes[..cut]).is_err());
        }
    }

    fn deeper_featurizer(dim: usize) -> Featurizer {
        Featurizer::DeepEr {
            embedder: certa_models::HashedEmbedder::new(dim, 7),
        }
    }

    fn deepmatcher_featurizer(arity: usize) -> Featurizer {
        Featurizer::DeepMatcher {
            corpus: certa_text::CorpusStats::new(),
            arity,
        }
    }

    fn ditto_featurizer() -> Featurizer {
        Featurizer::Ditto {
            hasher: certa_ml::FeatureHasher::new(8, 3),
        }
    }

    #[test]
    fn memo_snapshot_reinterns_values_per_family() {
        let a = AttrValue::intern("snapshot test value alpha");
        let b = AttrValue::intern("snapshot test value beta");

        // DeepER: embed partials, width = embedder dim.
        let memo = FeatureMemo::new();
        memo.embed_artifact(a.id(), || EmbedArtifact {
            sum: vec![1.0, -2.0],
            count: 3,
        });
        let bytes = encode_memo(&memo);
        assert_eq!(bytes, encode_memo(&memo), "deterministic bytes");
        let fresh = FeatureMemo::new();
        decode_memo_into(&bytes, &fresh, &deeper_featurizer(2)).unwrap();
        let artifact = fresh.embed_artifact(a.id(), || unreachable!("seeded"));
        assert_eq!(artifact.sum, vec![1.0, -2.0]);
        assert_eq!(artifact.count, 3);

        // DeepMatcher: ATTR_FEATURES-wide columns.
        let memo = FeatureMemo::new();
        memo.column(1, a.id(), b.id(), || vec![0.25, 0.75, 0.0, 0.5, 0.0, 0.0]);
        let bytes = encode_memo(&memo);
        let fresh = FeatureMemo::new();
        decode_memo_into(&bytes, &fresh, &deepmatcher_featurizer(2)).unwrap();
        let col = fresh.column(1, a.id(), b.id(), || unreachable!("seeded"));
        assert_eq!(&col[..], &[0.25, 0.75, 0.0, 0.5, 0.0, 0.0]);

        // Ditto: serialized segments.
        let memo = FeatureMemo::new();
        memo.segment(b.id(), || "beta 42".to_string());
        let bytes = encode_memo(&memo);
        let fresh = FeatureMemo::new();
        decode_memo_into(&bytes, &fresh, &ditto_featurizer()).unwrap();
        let seg = fresh.segment(b.id(), || unreachable!("seeded"));
        assert_eq!(seg.text(), "beta 42");
        assert_eq!(fresh.stats().misses, 0);
    }

    #[test]
    fn memo_decode_rejects_dimension_and_family_mismatches() {
        let a = AttrValue::intern("snapshot mismatch alpha");
        let b = AttrValue::intern("snapshot mismatch beta");

        // Embed sum narrower than the embedder: typed error, no seeding.
        let memo = FeatureMemo::new();
        memo.embed_artifact(a.id(), || EmbedArtifact {
            sum: vec![1.0, -2.0],
            count: 3,
        });
        let bytes = encode_memo(&memo);
        let fresh = FeatureMemo::new();
        let err = decode_memo_into(&bytes, &fresh, &deeper_featurizer(4)).unwrap_err();
        assert!(
            matches!(err, StoreError::Malformed(ref m) if m.contains("width")),
            "{err}"
        );
        // Embed artifacts under a non-DeepER featurizer: family mismatch.
        let err = decode_memo_into(&bytes, &fresh, &ditto_featurizer()).unwrap_err();
        assert!(
            matches!(err, StoreError::Malformed(ref m) if m.contains("DeepER")),
            "{err}"
        );

        // Short column / out-of-arity attribute.
        let memo = FeatureMemo::new();
        memo.column(1, a.id(), b.id(), || vec![0.25, 0.75]);
        let bytes = encode_memo(&memo);
        let err = decode_memo_into(&bytes, &fresh, &deepmatcher_featurizer(2)).unwrap_err();
        assert!(
            matches!(err, StoreError::Malformed(ref m) if m.contains("ATTR_FEATURES")),
            "{err}"
        );
        let memo = FeatureMemo::new();
        memo.column(9, a.id(), b.id(), || vec![0.0; ATTR_FEATURES]);
        let bytes = encode_memo(&memo);
        let err = decode_memo_into(&bytes, &fresh, &deepmatcher_featurizer(2)).unwrap_err();
        assert!(
            matches!(err, StoreError::Malformed(ref m) if m.contains("arity")),
            "{err}"
        );

        // Segments under a non-Ditto featurizer.
        let memo = FeatureMemo::new();
        memo.segment(b.id(), || "beta 42".to_string());
        let bytes = encode_memo(&memo);
        let err = decode_memo_into(&bytes, &fresh, &deeper_featurizer(2)).unwrap_err();
        assert!(
            matches!(err, StoreError::Malformed(ref m) if m.contains("Ditto")),
            "{err}"
        );
    }
}
