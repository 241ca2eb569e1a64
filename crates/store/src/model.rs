//! Matcher codecs: trained [`ErModel`]s and [`RuleMatcher`]s.
//!
//! ## Determinism contract
//!
//! Encoding persists every quantity the forward pass reads — fitted
//! featurizer state (IDF tables sorted by token, embedder/hasher salts),
//! standardizer columns, and raw MLP weight bits — so a decoded model
//! scores and featurizes **bit-identically** to the in-memory original
//! (pinned by `crates/models/tests/store_props.rs`, gated in CI by
//! `bench_store`). Encoding the same model twice yields the same bytes.

use crate::codec::{Reader, Writer};
use crate::container::{tag, write_container, ArtifactKind, Container};
use crate::error::{Result, StoreError};
use crate::signature::{decode_model_signature, encode_model_signature, ModelSignature};
use crate::snapshot::{decode_memo_into, encode_memo};
use certa_ml::{Activation, DenseSnapshot, FeatureHasher, Mlp, MlpSnapshot};
use certa_models::{ErModel, Featurizer, HashedEmbedder, ModelKind, RuleMatcher};
use certa_text::CorpusStats;

// ------------------------------------------------------------------ ErModel

/// Encode a trained model (featurizer + standardizer + MLP). The model's
/// featurization memo is **not** included — see
/// [`encode_er_model_with_memo`]. Deterministic: same model, same bytes.
pub fn encode_er_model(model: &ErModel) -> Vec<u8> {
    encode_model_sections(model, None, None)
}

/// [`encode_er_model`] plus a snapshot of the model's warm featurization
/// memo (when enabled and non-empty), so a fresh process can skip the
/// per-value artifact recomputation too. The memo section's size tracks the
/// number of distinct values seen, so this is the right call for
/// checkpointing a *serving* model, while plain [`encode_er_model`] is the
/// deterministic form golden tests pin.
pub fn encode_er_model_with_memo(model: &ErModel) -> Vec<u8> {
    encode_model_sections(model, memo_section(model), None)
}

/// [`encode_er_model_with_memo`] plus a SIGNATURE section carrying the
/// training dataset's sketch and provenance — the form the repository
/// index can rank without decoding any weights.
pub fn encode_er_model_signed(model: &ErModel, ms: &ModelSignature) -> Vec<u8> {
    encode_model_sections(model, memo_section(model), Some(encode_model_signature(ms)))
}

fn memo_section(model: &ErModel) -> Option<Vec<u8>> {
    model
        .feature_memo()
        .filter(|m| !m.is_empty())
        .map(|m| encode_memo(m))
}

fn encode_model_sections(
    model: &ErModel,
    memo: Option<Vec<u8>>,
    signature: Option<Vec<u8>>,
) -> Vec<u8> {
    let mut meta = Writer::new();
    meta.u8(model.kind() as u8);

    let mut sections = vec![
        (tag::META, meta.into_bytes()),
        (tag::FEATURIZER, encode_featurizer(model.featurizer())),
        (tag::STANDARDIZER, encode_standardizer(model)),
        (tag::MLP, encode_mlp(model.net())),
    ];
    if let Some(memo_bytes) = memo {
        sections.push((tag::MEMO, memo_bytes));
    }
    if let Some(sig_bytes) = signature {
        sections.push((tag::SIGNATURE, sig_bytes));
    }
    write_container(ArtifactKind::Model, &sections)
}

/// Decode a model artifact. When a memo section is present its artifacts
/// are re-interned and seeded into the fresh model's memo, warm-starting
/// the per-value featurization cache.
pub fn decode_er_model(bytes: &[u8]) -> Result<ErModel> {
    let c = Container::parse_kind(bytes, ArtifactKind::Model)?;
    c.restrict(&[
        tag::META,
        tag::FEATURIZER,
        tag::STANDARDIZER,
        tag::MLP,
        tag::MEMO,
        tag::SIGNATURE,
    ])?;

    let mut meta = Reader::new(c.require(tag::META, "meta")?);
    let kind = model_kind_from_code(meta.u8("model kind")?)?;
    meta.finish()?;

    let featurizer = decode_featurizer(c.require(tag::FEATURIZER, "featurizer")?)?;
    if featurizer_family(&featurizer) != kind {
        return Err(StoreError::Malformed(format!(
            "featurizer family {:?} does not match model kind {kind:?}",
            featurizer_family(&featurizer)
        )));
    }
    let dim = featurizer.dim();

    let mut std_r = Reader::new(c.require(tag::STANDARDIZER, "standardizer")?);
    let mean = std_r.f64_vec("standardizer mean")?;
    let std = std_r.f64_vec("standardizer std")?;
    std_r.finish()?;
    if mean.len() != dim || std.len() != dim {
        return Err(StoreError::Malformed(format!(
            "standardizer width {}/{} does not match featurizer width {dim}",
            mean.len(),
            std.len()
        )));
    }
    let standardizer = certa_ml::dataset::Standardizer::from_parts(mean, std);

    let net = decode_mlp(c.require(tag::MLP, "mlp")?)?;
    if net.input_dim() != dim {
        return Err(StoreError::Malformed(format!(
            "network input width {} does not match featurizer width {dim}",
            net.input_dim()
        )));
    }

    let model = ErModel::from_parts(kind, featurizer, standardizer, net);
    if let Some(memo_bytes) = c.section(tag::MEMO) {
        let Some(memo) = model.feature_memo() else {
            return Err(StoreError::Malformed(
                "decoded model has no feature memo to restore into".into(),
            ));
        };
        decode_memo_into(memo_bytes, memo, model.featurizer())?;
    }
    Ok(model)
}

/// Read just the stored model family from an artifact's META section —
/// container structure and checksums are verified, but no weights are
/// decoded. This is how `load_model` rejects a wrong-kind file *before*
/// paying for (and trusting) the full decode, and it is cheap enough for
/// the repository scan.
pub fn peek_model_kind(bytes: &[u8]) -> Result<ModelKind> {
    let c = Container::parse_kind(bytes, ArtifactKind::Model)?;
    let mut meta = Reader::new(c.require(tag::META, "meta")?);
    let kind = model_kind_from_code(meta.u8("model kind")?)?;
    meta.finish()?;
    Ok(kind)
}

/// Read a model artifact's signature section, if present, without decoding
/// any weights. `Ok(None)` means a valid artifact saved without a
/// signature (e.g. through plain [`encode_er_model_with_memo`]).
pub fn peek_model_signature(bytes: &[u8]) -> Result<Option<ModelSignature>> {
    let c = Container::parse_kind(bytes, ArtifactKind::Model)?;
    match c.section(tag::SIGNATURE) {
        Some(payload) => Ok(Some(decode_model_signature(payload)?)),
        None => Ok(None),
    }
}

fn model_kind_from_code(code: u8) -> Result<ModelKind> {
    match code {
        0 => Ok(ModelKind::DeepEr),
        1 => Ok(ModelKind::DeepMatcher),
        2 => Ok(ModelKind::Ditto),
        other => Err(StoreError::Malformed(format!("unknown model kind {other}"))),
    }
}

fn featurizer_family(f: &Featurizer) -> ModelKind {
    match f {
        Featurizer::DeepEr { .. } => ModelKind::DeepEr,
        Featurizer::DeepMatcher { .. } => ModelKind::DeepMatcher,
        Featurizer::Ditto { .. } => ModelKind::Ditto,
    }
}

fn encode_standardizer(model: &ErModel) -> Vec<u8> {
    let mut w = Writer::new();
    w.f64_slice(model.standardizer().mean());
    w.f64_slice(model.standardizer().std());
    w.into_bytes()
}

// --------------------------------------------------------------- featurizer

fn encode_featurizer(f: &Featurizer) -> Vec<u8> {
    let mut w = Writer::new();
    match f {
        Featurizer::DeepEr { embedder } => {
            w.u8(0);
            w.u32(embedder.dim() as u32);
            w.u64(embedder.salt());
        }
        Featurizer::DeepMatcher { corpus, arity } => {
            w.u8(1);
            w.u32(*arity as u32);
            w.u64(corpus.doc_count() as u64);
            // Sorted by token so the encoding (and therefore the file
            // checksum) is independent of hash-map iteration order.
            let mut entries: Vec<(&str, usize)> = corpus.df_entries().collect();
            entries.sort_unstable();
            w.u32(entries.len() as u32);
            for (token, df) in entries {
                w.str_(token);
                w.u64(df as u64);
            }
        }
        Featurizer::Ditto { hasher } => {
            w.u8(2);
            w.u32(hasher.dim() as u32);
            w.u64(hasher.salt());
        }
    }
    w.into_bytes()
}

/// Bound on featurizer widths: generous versus the in-tree configurations
/// (24/48 dimensions) but small enough that a hostile header cannot demand
/// gigabyte weight matrices downstream.
const MAX_FEATURIZER_DIM: u32 = 1 << 16;

fn decode_featurizer(bytes: &[u8]) -> Result<Featurizer> {
    let mut r = Reader::new(bytes);
    let family = r.u8("featurizer family")?;
    let f = match family {
        0 | 2 => {
            let dim = r.u32("featurizer dim")?;
            let salt = r.u64("featurizer salt")?;
            if dim == 0 || dim > MAX_FEATURIZER_DIM {
                return Err(StoreError::Malformed(format!(
                    "featurizer dimension {dim} outside 1..={MAX_FEATURIZER_DIM}"
                )));
            }
            if family == 0 {
                Featurizer::DeepEr {
                    embedder: HashedEmbedder::new(dim as usize, salt),
                }
            } else {
                Featurizer::Ditto {
                    hasher: FeatureHasher::new(dim as usize, salt),
                }
            }
        }
        1 => {
            let arity = r.u32("featurizer arity")?;
            if arity == 0 || arity > u16::MAX as u32 {
                return Err(StoreError::Malformed(format!(
                    "featurizer arity {arity} outside 1..={}",
                    u16::MAX
                )));
            }
            let doc_count = r.u64("corpus doc count")?;
            let n = r.count(5, "corpus df entries")?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let token = r.string("df token")?;
                let df = r.u64("df count")?;
                entries.push((token, df as usize));
            }
            Featurizer::DeepMatcher {
                corpus: CorpusStats::from_parts(doc_count as usize, entries),
                arity: arity as usize,
            }
        }
        other => {
            return Err(StoreError::Malformed(format!(
                "unknown featurizer family {other}"
            )))
        }
    };
    r.finish()?;
    Ok(f)
}

// ---------------------------------------------------------------------- MLP

fn activation_code(a: Activation) -> u8 {
    match a {
        Activation::Linear => 0,
        Activation::Relu => 1,
        Activation::Tanh => 2,
        Activation::Sigmoid => 3,
    }
}

fn activation_from_code(code: u8) -> Result<Activation> {
    match code {
        0 => Ok(Activation::Linear),
        1 => Ok(Activation::Relu),
        2 => Ok(Activation::Tanh),
        3 => Ok(Activation::Sigmoid),
        other => Err(StoreError::Malformed(format!("unknown activation {other}"))),
    }
}

fn encode_mlp(net: &Mlp) -> Vec<u8> {
    let snapshot = net.snapshot();
    let mut w = Writer::new();
    w.u32(snapshot.input_dim as u32);
    w.u8(snapshot.layers.len() as u8);
    for layer in &snapshot.layers {
        w.u32(layer.rows as u32);
        w.u32(layer.cols as u32);
        w.u8(activation_code(layer.activation));
        w.f64_slice(&layer.weights);
        w.f64_slice(&layer.bias);
    }
    w.into_bytes()
}

fn decode_mlp(bytes: &[u8]) -> Result<Mlp> {
    let mut r = Reader::new(bytes);
    let input_dim = r.u32("mlp input dim")? as usize;
    let layer_count = r.u8("mlp layer count")? as usize;
    let mut layers = Vec::with_capacity(layer_count);
    for _ in 0..layer_count {
        let rows = r.u32("layer rows")? as usize;
        let cols = r.u32("layer cols")? as usize;
        let activation = activation_from_code(r.u8("layer activation")?)?;
        let weights = r.f64_vec("layer weights")?;
        let bias = r.f64_vec("layer bias")?;
        layers.push(DenseSnapshot {
            rows,
            cols,
            weights,
            bias,
            activation,
        });
    }
    r.finish()?;
    Mlp::from_snapshot(MlpSnapshot { input_dim, layers }).map_err(StoreError::Malformed)
}

// -------------------------------------------------------------- RuleMatcher

/// Encode a [`RuleMatcher`] (weights, threshold, sharpness).
pub fn encode_rule_matcher(m: &RuleMatcher) -> Vec<u8> {
    let mut w = Writer::new();
    w.f64_slice(m.weights());
    w.f64(m.threshold());
    w.f64(m.sharpness());
    write_container(ArtifactKind::Rule, &[(tag::RULE, w.into_bytes())])
}

/// Decode a [`RuleMatcher`], validating the constructor invariants (weights
/// non-empty, non-negative, not all zero, everything finite) before calling
/// into the panicking builder.
pub fn decode_rule_matcher(bytes: &[u8]) -> Result<RuleMatcher> {
    let c = Container::parse_kind(bytes, ArtifactKind::Rule)?;
    c.restrict(&[tag::RULE])?;
    let mut r = Reader::new(c.require(tag::RULE, "rule")?);
    let weights = r.f64_vec("rule weights")?;
    let threshold = r.f64("rule threshold")?;
    let sharpness = r.f64("rule sharpness")?;
    r.finish()?;
    if weights.is_empty() {
        return Err(StoreError::Malformed("rule matcher has no weights".into()));
    }
    if !weights.iter().all(|w| w.is_finite() && *w >= 0.0) {
        return Err(StoreError::Malformed(
            "rule weights must be finite and non-negative".into(),
        ));
    }
    if weights.iter().sum::<f64>() <= 0.0 {
        return Err(StoreError::Malformed(
            "rule weights must not all be zero".into(),
        ));
    }
    if !threshold.is_finite() || !sharpness.is_finite() {
        return Err(StoreError::Malformed(
            "rule threshold and sharpness must be finite".into(),
        ));
    }
    Ok(RuleMatcher::with_weights(weights)
        .with_threshold(threshold)
        .with_sharpness(sharpness))
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::{Matcher, Record, RecordId, Split};
    use certa_datagen::{generate, DatasetId, Scale};
    use certa_models::{train_model, TrainConfig};

    fn rec(id: u32, vals: &[&str]) -> Record {
        Record::new(RecordId(id), vals.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn trained_models_roundtrip_bit_identically() {
        let d = generate(DatasetId::AB, Scale::Smoke, 9);
        for kind in ModelKind::all() {
            let (model, _) = train_model(kind, &d, &TrainConfig::for_kind(kind));
            let bytes = encode_er_model(&model);
            let decoded = decode_er_model(&bytes).unwrap();
            assert_eq!(decoded.kind(), kind);
            assert_eq!(decoded.name(), model.name());
            for lp in d.split(Split::Test) {
                let (u, v) = d.expect_pair(lp.pair);
                assert_eq!(
                    decoded.score(u, v).to_bits(),
                    model.score(u, v).to_bits(),
                    "{kind:?} diverged on {:?}",
                    lp.pair
                );
                assert_eq!(
                    decoded.featurizer().features(u, v),
                    model.featurizer().features(u, v),
                    "{kind:?} featurization diverged"
                );
            }
            assert_eq!(bytes, encode_er_model(&model), "encoding is deterministic");
        }
    }

    #[test]
    fn memo_section_warm_starts_the_decoded_model() {
        let d = generate(DatasetId::AB, Scale::Smoke, 5);
        let (u, v) = d.expect_pair(d.split(Split::Test)[0].pair);
        for kind in ModelKind::all() {
            let (model, _) = train_model(kind, &d, &TrainConfig::for_kind(kind));
            let warm_score = model.score(u, v);
            assert!(model.memo_len() > 0, "{kind}: scoring populated the memo");

            let bytes = encode_er_model_with_memo(&model);
            assert!(
                bytes.len() > encode_er_model(&model).len(),
                "{kind}: memo section adds bytes"
            );
            let decoded = decode_er_model(&bytes).unwrap();
            assert_eq!(
                decoded.memo_len(),
                model.memo_len(),
                "{kind}: memo re-seeded"
            );
            // The warm pair scores without any memo miss: Ditto derives
            // each seeded segment's parts on first use, not by recomputing.
            assert_eq!(
                decoded.score(u, v).to_bits(),
                warm_score.to_bits(),
                "{kind}: score"
            );
            let stats = decoded.memo_stats();
            assert_eq!(
                stats.misses, 0,
                "{kind}: all artifacts served from the snapshot"
            );
            assert!(stats.hits > 0, "{kind}: memo hits");
            assert_eq!(
                encode_er_model_with_memo(&decoded),
                bytes,
                "{kind}: the decoded memo re-encodes to the same bytes"
            );
        }
    }

    #[test]
    fn rule_matcher_roundtrips_and_validates() {
        let m = RuleMatcher::with_weights(vec![1.0, 0.0, 2.5])
            .with_threshold(0.4)
            .with_sharpness(6.0);
        let bytes = encode_rule_matcher(&m);
        let decoded = decode_rule_matcher(&bytes).unwrap();
        let u = rec(0, &["sony bravia", "black", "100"]);
        let v = rec(1, &["sony cinema", "black", "120"]);
        assert_eq!(decoded.score(&u, &v).to_bits(), m.score(&u, &v).to_bits());

        // Hostile parameter values are typed errors, not panics.
        let mut bad = Writer::new();
        bad.f64_slice(&[-1.0]);
        bad.f64(0.5);
        bad.f64(8.0);
        let bytes = write_container(ArtifactKind::Rule, &[(tag::RULE, bad.into_bytes())]);
        assert!(matches!(
            decode_rule_matcher(&bytes).unwrap_err(),
            StoreError::Malformed(_)
        ));

        let mut zeros = Writer::new();
        zeros.f64_slice(&[0.0, 0.0]);
        zeros.f64(0.5);
        zeros.f64(f64::NAN);
        let bytes = write_container(ArtifactKind::Rule, &[(tag::RULE, zeros.into_bytes())]);
        assert!(decode_rule_matcher(&bytes).is_err());
    }

    #[test]
    fn signed_models_roundtrip_and_peek_without_decoding() {
        let d = generate(DatasetId::FZ, Scale::Smoke, 4);
        let kind = ModelKind::DeepEr;
        let (model, _) = train_model(kind, &d, &TrainConfig::for_kind(kind));
        let ms = ModelSignature {
            dataset: "FZ".to_string(),
            scale: "smoke".to_string(),
            seed: 4,
            signature: crate::signature::build_signature(&d),
        };
        let bytes = encode_er_model_signed(&model, &ms);

        // The signature rides along without disturbing the weights.
        let decoded = decode_er_model(&bytes).unwrap();
        let (u, v) = d.expect_pair(d.split(Split::Test)[0].pair);
        assert_eq!(decoded.score(u, v).to_bits(), model.score(u, v).to_bits());

        // Peeks read META/SIGNATURE without a full decode.
        assert_eq!(peek_model_kind(&bytes).unwrap(), kind);
        let peeked = peek_model_signature(&bytes).unwrap().expect("signed");
        assert_eq!(peeked.dataset, "FZ");
        assert_eq!(peeked.seed, 4);
        assert_eq!(
            peeked.signature.similarity(&ms.signature).to_bits(),
            1.0f64.to_bits(),
            "persisted signature is the built one"
        );

        // Signature-less artifacts (the pre-repository save path) still
        // load and peek as unsigned.
        let plain = encode_er_model_with_memo(&model);
        assert!(peek_model_signature(&plain).unwrap().is_none());
        assert_eq!(peek_model_kind(&plain).unwrap(), kind);
        assert!(decode_er_model(&plain).is_ok());
    }

    #[test]
    fn mismatched_widths_are_malformed() {
        let d = generate(DatasetId::AB, Scale::Smoke, 2);
        let kind = ModelKind::Ditto;
        let (model, _) = train_model(kind, &d, &TrainConfig::for_kind(kind));
        let bytes = encode_er_model(&model);
        let c = Container::parse(&bytes).unwrap();
        // Re-assemble with a standardizer one column short.
        let std_bytes = {
            let mut w = Writer::new();
            w.f64_slice(&vec![0.0; model.featurizer().dim() - 1]);
            w.f64_slice(&vec![1.0; model.featurizer().dim() - 1]);
            w.into_bytes()
        };
        let sections: Vec<(u32, Vec<u8>)> = c
            .sections
            .iter()
            .map(|&(t, p)| {
                if t == tag::STANDARDIZER {
                    (t, std_bytes.clone())
                } else {
                    (t, p.to_vec())
                }
            })
            .collect();
        let tampered = write_container(ArtifactKind::Model, &sections);
        let err = decode_er_model(&tampered).unwrap_err();
        assert!(
            matches!(err, StoreError::Malformed(ref m) if m.contains("standardizer")),
            "{err}"
        );
    }
}
