//! Deterministic hashed word embeddings.
//!
//! DeepER uses pre-trained fastText/GloVe vectors; offline we substitute
//! *hash-derived* pseudo-random embeddings: each token's vector is generated
//! by seeding a PRNG with the token's hash, so the same token always maps to
//! the same vector, distinct tokens map to near-orthogonal vectors (the
//! Johnson-Lindenstrauss regime), and no embedding file is needed. Records
//! that share many tokens therefore get nearby mean-pooled embeddings, which
//! is the property the matcher learns from. The trade-off is no semantic
//! neighbourhood between *different* tokens ("tv" vs "television").

use crate::memo::EmbedArtifact;
use certa_core::hash::fx_hash_one;
use certa_core::{AttrValue, Record};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Embeds tokens, attribute values, and whole records into `dim`-dimensional
/// unit vectors.
#[derive(Debug, Clone, Copy)]
pub struct HashedEmbedder {
    dim: usize,
    salt: u64,
}

impl HashedEmbedder {
    /// Embedder with `dim` dimensions; `salt` decorrelates embedders.
    pub fn new(dim: usize, salt: u64) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        HashedEmbedder { dim, salt }
    }

    /// Output dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The decorrelation salt this embedder was built with (persisted by
    /// `certa-store` so a reloaded embedder reproduces identical vectors).
    pub fn salt(&self) -> u64 {
        self.salt
    }

    /// The fixed pseudo-random unit vector of one token.
    pub fn token_vector(&self, token: &str) -> Vec<f64> {
        let seed = fx_hash_one(&(self.salt, token));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v: Vec<f64> = (0..self.dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        normalize(&mut v);
        v
    }

    /// Mean-pooled embedding of a token sequence (zero vector when empty).
    #[cfg(test)]
    pub fn embed_text(&self, text: &str) -> Vec<f64> {
        let cleaned = certa_core::tokens::clean(text);
        let (acc, count) = self.sum_tokens(certa_core::tokens::tokens(&cleaned));
        Self::finish_mean(acc, count)
    }

    /// Sum of a token sequence's vectors plus the token count — the
    /// compositional building block record embeddings fold over.
    fn sum_tokens<'a>(&self, toks: impl IntoIterator<Item = &'a str>) -> (Vec<f64>, usize) {
        let mut acc = vec![0.0; self.dim];
        let mut count = 0usize;
        for t in toks {
            let tv = self.token_vector(t);
            for (a, x) in acc.iter_mut().zip(tv.iter()) {
                *a += x;
            }
            count += 1;
        }
        (acc, count)
    }

    /// Per-value embedding artifact: the un-normalized token-vector sum over
    /// the value's cached cleaned tokens. Pure in the value content — the
    /// featurizer memo caches these by [`certa_core::ValueId`].
    pub fn value_artifact(&self, value: &AttrValue) -> EmbedArtifact {
        let (sum, count) = self.sum_tokens(value.clean_tokens());
        EmbedArtifact { sum, count }
    }

    /// Turn a token-vector sum into the final mean-pooled unit embedding
    /// (zero vector when no tokens contributed).
    pub fn finish_mean(mut acc: Vec<f64>, count: usize) -> Vec<f64> {
        if count == 0 {
            return acc;
        }
        let n = count as f64;
        acc.iter_mut().for_each(|a| *a /= n);
        normalize(&mut acc);
        acc
    }

    /// Record embedding: mean-pooled embedding of all attribute values'
    /// tokens (DeepER's record-level composition), folded from per-value
    /// artifacts in schema order — the same fold the memoized path uses, so
    /// both produce bit-identical embeddings.
    pub fn embed_record(&self, r: &Record) -> Vec<f64> {
        let mut acc = vec![0.0; self.dim];
        let mut total = 0usize;
        for value in r.values() {
            let artifact = self.value_artifact(value);
            for (a, x) in acc.iter_mut().zip(artifact.sum.iter()) {
                *a += x;
            }
            total += artifact.count;
        }
        Self::finish_mean(acc, total)
    }
}

fn normalize(v: &mut [f64]) {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        v.iter_mut().for_each(|x| *x /= norm);
    }
}

/// Cosine similarity of two embeddings (0 when either is the zero vector).
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let dot: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na * nb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::RecordId;

    fn emb() -> HashedEmbedder {
        HashedEmbedder::new(32, 7)
    }

    #[test]
    fn token_vectors_deterministic_and_unit() {
        let e = emb();
        let a = e.token_vector("sony");
        let b = e.token_vector("sony");
        assert_eq!(a, b);
        let norm: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn distinct_tokens_near_orthogonal() {
        let e = HashedEmbedder::new(64, 3);
        let a = e.token_vector("sony");
        let b = e.token_vector("panasonic");
        assert!(cosine(&a, &b).abs() < 0.5, "cos = {}", cosine(&a, &b));
    }

    #[test]
    fn shared_tokens_raise_text_similarity() {
        let e = emb();
        let base = e.embed_text("sony bravia theater system");
        let close = e.embed_text("sony bravia theater");
        let far = e.embed_text("canon pixma printer ink");
        assert!(cosine(&base, &close) > cosine(&base, &far));
        assert!(cosine(&base, &close) > 0.6);
    }

    #[test]
    fn empty_text_embeds_to_zero() {
        let e = emb();
        let z = e.embed_text("");
        assert!(z.iter().all(|&x| x == 0.0));
        assert_eq!(cosine(&z, &z), 0.0);
    }

    #[test]
    fn record_embedding_spans_attributes() {
        let e = emb();
        let r1 = Record::new(RecordId(0), vec!["sony tv".into(), "black".into()]);
        let r2 = Record::new(RecordId(1), vec!["sony tv black".into(), String::new()]);
        // Same token multiset → same embedding.
        let v1 = e.embed_record(&r1);
        let v2 = e.embed_record(&r2);
        assert!(cosine(&v1, &v2) > 0.999);
    }

    #[test]
    fn cleaning_normalizes_case_and_punct() {
        let e = emb();
        let a = e.embed_text("Sony BRAVIA!");
        let b = e.embed_text("sony bravia");
        assert!(cosine(&a, &b) > 0.999);
    }

    #[test]
    fn different_salts_give_different_spaces() {
        let e1 = HashedEmbedder::new(32, 1);
        let e2 = HashedEmbedder::new(32, 2);
        assert_ne!(e1.token_vector("sony"), e2.token_vector("sony"));
    }
}
