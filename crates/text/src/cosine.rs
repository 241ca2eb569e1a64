//! Cosine similarity over IDF-weighted term-frequency vectors.

use certa_core::hash::FxHashMap;

fn tf<'a>(toks: impl IntoIterator<Item = &'a str>) -> FxHashMap<&'a str, f64> {
    let mut m: FxHashMap<&str, f64> = FxHashMap::default();
    for t in toks {
        *m.entry(t).or_insert(0.0) += 1.0;
    }
    m
}

fn cosine_of(ta: &FxHashMap<&str, f64>, tb: &FxHashMap<&str, f64>, corpus: &CorpusStats) -> f64 {
    let mut dot = 0.0;
    // Iteration order here chooses the float-summation order, which picks
    // the rounding of `dot` and the norms. FxHashMap iteration is a pure
    // function of the insertion sequence (FxHash has no per-process
    // RandomState), and tokenization builds these maps in text order, so
    // the sums are bit-stable across runs and platforms. Sorting instead
    // would *change* the pinned bits and invalidate every golden fixture.
    // certa-lint: allow(no-unordered-iteration) — FxHashMap order is a pure function of the insertion sequence; sorting would change summed-float rounding pinned by golden fixtures
    for (tok, &fa) in ta {
        if let Some(&fb) = tb.get(tok) {
            let w = corpus.idf(tok);
            dot += fa * w * fb * w;
        }
    }
    let na: f64 = ta
        // certa-lint: allow(no-unordered-iteration) — same insertion-ordered float sum as `dot` above
        .iter()
        .map(|(t, f)| (f * corpus.idf(t)).powi(2))
        .sum::<f64>()
        .sqrt();
    let nb: f64 = tb
        // certa-lint: allow(no-unordered-iteration) — same insertion-ordered float sum as `dot` above
        .iter()
        .map(|(t, f)| (f * corpus.idf(t)).powi(2))
        .sum::<f64>()
        .sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na * nb)
}

/// Document-frequency statistics over a corpus of strings, providing smoothed
/// IDF weights: `ln(1 + N / (1 + df))`.
///
/// The DeepMatcher-style matcher weighs attribute tokens by corpus IDF so
/// that brand names ("sony") count less than model numbers ("davis50b") —
/// matching how the real systems lean on distinctive tokens.
#[derive(Debug, Clone, Default)]
pub struct CorpusStats {
    doc_count: usize,
    df: FxHashMap<String, usize>,
}

impl CorpusStats {
    /// Empty corpus (all tokens get the same weight).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one document's distinct tokens.
    pub fn add_document_tokens<'a>(&mut self, toks: impl IntoIterator<Item = &'a str>) {
        self.doc_count += 1;
        let mut seen: certa_core::hash::FxHashSet<&str> = certa_core::hash::FxHashSet::default();
        for t in toks {
            if seen.insert(t) {
                *self.df.entry(t.to_string()).or_insert(0) += 1;
            }
        }
    }

    /// Number of documents added.
    pub fn doc_count(&self) -> usize {
        self.doc_count
    }

    /// Every `(token, document frequency)` entry, in map order (callers that
    /// need determinism — e.g. the `certa-store` codec — sort the result).
    pub fn df_entries(&self) -> impl Iterator<Item = (&str, usize)> {
        // certa-lint: allow(no-unordered-iteration) — raw export; the certa-store codec sorts before encoding (pinned by its snapshot tests)
        self.df.iter().map(|(t, &c)| (t.as_str(), c))
    }

    /// Rebuild fitted statistics from exported entries (the persistence
    /// path). Duplicate tokens keep the last count.
    pub fn from_parts(
        doc_count: usize,
        entries: impl IntoIterator<Item = (String, usize)>,
    ) -> Self {
        CorpusStats {
            doc_count,
            df: entries.into_iter().collect(),
        }
    }

    /// Smoothed inverse document frequency of a token.
    pub fn idf(&self, token: &str) -> f64 {
        let df = self.df.get(token).copied().unwrap_or(0);
        (1.0 + self.doc_count as f64 / (1.0 + df as f64)).ln()
    }

    /// TF-IDF cosine similarity of two token views under this corpus'
    /// weights.
    pub fn cosine_tfidf_tokens<'a>(
        &self,
        a: impl IntoIterator<Item = &'a str>,
        b: impl IntoIterator<Item = &'a str>,
    ) -> f64 {
        let ta = tf(a);
        let tb = tf(b);
        if ta.is_empty() && tb.is_empty() {
            return 1.0;
        }
        cosine_of(&ta, &tb, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::tokens::tokens;
    use proptest::prelude::*;

    /// TF-IDF cosine under a corpus of one document holding every test
    /// token once, so each of them weighs the same and the cosine is the
    /// plain term-frequency one.
    fn tf_cosine(a: &str, b: &str) -> f64 {
        let mut corpus = CorpusStats::new();
        corpus.add_document_tokens(tokens("a b c"));
        corpus.cosine_tfidf_tokens(tokens(a), tokens(b))
    }

    #[test]
    fn cosine_known_values() {
        assert!((tf_cosine("a b", "a b") - 1.0).abs() < 1e-12);
        assert_eq!(tf_cosine("a", "b"), 0.0);
        // ("a b", "a c"): dot = 1, norms = sqrt(2) each → 0.5
        assert!((tf_cosine("a b", "a c") - 0.5).abs() < 1e-12);
        assert_eq!(tf_cosine("", ""), 1.0);
        assert_eq!(tf_cosine("a", ""), 0.0);
    }

    #[test]
    fn tf_weighting_counts_repeats() {
        // "a a b" = (2,1); "a b" = (1,1): dot = 3, norms √5·√2 → 3/√10
        let expected = 3.0 / (10.0f64).sqrt();
        assert!((tf_cosine("a a b", "a b") - expected).abs() < 1e-12);
    }

    #[test]
    fn idf_downweights_common_tokens() {
        let mut c = CorpusStats::new();
        for _ in 0..50 {
            c.add_document_tokens(tokens("sony product"));
        }
        c.add_document_tokens(tokens("davis50b rare"));
        assert!(c.idf("davis50b") > c.idf("sony"));
        assert!(c.idf("unseen-token") > c.idf("davis50b"));
        assert_eq!(c.doc_count(), 51);
    }

    #[test]
    fn parts_roundtrip_preserves_weights() {
        let mut c = CorpusStats::new();
        c.add_document_tokens(tokens("sony tv common"));
        c.add_document_tokens(tokens("sony rare davis50b"));
        let entries: Vec<(String, usize)> =
            c.df_entries().map(|(t, n)| (t.to_string(), n)).collect();
        let rebuilt = CorpusStats::from_parts(c.doc_count(), entries);
        assert_eq!(rebuilt.doc_count(), 2);
        for tok in ["sony", "tv", "davis50b", "unseen"] {
            assert_eq!(rebuilt.idf(tok).to_bits(), c.idf(tok).to_bits());
        }
        let (a, b) = (tokens("sony tv"), tokens("sony davis50b"));
        assert_eq!(
            rebuilt.cosine_tfidf_tokens(a.clone(), b.clone()).to_bits(),
            c.cosine_tfidf_tokens(a, b).to_bits()
        );
    }

    #[test]
    fn tfidf_prefers_distinctive_overlap() {
        let mut c = CorpusStats::new();
        for _ in 0..40 {
            c.add_document_tokens(tokens("sony tv common words"));
        }
        c.add_document_tokens(tokens("davis50b"));
        c.add_document_tokens(tokens("im600usb"));
        // Shared rare token beats shared common token.
        let rare = c.cosine_tfidf_tokens(tokens("davis50b sony"), tokens("davis50b tv"));
        let common = c.cosine_tfidf_tokens(tokens("sony davis50b"), tokens("sony im600usb"));
        assert!(rare > common);
    }

    proptest! {
        #[test]
        fn cosine_bounded_symmetric(a in "[a-c ]{0,16}", b in "[a-c ]{0,16}") {
            let s = tf_cosine(&a, &b);
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&s));
            prop_assert!((s - tf_cosine(&b, &a)).abs() < 1e-12);
        }

        #[test]
        fn tfidf_identity_is_one(a in "[a-z]{1,8}( [a-z]{1,8}){0,4}") {
            let mut c = CorpusStats::new();
            c.add_document_tokens(tokens(&a));
            prop_assert!((c.cosine_tfidf_tokens(tokens(&a), tokens(&a)) - 1.0).abs() < 1e-9);
        }
    }
}
