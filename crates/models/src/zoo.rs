//! The model zoo: the three matcher families of §5.1, trained together.

use crate::rule::RuleMatcher;
use crate::trainer::{train_model, ErModel, TrainConfig, TrainReport};
use certa_core::{BoxedMatcher, Dataset};
use std::fmt;
use std::sync::Arc;

/// The three deep-learning ER systems the paper evaluates, by family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModelKind {
    /// DeepER's LSTM model → record-embedding stand-in.
    DeepEr = 0,
    /// DeepMatcher's Hybrid model → attribute-similarity stand-in.
    DeepMatcher = 1,
    /// Ditto's DistilBERT model → serialized-cross-features stand-in.
    Ditto = 2,
}

impl ModelKind {
    /// All three families, in the paper's column order.
    pub fn all() -> [ModelKind; 3] {
        [ModelKind::DeepEr, ModelKind::DeepMatcher, ModelKind::Ditto]
    }

    /// Display name used in tables ("DeepER", "DeepMatcher", "Ditto").
    pub fn paper_name(self) -> &'static str {
        match self {
            ModelKind::DeepEr => "DeepER",
            ModelKind::DeepMatcher => "DeepMatcher",
            ModelKind::Ditto => "Ditto",
        }
    }

    /// Internal model identifier (marks these as simulations).
    pub fn model_name(self) -> &'static str {
        match self {
            ModelKind::DeepEr => "deeper-sim",
            ModelKind::DeepMatcher => "deepmatcher-sim",
            ModelKind::Ditto => "ditto-sim",
        }
    }

    /// Resolve a family from either its paper name (`"DeepMatcher"`) or its
    /// internal identifier (`"deepmatcher-sim"`), case-insensitively. The
    /// name-based entry point for the serving registry and CLIs.
    pub fn from_name(name: &str) -> Result<ModelKind, String> {
        let lower = name.to_ascii_lowercase();
        ModelKind::all()
            .into_iter()
            .find(|k| lower == k.paper_name().to_ascii_lowercase() || lower == k.model_name())
            .ok_or_else(|| {
                format!(
                    "unknown model `{name}` (expected one of {})",
                    ModelKind::all().map(|k| k.paper_name()).join(", ")
                )
            })
    }
}

impl std::str::FromStr for ModelKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ModelKind::from_name(s)
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// All three trained matchers for one dataset, plus their quality reports.
pub struct TrainedZoo {
    models: Vec<(ModelKind, Arc<ErModel>, TrainReport)>,
}

impl TrainedZoo {
    /// The trained matcher of one family.
    pub fn matcher(&self, kind: ModelKind) -> BoxedMatcher {
        let model = &self
            .models
            .iter()
            .find(|(k, _, _)| *k == kind)
            .expect("zoo has all kinds")
            .1;
        Arc::clone(model) as BoxedMatcher
    }

    /// Quality report of one family.
    pub fn report(&self, kind: ModelKind) -> TrainReport {
        self.models
            .iter()
            .find(|(k, _, _)| *k == kind)
            .expect("zoo has all kinds")
            .2
    }

    /// Iterate `(kind, matcher)` pairs in paper order.
    pub fn iter(&self) -> impl Iterator<Item = (ModelKind, BoxedMatcher)> + '_ {
        self.models
            .iter()
            .map(|(k, m, _)| (*k, Arc::clone(m) as BoxedMatcher))
    }
}

/// The one name → matcher table of the command-line tools: `rule` is an
/// untrained [`RuleMatcher::uniform`] over `dataset`'s attributes, and any
/// other name resolves through [`ModelKind::from_name`] to a family
/// trained on `dataset` with its default [`TrainConfig`].
pub fn matcher_by_name(name: &str, dataset: &Dataset) -> Result<BoxedMatcher, String> {
    if name == "rule" {
        return Ok(Arc::new(RuleMatcher::uniform(
            dataset.left().schema().arity(),
        )));
    }
    let kind = ModelKind::from_name(name)?;
    let (model, _report) = train_model(kind, dataset, &TrainConfig::for_kind(kind));
    Ok(Arc::new(model))
}

/// Train all three families on one dataset with per-family default configs.
pub fn train_zoo(dataset: &Dataset) -> TrainedZoo {
    let models = ModelKind::all()
        .into_iter()
        .map(|kind| {
            let cfg = TrainConfig::for_kind(kind);
            let (model, report) = train_model(kind, dataset, &cfg);
            (kind, Arc::new(model), report)
        })
        .collect();
    TrainedZoo { models }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::Matcher;
    use certa_datagen::{generate, DatasetId, Scale};

    #[test]
    fn zoo_trains_all_three() {
        let d = generate(DatasetId::AB, Scale::Smoke, 21);
        let zoo = train_zoo(&d);
        let mut names = Vec::new();
        for (kind, matcher) in zoo.iter() {
            names.push(matcher.name().to_string());
            assert!(
                zoo.report(kind).test_f1 > 0.4,
                "{kind} F1 {}",
                zoo.report(kind).test_f1
            );
        }
        assert_eq!(names, vec!["deeper-sim", "deepmatcher-sim", "ditto-sim"]);
    }

    #[test]
    fn kinds_parse_from_either_name_form() {
        for kind in ModelKind::all() {
            assert_eq!(ModelKind::from_name(kind.paper_name()), Ok(kind));
            assert_eq!(ModelKind::from_name(kind.model_name()), Ok(kind));
            assert_eq!(kind.paper_name().to_ascii_uppercase().parse(), Ok(kind));
        }
        let err = ModelKind::from_name("bert").unwrap_err();
        assert!(err.contains("bert") && err.contains("Ditto"), "{err}");
    }

    #[test]
    fn paper_names_and_order() {
        assert_eq!(
            ModelKind::all().map(|k| k.paper_name()),
            ["DeepER", "DeepMatcher", "Ditto"]
        );
        assert_eq!(ModelKind::Ditto.to_string(), "Ditto");
    }

    #[test]
    fn matcher_accessor_returns_working_matcher() {
        let d = generate(DatasetId::FZ, Scale::Smoke, 5);
        let zoo = train_zoo(&d);
        let m = zoo.matcher(ModelKind::Ditto);
        let lp = d.split(certa_core::Split::Test)[0];
        let (u, v) = d.expect_pair(lp.pair);
        let s = m.score(u, v);
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn matchers_resolve_by_name() {
        let d = generate(DatasetId::FZ, Scale::Smoke, 5);
        let rule = matcher_by_name("rule", &d).unwrap();
        let arity = d.left().schema().arity();
        assert_eq!(rule.name(), RuleMatcher::uniform(arity).name());
        assert_eq!(matcher_by_name("ditto", &d).unwrap().name(), "ditto-sim");
        assert!(matcher_by_name("nope", &d).is_err());
    }
}
