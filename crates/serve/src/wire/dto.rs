//! Data-transfer objects: domain types ⇄ [`Json`] wire values.
//!
//! Encoding is total (every domain value has a wire form) and
//! deterministic — field order is fixed, so a [`CertaExplanation`] always
//! serializes to the same bytes. Decoding validates shape and reports
//! field-level errors (`pairs[3].left.values` …) that surface as structured
//! `400` responses.

use crate::wire::json::Json;
use certa_core::{MatchLabel, Prediction, Record, RecordId, Side};
use certa_explain::{
    AttrRef, CertaExplanation, CounterfactualExample, CounterfactualExplanation, LatticeStats,
    SaliencyExplanation, TriangleStats,
};

/// A decode failure: which field, and what was wrong with it.
#[derive(Debug, Clone, PartialEq)]
pub struct DtoError {
    /// Dotted path to the offending field (e.g. `pairs[2].left_id`).
    pub field: String,
    /// What was expected.
    pub message: String,
}

impl std::fmt::Display for DtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "field `{}`: {}", self.field, self.message)
    }
}

impl std::error::Error for DtoError {}

fn expected(field: &str, message: impl Into<String>) -> DtoError {
    DtoError {
        field: field.to_string(),
        message: message.into(),
    }
}

// ---------------------------------------------------------------- encoding

/// The wire spelling of a table side: `"left"` or `"right"`.
pub fn side_name(side: Side) -> &'static str {
    match side {
        Side::Left => "left",
        Side::Right => "right",
    }
}

/// `{"id":0,"values":["a","b"]}`
pub fn record_to_json(r: &Record) -> Json {
    Json::obj([
        ("id", Json::num(r.id().0 as f64)),
        (
            "values",
            Json::Arr(r.values().iter().map(Json::str).collect()),
        ),
    ])
}

/// `"match"` / `"non_match"` — the wire spelling of [`MatchLabel`].
pub fn label_to_json(label: MatchLabel) -> Json {
    Json::str(match label {
        MatchLabel::Match => "match",
        MatchLabel::NonMatch => "non_match",
    })
}

/// `{"score":0.92,"label":"match"}`
pub fn prediction_to_json(p: &Prediction) -> Json {
    Json::obj([
        ("score", Json::Num(p.score)),
        ("label", label_to_json(p.label)),
    ])
}

/// `{"side":"L","attr":0}`
pub fn attr_ref_to_json(a: &AttrRef) -> Json {
    Json::obj([
        (
            "side",
            Json::str(match a.side {
                Side::Left => "L",
                Side::Right => "R",
            }),
        ),
        ("attr", Json::num(a.attr.index() as f64)),
    ])
}

/// `{"left":[…],"right":[…]}` — Φ per side, in attribute order.
pub fn saliency_to_json(s: &SaliencyExplanation) -> Json {
    Json::obj([
        (
            "left",
            Json::Arr(s.left_scores().iter().map(|&x| Json::Num(x)).collect()),
        ),
        (
            "right",
            Json::Arr(s.right_scores().iter().map(|&x| Json::Num(x)).collect()),
        ),
    ])
}

/// One counterfactual example with the full perturbed pair.
pub fn cf_example_to_json(ex: &CounterfactualExample) -> Json {
    Json::obj([
        ("left", record_to_json(&ex.left)),
        ("right", record_to_json(&ex.right)),
        (
            "changed",
            Json::Arr(ex.changed.iter().map(attr_ref_to_json).collect()),
        ),
        ("score", Json::Num(ex.score)),
    ])
}

/// Golden set `A★`, χ★, and the example list `E`.
pub fn counterfactual_to_json(cf: &CounterfactualExplanation) -> Json {
    Json::obj([
        (
            "golden_set",
            Json::Arr(cf.golden_set.iter().map(attr_ref_to_json).collect()),
        ),
        ("sufficiency", Json::Num(cf.sufficiency)),
        (
            "examples",
            Json::Arr(cf.examples.iter().map(cf_example_to_json).collect()),
        ),
    ])
}

fn triangle_stats_to_json(t: &TriangleStats) -> Json {
    Json::obj([
        ("natural", Json::num(t.natural as f64)),
        ("augmented", Json::num(t.augmented as f64)),
        ("candidates_scored", Json::num(t.candidates_scored as f64)),
    ])
}

fn lattice_stats_to_json(l: &LatticeStats) -> Json {
    Json::obj([
        ("arity", Json::num(l.arity as f64)),
        ("expected", Json::num(l.expected as f64)),
        ("performed", Json::num(l.performed as f64)),
        ("inferred", Json::num(l.inferred as f64)),
        ("skipped", Json::num(l.skipped as f64)),
    ])
}

/// The full [`CertaExplanation`], field order fixed.
pub fn explanation_to_json(e: &CertaExplanation) -> Json {
    Json::obj([
        ("prediction", prediction_to_json(&e.prediction)),
        ("saliency", saliency_to_json(&e.saliency)),
        ("counterfactual", counterfactual_to_json(&e.counterfactual)),
        ("triangle_stats", triangle_stats_to_json(&e.triangle_stats)),
        (
            "lattice_stats",
            Json::Arr(e.lattice_stats.iter().map(lattice_stats_to_json).collect()),
        ),
        ("mean_sufficiency", Json::Num(e.mean_sufficiency)),
        ("mean_necessity", Json::Num(e.mean_necessity)),
    ])
}

// ---------------------------------------------------------------- decoding

/// A request-side record pair: inline records, table references, or a mix.
#[derive(Debug, Clone, PartialEq)]
pub struct PairDto {
    /// Left record: inline, or a `RecordId` into the dataset's left table.
    pub left: RecordDto,
    /// Right record: inline or referenced.
    pub right: RecordDto,
}

/// One side of a [`PairDto`].
#[derive(Debug, Clone, PartialEq)]
pub enum RecordDto {
    /// A full record given inline (`{"left": {"id":…, "values":[…]}}`).
    Inline(Record),
    /// A reference into the registry dataset (`{"left_id": 3}`).
    ById(RecordId),
}

/// A scoring / explanation request: target model plus one or many pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct PairsRequest {
    /// `"<dataset>/<model>"`, e.g. `"FZ/DeepMatcher"`.
    pub model: String,
    /// The pairs to score or explain.
    pub pairs: Vec<PairDto>,
}

fn num_field(value: &Json, field: &str) -> Result<f64, DtoError> {
    value
        .get(field)
        .ok_or_else(|| expected(field, "missing"))?
        .as_num()
        .ok_or_else(|| expected(field, "expected a number"))
}

fn u32_field(value: &Json, field: &str) -> Result<u32, DtoError> {
    let n = num_field(value, field)?;
    if n < 0.0 || n > u32::MAX as f64 || n.fract() != 0.0 {
        return Err(expected(
            field,
            format!("expected a u32 record id, got {n}"),
        ));
    }
    Ok(n as u32)
}

/// Decode `{"id":…, "values":[…]}`.
pub fn record_from_json(value: &Json, field: &str) -> Result<Record, DtoError> {
    let id =
        u32_field(value, "id").map_err(|e| expected(&format!("{field}.{}", e.field), e.message))?;
    let values = value
        .get("values")
        .ok_or_else(|| expected(&format!("{field}.values"), "missing"))?
        .as_arr()
        .ok_or_else(|| expected(&format!("{field}.values"), "expected an array of strings"))?;
    let mut out = Vec::with_capacity(values.len());
    for (i, v) in values.iter().enumerate() {
        out.push(
            v.as_str()
                .ok_or_else(|| expected(&format!("{field}.values[{i}]"), "expected a string"))?
                .to_string(),
        );
    }
    Ok(Record::new(RecordId(id), out))
}

fn side_from_json(
    value: &Json,
    field: &str,
    inline_key: &str,
    id_key: &str,
) -> Result<RecordDto, DtoError> {
    match (value.get(inline_key), value.get(id_key)) {
        (Some(rec), None) => Ok(RecordDto::Inline(record_from_json(
            rec,
            &format!("{field}.{inline_key}"),
        )?)),
        (None, Some(_)) => Ok(RecordDto::ById(RecordId(
            u32_field(value, id_key)
                .map_err(|e| expected(&format!("{field}.{}", e.field), e.message))?,
        ))),
        (Some(_), Some(_)) => Err(expected(
            field,
            format!("give `{inline_key}` or `{id_key}`, not both"),
        )),
        (None, None) => Err(expected(
            field,
            format!("missing `{inline_key}` (inline record) or `{id_key}` (table reference)"),
        )),
    }
}

/// Decode one pair object (inline records and/or id references).
pub fn pair_from_json(value: &Json, field: &str) -> Result<PairDto, DtoError> {
    if !matches!(value, Json::Obj(_)) {
        return Err(expected(field, "expected a pair object"));
    }
    Ok(PairDto {
        left: side_from_json(value, field, "left", "left_id")?,
        right: side_from_json(value, field, "right", "right_id")?,
    })
}

/// Decode a single-pair request body: `{"model":…, "pair":{…}}`.
pub fn single_request_from_json(value: &Json) -> Result<PairsRequest, DtoError> {
    let model = model_field(value)?;
    let pair = value
        .get("pair")
        .ok_or_else(|| expected("pair", "missing"))?;
    Ok(PairsRequest {
        model,
        pairs: vec![pair_from_json(pair, "pair")?],
    })
}

/// Decode a batch request body: `{"model":…, "pairs":[{…},…]}`.
pub fn batch_request_from_json(value: &Json) -> Result<PairsRequest, DtoError> {
    let model = model_field(value)?;
    let pairs = value
        .get("pairs")
        .ok_or_else(|| expected("pairs", "missing"))?
        .as_arr()
        .ok_or_else(|| expected("pairs", "expected an array of pair objects"))?;
    let mut out = Vec::with_capacity(pairs.len());
    for (i, p) in pairs.iter().enumerate() {
        out.push(pair_from_json(p, &format!("pairs[{i}]"))?);
    }
    Ok(PairsRequest { model, pairs: out })
}

fn model_field(value: &Json) -> Result<String, DtoError> {
    if !matches!(value, Json::Obj(_)) {
        return Err(expected("<body>", "expected a JSON object"));
    }
    Ok(value
        .get("model")
        .ok_or_else(|| expected("model", "missing (`\"<dataset>/<model>\"`)"))?
        .as_str()
        .ok_or_else(|| expected("model", "expected a string"))?
        .to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::AttrId;

    fn rec(id: u32, vals: &[&str]) -> Record {
        Record::new(RecordId(id), vals.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn record_roundtrips_through_wire() {
        let r = rec(7, &["sony bravia", "", "42\" tv"]);
        let j = record_to_json(&r);
        assert_eq!(
            j.serialize().unwrap(),
            r#"{"id":7,"values":["sony bravia","","42\" tv"]}"#
        );
        assert_eq!(record_from_json(&j, "r").unwrap(), r);
    }

    #[test]
    fn prediction_and_saliency_encode() {
        let p = Prediction::from_score(0.92);
        assert_eq!(
            prediction_to_json(&p).serialize().unwrap(),
            r#"{"score":0.92,"label":"match"}"#
        );
        let s = SaliencyExplanation::new(vec![0.5, 0.0], vec![1.0]);
        assert_eq!(
            saliency_to_json(&s).serialize().unwrap(),
            r#"{"left":[0.5,0],"right":[1]}"#
        );
    }

    #[test]
    fn explanation_encodes_every_field_in_order() {
        let e = CertaExplanation {
            prediction: Prediction::from_score(0.2),
            saliency: SaliencyExplanation::zeros(1, 1),
            counterfactual: CounterfactualExplanation {
                examples: vec![CounterfactualExample {
                    left: rec(0, &["a"]),
                    right: rec(1, &["b"]),
                    changed: vec![AttrRef {
                        side: Side::Left,
                        attr: AttrId(0),
                    }],
                    score: 0.8,
                }],
                golden_set: vec![AttrRef {
                    side: Side::Left,
                    attr: AttrId(0),
                }],
                sufficiency: 1.0,
            },
            triangle_stats: TriangleStats {
                natural: 4,
                augmented: 2,
                candidates_scored: 30,
            },
            lattice_stats: vec![LatticeStats {
                arity: 3,
                expected: 6,
                performed: 4,
                inferred: 2,
                skipped: 1,
            }],
            mean_sufficiency: 0.75,
            mean_necessity: 0.5,
        };
        let wire = explanation_to_json(&e).serialize().unwrap();
        let parsed = Json::parse(&wire).unwrap();
        // Spot-check structure and field order.
        assert!(wire.starts_with(r#"{"prediction":{"score":0.2,"label":"non_match"}"#));
        assert_eq!(
            parsed.get("counterfactual").unwrap().get("sufficiency"),
            Some(&Json::Num(1.0))
        );
        assert_eq!(
            parsed.get("lattice_stats").unwrap().as_arr().unwrap()[0].get("performed"),
            Some(&Json::Num(4.0))
        );
        assert_eq!(parsed.get("mean_necessity"), Some(&Json::Num(0.5)));
    }

    #[test]
    fn requests_decode_inline_and_by_id() {
        let body = Json::parse(
            r#"{"model":"FZ/DeepMatcher",
                "pairs":[{"left_id":0,"right_id":6},
                         {"left":{"id":1,"values":["x"]},"right_id":2}]}"#,
        )
        .unwrap();
        let req = batch_request_from_json(&body).unwrap();
        assert_eq!(req.model, "FZ/DeepMatcher");
        assert_eq!(req.pairs.len(), 2);
        assert_eq!(req.pairs[0].left, RecordDto::ById(RecordId(0)));
        assert_eq!(req.pairs[1].left, RecordDto::Inline(rec(1, &["x"])));
        assert_eq!(req.pairs[1].right, RecordDto::ById(RecordId(2)));

        let single =
            Json::parse(r#"{"model":"AB/Ditto","pair":{"left_id":1,"right_id":1}}"#).unwrap();
        let req = single_request_from_json(&single).unwrap();
        assert_eq!(req.pairs.len(), 1);
    }

    #[test]
    fn request_decode_errors_name_the_field() {
        let cases: &[(&str, &str)] = &[
            (r#"{"pair":{"left_id":0,"right_id":0}}"#, "model"),
            (r#"{"model":"FZ/Ditto"}"#, "pair"),
            (r#"{"model":"FZ/Ditto","pair":{"right_id":0}}"#, "left"),
            (
                r#"{"model":"FZ/Ditto","pair":{"left_id":-3,"right_id":0}}"#,
                "left_id",
            ),
            (
                r#"{"model":"FZ/Ditto","pair":{"left_id":0.5,"right_id":0}}"#,
                "left_id",
            ),
            (
                r#"{"model":"FZ/Ditto","pair":{"left":{"id":0,"values":[1]},"right_id":0}}"#,
                "values[0]",
            ),
            (
                r#"{"model":"FZ/Ditto","pair":{"left_id":0,"left":{"id":0,"values":[]},"right_id":0}}"#,
                "not both",
            ),
            (r#"[1,2,3]"#, "object"),
        ];
        for (body, needle) in cases {
            let v = Json::parse(body).unwrap();
            let err = single_request_from_json(&v).unwrap_err().to_string();
            assert!(err.contains(needle), "{body} -> {err}");
        }
        // Batch-specific: pairs must be an array, elements must be objects.
        let v = Json::parse(r#"{"model":"FZ/Ditto","pairs":7}"#).unwrap();
        assert!(batch_request_from_json(&v).is_err());
        let v = Json::parse(r#"{"model":"FZ/Ditto","pairs":[7]}"#).unwrap();
        let err = batch_request_from_json(&v).unwrap_err();
        assert_eq!(err.field, "pairs[0]");
    }
}
