//! Dataset codec: both tables, schemas, and labeled pair splits.
//!
//! Records are persisted as plain strings and rebuilt through
//! [`certa_core::Record::new`], which routes every value through the PR-4
//! [`certa_core::AttrValue`] interner — a decoded dataset's records carry
//! fresh, process-valid `ValueId`s, share allocations for repeated values,
//! and hash/featurize bit-identically to the originals (content hashes are
//! pure string functions). Decoding re-runs every [`Dataset::new`]
//! validation, so a tampered-but-checksum-valid artifact can still only
//! produce a structurally sound dataset.

use crate::codec::{Reader, Writer};
use crate::container::{tag, write_container, ArtifactKind, Container};
use crate::error::{Result, StoreError};
use crate::signature::{build_signature, decode_signature, encode_signature, Signature};
use certa_core::hash::FxHashSet;
use certa_core::{Dataset, LabeledPair, Record, RecordId, Schema, Split, Table};
use std::sync::Arc;

/// Encode a dataset (schemas, records, splits, and its searchable
/// signature). Deterministic: tables and splits are ordered collections
/// and the signature is a pure function of the dataset, so same dataset,
/// same bytes.
pub fn encode_dataset(d: &Dataset) -> Vec<u8> {
    let mut meta = Writer::new();
    meta.str_(d.name());

    let sections = vec![
        (tag::META, meta.into_bytes()),
        (tag::SCHEMA_LEFT, encode_schema(d.left().schema())),
        (tag::RECORDS_LEFT, encode_records(d.left())),
        (tag::SCHEMA_RIGHT, encode_schema(d.right().schema())),
        (tag::RECORDS_RIGHT, encode_records(d.right())),
        (tag::PAIRS, encode_pairs(d)),
        (tag::SIGNATURE, encode_signature(&build_signature(d))),
    ];
    write_container(ArtifactKind::Dataset, &sections)
}

/// Read a dataset artifact's signature, if present, without rebuilding the
/// tables. `Ok(None)` means a valid artifact saved without one (the
/// SIGNATURE section is optional on read).
pub fn peek_dataset_signature(bytes: &[u8]) -> Result<Option<Signature>> {
    let c = Container::parse_kind(bytes, ArtifactKind::Dataset)?;
    match c.section(tag::SIGNATURE) {
        Some(payload) => Ok(Some(decode_signature(payload)?)),
        None => Ok(None),
    }
}

/// Decode a dataset artifact, re-interning every value and re-running the
/// full [`Dataset::new`] validation.
pub fn decode_dataset(bytes: &[u8]) -> Result<Dataset> {
    let c = Container::parse_kind(bytes, ArtifactKind::Dataset)?;
    c.restrict(&[
        tag::META,
        tag::SCHEMA_LEFT,
        tag::RECORDS_LEFT,
        tag::SCHEMA_RIGHT,
        tag::RECORDS_RIGHT,
        tag::PAIRS,
        tag::SIGNATURE,
    ])?;

    let mut meta = Reader::new(c.require(tag::META, "meta")?);
    let name = meta.string("dataset name")?;
    meta.finish()?;

    let left_schema = decode_schema(c.require(tag::SCHEMA_LEFT, "schema-left")?)?;
    let left = decode_records(c.require(tag::RECORDS_LEFT, "records-left")?, &left_schema)?;
    let right_schema = decode_schema(c.require(tag::SCHEMA_RIGHT, "schema-right")?)?;
    let right = decode_records(
        c.require(tag::RECORDS_RIGHT, "records-right")?,
        &right_schema,
    )?;

    let mut pairs = Reader::new(c.require(tag::PAIRS, "pairs")?);
    let train = decode_split(&mut pairs, "train pairs")?;
    let test = decode_split(&mut pairs, "test pairs")?;
    pairs.finish()?;

    Dataset::new(name, left, right, train, test).map_err(|e| StoreError::Malformed(e.to_string()))
}

fn encode_schema(schema: &Arc<Schema>) -> Vec<u8> {
    let mut w = Writer::new();
    w.str_(schema.name());
    w.u16(schema.arity() as u16);
    for attr in schema.attr_names() {
        w.str_(attr);
    }
    w.into_bytes()
}

fn decode_schema(bytes: &[u8]) -> Result<Arc<Schema>> {
    let mut r = Reader::new(bytes);
    let name = r.string("schema name")?;
    let arity = r.u16("schema arity")? as usize;
    if arity == 0 {
        return Err(StoreError::Malformed(format!(
            "schema `{name}` has no attributes"
        )));
    }
    let mut attrs = Vec::with_capacity(arity.min(r.remaining()));
    let mut seen: FxHashSet<&str> = FxHashSet::default();
    for _ in 0..arity {
        let attr = r.str_("attribute name")?;
        if !seen.insert(attr) {
            // Schema::new panics on duplicates; turn it into a typed error.
            return Err(StoreError::Malformed(format!(
                "schema `{name}` repeats attribute `{attr}`"
            )));
        }
        attrs.push(attr.to_string());
    }
    r.finish()?;
    Ok(Schema::shared(name, attrs))
}

fn encode_records(table: &Table) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(table.len() as u32);
    for record in table.records() {
        w.u32(record.id().0);
        for value in record.values() {
            w.str_(value.as_str());
        }
    }
    w.into_bytes()
}

fn decode_records(bytes: &[u8], schema: &Arc<Schema>) -> Result<Table> {
    let mut r = Reader::new(bytes);
    let arity = schema.arity();
    // Each record needs at least 4 id bytes + 4 length bytes per value.
    let n = r.count(4 + 4 * arity, "record count")?;
    let mut records = Vec::with_capacity(n);
    let mut seen: FxHashSet<u32> = FxHashSet::default();
    for _ in 0..n {
        let id = r.u32("record id")?;
        if !seen.insert(id) {
            // Table::insert panics on duplicates; typed error instead.
            return Err(StoreError::Malformed(format!(
                "table `{}` repeats record id {id}",
                schema.name()
            )));
        }
        let mut values = Vec::with_capacity(arity);
        for _ in 0..arity {
            values.push(r.string("record value")?);
        }
        records.push(Record::new(RecordId(id), values));
    }
    r.finish()?;
    Table::from_records(Arc::clone(schema), records)
        .map_err(|e| StoreError::Malformed(e.to_string()))
}

fn encode_pairs(d: &Dataset) -> Vec<u8> {
    let mut w = Writer::new();
    for split in [Split::Train, Split::Test] {
        let pairs = d.split(split);
        w.u32(pairs.len() as u32);
        for lp in pairs {
            w.u32(lp.pair.left.0);
            w.u32(lp.pair.right.0);
            w.u8(lp.label.is_match() as u8);
        }
    }
    w.into_bytes()
}

fn decode_split(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<LabeledPair>> {
    let n = r.count(9, what)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let left = r.u32("pair left id")?;
        let right = r.u32("pair right id")?;
        let label = match r.u8("pair label")? {
            0 => false,
            1 => true,
            other => {
                return Err(StoreError::Malformed(format!(
                    "pair label must be 0 or 1, got {other}"
                )))
            }
        };
        out.push(LabeledPair::new(RecordId(left), RecordId(right), label));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_datagen::{generate, DatasetId, Scale};

    /// Structural equality (Dataset has no `PartialEq`): name, schemas,
    /// records, and both splits.
    pub fn assert_datasets_equal(a: &Dataset, b: &Dataset) {
        assert_eq!(a.name(), b.name());
        for (ta, tb) in [(a.left(), b.left()), (a.right(), b.right())] {
            assert_eq!(ta.schema(), tb.schema());
            assert_eq!(ta.records(), tb.records());
        }
        for split in [Split::Train, Split::Test] {
            assert_eq!(a.split(split), b.split(split));
        }
    }

    #[test]
    fn generated_datasets_roundtrip_exactly() {
        for (id, seed) in [(DatasetId::AB, 7), (DatasetId::DWA, 21), (DatasetId::FZ, 3)] {
            let d = generate(id, Scale::Smoke, seed);
            let bytes = encode_dataset(&d);
            assert_eq!(bytes, encode_dataset(&d), "deterministic bytes");
            let decoded = decode_dataset(&bytes).unwrap();
            assert_datasets_equal(&d, &decoded);
            // Rebuilt records hash identically (content hashes are pure
            // string functions) — the prediction-cache key contract.
            for (ra, rb) in d.left().records().iter().zip(decoded.left().records()) {
                assert_eq!(ra.content_hash(), rb.content_hash());
            }
        }
    }

    #[test]
    fn signature_section_is_optional_on_read() {
        let d = generate(DatasetId::FZ, Scale::Smoke, 6);
        let bytes = encode_dataset(&d);
        let sig = peek_dataset_signature(&bytes).unwrap().expect("embedded");
        assert_eq!(
            sig.similarity(&build_signature(&d)).to_bits(),
            1.0f64.to_bits(),
            "embedded signature matches a fresh build"
        );

        // A signature-less artifact (the pre-repository layout, minus the
        // section) still decodes to the same dataset and peeks as None.
        let c = Container::parse(&bytes).unwrap();
        let stripped: Vec<(u32, Vec<u8>)> = c
            .sections
            .iter()
            .filter(|&&(t, _)| t != tag::SIGNATURE)
            .map(|&(t, p)| (t, p.to_vec()))
            .collect();
        let legacy = write_container(ArtifactKind::Dataset, &stripped);
        assert!(peek_dataset_signature(&legacy).unwrap().is_none());
        assert_datasets_equal(&d, &decode_dataset(&legacy).unwrap());
    }

    #[test]
    fn duplicate_ids_and_attrs_are_typed_errors() {
        let d = generate(DatasetId::AB, Scale::Smoke, 1);
        let bytes = encode_dataset(&d);
        let c = Container::parse(&bytes).unwrap();

        // Duplicate record id: two records with id 0.
        let arity = d.left().schema().arity();
        let mut recs = Writer::new();
        recs.u32(2);
        for _ in 0..2 {
            recs.u32(0);
            for _ in 0..arity {
                recs.str_("x");
            }
        }
        let tampered = rebuild(&c, tag::RECORDS_LEFT, recs.into_bytes());
        let err = decode_dataset(&tampered).unwrap_err();
        assert!(
            matches!(err, StoreError::Malformed(ref m) if m.contains("repeats record id")),
            "{err}"
        );

        // Duplicate attribute name.
        let mut schema = Writer::new();
        schema.str_("U");
        schema.u16(2);
        schema.str_("Name");
        schema.str_("Name");
        let tampered = rebuild(&c, tag::SCHEMA_LEFT, schema.into_bytes());
        let err = decode_dataset(&tampered).unwrap_err();
        assert!(
            matches!(err, StoreError::Malformed(ref m) if m.contains("repeats attribute")),
            "{err}"
        );
    }

    #[test]
    fn dangling_pair_references_are_rejected() {
        let d = generate(DatasetId::AB, Scale::Smoke, 1);
        let bytes = encode_dataset(&d);
        let c = Container::parse(&bytes).unwrap();
        let mut pairs = Writer::new();
        pairs.u32(1);
        pairs.u32(9_999_999); // unknown left record
        pairs.u32(0);
        pairs.u8(1);
        pairs.u32(0);
        let tampered = rebuild(&c, tag::PAIRS, pairs.into_bytes());
        let err = decode_dataset(&tampered).unwrap_err();
        assert!(matches!(err, StoreError::Malformed(_)), "{err}");
    }

    fn rebuild(c: &Container<'_>, replace: u32, payload: Vec<u8>) -> Vec<u8> {
        let sections: Vec<(u32, Vec<u8>)> = c
            .sections
            .iter()
            .map(|&(t, p)| {
                if t == replace {
                    (t, payload.clone())
                } else {
                    (t, p.to_vec())
                }
            })
            .collect();
        write_container(ArtifactKind::Dataset, &sections)
    }
}
