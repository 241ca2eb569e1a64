//! Records: tuples of interned attribute values.
//!
//! Since the copy-on-write refactor a record is a vector of [`AttrValue`]
//! handles rather than owned `String`s: cloning a record, replacing an
//! attribute, and building a perturbed copy ([`Record::with_values_from`],
//! [`Record::with_values_merged`], or [`Record::set_values_merged`] in
//! place) are all O(arity) reference-count bumps with **zero string
//! allocation**, and [`Record::content_hash`] folds the per-value hashes
//! cached at intern time instead of re-hashing every byte.

use crate::hash::FxHasher;
use crate::schema::{AttrId, Schema};
use crate::value::AttrValue;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::Hasher;

/// Identifier of a record within its table.
///
/// Perturbed copies created by the explainers are *synthetic* and keep the id
/// of the free record they derive from; identity for caching purposes is the
/// [`Record::content_hash`], never the id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RecordId(pub u32);

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A structured entity description: one interned value per schema attribute.
///
/// Missing values (the `NaN` cells of Figure 1) are represented by empty
/// strings; [`Record::is_missing`] reports them.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Record {
    id: RecordId,
    values: Vec<AttrValue>,
}

impl Record {
    /// Build a record from raw strings, interning each value. The caller is
    /// responsible for matching the intended schema's arity;
    /// [`crate::Table::insert`] enforces it.
    pub fn new(id: RecordId, values: Vec<String>) -> Self {
        Record {
            id,
            values: values.into_iter().map(AttrValue::from).collect(),
        }
    }

    /// Build a record directly from interned handles (the zero-allocation
    /// construction path used by the perturbers).
    pub fn from_attr_values(id: RecordId, values: Vec<AttrValue>) -> Self {
        Record { id, values }
    }

    /// The record's id within its table.
    #[inline]
    pub fn id(&self) -> RecordId {
        self.id
    }

    /// Number of attribute values.
    #[inline]
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Value of attribute `a` — the paper's `r[a]`.
    #[inline]
    pub fn value(&self, a: AttrId) -> &str {
        &self.values[a.index()]
    }

    /// The interned handle of attribute `a` (id, cached clean form, tokens).
    #[inline]
    pub fn attr_value(&self, a: AttrId) -> &AttrValue {
        &self.values[a.index()]
    }

    /// All values in schema order.
    pub fn values(&self) -> &[AttrValue] {
        &self.values
    }

    /// True when attribute `a` holds no value (empty after trimming).
    pub fn is_missing(&self, a: AttrId) -> bool {
        self.values[a.index()].is_missing()
    }

    /// Replace the value of attribute `a`, returning the old value.
    pub fn set_value(&mut self, a: AttrId, value: impl Into<AttrValue>) -> AttrValue {
        std::mem::replace(&mut self.values[a.index()], value.into())
    }

    /// A copy of this record with attribute `a` replaced.
    pub fn with_value(&self, a: AttrId, value: impl Into<AttrValue>) -> Record {
        let mut copy = self.clone();
        copy.set_value(a, value);
        copy
    }

    /// A copy with every attribute in `attrs` replaced by the corresponding
    /// value from `donor` — the heart of the perturbing function ψ (§3).
    /// Pure handle copies: no string is cloned or re-interned.
    pub fn with_values_from(&self, donor: &Record, attrs: &[AttrId]) -> Record {
        let mut copy = self.clone();
        for &a in attrs {
            copy.values[a.index()] = donor.values[a.index()].clone();
        }
        copy
    }

    /// A copy taking attribute `i`'s value from `donor` wherever
    /// `take_donor(i)` holds, and from `self` otherwise — ψ driven directly
    /// by a mask predicate: [`Record::set_values_merged`] on a clone.
    pub fn with_values_merged(&self, donor: &Record, take_donor: impl Fn(usize) -> bool) -> Record {
        let mut copy = self.clone();
        copy.set_values_merged(self, donor, take_donor);
        copy
    }

    /// Overwrite this record in place with the merge of `base` and `donor`:
    /// `base`'s id, and attribute `i` from `donor` wherever `take_donor(i)`
    /// holds, from `base` otherwise. A slot that already holds the chosen
    /// handle is left alone, so walking one scratch record through a
    /// sequence of masks touches only the attributes that change between
    /// them, with no allocation.
    pub fn set_values_merged(
        &mut self,
        base: &Record,
        donor: &Record,
        take_donor: impl Fn(usize) -> bool,
    ) {
        // Hard asserts: merging across mismatched schemas would silently
        // misplace values and poison content hashes downstream.
        assert_eq!(
            base.arity(),
            donor.arity(),
            "merged records must share a schema"
        );
        assert_eq!(
            self.arity(),
            base.arity(),
            "merged records must share a schema"
        );
        self.id = base.id;
        for (i, slot) in self.values.iter_mut().enumerate() {
            let chosen = if take_donor(i) {
                &donor.values[i]
            } else {
                &base.values[i]
            };
            if !AttrValue::ptr_eq(slot, chosen) {
                *slot = chosen.clone();
            }
        }
    }

    /// Content-addressed hash over the values only (ids excluded), used as a
    /// prediction-cache key for perturbed copies.
    ///
    /// Folds the per-value content hashes cached at intern time (plus the
    /// arity), so hashing a record is O(arity) `u64` mixes instead of
    /// re-hashing every byte. The result is a pure function of the value
    /// strings: records built from raw strings and records assembled from
    /// interned handles hash identically (pinned by `tests/value_props.rs`).
    pub fn content_hash(&self) -> u64 {
        let mut h = FxHasher::default();
        h.write_usize(self.values.len());
        for v in &self.values {
            h.write_u64(v.content_hash());
        }
        h.finish()
    }

    /// Render the record as `attr=value; ...` using `schema` names.
    pub fn display_with(&self, schema: &Schema) -> String {
        let mut out = String::new();
        for (i, a) in schema.attr_ids().enumerate() {
            if i > 0 {
                out.push_str("; ");
            }
            let v = self.value(a);
            out.push_str(schema.attr_name(a));
            out.push('=');
            out.push_str(if v.is_empty() { "NaN" } else { v });
        }
        out
    }

    /// Total whitespace token count across all attributes (cached per value).
    pub fn total_tokens(&self) -> usize {
        self.values.iter().map(|v| v.token_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> Record {
        Record::new(
            RecordId(1),
            vec![
                "sony bravia theater".into(),
                "black micro system".into(),
                String::new(),
            ],
        )
    }

    #[test]
    fn value_access() {
        let r = rec();
        assert_eq!(r.id(), RecordId(1));
        assert_eq!(r.arity(), 3);
        assert_eq!(r.value(AttrId(0)), "sony bravia theater");
        assert!(r.is_missing(AttrId(2)));
        assert!(!r.is_missing(AttrId(0)));
        assert_eq!(r.total_tokens(), 6);
    }

    #[test]
    fn set_value_returns_old() {
        let mut r = rec();
        let old = r.set_value(AttrId(0), "new name");
        assert_eq!(old, "sony bravia theater");
        assert_eq!(r.value(AttrId(0)), "new name");
    }

    #[test]
    fn with_values_from_copies_selected_attrs() {
        let r = rec();
        let donor = Record::new(RecordId(9), vec!["d0".into(), "d1".into(), "d2".into()]);
        let out = r.with_values_from(&donor, &[AttrId(0), AttrId(2)]);
        assert_eq!(out.value(AttrId(0)), "d0");
        assert_eq!(out.value(AttrId(1)), "black micro system"); // untouched
        assert_eq!(out.value(AttrId(2)), "d2");
        assert_eq!(out.id(), r.id(), "perturbed copy keeps free-record id");
        // Original unchanged.
        assert_eq!(r.value(AttrId(0)), "sony bravia theater");
        // COW: copied attrs share the donor's interned allocation.
        assert!(AttrValue::ptr_eq(
            out.attr_value(AttrId(0)),
            donor.attr_value(AttrId(0))
        ));
        assert!(AttrValue::ptr_eq(
            out.attr_value(AttrId(1)),
            r.attr_value(AttrId(1))
        ));
    }

    #[test]
    fn with_values_merged_matches_with_values_from() {
        let r = rec();
        let donor = Record::new(RecordId(9), vec!["d0".into(), "d1".into(), "d2".into()]);
        let mask = 0b101usize;
        let merged = r.with_values_merged(&donor, |i| mask & (1 << i) != 0);
        let listed = r.with_values_from(&donor, &[AttrId(0), AttrId(2)]);
        assert_eq!(merged, listed);
        assert_eq!(merged.id(), r.id());
    }

    #[test]
    fn set_values_merged_overwrites_any_prior_state() {
        let r = rec();
        let donor = Record::new(RecordId(9), vec!["d0".into(), "d1".into(), "d2".into()]);
        let mut scratch = donor.clone();
        for mask in [0b101usize, 0b010, 0b111, 0b000, 0b011] {
            scratch.set_values_merged(&r, &donor, |i| mask & (1 << i) != 0);
            assert_eq!(
                scratch,
                r.with_values_merged(&donor, |i| mask & (1 << i) != 0)
            );
            assert_eq!(scratch.id(), r.id());
        }
    }

    #[test]
    fn content_hash_ignores_id_tracks_values() {
        let a = Record::new(RecordId(1), vec!["x".into()]);
        let b = Record::new(RecordId(2), vec!["x".into()]);
        let c = Record::new(RecordId(1), vec!["y".into()]);
        assert_eq!(a.content_hash(), b.content_hash());
        assert_ne!(a.content_hash(), c.content_hash());
    }

    #[test]
    fn content_hash_same_for_both_construction_paths() {
        let strings = vec!["sony bravia".to_string(), String::new(), "99".to_string()];
        let from_strings = Record::new(RecordId(0), strings.clone());
        let from_handles = Record::from_attr_values(
            RecordId(7),
            strings.iter().map(|s| AttrValue::intern(s)).collect(),
        );
        assert_eq!(from_strings.content_hash(), from_handles.content_hash());
        assert_eq!(from_strings.values(), from_handles.values());
    }

    #[test]
    fn display_shows_nan_for_missing() {
        let schema = Schema::new("Abt", ["Name", "Description", "Price"]);
        let shown = rec().display_with(&schema);
        assert!(shown.contains("Price=NaN"));
        assert!(shown.contains("Name=sony bravia theater"));
    }

    use crate::schema::Schema;
}
