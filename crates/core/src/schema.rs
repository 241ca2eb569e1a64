//! Schemas: ordered, named attribute lists for one side of an ER task.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Index of an attribute within a [`Schema`].
///
/// The paper's lattices are built over subsets of one side's attributes; a
/// compact `u16` index keeps subset bitmasks and per-attribute arrays cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AttrId(pub u16);

impl AttrId {
    /// The attribute's position within its schema.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// An ordered list of named attributes describing one record source.
///
/// `U` and `V` may have different schemas (§3); e.g. Abt's
/// `{Name, Description, Price}` vs Buy's `{Name, Description, Price}` in
/// Figure 1, or entirely different attribute sets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    name: String,
    attrs: Vec<String>,
}

impl Schema {
    /// Build a schema from a source name and attribute names.
    ///
    /// # Panics
    /// Panics if `attrs` is empty or holds more than `u16::MAX` entries, or if
    /// attribute names repeat — all construction-time programming errors.
    pub fn new(
        name: impl Into<String>,
        attrs: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        let name = name.into();
        let attrs: Vec<String> = attrs.into_iter().map(Into::into).collect();
        assert!(
            !attrs.is_empty(),
            "schema `{name}` must have at least one attribute"
        );
        assert!(
            attrs.len() <= u16::MAX as usize,
            "schema `{name}` has too many attributes"
        );
        for (i, a) in attrs.iter().enumerate() {
            assert!(
                !attrs[..i].contains(a),
                "schema `{name}` has duplicate attribute `{a}`"
            );
        }
        Schema { name, attrs }
    }

    /// Convenience constructor returning an `Arc`, the form tables store.
    pub fn shared(
        name: impl Into<String>,
        attrs: impl IntoIterator<Item = impl Into<String>>,
    ) -> Arc<Self> {
        Arc::new(Self::new(name, attrs))
    }

    /// The source name (e.g. `"Abt"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Attribute name for an id.
    ///
    /// # Panics
    /// Panics if `id` is out of range for this schema.
    pub fn attr_name(&self, id: AttrId) -> &str {
        &self.attrs[id.index()]
    }

    /// All attribute ids, in schema order.
    pub fn attr_ids(&self) -> impl ExactSizeIterator<Item = AttrId> + '_ {
        (0..self.attrs.len() as u16).map(AttrId)
    }

    /// All attribute names, in schema order.
    pub fn attr_names(&self) -> &[String] {
        &self.attrs
    }

    /// Look up an attribute id by name.
    #[cfg(test)]
    pub fn attr_id(&self, name: &str) -> crate::Result<AttrId> {
        self.attrs
            .iter()
            .position(|a| a == name)
            .map(|i| AttrId(i as u16))
            .ok_or_else(|| crate::CoreError::UnknownAttribute {
                schema: self.name.clone(),
                attr: name.to_string(),
            })
    }

    /// Qualified display name, `Name_Abt` style, matching the paper's
    /// `Name_Abt` / `Description_Buy` notation.
    pub fn qualified(&self, id: AttrId) -> String {
        format!("{}_{}", self.attr_name(id), self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreError;

    fn abt() -> Schema {
        Schema::new("Abt", ["Name", "Description", "Price"])
    }

    #[test]
    fn arity_and_names() {
        let s = abt();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.name(), "Abt");
        assert_eq!(s.attr_name(AttrId(1)), "Description");
        assert_eq!(s.attr_names(), &["Name", "Description", "Price"]);
    }

    #[test]
    fn id_lookup_roundtrips() {
        let s = abt();
        for id in s.attr_ids() {
            let name = s.attr_name(id).to_string();
            assert_eq!(s.attr_id(&name).unwrap(), id);
        }
    }

    #[test]
    fn unknown_attribute_errors() {
        let s = abt();
        let err = s.attr_id("Weight").unwrap_err();
        assert!(matches!(err, CoreError::UnknownAttribute { .. }));
    }

    #[test]
    fn qualified_matches_paper_notation() {
        let s = abt();
        assert_eq!(s.qualified(AttrId(0)), "Name_Abt");
        assert_eq!(s.qualified(AttrId(2)), "Price_Abt");
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn duplicate_attrs_rejected() {
        let _ = Schema::new("S", ["a", "a"]);
    }

    #[test]
    #[should_panic(expected = "at least one attribute")]
    fn empty_schema_rejected() {
        let _ = Schema::new("S", Vec::<String>::new());
    }

    #[test]
    fn attr_id_display() {
        assert_eq!(AttrId(3).to_string(), "a3");
        assert_eq!(AttrId(3).index(), 3);
    }
}
