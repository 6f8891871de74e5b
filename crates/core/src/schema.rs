//! Schemas: the ordered list of public attributes `A_1, …, A_r` together
//! with their generalization hierarchies.

use crate::domain::{AttrId, AttributeDomain, ValueId};
use crate::error::{CoreError, Result};
use crate::hierarchy::{Hierarchy, NodeId};
use std::sync::Arc;

/// One public attribute: a named finite domain plus its compiled
/// generalization hierarchy.
#[derive(Debug, Clone)]
pub struct Attribute {
    domain: AttributeDomain,
    hierarchy: Hierarchy,
}

impl Attribute {
    /// Pairs a domain with a hierarchy, validating that the hierarchy was
    /// built over a domain of the same size.
    pub fn new(domain: AttributeDomain, hierarchy: Hierarchy) -> Result<Self> {
        if domain.size() != hierarchy.domain_size() {
            return Err(CoreError::ValueOutOfRange {
                value: hierarchy.domain_size() as u32,
                domain_size: domain.size() as u32,
            });
        }
        Ok(Attribute { domain, hierarchy })
    }

    /// Convenience: a domain with the suppression-only hierarchy.
    pub fn flat(domain: AttributeDomain) -> Self {
        // kanon-lint: allow(L006) the domain is non-empty by construction
        let h = Hierarchy::flat(domain.size()).expect("non-empty domain");
        Attribute {
            domain,
            hierarchy: h,
        }
    }

    /// The attribute's value domain.
    #[inline]
    pub fn domain(&self) -> &AttributeDomain {
        &self.domain
    }

    /// The attribute's generalization hierarchy.
    #[inline]
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The attribute's display name.
    #[inline]
    pub fn name(&self) -> &str {
        self.domain.name()
    }
}

/// An ordered collection of public attributes (quasi-identifiers).
///
/// Schemas are cheaply shareable: wrap them in [`Arc`] via
/// [`Schema::into_shared`] and hand the same instance to tables,
/// generalized tables and cost tables so identity checks are trivial.
#[derive(Debug, Clone)]
pub struct Schema {
    attrs: Vec<Attribute>,
}

/// A shared, immutable schema handle.
pub type SharedSchema = Arc<Schema>;

impl Schema {
    /// Builds a schema from attributes. At least one attribute is required.
    pub fn new(attrs: Vec<Attribute>) -> Result<Self> {
        if attrs.is_empty() {
            return Err(CoreError::EmptyDomain);
        }
        Ok(Schema { attrs })
    }

    /// Wraps the schema in an [`Arc`] for sharing.
    pub fn into_shared(self) -> SharedSchema {
        Arc::new(self)
    }

    /// Number of public attributes `r`.
    #[inline]
    pub fn num_attrs(&self) -> usize {
        self.attrs.len()
    }

    /// Access an attribute by index. Panics if out of range.
    #[inline]
    pub fn attr(&self, j: usize) -> &Attribute {
        &self.attrs[j]
    }

    /// Checked attribute access.
    pub fn try_attr(&self, j: usize) -> Result<&Attribute> {
        self.attrs.get(j).ok_or(CoreError::AttrOutOfRange {
            attr: j,
            num_attrs: self.attrs.len(),
        })
    }

    /// Iterates over `(index, attribute)` pairs.
    pub fn attrs(&self) -> impl Iterator<Item = (AttrId, &Attribute)> + '_ {
        self.attrs
            .iter()
            .enumerate()
            .map(|(i, a)| (AttrId(i as u32), a))
    }

    /// Finds an attribute index by name.
    pub fn attr_by_name(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a.name() == name)
    }

    /// Validates that a slice of value ids forms a legal record.
    pub fn validate_values(&self, values: &[ValueId]) -> Result<()> {
        if values.len() != self.attrs.len() {
            return Err(CoreError::ArityMismatch {
                expected: self.attrs.len(),
                found: values.len(),
            });
        }
        for (j, &v) in values.iter().enumerate() {
            if v.index() >= self.attrs[j].domain().size() {
                return Err(CoreError::ValueOutOfRange {
                    value: v.0,
                    domain_size: self.attrs[j].domain().size() as u32,
                });
            }
        }
        Ok(())
    }

    /// Validates that a slice of node ids forms a legal generalized record.
    pub fn validate_nodes(&self, nodes: &[NodeId]) -> Result<()> {
        if nodes.len() != self.attrs.len() {
            return Err(CoreError::ArityMismatch {
                expected: self.attrs.len(),
                found: nodes.len(),
            });
        }
        for (j, &n) in nodes.iter().enumerate() {
            if n.index() >= self.attrs[j].hierarchy().num_nodes() {
                return Err(CoreError::NodeOutOfRange {
                    node: n.0,
                    num_nodes: self.attrs[j].hierarchy().num_nodes() as u32,
                });
            }
        }
        Ok(())
    }

    /// The fully-suppressed generalized record `R̄*` (all attributes at the
    /// hierarchy root) — consistent with every record, as used in the
    /// Sec. IV-A counterexample.
    pub fn suppressed_nodes(&self) -> Vec<NodeId> {
        self.attrs.iter().map(|a| a.hierarchy().root()).collect()
    }
}

/// Fluent builder for schemas.
///
/// ```
/// use kanon_core::schema::SchemaBuilder;
///
/// let schema = SchemaBuilder::new()
///     .categorical("gender", ["M", "F"])
///     .numeric_with_intervals("age", 0, 99, &[10, 50])
///     .build()
///     .unwrap();
/// assert_eq!(schema.num_attrs(), 2);
/// ```
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    attrs: Vec<Attribute>,
    error: Option<CoreError>,
}

impl SchemaBuilder {
    /// Starts an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(mut self, res: Result<Attribute>) -> Self {
        if self.error.is_none() {
            match res {
                Ok(a) => self.attrs.push(a),
                Err(e) => self.error = Some(e),
            }
        }
        self
    }

    /// Adds a categorical attribute with the suppression-only hierarchy.
    pub fn categorical<N, I, S>(self, name: N, labels: I) -> Self
    where
        N: Into<String>,
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.push(AttributeDomain::new(name, labels).map(Attribute::flat))
    }

    /// Adds a categorical attribute with explicit permissible subsets given
    /// as lists of labels.
    pub fn categorical_with_groups<N, I, S>(self, name: N, labels: I, groups: &[&[&str]]) -> Self
    where
        N: Into<String>,
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let res = (|| {
            let domain = AttributeDomain::new(name, labels)?;
            let mut subsets = Vec::with_capacity(groups.len());
            for g in groups {
                let mut s = Vec::with_capacity(g.len());
                for lbl in *g {
                    s.push(domain.value_of(lbl)?);
                }
                subsets.push(s);
            }
            let h = Hierarchy::from_subsets(domain.size(), &subsets)?;
            Attribute::new(domain, h)
        })();
        self.push(res)
    }

    /// Adds a numeric attribute `lo..=hi` with an interval-ladder
    /// hierarchy.
    pub fn numeric_with_intervals<N: Into<String>>(
        self,
        name: N,
        lo: i64,
        hi: i64,
        widths: &[usize],
    ) -> Self {
        let res = (|| {
            let domain = AttributeDomain::numeric(name, lo, hi)?;
            let h = Hierarchy::intervals(domain.size(), widths)?;
            Attribute::new(domain, h)
        })();
        self.push(res)
    }

    /// Adds a pre-built attribute.
    pub fn attribute(self, attr: Attribute) -> Self {
        self.push(Ok(attr))
    }

    /// Finishes the schema.
    pub fn build(self) -> Result<Schema> {
        if let Some(e) = self.error {
            return Err(e);
        }
        Schema::new(self.attrs)
    }

    /// Finishes the schema and wraps it for sharing.
    pub fn build_shared(self) -> Result<SharedSchema> {
        self.build().map(Schema::into_shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_happy_path() {
        let s = SchemaBuilder::new()
            .categorical("gender", ["M", "F"])
            .categorical_with_groups(
                "edu",
                ["hs", "ba", "ms", "phd"],
                &[&["hs"], &["ba", "ms", "phd"]],
            )
            .numeric_with_intervals("age", 20, 39, &[5, 10])
            .build()
            .unwrap();
        assert_eq!(s.num_attrs(), 3);
        assert_eq!(s.attr(0).name(), "gender");
        assert_eq!(s.attr_by_name("age"), Some(2));
        assert_eq!(s.attr_by_name("zip"), None);
        // edu hierarchy: root + {ba,ms,phd} + 4 singletons ({hs} deduped)
        assert_eq!(s.attr(1).hierarchy().num_nodes(), 6);
    }

    #[test]
    fn builder_propagates_first_error() {
        let err = SchemaBuilder::new()
            .categorical("dup", ["a", "a"])
            .categorical("ok", ["x"])
            .build()
            .unwrap_err();
        assert_eq!(err, CoreError::DuplicateValue("a".into()));
    }

    #[test]
    fn empty_schema_rejected() {
        assert!(SchemaBuilder::new().build().is_err());
    }

    #[test]
    fn validate_values_checks_arity_and_range() {
        let s = SchemaBuilder::new()
            .categorical("g", ["M", "F"])
            .categorical("c", ["r", "g", "b"])
            .build()
            .unwrap();
        assert!(s.validate_values(&[ValueId(1), ValueId(2)]).is_ok());
        assert!(matches!(
            s.validate_values(&[ValueId(1)]).unwrap_err(),
            CoreError::ArityMismatch { .. }
        ));
        assert!(matches!(
            s.validate_values(&[ValueId(2), ValueId(0)]).unwrap_err(),
            CoreError::ValueOutOfRange { .. }
        ));
    }

    #[test]
    fn suppressed_nodes_are_roots() {
        let s = SchemaBuilder::new()
            .categorical("g", ["M", "F"])
            .categorical("c", ["r", "g", "b"])
            .build()
            .unwrap();
        let sup = s.suppressed_nodes();
        assert_eq!(sup.len(), 2);
        for (j, n) in sup.iter().enumerate() {
            assert_eq!(*n, s.attr(j).hierarchy().root());
        }
    }

    #[test]
    fn attribute_rejects_size_mismatch() {
        let d = AttributeDomain::new("g", ["M", "F"]).unwrap();
        let h = Hierarchy::flat(3).unwrap();
        assert!(Attribute::new(d, h).is_err());
    }
}
