//! Attributes and schemata.
//!
//! A schema is a finite *ordered* list of attributes (§2.1). Activities are
//! additionally characterized by three auxiliary schemata (§3.2):
//!
//! * **functionality** (necessary) schema — attributes that take part in the
//!   computation,
//! * **generated** schema — attributes created by the activity,
//! * **projected-out** schema — input attributes the activity drops.
//!
//! All attribute names in an optimizable workflow are *reference attribute
//! names* drawn from the conceptual set Σn of the naming principle (§3.1);
//! see [`crate::naming`].

use std::fmt;
use std::sync::Arc;

/// A reference attribute name.
///
/// Cheap to clone (`Arc<str>`): a schema built from other schemata's
/// attributes shares their names, it does not re-allocate them.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Attr(Arc<str>);

impl Attr {
    /// Create an attribute from a name.
    pub fn new(name: impl AsRef<str>) -> Self {
        Attr(Arc::from(name.as_ref()))
    }

    /// The attribute name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Attr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Attr {
    fn from(s: &str) -> Self {
        Attr::new(s)
    }
}
impl From<String> for Attr {
    fn from(s: String) -> Self {
        Attr::new(s)
    }
}
impl From<&Attr> for Attr {
    fn from(a: &Attr) -> Self {
        a.clone()
    }
}

/// An ordered, duplicate-free list of attributes.
///
/// Immutable and shared: a clone is one reference-count increment, so the
/// schemata an activity stores for its ports are its providers' own, and a
/// copy-on-write node copies none of them. A schema is made once, by
/// [`Schema::build`] or the constructors on top of it, in one allocation
/// (the empty schema in none), and never edited in place. `==`, `Hash`,
/// `Debug` and `Display` read the attribute list alone.
#[derive(Clone, Default)]
pub struct Schema {
    /// `None` is the empty schema.
    attrs: Option<Arc<[Attr]>>,
}

/// The working list of [`Schema::build`]: attributes pushed in order,
/// duplicates ignored.
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    attrs: Vec<Attr>,
}

impl SchemaBuilder {
    /// Append `attr` unless it is already there (idempotent union insert).
    pub fn push(&mut self, attr: &Attr) {
        if !self.attrs.contains(attr) {
            self.attrs.push(attr.clone());
        }
    }

    /// Append every attribute of `attrs` not already there.
    pub fn extend<'a>(&mut self, attrs: impl IntoIterator<Item = &'a Attr>) {
        for a in attrs {
            self.push(a);
        }
    }

    /// Does the list hold `attr`?
    pub fn contains(&self, attr: &Attr) -> bool {
        self.attrs.contains(attr)
    }
}

thread_local! {
    /// The calling thread's [`SchemaBuilder`], empty between builds: a build
    /// allocates only the schema it returns.
    static BUILDER: std::cell::RefCell<SchemaBuilder> =
        const { std::cell::RefCell::new(SchemaBuilder { attrs: Vec::new() }) };
}

impl Schema {
    /// The empty schema.
    pub fn empty() -> Self {
        Schema { attrs: None }
    }

    /// Build a schema by pushing attributes onto a [`SchemaBuilder`]. The
    /// list lives in a buffer the calling thread reuses, so the build
    /// allocates once, for the schema itself.
    pub fn build(fill: impl FnOnce(&mut SchemaBuilder)) -> Schema {
        let finish = |b: &mut SchemaBuilder| {
            b.attrs.clear();
            fill(b);
            let out = Schema::from_slice(&b.attrs);
            b.attrs.clear();
            out
        };
        BUILDER.with(|cell| match cell.try_borrow_mut() {
            Ok(mut b) => finish(&mut b),
            // A build inside a build: the inner one pays for its own list.
            Err(_) => finish(&mut SchemaBuilder::default()),
        })
    }

    fn from_slice(attrs: &[Attr]) -> Schema {
        Schema {
            attrs: (!attrs.is_empty()).then(|| Arc::from(attrs)),
        }
    }

    /// Build a schema from attribute names. Duplicates are rejected at the
    /// earliest possible moment because downstream schema regeneration relies
    /// on name uniqueness.
    ///
    /// # Panics
    /// Panics if the same attribute appears twice; schemata come from user
    /// code or templates where a duplicate is a programming error.
    pub fn of<I, A>(attrs: I) -> Self
    where
        I: IntoIterator<Item = A>,
        A: Into<Attr>,
    {
        Schema::build(|b| {
            for a in attrs {
                let a = a.into();
                assert!(
                    !b.contains(&a),
                    "duplicate attribute `{a}` in schema construction"
                );
                b.push(&a);
            }
        })
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs().len()
    }

    /// Is the schema empty?
    pub fn is_empty(&self) -> bool {
        self.attrs.is_none()
    }

    /// Iterate over the attributes in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Attr> {
        self.attrs().iter()
    }

    /// The attributes as a slice.
    #[inline]
    pub fn attrs(&self) -> &[Attr] {
        self.attrs.as_deref().unwrap_or_default()
    }

    /// Does the schema contain `attr`?
    pub fn contains(&self, attr: &Attr) -> bool {
        self.attrs().contains(attr)
    }

    /// Position of `attr`, if present.
    pub fn index_of(&self, attr: &Attr) -> Option<usize> {
        self.iter().position(|a| a == attr)
    }

    /// Set-wise subset test (order-insensitive): every attribute of `self`
    /// appears in `other`. This is the test behind swap conditions 3 and 4
    /// (§3.3).
    pub fn is_subset_of(&self, other: &Schema) -> bool {
        self.iter().all(|a| other.contains(a))
    }

    /// Append an attribute, ignoring duplicates (idempotent union insert).
    /// A schema is immutable: this builds a new one when `attr` is new.
    pub fn push(&mut self, attr: Attr) {
        if !self.contains(&attr) {
            *self = Schema::build(|b| {
                b.extend(self.iter());
                b.push(&attr);
            });
        }
    }

    /// Order-preserving set union: attributes of `self`, then attributes of
    /// `other` not already present. Shares `self` when `other` adds nothing.
    pub fn union(&self, other: &Schema) -> Schema {
        if other.is_subset_of(self) {
            return self.clone();
        }
        Schema::build(|b| {
            b.extend(self.iter());
            b.extend(other.iter());
        })
    }

    /// Order-preserving set difference: attributes of `self` not in `other`.
    /// Shares `self` when the two are disjoint.
    pub fn difference(&self, other: &Schema) -> Schema {
        self.filtered(|a| !other.contains(a))
    }

    /// Order-preserving intersection: attributes of `self` also in `other`.
    /// Shares `self` when it is a subset of `other`.
    pub fn intersection(&self, other: &Schema) -> Schema {
        self.filtered(|a| other.contains(a))
    }

    /// The attributes of `self` that `keep` accepts, in order: `self`
    /// itself when it accepts them all.
    fn filtered(&self, keep: impl Fn(&Attr) -> bool) -> Schema {
        if self.iter().all(&keep) {
            return self.clone();
        }
        Schema::build(|b| b.extend(self.iter().filter(|a| keep(a))))
    }

    /// Set equality (order-insensitive). Structural `==` remains
    /// order-sensitive, which is what schema *identity* (equivalence
    /// condition (a) of §3.4) requires; this weaker test is used where the
    /// paper talks about schemata as attribute sets.
    pub fn same_attrs(&self, other: &Schema) -> bool {
        self.len() == other.len() && self.is_subset_of(other)
    }
}

impl PartialEq for Schema {
    fn eq(&self, other: &Schema) -> bool {
        self.attrs() == other.attrs()
    }
}

impl Eq for Schema {}

impl std::hash::Hash for Schema {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.attrs().hash(state);
    }
}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Schema")
            .field("attrs", &self.attrs())
            .finish()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, a) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "]")
    }
}

impl<'a> IntoIterator for &'a Schema {
    type Item = &'a Attr;
    type IntoIter = std::slice::Iter<'a, Attr>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<Attr> for Schema {
    fn from_iter<T: IntoIterator<Item = Attr>>(iter: T) -> Self {
        Schema::build(|b| {
            for a in iter {
                b.push(&a);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_builds_in_order() {
        let s = Schema::of(["a", "b", "c"]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.attrs()[1], Attr::new("b"));
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn of_rejects_duplicates() {
        let _ = Schema::of(["a", "a"]);
    }

    #[test]
    fn subset_is_order_insensitive() {
        let s = Schema::of(["b", "a"]);
        let t = Schema::of(["a", "b", "c"]);
        assert!(s.is_subset_of(&t));
        assert!(!t.is_subset_of(&s));
    }

    #[test]
    fn union_preserves_order_and_dedups() {
        let s = Schema::of(["a", "b"]);
        let t = Schema::of(["b", "c"]);
        assert_eq!(s.union(&t), Schema::of(["a", "b", "c"]));
    }

    #[test]
    fn difference_removes_only_named() {
        let s = Schema::of(["a", "b", "c"]);
        assert_eq!(s.difference(&Schema::of(["b"])), Schema::of(["a", "c"]));
        assert_eq!(s.difference(&Schema::empty()), s);
    }

    #[test]
    fn intersection_keeps_left_order() {
        let s = Schema::of(["c", "a", "b"]);
        let t = Schema::of(["a", "c"]);
        assert_eq!(s.intersection(&t), Schema::of(["c", "a"]));
    }

    #[test]
    fn same_attrs_vs_structural_eq() {
        let s = Schema::of(["a", "b"]);
        let t = Schema::of(["b", "a"]);
        assert!(s.same_attrs(&t));
        assert_ne!(s, t);
    }

    #[test]
    fn push_is_idempotent() {
        let mut s = Schema::of(["a"]);
        s.push(Attr::new("a"));
        s.push(Attr::new("b"));
        assert_eq!(s, Schema::of(["a", "b"]));
    }

    #[test]
    fn display_renders_brackets() {
        assert_eq!(Schema::of(["x", "y"]).to_string(), "[x,y]");
        assert_eq!(Schema::empty().to_string(), "[]");
    }
}
