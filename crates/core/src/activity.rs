//! Activities: the processing nodes of an ETL workflow.
//!
//! An activity is the paper's quadruple `A = (Id, I, O, S)` — a unique
//! identifier, input schemata, output schema and semantics. Identifiers stem
//! from the topological priority of the *initial* workflow (§4.1) and stay
//! attached to an activity through every transition, so state signatures stay
//! comparable across the whole search. Activities created *by* transitions
//! (factorization products, distribution clones, merges) carry structured
//! ids derived from their originators, which makes Factorize∘Distribute and
//! Merge∘Split exact involutions on ids.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

use crate::error::Result;
use crate::scalar::Scalar;
use crate::schema::{Attr, Schema};
use crate::semantics::{BinaryOp, UnaryOp};

/// Stable activity identifier.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ActivityId {
    /// Priority in the initial workflow's topological order.
    Base(u32),
    /// A package of activities produced by a Merge transition. It exists
    /// only inside a search: every optimizer returns a split workflow, and
    /// code after the search resolves or refuses it, never runs it.
    Merged(Vec<ActivityId>),
    /// Product of factorizing two non-clone activities.
    Factored(Box<ActivityId>, Box<ActivityId>),
    /// Clone `branch` of a distributed activity.
    Cloned(Box<ActivityId>, u32),
}

impl ActivityId {
    /// Identifier for the activity that replaces homologous `a` and `b`
    /// under Factorize. Factorizing the two clones of a previously
    /// distributed activity restores the original id, so FAC∘DIS is the
    /// identity on identifiers (keeps the state space finite, §4.1).
    pub fn factored(a: &ActivityId, b: &ActivityId) -> ActivityId {
        if let (ActivityId::Cloned(oa, _), ActivityId::Cloned(ob, _)) = (a, b) {
            if oa == ob {
                return (**oa).clone();
            }
        }
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        ActivityId::Factored(Box::new(lo.clone()), Box::new(hi.clone()))
    }

    /// Identifiers for the two clones of `a` under Distribute. Distributing
    /// a previously factored activity restores the original ids (DIS∘FAC is
    /// the identity on identifiers).
    pub fn distributed(a: &ActivityId) -> (ActivityId, ActivityId) {
        if let ActivityId::Factored(x, y) = a {
            return ((**x).clone(), (**y).clone());
        }
        (
            ActivityId::Cloned(Box::new(a.clone()), 1),
            ActivityId::Cloned(Box::new(a.clone()), 2),
        )
    }

    /// Identifier of a Merge package.
    pub fn merged(parts: &[ActivityId]) -> ActivityId {
        ActivityId::Merged(parts.to_vec())
    }
}

impl fmt::Display for ActivityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActivityId::Base(n) => write!(f, "{n}"),
            ActivityId::Merged(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, "+")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
            ActivityId::Factored(a, b) => write!(f, "{a}&{b}"),
            ActivityId::Cloned(a, k) => write!(f, "{a}'{k}"),
        }
    }
}

/// The semantics payload of an activity node.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// One input schema.
    Unary(UnaryOp),
    /// Two input schemata.
    Binary(BinaryOp),
    /// A merged linear chain of unary operations (Merge transition, §2.2):
    /// one node, applied front-to-back, that other transitions treat as an
    /// indivisible unit. It exists only inside a search: HS and HS-Greedy
    /// merge constrained pairs and split them before they return, so every
    /// optimizer returns a split workflow. The physical planner, the engine
    /// and the text format answer one with
    /// [`CoreError::MergedActivity`](crate::error::CoreError::MergedActivity).
    Merged(Vec<UnaryOp>),
}

impl Op {
    /// Number of input schemata.
    pub fn arity(&self) -> usize {
        match self {
            Op::Unary(_) | Op::Merged(_) => 1,
            Op::Binary(_) => 2,
        }
    }

    /// The unary link chain: a one-element slice for [`Op::Unary`], the full
    /// chain for [`Op::Merged`], `None` for [`Op::Binary`]. Callers that have
    /// already checked arity can `ok_or` a typed error instead of carrying an
    /// `unreachable!` arm through a second match.
    pub fn unary_chain(&self) -> Option<&[UnaryOp]> {
        match self {
            Op::Unary(op) => Some(std::slice::from_ref(op)),
            Op::Merged(chain) => Some(chain),
            Op::Binary(_) => None,
        }
    }

    /// The binary operator, `None` for unary and merged activities — the
    /// arity-2 counterpart of [`Op::unary_chain`].
    pub fn binary(&self) -> Option<&BinaryOp> {
        match self {
            Op::Binary(op) => Some(op),
            Op::Unary(_) | Op::Merged(_) => None,
        }
    }
}

/// An activity's label: a shared string, compared and displayed as one.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Label(Arc<str>);

impl Label {
    /// The label text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::ops::Deref for Label {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Label {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl PartialEq<str> for Label {
    fn eq(&self, other: &str) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == **other
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Label {
        Label(Arc::from(s))
    }
}

impl From<String> for Label {
    fn from(s: String) -> Label {
        Label(Arc::from(s))
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// An activity node: identifier, semantics and (cached) schemata.
///
/// The input/output schemata are *derived* state — recomputed by
/// [`crate::schema_gen`] whenever a transition rewires the graph — kept on
/// the node so applicability checks and the cost model never re-walk the
/// graph. The label, the op and the schemata are shared: the copy a
/// transition makes of a node it rewires (and the clones DIS and FAC make
/// of an activity) copies none of them.
#[derive(Debug, Clone, PartialEq)]
pub struct Activity {
    /// Stable identifier (see [`ActivityId`]).
    pub id: ActivityId,
    /// Human-readable label, e.g. `"$2E"`.
    pub label: Label,
    /// Semantics; edit through [`Arc::make_mut`].
    pub op: Arc<Op>,
    /// Input schemata, one per port (derived).
    pub inputs: Vec<Schema>,
    /// Output schema (derived).
    pub output: Schema,
}

impl Activity {
    /// Build an activity with empty (not-yet-derived) schemata. `label`
    /// and `op` may be another activity's, shared.
    pub fn new(id: ActivityId, label: impl Into<Label>, op: impl Into<Arc<Op>>) -> Self {
        let op = op.into();
        let arity = op.arity();
        Activity {
            id,
            label: label.into(),
            op,
            inputs: vec![Schema::empty(); arity],
            output: Schema::empty(),
        }
    }

    /// Is this a unary activity (including merged chains)?
    pub fn is_unary(&self) -> bool {
        self.op.arity() == 1
    }

    /// Is this a binary activity?
    pub fn is_binary(&self) -> bool {
        self.op.arity() == 2
    }

    /// The functionality (necessary) schema: attributes this activity needs
    /// from its providers. For a merged chain, an attribute generated by an
    /// earlier link satisfies a later link's need, so only externally-sourced
    /// attributes count.
    pub fn functionality(&self) -> Schema {
        match &*self.op {
            Op::Unary(op) => op.functionality(),
            Op::Binary(op) => op.functionality(),
            Op::Merged(chain) => {
                let mut needed = Schema::empty();
                let mut available = Schema::empty();
                for op in chain {
                    for a in op.functionality().iter() {
                        if !available.contains(a) {
                            needed.push(a.clone());
                        }
                    }
                    available = available.union(&op.generated());
                }
                needed
            }
        }
    }

    /// The generated schema: attributes this activity creates that its input
    /// did not contain. For a merged chain, intermediate attributes that a
    /// later link projects out again do not escape; this is computed against
    /// the cached input schema.
    pub fn generated(&self) -> Schema {
        match &*self.op {
            Op::Unary(op) => op.generated(),
            Op::Binary(_) => Schema::empty(),
            Op::Merged(_) => {
                let input = self.inputs.first().cloned().unwrap_or_default();
                self.output.difference(&input)
            }
        }
    }

    /// The projected-out schema relative to the cached input schema.
    pub fn projected_out(&self) -> Schema {
        let none = Schema::empty();
        let input = self.inputs.first().unwrap_or(&none);
        match &*self.op {
            Op::Unary(op) => op.projected_out(input),
            Op::Binary(_) => Schema::empty(),
            Op::Merged(_) => input.difference(&self.output),
        }
    }

    /// Visit the attributes of [`Activity::functionality`] while `f`
    /// returns `true`; returns whether every visit did. A unary activity's
    /// are read off its op without building a schema; an attribute may be
    /// visited twice.
    pub fn all_needed(&self, f: impl FnMut(&Attr) -> bool) -> bool {
        match &*self.op {
            Op::Unary(op) => op.all_needed(f),
            Op::Binary(_) | Op::Merged(_) => self.functionality().iter().all(f),
        }
    }

    /// Visit the attributes of [`Activity::generated`] as
    /// [`Activity::all_needed`] visits the needed ones.
    pub fn all_generated(&self, f: impl FnMut(&Attr) -> bool) -> bool {
        match &*self.op {
            Op::Unary(op) => op.all_generated(f),
            Op::Binary(_) | Op::Merged(_) => self.generated().iter().all(f),
        }
    }

    /// Visit the attributes of [`Activity::projected_out`] as
    /// [`Activity::all_needed`] visits the needed ones.
    pub fn all_dropped(&self, f: impl FnMut(&Attr) -> bool) -> bool {
        match (&*self.op, self.inputs.first()) {
            (Op::Unary(op), Some(input)) => op.all_dropped(input, f),
            _ => self.projected_out().iter().all(f),
        }
    }

    /// Does [`Activity::functionality`] hold `attr`?
    pub fn needs(&self, attr: &Attr) -> bool {
        !self.all_needed(|a| a != attr)
    }

    /// Compute the output schema from given input schemata (does not touch
    /// the cached ones), owned or borrowed.
    pub fn derive_output<S: Borrow<Schema>>(&self, inputs: &[S]) -> Result<Schema> {
        match &*self.op {
            Op::Unary(op) => op.output(inputs[0].borrow()),
            Op::Binary(op) => op.output(inputs[0].borrow(), inputs[1].borrow()),
            Op::Merged(chain) => {
                let mut s = inputs[0].borrow().clone();
                for op in chain {
                    s = op.output(&s)?;
                }
                Ok(s)
            }
        }
    }

    /// Estimated |output| / |input| ratio (product across a merged chain).
    /// Binary operators report 1.0; their cardinality is the cost model's
    /// business.
    pub fn selectivity(&self) -> f64 {
        match &*self.op {
            Op::Unary(op) => op.selectivity(),
            Op::Binary(_) => 1.0,
            Op::Merged(chain) => chain.iter().map(UnaryOp::selectivity).product(),
        }
    }

    /// Are all links of this activity row-wise (tuple-at-a-time)?
    pub fn is_row_wise(&self) -> bool {
        match &*self.op {
            Op::Unary(op) => op.is_row_wise(),
            Op::Binary(_) => false,
            Op::Merged(chain) => chain.iter().all(UnaryOp::is_row_wise),
        }
    }

    /// The unary operation chain of this activity: a single-element slice
    /// for a plain unary activity, the full chain for a merged one, `None`
    /// for binary activities.
    pub fn unary_links(&self) -> Option<&[UnaryOp]> {
        self.op.unary_chain()
    }

    /// Homologous-activity test (§3.2): same algebraic expression and same
    /// functionality / generated / projected-out schemata. The "converging
    /// local groups" part of the definition is checked by the caller, which
    /// knows the graph.
    pub fn same_semantics(&self, other: &Activity) -> bool {
        match (&*self.op, &*other.op) {
            (Op::Unary(a), Op::Unary(b)) => a.same_semantics(b),
            (Op::Binary(a), Op::Binary(b)) => a == b,
            (Op::Merged(a), Op::Merged(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.same_semantics(y))
            }
            _ => false,
        }
    }
}

impl fmt::Display for Activity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.id, self.label)
    }
}

/// Convenience constructor for filter activities used across tests.
pub fn unary(id: u32, label: &str, op: UnaryOp) -> Activity {
    Activity::new(ActivityId::Base(id), label, Op::Unary(op))
}

/// Convenience constructor for binary activities used across tests.
pub fn binary(id: u32, label: &str, op: BinaryOp) -> Activity {
    Activity::new(ActivityId::Base(id), label, Op::Binary(op))
}

/// Convenience constructor for an ADD-constant activity.
pub fn add_field(id: u32, label: &str, attr: &str, value: Scalar) -> Activity {
    Activity::new(
        ActivityId::Base(id),
        label,
        Op::Unary(UnaryOp::AddField {
            attr: attr.into(),
            value,
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::schema::Attr;

    #[test]
    fn id_display() {
        assert_eq!(ActivityId::Base(7).to_string(), "7");
        assert_eq!(
            ActivityId::merged(&[ActivityId::Base(4), ActivityId::Base(5)]).to_string(),
            "4+5"
        );
        let (c1, c2) = ActivityId::distributed(&ActivityId::Base(3));
        assert_eq!(c1.to_string(), "3'1");
        assert_eq!(c2.to_string(), "3'2");
    }

    #[test]
    fn factorize_of_clones_restores_original() {
        let orig = ActivityId::Base(9);
        let (c1, c2) = ActivityId::distributed(&orig);
        assert_eq!(ActivityId::factored(&c1, &c2), orig);
        // Order must not matter.
        assert_eq!(ActivityId::factored(&c2, &c1), orig);
    }

    #[test]
    fn distribute_of_factored_restores_pair() {
        let a = ActivityId::Base(3);
        let b = ActivityId::Base(6);
        let f = ActivityId::factored(&a, &b);
        assert_eq!(f.to_string(), "3&6");
        let (x, y) = ActivityId::distributed(&f);
        assert_eq!((x, y), (a, b));
    }

    #[test]
    fn factored_id_is_order_canonical() {
        let a = ActivityId::Base(3);
        let b = ActivityId::Base(6);
        assert_eq!(ActivityId::factored(&a, &b), ActivityId::factored(&b, &a));
    }

    #[test]
    fn clones_of_different_originals_do_not_collapse() {
        let (c1, _) = ActivityId::distributed(&ActivityId::Base(1));
        let (d1, _) = ActivityId::distributed(&ActivityId::Base(2));
        let f = ActivityId::factored(&c1, &d1);
        assert!(matches!(f, ActivityId::Factored(_, _)));
    }

    #[test]
    fn merged_chain_functionality_hides_internal_attrs() {
        // chain: f(a)->x  then  σ(x > 0): x is produced internally, so the
        // merged activity only needs `a` from its provider.
        let mut act = Activity::new(
            ActivityId::merged(&[ActivityId::Base(1), ActivityId::Base(2)]),
            "f+σ",
            Op::Merged(vec![
                UnaryOp::function("f", ["a"], "x"),
                UnaryOp::filter(Predicate::gt("x", 0)),
            ]),
        );
        assert_eq!(act.functionality(), Schema::of(["a"]));
        act.inputs = vec![Schema::of(["a", "b"])];
        act.output = act.derive_output(&[Schema::of(["a", "b"])]).unwrap();
        assert_eq!(act.output, Schema::of(["b", "x"]));
        assert_eq!(act.generated(), Schema::of(["x"]));
        assert_eq!(act.projected_out(), Schema::of(["a"]));
    }

    #[test]
    fn merged_selectivity_is_product() {
        let act = Activity::new(
            ActivityId::Base(1),
            "m",
            Op::Merged(vec![
                UnaryOp::filter(Predicate::True).with_selectivity(0.5),
                UnaryOp::filter(Predicate::True).with_selectivity(0.4),
            ]),
        );
        assert!((act.selectivity() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn binary_activity_basics() {
        let act = binary(7, "U", BinaryOp::Union);
        assert!(act.is_binary());
        assert_eq!(act.op.arity(), 2);
        assert!(act.generated().is_empty());
        let out = act
            .derive_output(&[Schema::of(["a"]), Schema::of(["a"])])
            .unwrap();
        assert_eq!(out, Schema::of(["a"]));
    }

    #[test]
    fn same_semantics_requires_same_variant() {
        let f1 = unary(1, "σ", UnaryOp::filter(Predicate::gt("x", 1)));
        let f2 = unary(9, "σ'", UnaryOp::filter(Predicate::gt("x", 1)));
        assert!(f1.same_semantics(&f2));
        let u = binary(3, "U", BinaryOp::Union);
        assert!(!f1.same_semantics(&u));
    }

    #[test]
    fn join_functionality_is_key() {
        let j = binary(4, "J", BinaryOp::Join(vec![Attr::new("k")]));
        assert_eq!(j.functionality(), Schema::of(["k"]));
    }

    #[test]
    fn op_accessors_are_total_inverses_by_arity() {
        let una = Op::Unary(UnaryOp::filter(Predicate::True));
        let mer = Op::Merged(vec![
            UnaryOp::filter(Predicate::True),
            UnaryOp::filter(Predicate::True),
        ]);
        let bin = Op::Binary(BinaryOp::Union);
        assert_eq!(una.unary_chain().map(<[_]>::len), Some(1));
        assert_eq!(mer.unary_chain().map(<[_]>::len), Some(2));
        assert!(bin.unary_chain().is_none());
        assert_eq!(bin.binary(), Some(&BinaryOp::Union));
        assert!(una.binary().is_none());
        assert!(mer.binary().is_none());
    }
}
