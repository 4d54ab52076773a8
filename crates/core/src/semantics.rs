//! Activity semantics: the algebraic operations an activity can carry.
//!
//! Every activity wraps either a [`UnaryOp`] (one input schema) or a
//! [`BinaryOp`] (two input schemata) — or a merged chain of unary ops, see
//! [`crate::activity`]. Each operation knows how to derive the auxiliary
//! schemata of §3.2 from its parameters and its input schema:
//!
//! * [`UnaryOp::functionality`] — the *necessary* attributes,
//! * [`UnaryOp::generated`] — attributes created by the op,
//! * [`UnaryOp::projected_out`] — input attributes dropped by the op,
//! * [`UnaryOp::output`] — the full output schema,
//!
//! and answers the two questions every planner asks of a kind:
//! [`UnaryOp::grouping`] (which rows a blocking op must see together; `None`
//! for row-wise ops, which drives Factorize/Distribute legality) and
//! [`UnaryOp::keeps`] (does an attribute leave the op with its input
//! values). Each is one exhaustive match, so a new kind is judged here or
//! does not compile.

// Schema derivation runs on every search state and inside daemon workers:
// an op that cannot derive its output is a typed error.
#![cfg_attr(not(test), deny(clippy::expect_used))]

use std::fmt;

use crate::error::{CoreError, Result};
use crate::predicate::Predicate;
use crate::scalar::Scalar;
use crate::schema::{Attr, Schema};

/// Aggregate function of a group-by activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Sum of a numeric attribute.
    Sum,
    /// Count of rows in the group.
    Count,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Arithmetic mean.
    Avg,
}

impl AggFunc {
    /// Function name as it appears in post-conditions, e.g. `γ-SUM`.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Sum => "SUM",
            AggFunc::Count => "COUNT",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        }
    }
}

/// One aggregate column of an [`Aggregation`].
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// Aggregate function.
    pub func: AggFunc,
    /// Aggregated input attribute.
    pub input: Attr,
    /// Name of the produced attribute. May equal `input` (the paper's
    /// `γ-SUM` keeps the name `€COST`).
    pub output: Attr,
}

/// A group-by aggregation: the paper's `γ` activity.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregation {
    /// Grouping attributes (kept in the output).
    pub group_by: Vec<Attr>,
    /// Aggregate columns.
    pub aggregates: Vec<AggSpec>,
}

impl Aggregation {
    /// Build an aggregation.
    pub fn new<G, A>(group_by: G, aggregates: Vec<AggSpec>) -> Self
    where
        G: IntoIterator<Item = A>,
        A: Into<Attr>,
    {
        Aggregation {
            group_by: group_by.into_iter().map(Into::into).collect(),
            aggregates,
        }
    }

    /// Single-aggregate convenience.
    pub fn sum<G, A>(group_by: G, input: impl Into<Attr>, output: impl Into<Attr>) -> Self
    where
        G: IntoIterator<Item = A>,
        A: Into<Attr>,
    {
        Aggregation::new(
            group_by,
            vec![AggSpec {
                func: AggFunc::Sum,
                input: input.into(),
                output: output.into(),
            }],
        )
    }
}

/// A function application: the paper's `f` activities (`$2€`, `A2E`, …).
///
/// Whether the input attributes survive is part of the template: `$2€`
/// replaces `dollar_cost` by `euro_cost` (inputs projected out), while a
/// checksum function might keep its inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionApp {
    /// Registered function name; the engine resolves it to executable code.
    pub function: String,
    /// Input attributes (the functionality schema).
    pub inputs: Vec<Attr>,
    /// Generated output attribute. If it equals an input attribute the
    /// function is an *in-place* transform whose output keeps the same
    /// reference name — the `A2E` date case of §3.1. **Contract:** an
    /// in-place function must be entity-preserving (a format conversion);
    /// re-using the name for a value-changing transform (e.g. a currency
    /// conversion) violates the naming principle and compromises swap
    /// condition 3, exactly as the paper warns — give such functions a
    /// fresh output name instead.
    pub output: Attr,
    /// Keep the input attributes in the output schema? Ignored (treated as
    /// `true`) for the attribute that the output overwrites in-place.
    pub keep_inputs: bool,
    /// Is the function injective on its inputs (distinct inputs give
    /// distinct outputs)? Template-level knowledge: format conversions
    /// (`A2E`), currency conversions and surrogate lookups are injective;
    /// truncations and bucketizations are not. Injectivity gates the swaps
    /// and distributions whose exactness depends on the function not
    /// collapsing values (e.g. swapping a function applied to a grouper
    /// across an aggregation, or distributing it over a bag difference).
    pub injective: bool,
}

/// What a blocking op groups its input on: the rows it must see together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grouping<'a> {
    /// Rows that agree on these attributes (γ's groupers, the PK check's
    /// key).
    Keys(&'a [Attr]),
    /// Identical whole rows (duplicate elimination).
    WholeRow,
}

/// Why a [`UnaryOp`] cannot run on an input schema.
enum Misfit<'a> {
    /// A needed attribute is missing.
    Needs,
    /// This generated attribute already names an input attribute.
    Collides(&'a Attr),
}

/// The estimate field of a [`UnaryOp`], for the kinds that carry one: the
/// one list of them. Yields an `Option` of a reference with the
/// mutability of `$op`.
macro_rules! estimate_of {
    ($op:expr) => {
        match $op {
            UnaryOp::Filter { selectivity, .. }
            | UnaryOp::NotNull { selectivity, .. }
            | UnaryOp::PkCheck { selectivity, .. }
            | UnaryOp::Dedup { selectivity }
            | UnaryOp::Aggregate { selectivity, .. } => Some(selectivity),
            UnaryOp::Function(_)
            | UnaryOp::ProjectOut(_)
            | UnaryOp::AddField { .. }
            | UnaryOp::SurrogateKey { .. } => None,
        }
    };
}

/// A unary activity operation.
#[derive(Debug, Clone, PartialEq)]
pub enum UnaryOp {
    /// Selection `σ(predicate)`.
    Filter {
        /// Row predicate.
        predicate: Predicate,
        /// Estimated fraction of rows that pass (0, 1].
        selectivity: f64,
    },
    /// Not-null check on one attribute — the paper's `NN` activity.
    NotNull {
        /// Checked attribute.
        attr: Attr,
        /// Estimated fraction of rows that pass.
        selectivity: f64,
    },
    /// Primary-key violation check: keeps the first row per key, drops
    /// subsequent violators.
    PkCheck {
        /// Key attributes.
        key: Vec<Attr>,
        /// Estimated fraction of rows that pass.
        selectivity: f64,
    },
    /// Duplicate elimination over the whole row.
    Dedup {
        /// Estimated fraction of rows that survive.
        selectivity: f64,
    },
    /// Function application.
    Function(FunctionApp),
    /// Group-by aggregation.
    Aggregate {
        /// The aggregation spec.
        agg: Aggregation,
        /// Estimated ratio |groups| / |input rows|.
        selectivity: f64,
    },
    /// Projection-out: drop the listed attributes (`π-out`).
    ProjectOut(Vec<Attr>),
    /// Add a constant attribute (e.g. enrich rows with their SOURCE before a
    /// surrogate-key assignment — the paper's merge-constraint example).
    AddField {
        /// New attribute name.
        attr: Attr,
        /// Constant value.
        value: Scalar,
    },
    /// Surrogate-key assignment via a lookup table: consumes the production
    /// key, generates the surrogate.
    SurrogateKey {
        /// Production-key attribute (projected out).
        key: Attr,
        /// Generated surrogate attribute.
        surrogate: Attr,
        /// Name of the lookup table (engine-side).
        lookup: String,
    },
}

impl UnaryOp {
    /// `σ(predicate)` with selectivity 1.0 (tune with
    /// [`UnaryOp::with_selectivity`]).
    pub fn filter(predicate: Predicate) -> Self {
        UnaryOp::Filter {
            predicate,
            selectivity: 1.0,
        }
    }

    /// `NN(attr)` with selectivity 1.0.
    pub fn not_null(attr: impl Into<Attr>) -> Self {
        UnaryOp::NotNull {
            attr: attr.into(),
            selectivity: 1.0,
        }
    }

    /// Function application dropping its inputs (the `$2€` shape).
    pub fn function<I, A>(name: impl Into<String>, inputs: I, output: impl Into<Attr>) -> Self
    where
        I: IntoIterator<Item = A>,
        A: Into<Attr>,
    {
        UnaryOp::Function(FunctionApp {
            function: name.into(),
            inputs: inputs.into_iter().map(Into::into).collect(),
            output: output.into(),
            keep_inputs: false,
            injective: true,
        })
    }

    /// Function application that is *not* injective (e.g. a bucketization).
    pub fn function_noninjective<I, A>(
        name: impl Into<String>,
        inputs: I,
        output: impl Into<Attr>,
    ) -> Self
    where
        I: IntoIterator<Item = A>,
        A: Into<Attr>,
    {
        UnaryOp::Function(FunctionApp {
            function: name.into(),
            inputs: inputs.into_iter().map(Into::into).collect(),
            output: output.into(),
            keep_inputs: false,
            injective: false,
        })
    }

    /// Aggregation with |groups|/|rows| ratio 1.0 (tune with
    /// [`UnaryOp::with_selectivity`]).
    pub fn aggregate(agg: Aggregation) -> Self {
        UnaryOp::Aggregate {
            agg,
            selectivity: 1.0,
        }
    }

    /// `π-out(attrs)`.
    pub fn project_out<I, A>(attrs: I) -> Self
    where
        I: IntoIterator<Item = A>,
        A: Into<Attr>,
    {
        UnaryOp::ProjectOut(attrs.into_iter().map(Into::into).collect())
    }

    /// Surrogate-key assignment.
    pub fn surrogate_key(
        key: impl Into<Attr>,
        surrogate: impl Into<Attr>,
        lookup: impl Into<String>,
    ) -> Self {
        UnaryOp::SurrogateKey {
            key: key.into(),
            surrogate: surrogate.into(),
            lookup: lookup.into(),
        }
    }

    /// Override the selectivity estimate (no-op for ops whose output
    /// cardinality is structurally 1:1, like functions and projections).
    pub fn with_selectivity(mut self, s: f64) -> Self {
        self.set_selectivity(s);
        self
    }

    /// [`UnaryOp::with_selectivity`] in place.
    pub fn set_selectivity(&mut self, s: f64) {
        assert!(
            s > 0.0 && s <= 1.0,
            "selectivity must be in (0, 1], got {s}"
        );
        if let Some(estimate) = estimate_of!(self) {
            *estimate = s;
        }
    }

    /// The selectivity estimate of a kind that carries one — selection,
    /// not-null, PK check, duplicate elimination and aggregation, the kinds
    /// that change cardinality — and `None` for the structurally 1:1 kinds.
    pub fn estimate(&self) -> Option<f64> {
        estimate_of!(self).copied()
    }

    /// Estimated |output| / |input| ratio.
    pub fn selectivity(&self) -> f64 {
        self.estimate().unwrap_or(1.0)
    }

    /// The functionality (necessary) schema: attributes participating in the
    /// computation (§3.2). [`UnaryOp::all_needed`] reads it without
    /// building it.
    pub fn functionality(&self) -> Schema {
        Schema::build(|b| {
            self.all_needed(|a| {
                b.push(a);
                true
            });
        })
    }

    /// The generated schema: output attributes the activity *creates*
    /// (§3.2). An in-place function transform (output name equals an input
    /// name) generates nothing new — the naming principle declares both
    /// sides the same real-world entity, which is exactly what lets `γ` swap
    /// with `A2E` in the paper's running example. Aggregate outputs, in
    /// contrast, are always generated *even when they reuse the input's
    /// name*: `SUM(€COST)` is a new entity, and treating it as generated is
    /// what blocks pushing `σ(€COST)` below the aggregation (the paper's
    /// "we cannot push the selection … before the aggregation").
    /// [`UnaryOp::all_generated`] reads it without building it.
    pub fn generated(&self) -> Schema {
        Schema::build(|b| {
            self.all_generated(|a| {
                b.push(a);
                true
            });
        })
    }

    /// The projected-out schema *relative to an input schema*: input
    /// attributes that do not survive the activity (§3.2).
    /// [`UnaryOp::all_dropped`] reads it without building it.
    pub fn projected_out(&self, input: &Schema) -> Schema {
        Schema::build(|b| {
            self.all_dropped(input, |a| {
                b.push(a);
                true
            });
        })
    }

    /// Visit the attributes of [`UnaryOp::functionality`] in order while
    /// `f` returns `true`; returns whether every visit did. Allocates
    /// nothing; an attribute the op names twice may be visited twice.
    pub fn all_needed(&self, mut f: impl FnMut(&Attr) -> bool) -> bool {
        match self {
            UnaryOp::Filter { predicate, .. } => predicate.all_attrs(&mut f),
            UnaryOp::NotNull { attr, .. } | UnaryOp::SurrogateKey { key: attr, .. } => f(attr),
            UnaryOp::PkCheck { key: attrs, .. } | UnaryOp::ProjectOut(attrs) => attrs.iter().all(f),
            UnaryOp::Function(fa) => fa.inputs.iter().all(f),
            UnaryOp::Aggregate { agg, .. } => {
                agg.group_by.iter().all(&mut f) && agg.aggregates.iter().all(|a| f(&a.input))
            }
            UnaryOp::Dedup { .. } | UnaryOp::AddField { .. } => true,
        }
    }

    /// Visit the attributes of [`UnaryOp::generated`] as
    /// [`UnaryOp::all_needed`] visits the needed ones.
    pub fn all_generated(&self, mut f: impl FnMut(&Attr) -> bool) -> bool {
        match self {
            UnaryOp::Function(fa) => fa.inputs.contains(&fa.output) || f(&fa.output),
            UnaryOp::Aggregate { agg, .. } => agg.aggregates.iter().all(|a| f(&a.output)),
            UnaryOp::AddField { attr, .. }
            | UnaryOp::SurrogateKey {
                surrogate: attr, ..
            } => f(attr),
            UnaryOp::Filter { .. }
            | UnaryOp::NotNull { .. }
            | UnaryOp::PkCheck { .. }
            | UnaryOp::Dedup { .. }
            | UnaryOp::ProjectOut(_) => true,
        }
    }

    /// Visit the attributes of [`UnaryOp::projected_out`] for `input` as
    /// [`UnaryOp::all_needed`] visits the needed ones.
    pub fn all_dropped(&self, input: &Schema, mut f: impl FnMut(&Attr) -> bool) -> bool {
        match self {
            UnaryOp::Function(fa) => {
                fa.keep_inputs || fa.inputs.iter().filter(|a| **a != fa.output).all(f)
            }
            // Everything the output does not carry; all of the input when
            // there is no output.
            UnaryOp::Aggregate { agg, .. } => {
                let fits = self.misfit(input).is_none();
                let kept = |a: &Attr| {
                    fits && (agg.group_by.contains(a)
                        || agg.aggregates.iter().any(|s| s.output == *a))
                };
                input.iter().filter(|a| !kept(a)).all(f)
            }
            UnaryOp::ProjectOut(attrs) => attrs.iter().all(f),
            UnaryOp::SurrogateKey { key, .. } => f(key),
            UnaryOp::Filter { .. }
            | UnaryOp::NotNull { .. }
            | UnaryOp::PkCheck { .. }
            | UnaryOp::Dedup { .. }
            | UnaryOp::AddField { .. } => true,
        }
    }

    /// Why the op cannot run on `input`, if it cannot: a needed attribute
    /// is missing, or a generated one would collide with an unrelated input
    /// attribute of the same name (which the naming principle forbids: one
    /// name, one entity). Allocates nothing.
    fn misfit(&self, input: &Schema) -> Option<Misfit<'_>> {
        if !self.all_needed(|a| input.contains(a)) {
            return Some(Misfit::Needs);
        }
        // Collision guards: a *fresh* output name must actually be fresh.
        let collision = match self {
            UnaryOp::Function(f) => {
                (!f.inputs.contains(&f.output) && input.contains(&f.output)).then_some(&f.output)
            }
            UnaryOp::AddField { attr, .. } => input.contains(attr).then_some(attr),
            UnaryOp::SurrogateKey { surrogate, key, .. } => {
                (surrogate != key && input.contains(surrogate)).then_some(surrogate)
            }
            UnaryOp::Aggregate { agg, .. } => agg
                .aggregates
                .iter()
                .find(|s| s.output != s.input && agg.group_by.contains(&s.output))
                .map(|s| &s.output),
            UnaryOp::Filter { .. }
            | UnaryOp::NotNull { .. }
            | UnaryOp::PkCheck { .. }
            | UnaryOp::Dedup { .. }
            | UnaryOp::ProjectOut(_) => None,
        };
        collision.map(Misfit::Collides)
    }

    /// Compute the output schema for a given input schema:
    /// `(input − projected_out) ∪ generated`, preserving input order and
    /// appending generated attributes — for `γ`, its groupers then its
    /// outputs. Fails if the functionality schema is not contained in the
    /// input (the op cannot run here — the situation swap condition 3
    /// exists to prevent), or if a generated attribute would collide with
    /// an unrelated input attribute of the same name (which the naming
    /// principle forbids: one name, one entity).
    ///
    /// The filters, NN, PK and DD return `input` itself (shared); every
    /// other kind builds one schema, or shares `input` when it drops and
    /// adds nothing.
    pub fn output(&self, input: &Schema) -> Result<Schema> {
        match self.misfit(input) {
            Some(Misfit::Needs) => {
                let fun = self.functionality();
                return Err(CoreError::Schema(format!(
                    "operation {self} needs attributes {fun} but input offers only {input}"
                )));
            }
            Some(Misfit::Collides(attr)) => {
                return Err(CoreError::Schema(format!(
                    "operation {self} would generate `{attr}`, which already names a \
                     different attribute here (naming principle violation)"
                )));
            }
            None => {}
        }
        let dropped = |a: &Attr| !self.all_dropped(input, |d| d != a);
        let changes = match self {
            UnaryOp::Filter { .. }
            | UnaryOp::NotNull { .. }
            | UnaryOp::PkCheck { .. }
            | UnaryOp::Dedup { .. } => false,
            // Aggregation rebuilds the schema wholesale: groupers then
            // aggregate outputs.
            UnaryOp::Aggregate { agg, .. } => {
                return Ok(Schema::build(|b| {
                    b.extend(&agg.group_by);
                    b.extend(agg.aggregates.iter().map(|s| &s.output));
                }));
            }
            UnaryOp::Function(_)
            | UnaryOp::ProjectOut(_)
            | UnaryOp::AddField { .. }
            | UnaryOp::SurrogateKey { .. } => {
                input.iter().any(dropped) || !self.all_generated(|a| input.contains(a))
            }
        };
        if !changes {
            return Ok(input.clone());
        }
        Ok(Schema::build(|b| {
            b.extend(input.iter().filter(|a| !dropped(a)));
            self.all_generated(|a| {
                b.push(a);
                true
            });
        }))
    }

    /// What a blocking op groups rows on — `γ` its groupers, the PK check
    /// its key, dedup the whole row — and `None` for the row-wise kinds,
    /// which judge each row alone. A partitioned executor co-locates on it,
    /// and a sort-based implementation sorts on it.
    pub fn grouping(&self) -> Option<Grouping<'_>> {
        match self {
            UnaryOp::Aggregate { agg, .. } => Some(Grouping::Keys(&agg.group_by)),
            UnaryOp::PkCheck { key, .. } => Some(Grouping::Keys(key)),
            UnaryOp::Dedup { .. } => Some(Grouping::WholeRow),
            UnaryOp::Filter { .. }
            | UnaryOp::NotNull { .. }
            | UnaryOp::Function(_)
            | UnaryOp::ProjectOut(_)
            | UnaryOp::AddField { .. }
            | UnaryOp::SurrogateKey { .. } => None,
        }
    }

    /// Row-wise operations act on each tuple independently; they distribute
    /// over (and factorize through) union, difference and intersection.
    /// Blocking operations (`γ`, dedup, PK check) do not: e.g.
    /// `γ(A) ∪ γ(B) ≠ γ(A ∪ B)`.
    pub fn is_row_wise(&self) -> bool {
        self.grouping().is_none()
    }

    /// Do the rows leaving the op carry `attr` with the values it had on
    /// the way in? Not when the op projects it out, generates it, or
    /// rewrites it in place (an in-place function, injective or not, maps
    /// values to other values, and an aggregate output that reuses its
    /// input's name is a new entity). A hash partitioning on `attr`
    /// survives the op exactly when this holds, and so does a sort order on
    /// it through a row-wise op.
    pub fn keeps(&self, attr: &Attr) -> bool {
        match self {
            UnaryOp::Filter { .. }
            | UnaryOp::NotNull { .. }
            | UnaryOp::PkCheck { .. }
            | UnaryOp::Dedup { .. } => true,
            UnaryOp::Function(f) => {
                *attr != f.output && (f.keep_inputs || !f.inputs.contains(attr))
            }
            UnaryOp::Aggregate { agg, .. } => {
                agg.group_by.contains(attr) && agg.aggregates.iter().all(|s| s.output != *attr)
            }
            UnaryOp::ProjectOut(attrs) => !attrs.contains(attr),
            UnaryOp::AddField { attr: added, .. } => attr != added,
            UnaryOp::SurrogateKey { key, surrogate, .. } => attr != key && attr != surrogate,
        }
    }

    /// Short operator name for display and post-conditions.
    pub fn op_name(&self) -> String {
        match self {
            UnaryOp::Filter { .. } => "σ".to_owned(),
            UnaryOp::NotNull { .. } => "NN".to_owned(),
            UnaryOp::PkCheck { .. } => "PK".to_owned(),
            UnaryOp::Dedup { .. } => "DD".to_owned(),
            UnaryOp::Function(f) => f.function.clone(),
            UnaryOp::Aggregate { agg, .. } => {
                let funcs: Vec<&str> = agg.aggregates.iter().map(|a| a.func.name()).collect();
                format!("γ-{}", funcs.join("/"))
            }
            UnaryOp::ProjectOut(_) => "π-out".to_owned(),
            UnaryOp::AddField { .. } => "ADD".to_owned(),
            UnaryOp::SurrogateKey { .. } => "SK".to_owned(),
        }
    }

    /// Structural semantic equality — "same operation in terms of algebraic
    /// expression" (homologous condition (b), §3.2). Selectivity estimates
    /// are metadata, not semantics, so they are ignored.
    pub fn same_semantics(&self, other: &UnaryOp) -> bool {
        use UnaryOp::*;
        match (self, other) {
            (Filter { predicate: p1, .. }, Filter { predicate: p2, .. }) => p1 == p2,
            (NotNull { attr: a1, .. }, NotNull { attr: a2, .. }) => a1 == a2,
            (PkCheck { key: k1, .. }, PkCheck { key: k2, .. }) => k1 == k2,
            (Dedup { .. }, Dedup { .. }) => true,
            (Function(f1), Function(f2)) => f1 == f2,
            (Aggregate { agg: g1, .. }, Aggregate { agg: g2, .. }) => g1 == g2,
            (ProjectOut(a1), ProjectOut(a2)) => a1 == a2,
            (
                AddField {
                    attr: a1,
                    value: v1,
                },
                AddField {
                    attr: a2,
                    value: v2,
                },
            ) => a1 == a2 && v1 == v2,
            (
                SurrogateKey {
                    key: k1,
                    surrogate: s1,
                    lookup: l1,
                },
                SurrogateKey {
                    key: k2,
                    surrogate: s2,
                    lookup: l2,
                },
            ) => k1 == k2 && s1 == s2 && l1 == l2,
            _ => false,
        }
    }
}

impl fmt::Display for UnaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnaryOp::Filter { predicate, .. } => write!(f, "σ({predicate})"),
            UnaryOp::NotNull { attr, .. } => write!(f, "NN({attr})"),
            UnaryOp::PkCheck { key, .. } => {
                write!(f, "PK({})", join_attrs(key))
            }
            UnaryOp::Dedup { .. } => write!(f, "DD()"),
            UnaryOp::Function(fa) => {
                write!(
                    f,
                    "{}({})->{}",
                    fa.function,
                    join_attrs(&fa.inputs),
                    fa.output
                )
            }
            UnaryOp::Aggregate { agg, .. } => {
                write!(f, "{}({})", self.op_name(), join_attrs(&agg.group_by))
            }
            UnaryOp::ProjectOut(attrs) => write!(f, "π-out({})", join_attrs(attrs)),
            UnaryOp::AddField { attr, value } => write!(f, "ADD({attr}={value})"),
            UnaryOp::SurrogateKey { key, surrogate, .. } => {
                write!(f, "SK({key}->{surrogate})")
            }
        }
    }
}

fn join_attrs(attrs: &[Attr]) -> String {
    attrs
        .iter()
        .map(|a| a.name().to_owned())
        .collect::<Vec<_>>()
        .join(",")
}

/// A binary activity operation.
#[derive(Debug, Clone, PartialEq)]
pub enum BinaryOp {
    /// Bag union of two flows with identical attribute sets.
    Union,
    /// Equi-join on the listed attributes (present in both inputs).
    Join(Vec<Attr>),
    /// Bag difference `left − right`.
    Difference,
    /// Bag intersection.
    Intersection,
}

impl BinaryOp {
    /// Is the operator commutative in its inputs? Determines whether the
    /// state signature may canonicalize branch order (§4.1).
    pub fn is_commutative(&self) -> bool {
        matches!(
            self,
            BinaryOp::Union | BinaryOp::Intersection | BinaryOp::Join(_)
        )
    }

    /// Functionality schema (the attributes the operator itself inspects).
    pub fn functionality(&self) -> Schema {
        match self {
            BinaryOp::Join(on) => on.iter().cloned().collect(),
            _ => Schema::empty(),
        }
    }

    /// Output schema given both input schemata. Union/difference/
    /// intersection require set-equal schemata; join concatenates.
    pub fn output(&self, left: &Schema, right: &Schema) -> Result<Schema> {
        match self {
            BinaryOp::Union | BinaryOp::Difference | BinaryOp::Intersection => {
                if !left.same_attrs(right) {
                    return Err(CoreError::Schema(format!(
                        "{self} requires identical attribute sets, got {left} vs {right}"
                    )));
                }
                Ok(left.clone())
            }
            BinaryOp::Join(on) => {
                for a in on {
                    if !left.contains(a) || !right.contains(a) {
                        return Err(CoreError::Schema(format!(
                            "join attribute `{a}` missing from an input ({left} / {right})"
                        )));
                    }
                }
                // Join keys appear once; remaining right attrs appended.
                Ok(left.union(right))
            }
        }
    }

    /// Short operator name.
    pub fn op_name(&self) -> &'static str {
        match self {
            BinaryOp::Union => "U",
            BinaryOp::Join(_) => "JOIN",
            BinaryOp::Difference => "DIFF",
            BinaryOp::Intersection => "INTERSECT",
        }
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinaryOp::Join(on) => write!(f, "JOIN({})", join_attrs(on)),
            other => f.write_str(other.op_name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abcd() -> Schema {
        Schema::of(["a", "b", "c", "d"])
    }

    #[test]
    fn filter_schemata() {
        let op = UnaryOp::filter(Predicate::gt("b", 5));
        assert_eq!(op.functionality(), Schema::of(["b"]));
        assert!(op.generated().is_empty());
        assert!(op.projected_out(&abcd()).is_empty());
        assert_eq!(op.output(&abcd()).unwrap(), abcd());
    }

    #[test]
    fn output_fails_when_functionality_missing() {
        let op = UnaryOp::filter(Predicate::gt("z", 5));
        assert!(op.output(&abcd()).is_err());
    }

    #[test]
    fn function_replaces_input_attr() {
        // $2€: consumes dollar_cost, emits euro_cost.
        let op = UnaryOp::function("dollar2euro", ["dollar_cost"], "euro_cost");
        let input = Schema::of(["pkey", "dollar_cost"]);
        assert_eq!(op.functionality(), Schema::of(["dollar_cost"]));
        assert_eq!(op.generated(), Schema::of(["euro_cost"]));
        assert_eq!(op.projected_out(&input), Schema::of(["dollar_cost"]));
        assert_eq!(
            op.output(&input).unwrap(),
            Schema::of(["pkey", "euro_cost"])
        );
    }

    #[test]
    fn in_place_function_generates_nothing() {
        // A2E: American date → European date, same reference name (§3.1).
        let op = UnaryOp::function("am2eu", ["date"], "date");
        let input = Schema::of(["pkey", "date"]);
        assert!(op.generated().is_empty());
        assert!(op.projected_out(&input).is_empty());
        assert_eq!(op.output(&input).unwrap(), input);
    }

    #[test]
    fn aggregation_rebuilds_schema() {
        let op = UnaryOp::aggregate(Aggregation::sum(
            ["pkey", "source", "date"],
            "euro_cost",
            "euro_cost",
        ));
        let input = Schema::of(["pkey", "source", "date", "dept", "euro_cost"]);
        assert_eq!(
            op.output(&input).unwrap(),
            Schema::of(["pkey", "source", "date", "euro_cost"])
        );
        assert_eq!(op.projected_out(&input), Schema::of(["dept"]));
        // Aggregate outputs are always generated, even under a reused name:
        // SUM(€COST) is a new entity (blocks σ push-down past γ).
        assert_eq!(op.generated(), Schema::of(["euro_cost"]));
    }

    #[test]
    fn aggregation_with_fresh_output_generates() {
        let op = UnaryOp::aggregate(Aggregation::new(
            ["k"],
            vec![AggSpec {
                func: AggFunc::Count,
                input: Attr::new("v"),
                output: Attr::new("cnt"),
            }],
        ));
        assert_eq!(op.generated(), Schema::of(["cnt"]));
        let input = Schema::of(["k", "v"]);
        assert_eq!(op.output(&input).unwrap(), Schema::of(["k", "cnt"]));
    }

    #[test]
    fn surrogate_key_swaps_key_for_surrogate() {
        let op = UnaryOp::surrogate_key("pkey", "skey", "LOOKUP_PARTS");
        let input = Schema::of(["pkey", "cost"]);
        assert_eq!(op.output(&input).unwrap(), Schema::of(["cost", "skey"]));
        assert_eq!(op.functionality(), Schema::of(["pkey"]));
        assert_eq!(op.generated(), Schema::of(["skey"]));
        assert_eq!(op.projected_out(&input), Schema::of(["pkey"]));
    }

    #[test]
    fn project_out_drops_attrs() {
        let op = UnaryOp::project_out(["b", "d"]);
        assert_eq!(op.output(&abcd()).unwrap(), Schema::of(["a", "c"]));
    }

    #[test]
    fn add_field_appends() {
        let op = UnaryOp::AddField {
            attr: Attr::new("src"),
            value: Scalar::from("S1"),
        };
        assert_eq!(
            op.output(&Schema::of(["a"])).unwrap(),
            Schema::of(["a", "src"])
        );
        assert!(op.functionality().is_empty());
    }

    #[test]
    fn every_kind_states_its_grouping_and_what_it_keeps() {
        let a2e = UnaryOp::function("am2eu", ["date"], "date");
        let d2e = UnaryOp::function("dollar2euro", ["usd"], "eur");
        let checksum = UnaryOp::Function(FunctionApp {
            function: "crc".into(),
            inputs: vec![Attr::new("a"), Attr::new("b")],
            output: Attr::new("crc"),
            keep_inputs: true,
            injective: false,
        });
        let sk = UnaryOp::surrogate_key("pkey", "skey", "LOOKUP");
        // γ groups on k and sums v under v's own name, and c into cnt.
        let agg = UnaryOp::aggregate(Aggregation::new(
            ["k"],
            vec![
                AggSpec {
                    func: AggFunc::Sum,
                    input: Attr::new("v"),
                    output: Attr::new("v"),
                },
                AggSpec {
                    func: AggFunc::Count,
                    input: Attr::new("c"),
                    output: Attr::new("cnt"),
                },
            ],
        ));
        let pk = UnaryOp::PkCheck {
            key: vec![Attr::new("k")],
            selectivity: 1.0,
        };
        let dd = UnaryOp::Dedup { selectivity: 1.0 };
        let add = UnaryOp::AddField {
            attr: Attr::new("src"),
            value: Scalar::from("S1"),
        };
        let filter = UnaryOp::filter(Predicate::gt("x", 1));
        let nn = UnaryOp::not_null("x");
        let pi = UnaryOp::project_out(["x"]);

        let k = [Attr::new("k")];
        assert_eq!(agg.grouping(), Some(Grouping::Keys(&k)));
        assert_eq!(pk.grouping(), Some(Grouping::Keys(&k)));
        assert_eq!(dd.grouping(), Some(Grouping::WholeRow));
        for blocking in [&agg, &pk, &dd] {
            assert!(!blocking.is_row_wise(), "{blocking}");
        }
        for row_wise in [&a2e, &d2e, &checksum, &sk, &add, &filter, &nn, &pi] {
            assert_eq!(row_wise.grouping(), None, "{row_wise}");
            assert!(row_wise.is_row_wise(), "{row_wise}");
        }

        // (op, attribute, kept?)
        let cases: [(&UnaryOp, &str, bool); 22] = [
            // In place: the values change under the same name, injective
            // or not.
            (&a2e, "date", false),
            (&a2e, "other", true),
            // Fresh output: the input is projected out, the output new.
            (&d2e, "usd", false),
            (&d2e, "eur", false),
            (&d2e, "other", true),
            // keep_inputs: the inputs leave untouched.
            (&checksum, "a", true),
            (&checksum, "b", true),
            (&checksum, "crc", false),
            // The SK key is consumed, the surrogate generated.
            (&sk, "pkey", false),
            (&sk, "skey", false),
            (&sk, "cost", true),
            // A grouper survives; an aggregated input does not, nor does
            // an output that reuses its input's name.
            (&agg, "k", true),
            (&agg, "c", false),
            (&agg, "v", false),
            (&agg, "cnt", false),
            (&add, "src", false),
            (&add, "x", true),
            (&pi, "x", false),
            (&pi, "y", true),
            (&filter, "x", true),
            (&nn, "x", true),
            (&pk, "v", true),
        ];
        for (op, attr, kept) in cases {
            assert_eq!(op.keeps(&Attr::new(attr)), kept, "{op} keeps {attr}");
        }
        assert!(dd.keeps(&Attr::new("x")));
    }

    /// The schema facts as they were derived before they were read off
    /// the op: allocated schemata throughout, `output` as
    /// `(input − projected_out(input)) ∪ generated()` — for `γ`, its
    /// groupers then its outputs — behind the same guards and messages.
    mod reference {
        use super::*;

        pub fn functionality(op: &UnaryOp) -> Schema {
            match op {
                UnaryOp::Filter { predicate, .. } => predicate.referenced_attrs(),
                UnaryOp::NotNull { attr, .. } => Schema::of([attr.clone()]),
                UnaryOp::PkCheck { key, .. } => key.iter().cloned().collect(),
                UnaryOp::Dedup { .. } | UnaryOp::AddField { .. } => Schema::empty(),
                UnaryOp::Function(f) => f.inputs.iter().cloned().collect(),
                UnaryOp::Aggregate { agg, .. } => {
                    let mut s: Schema = agg.group_by.iter().cloned().collect();
                    for a in &agg.aggregates {
                        s.push(a.input.clone());
                    }
                    s
                }
                UnaryOp::ProjectOut(attrs) => attrs.iter().cloned().collect(),
                UnaryOp::SurrogateKey { key, .. } => Schema::of([key.clone()]),
            }
        }

        pub fn generated(op: &UnaryOp) -> Schema {
            match op {
                UnaryOp::Function(f) if f.inputs.contains(&f.output) => Schema::empty(),
                UnaryOp::Function(f) => Schema::of([f.output.clone()]),
                UnaryOp::Aggregate { agg, .. } => {
                    agg.aggregates.iter().map(|a| a.output.clone()).collect()
                }
                UnaryOp::AddField { attr, .. } => Schema::of([attr.clone()]),
                UnaryOp::SurrogateKey { surrogate, .. } => Schema::of([surrogate.clone()]),
                _ => Schema::empty(),
            }
        }

        pub fn projected_out(op: &UnaryOp, input: &Schema) -> Schema {
            match op {
                UnaryOp::Function(f) if f.keep_inputs => Schema::empty(),
                UnaryOp::Function(f) => f
                    .inputs
                    .iter()
                    .filter(|a| **a != f.output)
                    .cloned()
                    .collect(),
                UnaryOp::Aggregate { .. } => {
                    let kept = output(op, input).unwrap_or_else(|_| Schema::empty());
                    input.difference(&kept)
                }
                UnaryOp::ProjectOut(attrs) => attrs.iter().cloned().collect(),
                UnaryOp::SurrogateKey { key, .. } => Schema::of([key.clone()]),
                _ => Schema::empty(),
            }
        }

        pub fn output(op: &UnaryOp, input: &Schema) -> Result<Schema> {
            let fun = functionality(op);
            if !fun.is_subset_of(input) {
                return Err(CoreError::Schema(format!(
                    "operation {op} needs attributes {fun} but input offers only {input}"
                )));
            }
            let collision = match op {
                UnaryOp::Function(f) => (!f.inputs.contains(&f.output)
                    && input.contains(&f.output))
                .then(|| f.output.clone()),
                UnaryOp::AddField { attr, .. } => input.contains(attr).then(|| attr.clone()),
                UnaryOp::SurrogateKey { surrogate, key, .. } => {
                    (surrogate != key && input.contains(surrogate)).then(|| surrogate.clone())
                }
                UnaryOp::Aggregate { agg, .. } => agg
                    .aggregates
                    .iter()
                    .find(|s| s.output != s.input && agg.group_by.contains(&s.output))
                    .map(|s| s.output.clone()),
                _ => None,
            };
            if let Some(attr) = collision {
                return Err(CoreError::Schema(format!(
                    "operation {op} would generate `{attr}`, which already names a \
                     different attribute here (naming principle violation)"
                )));
            }
            if let UnaryOp::Aggregate { agg, .. } = op {
                let mut out: Schema = agg.group_by.iter().cloned().collect();
                for a in &agg.aggregates {
                    out.push(a.output.clone());
                }
                return Ok(out);
            }
            let mut out = input.difference(&projected_out(op, input));
            for a in generated(op).iter() {
                out.push(a.clone());
            }
            Ok(out)
        }
    }

    /// A random op of every kind over attribute names drawn from a pool of
    /// five plus one fresh name, so inputs often lack what an op needs and
    /// generated names often collide.
    fn random_op(rng: &mut crate::rng::Rng) -> UnaryOp {
        const POOL: [&str; 6] = ["a", "b", "c", "d", "e", "new"];
        let attr = |rng: &mut crate::rng::Rng| Attr::new(POOL[rng.gen_range(0..POOL.len())]);
        let attrs = |rng: &mut crate::rng::Rng| -> Vec<Attr> {
            (0..rng.gen_range(1..4usize)).map(|_| attr(rng)).collect()
        };
        fn predicate(rng: &mut crate::rng::Rng, depth: u32) -> Predicate {
            let name = |rng: &mut crate::rng::Rng| POOL[rng.gen_range(0..POOL.len())];
            match rng.gen_range(0..if depth == 0 { 4 } else { 7u32 }) {
                0 => Predicate::gt(name(rng), 1),
                1 => Predicate::CmpAttr {
                    left: Attr::new(name(rng)),
                    op: crate::predicate::CmpOp::Le,
                    right: Attr::new(name(rng)),
                },
                2 => Predicate::not_null(name(rng)),
                3 => Predicate::True,
                4 => predicate(rng, depth - 1).and(predicate(rng, depth - 1)),
                5 => predicate(rng, depth - 1).or(predicate(rng, depth - 1)),
                _ => predicate(rng, depth - 1).not(),
            }
        }
        match rng.gen_range(0..9u32) {
            0 => UnaryOp::filter(predicate(rng, 2)),
            1 => UnaryOp::not_null(attr(rng)),
            2 => UnaryOp::PkCheck {
                key: attrs(rng),
                selectivity: 1.0,
            },
            3 => UnaryOp::Dedup { selectivity: 1.0 },
            4 => UnaryOp::Function(FunctionApp {
                function: "f".into(),
                inputs: attrs(rng),
                output: attr(rng),
                keep_inputs: rng.gen_bool(0.5),
                injective: rng.gen_bool(0.5),
            }),
            5 => {
                let group_by: Vec<Attr> =
                    (0..rng.gen_range(0..3usize)).map(|_| attr(rng)).collect();
                let aggregates = (0..rng.gen_range(1..3usize))
                    .map(|_| AggSpec {
                        func: AggFunc::Sum,
                        input: attr(rng),
                        output: attr(rng),
                    })
                    .collect();
                UnaryOp::aggregate(Aggregation::new(group_by, aggregates))
            }
            6 => UnaryOp::ProjectOut(attrs(rng)),
            7 => UnaryOp::AddField {
                attr: attr(rng),
                value: Scalar::from("x"),
            },
            _ => UnaryOp::surrogate_key(attr(rng), attr(rng), "L"),
        }
    }

    /// The attributes a visitor visits, as a schema (in first-visit order).
    fn visited(visit: impl FnOnce(&mut dyn FnMut(&Attr) -> bool) -> bool) -> Schema {
        let mut seen = Vec::new();
        assert!(visit(&mut |a| {
            seen.push(a.clone());
            true
        }));
        seen.into_iter().collect()
    }

    /// How many visits a visitor makes when every visit returns `false`;
    /// its result must be that it did not see them all through.
    fn refusing(visit: impl FnOnce(&mut dyn FnMut(&Attr) -> bool) -> bool) -> usize {
        let mut calls = 0;
        let all = visit(&mut |_| {
            calls += 1;
            false
        });
        assert_eq!(all, calls == 0);
        calls
    }

    #[test]
    fn schema_facts_read_off_the_op_match_the_allocating_reference() {
        let mut rng = crate::rng::Rng::seed_from_u64(0x5C4E_4D41);
        let pool = ["a", "b", "c", "d", "e", "new"];
        let mut kinds = std::collections::HashSet::new();
        let (mut refused, mut shared) = (0, 0);
        for _ in 0..20_000 {
            let op = random_op(&mut rng);
            kinds.insert(std::mem::discriminant(&op));
            // A random subset of the pool in random order.
            let mut names: Vec<&str> = pool.iter().copied().filter(|_| rng.gen_bool(0.6)).collect();
            for i in (1..names.len()).rev() {
                names.swap(i, rng.gen_range(0..=i));
            }
            let input = Schema::of(names);

            let want = reference::output(&op, &input);
            let got = op.output(&input);
            assert_eq!(got, want, "{op} on {input}");
            match &got {
                Ok(out) if out.attrs().as_ptr() == input.attrs().as_ptr() => shared += 1,
                Ok(_) => {}
                Err(_) => refused += 1,
            }

            let fun = reference::functionality(&op);
            assert_eq!(op.functionality(), fun, "{op}");
            assert!(visited(|f| op.all_needed(f)).same_attrs(&fun), "{op}");
            let generated = reference::generated(&op);
            assert_eq!(op.generated(), generated, "{op}");
            assert!(
                visited(|f| op.all_generated(f)).same_attrs(&generated),
                "{op}"
            );
            let dropped = reference::projected_out(&op, &input);
            assert_eq!(op.projected_out(&input), dropped, "{op} on {input}");
            let seen = visited(|f| op.all_dropped(&input, f));
            assert!(seen.same_attrs(&dropped), "{op} on {input}");

            // A visitor stops at the first `false`, and says so.
            for (calls, empty) in [
                (refusing(|f| op.all_needed(f)), fun.is_empty()),
                (refusing(|f| op.all_generated(f)), generated.is_empty()),
                (refusing(|f| op.all_dropped(&input, f)), dropped.is_empty()),
            ] {
                assert_eq!(calls, usize::from(!empty), "{op} on {input}");
            }
        }
        assert_eq!(kinds.len(), 9, "every kind drawn");
        // Both guards and the shared-input path were exercised.
        assert!(
            refused > 1_000 && shared > 1_000,
            "{refused} refused, {shared} shared"
        );
    }

    #[test]
    fn selectivity_defaults_and_override() {
        let op = UnaryOp::filter(Predicate::True);
        assert_eq!(op.selectivity(), 1.0);
        let op = op.with_selectivity(0.25);
        assert_eq!(op.selectivity(), 0.25);
        // 1:1 ops ignore the override.
        let f = UnaryOp::function("f", ["a"], "b").with_selectivity(0.5);
        assert_eq!(f.selectivity(), 1.0);
    }

    #[test]
    #[should_panic(expected = "selectivity must be in (0, 1]")]
    fn zero_selectivity_rejected() {
        let _ = UnaryOp::filter(Predicate::True).with_selectivity(0.0);
    }

    #[test]
    fn same_semantics_ignores_selectivity() {
        let a = UnaryOp::filter(Predicate::gt("x", 1)).with_selectivity(0.3);
        let b = UnaryOp::filter(Predicate::gt("x", 1)).with_selectivity(0.9);
        assert!(a.same_semantics(&b));
        let c = UnaryOp::filter(Predicate::gt("x", 2));
        assert!(!a.same_semantics(&c));
    }

    #[test]
    fn union_requires_matching_schemas() {
        let l = Schema::of(["a", "b"]);
        let r = Schema::of(["b", "a"]);
        assert_eq!(BinaryOp::Union.output(&l, &r).unwrap(), l);
        let bad = Schema::of(["a", "c"]);
        assert!(BinaryOp::Union.output(&l, &bad).is_err());
    }

    #[test]
    fn join_concatenates_and_checks_keys() {
        let l = Schema::of(["k", "x"]);
        let r = Schema::of(["k", "y"]);
        let j = BinaryOp::Join(vec![Attr::new("k")]);
        assert_eq!(j.output(&l, &r).unwrap(), Schema::of(["k", "x", "y"]));
        let bad = Schema::of(["z", "y"]);
        assert!(j.output(&l, &bad).is_err());
    }

    #[test]
    fn difference_not_commutative() {
        assert!(!BinaryOp::Difference.is_commutative());
        assert!(BinaryOp::Union.is_commutative());
    }

    #[test]
    fn display_forms() {
        assert_eq!(UnaryOp::not_null("cost").to_string(), "NN(cost)");
        assert_eq!(
            UnaryOp::function("dollar2euro", ["dc"], "ec").to_string(),
            "dollar2euro(dc)->ec"
        );
        assert_eq!(BinaryOp::Union.to_string(), "U");
        assert_eq!(BinaryOp::Join(vec![Attr::new("k")]).to_string(), "JOIN(k)");
    }
}
