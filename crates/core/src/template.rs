//! Activity template library (§3.2, building on ref. \[18\] — ARKTOS II).
//!
//! Workflows are not assembled from ad-hoc code but from **templates** with
//! predefined semantics and a parameter *signature*: materializing a
//! `Not Null` template means supplying the attribute to check. The template
//! level is also where the auxiliary schemata are dictated — which
//! parameters form the functionality schema, what is generated, what is
//! projected out — all of which [`crate::semantics`] derives mechanically
//! from the instantiated operation.
//!
//! The library is extensible ("for any other, new activity … explicit
//! semantics can also be given"): register a custom template with
//! [`TemplateLibrary::register`].

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::activity::Op;
use crate::error::{CoreError, Result};
use crate::predicate::{CmpOp, Predicate};
use crate::scalar::Scalar;
use crate::schema::Attr;
use crate::semantics::{AggFunc, AggSpec, Aggregation, BinaryOp, UnaryOp};

/// An argument supplied when materializing a template.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// A single attribute.
    Attr(Attr),
    /// A list of attributes.
    Attrs(Vec<Attr>),
    /// A constant value.
    Value(Scalar),
    /// A bare name (function name, lookup-table name, …).
    Name(String),
}

impl Arg {
    fn as_attr(&self) -> Result<&Attr> {
        match self {
            Arg::Attr(a) => Ok(a),
            other => Err(CoreError::Schema(format!(
                "expected attribute, got {other:?}"
            ))),
        }
    }
    fn as_attrs(&self) -> Result<Vec<Attr>> {
        match self {
            Arg::Attrs(v) => Ok(v.clone()),
            Arg::Attr(a) => Ok(vec![a.clone()]),
            other => Err(CoreError::Schema(format!(
                "expected attribute list, got {other:?}"
            ))),
        }
    }
    fn as_value(&self) -> Result<&Scalar> {
        match self {
            Arg::Value(v) => Ok(v),
            other => Err(CoreError::Schema(format!("expected value, got {other:?}"))),
        }
    }
    fn as_name(&self) -> Result<&str> {
        match self {
            Arg::Name(n) => Ok(n),
            other => Err(CoreError::Schema(format!("expected name, got {other:?}"))),
        }
    }
}

/// Named arguments for a template instantiation.
pub type Args = BTreeMap<&'static str, Arg>;

/// Helper to assemble [`Args`] fluently.
#[derive(Debug, Default, Clone)]
pub struct ArgsBuilder(BTreeMap<&'static str, Arg>);

impl ArgsBuilder {
    /// Empty argument set.
    pub fn new() -> Self {
        Self::default()
    }
    /// Bind an attribute parameter.
    pub fn attr(mut self, key: &'static str, a: impl Into<Attr>) -> Self {
        self.0.insert(key, Arg::Attr(a.into()));
        self
    }
    /// Bind an attribute-list parameter.
    pub fn attrs<I, A>(mut self, key: &'static str, attrs: I) -> Self
    where
        I: IntoIterator<Item = A>,
        A: Into<Attr>,
    {
        self.0
            .insert(key, Arg::Attrs(attrs.into_iter().map(Into::into).collect()));
        self
    }
    /// Bind a constant-value parameter.
    pub fn value(mut self, key: &'static str, v: impl Into<Scalar>) -> Self {
        self.0.insert(key, Arg::Value(v.into()));
        self
    }
    /// Bind a name parameter.
    pub fn name(mut self, key: &'static str, n: impl Into<String>) -> Self {
        self.0.insert(key, Arg::Name(n.into()));
        self
    }
    /// Finish.
    pub fn build(self) -> Args {
        self.0
    }
}

type Materializer = Arc<dyn Fn(&Args) -> Result<Op> + Send + Sync>;

/// A template: signature (parameter names) plus a materializer producing
/// activity semantics.
#[derive(Clone)]
pub struct Template {
    /// Template name, e.g. `"not_null"`.
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Required parameter names.
    pub params: Vec<&'static str>,
    materialize: Materializer,
}

impl Template {
    /// Materialize the template with the given arguments.
    pub fn instantiate(&self, args: &Args) -> Result<Op> {
        for p in &self.params {
            if !args.contains_key(p) {
                return Err(CoreError::Schema(format!(
                    "template `{}` requires parameter `{p}`",
                    self.name
                )));
            }
        }
        (self.materialize)(args)
    }
}

impl fmt::Debug for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Template")
            .field("name", &self.name)
            .field("params", &self.params)
            .finish()
    }
}

/// The template library: the built-in ETL vocabulary plus user extensions.
#[derive(Debug, Clone)]
pub struct TemplateLibrary {
    templates: BTreeMap<String, Template>,
}

impl Default for TemplateLibrary {
    fn default() -> Self {
        Self::builtin()
    }
}

impl TemplateLibrary {
    /// The built-in library covering the paper's activity vocabulary.
    pub fn builtin() -> Self {
        let mut lib = TemplateLibrary {
            templates: BTreeMap::new(),
        };
        lib.register_fn(
            "not_null",
            "reject rows whose attribute is NULL",
            vec!["attr"],
            |args| {
                Ok(Op::Unary(UnaryOp::not_null(
                    args["attr"].as_attr()?.clone(),
                )))
            },
        );
        lib.register_fn(
            "selection",
            "keep rows where attr <op> value",
            vec!["attr", "op", "value"],
            |args| {
                let op = match args["op"].as_name()? {
                    "=" => CmpOp::Eq,
                    "<>" | "!=" => CmpOp::Ne,
                    "<" => CmpOp::Lt,
                    "<=" => CmpOp::Le,
                    ">" => CmpOp::Gt,
                    ">=" => CmpOp::Ge,
                    other => {
                        return Err(CoreError::Schema(format!("unknown comparison `{other}`")))
                    }
                };
                Ok(Op::Unary(UnaryOp::filter(Predicate::Cmp {
                    attr: args["attr"].as_attr()?.clone(),
                    op,
                    value: args["value"].as_value()?.clone(),
                })))
            },
        );
        lib.register_fn(
            "domain_check",
            "keep rows whose attribute is in the allowed value list",
            vec!["attr"],
            |args| {
                let values = match args.get("values") {
                    Some(Arg::Value(v)) => vec![v.clone()],
                    _ => Vec::new(),
                };
                Ok(Op::Unary(UnaryOp::filter(Predicate::InList {
                    attr: args["attr"].as_attr()?.clone(),
                    values,
                })))
            },
        );
        lib.register_fn(
            "pk_check",
            "drop rows violating primary-key uniqueness",
            vec!["key"],
            |args| {
                Ok(Op::Unary(UnaryOp::PkCheck {
                    key: args["key"].as_attrs()?,
                    selectivity: 1.0,
                }))
            },
        );
        lib.register_fn("dedup", "eliminate duplicate rows", vec![], |_| {
            Ok(Op::Unary(UnaryOp::Dedup { selectivity: 1.0 }))
        });
        lib.register_fn(
            "function",
            "apply a registered scalar function",
            vec!["fn", "inputs", "output"],
            |args| {
                Ok(Op::Unary(UnaryOp::function(
                    args["fn"].as_name()?,
                    args["inputs"].as_attrs()?,
                    args["output"].as_attr()?.clone(),
                )))
            },
        );
        lib.register_fn(
            "aggregation",
            "group-by aggregation",
            vec!["group_by", "func", "input", "output"],
            |args| {
                let func = match args["func"].as_name()? {
                    "sum" => AggFunc::Sum,
                    "count" => AggFunc::Count,
                    "min" => AggFunc::Min,
                    "max" => AggFunc::Max,
                    "avg" => AggFunc::Avg,
                    other => return Err(CoreError::Schema(format!("unknown aggregate `{other}`"))),
                };
                Ok(Op::Unary(UnaryOp::aggregate(Aggregation::new(
                    args["group_by"].as_attrs()?,
                    vec![AggSpec {
                        func,
                        input: args["input"].as_attr()?.clone(),
                        output: args["output"].as_attr()?.clone(),
                    }],
                ))))
            },
        );
        lib.register_fn(
            "project_out",
            "drop the listed attributes",
            vec!["attrs"],
            |args| Ok(Op::Unary(UnaryOp::project_out(args["attrs"].as_attrs()?))),
        );
        lib.register_fn(
            "add_field",
            "append a constant attribute",
            vec!["attr", "value"],
            |args| {
                Ok(Op::Unary(UnaryOp::AddField {
                    attr: args["attr"].as_attr()?.clone(),
                    value: args["value"].as_value()?.clone(),
                }))
            },
        );
        lib.register_fn(
            "surrogate_key",
            "replace the production key with a surrogate via a lookup table",
            vec!["key", "surrogate", "lookup"],
            |args| {
                Ok(Op::Unary(UnaryOp::surrogate_key(
                    args["key"].as_attr()?.clone(),
                    args["surrogate"].as_attr()?.clone(),
                    args["lookup"].as_name()?,
                )))
            },
        );
        lib.register_fn("union", "bag union of two flows", vec![], |_| {
            Ok(Op::Binary(BinaryOp::Union))
        });
        lib.register_fn(
            "join",
            "equi-join on the key attributes",
            vec!["on"],
            |args| Ok(Op::Binary(BinaryOp::Join(args["on"].as_attrs()?))),
        );
        lib.register_fn("difference", "bag difference", vec![], |_| {
            Ok(Op::Binary(BinaryOp::Difference))
        });
        lib.register_fn("intersection", "bag intersection", vec![], |_| {
            Ok(Op::Binary(BinaryOp::Intersection))
        });
        lib
    }

    fn register_fn(
        &mut self,
        name: &str,
        description: &str,
        params: Vec<&'static str>,
        f: impl Fn(&Args) -> Result<Op> + Send + Sync + 'static,
    ) {
        self.templates.insert(
            name.to_owned(),
            Template {
                name: name.to_owned(),
                description: description.to_owned(),
                params,
                materialize: Arc::new(f),
            },
        );
    }

    /// Register (or replace) a custom template.
    pub fn register(&mut self, template: Template) {
        self.templates.insert(template.name.clone(), template);
    }

    /// Build a custom template from its parts.
    pub fn custom(
        name: &str,
        description: &str,
        params: Vec<&'static str>,
        f: impl Fn(&Args) -> Result<Op> + Send + Sync + 'static,
    ) -> Template {
        Template {
            name: name.to_owned(),
            description: description.to_owned(),
            params,
            materialize: Arc::new(f),
        }
    }

    /// Look up a template by name.
    pub fn get(&self, name: &str) -> Option<&Template> {
        self.templates.get(name)
    }

    /// Materialize `name` with `args` in one call.
    pub fn instantiate(&self, name: &str, args: &Args) -> Result<Op> {
        self.get(name)
            .ok_or_else(|| CoreError::Schema(format!("unknown template `{name}`")))?
            .instantiate(args)
    }

    /// Iterate over all registered templates.
    pub fn iter(&self) -> impl Iterator<Item = &Template> + '_ {
        self.templates.values()
    }

    /// Number of templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// Is the library empty?
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> TemplateLibrary {
        TemplateLibrary::builtin()
    }

    #[test]
    fn builtin_covers_paper_vocabulary() {
        let l = lib();
        for name in [
            "not_null",
            "selection",
            "pk_check",
            "dedup",
            "function",
            "aggregation",
            "project_out",
            "add_field",
            "surrogate_key",
            "union",
            "join",
            "difference",
            "intersection",
        ] {
            assert!(l.get(name).is_some(), "missing builtin `{name}`");
        }
        assert!(l.len() >= 13);
    }

    #[test]
    fn not_null_materializes() {
        let op = lib()
            .instantiate("not_null", &ArgsBuilder::new().attr("attr", "cost").build())
            .unwrap();
        assert_eq!(op, Op::Unary(UnaryOp::not_null("cost")));
    }

    #[test]
    fn selection_materializes_each_operator() {
        let l = lib();
        for (sym, _op) in [("=", CmpOp::Eq), ("<", CmpOp::Lt), (">=", CmpOp::Ge)] {
            let args = ArgsBuilder::new()
                .attr("attr", "v")
                .name("op", sym)
                .value("value", 5)
                .build();
            assert!(l.instantiate("selection", &args).is_ok(), "op {sym}");
        }
        let bad = ArgsBuilder::new()
            .attr("attr", "v")
            .name("op", "~~")
            .value("value", 5)
            .build();
        assert!(l.instantiate("selection", &bad).is_err());
    }

    #[test]
    fn missing_parameter_is_reported() {
        let err = lib()
            .instantiate("not_null", &ArgsBuilder::new().build())
            .unwrap_err();
        assert!(err.to_string().contains("requires parameter `attr`"));
    }

    #[test]
    fn unknown_template_is_reported() {
        assert!(lib()
            .instantiate("frobnicate", &ArgsBuilder::new().build())
            .is_err());
    }

    #[test]
    fn aggregation_materializes() {
        let args = ArgsBuilder::new()
            .attrs("group_by", ["k", "d"])
            .name("func", "sum")
            .attr("input", "v")
            .attr("output", "v")
            .build();
        let op = lib().instantiate("aggregation", &args).unwrap();
        match op {
            Op::Unary(UnaryOp::Aggregate { agg, .. }) => {
                assert_eq!(agg.group_by.len(), 2);
                assert_eq!(agg.aggregates[0].func, AggFunc::Sum);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn custom_template_registration() {
        let mut l = lib();
        l.register(TemplateLibrary::custom(
            "phone_normalize",
            "normalize phone numbers",
            vec!["attr"],
            |args| {
                let a = args["attr"].as_attr()?.clone();
                Ok(Op::Unary(UnaryOp::function(
                    "phone_normalize",
                    [a.clone()],
                    a,
                )))
            },
        ));
        let op = l
            .instantiate(
                "phone_normalize",
                &ArgsBuilder::new().attr("attr", "phone").build(),
            )
            .unwrap();
        match op {
            Op::Unary(UnaryOp::Function(f)) => assert_eq!(f.function, "phone_normalize"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn attr_arg_coerces_to_single_element_list() {
        let args = ArgsBuilder::new().attr("key", "k").build();
        let op = lib().instantiate("pk_check", &args).unwrap();
        assert_eq!(
            op,
            Op::Unary(UnaryOp::PkCheck {
                key: vec![Attr::new("k")],
                selectivity: 1.0
            })
        );
    }
}
