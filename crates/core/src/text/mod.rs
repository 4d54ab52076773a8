//! A textual format for ETL workflows: render with [`render`], load with
//! [`parse`]. One node per line, in topological order:
//!
//! ```text
//! # The paper's running example
//! source "PARTS1" table rows=300 (pkey, source, date, euro_cost)
//! source "PARTS2" table rows=9000 (pkey, source, date, dept, dollar_cost)
//! activity a1 "NN" = not_null(euro_cost) sel=0.95 <- "PARTS1"
//! activity a2 "$2E" = function dollar2euro(dollar_cost) -> euro_cost <- "PARTS2"
//! activity a3 "A2E" = function am2eu(date) -> date <- a2
//! activity a4 "γ" = aggregate group(pkey, source, date) sum(euro_cost -> euro_cost) sel=0.033 <- a3
//! activity a5 "U" = union <- a1, a4
//! activity a6 "σ(€)" = filter euro_cost >= 100.0 sel=0.4 <- a5
//! target "DW" table (pkey, source, date, euro_cost) <- a6
//! ```
//!
//! Recordsets are referenced by their quoted names, activities by the `a<n>`
//! identifiers the renderer assigns in topological order. Blank lines and
//! `#` comments are ignored. Parsing re-validates and re-derives all
//! schemata, and normalizes activity identifiers to fresh topological
//! priorities — a freshly built workflow round-trips to an identical
//! signature; an optimizer-produced state round-trips to an *equivalent*
//! workflow. The format has no spelling for a merged activity: one exists
//! only inside a search, and every optimizer returns a split workflow, so
//! [`render`] and [`family_digest`] answer one with
//! [`CoreError::MergedActivity`].

pub mod lexer;
pub mod pred;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::activity::{Activity, Op};
use crate::error::{CoreError, Result};
use crate::graph::{Node, NodeId};
use crate::recordset::RecordsetKind;
use crate::schema::{Attr, Schema};
use crate::semantics::{AggFunc, AggSpec, Aggregation, BinaryOp, FunctionApp, UnaryOp};
use crate::text::lexer::{Cursor, Token};
use crate::workflow::{Workflow, WorkflowBuilder};

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn attr_list(attrs: &[Attr]) -> String {
    attrs
        .iter()
        .map(|a| a.name().to_owned())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Render a workflow as text. Fails on a merged activity, which only a
/// search holds — everything else round-trips through [`parse`].
pub fn render(wf: &Workflow) -> Result<String> {
    let graph = wf.graph();
    let order = graph.topo_order()?;
    let mut names: BTreeMap<NodeId, String> = BTreeMap::new();
    let mut out = String::new();
    let mut next_activity = 0usize;
    for id in order {
        let node = graph.node(id)?;
        let input_refs = || -> Result<String> {
            let providers: Vec<String> = graph
                .providers(id)?
                .iter()
                .flatten()
                .map(|p| names[p].clone())
                .collect();
            Ok(providers.join(", "))
        };
        match node {
            Node::Recordset(rs) => {
                let kind = rs.kind.tag();
                let written = graph.provider(id, 0)?.is_some();
                let read = !graph.consumers(id)?.is_empty();
                if !written {
                    let _ = writeln!(
                        out,
                        "source {} {kind} rows={} ({})",
                        quote(&rs.name),
                        rs.row_estimate,
                        attr_list(rs.schema.attrs()),
                    );
                } else if read {
                    let _ = writeln!(
                        out,
                        "recordset {} {kind} <- {}",
                        quote(&rs.name),
                        input_refs()?
                    );
                } else {
                    let _ = writeln!(
                        out,
                        "target {} {kind} ({}) <- {}",
                        quote(&rs.name),
                        attr_list(rs.schema.attrs()),
                        input_refs()?
                    );
                }
                names.insert(id, quote(&rs.name));
            }
            Node::Activity(act) => {
                next_activity += 1;
                let name = format!("a{next_activity}");
                let spec = render_op(act)?;
                let sel_part = match &*act.op {
                    Op::Unary(op) => op.estimate().filter(|sel| (sel - 1.0).abs() > 1e-12),
                    _ => None,
                }
                .map_or_else(String::new, |sel| format!(" sel={sel}"));
                let _ = writeln!(
                    out,
                    "activity {name} {} = {spec}{sel_part} <- {}",
                    quote(&act.label),
                    input_refs()?
                );
                names.insert(id, name);
            }
        }
    }
    Ok(out)
}

fn render_op(act: &Activity) -> Result<String> {
    Ok(match &*act.op {
        Op::Merged(_) => {
            return Err(CoreError::MergedActivity {
                activity: act.id.to_string(),
            })
        }
        Op::Binary(BinaryOp::Union) => "union".to_owned(),
        Op::Binary(BinaryOp::Difference) => "difference".to_owned(),
        Op::Binary(BinaryOp::Intersection) => "intersection".to_owned(),
        Op::Binary(BinaryOp::Join(on)) => format!("join({})", attr_list(on)),
        Op::Unary(u) => match u {
            UnaryOp::Filter { predicate, .. } => format!("filter {}", pred::render(predicate)),
            UnaryOp::NotNull { attr, .. } => format!("not_null({attr})"),
            UnaryOp::PkCheck { key, .. } => format!("pk_check({})", attr_list(key)),
            UnaryOp::Dedup { .. } => "dedup".to_owned(),
            UnaryOp::Function(f) => {
                let mut s = format!(
                    "function {}({}) -> {}",
                    f.function,
                    attr_list(&f.inputs),
                    f.output
                );
                if f.keep_inputs {
                    s.push_str(" keep");
                }
                if !f.injective {
                    s.push_str(" noninjective");
                }
                s
            }
            UnaryOp::Aggregate { agg, .. } => {
                let specs: Vec<String> = agg
                    .aggregates
                    .iter()
                    .map(|a| {
                        format!(
                            "{}({} -> {})",
                            a.func.name().to_lowercase(),
                            a.input,
                            a.output
                        )
                    })
                    .collect();
                format!(
                    "aggregate group({}) {}",
                    attr_list(&agg.group_by),
                    specs.join(", ")
                )
            }
            UnaryOp::ProjectOut(attrs) => format!("project_out({})", attr_list(attrs)),
            UnaryOp::AddField { attr, value } => {
                format!("add_field {attr} = {}", pred::render_scalar(value))
            }
            UnaryOp::SurrogateKey {
                key,
                surrogate,
                lookup,
            } => {
                format!("surrogate_key {key} -> {surrogate} via {}", quote(lookup))
            }
        },
    })
}

/// Digest of a workflow's *family identity*: the lifelong activity
/// id → operator binding plus the recordset names, kinds and schemata —
/// and nothing else. Graph wiring, selectivities and row estimates are
/// deliberately excluded, so every state a swap chain can reach, and
/// every calibration re-seeding, digests identically. Cross-request
/// caches keyed by this digest ([`crate::opt::MoveMemo`], engine result
/// caches, calibration stores) are sound because equal digests imply the
/// stable id ↔ payload binding their entries rely on; a state whose
/// activity set differs (e.g. a FAC/DIS product) digests differently and
/// lands in its own family — forfeiting sharing, never corrupting it.
///
/// Fails exactly where [`render`] does: on a merged activity, a
/// search-internal construct the wire format cannot carry.
pub fn family_digest(wf: &Workflow) -> Result<u128> {
    use crate::signature::Fp128;
    let graph = wf.graph();
    let mut recordsets: Vec<String> = Vec::new();
    let mut activities: Vec<String> = Vec::new();
    for id in graph.topo_order()? {
        match graph.node(id)? {
            Node::Recordset(rs) => recordsets.push(format!(
                "R\x1f{}\x1f{}\x1f{}",
                rs.name,
                rs.kind.tag(),
                attr_list(rs.schema.attrs())
            )),
            Node::Activity(act) => {
                activities.push(format!("A\x1f{}\x1f{}", act.id, render_op(act)?))
            }
        }
    }
    // Canonical order, not graph order: two states of one family may
    // topologically sort differently.
    recordsets.sort();
    activities.sort();
    let mut fp = Fp128::new();
    for line in recordsets.iter().chain(activities.iter()) {
        fp.write(line.as_bytes());
        fp.write(b"\n");
    }
    Ok(fp.finish())
}

/// Parse a workflow from text.
pub fn parse(text: &str) -> Result<Workflow> {
    let mut b = WorkflowBuilder::new();
    let mut names: BTreeMap<String, NodeId> = BTreeMap::new();
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut c = Cursor::new(line)?;
        let kw = c.expect_ident()?;
        match kw {
            "source" => {
                let name = c.expect_str()?;
                let kind = parse_kind(&mut c)?;
                c.expect_keyword("rows")?;
                c.expect_punct("=")?;
                let rows = c.expect_number()?;
                if rows.is_nan() || rows < 0.0 {
                    return Err(c.err(format!("row estimate must be non-negative, got {rows}")));
                }
                let attrs = c.ident_list()?;
                c.expect_end()?;
                let schema = Schema::of(attrs);
                let id = match kind {
                    RecordsetKind::Table => b.source(&name, schema, rows),
                    RecordsetKind::File => b.source_file(&name, schema, rows),
                };
                names.insert(quote(&name), id);
            }
            "activity" => {
                let handle = c.expect_ident()?;
                let label = c.expect_str()?;
                c.expect_punct("=")?;
                let (op, sel) = parse_op(&mut c)?;
                c.expect_punct("<-")?;
                let inputs = parse_refs(&mut c, &names)?;
                c.expect_end()?;
                let id = match (op, inputs.as_slice()) {
                    (Op::Unary(u), [single]) => {
                        let u = match sel {
                            Some(s) => u.with_selectivity(s),
                            None => u,
                        };
                        b.unary(&label, u, *single)
                    }
                    (Op::Binary(op2), [l, r]) => b.binary(&label, op2, *l, *r),
                    (Op::Unary(_), inputs) => {
                        return Err(CoreError::Schema(format!(
                            "activity {handle} is unary but has {} inputs",
                            inputs.len()
                        )))
                    }
                    (Op::Binary(_), inputs) => {
                        return Err(CoreError::Schema(format!(
                            "activity {handle} is binary but has {} inputs",
                            inputs.len()
                        )))
                    }
                    (Op::Merged(_), _) => {
                        return Err(CoreError::MergedActivity {
                            activity: handle.to_owned(),
                        })
                    }
                };
                names.insert(handle.to_owned(), id);
            }
            "recordset" | "target" => {
                let name = c.expect_str()?;
                let kind = parse_kind(&mut c)?;
                let schema = if kw == "target" {
                    Schema::of(c.ident_list()?)
                } else {
                    Schema::empty()
                };
                c.expect_punct("<-")?;
                let inputs = parse_refs(&mut c, &names)?;
                c.expect_end()?;
                let [input] = inputs.as_slice() else {
                    return Err(CoreError::Schema(format!(
                        "recordset {name} must have exactly one input"
                    )));
                };
                let id = match kind {
                    RecordsetKind::Table => b.recordset(&name, schema, *input),
                    RecordsetKind::File => {
                        // The builder's recordset() makes tables; record
                        // files mid-flow share the same semantics here.
                        b.recordset(&name, schema, *input)
                    }
                };
                names.insert(quote(&name), id);
            }
            other => {
                return Err(CoreError::Schema(format!(
                    "unknown directive `{other}` in `{line}`"
                )))
            }
        }
    }
    b.build()
}

fn parse_kind(c: &mut Cursor) -> Result<RecordsetKind> {
    match c.expect_ident()? {
        "table" => Ok(RecordsetKind::Table),
        "file" => Ok(RecordsetKind::File),
        other => Err(c.err(format!("expected table|file, got `{other}`"))),
    }
}

fn parse_refs(c: &mut Cursor, names: &BTreeMap<String, NodeId>) -> Result<Vec<NodeId>> {
    let mut out = Vec::new();
    loop {
        let key = match c.next() {
            Some(Token::Ident(s)) => s.to_owned(),
            Some(Token::Str(s)) => quote(&s),
            other => return Err(c.err(format!("expected node reference, got {other:?}"))),
        };
        let id = names
            .get(&key)
            .ok_or_else(|| c.err(format!("unknown node reference `{key}`")))?;
        out.push(*id);
        if !c.eat_punct(",") {
            return Ok(out);
        }
    }
}

/// Parse an op spec plus an optional trailing `sel=<f>`.
fn parse_op(c: &mut Cursor) -> Result<(Op, Option<f64>)> {
    let op = match c.expect_ident()? {
        "filter" => Op::Unary(UnaryOp::filter(pred::parse(c)?)),
        "not_null" => {
            let attrs = c.ident_list()?;
            let [a] = attrs.as_slice() else {
                return Err(c.err("not_null takes exactly one attribute"));
            };
            Op::Unary(UnaryOp::not_null(*a))
        }
        "pk_check" => Op::Unary(UnaryOp::PkCheck {
            key: c.ident_list()?.into_iter().map(Attr::new).collect(),
            selectivity: 1.0,
        }),
        "dedup" => Op::Unary(UnaryOp::Dedup { selectivity: 1.0 }),
        "function" => {
            let fname = c.expect_ident()?;
            let inputs: Vec<Attr> = c.ident_list()?.into_iter().map(Attr::new).collect();
            c.expect_punct("->")?;
            let output = Attr::new(c.expect_ident()?);
            let keep_inputs = c.eat_keyword("keep");
            let injective = !c.eat_keyword("noninjective");
            Op::Unary(UnaryOp::Function(FunctionApp {
                function: fname.to_owned(),
                inputs,
                output,
                keep_inputs,
                injective,
            }))
        }
        "aggregate" => {
            c.expect_keyword("group")?;
            let group_by = c.ident_list()?;
            let mut aggregates = Vec::new();
            loop {
                let func = match c.expect_ident()? {
                    "sum" => AggFunc::Sum,
                    "count" => AggFunc::Count,
                    "min" => AggFunc::Min,
                    "max" => AggFunc::Max,
                    "avg" => AggFunc::Avg,
                    other => return Err(c.err(format!("unknown aggregate `{other}`"))),
                };
                c.expect_punct("(")?;
                let input = Attr::new(c.expect_ident()?);
                c.expect_punct("->")?;
                let output = Attr::new(c.expect_ident()?);
                c.expect_punct(")")?;
                aggregates.push(AggSpec {
                    func,
                    input,
                    output,
                });
                if !c.eat_punct(",") {
                    break;
                }
            }
            Op::Unary(UnaryOp::aggregate(Aggregation::new(group_by, aggregates)))
        }
        "project_out" => Op::Unary(UnaryOp::project_out(c.ident_list()?)),
        "add_field" => {
            let attr = Attr::new(c.expect_ident()?);
            c.expect_punct("=")?;
            let value = pred::parse_scalar(c)?;
            Op::Unary(UnaryOp::AddField { attr, value })
        }
        "surrogate_key" => {
            let key = Attr::new(c.expect_ident()?);
            c.expect_punct("->")?;
            let surrogate = Attr::new(c.expect_ident()?);
            c.expect_keyword("via")?;
            let lookup = c.expect_str()?;
            Op::Unary(UnaryOp::SurrogateKey {
                key,
                surrogate,
                lookup: lookup.into_owned(),
            })
        }
        "union" => Op::Binary(BinaryOp::Union),
        "difference" => Op::Binary(BinaryOp::Difference),
        "intersection" => Op::Binary(BinaryOp::Intersection),
        "join" => Op::Binary(BinaryOp::Join(
            c.ident_list()?.into_iter().map(Attr::new).collect(),
        )),
        other => return Err(c.err(format!("unknown operation `{other}`"))),
    };
    let sel = if c.eat_keyword("sel") {
        c.expect_punct("=")?;
        let s = c.expect_number()?;
        // `with_selectivity` asserts this range: a text is input, so an
        // overflowing `sel=1e999` is an error, not a panic.
        if s.is_nan() || s <= 0.0 || s > 1.0 {
            return Err(c.err(format!("selectivity must be in (0, 1], got {s}")));
        }
        Some(s)
    } else {
        None
    };
    Ok((op, sel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postcond::equivalent;
    use crate::predicate::Predicate;

    fn sample() -> Workflow {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("PARTS1", Schema::of(["pkey", "date", "euro_cost"]), 300.0);
        let s2 = b.source_file(
            "parts2.rec",
            Schema::of(["pkey", "date", "dept", "dollar_cost"]),
            9000.0,
        );
        let nn = b.unary(
            "NN",
            UnaryOp::not_null("euro_cost").with_selectivity(0.95),
            s1,
        );
        let d2e = b.unary(
            "$2E",
            UnaryOp::function("dollar2euro", ["dollar_cost"], "euro_cost"),
            s2,
        );
        let agg = b.unary(
            "γ",
            UnaryOp::aggregate(Aggregation::sum(["pkey", "date"], "euro_cost", "euro_cost"))
                .with_selectivity(0.05),
            d2e,
        );
        let u = b.binary("U", BinaryOp::Union, nn, agg);
        let stage = b.recordset("STAGE", Schema::empty(), u);
        let sel = b.unary(
            "σ(€)",
            UnaryOp::filter(Predicate::ge("euro_cost", 100.0)).with_selectivity(0.4),
            stage,
        );
        let sk = b.unary("SK", UnaryOp::surrogate_key("pkey", "sk", "DIM_PARTS"), sel);
        b.target("DW", Schema::of(["date", "euro_cost", "sk"]), sk);
        b.build().unwrap()
    }

    #[test]
    fn roundtrip_preserves_signature_and_equivalence() {
        let wf = sample();
        let text = render(&wf).unwrap();
        let back = parse(&text).unwrap();
        assert_eq!(wf.signature(), back.signature(), "text was:\n{text}");
        assert!(equivalent(&wf, &back).unwrap());
        // Stable under a second trip.
        assert_eq!(text, render(&back).unwrap());
    }

    #[test]
    fn rendered_text_is_human_shaped() {
        let text = render(&sample()).unwrap();
        assert!(text.contains("source \"PARTS1\" table rows=300"), "{text}");
        assert!(text.contains("file rows=9000"), "{text}");
        assert!(text.contains("filter euro_cost >= 100.0 sel=0.4"), "{text}");
        assert!(
            text.contains("surrogate_key pkey -> sk via \"DIM_PARTS\""),
            "{text}"
        );
        assert!(text.contains("recordset \"STAGE\""), "{text}");
        assert!(text.contains("target \"DW\""), "{text}");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let wf = sample();
        let mut text = String::from("# header comment\n\n");
        text.push_str(&render(&wf).unwrap());
        text.push_str("\n# trailing comment\n");
        assert!(parse(&text).is_ok());
    }

    #[test]
    fn every_unary_op_roundtrips() {
        use crate::scalar::Scalar;
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "a", "b", "day"]), 10.0);
        let mut cur = b.unary(
            "pk",
            UnaryOp::PkCheck {
                key: vec!["k".into()],
                selectivity: 0.9,
            },
            s,
        );
        cur = b.unary("dd", UnaryOp::Dedup { selectivity: 0.8 }, cur);
        cur = b.unary(
            "f",
            UnaryOp::Function(FunctionApp {
                function: "bucket10".into(),
                inputs: vec!["a".into()],
                output: "a_bkt".into(),
                keep_inputs: true,
                injective: false,
            }),
            cur,
        );
        cur = b.unary("π", UnaryOp::project_out(["b"]), cur);
        cur = b.unary(
            "add",
            UnaryOp::AddField {
                attr: "src".into(),
                value: Scalar::from("S"),
            },
            cur,
        );
        cur = b.unary(
            "σ",
            UnaryOp::filter(Predicate::in_list("src", ["S", "T"]).and(Predicate::not_null("a"))),
            cur,
        );
        b.target("T", Schema::of(["k", "a", "day", "a_bkt", "src"]), cur);
        let wf = b.build().unwrap();
        let text = render(&wf).unwrap();
        let back = parse(&text).unwrap();
        assert_eq!(wf.signature(), back.signature(), "{text}");
        assert!(equivalent(&wf, &back).unwrap());
        assert!(text.contains("keep noninjective"), "{text}");
    }

    #[test]
    fn binary_ops_roundtrip() {
        for op in [
            BinaryOp::Difference,
            BinaryOp::Intersection,
            BinaryOp::Join(vec!["k".into()]),
        ] {
            let mut b = WorkflowBuilder::new();
            let (lschema, rschema) = match &op {
                BinaryOp::Join(_) => (Schema::of(["k", "x"]), Schema::of(["k", "y"])),
                _ => (Schema::of(["k", "x"]), Schema::of(["k", "x"])),
            };
            let s1 = b.source("L", lschema, 10.0);
            let s2 = b.source("R", rschema, 10.0);
            let j = b.binary("op", op, s1, s2);
            b.target("T", Schema::empty(), j);
            let wf = b.build().unwrap();
            let text = render(&wf).unwrap();
            let back = parse(&text).unwrap();
            assert_eq!(wf.signature(), back.signature(), "{text}");
        }
    }

    #[test]
    fn merged_activities_are_rejected_with_guidance() {
        use crate::transition::{Merge, Transition};
        let wf = sample();
        let acts = wf.activities().unwrap();
        // Merge σ(€) and SK (the adjacent unary pair after the staging
        // recordset; index 3 is the union).
        let merged = Merge::new(acts[4], acts[5]).apply(&wf).unwrap();
        let err = render(&merged).unwrap_err();
        assert!(err.to_string().contains("Split"), "{err}");
    }

    #[test]
    fn parse_rejects_unknown_references_and_directives() {
        assert!(parse("activity a1 \"x\" = dedup <- ghost").is_err());
        assert!(parse("widget \"x\"").is_err());
        assert!(
            parse("source \"S\" table rows=1 (a)\nactivity a1 \"u\" = union <- \"S\"").is_err()
        );
    }

    /// Estimates the model would assert on are parse errors: a text is input.
    #[test]
    fn parse_rejects_estimates_out_of_range_instead_of_panicking() {
        for rows in ["-1", "-1e999"] {
            let err = parse(&format!("source \"S\" table rows={rows} (a)")).unwrap_err();
            assert!(err.to_string().contains("row estimate"), "{err}");
        }
        for sel in ["0", "1.5", "1e999", "-0.5"] {
            let text = format!(
                "source \"S\" table rows=1 (a)\nactivity a1 \"n\" = dedup sel={sel} <- \"S\""
            );
            let err = parse(&text).unwrap_err();
            assert!(err.to_string().contains("selectivity"), "{sel}: {err}");
        }
    }

    #[test]
    fn fig1_example_from_module_docs_parses() {
        let text = r#"
            source "PARTS1" table rows=300 (pkey, source, date, euro_cost)
            source "PARTS2" table rows=9000 (pkey, source, date, dept, dollar_cost)
            activity a1 "NN" = not_null(euro_cost) sel=0.95 <- "PARTS1"
            activity a2 "$2E" = function dollar2euro(dollar_cost) -> euro_cost <- "PARTS2"
            activity a3 "A2E" = function am2eu(date) -> date <- a2
            activity a4 "γ" = aggregate group(pkey, source, date) sum(euro_cost -> euro_cost) sel=0.033 <- a3
            activity a5 "U" = union <- a1, a4
            activity a6 "σ(€)" = filter euro_cost >= 100.0 sel=0.4 <- a5
            target "DW" table (pkey, source, date, euro_cost) <- a6
        "#;
        let wf = parse(text).unwrap();
        assert_eq!(wf.signature().to_string(), "((1.3)//(2.4.5.6)).7.8.9");
    }

    #[test]
    fn family_digest_survives_swaps_and_calibration() {
        use crate::opt::enumerate_moves;
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 100.0);
        let f = b.unary(
            "σ",
            UnaryOp::filter(Predicate::gt("v", 1)).with_selectivity(0.5),
            s,
        );
        let sk = b.unary("SK", UnaryOp::surrogate_key("k", "sk", "L"), f);
        b.target("T", Schema::of(["sk", "v"]), sk);
        let wf = b.build().unwrap();
        let base = family_digest(&wf).unwrap();

        // A swapped sibling stays in the family (different signature,
        // same id → op binding).
        let swap = enumerate_moves(&wf)
            .unwrap()
            .into_iter()
            .find(|m| matches!(m, crate::opt::Move::Swap(_)))
            .expect("chain has a swap");
        let swapped = swap.apply(&wf).unwrap();
        assert_ne!(wf.signature(), swapped.signature());
        assert_eq!(family_digest(&swapped).unwrap(), base);

        // Re-seeded selectivities stay in the family.
        let acts = wf.activities().unwrap();
        let mut reseeded = wf.clone();
        reseeded.set_selectivity(acts[0], 0.123).unwrap();
        assert_eq!(family_digest(&reseeded).unwrap(), base);

        // A different operator payload leaves it.
        let mut b2 = WorkflowBuilder::new();
        let s = b2.source("S", Schema::of(["k", "v"]), 100.0);
        let f = b2.unary("σ", UnaryOp::filter(Predicate::gt("v", 2)), s);
        let sk = b2.unary("SK", UnaryOp::surrogate_key("k", "sk", "L"), f);
        b2.target("T", Schema::of(["sk", "v"]), sk);
        let other = b2.build().unwrap();
        assert_ne!(family_digest(&other).unwrap(), base);
    }

    #[test]
    fn family_digest_is_stable_across_parse_roundtrip() {
        let text = r#"
            source "S" table rows=10 (a, b)
            activity a1 "σ" = filter a >= 1.0 sel=0.5 <- "S"
            activity a2 "NN" = not_null(b) <- a1
            target "T" table (a, b) <- a2
        "#;
        let wf = parse(text).unwrap();
        let again = parse(&render(&wf).unwrap()).unwrap();
        assert_eq!(family_digest(&wf).unwrap(), family_digest(&again).unwrap());
    }
}
