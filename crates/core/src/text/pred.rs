//! Predicate rendering and parsing for the workflow text format.
//!
//! Grammar (lowest precedence first):
//!
//! ```text
//! pred  := and ("or" and)*
//! and   := unary ("and" unary)*
//! unary := "not" unary | atom
//! atom  := "(" pred ")" | "true"
//!        | attr cmp (scalar | attr)
//!        | attr "is" ["not"] "null"
//!        | attr "in" "(" scalar ("," scalar)* ")"
//! cmp   := "=" | "<>" | "!=" | "<" | "<=" | ">" | ">="
//! ```

use std::fmt::Write as _;

use crate::error::Result;
use crate::predicate::{CmpOp, Predicate};
use crate::scalar::Scalar;
use crate::schema::Attr;
use crate::text::lexer::{Cursor, Token};

/// Render a scalar as a parseable literal.
pub fn render_scalar(v: &Scalar) -> String {
    match v {
        Scalar::Null => "null".to_owned(),
        Scalar::Bool(b) => b.to_string(),
        Scalar::Int(i) => i.to_string(),
        Scalar::Float(f) => {
            if f.fract() == 0.0 && f.is_finite() {
                format!("{f:.1}")
            } else {
                f.to_string()
            }
        }
        Scalar::Date(d) => format!("date({d})"),
        Scalar::Str(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
    }
}

/// Parse a scalar literal.
pub fn parse_scalar(c: &mut Cursor) -> Result<Scalar> {
    match c.next() {
        Some(Token::Ident("null")) => Ok(Scalar::Null),
        Some(Token::Ident("true")) => Ok(Scalar::Bool(true)),
        Some(Token::Ident("false")) => Ok(Scalar::Bool(false)),
        Some(Token::Ident("date")) => {
            c.expect_punct("(")?;
            let n = c.expect_number()?;
            c.expect_punct(")")?;
            Ok(Scalar::Date(n as i32))
        }
        Some(Token::Str(s)) => Ok(Scalar::Str(s.into_owned())),
        Some(Token::Number(s)) => {
            if s.contains('.') || s.contains('e') || s.contains('E') {
                Ok(Scalar::Float(s.parse().map_err(|e| c.err(e))?))
            } else {
                Ok(Scalar::Int(s.parse().map_err(|e| c.err(e))?))
            }
        }
        other => Err(c.err(format!("expected scalar literal, got {other:?}"))),
    }
}

fn cmp_symbol(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "<>",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

/// Render a predicate as parseable text.
pub fn render(p: &Predicate) -> String {
    let mut out = String::new();
    write_pred(p, &mut out);
    out
}

fn write_pred(p: &Predicate, out: &mut String) {
    match p {
        Predicate::True => out.push_str("true"),
        Predicate::Cmp { attr, op, value } => {
            let _ = write!(out, "{attr} {} {}", cmp_symbol(*op), render_scalar(value));
        }
        Predicate::CmpAttr { left, op, right } => {
            let _ = write!(out, "{left} {} {right}", cmp_symbol(*op));
        }
        Predicate::IsNotNull(a) => {
            let _ = write!(out, "{a} is not null");
        }
        Predicate::IsNull(a) => {
            let _ = write!(out, "{a} is null");
        }
        Predicate::InList { attr, values } => {
            let vals: Vec<String> = values.iter().map(render_scalar).collect();
            let _ = write!(out, "{attr} in ({})", vals.join(", "));
        }
        Predicate::And(a, b) => {
            out.push('(');
            write_pred(a, out);
            out.push_str(" and ");
            write_pred(b, out);
            out.push(')');
        }
        Predicate::Or(a, b) => {
            out.push('(');
            write_pred(a, out);
            out.push_str(" or ");
            write_pred(b, out);
            out.push(')');
        }
        Predicate::Not(inner) => {
            out.push_str("not ");
            match **inner {
                Predicate::And(_, _) | Predicate::Or(_, _) => write_pred(inner, out),
                _ => {
                    out.push('(');
                    write_pred(inner, out);
                    out.push(')');
                }
            }
        }
    }
}

/// Parse a predicate from the cursor (stops at the first token the grammar
/// does not own, e.g. `sel` or `<-`).
pub fn parse(c: &mut Cursor) -> Result<Predicate> {
    let left = parse_and(c)?;
    if c.eat_keyword("or") {
        let right = parse(c)?;
        Ok(left.or(right))
    } else {
        Ok(left)
    }
}

fn parse_and(c: &mut Cursor) -> Result<Predicate> {
    let left = parse_unary(c)?;
    if c.eat_keyword("and") {
        let right = parse_and(c)?;
        Ok(left.and(right))
    } else {
        Ok(left)
    }
}

fn parse_unary(c: &mut Cursor) -> Result<Predicate> {
    if c.eat_keyword("not") {
        return Ok(parse_unary(c)?.not());
    }
    if c.eat_punct("(") {
        let inner = parse(c)?;
        c.expect_punct(")")?;
        return Ok(inner);
    }
    // atom starting with an attribute (or the literal `true`).
    let ident = c.expect_ident()?;
    if ident == "true" {
        return Ok(Predicate::True);
    }
    let attr = Attr::new(ident);
    if c.eat_keyword("is") {
        let negated = c.eat_keyword("not");
        c.expect_keyword("null")?;
        return Ok(if negated {
            Predicate::IsNotNull(attr)
        } else {
            Predicate::IsNull(attr)
        });
    }
    if c.eat_keyword("in") {
        c.expect_punct("(")?;
        let mut values = Vec::new();
        loop {
            values.push(parse_scalar(c)?);
            if c.eat_punct(")") {
                break;
            }
            c.expect_punct(",")?;
        }
        return Ok(Predicate::InList { attr, values });
    }
    let op = match c.next() {
        Some(Token::Punct("=")) => CmpOp::Eq,
        Some(Token::Punct("<>")) | Some(Token::Punct("!=")) => CmpOp::Ne,
        Some(Token::Punct("<")) => CmpOp::Lt,
        Some(Token::Punct("<=")) => CmpOp::Le,
        Some(Token::Punct(">")) => CmpOp::Gt,
        Some(Token::Punct(">=")) => CmpOp::Ge,
        other => return Err(c.err(format!("expected comparison operator, got {other:?}"))),
    };
    // Attribute on the right? (identifiers that are not scalar keywords)
    if let Some(Token::Ident(s)) = c.peek() {
        if !matches!(*s, "null" | "true" | "false" | "date") {
            let right = c.expect_ident()?;
            return Ok(Predicate::CmpAttr {
                left: attr,
                op,
                right: Attr::new(right),
            });
        }
    }
    let value = parse_scalar(c)?;
    Ok(Predicate::Cmp { attr, op, value })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(p: &Predicate) {
        let text = render(p);
        let mut c = Cursor::new(&text).unwrap();
        let parsed = parse(&mut c).unwrap();
        c.expect_end().unwrap();
        assert_eq!(&parsed, p, "through `{text}`");
    }

    #[test]
    fn comparisons_roundtrip() {
        roundtrip(&Predicate::gt("cost", 100.0));
        roundtrip(&Predicate::le("qty", 5));
        roundtrip(&Predicate::eq("name", "widget"));
        roundtrip(&Predicate::ne("flag", Scalar::Bool(true)));
        roundtrip(&Predicate::eq("day", Scalar::Date(120)));
        roundtrip(&Predicate::eq("maybe", Scalar::Null));
    }

    #[test]
    fn null_tests_roundtrip() {
        roundtrip(&Predicate::not_null("cost"));
        roundtrip(&Predicate::IsNull(Attr::new("cost")));
    }

    #[test]
    fn in_list_roundtrips() {
        roundtrip(&Predicate::in_list("dept", ["toys", "tools"]));
        roundtrip(&Predicate::in_list("k", [1, 2, 3]));
    }

    #[test]
    fn boolean_structure_roundtrips() {
        let p = Predicate::gt("a", 1)
            .and(Predicate::not_null("b").or(Predicate::eq("c", "x")))
            .not();
        roundtrip(&p);
        roundtrip(&Predicate::True);
    }

    #[test]
    fn attr_attr_comparison_roundtrips() {
        roundtrip(&Predicate::CmpAttr {
            left: Attr::new("a"),
            op: CmpOp::Le,
            right: Attr::new("b"),
        });
    }

    #[test]
    fn tricky_strings_roundtrip() {
        roundtrip(&Predicate::eq("s", "with \"quotes\" and \\slash"));
        roundtrip(&Predicate::eq("s", "123"));
    }

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        let mut c = Cursor::new("a = 1 or b = 2 and c = 3").unwrap();
        let p = parse(&mut c).unwrap();
        match p {
            Predicate::Or(_, rhs) => assert!(matches!(*rhs, Predicate::And(_, _))),
            other => panic!("expected Or at top, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        for bad in ["cost >", "cost is maybe", "in (1)", "a = = 1"] {
            let mut c = Cursor::new(bad).unwrap();
            let r = parse(&mut c).and_then(|_| c.expect_end());
            assert!(r.is_err(), "`{bad}` should not parse");
        }
    }
}
