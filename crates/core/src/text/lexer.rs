//! Tokenizer for the workflow text format.
//!
//! One pass over the line's bytes. The grammar's own characters are all
//! ASCII, so punctuation dispatches on one byte and a token is a slice of
//! the line; only a character outside ASCII is decoded (identifiers and
//! whitespace follow `char::is_alphanumeric` / `char::is_whitespace`), and
//! only a string literal that contains a backslash is copied.

use std::borrow::Cow;

use crate::error::{CoreError, Result};

/// A token of the workflow DSL, borrowing from the line it was read from.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// Identifier or keyword (`filter`, `pkey`, …).
    Ident(&'a str),
    /// Double-quoted string (escapes: `\"`, `\\`), unescaped.
    Str(Cow<'a, str>),
    /// Numeric literal (held as text; the parser decides int vs float).
    Number(&'a str),
    /// Punctuation / operator.
    Punct(&'static str),
}

impl<'a> Token<'a> {
    /// Identifier payload, if this is one.
    pub fn as_ident(&self) -> Option<&'a str> {
        match self {
            Token::Ident(s) => Some(s),
            _ => None,
        }
    }
}

/// The punctuation starting with byte `b`, given the byte after it. The
/// two-byte forms win over their one-byte prefixes.
fn punct(b: u8, next: Option<u8>) -> Option<&'static str> {
    Some(match (b, next) {
        (b'<', Some(b'-')) => "<-",
        (b'<', Some(b'=')) => "<=",
        (b'<', Some(b'>')) => "<>",
        (b'<', _) => "<",
        (b'-', Some(b'>')) => "->",
        (b'>', Some(b'=')) => ">=",
        (b'>', _) => ">",
        (b'!', Some(b'=')) => "!=",
        (b'=', _) => "=",
        (b'(', _) => "(",
        (b')', _) => ")",
        (b',', _) => ",",
        (b';', _) => ";",
        (b'{', _) => "{",
        (b'}', _) => "}",
        _ => return None,
    })
}

/// The character starting at byte `i` of `line` (a boundary), if any;
/// decodes only outside ASCII.
fn char_at(line: &str, i: usize) -> Option<char> {
    let b = *line.as_bytes().get(i)?;
    if b.is_ascii() {
        Some(char::from(b))
    } else {
        line[i..].chars().next()
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '.'
}

/// Read a string literal whose opening quote is at byte `open`. Returns
/// the unescaped text and the index just past the closing quote. (`"` and
/// `\` are ASCII and cannot occur inside a multi-byte character, so
/// scanning bytes finds exactly the characters.)
fn string_literal(line: &str, open: usize) -> Result<(Cow<'_, str>, usize)> {
    let bytes = line.as_bytes();
    let start = open + 1;
    // Written to only once an escape is met; `run` is where the text not
    // yet copied into it begins.
    let mut unescaped = String::new();
    let (mut run, mut i) = (start, start);
    loop {
        while matches!(bytes.get(i), Some(&b) if b != b'"' && b != b'\\') {
            i += 1;
        }
        match bytes.get(i) {
            Some(b'"') if run == start => return Ok((Cow::Borrowed(&line[start..i]), i + 1)),
            Some(b'"') => {
                unescaped.push_str(&line[run..i]);
                return Ok((Cow::Owned(unescaped), i + 1));
            }
            Some(_) => {
                unescaped.push_str(&line[run..i]);
                match line[i + 1..].chars().next() {
                    Some('"') => unescaped.push('"'),
                    Some('\\') => unescaped.push('\\'),
                    other => {
                        return Err(CoreError::Schema(format!(
                            "bad escape {other:?} in string literal"
                        )))
                    }
                }
                i += 2;
                run = i;
            }
            None => {
                return Err(CoreError::Schema(format!(
                    "unterminated string in `{line}`"
                )))
            }
        }
    }
}

/// Tokenize one logical line.
pub fn tokenize(line: &str) -> Result<Vec<Token<'_>>> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(c) = char_at(line, i) {
        // Only whitespace and identifier characters may lie outside ASCII,
        // so everything else is told by the byte.
        let (b, next) = (bytes[i], bytes.get(i + 1).copied());
        if c.is_whitespace() {
            i += c.len_utf8();
        } else if b == b'#' {
            break; // trailing comment
        } else if b == b'"' {
            let (s, end) = string_literal(line, i)?;
            out.push(Token::Str(s));
            i = end;
        } else if let Some(p) = punct(b, next) {
            out.push(Token::Punct(p));
            i += p.len();
        } else if b.is_ascii_digit() || (b == b'-' && matches!(next, Some(d) if d.is_ascii_digit()))
        {
            let start = i;
            i += 1;
            while let Some(&d) = bytes.get(i) {
                let exponent_sign = d == b'-' && matches!(bytes[i - 1], b'e' | b'E');
                if d.is_ascii_digit() || matches!(d, b'.' | b'e' | b'E') || exponent_sign {
                    i += 1;
                } else {
                    break;
                }
            }
            out.push(Token::Number(&line[start..i]));
        } else if is_ident_char(c) {
            let start = i;
            while let Some(c) = char_at(line, i).filter(|c| is_ident_char(*c)) {
                i += c.len_utf8();
            }
            out.push(Token::Ident(&line[start..i]));
        } else {
            return Err(CoreError::Schema(format!(
                "unexpected character `{c}` in `{line}`"
            )));
        }
    }
    Ok(out)
}

/// Cursor over a token list with expectation helpers.
pub struct Cursor<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    line: &'a str,
}

impl<'a> Cursor<'a> {
    /// Tokenize and wrap.
    pub fn new(line: &'a str) -> Result<Cursor<'a>> {
        Ok(Cursor {
            tokens: tokenize(line)?,
            pos: 0,
            line,
        })
    }

    /// Peek the next token.
    pub fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos)
    }

    /// Take the next token.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Token<'a>> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Error with line context.
    pub fn err(&self, msg: impl std::fmt::Display) -> CoreError {
        CoreError::Schema(format!("{msg} (in `{}`)", self.line.trim()))
    }

    /// Expect a specific punct.
    pub fn expect_punct(&mut self, p: &'static str) -> Result<()> {
        match self.next() {
            Some(Token::Punct(q)) if q == p => Ok(()),
            other => Err(self.err(format!("expected `{p}`, got {other:?}"))),
        }
    }

    /// Expect an identifier.
    pub fn expect_ident(&mut self) -> Result<&'a str> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, got {other:?}"))),
        }
    }

    /// Expect a specific keyword.
    pub fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        match self.next() {
            Some(Token::Ident(s)) if s == kw => Ok(()),
            other => Err(self.err(format!("expected `{kw}`, got {other:?}"))),
        }
    }

    /// Expect a quoted string.
    pub fn expect_str(&mut self) -> Result<Cow<'a, str>> {
        match self.next() {
            Some(Token::Str(s)) => Ok(s),
            other => Err(self.err(format!("expected string literal, got {other:?}"))),
        }
    }

    /// Expect a number, parsed as f64.
    pub fn expect_number(&mut self) -> Result<f64> {
        match self.next() {
            Some(Token::Number(s)) => s
                .parse()
                .map_err(|e| self.err(format!("bad number `{s}`: {e}"))),
            other => Err(self.err(format!("expected number, got {other:?}"))),
        }
    }

    /// Consume a punct if it is next; report whether it was.
    pub fn eat_punct(&mut self, p: &'static str) -> bool {
        if matches!(self.peek(), Some(Token::Punct(q)) if *q == p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Consume a keyword if it is next; report whether it was.
    pub fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Ident(s)) if *s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Are all tokens consumed?
    pub fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    /// Fail unless at end.
    pub fn expect_end(&self) -> Result<()> {
        if self.at_end() {
            Ok(())
        } else {
            Err(self.err(format!("trailing tokens from {:?}", self.peek())))
        }
    }

    /// Parse a parenthesized, comma-separated identifier list.
    pub fn ident_list(&mut self) -> Result<Vec<&'a str>> {
        self.expect_punct("(")?;
        let mut out = Vec::new();
        if self.eat_punct(")") {
            return Ok(out);
        }
        loop {
            out.push(self.expect_ident()?);
            if self.eat_punct(")") {
                return Ok(out);
            }
            self.expect_punct(",")?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_mixed_line() {
        let toks = tokenize(r#"activity a3 "NN" = not_null(cost) sel=0.95 <- s1"#).unwrap();
        assert_eq!(toks[0], Token::Ident("activity"));
        assert_eq!(toks[2], Token::Str("NN".into()));
        assert!(toks.contains(&Token::Punct("<-")));
        assert!(toks.contains(&Token::Number("0.95")));
    }

    #[test]
    fn multichar_puncts_win_over_single() {
        let toks = tokenize("a <= b <> c <- d -> e").unwrap();
        let puncts: Vec<&Token> = toks
            .iter()
            .filter(|t| matches!(t, Token::Punct(_)))
            .collect();
        assert_eq!(
            puncts,
            vec![
                &Token::Punct("<="),
                &Token::Punct("<>"),
                &Token::Punct("<-"),
                &Token::Punct("->")
            ]
        );
    }

    #[test]
    fn string_escapes() {
        let toks = tokenize(r#""he said \"hi\" \\ back""#).unwrap();
        assert_eq!(toks, vec![Token::Str("he said \"hi\" \\ back".into())]);
    }

    #[test]
    fn negative_and_scientific_numbers() {
        let toks = tokenize("-3 4.5 1e-3").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Number("-3"),
                Token::Number("4.5"),
                Token::Number("1e-3")
            ]
        );
    }

    #[test]
    fn comments_are_stripped() {
        assert_eq!(tokenize("a b # rest ignored").unwrap().len(), 2);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("\"oops").is_err());
    }

    #[test]
    fn cursor_helpers() {
        let mut c = Cursor::new("filter (a, b)").unwrap();
        c.expect_keyword("filter").unwrap();
        assert_eq!(c.ident_list().unwrap(), vec!["a", "b"]);
        c.expect_end().unwrap();
    }
}
