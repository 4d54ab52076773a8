//! The byte-scanning tokenizer against the character-vector one it
//! replaced, kept here as the reference: same token stream and same error
//! message for every line of the benchmark's `search_plan` population, for
//! byte-damaged copies of those lines, for hand-picked edge cases and for
//! noise.

use etlopt::core::rng::Rng;
use etlopt::core::text::{self, lexer};
use etlopt::workload::Generator;

/// The reference's token: owned, otherwise `lexer::Token`.
#[derive(Debug, PartialEq)]
enum Token {
    Ident(String),
    Str(String),
    Number(String),
    Punct(&'static str),
}

const PUNCTS: &[&str] = &[
    "<-", "->", "<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", ";", "{", "}",
];

/// `lexer::tokenize` as it was before it scanned bytes; errors are the
/// message `CoreError::Schema` carried.
fn reference(line: &str) -> Result<Vec<Token>, String> {
    let mut out = Vec::new();
    let chars: Vec<char> = line.chars().collect();
    let mut i = 0;
    'outer: while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c == '#' {
            break;
        }
        if c == '"' {
            let mut s = String::new();
            i += 1;
            loop {
                match chars.get(i) {
                    Some('"') => {
                        i += 1;
                        break;
                    }
                    Some('\\') => {
                        match chars.get(i + 1) {
                            Some('"') => s.push('"'),
                            Some('\\') => s.push('\\'),
                            other => return Err(format!("bad escape {other:?} in string literal")),
                        }
                        i += 2;
                    }
                    Some(&c) => {
                        s.push(c);
                        i += 1;
                    }
                    None => return Err(format!("unterminated string in `{line}`")),
                }
            }
            out.push(Token::Str(s));
            continue;
        }
        for p in PUNCTS {
            let pat: Vec<char> = p.chars().collect();
            if chars.len() >= i + pat.len() && chars[i..i + pat.len()] == pat[..] {
                out.push(Token::Punct(p));
                i += pat.len();
                continue 'outer;
            }
        }
        if c.is_ascii_digit()
            || (c == '-' && matches!(chars.get(i + 1), Some(d) if d.is_ascii_digit()))
        {
            let start = i;
            i += 1;
            while i < chars.len()
                && (chars[i].is_ascii_digit()
                    || chars[i] == '.'
                    || chars[i] == 'e'
                    || chars[i] == 'E'
                    || (chars[i] == '-' && matches!(chars[i - 1], 'e' | 'E')))
            {
                i += 1;
            }
            out.push(Token::Number(chars[start..i].iter().collect()));
            continue;
        }
        if c.is_alphanumeric() || c == '_' || c == '.' {
            let start = i;
            while i < chars.len()
                && (chars[i].is_alphanumeric() || chars[i] == '_' || chars[i] == '.')
            {
                i += 1;
            }
            out.push(Token::Ident(chars[start..i].iter().collect()));
            continue;
        }
        return Err(format!("unexpected character `{c}` in `{line}`"));
    }
    Ok(out)
}

fn current(line: &str) -> Result<Vec<Token>, String> {
    let owned = |t: lexer::Token| match t {
        lexer::Token::Ident(s) => Token::Ident(s.to_owned()),
        lexer::Token::Str(s) => Token::Str(s.into_owned()),
        lexer::Token::Number(s) => Token::Number(s.to_owned()),
        lexer::Token::Punct(p) => Token::Punct(p),
    };
    match lexer::tokenize(line) {
        Ok(tokens) => Ok(tokens.into_iter().map(owned).collect()),
        Err(etlopt::core::error::CoreError::Schema(msg)) => Err(msg),
        Err(other) => Err(format!("not a schema error: {other}")),
    }
}

#[track_caller]
fn same(line: &str) {
    assert_eq!(current(line), reference(line), "line {line:?}");
}

/// Byte-level damage: overwrite, truncate, or insert one of the bytes the
/// grammar gives meaning to (and two that start multi-byte characters),
/// one to three times.
fn damage(rng: &mut Rng, bytes: &mut Vec<u8>) {
    const SALT: &[u8] = b"\"\\#<>-=!(),;{}.e_0 \t\x0b\xc3\xe2";
    for _ in 0..rng.gen_range(1..4usize) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.gen_range(0..bytes.len());
        match rng.gen_range(0..3u32) {
            0 => bytes[at] = rng.next_u64() as u8,
            1 => bytes.truncate(at),
            _ => bytes.insert(at, SALT[rng.gen_range(0..SALT.len())]),
        }
    }
}

#[test]
fn tokenizer_matches_the_reference_on_the_population_and_on_damage() {
    let population: Vec<String> = Generator::suite(2005, 48, 29, 3)
        .iter()
        .map(|s| text::render(&s.workflow).expect("render"))
        .collect();
    let lines: Vec<&str> = population.iter().flat_map(|t| t.lines()).collect();
    assert!(lines.len() > 2_000, "population shrank: {}", lines.len());
    for line in &lines {
        same(line);
        assert!(current(line).is_ok(), "rendered line must tokenize: {line}");
    }

    let mut rng = Rng::seed_from_u64(0x6c65_7865);
    for _ in 0..20_000 {
        let mut bytes = lines[rng.gen_range(0..lines.len())].as_bytes().to_vec();
        damage(&mut rng, &mut bytes);
        same(&String::from_utf8_lossy(&bytes));
        let noise: Vec<u8> = (0..rng.gen_range(0..48usize))
            .map(|_| rng.next_u64() as u8)
            .collect();
        same(&String::from_utf8_lossy(&noise));
    }
}

#[test]
fn tokenizer_matches_the_reference_on_edge_cases() {
    for line in [
        "",
        "   ",
        "# only a comment",
        "a#b",
        "\"#not a comment\" # comment",
        "a<-3 b->c a<=b a<>b a!=b a<b a>b a>=b a=b",
        "a<--3 - -> -a !x",
        "-",
        "!",
        "1e-3 1E-3 1e--3 1-3 -3.5e-2x 7..e",
        ".5 .a a.b _x 9lives",
        "\"\" \"\\\"\" \"\\\\\" \"a\\\"b\\\\c\"",
        "\"bad \\n escape\"",
        "\"trailing backslash\\",
        "\"bad \\€ escape\"",
        "\"unterminated",
        "\"σ(€)\" γ = naïve ünï_cödé.x",
        "a\u{a0}b\u{2003}c\u{0b}d\u{0c}e\u{85}f\u{1c}g",
        "٣ x٣ 3٣ -٣",
        "a € b",
        "a \u{fffd} b",
        "{ } ; , ( )",
        "@",
    ] {
        same(line);
    }
}

/// The parser above the lexer under the same damage: every undamaged text
/// of the `serve_warm` population is a fixpoint of `render ∘ parse`, and a
/// damaged copy of one parses to `Ok` or `Err`, never a panic.
#[test]
fn parser_survives_damage_and_render_inverts_parse_on_the_serve_warm_population() {
    let population: Vec<String> = Generator::suite(2005, 32, 0, 0)
        .iter()
        .map(|s| text::render(&s.workflow).expect("render"))
        .collect();
    for t in &population {
        let parsed = text::parse(t).expect("a rendered text parses");
        assert_eq!(&text::render(&parsed).expect("render"), t);
    }
    let mut rng = Rng::seed_from_u64(0x7061_7273);
    let (mut parsed, mut refused) = (0, 0);
    for _ in 0..8_000 {
        let mut bytes = population[rng.gen_range(0..population.len())]
            .as_bytes()
            .to_vec();
        damage(&mut rng, &mut bytes);
        match text::parse(&String::from_utf8_lossy(&bytes)) {
            Ok(_) => parsed += 1,
            Err(_) => refused += 1,
        }
    }
    assert!(
        parsed >= 100 && refused >= 4_000,
        "{parsed} parsed, {refused} refused"
    );
}
