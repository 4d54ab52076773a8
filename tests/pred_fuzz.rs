//! `text::pred` on its own: seeded random predicate trees survive
//! `render` → `parse` unchanged, the exponent spelling of every float
//! parses to the same float, and byte-damaged renders parse to `Ok` or
//! `Err`, never a panic.

use etlopt::core::predicate::{CmpOp, Predicate};
use etlopt::core::rng::Rng;
use etlopt::core::scalar::Scalar;
use etlopt::core::schema::Attr;
use etlopt::core::text::lexer::Cursor;
use etlopt::core::text::pred;

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// Attribute names the grammar reads back as names: no keyword, no
/// leading digit.
const ATTRS: &[&str] = &[
    "a", "k", "cost", "unit_px", "_x", "x9", "t.col", "e", "E1", "nulls", "dated", "ünï",
];

/// Characters a string literal must carry through: quotes, escapes, the
/// comment sign, grammar punctuation, whitespace and multi-byte text.
const STR_CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '\t', '"', '\\', '#', '(', ')', ',', ';', '<', '-', '=', 'e', '.', '€',
    'σ', 'ü',
];

/// A finite float: small and large magnitudes, negatives, integral values
/// (rendered as `n.0`), signed zero and the subnormal extreme. The text
/// format has no spelling for NaN or the infinities.
fn float(rng: &mut Rng) -> f64 {
    let f = match rng.gen_range(0..6u32) {
        0 => rng.gen_range(-1000.0..1000.0),
        1 => rng.gen_range(-1000i64..1000) as f64,
        2 => rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-300i32..300)),
        3 => f64::from_bits(rng.next_u64() & !(0x7ff << 52) | (rng.gen_range(1u64..0x7ff) << 52)),
        4 => [0.0, -0.0, f64::MIN_POSITIVE, 5e-324, f64::MAX, f64::MIN][rng.gen_range(0..6usize)],
        _ => rng.gen_range(0.0..1.0),
    };
    assert!(f.is_finite(), "{f}");
    f
}

fn scalar(rng: &mut Rng) -> Scalar {
    match rng.gen_range(0..7u32) {
        0 => Scalar::Null,
        1 => Scalar::Bool(rng.gen_bool(0.5)),
        2 => Scalar::Int(match rng.gen_range(0..3u32) {
            0 => rng.gen_range(-100i64..100),
            1 => rng.next_u64() as i64,
            _ => [i64::MIN, i64::MAX, 0, -1][rng.gen_range(0..4usize)],
        }),
        3 => Scalar::Float(float(rng)),
        4 => Scalar::Date(match rng.gen_range(0..2u32) {
            0 => rng.gen_range(-40_000i32..40_000),
            _ => [i32::MIN, i32::MAX, 0][rng.gen_range(0..3usize)],
        }),
        _ => Scalar::Str(
            (0..rng.gen_range(0..8usize))
                .map(|_| STR_CHARS[rng.gen_range(0..STR_CHARS.len())])
                .collect(),
        ),
    }
}

fn attr(rng: &mut Rng) -> Attr {
    Attr::new(ATTRS[rng.gen_range(0..ATTRS.len())])
}

fn op(rng: &mut Rng) -> CmpOp {
    OPS[rng.gen_range(0..OPS.len())]
}

/// A random predicate tree at most `depth` connectives deep.
fn predicate(rng: &mut Rng, depth: u32) -> Predicate {
    let leaf = depth == 0 || rng.gen_bool(0.35);
    if !leaf {
        return match rng.gen_range(0..3u32) {
            0 => predicate(rng, depth - 1).and(predicate(rng, depth - 1)),
            1 => predicate(rng, depth - 1).or(predicate(rng, depth - 1)),
            _ => predicate(rng, depth - 1).not(),
        };
    }
    match rng.gen_range(0..6u32) {
        0 => Predicate::True,
        1 => Predicate::CmpAttr {
            left: attr(rng),
            op: op(rng),
            right: attr(rng),
        },
        2 => Predicate::IsNotNull(attr(rng)),
        3 => Predicate::IsNull(attr(rng)),
        4 => Predicate::InList {
            attr: attr(rng),
            values: (0..rng.gen_range(1..5usize)).map(|_| scalar(rng)).collect(),
        },
        _ => Predicate::Cmp {
            attr: attr(rng),
            op: op(rng),
            value: scalar(rng),
        },
    }
}

/// `pred::parse` over the whole text, which must leave nothing behind.
fn parse(text: &str) -> etlopt::core::error::Result<Predicate> {
    let mut c = Cursor::new(text)?;
    let p = pred::parse(&mut c)?;
    c.expect_end()?;
    Ok(p)
}

/// Byte-level damage: overwrite, truncate, or insert one of the bytes the
/// predicate grammar gives meaning to, one to three times.
fn damage(rng: &mut Rng, bytes: &mut Vec<u8>) {
    const SALT: &[u8] = b"\"\\#<>-=!(),.e0 \xc3nt";
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
fn render_then_parse_returns_the_same_predicate() {
    let mut rng = Rng::seed_from_u64(0x7072_6564);
    for _ in 0..4_000 {
        let p = predicate(&mut rng, 5);
        let text = pred::render(&p);
        match parse(&text) {
            Ok(back) => assert_eq!(back, p, "through `{text}`"),
            Err(e) => panic!("`{text}` does not parse: {e}"),
        }
    }
}

#[test]
fn exponent_spellings_parse_to_the_same_float() {
    let mut rng = Rng::seed_from_u64(0x6578_706f);
    for _ in 0..4_000 {
        let f = float(&mut rng);
        for text in [format!("x = {f:e}"), format!("x = {f:E}")] {
            let expected = Predicate::Cmp {
                attr: Attr::new("x"),
                op: CmpOp::Eq,
                value: Scalar::Float(f),
            };
            match parse(&text) {
                Ok(back) => assert_eq!(back, expected, "through `{text}`"),
                Err(e) => panic!("`{text}` does not parse: {e}"),
            }
        }
    }
}

#[test]
fn damaged_renders_parse_or_fail_never_panic() {
    let mut rng = Rng::seed_from_u64(0x6461_6d67);
    let (mut parsed, mut refused) = (0, 0);
    for _ in 0..20_000 {
        let mut bytes = pred::render(&predicate(&mut rng, 4)).into_bytes();
        damage(&mut rng, &mut bytes);
        match parse(&String::from_utf8_lossy(&bytes)) {
            Ok(_) => parsed += 1,
            Err(_) => refused += 1,
        }
    }
    assert!(
        parsed >= 500 && refused >= 10_000,
        "{parsed} parsed, {refused} refused"
    );
}
