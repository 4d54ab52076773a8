//! Wire protocol: newline-delimited JSON envelopes over TCP.
//!
//! Every request and response is exactly one line. The request carries
//! the workflow in the existing `text` DSL as an escaped JSON string; the
//! response carries its deterministic payload the same way, as a `body`
//! string. Keeping the body a *string* (not a nested object) means the
//! contract "responses are byte-identical to the one-shot path" survives
//! transport: clients compare the body bytes directly, with no JSON
//! re-canonicalization in between.
//!
//! Response envelope shape:
//!
//! ```text
//! {"id":"…","code":200,"status":"ok","body":"…","meta":{…}}          # success
//! {"id":"…","code":429,"status":"rejected","error":"queue full …"}   # admission
//! {"id":"…","code":400,"status":"error","error":"…"}                 # bad request
//! ```
//!
//! `body` is canonical (same request ⇒ same bytes, at any concurrency);
//! `meta` is observational (elapsed time, shared-cache and memo deltas)
//! and explicitly outside the determinism contract.
//!
//! The envelopes cost what their bytes cost. Rendering escapes each
//! string straight into one line reserved up front ([`json::escape_into`]
//! copies runs of plain bytes whole, finding each run's end eight bytes a
//! step), and the escapes are byte-identical to the character-by-character
//! escape they replaced, so lines and bodies are too. A reply the tier of
//! remembered bodies answered ([`crate::state`]) is not escaped at all:
//! the tier keeps each body's escaped form next to it, and rendering
//! splices that between the envelope's head and `meta`, so a warm reply
//! costs a lookup and a copy. Parsing reads the line's members once
//! ([`json::parse_members`]) and moves their strings out — the workflow
//! and the body are never copied a second time — and a parsed response
//! keeps `meta` as the raw text it arrived as.

use std::fmt::Write as _;
use std::sync::Arc;

use crate::json::{self, Members, Value};

/// Typed response codes, HTTP-flavoured so admission-control rejections
/// are distinguishable from malformed requests and internal failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Code {
    /// Success; `body` holds the canonical payload.
    Ok = 200,
    /// The request line did not parse or failed validation.
    BadRequest = 400,
    /// Admission control: every job slot is held and the line waiting
    /// for one is full. Retry later.
    QueueFull = 429,
    /// The job was accepted but failed (or panicked) while running.
    Internal = 500,
    /// The server is draining for shutdown and admits no new jobs.
    Draining = 503,
}

impl Code {
    /// The numeric wire value.
    pub fn as_u16(self) -> u16 {
        self as u16
    }

    /// The `status` string paired with this code.
    pub fn status(self) -> &'static str {
        match self {
            Code::Ok => "ok",
            Code::BadRequest | Code::Internal => "error",
            Code::QueueFull | Code::Draining => "rejected",
        }
    }

    /// Decode a wire value.
    pub fn from_u16(code: u16) -> Option<Code> {
        match code {
            200 => Some(Code::Ok),
            400 => Some(Code::BadRequest),
            429 => Some(Code::QueueFull),
            500 => Some(Code::Internal),
            503 => Some(Code::Draining),
            _ => None,
        }
    }
}

/// The operation a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Liveness probe; answered without admission.
    Ping,
    /// Optimize the workflow; body reports plan text, costs and counters.
    Optimize,
    /// Optimize then execute the best plan against synthetic data.
    Execute,
    /// Feedback-driven adaptive re-optimization with tenant calibration.
    Adaptive,
    /// Registry statistics; answered without admission.
    Stats,
    /// Begin graceful drain; answered without admission.
    Shutdown,
}

impl Op {
    fn from_str(s: &str) -> Option<Op> {
        match s {
            "ping" => Some(Op::Ping),
            "optimize" => Some(Op::Optimize),
            "execute" => Some(Op::Execute),
            "adaptive" => Some(Op::Adaptive),
            "stats" => Some(Op::Stats),
            "shutdown" => Some(Op::Shutdown),
            _ => None,
        }
    }

    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Optimize => "optimize",
            Op::Execute => "execute",
            Op::Adaptive => "adaptive",
            Op::Stats => "stats",
            Op::Shutdown => "shutdown",
        }
    }

    /// Whether this op must hold one of the daemon's job slots while it
    /// runs (true) or is answered without admission (false). Both kinds
    /// run on the connection thread that read them.
    pub fn is_job(self) -> bool {
        matches!(self, Op::Optimize | Op::Execute | Op::Adaptive)
    }
}

/// A parsed request envelope. Optional knobs default here so the
/// determinism contract ("same request ⇒ same body") is defined over the
/// *effective* request, after defaulting and server-side clamping.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: String,
    /// Tenant namespace for calibration state. Defaults to `"public"`.
    pub tenant: String,
    /// Requested operation.
    pub op: Op,
    /// Optimizer: `"es"`, `"hs"`, `"hs-greedy"` or `"beam"`.
    pub algo: String,
    /// Search budget: state cap.
    pub states: usize,
    /// Search budget: wall-clock cap in milliseconds (clamped server-side).
    pub time_ms: u64,
    /// Search parallelism (worker threads inside one search).
    pub parallelism: usize,
    /// Synthetic rows per source recordset for execute/adaptive.
    pub rows: usize,
    /// Data seed for execute/adaptive.
    pub seed: u64,
    /// Adaptive round budget.
    pub rounds: usize,
    /// Whether adaptive may warm-start from the tenant's calibration.
    pub warm: bool,
    /// The workflow in the `text` DSL (empty for ping/stats/shutdown).
    pub workflow: String,
}

impl Request {
    /// Parse one request line. Defaults mirror the sweep configuration so
    /// a bare `{"op":"optimize","workflow":…}` behaves like the one-shot
    /// binaries.
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut m = json::parse_members(line)?.ok_or("request must be a JSON object")?;
        let op_name = m
            .get("op")
            .and_then(|op| op.value.as_str())
            .ok_or("missing string field `op`")?;
        let op = Op::from_str(op_name).ok_or_else(|| format!("unknown op `{op_name}`"))?;
        let req = Request {
            id: take_str(&mut m, "id", "")?,
            tenant: take_str(&mut m, "tenant", "public")?,
            op,
            algo: take_str(&mut m, "algo", "hs")?,
            states: num_field(&m, "states", 600)? as usize,
            time_ms: num_field(&m, "time_ms", 60_000)?,
            parallelism: num_field(&m, "parallelism", 1)?.max(1) as usize,
            rows: num_field(&m, "rows", 64)? as usize,
            seed: num_field(&m, "seed", 2005)?,
            rounds: num_field(&m, "rounds", 6)? as usize,
            warm: match m.get("warm").map(|w| &w.value) {
                None => Ok(true),
                Some(Value::Bool(b)) => Ok(*b),
                Some(_) => Err("field `warm` must be a boolean".to_owned()),
            }?,
            workflow: take_str(&mut m, "workflow", "")?,
        };
        if req.op.is_job() && req.workflow.is_empty() {
            return Err(format!("op `{}` requires a `workflow`", op.name()));
        }
        if !matches!(req.algo.as_str(), "es" | "hs" | "hs-greedy" | "beam") {
            return Err(format!(
                "unknown algo `{}` (expected es, hs, hs-greedy or beam)",
                req.algo
            ));
        }
        Ok(req)
    }

    /// Render this request as a wire line (no trailing newline).
    pub fn render(&self) -> String {
        let escaped = self.id.len() + self.tenant.len() + self.algo.len() + self.workflow.len();
        let mut out = String::with_capacity(192 + escaped + escaped / 4);
        out.push_str("{\"id\":\"");
        json::escape_into(&mut out, &self.id);
        out.push_str("\",\"tenant\":\"");
        json::escape_into(&mut out, &self.tenant);
        let _ = write!(out, "\",\"op\":\"{}\",\"algo\":\"", self.op.name());
        json::escape_into(&mut out, &self.algo);
        let _ = write!(
            out,
            concat!(
                "\",\"states\":{},\"time_ms\":{},\"parallelism\":{},\"rows\":{},",
                "\"seed\":{},\"rounds\":{},\"warm\":{},\"workflow\":\""
            ),
            self.states,
            self.time_ms,
            self.parallelism,
            self.rows,
            self.seed,
            self.rounds,
            self.warm,
        );
        json::escape_into(&mut out, &self.workflow);
        out.push_str("\"}");
        out
    }
}

/// Move string member `key` out of `m`, or `default` if it is absent.
fn take_str(m: &mut Members, key: &str, default: &str) -> Result<String, String> {
    match m.remove(key).map(|member| member.value) {
        None => Ok(default.to_owned()),
        Some(Value::Str(s)) => Ok(s),
        Some(_) => Err(format!("field `{key}` must be a string")),
    }
}

/// Numeric member `key` of `m`, or `default` if it is absent.
fn num_field(m: &Members, key: &str, default: u64) -> Result<u64, String> {
    match m.get(key) {
        None => Ok(default),
        Some(member) => member
            .value
            .as_u64()
            .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
    }
}

/// A response envelope.
#[derive(Debug, Clone)]
pub struct Response {
    /// Correlation id echoed from the request.
    pub id: String,
    /// Typed outcome code.
    pub code: Code,
    /// Canonical payload (empty unless `code` is [`Code::Ok`]). A reply the
    /// tier of remembered bodies answered renders the escaped copy stored
    /// with this body, so changing `body` does not change its line: build
    /// a new [`Response::ok`] instead.
    pub body: String,
    /// Observational metadata as JSON object text (empty = no meta),
    /// outside the determinism contract. The daemon renders it; a parsed
    /// response keeps it byte for byte as it arrived, unparsed — read it
    /// with [`json::parse`].
    pub meta: String,
    /// Human-readable error (empty unless `code` is an error/rejection).
    pub error: String,
    /// `body` already escaped for the line, on a reply the tier of
    /// remembered bodies answered ([`crate::state`]): [`Response::render`]
    /// splices it in instead of escaping `body` again. Set only by
    /// [`crate::job`], together with the `body` it escapes.
    pub(crate) wire: Option<Arc<str>>,
}

impl Response {
    /// A success envelope.
    pub fn ok(id: &str, body: String, meta: String) -> Response {
        Response {
            id: id.to_owned(),
            code: Code::Ok,
            body,
            meta,
            error: String::new(),
            wire: None,
        }
    }

    /// An error/rejection envelope.
    pub fn fail(id: &str, code: Code, error: String) -> Response {
        Response {
            id: id.to_owned(),
            code,
            body: String::new(),
            meta: String::new(),
            error,
            wire: None,
        }
    }

    /// Render as one wire line (no trailing newline). The capacity leaves
    /// room for the escapes and for the newline a writer appends. A
    /// remembered body is spliced in as the tier escaped it.
    pub fn render(&self) -> String {
        let (key, text) = match self.code {
            Code::Ok => ("body", &self.body),
            _ => ("error", &self.error),
        };
        let wire = self.wire.as_deref().filter(|_| self.code == Code::Ok);
        let text_bytes = wire.map_or(text.len() + text.len() / 4, str::len);
        let id_bytes = self.id.len() + self.id.len() / 4;
        let mut out = String::with_capacity(64 + id_bytes + text_bytes + self.meta.len());
        out.push_str("{\"id\":\"");
        json::escape_into(&mut out, &self.id);
        let _ = write!(
            out,
            "\",\"code\":{},\"status\":\"{}\",\"{key}\":\"",
            self.code.as_u16(),
            self.code.status()
        );
        match wire {
            Some(wire) => out.push_str(wire),
            None => json::escape_into(&mut out, text),
        }
        out.push('"');
        if self.code == Code::Ok && !self.meta.is_empty() {
            out.push_str(",\"meta\":");
            out.push_str(&self.meta);
        }
        out.push('}');
        out
    }

    /// Parse one response line. Strings are moved out of the parsed
    /// line and `meta` is its raw text.
    pub fn parse(line: &str) -> Result<Response, String> {
        let mut m = json::parse_members(line)?.unwrap_or_default();
        let code_num = m
            .get("code")
            .and_then(|code| code.value.as_u64())
            .ok_or("missing numeric field `code`")?;
        let code =
            Code::from_u16(code_num as u16).ok_or_else(|| format!("unknown code {code_num}"))?;
        let mut field = |key: &str| match m.remove(key).map(|member| member.value) {
            Some(Value::Str(s)) => s,
            _ => String::new(),
        };
        let (id, body, error) = (field("id"), field("body"), field("error"));
        Ok(Response {
            id,
            code,
            body,
            meta: m
                .get("meta")
                .map_or_else(String::new, |meta| meta.raw.to_owned()),
            error,
            wire: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlopt_core::rng::Rng;

    #[test]
    fn request_roundtrips_with_multiline_workflow() {
        let req = Request {
            id: "r-1".to_owned(),
            tenant: "acme".to_owned(),
            op: Op::Optimize,
            algo: "hs".to_owned(),
            states: 600,
            time_ms: 1000,
            parallelism: 2,
            rows: 64,
            seed: 42,
            rounds: 6,
            warm: false,
            workflow: "line1\nline2 \"quoted\"\n".to_owned(),
        };
        let line = req.render();
        assert!(!line.contains('\n'));
        let back = Request::parse(&line).unwrap();
        assert_eq!(back.id, req.id);
        assert_eq!(back.tenant, req.tenant);
        assert_eq!(back.op, Op::Optimize);
        assert_eq!(back.workflow, req.workflow);
        assert!(!back.warm);
    }

    #[test]
    fn request_defaults_mirror_the_sweep() {
        let req = Request::parse(r#"{"op":"optimize","workflow":"w"}"#).unwrap();
        assert_eq!(req.tenant, "public");
        assert_eq!(req.algo, "hs");
        assert_eq!(req.states, 600);
        assert_eq!(req.rows, 64);
        assert_eq!(req.parallelism, 1);
        assert!(req.warm);
    }

    #[test]
    fn job_ops_require_a_workflow() {
        assert!(Request::parse(r#"{"op":"execute"}"#).is_err());
        assert!(Request::parse(r#"{"op":"ping"}"#).is_ok());
    }

    #[test]
    fn unknown_ops_and_algos_are_rejected() {
        assert!(Request::parse(r#"{"op":"explode","workflow":"w"}"#).is_err());
        assert!(Request::parse(r#"{"op":"optimize","algo":"dfs","workflow":"w"}"#).is_err());
    }

    #[test]
    fn response_envelope_preserves_body_bytes() {
        let body = "{\"plan\":\"a\\nb\",\"cost\":1.25}".to_owned();
        let resp = Response::ok("r-9", body.clone(), "{\"elapsed_us\":12}".to_owned());
        let line = resp.render();
        assert!(!line.contains('\n'));
        let back = Response::parse(&line).unwrap();
        assert_eq!(back.code, Code::Ok);
        assert_eq!(back.body, body, "body must survive transport byte-for-byte");
        assert!(back.meta.contains("elapsed_us"));
    }

    #[test]
    fn rejection_envelopes_are_typed() {
        let resp = Response::fail("r-2", Code::QueueFull, "queue full (depth 4)".to_owned());
        let line = resp.render();
        let back = Response::parse(&line).unwrap();
        assert_eq!(back.code, Code::QueueFull);
        assert_eq!(back.code.status(), "rejected");
        assert!(back.error.contains("queue full"));
    }

    /// Any text, with every C0 control, quotes, backslashes, DEL and
    /// multi-byte characters over-represented.
    fn random_text(rng: &mut Rng, max_len: usize) -> String {
        (0..rng.gen_range(0..max_len))
            .map(|_| match rng.gen_range(0..5u32) {
                0 => char::from_u32(rng.gen_range(0..0x20u32)).unwrap(),
                1 => ['"', '\\', '/', '\u{7f}', 'σ', '€', '\u{1f600}'][rng.gen_range(0..7usize)],
                2 => char::from_u32(rng.gen_range(0x80..0x800u32)).unwrap(),
                _ => char::from_u32(rng.gen_range(0x20..0x7fu32)).unwrap(),
            })
            .collect()
    }

    /// The damage `json::tests` applies: one to three overwritten bytes,
    /// truncations or inserted structural bytes, read back lossily.
    fn damage(line: &str, rng: &mut Rng) -> String {
        let mut bytes = line.as_bytes().to_vec();
        for _ in 0..rng.gen_range(1..4usize) {
            if bytes.is_empty() {
                break;
            }
            let at = rng.gen_range(0..bytes.len());
            match rng.gen_range(0..3u32) {
                0 => bytes[at] = rng.next_u64() as u8,
                1 => bytes.truncate(at),
                _ => bytes.insert(at, b"{}[]\",:\\u-e.0"[rng.gen_range(0..13usize)]),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// `Response::render` as it was before it escaped into one reserved
    /// line: the reference for the response line's bytes.
    fn reference_render(r: &Response) -> String {
        let mut out = format!(
            "{{\"id\":\"{}\",\"code\":{},\"status\":\"{}\"",
            json::escape(&r.id),
            r.code.as_u16(),
            r.code.status()
        );
        if r.code == Code::Ok {
            out.push_str(&format!(",\"body\":\"{}\"", json::escape(&r.body)));
            if !r.meta.is_empty() {
                out.push_str(&format!(",\"meta\":{}", r.meta));
            }
        } else {
            out.push_str(&format!(",\"error\":\"{}\"", json::escape(&r.error)));
        }
        out.push('}');
        out
    }

    #[test]
    fn responses_roundtrip_exactly_and_render_the_reference_bytes() {
        let mut rng = Rng::seed_from_u64(0x656e_7665);
        let codes = [
            Code::Ok,
            Code::BadRequest,
            Code::QueueFull,
            Code::Internal,
            Code::Draining,
        ];
        for i in 0..2_000 {
            let meta = match i % 3 {
                0 => String::new(),
                1 => format!("{{\"elapsed_us\":{},\"run\":\"none\"}}", rng.next_u64()),
                // Spacing, key order and escapes a re-render would change.
                _ => format!(
                    "{{ \"z\" : [1.50, {{}}], \"a\":\"{}\" }}",
                    json::escape(&random_text(&mut rng, 12))
                ),
            };
            let resp = match codes[rng.gen_range(0..codes.len())] {
                Code::Ok => {
                    Response::ok(&random_text(&mut rng, 16), random_text(&mut rng, 200), meta)
                }
                code => Response::fail(&random_text(&mut rng, 16), code, random_text(&mut rng, 40)),
            };
            let line = resp.render();
            assert_eq!(line, reference_render(&resp));
            assert!(!line.contains('\n'), "{line:?}");
            let back = Response::parse(&line).unwrap();
            assert_eq!(
                (back.id, back.code, back.body, back.meta, back.error),
                (resp.id, resp.code, resp.body, resp.meta, resp.error),
            );
        }
    }

    #[test]
    fn requests_roundtrip_every_field() {
        let mut rng = Rng::seed_from_u64(0x7265_7175);
        let ops = [Op::Ping, Op::Optimize, Op::Execute, Op::Adaptive, Op::Stats];
        let algos = ["es", "hs", "hs-greedy", "beam"];
        for _ in 0..2_000 {
            let req = Request {
                id: random_text(&mut rng, 16),
                tenant: random_text(&mut rng, 8),
                op: ops[rng.gen_range(0..ops.len())],
                algo: algos[rng.gen_range(0..algos.len())].to_owned(),
                states: rng.gen_range(0..1_000_000usize),
                time_ms: rng.next_u64(),
                parallelism: rng.gen_range(1..64usize),
                rows: rng.gen_range(0..100_000usize),
                seed: rng.next_u64(),
                rounds: rng.gen_range(0..32usize),
                warm: rng.gen_bool(0.5),
                workflow: format!("w{}", random_text(&mut rng, 300)),
            };
            let line = req.render();
            assert!(!line.contains('\n'), "{line:?}");
            let back = Request::parse(&line).unwrap();
            assert_eq!(format!("{back:?}"), format!("{req:?}"));
            assert_eq!(back.render(), line);
        }
    }

    #[test]
    fn damaged_envelope_lines_never_panic() {
        let mut rng = Rng::seed_from_u64(0x6461_6d61);
        for _ in 0..4_000 {
            let req = Request {
                id: random_text(&mut rng, 8),
                tenant: "acme".to_owned(),
                op: Op::Optimize,
                algo: "beam".to_owned(),
                states: 600,
                time_ms: 1_000,
                parallelism: 1,
                rows: 64,
                seed: 7,
                rounds: 6,
                warm: true,
                workflow: random_text(&mut rng, 60),
            };
            let resp = Response::ok(
                &req.id,
                random_text(&mut rng, 60),
                "{\"elapsed_us\":3,\"plan_cache\":\"hit\"}".to_owned(),
            );
            let _ = Request::parse(&damage(&req.render(), &mut rng));
            let _ = Response::parse(&damage(&resp.render(), &mut rng));
        }
    }
}
