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

use crate::json::{self, Value};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
        let v = json::parse(line)?;
        if v.as_obj().is_none() {
            return Err("request must be a JSON object".to_owned());
        }
        let op_name = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or("missing string field `op`")?;
        let op = Op::from_str(op_name).ok_or_else(|| format!("unknown op `{op_name}`"))?;
        let str_field = |key: &str, default: &str| -> Result<String, String> {
            match v.get(key) {
                None => Ok(default.to_owned()),
                Some(Value::Str(s)) => Ok(s.clone()),
                Some(_) => Err(format!("field `{key}` must be a string")),
            }
        };
        let num_field = |key: &str, default: u64| -> Result<u64, String> {
            match v.get(key) {
                None => Ok(default),
                Some(val) => val
                    .as_u64()
                    .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
            }
        };
        let req = Request {
            id: str_field("id", "")?,
            tenant: str_field("tenant", "public")?,
            op,
            algo: str_field("algo", "hs")?,
            states: num_field("states", 600)? as usize,
            time_ms: num_field("time_ms", 60_000)?,
            parallelism: num_field("parallelism", 1)?.max(1) as usize,
            rows: num_field("rows", 64)? as usize,
            seed: num_field("seed", 2005)?,
            rounds: num_field("rounds", 6)? as usize,
            warm: match v.get("warm") {
                None => Ok(true),
                Some(Value::Bool(b)) => Ok(*b),
                Some(_) => Err("field `warm` must be a boolean".to_owned()),
            }?,
            workflow: str_field("workflow", "")?,
        };
        if req.op.is_job() && req.workflow.is_empty() {
            return Err(format!("op `{}` requires a `workflow`", op_name));
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
        format!(
            concat!(
                "{{\"id\":\"{}\",\"tenant\":\"{}\",\"op\":\"{}\",\"algo\":\"{}\",",
                "\"states\":{},\"time_ms\":{},\"parallelism\":{},\"rows\":{},",
                "\"seed\":{},\"rounds\":{},\"warm\":{},\"workflow\":\"{}\"}}"
            ),
            json::escape(&self.id),
            json::escape(&self.tenant),
            self.op.name(),
            json::escape(&self.algo),
            self.states,
            self.time_ms,
            self.parallelism,
            self.rows,
            self.seed,
            self.rounds,
            self.warm,
            json::escape(&self.workflow),
        )
    }
}

/// A response envelope.
#[derive(Debug, Clone)]
pub struct Response {
    /// Correlation id echoed from the request.
    pub id: String,
    /// Typed outcome code.
    pub code: Code,
    /// Canonical payload (empty unless `code` is [`Code::Ok`]).
    pub body: String,
    /// Observational metadata as pre-rendered JSON object text (empty =
    /// no meta). Outside the determinism contract.
    pub meta: String,
    /// Human-readable error (empty unless `code` is an error/rejection).
    pub error: String,
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
        }
    }

    /// Render as one wire line (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = format!(
            "{{\"id\":\"{}\",\"code\":{},\"status\":\"{}\"",
            json::escape(&self.id),
            self.code.as_u16(),
            self.code.status()
        );
        if self.code == Code::Ok {
            out.push_str(",\"body\":\"");
            out.push_str(&json::escape(&self.body));
            out.push('"');
            if !self.meta.is_empty() {
                out.push_str(",\"meta\":");
                out.push_str(&self.meta);
            }
        } else {
            out.push_str(",\"error\":\"");
            out.push_str(&json::escape(&self.error));
            out.push('"');
        }
        out.push('}');
        out
    }

    /// Parse one response line.
    pub fn parse(line: &str) -> Result<Response, String> {
        let v = json::parse(line)?;
        let code_num = v
            .get("code")
            .and_then(Value::as_u64)
            .ok_or("missing numeric field `code`")?;
        let code =
            Code::from_u16(code_num as u16).ok_or_else(|| format!("unknown code {code_num}"))?;
        let field = |key: &str| v.get(key).and_then(Value::as_str).unwrap_or("").to_owned();
        // Meta is kept as raw text for display; re-rendering the parsed
        // value is fine because meta is outside the byte contract.
        let meta = match v.get("meta") {
            Some(m) => render_value(m),
            None => String::new(),
        };
        Ok(Response {
            id: field("id"),
            code,
            body: field("body"),
            meta,
            error: field("error"),
        })
    }
}

/// Re-render a parsed value (used only for meta display, never for the
/// canonical body).
fn render_value(v: &Value) -> String {
    match v {
        Value::Null => "null".to_owned(),
        Value::Bool(b) => b.to_string(),
        Value::Int(n) => n.to_string(),
        Value::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        Value::Str(s) => format!("\"{}\"", json::escape(s)),
        Value::Arr(xs) => {
            let items: Vec<String> = xs.iter().map(render_value).collect();
            format!("[{}]", items.join(","))
        }
        Value::Obj(m) => {
            let items: Vec<String> = m
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", json::escape(k), render_value(v)))
                .collect();
            format!("{{{}}}", items.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
