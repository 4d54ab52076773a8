//! Client CLI for the optimizer daemon.
//!
//! ```text
//! etlopt-client submit   --addr HOST:PORT (--workflow FILE | --text DSL)
//!                        [--op optimize|execute|adaptive] [--tenant NAME]
//!                        [--algo es|hs|hs-greedy|beam] [--states N]
//!                        [--time-ms N] [--parallelism N] [--rows N]
//!                        [--seed N] [--rounds N] [--cold] [--id ID]
//! etlopt-client oneshot  (--workflow FILE | --text DSL) [same knobs]
//! etlopt-client ping     --addr HOST:PORT
//! etlopt-client stats    --addr HOST:PORT
//! etlopt-client shutdown --addr HOST:PORT
//! ```
//!
//! `submit` sends one request over TCP and prints the response envelope.
//! `oneshot` runs the *same* request through the same job path against a
//! fresh in-process registry — no server, no sharing — and prints the
//! envelope it would have produced: the reference for the protocol's
//! byte-identity contract (`body` matches `submit`'s byte-for-byte).
//! Exit code 1 on any non-`ok` envelope or transport failure.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;

use etlopt_server::{run_request, Code, Flags, Op, Registry, Request, Response, ServerConfig};

fn parse_op(s: &str) -> Result<Op, String> {
    match s {
        "optimize" => Ok(Op::Optimize),
        "execute" => Ok(Op::Execute),
        "adaptive" => Ok(Op::Adaptive),
        other => Err(format!(
            "unknown op `{other}` (expected optimize, execute or adaptive)"
        )),
    }
}

/// Build the request from the shared knob flags.
fn build_request(flags: &mut Flags, op_default: Op) -> Result<Request, String> {
    let workflow = match (flags.take("--workflow"), flags.take("--text")) {
        (Some(path), None) => {
            std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?
        }
        (None, Some(text)) => text,
        (None, None) => return Err("one of --workflow FILE or --text DSL is required".into()),
        (Some(_), Some(_)) => return Err("--workflow and --text are mutually exclusive".into()),
    };
    let op = match flags.take("--op") {
        Some(s) => parse_op(&s)?,
        None => op_default,
    };
    Ok(Request {
        id: flags.take("--id").unwrap_or_else(|| "cli".to_owned()),
        tenant: flags
            .take("--tenant")
            .unwrap_or_else(|| "public".to_owned()),
        op,
        algo: flags.take("--algo").unwrap_or_else(|| "hs".to_owned()),
        states: flags.take_parsed("--states", 600)?,
        time_ms: flags.take_parsed("--time-ms", 60_000)?,
        parallelism: flags.take_parsed("--parallelism", 1)?,
        rows: flags.take_parsed("--rows", 64)?,
        seed: flags.take_parsed("--seed", 2005)?,
        rounds: flags.take_parsed("--rounds", 6)?,
        warm: !flags.take_flag("--cold"),
        workflow,
    })
}

/// Send one request line, read one response line.
fn roundtrip(addr: &str, line: &str) -> Result<Response, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    writer
        .write_all(format!("{line}\n").as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(|e| format!("receive: {e}"))?;
    if reply.is_empty() {
        return Err("server closed the connection without a response".into());
    }
    Response::parse(reply.trim_end())
}

fn control(addr: &str, op: &str) -> Result<Response, String> {
    roundtrip(addr, &format!("{{\"id\":\"cli\",\"op\":\"{op}\"}}"))
}

fn report(resp: &Response) -> ExitCode {
    println!("{}", resp.render());
    if resp.code == Code::Ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run() -> Result<ExitCode, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return Err("usage: etlopt-client submit|oneshot|ping|stats|shutdown …".into());
    }
    let command = args.remove(0);
    let mut flags = Flags::new(args);
    match command.as_str() {
        "submit" => {
            let addr = flags.take("--addr").ok_or("--addr HOST:PORT is required")?;
            let req = build_request(&mut flags, Op::Optimize)?;
            flags.ensure_empty()?;
            Ok(report(&roundtrip(&addr, &req.render())?))
        }
        "oneshot" => {
            let req = build_request(&mut flags, Op::Optimize)?;
            flags.ensure_empty()?;
            // Fresh registry, no sharing: the byte-identity reference.
            let registry = Registry::new(ServerConfig::default());
            Ok(report(&run_request(&registry, &req)))
        }
        "ping" | "stats" | "shutdown" => {
            let addr = flags.take("--addr").ok_or("--addr HOST:PORT is required")?;
            flags.ensure_empty()?;
            Ok(report(&control(&addr, &command)?))
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("etlopt-client: {e}");
            ExitCode::FAILURE
        }
    }
}
