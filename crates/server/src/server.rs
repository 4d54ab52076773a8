//! The daemon: accept loop, connection handlers, admission and the
//! graceful-drain shutdown protocol.
//!
//! Thread layout:
//!
//! * one **listener** thread accepting connections;
//! * one detached **connection** thread per client, reading request lines
//!   and answering each one itself: control ops (`ping`/`stats`/`shutdown`)
//!   at once, job ops while holding one of `workers` job slots
//!   ([`Admission`]). A job runs on the thread that read its line; nothing
//!   is handed to another thread and back.
//!
//! A job that panics is caught on its connection thread: it answers a typed
//! `500` carrying its request id and frees its slot, and the registry's
//! locks (see `state::relock`) keep serving later requests.
//!
//! Shutdown protocol: `shutdown` (the op or the method) closes admission —
//! new jobs are refused with a typed `503` while every job already running
//! or in line for a slot still runs to completion — then unblocks the
//! listener with a self-connection. `join` waits for the listener, then for
//! admission to go idle, then writes the drain report. Clients waiting on
//! an admitted job therefore always get their response; clients arriving
//! after the drain started get a typed rejection, never a dropped
//! connection.

use std::any::Any;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::admission::{Admission, Rejected};
use crate::job;
use crate::proto::{Code, Op, Request, Response};
use crate::state::{Registry, ServerConfig};

/// Counters for the drain report.
#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    completed: AtomicU64,
    rejected_full: AtomicU64,
    rejected_draining: AtomicU64,
}

/// What the drain looked like, reported by [`Server::join`].
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Jobs that got a job slot over the server's lifetime (a place in
    /// line always leads to one).
    pub accepted: u64,
    /// Jobs that ran to completion, a caught panic included (equals
    /// `accepted` after a clean drain — admitted work is never dropped).
    pub completed: u64,
    /// Submissions refused by admission control (`429`).
    pub rejected_full: u64,
    /// Submissions refused during the drain (`503`).
    pub rejected_draining: u64,
}

impl DrainReport {
    fn render(&self) -> String {
        format!(
            "drain complete: accepted={} completed={} rejected_full={} rejected_draining={}\n",
            self.accepted, self.completed, self.rejected_full, self.rejected_draining
        )
    }
}

/// What the listener and every connection thread share.
struct Shared {
    registry: Arc<Registry>,
    admission: Admission,
    counters: Counters,
    addr: SocketAddr,
}

impl Shared {
    /// Begin the graceful drain. Idempotent. Admission closes first, so no
    /// job slips in after the listener stops; the self-connection that
    /// unblocks the accept loop is answered `503` like any late arrival.
    fn begin_drain(&self) {
        if self.admission.close() {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// A running server instance.
pub struct Server {
    shared: Arc<Shared>,
    listener_thread: JoinHandle<()>,
}

/// Start a server for `cfg`. Binds, spawns the listener and returns
/// immediately; `local_addr` has the resolved port.
pub fn spawn(cfg: ServerConfig) -> std::io::Result<Server> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        admission: Admission::new(cfg.workers, cfg.queue_depth),
        registry: Arc::new(Registry::new(cfg)),
        counters: Counters::default(),
        addr,
    });

    let listener_thread = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("etlopt-listener".to_owned())
            .spawn(move || {
                for stream in listener.incoming() {
                    let Ok(mut stream) = stream else { continue };
                    // Every reply is one whole-line write: Nagle has
                    // nothing to coalesce and could only delay its tail.
                    let _ = stream.set_nodelay(true);
                    if shared.admission.is_closed() {
                        // This accept may be the shutdown self-connection
                        // *or* a real client that won the race against it:
                        // either way, send the typed 503 before the
                        // listener exits — a late arrival is never
                        // silently dropped.
                        let refusal = Response::fail(
                            "",
                            Code::Draining,
                            "server draining for shutdown".to_owned(),
                        );
                        let _ = write_line(&mut stream, refusal.render());
                        break;
                    }
                    let shared = Arc::clone(&shared);
                    // Detached: the handler lives as long as its client.
                    let _ = std::thread::Builder::new()
                        .name("etlopt-conn".to_owned())
                        .spawn(move || handle_connection(stream, &shared));
                }
            })?
    };

    Ok(Server {
        shared,
        listener_thread,
    })
}

impl Server {
    /// The bound address (resolved port included).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The process-wide registry (tests inspect shared-state counters).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.shared.registry
    }

    /// Begin the graceful drain: refuse new jobs, let admitted jobs
    /// finish, unblock the listener. Idempotent.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Wait for the drain to be initiated (by [`Server::shutdown`] or
    /// the wire `shutdown` op), let it complete, then write the drain
    /// log (if configured) and return the report. A daemon that should
    /// serve until told otherwise calls `join` directly; a test that
    /// wants to stop now calls `shutdown` first.
    pub fn join(self) -> DrainReport {
        let _ = self.listener_thread.join();
        let shared = &self.shared;
        shared.admission.wait_idle();
        let counters = &shared.counters;
        let report = DrainReport {
            accepted: counters.accepted.load(Ordering::Relaxed),
            completed: counters.completed.load(Ordering::Relaxed),
            rejected_full: counters.rejected_full.load(Ordering::Relaxed),
            rejected_draining: counters.rejected_draining.load(Ordering::Relaxed),
        };
        if let Some(path) = &shared.registry.config().drain_log {
            let _ = std::fs::write(path, report.render());
        }
        report
    }
}

/// Cap on one request line. The DSL for even the large generated band is
/// a few KiB; the cap only exists so one client cannot make the server
/// buffer an unbounded line. Oversized lines get a typed `400` and the
/// connection closes (there is no way to resynchronize mid-line).
const MAX_LINE_BYTES: usize = 1 << 20;

/// How one bounded line read ended.
enum LineRead {
    /// A complete line (newline stripped, like `BufRead::lines`).
    Line(String),
    /// The line exceeded the byte cap before its newline arrived.
    TooLong,
    /// Clean end of stream (or an unrecoverable read error).
    Eof,
}

/// Read one `\n`-terminated line without ever buffering more than `max`
/// bytes. `BufRead::lines` parity otherwise: trailing `\r` is stripped,
/// a final unterminated chunk counts as a line, invalid UTF-8 ends the
/// connection.
fn read_line_bounded<R: BufRead>(reader: &mut R, max: usize) -> LineRead {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(_) => return LineRead::Eof,
        };
        if chunk.is_empty() {
            if buf.is_empty() {
                return LineRead::Eof;
            }
            break;
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if buf.len() + pos > max {
                    return LineRead::TooLong;
                }
                buf.extend_from_slice(&chunk[..pos]);
                reader.consume(pos + 1);
                break;
            }
            None => {
                let len = chunk.len();
                if buf.len() + len > max {
                    return LineRead::TooLong;
                }
                buf.extend_from_slice(chunk);
                reader.consume(len);
            }
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    match String::from_utf8(buf) {
        Ok(line) => LineRead::Line(line),
        Err(_) => LineRead::Eof,
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let Ok(reader_stream) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader_stream);
    loop {
        let line = match read_line_bounded(&mut reader, MAX_LINE_BYTES) {
            LineRead::Line(line) => line,
            LineRead::Eof => break,
            LineRead::TooLong => {
                let refusal = Response::fail(
                    "",
                    Code::BadRequest,
                    format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                );
                let _ = write_line(&mut stream, refusal.render());
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = match Request::parse(&line) {
            Err(e) => Response::fail("", Code::BadRequest, e),
            Ok(req) if req.op.is_job() => {
                run_admitted(shared, &req, || job::run_request(&shared.registry, &req))
            }
            Ok(req) => {
                if req.op == Op::Shutdown {
                    shared.begin_drain();
                }
                job::run_request(&shared.registry, &req)
            }
        };
        if write_line(&mut stream, response.render()).is_err() {
            break;
        }
    }
}

/// Run one job op under admission: take a slot (or answer the typed
/// refusal), run `job` under `catch_unwind`, and free the slot before the
/// caller writes the reply, so a slow reader never holds one. `completed`
/// is counted while the slot is still held, so a drain that has seen
/// admission go idle also sees every admitted job counted. A job that
/// panics answers a typed `500` carrying the request's id.
fn run_admitted(shared: &Shared, req: &Request, job: impl FnOnce() -> Response) -> Response {
    let counters = &shared.counters;
    let slot = match shared.admission.enter() {
        Ok(slot) => slot,
        Err(Rejected::Full(cap)) => {
            counters.rejected_full.fetch_add(1, Ordering::Relaxed);
            return Response::fail(
                &req.id,
                Code::QueueFull,
                format!("queue full (admission cap {cap}); retry later"),
            );
        }
        Err(Rejected::Draining) => {
            counters.rejected_draining.fetch_add(1, Ordering::Relaxed);
            return Response::fail(
                &req.id,
                Code::Draining,
                "server draining for shutdown".to_owned(),
            );
        }
    };
    counters.accepted.fetch_add(1, Ordering::Relaxed);
    let response = catch_unwind(AssertUnwindSafe(job)).unwrap_or_else(|payload| {
        Response::fail(
            &req.id,
            Code::Internal,
            format!("job panicked: {}", panic_message(&*payload)),
        )
    });
    counters.completed.fetch_add(1, Ordering::Relaxed);
    drop(slot);
    response
}

/// The text a panic was raised with, when it was raised with text.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-text panic payload")
}

/// Send `line` and its newline in one `write_all`. A newline written on
/// its own after a long line leaves a 1-byte segment that Nagle holds
/// until the client's delayed ACK, ≈ 40 ms per reply.
fn write_line<W: Write>(writer: &mut W, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared(workers: usize) -> Shared {
        Shared {
            registry: Arc::new(Registry::new(ServerConfig::default())),
            admission: Admission::new(workers, 1),
            counters: Counters::default(),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        }
    }

    #[test]
    fn a_panicking_job_answers_500_frees_its_slot_and_the_next_job_runs() {
        let shared = shared(1);
        let mut req =
            Request::parse(r#"{"id":"boom-1","op":"optimize","workflow":"x","algo":"beam"}"#)
                .unwrap();
        let resp = run_admitted(&shared, &req, || panic!("a job went wrong"));
        assert_eq!(resp.code, Code::Internal);
        assert_eq!(resp.id, "boom-1");
        assert!(resp.error.contains("a job went wrong"), "{}", resp.error);
        assert_eq!(shared.admission.load(), (0, 0), "the slot was freed");

        req.id = "after-1".to_owned();
        req.workflow = etlopt_core::text::render(&etlopt_workload::scenarios::fig1()).unwrap();
        let resp = run_admitted(&shared, &req, || job::run_request(&shared.registry, &req));
        assert_eq!(resp.code, Code::Ok, "{}", resp.error);
        assert_eq!(resp.id, "after-1");
        let c = &shared.counters;
        assert_eq!(c.accepted.load(Ordering::Relaxed), 2);
        assert_eq!(c.completed.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn refusals_are_typed_and_counted() {
        let shared = shared(1);
        let req = Request::parse(r#"{"id":"r","op":"optimize","workflow":"x"}"#).unwrap();
        assert!(shared.admission.close());
        let resp = run_admitted(&shared, &req, || unreachable!("a refused job never runs"));
        assert_eq!((resp.code, resp.id.as_str()), (Code::Draining, "r"));
        let c = &shared.counters;
        assert_eq!(c.rejected_draining.load(Ordering::Relaxed), 1);
        assert_eq!(c.accepted.load(Ordering::Relaxed), 0);
    }

    fn read_all(input: &[u8], max: usize) -> Vec<Result<String, ()>> {
        let mut reader = std::io::Cursor::new(input.to_vec());
        let mut out = Vec::new();
        loop {
            match read_line_bounded(&mut reader, max) {
                LineRead::Line(line) => out.push(Ok(line)),
                LineRead::TooLong => {
                    out.push(Err(()));
                    break;
                }
                LineRead::Eof => break,
            }
        }
        out
    }

    #[test]
    fn bounded_reader_matches_lines_semantics() {
        assert_eq!(
            read_all(b"a\nbb\r\n\nfinal", 1024),
            vec![
                Ok("a".to_owned()),
                Ok("bb".to_owned()),
                Ok(String::new()),
                Ok("final".to_owned()),
            ]
        );
        assert_eq!(read_all(b"", 1024), Vec::<Result<String, ()>>::new());
    }

    #[test]
    fn bounded_reader_rejects_oversized_lines() {
        // Terminated but over the cap.
        let mut long = vec![b'x'; 64];
        long.push(b'\n');
        assert_eq!(read_all(&long, 16), vec![Err(())]);
        // Unterminated flood: must reject after `max`, not buffer it all.
        assert_eq!(read_all(&vec![b'y'; 4096], 16), vec![Err(())]);
        // Exactly at the cap is fine.
        assert_eq!(read_all(b"abcd\n", 4), vec![Ok("abcd".to_owned())]);
    }

    /// A writer that records every `write` call it gets.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_reply_is_one_write_newline_included_at_any_size() {
        for len in [100, 9 << 10, 100 << 10] {
            let resp = Response::ok(&"x".repeat(len), "{}".to_owned(), String::new());
            let line = resp.render();
            let mut out = CountingWriter::default();
            write_line(&mut out, line.clone()).unwrap();
            assert_eq!(out.writes, 1, "{len}-byte id");
            assert_eq!(out.bytes, format!("{line}\n").into_bytes());
        }
    }
}
