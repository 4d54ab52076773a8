//! The optimizer-as-a-service daemon.
//!
//! ```text
//! etlopt-server [--addr HOST:PORT] [--workers N] [--queue-depth N]
//!               [--max-states N] [--max-time-ms N] [--max-rows N]
//!               [--max-rounds N] [--store-dir DIR] [--drain-log FILE]
//! ```
//!
//! Binds, prints the resolved address as `listening on ADDR` (clients
//! and test harnesses parse this line), then serves until a client
//! sends the `shutdown` op. Shutdown drains: every admitted job
//! completes and gets its response; late arrivals are refused with a
//! typed `503`. The drain report goes to stdout and, with
//! `--drain-log`, to the given file.

use std::process::ExitCode;

use etlopt_server::{spawn, Flags, ServerConfig};

fn run() -> Result<ExitCode, String> {
    let mut flags = Flags::new(std::env::args().skip(1).collect());
    let defaults = ServerConfig::default();
    let cfg = ServerConfig {
        addr: flags.take("--addr").unwrap_or(defaults.addr),
        workers: flags.take_parsed("--workers", defaults.workers)?,
        queue_depth: flags.take_parsed("--queue-depth", defaults.queue_depth)?,
        max_states: flags.take_parsed("--max-states", defaults.max_states)?,
        max_time_ms: flags.take_parsed("--max-time-ms", defaults.max_time_ms)?,
        max_rows: flags.take_parsed("--max-rows", defaults.max_rows)?,
        max_rounds: flags.take_parsed("--max-rounds", defaults.max_rounds)?,
        store_dir: flags.take("--store-dir").map(Into::into),
        drain_log: flags.take("--drain-log").map(Into::into),
        ..defaults
    };
    flags.ensure_empty()?;

    let server = spawn(cfg).map_err(|e| format!("bind failed: {e}"))?;
    println!("listening on {}", server.local_addr());
    let report = server.join();
    println!(
        "drain complete: accepted={} completed={} rejected_full={} rejected_draining={}",
        report.accepted, report.completed, report.rejected_full, report.rejected_draining
    );
    if report.completed == report.accepted {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("drain dropped admitted jobs");
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("etlopt-server: {e}");
            ExitCode::FAILURE
        }
    }
}
