//! The suite: every workload, each in its own child process (so
//! `peak_rss_mb` is per workload), gathered into one result record.
//!
//! A record says where and on what it was taken — hardware threads, CPU
//! model, `rustc -V`, git commit, seed, op and sample counts, wall time
//! of the whole suite — because numbers taken on different boxes must
//! never again be mixed in one file unnoticed.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use etlopt_server::json::{self, Value};

use crate::spec::Spec;
use crate::workloads;

#[derive(Debug, Clone)]
pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    /// Empty = all five.
    pub workloads: Vec<String>,
    /// Also make one `--trace 1` run per workload.
    pub traced: bool,
    /// Untraced runs per workload (more than one lets `compare` see the
    /// run-to-run spread).
    pub repeat: usize,
    pub quick: bool,
    pub corrupt_reference: bool,
}

/// The second seed, so the smoke also shows nothing is tuned to 2005.
pub const QUICK_SEED: u64 = 2006;
pub const DEFAULT_SEED: u64 = 2005;

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `HEAD`, marked when the working tree differs from it.
fn git_commit() -> String {
    let head = command_line("git", &["rev-parse", "HEAD"]);
    match command_line("git", &["status", "--porcelain"]).as_str() {
        "unknown" => head,
        _ => format!("{head}+dirty"),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Run one workload in a child process of this same executable and
/// return its result object and `info` object as JSON text.
fn child(args: &SuiteArgs, workload: &str, trace: bool) -> Result<(String, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.corrupt_reference {
        cmd.arg("--corrupt-reference");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let result = stdout
        .lines()
        .last()
        .filter(|l| l.starts_with('{'))
        .ok_or_else(|| format!("{workload}: child printed no result"))?;
    let info = stdout
        .lines()
        .find_map(|l| l.strip_prefix("info "))
        .unwrap_or("{}");
    Ok((result.to_owned(), info.to_owned()))
}

/// Did the child's result object say `"correct": true`?
fn is_correct(result: &str) -> bool {
    json::parse(result)
        .ok()
        .and_then(|r| r.get("correct").and_then(Value::as_bool))
        .unwrap_or(false)
}

/// `{"result": …, "info": …}` for one child run.
fn run_entry((result, info): (String, String)) -> String {
    format!("{{\"result\": {result}, \"info\": {info}}}")
}

/// Run the suite and write one record per path in `outs`. With more than
/// one, the sets are taken **interleaved** — run by run, alternating which
/// set goes first — so that minutes of drift on a shared box fall on every
/// set alike instead of on the later one. `Ok(false)` if any run was
/// incorrect.
pub fn run(spec: &Spec, args: &SuiteArgs, outs: &[PathBuf]) -> Result<bool, String> {
    let started = Instant::now();
    let names: Vec<String> = if args.workloads.is_empty() {
        spec.workloads.clone()
    } else {
        args.workloads.clone()
    };
    let mut all_correct = true;
    let mut sections: Vec<Vec<String>> = vec![Vec::new(); outs.len()];
    for name in &names {
        if !workloads::NAMES.contains(&name.as_str()) {
            return Err(format!("unknown workload `{name}`"));
        }
        let mut runs: Vec<Vec<String>> = vec![Vec::new(); outs.len()];
        let mut traced = vec!["null".to_owned(); outs.len()];
        let rounds = args.repeat.max(1) + usize::from(args.traced);
        for round in 0..rounds {
            let trace = round == args.repeat.max(1);
            for k in 0..outs.len() {
                let set = (k + round) % outs.len();
                let entry = child(args, name, trace)?;
                all_correct &= is_correct(&entry.0);
                if trace {
                    traced[set] = run_entry(entry);
                } else {
                    runs[set].push(run_entry(entry));
                }
            }
        }
        for (set, section) in sections.iter_mut().enumerate() {
            section.push(format!(
                "    \"{name}\": {{\n      \"runs\": [\n        {}\n      ],\n      \"traced\": {}\n    }}",
                runs[set].join(",\n        "),
                traced[set]
            ));
        }
    }
    for (out, section) in outs.iter().zip(&sections) {
        let record = format!(
            concat!(
                "{{\n",
                "  \"machine_threads\": {},\n",
                "  \"cpu_model\": \"{}\",\n",
                "  \"rustc\": \"{}\",\n",
                "  \"git_commit\": \"{}\",\n",
                "  \"seed\": {},\n",
                "  \"seconds\": {},\n",
                "  \"quick\": {},\n",
                "  \"repeat\": {},\n",
                "  \"suite_wall_s\": {:.1},\n",
                "  \"workloads\": {{\n{}\n  }}\n",
                "}}\n"
            ),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            json::escape(&cpu_model()),
            json::escape(&command_line("rustc", &["-V"])),
            json::escape(&git_commit()),
            args.seed,
            args.seconds,
            args.quick,
            args.repeat.max(1),
            started.elapsed().as_secs_f64(),
            section.join(",\n"),
        );
        if let Some(dir) = out.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(out, &record).map_err(|e| format!("write {}: {e}", out.display()))?;
        println!("result record written to {}", out.display());
    }
    Ok(all_correct)
}

/// One workload of a record: per metric, the values of its untraced
/// runs; per-layer metrics of its traced run; failed-op count.
pub struct WorkloadRecord {
    pub end_to_end: Vec<(String, Vec<f64>)>,
    pub per_layer: Vec<(String, f64)>,
    pub failed: u64,
}

fn metric_values(result: &Value) -> Vec<(String, f64)> {
    result
        .get("metrics")
        .and_then(Value::as_obj)
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

/// A record written by [`run`], as `compare` reads it.
pub struct Record {
    pub seed: u64,
    pub workloads: Vec<(String, WorkloadRecord)>,
}

/// Read a record written by [`run`].
pub fn load(path: &Path) -> Result<Record, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let root = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let workloads = root
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or_else(|| format!("{}: no `workloads` object", path.display()))?;
    let mut out = Vec::new();
    for (name, section) in workloads {
        let mut record = WorkloadRecord {
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            failed: 0,
        };
        let results = |entry: &Value| entry.get("result").cloned();
        if let Some(Value::Arr(runs)) = section.get("runs") {
            for result in runs.iter().filter_map(results) {
                record.failed += result.get("failed").and_then(Value::as_u64).unwrap_or(0);
                for (metric, value) in metric_values(&result) {
                    match record.end_to_end.iter_mut().find(|(m, _)| *m == metric) {
                        Some((_, values)) => values.push(value),
                        None => record.end_to_end.push((metric, vec![value])),
                    }
                }
            }
        }
        if let Some(result) = section.get("traced").and_then(results) {
            record.failed += result.get("failed").and_then(Value::as_u64).unwrap_or(0);
            record.per_layer = metric_values(&result);
        }
        out.push((name.clone(), record));
    }
    Ok(Record {
        seed: root.get("seed").and_then(Value::as_u64).unwrap_or(0),
        workloads: out,
    })
}
