//! One workload, one process: set up, time whole passes until the
//! measuring time is spent, check the outputs, report.

use std::path::PathBuf;
use std::time::Instant;

use crate::spec::{MetricSpec, Spec};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, Metrics, Options, PassResult};

/// Set-up is repeated and its median reported, so a later change that
/// moves work into set-up shows, and one slow set-up does not: at least
/// `SETUP_REPS.0` times, and — a set-up of a few milliseconds is the
/// noisiest thing this benchmark times — up to `SETUP_REPS.1` times while
/// the repetitions have taken less than `SETUP_BUDGET_S` together.
const SETUP_REPS: (usize, usize) = (3, 41);
const SETUP_BUDGET_S: f64 = 1.0;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub corrupt_reference: bool,
}

/// What one run measured, in the shape the driver's contract asks for.
#[derive(Debug)]
pub struct RunOutcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Exactly the metrics `BENCHMARK.json` declares for this kind of
    /// run, in its order: (name, value, unit).
    pub metrics: Vec<(String, f64, String)>,
    pub ops_per_pass: usize,
    pub passes: usize,
    /// Human-readable lines: notes on failed checks, the phase table.
    pub report: String,
}

/// Scratch directory inside the checkout, removed when the run ends. The
/// engine's spill files go wherever `TMPDIR` points, so it points here:
/// the benchmark reads and writes only inside its checkout.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Result<Scratch, String> {
        let dir = std::env::current_dir()
            .map_err(|e| format!("current directory: {e}"))?
            .join(workloads::out_dir())
            .join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        // Set before any thread exists.
        std::env::set_var("TMPDIR", &dir);
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// The passes of one kind (untraced or traced).
struct Passes {
    wall_s: Vec<f64>,
    /// Fastest latency each op showed in any of these passes.
    best_ms: Vec<f64>,
}

impl Passes {
    fn new() -> Passes {
        Passes {
            wall_s: Vec::new(),
            best_ms: Vec::new(),
        }
    }

    fn push(&mut self, pass: &PassResult) {
        self.wall_s.push(pass.wall_s);
        if self.best_ms.is_empty() {
            self.best_ms = pass.lat_ms.clone();
        } else if self.best_ms.len() == pass.lat_ms.len() {
            for (best, ms) in self.best_ms.iter_mut().zip(&pass.lat_ms) {
                *best = best.min(*ms);
            }
        }
    }
}

/// Tracing overhead: traced over untraced latency, op by op, each side at
/// its fastest pass, reduced by the median — whole passes drift by more
/// than tracing costs, and a burst that slows a stretch of one pass must
/// not read as overhead (or as negative overhead).
fn overhead_share(plain: &Passes, traced: &Passes) -> f64 {
    if plain.best_ms.len() != traced.best_ms.len() || plain.best_ms.is_empty() {
        let (with, without) = (stats::median(&traced.wall_s), stats::median(&plain.wall_s));
        return (with - without) / without.max(1e-9);
    }
    let ratios: Vec<f64> = plain
        .best_ms
        .iter()
        .zip(&traced.best_ms)
        .map(|(without, with)| with / without.max(1e-9))
        .collect();
    stats::median(&ratios) - 1.0
}

/// Pick the declared metrics out of what was measured. A declared
/// per-layer metric the workload does not exercise reads 0; an
/// undeclared measurement, or a missing end-to-end one, is an error.
fn select(
    declared: &[MetricSpec],
    mut measured: Metrics,
    all_required: bool,
) -> Result<Vec<(String, f64, String)>, String> {
    let mut out = Vec::with_capacity(declared.len());
    for m in declared {
        let value = match measured.remove(&m.name) {
            Some(v) if v.is_finite() => v,
            Some(v) => return Err(format!("metric `{}` is not a finite number: {v}", m.name)),
            None if all_required => return Err(format!("metric `{}` was not measured", m.name)),
            None => 0.0,
        };
        out.push((m.name.clone(), value, m.unit.clone()));
    }
    match measured.keys().next() {
        Some(extra) => Err(format!(
            "measured `{extra}`, which BENCHMARK.json does not declare"
        )),
        None => Ok(out),
    }
}

pub fn measure(spec: &Spec, args: &RunArgs) -> Result<RunOutcome, String> {
    let _scratch = Scratch::create()?;
    let opts = Options {
        seed: args.seed,
        corrupt_reference: args.corrupt_reference,
    };

    let mut setup_s: Vec<f64> = Vec::with_capacity(SETUP_REPS.1);
    let mut workload = None;
    while setup_s.len() < SETUP_REPS.0
        || (setup_s.len() < SETUP_REPS.1 && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // Tearing the previous one down (a daemon drain) is not set-up.
        drop(workload.take());
        let started = Instant::now();
        workload = Some(workloads::setup(&args.workload, opts)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.ok_or("no set-up ran")?;

    // Timed phase: whole passes until the measuring time is spent. A
    // traced run alternates untraced and traced passes, so both see the
    // same machine and their difference is the tracing overhead.
    let mut tracer = Tracer::new(false);
    let (mut plain, mut traced) = (Passes::new(), Passes::new());
    let (mut attempted, mut failed, mut timed_s) = (0u64, 0u64, 0.0f64);
    let mut peak_rss = None;
    loop {
        tracer.enabled = args.trace && (plain.wall_s.len() > traced.wall_s.len());
        let pass = workload.pass(&mut tracer);
        attempted += workload.ops_per_pass() as u64;
        failed += pass.failed;
        timed_s += pass.wall_s;
        // Read after set-up and one pass: the same work on every machine,
        // however many passes fit into the measuring time.
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mb()?);
        }
        if tracer.enabled {
            &mut traced
        } else {
            &mut plain
        }
        .push(&pass);
        // A traced run ends on a traced pass: as many of each kind.
        let paired = !args.trace || traced.wall_s.len() == plain.wall_s.len();
        if timed_s >= args.seconds && paired {
            break;
        }
    }
    let peak_rss = peak_rss.unwrap_or(0.0);

    let mut report = String::new();
    let mut check = workload.check();
    let mut measured = Metrics::new();
    if args.trace {
        tracer.enabled = true;
        let replayed = workload.layer_metrics(&mut tracer, &mut measured);
        check.checked += replayed.checked;
        check.failed += replayed.failed;
        check.notes.extend(replayed.notes);
        measured.insert(
            "trace.overhead_share".to_owned(),
            overhead_share(&plain, &traced),
        );
        report.push_str(&tracer.phase_table(&args.workload));
        let path = workloads::out_dir().join(format!("trace-{}.json", args.workload));
        let dump = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"spans\":{}}}\n",
            args.workload,
            args.seed,
            tracer.to_json()
        );
        std::fs::write(&path, dump).map_err(|e| format!("write {}: {e}", path.display()))?;
        report.push_str(&format!("spans written to {}\n", path.display()));
    } else {
        measured.insert("setup_s".to_owned(), stats::median(&setup_s));
        // Each op at its fastest pass (see README, "Why best-of-passes").
        let busy_s = plain.best_ms.iter().sum::<f64>() / 1e3;
        measured.insert(
            "op_latency_ms_p50".to_owned(),
            stats::percentile_of(&plain.best_ms, 0.50),
        );
        measured.insert(
            "op_latency_ms_p95".to_owned(),
            stats::percentile_of(&plain.best_ms, 0.95),
        );
        measured.insert(
            "ops_per_s".to_owned(),
            (workload.clients() * plain.best_ms.len()) as f64 / busy_s.max(1e-9),
        );
        measured.insert("peak_rss_mb".to_owned(), peak_rss);
        measured.insert("plan_cost_ratio".to_owned(), workload.plan_cost_ratio());
    }
    failed += check.failed;
    for note in check.notes.iter().take(20) {
        report.push_str(&format!("FAILED CHECK: {note}\n"));
    }
    report.push_str(&format!(
        "{}: {} passes × {} ops, {:.1} s timed, {} output checks, {} failed\n",
        args.workload,
        plain.wall_s.len() + traced.wall_s.len(),
        workload.ops_per_pass(),
        timed_s,
        check.checked,
        failed
    ));

    let declared = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    Ok(RunOutcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: select(declared, measured, !args.trace)?,
        ops_per_pass: workload.ops_per_pass(),
        passes: plain.wall_s.len() + traced.wall_s.len(),
        report,
    })
}

impl RunOutcome {
    /// The one-line result object the driver reads.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Side information for the suite runner (never the last line).
    pub fn info_line(&self) -> String {
        format!(
            "info {{\"ops_per_pass\": {}, \"passes\": {}, \"samples\": {}}}",
            self.ops_per_pass,
            self.passes,
            self.ops_per_pass * self.passes
        )
    }

    /// Every metric by name, with its unit. Rows that read exactly 0 —
    /// per-layer metrics of layers the workload does not exercise — are
    /// counted, not listed (the result line carries them all).
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in self.metrics.iter().filter(|m| m.1 != 0.0) {
            out.push_str(&format!("  {name:<36} {value:>16.4} {unit}\n"));
        }
        let zeros = self.metrics.iter().filter(|m| m.1 == 0.0).count();
        if zeros > 0 {
            out.push_str(&format!("  ({zeros} more metrics read 0)\n"));
        }
        out
    }
}
