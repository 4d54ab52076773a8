//! `compare A.json B.json`: judge B against baseline A by the bounds
//! `BENCHMARK.json` fixed, one row per workload × end-to-end metric.
//!
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `improved` — better by more than the bound;
//! * `unresolved` — the run-to-run spread inside A or B (interquartile
//!   distance over the median, as the PR driver computes it) is itself
//!   wider than the bound, so the two medians cannot be told apart;
//! * `ok` — otherwise.
//!
//! Metrics that are counts or pure functions of the inputs (`spec::EXACT`)
//! are not judged by a bound: the same code on the same seed must
//! reproduce them bit for bit, and a difference is reported as a
//! determinism bug in the program, not as noise.

use std::path::Path;

use crate::spec::{self, Spec};
use crate::stats;
use crate::suite::{self, WorkloadRecord};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Improved,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (Verdict, f64, f64) {
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    let spread = stats::spread(a).max(stats::spread(b));
    // Positive = B is worse, as a share of A.
    let worse = if med_a == 0.0 {
        0.0
    } else if higher_is_better {
        (med_a - med_b) / med_a.abs()
    } else {
        (med_b - med_a) / med_a.abs()
    };
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    (verdict, worse, spread)
}

/// Exact metrics of one workload: (name, values). An end-to-end exact
/// metric contributes every run's value, so repeats are checked too.
fn exact_values(workload: &str, rec: &WorkloadRecord) -> Vec<(String, Vec<f64>)> {
    let e2e = rec.end_to_end.iter().cloned();
    let layer = rec.per_layer.iter().map(|(m, v)| (m.clone(), vec![*v]));
    e2e.chain(layer)
        .filter(|(m, _)| spec::is_exact(workload, m))
        .collect()
}

/// Print the comparison; `Ok(true)` when nothing regressed, no more ops
/// failed than in the baseline, and every exact metric is bit-equal.
pub fn compare(spec: &Spec, a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (suite::load(a_path)?, suite::load(b_path)?);
    // Exact metrics are functions of the seed: only equal seeds compare.
    let same_inputs = a.seed == b.seed;
    let (a, b) = (a.workloads, b.workloads);
    let mut pass = true;
    println!(
        "{:<18} {:<20} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "baseline", "candidate", "worse by", "spread", "bound"
    );
    for (workload, rec_a) in &a {
        let Some((_, rec_b)) = b.iter().find(|(w, _)| w == workload) else {
            println!("{workload:<18} missing from {}", b_path.display());
            pass = false;
            continue;
        };
        for metric in &spec.end_to_end {
            let find = |rec: &WorkloadRecord| {
                rec.end_to_end
                    .iter()
                    .find(|(m, _)| *m == metric.name)
                    .map(|(_, v)| v.clone())
            };
            let (Some(va), Some(vb)) = (find(rec_a), find(rec_b)) else {
                continue;
            };
            if same_inputs && spec::is_exact(workload, &metric.name) {
                continue; // judged bit for bit below
            }
            let bound = metric.bound.unwrap_or(0.0);
            let (verdict, worse, spread) = judge(&va, &vb, metric.higher_is_better, bound);
            println!(
                "{workload:<18} {:<20} {:>14.4} {:>14.4} {:>8.1}% {:>7.1}% {:>6.0}%  {}",
                metric.name,
                stats::median(&va),
                stats::median(&vb),
                100.0 * worse,
                100.0 * spread,
                100.0 * bound,
                verdict.label()
            );
            pass &= verdict != Verdict::Regressed;
        }
        if rec_b.failed > rec_a.failed {
            println!(
                "{workload:<18} failed ops rose from {} to {}  regressed",
                rec_a.failed, rec_b.failed
            );
            pass = false;
        }
        if same_inputs {
            let exact_b = exact_values(workload, rec_b);
            for (metric, va) in exact_values(workload, rec_a) {
                let Some((_, vb)) = exact_b.iter().find(|(m, _)| *m == metric) else {
                    continue;
                };
                let all: Vec<u64> = va.iter().chain(vb).map(|v| v.to_bits()).collect();
                let equal = all.windows(2).all(|w| w[0] == w[1]);
                if !equal {
                    println!(
                        "{workload:<18} {metric:<20} {va:?} vs {vb:?}  DETERMINISM BUG: exact metric differs on equal inputs"
                    );
                    pass = false;
                }
            }
        }
    }
    if !same_inputs {
        println!("seeds differ: exact metrics were judged by their bounds, not bit for bit");
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let base = [10.0, 10.1, 9.9];
        assert_eq!(judge(&base, &[10.5, 10.4, 10.6], false, 0.1).0, Verdict::Ok);
        assert_eq!(
            judge(&base, &[12.0, 12.1, 11.9], false, 0.1).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&base, &[12.0, 12.1, 11.9], true, 0.1).0,
            Verdict::Improved
        );
        // A baseline that cannot agree with itself resolves nothing.
        assert_eq!(
            judge(&[5.0, 10.0, 15.0], &[30.0], false, 0.1).0,
            Verdict::Unresolved
        );
    }
}
