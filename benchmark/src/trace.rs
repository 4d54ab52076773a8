//! Harness-side tracing: spans recorded *around* calls into the layers'
//! public functions, kept in memory and written out when the run ends.
//!
//! The program under test is not instrumented (in-program spans are a
//! later issue); a layer is visible exactly where the harness calls into
//! it. A layer's self time is its span minus the time its child spans
//! cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `parent` indexes into the owning tracer's span
/// list; spans of one op share `op_id`.
#[derive(Debug, Clone)]
pub struct Span {
    pub op_id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder. Disabled, `enter`/`exit` are one branch
/// each, so the untraced run shares the traced run's code path.
#[derive(Debug)]
pub struct Tracer {
    pub enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Token returned by [`Tracer::enter`]; hand it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recorder for another thread, on this tracer's clock.
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            origin: self.origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Take a forked recorder's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, op_id: u32, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            op_id,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, open: Open) {
        if let Open(Some(idx)) = open {
            self.spans[idx].end_ns = self.now_ns();
            // Spans close innermost-first; a stage that bailed out with `?`
            // leaves its span open, and closing an ancestor closes it too.
            while let Some(top) = self.stack.pop() {
                if top == idx {
                    break;
                }
            }
        }
    }

    /// Record a span whose duration was reported by the program (the
    /// server's `meta.elapsed_us`), ending where the enclosing span ends.
    pub fn synthetic(&mut self, op_id: u32, name: &'static str, parent: Open, dur_ns: u64) {
        if let Open(Some(p)) = parent {
            let end_ns = self.spans[p].end_ns;
            self.spans.push(Span {
                op_id,
                name,
                start_ns: end_ns.saturating_sub(dur_ns).max(self.spans[p].start_ns),
                end_ns,
                parent: Some(p),
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Per-(root, name) totals: calls, total ns, self ns (span minus
    /// children). A tracer may hold more than one kind of root span (the
    /// server workloads record client-side `op`s and in-process
    /// `replay`s); each phase belongs to the root kind it descends from.
    pub fn phases(&self) -> Vec<Phase> {
        let mut child_ns = vec![0u64; self.spans.len()];
        // Parents are recorded before their children, so one forward walk
        // resolves every span's root.
        let mut root_of: Vec<usize> = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            match s.parent {
                Some(p) => {
                    child_ns[p] += s.dur_ns();
                    root_of.push(root_of[p]);
                }
                None => root_of.push(i),
            }
        }
        let mut index: BTreeMap<(&'static str, &'static str), usize> = BTreeMap::new();
        let mut phases: Vec<Phase> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let root = self.spans[root_of[i]].name;
            let at = *index.entry((root, s.name)).or_insert_with(|| {
                phases.push(Phase {
                    root,
                    name: s.name,
                    calls: 0,
                    total_ns: 0,
                    self_ns: 0,
                    is_root: s.parent.is_none(),
                });
                phases.len() - 1
            });
            phases[at].calls += 1;
            phases[at].total_ns += s.dur_ns();
            phases[at].self_ns += s.dur_ns().saturating_sub(child_ns[i]);
        }
        phases
    }

    /// The JobInsight-shaped phase table, one block per root kind: stage,
    /// calls, total ms, self ms and self time as a share of that root
    /// kind's total time.
    pub fn phase_table(&self, title: &str) -> String {
        let phases = self.phases();
        let mut out = String::new();
        for root in phases.iter().filter(|p| p.is_root) {
            let _ = writeln!(out, "phase table: {title} / {}", root.name);
            let _ = writeln!(
                out,
                "  {:<28} {:>8} {:>12} {:>12} {:>9}",
                "stage", "calls", "total ms", "self ms", "% of op"
            );
            for p in phases.iter().filter(|p| p.root == root.name) {
                let _ = writeln!(
                    out,
                    "  {:<28} {:>8} {:>12.2} {:>12.2} {:>8.1}%",
                    if p.is_root {
                        p.name.to_owned()
                    } else {
                        format!("  {}", p.name)
                    },
                    p.calls,
                    p.total_ns as f64 / 1e6,
                    p.self_ns as f64 / 1e6,
                    100.0 * p.self_ns as f64 / (root.total_ns as f64).max(1.0),
                );
            }
        }
        out
    }

    /// Self time of the spans called `name` as a share of the total time
    /// of the root kind they descend from.
    pub fn self_share(&self, name: &str) -> f64 {
        let phases = self.phases();
        let Some(phase) = phases.iter().find(|p| p.name == name) else {
            return 0.0;
        };
        let root_ns: u64 = phases
            .iter()
            .filter(|p| p.is_root && p.name == phase.root)
            .map(|p| p.total_ns)
            .sum();
        phase.self_ns as f64 / (root_ns as f64).max(1.0)
    }

    /// Every span as a JSON array (`op_id`, `name`, `start_ns`, `end_ns`,
    /// `parent`; `parent` is an index into the array or `null`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"op_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.op_id, s.name, s.start_ns, s.end_ns, parent
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}

/// One row of the phase table.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Name of the root span kind this phase descends from.
    pub root: &'static str,
    pub name: &'static str,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Spans of this name have no parent (they are the ops themselves).
    pub is_root: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true);
        let op = t.enter(0, "op");
        let child = t.enter(0, "child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(child);
        t.exit(op);
        let phases = t.phases();
        let (op, child) = (&phases[0], &phases[1]);
        assert!(op.is_root && !child.is_root);
        assert_eq!(op.self_ns, op.total_ns - child.total_ns);
        assert!(t.self_share("child") > 0.5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let op = t.enter(0, "op");
        t.exit(op);
        assert!(t.spans().is_empty());
    }
}
