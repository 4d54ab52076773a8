//! Structured search telemetry (zero external dependencies).
//!
//! The paper's experimental section (Tables 1–2) is about how the search
//! *behaved* — states visited, pruning effectiveness, per-phase convergence
//! — not just which state won. This module gives every search run a uniform
//! account of that behaviour:
//!
//! * [`SearchStats`] — flat counters populated by all three algorithms with
//!   one identical schema: state accounting
//!   (`generated = deduplicated + expanded + pruned`), delta-vs-full
//!   evaluation counts, per-generation frontier sizes, move-memo
//!   effectiveness, and transition attempts broken down by rejection rule
//!   ([`Rejections`] — the paper's `$2€` applicability rejections are the
//!   `functionality_violated` counter).
//! * [`Span`] — a monotonic wall-clock span for coarse phase timing.
//!
//! A search reports through its outcome and nothing else: counters are
//! plain integer adds into a run-local collector, and the caller reads them
//! from `SearchOutcome::stats` when the run returns.
//!
//! ## Determinism contract
//!
//! Everything rendered by [`SearchStats::counters_json`] is **bit-identical
//! run to run**: a search counts on one thread, in its deterministic merge
//! order, and `tests/search_determinism.rs` runs every search twice and
//! compares the bytes. Wall-clock spans and move-memo hit/miss counts are
//! *runtime* telemetry — a memo shared across a family's daemon jobs hits
//! on what other jobs inserted — so they are rendered only by
//! [`SearchStats::to_json`] and excluded from the deterministic projection.

use std::collections::HashSet;
use std::time::Instant;

use crate::transition::TransitionError;

/// Transition attempts rejected, broken down by applicability rule — one
/// counter per [`TransitionError`] variant. The `functionality_violated`
/// counter is the paper's `$2€`/`σ(€)` guard (Fig. 5): a swap that would
/// reference an attribute below the function that generates it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Rejections {
    /// `SWA`/`MER` on non-adjacent activities.
    pub not_adjacent: u64,
    /// A designated activity is not unary.
    pub not_unary: u64,
    /// An output fans out to more than one consumer.
    pub multiple_consumers: u64,
    /// Functionality schema violated — the `$2€` case (swap condition 3).
    pub functionality_violated: u64,
    /// Input schema would lose provider attributes (swap condition 4).
    pub provider_violated: u64,
    /// The pair does not commute as a multiset transformation.
    pub not_commutative: u64,
    /// `FAC` on non-homologous activities.
    pub not_homologous: u64,
    /// `FAC`/`DIS` anchor is not a binary activity.
    pub not_binary: u64,
    /// The activity cannot cross this binary operator.
    pub not_distributable: u64,
    /// `SPL` on a non-merged activity.
    pub not_merged: u64,
    /// An underlying graph/schema error surfaced by the rewiring.
    pub graph: u64,
}

impl Rejections {
    /// Count one rejection under the rule that produced `e`.
    pub fn record(&mut self, e: &TransitionError) {
        match e {
            TransitionError::NotAdjacent(..) => self.not_adjacent += 1,
            TransitionError::NotUnary(..) => self.not_unary += 1,
            TransitionError::MultipleConsumers(..) => self.multiple_consumers += 1,
            TransitionError::FunctionalityViolated { .. } => self.functionality_violated += 1,
            TransitionError::ProviderViolated { .. } => self.provider_violated += 1,
            TransitionError::NotCommutative { .. } => self.not_commutative += 1,
            TransitionError::NotHomologous(..) => self.not_homologous += 1,
            TransitionError::NotBinary(..) => self.not_binary += 1,
            TransitionError::NotDistributable { .. } => self.not_distributable += 1,
            TransitionError::NotMerged(..) => self.not_merged += 1,
            TransitionError::Graph(..) => self.graph += 1,
        }
    }

    /// Add every counter of `other` into `self` (the merge of per-item
    /// deltas).
    pub fn merge(&mut self, other: &Rejections) {
        self.not_adjacent += other.not_adjacent;
        self.not_unary += other.not_unary;
        self.multiple_consumers += other.multiple_consumers;
        self.functionality_violated += other.functionality_violated;
        self.provider_violated += other.provider_violated;
        self.not_commutative += other.not_commutative;
        self.not_homologous += other.not_homologous;
        self.not_binary += other.not_binary;
        self.not_distributable += other.not_distributable;
        self.not_merged += other.not_merged;
        self.graph += other.graph;
    }

    /// Total rejections across all rules.
    pub fn total(&self) -> u64 {
        self.as_pairs().iter().map(|(_, v)| v).sum()
    }

    /// `(rule, count)` pairs in a fixed schema order.
    pub fn as_pairs(&self) -> [(&'static str, u64); 11] {
        [
            ("not_adjacent", self.not_adjacent),
            ("not_unary", self.not_unary),
            ("multiple_consumers", self.multiple_consumers),
            ("functionality_violated", self.functionality_violated),
            ("provider_violated", self.provider_violated),
            ("not_commutative", self.not_commutative),
            ("not_homologous", self.not_homologous),
            ("not_binary", self.not_binary),
            ("not_distributable", self.not_distributable),
            ("not_merged", self.not_merged),
            ("graph", self.graph),
        ]
    }
}

/// One timed phase of a search run (wall clock; runtime telemetry only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Phase name (`"search"` for single-phase ES, the Fig. 7 phase names
    /// for HS/HS-Greedy).
    pub phase: &'static str,
    /// Wall-clock nanoseconds the phase took.
    pub nanos: u128,
}

/// A monotonic wall-clock span; [`Span::finish`] records it as a
/// [`PhaseSpan`] on the stats under construction.
#[derive(Debug)]
pub struct Span {
    phase: &'static str,
    started: Instant,
}

impl Span {
    /// Start timing `phase` now.
    pub fn start(phase: &'static str) -> Span {
        Span {
            phase,
            started: Instant::now(),
        }
    }

    /// Stop the span and append it to `stats`.
    pub fn finish(self, stats: &mut SearchStats) {
        stats.phases.push(PhaseSpan {
            phase: self.phase,
            nanos: self.started.elapsed().as_nanos(),
        });
    }
}

/// Uniform telemetry of one search run. All three algorithms (ES, HS,
/// HS-Greedy) populate the same schema; see the module docs for which
/// fields are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchStats {
    /// Algorithm name as used in the paper's tables.
    pub algorithm: &'static str,
    /// States evaluated (priced and fingerprinted), including the initial
    /// state and re-evaluations of known states.
    pub generated: u64,
    /// Evaluations whose fingerprint had already been seen this run.
    pub deduplicated: u64,
    /// Distinct states whose outgoing transitions were enumerated and
    /// applied (each fingerprint counted once, however often a phase
    /// revisits it). ES and beam count a state when its window is expanded,
    /// so frontier states a budget stop never reached are not in here.
    pub expanded: u64,
    /// Distinct generated states never expanded: admitted states the run
    /// ended before reaching (a budget stop, a collection cap, beam
    /// truncation), plus what was priced but could not be admitted any more
    /// — for ES and beam at most one window of move lists
    /// ([`crate::opt::EXPAND_WINDOW`]), because expansion stops at the
    /// first merge that fills the budget. Derived at finish time as
    /// `generated − deduplicated − expanded`; an accounting bug that makes
    /// that subtraction underflow poisons the field to `u64::MAX` so
    /// [`SearchStats::reconciles`] fails loudly instead of hiding it.
    pub pruned: u64,
    /// Generated candidates on the delta path (incremental search key, then
    /// delta repricing): every successor of a state that carries its
    /// tables, including HS's Phase II/III chain candidates (one walk per
    /// chain). The two `repriced_*` counters classify candidates by
    /// evaluation path, not by work done: a duplicate the search recognised
    /// by its fingerprint *before* pricing is counted here like the priced
    /// ones, so `repriced_delta + repriced_full == generated` either way.
    pub repriced_delta: u64,
    /// Generated candidates on the from-scratch path: the states a search
    /// starts from, and every state of a model without delta support.
    pub repriced_full: u64,
    /// ES: frontier size per BFS generation. HS/HS-Greedy: candidate-pool
    /// size at each phase boundary (after I, II, III, IV).
    pub frontier_sizes: Vec<usize>,
    /// Transition attempts rejected, by applicability rule. Includes
    /// speculative attempts (HS shift chains, stale greedy-sweep tails)
    /// because they are evaluated either way.
    pub rejections: Rejections,
    /// Beam search only: the configured frontier width `K`. `0` for the
    /// unbounded algorithms (ES, HS, HS-Greedy).
    pub beam_width: u64,
    /// Beam search only: states admitted to the visited set but dropped
    /// from the frontier by the per-generation top-K truncation. Always a
    /// subset of `pruned` — a truncated state was generated and never
    /// expanded.
    pub truncated_states: u64,
    /// Move-memo cache hits (runtime telemetry: a memo the daemon shares
    /// across a family's jobs hits on keys other jobs inserted, so two runs
    /// of one search can count differently).
    pub memo_hits: u64,
    /// Move-memo cache misses (runtime telemetry, as `memo_hits`).
    pub memo_misses: u64,
    /// Wall-clock per phase (runtime telemetry).
    pub phases: Vec<PhaseSpan>,
}

impl SearchStats {
    /// Empty stats for `algorithm`.
    pub fn new(algorithm: &'static str) -> SearchStats {
        SearchStats {
            algorithm,
            generated: 0,
            deduplicated: 0,
            expanded: 0,
            pruned: 0,
            repriced_delta: 0,
            repriced_full: 0,
            frontier_sizes: Vec::new(),
            rejections: Rejections::default(),
            beam_width: 0,
            truncated_states: 0,
            memo_hits: 0,
            memo_misses: 0,
            phases: Vec::new(),
        }
    }

    /// Does the state accounting add up
    /// (`generated == deduplicated + expanded + pruned`)?
    pub fn reconciles(&self) -> bool {
        self.deduplicated
            .checked_add(self.expanded)
            .and_then(|s| s.checked_add(self.pruned))
            .is_some_and(|sum| sum == self.generated)
    }

    /// Fraction of evaluations served by the delta path, in `[0, 1]`.
    pub fn delta_fraction(&self) -> f64 {
        let total = self.repriced_delta + self.repriced_full;
        if total == 0 {
            0.0
        } else {
            self.repriced_delta as f64 / total as f64
        }
    }

    /// Absorb another run's counters (used to aggregate a sweep). Frontier
    /// sizes and phases are per-run shapes and are not
    /// carried over.
    pub fn absorb(&mut self, other: &SearchStats) {
        self.generated += other.generated;
        self.deduplicated += other.deduplicated;
        self.expanded += other.expanded;
        self.pruned = self.pruned.saturating_add(other.pruned);
        self.repriced_delta += other.repriced_delta;
        self.repriced_full += other.repriced_full;
        self.rejections.merge(&other.rejections);
        // Truncations flow; the width is a per-run shape, absorbed as a
        // high-water mark across the sweep.
        self.truncated_states += other.truncated_states;
        self.beam_width = self.beam_width.max(other.beam_width);
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
    }

    fn render(&self, include_runtime: bool) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\n");
        out.push_str(&format!("  \"algorithm\": \"{}\",\n", self.algorithm));
        out.push_str(&format!(
            concat!(
                "  \"states\": {{\"generated\": {}, \"deduplicated\": {}, ",
                "\"expanded\": {}, \"pruned\": {}}},\n"
            ),
            self.generated, self.deduplicated, self.expanded, self.pruned
        ));
        out.push_str(&format!(
            "  \"evaluation\": {{\"delta\": {}, \"full\": {}}},\n",
            self.repriced_delta, self.repriced_full
        ));
        out.push_str(&format!(
            "  \"beam\": {{\"width\": {}, \"truncated_states\": {}}},\n",
            self.beam_width, self.truncated_states
        ));
        let rej: Vec<String> = self
            .rejections
            .as_pairs()
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        out.push_str(&format!(
            "  \"rejections\": {{{}, \"total\": {}}},\n",
            rej.join(", "),
            self.rejections.total()
        ));
        let fronts: Vec<String> = self.frontier_sizes.iter().map(usize::to_string).collect();
        out.push_str(&format!("  \"frontier_sizes\": [{}]", fronts.join(", ")));
        if include_runtime {
            out.push_str(",\n");
            out.push_str(&format!(
                "  \"memo\": {{\"hits\": {}, \"misses\": {}}},\n",
                self.memo_hits, self.memo_misses
            ));
            let phases: Vec<String> = self
                .phases
                .iter()
                .map(|p| format!("{{\"phase\": \"{}\", \"nanos\": {}}}", p.phase, p.nanos))
                .collect();
            out.push_str(&format!("  \"phases\": [{}]\n", phases.join(", ")));
        } else {
            out.push('\n');
        }
        out.push('}');
        out
    }

    /// The deterministic projection: every field here is byte-identical
    /// run to run on the same search.
    pub fn counters_json(&self) -> String {
        self.render(false)
    }

    /// Full machine-readable rendering, including the runtime-telemetry
    /// section (wall-clock spans, memo hit/miss).
    pub fn to_json(&self) -> String {
        self.render(true)
    }
}

/// Run-local counter collector the search algorithms feed.
#[derive(Debug)]
pub(crate) struct Collector {
    stats: SearchStats,
    /// Fingerprints already counted as expanded — HS phases revisit states,
    /// and `expanded` counts distinct states only.
    expanded_fps: HashSet<u128>,
}

impl Collector {
    pub(crate) fn new(algorithm: &'static str) -> Collector {
        Collector {
            stats: SearchStats::new(algorithm),
            expanded_fps: HashSet::new(),
        }
    }

    /// One generated candidate, on the delta or the from-scratch path —
    /// priced, or recognised as a duplicate before pricing.
    pub(crate) fn evaluated(&mut self, delta: bool) {
        self.stats.generated += 1;
        if delta {
            self.stats.repriced_delta += 1;
        } else {
            self.stats.repriced_full += 1;
        }
    }

    /// The evaluation hit an already-seen fingerprint.
    pub(crate) fn deduplicated(&mut self) {
        self.stats.deduplicated += 1;
    }

    /// The state with fingerprint `fp` had its moves enumerated and
    /// applied. Counted once per distinct fingerprint.
    pub(crate) fn expanded(&mut self, fp: u128) {
        if self.expanded_fps.insert(fp) {
            self.stats.expanded += 1;
        }
    }

    /// Record a frontier / candidate-pool size.
    pub(crate) fn frontier(&mut self, len: usize) {
        self.stats.frontier_sizes.push(len);
    }

    /// Merge one expanded item's rejection deltas.
    pub(crate) fn rejections(&mut self, rej: &Rejections) {
        self.stats.rejections.merge(rej);
    }

    /// Record move-memo effectiveness (runtime telemetry).
    pub(crate) fn memo(&mut self, hits: u64, misses: u64) {
        self.stats.memo_hits = hits;
        self.stats.memo_misses = misses;
    }

    /// Record the beam's configured frontier width.
    pub(crate) fn beam_width(&mut self, width: u64) {
        self.stats.beam_width = width;
    }

    /// Count `n` states dropped from a frontier by beam truncation.
    pub(crate) fn truncated(&mut self, n: u64) {
        self.stats.truncated_states += n;
    }

    /// Append a finished phase span.
    pub(crate) fn span(&mut self, span: Span) {
        span.finish(&mut self.stats);
    }

    /// Close the run: derive `pruned` from the identity
    /// `generated = deduplicated + expanded + pruned`. An underflow (an
    /// algorithm reported more dedups/expansions than evaluations) poisons
    /// `pruned` so [`SearchStats::reconciles`] fails.
    pub(crate) fn finish(mut self) -> SearchStats {
        self.stats.pruned = self
            .stats
            .generated
            .checked_sub(self.stats.deduplicated + self.stats.expanded)
            .unwrap_or(u64::MAX);
        self.stats
    }
}

/// Streaming-execution counters populated by the engine's `exec`/`pool`
/// subsystem (batch runtime, buffer pool, shared intermediate cache). They
/// live here beside [`SearchStats`] so every trace artifact the workspace
/// emits shares one zero-dependency home and one JSON idiom.
///
/// Page counters follow the pool's ledger: `pages_appended` is every page
/// admitted into the pool, `pages_spilled` counts eviction *writes* to the
/// heap file, `pages_reloaded` counts faults that read a spilled page back,
/// and `evictions` counts resident pages dropped (with or without a write —
/// a clean page already on disk is dropped for free). Cache counters are
/// per-run deltas of the shared intermediate-result cache.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Batches emitted by operators of the streaming pipeline.
    pub batches: u64,
    /// Rows the scans read where they are stored: catalog and cached
    /// tables, and pool-buffer re-reads.
    pub rows_scanned: u64,
    /// Rows those scans allocated — the ones that outlived every row-wise
    /// link fused into the scan and were handed to an owner. Rows lent to
    /// a read-only consumer are scanned but never materialized.
    pub rows_materialized: u64,
    /// Pages admitted into the buffer pool.
    pub pages_appended: u64,
    /// Pages written to the spill heap file by eviction.
    pub pages_spilled: u64,
    /// Spilled pages faulted back into memory.
    pub pages_reloaded: u64,
    /// Resident pages dropped to stay inside the frame budget.
    pub evictions: u64,
    /// The pool's high-water mark of resident frames across all
    /// buffers, pinned over-budget pages included.
    pub peak_resident_frames: u64,
    /// Shared-cache lookups that found a previously computed intermediate.
    pub cache_hits: u64,
    /// Shared-cache lookups that missed.
    pub cache_misses: u64,
    /// Intermediate results admitted into the shared cache.
    pub cache_insertions: u64,
    /// Always empty: every run is the single-threaded stream. The lane
    /// and pipeline fields below stay only because the benchmark's engine
    /// workload still writes or reads them; they go with it.
    pub worker_rows: Vec<u64>,
    /// Always 0, like `worker_rows`.
    pub pages_staged: u64,
    /// Always 0, like `worker_rows`.
    pub pipeline_segments: u64,
    /// Always 0, like `worker_rows`.
    pub channel_high_water: u64,
    /// Always 0, like `worker_rows`.
    pub peak_inflight_tasks: u64,
    /// Always empty, like `worker_rows`.
    pub worker_busy: Vec<u64>,
    /// Always empty, like `worker_rows`.
    pub worker_send_blocked: Vec<u64>,
    /// Always empty, like `worker_rows`.
    pub worker_recv_blocked: Vec<u64>,
}

impl ExecCounters {
    /// Did this run write at least one page to disk?
    pub fn spilled(&self) -> bool {
        self.pages_spilled > 0
    }

    /// Sum another run's counters into `self` (peak frames take the max —
    /// it is a high-water mark, not a flow).
    pub fn absorb(&mut self, other: &ExecCounters) {
        self.batches += other.batches;
        self.rows_scanned += other.rows_scanned;
        self.rows_materialized += other.rows_materialized;
        self.pages_appended += other.pages_appended;
        self.pages_spilled += other.pages_spilled;
        self.pages_reloaded += other.pages_reloaded;
        self.evictions += other.evictions;
        self.peak_resident_frames = self.peak_resident_frames.max(other.peak_resident_frames);
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_insertions += other.cache_insertions;
        self.pages_staged += other.pages_staged;
        self.pipeline_segments += other.pipeline_segments;
        self.channel_high_water = self.channel_high_water.max(other.channel_high_water);
        self.peak_inflight_tasks = self.peak_inflight_tasks.max(other.peak_inflight_tasks);
        fn absorb_lanes(mine: &mut Vec<u64>, theirs: &[u64]) {
            if mine.len() < theirs.len() {
                mine.resize(theirs.len(), 0);
            }
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += t;
            }
        }
        absorb_lanes(&mut self.worker_rows, &other.worker_rows);
        absorb_lanes(&mut self.worker_busy, &other.worker_busy);
        absorb_lanes(&mut self.worker_send_blocked, &other.worker_send_blocked);
        absorb_lanes(&mut self.worker_recv_blocked, &other.worker_recv_blocked);
    }

    /// Machine-readable rendering, same idiom as [`SearchStats::to_json`].
    pub fn to_json(&self) -> String {
        fn lanes(v: &[u64]) -> String {
            v.iter().map(u64::to_string).collect::<Vec<_>>().join(", ")
        }
        format!(
            concat!(
                "{{\n",
                "  \"batches\": {},\n",
                "  \"scan\": {{\"rows_scanned\": {}, \"rows_materialized\": {}}},\n",
                "  \"pool\": {{\"pages_appended\": {}, \"pages_spilled\": {}, ",
                "\"pages_reloaded\": {}, \"evictions\": {}, ",
                "\"peak_resident_frames\": {}}},\n",
                "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"insertions\": {}}},\n",
                "  \"pipeline\": {{\"segments\": {}, \"pages_staged\": {}, ",
                "\"channel_high_water\": {}, \"peak_inflight_tasks\": {}, ",
                "\"worker_busy\": [{}], \"worker_send_blocked\": [{}], ",
                "\"worker_recv_blocked\": [{}]}},\n",
                "  \"worker_rows\": [{}]\n",
                "}}"
            ),
            self.batches,
            self.rows_scanned,
            self.rows_materialized,
            self.pages_appended,
            self.pages_spilled,
            self.pages_reloaded,
            self.evictions,
            self.peak_resident_frames,
            self.cache_hits,
            self.cache_misses,
            self.cache_insertions,
            self.pipeline_segments,
            self.pages_staged,
            self.channel_high_water,
            self.peak_inflight_tasks,
            lanes(&self.worker_busy),
            lanes(&self.worker_send_blocked),
            lanes(&self.worker_recv_blocked),
            lanes(&self.worker_rows),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeId;

    #[test]
    fn rejections_record_by_rule_and_total() {
        let mut r = Rejections::default();
        r.record(&TransitionError::FunctionalityViolated {
            node: NodeId(1),
            detail: "x".into(),
        });
        r.record(&TransitionError::FunctionalityViolated {
            node: NodeId(2),
            detail: "y".into(),
        });
        r.record(&TransitionError::NotAdjacent(NodeId(1), NodeId(2)));
        assert_eq!(r.functionality_violated, 2);
        assert_eq!(r.not_adjacent, 1);
        assert_eq!(r.total(), 3);
        let mut other = Rejections::default();
        other.record(&TransitionError::NotBinary(NodeId(3)));
        r.merge(&other);
        assert_eq!(r.total(), 4);
        assert_eq!(r.not_binary, 1);
    }

    #[test]
    fn collector_accounting_reconciles() {
        let mut c = Collector::new("ES");
        c.evaluated(false); // initial state (full)
        c.expanded(1);
        for fp in [2u128, 3, 2] {
            c.evaluated(true);
            if fp == 2 && c.expanded_fps.contains(&2) {
                // second sighting of fp 2
            }
            let _ = fp;
        }
        c.deduplicated(); // the repeated fp
        c.expanded(2);
        c.expanded(2); // revisit: must not double count
        let stats = c.finish();
        assert_eq!(stats.generated, 4);
        assert_eq!(stats.deduplicated, 1);
        assert_eq!(stats.expanded, 2);
        assert_eq!(stats.pruned, 1); // fp 3 was generated, never expanded
        assert!(stats.reconciles());
        assert_eq!(stats.repriced_delta, 3);
        assert_eq!(stats.repriced_full, 1);
    }

    #[test]
    fn accounting_underflow_poisons_pruned() {
        let mut c = Collector::new("HS");
        c.evaluated(true);
        c.deduplicated();
        c.deduplicated(); // one more dedup than evaluations: a bug
        let stats = c.finish();
        assert_eq!(stats.pruned, u64::MAX);
        assert!(!stats.reconciles());
    }

    #[test]
    fn counters_json_is_stable_and_excludes_runtime_fields() {
        let mut c = Collector::new("HS-Greedy");
        c.evaluated(true);
        c.frontier(7);
        c.memo(3, 4);
        c.span(Span::start("I swaps"));
        let stats = c.finish();
        let det = stats.counters_json();
        assert!(det.contains("\"algorithm\": \"HS-Greedy\""));
        assert!(det.contains("\"frontier_sizes\": [7]"));
        assert!(!det.contains("nanos"), "{det}");
        assert!(!det.contains("memo"), "{det}");
        let full = stats.to_json();
        assert!(full.contains("\"memo\": {\"hits\": 3, \"misses\": 4}"));
        assert!(full.contains("\"phase\": \"I swaps\""));
    }

    #[test]
    fn beam_counters_render_deterministically() {
        let mut c = Collector::new("Beam");
        c.evaluated(true);
        c.beam_width(8);
        c.truncated(3);
        c.truncated(2);
        let stats = c.finish();
        let det = stats.counters_json();
        assert!(
            det.contains("\"beam\": {\"width\": 8, \"truncated_states\": 5}"),
            "{det}"
        );
        // Unbounded algorithms render the same schema with zeros.
        let plain = SearchStats::new("HS");
        assert!(
            plain
                .counters_json()
                .contains("\"beam\": {\"width\": 0, \"truncated_states\": 0}"),
            "{}",
            plain.counters_json()
        );
    }

    #[test]
    fn absorb_takes_the_widest_beam_and_sums_truncations() {
        let mut a = SearchStats::new("Beam");
        a.beam_width = 8;
        a.truncated_states = 4;
        let mut b = SearchStats::new("Beam");
        b.beam_width = 16;
        b.truncated_states = 6;
        a.absorb(&b);
        assert_eq!(a.truncated_states, 10);
        assert_eq!(a.beam_width, 16);
        // Absorbing an unbounded run (HS) keeps the width.
        a.absorb(&SearchStats::new("HS"));
        assert_eq!(a.beam_width, 16);
    }

    #[test]
    fn absorb_sums_counters() {
        let mut a = SearchStats::new("ES");
        a.generated = 10;
        a.rejections.not_commutative = 2;
        let mut b = SearchStats::new("ES");
        b.generated = 5;
        b.repriced_delta = 4;
        b.rejections.not_commutative = 1;
        a.absorb(&b);
        assert_eq!(a.generated, 15);
        assert_eq!(a.repriced_delta, 4);
        assert_eq!(a.rejections.not_commutative, 3);
    }

    #[test]
    fn exec_counters_absorb_and_render() {
        let mut a = ExecCounters {
            batches: 10,
            rows_scanned: 100,
            rows_materialized: 40,
            pages_appended: 4,
            pages_spilled: 2,
            pages_reloaded: 1,
            evictions: 3,
            peak_resident_frames: 8,
            cache_hits: 1,
            cache_misses: 2,
            cache_insertions: 2,
            worker_rows: vec![3, 4],
            pages_staged: 2,
            pipeline_segments: 3,
            channel_high_water: 2,
            peak_inflight_tasks: 1,
            worker_busy: vec![7, 9],
            worker_send_blocked: vec![0, 1],
            worker_recv_blocked: vec![2, 0],
        };
        assert!(a.spilled());
        let b = ExecCounters {
            batches: 5,
            rows_scanned: 20,
            rows_materialized: 2,
            peak_resident_frames: 16,
            worker_rows: vec![1, 1, 1],
            pages_staged: 1,
            channel_high_water: 4,
            peak_inflight_tasks: 3,
            worker_busy: vec![1],
            ..ExecCounters::default()
        };
        assert!(!b.spilled());
        a.absorb(&b);
        assert_eq!(a.batches, 15);
        assert_eq!((a.rows_scanned, a.rows_materialized), (120, 42));
        assert_eq!(a.pages_spilled, 2);
        // Peak is a high-water mark: absorbed as a max, not a sum.
        assert_eq!(a.peak_resident_frames, 16);
        // Worker splits absorb element-wise in worker-index order.
        assert_eq!(a.worker_rows, vec![4, 5, 1]);
        // Pipeline telemetry: flows sum, high-water marks take the max.
        assert_eq!(a.pages_staged, 3);
        assert_eq!(a.pipeline_segments, 3);
        assert_eq!(a.channel_high_water, 4);
        assert_eq!(a.peak_inflight_tasks, 3);
        assert_eq!(a.worker_busy, vec![8, 9]);
        let json = a.to_json();
        assert!(json.contains("\"rows_materialized\": 42"), "{json}");
        assert!(json.contains("\"pages_spilled\": 2"), "{json}");
        assert!(json.contains("\"peak_resident_frames\": 16"), "{json}");
        assert!(json.contains("\"hits\": 1"), "{json}");
        assert!(json.contains("\"worker_rows\": [4, 5, 1]"), "{json}");
        assert!(json.contains("\"pages_staged\": 3"), "{json}");
        assert!(json.contains("\"channel_high_water\": 4"), "{json}");
        assert!(json.contains("\"worker_busy\": [8, 9]"), "{json}");
    }

    #[test]
    fn delta_fraction_is_safe_on_empty() {
        let s = SearchStats::new("ES");
        assert_eq!(s.delta_fraction(), 0.0);
        let mut s2 = SearchStats::new("ES");
        s2.repriced_delta = 3;
        s2.repriced_full = 1;
        assert!((s2.delta_fraction() - 0.75).abs() < 1e-12);
    }
}
