//! Workflow states.
//!
//! A [`Workflow`] is one **state** of the optimization search: a validated
//! DAG of activities and recordsets with fully derived schemata. States are
//! immutable values from the optimizer's point of view — transitions clone
//! and rewire — and are identified by their [`crate::signature::Signature`].
//!
//! This module also hosts the structural notions of §3.2 the heuristic
//! search is built on: **local groups** (maximal linear paths of unary
//! activities bordered by recordsets and binary activities) and
//! **homologous activities** (same semantics, in local groups converging to
//! the same binary activity).

// Workflows are built from client text inside daemon workers: a bad edge
// must come back as a typed error, never take the process down.
#![cfg_attr(not(test), deny(clippy::expect_used))]

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::activity::{Activity, ActivityId, Op};
use crate::error::{CoreError, Result};
use crate::graph::{Graph, Node, NodeId};
use crate::recordset::Recordset;
use crate::schema::{Attr, Schema};
use crate::schema_gen;
use crate::semantics::{BinaryOp, UnaryOp};
use crate::signature::Signature;

/// A validated ETL workflow — one state of the search space.
#[derive(Debug, Clone, PartialEq)]
pub struct Workflow {
    pub(crate) graph: Graph,
    /// Initial topological priority of every recordset node (activities
    /// carry their priority inside [`ActivityId`]). Behind `Arc`: the table
    /// never changes after `build`, so cloned states share one copy.
    pub(crate) rs_priority: std::sync::Arc<BTreeMap<NodeId, u32>>,
}

impl Workflow {
    /// Read access to the underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Source recordsets (RS_S): recordsets nothing writes to.
    pub fn sources(&self) -> Vec<NodeId> {
        self.graph
            .iter()
            .filter(|(id, n)| {
                matches!(n, Node::Recordset(_))
                    && self.graph.provider(*id, 0).ok().flatten().is_none()
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// Target recordsets (RS_T): recordsets nothing reads from.
    pub fn targets(&self) -> Vec<NodeId> {
        self.graph
            .iter()
            .filter(|(id, n)| {
                matches!(n, Node::Recordset(_))
                    && self
                        .graph
                        .consumers(*id)
                        .map(|c| c.is_empty())
                        .unwrap_or(false)
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// Activities in topological order.
    pub fn activities(&self) -> Result<Vec<NodeId>> {
        let mut order = self.graph.topo_order()?;
        order.retain(|id| self.graph.activity(*id).is_ok());
        Ok(order)
    }

    /// Number of activity nodes.
    pub fn activity_count(&self) -> usize {
        self.graph.activity_count()
    }

    /// The signature string identifying this state (§4.1), e.g.
    /// `((1.3)//(2.4.5.6)).7.8.9` for the paper's Fig. 1.
    pub fn signature(&self) -> Signature {
        Signature::of(self)
    }

    /// The 128-bit structural fingerprint of this state: a bottom-up fold
    /// of per-node hashes ([`crate::signature::hash_state`]) digesting the
    /// same structure the signature string renders. Fingerprint equality
    /// coincides with signature equality (w.h.p. — asserted by property
    /// tests). Adaptive rounds report it as the chosen plan's identity; the
    /// searches key their visited sets on [`crate::signature::search_key`]
    /// instead, whose swap update costs three edges.
    pub fn fingerprint(&self) -> u128 {
        crate::signature::hash_state(self).1
    }

    /// The initial-topology priority of a node: activities carry it in
    /// their id (when still a plain [`ActivityId::Base`]); recordsets keep
    /// it in the side table.
    pub fn priority_token(&self, id: NodeId) -> String {
        match self.graph.node(id) {
            Ok(Node::Activity(a)) => a.id.to_string(),
            Ok(Node::Recordset(_)) => self
                .rs_priority
                .get(&id)
                .map(|p| p.to_string())
                .unwrap_or_else(|| format!("r{}", id.0)),
            Err(_) => format!("?{}", id.0),
        }
    }

    /// Replace the selectivity estimate of one unary activity (the
    /// statistics-refresh hook: observed selectivities from an engine run
    /// can be fed back before re-optimizing). No-op for structurally 1:1
    /// operators; merged activities are not re-estimated (split them
    /// first). Errors if `node` is not an activity.
    pub fn set_selectivity(&mut self, node: NodeId, selectivity: f64) -> Result<()> {
        if let Op::Unary(op) = Arc::make_mut(&mut self.graph.activity_mut(node)?.op) {
            op.set_selectivity(selectivity);
        }
        Ok(())
    }

    /// Replace the row estimate of one source recordset (the companion
    /// statistics hook to [`Workflow::set_selectivity`]: actual extract
    /// cardinalities from a run can be fed back so the cost model prices
    /// states against real volumes). Errors if `node` is not a recordset;
    /// no-op for non-source recordsets, whose cardinality is derived.
    pub fn set_row_estimate(&mut self, node: NodeId, rows: f64) -> Result<()> {
        let is_source = self.graph.providers(node)?.iter().all(Option::is_none);
        match self.graph.node_mut(node)? {
            Node::Recordset(rs) if is_source => rs.row_estimate = rows,
            Node::Recordset(_) => {}
            Node::Activity(_) => return Err(CoreError::UnknownNode(node)),
        }
        Ok(())
    }

    /// Human-readable rendering: one line per node in topological order,
    /// with priorities, labels, providers and derived schemata.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        let Ok(order) = self.graph.topo_order() else {
            return "<cyclic workflow>".to_owned();
        };
        for id in order {
            let Ok(node) = self.graph.node(id) else {
                continue;
            };
            let token = self.priority_token(id);
            let providers: Vec<String> = self
                .graph
                .providers(id)
                .unwrap_or_default()
                .iter()
                .flatten()
                .map(|p| self.priority_token(*p))
                .collect();
            let from = if providers.is_empty() {
                String::new()
            } else {
                format!(" <- [{}]", providers.join(","))
            };
            match node {
                Node::Recordset(r) => {
                    out.push_str(&format!("  ({token}) {}{from} :: {}\n", r.name, r.schema));
                }
                Node::Activity(a) => {
                    out.push_str(&format!(
                        "  ({token}) {}{from} :: {} -> {}\n",
                        a.label,
                        a.inputs
                            .iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join(" x "),
                        a.output
                    ));
                }
            }
        }
        out
    }

    /// Re-derive every schema from the sources forward. Called after every
    /// transition; fails if the rewiring made some activity's functionality
    /// schema unsatisfiable (the transition must then be rejected).
    pub fn regenerate_schemata(&mut self) -> Result<()> {
        schema_gen::regenerate(&mut self.graph)
    }

    /// Full structural validation: DAG-ness, provider completeness, schema
    /// derivability, source/target sanity.
    pub fn validate(&self) -> Result<()> {
        let order = self.graph.topo_order()?;
        let mut has_source = false;
        let mut has_target = false;
        for &id in &order {
            match self.graph.node(id)? {
                Node::Activity(a) => {
                    for (port, p) in self.graph.providers(id)?.iter().enumerate() {
                        if p.is_none() {
                            return Err(CoreError::MissingProvider { node: id, port });
                        }
                    }
                    if self.graph.consumers(id)?.is_empty() {
                        return Err(CoreError::DanglingOutput(id));
                    }
                    // Functionality must be satisfied by the derived inputs.
                    let fun = a.functionality();
                    let joined = a.inputs.iter().fold(Schema::empty(), |acc, s| acc.union(s));
                    if !fun.is_subset_of(&joined) {
                        return Err(CoreError::UnresolvedAttribute {
                            node: id,
                            attr: fun.difference(&joined).to_string(),
                        });
                    }
                }
                Node::Recordset(r) => {
                    let written = self.graph.provider(id, 0)?.is_some();
                    let read = !self.graph.consumers(id)?.is_empty();
                    if !written && !read {
                        return Err(CoreError::InvalidRecordsetRole {
                            node: id,
                            reason: format!("recordset {} is disconnected", r.name),
                        });
                    }
                    if !written {
                        has_source = true;
                    }
                    if !read {
                        has_target = true;
                        // Targets must receive data under their declared schema.
                        if let Some(p) = self.graph.provider(id, 0)? {
                            let out = self.graph.node(p)?.output_schema();
                            if !out.same_attrs(&r.schema) {
                                return Err(CoreError::Schema(format!(
                                    "target {} declares {} but receives {}",
                                    r.name, r.schema, out
                                )));
                            }
                        }
                    }
                }
            }
        }
        if !has_source || !has_target {
            return Err(CoreError::NoSourceOrTarget);
        }
        Ok(())
    }

    /// Maximal linear paths of unary activities (local groups, §3.2).
    /// Borders are recordsets and binary activities; a node with more than
    /// one consumer also ends its group (no linear path through a fan-out).
    /// Groups are returned in topological order of their first element.
    pub fn local_groups(&self) -> Result<Vec<Vec<NodeId>>> {
        let order = self.graph.topo_order()?;
        let mut groups = Vec::new();
        for &id in &order {
            let Ok(act) = self.graph.activity(id) else {
                continue;
            };
            if !act.is_unary() {
                continue;
            }
            // Group leader: provider is not a continuable unary activity.
            if self.group_predecessor(id)?.is_some() {
                continue;
            }
            let mut group = vec![id];
            let mut cur = id;
            while let Some(next) = self.group_successor(cur)? {
                group.push(next);
                cur = next;
            }
            groups.push(group);
        }
        Ok(groups)
    }

    /// The unary activity preceding `id` inside the same local group, if any.
    fn group_predecessor(&self, id: NodeId) -> Result<Option<NodeId>> {
        let Some(p) = self.graph.provider(id, 0)? else {
            return Ok(None);
        };
        let Ok(pa) = self.graph.activity(p) else {
            return Ok(None);
        };
        if pa.is_unary() && self.graph.consumers(p)?.len() == 1 {
            Ok(Some(p))
        } else {
            Ok(None)
        }
    }

    /// The unary activity following `id` inside the same local group, if any.
    fn group_successor(&self, id: NodeId) -> Result<Option<NodeId>> {
        let consumers = self.graph.consumers(id)?;
        if consumers.len() != 1 {
            return Ok(None);
        }
        let c = consumers[0];
        let Ok(ca) = self.graph.activity(c) else {
            return Ok(None);
        };
        if ca.is_unary() {
            Ok(Some(c))
        } else {
            Ok(None)
        }
    }

    /// The binary activity a local group converges to: follow the single
    /// consumer of the group's last element; `Some(ab)` if it is a binary
    /// activity.
    pub fn group_terminal_binary(&self, group: &[NodeId]) -> Result<Option<NodeId>> {
        let Some(&last) = group.last() else {
            return Ok(None);
        };
        let consumers = self.graph.consumers(last)?;
        if consumers.len() != 1 {
            return Ok(None);
        }
        let c = consumers[0];
        match self.graph.activity(c) {
            Ok(a) if a.is_binary() => Ok(Some(c)),
            _ => Ok(None),
        }
    }

    /// Homologous activity pairs (§3.2): `(a1, a2, ab)` where `a1`, `a2`
    /// share semantics and auxiliary schemata and live in local groups
    /// converging to the same binary activity `ab`.
    pub fn homologous_pairs(&self) -> Result<Vec<(NodeId, NodeId, NodeId)>> {
        let groups = self.local_groups()?;
        // binary node -> groups converging to it.
        let mut by_binary: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        for (gi, g) in groups.iter().enumerate() {
            if let Some(ab) = self.group_terminal_binary(g)? {
                by_binary.entry(ab).or_default().push(gi);
            }
        }
        let mut pairs = Vec::new();
        for (ab, gis) in &by_binary {
            for (i, &g1) in gis.iter().enumerate() {
                for &g2 in gis.iter().skip(i + 1) {
                    for &a1 in &groups[g1] {
                        for &a2 in &groups[g2] {
                            if self.are_homologous(a1, a2)? {
                                pairs.push((a1, a2, *ab));
                            }
                        }
                    }
                }
            }
        }
        Ok(pairs)
    }

    /// Homologous test for a specific pair (semantics + auxiliary schemata;
    /// the convergence requirement is the caller's).
    pub fn are_homologous(&self, a1: NodeId, a2: NodeId) -> Result<bool> {
        let x = self.graph.activity(a1)?;
        let y = self.graph.activity(a2)?;
        // Set equality read off the two activities, without building either
        // side's schemata.
        let generates = |act: &Activity, attr: &Attr| !act.all_generated(|a| a != attr);
        Ok(x.same_semantics(y)
            && x.all_needed(|a| y.needs(a))
            && y.all_needed(|a| x.needs(a))
            && x.all_generated(|a| generates(y, a))
            && y.all_generated(|a| generates(x, a)))
    }

    /// Distributable activities (§4.2, Heuristic 2): unary, row-wise
    /// activities located in a local group that *starts* right after a
    /// binary activity — candidates for being shifted backward through it.
    /// Returns `(activity, binary)` pairs.
    pub fn distributable_activities(&self) -> Result<Vec<(NodeId, NodeId)>> {
        let mut out = Vec::new();
        for group in self.local_groups()? {
            let first = group[0];
            let Some(p) = self.graph.provider(first, 0)? else {
                continue;
            };
            let Ok(pa) = self.graph.activity(p) else {
                continue;
            };
            if !pa.is_binary() {
                continue;
            }
            for &a in &group {
                if self.graph.activity(a)?.is_row_wise() {
                    out.push((a, p));
                }
            }
        }
        Ok(out)
    }
}

/// Incrementally numbered builder for workflows.
///
/// Nodes are added in flow order; [`WorkflowBuilder::build`] assigns initial
/// topological priorities (the paper's activity identifiers), derives all
/// schemata and validates the result. An edge that cannot be made (an
/// input that is not a node of this builder) is remembered, and `build`
/// returns the first such error.
#[derive(Debug, Default)]
pub struct WorkflowBuilder {
    graph: Graph,
    error: Option<CoreError>,
}

impl WorkflowBuilder {
    /// Fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Connect `from` to input `port` of `to`, remembering the first
    /// failure for [`WorkflowBuilder::build`].
    fn connect(&mut self, from: NodeId, to: NodeId, port: usize) {
        if let Err(e) = self.graph.connect(from, to, port) {
            self.error.get_or_insert(e);
        }
    }

    /// Add a source recordset with a cardinality estimate.
    pub fn source(&mut self, name: &str, schema: Schema, rows: f64) -> NodeId {
        self.graph
            .add_recordset(Recordset::table(name, schema).with_rows(rows))
    }

    /// Add a source record file.
    pub fn source_file(&mut self, name: &str, schema: Schema, rows: f64) -> NodeId {
        self.graph
            .add_recordset(Recordset::file(name, schema).with_rows(rows))
    }

    /// Add a unary activity consuming `input`.
    pub fn unary(&mut self, label: &str, op: UnaryOp, input: NodeId) -> NodeId {
        let id = self
            .graph
            .add_activity(Activity::new(ActivityId::Base(0), label, Op::Unary(op)));
        self.connect(input, id, 0);
        id
    }

    /// Add a binary activity consuming `left` and `right`.
    pub fn binary(&mut self, label: &str, op: BinaryOp, left: NodeId, right: NodeId) -> NodeId {
        let id = self
            .graph
            .add_activity(Activity::new(ActivityId::Base(0), label, Op::Binary(op)));
        self.connect(left, id, 0);
        self.connect(right, id, 1);
        id
    }

    /// Add an intermediate recordset materializing the flow from `input`.
    pub fn recordset(&mut self, name: &str, schema: Schema, input: NodeId) -> NodeId {
        let id = self.graph.add_recordset(Recordset::table(name, schema));
        self.connect(input, id, 0);
        id
    }

    /// Add a target recordset fed by `input`.
    pub fn target(&mut self, name: &str, schema: Schema, input: NodeId) -> NodeId {
        self.recordset(name, schema, input)
    }

    /// Assign priorities, derive schemata, validate, and produce the state.
    pub fn build(self) -> Result<Workflow> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let mut graph = self.graph;
        let order = graph.topo_order()?;
        let mut rs_priority = BTreeMap::new();
        for (i, &id) in order.iter().enumerate() {
            let priority = (i + 1) as u32;
            match graph.node_mut(id)? {
                Node::Activity(a) => a.id = ActivityId::Base(priority),
                Node::Recordset(_) => {
                    rs_priority.insert(id, priority);
                }
            }
        }
        schema_gen::regenerate(&mut graph)?;
        let wf = Workflow {
            graph,
            rs_priority: std::sync::Arc::new(rs_priority),
        };
        wf.validate()?;
        Ok(wf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;

    /// S1 -> NN -> U <- σ <- S2 ; U -> f -> T (two local groups of size 1,
    /// one after the union).
    fn small_converging() -> Workflow {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["k", "v"]), 100.0);
        let s2 = b.source("S2", Schema::of(["k", "v"]), 200.0);
        let nn = b.unary("NN", UnaryOp::not_null("v").with_selectivity(0.9), s1);
        let f = b.unary(
            "σ",
            UnaryOp::filter(Predicate::gt("v", 0)).with_selectivity(0.5),
            s2,
        );
        let u = b.binary("U", BinaryOp::Union, nn, f);
        let g = b.unary("g", UnaryOp::function("scale", ["v"], "v"), u);
        b.target("T", Schema::of(["k", "v"]), g);
        b.build().unwrap()
    }

    #[test]
    fn a_foreign_node_id_is_a_build_error() {
        // Every builder call that takes an input, fed an id no node has.
        type Wire = fn(&mut WorkflowBuilder, NodeId);
        let foreign = NodeId(999);
        let cases: [(&str, Wire); 4] = [
            ("unary input", |b, _| {
                b.unary("NN", UnaryOp::not_null("v"), NodeId(999));
            }),
            ("binary port 0", |b, s| {
                b.binary("U", BinaryOp::Union, NodeId(999), s);
            }),
            ("binary port 1", |b, s| {
                b.binary("U", BinaryOp::Union, s, NodeId(999));
            }),
            ("recordset input", |b, _| {
                b.recordset("R", Schema::of(["k", "v"]), NodeId(999));
            }),
        ];
        for (what, wire) in cases {
            let mut b = WorkflowBuilder::new();
            let s = b.source("S", Schema::of(["k", "v"]), 10.0);
            wire(&mut b, s);
            let err = b.build().expect_err(what);
            assert!(
                matches!(err, CoreError::UnknownNode(n) if n == foreign),
                "{what}: {err}"
            );
        }
    }

    #[test]
    fn build_assigns_topo_priorities() {
        let wf = small_converging();
        // Sources get 1 & 2, activities follow, target last.
        let sources = wf.sources();
        assert_eq!(sources.len(), 2);
        let tokens: Vec<String> = sources.iter().map(|&s| wf.priority_token(s)).collect();
        assert!(tokens.contains(&"1".to_owned()) && tokens.contains(&"2".to_owned()));
        let targets = wf.targets();
        assert_eq!(targets.len(), 1);
        assert_eq!(wf.priority_token(targets[0]), "7");
    }

    #[test]
    fn transitions_share_untouched_nodes() {
        // The structural-sharing contract behind cheap state clones: a
        // transition detaches (at most) the nodes it rewires plus nodes
        // whose schemas change downstream; everything else must still be
        // the *same* `Arc` as in the origin state.
        use crate::opt::{enumerate_moves, Move};
        use crate::transition::Transition;
        // SK/σ swappable on branch 1; branch 2 (NN) and the tail untouched.
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["k", "v"]), 100.0);
        let s2 = b.source("S2", Schema::of(["sk", "v"]), 200.0);
        let sk = b.unary("SK", UnaryOp::surrogate_key("k", "sk", "L"), s1);
        let f = b.unary(
            "σ",
            UnaryOp::filter(Predicate::gt("v", 0)).with_selectivity(0.5),
            sk,
        );
        let nn = b.unary("NN", UnaryOp::not_null("v").with_selectivity(0.9), s2);
        let u = b.binary("U", BinaryOp::Union, f, nn);
        b.target("T", Schema::of(["sk", "v"]), u);
        let wf = b.build().unwrap();
        let moves = enumerate_moves(&wf).unwrap();
        let swap = moves
            .iter()
            .find_map(|m| match m {
                Move::Swap(s) => Some(*s),
                _ => None,
            })
            .expect("a legal swap exists");
        let next = swap.apply(&wf).unwrap();
        let touched = [swap.a1, swap.a2];
        let mut shared = 0;
        for id in wf.graph().node_ids() {
            if touched.contains(&id) || !next.graph().contains(id) {
                continue;
            }
            assert!(
                std::sync::Arc::ptr_eq(
                    wf.graph().node_arc(id).unwrap(),
                    next.graph().node_arc(id).unwrap()
                ),
                "node {id} was detached by an unrelated swap"
            );
            shared += 1;
        }
        assert!(shared >= 4, "expected most nodes shared, got {shared}");
        // The priority table is shared wholesale.
        assert!(std::sync::Arc::ptr_eq(&wf.rs_priority, &next.rs_priority));
    }

    #[test]
    fn schemata_are_derived() {
        let wf = small_converging();
        for &a in &wf.activities().unwrap() {
            let act = wf.graph().activity(a).unwrap();
            assert!(!act.output.is_empty(), "{act} has empty output schema");
        }
    }

    #[test]
    fn local_groups_are_bordered_by_recordsets_and_binaries() {
        let wf = small_converging();
        let groups = wf.local_groups().unwrap();
        assert_eq!(groups.len(), 3);
        for g in &groups {
            assert_eq!(g.len(), 1);
        }
    }

    #[test]
    fn homologous_pairs_detects_same_filters() {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["k", "v"]), 100.0);
        let s2 = b.source("S2", Schema::of(["k", "v"]), 100.0);
        let f1 = b.unary("σ1", UnaryOp::filter(Predicate::gt("v", 10)), s1);
        let f2 = b.unary("σ2", UnaryOp::filter(Predicate::gt("v", 10)), s2);
        let u = b.binary("U", BinaryOp::Union, f1, f2);
        b.target("T", Schema::of(["k", "v"]), u);
        let wf = b.build().unwrap();
        let pairs = wf.homologous_pairs().unwrap();
        assert_eq!(pairs.len(), 1);
        let (a1, a2, ab) = pairs[0];
        assert!(wf.are_homologous(a1, a2).unwrap());
        assert!(wf.graph().activity(ab).unwrap().is_binary());
    }

    #[test]
    fn different_predicates_are_not_homologous() {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["v"]), 10.0);
        let s2 = b.source("S2", Schema::of(["v"]), 10.0);
        let f1 = b.unary("σ1", UnaryOp::filter(Predicate::gt("v", 10)), s1);
        let f2 = b.unary("σ2", UnaryOp::filter(Predicate::gt("v", 20)), s2);
        let u = b.binary("U", BinaryOp::Union, f1, f2);
        b.target("T", Schema::of(["v"]), u);
        let wf = b.build().unwrap();
        assert!(wf.homologous_pairs().unwrap().is_empty());
    }

    #[test]
    fn distributable_finds_row_wise_after_binary() {
        let wf = small_converging();
        let d = wf.distributable_activities().unwrap();
        assert_eq!(d.len(), 1);
        let (a, ab) = d[0];
        assert_eq!(wf.graph().activity(a).unwrap().label, "g");
        assert_eq!(wf.graph().activity(ab).unwrap().label, "U");
    }

    #[test]
    fn aggregation_after_binary_is_not_distributable() {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["k", "v"]), 10.0);
        let s2 = b.source("S2", Schema::of(["k", "v"]), 10.0);
        let u = b.binary("U", BinaryOp::Union, s1, s2);
        let agg = b.unary(
            "γ",
            UnaryOp::aggregate(crate::semantics::Aggregation::sum(["k"], "v", "v")),
            u,
        );
        b.target("T", Schema::of(["k", "v"]), agg);
        let wf = b.build().unwrap();
        assert!(wf.distributable_activities().unwrap().is_empty());
    }

    #[test]
    fn rows_propagate_selectivities() {
        use crate::cost::{CostModel, RowCountModel};
        let wf = small_converging();
        let rows = RowCountModel::default().price(&wf).unwrap();
        let target = wf.targets()[0];
        // S1: 100 * 0.9 = 90; S2: 200 * 0.5 = 100; union: 190; f: 190.
        assert!((rows.rows_out(target) - 190.0).abs() < 1e-9);
    }

    #[test]
    fn validate_rejects_mismatched_target_schema() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["a", "b"]), 10.0);
        b.target("T", Schema::of(["a"]), s);
        assert!(b.build().is_err());
    }

    #[test]
    fn validate_rejects_unsatisfiable_functionality() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["a"]), 10.0);
        let f = b.unary("σ", UnaryOp::filter(Predicate::gt("missing", 1)), s);
        b.target("T", Schema::of(["a"]), f);
        assert!(b.build().is_err());
    }

    #[test]
    fn workflow_without_target_is_rejected() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["a"]), 10.0);
        let _f = b.unary("σ", UnaryOp::filter(Predicate::True), s);
        // The filter dangles: no consumer.
        assert!(b.build().is_err());
    }

    #[test]
    fn signature_matches_paper_format() {
        let wf = small_converging();
        let sig = wf.signature().to_string();
        // Two source branches converge on the union (node 5), then 6, 7.
        assert_eq!(sig, "((1.3)//(2.4)).5.6.7");
    }

    #[test]
    fn pretty_renders_every_node_with_schemata() {
        let wf = small_converging();
        let text = wf.pretty();
        for label in ["S1", "S2", "NN", "σ", "U", "g", "T"] {
            assert!(text.contains(label), "missing {label} in:\n{text}");
        }
        assert!(text.contains("->"), "activity schemata shown");
        assert!(text.contains("<- ["), "providers shown");
    }

    #[test]
    fn set_selectivity_edits_one_activity() {
        let wf = small_converging();
        let nn = wf
            .activities()
            .unwrap()
            .into_iter()
            .find(|&a| wf.graph().activity(a).unwrap().label == "NN")
            .unwrap();
        let mut tweaked = wf.clone();
        tweaked.set_selectivity(nn, 0.123).unwrap();
        assert!((tweaked.graph().activity(nn).unwrap().selectivity() - 0.123).abs() < 1e-12);
        // The clone it was made from is untouched; semantics unchanged.
        assert!((wf.graph().activity(nn).unwrap().selectivity() - 0.9).abs() < 1e-12);
        assert!(crate::postcond::equivalent(&wf, &tweaked).unwrap());
        // A recordset is not an activity.
        assert!(tweaked.set_selectivity(wf.sources()[0], 0.5).is_err());
    }

    #[test]
    fn set_row_estimate_adjusts_sources_only() {
        let wf = small_converging();
        let sources = wf.sources();
        let mut tweaked = wf.clone();
        tweaked.set_row_estimate(sources[0], 777.0).unwrap();
        assert_eq!(
            tweaked.graph().recordset(sources[0]).unwrap().row_estimate,
            777.0
        );
        // The clone it was made from is untouched.
        assert_ne!(
            wf.graph().recordset(sources[0]).unwrap().row_estimate,
            777.0
        );
        // Derived (target) recordsets keep their estimate; activities error.
        let target = wf.targets()[0];
        tweaked.set_row_estimate(target, 5.0).unwrap();
        assert_eq!(
            tweaked.graph().recordset(target).unwrap().row_estimate,
            wf.graph().recordset(target).unwrap().row_estimate
        );
        let act = wf.activities().unwrap()[0];
        assert!(tweaked.set_row_estimate(act, 5.0).is_err());
    }

    #[test]
    fn clone_is_independent() {
        let wf = small_converging();
        let copy = wf.clone();
        assert_eq!(wf, copy);
        assert_eq!(wf.signature(), copy.signature());
    }
}
