//! Automatic regeneration of activity schemata (§3.2, long version \[19\]).
//!
//! After every transition "the input and output schemata of each activity
//! are automatically re-generated": we walk the graph in topological order,
//! copy each provider's output schema into its consumers' input ports, and
//! re-derive each activity's output schema from its semantics. A transition
//! that leaves some activity without the attributes its functionality schema
//! needs makes this walk fail — which is precisely how illegal rewirings are
//! rejected (swap conditions 3 and 4 reduce to this walk succeeding).
//!
//! Two forms. [`regenerate`] re-derives every node and is the reference.
//! [`regenerate_downstream`] is what a transition pays: it walks only what
//! lies downstream of the rewired nodes, forces those nodes and their
//! direct consumers, and beyond them follows *changes* — a node none of
//! whose providers' outputs changed in this walk is skipped without a
//! schema being read. [`downstream_of`] is that walk's list, which the
//! searches compute once per successor and share between keying,
//! regeneration and pricing. A swap pays for less: `regenerate_swap`
//! refreshes the three nodes it rewired and walks further only when the
//! pair's consumer hands on something new.

// Every transition ends in this walk; see `crate::transition`.
#![cfg_attr(not(test), deny(clippy::expect_used))]

use std::borrow::Cow;

use crate::error::{CoreError, Result};
use crate::graph::{Graph, Node, NodeId};
use crate::recordset::Recordset;
use crate::schema::Schema;

/// A failed regeneration: the node whose schemata could not be derived,
/// and why. Transitions report that node in their applicability error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegenFailure {
    /// The node the walk was deriving when it failed.
    pub node: NodeId,
    /// The underlying error.
    pub error: CoreError,
}

/// Re-derive all schemata from source recordsets forward. Intermediate
/// recordsets adopt the schema of the flow written into them; *target*
/// schemata are validated by [`crate::workflow::Workflow::validate`], not
/// here, so the regeneration itself stays role-agnostic.
///
/// This is the from-scratch reference: every node is re-derived, whatever
/// its stored schemata say.
pub fn regenerate(graph: &mut Graph) -> Result<()> {
    let order = graph.topo_order()?;
    regenerate_nodes(graph, &order, Reach::All, &mut Vec::new())
        .map(drop)
        .map_err(|f| f.error)
}

/// Re-derive schemata only where a transition that rewired `starts` can
/// have changed them — the incremental form used after a transition, where
/// everything upstream of the rewired nodes is untouched by construction.
///
/// The walk visits the nodes downstream of `starts` in topological order
/// but *follows changes*: a node is refreshed only if it is one of `starts`,
/// reads one of them, or reads a node whose output this walk changed. Every
/// other node is skipped without a schema being looked at (§4.1's "only the
/// path from the affected activities towards the targets changes", applied
/// to schemata — after most swaps the pair's combined output is what it
/// was, and nothing further down is touched, compared or cloned).
///
/// This rests on the invariant the transitions already keep: the state they
/// rewire is validated, so every node stores exactly its providers'
/// outputs, and every edge a transition cuts or adds ends at one of
/// `starts` or at a direct consumer of one. A node past that first hop
/// therefore reads the providers it read before, and its stored inputs can
/// only be stale if one of those providers' outputs changed in this walk.
///
/// The first hop is forced, not change-driven, because "same inputs ⇒ same
/// output" presumes the stored output was derived from the stored inputs.
/// That holds for every node the transition did not create, but not for one
/// it just inserted: FAC places a fresh activity (copied inputs, *empty*
/// output) after the binary, possibly in a recycled arena slot that is not
/// among `starts`.
pub fn regenerate_downstream(
    graph: &mut Graph,
    starts: &[NodeId],
) -> std::result::Result<(), RegenFailure> {
    let dirty = walk_from(graph, starts)?;
    regenerate_along(graph, starts, &dirty, &mut Vec::new())
}

/// [`downstream_of`] with an ordering failure blamed on a node.
fn walk_from(graph: &Graph, starts: &[NodeId]) -> std::result::Result<Vec<NodeId>, RegenFailure> {
    downstream_of(graph, starts).map_err(|error| {
        let node = match error {
            CoreError::CyclicGraph { node } | CoreError::UnknownNode(node) => node,
            // The ordering raises nothing else; blame the first rewired node.
            _ => starts.first().copied().unwrap_or(NodeId(0)),
        };
        RegenFailure { node, error }
    })
}

/// [`regenerate_downstream`] with the walk precomputed: `dirty` is
/// [`downstream_of`] some superset of `starts`, in topological order. The
/// searches share one such list between re-tokening, regeneration and
/// repricing; nodes of it that no change reaches are skipped, so a superset
/// derives exactly what the walk from `starts` alone would. Every target
/// the walk reaches is appended to `targets`.
pub(crate) fn regenerate_along(
    graph: &mut Graph,
    starts: &[NodeId],
    dirty: &[NodeId],
    targets: &mut Vec<NodeId>,
) -> std::result::Result<(), RegenFailure> {
    regenerate_nodes(graph, dirty, Reach::From(starts), targets).map(drop)
}

/// [`regenerate_downstream`] after a swap rewired `p → first → second → c`
/// into `p → second → first → c`, paid for by the three nodes whose
/// providers changed. `second`, `first` and `c` are refreshed in that
/// (topological) order, forced as a walk's first hop always is — but as
/// nodes of the pre-state, not new ones ([`Reach::Moved`]), so one whose
/// inputs came out the same keeps its output. Past `c` the walk goes on
/// only if `c`'s output changed: nothing else reads the pair (each of the
/// two has `c`, or the other, as its one consumer), so otherwise no node
/// further down can read a changed provider. That continuation follows
/// changes from `c` exactly as the walk from the pair would. `rest` is it,
/// precomputed: [`downstream_of`] `c` without `c` itself, which the
/// searches hold as the tail of their dirty list; `None` walks it here.
/// Every target the walk reaches is appended to `targets`.
pub(crate) fn regenerate_swap(
    graph: &mut Graph,
    [second, first, c]: [NodeId; 3],
    rest: Option<&[NodeId]>,
    targets: &mut Vec<NodeId>,
) -> std::result::Result<(), RegenFailure> {
    if !regenerate_nodes(graph, &[second, first, c], Reach::Moved, targets)? {
        return Ok(());
    }
    let walked;
    let rest = match rest {
        Some(rest) => rest,
        None => {
            walked = walk_from(graph, &[c])?;
            walked.get(1..).unwrap_or_default()
        }
    };
    regenerate_nodes(graph, rest, Reach::From(&[c]), targets).map(drop)
}

/// What [`regenerate_swap`] would make of a swap, judged by [`judge_swap`]
/// before the swap is built.
pub(crate) enum Judged<'g> {
    /// The consumer hands on what it handed on before: the walk ends there.
    Contained,
    /// The consumer is a target that keeps its declared schema and would
    /// receive this flow, for the caller to check against it.
    IntoTarget(&'g Recordset, Cow<'g, Schema>),
    /// The consumer's output would change: the walk goes on past it, and
    /// only the built successor says where it ends.
    Escapes,
}

/// [`regenerate_swap`]'s three nodes, refreshed on the *unrewired* graph:
/// `overlay` is the swap's three provider edges `(node, port, provider)` —
/// `second`, `first` and their consumer `c`, in that order — read over the
/// graph's ([`View`]), and every derived schema stays in a local. Each node
/// is refreshed by [`refresh`] as [`Reach::Moved`] refreshes it, and a
/// failure is blamed on the node the walk would blame. The graph is a
/// validated state, so nothing past `c` can change unless `c`'s output
/// does; that is the one case the caller has to build the successor to
/// judge.
pub(crate) fn judge_swap<'g>(
    graph: &'g Graph,
    overlay: &[(NodeId, usize, NodeId); 3],
) -> std::result::Result<Judged<'g>, RegenFailure> {
    let [(second, ..), (first, ..), (c, ..)] = *overlay;
    let second_out = moved_output(graph, second, View::new(overlay, &[]))?;
    let first_out = moved_output(graph, first, View::new(overlay, &[(second, &second_out)]))?;
    let at_c = |error: CoreError| RegenFailure { node: c, error };
    let update = refresh(graph, c, true, View::new(overlay, &[(first, &first_out)]));
    Ok(match update.map_err(at_c)? {
        Some(Update::Activity(.., true) | Update::Recordset(_)) => Judged::Escapes,
        Some(Update::Activity(.., false)) => Judged::Contained,
        // A target keeps its declared schema, whatever flows in.
        None => match graph.node(c).map_err(at_c)? {
            Node::Recordset(rs)
                if !rs.schema.is_empty() && graph.consumers(c).map_err(at_c)?.is_empty() =>
            {
                Judged::IntoTarget(rs, first_out)
            }
            _ => Judged::Contained,
        },
    })
}

/// Activity `id`'s output as [`Reach::Moved`] would refresh it, its ports
/// read through `view`.
fn moved_output<'g>(
    graph: &'g Graph,
    id: NodeId,
    view: View,
) -> std::result::Result<Cow<'g, Schema>, RegenFailure> {
    let fail = |error: CoreError| RegenFailure { node: id, error };
    Ok(match refresh(graph, id, true, view).map_err(fail)? {
        Some(Update::Activity(_, output, _)) => Cow::Owned(output),
        _ => Cow::Borrowed(graph.node(id).map_err(fail)?.output_schema()),
    })
}

/// Which nodes of its order a regeneration walk refreshes, and how.
#[derive(Clone, Copy)]
enum Reach<'a> {
    /// Every node, each output re-derived: the from-scratch reference.
    All,
    /// Every node, but one whose inputs come out the same keeps its
    /// output: the nodes are the pre-state's, each storing the output its
    /// stored inputs derive (a swap moves nodes, it creates none).
    Moved,
    /// The rewired nodes and their direct consumers, forced and re-derived
    /// (a FAC may have just created one, with no output yet), and beyond
    /// them consumers of a node whose output the walk changed.
    From(&'a [NodeId]),
}

/// What [`refresh`] found a node's schemata should become.
enum Update {
    /// Whether the inputs are fresh (the stored ones no longer hold), the
    /// output, and whether that output differs from the stored one.
    Activity(bool, Schema, bool),
    Recordset(Schema),
}

/// How [`refresh`] reads a node's ports: the graph's provider edges with
/// `overlay`'s `(node, port, provider)` written over them, and a
/// provider's output from `local` when it is there, else from the graph.
/// The regeneration walks read the graph as it is; [`judge_swap`] reads a
/// swap it has not made.
#[derive(Clone, Copy, Default)]
struct View<'v> {
    overlay: &'v [(NodeId, usize, NodeId)],
    local: &'v [(NodeId, &'v Schema)],
}

impl<'v> View<'v> {
    fn new(overlay: &'v [(NodeId, usize, NodeId)], local: &'v [(NodeId, &'v Schema)]) -> Self {
        View { overlay, local }
    }

    /// Provider `p`'s output.
    fn output<'a>(&self, graph: &'a Graph, p: NodeId) -> Result<&'a Schema>
    where
        'v: 'a,
    {
        match self.local.iter().find(|(id, _)| *id == p) {
            Some((_, local)) => Ok(local),
            None => Ok(graph.node(p)?.output_schema()),
        }
    }
}

/// Walk `order` (topological), refreshing the nodes `reach` selects from
/// their providers' current outputs. Each target (a recordset nothing
/// reads) the walk refreshes is appended to `targets`. Returns whether the
/// walk changed the output of `order`'s last node.
fn regenerate_nodes(
    graph: &mut Graph,
    order: &[NodeId],
    reach: Reach,
    targets: &mut Vec<NodeId>,
) -> std::result::Result<bool, RegenFailure> {
    let cap = graph.slot_capacity();
    CHANGED.with(|cell| match cell.try_borrow_mut() {
        Ok(mut changed) => {
            if changed.len() < cap {
                changed.resize(cap, false);
            }
            let out = regenerate_marking(graph, order, reach, targets, &mut changed);
            // Only nodes of `order` are ever marked.
            for id in order {
                if let Some(mark) = changed.get_mut(id.0 as usize) {
                    *mark = false;
                }
            }
            out
        }
        Err(_) => regenerate_marking(graph, order, reach, targets, &mut vec![false; cap]),
    })
}

thread_local! {
    /// The slot-indexed "this walk changed the node's output" marks of
    /// [`regenerate_nodes`], all `false` between walks.
    static CHANGED: std::cell::RefCell<Vec<bool>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// [`regenerate_nodes`] with its marks table: `changed` is slot-indexed,
/// covers every slot, and reads `false` for every node of `order`.
fn regenerate_marking(
    graph: &mut Graph,
    order: &[NodeId],
    reach: Reach,
    targets: &mut Vec<NodeId>,
    changed: &mut [bool],
) -> std::result::Result<bool, RegenFailure> {
    let kept = matches!(reach, Reach::Moved);
    let mut last_changed = false;
    for &id in order {
        let fail = |error: CoreError| RegenFailure { node: id, error };
        if let Reach::From(starts) = reach {
            let reached = starts.contains(&id)
                || graph
                    .providers(id)
                    .map_err(fail)?
                    .iter()
                    .flatten()
                    .any(|p| {
                        starts.contains(p) || changed.get(p.0 as usize).copied().unwrap_or(false)
                    });
            if !reached {
                last_changed = false;
                continue;
            }
        }
        // Derive from the *current* node first and mutate only on change:
        // `node_mut` is copy-on-write, so an unconditional write would
        // detach every node's `Arc` from sibling states and turn the cheap
        // structural-sharing clone back into a deep copy.
        let output_changed = match refresh(graph, id, kept, View::default()).map_err(fail)? {
            Some(Update::Activity(fresh, output, output_changed)) => {
                let inputs = if fresh {
                    Some(stored_inputs(graph, id).map_err(fail)?)
                } else {
                    None
                };
                if let Node::Activity(act) = graph.node_mut(id).map_err(fail)? {
                    if let Some((inputs, n)) = inputs {
                        act.inputs.clear();
                        act.inputs.extend(inputs.into_iter().take(n));
                    }
                    act.output = output;
                }
                output_changed
            }
            Some(Update::Recordset(s)) => {
                if let Node::Recordset(rs) = graph.node_mut(id).map_err(fail)? {
                    rs.schema = s;
                }
                true
            }
            None => false,
        };
        if matches!(graph.node(id), Ok(Node::Recordset(_)))
            && graph.consumers(id).map_err(fail)?.is_empty()
        {
            targets.push(id);
        }
        if let Some(mark) = changed.get_mut(id.0 as usize) {
            *mark = output_changed;
        }
        last_changed = output_changed;
    }
    Ok(last_changed)
}

/// The schemata node `id` should carry given its providers' current
/// outputs, read through `view`, or `None` when it already carries them.
/// With `kept`, an activity whose inputs are unchanged is taken to carry
/// its output.
fn refresh(graph: &Graph, id: NodeId, kept: bool, view: View) -> Result<Option<Update>> {
    let (ports, n) = graph.providers_with(id, view.overlay)?;
    match graph.node(id)? {
        Node::Activity(act) => {
            // Compare by reference; the caller clones a provider's schema
            // only when it has to be stored.
            let mut flows = [&act.output; 2];
            for (port, p) in ports[..n].iter().enumerate() {
                let pid = p.ok_or(CoreError::MissingProvider { node: id, port })?;
                flows[port] = view.output(graph, pid)?;
            }
            let flows = &flows[..n];
            let same_inputs =
                act.inputs.len() == n && act.inputs.iter().zip(flows).all(|(i, f)| i == *f);
            if same_inputs && kept {
                return Ok(None);
            }
            let output = if same_inputs {
                act.derive_output(&act.inputs)?
            } else {
                act.derive_output(flows)?
            };
            let output_changed = act.output != output;
            Ok((!same_inputs || output_changed).then_some(Update::Activity(
                !same_inputs,
                output,
                output_changed,
            )))
        }
        Node::Recordset(rs) => {
            // An intermediate recordset materializes exactly what flows
            // in. A *target* with a declared schema keeps it: the flow must
            // match (equivalence condition (a), §3.4) and
            // `Workflow::validate` rejects the state otherwise. A target
            // declared without a schema adopts the flow as a convenience.
            let is_target = graph.consumers(id)?.is_empty();
            let keep_declared = is_target && !rs.schema.is_empty();
            let Some(Some(pid)) = ports[..n].first() else {
                return Ok(None);
            };
            let flow = view.output(graph, *pid)?;
            Ok((!keep_declared && !rs.schema.same_attrs(flow))
                .then(|| Update::Recordset(flow.clone())))
        }
    }
}

/// Node `id`'s providers' outputs, one per connected port (at most two:
/// the widest operator is binary), shared, to be stored as its inputs.
fn stored_inputs(graph: &Graph, id: NodeId) -> Result<([Schema; 2], usize)> {
    let mut inputs = [Schema::empty(), Schema::empty()];
    let mut n = 0;
    for (slot, p) in inputs.iter_mut().zip(graph.providers(id)?.iter().flatten()) {
        *slot = graph.node(*p)?.output_schema().clone();
        n += 1;
    }
    Ok((inputs, n))
}

/// Nodes reachable downstream of `start` (inclusive), in topological order.
/// Used by the incremental state evaluation (§4.1): after a transition only
/// the path from the affected activities towards the targets changes.
///
/// Runs in O(dirty subgraph), not O(whole workflow): a consumer-edge sweep
/// collects the reachable set, then a Kahn walk *restricted to that set*
/// orders it (a dirty node is ready once all its dirty providers are
/// ordered — its clean providers are upstream of every start node by
/// construction). The min-heap keeps the order deterministic, mirroring
/// [`Graph::topo_order`]. Dead start ids are skipped, so callers may pass
/// `affected` lists naming slots a transition has since freed. The only
/// allocation is the returned list: the walk's marks, stack and heap are
/// the calling thread's `Walk`, reset after every use.
pub fn downstream_of(graph: &Graph, start: &[NodeId]) -> Result<Vec<NodeId>> {
    let mut out = Vec::new();
    downstream_into(graph, start, &mut out)?;
    Ok(out)
}

/// [`downstream_of`] written over `out`, which a caller that walks once
/// per candidate keeps, so that no walk allocates once it has grown.
pub(crate) fn downstream_into(
    graph: &Graph,
    start: &[NodeId],
    out: &mut Vec<NodeId>,
) -> Result<()> {
    WALK.with(|walk| match walk.try_borrow_mut() {
        Ok(mut walk) => walk.run(graph, start, out),
        Err(_) => Walk::new().run(graph, start, out),
    })
}

thread_local! {
    static WALK: std::cell::RefCell<Walk> = const { std::cell::RefCell::new(Walk::new()) };
}

/// The working memory of [`downstream_of`]. Between walks every `reached`
/// mark is `false` and every `indegree` 0; a walk clears exactly the slots
/// it set, so it costs O(dirty subgraph) however large the tables grew.
struct Walk {
    reached: Vec<bool>,
    indegree: Vec<usize>,
    stack: Vec<NodeId>,
    members: Vec<NodeId>,
    heap: std::collections::BinaryHeap<std::cmp::Reverse<NodeId>>,
}

impl Walk {
    const fn new() -> Self {
        Walk {
            reached: Vec::new(),
            indegree: Vec::new(),
            stack: Vec::new(),
            members: Vec::new(),
            heap: std::collections::BinaryHeap::new(),
        }
    }

    fn run(&mut self, graph: &Graph, start: &[NodeId], out: &mut Vec<NodeId>) -> Result<()> {
        let cap = graph.slot_capacity();
        if self.reached.len() < cap {
            self.reached.resize(cap, false);
            self.indegree.resize(cap, 0);
        }
        let done = self.order(graph, start, out);
        // A failed walk can leave marks on the stack as well as on members.
        for id in self.stack.drain(..).chain(self.members.drain(..)) {
            self.reached[id.0 as usize] = false;
            self.indegree[id.0 as usize] = 0;
        }
        self.heap.clear();
        done
    }

    fn order(&mut self, graph: &Graph, start: &[NodeId], out: &mut Vec<NodeId>) -> Result<()> {
        use std::cmp::Reverse;
        let cap = graph.slot_capacity();
        let Walk {
            reached,
            indegree,
            stack,
            members,
            heap,
        } = self;
        for &id in start {
            if (id.0 as usize) < cap && graph.contains(id) && !reached[id.0 as usize] {
                reached[id.0 as usize] = true;
                stack.push(id);
            }
        }
        while let Some(id) = stack.pop() {
            members.push(id);
            for &c in graph.consumers(id)? {
                if !reached[c.0 as usize] {
                    reached[c.0 as usize] = true;
                    stack.push(c);
                }
            }
        }
        // Indegree counted per edge among dirty providers only (a consumer
        // may read the same provider on both ports, exactly as in
        // `topo_order`).
        for &id in members.iter() {
            let d = graph
                .providers(id)?
                .iter()
                .flatten()
                .filter(|p| reached[p.0 as usize])
                .count();
            indegree[id.0 as usize] = d;
            if d == 0 {
                heap.push(Reverse(id));
            }
        }
        out.clear();
        out.reserve(members.len());
        while let Some(Reverse(id)) = heap.pop() {
            out.push(id);
            for &c in graph.consumers(id)? {
                let slot = c.0 as usize;
                if reached[slot] {
                    indegree[slot] -= 1;
                    if indegree[slot] == 0 {
                        heap.push(Reverse(c));
                    }
                }
            }
        }
        if out.len() != members.len() {
            let stuck = members
                .iter()
                .copied()
                .find(|id| indegree[id.0 as usize] > 0)
                .unwrap_or(NodeId(0));
            return Err(CoreError::CyclicGraph { node: stuck });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{binary, unary};
    use crate::predicate::Predicate;
    use crate::recordset::Recordset;
    use crate::semantics::{BinaryOp, UnaryOp};

    #[test]
    fn propagates_through_chain() {
        let mut g = Graph::new();
        let s = g.add_recordset(Recordset::table("S", Schema::of(["pkey", "dollar_cost"])));
        let f = g.add_activity(unary(
            1,
            "$2E",
            UnaryOp::function("dollar2euro", ["dollar_cost"], "euro_cost"),
        ));
        let t = g.add_recordset(Recordset::table("T", Schema::empty()));
        g.connect(s, f, 0).unwrap();
        g.connect(f, t, 0).unwrap();
        regenerate(&mut g).unwrap();
        let act = g.activity(f).unwrap();
        assert_eq!(act.inputs[0], Schema::of(["pkey", "dollar_cost"]));
        assert_eq!(act.output, Schema::of(["pkey", "euro_cost"]));
        assert_eq!(
            g.recordset(t).unwrap().schema,
            Schema::of(["pkey", "euro_cost"])
        );
    }

    #[test]
    fn fails_when_functionality_unsatisfied() {
        let mut g = Graph::new();
        let s = g.add_recordset(Recordset::table("S", Schema::of(["pkey"])));
        let f = g.add_activity(unary(1, "σ", UnaryOp::filter(Predicate::gt("cost", 1))));
        let t = g.add_recordset(Recordset::table("T", Schema::empty()));
        g.connect(s, f, 0).unwrap();
        g.connect(f, t, 0).unwrap();
        assert!(regenerate(&mut g).is_err());
    }

    #[test]
    fn recordset_keeps_declared_order_when_same_set() {
        let mut g = Graph::new();
        let s = g.add_recordset(Recordset::table("S", Schema::of(["a", "b"])));
        let t = g.add_recordset(Recordset::table("T", Schema::of(["b", "a"])));
        g.connect(s, t, 0).unwrap();
        regenerate(&mut g).unwrap();
        assert_eq!(g.recordset(t).unwrap().schema, Schema::of(["b", "a"]));
    }

    #[test]
    fn binary_inputs_both_propagate() {
        let mut g = Graph::new();
        let s1 = g.add_recordset(Recordset::table("S1", Schema::of(["a"])));
        let s2 = g.add_recordset(Recordset::table("S2", Schema::of(["a"])));
        let u = g.add_activity(binary(1, "U", BinaryOp::Union));
        let t = g.add_recordset(Recordset::table("T", Schema::empty()));
        g.connect(s1, u, 0).unwrap();
        g.connect(s2, u, 1).unwrap();
        g.connect(u, t, 0).unwrap();
        regenerate(&mut g).unwrap();
        assert_eq!(g.activity(u).unwrap().output, Schema::of(["a"]));
    }

    #[test]
    fn downstream_of_walks_to_targets() {
        let mut g = Graph::new();
        let s = g.add_recordset(Recordset::table("S", Schema::of(["a"])));
        let f1 = g.add_activity(unary(1, "σ1", UnaryOp::filter(Predicate::True)));
        let f2 = g.add_activity(unary(2, "σ2", UnaryOp::filter(Predicate::True)));
        let t = g.add_recordset(Recordset::table("T", Schema::empty()));
        g.connect(s, f1, 0).unwrap();
        g.connect(f1, f2, 0).unwrap();
        g.connect(f2, t, 0).unwrap();
        let down = downstream_of(&g, &[f2]).unwrap();
        assert_eq!(down, vec![f2, t]);
        let all = downstream_of(&g, &[s]).unwrap();
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn a_failed_walk_leaves_the_next_one_exact() {
        // The walk's marks live in a per-thread table: a walk that fails
        // on a cycle, or one over a larger arena, must not leak into the
        // next walk.
        let chain = |n: u32| {
            let mut g = Graph::new();
            let mut last = g.add_recordset(Recordset::table("S", Schema::of(["a"])));
            for i in 0..n {
                let f = g.add_activity(unary(i + 1, "σ", UnaryOp::filter(Predicate::True)));
                g.connect(last, f, 0).unwrap();
                last = f;
            }
            g
        };
        let reference = downstream_of(&chain(3), &[NodeId(1)]).unwrap();
        assert_eq!(reference, vec![NodeId(1), NodeId(2), NodeId(3)]);

        // σ1 reads σ12 instead of S: σ1 … σ12 is a cycle.
        let mut cyclic = chain(12);
        cyclic.disconnect(NodeId(1), 0).unwrap();
        cyclic.connect(NodeId(12), NodeId(1), 0).unwrap();
        assert!(matches!(
            downstream_of(&cyclic, &[NodeId(5)]),
            Err(CoreError::CyclicGraph { .. })
        ));
        assert_eq!(downstream_of(&chain(12), &[NodeId(0)]).unwrap().len(), 13);
        assert_eq!(downstream_of(&chain(3), &[NodeId(1)]).unwrap(), reference);
    }
}
