//! The workflow graph: a directed acyclic graph of activities and
//! recordsets connected by data-provider edges (§2.1).
//!
//! Implemented as a slot arena so that node ids stay stable while
//! transitions add and remove nodes, and so that cloning a whole state (the
//! basic move of state-space search) is a flat memcpy-ish `Vec` clone with
//! shared `Arc` attribute names underneath.
//!
//! Edges are stored on the consumer side as *ports*: an activity with two
//! input schemata has two ports, each fed by exactly one provider (the
//! paper's one-provider-per-input-schema rule; fan-in is expressed with
//! UNION activities). Consumer lists are kept denormalized on the provider
//! for O(1) "who reads me" queries during applicability checks.

use std::fmt;

use crate::activity::Activity;
use crate::error::{CoreError, Result};
use crate::recordset::Recordset;
use crate::schema::Schema;

/// Index of a node in the graph arena. Stable across transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A node: either an activity or a recordset.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Processing node.
    Activity(Activity),
    /// Data-store node.
    Recordset(Recordset),
}

impl Node {
    /// The node's output schema: an activity's output, a recordset's schema.
    #[inline]
    pub fn output_schema(&self) -> &Schema {
        match self {
            Node::Activity(a) => &a.output,
            Node::Recordset(r) => &r.schema,
        }
    }

    /// Number of input ports (activities: arity; recordsets: one optional
    /// writer port).
    pub fn arity(&self) -> usize {
        match self {
            Node::Activity(a) => a.op.arity(),
            Node::Recordset(_) => 1,
        }
    }

    /// View as activity.
    #[inline]
    pub fn as_activity(&self) -> Option<&Activity> {
        match self {
            Node::Activity(a) => Some(a),
            Node::Recordset(_) => None,
        }
    }

    /// View as recordset.
    pub fn as_recordset(&self) -> Option<&Recordset> {
        match self {
            Node::Recordset(r) => Some(r),
            Node::Activity(_) => None,
        }
    }

    /// Display label.
    pub fn label(&self) -> &str {
        match self {
            Node::Activity(a) => &a.label,
            Node::Recordset(r) => &r.name,
        }
    }
}

/// Provider ports, stored inline — every node has at most two input ports
/// (unary/binary activities, one writer port for recordsets), so a `Copy`
/// array beats a heap `Vec` in the clone-per-generated-state hot loop.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ports {
    len: u8,
    slots: [Option<NodeId>; 2],
}

impl Ports {
    fn new(arity: usize) -> Self {
        assert!(arity <= 2, "node arity beyond 2 is unsupported");
        Ports {
            len: arity as u8,
            slots: [None, None],
        }
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    fn as_slice(&self) -> &[Option<NodeId>] {
        &self.slots[..self.len as usize]
    }

    fn set(&mut self, port: usize, value: Option<NodeId>) {
        self.slots[..self.len as usize][port] = value;
    }

    fn take(&mut self, port: usize) -> Option<NodeId> {
        self.slots[..self.len as usize][port].take()
    }
}

/// Consumer list with inline capacity for the common ≤ 2 fan-out; spills to
/// the heap beyond that. Keeps `Slot::clone` allocation-free for typical
/// workflow shapes.
#[derive(Debug, Clone)]
enum Consumers {
    Inline(u8, [NodeId; 2]),
    Heap(Vec<NodeId>),
}

impl Consumers {
    /// Placeholder for unused inline cells; never observable through
    /// `as_slice`.
    const NONE: NodeId = NodeId(u32::MAX);

    fn new() -> Self {
        Consumers::Inline(0, [Self::NONE; 2])
    }

    #[inline]
    fn as_slice(&self) -> &[NodeId] {
        match self {
            Consumers::Inline(len, items) => &items[..*len as usize],
            Consumers::Heap(v) => v,
        }
    }

    fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    fn push(&mut self, id: NodeId) {
        match self {
            Consumers::Inline(len, items) if (*len as usize) < items.len() => {
                items[*len as usize] = id;
                *len += 1;
            }
            Consumers::Inline(len, items) => {
                let mut v = Vec::with_capacity(*len as usize + 2);
                v.extend_from_slice(&items[..*len as usize]);
                v.push(id);
                *self = Consumers::Heap(v);
            }
            Consumers::Heap(v) => v.push(id),
        }
    }

    /// Remove the first occurrence of `id`, if present.
    fn remove_first(&mut self, id: NodeId) {
        match self {
            Consumers::Inline(len, items) => {
                let n = *len as usize;
                if let Some(pos) = items[..n].iter().position(|x| *x == id) {
                    items.copy_within(pos + 1..n, pos);
                    items[n - 1] = Self::NONE;
                    *len -= 1;
                }
            }
            Consumers::Heap(v) => {
                if let Some(pos) = v.iter().position(|x| *x == id) {
                    v.remove(pos);
                }
            }
        }
    }
}

impl PartialEq for Consumers {
    // Logical equality: a once-spilled list that shrank back equals the
    // inline list with the same elements.
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Slot {
    /// The node payload, shared copy-on-write across cloned states:
    /// cloning a whole workflow (the basic move of state-space search) is
    /// a refcount bump per node; mutation goes through [`Arc::make_mut`]
    /// and clones only the touched node.
    node: std::sync::Arc<Node>,
    /// Provider per input port; `None` = not yet connected (sources keep
    /// their single port empty forever).
    preds: Ports,
    /// Consumers (denormalized; may repeat a node that reads us on both of
    /// its ports).
    succs: Consumers,
}

/// The workflow DAG.
#[derive(Debug, PartialEq, Default)]
pub struct Graph {
    slots: Vec<Option<Slot>>,
}

impl Clone for Graph {
    /// A copy with room for one more slot: a search clones a state to
    /// rewire it, and the DIS among those rewirings adds two nodes where it
    /// removes one — without the room, the copied arena would be copied
    /// again to grow.
    fn clone(&self) -> Self {
        let mut slots = Vec::with_capacity(self.slots.len() + 1);
        slots.extend(self.slots.iter().cloned());
        Graph { slots }
    }
}

impl Graph {
    /// Empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Is the graph empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of arena slots (live **or** freed). Slot-indexed side tables
    /// (row counts, per-node hashes) size themselves by this, so a `NodeId`
    /// of any live node is always in bounds.
    #[inline]
    pub fn slot_capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of live activity nodes.
    pub fn activity_count(&self) -> usize {
        self.iter()
            .filter(|(_, n)| matches!(n, Node::Activity(_)))
            .count()
    }

    /// Add an activity node.
    pub fn add_activity(&mut self, a: Activity) -> NodeId {
        self.add_node(Node::Activity(a))
    }

    /// Add a recordset node.
    pub fn add_recordset(&mut self, r: Recordset) -> NodeId {
        self.add_node(Node::Recordset(r))
    }

    fn add_node(&mut self, node: Node) -> NodeId {
        let arity = node.arity();
        let slot = Slot {
            node: std::sync::Arc::new(node),
            preds: Ports::new(arity),
            succs: Consumers::new(),
        };
        // Reuse a free slot if any, else append.
        if let Some(idx) = self.slots.iter().position(|s| s.is_none()) {
            self.slots[idx] = Some(slot);
            NodeId(idx as u32)
        } else {
            self.slots.push(Some(slot));
            NodeId(self.slots.len() as u32 - 1)
        }
    }

    // The one-line accessors below are `#[inline]`: the searches' walks call
    // them per node from other modules (and the engine from another crate),
    // and without LTO a plain function is inlined there only when it happens
    // to share a codegen unit with its caller.
    #[inline]
    fn slot(&self, id: NodeId) -> Result<&Slot> {
        self.slots
            .get(id.0 as usize)
            .and_then(|s| s.as_ref())
            .ok_or(CoreError::UnknownNode(id))
    }

    #[inline]
    fn slot_mut(&mut self, id: NodeId) -> Result<&mut Slot> {
        self.slots
            .get_mut(id.0 as usize)
            .and_then(|s| s.as_mut())
            .ok_or(CoreError::UnknownNode(id))
    }

    /// Does `id` refer to a live node?
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        self.slot(id).is_ok()
    }

    /// Immutable node access.
    #[inline]
    pub fn node(&self, id: NodeId) -> Result<&Node> {
        Ok(&self.slot(id)?.node)
    }

    /// Mutable node access (copy-on-write: a node shared with cloned
    /// states is detached here).
    pub fn node_mut(&mut self, id: NodeId) -> Result<&mut Node> {
        Ok(std::sync::Arc::make_mut(&mut self.slot_mut(id)?.node))
    }

    /// The shared handle of the node payload: a refusal carries it instead
    /// of a copy, and the structural-sharing tests check that a transition
    /// left untouched nodes `Arc::ptr_eq` with the originating state's.
    pub(crate) fn node_arc(&self, id: NodeId) -> Result<&std::sync::Arc<Node>> {
        Ok(&self.slot(id)?.node)
    }

    /// The activity at `id`, or an error if it is a recordset / missing.
    #[inline]
    pub fn activity(&self, id: NodeId) -> Result<&Activity> {
        self.node(id)?
            .as_activity()
            .ok_or(CoreError::UnknownNode(id))
    }

    /// Mutable activity access.
    pub fn activity_mut(&mut self, id: NodeId) -> Result<&mut Activity> {
        match self.node_mut(id)? {
            Node::Activity(a) => Ok(a),
            Node::Recordset(_) => Err(CoreError::UnknownNode(id)),
        }
    }

    /// The recordset at `id`, or an error.
    #[inline]
    pub fn recordset(&self, id: NodeId) -> Result<&Recordset> {
        self.node(id)?
            .as_recordset()
            .ok_or(CoreError::UnknownNode(id))
    }

    /// Connect `from` to input `port` of `to`. Fails if the port is already
    /// fed (one provider per input schema, §2.1).
    pub fn connect(&mut self, from: NodeId, to: NodeId, port: usize) -> Result<()> {
        // Validate both endpoints first.
        self.slot(from)?;
        let to_slot = self.slot(to)?;
        if port >= to_slot.preds.len() {
            return Err(CoreError::MissingProvider { node: to, port });
        }
        if to_slot.preds.as_slice()[port].is_some() {
            return Err(CoreError::DuplicateProvider { node: to, port });
        }
        self.slot_mut(to)?.preds.set(port, Some(from));
        self.slot_mut(from)?.succs.push(to);
        Ok(())
    }

    /// Disconnect input `port` of `to`; returns the former provider.
    pub fn disconnect(&mut self, to: NodeId, port: usize) -> Result<Option<NodeId>> {
        let prev = {
            let slot = self.slot_mut(to)?;
            if port >= slot.preds.len() {
                return Err(CoreError::MissingProvider { node: to, port });
            }
            slot.preds.take(port)
        };
        if let Some(from) = prev {
            self.slot_mut(from)?.succs.remove_first(to);
        }
        Ok(prev)
    }

    /// Remove a fully disconnected node. The node itself is dropped: a
    /// state's nodes are shared with its parent, so handing it back would
    /// cost a deep copy that no rewire reads.
    pub fn remove(&mut self, id: NodeId) -> Result<()> {
        let slot = self.slot(id)?;
        if slot.preds.as_slice().iter().any(Option::is_some) || !slot.succs.is_empty() {
            return Err(CoreError::DanglingOutput(id));
        }
        if let Some(slot) = self.slots.get_mut(id.0 as usize) {
            *slot = None;
        }
        Ok(())
    }

    /// Provider of input `port` of `id`.
    #[inline]
    pub fn provider(&self, id: NodeId, port: usize) -> Result<Option<NodeId>> {
        let slot = self.slot(id)?;
        slot.preds
            .as_slice()
            .get(port)
            .copied()
            .ok_or(CoreError::MissingProvider { node: id, port })
    }

    /// All providers of `id`, one entry per port.
    #[inline]
    pub fn providers(&self, id: NodeId) -> Result<&[Option<NodeId>]> {
        Ok(self.slot(id)?.preds.as_slice())
    }

    /// [`Graph::providers`] with every edge `(node, port, provider)` of
    /// `overlay` that ends at `id` written over its port, and the port
    /// count (at most two: the widest operator is binary). The searches
    /// read a successor's wiring this way before they build it.
    pub(crate) fn providers_with(
        &self,
        id: NodeId,
        overlay: &[(NodeId, usize, NodeId)],
    ) -> Result<([Option<NodeId>; 2], usize)> {
        let providers = self.providers(id)?;
        let mut ports = [None; 2];
        let n = providers.len().min(ports.len());
        ports[..n].copy_from_slice(&providers[..n]);
        for &(_, port, provider) in overlay.iter().filter(|edge| edge.0 == id) {
            if let Some(slot) = ports.get_mut(port) {
                *slot = Some(provider);
            }
        }
        Ok((ports, n))
    }

    /// All consumers of `id` (one entry per consuming port).
    #[inline]
    pub fn consumers(&self, id: NodeId) -> Result<&[NodeId]> {
        Ok(self.slot(id)?.succs.as_slice())
    }

    /// Which input port of `consumer` is fed by `provider`? Returns the
    /// first matching port.
    #[inline]
    pub fn port_of(&self, provider: NodeId, consumer: NodeId) -> Result<Option<usize>> {
        let slot = self.slot(consumer)?;
        Ok(slot
            .preds
            .as_slice()
            .iter()
            .position(|p| *p == Some(provider)))
    }

    /// Iterate over live nodes.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.as_ref()
                .map(|slot| (NodeId(i as u32), slot.node.as_ref()))
        })
    }

    /// All live node ids in arena order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.iter().map(|(id, _)| id).collect()
    }

    /// Kahn topological order over live nodes; fails on cycles. Ties are
    /// broken by arena index (min-heap) so the order is deterministic.
    /// Runs in O(E log V) — this is the hot loop of state-space search
    /// (schema regeneration, costing and validation all walk topologically).
    pub fn topo_order(&self) -> Result<Vec<NodeId>> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        // Indegree indexed directly by arena slot; dead slots stay 0/unused.
        let mut indegree: Vec<usize> = vec![0; self.slots.len()];
        let mut live = 0usize;
        let mut ready: BinaryHeap<Reverse<NodeId>> = BinaryHeap::new();
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            live += 1;
            let d = slot.preds.as_slice().iter().filter(|p| p.is_some()).count();
            indegree[i] = d;
            if d == 0 {
                ready.push(Reverse(NodeId(i as u32)));
            }
        }
        let mut order = Vec::with_capacity(live);
        while let Some(Reverse(next)) = ready.pop() {
            order.push(next);
            for &succ in self.slot(next)?.succs.as_slice() {
                // A consumer may read us on two ports: decrement per edge.
                let d = &mut indegree[succ.0 as usize];
                *d -= 1;
                if *d == 0 {
                    ready.push(Reverse(succ));
                }
            }
        }
        if order.len() != live {
            let stuck = self
                .node_ids()
                .into_iter()
                .find(|id| !order.contains(id))
                .unwrap_or(NodeId(0));
            return Err(CoreError::CyclicGraph { node: stuck });
        }
        Ok(order)
    }

    /// Nodes with no providers (graph sources).
    pub fn source_ids(&self) -> Vec<NodeId> {
        self.iter()
            .filter(|(id, _)| {
                self.slot(*id)
                    .map(|s| s.preds.as_slice().iter().all(Option::is_none))
                    .unwrap_or(false)
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// Nodes with no consumers (graph sinks).
    pub fn sink_ids(&self) -> Vec<NodeId> {
        self.iter()
            .filter(|(id, _)| self.slot(*id).map(|s| s.succs.is_empty()).unwrap_or(false))
            .map(|(id, _)| id)
            .collect()
    }

    /// Redirect every consumer of `old` to read from `new` instead,
    /// preserving ports. Used by transitions when substituting nodes.
    pub fn redirect_consumers(&mut self, old: NodeId, new: NodeId) -> Result<()> {
        let consumers: Vec<NodeId> = self.consumers(old)?.to_vec();
        for c in consumers {
            while let Some(port) = self.port_of(old, c)? {
                self.disconnect(c, port)?;
                self.connect(new, c, port)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{binary, unary};
    use crate::predicate::Predicate;
    use crate::semantics::{BinaryOp, UnaryOp};

    fn filter(id: u32) -> Activity {
        unary(id, "σ", UnaryOp::filter(Predicate::True))
    }

    fn rs(name: &str) -> Recordset {
        Recordset::table(name, Schema::of(["a"]))
    }

    #[test]
    fn add_connect_and_query() {
        let mut g = Graph::new();
        let s = g.add_recordset(rs("S"));
        let a = g.add_activity(filter(1));
        let t = g.add_recordset(rs("T"));
        g.connect(s, a, 0).unwrap();
        g.connect(a, t, 0).unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(g.provider(a, 0).unwrap(), Some(s));
        assert_eq!(g.consumers(a).unwrap(), &[t]);
        assert_eq!(g.source_ids(), vec![s]);
        assert_eq!(g.sink_ids(), vec![t]);
    }

    #[test]
    fn one_provider_per_port() {
        let mut g = Graph::new();
        let s1 = g.add_recordset(rs("S1"));
        let s2 = g.add_recordset(rs("S2"));
        let a = g.add_activity(filter(1));
        g.connect(s1, a, 0).unwrap();
        let err = g.connect(s2, a, 0).unwrap_err();
        assert!(matches!(err, CoreError::DuplicateProvider { .. }));
    }

    #[test]
    fn binary_activity_has_two_ports() {
        let mut g = Graph::new();
        let s1 = g.add_recordset(rs("S1"));
        let s2 = g.add_recordset(rs("S2"));
        let u = g.add_activity(binary(3, "U", BinaryOp::Union));
        g.connect(s1, u, 0).unwrap();
        g.connect(s2, u, 1).unwrap();
        assert_eq!(g.providers(u).unwrap(), &[Some(s1), Some(s2)]);
        assert_eq!(g.port_of(s2, u).unwrap(), Some(1));
    }

    #[test]
    fn connect_out_of_range_port_fails() {
        let mut g = Graph::new();
        let s = g.add_recordset(rs("S"));
        let a = g.add_activity(filter(1));
        assert!(g.connect(s, a, 1).is_err());
    }

    #[test]
    fn disconnect_and_remove() {
        let mut g = Graph::new();
        let s = g.add_recordset(rs("S"));
        let a = g.add_activity(filter(1));
        g.connect(s, a, 0).unwrap();
        // Cannot remove a connected node.
        assert!(g.remove(a).is_err());
        assert_eq!(g.disconnect(a, 0).unwrap(), Some(s));
        assert!(g.consumers(s).unwrap().is_empty());
        g.remove(a).unwrap();
        assert_eq!(g.len(), 1);
        assert!(!g.contains(a));
    }

    #[test]
    fn slot_reuse_after_removal() {
        let mut g = Graph::new();
        let a = g.add_activity(filter(1));
        g.remove(a).unwrap();
        let b = g.add_activity(filter(2));
        assert_eq!(a, b, "freed slot should be reused");
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn topo_order_is_deterministic_and_respects_edges() {
        let mut g = Graph::new();
        let s1 = g.add_recordset(rs("S1"));
        let s2 = g.add_recordset(rs("S2"));
        let f1 = g.add_activity(filter(1));
        let u = g.add_activity(binary(2, "U", BinaryOp::Union));
        let t = g.add_recordset(rs("T"));
        g.connect(s1, f1, 0).unwrap();
        g.connect(f1, u, 0).unwrap();
        g.connect(s2, u, 1).unwrap();
        g.connect(u, t, 0).unwrap();
        let order = g.topo_order().unwrap();
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(s1) < pos(f1));
        assert!(pos(f1) < pos(u));
        assert!(pos(s2) < pos(u));
        assert!(pos(u) < pos(t));
        assert_eq!(order, g.topo_order().unwrap());
    }

    #[test]
    fn cycle_detected() {
        let mut g = Graph::new();
        let a = g.add_activity(filter(1));
        let b = g.add_activity(filter(2));
        g.connect(a, b, 0).unwrap();
        g.connect(b, a, 0).unwrap();
        assert!(matches!(
            g.topo_order().unwrap_err(),
            CoreError::CyclicGraph { .. }
        ));
    }

    #[test]
    fn redirect_consumers_moves_all_edges() {
        let mut g = Graph::new();
        let old = g.add_recordset(rs("OLD"));
        let new = g.add_recordset(rs("NEW"));
        let a = g.add_activity(filter(1));
        let b = g.add_activity(filter(2));
        g.connect(old, a, 0).unwrap();
        g.connect(old, b, 0).unwrap();
        g.redirect_consumers(old, new).unwrap();
        assert!(g.consumers(old).unwrap().is_empty());
        assert_eq!(g.provider(a, 0).unwrap(), Some(new));
        assert_eq!(g.provider(b, 0).unwrap(), Some(new));
        let mut cons = g.consumers(new).unwrap().to_vec();
        cons.sort();
        assert_eq!(cons, vec![a, b]);
    }

    #[test]
    fn same_provider_on_both_ports() {
        // Self-join shape: one recordset feeding both ports of a binary op.
        let mut g = Graph::new();
        let s = g.add_recordset(rs("S"));
        let j = g.add_activity(binary(1, "∩", BinaryOp::Intersection));
        g.connect(s, j, 0).unwrap();
        g.connect(s, j, 1).unwrap();
        assert_eq!(g.consumers(s).unwrap(), &[j, j]);
        let order = g.topo_order().unwrap();
        assert_eq!(order, vec![s, j]);
    }

    #[test]
    fn unknown_node_errors() {
        let g = Graph::new();
        assert!(matches!(
            g.node(NodeId(5)).unwrap_err(),
            CoreError::UnknownNode(_)
        ));
    }
}
