//! State signatures (§4.1).
//!
//! During search we must recognize states we have already visited. The paper
//! assigns each activity its initial topological priority as a lifelong
//! identifier and serializes the workflow structure into a string — the
//! example of Fig. 1 has signature `((1.3)//(2.4.5.6)).7.8.9`.
//!
//! Our serialization follows the same grammar:
//!
//! * a source recordset renders as its priority,
//! * a unary activity renders as `<provider>.<id>`,
//! * a binary activity renders as `(<left>//<right>).<id>`, with the two
//!   branches sorted lexicographically when the operator is commutative so
//!   that mirror-image states collapse to one signature,
//! * recordsets in mid-flow and targets render like unary activities.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::activity::ActivityId;
use crate::graph::{Node, NodeId};
use crate::workflow::Workflow;

/// A canonical state identifier.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Signature(String);

impl Signature {
    /// Compute the signature of a workflow state.
    pub fn of(wf: &Workflow) -> Signature {
        // Memoize only nodes with more than one consumer (shared subflows);
        // pure tree shapes — the overwhelmingly common case in the search
        // hot loop — render without any map traffic.
        let mut memo: HashMap<NodeId, String> = HashMap::new();
        let mut targets: Vec<String> = wf
            .targets()
            .into_iter()
            .map(|t| {
                let mut out = String::with_capacity(64);
                render(wf, t, &mut memo, &mut out);
                out
            })
            .collect();
        targets.sort();
        Signature(targets.join("||"))
    }

    /// The signature string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The 128-bit fingerprint of this signature.
    ///
    /// Search keys its visited sets on the fingerprint instead of the
    /// string: a `u128` compare replaces a heap allocation plus a
    /// hash-of-string per visited state. Two independent 64-bit lanes with
    /// distinct multipliers make an accidental collision across both lanes
    /// vanishingly unlikely (≪ 2⁻⁶⁴ for search-sized state sets); a
    /// property test asserts fingerprint equality coincides with string
    /// equality over generated workflows.
    pub fn fingerprint(&self) -> u128 {
        let mut fp = Fp128::new();
        fp.write(self.0.as_bytes());
        fp.finish()
    }
}

/// Two-lane streaming mixer producing a 128-bit fingerprint.
///
/// Each lane is an FxHash-style rotate-xor-multiply over the input bytes,
/// seeded and multiplied differently, finished with a SplitMix64-style
/// avalanche. Byte-at-a-time processing keeps the digest independent of
/// write granularity, so hashing a whole string and streaming the same
/// bytes piecewise agree exactly.
#[derive(Debug, Clone)]
pub(crate) struct Fp128 {
    a: u64,
    b: u64,
}

impl Fp128 {
    pub(crate) fn new() -> Self {
        // First 32 hex digits of π, split across the lanes.
        Fp128 {
            a: 0x243F_6A88_85A3_08D3,
            b: 0x1319_8A2E_0370_7344,
        }
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &x in bytes {
            self.a = (self.a.rotate_left(5) ^ u64::from(x)).wrapping_mul(0x51_7C_C1_B7_27_22_0A_95);
            self.b = (self.b.rotate_left(7) ^ u64::from(x)).wrapping_mul(0x2545_F491_4F6C_DD1D);
        }
    }

    /// Absorb a child hash whole (little-endian), without byte-splitting
    /// overhead dominating: one mixing round per 64-bit half and lane.
    pub(crate) fn write_u128(&mut self, h: u128) {
        let lo = h as u64;
        let hi = (h >> 64) as u64;
        self.a = (self.a.rotate_left(5) ^ lo).wrapping_mul(0x51_7C_C1_B7_27_22_0A_95);
        self.a = (self.a.rotate_left(5) ^ hi).wrapping_mul(0x51_7C_C1_B7_27_22_0A_95);
        self.b = (self.b.rotate_left(7) ^ lo).wrapping_mul(0x2545_F491_4F6C_DD1D);
        self.b = (self.b.rotate_left(7) ^ hi).wrapping_mul(0x2545_F491_4F6C_DD1D);
    }

    pub(crate) fn finish(&self) -> u128 {
        fn avalanche(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        (u128::from(avalanche(self.a)) << 64) | u128::from(avalanche(self.b))
    }
}

impl fmt::Write for Fp128 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// Slot-indexed structural hashes of every node's upstream subflow: a
/// Merkle fold whose per-node values name shared subgraphs (the engine's
/// intermediate-result cache keys on them) and whose target fold is
/// [`Workflow::fingerprint`]. The searches key their visited sets on the
/// cheaper [`search_key`] instead.
///
/// Each node's hash digests the same information its signature substring
/// carries: the hashes of its providers (sorted for commutative binaries,
/// so mirror-image states collapse), an arity tag, and the node's lifelong
/// token (activity id or recordset priority). The state fingerprint folds
/// the target hashes in sorted order, mirroring the sorted-join of
/// multi-target signatures. Fingerprint equality therefore coincides with
/// signature equality (w.h.p.), asserted by the equivalence property
/// tests.
///
/// Dead slots keep stale hashes; they are never read, because transitions'
/// `affected` sets cover every re-populated slot (the same invariant delta
/// costing rests on).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeHashes {
    node: Vec<u128>,
    /// The state's targets, listed once by [`hash_state`] and shared by
    /// every successor: transitions never add or remove a recordset.
    targets: Arc<[NodeId]>,
}

impl NodeHashes {
    /// Hash of one node's upstream subflow (0 for ids never hashed).
    pub fn of(&self, id: NodeId) -> u128 {
        self.node.get(id.0 as usize).copied().unwrap_or(0)
    }
}

/// Hash every node of a state from scratch, bottom-up from the sources;
/// returns the per-node table and the state fingerprint. Infallible like
/// the string render: a malformed graph yields a garbage-but-deterministic
/// digest, and validity is enforced elsewhere.
pub fn hash_state(wf: &Workflow) -> (NodeHashes, u128) {
    let cap = wf.graph().slot_capacity();
    let mut node = vec![0u128; cap];
    // 0 = untouched, 1 = scheduled, 2 = hashed.
    let mut state = vec![0u8; cap];
    let targets: Arc<[NodeId]> = wf.targets().into();
    let mut stack: Vec<(NodeId, bool)> = targets.iter().map(|&t| (t, false)).collect();
    while let Some((id, ready)) = stack.pop() {
        let slot = id.0 as usize;
        let providers = wf.graph().providers(id).unwrap_or_default();
        if ready {
            node[slot] = node_hash(wf, id, providers, &node);
            state[slot] = 2;
        } else {
            if state[slot] != 0 {
                continue;
            }
            state[slot] = 1;
            stack.push((id, true));
            for p in providers.iter().flatten() {
                if state[p.0 as usize] == 0 {
                    stack.push((*p, false));
                }
            }
        }
    }
    let fp = combine_targets(&targets, &node);
    (NodeHashes { node, targets }, fp)
}

/// Incremental twin of [`hash_state`]: reuse the parent's per-node hashes
/// and rehash only the `dirty` list — [`crate::schema_gen::downstream_of`]
/// of the transition's affected nodes on the successor graph, already in
/// topological order. Exact for the same reason delta costing is: a node's
/// hash is a pure function of its providers' hashes, and the dirty closure
/// contains every node whose providers changed.
pub fn rehash_along(wf: &Workflow, parent: &NodeHashes, dirty: &[NodeId]) -> (NodeHashes, u128) {
    let graph = wf.graph();
    let mut node = parent.node.clone();
    node.resize(graph.slot_capacity(), 0);
    for &id in dirty {
        let providers = graph.providers(id).unwrap_or_default();
        node[id.0 as usize] = node_hash(wf, id, providers, &node);
    }
    let fp = combine_targets(&parent.targets, &node);
    let targets = Arc::clone(&parent.targets);
    (NodeHashes { node, targets }, fp)
}

/// Slot-indexed token hashes of a state's live nodes: what [`search_key`]
/// hashes an edge's two ends by. A node's token is its lifelong id, so a
/// swap — which moves edges, never a node — leaves the table as it is, and
/// a swap successor shares its parent's (cloning one is a reference-count
/// bump). Dead slots keep stale tokens that no edge reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Tokens(Arc<[u128]>);

impl Tokens {
    /// The token hash of `id` (0 for ids never tokened).
    pub fn of(&self, id: NodeId) -> u128 {
        self.0.get(id.0 as usize).copied().unwrap_or(0)
    }

    /// The tokens and search key of `wf`, reached from the state these
    /// tokens belong to by a transition that re-populated no slot outside
    /// `dirty` — the successor's walk, which covers every slot a
    /// transition re-populates. Re-tokens `dirty` and sums every edge.
    pub fn along(&self, wf: &Workflow, dirty: &[NodeId]) -> (Tokens, u128) {
        let cap = wf.graph().slot_capacity();
        let mut table: Arc<[u128]> = (0..cap)
            .map(|slot| self.0.get(slot).copied().unwrap_or(0))
            .collect();
        if let Some(slots) = Arc::get_mut(&mut table) {
            for &id in dirty {
                if let Some(slot) = slots.get_mut(id.0 as usize) {
                    *slot = token(wf, id);
                }
            }
        }
        let tokens = Tokens(table);
        let key = tokens.key(wf);
        (tokens, key)
    }

    /// The search key of the state `wf` becomes when every edge `(node,
    /// port, provider)` of `edges` is written over its port, from `key`,
    /// `wf`'s own: each edge's old provider edge is taken out of the sum
    /// and the new one put in. Exact for rewirings that move no node, as a
    /// swap's three edges: the tokens stay these.
    pub fn rewired(&self, key: u128, wf: &Workflow, edges: &[(NodeId, usize, NodeId)]) -> u128 {
        let graph = wf.graph();
        edges.iter().fold(key, |key, &(node, port, provider)| {
            let label = graph.node(node).map_or(port as u8, |n| label(n, port));
            let old = match graph.provider(node, port) {
                Ok(Some(old)) => self.edge(node, label, old),
                _ => 0,
            };
            key.wrapping_sub(old)
                .wrapping_add(self.edge(node, label, provider))
        })
    }

    /// The sum over every provider edge of `wf`.
    fn key(&self, wf: &Workflow) -> u128 {
        let graph = wf.graph();
        let mut key = 0u128;
        for (id, node) in graph.iter() {
            let providers = graph.providers(id).unwrap_or_default();
            for (port, provider) in providers.iter().enumerate() {
                if let Some(provider) = *provider {
                    key = key.wrapping_add(self.edge(id, label(node, port), provider));
                }
            }
        }
        key
    }

    /// The hash of the labelled edge `provider → consumer`.
    fn edge(&self, consumer: NodeId, label: u8, provider: NodeId) -> u128 {
        let mut fp = Fp128::new();
        fp.write_u128(self.of(consumer));
        fp.write(&[label]);
        fp.write_u128(self.of(provider));
        fp.finish()
    }
}

/// The search key of a state from scratch, and its tokens: the wrapping sum
/// of one 128-bit hash per provider edge `(consumer token, port label,
/// provider token)`. Both ports of a commutative binary carry one label, so
/// mirror-image states collapse, as the sorted signature does.
///
/// The searches key their visited sets on it. Tokens are unique among a
/// state's live nodes (ids and recordset priorities are lifelong and
/// distinct, and `ActivityId::factored` / `distributed` mint fresh ones),
/// so the labelled edge set is the signature's tree read edge by edge:
/// key equality coincides with signature equality (w.h.p.), as
/// [`Workflow::fingerprint`]'s does — asserted by the property tests. Being
/// a sum, the key of a successor is its parent's with the rewritten edges
/// exchanged ([`Tokens::rewired`]), whatever the distance to the targets.
pub fn search_key(wf: &Workflow) -> (Tokens, u128) {
    let graph = wf.graph();
    let mut slots = vec![0u128; graph.slot_capacity()];
    for (id, _) in graph.iter() {
        slots[id.0 as usize] = token(wf, id);
    }
    let tokens = Tokens(slots.into());
    let key = tokens.key(wf);
    (tokens, key)
}

/// The hash of one node's token.
fn token(wf: &Workflow, id: NodeId) -> u128 {
    let mut fp = Fp128::new();
    write_token(&mut fp, wf, id);
    fp.finish()
}

/// The port label of an edge into `node`: its port, or one label for both
/// ports of a commutative binary.
fn label(node: &Node, port: usize) -> u8 {
    if commutes(node) {
        u8::MAX
    } else {
        port as u8
    }
}

/// One node's structural hash from its providers' hashes. Arity tags keep
/// the digest injective-in-structure the way the signature grammar is:
/// `s`ource, `u`nary and `b`inary nodes cannot collide by token reuse, and
/// commutative binaries sort their branch hashes exactly where the string
/// render sorts its branch strings.
fn node_hash(wf: &Workflow, id: NodeId, providers: &[Option<NodeId>], node: &[u128]) -> u128 {
    let mut fp = Fp128::new();
    match providers.len() {
        0 => fp.write(b"s"),
        1 => {
            fp.write(b"u");
            if let Some(p) = providers[0] {
                fp.write_u128(node[p.0 as usize]);
            }
        }
        _ => {
            let l = providers[0].map(|p| node[p.0 as usize]).unwrap_or(0);
            let r = providers[1].map(|p| node[p.0 as usize]).unwrap_or(0);
            let (l, r) = if wf.graph().node(id).is_ok_and(commutes) && r < l {
                (r, l)
            } else {
                (l, r)
            };
            fp.write(b"b");
            fp.write_u128(l);
            fp.write_u128(r);
        }
    }
    fp.write(b".");
    write_token(&mut fp, wf, id);
    fp.finish()
}

/// The node's lifelong token, written as [`Workflow::priority_token`]
/// renders it, without rendering it.
fn write_token(fp: &mut Fp128, wf: &Workflow, id: NodeId) {
    match wf.graph().node(id) {
        Ok(Node::Activity(a)) => write_id(fp, &a.id),
        Ok(Node::Recordset(_)) => match wf.rs_priority.get(&id) {
            Some(&p) => write_decimal(fp, p.into()),
            None => {
                fp.write(b"r");
                write_decimal(fp, id.0.into());
            }
        },
        Err(_) => {
            fp.write(b"?");
            write_decimal(fp, id.0.into());
        }
    }
}

/// Is `node` a binary activity whose branches the signature sorts?
fn commutes(node: &Node) -> bool {
    match node {
        Node::Activity(a) => match &*a.op {
            crate::activity::Op::Binary(b) => b.is_commutative(),
            _ => false,
        },
        Node::Recordset(_) => false,
    }
}

/// The bytes [`ActivityId`]'s `Display` renders.
fn write_id(fp: &mut Fp128, id: &ActivityId) {
    match id {
        ActivityId::Base(n) => write_decimal(fp, (*n).into()),
        ActivityId::Merged(parts) => {
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    fp.write(b"+");
                }
                write_id(fp, p);
            }
        }
        ActivityId::Factored(a, b) => {
            write_id(fp, a);
            fp.write(b"&");
            write_id(fp, b);
        }
        ActivityId::Cloned(a, k) => {
            write_id(fp, a);
            fp.write(b"'");
            write_decimal(fp, (*k).into());
        }
    }
}

/// The decimal digits of `n`, as `Display` renders them.
fn write_decimal(fp: &mut Fp128, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    fp.write(&digits[at..]);
}

/// Fold the target hashes, sorted so multi-target states are order-free —
/// the hash-level twin of the sorted `||` join in [`Signature::of`]. Up to
/// eight targets are sorted on the stack.
fn combine_targets(targets: &[NodeId], node: &[u128]) -> u128 {
    let hash = |t: &NodeId| node.get(t.0 as usize).copied().unwrap_or(0);
    let fold = |ts: &mut [u128]| {
        ts.sort_unstable();
        let mut fp = Fp128::new();
        fp.write(b"W");
        for &h in ts.iter() {
            fp.write_u128(h);
        }
        fp.finish()
    };
    let mut few = [0u128; 8];
    match few.get_mut(..targets.len()) {
        Some(ts) => {
            for (h, t) in ts.iter_mut().zip(targets) {
                *h = hash(t);
            }
            fold(ts)
        }
        None => fold(&mut targets.iter().map(hash).collect::<Vec<_>>()),
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

fn render(wf: &Workflow, id: NodeId, memo: &mut HashMap<NodeId, String>, out: &mut String) {
    use std::fmt::Write;
    let graph = wf.graph();
    let shared = graph.consumers(id).map(|c| c.len() > 1).unwrap_or(false);
    if shared {
        if let Some(s) = memo.get(&id) {
            out.push_str(s);
            return;
        }
    }
    let start = out.len();
    let providers = graph.providers(id).unwrap_or_default();
    match providers.len() {
        0 => {}
        1 => {
            if let Some(p) = providers[0] {
                render(wf, p, memo, out);
                out.push('.');
            }
        }
        _ => {
            let mut l = String::with_capacity(32);
            let mut r = String::with_capacity(32);
            if let Some(p) = providers[0] {
                render(wf, p, memo, &mut l);
            }
            if let Some(p) = providers[1] {
                render(wf, p, memo, &mut r);
            }
            let (l, r) = if wf.graph().node(id).is_ok_and(commutes) && r < l {
                (r, l)
            } else {
                (l, r)
            };
            let _ = write!(out, "(({l})//({r})).");
        }
    }
    match graph.node(id) {
        Ok(Node::Activity(a)) => {
            let _ = write!(out, "{}", a.id);
        }
        _ => out.push_str(&wf.priority_token(id)),
    }
    if shared {
        memo.insert(id, out[start..].to_owned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::schema::Schema;
    use crate::semantics::{BinaryOp, UnaryOp};
    use crate::workflow::WorkflowBuilder;

    fn linear() -> Workflow {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["a"]), 10.0);
        let f = b.unary("σ", UnaryOp::filter(Predicate::gt("a", 1)), s);
        let g = b.unary("NN", UnaryOp::not_null("a"), f);
        b.target("T", Schema::of(["a"]), g);
        b.build().unwrap()
    }

    #[test]
    fn linear_chain_renders_dotted() {
        assert_eq!(linear().signature().as_str(), "1.2.3.4");
    }

    #[test]
    fn commutative_branches_are_canonicalized() {
        // Build the same union twice with swapped source insertion order;
        // signatures must coincide.
        let build = |flip: bool| {
            let mut b = WorkflowBuilder::new();
            let s1 = b.source("S1", Schema::of(["a"]), 10.0);
            let s2 = b.source("S2", Schema::of(["a"]), 10.0);
            let (l, r) = if flip { (s2, s1) } else { (s1, s2) };
            let u = b.binary("U", BinaryOp::Union, l, r);
            b.target("T", Schema::of(["a"]), u);
            b.build().unwrap()
        };
        assert_eq!(build(false).signature(), build(true).signature());
    }

    #[test]
    fn difference_branch_order_matters() {
        let build = |flip: bool| {
            let mut b = WorkflowBuilder::new();
            let s1 = b.source("S1", Schema::of(["a"]), 10.0);
            let s2 = b.source("S2", Schema::of(["a"]), 10.0);
            let (l, r) = if flip { (s2, s1) } else { (s1, s2) };
            let u = b.binary("D", BinaryOp::Difference, l, r);
            b.target("T", Schema::of(["a"]), u);
            b.build().unwrap()
        };
        assert_ne!(build(false).signature(), build(true).signature());
    }

    #[test]
    fn multi_target_signatures_join_sorted() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["a"]), 10.0);
        let f = b.unary("σ", UnaryOp::filter(Predicate::gt("a", 1)), s);
        b.target("T1", Schema::of(["a"]), f);
        b.target("T2", Schema::of(["a"]), s);
        let wf = b.build().unwrap();
        let sig = wf.signature().to_string();
        assert!(sig.contains("||"), "{sig}");
        // Both target chains present, lexicographically ordered.
        let parts: Vec<&str> = sig.split("||").collect();
        assert_eq!(parts.len(), 2);
        let mut sorted = parts.clone();
        sorted.sort();
        assert_eq!(parts, sorted);
    }

    #[test]
    fn shared_subflow_renders_in_both_branches() {
        // One filter read by both ports of an intersection: the memoized
        // render must repeat the shared chain, not truncate it.
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["a"]), 10.0);
        let f = b.unary("σ", UnaryOp::filter(Predicate::gt("a", 1)), s);
        let j = b.binary("∩", BinaryOp::Intersection, f, f);
        b.target("T", Schema::of(["a"]), j);
        let wf = b.build().unwrap();
        let sig = wf.signature().to_string();
        assert_eq!(sig.matches("1.2").count(), 2, "{sig}");
    }

    #[test]
    fn signature_is_stable_across_clones() {
        let wf = linear();
        assert_eq!(wf.signature(), wf.clone().signature());
    }

    #[test]
    fn fingerprint_is_write_granularity_independent() {
        let mut whole = Fp128::new();
        whole.write(b"((1.3)//(2.4.5.6)).7.8.9");
        let mut pieces = Fp128::new();
        for piece in ["((1.3)", "//", "(2.4.5.6))", ".7.8.9"] {
            pieces.write(piece.as_bytes());
        }
        assert_eq!(whole.finish(), pieces.finish());
    }

    #[test]
    fn structural_fingerprint_tracks_signature_across_shapes() {
        // The contract: fingerprint equality ⟺ signature equality, across
        // the render paths (linear spine, binary, shared subflow,
        // multi-target). Fingerprints are structural hashes, not hashes of
        // the rendered string, so only the equivalence is asserted.
        let shapes: Vec<Workflow> = vec![
            linear(),
            {
                let mut b = WorkflowBuilder::new();
                let s1 = b.source("S1", Schema::of(["a"]), 10.0);
                let s2 = b.source("S2", Schema::of(["a"]), 10.0);
                let u = b.binary("U", BinaryOp::Union, s1, s2);
                let f = b.unary("σ", UnaryOp::filter(Predicate::gt("a", 1)), u);
                b.target("T", Schema::of(["a"]), f);
                b.build().unwrap()
            },
            {
                let mut b = WorkflowBuilder::new();
                let s = b.source("S", Schema::of(["a"]), 10.0);
                let f = b.unary("σ", UnaryOp::filter(Predicate::gt("a", 1)), s);
                let j = b.binary("∩", BinaryOp::Intersection, f, f);
                b.target("T", Schema::of(["a"]), j);
                b.build().unwrap()
            },
            {
                let mut b = WorkflowBuilder::new();
                let s = b.source("S", Schema::of(["a"]), 10.0);
                let f = b.unary("σ", UnaryOp::filter(Predicate::gt("a", 1)), s);
                b.target("T1", Schema::of(["a"]), f);
                b.target("T2", Schema::of(["a"]), s);
                b.build().unwrap()
            },
        ];
        for x in &shapes {
            // Stable across clones and recomputation.
            assert_eq!(x.fingerprint(), x.clone().fingerprint());
            for y in &shapes {
                assert_eq!(
                    x.fingerprint() == y.fingerprint(),
                    x.signature() == y.signature(),
                    "{} vs {}",
                    x.signature(),
                    y.signature()
                );
            }
        }
    }

    #[test]
    fn incremental_rehash_matches_scratch_across_a_swap() {
        use crate::transition::{Swap, Transition};
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 100.0);
        let f = b.unary("σ", UnaryOp::filter(Predicate::gt("v", 1)), s);
        let sk = b.unary("SK", UnaryOp::surrogate_key("k", "sk", "L"), f);
        b.target("T", Schema::of(["sk", "v"]), sk);
        let wf = b.build().unwrap();
        let (hashes, fp) = hash_state(&wf);
        assert_eq!(fp, wf.fingerprint());
        let acts = wf.activities().unwrap();
        let t = Swap::new(acts[0], acts[1]);
        let next = t.apply(&wf).unwrap();
        let dirty = crate::schema_gen::downstream_of(next.graph(), &t.affected(&wf)).unwrap();
        let (inc_hashes, inc_fp) = rehash_along(&next, &hashes, &dirty);
        let (scratch_hashes, scratch_fp) = hash_state(&next);
        assert_eq!(inc_fp, scratch_fp);
        assert_eq!(inc_hashes, scratch_hashes);
        assert_ne!(inc_fp, fp, "swap must change the fingerprint");
    }

    #[test]
    fn commutative_branches_hash_canonically() {
        let build = |flip: bool| {
            let mut b = WorkflowBuilder::new();
            let s1 = b.source("S1", Schema::of(["a"]), 10.0);
            let s2 = b.source("S2", Schema::of(["a"]), 20.0);
            // A filter on one branch only, so the flip actually reorders
            // structurally distinct subflows.
            let f = b.unary("σ", UnaryOp::filter(Predicate::gt("a", 1)), s1);
            let (l, r) = if flip { (s2, f) } else { (f, s2) };
            let u = b.binary("U", BinaryOp::Union, l, r);
            b.target("T", Schema::empty(), u);
            b.build().unwrap()
        };
        assert_eq!(build(false).fingerprint(), build(true).fingerprint());
    }

    #[test]
    fn node_tokens_hash_the_bytes_display_renders() {
        use std::fmt::Write;
        let base = |n| ActivityId::Base(n);
        let ids = [
            base(0),
            base(7),
            base(u32::MAX),
            ActivityId::merged(&[base(3), base(14), base(159)]),
            ActivityId::factored(&base(2), &base(10)),
            ActivityId::Cloned(Box::new(ActivityId::factored(&base(4), &base(5))), 2),
            ActivityId::merged(&[ActivityId::Cloned(Box::new(base(1)), 1), base(99)]),
        ];
        for id in ids {
            let (mut written, mut rendered) = (Fp128::new(), Fp128::new());
            write_id(&mut written, &id);
            write!(rendered, "{id}").unwrap();
            assert_eq!(written.finish(), rendered.finish(), "{id}");
        }
        for n in [0, 9, 10, 4_294_967_295, u64::MAX] {
            let (mut written, mut rendered) = (Fp128::new(), Fp128::new());
            write_decimal(&mut written, n);
            rendered.write(n.to_string().as_bytes());
            assert_eq!(written.finish(), rendered.finish(), "{n}");
        }
    }

    #[test]
    fn distinct_signatures_have_distinct_fingerprints() {
        let a = Signature("1.2.3.4".to_owned()).fingerprint();
        let b = Signature("1.3.2.4".to_owned()).fingerprint();
        let c = Signature("((1.3)//(2.4.5.6)).7.8.9".to_owned()).fingerprint();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
