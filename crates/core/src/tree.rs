//! Transaction trees and the global registry.
//!
//! An open nested transaction is a tree of actions (method invocations);
//! edges represent the caller–callee relationship (paper Section 3). The
//! tree grows dynamically while the transaction executes. Nodes are stored
//! in an arena; node 0 is the transaction root, whose synthetic invocation
//! operates on the database pseudo object (paper footnote 2).

use crate::ids::{NodeRef, TopId};
use crate::notify::WaitCell;
use parking_lot::RwLock;
use semcc_objstore::CacheLine;
use semcc_semantics::{IdMap, Invocation, ObjectId, DB_OBJECT, TYPE_DB};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Lifecycle state of a tree node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeState {
    /// Currently executing (or waiting for a lock).
    Active,
    /// Completed successfully — in the open nested model the subtransaction
    /// has *committed* and exposed its effects.
    Committed,
    /// Aborted (the whole top-level transaction aborted, or the
    /// subtransaction was rolled back eagerly).
    Aborted,
}

impl NodeState {
    /// Committed or aborted.
    pub fn is_finished(self) -> bool {
        !matches!(self, NodeState::Active)
    }
}

/// One link of an ancestor chain: the node and its (immutable) invocation.
#[derive(Clone, Debug)]
pub struct ChainLink {
    /// The ancestor node.
    pub node: NodeRef,
    /// The invocation labelling that node.
    pub inv: Arc<Invocation>,
}

/// The links `[node, parent, …, root]` of a node that has children, plus
/// their object index for the conflict fast path. Every child's [`Chain`]
/// shares its parent's `Ancestors` by `Arc`: one is built per interior
/// node, when it gains its first child, and none per leaf.
///
/// Commutativity is only ever asserted for two invocations on the *same*
/// object, so the Figure-9 ancestor search only has to look at ancestor
/// pairs whose objects match. The index — `(object, position)` for every
/// link, positioned as in a child's chain (the node itself is 1), sorted
/// by object id with ties broken bottom-up — lets
/// [`test_conflict`](crate::lock::conflict::test_conflict) intersect two
/// chains in `O(|h| + |r|)` instead of cross-producting them. Invocations
/// are immutable, so it never goes stale.
#[derive(Debug)]
struct Ancestors {
    links: Vec<ChainLink>,
    index: Vec<(ObjectId, u32)>,
}

impl Ancestors {
    /// `link` prepended to its parent's ancestors (`None` for the root).
    fn new(link: ChainLink, parent: Option<&Ancestors>) -> Arc<Self> {
        let (up_links, up_index) = parent.map_or((&[][..], &[][..]), |p| (&p.links, &p.index));
        let mut links = Vec::with_capacity(up_links.len() + 1);
        let mut index = Vec::with_capacity(up_index.len() + 1);
        // Position 1 is the lowest, so it leads the run of its object.
        let object = link.inv.object;
        let split = up_index.partition_point(|&(o, _)| o < object);
        index.extend(up_index[..split].iter().map(|&(o, p)| (o, p + 1)));
        index.push((object, 1));
        index.extend(up_index[split..].iter().map(|&(o, p)| (o, p + 1)));
        links.push(link);
        links.extend_from_slice(up_links);
        Arc::new(Ancestors { links, index })
    }
}

/// An ancestor chain `[self, parent, …, root]`: the node's own link plus
/// its parent's shared [`Ancestors`]. Indexing is positional (`chain[0]`
/// is the node itself).
#[derive(Clone, Debug)]
pub struct Chain {
    link: ChainLink,
    ancestors: Option<Arc<Ancestors>>,
}

impl Chain {
    /// The proper ancestors, `[parent, …, root]` (empty for a root).
    pub fn ancestors(&self) -> &[ChainLink] {
        self.ancestors.as_ref().map_or(&[], |a| &a.links)
    }

    /// `(object, position)` per proper ancestor, sorted by `(object, pos)`;
    /// the position is the link's index in the chain, so `ancestors()[pos - 1]`.
    pub fn object_index(&self) -> &[(ObjectId, u32)] {
        self.ancestors.as_ref().map_or(&[], |a| &a.index)
    }

    /// Number of links, the node itself included.
    pub fn len(&self) -> usize {
        1 + self.ancestors().len()
    }

    /// Always false — a chain has at least its node.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl std::ops::Index<usize> for Chain {
    type Output = ChainLink;

    fn index(&self, pos: usize) -> &ChainLink {
        match pos {
            0 => &self.link,
            _ => &self.ancestors()[pos - 1],
        }
    }
}

struct Node {
    parent: Option<u32>,
    inv: Arc<Invocation>,
    state: NodeState,
    children: Vec<u32>,
    /// Wait cells subscribed to this node reaching its final state.
    waiters: Vec<Arc<WaitCell>>,
    /// Built when the node gains its first child.
    ancestors: Option<Arc<Ancestors>>,
}

/// The wait cells subscribed to a node when it reached its final state.
/// Dropping this delivers the completion to each of them: a caller with
/// work to do first (release the node's locks) holds on to it until then;
/// no caller can forget the wake-up.
pub struct Finished(Vec<Arc<WaitCell>>);

impl Drop for Finished {
    fn drop(&mut self) {
        for cell in &self.0 {
            cell.complete_one();
        }
    }
}

/// The tree of one top-level transaction.
pub struct TxnTree {
    top: TopId,
    nodes: RwLock<Vec<Node>>,
}

impl TxnTree {
    /// Create a tree whose root carries the synthetic "transaction on the
    /// database object" invocation.
    pub fn new(top: TopId) -> Arc<Self> {
        let root_inv =
            Arc::new(Invocation::user(DB_OBJECT, TYPE_DB, semcc_semantics::MethodId(0), vec![]));
        Arc::new(TxnTree {
            top,
            nodes: RwLock::new(vec![Node {
                parent: None,
                inv: root_inv,
                state: NodeState::Active,
                children: Vec::new(),
                waiters: Vec::new(),
                ancestors: None,
            }]),
        })
    }

    /// The owning top-level transaction.
    pub fn top(&self) -> TopId {
        self.top
    }

    /// Add a child action under `parent` and return its index. The
    /// parent's first child builds the parent's [`Ancestors`].
    pub fn add_child(&self, parent: u32, inv: Arc<Invocation>) -> u32 {
        let mut nodes = self.nodes.write();
        if nodes[parent as usize].ancestors.is_none() {
            let p = &nodes[parent as usize];
            let link =
                ChainLink { node: NodeRef { top: self.top, idx: parent }, inv: Arc::clone(&p.inv) };
            let up = p.parent.and_then(|g| nodes[g as usize].ancestors.as_deref());
            nodes[parent as usize].ancestors = Some(Ancestors::new(link, up));
        }
        let idx = nodes.len() as u32;
        nodes.push(Node {
            parent: Some(parent),
            inv,
            state: NodeState::Active,
            children: Vec::new(),
            waiters: Vec::new(),
            ancestors: None,
        });
        nodes[parent as usize].children.push(idx);
        idx
    }

    /// Mark a node committed.
    pub fn complete(&self, idx: u32) -> Finished {
        self.finish(idx, NodeState::Committed)
    }

    /// Mark a node aborted.
    pub fn abort(&self, idx: u32) -> Finished {
        self.finish(idx, NodeState::Aborted)
    }

    fn finish(&self, idx: u32, state: NodeState) -> Finished {
        let mut nodes = self.nodes.write();
        let node = &mut nodes[idx as usize];
        node.state = state;
        Finished(std::mem::take(&mut node.waiters))
    }

    /// Subscribe `cell` to the node reaching its final state: one more
    /// pending completion on the cell, delivered by the node's [`Finished`].
    /// Refused (`false`, cell untouched) if the node has finished. Check and
    /// registration share the state change's lock, so a node finishing
    /// before this call is seen as finished and one finishing after it
    /// wakes the cell: never neither.
    pub fn subscribe(&self, idx: u32, cell: &Arc<WaitCell>) -> bool {
        let mut nodes = self.nodes.write();
        let node = &mut nodes[idx as usize];
        if node.state.is_finished() {
            return false;
        }
        cell.add_pending();
        node.waiters.push(Arc::clone(cell));
        true
    }

    /// Current state of a node.
    pub fn state(&self, idx: u32) -> NodeState {
        self.nodes.read()[idx as usize].state
    }

    /// The invocation of a node.
    pub fn invocation(&self, idx: u32) -> Arc<Invocation> {
        Arc::clone(&self.nodes.read()[idx as usize].inv)
    }

    /// The children of a node (snapshot).
    pub fn children(&self, idx: u32) -> Vec<u32> {
        self.nodes.read()[idx as usize].children.clone()
    }

    /// How many children of a node have committed.
    pub fn committed_children(&self, idx: u32) -> usize {
        let nodes = self.nodes.read();
        let committed = |c: &&u32| nodes[**c as usize].state == NodeState::Committed;
        nodes[idx as usize].children.iter().filter(committed).count()
    }

    /// Whether a lock owned by this node is a *retained* lock (paper
    /// Section 4.2: the locks acquired for the children become retained
    /// when the parent completes), i.e. whether the node's parent has
    /// committed. Nothing records the conversion; this is it.
    pub fn is_retained(&self, idx: u32) -> bool {
        let nodes = self.nodes.read();
        nodes[idx as usize].parent.is_some_and(|p| nodes[p as usize].state == NodeState::Committed)
    }

    /// The parent of a node.
    pub fn parent(&self, idx: u32) -> Option<u32> {
        self.nodes.read()[idx as usize].parent
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.read().len()
    }

    /// Always false — a tree has at least its root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Ancestor chain of a node in bottom-up order **including the node
    /// itself** at position 0 and the root at the last position. The
    /// conflict test of Figure 9 iterates over [`Chain::ancestors`] (the
    /// proper ancestors, "sorted list of the ancestors of t in bottom-up
    /// order"), shared with the node's siblings: no allocation.
    pub fn chain(&self, idx: u32) -> Chain {
        let nodes = self.nodes.read();
        let n = &nodes[idx as usize];
        Chain {
            link: ChainLink { node: NodeRef { top: self.top, idx }, inv: Arc::clone(&n.inv) },
            ancestors: n.parent.and_then(|p| nodes[p as usize].ancestors.clone()),
        }
    }

    /// Indices of all nodes that are still active (used on abort).
    pub fn active_nodes(&self) -> Vec<u32> {
        self.nodes
            .read()
            .iter()
            .enumerate()
            .filter(|(_, n)| n.state == NodeState::Active)
            .map(|(i, _)| i as u32)
            .collect()
    }
}

impl std::fmt::Debug for TxnTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TxnTree({}, {} nodes)", self.top, self.len())
    }
}

/// Global registry of live transaction trees, sharded by [`TopId`] so that
/// transactions beginning and ending on different threads write different
/// cache lines.
///
/// Trees are registered at transaction begin and dropped after all locks of
/// the transaction are gone; a status query for a dropped tree answers
/// "finished", which is exactly what late readers (conflict tests racing
/// with a commit) need.
pub struct Registry {
    shards: Vec<CacheLine<RwLock<Trees>>>,
    next: AtomicU64,
}

type Trees = IdMap<TopId, Arc<TxnTree>>;

const REGISTRY_SHARDS: usize = 64;

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Registry {
            shards: (0..REGISTRY_SHARDS).map(|_| CacheLine(RwLock::default())).collect(),
            next: AtomicU64::new(1),
        }
    }

    fn shard(&self, top: TopId) -> &RwLock<Trees> {
        &self.shards[top.0 as usize % REGISTRY_SHARDS].0
    }

    /// Begin a new top-level transaction: allocate an id and a tree.
    pub fn begin(&self) -> Arc<TxnTree> {
        let top = self.allocate_top();
        let tree = TxnTree::new(top);
        self.shard(top).write().insert(top, Arc::clone(&tree));
        tree
    }

    /// Allocate a top-level id *without* registering a tree — for snapshot
    /// read transactions, which never hold locks, so nothing ever needs to
    /// query their status (unregistered ids answer "finished", the right
    /// answer for a committed-or-promoted snapshot attempt).
    pub fn allocate_top(&self) -> TopId {
        TopId(self.next.fetch_add(1, Ordering::Relaxed))
    }

    /// Raise the id floor: every top-level id allocated from here on is
    /// `> past`. Recovery calls this with the largest transaction id in
    /// the surviving log, so transactions started on a recovered engine
    /// (whose WAL resumes the same log) never reuse a logged id — a
    /// collision would make a later recovery pass fold two different
    /// transactions' records into one analysis entry.
    pub fn advance_past(&self, past: u64) {
        self.next.fetch_max(past.saturating_add(1), Ordering::Relaxed);
    }

    /// Look up a live tree.
    pub fn tree(&self, top: TopId) -> Option<Arc<TxnTree>> {
        self.shard(top).read().get(&top).cloned()
    }

    /// Drop a finished tree.
    pub fn remove(&self, top: TopId) {
        self.shard(top).write().remove(&top);
    }

    /// Is the node committed or aborted? Nodes of dropped trees count as
    /// finished.
    pub fn is_finished(&self, node: NodeRef) -> bool {
        match self.shard(node.top).read().get(&node.top) {
            Some(tree) => tree.state(node.idx).is_finished(),
            None => true,
        }
    }

    /// [`TxnTree::subscribe`] by node reference; a dropped tree refuses
    /// like a finished node.
    pub fn subscribe(&self, node: NodeRef, cell: &Arc<WaitCell>) -> bool {
        self.tree(node.top).is_some_and(|tree| tree.subscribe(node.idx, cell))
    }

    /// Number of live transactions.
    pub fn live_count(&self) -> usize {
        self.shards.iter().map(|s| s.0.read().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcc_semantics::{MethodId, ObjectId, TypeId, TYPE_ATOMIC};

    fn inv(o: u64) -> Arc<Invocation> {
        Arc::new(Invocation::get(ObjectId(o), TYPE_ATOMIC))
    }

    #[test]
    fn tree_growth_and_states() {
        let t = TxnTree::new(TopId(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.state(0), NodeState::Active);
        let a = t.add_child(0, inv(1));
        let b = t.add_child(a, inv(2));
        assert_eq!(t.parent(b), Some(a));
        assert_eq!(t.children(0), vec![a]);
        assert_eq!(t.children(a), vec![b]);
        t.complete(b);
        assert_eq!(t.state(b), NodeState::Committed);
        assert!(t.state(b).is_finished());
        t.abort(a);
        assert!(t.state(a).is_finished());
        assert!(!t.state(0).is_finished());
    }

    #[test]
    fn chain_is_bottom_up_with_self_first() {
        let t = TxnTree::new(TopId(7));
        let a = t.add_child(0, inv(1));
        let b = t.add_child(a, inv(2));
        let chain = t.chain(b);
        assert_eq!(chain.len(), 3);
        assert_eq!(chain[0].node, NodeRef { top: TopId(7), idx: b });
        assert_eq!(chain[1].node, NodeRef { top: TopId(7), idx: a });
        assert_eq!(chain[2].node, NodeRef::root(TopId(7)));
        assert_eq!(chain[2].inv.object, DB_OBJECT);
        let up: Vec<NodeRef> = chain.ancestors().iter().map(|l| l.node).collect();
        assert_eq!(up, vec![chain[1].node, chain[2].node]);
        assert!(t.chain(0).ancestors().is_empty(), "a root has no proper ancestors");
    }

    #[test]
    fn chain_object_index_covers_proper_ancestors_sorted() {
        let t = TxnTree::new(TopId(3));
        let a = t.add_child(0, inv(9)); // proper ancestor on o9
        let b = t.add_child(a, inv(2)); // proper ancestor on o2
        let leaf = t.add_child(b, inv(5)); // self: NOT in the index
        let chain = t.chain(leaf);
        // Proper ancestors: b (o2, pos 1), a (o9, pos 2), root (o0, pos 3),
        // sorted by object id.
        assert_eq!(chain.object_index(), &[(DB_OBJECT, 3), (ObjectId(2), 1), (ObjectId(9), 2)]);
        assert_eq!(chain.ancestors().len(), 3);
        assert_eq!(chain[0].inv.object, ObjectId(5), "position 0 is the node itself");
        for &(object, pos) in chain.object_index() {
            assert_eq!(chain.ancestors()[pos as usize - 1].inv.object, object);
        }
    }

    #[test]
    fn chain_object_index_breaks_object_ties_bottom_up() {
        let t = TxnTree::new(TopId(3));
        let a = t.add_child(0, inv(7));
        let b = t.add_child(a, inv(7)); // same object twice on the chain
        let leaf = t.add_child(b, inv(1));
        let chain = t.chain(leaf);
        assert_eq!(
            chain.object_index(),
            &[(DB_OBJECT, 3), (ObjectId(7), 1), (ObjectId(7), 2)],
            "equal objects keep bottom-up position order"
        );
    }

    #[test]
    fn sibling_chains_share_one_ancestors() {
        let t = TxnTree::new(TopId(4));
        let m = t.add_child(0, inv(3));
        let (x, y) = (t.add_child(m, inv(5)), t.add_child(m, inv(6)));
        let (cx, cy) = (t.chain(x), t.chain(y));
        assert!(Arc::ptr_eq(cx.ancestors.as_ref().unwrap(), cy.ancestors.as_ref().unwrap()));
        assert_eq!(cx[0].node.idx, x);
        assert_eq!(cy[0].node.idx, y);
    }

    #[test]
    fn chain_under_a_generic_interior_node() {
        let t = TxnTree::new(TopId(5));
        let m = t
            .add_child(0, Arc::new(Invocation::user(ObjectId(8), TypeId(20), MethodId(1), vec![])));
        let g = t.add_child(m, inv(4)); // a generic action with a child
        let leaf = t.add_child(g, inv(6));
        let chain = t.chain(leaf);
        let up: Vec<(u32, ObjectId)> =
            chain.ancestors().iter().map(|l| (l.node.idx, l.inv.object)).collect();
        assert_eq!(up, vec![(g, ObjectId(4)), (m, ObjectId(8)), (0, DB_OBJECT)]);
        assert_eq!(chain.object_index(), &[(DB_OBJECT, 3), (ObjectId(4), 1), (ObjectId(8), 2)]);
    }

    #[test]
    fn active_nodes_tracking() {
        let t = TxnTree::new(TopId(1));
        let a = t.add_child(0, inv(1));
        let b = t.add_child(0, inv(2));
        t.complete(a);
        assert_eq!(t.active_nodes(), vec![0, b]);
    }

    #[test]
    fn registry_lifecycle() {
        let r = Registry::new();
        let t1 = r.begin();
        let t2 = r.begin();
        assert_ne!(t1.top(), t2.top());
        assert!(t1.top() < t2.top(), "ids increase with age");
        assert_eq!(r.live_count(), 2);
        assert!(r.tree(t1.top()).is_some());

        let n = NodeRef::root(t1.top());
        assert!(!r.is_finished(n));
        t1.complete(0);
        assert!(r.is_finished(n));
        r.remove(t1.top());
        assert_eq!(r.live_count(), 1);
        assert!(r.is_finished(n), "dropped trees count as finished");
        assert!(r.tree(t1.top()).is_none());
    }
}
