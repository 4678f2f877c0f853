//! The conflict test — a faithful implementation of the paper's Figure 9.
//!
//! ```text
//! function test-conflict (h, r) returns taid
//!   if h and r commute or belong to the same top-level transaction
//!     then return nil
//!   for all h' in the ancestor chain of h do
//!     for all r' in the ancestor chain of r do
//!       if h' and r' commute then
//!         if h' is completed then return nil      -- Case 1
//!         else return h'                          -- Case 2
//!   return root of h                              -- worst case
//! ```
//!
//! Ancestor chains are walked bottom-up. "Commute" is only ever asserted
//! for two invocations on the **same object** (see
//! [`SemanticsRouter::commute`]); in particular two transaction roots
//! (actions on the database pseudo object) never commute, which yields the
//! worst-case "wait for the top-level commit".
//!
//! ## Fast path
//!
//! The literal Figure-9 loop is O(|h| × |r|) commutativity calls per test.
//! Because commuting requires the *same object*, only ancestor pairs that
//! share an object can ever match; [`test_conflict`] therefore merge-joins
//! the two chains' pre-sorted [`Chain::object_index`]es and probes only the
//! same-object pairs, visited in the exact `(h position, r position)` order
//! of the original nested loop. [`test_conflict_reference`] keeps the
//! verbatim Figure-9 scan (over the uncompiled commutativity specs) as the
//! differential-testing and benchmarking baseline.

use crate::config::ProtocolConfig;
use crate::ids::NodeRef;
use crate::journal::{EventJournal, JournalKind};
use crate::lock::entry::LockEntry;
use crate::stats::Stats;
use crate::tree::{Chain, Registry};
use semcc_semantics::{Invocation, ObjectId, SemanticsRouter};

/// Whether two (object, position)-sorted chain indexes share at least one
/// object: a single merge pass, no allocation.
fn sorted_indexes_intersect(a: &[(ObjectId, u32)], b: &[(ObjectId, u32)]) -> bool {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// The requestor side of a conflict test.
pub struct Requestor<'a> {
    /// The requesting action.
    pub node: NodeRef,
    /// Its invocation (the requested lock mode).
    pub inv: &'a Invocation,
    /// Its ancestor chain `[self, parent, …, root]`, with its object index.
    pub chain: &'a Chain,
}

/// Test the requestor `r` against the held or requested lock `h`.
///
/// Returns `None` if no conflict exists (the lock may be granted as far as
/// `h` is concerned) or `Some(node)` — the (sub)transaction whose
/// completion `r` has to wait for.
///
/// When an event `journal` is attached, the three Figure-9 decisions are
/// recorded with requestor and holder-side ids (`other` = the committed or
/// awaited ancestor in Cases 1/2, the holder's root in the worst case), so
/// a drained journal shows *which* conflict rule fired on which object.
///
/// This is the production fast path: commutativity goes through the
/// compiled bitmatrices of the [`SemanticsRouter`] and the ancestor search
/// intersects the chains' object indexes instead of probing every pair.
/// Decisions, counters and journal records are bit-identical to
/// [`test_conflict_reference`] (enforced by differential tests).
#[allow(clippy::too_many_arguments)]
pub fn test_conflict(
    router: &SemanticsRouter,
    registry: &Registry,
    cfg: &ProtocolConfig,
    stats: &Stats,
    journal: Option<&EventJournal>,
    // BENCH-PINNED: `benchmark/src/probes.rs:130` passes `None` here.
    _: Option<&crate::speculate::DepGraph>,
    h: &LockEntry,
    r: &Requestor<'_>,
) -> Option<NodeRef> {
    Stats::bump(&stats.conflict_tests);
    let decide = |kind: JournalKind, other: NodeRef| {
        if let Some(j) = journal {
            j.record(kind, r.node.top.0, r.node.idx, other.top.0, other.idx, r.inv.object.0, 0);
        }
    };

    // "h and r belong to the same top-level transaction": retained and held
    // locks of a transaction never block its own later subtransactions.
    if h.node.top == r.node.top {
        Stats::bump(&stats.same_txn_skips);
        return None;
    }
    // "h and r commute".
    if router.commute(&h.inv, r.inv) {
        Stats::bump(&stats.commute_skips);
        return None;
    }

    if cfg.ancestor_check {
        // Search for a commutative ancestor pair. Only same-object pairs
        // can commute, so a merge of the two (object, position)-sorted
        // indexes decides in O(|h| + |r|) whether the chains share any
        // object at all — the common no-overlap case skips the scan
        // entirely. On overlap, walk the holder chain bottom-up and probe,
        // per holder link, exactly the requestor positions on the same
        // object (a sorted run of its index, ascending by position): that
        // visits candidate pairs in the `(h position, r position)` order of
        // the reference nested loop, with identical first-match semantics
        // and no scratch allocation.
        let hi = h.chain.object_index();
        let ri = r.chain.object_index();
        if sorted_indexes_intersect(hi, ri) {
            let r_links = r.chain.ancestors();
            for hl in h.chain.ancestors() {
                let obj = hl.inv.object;
                let start = ri.partition_point(|&(o, _)| o < obj);
                for &(o, rp) in &ri[start..] {
                    if o != obj {
                        break;
                    }
                    let rl = &r_links[rp as usize - 1];
                    if router.commute(&hl.inv, &rl.inv) {
                        if registry.is_finished(hl.node) {
                            // Case 1: commutative and committed ancestor —
                            // the formal conflict is an implementation-level
                            // pseudo-conflict; grant.
                            Stats::bump(&stats.case1_grants);
                            decide(JournalKind::Case1Grant, hl.node);
                            return None;
                        }
                        // Case 2: commutative but not yet committed
                        // ancestor — r may be resumed upon completion of
                        // h'.
                        Stats::bump(&stats.case2_waits);
                        decide(JournalKind::Case2Wait, hl.node);
                        return Some(hl.node);
                    }
                }
            }
        }
    }

    // Worst case: waiting for the top-level commit of h's transaction.
    Stats::bump(&stats.root_waits);
    let root = NodeRef::root(h.node.top);
    decide(JournalKind::RootWait, root);
    Some(root)
}

/// The verbatim Figure-9 conflict test of the seed implementation: a full
/// nested loop over both proper ancestor chains, with commutativity routed
/// through the uncompiled `dyn CommutativitySpec` lookup
/// ([`SemanticsRouter::commute_reference`]).
///
/// Kept as the semantic ground truth: differential tests assert that
/// [`test_conflict`] makes the same decision with the same counters and
/// journal records on every input, and the `conflict_path` benchmark uses
/// it as the before-side of the speedup gate.
pub fn test_conflict_reference(
    router: &SemanticsRouter,
    registry: &Registry,
    cfg: &ProtocolConfig,
    stats: &Stats,
    journal: Option<&EventJournal>,
    h: &LockEntry,
    r: &Requestor<'_>,
) -> Option<NodeRef> {
    Stats::bump(&stats.conflict_tests);
    let decide = |kind: JournalKind, other: NodeRef| {
        if let Some(j) = journal {
            j.record(kind, r.node.top.0, r.node.idx, other.top.0, other.idx, r.inv.object.0, 0);
        }
    };

    if h.node.top == r.node.top {
        Stats::bump(&stats.same_txn_skips);
        return None;
    }
    if router.commute_reference(&h.inv, r.inv) {
        Stats::bump(&stats.commute_skips);
        return None;
    }

    if cfg.ancestor_check {
        // Search for a commutative ancestor pair, bottom-up on both sides.
        // The paper's "ancestor chain" contains the proper ancestors only.
        for hl in h.chain.ancestors() {
            for rl in r.chain.ancestors() {
                if router.commute_reference(&hl.inv, &rl.inv) {
                    if registry.is_finished(hl.node) {
                        Stats::bump(&stats.case1_grants);
                        decide(JournalKind::Case1Grant, hl.node);
                        return None;
                    }
                    Stats::bump(&stats.case2_waits);
                    decide(JournalKind::Case2Wait, hl.node);
                    return Some(hl.node);
                }
            }
        }
    }

    Stats::bump(&stats.root_waits);
    let root = NodeRef::root(h.node.top);
    decide(JournalKind::RootWait, root);
    Some(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TxnTree;
    use semcc_semantics::{
        Catalog, CompatibilityMatrix, MethodId, ObjectId, TypeDef, TypeKind, Value, TYPE_ATOMIC,
    };
    use std::sync::Arc;

    /// Build a catalog with one type `Pair` that has methods A (id 0) and
    /// B (id 1), where A commutes with B but neither commutes with itself.
    fn test_catalog() -> (Catalog, semcc_semantics::TypeId) {
        let mut m = CompatibilityMatrix::new();
        m.ok(MethodId(0), MethodId(1));
        let def = TypeDef {
            name: "Pair".into(),
            kind: TypeKind::Encapsulated,
            methods: vec![],
            spec: Arc::new(m),
        };
        let mut c = Catalog::new();
        let t = c.register_type(def);
        (c, t)
    }

    struct Fixture {
        registry: Arc<Registry>,
        router: SemanticsRouter,
        stats: Stats,
        cfg: ProtocolConfig,
    }

    impl Fixture {
        fn new(cfg: ProtocolConfig) -> (Self, semcc_semantics::TypeId) {
            let (catalog, t) = test_catalog();
            (
                Fixture {
                    registry: Arc::new(Registry::new()),
                    router: catalog.router(),
                    stats: Stats::default(),
                    cfg,
                },
                t,
            )
        }

        fn test(&self, h: &LockEntry, r: &Requestor<'_>) -> Option<NodeRef> {
            test_conflict(&self.router, &self.registry, &self.cfg, &self.stats, None, None, h, r)
        }

        fn test_journaled(
            &self,
            j: &EventJournal,
            h: &LockEntry,
            r: &Requestor<'_>,
        ) -> Option<NodeRef> {
            test_conflict(&self.router, &self.registry, &self.cfg, &self.stats, Some(j), None, h, r)
        }
    }

    fn get(o: u64) -> Invocation {
        Invocation::get(ObjectId(o), TYPE_ATOMIC)
    }
    fn put(o: u64) -> Invocation {
        Invocation::put(ObjectId(o), TYPE_ATOMIC, Value::Int(0))
    }

    /// Build a tree `root → method(m on obj) → leaf(inv)` and return the
    /// lock entry for the leaf.
    fn entry_under_method(
        fx: &Fixture,
        t: semcc_semantics::TypeId,
        method: u32,
        method_obj: u64,
        leaf: Invocation,
    ) -> (Arc<TxnTree>, LockEntry, u32) {
        let tree = fx.registry.begin();
        let m_inv = Arc::new(Invocation::user(ObjectId(method_obj), t, MethodId(method), vec![]));
        let m_idx = tree.add_child(0, m_inv);
        let leaf_idx = tree.add_child(m_idx, Arc::new(leaf));
        let chain = tree.chain(leaf_idx);
        let entry = LockEntry {
            node: NodeRef { top: tree.top(), idx: leaf_idx },
            inv: tree.invocation(leaf_idx),
            chain,
            retained: false,
        };
        (tree, entry, m_idx)
    }

    fn requestor_under_method(
        fx: &Fixture,
        t: semcc_semantics::TypeId,
        method: u32,
        method_obj: u64,
        leaf: Invocation,
    ) -> (Arc<TxnTree>, Arc<Invocation>, Chain, NodeRef) {
        let tree = fx.registry.begin();
        let m_inv = Arc::new(Invocation::user(ObjectId(method_obj), t, MethodId(method), vec![]));
        let m_idx = tree.add_child(0, m_inv);
        let leaf_idx = tree.add_child(m_idx, Arc::new(leaf));
        let node = NodeRef { top: tree.top(), idx: leaf_idx };
        (tree.clone(), tree.invocation(leaf_idx), tree.chain(leaf_idx), node)
    }

    #[test]
    fn commuting_actions_do_not_conflict() {
        let (fx, t) = Fixture::new(ProtocolConfig::semantic());
        let (_h_tree, h, _) = entry_under_method(&fx, t, 0, 1, get(10));
        let (_r_tree, inv, chain, node) = requestor_under_method(&fx, t, 0, 2, get(10));
        let r = Requestor { node, inv: &inv, chain: &chain };
        assert_eq!(fx.test(&h, &r), None);
        assert_eq!(fx.stats.snapshot().commute_skips, 1);
    }

    #[test]
    fn same_transaction_is_transparent() {
        let (fx, t) = Fixture::new(ProtocolConfig::semantic());
        let (tree, h, _) = entry_under_method(&fx, t, 0, 1, put(10));
        // Requestor in the SAME tree, conflicting leaf.
        let leaf2 = tree.add_child(0, Arc::new(put(10)));
        let chain = tree.chain(leaf2);
        let inv = tree.invocation(leaf2);
        let r =
            Requestor { node: NodeRef { top: tree.top(), idx: leaf2 }, inv: &inv, chain: &chain };
        assert_eq!(fx.test(&h, &r), None);
        assert_eq!(fx.stats.snapshot().same_txn_skips, 1);
    }

    #[test]
    fn case1_committed_commutative_ancestor_grants() {
        let (fx, t) = Fixture::new(ProtocolConfig::semantic());
        // Holder: leaf Put(o10) under method A on object 5.
        let (h_tree, h, m_idx) = entry_under_method(&fx, t, 0, 5, put(10));
        h_tree.complete(m_idx); // the commutative ancestor is committed
                                // Requestor: conflicting Get(o10) under method B on the SAME object 5.
        let (_r_tree, inv, chain, node) = requestor_under_method(&fx, t, 1, 5, get(10));
        let r = Requestor { node, inv: &inv, chain: &chain };
        assert_eq!(fx.test(&h, &r), None, "Case 1: pseudo-conflict is ignored");
        assert_eq!(fx.stats.snapshot().case1_grants, 1);
    }

    #[test]
    fn case2_uncommitted_commutative_ancestor_waits_for_it() {
        let (fx, t) = Fixture::new(ProtocolConfig::semantic());
        let (h_tree, h, m_idx) = entry_under_method(&fx, t, 0, 5, put(10));
        // Ancestor still active.
        let (_r_tree, inv, chain, node) = requestor_under_method(&fx, t, 1, 5, get(10));
        let r = Requestor { node, inv: &inv, chain: &chain };
        let blocker = fx.test(&h, &r);
        assert_eq!(blocker, Some(NodeRef { top: h_tree.top(), idx: m_idx }));
        assert_eq!(fx.stats.snapshot().case2_waits, 1);
    }

    #[test]
    fn no_commutative_pair_waits_for_root() {
        let (fx, t) = Fixture::new(ProtocolConfig::semantic());
        // Ancestors A and A on the same object do NOT commute (matrix).
        let (h_tree, h, m_idx) = entry_under_method(&fx, t, 0, 5, put(10));
        h_tree.complete(m_idx);
        let (_r_tree, inv, chain, node) = requestor_under_method(&fx, t, 0, 5, get(10));
        let r = Requestor { node, inv: &inv, chain: &chain };
        assert_eq!(fx.test(&h, &r), Some(NodeRef::root(h_tree.top())));
        assert_eq!(fx.stats.snapshot().root_waits, 1);
    }

    #[test]
    fn ancestors_on_different_objects_never_pair() {
        let (fx, t) = Fixture::new(ProtocolConfig::semantic());
        // Commutative methods A and B but on DIFFERENT objects 5 and 6.
        let (h_tree, h, m_idx) = entry_under_method(&fx, t, 0, 5, put(10));
        h_tree.complete(m_idx);
        let (_r_tree, inv, chain, node) = requestor_under_method(&fx, t, 1, 6, get(10));
        let r = Requestor { node, inv: &inv, chain: &chain };
        assert_eq!(
            fx.test(&h, &r),
            Some(NodeRef::root(h_tree.top())),
            "same-object rule prevents unsound grants"
        );
    }

    #[test]
    fn ancestor_check_disabled_always_waits_for_root() {
        let (fx, t) = Fixture::new(ProtocolConfig::no_ancestor_check());
        let (h_tree, h, m_idx) = entry_under_method(&fx, t, 0, 5, put(10));
        h_tree.complete(m_idx);
        let (_r_tree, inv, chain, node) = requestor_under_method(&fx, t, 1, 5, get(10));
        let r = Requestor { node, inv: &inv, chain: &chain };
        assert_eq!(fx.test(&h, &r), Some(NodeRef::root(h_tree.top())));
        assert_eq!(fx.stats.snapshot().case1_grants, 0);
        assert_eq!(fx.stats.snapshot().root_waits, 1);
    }

    #[test]
    fn decisions_reach_the_journal_with_both_parties() {
        let (fx, t) = Fixture::new(ProtocolConfig::semantic());
        let j = EventJournal::new(16);

        // Case 2 first (ancestor still running), then complete it → Case 1.
        let (h_tree, h, m_idx) = entry_under_method(&fx, t, 0, 5, put(10));
        let (_r_tree, inv, chain, node) = requestor_under_method(&fx, t, 1, 5, get(10));
        let r = Requestor { node, inv: &inv, chain: &chain };
        fx.test_journaled(&j, &h, &r);
        h_tree.complete(m_idx);
        fx.test_journaled(&j, &h, &r);

        let recs = j.snapshot();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].kind, JournalKind::Case2Wait);
        assert_eq!(recs[1].kind, JournalKind::Case1Grant);
        for rec in &recs {
            assert_eq!(rec.top, node.top.0, "requestor side");
            assert_eq!(rec.other_top, h_tree.top().0, "holder side");
            assert_eq!(rec.other_node, m_idx, "the commutative ancestor");
            assert_eq!(rec.key, 10, "the contested object");
        }
    }

    /// Run one scenario through the fast path and the verbatim Figure-9
    /// reference, each with fresh counters and a fresh journal, and assert
    /// the decision, every conflict counter and every journal record agree.
    fn assert_differential(fx: &Fixture, h: &LockEntry, r: &Requestor<'_>) {
        let (fast_stats, ref_stats) = (Stats::default(), Stats::default());
        let (fast_j, ref_j) = (EventJournal::new(16), EventJournal::new(16));
        let fast = test_conflict(
            &fx.router,
            &fx.registry,
            &fx.cfg,
            &fast_stats,
            Some(&fast_j),
            None,
            h,
            r,
        );
        let reference = test_conflict_reference(
            &fx.router,
            &fx.registry,
            &fx.cfg,
            &ref_stats,
            Some(&ref_j),
            h,
            r,
        );
        assert_eq!(fast, reference, "decision drift on {h:?} vs {}", r.inv);
        let (f, g) = (fast_stats.snapshot(), ref_stats.snapshot());
        assert_eq!(f.conflict_tests, g.conflict_tests);
        assert_eq!(f.same_txn_skips, g.same_txn_skips, "same-txn drift");
        assert_eq!(f.commute_skips, g.commute_skips, "commute-skip drift");
        assert_eq!(f.case1_grants, g.case1_grants, "Case-1 drift");
        assert_eq!(f.case2_waits, g.case2_waits, "Case-2 drift");
        assert_eq!(f.root_waits, g.root_waits, "root-wait drift");
        let (fr, rr) = (fast_j.snapshot(), ref_j.snapshot());
        assert_eq!(fr.len(), rr.len(), "journal volume drift");
        for (a, b) in fr.iter().zip(rr.iter()) {
            assert_eq!(a.kind, b.kind);
            assert_eq!((a.top, a.node, a.other_top, a.other_node, a.key), {
                (b.top, b.node, b.other_top, b.other_node, b.key)
            });
        }
    }

    /// Differential regression: the seven Figure-9 scenarios of this module
    /// replayed through the object-index fast path and the seed nested-loop
    /// reference must yield identical decisions, counters and journals.
    #[test]
    fn fast_path_matches_reference_on_figure9_scenarios() {
        // 1. Commuting actions (commute skip).
        let (fx, t) = Fixture::new(ProtocolConfig::semantic());
        let (_ht, h, _) = entry_under_method(&fx, t, 0, 1, get(10));
        let (_rt, inv, chain, node) = requestor_under_method(&fx, t, 0, 2, get(10));
        assert_differential(&fx, &h, &Requestor { node, inv: &inv, chain: &chain });

        // 2. Same top-level transaction (transparency).
        let (fx, t) = Fixture::new(ProtocolConfig::semantic());
        let (tree, h, _) = entry_under_method(&fx, t, 0, 1, put(10));
        let leaf2 = tree.add_child(0, Arc::new(put(10)));
        let (inv, chain) = (tree.invocation(leaf2), tree.chain(leaf2));
        let node = NodeRef { top: tree.top(), idx: leaf2 };
        assert_differential(&fx, &h, &Requestor { node, inv: &inv, chain: &chain });

        // 3. Case 1: committed commutative ancestor.
        let (fx, t) = Fixture::new(ProtocolConfig::semantic());
        let (ht, h, m_idx) = entry_under_method(&fx, t, 0, 5, put(10));
        ht.complete(m_idx);
        let (_rt, inv, chain, node) = requestor_under_method(&fx, t, 1, 5, get(10));
        assert_differential(&fx, &h, &Requestor { node, inv: &inv, chain: &chain });

        // 4. Case 2: uncommitted commutative ancestor.
        let (fx, t) = Fixture::new(ProtocolConfig::semantic());
        let (_ht, h, _) = entry_under_method(&fx, t, 0, 5, put(10));
        let (_rt, inv, chain, node) = requestor_under_method(&fx, t, 1, 5, get(10));
        assert_differential(&fx, &h, &Requestor { node, inv: &inv, chain: &chain });

        // 5. No commutative pair: root wait.
        let (fx, t) = Fixture::new(ProtocolConfig::semantic());
        let (ht, h, m_idx) = entry_under_method(&fx, t, 0, 5, put(10));
        ht.complete(m_idx);
        let (_rt, inv, chain, node) = requestor_under_method(&fx, t, 0, 5, get(10));
        assert_differential(&fx, &h, &Requestor { node, inv: &inv, chain: &chain });

        // 6. Commutative methods on different objects: same-object rule.
        let (fx, t) = Fixture::new(ProtocolConfig::semantic());
        let (ht, h, m_idx) = entry_under_method(&fx, t, 0, 5, put(10));
        ht.complete(m_idx);
        let (_rt, inv, chain, node) = requestor_under_method(&fx, t, 1, 6, get(10));
        assert_differential(&fx, &h, &Requestor { node, inv: &inv, chain: &chain });

        // 7. Ancestor check disabled (no-ancestor ablation) + top-level
        //    direct action (root-only chain).
        let (fx, t) = Fixture::new(ProtocolConfig::no_ancestor_check());
        let (ht, h, m_idx) = entry_under_method(&fx, t, 0, 5, put(10));
        ht.complete(m_idx);
        let (_rt, inv, chain, node) = requestor_under_method(&fx, t, 1, 5, get(10));
        assert_differential(&fx, &h, &Requestor { node, inv: &inv, chain: &chain });
        let r_tree = fx.registry.begin();
        let leaf = r_tree.add_child(0, Arc::new(get(10)));
        let (inv, chain) = (r_tree.invocation(leaf), r_tree.chain(leaf));
        let node = NodeRef { top: r_tree.top(), idx: leaf };
        assert_differential(&fx, &h, &Requestor { node, inv: &inv, chain: &chain });
    }

    /// The same differential on deep chains: depth {1, 2, 4, 8} × ancestor
    /// layout {every ancestor on an object of its own, all ancestors on one
    /// shared object} × {0, 10, 50} % commuting pairs among 16 methods
    /// (seeded, so the grid is the same every run), with conflicting
    /// `Put`/`Put` leaves under a retained holder. Depth ≥ 4 on the shared
    /// object at density 0 is the full ancestor-pair sweep to a root wait.
    #[test]
    fn fast_path_matches_reference_on_deep_chains() {
        const METHODS: u32 = 16;
        for density_pct in [0u64, 10, 50] {
            let mut lcg = 0x5EED_0000 + density_pct;
            let mut matrix = CompatibilityMatrix::new();
            for a in 0..METHODS {
                for b in a..METHODS {
                    lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    if (lcg >> 33) % 100 < density_pct {
                        matrix.ok(MethodId(a), MethodId(b));
                    } else {
                        matrix.conflict(MethodId(a), MethodId(b));
                    }
                }
            }
            let mut catalog = Catalog::new();
            let ty = catalog.register_type(TypeDef {
                name: "Grid".into(),
                kind: TypeKind::Encapsulated,
                methods: vec![],
                spec: Arc::new(matrix),
            });
            let fx = Fixture {
                registry: Arc::new(Registry::new()),
                router: catalog.router(),
                stats: Stats::default(),
                cfg: ProtocolConfig::semantic(),
            };
            for depth in [1u32, 2, 4, 8] {
                for shared in [false, true] {
                    let leaf_under = |private_obj: u64, first_method: u32| {
                        let tree = fx.registry.begin();
                        let mut parent = 0;
                        for d in 0..depth {
                            let obj = if shared { 500 } else { private_obj + u64::from(d) };
                            let method = MethodId((first_method + d) % METHODS);
                            let inv = Invocation::user(ObjectId(obj), ty, method, vec![]);
                            parent = tree.add_child(parent, Arc::new(inv));
                        }
                        let leaf = tree.add_child(parent, Arc::new(put(7)));
                        let node = NodeRef { top: tree.top(), idx: leaf };
                        (tree.invocation(leaf), tree.chain(leaf), node)
                    };
                    let (inv, chain, node) = leaf_under(1000, 0);
                    let holder = LockEntry { node, inv, chain, retained: true };
                    let (inv, chain, node) = leaf_under(2000, depth);
                    assert_differential(
                        &fx,
                        &holder,
                        &Requestor { node, inv: &inv, chain: &chain },
                    );
                }
            }
        }
    }

    /// The fast path must honour the reference's pair ordering: with two
    /// commutative ancestor pairs available, the bottom-most holder-side
    /// ancestor wins (outer loop over h, inner over r).
    #[test]
    fn fast_path_prefers_bottom_up_holder_ancestor() {
        let (fx, t) = Fixture::new(ProtocolConfig::semantic());
        // Holder: root → A(obj 5) → B(obj 5) → leaf. Both proper ancestors
        // sit on object 5.
        let h_tree = fx.registry.begin();
        let a =
            h_tree.add_child(0, Arc::new(Invocation::user(ObjectId(5), t, MethodId(0), vec![])));
        let b =
            h_tree.add_child(a, Arc::new(Invocation::user(ObjectId(5), t, MethodId(1), vec![])));
        let leaf = h_tree.add_child(b, Arc::new(put(10)));
        let h = LockEntry {
            node: NodeRef { top: h_tree.top(), idx: leaf },
            inv: h_tree.invocation(leaf),
            chain: h_tree.chain(leaf),
            retained: false,
        };
        // Requestor with the same root → A(obj 5) → B(obj 5) → leaf shape.
        // Candidate pairs in (h_pos, r_pos) order: (B,B) no, (B,A) YES —
        // the holder's bottom-most ancestor B wins. An r-major traversal
        // would instead find (A,B) first and name A: the assertion below
        // pins the h-major order of the reference nested loop.
        let r_tree = fx.registry.begin();
        let ra =
            r_tree.add_child(0, Arc::new(Invocation::user(ObjectId(5), t, MethodId(0), vec![])));
        let rb =
            r_tree.add_child(ra, Arc::new(Invocation::user(ObjectId(5), t, MethodId(1), vec![])));
        let r_leaf = r_tree.add_child(rb, Arc::new(get(10)));
        let (inv, chain) = (r_tree.invocation(r_leaf), r_tree.chain(r_leaf));
        let node = NodeRef { top: r_tree.top(), idx: r_leaf };
        let r = Requestor { node, inv: &inv, chain: &chain };
        assert_differential(&fx, &h, &r);
        assert_eq!(
            fx.test(&h, &r),
            Some(NodeRef { top: h_tree.top(), idx: b }),
            "bottom-most holder ancestor is the Case-2 blocker"
        );
    }

    #[test]
    fn top_level_direct_actions_have_only_root_ancestors() {
        // A bypassing top-level action (direct leaf under the root, as T3
        // does in Figure 5) must not benefit from commutative ancestors.
        let (fx, t) = Fixture::new(ProtocolConfig::semantic());
        let (h_tree, h, m_idx) = entry_under_method(&fx, t, 0, 5, put(10));
        h_tree.complete(m_idx);
        // Requestor: direct leaf under its root.
        let r_tree = fx.registry.begin();
        let leaf = r_tree.add_child(0, Arc::new(get(10)));
        let inv = r_tree.invocation(leaf);
        let chain = r_tree.chain(leaf);
        let r =
            Requestor { node: NodeRef { top: r_tree.top(), idx: leaf }, inv: &inv, chain: &chain };
        assert_eq!(
            fx.test(&h, &r),
            Some(NodeRef::root(h_tree.top())),
            "roots never commute: wait for top-level commit"
        );
    }
}
