//! The oracles: every check that says "this run was right" (listed in
//! the crate docs). The serial-replay ones share one executor, `replay`.

use crate::executor::CommittedTxn;
use semcc_core::{Engine, Event, NodeRef, Stamped, TopId};
use semcc_objstore::MemoryStore;
use semcc_orderentry::{Database, TxnSpec};
use semcc_semantics::{
    Catalog, Invocation, ObjectId, Result, SemanticsRouter, SemccError, Storage, Value,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

// ---------------------------------------------------------------------
// State / return-value equivalence
// ---------------------------------------------------------------------

/// Canonical observable database state: per item `(ItemNo, Price, QOH,
/// orders)` with orders as `(OrderNo, CustomerNo, Quantity, Status)` —
/// object identities normalized away.
pub type CanonicalDb = Vec<(i64, i64, i64, Vec<(i64, i64, i64, i64)>)>;

/// Project a store onto the canonical order-entry state.
pub fn canonical_state(store: &dyn Storage, items_set: ObjectId) -> Result<CanonicalDb> {
    let mut out = Vec::new();
    for (_k, item) in store.set_scan(items_set)? {
        let geti = |name: &str| -> Result<i64> {
            Ok(store.get(store.field(item, name)?)?.as_int().unwrap_or(0))
        };
        let mut orders = Vec::new();
        for (_ok, order) in store.set_scan(store.field(item, "Orders")?)? {
            let geto = |name: &str| -> Result<i64> {
                Ok(store.get(store.field(order, name)?)?.as_int().unwrap_or(0))
            };
            orders.push((
                geto("OrderNo")?,
                geto("CustomerNo")?,
                geto("Quantity")?,
                geto("Status")?,
            ));
        }
        orders.sort();
        out.push((geti("ItemNo")?, geti("Price")?, geti("QOH")?, orders));
    }
    out.sort();
    Ok(out)
}

/// Project a store onto the canonical state of **one shard's slice**:
/// only items owned by `shard` under the fleet's `item_no % n_shards`
/// partitioning. This is the authoritative observable state of a single
/// shard replica in the sharded deployment.
pub fn canonical_shard_state(
    store: &dyn Storage,
    items_set: ObjectId,
    n_shards: usize,
    shard: usize,
) -> Result<CanonicalDb> {
    Ok(canonical_state(store, items_set)?
        .into_iter()
        .filter(|row| (row.0 as u64) % (n_shards as u64) == shard as u64)
        .collect())
}

/// Execute `specs` serially, in the order given, on a copy of `initial`.
/// Returns the resulting store and each transaction's return value, or
/// the position and error of the first transaction that fails.
fn replay<'a>(
    initial: &MemoryStore,
    catalog: &Arc<Catalog>,
    specs: impl IntoIterator<Item = &'a TxnSpec>,
) -> std::result::Result<(Arc<MemoryStore>, Vec<Value>), (usize, SemccError)> {
    let store = Arc::new(initial.snapshot());
    let engine =
        Engine::builder(Arc::clone(&store) as Arc<dyn Storage>, Arc::clone(catalog)).build();
    let mut values = Vec::new();
    for (k, spec) in specs.into_iter().enumerate() {
        values.push(engine.execute(spec).map_err(|e| (k, e))?.value);
    }
    Ok((store, values))
}

/// The committed-prefix oracle: `got`, under `project`
/// ([`canonical_state`], or [`canonical_shard_state`] for one shard's
/// slice), must equal the serial replay of `winners` — the specs of
/// exactly the transactions that count as committed, in commit order — on
/// `fresh`, a new build of the initial state `got` started from (builds
/// are deterministic and order numbers are baked into the specs, so the
/// replay is too). The error names the winner that failed to replay, or
/// carries both states.
pub fn check_committed_prefix(
    fresh: &Database,
    winners: &[&TxnSpec],
    got: &dyn Storage,
    project: impl Fn(&dyn Storage) -> Result<CanonicalDb>,
) -> std::result::Result<(), String> {
    let (want, _) = replay(&fresh.store, &fresh.catalog, winners.iter().copied())
        .map_err(|(k, e)| format!("serial replay of winner #{k} ({:?}) failed: {e}", winners[k]))?;
    match (project(got), project(want.as_ref())) {
        (Ok(g), Ok(w)) if g == w => Ok(()),
        (Ok(g), Ok(w)) => {
            Err(format!("state != serial replay of the committed prefix\n got: {g:?}\nwant: {w:?}"))
        }
        (g, w) => Err(format!("canonical projection failed: {g:?} / {w:?}")),
    }
}

/// The specs of `winners` (transaction ids in commit order), looked up
/// among the recorded outcomes. A logged winner the process never saw
/// commit cannot happen — the commit record is appended before the
/// outcome returns — so a miss is an error, not a skip.
pub(crate) fn winner_specs<'a>(
    winners: &[u64],
    outcomes: &'a [CommittedTxn],
) -> std::result::Result<Vec<&'a TxnSpec>, String> {
    let spec_of: HashMap<u64, &TxnSpec> = outcomes.iter().map(|c| (c.top.0, &c.spec)).collect();
    winners
        .iter()
        .map(|top| {
            spec_of
                .get(top)
                .copied()
                .ok_or_else(|| format!("logged winner {top} has no recorded outcome"))
        })
        .collect()
}

/// The acked = durable oracle (fsyncgate), both directions: every
/// acknowledged commit has a durable commit record — exactly one — and
/// every durable commit record belongs to an acknowledged commit.
/// Snapshot commits write no log record, so durability is only promised
/// to locking-path commits; a reader that failed validation fell back to
/// the locking path and logged a `TopCommit` like any updater, which is
/// why `outcomes` are filtered by the path taken, not by the spec.
pub fn check_acked_durable(
    outcomes: &[CommittedTxn],
    durable: &[u64],
) -> std::result::Result<(), String> {
    let durable_set: HashSet<u64> = durable.iter().copied().collect();
    let mut acked: HashSet<u64> = HashSet::new();
    for c in outcomes.iter().filter(|c| !c.snapshot) {
        if !acked.insert(c.top.0) {
            return Err(format!("duplicate acknowledgment for top {}", c.top.0));
        }
        if !durable_set.contains(&c.top.0) {
            return Err(format!(
                "transaction {} was acknowledged but its commit record is not durable",
                c.top.0
            ));
        }
    }
    match durable.iter().find(|top| !acked.contains(top)) {
        Some(top) => Err(format!("durable winner {top} was never acknowledged")),
        None => Ok(()),
    }
}

/// What a quiescent engine must not hold.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Residue {
    /// Transactions still registered.
    pub live: usize,
    /// Lock-table entries still held or queued.
    pub lock_entries: usize,
    /// Waits-for-graph state `(edges, cells, doomed, aborting)`.
    pub wfg: (usize, usize, usize, usize),
}

impl Residue {
    /// Probe an engine.
    pub fn of(engine: &Engine) -> Self {
        Residue {
            live: engine.live_transactions(),
            lock_entries: engine.lock_entries(),
            wfg: engine.wfg_residue(),
        }
    }

    /// The residue oracle: every component is zero.
    pub fn check(&self) -> std::result::Result<(), String> {
        if *self == Residue::default() {
            Ok(())
        } else {
            Err(format!("engine not quiescent: {self:?}"))
        }
    }
}

/// Search for a serial order of `committed` that reproduces the observed
/// final state and return values. `initial` must be a snapshot taken
/// *before* the concurrent run. Tries the engine-id order first, then all
/// permutations (only if `committed.len() <= max_full_perm`).
///
/// Returns the witnessing order, or `None` if no tested order matches.
pub fn check_state_equivalence(
    initial: &MemoryStore,
    catalog: &Arc<Catalog>,
    items_set: ObjectId,
    committed: &[CommittedTxn],
    final_store: &MemoryStore,
    max_full_perm: usize,
) -> Option<Vec<usize>> {
    let observed_state = canonical_state(final_store, items_set).ok()?;
    let observed_values: Vec<Value> = committed.iter().map(|c| c.value.clone()).collect();

    let matches = |order: &[usize]| -> bool {
        let Ok((store, values)) =
            replay(initial, catalog, order.iter().map(|&i| &committed[i].spec))
        else {
            return false;
        };
        canonical_state(store.as_ref(), items_set).is_ok_and(|state| state == observed_state)
            && order.iter().zip(&values).all(|(&i, v)| *v == observed_values[i])
    };

    // Engine-id order (very likely the serialization order under locking).
    let mut base: Vec<usize> = (0..committed.len()).collect();
    base.sort_by_key(|&i| committed[i].top);
    if matches(&base) {
        return Some(base);
    }

    if committed.len() > max_full_perm {
        return None;
    }
    // Exhaustive permutation search (Heap's algorithm).
    let mut perm = base.clone();
    let n = perm.len();
    let mut c = vec![0usize; n];
    if matches(&perm) {
        return Some(perm);
    }
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                perm.swap(0, i);
            } else {
                perm.swap(c[i], i);
            }
            if matches(&perm) {
                return Some(perm);
            }
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    None
}

// ---------------------------------------------------------------------
// Snapshot-read commit-order check
// ---------------------------------------------------------------------

/// Result of [`check_snapshot_reads`].
#[derive(Debug)]
pub struct SnapshotReport {
    /// Snapshot transactions examined.
    pub checked: usize,
    /// Transactions replayed on the locking path to build the prefixes.
    pub replayed: usize,
    /// `input_idx` of every snapshot transaction whose observed values do
    /// not match its commit-order prefix.
    pub mismatches: Vec<usize>,
}

impl SnapshotReport {
    /// All snapshot transactions observed a committed prefix.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Check every committed *snapshot* transaction against the engine's commit
/// order: replaying the non-snapshot transactions serially in `commit_seq`
/// order on a copy of `initial`, a snapshot transaction with sequence
/// number `s` must return exactly the values it would return when executed
/// on the state produced by the transactions with sequence numbers below
/// `s` — i.e. its reads are consistent with a *prefix* of the committed
/// serial order, which is what OCC backward validation promises.
///
/// Exact for the deterministic [`TxnSpec`] programs because the
/// order-entry writers commute at the state level whenever the protocol
/// lets them interleave, so the `commit_seq` replay reconstructs each
/// prefix state faithfully. Returns `Err` if a replayed transaction fails.
pub fn check_snapshot_reads(
    initial: &MemoryStore,
    catalog: &Arc<Catalog>,
    committed: &[CommittedTxn],
) -> std::result::Result<SnapshotReport, String> {
    let mut order: Vec<&CommittedTxn> = committed.iter().collect();
    order.sort_by_key(|c| c.commit_seq);
    let (_, values) =
        replay(initial, catalog, order.iter().map(|c| &c.spec)).map_err(|(k, e)| {
            format!("replay of input {} ({}) failed: {e}", order[k].input_idx, order[k].spec.kind())
        })?;

    let mut report = SnapshotReport { checked: 0, replayed: 0, mismatches: Vec::new() };
    for (c, value) in order.iter().zip(&values) {
        if c.snapshot {
            report.checked += 1;
            if *value != c.value {
                report.mismatches.push(c.input_idx);
            }
        } else {
            report.replayed += 1;
        }
    }
    Ok(report)
}

// ---------------------------------------------------------------------
// Semantic serialization graph
// ---------------------------------------------------------------------

#[derive(Debug)]
struct ActionRec {
    node: NodeRef,
    inv: Arc<Invocation>,
    parent: NodeRef,
    /// Serialization point: lock grant (or start) sequence number.
    seq: u64,
}

/// Result of the graph check.
#[derive(Debug)]
pub struct GraphReport {
    /// Whether the conflict graph over committed transactions is acyclic.
    pub serializable: bool,
    /// A witness cycle, if any.
    pub cycle: Option<Vec<TopId>>,
    /// Committed transactions examined.
    pub committed: usize,
    /// Unabsorbed conflict edges found.
    pub edges: usize,
    /// Same-object action pairs tested.
    pub pairs_tested: usize,
}

/// Build the semantic serialization graph from a recorded history and test
/// it for cycles. Only actions of **committed** transactions participate
/// (aborted transactions are compensated and drop out of the equivalent
/// serial execution).
pub fn check_semantic_graph(events: &[Stamped], router: &SemanticsRouter) -> GraphReport {
    let mut committed: HashSet<TopId> = HashSet::new();
    let mut actions: HashMap<NodeRef, ActionRec> = HashMap::new();
    let mut compensating: HashSet<TopId> = HashSet::new();

    for e in events {
        match &e.ev {
            Event::TopCommit { top } => {
                committed.insert(*top);
            }
            Event::Compensate { top, .. } => {
                compensating.insert(*top);
            }
            Event::ActionStart { node, parent, inv } => {
                actions.insert(
                    *node,
                    ActionRec { node: *node, inv: Arc::clone(inv), parent: *parent, seq: e.seq },
                );
            }
            Event::Granted { node, .. } => {
                if let Some(a) = actions.get_mut(node) {
                    a.seq = e.seq;
                }
            }
            _ => {}
        }
    }

    // Ancestor chains (object+invocation only) per node.
    let chain_of = |node: NodeRef| -> Vec<Arc<Invocation>> {
        let mut out = Vec::new();
        let mut cur = node;
        while let Some(rec) = actions.get(&cur) {
            out.push(Arc::clone(&rec.inv));
            if rec.parent.idx == cur.idx || rec.parent.is_root() {
                break;
            }
            cur = rec.parent;
        }
        out
    };

    // Bucket committed LEAF actions by object. Leaves carry every
    // state-level dependency (a method's behaviour is realized entirely
    // through its leaf reads and writes), and their lock-grant order is the
    // true serialization order under every protocol — method-level action
    // start order is not (the 2PL baselines do not lock methods at all).
    // Semantic absorption then removes the leaf conflicts that commutative
    // ancestors declare insignificant.
    let mut by_object: BTreeMap<ObjectId, Vec<&ActionRec>> = BTreeMap::new();
    for rec in actions.values() {
        if rec.inv.method.is_generic() && committed.contains(&rec.node.top) {
            by_object.entry(rec.inv.object).or_default().push(rec);
        }
    }

    let mut edges: HashMap<TopId, HashSet<TopId>> = HashMap::new();
    let mut edge_count = 0usize;
    let mut pairs_tested = 0usize;

    for recs in by_object.values() {
        for (i, a) in recs.iter().enumerate() {
            for b in recs.iter().skip(i + 1) {
                if a.node.top == b.node.top {
                    continue;
                }
                pairs_tested += 1;
                if router.commute(&a.inv, &b.inv) {
                    continue;
                }
                // Absorption by a commutative ancestor pair (proper
                // ancestors on a common object).
                let ca = chain_of(a.node);
                let cb = chain_of(b.node);
                let absorbed =
                    ca.iter().skip(1).any(|ai| cb.iter().skip(1).any(|bi| router.commute(ai, bi)));
                if absorbed {
                    continue;
                }
                let (from, to) =
                    if a.seq < b.seq { (a.node.top, b.node.top) } else { (b.node.top, a.node.top) };
                if edges.entry(from).or_default().insert(to) {
                    edge_count += 1;
                }
            }
        }
    }

    // Cycle detection (iterative DFS with colors).
    let mut color: HashMap<TopId, u8> = HashMap::new(); // 0 white, 1 grey, 2 black
    let mut cycle = None;
    'outer: for &start in committed.iter() {
        if color.get(&start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        let mut path = vec![start];
        color.insert(start, 1);
        while let Some((node, child_idx)) = stack.pop() {
            let nexts: Vec<TopId> =
                edges.get(&node).map(|s| s.iter().copied().collect()).unwrap_or_default();
            if child_idx < nexts.len() {
                stack.push((node, child_idx + 1));
                let n = nexts[child_idx];
                match color.get(&n).copied().unwrap_or(0) {
                    0 => {
                        color.insert(n, 1);
                        path.push(n);
                        stack.push((n, 0));
                    }
                    1 => {
                        // Found a cycle: slice the current path from n.
                        let pos = path.iter().position(|t| *t == n).unwrap_or(0);
                        cycle = Some(path[pos..].to_vec());
                        break 'outer;
                    }
                    _ => {}
                }
            } else {
                color.insert(node, 2);
                if path.last() == Some(&node) {
                    path.pop();
                }
            }
        }
    }

    GraphReport {
        serializable: cycle.is_none(),
        cycle,
        committed: committed.len(),
        edges: edge_count,
        pairs_tested,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{run_workload, RunParams};
    use crate::protocols::{build_engine, ProtocolKind};
    use semcc_core::MemorySink;
    use semcc_orderentry::{Database, DbParams, Workload, WorkloadConfig};

    fn small_db() -> Database {
        Database::build(&DbParams { n_items: 2, orders_per_item: 2, ..Default::default() }).unwrap()
    }

    #[test]
    fn canonical_state_projects_schema() {
        let db = small_db();
        let c = canonical_state(db.store.as_ref(), db.items_set).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].0, 1, "ItemNo");
        assert_eq!(c[0].3.len(), 2, "orders");
        assert_eq!(c[0].3[0].3, 0, "status new");
    }

    #[test]
    fn state_equivalence_accepts_serial_run() {
        let db = small_db();
        let initial = db.store.snapshot();
        let engine = build_engine(ProtocolKind::Semantic, &db, None);
        let mut w = Workload::new(&db, WorkloadConfig::default());
        let batch = w.batch(&db, 5);
        let out = run_workload(
            &engine,
            batch,
            &RunParams { workers: 1, record_outcomes: true, ..Default::default() },
        );
        let witness = check_state_equivalence(
            &initial,
            &db.catalog,
            db.items_set,
            &out.committed,
            &db.store,
            6,
        );
        assert!(witness.is_some(), "serial run must be trivially equivalent");
    }

    #[test]
    fn state_equivalence_accepts_concurrent_semantic_run() {
        let db = small_db();
        let initial = db.store.snapshot();
        let engine = build_engine(ProtocolKind::Semantic, &db, None);
        let mut w = Workload::new(&db, WorkloadConfig { zipf_theta: 1.2, ..Default::default() });
        let batch = w.batch(&db, 6);
        let out = run_workload(
            &engine,
            batch,
            &RunParams { workers: 4, record_outcomes: true, ..Default::default() },
        );
        assert_eq!(out.committed.len(), 6);
        let witness = check_state_equivalence(
            &initial,
            &db.catalog,
            db.items_set,
            &out.committed,
            &db.store,
            6,
        );
        assert!(witness.is_some(), "semantic protocol run must be serializable");
    }

    #[test]
    fn state_equivalence_rejects_corrupted_state() {
        let db = small_db();
        let initial = db.store.snapshot();
        let engine = build_engine(ProtocolKind::Semantic, &db, None);
        let mut w = Workload::new(&db, WorkloadConfig::default());
        let batch = w.batch(&db, 4);
        let out = run_workload(
            &engine,
            batch,
            &RunParams { workers: 2, record_outcomes: true, ..Default::default() },
        );
        // Corrupt the final state.
        db.store.put(db.items[0].qoh, Value::Int(-999)).unwrap();
        let witness = check_state_equivalence(
            &initial,
            &db.catalog,
            db.items_set,
            &out.committed,
            &db.store,
            6,
        );
        assert!(witness.is_none());
    }

    #[test]
    fn graph_check_passes_semantic_run() {
        let db = small_db();
        let sink = MemorySink::new();
        let engine = build_engine(ProtocolKind::Semantic, &db, Some(sink.clone()));
        let mut w = Workload::new(&db, WorkloadConfig { zipf_theta: 1.5, ..Default::default() });
        let batch = w.batch(&db, 20);
        let _ = run_workload(&engine, batch, &RunParams { workers: 4, ..Default::default() });
        let report = check_semantic_graph(&sink.events(), engine.router());
        assert!(report.serializable, "cycle: {:?}", report.cycle);
        assert_eq!(report.committed, 20);
    }

    #[test]
    fn graph_check_detects_handmade_cycle() {
        // Synthesize a history with a 2-cycle: T1 and T2 each Put two
        // objects in opposite orders, no commutative ancestors.
        use semcc_semantics::{Invocation, TYPE_ATOMIC};
        let sink = MemorySink::new();
        let o1 = ObjectId(100);
        let o2 = ObjectId(200);
        let mk = |top: u64, idx: u32, obj: ObjectId| Event::ActionStart {
            node: NodeRef { top: TopId(top), idx },
            parent: NodeRef::root(TopId(top)),
            inv: Arc::new(Invocation::put(obj, TYPE_ATOMIC, Value::Int(0))),
        };
        use semcc_core::HistorySink;
        sink.record(mk(1, 1, o1)); // T1 writes o1 first
        sink.record(mk(2, 1, o2)); // T2 writes o2
        sink.record(mk(2, 2, o1)); // T2 writes o1 (after T1)
        sink.record(mk(1, 2, o2)); // T1 writes o2 (after T2) → cycle
        sink.record(Event::TopCommit { top: TopId(1) });
        sink.record(Event::TopCommit { top: TopId(2) });
        let catalog = Catalog::new();
        let report = check_semantic_graph(&sink.events(), &catalog.router());
        assert!(!report.serializable);
        let cycle = report.cycle.unwrap();
        assert!(cycle.contains(&TopId(1)) && cycle.contains(&TopId(2)), "{cycle:?}");
    }

    #[test]
    fn snapshot_reads_check_passes_mixed_semantic_run() {
        use semcc_orderentry::MixWeights;
        let db = small_db();
        let initial = db.store.snapshot();
        let engine = build_engine(ProtocolKind::Semantic, &db, None);
        let cfg = WorkloadConfig { mix: MixWeights::with_read_ratio(50), ..Default::default() };
        let mut w = Workload::new(&db, cfg);
        let batch = w.batch(&db, 30);
        let out = run_workload(
            &engine,
            batch,
            &RunParams { workers: 4, record_outcomes: true, ..Default::default() },
        );
        assert_eq!(out.committed.len(), 30);
        let snap_count = out.committed.iter().filter(|c| c.snapshot).count();
        assert!(snap_count > 0, "a 50%-read mix produces snapshot commits");
        let report = check_snapshot_reads(&initial, &db.catalog, &out.committed).unwrap();
        assert_eq!(report.checked, snap_count);
        assert_eq!(report.replayed, 30 - snap_count);
        assert!(report.ok(), "mismatched readers: {:?}", report.mismatches);
    }

    #[test]
    fn snapshot_reads_check_flags_forged_value() {
        use semcc_orderentry::MixWeights;
        let db = small_db();
        let initial = db.store.snapshot();
        let engine = build_engine(ProtocolKind::Semantic, &db, None);
        let cfg = WorkloadConfig { mix: MixWeights::with_read_ratio(60), ..Default::default() };
        let mut w = Workload::new(&db, cfg);
        let batch = w.batch(&db, 20);
        let mut out = run_workload(
            &engine,
            batch,
            &RunParams { workers: 2, record_outcomes: true, ..Default::default() },
        );
        let victim = out
            .committed
            .iter_mut()
            .find(|c| c.snapshot)
            .expect("a 60%-read mix produces snapshot commits");
        let forged_idx = victim.input_idx;
        victim.value = Value::Int(-12345);
        let report = check_snapshot_reads(&initial, &db.catalog, &out.committed).unwrap();
        assert!(!report.ok());
        assert_eq!(report.mismatches, vec![forged_idx]);
    }

    // ---- the three audit oracles, shown to fail ---------------------

    /// A live store that ran `NewOrders` then `Ship` of the order it
    /// created (so the pair does not commute: the shipment needs the
    /// order to exist), a fresh build of the same initial state, and the
    /// two specs.
    fn create_then_ship() -> (Database, Database, TxnSpec, TxnSpec) {
        let (live, fresh) = (small_db(), small_db());
        let engine = build_engine(ProtocolKind::Semantic, &live, None);
        let item = &live.items[0];
        let order_no = live.next_order_no;
        let create =
            TxnSpec::NewOrders { entries: vec![(item.item, order_no)], customer: 7, quantity: 3 };
        engine.execute(&create).unwrap();
        let orders = live.store.field(item.item, "Orders").unwrap();
        let (_, order) =
            live.store.set_scan(orders).unwrap().into_iter().find(|(k, _)| *k == order_no).unwrap();
        let ship = TxnSpec::Ship(vec![semcc_orderentry::Target { item: item.item, order }]);
        engine.execute(&ship).unwrap();
        (live, fresh, create, ship)
    }

    /// The whole-database projection for [`check_committed_prefix`].
    fn whole(db: &Database) -> impl Fn(&dyn Storage) -> Result<CanonicalDb> {
        let items_set = db.items_set;
        move |store| canonical_state(store, items_set)
    }

    #[test]
    fn committed_prefix_accepts_the_winners_in_commit_order() {
        let (live, fresh, create, ship) = create_then_ship();
        check_committed_prefix(&fresh, &[&create, &ship], live.store.as_ref(), whole(&fresh))
            .unwrap();
    }

    #[test]
    fn committed_prefix_rejects_a_dropped_winner() {
        let (live, fresh, create, _ship) = create_then_ship();
        let err = check_committed_prefix(&fresh, &[&create], live.store.as_ref(), whole(&fresh))
            .unwrap_err();
        assert!(err.contains("state != serial replay") && err.contains("want:"), "{err}");
    }

    #[test]
    fn committed_prefix_rejects_a_surviving_loser_effect() {
        let (live, fresh, create, ship) = create_then_ship();
        // A loser's payment that was never undone: not among the winners,
        // still in the state.
        let t = semcc_orderentry::Target {
            item: live.items[0].item,
            order: live.items[0].orders[0].order,
        };
        build_engine(ProtocolKind::Semantic, &live, None).execute(&TxnSpec::Pay(vec![t])).unwrap();
        let err =
            check_committed_prefix(&fresh, &[&create, &ship], live.store.as_ref(), whole(&fresh))
                .unwrap_err();
        assert!(err.contains("state != serial replay"), "{err}");
        // Item 1 is owned by shard 1 of 2: the leak shows in that slice
        // and only there.
        let slice = |shard| {
            check_committed_prefix(&fresh, &[&create, &ship], live.store.as_ref(), |store| {
                canonical_shard_state(store, fresh.items_set, 2, shard)
            })
        };
        assert!(slice(1).is_err());
        slice(0).unwrap();
    }

    #[test]
    fn committed_prefix_rejects_a_swapped_non_commuting_pair() {
        let (live, fresh, create, ship) = create_then_ship();
        let err =
            check_committed_prefix(&fresh, &[&ship, &create], live.store.as_ref(), whole(&fresh))
                .unwrap_err();
        assert!(err.contains("serial replay of winner #0"), "{err}");
    }

    #[test]
    fn winner_specs_rejects_a_winner_without_an_outcome() {
        let outcomes = [acked(4, false)];
        assert_eq!(winner_specs(&[4], &outcomes).unwrap().len(), 1);
        let err = winner_specs(&[4, 5], &outcomes).unwrap_err();
        assert!(err.contains("winner 5 has no recorded outcome"), "{err}");
    }

    fn acked(top: u64, snapshot: bool) -> CommittedTxn {
        CommittedTxn {
            input_idx: 0,
            spec: TxnSpec::Total(ObjectId(0)),
            top: TopId(top),
            value: Value::Unit,
            snapshot,
            commit_seq: top,
        }
    }

    #[test]
    fn acked_durable_accepts_equal_sets_and_ignores_snapshot_commits() {
        let outcomes = [acked(1, false), acked(2, false), acked(3, true)];
        check_acked_durable(&outcomes, &[2, 1]).unwrap();
    }

    #[test]
    fn acked_durable_rejects_an_acked_top_that_is_not_durable() {
        let outcomes = [acked(1, false), acked(2, false)];
        let err = check_acked_durable(&outcomes, &[1]).unwrap_err();
        assert!(err.contains("transaction 2 was acknowledged but"), "{err}");
        // A reader that fell back to the locking path is audited like an
        // updater: only the path taken exempts a commit.
        let err = check_acked_durable(&[acked(3, false)], &[]).unwrap_err();
        assert!(err.contains("transaction 3"), "{err}");
    }

    #[test]
    fn acked_durable_rejects_a_durable_top_that_was_never_acked() {
        let outcomes = [acked(1, false), acked(3, true)];
        let err = check_acked_durable(&outcomes, &[1, 9]).unwrap_err();
        assert!(err.contains("durable winner 9 was never acknowledged"), "{err}");
        // A snapshot commit's id in the log is just as wrong.
        let err = check_acked_durable(&outcomes, &[1, 3]).unwrap_err();
        assert!(err.contains("durable winner 3"), "{err}");
    }

    #[test]
    fn acked_durable_rejects_a_duplicate_acknowledgment() {
        let outcomes = [acked(1, false), acked(1, false)];
        let err = check_acked_durable(&outcomes, &[1]).unwrap_err();
        assert!(err.contains("duplicate acknowledgment for top 1"), "{err}");
    }

    #[test]
    fn residue_rejects_each_nonzero_component() {
        Residue::default().check().unwrap();
        let dirty = [
            Residue { live: 1, ..Default::default() },
            Residue { lock_entries: 1, ..Default::default() },
            Residue { wfg: (1, 0, 0, 0), ..Default::default() },
            Residue { wfg: (0, 1, 0, 0), ..Default::default() },
            Residue { wfg: (0, 0, 1, 0), ..Default::default() },
            Residue { wfg: (0, 0, 0, 1), ..Default::default() },
        ];
        for residue in dirty {
            let err = residue.check().unwrap_err();
            assert!(err.contains("not quiescent"), "{residue:?}: {err}");
        }
    }

    /// The probe reads the engine: a transaction parked mid-flight shows
    /// up as a live transaction holding lock entries, and is gone once it
    /// commits.
    #[test]
    fn residue_probe_sees_a_transaction_in_flight() {
        use crate::scenario::{Gate, OpenOnDrop};
        use semcc_core::FnProgram;
        use semcc_semantics::MethodContext;
        let db = small_db();
        let engine = build_engine(ProtocolKind::Semantic, &db, None);
        let t =
            semcc_orderentry::Target { item: db.items[0].item, order: db.items[0].orders[0].order };
        let (entered, hold) = (Gate::new(), Gate::new());
        std::thread::scope(|s| {
            let _unstick = OpenOnDrop::new([Arc::clone(&hold)]);
            let (e, g) = (Arc::clone(&entered), Arc::clone(&hold));
            let prog = FnProgram::new("parked", move |ctx: &mut dyn MethodContext| {
                ctx.call(t.item, "ShipOrder", vec![Value::Id(t.order)])?;
                e.open();
                g.wait();
                Ok(Value::Unit)
            });
            let engine = &engine;
            let worker = s.spawn(move || engine.execute(&prog));
            entered.wait();
            let busy = Residue::of(engine);
            assert!(busy.live == 1 && busy.lock_entries > 0, "{busy:?}");
            assert!(busy.check().is_err());
            hold.open();
            worker.join().unwrap().unwrap();
        });
        Residue::of(&engine).check().unwrap();
    }

    #[test]
    fn graph_check_absorbs_commutative_ancestors() {
        // T1 Ship(i,o) and T2 Pay(i,o) concurrently: leaf status writes
        // conflict but the ShipOrder/PayOrder ancestor pair absorbs them.
        let db = small_db();
        let sink = MemorySink::new();
        let engine = build_engine(ProtocolKind::Semantic, &db, Some(sink.clone()));
        let t =
            semcc_orderentry::Target { item: db.items[0].item, order: db.items[0].orders[0].order };
        let batch =
            vec![semcc_orderentry::TxnSpec::Ship(vec![t]), semcc_orderentry::TxnSpec::Pay(vec![t])];
        let _ = run_workload(&engine, batch, &RunParams { workers: 2, ..Default::default() });
        let report = check_semantic_graph(&sink.events(), engine.router());
        assert!(report.serializable);
    }
}
