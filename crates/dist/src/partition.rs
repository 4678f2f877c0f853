//! Hash partitioning of the order-entry database across N shards.
//!
//! Ownership is by **primary key**: item `i` (and every order under it)
//! lives on shard `ItemNo(i) mod N`. Every shard holds a full,
//! deterministically built replica of the initial database — identical
//! `ObjectId`s on every node, because [`Database::build`] is
//! deterministic — but only ever executes invocations against the items
//! it owns, so the owned slices of the N stores tile the logical
//! database without overlap.

use semcc_orderentry::{Database, Target, TxnSpec};
use semcc_semantics::{IdMap, ObjectId};
use std::collections::HashMap;

/// Routing table: object → owning shard.
#[derive(Clone, Debug)]
pub struct PartitionMap {
    n_shards: usize,
    /// Item tuple object → its primary key.
    item_no: IdMap<ObjectId, u64>,
    /// Pre-populated order tuple object → the owning item's primary key.
    order_item_no: IdMap<ObjectId, u64>,
}

impl PartitionMap {
    /// Build the routing table from a reference database (any replica —
    /// they are all identical).
    pub fn new(db: &Database, n_shards: usize) -> PartitionMap {
        assert!(n_shards >= 1, "a fleet has at least one shard");
        let mut item_no = IdMap::default();
        let mut order_item_no = IdMap::default();
        for info in &db.items {
            item_no.insert(info.item, info.item_no);
            for o in &info.orders {
                order_item_no.insert(o.order, info.item_no);
            }
        }
        PartitionMap { n_shards, item_no, order_item_no }
    }

    /// Number of shards in the fleet.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// The shard owning primary key `item_no`.
    pub fn owner_of_item_no(&self, item_no: u64) -> usize {
        (item_no % self.n_shards as u64) as usize
    }

    /// Whether `shard` owns primary key `item_no`.
    pub fn owns(&self, shard: usize, item_no: u64) -> bool {
        self.owner_of_item_no(item_no) == shard
    }

    /// The shard owning an item object (panics on an unknown object —
    /// specs are generated from the same reference database).
    pub fn owner_of_item(&self, item: ObjectId) -> usize {
        let no = self.item_no.get(&item).expect("item is in the partition map");
        self.owner_of_item_no(*no)
    }

    fn owner_of_target(&self, t: &Target) -> usize {
        // Orders are co-located with their item; bypassing specs that
        // address the order directly still route by the owning item.
        if let Some(no) = self.item_no.get(&t.item) {
            return self.owner_of_item_no(*no);
        }
        let no = self.order_item_no.get(&t.order).expect("target is in the partition map");
        self.owner_of_item_no(*no)
    }

    /// Decompose a transaction into its shard-local **pieces**, sorted by
    /// shard index. Each piece is itself a well-formed [`TxnSpec`]
    /// restricted to the objects one shard owns; a single-shard
    /// transaction comes back as one piece.
    pub fn split(&self, spec: &TxnSpec) -> Vec<(usize, TxnSpec)> {
        let mut by_shard: Vec<(usize, TxnSpec)> = Vec::new();
        match spec {
            TxnSpec::NewOrders { entries, customer, quantity } => {
                let mut groups: HashMap<usize, Vec<(ObjectId, u64)>> = HashMap::new();
                for e in entries {
                    groups.entry(self.owner_of_item(e.0)).or_default().push(*e);
                }
                for (s, entries) in groups {
                    by_shard.push((
                        s,
                        TxnSpec::NewOrders { entries, customer: *customer, quantity: *quantity },
                    ));
                }
            }
            TxnSpec::Ship(targets) => {
                for (s, ts) in self.group_targets(targets) {
                    by_shard.push((s, TxnSpec::Ship(ts)));
                }
            }
            TxnSpec::Pay(targets) => {
                for (s, ts) in self.group_targets(targets) {
                    by_shard.push((s, TxnSpec::Pay(ts)));
                }
            }
            TxnSpec::CheckShipped { targets, bypass } => {
                for (s, ts) in self.group_targets(targets) {
                    by_shard.push((s, TxnSpec::CheckShipped { targets: ts, bypass: *bypass }));
                }
            }
            TxnSpec::CheckPaid { targets, bypass } => {
                for (s, ts) in self.group_targets(targets) {
                    by_shard.push((s, TxnSpec::CheckPaid { targets: ts, bypass: *bypass }));
                }
            }
            TxnSpec::Total(item) => {
                by_shard.push((self.owner_of_item(*item), TxnSpec::Total(*item)));
            }
        }
        by_shard.sort_by_key(|(s, _)| *s);
        by_shard
    }

    fn group_targets(&self, targets: &[Target]) -> Vec<(usize, Vec<Target>)> {
        let mut groups: HashMap<usize, Vec<Target>> = HashMap::new();
        for t in targets {
            groups.entry(self.owner_of_target(t)).or_default().push(*t);
        }
        let mut out: Vec<_> = groups.into_iter().collect();
        out.sort_by_key(|(s, _)| *s);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcc_orderentry::DbParams;

    fn db() -> Database {
        Database::build(&DbParams { n_items: 4, orders_per_item: 2, ..Default::default() }).unwrap()
    }

    #[test]
    fn items_tile_the_shards_without_overlap() {
        let db = db();
        let pm = PartitionMap::new(&db, 2);
        let owners: Vec<usize> = db.items.iter().map(|i| pm.owner_of_item(i.item)).collect();
        assert_eq!(owners.len(), 4);
        assert!(owners.contains(&0) && owners.contains(&1));
        for info in &db.items {
            assert!(pm.owns(pm.owner_of_item(info.item), info.item_no));
        }
    }

    #[test]
    fn split_groups_by_owner_and_preserves_payload() {
        let db = db();
        let pm = PartitionMap::new(&db, 2);
        // Items 0 and 1 have consecutive primary keys, so they land on
        // different shards under mod-2 hashing.
        let t0 = Target { item: db.items[0].item, order: db.items[0].orders[0].order };
        let t1 = Target { item: db.items[1].item, order: db.items[1].orders[0].order };
        let pieces = pm.split(&TxnSpec::Ship(vec![t0, t1]));
        assert_eq!(pieces.len(), 2, "cross-shard ship splits into two pieces");
        assert!(pieces[0].0 < pieces[1].0, "pieces sorted by shard");
        for (_, p) in &pieces {
            match p {
                TxnSpec::Ship(ts) => assert_eq!(ts.len(), 1),
                other => panic!("unexpected piece {other:?}"),
            }
        }
        // A same-shard transaction stays one piece.
        let one = pm.split(&TxnSpec::Total(db.items[0].item));
        assert_eq!(one.len(), 1);
        // Bypassing checks route by the order's owning item.
        let chk = pm.split(&TxnSpec::CheckShipped { targets: vec![t0, t1], bypass: true });
        assert_eq!(chk.len(), 2);
    }
}
