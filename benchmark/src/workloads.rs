//! The four workloads: what each one is, why it exists, and how its batch
//! of transactions is generated from a seed.
//!
//! The program under test only ever sees the generated [`TxnSpec`]s.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semcc_orderentry::{
    Database, DbParams, MixWeights, Target, TxnSpec, Workload as Generator, WorkloadConfig,
};
use std::hash::Hasher;

/// Shards of the `fleet_cross` fleet.
pub const FLEET_SHARDS: usize = 2;

/// Client threads of the closed loop (`svc_durable` uses one generator
/// thread instead; its two workers are the service's core threads).
pub const CLIENT_THREADS: usize = 2;

/// One benchmark workload. Names are fixed: later issues refer to them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    OeHot,
    OeRead,
    SvcDurable,
    FleetCross,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::OeHot, Workload::OeRead, Workload::SvcDurable, Workload::FleetCross];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OeHot => "oe_hot",
            Workload::OeRead => "oe_read",
            Workload::SvcDurable => "svc_durable",
            Workload::FleetCross => "fleet_cross",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json` (≤ 200 characters); the README has
    /// the long form.
    pub fn why(self) -> &'static str {
        match self {
            Workload::OeHot => {
                "update-heavy T1-T5 mix, Zipf 1.2: contention-bound, so core.lock/core.kernel \
                 (Figure-9 tests, queues, wake-ups, deadlock retries) do most of the work; no \
                 WAL, no dist"
            }
            Workload::OeRead => {
                "95% readers, Zipf 0.6: the lock-free snapshot path (objstore reads, \
                 core.engine dispatch and validation) dominates and the lock table idles, so \
                 lock/kernel changes must not move it"
            }
            Workload::SvcDurable => {
                "uniform T1/T2 writers through service tickets into a checkpointed, \
                 group-committed in-memory WAL: core.wal and service queueing do most of the \
                 work, locking little"
            }
            Workload::FleetCross => {
                "2-shard fleet, open-nested commit, escrow schema, half the T1/T2 transactions \
                 cross-shard: dist split/dispatch/decision log and participant logs do most \
                 of the work"
            }
        }
    }

    /// Transactions per rep. Fixed work, sized so one rep's execute phase
    /// takes ≈2 s on the reference box (2 cores): long enough that
    /// the median over a run's reps is steady, short enough that a
    /// 28-second run still holds about twelve reps.
    pub fn txns_per_rep(self) -> usize {
        match self {
            Workload::OeHot => 240_000,
            Workload::OeRead => 500_000,
            Workload::SvcDurable => 64_000,
            Workload::FleetCross => 48_000,
        }
    }

    /// The one database shape: 1024 items × 32 orders = 32 768 orders
    /// (≈200 k objects, larger than L2). Only the fleet uses the escrow
    /// method bodies.
    pub fn db_params(self) -> DbParams {
        DbParams {
            n_items: 1024,
            orders_per_item: 32,
            escrow: self == Workload::FleetCross,
            ..Default::default()
        }
    }

    /// Generate the rep's batch. Same `(workload, seed, n)` ⇒ same batch.
    /// `db` is any replica of [`Workload::db_params`]' database (object
    /// ids are deterministic).
    pub fn batch(self, db: &Database, seed: u64, n: usize) -> Vec<TxnSpec> {
        let mix = |mix: MixWeights, zipf_theta: f64| {
            let cfg =
                WorkloadConfig { mix, zipf_theta, targets_per_txn: 2, bypass_checks: true, seed };
            Generator::new(db, cfg).batch(db, n)
        };
        match self {
            Workload::OeHot => mix(MixWeights::update_heavy(), 1.2),
            Workload::OeRead => mix(MixWeights::with_read_ratio(95), 0.6),
            Workload::SvcDurable => mix(MixWeights::with_read_ratio(0), 0.0),
            Workload::FleetCross => fleet_batch(db, seed, n),
        }
    }
}

/// Two-target T1/T2 over uniformly chosen items. A fair coin decides for
/// each *pair* of consecutive transactions which of the two gets its
/// second item from the other shard, which pins the cross-shard ratio at
/// exactly 0.5 for every even batch size.
fn fleet_batch(db: &Database, seed: u64, n: usize) -> Vec<TxnSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); FLEET_SHARDS];
    for (idx, item) in db.items.iter().enumerate() {
        by_shard[(item.item_no % FLEET_SHARDS as u64) as usize].push(idx);
    }
    assert!(by_shard.iter().all(|s| s.len() >= 2), "every shard owns at least two items");
    let target = |rng: &mut StdRng, idx: usize| {
        let item = &db.items[idx];
        let order = item.orders[rng.random_range(0..item.orders.len())].order;
        Target { item: item.item, order }
    };
    let mut coin = false;
    (0..n)
        .map(|i| {
            let home = rng.random_range(0..FLEET_SHARDS);
            if i % 2 == 0 {
                coin = rng.random();
            }
            let cross = coin == (i % 2 == 0);
            let away = if cross { (home + 1) % FLEET_SHARDS } else { home };
            let a = by_shard[home][rng.random_range(0..by_shard[home].len())];
            let b = loop {
                let b = by_shard[away][rng.random_range(0..by_shard[away].len())];
                if b != a {
                    break b;
                }
            };
            let targets = vec![target(&mut rng, a), target(&mut rng, b)];
            if rng.random() {
                TxnSpec::Ship(targets)
            } else {
                TxnSpec::Pay(targets)
            }
        })
        .collect()
}

/// Order-sensitive hash of a batch (seed discipline: printed with every
/// run, compared in the unit tests).
pub fn batch_hash(batch: &[TxnSpec]) -> u64 {
    // `DefaultHasher::new()` is keyed with constants: stable across runs.
    let mut h = std::collections::hash_map::DefaultHasher::new();
    let targets = |h: &mut std::collections::hash_map::DefaultHasher, ts: &[Target]| {
        h.write_usize(ts.len());
        for t in ts {
            h.write_u64(t.item.0);
            h.write_u64(t.order.0);
        }
    };
    for spec in batch {
        match spec {
            TxnSpec::NewOrders { entries, customer, quantity } => {
                h.write_u8(0);
                for (item, no) in entries {
                    h.write_u64(item.0);
                    h.write_u64(*no);
                }
                h.write_i64(*customer);
                h.write_i64(*quantity);
            }
            TxnSpec::Ship(ts) => {
                h.write_u8(1);
                targets(&mut h, ts);
            }
            TxnSpec::Pay(ts) => {
                h.write_u8(2);
                targets(&mut h, ts);
            }
            TxnSpec::CheckShipped { targets: ts, bypass } => {
                h.write_u8(3);
                h.write_u8(u8::from(*bypass));
                targets(&mut h, ts);
            }
            TxnSpec::CheckPaid { targets: ts, bypass } => {
                h.write_u8(4);
                h.write_u8(u8::from(*bypass));
                targets(&mut h, ts);
            }
            TxnSpec::Total(item) => {
                h.write_u8(5);
                h.write_u64(item.0);
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcc_dist::PartitionMap;

    fn small_db(w: Workload) -> Database {
        Database::build(&DbParams { n_items: 64, orders_per_item: 4, ..w.db_params() }).unwrap()
    }

    #[test]
    fn same_seed_same_batch_different_seed_different_batch() {
        for w in Workload::ALL {
            let db = small_db(w);
            let a = batch_hash(&w.batch(&db, 11, 2_000));
            let b = batch_hash(&w.batch(&db, 11, 2_000));
            let c = batch_hash(&w.batch(&db, 12, 2_000));
            assert_eq!(a, b, "{}: same seed, same batch", w.name());
            assert_ne!(a, c, "{}: another seed, another batch", w.name());
        }
    }

    #[test]
    fn fleet_generator_pins_the_cross_shard_ratio_at_one_half() {
        let db = small_db(Workload::FleetCross);
        let pmap = PartitionMap::new(&db, FLEET_SHARDS);
        for seed in [1, 2, 3] {
            let batch = Workload::FleetCross.batch(&db, seed, 4_000);
            let cross = batch.iter().filter(|s| pmap.split(s).len() > 1).count();
            let ratio = cross as f64 / batch.len() as f64;
            assert_eq!(ratio, 0.5, "seed {seed}");
            assert!(batch
                .iter()
                .all(|s| matches!(s, TxnSpec::Ship(t) | TxnSpec::Pay(t) if t.len() == 2)));
        }
    }

    #[test]
    fn mixes_are_what_the_workload_table_says() {
        let db = small_db(Workload::OeRead);
        let reads = Workload::OeRead.batch(&db, 5, 20_000);
        let share = reads.iter().filter(|s| !s.is_update()).count() as f64 / reads.len() as f64;
        assert!((share - 0.95).abs() < 0.01, "oe_read read share {share}");
        let writes = Workload::SvcDurable.batch(&db, 5, 2_000);
        assert!(writes.iter().all(|s| matches!(s, TxnSpec::Ship(_) | TxnSpec::Pay(_))));
        let hot = Workload::OeHot.batch(&db, 5, 2_000);
        assert!(hot.iter().any(|s| matches!(s, TxnSpec::Total(_))), "T5 is in the hot mix");
    }

    #[test]
    fn names_round_trip_and_whys_fit_the_manifest() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{}", w.name());
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
