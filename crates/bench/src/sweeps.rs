//! The two sweeps: B3 (ablation of the Figure-9 machinery, with the
//! parameter-aware matrix) and B11 (semantic open-nested commit vs classic
//! 2PC on a sharded fleet under simulated network latency).

use crate::tables::Table;
use semcc_orderentry::{Database, DbParams, MixWeights, Workload, WorkloadConfig};
use semcc_sim::{run_workload, ProtocolKind, RunParams};
use std::time::Duration;

/// Simulated latency of one leaf (storage) operation, applied while its
/// lock is held. The in-memory store finishes leaf operations in
/// nanoseconds; without this delay the sweeps would measure lock-manager
/// CPU overhead instead of the concurrency behaviour the paper is about
/// (its setting is a disk-based OODBMS where every storage operation is a
/// page access). The delay is realized with the minimal scheduler sleep,
/// which on commodity Linux lands between ~0.3 ms and ~3 ms — page-access
/// scale. Crucially it is identical for every protocol, releases the CPU
/// (concurrent "I/O" overlaps even on few cores), and dwarfs the lock
/// managers' CPU costs, so the sweeps compare *blocking behaviour*, which
/// is what the paper is about. See DESIGN.md, substitutions.
pub const OP_DELAY: Duration = Duration::from_nanos(100);

/// Global scale factor: `quick` runs ~5× smaller batches.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Transactions per measured cell.
    pub txns: usize,
}

impl Scale {
    /// Full-size runs.
    pub fn full() -> Self {
        Scale { txns: 240 }
    }

    /// Quick smoke-test runs.
    pub fn quick() -> Self {
        Scale { txns: 60 }
    }
}

fn measure(
    kind: ProtocolKind,
    db_params: &DbParams,
    wl: &WorkloadConfig,
    txns: usize,
    workers: usize,
) -> semcc_sim::RunMetrics {
    let db = Database::build(db_params).expect("schema builds");
    let engine = kind.builder(&db).op_delay(OP_DELAY).build();
    let mut w = Workload::new(&db, wl.clone());
    let batch = w.batch(&db, txns);
    eprintln!("[measure] {} workers={workers} txns={txns} ...", kind.name());
    let t0 = std::time::Instant::now();
    let m = run_workload(
        &engine,
        batch,
        &RunParams { workers, max_retries: 100_000, ..Default::default() },
    )
    .metrics;
    eprintln!("[measure] {} workers={workers} done in {:?}", kind.name(), t0.elapsed());
    m
}

fn fmt_f(x: f64) -> String {
    format!("{x:.0}")
}

fn fmt_pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

/// B3: ablation of the Figure-9 machinery on a bypass-heavy mix, including
/// the parameter-aware matrix extension.
pub fn b3_ablation(scale: Scale) -> Table {
    let mut t =
        Table::new(&["variant", "txn/s", "block%", "case1", "case2", "rootw", "commute-skips"]);
    let wl = WorkloadConfig {
        mix: MixWeights {
            t0_new: 0,
            t1_ship: 3,
            t2_pay: 3,
            t3_check_shipped: 3,
            t4_check_paid: 3,
            t5_total: 1,
        },
        zipf_theta: 0.9,
        bypass_checks: true,
        ..Default::default()
    };
    let base = DbParams { n_items: 6, orders_per_item: 8, ..Default::default() };
    let param_aware = DbParams { param_aware_item_matrix: true, ..base.clone() };

    let mut add = |label: &str, kind: ProtocolKind, db_params: &DbParams| {
        let m = measure(kind, db_params, &wl, scale.txns, 8);
        t.row(vec![
            label.into(),
            fmt_f(m.throughput),
            fmt_pct(m.block_ratio),
            m.stats.case1_grants.to_string(),
            m.stats.case2_waits.to_string(),
            m.stats.root_waits.to_string(),
            m.stats.commute_skips.to_string(),
        ]);
    };
    add("semantic (full, Fig. 9)", ProtocolKind::Semantic, &base);
    add("semantic + param-aware matrix (ext.)", ProtocolKind::Semantic, &param_aware);
    add("retained locks, NO ancestor rules", ProtocolKind::SemanticNoAncestor, &base);
    add("closed-nested (read/write only)", ProtocolKind::ClosedNested, &base);
    t
}

/// B11: cross-shard commit on a partitioned fleet. Cells are
/// `n_shards × cross-shard ratio`; each cell is measured under both
/// protocols:
///
/// * **semantic open-nested** — shards run the paper's semantic lock
///   manager; each shard-local piece commits early, releasing low-level
///   locks immediately, and the cross-shard window is covered by the
///   durably logged compensation intent (global abort = compensate).
/// * **classic 2PC** — shards run flat object read/write locks (no
///   commutativity knowledge, the "conventional distributed DBMS" cost
///   model) and every piece holds its locks across the prepare→decision
///   round trip. Cross-shard deadlocks are invisible to the local
///   waits-for graphs and are broken by the lock-wait timeout, so the
///   high cross-shard cells thrash on timeout/retry cycles.
///
/// A hot Pay-only workload (commuting updates) makes the comparison the
/// paper's own story: every conflict 2PC serializes on is semantically
/// spurious. `strict` (full runs) asserts the PR-10 gate — open-nested
/// ≥2× classic 2PC on every `cross = 0.9` cell — plus the availability
/// gate: a k-of-N partial-fleet crash/recover audit across seeds loses
/// zero acked commits and leaves zero residue. Returns the sweep table and
/// the availability table.
pub fn b11_sharded(scale: Scale, strict: bool) -> (Table, Table) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use semcc_dist::{CommitProtocol, Coordinator, FleetConfig};
    use semcc_orderentry::{Target, TxnSpec};
    use std::sync::Mutex;

    const CLIENTS: usize = 16;
    /// Probability a transaction's first target is the fleet-wide hot
    /// item. Pays commute, so the semantic shards absorb the hot spot;
    /// flat object locks serialize on it — the paper's core claim,
    /// replayed at fleet scale.
    const HOT_P: f64 = 0.6;
    // Escrow schema: `PayOrder` folds `Price × Quantity` into the item's
    // `PaidTotal` counter. Escrow updates commute on the semantic shards;
    // on the flat-2PL shards that same counter is an exclusive leaf write
    // held to transaction end — across the whole decision round trip for
    // a 2PC participant. Without it the baseline's Pays touch disjoint
    // order atoms and the hot spot would not exist at all.
    let db_params = DbParams { n_items: 8, orders_per_item: 8, escrow: true, ..Default::default() };

    // A hot two-target Pay batch with a controlled cross-shard ratio:
    // item ownership is `item_no % n_shards`, so picking the second item
    // from the same or a different residue class steers each transaction.
    let make_batch = |db: &Database, n_shards: usize, cross: f64, txns: usize, seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut batch = Vec::with_capacity(txns);
        for _ in 0..txns {
            let a = if rng.random::<f64>() < HOT_P {
                &db.items[0]
            } else {
                &db.items[rng.random_range(0..db.items.len())]
            };
            let want_cross = rng.random::<f64>() < cross;
            let b = loop {
                let c = &db.items[rng.random_range(0..db.items.len())];
                let same = c.item_no % n_shards as u64 == a.item_no % n_shards as u64;
                if same != want_cross && c.item_no != a.item_no {
                    break c;
                }
            };
            let t = |i: &semcc_orderentry::ItemInfo, rng: &mut StdRng| Target {
                item: i.item,
                order: i.orders[rng.random_range(0..i.orders.len())].order,
            };
            // Canonical target order: a same-shard two-target piece
            // acquires its leaf locks in item order, so the flat-2PL
            // baseline is not additionally penalized by avoidable
            // lock-order deadlocks — only by the hot spot itself.
            let (lo, hi) = if a.item_no <= b.item_no { (a, b) } else { (b, a) };
            batch.push(TxnSpec::Pay(vec![t(lo, &mut rng), t(hi, &mut rng)]));
        }
        batch
    };

    struct CellOut {
        throughput: f64,
        retries: u64,
        cross_shard: u64,
        failed: usize,
    }
    let measure_cell = |protocol: CommitProtocol, n_shards: usize, cross: f64, seed: u64| {
        let coord = Coordinator::new(FleetConfig {
            n_shards,
            db_params: db_params.clone(),
            op_delay: OP_DELAY,
            lock_wait_timeout: Some(Duration::from_millis(10)),
            net_delay: Duration::from_micros(300),
            low_level_2pl: protocol == CommitProtocol::TwoPhase,
            seed,
            ..Default::default()
        });
        let reference = Database::build(&db_params).expect("reference build");
        let batch = make_batch(&reference, n_shards, cross, scale.txns, seed);
        let queue = Mutex::new(batch);
        let retries = std::sync::atomic::AtomicU64::new(0);
        let failed = std::sync::atomic::AtomicUsize::new(0);
        let t0 = std::time::Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..CLIENTS {
                scope.spawn(|| loop {
                    let Some(spec) = queue.lock().unwrap().pop() else { break };
                    let (_gtid, out, r) = coord.submit_with_retry(&spec, protocol, 10_000);
                    retries.fetch_add(u64::from(r), std::sync::atomic::Ordering::Relaxed);
                    if out.is_err() {
                        failed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        let elapsed = t0.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
        let stats = coord.fleet_stats();
        CellOut {
            throughput: scale.txns as f64 / elapsed,
            retries: retries.into_inner(),
            cross_shard: stats.cross_shard_txns,
            failed: failed.into_inner(),
        }
    };

    let shard_counts = [2usize, 4];
    let ratios = [0.1f64, 0.5, 0.9];
    let mut t = Table::new(&[
        "shards", "cross", "protocol", "txn/s", "retries", "xshard", "failed", "vs 2pc",
    ]);
    let mut gate_ok = true;
    for &n_shards in &shard_counts {
        for &cross in &ratios {
            // Median of three repetitions per protocol: short contended
            // runs are noisy, and a single retry storm (or its absence)
            // must not decide the gate either way.
            let median = |protocol: CommitProtocol| {
                let mut reps: Vec<CellOut> = (0..3u64)
                    .map(|rep| {
                        let seed = 7 + n_shards as u64 * 100 + (cross * 10.0) as u64 + rep * 7919;
                        measure_cell(protocol, n_shards, cross, seed)
                    })
                    .collect();
                reps.sort_by(|a, b| a.throughput.total_cmp(&b.throughput));
                reps.remove(1)
            };
            let open = median(CommitProtocol::OpenNested);
            let two = median(CommitProtocol::TwoPhase);
            let ratio = open.throughput / two.throughput.max(f64::MIN_POSITIVE);
            for (name, m, r) in
                [("open-nested", &open, format!("{ratio:.2}")), ("2pc", &two, "-".into())]
            {
                t.row(vec![
                    n_shards.to_string(),
                    format!("{cross:.1}"),
                    name.into(),
                    fmt_f(m.throughput),
                    m.retries.to_string(),
                    m.cross_shard.to_string(),
                    m.failed.to_string(),
                    r,
                ]);
                // Retry budgets are generous: every transaction must land.
                assert_eq!(m.failed, 0, "b11 {n_shards}sh/{cross}/{name}: transactions gave up");
            }
            if cross >= 0.9 {
                gate_ok &= ratio >= 2.0;
            }
        }
    }

    // Availability gate: k-of-N partial-fleet crashes never lose an acked
    // commit and leave zero residue, across seeds.
    let avail_seeds = if strict { 4 } else { 2 };
    let mut avail = Table::new(&[
        "seed",
        "acked",
        "committed",
        "lost acked",
        "shard crashes",
        "violations",
        "sound",
    ]);
    let mut avail_ok = true;
    for seed in 1..=avail_seeds {
        let report = semcc_sim::run_fleet_crash_recover(&semcc_sim::FleetParams {
            seed,
            n_shards: 3,
            kill: 1,
            txns: scale.txns.min(48),
            ..Default::default()
        });
        avail_ok &= report.sound();
        avail.row(vec![
            seed.to_string(),
            report.acked.to_string(),
            report.committed.to_string(),
            report.lost_acked.to_string(),
            report.shard_crashes.to_string(),
            report.violations.len().to_string(),
            if report.sound() { "yes".into() } else { "NO".into() },
        ]);
        assert_eq!(report.lost_acked, 0, "b11 availability: acked commit lost (seed {seed})");
    }

    if strict {
        assert!(gate_ok, "open-nested below 2x classic 2PC on a cross=0.9 cell:\n{}", t.render());
        assert!(avail_ok, "partial-fleet availability audit failed:\n{}", avail.render());
    }
    (t, avail)
}
