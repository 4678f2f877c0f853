//! One-off A/B check: semantic throughput with the event journal on vs off.
use semcc::orderentry::{Database, DbParams, MixWeights, Workload, WorkloadConfig};
use semcc::sim::{run_workload, ProtocolKind, RunParams};
use std::time::Duration;

fn run(journal: usize, txns: usize) -> f64 {
    let db = Database::build(&DbParams { n_items: 8, orders_per_item: 8, ..Default::default() })
        .unwrap();
    let engine = ProtocolKind::Semantic
        .builder(&db)
        .op_delay(Duration::from_nanos(100))
        .journal_capacity(journal)
        .build();
    let wl =
        WorkloadConfig { mix: MixWeights::update_heavy(), zipf_theta: 0.6, ..Default::default() };
    let mut w = Workload::new(&db, wl);
    let batch = w.batch(&db, txns);
    run_workload(
        &engine,
        batch,
        &RunParams { workers: 8, max_retries: 100_000, ..Default::default() },
    )
    .metrics
    .throughput
}

fn main() {
    let txns = 2000;
    run(0, 200); // warm-up
    let mut offs = Vec::new();
    let mut ons = Vec::new();
    for _ in 0..5 {
        offs.push(run(0, txns));
        ons.push(run(1 << 18, txns));
    }
    println!("off samples: {offs:.0?}");
    println!("on  samples: {ons:.0?}");
    let med = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    let (off, on) = (med(&mut offs), med(&mut ons));
    println!(
        "journal off: {off:.0} txn/s, on: {on:.0} txn/s, delta {:+.2}%",
        (on - off) / off * 100.0
    );
}
