//! Quick protocol shoot-out on the order-entry workload: semantic locking
//! vs. closed nesting vs. object/page 2PL at a configurable
//! multiprogramming level. (Measured comparisons are the benchmark's:
//! `benchmark/README.md`, `baselines.semantic_over_2pl` on `oe_hot`.)
//!
//! ```text
//! cargo run --release --example protocol_comparison [items] [txns] [workers]
//! ```

use semcc::orderentry::{Database, DbParams, MixWeights, Workload, WorkloadConfig};
use semcc::sim::{build_engine, run_workload, ProtocolKind, RunParams};

fn main() {
    let mut args = std::env::args().skip(1);
    let n_items: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let txns: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2000);
    let workers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);

    println!("protocol comparison — {n_items} items (hot!), {txns} txns, {workers} workers");
    println!("mix: update-heavy (T1/T2 dominant), Zipf 0.9, 2 orders per transaction\n");

    for kind in [
        ProtocolKind::Semantic,
        ProtocolKind::SemanticNoAncestor,
        ProtocolKind::ClosedNested,
        ProtocolKind::Object2pl,
        ProtocolKind::Page2pl,
    ] {
        // A fresh database per protocol keeps the runs independent.
        let db = Database::build(&DbParams { n_items, orders_per_item: 8, ..Default::default() })
            .expect("schema builds");
        let engine = build_engine(kind, &db, None);
        let mut w = Workload::new(
            &db,
            WorkloadConfig {
                mix: MixWeights::update_heavy(),
                zipf_theta: 0.9,
                ..Default::default()
            },
        );
        let batch = w.batch(&db, txns);
        let out = run_workload(&engine, batch, &RunParams { workers, ..Default::default() });
        println!("{}", out.metrics.row());
    }

    println!("\nReading the table: the semantic protocol converts most method-level");
    println!("conflicts into commutativity skips or Case-1/Case-2 resolutions, so its");
    println!("block ratio and abort count stay low where the read/write protocols");
    println!("serialize on the hot items.");
}
