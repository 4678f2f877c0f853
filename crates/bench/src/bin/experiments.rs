//! The experiment driver.
//!
//! ```text
//! experiments b3|b11 [--quick]
//! ```

use semcc_bench::sweeps::{self, Scale};
use semcc_bench::tables::Table;

fn print(title: &str, table: Table) {
    println!("=== {title} ===\n");
    println!("{}", table.render());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::quick() } else { Scale::full() };
    match args.iter().find(|a| !a.starts_with("--")).map(String::as_str) {
        Some("b3") => print(
            "B3: ablation of the Figure-9 commutative-ancestor machinery (bypass-heavy mix)",
            sweeps::b3_ablation(scale),
        ),
        Some("b11") => {
            let (sweep, availability) = sweeps::b11_sharded(scale, !quick);
            print(
                "B11: sharded fleet (semantic open-nested vs classic 2PC; cross-shard ratio sweep)",
                sweep,
            );
            print("B11: availability (kill 1 of 3 shards mid-batch, recover, audit)", availability);
        }
        other => {
            if let Some(other) = other {
                eprintln!("unknown experiment {other:?}");
            }
            eprintln!("usage: experiments b3|b11 [--quick]");
            std::process::exit(2);
        }
    }
}
