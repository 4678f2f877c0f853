//! # semcc-bench
//!
//! The `experiments` binary: the two ratio sweeps no `benchmark/` rep
//! carries yet, printed as text tables on stdout.
//!
//! * `b3` — ablation of the Figure-9 machinery (full protocol, parameter-
//!   aware matrix, no ancestor rules, closed nesting) on a bypass-heavy mix;
//! * `b11` — semantic open-nested commit vs classic 2PC on a sharded fleet
//!   under simulated network latency, with the k-of-N availability audit.
//!
//! Everything else quantitative is the benchmark's (`BENCHMARK.json`,
//! `benchmark/README.md`); EXPERIMENTS.md maps the retired sweeps to it.

pub mod sweeps;
pub mod tables;
