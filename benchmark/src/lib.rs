//! The repository's one performance benchmark.
//!
//! Four closed-loop order-entry workloads, each a sequence of fixed-work
//! reps on fresh state; end-to-end metrics are medians over a run's reps;
//! per-layer metrics come from a separate traced run whose spans are
//! recorded by wrappers in this crate, around the public seams of the
//! program under test. See `README.md`.

pub mod checks;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod reps;
pub mod run;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workloads;
