//! An empty shell: Case 2 of Figure 9 always waits for the holder's
//! commutative ancestor to commit, as the paper has it.

use crate::tree::Registry;
use std::sync::Arc;

/// Holds nothing, does nothing.
#[derive(Default)]
pub struct DepGraph; // BENCH-PINNED: named by benchmark/src/probes.rs:19

impl DepGraph {
    /// BENCH-PINNED: called by `benchmark/src/probes.rs:152`.
    pub fn new(_: Arc<Registry>) -> Self {
        Self
    }
}
