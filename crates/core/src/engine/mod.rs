//! The open nested transaction engine — the `exec-transaction` procedure of
//! the paper's Figure 8.
//!
//! A top-level transaction is a [`TransactionProgram`] executed against a
//! [`MethodContext`]. Every `invoke` creates a child subtransaction,
//! acquires its semantic lock through the configured [`Discipline`]
//! (possibly waiting), runs the method body (which recursively invokes
//! further methods — the dynamic method invocation hierarchy), and on
//! completion — which is what makes the children's locks retained locks —
//! notifies waiters.
//!
//! **Aborts are compensation-based** (paper Section 3): committed
//! subtransactions have already exposed their effects, so they are undone
//! by *inverse* method invocations executed under the very same locking
//! protocol. Each method may declare a compensation builder in the catalog;
//! methods without one inherit the (reversed) compensations of their
//! children, bottoming out at the built-in inverses of the generic leaf
//! operations (`Put` restores the old value, `Insert` removes, `Remove`
//! re-inserts).
//!
//! The module is split along the decisions it makes:
//!
//! * `lifecycle` — the one begin and the one end of a top-level
//!   transaction (`finish_top` and its ordering contract), commit, abort,
//!   compensation;
//! * `action` — one action of the tree: node, lock, leaf or method body,
//!   the logged store mutation, the locking path's method context;
//! * `snapshot` — the lock-free read path and its method context;
//! * `ctx` — what the two method contexts share;
//! * `log` — the engine's view of the write-ahead log;
//! * `escrow` — the escrow ledger;
//! * `builder` — [`EngineBuilder`].

mod action;
mod builder;
mod ctx;
mod escrow;
mod lifecycle;
mod log;
mod snapshot;

pub use builder::EngineBuilder;

use crate::discipline::{Discipline, DisciplineDeps};
use crate::fault::{FaultPlan, InjectedPanic};
use crate::history::Event;
use crate::ids::{NodeRef, TopId};
use crate::journal::{EventJournal, JournalKind};
use crate::kernel::LockTableDump;
use crate::stats::{Stats, StatsSnapshot};
use crate::tree::Registry;
use action::ExecCtx;
use escrow::EscrowLedger;
use log::EngineLog;
use rand::{rngs::StdRng, Rng, SeedableRng};
use semcc_semantics::{
    Catalog, Invocation, MethodContext, Result, SemanticsRouter, SemccError, Storage, Value,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Render a caught panic payload as an abort reason.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(ip) = payload.downcast_ref::<InjectedPanic>() {
        format!("injected panic at {}", ip.0)
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// A top-level transaction program.
pub trait TransactionProgram: Send + Sync {
    /// Display label for histories and reports (e.g. `"T1"`).
    fn label(&self) -> String {
        "txn".to_owned()
    }

    /// The body: invoke methods through the context, return the
    /// transaction's result. Returning `Err` aborts the transaction (with
    /// compensation).
    fn run(&self, ctx: &mut dyn MethodContext) -> Result<Value>;

    /// Declare that this program only reads (every invocation is a pure
    /// reader). A `true` answer routes the transaction through the
    /// lock-free snapshot read path when the engine and storage support
    /// it; the engine still verifies the claim dynamically and falls back
    /// to ordinary locking on any write attempt, so a wrong `true` costs
    /// one wasted execution, never correctness. Default: `false`.
    fn read_only_hint(&self) -> bool {
        false
    }
}

/// A program built from a closure plus a label.
pub struct FnProgram<F> {
    label: String,
    f: F,
    read_only: bool,
}

impl<F> FnProgram<F>
where
    F: Fn(&mut dyn MethodContext) -> Result<Value> + Send + Sync,
{
    /// Wrap a closure as a program.
    pub fn new(label: impl Into<String>, f: F) -> Self {
        FnProgram { label: label.into(), f, read_only: false }
    }

    /// Wrap a closure as a program declared read-only (eligible for the
    /// snapshot read path).
    pub fn read_only(label: impl Into<String>, f: F) -> Self {
        FnProgram { label: label.into(), f, read_only: true }
    }
}

impl<F> TransactionProgram for FnProgram<F>
where
    F: Fn(&mut dyn MethodContext) -> Result<Value> + Send + Sync,
{
    fn label(&self) -> String {
        self.label.clone()
    }

    fn run(&self, ctx: &mut dyn MethodContext) -> Result<Value> {
        (self.f)(ctx)
    }

    fn read_only_hint(&self) -> bool {
        self.read_only
    }
}

/// Result of a committed transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxnOutcome {
    /// The transaction's id (for correlating histories).
    pub top: TopId,
    /// The program's return value.
    pub value: Value,
    /// Whether the transaction committed on the lock-free snapshot read
    /// path (no lock-table entries, no waits-for edges, no WAL records).
    pub snapshot: bool,
    /// Position in the engine-wide commit order (1-based). Writers take
    /// their number before releasing write intents; snapshot readers take
    /// theirs right after validating, so a reader's observed state equals
    /// the effects of exactly the writers numbered below it.
    pub commit_seq: u64,
}

/// Prepare hook of [`Engine::execute_open_prepared`]: runs after the
/// transaction body succeeds and before the local commit record, with the
/// top id and the chronological compensation intent.
pub type PrepareHook<'a> = &'a mut dyn FnMut(TopId, &[Invocation]) -> Result<()>;

/// The transaction engine.
pub struct Engine {
    storage: Arc<dyn Storage>,
    catalog: Arc<Catalog>,
    deps: DisciplineDeps,
    discipline: Arc<dyn Discipline>,
    comp_retry_limit: u32,
    comp_retry_backoff: Duration,
    op_delay: Duration,
    faults: Option<Arc<FaultPlan>>,
    log: EngineLog,
    /// Snapshot read path available: the builder knob is on *and* the
    /// storage maintains version stamps.
    snapshot_enabled: bool,
    /// Engine-wide commit order (see [`TxnOutcome::commit_seq`]).
    commit_seq: AtomicU64,
    escrow: EscrowLedger,
}

impl Engine {
    /// Start building an engine.
    pub fn builder(storage: Arc<dyn Storage>, catalog: Arc<Catalog>) -> EngineBuilder {
        EngineBuilder::new(storage, catalog)
    }

    /// The schema catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The object store.
    pub fn storage(&self) -> &Arc<dyn Storage> {
        &self.storage
    }

    /// The commutativity router.
    pub fn router(&self) -> &Arc<SemanticsRouter> {
        &self.deps.router
    }

    /// The active discipline's name.
    pub fn protocol_name(&self) -> &str {
        self.discipline.name()
    }

    /// Counter snapshot (engine + lock manager share one [`Stats`]).
    pub fn stats(&self) -> StatsSnapshot {
        self.deps.stats.snapshot()
    }

    /// Number of live (uncommitted) transactions.
    pub fn live_transactions(&self) -> usize {
        self.deps.registry.live_count()
    }

    /// Live lock-table entries (granted + waiting) of the active
    /// discipline. Zero once every transaction has finished; the chaos
    /// harness asserts this to detect leaked locks.
    pub fn lock_entries(&self) -> usize {
        self.discipline.live_entries()
    }

    /// The event journal, if enabled via
    /// [`EngineBuilder::journal_capacity`].
    pub fn journal(&self) -> Option<&Arc<EventJournal>> {
        self.deps.journal.as_ref()
    }

    /// Snapshot of the active discipline's lock table.
    pub fn lock_table(&self) -> LockTableDump {
        self.discipline.lock_table()
    }

    /// Residual waits-for-graph state `(edges, cells, doomed, aborting)` —
    /// all zero once every transaction has exited (the chaos harness's
    /// stale-state audit).
    pub fn wfg_residue(&self) -> (usize, usize, usize, usize) {
        self.deps.wfg.residue()
    }

    /// BENCH-PINNED (`benchmark/src/checks.rs:25` calls it): always zero.
    pub fn speculation_edges(&self) -> usize {
        0
    }

    /// Append one record to the event journal, if one is attached.
    fn journal_record(&self, kind: JournalKind, node: NodeRef, key: u64, aux: u64) {
        if let Some(j) = &self.deps.journal {
            j.record(kind, node.top.0, node.idx, 0, 0, key, aux);
        }
    }

    /// The live counters (shared with the lock manager; recovery adds its
    /// replay/compensation tallies here).
    pub(crate) fn stats_ref(&self) -> &Arc<Stats> {
        &self.deps.stats
    }

    /// The transaction registry (recovery raises its id floor past the
    /// surviving log's largest transaction id).
    pub(crate) fn registry_ref(&self) -> &Arc<Registry> {
        &self.deps.registry
    }

    /// The next position in the engine-wide commit order (1-based).
    fn next_commit_seq(&self) -> u64 {
        self.commit_seq.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// The one panic seam: run `f` — a transaction program, a method body,
    /// a snapshot attempt — and turn a panic inside it into an ordinary
    /// [`SemccError::MethodPanicked`] failure.
    fn contain<T>(&self, f: impl FnOnce() -> Result<T>) -> Result<T> {
        catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
            Stats::bump(&self.deps.stats.caught_panics);
            Err(SemccError::MethodPanicked(panic_message(payload)))
        })
    }

    /// Take a fuzzy checkpoint now: capture what the store changed since
    /// the previous checkpoint plus the live-transaction intent table
    /// (the only step that stops other transactions), assemble and
    /// persist the image on this thread while they keep committing, then
    /// retire the log segments sealed at the capture. If a
    /// cadence-triggered checkpoint is in flight on another thread, waits
    /// for it and then takes its own. Returns `Ok(true)` if a checkpoint
    /// was written, `Ok(false)` if there is no WAL, the storage cannot
    /// capture itself, or the writer is crashed; `Err` if the log is
    /// poisoned, a retained segment fails re-verification, or checkpoint
    /// I/O failed (which poisons it).
    pub fn checkpoint(&self) -> Result<bool> {
        self.log.checkpoint(&*self.storage, true)
    }

    /// Automatic checkpoint trigger, run after a transaction resolves
    /// (no locks held); skipped while another checkpoint is in flight.
    /// Errors are swallowed: a poisoned log surfaces through the next
    /// commit's typed durability error, not here.
    fn maybe_checkpoint(&self) {
        if self.log.wants_checkpoint() {
            // A failed checkpoint is counted and drops no log record; an
            // I/O failure also poisons the log, which refuses what follows.
            let _ = self.log.checkpoint(&*self.storage, false);
        }
    }

    /// Execute a top-level transaction: commit on `Ok`, abort with
    /// compensation on `Err` (the error is passed through). A panicking
    /// program is contained: it aborts with
    /// [`SemccError::MethodPanicked`] like any other failure.
    pub fn execute(&self, prog: &dyn TransactionProgram) -> Result<TxnOutcome> {
        self.execute_collecting(prog, None).1.map(|(outcome, _)| outcome)
    }

    /// Execute a transaction as an **open-nested piece** of a larger
    /// (distributed) transaction: on commit, additionally return the
    /// accumulated compensation intent — the inverse invocations that
    /// would undo the piece's now-exposed effects. A coordinator that
    /// commits shard-local pieces early (retained semantic locks covering
    /// the cross-shard window, paper Section 3/4 lifted one level up) uses
    /// this to compensate a committed piece if the *global* transaction
    /// later aborts. Read-only snapshot commits return an empty intent.
    ///
    /// The **prepare hook** runs after the program body succeeds but
    /// *before* the local commit record is written: the callback sees the
    /// piece's `TopId` and its accumulated compensation intent. A
    /// distributed participant durably logs its prepare record
    /// (gtid → compensation) here, guaranteeing the write-ordering
    /// invariant *prepare-record ⟶ local commit*: a crash between the two
    /// leaves a loser that generic recovery rolls back, never a committed
    /// piece the coordinator cannot later compensate. A callback `Err`
    /// aborts the piece through the normal compensation path.
    pub fn execute_open_prepared(
        &self,
        prog: &dyn TransactionProgram,
        prepare: PrepareHook<'_>,
    ) -> (TopId, Result<(TxnOutcome, Vec<Invocation>)>) {
        self.execute_collecting(prog, Some(prepare))
    }

    /// The one execution path. Also returns the attempt's `TopId` when it
    /// aborted (the retry loop keys its backoff on it).
    fn execute_collecting(
        &self,
        prog: &dyn TransactionProgram,
        prepare: Option<PrepareHook<'_>>,
    ) -> (TopId, Result<(TxnOutcome, Vec<Invocation>)>) {
        // Once the log is poisoned (an I/O fault made durability
        // unprovable) every transaction is refused, readers included.
        if let Some(err) = self.log.poisoned() {
            let top = self.deps.registry.allocate_top();
            let reason = SemccError::Durability(format!("write-ahead log poisoned: {err}"));
            self.deps.emit(|| Event::TopBegin { top, label: prog.label() });
            self.deps.emit(|| Event::TopAbort { top, reason: reason.to_string() });
            return (top, Err(reason));
        }
        if self.snapshot_enabled && prog.read_only_hint() {
            if let Some((top, done)) = self.execute_snapshot(prog) {
                return (top, done.map(|o| (o, Vec::new())));
            }
            // Ineligible or validation failed: promote to the ordinary
            // locking path below (a fresh top-level transaction).
            Stats::bump(&self.deps.stats.snapshot_retries);
        }
        let txn = self.begin(|| prog.label(), None);
        let top = txn.top();
        let mut ctx = ExecCtx::new(&txn, 0, 0, false);
        let run = self.contain(|| prog.run(&mut ctx));
        let comp = ctx.comp;
        // Commit can fail at its durability point (the `TopCommit` append
        // hit a poisoned log), as can the prepare hook: the transaction
        // then aborts like a failed program — its effects are undone under
        // the locking discipline and it is *not* acknowledged, upholding
        // acked ⇒ durable.
        let committed = run.and_then(|value| {
            if let Some(hook) = prepare {
                hook(top, &comp)?;
            }
            Ok((value, self.commit(&txn)?))
        });
        let result = match committed {
            Ok((value, commit_seq)) => {
                Ok((TxnOutcome { top, value, snapshot: false, commit_seq }, comp))
            }
            Err(e) => {
                self.abort(&txn, comp, &e);
                Err(e)
            }
        };
        self.maybe_checkpoint();
        (top, result)
    }

    /// Execute with automatic retry on contention aborts (deadlock victim
    /// or lock-wait timeout). Returns the outcome and the number of
    /// aborted attempts.
    pub fn execute_with_retry(
        &self,
        prog: &dyn TransactionProgram,
        max_retries: u32,
    ) -> (Result<TxnOutcome>, u32) {
        let mut retries = 0;
        loop {
            let (top, result) = self.execute_collecting(prog, None);
            match result {
                Err(ref e) if e.is_retryable() && retries < max_retries => {
                    retries += 1;
                    Stats::bump(&self.deps.stats.txn_retries);
                    self.retry_backoff(top.0, retries);
                }
                other => return (other.map(|(outcome, _)| outcome), retries),
            }
        }
    }

    /// Run a batch of compensating invocations as one top-level
    /// transaction — the recovery module's way of aborting a loser "via
    /// compensation, driven from the log". `intents` is the loser's
    /// logged compensation intent in chronological order; execution
    /// reverses it and acquires every lock through the normal Figure-9
    /// path (`compensating = true`), exactly like an in-process abort.
    /// Returns the number of compensating invocations executed.
    pub fn compensate_transaction(&self, intents: Vec<Invocation>) -> Result<usize> {
        self.compensate_transaction_as(intents, None)
    }

    /// [`Engine::compensate_transaction`] with a WAL alias: every record
    /// the wrapper logs (`CompRedo`, `CompApplied`) carries `alias`'s
    /// transaction id instead of the wrapper's own, and the wrapper logs
    /// no resolution record of its own. Recovery uses this so that a
    /// crash *during* recovery leaves a log in which the loser's abort
    /// progress is attributed to the loser — the next pass resumes it
    /// exactly like a crash during an in-process abort.
    pub fn compensate_transaction_as(
        &self,
        intents: Vec<Invocation>,
        alias: Option<u64>,
    ) -> Result<usize> {
        let n = intents.len();
        let txn = self.begin(|| "recovery-compensation".into(), alias);
        // An aliased commit appends nothing, so it cannot fail; an
        // unaliased one can (poisoned log) and then aborts like a failed
        // compensation.
        let done = self.compensate_list(&txn, intents, true).and_then(|()| self.commit(&txn));
        match done {
            Ok(_) => Ok(n),
            Err(e) => {
                self.abort(&txn, Vec::new(), &e);
                Err(e)
            }
        }
    }

    /// Hard ceiling on any single backoff sleep, whatever the attempt
    /// count or configured base: a budget of 1000 compensation retries
    /// must stay in seconds, not minutes.
    pub const MAX_BACKOFF: Duration = Duration::from_millis(5);

    /// Sleep out the [`backoff_duration`] of this engine's base before
    /// retry number `attempt` (of a transaction, seeded by its `TopId`, or
    /// of one compensating invocation).
    fn retry_backoff(&self, seed: u64, attempt: u32) {
        let base = self.comp_retry_backoff;
        std::thread::sleep(backoff_duration(base, seed, attempt, Self::MAX_BACKOFF));
    }
}

/// Exponential-backoff doubling stops here: shifting by more than the
/// attempt count's value width is undefined in release and a panic in
/// debug, and attempt counts run to the compensation-retry limit
/// (1000 by default) — far past the 63-bit shift width of `1u64 <<`.
const MAX_BACKOFF_SHIFT: u32 = 6;

/// Jittered, capped exponential backoff — the one retry backoff of the
/// workspace (engine retries and compensation retries, the fleet's rpc
/// link, the coordinator's whole-transaction retry). Deterministic for a
/// given seed (reproducible tests), decorrelated across competing
/// transactions, and bounded for *any* `attempt` value: the exponent
/// saturates at six doublings and the product at `cap`, jittered by a
/// factor uniform in [0.5, 1.5).
pub fn backoff_duration(base: Duration, seed: u64, attempt: u32, cap: Duration) -> Duration {
    let mut rng = StdRng::seed_from_u64(seed ^ u64::from(attempt));
    let exp = 1u64 << attempt.min(MAX_BACKOFF_SHIFT);
    // Cap *before* jittering so saturated retries stay decorrelated
    // instead of all sleeping the identical ceiling.
    let capped = (base.as_secs_f64() * exp as f64).min(cap.as_secs_f64());
    Duration::from_secs_f64(capped * (0.5 + rng.random::<f64>()))
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Engine(protocol = {})", self.protocol_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite regression (PR 8): the exponential factor is a shift of
    /// the attempt count. Attempt counts at or beyond the shift width
    /// (the compensation-retry budget defaults to 1000) must neither
    /// panic nor overflow into a zero/huge sleep — the exponent saturates
    /// and the sleep is hard-capped.
    #[test]
    fn backoff_saturates_at_high_attempt_counts() {
        let base = Duration::from_micros(200);
        let cap = Engine::MAX_BACKOFF;
        let ceiling = Duration::from_secs_f64(cap.as_secs_f64() * 1.5);
        for attempt in [0, 1, MAX_BACKOFF_SHIFT, 63, 64, 65, 1000, u32::MAX] {
            let d = backoff_duration(base, 7, attempt, cap);
            assert!(d > Duration::ZERO, "attempt {attempt}: zero sleep");
            assert!(d <= ceiling, "attempt {attempt}: {d:?} above the jittered ceiling");
        }
        // Saturation: every attempt past the shift cap draws from the
        // same (capped) base, so only the jitter differs.
        let lo = Duration::from_secs_f64(cap.as_secs_f64() * 0.5);
        let d = backoff_duration(base, 7, u32::MAX, cap);
        assert!(d >= lo, "saturated backoff stays near the ceiling, got {d:?}");
    }

    /// The backoff stays deterministic per (seed, attempt) yet
    /// decorrelated across seeds — colliding compensations must not
    /// retry in lockstep.
    #[test]
    fn backoff_is_seeded_and_decorrelated() {
        let base = Duration::from_micros(200);
        let cap = Engine::MAX_BACKOFF;
        assert_eq!(
            backoff_duration(base, 42, 3, cap),
            backoff_duration(base, 42, 3, cap),
            "same seed and attempt must reproduce"
        );
        let distinct: std::collections::BTreeSet<Duration> =
            (0..16).map(|seed| backoff_duration(base, seed, 3, cap)).collect();
        assert!(distinct.len() > 8, "seeds must spread the jitter: {distinct:?}");
    }
}
