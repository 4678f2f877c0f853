//! Blocking and wake-up machinery.
//!
//! A blocked lock requestor "waits for the completion of all transactions /
//! subtransactions in its waits-for set" (paper Figure 8). A [`WaitCell`]
//! subscribed to those nodes
//! ([`Registry::subscribe`](crate::tree::Registry::subscribe)) receives
//! exactly those notifications; in addition, a waiter is *poked* by the
//! [`kernel`](crate::kernel) when an entry it found itself in conflict with
//! leaves its lock queue, after which it re-runs the conflict test. A waiter
//! can also be *killed* by the deadlock detector.

use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Default)]
struct CellState {
    /// Outstanding node completions.
    pending: usize,
    /// Set when the lock queue changed and the waiter should re-test.
    poked: bool,
    /// Set when the deadlock detector chose this waiter as victim.
    killed: bool,
    /// Whether at least one awaited completion arrived (never reset: a
    /// completion changes the registry state, so a re-test is mandatory).
    completed: bool,
}

/// One wait episode of a blocked lock request.
pub struct WaitCell {
    state: Mutex<CellState>,
    cv: Condvar,
}

/// Outcome of a wait.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitOutcome {
    /// All awaited completions arrived or the queue changed: re-test.
    Retest,
    /// This transaction was chosen as deadlock victim.
    Killed,
    /// The wait exceeded its deadline (lock-wait timeout backstop).
    TimedOut,
}

impl WaitCell {
    /// A fresh cell; `add_pending` is called while subscribing.
    pub fn new() -> Arc<Self> {
        Arc::new(WaitCell { state: Mutex::new(CellState::default()), cv: Condvar::new() })
    }

    /// Account one more completion to wait for.
    pub fn add_pending(&self) {
        self.state.lock().pending += 1;
    }

    /// One awaited node completed.
    pub fn complete_one(&self) {
        let mut s = self.state.lock();
        s.pending = s.pending.saturating_sub(1);
        s.completed = true;
        if s.pending == 0 {
            self.cv.notify_all();
        }
    }

    /// The lock queue changed; wake for a re-test.
    pub fn poke(&self) {
        let mut s = self.state.lock();
        s.poked = true;
        self.cv.notify_all();
    }

    /// Deadlock victim: wake with failure.
    pub fn kill(&self) {
        let mut s = self.state.lock();
        s.killed = true;
        self.cv.notify_all();
    }

    /// Block until all pending completions arrived, a poke, or a kill.
    pub fn wait(&self) -> WaitOutcome {
        self.wait_deadline(None)
    }

    /// Like [`WaitCell::wait`], but gives up once `deadline` passes.
    /// Kills and re-test triggers that race with the deadline win: the
    /// timeout only fires when there is genuinely nothing else to report.
    pub fn wait_deadline(&self, deadline: Option<Instant>) -> WaitOutcome {
        let mut s = self.state.lock();
        loop {
            if s.killed {
                return WaitOutcome::Killed;
            }
            if s.pending == 0 || s.poked {
                return WaitOutcome::Retest;
            }
            match deadline {
                None => {
                    self.cv.wait(&mut s);
                }
                Some(d) => {
                    if Instant::now() >= d {
                        return WaitOutcome::TimedOut;
                    }
                    let _ = self.cv.wait_until(&mut s, d);
                }
            }
        }
    }

    /// Non-blocking check used by tests.
    pub fn would_wait(&self) -> bool {
        let s = self.state.lock();
        !s.killed && s.pending > 0 && !s.poked
    }

    /// Whether an awaited completion has ever arrived on this cell.
    pub fn had_completion(&self) -> bool {
        self.state.lock().completed
    }

    /// Whether the cell carries an unconsumed poke.
    pub fn was_poked(&self) -> bool {
        self.state.lock().poked
    }

    /// Consume a poke so the waiter can go back to sleep. Only sound while
    /// the caller holds the lock-queue shard latch that pokes are issued
    /// under and has verified (via the queue's generation counter) that the
    /// poke carried no new information.
    pub fn clear_poke(&self) {
        self.state.lock().poked = false;
    }
}

/// An empty shell: completion subscriptions live in the waited-for tree
/// ([`TxnTree::subscribe`](crate::tree::TxnTree::subscribe)).
/// BENCH-PINNED: `benchmark/src/probes.rs:18,144` write the name and
/// [`DisciplineDeps::hub`](crate::discipline::DisciplineDeps) in a struct
/// literal.
#[derive(Default)]
pub struct CompletionHub;

impl CompletionHub {
    /// The shell.
    pub fn new() -> Self {
        CompletionHub
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn wait_returns_when_pending_drains() {
        let cell = WaitCell::new();
        cell.add_pending();
        cell.add_pending();
        assert!(cell.would_wait());
        let c2 = Arc::clone(&cell);
        let h = std::thread::spawn(move || c2.wait());
        std::thread::sleep(Duration::from_millis(10));
        cell.complete_one();
        cell.complete_one();
        assert_eq!(h.join().unwrap(), WaitOutcome::Retest);
    }

    #[test]
    fn poke_wakes_early() {
        let cell = WaitCell::new();
        cell.add_pending();
        let c2 = Arc::clone(&cell);
        let h = std::thread::spawn(move || c2.wait());
        std::thread::sleep(Duration::from_millis(5));
        cell.poke();
        assert_eq!(h.join().unwrap(), WaitOutcome::Retest);
    }

    #[test]
    fn kill_wins() {
        let cell = WaitCell::new();
        cell.add_pending();
        let c2 = Arc::clone(&cell);
        let h = std::thread::spawn(move || c2.wait());
        std::thread::sleep(Duration::from_millis(5));
        cell.kill();
        assert_eq!(h.join().unwrap(), WaitOutcome::Killed);
        assert!(!cell.would_wait());
    }

    #[test]
    fn poke_can_be_cleared_but_completion_sticks() {
        let cell = WaitCell::new();
        cell.add_pending();
        cell.poke();
        assert!(cell.was_poked());
        assert!(!cell.had_completion());
        cell.clear_poke();
        assert!(!cell.was_poked());
        assert!(cell.would_wait(), "cleared poke re-arms the wait");
        cell.complete_one();
        assert!(cell.had_completion(), "completions are never reset");
        assert_eq!(cell.wait(), WaitOutcome::Retest);
    }

    #[test]
    fn deadline_fires_when_nothing_arrives() {
        let cell = WaitCell::new();
        cell.add_pending();
        let deadline = Instant::now() + Duration::from_millis(30);
        assert_eq!(cell.wait_deadline(Some(deadline)), WaitOutcome::TimedOut);
        // State is untouched: a completion afterwards still resolves it.
        cell.complete_one();
        assert_eq!(cell.wait_deadline(Some(Instant::now())), WaitOutcome::Retest);
    }

    #[test]
    fn completion_beats_deadline() {
        let cell = WaitCell::new();
        cell.add_pending();
        let c2 = Arc::clone(&cell);
        let h = std::thread::spawn(move || {
            c2.wait_deadline(Some(Instant::now() + Duration::from_secs(30)))
        });
        std::thread::sleep(Duration::from_millis(5));
        cell.complete_one();
        assert_eq!(h.join().unwrap(), WaitOutcome::Retest);
    }

    #[test]
    fn kill_beats_expired_deadline() {
        let cell = WaitCell::new();
        cell.add_pending();
        cell.kill();
        // Even with a deadline already in the past, the kill is reported.
        assert_eq!(cell.wait_deadline(Some(Instant::now())), WaitOutcome::Killed);
    }
}
