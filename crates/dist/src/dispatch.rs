//! The coordinator's one piece-dispatch path. It never creates a thread
//! per transaction and has exactly two behaviours:
//!
//! * **caller-runs** ([`Dispatcher::run`], `overlap = false`): the
//!   submitting thread runs the pieces itself, in shard order, stopping at
//!   the first failure. Sound only for open-nested pieces — independent
//!   local transactions that hold nothing between them, so order is free
//!   and an unstarted piece needs no compensation — and worth it only when
//!   nothing sleeps: a hand-off costs more than a ~12 µs piece.
//! * **parked helpers** ([`Dispatcher::post`]): pieces go to persistent,
//!   lazily created threads that park between jobs. The pool grows on
//!   demand so every posted job has a thread of its own: 2PC participants
//!   block on the [`DecisionGate`] holding locks, and a bounded pool would
//!   deadlock two cohorts whose votes queue behind each other's pieces.
//!
//! A panicking job comes back to the submitter as a typed error on either
//! path, and the helper that ran it serves the next job.

use crate::rpc::RpcError;
use crate::shard::{DecisionGate, PieceAck};
use parking_lot::{Condvar, Mutex};
use semcc_semantics::{SemccError, Value};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

type PieceResult = Result<PieceAck, RpcError>;

/// What a dispatch came to: the acks of the pieces that ran to commit,
/// and the error to report if any piece failed.
#[derive(Default)]
pub(crate) struct Dispatched {
    pub acks: Vec<(usize, PieceAck)>,
    pub failure: Option<RpcError>,
}

impl Dispatched {
    fn push(&mut self, shard: usize, out: PieceResult) {
        match out {
            Ok(ack) => self.acks.push((shard, ack)),
            // Prefer the *root cause* over the secondary "global abort"
            // errors of sibling pieces: a contention victim (deadlock /
            // lock timeout) is retryable, the abort it triggered is not.
            Err(e) => {
                let root_cause = |f: &RpcError| !f.is_retryable_app() && e.is_retryable_app();
                if self.failure.as_ref().is_none_or(root_cause) {
                    self.failure = Some(e);
                }
            }
        }
    }

    /// The client's value: the single piece's, or a `Value::List` of the
    /// piece values in shard order.
    pub fn into_value(mut self) -> Value {
        self.acks.sort_by_key(|(s, _)| *s);
        if self.acks.len() == 1 {
            self.acks.remove(0).1.value
        } else {
            Value::List(self.acks.into_iter().map(|(_, a)| a.value).collect())
        }
    }
}

/// Run `job`, turning a panic into the typed error of an ordinary abort.
fn contain(job: impl FnOnce() -> PieceResult) -> PieceResult {
    catch_unwind(AssertUnwindSafe(job)).unwrap_or_else(|payload| {
        Err(RpcError::App(SemccError::MethodPanicked(semcc_core::panic_message(payload))))
    })
}

/// One job shipped to a helper, and where its outcome goes.
struct Task {
    job: Box<dyn FnOnce() -> PieceResult + Send>,
    reply: Reply,
}

struct Reply {
    shard: usize,
    gate: Option<Arc<DecisionGate>>,
    tx: mpsc::Sender<(usize, PieceResult)>,
}

impl Reply {
    /// Hand the outcome to the submitter, then let a failure fail the
    /// gate: the cohort aborts and its voted siblings are released, their
    /// secondary errors behind the root cause in the channel.
    fn send(self, out: PieceResult) {
        let failed = out.is_err();
        let _ = self.tx.send((self.shard, out));
        if let (true, Some(gate)) = (failed, &self.gate) {
            gate.fail();
        }
    }
}

#[derive(Default)]
struct Pool {
    queue: VecDeque<Task>,
    /// Tasks a helper has taken and not yet finished.
    busy: usize,
    helpers: Vec<JoinHandle<()>>,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    pool: Mutex<Pool>,
    work: Condvar,
}

fn helper_loop(shared: &Shared) {
    let mut pool = shared.pool.lock();
    loop {
        if let Some(task) = pool.queue.pop_front() {
            pool.busy += 1;
            drop(pool);
            let out = contain(task.job);
            // Off the books *before* the outcome is out: the submitter's
            // next post must find this helper free, or the pool would
            // grow with the transaction count.
            shared.pool.lock().busy -= 1;
            task.reply.send(out);
            pool = shared.pool.lock();
        } else if pool.shutdown {
            return;
        } else {
            shared.work.wait(&mut pool);
        }
    }
}

/// Jobs posted to helpers and not yet collected.
pub(crate) struct Pending {
    rx: mpsc::Receiver<(usize, PieceResult)>,
    n: usize,
}

impl Pending {
    /// Wait for every posted job and fold the outcomes into `into`.
    pub fn collect(self, mut into: Dispatched) -> Dispatched {
        for _ in 0..self.n {
            // A helper that died without reporting shows up as a closed
            // channel, never as a caller parked forever.
            let (shard, out) = self.rx.recv().unwrap_or((usize::MAX, Err(RpcError::Failed)));
            into.push(shard, out);
        }
        into
    }
}

/// The helper pool plus the two dispatch behaviours over it.
#[derive(Default)]
pub(crate) struct Dispatcher {
    shared: Arc<Shared>,
}

impl Dispatcher {
    /// Helper threads created so far (they are never retired early).
    pub fn threads_created(&self) -> usize {
        self.shared.pool.lock().helpers.len()
    }

    /// Ship every job to a parked helper of its own, growing the pool if
    /// none is free. A failing job also fails `gate`.
    pub fn post<J>(
        &self,
        jobs: impl IntoIterator<Item = (usize, J)>,
        gate: Option<&Arc<DecisionGate>>,
    ) -> Pending
    where
        J: FnOnce() -> PieceResult + Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        let mut n = 0;
        for (shard, job) in jobs {
            n += 1;
            let reply = Reply { shard, gate: gate.cloned(), tx: tx.clone() };
            let mut pool = self.shared.pool.lock();
            if pool.queue.len() + pool.busy >= pool.helpers.len() {
                let shared = Arc::clone(&self.shared);
                let spawned = std::thread::Builder::new()
                    .name("semcc-dispatch".into())
                    .spawn(move || helper_loop(&shared));
                match spawned {
                    Ok(helper) => pool.helpers.push(helper),
                    Err(_) => {
                        drop(pool);
                        reply.send(Err(RpcError::Failed));
                        continue;
                    }
                }
            }
            pool.queue.push_back(Task { job: Box::new(job), reply });
            drop(pool);
            self.shared.work.notify_one();
        }
        Pending { rx, n }
    }

    /// Run open-nested pieces to completion. With `overlap` the caller
    /// runs the first job while helpers run the rest; without, the caller
    /// runs them all in order and stops at the first failure.
    pub fn run<J>(&self, jobs: impl IntoIterator<Item = (usize, J)>, overlap: bool) -> Dispatched
    where
        J: FnOnce() -> PieceResult + Send + 'static,
    {
        let mut out = Dispatched::default();
        let mut jobs = jobs.into_iter();
        if overlap {
            if let Some((shard, first)) = jobs.next() {
                let rest = self.post(jobs, None);
                out.push(shard, contain(first));
                out = rest.collect(out);
            }
        } else {
            for (shard, job) in jobs {
                out.push(shard, contain(job));
                if out.failure.is_some() {
                    break;
                }
            }
        }
        out
    }
}

impl Drop for Dispatcher {
    fn drop(&mut self) {
        let helpers = {
            let mut pool = self.shared.pool.lock();
            pool.shutdown = true;
            std::mem::take(&mut pool.helpers)
        };
        self.shared.work.notify_all();
        for helper in helpers {
            let _ = helper.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;

    type Job = Box<dyn FnOnce() -> PieceResult + Send>;

    fn ack(n: u64) -> PieceResult {
        Ok(PieceAck { local_top: n, value: Value::Int(n as i64) })
    }

    fn panicked(out: &Dispatched) -> bool {
        matches!(&out.failure, Some(RpcError::App(SemccError::MethodPanicked(m))) if m == "boom")
    }

    /// A job that records, under its number, which thread ran it.
    fn traced(n: u64, ran_on: &Arc<Mutex<Vec<(u64, ThreadId)>>>) -> Job {
        let ran_on = Arc::clone(ran_on);
        Box::new(move || {
            ran_on.lock().push((n, std::thread::current().id()));
            ack(n)
        })
    }

    #[test]
    fn caller_runs_in_order_contains_a_panic_and_stops_there() {
        let d = Dispatcher::default();
        let ran = Arc::new(AtomicUsize::new(0));
        let later = Arc::clone(&ran);
        let jobs: Vec<(usize, Job)> = vec![
            (0, Box::new(|| ack(1))),
            (1, Box::new(|| panic!("boom"))),
            (
                2,
                Box::new(move || {
                    later.fetch_add(1, Ordering::SeqCst);
                    ack(3)
                }),
            ),
        ];
        let out = d.run(jobs, false);
        assert!(panicked(&out), "typed error, not an unwound caller");
        assert_eq!(out.acks.len(), 1, "the piece before the failure committed");
        assert_eq!(ran.load(Ordering::SeqCst), 0, "the piece after it never started");
        assert_eq!(d.threads_created(), 0, "caller-runs creates no helper");
    }

    #[test]
    fn helper_survives_a_panicking_job_and_serves_the_next() {
        let d = Dispatcher::default();
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let on = Arc::clone(&ran_on);
        let jobs: Vec<(usize, Job)> = vec![
            (0, Box::new(|| ack(1))),
            (
                1,
                Box::new(move || {
                    on.lock().push((0, std::thread::current().id()));
                    panic!("boom")
                }),
            ),
        ];
        let out = d.run(jobs, true);
        assert!(panicked(&out));
        assert_eq!(out.acks.len(), 1, "the caller's own piece is unaffected");

        let out = d.run(vec![(0, traced(1, &ran_on)), (1, traced(2, &ran_on))], true);
        assert!(out.failure.is_none());
        assert_eq!(out.into_value(), Value::List(vec![Value::Int(1), Value::Int(2)]));
        let mut ran_on = ran_on.lock().clone();
        ran_on.sort_by_key(|(n, _)| *n);
        assert_eq!(ran_on[1].1, std::thread::current().id(), "the caller runs the first piece");
        assert_eq!(ran_on[0].1, ran_on[2].1, "the helper that contained the panic is reused");
        assert_eq!(d.threads_created(), 1);
    }

    #[test]
    fn inline_panic_with_overlap_still_collects_the_helpers() {
        let d = Dispatcher::default();
        let jobs: Vec<(usize, Job)> =
            vec![(0, Box::new(|| panic!("boom"))), (1, Box::new(|| ack(2)))];
        let out = d.run(jobs, true);
        assert!(panicked(&out));
        assert_eq!(out.acks.len(), 1, "the shipped piece was waited for and is compensable");
    }

    #[test]
    fn panic_under_a_gate_fails_it_and_releases_the_voted_sibling() {
        let d = Dispatcher::default();
        let gate = Arc::new(DecisionGate::default());
        let (voter, bomber) = (Arc::clone(&gate), Arc::clone(&gate));
        let jobs: Vec<(usize, Job)> = vec![
            (
                0,
                Box::new(move || match voter.vote_and_wait() {
                    true => ack(1),
                    false => Err(RpcError::App(SemccError::Aborted("2pc global abort".into()))),
                }),
            ),
            (
                1,
                Box::new(move || {
                    // Only once the sibling sits on the gate, voted.
                    bomber.wait_votes(1);
                    panic!("boom")
                }),
            ),
        ];
        let pending = d.post(jobs, Some(&gate));
        assert!(!gate.wait_votes(2), "the panic failed the gate: the cohort is not all-ready");
        gate.decide(false);
        let out = pending.collect(Dispatched::default());
        assert!(panicked(&out), "the root cause reaches the caller ahead of the sibling's abort");
        assert!(out.acks.is_empty(), "the voted sibling was released with the abort decision");

        // Neither helper is wedged: the same two serve the next cohort.
        let gate = Arc::new(DecisionGate::default());
        let jobs = (0..2).map(|shard| {
            let gate = Arc::clone(&gate);
            (shard, move || if gate.vote_and_wait() { ack(shard as u64) } else { unreachable!() })
        });
        let pending = d.post(jobs, Some(&gate));
        assert!(gate.wait_votes(2));
        gate.decide(true);
        let out = pending.collect(Dispatched::default());
        assert!(out.failure.is_none());
        assert_eq!(out.acks.len(), 2);
        assert_eq!(d.threads_created(), 2);
    }

    #[test]
    fn a_retryable_root_cause_outranks_secondary_errors() {
        let mut out = Dispatched::default();
        out.push(0, Err(RpcError::App(SemccError::Aborted("2pc global abort".into()))));
        out.push(1, Err(RpcError::App(SemccError::Deadlock)));
        out.push(2, Err(RpcError::ShardDown));
        assert!(out.failure.is_some_and(|e| e.is_retryable_app()));
    }
}
