//! Bounded in-process session front-end.
//!
//! The engine is a library: until now every benchmark and harness ran it
//! thread-per-worker, so "10 000 concurrent clients" would mean 10 000 OS
//! threads. [`Service`] inverts that: clients **submit** transaction
//! programs as *sessions* and immediately get back a [`Ticket`]; a fixed
//! pool of `core_threads` workers drains the session queue through
//! [`Engine::execute_with_retry`]. A session waiting for a core is parked
//! as a heap object (program + ticket), not as a blocked OS thread; only
//! the `core_threads` workers ever block inside the engine, on a lock
//! grant or on the WAL's commit barrier, the log writer's state lock that
//! a committer holds while it syncs (or finds its frame already synced).
//!
//! **Admission is bounded.** At most `max_in_flight` sessions may be in
//! the system (queued + executing). [`Service::submit`] blocks the caller
//! until space frees up (backpressure); [`Service::try_submit`] refuses
//! instead. The bound is what lets a saturation driver push ≥10k sessions
//! without unbounded memory.
//!
//! **Acknowledgment discipline.** A ticket resolves *exactly once*, with
//! the engine's own result: a committed session's outcome carries the
//! engine-wide `commit_seq`, and — when a WAL is attached with
//! `FsyncPolicy::OnCommit` — the engine only returns from `commit()` once
//! the commit barrier proved the commit record durable. The service
//! adds no acknowledgment of its own, so "ticket resolved Ok" ⟺ "commit
//! record durable" survives end-to-end (the saturation harness audits
//! exactly this across a crash).

use parking_lot::{Condvar, Mutex};
use semcc_core::{Engine, TransactionProgram, TxnOutcome};
use semcc_semantics::SemccError;
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;

/// What one session produced: the engine result plus how many contention
/// retries it took.
pub type SessionResult = (Result<TxnOutcome, SemccError>, u32);

/// Front-end sizing.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Fixed worker-pool size — the only OS threads that ever run
    /// transaction bodies.
    pub core_threads: usize,
    /// Admission bound: maximum sessions in the system (queued plus
    /// executing). `submit` blocks and `try_submit` refuses at the bound.
    pub max_in_flight: usize,
    /// Contention-retry budget handed to
    /// [`Engine::execute_with_retry`] per session.
    pub max_retries: u32,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { core_threads: 4, max_in_flight: 1024, max_retries: 1000 }
    }
}

struct TicketInner {
    slot: Mutex<Option<SessionResult>>,
    cv: Condvar,
}

impl TicketInner {
    fn resolve(&self, result: SessionResult) {
        let mut slot = self.slot.lock();
        debug_assert!(slot.is_none(), "a ticket resolves exactly once");
        *slot = Some(result);
        self.cv.notify_all();
    }
}

/// A claim check for one submitted session. Resolved exactly once, by the
/// worker that ran the session (or by shutdown, with
/// [`SemccError::Cancelled`]).
pub struct Ticket {
    inner: Arc<TicketInner>,
}

impl Ticket {
    /// Block until the session resolves and take its result. Panics if
    /// called twice — a ticket holds exactly one result.
    pub fn wait(&self) -> SessionResult {
        let mut slot = self.inner.slot.lock();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            self.inner.cv.wait(&mut slot);
        }
    }

    /// Non-blocking probe: the result, if the session already resolved.
    pub fn try_take(&self) -> Option<SessionResult> {
        self.inner.slot.lock().take()
    }
}

/// One parked session: the client's program plus its claim check.
struct Session {
    program: Arc<dyn TransactionProgram>,
    ticket: Arc<TicketInner>,
}

struct QueueState {
    queue: VecDeque<Session>,
    /// Sessions in the system: queued + executing.
    in_flight: usize,
    shutdown: bool,
}

struct Inner {
    engine: Arc<Engine>,
    cfg: ServiceConfig,
    queue: Mutex<QueueState>,
    /// Workers park here for sessions.
    work_cv: Condvar,
    /// Submitters park here for admission space.
    space_cv: Condvar,
}

impl Inner {
    fn worker_loop(&self) {
        loop {
            let session = {
                let mut q = self.queue.lock();
                loop {
                    if let Some(s) = q.queue.pop_front() {
                        break s;
                    }
                    if q.shutdown {
                        return;
                    }
                    self.work_cv.wait(&mut q);
                }
            };
            let result = self.engine.execute_with_retry(&*session.program, self.cfg.max_retries);
            // Free the admission slot before resolving: a client holding
            // its ack must find the slot free (`Ticket::wait` returning
            // implies `try_submit` is not refused on this session's account).
            // A parked submitter is woken only afterwards, so it does not
            // compete with the ack for this core.
            self.queue.lock().in_flight -= 1;
            session.ticket.resolve(result);
            self.space_cv.notify_one();
        }
    }
}

/// The bounded session front-end. Dropping it shuts the pool down
/// ([`Service::shutdown`]), failing still-queued sessions with
/// [`SemccError::Cancelled`].
pub struct Service {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Service {
    /// Start a worker pool over `engine`.
    pub fn start(engine: Arc<Engine>, cfg: ServiceConfig) -> Service {
        assert!(cfg.core_threads >= 1, "at least one core thread");
        assert!(cfg.max_in_flight >= 1, "at least one admission slot");
        let inner = Arc::new(Inner {
            engine,
            cfg,
            queue: Mutex::new(QueueState { queue: VecDeque::new(), in_flight: 0, shutdown: false }),
            work_cv: Condvar::new(),
            space_cv: Condvar::new(),
        });
        let workers = (0..cfg.core_threads)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("semcc-core-{i}"))
                    .spawn(move || inner.worker_loop())
                    .expect("spawn service worker")
            })
            .collect();
        Service { inner, workers: Mutex::new(workers) }
    }

    /// Submit a session, blocking while the system is at its admission
    /// bound (backpressure). After shutdown the ticket resolves
    /// immediately with [`SemccError::Cancelled`].
    pub fn submit(&self, program: Arc<dyn TransactionProgram>) -> Ticket {
        let ticket = Arc::new(TicketInner { slot: Mutex::new(None), cv: Condvar::new() });
        {
            let mut q = self.inner.queue.lock();
            while q.in_flight >= self.inner.cfg.max_in_flight && !q.shutdown {
                self.inner.space_cv.wait(&mut q);
            }
            if q.shutdown {
                drop(q);
                ticket.resolve((Err(SemccError::Cancelled), 0));
                return Ticket { inner: ticket };
            }
            q.in_flight += 1;
            q.queue.push_back(Session { program, ticket: Arc::clone(&ticket) });
            self.inner.work_cv.notify_one();
        }
        Ticket { inner: ticket }
    }

    /// Non-blocking submit: `None` when the system is at its admission
    /// bound (the caller sheds load instead of parking).
    pub fn try_submit(&self, program: Arc<dyn TransactionProgram>) -> Option<Ticket> {
        let ticket = Arc::new(TicketInner { slot: Mutex::new(None), cv: Condvar::new() });
        let mut q = self.inner.queue.lock();
        if q.shutdown || q.in_flight >= self.inner.cfg.max_in_flight {
            return None;
        }
        q.in_flight += 1;
        q.queue.push_back(Session { program, ticket: Arc::clone(&ticket) });
        self.inner.work_cv.notify_one();
        drop(q);
        Some(Ticket { inner: ticket })
    }

    /// Sessions currently in the system (queued + executing).
    pub fn in_flight(&self) -> usize {
        self.inner.queue.lock().in_flight
    }

    /// The engine this service fronts.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.inner.engine
    }

    /// Stop accepting sessions, fail everything still queued with
    /// [`SemccError::Cancelled`], and join the worker pool (in-progress
    /// sessions run to completion). Idempotent.
    pub fn shutdown(&self) {
        let drained = {
            let mut q = self.inner.queue.lock();
            q.shutdown = true;
            let drained: Vec<Session> = q.queue.drain(..).collect();
            q.in_flight -= drained.len();
            self.inner.work_cv.notify_all();
            self.inner.space_cv.notify_all();
            drained
        };
        for session in drained {
            session.ticket.resolve((Err(SemccError::Cancelled), 0));
        }
        let workers = std::mem::take(&mut *self.workers.lock());
        for w in workers {
            let _ = w.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcc_core::{FnProgram, ProtocolConfig};
    use semcc_objstore::MemoryStore;
    use semcc_semantics::{Catalog, Storage, Value};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tiny_engine() -> Arc<Engine> {
        let store = Arc::new(MemoryStore::new());
        let catalog = Arc::new(Catalog::new());
        Engine::builder(store as Arc<dyn Storage>, catalog)
            .protocol(ProtocolConfig::semantic())
            .build()
    }

    fn noop_program(label: &str) -> Arc<dyn TransactionProgram> {
        Arc::new(FnProgram::new(label.to_owned(), |_ctx| Ok(Value::Int(1))))
    }

    #[test]
    fn sessions_resolve_with_engine_outcomes() {
        let svc = Service::start(tiny_engine(), ServiceConfig::default());
        let tickets: Vec<Ticket> =
            (0..32).map(|i| svc.submit(noop_program(&format!("s{i}")))).collect();
        for t in tickets {
            let (res, _retries) = t.wait();
            assert_eq!(res.unwrap().value, Value::Int(1));
        }
        assert_eq!(svc.in_flight(), 0);
    }

    #[test]
    fn admission_bound_refuses_and_backpressures() {
        // One slow worker, two admission slots: the third try_submit in
        // flight must be refused.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let svc = Service::start(
            tiny_engine(),
            ServiceConfig { core_threads: 1, max_in_flight: 2, max_retries: 10 },
        );
        let g = Arc::clone(&gate);
        let blocker: Arc<dyn TransactionProgram> = Arc::new(FnProgram::new("blocker", move |_| {
            let (lock, cv) = &*g;
            let mut open = lock.lock();
            while !*open {
                cv.wait(&mut open);
            }
            Ok(Value::Int(0))
        }));
        let t1 = svc.submit(blocker);
        let t2 = svc.submit(noop_program("queued"));
        assert!(svc.try_submit(noop_program("refused")).is_none(), "bound enforced");
        let (lock, cv) = &*gate;
        *lock.lock() = true;
        cv.notify_all();
        t1.wait().0.unwrap();
        t2.wait().0.unwrap();
        // Space freed: admission works again.
        svc.submit(noop_program("late")).wait().0.unwrap();
    }

    #[test]
    fn shutdown_cancels_queued_sessions_and_is_idempotent() {
        let svc = Service::start(
            tiny_engine(),
            ServiceConfig { core_threads: 1, max_in_flight: 64, max_retries: 10 },
        );
        svc.shutdown();
        svc.shutdown();
        let t = svc.submit(noop_program("after-shutdown"));
        assert!(matches!(t.wait().0, Err(SemccError::Cancelled)));
        assert!(svc.try_submit(noop_program("refused")).is_none());
    }

    #[test]
    fn many_sessions_over_few_cores_all_complete_exactly_once() {
        let svc = Service::start(
            tiny_engine(),
            ServiceConfig { core_threads: 3, max_in_flight: 4096, max_retries: 10 },
        );
        let done = Arc::new(AtomicUsize::new(0));
        let tickets: Vec<Ticket> = (0..2000)
            .map(|i| {
                let done = Arc::clone(&done);
                svc.submit(Arc::new(FnProgram::new(format!("m{i}"), move |_| {
                    done.fetch_add(1, Ordering::Relaxed);
                    Ok(Value::Int(0))
                })))
            })
            .collect();
        for t in tickets {
            t.wait().0.unwrap();
        }
        assert_eq!(done.load(Ordering::Relaxed), 2000, "each session ran exactly once");
    }
}
