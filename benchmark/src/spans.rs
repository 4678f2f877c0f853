//! In-memory spans recorded by the benchmark's own wrappers.
//!
//! A span is `{name, txn, id, parent, start_ns, end_ns}`. Every thread
//! that records (client threads, and the service's core threads, which
//! the benchmark does not own) appends to a thread-local vector that is
//! handed to a process-wide collector when the thread exits (or, for the
//! calling thread, by [`drain`]). Nothing is written out until the rep is
//! over.
//!
//! Parents are found two ways. A span opened while another span of the
//! same thread is open is its child (a thread-local stack). A span opened
//! on an empty stack — engine work on a service core thread — hangs off
//! the *root parent* the transaction's [`Traced`](crate::traced::Traced)
//! program wrapper published for that thread when its body started.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Span kinds, one per public seam the benchmark wraps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Name {
    /// One client-observed transaction, retries included.
    ClientTxn,
    /// `Discipline::acquire` that was granted without waiting.
    LockAcquire,
    /// `Discipline::acquire` that reported `GrantInfo::waited`.
    LockWait,
    /// `Discipline::node_completed` (retained-lock conversion).
    LockComplete,
    /// `Discipline::top_finished` (release at top-level end).
    LockRelease,
    /// Any `Storage` call.
    StoreOp,
    /// Time inside `Service::submit`.
    ServiceAdmit,
    /// `submit` returned → the generator saw the ticket resolved.
    ServiceQueueExec,
    /// `PartitionMap::split` in the fleet driver.
    DistSplit,
    /// `Coordinator::submit_with_retry`.
    DistSubmit,
}

impl Name {
    /// Every kind, in report order.
    pub const ALL: [Name; 10] = [
        Name::ClientTxn,
        Name::LockAcquire,
        Name::LockWait,
        Name::LockComplete,
        Name::LockRelease,
        Name::StoreOp,
        Name::ServiceAdmit,
        Name::ServiceQueueExec,
        Name::DistSplit,
        Name::DistSubmit,
    ];

    /// The name written to trace files: `<layer>.<event>`.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::ClientTxn => "client.txn",
            Name::LockAcquire => "core.lock.acquire",
            Name::LockWait => "core.lock.wait",
            Name::LockComplete => "core.lock.complete",
            Name::LockRelease => "core.lock.release",
            Name::StoreOp => "objstore.op",
            Name::ServiceAdmit => "service.admit",
            Name::ServiceQueueExec => "service.queue_exec",
            Name::DistSplit => "dist.split",
            Name::DistSubmit => "dist.submit",
        }
    }
}

/// One recorded span. `parent == 0` marks a root.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    /// Index of the transaction in the rep's batch.
    pub txn: u32,
    pub id: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Id of the `client.txn` span of batch index `txn`: fixed, so that a
/// thread which never saw the span opened can still name it as a parent.
pub fn client_txn_id(txn: u32) -> u64 {
    u64::from(txn) + 1
}

/// Id of the `service.queue_exec` span of batch index `txn`.
pub fn queue_exec_id(txn: u32) -> u64 {
    (1 << 62) | u64::from(txn)
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static COLLECTED: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

struct Recorder {
    /// High bits of locally allocated ids (distinct per thread, and
    /// disjoint from the fixed ids above for any realistic batch).
    id_base: u64,
    seq: u64,
    /// Open spans of this thread, innermost last.
    stack: Vec<u64>,
    /// `(txn, parent)` for spans opened on an empty stack.
    root: (u32, u64),
    spans: Vec<Span>,
}

impl Drop for Recorder {
    fn drop(&mut self) {
        if !self.spans.is_empty() {
            if let Ok(mut all) = COLLECTED.lock() {
                all.push(std::mem::take(&mut self.spans));
            }
        }
    }
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        id_base: NEXT_THREAD.fetch_add(1, Ordering::Relaxed) << 40,
        seq: 0,
        stack: Vec::new(),
        root: (0, 0),
        spans: Vec::new(),
    });
}

/// Publish the transaction whose engine work this thread is about to do,
/// and the span that work hangs off when no span of this thread is open.
pub fn set_root(txn: u32, parent: u64) {
    RECORDER.with(|r| r.borrow_mut().root = (txn, parent));
}

/// An open span; records itself when dropped.
pub struct Open {
    name: Name,
    txn: u32,
    id: u64,
    parent: u64,
    start_ns: u64,
}

/// Open a span whose id is allocated locally and whose transaction and
/// parent come from the thread's context.
pub fn open(name: Name) -> Open {
    let (txn, id, parent) = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.seq += 1;
        let id = r.id_base | r.seq;
        let parent = r.stack.last().copied().unwrap_or(r.root.1);
        r.stack.push(id);
        (r.root.0, id, parent)
    });
    Open { name, txn, id, parent, start_ns: now_ns() }
}

/// Open the `client.txn` span of batch index `txn` (fixed id, see
/// [`client_txn_id`]); it is the thread's context until it closes.
pub fn open_client_txn(txn: u32) -> Open {
    let id = client_txn_id(txn);
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.root = (txn, id);
        r.stack.push(id);
    });
    Open { name: Name::ClientTxn, txn, id, parent: 0, start_ns: now_ns() }
}

impl Open {
    /// Close under a different name (an acquire that turned out to wait).
    pub fn close_as(mut self, name: Name) {
        self.name = name;
    }
}

impl Drop for Open {
    fn drop(&mut self) {
        let end_ns = now_ns();
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let top = r.stack.pop();
            debug_assert_eq!(top, Some(self.id), "spans close innermost first");
            r.spans.push(Span {
                name: self.name,
                txn: self.txn,
                id: self.id,
                parent: self.parent,
                start_ns: self.start_ns,
                end_ns,
            });
        });
    }
}

/// Record a span whose interval was timed by the caller (the service
/// driver learns an interval's end only when a ticket resolves).
pub fn record(span: Span) {
    RECORDER.with(|r| r.borrow_mut().spans.push(span));
}

/// Hand this thread's spans to the collector now (threads that outlive
/// the rep, such as the main thread).
fn flush_thread() {
    RECORDER.with(|r| {
        let spans = std::mem::take(&mut r.borrow_mut().spans);
        if !spans.is_empty() {
            COLLECTED.lock().expect("span collector poisoned").push(spans);
        }
    });
}

/// Take every span collected so far, in start order. Call after the
/// recording threads have exited (their thread-locals flush on exit).
pub fn drain() -> Vec<Span> {
    flush_thread();
    let mut all: Vec<Span> =
        std::mem::take(&mut *COLLECTED.lock().expect("span collector poisoned"))
            .into_iter()
            .flatten()
            .collect();
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// Per-kind totals of a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindTotal {
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times: duration minus the part child spans cover.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval (a child
/// that outlives its parent only counts up to the parent's end).
/// Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    // Keyed by parent: a few parents own millions of leaf spans, so this
    // stays far smaller than an index of every span.
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let duration = s.end_ns - s.start_ns;
            let Some(kids) = children.get_mut(&s.id) else { return duration };
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            duration - covered
        })
        .collect()
}

/// Count, total and self time per span kind.
pub fn totals(spans: &[Span]) -> HashMap<Name, KindTotal> {
    let selfs = self_times(spans);
    let mut out: HashMap<Name, KindTotal> = HashMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

/// Render spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"txn\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name.as_str(),
            s.txn,
            s.id,
            s.parent,
            s.start_ns,
            s.end_ns
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { name, txn: 0, id, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_children_and_merges_overlaps() {
        let spans = [
            span(Name::ClientTxn, 1, 0, 0, 100),
            span(Name::LockAcquire, 2, 1, 10, 30),
            // Overlaps the first child: the union covers 10..40.
            span(Name::StoreOp, 3, 1, 20, 40),
            // Grandchild: reduces its parent's self time, not the root's.
            span(Name::StoreOp, 4, 2, 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![70, 14, 20, 6]);
    }

    #[test]
    fn child_overlapping_its_parents_end_is_clipped() {
        let spans = [
            span(Name::ServiceQueueExec, 1, 0, 0, 100),
            // Runs past the parent's end: only 90..100 is the parent's.
            span(Name::LockRelease, 2, 1, 90, 130),
            // Entirely outside: covers nothing.
            span(Name::StoreOp, 3, 1, 150, 160),
        ];
        assert_eq!(self_times(&spans), vec![90, 40, 10]);
    }

    #[test]
    fn totals_sum_self_times_to_the_roots_duration() {
        let spans = [
            span(Name::ClientTxn, 1, 0, 0, 50),
            span(Name::LockAcquire, 2, 1, 5, 15),
            span(Name::StoreOp, 3, 1, 15, 25),
            span(Name::ClientTxn, 4, 0, 50, 80),
            span(Name::StoreOp, 5, 4, 60, 70),
        ];
        let t = totals(&spans);
        assert_eq!(t[&Name::ClientTxn], KindTotal { count: 2, total_ns: 80, self_ns: 50 });
        assert_eq!(t[&Name::StoreOp].total_ns, 20);
        let self_sum: u64 = t.values().map(|k| k.self_ns).sum();
        assert_eq!(self_sum, t[&Name::ClientTxn].total_ns, "a breakdown that sums to client.txn");
    }

    #[test]
    fn recorder_nests_by_thread_stack_and_falls_back_to_the_published_root() {
        // A dedicated thread: its thread-local flushes into the collector
        // when it exits, like a service core thread.
        std::thread::spawn(|| {
            {
                let _txn = open_client_txn(7);
                let inner = open(Name::LockAcquire);
                inner.close_as(Name::LockWait);
            }
            set_root(9, queue_exec_id(9));
            drop(open(Name::StoreOp));
        })
        .join()
        .unwrap();
        let mine: Vec<Span> = drain().into_iter().filter(|s| s.txn == 7 || s.txn == 9).collect();
        assert_eq!(mine.len(), 3);
        let wait = mine.iter().find(|s| s.name == Name::LockWait).unwrap();
        assert_eq!((wait.txn, wait.parent), (7, client_txn_id(7)));
        let op = mine.iter().find(|s| s.name == Name::StoreOp).unwrap();
        assert_eq!((op.txn, op.parent), (9, queue_exec_id(9)));
        let txn = mine.iter().find(|s| s.name == Name::ClientTxn).unwrap();
        assert!(txn.start_ns <= wait.start_ns && wait.end_ns <= txn.end_ns);
        assert!(to_json(&mine).contains("\"name\":\"core.lock.wait\",\"txn\":7"));
    }
}
