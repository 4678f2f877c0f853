//! Execution history recording.
//!
//! The engine emits an event for every significant protocol step. Sinks can
//! ignore them ([`NullSink`], the production default), buffer them for the
//! serializability validators and the deterministic scenario driver
//! ([`MemorySink`]), or forward them elsewhere.

use crate::ids::{NodeRef, TopId};
use parking_lot::{Condvar, Mutex};
use semcc_semantics::Invocation;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One protocol event.
#[derive(Clone, Debug)]
pub enum Event {
    /// A top-level transaction began.
    TopBegin {
        /// The transaction.
        top: TopId,
        /// Program label (e.g. `"T1"`).
        label: String,
    },
    /// An action (subtransaction) was created under `parent`.
    ActionStart {
        /// The new node.
        node: NodeRef,
        /// Its parent (`None` only for roots, which emit no ActionStart).
        parent: NodeRef,
        /// The invocation labelling the node.
        inv: Arc<Invocation>,
    },
    /// The action's lock request is blocked.
    Blocked {
        /// The blocked node.
        node: NodeRef,
        /// The nodes whose completion it waits for (waits-for set).
        on: Vec<NodeRef>,
    },
    /// The action's lock was granted.
    Granted {
        /// The node.
        node: NodeRef,
        /// Whether it had to wait first.
        waited: bool,
    },
    /// The action completed (subtransaction commit).
    ActionComplete {
        /// The node.
        node: NodeRef,
    },
    /// A compensating invocation is about to run.
    Compensate {
        /// The aborting transaction.
        top: TopId,
        /// The inverse invocation.
        inv: Arc<Invocation>,
    },
    /// Top-level commit.
    TopCommit {
        /// The transaction.
        top: TopId,
    },
    /// Top-level abort.
    TopAbort {
        /// The transaction.
        top: TopId,
        /// Why.
        reason: String,
    },
    /// An undo failed for good (a compensation past its retries, or an
    /// in-place restore the store refused); the abort proceeds without it.
    /// One per `compensation_failures` count.
    CompensationFailure {
        /// The aborting transaction.
        top: TopId,
        /// The compensation failure.
        error: String,
        /// The abort cause that triggered the compensation.
        original: String,
    },
}

impl Event {
    /// The transaction this event belongs to.
    pub fn top(&self) -> TopId {
        match self {
            Event::TopBegin { top, .. }
            | Event::Compensate { top, .. }
            | Event::TopCommit { top }
            | Event::TopAbort { top, .. }
            | Event::CompensationFailure { top, .. } => *top,
            Event::ActionStart { node, .. }
            | Event::Blocked { node, .. }
            | Event::Granted { node, .. }
            | Event::ActionComplete { node } => node.top,
        }
    }
}

/// An event with its global sequence number.
#[derive(Clone, Debug)]
pub struct Stamped {
    /// Global total order position.
    pub seq: u64,
    /// The event.
    pub ev: Event,
}

/// Receives protocol events.
pub trait HistorySink: Send + Sync {
    /// Record one event; returns its global sequence number.
    fn record(&self, ev: Event) -> u64;

    /// Whether anybody reads what [`record`](HistorySink::record) is given.
    /// [`DisciplineDeps::emit`](crate::discipline::DisciplineDeps::emit) asks
    /// first: a sink answering `false` costs no `Event` and no shared write.
    fn is_listening(&self) -> bool {
        true
    }
}

/// Nobody is listening: events are not even built.
#[derive(Default)]
pub struct NullSink;

impl NullSink {
    /// New sink.
    pub fn new() -> Self {
        NullSink
    }
}

impl HistorySink for NullSink {
    fn record(&self, _ev: Event) -> u64 {
        0
    }

    fn is_listening(&self) -> bool {
        false
    }
}

/// Buffers all events in memory and supports predicate waits — the
/// foundation of the deterministic scenario driver and the validators.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<Stamped>>,
    cv: Condvar,
}

impl MemorySink {
    /// New empty sink.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Snapshot of all events so far.
    pub fn events(&self) -> Vec<Stamped> {
        self.events.lock().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Block until some recorded event satisfies `pred` (scanning from the
    /// start), or the timeout expires. Returns the first matching event.
    pub fn wait_for<F>(&self, mut pred: F, timeout: Duration) -> Option<Stamped>
    where
        F: FnMut(&Stamped) -> bool,
    {
        let deadline = Instant::now() + timeout;
        let mut events = self.events.lock();
        let mut scanned = 0;
        loop {
            while scanned < events.len() {
                if pred(&events[scanned]) {
                    return Some(events[scanned].clone());
                }
                scanned += 1;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            if self.cv.wait_until(&mut events, deadline).timed_out() {
                // Re-scan once more after timeout in case of a late event.
                continue;
            }
        }
    }
}

impl HistorySink for MemorySink {
    fn record(&self, ev: Event) -> u64 {
        let mut events = self.events.lock();
        let seq = events.len() as u64;
        events.push(Stamped { seq, ev });
        self.cv.notify_all();
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_does_not_listen_and_memory_sink_does() {
        assert!(!NullSink::new().is_listening());
        assert!(MemorySink::new().is_listening());
    }

    #[test]
    fn memory_sink_buffers_in_order() {
        let s = MemorySink::new();
        s.record(Event::TopBegin { top: TopId(1), label: "a".into() });
        s.record(Event::TopCommit { top: TopId(1) });
        let evs = s.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[1].seq, 1);
        assert!(matches!(evs[1].ev, Event::TopCommit { .. }));
        assert!(!s.is_empty());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn wait_for_sees_past_and_future_events() {
        let s = MemorySink::new();
        s.record(Event::TopCommit { top: TopId(7) });
        // Already-recorded event matches.
        let hit = s.wait_for(
            |e| matches!(e.ev, Event::TopCommit { top } if top == TopId(7)),
            Duration::from_millis(50),
        );
        assert!(hit.is_some());

        // Future event delivered by another thread.
        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            s2.record(Event::TopAbort { top: TopId(9), reason: "x".into() });
        });
        let hit = s.wait_for(|e| matches!(e.ev, Event::TopAbort { .. }), Duration::from_secs(2));
        h.join().unwrap();
        assert!(hit.is_some());
    }

    #[test]
    fn wait_for_times_out() {
        let s = MemorySink::new();
        let hit = s.wait_for(|_| false, Duration::from_millis(30));
        assert!(hit.is_none());
    }

    #[test]
    fn event_top_extraction() {
        let n = NodeRef { top: TopId(4), idx: 2 };
        assert_eq!(Event::ActionComplete { node: n }.top(), TopId(4));
        assert_eq!(Event::TopBegin { top: TopId(5), label: String::new() }.top(), TopId(5));
    }
}
