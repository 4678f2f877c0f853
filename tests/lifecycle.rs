//! The transaction lifecycle's one ending (`engine::lifecycle::finish_top`)
//! under each of its three outcomes — committed, aborted, contained — and
//! the builder's lock-wait timeout carried as a `Duration` end to end.

use semcc::core::{
    Engine, Event, FnProgram, HistorySink, JournalKind, MemorySink, TopId, TransactionProgram,
};
use semcc::orderentry::{Database, DbParams};
use semcc::semantics::{MethodContext, SemccError, Storage, Value};
use semcc::sim::scenario::{ever_blocked, guarded, top_of_label, Gate, OpenOnDrop};
use semcc::sim::Residue;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Duration;

/// What a transaction left behind at the moment its terminal event was
/// published: engine residue plus outstanding write intents.
#[derive(Debug, PartialEq)]
struct AtEnd {
    top: TopId,
    residue: Residue,
    write_intents: bool,
}

/// A recording sink that looks back at the engine whenever a terminal event
/// arrives, and can be told to panic on `Event::Compensate` — which makes
/// the abort path itself unwind.
struct ProbeSink {
    events: Arc<MemorySink>,
    engine: OnceLock<Weak<Engine>>,
    at_end: Mutex<Vec<AtEnd>>,
    panic_on_compensate: bool,
}

impl HistorySink for ProbeSink {
    fn record(&self, ev: Event) -> u64 {
        if self.panic_on_compensate && matches!(ev, Event::Compensate { .. }) {
            semcc::core::injected_panic("sink");
        }
        if let Event::TopCommit { top } | Event::TopAbort { top, .. } = ev {
            let engine = self.engine.get().and_then(Weak::upgrade).expect("engine attached");
            self.at_end.lock().unwrap().push(AtEnd {
                top,
                residue: Residue::of(&engine),
                write_intents: engine.storage().quiesce_token().is_none(),
            });
        }
        self.events.record(ev)
    }
}

struct Fixture {
    db: Database,
    engine: Arc<Engine>,
    sink: Arc<ProbeSink>,
}

fn escrow_fixture(panic_on_compensate: bool) -> Fixture {
    semcc::core::silence_injected_panics();
    let params = DbParams { n_items: 1, orders_per_item: 2, escrow: true, ..Default::default() };
    let db = Database::build(&params).unwrap();
    let sink = Arc::new(ProbeSink {
        events: MemorySink::new(),
        engine: OnceLock::new(),
        at_end: Mutex::default(),
        panic_on_compensate,
    });
    let engine =
        Engine::builder(Arc::clone(&db.store) as Arc<dyn Storage>, Arc::clone(&db.catalog))
            .sink(Arc::clone(&sink) as Arc<dyn HistorySink>)
            .journal_capacity(1 << 10)
            .build();
    sink.engine.set(Arc::downgrade(&engine)).expect("set once");
    Fixture { db, engine, sink }
}

impl Fixture {
    /// Ship and pay order 0 (an escrow decrement of `QOH`, a reserved
    /// escrow increment of `PaidTotal`), then end as `end` says.
    fn ship_and_pay(&self, label: &str, end: Result<(), SemccError>) -> impl TransactionProgram {
        let (item, order) = (self.db.items[0].item, self.db.items[0].orders[0].order);
        FnProgram::new(label, move |ctx: &mut dyn MethodContext| {
            ctx.call(item, "ShipOrder", vec![Value::Id(order)])?;
            ctx.call(item, "PayOrder", vec![Value::Id(order)])?;
            end.clone().map(|()| Value::Unit)
        })
    }

    /// Assert the one ordering contract for the transaction labelled
    /// `label`: its terminal event is its last sink event and its last
    /// journal record, each emitted exactly once, and by then every lock,
    /// write intent, registry entry and waits-for entry of the transaction
    /// is gone.
    fn assert_ended_once(&self, label: &str, terminal: JournalKind, aux: u64) {
        let top = top_of_label(&self.sink.events, label, 0).expect("transaction began");
        let at_end = self.sink.at_end.lock().unwrap();
        let mine: Vec<_> = at_end.iter().filter(|e| e.top == top).collect();
        let clean = AtEnd { top, residue: Residue::default(), write_intents: false };
        assert_eq!(mine, [&clean], "{label}: released before the (one) terminal event");

        let events: Vec<_> =
            self.sink.events.events().into_iter().filter(|e| e.ev.top() == top).collect();
        let is_terminal =
            |ev: &Event| matches!(ev, Event::TopCommit { .. } | Event::TopAbort { .. });
        assert_eq!(events.iter().filter(|e| is_terminal(&e.ev)).count(), 1, "{label}: {events:?}");
        assert!(is_terminal(&events.last().unwrap().ev), "{label}: terminal event not last");
        match (&events.last().unwrap().ev, terminal) {
            (Event::TopCommit { .. }, JournalKind::TopCommit) => {}
            (Event::TopAbort { .. }, JournalKind::TopAbort) => {}
            (ev, _) => panic!("{label}: ended with {ev:?}, expected {terminal:?}"),
        }

        let journal = self.engine.journal().expect("journal on").snapshot();
        let records: Vec<_> = journal.iter().filter(|r| r.top == top.0).collect();
        let ends: Vec<_> = records
            .iter()
            .filter(|r| matches!(r.kind, JournalKind::TopCommit | JournalKind::TopAbort))
            .map(|r| (r.kind, r.aux))
            .collect();
        assert_eq!(ends, [(terminal, aux)], "{label}: one terminal journal record");
        assert_eq!(records.last().unwrap().kind, terminal, "{label}: terminal record not last");
    }
}

/// Commit, abort and containment end through the same sequence: release
/// (write intents, escrow reservations, locks) → node marks → registry
/// and waits-for graph → the terminal event, last and once.
#[test]
fn every_ending_releases_before_its_one_terminal_event() {
    let f = escrow_fixture(false);
    f.engine.execute(&f.ship_and_pay("commits", Ok(()))).unwrap();
    f.assert_ended_once("commits", JournalKind::TopCommit, 0);

    let boom = SemccError::Aborted("changed my mind".into());
    let err = f.engine.execute(&f.ship_and_pay("aborts", Err(boom.clone()))).unwrap_err();
    assert_eq!(err, boom);
    f.assert_ended_once("aborts", JournalKind::TopAbort, 0);

    let f = escrow_fixture(true);
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        f.engine.execute(&f.ship_and_pay("contained", Err(boom)))
    }));
    assert!(unwound.is_err(), "the abort path must unwind out of execute");
    f.assert_ended_once("contained", JournalKind::TopAbort, 1);
}

/// Hard containment — the abort path itself unwinds — still ends the
/// transaction: nothing it held survives it.
#[test]
fn hard_containment_leaves_nothing_behind() {
    let f = escrow_fixture(true);
    let item = f.db.items[0].clone();
    let doomed = f.ship_and_pay("doomed", Err(SemccError::Aborted("then the sink panics".into())));
    let unwound = catch_unwind(AssertUnwindSafe(|| f.engine.execute(&doomed)));
    assert!(unwound.is_err(), "the abort path must unwind out of execute");

    let last = f.sink.events.events().pop().expect("events recorded");
    match &last.ev {
        Event::TopAbort { reason, .. } if reason.contains("hard containment") => {}
        other => panic!("a terminal TopAbort must be the last event, got {other:?}"),
    }
    Residue::of(&f.engine).check().unwrap();

    // No compensation ran, so the store keeps the doomed transaction's
    // escrow increment; its reservation must be gone all the same. With the
    // reservation leaked the worst case of `PaidTotal` would be 0 forever
    // and this bounded decrement of the whole balance refused.
    let paid = f.db.store.get(item.paid_total).unwrap().as_int().unwrap();
    assert!(paid > 0, "the uncompensated increment is in the store");
    let drain = FnProgram::new("drain", move |ctx: &mut dyn MethodContext| {
        ctx.escrow_add(item.paid_total, -paid, Some(0))?;
        Ok(Value::Unit)
    });
    f.engine.execute(&drain).expect("no stale reservation depresses the worst case");

    // Write intents released: a reader of the same objects validates.
    let reader = FnProgram::read_only("reader", move |ctx: &mut dyn MethodContext| {
        ctx.call(item.item, "TotalPayment", vec![])
    });
    assert!(f.engine.execute(&reader).unwrap().snapshot, "snapshot validation must pass");

    // Locks released: a conflicting transaction is granted without waiting.
    f.engine.execute(&f.ship_and_pay("next", Ok(()))).unwrap();
    let next = top_of_label(&f.sink.events, "next", 0).unwrap();
    assert!(!ever_blocked(&f.sink.events, next), "nothing left to wait for");
    Residue::of(&f.engine).check().unwrap();
}

/// A sub-millisecond lock-wait timeout is a timeout, not "disabled": the
/// builder used to round it to whole milliseconds, and 0 ms meant off.
#[test]
fn sub_millisecond_lock_wait_timeout_fires() {
    let waited = guarded("sub-ms timeout", || {
        let db =
            Database::build(&DbParams { n_items: 1, orders_per_item: 2, ..Default::default() })
                .unwrap();
        let engine =
            Engine::builder(Arc::clone(&db.store) as Arc<dyn Storage>, Arc::clone(&db.catalog))
                .lock_wait_timeout(Duration::from_micros(500))
                .build();
        let (hold, holding) = (Gate::new(), Gate::new());
        std::thread::scope(|s| {
            let _unstick = OpenOnDrop::new([Arc::clone(&hold), Arc::clone(&holding)]);
            let (item, order) = (db.items[0].item, db.items[0].orders[0].order);
            let (engine, hold, holding) = (&engine, &hold, &holding);
            let holder = s.spawn(move || {
                let p = FnProgram::new("holder", move |ctx: &mut dyn MethodContext| {
                    ctx.call(item, "ShipOrder", vec![Value::Id(order)])?;
                    holding.open();
                    hold.wait();
                    Ok(Value::Unit)
                });
                engine.execute(&p)
            });
            holding.wait();
            let waiter = FnProgram::new("waiter", |ctx: &mut dyn MethodContext| {
                ctx.call(item, "ShipOrder", vec![Value::Id(order)])
            });
            let waited = engine.execute(&waiter);
            hold.open();
            holder.join().unwrap().expect("the holder is unaffected");
            waited
        })
    });
    assert!(matches!(waited, Err(SemccError::LockTimeout)), "{waited:?}");
}
