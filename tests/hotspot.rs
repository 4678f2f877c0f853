//! Tier-1 hotspot-engine suite: speculative Case-2 grants with
//! abort-dependency tracking, cascade aborts flowing through the existing
//! compensation machinery, and the escrow order-entry variant under the
//! speculative protocol. Every scenario is watchdog-guarded — a stuck
//! dependency edge manifests as a hang, which must surface as a test
//! failure rather than a wedged CI job.

use semcc::core::{Engine, FnProgram, JournalKind, ProtocolConfig, TransactionProgram};
use semcc::objstore::MemoryStore;
use semcc::orderentry::{Database, DbParams, MixWeights, Workload, WorkloadConfig};
use semcc::semantics::{
    Catalog, CompatibilityMatrix, Invocation, MethodContext, MethodDef, MethodId, ObjectId,
    SemccError, Storage, TypeDef, TypeId, TypeKind, Value, TYPE_ATOMIC,
};
use semcc::sim::scenario::{guarded, Gate};
use semcc::sim::{
    build_engine, fault_mixes, run_chaos, run_workload, AuditParams, ProtocolKind, RunParams,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

const BUMP: MethodId = MethodId(0);
const READ: MethodId = MethodId(1);

/// A minimal hotspot fixture: type `Hot` with `Bump(x)` (read-modify-write
/// on the atom `x`) and `Read(x)`, declared commutative at the method
/// level — the Figure-9 Case-2 shape. `Bump` parks on `hold` after its
/// write (opening `entered` first) so the holder's subtransaction is
/// provably *active* when readers arrive; with `fail_after_hold` it then
/// aborts, turning every speculative grantee into a cascade victim.
struct HotFixture {
    engine: Arc<Engine>,
    hot: ObjectId,
    x: ObjectId,
    ty: TypeId,
    entered: Arc<Gate>,
    hold: Arc<Gate>,
}

fn hot_fixture(fail_after_hold: bool) -> HotFixture {
    let entered = Gate::new();
    let hold = Gate::new();
    let mut m = CompatibilityMatrix::new();
    m.ok(BUMP, READ);
    m.ok(READ, READ);

    let bump_gates = (Arc::clone(&entered), Arc::clone(&hold));
    let bump = move |ctx: &mut dyn MethodContext, inv: &Invocation| {
        let x = inv.arg_id(0)?;
        let cur = ctx.get(x)?.as_int().unwrap_or(0);
        ctx.put(x, Value::Int(cur + 1))?;
        bump_gates.0.open();
        bump_gates.1.wait();
        if fail_after_hold {
            Err(SemccError::Aborted("injected holder abort".into()))
        } else {
            Ok(Value::Unit)
        }
    };
    let read = |ctx: &mut dyn MethodContext, inv: &Invocation| {
        let x = inv.arg_id(0)?;
        ctx.get(x)
    };

    let mut catalog = Catalog::new();
    let ty = catalog.register_type(TypeDef {
        name: "Hot".into(),
        kind: TypeKind::Encapsulated,
        methods: vec![
            MethodDef {
                name: "Bump".into(),
                body: Some(Arc::new(bump)),
                compensation: None,
                updates: true,
            },
            MethodDef {
                name: "Read".into(),
                body: Some(Arc::new(read)),
                compensation: None,
                updates: false,
            },
        ],
        spec: Arc::new(m),
    });
    let store = Arc::new(MemoryStore::new());
    let x = store.create_atomic(TYPE_ATOMIC, Value::Int(0)).unwrap();
    let hot = store.create_atomic(ty, Value::Unit).unwrap();
    let engine = Engine::builder(store as Arc<dyn Storage>, Arc::new(catalog))
        .protocol(ProtocolConfig::semantic().with_speculation(true))
        .journal_capacity(512)
        .build();
    HotFixture { engine, hot, x, ty, entered, hold }
}

impl HotFixture {
    fn bump_prog(&self) -> impl TransactionProgram {
        let (hot, ty, x) = (self.hot, self.ty, self.x);
        FnProgram::new("bump", move |ctx: &mut dyn MethodContext| {
            ctx.invoke(Invocation::user(hot, ty, BUMP, vec![Value::Id(x)]))
        })
    }

    fn read_prog(&self) -> impl TransactionProgram {
        let (hot, ty, x) = (self.hot, self.ty, self.x);
        FnProgram::new("read", move |ctx: &mut dyn MethodContext| {
            ctx.invoke(Invocation::user(hot, ty, READ, vec![Value::Id(x)]))
        })
    }

    fn journal_kinds(&self) -> Vec<JournalKind> {
        self.engine.journal().expect("journal on").snapshot().iter().map(|r| r.kind).collect()
    }

    fn assert_zero_residue(&self) {
        assert_eq!(self.engine.live_transactions(), 0, "live transactions leaked");
        assert_eq!(self.engine.lock_entries(), 0, "lock entries leaked");
        assert_eq!(self.engine.wfg_residue(), (0, 0, 0, 0), "waits-for residue");
        assert_eq!(self.engine.speculation_edges(), 0, "dependency edges leaked");
    }
}

/// The cascade chain: two readers are granted speculatively against an
/// active (uncommitted) `Bump` subtransaction; the holder aborts; both
/// dependents cascade-abort with full cleanup, and a plain retry of either
/// succeeds against the compensated state.
#[test]
fn speculative_grants_cascade_when_the_holder_aborts() {
    guarded("cascade", || {
        let f = hot_fixture(true);
        let engine = Arc::clone(&f.engine);
        let holder = {
            let engine = Arc::clone(&f.engine);
            let prog = f.bump_prog();
            std::thread::spawn(move || engine.execute(&prog).map(|o| o.value))
        };
        f.entered.wait(); // Bump wrote x and is parked: subtransaction active.

        let mut readers = Vec::new();
        for _ in 0..2 {
            let engine = Arc::clone(&f.engine);
            let prog = f.read_prog();
            readers.push(std::thread::spawn(move || engine.execute(&prog).map(|o| o.value)));
        }
        wait_until("both readers to be granted speculatively", || {
            engine.stats().speculative_grants >= 2
        });
        assert!(engine.stats().dependency_edges >= 1, "edges recorded");

        f.hold.open(); // Holder's method body now fails: cascade.
        let holder_err = holder.join().unwrap().unwrap_err();
        assert!(matches!(holder_err, SemccError::Aborted(_)), "got {holder_err:?}");
        for r in readers {
            let err = r.join().unwrap().unwrap_err();
            assert!(matches!(err, SemccError::CascadeAborted(_)), "got {err:?}");
            assert!(err.is_retryable(), "cascade victims retry");
        }

        let stats = engine.stats();
        assert_eq!(stats.cascade_aborts, 2, "both dependents cascaded: {stats:?}");
        assert!(stats.speculative_grants >= 2);
        let kinds = f.journal_kinds();
        assert!(kinds.contains(&JournalKind::SpeculativeGrant), "journaled grant: {kinds:?}");
        assert!(kinds.contains(&JournalKind::CascadeAbort), "journaled cascade: {kinds:?}");

        // The compensated state is clean, and a retry sees it.
        let out = engine.execute(&f.read_prog()).unwrap();
        assert_eq!(out.value, Value::Int(0), "holder's write compensated away");
        f.assert_zero_residue();
    });
}

/// The happy path: the holder commits, so the speculative grant resolves
/// into an ordinary Case-1-style outcome — the reader observed the
/// holder's effect and both commit, no cascade.
#[test]
fn speculative_grant_commits_cleanly_when_the_holder_commits() {
    guarded("holder-commits", || {
        let f = hot_fixture(false);
        let engine = Arc::clone(&f.engine);
        let holder = {
            let engine = Arc::clone(&f.engine);
            let prog = f.bump_prog();
            std::thread::spawn(move || engine.execute(&prog).map(|o| o.value))
        };
        f.entered.wait();

        let reader = {
            let engine = Arc::clone(&f.engine);
            let prog = f.read_prog();
            std::thread::spawn(move || engine.execute(&prog).map(|o| o.value))
        };
        wait_until("reader granted speculatively", || engine.stats().speculative_grants >= 1);

        f.hold.open();
        assert_eq!(holder.join().unwrap().unwrap(), Value::Unit);
        assert_eq!(reader.join().unwrap().unwrap(), Value::Int(1), "saw the committed bump");

        let stats = engine.stats();
        assert_eq!(stats.cascade_aborts, 0, "no cascade on holder commit: {stats:?}");
        f.assert_zero_residue();
    });
}

/// A cascade victim driven through [`Engine::execute_with_retry`] commits
/// on a later attempt without manual intervention — the error is wired
/// into the ordinary retry loop like a deadlock victim.
#[test]
fn cascade_victims_recover_via_the_retry_loop() {
    guarded("retry", || {
        let f = hot_fixture(true);
        let engine = Arc::clone(&f.engine);
        let holder = {
            let engine = Arc::clone(&f.engine);
            let prog = f.bump_prog();
            std::thread::spawn(move || engine.execute(&prog).map(|o| o.value))
        };
        f.entered.wait();

        let reader = {
            let engine = Arc::clone(&f.engine);
            let prog = f.read_prog();
            std::thread::spawn(move || engine.execute_with_retry(&prog, 10))
        };
        wait_until("reader granted speculatively", || engine.stats().speculative_grants >= 1);
        f.hold.open();
        let _ = holder.join().unwrap().unwrap_err();

        let (result, retries) = reader.join().unwrap();
        assert_eq!(result.unwrap().value, Value::Int(0), "retry reads compensated state");
        assert!(retries >= 1, "at least one cascade-induced retry");
        assert_eq!(engine.stats().cascade_aborts, 1);
        f.assert_zero_residue();
    });
}

/// The escrow hot-counter cell end to end under the speculative protocol:
/// a pay/ship/total mix over two hot items must leave the maintained
/// `PaidTotal` counters exactly equal to the scan oracle, with zero
/// residue — escrow grants and (possibly) cascades included.
#[test]
fn escrow_hot_cell_is_exact_under_the_speculative_protocol() {
    guarded("escrow-cell", || {
        let db = Database::build(&DbParams {
            n_items: 2,
            orders_per_item: 8,
            escrow: true,
            ..Default::default()
        })
        .unwrap();
        let engine = build_engine(ProtocolKind::SemanticSpeculative, &db, None);
        let mut w = Workload::new(
            &db,
            WorkloadConfig {
                seed: 9,
                zipf_theta: 1.2,
                mix: MixWeights {
                    t0_new: 0,
                    t1_ship: 2,
                    t2_pay: 3,
                    t3_check_shipped: 0,
                    t4_check_paid: 0,
                    t5_total: 2,
                },
                ..Default::default()
            },
        );
        let batch = w.batch(&db, 120);
        let out = run_workload(&engine, batch, &RunParams { workers: 8, ..Default::default() });
        assert_eq!(out.metrics.failed, 0, "{:?}", out.metrics);

        for (idx, item) in db.items.iter().enumerate() {
            let counter = db.store.get(item.paid_total).unwrap().as_int().unwrap();
            assert_eq!(
                counter,
                db.oracle_total_payment(idx).unwrap(),
                "item {idx}: counter vs scan oracle"
            );
        }
        let stats = engine.stats();
        assert!(stats.escrow_grants > 0, "escrow ops exercised: {stats:?}");
        assert_eq!(engine.live_transactions(), 0);
        assert_eq!(engine.lock_entries(), 0);
        assert_eq!(engine.wfg_residue(), (0, 0, 0, 0));
        assert_eq!(engine.speculation_edges(), 0);
    });
}

/// The hot-counter mix (pays and totals on two hot items) with the fast
/// paths off: on the stock schema the ledger records no escrow grant, on
/// the escrow schema every payment is one, and under the plain semantic
/// protocol neither run grants speculatively. Every transaction commits.
#[test]
fn escrow_and_speculation_leave_no_trace_where_they_are_off() {
    guarded("fast-paths-off", || {
        for escrow in [false, true] {
            let db = Database::build(&DbParams {
                n_items: 2,
                orders_per_item: 8,
                escrow,
                ..Default::default()
            })
            .unwrap();
            let engine = build_engine(ProtocolKind::Semantic, &db, None);
            let mix = MixWeights {
                t0_new: 0,
                t1_ship: 0,
                t2_pay: 3,
                t3_check_shipped: 0,
                t4_check_paid: 0,
                t5_total: 2,
            };
            let wl = WorkloadConfig { seed: 9, zipf_theta: 1.2, mix, ..Default::default() };
            let batch = Workload::new(&db, wl).batch(&db, 120);
            let out = run_workload(&engine, batch, &RunParams { workers: 8, ..Default::default() });
            assert_eq!(out.metrics.failed, 0, "escrow={escrow}: {:?}", out.metrics);
            let stats = out.metrics.stats;
            assert_eq!(stats.escrow_grants > 0, escrow, "escrow={escrow}: {stats:?}");
            assert_eq!(stats.speculative_grants, 0, "escrow={escrow}: {stats:?}");
        }
    });
}

/// The chaos audit of the containment suite, re-run with speculation
/// enabled: injected storage faults, body panics and compensation faults
/// seed holder aborts under live dependency edges, so cascade chains run
/// through the wreckage — every run must still terminate, clean up
/// completely, and leave a serializable committed history.
#[test]
fn chaos_with_speculation_stays_contained() {
    for (mix, spec) in fault_mixes() {
        for seed in 1..=4 {
            let label = format!("speculative/{mix}/seed{seed}");
            let params = AuditParams {
                seed,
                txns: 40,
                faults: spec,
                protocol: ProtocolKind::SemanticSpeculative,
                ..Default::default()
            };
            let report = guarded(&label, move || run_chaos(&params));
            assert_eq!(
                report.committed + report.failed,
                40,
                "{label}: every transaction must resolve: {report:?}"
            );
            assert!(report.contained(), "{label}: residue or cycle: {report:?}");
        }
    }
}
