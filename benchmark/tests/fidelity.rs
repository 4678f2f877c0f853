//! The traced run must measure the same program as the timed run: the
//! wrappers forward everything, and the engine behaves the same behind
//! them.

use semcc_benchmark::reps::{self, RepSpec, Variant};
use semcc_benchmark::spans::{self, Name};
use semcc_benchmark::traced::TracedStorage;
use semcc_benchmark::workloads::Workload;
use semcc_semantics::{
    ObjectId, PageId, Result, Storage, StoreDump, TypeId, Value, TYPE_ATOMIC, TYPE_SET, TYPE_TUPLE,
};
use std::sync::{Arc, Mutex};

/// The span collector is process-wide: tests that record or drain spans
/// take turns.
static SPANS: Mutex<()> = Mutex::new(());

/// A store that answers every call with a value no trait default gives
/// and logs the method's name.
#[derive(Default)]
struct Witness(Mutex<Vec<&'static str>>);

impl Witness {
    fn saw(&self, name: &'static str) {
        self.0.lock().unwrap().push(name);
    }
}

impl Storage for Witness {
    fn get(&self, _: ObjectId) -> Result<Value> {
        self.saw("get");
        Ok(Value::Int(1))
    }
    fn put(&self, _: ObjectId, _: Value) -> Result<Value> {
        self.saw("put");
        Ok(Value::Int(2))
    }
    fn set_select(&self, _: ObjectId, _: u64) -> Result<Option<ObjectId>> {
        self.saw("set_select");
        Ok(Some(ObjectId(3)))
    }
    fn set_insert(&self, _: ObjectId, _: u64, _: ObjectId) -> Result<()> {
        self.saw("set_insert");
        Ok(())
    }
    fn set_remove(&self, _: ObjectId, _: u64) -> Result<Option<ObjectId>> {
        self.saw("set_remove");
        Ok(Some(ObjectId(5)))
    }
    fn set_scan(&self, _: ObjectId) -> Result<Vec<(u64, ObjectId)>> {
        self.saw("set_scan");
        Ok(vec![(6, ObjectId(6))])
    }
    fn field(&self, _: ObjectId, _: &str) -> Result<ObjectId> {
        self.saw("field");
        Ok(ObjectId(7))
    }
    fn type_of(&self, _: ObjectId) -> Result<TypeId> {
        self.saw("type_of");
        Ok(TypeId(8))
    }
    fn page_of(&self, _: ObjectId) -> Result<PageId> {
        self.saw("page_of");
        Ok(PageId(9))
    }
    fn create_atomic(&self, _: TypeId, _: Value) -> Result<ObjectId> {
        self.saw("create_atomic");
        Ok(ObjectId(10))
    }
    fn create_tuple(&self, _: TypeId, _: Vec<(String, ObjectId)>) -> Result<ObjectId> {
        self.saw("create_tuple");
        Ok(ObjectId(11))
    }
    fn create_set(&self, _: TypeId) -> Result<ObjectId> {
        self.saw("create_set");
        Ok(ObjectId(12))
    }
    fn delete(&self, _: ObjectId) -> Result<()> {
        self.saw("delete");
        Ok(())
    }
    fn supports_versioning(&self) -> bool {
        self.saw("supports_versioning");
        true
    }
    fn get_versioned(&self, _: ObjectId) -> Result<(Value, u64)> {
        self.saw("get_versioned");
        Ok((Value::Int(14), 14))
    }
    fn set_select_versioned(&self, _: ObjectId, _: u64) -> Result<(Option<ObjectId>, u64)> {
        self.saw("set_select_versioned");
        Ok((None, 15))
    }
    fn set_scan_versioned(&self, _: ObjectId) -> Result<(Vec<(u64, ObjectId)>, u64)> {
        self.saw("set_scan_versioned");
        Ok((Vec::new(), 16))
    }
    fn object_version(&self, _: ObjectId) -> Result<(u64, u32)> {
        self.saw("object_version");
        Ok((17, 0))
    }
    fn begin_object_write(&self, _: ObjectId) -> Result<()> {
        self.saw("begin_object_write");
        Ok(())
    }
    fn end_object_write(&self, _: ObjectId) {
        self.saw("end_object_write");
    }
    fn quiesce_token(&self) -> Option<u64> {
        self.saw("quiesce_token");
        Some(20)
    }
    fn checkpoint_dump(&self) -> Option<StoreDump> {
        self.saw("checkpoint_dump");
        Some(StoreDump { objects: Vec::new(), next_id: 21 })
    }
}

/// Every `Storage` method reaches the wrapped store — the optional ones
/// too, whose trait defaults would turn the snapshot path and checkpoints
/// off — and every operation leaves one `objstore.op` span.
#[test]
fn traced_storage_forwards_every_method() {
    let _turn = SPANS.lock().unwrap_or_else(|e| e.into_inner());
    let witness = Arc::new(Witness::default());
    let traced = TracedStorage(Arc::clone(&witness));
    let o = ObjectId(1);
    std::thread::scope(|s| {
        s.spawn(|| {
            spans::set_root(4_000_000_000, 0);
            assert_eq!(traced.get(o).unwrap(), Value::Int(1));
            assert_eq!(traced.put(o, Value::Unit).unwrap(), Value::Int(2));
            assert_eq!(traced.set_select(o, 0).unwrap(), Some(ObjectId(3)));
            traced.set_insert(o, 0, o).unwrap();
            assert_eq!(traced.set_remove(o, 0).unwrap(), Some(ObjectId(5)));
            assert_eq!(traced.set_scan(o).unwrap(), vec![(6, ObjectId(6))]);
            assert_eq!(traced.field(o, "f").unwrap(), ObjectId(7));
            assert_eq!(traced.type_of(o).unwrap(), TypeId(8));
            assert_eq!(traced.page_of(o).unwrap(), PageId(9));
            assert_eq!(traced.create_atomic(TYPE_ATOMIC, Value::Unit).unwrap(), ObjectId(10));
            assert_eq!(traced.create_tuple(TYPE_TUPLE, Vec::new()).unwrap(), ObjectId(11));
            assert_eq!(traced.create_set(TYPE_SET).unwrap(), ObjectId(12));
            traced.delete(o).unwrap();
            assert!(traced.supports_versioning());
            assert_eq!(traced.get_versioned(o).unwrap(), (Value::Int(14), 14));
            assert_eq!(traced.set_select_versioned(o, 0).unwrap(), (None, 15));
            assert_eq!(traced.set_scan_versioned(o).unwrap(), (Vec::new(), 16));
            assert_eq!(traced.object_version(o).unwrap(), (17, 0));
            traced.begin_object_write(o).unwrap();
            traced.end_object_write(o);
            assert_eq!(traced.quiesce_token(), Some(20));
            assert_eq!(traced.checkpoint_dump().unwrap().next_id, 21);
        })
        // Joining the handle (not just leaving the scope) waits for the
        // thread's thread-locals, and with them its spans, to be flushed.
        .join()
        .unwrap();
    });
    let expected = [
        "get",
        "put",
        "set_select",
        "set_insert",
        "set_remove",
        "set_scan",
        "field",
        "type_of",
        "page_of",
        "create_atomic",
        "create_tuple",
        "create_set",
        "delete",
        "supports_versioning",
        "get_versioned",
        "set_select_versioned",
        "set_scan_versioned",
        "object_version",
        "begin_object_write",
        "end_object_write",
        "quiesce_token",
        "checkpoint_dump",
    ];
    assert_eq!(*witness.0.lock().unwrap(), expected);
    let ops = spans::drain()
        .into_iter()
        .filter(|s| s.txn == 4_000_000_000 && s.name == Name::StoreOp)
        .count();
    // Everything but the capability flag is an operation.
    assert_eq!(ops, expected.len() - 1);
}

fn rep(workload: Workload, txns: usize, traced: bool) -> reps::RepOutcome {
    let out = reps::run(&RepSpec {
        workload,
        variant: Variant::Standard,
        seed: 7,
        txns,
        traced,
        deep_check: false,
    });
    assert_eq!(out.violation, None, "{} traced={traced}", workload.name());
    assert_eq!(out.failures, 0);
    out
}

/// Behind the wrappers the engine still takes the snapshot path for the
/// readers of `oe_read` and still checkpoints the `svc_durable` log.
#[test]
fn traced_reps_keep_the_snapshot_path_and_the_checkpoints() {
    let _turn = SPANS.lock().unwrap_or_else(|e| e.into_inner());
    let share = |o: &reps::RepOutcome| o.snapshot_commits as f64 / o.commits as f64;
    let untraced = rep(Workload::OeRead, 20_000, false);
    let traced = rep(Workload::OeRead, 20_000, true);
    assert!(share(&untraced) >= 0.9, "untraced snapshot share {}", share(&untraced));
    assert!(
        (share(&traced) - share(&untraced)).abs() <= 0.02,
        "snapshot share traced {} vs untraced {}",
        share(&traced),
        share(&untraced)
    );
    assert!(traced.spans.iter().any(|s| s.name == Name::StoreOp));
    assert!(untraced.spans.is_empty(), "an untraced rep records nothing");

    // ≈400 B of log per transaction: 14 k transactions pass the 4 MiB
    // checkpoint cadence once.
    let untraced = rep(Workload::SvcDurable, 14_000, false);
    let traced = rep(Workload::SvcDurable, 14_000, true);
    assert!(untraced.stats.checkpoints >= 1, "untraced rep took no checkpoint");
    assert!(traced.stats.checkpoints >= 1, "traced rep took no checkpoint");
    let queue_exec = traced.spans.iter().filter(|s| s.name == Name::ServiceQueueExec).count();
    assert_eq!(queue_exec, 14_000, "one service.queue_exec span per ticket");
    // Engine-side spans recorded on the service's core threads found
    // their transaction's queue_exec span as parent.
    let lock = traced.spans.iter().find(|s| s.name == Name::LockAcquire).expect("lock spans");
    assert_eq!(lock.parent, spans::queue_exec_id(lock.txn));
}

/// Every workload, both variants, with the oracles on: a small rep runs
/// clean, accounts for every transaction and is reproducible by seed.
#[test]
fn every_workload_passes_its_oracles_on_a_small_rep() {
    for workload in Workload::ALL {
        for variant in [Variant::Standard, Variant::Baseline] {
            let spec = RepSpec {
                workload,
                variant,
                seed: 3,
                txns: 1_500,
                traced: false,
                deep_check: true,
            };
            let a = reps::run(&spec);
            assert_eq!(a.violation, None, "{} {variant:?}", workload.name());
            assert_eq!(a.commits + a.failures, 1_500);
            assert_eq!(a.latencies_ns.len() as u64, a.commits);
            let b = reps::run(&spec);
            assert_eq!(a.batch_hash, b.batch_hash, "same seed, same batch");
        }
    }
}
