//! Deterministic fault injection into one engine (the chaos harness).
//!
//! A [`FaultPlan`] is a seeded random schedule of failures: each injection
//! site draws from one shared SplitMix64 stream, so a `(seed, workload)`
//! pair reproduces the exact same fault sequence on every run. Faults are
//! delivered four ways:
//!
//! * **storage faults** — a [`FaultyStorage`] decorator wraps the real
//!   [`Storage`] and makes data operations fail with
//!   [`SemccError::FaultInjected`]. Structural navigation (`field`,
//!   `type_of`, `page_of`) and `delete` always pass through: they are what
//!   the abort path itself relies on, and the harness wants to test
//!   *containment*, not make cleanup impossible;
//! * **method-body panics** — the engine asks
//!   [`FaultPlan::should_fire`] before running a user method body and
//!   raises a real [`InjectedPanic`] panic, exercising the `catch_unwind`
//!   containment exactly like a buggy method would;
//! * **compensation faults** — the engine fails a compensating invocation
//!   before it runs. The fault is treated as transient: the invocation is
//!   retried under the same bounded, seeded budget as contention aborts, so
//!   both in-process aborts *and* log-driven recovery exercise the retry
//!   and `CompensationFailed` surfacing paths (the original abort cause is
//!   preserved either way);
//! * **WAL I/O faults** — an [`IoFaultPoint`] fails a deterministic append
//!   or fsync of the [`WalWriter`](crate::wal::WalWriter) and poisons the
//!   log.
//!
//! Crashes are not injected here. Every image a crash of one node can
//! leave is a byte prefix of its log (a *cut*,
//! [`LogImage::cut`](crate::wal::LogImage::cut)), so the audits enumerate
//! the cuts of a finished run instead of killing the device mid-run; a
//! live writer dies one way only, [`WalWriter::power_fail`]. A fleet's
//! crash is a consistent cut of all its logs, which `sim::chaos` audits
//! the same way.
//!
//! None of this is compiled out in release builds — an engine without a
//! plan pays one `Option` check per site.
//!
//! [`WalWriter::power_fail`]: crate::wal::WalWriter::power_fail

use rand::{rngs::StdRng, Rng, SeedableRng};
use semcc_semantics::{ObjectId, PageId, Result, SemccError, Storage, TypeId, Value};
use std::panic::PanicHookInfo;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};

use parking_lot::Mutex;

/// Where a fault may be injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// A data operation of the [`Storage`] trait.
    Storage,
    /// A user method body (delivered as a panic).
    MethodBody,
    /// A compensating invocation (delivered as an error).
    Compensation,
}

/// A deterministic I/O failure of the write-ahead-log device — unlike a
/// crash the *process survives*: the write fails, the writer
/// reports a typed [`WalError`](crate::wal::WalError), and (for append and
/// fsync failures) the log is **poisoned** — no blind retry, fsyncgate
/// semantics: once a sync's outcome is unknowable the log never accepts
/// another byte. Nth-based and independent of the probabilistic stream, so
/// a spec reproduces exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFaultPoint {
    /// The `nth` append fails outright (EIO from `write`). Poisons.
    AppendError {
        /// 1-based append ordinal.
        nth: u64,
    },
    /// The `nth` append writes only `keep` bytes of its frame to the
    /// durable image before failing. Poisons (the tail is torn *and* the
    /// device is untrustworthy).
    ShortWrite {
        /// 1-based append ordinal.
        nth: u64,
        /// Bytes of the frame that reach the durable image.
        keep: usize,
    },
    /// The `nth` fsync fails: the buffer never reaches the durable image
    /// and the log is poisoned (a failed fsync leaves the durable state
    /// unknowable — retrying it would silently drop the lost window).
    FsyncError {
        /// 1-based fsync ordinal.
        nth: u64,
    },
    /// The `nth` appended frame is silently corrupted (bit flips in the
    /// payload) but the append *reports success* — latent corruption in
    /// the middle of the log, caught only by a verified read or a
    /// checkpoint's analysis pass. Does not poison.
    CorruptFrame {
        /// 1-based append ordinal.
        nth: u64,
    },
}

/// Per-site fault probabilities plus an optional total trigger budget.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultSpec {
    /// Probability that a storage data operation fails.
    pub storage_error: f64,
    /// Probability that a user method body panics before running.
    pub body_panic: f64,
    /// Probability that a compensating invocation fails before running.
    pub compensation_error: f64,
    /// Cap on the total number of injected faults (`None` = unlimited).
    pub max_triggers: Option<u64>,
    /// Deterministic WAL I/O failure (`None` = the device never errors).
    pub io: Option<IoFaultPoint>,
}

impl FaultSpec {
    /// Only storage faults.
    pub fn storage(p: f64) -> Self {
        FaultSpec { storage_error: p, ..Default::default() }
    }

    /// Only method-body panics.
    pub fn body_panic(p: f64) -> Self {
        FaultSpec { body_panic: p, ..Default::default() }
    }

    /// Limit the total number of injected faults.
    pub fn with_max_triggers(mut self, n: u64) -> Self {
        self.max_triggers = Some(n);
        self
    }

    /// Fail (without crashing) a deterministic WAL I/O operation.
    pub fn with_io(mut self, point: IoFaultPoint) -> Self {
        self.io = Some(point);
        self
    }
}

/// A seeded, shared fault schedule.
pub struct FaultPlan {
    spec: FaultSpec,
    rng: Mutex<StdRng>,
    triggered: AtomicU64,
}

impl FaultPlan {
    /// A plan drawing its fault sequence from `seed`.
    pub fn new(seed: u64, spec: FaultSpec) -> Arc<Self> {
        Arc::new(FaultPlan {
            spec,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            triggered: AtomicU64::new(0),
        })
    }

    /// Whether a fault fires at `site` now. Consumes one draw from the
    /// shared stream whenever the site is armed, so the schedule depends
    /// only on the order of armed-site visits.
    pub fn should_fire(&self, site: FaultSite) -> bool {
        let p = match site {
            FaultSite::Storage => self.spec.storage_error,
            FaultSite::MethodBody => self.spec.body_panic,
            FaultSite::Compensation => self.spec.compensation_error,
        };
        if p <= 0.0 {
            return false;
        }
        if let Some(max) = self.spec.max_triggers {
            if self.triggered.load(Ordering::Relaxed) >= max {
                return false;
            }
        }
        let hit = self.rng.lock().random::<f64>() < p;
        if hit {
            self.triggered.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Total faults injected so far.
    pub fn triggered(&self) -> u64 {
        self.triggered.load(Ordering::Relaxed)
    }

    /// The plan's WAL I/O-fault point, if any.
    pub fn io(&self) -> Option<IoFaultPoint> {
        self.spec.io
    }
}

/// Panic payload used for injected method-body panics, so the panic hook
/// can recognize (and silence) them while real panics keep their report.
pub struct InjectedPanic(pub &'static str);

/// Raise an injected panic.
pub fn injected_panic(site: &'static str) -> ! {
    std::panic::panic_any(InjectedPanic(site))
}

/// Install a panic hook that suppresses the default "thread panicked"
/// report for [`InjectedPanic`] payloads only. Idempotent and
/// process-global; chaos runs call this so thousands of *intentional*
/// panics do not drown the test output, while genuine panics still print.
pub fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info: &PanicHookInfo<'_>| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                default(info);
            }
        }));
    });
}

/// [`Storage`] decorator that injects faults into data operations.
///
/// Structural reads (`field`, `type_of`, `page_of`) and `delete` are never
/// faulted — the engine's own recovery path depends on them.
pub struct FaultyStorage {
    inner: Arc<dyn Storage>,
    plan: Arc<FaultPlan>,
}

impl FaultyStorage {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: Arc<dyn Storage>, plan: Arc<FaultPlan>) -> Arc<Self> {
        Arc::new(FaultyStorage { inner, plan })
    }

    /// The wrapped store (validators read ground truth through this).
    pub fn inner(&self) -> &Arc<dyn Storage> {
        &self.inner
    }

    fn check(&self, op: &'static str) -> Result<()> {
        if self.plan.should_fire(FaultSite::Storage) {
            Err(SemccError::FaultInjected(format!("storage/{op}")))
        } else {
            Ok(())
        }
    }
}

impl Storage for FaultyStorage {
    fn get(&self, o: ObjectId) -> Result<Value> {
        self.check("get")?;
        self.inner.get(o)
    }

    fn put(&self, o: ObjectId, v: Value) -> Result<Value> {
        self.check("put")?;
        self.inner.put(o, v)
    }

    fn set_select(&self, s: ObjectId, key: u64) -> Result<Option<ObjectId>> {
        self.check("select")?;
        self.inner.set_select(s, key)
    }

    fn set_insert(&self, s: ObjectId, key: u64, member: ObjectId) -> Result<()> {
        self.check("insert")?;
        self.inner.set_insert(s, key, member)
    }

    fn set_remove(&self, s: ObjectId, key: u64) -> Result<Option<ObjectId>> {
        self.check("remove")?;
        self.inner.set_remove(s, key)
    }

    fn set_scan(&self, s: ObjectId) -> Result<Vec<(u64, ObjectId)>> {
        self.check("scan")?;
        self.inner.set_scan(s)
    }

    fn field(&self, o: ObjectId, name: &str) -> Result<ObjectId> {
        self.inner.field(o, name)
    }

    fn type_of(&self, o: ObjectId) -> Result<TypeId> {
        self.inner.type_of(o)
    }

    fn page_of(&self, o: ObjectId) -> Result<PageId> {
        self.inner.page_of(o)
    }

    fn create_atomic(&self, type_id: TypeId, v: Value) -> Result<ObjectId> {
        self.check("create-atomic")?;
        self.inner.create_atomic(type_id, v)
    }

    fn create_tuple(&self, type_id: TypeId, fields: Vec<(String, ObjectId)>) -> Result<ObjectId> {
        self.check("create-tuple")?;
        self.inner.create_tuple(type_id, fields)
    }

    fn create_set(&self, type_id: TypeId) -> Result<ObjectId> {
        self.check("create-set")?;
        self.inner.create_set(type_id)
    }

    fn delete(&self, o: ObjectId) -> Result<()> {
        self.inner.delete(o)
    }

    fn checkpoint_dump(&self) -> Option<semcc_semantics::StoreDump> {
        // Checkpoints capture ground truth — never faulted, like `delete`:
        // the durability machinery itself is exercised by the dedicated
        // WAL fault points, not by the data-op chaos knobs.
        self.inner.checkpoint_dump()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcc_objstore::MemoryStore;
    use semcc_semantics::TYPE_ATOMIC;

    #[test]
    fn plan_is_deterministic_per_seed() {
        let spec = FaultSpec::storage(0.3);
        let a = FaultPlan::new(7, spec);
        let b = FaultPlan::new(7, spec);
        let c = FaultPlan::new(8, spec);
        let seq = |p: &FaultPlan| -> Vec<bool> {
            (0..64).map(|_| p.should_fire(FaultSite::Storage)).collect()
        };
        let sa = seq(&a);
        assert_eq!(sa, seq(&b), "same seed, same schedule");
        assert_ne!(sa, seq(&c), "different seed, different schedule");
        assert!(sa.iter().any(|&x| x) && sa.iter().any(|&x| !x));
        assert_eq!(a.triggered(), sa.iter().filter(|&&x| x).count() as u64);
    }

    #[test]
    fn disarmed_sites_draw_nothing() {
        let plan = FaultPlan::new(7, FaultSpec::storage(1.0));
        assert!(!plan.should_fire(FaultSite::MethodBody));
        assert!(!plan.should_fire(FaultSite::Compensation));
        assert_eq!(plan.triggered(), 0, "disarmed sites never trigger");
        assert!(plan.should_fire(FaultSite::Storage));
    }

    #[test]
    fn trigger_budget_caps_injection() {
        let plan = FaultPlan::new(1, FaultSpec::storage(1.0).with_max_triggers(3));
        let fired = (0..10).filter(|_| plan.should_fire(FaultSite::Storage)).count();
        assert_eq!(fired, 3);
        assert_eq!(plan.triggered(), 3);
    }

    #[test]
    fn faulty_storage_faults_data_ops_but_not_navigation() {
        let store = Arc::new(MemoryStore::new());
        let obj = store.create_atomic(TYPE_ATOMIC, Value::Int(5)).unwrap();
        let plan = FaultPlan::new(1, FaultSpec::storage(1.0));
        let faulty = FaultyStorage::new(store, plan);

        assert!(matches!(faulty.get(obj), Err(SemccError::FaultInjected(_))));
        assert!(faulty.type_of(obj).is_ok(), "navigation passes through");
        assert!(faulty.page_of(obj).is_ok());
        assert!(faulty.delete(obj).is_ok(), "GC path never faulted");
    }

    #[test]
    fn zero_probability_is_transparent() {
        let store = Arc::new(MemoryStore::new());
        let obj = store.create_atomic(TYPE_ATOMIC, Value::Int(5)).unwrap();
        let faulty = FaultyStorage::new(store, FaultPlan::new(1, FaultSpec::default()));
        assert_eq!(faulty.get(obj).unwrap(), Value::Int(5));
        assert_eq!(faulty.put(obj, Value::Int(6)).unwrap(), Value::Int(5));
    }
}
