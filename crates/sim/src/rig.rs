//! The audit rig: the one way an engine under audit is built, run,
//! recovered and checked.
//!
//! Every harness of [`crate::chaos`] and [`crate::saturate`] is this rig
//! plus a fault plan plus a list of [`crate::validate`] oracles: database
//! → seeded [`FaultPlan`] → optional [`WalWriter`] driven by the plan →
//! [`FaultyStorage`] → engine through [`ProtocolKind::builder`] → seeded
//! batch → [`run_workload`]; and, for the audits of the log, the way
//! back — a recovery pass onto a fresh copy of the initial state and the
//! committed-prefix audit of whatever state survived.

use crate::executor::{run_workload, CommittedTxn, RunOutcome, RunParams};
use crate::protocols::ProtocolKind;
use crate::validate::{canonical_state, check_acked_durable, check_committed_prefix, winner_specs};
use semcc_core::{
    read_image, recover_image, silence_injected_panics, Engine, EngineBuilder, FaultPlan,
    FaultSpec, FaultyStorage, FsyncPolicy, LogImage, ProtocolConfig, RecoveryReport, WalConfig,
    WalRecord, WalWriter,
};
use semcc_orderentry::{Database, DbParams, MixWeights, TxnSpec, Workload, WorkloadConfig};
use semcc_semantics::Storage;
use std::sync::Arc;
use std::time::Duration;

/// Lock-wait timeout backstop: tight, so injected failures cannot stall a
/// run even if containment were broken.
const LOCK_WAIT_TIMEOUT: Duration = Duration::from_secs(2);
/// Retries per transaction (deadlock / lock-timeout only).
const MAX_RETRIES: u32 = 50;
/// Database scale of every single-engine audit.
const N_ITEMS: usize = 4;
const ORDERS_PER_ITEM: usize = 4;

/// A fresh build of the (deterministic) initial state every single-engine
/// audit starts from.
fn initial_db() -> Database {
    let params =
        DbParams { n_items: N_ITEMS, orders_per_item: ORDERS_PER_ITEM, ..Default::default() };
    Database::build(&params).expect("database build")
}

/// One single-engine audit run. Every harness reads `seed`, `txns`,
/// `workers` and `faults`; the rest is read by the harnesses named.
#[derive(Clone, Debug)]
pub struct AuditParams {
    /// Seed for both the fault schedule and the workload generator.
    pub seed: u64,
    /// Transactions in the batch.
    pub txns: usize,
    /// Worker threads.
    pub workers: usize,
    /// Fault probabilities, and the
    /// [`IoFaultPoint`](semcc_core::IoFaultPoint) of the log device. The
    /// cut audit arms body panics so that aborts compensate, and its
    /// cuts fall inside their compensation runs.
    pub faults: FaultSpec,
    /// Protocol under test ([`run_chaos`](crate::run_chaos); recovery
    /// itself always runs the semantic protocol).
    pub protocol: ProtocolKind,
    /// The log's fsync cadence during the run.
    pub fsync: FsyncPolicy,
    /// Transaction mix.
    pub mix: MixWeights,
}

impl Default for AuditParams {
    fn default() -> Self {
        AuditParams {
            seed: 42,
            txns: 60,
            workers: 4,
            faults: FaultSpec::default(),
            protocol: ProtocolKind::Semantic,
            fsync: FsyncPolicy::EveryAppend,
            mix: MixWeights::paper_uniform(),
        }
    }
}

/// A staged run: everything an audit needs besides the engine itself.
pub(crate) struct Rig {
    /// The database the engine runs on.
    db: Database,
    /// The fault schedule shared by the store, the engine and the log.
    pub plan: Arc<FaultPlan>,
    wal: Option<Arc<WalWriter>>,
    /// The seeded batch.
    pub batch: Vec<TxnSpec>,
}

impl Rig {
    /// Stage a run, and hand back the builder that makes its engine (so a
    /// harness can still attach a history sink or override a knob).
    ///
    /// With `wal`, the engine logs under `params.fsync` to a writer of
    /// that configuration whose device the plan fails. With
    /// `engine_faults`, the store sits behind [`FaultyStorage`] and the
    /// engine consults the plan for body panics and compensation faults;
    /// the fsyncgate audits pass `false` — their plan only fails the log
    /// device, and on the bare store the snapshot read path stays on,
    /// which those audits must see.
    pub(crate) fn stage(
        params: &AuditParams,
        wal: Option<WalConfig>,
        engine_faults: bool,
    ) -> (Rig, EngineBuilder) {
        silence_injected_panics();
        let db = initial_db();
        let plan = FaultPlan::new(params.seed, params.faults);
        let wal = wal.map(|config| {
            WalWriter::with_config_and_faults(params.fsync, config, Arc::clone(&plan))
        });
        let mut builder = params.protocol.builder(&db).lock_wait_timeout(LOCK_WAIT_TIMEOUT);
        if engine_faults {
            let store = Arc::clone(&db.store) as Arc<dyn Storage>;
            builder = builder
                .storage(FaultyStorage::new(store, Arc::clone(&plan)))
                .fault_plan(Arc::clone(&plan));
        }
        if let Some(wal) = &wal {
            builder = builder.wal(Arc::clone(wal));
        }
        let config = WorkloadConfig { seed: params.seed, mix: params.mix, ..Default::default() };
        let batch = Workload::new(&db, config).batch(&db, params.txns);
        (Rig { db, plan, wal, batch }, builder)
    }

    /// The log of a rig staged with one.
    pub(crate) fn wal(&self) -> &Arc<WalWriter> {
        self.wal.as_ref().expect("this rig was staged without a log")
    }

    /// Run `batch` on `engine`, recording outcomes.
    pub(crate) fn run(
        &self,
        engine: &Arc<Engine>,
        batch: Vec<TxnSpec>,
        workers: usize,
    ) -> RunOutcome {
        let params = RunParams {
            workers,
            max_retries: MAX_RETRIES,
            record_outcomes: true,
            ..Default::default()
        };
        run_workload(engine, batch, &params)
    }

    /// One recovery pass over `image` onto a fresh copy of the
    /// deterministic initial state (whose [`Database`] is returned with
    /// the recovered engine), logging its progress to `progress` if given.
    pub(crate) fn recover(
        image: &LogImage,
        progress: Option<Arc<WalWriter>>,
    ) -> Result<(Database, Arc<Engine>, RecoveryReport), String> {
        let base = initial_db();
        let (engine, report) = recover_image(
            image,
            Arc::clone(&base.store),
            Arc::clone(&base.catalog),
            ProtocolConfig::semantic(),
            None,
            progress,
        )
        .map_err(|e| format!("recovery failed: {e}"))?;
        Ok((base, engine, report))
    }

    /// The committed-prefix audit: `got` equals the serial replay, on a
    /// fresh initial state, of `winners` — transaction ids in log commit
    /// order, resolved to specs through the recorded `outcomes`.
    pub(crate) fn check_prefix(
        winners: &[u64],
        outcomes: &[CommittedTxn],
        got: &dyn Storage,
    ) -> Result<(), String> {
        let fresh = initial_db();
        check_committed_prefix(&fresh, &winner_specs(winners, outcomes)?, got, |store| {
            canonical_state(store, fresh.items_set)
        })
    }

    /// The fsyncgate audit of a finished run, on the live store: an armed
    /// log fault fired, acknowledged = durable in both directions, and
    /// the live store equals the serial replay of exactly the durable
    /// winners in log order (commits that failed at their durability
    /// point were compensated).
    pub(crate) fn check_fsyncgate(&self, outcomes: &[CommittedTxn]) -> Result<(), String> {
        let wal = self.wal();
        if self.plan.io().is_some() && wal.poisoned().is_none() {
            return Err("the injected fsync fault never fired — nothing audited".into());
        }
        let image = read_image(&wal.surviving_image());
        let durable = winners(&image.map_err(|e| format!("log image unreadable: {e}"))?.records);
        check_acked_durable(outcomes, &durable)?;
        Self::check_prefix(&durable, outcomes, self.db.store.as_ref())
    }
}

/// Winners (`TopCommit` tops) of a run of log records, in commit order.
pub(crate) fn winners(records: &[WalRecord]) -> Vec<u64> {
    let commit = |r: &WalRecord| match r {
        WalRecord::TopCommit { top } => Some(*top),
        _ => None,
    };
    records.iter().filter_map(commit).collect()
}
