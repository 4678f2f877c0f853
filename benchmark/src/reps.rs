//! One rep of a workload: build fresh state, generate the batch, execute
//! the whole batch once in a closed loop, check the residue.
//!
//! Everything goes through public APIs of the program under test:
//! `Engine::builder` / `execute_with_retry`, `WalWriter`, `Service`,
//! `Coordinator`. No sleeps, timers or simulated delays sit in a measured
//! path (`op_delay = 0`, `net_delay = 0`); the only sleeps are the
//! program's own retry backoffs.

use crate::checks;
use crate::spans::{self, Name, Span};
use crate::traced::{Traced, TracedDiscipline, TracedStorage};
use crate::workloads::{batch_hash, Workload, CLIENT_THREADS, FLEET_SHARDS};
use semcc_baselines::FlatObject2pl;
use semcc_core::stats::StatsSnapshot;
use semcc_core::{
    Discipline, Engine, FsyncPolicy, ProtocolConfig, SemanticLockManager, TransactionProgram,
    TxnOutcome, WalConfig, WalWriter,
};
use semcc_dist::{CommitProtocol, Coordinator, FleetConfig};
use semcc_orderentry::{Database, TxnSpec};
use semcc_semantics::Storage;
use semcc_service::{Service, ServiceConfig, Ticket};
use semcc_sim::CommittedTxn;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Retry budget per transaction, as everywhere else in the repository.
pub const MAX_RETRIES: u32 = 1000;
/// Tickets the `svc_durable` generator keeps outstanding.
pub const SVC_WINDOW: usize = 16;
/// Automatic checkpoint cadence of the `svc_durable` log.
pub const SVC_CHECKPOINT_BYTES: usize = 4 << 20;

/// Which system runs the batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// The workload as defined.
    Standard,
    /// The workload's reference point, one rep in the traced run:
    /// `oe_hot`/`oe_read` under object 2PL, `svc_durable` on two plain
    /// threads without the service, `fleet_cross` under classic 2PC on
    /// low-level-2PL shards.
    Baseline,
}

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct RepSpec {
    pub workload: Workload,
    pub variant: Variant,
    pub seed: u64,
    pub txns: usize,
    /// Build the engine over the span-recording wrappers.
    pub traced: bool,
    /// Record outcomes and run the serial-replay / recovery oracles.
    pub deep_check: bool,
}

/// What one rep measured.
#[derive(Debug, Default)]
pub struct RepOutcome {
    /// Build database + construct engine/WAL/service/fleet + generate batch.
    pub setup_s: f64,
    /// `Database::build` alone (one replica).
    pub build_s: f64,
    /// Batch generation alone.
    pub gen_s: f64,
    /// Wall time of the execute phase.
    pub exec_s: f64,
    /// Process CPU time of the execute phase.
    pub cpu_s: f64,
    pub commits: u64,
    pub failures: u64,
    /// Commits on the lock-free snapshot path.
    pub snapshot_commits: u64,
    /// Whole-transaction retries the client saw.
    pub retries: u64,
    /// Client-observed latency of every committed transaction.
    pub latencies_ns: Vec<u32>,
    /// Engine (or fleet-wide) counter delta over the execute phase.
    pub stats: StatsSnapshot,
    /// Log footprint at the end of the rep (`svc_durable`).
    pub wal_retained_bytes: u64,
    /// `svc_durable`: time inside `submit`, per transaction.
    pub admit_ns: Vec<u32>,
    /// `svc_durable`: `submit` returned → ticket seen resolved.
    pub queue_exec_ns: Vec<u32>,
    /// `fleet_cross`, traced: latencies of single-shard transactions.
    pub single_shard_ns: Vec<u32>,
    /// `fleet_cross`, traced: latencies of cross-shard transactions.
    pub cross_shard_ns: Vec<u32>,
    /// `svc_durable`, deep check: recovering the surviving log image.
    pub recover_ms: f64,
    /// Spans of a traced rep, in start order.
    pub spans: Vec<Span>,
    /// Hash of the generated batch (seed discipline).
    pub batch_hash: u64,
    /// First violated correctness condition, if any.
    pub violation: Option<String>,
}

impl RepOutcome {
    pub fn txn_per_s(&self) -> f64 {
        self.commits as f64 / self.exec_s
    }
}

/// What the client loops hand back.
#[derive(Default)]
struct Driven {
    lat: Vec<u32>,
    commits: u64,
    failures: u64,
    snapshot_commits: u64,
    retries: u64,
    /// Deep check only.
    outcomes: Vec<CommittedTxn>,
    /// Fleet only: `(gtid, batch index)` of every acknowledged commit.
    acked: Vec<(u64, u32)>,
    single: Vec<u32>,
    cross: Vec<u32>,
}

impl Driven {
    fn with_capacity(n: usize) -> Driven {
        Driven { lat: Vec::with_capacity(n), ..Default::default() }
    }

    fn merge(parts: Vec<Driven>) -> Driven {
        let mut all = Driven::default();
        for p in parts {
            all.lat.extend(p.lat);
            all.commits += p.commits;
            all.failures += p.failures;
            all.snapshot_commits += p.snapshot_commits;
            all.retries += p.retries;
            all.outcomes.extend(p.outcomes);
            all.acked.extend(p.acked);
            all.single.extend(p.single);
            all.cross.extend(p.cross);
        }
        all
    }
}

fn as_u32_ns(ns: u128) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// Process CPU time (user + system, all threads) in seconds.
pub fn process_cpu_s() -> f64 {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `clock_gettime` writes one `struct timespec` (two
        // 64-bit fields on 64-bit Linux, matched by `Timespec`) through
        // the pointer, which is valid and exclusive for the call.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        if rc == 0 {
            return ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9;
        }
    }
    0.0
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Locking {
    Semantic,
    Object2pl,
}

/// Build an engine over `db` — bare, or over the span-recording wrappers.
fn engine_over(
    db: &Database,
    locking: Locking,
    wal: Option<Arc<WalWriter>>,
    traced: bool,
) -> Arc<Engine> {
    let storage: Arc<dyn Storage> = if traced {
        Arc::new(TracedStorage(Arc::clone(&db.store)))
    } else {
        Arc::clone(&db.store) as Arc<dyn Storage>
    };
    let mut builder = Engine::builder(storage, Arc::clone(&db.catalog));
    if let Some(wal) = wal {
        builder = builder.wal(wal);
    }
    builder
        .discipline(move |deps| {
            let inner: Arc<dyn Discipline> = match locking {
                Locking::Semantic => {
                    SemanticLockManager::new(ProtocolConfig::semantic(), deps.clone())
                }
                Locking::Object2pl => FlatObject2pl::new(deps),
            };
            if traced {
                Arc::new(TracedDiscipline(inner))
            } else {
                inner
            }
        })
        .build()
}

/// The `svc_durable` log: commit-time flush with group commit, automatic
/// fuzzy checkpoints every 4 MiB, default 64 KiB segments, in-memory
/// device (a dir-backed fsync moved ±20 % run to run on the reference box).
pub fn svc_wal() -> Arc<WalWriter> {
    WalWriter::with_config(
        FsyncPolicy::OnCommit,
        WalConfig { checkpoint_bytes: Some(SVC_CHECKPOINT_BYTES), ..Default::default() },
    )
}

/// The closed loop: `CLIENT_THREADS` threads pull batch indexes from one
/// shared cursor; `each` runs one transaction to its end and books it.
fn closed_loop(batch: &[TxnSpec], each: impl Fn(usize, &TxnSpec, &mut Driven) + Sync) -> Driven {
    let cursor = AtomicUsize::new(0);
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|_| {
                s.spawn(|| {
                    let mut d = Driven::with_capacity(batch.len());
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = batch.get(idx) else { break };
                        each(idx, spec, &mut d);
                    }
                    d
                })
            })
            .collect();
        // Joining the handles also waits for the threads' spans.
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    Driven::merge(parts)
}

fn committed(input_idx: usize, spec: &TxnSpec, out: TxnOutcome) -> CommittedTxn {
    CommittedTxn {
        input_idx,
        spec: spec.clone(),
        top: out.top,
        value: out.value,
        snapshot: out.snapshot,
        commit_seq: out.commit_seq,
    }
}

/// Closed loop over an engine, each transaction through
/// `execute_with_retry`.
fn drive_engine(engine: &Engine, batch: &[TxnSpec], traced: bool, record: bool) -> Driven {
    closed_loop(batch, |idx, spec, d| {
        let t = Instant::now();
        let (res, retries) = if traced {
            let txn = idx as u32;
            let _span = spans::open_client_txn(txn);
            let root_parent = spans::client_txn_id(txn);
            engine.execute_with_retry(&Traced { program: spec, txn, root_parent }, MAX_RETRIES)
        } else {
            engine.execute_with_retry(spec, MAX_RETRIES)
        };
        let ns = as_u32_ns(t.elapsed().as_nanos());
        d.retries += u64::from(retries);
        match res {
            Ok(out) => {
                d.lat.push(ns);
                d.commits += 1;
                d.snapshot_commits += u64::from(out.snapshot);
                if record {
                    d.outcomes.push(committed(idx, spec, out));
                }
            }
            Err(_) => d.failures += 1,
        }
    })
}

/// One generator thread (this one) keeps `SVC_WINDOW` tickets outstanding
/// and consumes them in submission order, like a pipelined connection.
/// Latency is submit → the generator sees the ticket resolved.
fn drive_service(
    svc: &Service,
    batch: &[TxnSpec],
    programs: Vec<Arc<dyn TransactionProgram>>,
    traced: bool,
    record: bool,
    out: &mut RepOutcome,
) -> Result<Driven, String> {
    struct InFlight {
        idx: usize,
        submit_ns: u64,
        admitted_ns: u64,
        ticket: Ticket,
    }
    let n = programs.len();
    let mut d = Driven::with_capacity(n);
    out.admit_ns = Vec::with_capacity(n);
    out.queue_exec_ns = Vec::with_capacity(n);
    let mut window: VecDeque<InFlight> = VecDeque::with_capacity(SVC_WINDOW);
    let mut resolved = 0usize;
    let mut settle = |f: InFlight, d: &mut Driven, out: &mut RepOutcome| -> Result<(), String> {
        let (res, retries) = f.ticket.wait();
        let done_ns = spans::now_ns();
        if f.ticket.try_take().is_some() {
            return Err(format!("ticket {} resolved twice", f.idx));
        }
        resolved += 1;
        d.retries += u64::from(retries);
        if traced {
            let txn = f.idx as u32;
            let root = spans::client_txn_id(txn);
            for (name, id, parent, start_ns, end_ns) in [
                (Name::ClientTxn, root, 0, f.submit_ns, done_ns),
                (Name::ServiceQueueExec, spans::queue_exec_id(txn), root, f.admitted_ns, done_ns),
            ] {
                spans::record(Span { name, txn, id, parent, start_ns, end_ns });
            }
        }
        match res {
            Ok(o) => {
                d.lat.push(as_u32_ns(u128::from(done_ns - f.submit_ns)));
                out.admit_ns.push(as_u32_ns(u128::from(f.admitted_ns - f.submit_ns)));
                out.queue_exec_ns.push(as_u32_ns(u128::from(done_ns - f.admitted_ns)));
                d.commits += 1;
                d.snapshot_commits += u64::from(o.snapshot);
                if record {
                    d.outcomes.push(committed(f.idx, &batch[f.idx], o));
                }
            }
            Err(_) => d.failures += 1,
        }
        Ok(())
    };
    for (idx, program) in programs.into_iter().enumerate() {
        if window.len() == SVC_WINDOW {
            let oldest = window.pop_front().expect("window is full");
            settle(oldest, &mut d, out)?;
        }
        let submit_ns = spans::now_ns();
        let ticket = if traced {
            let txn = idx as u32;
            spans::set_root(txn, spans::client_txn_id(txn));
            let _span = spans::open(Name::ServiceAdmit);
            svc.submit(program)
        } else {
            svc.submit(program)
        };
        window.push_back(InFlight { idx, submit_ns, admitted_ns: spans::now_ns(), ticket });
    }
    while let Some(f) = window.pop_front() {
        settle(f, &mut d, out)?;
    }
    if resolved != n {
        return Err(format!("{resolved} of {n} tickets resolved"));
    }
    Ok(d)
}

/// Closed loop over the fleet, each transaction through
/// `submit_with_retry`.
fn drive_fleet(
    coord: &Coordinator,
    batch: &[TxnSpec],
    protocol: CommitProtocol,
    traced: bool,
) -> Driven {
    closed_loop(batch, |idx, spec, d| {
        let t = Instant::now();
        let mut is_cross = false;
        let (gtid, res, retries) = if traced {
            let txn = idx as u32;
            let _span = spans::open_client_txn(txn);
            {
                let _split = spans::open(Name::DistSplit);
                is_cross = coord.partition().split(spec).len() > 1;
            }
            let _submit = spans::open(Name::DistSubmit);
            coord.submit_with_retry(spec, protocol, MAX_RETRIES)
        } else {
            coord.submit_with_retry(spec, protocol, MAX_RETRIES)
        };
        let ns = as_u32_ns(t.elapsed().as_nanos());
        d.retries += u64::from(retries);
        match res {
            Ok(_) => {
                d.lat.push(ns);
                d.commits += 1;
                d.acked.push((gtid, idx as u32));
                if traced {
                    if is_cross { &mut d.cross } else { &mut d.single }.push(ns);
                }
            }
            Err(_) => d.failures += 1,
        }
    })
}

/// Run one rep.
pub fn run(spec: &RepSpec) -> RepOutcome {
    let mut out = RepOutcome::default();
    let result = match spec.workload {
        Workload::OeHot | Workload::OeRead => run_engine(spec, &mut out),
        Workload::SvcDurable => run_service(spec, &mut out),
        Workload::FleetCross => run_fleet(spec, &mut out),
    };
    if spec.traced {
        out.spans = spans::drain();
    }
    let driven = match result {
        Ok(d) => d,
        Err(violation) => {
            out.violation = Some(violation);
            return out;
        }
    };
    if driven.commits + driven.failures != spec.txns as u64 {
        out.violation = Some(format!(
            "{} commits + {} failures != {} submitted",
            driven.commits, driven.failures, spec.txns
        ));
    }
    out.commits = driven.commits;
    out.failures = driven.failures;
    out.snapshot_commits = driven.snapshot_commits;
    out.retries = driven.retries;
    out.latencies_ns = driven.lat;
    out.single_shard_ns = driven.single;
    out.cross_shard_ns = driven.cross;
    out
}

/// Time `Database::build` and batch generation; everything else a
/// workload constructs is timed by the caller around this.
fn build_and_generate(spec: &RepSpec, out: &mut RepOutcome) -> (Database, Vec<TxnSpec>) {
    let t = Instant::now();
    let db = Database::build(&spec.workload.db_params()).expect("database build");
    out.build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let batch = spec.workload.batch(&db, spec.seed, spec.txns);
    out.gen_s = t.elapsed().as_secs_f64();
    (db, batch)
}

fn run_engine(spec: &RepSpec, out: &mut RepOutcome) -> Result<Driven, String> {
    let t_setup = Instant::now();
    let locking = match spec.variant {
        Variant::Standard => Locking::Semantic,
        Variant::Baseline => Locking::Object2pl,
    };
    let (db, batch) = build_and_generate(spec, out);
    let engine = engine_over(&db, locking, None, spec.traced);
    out.setup_s = t_setup.elapsed().as_secs_f64();
    out.batch_hash = batch_hash(&batch);
    let initial = spec.deep_check.then(|| db.store.snapshot());

    let before = engine.stats();
    let cpu = process_cpu_s();
    let t = Instant::now();
    let driven = drive_engine(&engine, &batch, spec.traced, spec.deep_check);
    out.exec_s = t.elapsed().as_secs_f64();
    out.cpu_s = process_cpu_s() - cpu;
    out.stats = engine.stats().delta(&before);

    checks::engine_residue(&engine)?;
    if let Some(initial) = initial {
        checks::serial_replay_oracle(&initial, &db, &driven.outcomes)?;
    }
    Ok(driven)
}

fn run_service(spec: &RepSpec, out: &mut RepOutcome) -> Result<Driven, String> {
    let t_setup = Instant::now();
    let (db, batch) = build_and_generate(spec, out);
    let wal = svc_wal();
    let engine = engine_over(&db, Locking::Semantic, Some(Arc::clone(&wal)), spec.traced);
    // The baseline variant drives the same engine and log directly.
    let (programs, svc) = match spec.variant {
        Variant::Baseline => (Vec::new(), None),
        Variant::Standard => {
            let programs = batch
                .iter()
                .enumerate()
                .map(|(idx, s)| -> Arc<dyn TransactionProgram> {
                    if spec.traced {
                        let txn = idx as u32;
                        let root_parent = spans::queue_exec_id(txn);
                        Arc::new(Traced { program: s.clone(), txn, root_parent })
                    } else {
                        Arc::new(s.clone())
                    }
                })
                .collect();
            let cfg = ServiceConfig {
                core_threads: CLIENT_THREADS,
                max_in_flight: 64,
                max_retries: MAX_RETRIES,
            };
            (programs, Some(Service::start(Arc::clone(&engine), cfg)))
        }
    };
    out.setup_s = t_setup.elapsed().as_secs_f64();
    out.batch_hash = batch_hash(&batch);
    let initial = spec.deep_check.then(|| db.store.snapshot());

    let before = engine.stats();
    let cpu = process_cpu_s();
    let t = Instant::now();
    let driven = match &svc {
        Some(svc) => drive_service(svc, &batch, programs, spec.traced, spec.deep_check, out),
        None => Ok(drive_engine(&engine, &batch, spec.traced, spec.deep_check)),
    };
    out.exec_s = t.elapsed().as_secs_f64();
    out.cpu_s = process_cpu_s() - cpu;
    out.stats = engine.stats().delta(&before);
    out.wal_retained_bytes = wal.retained_bytes() as u64;
    // Joins the core threads, which also flushes their spans.
    drop(svc);
    let driven = driven?;

    checks::engine_residue(&engine)?;
    if wal.poisoned().is_some() || wal.crashed() {
        return Err("the log device failed".into());
    }
    if let Some(initial) = initial {
        checks::serial_replay_oracle(&initial, &db, &driven.outcomes)?;
        out.recover_ms = checks::acked_is_durable(&wal, &db, spec.workload)?;
    }
    Ok(driven)
}

fn run_fleet(spec: &RepSpec, out: &mut RepOutcome) -> Result<Driven, String> {
    let t_setup = Instant::now();
    let two_phase = spec.variant == Variant::Baseline;
    let coord = Coordinator::new(FleetConfig {
        n_shards: FLEET_SHARDS,
        db_params: spec.workload.db_params(),
        low_level_2pl: two_phase,
        seed: spec.seed,
        ..Default::default()
    });
    // Every shard holds an identical replica: generate from shard 0's.
    let t = Instant::now();
    let batch = coord.shards()[0]
        .with_live(|_, db| spec.workload.batch(db, spec.seed, spec.txns))
        .expect("a fresh shard is live");
    out.gen_s = t.elapsed().as_secs_f64();
    out.setup_s = t_setup.elapsed().as_secs_f64();
    // The coordinator builds FLEET_SHARDS replicas plus one reference.
    out.build_s = (out.setup_s - out.gen_s) / (FLEET_SHARDS + 1) as f64;
    out.batch_hash = batch_hash(&batch);

    let protocol = if two_phase { CommitProtocol::TwoPhase } else { CommitProtocol::OpenNested };
    let before = coord.fleet_stats();
    let cpu = process_cpu_s();
    let t = Instant::now();
    let driven = drive_fleet(&coord, &batch, protocol, spec.traced);
    out.exec_s = t.elapsed().as_secs_f64();
    out.cpu_s = process_cpu_s() - cpu;
    out.stats = coord.fleet_stats().delta(&before);

    checks::fleet_residue(&coord, &driven.acked)?;
    if spec.deep_check {
        checks::fleet_serial_replay(&coord, &batch, &driven.acked, spec.workload)?;
    }
    Ok(driven)
}
