//! Runs: the timed run that yields the end-to-end metrics, the separate
//! traced run that yields the per-layer metrics, and the A/A comparison
//! of two interleaved sets of timed runs.

use crate::metrics::{Better, Values, END_TO_END, PER_LAYER};
use crate::probes;
use crate::reps::{self, RepOutcome, RepSpec, Variant};
use crate::spans::{self, KindTotal, Name, Span};
use crate::stats::{iqr_share, median, median_u32, quantile_u32, quartiles};
use crate::workloads::Workload;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed used when the command line gives none.
pub const DEFAULT_SEED: u64 = 1993;
/// A run measures at least this many reps, whatever `--seconds` says.
pub const MIN_REPS: usize = 3;
/// Untraced reps of a traced run (the base of `trace.overhead_share`,
/// `client.rep_spread` and the other rep-derived numbers).
pub const TWIN_REPS: usize = 3;
/// A trace file holds the spans of this many transactions (the first of
/// the traced rep); the metrics use all of them.
pub const TRACE_FILE_TXNS: u32 = 2_000;
/// Seed distance between the runs of an A/A comparison (more than the
/// reps of one run, so no two runs share a batch).
const RUN_SEED_STRIDE: u64 = 64;

/// Transactions of the rep that records outcomes for the oracles.
/// `svc_durable` gets enough to log past its first automatic checkpoint,
/// so recovery starts from a checkpoint image plus a log tail.
fn checked_txns(w: Workload) -> usize {
    match w {
        Workload::SvcDurable => 20_000,
        _ => 5_000,
    }
}

/// A traced rep runs a quarter of the timed rep's batch, at most 50 k
/// transactions: every span (≈50 per order-entry transaction) is kept in
/// memory until the rep ends.
fn traced_txns(w: Workload) -> usize {
    (w.txns_per_rep() / 4).min(50_000)
}

/// The untraced reps of a traced run are half a timed rep: long enough
/// that their throughput is a steady base for the ratios built on it.
fn twin_txns(w: Workload) -> usize {
    w.txns_per_rep() / 2
}

fn standard(w: Workload, seed: u64, txns: usize) -> RepSpec {
    RepSpec {
        workload: w,
        variant: Variant::Standard,
        seed,
        txns,
        traced: false,
        deep_check: false,
    }
}

/// Attempted / failed accounting across the reps of one run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Tally {
    fn add(&mut self, what: &str, txns: usize, out: &RepOutcome) {
        self.attempted += txns as u64;
        match &out.violation {
            // A rep that fails its check counts every operation as failed.
            Some(v) => {
                self.failed += txns as u64;
                self.violations.push(format!("{what}: {v}"));
            }
            None => self.failed += out.failures,
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One measured rep, reduced to its numbers.
#[derive(Clone, Debug)]
pub struct RepRow {
    pub seed: u64,
    pub txn_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub setup_s: f64,
    pub exec_s: f64,
    pub cpu_us_per_txn: f64,
    pub commits: u64,
    pub failures: u64,
    pub retries: u64,
}

fn row(seed: u64, out: &mut RepOutcome) -> RepRow {
    let (p50, p99) = if out.latencies_ns.is_empty() {
        (0, 0)
    } else {
        (median_u32(&mut out.latencies_ns), quantile_u32(&mut out.latencies_ns, 0.99))
    };
    RepRow {
        seed,
        txn_per_s: out.txn_per_s(),
        p50_us: f64::from(p50) / 1e3,
        p99_us: f64::from(p99) / 1e3,
        setup_s: out.setup_s,
        exec_s: out.exec_s,
        cpu_us_per_txn: out.cpu_s * 1e6 / out.commits.max(1) as f64,
        commits: out.commits,
        failures: out.failures,
        retries: out.retries,
    }
}

/// The timed (untraced) run of one workload.
#[derive(Debug)]
pub struct TimedRun {
    pub workload: Workload,
    pub seed: u64,
    pub reps: Vec<RepRow>,
    pub tally: Tally,
    /// Hash of the warm-up rep's batch (the seed's fingerprint).
    pub batch_hash: u64,
}

impl TimedRun {
    fn over(&self, f: impl Fn(&RepRow) -> f64) -> Vec<f64> {
        self.reps.iter().map(f).collect()
    }

    /// Value of an end-to-end metric: the median over the measured reps.
    pub fn end_to_end(&self, name: &str) -> f64 {
        median(&match name {
            "txn_per_s" => self.over(|r| r.txn_per_s),
            "txn_p50_us" => self.over(|r| r.p50_us),
            "setup_s" => self.over(|r| r.setup_s),
            other => panic!("unknown end-to-end metric {other}"),
        })
    }

    pub fn p99_us(&self) -> f64 {
        median(&self.over(|r| r.p99_us))
    }

    /// IQR ÷ median of the reps' throughput: the run's own noise floor.
    pub fn rep_spread(&self) -> f64 {
        iqr_share(&self.over(|r| r.txn_per_s))
    }
}

/// Checked rep (oracles) → discarded warm-up rep → measured reps until
/// `seconds` of measuring are used up. Rep `i` uses `seed + i`.
pub fn timed_run(w: Workload, seed: u64, seconds: f64) -> TimedRun {
    let mut tally = Tally::default();
    let checked = RepSpec { deep_check: true, ..standard(w, seed, checked_txns(w)) };
    tally.add("checked rep", checked.txns, &reps::run(&checked));
    let txns = w.txns_per_rep();
    // Only the hash outlives the warm-up rep: its latency vectors are
    // freed before the first measured rep allocates its own.
    let batch_hash = {
        let warm_up = reps::run(&standard(w, seed, txns));
        tally.add("warm-up rep", txns, &warm_up);
        warm_up.batch_hash
    };

    let mut rows: Vec<RepRow> = Vec::new();
    let started = Instant::now();
    let mut longest_rep_s: f64 = 0.0;
    // Stop when the next rep would overrun the budget.
    while rows.len() < MIN_REPS || started.elapsed().as_secs_f64() + longest_rep_s <= seconds {
        let rep_seed = seed + 1 + rows.len() as u64;
        let t = Instant::now();
        let mut out = reps::run(&standard(w, rep_seed, txns));
        tally.add(&format!("rep {}", rows.len() + 1), txns, &out);
        rows.push(row(rep_seed, &mut out));
        longest_rep_s = longest_rep_s.max(t.elapsed().as_secs_f64());
    }
    TimedRun { workload: w, seed, reps: rows, tally, batch_hash }
}

/// The traced run of one workload.
#[derive(Debug)]
pub struct TracedRun {
    pub workload: Workload,
    pub seed: u64,
    /// Every per-layer metric (0 where the workload bypasses the layer).
    pub values: Values,
    pub tally: Tally,
    /// Count, total and self time per span kind of the traced rep.
    pub totals: HashMap<Name, KindTotal>,
    /// Committed transactions of the traced rep.
    pub traced_commits: u64,
    /// Where the trace file went, if it could be written.
    pub trace_file: Option<PathBuf>,
}

impl TracedRun {
    /// Self time of every span kind as a share of total `client.txn`
    /// time, in report order; the shares sum to 1 when every span nests
    /// inside a transaction.
    pub fn breakdown(&self) -> Vec<(Name, f64, f64)> {
        let root = self.totals.get(&Name::ClientTxn).map_or(0, |t| t.total_ns).max(1) as f64;
        let n = self.traced_commits.max(1) as f64;
        Name::ALL
            .into_iter()
            .filter_map(|name| {
                let t = self.totals.get(&name)?;
                Some((name, t.self_ns as f64 / n / 1e3, t.self_ns as f64 / root))
            })
            .collect()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn p50_us(ns: &mut [u32]) -> f64 {
    if ns.is_empty() {
        0.0
    } else {
        f64::from(median_u32(ns)) / 1e3
    }
}

/// Trace- and counter-sourced metrics of the traced rep.
fn layer_values(
    w: Workload,
    t: &mut RepOutcome,
    totals: &HashMap<Name, KindTotal>,
    v: &mut Values,
) {
    let n = t.commits.max(1);
    let kind = |name: Name| totals.get(&name).copied().unwrap_or_default();
    let us_per_txn = |ns: u64| ns as f64 / n as f64 / 1e3;
    v.insert("core.lock.acquire_us_per_txn", us_per_txn(kind(Name::LockAcquire).total_ns));
    v.insert("core.lock.wait_us_per_txn", us_per_txn(kind(Name::LockWait).total_ns));
    v.insert(
        "core.lock.release_us_per_txn",
        us_per_txn(kind(Name::LockComplete).total_ns + kind(Name::LockRelease).total_ns),
    );
    // Engine self time: the span that directly parents the engine-side
    // spans, minus what they cover. The fleet's engines are out of reach.
    let engine_parent = match w {
        Workload::OeHot | Workload::OeRead => Some(Name::ClientTxn),
        Workload::SvcDurable => Some(Name::ServiceQueueExec),
        Workload::FleetCross => None,
    };
    v.insert(
        "core.engine.self_us_per_txn",
        engine_parent.map_or(0.0, |p| us_per_txn(kind(p).self_ns)),
    );
    v.insert("objstore.busy_us_per_txn", us_per_txn(kind(Name::StoreOp).total_ns));
    v.insert("objstore.ops_per_txn", ratio(kind(Name::StoreOp).count, n));
    v.insert("service.admit_wait_us_p50", p50_us(&mut t.admit_ns));
    v.insert("service.queue_exec_us_p50", p50_us(&mut t.queue_exec_ns));
    v.insert("dist.single_shard_p50_us", p50_us(&mut t.single_shard_ns));
    v.insert("dist.cross_shard_p50_us", p50_us(&mut t.cross_shard_ns));

    let d = &t.stats;
    v.insert("core.lock.requests_per_txn", ratio(d.lock_requests, n));
    v.insert("core.lock.blocked_share", ratio(d.blocked_requests, d.lock_requests));
    v.insert("core.lock.conflict_tests_per_request", ratio(d.conflict_tests, d.lock_requests));
    let formal_conflicts = d.case1_grants + d.case2_waits + d.root_waits;
    v.insert("core.lock.case1_share", ratio(d.case1_grants, formal_conflicts));
    v.insert("core.lock.case2_share", ratio(d.case2_waits, formal_conflicts));
    v.insert("core.lock.root_wait_share", ratio(d.root_waits, formal_conflicts));
    v.insert("core.lock.retained_per_txn", ratio(d.retained_conversions, n));
    v.insert("core.kernel.retests_per_wait", ratio(d.retests, d.wait_episodes));
    v.insert("core.kernel.spurious_wakeup_share", ratio(d.spurious_wakeups, d.wait_episodes));
    v.insert("core.kernel.targeted_wakeups_per_wait", ratio(d.targeted_wakeups, d.wait_episodes));
    v.insert("core.deadlock.victims_per_ktxn", 1e3 * ratio(d.victims, n));
    v.insert("core.deadlock.timeouts_per_ktxn", 1e3 * ratio(d.lock_timeouts, n));
    v.insert("core.engine.retries_per_txn", ratio(d.txn_retries, n));
    v.insert("core.engine.compensations_per_txn", ratio(d.compensations, n));
    v.insert("core.engine.snapshot_share", ratio(t.snapshot_commits, n));
    v.insert(
        "core.engine.validation_fail_share",
        ratio(d.read_validation_failures, d.read_validations),
    );
    v.insert("core.engine.snapshot_fallbacks_per_ktxn", 1e3 * ratio(d.snapshot_retries, n));
    v.insert("core.wal.appends_per_txn", ratio(d.wal_appends, n));
    v.insert("core.wal.bytes_per_txn", ratio(d.wal_bytes, n));
    v.insert("core.wal.fsyncs_per_txn", ratio(d.wal_fsyncs, n));
    v.insert("core.wal.commits_per_fsync", ratio(d.wal_fsyncs + d.wal_group_commits, d.wal_fsyncs));
    v.insert("core.wal.segments_rotated", d.wal_segments_rotated as f64);
    v.insert("core.wal.checkpoints", d.checkpoints as f64);
    v.insert("core.wal.retained_bytes", t.wal_retained_bytes as f64);
    v.insert("dist.cross_share", ratio(d.cross_shard_txns, n));
    v.insert("dist.prepares_per_txn", ratio(d.prepares, n));
    v.insert("dist.rpc_retries_per_ktxn", 1e3 * ratio(d.shard_rpc_retries, n));
    if w == Workload::FleetCross {
        v.insert("dist.txn_retries_per_txn", ratio(t.retries, n));
    }
    v.insert("orderentry.build_s", t.build_s);
    v.insert("orderentry.gen_ns_per_txn", t.gen_s * 1e9 / n as f64);
}

fn write_trace(dir: &Path, w: Workload, spans: &[Span]) -> Option<PathBuf> {
    let head: Vec<Span> = spans.iter().filter(|s| s.txn < TRACE_FILE_TXNS).copied().collect();
    let path = dir.join(format!("trace-{}.json", w.name()));
    std::fs::create_dir_all(dir).ok()?;
    std::fs::write(&path, spans::to_json(&head)).ok()?;
    Some(path)
}

/// Discarded warm-up rep → untraced reps → one (smaller) traced rep → the
/// workload's baseline rep → the probes. Fixed work: `--seconds` does not scale it.
pub fn traced_run(w: Workload, seed: u64, out_dir: &Path) -> TracedRun {
    let mut tally = Tally::default();
    let mut v = Values::new();
    let txns = twin_txns(w);
    tally.add("warm-up rep", txns, &reps::run(&standard(w, seed, txns)));

    let mut twins: Vec<RepRow> = Vec::new();
    for i in 0..TWIN_REPS as u64 {
        let mut out = reps::run(&standard(w, seed + i, txns));
        tally.add(&format!("untraced rep {}", i + 1), txns, &out);
        twins.push(row(seed + i, &mut out));
    }
    let over_twins = |f: fn(&RepRow) -> f64| twins.iter().map(f).collect::<Vec<f64>>();
    let twin_tps = median(&over_twins(|r| r.txn_per_s));

    let mut traced = reps::run(&RepSpec { traced: true, ..standard(w, seed, traced_txns(w)) });
    tally.add("traced rep", traced_txns(w), &traced);
    let totals = spans::totals(&traced.spans);
    layer_values(w, &mut traced, &totals, &mut v);
    let trace_file = write_trace(out_dir, w, &traced.spans);

    let baseline = reps::run(&RepSpec { variant: Variant::Baseline, ..standard(w, seed, txns) });
    tally.add("baseline rep", txns, &baseline);
    match w {
        Workload::OeHot | Workload::OeRead => {
            v.insert("baselines.object2pl_txn_per_s", baseline.txn_per_s());
            v.insert("baselines.semantic_over_2pl", twin_tps / baseline.txn_per_s());
        }
        Workload::SvcDurable => {
            v.insert("service.direct_txn_per_s", baseline.txn_per_s());
            v.insert("service.overhead_share", 1.0 - twin_tps / baseline.txn_per_s());
        }
        Workload::FleetCross => {
            v.insert("dist.twophase_txn_per_s", baseline.txn_per_s());
        }
    }
    v.insert("client.txn_p99_us", median(&over_twins(|r| r.p99_us)));
    v.insert("client.cpu_us_per_txn", median(&over_twins(|r| r.cpu_us_per_txn)));
    v.insert("client.rep_spread", iqr_share(&over_twins(|r| r.txn_per_s)));
    v.insert("trace.overhead_share", 1.0 - traced.txn_per_s() / twin_tps);

    if let Err(e) = probes::run_all(&mut v, seed) {
        tally.violations.push(e);
    }
    // The WAL's share of engine self time until spans exist inside it:
    // appends × the probe's cost per append.
    let est = v.get("core.wal.appends_per_txn").copied().unwrap_or(0.0)
        * v.get("core.wal.append_ns").copied().unwrap_or(0.0)
        / 1e3;
    v.insert("core.wal.est_us_per_txn", est);
    for p in PER_LAYER {
        let value = v.entry(p.name).or_insert(0.0);
        if !value.is_finite() {
            *value = 0.0;
        }
    }
    TracedRun {
        workload: w,
        seed,
        values: v,
        tally,
        totals,
        traced_commits: traced.commits,
        trace_file,
    }
}

/// One set of an A/A comparison: a metric's values over the set's runs.
#[derive(Clone, Debug)]
pub struct SetSummary {
    pub values: Vec<f64>,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// (q3 − q1) ÷ median.
    pub spread: f64,
}

fn summarize(values: Vec<f64>) -> SetSummary {
    let (q1, q3) = quartiles(&values);
    let m = median(&values);
    SetSummary { median: m, q1, q3, spread: (q3 - q1) / m, values }
}

/// One workload × end-to-end-metric pair of an A/A comparison.
#[derive(Clone, Debug)]
pub struct AaCell {
    pub workload: Workload,
    pub metric: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub a: SetSummary,
    pub b: SetSummary,
    /// |median B − median A| ÷ median A.
    pub difference: f64,
    /// How much worse B's median is than A's (negative: better).
    pub worsening: f64,
    pub pass: bool,
}

/// What an A/A comparison needs from one timed run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Values of the end-to-end metrics, in [`END_TO_END`] order.
    pub end_to_end: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

/// Two interleaved sets of `n` full runs (all four workloads) of the
/// current build, every run with its own seed. `run_one` performs one
/// timed run — the command line starts each in a process of its own, as
/// the driver does, so no run inherits another's heap. A cell passes when
/// the two medians differ by no more than the metric's bound and — except
/// for `setup_s`, as in the contract — each set's spread stays within it.
pub fn aa(
    n: usize,
    seed: u64,
    mut run_one: impl FnMut(Workload, u64) -> Result<RunResult, String>,
) -> (Vec<AaCell>, Tally) {
    let mut tally = Tally::default();
    let mut sets: [HashMap<(&'static str, &'static str), Vec<f64>>; 2] =
        [HashMap::new(), HashMap::new()];
    for k in 0..2 * n as u64 {
        for w in Workload::ALL {
            let run_seed = seed + k * RUN_SEED_STRIDE;
            let run = match run_one(w, run_seed) {
                Ok(run) => run,
                Err(e) => {
                    tally.violations.push(format!("{} seed {run_seed}: {e}", w.name()));
                    continue;
                }
            };
            for (e, value) in END_TO_END.iter().zip(&run.end_to_end) {
                sets[(k % 2) as usize].entry((w.name(), e.name)).or_default().push(*value);
            }
            tally.attempted += run.attempted;
            tally.failed += run.failed;
            if !run.correct {
                tally.violations.push(format!("{} seed {run_seed}: incorrect run", w.name()));
            }
        }
    }
    if !tally.correct() {
        // A set with a hole in it compares nothing.
        return (Vec::new(), tally);
    }
    let mut cells = Vec::new();
    for w in Workload::ALL {
        for e in END_TO_END {
            let a = summarize(sets[0].remove(&(w.name(), e.name)).expect("set A ran"));
            let b = summarize(sets[1].remove(&(w.name(), e.name)).expect("set B ran"));
            let difference = (b.median - a.median).abs() / a.median;
            let spread_ok = e.name == "setup_s" || (a.spread <= e.bound && b.spread <= e.bound);
            cells.push(AaCell {
                workload: w,
                metric: e.name,
                unit: e.unit,
                better: e.better,
                bound: e.bound,
                worsening: e.better.worsening(a.median, b.median),
                pass: difference <= e.bound && spread_ok,
                difference,
                a,
                b,
            });
        }
    }
    (cells, tally)
}
