//! End-to-end observability: run a real workload with the event journal
//! and the lock-table sampler enabled, drain the journal as JSONL, check
//! every line against the wire schema, and verify the latency accounting
//! keeps committed and failed transactions in separate populations.

use semcc::core::{validate_json_line, JournalKind};
use semcc::orderentry::{Database, DbParams, MixWeights, Workload, WorkloadConfig};
use semcc::sim::{run_workload, ProtocolKind, RunParams};
use std::collections::HashSet;
use std::time::Duration;

fn small_db() -> Database {
    Database::build(&DbParams { n_items: 4, orders_per_item: 4, ..Default::default() }).unwrap()
}

#[test]
fn journal_drains_as_schema_valid_jsonl() {
    let db = small_db();
    let engine = ProtocolKind::Semantic.builder(&db).journal_capacity(1 << 14).build();
    let wl =
        WorkloadConfig { mix: MixWeights::update_heavy(), zipf_theta: 0.9, ..Default::default() };
    let mut w = Workload::new(&db, wl);
    let batch = w.batch(&db, 60);
    let out = run_workload(&engine, batch, &RunParams { workers: 4, ..Default::default() });
    assert_eq!(out.metrics.committed, 60);

    let journal = engine.journal().expect("journal enabled");
    assert_eq!(journal.dropped(), 0, "2^14 records hold a 60-transaction run");
    let jsonl = journal.to_jsonl();
    assert!(!jsonl.is_empty());
    let mut kinds = HashSet::new();
    for line in jsonl.lines() {
        validate_json_line(line).unwrap_or_else(|e| panic!("bad journal line {line:?}: {e}"));
        let kind_field = line.split("\"kind\":\"").nth(1).unwrap();
        kinds.insert(kind_field.split('"').next().unwrap().to_string());
    }
    // The lock path and the commit path must both be visible.
    assert!(kinds.contains(JournalKind::LockRequest.name()), "kinds seen: {kinds:?}");
    assert!(kinds.contains(JournalKind::LockGrant.name()), "kinds seen: {kinds:?}");
    assert!(kinds.contains(JournalKind::SubCommit.name()), "kinds seen: {kinds:?}");
    assert!(kinds.contains(JournalKind::TopCommit.name()), "kinds seen: {kinds:?}");
    // One top_commit per committed transaction.
    let commits = jsonl.lines().filter(|l| l.contains("\"top_commit\"")).count();
    assert_eq!(commits as u64, out.metrics.committed);
}

/// The baselines journal through the shared kernel, so their journals
/// carry its vocabulary; the Figure-9 decisions belong to the semantic
/// discipline alone.
#[test]
fn baselines_journal_the_kernel_vocabulary_without_figure9_decisions() {
    let db = small_db();
    let engine = ProtocolKind::Object2pl.builder(&db).journal_capacity(1 << 14).build();
    let mut w = Workload::new(
        &db,
        WorkloadConfig { mix: MixWeights::update_heavy(), zipf_theta: 0.9, ..Default::default() },
    );
    let batch = w.batch(&db, 20);
    let out = run_workload(&engine, batch, &RunParams { workers: 4, ..Default::default() });
    assert_eq!(out.metrics.committed, 20);
    let kinds: Vec<JournalKind> =
        engine.journal().expect("journal enabled").snapshot().iter().map(|r| r.kind).collect();
    assert!(kinds.contains(&JournalKind::LockGrant), "kinds seen: {kinds:?}");
    for figure9 in [JournalKind::Case1Grant, JournalKind::Case2Wait, JournalKind::RootWait] {
        assert!(!kinds.contains(&figure9), "{figure9:?} journaled under flat 2PL");
    }
}

#[test]
fn sampler_and_percentiles_cover_a_contended_run() {
    let db = small_db();
    let engine = ProtocolKind::Semantic
        .builder(&db)
        .op_delay(Duration::from_nanos(100))
        .journal_capacity(1 << 14)
        .build();
    let wl =
        WorkloadConfig { mix: MixWeights::update_heavy(), zipf_theta: 0.9, ..Default::default() };
    let mut w = Workload::new(&db, wl);
    let batch = w.batch(&db, 200);
    let out = run_workload(
        &engine,
        batch,
        &RunParams {
            workers: 8,
            sample_every: Some(Duration::from_micros(500)),
            ..Default::default()
        },
    );
    assert_eq!(out.metrics.committed + out.metrics.failed, 200);

    // Percentiles are populated, ordered, and the mean sits inside the
    // distribution's range.
    let h = &out.metrics.commit_latency;
    assert_eq!(h.count, out.metrics.committed);
    assert!(h.p50_us <= h.p95_us && h.p95_us <= h.p99_us && h.p99_us <= h.max_us);
    assert!(out.metrics.mean_latency_us <= h.max_us as f64);
    assert!(out.metrics.mean_latency_us > 0.0);

    // The sampler observed the run and the table drained afterwards.
    assert!(!out.samples.is_empty());
    let after = engine.lock_table();
    assert_eq!((after.keys, after.held, after.retained, after.waiting), (0, 0, 0, 0));
}

#[test]
fn disabled_journal_records_nothing() {
    let db = small_db();
    let engine = semcc::sim::build_engine(ProtocolKind::Semantic, &db, None);
    let mut w = Workload::new(&db, WorkloadConfig::default());
    let batch = w.batch(&db, 10);
    let out = run_workload(&engine, batch, &RunParams { workers: 2, ..Default::default() });
    assert_eq!(out.metrics.committed, 10);
    assert!(engine.journal().is_none(), "journal off by default");
}
