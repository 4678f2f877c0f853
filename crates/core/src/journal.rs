//! The structured event journal: a lock-free ring buffer of typed
//! protocol events for post-hoc conflict forensics.
//!
//! The [`HistorySink`](crate::history::HistorySink) machinery serves the
//! deterministic scenario driver and the serializability validators, but it
//! buffers unboundedly under a mutex and carries heap-allocated payloads —
//! unusable on the measured hot path. The journal is its production-grade
//! sibling: every record is a fixed-size, all-integer
//! [`JournalRecord`], written with a handful of relaxed atomic stores into
//! a bounded ring. Writers never block and never allocate; when the ring
//! wraps, the oldest records are overwritten (and counted as dropped).
//!
//! Consistency uses the classic seqlock slot protocol, implemented entirely
//! with atomics (no `unsafe`): a writer first marks the slot in progress,
//! stores the payload fields with relaxed ordering, then publishes the
//! slot's sequence stamp with release ordering. A reader loads the stamp
//! (acquire), copies the payload, and re-checks the stamp; a torn slot —
//! one a writer was lapping during the copy — fails the re-check and is
//! skipped. Draining is therefore safe at any time, including mid-run.
//!
//! Every discipline funnels its lock traffic through the shared
//! [`kernel`](crate::kernel), so the request/grant/wait/timeout/victim
//! vocabulary is emitted identically for the semantic protocol and the
//! baselines; only the Case-1/Case-2/root-wait *decision* records are
//! specific to the semantic conflict test (Figure 9).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Slot stamp value marking a write in progress.
const IN_PROGRESS: u64 = u64::MAX;

/// The kind of a journal record — the shared event vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum JournalKind {
    /// A lock request was issued (`key` = lockable unit).
    LockRequest = 0,
    /// A lock was granted (`aux` = 1 if the request had waited).
    LockGrant = 1,
    /// A request blocked; `other` names the first blocker node and `aux`
    /// the total blocker count.
    LockWait = 2,
    /// Figure-9 Case 1: a formal conflict was dissolved by a committed
    /// commutative ancestor; `other` = holder node.
    Case1Grant = 3,
    /// Figure-9 Case 2: the requestor waits for the holder's uncommitted
    /// commutative ancestor; `other` = that ancestor node.
    Case2Wait = 4,
    /// Worst case: the requestor waits for the holder's top-level commit;
    /// `other` = the holder's root.
    RootWait = 5,
    /// A subtransaction committed (non-root `ActionComplete`).
    SubCommit = 6,
    /// A compensating invocation is about to run.
    Compensation = 7,
    /// The transaction was chosen as deadlock victim.
    VictimSelected = 8,
    /// A lock wait was aborted by the timeout backstop.
    LockTimeout = 9,
    /// Top-level commit.
    TopCommit = 10,
    /// Top-level abort.
    TopAbort = 11,
    /// A crash-recovery pass started (`aux` = surviving WAL records).
    RecoveryStart = 12,
    /// A leaf redo record was replayed into the store during recovery
    /// (`key` = object id).
    RecoveryReplay = 13,
    /// A compensating invocation ran during recovery on behalf of a losing
    /// top-level transaction (`key` = object id, `aux` = attempt count).
    RecoveryCompensation = 14,
    /// A crash-recovery pass finished (`aux` = losers compensated).
    RecoveryDone = 15,
    /// A read-only transaction entered the lock-free snapshot read path.
    SnapshotBegin = 16,
    /// A snapshot transaction validated its read set at top-commit
    /// (`key` = read-set size, `aux` = 1 on success, 0 on failure).
    SnapshotValidate = 17,
    /// A read-only transaction was promoted to the ordinary locking path
    /// (snapshot ineligibility or validation failure).
    SnapshotPromote = 18,
    /// A fuzzy checkpoint started.
    CheckpointBegin = 19,
    /// A fuzzy checkpoint was installed (`key` = checkpoint LSN, `aux` =
    /// log bytes retired).
    CheckpointEnd = 20,
    /// The WAL rotated to a fresh segment (`key` = first LSN of the new
    /// segment).
    WalRotate = 21,
    /// A commit became durable as a group-commit follower — covered by a
    /// sync another committer paid for (`key` = the commit record's LSN).
    GroupCommit = 22,
    /// An escrow update was applied (`key` = object id, `aux` = the delta
    /// cast to u64).
    EscrowGrant = 23,
    /// A shard participant durably prepared (or piece-committed) its part
    /// of a distributed transaction; `key` = global transaction id,
    /// `aux` = shard index.
    ShardPrepare = 24,
    /// The coordinator durably logged a global commit/abort decision;
    /// `key` = global transaction id, `aux` = 1 for commit, 0 for abort.
    ShardDecide = 25,
    /// An in-doubt shard participant was resolved from the coordinator's
    /// decision log during recovery; `key` = global transaction id,
    /// `aux` = 1 when the decision was commit (effects kept), 0 when the
    /// piece was compensated.
    InDoubtResolve = 26,
}

impl JournalKind {
    /// Stable wire name (the JSONL `kind` field).
    pub fn name(self) -> &'static str {
        match self {
            JournalKind::LockRequest => "lock_request",
            JournalKind::LockGrant => "lock_grant",
            JournalKind::LockWait => "lock_wait",
            JournalKind::Case1Grant => "case1_grant",
            JournalKind::Case2Wait => "case2_wait",
            JournalKind::RootWait => "root_wait",
            JournalKind::SubCommit => "sub_commit",
            JournalKind::Compensation => "compensation",
            JournalKind::VictimSelected => "victim_selected",
            JournalKind::LockTimeout => "lock_timeout",
            JournalKind::TopCommit => "top_commit",
            JournalKind::TopAbort => "top_abort",
            JournalKind::RecoveryStart => "recovery_start",
            JournalKind::RecoveryReplay => "recovery_replay",
            JournalKind::RecoveryCompensation => "recovery_compensation",
            JournalKind::RecoveryDone => "recovery_done",
            JournalKind::SnapshotBegin => "snapshot_begin",
            JournalKind::SnapshotValidate => "snapshot_validate",
            JournalKind::SnapshotPromote => "snapshot_promote",
            JournalKind::CheckpointBegin => "checkpoint_begin",
            JournalKind::CheckpointEnd => "checkpoint_end",
            JournalKind::WalRotate => "wal_rotate",
            JournalKind::GroupCommit => "group_commit",
            JournalKind::EscrowGrant => "escrow_grant",
            JournalKind::ShardPrepare => "shard_prepare",
            JournalKind::ShardDecide => "shard_decide",
            JournalKind::InDoubtResolve => "in_doubt_resolve",
        }
    }

    /// Every kind, in discriminant order: `from_u64` indexes this array, so
    /// `ALL[i] as u64 == i` must hold (the wire format is `name()`).
    pub const ALL: [JournalKind; 27] = [
        JournalKind::LockRequest,
        JournalKind::LockGrant,
        JournalKind::LockWait,
        JournalKind::Case1Grant,
        JournalKind::Case2Wait,
        JournalKind::RootWait,
        JournalKind::SubCommit,
        JournalKind::Compensation,
        JournalKind::VictimSelected,
        JournalKind::LockTimeout,
        JournalKind::TopCommit,
        JournalKind::TopAbort,
        JournalKind::RecoveryStart,
        JournalKind::RecoveryReplay,
        JournalKind::RecoveryCompensation,
        JournalKind::RecoveryDone,
        JournalKind::SnapshotBegin,
        JournalKind::SnapshotValidate,
        JournalKind::SnapshotPromote,
        JournalKind::CheckpointBegin,
        JournalKind::CheckpointEnd,
        JournalKind::WalRotate,
        JournalKind::GroupCommit,
        JournalKind::EscrowGrant,
        JournalKind::ShardPrepare,
        JournalKind::ShardDecide,
        JournalKind::InDoubtResolve,
    ];

    fn from_u64(v: u64) -> Option<JournalKind> {
        Self::ALL.get(v as usize).copied()
    }
}

/// One fixed-size journal record. All-integer so writers are allocation-
/// free; `0` in an id field means "not applicable".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalRecord {
    /// Global sequence number (total order over all records).
    pub seq: u64,
    /// Microseconds since the journal (= engine) was created.
    pub micros: u64,
    /// Event kind.
    pub kind: JournalKind,
    /// Acting top-level transaction.
    pub top: u64,
    /// Acting node index within its tree (0 = root).
    pub node: u32,
    /// The other party: holder / blocker / awaited ancestor transaction.
    pub other_top: u64,
    /// The other party's node index.
    pub other_node: u32,
    /// The lockable unit (object or page id; 0 when not a lock event).
    pub key: u64,
    /// Kind-specific payload (waited flag, blocker count, …).
    pub aux: u64,
}

impl JournalRecord {
    /// Render as one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"us\":{},\"kind\":\"{}\",\"top\":{},\"node\":{},\
             \"other_top\":{},\"other_node\":{},\"key\":{},\"aux\":{}}}",
            self.seq,
            self.micros,
            self.kind.name(),
            self.top,
            self.node,
            self.other_top,
            self.other_node,
            self.key,
            self.aux,
        )
    }
}

/// The journal's JSONL schema: field names in emission order. Used by the
/// validator and by CI to keep producers and consumers honest.
pub const JOURNAL_FIELDS: [&str; 9] =
    ["seq", "us", "kind", "top", "node", "other_top", "other_node", "key", "aux"];

/// Validate one JSONL line against the journal schema: all nine fields
/// present in order, `kind` drawn from the event vocabulary, every other
/// field a bare unsigned integer. Returns a human-readable complaint.
pub fn validate_json_line(line: &str) -> Result<(), String> {
    let inner = line
        .trim()
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
        .ok_or_else(|| format!("not a JSON object: {line:?}"))?;
    let mut rest = inner;
    for (i, field) in JOURNAL_FIELDS.iter().enumerate() {
        let prefix = format!("{}\"{field}\":", if i == 0 { "" } else { "," });
        rest = rest
            .strip_prefix(&prefix)
            .ok_or_else(|| format!("field {i} is not {field:?} in {line:?}"))?;
        let end = rest.find(',').unwrap_or(rest.len());
        let value = if i + 1 == JOURNAL_FIELDS.len() { rest } else { &rest[..end] };
        if *field == "kind" {
            let name = value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| format!("kind is not a string: {value:?}"))?;
            if !JournalKind::ALL.iter().any(|k| k.name() == name) {
                return Err(format!("unknown event kind {name:?}"));
            }
        } else if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
            return Err(format!("field {field:?} is not an unsigned integer: {value:?}"));
        }
        rest = &rest[value.len().min(end)..];
    }
    if !rest.is_empty() {
        return Err(format!("trailing content {rest:?} in {line:?}"));
    }
    Ok(())
}

/// One ring slot: a seqlock stamp plus the record's payload fields, all
/// plain atomics (field order mirrors [`JournalRecord`], minus `seq`,
/// which is `stamp - 1`).
struct Slot {
    /// `0` = never written, [`IN_PROGRESS`] = write under way, otherwise
    /// `seq + 1` of the published record.
    stamp: AtomicU64,
    micros: AtomicU64,
    kind: AtomicU64,
    top: AtomicU64,
    node: AtomicU64,
    other_top: AtomicU64,
    other_node: AtomicU64,
    key: AtomicU64,
    aux: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            stamp: AtomicU64::new(0),
            micros: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            top: AtomicU64::new(0),
            node: AtomicU64::new(0),
            other_top: AtomicU64::new(0),
            other_node: AtomicU64::new(0),
            key: AtomicU64::new(0),
            aux: AtomicU64::new(0),
        }
    }
}

/// The lock-free event journal.
pub struct EventJournal {
    slots: Box<[Slot]>,
    /// Next global sequence number.
    head: AtomicU64,
    epoch: Instant,
}

impl EventJournal {
    /// A journal holding the most recent `capacity` records (rounded up to
    /// at least 2).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        EventJournal {
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records written so far (including any already overwritten).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records lost to ring wrap-around so far.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Append one record. Wait-free for writers: claims a sequence number,
    /// stamps the slot in progress, stores the payload, publishes.
    // Flat scalar parameters on purpose: the hot path stores each field
    // into its slot atomic directly, with no record struct in between.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        kind: JournalKind,
        top: u64,
        node: u32,
        other_top: u64,
        other_node: u32,
        key: u64,
        aux: u64,
    ) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        slot.stamp.store(IN_PROGRESS, Ordering::Relaxed);
        slot.micros.store(self.epoch.elapsed().as_micros() as u64, Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.top.store(top, Ordering::Relaxed);
        slot.node.store(u64::from(node), Ordering::Relaxed);
        slot.other_top.store(other_top, Ordering::Relaxed);
        slot.other_node.store(u64::from(other_node), Ordering::Relaxed);
        slot.key.store(key, Ordering::Relaxed);
        slot.aux.store(aux, Ordering::Relaxed);
        slot.stamp.store(seq + 1, Ordering::Release);
    }

    /// Snapshot the ring's current contents in sequence order. Torn slots
    /// (being overwritten during the copy) are skipped; concurrent writers
    /// are never blocked.
    pub fn snapshot(&self) -> Vec<JournalRecord> {
        let mut out: Vec<JournalRecord> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let before = slot.stamp.load(Ordering::Acquire);
            if before == 0 || before == IN_PROGRESS {
                continue;
            }
            let rec = JournalRecord {
                seq: before - 1,
                micros: slot.micros.load(Ordering::Relaxed),
                kind: match JournalKind::from_u64(slot.kind.load(Ordering::Relaxed)) {
                    Some(k) => k,
                    None => continue,
                },
                top: slot.top.load(Ordering::Relaxed),
                node: slot.node.load(Ordering::Relaxed) as u32,
                other_top: slot.other_top.load(Ordering::Relaxed),
                other_node: slot.other_node.load(Ordering::Relaxed) as u32,
                key: slot.key.load(Ordering::Relaxed),
                aux: slot.aux.load(Ordering::Relaxed),
            };
            // Seqlock re-check: a lapping writer changed the stamp (or is
            // mid-write); discard the torn copy.
            if slot.stamp.load(Ordering::Acquire) == before {
                out.push(rec);
            }
        }
        out.sort_by_key(|r| r.seq);
        out
    }

    /// Render the snapshot as JSONL (one record per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in self.snapshot() {
            out.push_str(&rec.to_json());
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EventJournal(capacity = {}, recorded = {}, dropped = {})",
            self.capacity(),
            self.recorded(),
            self.dropped()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn rec(j: &EventJournal, kind: JournalKind, top: u64) {
        j.record(kind, top, 1, 0, 0, 7, 0);
    }

    #[test]
    fn records_in_order_and_drains() {
        let j = EventJournal::new(16);
        rec(&j, JournalKind::LockRequest, 1);
        rec(&j, JournalKind::LockGrant, 1);
        rec(&j, JournalKind::TopCommit, 1);
        let snap = j.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].seq, 0);
        assert_eq!(snap[0].kind, JournalKind::LockRequest);
        assert_eq!(snap[2].kind, JournalKind::TopCommit);
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let j = EventJournal::new(4);
        for i in 0..10 {
            rec(&j, JournalKind::LockRequest, i);
        }
        let snap = j.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap.first().unwrap().seq, 6, "oldest surviving record");
        assert_eq!(snap.last().unwrap().seq, 9);
        assert_eq!(j.dropped(), 6);
        assert_eq!(j.recorded(), 10);
    }

    #[test]
    fn jsonl_roundtrips_through_the_validator() {
        let j = EventJournal::new(8);
        j.record(JournalKind::Case2Wait, 3, 2, 5, 1, 42, 0);
        j.record(JournalKind::LockWait, 4, 1, 3, 0, 42, 2);
        let jsonl = j.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            validate_json_line(line).unwrap();
        }
        assert!(jsonl.contains("\"kind\":\"case2_wait\""));
        assert!(jsonl.contains("\"key\":42"));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_json_line("not json").is_err());
        assert!(validate_json_line("{\"seq\":1}").is_err(), "missing fields");
        let bad_kind = "{\"seq\":0,\"us\":1,\"kind\":\"nope\",\"top\":1,\"node\":0,\
                        \"other_top\":0,\"other_node\":0,\"key\":0,\"aux\":0}";
        assert!(validate_json_line(bad_kind).unwrap_err().contains("unknown event kind"));
        let bad_num = "{\"seq\":0,\"us\":1,\"kind\":\"top_commit\",\"top\":-1,\"node\":0,\
                       \"other_top\":0,\"other_node\":0,\"key\":0,\"aux\":0}";
        assert!(validate_json_line(bad_num).is_err());
    }

    #[test]
    fn concurrent_writers_never_produce_torn_records() {
        let j = Arc::new(EventJournal::new(64));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let j = Arc::clone(&j);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        // Writer-unique payload: top == aux always holds in
                        // an untorn record.
                        let v = t * 1_000_000 + i;
                        j.record(JournalKind::LockRequest, v, 0, 0, 0, v, v);
                    }
                })
            })
            .collect();
        // Drain concurrently while writers hammer the ring.
        for _ in 0..50 {
            for r in j.snapshot() {
                assert_eq!(r.top, r.aux, "torn record escaped the seqlock check");
                assert_eq!(r.top, r.key);
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(j.recorded(), 20_000);
        let final_snap = j.snapshot();
        assert_eq!(final_snap.len(), 64, "full ring after the storm");
        for r in &final_snap {
            assert_eq!(r.top, r.aux);
        }
    }

    #[test]
    fn kind_names_are_unique_and_stable() {
        let mut names: Vec<&str> = JournalKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), JournalKind::ALL.len());
    }

    /// `from_u64` decodes by position in `ALL`: a discriminant that is not
    /// its own index would decode as a different kind.
    #[test]
    fn every_kind_sits_at_the_index_of_its_discriminant() {
        for (i, kind) in JournalKind::ALL.iter().enumerate() {
            assert_eq!(*kind as u64, i as u64, "{kind:?}");
            assert_eq!(JournalKind::from_u64(i as u64), Some(*kind));
        }
        assert_eq!(JournalKind::from_u64(JournalKind::ALL.len() as u64), None);
    }
}
