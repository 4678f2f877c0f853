//! Fuzzy checkpoints: the image format and the pipeline that writes it.
//!
//! A checkpoint bounds both recovery time and log growth: it durably
//! persists (1) a stamp-consistent [`StoreDump`] of the live store and
//! (2) the **compensation-intent table** of every transaction that is
//! unresolved at the checkpoint LSN — exactly the analysis state a
//! recovery starting from that LSN would otherwise have to rebuild from
//! the truncated log. Segments that end at or before the checkpoint LSN
//! carry no information the image does not, and are dropped.
//!
//! The intent table is *compositional*: the writer keeps it current by
//! applying [`fold`] to every record it appends, a checkpoint copies it,
//! and recovery continues the very same fold over the records that
//! survive after the checkpoint LSN. The fold is therefore shared —
//! checkpoint writer and recovery analysis cannot drift apart.
//!
//! The image is framed `[magic "SCKP"][len: u32][crc32: u32][payload]`
//! and validated on read; a damaged image is a typed
//! [`WalError::Checkpoint`] error, never a silent fallback.
//!
//! **Pipeline.** A checkpoint is three steps, and only the first stops
//! anybody (DESIGN.md §10 has the exactness argument):
//!
//! 1. [`WalWriter::checkpoint_cut`] — under the apply/append barrier and
//!    the writer state lock: read the checkpoint LSN, ask the store for
//!    what changed since the previous capture ([`StoreDelta`], O(dirty)),
//!    copy the unresolved-transaction table, seal the active segment.
//! 2. [`CheckpointCut::assemble`] — no lock held: re-verify the sealed
//!    segments about to be retired (latent corruption is quarantined
//!    *before* any history is dropped), merge the capture into the
//!    previous image (`Base`) and frame the result.
//! 3. [`ReadyCheckpoint::install`] — a second short state-lock section:
//!    make the image durable, swap it in, retire exactly the segments
//!    sealed at the cut.
//!
//! One checkpoint is in flight at a time: [`WalWriter::checkpoint`] waits
//! its turn, the cadence trigger's [`WalWriter::try_checkpoint`] skips.
//!
//! The image is byte-identical to [`encode_checkpoint`] of a full dump at
//! the same cut — which *is* this pipeline with an empty base and
//! everything dirty — so nothing downstream can tell the difference.

use super::segment::{segment_file_name, CheckpointOutcome, Segment, WalWriter};
use super::{crc32, put_invocation, put_str, put_u32, put_u64, put_value, verify_sealed, Cursor};
use super::{WalError, WalRecord};
use parking_lot::MutexGuard;
use semcc_semantics::{
    Invocation, ObjectDump, ObjectId, ObjectImage, StoreDelta, StoreDump, TypeId,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Magic prefix of a checkpoint image frame.
pub(crate) const CHECKPOINT_MAGIC: [u8; 4] = *b"SCKP";

/// Image offset of the first object entry: the 12-byte frame header, then
/// `cp_lsn`, `next_id` and the object count.
const OBJECTS_START: usize = 12 + 8 + 8 + 4;

/// Per-transaction analysis state, as accumulated by [`fold`]. Mirrors the
/// engine's in-memory knowledge of an open transaction: which depth-1
/// subtrees committed, the compensation intents their `SubCommit` records
/// exposed, not-yet-superseded deep intents, abort progress, and the
/// objects the transaction created.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TopInfo {
    /// A `TopCommit` was seen.
    pub committed: bool,
    /// A `TopAbort` was seen.
    pub aborted: bool,
    /// Depth-1 subtrees whose `SubCommit` was seen.
    pub committed_subtrees: BTreeSet<u32>,
    /// Compensation intents of those subtrees, in LSN order.
    pub intents: Vec<Invocation>,
    /// Intents of deeper user methods (`SubIntent`) whose enclosing
    /// depth-1 subtree has not (yet) logged a `SubCommit`, tagged with
    /// that subtree; a later `SubCommit` supersedes and drops them.
    pub orphan_intents: Vec<(u32, Invocation)>,
    /// Inverses seen applied — `CompApplied` markers and `applied`
    /// `CompRedo`s (a pre-crash top-level abort's progress; always the
    /// newest intents, compensation runs reversed).
    pub comp_applied: u64,
    /// LSN of the transaction's last record (undo ordering).
    pub last_lsn: u64,
    /// Objects the transaction's redo records create, in LSN order (the
    /// abort path GC-deletes creations unlogged, so recovery re-deletes
    /// them for aborted transactions and losers, best-effort).
    pub creations: Vec<ObjectId>,
    /// The leaves logged inside depth-1 subtrees that have no `SubCommit`
    /// yet, as `(subtree, inverse, exposed)` in LSN order. A leaf is
    /// *exposed* once a deeper user method around it ended: committed (its
    /// own intent undoes it, and commuting writers may have built on it)
    /// or failed (its rollback undid it). A `LeafRedo` carries no undo, so
    /// only the writer knows these (the engine hands the inverse over with
    /// the append) and only a checkpoint carries them: its dump holds
    /// those leaves, which recovery from the full log never replays.
    pub open_leaves: Vec<(u32, Invocation, bool)>,
}

impl TopInfo {
    /// Neither resolution record was seen: a crash now would make this
    /// transaction a loser.
    pub fn unresolved(&self) -> bool {
        !self.committed && !self.aborted
    }
}

/// [`fold`] for the writer's live table, which holds unresolved
/// transactions only: a resolution record drops the entry instead of
/// marking it. Equal to folding everything and filtering by
/// [`TopInfo::unresolved`] at the cut, because a transaction logs nothing
/// after its resolution record — which recovery from a checkpoint has
/// always relied on.
pub(crate) fn fold_live(tops: &mut BTreeMap<u64, TopInfo>, lsn: u64, rec: &WalRecord) {
    match rec {
        WalRecord::TopCommit { top } | WalRecord::TopAbort { top } => {
            tops.remove(top);
        }
        _ => fold(tops, lsn, rec),
    }
}

/// Advance the per-transaction analysis table by one record. Shared by
/// checkpoint construction and recovery analysis (see module docs).
pub fn fold(tops: &mut BTreeMap<u64, TopInfo>, lsn: u64, rec: &WalRecord) {
    // Top 0 is no transaction: a recovery pass's own progress marker, or
    // a fleet shard's piece records.
    if rec.top() == 0 {
        return;
    }
    let info = tops.entry(rec.top()).or_default();
    info.last_lsn = lsn;
    match rec {
        WalRecord::SubCommit { subtree, comp, .. } => {
            info.committed_subtrees.insert(*subtree);
            info.intents.extend(comp.iter().cloned());
            // The aggregate comp above already carries any deeper
            // intents logged early for this subtree, and undoes its
            // leaves.
            info.orphan_intents.retain(|(s, _)| s != subtree);
            info.open_leaves.retain(|(s, ..)| s != subtree);
        }
        WalRecord::SubIntent { subtree, comp, .. } => {
            info.orphan_intents.extend(comp.iter().cloned().map(|inv| (*subtree, inv)));
        }
        WalRecord::CompApplied { .. } => info.comp_applied += 1,
        WalRecord::TopCommit { .. } => info.committed = true,
        WalRecord::TopAbort { .. } => info.aborted = true,
        WalRecord::LeafRedo { op, .. } | WalRecord::CompRedo { op, .. } => {
            if let WalRecord::CompRedo { applied: true, .. } = rec {
                info.comp_applied += 1;
            }
            if let Some(id) = op.created_id() {
                info.creations.push(id);
            }
        }
        WalRecord::RecoveryMark { .. }
        | WalRecord::Prepared { .. }
        | WalRecord::Resolved { .. } => {}
    }
}

/// A decoded checkpoint.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CheckpointImage {
    /// The checkpoint LSN: the store dump reflects *exactly* the records
    /// with LSN `< cp_lsn` (the writer's apply/append barrier guarantees
    /// the cut is exact, so recovery replays from here with no gap and no
    /// double-apply).
    pub cp_lsn: u64,
    /// The store at `cp_lsn`.
    pub dump: StoreDump,
    /// Analysis state of every transaction unresolved at `cp_lsn`.
    pub table: BTreeMap<u64, TopInfo>,
}

fn put_object(out: &mut Vec<u8>, od: &ObjectDump) {
    put_u64(out, od.id.0);
    put_u32(out, od.type_id.0);
    put_u64(out, od.version);
    match &od.image {
        ObjectImage::Atomic(v) => {
            out.push(0);
            put_value(out, v);
        }
        ObjectImage::Tuple(fields) => {
            out.push(1);
            put_u32(out, fields.len() as u32);
            for (name, f) in fields {
                put_str(out, name);
                put_u64(out, f.0);
            }
        }
        ObjectImage::Set(pairs) => {
            out.push(2);
            put_u32(out, pairs.len() as u32);
            for (key, member) in pairs {
                put_u64(out, *key);
                put_u64(out, member.0);
            }
        }
    }
}

fn put_table(out: &mut Vec<u8>, table: &BTreeMap<u64, TopInfo>) {
    put_u32(out, table.len() as u32);
    for (top, info) in table {
        put_u64(out, *top);
        out.push(u8::from(info.committed));
        out.push(u8::from(info.aborted));
        put_u32(out, info.committed_subtrees.len() as u32);
        for s in &info.committed_subtrees {
            put_u32(out, *s);
        }
        put_u32(out, info.intents.len() as u32);
        for inv in &info.intents {
            put_invocation(out, inv);
        }
        put_u32(out, info.orphan_intents.len() as u32);
        for (subtree, inv) in &info.orphan_intents {
            put_u32(out, *subtree);
            put_invocation(out, inv);
        }
        put_u64(out, info.comp_applied);
        put_u64(out, info.last_lsn);
        put_u32(out, info.creations.len() as u32);
        for id in &info.creations {
            put_u64(out, id.0);
        }
        put_u32(out, info.open_leaves.len() as u32);
        for (subtree, inv, exposed) in &info.open_leaves {
            put_u32(out, *subtree);
            put_invocation(out, inv);
            out.push(u8::from(*exposed));
        }
    }
}

/// An installed checkpoint as the next one's starting point: the image
/// itself plus where each object's entry sits in it, so unchanged objects
/// are carried over as byte runs instead of being re-captured and
/// re-encoded.
pub(super) struct Base {
    /// The store's name for the capture this image holds (the `since` of
    /// the next [`Storage::checkpoint_delta`](semcc_semantics::Storage)).
    token: u64,
    image: Arc<Vec<u8>>,
    /// `(object id, offset of its entry in image)`, id-ascending; entries
    /// are contiguous from [`OBJECTS_START`] to `objects_end`.
    index: Vec<(u64, u32)>,
    objects_end: u32,
}

/// One change to merge: an object's new state, or `None` for a tombstone.
type Change<'a> = (u64, Option<&'a ObjectDump>);

/// Build the image of `base` + `changes` (id-ascending) at `cp_lsn`.
fn merge(
    base: Option<&Base>,
    token: u64,
    cp_lsn: u64,
    next_id: u64,
    changes: &[Change<'_>],
    table: &BTreeMap<u64, TopInfo>,
) -> Base {
    assert_off_lock("checkpoint image assembly");
    let (old, old_index, old_end) = match base {
        Some(b) => (&b.image[..], &b.index[..], b.objects_end as usize),
        None => (&[][..], &[][..], 0),
    };
    let mut out = Vec::with_capacity(old.len() + 64 * changes.len() + 256);
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&[0; 8]); // length and CRC, patched below
    put_u64(&mut out, cp_lsn);
    put_u64(&mut out, next_id);
    put_u32(&mut out, 0); // object count, patched below
    let mut index = Vec::with_capacity(old_index.len() + changes.len());
    // Unchanged neighbours `old_index[from..to]` are carried over as one
    // byte run, their index entries shifted along.
    let carry = |out: &mut Vec<u8>, index: &mut Vec<(u64, u32)>, from: usize, to: usize| {
        if from < to {
            let start = old_index[from].1 as usize;
            let end = old_index.get(to).map_or(old_end, |e| e.1 as usize);
            let new_start = out.len();
            out.extend_from_slice(&old[start..end]);
            index.extend(
                old_index[from..to]
                    .iter()
                    .map(|&(id, off)| (id, (off as usize - start + new_start) as u32)),
            );
        }
    };
    let mut kept = 0usize; // `old_index[..kept]` is dealt with
    for &(id, od) in changes {
        let at = kept + old_index[kept..].partition_point(|e| e.0 < id);
        carry(&mut out, &mut index, kept, at);
        // The old entry for `id`, if any, is superseded (or deleted).
        kept = at + usize::from(old_index.get(at).is_some_and(|e| e.0 == id));
        if let Some(od) = od {
            index.push((id, out.len() as u32));
            put_object(&mut out, od);
        }
    }
    carry(&mut out, &mut index, kept, old_index.len());
    let objects_end = out.len();
    out[OBJECTS_START - 4..OBJECTS_START].copy_from_slice(&(index.len() as u32).to_le_bytes());
    put_table(&mut out, table);
    // Every offset above is below this length, so the one check covers
    // the `as u32` casts too.
    let len = u32::try_from(out.len() - 12).expect("checkpoint image fits its u32 length field");
    let crc = crc32(&out[12..]);
    out[4..8].copy_from_slice(&len.to_le_bytes());
    out[8..12].copy_from_slice(&crc.to_le_bytes());
    Base { token, image: Arc::new(out), index, objects_end: objects_end as u32 }
}

/// Encode a checkpoint image into its durable framed form: the merge
/// pipeline with no base and every object a change.
pub fn encode_checkpoint(image: &CheckpointImage) -> Vec<u8> {
    let changes: Vec<Change<'_>> = image.dump.objects.iter().map(|o| (o.id.0, Some(o))).collect();
    let built = merge(None, 0, image.cp_lsn, image.dump.next_id, &changes, &image.table);
    Arc::try_unwrap(built.image).expect("freshly built image is unshared")
}

// ---------------------------------------------------------------------
// The pipeline: cut → assemble → install
// ---------------------------------------------------------------------

#[cfg(debug_assertions)]
thread_local! {
    /// This thread is inside the locked section of a checkpoint cut.
    static CUT_LOCKS_HELD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Marks the calling thread as holding the barrier and the state lock for
/// a cut, for [`assert_off_lock`].
struct CutLocksHeld;

impl CutLocksHeld {
    fn enter() -> Self {
        #[cfg(debug_assertions)]
        CUT_LOCKS_HELD.with(|held| held.set(true));
        CutLocksHeld
    }
}

impl Drop for CutLocksHeld {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        CUT_LOCKS_HELD.with(|held| held.set(false));
    }
}

/// Called by every O(store) or O(log) step of a checkpoint — decoding an
/// image, re-verifying segments, assembling the new image. Debug builds
/// (so every tier-1 test that checkpoints) fail if one of them runs while
/// this thread stops the world for a cut.
fn assert_off_lock(what: &str) {
    #[cfg(debug_assertions)]
    assert!(
        !CUT_LOCKS_HELD.with(std::cell::Cell::get),
        "{what} under the checkpoint barrier and the writer state lock"
    );
    let _ = what;
}

/// Single flight: the writer's `checkpointing` lock, taken by the cut and
/// released when the checkpoint is installed or abandoned.
type InFlight<'w> = MutexGuard<'w, ()>;

/// A segment sealed at or before the cut, shared with the writer.
struct Sealed {
    seq: u64,
    base_lsn: u64,
    bytes: Arc<Vec<u8>>,
}

/// Step 1's result: everything a checkpoint needs from the stopped world.
/// Dropping it abandons the checkpoint (the previous image and every
/// segment stay; the store notices its capture went nowhere because the
/// next `since` token is stale, and answers in full).
pub struct CheckpointCut<'w> {
    writer: &'w WalWriter,
    in_flight: InFlight<'w>,
    cp_lsn: u64,
    delta: StoreDelta,
    table: BTreeMap<u64, TopInfo>,
    base: Option<Arc<Base>>,
    /// The live segments at the cut, all sealed: every retained record
    /// below `cp_lsn`, and nothing else.
    sealed: Vec<Sealed>,
}

/// Step 2's result: a framed image waiting to be made durable.
pub struct ReadyCheckpoint<'w> {
    writer: &'w WalWriter,
    in_flight: InFlight<'w>,
    cp_lsn: u64,
    next: Base,
    /// Highest segment `seq` sealed at the cut.
    sealed_through: u64,
}

impl WalWriter {
    /// Take a fuzzy checkpoint: [cut](WalWriter::checkpoint_cut),
    /// [assemble](CheckpointCut::assemble),
    /// [install](ReadyCheckpoint::install), on the calling thread.
    /// `capture` is called under the write barrier (no apply+append pair
    /// in flight) with the token of the capture the previous image holds,
    /// and returns the store's [`StoreDelta`], or `None` if the store
    /// cannot capture — then nothing happens.
    ///
    /// Checkpoints are single flight: if another one is between its cut
    /// and its install, this call waits for it and then takes its own, so
    /// `Ok(Some(_))` always means an image cut *after* the call began.
    ///
    /// Returns `Ok(None)` when skipped (dead device or no capture), `Err`
    /// when the log is poisoned, the retained records fail validation
    /// (latent corruption is *quarantined here*, before any history is
    /// dropped), or the image write's fsync fails.
    pub fn checkpoint(
        &self,
        capture: impl FnOnce(Option<u64>) -> Option<StoreDelta>,
    ) -> Result<Option<CheckpointOutcome>, WalError> {
        self.run(self.checkpointing.lock(), capture)
    }

    /// [`WalWriter::checkpoint`] for the cadence trigger: if a checkpoint
    /// is already in flight the log is being bounded right now, so this
    /// one is skipped (`Ok(None)`, `capture` not called) instead of
    /// queueing a worker behind it.
    pub fn try_checkpoint(
        &self,
        capture: impl FnOnce(Option<u64>) -> Option<StoreDelta>,
    ) -> Result<Option<CheckpointOutcome>, WalError> {
        match self.checkpointing.try_lock() {
            Some(in_flight) => self.run(in_flight, capture),
            None => Ok(None),
        }
    }

    fn run(
        &self,
        in_flight: InFlight<'_>,
        capture: impl FnOnce(Option<u64>) -> Option<StoreDelta>,
    ) -> Result<Option<CheckpointOutcome>, WalError> {
        match self.cut(in_flight, capture)? {
            Some(cut) => cut.assemble()?.install(),
            None => Ok(None),
        }
    }

    /// Step 1, the only one that stops mutators and appenders: O(dirty).
    /// Waits for a checkpoint in flight (on another thread) to finish.
    pub fn checkpoint_cut(
        &self,
        capture: impl FnOnce(Option<u64>) -> Option<StoreDelta>,
    ) -> Result<Option<CheckpointCut<'_>>, WalError> {
        // Claimed before the barrier: a waiter stops nobody.
        self.cut(self.checkpointing.lock(), capture)
    }

    fn cut<'w>(
        &'w self,
        in_flight: InFlight<'w>,
        capture: impl FnOnce(Option<u64>) -> Option<StoreDelta>,
    ) -> Result<Option<CheckpointCut<'w>>, WalError> {
        let _barrier = self.barrier.write();
        let mut st = self.state.lock();
        let st = &mut *st;
        let _held = CutLocksHeld::enter();
        // Reset the cadence even if the capture is declined or fails, so
        // a broken store does not retrigger on every commit.
        self.since_checkpoint.store(0, Ordering::Relaxed);
        if st.dead {
            return Ok(None);
        }
        if st.poisoned.is_some() {
            return Err(WalError::Poisoned);
        }
        let base = st.base.clone();
        let Some(delta) = capture(base.as_ref().map(|b| b.token)) else { return Ok(None) };
        assert!(
            delta.full || base.is_some(),
            "store answered `since: None` with a partial capture"
        );
        let cp_lsn = st.next_lsn;
        // Seal the active segment: every record below cp_lsn now sits in
        // a segment nobody appends to again.
        self.rotate_locked(st);
        let sealed = st.segments[..st.segments.len() - 1]
            .iter()
            .map(|s| Sealed { seq: s.seq, base_lsn: s.base_lsn, bytes: Arc::clone(&s.bytes) })
            .collect();
        let table = st.table.clone();
        Ok(Some(CheckpointCut { writer: self, in_flight, cp_lsn, delta, table, base, sealed }))
    }
}

impl<'w> CheckpointCut<'w> {
    /// The checkpoint LSN: the capture reflects exactly the records below.
    pub fn cp_lsn(&self) -> u64 {
        self.cp_lsn
    }

    /// What the store handed over under the barrier.
    pub fn captured(&self) -> &StoreDelta {
        &self.delta
    }

    /// Step 2, no lock held: re-verify, merge, frame.
    pub fn assemble(self) -> Result<ReadyCheckpoint<'w>, WalError> {
        let CheckpointCut { writer, in_flight, cp_lsn, delta, table, base, sealed } = self;
        assert_off_lock("re-verifying sealed segments");
        // A frame that fails here is committed history about to be
        // dropped: refuse the checkpoint and quarantine instead.
        let mut lsn = sealed.first().map_or(cp_lsn, |s| s.base_lsn);
        for seg in &sealed {
            lsn = verify_sealed(&seg.bytes, lsn, seg.seq)?;
        }
        if lsn != cp_lsn {
            return Err(WalError::Corrupt {
                lsn,
                detail: format!("sealed segments end at lsn {lsn}, the cut is at {cp_lsn}"),
            });
        }
        let mut changes: Vec<Change<'_>> = delta
            .objects
            .iter()
            .map(|o| (o.id.0, Some(o)))
            .chain(delta.deleted.iter().map(|id| (id.0, None)))
            .collect();
        changes.sort_unstable_by_key(|c| c.0);
        let base = if delta.full { None } else { base.as_deref() };
        let next = merge(base, delta.token, cp_lsn, delta.next_id, &changes, &table);
        let sealed_through = sealed.last().map_or(0, |s| s.seq);
        Ok(ReadyCheckpoint { writer, in_flight, cp_lsn, next, sealed_through })
    }
}

impl ReadyCheckpoint<'_> {
    /// Step 3, a short state-lock section: make the image durable, swap
    /// it in and retire the segments sealed at the cut. A power failure
    /// since the cut (`Ok(None)`) or an fsync fault here leaves the
    /// previous image and every segment intact.
    pub fn install(self) -> Result<Option<CheckpointOutcome>, WalError> {
        let ReadyCheckpoint { writer: w, in_flight: _in_flight, cp_lsn, next, sealed_through } =
            self;
        let mut guard = w.state.lock();
        let st = &mut *guard;
        if st.dead {
            return Ok(None);
        }
        if st.poisoned.is_some() {
            return Err(WalError::Poisoned);
        }
        // Writing the image durably is itself a sync of the device: the
        // injected fsync fault applies, before anything is swapped in.
        st.checkpoints += 1;
        w.count_fsync(st, "checkpoint fsync")?;
        let _old_image = st.checkpoint.replace(Arc::clone(&next.image));
        st.checkpoint_persisted = false;
        let _old_base = st.base.replace(Arc::new(next));
        // Retire exactly what the cut sealed; the image is those records'
        // durable form now, synced or not. Later segments are untouched.
        let n = st.segments.partition_point(|s| s.seq <= sealed_through);
        let mut dropped: Vec<Segment> = st.segments.drain(..n).collect();
        let bytes_dropped = dropped.iter().map(Segment::len).sum();
        w.sync_dir(st)?;
        if let Some(dir) = &w.dir {
            for seg in &dropped {
                // The image synced above covers the file's records: one left
                // behind costs disk space until a new writer clears the dir.
                let _ = std::fs::remove_file(dir.join(segment_file_name(seg.seq)));
            }
        }
        if w.config.retain_for_audit {
            dropped.iter_mut().for_each(Segment::flush);
            st.truncated.append(&mut dropped);
        }
        // Megabytes go free here — the previous image, its index, the
        // retired segments: not while appenders wait for the lock.
        drop(guard);
        Ok(Some(CheckpointOutcome { cp_lsn, segments_dropped: n, bytes_dropped }))
    }
}

/// Decode and fully validate a checkpoint image.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<CheckpointImage, WalError> {
    fn fail(msg: &str) -> WalError {
        WalError::Checkpoint(msg.into())
    }
    assert_off_lock("decoding a checkpoint image");
    if bytes.len() < 12 {
        return Err(fail("image shorter than its frame header"));
    }
    if bytes[..4] != CHECKPOINT_MAGIC {
        return Err(fail("bad magic"));
    }
    let len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if bytes.len() != 12 + len {
        return Err(fail("payload length mismatch"));
    }
    let payload = &bytes[12..];
    if crc32(payload) != crc {
        return Err(fail("crc mismatch"));
    }
    let mut cur = Cursor { buf: payload, pos: 0 };
    decode_payload(&mut cur).ok_or_else(|| fail("undecodable payload")).and_then(|image| {
        if cur.pos == payload.len() {
            Ok(image)
        } else {
            Err(fail("trailing junk after payload"))
        }
    })
}

fn decode_payload(cur: &mut Cursor<'_>) -> Option<CheckpointImage> {
    let cp_lsn = cur.u64()?;
    let next_id = cur.u64()?;
    let n_objects = cur.u32()? as usize;
    let mut objects = Vec::with_capacity(n_objects.min(4096));
    for _ in 0..n_objects {
        let id = ObjectId(cur.u64()?);
        let type_id = TypeId(cur.u32()?);
        let version = cur.u64()?;
        let image = match cur.u8()? {
            0 => ObjectImage::Atomic(cur.value()?),
            1 => {
                let n = cur.u32()? as usize;
                let mut fields = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let name = cur.str()?;
                    fields.push((name, ObjectId(cur.u64()?)));
                }
                ObjectImage::Tuple(fields)
            }
            2 => {
                let n = cur.u32()? as usize;
                let mut pairs = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let key = cur.u64()?;
                    pairs.push((key, ObjectId(cur.u64()?)));
                }
                ObjectImage::Set(pairs)
            }
            _ => return None,
        };
        objects.push(ObjectDump { id, type_id, version, image });
    }
    let n_tops = cur.u32()? as usize;
    let mut table = BTreeMap::new();
    for _ in 0..n_tops {
        let top = cur.u64()?;
        let committed = cur.u8()? != 0;
        let aborted = cur.u8()? != 0;
        let n = cur.u32()? as usize;
        let mut committed_subtrees = BTreeSet::new();
        for _ in 0..n {
            committed_subtrees.insert(cur.u32()?);
        }
        let n = cur.u32()? as usize;
        let mut intents = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            intents.push(cur.invocation()?);
        }
        let n = cur.u32()? as usize;
        let mut orphan_intents = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let subtree = cur.u32()?;
            orphan_intents.push((subtree, cur.invocation()?));
        }
        let comp_applied = cur.u64()?;
        let last_lsn = cur.u64()?;
        let n = cur.u32()? as usize;
        let mut creations = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            creations.push(ObjectId(cur.u64()?));
        }
        let n = cur.u32()? as usize;
        let mut open_leaves = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let subtree = cur.u32()?;
            open_leaves.push((subtree, cur.invocation()?, cur.u8()? != 0));
        }
        table.insert(
            top,
            TopInfo {
                committed,
                aborted,
                committed_subtrees,
                intents,
                orphan_intents,
                comp_applied,
                last_lsn,
                creations,
                open_leaves,
            },
        );
    }
    Some(CheckpointImage { cp_lsn, dump: StoreDump { objects, next_id }, table })
}

#[cfg(test)]
mod tests {
    use super::super::testutil::sample_records;
    use super::*;
    use semcc_semantics::Value;

    fn sample_image() -> CheckpointImage {
        let dump = StoreDump {
            objects: vec![
                ObjectDump {
                    id: ObjectId(1),
                    type_id: TypeId(16),
                    version: 3,
                    image: ObjectImage::Atomic(Value::Money(-250)),
                },
                ObjectDump {
                    id: ObjectId(2),
                    type_id: TypeId(18),
                    version: 0,
                    image: ObjectImage::Set(vec![(5, ObjectId(9)), (7, ObjectId(12))]),
                },
                ObjectDump {
                    id: ObjectId(3),
                    type_id: TypeId(17),
                    version: 1,
                    image: ObjectImage::Tuple(vec![
                        ("OrderNo".into(), ObjectId(1)),
                        ("Items".into(), ObjectId(2)),
                    ]),
                },
            ],
            next_id: 44,
        };
        let mut table = BTreeMap::new();
        for (lsn, rec) in sample_records().iter().enumerate() {
            fold(&mut table, lsn as u64, rec);
        }
        table.retain(|_, info| info.unresolved());
        // Open at the cut, with leaves whose undo only the writer knows.
        let open_leaves = vec![
            (1, Invocation::remove(ObjectId(9), TypeId(18), 6), true),
            (1, Invocation::put(ObjectId(1), TypeId(16), Value::Int(4)), false),
        ];
        table.insert(3, TopInfo { open_leaves, ..TopInfo::default() });
        CheckpointImage { cp_lsn: 17, dump, table }
    }

    #[test]
    fn checkpoint_image_roundtrips() {
        let image = sample_image();
        let bytes = encode_checkpoint(&image);
        assert_eq!(decode_checkpoint(&bytes).unwrap(), image);
    }

    #[test]
    fn corrupt_checkpoint_is_a_typed_error() {
        let bytes = encode_checkpoint(&sample_image());
        for (i, expect) in
            [(0usize, "bad magic"), (20, "crc mismatch"), (bytes.len() - 1, "crc mismatch")]
        {
            let mut damaged = bytes.clone();
            damaged[i] ^= 0xFF;
            match decode_checkpoint(&damaged) {
                Err(WalError::Checkpoint(msg)) => {
                    assert!(msg.contains(expect), "byte {i}: {msg:?}")
                }
                other => panic!("byte {i}: expected checkpoint error, got {other:?}"),
            }
        }
        assert!(matches!(decode_checkpoint(&bytes[..8]), Err(WalError::Checkpoint(_))));
        let mut truncated = bytes.clone();
        truncated.pop();
        assert!(matches!(decode_checkpoint(&truncated), Err(WalError::Checkpoint(_))));
    }

    #[test]
    fn fold_matches_recovery_analysis_semantics() {
        let mut tops = BTreeMap::new();
        for (lsn, rec) in sample_records().iter().enumerate() {
            fold(&mut tops, lsn as u64, rec);
        }
        // sample_records: top 1 commits with one SubCommit (2 intents) and
        // a created tuple; top 2 aborts after two inverses marked applied,
        // a compensated insert by its own `CompRedo`, then a `CompApplied`.
        let t1 = &tops[&1];
        assert!(t1.committed && !t1.aborted);
        assert_eq!(t1.intents.len(), 2);
        assert_eq!(t1.creations, vec![ObjectId(40)]);
        assert!(t1.committed_subtrees.contains(&2));
        let t2 = &tops[&2];
        assert!(t2.aborted && !t2.committed);
        assert_eq!(t2.comp_applied, 2);
        // The recovery mark belongs to no transaction.
        assert!(!tops.contains_key(&0));
    }

    #[test]
    fn subcommit_supersedes_orphan_intents_and_unresolved_filter_works() {
        let inv = Invocation::remove(ObjectId(9), TypeId(18), 5);
        let mut tops = BTreeMap::new();
        fold(&mut tops, 0, &WalRecord::SubIntent { top: 7, subtree: 3, comp: vec![inv.clone()] });
        assert_eq!(tops[&7].orphan_intents.len(), 1);
        fold(&mut tops, 1, &WalRecord::SubCommit { top: 7, subtree: 3, comp: vec![inv.clone()] });
        assert!(tops[&7].orphan_intents.is_empty(), "aggregate comp supersedes");
        assert_eq!(tops[&7].intents.len(), 1);
        assert!(tops[&7].unresolved());
        fold(&mut tops, 2, &WalRecord::TopCommit { top: 7 });
        assert!(!tops[&7].unresolved());
    }

    /// A store dumps a tuple's components name-ascending, whatever order
    /// and repeats it was made with — the order of the component map the
    /// flat layout replaced — so the same store encodes to the same image.
    #[test]
    fn a_store_dump_encodes_tuples_name_ascending() {
        let pairs: Vec<(String, ObjectId)> =
            [("Status", 1), ("OrderNo", 2), ("Quantity", 3), ("OrderNo", 4)]
                .map(|(n, id)| (n.to_owned(), ObjectId(id)))
                .into();
        let store = semcc_objstore::MemoryStore::new();
        store.restore_tuple(ObjectId(5), TypeId(17), pairs.clone()).unwrap();
        let map: BTreeMap<String, ObjectId> = pairs.into_iter().collect();
        let expected = StoreDump {
            objects: vec![ObjectDump {
                id: ObjectId(5),
                type_id: TypeId(17),
                version: 0,
                image: ObjectImage::Tuple(map.into_iter().collect()),
            }],
            next_id: 6,
        };
        let image = |dump| CheckpointImage { cp_lsn: 1, dump, table: BTreeMap::new() };
        assert_eq!(encode_checkpoint(&image(store.dump())), encode_checkpoint(&image(expected)));
    }

    fn object(id: u64, seed: u8) -> ObjectDump {
        let image = match seed % 3 {
            0 => ObjectImage::Atomic(Value::Str("x".repeat(usize::from(seed % 7)))),
            1 => ObjectImage::Set((0..u64::from(seed % 4)).map(|k| (k, ObjectId(k + 1))).collect()),
            _ => ObjectImage::Tuple(vec![("f".into(), ObjectId(u64::from(seed)))]),
        };
        ObjectDump { id: ObjectId(id), type_id: TypeId(16), version: u64::from(seed), image }
    }

    proptest::proptest! {
        /// Merging rounds of upserts and tombstones into the previous
        /// image gives, byte for byte, the encoding of the merged dump —
        /// whatever is replaced, inserted (before, between, after),
        /// deleted, or deleted without ever having been there.
        #[test]
        fn merging_changes_equals_encoding_the_merged_dump(
            rounds in proptest::collection::vec(
                proptest::collection::vec((0u64..24, proptest::prelude::any::<u8>()), 0..12),
                1..6,
            ),
        ) {
            let mut model: BTreeMap<u64, ObjectDump> = BTreeMap::new();
            let mut base: Option<Base> = None;
            let table = sample_image().table;
            for (round, ops) in rounds.iter().enumerate() {
                let mut changed: BTreeMap<u64, Option<ObjectDump>> = BTreeMap::new();
                for &(id, seed) in ops {
                    changed.insert(id, (seed % 4 != 0).then(|| object(id, seed)));
                }
                for (id, od) in &changed {
                    match od {
                        Some(od) => model.insert(*id, od.clone()),
                        None => model.remove(id),
                    };
                }
                let changes: Vec<Change<'_>> =
                    changed.iter().map(|(id, od)| (*id, od.as_ref())).collect();
                let cp_lsn = round as u64;
                let next = merge(base.as_ref(), 9, cp_lsn, 77, &changes, &table);
                let dump = StoreDump { objects: model.values().cloned().collect(), next_id: 77 };
                let oracle =
                    encode_checkpoint(&CheckpointImage { cp_lsn, dump, table: table.clone() });
                proptest::prop_assert!(*next.image == oracle, "round {}", round);
                base = Some(next);
            }
        }
    }

    /// Wherever the cut falls in the log, the installed image carries the
    /// table a fold over the whole log (then the unresolved filter) gives
    /// — the writer folds as it appends instead of re-reading.
    #[test]
    fn the_appended_to_table_matches_folding_the_whole_log_at_every_cut() {
        use super::super::{FsyncPolicy, WalConfig};
        let recs = sample_records();
        let full = |_: Option<u64>| Some(StoreDelta::full(StoreDump::default()));
        // What encoding the fold of `recs[..cp_lsn]` gives.
        let oracle_at = |cp_lsn: usize| {
            let mut table = BTreeMap::new();
            for (lsn, rec) in recs[..cp_lsn].iter().enumerate() {
                fold(&mut table, lsn as u64, rec);
            }
            table.retain(|_, info| info.unresolved());
            CheckpointImage { cp_lsn: cp_lsn as u64, dump: StoreDump::default(), table }
        };
        let installed = |w: &WalWriter| w.surviving_image().checkpoint.expect("installed");
        let mut open_at_some_cut = false;
        for first_cut in 0..=recs.len() {
            let config = WalConfig { segment_bytes: 96, ..WalConfig::default() };
            let w = WalWriter::with_config(FsyncPolicy::Never, config);
            for (i, rec) in recs.iter().enumerate() {
                if i == first_cut {
                    w.checkpoint(full).unwrap().expect("checkpointed");
                    assert!(installed(&w) == encode_checkpoint(&oracle_at(i)), "cut at {i}");
                    open_at_some_cut |= !oracle_at(i).table.is_empty();
                }
                w.append(rec).unwrap();
            }
            w.checkpoint(full).unwrap().expect("checkpointed");
            let oracle = oracle_at(recs.len());
            assert!(installed(&w) == encode_checkpoint(&oracle), "first cut at {first_cut}");

            // A third one, by a writer resumed over the second's image.
            let resumed =
                WalWriter::resume(&w.surviving_image(), FsyncPolicy::Never, None, config).unwrap();
            resumed.append(&WalRecord::SubIntent { top: 5, subtree: 1, comp: vec![] }).unwrap();
            resumed
                .checkpoint(|since| {
                    assert_eq!(since, None, "a resumed writer has no base: full capture");
                    full(since)
                })
                .unwrap()
                .expect("checkpointed");
            let cp_lsn = oracle.cp_lsn;
            let mut oracle = oracle;
            fold(
                &mut oracle.table,
                cp_lsn,
                &WalRecord::SubIntent { top: 5, subtree: 1, comp: vec![] },
            );
            oracle.cp_lsn += 1;
            assert!(installed(&resumed) == encode_checkpoint(&oracle), "resumed, cut {first_cut}");
        }
        assert!(open_at_some_cut, "some cut must fall inside an open transaction");
    }
}
