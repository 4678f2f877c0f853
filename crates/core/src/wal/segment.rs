//! The segmented, checkpoint-aware log writer.
//!
//! The log is a sequence of fixed-target-size **segments** (rotated when
//! the active segment reaches [`WalConfig::segment_bytes`]), each a
//! contiguous run of framed records starting at a known base LSN. A
//! [fuzzy checkpoint](super::checkpoint) durably captures the store plus
//! the unresolved-transaction table, after which every sealed segment is
//! retired — disk stays bounded by one segment plus one checkpoint image
//! no matter how long the engine runs.
//!
//! **I/O-fault tolerance.** An injected [`IoFaultPoint`] makes an append
//! or fsync fail the way real devices fail. Any write or sync failure
//! *poisons* the log: after a failed fsync the durable state of the
//! buffered bytes is unknowable, so re-trying the sync could silently drop
//! acknowledged history (the "fsyncgate" class of bugs) — instead every
//! subsequent append returns [`WalError::Poisoned`] and the engine
//! refuses every new transaction. Poisoning is *observable* (typed errors),
//! unlike the `dead` state [`WalWriter::power_fail`] leaves, which silently
//! swallows appends exactly as a dead machine would.
//!
//! **Commit barrier.** One lock, the writer state's, guards the segments,
//! the device and `durable_lsn`, the bound below which every record is
//! proven durable; every successful sync advances it to the next LSN.
//! Under [`FsyncPolicy::OnCommit`] a committer appends its resolution
//! frame, releases the lock, and takes it again for the barrier: a frame
//! below the watermark rode an earlier sync, any other pays for one that
//! covers every frame appended so far. Frames appended while a sync runs
//! wait for the lock and ride the next one.
//!
//! **Checkpoint barrier.** The engine applies a store mutation first and
//! appends its redo record second. The writer therefore exposes a
//! reader-writer barrier: every apply+append pair holds a read guard, and
//! [`WalWriter::checkpoint_cut`] holds the write guard across reading the
//! checkpoint LSN and capturing the store — making the cut exact (an
//! effect is in the capture iff its record's LSN is below the checkpoint
//! LSN). The checkpoint pipeline itself lives in [`super::checkpoint`].

use super::checkpoint::{fold_live, Base, TopInfo};
use super::{encode_frame, read_log_from, WalError, WalRecord};
use crate::fault::{FaultPlan, IoFaultPoint};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use semcc_semantics::Invocation;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// When the log forces its buffered appends to durable storage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never sync (fastest; a crash loses everything since the last
    /// explicit [`WalWriter::flush`]). The B2-overhead configuration.
    #[default]
    Never,
    /// Sync on every top-level commit or abort record (group durability).
    OnCommit,
    /// Sync after every append (slowest, smallest loss window).
    EveryAppend,
}

/// Writer configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalConfig {
    /// Rotate the active segment once it reaches this many bytes.
    pub segment_bytes: usize,
    /// Take a checkpoint automatically after this many appended bytes
    /// (`None`: only explicit [`Engine::checkpoint`](crate::Engine)
    /// calls checkpoint).
    pub checkpoint_bytes: Option<usize>,
    /// Keep checkpoint-retired segments in memory so audit harnesses can
    /// compare recover-from-checkpoint against recover-from-full-log.
    /// Production configurations leave this off — retired segments are
    /// dropped and their files deleted.
    pub retain_for_audit: bool,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig { segment_bytes: 64 << 10, checkpoint_bytes: None, retain_for_audit: false }
    }
}

/// What one append did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppendInfo {
    /// The record was accepted into the log (false once
    /// [`WalWriter::power_fail`] killed the device — a dead machine drops
    /// writes silently).
    pub appended: bool,
    /// This call paid for an fsync that made the buffer durable: the
    /// commit barrier found its record not yet covered, or the policy
    /// syncs inline.
    pub synced: bool,
    /// This record is proven durable. Implied by `synced`; additionally
    /// true for a commit whose frame a sync paid by another call already
    /// covered (a group-commit *follower*).
    pub durable: bool,
    /// The record's LSN (meaningless when not appended).
    pub lsn: u64,
    /// This append sealed the active segment and opened a new one.
    pub rotated: bool,
    /// Size of the appended frame in bytes (0 when not appended).
    pub bytes: usize,
}

/// One log segment's surviving bytes, for transport to recovery.
#[derive(Clone, Debug)]
pub struct SegmentImage {
    /// Rotation sequence number (ascending, gapless within an image).
    pub seq: u64,
    /// LSN of the segment's first record.
    pub base_lsn: u64,
    /// The raw framed bytes.
    pub bytes: Vec<u8>,
}

/// Everything a post-crash open would find on disk: the latest complete
/// checkpoint image (if any) and the retained segments.
#[derive(Clone, Debug, Default)]
pub struct LogImage {
    /// Encoded checkpoint image ([`super::checkpoint`] framing).
    pub checkpoint: Option<Vec<u8>>,
    /// Retained segments, any order (readers sort by `seq`).
    pub segments: Vec<SegmentImage>,
}

/// What one checkpoint accomplished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointOutcome {
    /// The checkpoint LSN (recovery replays records from here).
    pub cp_lsn: u64,
    /// Sealed segments retired by this checkpoint.
    pub segments_dropped: usize,
    /// Their total size in bytes.
    pub bytes_dropped: usize,
}

pub(super) struct Segment {
    pub(super) seq: u64,
    pub(super) base_lsn: u64,
    /// Every byte appended. Shared, because once the segment is sealed
    /// its content never changes (only a crash cuts the unsynced tail
    /// off, copy-on-write), so a checkpoint re-verifies it lock-free.
    pub(super) bytes: Arc<Vec<u8>>,
    /// Prefix of `bytes` that survived an fsync ("on disk"); the rest is
    /// buffered and lost on a crash. A sync only moves this mark.
    durable: usize,
    /// Prefix of the durable bytes already written to the backing file
    /// (dir-backed logs only): each sync writes just the delta — without
    /// this a sync would rewrite every live segment in full, making the
    /// per-commit cost grow with the log instead of with the batch.
    persisted: usize,
}

impl Segment {
    fn fresh(seq: u64, base_lsn: u64) -> Self {
        Segment { seq, base_lsn, bytes: Arc::default(), durable: 0, persisted: 0 }
    }

    pub(super) fn len(&self) -> usize {
        self.bytes.len()
    }

    /// An fsync reached the device: everything appended is durable.
    pub(super) fn flush(&mut self) {
        self.durable = self.bytes.len();
    }

    /// The machine died: the unsynced tail never reaches the device.
    fn drop_unsynced(&mut self) {
        if self.durable < self.bytes.len() {
            Arc::make_mut(&mut self.bytes).truncate(self.durable);
        }
    }

    /// What a reader finds: everything, or only what an fsync covered.
    fn visible(&self, durable_only: bool) -> &[u8] {
        &self.bytes[..if durable_only { self.durable } else { self.bytes.len() }]
    }

    fn image(&self, durable_only: bool) -> SegmentImage {
        let bytes = self.visible(durable_only).to_vec();
        SegmentImage { seq: self.seq, base_lsn: self.base_lsn, bytes }
    }
}

pub(super) struct WriterState {
    /// Live segments, seq-ascending; the last one is active.
    pub(super) segments: Vec<Segment>,
    /// Segments with a `seq` below this have no unsynced bytes, so a sync
    /// walks only the tail that can (the active segment and whatever was
    /// sealed since the last sync), not the whole live list.
    flushed_below: u64,
    /// Checkpoint-retired segments (kept only under
    /// [`WalConfig::retain_for_audit`]).
    pub(super) truncated: Vec<Segment>,
    /// Latest durable checkpoint image.
    pub(super) checkpoint: Option<Arc<Vec<u8>>>,
    /// The checkpoint image has reached the backing directory (dir-backed
    /// logs only): it is immutable once taken, so it is written once, not
    /// on every sync.
    pub(super) checkpoint_persisted: bool,
    /// What the next checkpoint merges its capture into (`None` until one
    /// was installed by *this* writer: the next capture is a full one).
    pub(super) base: Option<Arc<Base>>,
    /// Analysis state of every transaction unresolved at `next_lsn`,
    /// folded forward by each append — the checkpoint's intent table is a
    /// copy of this, not a re-read of the log.
    pub(super) table: BTreeMap<u64, TopInfo>,
    pub(super) next_lsn: u64,
    /// Every record below this LSN is proven durable: the last successful
    /// sync covered it. It only grows, and only on a sync.
    durable_lsn: u64,
    next_seq: u64,
    /// [`WalWriter::power_fail`] killed the device (appends drop silently).
    pub(super) dead: bool,
    /// An I/O failure poisoned the log (appends fail loudly).
    pub(super) poisoned: Option<WalError>,
    /// Appends attempted, the ordinal an [`IoFaultPoint`] names.
    total_appends: u64,
    pub(super) fsyncs: u64,
    pub(super) checkpoints: u64,
}

impl WriterState {
    /// An I/O failure poisons the log: keep its cause, hand it back.
    fn poison(&mut self, err: WalError) -> WalError {
        self.poisoned = Some(err.clone());
        err
    }

    /// The simulated machine died: appends drop silently from here on and
    /// nothing buffered reaches the device.
    fn die(&mut self) {
        self.dead = true;
        for seg in &mut self.segments {
            seg.drop_unsynced();
        }
    }

    /// The device took everything queued plus `partial`, a frame's torn
    /// prefix, before it stopped.
    fn write_torn(&mut self, partial: &[u8]) {
        let active = self.segments.last_mut().expect("always one active segment");
        Arc::make_mut(&mut active.bytes).extend_from_slice(partial);
        self.segments.iter_mut().for_each(Segment::flush);
    }
}

/// The segmented log writer. See the module docs for the design; after
/// [`WalWriter::power_fail`] appends are *silently* dropped, exactly as a
/// crashed machine would drop them.
///
/// The backing device is an in-memory byte image by default; a writer
/// built with [`WalWriter::with_dir`] additionally persists every synced
/// byte to sequence-numbered `wal-NNNNNN.seg` files plus a
/// `checkpoint.img`, deleting retired segment files as checkpoints
/// advance.
pub struct WalWriter {
    pub(super) config: WalConfig,
    policy: FsyncPolicy,
    faults: Option<Arc<FaultPlan>>,
    pub(super) dir: Option<PathBuf>,
    pub(super) state: Mutex<WriterState>,
    /// The apply/append-vs-checkpoint barrier (module docs).
    pub(super) barrier: RwLock<()>,
    /// Bytes appended since the last checkpoint cut (the cadence counter;
    /// an atomic so the per-transaction cadence check takes no lock).
    pub(super) since_checkpoint: AtomicUsize,
    /// Held from a checkpoint's cut to its install (single flight).
    pub(super) checkpointing: Mutex<()>,
}

impl WalWriter {
    fn build(
        policy: FsyncPolicy,
        config: WalConfig,
        faults: Option<Arc<FaultPlan>>,
        dir: Option<PathBuf>,
    ) -> WalWriter {
        WalWriter {
            config,
            policy,
            faults,
            dir,
            state: Mutex::new(WriterState {
                segments: vec![Segment::fresh(0, 0)],
                flushed_below: 0,
                truncated: Vec::new(),
                checkpoint: None,
                checkpoint_persisted: false,
                base: None,
                table: BTreeMap::new(),
                next_lsn: 0,
                durable_lsn: 0,
                next_seq: 1,
                dead: false,
                poisoned: None,
                total_appends: 0,
                fsyncs: 0,
                checkpoints: 0,
            }),
            barrier: RwLock::new(()),
            since_checkpoint: AtomicUsize::new(0),
            checkpointing: Mutex::new(()),
        }
    }

    /// A fresh in-memory log with the default configuration.
    pub fn new(policy: FsyncPolicy) -> Arc<Self> {
        Arc::new(Self::build(policy, WalConfig::default(), None, None))
    }

    /// A fresh in-memory log with an explicit configuration.
    pub fn with_config(policy: FsyncPolicy, config: WalConfig) -> Arc<Self> {
        Arc::new(Self::build(policy, config, None, None))
    }

    /// [`WalWriter::with_config`] plus a fault plan: the device fails at
    /// the plan's [`IoFaultPoint`], if set.
    pub fn with_config_and_faults(
        policy: FsyncPolicy,
        config: WalConfig,
        faults: Arc<FaultPlan>,
    ) -> Arc<Self> {
        Arc::new(Self::build(policy, config, Some(faults), None))
    }

    /// A log that also persists synced bytes to segment files under
    /// `dir` (created if missing; stale `wal-*.seg` / `checkpoint.img`
    /// files from a previous run are removed first).
    pub fn with_dir(
        policy: FsyncPolicy,
        config: WalConfig,
        dir: &Path,
    ) -> std::io::Result<Arc<Self>> {
        std::fs::create_dir_all(dir)?;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if (name.starts_with("wal-") && name.ends_with(".seg")) || name == "checkpoint.img" {
                std::fs::remove_file(entry.path())?;
            }
        }
        Ok(Arc::new(Self::build(policy, config, None, Some(dir.to_path_buf()))))
    }

    /// Re-open a writer over a surviving [`LogImage`] — the audits'
    /// "restart the machine" primitive. The image is validated
    /// (quarantined corruption is refused), the torn tail is cut — the
    /// partial frame, and the empty segments rotation left behind it
    /// (exactly what a real open does before appending) — and the
    /// writer continues appending after the last surviving record with
    /// the carried-over checkpoint intact. Counters start from zero, and
    /// so does the checkpoint base: the next checkpoint captures in full.
    pub fn resume(
        image: &LogImage,
        policy: FsyncPolicy,
        faults: Option<Arc<FaultPlan>>,
        config: WalConfig,
    ) -> Result<Arc<Self>, WalError> {
        let parsed = super::read_image(image)?;
        let mut segments: Vec<Segment> = image
            .in_order()
            .into_iter()
            .map(|s| {
                let out = read_log_from(&s.bytes, s.base_lsn);
                let valid = s.bytes.len() - out.truncated_bytes;
                Segment {
                    seq: s.seq,
                    base_lsn: s.base_lsn,
                    bytes: Arc::new(s.bytes[..valid].to_vec()),
                    durable: valid,
                    persisted: 0,
                }
            })
            .collect();
        let next_lsn = parsed.base_lsn + parsed.records.len() as u64;
        while segments.len() > 1
            && segments.last().is_some_and(|s| s.bytes.is_empty() && s.base_lsn != next_lsn)
        {
            segments.pop();
        }
        if segments.is_empty() {
            let base = parsed.checkpoint.as_ref().map_or(0, |cp| cp.cp_lsn);
            segments.push(Segment::fresh(0, base));
        }
        let mut table = parsed.checkpoint.map(|cp| cp.table).unwrap_or_default();
        for (i, rec) in parsed.records.iter().enumerate() {
            fold_live(&mut table, parsed.base_lsn + i as u64, rec);
        }
        let w = Self::build(policy, config, faults, None);
        {
            let mut st = w.state.lock();
            st.next_lsn = next_lsn;
            st.durable_lsn = next_lsn;
            st.next_seq = segments.last().map_or(0, |s| s.seq) + 1;
            st.segments = segments;
            st.checkpoint = image.checkpoint.clone().map(Arc::new);
            st.table = table;
        }
        Ok(Arc::new(w))
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// The writer configuration.
    pub fn config(&self) -> WalConfig {
        self.config
    }

    /// Hold the apply+append side of the checkpoint barrier. The engine
    /// takes this around every store-mutation/record-append pair so a
    /// concurrent checkpoint's cut is exact.
    pub fn checkpoint_guard(&self) -> RwLockReadGuard<'_, ()> {
        self.barrier.read()
    }

    /// Whether the byte-cadence configuration says it is time for the
    /// engine to take a checkpoint. Lock-free (asked after every
    /// transaction); a dead or poisoned log stops counting, and the one
    /// checkpoint attempt it may still trigger resets the counter.
    pub fn wants_checkpoint(&self) -> bool {
        let Some(threshold) = self.config.checkpoint_bytes else { return false };
        self.since_checkpoint.load(Ordering::Relaxed) >= threshold
    }

    /// Append one record, syncing and rotating per configuration.
    ///
    /// Failure surface: a device killed by [`WalWriter::power_fail`]
    /// yields `Ok(appended: false)` (silent, like a dead machine); a
    /// poisoned or injected-faulty device yields a typed [`WalError`].
    ///
    /// Under [`FsyncPolicy::OnCommit`], a `TopCommit`/`TopAbort` append
    /// then passes the commit barrier (module docs): it pays for a sync
    /// only if no sync since its append covered it. The call returns once
    /// the record is proven durable (`durable: true`), the machine lost
    /// power (`durable: false`, silent), or the log is poisoned (typed
    /// `Err`, so no frame behind a failed sync is ever acknowledged).
    pub fn append(&self, rec: &WalRecord) -> Result<AppendInfo, WalError> {
        self.append_inner(rec, None, &[]).map(|(info, _)| info)
    }

    /// [`WalWriter::append`] for a forward `LeafRedo`, with the inverse of
    /// what the leaf did. The record carries no undo; the writer keeps
    /// `undo` in its table until the leaf's subtree commits, so that a
    /// checkpoint cut in between, whose dump holds the leaf, can take it
    /// along ([`TopInfo::open_leaves`]).
    pub fn append_leaf(
        &self,
        rec: &WalRecord,
        undo: &[Invocation],
    ) -> Result<AppendInfo, WalError> {
        self.append_inner(rec, None, undo).map(|(info, _)| info)
    }

    /// A user method of `top` ended — a deeper one committed or any one
    /// failed: the leaves [`WalWriter::append_leaf`] logged for `top`'s
    /// open subtrees from the `from`-th on are exposed. Called before the
    /// method's locks change hands, so no checkpoint ever carries an
    /// inverse that could overwrite a later writer.
    pub fn expose_leaves(&self, top: u64, from: usize) {
        if let Some(info) = self.state.lock().table.get_mut(&top) {
            info.open_leaves.iter_mut().skip(from).for_each(|leaf| leaf.2 = true);
        }
    }

    /// [`WalWriter::append`] for commit records that must draw a
    /// commit-sequence number in **log order**: `seq` is invoked exactly
    /// once, under the writer state lock, immediately after the record
    /// receives its LSN — so ascending LSN implies ascending sequence
    /// number, and snapshot-read validation order equals durable commit
    /// order even when a group batch reorders wakeups. The hook also runs
    /// on the silent dead-device path (the engine still resolves the
    /// transaction locally); it does **not** run when the append fails
    /// typed, since the commit is then never acknowledged.
    pub fn append_commit(
        &self,
        rec: &WalRecord,
        seq: impl FnOnce() -> u64,
    ) -> Result<(AppendInfo, u64), WalError> {
        let mut seq = Some(seq);
        let mut hook = move || (seq.take().expect("seq hook runs once"))();
        self.append_inner(rec, Some(&mut hook), &[])
            .map(|(info, seq)| (info, seq.expect("commit append draws a sequence number")))
    }

    fn append_inner(
        &self,
        rec: &WalRecord,
        mut seq_hook: Option<&mut dyn FnMut() -> u64>,
        undo: &[Invocation],
    ) -> Result<(AppendInfo, Option<u64>), WalError> {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        if st.dead {
            let seq = seq_hook.as_mut().map(|h| h());
            return Ok((
                AppendInfo {
                    appended: false,
                    synced: false,
                    durable: false,
                    lsn: st.next_lsn,
                    rotated: false,
                    bytes: 0,
                },
                seq,
            ));
        }
        if st.poisoned.is_some() {
            // The original cause is kept in `poisoned()`; later appends
            // get the distinct marker error.
            return Err(WalError::Poisoned);
        }
        st.total_appends += 1;
        let io = self.faults.as_ref().and_then(|p| p.io());
        match io {
            Some(IoFaultPoint::AppendError { nth }) if st.total_appends == nth => {
                return Err(st.poison(WalError::Io(format!("EIO on append #{nth}"))));
            }
            Some(IoFaultPoint::ShortWrite { nth, keep }) if st.total_appends == nth => {
                // A prefix of the frame reached the durable medium before
                // the device errored; the log is poisoned — the partial
                // frame becomes the torn tail a later open truncates.
                let frame = encode_frame(st.next_lsn, rec);
                let keep = keep.clamp(1, frame.len().saturating_sub(1));
                st.write_torn(&frame[..keep]);
                // The log is poisoned below either way, and a directory
                // without the torn prefix is a crash image too.
                let _ = self.sync_dir(st);
                let err = format!("short write on append #{nth}: {keep}/{}", frame.len());
                return Err(st.poison(WalError::Io(err)));
            }
            _ => {}
        }
        let lsn = st.next_lsn;
        let mut frame = encode_frame(lsn, rec);
        if let Some(IoFaultPoint::CorruptFrame { nth }) = io {
            if st.total_appends == nth {
                // Latent corruption: the device accepts the write but
                // flips a payload bit. Nothing fails here — the damage is
                // caught by the verified read path or checkpoint analysis.
                let n = frame.len();
                frame[n - 1] ^= 0xFF;
            }
        }
        let bytes = frame.len();
        let active = st.segments.last_mut().expect("always one active segment");
        Arc::make_mut(&mut active.bytes).extend_from_slice(&frame);
        st.next_lsn += 1;
        fold_live(&mut st.table, lsn, rec);
        if let (WalRecord::LeafRedo { top, subtree, .. }, false) = (rec, undo.is_empty()) {
            let open = &mut st.table.get_mut(top).expect("folded above").open_leaves;
            open.extend(undo.iter().map(|inv| (*subtree, inv.clone(), false)));
        }
        self.since_checkpoint.fetch_add(bytes, Ordering::Relaxed);
        // Commit-sequence linearization point: the record holds its LSN
        // and the state lock serializes us against every other append, so
        // drawing the number here makes LSN order == sequence order.
        let seq = seq_hook.as_mut().map(|h| h());
        let group_wait = self.policy == FsyncPolicy::OnCommit
            && matches!(rec, WalRecord::TopCommit { .. } | WalRecord::TopAbort { .. });
        let synced = self.policy == FsyncPolicy::EveryAppend;
        if synced {
            self.sync_locked(st)?;
        }
        let rotated = st.segments.last().expect("active").len() >= self.config.segment_bytes;
        if rotated {
            self.rotate_locked(st);
        }
        drop(guard);
        if group_wait {
            let (synced, durable) = self.commit_barrier(lsn)?;
            return Ok((AppendInfo { appended: true, synced, durable, lsn, rotated, bytes }, seq));
        }
        Ok((AppendInfo { appended: true, synced, durable: synced, lsn, rotated, bytes }, seq))
    }

    /// The commit barrier: make the record at `lsn` durable. Returns
    /// `(synced, durable)`: `(false, true)` when an earlier sync already
    /// covered it, `(true, true)` when this call paid for the sync,
    /// `(false, false)` once the machine lost power (silently
    /// un-acknowledged, like any dead-device append). A poisoned log, or
    /// a sync that fails here, fails the call typed.
    fn commit_barrier(&self, lsn: u64) -> Result<(bool, bool), WalError> {
        let mut st = self.state.lock();
        // Durability first: a record synced before a *later* failure is
        // still a valid acknowledgment.
        if lsn < st.durable_lsn {
            Ok((false, true))
        } else if st.dead {
            Ok((false, false))
        } else if st.poisoned.is_some() {
            // Our buffered frame is part of the unknowable loss.
            Err(WalError::Poisoned)
        } else {
            self.sync_locked(&mut st).map(|()| (true, true))
        }
    }

    /// Force buffered appends to durable storage. Returns `false` once
    /// the device is dead or poisoned (including when this very call hits
    /// the injected fsync fault).
    pub fn flush(&self) -> bool {
        let mut st = self.state.lock();
        if st.dead || st.poisoned.is_some() {
            return false;
        }
        self.sync_locked(&mut st).is_ok()
    }

    pub(super) fn rotate_locked(&self, st: &mut WriterState) {
        let seq = st.next_seq;
        st.next_seq += 1;
        st.segments.push(Segment::fresh(seq, st.next_lsn));
        if let Some(dir) = &self.dir {
            // Materialize the fresh segment eagerly so the directory
            // always mirrors the live segment list (best-effort: the next
            // sync retries, and a real failure there poisons the log).
            let _ = write_file(&dir.join(segment_file_name(seq)), &[]);
        }
    }

    /// Sync every buffered byte; on success every record appended so far
    /// is durable, and `durable_lsn` says so.
    fn sync_locked(&self, st: &mut WriterState) -> Result<(), WalError> {
        self.count_fsync(st, "fsync")?;
        let flushed_below = st.flushed_below;
        st.segments
            .iter_mut()
            .rev()
            .take_while(|s| s.seq >= flushed_below)
            .for_each(Segment::flush);
        st.flushed_below = st.segments.last().expect("always one active segment").seq;
        self.sync_dir(st)?;
        st.durable_lsn = st.next_lsn;
        Ok(())
    }

    /// Count one device sync, and fail it if it is the one the fault
    /// plan's injected fsync error names. A failed sync leaves unknowable
    /// whether any buffered byte reached the platter, so the buffer counts
    /// as lost and the log is poisoned (fsyncgate). `what` names the sync
    /// in the error.
    pub(super) fn count_fsync(&self, st: &mut WriterState, what: &str) -> Result<(), WalError> {
        st.fsyncs += 1;
        match self.faults.as_ref().and_then(|p| p.io()) {
            Some(IoFaultPoint::FsyncError { nth }) if st.fsyncs == nth => {
                Err(st.poison(WalError::Io(format!("{what} failed (fsync #{nth})"))))
            }
            _ => Ok(()),
        }
    }

    /// Persist newly-durable bytes to the backing directory, if any.
    /// Incremental: the durable prefix never shrinks, so each segment file
    /// is appended with just the delta since the last successful sync, and
    /// the (immutable) checkpoint image is written once — the cost of a
    /// sync is proportional to the batch it covers, not to the size of
    /// the live log. Real file I/O errors are typed, surfaced, and poison
    /// the log.
    pub(super) fn sync_dir(&self, st: &mut WriterState) -> Result<(), WalError> {
        self.persist(st).map_err(|e| st.poison(e))
    }

    fn persist(&self, st: &mut WriterState) -> Result<(), WalError> {
        let Some(dir) = &self.dir else { return Ok(()) };
        if let Some(cp) = &st.checkpoint {
            if !st.checkpoint_persisted {
                write_file(&dir.join("checkpoint.img"), cp)?;
                st.checkpoint_persisted = true;
            }
        }
        for seg in &mut st.segments {
            if seg.persisted < seg.durable {
                append_file(
                    &dir.join(segment_file_name(seg.seq)),
                    seg.persisted as u64,
                    &seg.bytes[seg.persisted..seg.durable],
                )?;
                seg.persisted = seg.durable;
            }
        }
        Ok(())
    }

    /// Did [`WalWriter::power_fail`] kill the device?
    pub fn crashed(&self) -> bool {
        self.state.lock().dead
    }

    /// Externally-driven power failure: mark the writer dead — every
    /// later append is silently dropped, like a dead machine — and
    /// discard buffered-but-unsynced bytes, so
    /// [`WalWriter::surviving_image`] returns exactly what a post-crash
    /// open would find on the device — the one way a writer dies. Every
    /// image a crash can leave behind is also a byte prefix of the
    /// finished log, which the audits cut with
    /// [`LogImage::cut`](super::LogImage::cut).
    pub fn power_fail(&self) {
        self.state.lock().die();
    }

    /// The poisoning error, if an I/O failure poisoned the log.
    pub fn poisoned(&self) -> Option<WalError> {
        self.state.lock().poisoned.clone()
    }

    /// LSN of the next append (= records accepted so far, plus the resume
    /// base).
    pub fn appended(&self) -> u64 {
        self.state.lock().next_lsn
    }

    /// fsyncs issued so far (including one an injected fault failed).
    pub fn fsyncs(&self) -> u64 {
        self.state.lock().fsyncs
    }

    /// Checkpoints attempted so far.
    pub fn checkpoints_taken(&self) -> u64 {
        self.state.lock().checkpoints
    }

    /// Current log footprint: live segment bytes plus the checkpoint
    /// image. With checkpointing this stays bounded regardless of run
    /// length; without it, it grows with the workload.
    pub fn retained_bytes(&self) -> usize {
        let st = self.state.lock();
        st.segments.iter().map(Segment::len).sum::<usize>()
            + st.checkpoint.as_ref().map_or(0, |cp| cp.len())
    }

    /// The [`LogImage`] a post-crash open would find: the latest complete
    /// checkpoint plus the retained segments — durable bytes only after a
    /// crash or poisoning, everything otherwise (a clean shutdown flushes
    /// implicitly).
    pub fn surviving_image(&self) -> LogImage {
        let st = self.state.lock();
        let halted = st.dead || st.poisoned.is_some();
        LogImage {
            checkpoint: st.checkpoint.as_deref().cloned(),
            segments: st.segments.iter().map(|s| s.image(halted)).collect(),
        }
    }

    /// The full-history image: every segment ever written, including the
    /// checkpoint-retired ones, with **no** checkpoint — what recovery
    /// would see had no checkpoint ever been taken. Only available under
    /// [`WalConfig::retain_for_audit`]; the checkpoint-parity differential
    /// recovers from both images and demands identical states.
    pub fn surviving_full_image(&self) -> LogImage {
        let st = self.state.lock();
        let halted = st.dead || st.poisoned.is_some();
        LogImage {
            checkpoint: None,
            segments: st
                .truncated
                .iter()
                .chain(st.segments.iter())
                .map(|s| s.image(halted))
                .collect(),
        }
    }
}

pub(super) fn segment_file_name(seq: u64) -> String {
    format!("wal-{seq:06}.seg")
}

fn write_file(path: &Path, bytes: &[u8]) -> Result<(), WalError> {
    let io_err =
        |what: &str, e: std::io::Error| WalError::Io(format!("{what} {}: {e}", path.display()));
    let mut f = std::fs::File::create(path).map_err(|e| io_err("create", e))?;
    f.write_all(bytes).map_err(|e| io_err("write", e))?;
    f.sync_data().map_err(|e| io_err("fsync", e))?;
    Ok(())
}

/// Write `bytes` at `offset` and fsync. `offset` is always the current
/// length of the file (the persisted prefix of the segment), so this is
/// an append that never rewrites already-durable bytes.
fn append_file(path: &Path, offset: u64, bytes: &[u8]) -> Result<(), WalError> {
    use std::io::{Seek, SeekFrom};
    let io_err =
        |what: &str, e: std::io::Error| WalError::Io(format!("{what} {}: {e}", path.display()));
    let mut f = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(|e| io_err("open", e))?;
    f.seek(SeekFrom::Start(offset)).map_err(|e| io_err("seek", e))?;
    f.write_all(bytes).map_err(|e| io_err("write", e))?;
    f.sync_data().map_err(|e| io_err("fsync", e))?;
    Ok(())
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        write!(
            f,
            "WalWriter(policy = {:?}, lsn = {}, segments = {}, checkpoints = {}, fsyncs = {}, \
             dead = {}, poisoned = {})",
            self.policy,
            st.next_lsn,
            st.segments.len(),
            st.checkpoints,
            st.fsyncs,
            st.dead,
            st.poisoned.is_some()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::super::read_image;
    use super::super::testutil::sample_records;
    use super::*;
    use crate::fault::FaultSpec;
    use semcc_semantics::{StoreDelta, StoreDump};
    use std::collections::BTreeSet;

    /// The capture of a store with nothing in it.
    fn empty_store(_since: Option<u64>) -> Option<StoreDelta> {
        Some(StoreDelta::full(StoreDump::default()))
    }

    fn small_config() -> WalConfig {
        WalConfig { segment_bytes: 96, ..WalConfig::default() }
    }

    fn plan_io(point: IoFaultPoint) -> Arc<FaultPlan> {
        FaultPlan::new(1, FaultSpec::default().with_io(point))
    }

    #[test]
    fn rotation_seals_segments_and_reads_back_in_order() {
        let w = WalWriter::with_config(FsyncPolicy::Never, small_config());
        let recs = sample_records();
        let mut rotations = 0;
        for rec in &recs {
            if w.append(rec).unwrap().rotated {
                rotations += 1;
            }
        }
        assert!(rotations >= 1, "96-byte segments must rotate on these records");
        let image = w.surviving_image();
        assert_eq!(image.segments.len(), rotations + 1);
        for pair in image.segments.windows(2) {
            assert_eq!(pair[0].seq + 1, pair[1].seq);
            assert!(pair[0].base_lsn < pair[1].base_lsn);
        }
        let parsed = read_image(&image).unwrap();
        assert_eq!(parsed.records, recs);
        assert_eq!(parsed.base_lsn, 0);
    }

    #[test]
    fn checkpoint_retires_sealed_segments_and_bounds_the_log() {
        let w = WalWriter::with_config(FsyncPolicy::Never, small_config());
        let recs = sample_records();
        for rec in &recs {
            w.append(rec).unwrap();
        }
        let before = w.retained_bytes();
        let outcome = w.checkpoint(empty_store).unwrap().expect("store offered a dump");
        assert_eq!(outcome.cp_lsn, recs.len() as u64);
        assert!(outcome.segments_dropped >= 2, "sealed + just-sealed active");
        assert!(outcome.bytes_dropped > 0);
        let image = w.surviving_image();
        assert!(image.checkpoint.is_some());
        assert_eq!(image.segments.len(), 1, "only the fresh active segment remains");
        assert_eq!(image.segments[0].base_lsn, outcome.cp_lsn);
        let parsed = read_image(&image).unwrap();
        assert_eq!(parsed.records.len(), 0);
        assert_eq!(parsed.checkpoint.unwrap().cp_lsn, outcome.cp_lsn);
        // Appends continue at the post-checkpoint LSN.
        let info = w.append(&WalRecord::TopCommit { top: 9 }).unwrap();
        assert_eq!(info.lsn, outcome.cp_lsn);
        assert!(w.retained_bytes() < before + 200, "log stays bounded by cp image + tail");
    }

    #[test]
    fn retain_for_audit_preserves_the_full_history() {
        let config = WalConfig { retain_for_audit: true, ..small_config() };
        let w = WalWriter::with_config(FsyncPolicy::Never, config);
        let recs = sample_records();
        for rec in &recs {
            w.append(rec).unwrap();
        }
        w.checkpoint(empty_store).unwrap().expect("checkpointed");
        w.append(&WalRecord::TopCommit { top: 9 }).unwrap();
        let full = w.surviving_full_image();
        assert!(full.checkpoint.is_none());
        let parsed = read_image(&full).unwrap();
        assert_eq!(parsed.records.len(), recs.len() + 1);
        assert_eq!(parsed.base_lsn, 0);
    }

    #[test]
    fn append_error_poisons_the_log() {
        let w = WalWriter::with_config_and_faults(
            FsyncPolicy::EveryAppend,
            WalConfig::default(),
            plan_io(IoFaultPoint::AppendError { nth: 2 }),
        );
        let rec = WalRecord::TopCommit { top: 1 };
        assert!(w.append(&rec).unwrap().appended);
        let err = w.append(&rec).unwrap_err();
        assert!(matches!(err, WalError::Io(_)), "got {err:?}");
        // Poisoned, not dead: every further append fails loudly.
        assert!(!w.crashed());
        assert_eq!(w.append(&rec).unwrap_err(), WalError::Poisoned);
        assert!(!w.flush());
        assert_eq!(w.poisoned(), Some(err));
        // The pre-fault prefix is still readable.
        assert_eq!(read_image(&w.surviving_image()).unwrap().records.len(), 1);
    }

    #[test]
    fn fsync_failure_poisons_and_loses_the_buffer() {
        let w = WalWriter::with_config_and_faults(
            FsyncPolicy::OnCommit,
            WalConfig::default(),
            plan_io(IoFaultPoint::FsyncError { nth: 2 }),
        );
        let leaf = &sample_records()[0];
        w.append(leaf).unwrap();
        assert!(w.append(&WalRecord::TopCommit { top: 1 }).unwrap().synced);
        w.append(leaf).unwrap();
        let err = w.append(&WalRecord::TopCommit { top: 2 }).unwrap_err();
        assert!(matches!(err, WalError::Io(_)));
        // Only the first synced group is trustworthy.
        let parsed = read_image(&w.surviving_image()).unwrap();
        assert_eq!(parsed.records.len(), 2);
        assert!(matches!(parsed.records[1], WalRecord::TopCommit { top: 1 }));
    }

    #[test]
    fn short_write_leaves_a_poisoned_torn_tail() {
        let w = WalWriter::with_config_and_faults(
            FsyncPolicy::EveryAppend,
            WalConfig::default(),
            plan_io(IoFaultPoint::ShortWrite { nth: 3, keep: 6 }),
        );
        let recs = sample_records();
        let mut failed = 0;
        for rec in &recs[..3] {
            match w.append(rec) {
                Ok(info) => assert!(info.appended),
                Err(WalError::Io(_)) => failed += 1,
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(failed, 1);
        let image = w.surviving_image();
        let parsed = read_image(&image).unwrap();
        assert_eq!(parsed.records.len(), 2, "torn third record truncates");
        assert_eq!(parsed.truncated_bytes, 6);
    }

    #[test]
    fn corrupt_frame_is_latent_and_caught_by_checkpoint_analysis() {
        let w = WalWriter::with_config_and_faults(
            FsyncPolicy::Never,
            WalConfig::default(),
            plan_io(IoFaultPoint::CorruptFrame { nth: 2 }),
        );
        let recs = sample_records();
        for rec in &recs {
            assert!(w.append(rec).unwrap().appended, "corruption is silent at append time");
        }
        assert!(w.poisoned().is_none());
        // The verified read quarantines the mid-log damage...
        let err = read_image(&w.surviving_image()).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { lsn: 1, .. }), "got {err:?}");
        // ...and a checkpoint refuses to drop the damaged history: it is
        // quarantined after the cut but before anything is retired.
        let retained = |w: &WalWriter| -> Vec<u8> {
            w.surviving_image().segments.into_iter().flat_map(|s| s.bytes).collect()
        };
        let bytes_before = retained(&w);
        let err = w.checkpoint(empty_store).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { lsn: 1, .. }), "got {err:?}");
        assert!(w.surviving_image().checkpoint.is_none(), "no image installed");
        assert_eq!(retained(&w), bytes_before, "every segment still there");
        assert_eq!(w.checkpoints_taken(), 0);
        // Refused, not poisoned — and not stuck in flight either.
        assert!(w.poisoned().is_none());
        assert!(matches!(w.checkpoint(empty_store), Err(WalError::Corrupt { .. })));
    }

    #[test]
    fn a_sync_reaches_unsynced_bytes_behind_an_empty_sealed_segment() {
        // Every append fills its segment. After a first sync, a leaf sits
        // unsynced in a sealed segment A, the active one, B, is empty, and
        // a cut seals B too. The next sync must still reach back to A.
        let leaf = &sample_records()[0];
        let config = WalConfig { segment_bytes: 1, ..WalConfig::default() };
        let w = WalWriter::with_config(FsyncPolicy::OnCommit, config);
        assert!(w.append(&WalRecord::TopCommit { top: 0 }).unwrap().durable);
        assert!(w.append(leaf).unwrap().rotated);
        drop(w.checkpoint_cut(empty_store).unwrap().expect("healthy log"));
        assert!(w.append(&WalRecord::TopCommit { top: 1 }).unwrap().durable);
        w.power_fail();
        assert_eq!(read_image(&w.surviving_image()).unwrap().records.len(), 3);
        // And a sync is not charged for the segments before the tail: 40
        // more commits leave 40 more sealed segments, each flushed once.
        let w = WalWriter::with_config(FsyncPolicy::OnCommit, config);
        for top in 0..40 {
            assert!(w.append(&WalRecord::TopCommit { top }).unwrap().durable);
            assert_eq!(w.state.lock().flushed_below, top + 1);
        }
    }

    #[test]
    fn resume_continues_lsns_and_carries_the_checkpoint() {
        let w = WalWriter::with_config(FsyncPolicy::EveryAppend, small_config());
        let recs = sample_records();
        for rec in &recs {
            w.append(rec).unwrap();
        }
        w.checkpoint(empty_store).unwrap().expect("checkpointed");
        w.append(&WalRecord::TopCommit { top: 9 }).unwrap();
        let image = w.surviving_image();

        let r = WalWriter::resume(&image, FsyncPolicy::EveryAppend, None, small_config()).unwrap();
        assert_eq!(r.appended(), recs.len() as u64 + 1);
        let info = r.append(&WalRecord::TopAbort { top: 9 }).unwrap();
        assert_eq!(info.lsn, recs.len() as u64 + 1);
        let parsed = read_image(&r.surviving_image()).unwrap();
        assert_eq!(parsed.base_lsn, recs.len() as u64);
        assert_eq!(parsed.records.len(), 2);
        assert!(parsed.checkpoint.is_some());
    }

    /// A cut one record and five bytes into a rotated log: the torn frame
    /// and the empty segments behind it are cut at open, and the next
    /// append lands right after the last whole record.
    #[test]
    fn resume_cuts_a_torn_tail_before_appending() {
        let w = WalWriter::with_config(FsyncPolicy::Never, small_config());
        for rec in &sample_records() {
            w.append(rec).unwrap();
        }
        let image = w.surviving_image();
        let torn = image.cut(image.frame_ends()[1] + 5);
        assert!(torn.segments.last().unwrap().bytes.is_empty(), "later segments stay, empty");
        let r = WalWriter::resume(&torn, FsyncPolicy::Never, None, small_config()).unwrap();
        assert_eq!(r.appended(), 2, "two whole records survive the torn third");
        assert_eq!(r.append(&WalRecord::TopCommit { top: 5 }).unwrap().lsn, 2);
        let parsed = read_image(&r.surviving_image()).unwrap();
        assert_eq!(parsed.records.len(), 3);
        assert_eq!(parsed.truncated_bytes, 0, "the torn bytes were cut at open");
    }

    #[test]
    fn dir_backed_log_persists_and_deletes_segment_files() {
        let dir = std::env::temp_dir().join(format!("semcc-wal-dir-{}", std::process::id()));
        let config = WalConfig { segment_bytes: 96, ..WalConfig::default() };
        {
            let w = WalWriter::with_dir(FsyncPolicy::EveryAppend, config, &dir).unwrap();
            for rec in &sample_records() {
                w.append(rec).unwrap();
            }
            let n_files = std::fs::read_dir(&dir)
                .unwrap()
                .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".seg"))
                .count();
            assert!(n_files >= 2, "rotation created multiple segment files");
            // Reading the files back yields the same records.
            let image = w.surviving_image();
            let mut from_disk = Vec::new();
            for seg in &image.segments {
                let bytes = std::fs::read(dir.join(segment_file_name(seg.seq))).unwrap();
                from_disk.extend(read_log_from(&bytes, seg.base_lsn).records);
            }
            assert_eq!(from_disk, sample_records());
            w.checkpoint(empty_store).unwrap().expect("checkpointed");
            let names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            assert!(names.contains(&"checkpoint.img".to_string()));
            assert_eq!(
                names.iter().filter(|n| n.ends_with(".seg")).count(),
                1,
                "retired segment files deleted, fresh active remains: {names:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_at_checkpoint_keeps_previous_checkpoint_and_segments() {
        let w = WalWriter::with_config(FsyncPolicy::EveryAppend, small_config());
        let recs = sample_records();
        for rec in &recs[..4] {
            w.append(rec).unwrap();
        }
        w.checkpoint(empty_store).unwrap().expect("first checkpoint fine");
        for rec in &recs[4..] {
            w.append(rec).unwrap();
        }
        let before = w.surviving_image();
        let cut = w.checkpoint_cut(empty_store).unwrap().expect("healthy log");
        let ready = cut.assemble().unwrap();
        w.power_fail();
        assert!(ready.install().unwrap().is_none(), "died before the image was durable");
        let after = w.surviving_image();
        assert_eq!(after.checkpoint, before.checkpoint, "old image retained");
        let parsed = read_image(&after).unwrap();
        assert_eq!(parsed.checkpoint.unwrap().cp_lsn, 4);
        assert_eq!(parsed.records.len(), recs.len() - 4);
    }

    /// `threads` threads, released together, each hand `commit` its
    /// `per_thread` `TopCommit`s in turn; every call's result, unordered.
    fn race<T: Send>(
        threads: u64,
        per_thread: u64,
        commit: impl Fn(WalRecord) -> T + Sync,
    ) -> Vec<T> {
        let start = std::sync::Barrier::new(threads as usize);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let (start, commit) = (&start, &commit);
                    s.spawn(move || {
                        start.wait();
                        let tops = t * 1000..t * 1000 + per_thread;
                        tops.map(|top| commit(WalRecord::TopCommit { top })).collect::<Vec<_>>()
                    })
                })
                .collect();
            workers.into_iter().flat_map(|h| h.join().expect("committer panicked")).collect()
        })
    }

    /// The `TopCommit`s a log holds.
    fn committed_tops(records: &[WalRecord]) -> BTreeSet<u64> {
        records
            .iter()
            .filter_map(|r| match r {
                WalRecord::TopCommit { top } => Some(*top),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn group_commit_acknowledges_every_committer_with_bounded_fsyncs() {
        const THREADS: u64 = 8;
        const COMMITS_PER_THREAD: u64 = 4;
        let w = WalWriter::new(FsyncPolicy::OnCommit);
        let acks = race(THREADS, COMMITS_PER_THREAD, |rec| w.append(&rec).expect("healthy log"));
        assert!(acks.iter().all(|a| a.appended && a.durable), "ack implies durable");
        // Each commit either paid for a sync or rode one another paid for.
        let synced = acks.iter().filter(|a| a.synced).count() as u64;
        let followers = acks.iter().filter(|a| a.durable && !a.synced).count() as u64;
        let total = THREADS * COMMITS_PER_THREAD;
        assert_eq!(w.fsyncs(), synced);
        assert_eq!(synced + followers, total);
        assert!(synced >= 1);
        let parsed = read_image(&w.surviving_image()).unwrap();
        assert_eq!(parsed.records.len(), total as usize);
    }

    #[test]
    fn single_threaded_commits_always_lead_their_own_batch() {
        // With no concurrency there is no batch: every resolution record
        // pays its own fsync and reports `synced`.
        let w = WalWriter::new(FsyncPolicy::OnCommit);
        for top in 0..3 {
            let info = w.append(&WalRecord::TopCommit { top }).unwrap();
            assert!(info.synced && info.durable);
        }
        assert_eq!(w.fsyncs(), 3);
    }

    #[test]
    fn fsync_failure_fails_the_whole_batch_typed_with_no_partial_acks() {
        let w = WalWriter::with_config_and_faults(
            FsyncPolicy::OnCommit,
            WalConfig::default(),
            plan_io(IoFaultPoint::FsyncError { nth: 1 }),
        );
        // The very first sync fails: every committer whose frame it
        // covered — and every later one, the log being poisoned — must
        // fail *typed*, none acknowledged.
        for result in race(6, 1, |rec| w.append(&rec)) {
            let err = result.expect_err("no committer is acknowledged");
            assert!(
                matches!(err, WalError::Io(_) | WalError::Poisoned),
                "typed batch failure, got {err:?}"
            );
        }
        assert!(w.poisoned().is_some());
        assert_eq!(w.fsyncs(), 1, "a poisoned log syncs no more");
        // Nothing reached durable storage: the surviving (durable-only,
        // because poisoned) image is empty.
        let parsed = read_image(&w.surviving_image()).unwrap();
        assert_eq!(parsed.records.len(), 0, "zero acked-but-lost records");
    }

    #[test]
    fn commits_racing_a_power_failure_ack_exactly_the_surviving_ones() {
        use std::sync::atomic::AtomicBool;
        const THREADS: u64 = 8;
        const COMMITS_PER_THREAD: u64 = 64;
        const FAIL_AT: u64 = THREADS * COMMITS_PER_THREAD / 2;
        let w = WalWriter::new(FsyncPolicy::OnCommit);
        let failed = AtomicBool::new(false);
        let acks = std::thread::scope(|s| {
            s.spawn(|| {
                while w.appended() < FAIL_AT {
                    std::thread::yield_now();
                }
                w.power_fail();
                failed.store(true, Ordering::SeqCst);
            });
            race(THREADS, COMMITS_PER_THREAD, |rec| {
                let after_failure = failed.load(Ordering::SeqCst);
                let result = w.append(&rec);
                (rec, after_failure, result)
            })
        });
        let mut durable = Vec::new();
        for (rec, after_failure, result) in acks {
            let info =
                result.unwrap_or_else(|e| panic!("{rec:?}: a dead device fails silently: {e:?}"));
            assert!(!(after_failure && info.appended), "{rec:?} appended after the power failure");
            if info.durable {
                durable.push(rec);
            }
        }
        let image = read_image(&w.surviving_image()).unwrap();
        assert_eq!(committed_tops(&image.records), committed_tops(&durable), "survivors == acks");
    }

    #[test]
    fn dir_backed_group_commit_persists_every_ack() {
        let dir =
            std::env::temp_dir().join(format!("semcc-wal-dir-group-commit-{}", std::process::id()));
        let config = WalConfig { segment_bytes: 96, ..WalConfig::default() };
        let w = WalWriter::with_dir(FsyncPolicy::OnCommit, config, &dir).unwrap();
        let acks = race(8, 16, |rec| {
            let result = w.append(&rec);
            (rec, result)
        });
        let base_lsn: BTreeMap<u64, u64> =
            w.surviving_image().segments.iter().map(|s| (s.seq, s.base_lsn)).collect();
        drop(w);
        // Read every segment file, then clear the directory before any
        // assertion can fail.
        let files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter_map(|path| {
                let name = path.file_name()?.to_string_lossy().into_owned();
                name.ends_with(".seg").then(|| (name, std::fs::read(&path).unwrap()))
            })
            .collect();
        std::fs::remove_dir_all(&dir).unwrap();
        let mut acked = Vec::new();
        for (rec, result) in acks {
            assert!(result.expect("healthy log").durable, "{rec:?} acknowledged, not durable");
            acked.push(rec);
        }
        assert!(files.len() >= 2, "96-byte segments rotate");
        let mut on_disk = Vec::new();
        for (name, bytes) in &files {
            let seq: u64 = name["wal-".len()..name.len() - ".seg".len()].parse().unwrap();
            let read = read_log_from(bytes, base_lsn[&seq]);
            assert_eq!(read.truncated_bytes, 0, "{name} ends on a whole frame");
            on_disk.extend(read.records);
        }
        assert_eq!(committed_tops(&on_disk), committed_tops(&acked), "every ack is on disk");
    }

    #[test]
    fn commit_seq_hook_runs_in_lsn_order_across_racing_committers() {
        use std::sync::atomic::AtomicU64;
        const THREADS: usize = 8;
        let w = WalWriter::new(FsyncPolicy::OnCommit);
        let seq = AtomicU64::new(0);
        let pairs = Mutex::new(Vec::new());
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS as u64 {
                let (w, seq, pairs, start) = (&w, &seq, &pairs, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..4 {
                        let (info, n) = w
                            .append_commit(&WalRecord::TopCommit { top: t * 100 + i }, || {
                                seq.fetch_add(1, Ordering::SeqCst) + 1
                            })
                            .unwrap();
                        pairs.lock().push((info.lsn, n));
                    }
                });
            }
        });
        let mut pairs = pairs.into_inner();
        pairs.sort_unstable();
        for win in pairs.windows(2) {
            assert!(
                win[0].1 < win[1].1,
                "LSN order must equal commit-seq order: {:?} then {:?}",
                win[0],
                win[1]
            );
        }
    }
}
