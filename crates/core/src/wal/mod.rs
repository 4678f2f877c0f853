//! Logical write-ahead logging for the open nested transaction engine.
//!
//! The paper defers durability, but its abort mechanism — compensating
//! committed subtransactions under the same semantic locking protocol — is
//! exactly the primitive an open-nested recovery scheme needs (Malta &
//! Martinez pair commutativity-based concurrency control with logical,
//! compensation-based recovery). The log therefore records *logical*
//! entries, not page images:
//!
//! * [`WalRecord::LeafRedo`] — one generic leaf update (`Put`, `Insert`,
//!   `Remove`, or an object creation), tagged with the depth-1 subtree it
//!   belongs to. Redo replay of these records rebuilds the store.
//! * [`WalRecord::SubCommit`] — a depth-1 subtransaction committed; the
//!   record carries its **compensation intent** (the inverse invocations
//!   the engine would run to abort it). This is the logical undo
//!   information: recovery aborts losers by *executing* these inverses
//!   through the ordinary engine, under the ordinary locks.
//! * [`WalRecord::CompRedo`] — a leaf update performed *by* a compensation
//!   (the logical analogue of an ARIES CLR). Redo replays these
//!   unconditionally: recovery **repeats history**, forward effects and
//!   compensations alike, because absolute leaf values embed the effects
//!   of concurrently exposed work that a later compensation undid.
//! * [`WalRecord::CompApplied`] — progress marker of a top-level abort in
//!   flight (one compensating invocation finished); tells recovery how
//!   many of a loser's intents were already applied before the crash.
//! * [`WalRecord::TopCommit`] / [`WalRecord::TopAbort`] — transaction
//!   resolution. A top with neither in the surviving log is a *loser* and
//!   is compensated by [`recovery`].
//!
//! Records are framed as `[len: u32][crc32: u32][payload]` with the
//! record's LSN embedded in the payload; [`read_image`] stops at the first
//! torn or corrupt frame (torn-tail truncation on open) and verifies that
//! LSNs are gapless. Appends are buffered and made durable by an fsync
//! whose cadence is the [`FsyncPolicy`] knob; logging is **off by default**
//! (an engine without a writer pays one `Option` check per site).
//!
//! **A crash is a cut.** Appends reach the device in log order and a sync
//! flushes every segment from the oldest unsynced one on, so whatever a
//! crash of one node leaves behind is a byte prefix of the log it would
//! have written: [`LogImage::cut`] of the finished image, with
//! [`LogImage::frame_ends`] naming the cuts that end on a record boundary.
//! The audits enumerate those instead of killing a device mid-run.

pub mod checkpoint;
pub mod recovery;
pub mod segment;

pub use segment::{
    AppendInfo, CheckpointOutcome, FsyncPolicy, LogImage, SegmentImage, WalConfig, WalWriter,
};

use checkpoint::CheckpointImage;
use semcc_semantics::{GenericMethod, Invocation, MethodId, MethodSel, ObjectId, TypeId, Value};

/// A typed failure of the write-ahead log device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalError {
    /// An I/O operation failed (EIO on write, short write, failed fsync).
    Io(String),
    /// The log was poisoned by an earlier I/O failure and accepts nothing
    /// further (fsyncgate semantics: a failed sync's durable state is
    /// unknowable, so no blind retry is ever attempted).
    Poisoned,
    /// Mid-log corruption: a frame failed its CRC (or was undecodable)
    /// *before later valid records* — committed history is damaged, which
    /// is a quarantined hard error, never silent truncation.
    Corrupt {
        /// LSN of the first unreadable record.
        lsn: u64,
        /// What exactly was wrong.
        detail: String,
    },
    /// The checkpoint image is unreadable (bad magic or CRC).
    Checkpoint(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(msg) => write!(f, "wal i/o error: {msg}"),
            WalError::Poisoned => write!(f, "wal poisoned by an earlier i/o failure"),
            WalError::Corrupt { lsn, detail } => {
                write!(f, "wal corrupt at lsn {lsn}: {detail} (quarantined)")
            }
            WalError::Checkpoint(msg) => write!(f, "checkpoint image unreadable: {msg}"),
        }
    }
}

impl std::error::Error for WalError {}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3), slicing-by-8, tables built at compile time.
// ---------------------------------------------------------------------

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes, which lets eight
/// input bytes be folded per step with eight independent lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

const CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE) of `bytes`. It frames every append under the writer
/// state lock and covers whole checkpoint images, hence slicing-by-8.
pub fn crc32(bytes: &[u8]) -> u32 {
    const T: &[[u32; 256]; 8] = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = c ^ u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = T[7][(lo & 0xFF) as usize]
            ^ T[6][((lo >> 8) & 0xFF) as usize]
            ^ T[5][((lo >> 16) & 0xFF) as usize]
            ^ T[4][(lo >> 24) as usize]
            ^ T[3][(hi & 0xFF) as usize]
            ^ T[2][((hi >> 8) & 0xFF) as usize]
            ^ T[1][((hi >> 16) & 0xFF) as usize]
            ^ T[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = T[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The one-byte-per-step CRC-32: the oracle [`crc32`] is tested against.
#[cfg(test)]
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Record vocabulary
// ---------------------------------------------------------------------

/// One logical redo operation (a generic leaf update or object creation).
/// Creations log the store-assigned id so replay restores identical ids.
#[derive(Clone, Debug, PartialEq)]
pub enum RedoOp {
    /// `Put(obj, value)` — the *new* value.
    Put { obj: ObjectId, value: Value },
    /// `Insert(set, key, member)`.
    Insert { set: ObjectId, key: u64, member: ObjectId },
    /// `Remove(set, key)`.
    Remove { set: ObjectId, key: u64 },
    /// An atomic object was created under `id`.
    CreateAtomic { id: ObjectId, type_id: TypeId, value: Value },
    /// A tuple object was created under `id`.
    CreateTuple { id: ObjectId, type_id: TypeId, fields: Vec<(String, ObjectId)> },
    /// A set object was created under `id`.
    CreateSet { id: ObjectId, type_id: TypeId },
    /// `EscrowAdd(obj, delta)` — logged as a *delta*, not an absolute
    /// value: replay re-applies the increment on top of whatever earlier
    /// records produced, so concurrent escrow histories replay correctly
    /// in log order (repeating history).
    EscrowAdd { obj: ObjectId, delta: i64 },
}

impl RedoOp {
    /// The op of a generic update, derived from the invocation itself
    /// (the store applies exactly these arguments); `None` for a read.
    /// `Remove` is logged even when the key was absent — replaying it is
    /// a no-op, matching the original execution. `EscrowAdd` is a delta:
    /// replay re-applies the increment on top of whatever absolute value
    /// earlier records produced, which is exactly repeating history.
    pub(crate) fn of(inv: &Invocation) -> Option<RedoOp> {
        match inv.method.as_generic()? {
            GenericMethod::Put => {
                Some(RedoOp::Put { obj: inv.object, value: inv.arg(0).ok()?.clone() })
            }
            GenericMethod::Insert => Some(RedoOp::Insert {
                set: inv.object,
                key: inv.arg_key(0).ok()?,
                member: inv.arg_id(1).ok()?,
            }),
            GenericMethod::Remove => {
                Some(RedoOp::Remove { set: inv.object, key: inv.arg_key(0).ok()? })
            }
            GenericMethod::EscrowAdd => {
                Some(RedoOp::EscrowAdd { obj: inv.object, delta: inv.arg_int(0).ok()? })
            }
            GenericMethod::Get | GenericMethod::Select | GenericMethod::Scan => None,
        }
    }

    /// The id a creation op restores, if this is a creation.
    pub fn created_id(&self) -> Option<ObjectId> {
        match self {
            RedoOp::CreateAtomic { id, .. }
            | RedoOp::CreateTuple { id, .. }
            | RedoOp::CreateSet { id, .. } => Some(*id),
            _ => None,
        }
    }

    /// The object the op touches (for journaling).
    pub fn object(&self) -> ObjectId {
        match self {
            RedoOp::Put { obj, .. } | RedoOp::EscrowAdd { obj, .. } => *obj,
            RedoOp::Insert { set, .. } | RedoOp::Remove { set, .. } => *set,
            RedoOp::CreateAtomic { id, .. }
            | RedoOp::CreateTuple { id, .. }
            | RedoOp::CreateSet { id, .. } => *id,
        }
    }
}

/// One log record.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// A generic leaf update of transaction `top`, executed inside the
    /// depth-1 subtree rooted at node `subtree` (0 = issued directly by the
    /// transaction program outside any subtransaction).
    LeafRedo { top: u64, subtree: u32, op: RedoOp },
    /// Depth-1 subtransaction `subtree` of `top` committed; `comp` is its
    /// accumulated compensation intent in chronological order (recovery
    /// executes it reversed, like the engine's own abort path).
    SubCommit { top: u64, subtree: u32, comp: Vec<Invocation> },
    /// A *deeper* (depth ≥ 2) user-method subtransaction of `top`
    /// committed inside the still-running depth-1 subtree `subtree`;
    /// `comp` is its compensation intent. Appended before the
    /// subtransaction's locks are retained, because that is the moment its
    /// effects become observable to commuting requestors: a crash that
    /// kills the enclosing subtree before its `SubCommit` would otherwise
    /// lose the only undo intent for an effect a surviving winner may have
    /// embedded in an absolute leaf value. Superseded by the subtree's
    /// `SubCommit` when that record survives (its aggregate already
    /// contains this intent).
    SubIntent { top: u64, subtree: u32, comp: Vec<Invocation> },
    /// A leaf update executed *by a compensation* of `top` (the logical
    /// analogue of an ARIES CLR). Replayed unconditionally: repeating the
    /// physical history is what keeps absolute leaf values — which embed
    /// the effects of concurrently exposed, later-compensated work —
    /// consistent across the redo pass.
    CompRedo { top: u64, op: RedoOp },
    /// One compensating invocation of the *top-level* abort of `top`
    /// finished. Intra-subtransaction rollbacks do not log this marker, so
    /// its count per transaction tells recovery how many of a loser's
    /// logged intents (from the end, newest first) were already applied
    /// before the crash.
    CompApplied { top: u64 },
    /// `top` committed.
    TopCommit { top: u64 },
    /// `top` aborted, with all compensation complete (net effect zero).
    TopAbort { top: u64 },
    /// Recovery pass `pass` started against this log. Appended by recovery
    /// itself (when it is given a progress writer) before any other work,
    /// so a *second* recovery can tell it is re-recovering after a crash
    /// mid-recovery. Carries no transaction and is skipped by analysis.
    RecoveryMark { pass: u64 },
}

impl WalRecord {
    /// The owning top-level transaction (0 for [`WalRecord::RecoveryMark`],
    /// which belongs to no transaction).
    pub fn top(&self) -> u64 {
        match self {
            WalRecord::LeafRedo { top, .. }
            | WalRecord::SubCommit { top, .. }
            | WalRecord::SubIntent { top, .. }
            | WalRecord::CompRedo { top, .. }
            | WalRecord::CompApplied { top }
            | WalRecord::TopCommit { top }
            | WalRecord::TopAbort { top } => *top,
            WalRecord::RecoveryMark { .. } => 0,
        }
    }
}

// ---------------------------------------------------------------------
// Binary encoding (hand-rolled: the vendored serde cannot serialize)
// ---------------------------------------------------------------------

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Unit => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(2);
            put_u64(out, *i as u64);
        }
        Value::Money(m) => {
            out.push(3);
            put_u64(out, *m as u64);
        }
        Value::Str(s) => {
            out.push(4);
            put_str(out, s);
        }
        Value::Id(o) => {
            out.push(5);
            put_u64(out, o.0);
        }
        Value::List(items) => {
            out.push(6);
            put_u32(out, items.len() as u32);
            for item in items {
                put_value(out, item);
            }
        }
    }
}

pub(crate) fn put_invocation(out: &mut Vec<u8>, inv: &Invocation) {
    put_u64(out, inv.object.0);
    put_u32(out, inv.type_id.0);
    match inv.method {
        MethodSel::Generic(g) => {
            out.push(0);
            out.push(match g {
                GenericMethod::Get => 0,
                GenericMethod::Put => 1,
                GenericMethod::Select => 2,
                GenericMethod::Insert => 3,
                GenericMethod::Remove => 4,
                GenericMethod::Scan => 5,
                GenericMethod::EscrowAdd => 6,
            });
        }
        MethodSel::User(m) => {
            out.push(1);
            put_u32(out, m.0);
        }
    }
    put_u32(out, inv.args.len() as u32);
    for arg in &inv.args {
        put_value(out, arg);
    }
}

pub(crate) fn put_redo(out: &mut Vec<u8>, op: &RedoOp) {
    match op {
        RedoOp::Put { obj, value } => {
            out.push(0);
            put_u64(out, obj.0);
            put_value(out, value);
        }
        RedoOp::Insert { set, key, member } => {
            out.push(1);
            put_u64(out, set.0);
            put_u64(out, *key);
            put_u64(out, member.0);
        }
        RedoOp::Remove { set, key } => {
            out.push(2);
            put_u64(out, set.0);
            put_u64(out, *key);
        }
        RedoOp::CreateAtomic { id, type_id, value } => {
            out.push(3);
            put_u64(out, id.0);
            put_u32(out, type_id.0);
            put_value(out, value);
        }
        RedoOp::CreateTuple { id, type_id, fields } => {
            out.push(4);
            put_u64(out, id.0);
            put_u32(out, type_id.0);
            put_u32(out, fields.len() as u32);
            for (name, f) in fields {
                put_str(out, name);
                put_u64(out, f.0);
            }
        }
        RedoOp::CreateSet { id, type_id } => {
            out.push(5);
            put_u64(out, id.0);
            put_u32(out, type_id.0);
        }
        RedoOp::EscrowAdd { obj, delta } => {
            out.push(6);
            put_u64(out, obj.0);
            put_u64(out, *delta as u64);
        }
    }
}

fn encode_record(out: &mut Vec<u8>, rec: &WalRecord) {
    match rec {
        WalRecord::LeafRedo { top, subtree, op } => {
            out.push(0);
            put_u64(out, *top);
            put_u32(out, *subtree);
            put_redo(out, op);
        }
        WalRecord::SubCommit { top, subtree, comp } => {
            out.push(1);
            put_u64(out, *top);
            put_u32(out, *subtree);
            put_u32(out, comp.len() as u32);
            for inv in comp {
                put_invocation(out, inv);
            }
        }
        WalRecord::CompApplied { top } => {
            out.push(2);
            put_u64(out, *top);
        }
        WalRecord::TopCommit { top } => {
            out.push(3);
            put_u64(out, *top);
        }
        WalRecord::TopAbort { top } => {
            out.push(4);
            put_u64(out, *top);
        }
        WalRecord::CompRedo { top, op } => {
            out.push(5);
            put_u64(out, *top);
            put_redo(out, op);
        }
        WalRecord::SubIntent { top, subtree, comp } => {
            out.push(6);
            put_u64(out, *top);
            put_u32(out, *subtree);
            put_u32(out, comp.len() as u32);
            for inv in comp {
                put_invocation(out, inv);
            }
        }
        WalRecord::RecoveryMark { pass } => {
            out.push(7);
            put_u64(out, *pass);
        }
    }
}

/// Build one framed record: `[len][crc][lsn + body]`.
pub(crate) fn encode_frame(lsn: u64, rec: &WalRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(32);
    put_u64(&mut payload, lsn);
    encode_record(&mut payload, rec);
    let mut frame = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut frame, payload.len() as u32);
    put_u32(&mut frame, crc32(&payload));
    frame.extend_from_slice(&payload);
    frame
}

// -- decoding ---------------------------------------------------------

pub(crate) struct Cursor<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    pub(crate) fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    pub(crate) fn value(&mut self) -> Option<Value> {
        Some(match self.u8()? {
            0 => Value::Unit,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(self.u64()? as i64),
            3 => Value::Money(self.u64()? as i64),
            4 => Value::Str(self.str()?),
            5 => Value::Id(ObjectId(self.u64()?)),
            6 => {
                let n = self.u32()? as usize;
                let mut items = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    items.push(self.value()?);
                }
                Value::List(items)
            }
            _ => return None,
        })
    }

    pub(crate) fn invocation(&mut self) -> Option<Invocation> {
        let object = ObjectId(self.u64()?);
        let type_id = TypeId(self.u32()?);
        let method = match self.u8()? {
            0 => MethodSel::Generic(match self.u8()? {
                0 => GenericMethod::Get,
                1 => GenericMethod::Put,
                2 => GenericMethod::Select,
                3 => GenericMethod::Insert,
                4 => GenericMethod::Remove,
                5 => GenericMethod::Scan,
                6 => GenericMethod::EscrowAdd,
                _ => return None,
            }),
            1 => MethodSel::User(MethodId(self.u32()?)),
            _ => return None,
        };
        let n = self.u32()? as usize;
        let mut args = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            args.push(self.value()?);
        }
        Some(Invocation { object, type_id, method, args })
    }

    pub(crate) fn redo(&mut self) -> Option<RedoOp> {
        Some(match self.u8()? {
            0 => RedoOp::Put { obj: ObjectId(self.u64()?), value: self.value()? },
            1 => RedoOp::Insert {
                set: ObjectId(self.u64()?),
                key: self.u64()?,
                member: ObjectId(self.u64()?),
            },
            2 => RedoOp::Remove { set: ObjectId(self.u64()?), key: self.u64()? },
            3 => RedoOp::CreateAtomic {
                id: ObjectId(self.u64()?),
                type_id: TypeId(self.u32()?),
                value: self.value()?,
            },
            4 => {
                let id = ObjectId(self.u64()?);
                let type_id = TypeId(self.u32()?);
                let n = self.u32()? as usize;
                let mut fields = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let name = self.str()?;
                    fields.push((name, ObjectId(self.u64()?)));
                }
                RedoOp::CreateTuple { id, type_id, fields }
            }
            5 => RedoOp::CreateSet { id: ObjectId(self.u64()?), type_id: TypeId(self.u32()?) },
            6 => RedoOp::EscrowAdd { obj: ObjectId(self.u64()?), delta: self.u64()? as i64 },
            _ => return None,
        })
    }

    pub(crate) fn record(&mut self) -> Option<WalRecord> {
        Some(match self.u8()? {
            0 => {
                let top = self.u64()?;
                let subtree = self.u32()?;
                WalRecord::LeafRedo { top, subtree, op: self.redo()? }
            }
            1 => {
                let top = self.u64()?;
                let subtree = self.u32()?;
                let n = self.u32()? as usize;
                let mut comp = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    comp.push(self.invocation()?);
                }
                WalRecord::SubCommit { top, subtree, comp }
            }
            2 => WalRecord::CompApplied { top: self.u64()? },
            3 => WalRecord::TopCommit { top: self.u64()? },
            4 => WalRecord::TopAbort { top: self.u64()? },
            5 => {
                let top = self.u64()?;
                WalRecord::CompRedo { top, op: self.redo()? }
            }
            6 => {
                let top = self.u64()?;
                let subtree = self.u32()?;
                let n = self.u32()? as usize;
                let mut comp = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    comp.push(self.invocation()?);
                }
                WalRecord::SubIntent { top, subtree, comp }
            }
            7 => WalRecord::RecoveryMark { pass: self.u64()? },
            _ => return None,
        })
    }
}

/// Sanity bound on a single frame (a SubCommit carries at most a
/// transaction's compensation list — far below this).
const MAX_FRAME: usize = 1 << 20;

/// Result of parsing one segment's bytes.
#[derive(Debug)]
pub(crate) struct WalReadOutcome {
    /// The surviving records, in LSN order (LSN = index).
    pub records: Vec<WalRecord>,
    /// Bytes discarded at the tail (torn frame, bad CRC, or garbage).
    pub truncated_bytes: usize,
}

/// Parse a log (segment) image whose first record carries LSN `base_lsn`,
/// applying torn-tail truncation: parsing stops at the first incomplete
/// frame, CRC mismatch, undecodable payload, or LSN gap, and everything
/// from that point on is reported as truncated. Every prefix that survives
/// is internally consistent.
pub(crate) fn read_log_from(bytes: &[u8], base_lsn: u64) -> WalReadOutcome {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Some((rec, lsn, next)) = parse_frame_at(bytes, pos) {
        if lsn != base_lsn + records.len() as u64 {
            break; // spliced or reordered tail
        }
        records.push(rec);
        pos = next;
    }
    WalReadOutcome { records, truncated_bytes: bytes.len() - pos }
}

/// Check a *sealed* segment frame by frame — length, CRC, a decodable
/// record and nothing else in the frame, gapless LSNs, no trailing bytes —
/// exactly what the verified read path demands of history it is about to
/// trust, without keeping the records. Returns the LSN past its last
/// frame; any damage is [`WalError::Corrupt`], a sealed segment having no
/// torn tail to forgive.
pub(crate) fn verify_sealed(bytes: &[u8], base_lsn: u64, seq: u64) -> Result<u64, WalError> {
    let mut pos = 0usize;
    let mut lsn = base_lsn;
    while pos < bytes.len() {
        match parse_frame_at(bytes, pos) {
            Some((_, at, next)) if at == lsn => {
                pos = next;
                lsn += 1;
            }
            _ => {
                return Err(WalError::Corrupt {
                    lsn,
                    detail: format!(
                        "segment {seq} has {} unreadable bytes at checkpoint time",
                        bytes.len() - pos
                    ),
                })
            }
        }
    }
    Ok(lsn)
}

/// Try to parse one complete, CRC-valid frame starting exactly at `pos`.
/// Returns the record, its embedded LSN, and the offset past the frame.
fn parse_frame_at(bytes: &[u8], pos: usize) -> Option<(WalRecord, u64, usize)> {
    if bytes.len().saturating_sub(pos) < 8 {
        return None;
    }
    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
    if !(9..=MAX_FRAME).contains(&len) || pos + 8 + len > bytes.len() {
        return None; // torn or garbage
    }
    let payload = &bytes[pos + 8..pos + 8 + len];
    if crc32(payload) != crc {
        return None; // corrupt
    }
    let mut cur = Cursor { buf: payload, pos: 0 };
    let lsn = cur.u64()?;
    let rec = cur.record()?;
    if cur.pos != payload.len() {
        return None; // trailing junk inside the frame
    }
    Some((rec, lsn, pos + 8 + len))
}

/// Like [`read_log_from`], but *quarantines* mid-log corruption instead of
/// silently truncating it: if any fully valid frame with a *later* LSN can
/// be found anywhere after the truncation point, the damage sits in the
/// middle of committed history (bit rot, a mangled sector) rather than at a
/// torn tail, and the log must not be trusted — the caller gets
/// [`WalError::Corrupt`] rather than a shortened prefix.
fn read_log_verified(bytes: &[u8], base_lsn: u64) -> Result<WalReadOutcome, WalError> {
    let out = read_log_from(bytes, base_lsn);
    if out.truncated_bytes > 0 {
        let end_lsn = base_lsn + out.records.len() as u64;
        let tail_start = bytes.len() - out.truncated_bytes;
        // Scan forward byte-by-byte: a torn tail contains no decodable
        // frame, while mid-log corruption leaves later frames intact.
        for pos in tail_start..bytes.len() {
            if let Some((_, lsn, _)) = parse_frame_at(bytes, pos) {
                if lsn > end_lsn {
                    return Err(WalError::Corrupt {
                        lsn: end_lsn,
                        detail: format!(
                            "record {lsn} is intact after {} unreadable bytes",
                            pos - tail_start
                        ),
                    });
                }
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Multi-segment images
// ---------------------------------------------------------------------

/// A fully parsed multi-segment log image.
#[derive(Debug)]
pub struct ParsedLog {
    /// The latest complete checkpoint, if the image carried one.
    pub checkpoint: Option<CheckpointImage>,
    /// All surviving records across the segments, LSN-ascending; the i-th
    /// record's LSN is `base_lsn + i`.
    pub records: Vec<WalRecord>,
    /// LSN of the first surviving record.
    pub base_lsn: u64,
    /// Bytes discarded from the torn tail of the *last* segment.
    pub truncated_bytes: usize,
}

/// Parse a [`LogImage`]: validate the checkpoint frame (if any), then every
/// segment in sequence order. The segment holding the last byte is the
/// tail: it gets torn-tail tolerance (still with the scan-forward mid-log
/// corruption check of [`read_log_verified`]), and the empty segments
/// after it are what rotation left behind a torn tail — a sync flushes
/// every segment from the oldest unsynced one on, so a durable byte in a
/// segment means every earlier one was complete. Segments before the tail
/// must parse completely and start where their predecessor ended: a torn
/// or corrupt frame there, or a gap, sits in the middle of committed
/// history and is quarantined as [`WalError::Corrupt`].
pub fn read_image(image: &LogImage) -> Result<ParsedLog, WalError> {
    let checkpoint = match &image.checkpoint {
        Some(bytes) => Some(checkpoint::decode_checkpoint(bytes)?),
        None => None,
    };
    let segments = image.in_order();
    let base_lsn = segments.first().map_or(0, |s| s.base_lsn);
    let tail = segments.iter().rposition(|s| !s.bytes.is_empty()).unwrap_or(0);
    let mut records = Vec::new();
    let mut truncated_bytes = 0usize;
    let mut expect = base_lsn;
    for (i, seg) in segments.iter().enumerate().take(tail + 1) {
        if seg.base_lsn != expect {
            return Err(WalError::Corrupt {
                lsn: expect,
                detail: format!(
                    "segment {} starts at lsn {}, expected {expect} (missing segment?)",
                    seg.seq, seg.base_lsn
                ),
            });
        }
        let out = read_log_verified(&seg.bytes, seg.base_lsn)?;
        if i < tail && out.truncated_bytes > 0 {
            return Err(WalError::Corrupt {
                lsn: seg.base_lsn + out.records.len() as u64,
                detail: format!(
                    "sealed segment {} has {} unreadable trailing bytes",
                    seg.seq, out.truncated_bytes
                ),
            });
        }
        expect += out.records.len() as u64;
        records.extend(out.records);
        truncated_bytes = out.truncated_bytes;
    }
    Ok(ParsedLog { checkpoint, records, base_lsn, truncated_bytes })
}

impl LogImage {
    /// The segments in sequence order.
    fn in_order(&self) -> Vec<&SegmentImage> {
        let mut segments: Vec<&SegmentImage> = self.segments.iter().collect();
        segments.sort_by_key(|s| s.seq);
        segments
    }

    /// Log-byte offsets — counted across the segments in sequence order,
    /// checkpoint excluded — just past each complete frame, ascending; the
    /// [`cut`](LogImage::cut)s that end on a record boundary.
    pub fn frame_ends(&self) -> Vec<usize> {
        let mut ends = Vec::new();
        let mut before = 0;
        for seg in self.in_order() {
            let mut pos = 0;
            while let Some((_, _, next)) = parse_frame_at(&seg.bytes, pos) {
                pos = next;
                ends.push(before + pos);
            }
            before += seg.bytes.len();
        }
        ends
    }

    /// The image a crash leaves after the first `n` log bytes reached the
    /// device: the checkpoint as it was, the segments cut at log byte `n`,
    /// and every later segment present and empty, as rotation created it.
    pub fn cut(&self, n: usize) -> LogImage {
        let mut left = n;
        let segments = self
            .in_order()
            .into_iter()
            .map(|s| {
                let keep = left.min(s.bytes.len());
                left -= keep;
                SegmentImage { bytes: s.bytes[..keep].to_vec(), ..*s }
            })
            .collect();
        LogImage { checkpoint: self.checkpoint.clone(), segments }
    }
}

/// Shared fixtures for the unit tests of this module tree.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// The bytes a post-crash open would find, for logs small enough to
    /// sit in their first segment.
    pub(crate) fn sole_segment(w: &WalWriter) -> Vec<u8> {
        let mut image = w.surviving_image();
        assert_eq!(image.segments.len(), 1, "the log rotated");
        image.segments.remove(0).bytes
    }

    pub(crate) fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::LeafRedo {
                top: 1,
                subtree: 2,
                op: RedoOp::Put { obj: ObjectId(7), value: Value::Int(-3) },
            },
            WalRecord::LeafRedo {
                top: 1,
                subtree: 2,
                op: RedoOp::CreateTuple {
                    id: ObjectId(40),
                    type_id: TypeId(17),
                    fields: vec![("OrderNo".into(), ObjectId(41)), ("Status".into(), ObjectId(42))],
                },
            },
            WalRecord::SubCommit {
                top: 1,
                subtree: 2,
                comp: vec![
                    Invocation::remove(ObjectId(9), TypeId(18), 5),
                    Invocation {
                        object: ObjectId(3),
                        type_id: TypeId(16),
                        method: MethodSel::User(MethodId(4)),
                        args: vec![Value::Str("undo".into()), Value::List(vec![Value::Bool(true)])],
                    },
                ],
            },
            WalRecord::LeafRedo {
                top: 2,
                subtree: 1,
                op: RedoOp::Insert { set: ObjectId(9), key: 5, member: ObjectId(40) },
            },
            WalRecord::CompRedo { top: 2, op: RedoOp::Remove { set: ObjectId(9), key: 5 } },
            WalRecord::LeafRedo {
                top: 2,
                subtree: 1,
                // Negative delta exercises the two's-complement round-trip
                // of the delta field.
                op: RedoOp::EscrowAdd { obj: ObjectId(11), delta: -42 },
            },
            WalRecord::SubCommit {
                top: 2,
                subtree: 1,
                comp: vec![Invocation::escrow_add_bounded(ObjectId(11), TypeId(19), 42, 0)],
            },
            WalRecord::CompApplied { top: 2 },
            WalRecord::TopAbort { top: 2 },
            WalRecord::TopCommit { top: 1 },
            WalRecord::RecoveryMark { pass: 1 },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{sample_records, sole_segment};
    use super::*;

    fn read_log(bytes: &[u8]) -> WalReadOutcome {
        read_log_from(bytes, 0)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        for crc in [crc32, crc32_bytewise] {
            assert_eq!(crc(b""), 0);
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc(b"hello"), 0x3610_A686);
        }
    }

    proptest::proptest! {
        /// Slicing-by-8 == bytewise on every length (all remainders mod 8)
        /// and every start alignment of the same buffer.
        #[test]
        fn crc32_slicing_matches_the_bytewise_oracle(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
            skip in 0usize..9,
        ) {
            let tail = &data[skip.min(data.len())..];
            proptest::prop_assert_eq!(crc32(tail), crc32_bytewise(tail));
        }
    }

    #[test]
    fn verify_sealed_accepts_whole_segments_and_rejects_any_damage() {
        let recs = sample_records();
        let mut bytes = Vec::new();
        for (i, rec) in recs.iter().enumerate() {
            bytes.extend(encode_frame(40 + i as u64, rec));
        }
        assert_eq!(verify_sealed(&bytes, 40, 3).unwrap(), 40 + recs.len() as u64);
        assert_eq!(verify_sealed(&[], 7, 0).unwrap(), 7, "an empty sealed segment is whole");
        // Wrong base, a torn tail, and a flipped byte anywhere all fail,
        // naming the first unreadable LSN.
        assert!(matches!(verify_sealed(&bytes, 41, 3), Err(WalError::Corrupt { lsn: 41, .. })));
        let torn = &bytes[..bytes.len() - 1];
        let last = 40 + recs.len() as u64 - 1;
        assert!(
            matches!(verify_sealed(torn, 40, 3), Err(WalError::Corrupt { lsn, .. }) if lsn == last)
        );
        let first_len = 8 + u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let mut flipped = bytes.clone();
        flipped[first_len + 9] ^= 0xFF;
        assert!(matches!(verify_sealed(&flipped, 40, 3), Err(WalError::Corrupt { lsn: 41, .. })));
        // So does a frame whose CRC is right but whose payload is not a
        // record (an unknown tag) or not *only* a record (a junk byte).
        let reframed = |payload: &[u8]| {
            let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
            frame.extend(crc32(payload).to_le_bytes());
            frame.extend(payload);
            frame.extend(&bytes[first_len..]);
            frame
        };
        let payload = &bytes[8..first_len];
        assert_eq!(verify_sealed(&reframed(payload), 40, 3).unwrap(), 40 + recs.len() as u64);
        let mut bad_tag = payload.to_vec();
        bad_tag[8] = 0xEE;
        let junk = [payload, &[0u8]].concat();
        for damaged in [bad_tag, junk] {
            let err = verify_sealed(&reframed(&damaged), 40, 3);
            assert!(matches!(err, Err(WalError::Corrupt { lsn: 40, .. })), "{err:?}");
        }
    }

    #[test]
    fn records_roundtrip_through_frames() {
        let w = WalWriter::new(FsyncPolicy::EveryAppend);
        for rec in &sample_records() {
            let info = w.append(rec).unwrap();
            assert!(info.appended && info.synced);
        }
        let out = read_log(&sole_segment(&w));
        assert_eq!(out.records, sample_records());
        assert_eq!(out.truncated_bytes, 0);
        assert_eq!(w.fsyncs(), sample_records().len() as u64);
    }

    #[test]
    fn corrupt_byte_truncates_the_tail() {
        let w = WalWriter::new(FsyncPolicy::Never);
        for rec in &sample_records() {
            w.append(rec).unwrap();
        }
        w.flush();
        let mut bytes = sole_segment(&w);
        let n = bytes.len();
        bytes[n - 3] ^= 0xFF; // corrupt the last frame's payload
        let out = read_log(&bytes);
        assert_eq!(out.records.len(), sample_records().len() - 1);
        assert!(out.truncated_bytes > 0);
        // A corrupt *last* frame is a legitimate torn tail — the verified
        // read accepts it (nothing valid follows the damage).
        assert!(read_log_verified(&bytes, 0).is_ok());
    }

    #[test]
    fn corrupt_frame_before_valid_records_is_quarantined() {
        let w = WalWriter::new(FsyncPolicy::Never);
        for rec in &sample_records() {
            w.append(rec).unwrap();
        }
        w.flush();
        let mut bytes = sole_segment(&w);
        // Corrupt one payload byte of the SECOND frame: later frames stay
        // fully valid, so this is mid-log damage, not a torn tail.
        let first_len = 8 + u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        bytes[first_len + 9] ^= 0xFF;
        assert_eq!(read_log(&bytes).records.len(), 1, "plain read silently truncates");
        let err = read_log_verified(&bytes, 0).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { lsn: 1, .. }), "got {err:?}");
    }

    #[test]
    fn on_commit_policy_syncs_only_at_resolution_records() {
        let w = WalWriter::new(FsyncPolicy::OnCommit);
        let leaf = &sample_records()[0];
        assert!(!w.append(leaf).unwrap().synced);
        assert!(!w.append(leaf).unwrap().synced);
        assert!(w.append(&WalRecord::TopCommit { top: 1 }).unwrap().synced);
        assert_eq!(w.fsyncs(), 1);
        // Unsynced bytes still show up on a clean (non-crash) read.
        assert!(!w.append(leaf).unwrap().synced);
        assert_eq!(read_log(&sole_segment(&w)).records.len(), 4);
    }

    #[test]
    fn crash_before_fsync_loses_the_buffered_tail() {
        let w = WalWriter::new(FsyncPolicy::OnCommit);
        let leaf = &sample_records()[0];
        w.append(leaf).unwrap();
        assert!(w.append(&WalRecord::TopCommit { top: 1 }).unwrap().synced);
        w.append(leaf).unwrap();
        w.append(leaf).unwrap();
        w.power_fail();
        assert!(w.crashed());
        let out = read_log(&sole_segment(&w));
        assert_eq!(out.records.len(), 2, "only the synced group survives");
        assert!(matches!(out.records[1], WalRecord::TopCommit { top: 1 }));
    }

    #[test]
    fn torn_tail_crash_leaves_a_partial_frame_that_truncates() {
        let w = WalWriter::new(FsyncPolicy::Never);
        let recs = sample_records();
        for rec in &recs {
            w.append(rec).unwrap();
        }
        let image = w.surviving_image();
        let ends = image.frame_ends();
        assert_eq!(ends.len(), recs.len());
        let out = read_image(&image.cut(ends[1] + 5)).unwrap();
        assert_eq!(out.records, recs[..2], "two whole records plus a torn third");
        assert_eq!(out.truncated_bytes, 5);
    }

    #[test]
    fn dead_writer_rejects_everything() {
        let w = WalWriter::new(FsyncPolicy::EveryAppend);
        w.power_fail();
        assert!(!w.append(&WalRecord::TopCommit { top: 1 }).unwrap().appended);
        assert!(!w.append(&WalRecord::TopCommit { top: 2 }).unwrap().appended);
        assert!(!w.flush());
        assert_eq!(w.appended(), 0);
    }

    /// A cut may end anywhere, so the segment holding its last byte can be
    /// followed by segments rotation created but no byte reached: every
    /// cut of a rotated log reads as the records wholly inside it plus a
    /// torn tail. Damage before a later byte is still quarantined.
    #[test]
    fn every_tail_cut_yields_a_record_prefix() {
        let config = WalConfig { segment_bytes: 96, ..WalConfig::default() };
        let w = WalWriter::with_config(FsyncPolicy::Never, config);
        let recs = sample_records();
        for rec in &recs {
            w.append(rec).unwrap();
        }
        let image = w.surviving_image();
        assert!(image.segments.len() >= 3, "the log must rotate twice");
        let ends = image.frame_ends();
        let total: usize = image.segments.iter().map(|s| s.bytes.len()).sum();
        assert_eq!(ends.last(), Some(&total));
        for n in 0..=total {
            let whole = ends.partition_point(|&e| e <= n);
            let out = read_image(&image.cut(n)).unwrap_or_else(|e| panic!("cut {n}: {e}"));
            assert_eq!(out.records, recs[..whole], "cut {n}");
            assert_eq!(out.truncated_bytes, n - ends[..whole].last().copied().unwrap_or(0));
        }
        // A byte in a segment after an emptied one, and a torn frame
        // before a later segment's byte, are holes in history.
        let mut gap = image.clone();
        gap.segments[1].bytes.clear();
        assert!(matches!(read_image(&gap), Err(WalError::Corrupt { .. })));
        let mut short = image;
        short.segments[0].bytes.pop();
        assert!(matches!(read_image(&short), Err(WalError::Corrupt { .. })));
    }

    #[test]
    fn lsn_gap_truncates() {
        let w = WalWriter::new(FsyncPolicy::Never);
        w.append(&WalRecord::TopCommit { top: 1 }).unwrap();
        w.append(&WalRecord::TopCommit { top: 2 }).unwrap();
        w.flush();
        let bytes = sole_segment(&w);
        // Drop the FIRST frame: the second frame's LSN (1) no longer
        // matches its position (0) → everything is discarded.
        let first_len = 8 + u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let out = read_log(&bytes[first_len..]);
        assert!(out.records.is_empty());
    }
}
