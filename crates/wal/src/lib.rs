//! Redo write-ahead log: the durability spine of lobd.
//!
//! The source paper's no-overwrite storage makes every commit force all
//! dirty pages to disk ("force at commit"), which is exactly the write-path
//! cost Hellerstein's retrospective calls out. This crate replaces force
//! with redo logging: committers append full-page-image redo records plus a
//! commit record to an append-only log and fsync *the log only*; data pages
//! drain lazily behind an LSN horizon. Recovery replays the log tail.
//!
//! Design points:
//!
//! * **LSN = byte offset.** A record's LSN is its physical position in the
//!   logical log stream, carried inside the record header and validated
//!   against that position on every read. A recycled segment still holding
//!   stale bytes can never replay: every stale record's embedded LSN
//!   disagrees with its stream position, so the reader stops there. The
//!   CRC deliberately does *not* cover the LSN — records are encoded and
//!   checksummed outside the append lock ([`WalRecord::prepare`]) and only
//!   the LSN hole is patched under it.
//! * **Records never span segments.** When a record does not fit, the
//!   remainder of the segment is zero-filled (sparsely, via `set_len`) and
//!   the log continues in the next segment. A zero magic word therefore
//!   means "padding, skip to the next segment boundary", while any other
//!   mismatch means end-of-log.
//! * **Group commit.** `flush_to` lets concurrent committers ride one
//!   fsync: the first caller through the flush mutex becomes the leader
//!   and syncs through the current end of log; parked callers re-check the
//!   `flushed` watermark on wake and return without touching the device.
//!   (The parking_lot shim has no condvar; parking on the flush mutex
//!   itself gives the same batching with strictly less machinery.)
//! * **Checkpoints bound replay.** A checkpoint record carries the redo
//!   LSN — the oldest `rec_lsn` of any dirty page still unlogged to its
//!   home location — and segments wholly below it are renamed to future
//!   positions and truncated (recycled). Storage managers whose contents
//!   are not yet home-durable (the WORM archive's staged blocks) pin the
//!   horizon via [`Wal::pin_smgr`]: the oldest live record per
//!   `(smgr, rel)` is tracked and clamps the horizon until the manager
//!   proves the relation durable and the pin is pruned at checkpoint
//!   ([`Wal::prune_pins`]) — so WORM activity delays recycling only
//!   while it actually needs replay, instead of freezing it forever.
//!
//! Lock order (see `shims/parking_lot/src/ranks.rs`): `wal.flush` (44) is
//! taken before `wal.append` (46); the flush leader snapshots the appender
//! under both. Buffer-pool callers arrive holding a frame latch (40), so
//! both WAL ranks sit between the frame latch and the smgr ranks (50+),
//! which WAL never takes.

#![deny(unsafe_code)]

use parking_lot::{ranks, Mutex};
use pglo_pages::checksum::crc32;
use pglo_pages::{PageBuf, PAGE_SIZE};

pub mod group;
use group::GroupFlush;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Log sequence number: a byte offset into the logical log stream.
pub type Lsn = u64;

/// Default segment size. Large enough that rotation is rare under the
/// bench write mix, small enough that recycling keeps pace.
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

/// Smallest allowed segment: must comfortably hold the largest record
/// (a page image, [`PAGE_IMAGE_TOTAL`] bytes) plus a checkpoint.
pub const MIN_SEGMENT_BYTES: u64 = 64 * 1024;

/// `b"WALR"` little-endian; first word of every record.
const MAGIC: u32 = 0x524c_4157;

/// Fixed record header: magic, crc, payload len, kind + padding, lsn.
pub const HEADER_BYTES: usize = 24;

/// Total encoded size of a page-image record.
pub const PAGE_IMAGE_TOTAL: u64 = (HEADER_BYTES + 16 + PAGE_SIZE) as u64;

/// Record kind tags (the `kind` header byte).
pub const KIND_PAGE_IMAGE: u8 = 1;
/// Commit record tag.
pub const KIND_COMMIT: u8 = 2;
/// WORM burn record tag.
pub const KIND_WORM_BURN: u8 = 3;
/// Checkpoint record tag.
pub const KIND_CHECKPOINT: u8 = 4;

// ---------------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------------

/// One redo record. Page images are full 8 KB copies: replay is blindly
/// idempotent (last image wins) and needs no byte-diff machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Full image of one page as of logging time.
    PageImage {
        /// Storage manager id (raw; the WAL has no smgr dependency).
        smgr: u32,
        /// Relation file id.
        rel: u64,
        /// Block number within the relation.
        block: u32,
        /// The 8 KB page contents.
        image: Box<PageBuf>,
    },
    /// Transaction `xid` committed at timestamp `ts`. Durable once this
    /// record is flushed; recovery re-marks the clog from these.
    Commit {
        /// Committing transaction id.
        xid: u32,
        /// Commit timestamp assigned by the transaction manager.
        ts: u64,
    },
    /// WORM relation `rel` on manager `smgr` burned its staged blocks
    /// (idempotent on replay: burning a burned block is a no-op).
    WormBurn {
        /// Storage manager id.
        smgr: u32,
        /// Relation file id.
        rel: u64,
    },
    /// Replay may start at `redo_lsn`; everything older is on disk.
    Checkpoint {
        /// The redo horizon at checkpoint time.
        redo_lsn: Lsn,
    },
}

impl WalRecord {
    /// The `kind` header byte for this record.
    pub fn kind(&self) -> u8 {
        match self {
            WalRecord::PageImage { .. } => KIND_PAGE_IMAGE,
            WalRecord::Commit { .. } => KIND_COMMIT,
            WalRecord::WormBurn { .. } => KIND_WORM_BURN,
            WalRecord::Checkpoint { .. } => KIND_CHECKPOINT,
        }
    }

    fn payload_len(&self) -> usize {
        match self {
            WalRecord::PageImage { .. } => 16 + PAGE_SIZE,
            WalRecord::Commit { .. } | WalRecord::WormBurn { .. } => 16,
            WalRecord::Checkpoint { .. } => 8,
        }
    }

    /// Encode into a [`PreparedRecord`] with the LSN left as a hole.
    /// The CRC covers header bytes 8..16 (length, kind, padding) plus
    /// the payload — deliberately *not* the LSN, which the reader
    /// validates against the record's stream position instead. That
    /// keeps checksumming (the expensive part, for page images) out of
    /// the appender's critical section: the LSN is patched in under the
    /// append lock without touching the CRC.
    pub fn prepare(&self) -> PreparedRecord {
        let mut buf = header(self.kind(), self.payload_len());
        match self {
            WalRecord::PageImage { smgr, rel, block, image } => {
                buf.extend_from_slice(&smgr.to_le_bytes());
                buf.extend_from_slice(&block.to_le_bytes());
                buf.extend_from_slice(&rel.to_le_bytes());
                buf.extend_from_slice(&image[..]);
            }
            WalRecord::Commit { xid, ts } => {
                buf.extend_from_slice(&xid.to_le_bytes());
                buf.extend_from_slice(&0u32.to_le_bytes());
                buf.extend_from_slice(&ts.to_le_bytes());
            }
            WalRecord::WormBurn { smgr, rel } => {
                buf.extend_from_slice(&smgr.to_le_bytes());
                buf.extend_from_slice(&0u32.to_le_bytes());
                buf.extend_from_slice(&rel.to_le_bytes());
            }
            WalRecord::Checkpoint { redo_lsn } => {
                buf.extend_from_slice(&redo_lsn.to_le_bytes());
            }
        }
        PreparedRecord::seal(buf, self.pin())
    }

    /// The `(smgr, rel)` whose recycle pin this record should note, if any.
    fn pin(&self) -> Option<(u32, u64)> {
        match self {
            WalRecord::PageImage { smgr, rel, .. } | WalRecord::WormBurn { smgr, rel } => {
                Some((*smgr, *rel))
            }
            _ => None,
        }
    }
}

/// The 24-byte header of a record of `kind`, in a buffer sized for its
/// `plen` payload bytes; CRC and LSN are holes for [`PreparedRecord::seal`]
/// and the appender.
fn header(kind: u8, plen: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_BYTES + plen);
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes()); // crc placeholder
    buf.extend_from_slice(&(plen as u32).to_le_bytes());
    buf.push(kind);
    buf.extend_from_slice(&[0u8; 3]);
    buf.extend_from_slice(&0u64.to_le_bytes()); // lsn hole
    buf
}

/// A record fully encoded and checksummed *before* the append lock:
/// only the 8-byte LSN hole is patched at append time. Build one with
/// [`WalRecord::prepare`], or [`PreparedRecord::page_image`] to encode
/// straight from a borrowed page (no intermediate copy).
pub struct PreparedRecord {
    bytes: Vec<u8>,
    pin: Option<(u32, u64)>,
}

impl PreparedRecord {
    fn seal(mut buf: Vec<u8>, pin: Option<(u32, u64)>) -> Self {
        let crc = crc32(crc32(0, &buf[8..16]), &buf[HEADER_BYTES..]);
        buf[4..8].copy_from_slice(&crc.to_le_bytes());
        PreparedRecord { bytes: buf, pin }
    }

    /// Encode a page-image record directly from a borrowed page: the
    /// one memcpy lands in the record buffer, so callers holding a
    /// frame latch need no throwaway page clone.
    pub fn page_image(smgr: u32, rel: u64, block: u32, image: &PageBuf) -> Self {
        let mut buf = header(KIND_PAGE_IMAGE, 16 + PAGE_SIZE);
        buf.extend_from_slice(&smgr.to_le_bytes());
        buf.extend_from_slice(&block.to_le_bytes());
        buf.extend_from_slice(&rel.to_le_bytes());
        buf.extend_from_slice(&image[..]);
        Self::seal(buf, Some((smgr, rel)))
    }

    /// Total encoded size (header + payload).
    pub fn total_len(&self) -> u64 {
        self.bytes.len() as u64
    }
}

/// Stream positions assigned to one record by [`Wal::append_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendedAt {
    /// Position of the record header (a page's `rec_lsn`).
    pub start: Lsn,
    /// First position past the record (a page's `page_lsn`; pass to
    /// [`Wal::flush_to`]).
    pub end: Lsn,
}

fn read_u32(b: &[u8], off: usize) -> u32 {
    let mut x = [0u8; 4];
    x.copy_from_slice(&b[off..off + 4]);
    u32::from_le_bytes(x)
}

fn read_u64(b: &[u8], off: usize) -> u64 {
    let mut x = [0u8; 8];
    x.copy_from_slice(&b[off..off + 8]);
    u64::from_le_bytes(x)
}

/// Decode a payload previously validated by header CRC. `None` means an
/// unknown kind or a length that disagrees with the kind.
fn decode_payload(kind: u8, payload: &[u8]) -> Option<WalRecord> {
    match kind {
        KIND_PAGE_IMAGE if payload.len() == 16 + PAGE_SIZE => {
            let mut image: Box<PageBuf> = pglo_pages::alloc_page();
            image.copy_from_slice(&payload[16..]);
            Some(WalRecord::PageImage {
                smgr: read_u32(payload, 0),
                block: read_u32(payload, 4),
                rel: read_u64(payload, 8),
                image,
            })
        }
        KIND_COMMIT if payload.len() == 16 => {
            Some(WalRecord::Commit { xid: read_u32(payload, 0), ts: read_u64(payload, 8) })
        }
        KIND_WORM_BURN if payload.len() == 16 => {
            Some(WalRecord::WormBurn { smgr: read_u32(payload, 0), rel: read_u64(payload, 8) })
        }
        KIND_CHECKPOINT if payload.len() == 8 => {
            Some(WalRecord::Checkpoint { redo_lsn: read_u64(payload, 0) })
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Segment files
// ---------------------------------------------------------------------------

fn segment_name(seg_start: Lsn) -> String {
    format!("{seg_start:016x}.seg")
}

/// Path of the segment file that holds stream position `lsn`.
pub fn segment_path(dir: &Path, lsn: Lsn, segment_bytes: u64) -> PathBuf {
    dir.join(segment_name(lsn - lsn % segment_bytes))
}

/// Sorted `(seg_start, path)` for every well-formed segment file name.
fn list_segments(dir: &Path, segment_bytes: u64) -> io::Result<Vec<(Lsn, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(hex) = name.strip_suffix(".seg") else { continue };
        if hex.len() != 16 {
            continue;
        }
        let Ok(start) = Lsn::from_str_radix(hex, 16) else { continue };
        if start % segment_bytes != 0 {
            continue;
        }
        out.push((start, entry.path()));
    }
    out.sort_unstable_by_key(|(s, _)| *s);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Scanning (pass A: find the valid end of log + last checkpoint)
// ---------------------------------------------------------------------------

/// Location and shape of one valid record, as found by [`Wal::scan_records`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordInfo {
    /// Stream position of the record header.
    pub lsn: Lsn,
    /// Record kind byte.
    pub kind: u8,
    /// Header + payload bytes.
    pub total_len: u32,
    /// Segment file holding the record.
    pub file: PathBuf,
    /// Byte offset of the header within `file`.
    pub offset: u64,
}

struct ScanState {
    /// First position past the last valid record.
    end: Lsn,
    /// Redo horizon from the newest checkpoint record (or `start`).
    redo: Lsn,
    /// `(path, keep_bytes)` when the tail segment holds garbage past `end`.
    torn: Option<(PathBuf, u64)>,
    /// Every valid record, oldest first (only filled when `collect`).
    records: Vec<RecordInfo>,
}

/// Walk the segments in stream order, validating every record, stopping
/// at the first torn/stale/absent one. Sound against recycled segments
/// (embedded-LSN mismatch) and torn tails (short header, bad CRC, length
/// past EOF). `collect` additionally gathers per-record info.
fn scan(dir: &Path, segment_bytes: u64, collect: bool) -> io::Result<ScanState> {
    let segs = list_segments(dir, segment_bytes)?;
    let Some(&(first_start, _)) = segs.first() else {
        return Ok(ScanState { end: 0, redo: 0, torn: None, records: Vec::new() });
    };
    let mut state =
        ScanState { end: first_start, redo: first_start, torn: None, records: Vec::new() };
    let mut pos = first_start;
    'segments: for (seg_start, path) in &segs {
        if *seg_start != pos {
            // Gap, or a recycled segment past the true tail: end of log.
            break;
        }
        let bytes = fs::read(path)?;
        let usable = bytes.len().min(segment_bytes as usize);
        loop {
            let off = (pos - seg_start) as usize;
            if off + HEADER_BYTES > usable {
                // Short tail. Anything left is a torn header.
                if off < usable {
                    state.torn = Some((path.clone(), off as u64));
                }
                break 'segments;
            }
            let magic = read_u32(&bytes, off);
            if magic == 0 {
                // Zero fill from rotation: the log continues in the next
                // segment. (A torn record can never start with a zero
                // word — writers place the magic first.)
                pos = seg_start + segment_bytes;
                continue 'segments;
            }
            let crc = read_u32(&bytes, off + 4);
            let plen = read_u32(&bytes, off + 8) as usize;
            let kind = bytes[off + 12];
            let lsn = read_u64(&bytes, off + 16);
            let torn = magic != MAGIC
                || lsn != pos
                || off + HEADER_BYTES + plen > usable
                || crc32(
                    crc32(0, &bytes[off + 8..off + 16]),
                    &bytes[off + HEADER_BYTES..off + HEADER_BYTES + plen],
                ) != crc;
            if torn {
                state.torn = Some((path.clone(), off as u64));
                break 'segments;
            }
            if kind == KIND_CHECKPOINT && plen == 8 {
                state.redo = read_u64(&bytes, off + HEADER_BYTES);
            }
            if collect {
                state.records.push(RecordInfo {
                    lsn: pos,
                    kind,
                    total_len: (HEADER_BYTES + plen) as u32,
                    file: path.clone(),
                    offset: off as u64,
                });
            }
            pos += (HEADER_BYTES + plen) as u64;
            state.end = pos;
        }
    }
    // `end` never includes trailing zero padding: the appender re-derives
    // its write position from the last real record.
    Ok(state)
}

// ---------------------------------------------------------------------------
// The log
// ---------------------------------------------------------------------------

/// Tuning knobs for [`Wal::open`].
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Fsync the log on flush/rotation. Off = crash-consistent against
    /// process kill but not power loss (matches the pool's default).
    pub durable_sync: bool,
    /// Segment size in bytes; clamped to [`MIN_SEGMENT_BYTES`].
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self { durable_sync: false, segment_bytes: DEFAULT_SEGMENT_BYTES }
    }
}

/// What [`Wal::replay`] covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplaySummary {
    /// First stream position considered (the redo horizon).
    pub start: Lsn,
    /// First position past the last replayed record.
    pub end: Lsn,
    /// Records handed to the callback.
    pub records: u64,
}

struct AppendInner {
    /// Current tail segment.
    file: File,
    /// Stream position where `file` begins.
    seg_start: Lsn,
    /// Next stream position to write.
    end: Lsn,
}

/// The write-ahead log. One per [`StorageEnv`]; shared via `Arc` with the
/// buffer pool (page images, WAL-before-data) and the transaction manager
/// (commit records, group-commit flush).
///
/// [`StorageEnv`]: https://docs.rs/pglo-heap
pub struct Wal {
    dir: PathBuf,
    opts: WalOptions,
    /// Appender state; rank `wal.append` (46).
    append: Mutex<AppendInner>,
    /// Group-commit flush slot + durable watermark (modulo
    /// `durable_sync = false`, where durable only means "written"); the
    /// protocol lives in [`group::GroupFlush`] on the model-checkable
    /// facade.
    group: GroupFlush,
    /// Mirror of `AppendInner::end` for lock-free reads.
    end: AtomicU64,
    /// Current redo horizon (last checkpoint written or recovered).
    redo: AtomicU64,
    /// End LSN right after the last checkpoint record was appended; an
    /// idle checkpointer whose log hasn't grown since skips, so periodic
    /// checkpointing cannot fill the log with its own records.
    last_ckpt: AtomicU64,
    /// Bitmask of smgr ids (< 64) whose records pin recycling.
    pinned_smgrs: AtomicU64,
    /// Oldest live record LSN per `(smgr, rel)` for pinned (log-resident)
    /// storage managers; rank `wal.pins` (48). An entry clamps the
    /// recycle horizon until [`Wal::prune_pins`] removes it — at
    /// checkpoint, once the owning manager proves the relation's
    /// contents are durable at home and replay is no longer needed.
    pins: Mutex<HashMap<(u32, u64), Lsn>>,
}

impl Wal {
    /// Open (or create) the log under `dir`, validating the tail: a torn
    /// final record is truncated away, never replayed. The returned log
    /// is positioned to append after the last valid record.
    pub fn open(dir: impl AsRef<Path>, mut opts: WalOptions) -> io::Result<Wal> {
        opts.segment_bytes = opts.segment_bytes.max(MIN_SEGMENT_BYTES);
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let state = scan(&dir, opts.segment_bytes, false)?;
        if let Some((path, keep)) = &state.torn {
            // Drop the garbage so a later torn write cannot splice onto it.
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(*keep)?;
            if opts.durable_sync {
                f.sync_data()?;
            }
        }
        let seg_start = state.end - state.end % opts.segment_bytes;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(segment_name(seg_start)))?;
        Ok(Wal {
            dir,
            opts,
            append: Mutex::with_rank(
                AppendInner { file, seg_start, end: state.end },
                ranks::WAL_APPEND,
            ),
            group: GroupFlush::new(state.end),
            end: AtomicU64::new(state.end),
            redo: AtomicU64::new(state.redo),
            last_ckpt: AtomicU64::new(state.end),
            pinned_smgrs: AtomicU64::new(0),
            pins: Mutex::with_rank(HashMap::new(), ranks::WAL_PINS),
        })
    }

    /// The configured options (bench reporting reads `durable_sync`).
    pub fn options(&self) -> WalOptions {
        self.opts
    }

    /// First position past the last appended record.
    pub fn end_lsn(&self) -> Lsn {
        self.end.load(Ordering::Acquire)
    }

    /// Everything below this position has been flushed.
    pub fn flushed_lsn(&self) -> Lsn {
        self.group.durable()
    }

    /// Current redo horizon: replay after a crash starts here.
    pub fn redo_lsn(&self) -> Lsn {
        self.redo.load(Ordering::Acquire)
    }

    /// Mark storage manager `smgr` as log-resident: its page images and
    /// burn records pin the recycle horizon per relation, because until
    /// the manager makes a relation durable at home, replay is the only
    /// way its contents come back. Call before [`Wal::replay`] so pins
    /// recovered from the log are honored; release with
    /// [`Wal::prune_pins`] once relations become home-durable.
    pub fn pin_smgr(&self, smgr: u32) {
        if smgr < 64 {
            self.pinned_smgrs.fetch_or(1 << smgr, Ordering::AcqRel);
        }
    }

    fn note_pinned(&self, smgr: u32, rel: u64, lsn: Lsn) {
        if smgr < 64 && self.pinned_smgrs.load(Ordering::Acquire) & (1 << smgr) != 0 {
            let mut pins = self.pins.lock();
            let e = pins.entry((smgr, rel)).or_insert(lsn);
            if lsn < *e {
                *e = lsn;
            }
        }
    }

    /// Record that log position `lsn` still matters for `(smgr, rel)`:
    /// the data it describes is not yet durable at home, so the record
    /// must survive recycling. No-op unless [`Wal::pin_smgr`] marked the
    /// manager log-resident, or when `lsn` is 0 (page never logged).
    /// Callers register the pin *after* staging data into the manager
    /// and *before* releasing whatever latch made the two atomic, so a
    /// concurrent [`Wal::prune_pins`] either sees the staged data or the
    /// pin — never neither.
    pub fn pin_record(&self, smgr: u32, rel: u64, lsn: Lsn) {
        if lsn != 0 {
            self.note_pinned(smgr, rel, lsn);
        }
    }

    /// Drop pins owned by `smgr` for every relation where `keep(rel)`
    /// returns false — i.e. the manager attests the relation's contents
    /// are durable at home and its log records need never replay. The
    /// pins lock is held across the callback so a concurrent
    /// stage-then-pin writer is ordered: its [`Wal::pin_record`] blocks
    /// here and registers after the prune, keeping the new data pinned.
    pub fn prune_pins(&self, smgr: u32, mut keep: impl FnMut(u64) -> bool) {
        let mut pins = self.pins.lock();
        pins.retain(|&(s, rel), _| s != smgr || keep(rel));
    }

    /// Append one record; returns the stream position just *past* it —
    /// pass that to [`Wal::flush_to`] to make the record durable. The
    /// record is visible to `replay` only after a flush covers it.
    pub fn append(&self, rec: &WalRecord) -> io::Result<Lsn> {
        let mut batch = [rec.prepare()];
        let at = self.append_batch(&mut batch)?;
        Ok(at[0].end)
    }

    /// Append a batch of pre-encoded records under one append-lock
    /// acquisition. Contiguous records coalesce into a single device
    /// write (a commit's worth of page images is one `pwrite`, not one
    /// per page); only LSN patching and the writes themselves happen
    /// under the lock — encoding and checksumming were paid by the
    /// caller, outside it. Returns each record's stream positions, in
    /// batch order.
    pub fn append_batch(&self, batch: &mut [PreparedRecord]) -> io::Result<Vec<AppendedAt>> {
        let mut out = Vec::with_capacity(batch.len());
        let mut buf: Vec<u8> = Vec::with_capacity(batch.iter().map(|r| r.bytes.len()).sum());
        let mut pins: Vec<(u32, u64, Lsn)> = Vec::new();
        let mut total = 0u64;
        let mut a = self.append.lock();
        let mut run_start = a.end;
        // On any failure `a.end` rolls back to `run_start`, the position
        // just past the bytes actually written: leaving it advanced past
        // an unwritten range would let later appends continue after a
        // permanent hole — recovery's scan stops at the hole, silently
        // losing every "durably flushed" record past it.
        let result: io::Result<()> = (|| {
            for rec in batch.iter_mut() {
                let len = rec.total_len();
                if a.end + len > a.seg_start + self.opts.segment_bytes {
                    if !buf.is_empty() {
                        // LINT: allow(R7, the append lock orders the log: bytes go out under the lock that assigned their LSNs)
                        a.file.write_all_at(&buf, run_start - a.seg_start)?;
                        buf.clear();
                        // The buffered run is on disk now; a rotation
                        // failure below must not roll it back.
                        run_start = a.end;
                    }
                    // LINT: allow(R7, the segment switch moves the tail the append lock guards)
                    self.rotate(&mut a)?;
                    run_start = a.end;
                }
                let lsn = a.end;
                rec.bytes[16..24].copy_from_slice(&lsn.to_le_bytes());
                buf.extend_from_slice(&rec.bytes);
                a.end = lsn + len;
                total += len;
                out.push(AppendedAt { start: lsn, end: a.end });
                if let Some((smgr, rel)) = rec.pin {
                    pins.push((smgr, rel, lsn));
                }
            }
            if !buf.is_empty() {
                // LINT: allow(R7, same: releasing before the write would let a later append land past a hole)
                a.file.write_all_at(&buf, run_start - a.seg_start)?;
            }
            Ok(())
        })();
        if result.is_err() {
            // Records written before the failure stay in the stream as
            // orphans (replay-idempotent); the caller retries the rest.
            a.end = run_start;
        }
        self.end.store(a.end, Ordering::Release);
        drop(a);
        result?;
        for (smgr, rel, lsn) in pins {
            self.note_pinned(smgr, rel, lsn);
        }
        obs::counter!("wal.append.bytes").add(total);
        Ok(out)
    }

    /// Zero-fill the rest of the current segment and move to the next.
    /// Called with the append lock held.
    fn rotate(&self, a: &mut AppendInner) -> io::Result<()> {
        // Sparse zero fill: readers treat a zero magic as "skip to the
        // next segment".
        a.file.set_len(self.opts.segment_bytes)?;
        if self.opts.durable_sync {
            a.file.sync_data()?;
        }
        let seg_start = a.seg_start + self.opts.segment_bytes;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(self.dir.join(segment_name(seg_start)))?;
        if self.opts.durable_sync {
            self.sync_dir()?;
        }
        a.file = file;
        a.seg_start = seg_start;
        a.end = seg_start;
        Ok(())
    }

    fn sync_dir(&self) -> io::Result<()> {
        File::open(&self.dir)?.sync_all()
    }

    /// Make everything below `lsn` durable, riding a concurrent flush if
    /// one already covers it (group commit). The caller that wins the
    /// flush mutex syncs through the *current* end of log, so everyone
    /// parked behind it returns without issuing another fsync.
    pub fn flush_to(&self, lsn: Lsn) -> io::Result<()> {
        let led = self.group.flush_to(lsn, || -> io::Result<u64> {
            // Leader: snapshot the appender, then sync without holding it.
            // The tail segment is cloned (a `dup`) only when it will be
            // synced.
            let (file, end) = {
                let a = self.append.lock();
                let file = if self.opts.durable_sync { Some(a.file.try_clone()?) } else { None };
                (file, a.end)
            };
            if let Some(file) = file {
                let _span = obs::span!("wal.fsync");
                file.sync_data()?;
            }
            Ok(end)
        })?;
        if let Some(batch) = led {
            obs::histogram!("wal.group_commit.batch").record(batch);
        }
        Ok(())
    }

    /// Flush the whole log (shutdown path).
    pub fn flush_all(&self) -> io::Result<()> {
        self.flush_to(self.end_lsn())
    }

    /// Write a checkpoint and recycle segments wholly below the horizon.
    ///
    /// `dirty_horizon` is the buffer pool's oldest `rec_lsn` among dirty
    /// frames (`None` = nothing pending, the horizon is the end of log).
    /// The effective horizon is additionally clamped by pinned-smgr
    /// records and never moves backwards. Returns the new redo LSN.
    pub fn checkpoint(&self, dirty_horizon: Option<Lsn>) -> io::Result<Lsn> {
        // Idle skip: if nothing was appended since the last checkpoint
        // record, another one can't move the horizon — and a periodic
        // checkpointer must not grow the log all by itself.
        if self.end_lsn() == self.last_ckpt.load(Ordering::Acquire) {
            return Ok(self.redo.load(Ordering::Acquire));
        }
        let mut horizon = dirty_horizon.unwrap_or_else(|| self.end_lsn());
        let pin_floor = {
            let pins = self.pins.lock();
            pins.values().copied().min().unwrap_or(u64::MAX)
        };
        horizon = horizon.min(pin_floor);
        let prev = self.redo.load(Ordering::Acquire);
        horizon = horizon.max(prev);
        let end = self.append(&WalRecord::Checkpoint { redo_lsn: horizon })?;
        self.flush_to(end)?;
        self.last_ckpt.store(end, Ordering::Release);
        self.redo.store(horizon, Ordering::Release);
        self.recycle(horizon)?;
        Ok(horizon)
    }

    /// Rename segments wholly below `horizon` to future stream positions
    /// and truncate them. Runs under the append lock so a concurrent
    /// rotation cannot race a rename onto the same target name.
    fn recycle(&self, horizon: Lsn) -> io::Result<()> {
        let a = self.append.lock();
        // LINT: allow(R7, the segment listing must be stable while renaming)
        let segs = list_segments(&self.dir, self.opts.segment_bytes)?;
        let Some(&(max_start, _)) = segs.last() else { return Ok(()) };
        let mut target = max_start + self.opts.segment_bytes;
        let mut recycled = 0u64;
        for (seg_start, path) in &segs {
            if seg_start + self.opts.segment_bytes > horizon || *seg_start == a.seg_start {
                continue;
            }
            // LINT: allow(R7, the append lock reserves target names against rotation)
            fs::rename(path, self.dir.join(segment_name(target)))?;
            if self.opts.durable_sync {
                // Persist each rename before the next. `segs` is sorted
                // ascending, so a power loss always leaves a *prefix* of
                // the renames on disk and the surviving below-horizon
                // segments stay contiguous. One deferred sync could let
                // the renames persist out of order — a gap that
                // recovery's scan mistakes for the end of log, far below
                // the durable tail. (Truncation persistence is not
                // needed: stale content at a future name is defused by
                // the positional LSN check.)
                // LINT: allow(R7, rename persistence order is part of the reserved-name protocol)
                self.sync_dir()?;
            }
            // LINT: allow(R7, reopen the just-renamed segment under the same reservation)
            let f = OpenOptions::new().write(true).open(self.dir.join(segment_name(target)))?;
            // LINT: allow(R7, stale bytes are truncated before the name can be reused)
            f.set_len(0)?;
            target += self.opts.segment_bytes;
            recycled += 1;
        }
        drop(a);
        if recycled > 0 {
            obs::counter!("wal.recycle.segments").add(recycled);
        }
        Ok(())
    }

    /// Replay every record from the redo horizon to the end of log,
    /// oldest first. Call once at open, before any appends; pinned-smgr
    /// positions are re-learned as a side effect. The callback sees
    /// every record kind, checkpoints included.
    pub fn replay<F>(&self, mut f: F) -> io::Result<ReplaySummary>
    where
        F: FnMut(Lsn, WalRecord) -> io::Result<()>,
    {
        let start = self.redo.load(Ordering::Acquire);
        let end = self.end_lsn();
        let state = scan(&self.dir, self.opts.segment_bytes, true)?;
        let mut records = 0u64;
        for info in &state.records {
            if info.lsn < start || info.lsn >= end {
                continue;
            }
            let bytes = fs::read(&info.file)?;
            let lo = info.offset as usize + HEADER_BYTES;
            let hi = info.offset as usize + info.total_len as usize;
            if hi > bytes.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("wal: record at lsn {} shrank during replay", info.lsn),
                ));
            }
            let Some(rec) = decode_payload(info.kind, &bytes[lo..hi]) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("wal: undecodable kind {} at lsn {}", info.kind, info.lsn),
                ));
            };
            if let WalRecord::PageImage { smgr, rel, .. } | WalRecord::WormBurn { smgr, rel } = &rec
            {
                self.note_pinned(*smgr, *rel, info.lsn);
            }
            f(info.lsn, rec)?;
            records += 1;
        }
        Ok(ReplaySummary { start, end, records })
    }

    /// Scan a (possibly closed) log directory, returning the location of
    /// every valid record in stream order. Test/diagnostic surface: the
    /// torn-tail restart test uses this to find record byte boundaries.
    pub fn scan_records(dir: impl AsRef<Path>, segment_bytes: u64) -> io::Result<Vec<RecordInfo>> {
        let segment_bytes = segment_bytes.max(MIN_SEGMENT_BYTES);
        Ok(scan(dir.as_ref(), segment_bytes, true)?.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts() -> WalOptions {
        WalOptions { durable_sync: false, segment_bytes: MIN_SEGMENT_BYTES }
    }

    fn page(fill: u8) -> Box<PageBuf> {
        let mut p = pglo_pages::alloc_page();
        p.fill(fill);
        p
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // IEEE 802.3 check value for "123456789". The routine itself
        // (table loop against the fold, every length and alignment) is
        // tested where it lives, in `pglo_pages::checksum`; what the log
        // adds is chaining — `seal` and `scan` feed header bytes 8..16
        // and the payload as two segments.
        assert_eq!(crc32(0, b"123456789"), 0xcbf4_3926);
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 31 % 251) as u8).collect();
        for len in [0, 1, 7, 8, 9, 15, 16, 63, 64, 72, 1024] {
            let (head, payload) = data[..len].split_at(len.min(8));
            assert_eq!(crc32(crc32(0, head), payload), crc32(0, &data[..len]), "len {len}");
        }
    }

    /// Format pin: the CRC bytes of these records were computed by the
    /// slice-by-8 loop this crate carried before the checksum moved to
    /// `pglo_pages::checksum`. A slip in polynomial, seed, chaining or
    /// the bytes covered changes them — and would orphan every log
    /// already on disk.
    #[test]
    fn golden_record_crc_bytes() {
        let mut image = pglo_pages::alloc_page();
        for (i, b) in image.iter_mut().enumerate() {
            *b = (i * 31 % 251) as u8;
        }
        let rec = PreparedRecord::page_image(3, 0x1122_3344_5566_7788, 9, &image);
        assert_eq!(rec.bytes.len() as u64, PAGE_IMAGE_TOTAL);
        assert_eq!(rec.bytes[..4], MAGIC.to_le_bytes());
        assert_eq!(rec.bytes[4..8], 0x7fac_865b_u32.to_le_bytes());
        let same = WalRecord::PageImage { smgr: 3, rel: 0x1122_3344_5566_7788, block: 9, image };
        assert_eq!(same.prepare().bytes, rec.bytes);
        // A 16-byte payload never reaches the fold: the table loop's pin.
        let commit = WalRecord::Commit { xid: 7, ts: 0x0102_0304_0506_0708 }.prepare();
        assert_eq!(commit.bytes[4..8], 0x2b73_09a8_u32.to_le_bytes());
    }

    #[test]
    fn batch_append_coalesces_and_survives_rotation() {
        let dir = tempfile::tempdir().unwrap();
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        // Enough images that the batch must split across a rotation.
        let per_seg = MIN_SEGMENT_BYTES / PAGE_IMAGE_TOTAL;
        let n = per_seg as usize + 3;
        let mut batch: Vec<PreparedRecord> =
            (0..n).map(|i| PreparedRecord::page_image(0, 7, i as u32, &page(i as u8))).collect();
        let ats = wal.append_batch(&mut batch).unwrap();
        assert_eq!(ats.len(), n);
        for w in ats.windows(2) {
            assert!(w[0].end <= w[1].start, "batch records are in stream order");
        }
        wal.flush_all().unwrap();
        let seen = collect_replay(&wal);
        assert_eq!(seen.len(), n);
        for (i, (lsn, rec)) in seen.iter().enumerate() {
            assert_eq!(*lsn, ats[i].start);
            match rec {
                WalRecord::PageImage { rel: 7, block, image, .. } => {
                    assert_eq!(*block, i as u32);
                    assert!(image.iter().all(|&b| b == i as u8));
                }
                other => panic!("unexpected record {other:?}"),
            }
        }
    }

    fn collect_replay(wal: &Wal) -> Vec<(Lsn, WalRecord)> {
        let mut out = Vec::new();
        wal.replay(|lsn, rec| {
            out.push((lsn, rec));
            Ok(())
        })
        .unwrap();
        out
    }

    #[test]
    fn append_flush_replay_roundtrip() {
        let dir = tempfile::tempdir().unwrap();
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        let r1 = WalRecord::PageImage { smgr: 1, rel: 7, block: 3, image: page(0xAB) };
        let r2 = WalRecord::Commit { xid: 42, ts: 99 };
        let e1 = wal.append(&r1).unwrap();
        let e2 = wal.append(&r2).unwrap();
        assert!(e2 > e1);
        wal.flush_to(e2).unwrap();
        assert_eq!(wal.flushed_lsn(), e2);
        drop(wal);

        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        assert_eq!(wal.end_lsn(), e2);
        let recs = collect_replay(&wal);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].1, r1);
        assert_eq!(recs[1].1, r2);
    }

    #[test]
    fn rotation_and_segment_skip() {
        let dir = tempfile::tempdir().unwrap();
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        // Each page image is ~8 KiB; push well past one 64 KiB segment.
        let n = 20u32;
        for i in 0..n {
            wal.append(&WalRecord::PageImage { smgr: 1, rel: 1, block: i, image: page(i as u8) })
                .unwrap();
        }
        wal.flush_all().unwrap();
        let end = wal.end_lsn();
        assert!(end > MIN_SEGMENT_BYTES, "must have rotated");
        drop(wal);

        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        assert_eq!(wal.end_lsn(), end);
        let recs = collect_replay(&wal);
        assert_eq!(recs.len(), n as usize);
        for (i, (_, rec)) in recs.iter().enumerate() {
            match rec {
                WalRecord::PageImage { block, image, .. } => {
                    assert_eq!(*block, i as u32);
                    assert!(image.iter().all(|&b| b == i as u8));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn torn_tail_truncated_at_every_byte() {
        let dir = tempfile::tempdir().unwrap();
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        wal.append(&WalRecord::Commit { xid: 1, ts: 1 }).unwrap();
        let keep_end = wal.append(&WalRecord::Commit { xid: 2, ts: 2 }).unwrap();
        wal.append(&WalRecord::Commit { xid: 3, ts: 3 }).unwrap();
        wal.flush_all().unwrap();
        drop(wal);

        let recs = Wal::scan_records(dir.path(), MIN_SEGMENT_BYTES).unwrap();
        assert_eq!(recs.len(), 3);
        let last = recs.last().unwrap().clone();
        let pristine = fs::read(&last.file).unwrap();

        for cut in 1..last.total_len as u64 {
            fs::write(&last.file, &pristine).unwrap();
            let f = OpenOptions::new().write(true).open(&last.file).unwrap();
            f.set_len(last.offset + cut).unwrap();
            drop(f);

            let wal = Wal::open(dir.path(), small_opts()).unwrap();
            assert_eq!(wal.end_lsn(), keep_end, "cut at {cut}");
            let recs = collect_replay(&wal);
            assert_eq!(recs.len(), 2, "cut at {cut}");
            assert_eq!(recs[1].1, WalRecord::Commit { xid: 2, ts: 2 });
        }
    }

    #[test]
    fn corrupt_tail_bytes_do_not_replay() {
        let dir = tempfile::tempdir().unwrap();
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        wal.append(&WalRecord::Commit { xid: 1, ts: 1 }).unwrap();
        let keep_end = wal.append(&WalRecord::Commit { xid: 2, ts: 2 }).unwrap();
        wal.flush_all().unwrap();
        drop(wal);

        let recs = Wal::scan_records(dir.path(), MIN_SEGMENT_BYTES).unwrap();
        let last = recs.last().unwrap().clone();
        // Flip one payload byte: CRC must reject the record.
        let mut bytes = fs::read(&last.file).unwrap();
        let idx = last.offset as usize + HEADER_BYTES + 3;
        bytes[idx] ^= 0xFF;
        fs::write(&last.file, &bytes).unwrap();

        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        assert_eq!(wal.end_lsn(), keep_end - (keep_end - last.lsn));
        assert_eq!(wal.end_lsn(), last.lsn);
        let recs = collect_replay(&wal);
        assert_eq!(recs.len(), 1);
        // And appending after truncation works.
        let e = wal.append(&WalRecord::Commit { xid: 9, ts: 9 }).unwrap();
        wal.flush_to(e).unwrap();
        drop(wal);
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        assert_eq!(collect_replay(&wal).len(), 2);
    }

    #[test]
    fn checkpoint_bounds_replay_and_recycles() {
        let dir = tempfile::tempdir().unwrap();
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        for i in 0..20u32 {
            wal.append(&WalRecord::PageImage { smgr: 1, rel: 1, block: i, image: page(1) })
                .unwrap();
        }
        let mid = wal.end_lsn();
        let horizon = wal.checkpoint(Some(mid)).unwrap();
        assert_eq!(horizon, mid);
        let tail = WalRecord::Commit { xid: 5, ts: 5 };
        let e = wal.append(&tail).unwrap();
        wal.flush_to(e).unwrap();
        // Segments wholly below `mid` were renamed + truncated.
        let segs = list_segments(dir.path(), MIN_SEGMENT_BYTES).unwrap();
        assert!(segs.iter().all(|(s, _)| s + MIN_SEGMENT_BYTES > mid || {
            fs::metadata(dir.path().join(segment_name(*s))).unwrap().len() == 0
        }));
        drop(wal);

        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        assert_eq!(wal.redo_lsn(), mid);
        let recs = collect_replay(&wal);
        // Only the checkpoint + the tail commit are at/after the horizon.
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].1, tail);
    }

    #[test]
    fn pinned_smgr_blocks_recycle() {
        let dir = tempfile::tempdir().unwrap();
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        wal.pin_smgr(3);
        let first = wal.end_lsn();
        wal.append(&WalRecord::PageImage { smgr: 3, rel: 1, block: 0, image: page(7) }).unwrap();
        for i in 0..20u32 {
            wal.append(&WalRecord::PageImage { smgr: 1, rel: 1, block: i, image: page(1) })
                .unwrap();
        }
        let horizon = wal.checkpoint(None).unwrap();
        // The pinned record holds the horizon at its LSN.
        assert_eq!(horizon, first);
        drop(wal);

        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        wal.pin_smgr(3);
        let recs = collect_replay(&wal);
        assert!(recs.iter().any(|(_, r)| matches!(r, WalRecord::PageImage { smgr: 3, .. })));
    }

    #[test]
    fn pruned_pins_release_the_recycle_horizon() {
        let dir = tempfile::tempdir().unwrap();
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        wal.pin_smgr(3);
        wal.append(&WalRecord::PageImage { smgr: 3, rel: 1, block: 0, image: page(7) }).unwrap();
        for i in 0..20u32 {
            wal.append(&WalRecord::PageImage { smgr: 1, rel: 1, block: i, image: page(1) })
                .unwrap();
        }
        let first = wal.checkpoint(None).unwrap();
        assert!(first < wal.end_lsn(), "pinned record holds the horizon");
        // The manager attests rel 1 is durable at home: the pin goes
        // away and the next checkpoint advances past the pinned image.
        wal.prune_pins(3, |_rel| false);
        wal.append(&WalRecord::Commit { xid: 1, ts: 1 }).unwrap();
        let after = wal.checkpoint(None).unwrap();
        assert!(after > first, "horizon advances once the pin is pruned");
        assert_eq!(after, wal.redo_lsn());
    }

    #[test]
    fn failed_append_leaves_no_hole() {
        let dir = tempfile::tempdir().unwrap();
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        // Make rotation fail: occupy the next segment's name with a
        // directory so the appender cannot create the file.
        fs::create_dir(dir.path().join(segment_name(MIN_SEGMENT_BYTES))).unwrap();
        let mut appended = 0u32;
        let mut block = 0u32;
        let failed = loop {
            let rec = WalRecord::PageImage { smgr: 1, rel: 1, block, image: page(block as u8) };
            block += 1;
            match wal.append(&rec) {
                Ok(_) => appended += 1,
                Err(_) => break wal.end_lsn(),
            }
            assert!(block < 100, "rotation never hit the blocked segment");
        };
        // The failed append must not advance the end past written bytes.
        let before_retry = wal.end_lsn();
        assert_eq!(before_retry, failed);
        // Unblock rotation; appends pick up exactly where the log ends.
        fs::remove_dir(dir.path().join(segment_name(MIN_SEGMENT_BYTES))).unwrap();
        wal.append(&WalRecord::Commit { xid: 9, ts: 9 }).unwrap();
        wal.flush_all().unwrap();
        drop(wal);
        // Recovery sees a contiguous log: every surviving page image
        // plus the post-retry commit, no gap in between.
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        let recs = collect_replay(&wal);
        assert_eq!(recs.len(), appended as usize + 1);
        assert_eq!(recs.last().unwrap().1, WalRecord::Commit { xid: 9, ts: 9 });
    }

    #[test]
    fn group_commit_rides_one_flush() {
        use std::sync::Arc;
        let dir = tempfile::tempdir().unwrap();
        let wal = Arc::new(Wal::open(dir.path(), small_opts()).unwrap());
        let threads: Vec<_> = (0..8u32)
            .map(|i| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    let e = wal.append(&WalRecord::Commit { xid: i, ts: i as u64 }).unwrap();
                    wal.flush_to(e).unwrap();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(wal.flushed_lsn(), wal.end_lsn());
        let recs = collect_replay(&wal);
        assert_eq!(recs.len(), 8);
    }

    #[test]
    fn stale_recycled_content_never_replays() {
        let dir = tempfile::tempdir().unwrap();
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        wal.append(&WalRecord::Commit { xid: 1, ts: 1 }).unwrap();
        wal.flush_all().unwrap();
        let end = wal.end_lsn();
        drop(wal);
        // Simulate a recycled segment that kept stale bytes: copy the
        // live segment to the next stream position without truncating.
        let cur = segment_path(dir.path(), 0, MIN_SEGMENT_BYTES);
        let stale = dir.path().join(segment_name(MIN_SEGMENT_BYTES));
        fs::copy(&cur, &stale).unwrap();
        // Pad the live segment so the scanner hops to the stale one.
        let f = OpenOptions::new().write(true).open(&cur).unwrap();
        f.set_len(MIN_SEGMENT_BYTES).unwrap();
        drop(f);

        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        // The stale record's embedded LSN (0) disagrees with its stream
        // position (MIN_SEGMENT_BYTES): end of log, nothing replayed
        // from the stale file.
        assert!(wal.end_lsn() <= MIN_SEGMENT_BYTES);
        let recs = collect_replay(&wal);
        assert!(recs.iter().all(|(lsn, _)| *lsn < end));
    }
}
