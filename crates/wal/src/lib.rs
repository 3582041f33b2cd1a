//! Redo write-ahead log: the durability spine of lobd.
//!
//! The source paper's no-overwrite storage makes every commit force all
//! dirty pages to disk ("force at commit"), which is exactly the write-path
//! cost Hellerstein's retrospective calls out. This crate replaces force
//! with redo logging: committers append page-delta redo records (the byte
//! ranges a page changed since its previous record) plus a commit record
//! to an append-only log and fsync *the log only*; data pages drain lazily
//! behind an LSN horizon. Recovery replays the log tail.
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
//! * **Records never span segments.** When a record does not fit, the log
//!   continues in the next segment behind an end-of-segment marker: zeros
//!   over the next header position (a fresh file is lengthened sparsely to
//!   full size). A zero magic word, or a remainder of a full-length segment
//!   too short for a header, therefore means "skip to the next segment
//!   boundary", while any other mismatch means end-of-log. The marker is
//!   what lets a reused segment keep its stale bytes: without it, the
//!   stale record after the last real one would end the log there.
//! * **Group commit.** `flush_to` lets concurrent committers ride one
//!   fsync: the first caller through the flush mutex becomes the leader
//!   and syncs through the current end of log; parked callers re-check the
//!   `flushed` watermark on wake and return without touching the device.
//!   (The parking_lot shim has no condvar; parking on the flush mutex
//!   itself gives the same batching with strictly less machinery.)
//! * **Checkpoints bound replay.** A checkpoint record carries the redo
//!   LSN — the oldest `rec_lsn` of any dirty page still unlogged to its
//!   home location — and segments wholly below it are renamed to future
//!   positions (recycled), where the appender later overwrites them in
//!   place, so a log write lands on cached file pages instead of growing a
//!   file. Beyond as many spare segments as recent checkpoints advanced
//!   the horizon by, they are removed instead. Storage managers whose contents
//!   are not yet home-durable (the WORM archive's staged blocks) pin the
//!   horizon via [`Wal::pin_smgr`]: the oldest live record per
//!   `(smgr, rel)` is tracked and clamps the horizon until the manager
//!   proves the relation durable and the pin is pruned at checkpoint
//!   ([`Wal::prune_pins`]) — so WORM activity delays recycling only
//!   while it actually needs replay, instead of freezing it forever.
//!   Commit records pin per XID under [`COMMIT_PIN`] the same way.
//! * **Logged counter limits.** A batch starts with a
//!   [`WalRecord::Limits`] once the noted XID high-water or the next OID
//!   passes its logged limit. An XID leaves the process only through the
//!   log: the pages that carry it go home after their deltas, which such
//!   a batch put behind its limit. An OID leaves it as a file name too,
//!   so [`Wal::next_oid`] flushes the limit before handing one out. A
//!   checkpoint's batch restates the limits.
//!
//! Lock order (see `shims/parking_lot/src/ranks.rs`): `wal.flush` (44) is
//! taken before `wal.append` (46); the flush leader snapshots the appender
//! under both. Buffer-pool callers arrive holding a frame latch (40), so
//! both WAL ranks sit between the frame latch and the smgr ranks (50+),
//! which WAL never takes.

// Library code: no panic sites, unranked locks or swallowed errors.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_methods,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok
    )
)]
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
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Log sequence number: a byte offset into the logical log stream.
pub type Lsn = u64;

/// Default segment size. Large enough that rotation is rare under the
/// bench write mix, small enough that recycling keeps pace.
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

/// Smallest allowed segment: must comfortably hold the largest record
/// (a whole-page delta, just over 8 KiB) plus a checkpoint.
pub const MIN_SEGMENT_BYTES: u64 = 64 * 1024;

/// `b"WALR"` little-endian; first word of every record.
const MAGIC: u32 = 0x524c_4157;

/// Fixed record header: magic, crc, payload len, kind + padding, lsn.
pub const HEADER_BYTES: usize = 24;

/// Delta ranges start and end on a multiple of `WORD` bytes; the diff
/// compares `BLOCK` words at a time, branch-free within a block.
const WORD: usize = 8;
const BLOCK: usize = 8;

/// Each delta range: `off u16 | len u16`, then `len` bytes.
const RANGE_HEADER: usize = 4;

// Record kind tags (the `kind` header byte). Kinds 1 (the whole-page
// image logs held before deltas) and 6 (the XID-only limit record) no
// longer decode: replay refuses a log holding either, and a directory
// that wrote one is refused before replay, at its catalog.

/// Commit record tag.
pub const KIND_COMMIT: u8 = 2;
/// WORM burn record tag.
pub const KIND_WORM_BURN: u8 = 3;
/// Checkpoint record tag.
pub const KIND_CHECKPOINT: u8 = 4;
/// Page-delta record tag.
pub const KIND_PAGE_DELTA: u8 = 5;
/// Counter-limit record tag.
pub const KIND_LIMITS: u8 = 7;

/// The pin id of commit records (`rel` = XID); enable with
/// [`Wal::pin_smgr`]. Storage managers pin under their slot, so only
/// slots below it pin: a manager registered at or past it never does.
pub const COMMIT_PIN: u32 = 63;

/// Logged limits are multiples of this: one record per 1,024 XIDs or
/// OIDs (PostgreSQL's `NextOid` record prefetches 8,192).
const LIMIT_BLOCK: u64 = 1024;

/// First OID handed out. The ones below are reserved for the relations
/// every store opens by a fixed OID, declared here together.
pub const FIRST_OID: u64 = 1000;
/// The large-object metadata heap (`pglo_core::meta`).
pub const META_HEAP: u64 = 1;
/// The metadata heap's B-tree on the object id.
pub const META_INDEX: u64 = 2;
/// The class catalog's heap (`pglo_heap::catalog`).
pub const CLASS_HEAP: u64 = 3;
const _: () = assert!(META_HEAP < FIRST_OID && META_INDEX < FIRST_OID && CLASS_HEAP < FIRST_OID);

/// The counter limits a [`WalRecord::Limits`] states: every XID and every
/// OID handed out so far is below them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Limits {
    /// First XID recovery may hand out.
    pub xid: u32,
    /// First OID recovery may hand out (never below [`FIRST_OID`]).
    pub oid: u64,
}

impl Limits {
    /// These limits, each raised to a whole block past `xid` or `oid`
    /// where that value has passed it.
    fn covering(self, xid: u32, oid: u64) -> Limits {
        let up = |l: u64, v: u64| if v > l { v.next_multiple_of(LIMIT_BLOCK) } else { l };
        Limits { xid: up(self.xid.into(), xid.into()) as u32, oid: up(self.oid, oid) }
    }
}

// ---------------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------------

/// One redo record. A page record carries only the bytes the page
/// changed since its previous record: replaying every record from the
/// redo horizon in LSN order over whatever home copy survived rebuilds
/// the page (DESIGN.md, "Redo WAL and checkpointing").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// The ranges where one page differs from its bytes at the page's
    /// previous record; a whole page is one range.
    PageDelta {
        /// Storage manager id (raw; the WAL has no smgr dependency).
        smgr: u32,
        /// Relation file id.
        rel: u64,
        /// Block number within the relation.
        block: u32,
        /// The changed bytes.
        ranges: PageRanges,
    },
    /// Transaction `xid` committed at timestamp `ts`: the one record of
    /// a commit, durable once flushed.
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
    /// Every XID and OID handed out so far is below these limits.
    Limits(Limits),
}

impl WalRecord {
    /// The `kind` header byte for this record.
    pub fn kind(&self) -> u8 {
        match self {
            WalRecord::PageDelta { .. } => KIND_PAGE_DELTA,
            WalRecord::Commit { .. } => KIND_COMMIT,
            WalRecord::WormBurn { .. } => KIND_WORM_BURN,
            WalRecord::Checkpoint { .. } => KIND_CHECKPOINT,
            WalRecord::Limits(_) => KIND_LIMITS,
        }
    }

    /// Encode into a [`PreparedRecord`] with the LSN left as a hole.
    /// The CRC covers header bytes 8..16 (length, kind, padding) plus
    /// the payload, not the LSN, which the reader validates against the
    /// record's stream position; so checksumming stays out of the append
    /// lock, under which only the LSN is patched in.
    pub fn prepare(&self) -> PreparedRecord {
        let mut buf = header(self.kind(), 16);
        match self {
            WalRecord::PageDelta { smgr, rel, block, ranges } => {
                page_key(&mut buf, *smgr, *rel, *block);
                for (at, bytes) in &ranges.0 {
                    push_range(&mut buf, *at as usize, bytes);
                }
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
            WalRecord::Limits(Limits { xid, oid }) => {
                buf.extend_from_slice(&u64::from(*xid).to_le_bytes());
                buf.extend_from_slice(&oid.to_le_bytes());
            }
        }
        PreparedRecord::seal(buf, self.pin())
    }

    /// The `(smgr, rel)` whose recycle pin this record should note, if any.
    fn pin(&self) -> Option<(u32, u64)> {
        match self {
            WalRecord::PageDelta { smgr, rel, .. } | WalRecord::WormBurn { smgr, rel } => {
                (*smgr < COMMIT_PIN).then_some((*smgr, *rel))
            }
            WalRecord::Commit { xid, .. } => Some((COMMIT_PIN, u64::from(*xid))),
            _ => None,
        }
    }
}

/// The 24-byte header of a record of `kind`, in a buffer with room for
/// `plen` payload bytes; length, CRC and LSN are holes for
/// [`PreparedRecord::seal`] and the appender.
fn header(kind: u8, plen: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_BYTES + plen);
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes()); // crc placeholder
    buf.extend_from_slice(&0u32.to_le_bytes()); // length placeholder
    buf.push(kind);
    buf.extend_from_slice(&[0u8; 3]);
    buf.extend_from_slice(&0u64.to_le_bytes()); // lsn hole
    buf
}

/// The first 16 payload bytes of a page record.
fn page_key(buf: &mut Vec<u8>, smgr: u32, rel: u64, block: u32) {
    buf.extend_from_slice(&smgr.to_le_bytes());
    buf.extend_from_slice(&block.to_le_bytes());
    buf.extend_from_slice(&rel.to_le_bytes());
}

/// The ranges of a [`WalRecord::PageDelta`] as `(offset, bytes)`, each
/// inside the page (checked at decode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageRanges(Vec<(u16, Vec<u8>)>);

impl PageRanges {
    /// Parse encoded ranges; `None` if one runs past the page or the
    /// bytes end mid-range.
    fn parse(mut b: &[u8]) -> Option<Self> {
        let mut ranges = Vec::new();
        while !b.is_empty() {
            let (h, rest) = b.split_at_checked(RANGE_HEADER)?;
            let (at, len) = (u16::from_le_bytes([h[0], h[1]]), u16::from_le_bytes([h[2], h[3]]));
            let (bytes, rest) = rest.split_at_checked(len as usize)?;
            if at as usize + bytes.len() > PAGE_SIZE {
                return None;
            }
            ranges.push((at, bytes.to_vec()));
            b = rest;
        }
        Some(Self(ranges))
    }

    /// Write the ranges over `page`.
    pub fn apply(&self, page: &mut PageBuf) {
        for (at, bytes) in &self.0 {
            page[*at as usize..][..bytes.len()].copy_from_slice(bytes);
        }
    }
}

fn push_range(buf: &mut Vec<u8>, at: usize, bytes: &[u8]) {
    buf.extend_from_slice(&(at as u16).to_le_bytes());
    buf.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    buf.extend_from_slice(bytes);
}

/// Append the ranges of whole words where `page` differs from `base`
/// (the whole page as one range when there is no base). A run of
/// differing blocks is one range, narrowed to its differing words.
fn push_delta(buf: &mut Vec<u8>, base: Option<&PageBuf>, page: &PageBuf) {
    let Some(base) = base else { return push_range(buf, 0, page) };
    let (new, old) = (page.as_chunks::<WORD>().0, base.as_chunks::<WORD>().0);
    let word = |w: usize| u64::from_ne_bytes(new[w]) ^ u64::from_ne_bytes(old[w]);
    let block = |b: usize| (b * BLOCK..(b + 1) * BLOCK).fold(0, |x, w| x | word(w)) != 0;
    let (blocks, mut b) = (new.len() / BLOCK, 0);
    while b < blocks {
        if !block(b) {
            b += 1;
            continue;
        }
        let mut start = b * BLOCK;
        while b < blocks && block(b) {
            b += 1;
        }
        let mut end = b * BLOCK;
        // Both stop inside the run: its first and last blocks differ.
        while word(start) == 0 {
            start += 1;
        }
        while word(end - 1) == 0 {
            end -= 1;
        }
        push_range(buf, start * WORD, &page[start * WORD..end * WORD]);
    }
}

/// A record fully encoded and checksummed *before* the append lock:
/// only the 8-byte LSN hole is patched at append time. Build one with
/// [`WalRecord::prepare`], or [`PreparedRecord::page_delta`] to encode
/// straight from borrowed pages (no intermediate copy).
pub struct PreparedRecord {
    bytes: Vec<u8>,
    pin: Option<(u32, u64)>,
}

impl PreparedRecord {
    fn seal(mut buf: Vec<u8>, pin: Option<(u32, u64)>) -> Self {
        let plen = (buf.len() - HEADER_BYTES) as u32;
        buf[8..12].copy_from_slice(&plen.to_le_bytes());
        let crc = crc32(crc32(0, &buf[8..16]), &buf[HEADER_BYTES..]);
        buf[4..8].copy_from_slice(&crc.to_le_bytes());
        PreparedRecord { bytes: buf, pin }
    }

    /// Encode a page-delta record straight from borrowed pages: the
    /// changed words of `page` against `base`, its bytes at its previous
    /// record (`None`: unknown, log the whole page). Callers holding a
    /// frame latch need no throwaway page clone.
    pub fn page_delta(
        smgr: u32,
        rel: u64,
        block: u32,
        base: Option<&PageBuf>,
        page: &PageBuf,
    ) -> Self {
        let mut buf = header(KIND_PAGE_DELTA, 16 + RANGE_HEADER + PAGE_SIZE);
        page_key(&mut buf, smgr, rel, block);
        push_delta(&mut buf, base, page);
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
    let page = |ranges| WalRecord::PageDelta {
        smgr: read_u32(payload, 0),
        block: read_u32(payload, 4),
        rel: read_u64(payload, 8),
        ranges,
    };
    match kind {
        KIND_PAGE_DELTA if payload.len() >= 16 => PageRanges::parse(&payload[16..]).map(page),
        KIND_COMMIT if payload.len() == 16 => {
            Some(WalRecord::Commit { xid: read_u32(payload, 0), ts: read_u64(payload, 8) })
        }
        KIND_WORM_BURN if payload.len() == 16 => {
            Some(WalRecord::WormBurn { smgr: read_u32(payload, 0), rel: read_u64(payload, 8) })
        }
        KIND_CHECKPOINT if payload.len() == 8 => {
            Some(WalRecord::Checkpoint { redo_lsn: read_u64(payload, 0) })
        }
        KIND_LIMITS if payload.len() == 16 => {
            Some(WalRecord::Limits(Limits { xid: read_u32(payload, 0), oid: read_u64(payload, 8) }))
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
}

/// Walk the segments in stream order, validating every record, stopping
/// at the first torn/stale/absent one. Sound against recycled segments
/// (embedded-LSN mismatch) and torn tails (short header, bad CRC, length
/// past EOF). `visit` sees each valid record, oldest first, with its
/// payload: each segment is read once.
fn scan(
    dir: &Path,
    segment_bytes: u64,
    mut visit: impl FnMut(RecordInfo, &[u8]) -> io::Result<()>,
) -> io::Result<ScanState> {
    let segs = list_segments(dir, segment_bytes)?;
    let Some(&(first_start, _)) = segs.first() else {
        return Ok(ScanState { end: 0, redo: 0, torn: None });
    };
    let mut state = ScanState { end: first_start, redo: first_start, torn: None };
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
                if usable as u64 == segment_bytes {
                    // Rotation's zero fill, too short for a header: the
                    // log continues in the next segment. (No record
                    // starts where its header cannot fit.)
                    pos = seg_start + segment_bytes;
                    continue 'segments;
                }
                // Short tail. Anything left is a torn header.
                if off < usable {
                    state.torn = Some((path.clone(), off as u64));
                }
                break 'segments;
            }
            let magic = read_u32(&bytes, off);
            if magic == 0 {
                // Rotation's end-of-segment marker: the log continues in
                // the next segment. (A torn record can never start with a
                // zero word — writers place the magic first — and a stale
                // one left in a reused segment sits where no record of
                // this pass was written, so at or past the end.)
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
            let info = RecordInfo {
                lsn: pos,
                kind,
                total_len: (HEADER_BYTES + plen) as u32,
                file: path.clone(),
                offset: off as u64,
            };
            visit(info, &bytes[off + HEADER_BYTES..off + HEADER_BYTES + plen])?;
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

struct AppendInner {
    /// Current tail segment.
    file: File,
    /// Stream position where `file` begins.
    seg_start: Lsn,
    /// Next stream position to write.
    end: Lsn,
    /// The highest limits in the log.
    limits: Limits,
    /// One past the last OID handed out (0 before the first); `limits.oid`
    /// is at or past it.
    next_oid: u64,
    /// End of the newest limit record `append_batch` put first in a batch:
    /// [`Wal::log_limits`] flushes through here, not through the tail.
    limits_end: Lsn,
    /// Log bytes the redo horizon advances per checkpoint: the larger of
    /// the newest advance and a decaying average (PostgreSQL's checkpoint
    /// distance estimate). Recycling keeps that many bytes of spare
    /// segments, so the log a horizon stall fills is reused after it.
    ckpt_distance: u64,
    /// The bytes of the batch being appended, kept across batches so an
    /// append allocates nothing once the buffer has grown to its batches.
    buf: Vec<u8>,
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
    /// XID high-water noted by `begin` under the txn-manager lock (so
    /// stores are monotone). `Relaxed`: it publishes nothing but itself; an
    /// XID reaches the thread logging for it by program order or a lock
    /// (frame latch, txn-manager lock), so by coherence that load sees it.
    xid_high: AtomicU32,
}

impl Wal {
    /// Open (or create) the log under `dir`, validating the tail: a torn
    /// final record is truncated away, never replayed. The returned log
    /// is positioned to append after the last valid record.
    pub fn open(dir: impl AsRef<Path>, mut opts: WalOptions) -> io::Result<Wal> {
        opts.segment_bytes = opts.segment_bytes.max(MIN_SEGMENT_BYTES);
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let state = scan(&dir, opts.segment_bytes, |_, _| Ok(()))?;
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
                AppendInner {
                    file,
                    seg_start,
                    end: state.end,
                    limits: Limits::default(),
                    next_oid: 0,
                    limits_end: 0,
                    ckpt_distance: 0,
                    buf: Vec::new(),
                },
                ranks::WAL_APPEND,
            ),
            group: GroupFlush::new(state.end),
            end: AtomicU64::new(state.end),
            redo: AtomicU64::new(state.redo),
            last_ckpt: AtomicU64::new(state.end),
            pinned_smgrs: AtomicU64::new(0),
            pins: Mutex::with_rank(HashMap::new(), ranks::WAL_PINS),
            xid_high: AtomicU32::new(0),
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
    // LINT: allow(R14, the durable horizon the WAL and pool tests assert)
    pub fn flushed_lsn(&self) -> Lsn {
        self.group.durable()
    }

    /// Current redo horizon: replay after a crash starts here.
    // LINT: allow(R14, the redo start the restart tests assert)
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

    /// The relations `smgr` holds pins for; under [`COMMIT_PIN`], the
    /// XIDs whose commit records still pin recycling.
    pub fn pinned(&self, smgr: u32) -> Vec<u64> {
        self.pins.lock().keys().filter(|&&(s, _)| s == smgr).map(|&(_, rel)| rel).collect()
    }

    /// Every XID below `next` may now stamp tuples: the next batch logs
    /// a limit at or past it first, unless the log holds one already.
    pub fn note_next_xid(&self, next: u32) {
        self.xid_high.store(next, Ordering::Relaxed);
    }

    /// Make the logged limits cover the noted XID high-water and every
    /// OID handed out (the check and the record share one hold of the
    /// append lock), and flush through the newest limit record, whoever
    /// appended it.
    fn log_limits(&self) -> io::Result<()> {
        self.append_batch(&mut [])?;
        let limits_end = self.append.lock().limits_end;
        self.flush_to(limits_end)
    }

    /// Hand out an OID no process has handed out before: it returns once
    /// a limit above it is durable in the log, so a crash skips the rest
    /// of a block of OIDs instead of handing them out again.
    pub fn next_oid(&self) -> io::Result<u64> {
        let mut a = self.append.lock();
        let oid = a.next_oid.max(FIRST_OID);
        a.next_oid = oid + 1;
        drop(a);
        self.log_limits().map(|()| oid)
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
    /// caller, outside it. When the noted XID high-water or the next OID
    /// has passed its logged limit, a [`WalRecord::Limits`] goes first.
    /// Returns each batch record's stream positions, in batch order.
    pub fn append_batch(&self, batch: &mut [PreparedRecord]) -> io::Result<Vec<AppendedAt>> {
        let mut out = Vec::with_capacity(batch.len() + 1);
        let mut pins: Vec<(u32, u64, Lsn)> = Vec::new();
        let mut total = 0u64;
        let mut a = self.append.lock();
        let mut buf = std::mem::take(&mut a.buf);
        let logged = a.limits;
        let limits = logged.covering(self.xid_high.load(Ordering::Relaxed), a.next_oid);
        let mut limit = (limits != logged).then(|| {
            a.limits = limits;
            WalRecord::Limits(limits).prepare()
        });
        let mut run_start = a.end;
        // On any failure `a.end` rolls back to `run_start`, the position
        // just past the bytes actually written: leaving it advanced past
        // an unwritten range would let later appends continue after a
        // permanent hole — recovery's scan stops at the hole, silently
        // losing every "durably flushed" record past it.
        let result: io::Result<()> = (|| {
            for rec in limit.iter_mut().chain(batch.iter_mut()) {
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
            a.limits = logged;
        } else {
            if limit.is_some() {
                a.limits_end = out[0].end;
            }
            // Pinned before the lock goes, so a checkpoint sees the pins.
            for (smgr, rel, lsn) in pins {
                self.note_pinned(smgr, rel, lsn);
            }
        }
        self.end.store(a.end, Ordering::Release);
        buf.clear();
        a.buf = buf;
        drop(a);
        result?;
        obs::counter!("wal.append.bytes").add(total);
        Ok(out.split_off(usize::from(limit.is_some())))
    }

    /// End the current segment with the end-of-segment marker and move to
    /// the next, overwriting a recycled file at that name in place.
    /// Called with the append lock held.
    fn rotate(&self, a: &mut AppendInner) -> io::Result<()> {
        // Zeros over the next header position (clipped to the segment),
        // which readers take for "skip to the next segment"; only a fresh,
        // short file is lengthened, sparsely.
        let seg = self.opts.segment_bytes;
        let off = a.end - a.seg_start;
        let marker = (seg - off).min(HEADER_BYTES as u64) as usize;
        a.file.write_all_at(&[0; HEADER_BYTES][..marker], off)?;
        if a.file.metadata()?.len() < seg {
            a.file.set_len(seg)?;
        }
        if self.opts.durable_sync {
            a.file.sync_data()?;
        }
        let seg_start = a.seg_start + seg;
        let path = self.dir.join(segment_name(seg_start));
        let file = match OpenOptions::new().read(true).write(true).open(&path) {
            Ok(file) => {
                obs::counter!("wal.segment.reused").inc();
                file
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                let file = OpenOptions::new().read(true).write(true).create_new(true).open(path)?;
                if self.opts.durable_sync {
                    self.sync_dir()?;
                }
                obs::counter!("wal.segment.created").inc();
                file
            }
            Err(e) => return Err(e),
        };
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
        // Restate the limits above the horizon, read after it is fixed,
        // so no record below the horizon holds a higher one.
        let limits = self.append.lock().limits;
        let mut batch = [
            WalRecord::Limits(limits).prepare(),
            WalRecord::Checkpoint { redo_lsn: horizon }.prepare(),
        ];
        let end = self.append_batch(&mut batch)?[1].end;
        self.flush_to(end)?;
        self.last_ckpt.store(end, Ordering::Release);
        self.redo.store(horizon, Ordering::Release);
        self.recycle(horizon, horizon - prev)?;
        Ok(horizon)
    }

    /// Rename segments wholly below `horizon` to future stream positions,
    /// stale bytes and all: the positional LSN check defuses them, and
    /// rotation's end-of-segment marker keeps them from ending the log
    /// early. Spares past the tail are kept up to the checkpoint distance
    /// estimate, updated here with `distance`, the bytes the horizon just
    /// advanced, plus one; segments past that bound are removed. Runs
    /// under the append lock so a concurrent rotation cannot race a rename
    /// onto the same target name.
    fn recycle(&self, horizon: Lsn, distance: u64) -> io::Result<()> {
        let seg = self.opts.segment_bytes;
        let mut a = self.append.lock();
        let est = a.ckpt_distance;
        a.ckpt_distance = if distance > est { distance } else { (9 * est + distance) / 10 };
        let keep = a.ckpt_distance.div_ceil(seg) + 1;
        // LINT: allow(R7, the segment listing must be stable while renaming)
        let segs = list_segments(&self.dir, seg)?;
        let Some(&(max_start, _)) = segs.last() else { return Ok(()) };
        let mut target = max_start + seg;
        let mut spares = segs.iter().filter(|(s, _)| *s > a.seg_start).count() as u64;
        let (mut recycled, mut removed) = (0u64, 0u64);
        for (seg_start, path) in &segs {
            if seg_start + seg > horizon || *seg_start == a.seg_start {
                continue;
            }
            if spares < keep {
                // LINT: allow(R7, the append lock reserves target names against rotation)
                fs::rename(path, self.dir.join(segment_name(target)))?;
                (target, spares, recycled) = (target + seg, spares + 1, recycled + 1);
            } else {
                // LINT: allow(R7, removal keeps the below-horizon segments a prefix, as renaming does)
                fs::remove_file(path)?;
                removed += 1;
            }
            if self.opts.durable_sync {
                // Persist each rename or removal before the next. `segs`
                // is sorted ascending, so a power loss always leaves a
                // *prefix* of them on disk and the surviving below-horizon
                // segments stay contiguous. One deferred sync could let
                // them persist out of order — a gap that recovery's scan
                // mistakes for the end of log, far below the durable tail.
                // LINT: allow(R7, rename persistence order is part of the reserved-name protocol)
                self.sync_dir()?;
            }
        }
        drop(a);
        obs::counter!("wal.recycle.segments").add(recycled);
        obs::counter!("wal.segment.removed").add(removed);
        Ok(())
    }

    /// Replay every record from the redo horizon to the end of log,
    /// oldest first. Call once at open, before any appends or OIDs;
    /// pinned-smgr positions and the logged limits are re-learned as a
    /// side effect. The callback sees every record kind, checkpoints
    /// included. Returns the highest limits replayed, where both resume.
    pub fn replay<F>(&self, mut f: F) -> io::Result<Limits>
    where
        F: FnMut(Lsn, WalRecord) -> io::Result<()>,
    {
        let start = self.redo.load(Ordering::Acquire);
        let end = self.end_lsn();
        let mut limits = Limits::default();
        scan(&self.dir, self.opts.segment_bytes, |info, payload| {
            if info.lsn < start || info.lsn >= end {
                return Ok(());
            }
            let Some(rec) = decode_payload(info.kind, payload) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("wal: undecodable kind {} at lsn {}", info.kind, info.lsn),
                ));
            };
            if let Some((smgr, rel)) = rec.pin() {
                self.note_pinned(smgr, rel, info.lsn);
            }
            if let WalRecord::Limits(l) = rec {
                limits = limits.covering(l.xid, l.oid);
            }
            f(info.lsn, rec)
        })?;
        let mut a = self.append.lock();
        a.limits = limits;
        a.next_oid = limits.oid;
        Ok(limits)
    }

    /// Scan a (possibly closed) log directory, returning the location of
    /// every valid record in stream order. Test/diagnostic surface: the
    /// torn-tail restart test uses this to find record byte boundaries.
    // LINT: allow(R14, the log scan the restart tests read records with)
    pub fn scan_records(dir: impl AsRef<Path>, segment_bytes: u64) -> io::Result<Vec<RecordInfo>> {
        let mut records = Vec::new();
        scan(dir.as_ref(), segment_bytes.max(MIN_SEGMENT_BYTES), |info, _| {
            records.push(info);
            Ok(())
        })?;
        Ok(records)
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

    /// A page record carrying the whole page filled with `fill`.
    fn whole(smgr: u32, rel: u64, block: u32, fill: u8) -> WalRecord {
        let ranges = PageRanges(vec![(0, page(fill).to_vec())]);
        WalRecord::PageDelta { smgr, rel, block, ranges }
    }

    /// `rec`'s ranges applied over a zero page.
    fn redone(rec: &WalRecord) -> Box<PageBuf> {
        let WalRecord::PageDelta { ranges, .. } = rec else { panic!("not a page: {rec:?}") };
        let mut out = pglo_pages::alloc_page();
        ranges.apply(&mut out);
        out
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

    /// Format pin: the CRC bytes of the image and commit records were
    /// computed by the slice-by-8 loop this crate carried before the
    /// checksum moved to `pglo_pages::checksum`. A slip in polynomial,
    /// seed, chaining or the bytes covered changes them — and would
    /// orphan every log already on disk. The delta record pins the
    /// range encoding the same way.
    #[test]
    fn golden_record_crc_bytes() {
        let mut image = pglo_pages::alloc_page();
        for (i, b) in image.iter_mut().enumerate() {
            *b = (i * 31 % 251) as u8;
        }
        // A whole-page image record of the retired kind 1, byte for byte
        // as that format wrote it: a payload long enough to reach the fold.
        let mut rec = header(1, 16 + PAGE_SIZE);
        page_key(&mut rec, 3, 0x1122_3344_5566_7788, 9);
        rec.extend_from_slice(&image[..]);
        let rec = PreparedRecord::seal(rec, None);
        assert_eq!(rec.bytes.len(), HEADER_BYTES + 16 + PAGE_SIZE);
        assert_eq!(rec.bytes[..4], MAGIC.to_le_bytes());
        assert_eq!(rec.bytes[4..8], 0x7fac_865b_u32.to_le_bytes());
        // A 16-byte payload never reaches the fold: the table loop's pin.
        let commit = WalRecord::Commit { xid: 7, ts: 0x0102_0304_0506_0708 }.prepare();
        assert_eq!(commit.bytes[4..8], 0x2b73_09a8_u32.to_le_bytes());

        let mut edited = image.clone();
        edited[100] ^= 1; // word 96..104
        edited[8000..8020].fill(0); // words 8000..8024
        let delta = PreparedRecord::page_delta(3, 0x1122_3344_5566_7788, 9, Some(&image), &edited);
        let b = &delta.bytes;
        assert_eq!(b.len(), HEADER_BYTES + 16 + (RANGE_HEADER + 8) + (RANGE_HEADER + 24));
        assert_eq!(b[8..12], ((b.len() - HEADER_BYTES) as u32).to_le_bytes());
        assert_eq!(b[12], KIND_PAGE_DELTA);
        let ranges = &b[HEADER_BYTES + 16..];
        assert_eq!(ranges[..4], [96, 0, 8, 0]);
        assert_eq!(ranges[12..16], [0x40, 0x1f, 24, 0]);
        assert_eq!(b[4..8], 0x2491_4d59_u32.to_le_bytes());
        let Some(rec) = decode_payload(KIND_PAGE_DELTA, &b[HEADER_BYTES..]) else {
            panic!("golden delta must decode")
        };
        assert_eq!(rec.prepare().bytes, delta.bytes);
    }

    /// Encoding the words that changed and applying them to the baseline
    /// gives the page back, for random pages and random edits — from an
    /// unchanged page to one rewritten whole.
    mod delta_roundtrip {
        use super::*;
        use proptest::prelude::*;

        fn roundtrip(base: &PageBuf, page: &PageBuf) -> usize {
            let prepared = PreparedRecord::page_delta(1, 2, 3, Some(base), page);
            let Some(rec) = decode_payload(KIND_PAGE_DELTA, &prepared.bytes[HEADER_BYTES..]) else {
                panic!("a fresh delta must decode")
            };
            let WalRecord::PageDelta { ranges, .. } = &rec else { panic!("{rec:?}") };
            let mut out = Box::new(*base);
            ranges.apply(&mut out);
            assert!(out[..] == page[..], "delta over the baseline must rebuild the page");
            assert_eq!(rec.prepare().bytes, prepared.bytes, "re-encoding is the identity");
            prepared.bytes.len() - HEADER_BYTES - 16
        }

        proptest! {
            #[test]
            fn applying_the_delta_to_the_baseline_rebuilds_the_page(
                seed in prop::num::u64::ANY,
                edits in prop::collection::vec((0usize..PAGE_SIZE, 1usize..200, prop::num::u8::ANY), 0..12),
            ) {
                let mut base = pglo_pages::alloc_page();
                let mut x = seed | 1;
                for b in base.iter_mut() {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    *b = x as u8;
                }
                let mut page = base.clone();
                for (at, len, v) in edits {
                    let end = (at + len).min(PAGE_SIZE);
                    page[at..end].fill(v);
                }
                roundtrip(&base, &page);
            }
        }

        #[test]
        fn unchanged_page_has_no_ranges_and_rewritten_page_one() {
            let base = page(3);
            assert_eq!(roundtrip(&base, &base), 0);
            assert_eq!(roundtrip(&base, &page(4)), RANGE_HEADER + PAGE_SIZE);
            assert_eq!(roundtrip(&page(0), &page(0)), 0);
        }
    }

    /// A full-length segment whose remainder cannot hold a header
    /// continues at the next segment: the scanner must not take the
    /// short tail for the end of the log.
    #[test]
    fn short_segment_tail_continues_in_next_segment() {
        let dir = tempfile::tempdir().unwrap();
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        // 40-byte commits fill the first segment to a 16-byte tail.
        let per_seg = (MIN_SEGMENT_BYTES / 40) as u32;
        assert_eq!(MIN_SEGMENT_BYTES - u64::from(per_seg) * 40, 16);
        for xid in 0..per_seg + 10 {
            wal.append(&WalRecord::Commit { xid, ts: u64::from(xid) }).unwrap();
        }
        wal.flush_all().unwrap();
        let end = wal.end_lsn();
        assert_eq!(end, MIN_SEGMENT_BYTES + 400);
        drop(wal);
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        assert_eq!(wal.end_lsn(), end);
        let recs = collect_replay(&wal);
        assert_eq!(recs.len(), per_seg as usize + 10);
        // Appending goes on after the last record, in the second segment.
        let e = wal.append(&WalRecord::Commit { xid: 1 << 20, ts: 1 }).unwrap();
        wal.flush_to(e).unwrap();
        drop(wal);
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        assert_eq!(collect_replay(&wal).len(), per_seg as usize + 11);
    }

    #[test]
    fn batch_append_coalesces_and_survives_rotation() {
        let dir = tempfile::tempdir().unwrap();
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        // Enough images that the batch must split across a rotation.
        let per_seg = MIN_SEGMENT_BYTES / (HEADER_BYTES + 16 + RANGE_HEADER + PAGE_SIZE) as u64;
        let n = per_seg as usize + 3;
        let mut batch: Vec<PreparedRecord> = (0..n)
            .map(|i| PreparedRecord::page_delta(0, 7, i as u32, None, &page(i as u8)))
            .collect();
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
            assert_eq!(*rec, whole(0, 7, i as u32, i as u8));
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
        let r1 = whole(1, 7, 3, 0xAB);
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
            wal.append(&whole(1, 1, i, i as u8)).unwrap();
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
            assert_eq!(*rec, whole(1, 1, i as u32, i as u8));
            assert!(redone(rec).iter().all(|&b| b == i as u8));
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
            wal.append(&whole(1, 1, i, 1)).unwrap();
        }
        let mid = wal.end_lsn();
        let horizon = wal.checkpoint(Some(mid)).unwrap();
        assert_eq!(horizon, mid);
        let tail = WalRecord::Commit { xid: 5, ts: 5 };
        let e = wal.append(&tail).unwrap();
        wal.flush_to(e).unwrap();
        // Segments wholly below `mid` were renamed to future names.
        let segs = list_segments(dir.path(), MIN_SEGMENT_BYTES).unwrap();
        assert!(segs.iter().all(|(s, _)| s + MIN_SEGMENT_BYTES > mid));
        drop(wal);

        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        assert_eq!(wal.redo_lsn(), mid);
        let recs = collect_replay(&wal);
        // Only the checkpoint's batch (the restated limits, then the
        // checkpoint) and the tail commit are at/after the horizon.
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].1, WalRecord::Limits(Limits::default()));
        assert_eq!(recs[2].1, tail);
    }

    #[test]
    fn pinned_smgr_blocks_recycle() {
        let dir = tempfile::tempdir().unwrap();
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        wal.pin_smgr(3);
        let first = wal.end_lsn();
        wal.append(&whole(3, 1, 0, 7)).unwrap();
        for i in 0..20u32 {
            wal.append(&whole(1, 1, i, 1)).unwrap();
        }
        let horizon = wal.checkpoint(None).unwrap();
        // The pinned record holds the horizon at its LSN.
        assert_eq!(horizon, first);
        drop(wal);

        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        wal.pin_smgr(3);
        let recs = collect_replay(&wal);
        assert!(recs.iter().any(|(_, r)| matches!(r, WalRecord::PageDelta { smgr: 3, .. })));
    }

    #[test]
    fn pruned_pins_release_the_recycle_horizon() {
        let dir = tempfile::tempdir().unwrap();
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        wal.pin_smgr(3);
        wal.append(&whole(3, 1, 0, 7)).unwrap();
        for i in 0..20u32 {
            wal.append(&whole(1, 1, i, 1)).unwrap();
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

    /// A limit record leads the first batch after the XID high-water or
    /// the next OID passes its logged limit, each rounded up to a block;
    /// the OID that passes it waits for the record to be flushed.
    /// Checkpoints restate both limits, so replay finds them after the
    /// limit records themselves are recycled, and both counters resume
    /// there.
    #[test]
    fn xid_limit_leads_the_batch_and_checkpoints_restate_it() {
        let dir = tempfile::tempdir().unwrap();
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        let limits = |xid, oid| WalRecord::Limits(Limits { xid, oid });
        wal.note_next_xid(3);
        let commit = |xid| WalRecord::Commit { xid, ts: u64::from(xid) };
        let ats = wal.append_batch(&mut [commit(2).prepare()]).unwrap();
        assert_eq!(ats.len(), 1, "positions are the batch's own");
        assert_eq!(ats[0].start, 40, "a 40-byte limit record went first");
        wal.append(&commit(3)).unwrap();
        wal.note_next_xid(1025);
        wal.append(&commit(1024)).unwrap();
        assert_eq!(wal.next_oid().unwrap(), FIRST_OID);
        assert_eq!(wal.flushed_lsn(), wal.end_lsn(), "the limit is flushed before the OID is out");
        let end = wal.end_lsn();
        let oids: Vec<u64> = (0..23).map(|_| wal.next_oid().unwrap()).collect();
        assert_eq!(oids, (FIRST_OID + 1..1024).collect::<Vec<_>>());
        assert_eq!(wal.end_lsn(), end, "the rest of the block logs nothing");
        assert_eq!(wal.next_oid().unwrap(), 1024);
        assert_eq!(wal.end_lsn(), end + 40, "the first OID past the block logs the next");
        let kinds: Vec<WalRecord> = collect_replay(&wal).into_iter().map(|(_, r)| r).collect();
        assert_eq!(
            kinds,
            [
                limits(1024, 0),
                commit(2),
                commit(3),
                limits(2048, 0),
                commit(1024),
                limits(2048, 1024),
                limits(2048, 2048),
            ]
        );
        for i in 0..20u32 {
            wal.append(&whole(1, 1, i, 1)).unwrap();
        }
        let horizon = wal.checkpoint(None).unwrap();
        assert!(horizon >= MIN_SEGMENT_BYTES, "the first segment is recycled");
        drop(wal);
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        let mut seen = Vec::new();
        let replayed = wal
            .replay(|_, r| {
                seen.push(r);
                Ok(())
            })
            .unwrap();
        assert_eq!(seen, [limits(2048, 2048), WalRecord::Checkpoint { redo_lsn: horizon }]);
        assert_eq!(replayed, Limits { xid: 2048, oid: 2048 });
        // Replay restores the logged limits: no new record until the
        // high-water passes the XID limit, and OIDs resume at theirs.
        wal.note_next_xid(2048);
        let end = wal.end_lsn();
        let at = wal.append_batch(&mut [commit(2047).prepare()]).unwrap();
        assert_eq!(at[0].start, end);
        assert_eq!(wal.next_oid().unwrap(), 2048);
    }

    /// `log_limits` flushes through the newest limit record, also one a
    /// plain batch put first, and no further: with no limit pending, the
    /// unflushed tail stays unflushed.
    #[test]
    fn log_limits_flushes_through_the_newest_limit_record() {
        let dir = tempfile::tempdir().unwrap();
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        wal.note_next_xid(3);
        let commit = |xid| WalRecord::Commit { xid, ts: u64::from(xid) };
        let limit_end = wal.append_batch(&mut [commit(2).prepare()]).unwrap()[0].start;
        assert_eq!(wal.flushed_lsn(), 0);
        wal.log_limits().unwrap();
        assert!(wal.flushed_lsn() >= limit_end, "the batch's limit record is durable");
        let flushed = wal.flushed_lsn();
        wal.append(&commit(3)).unwrap();
        wal.log_limits().unwrap();
        assert_eq!(wal.flushed_lsn(), flushed, "nothing pending, nothing flushed");
        assert!(wal.end_lsn() > flushed);
    }

    /// A log of the earlier format holds XID-only limit records (kind 6,
    /// an 8-byte payload); replay refuses it instead of resuming the
    /// counters below what that log handed out.
    #[test]
    fn earlier_formats_limit_record_is_refused() {
        let dir = tempfile::tempdir().unwrap();
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        let mut buf = header(6, 8);
        buf.extend_from_slice(&1024u64.to_le_bytes());
        wal.append_batch(&mut [PreparedRecord::seal(buf, None)]).unwrap();
        wal.flush_all().unwrap();
        drop(wal);
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        let err = wal.replay(|_, _| Ok(())).unwrap_err();
        assert!(err.to_string().contains("undecodable kind 6"), "{err}");
    }

    /// With commit pins on, a commit record holds the recycle horizon
    /// until its XID's pin is pruned, and replay re-learns the pin; a
    /// page record under the reserved slot is not taken for one.
    #[test]
    fn commit_record_pins_until_pruned() {
        let dir = tempfile::tempdir().unwrap();
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        wal.pin_smgr(COMMIT_PIN);
        let first = wal.end_lsn();
        wal.append(&WalRecord::Commit { xid: 7, ts: 1 }).unwrap();
        // A page of a manager in the reserved slot pins nothing.
        wal.append(&whole(COMMIT_PIN, 9, 0, 1)).unwrap();
        for i in 0..20u32 {
            wal.append(&whole(1, 1, i, 1)).unwrap();
        }
        assert_eq!(wal.checkpoint(None).unwrap(), first);
        assert_eq!(wal.pinned(COMMIT_PIN), [7]);
        drop(wal);
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        wal.pin_smgr(COMMIT_PIN);
        collect_replay(&wal);
        assert_eq!(wal.pinned(COMMIT_PIN), [7]);
        wal.prune_pins(COMMIT_PIN, |_xid| false);
        wal.append(&WalRecord::Commit { xid: 8, ts: 2 }).unwrap();
        assert!(wal.checkpoint(None).unwrap() > first, "the pruned commit no longer pins");
        assert_eq!(wal.pinned(COMMIT_PIN), [8]);
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
            let rec = whole(1, 1, block, block as u8);
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

    /// A recycled segment keeps its stale records, CRCs intact, and the
    /// appender overwrites it in place. Records of another size rotate
    /// out of two such segments in a row, each time over a stale commit
    /// record: the scan must take the end-of-segment marker, not the
    /// stale bytes behind it, and end exactly at the last appended record,
    /// with nothing stale replayed.
    #[test]
    fn rotation_into_recycled_segments_ends_at_the_last_record() {
        let dir = tempfile::tempdir().unwrap();
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        // 40-byte commits fill five segments to a 16-byte tail each.
        for xid in 0..5 * 1638 {
            wal.append(&WalRecord::Commit { xid, ts: 7 }).unwrap();
        }
        // The horizon at the end of log: every segment but the tail is
        // recycled, stale records and all.
        let horizon = wal.checkpoint(None).unwrap();
        let live = Wal::scan_records(dir.path(), MIN_SEGMENT_BYTES).unwrap();
        assert!(live[0].lsn >= 4 * MIN_SEGMENT_BYTES, "four segments were recycled");
        let mut want = Vec::new();
        for i in 0..24u32 {
            let rec = WalRecord::Commit { xid: 1 << 20 | i, ts: 1 };
            want.push((wal.append(&rec).unwrap(), rec));
            let rec = whole(2, 9, i, 0x55);
            want.push((wal.append(&rec).unwrap(), rec));
        }
        wal.flush_all().unwrap();
        let end = wal.end_lsn();
        assert!(end / MIN_SEGMENT_BYTES >= horizon / MIN_SEGMENT_BYTES + 3, "two reused rotations");
        drop(wal);
        // The tail segment still holds stale records past the end whose
        // CRCs check: only their LSNs give them away.
        let tail = dir.path().join(segment_name(end - end % MIN_SEGMENT_BYTES));
        let bytes = fs::read(&tail).unwrap();
        assert_eq!(bytes.len() as u64, MIN_SEGMENT_BYTES, "the tail is a reused, full-length file");
        let off = (end % MIN_SEGMENT_BYTES) as usize;
        let magic = (off..bytes.len() - 4).find(|&o| read_u32(&bytes, o) == MAGIC).unwrap();
        let plen = read_u32(&bytes, magic + 8) as usize;
        let crc = crc32(crc32(0, &bytes[magic + 8..magic + 16]), &bytes[magic + 24..][..plen]);
        assert_eq!(crc, read_u32(&bytes, magic + 4), "a stale record with a valid CRC");

        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        assert_eq!(wal.end_lsn(), end, "the scan ends at the last appended record");
        let seen: Vec<(Lsn, WalRecord)> = collect_replay(&wal)
            .into_iter()
            .filter(|(_, r)| !matches!(r, WalRecord::Limits(_) | WalRecord::Checkpoint { .. }))
            .collect();
        let want: Vec<(Lsn, WalRecord)> =
            want.into_iter().map(|(e, r)| (e - r.prepare().total_len(), r)).collect();
        assert!(seen == want, "exactly the appended records replay, nothing stale");
    }

    /// A counter of the process-global registry, as a `stats` reply shows
    /// it (0 before its first use).
    fn counter(name: &str) -> u64 {
        obs::snapshot_entries().iter().find(|e| e.name == name).map_or(0, |e| e.value.as_u64())
    }

    /// Once the log has recycled, appends overwrite spare segments in
    /// place: every segment file keeps its inode and its full length, no
    /// file is created, and every rotation counts as a reuse.
    #[test]
    fn recycled_log_appends_leave_segment_files_unchanged() {
        use std::os::unix::fs::MetadataExt;
        let dir = tempfile::tempdir().unwrap();
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        let round = || {
            for i in 0..16u32 {
                wal.append(&whole(1, 1, i, i as u8)).unwrap();
            }
            wal.checkpoint(None).unwrap();
        };
        let files = || {
            let mut f: Vec<(u64, u64)> = list_segments(dir.path(), MIN_SEGMENT_BYTES)
                .unwrap()
                .iter()
                .map(|(_, p)| fs::metadata(p).map(|m| (m.ino(), m.len())).unwrap())
                .collect();
            f.sort_unstable();
            f
        };
        for _ in 0..6 {
            round();
        }
        let before = files();
        assert!(before.iter().all(|&(_, len)| len == MIN_SEGMENT_BYTES), "{before:?}");
        let reused = counter("wal.segment.reused");
        let start = wal.end_lsn() / MIN_SEGMENT_BYTES;
        for _ in 0..6 {
            round();
        }
        let rotations = wal.end_lsn() / MIN_SEGMENT_BYTES - start;
        assert!(rotations >= 12);
        assert_eq!(files(), before, "no segment file was created, removed or resized");
        // Other tests rotate too: the counter moves at least this much.
        assert!(counter("wal.segment.reused") - reused >= rotations);
    }

    /// Recycling keeps spare segments only up to the log's checkpoint
    /// distance: after a burst, small checkpoint intervals remove the
    /// segments the burst left behind.
    #[test]
    fn spare_segments_are_bounded_by_the_checkpoint_distance() {
        let dir = tempfile::tempdir().unwrap();
        let wal = Wal::open(dir.path(), small_opts()).unwrap();
        for i in 0..80u32 {
            wal.append(&whole(1, 1, i, 1)).unwrap();
        }
        wal.checkpoint(None).unwrap();
        let count = || list_segments(dir.path(), MIN_SEGMENT_BYTES).unwrap().len();
        let burst = count();
        assert!(burst >= 10, "a burst of ten segments is kept as spares: {burst}");
        let removed = counter("wal.segment.removed");
        for i in 0..120u32 {
            wal.append(&whole(1, 1, i, 2)).unwrap();
            wal.checkpoint(None).unwrap();
        }
        assert!(count() <= 4, "{} segment files after small checkpoints", count());
        assert!(counter("wal.segment.removed") - removed >= (burst - 4) as u64);
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
        let cur = dir.path().join(segment_name(0));
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
