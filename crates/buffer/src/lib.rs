//! The buffer pool: an in-memory cache of 8 KB pages in front of the
//! storage-manager switch.
//!
//! POSTGRES performs all page access through a shared buffer cache; the
//! paper's Figure 3 notes that the special-purpose raw-device reader beats
//! f-chunk on sequential WORM scans precisely because f-chunk pays "overhead
//! for cache management" — overhead this module reproduces (page lookup,
//! pin accounting, write-back of dirty pages) and then works to hide:
//!
//! * there is **one page table** over the whole frame array, with one
//!   clock hand — the paper's single shared buffer (§9), so a pool of `N`
//!   frames caches any `N` pages and pins any `N - 1` at once;
//! * sequential scans announce themselves with [`AccessHint::Sequential`],
//!   driving a **read-ahead window** that pulls the next run of blocks in
//!   one multi-block device transfer ([`pglo_smgr::StorageManager::read_many`]);
//! * dirty pages leave through a **background writer** thread
//!   ([`BufferPool::spawn_bgwriter`]) in batched elevator order, so the
//!   commit path no longer eats the write-back latency ([`BufferPool::flush_all`]
//!   still forces synchronously for the durability-critical callers);
//! * a **hit takes zero locks**: the page table is an atomic slot array
//!   read without the table mutex, a pin is a single
//!   CAS on the frame's combined pin-count/valid word, and the pinner
//!   revalidates the frame's published key after the pin lands — only
//!   misses, evictions, and revalidation failures fall back to the
//!   table mutex (see DESIGN.md, "the lock-free hit path").
//!
//! Lock ordering is strictly page-table → frame: no path acquires the
//! table lock while holding a frame guard. A frame with nonzero
//! pin count is never evicted — retiring a frame for a new key is one
//! CAS that clears `VALID` only while the pin count is zero, and every
//! pin either sees `VALID` (and so blocks the retire) or goes through
//! the table lock the retirer holds. A page-table mapping is only ever
//! transferred to an *already-clean* frame — dirty victims are written
//! back (with the table lock released around the device write) before
//! their mapping moves — so an eviction-time write failure loses nothing
//! and a mapping never points at another page's bytes. The background
//! writer takes frame locks only (`try_read`/`try_write`, skipping
//! pinned or contended frames), never the table lock.

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

use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use parking_lot::{ranks, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use pglo_pages::{PageBuf, PAGE_SIZE};
use pglo_smgr::{RelFileId, SmgrError, SmgrId, SmgrSwitch};
use pglo_wal::{AppendedAt, Lsn, PreparedRecord, Wal};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::Arc;
use std::time::Duration;

mod capture;
mod frame;
mod pin;
pub mod protocol;
mod readahead;
mod writeback;

use frame::{Baseline, Frame, FrameData, PageTable, Pages};
use protocol::{FrameState, PendingLink, PendingQueue, SlotArray, SLOT_PROBE_LIMIT};
use readahead::RaState;
pub use writeback::BgWriter;
use writeback::Wait;

/// Identifies a page across the whole storage-manager switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageKey {
    /// The smgr.
    pub smgr: SmgrId,
    /// The rel.
    pub rel: RelFileId,
    /// The block.
    pub block: u32,
}

impl PageKey {
    /// A key for block `block` of `rel` on manager `smgr`.
    pub fn new(smgr: SmgrId, rel: RelFileId, block: u32) -> Self {
        Self { smgr, rel, block }
    }
}

/// How the caller expects to touch pages of this relation next — the
/// prefetch hint scanners pass so the pool can read ahead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessHint {
    /// Isolated access; no read-ahead.
    #[default]
    Random,
    /// Part of an ascending scan: once two consecutive blocks are seen,
    /// the pool prefetches a window ahead with one multi-block read.
    Sequential,
}

/// Buffer-pool errors.
#[derive(Debug)]
pub enum BufferError {
    /// Underlying storage-manager failure.
    Smgr(SmgrError),
    /// Every frame is pinned; no victim available.
    PoolExhausted,
    /// The redo log refused an append or flush (WAL-before-data means
    /// the page write cannot proceed either).
    Wal(std::io::Error),
}

impl std::fmt::Display for BufferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BufferError::Smgr(e) => write!(f, "storage manager: {e}"),
            BufferError::PoolExhausted => write!(f, "buffer pool exhausted (all frames pinned)"),
            BufferError::Wal(e) => write!(f, "redo log: {e}"),
        }
    }
}

impl std::error::Error for BufferError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BufferError::Smgr(e) => Some(e),
            BufferError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SmgrError> for BufferError {
    fn from(e: SmgrError) -> Self {
        BufferError::Smgr(e)
    }
}

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, BufferError>;

/// Point-in-time buffer-pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// The hits.
    pub hits: u64,
    /// The misses.
    pub misses: u64,
    /// The evictions.
    pub evictions: u64,
    /// The writebacks.
    pub writebacks: u64,
    /// Pages installed by sequential read-ahead.
    pub prefetch_pages: u64,
    /// Pins served by a page read-ahead put there first.
    pub prefetch_hits: u64,
    /// Dirty pages flushed by the background writer.
    pub bgwriter_pages: u64,
    /// Background-writer wakeups.
    pub bgwriter_cycles: u64,
    /// Frames that hold a page: each gets one at its first install and
    /// keeps it, so this is the pool's resident page memory in pages.
    pub pages: u64,
}

impl PoolStats {
    /// Fraction of lookups served from the pool, in `[0, 1]`; 0 when no
    /// lookups happened yet. Servers report this per `stats` request.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Construction options for [`BufferPool`].
#[derive(Debug, Clone, Copy)]
pub struct PoolOptions {
    /// Pool size in 8 KB frames.
    pub frames: usize,
    /// Sequential read-ahead window in blocks; 0 disables read-ahead.
    pub readahead_window: usize,
    /// Latency gate for read-ahead: the prefetch window only opens while
    /// the EWMA of observed per-read device latency is at or above this
    /// many nanoseconds (and closes again below half of it). Against a
    /// simulated 1992 device a read costs milliseconds and the window
    /// engages immediately; against a hot host page cache reads come
    /// back in microseconds and the window — whose planning and install
    /// work would be pure overhead — stays shut. 0 disables the gate
    /// (the window is always eligible).
    pub readahead_gate_ns: u64,
}

impl Default for PoolOptions {
    fn default() -> Self {
        Self {
            frames: DEFAULT_POOL_FRAMES,
            readahead_window: DEFAULT_READAHEAD_WINDOW,
            readahead_gate_ns: DEFAULT_READAHEAD_GATE_NS,
        }
    }
}

/// The shared buffer pool.
pub struct BufferPool {
    switch: Arc<SmgrSwitch>,
    /// Redo log, when attached: page writes are captured as page deltas
    /// at commit and write-back enforces WAL-before-data.
    wal: std::sync::OnceLock<Arc<Wal>>,
    /// Serializes capture batches; rank `buffer.capture` (38), taken
    /// before any frame latch.
    capture: Mutex<()>,
    /// Start LSN of the in-flight capture batch (`u64::MAX` when idle).
    /// Between batch append and LSN stamping, a captured frame briefly
    /// shows `rec_lsn == 0` while its record already sits in the log;
    /// [`BufferPool::dirty_horizon`] folds this floor in so a checkpoint
    /// cannot recycle that record away.
    capture_floor: AtomicU64,
    /// The lock-free pending-frame chain: frame indices flagged
    /// `log_pending` since the last capture, so a capture costs
    /// O(pending), never a whole-pool scan. Frames link through
    /// `Frame::pending`; see [`protocol::PendingQueue`].
    pending: PendingQueue,
    /// Advisory length of the pending chain (reset at steal; racing
    /// pushes may briefly undercount). Lets callers batch capture work:
    /// drain when the backlog is worth a trip through the append lock,
    /// coalescing re-dirtied hot pages in between.
    pending_count: AtomicUsize,
    frames: Vec<Frame>,
    /// The frames' pages: the spares and the count held; see
    /// [`BufferPool::frame_page`]. Rank `buffer.pages` (42), a leaf taken
    /// under a frame latch.
    pages: Mutex<Pages>,
    /// The page-table lock, with the clock hand it also guards; rank
    /// `buffer.page_table` (30), taken before any frame latch.
    table: Mutex<PageTable>,
    /// The page table; see [`protocol::SlotArray`]. Mutated only while
    /// holding `table`, under which a lookup is exact; the pin fast path
    /// reads it without any lock.
    slots: SlotArray,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    readahead_window: usize,
    /// See [`PoolOptions::readahead_gate_ns`].
    readahead_gate_ns: u64,
    /// EWMA (α = ⅛) of observed per-read device latency in nanoseconds:
    /// real wall-clock plus the simulated-clock delta across the read.
    /// 0 = no samples yet. Updated with a single best-effort CAS per
    /// sample — a lost race drops one sample, which a moving average
    /// absorbs; the hot path never loops on it.
    read_lat_ewma: AtomicU64,
    /// Hysteresis state of the latency gate (see `observe_read_latency`).
    readahead_engaged: AtomicBool,
    readahead: Mutex<HashMap<(SmgrId, RelFileId), RaState>>,
    writebacks: AtomicU64,
    prefetch_pages: AtomicU64,
    prefetch_hits: AtomicU64,
    bgwriter_pages: AtomicU64,
    bgwriter_cycles: AtomicU64,
}

/// Default pool size: 256 frames = 2 MB, matching a modest 1992 shared
/// buffer configuration (small relative to the 51.2 MB benchmark object, so
/// large scans actually touch the device).
pub const DEFAULT_POOL_FRAMES: usize = 256;

/// Default sequential read-ahead window (16 blocks = 128 KB).
pub const DEFAULT_READAHEAD_WINDOW: usize = 16;

/// Default read-ahead latency gate: 20 µs per read. Sits an order of
/// magnitude above a hot host page cache (~1–5 µs per 8 KB `pread`) and
/// well below every simulated 1992 device (NVRAM ≈ 82 µs/page, magnetic
/// disk ≥ 4 ms/page), so the gate separates the two regimes with slack
/// on both sides.
pub const DEFAULT_READAHEAD_GATE_NS: u64 = 20_000;

impl BufferPool {
    /// A pool of `capacity` frames over `switch` with default read-ahead.
    pub fn new(switch: Arc<SmgrSwitch>, capacity: usize) -> Self {
        Self::with_options(switch, PoolOptions { frames: capacity, ..PoolOptions::default() })
    }

    /// A pool with an explicit read-ahead window and latency gate.
    pub fn with_options(switch: Arc<SmgrSwitch>, opts: PoolOptions) -> Self {
        let capacity = opts.frames;
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let frames: Vec<Frame> = (0..capacity)
            .map(|_| Frame {
                data: RwLock::with_rank(
                    FrameData {
                        key: None,
                        page: None,
                        dirty: false,
                        page_lsn: 0,
                        rec_lsn: 0,
                        log_pending: false,
                        baseline: Baseline::Whole,
                        capturing: false,
                    },
                    ranks::POOL_FRAME,
                ),
                sync: FrameState::new(),
                used: AtomicBool::new(false),
                pending: PendingLink::new(),
                prefetched: AtomicBool::new(false),
            })
            .collect();
        // With the gate disabled the window is permanently eligible;
        // report it engaged so the gauge reflects what pins will do.
        let engaged = opts.readahead_gate_ns == 0;
        Self::publish_readahead_gauge(engaged);
        Self {
            switch,
            wal: std::sync::OnceLock::new(),
            capture: Mutex::with_rank((), ranks::POOL_CAPTURE),
            capture_floor: AtomicU64::new(u64::MAX),
            pending: PendingQueue::new(),
            pending_count: AtomicUsize::new(0),
            frames,
            pages: Mutex::with_rank(Pages::default(), ranks::POOL_PAGES),
            table: Mutex::with_rank(PageTable { hand: 0 }, ranks::POOL_TABLE),
            slots: SlotArray::new((2 * capacity).next_power_of_two().max(8)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            readahead_window: opts.readahead_window,
            readahead_gate_ns: opts.readahead_gate_ns,
            read_lat_ewma: AtomicU64::new(0),
            readahead_engaged: AtomicBool::new(engaged),
            readahead: Mutex::with_rank(HashMap::new(), ranks::POOL_READAHEAD),
            writebacks: AtomicU64::new(0),
            prefetch_pages: AtomicU64::new(0),
            prefetch_hits: AtomicU64::new(0),
            bgwriter_pages: AtomicU64::new(0),
            bgwriter_cycles: AtomicU64::new(0),
        }
    }

    /// The storage-manager switch this pool writes through.
    pub fn switch(&self) -> &Arc<SmgrSwitch> {
        &self.switch
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Pool statistics.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
            prefetch_pages: self.prefetch_pages.load(Ordering::Relaxed),
            prefetch_hits: self.prefetch_hits.load(Ordering::Relaxed),
            bgwriter_pages: self.bgwriter_pages.load(Ordering::Relaxed),
            bgwriter_cycles: self.bgwriter_cycles.load(Ordering::Relaxed),
            pages: self.pages.lock().held as u64,
        }
    }

    /// Number of frames currently holding at least one pin. Diagnostic:
    /// stress tests assert this returns to zero once every handle drops.
    // LINT: allow(R14, the no-leaked-pin invariant the pool stress tests check)
    pub fn pinned_frames(&self) -> usize {
        self.frames.iter().filter(|f| f.sync.pin_count() != 0).count()
    }

    /// Zero the statistics counters.
    // LINT: allow(R14, tests zero the pool counters between phases)
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.writebacks.store(0, Ordering::Relaxed);
        self.prefetch_pages.store(0, Ordering::Relaxed);
        self.prefetch_hits.store(0, Ordering::Relaxed);
        self.bgwriter_pages.store(0, Ordering::Relaxed);
        self.bgwriter_cycles.store(0, Ordering::Relaxed);
    }
}

/// A pinned page: keeps its frame resident while alive.
pub struct PinnedPage<'a> {
    pool: &'a BufferPool,
    idx: usize,
}

// The pin is released by `Drop` alone, so a pin without one would wedge
// eviction forever. Its fields need no drop, so this holds exactly while
// `impl Drop for PinnedPage` exists; clippy's `mem_forget` keeps the
// other way of skipping it out.
const _: () = assert!(std::mem::needs_drop::<PinnedPage<'static>>());

impl PinnedPage<'_> {
    /// Shared access to the page image.
    pub fn read(&self) -> PageReadGuard<'_> {
        PageReadGuard { guard: self.pool.frames[self.idx].data.read() }
    }

    /// Exclusive access; the page is marked dirty (and flagged for
    /// capture into the redo log at the next commit, which logs what
    /// changed since the page's last record) unless the guard leaves its
    /// bytes as they were.
    pub fn write(&self) -> PageWriteGuard<'_> {
        let mut guard = self.pool.frames[self.idx].data.write();
        // Leaving logged bytes: they are the baseline the delta needs.
        let undo = (!guard.log_pending).then_some(guard.dirty);
        let data = &mut *guard;
        (data.dirty, data.log_pending) = (true, true);
        if let (Some(_), Some(_), Some(page)) = (undo, self.pool.wal.get(), &data.page) {
            data.baseline = Baseline::Bytes(page.clone());
        }
        PageWriteGuard { guard, pool: self.pool, idx: self.idx, undo }
    }

    /// Run `f` with shared access (convenience).
    pub fn with_read<R>(&self, f: impl FnOnce(&PageBuf) -> R) -> R {
        f(&self.read())
    }

    /// Run `f` with exclusive access; marks the page dirty.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut PageBuf) -> R) -> R {
        f(&mut self.write())
    }
}

impl Drop for PinnedPage<'_> {
    fn drop(&mut self) {
        self.pool.frames[self.idx].sync.unpin();
    }
}

/// Shared guard over a pinned page's bytes.
pub struct PageReadGuard<'a> {
    guard: RwLockReadGuard<'a, FrameData>,
}

impl std::ops::Deref for PageReadGuard<'_> {
    type Target = PageBuf;
    fn deref(&self) -> &PageBuf {
        self.guard.page()
    }
}

/// Exclusive guard over a pinned page's bytes.
pub struct PageWriteGuard<'a> {
    guard: RwLockWriteGuard<'a, FrameData>,
    pool: &'a BufferPool,
    idx: usize,
    /// `Some(dirty before)` when this guard took the page off its logged
    /// bytes.
    undo: Option<bool>,
}

impl Drop for PageWriteGuard<'_> {
    /// Dirty means changed: a guard that took the page off its logged
    /// bytes and leaves them as they were undoes that, so the page is not
    /// logged or written back for it. Otherwise the frame is chained for
    /// capture, still under the latch.
    fn drop(&mut self) {
        let data = &mut *self.guard;
        match (self.undo, &data.baseline) {
            (Some(dirty), Baseline::Bytes(base)) if **base == *data.page() => {
                (data.dirty, data.log_pending, data.baseline) = (dirty, false, Baseline::Whole);
            }
            _ => self.pool.note_pending(self.idx),
        }
    }
}

impl std::ops::Deref for PageWriteGuard<'_> {
    type Target = PageBuf;
    fn deref(&self) -> &PageBuf {
        self.guard.page()
    }
}

impl std::ops::DerefMut for PageWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut PageBuf {
        self.pool.frame_page(&mut self.guard)
    }
}

/// Sanity: guards must not outlive sensibly; PAGE_SIZE consistency.
const _: () = assert!(PAGE_SIZE == 8192);

#[cfg(test)]
mod tests;
