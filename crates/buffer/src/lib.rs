//! The buffer pool: an in-memory cache of 8 KB pages in front of the
//! storage-manager switch.
//!
//! POSTGRES performs all page access through a shared buffer cache; the
//! paper's Figure 3 notes that the special-purpose raw-device reader beats
//! f-chunk on sequential WORM scans precisely because f-chunk pays "overhead
//! for cache management" — overhead this module reproduces (page lookup,
//! pin accounting, write-back of dirty pages) and then works to hide:
//!
//! * the page table is **sharded** by [`PageKey`] hash, so concurrent
//!   sessions contend on `1/N`th of a lock instead of one global mutex;
//!   each shard owns a contiguous frame range with its own clock hand and
//!   hit/miss/eviction counters;
//! * sequential scans announce themselves with [`AccessHint::Sequential`],
//!   driving a **read-ahead window** that pulls the next run of blocks in
//!   one multi-block device transfer ([`pglo_smgr::StorageManager::read_many`]);
//! * dirty pages leave through a **background writer** thread
//!   ([`BufferPool::spawn_bgwriter`]) in batched elevator order, so the
//!   commit path no longer eats the write-back latency ([`BufferPool::flush_all`]
//!   still forces synchronously for the durability-critical callers);
//! * a **hit takes zero locks**: each shard publishes its mappings through
//!   an atomic slot array mirrored off the page table, a pin is a single
//!   CAS on the frame's combined pin-count/valid word, and the pinner
//!   revalidates the frame's published key after the pin lands — only
//!   misses, evictions, and revalidation failures fall back to the
//!   shard-table mutex (see DESIGN.md, "the lock-free hit path").
//!
//! Lock ordering is strictly shard-table → frame: no path acquires a
//! shard-table lock while holding a frame guard. A frame with nonzero
//! pin count is never evicted — retiring a frame for a new key is one
//! CAS that clears `VALID` only while the pin count is zero, and every
//! pin either sees `VALID` (and so blocks the retire) or goes through
//! the shard lock the retirer holds. A page-table mapping is only ever
//! transferred to an *already-clean* frame — dirty victims are written
//! back (with the shard lock released around the device write) before
//! their mapping moves — so an eviction-time write failure loses nothing
//! and a mapping never points at another page's bytes. A frame only ever
//! holds keys that hash to its own shard, so no path needs two shard
//! locks at once. The background writer takes frame locks only
//! (`try_read`/`try_write`, skipping pinned or contended frames), never
//! a shard-table lock.

use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use parking_lot::{ranks, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use pglo_pages::{PageBuf, PAGE_SIZE};
use pglo_smgr::{RelFileId, SmgrError, SmgrId, SmgrSwitch};
use pglo_wal::{AppendedAt, Lsn, PreparedRecord, Wal};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Duration;

pub mod protocol;

use protocol::{FrameState, PendingLink, PendingQueue, SlotArray};

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

struct FrameData {
    key: Option<PageKey>,
    page: Box<PageBuf>,
    dirty: bool,
    /// WAL position just past the last full-page image logged for this
    /// frame (0 = never logged). Write-back forces the log here first.
    page_lsn: Lsn,
    /// WAL position of the earliest logged image whose page has not yet
    /// reached its home location (0 = none). Replay after a crash must
    /// start at or before the minimum over dirty frames — that minimum
    /// is the checkpoint horizon.
    rec_lsn: Lsn,
    /// Dirtied since the last capture: the next commit must log a fresh
    /// image of this frame before its commit record.
    log_pending: bool,
}

impl FrameData {
    /// Reset WAL bookkeeping when the frame starts holding a freshly
    /// loaded (clean, device-backed) page image.
    fn reset_wal_state(&mut self) {
        self.page_lsn = 0;
        self.rec_lsn = 0;
        self.log_pending = false;
    }

    /// Consume the frame's `log_pending` flag: the full-page image record
    /// of its current bytes, to be appended by the caller — `None` when
    /// nothing is pending or the frame holds no page.
    fn take_pending_image(&mut self) -> Option<(PageKey, PreparedRecord)> {
        if !std::mem::take(&mut self.log_pending) {
            return None;
        }
        let key = self.key?;
        Some((key, PreparedRecord::page_image(key.smgr.0 as u32, key.rel, key.block, &self.page)))
    }

    /// Record that an image of this page sits in the log at `at`:
    /// write-back must force the log past its end, and while the page
    /// is dirty replay must be able to reach back to its start.
    fn stamp_logged(&mut self, at: &AppendedAt) {
        self.page_lsn = self.page_lsn.max(at.end);
        if self.dirty && self.rec_lsn == 0 {
            self.rec_lsn = at.start;
        }
    }
}

struct Frame {
    data: RwLock<FrameData>,
    /// The pin/`VALID` state word plus the published key pair — the whole
    /// lock-free pin/revalidate/retire protocol, extracted to
    /// [`protocol::FrameState`] so the model checker can explore it.
    sync: FrameState,
    used: AtomicBool,
    /// Intrusive link on the pending-capture chain (see
    /// [`protocol::PendingLink`]).
    pending: PendingLink,
    /// Installed by read-ahead and not yet pinned; the first pin of such a
    /// frame counts as a prefetch hit.
    prefetched: AtomicBool,
}

impl Frame {
    fn latch(&self, wait: Wait) -> Option<RwLockWriteGuard<'_, FrameData>> {
        match wait {
            Wait::Block => Some(self.data.write()),
            Wait::Skip => self.data.try_write(),
        }
    }

    /// See [`FrameState::publish`] — only while `VALID` is clear, under
    /// the frame's write latch.
    fn publish_key(&self, key: &PageKey) {
        self.sync.publish(key.rel, Self::pack_sb(key));
    }

    fn pack_sb(key: &PageKey) -> u64 {
        ((key.smgr.0 as u64) << 32) | key.block as u64
    }

    /// See [`FrameState::matches`] — advisory before a pin, authoritative
    /// after one.
    fn published_matches(&self, key: &PageKey) -> bool {
        self.sync.matches(key.rel, Self::pack_sb(key))
    }
}

/// One lock shard: a page table over a contiguous frame range with its own
/// clock hand and counters.
struct Shard {
    table: Mutex<PageTable>,
    /// Lock-free mirror of `PageTable::map` for the pin fast path; see
    /// [`protocol::SlotArray`]. Mutated only while holding `table` (the
    /// `HashMap` stays authoritative); read without any lock.
    slots: SlotArray,
    /// First frame owned by this shard.
    lo: usize,
    /// One past the last frame owned by this shard.
    hi: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

struct PageTable {
    map: HashMap<PageKey, usize>,
    hand: usize,
    /// Live tombstones in the shard's slot array; when they exceed ⅛ of
    /// the array the next removal rebuilds it (under the table lock).
    tombs: usize,
}

/// Per-relation read-ahead window state.
struct RaState {
    /// Last block pinned with a sequential hint.
    last: u32,
    /// Blocks below this were already submitted for prefetch.
    until: u32,
    /// Length of the current consecutive-block run. The window only opens
    /// at [`MIN_PREFETCH_RUN`]: a random access that happens to span two
    /// adjacent blocks (an 8 KB read crossing a chunk boundary) must not
    /// trigger a whole window of wasted device reads.
    run: u32,
}

/// Consecutive sequentially-hinted blocks required before prefetch starts.
const MIN_PREFETCH_RUN: u32 = 3;

/// What contention and failure cost a write-back.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Wait {
    /// Wait for the capture mutex and the frame latch and propagate
    /// errors: evicting a dirty victim, `flush_all`, `flush_rel`.
    Block,
    /// Never park the flusher: skip a contended mutex or latch and any
    /// pinned frame, and leave the frame dirty on any failure — the
    /// background writer and the pre-eviction batch.
    Skip,
}

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

/// Per-shard counter snapshot (`stats` aggregates these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Frames owned by the shard.
    pub frames: usize,
    /// The hits.
    pub hits: u64,
    /// The misses.
    pub misses: u64,
    /// The evictions.
    pub evictions: u64,
}

/// Construction options for [`BufferPool`].
#[derive(Debug, Clone, Copy)]
pub struct PoolOptions {
    /// Pool size in 8 KB frames.
    pub frames: usize,
    /// Requested page-table shard count; clamped so every shard keeps at
    /// least [`MIN_SHARD_FRAMES`] frames (tiny pools collapse to 1 shard).
    pub shards: usize,
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
            shards: DEFAULT_POOL_SHARDS,
            readahead_window: DEFAULT_READAHEAD_WINDOW,
            readahead_gate_ns: DEFAULT_READAHEAD_GATE_NS,
        }
    }
}

/// The shared buffer pool.
pub struct BufferPool {
    switch: Arc<SmgrSwitch>,
    /// Redo log, when attached: page writes are captured as full-page
    /// images at commit and write-back enforces WAL-before-data.
    wal: std::sync::OnceLock<Arc<Wal>>,
    /// Serializes capture batches; rank `buffer.capture` (38), taken
    /// before any frame latch.
    capture: Mutex<()>,
    /// Start LSN of the in-flight capture batch (`u64::MAX` when idle).
    /// Between batch append and LSN stamping, a captured frame briefly
    /// shows `rec_lsn == 0` while its image already sits in the log;
    /// [`BufferPool::dirty_horizon`] folds this floor in so a checkpoint
    /// cannot recycle that image away.
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
    shards: Vec<Shard>,
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

/// Default page-table shard count.
pub const DEFAULT_POOL_SHARDS: usize = 8;

/// Smallest frame range a shard is allowed to own; the requested shard
/// count is clamped so clock sweeps always have room to work.
pub const MIN_SHARD_FRAMES: usize = 8;

/// Default sequential read-ahead window (16 blocks = 128 KB).
pub const DEFAULT_READAHEAD_WINDOW: usize = 16;

/// Default read-ahead latency gate: 20 µs per read. Sits an order of
/// magnitude above a hot host page cache (~1–5 µs per 8 KB `pread`) and
/// well below every simulated 1992 device (NVRAM ≈ 82 µs/page, magnetic
/// disk ≥ 4 ms/page), so the gate separates the two regimes with slack
/// on both sides.
pub const DEFAULT_READAHEAD_GATE_NS: u64 = 20_000;

impl BufferPool {
    /// A pool of `capacity` frames over `switch` with default sharding and
    /// read-ahead.
    pub fn new(switch: Arc<SmgrSwitch>, capacity: usize) -> Self {
        Self::with_options(switch, PoolOptions { frames: capacity, ..PoolOptions::default() })
    }

    /// A pool with explicit shard count and read-ahead window.
    pub fn with_options(switch: Arc<SmgrSwitch>, opts: PoolOptions) -> Self {
        let capacity = opts.frames;
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let nshards = opts.shards.clamp(1, (capacity / MIN_SHARD_FRAMES).max(1));
        let frames: Vec<Frame> = (0..capacity)
            .map(|_| Frame {
                data: RwLock::with_rank(
                    FrameData {
                        key: None,
                        page: pglo_pages::alloc_page(),
                        dirty: false,
                        page_lsn: 0,
                        rec_lsn: 0,
                        log_pending: false,
                    },
                    ranks::POOL_FRAME,
                ),
                sync: FrameState::new(),
                used: AtomicBool::new(false),
                pending: PendingLink::new(),
                prefetched: AtomicBool::new(false),
            })
            .collect();
        // Contiguous frame ranges, remainder spread over the first shards.
        let per = capacity / nshards;
        let extra = capacity % nshards;
        let mut lo = 0;
        let shards = (0..nshards)
            .map(|s| {
                let len = per + usize::from(s < extra);
                let slot_len = (2 * len).next_power_of_two().max(8);
                let shard = Shard {
                    table: Mutex::with_rank(
                        PageTable { map: HashMap::new(), hand: lo, tombs: 0 },
                        ranks::POOL_SHARD,
                    ),
                    slots: SlotArray::new(slot_len),
                    lo,
                    hi: lo + len,
                    hits: AtomicU64::new(0),
                    misses: AtomicU64::new(0),
                    evictions: AtomicU64::new(0),
                };
                lo += len;
                shard
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
            shards,
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

    /// Number of page-table shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One hash per pin: the low bits pick the shard, a remixed value
    /// seeds the in-shard slot probe.
    fn key_hash(key: &PageKey) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        h.finish()
    }

    /// In-shard probe start. Shard selection consumes the hash's low bits
    /// (`hash % nshards`), so every key in a shard agrees on them; masking
    /// the raw hash would start all probes on every-nth slot and clump the
    /// chains. A Fibonacci remix spreads the start across the whole array.
    fn slot_start(hash: u64, mask: usize) -> usize {
        (hash.wrapping_mul(0x9E3779B97F4A7C15) >> 32) as usize & mask
    }

    fn shard_of(&self, key: &PageKey) -> &Shard {
        &self.shards[(Self::key_hash(key) % self.shards.len() as u64) as usize]
    }

    // ---- the lock-free slot index ----------------------------------------
    //
    // Writers keep `Shard::slots` in sync with the authoritative
    // `PageTable::map` inside the same table-lock critical sections that
    // mutate the map. Readers probe it without any lock; every slot value
    // is a hint validated against the frame itself, so stale reads are
    // harmless (see `try_pin_fast`).

    /// Mirror a `map.insert(key, idx)`; caller holds the shard's table lock.
    fn slot_insert(&self, shard: &Shard, table: &mut PageTable, key: &PageKey, idx: usize) {
        if shard.slots.insert(Self::slot_start(Self::key_hash(key), shard.slots.mask()), idx) {
            table.tombs -= 1;
        }
    }

    /// Mirror a `map.remove(key)` that unmapped frame `idx`; caller holds
    /// the shard's table lock. Rebuilds the array once tombstones pile up
    /// past ⅛ of it, keeping probe chains (and the fast path's bounded
    /// probe) short.
    fn slot_remove(&self, shard: &Shard, table: &mut PageTable, key: &PageKey, idx: usize) {
        if shard.slots.remove(Self::slot_start(Self::key_hash(key), shard.slots.mask()), idx) {
            table.tombs += 1;
            if table.tombs * 8 > shard.slots.len() {
                self.slot_rebuild(shard, table);
            }
        } else {
            debug_assert!(false, "slot entry missing for a mapped key");
        }
    }

    /// Re-derive the slot array from the map, dropping all tombstones
    /// (see [`SlotArray::clear`] for why concurrent lock-free readers are
    /// safe against a mid-rebuild view).
    fn slot_rebuild(&self, shard: &Shard, table: &mut PageTable) {
        shard.slots.clear();
        table.tombs = 0;
        for (key, &idx) in &table.map {
            shard.slots.insert(Self::slot_start(Self::key_hash(key), shard.slots.mask()), idx);
        }
    }

    /// The zero-lock hit path: probe the shard's slot array for a frame
    /// whose published key matches, pin it with one
    /// CAS-increment-if-valid, then re-check the published key now that
    /// the pin has frozen it. Returns the pinned frame index, or `None`
    /// for anything that needs the authoritative locked path (absent
    /// key, probe bound hit, frame mid-install or just retired, CAS
    /// contention, revalidation failure).
    fn try_pin_fast(&self, shard: &Shard, key: &PageKey) -> Option<usize> {
        let mut retries = 0u32;
        let found = shard
            .slots
            .probe(Self::slot_start(Self::key_hash(key), shard.slots.mask()), |idx| {
                // Advisory pre-filter on the published key; the read may
                // be stale or torn, which either sends us onward down the
                // probe chain (missed match → locked path finds it) or
                // into a pin attempt the post-pin re-check rejects.
                if idx >= self.frames.len() || !self.frames[idx].published_matches(key) {
                    return None;
                }
                let frame = &self.frames[idx];
                let (pinned, cas_retries) = frame.sync.try_pin_valid();
                retries += cas_retries;
                if pinned {
                    // The pin held `VALID` up, so the published key is
                    // frozen: this re-read decides for real.
                    if frame.published_matches(key) {
                        return Some(Some(idx));
                    }
                    // Re-keyed between filter and pin.
                    frame.sync.unpin();
                    retries += 1;
                } else {
                    // Mid-install, failed load, or being retired — the
                    // locked path sorts it out.
                    retries += 1;
                }
                // A probed match ends the walk either way.
                Some(None)
            })
            .flatten();
        if retries > 0 {
            obs::counter!("pool.pin.retries").add(retries as u64);
        }
        found
    }

    /// Lock-free residency probe (no pin taken): whether some valid
    /// frame currently publishes `key`. Purely advisory — read-ahead
    /// uses it to skip resident blocks without touching the shard lock;
    /// a stale answer costs one redundant device read or one locked
    /// confirmation, never correctness.
    fn resident_fast(&self, shard: &Shard, key: &PageKey) -> bool {
        shard
            .slots
            .probe(Self::slot_start(Self::key_hash(key), shard.slots.mask()), |idx| {
                (idx < self.frames.len()
                    && self.frames[idx].published_matches(key)
                    && self.frames[idx].sync.is_valid())
                .then_some(())
            })
            .is_some()
    }

    /// Pin `key`'s page into the pool, loading it from its storage manager
    /// on a miss. The page stays resident until the returned handle drops.
    pub fn pin(&self, key: PageKey) -> Result<PinnedPage<'_>> {
        self.pin_with_hint(key, AccessHint::Random)
    }

    /// [`Self::pin`] with an access-pattern hint. A [`AccessHint::Sequential`]
    /// pin that continues an ascending run triggers window read-ahead.
    pub fn pin_with_hint(&self, key: PageKey, hint: AccessHint) -> Result<PinnedPage<'_>> {
        let shard = self.shard_of(&key);
        // The common case — a resident, installed page — takes zero
        // locks: probe the shard's slot array, CAS the frame's pin word,
        // revalidate the published key. Everything else (miss, frame
        // mid-install, contention, probe overflow) goes through the
        // shard-table mutex.
        let idx = match self.try_pin_fast(shard, &key) {
            Some(idx) => {
                obs::counter!("pool.pin.fast").add(1);
                self.note_hit(shard, idx, true);
                idx
            }
            None => {
                obs::counter!("pool.pin.slow").add(1);
                self.pin_locked(shard, key)?
            }
        };
        if hint == AccessHint::Sequential {
            self.run_readahead(key);
        }
        Ok(PinnedPage { pool: self, idx })
    }

    /// What a hit owes once its pin has landed on the right page: the
    /// reference bit and the prefetch-hit and hit counts (`count` is
    /// false when this pin call already counted as a miss).
    fn note_hit(&self, shard: &Shard, idx: usize, count: bool) {
        let frame = &self.frames[idx];
        frame.used.store(true, Ordering::Relaxed);
        if frame.prefetched.swap(false, Ordering::Relaxed) {
            self.prefetch_hits.fetch_add(1, Ordering::Relaxed);
        }
        if count {
            shard.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Pin `key` through the shard-table mutex, loading the page on a
    /// miss; returns the pinned frame.
    fn pin_locked(&self, shard: &Shard, key: PageKey) -> Result<usize> {
        // Each pin call is accounted exactly once (one hit or one miss),
        // however many times the claim/validate loop goes around —
        // `hits + misses == pins` is a tested invariant.
        let mut counted = false;
        loop {
            // Locked lookup: resident but not fast-pinnable (load in
            // flight, revalidation failure, slot probe gave up).
            {
                let table = shard.table.lock();
                if let Some(&idx) = table.map.get(&key) {
                    let frame = &self.frames[idx];
                    frame.sync.pin_unconditional();
                    drop(table);
                    // A mapping can briefly point at a frame whose load is
                    // in flight or failed. `VALID` vouches for the common
                    // case on one atomic load; otherwise latch the frame
                    // (waiting out any in-flight load) and check its key,
                    // retrying rather than return another page's bytes.
                    if !frame.sync.is_valid() && frame.data.read().key != Some(key) {
                        frame.sync.unpin();
                        continue;
                    }
                    self.note_hit(shard, idx, !counted);
                    return Ok(idx);
                }
            }
            if !counted {
                shard.misses.fetch_add(1, Ordering::Relaxed);
                counted = true;
            }
            // Miss: claim a clean victim, transfer the mapping, then load
            // *outside* the shard lock (the frame's write lock blocks
            // concurrent readers of the new key until the load is done,
            // and other shard traffic proceeds meanwhile).
            let Some((idx, mut data)) = self.claim_frame(shard, key)? else {
                // Another thread mapped `key` while we were claiming.
                continue;
            };
            let frame = &self.frames[idx];
            let load_span = obs::span!("pool.miss.load");
            let loaded = self.switch.get(key.smgr).and_then(|smgr| {
                let wall = std::time::Instant::now();
                let sim0 = smgr.clock_ns();
                // LINT: allow(R7, the frame write lock must block readers of the new key until the page load lands; only shard traffic proceeds during the I/O)
                let read = smgr.read(key.rel, key.block, &mut data.page);
                if read.is_ok() {
                    let ns =
                        wall.elapsed().as_nanos() as u64 + smgr.clock_ns().saturating_sub(sim0);
                    self.observe_read_latency(ns);
                }
                read
            });
            drop(load_span);
            if let Err(e) = loaded {
                // Undo without inverting the shard-table → frame lock
                // order: drop the frame guard first, then re-validate
                // under the shard lock before removing the mapping — a
                // racing `new_page` of this very block may have
                // legitimately re-owned both frame and mapping meanwhile
                // (its write guard makes the `try_read` fail, or its key
                // store makes the emptiness check fail; either way we
                // leave its mapping alone). The frame stays pinned until
                // the undo is finished, so it cannot be re-claimed.
                data.key = None;
                drop(data);
                let mut table = shard.table.lock();
                if table.map.get(&key) == Some(&idx)
                    && frame.data.try_read().is_some_and(|d| d.key.is_none())
                {
                    table.map.remove(&key);
                    self.slot_remove(shard, &mut table, &key, idx);
                }
                drop(table);
                frame.sync.unpin();
                return Err(e.into());
            }
            self.install(idx, &mut data, key, false);
            return Ok(idx);
        }
    }

    /// Make latched frame `idx` hold `key`, whose image the caller just
    /// put in `data.page`, and let `VALID` vouch for it: any pinner that
    /// found the mapping is parked on the held write latch and wakes to
    /// the right bytes. A device image starts clean; a `fresh` one
    /// (`new_page`'s) exists nowhere else yet, so dirty and pending capture.
    fn install(&self, idx: usize, data: &mut FrameData, key: PageKey, fresh: bool) {
        data.key = Some(key);
        data.dirty = fresh;
        data.reset_wal_state();
        if fresh {
            data.log_pending = true;
            self.note_pending(idx);
        }
        self.frames[idx].sync.set_valid();
    }

    // ---- read-latency observation ----------------------------------------

    /// Fold one observed per-read latency sample (wall-clock plus
    /// simulated-clock delta, in ns) into the EWMA and flip the
    /// read-ahead gate with hysteresis: engage at `readahead_gate_ns`,
    /// release below half of it, so a latency hovering at the threshold
    /// doesn't flap the window open and shut.
    fn observe_read_latency(&self, ns: u64) {
        let prev = self.read_lat_ewma.load(Ordering::Relaxed);
        let next = if prev == 0 {
            // First sample seeds the average, clamped below the engage
            // threshold: one outlier (a cold file open on a fast host)
            // must not flip the gate by itself. A genuinely slow device
            // pulls the EWMA over the gate on the next ⅛-step fold.
            ns.max(1).min((self.readahead_gate_ns / 2).max(1))
        } else {
            (prev as i64 + (ns as i64 - prev as i64) / 8).max(1) as u64
        };
        // Single best-effort CAS: if a racing sampler folded first, its
        // value is just as valid an average — gate on whichever landed.
        let folded = match self.read_lat_ewma.compare_exchange(
            prev,
            next,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => next,
            Err(other) => other,
        };
        if self.readahead_gate_ns == 0 {
            return;
        }
        let engaged = self.readahead_engaged.load(Ordering::Relaxed);
        if !engaged && folded >= self.readahead_gate_ns {
            self.readahead_engaged.store(true, Ordering::Relaxed);
            Self::publish_readahead_gauge(true);
        } else if engaged && folded < self.readahead_gate_ns / 2 {
            self.readahead_engaged.store(false, Ordering::Relaxed);
            Self::publish_readahead_gauge(false);
        }
    }

    /// The one call site that owns the `pool.readahead.engaged` gauge
    /// (metric names are unique per call site workspace-wide).
    fn publish_readahead_gauge(engaged: bool) {
        obs::gauge!("pool.readahead.engaged").set(u64::from(engaged));
    }

    /// Whether the latency gate currently allows read-ahead.
    pub fn readahead_engaged(&self) -> bool {
        self.readahead_gate_ns == 0 || self.readahead_engaged.load(Ordering::Relaxed)
    }

    /// Current EWMA of observed per-read device latency in nanoseconds
    /// (0 = no reads sampled yet).
    pub fn read_latency_ewma_ns(&self) -> u64 {
        self.read_lat_ewma.load(Ordering::Relaxed)
    }

    /// Allocate a brand-new block at the end of `rel`, initialized by
    /// `init`, returning its block number and a pinned handle. Allocation
    /// is delayed: the storage manager only grows the relation; the page
    /// image is written once, when the (dirty) frame is later flushed.
    pub fn new_page(
        &self,
        smgr: SmgrId,
        rel: RelFileId,
        init: impl FnOnce(&mut PageBuf),
    ) -> Result<(u32, PinnedPage<'_>)> {
        let mgr = self.switch.get(smgr)?;
        let mut page = pglo_pages::alloc_page();
        init(&mut page);
        let block = mgr.allocate(rel)?;
        let key = PageKey::new(smgr, rel, block);
        // Install directly into a frame (avoids an immediate re-read).
        let shard = self.shard_of(&key);
        loop {
            let (idx, mut data) = match self.claim_frame(shard, key)? {
                Some(claimed) => claimed,
                None => {
                    // `key` is already mapped: a sequential read-ahead
                    // racing past the just-grown EOF can install the fresh
                    // block's device image before we get here. Re-own that
                    // frame and overwrite it with the authoritative image.
                    let table = shard.table.lock();
                    let Some(&idx) = table.map.get(&key) else { continue };
                    let frame = &self.frames[idx];
                    frame.sync.pin_unconditional();
                    frame.used.store(true, Ordering::Relaxed);
                    frame.prefetched.store(false, Ordering::Relaxed);
                    // The frame may be validly pinned by racing readers of
                    // this very key; the write latch serializes them, and
                    // the overwrite installs the same key's image, so
                    // `VALID` need not drop — lock-free pins taken meanwhile
                    // simply wait on the latch and wake to the init bytes.
                    let data = frame.data.write();
                    drop(table);
                    frame.publish_key(&key);
                    (idx, data)
                }
            };
            data.page.copy_from_slice(&page[..]);
            self.install(idx, &mut data, key, true);
            return Ok((block, PinnedPage { pool: self, idx }));
        }
    }

    /// Claim a clean, unpinned victim frame in `shard` and transfer the
    /// page-table mapping to `key`, returning the frame index and its held
    /// write guard, with the pin already taken. Returns `Ok(None)` if
    /// another thread mapped `key` meanwhile (the caller re-pins through
    /// the lookup path).
    ///
    /// The mapping is only ever transferred to an *already-clean* frame:
    /// dirty victims are written back — with the shard lock released
    /// around the device write — before their old mapping is touched, so
    /// a write-back failure (e.g. a burned WORM block) propagates without
    /// leaking a pinned frame, losing the dirty page, or leaving a
    /// mapping that points at another page's bytes.
    fn claim_frame(
        &self,
        shard: &Shard,
        key: PageKey,
    ) -> Result<Option<(usize, RwLockWriteGuard<'_, FrameData>)>> {
        let mut tried_batch = false;
        loop {
            let mut table = shard.table.lock();
            if table.map.contains_key(&key) {
                return Ok(None);
            }
            if let Some(idx) = self.sweep(shard, &mut table, false) {
                let frame = &self.frames[idx];
                // Retire-for-re-key: clear `VALID` while the pin count is
                // provably zero, in one CAS. A lock-free pinner that got
                // its pin in first makes the CAS fail — the frame is hot
                // again, pick another victim. After it succeeds no new
                // pin can land: fast-path pins require `VALID`, slow-path
                // pins require the table lock we hold.
                if frame.sync.try_retire().is_none() {
                    continue;
                }
                frame.sync.pin_unconditional();
                // Shard-table → frame order. The sweep saw the frame clean
                // and unpinned under this table lock and the retire froze
                // that — so the guard is immediate (at worst a flusher's
                // try-lock is draining) and the frame is still clean
                // under it.
                let mut data = frame.data.write();
                self.rekey(shard, &mut table, idx, &mut data, key, false);
                drop(table);
                return Ok(Some((idx, data)));
            }
            // No clean victim. One pool-wide batched flush in elevator
            // order, with the shard lock released so lookups proceed
            // meanwhile, then retry the sweep.
            if !tried_batch {
                drop(table);
                self.flush_dirty_batch();
                tried_batch = true;
                continue;
            }
            // Still none (the batch skips contended frames and swallows
            // write failures): write one dirty victim back individually,
            // keeping its mapping until it is clean, so a device refusal
            // surfaces here losslessly instead of corrupting state.
            let Some(idx) = self.sweep(shard, &mut table, true) else {
                return Err(BufferError::PoolExhausted);
            };
            let frame = &self.frames[idx];
            // Raised under the table lock (which serializes against any
            // retire), so every re-key path sees a stable nonzero pin
            // count for the duration of the write-back.
            frame.sync.pin_unconditional();
            drop(table);
            // The pin keeps the victim from being re-keyed while the
            // write-back (plus any required image logging) runs outside
            // the shard lock; the frame stays `VALID` and mapped, so
            // readers of its page are never disturbed.
            let written = self.write_back_frame(idx, None, Wait::Block);
            frame.sync.unpin();
            written?;
            // Frame is clean now (a concurrent claimer may steal it — the
            // next sweep decides); go around again.
        }
    }

    /// Transfer retired frame `idx` to `key`: unmap the page it held (an
    /// eviction), map and publish the new key. Caller holds the shard's
    /// table lock and the frame's write latch with `VALID` clear;
    /// [`BufferPool::install`] sets it once the image is in place.
    fn rekey(
        &self,
        shard: &Shard,
        table: &mut PageTable,
        idx: usize,
        data: &mut FrameData,
        key: PageKey,
        prefetched: bool,
    ) {
        if let Some(old) = data.key.take() {
            table.map.remove(&old);
            self.slot_remove(shard, table, &old, idx);
            shard.evictions.fetch_add(1, Ordering::Relaxed);
        }
        table.map.insert(key, idx);
        self.slot_insert(shard, table, &key, idx);
        let frame = &self.frames[idx];
        frame.used.store(true, Ordering::Relaxed);
        frame.prefetched.store(prefetched, Ordering::Relaxed);
        frame.publish_key(&key);
    }

    /// Write frame `idx` home if it is dirty, returning whether it wrote
    /// — the pool's one write-back. `expect` re-validates the frame's key
    /// under the latch (pass `None` when the caller holds a pin, which
    /// already rules out a re-key).
    ///
    /// A frame dirtied since its last capture (`log_pending`) must have
    /// its image logged before the home write, and that takes the capture
    /// mutex *before* the frame latch (rank 38 before 40): an in-flight
    /// capture may hold an older copy of this page that is not yet in
    /// the log — appending our fresher image first would let the
    /// capture's older image land at a higher LSN and win replay,
    /// tearing the page. Parking behind the capture serializes the two.
    fn write_back_frame(&self, idx: usize, expect: Option<PageKey>, wait: Wait) -> Result<bool> {
        let frame = &self.frames[idx];
        let mut serial: Option<MutexGuard<'_, ()>> = None;
        loop {
            let Some(mut data) = frame.latch(wait) else { return Ok(false) };
            // Evicted or flushed by someone else meanwhile.
            if !data.dirty || (expect.is_some() && data.key != expect) {
                return Ok(false);
            }
            if !data.log_pending || serial.is_some() || self.wal.get().is_none() {
                // LINT: allow(R7, the capture mutex and frame latch must span image logging and home write so the image is stable on its way to the device and no concurrent capture interleaves an older one)
                return match (self.write_back(&mut data), wait) {
                    (Ok(()), _) => Ok(true),
                    (Err(e), Wait::Block) => Err(e),
                    (Err(_), Wait::Skip) => Ok(false),
                };
            }
            // Only proceed when serialized against captures: let go of
            // the latch and come back holding the mutex. A capture may
            // log the image meanwhile; `log_pending_image` no-ops then.
            drop(data);
            serial = match wait {
                Wait::Block => Some(self.capture.lock()),
                Wait::Skip => self.capture.try_lock(),
            };
            if serial.is_none() {
                return Ok(false);
            }
        }
    }

    /// The WAL-before-data sequence, under `write_back_frame`'s latch on
    /// a dirty frame: log a never-captured delta, force the log past the
    /// frame's last image so the on-disk page never runs ahead of what
    /// replay can reconstruct, write the page home, clear `dirty`. A
    /// failure at any step leaves the frame dirty.
    fn write_back(&self, data: &mut FrameData) -> Result<()> {
        self.log_pending_image(data)?;
        if let Some(key) = data.key {
            let _span = obs::span!("pool.writeback");
            self.force_wal(data.page_lsn)?;
            let smgr = self.switch.get(key.smgr)?;
            smgr.write(key.rel, key.block, &data.page)?;
            // The home write has landed but (for a log-resident
            // manager) is only *staged* there: re-pin the frame's
            // oldest image so a checkpoint cannot recycle it while
            // the staged block still needs replay. Registered under
            // the held frame latch, before `dirty`/`rec_lsn` clear,
            // so the dirty horizon and the pin hand off without a
            // window in between.
            if let Some(wal) = self.wal.get() {
                wal.pin_record(key.smgr.0 as u32, key.rel, data.rec_lsn);
            }
            self.writebacks.fetch_add(1, Ordering::Relaxed);
        }
        data.dirty = false;
        data.rec_lsn = 0;
        Ok(())
    }

    /// Log a full-page image of a `log_pending` frame immediately,
    /// stamping its LSNs: by the time the home copy exists, the log must
    /// be able to reconstruct it, or a crash after the owning transaction
    /// commits would replay an older image over committed bytes — and a
    /// re-key after the write-back would erase the only copy of the
    /// delta. On failure the flag stays set, so the frame stays protected.
    fn log_pending_image(&self, data: &mut FrameData) -> Result<()> {
        let Some(wal) = self.wal.get() else { return Ok(()) };
        let Some((_, image)) = data.take_pending_image() else { return Ok(()) };
        let ats = wal.append_batch(&mut [image]).map_err(|e| {
            data.log_pending = true;
            BufferError::Wal(e)
        })?;
        data.stamp_logged(&ats[0]);
        Ok(())
    }

    /// Force the attached redo log past `page_lsn` (no-op when 0 or when
    /// no log is attached).
    fn force_wal(&self, page_lsn: Lsn) -> Result<()> {
        if page_lsn > 0 {
            if let Some(wal) = self.wal.get() {
                wal.flush_to(page_lsn).map_err(BufferError::Wal)?;
            }
        }
        Ok(())
    }

    // ---- sequential read-ahead -------------------------------------------

    /// Advance the per-relation window state and prefetch if a run is live.
    fn run_readahead(&self, key: PageKey) {
        // Latency gate: when reads are coming back fast (hot host page
        // cache), prefetch buys nothing and its planning, install and
        // device traffic are pure overhead — skip before taking any lock.
        if !self.readahead_engaged() {
            return;
        }
        let Some((start, end)) = self.plan_readahead(key) else { return };
        // Best-effort: read-ahead failures (EOF races, unknown manager)
        // never surface to the pinning caller.
        self.prefetch_range(key.smgr, key.rel, start, end);
    }

    /// Decide what to prefetch for a sequential pin of `key`, reserving the
    /// range in the window state so concurrent scanners don't double-issue.
    fn plan_readahead(&self, key: PageKey) -> Option<(u32, u32)> {
        let window = self.readahead_window as u32;
        if window == 0 {
            return None;
        }
        let mut map = self.readahead.lock();
        let Some(st) = map.get_mut(&(key.smgr, key.rel)) else {
            map.insert(
                (key.smgr, key.rel),
                RaState { last: key.block, until: key.block + 1, run: 1 },
            );
            return None;
        };
        let advanced = key.block == st.last.wrapping_add(1);
        let repeat = key.block == st.last;
        st.last = key.block;
        if !advanced {
            if !repeat {
                // A seek resets the window.
                st.until = key.block + 1;
                st.run = 1;
            }
            return None;
        }
        st.run = st.run.saturating_add(1);
        if st.run < MIN_PREFETCH_RUN {
            return None;
        }
        let target = key.block.saturating_add(1 + window);
        // Refill once less than half the window is left ahead of the scan,
        // so steady state issues one half-window batch per half window.
        if st.until >= key.block + 1 + window / 2 {
            return None;
        }
        let start = st.until.max(key.block + 1);
        st.until = target;
        Some((start, target))
    }

    /// Read blocks `[start, end)` of `rel` into clean unpinned frames,
    /// skipping blocks already resident. Never writes, never blocks on a
    /// contended frame, swallows device errors — pure opportunism.
    fn prefetch_range(&self, smgr: SmgrId, rel: RelFileId, start: u32, end: u32) {
        let Ok(mgr) = self.switch.get(smgr) else { return };
        // Group the non-resident blocks into contiguous runs. Residency
        // is probed lock-free first (install is if-absent anyway, so a
        // stale answer wastes at most one device read); only a probe
        // miss confirms against the authoritative map under the lock.
        let mut runs: Vec<(u32, usize)> = Vec::new();
        for block in start..end {
            let key = PageKey::new(smgr, rel, block);
            let shard = self.shard_of(&key);
            if self.resident_fast(shard, &key) || shard.table.lock().map.contains_key(&key) {
                continue;
            }
            match runs.last_mut() {
                Some((s, n)) if *s + *n as u32 == block => *n += 1,
                _ => runs.push((block, 1)),
            }
        }
        for (run_start, want) in runs {
            let mut bufs: Vec<PageBuf> = vec![[0u8; PAGE_SIZE]; want];
            let wall = std::time::Instant::now();
            let sim0 = mgr.clock_ns();
            let got = match mgr.read_many(rel, run_start, &mut bufs) {
                Ok(got) => got,
                Err(_) => return,
            };
            if got > 0 {
                let total = wall.elapsed().as_nanos() as u64 + mgr.clock_ns().saturating_sub(sim0);
                self.observe_read_latency(total / got as u64);
            }
            for (i, page) in bufs.iter().take(got).enumerate() {
                let key = PageKey::new(smgr, rel, run_start + i as u32);
                if self.install_prefetched(key, page) {
                    self.prefetch_pages.fetch_add(1, Ordering::Relaxed);
                }
            }
            if got < want {
                return; // end of relation
            }
        }
    }

    /// Install a prefetched page image if its key is still absent and a
    /// clean unpinned victim exists. Returns whether it went in.
    fn install_prefetched(&self, key: PageKey, page: &PageBuf) -> bool {
        let shard = self.shard_of(&key);
        let mut table = shard.table.lock();
        if table.map.contains_key(&key) {
            // Mapped meanwhile (possibly dirty) — never clobber it with a
            // stale device image.
            return false;
        }
        let Some(idx) = self.sweep(shard, &mut table, false) else { return false };
        let frame = &self.frames[idx];
        // Retire the victim exactly like `claim_frame`: a lock-free
        // pinner may have pinned the frame's old key between the sweep's
        // pin check and here, and overwriting bytes under such a pin
        // would hand it a foreign page. The CAS refuses while any pin is
        // held; installs are opportunistic, so just give up then.
        let Some(was_valid) = frame.sync.try_retire() else { return false };
        // Only flushers can be holding the latch now (pins are excluded
        // by the retire + the held shard lock) — skip rather than wait,
        // restoring `VALID` if the retire took it (the frame and its
        // mapping are untouched).
        let Some(mut data) = frame.data.try_write().filter(|data| !data.dirty) else {
            if was_valid {
                frame.sync.set_valid();
            }
            return false;
        };
        self.rekey(shard, &mut table, idx, &mut data, key, true);
        drop(table);
        data.page.copy_from_slice(&page[..]);
        self.install(idx, &mut data, key, false);
        true
    }

    /// One clock sweep over the shard's frames (two passes of the hand),
    /// returning an unpinned, unreferenced victim, or `None`. With
    /// `take_dirty` false only clean, uncontended frames are accepted,
    /// letting dirty pages accumulate for batched elevator write-back;
    /// the caller decides when to flush and when to accept a dirty frame.
    /// Caller holds the shard's table lock.
    fn sweep(&self, shard: &Shard, table: &mut PageTable, take_dirty: bool) -> Option<usize> {
        let len = shard.hi - shard.lo;
        for _ in 0..2 * len {
            let idx = table.hand;
            table.hand = if table.hand + 1 >= shard.hi { shard.lo } else { table.hand + 1 };
            let frame = &self.frames[idx];
            if frame.sync.pin_count() != 0 {
                continue;
            }
            if frame.used.swap(false, Ordering::Relaxed) {
                continue;
            }
            if !take_dirty {
                match frame.data.try_read() {
                    Some(data) if !data.dirty => return Some(idx),
                    _ => continue,
                }
            }
            return Some(idx);
        }
        None
    }

    // ---- eviction and write-back -----------------------------------------

    /// The one dirty walk: write back every dirty page `pred` selects, in
    /// `(device, relation, block)` order — elevator scheduling, so dirty
    /// pages accumulate and then leave in long sequential runs, as in
    /// every contemporary system. Returns pages written; only
    /// [`Wait::Block`] can fail.
    ///
    /// `cold_only` is the periodic background-writer mode: a dirty frame
    /// with its reference bit set is *cooled* (bit cleared) instead of
    /// written, so it is flushed only if still untouched a sweep later.
    /// Pages being re-dirtied in place (a heap's insertion tail) thus keep
    /// their bit set and are never repeatedly written back — the classic
    /// write-amplification trap for an eager background writer.
    fn flush(&self, wait: Wait, cold_only: bool, pred: impl Fn(&PageKey) -> bool) -> Result<usize> {
        let mut dirty: Vec<(PageKey, usize)> = Vec::new();
        for (idx, frame) in self.frames.iter().enumerate() {
            if wait == Wait::Skip && frame.sync.pin_count() != 0 {
                continue;
            }
            let data = match wait {
                Wait::Block => Some(frame.data.read()),
                Wait::Skip => frame.data.try_read(),
            };
            let Some(data) = data else { continue };
            let Some(key) = data.key else { continue };
            let selected = data.dirty && pred(&key);
            if selected && !(cold_only && frame.used.swap(false, Ordering::Relaxed)) {
                dirty.push((key, idx));
            }
        }
        dirty.sort_unstable_by_key(|(k, _)| (k.smgr, k.rel, k.block));
        let mut written = 0;
        for (key, idx) in dirty {
            written += usize::from(self.write_back_frame(idx, Some(key), wait)?);
        }
        Ok(written)
    }

    /// The background-writer model: write every dirty, unpinned page in
    /// elevator order, skipping contended frames; a page whose device
    /// refuses the write (e.g. a burned WORM block) stays dirty for its
    /// evictor to deal with. Returns pages written.
    pub fn flush_dirty_batch(&self) -> usize {
        self.flush(Wait::Skip, false, |_| true).unwrap_or(0)
    }

    // ---- redo-log interplay ----------------------------------------------

    /// Attach the redo log (first call wins; returns whether this call
    /// attached it). With a log attached, page writes are captured as
    /// full-page images at commit time and every write-back enforces the
    /// WAL-before-data invariant.
    pub fn set_wal(&self, wal: Arc<Wal>) -> bool {
        self.wal.set(wal).is_ok()
    }

    /// Chain `idx` onto the pending-capture list. Called right after a
    /// frame is flagged `log_pending` (atomics only — safe under the
    /// frame latch). The `queued` transition ensures a frame is chained
    /// at most once; re-dirtying an already-chained frame is a single
    /// failed compare-exchange.
    fn note_pending(&self, idx: usize) {
        if self.pending.push(idx, &self.frames[idx].pending) {
            self.pending_count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Approximate number of frames waiting on the pending-capture
    /// chain. Advisory: lets eager callers (the server request loop)
    /// skip [`BufferPool::capture_pending`] until enough backlog has
    /// built up to be worth an append — re-dirtied hot pages then
    /// coalesce into one image per drain instead of one per request.
    pub fn capture_backlog(&self) -> usize {
        self.pending_count.load(Ordering::Relaxed)
    }

    /// Log a full-page image of every frame dirtied since its last
    /// capture, stamping `page_lsn`/`rec_lsn`. The commit path calls
    /// this *before* appending its commit record: any page delta the
    /// home location holds but the log does not is then, by
    /// construction, uncommitted work — replaying an older image over it
    /// after a crash loses nothing visible. Returns the log position
    /// past the last image (0 = nothing pending or no log attached).
    ///
    /// Cost is O(pages pending), not O(pool): candidates come off the
    /// pending chain, so callers can afford to invoke this eagerly (the
    /// server drains after every request) and a commit finds at most a
    /// requests' worth of backlog instead of the whole pool.
    pub fn capture_pending(&self) -> Result<Lsn> {
        let Some(wal) = self.wal.get() else { return Ok(0) };
        // Fast path: nothing chained *and* no capture in flight. The
        // second check matters for commits — another capture may have
        // stolen the chain (head empty) while its images are not yet in
        // the log; a committer must wait behind it on the mutex so its
        // commit record lands after those images.
        if self.pending.is_empty_fast() && self.capture_floor.load(Ordering::Acquire) == u64::MAX {
            return Ok(0);
        }
        let _span = obs::span!("pool.capture");
        let _serial = self.capture.lock();
        // Publish the floor before stealing the chain: it keeps the
        // checkpoint horizon from advancing past where this batch's
        // images will land, and (set-before-steal) makes the fast path
        // above race-free.
        self.capture_floor.store(wal.end_lsn(), Ordering::Release);
        // Steal the whole chain. Everything flagged before this point is
        // ours; frames flagged afterwards start a fresh chain for the
        // next capture — which is exactly the commit contract, since a
        // committer's own writes all completed (and chained) before it
        // asked for the capture. The walk happens before any `queued`
        // release, so the links are stable (see `PendingQueue::steal`).
        let indices = self.pending.steal(|i| &self.frames[i].pending);
        self.pending_count.store(0, Ordering::Relaxed);
        if indices.is_empty() {
            self.capture_floor.store(u64::MAX, Ordering::Release);
            return Ok(0);
        }
        // Phase 1: encode and checksum every pending page outside the
        // append lock, frame latches taken one at a time.
        let mut batch: Vec<PreparedRecord> = Vec::new();
        let mut sources: Vec<(usize, PageKey)> = Vec::new();
        for &idx in &indices {
            let frame = &self.frames[idx];
            // Off the chain now; a writer re-dirtying from here on chains
            // the frame again for the *next* capture. If that happens
            // before our latch below, we capture the newer bytes and the
            // next capture skips a clean frame — never a lost image.
            frame.pending.release();
            if let Some((key, image)) = frame.data.write().take_pending_image() {
                batch.push(image);
                sources.push((idx, key));
            }
        }
        obs::histogram!("pool.capture.batch").record(batch.len() as u64);
        if batch.is_empty() {
            self.capture_floor.store(u64::MAX, Ordering::Release);
            return Ok(0);
        }
        // Phase 2: one append-lock acquisition, coalesced device writes.
        let ats = match wal.append_batch(&mut batch) {
            Ok(ats) => ats,
            Err(e) => {
                self.capture_floor.store(u64::MAX, Ordering::Release);
                return Err(BufferError::Wal(e));
            }
        };
        // Phase 3: stamp LSNs back. A frame re-keyed in between (its old
        // page was evicted — which wrote it back, making the home copy
        // current) is skipped; a frame written back but still resident
        // gets `page_lsn` only, so a later write-back still forces the
        // log far enough. Recycle safety for those skipped frames needs
        // no work here: `append_batch` registered a per-relation pin at
        // each image's start LSN for log-resident managers, so the
        // records outlive the frames regardless of what happened to
        // `rec_lsn` in the window.
        for ((idx, key), at) in sources.iter().zip(&ats) {
            let mut data = self.frames[*idx].data.write();
            if data.key == Some(*key) {
                data.stamp_logged(at);
            }
        }
        self.capture_floor.store(u64::MAX, Ordering::Release);
        Ok(ats.last().map_or(0, |at| at.end))
    }

    /// The checkpoint horizon contribution of this pool: the oldest
    /// `rec_lsn` among dirty frames, i.e. the log position replay must
    /// reach back to in order to reconstruct every dirty page. `None`
    /// when no dirty frame has a captured image (callers bound the
    /// horizon by a log position sampled *before* this scan: a capture
    /// racing past the scan lands at a higher LSN than that sample).
    pub fn dirty_horizon(&self) -> Option<Lsn> {
        let mut min: Option<Lsn> = None;
        for frame in &self.frames {
            let data = frame.data.read();
            if data.dirty && data.rec_lsn > 0 && min.is_none_or(|m| data.rec_lsn < m) {
                min = Some(data.rec_lsn);
            }
        }
        // An in-flight capture batch may have appended images whose
        // frames are not yet stamped; its floor bounds them all.
        let floor = self.capture_floor.load(Ordering::Acquire);
        if floor != u64::MAX {
            min = Some(min.map_or(floor, |m| m.min(floor)));
        }
        min
    }

    /// Write back every dirty page of `rel` (leaving them resident).
    pub fn flush_rel(&self, smgr: SmgrId, rel: RelFileId) -> Result<()> {
        self.flush(Wait::Block, false, |k| k.smgr == smgr && k.rel == rel).map(drop)
    }

    /// Write back every dirty page in the pool. Synchronous — the
    /// durability-critical forcing path (commit) stays a forced flush even
    /// when a background writer is draining the pool between commits.
    pub fn flush_all(&self) -> Result<()> {
        self.flush(Wait::Block, false, |_| true).map(drop)
    }

    /// Drop all of `rel`'s pages from the pool *without* writing them back
    /// (used by unlink). Pinned pages of other relations are untouched.
    pub fn discard_rel(&self, smgr: SmgrId, rel: RelFileId) {
        for shard in &self.shards {
            let mut table = shard.table.lock();
            let keys: Vec<PageKey> =
                table.map.keys().filter(|k| k.smgr == smgr && k.rel == rel).copied().collect();
            for key in keys {
                if let Some(idx) = table.map.remove(&key) {
                    // Withdraw `VALID` before touching the frame so a
                    // concurrent lock-free pin either landed first (and
                    // keeps reading the relation's last bytes, as any
                    // pre-discard pin would) or fails and finds the
                    // mapping gone. The frame itself may stay pinned;
                    // it only becomes a victim once those pins drop.
                    self.frames[idx].sync.clear_valid();
                    self.slot_remove(shard, &mut table, &key, idx);
                    let mut data = self.frames[idx].data.write();
                    data.key = None;
                    data.dirty = false;
                    data.reset_wal_state();
                    self.frames[idx].prefetched.store(false, Ordering::Relaxed);
                }
            }
        }
        self.readahead.lock().remove(&(smgr, rel));
    }

    // ---- background writer -----------------------------------------------

    /// Spawn a background-writer thread that wakes every `interval`,
    /// flushing dirty unpinned pages in batched elevator order so evictions
    /// mostly find clean victims and commit-path forcing finds little left
    /// to write. The returned handle stops and joins the thread on drop,
    /// after one final shutdown drain. Errors if the host refuses to spawn
    /// a thread (resource exhaustion) — the pool still works without one,
    /// so callers decide whether that is fatal.
    pub fn spawn_bgwriter(self: &Arc<Self>, interval: Duration) -> std::io::Result<BgWriter> {
        let stop = Arc::new(AtomicBool::new(false));
        let pool = Arc::clone(self);
        let flag = Arc::clone(&stop);
        let join = std::thread::Builder::new().name("bgwriter".into()).spawn(move || {
            while !flag.load(Ordering::Acquire) {
                // Capture pending page images every cycle so commits find
                // most of their redo already logged (and flushed) — the
                // commit path then appends only the residual tail plus its
                // commit record.
                if pool.capture_pending().is_err() {
                    obs::counter!("pool.bgwriter.capture_errors").add(1);
                }
                let flushed = pool.flush(Wait::Skip, true, |_| true).unwrap_or(0);
                pool.bgwriter_pages.fetch_add(flushed as u64, Ordering::Relaxed);
                pool.bgwriter_cycles.fetch_add(1, Ordering::Relaxed);
                // Sleep in short slices so shutdown stays responsive
                // even with a long interval.
                let mut slept = Duration::ZERO;
                while slept < interval && !flag.load(Ordering::Acquire) {
                    let slice = (interval - slept).min(Duration::from_millis(5));
                    std::thread::sleep(slice);
                    slept += slice;
                }
            }
            // Shutdown drain: one last batched pass.
            let flushed = pool.flush_dirty_batch();
            pool.bgwriter_pages.fetch_add(flushed as u64, Ordering::Relaxed);
        })?;
        Ok(BgWriter { stop, join: Some(join) })
    }

    // ---- statistics ------------------------------------------------------

    /// Pool statistics, aggregated over shards.
    pub fn stats(&self) -> PoolStats {
        let mut s = PoolStats {
            writebacks: self.writebacks.load(Ordering::Relaxed),
            prefetch_pages: self.prefetch_pages.load(Ordering::Relaxed),
            prefetch_hits: self.prefetch_hits.load(Ordering::Relaxed),
            bgwriter_pages: self.bgwriter_pages.load(Ordering::Relaxed),
            bgwriter_cycles: self.bgwriter_cycles.load(Ordering::Relaxed),
            ..PoolStats::default()
        };
        for shard in &self.shards {
            s.hits += shard.hits.load(Ordering::Relaxed);
            s.misses += shard.misses.load(Ordering::Relaxed);
            s.evictions += shard.evictions.load(Ordering::Relaxed);
        }
        s
    }

    /// Per-shard counters, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|sh| ShardStats {
                frames: sh.hi - sh.lo,
                hits: sh.hits.load(Ordering::Relaxed),
                misses: sh.misses.load(Ordering::Relaxed),
                evictions: sh.evictions.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Number of frames currently holding at least one pin. Diagnostic:
    /// stress tests assert this returns to zero once every handle drops.
    pub fn pinned_frames(&self) -> usize {
        self.frames.iter().filter(|f| f.sync.pin_count() != 0).count()
    }

    /// Zero the statistics counters.
    pub fn reset_stats(&self) {
        for shard in &self.shards {
            shard.hits.store(0, Ordering::Relaxed);
            shard.misses.store(0, Ordering::Relaxed);
            shard.evictions.store(0, Ordering::Relaxed);
        }
        self.writebacks.store(0, Ordering::Relaxed);
        self.prefetch_pages.store(0, Ordering::Relaxed);
        self.prefetch_hits.store(0, Ordering::Relaxed);
        self.bgwriter_pages.store(0, Ordering::Relaxed);
        self.bgwriter_cycles.store(0, Ordering::Relaxed);
    }
}

/// Handle to a running background-writer thread. Dropping it (or calling
/// [`BgWriter::stop`]) stops the thread after a final drain of dirty pages.
pub struct BgWriter {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl BgWriter {
    /// Stop and join the writer thread (idempotent).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(join) = self.join.take() {
            if join.join().is_err() {
                obs::counter!("pool.bgwriter.panics").add(1);
            }
        }
    }
}

impl Drop for BgWriter {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A pinned page: keeps its frame resident while alive.
pub struct PinnedPage<'a> {
    pool: &'a BufferPool,
    idx: usize,
}

impl PinnedPage<'_> {
    /// Shared access to the page image.
    pub fn read(&self) -> PageReadGuard<'_> {
        PageReadGuard { guard: self.pool.frames[self.idx].data.read() }
    }

    /// Exclusive access; the page is marked dirty (and flagged for
    /// capture into the redo log at the next commit).
    pub fn write(&self) -> PageWriteGuard<'_> {
        let mut guard = self.pool.frames[self.idx].data.write();
        guard.dirty = true;
        guard.log_pending = true;
        self.pool.note_pending(self.idx);
        PageWriteGuard { guard }
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
        &self.guard.page
    }
}

/// Exclusive guard over a pinned page's bytes.
pub struct PageWriteGuard<'a> {
    guard: RwLockWriteGuard<'a, FrameData>,
}

impl std::ops::Deref for PageWriteGuard<'_> {
    type Target = PageBuf;
    fn deref(&self) -> &PageBuf {
        &self.guard.page
    }
}

impl std::ops::DerefMut for PageWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut PageBuf {
        &mut self.guard.page
    }
}

/// Sanity: guards must not outlive sensibly; PAGE_SIZE consistency.
const _: () = assert!(PAGE_SIZE == 8192);

#[cfg(test)]
mod tests {
    use super::*;
    use pglo_sim::SimContext;
    use pglo_smgr::MemSmgr;

    fn setup(frames: usize) -> (Arc<SmgrSwitch>, SmgrId, BufferPool) {
        let sim = SimContext::default_1992();
        let switch = Arc::new(SmgrSwitch::new());
        let id = switch.register(Arc::new(MemSmgr::new(sim)));
        let pool = BufferPool::new(Arc::clone(&switch), frames);
        (switch, id, pool)
    }

    fn setup_opts(opts: PoolOptions) -> (Arc<SmgrSwitch>, SmgrId, BufferPool) {
        let sim = SimContext::default_1992();
        let switch = Arc::new(SmgrSwitch::new());
        let id = switch.register(Arc::new(MemSmgr::new(sim)));
        let pool = BufferPool::with_options(Arc::clone(&switch), opts);
        (switch, id, pool)
    }

    #[test]
    fn new_page_then_pin_roundtrip() {
        let (switch, id, pool) = setup(8);
        switch.get(id).unwrap().create(1).unwrap();
        let (block, page) = pool
            .new_page(id, 1, |p| {
                p[0] = 0x42;
            })
            .unwrap();
        assert_eq!(block, 0);
        assert_eq!(page.read()[0], 0x42);
        drop(page);
        let again = pool.pin(PageKey::new(id, 1, 0)).unwrap();
        assert_eq!(again.read()[0], 0x42);
        let stats = pool.stats();
        assert_eq!(stats.hits, 1, "second access must be a hit");
    }

    #[test]
    fn dirty_pages_written_back_on_eviction() {
        let (switch, id, pool) = setup(2);
        let smgr = switch.get(id).unwrap();
        smgr.create(1).unwrap();
        for _ in 0..4 {
            let (_, p) = pool.new_page(id, 1, |_| {}).unwrap();
            drop(p);
        }
        pool.flush_all().unwrap();
        // Dirty block 0, then pin two other pages simultaneously: with only
        // two frames, block 0's frame must be evicted (write-back caching
        // keeps dirty pages resident while clean victims exist, so real
        // pressure is needed).
        {
            let p = pool.pin(PageKey::new(id, 1, 0)).unwrap();
            p.write()[7] = 99;
        }
        let keep1 = pool.pin(PageKey::new(id, 1, 1)).unwrap();
        let keep2 = pool.pin(PageKey::new(id, 1, 2)).unwrap();
        // Read block 0 straight from the storage manager.
        let mut out = pglo_pages::alloc_page();
        smgr.read(1, 0, &mut out).unwrap();
        assert_eq!(out[7], 99, "eviction must write dirty pages back");
        assert!(pool.stats().writebacks >= 1);
        drop(keep1);
        drop(keep2);
    }

    #[test]
    fn flush_all_persists_without_eviction() {
        let (switch, id, pool) = setup(8);
        let smgr = switch.get(id).unwrap();
        smgr.create(1).unwrap();
        let (_, p) = pool.new_page(id, 1, |_| {}).unwrap();
        p.write()[3] = 7;
        drop(p);
        pool.flush_all().unwrap();
        let mut out = pglo_pages::alloc_page();
        smgr.read(1, 0, &mut out).unwrap();
        assert_eq!(out[3], 7);
    }

    #[test]
    fn pool_exhausted_when_all_pinned() {
        let (switch, id, pool) = setup(2);
        switch.get(id).unwrap().create(1).unwrap();
        let (_, _p0) = pool.new_page(id, 1, |_| {}).unwrap();
        let (_, _p1) = pool.new_page(id, 1, |_| {}).unwrap();
        let result = pool.new_page(id, 1, |_| {});
        assert!(
            matches!(result, Err(BufferError::PoolExhausted)),
            "expected PoolExhausted, got ok={}",
            result.is_ok()
        );
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let (switch, id, pool) = setup(3);
        switch.get(id).unwrap().create(1).unwrap();
        let (b0, keep) = pool
            .new_page(id, 1, |p| {
                p[0] = 0xEE;
            })
            .unwrap();
        for _ in 0..8 {
            let (_, p) = pool.new_page(id, 1, |_| {}).unwrap();
            drop(p);
        }
        assert_eq!(keep.read()[0], 0xEE, "pinned frame must not be evicted");
        drop(keep);
        let again = pool.pin(PageKey::new(id, 1, b0)).unwrap();
        assert_eq!(again.read()[0], 0xEE);
    }

    #[test]
    fn discard_rel_drops_dirty_pages() {
        let (switch, id, pool) = setup(4);
        let smgr = switch.get(id).unwrap();
        smgr.create(1).unwrap();
        let (_, p) = pool.new_page(id, 1, |_| {}).unwrap();
        p.write()[0] = 1;
        drop(p);
        pool.discard_rel(id, 1);
        // The dirty byte is gone: storage still has the extend-time image.
        let mut out = pglo_pages::alloc_page();
        smgr.read(1, 0, &mut out).unwrap();
        assert_eq!(out[0], 0);
    }

    #[test]
    fn hit_avoids_device_io() {
        let (switch, id, pool) = setup(4);
        let smgr = switch.get(id).unwrap();
        smgr.create(1).unwrap();
        let (_, p) = pool.new_page(id, 1, |_| {}).unwrap();
        drop(p);
        smgr.reset_io_stats();
        for _ in 0..10 {
            let p = pool.pin(PageKey::new(id, 1, 0)).unwrap();
            drop(p);
        }
        assert_eq!(smgr.io_stats().reads, 0, "hits must not touch the device");
        assert_eq!(pool.stats().hits, 10);
    }

    #[test]
    fn concurrent_pins_consistent() {
        let (switch, id, pool) = setup(16);
        switch.get(id).unwrap().create(1).unwrap();
        for i in 0..8u8 {
            let (_, p) = pool.new_page(id, 1, |pg| pg[0] = i).unwrap();
            drop(p);
        }
        let pool = Arc::new(pool);
        let mut handles = Vec::new();
        for t in 0..4 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for round in 0..50 {
                    let b = (t + round) % 8;
                    let p = pool.pin(PageKey::new(id, 1, b as u32)).unwrap();
                    assert_eq!(p.read()[0], b as u8);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn shard_count_clamped_for_tiny_pools() {
        let (_sw, _id, pool) = setup(2);
        assert_eq!(pool.shard_count(), 1, "2-frame pool collapses to one shard");
        let (_sw, _id, pool) = setup(256);
        assert_eq!(pool.shard_count(), DEFAULT_POOL_SHARDS);
        let (_sw, _id, pool) = setup_opts(PoolOptions {
            frames: 64,
            shards: 64,
            readahead_window: 0,
            readahead_gate_ns: 0,
        });
        assert_eq!(pool.shard_count(), 64 / MIN_SHARD_FRAMES);
    }

    #[test]
    fn shard_stats_sum_to_pool_stats() {
        let (switch, id, pool) = setup_opts(PoolOptions {
            frames: 64,
            shards: 4,
            readahead_window: 0,
            readahead_gate_ns: 0,
        });
        let smgr = switch.get(id).unwrap();
        smgr.create(1).unwrap();
        for _ in 0..32 {
            let (_, p) = pool.new_page(id, 1, |_| {}).unwrap();
            drop(p);
        }
        for b in 0..32 {
            drop(pool.pin(PageKey::new(id, 1, b)).unwrap());
        }
        let shards = pool.shard_stats();
        assert_eq!(shards.len(), 4);
        assert_eq!(shards.iter().map(|s| s.frames).sum::<usize>(), 64);
        let agg = pool.stats();
        assert_eq!(shards.iter().map(|s| s.hits).sum::<u64>(), agg.hits);
        assert_eq!(shards.iter().map(|s| s.misses).sum::<u64>(), agg.misses);
        assert_eq!(shards.iter().map(|s| s.evictions).sum::<u64>(), agg.evictions);
        assert_eq!(agg.hits, 32, "all 32 re-pins must hit");
        // Keys spread across shards (hash distribution sanity).
        assert!(shards.iter().filter(|s| s.hits > 0).count() >= 2);
    }

    #[test]
    fn sequential_hint_prefetches_window() {
        // Default latency gate: MemSmgr charges the NVRAM profile
        // (~82 µs/page on the simulated clock), so the gate must engage
        // on the scan's first misses and read-ahead must proceed.
        let (switch, id, pool) = setup_opts(PoolOptions {
            frames: 128,
            shards: 4,
            readahead_window: 16,
            readahead_gate_ns: DEFAULT_READAHEAD_GATE_NS,
        });
        let smgr = switch.get(id).unwrap();
        smgr.create(1).unwrap();
        for i in 0..64 {
            let (_, p) = pool.new_page(id, 1, |pg| pg[0] = i as u8).unwrap();
            drop(p);
        }
        pool.flush_all().unwrap();
        // Evict everything so the scan starts cold.
        pool.discard_rel(id, 1);
        smgr.reset_io_stats();
        pool.reset_stats();
        for b in 0..64u32 {
            let p = pool.pin_with_hint(PageKey::new(id, 1, b), AccessHint::Sequential).unwrap();
            assert_eq!(p.read()[0], b as u8);
        }
        let stats = pool.stats();
        assert!(stats.prefetch_pages > 0, "read-ahead must install pages: {stats:?}");
        assert!(stats.prefetch_hits > 0, "scan must consume prefetched pages: {stats:?}");
        // Gate warmup: the clamped seed needs two ⅛-step folds to cross
        // the threshold (b0..b2), and the disengaged early-return skips
        // the run tracker, so detection restarts at b3/b4 — the first
        // prefetched pin is b5. Everything after must hit.
        assert!(stats.misses <= 6, "nearly all pins after the run is detected must hit: {stats:?}");
        assert_eq!(stats.hits + stats.misses, 64);
        // The device saw batched reads, not one op per block.
        assert!(
            smgr.io_stats().reads < 64,
            "read_many must batch device ops, saw {}",
            smgr.io_stats().reads
        );
    }

    #[test]
    fn random_hint_never_prefetches() {
        let (switch, id, pool) = setup_opts(PoolOptions {
            frames: 64,
            shards: 2,
            readahead_window: 16,
            readahead_gate_ns: 0,
        });
        let smgr = switch.get(id).unwrap();
        smgr.create(1).unwrap();
        for _ in 0..32 {
            let (_, p) = pool.new_page(id, 1, |_| {}).unwrap();
            drop(p);
        }
        pool.flush_all().unwrap();
        pool.discard_rel(id, 1);
        pool.reset_stats();
        for b in 0..32u32 {
            drop(pool.pin(PageKey::new(id, 1, b)).unwrap());
        }
        let stats = pool.stats();
        assert_eq!(stats.prefetch_pages, 0);
        assert_eq!(stats.misses, 32);
    }

    #[test]
    fn prefetched_pages_never_clobber_dirty_data() {
        // A page dirtied between read-ahead planning and install must not
        // be overwritten by the stale device image: install-if-absent.
        let (switch, id, pool) = setup_opts(PoolOptions {
            frames: 64,
            shards: 1,
            readahead_window: 8,
            readahead_gate_ns: 0,
        });
        let smgr = switch.get(id).unwrap();
        smgr.create(1).unwrap();
        for _ in 0..16 {
            let (_, p) = pool.new_page(id, 1, |_| {}).unwrap();
            drop(p);
        }
        pool.flush_all().unwrap();
        // Dirty block 5 in the pool (not yet flushed).
        let p5 = pool.pin(PageKey::new(id, 1, 5)).unwrap();
        p5.write()[0] = 0xAB;
        drop(p5);
        // Sequential scan from 0 prefetches over block 5; resident pages
        // are skipped, so the dirty image survives.
        for b in 0..8u32 {
            let p = pool.pin_with_hint(PageKey::new(id, 1, b), AccessHint::Sequential).unwrap();
            if b == 5 {
                assert_eq!(p.read()[0], 0xAB, "dirty page must survive read-ahead");
            }
        }
    }

    #[test]
    fn bgwriter_cleans_dirty_pages() {
        let (switch, id, pool) = setup(16);
        let smgr = switch.get(id).unwrap();
        smgr.create(1).unwrap();
        let pool = Arc::new(pool);
        let mut bg = pool.spawn_bgwriter(Duration::from_millis(1)).unwrap();
        for i in 0..8 {
            let (_, p) = pool.new_page(id, 1, |pg| pg[0] = i as u8).unwrap();
            drop(p);
        }
        // Wait for the writer to drain everything.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let done = (0..8u32).all(|b| {
                let mut out = pglo_pages::alloc_page();
                smgr.read(1, b, &mut out).is_ok() && out[0] == b as u8
            });
            if done {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "bgwriter never flushed");
            std::thread::sleep(Duration::from_millis(2));
        }
        let stats = pool.stats();
        assert!(stats.bgwriter_pages >= 8, "writer must account its flushes: {stats:?}");
        assert!(stats.bgwriter_cycles >= 1);
        bg.stop();
    }

    #[test]
    fn bgwriter_drains_on_shutdown() {
        let (switch, id, pool) = setup(16);
        let smgr = switch.get(id).unwrap();
        smgr.create(1).unwrap();
        let pool = Arc::new(pool);
        // Long interval: the only flush chance is the shutdown drain.
        let mut bg = pool.spawn_bgwriter(Duration::from_secs(3600)).unwrap();
        // Give the thread its initial cycle before dirtying pages.
        std::thread::sleep(Duration::from_millis(20));
        let (b, p) = pool.new_page(id, 1, |pg| pg[0] = 0x5A).unwrap();
        drop(p);
        bg.stop();
        let mut out = pglo_pages::alloc_page();
        smgr.read(1, b, &mut out).unwrap();
        assert_eq!(out[0], 0x5A, "shutdown drain must flush dirty pages");
    }

    #[test]
    fn failed_writeback_keeps_pool_consistent() {
        // Eviction-time write-back of a dirty page the device refuses (a
        // burned WORM block) must propagate the error WITHOUT leaking a
        // pinned frame, losing the dirty page, or leaving a mapping that
        // points at another page's bytes.
        use pglo_smgr::WormSmgr;
        let sim = SimContext::default_1992();
        let switch = Arc::new(SmgrSwitch::new());
        let worm = Arc::new(WormSmgr::new(sim));
        let id = switch.register(Arc::clone(&worm) as _);
        let pool = BufferPool::with_options(
            Arc::clone(&switch),
            PoolOptions { frames: 2, shards: 1, readahead_window: 0, readahead_gate_ns: 0 },
        );
        switch.get(id).unwrap().create(1).unwrap();
        let (b0, p) = pool.new_page(id, 1, |pg| pg[0] = 1).unwrap();
        drop(p);
        let (b1, p) = pool.new_page(id, 1, |pg| pg[0] = 2).unwrap();
        drop(p);
        pool.flush_all().unwrap();
        worm.sync_all().unwrap(); // burn both blocks: further writes refuse
                                  // Re-dirty both resident pages: every unpinned frame now holds a
                                  // dirty page whose write-back must fail.
        for (b, v) in [(b0, 0xA1u8), (b1, 0xB2)] {
            let p = pool.pin(PageKey::new(id, 1, b)).unwrap();
            p.write()[1] = v;
        }
        // No clean victim can be produced: the allocation must surface the
        // device error, not PoolExhausted and not silent corruption.
        let err = pool.new_page(id, 1, |_| {});
        assert!(
            matches!(err, Err(BufferError::Smgr(SmgrError::WormOverwrite { .. }))),
            "burned-block write-back must propagate: got ok={}",
            err.is_ok()
        );
        // Repeatedly: if the failure path leaked its pin or its mapping,
        // later attempts would degrade to PoolExhausted or wrong pages.
        for _ in 0..3 {
            assert!(matches!(
                pool.new_page(id, 1, |_| {}),
                Err(BufferError::Smgr(SmgrError::WormOverwrite { .. }))
            ));
        }
        // The dirty pages survived, mapped and intact.
        for (b, v) in [(b0, 0xA1u8), (b1, 0xB2)] {
            let p = pool.pin(PageKey::new(id, 1, b)).unwrap();
            assert_eq!(p.read()[1], v, "dirty page must survive failed write-back");
        }
    }

    #[test]
    fn sequential_scan_races_append() {
        // A sequential scan's read-ahead window can run past EOF while a
        // writer is appending: the prefetcher may install a just-allocated
        // block before new_page claims it. new_page must re-own that frame
        // (the old code debug_assert-ed), and readers must always see the
        // init image, never the stale device image.
        let (switch, id, pool) = setup_opts(PoolOptions {
            frames: 128,
            shards: 4,
            readahead_window: 16,
            readahead_gate_ns: 0,
        });
        switch.get(id).unwrap().create(1).unwrap();
        for i in 0..8u32 {
            let (_, p) =
                pool.new_page(id, 1, |pg| pg[..4].copy_from_slice(&i.to_le_bytes())).unwrap();
            drop(p);
        }
        pool.flush_all().unwrap();
        let pool = Arc::new(pool);
        let writer = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                for _ in 8..512u32 {
                    let (b, p) = pool
                        .new_page(id, 1, |pg| {
                            pg[..4].copy_from_slice(&u32::MAX.to_le_bytes());
                        })
                        .unwrap();
                    p.write()[..4].copy_from_slice(&b.to_le_bytes());
                }
            })
        };
        let scanner = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                for round in 0..4 {
                    for b in 0..(128 + round * 96) {
                        let key = PageKey::new(id, 1, b);
                        let Ok(p) = pool.pin_with_hint(key, AccessHint::Sequential) else {
                            continue; // scanned past current EOF
                        };
                        let got = u32::from_le_bytes(p.read()[..4].try_into().unwrap());
                        // Racing an append, a block may transiently show
                        // the fresh device image (0) or the init image
                        // (u32::MAX) until the appender's first write
                        // lands — but never ANOTHER block's number, which
                        // would mean a mapping pointed at foreign bytes.
                        assert!(
                            got == b || got == u32::MAX || got == 0,
                            "block {b} holds foreign image {got}"
                        );
                    }
                }
            })
        };
        writer.join().unwrap();
        scanner.join().unwrap();
        for b in 0..512u32 {
            let p = pool.pin(PageKey::new(id, 1, b)).unwrap();
            let got = u32::from_le_bytes(p.read()[..4].try_into().unwrap());
            assert_eq!(got, b, "appended block must keep its final image");
        }
    }

    #[test]
    fn concurrent_shard_stress_stats_add_up() {
        // The satellite stress test: many threads pinning/unpinning across
        // shards under eviction pressure. Asserts termination (no
        // deadlock), hits + misses == pins, and that pinned pages survive.
        let (switch, id, pool) = setup_opts(PoolOptions {
            frames: 64,
            shards: 4,
            readahead_window: 0,
            readahead_gate_ns: 0,
        });
        let smgr = switch.get(id).unwrap();
        smgr.create(1).unwrap();
        const BLOCKS: u32 = 256; // 4x the pool: constant eviction pressure
        for i in 0..BLOCKS {
            let (_, p) =
                pool.new_page(id, 1, |pg| pg[..4].copy_from_slice(&i.to_le_bytes())).unwrap();
            drop(p);
        }
        pool.flush_all().unwrap();
        pool.reset_stats();
        let pool = Arc::new(pool);
        // Hold a few pins with sentinel writes for the duration.
        let sentinels: Vec<_> = (0..4u32)
            .map(|i| {
                let p = pool.pin(PageKey::new(id, 1, i * 37)).unwrap();
                p.write()[4] = 0xC0 + i as u8;
                p
            })
            .collect();
        const THREADS: u64 = 8;
        const PINS_PER_THREAD: u64 = 500;
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                // Deterministic pseudo-random walk, distinct per thread.
                let mut x = t * 2654435761 + 12345;
                for _ in 0..PINS_PER_THREAD {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let b = ((x >> 33) % BLOCKS as u64) as u32;
                    let p = pool.pin(PageKey::new(id, 1, b)).unwrap();
                    let got = u32::from_le_bytes(p.read()[..4].try_into().unwrap());
                    assert_eq!(got, b, "frame content must match its key");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Sentinel pins never got evicted.
        for (i, p) in sentinels.iter().enumerate() {
            assert_eq!(p.read()[4], 0xC0 + i as u8, "pinned page {i} must survive pressure");
        }
        drop(sentinels);
        let stats = pool.stats();
        let shards = pool.shard_stats();
        assert_eq!(
            stats.hits + stats.misses,
            THREADS * PINS_PER_THREAD + 4, // + the 4 sentinel pins
            "every pin is exactly one hit or one miss: {stats:?}"
        );
        assert_eq!(
            shards.iter().map(|s| s.hits + s.misses).sum::<u64>(),
            stats.hits + stats.misses
        );
        assert!(stats.evictions > 0, "walk over 4x the pool must evict");
        assert!(
            shards.iter().filter(|s| s.misses > 0).count() >= 2,
            "load must spread over shards"
        );
    }

    #[test]
    fn pending_chain_drains_and_rebuilds() {
        let (switch, id, pool) = setup(8);
        switch.get(id).unwrap().create(1).unwrap();
        let dir = tempfile::tempdir().unwrap();
        let wal =
            Arc::new(pglo_wal::Wal::open(dir.path(), pglo_wal::WalOptions::default()).unwrap());
        assert!(pool.set_wal(Arc::clone(&wal)));
        // Three new pages chain three frames; re-dirtying one of them
        // must not chain it twice.
        let mut keys = Vec::new();
        for _ in 0..3 {
            let (block, p) = pool.new_page(id, 1, |_| {}).unwrap();
            keys.push(PageKey::new(id, 1, block));
            drop(p);
        }
        let p = pool.pin(keys[0]).unwrap();
        p.write()[0] = 1;
        drop(p);
        assert_eq!(pool.capture_backlog(), 3);
        let end = pool.capture_pending().unwrap();
        assert!(end > 0, "capture must log the chained images");
        assert_eq!(pool.capture_backlog(), 0);
        assert_eq!(pool.capture_pending().unwrap(), 0, "chain drained");
        // A captured frame re-dirtied after the drain chains again and a
        // second capture logs a fresh image past the first.
        let p = pool.pin(keys[1]).unwrap();
        p.write()[0] = 2;
        drop(p);
        assert_eq!(pool.capture_backlog(), 1);
        let end2 = pool.capture_pending().unwrap();
        assert!(end2 > end, "second capture must append past the first");
    }

    /// A device that notes, at each home write, how far the redo log was
    /// durable at that moment.
    struct LogWatchSmgr {
        inner: MemSmgr,
        wal: Arc<Wal>,
        /// `(block, flushed LSN when the write arrived)`.
        writes: Mutex<Vec<(u32, Lsn)>>,
    }

    impl pglo_smgr::StorageManager for LogWatchSmgr {
        fn name(&self) -> &str {
            "log_watch"
        }
        fn create(&self, rel: RelFileId) -> pglo_smgr::Result<()> {
            self.inner.create(rel)
        }
        fn exists(&self, rel: RelFileId) -> bool {
            self.inner.exists(rel)
        }
        fn unlink(&self, rel: RelFileId) -> pglo_smgr::Result<()> {
            self.inner.unlink(rel)
        }
        fn nblocks(&self, rel: RelFileId) -> pglo_smgr::Result<u32> {
            self.inner.nblocks(rel)
        }
        fn extend(&self, rel: RelFileId, page: &PageBuf) -> pglo_smgr::Result<u32> {
            self.inner.extend(rel, page)
        }
        fn allocate(&self, rel: RelFileId) -> pglo_smgr::Result<u32> {
            self.inner.allocate(rel)
        }
        fn read(&self, rel: RelFileId, block: u32, out: &mut PageBuf) -> pglo_smgr::Result<()> {
            self.inner.read(rel, block, out)
        }
        fn write(&self, rel: RelFileId, block: u32, page: &PageBuf) -> pglo_smgr::Result<()> {
            self.writes.lock().push((block, self.wal.flushed_lsn()));
            self.inner.write(rel, block, page)
        }
        fn sync(&self, rel: RelFileId) -> pglo_smgr::Result<()> {
            self.inner.sync(rel)
        }
        fn io_stats(&self) -> pglo_sim::stats::IoSnapshot {
            self.inner.io_stats()
        }
        fn reset_io_stats(&self) {
            self.inner.reset_io_stats()
        }
    }

    /// A dirty frame whose delta was never captured must not go home
    /// silently: eviction, the forced flush and the skipping flush all log
    /// the image first and have it durable by the time the device sees the
    /// page, so replay can always reconstruct what the home location holds.
    #[test]
    fn write_back_logs_pending_image_first() {
        let dir = tempfile::tempdir().unwrap();
        let wal =
            Arc::new(pglo_wal::Wal::open(dir.path(), pglo_wal::WalOptions::default()).unwrap());
        let watch = Arc::new(LogWatchSmgr {
            inner: MemSmgr::new(SimContext::default_1992()),
            wal: Arc::clone(&wal),
            writes: Mutex::new(Vec::new()),
        });
        let switch = Arc::new(SmgrSwitch::new());
        let id = switch.register(Arc::clone(&watch) as _);
        let pool = BufferPool::new(Arc::clone(&switch), 2);
        assert!(pool.set_wal(Arc::clone(&wal)));
        let smgr = switch.get(id).unwrap();
        smgr.create(1).unwrap();
        for _ in 0..4 {
            let (_, p) = pool.new_page(id, 1, |_| {}).unwrap();
            drop(p);
        }
        pool.capture_pending().unwrap();
        pool.flush_all().unwrap();
        // Each path dirties one block — `log_pending` set, no capture
        // runs — and then drives it home in its own wait mode.
        type Path<'a> = (&'a str, u32, usize, &'a dyn Fn(&BufferPool));
        let paths: [Path<'_>; 3] = [
            // Blocking, through `claim_frame`: two simultaneous pins in a
            // two-frame pool force the dirty frame out.
            ("eviction", 0, 7, &|pool| {
                let _keep1 = pool.pin(PageKey::new(id, 1, 1)).unwrap();
                let _keep2 = pool.pin(PageKey::new(id, 1, 2)).unwrap();
            }),
            ("flush_all", 3, 9, &|pool| pool.flush_all().unwrap()),
            ("flush_dirty_batch", 1, 11, &|pool| assert_eq!(pool.flush_dirty_batch(), 1)),
        ];
        for (path, block, at, drive) in paths {
            {
                let p = pool.pin(PageKey::new(id, 1, block)).unwrap();
                p.write()[at] = 99;
            }
            let mark = wal.end_lsn();
            watch.writes.lock().clear();
            drive(&pool);
            // Nothing else appends, so the log now ends with the image.
            let image_end = wal.end_lsn();
            assert!(image_end > mark, "{path} of a never-captured frame must log its image");
            let durable_at_write =
                watch.writes.lock().iter().find(|(b, _)| *b == block).map(|w| w.1);
            assert!(
                durable_at_write.is_some_and(|durable| durable >= image_end),
                "{path}: image must be durable before the home write, saw {durable_at_write:?} \
                 for an image ending at {image_end}"
            );
            let mut out = pglo_pages::alloc_page();
            smgr.read(1, block, &mut out).unwrap();
            assert_eq!(out[at], 99, "{path} must still write the page home");
        }
        // Every image is in the log with the bytes that went home.
        drop((pool, smgr, switch, watch, wal));
        let wal =
            Arc::new(pglo_wal::Wal::open(dir.path(), pglo_wal::WalOptions::default()).unwrap());
        let mut logged: Vec<Option<Box<PageBuf>>> = vec![None; 4];
        wal.replay(|_, rec| {
            if let pglo_wal::WalRecord::PageImage { rel: 1, block, image, .. } = rec {
                logged[block as usize] = Some(image);
            }
            Ok(())
        })
        .unwrap();
        for (path, block, at, _) in paths {
            let image = logged[block as usize].as_ref();
            assert_eq!(image.map(|i| i[at]), Some(99), "{path} delta must be replayable");
        }
    }

    /// Skip mode never parks the flusher: a frame someone holds latched is
    /// passed over and stays dirty, the rest of the batch goes home.
    #[test]
    fn skip_mode_never_blocks_on_a_held_latch() {
        let (switch, id, pool) = setup(8);
        let smgr = switch.get(id).unwrap();
        smgr.create(1).unwrap();
        for i in 0..4u8 {
            let (_, p) = pool.new_page(id, 1, |pg| pg[0] = i + 1).unwrap();
            drop(p);
        }
        let pool = Arc::new(pool);
        let flush_elsewhere = || {
            let (tx, rx) = std::sync::mpsc::channel();
            let pool = Arc::clone(&pool);
            let flusher = std::thread::spawn(move || tx.send(pool.flush_dirty_batch()));
            let written = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("skip mode must return while the latch is still held");
            flusher.join().unwrap().unwrap();
            written
        };
        let home = |block: u32| {
            let mut out = pglo_pages::alloc_page();
            smgr.read(1, block, &mut out).unwrap();
            out[0]
        };
        // A pinned page under its writer's guard: the walk passes it over.
        let held = pool.pin(PageKey::new(id, 1, 0)).unwrap();
        let guard = held.write();
        assert_eq!(flush_elsewhere(), 3, "the three free frames go home");
        drop(guard);
        drop(held);
        assert_eq!((home(0), home(1), home(2), home(3)), (0, 2, 3, 4));
        // An unpinned frame under a reader's latch: the walk lists it (a
        // shared latch lets the peek through) and the write-back's
        // try-latch gives up on it.
        let key = PageKey::new(id, 1, 0);
        let idx = pool.shard_of(&key).table.lock().map[&key];
        let reader = pool.frames[idx].data.read();
        assert_eq!(flush_elsewhere(), 0, "the one dirty frame is latched");
        assert!(reader.dirty, "a skipped frame stays dirty");
        drop(reader);
        assert_eq!(pool.flush_dirty_batch(), 1);
        assert_eq!(home(0), 1);
    }

    /// The latency gate keeps the window shut when the configured
    /// threshold sits above what the device delivers, and opens it when
    /// the threshold sits below — deterministic via the simulated clock
    /// (MemSmgr charges ~82 µs per 8 KB page).
    #[test]
    fn readahead_gate_follows_observed_latency() {
        let scan = |gate_ns: u64| {
            let (switch, id, pool) = setup_opts(PoolOptions {
                frames: 128,
                shards: 4,
                readahead_window: 16,
                readahead_gate_ns: gate_ns,
            });
            let smgr = switch.get(id).unwrap();
            smgr.create(1).unwrap();
            for _ in 0..64 {
                let (_, p) = pool.new_page(id, 1, |_| {}).unwrap();
                drop(p);
            }
            pool.flush_all().unwrap();
            pool.discard_rel(id, 1);
            pool.reset_stats();
            for b in 0..64u32 {
                drop(pool.pin_with_hint(PageKey::new(id, 1, b), AccessHint::Sequential).unwrap());
            }
            (pool.stats(), pool.readahead_engaged(), pool.read_latency_ewma_ns())
        };
        // Gate far above the simulated latency: never engages.
        let (stats, engaged, ewma) = scan(10_000_000_000);
        assert!(!engaged, "82 µs reads must not clear a 10 s gate (ewma {ewma})");
        assert_eq!(stats.prefetch_pages, 0, "closed gate must suppress read-ahead: {stats:?}");
        assert_eq!(stats.hits, 0, "no read-ahead, no hits on a cold scan: {stats:?}");
        // Gate below it: engages on the first miss, read-ahead proceeds.
        let (stats, engaged, ewma) = scan(1_000);
        assert!(engaged, "82 µs reads must clear a 1 µs gate (ewma {ewma})");
        assert!(stats.prefetch_pages > 0, "open gate must read ahead: {stats:?}");
        assert!(ewma >= 1_000, "EWMA must reflect the simulated device: {ewma}");
    }

    /// Heavy re-key churn through a tiny shard exercises slot-array
    /// tombstoning and rebuild; pins must stay correct throughout.
    #[test]
    fn slot_index_survives_rekey_churn() {
        let (switch, id, pool) = setup_opts(PoolOptions {
            frames: 8,
            shards: 1,
            readahead_window: 0,
            readahead_gate_ns: 0,
        });
        let smgr = switch.get(id).unwrap();
        smgr.create(1).unwrap();
        const BLOCKS: u32 = 64;
        for i in 0..BLOCKS {
            let (_, p) =
                pool.new_page(id, 1, |pg| pg[..4].copy_from_slice(&i.to_le_bytes())).unwrap();
            drop(p);
        }
        pool.flush_all().unwrap();
        // Several full rotations over 8× the pool: every pin evicts, so
        // every pin removes and inserts a slot entry, driving tombstones
        // past the rebuild threshold many times over.
        for round in 0..8u32 {
            for b in 0..BLOCKS {
                let b = (b + round * 17) % BLOCKS;
                let p = pool.pin(PageKey::new(id, 1, b)).unwrap();
                let got = u32::from_le_bytes(p.read()[..4].try_into().unwrap());
                assert_eq!(got, b, "churned frame must hold its key's bytes");
            }
        }
        // And re-pins of now-resident pages still hit.
        pool.reset_stats();
        let resident: Vec<u32> = (0..BLOCKS)
            .filter(|&b| {
                let key = PageKey::new(id, 1, b);
                let shard = pool.shard_of(&key);
                let table = shard.table.lock();
                table.map.contains_key(&key)
            })
            .collect();
        for &b in &resident {
            drop(pool.pin(PageKey::new(id, 1, b)).unwrap());
        }
        assert_eq!(pool.stats().hits, resident.len() as u64, "resident pages must all hit");
        assert_eq!(pool.pinned_frames(), 0);
    }
}
