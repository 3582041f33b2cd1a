//! The buffer pool's lock-free protocol kernels, extracted onto the `loom`
//! facade so the model checker can explore them exhaustively.
//!
//! Three protocols live here, each a plain data structure with no pool
//! dependencies so a model test can drive it with a handful of tasks:
//!
//! - [`FrameState`] — the pin-count + `VALID` state word and the published
//!   key pair (`pub_rel`/`pub_sb`) behind the zero-lock hit path's
//!   pin/revalidate dance and the retire-for-re-key CAS.
//! - [`SlotArray`] — the page table: linear probing over `frame index + 1`
//!   values, written under the table lock and read without it as hints.
//! - [`PendingQueue`]/[`PendingLink`] — the Treiber-style pending-capture
//!   chain commits steal wholesale before logging page images.
//!
//! In a normal build the `loom` facade re-exports `std::sync::atomic`, so
//! this module is exactly the code that shipped before the extraction; under
//! the model feature every access becomes a scheduling/visibility point.
//! The per-field required orderings are tabulated in DESIGN.md
//! ("Memory ordering", the `atomics-protocol` block) and enforced by
//! pglo-lint rule R11.

use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Bit 32 of [`FrameState`]'s word: the frame's image is installed and its
/// published key vouches for it.
pub const FRAME_VALID: u64 = 1 << 32;
/// Low 32 bits of [`FrameState`]'s word: the pin count.
pub const FRAME_PIN_MASK: u64 = FRAME_VALID - 1;

/// Pin count (low 32 bits) and the `VALID` flag (bit 32) in ONE atomic
/// word, so "pin if valid" and "retire if unpinned" are both single CASes
/// on the same location and totally ordered against each other. Two
/// separate atomics would re-create the classic store-buffer litmus: a
/// pinner could increment the count while loading a stale `valid=true` at
/// the same instant a retirer clears `valid` while loading a stale
/// `pins=0`, and both would proceed.
///
/// `VALID` means: the frame holds an installed page image and the published
/// key fields identify it, so a lock-free pinner may trust the bytes
/// without any lock. It is cleared only by a CAS that simultaneously
/// observes `pins == 0` (retiring for a re-key) or under the exclusive
/// paths that own the frame. While a pin is held `VALID` cannot fall, which
/// is what freezes the published key for post-pin revalidation.
pub struct FrameState {
    state: AtomicU64,
    /// Published copy of the key's relation id for lock-free revalidation.
    /// Written only while `VALID` is clear (so a successful pin CAS proves
    /// these fields are frozen); made visible by the `Release` that sets
    /// `VALID` — the pin CAS extends that release sequence, so `Relaxed`
    /// here is sound (proved by the publish/revalidate model test and
    /// argued in DESIGN.md "Memory ordering").
    pub_rel: AtomicU64,
    /// Published `(smgr << 32) | block` companion to `pub_rel`.
    pub_sb: AtomicU64,
}

impl Default for FrameState {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameState {
    pub fn new() -> Self {
        FrameState {
            state: AtomicU64::new(0),
            pub_rel: AtomicU64::new(0),
            pub_sb: AtomicU64::new(0),
        }
    }

    pub fn pin_count(&self) -> u32 {
        (self.state.load(Ordering::Acquire) & FRAME_PIN_MASK) as u32
    }

    pub fn is_valid(&self) -> bool {
        self.state.load(Ordering::Acquire) & FRAME_VALID != 0
    }

    /// Raise the pin count without requiring `VALID`. Only callers holding
    /// the page-table lock (or an existing pin, for the
    /// write-back re-pin) may use this: the table lock is what keeps a
    /// concurrent retire-for-re-key from racing the unconditional
    /// increment, since retires happen under that lock too.
    pub fn pin_unconditional(&self) {
        self.state.fetch_add(1, Ordering::AcqRel);
    }

    pub fn unpin(&self) {
        self.state.fetch_sub(1, Ordering::AcqRel);
    }

    /// The lock-free pin: CAS-increment the pin count *only while* `VALID`
    /// is set, in one RMW. Success means the published key was frozen at
    /// the moment the pin landed (no retire can clear `VALID` past a
    /// nonzero count), so the caller's key re-check is stable. Returns
    /// `(pinned, cas_retries)`; gives up after a bounded number of
    /// contended retries so the fast path never spins unboundedly.
    pub fn try_pin_valid(&self) -> (bool, u32) {
        let mut retries = 0u32;
        let mut s = self.state.load(Ordering::Acquire);
        loop {
            if s & FRAME_VALID == 0 {
                return (false, retries);
            }
            match self.state.compare_exchange_weak(s, s + 1, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return (true, retries),
                Err(cur) => {
                    retries += 1;
                    if retries >= 16 {
                        return (false, retries);
                    }
                    s = cur;
                }
            }
        }
    }

    /// Publish the frame as installed. `Release` so a pinner whose CAS
    /// observes `VALID` also observes the published key written before.
    pub fn set_valid(&self) {
        self.state.fetch_or(FRAME_VALID, Ordering::Release);
    }

    /// Withdraw `VALID` unconditionally. Only for paths that own the frame
    /// outright (failed load with the pin still held, discard of the
    /// mapped relation) — re-keying must go through
    /// [`FrameState::try_retire`] instead.
    pub fn clear_valid(&self) {
        self.state.fetch_and(!FRAME_VALID, Ordering::AcqRel);
    }

    /// Atomically retire the frame for a re-key: clear `VALID` while the
    /// pin count is exactly zero. Fails (`None`) if a pin is held — a
    /// lock-free pinner got there first and the caller must pick another
    /// victim. On success returns whether `VALID` was set beforehand, so a
    /// caller that bails out afterwards knows whether to restore it.
    /// Caller must hold the page-table lock: that is what keeps
    /// slow-path unconditional pins (which don't check `VALID`) from
    /// racing this, while fast-path pins are excluded by the CAS itself.
    pub fn try_retire(&self) -> Option<bool> {
        let mut s = self.state.load(Ordering::Acquire);
        loop {
            if s & FRAME_PIN_MASK != 0 {
                return None;
            }
            if s & FRAME_VALID == 0 {
                return Some(false);
            }
            match self.state.compare_exchange_weak(
                s,
                s & !FRAME_VALID,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(true),
                Err(cur) => s = cur,
            }
        }
    }

    /// Publish `(rel, sb)` for lock-free revalidation. Only while `VALID`
    /// is clear and under the frame's write latch (the retire/install
    /// protocol), so no lock-free pinner can be mid-validation against a
    /// half-written pair: a *successful* pin proves `VALID` was set, which
    /// proves these stores are complete and frozen.
    pub fn publish(&self, rel: u64, sb: u64) {
        self.pub_rel.store(rel, Ordering::Relaxed);
        self.pub_sb.store(sb, Ordering::Relaxed);
    }

    /// The published `(rel, sb)` pair. Only meaningful while the caller
    /// holds a pin taken by [`FrameState::try_pin_valid`] (frozen fields)
    /// or the page-table lock (every publish happens under it); otherwise
    /// a cheap advisory read whose staleness the post-pin re-check catches.
    pub fn published(&self) -> (u64, u64) {
        (self.pub_rel.load(Ordering::Relaxed), self.pub_sb.load(Ordering::Relaxed))
    }

    /// Whether the published pair equals `(rel, sb)`; see
    /// [`FrameState::published`] for when the answer can be trusted.
    pub fn matches(&self, rel: u64, sb: u64) -> bool {
        self.published() == (rel, sb)
    }
}

/// Slot-array sentinel: unoccupied. Ends every probe chain.
pub const SLOT_EMPTY: usize = 0;
/// Probe-length bound for lock-free slot lookups; past this the pinner
/// gives up and takes the authoritative locked path. Bounds fast-path
/// latency under pathological clustering without affecting correctness.
pub const SLOT_PROBE_LIMIT: usize = 32;

/// The page table: an open-addressed, linearly probed array of
/// `frame index + 1` values ([`SLOT_EMPTY`] = none), power-of-two sized at
/// ≥ 2× the pool's frames so load factor stays ≤ ½. A slot holds no key:
/// the key a frame is mapped under is the one the frame publishes
/// ([`FrameState::publish`]), and a lookup compares the two. Mutated only
/// while holding the table lock, under which a [`SlotArray::probe`] is
/// exact; without it slot values are pure *hints*: every lookup is
/// validated against the frame's own [`FrameState`], so a racing reader
/// that sees a stale or torn slot, or a chain mid-[`SlotArray::remove`],
/// at worst falls back to the locked path, never returns wrong bytes.
pub struct SlotArray {
    slots: Vec<AtomicUsize>,
    /// `slots.len() - 1` (power-of-two mask).
    mask: usize,
}

impl SlotArray {
    /// `len` must be a power of two.
    pub fn new(len: usize) -> Self {
        debug_assert!(len.is_power_of_two());
        SlotArray { slots: (0..len).map(|_| AtomicUsize::new(SLOT_EMPTY)).collect(), mask: len - 1 }
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Map frame `idx` at the end of the chain from `start`; caller holds
    /// the table lock.
    pub fn insert(&self, start: usize, idx: usize) {
        let mut i = start & self.mask;
        while self.slots[i].load(Ordering::Relaxed) != SLOT_EMPTY {
            i = (i + 1) & self.mask;
        }
        self.slots[i].store(idx + 1, Ordering::Relaxed);
    }

    /// Unmap frame `idx` from the chain from `start`, returning whether it
    /// was on it; caller holds the table lock. No tombstone is left: the
    /// entries after the hole move back into it, each unless that would
    /// put it before its own chain's start, `start_of(frame)` (deletion
    /// with linear probing, Knuth 6.4 algorithm R), so chains stay as
    /// short as insertion made them and an empty slot still ends one.
    pub fn remove(&self, start: usize, idx: usize, start_of: impl Fn(usize) -> usize) -> bool {
        let mut hole = start & self.mask;
        loop {
            let v = self.slots[hole].load(Ordering::Relaxed);
            if v == idx + 1 {
                break;
            }
            if v == SLOT_EMPTY {
                return false;
            }
            hole = (hole + 1) & self.mask;
        }
        let mut j = hole;
        loop {
            j = (j + 1) & self.mask;
            let v = self.slots[j].load(Ordering::Relaxed);
            if v == SLOT_EMPTY {
                break;
            }
            // The entry stays if its chain starts cyclically within
            // (hole, j]: moved to the hole, a probe for it would stop
            // short.
            let home = start_of(v - 1) & self.mask;
            let stays = if hole <= j { hole < home && home <= j } else { hole < home || home <= j };
            if !stays {
                self.slots[hole].store(v, Ordering::Relaxed);
                hole = j;
            }
        }
        self.slots[hole].store(SLOT_EMPTY, Ordering::Relaxed);
        true
    }

    /// Walk the chain from `start`, offering its slots to `f` as frame
    /// indices until it returns `Some`, the chain ends at an empty slot,
    /// or `limit` slots were visited. Under the table lock, with
    /// `limit = len()`, the walk is exact; lock-free callers pass
    /// [`SLOT_PROBE_LIMIT`] and treat what they are offered as hints.
    pub fn probe<R>(
        &self,
        start: usize,
        limit: usize,
        mut f: impl FnMut(usize) -> Option<R>,
    ) -> Option<R> {
        let mut i = start & self.mask;
        for _ in 0..limit.min(self.slots.len()) {
            let v = self.slots[i].load(Ordering::Relaxed);
            if v == SLOT_EMPTY {
                return None;
            }
            if let Some(r) = f(v - 1) {
                return Some(r);
            }
            i = (i + 1) & self.mask;
        }
        None
    }
}

/// Per-frame intrusive link for the pending-capture chain.
pub struct PendingLink {
    /// Next frame index in the chain (`usize::MAX` = end). Only meaningful
    /// while `queued` is set.
    next: AtomicUsize,
    /// True while this frame sits on the pending-capture chain. Pushers
    /// transition false→true (so a frame is chained at most once); a
    /// capture clears it after consuming the chain. Chain links are stable
    /// while `queued` holds, which is what lets a capture walk a stolen
    /// chain without locks.
    queued: AtomicBool,
}

impl Default for PendingLink {
    fn default() -> Self {
        Self::new()
    }
}

impl PendingLink {
    pub fn new() -> Self {
        PendingLink { next: AtomicUsize::new(usize::MAX), queued: AtomicBool::new(false) }
    }

    /// Take the frame off the chain after a steal. From here on a writer
    /// re-dirtying the frame chains it again for the *next* capture.
    pub fn release(&self) {
        self.queued.store(false, Ordering::Release);
    }
}

/// The Treiber-style pending-capture stack: commits push dirtied frames,
/// captures steal the whole chain with one `swap` and walk it lock-free
/// (link stability is guaranteed by `queued`, see [`PendingLink`]).
pub struct PendingQueue {
    head: AtomicUsize,
}

impl Default for PendingQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl PendingQueue {
    pub fn new() -> Self {
        PendingQueue { head: AtomicUsize::new(usize::MAX) }
    }

    /// Chain frame `idx` unless it is already chained. Returns whether the
    /// frame was newly pushed.
    pub fn push(&self, idx: usize, link: &PendingLink) -> bool {
        if link.queued.compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire).is_err() {
            return false;
        }
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            link.next.store(head, Ordering::Release);
            match self.head.compare_exchange_weak(head, idx, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return true,
                Err(h) => head = h,
            }
        }
    }

    /// Whether the chain is empty right now (advisory fast-path check).
    pub fn is_empty_fast(&self) -> bool {
        self.head.load(Ordering::Acquire) == usize::MAX
    }

    /// Steal the whole chain and walk it into a vector of frame indices
    /// (push order reversed). Everything flagged before this point belongs
    /// to the caller; frames flagged afterwards start a fresh chain. The
    /// walk happens *before* any [`PendingLink::release`]: while `queued`
    /// holds, no frame can be re-chained, so the links are stable.
    pub fn steal<'a>(&self, link_of: impl Fn(usize) -> &'a PendingLink) -> Vec<usize> {
        let mut cursor = self.head.swap(usize::MAX, Ordering::AcqRel);
        let mut indices = Vec::new();
        while cursor != usize::MAX {
            indices.push(cursor);
            cursor = link_of(cursor).next.load(Ordering::Acquire);
        }
        indices
    }
}
