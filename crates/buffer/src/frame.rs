//! Frames and the page table: lookup, map and unmap over the slot array,
//! the clock sweep, and the one re-key and one install by which a frame
//! changes its page.

use super::*;

/// What a pending frame's next record is diffed against.
pub(super) enum Baseline {
    /// Unknown: log the whole page. Held whenever the frame is not
    /// pending, so baselines cost memory only in the capture backlog.
    Whole,
    /// A `new_page` block, all zeros at home (or past its end).
    Zero,
    /// The page's bytes at its last record, which are also its home
    /// bytes when it was last clean.
    Bytes(Box<PageBuf>),
}

static ZERO_PAGE: PageBuf = [0; PAGE_SIZE];

pub(super) struct FrameData {
    pub(super) key: Option<PageKey>,
    /// `None` until the frame's first install gives it a page (see
    /// [`BufferPool::frame_page`]); kept from then on, across re-keys.
    pub(super) page: Option<Box<PageBuf>>,
    pub(super) dirty: bool,
    /// WAL position just past the last record logged for this frame
    /// (0 = never logged). Write-back forces the log here first.
    pub(super) page_lsn: Lsn,
    /// WAL position of the earliest logged record whose page has not yet
    /// reached its home location (0 = none). Replay after a crash must
    /// start at or before the minimum over dirty frames — that minimum
    /// is the checkpoint horizon.
    pub(super) rec_lsn: Lsn,
    /// Dirtied since the last capture: the next commit must log this
    /// frame's changes before its commit record.
    pub(super) log_pending: bool,
    /// What the pending changes are diffed against; see [`Baseline`].
    pub(super) baseline: Baseline,
    /// Encoded by a capture batch whose record is not in the log yet: a
    /// write-back waits behind the capture mutex, or home would hold
    /// bytes no record explains.
    pub(super) capturing: bool,
}

impl FrameData {
    /// The frame's page image. A frame without a page was never
    /// installed, so it holds no key and no pin can reach it; it reads
    /// as zeros.
    pub(super) fn page(&self) -> &PageBuf {
        self.page.as_deref().unwrap_or(&ZERO_PAGE)
    }

    /// Reset WAL bookkeeping when the frame starts holding a freshly
    /// loaded (clean, device-backed) page image.
    pub(super) fn reset_wal_state(&mut self) {
        self.page_lsn = 0;
        self.rec_lsn = 0;
        self.log_pending = false;
        self.baseline = Baseline::Whole;
        self.capturing = false;
    }

    /// Consume the frame's `log_pending` flag and its baseline: the
    /// page-delta record of its current bytes, to be appended by the
    /// caller — `None` when nothing is pending or the frame holds no page.
    pub(super) fn take_pending_record(&mut self) -> Option<(PageKey, PreparedRecord)> {
        if !std::mem::take(&mut self.log_pending) {
            return None;
        }
        let baseline = std::mem::replace(&mut self.baseline, Baseline::Whole);
        let base = match &baseline {
            Baseline::Whole => None,
            Baseline::Zero => Some(&ZERO_PAGE),
            Baseline::Bytes(page) => Some(&**page),
        };
        let key = self.key?;
        let (smgr, rel, block) = (key.smgr.0 as u32, key.rel, key.block);
        Some((key, PreparedRecord::page_delta(smgr, rel, block, base, self.page())))
    }

    /// A record of this frame never reached the log: stay pending, and
    /// log the whole page next, since no baseline is known to match.
    pub(super) fn unlogged(&mut self) {
        self.log_pending = true;
        self.baseline = Baseline::Whole;
        self.capturing = false;
    }

    /// Record that a record of this page sits in the log at `at`:
    /// write-back must force the log past its end, and while the page
    /// is dirty replay must be able to reach back to its start.
    pub(super) fn stamp_logged(&mut self, at: &AppendedAt) {
        self.page_lsn = self.page_lsn.max(at.end);
        if self.dirty && self.rec_lsn == 0 {
            self.rec_lsn = at.start;
        }
    }
}

pub(super) struct Frame {
    pub(super) data: RwLock<FrameData>,
    /// The pin/`VALID` state word plus the published key pair — the whole
    /// lock-free pin/revalidate/retire protocol, extracted to
    /// [`protocol::FrameState`] so the model checker can explore it.
    pub(super) sync: FrameState,
    pub(super) used: AtomicBool,
    /// Intrusive link on the pending-capture chain (see
    /// [`protocol::PendingLink`]).
    pub(super) pending: PendingLink,
    /// Installed by read-ahead and not yet pinned; the first pin of such a
    /// frame counts as a prefetch hit.
    pub(super) prefetched: AtomicBool,
}

impl Frame {
    pub(super) fn latch(&self, wait: Wait) -> Option<RwLockWriteGuard<'_, FrameData>> {
        match wait {
            Wait::Block => Some(self.data.write()),
            Wait::Skip => self.data.try_write(),
        }
    }

    /// See [`FrameState::publish`] — only in [`BufferPool::rekey`]: under
    /// the table lock and the frame's write latch, while `VALID` is clear.
    pub(super) fn publish_key(&self, key: &PageKey) {
        self.sync.publish(key.rel, Self::pack_sb(key));
    }

    fn pack_sb(key: &PageKey) -> u64 {
        ((key.smgr.0 as u64) << 32) | key.block as u64
    }

    /// See [`FrameState::matches`] — advisory before a pin, authoritative
    /// after one or under the table lock.
    pub(super) fn published_matches(&self, key: &PageKey) -> bool {
        self.sync.matches(key.rel, Self::pack_sb(key))
    }

    /// The key last published for this frame; for a mapped frame under
    /// the table lock, the key it is mapped under.
    pub(super) fn published_key(&self) -> PageKey {
        let (rel, sb) = self.sync.published();
        PageKey::new(SmgrId((sb >> 32) as u16), rel, sb as u32)
    }
}

/// The pool's page allocation, under its own mutex: pages allocated
/// ahead of the frames whose first install takes them, and the count of
/// frames that hold one.
#[derive(Default)]
pub(super) struct Pages {
    pub(super) spare: Vec<Box<PageBuf>>,
    pub(super) held: usize,
}

/// What the table mutex guards besides the slot array's contents: the
/// clock hand.
pub(super) struct PageTable {
    pub(super) hand: usize,
}

impl BufferPool {
    /// Where `key`'s probe chain starts in the slot array.
    pub(super) fn slot_start(&self, key: &PageKey) -> usize {
        let hasher = BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default();
        hasher.hash_one(key) as usize
    }

    /// The frame `key` is mapped to, if any. The slot array holds frame
    /// indices and each mapped frame publishes the key it is mapped
    /// under: [`Self::rekey`] is the only writer of both and does it in
    /// one critical section of the table lock, which `_table` witnesses —
    /// so under it the comparison is exact. (An unmapped frame keeps its
    /// last published key, but no slot leads to it.)
    pub(super) fn lookup(&self, _table: &PageTable, key: &PageKey) -> Option<usize> {
        self.slots.probe(self.slot_start(key), self.slots.len(), |idx| {
            self.frames[idx].published_matches(key).then_some(idx)
        })
    }

    /// Unmap frame `idx` from `key`, returning whether it was mapped
    /// there; `_table` witnesses the table lock, held to write.
    pub(super) fn unmap(&self, _table: &mut PageTable, key: &PageKey, idx: usize) -> bool {
        let start_of = |idx: usize| self.slot_start(&self.frames[idx].published_key());
        self.slots.remove(self.slot_start(key), idx, start_of)
    }

    /// One clock sweep over the frame array (two passes of the hand),
    /// returning an unpinned, unreferenced victim, or `None`. With
    /// `take_dirty` false only clean, uncontended frames are accepted,
    /// letting dirty pages accumulate for batched elevator write-back;
    /// the caller decides when to flush and when to accept a dirty frame.
    /// Caller holds the table lock.
    pub(super) fn sweep(&self, table: &mut PageTable, take_dirty: bool) -> Option<usize> {
        for _ in 0..2 * self.frames.len() {
            let idx = table.hand;
            table.hand = (table.hand + 1) % self.frames.len();
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

    /// Claim a clean, unpinned victim frame and transfer the page-table
    /// mapping to `key`, returning the frame index and its held write
    /// guard, with the pin already taken. Returns `Ok(None)` if another
    /// thread mapped `key` meanwhile (the caller re-pins through the
    /// lookup path).
    ///
    /// The mapping is only ever transferred to an *already-clean* frame:
    /// dirty victims are written back — with the table lock released
    /// around the device write — before their old mapping is touched, so
    /// a write-back failure (e.g. a burned WORM block) propagates without
    /// leaking a pinned frame, losing the dirty page, or leaving a
    /// mapping that points at another page's bytes.
    pub(super) fn claim_frame(
        &self,
        key: PageKey,
    ) -> Result<Option<(usize, RwLockWriteGuard<'_, FrameData>)>> {
        let mut tried_batch = false;
        loop {
            let mut table = self.table.lock();
            if self.lookup(&table, &key).is_some() {
                return Ok(None);
            }
            if let Some(idx) = self.sweep(&mut table, false) {
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
                // Page-table → frame order. The sweep saw the frame clean
                // and unpinned under this table lock and the retire froze
                // that — so the guard is immediate (at worst a flusher's
                // try-lock is draining) and the frame is still clean
                // under it.
                let mut data = frame.data.write();
                self.rekey(&mut table, idx, &mut data, key, false);
                drop(table);
                return Ok(Some((idx, data)));
            }
            // No clean victim. One pool-wide batched flush in elevator
            // order, with the table lock released so lookups proceed
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
            let Some(idx) = self.sweep(&mut table, true) else {
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
            // the table lock; the frame stays `VALID` and mapped, so
            // readers of its page are never disturbed.
            let written = self.write_back_frame(idx, None, Wait::Block);
            frame.sync.unpin();
            written?;
            // Frame is clean now (a concurrent claimer may steal it — the
            // next sweep decides); go around again.
        }
    }

    /// Transfer retired frame `idx` to `key`: unmap the page it held (an
    /// eviction), map and publish the new key. Caller holds the table
    /// lock and the frame's write latch with `VALID` clear;
    /// [`BufferPool::install`] sets it once the image is in place.
    pub(super) fn rekey(
        &self,
        table: &mut PageTable,
        idx: usize,
        data: &mut FrameData,
        key: PageKey,
        prefetched: bool,
    ) {
        if let Some(old) = data.key.take() {
            let was_mapped = self.unmap(table, &old, idx);
            debug_assert!(was_mapped, "frame {idx} held a key the page table did not map");
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let frame = &self.frames[idx];
        frame.publish_key(&key);
        self.slots.insert(self.slot_start(&key), idx);
        frame.used.store(true, Ordering::Relaxed);
        frame.prefetched.store(prefetched, Ordering::Relaxed);
    }

    /// Make latched frame `idx` hold `key`, whose image the caller just
    /// put in its page ([`Self::frame_page`]), and let `VALID` vouch for
    /// it: any pinner that found the mapping is parked on the held write
    /// latch and wakes to the right bytes. A device image starts clean; a
    /// `fresh` one (`new_page`'s) exists nowhere else yet, so dirty and
    /// pending capture.
    pub(super) fn install(&self, idx: usize, data: &mut FrameData, key: PageKey, fresh: bool) {
        data.key = Some(key);
        data.dirty = fresh;
        data.reset_wal_state();
        if fresh {
            data.log_pending = true;
            data.baseline = Baseline::Zero;
            self.note_pending(idx);
        }
        self.frames[idx].sync.set_valid();
    }

    /// Latched frame `data`'s page, which the frame is given at its first
    /// install and keeps from then on. A pool allocates no page at
    /// construction, so frames it never uses cost no page memory; the
    /// pages come off a spare list that one refill fills with
    /// [`Self::refill_pages`] of them, so installs meet the allocator and
    /// the first-touch faults of fresh memory once a batch, not once a
    /// frame.
    pub(super) fn frame_page<'d>(&self, data: &'d mut FrameData) -> &'d mut PageBuf {
        let page = match data.page.take() {
            Some(page) => page,
            None => self.spare_page(),
        };
        data.page.insert(page)
    }

    /// Pages one refill of the spare list allocates: a 64th of the pool,
    /// at least one.
    pub(super) fn refill_pages(&self) -> usize {
        (self.frames.len() / 64).max(1)
    }

    /// A page for a frame's first install, off the spare list; an empty
    /// list is refilled first, with no more pages than frames still lack
    /// one.
    fn spare_page(&self) -> Box<PageBuf> {
        let mut pages = self.pages.lock();
        pages.held += 1;
        if let Some(page) = pages.spare.pop() {
            return page;
        }
        let more = (self.refill_pages() - 1).min(self.frames.len().saturating_sub(pages.held));
        pages.spare.extend((0..more).map(|_| pglo_pages::alloc_page()));
        pglo_pages::alloc_page()
    }
}
