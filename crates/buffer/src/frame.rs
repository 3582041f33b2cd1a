//! Frames, shards and the page table: the slot mirror, the clock sweep,
//! and the one re-key and one install by which a frame changes its page.

use super::*;

pub(super) struct FrameData {
    pub(super) key: Option<PageKey>,
    pub(super) page: Box<PageBuf>,
    pub(super) dirty: bool,
    /// WAL position just past the last full-page image logged for this
    /// frame (0 = never logged). Write-back forces the log here first.
    pub(super) page_lsn: Lsn,
    /// WAL position of the earliest logged image whose page has not yet
    /// reached its home location (0 = none). Replay after a crash must
    /// start at or before the minimum over dirty frames — that minimum
    /// is the checkpoint horizon.
    pub(super) rec_lsn: Lsn,
    /// Dirtied since the last capture: the next commit must log a fresh
    /// image of this frame before its commit record.
    pub(super) log_pending: bool,
}

impl FrameData {
    /// Reset WAL bookkeeping when the frame starts holding a freshly
    /// loaded (clean, device-backed) page image.
    pub(super) fn reset_wal_state(&mut self) {
        self.page_lsn = 0;
        self.rec_lsn = 0;
        self.log_pending = false;
    }

    /// Consume the frame's `log_pending` flag: the full-page image record
    /// of its current bytes, to be appended by the caller — `None` when
    /// nothing is pending or the frame holds no page.
    pub(super) fn take_pending_image(&mut self) -> Option<(PageKey, PreparedRecord)> {
        if !std::mem::take(&mut self.log_pending) {
            return None;
        }
        let key = self.key?;
        Some((key, PreparedRecord::page_image(key.smgr.0 as u32, key.rel, key.block, &self.page)))
    }

    /// Record that an image of this page sits in the log at `at`:
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

    /// See [`FrameState::publish`] — only while `VALID` is clear, under
    /// the frame's write latch.
    pub(super) fn publish_key(&self, key: &PageKey) {
        self.sync.publish(key.rel, Self::pack_sb(key));
    }

    fn pack_sb(key: &PageKey) -> u64 {
        ((key.smgr.0 as u64) << 32) | key.block as u64
    }

    /// See [`FrameState::matches`] — advisory before a pin, authoritative
    /// after one.
    pub(super) fn published_matches(&self, key: &PageKey) -> bool {
        self.sync.matches(key.rel, Self::pack_sb(key))
    }
}

/// One lock shard: a page table over a contiguous frame range with its own
/// clock hand and counters.
pub(super) struct Shard {
    pub(super) table: Mutex<PageTable>,
    /// Lock-free mirror of `PageTable::map` for the pin fast path; see
    /// [`protocol::SlotArray`]. Mutated only while holding `table` (the
    /// `HashMap` stays authoritative); read without any lock.
    pub(super) slots: SlotArray,
    /// First frame owned by this shard.
    pub(super) lo: usize,
    /// One past the last frame owned by this shard.
    pub(super) hi: usize,
    pub(super) hits: AtomicU64,
    pub(super) misses: AtomicU64,
    pub(super) evictions: AtomicU64,
}

pub(super) struct PageTable {
    pub(super) map: HashMap<PageKey, usize>,
    pub(super) hand: usize,
    /// Live tombstones in the shard's slot array; when they exceed ⅛ of
    /// the array the next removal rebuilds it (under the table lock).
    pub(super) tombs: usize,
}

impl BufferPool {
    /// One hash per pin: the low bits pick the shard, a remixed value
    /// seeds the in-shard slot probe.
    pub(super) fn key_hash(key: &PageKey) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        h.finish()
    }

    /// In-shard probe start. Shard selection consumes the hash's low bits
    /// (`hash % nshards`), so every key in a shard agrees on them; masking
    /// the raw hash would start all probes on every-nth slot and clump the
    /// chains. A Fibonacci remix spreads the start across the whole array.
    pub(super) fn slot_start(hash: u64, mask: usize) -> usize {
        (hash.wrapping_mul(0x9E3779B97F4A7C15) >> 32) as usize & mask
    }

    pub(super) fn shard_of(&self, key: &PageKey) -> &Shard {
        &self.shards[(Self::key_hash(key) % self.shards.len() as u64) as usize]
    }

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
    pub(super) fn slot_remove(
        &self,
        shard: &Shard,
        table: &mut PageTable,
        key: &PageKey,
        idx: usize,
    ) {
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

    /// One clock sweep over the shard's frames (two passes of the hand),
    /// returning an unpinned, unreferenced victim, or `None`. With
    /// `take_dirty` false only clean, uncontended frames are accepted,
    /// letting dirty pages accumulate for batched elevator write-back;
    /// the caller decides when to flush and when to accept a dirty frame.
    /// Caller holds the shard's table lock.
    pub(super) fn sweep(
        &self,
        shard: &Shard,
        table: &mut PageTable,
        take_dirty: bool,
    ) -> Option<usize> {
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
    pub(super) fn claim_frame(
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
    pub(super) fn rekey(
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

    /// Make latched frame `idx` hold `key`, whose image the caller just
    /// put in `data.page`, and let `VALID` vouch for it: any pinner that
    /// found the mapping is parked on the held write latch and wakes to
    /// the right bytes. A device image starts clean; a `fresh` one
    /// (`new_page`'s) exists nowhere else yet, so dirty and pending capture.
    pub(super) fn install(&self, idx: usize, data: &mut FrameData, key: PageKey, fresh: bool) {
        data.key = Some(key);
        data.dirty = fresh;
        data.reset_wal_state();
        if fresh {
            data.log_pending = true;
            self.note_pending(idx);
        }
        self.frames[idx].sync.set_valid();
    }
}
