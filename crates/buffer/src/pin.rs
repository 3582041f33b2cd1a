//! Pinning: the zero-lock hit path, the locked lookup and miss load, `new_page`.

use super::*;

impl BufferPool {
    /// The zero-lock hit path: probe the slot array for a frame
    /// whose published key matches, pin it with one
    /// CAS-increment-if-valid, then re-check the published key now that
    /// the pin has frozen it. Returns the pinned frame index, or `None`
    /// for anything that needs the authoritative locked path (absent
    /// key, probe bound hit, frame mid-install or just retired, CAS
    /// contention, revalidation failure).
    fn try_pin_fast(&self, key: &PageKey) -> Option<usize> {
        let mut retries = 0u32;
        let found = self
            .slots
            .probe(self.slot_start(key), SLOT_PROBE_LIMIT, |idx| {
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
    /// uses it to skip resident blocks without touching the table lock;
    /// a stale answer costs one redundant device read or one locked
    /// confirmation, never correctness.
    pub(super) fn resident_fast(&self, key: &PageKey) -> bool {
        self.slots
            .probe(self.slot_start(key), SLOT_PROBE_LIMIT, |idx| {
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
        // The common case — a resident, installed page — takes zero
        // locks: probe the slot array, CAS the frame's pin word,
        // revalidate the published key. Everything else (miss, frame
        // mid-install, contention, probe overflow) goes through the
        // table mutex.
        let idx = match self.try_pin_fast(&key) {
            Some(idx) => {
                obs::counter!("pool.pin.fast").add(1);
                self.note_hit(idx, true);
                idx
            }
            None => {
                obs::counter!("pool.pin.slow").add(1);
                self.pin_locked(key)?
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
    fn note_hit(&self, idx: usize, count: bool) {
        let frame = &self.frames[idx];
        frame.used.store(true, Ordering::Relaxed);
        if frame.prefetched.swap(false, Ordering::Relaxed) {
            self.prefetch_hits.fetch_add(1, Ordering::Relaxed);
        }
        if count {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Pin `key` through the table mutex, loading the page on a miss;
    /// returns the pinned frame.
    fn pin_locked(&self, key: PageKey) -> Result<usize> {
        // Each pin call is accounted exactly once (one hit or one miss),
        // however many times the claim/validate loop goes around —
        // `hits + misses == pins` is a tested invariant.
        let mut counted = false;
        loop {
            // Locked lookup: resident but not fast-pinnable (load in
            // flight, revalidation failure, slot probe gave up).
            {
                let table = self.table.lock();
                if let Some(idx) = self.lookup(&table, &key) {
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
                    self.note_hit(idx, !counted);
                    return Ok(idx);
                }
            }
            if !counted {
                self.misses.fetch_add(1, Ordering::Relaxed);
                counted = true;
            }
            // Miss: claim a clean victim, transfer the mapping, then load
            // *outside* the table lock (the frame's write lock blocks
            // concurrent readers of the new key until the load is done,
            // and other lookups proceed meanwhile).
            let Some((idx, mut data)) = self.claim_frame(key)? else {
                // Another thread mapped `key` while we were claiming.
                continue;
            };
            let frame = &self.frames[idx];
            let load_span = obs::span!("pool.miss.load");
            let page = self.frame_page(&mut data);
            let loaded = self.switch.get(key.smgr).and_then(|smgr| {
                let wall = std::time::Instant::now();
                let sim0 = smgr.clock_ns();
                // LINT: allow(R7, the frame write lock must block readers of the new key until the page load lands; only other pages' traffic proceeds during the I/O)
                let read = smgr.read(key.rel, key.block, page);
                if read.is_ok() {
                    let ns =
                        wall.elapsed().as_nanos() as u64 + smgr.clock_ns().saturating_sub(sim0);
                    self.observe_read_latency(ns);
                }
                read
            });
            drop(load_span);
            if let Err(e) = loaded {
                // Undo without inverting the page-table → frame lock
                // order: drop the frame guard first, then re-validate
                // under the table lock before removing the mapping — a
                // racing `new_page` of this very block may have
                // legitimately re-owned both frame and mapping meanwhile
                // (its write guard makes the `try_read` fail, or its key
                // store makes the emptiness check fail; either way we
                // leave its mapping alone; and a `discard_rel` that got
                // there first leaves `unmap` nothing to do). The frame
                // stays pinned until the undo is finished, so it cannot
                // be re-claimed.
                data.key = None;
                drop(data);
                let mut table = self.table.lock();
                if frame.data.try_read().is_some_and(|d| d.key.is_none()) {
                    self.unmap(&mut table, &key, idx);
                }
                drop(table);
                frame.sync.unpin();
                return Err(e.into());
            }
            self.install(idx, &mut data, key, false);
            return Ok(idx);
        }
    }

    /// Allocate a brand-new block at the end of `rel`, initialized by
    /// `init` from zeros in its frame, returning its block number and a
    /// pinned handle. Allocation is delayed: the storage manager only hands
    /// out the block; the page image is written once, when the (dirty)
    /// frame is later flushed.
    pub fn new_page(
        &self,
        smgr: SmgrId,
        rel: RelFileId,
        init: impl FnOnce(&mut PageBuf),
    ) -> Result<(u32, PinnedPage<'_>)> {
        let block = self.switch.get(smgr)?.allocate(rel)?;
        let key = PageKey::new(smgr, rel, block);
        // Install directly into a frame (avoids an immediate re-read).
        loop {
            let (idx, mut data) = match self.claim_frame(key)? {
                Some(claimed) => claimed,
                None => {
                    // `key` is already mapped: a sequential read-ahead
                    // racing past the just-grown end can install the fresh
                    // block's device image (zeros) before we get here.
                    // Re-own that frame and overwrite it with the
                    // authoritative image.
                    let table = self.table.lock();
                    let Some(idx) = self.lookup(&table, &key) else { continue };
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
                    (idx, data)
                }
            };
            let page = self.frame_page(&mut data);
            page.fill(0);
            init(page);
            self.install(idx, &mut data, key, true);
            return Ok((block, PinnedPage { pool: self, idx }));
        }
    }
}
