//! The redo-log side: the pending chain, image capture, forcing the log.

use super::*;

impl BufferPool {
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
    pub(super) fn note_pending(&self, idx: usize) {
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

    /// Log a full-page image of a `log_pending` frame immediately,
    /// stamping its LSNs: by the time the home copy exists, the log must
    /// be able to reconstruct it, or a crash after the owning transaction
    /// commits would replay an older image over committed bytes — and a
    /// re-key after the write-back would erase the only copy of the
    /// delta. On failure the flag stays set, so the frame stays protected.
    pub(super) fn log_pending_image(&self, data: &mut FrameData) -> Result<()> {
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
    pub(super) fn force_wal(&self, page_lsn: Lsn) -> Result<()> {
        if page_lsn > 0 {
            if let Some(wal) = self.wal.get() {
                wal.flush_to(page_lsn).map_err(BufferError::Wal)?;
            }
        }
        Ok(())
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
}
