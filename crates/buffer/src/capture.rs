//! The redo-log side: the pending chain, delta capture, forcing the log.

use super::*;

impl BufferPool {
    /// Attach the redo log (first call wins; returns whether this call
    /// attached it). With a log attached, page writes are captured as
    /// page deltas at commit time and every write-back enforces the
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
    /// coalesce into one record per drain instead of one per request.
    pub fn capture_backlog(&self) -> usize {
        self.pending_count.load(Ordering::Relaxed)
    }

    /// Log a page delta of every frame dirtied since its last capture,
    /// stamping `page_lsn`/`rec_lsn`. The commit path calls this *before*
    /// appending its commit record, so every committed change is in the
    /// log. Returns the log position past the last record (0 = nothing
    /// pending or no log attached).
    ///
    /// Cost is O(pages pending), not O(pool): candidates come off the
    /// pending chain, so callers can afford to invoke this eagerly (the
    /// server drains after every request) and a commit finds at most a
    /// requests' worth of backlog instead of the whole pool.
    pub fn capture_pending(&self) -> Result<Lsn> {
        let Some(wal) = self.wal.get() else { return Ok(0) };
        // Fast path: nothing chained *and* no capture in flight. The
        // second check matters for commits — another capture may have
        // stolen the chain (head empty) while its records are not yet in
        // the log; a committer must wait behind it on the mutex so its
        // commit record lands after those records.
        if self.pending.is_empty_fast() && self.capture_floor.load(Ordering::Acquire) == u64::MAX {
            return Ok(0);
        }
        let _span = obs::span!("pool.capture");
        let serial = self.capture.lock();
        self.capture_chain(wal, &serial)
    }

    /// [`Self::capture_pending`]'s body, under the capture mutex that
    /// `_serial` witnesses: log every chained frame's delta in one batch.
    pub(super) fn capture_chain(&self, wal: &Wal, _serial: &MutexGuard<'_, ()>) -> Result<Lsn> {
        // Publish the floor before stealing the chain: it keeps the
        // checkpoint horizon from advancing past where this batch's
        // records will land, and (set-before-steal) makes the fast path
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
            // next capture skips a clean frame — never a lost change.
            // `capturing` holds its write-back until the batch is logged.
            frame.pending.release();
            let mut data = frame.data.write();
            if let Some((key, record)) = data.take_pending_record() {
                data.capturing = true;
                batch.push(record);
                sources.push((idx, key));
            }
        }
        obs::histogram!("pool.capture.batch").record(batch.len() as u64);
        if batch.is_empty() {
            self.capture_floor.store(u64::MAX, Ordering::Release);
            return Ok(0);
        }
        // Phase 2: one append-lock acquisition, coalesced device writes.
        let appended = wal.append_batch(&mut batch);
        // Phase 3: stamp LSNs back, or on failure put every frame back on
        // the chain to log its whole page. A frame re-keyed in between
        // was discarded (a capturing frame's write-back waits for us) and
        // is skipped. Recycle safety needs no work here: `append_batch`
        // registered a per-relation pin at each record's start LSN for
        // log-resident managers.
        for (i, (idx, key)) in sources.iter().enumerate() {
            let mut data = self.frames[*idx].data.write();
            if data.key == Some(*key) {
                match &appended {
                    Ok(ats) => {
                        data.capturing = false;
                        data.stamp_logged(&ats[i]);
                    }
                    Err(_) => {
                        data.unlogged();
                        self.note_pending(*idx);
                    }
                }
            }
        }
        self.capture_floor.store(u64::MAX, Ordering::Release);
        let ats = appended.map_err(BufferError::Wal)?;
        Ok(ats.last().map_or(0, |at| at.end))
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
    /// when no dirty frame has a captured record (callers bound the
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
        // An in-flight capture batch may have appended records whose
        // frames are not yet stamped; its floor bounds them all.
        let floor = self.capture_floor.load(Ordering::Acquire);
        if floor != u64::MAX {
            min = Some(min.map_or(floor, |m| m.min(floor)));
        }
        min
    }
}
