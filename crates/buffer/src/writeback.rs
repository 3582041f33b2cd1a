//! Write-back: the one dirty walk and the one WAL-before-data write-back
//! behind eviction, every flush and the background writer.

use super::*;

/// What contention and failure cost a write-back.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Wait {
    /// Wait for the capture mutex and the frame latch and propagate
    /// errors: evicting a dirty victim, `flush_all`, `flush_rel`.
    Block,
    /// Never park the flusher: skip a contended mutex or latch and any
    /// pinned frame, and leave the frame dirty on any failure — the
    /// background writer and the pre-eviction batch.
    Skip,
}

impl BufferPool {
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

    /// Write frame `idx` home if it is dirty, returning whether it wrote
    /// — the pool's one write-back. `expect` re-validates the frame's key
    /// under the latch (pass `None` when the caller holds a pin, which
    /// already rules out a re-key).
    ///
    /// A frame dirtied since its last capture (`log_pending`) must have
    /// its delta logged before the home write, and so must every change
    /// chained before it: the page may name another that exists nowhere
    /// else — a B-tree leaf naming a tuple in a block the storage manager
    /// handed out but has not yet written — and replay must recreate that
    /// block, or a restart hands it out again under the stale entry. So
    /// the write-back logs the whole pending chain, under the capture
    /// mutex taken *before* the frame latch (rank 38 before 40) and with
    /// the latch released, and writes only a frame it then finds logged;
    /// one re-dirtied meanwhile goes round again. A frame that a batch
    /// encoded (`capturing`) waits the same way: its bytes must not go
    /// home before their record is in the log.
    pub(super) fn write_back_frame(
        &self,
        idx: usize,
        expect: Option<PageKey>,
        wait: Wait,
    ) -> Result<bool> {
        let frame = &self.frames[idx];
        let mut serial: Option<MutexGuard<'_, ()>> = None;
        loop {
            let Some(mut data) = frame.latch(wait) else { return Ok(false) };
            // Evicted or flushed by someone else meanwhile.
            if !data.dirty || (expect.is_some() && data.key != expect) {
                return Ok(false);
            }
            let wal = match self.wal.get() {
                Some(wal) if data.log_pending || data.capturing => wal,
                _ => {
                    // LINT: allow(R7, the frame latch, and the capture mutex once taken, must span the home write so the page is stable on its way to the device and no capture logs a newer delta of it meanwhile)
                    return match (self.write_back(&mut data), wait) {
                        (Ok(()), _) => Ok(true),
                        (Err(e), Wait::Block) => Err(e),
                        (Err(_), Wait::Skip) => Ok(false),
                    };
                }
            };
            drop(data);
            if serial.is_none() {
                serial = match wait {
                    Wait::Block => Some(self.capture.lock()),
                    Wait::Skip => self.capture.try_lock(),
                };
            }
            let Some(held) = &serial else { return Ok(false) };
            match (self.capture_chain(wal, held), wait) {
                (Ok(_), _) => {}
                (Err(e), Wait::Block) => return Err(e),
                (Err(_), Wait::Skip) => return Ok(false),
            }
        }
    }

    /// The WAL-before-data sequence, under `write_back_frame`'s latch on
    /// a dirty frame whose delta is logged: force the log past the
    /// frame's last record so the on-disk page never runs ahead of what
    /// replay can reconstruct, write the page home, clear `dirty`. A
    /// failure at any step leaves the frame dirty.
    fn write_back(&self, data: &mut FrameData) -> Result<()> {
        if let Some(key) = data.key {
            let _span = obs::span!("pool.writeback");
            self.force_wal(data.page_lsn)?;
            let smgr = self.switch.get(key.smgr)?;
            smgr.write(key.rel, key.block, data.page())?;
            // The home write has landed but (for a log-resident
            // manager) is only *staged* there: re-pin the frame's
            // oldest record so a checkpoint cannot recycle it while
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

    /// Drop all of `rel`'s pages from the pool *without* writing them back
    /// (used by unlink). Pinned pages of other relations are untouched.
    pub fn discard_rel(&self, smgr: SmgrId, rel: RelFileId) {
        let mut table = self.table.lock();
        for (idx, frame) in self.frames.iter().enumerate() {
            // A frame no longer mapped still names its last key; `unmap`
            // refuses those.
            let key = frame.published_key();
            if key.smgr != smgr || key.rel != rel || !self.unmap(&mut table, &key, idx) {
                continue;
            }
            // Withdraw `VALID` before touching the frame so a concurrent
            // lock-free pin either landed first (and keeps reading the
            // relation's last bytes, as any pre-discard pin would) or
            // fails and finds the mapping gone. The frame itself may
            // stay pinned; it only becomes a victim once those pins drop.
            frame.sync.clear_valid();
            let mut data = frame.data.write();
            data.key = None;
            data.dirty = false;
            data.reset_wal_state();
            frame.prefetched.store(false, Ordering::Relaxed);
        }
        drop(table);
        self.readahead.lock().remove(&(smgr, rel));
    }

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
                // Capture pending page deltas every cycle so commits find
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
