//! Sequential read-ahead: the per-relation window and its latency gate.

use super::*;

/// Per-relation read-ahead window state.
pub(super) struct RaState {
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

impl BufferPool {
    /// Fold one observed per-read latency sample (wall-clock plus
    /// simulated-clock delta, in ns) into the EWMA and flip the
    /// read-ahead gate with hysteresis: engage at `readahead_gate_ns`,
    /// release below half of it, so a latency hovering at the threshold
    /// doesn't flap the window open and shut.
    pub(super) fn observe_read_latency(&self, ns: u64) {
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
    pub(super) fn publish_readahead_gauge(engaged: bool) {
        obs::gauge!("pool.readahead.engaged").set(u64::from(engaged));
    }

    /// Whether the latency gate currently allows read-ahead.
    pub fn readahead_engaged(&self) -> bool {
        self.readahead_gate_ns == 0 || self.readahead_engaged.load(Ordering::Relaxed)
    }

    /// Current EWMA of observed per-read device latency in nanoseconds
    /// (0 = no reads sampled yet).
    // LINT: allow(R14, the read-ahead gate's input, which its latency test asserts)
    pub fn read_latency_ewma_ns(&self) -> u64 {
        self.read_lat_ewma.load(Ordering::Relaxed)
    }

    /// Advance the per-relation window state and prefetch if a run is live.
    pub(super) fn run_readahead(&self, key: PageKey) {
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
        // miss confirms with the exact lookup under the lock.
        let mut runs: Vec<(u32, usize)> = Vec::new();
        for block in start..end {
            let key = PageKey::new(smgr, rel, block);
            if self.resident_fast(&key) || self.lookup(&self.table.lock(), &key).is_some() {
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
        let mut table = self.table.lock();
        if self.lookup(&table, &key).is_some() {
            // Mapped meanwhile (possibly dirty) — never clobber it with a
            // stale device image.
            return false;
        }
        let Some(idx) = self.sweep(&mut table, false) else { return false };
        let frame = &self.frames[idx];
        // Retire the victim exactly like `claim_frame`: a lock-free
        // pinner may have pinned the frame's old key between the sweep's
        // pin check and here, and overwriting bytes under such a pin
        // would hand it a foreign page. The CAS refuses while any pin is
        // held; installs are opportunistic, so just give up then.
        let Some(was_valid) = frame.sync.try_retire() else { return false };
        // Only flushers can be holding the latch now (pins are excluded
        // by the retire + the held table lock) — skip rather than wait,
        // restoring `VALID` if the retire took it (the frame and its
        // mapping are untouched).
        let Some(mut data) = frame.data.try_write().filter(|data| !data.dirty) else {
            if was_valid {
                frame.sync.set_valid();
            }
            return false;
        };
        self.rekey(&mut table, idx, &mut data, key, true);
        drop(table);
        data.page.copy_from_slice(&page[..]);
        self.install(idx, &mut data, key, false);
        true
    }
}
