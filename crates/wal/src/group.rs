//! Group-commit flush-slot protocol, extracted onto the `loom` facade so
//! the model checker can explore it (see `crates/model-tests`).
//!
//! The protocol is leader election by mutex: a committer that finds the
//! durable watermark short of its LSN registers as a waiter and parks on
//! the flush slot. The first one through becomes the *leader* — it runs
//! the caller-supplied flush (snapshot the log tail, fsync) and publishes
//! the new watermark with `Release` before handing the slot on. Everyone
//! parked behind it wakes, re-checks the watermark with `Acquire`, and
//! returns without touching the device: one fsync serves the whole batch.
//!
//! The correctness obligation (asserted by the model tests) is that a
//! follower never returns before its LSN is durable: the only path that
//! returns without leading re-reads `flushed` *after* acquiring or having
//! held the slot, and `flushed` is only advanced by a leader after its
//! flush completed, so the `Release` store / `Acquire` load pair carries
//! the durability of the leader's fsync to every rider.

use loom::sync::atomic::{AtomicU64, Ordering};
use loom::sync::Mutex;
use parking_lot::ranks;

/// Group-commit state: the durable watermark, the flush slot the leader
/// election parks on, and the waiter count (telemetry only).
pub struct GroupFlush {
    /// Flush slot; rank `wal.flush` (44), taken before `wal.append` by
    /// the leader inside its flush closure.
    slot: Mutex<()>,
    /// Everything below this stream position is durable.
    flushed: AtomicU64,
    /// Committers currently parked on `slot`; sampled for batch-size
    /// telemetry only, never load-bearing.
    waiters: AtomicU64,
}

impl GroupFlush {
    /// A fresh flush state with everything below `initial` already
    /// durable (the scanned end of log at open).
    pub fn new(initial: u64) -> Self {
        GroupFlush {
            slot: Mutex::with_rank((), ranks::WAL_FLUSH),
            flushed: AtomicU64::new(initial),
            waiters: AtomicU64::new(0),
        }
    }

    /// The durable watermark.
    // LINT: allow(R14, the watermark Wal::flushed_lsn reports to the WAL and pool tests)
    pub fn durable(&self) -> u64 {
        self.flushed.load(Ordering::Acquire)
    }

    /// Make everything below `lsn` durable, riding a concurrent flush if
    /// one already covers it. `leader` performs the actual flush — called
    /// only in the caller that wins the slot — and returns the stream
    /// position it made durable (the end of log it snapshotted, which is
    /// `>= lsn` because `lsn` was already appended by our caller).
    ///
    /// Returns `Ok(None)` when a concurrent leader's flush covered us
    /// (follower path, no I/O issued) and `Ok(Some(batch))` when this
    /// caller led, where `batch` counts the riders served. On `Err` the
    /// watermark does not move.
    pub fn flush_to<E>(
        &self,
        lsn: u64,
        leader: impl FnOnce() -> Result<u64, E>,
    ) -> Result<Option<u64>, E> {
        if self.flushed.load(Ordering::Acquire) >= lsn {
            return Ok(None);
        }
        self.waiters.fetch_add(1, Ordering::AcqRel);
        let slot = self.slot.lock();
        self.waiters.fetch_sub(1, Ordering::AcqRel);
        if self.flushed.load(Ordering::Acquire) >= lsn {
            // A previous leader's flush covered us while we were parked.
            return Ok(None);
        }
        // Leader. Sample the batch before flushing: everyone parked now
        // will ride this flush (later arrivals may too — undercounting
        // only, and only for telemetry).
        let batch = 1 + self.waiters.load(Ordering::Acquire);
        let end = leader()?;
        debug_assert!(end >= lsn, "leader flushed short of the requested LSN");
        self.flushed.store(end, Ordering::Release);
        drop(slot);
        Ok(Some(batch))
    }
}
