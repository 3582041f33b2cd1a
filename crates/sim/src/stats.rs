//! I/O statistics counters shared by the storage managers.

use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic I/O counters. Every storage manager owns one and the benchmark
/// harness reads them to report I/O counts next to elapsed times.
#[derive(Debug, Default)]
pub struct IoStats {
    reads: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    seeks: AtomicU64,
}

/// A point-in-time copy of [`IoStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// The reads.
    pub reads: u64,
    /// The writes.
    pub writes: u64,
    /// The bytes read.
    pub bytes_read: u64,
    /// The bytes written.
    pub bytes_written: u64,
    /// The seeks.
    pub seeks: u64,
}

impl IoStats {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a read of `bytes`; `sequential` records whether a seek was
    /// needed.
    pub fn record_read(&self, bytes: usize, sequential: bool) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
        if !sequential {
            self.seeks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a write of `bytes`.
    pub fn record_write(&self, bytes: usize, sequential: bool) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes as u64, Ordering::Relaxed);
        if !sequential {
            self.seeks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot the counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            seeks: self.seeks.load(Ordering::Relaxed),
        }
    }

    /// Zero all counters.
    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.seeks.store(0, Ordering::Relaxed);
    }
}

impl IoSnapshot {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots() {
        let s = IoStats::new();
        s.record_read(8192, false);
        s.record_read(8192, true);
        s.record_write(4096, false);
        let snap = s.snapshot();
        assert_eq!(snap.reads, 2);
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.bytes_read, 16384);
        assert_eq!(snap.bytes_written, 4096);
        assert_eq!(snap.seeks, 2);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }
}
