//! The simulated clock: a monotonically increasing nanosecond counter.

use std::sync::atomic::{AtomicU64, Ordering};

/// A deterministic simulated clock.
///
/// The clock only moves when something charges it (device transfer, seek,
/// CPU work), so two runs of the same workload produce byte-identical
/// elapsed times regardless of host speed.
#[derive(Debug, Default)]
pub struct SimClock {
    nanos: AtomicU64,
}

impl SimClock {
    /// A clock starting at zero.
    pub fn new() -> Self {
        Self { nanos: AtomicU64::new(0) }
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }

    /// Advance the clock by `ns` nanoseconds, returning the new time.
    pub fn advance_ns(&self, ns: u64) -> u64 {
        self.nanos.fetch_add(ns, Ordering::Relaxed) + ns
    }

    /// Reset the clock to zero.
    pub fn reset(&self) {
        self.nanos.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = SimClock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.advance_ns(5), 5);
        assert_eq!(c.advance_ns(7), 12);
        assert_eq!(c.now_ns(), 12);
        c.reset();
        assert_eq!(c.now_ns(), 0);
    }
}
