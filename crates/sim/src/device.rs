//! Device profiles: seek + transfer cost models for the storage devices the
//! paper benchmarks on.

/// A storage device's cost profile.
///
/// A transfer costs `seek_ns` (unless it is sequential with respect to the
/// previous transfer on the same stream) plus `bytes * per_byte_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceProfile {
    /// Human-readable device name (shows up in benchmark output).
    pub name: &'static str,
    /// Cost of positioning for a non-sequential access, in nanoseconds.
    /// Includes average seek plus rotational latency for disks, and platter
    /// access for the jukebox.
    pub seek_ns: u64,
    /// Transfer cost per byte, in nanoseconds.
    pub per_byte_ns: u64,
}

impl DeviceProfile {
    /// Transfer cost (no seek) for `bytes` bytes.
    pub fn transfer_ns(&self, bytes: usize) -> u64 {
        bytes as u64 * self.per_byte_ns
    }

    /// A 1992-class local magnetic disk: ~12 ms average seek + ~4 ms
    /// rotational latency at 3600 RPM ⇒ 16 ms positioning; ~2 MB/s
    /// sustained transfer ⇒ 500 ns/byte.
    pub fn magnetic_disk_1992() -> Self {
        Self { name: "magnetic-disk", seek_ns: 16_000_000, per_byte_ns: 500 }
    }

    /// An optical WORM jukebox of the paper's vintage: long positioning
    /// (head seek on platter, amortized platter exchange) ~400 ms; slow
    /// reads ~500 KB/s ⇒ 2000 ns/byte.
    pub fn worm_jukebox_1992() -> Self {
        Self { name: "worm-jukebox", seek_ns: 400_000_000, per_byte_ns: 2000 }
    }

    /// Battery-backed (non-volatile) RAM: no positioning cost, memory-bus
    /// transfer speed (~100 MB/s for the era ⇒ 10 ns/byte).
    pub fn nvram() -> Self {
        Self { name: "nvram", seek_ns: 0, per_byte_ns: 10 }
    }

    /// A 1992 long-haul link (T1, ~1.5 Mbit/s ⇒ ~5333 ns/byte) with 100 ms
    /// round-trip setup — the client-server environment §3 worries about
    /// ("this saves network bandwidth, and will be crucial to good
    /// performance in wide-area networks").
    pub fn wan_1992() -> Self {
        Self { name: "wan-t1", seek_ns: 100_000_000, per_byte_ns: 5333 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_page_read_costs() {
        let d = DeviceProfile::magnetic_disk_1992();
        // Sequential 8 KB page: 8192 * 500 ns ≈ 4.1 ms.
        assert_eq!(d.transfer_ns(8192), 4_096_000);
        // Random adds 16 ms.
        assert_eq!(d.seek_ns + d.transfer_ns(8192), 20_096_000);
    }

    #[test]
    fn worm_seek_dwarfs_disk_seek() {
        let disk = DeviceProfile::magnetic_disk_1992();
        let worm = DeviceProfile::worm_jukebox_1992();
        assert!(
            worm.seek_ns / disk.seek_ns >= 10,
            "the Figure 3 shape requires WORM positioning to dwarf disk positioning"
        );
    }

    #[test]
    fn nvram_has_no_seek() {
        assert_eq!(DeviceProfile::nvram().seek_ns, 0);
    }
}
