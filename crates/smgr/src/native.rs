//! Byte-level file access with simulated device charging — the Dynix fast
//! file system stand-in.
//!
//! The paper's **u-file** (§6.1) and **p-file** (§6.2) implementations keep
//! large-object bytes in ordinary files, and the benchmark's "user file"
//! column is the native-file-system baseline. [`NativeFile`] is that path:
//! plain host-file I/O at arbitrary byte offsets, priced like a 1992 BSD
//! fast file system —
//!
//! * the device is accessed in 8 KB FFS blocks, so a 4 KB frame read
//!   transfers its containing block;
//! * an OS buffer cache (LRU over blocks, 2 MB by default — the same
//!   memory the DBMS buffer pool gets) absorbs re-reads;
//! * a block access pays the seek cost unless it continues the previous
//!   block.
//!
//! The native path pays **no DBMS costs** (no tuple headers, no index, no
//! transaction machinery), exactly like the paper's "user file" column.

use crate::lru::LruCache;
use crate::Result;
use parking_lot::{ranks, Mutex};
use pglo_sim::{DeviceProfile, IoStats, SimContext};
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// FFS block size.
pub const NATIVE_BLOCK: usize = 8192;

/// Default OS buffer-cache capacity in blocks (2 MB — matched to the
/// default DBMS buffer pool so the Figure 2 comparison is fair).
pub const DEFAULT_OS_CACHE_BLOCKS: usize = 256;

struct ChargeState {
    /// Cached blocks; the value records whether the block is dirty
    /// (written but not yet flushed by the syncer).
    cache: LruCache<u64, bool>,
    /// Last block read (demand stream) and last block written (syncer
    /// stream). The elevator merges the two streams, so each is tracked
    /// separately for sequentiality.
    last_read: Option<u64>,
    last_write: Option<u64>,
}

/// A host file charged against a simulated storage device through a
/// simulated OS block cache.
pub struct NativeFile {
    file: File,
    path: PathBuf,
    sim: SimContext,
    profile: DeviceProfile,
    stats: IoStats,
    state: Mutex<ChargeState>,
}

impl NativeFile {
    /// Open (or create) a file, charging the default magnetic-disk profile
    /// with the default OS cache.
    pub fn open(path: impl AsRef<Path>, sim: SimContext, create: bool) -> Result<Self> {
        Self::open_with_profile(path, sim, create, DeviceProfile::magnetic_disk_1992())
    }

    /// Open with an explicit device profile.
    pub fn open_with_profile(
        path: impl AsRef<Path>,
        sim: SimContext,
        create: bool,
        profile: DeviceProfile,
    ) -> Result<Self> {
        Self::open_full(path, sim, create, profile, DEFAULT_OS_CACHE_BLOCKS)
    }

    /// Open with explicit profile and OS-cache capacity (0 disables the
    /// cache).
    pub fn open_full(
        path: impl AsRef<Path>,
        sim: SimContext,
        create: bool,
        profile: DeviceProfile,
        os_cache_blocks: usize,
    ) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().read(true).write(true).create(create).open(&path)?;
        Ok(Self {
            file,
            path,
            sim,
            profile,
            stats: IoStats::new(),
            state: Mutex::with_rank(
                ChargeState {
                    cache: LruCache::new(os_cache_blocks),
                    last_read: None,
                    last_write: None,
                },
                ranks::SMGR_NATIVE,
            ),
        })
    }

    /// Charge a device transfer for one block.
    fn charge_block(&self, state: &mut ChargeState, block: u64, write: bool) {
        let last = if write { &mut state.last_write } else { &mut state.last_read };
        let sequential = *last == Some(block) || Some(block) == last.map(|b| b + 1);
        *last = Some(block);
        self.sim.charge_io(&self.profile, NATIVE_BLOCK, sequential);
        if write {
            self.stats.record_write(NATIVE_BLOCK, sequential);
        } else {
            self.stats.record_read(NATIVE_BLOCK, sequential);
        }
    }

    /// Charge device costs for touching bytes `[offset, offset+len)`:
    /// block-granular, cache-absorbed.
    ///
    /// Reads hit the device only on a cache miss. Writes are write-back:
    /// the block is dirtied in the cache and the device write happens when
    /// the syncer flushes ([`NativeFile::sync`]) or when the dirty block is
    /// evicted. A block access pays the positioning cost unless it repeats
    /// or follows the previous block.
    fn charge(&self, offset: u64, len: usize, write: bool) {
        if len == 0 {
            return;
        }
        let first = offset / NATIVE_BLOCK as u64;
        let last = (offset + len as u64 - 1) / NATIVE_BLOCK as u64;
        let mut state = self.state.lock();
        for block in first..=last {
            if let Some(&dirty) = state.cache.peek(&block) {
                // Cache hit: reads are free; writes just dirty the block.
                state.cache.insert(block, dirty || write);
                continue;
            }
            let covers_block = offset <= block * NATIVE_BLOCK as u64
                && offset + len as u64 >= (block + 1) * NATIVE_BLOCK as u64;
            if !write || !covers_block {
                // Cold read — or a partial-block write, which FFS services
                // as read-modify-write.
                self.charge_block(&mut state, block, false);
            }
            // Writes dirty the cached block; the syncer pays the device
            // write later.
            if let Some((evicted, true)) = state.cache.insert(block, write) {
                // A dirty block fell out of the cache: the syncer writes it.
                self.charge_block(&mut state, evicted, true);
            }
        }
    }

    /// Flush dirty cached blocks to the device in ascending (elevator)
    /// order — the periodic syncer / fsync path. Included in write-op
    /// timings by the benchmark harness.
    pub fn sync(&self) {
        let mut state = self.state.lock();
        let mut dirty: Vec<u64> =
            state.cache.keys().copied().filter(|b| state.cache.peek(b) == Some(&true)).collect();
        dirty.sort_unstable();
        for b in dirty {
            self.charge_block(&mut state, b, true);
            state.cache.insert(b, false);
        }
    }

    /// Read up to `buf.len()` bytes at `offset`; returns bytes read (short
    /// at end of file).
    pub fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let mut done = 0;
        while done < buf.len() {
            let n = self.file.read_at(&mut buf[done..], offset + done as u64)?;
            if n == 0 {
                break;
            }
            done += n;
        }
        if done > 0 {
            self.charge(offset, done, false);
        }
        Ok(done)
    }

    /// Write all of `data` at `offset`, extending the file if needed.
    pub fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.file.write_all_at(data, offset)?;
        self.charge(offset, data.len(), true);
        Ok(())
    }

    /// Current file length in bytes.
    pub fn len(&self) -> Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Truncate or extend to `len` bytes.
    pub fn set_len(&self, len: u64) -> Result<()> {
        self.file.set_len(len)?;
        Ok(())
    }

    /// The path this file was opened at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// I/O statistics for this file (device traffic only; OS-cache hits
    /// don't count).
    pub fn io_stats(&self) -> pglo_sim::stats::IoSnapshot {
        self.stats.snapshot()
    }

    /// Drop the simulated OS cache (benchmarks use this for cold starts).
    pub fn drop_cache(&self) {
        let mut state = self.state.lock();
        state.cache.clear();
        state.last_read = None;
        state.last_write = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let dir = tempfile::tempdir().unwrap();
        let sim = SimContext::default_1992();
        let f = NativeFile::open(dir.path().join("obj"), sim, true).unwrap();
        f.write_at(0, b"hello world").unwrap();
        f.write_at(6, b"WORLD").unwrap();
        let mut buf = [0u8; 11];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 11);
        assert_eq!(&buf, b"hello WORLD");
        assert_eq!(f.len().unwrap(), 11);
    }

    #[test]
    fn short_read_at_eof() {
        let dir = tempfile::tempdir().unwrap();
        let sim = SimContext::default_1992();
        let f = NativeFile::open(dir.path().join("obj"), sim, true).unwrap();
        f.write_at(0, b"abc").unwrap();
        let mut buf = [0u8; 10];
        assert_eq!(f.read_at(1, &mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"bc");
        assert_eq!(f.read_at(99, &mut buf).unwrap(), 0);
    }

    #[test]
    fn sequential_cheaper_than_random_cold() {
        let dir = tempfile::tempdir().unwrap();
        let sim = SimContext::default_1992();
        let f = NativeFile::open_full(
            dir.path().join("obj"),
            sim.clone(),
            true,
            DeviceProfile::magnetic_disk_1992(),
            0, // no cache: measure raw device behaviour
        )
        .unwrap();
        let frame = vec![7u8; 4096];
        for i in 0..64u64 {
            f.write_at(i * 4096, &frame).unwrap();
        }
        let mut buf = vec![0u8; 4096];
        sim.reset();
        for i in 0..64u64 {
            f.read_at(i * 4096, &mut buf).unwrap();
        }
        let seq = sim.now_ns();
        sim.reset();
        for i in [5u64, 60, 2, 34, 9, 52, 0, 26, 42, 7, 58, 3, 22, 48, 15, 1] {
            f.read_at(i * 4096, &mut buf).unwrap();
        }
        let rand = sim.now_ns();
        assert!(rand > seq / 2, "random={rand} sequential={seq}");
        assert!(f.io_stats().seeks > 10);
    }

    #[test]
    fn os_cache_absorbs_rereads() {
        let dir = tempfile::tempdir().unwrap();
        let sim = SimContext::default_1992();
        let f = NativeFile::open(dir.path().join("obj"), sim.clone(), true).unwrap();
        f.write_at(0, &vec![1u8; NATIVE_BLOCK * 4]).unwrap();
        f.drop_cache();
        let mut buf = vec![0u8; 4096];
        f.read_at(0, &mut buf).unwrap();
        sim.reset();
        // Re-read within the same block and its neighbour in the block:
        f.read_at(0, &mut buf).unwrap();
        f.read_at(4096, &mut buf).unwrap(); // second half of cached block 0
        assert_eq!(sim.now_ns(), 0, "cache hits must be free");
        let stats = f.io_stats();
        // Only the load writes and the one cold read reached the device.
        assert_eq!(stats.reads, 1);
    }

    #[test]
    fn block_granular_transfer_charges() {
        let dir = tempfile::tempdir().unwrap();
        let sim = SimContext::default_1992();
        let f = NativeFile::open(dir.path().join("obj"), sim.clone(), true).unwrap();
        f.write_at(0, &vec![1u8; NATIVE_BLOCK * 2]).unwrap();
        f.drop_cache();
        sim.reset();
        let mut buf = vec![0u8; 100];
        // A 100-byte read straddling a block boundary touches two blocks.
        f.read_at(NATIVE_BLOCK as u64 - 50, &mut buf).unwrap();
        assert_eq!(f.io_stats().bytes_read, 2 * NATIVE_BLOCK as u64);
        let profile = DeviceProfile::magnetic_disk_1992();
        assert!(sim.now_ns() >= profile.seek_ns + 2 * profile.transfer_ns(NATIVE_BLOCK));
    }

    #[test]
    fn set_len_truncates() {
        let dir = tempfile::tempdir().unwrap();
        let sim = SimContext::default_1992();
        let f = NativeFile::open(dir.path().join("obj"), sim, true).unwrap();
        f.write_at(0, &[1u8; 100]).unwrap();
        f.set_len(10).unwrap();
        assert_eq!(f.len().unwrap(), 10);
        let mut buf = [0u8; 100];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 10);
    }

    #[test]
    fn open_missing_without_create_fails() {
        let dir = tempfile::tempdir().unwrap();
        let sim = SimContext::default_1992();
        assert!(NativeFile::open(dir.path().join("nope"), sim, false).is_err());
    }
}
