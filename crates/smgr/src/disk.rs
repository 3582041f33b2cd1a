//! Magnetic-disk storage manager: "a thin veneer on top of the UNIX file
//! system" (§7).
//!
//! Each relation is one file in the manager's base directory. Real host
//! file I/O is performed (so data is durable and inspectable) while the
//! simulated clock is charged with a 1992-era disk profile.

use crate::{RelFileId, Result, SeqTracker, SmgrError, StorageManager};
use parking_lot::{ranks, Mutex};
use pglo_pages::{PageBuf, PAGE_SIZE};
use pglo_sim::{DeviceProfile, IoStats, SimContext};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// An open relation file and its length in blocks.
///
/// The length is read from the file once, when the entry is made (a
/// created file is empty), and after that only [`RelFile::grow`] moves it:
/// nothing else in the workspace changes a relation file's length (there
/// is no `set_len`) and lobd is the only process on its data directory.
/// So `nblocks` and every range check are an atomic load, not an `fstat`,
/// and the entry — length included — goes when `unlink` drops it.
struct RelFile {
    file: File,
    /// Blocks handed out to extenders; at or ahead of `nblocks`.
    reserved: AtomicU32,
    /// Blocks the file is known to hold.
    nblocks: AtomicU32,
}

impl RelFile {
    fn new(file: File, nblocks: u32) -> Arc<Self> {
        Arc::new(Self { file, reserved: AtomicU32::new(nblocks), nblocks: AtomicU32::new(nblocks) })
    }

    /// Add one block, writing `bytes` at offset `at` inside it. Extension
    /// takes no lock: the block is reserved first, so concurrent extenders
    /// get distinct blocks; the file grows by a positioned write into the
    /// reserved block, which (unlike `set_len`) can never cut off a later
    /// reservation; and the block is published only once the file holds
    /// it, so no reader is sent past the end. A block reserved before a
    /// slower neighbour's reads as zeros until its owner writes it, and
    /// stays that way if the owner's write failed: an empty page to every
    /// reader and a full one to every inserter.
    fn grow(&self, bytes: &[u8], at: usize) -> Result<u32> {
        let block = self.reserved.fetch_add(1, Ordering::SeqCst);
        self.file.write_all_at(bytes, block as u64 * PAGE_SIZE as u64 + at as u64)?;
        self.nblocks.fetch_max(block + 1, Ordering::SeqCst);
        Ok(block)
    }

    /// `OutOfRange` unless the file holds `block`.
    fn check(&self, rel: RelFileId, block: u32) -> Result<()> {
        let nblocks = self.nblocks.load(Ordering::SeqCst);
        if block >= nblocks {
            return Err(SmgrError::OutOfRange { rel, block, nblocks });
        }
        Ok(())
    }
}

/// Storage manager for local magnetic disk.
pub struct DiskSmgr {
    base: PathBuf,
    sim: SimContext,
    profile: DeviceProfile,
    stats: IoStats,
    seq: SeqTracker,
    files: Mutex<HashMap<RelFileId, Arc<RelFile>>>,
    /// When set, [`StorageManager::sync`] issues a real host `sync_all` so
    /// benchmarks can measure honest durability cost. Off by default: the
    /// simulated clock already charges every write, and host-level fsync
    /// would only slow tests down.
    durable_sync: bool,
}

impl DiskSmgr {
    /// Create a manager rooted at `base` (created if absent), charging the
    /// default 1992 magnetic-disk profile.
    pub fn new(base: impl AsRef<Path>, sim: SimContext) -> Result<Self> {
        Self::with_profile(base, sim, DeviceProfile::magnetic_disk_1992())
    }

    /// Create a manager with a custom device profile (used by ablation
    /// benchmarks to model faster or slower disks).
    pub fn with_profile(
        base: impl AsRef<Path>,
        sim: SimContext,
        profile: DeviceProfile,
    ) -> Result<Self> {
        let base = base.as_ref().to_path_buf();
        std::fs::create_dir_all(&base)?;
        Ok(Self {
            base,
            sim,
            profile,
            stats: IoStats::new(),
            seq: SeqTracker::default(),
            files: Mutex::with_rank(HashMap::new(), ranks::SMGR_DISK_FILES),
            durable_sync: false,
        })
    }

    /// Opt into real host `sync_all` on [`StorageManager::sync`].
    pub fn set_durable_sync(&mut self, durable: bool) {
        self.durable_sync = durable;
    }

    /// Path of a relation's backing file.
    pub fn rel_path(&self, rel: RelFileId) -> PathBuf {
        self.base.join(format!("rel_{rel}.pg"))
    }

    fn open_file(&self, rel: RelFileId) -> Result<Arc<RelFile>> {
        {
            let files = self.files.lock();
            if let Some(f) = files.get(&rel) {
                return Ok(Arc::clone(f));
            }
        }
        // Cache miss: do the host-file probing and open with the cache
        // lock released, then re-check — a racing opener may have won,
        // in which case its handle is kept and ours is dropped.
        let path = self.rel_path(rel);
        if !path.exists() {
            return Err(SmgrError::NotFound(rel));
        }
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let nblocks = (file.metadata()?.len() / PAGE_SIZE as u64) as u32;
        let mut files = self.files.lock();
        Ok(Arc::clone(files.entry(rel).or_insert_with(|| RelFile::new(file, nblocks))))
    }

    fn charge(&self, rel: RelFileId, block: u32, bytes: usize, write: bool) {
        let sequential = self.seq.touch(rel, block);
        self.sim.charge_io(&self.profile, bytes, sequential);
        if write {
            self.stats.record_write(bytes, sequential);
        } else {
            self.stats.record_read(bytes, sequential);
        }
    }

    /// Fsync every relation file in the open-file cache. Checkpoint-time
    /// durability discipline: the redo horizon may only advance past page
    /// writes once they are on the platter. No-op unless `durable_sync`
    /// is set (matching [`StorageManager::sync`]). Handles are cloned out
    /// of the cache first so no lock is held across the fsyncs.
    pub fn sync_all_open(&self) -> Result<()> {
        if !self.durable_sync {
            return Ok(());
        }
        let files: Vec<Arc<RelFile>> = self.files.lock().values().map(Arc::clone).collect();
        for f in files {
            f.file.sync_all()?;
        }
        Ok(())
    }
}

impl StorageManager for DiskSmgr {
    fn name(&self) -> &str {
        "magnetic_disk"
    }

    fn create(&self, rel: RelFileId) -> Result<()> {
        let path = self.rel_path(rel);
        if path.exists() {
            return Err(SmgrError::AlreadyExists(rel));
        }
        let f = OpenOptions::new().read(true).write(true).create_new(true).open(path)?;
        self.files.lock().insert(rel, RelFile::new(f, 0));
        Ok(())
    }

    fn exists(&self, rel: RelFileId) -> bool {
        self.rel_path(rel).exists()
    }

    fn unlink(&self, rel: RelFileId) -> Result<()> {
        self.files.lock().remove(&rel);
        self.seq.forget(rel);
        let path = self.rel_path(rel);
        if !path.exists() {
            return Err(SmgrError::NotFound(rel));
        }
        std::fs::remove_file(path)?;
        Ok(())
    }

    fn nblocks(&self, rel: RelFileId) -> Result<u32> {
        Ok(self.open_file(rel)?.nblocks.load(Ordering::SeqCst))
    }

    fn extend(&self, rel: RelFileId, page: &PageBuf) -> Result<u32> {
        let _span = obs::span!("smgr.disk.extend");
        let block = self.open_file(rel)?.grow(page, 0)?;
        self.charge(rel, block, PAGE_SIZE, true);
        Ok(block)
    }

    fn allocate(&self, rel: RelFileId) -> Result<u32> {
        let _span = obs::span!("smgr.disk.allocate");
        // Metadata-only (the block's last byte): no simulated transfer.
        self.open_file(rel)?.grow(&[0], PAGE_SIZE - 1)
    }

    fn read(&self, rel: RelFileId, block: u32, out: &mut PageBuf) -> Result<()> {
        let _span = obs::span!("smgr.disk.read");
        let f = self.open_file(rel)?;
        f.check(rel, block)?;
        f.file.read_exact_at(out, block as u64 * PAGE_SIZE as u64)?;
        self.charge(rel, block, PAGE_SIZE, false);
        Ok(())
    }

    fn write(&self, rel: RelFileId, block: u32, page: &PageBuf) -> Result<()> {
        let _span = obs::span!("smgr.disk.write");
        let f = self.open_file(rel)?;
        f.check(rel, block)?;
        f.file.write_all_at(page, block as u64 * PAGE_SIZE as u64)?;
        self.charge(rel, block, PAGE_SIZE, true);
        Ok(())
    }

    fn read_many(&self, rel: RelFileId, start: u32, out: &mut [PageBuf]) -> Result<usize> {
        let _span = obs::span!("smgr.disk.read_many");
        if out.is_empty() {
            return Ok(0);
        }
        let f = self.open_file(rel)?;
        let nblocks = f.nblocks.load(Ordering::SeqCst);
        if start >= nblocks {
            return Ok(0);
        }
        let n = out.len().min((nblocks - start) as usize);
        // One contiguous transfer for the whole run: a single host syscall
        // and, on the simulated device, one positioning charge at most.
        let flat = out[..n].as_flattened_mut();
        f.file.read_exact_at(flat, start as u64 * PAGE_SIZE as u64)?;
        let sequential = self.seq.touch_run(rel, start, n as u32);
        self.sim.charge_io(&self.profile, n * PAGE_SIZE, sequential);
        self.stats.record_read(n * PAGE_SIZE, sequential);
        Ok(n)
    }

    fn sync(&self, rel: RelFileId) -> Result<()> {
        // The simulated clock already charged each write; host-level
        // sync_all is skipped by default to keep tests fast (durability of
        // the host file is not part of the reproduced evaluation) and
        // performed only when the manager opted into `durable_sync`.
        let f = self.open_file(rel)?;
        if self.durable_sync {
            f.file.sync_all()?;
        }
        Ok(())
    }

    fn clock_ns(&self) -> u64 {
        self.sim.clock().now_ns()
    }

    fn io_stats(&self) -> pglo_sim::stats::IoSnapshot {
        self.stats.snapshot()
    }

    fn reset_io_stats(&self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pglo_pages::alloc_page;

    fn setup() -> (tempfile::TempDir, DiskSmgr, SimContext) {
        let dir = tempfile::tempdir().unwrap();
        let sim = SimContext::default_1992();
        let smgr = DiskSmgr::new(dir.path(), sim.clone()).unwrap();
        (dir, smgr, sim)
    }

    #[test]
    fn create_extend_read_roundtrip() {
        let (_dir, smgr, _sim) = setup();
        smgr.create(7).unwrap();
        assert!(smgr.exists(7));
        assert_eq!(smgr.nblocks(7).unwrap(), 0);
        let mut page = alloc_page();
        page[0] = 0xAA;
        page[PAGE_SIZE - 1] = 0xBB;
        assert_eq!(smgr.extend(7, &page).unwrap(), 0);
        page[0] = 0xCC;
        assert_eq!(smgr.extend(7, &page).unwrap(), 1);
        assert_eq!(smgr.nblocks(7).unwrap(), 2);
        let mut out = alloc_page();
        smgr.read(7, 0, &mut out).unwrap();
        assert_eq!(out[0], 0xAA);
        assert_eq!(out[PAGE_SIZE - 1], 0xBB);
        smgr.read(7, 1, &mut out).unwrap();
        assert_eq!(out[0], 0xCC);
    }

    #[test]
    fn overwrite_supported() {
        let (_dir, smgr, _sim) = setup();
        smgr.create(1).unwrap();
        let mut page = alloc_page();
        smgr.extend(1, &page).unwrap();
        page[10] = 42;
        smgr.write(1, 0, &page).unwrap();
        let mut out = alloc_page();
        smgr.read(1, 0, &mut out).unwrap();
        assert_eq!(out[10], 42);
        assert!(smgr.supports_overwrite());
    }

    #[test]
    fn errors_surface() {
        let (_dir, smgr, _sim) = setup();
        assert!(matches!(smgr.nblocks(9), Err(SmgrError::NotFound(9))));
        smgr.create(9).unwrap();
        assert!(matches!(smgr.create(9), Err(SmgrError::AlreadyExists(9))));
        let mut out = alloc_page();
        assert!(matches!(smgr.read(9, 0, &mut out), Err(SmgrError::OutOfRange { block: 0, .. })));
        assert!(matches!(smgr.write(9, 3, &out), Err(SmgrError::OutOfRange { .. })));
    }

    #[test]
    fn unlink_removes_file() {
        let (_dir, smgr, _sim) = setup();
        smgr.create(5).unwrap();
        let path = smgr.rel_path(5);
        assert!(path.exists());
        smgr.unlink(5).unwrap();
        assert!(!path.exists());
        assert!(matches!(smgr.unlink(5), Err(SmgrError::NotFound(5))));
    }

    #[test]
    fn length_comes_from_the_file_once_then_from_memory() {
        let (dir, smgr, sim) = setup();
        smgr.create(3).unwrap();
        assert_eq!(smgr.nblocks(3).unwrap(), 0);
        assert_eq!(smgr.extend(3, &alloc_page()).unwrap(), 0);
        assert_eq!(smgr.allocate(3).unwrap(), 1);
        assert_eq!(smgr.extend(3, &alloc_page()).unwrap(), 2);
        assert_eq!(smgr.nblocks(3).unwrap(), 3);
        assert_eq!(std::fs::metadata(smgr.rel_path(3)).unwrap().len(), 3 * PAGE_SIZE as u64);
        let mut out = alloc_page();
        smgr.read(3, 1, &mut out).unwrap();
        assert_eq!(out, alloc_page(), "an allocated block reads as zeros");
        assert!(matches!(
            smgr.read(3, 3, &mut out),
            Err(SmgrError::OutOfRange { block: 3, nblocks: 3, .. })
        ));
        assert!(matches!(smgr.write(3, 3, &out), Err(SmgrError::OutOfRange { .. })));
        // A second manager on the directory (the crash-recovery path) has
        // only the file to go by.
        let reopened = DiskSmgr::new(dir.path(), sim).unwrap();
        assert_eq!(reopened.nblocks(3).unwrap(), 3);
        assert_eq!(reopened.allocate(3).unwrap(), 3);
        reopened.write(3, 3, &out).unwrap();
        assert!(matches!(reopened.read(3, 4, &mut out), Err(SmgrError::OutOfRange { .. })));
    }

    #[test]
    fn unlink_forgets_the_length() {
        let (_dir, smgr, _sim) = setup();
        smgr.create(5).unwrap();
        smgr.extend(5, &alloc_page()).unwrap();
        smgr.allocate(5).unwrap();
        smgr.unlink(5).unwrap();
        assert!(matches!(smgr.nblocks(5), Err(SmgrError::NotFound(5))));
        smgr.create(5).unwrap();
        assert_eq!(smgr.nblocks(5).unwrap(), 0);
        assert_eq!(smgr.allocate(5).unwrap(), 0);
        assert_eq!(smgr.nblocks(5).unwrap(), 1);
    }

    /// Four threads extend one relation at once: every block number is
    /// handed out once and the length is their count. (With the block
    /// computed from an unsynchronised length read, 80 000 calls returned
    /// some 49 000 distinct blocks.)
    #[test]
    fn concurrent_allocate_hands_out_distinct_blocks() {
        const THREADS: usize = 4;
        const EACH: usize = 20_000;
        let (_dir, smgr, _sim) = setup();
        smgr.create(1).unwrap();
        let start = std::sync::Barrier::new(THREADS);
        let mut blocks: Vec<u32> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..EACH).map(|_| smgr.allocate(1).unwrap()).collect::<Vec<u32>>()
                    })
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().unwrap()).collect()
        });
        blocks.sort_unstable();
        let want: Vec<u32> = (0..(THREADS * EACH) as u32).collect();
        assert!(blocks == want, "every block exactly once");
        assert_eq!(smgr.nblocks(1).unwrap() as usize, THREADS * EACH);
    }

    #[test]
    fn sequential_reads_cheaper_than_random() {
        let (_dir, smgr, sim) = setup();
        smgr.create(1).unwrap();
        let page = alloc_page();
        for _ in 0..16 {
            smgr.extend(1, &page).unwrap();
        }
        let mut out = alloc_page();
        sim.reset();
        smgr.read(1, 0, &mut out).unwrap(); // first read seeks
        for b in 1..16 {
            smgr.read(1, b, &mut out).unwrap();
        }
        let seq_time = sim.now_ns();
        sim.reset();
        for b in [0u32, 8, 2, 12, 5, 15, 1, 9, 3, 11, 6, 14, 7, 13, 4, 10] {
            smgr.read(1, b, &mut out).unwrap();
        }
        let rand_time = sim.now_ns();
        assert!(
            rand_time > seq_time * 3,
            "random ({rand_time}) must be much slower than sequential ({seq_time})"
        );
        let stats = smgr.io_stats();
        assert_eq!(stats.reads, 32);
        assert!(stats.seeks > 16, "random pass seeks on ~every read");
    }

    #[test]
    fn read_many_is_one_device_op() {
        let (_dir, smgr, _sim) = setup();
        smgr.create(1).unwrap();
        for i in 0..6u8 {
            let mut page = alloc_page();
            page[0] = i;
            smgr.extend(1, &page).unwrap();
        }
        smgr.reset_io_stats();
        let mut out = vec![[0u8; PAGE_SIZE]; 4];
        assert_eq!(smgr.read_many(1, 1, &mut out).unwrap(), 4);
        for (i, page) in out.iter().enumerate() {
            assert_eq!(page[0] as usize, i + 1, "blocks arrive in order");
        }
        let stats = smgr.io_stats();
        assert_eq!(stats.reads, 1, "a run is one contiguous device transfer");
        assert_eq!(stats.bytes_read, 4 * PAGE_SIZE as u64);
        // Short at end of relation, empty past it — no OutOfRange.
        assert_eq!(smgr.read_many(1, 5, &mut out).unwrap(), 1);
        assert_eq!(out[0][0], 5);
        assert_eq!(smgr.read_many(1, 6, &mut out).unwrap(), 0);
        assert_eq!(smgr.read_many(1, 0, &mut []).unwrap(), 0);
    }

    #[test]
    fn read_many_continues_a_sequential_run() {
        let (_dir, smgr, sim) = setup();
        smgr.create(1).unwrap();
        for _ in 0..8 {
            smgr.extend(1, &alloc_page()).unwrap();
        }
        let mut out = vec![[0u8; PAGE_SIZE]; 4];
        smgr.read_many(1, 0, &mut out).unwrap();
        sim.reset();
        smgr.read_many(1, 4, &mut out).unwrap();
        let continuing = sim.now_ns();
        sim.reset();
        smgr.read_many(1, 2, &mut out).unwrap();
        let seeking = sim.now_ns();
        assert!(
            seeking > continuing,
            "a run continuing the previous tail ({continuing} ns) must be cheaper \
             than one that seeks ({seeking} ns)"
        );
    }

    #[test]
    fn durable_sync_opt_in() {
        let (_dir, mut smgr, _sim) = setup();
        assert!(!smgr.durable_sync, "host fsync is off by default");
        smgr.set_durable_sync(true);
        assert!(smgr.durable_sync);
        smgr.create(1).unwrap();
        smgr.extend(1, &alloc_page()).unwrap();
        smgr.sync(1).unwrap(); // reaches sync_all without error
        smgr.set_durable_sync(false);
        assert!(!smgr.durable_sync);
        smgr.sync(1).unwrap();
    }

    #[test]
    fn stats_reset() {
        let (_dir, smgr, _sim) = setup();
        smgr.create(1).unwrap();
        smgr.extend(1, &alloc_page()).unwrap();
        assert_eq!(smgr.io_stats().writes, 1);
        smgr.reset_io_stats();
        assert_eq!(smgr.io_stats().writes, 0);
    }
}
