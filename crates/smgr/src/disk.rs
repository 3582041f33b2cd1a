//! Magnetic-disk storage manager: "a thin veneer on top of the UNIX file
//! system" (§7).
//!
//! Each relation is a chain of segment files in the manager's base
//! directory, [`SEGMENT_BLOCKS`] blocks each (PostgreSQL's `md.c`
//! layout): segment 0 is `rel_<oid>.pg`, segment `n` is `rel_<oid>.pg.<n>`,
//! so no file outgrows a per-file size limit. Real host file I/O is
//! performed (so data is durable and inspectable) while the simulated
//! clock is charged with a 1992-era disk profile.

use crate::{RelFileId, Result, SeqTracker, SmgrError, StorageManager};
use parking_lot::{ranks, Mutex};
use pglo_pages::{PageBuf, PAGE_SIZE};
use pglo_sim::{DeviceProfile, IoStats, SimContext};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Blocks per segment file: 256 MiB of 8 KiB pages.
pub const SEGMENT_BLOCKS: u32 = 32_768;

/// Bytes of a full segment file.
const SEGMENT_BYTES: u64 = SEGMENT_BLOCKS as u64 * PAGE_SIZE as u64;

/// A relation's open segment files and the number of blocks handed out of
/// it.
///
/// The count is read from the files once, when the entry is made, and
/// after that only `allocate` or `extend` move it, under the `files` lock
/// every call takes anyway: nothing shrinks a relation (there is no
/// `set_len`) and lobd is the only process on its data directory. So
/// `nblocks` and every range check are a field read, not an `fstat`. The
/// files grow lazily: a block's first `write` (normally the pool's
/// write-back) lengthens its segment, creating it and every missing
/// segment before it in order, so the segments on disk always form an
/// unbroken chain from segment 0 and no written block is hidden at
/// reopen. Until then the block lies past the end, or in a hole, and reads
/// as zeros — an empty page to readers and a full one to inserters.
struct RelFile {
    /// Segment `n` at index `n`; a block past the last has no file yet.
    segs: Vec<Arc<File>>,
    /// Blocks handed out; at or past the blocks the files hold.
    nblocks: u32,
}

impl RelFile {
    /// `OutOfRange` unless `block` has been handed out.
    fn check(&self, rel: RelFileId, block: u32) -> Result<()> {
        let nblocks = self.nblocks;
        (block < nblocks).then_some(()).ok_or(SmgrError::OutOfRange { rel, block, nblocks })
    }

    /// The segment file holding `block`, if it exists yet.
    fn seg(&self, block: u32) -> Option<Arc<File>> {
        self.segs.get((block / SEGMENT_BLOCKS) as usize).cloned()
    }

    /// Hand out the next block.
    fn next_block(&mut self) -> Result<u32> {
        self.nblocks += 1;
        Ok(self.nblocks - 1)
    }
}

/// Byte offset of `block` in its segment file.
fn seg_offset(block: u32) -> u64 {
    u64::from(block % SEGMENT_BLOCKS) * PAGE_SIZE as u64
}

/// Fill `out` from block `block` on, within its segment file, with zeros
/// past the file's end or when the segment has no file yet.
fn read_at(file: Option<&File>, out: &mut [u8], block: u32) -> Result<()> {
    let mut done = 0;
    if let Some(file) = file {
        while done < out.len() {
            match file.read_at(&mut out[done..], seg_offset(block) + done as u64)? {
                0 => break,
                n => done += n,
            }
        }
    }
    out[done..].fill(0);
    Ok(())
}

/// Storage manager for local magnetic disk.
pub struct DiskSmgr {
    base: PathBuf,
    sim: SimContext,
    profile: DeviceProfile,
    stats: IoStats,
    seq: SeqTracker,
    files: Mutex<HashMap<RelFileId, RelFile>>,
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

    /// Path of a relation's first segment file.
    pub fn rel_path(&self, rel: RelFileId) -> PathBuf {
        self.seg_path(rel, 0)
    }

    fn seg_path(&self, rel: RelFileId, seg: usize) -> PathBuf {
        self.base.join(match seg {
            0 => format!("rel_{rel}.pg"),
            n => format!("rel_{rel}.pg.{n}"),
        })
    }

    /// Run `f` on the relation's entry under the `files` lock, making the
    /// entry from the files on disk first if it is not there.
    fn with_rel<R>(&self, rel: RelFileId, f: impl FnOnce(&mut RelFile) -> Result<R>) -> Result<R> {
        if let Some(r) = self.files.lock().get_mut(&rel) {
            return f(r);
        }
        // Cache miss: do the host-file probing and opens with the cache
        // lock released, then re-check — a racing opener may have won, in
        // which case its entry is kept and ours is dropped.
        let opened = self.open_segments(rel)?;
        f(self.files.lock().entry(rel).or_insert(opened))
    }

    /// Open the chain of segment files; its length is one past the last
    /// block a file holds. `NotFound` without segment 0. A file longer
    /// than a segment was written before relations were segmented, and
    /// is refused rather than misread.
    fn open_segments(&self, rel: RelFileId) -> Result<RelFile> {
        let mut r = RelFile { segs: Vec::new(), nblocks: 0 };
        loop {
            let n = r.segs.len();
            let file = match OpenOptions::new().read(true).write(true).open(self.seg_path(rel, n)) {
                Ok(file) => file,
                Err(e) if e.kind() == io::ErrorKind::NotFound && n > 0 => return Ok(r),
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    return Err(SmgrError::NotFound(rel))
                }
                Err(e) => return Err(e.into()),
            };
            let bytes = file.metadata()?.len();
            if bytes > SEGMENT_BYTES {
                return Err(SmgrError::OversizedSegment { rel, bytes });
            }
            if bytes >= PAGE_SIZE as u64 {
                r.nblocks = n as u32 * SEGMENT_BLOCKS + (bytes / PAGE_SIZE as u64) as u32;
            }
            r.segs.push(Arc::new(file));
        }
    }

    /// The segment file holding `block` (range-checked), creating it and
    /// every missing segment before it, in order, with the cache lock
    /// released; a racing creator's handles to the same files win.
    fn seg_for_write(&self, rel: RelFileId, block: u32) -> Result<Arc<File>> {
        let have = self.with_rel(rel, |r| {
            r.check(rel, block)?;
            Ok(r.seg(block).ok_or(r.segs.len()))
        })?;
        let from = match have {
            Ok(file) => return Ok(file),
            Err(from) => from,
        };
        let mut opts = OpenOptions::new();
        opts.read(true).write(true).create(true).truncate(false);
        let mut made = Vec::new();
        for n in from..=(block / SEGMENT_BLOCKS) as usize {
            made.push(Arc::new(opts.open(self.seg_path(rel, n))?));
        }
        if self.durable_sync {
            File::open(&self.base)?.sync_all()?;
        }
        self.with_rel(rel, |r| {
            let skip = r.segs.len().checked_sub(from).ok_or(SmgrError::NotFound(rel))?;
            r.segs.extend(made.into_iter().skip(skip));
            r.seg(block).ok_or(SmgrError::NotFound(rel))
        })
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

    /// Fsync every segment file in the open-file cache. Checkpoint-time
    /// durability discipline: the redo horizon may only advance past page
    /// writes once they are on the platter. No-op unless `durable_sync`
    /// is set (matching [`StorageManager::sync`]). Handles are cloned out
    /// of the cache first so no lock is held across the fsyncs.
    pub fn sync_all_open(&self) -> Result<()> {
        if !self.durable_sync {
            return Ok(());
        }
        let files: Vec<Arc<File>> =
            self.files.lock().values().flat_map(|r| r.segs.iter().map(Arc::clone)).collect();
        for f in files {
            f.sync_all()?;
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
        self.files.lock().insert(rel, RelFile { segs: vec![Arc::new(f)], nblocks: 0 });
        Ok(())
    }

    fn exists(&self, rel: RelFileId) -> bool {
        self.rel_path(rel).exists()
    }

    fn unlink(&self, rel: RelFileId) -> Result<()> {
        self.files.lock().remove(&rel);
        self.seq.forget(rel);
        let segs = (0..).take_while(|&n| self.seg_path(rel, n).exists()).count();
        if segs == 0 {
            return Err(SmgrError::NotFound(rel));
        }
        // Highest first: a crash part-way leaves a chain from segment 0.
        for n in (0..segs).rev() {
            std::fs::remove_file(self.seg_path(rel, n))?;
        }
        Ok(())
    }

    fn nblocks(&self, rel: RelFileId) -> Result<u32> {
        self.with_rel(rel, |r| Ok(r.nblocks))
    }

    fn extend(&self, rel: RelFileId, page: &PageBuf) -> Result<u32> {
        let _span = obs::span!("smgr.disk.extend");
        let block = self.with_rel(rel, RelFile::next_block)?;
        self.seg_for_write(rel, block)?.write_all_at(page, seg_offset(block))?;
        self.charge(rel, block, PAGE_SIZE, true);
        Ok(block)
    }

    fn allocate(&self, rel: RelFileId) -> Result<u32> {
        let _span = obs::span!("smgr.disk.allocate");
        // In memory only: the block's first `write` grows the file.
        self.with_rel(rel, RelFile::next_block)
    }

    fn read(&self, rel: RelFileId, block: u32, out: &mut PageBuf) -> Result<()> {
        let _span = obs::span!("smgr.disk.read");
        let file = self.with_rel(rel, |r| {
            r.check(rel, block)?;
            Ok(r.seg(block))
        })?;
        read_at(file.as_deref(), out, block)?;
        self.charge(rel, block, PAGE_SIZE, false);
        Ok(())
    }

    fn write(&self, rel: RelFileId, block: u32, page: &PageBuf) -> Result<()> {
        let _span = obs::span!("smgr.disk.write");
        self.seg_for_write(rel, block)?.write_all_at(page, seg_offset(block))?;
        self.charge(rel, block, PAGE_SIZE, true);
        Ok(())
    }

    fn read_many(&self, rel: RelFileId, start: u32, out: &mut [PageBuf]) -> Result<usize> {
        let _span = obs::span!("smgr.disk.read_many");
        if out.is_empty() {
            return Ok(0);
        }
        let (n, mut file) = self.with_rel(rel, |r| {
            Ok((out.len().min(r.nblocks.saturating_sub(start) as usize), r.seg(start)))
        })?;
        if n == 0 {
            return Ok(0);
        }
        // One contiguous transfer per segment the run touches: a single
        // host syscall unless it crosses a segment boundary and, on the
        // simulated device, one positioning charge at most.
        let mut done = 0;
        while done < n {
            let block = start + done as u32;
            let len = (n - done).min((SEGMENT_BLOCKS - block % SEGMENT_BLOCKS) as usize);
            if done > 0 {
                file = self.with_rel(rel, |r| Ok(r.seg(block)))?;
            }
            read_at(file.as_deref(), out[done..done + len].as_flattened_mut(), block)?;
            done += len;
        }
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
        let files = self.with_rel(rel, |r| Ok(r.segs.clone()))?;
        if self.durable_sync {
            for f in files {
                f.sync_all()?;
            }
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
        assert_eq!(smgr.allocate(3).unwrap(), 2);
        assert_eq!(smgr.nblocks(3).unwrap(), 3);
        let file_len = || std::fs::metadata(smgr.rel_path(3)).unwrap().len();
        assert_eq!(file_len(), PAGE_SIZE as u64, "allocate makes no host I/O");
        // A second manager on the directory (the crash-recovery path) has
        // only the file to go by: blocks never written are not there.
        assert_eq!(DiskSmgr::new(dir.path(), sim.clone()).unwrap().nblocks(3).unwrap(), 1);
        // Block 2 reaches home before block 1: the first write grows the
        // file and leaves block 1 a hole, which reads as zeros.
        let mut page = alloc_page();
        page[0] = 2;
        smgr.write(3, 2, &page).unwrap();
        assert_eq!(file_len(), 3 * PAGE_SIZE as u64);
        let mut out = alloc_page();
        out[0] = 0xFF;
        smgr.read(3, 1, &mut out).unwrap();
        assert_eq!(out, alloc_page(), "a hole reads as zeros");
        let mut run = vec![[0xFFu8; PAGE_SIZE]; 2];
        assert_eq!(smgr.read_many(3, 1, &mut run).unwrap(), 2);
        assert_eq!((run[0], run[1][0]), ([0; PAGE_SIZE], 2));
        assert!(matches!(
            smgr.read(3, 3, &mut out),
            Err(SmgrError::OutOfRange { block: 3, nblocks: 3, .. })
        ));
        assert!(matches!(smgr.write(3, 3, &out), Err(SmgrError::OutOfRange { .. })));
        let reopened = DiskSmgr::new(dir.path(), sim).unwrap();
        assert_eq!(reopened.nblocks(3).unwrap(), 3, "the written length, hole included");
        assert_eq!(reopened.allocate(3).unwrap(), 3);
        reopened.write(3, 3, &out).unwrap();
        assert!(matches!(reopened.read(3, 4, &mut out), Err(SmgrError::OutOfRange { .. })));
    }

    /// Hand out blocks up to `n` without writing any.
    fn allocate_to(smgr: &DiskSmgr, rel: RelFileId, n: u32) {
        while smgr.nblocks(rel).unwrap() < n {
            smgr.allocate(rel).unwrap();
        }
    }

    fn page_of(v: u8) -> Box<PageBuf> {
        let mut page = alloc_page();
        page.fill(v);
        page
    }

    /// A block of segment 2 written back before segment 1 holds any
    /// block: segment 1 is made empty, segment 2 holds the block at its
    /// offset within the segment, no file passes a segment's length, and
    /// a reopen finds the block — the chain of files is unbroken.
    #[test]
    fn sparse_write_past_a_segment_lands_in_its_own_file() {
        let (dir, smgr, sim) = setup();
        smgr.create(4).unwrap();
        smgr.extend(4, &page_of(1)).unwrap();
        let far = 2 * SEGMENT_BLOCKS + 3;
        allocate_to(&smgr, 4, far + 1);
        smgr.write(4, far, &page_of(7)).unwrap();
        let len =
            |n: &str| std::fs::metadata(dir.path().join(format!("rel_4.pg{n}"))).unwrap().len();
        assert_eq!(len(""), PAGE_SIZE as u64);
        assert_eq!(len(".1"), 0, "segment 1 exists, empty");
        assert_eq!(len(".2"), 4 * PAGE_SIZE as u64);
        let reopened = DiskSmgr::new(dir.path(), sim).unwrap();
        assert_eq!(reopened.nblocks(4).unwrap(), far + 1);
        let mut out = alloc_page();
        reopened.read(4, far, &mut out).unwrap();
        assert_eq!(out, page_of(7));
        reopened.read(4, SEGMENT_BLOCKS + 5, &mut out).unwrap();
        assert_eq!(out, alloc_page(), "a block of the empty segment reads as zeros");
        reopened.read(4, 0, &mut out).unwrap();
        assert_eq!(out, page_of(1));
    }

    /// A run crossing a segment boundary reads both files, in order, as
    /// one charged transfer; a run into a segment with no file yet reads
    /// zeros.
    #[test]
    fn read_many_splits_a_run_at_a_segment_boundary() {
        let (_dir, smgr, _sim) = setup();
        smgr.create(2).unwrap();
        allocate_to(&smgr, 2, SEGMENT_BLOCKS + 2);
        let first = SEGMENT_BLOCKS - 2;
        for b in first..SEGMENT_BLOCKS + 1 {
            smgr.write(2, b, &page_of(b as u8)).unwrap();
        }
        smgr.reset_io_stats();
        let mut run = vec![[0xFFu8; PAGE_SIZE]; 6];
        assert_eq!(smgr.read_many(2, first, &mut run).unwrap(), 4, "short at the end");
        for (i, page) in run[..3].iter().enumerate() {
            assert_eq!(page[..], page_of((first + i as u32) as u8)[..]);
        }
        assert_eq!(run[3], [0; PAGE_SIZE], "allocated, never written");
        assert_eq!(smgr.io_stats().reads, 1);
        smgr.allocate(2).unwrap();
        assert_eq!(smgr.read_many(2, SEGMENT_BLOCKS + 1, &mut run).unwrap(), 2);
    }

    #[test]
    fn unlink_removes_every_segment() {
        let (dir, smgr, sim) = setup();
        smgr.create(6).unwrap();
        allocate_to(&smgr, 6, 2 * SEGMENT_BLOCKS + 1);
        smgr.write(6, 2 * SEGMENT_BLOCKS, &page_of(6)).unwrap();
        let files = || std::fs::read_dir(dir.path()).unwrap().count();
        assert_eq!(files(), 3);
        smgr.unlink(6).unwrap();
        assert_eq!(files(), 0);
        assert!(matches!(smgr.nblocks(6), Err(SmgrError::NotFound(6))));
        smgr.create(6).unwrap();
        assert_eq!(DiskSmgr::new(dir.path(), sim).unwrap().nblocks(6).unwrap(), 0);
    }

    /// A relation file longer than a segment was written by the
    /// unsegmented format: opening it is refused, with a typed error.
    #[test]
    fn an_over_long_first_file_is_refused() {
        let (dir, smgr, _sim) = setup();
        let f = std::fs::File::create(dir.path().join("rel_8.pg")).unwrap();
        f.set_len(SEGMENT_BYTES + PAGE_SIZE as u64).unwrap();
        let err = smgr.nblocks(8).unwrap_err();
        assert!(
            matches!(err, SmgrError::OversizedSegment { rel: 8, bytes } if bytes == SEGMENT_BYTES + PAGE_SIZE as u64),
            "{err}"
        );
        let mut out = alloc_page();
        assert!(matches!(smgr.read(8, 0, &mut out), Err(SmgrError::OversizedSegment { .. })));
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
