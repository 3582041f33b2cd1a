//! WORM optical-jukebox storage manager (§7, §9.3).
//!
//! Version 4's third storage manager "supports data on a local or remote
//! optical disk WORM jukebox" and "maintains a magnetic disk cache of
//! optical disk blocks" — the cache is what makes f-chunk "dramatically
//! superior" to a raw-device reader on random access in Figure 3.
//!
//! Model:
//!
//! * A block is **staged** when first written: it lives in the magnetic-disk
//!   staging area and may still be overwritten (POSTGRES needs this to stamp
//!   tuple headers before a page migrates to the archive).
//! * [`StorageManager::sync`] **burns** staged blocks to the platter in
//!   block order. Burned blocks are immutable; overwriting one returns
//!   [`SmgrError::WormOverwrite`] — the device-level enforcement of the
//!   no-overwrite discipline.
//! * Reads of burned blocks consult the magnetic-disk LRU block cache
//!   first (disk-priced); misses pay the jukebox's positioning and transfer
//!   costs and populate the cache.
//! * With a **platter directory attached** ([`WormSmgr::attach_platter`]),
//!   burns are persisted: each burned page is appended to the relation's
//!   platter file with a CRC + magic trailer, and reattaching after a
//!   restart reloads every durable burn. Staged blocks stay volatile —
//!   WAL replay (held by the log's pin map) recreates them.

use crate::lru::LruCache;
use crate::{RelFileId, Result, SeqTracker, SmgrError, StorageManager};
use parking_lot::{ranks, Mutex};
use pglo_pages::checksum::crc32;
use pglo_pages::{PageBuf, PAGE_SIZE};
use pglo_sim::{DeviceProfile, IoStats, SimContext};
use std::collections::HashMap;
use std::fs::{self, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

enum BlockState {
    /// Written but not yet burned: mutable, lives in the staging area.
    Staged(Box<PageBuf>),
    /// Burned to the platter: immutable.
    Burned(Box<PageBuf>),
}

/// Trailer magic for one platter record: `b"PLAT"` little-endian.
const PLATTER_MAGIC: u32 = 0x5441_4c50;

/// One platter record: the page, then a CRC32 of it, then the magic.
/// The trailer makes a torn tail (crash mid-burn) detectable: load
/// truncates at the first record whose trailer does not validate, and
/// WAL replay re-stages whatever the truncation dropped.
const PLATTER_REC: usize = PAGE_SIZE + 8;

/// Where burned blocks persist (one `<rel>.platter` file per relation).
struct Platter {
    dir: PathBuf,
    durable: bool,
}

fn platter_path(dir: &Path, rel: RelFileId) -> PathBuf {
    dir.join(format!("{rel:016x}.platter"))
}

struct Inner {
    rels: HashMap<RelFileId, Vec<BlockState>>,
    cache: LruCache<(RelFileId, u32), Box<PageBuf>>,
    platter: Option<Platter>,
}

/// Storage manager for a write-once optical-disk jukebox with a
/// magnetic-disk block cache.
pub struct WormSmgr {
    sim: SimContext,
    jukebox: DeviceProfile,
    cache_disk: DeviceProfile,
    stats: IoStats,
    jukebox_stats: IoStats,
    seq: SeqTracker,
    /// Access-pattern tracking for the magnetic-disk cache file (cache
    /// blocks land on disk in platter order, so sequential platter runs
    /// read back sequentially from the cache too).
    cache_seq: SeqTracker,
    inner: Mutex<Inner>,
}

/// Default cache size: 4096 blocks = 32 MB — a modest slice of a 1992
/// magnetic disk dedicated to caching jukebox blocks.
pub const DEFAULT_WORM_CACHE_BLOCKS: usize = 4096;

impl WormSmgr {
    /// A jukebox manager with the default profiles and cache size.
    pub fn new(sim: SimContext) -> Self {
        Self::with_cache_blocks(sim, DEFAULT_WORM_CACHE_BLOCKS)
    }

    /// A jukebox manager with an explicit cache capacity (in 8 KB blocks).
    /// Zero disables the cache — the §9.3 ablation.
    pub fn with_cache_blocks(sim: SimContext, cache_blocks: usize) -> Self {
        Self {
            sim,
            jukebox: DeviceProfile::worm_jukebox_1992(),
            cache_disk: DeviceProfile::magnetic_disk_1992(),
            stats: IoStats::new(),
            jukebox_stats: IoStats::new(),
            seq: SeqTracker::default(),
            cache_seq: SeqTracker::default(),
            inner: Mutex::with_rank(
                Inner { rels: HashMap::new(), cache: LruCache::new(cache_blocks), platter: None },
                ranks::SMGR_WORM,
            ),
        }
    }

    /// Attach a platter directory: every burned block recorded there is
    /// reloaded (a torn tail from a crashed burn is truncated away), and
    /// future burns persist to it. Call at startup, *before* WAL replay,
    /// so replayed page images land on top of the recovered burns —
    /// writes to already-burned blocks bounce idempotently.
    pub fn attach_platter(&self, dir: impl AsRef<Path>, durable: bool) -> Result<()> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        // Scan and repair with no lock held — attach precedes any
        // traffic by protocol — then install everything in one locked
        // step.
        let mut loaded: Vec<(RelFileId, Vec<BlockState>)> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(hex) = name.strip_suffix(".platter") else { continue };
            let Ok(rel) = RelFileId::from_str_radix(hex, 16) else { continue };
            let bytes = fs::read(entry.path())?;
            let mut blocks = Vec::new();
            let mut off = 0usize;
            while off + PLATTER_REC <= bytes.len() {
                let page = &bytes[off..off + PAGE_SIZE];
                let mut w = [0u8; 4];
                w.copy_from_slice(&bytes[off + PAGE_SIZE..off + PAGE_SIZE + 4]);
                let crc = u32::from_le_bytes(w);
                w.copy_from_slice(&bytes[off + PAGE_SIZE + 4..off + PLATTER_REC]);
                let magic = u32::from_le_bytes(w);
                if magic != PLATTER_MAGIC || crc32(0, page) != crc {
                    break;
                }
                let mut p = pglo_pages::alloc_page();
                p.copy_from_slice(page);
                blocks.push(BlockState::Burned(p));
                off += PLATTER_REC;
            }
            if off < bytes.len() {
                // Torn or garbage tail: drop it so a later burn cannot
                // splice new records onto invalid ones.
                let f = OpenOptions::new().write(true).open(entry.path())?;
                f.set_len(off as u64)?;
                if durable {
                    f.sync_data()?;
                }
            }
            loaded.push((rel, blocks));
        }
        let mut inner = self.inner.lock();
        for (rel, blocks) in loaded {
            inner.rels.insert(rel, blocks);
        }
        inner.platter = Some(Platter { dir, durable });
        Ok(())
    }

    /// Does `rel` still hold staged (not yet burned) blocks? The
    /// checkpoint asks this to decide whether the relation's log records
    /// may be pruned from the WAL pin map: a relation with no staged
    /// blocks is fully platter-durable and never needs replay. A
    /// relation this manager does not know is trivially prunable.
    pub fn has_staged(&self, rel: RelFileId) -> bool {
        self.inner
            .lock()
            .rels
            .get(&rel)
            .is_some_and(|blocks| blocks.iter().any(|b| matches!(b, BlockState::Staged(_))))
    }

    /// `(hits, misses)` of the magnetic-disk block cache.
    pub fn cache_hit_stats(&self) -> (u64, u64) {
        self.inner.lock().cache.hit_stats()
    }

    /// I/O that actually reached the optical device (excludes cache and
    /// staging traffic).
    // LINT: allow(R14, the I/O that reached the platter, which the WORM cache test asserts)
    pub fn platter_io_stats(&self) -> pglo_sim::stats::IoSnapshot {
        self.jukebox_stats.snapshot()
    }

    /// Burn every staged block of every relation (end-of-load step in the
    /// benchmarks), in relation-id order: a burn leaves its blocks in the
    /// cache, so the order decides which relations start warm once the
    /// cache is full — it must not follow the map's per-process hashing.
    pub fn sync_all(&self) -> Result<()> {
        let mut rels: Vec<RelFileId> = self.inner.lock().rels.keys().copied().collect();
        rels.sort_unstable();
        for rel in rels {
            self.sync(rel)?;
        }
        Ok(())
    }

    /// Drop all cached blocks (benchmarks use this to measure cold reads).
    // LINT: allow(R14, cold-cache runs in examples/worm_archive.rs)
    pub fn drop_cache(&self) {
        self.inner.lock().cache.clear();
    }
}

impl StorageManager for WormSmgr {
    fn name(&self) -> &str {
        "worm_jukebox"
    }

    fn create(&self, rel: RelFileId) -> Result<()> {
        let mut inner = self.inner.lock();
        if inner.rels.contains_key(&rel) {
            return Err(SmgrError::AlreadyExists(rel));
        }
        inner.rels.insert(rel, Vec::new());
        Ok(())
    }

    fn exists(&self, rel: RelFileId) -> bool {
        self.inner.lock().rels.contains_key(&rel)
    }

    fn unlink(&self, rel: RelFileId) -> Result<()> {
        // WORM platters cannot reclaim space; unlink only forgets the
        // catalog entry and purges cache, like discarding the platter index.
        let mut inner = self.inner.lock();
        inner.rels.remove(&rel).ok_or(SmgrError::NotFound(rel))?;
        inner.cache.retain(|(r, _)| *r != rel);
        self.seq.forget(rel);
        if let Some(p) = &inner.platter {
            // LINT: allow(R7, unlink under the lock keeps a concurrent re-create of the same rel from losing its fresh platter file)
            match fs::remove_file(platter_path(&p.dir, rel)) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
                _ => {}
            }
        }
        Ok(())
    }

    fn nblocks(&self, rel: RelFileId) -> Result<u32> {
        let inner = self.inner.lock();
        inner.rels.get(&rel).map(|b| b.len() as u32).ok_or(SmgrError::NotFound(rel))
    }

    fn extend(&self, rel: RelFileId, page: &PageBuf) -> Result<u32> {
        let _span = obs::span!("smgr.worm.extend");
        let mut inner = self.inner.lock();
        let blocks = inner.rels.get_mut(&rel).ok_or(SmgrError::NotFound(rel))?;
        blocks.push(BlockState::Staged(Box::new(*page)));
        let block = (blocks.len() - 1) as u32;
        // Staging happens on magnetic disk.
        self.sim.charge_io(&self.cache_disk, PAGE_SIZE, true);
        self.stats.record_write(PAGE_SIZE, true);
        Ok(block)
    }

    fn allocate(&self, rel: RelFileId) -> Result<u32> {
        let _span = obs::span!("smgr.worm.allocate");
        let mut inner = self.inner.lock();
        let blocks = inner.rels.get_mut(&rel).ok_or(SmgrError::NotFound(rel))?;
        blocks.push(BlockState::Staged(Box::new([0u8; PAGE_SIZE])));
        Ok((blocks.len() - 1) as u32)
    }

    fn read(&self, rel: RelFileId, block: u32, out: &mut PageBuf) -> Result<()> {
        let _span = obs::span!("smgr.worm.read");
        let mut inner = self.inner.lock();
        let blocks = inner.rels.get(&rel).ok_or(SmgrError::NotFound(rel))?;
        let nblocks = blocks.len() as u32;
        let state =
            blocks.get(block as usize).ok_or(SmgrError::OutOfRange { rel, block, nblocks })?;
        match state {
            BlockState::Staged(page) => {
                out.copy_from_slice(&page[..]);
                self.sim.charge_io(&self.cache_disk, PAGE_SIZE, false);
                self.stats.record_read(PAGE_SIZE, false);
            }
            BlockState::Burned(page) => {
                out.copy_from_slice(&page[..]);
                if inner.cache.get(&(rel, block)).is_some() {
                    // Cache hit: priced as a magnetic-disk read (sequential
                    // when it continues the previous cached run).
                    let sequential = self.cache_seq.touch(rel, block);
                    self.sim.charge_io(&self.cache_disk, PAGE_SIZE, sequential);
                    self.stats.record_read(PAGE_SIZE, sequential);
                } else {
                    // Miss: the jukebox pays positioning unless sequential.
                    let sequential = self.seq.touch(rel, block);
                    self.sim.charge_io(&self.jukebox, PAGE_SIZE, sequential);
                    self.stats.record_read(PAGE_SIZE, sequential);
                    self.jukebox_stats.record_read(PAGE_SIZE, sequential);
                    let copy = Box::new(*out);
                    inner.cache.insert((rel, block), copy);
                }
            }
        }
        Ok(())
    }

    fn read_many(&self, rel: RelFileId, start: u32, out: &mut [PageBuf]) -> Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        // One lock acquisition for the whole run; per-block pricing is
        // unchanged (the sequential trackers already make consecutive
        // platter and cache accesses cheap).
        let mut inner = self.inner.lock();
        let Inner { rels, cache, .. } = &mut *inner;
        let blocks = rels.get(&rel).ok_or(SmgrError::NotFound(rel))?;
        if start as usize >= blocks.len() {
            return Ok(0);
        }
        let n = out.len().min(blocks.len() - start as usize);
        for (i, slot) in out.iter_mut().take(n).enumerate() {
            let block = start + i as u32;
            match &blocks[block as usize] {
                BlockState::Staged(page) => {
                    slot.copy_from_slice(&page[..]);
                    self.sim.charge_io(&self.cache_disk, PAGE_SIZE, false);
                    self.stats.record_read(PAGE_SIZE, false);
                }
                BlockState::Burned(page) => {
                    slot.copy_from_slice(&page[..]);
                    if cache.get(&(rel, block)).is_some() {
                        let sequential = self.cache_seq.touch(rel, block);
                        self.sim.charge_io(&self.cache_disk, PAGE_SIZE, sequential);
                        self.stats.record_read(PAGE_SIZE, sequential);
                    } else {
                        let sequential = self.seq.touch(rel, block);
                        self.sim.charge_io(&self.jukebox, PAGE_SIZE, sequential);
                        self.stats.record_read(PAGE_SIZE, sequential);
                        self.jukebox_stats.record_read(PAGE_SIZE, sequential);
                        cache.insert((rel, block), Box::new(*slot));
                    }
                }
            }
        }
        Ok(n)
    }

    fn write(&self, rel: RelFileId, block: u32, page: &PageBuf) -> Result<()> {
        let _span = obs::span!("smgr.worm.write");
        let mut inner = self.inner.lock();
        let blocks = inner.rels.get_mut(&rel).ok_or(SmgrError::NotFound(rel))?;
        let nblocks = blocks.len() as u32;
        let state =
            blocks.get_mut(block as usize).ok_or(SmgrError::OutOfRange { rel, block, nblocks })?;
        match state {
            BlockState::Staged(slot) => {
                slot.copy_from_slice(&page[..]);
                self.sim.charge_io(&self.cache_disk, PAGE_SIZE, true);
                self.stats.record_write(PAGE_SIZE, true);
                Ok(())
            }
            BlockState::Burned(_) => Err(SmgrError::WormOverwrite { rel, block }),
        }
    }

    fn sync(&self, rel: RelFileId) -> Result<()> {
        let mut inner = self.inner.lock();
        let Inner { rels, cache, platter } = &mut *inner;
        let blocks = rels.get_mut(&rel).ok_or(SmgrError::NotFound(rel))?;
        let mut burned_any = false;
        for (block, state) in blocks.iter_mut().enumerate() {
            if let BlockState::Staged(page) = state {
                let page = std::mem::replace(page, Box::new([0u8; PAGE_SIZE]));
                // Burn: sequential streaming to the platter; one positioning
                // charge for the whole batch (below), transfer per block.
                self.sim.charge_io(&self.jukebox, PAGE_SIZE, true);
                self.stats.record_write(PAGE_SIZE, true);
                self.jukebox_stats.record_write(PAGE_SIZE, true);
                // The staged copy lives on the cache disk already; archiving
                // to the platter leaves it there as a cache entry — freshly
                // archived data starts warm (§9.3's cache behaviour).
                cache.insert((rel, block as u32), page.clone());
                *state = BlockState::Burned(page);
                burned_any = true;
            }
        }
        if burned_any {
            // One positioning charge for the burn batch.
            self.sim.charge_io(&self.jukebox, 0, false);
            if let Some(p) = platter {
                // Persist the newly burned suffix. Burned blocks always
                // form a prefix of the relation (a sync burns everything
                // staged), so the platter file only ever appends — the
                // records past `persisted` are exactly this burn.
                // The lock stays held across the file I/O on purpose:
                // `has_staged` (the checkpointer's prune predicate) must
                // not observe the in-memory `Burned` states until the
                // platter holds the bytes — otherwise the WAL pin could
                // be pruned with the platter write still in flight.
                let path = platter_path(&p.dir, rel);
                let mut open_opts = OpenOptions::new();
                // LINT: allow(R7, platter append must complete under the lock before has_staged can report the relation prunable)
                open_opts.read(true).write(true).create(true).truncate(false);
                // LINT: allow(R7, platter append must complete under the lock before has_staged can report the relation prunable)
                let f = open_opts.open(&path)?;
                // LINT: allow(R7, platter append must complete under the lock before has_staged can report the relation prunable)
                let len = f.metadata()?.len();
                // Defensive: clear any partial record before appending.
                let keep = len - len % PLATTER_REC as u64;
                if keep != len {
                    // LINT: allow(R7, platter append must complete under the lock before has_staged can report the relation prunable)
                    f.set_len(keep)?;
                }
                let persisted = (keep / PLATTER_REC as u64) as usize;
                let mut buf =
                    Vec::with_capacity(blocks.len().saturating_sub(persisted) * PLATTER_REC);
                for state in blocks.get(persisted..).unwrap_or(&[]) {
                    // The loop above burned every staged block, so only
                    // `Burned` states remain in the suffix.
                    let BlockState::Burned(page) = state else { continue };
                    buf.extend_from_slice(&page[..]);
                    buf.extend_from_slice(&crc32(0, &page[..]).to_le_bytes());
                    buf.extend_from_slice(&PLATTER_MAGIC.to_le_bytes());
                }
                if !buf.is_empty() {
                    // LINT: allow(R7, platter append must complete under the lock before has_staged can report the relation prunable)
                    f.write_all_at(&buf, keep)?;
                    if p.durable {
                        // LINT: allow(R7, platter append must complete under the lock before has_staged can report the relation prunable)
                        f.sync_data()?;
                    }
                }
            }
        }
        Ok(())
    }

    fn supports_overwrite(&self) -> bool {
        false
    }

    fn clock_ns(&self) -> u64 {
        self.sim.clock().now_ns()
    }

    fn io_stats(&self) -> pglo_sim::stats::IoSnapshot {
        self.stats.snapshot()
    }

    fn reset_io_stats(&self) {
        self.stats.reset();
        self.jukebox_stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pglo_pages::alloc_page;

    fn page_with(b: u8) -> Box<PageBuf> {
        let mut p = alloc_page();
        p[0] = b;
        p
    }

    #[test]
    fn staged_blocks_mutable_until_burned() {
        let smgr = WormSmgr::new(SimContext::default_1992());
        smgr.create(1).unwrap();
        smgr.extend(1, &page_with(1)).unwrap();
        smgr.write(1, 0, &page_with(9)).unwrap(); // still staged: OK
        let mut out = alloc_page();
        smgr.read(1, 0, &mut out).unwrap();
        assert_eq!(out[0], 9);
        smgr.sync(1).unwrap();
        assert!(matches!(
            smgr.write(1, 0, &page_with(5)),
            Err(SmgrError::WormOverwrite { rel: 1, block: 0 })
        ));
        // Data still readable after burn.
        smgr.read(1, 0, &mut out).unwrap();
        assert_eq!(out[0], 9);
        assert!(!smgr.supports_overwrite());
    }

    #[test]
    fn cache_absorbs_repeated_reads() {
        let sim = SimContext::default_1992();
        let smgr = WormSmgr::new(sim.clone());
        smgr.create(1).unwrap();
        for i in 0..4u8 {
            smgr.extend(1, &page_with(i)).unwrap();
        }
        smgr.sync(1).unwrap();
        smgr.drop_cache();
        let mut out = alloc_page();
        sim.reset();
        smgr.read(1, 2, &mut out).unwrap(); // cold: jukebox seek
        let cold = sim.now_ns();
        sim.reset();
        smgr.read(1, 2, &mut out).unwrap(); // warm: disk price
        let warm = sim.now_ns();
        assert!(cold > warm * 5, "cold read ({cold}) must dwarf cached read ({warm})");
        let (hits, misses) = smgr.cache_hit_stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn zero_capacity_cache_always_pays_jukebox() {
        let sim = SimContext::default_1992();
        let smgr = WormSmgr::with_cache_blocks(sim.clone(), 0);
        smgr.create(1).unwrap();
        smgr.extend(1, &page_with(7)).unwrap();
        smgr.sync(1).unwrap();
        let mut out = alloc_page();
        sim.reset();
        smgr.read(1, 0, &mut out).unwrap();
        smgr.seq.forget(1); // force a seek for the repeat read
        let t1 = sim.now_ns();
        smgr.read(1, 0, &mut out).unwrap();
        let t2 = sim.now_ns() - t1;
        assert!(t2 >= DeviceProfile::worm_jukebox_1992().seek_ns);
    }

    #[test]
    fn unlink_purges_cache() {
        let smgr = WormSmgr::new(SimContext::default_1992());
        smgr.create(1).unwrap();
        smgr.extend(1, &page_with(1)).unwrap();
        smgr.sync(1).unwrap();
        let mut out = alloc_page();
        smgr.read(1, 0, &mut out).unwrap();
        smgr.unlink(1).unwrap();
        assert!(!smgr.exists(1));
        assert_eq!(smgr.inner.lock().cache.len(), 0);
    }

    #[test]
    fn platter_stats_distinguish_cache_traffic() {
        let smgr = WormSmgr::new(SimContext::default_1992());
        smgr.create(1).unwrap();
        smgr.extend(1, &page_with(1)).unwrap();
        smgr.sync(1).unwrap();
        smgr.drop_cache();
        let mut out = alloc_page();
        smgr.read(1, 0, &mut out).unwrap();
        smgr.read(1, 0, &mut out).unwrap();
        smgr.read(1, 0, &mut out).unwrap();
        let platter = smgr.platter_io_stats();
        assert_eq!(platter.reads, 1, "only the cold read reaches the platter");
        assert_eq!(smgr.io_stats().reads, 3);
    }

    #[test]
    fn platter_survives_reattach() {
        let dir = tempfile::tempdir().unwrap();
        {
            let smgr = WormSmgr::new(SimContext::default_1992());
            smgr.attach_platter(dir.path(), true).unwrap();
            smgr.create(7).unwrap();
            for i in 0..5u8 {
                smgr.extend(7, &page_with(i)).unwrap();
            }
            smgr.sync(7).unwrap();
            // A staged block burned in a second batch also persists.
            smgr.extend(7, &page_with(9)).unwrap();
            smgr.sync(7).unwrap();
        }
        let smgr = WormSmgr::new(SimContext::default_1992());
        smgr.attach_platter(dir.path(), true).unwrap();
        assert_eq!(smgr.nblocks(7).unwrap(), 6);
        let mut out = alloc_page();
        for (i, want) in [0u8, 1, 2, 3, 4, 9].iter().enumerate() {
            smgr.read(7, i as u32, &mut out).unwrap();
            assert_eq!(out[0], *want, "block {i}");
        }
        // Recovered blocks are burned: still write-once.
        assert!(matches!(smgr.write(7, 0, &page_with(0)), Err(SmgrError::WormOverwrite { .. })));
    }

    /// Format pin: this trailer was computed by the byte-at-a-time CRC
    /// this file carried before the checksum moved to
    /// `pglo_pages::checksum`; a platter burned then must still load.
    #[test]
    fn golden_platter_record_trailer() {
        let dir = tempfile::tempdir().unwrap();
        let smgr = WormSmgr::new(SimContext::default_1992());
        smgr.attach_platter(dir.path(), false).unwrap();
        smgr.create(5).unwrap();
        let mut page = alloc_page();
        for (i, b) in page.iter_mut().enumerate() {
            *b = (i * 31 % 251) as u8;
        }
        smgr.extend(5, &page).unwrap();
        smgr.sync(5).unwrap();
        let bytes = fs::read(platter_path(dir.path(), 5)).unwrap();
        assert_eq!(bytes.len(), PLATTER_REC);
        assert_eq!(bytes[..PAGE_SIZE], page[..]);
        assert_eq!(bytes[PAGE_SIZE..PAGE_SIZE + 4], 0xb80e_9a62_u32.to_le_bytes());
        assert_eq!(bytes[PAGE_SIZE + 4..], PLATTER_MAGIC.to_le_bytes());
    }

    #[test]
    fn platter_torn_tail_truncated() {
        let dir = tempfile::tempdir().unwrap();
        {
            let smgr = WormSmgr::new(SimContext::default_1992());
            smgr.attach_platter(dir.path(), false).unwrap();
            smgr.create(3).unwrap();
            smgr.extend(3, &page_with(1)).unwrap();
            smgr.extend(3, &page_with(2)).unwrap();
            smgr.sync(3).unwrap();
        }
        // Tear the last record mid-page, as a crashed burn would.
        let path = platter_path(dir.path(), 3);
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - PLATTER_REC as u64 / 2).unwrap();
        drop(f);

        let smgr = WormSmgr::new(SimContext::default_1992());
        smgr.attach_platter(dir.path(), false).unwrap();
        // Only the intact record survives; the torn one was truncated.
        assert_eq!(smgr.nblocks(3).unwrap(), 1);
        let mut out = alloc_page();
        smgr.read(3, 0, &mut out).unwrap();
        assert_eq!(out[0], 1);
        assert_eq!(fs::metadata(&path).unwrap().len(), PLATTER_REC as u64);
        // The lost block can be re-staged and burned again.
        smgr.extend(3, &page_with(2)).unwrap();
        assert!(smgr.has_staged(3));
        smgr.sync(3).unwrap();
        assert!(!smgr.has_staged(3));
        assert_eq!(fs::metadata(&path).unwrap().len(), 2 * PLATTER_REC as u64);
    }

    #[test]
    fn unlink_removes_platter_file() {
        let dir = tempfile::tempdir().unwrap();
        let smgr = WormSmgr::new(SimContext::default_1992());
        smgr.attach_platter(dir.path(), false).unwrap();
        smgr.create(5).unwrap();
        smgr.extend(5, &page_with(1)).unwrap();
        smgr.sync(5).unwrap();
        assert!(platter_path(dir.path(), 5).exists());
        smgr.unlink(5).unwrap();
        assert!(!platter_path(dir.path(), 5).exists());
    }

    #[test]
    fn sync_all_burns_everything() {
        let smgr = WormSmgr::new(SimContext::default_1992());
        smgr.create(1).unwrap();
        smgr.create(2).unwrap();
        smgr.extend(1, &page_with(1)).unwrap();
        smgr.extend(2, &page_with(2)).unwrap();
        smgr.sync_all().unwrap();
        assert!(matches!(smgr.write(1, 0, &page_with(0)), Err(SmgrError::WormOverwrite { .. })));
        assert!(matches!(smgr.write(2, 0, &page_with(0)), Err(SmgrError::WormOverwrite { .. })));
    }
}
