//! Main-memory (non-volatile RAM) storage manager (§7).
//!
//! POSTGRES Version 4's second storage manager "allows relational data to
//! be stored in non-volatile random-access memory". Battery-backed RAM is
//! modelled as plain heap memory charged with the NVRAM device profile (no
//! positioning cost, memory-bus transfer).

use crate::{RelFileId, Result, SmgrError, StorageManager};
use parking_lot::{ranks, RwLock};
use pglo_pages::{PageBuf, PAGE_SIZE};
use pglo_sim::{DeviceProfile, IoStats, SimContext};
use std::collections::HashMap;

/// Storage manager holding relations entirely in (simulated non-volatile)
/// memory.
pub struct MemSmgr {
    sim: SimContext,
    profile: DeviceProfile,
    stats: IoStats,
    rels: RwLock<HashMap<RelFileId, Vec<Box<PageBuf>>>>,
}

impl MemSmgr {
    /// A memory manager charging the NVRAM profile against `sim`.
    pub fn new(sim: SimContext) -> Self {
        Self {
            sim,
            profile: DeviceProfile::nvram(),
            stats: IoStats::new(),
            rels: RwLock::with_rank(HashMap::new(), ranks::SMGR_MEM_RELS),
        }
    }

    /// Total bytes held across all relations (for Figure-1-style storage
    /// accounting).
    // LINT: allow(R14, tests check memory-resident objects through it)
    pub fn total_bytes(&self) -> u64 {
        self.rels.read().values().map(|pages| (pages.len() * PAGE_SIZE) as u64).sum()
    }
}

impl StorageManager for MemSmgr {
    fn name(&self) -> &str {
        "main_memory"
    }

    fn create(&self, rel: RelFileId) -> Result<()> {
        let mut rels = self.rels.write();
        if rels.contains_key(&rel) {
            return Err(SmgrError::AlreadyExists(rel));
        }
        rels.insert(rel, Vec::new());
        Ok(())
    }

    fn exists(&self, rel: RelFileId) -> bool {
        self.rels.read().contains_key(&rel)
    }

    fn unlink(&self, rel: RelFileId) -> Result<()> {
        self.rels.write().remove(&rel).map(|_| ()).ok_or(SmgrError::NotFound(rel))
    }

    fn nblocks(&self, rel: RelFileId) -> Result<u32> {
        self.rels.read().get(&rel).map(|p| p.len() as u32).ok_or(SmgrError::NotFound(rel))
    }

    fn extend(&self, rel: RelFileId, page: &PageBuf) -> Result<u32> {
        let _span = obs::span!("smgr.mem.extend");
        let mut rels = self.rels.write();
        let pages = rels.get_mut(&rel).ok_or(SmgrError::NotFound(rel))?;
        pages.push(Box::new(*page));
        self.sim.charge_io(&self.profile, PAGE_SIZE, true);
        self.stats.record_write(PAGE_SIZE, true);
        Ok((pages.len() - 1) as u32)
    }

    fn allocate(&self, rel: RelFileId) -> Result<u32> {
        let _span = obs::span!("smgr.mem.allocate");
        let mut rels = self.rels.write();
        let pages = rels.get_mut(&rel).ok_or(SmgrError::NotFound(rel))?;
        pages.push(Box::new([0u8; PAGE_SIZE]));
        Ok((pages.len() - 1) as u32)
    }

    fn read(&self, rel: RelFileId, block: u32, out: &mut PageBuf) -> Result<()> {
        let _span = obs::span!("smgr.mem.read");
        let rels = self.rels.read();
        let pages = rels.get(&rel).ok_or(SmgrError::NotFound(rel))?;
        let page = pages.get(block as usize).ok_or(SmgrError::OutOfRange {
            rel,
            block,
            nblocks: pages.len() as u32,
        })?;
        out.copy_from_slice(&page[..]);
        self.sim.charge_io(&self.profile, PAGE_SIZE, true);
        self.stats.record_read(PAGE_SIZE, true);
        Ok(())
    }

    fn read_many(&self, rel: RelFileId, start: u32, out: &mut [PageBuf]) -> Result<usize> {
        let rels = self.rels.read();
        let pages = rels.get(&rel).ok_or(SmgrError::NotFound(rel))?;
        if start as usize >= pages.len() || out.is_empty() {
            return Ok(0);
        }
        let n = out.len().min(pages.len() - start as usize);
        // One pass under one lock acquisition; charged as a single
        // memory-bus burst.
        for (slot, page) in out.iter_mut().take(n).enumerate() {
            page.copy_from_slice(&pages[start as usize + slot][..]);
        }
        self.sim.charge_io(&self.profile, n * PAGE_SIZE, true);
        self.stats.record_read(n * PAGE_SIZE, true);
        Ok(n)
    }

    fn write(&self, rel: RelFileId, block: u32, page: &PageBuf) -> Result<()> {
        let _span = obs::span!("smgr.mem.write");
        let mut rels = self.rels.write();
        let pages = rels.get_mut(&rel).ok_or(SmgrError::NotFound(rel))?;
        let nblocks = pages.len() as u32;
        let slot =
            pages.get_mut(block as usize).ok_or(SmgrError::OutOfRange { rel, block, nblocks })?;
        slot.copy_from_slice(&page[..]);
        self.sim.charge_io(&self.profile, PAGE_SIZE, true);
        self.stats.record_write(PAGE_SIZE, true);
        Ok(())
    }

    fn sync(&self, _rel: RelFileId) -> Result<()> {
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

    #[test]
    fn roundtrip_and_overwrite() {
        let smgr = MemSmgr::new(SimContext::default_1992());
        smgr.create(1).unwrap();
        let mut page = alloc_page();
        page[0] = 1;
        assert_eq!(smgr.extend(1, &page).unwrap(), 0);
        page[0] = 2;
        assert_eq!(smgr.extend(1, &page).unwrap(), 1);
        page[0] = 3;
        smgr.write(1, 0, &page).unwrap();
        let mut out = alloc_page();
        smgr.read(1, 0, &mut out).unwrap();
        assert_eq!(out[0], 3);
        smgr.read(1, 1, &mut out).unwrap();
        assert_eq!(out[0], 2);
        assert_eq!(smgr.nblocks(1).unwrap(), 2);
        assert_eq!(smgr.total_bytes(), 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn nvram_is_much_faster_than_disk_would_be() {
        let sim = SimContext::default_1992();
        let smgr = MemSmgr::new(sim.clone());
        smgr.create(1).unwrap();
        smgr.extend(1, &alloc_page()).unwrap();
        let ns = sim.now_ns();
        assert!(ns < 1_000_000, "NVRAM page write should be far under 1 ms, got {ns} ns");
    }

    #[test]
    fn errors() {
        let smgr = MemSmgr::new(SimContext::default_1992());
        assert!(matches!(smgr.nblocks(1), Err(SmgrError::NotFound(1))));
        smgr.create(1).unwrap();
        assert!(matches!(smgr.create(1), Err(SmgrError::AlreadyExists(1))));
        let mut out = alloc_page();
        assert!(matches!(smgr.read(1, 0, &mut out), Err(SmgrError::OutOfRange { .. })));
        smgr.unlink(1).unwrap();
        assert!(!smgr.exists(1));
        assert!(matches!(smgr.unlink(1), Err(SmgrError::NotFound(1))));
    }
}
