//! The storage-manager switch (§7 of the paper).
//!
//! POSTGRES lets large-object data live on any of several storage devices
//! through *user-defined storage managers*: "our abstraction is modelled
//! after the UNIX file system switch, and any user can define a new storage
//! manager by writing and registering a small set of interface routines."
//!
//! [`StorageManager`] is that small set of interface routines; the
//! [`SmgrSwitch`] is the table. Version 4 of POSTGRES shipped three
//! managers, all reproduced here:
//!
//! * [`DiskSmgr`] — classes on local magnetic disk, "a thin veneer on top
//!   of the UNIX file system";
//! * [`MemSmgr`] — classes in non-volatile random-access memory;
//! * [`WormSmgr`] — classes on a write-once optical-disk jukebox, fronted
//!   by a magnetic-disk block cache (§9.3).
//!
//! Because every access method in this workspace performs I/O only through
//! the switch, a storage manager registered by a user automatically works
//! for heaps, B-trees, all four large-object implementations, and therefore
//! Inversion files — the property §10 highlights.

// Library code: no panic sites, unranked locks or swallowed errors.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_methods,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok
    )
)]
#![deny(unsafe_code)]

pub mod disk;
pub mod lru;
pub mod mem;
pub mod native;
pub mod worm;

pub use disk::DiskSmgr;
pub use mem::MemSmgr;
pub use native::NativeFile;
pub use worm::WormSmgr;

use parking_lot::{ranks, RwLock};
use pglo_pages::PageBuf;
use std::sync::Arc;

/// Identifies a relation's physical file within a storage manager.
pub type RelFileId = u64;

/// Index of a storage manager in the [`SmgrSwitch`] table. Stored in class
/// metadata so a class remembers which device it lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SmgrId(pub u16);

/// Errors from storage-manager operations.
#[derive(Debug)]
pub enum SmgrError {
    /// Underlying host I/O failure.
    Io(std::io::Error),
    /// The relation has not been created in this manager.
    NotFound(RelFileId),
    /// Block number at or past the end of the relation.
    OutOfRange {
        /// The relation probed.
        rel: RelFileId,
        /// The offending block number.
        block: u32,
        /// The relation's actual length in blocks.
        nblocks: u32,
    },
    /// Attempt to overwrite a block already burned to write-once media.
    WormOverwrite {
        /// The relation written.
        rel: RelFileId,
        /// The burned block.
        block: u32,
    },
    /// `create` of a relation that already exists.
    AlreadyExists(RelFileId),
    /// The switch has no manager at this index.
    UnknownManager(SmgrId),
}

impl std::fmt::Display for SmgrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SmgrError::Io(e) => write!(f, "I/O error: {e}"),
            SmgrError::NotFound(rel) => write!(f, "relation {rel} not found"),
            SmgrError::OutOfRange { rel, block, nblocks } => {
                write!(f, "block {block} out of range for relation {rel} ({nblocks} blocks)")
            }
            SmgrError::WormOverwrite { rel, block } => {
                write!(f, "cannot overwrite burned WORM block {block} of relation {rel}")
            }
            SmgrError::AlreadyExists(rel) => write!(f, "relation {rel} already exists"),
            SmgrError::UnknownManager(id) => write!(f, "no storage manager registered at {id:?}"),
        }
    }
}

impl std::error::Error for SmgrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SmgrError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SmgrError {
    fn from(e: std::io::Error) -> Self {
        SmgrError::Io(e)
    }
}

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, SmgrError>;

/// The interface routines a storage manager must provide — the paper's
/// "small set of interface routines" (§7).
///
/// All methods take `&self`; implementations handle their own locking so
/// the switch can hand out shared references freely.
pub trait StorageManager: Send + Sync {
    /// Short device name ("magnetic_disk", "main_memory", "worm_jukebox", …).
    fn name(&self) -> &str;

    /// Create the physical file for a relation. Errors if it exists.
    fn create(&self, rel: RelFileId) -> Result<()>;

    /// Whether the relation's file exists.
    fn exists(&self, rel: RelFileId) -> bool;

    /// Remove the relation's file and all its blocks.
    fn unlink(&self, rel: RelFileId) -> Result<()>;

    /// Number of blocks currently allocated to the relation.
    fn nblocks(&self, rel: RelFileId) -> Result<u32>;

    /// Append a new block containing `page`, returning its block number.
    fn extend(&self, rel: RelFileId, page: &PageBuf) -> Result<u32>;

    /// Allocate a new zeroed block at the end of the relation *without*
    /// transferring data — delayed allocation. The block's first real
    /// image arrives via a later `write` (typically the buffer pool's
    /// flush), so the page is paid for once, not twice.
    fn allocate(&self, rel: RelFileId) -> Result<u32>;

    /// Read block `block` into `out`.
    fn read(&self, rel: RelFileId, block: u32, out: &mut PageBuf) -> Result<()>;

    /// Read up to `out.len()` consecutive blocks starting at `start` into
    /// `out`, returning how many were read — short at end of relation, 0
    /// when `start` is at or past it (prefetch-friendly: no
    /// [`SmgrError::OutOfRange`] for running off the end).
    ///
    /// The default implementation loops over [`StorageManager::read`];
    /// device managers override it to issue one contiguous transfer, which
    /// is what makes the buffer pool's sequential read-ahead cheaper than
    /// the block-at-a-time path it replaces.
    fn read_many(&self, rel: RelFileId, start: u32, out: &mut [PageBuf]) -> Result<usize> {
        let nblocks = self.nblocks(rel)?;
        if start >= nblocks || out.is_empty() {
            return Ok(0);
        }
        let n = out.len().min((nblocks - start) as usize);
        for (i, page) in out.iter_mut().take(n).enumerate() {
            self.read(rel, start + i as u32, page)?;
        }
        Ok(n)
    }

    /// Overwrite block `block`. Write-once media may refuse
    /// ([`SmgrError::WormOverwrite`]) once the block has been made durable.
    fn write(&self, rel: RelFileId, block: u32, page: &PageBuf) -> Result<()>;

    /// Force the relation's blocks to stable storage.
    fn sync(&self, rel: RelFileId) -> Result<()>;

    /// Whether committed blocks may be overwritten in place. False for
    /// write-once media.
    fn supports_overwrite(&self) -> bool {
        true
    }

    /// Current reading of the simulated device clock, in nanoseconds;
    /// 0 for managers without one. The buffer pool samples this around
    /// reads (adding the delta to real wall-clock time) to estimate
    /// per-read device latency for its read-ahead gate. The clock may be
    /// shared between devices and advanced by other threads, so a delta
    /// is a heuristic over-estimate under concurrency, never an exact
    /// per-op cost — which is fine for a gate that only needs to tell a
    /// ~100 µs simulated 1992 device from a ~µs host page cache.
    fn clock_ns(&self) -> u64 {
        0
    }

    /// Aggregate I/O statistics for this device.
    fn io_stats(&self) -> pglo_sim::stats::IoSnapshot;

    /// Zero the I/O statistics.
    fn reset_io_stats(&self);
}

/// The table-driven storage-manager switch.
///
/// Managers are registered at database startup (or later — registration is
/// dynamic, which is the §7 extensibility story) and addressed by
/// [`SmgrId`].
pub struct SmgrSwitch {
    table: RwLock<Vec<Arc<dyn StorageManager>>>,
}

impl Default for SmgrSwitch {
    fn default() -> Self {
        Self::new()
    }
}

impl SmgrSwitch {
    /// An empty switch.
    pub fn new() -> Self {
        Self { table: RwLock::with_rank(Vec::new(), ranks::SMGR_SWITCH) }
    }

    /// Register a manager, returning its slot in the table.
    pub fn register(&self, smgr: Arc<dyn StorageManager>) -> SmgrId {
        let mut t = self.table.write();
        t.push(smgr);
        SmgrId((t.len() - 1) as u16)
    }

    /// Look up a manager by slot.
    pub fn get(&self, id: SmgrId) -> Result<Arc<dyn StorageManager>> {
        self.table.read().get(id.0 as usize).cloned().ok_or(SmgrError::UnknownManager(id))
    }

    /// Look up a manager by name (the `create ... with (smgr = "...")`
    /// path in the query language).
    pub fn by_name(&self, name: &str) -> Option<(SmgrId, Arc<dyn StorageManager>)> {
        self.table
            .read()
            .iter()
            .enumerate()
            .find(|(_, m)| m.name() == name)
            .map(|(i, m)| (SmgrId(i as u16), Arc::clone(m)))
    }

    /// Number of registered managers.
    pub fn len(&self) -> usize {
        self.table.read().len()
    }

    /// True if no managers are registered.
    pub fn is_empty(&self) -> bool {
        self.table.read().is_empty()
    }
}

/// Tracks the last block touched per relation so device charging can
/// distinguish sequential from random access.
pub(crate) struct SeqTracker {
    last: parking_lot::Mutex<std::collections::HashMap<RelFileId, u32>>,
}

impl Default for SeqTracker {
    fn default() -> Self {
        Self {
            last: parking_lot::Mutex::with_rank(std::collections::HashMap::new(), ranks::SMGR_SEQ),
        }
    }
}

impl SeqTracker {
    /// Record an access to `block` and report whether it was sequential
    /// (immediately following, or repeating, the previous access to the
    /// same relation).
    pub fn touch(&self, rel: RelFileId, block: u32) -> bool {
        self.touch_run(rel, block, 1)
    }

    /// Record an access to the run `[start, start + len)` and report
    /// whether its first block continued the previous access — a
    /// multi-block transfer pays at most one positioning cost.
    pub fn touch_run(&self, rel: RelFileId, start: u32, len: u32) -> bool {
        let mut m = self.last.lock();
        let seq = m.get(&rel).is_some_and(|&prev| start == prev + 1 || start == prev);
        m.insert(rel, start + len.saturating_sub(1));
        seq
    }

    pub fn forget(&self, rel: RelFileId) {
        self.last.lock().remove(&rel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_tracker_detects_patterns() {
        let t = SeqTracker::default();
        assert!(!t.touch(1, 0), "first access is a seek");
        assert!(t.touch(1, 1));
        assert!(t.touch(1, 2));
        assert!(t.touch(1, 2), "re-read of same block needs no seek");
        assert!(!t.touch(1, 9));
        assert!(!t.touch(2, 10), "different relation is independent");
        t.forget(1);
        assert!(!t.touch(1, 3));
    }

    #[test]
    fn touch_run_records_last_block_of_run() {
        let t = SeqTracker::default();
        assert!(!t.touch_run(1, 0, 4), "first run is a seek");
        assert!(t.touch_run(1, 4, 4), "run continuing the previous run's tail is sequential");
        assert!(t.touch_run(1, 7, 1), "repeating the tail block needs no seek");
        assert!(!t.touch_run(1, 20, 4));
        assert!(t.touch(1, 24), "single-block touch continues a run's tail");
    }

    #[test]
    fn default_read_many_short_at_eof() {
        let sim = pglo_sim::SimContext::default_1992();
        let m = MemSmgr::new(sim);
        m.create(1).unwrap();
        for i in 0..3u8 {
            let mut pg = pglo_pages::alloc_page();
            pg[0] = i;
            m.extend(1, &pg).unwrap();
        }
        let mut out = vec![[0u8; pglo_pages::PAGE_SIZE]; 5];
        assert_eq!(m.read_many(1, 1, &mut out).unwrap(), 2, "short count at end of relation");
        assert_eq!(out[0][0], 1);
        assert_eq!(out[1][0], 2);
        assert_eq!(m.read_many(1, 3, &mut out).unwrap(), 0, "past-the-end reads nothing");
        assert_eq!(m.read_many(1, 0, &mut []).unwrap(), 0);
    }

    #[test]
    fn switch_register_and_lookup() {
        let sim = pglo_sim::SimContext::default_1992();
        let sw = SmgrSwitch::new();
        assert!(sw.is_empty());
        let id = sw.register(Arc::new(MemSmgr::new(sim)));
        assert_eq!(sw.len(), 1);
        assert_eq!(sw.get(id).unwrap().name(), "main_memory");
        assert!(sw.by_name("main_memory").is_some());
        assert!(sw.by_name("nope").is_none());
        assert!(matches!(sw.get(SmgrId(9)), Err(SmgrError::UnknownManager(_))));
    }
}
