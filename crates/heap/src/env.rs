//! The storage environment: one value tying together everything a database
//! instance needs — simulator, storage-manager switch, buffer pool,
//! transaction manager, catalog.

use crate::{Catalog, Result};
use pglo_buffer::{
    BgWriter, BufferPool, PoolOptions, DEFAULT_POOL_FRAMES, DEFAULT_READAHEAD_WINDOW,
};
use pglo_sim::SimContext;
use pglo_smgr::{
    DiskSmgr, MemSmgr, RelFileId, SmgrError, SmgrId, SmgrSwitch, StorageManager, WormSmgr,
};
use pglo_txn::{CommitTs, DurabilityHook, Txn, TxnManager, Xid};
use pglo_wal::{Wal, WalOptions, WalRecord};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Construction options for [`StorageEnv`].
pub struct EnvOptions {
    /// Buffer pool size in 8 KB frames.
    pub pool_frames: usize,
    /// Sequential read-ahead window in blocks; 0 disables read-ahead.
    pub readahead_window: usize,
    /// Background-writer wakeup interval; `None` (the default — benchmarks
    /// reproducing the paper's figures need a deterministic simulated
    /// clock) leaves write-back to evictions and explicit flushes. The
    /// server turns this on.
    pub bgwriter_interval: Option<Duration>,
    /// Real host `sync_all` on relation sync (honest durability cost for
    /// benchmarks; off keeps tests fast).
    pub durable_sync: bool,
    /// WORM magnetic-disk cache size in blocks (0 disables — the §9.3
    /// ablation).
    pub worm_cache_blocks: usize,
    /// Redo-log segment size in bytes (clamped upward to the WAL's
    /// minimum). Small segments exercise rotation/recycling in tests;
    /// the default amortizes fsyncs for benchmarks.
    pub wal_segment_bytes: u64,
    /// Simulation context; a fresh default-1992 context if `None`.
    pub sim: Option<SimContext>,
}

impl Default for EnvOptions {
    fn default() -> Self {
        Self {
            pool_frames: DEFAULT_POOL_FRAMES,
            readahead_window: DEFAULT_READAHEAD_WINDOW,
            bgwriter_interval: None,
            durable_sync: false,
            worm_cache_blocks: pglo_smgr::worm::DEFAULT_WORM_CACHE_BLOCKS,
            wal_segment_bytes: pglo_wal::DEFAULT_SEGMENT_BYTES,
            sim: None,
        }
    }
}

/// A database instance's shared infrastructure.
///
/// The three standard storage managers of POSTGRES Version 4 (§7) are
/// registered at fixed slots: magnetic disk at 0, main memory at 1, WORM
/// jukebox at 2. Additional user-defined managers may be registered on the
/// switch afterwards and referenced by any class.
pub struct StorageEnv {
    sim: SimContext,
    switch: Arc<SmgrSwitch>,
    pool: Arc<BufferPool>,
    wal: Arc<Wal>,
    txns: Arc<TxnManager>,
    catalog: Catalog,
    base_dir: PathBuf,
    disk: SmgrId,
    worm: SmgrId,
    disk_smgr: Arc<DiskSmgr>,
    mem_smgr: Arc<MemSmgr>,
    worm_smgr: Arc<WormSmgr>,
    /// One shared latch per relation, handed out by [`Self::rel_latch`].
    /// Access methods opened independently on the same relation (e.g. a
    /// B-tree opened once per large-object handle) must serialize
    /// structure-modifying work through the *same* lock, so the latch
    /// lives here rather than in the access-method object.
    rel_latches: parking_lot::Mutex<HashMap<(SmgrId, u64), RelLatch>>,
    /// Held by [`crate::Heap::vacuum`] for a whole pass; see
    /// [`Self::vacuum_latch`].
    vacuum_latch: parking_lot::Mutex<()>,
    /// Background-writer thread, when enabled; stopped (with a final
    /// drain) when the environment drops.
    bgwriter: parking_lot::Mutex<Option<BgWriter>>,
    /// Checkpointer thread, when enabled; stopped (with a final
    /// checkpoint) via [`Self::stop_checkpointer`].
    checkpointer: parking_lot::Mutex<Option<Checkpointer>>,
}

/// A relation-wide latch shared by every access-method object open on it.
pub type RelLatch = Arc<parking_lot::Mutex<()>>;

/// Commit durability via the redo log: capture any still-unlogged dirty
/// pages as full-page images, append the commit record, and group-commit
/// fsync up to it. Installed on the [`TxnManager`], which calls it with no
/// transaction locks held — only after it returns does the transaction
/// become visibly committed.
struct WalDurability {
    pool: Arc<BufferPool>,
    wal: Arc<Wal>,
}

impl DurabilityHook for WalDurability {
    fn prepare_commit(&self, xid: Xid, ts: CommitTs) -> std::io::Result<()> {
        self.pool.capture_pending().map_err(std::io::Error::other)?;
        let end = self.wal.append(&WalRecord::Commit { xid: xid.0, ts })?;
        self.wal.flush_to(end)
    }
}

/// Replay one page image: make the relation exist, make it long enough,
/// write the image home. Every step is idempotent, so replaying the same
/// record twice (crash during recovery) is harmless.
fn redo_page_image(
    mgr: &Arc<dyn StorageManager>,
    rel: RelFileId,
    block: u32,
    image: &pglo_pages::PageBuf,
) -> std::io::Result<()> {
    if !mgr.exists(rel) {
        match mgr.create(rel) {
            Ok(()) | Err(SmgrError::AlreadyExists(_)) => {}
            Err(e) => return Err(std::io::Error::other(e)),
        }
    }
    let zero = pglo_pages::alloc_page();
    while mgr.nblocks(rel).map_err(std::io::Error::other)? <= block {
        mgr.extend(rel, &zero).map_err(std::io::Error::other)?;
    }
    match mgr.write(rel, block, image) {
        Ok(()) => Ok(()),
        // The block was already burned to the platter before the crash;
        // the durable copy wins and the image is stale-identical.
        Err(SmgrError::WormOverwrite { .. }) => Ok(()),
        Err(e) => Err(std::io::Error::other(e)),
    }
}

/// One checkpoint pass: bound the horizon by the log end *before* scanning
/// (a concurrent commit may append images below a later-read end), sync
/// data files so the horizon never overtakes a write still in the page
/// cache, prune recycle pins for WORM relations whose blocks are all
/// burned (the platter file is then their durable home and replay is
/// unneeded), then let the WAL clamp by the surviving pins and recycle
/// segments.
fn checkpoint_once(
    pool: &BufferPool,
    wal: &Wal,
    disk: &DiskSmgr,
    worm_id: SmgrId,
    worm: &WormSmgr,
) -> std::io::Result<()> {
    let cap = wal.end_lsn();
    let horizon = pool.dirty_horizon().map_or(cap, |h| h.min(cap));
    disk.sync_all_open().map_err(std::io::Error::other)?;
    wal.prune_pins(worm_id.0 as u32, |rel| worm.has_staged(rel));
    wal.checkpoint(Some(horizon))?;
    Ok(())
}

/// Handle to a running checkpointer thread. Dropping it (or calling
/// [`Checkpointer::stop`]) stops the thread after one final checkpoint.
pub struct Checkpointer {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

/// Count one failed checkpoint pass (or a checkpointer thread that died)
/// where a `stats` reply shows it.
fn note_checkpoint_error() {
    obs::counter!("heap.checkpoint.errors").inc();
}

impl Checkpointer {
    fn spawn(
        pool: Arc<BufferPool>,
        wal: Arc<Wal>,
        disk: Arc<DiskSmgr>,
        worm_id: SmgrId,
        worm: Arc<WormSmgr>,
        interval: Duration,
    ) -> std::io::Result<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let join = std::thread::Builder::new().name("checkpointer".into()).spawn(move || {
            loop {
                // Sleep in short slices so shutdown stays responsive.
                let mut slept = Duration::ZERO;
                while slept < interval && !flag.load(Ordering::Acquire) {
                    let slice = (interval - slept).min(Duration::from_millis(5));
                    std::thread::sleep(slice);
                    slept += slice;
                }
                // A checkpoint failure (full disk, I/O error) only delays
                // horizon advance — durability is unaffected — so count it
                // and retry next cycle rather than killing the thread.
                if checkpoint_once(&pool, &wal, &disk, worm_id, &worm).is_err() {
                    note_checkpoint_error();
                }
                if flag.load(Ordering::Acquire) {
                    return;
                }
            }
        })?;
        Ok(Self { stop, join: Some(join) })
    }

    /// Stop and join the checkpointer (idempotent); the loop takes one
    /// final checkpoint on its way out.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(join) = self.join.take() {
            if join.join().is_err() {
                note_checkpoint_error();
            }
        }
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        self.stop();
    }
}

impl StorageEnv {
    /// Open (or create) a database rooted at `dir` with default options.
    // LINT: allow(R14, the default-options entry point every example and test opens a store with)
    pub fn open(dir: impl AsRef<Path>) -> Result<Arc<Self>> {
        Self::open_with(dir, EnvOptions::default())
    }

    /// Open with explicit options.
    pub fn open_with(dir: impl AsRef<Path>, opts: EnvOptions) -> Result<Arc<Self>> {
        let base_dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&base_dir)
            .map_err(|e| crate::HeapError::Catalog(format!("create db dir: {e}")))?;
        let sim = opts.sim.unwrap_or_else(SimContext::default_1992);
        let switch = Arc::new(SmgrSwitch::new());
        let mut disk_raw =
            DiskSmgr::new(base_dir.join("heap"), sim.clone()).map_err(crate::HeapError::Smgr)?;
        disk_raw.set_durable_sync(opts.durable_sync);
        let disk_smgr = Arc::new(disk_raw);
        let mem_smgr = Arc::new(MemSmgr::new(sim.clone()));
        let worm_smgr = Arc::new(WormSmgr::with_cache_blocks(sim.clone(), opts.worm_cache_blocks));
        let disk = switch.register(Arc::clone(&disk_smgr) as Arc<dyn StorageManager>);
        switch.register(Arc::clone(&mem_smgr) as Arc<dyn StorageManager>);
        let worm = switch.register(Arc::clone(&worm_smgr) as Arc<dyn StorageManager>);
        let pool = Arc::new(BufferPool::with_options(
            Arc::clone(&switch),
            PoolOptions {
                frames: opts.pool_frames,
                readahead_window: opts.readahead_window,
                ..PoolOptions::default()
            },
        ));
        // Open the redo log and replay it before any subsystem that reads
        // storage state (catalog, commit log). Replay re-applies page
        // images whose home writes may not have reached disk before a
        // crash; the clog repair below then re-marks any commit whose WAL
        // record survived but whose clog line did not. Uncommitted
        // replayed tuples are filtered by MVCC at read time — unknown
        // XIDs read as aborted — so redo needs no undo pass.
        let wal = Arc::new(
            Wal::open(
                base_dir.join("wal"),
                WalOptions {
                    durable_sync: opts.durable_sync,
                    segment_bytes: opts.wal_segment_bytes,
                },
            )
            .map_err(|e| crate::HeapError::Catalog(format!("open wal: {e}")))?,
        );
        // WORM jukebox writes are simulated, so the "platter" needs a real
        // durable home on the host; attach it before replay so recovered
        // burns land on it and already-burned blocks come back write-once.
        worm_smgr
            .attach_platter(base_dir.join("worm"), opts.durable_sync)
            .map_err(|e| crate::HeapError::Catalog(format!("attach worm platter: {e}")))?;
        // Until a relation's blocks are all burned to the platter, the WAL
        // image is a staged block's only durable copy; pin the WORM
        // manager's records against segment recycling. Checkpoints prune
        // each relation's pin once `has_staged` proves it platter-durable.
        wal.pin_smgr(worm.0 as u32);
        let mut replayed_commits: Vec<(Xid, CommitTs)> = Vec::new();
        wal.replay(|_lsn, rec| match rec {
            WalRecord::PageImage { smgr, rel, block, image } => {
                match switch.get(SmgrId(smgr as u16)) {
                    Ok(mgr) => redo_page_image(&mgr, rel, block, &image),
                    // A manager registered after the standard three in a
                    // prior run; its relations are rebuilt by whoever
                    // registers it, not by us.
                    Err(_) => Ok(()),
                }
            }
            WalRecord::Commit { xid, ts } => {
                replayed_commits.push((Xid(xid), ts));
                Ok(())
            }
            WalRecord::WormBurn { smgr, rel } => match switch.get(SmgrId(smgr as u16)) {
                Ok(mgr) => match mgr.sync(rel) {
                    // The relation may have been burned and unlinked, or
                    // never reached the cache before the crash.
                    Ok(()) | Err(SmgrError::NotFound(_)) => Ok(()),
                    Err(e) => Err(std::io::Error::other(e)),
                },
                Err(_) => Ok(()),
            },
            WalRecord::Checkpoint { .. } => Ok(()),
        })
        .map_err(|e| crate::HeapError::Catalog(format!("wal replay: {e}")))?;
        let bgwriter = match opts.bgwriter_interval {
            Some(interval) => Some(
                pool.spawn_bgwriter(interval)
                    .map_err(|e| crate::HeapError::Catalog(format!("spawn bgwriter: {e}")))?,
            ),
            None => None,
        };
        let catalog = Catalog::open(&base_dir)?;
        let txns = Arc::new(
            TxnManager::open(base_dir.join("clog"))
                .map_err(|e| crate::HeapError::Catalog(format!("open commit log: {e}")))?,
        );
        // Repair the clog: a crash between WAL commit-record flush and the
        // clog append leaves a committed transaction looking in-progress.
        for (xid, ts) in replayed_commits {
            txns.ensure_committed(xid, ts);
        }
        pool.set_wal(Arc::clone(&wal));
        txns.set_durability_hook(Arc::new(WalDurability {
            pool: Arc::clone(&pool),
            wal: Arc::clone(&wal),
        }));
        // Checkpoint far less often than the bgwriter writes back: the
        // horizon only advances once home writes are durable, so each
        // checkpoint costs an fsync sweep in durable mode.
        let checkpointer = match opts.bgwriter_interval {
            Some(interval) => Some(
                Checkpointer::spawn(
                    Arc::clone(&pool),
                    Arc::clone(&wal),
                    Arc::clone(&disk_smgr),
                    worm,
                    Arc::clone(&worm_smgr),
                    interval * 16,
                )
                .map_err(|e| crate::HeapError::Catalog(format!("spawn checkpointer: {e}")))?,
            ),
            None => None,
        };
        Ok(Arc::new(Self {
            sim,
            switch,
            pool,
            wal,
            txns,
            catalog,
            base_dir,
            disk,
            worm,
            disk_smgr,
            mem_smgr,
            worm_smgr,
            rel_latches: parking_lot::Mutex::with_rank(
                HashMap::new(),
                parking_lot::ranks::ENV_REL_LATCHES,
            ),
            vacuum_latch: parking_lot::Mutex::with_rank((), parking_lot::ranks::ENV_VACUUM),
            bgwriter: parking_lot::Mutex::with_rank(bgwriter, parking_lot::ranks::ENV_BGWRITER),
            checkpointer: parking_lot::Mutex::with_rank(
                checkpointer,
                parking_lot::ranks::ENV_CHECKPOINTER,
            ),
        }))
    }

    /// Stop the background writer (final drain included); idempotent.
    pub fn stop_bgwriter(&self) {
        if let Some(mut bg) = self.bgwriter.lock().take() {
            bg.stop();
        }
    }

    /// Stop the checkpointer (final checkpoint included); idempotent.
    pub fn stop_checkpointer(&self) {
        if let Some(mut cp) = self.checkpointer.lock().take() {
            cp.stop();
        }
    }

    /// Take a checkpoint: advance the WAL redo horizon behind the oldest
    /// dirty page still owing a home write, fsyncing data files first in
    /// durable mode so the horizon never passes a write the disk hasn't
    /// accepted, and releasing recycle pins for WORM relations that are
    /// fully burned. Recovery then replays only from that horizon, and
    /// older log segments are recycled.
    pub fn checkpoint(&self) -> Result<()> {
        checkpoint_once(&self.pool, &self.wal, &self.disk_smgr, self.worm, &self.worm_smgr)
            .map_err(|e| crate::HeapError::Catalog(format!("checkpoint: {e}")))
    }

    /// The shared latch for relation `oid` on storage manager `smgr`.
    /// Every caller gets the same `Arc`, so independently opened access
    /// methods on one relation contend on one lock.
    pub fn rel_latch(&self, smgr: SmgrId, oid: u64) -> RelLatch {
        Arc::clone(self.rel_latches.lock().entry((smgr, oid)).or_insert_with(|| {
            Arc::new(parking_lot::Mutex::with_rank((), parking_lot::ranks::REL_LATCH))
        }))
    }

    /// The latch that admits one vacuum pass at a time. A pass remembers
    /// its doomed slots between unindexing and freeing them; a second pass
    /// over the same heap would remember the same slots, and after the
    /// first freed them and an insert took one, unindex and free the live
    /// tuple there. Vacuum is maintenance, so one latch serves every heap.
    pub fn vacuum_latch(&self) -> &parking_lot::Mutex<()> {
        &self.vacuum_latch
    }

    /// Begin a transaction.
    pub fn begin(&self) -> Txn {
        self.txns.begin()
    }

    /// The simulation context charging every device/CPU operation.
    pub fn sim(&self) -> &SimContext {
        &self.sim
    }

    /// The storage-manager switch.
    pub fn switch(&self) -> &Arc<SmgrSwitch> {
        &self.switch
    }

    /// The shared buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The transaction manager.
    pub fn txns(&self) -> &Arc<TxnManager> {
        &self.txns
    }

    /// The redo log.
    pub fn wal(&self) -> &Arc<Wal> {
        &self.wal
    }

    /// The class catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Directory where DBMS-owned p-files live (§6.2's `newfilename()`
    /// allocates here).
    pub fn pfile_dir(&self) -> PathBuf {
        self.base_dir.join("pfiles")
    }

    /// Slot of the magnetic-disk manager (the default for new classes).
    pub fn disk_id(&self) -> SmgrId {
        self.disk
    }

    /// Slot of the WORM-jukebox manager.
    pub fn worm_id(&self) -> SmgrId {
        self.worm
    }

    /// Typed handle to the memory manager.
    // LINT: allow(R14, tests read the main-memory manager's byte count through it)
    pub fn mem_smgr(&self) -> &Arc<MemSmgr> {
        &self.mem_smgr
    }

    /// Typed handle to the WORM manager (benchmarks read cache stats, burn
    /// platters, drop the cache).
    pub fn worm_smgr(&self) -> &Arc<WormSmgr> {
        &self.worm_smgr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_registers_standard_managers() {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open(dir.path()).unwrap();
        assert_eq!(env.switch().len(), 3);
        assert_eq!(env.switch().get(env.disk_id()).unwrap().name(), "magnetic_disk");
        // Slot order: disk, main memory, WORM.
        assert_eq!(env.switch().get(SmgrId(1)).unwrap().name(), "main_memory");
        assert_eq!(env.switch().get(env.worm_id()).unwrap().name(), "worm_jukebox");
    }

    #[test]
    fn begin_uses_shared_manager() {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open(dir.path()).unwrap();
        let t = env.begin();
        let x = t.xid();
        t.commit();
        assert!(env.txns().commit_ts(x).is_some());
    }

    #[test]
    fn user_defined_manager_registers_after_standard_three() {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open(dir.path()).unwrap();
        let custom = Arc::new(MemSmgr::new(env.sim().clone()));
        let id = env.switch().register(custom);
        assert_eq!(id.0, 3);
    }

    /// With an hour between passes, the only checkpoint the thread takes
    /// is the final one `stop` asks for; by then the log directory is gone
    /// and segment recycling cannot list it.
    #[test]
    fn failing_checkpoint_is_counted() {
        let dir = tempfile::tempdir().unwrap();
        let opts =
            EnvOptions { bgwriter_interval: Some(Duration::from_secs(3600)), ..Default::default() };
        let env = StorageEnv::open_with(dir.path(), opts).unwrap();
        env.begin().commit();
        let errors = || {
            obs::snapshot_entries()
                .into_iter()
                .find(|e| e.name == "heap.checkpoint.errors")
                .map(|e| e.value)
        };
        assert_eq!(errors(), None, "no pass has failed yet");
        std::fs::remove_dir_all(dir.path().join("wal")).unwrap();
        env.stop_checkpointer();
        assert_eq!(errors(), Some(obs::MetricValue::Counter(1)));
    }

    #[test]
    fn reopen_preserves_catalog() {
        let dir = tempfile::tempdir().unwrap();
        {
            let env = StorageEnv::open(dir.path()).unwrap();
            env.catalog()
                .create_class("T", crate::ClassKind::Heap, env.disk_id(), Default::default())
                .unwrap();
        }
        let env = StorageEnv::open(dir.path()).unwrap();
        assert!(env.catalog().get("T").is_some());
    }
}
