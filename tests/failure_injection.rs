//! Failure injection: a user-defined storage manager that fails on demand,
//! exercising §7's extensibility and the error paths of every layer above.

use parking_lot::Mutex;
use pglo::pages::PageBuf;
use pglo::prelude::*;
use pglo::smgr::{RelFileId, SmgrError, StorageManager};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Wraps another storage manager; fails I/O while `armed`.
struct FlakySmgr {
    inner: Arc<dyn StorageManager>,
    /// When Some(n): the n-th upcoming read/write fails (0 = next).
    fuse: Mutex<Option<u64>>,
    ops: AtomicU64,
}

impl FlakySmgr {
    fn new(inner: Arc<dyn StorageManager>) -> Arc<Self> {
        Arc::new(Self { inner, fuse: Mutex::new(None), ops: AtomicU64::new(0) })
    }

    fn arm_after(&self, n: u64) {
        *self.fuse.lock() = Some(n);
    }

    fn disarm(&self) {
        *self.fuse.lock() = None;
    }

    fn maybe_fail(&self) -> pglo::smgr::Result<()> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        let mut fuse = self.fuse.lock();
        match fuse.as_mut() {
            Some(0) => {
                *fuse = None;
                Err(SmgrError::Io(std::io::Error::other("injected device failure")))
            }
            Some(n) => {
                *n -= 1;
                Ok(())
            }
            None => Ok(()),
        }
    }
}

impl StorageManager for FlakySmgr {
    fn name(&self) -> &str {
        "flaky_device"
    }
    fn create(&self, rel: RelFileId) -> pglo::smgr::Result<()> {
        self.inner.create(rel)
    }
    fn exists(&self, rel: RelFileId) -> bool {
        self.inner.exists(rel)
    }
    fn unlink(&self, rel: RelFileId) -> pglo::smgr::Result<()> {
        self.inner.unlink(rel)
    }
    fn nblocks(&self, rel: RelFileId) -> pglo::smgr::Result<u32> {
        self.inner.nblocks(rel)
    }
    fn extend(&self, rel: RelFileId, page: &PageBuf) -> pglo::smgr::Result<u32> {
        self.maybe_fail()?;
        self.inner.extend(rel, page)
    }
    fn allocate(&self, rel: RelFileId) -> pglo::smgr::Result<u32> {
        self.inner.allocate(rel)
    }
    fn read(&self, rel: RelFileId, block: u32, out: &mut PageBuf) -> pglo::smgr::Result<()> {
        self.maybe_fail()?;
        self.inner.read(rel, block, out)
    }
    fn write(&self, rel: RelFileId, block: u32, page: &PageBuf) -> pglo::smgr::Result<()> {
        self.maybe_fail()?;
        self.inner.write(rel, block, page)
    }
    fn sync(&self, rel: RelFileId) -> pglo::smgr::Result<()> {
        self.inner.sync(rel)
    }
    fn io_stats(&self) -> pglo::sim::stats::IoSnapshot {
        self.inner.io_stats()
    }
    fn reset_io_stats(&self) {
        self.inner.reset_io_stats()
    }
}

fn setup() -> (tempfile::TempDir, Arc<StorageEnv>, Arc<FlakySmgr>, pglo::smgr::SmgrId) {
    let dir = tempfile::tempdir().unwrap();
    let env = StorageEnv::open(dir.path()).unwrap();
    let flaky = FlakySmgr::new(Arc::new(pglo::smgr::MemSmgr::new(env.sim().clone())));
    let id = env.switch().register(Arc::clone(&flaky) as Arc<dyn StorageManager>);
    (dir, env, flaky, id)
}

#[test]
fn read_failures_surface_as_errors_not_panics() {
    let (_d, env, flaky, smgr_id) = setup();
    let store = LoStore::new(Arc::clone(&env)).unwrap();
    let txn = env.begin();
    let id = store.create(&txn, &LoSpec::fchunk().on_smgr(smgr_id)).unwrap();
    {
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        h.write(&vec![7u8; 50_000]).unwrap();
        h.close().unwrap();
    }
    env.pool().flush_all().unwrap();
    env.pool().discard_rel(smgr_id, store.meta(id).unwrap().data_rel);
    // Fail the very next device read.
    flaky.arm_after(0);
    let mut h = store.open(&txn, id, OpenMode::ReadOnly).unwrap();
    let mut buf = [0u8; 100];
    let err = h.read_at(0, &mut buf).unwrap_err();
    assert!(err.to_string().contains("injected device failure"), "{err}");
    // After the fault clears, the same handle works again.
    flaky.disarm();
    assert_eq!(h.read_at(0, &mut buf).unwrap(), 100);
    assert!(buf.iter().all(|&b| b == 7));
    h.close().unwrap();
    txn.commit();
}

#[test]
fn write_failures_do_not_corrupt_committed_data() {
    let (_d, env, flaky, smgr_id) = setup();
    let heap = pglo::heap::Heap::create(&env, "T", smgr_id, Default::default()).unwrap();
    let t1 = env.begin();
    let mut tids = Vec::new();
    for i in 0..50u8 {
        tids.push(heap.insert(&t1, &vec![i; 2000]).unwrap());
    }
    t1.commit();
    heap.flush().unwrap();
    // Inject a failure during a burst of updates; the transaction aborts.
    // (Drop the relation's cached pages so the updates must re-read from
    // the device, where the fuse lives.)
    env.pool().discard_rel(smgr_id, heap.rel());
    let t2 = env.begin();
    flaky.arm_after(10);
    let mut failed = false;
    for (i, tid) in tids.iter().enumerate() {
        match heap.update(&t2, *tid, &vec![0xFF; 2000]) {
            Ok(_) => {}
            Err(e) => {
                assert!(e.to_string().contains("injected"), "{e}");
                failed = true;
                break;
            } // (update either fully applies or errors; no partial tuple)
        }
        let _ = i;
    }
    assert!(failed, "the fuse must have blown");
    flaky.disarm();
    t2.abort();
    // Every original row is intact and visible.
    let t3 = env.begin();
    let vis = Visibility::for_txn(&t3);
    for (i, tid) in tids.iter().enumerate() {
        // Updated-then-aborted rows still resolve to their original value.
        let row = heap.fetch(*tid, &vis).unwrap().expect("row survives");
        assert_eq!(row, vec![i as u8; 2000]);
    }
    t3.commit();
}

#[test]
fn inversion_on_flaky_device_fails_cleanly_then_recovers() {
    let (_d, env, flaky, smgr_id) = setup();
    let store = Arc::new(LoStore::new(Arc::clone(&env)).unwrap());
    let fs =
        InversionFs::open(&env, Arc::clone(&store), LoSpec::fchunk().on_smgr(smgr_id)).unwrap();
    let txn = env.begin();
    fs.create(&txn, "/file").unwrap();
    {
        let mut f = fs.open_file(&txn, "/file", OpenMode::ReadWrite).unwrap();
        f.write(&vec![1u8; 30_000]).unwrap();
        f.close().unwrap();
    }
    env.pool().flush_all().unwrap();
    txn.commit();
    // Drop cached pages so reads must touch the device, then blow the fuse.
    let t2 = env.begin();
    let (file_id, _) = fs.resolve(&t2, "/file").unwrap();
    let _ = file_id;
    let meta_rels: Vec<u64> = env
        .catalog()
        .class_names()
        .iter()
        .filter_map(|n| env.catalog().get(n))
        .map(|m| m.oid)
        .collect();
    for rel in meta_rels {
        env.pool().discard_rel(smgr_id, rel);
    }
    flaky.arm_after(0);
    // Either resolution or the first content read hits the fault.
    let failed = {
        match fs.open_file(&t2, "/file", OpenMode::ReadOnly) {
            Err(e) => {
                assert!(e.to_string().contains("injected"), "{e}");
                true
            }
            Ok(mut f) => {
                let outcome = match f.read_to_vec() {
                    Err(e) => {
                        assert!(e.to_string().contains("injected"), "{e}");
                        true
                    }
                    Ok(_) => false,
                };
                f.close().unwrap();
                outcome
            }
        }
    };
    assert!(failed, "a device fault must surface");
    // Recovery: disarm and read successfully.
    flaky.disarm();
    let mut f = fs.open_file(&t2, "/file", OpenMode::ReadOnly).unwrap();
    assert_eq!(f.read_to_vec().unwrap(), vec![1u8; 30_000]);
    f.close().unwrap();
    t2.commit();
}

#[test]
fn buffer_pool_stays_consistent_after_load_failure() {
    let (_d, env, flaky, smgr_id) = setup();
    let heap = pglo::heap::Heap::create(&env, "T", smgr_id, Default::default()).unwrap();
    let t = env.begin();
    let tid = heap.insert(&t, b"payload").unwrap();
    t.commit();
    heap.flush().unwrap();
    env.pool().discard_rel(smgr_id, heap.rel());
    // Fail the page load, then retry: the pool must not have cached a
    // half-loaded frame under the key.
    flaky.arm_after(0);
    let t2 = env.begin();
    let vis = Visibility::for_txn(&t2);
    assert!(heap.fetch(tid, &vis).is_err());
    flaky.disarm();
    assert_eq!(heap.fetch(tid, &vis).unwrap().unwrap(), b"payload");
    t2.commit();
}
