//! Failure injection: a file layer that fails on demand under the
//! magnetic-disk manager, exercising the error paths of every layer above
//! the files.

use pglo::prelude::*;
use pglo::smgr::{FileClass, SimVfs, SmgrId};
use std::sync::Arc;

/// A store on a [`SimVfs`]; its relations live on the disk manager.
fn setup() -> (Arc<StorageEnv>, Arc<SimVfs>, SmgrId) {
    let sim = SimVfs::new();
    let env = StorageEnv::open_with("db", EnvOptions { vfs: sim.clone(), ..Default::default() });
    let env = env.unwrap();
    let id = env.disk_id();
    (env, sim, id)
}

#[test]
fn read_failures_surface_as_errors_not_panics() {
    let (env, sim, smgr_id) = setup();
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
    sim.fuse(Some((FileClass::Data, 0)));
    let mut h = store.open(&txn, id, OpenMode::ReadOnly).unwrap();
    let mut buf = [0u8; 100];
    let err = h.read_at(0, &mut buf).unwrap_err();
    assert!(err.to_string().contains("injected device failure"), "{err}");
    // After the fault clears, the same handle works again.
    sim.fuse(None);
    assert_eq!(h.read_at(0, &mut buf).unwrap(), 100);
    assert!(buf.iter().all(|&b| b == 7));
    h.close().unwrap();
    txn.commit();
}

#[test]
fn write_failures_do_not_corrupt_committed_data() {
    let (env, sim, smgr_id) = setup();
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
    sim.fuse(Some((FileClass::Data, 10)));
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
    sim.fuse(None);
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
    let (env, sim, smgr_id) = setup();
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
    sim.fuse(Some((FileClass::Data, 0)));
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
    sim.fuse(None);
    let mut f = fs.open_file(&t2, "/file", OpenMode::ReadOnly).unwrap();
    assert_eq!(f.read_to_vec().unwrap(), vec![1u8; 30_000]);
    f.close().unwrap();
    t2.commit();
}

#[test]
fn buffer_pool_stays_consistent_after_load_failure() {
    let (env, sim, smgr_id) = setup();
    let heap = pglo::heap::Heap::create(&env, "T", smgr_id, Default::default()).unwrap();
    let t = env.begin();
    let tid = heap.insert(&t, b"payload").unwrap();
    t.commit();
    heap.flush().unwrap();
    env.pool().discard_rel(smgr_id, heap.rel());
    // Fail the page load, then retry: the pool must not have cached a
    // half-loaded frame under the key.
    sim.fuse(Some((FileClass::Data, 0)));
    let t2 = env.begin();
    let vis = Visibility::for_txn(&t2);
    assert!(heap.fetch(tid, &vis).is_err());
    sim.fuse(None);
    assert_eq!(heap.fetch(tid, &vis).unwrap().unwrap(), b"payload");
    t2.commit();
}
