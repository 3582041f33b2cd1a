//! Concurrency stress: MVCC isolation and buffer-pool safety under
//! multi-threaded load.

use pglo::prelude::*;
use pglo_txn::Visibility;
use std::sync::Arc;
use std::thread;

#[test]
fn concurrent_writers_on_distinct_objects() {
    let dir = tempfile::tempdir().unwrap();
    let env = StorageEnv::open(dir.path()).unwrap();
    let store = Arc::new(LoStore::new(Arc::clone(&env)).unwrap());
    // Pre-create one object per thread.
    let setup = env.begin();
    let ids: Vec<LoId> = (0..4).map(|_| store.create(&setup, &LoSpec::fchunk()).unwrap()).collect();
    setup.commit();

    thread::scope(|s| {
        for (t, &id) in ids.iter().enumerate() {
            let env = Arc::clone(&env);
            let store = Arc::clone(&store);
            s.spawn(move || {
                let txn = env.begin();
                let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
                let block = vec![t as u8; 10_000];
                for i in 0..10u64 {
                    h.write_at(i * 10_000, &block).unwrap();
                }
                h.close().unwrap();
                txn.commit();
            });
        }
    });

    // Every object holds exactly its thread's bytes.
    let check = env.begin();
    for (t, &id) in ids.iter().enumerate() {
        let mut h = store.open(&check, id, OpenMode::ReadOnly).unwrap();
        let all = h.read_to_vec().unwrap();
        assert_eq!(all.len(), 100_000);
        assert!(all.iter().all(|&b| b == t as u8), "object {t} intact");
        h.close().unwrap();
    }
    check.commit();
}

#[test]
fn readers_see_consistent_snapshots_during_writes() {
    let dir = tempfile::tempdir().unwrap();
    let env = StorageEnv::open(dir.path()).unwrap();
    let heap = Arc::new(
        pglo::heap::Heap::create(&env, "COUNTERS", env.disk_id(), Default::default()).unwrap(),
    );
    // Seed: 50 rows, all value 0. Writers bump every row in a txn (all-or-
    // nothing); readers must always see 50 rows of one single value.
    let seed = env.begin();
    let mut tids: Vec<_> =
        (0..50).map(|_| heap.insert(&seed, &0u64.to_le_bytes()).unwrap()).collect();
    seed.commit();

    thread::scope(|s| {
        let env_w = Arc::clone(&env);
        let heap_w = Arc::clone(&heap);
        let writer = s.spawn(move || {
            for round in 1..=20u64 {
                let txn = env_w.begin();
                let mut new_tids = Vec::with_capacity(tids.len());
                for &tid in &tids {
                    new_tids.push(heap_w.update(&txn, tid, &round.to_le_bytes()).unwrap());
                }
                tids = new_tids;
                txn.commit();
            }
        });
        for _ in 0..3 {
            let env_r = Arc::clone(&env);
            let heap_r = Arc::clone(&heap);
            s.spawn(move || {
                for _ in 0..30 {
                    let txn = env_r.begin();
                    let vis = Visibility::for_txn(&txn);
                    let values: Vec<u64> = heap_r
                        .scan(vis)
                        .map(|r| u64::from_le_bytes(r.unwrap().1.try_into().unwrap()))
                        .collect();
                    assert_eq!(values.len(), 50, "snapshot always sees all rows");
                    assert!(values.iter().all(|&v| v == values[0]), "torn snapshot: {values:?}");
                    txn.commit();
                }
            });
        }
        writer.join().unwrap();
    });
}

#[test]
fn concurrent_queries_through_database() {
    let dir = tempfile::tempdir().unwrap();
    let db = Arc::new(Database::open(dir.path()).unwrap());
    db.run("create LOG (worker = int4, seq = int4)").unwrap();
    thread::scope(|s| {
        for w in 0..4 {
            let db = Arc::clone(&db);
            s.spawn(move || {
                for i in 0..25 {
                    db.run(&format!("append LOG (worker = {w}, seq = {i})")).unwrap();
                }
            });
        }
    });
    let r = db.run("retrieve (LOG.worker)").unwrap();
    assert_eq!(r.rows.len(), 100);
    for w in 0..4 {
        let r = db.run(&format!("retrieve (LOG.seq) where LOG.worker = {w}")).unwrap();
        assert_eq!(r.rows.len(), 25, "worker {w} rows all present");
    }
}

#[test]
fn concurrent_readers_of_one_object_see_committed_bytes() {
    let dir = tempfile::tempdir().unwrap();
    let env = StorageEnv::open(dir.path()).unwrap();
    let store = Arc::new(LoStore::new(Arc::clone(&env)).unwrap());
    let setup = env.begin();
    let id = store.create(&setup, &LoSpec::fchunk()).unwrap();
    {
        let mut h = store.open(&setup, id, OpenMode::ReadWrite).unwrap();
        for i in 0..25u64 {
            h.write_at(i * 4096, &vec![(i % 251) as u8; 4096]).unwrap();
        }
        h.close().unwrap();
    }
    setup.commit();
    // Many readers hammer the same object while a writer keeps replacing
    // frames (each in its own committed transaction). Readers must always
    // see a frame that is uniformly one byte value — never a torn mix.
    thread::scope(|s| {
        let env_w = Arc::clone(&env);
        let store_w = Arc::clone(&store);
        let writer = s.spawn(move || {
            for round in 1..=10u64 {
                let txn = env_w.begin();
                let mut h = store_w.open(&txn, id, OpenMode::ReadWrite).unwrap();
                for i in 0..25u64 {
                    h.write_at(i * 4096, &vec![((i + round * 7) % 251) as u8; 4096]).unwrap();
                }
                h.close().unwrap();
                txn.commit();
            }
        });
        for _ in 0..3 {
            let env_r = Arc::clone(&env);
            let store_r = Arc::clone(&store);
            s.spawn(move || {
                let mut buf = vec![0u8; 4096];
                for pass in 0..40u64 {
                    let txn = env_r.begin();
                    let mut h = store_r.open(&txn, id, OpenMode::ReadOnly).unwrap();
                    let frame = pass % 25;
                    let n = h.read_at(frame * 4096, &mut buf).unwrap();
                    assert_eq!(n, 4096);
                    assert!(buf.iter().all(|&b| b == buf[0]), "torn frame {frame}: mixed bytes");
                    h.close().unwrap();
                    txn.commit();
                }
            });
        }
        writer.join().unwrap();
    });
}
