//! Restart persistence: committed work must survive closing the database
//! and reopening it in a "new process" (a fresh `StorageEnv` on the same
//! directory). This exercises the durable commit log — tuple visibility
//! depends on the transaction manager knowing earlier XIDs committed.

use pglo::prelude::*;
use std::sync::Arc;

#[test]
fn committed_rows_survive_reopen() {
    let dir = tempfile::tempdir().unwrap();
    {
        let db = Database::open(dir.path()).unwrap();
        db.run_script(
            r#"
            create T (v = int4);
            append T (v = 41);
            append T (v = 42)
            "#,
        )
        .unwrap();
    }
    let db = Database::open(dir.path()).unwrap();
    let r = db.run("retrieve (T.v)").unwrap();
    let mut vals: Vec<_> = r.rows.iter().map(|row| row[0].clone()).collect();
    vals.sort_by_key(|d| format!("{d:?}"));
    assert_eq!(vals, vec![pglo::adt::Datum::Int4(41), pglo::adt::Datum::Int4(42)]);

    // And the reopened database can keep writing.
    db.run("append T (v = 43)").unwrap();
    let r = db.run("retrieve (T.v)").unwrap();
    assert_eq!(r.rows.len(), 3);
}

#[test]
fn committed_large_object_survives_reopen() {
    let dir = tempfile::tempdir().unwrap();
    let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    let (id, ts) = {
        let env = StorageEnv::open(dir.path()).unwrap();
        let store = LoStore::new(Arc::clone(&env));
        let txn = env.begin();
        let id = store.create(&txn, &LoSpec::fchunk()).unwrap();
        {
            let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
            h.write_at(0, &payload).unwrap();
            h.flush().unwrap();
        }
        env.pool().flush_all().unwrap();
        let ts = txn.commit();
        (id, ts)
    };

    let env = StorageEnv::open(dir.path()).unwrap();
    let store = LoStore::new(Arc::clone(&env));
    // Snapshot read sees the prior process's commit…
    let txn = env.begin();
    let mut h = store.open(&txn, id, OpenMode::ReadOnly).unwrap();
    assert_eq!(h.size().unwrap(), payload.len() as u64);
    let mut buf = vec![0u8; payload.len()];
    assert_eq!(h.read_at(0, &mut buf).unwrap(), payload.len());
    assert_eq!(buf, payload);
    drop(h);
    drop(txn);
    // …and the time-travel axis still addresses it.
    assert!(env.txns().current_timestamp() >= ts);
    let mut h = store.open_as_of(id, ts).unwrap();
    let mut buf2 = vec![0u8; 1000];
    assert_eq!(h.read_at(500, &mut buf2).unwrap(), 1000);
    assert_eq!(buf2, payload[500..1500]);
}

#[test]
fn aborted_work_stays_invisible_after_reopen() {
    let dir = tempfile::tempdir().unwrap();
    {
        let db = Database::open(dir.path()).unwrap();
        db.run_script("create T (v = int4); append T (v = 1)").unwrap();
        // An explicit abort: begin a raw txn and drop it uncommitted.
        let env = db.env();
        let txn = env.begin();
        drop(txn);
    }
    let db = Database::open(dir.path()).unwrap();
    // New transactions must not collide with the aborted XID — if the
    // reopened manager reused it, its tuples would resurface. Committed
    // data stays exactly as left.
    db.run("append T (v = 2)").unwrap();
    let r = db.run("retrieve (T.v)").unwrap();
    assert_eq!(r.rows.len(), 2);
}

/// Recursively copy a database directory — the "crash image" each torn-tail
/// iteration starts from.
fn copy_dir(src: &std::path::Path, dst: &std::path::Path) {
    std::fs::create_dir_all(dst).unwrap();
    for e in std::fs::read_dir(src).unwrap() {
        let e = e.unwrap();
        let to = dst.join(e.file_name());
        if e.file_type().unwrap().is_dir() {
            copy_dir(&e.path(), &to);
        } else {
            std::fs::copy(e.path(), &to).unwrap();
        }
    }
}

fn crash_opts() -> EnvOptions {
    // Small segments exercise rotation; everything else default. No
    // bgwriter: the "process" dies with its pages still dirty, so the
    // redo log is the only durable copy of committed data.
    EnvOptions { wal_segment_bytes: 64 * 1024, ..Default::default() }
}

/// Kill the last WAL record at every byte boundary: recovery must stop
/// cleanly at the torn point — no partial record may ever replay — and
/// everything whose records precede the tear must come back intact.
#[test]
fn torn_wal_tail_truncated_at_every_byte() {
    let tmp = tempfile::tempdir().unwrap();
    let crash = tmp.path().join("crash");
    let payload: Vec<u8> = (0..50_000u32).map(|i| (i.wrapping_mul(31) % 251) as u8).collect();
    let id = {
        let env = StorageEnv::open_with(&crash, crash_opts()).unwrap();
        let store = LoStore::new(Arc::clone(&env));
        let txn = env.begin();
        let id = store.create(&txn, &LoSpec::fchunk()).unwrap();
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        h.write_at(0, &payload).unwrap();
        h.close().unwrap();
        txn.commit();
        std::mem::forget(env); // crash: dirty pages never reach home
        id
    };

    let seg = 64 * 1024u64;
    let recs = pglo::wal::Wal::scan_records(crash.join("wal"), seg).unwrap();
    let last = recs.last().expect("log has records").clone();
    assert_eq!(last.kind, pglo::wal::KIND_COMMIT, "commit record ends the log");
    let tail_name = last.file.file_name().unwrap().to_owned();

    let work = tmp.path().join("work");
    for cut in 0..last.total_len as u64 {
        if work.exists() {
            std::fs::remove_dir_all(&work).unwrap();
        }
        copy_dir(&crash, &work);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(work.join("wal").join(&tail_name))
            .unwrap();
        f.set_len(last.offset + cut).unwrap();
        drop(f);

        let env = StorageEnv::open_with(&work, crash_opts()).unwrap();
        // Recovery never invented a record past the tear…
        for r in pglo::wal::Wal::scan_records(work.join("wal"), seg).unwrap() {
            assert!(
                r.lsn < last.lsn || r.lsn >= last.lsn + u64::from(last.total_len),
                "cut {cut}: partial record replayed at lsn {}",
                r.lsn
            );
        }
        // …the page images before the commit record replayed fine, and
        // the database still works: a new transaction commits and reads.
        let store = LoStore::new(Arc::clone(&env));
        let txn = env.begin();
        let mut h = store.open(&txn, id, OpenMode::ReadOnly).unwrap();
        let mut buf = vec![0u8; payload.len()];
        assert_eq!(h.read_at(0, &mut buf).unwrap(), payload.len(), "cut {cut}");
        assert_eq!(buf, payload, "cut {cut}: committed bytes corrupted");
        drop(h);
        drop(txn);
        let t2 = env.begin();
        t2.commit();
    }
}

/// Commit after a checkpoint, then crash with the data pages still dirty:
/// recovery replays from the checkpoint horizon and both the
/// pre-checkpoint and post-checkpoint commits come back.
#[test]
fn crash_between_checkpoint_and_commit_recovers_both_sides() {
    let tmp = tempfile::tempdir().unwrap();
    let a: Vec<u8> = vec![0x11; 30_000];
    let b: Vec<u8> = (0..30_000u32).map(|i| (i % 241) as u8).collect();
    let (id_a, id_b) = {
        let env = StorageEnv::open_with(tmp.path(), crash_opts()).unwrap();
        let store = LoStore::new(Arc::clone(&env));
        let txn = env.begin();
        let id_a = store.create(&txn, &LoSpec::fchunk()).unwrap();
        let mut h = store.open(&txn, id_a, OpenMode::ReadWrite).unwrap();
        h.write_at(0, &a).unwrap();
        h.close().unwrap();
        txn.commit();
        // Home the first commit's pages and advance the redo horizon
        // past them.
        env.pool().flush_all().unwrap();
        env.checkpoint().unwrap();
        // Second commit lands entirely after the checkpoint; its pages
        // never reach home before the crash.
        let txn = env.begin();
        let id_b = store.create(&txn, &LoSpec::fchunk()).unwrap();
        let mut h = store.open(&txn, id_b, OpenMode::ReadWrite).unwrap();
        h.write_at(0, &b).unwrap();
        h.close().unwrap();
        txn.commit();
        std::mem::forget(env);
        (id_a, id_b)
    };

    let env = StorageEnv::open_with(tmp.path(), crash_opts()).unwrap();
    let store = LoStore::new(Arc::clone(&env));
    let txn = env.begin();
    for (id, want) in [(id_a, &a), (id_b, &b)] {
        let mut h = store.open(&txn, id, OpenMode::ReadOnly).unwrap();
        let mut buf = vec![0u8; want.len()];
        assert_eq!(h.read_at(0, &mut buf).unwrap(), want.len());
        assert_eq!(&buf, want);
        drop(h);
    }
}

/// WORM burns ride the redo log as idempotent records: a heap burned to
/// the platter before a crash replays without error (rewrites bounce off
/// the write-once blocks), and the tuples survive.
#[test]
fn worm_burned_heap_survives_crash_and_redo() {
    let tmp = tempfile::tempdir().unwrap();
    {
        let env = StorageEnv::open_with(tmp.path(), crash_opts()).unwrap();
        let heap = Heap::create(&env, "ARCHIVE", env.worm_id(), Default::default()).unwrap();
        let txn = env.begin();
        for i in 0..20u32 {
            heap.insert(&txn, format!("platter row {i}").as_bytes()).unwrap();
        }
        // Burn: logs the page images + burn intent, then syncs staged
        // blocks to the platter.
        heap.flush().unwrap();
        txn.commit();
        std::mem::forget(env);
    }

    let env = StorageEnv::open_with(tmp.path(), crash_opts()).unwrap();
    let heap = Heap::open(&env, "ARCHIVE").unwrap();
    let txn = env.begin();
    let rows: Vec<Vec<u8>> = heap.scan(Visibility::for_txn(&txn)).map(|r| r.unwrap().1).collect();
    assert_eq!(rows.len(), 20);
    assert!(rows.iter().any(|r| r == b"platter row 7"));
}

/// A frame dirtied after its last capture and then *evicted* under pool
/// pressure must still reach the log: the eviction write-back logs the
/// pending image first. Otherwise replay rewinds the page to its older
/// captured image and a committed delta is torn out.
#[test]
fn evicted_uncaptured_delta_survives_crash() {
    let tmp = tempfile::tempdir().unwrap();
    let opts =
        || EnvOptions { pool_frames: 64, wal_segment_bytes: 64 * 1024, ..Default::default() };
    let v1: Vec<u8> = vec![0xAA; 200_000];
    let v2: Vec<u8> = (0..200_000u32).map(|i| (i.wrapping_mul(17) % 249) as u8).collect();
    let id = {
        let env = StorageEnv::open_with(tmp.path(), opts()).unwrap();
        let store = LoStore::new(Arc::clone(&env));
        let txn = env.begin();
        let id = store.create(&txn, &LoSpec::fchunk()).unwrap();
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        h.write_at(0, &v1).unwrap();
        h.close().unwrap();
        // First version's images land in the log.
        env.pool().capture_pending().unwrap();
        // Overwrite in place: the frames are dirty again, uncaptured.
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        h.write_at(0, &v2).unwrap();
        h.close().unwrap();
        // Pool pressure: a filler object twice the pool size evicts the
        // overwritten frames while their deltas are still uncaptured.
        let filler = store.create(&txn, &LoSpec::fchunk()).unwrap();
        let mut h = store.open(&txn, filler, OpenMode::ReadWrite).unwrap();
        h.write_at(0, &vec![0x55u8; 64 * 8192 * 2]).unwrap();
        h.close().unwrap();
        txn.commit();
        std::mem::forget(env); // crash: home writes may be arbitrarily stale
        id
    };

    let env = StorageEnv::open_with(tmp.path(), opts()).unwrap();
    let store = LoStore::new(Arc::clone(&env));
    let txn = env.begin();
    let mut h = store.open(&txn, id, OpenMode::ReadOnly).unwrap();
    let mut buf = vec![0u8; v2.len()];
    assert_eq!(h.read_at(0, &mut buf).unwrap(), v2.len());
    assert_eq!(buf, v2, "an evicted page must not rewind to its older image");
    drop(buf);
    let _ = v1;
}

/// Once every block of a WORM relation is burned, its recycle pin is
/// pruned at checkpoint — the redo horizon sails past the archived
/// images — and after a crash the rows come back from the platter file,
/// not from replay.
#[test]
fn burned_worm_pin_prunes_and_platter_restores_after_recycle() {
    let tmp = tempfile::tempdir().unwrap();
    {
        let env = StorageEnv::open_with(tmp.path(), crash_opts()).unwrap();
        let heap = Heap::create(&env, "VAULT", env.worm_id(), Default::default()).unwrap();
        let txn = env.begin();
        for i in 0..20u32 {
            heap.insert(&txn, format!("vault row {i}").as_bytes()).unwrap();
        }
        heap.flush().unwrap(); // burn every staged block
        txn.commit();
        env.pool().flush_all().unwrap();
        let committed_end = env.wal().end_lsn();
        env.checkpoint().unwrap();
        assert!(
            env.wal().redo_lsn() >= committed_end,
            "a fully burned relation must not pin the redo horizon"
        );
        std::mem::forget(env);
    }

    let env = StorageEnv::open_with(tmp.path(), crash_opts()).unwrap();
    let heap = Heap::open(&env, "VAULT").unwrap();
    let txn = env.begin();
    let rows: Vec<Vec<u8>> = heap.scan(Visibility::for_txn(&txn)).map(|r| r.unwrap().1).collect();
    assert_eq!(rows.len(), 20);
    assert!(rows.iter().any(|r| r == b"vault row 13"));
}

/// Staged-but-unburned WORM blocks live only in the log: a checkpoint
/// must keep their records pinned (no premature prune), and a crash then
/// rebuilds them by replay.
#[test]
fn staged_worm_blocks_pin_checkpoint_and_survive_crash() {
    let tmp = tempfile::tempdir().unwrap();
    {
        let env = StorageEnv::open_with(tmp.path(), crash_opts()).unwrap();
        let heap = Heap::create(&env, "STAGE", env.worm_id(), Default::default()).unwrap();
        let txn = env.begin();
        for i in 0..20u32 {
            heap.insert(&txn, format!("staged row {i}").as_bytes()).unwrap();
        }
        txn.commit(); // images logged; no burn — blocks stay staged
        env.pool().flush_all().unwrap();
        let committed_end = env.wal().end_lsn();
        env.checkpoint().unwrap();
        assert!(
            env.wal().redo_lsn() < committed_end,
            "a staged relation's records must pin the redo horizon"
        );
        std::mem::forget(env);
    }

    let env = StorageEnv::open_with(tmp.path(), crash_opts()).unwrap();
    let heap = Heap::open(&env, "STAGE").unwrap();
    let txn = env.begin();
    let rows: Vec<Vec<u8>> = heap.scan(Visibility::for_txn(&txn)).map(|r| r.unwrap().1).collect();
    assert_eq!(rows.len(), 20);
    assert!(rows.iter().any(|r| r == b"staged row 13"));
}
