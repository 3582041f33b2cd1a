//! Restart persistence: committed work must survive closing the database
//! and reopening it in a "new process" (a fresh `StorageEnv` on the same
//! directory). This exercises durable commit outcomes — tuple visibility
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

/// Emulate a process kill: the environment's Drop (its final flush and
/// checkpoint) never runs, so only what already reached a device survives.
#[expect(clippy::mem_forget, reason = "a crash is exactly a Drop that never runs")]
fn kill(env: Arc<StorageEnv>) {
    std::mem::forget(env);
}

fn crash_opts() -> EnvOptions {
    // Small segments exercise rotation; everything else default. No
    // bgwriter: the "process" dies with its pages still dirty, so the
    // redo log is the only durable copy of committed data.
    EnvOptions { wal_segment_bytes: 64 * 1024, ..Default::default() }
}

/// Kill the last WAL record at every byte boundary: recovery must stop
/// cleanly at the torn point — no partial record may ever replay — and
/// everything whose records precede the tear must come back intact. The
/// torn record is a later transaction's commit, so that transaction
/// reads as aborted and its XID is never handed out again.
#[test]
fn torn_wal_tail_truncated_at_every_byte() {
    let tmp = tempfile::tempdir().unwrap();
    let crash = tmp.path().join("crash");
    let payload: Vec<u8> = (0..50_000u32).map(|i| (i.wrapping_mul(31) % 251) as u8).collect();
    let (id, torn) = {
        let env = StorageEnv::open_with(&crash, crash_opts()).unwrap();
        let store = LoStore::new(Arc::clone(&env));
        let txn = env.begin();
        let id = store.create(&txn, &LoSpec::fchunk()).unwrap();
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        h.write_at(0, &payload).unwrap();
        h.close().unwrap();
        txn.commit();
        let torn = env.begin();
        let torn_xid = torn.xid();
        torn.commit();
        kill(env); // crash: dirty pages never reach home
        (id, torn_xid)
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
        assert_eq!(env.txns().status(torn), pglo::txn::TxnStatus::Aborted, "cut {cut}");
        let t2 = env.begin();
        assert!(t2.xid() > torn, "cut {cut}: the torn commit's XID was handed out again");
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
        kill(env);
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

/// A commit whose record the redo horizon has passed survives in the
/// outcome table alone, which the checkpoint wrote: no second record of
/// the commit exists to lose (an earlier format also kept a text commit
/// log, `clog`, and never fsynced it; it is emptied here if present). The
/// object must read back whole, the time-travel axis must still reach
/// the commit, the committer's XID must not be handed out again, and no
/// text commit log may exist.
#[test]
fn committed_object_survives_power_loss_after_checkpoint() {
    let tmp = tempfile::tempdir().unwrap();
    let opts =
        || EnvOptions { durable_sync: true, wal_segment_bytes: 64 * 1024, ..Default::default() };
    let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 239) as u8).collect();
    let (id, xid, ts) = {
        let env = StorageEnv::open_with(tmp.path(), opts()).unwrap();
        let store = LoStore::new(Arc::clone(&env));
        let txn = env.begin();
        let xid = txn.xid();
        let id = store.create(&txn, &LoSpec::fchunk()).unwrap();
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        h.write_at(0, &payload).unwrap();
        h.close().unwrap();
        let ts = txn.commit();
        let commit_end = env.wal().end_lsn();
        env.pool().flush_all().unwrap();
        env.checkpoint().unwrap();
        assert!(env.wal().redo_lsn() >= commit_end, "the horizon must pass the commit record");
        (id, xid, ts)
    };
    let clog = tmp.path().join("clog");
    if clog.exists() {
        std::fs::write(&clog, b"").unwrap();
    }
    let env = StorageEnv::open_with(tmp.path(), opts()).unwrap();
    let first = env.begin();
    let first_xid = first.xid();
    first.abort();
    let store = LoStore::new(Arc::clone(&env));
    let txn = env.begin();
    let mut h = store.open(&txn, id, OpenMode::ReadOnly).unwrap();
    assert_eq!(h.size().unwrap(), payload.len() as u64);
    let mut buf = vec![0u8; payload.len()];
    assert_eq!(h.read_at(0, &mut buf).unwrap(), payload.len());
    assert_eq!(buf, payload);
    assert!(env.txns().current_timestamp() >= ts);
    assert!(first_xid > xid, "the committer's XID {xid} was handed out again");
    assert!(!clog.exists(), "no text commit log may be written");
}

/// An in-flight transaction's page reaches home through a flush, with no
/// log record naming its XID, and the process dies: after recovery every
/// new XID must exceed it, so a committed overwrite by a new transaction
/// leaves its bytes invisible. 1,100 begin/abort pairs first carry the
/// XIDs past one 1,024-XID limit block. With `checkpoint`, the kill
/// comes after a checkpoint has moved the redo horizon past the last
/// XID-limit record, so only the checkpoint's own batch restates it.
fn inflight_xid_never_reused(checkpoint: bool) {
    let tmp = tempfile::tempdir().unwrap();
    let (live, work) = (tmp.path().join("live"), tmp.path().join("work"));
    let seg = 64 * 1024u64;
    let base = vec![0x11u8; 20_000];
    let env = StorageEnv::open_with(&live, crash_opts()).unwrap();
    let store = LoStore::new(Arc::clone(&env));
    let txn = env.begin();
    let id = store.create(&txn, &LoSpec::fchunk()).unwrap();
    let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
    h.write_at(0, &base).unwrap();
    h.close().unwrap();
    txn.commit();
    for _ in 0..1_100 {
        env.begin().abort();
    }
    let x = env.begin();
    assert!(x.xid().0 > 1_024, "the churn must cross a limit block");
    let mut h = store.open(&x, id, OpenMode::ReadWrite).unwrap();
    h.write_at(0, &[0xEE; 4096]).unwrap();
    h.close().unwrap();
    env.pool().flush_all().unwrap();
    if checkpoint {
        let before = env.wal().end_lsn();
        env.checkpoint().unwrap();
        let recs = pglo::wal::Wal::scan_records(live.join("wal"), seg).unwrap();
        let last_limit =
            recs.iter().rev().find(|r| r.kind == pglo::wal::KIND_LIMITS && r.lsn < before).unwrap();
        assert!(env.wal().redo_lsn() > last_limit.lsn, "the horizon must pass the limit record");
    }
    copy_dir(&live, &work); // kill: X never commits
    let xid = x.xid();
    drop(x);
    drop(store);
    drop(env);

    let env = StorageEnv::open_with(&work, crash_opts()).unwrap();
    let store = LoStore::new(Arc::clone(&env));
    let t = env.begin();
    assert!(t.xid() > xid, "{} reused: {xid} stamped a page at home", t.xid());
    let mut h = store.open(&t, id, OpenMode::ReadWrite).unwrap();
    h.write_at(10_000, &[0x22; 100]).unwrap();
    h.close().unwrap();
    t.commit();
    let t = env.begin();
    assert!(t.xid() > xid);
    let mut h = store.open(&t, id, OpenMode::ReadOnly).unwrap();
    let mut buf = vec![0u8; base.len()];
    assert_eq!(h.read_at(0, &mut buf).unwrap(), base.len());
    assert_eq!(buf[..4096], base[..4096], "the dead transaction's bytes came back");
    assert_eq!(buf[10_000..10_100], [0x22; 100]);
}

#[test]
fn inflight_xid_is_never_reused_after_crash() {
    inflight_xid_never_reused(false);
}

#[test]
fn inflight_xid_is_never_reused_after_checkpoint_and_crash() {
    inflight_xid_never_reused(true);
}

/// A transaction that grows an object leaves its XID and the new end only
/// in chunk (and segment) tuples. The first transaction after a reopen is
/// the first of a fresh XID block; it grows the object, closes it, its
/// pages go home through the log, and it is killed uncommitted. After
/// recovery no new XID may equal it, or the new transaction would see
/// the dead one's tuples as its own; and a new snapshot must read the
/// committed size, not the dead extension's.
#[test]
fn killed_extension_leaves_neither_its_xid_nor_its_size() {
    for spec in [LoSpec::fchunk(), LoSpec::vsegment(CodecKind::None)] {
        let tmp = tempfile::tempdir().unwrap();
        let (live, work) = (tmp.path().join("live"), tmp.path().join("work"));
        let base = vec![0x11u8; 20_000];
        let id = {
            let env = StorageEnv::open_with(&live, crash_opts()).unwrap();
            let store = LoStore::new(Arc::clone(&env));
            let txn = env.begin();
            let id = store.create(&txn, &spec).unwrap();
            let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
            h.write_at(0, &base).unwrap();
            h.close().unwrap();
            txn.commit();
            env.pool().flush_all().unwrap();
            env.checkpoint().unwrap();
            id
        };
        let env = StorageEnv::open_with(&live, crash_opts()).unwrap();
        let store = LoStore::new(Arc::clone(&env));
        let x = env.begin();
        let mut h = store.open(&x, id, OpenMode::ReadWrite).unwrap();
        h.write_at(base.len() as u64, &[0xEE; 5_000]).unwrap();
        h.close().unwrap();
        env.pool().flush_all().unwrap();
        copy_dir(&live, &work); // kill: X never commits
        let xid = x.xid();
        drop(x);
        drop(store);
        drop(env);

        let env = StorageEnv::open_with(&work, crash_opts()).unwrap();
        let store = LoStore::new(Arc::clone(&env));
        let t = env.begin();
        assert!(t.xid() > xid, "{} reused: {xid} stamped a page at home", t.xid());
        let mut h = store.open(&t, id, OpenMode::ReadOnly).unwrap();
        assert_eq!(h.size().unwrap(), base.len() as u64, "the dead transaction's size came back");
        let mut buf = vec![0u8; base.len()];
        assert_eq!(h.read_at(0, &mut buf).unwrap(), base.len());
        assert_eq!(buf, base);
    }
}

/// The crash gate for derived sizes. An extending transaction, for
/// f-chunk and v-segment, is killed after each step that makes more of it
/// durable: each of two writes, its handle's flush (pages dirty in the
/// pool), the capture of its deltas into the log, the log's flush, its
/// pages written home, a checkpoint, its commit, and its pages home after
/// the commit; and an extension that aborts, its pages home. Each killed
/// copy is reopened, and a new snapshot reads the object: until the
/// commit, the last committed size and bytes; from it on, the
/// extension's.
#[test]
fn crash_during_an_extension_recovers_the_committed_size() {
    for spec in [LoSpec::fchunk(), LoSpec::vsegment(CodecKind::None)] {
        let tmp = tempfile::tempdir().unwrap();
        let (live, work) = (tmp.path().join("live"), tmp.path().join("work"));
        let env = StorageEnv::open_with(&live, crash_opts()).unwrap();
        let store = LoStore::new(Arc::clone(&env));
        let base: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let txn = env.begin();
        let id = store.create(&txn, &spec).unwrap();
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        h.write_at(0, &base).unwrap();
        h.close().unwrap();
        txn.commit();
        let mut model = Model { objects: vec![(id, base.clone())], ..Default::default() };
        let check = |what: &str, model: &Model| {
            kill_copy(&live, &work);
            let env = StorageEnv::open_with(&work, crash_opts()).unwrap();
            assert_eq!(&read_back(&env, model), model, "{:?}: killed {what}", spec.kind);
        };
        let ext: Vec<u8> = (0..13_000u32).map(|i| (i % 241) as u8 ^ 0x5A).collect();
        let end = base.len() as u64;
        let x = env.begin();
        let mut h = store.open(&x, id, OpenMode::ReadWrite).unwrap();
        h.write_at(end, &ext[..6_000]).unwrap();
        check("after the first write", &model);
        h.write_at(end + 6_000, &ext[6_000..]).unwrap();
        check("after the second write", &model);
        h.flush().unwrap();
        check("after the handle's flush", &model);
        env.pool().capture_pending().unwrap();
        check("after the capture", &model);
        env.wal().flush_all().unwrap();
        check("after the log's flush", &model);
        env.pool().flush_all().unwrap();
        check("with the pages home", &model);
        env.checkpoint().unwrap();
        check("after a checkpoint", &model);
        drop(h);
        x.commit();
        model.objects[0].1.extend_from_slice(&ext);
        check("after the commit", &model);
        env.pool().flush_all().unwrap();
        check("after the commit, pages home", &model);

        let y = env.begin();
        let mut h = store.open(&y, id, OpenMode::ReadWrite).unwrap();
        h.write_at(end + ext.len() as u64, &[0xAB; 9_000]).unwrap();
        h.close().unwrap();
        env.pool().flush_all().unwrap();
        y.abort();
        check("after an aborted extension went home", &model);
    }
}

/// The OIDs of a large object: its own, then its relations'.
fn object_oids(store: &LoStore, id: LoId) -> Vec<u64> {
    let m = store.meta(id).unwrap();
    [id.0, m.data_rel, m.idx_rel, m.seg_rel, m.seg_idx_rel]
        .into_iter()
        .filter(|&o| o != 0)
        .collect()
}

/// No OID handed out before a crash is handed out again after recovery.
/// For each chunked kind, a committed object, then OIDs drawn past a
/// 1,024-OID limit block, then a create cut short after its relations:
/// their files exist and the catalog never names them. The process is
/// killed after the block's first OID and after each relation; with
/// `checkpoint`, a checkpoint first recycles the segment holding the last
/// limit record, so only the checkpoint's batch restates it. Each killed
/// copy must hand out only OIDs above all those, create a fresh object of
/// the kind, and read the committed one back.
fn handed_out_oid_never_reused(checkpoint: bool) {
    let seg = 64 * 1024u64;
    let base = vec![0x11u8; 20_000];
    for spec in [LoSpec::fchunk(), LoSpec::vsegment(CodecKind::None)] {
        let tmp = tempfile::tempdir().unwrap();
        let live = tmp.path().join("live");
        let env = StorageEnv::open_with(&live, crash_opts()).unwrap();
        let store = LoStore::new(Arc::clone(&env));
        let txn = env.begin();
        let id = store.create(&txn, &spec).unwrap();
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        h.write_at(0, &base).unwrap();
        h.close().unwrap();
        txn.commit();
        let mut handed = object_oids(&store, id);
        let (mut kills, mut orphans) = (Vec::new(), Vec::new());
        let mut kill = |handed: &[u64], orphans: &[u64]| {
            let work = tmp.path().join(format!("kill{}", kills.len()));
            copy_dir(&live, &work);
            kills.push((work, *handed.iter().max().unwrap(), orphans.to_vec()));
        };
        while handed.last() != Some(&2048) {
            handed.push(env.catalog().alloc_oid().unwrap());
        }
        kill(&handed, &orphans); // the OID that logged the block past 2048
        if checkpoint {
            let txn = env.begin();
            let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
            h.write_at(0, &vec![0x22u8; seg as usize]).unwrap();
            h.close().unwrap();
            txn.abort();
            env.pool().flush_all().unwrap();
            env.checkpoint().unwrap();
            let recs = pglo::wal::Wal::scan_records(live.join("wal"), seg).unwrap();
            let limits: Vec<_> = recs.iter().filter(|r| r.kind == pglo::wal::KIND_LIMITS).collect();
            assert_eq!(limits.len(), 1, "only the checkpoint's restated limits are left");
            assert!(limits[0].lsn >= env.wal().redo_lsn(), "and they are past the horizon");
        }
        let heap = Heap::create_anonymous(&env, env.disk_id()).unwrap();
        handed.push(heap.rel());
        orphans.push(heap.rel());
        kill(&handed, &orphans);
        let index = pglo::btree::BTree::create_anonymous(&env, env.disk_id()).unwrap();
        handed.push(index.rel());
        orphans.push(index.rel());
        kill(&handed, &orphans);
        drop((heap, index, store, env));

        for (work, max, orphans) in kills {
            let what = format!("{spec:?} checkpoint={checkpoint} killed at {max}");
            let env = StorageEnv::open_with(&work, crash_opts()).unwrap();
            let disk = env.switch().get(env.disk_id()).unwrap();
            assert!(orphans.iter().all(|&rel| disk.exists(rel)), "{what}: the cut create's files");
            let next = env.catalog().alloc_oid().unwrap();
            assert!(next > max, "{what}: OID {next} handed out again");
            let store = LoStore::new(Arc::clone(&env));
            let txn = env.begin();
            let fresh = store.create(&txn, &spec).unwrap();
            assert!(object_oids(&store, fresh).iter().all(|&o| o > max), "{what}");
            let mut h = store.open(&txn, fresh, OpenMode::ReadWrite).unwrap();
            h.write_at(0, &[0x33; 100]).unwrap();
            h.close().unwrap();
            txn.commit();
            let txn = env.begin();
            let mut h = store.open(&txn, id, OpenMode::ReadOnly).unwrap();
            assert_eq!(h.read_to_vec().unwrap(), base, "{what}: the committed object");
        }
    }
}

#[test]
fn handed_out_oid_is_never_reused_after_crash() {
    handed_out_oid_never_reused(false);
}

#[test]
fn handed_out_oid_is_never_reused_after_checkpoint_and_crash() {
    handed_out_oid_never_reused(true);
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
        kill(env);
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
        kill(env); // crash: home writes may be arbitrarily stale
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
        kill(env);
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
        kill(env);
    }

    let env = StorageEnv::open_with(tmp.path(), crash_opts()).unwrap();
    let heap = Heap::open(&env, "STAGE").unwrap();
    let txn = env.begin();
    let rows: Vec<Vec<u8>> = heap.scan(Visibility::for_txn(&txn)).map(|r| r.unwrap().1).collect();
    assert_eq!(rows.len(), 20);
    assert!(rows.iter().any(|r| r == b"staged row 13"));
}

/// Append harmless records until the current log segment has exactly
/// `tail` bytes left: 40-byte limit records and 32-byte checkpoint
/// records that say nothing new (replay keeps the highest limits, and the
/// checkpoints restate the redo horizon) and, when the gap is 4 mod 8, one
/// 52-byte delta for a storage manager nobody registered (replay skips
/// those).
fn pad_segment_to_tail(env: &StorageEnv, seg: u64, tail: u64) {
    use pglo::wal::WalRecord::{Checkpoint, Limits};
    let wal = env.wal();
    let gap = || (seg - tail).checked_sub(wal.end_lsn() % seg);
    while gap().is_none_or(|g| g < 200) {
        env.begin().commit();
    }
    let mut g = gap().unwrap();
    if g % 8 == 4 {
        let zero = pglo::pages::alloc_page();
        let mut page = pglo::pages::alloc_page();
        page[0] = 1;
        let rec = pglo::wal::PreparedRecord::page_delta(63, 1, 0, Some(&zero), &page);
        assert_eq!(rec.total_len(), 52);
        wal.append_batch(&mut [rec]).unwrap();
        g -= 52;
    }
    while g % 40 != 0 {
        wal.append(&Checkpoint { redo_lsn: wal.redo_lsn() }).unwrap();
        g -= 32;
    }
    for _ in 0..g / 40 {
        wal.append(&Limits(Default::default())).unwrap();
    }
    wal.flush_all().unwrap();
    assert_eq!(wal.end_lsn() % seg, seg - tail, "padding must leave a {tail}-byte tail");
}

/// A segment whose unused tail is shorter than a record header must not
/// end recovery: the commit after it lives in the next segment, and a
/// crash must keep it.
#[test]
fn commit_after_short_segment_tail_survives_crash() {
    let tmp = tempfile::tempdir().unwrap();
    let seg = 64 * 1024u64;
    let old = vec![0x11u8; 8192];
    let new = vec![0xC3u8; 4096];
    let (id, end) = {
        let env = StorageEnv::open_with(tmp.path(), crash_opts()).unwrap();
        let store = LoStore::new(Arc::clone(&env));
        let txn = env.begin();
        let id = store.create(&txn, &LoSpec::fchunk()).unwrap();
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        h.write_at(0, &old).unwrap();
        h.close().unwrap();
        txn.commit();
        pad_segment_to_tail(&env, seg, 16);
        let tail_seg = env.wal().end_lsn() / seg;
        let txn = env.begin();
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        h.write_at(0, &new).unwrap();
        h.close().unwrap();
        txn.commit();
        let end = env.wal().end_lsn();
        assert_eq!(end / seg, tail_seg + 1, "the commit's records went to the next segment");
        kill(env); // crash: nothing flushed home
        (id, end)
    };
    let env = StorageEnv::open_with(tmp.path(), crash_opts()).unwrap();
    assert_eq!(env.wal().end_lsn(), end, "recovery must read past the short tail");
    let store = LoStore::new(Arc::clone(&env));
    let txn = env.begin();
    let mut h = store.open(&txn, id, OpenMode::ReadOnly).unwrap();
    let mut buf = vec![0u8; old.len()];
    assert_eq!(h.read_at(0, &mut buf).unwrap(), old.len());
    assert_eq!(buf[..4096], new[..], "the committed write must survive");
    assert_eq!(buf[4096..], old[4096..]);
}

/// splitmix64: the crash script's deterministic choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The committed state a crash must preserve: each large object's bytes
/// and each archive heap's rows.
#[derive(Clone, Debug, PartialEq, Default)]
struct Model {
    objects: Vec<(LoId, Vec<u8>)>,
    archives: Vec<(String, Vec<Vec<u8>>)>,
}

/// Read everything `model` names from `env`, in model order.
fn read_back(env: &Arc<StorageEnv>, model: &Model) -> Model {
    let store = LoStore::new(Arc::clone(env));
    let txn = env.begin();
    let mut seen = Model::default();
    for (id, want) in &model.objects {
        let mut h = store.open(&txn, *id, OpenMode::ReadOnly).unwrap();
        let mut buf = vec![0u8; h.size().unwrap() as usize];
        assert_eq!(h.read_at(0, &mut buf).unwrap(), buf.len());
        drop(h);
        assert_eq!(buf.len(), want.len(), "object {id} has the wrong size");
        seen.objects.push((*id, buf));
    }
    for (name, _) in &model.archives {
        let heap = Heap::open(env, name).unwrap();
        let mut rows: Vec<Vec<u8>> =
            heap.scan(Visibility::for_txn(&txn)).map(|r| r.unwrap().1).collect();
        rows.sort();
        seen.archives.push((name.clone(), rows));
    }
    txn.commit();
    seen
}

/// Kill the process now: replace `work` with a copy of what the OS holds
/// of `live`.
fn kill_copy(live: &std::path::Path, work: &std::path::Path) {
    if work.exists() {
        std::fs::remove_dir_all(work).unwrap();
    }
    copy_dir(live, work);
}

/// Whether the log's tail segment (the one holding `end`) is a file first
/// seen under another name: a recycled segment the appender overwrites in
/// place. `names` remembers the first name of every file by inode.
fn tail_is_reused(
    wal: &std::path::Path,
    seg: u64,
    end: u64,
    names: &mut std::collections::HashMap<u64, std::ffi::OsString>,
) -> bool {
    use std::os::unix::fs::MetadataExt;
    for e in std::fs::read_dir(wal).unwrap() {
        let e = e.unwrap();
        names.entry(e.metadata().unwrap().ino()).or_insert(e.file_name());
    }
    let tail = format!("{:016x}.seg", end - end % seg);
    let ino = std::fs::metadata(wal.join(&tail)).unwrap().ino();
    names[&ino] != *tail
}

/// The crash gate for the redo log and the outcome table: a seeded script
/// of writes (among them whole-chunk overwrites whose insert finds its
/// hint page full and already logged, and one handle's overwrites of a
/// chunk flushed in turn), commits, aborts, runs of read-only
/// transactions, batch flushes, evictions through a small pool, WORM
/// archiving and checkpoints, with a process kill after every step, and for a
/// checkpoint also in its middle (outcome table written, checkpoint
/// record not). Every tenth step adds a checkpoint that recycles the
/// segments below its horizon and logs on into the next segment, a
/// recycled one overwritten in place behind an end-of-segment marker, and
/// a kill there. Two steps grow a chunk heap across relation segment
/// files: one hands out blocks up to segment 2 and writes a block of it
/// back before segment 1 holds any, one crosses from segment 2 into 3;
/// each is killed with the grow logged only and again once written home.
/// Each kill copies the live data directory; the copy is
/// reopened twice, and both reopens must read exactly the committed model
/// (aborted and in-flight bytes invisible) with the time-travel axis at
/// or past the last acknowledged commit. Across the kills, every record
/// kind must have been replayed, including deltas logged after pages
/// were read back from home, whose baseline is the home copy.
#[test]
fn crash_after_every_step_recovers_committed_state() {
    let tmp = tempfile::tempdir().unwrap();
    let (live, work) = (tmp.path().join("live"), tmp.path().join("work"));
    let pre_wal = tmp.path().join("pre_wal");
    let seg = 64 * 1024u64;
    let opts = || EnvOptions { pool_frames: 32, wal_segment_bytes: seg, ..Default::default() };
    let env = StorageEnv::open_with(&live, opts()).unwrap();
    let store = LoStore::new(Arc::clone(&env));
    let mut rng = Rng(0x5eed_0043);
    let fill = |rng: &mut Rng, len: usize| -> Vec<u8> {
        let (b, k) = (rng.next(), rng.next() | 1);
        (0..len as u64).map(|i| (b.wrapping_add(k.wrapping_mul(i)) >> 56) as u8).collect()
    };
    let mut model = Model::default();
    // The last commit timestamp handed to a committer.
    let mut last_ts;
    // A committed filler object twice the pool: reading it evicts
    // everything else.
    let filler = {
        let txn = env.begin();
        let id = store.create(&txn, &LoSpec::fchunk()).unwrap();
        let bytes = fill(&mut rng, 64 * 8192);
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        h.write_at(0, &bytes).unwrap();
        h.close().unwrap();
        last_ts = txn.commit();
        model.objects.push((id, bytes));
        id
    };
    // The open transaction and its writes: (object index, offset, bytes).
    type Pending = Vec<(usize, usize, Vec<u8>)>;
    let mut txn: Option<(Txn, Pending)> = None;
    let mut evicted = false;
    let mut home_baseline_from: Option<u64> = None;
    let mut replayed = std::collections::BTreeSet::new();
    let mut home_baseline_replayed = false;
    // Reopen a killed copy twice: both must read the committed model.
    let mut recover =
        |dir: &std::path::Path, what: &str, model: &Model, last_ts, home_from: Option<u64>| {
            let first = StorageEnv::open_with(dir, opts()).unwrap();
            let (redo, end) = (first.wal().redo_lsn(), first.wal().end_lsn());
            for r in pglo::wal::Wal::scan_records(dir.join("wal"), seg).unwrap() {
                if r.lsn >= redo && r.lsn < end {
                    replayed.insert(r.kind);
                    let from_home = home_from.is_some_and(|h| redo <= h && h <= r.lsn);
                    home_baseline_replayed |= r.kind == pglo::wal::KIND_PAGE_DELTA && from_home;
                }
            }
            assert!(first.txns().current_timestamp() >= last_ts, "{what}: time travel went back");
            let seen = read_back(&first, model);
            assert_eq!(&seen, model, "{what}: first reopen lost committed state");
            drop(first);
            let second = StorageEnv::open_with(dir, opts()).unwrap();
            assert!(second.txns().current_timestamp() >= last_ts, "{what}: time travel went back");
            assert_eq!(read_back(&second, model), seen, "{what}: reopens disagree");
        };
    let mut archives = 0;
    let mut middles = 0;
    let (mut after_capture, mut reflushed) = (0, 0);
    let (mut names, mut reused_tails) = (std::collections::HashMap::new(), 0);
    const CHUNK: usize = pglo::lobj::CHUNK_SIZE;
    const SEG_BLOCKS: u32 = pglo::smgr::disk::SEGMENT_BLOCKS;
    for step in 0..100 {
        let op = rng.below(15);
        let mut middle = false;
        let objects = model.objects.len();
        let what = match op {
            0..=3 | 13 | 14 if objects > 1 => {
                // Overwrite inside the committed size, in the open txn:
                // 0-3, one write of up to 12 KiB; 13, one whole chunk
                // right after a capture, so the write-back's insert finds
                // its hint page full and already logged; 14, three writes
                // into one chunk through one handle, flushed after each,
                // so each write-back supersedes the version the one before
                // it wrote.
                let i = 1 + rng.below(objects as u64 - 1) as usize;
                let size = model.objects[i].1.len();
                let mut writes = Vec::new();
                match op {
                    13 if size >= CHUNK => {
                        let off = rng.below((size / CHUNK) as u64) as usize * CHUNK;
                        writes.push((off, fill(&mut rng, CHUNK)));
                    }
                    13 => continue,
                    14 => {
                        let start = rng.below(size as u64) as usize / CHUNK * CHUNK;
                        let end = (start + CHUNK).min(size);
                        for _ in 0..3 {
                            let off = start + rng.below((end - start) as u64) as usize;
                            let len = (1 + rng.below(2048) as usize).min(end - off);
                            writes.push((off, fill(&mut rng, len)));
                        }
                    }
                    _ => {
                        let off = rng.below(size as u64) as usize;
                        let len = (1 + rng.below(12 * 1024) as usize).min(size - off);
                        writes.push((off, fill(&mut rng, len)));
                    }
                }
                if evicted {
                    home_baseline_from.get_or_insert(env.wal().end_lsn());
                    evicted = false;
                }
                let (t, pending) = txn.get_or_insert_with(|| (env.begin(), Vec::new()));
                if op == 13 {
                    env.pool().capture_pending().unwrap();
                }
                let mut h = store.open(t, model.objects[i].0, OpenMode::ReadWrite).unwrap();
                for (off, bytes) in writes {
                    h.write_at(off as u64, &bytes).unwrap();
                    if op == 14 {
                        h.flush().unwrap();
                    }
                    pending.push((i, off, bytes));
                }
                h.close().unwrap();
                match op {
                    13 => {
                        after_capture += 1;
                        "whole-chunk overwrite after a capture"
                    }
                    14 => {
                        reflushed += 1;
                        "partial overwrites flushed in turn"
                    }
                    _ => "overwrite",
                }
            }
            4 if txn.is_some() => {
                let (t, pending) = txn.take().unwrap();
                last_ts = t.commit();
                for (i, off, bytes) in pending {
                    model.objects[i].1[off..off + bytes.len()].copy_from_slice(&bytes);
                }
                "commit"
            }
            5 if txn.is_some() => {
                txn.take().unwrap().0.abort();
                "abort"
            }
            6 if txn.is_none() => {
                // Grow (or create, up to three objects) in its own txn.
                let t = env.begin();
                let i = if objects < 2 || (objects < 4 && rng.below(2) == 0) {
                    let id = store.create(&t, &LoSpec::fchunk()).unwrap();
                    model.objects.push((id, Vec::new()));
                    objects
                } else {
                    1 + rng.below(objects as u64 - 1) as usize
                };
                let len = 4096 + rng.below(16 * 1024) as usize;
                let bytes = fill(&mut rng, len);
                let end = model.objects[i].1.len();
                let mut h = store.open(&t, model.objects[i].0, OpenMode::ReadWrite).unwrap();
                h.write_at(end as u64, &bytes).unwrap();
                h.close().unwrap();
                last_ts = t.commit();
                model.objects[i].1.extend_from_slice(&bytes);
                evicted = false;
                "grow"
            }
            7 => {
                env.pool().flush_dirty_batch();
                "flush_dirty_batch"
            }
            8 => {
                let t = env.begin();
                let mut h = store.open(&t, filler, OpenMode::ReadOnly).unwrap();
                let mut buf = vec![0u8; 64 * 8192];
                h.read_at(0, &mut buf).unwrap();
                drop(h);
                t.abort();
                evicted = true;
                "evict"
            }
            9 | 10 => {
                // The pass's middle is its log from before it with every
                // other file from after: the outcome table is written and
                // the checkpoint record is not.
                if pre_wal.exists() {
                    std::fs::remove_dir_all(&pre_wal).unwrap();
                }
                copy_dir(&live.join("wal"), &pre_wal);
                env.checkpoint().unwrap();
                middle = true;
                "checkpoint"
            }
            11 if txn.is_none() => {
                let name = format!("ARCH{archives}");
                archives += 1;
                let heap = Heap::create(&env, &name, env.worm_id(), Default::default()).unwrap();
                let t = env.begin();
                let mut rows: Vec<Vec<u8>> =
                    (0..3).map(|r| format!("{name} row {r}").into_bytes()).collect();
                for row in &rows {
                    heap.insert(&t, row).unwrap();
                }
                heap.flush().unwrap(); // logs the burn, then burns
                last_ts = t.commit();
                rows.sort();
                model.archives.push((name, rows));
                "archive"
            }
            12 => {
                for _ in 0..300 {
                    env.begin().abort();
                }
                "read-only churn"
            }
            _ => continue,
        };
        // Kill the process here: copy what the OS holds.
        kill_copy(&live, &work);
        recover(&work, &format!("step {step} ({what})"), &model, last_ts, home_baseline_from);
        if middle {
            let last =
                |wal: &std::path::Path| pglo::wal::Wal::scan_records(wal, seg).unwrap().pop();
            let (pass, before) = (last(&live.join("wal")).unwrap(), last(&pre_wal));
            // A pass that found the log idle appended nothing: no middle.
            if before.is_none_or(|b| b.lsn < pass.lsn) {
                assert_eq!(pass.kind, pglo::wal::KIND_CHECKPOINT, "the pass ends the log");
                std::fs::remove_dir_all(&work).unwrap();
                copy_dir(&live, &work);
                std::fs::remove_dir_all(work.join("wal")).unwrap();
                copy_dir(&pre_wal, &work.join("wal"));
                let what = format!("step {step} (checkpoint middle)");
                recover(&work, &what, &model, last_ts, home_baseline_from);
                middles += 1;
            }
        }
        if step % 10 == 9 {
            // Recycle, then log records replay skips (a page of the
            // reserved manager slot) until one lands in the next segment.
            env.checkpoint().unwrap();
            let wal = env.wal();
            let next = wal.end_lsn() / seg * seg + seg;
            let page = pglo::pages::alloc_page();
            while wal.end_lsn() <= next {
                let rec = pglo::wal::PreparedRecord::page_delta(63, 1, 0, None, &page);
                wal.append_batch(&mut [rec]).unwrap();
            }
            wal.flush_all().unwrap();
            reused_tails += usize::from(tail_is_reused(&live.join("wal"), seg, next, &mut names));
            kill_copy(&live, &work);
            recover(&work, &format!("step {step} (rotate)"), &model, last_ts, home_baseline_from);
        }
        if step == 33 || step == 66 {
            // Hand out the filler's chunk heap blocks up to a relation
            // segment boundary, writing none, then grow the filler.
            let meta = store.meta(filler).unwrap();
            let (mgr, rel) = (env.switch().get(meta.smgr).unwrap(), meta.data_rel);
            let to = if step == 33 { 2 * SEG_BLOCKS } else { 3 * SEG_BLOCKS - 1 };
            while mgr.nblocks(rel).unwrap() < to {
                mgr.allocate(rel).unwrap();
            }
            let t = env.begin();
            let bytes: Vec<u8> = (0..3 * CHUNK).map(|i| (i % 253) as u8 ^ step as u8).collect();
            let end = model.objects[0].1.len();
            let mut h = store.open(&t, filler, OpenMode::ReadWrite).unwrap();
            h.write_at(end as u64, &bytes).unwrap();
            h.close().unwrap();
            last_ts = t.commit();
            model.objects[0].1.extend_from_slice(&bytes);
            kill_copy(&live, &work);
            let what = format!("step {step} (grow across a relation segment, logged)");
            recover(&work, &what, &model, last_ts, home_baseline_from);
            env.pool().flush_all().unwrap();
            let len = |n: u32| {
                let path = live.join("heap").join(format!("rel_{rel}.pg.{n}"));
                std::fs::metadata(path).unwrap().len()
            };
            if step == 33 {
                assert_eq!(len(1), 0, "segment 1 holds no block");
                assert!(len(2) > 0, "the grow's blocks are home in segment 2");
            } else {
                assert!(len(3) > 0, "the grow crossed into segment 3");
            }
            kill_copy(&live, &work);
            let what = format!("step {step} (grow across a relation segment, home)");
            recover(&work, &what, &model, last_ts, home_baseline_from);
        }
    }
    use pglo::wal::{KIND_CHECKPOINT, KIND_COMMIT, KIND_LIMITS, KIND_PAGE_DELTA, KIND_WORM_BURN};
    for kind in [KIND_PAGE_DELTA, KIND_COMMIT, KIND_WORM_BURN, KIND_CHECKPOINT, KIND_LIMITS] {
        assert!(replayed.contains(&kind), "no crash replayed a kind-{kind} record");
    }
    assert!(home_baseline_replayed, "no crash replayed a delta over pages read back from home");
    assert!(after_capture > 0, "no step overwrote a whole chunk after a capture");
    assert!(reflushed > 0, "no step flushed one chunk's overwrites in turn");
    assert!(middles > 0, "no checkpoint was killed in its middle");
    let next = env.begin().xid().0;
    assert!(next > 2 * 1024, "the script must cross two XID limit blocks, reached {next}");
    let live_log = pglo::wal::Wal::scan_records(live.join("wal"), seg).unwrap();
    assert!(live_log[0].lsn >= seg, "checkpoints must recycle the first segment");
    assert!(reused_tails > 0, "no kill found the log's tail in a recycled segment");
}

/// A chunk heap's fresh block lives only in memory until its first
/// write-back grows the file. Kill the process wherever that leaves the
/// heap file short of the blocks handed out:
/// (a) the newest block logged by a commit but never written home;
/// (b) a hole: the newest block home, the one before it not;
/// (c) a chunk-index leaf naming an uncommitted version's fresh block,
///     evicted home through the small pool while that block is not home.
/// Each killed copy is reopened twice. Both reopens must read exactly the
/// committed bytes, and no chunk-index entry may name a block at or past
/// its heap's length: the next insert would be handed that block, and
/// the stale entry would then name another chunk's row.
#[test]
fn crash_on_the_lazy_extension_path_recovers_committed_state() {
    use pglo::btree::{BTree, ScanStart};
    use pglo::buffer::PageKey;
    use pglo::pages::PAGE_SIZE;
    const CHUNK: usize = 8000;
    let tmp = tempfile::tempdir().unwrap();
    let (live, work) = (tmp.path().join("live"), tmp.path().join("work"));
    let opts =
        || EnvOptions { pool_frames: 32, wal_segment_bytes: 64 * 1024, ..Default::default() };
    let env = StorageEnv::open_with(&live, opts()).unwrap();
    let store = LoStore::new(Arc::clone(&env));
    let fill = |seed: u8, len: usize| -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect()
    };
    let write = |txn: &Txn, id: LoId, off: usize, bytes: &[u8]| {
        let mut h = store.open(txn, id, OpenMode::ReadWrite).unwrap();
        h.write_at(off as u64, bytes).unwrap();
        h.close().unwrap();
    };
    // A filler twice the pool, whose read evicts every unpinned frame, and
    // the object under test, four chunks of one heap page each; all home.
    let mut model = Model::default();
    let txn = env.begin();
    for (seed, len) in [(1, 64 * 8192), (2, 4 * CHUNK)] {
        let id = store.create(&txn, &LoSpec::fchunk()).unwrap();
        let bytes = fill(seed, len);
        write(&txn, id, 0, &bytes);
        model.objects.push((id, bytes));
    }
    txn.commit();
    env.pool().flush_all().unwrap();
    let (filler, id) = (model.objects[0].0, model.objects[1].0);
    let meta = store.meta(id).unwrap();
    let heap = Heap::open_oid(&env, meta.data_rel, meta.smgr);
    let heap_file = live.join("heap").join(format!("rel_{}.pg", meta.data_rel));
    let home_blocks = || std::fs::metadata(&heap_file).unwrap().len() / PAGE_SIZE as u64;
    let key = |block: u32| PageKey::new(meta.smgr, meta.data_rel, block);
    // Rewrite chunk `seq`, into `model` too if the write will commit.
    let rewrite = |txn: &Txn, seq: usize, seed: u8, model: Option<&mut Model>| {
        let bytes = fill(seed, CHUNK);
        write(txn, id, seq * CHUNK, &bytes);
        if let Some(model) = model {
            model.objects[1].1[seq * CHUNK..][..CHUNK].copy_from_slice(&bytes);
        }
    };
    // Copy what the OS holds, reopen the copy twice, and return the heap
    // blocks its chunk index names.
    let recover = |what: &str, model: &Model| -> Vec<u32> {
        if work.exists() {
            std::fs::remove_dir_all(&work).unwrap();
        }
        copy_dir(&live, &work);
        let mut named = Vec::new();
        for reopen in ["first", "second"] {
            let env = StorageEnv::open_with(&work, opts()).unwrap();
            assert_eq!(&read_back(&env, model), model, "{what}: {reopen} reopen");
            let nblocks = Heap::open_oid(&env, meta.data_rel, meta.smgr).nblocks().unwrap();
            let index = BTree::open_oid(&env, meta.idx_rel, meta.smgr);
            let mut scan = index.scan(ScanStart::First).unwrap();
            named.clear();
            while let Some((_, tid)) = scan.next_entry().unwrap() {
                assert!(
                    tid.block < nblocks,
                    "{what}: {reopen} reopen: chunk index names {tid:?}, heap has {nblocks} blocks"
                );
                named.push(tid.block);
            }
        }
        named
    };

    // (a) A committed chunk version in a fresh block: logged, not home.
    let txn = env.begin();
    rewrite(&txn, 1, 0xA1, Some(&mut model));
    txn.commit();
    assert!(home_blocks() < heap.nblocks().unwrap() as u64, "(a): the newest block is home");
    recover("(a) logged, never written home", &model);

    // (b) Two fresh blocks; the pinned earlier one stays out of the batch
    // flush that writes the later one home.
    let txn = env.begin();
    rewrite(&txn, 2, 0xB2, Some(&mut model));
    rewrite(&txn, 3, 0xB3, Some(&mut model));
    txn.commit();
    let newest = heap.nblocks().unwrap() - 1;
    {
        let _hold = env.pool().pin(key(newest - 1)).unwrap();
        env.pool().flush_dirty_batch();
    }
    assert_eq!(home_blocks(), newest as u64 + 1, "(b): the newest block is not home");
    let file = std::fs::read(&heap_file).unwrap();
    let hole = &file[(newest as usize - 1) * PAGE_SIZE..][..PAGE_SIZE];
    assert!(hole.iter().all(|&b| b == 0), "(b): the block before the newest is home");
    recover("(b) a hole", &model);

    // (c) An uncommitted version in a fresh block, pinned in the pool while
    // a rewrite of the filler fills the pool with dirty pages: no victim is
    // clean, so a batch write-back takes the index leaf home.
    let txn = env.begin();
    rewrite(&txn, 0, 0xC0, None);
    let newest = heap.nblocks().unwrap() - 1;
    {
        let _hold = env.pool().pin(key(newest)).unwrap();
        let other = env.begin();
        write(&other, filler, 0, &fill(3, 64 * 8192));
        other.abort();
    }
    assert!(home_blocks() <= newest as u64, "(c): the uncommitted version's block is home");
    let named = recover("(c) a home leaf names an unwritten block", &model);
    assert!(named.contains(&newest), "(c): no leaf naming the uncommitted version went home");
    txn.abort();
}
