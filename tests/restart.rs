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

/// Append harmless records until the current log segment has exactly
/// `tail` bytes left: 40-byte commits of empty transactions, 32-byte
/// checkpoint records restating the redo horizon and, when the gap is 4
/// mod 8, one 52-byte delta for a storage manager nobody registered
/// (replay skips those).
fn pad_segment_to_tail(env: &StorageEnv, seg: u64, tail: u64) {
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
        wal.append(&pglo::wal::WalRecord::Checkpoint { redo_lsn: wal.redo_lsn() }).unwrap();
        g -= 32;
    }
    for _ in 0..g / 40 {
        env.begin().commit();
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
        std::mem::forget(env); // crash: nothing flushed home
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

/// The crash gate for the page-delta log: a seeded script of writes,
/// commits, aborts, batch flushes, evictions through a small pool, WORM
/// archiving and checkpoints, with a process kill after every step. Each
/// kill copies the live data directory; the copy is reopened twice, and
/// both reopens must read exactly the committed model (aborted and
/// in-flight bytes invisible). Across the kills, every record kind must
/// have been replayed, including deltas logged after pages were read
/// back from home, whose baseline is the home copy.
#[test]
fn crash_after_every_step_recovers_committed_state() {
    let tmp = tempfile::tempdir().unwrap();
    let (live, work) = (tmp.path().join("live"), tmp.path().join("work"));
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
    // A committed filler object twice the pool: reading it evicts
    // everything else.
    let filler = {
        let txn = env.begin();
        let id = store.create(&txn, &LoSpec::fchunk()).unwrap();
        let bytes = fill(&mut rng, 64 * 8192);
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        h.write_at(0, &bytes).unwrap();
        h.close().unwrap();
        txn.commit();
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
    let mut archives = 0;
    for step in 0..80 {
        let op = rng.below(12);
        let objects = model.objects.len();
        let what = match op {
            0..=3 if objects > 1 => {
                // Overwrite inside the committed size, in the open txn.
                let i = 1 + rng.below(objects as u64 - 1) as usize;
                let size = model.objects[i].1.len();
                let off = rng.below(size as u64) as usize;
                let len = (1 + rng.below(12 * 1024) as usize).min(size - off);
                let bytes = fill(&mut rng, len);
                if evicted {
                    home_baseline_from.get_or_insert(env.wal().end_lsn());
                    evicted = false;
                }
                let (t, pending) = txn.get_or_insert_with(|| (env.begin(), Vec::new()));
                let mut h = store.open(t, model.objects[i].0, OpenMode::ReadWrite).unwrap();
                h.write_at(off as u64, &bytes).unwrap();
                h.close().unwrap();
                pending.push((i, off, bytes));
                "overwrite"
            }
            4 if txn.is_some() => {
                let (t, pending) = txn.take().unwrap();
                t.commit();
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
                t.commit();
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
                env.checkpoint().unwrap();
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
                t.commit();
                rows.sort();
                model.archives.push((name, rows));
                "archive"
            }
            _ => continue,
        };
        // Kill the process here: copy what the OS holds.
        if work.exists() {
            std::fs::remove_dir_all(&work).unwrap();
        }
        copy_dir(&live, &work);
        let first = StorageEnv::open_with(&work, opts()).unwrap();
        let (redo, end) = (first.wal().redo_lsn(), first.wal().end_lsn());
        for r in pglo::wal::Wal::scan_records(work.join("wal"), seg).unwrap() {
            if r.lsn >= redo && r.lsn < end {
                replayed.insert(r.kind);
                let from_home = home_baseline_from.is_some_and(|h| redo <= h && h <= r.lsn);
                home_baseline_replayed |= r.kind == pglo::wal::KIND_PAGE_DELTA && from_home;
            }
        }
        let seen = read_back(&first, &model);
        assert_eq!(seen, model, "step {step} ({what}): first reopen lost committed state");
        drop(first);
        let second = StorageEnv::open_with(&work, opts()).unwrap();
        assert_eq!(read_back(&second, &model), seen, "step {step} ({what}): reopens disagree");
    }
    use pglo::wal::{KIND_CHECKPOINT, KIND_COMMIT, KIND_PAGE_DELTA, KIND_WORM_BURN};
    for kind in [KIND_PAGE_DELTA, KIND_COMMIT, KIND_WORM_BURN, KIND_CHECKPOINT] {
        assert!(replayed.contains(&kind), "no crash replayed a kind-{kind} record");
    }
    assert!(home_baseline_replayed, "no crash replayed a delta over pages read back from home");
    let live_log = pglo::wal::Wal::scan_records(live.join("wal"), seg).unwrap();
    assert!(live_log[0].lsn >= seg, "checkpoints must recycle the first segment");
}
