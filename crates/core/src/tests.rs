//! Behaviour tests across all four large-object implementations.

use crate::{LoError, LoId, LoSpec, LoStore, OpenMode, UserId, CHUNK_SIZE};
use pglo_btree::BTree;
use pglo_compress::synth::FrameGenerator;
use pglo_compress::CodecKind;
use pglo_heap::StorageEnv;
use proptest::prelude::*;
use std::io::SeekFrom;
use std::sync::Arc;

fn setup() -> (tempfile::TempDir, Arc<StorageEnv>, LoStore) {
    let dir = tempfile::tempdir().unwrap();
    let env = StorageEnv::open(dir.path()).unwrap();
    let store = LoStore::new(Arc::clone(&env)).unwrap();
    (dir, env, store)
}

fn all_specs(dir: &std::path::Path) -> Vec<(&'static str, LoSpec)> {
    vec![
        ("ufile", LoSpec::ufile(dir.join("user_object"))),
        ("pfile", LoSpec::pfile()),
        ("fchunk", LoSpec::fchunk()),
        ("fchunk+rle", LoSpec::fchunk().with_codec(CodecKind::Rle)),
        ("fchunk+lz77", LoSpec::fchunk().with_codec(CodecKind::Lz77)),
        ("vsegment+rle", LoSpec::vsegment(CodecKind::Rle)),
        ("vsegment", LoSpec::vsegment(CodecKind::None)),
    ]
}

#[test]
fn write_read_roundtrip_all_implementations() {
    let (dir, env, store) = setup();
    for (name, spec) in all_specs(dir.path()) {
        let txn = env.begin();
        let id = store.create(&txn, &spec).unwrap();
        let payload: Vec<u8> = (0..20_000u32).map(|i| (i * 7 % 251) as u8).collect();
        {
            let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
            h.write(&payload).unwrap();
            h.close().unwrap();
        }
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        assert_eq!(h.size().unwrap(), payload.len() as u64, "{name}: size");
        assert_eq!(h.read_to_vec().unwrap(), payload, "{name}: contents");
        h.close().unwrap();
        txn.commit();
    }
}

#[test]
fn seek_and_partial_reads() {
    let (dir, env, store) = setup();
    for (name, spec) in all_specs(dir.path()) {
        let txn = env.begin();
        let id = store.create(&txn, &spec).unwrap();
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        h.write(b"0123456789abcdef").unwrap();
        h.seek(SeekFrom::Start(10)).unwrap();
        let mut buf = [0u8; 6];
        assert_eq!(h.read(&mut buf).unwrap(), 6, "{name}");
        assert_eq!(&buf, b"abcdef", "{name}");
        h.seek(SeekFrom::End(-4)).unwrap();
        let mut buf = [0u8; 10];
        assert_eq!(h.read(&mut buf).unwrap(), 4, "{name}: short read at end");
        assert_eq!(&buf[..4], b"cdef", "{name}");
        assert_eq!(h.read(&mut buf).unwrap(), 0, "{name}: EOF");
        h.seek(SeekFrom::Current(-8)).unwrap();
        assert_eq!(h.tell(), 8);
        h.close().unwrap();
        txn.commit();
    }
}

#[test]
fn overwrite_middle_all_implementations() {
    let (dir, env, store) = setup();
    for (name, spec) in all_specs(dir.path()) {
        let txn = env.begin();
        let id = store.create(&txn, &spec).unwrap();
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        let base = vec![0xAAu8; 30_000];
        h.write(&base).unwrap();
        // Replace an unaligned span crossing a chunk boundary.
        h.write_at(7_990, &[0xBBu8; 100]).unwrap();
        let all = h.read_to_vec().unwrap();
        assert_eq!(all.len(), 30_000, "{name}");
        assert!(all[..7_990].iter().all(|&b| b == 0xAA), "{name}: prefix");
        assert!(all[7_990..8_090].iter().all(|&b| b == 0xBB), "{name}: patch");
        assert!(all[8_090..].iter().all(|&b| b == 0xAA), "{name}: suffix");
        h.close().unwrap();
        txn.commit();
    }
}

#[test]
fn chunk_boundary_exact_writes() {
    let (_d, env, store) = setup();
    let txn = env.begin();
    let id = store.create(&txn, &LoSpec::fchunk()).unwrap();
    let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
    // Write exactly one chunk, then exactly at its boundary.
    h.write(&vec![1u8; CHUNK_SIZE]).unwrap();
    h.write(&vec![2u8; CHUNK_SIZE]).unwrap();
    h.write(&[3u8; 10]).unwrap();
    assert_eq!(h.size().unwrap(), 2 * CHUNK_SIZE as u64 + 10);
    let all = h.read_to_vec().unwrap();
    assert!(all[..CHUNK_SIZE].iter().all(|&b| b == 1));
    assert!(all[CHUNK_SIZE..2 * CHUNK_SIZE].iter().all(|&b| b == 2));
    assert!(all[2 * CHUNK_SIZE..].iter().all(|&b| b == 3));
    h.close().unwrap();
    txn.commit();
}

#[test]
fn sparse_writes_read_back_zeros() {
    let (_d, env, store) = setup();
    for spec in [LoSpec::fchunk(), LoSpec::vsegment(CodecKind::Rle)] {
        let txn = env.begin();
        let id = store.create(&txn, &spec).unwrap();
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        h.seek(SeekFrom::Start(50_000)).unwrap();
        h.write(b"tail").unwrap();
        assert_eq!(h.size().unwrap(), 50_004);
        let mut buf = [9u8; 16];
        assert_eq!(h.read_at(20_000, &mut buf).unwrap(), 16);
        assert_eq!(buf, [0u8; 16], "hole reads as zeros");
        let mut buf = [0u8; 4];
        h.read_at(50_000, &mut buf).unwrap();
        assert_eq!(&buf, b"tail");
        h.close().unwrap();
        txn.commit();
    }
}

#[test]
fn compression_saves_space_vsegment_but_not_30pct_fchunk() {
    // The Figure 1 geometry: 30 % reduction saves nothing under f-chunk
    // (one >half-page tuple per page) but does save under v-segment.
    let (_d, env, store) = setup();
    let gen = pglo_compress::synth::calibrate(CodecKind::Rle.codec(), 4096, 0.70, 7).0;
    let total = 200; // 200 × 4096 B frames ≈ 800 KB object
    let write_all = |spec: &LoSpec| -> (LoId, u64, u64) {
        let txn = env.begin();
        let id = store.create(&txn, spec).unwrap();
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        for i in 0..total {
            h.write(&gen.frame(i)).unwrap();
        }
        h.close().unwrap();
        txn.commit();
        let breakdown = store.storage_breakdown(id).unwrap();
        (id, breakdown.data_bytes, breakdown.total())
    };
    let (_, plain_data, _) = write_all(&LoSpec::fchunk());
    let (_, rle_fchunk_data, _) = write_all(&LoSpec::fchunk().with_codec(CodecKind::Rle));
    let (_, vseg_data, _) = write_all(&LoSpec::vsegment(CodecKind::Rle));
    // "No space savings is achieved" — up to one page of slack for the
    // object's short tail chunk, whose compressed tuple can share a page.
    assert!(
        plain_data.abs_diff(rle_fchunk_data) <= pglo_pages::PAGE_SIZE as u64,
        "30 % compression must save (almost) no f-chunk pages: plain={plain_data} rle={rle_fchunk_data}"
    );
    let ratio = vseg_data as f64 / plain_data as f64;
    assert!(
        (0.6..0.85).contains(&ratio),
        "v-segment should store ~70 % of the plain bytes, got {ratio:.2}"
    );
}

#[test]
fn fchunk_50pct_compression_halves_pages() {
    let (_d, env, store) = setup();
    // Frames that LZ77 crushes well below half: mostly runs.
    let gen = FrameGenerator::new(CHUNK_SIZE, 0.9, 3);
    let write_all = |spec: &LoSpec| -> u64 {
        let txn = env.begin();
        let id = store.create(&txn, spec).unwrap();
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        for i in 0..100 {
            h.write(&gen.frame(i)).unwrap();
        }
        h.close().unwrap();
        txn.commit();
        store.storage_breakdown(id).unwrap().data_bytes
    };
    let plain = write_all(&LoSpec::fchunk());
    let tight = write_all(&LoSpec::fchunk().with_codec(CodecKind::Lz77));
    assert!(
        tight * 2 <= plain + pglo_pages::PAGE_SIZE as u64 * 2,
        "≤50 % chunks must pack two per page: plain={plain} tight={tight}"
    );
}

#[test]
fn time_travel_reads_old_object_versions() {
    let (_d, env, store) = setup();
    for spec in [LoSpec::fchunk(), LoSpec::vsegment(CodecKind::Rle)] {
        // Version 1.
        let t1 = env.begin();
        let id = store.create(&t1, &spec).unwrap();
        {
            let mut h = store.open(&t1, id, OpenMode::ReadWrite).unwrap();
            h.write(&vec![1u8; 12_000]).unwrap();
            h.close().unwrap();
        }
        let ts1 = t1.commit();
        // Version 2: replace the middle and extend.
        let t2 = env.begin();
        {
            let mut h = store.open(&t2, id, OpenMode::ReadWrite).unwrap();
            h.write_at(4_000, &vec![2u8; 4_000]).unwrap();
            h.write_at(12_000, &vec![3u8; 2_000]).unwrap();
            h.close().unwrap();
        }
        let ts2 = t2.commit();

        // As of ts1: the original 12 000 ones.
        let mut h1 = store.open_as_of(id, ts1).unwrap();
        assert_eq!(h1.size().unwrap(), 12_000);
        let v1 = h1.read_to_vec().unwrap();
        assert!(v1.iter().all(|&b| b == 1), "as-of ts1 must be all ones");
        // As of ts2: patched and extended.
        let mut h2 = store.open_as_of(id, ts2).unwrap();
        assert_eq!(h2.size().unwrap(), 14_000);
        let v2 = h2.read_to_vec().unwrap();
        assert!(v2[..4_000].iter().all(|&b| b == 1));
        assert!(v2[4_000..8_000].iter().all(|&b| b == 2));
        assert!(v2[8_000..12_000].iter().all(|&b| b == 1));
        assert!(v2[12_000..].iter().all(|&b| b == 3));
        // Time-travel handles are read-only.
        assert!(matches!(h2.write(b"x"), Err(LoError::ReadOnly)));
    }
}

#[test]
fn file_kinds_reject_time_travel() {
    let (dir, env, store) = setup();
    let txn = env.begin();
    let u = store.create(&txn, &LoSpec::ufile(dir.path().join("u"))).unwrap();
    let p = store.create(&txn, &LoSpec::pfile()).unwrap();
    txn.commit();
    assert!(matches!(store.open_as_of(u, 1), Err(LoError::Unsupported(_))));
    assert!(matches!(store.open_as_of(p, 1), Err(LoError::Unsupported(_))));
}

#[test]
fn transaction_abort_rolls_back_chunk_writes() {
    let (_d, env, store) = setup();
    for spec in [LoSpec::fchunk(), LoSpec::vsegment(CodecKind::None)] {
        let t1 = env.begin();
        let id = store.create(&t1, &spec).unwrap();
        {
            let mut h = store.open(&t1, id, OpenMode::ReadWrite).unwrap();
            h.write(&vec![7u8; 10_000]).unwrap();
            h.close().unwrap();
        }
        t1.commit();
        // A transaction scribbles then aborts.
        let t2 = env.begin();
        {
            let mut h = store.open(&t2, id, OpenMode::ReadWrite).unwrap();
            h.write_at(0, &vec![9u8; 10_000]).unwrap();
            h.close().unwrap();
        }
        t2.abort();
        // A later reader sees the committed bytes.
        let t3 = env.begin();
        let mut h = store.open(&t3, id, OpenMode::ReadOnly).unwrap();
        let all = h.read_to_vec().unwrap();
        assert!(all.iter().all(|&b| b == 7), "aborted write must not be visible");
        h.close().unwrap();
        t3.commit();
    }
}

#[test]
fn pfile_single_user_updatable() {
    let (_d, env, store) = setup();
    let owner = UserId(42);
    let stranger = UserId(77);
    let txn = env.begin();
    let id = store.create(&txn, &LoSpec::pfile().owned_by(owner)).unwrap();
    // Owner writes.
    {
        let mut h = store.open_as(&txn, id, OpenMode::ReadWrite, owner).unwrap();
        h.write(b"owner data").unwrap();
        h.close().unwrap();
    }
    // Stranger cannot write…
    assert!(matches!(
        store.open_as(&txn, id, OpenMode::ReadWrite, stranger),
        Err(LoError::Permission { .. })
    ));
    // …but can read.
    let mut h = store.open_as(&txn, id, OpenMode::ReadOnly, stranger).unwrap();
    assert_eq!(h.read_to_vec().unwrap(), b"owner data");
    assert!(matches!(h.write(b"nope"), Err(LoError::ReadOnly)));
    h.close().unwrap();
    txn.commit();
}

#[test]
fn ufile_unprotected_anyone_writes() {
    let (dir, env, store) = setup();
    let txn = env.begin();
    let id =
        store.create(&txn, &LoSpec::ufile(dir.path().join("shared")).owned_by(UserId(1))).unwrap();
    let mut h = store.open_as(&txn, id, OpenMode::ReadWrite, UserId(99)).unwrap();
    h.write(b"anyone").unwrap();
    h.close().unwrap();
    txn.commit();
    // The bytes live in a plain host file the user fully controls (§6.1).
    assert_eq!(std::fs::read(dir.path().join("shared")).unwrap(), b"anyone");
}

#[test]
fn unlink_reclaims_relations() {
    let (_d, env, store) = setup();
    let txn = env.begin();
    let id = store.create(&txn, &LoSpec::vsegment(CodecKind::Rle)).unwrap();
    {
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        h.write(&vec![5u8; 50_000]).unwrap();
        h.close().unwrap();
    }
    txn.commit();
    let meta = store.meta(id).unwrap();
    store.unlink(id).unwrap();
    assert!(matches!(store.meta(id), Err(LoError::NotFound(_))));
    // Component relations are gone from the storage manager.
    let smgr = env.switch().get(meta.smgr).unwrap();
    assert!(!smgr.exists(meta.data_rel));
    assert!(!smgr.exists(meta.seg_rel));
}

/// Large-object metadata never reaches the class catalog: a fresh
/// environment creates, writes and unlinks 50 f-chunk objects and its
/// class heap stays empty.
#[test]
fn creates_and_unlinks_write_no_catalog() {
    let (_dir, env, store) = setup();
    for _ in 0..50 {
        let txn = env.begin();
        let id = store.create(&txn, &LoSpec::fchunk()).unwrap();
        store.open(&txn, id, OpenMode::ReadWrite).unwrap().write(&[1; 100]).unwrap();
        txn.commit();
        store.unlink(id).unwrap();
        assert!(matches!(store.meta(id), Err(LoError::NotFound(_))));
    }
    let classes = pglo_heap::Heap::open_oid(&env, pglo_heap::CLASS_HEAP, env.disk_id());
    assert_eq!(
        classes.scan(pglo_txn::Visibility::Raw).count(),
        0,
        "a create or an unlink wrote a class"
    );
}

#[test]
fn pfile_unlink_removes_host_file() {
    let (_d, env, store) = setup();
    let txn = env.begin();
    let id = store.create(&txn, &LoSpec::pfile()).unwrap();
    let path = store.meta(id).unwrap().path.unwrap();
    assert!(path.exists());
    txn.commit();
    store.unlink(id).unwrap();
    assert!(!path.exists());
}

#[test]
fn temporaries_garbage_collected() {
    let (_d, env, store) = setup();
    let txn = env.begin();
    let keep = store.create_temp(&txn, &LoSpec::fchunk()).unwrap();
    let gone1 = store.create_temp(&txn, &LoSpec::fchunk()).unwrap();
    let gone2 = store.create_temp(&txn, &LoSpec::vsegment(CodecKind::None)).unwrap();
    assert_eq!(store.temp_count(), 3);
    assert!(store.keep_temp(keep));
    let reclaimed = store.gc_temps().unwrap();
    assert_eq!(reclaimed, 2);
    assert!(store.meta(keep).is_ok());
    assert!(matches!(store.meta(gone1), Err(LoError::NotFound(_))));
    assert!(matches!(store.meta(gone2), Err(LoError::NotFound(_))));
    txn.commit();
}

/// The path of relation `rel`'s first segment file on the disk manager.
fn rel_file(dir: &std::path::Path, rel: u64) -> std::path::PathBuf {
    dir.join("heap").join(format!("rel_{rel}.pg"))
}

/// Make relation `rel`'s file impossible to remove (a non-empty directory
/// in its place), so an unlink fails dropping it; the returned closure
/// puts the directory away again.
fn jam_rel_file(dir: &std::path::Path, rel: u64) -> impl FnOnce() {
    let path = rel_file(dir, rel);
    std::fs::remove_file(&path).unwrap();
    std::fs::create_dir(&path).unwrap();
    std::fs::write(path.join("pinned"), b"x").unwrap();
    move || std::fs::remove_dir_all(path).unwrap()
}

/// A temp somebody already unlinked is not an error; a temp whose unlink
/// fails is, and the sweep it interrupts loses track of nothing else.
#[test]
fn gc_temps_reports_a_failed_unlink_and_keeps_the_rest() {
    let (dir, env, store) = setup();
    let txn = env.begin();
    let dropped = store.create_temp(&txn, &LoSpec::fchunk()).unwrap();
    store.unlink(dropped).unwrap();
    assert_eq!(store.gc_temps().unwrap(), 1, "object already gone: nothing left to do");

    let stuck = store.create_temp(&txn, &LoSpec::fchunk()).unwrap();
    let fine = store.create_temp(&txn, &LoSpec::fchunk()).unwrap();
    txn.commit();
    // The first temp's chunk heap cannot be removed: its unlink fails
    // dropping the storage.
    let unjam = jam_rel_file(dir.path(), store.meta(stuck).unwrap().data_rel);
    let err = store.gc_temps().unwrap_err();
    assert!(
        matches!(err, LoError::Heap(pglo_heap::HeapError::Smgr(pglo_smgr::SmgrError::Io(_)))),
        "a failed storage drop must surface: {err}"
    );
    unjam();
    assert_eq!(store.temp_count(), 2, "the temp behind the failure is still tracked");
    assert_eq!(store.gc_temps().unwrap(), 2);
    assert!(matches!(store.meta(stuck), Err(LoError::NotFound(_))));
    assert!(matches!(store.meta(fine), Err(LoError::NotFound(_))));
}

#[test]
fn temp_scope_gc_on_drop() {
    let (_d, env, store) = setup();
    let txn = env.begin();
    let id;
    {
        let _scope = crate::TempScope::new(&store);
        id = store.create_temp(&txn, &LoSpec::fchunk()).unwrap();
        assert!(store.meta(id).is_ok());
    }
    assert!(matches!(store.meta(id), Err(LoError::NotFound(_))));
    txn.commit();
}

#[test]
fn std_io_traits_work() {
    // §4's promise, literally: std::io code runs against large objects.
    let (_d, env, store) = setup();
    let txn = env.begin();
    let id = store.create(&txn, &LoSpec::fchunk()).unwrap();
    {
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        std::io::Write::write_all(&mut h, b"via std::io::Write").unwrap();
    }
    let mut h = store.open(&txn, id, OpenMode::ReadOnly).unwrap();
    let mut out = Vec::new();
    std::io::copy(&mut h, &mut out).unwrap();
    assert_eq!(out, b"via std::io::Write");
    h.close().unwrap();
    txn.commit();
}

#[test]
fn lo_id_textual_name() {
    assert_eq!(LoId(12345).to_string(), "lo:12345");
}

#[test]
fn object_on_worm_storage_manager() {
    // §7/§10: any storage manager works for any implementation.
    let (_d, env, store) = setup();
    let txn = env.begin();
    let id = store.create(&txn, &LoSpec::fchunk().on_smgr(env.worm_id())).unwrap();
    let payload = vec![3u8; 40_000];
    {
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        h.write(&payload).unwrap();
        h.close().unwrap();
    }
    env.pool().flush_all().unwrap();
    env.worm_smgr().sync_all().unwrap();
    txn.commit();
    let t2 = env.begin();
    let mut h = store.open(&t2, id, OpenMode::ReadOnly).unwrap();
    assert_eq!(h.read_to_vec().unwrap(), payload);
    h.close().unwrap();
    t2.commit();
}

#[test]
fn size_survives_reopen_of_environment() {
    let dir = tempfile::tempdir().unwrap();
    let id;
    {
        let env = StorageEnv::open(dir.path()).unwrap();
        let store = LoStore::new(Arc::clone(&env)).unwrap();
        let txn = env.begin();
        id = store.create(&txn, &LoSpec::fchunk()).unwrap();
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        h.write(&vec![8u8; 25_000]).unwrap();
        h.close().unwrap();
        env.pool().flush_all().unwrap();
        txn.commit();
    }
    let env = StorageEnv::open(dir.path()).unwrap();
    let store = LoStore::new(Arc::clone(&env)).unwrap();
    let txn = env.begin();
    let mut h = store.open(&txn, id, OpenMode::ReadOnly).unwrap();
    assert_eq!(h.size().unwrap(), 25_000);
}

/// A v-segment object's metadata row is the one its create wrote: writes
/// leave it as it was, and the object opens and reads back from it after
/// the environment is reopened.
#[test]
fn vsegment_opens_from_its_create_time_row() {
    let payload: Vec<u8> = (0..30_000u32).map(|i| (i / 64 % 251) as u8).collect();
    let dir = tempfile::tempdir().unwrap();
    let (id, created);
    {
        let env = StorageEnv::open(dir.path()).unwrap();
        let store = LoStore::new(Arc::clone(&env)).unwrap();
        let txn = env.begin();
        id = store.create(&txn, &LoSpec::vsegment(CodecKind::Rle)).unwrap();
        created = format!("{:?}", store.meta(id).unwrap());
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        assert_eq!(h.size().unwrap(), 0);
        h.write(&payload).unwrap();
        h.close().unwrap();
        assert_eq!(format!("{:?}", store.meta(id).unwrap()), created);
        txn.commit();
        env.pool().flush_all().unwrap();
    }
    let env = StorageEnv::open(dir.path()).unwrap();
    let store = LoStore::new(Arc::clone(&env)).unwrap();
    assert_eq!(format!("{:?}", store.meta(id).unwrap()), created);
    let txn = env.begin();
    let mut h = store.open(&txn, id, OpenMode::ReadOnly).unwrap();
    assert_eq!(h.size().unwrap(), payload.len() as u64);
    assert_eq!(h.read_to_vec().unwrap(), payload);
}

/// Buffer-pool pins (hits and misses) taken by `f`.
fn pins_of<R>(env: &StorageEnv, f: impl FnOnce() -> R) -> (u64, R) {
    let before = env.pool().stats();
    let out = f();
    let after = env.pool().stats();
    ((after.hits + after.misses) - (before.hits + before.misses), out)
}

/// ROADMAP item 2's first reproduction: two transactions extend one
/// committed one-chunk object, into different new chunks, and both
/// commit. The size is derived from the chunks, so a fresh snapshot
/// reads both extensions (a size cached by the last flush read 8,300
/// bytes, and no `A`).
#[test]
fn two_extenders_of_one_object_both_stay_visible() {
    let (_d, env, store) = setup();
    let txn = env.begin();
    let id = store.create(&txn, &LoSpec::fchunk()).unwrap();
    store.open(&txn, id, OpenMode::ReadWrite).unwrap().write(&[1; CHUNK_SIZE]).unwrap();
    txn.commit();
    let (t1, t2) = (env.begin(), env.begin());
    let mut h1 = store.open(&t1, id, OpenMode::ReadWrite).unwrap();
    let mut h2 = store.open(&t2, id, OpenMode::ReadWrite).unwrap();
    h1.write_at(3 * CHUNK_SIZE as u64, &[b'A'; 100]).unwrap();
    h2.write_at(CHUNK_SIZE as u64 + 200, &[b'B'; 100]).unwrap();
    h1.close().unwrap();
    h2.close().unwrap();
    t1.try_commit().unwrap();
    t2.try_commit().unwrap();
    let txn = env.begin();
    let all = store.open(&txn, id, OpenMode::ReadOnly).unwrap().read_to_vec().unwrap();
    assert_eq!(all.len(), 24_100);
    assert!(all[24_000..].iter().all(|&b| b == b'A'), "t1's extension");
    assert!(all[8_200..8_300].iter().all(|&b| b == b'B'), "t2's extension");
    assert!(all[8_000..8_200].iter().chain(&all[8_300..24_000]).all(|&b| b == 0), "the holes");
}

/// An extension that aborts leaves the size where the last commit put
/// it, for a later snapshot, and deriving it walks no whole index: an
/// object four times larger costs an open and its size at most one pin
/// more (one index level), for f-chunk and for v-segment, whose walk
/// stops one segment bound (64 KiB) below the end.
#[test]
fn aborted_extension_leaves_the_size_and_the_open_walks_no_index() {
    let chunk = 64;
    for spec in [LoSpec::fchunk(), LoSpec::vsegment(CodecKind::None)] {
        let open_pins = |chunks: usize| {
            let (_d, env, store) = setup();
            let txn = env.begin();
            let id = store.create(&txn, &spec.clone().with_chunk_size(chunk)).unwrap();
            let size = (chunks * chunk) as u64;
            let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
            for at in (0..size).step_by(4096) {
                h.write_at(at, &vec![7; 4096.min(size - at) as usize]).unwrap();
            }
            h.close().unwrap();
            txn.commit();
            let x = env.begin();
            let mut h = store.open(&x, id, OpenMode::ReadWrite).unwrap();
            h.write_at(size, &[8; 5_000]).unwrap();
            assert_eq!(h.size().unwrap(), size + 5_000);
            h.close().unwrap();
            x.abort();
            let txn = env.begin();
            let (pins, mut h) = pins_of(&env, || {
                let mut h = store.open(&txn, id, OpenMode::ReadOnly).unwrap();
                assert_eq!(h.size().unwrap(), size, "{:?}: the aborted extension", spec.kind);
                h
            });
            assert_eq!(h.read_to_vec().unwrap(), vec![7; size as usize]);
            pins
        };
        let [small, large] = [2_000, 8_000].map(open_pins);
        assert!(
            large <= small + 1,
            "{:?}: open pins, 2,000 and 8,000 chunks: {small}, {large}",
            spec.kind
        );
    }
}

/// An as-of open of a 1,000-chunk object pins what its metadata lookup
/// does: the metadata index's meta page, its one leaf twice (descent, then
/// the walk) and the row's heap page. Its size pins the chunk index's
/// meta page, one page a level (the leaf twice: descent, then the copy of
/// its entries) and the last chunk's heap page: O(tree height), where a
/// recount walked every chunk.
#[test]
fn as_of_open_pins_the_tree_height_not_the_chunks() {
    let (_d, env, store) = setup();
    let txn = env.begin();
    let id = store.create(&txn, &LoSpec::fchunk().with_chunk_size(64)).unwrap();
    let data: Vec<u8> = (0..64_000u32).map(|i| (i % 251) as u8).collect();
    let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
    h.write(&data).unwrap();
    h.close().unwrap();
    let ts = txn.commit();
    let index = BTree::open_oid(&env, store.meta(id).unwrap().idx_rel, env.disk_id());
    assert!(index.nblocks().unwrap() > 4, "the index must have several leaves");
    let (pins, mut h) = pins_of(&env, || store.open_as_of(id, ts).unwrap());
    assert_eq!(pins, 4, "the metadata lookup: meta, leaf twice and the row's page");
    let (pins, size) = pins_of(&env, || h.size().unwrap());
    assert_eq!((pins, size), (5, 64_000), "meta, root, leaf twice and one heap page");
    assert_eq!(h.read_to_vec().unwrap(), data);
}

/// Writes, size-growing flushes included, change no metadata: the
/// metadata heap keeps the one row each create wrote, and the class
/// heap none.
#[test]
fn size_growing_flush_writes_no_metadata() {
    let (_dir, env, store) = setup();
    let rows = |oid| {
        let heap = pglo_heap::Heap::open_oid(&env, oid, env.disk_id());
        heap.scan(pglo_txn::Visibility::Raw).count()
    };
    for (n, spec) in [LoSpec::fchunk(), LoSpec::vsegment(CodecKind::None)].into_iter().enumerate() {
        let txn = env.begin();
        let id = store.create(&txn, &spec).unwrap();
        assert_eq!(rows(pglo_heap::META_HEAP), n + 1, "{:?}: the create's row", spec.kind);
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        for _ in 0..4 {
            h.write(&[2; 20_000]).unwrap();
            h.flush().unwrap();
        }
        h.close().unwrap();
        txn.commit();
        assert_eq!(rows(pglo_heap::META_HEAP), n + 1, "{:?}: size-growing flushes", spec.kind);
        assert_eq!(rows(pglo_heap::CLASS_HEAP), 0);
        let txn = env.begin();
        assert_eq!(store.open(&txn, id, OpenMode::ReadOnly).unwrap().size().unwrap(), 80_000);
    }
}

/// One generation of a model run: `(offset, bytes)` writes made, in order,
/// by one transaction.
type Writes = Vec<(u64, Vec<u8>)>;

fn apply(model: &mut Vec<u8>, writes: &Writes) {
    for (offset, data) in writes {
        let end = *offset as usize + data.len();
        if model.len() < end {
            model.resize(end, 0);
        }
        model[*offset as usize..end].copy_from_slice(data);
    }
}

/// `(offset, len)` reads, each held to the same span of the model.
type Reads = [(u64, usize)];

/// Read each of `reads` through `h`, running `before` ahead of each, and
/// compare it with `expect`, the model of the whole object.
fn check_reads(
    h: &mut crate::LoHandle<'_>,
    reads: &Reads,
    expect: &[u8],
    mut before: impl FnMut(&mut crate::LoHandle<'_>),
    what: &str,
) {
    for &(offset, len) in reads {
        before(h);
        let mut buf = vec![0xA5; len];
        let n = h.read_at(offset, &mut buf).unwrap();
        let from = (offset as usize).min(expect.len());
        let want = &expect[from..(from + len).min(expect.len())];
        assert!(n == want.len() && buf[..n] == *want, "{what}: {len} bytes at {offset}");
    }
}

/// Commit each of `committed` in a transaction of its own, then hold the
/// store to a byte-vector model: the current contents; every generation
/// as of its commit timestamp (the version walk must pass all the newer
/// ones); and `pending`, written and never committed — its writer reads
/// its own bytes, a snapshot taken before it reads the last committed
/// ones while it is in progress and after it aborts. Each of these reads
/// the whole object and then each of `reads`.
fn check_generations_against_model(
    spec: &LoSpec,
    committed: &[Writes],
    pending: &Writes,
    reads: &Reads,
) {
    let (_d, env, store) = setup();
    // The writing handle is read before it closes: read-your-writes
    // through f-chunk's dirty chunk and v-segment's pending segments.
    // Before each ranged read the last write is made again, so its last
    // chunk is cached and dirty while the read runs.
    let write = |txn: &pglo_txn::Txn, id: LoId, writes: &Writes, expect: &[u8]| {
        let mut h = store.open(txn, id, OpenMode::ReadWrite).unwrap();
        for (offset, data) in writes {
            h.write_at(*offset, data).unwrap();
        }
        assert_eq!(h.size().unwrap(), expect.len() as u64, "size through the writing handle");
        assert!(h.read_to_vec().unwrap() == expect, "bytes through the writing handle");
        let (offset, data) = writes.last().expect("a generation writes");
        let rewrite = |h: &mut crate::LoHandle<'_>| h.write_at(*offset, data).unwrap();
        check_reads(&mut h, reads, expect, rewrite, "through the writing handle");
        h.close().unwrap();
    };
    let read = |txn: &pglo_txn::Txn, id: LoId| {
        let mut h = store.open(txn, id, OpenMode::ReadOnly).unwrap();
        let all = h.read_to_vec().unwrap();
        assert_eq!(h.size().unwrap(), all.len() as u64);
        check_reads(&mut h, reads, &all, |_| {}, "through a reading handle");
        h.close().unwrap();
        all
    };
    let txn = env.begin();
    let id = store.create(&txn, spec).unwrap();
    txn.commit();
    let mut model = Vec::new();
    let mut history = Vec::new();
    for writes in committed {
        let txn = env.begin();
        apply(&mut model, writes);
        write(&txn, id, writes, &model);
        assert!(read(&txn, id) == model, "a writer reads its own generation {}", history.len());
        history.push((txn.commit(), model.clone()));
    }
    for (gen, (ts, expect)) in history.iter().enumerate() {
        let mut h = store.open_as_of(id, *ts).unwrap();
        assert_eq!(h.size().unwrap(), expect.len() as u64, "size as of generation {gen}");
        assert!(h.read_to_vec().unwrap() == *expect, "bytes as of generation {gen}");
        check_reads(&mut h, reads, expect, |_| {}, &format!("as of generation {gen}"));
    }
    let reader = env.begin();
    let writer = env.begin();
    let mut uncommitted = model.clone();
    apply(&mut uncommitted, pending);
    write(&writer, id, pending, &uncommitted);
    assert!(read(&writer, id) == uncommitted, "the writer reads its own uncommitted bytes");
    assert!(read(&reader, id) == model, "an older snapshot reads past a write in progress");
    writer.abort();
    assert!(read(&reader, id) == model, "and past an aborted one");
    reader.commit();
    let fresh = env.begin();
    assert!(read(&fresh, id) == model, "as does a snapshot taken after the abort");
    fresh.commit();
}

/// Sixteen committed rewrites of the same frames — one inside a chunk, one
/// across a chunk boundary — leave sixteen versions of those chunks, all
/// reachable. Constant fill compresses far below half a page, so under
/// LZ77 many versions of a chunk share a heap page.
#[test]
fn sixteen_generations_stay_reachable_as_of_their_commits() {
    let specs = [
        LoSpec::fchunk(),
        LoSpec::fchunk().with_codec(CodecKind::Lz77),
        LoSpec::vsegment(CodecKind::Rle),
    ];
    for spec in specs {
        let base: Writes = vec![(0, (0..30_000u32).map(|i| (i % 251) as u8).collect())];
        let rewrites =
            (1..=16u8).map(|gen| vec![(8_192, vec![gen; 4_096]), (14_000, vec![gen; 4_096])]);
        let committed: Vec<Writes> = std::iter::once(base).chain(rewrites).collect();
        let pending = vec![(8_192, vec![0xEE; 4_096])];
        // Empty reads, each followed by a read of chunk 0, must leave the
        // handle's cached chunk as it was.
        let reads = [
            (0, 30_000),
            (7_000, 9_000),
            (15_999, 2),
            (12_000, 4 * CHUNK_SIZE),
            (0, 0),
            (0, CHUNK_SIZE),
            (CHUNK_SIZE as u64, 0),
            (0, CHUNK_SIZE),
        ];
        check_generations_against_model(&spec, &committed, &pending, &reads);
    }
}

/// The gain of trying the newest version first, as a count: a current
/// read of a chunk pins the same pages whether the chunk has been rewritten
/// once or sixty-four times (a walk from the oldest pins one more per
/// version).
#[test]
fn chunk_read_pins_do_not_grow_with_the_chunks_versions() {
    let pins_for = |rewrites: u8| {
        let (_d, env, store) = setup();
        let txn = env.begin();
        let id = store.create(&txn, &LoSpec::fchunk()).unwrap();
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        h.write(&vec![0u8; 3 * CHUNK_SIZE]).unwrap();
        h.close().unwrap();
        txn.commit();
        for gen in 1..=rewrites {
            let txn = env.begin();
            let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
            h.write_at(CHUNK_SIZE as u64, &vec![gen; CHUNK_SIZE]).unwrap();
            h.close().unwrap();
            txn.commit();
        }
        let txn = env.begin();
        let mut h = store.open(&txn, id, OpenMode::ReadOnly).unwrap();
        let mut buf = vec![0u8; CHUNK_SIZE];
        let before = env.pool().stats();
        assert_eq!(h.read_at(CHUNK_SIZE as u64, &mut buf).unwrap(), CHUNK_SIZE);
        let after = env.pool().stats();
        assert!(buf.iter().all(|&b| b == rewrites), "the read returns the last rewrite");
        h.close().unwrap();
        txn.commit();
        (after.hits + after.misses) - (before.hits + before.misses)
    };
    let pins = [1, 8, 64].map(pins_for);
    assert!(pins.iter().all(|&n| n == pins[0]), "pins after 1, 8 and 64 rewrites: {pins:?}");
}

/// The gain of the range walk, as a count: a fresh-snapshot read of `k`
/// whole chunks descends the index once, so each chunk past the first pins
/// one heap page more, and an index page more only where the run crosses
/// into the next leaf (a descent per chunk pinned the meta page and every
/// level again for each).
#[test]
fn multi_chunk_read_descends_the_index_once() {
    // Pins of a fresh-snapshot read of chunks `first..first + k`, and the
    // index's size in blocks.
    let read_pins = |chunk_size: usize, chunks: usize, reads: &[(usize, usize)]| {
        let (_d, env, store) = setup();
        let txn = env.begin();
        let id = store.create(&txn, &LoSpec::fchunk().with_chunk_size(chunk_size)).unwrap();
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        let data: Vec<u8> = (0..chunks * chunk_size).map(|i| (i % 251) as u8).collect();
        h.write(&data).unwrap();
        h.close().unwrap();
        txn.commit();
        let pins = reads.iter().map(|&(first, k)| {
            let txn = env.begin();
            let mut h = store.open(&txn, id, OpenMode::ReadOnly).unwrap();
            let mut buf = vec![0u8; k * chunk_size];
            let before = env.pool().stats();
            assert_eq!(h.read_at((first * chunk_size) as u64, &mut buf).unwrap(), buf.len());
            let after = env.pool().stats();
            assert!(buf == data[first * chunk_size..(first + k) * chunk_size]);
            h.close().unwrap();
            txn.commit();
            (after.hits + after.misses) - (before.hits + before.misses)
        });
        let pins: Vec<u64> = pins.collect();
        let index = BTree::open_oid(&env, store.meta(id).unwrap().idx_rel, env.disk_id());
        (pins, index.nblocks().unwrap() as u64)
    };
    // Ten 8000-byte chunks: the index is one leaf, its root.
    let (pins, blocks) = read_pins(CHUNK_SIZE, 10, &[(0, 1), (0, 2), (1, 8)]);
    assert_eq!(blocks, 2, "meta page and root leaf");
    assert_eq!([pins[1] - pins[0], pins[2] - pins[0]], [1, 7], "pins of 1, 2, 8 chunks: {pins:?}");
    // A thousand 64-byte chunks: a root over several leaves, every one of
    // which a read of the whole object crosses into.
    let (pins, blocks) = read_pins(64, 1000, &[(0, 1), (0, 1000)]);
    let leaves = blocks - 2;
    assert!(leaves > 2, "the index must have several leaves, has {leaves}");
    assert_eq!(pins[1] - pins[0], 999 + (leaves - 1), "pins of 1 and 1000 chunks: {pins:?}");
}

/// A committed f-chunk object of two chunks of ones.
fn two_committed_chunks(env: &Arc<StorageEnv>, store: &LoStore) -> LoId {
    let txn = env.begin();
    let id = store.create(&txn, &LoSpec::fchunk()).unwrap();
    let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
    h.write(&vec![1u8; 2 * CHUNK_SIZE]).unwrap();
    h.close().unwrap();
    txn.commit();
    id
}

/// A partial write finds the version it supersedes once: the walk that
/// loads the chunk hands its TID to the write-back. So a 100-byte write
/// into a committed chunk, flushed, pins what a whole-chunk overwrite
/// does, which skips the load and looks the version up at write-back:
/// one index descent and one fetch of the old version each. A second
/// lookup pinned the index pages and the old version's page again.
#[test]
fn partial_chunk_write_back_looks_the_old_version_up_once() {
    let (_d, env, store) = setup();
    let id = two_committed_chunks(&env, &store);
    let pins_of = |f: &mut dyn FnMut()| {
        let before = env.pool().stats();
        f();
        let after = env.pool().stats();
        (after.hits + after.misses) - (before.hits + before.misses)
    };
    let write_pins = |offset: u64, bytes: &[u8]| {
        let txn = env.begin();
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        let pins = pins_of(&mut || {
            h.write_at(offset, bytes).unwrap();
            h.flush().unwrap();
        });
        h.close().unwrap();
        txn.commit();
        pins
    };
    let lookup = {
        let txn = env.begin();
        let mut h = store.open(&txn, id, OpenMode::ReadOnly).unwrap();
        // The size first: its derivation, the handle's first use, is a
        // probe of its own.
        h.size().unwrap();
        let pins = pins_of(&mut || assert_eq!(h.read_at(100, &mut [0; 100]).unwrap(), 100));
        drop(h);
        txn.commit();
        pins
    };
    // The index's meta page, its root leaf (descent, then leaf walk), the
    // version's heap page.
    assert_eq!(lookup, 4, "a one-chunk lookup pins 4 pages");
    let (partial, whole) = (write_pins(100, &[2; 100]), write_pins(0, &[3; CHUNK_SIZE]));
    assert_eq!(partial, whole, "a 100-byte write pinned {partial} pages, a whole chunk {whole}");
}

/// Two read-write handles of one transaction write one chunk and flush in
/// turn. The version the second loaded was superseded by the first's
/// flush, so its write-back supersedes the first's version instead: the
/// chunk keeps one visible version, holding the bytes of the handle that
/// flushed last, over what that handle had loaded.
#[test]
fn two_handles_of_one_transaction_flush_one_chunk_in_turn() {
    let (_d, env, store) = setup();
    let id = two_committed_chunks(&env, &store);
    let txn = env.begin();
    let mut a = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
    let mut b = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
    a.write_at(10, &[2; 100]).unwrap();
    b.write_at(500, &[3; 100]).unwrap();
    a.flush().unwrap();
    b.flush().unwrap();
    let read = |txn: &pglo_txn::Txn| {
        let mut h = store.open(txn, id, OpenMode::ReadOnly).unwrap();
        h.read_to_vec().unwrap()
    };
    let mut want = vec![1u8; 2 * CHUNK_SIZE];
    want[500..600].fill(3);
    assert!(read(&txn) == want, "the transaction reads `b`'s flush");
    // `a` still caches chunk 0 as it wrote it, and writes it again over
    // `b`'s version.
    a.write_at(1000, &[4; 100]).unwrap();
    a.flush().unwrap();
    a.close().unwrap();
    b.close().unwrap();
    let mut want = vec![1u8; 2 * CHUNK_SIZE];
    want[10..110].fill(2);
    want[1000..1100].fill(4);
    let visible_versions = |txn: &pglo_txn::Txn| {
        let meta = store.meta(id).unwrap();
        let heap = pglo_heap::Heap::open_oid(&env, meta.data_rel, meta.smgr);
        let index = BTree::open_oid(&env, meta.idx_rel, meta.smgr);
        let vis = pglo_txn::Visibility::for_txn(txn);
        let key = pglo_btree::keys::u64_key(0);
        let hint = pglo_heap::AccessHint::Random;
        index.visible(&heap, &key, &vis, hint).unwrap().count()
    };
    assert!(read(&txn) == want, "the transaction reads `a`'s second flush");
    assert_eq!(visible_versions(&txn), 1, "chunk 0 has one version the transaction sees");
    txn.commit();
    let txn = env.begin();
    assert!(read(&txn) == want, "the commit holds the last flush");
    assert_eq!(visible_versions(&txn), 1, "chunk 0 has one committed version");
    txn.commit();
}

/// A write-back whose cached version another transaction superseded fails
/// with the typed write conflict, while that transaction runs and after it
/// commits.
#[test]
fn chunk_superseded_by_another_transaction_conflicts() {
    let (_d, env, store) = setup();
    let id = two_committed_chunks(&env, &store);
    let (t1, t2) = (env.begin(), env.begin());
    let mut h1 = store.open(&t1, id, OpenMode::ReadWrite).unwrap();
    let mut h2 = store.open(&t2, id, OpenMode::ReadWrite).unwrap();
    h1.write_at(0, &[2; 100]).unwrap();
    h2.write_at(200, &[3; 100]).unwrap();
    h1.close().unwrap();
    let conflict = |r| matches!(r, Err(LoError::Heap(pglo_heap::HeapError::WriteConflict { .. })));
    assert!(conflict(h2.flush()), "the other writer is in progress");
    t1.commit();
    assert!(conflict(h2.flush()), "the other writer committed");
    drop(h2);
    t2.abort();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random write/read sequences, committed `per_txn` writes to a
    /// transaction, agree with an in-memory byte-vector model — now and as
    /// of every commit, whole and in `reads` spanning zero to ten chunks —
    /// for both chunked implementations and all codecs.
    #[test]
    fn matches_byte_vector_model(
        ops in prop::collection::vec(
            (0u64..60_000, 1usize..9000, prop::num::u8::ANY), 1..25),
        reads in prop::collection::vec((0u64..70_000, 0usize..10 * CHUNK_SIZE + 1), 1..6),
        per_txn in 1usize..25,
        use_vseg in prop::bool::ANY,
        codec_choice in 0u8..3,
    ) {
        let codec = match codec_choice {
            0 => CodecKind::None,
            1 => CodecKind::Rle,
            _ => CodecKind::Lz77,
        };
        let spec = if use_vseg { LoSpec::vsegment(codec) } else { LoSpec::fchunk().with_codec(codec) };
        let writes: Writes = ops.into_iter().map(|(offset, len, fill)| (offset, vec![fill; len])).collect();
        let mut generations: Vec<Writes> = writes.chunks(per_txn).map(<[_]>::to_vec).collect();
        let pending = generations.pop().expect("at least one write");
        check_generations_against_model(&spec, &generations, &pending, &reads);
    }
}

#[test]
fn import_export_roundtrip_through_host_files() {
    let (dir, env, store) = setup();
    let src_path = dir.path().join("input.bin");
    let data: Vec<u8> = (0..150_000u32).map(|i| (i % 251) as u8).collect();
    std::fs::write(&src_path, &data).unwrap();
    let txn = env.begin();
    let id = store.import_file(&txn, &LoSpec::vsegment(CodecKind::Lz77), &src_path).unwrap();
    assert_eq!(store.open(&txn, id, OpenMode::ReadOnly).unwrap().size().unwrap(), 150_000);
    let out_path = dir.path().join("output.bin");
    let n = store.export_file(&txn, id, &out_path).unwrap();
    assert_eq!(n, data.len() as u64);
    assert_eq!(std::fs::read(&out_path).unwrap(), data);
    txn.commit();
}

#[test]
fn import_missing_file_errors_cleanly() {
    let (dir, env, store) = setup();
    let txn = env.begin();
    let r = store.import_file(&txn, &LoSpec::fchunk(), dir.path().join("nope"));
    assert!(matches!(r, Err(LoError::Io(_))));
    txn.commit();
}

/// ROADMAP item 16's create probe: an object's metadata row belongs to
/// the transaction that created it. Its creator opens it; a second live
/// transaction cannot, before or after the create; after an abort no
/// later transaction can, nor an as-of open. Calls that take no
/// transaction still reach it, as they reach any row not unlinked.
#[test]
fn create_is_visible_only_to_its_transaction_and_gone_after_abort() {
    let (_d, env, store) = setup();
    for spec in [LoSpec::fchunk(), LoSpec::vsegment(CodecKind::None)] {
        let before = env.begin();
        let creator = env.begin();
        let id = store.create(&creator, &spec).unwrap();
        let mut h = store.open(&creator, id, OpenMode::ReadWrite).unwrap();
        h.write(b"uncommitted").unwrap();
        h.close().unwrap();
        let after = env.begin();
        let not_found = |r: crate::Result<crate::LoHandle<'_>>| matches!(r, Err(LoError::NotFound(lo)) if lo == id);
        assert!(not_found(store.open(&before, id, OpenMode::ReadOnly)), "{:?}", spec.kind);
        assert!(not_found(store.open(&after, id, OpenMode::ReadOnly)), "{:?}", spec.kind);
        assert!(store.meta(id).is_ok(), "{:?}: no transaction, no snapshot", spec.kind);
        creator.abort();
        let later = env.begin();
        assert!(not_found(store.open(&later, id, OpenMode::ReadOnly)), "{:?}", spec.kind);
        let now = env.txns().current_timestamp();
        assert!(not_found(store.open_as_of(id, now)), "{:?}: as of", spec.kind);
        store.unlink(id).unwrap();
        for t in [before, after, later] {
            t.commit();
        }
    }
}

/// Copy directory `src` to `dst`, `dst` replaced: what the OS holds of a
/// live store when its process is killed.
fn kill_copy(src: &std::path::Path, dst: &std::path::Path) {
    fn copy(src: &std::path::Path, dst: &std::path::Path) {
        std::fs::create_dir_all(dst).unwrap();
        for e in std::fs::read_dir(src).unwrap().map(Result::unwrap) {
            if e.file_type().unwrap().is_dir() {
                copy(&e.path(), &dst.join(e.file_name()));
            } else {
                std::fs::copy(e.path(), dst.join(e.file_name())).unwrap();
            }
        }
    }
    if dst.exists() {
        std::fs::remove_dir_all(dst).unwrap();
    }
    copy(src, dst);
}

/// The crash gate for metadata rows. The store is killed (its directory
/// copied) after every step that makes part of a create transaction or
/// of an unlink durable, and each copy is recovered:
/// - the metadata relations, before anything reached the log;
/// - a create: its relation files, its write, the capture of its pages
///   into the log, its commit, its pages home, a checkpoint;
/// - an aborted create, before and after a later commit logs its pages;
/// - an unlink: after each relation drop and after its row's removal
///   (the environment's durable-step hook copies the directory there).
///
/// Each recovered copy must read every committed object byte-exact, give
/// `NotFound` to a snapshot open of an uncommitted or aborted create,
/// finish an interrupted unlink when it is called again, and create,
/// commit and read back a new object.
#[test]
fn crash_at_every_durable_step_of_create_and_unlink() {
    use pglo_heap::EnvOptions;
    let tmp = tempfile::tempdir().unwrap();
    let (live, work) = (tmp.path().join("live"), tmp.path().join("work"));
    let opts = || EnvOptions { wal_segment_bytes: 64 * 1024, ..Default::default() };
    let env = StorageEnv::open_with(&live, opts()).unwrap();
    let store = LoStore::new(Arc::clone(&env)).unwrap();
    let bytes = |seed: u8| -> Vec<u8> { (0..20_000u32).map(|i| (i as u8) ^ seed).collect() };
    // Recover a killed copy: `committed` must read back, `gone` must not
    // open; `unlinking`, if given, is unlinked again, to completion.
    let recover = |dir: &std::path::Path,
                   what: &str,
                   committed: &[(LoId, Vec<u8>)],
                   gone: &[LoId],
                   unlinking| {
        let env = StorageEnv::open_with(dir, opts()).unwrap();
        let store = LoStore::new(Arc::clone(&env)).unwrap();
        if let Some(id) = unlinking {
            match store.unlink(id) {
                Ok(()) | Err(LoError::NotFound(_)) => {}
                Err(e) => panic!("{what}: the retried unlink failed: {e}"),
            }
            assert!(matches!(store.meta(id), Err(LoError::NotFound(_))), "{what}: unlinked");
        }
        let txn = env.begin();
        for (id, want) in committed {
            let mut h = store.open(&txn, *id, OpenMode::ReadOnly).unwrap();
            assert!(h.read_to_vec().unwrap() == *want, "{what}: {id} is not byte-exact");
        }
        for id in gone.iter().chain(unlinking.as_slice()) {
            let open = store.open(&txn, *id, OpenMode::ReadOnly);
            assert!(matches!(open, Err(LoError::NotFound(_))), "{what}: {id} opened");
        }
        let id = store.create(&txn, &LoSpec::fchunk()).unwrap();
        store.open(&txn, id, OpenMode::ReadWrite).unwrap().write(b"after recovery").unwrap();
        txn.commit();
        let txn = env.begin();
        let mut h = store.open(&txn, id, OpenMode::ReadOnly).unwrap();
        assert_eq!(h.read_to_vec().unwrap(), b"after recovery", "{what}: a new object");
    };
    // Kill now and recover.
    let check = |what: &str, committed: &[(LoId, Vec<u8>)], gone: &[LoId], unlinking| {
        kill_copy(&live, &work);
        recover(&work, what, committed, gone, unlinking);
    };
    // Kills inside an unlink, taken while `unlinking` is set.
    let unlinking = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let kills = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let (flag, taken, from, root) =
        (Arc::clone(&unlinking), Arc::clone(&kills), live.clone(), tmp.path().join("kills"));
    assert!(env.on_durable_step(move |step| {
        if flag.load(std::sync::atomic::Ordering::SeqCst) {
            let mut taken = taken.lock();
            let dst = root.join(taken.len().to_string());
            kill_copy(&from, &dst);
            taken.push((dst, step.to_string()));
        }
    }));
    check("the metadata relations, unlogged", &[], &[], None);

    let mut committed = Vec::new();
    for (n, spec) in [LoSpec::fchunk(), LoSpec::vsegment(CodecKind::Rle)].into_iter().enumerate() {
        let kind = format!("{:?}", spec.kind);
        let txn = env.begin();
        let id = store.create(&txn, &spec).unwrap();
        check(&format!("{kind} create"), &committed, &[id], None);
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        h.write(&bytes(n as u8)).unwrap();
        h.close().unwrap();
        check(&format!("{kind} write"), &committed, &[id], None);
        env.pool().capture_pending().unwrap();
        env.wal().flush_all().unwrap();
        check(&format!("{kind} capture"), &committed, &[id], None);
        txn.commit();
        committed.push((id, bytes(n as u8)));
        check(&format!("{kind} commit"), &committed, &[], None);
        env.pool().flush_all().unwrap();
        check(&format!("{kind} home"), &committed, &[], None);
        env.checkpoint().unwrap();
        check(&format!("{kind} checkpoint"), &committed, &[], None);
    }

    let txn = env.begin();
    let aborted = store.create(&txn, &LoSpec::fchunk()).unwrap();
    store.open(&txn, aborted, OpenMode::ReadWrite).unwrap().write(&bytes(9)).unwrap();
    txn.abort();
    check("abort", &committed, &[aborted], None);
    env.begin().commit();
    env.pool().flush_all().unwrap();
    check("abort, logged and home", &committed, &[aborted], None);

    for _ in 0..committed.len() {
        let (id, _) = committed.remove(0);
        unlinking.store(true, std::sync::atomic::Ordering::SeqCst);
        store.unlink(id).unwrap();
        unlinking.store(false, std::sync::atomic::Ordering::SeqCst);
        let steps = std::mem::take(&mut *kills.lock());
        assert!(steps.len() >= 3, "an unlink of {id} took {} steps", steps.len());
        for (n, (dir, step)) in steps.iter().enumerate() {
            recover(dir, &format!("unlink {id}: {step} {n}"), &committed, &[aborted], Some(id));
        }
        check(&format!("unlink {id}, done"), &committed, &[aborted], Some(id));
    }
}
