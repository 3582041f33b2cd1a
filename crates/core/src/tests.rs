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
    let store = LoStore::new(Arc::clone(&env));
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

/// A temp somebody already dropped is not an error; a temp whose unlink
/// fails is, and the sweep it interrupts loses track of nothing else.
#[test]
fn gc_temps_reports_a_failed_unlink_and_keeps_the_rest() {
    let (dir, env, store) = setup();
    let txn = env.begin();
    let dropped = store.create_temp(&txn, &LoSpec::fchunk()).unwrap();
    env.catalog().drop_class(&crate::meta::lo_class_name(dropped)).unwrap();
    assert_eq!(store.gc_temps().unwrap(), 1, "class already gone: nothing left to do");

    let stuck = store.create_temp(&txn, &LoSpec::fchunk()).unwrap();
    let fine = store.create_temp(&txn, &LoSpec::fchunk()).unwrap();
    txn.commit();
    // Nothing can be written where `catalog.json` stages its next
    // version: the first temp's unlink fails installing the catalog.
    let staging = dir.path().join("catalog.json.tmp");
    std::fs::create_dir(&staging).unwrap();
    let err = store.gc_temps().unwrap_err();
    assert!(
        matches!(err, LoError::Heap(pglo_heap::HeapError::Catalog(_))),
        "a failed catalog install must surface: {err}"
    );
    std::fs::remove_dir(&staging).unwrap();
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
        let store = LoStore::new(Arc::clone(&env));
        let txn = env.begin();
        id = store.create(&txn, &LoSpec::fchunk()).unwrap();
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        h.write(&vec![8u8; 25_000]).unwrap();
        h.close().unwrap();
        env.pool().flush_all().unwrap();
        txn.commit();
    }
    let env = StorageEnv::open(dir.path()).unwrap();
    let store = LoStore::new(Arc::clone(&env));
    assert_eq!(store.meta(id).unwrap().size, 25_000);
    // Note: the transaction manager is per-process in this reproduction, so
    // cross-process reads use Raw-equivalent bootstrap visibility; here we
    // just verify metadata durability.
}

/// The catalog keys of a v-segment object are the ones every earlier
/// build wrote — ten at create, five more from the first flush on — and
/// the object opens and reads back from either layout.
#[test]
fn vsegment_opens_from_create_time_and_flushed_catalog_layouts() {
    let keys = |env: &StorageEnv, id: LoId| {
        let class = env.catalog().get(&crate::meta::lo_class_name(id)).unwrap();
        let mut keys: Vec<String> = class.props.into_keys().collect();
        keys.sort();
        keys
    };
    let created = [
        "chunk_size",
        "codec",
        "data_rel",
        "idx_rel",
        "kind",
        "owner",
        "seg_idx_rel",
        "seg_rel",
        "size",
        "smgr",
    ];
    let flushed = [
        "chunk_size",
        "codec",
        "data_rel",
        "idx_rel",
        "kind",
        "max_seg_len",
        "owner",
        "seg_idx_rel",
        "seg_rel",
        "size",
        "size_xid",
        "smgr",
        "store_size",
        "vseg_seq",
    ];
    let payload: Vec<u8> = (0..30_000u32).map(|i| (i / 64 % 251) as u8).collect();
    let dir = tempfile::tempdir().unwrap();
    let id;
    {
        let env = StorageEnv::open(dir.path()).unwrap();
        let store = LoStore::new(Arc::clone(&env));
        let txn = env.begin();
        id = store.create(&txn, &LoSpec::vsegment(CodecKind::Rle)).unwrap();
        assert_eq!(keys(&env, id), created);
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        assert_eq!(h.size().unwrap(), 0);
        h.write(&payload).unwrap();
        h.close().unwrap();
        assert_eq!(keys(&env, id), flushed);
        txn.commit();
        env.pool().flush_all().unwrap();
    }
    let env = StorageEnv::open(dir.path()).unwrap();
    let store = LoStore::new(Arc::clone(&env));
    let meta = store.meta(id).unwrap();
    assert_eq!(meta.size, payload.len() as u64);
    assert!(meta.vseg_seq > 0 && meta.store_size > 0 && meta.max_seg_len > 0);
    let txn = env.begin();
    let mut h = store.open(&txn, id, OpenMode::ReadOnly).unwrap();
    assert_eq!(h.read_to_vec().unwrap(), payload);
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
    assert_eq!(store.meta(id).unwrap().size, data.len() as u64);
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
