//! Full-stack integration: query language → ADT functions → large objects
//! → heap/B-tree → buffer pool → storage managers, in one flow.

use pglo::prelude::*;
use std::sync::Arc;

#[test]
fn end_to_end_employee_pictures() {
    let dir = tempfile::tempdir().unwrap();
    let db = Database::open(dir.path()).unwrap();
    db.run_script(
        r#"
        create large type image (input = image_in, output = image_out,
                                 storage = fchunk, compression = rle);
        create EMP (name = text, salary = int4, picture = image);
        append EMP (name = "Joe",  salary = 100, picture = "320x240:1"::image);
        append EMP (name = "Mike", salary = 200, picture = "640x480:2"::image)
        "#,
    )
    .unwrap();

    // The §5 pipeline: clip inside the DBMS, checksum the result, compare
    // a re-clip for determinism.
    let r1 = db
        .run(r#"retrieve (c = lo_checksum(clip(EMP.picture, "10,10,50,50"::rect))) where EMP.name = "Mike""#)
        .unwrap();
    let r2 = db
        .run(r#"retrieve (c = lo_checksum(clip(EMP.picture, "10,10,50,50"::rect))) where EMP.name = "Mike""#)
        .unwrap();
    assert_eq!(r1.rows[0][0], r2.rows[0][0], "clip is deterministic");
    assert_eq!(db.store().temp_count(), 0, "all intermediates GC'd");

    // Update a picture wholesale and check time travel at the query level.
    let ts_before = db.env().txns().current_timestamp();
    db.run(r#"replace EMP (picture = "64x64:9"::image) where EMP.name = "Joe""#).unwrap();
    let now = db.run(r#"retrieve (w = image_width(EMP.picture)) where EMP.name = "Joe""#).unwrap();
    assert_eq!(now.rows[0][0], pglo::adt::Datum::Int4(64));
    let then = db
        .run(&format!(
            r#"retrieve (w = image_width(EMP.picture)) where EMP.name = "Joe" as of {ts_before}"#
        ))
        .unwrap();
    assert_eq!(then.rows[0][0], pglo::adt::Datum::Int4(320));
}

#[test]
fn all_four_implementations_through_one_store() {
    let dir = tempfile::tempdir().unwrap();
    let env = StorageEnv::open(dir.path()).unwrap();
    let store = LoStore::new(Arc::clone(&env)).unwrap();
    let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 253) as u8).collect();
    let txn = env.begin();
    let specs = [
        LoSpec::ufile(dir.path().join("u")),
        LoSpec::pfile(),
        LoSpec::fchunk().with_codec(CodecKind::Lz77),
        LoSpec::vsegment(CodecKind::Rle),
    ];
    let ids: Vec<LoId> = specs
        .iter()
        .map(|spec| {
            let id = store.create(&txn, spec).unwrap();
            let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
            h.write(&payload).unwrap();
            h.close().unwrap();
            id
        })
        .collect();
    // Cross-check contents byte-for-byte across implementations.
    for id in &ids {
        let mut h = store.open(&txn, *id, OpenMode::ReadOnly).unwrap();
        assert_eq!(h.read_to_vec().unwrap(), payload);
        h.close().unwrap();
    }
    txn.commit();
}

#[test]
fn inversion_file_fed_to_adt_function() {
    // Files are large objects: an Inversion file's content can flow through
    // ADT functions with no copying.
    let dir = tempfile::tempdir().unwrap();
    let db = Database::open(dir.path()).unwrap();
    let fs = InversionFs::open(db.env(), Arc::clone(db.store()), LoSpec::fchunk()).unwrap();
    let txn = db.begin();
    fs.create(&txn, "/notes").unwrap();
    {
        let mut f = fs.open_file(&txn, "/notes", OpenMode::ReadWrite).unwrap();
        f.write(b"the secret word is xyzzy, obviously").unwrap();
        f.close().unwrap();
    }
    txn.commit();
    // Query the STORAGE class for the file's large object, then grep it.
    let r = db.run("retrieve (INV_STORAGE.large_object) from INV_STORAGE").unwrap();
    let lo_id = r.rows[0][0].as_i64().unwrap() as u64;
    let txn = db.begin();
    let mut ctx = pglo::adt::ExecCtx::new(db.store(), &txn, db.types());
    let found = db
        .funcs()
        .invoke(
            &mut ctx,
            "lo_grep",
            &[
                pglo::adt::Datum::Large(pglo::adt::LoRef {
                    id: LoId(lo_id),
                    type_name: "blob".into(),
                }),
                pglo::adt::Datum::Text("xyzzy".into()),
            ],
        )
        .unwrap();
    assert_eq!(found, pglo::adt::Datum::Bool(true));
    txn.commit();
}

#[test]
fn environment_reopen_preserves_objects_and_files() {
    let dir = tempfile::tempdir().unwrap();
    let lo_id;
    {
        let env = StorageEnv::open(dir.path()).unwrap();
        let store = LoStore::new(Arc::clone(&env)).unwrap();
        let txn = env.begin();
        lo_id = store.create(&txn, &LoSpec::fchunk()).unwrap();
        let mut h = store.open(&txn, lo_id, OpenMode::ReadWrite).unwrap();
        h.write(&vec![0x5A; 30_000]).unwrap();
        h.close().unwrap();
        env.pool().flush_all().unwrap();
        txn.commit();
    }
    // Fresh process: catalog and pages come back from disk, and a new
    // snapshot sees the committed size; the raw chunk tuples round-trip.
    let env = StorageEnv::open(dir.path()).unwrap();
    let store = LoStore::new(Arc::clone(&env)).unwrap();
    let txn = env.begin();
    assert_eq!(store.open(&txn, lo_id, OpenMode::ReadOnly).unwrap().size().unwrap(), 30_000);
    txn.commit();
    let meta = store.meta(lo_id).unwrap();
    let heap = pglo::heap::Heap::open_oid(&env, meta.data_rel, meta.smgr);
    let chunks: Vec<_> = heap.scan(Visibility::Raw).map(|r| r.unwrap().1).collect();
    assert_eq!(chunks.len(), 4, "30 000 B = 4 chunks of ≤8000");
    let total: usize = chunks.iter().map(|c| c.len() - 5).sum(); // minus chunk header
    assert_eq!(total, 30_000);
}

#[test]
fn worm_archive_full_cycle() {
    let dir = tempfile::tempdir().unwrap();
    let env = StorageEnv::open(dir.path()).unwrap();
    let store = LoStore::new(Arc::clone(&env)).unwrap();
    let txn = env.begin();
    let id = store.create(&txn, &LoSpec::fchunk().on_smgr(env.worm_id())).unwrap();
    let data: Vec<u8> = (0..100_000u32).map(|i| (i / 7 % 256) as u8).collect();
    {
        let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
        h.write(&data).unwrap();
        h.close().unwrap();
    }
    env.pool().flush_all().unwrap();
    env.worm_smgr().sync_all().unwrap();
    txn.commit();
    // Burned and fully readable; device refuses rewrites.
    let t2 = env.begin();
    let mut h = store.open(&t2, id, OpenMode::ReadOnly).unwrap();
    assert_eq!(h.read_to_vec().unwrap(), data);
    h.close().unwrap();
    t2.commit();
    let meta = store.meta(id).unwrap();
    let page = pglo::pages::alloc_page();
    assert!(pglo::smgr::StorageManager::write(&**env.worm_smgr(), meta.data_rel, 0, &page).is_err());
}
