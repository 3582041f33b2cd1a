//! End-to-end query tests: every statement the paper shows, plus the
//! surrounding DML.

use pglo_adt::Datum;
use pglo_query::{Database, QueryError};

fn db() -> (tempfile::TempDir, Database) {
    let dir = tempfile::tempdir().unwrap();
    let db = Database::open(dir.path()).unwrap();
    (dir, db)
}

/// A database with the paper's `image` type and `EMP` class set up.
fn db_with_emp() -> (tempfile::TempDir, Database) {
    let (dir, db) = db();
    db.run(
        "create large type image (input = image_in, output = image_out, \
         storage = fchunk, compression = rle)",
    )
    .unwrap();
    db.run("create EMP (name = text, salary = int4, picture = image)").unwrap();
    db.run(r#"append EMP (name = "Joe", salary = 100, picture = "64x48:1"::image)"#).unwrap();
    db.run(r#"append EMP (name = "Mike", salary = 200, picture = "128x96:2"::image)"#).unwrap();
    db.run(r#"append EMP (name = "Sam", salary = 300)"#).unwrap();
    (dir, db)
}

#[test]
fn create_append_retrieve() {
    let (_d, db) = db();
    db.run("create DEPT (name = text, budget = int4)").unwrap();
    db.run(r#"append DEPT (name = "toys", budget = 500)"#).unwrap();
    db.run(r#"append DEPT (name = "shoes", budget = 900)"#).unwrap();
    let r = db.run("retrieve (DEPT.name) where DEPT.budget > 600").unwrap();
    assert_eq!(r.columns, vec!["name"]);
    assert_eq!(r.rows, vec![vec![Datum::Text("shoes".into())]]);
    // Class.all expansion.
    let r = db.run(r#"retrieve (DEPT.all) where DEPT.name = "toys""#).unwrap();
    assert_eq!(r.columns, vec!["name", "budget"]);
    assert_eq!(r.rows[0][1], Datum::Int4(500));
}

#[test]
fn papers_picture_retrieve_returns_lo_name() {
    // §4: 'retrieve (EMP.picture) where EMP.name = "Joe" — POSTGRES will
    // return a large object name for the picture field.'
    let (_d, db) = db_with_emp();
    let r = db.run(r#"retrieve (EMP.picture) where EMP.name = "Joe""#).unwrap();
    assert_eq!(r.rows.len(), 1);
    let lo = r.rows[0][0].as_large().expect("a large object name");
    assert_eq!(lo.type_name, "image");
    // The application can then open the large object and read bytes.
    let txn = db.begin();
    let mut h = db.store().open(&txn, lo.id, pglo_core::OpenMode::ReadOnly).unwrap();
    let mut hdr = [0u8; 16];
    h.read_at(0, &mut hdr).unwrap();
    assert_eq!(&hdr[..4], b"PGIM");
    h.close().unwrap();
    txn.commit();
}

#[test]
fn papers_clip_query() {
    // §5: retrieve (clip(EMP.picture, "0,0,20,20"::rect)) where EMP.name = "Mike"
    let (_d, db) = db_with_emp();
    let r = db
        .run(r#"retrieve (clip(EMP.picture, "0,0,20,20"::rect)) where EMP.name = "Mike""#)
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    let lo = r.rows[0][0].as_large().unwrap().clone();
    // The clipped image is 20×20 and survives end-of-query GC because it
    // was returned to the user.
    let check = db.run(
        r#"retrieve (w = image_width(p), h = image_height(p)) from EMP where EMP.name = "nobody""#,
    );
    drop(check); // (direct function-call check below instead)
    let txn = db.begin();
    let mut ctx = pglo_adt::ExecCtx::new(db.store(), &txn, db.types());
    let w = db.funcs().invoke(&mut ctx, "image_width", &[Datum::Large(lo.clone())]).unwrap();
    assert_eq!(w, Datum::Int4(20));
    txn.commit();
    // The intermediate source image (a temp created during input
    // conversion at append time) was promoted when stored in EMP; the clip
    // result was promoted by being returned. No dangling temps.
    assert_eq!(db.store().temp_count(), 0);
}

#[test]
fn replace_and_delete_with_quals() {
    let (_d, db) = db_with_emp();
    let r = db.run(r#"replace EMP (salary = EMP.salary + 10) where EMP.name = "Joe""#).unwrap();
    assert_eq!(r.affected, 1);
    let r = db.run(r#"retrieve (EMP.salary) where EMP.name = "Joe""#).unwrap();
    assert_eq!(r.rows[0][0], Datum::Int4(110));
    let r = db.run("delete EMP where EMP.salary >= 200").unwrap();
    assert_eq!(r.affected, 2);
    let r = db.run("retrieve (EMP.name)").unwrap();
    assert_eq!(r.rows.len(), 1);
}

#[test]
fn retrieve_without_from_uses_qualified_reference() {
    let (_d, db) = db_with_emp();
    // Class inferred from the qualification only.
    let r = db.run(r#"retrieve (x = 1) where EMP.name = "Joe""#).unwrap();
    assert_eq!(r.rows.len(), 1);
    // Explicit from.
    let r = db.run("retrieve (EMP.name) from EMP").unwrap();
    assert_eq!(r.rows.len(), 3);
}

#[test]
fn expression_only_query() {
    let (_d, db) = db();
    let r = db.run("retrieve (a = 2 + 3 * 4, b = \"hi\", c = 10 / 4.0)").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int8(14));
    assert_eq!(r.rows[0][1], Datum::Text("hi".into()));
    assert_eq!(r.rows[0][2], Datum::Float8(2.5));
    let r = db.run("retrieve (rect_area(\"0,0,10,20\"::rect))").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int8(200));
}

#[test]
fn time_travel_retrieve() {
    let (_d, db) = db();
    db.run("create T (v = int4)").unwrap();
    db.run("append T (v = 1)").unwrap();
    let ts1 = db.env().txns().current_timestamp();
    db.run("replace T (v = 2)").unwrap();
    db.run("append T (v = 3)").unwrap();
    // Current state.
    let r = db.run("retrieve (T.v)").unwrap();
    let mut vals: Vec<_> = r.rows.iter().map(|r| r[0].clone()).collect();
    vals.sort_by_key(|d| d.as_i64());
    assert_eq!(vals, vec![Datum::Int4(2), Datum::Int4(3)]);
    // As of ts1: just the original row.
    let r = db.run(&format!("retrieve (T.v) as of {ts1}")).unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Int4(1)]]);
}

#[test]
fn rect_operator_in_qualification() {
    let (_d, db) = db();
    db.run("create SHAPES (name = text, bbox = rect)").unwrap();
    db.run(r#"append SHAPES (name = "a", bbox = "0,0,10,10"::rect)"#).unwrap();
    db.run(r#"append SHAPES (name = "b", bbox = "50,50,60,60"::rect)"#).unwrap();
    let r = db.run(r#"retrieve (SHAPES.name) where SHAPES.bbox && "5,5,8,8"::rect"#).unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Text("a".into())]]);
}

#[test]
fn blob_type_with_vsegment_storage() {
    let (_d, db) = db();
    db.run(
        "create large type blob (input = blob_in, output = blob_out, \
         storage = vsegment, compression = lz77)",
    )
    .unwrap();
    db.run("create DOCS (title = text, body = blob)").unwrap();
    db.run(r#"append DOCS (title = "t", body = "the quick brown fox the quick brown fox")"#)
        .unwrap();
    let r = db.run(r#"retrieve (DOCS.body) where DOCS.title = "t""#).unwrap();
    let lo = r.rows[0][0].as_large().unwrap().clone();
    let txn = db.begin();
    let text = db.datum_to_text(&txn, &Datum::Large(lo)).unwrap();
    assert_eq!(text, "the quick brown fox the quick brown fox");
    txn.commit();
}

#[test]
fn ufile_type_uses_path_semantics() {
    // §6.1: append EMP (picture = "/usr/joe") stores the path; bytes are
    // written through the file afterwards.
    let (dir, db) = db();
    db.run("create large type ufblob (input = blob_in, output = blob_out, storage = ufile)")
        .unwrap();
    db.run("create FILES (name = text, data = ufblob)").unwrap();
    let upath = dir.path().join("user_file");
    db.run(&format!(r#"append FILES (name = "f", data = "{}")"#, upath.display())).unwrap();
    assert!(upath.exists(), "u-file creation touches the user's path");
    let r = db.run(r#"retrieve (FILES.data) where FILES.name = "f""#).unwrap();
    let lo = r.rows[0][0].as_large().unwrap().clone();
    let txn = db.begin();
    let mut h = db.store().open(&txn, lo.id, pglo_core::OpenMode::ReadWrite).unwrap();
    h.write(b"written through the DBMS").unwrap();
    h.close().unwrap();
    txn.commit();
    assert_eq!(std::fs::read(&upath).unwrap(), b"written through the DBMS");
}

#[test]
fn class_on_named_storage_manager() {
    let (_d, db) = db();
    db.run(r#"create M (v = int4) with (smgr = "main_memory")"#).unwrap();
    db.run("append M (v = 9)").unwrap();
    let r = db.run("retrieve (M.v)").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int4(9));
    assert!(db.env().mem_smgr().total_bytes() > 0, "rows landed in memory manager");
    let e = db.run(r#"create X (v = int4) with (smgr = "no_such_device")"#);
    assert!(matches!(e, Err(QueryError::Semantic(_))));
}

#[test]
fn vacuum_reclaims_replaced_rows() {
    let (_d, db) = db();
    db.run("create T (v = int4)").unwrap();
    db.run("append T (v = 1)").unwrap();
    for _ in 0..5 {
        db.run("replace T (v = T.v + 1)").unwrap();
    }
    let r = db.run("vacuum T").unwrap();
    assert_eq!(r.affected, 5, "five superseded versions reclaimed");
    let r = db.run("retrieve (T.v)").unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Int4(6)]]);
}

/// Vacuum frees a row's slot and the next append takes it: the dead row's
/// index entry must be gone by then, or the index lists the slot twice and
/// an index retrieve returns the new row twice.
#[test]
fn vacuum_unindexes_what_it_reclaims() {
    let (_d, db) = db();
    db.run("create T (v = int4)").unwrap();
    db.run("define index t_v on T (T.v)").unwrap();
    db.run("append T (v = 1)").unwrap();
    db.run("delete T where T.v = 1").unwrap();
    assert_eq!(db.run("vacuum T").unwrap().affected, 1);
    db.run("append T (v = 1)").unwrap();
    let r = db.run("retrieve (T.v) where T.v = 1").unwrap();
    assert_eq!(r.used_index.as_deref(), Some("t_v"));
    assert_eq!(r.rows, vec![vec![Datum::Int4(1)]]);
}

/// A functional index over a large object cannot always recompute a dead
/// row's key — here the picture is unlinked before the vacuum. The vacuum
/// still succeeds and still takes the entry out, finding it by TID.
#[test]
fn vacuum_unindexes_a_row_whose_large_object_is_gone() {
    let (_d, db) = db_with_emp();
    db.run("define index emp_pic_width on EMP (image_width(EMP.picture))").unwrap();
    let r = db.run(r#"retrieve (EMP.picture) where EMP.name = "Mike""#).unwrap();
    let picture = r.rows[0][0].as_large().expect("a large object name").id;
    db.run(r#"delete EMP where EMP.name = "Mike""#).unwrap();
    db.store().unlink(picture).unwrap();
    assert_eq!(db.run("vacuum EMP").unwrap().affected, 1);
    // The next row takes Mike's slot, with the same key.
    db.run(r#"append EMP (name = "Moe", salary = 200, picture = "128x96:2"::image)"#).unwrap();
    let r = db.run("retrieve (EMP.name) where image_width(EMP.picture) = 128").unwrap();
    assert_eq!(r.used_index.as_deref(), Some("emp_pic_width"));
    assert_eq!(r.rows, vec![vec![Datum::Text("Moe".into())]]);
}

#[test]
fn destroy_removes_class() {
    let (_d, db) = db();
    db.run("create T (v = int4)").unwrap();
    db.run("destroy T").unwrap();
    assert!(matches!(db.run("retrieve (T.v)"), Err(QueryError::Semantic(_))));
    // Can recreate.
    db.run("create T (v = text)").unwrap();
}

#[test]
fn error_paths() {
    let (_d, db) = db();
    assert!(matches!(db.run("purge ALL"), Err(QueryError::Parse(_))));
    assert!(matches!(db.run("retrieve (NOPE.x)"), Err(QueryError::Semantic(_))));
    db.run("create T (v = int4)").unwrap();
    assert!(matches!(db.run("append T (missing = 1)"), Err(QueryError::Semantic(_))));
    assert!(matches!(db.run(r#"append T (v = "not a number")"#), Err(QueryError::Adt(_))));
    db.run("append T (v = 7)").unwrap();
    assert!(matches!(db.run("retrieve (T.v) where 42"), Err(QueryError::Semantic(_))));
    assert!(matches!(db.run("retrieve (1/0)"), Err(QueryError::Semantic(_))));
    // A failed statement must not leak temporaries.
    assert_eq!(db.store().temp_count(), 0);
}

#[test]
fn run_script_executes_in_order() {
    let (_d, db) = db();
    let r = db
        .run_script(
            r#"
            create S (v = int4);
            append S (v = 1);
            append S (v = 2);
            retrieve (total = S.v) where S.v > 1
            "#,
        )
        .unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Int4(2)]]);
}

#[test]
fn inversion_directory_is_queryable() {
    // §8: "a user can use the query language to perform searches on the
    // DIRECTORY class."
    let (_d, db) = db();
    let fs = pglo_inversion::InversionFs::open(
        db.env(),
        std::sync::Arc::clone(db.store()),
        pglo_core::LoSpec::fchunk(),
    )
    .unwrap();
    let txn = db.begin();
    fs.mkdir(&txn, "/music").unwrap();
    fs.create(&txn, "/music/song.au").unwrap();
    fs.create(&txn, "/music/readme").unwrap();
    txn.commit();
    let r =
        db.run(r#"retrieve (INV_DIRECTORY.file_name) where INV_DIRECTORY.is_dir = false"#).unwrap();
    let mut names: Vec<String> =
        r.rows.iter().map(|row| row[0].as_text().unwrap().to_string()).collect();
    names.sort();
    assert_eq!(names, vec!["readme", "song.au"]);
}

#[test]
fn newfilename_function_per_paper_section_6_2() {
    // §6.2: retrieve (result = newfilename()) — register it as a function.
    let (_d, db) = db();
    let store = std::sync::Arc::clone(db.store());
    db.funcs()
        .register(
            "newfilename",
            0,
            "newfilename() -> text",
            std::sync::Arc::new(move |ctx, _args| {
                let id = ctx
                    .store()
                    .create(ctx.txn(), &pglo_core::LoSpec::pfile())
                    .map_err(pglo_adt::AdtError::Lo)?;
                let meta = ctx.store().meta(id).map_err(pglo_adt::AdtError::Lo)?;
                Ok(Datum::Text(meta.path.unwrap().display().to_string()))
            }),
        )
        .unwrap();
    let _ = store;
    let r = db.run("retrieve (result = newfilename())").unwrap();
    let path = r.rows[0][0].as_text().unwrap();
    assert!(std::path::Path::new(path).exists(), "p-file allocated at {path}");
}

#[test]
fn aggregates_over_a_class() {
    let (_d, db) = db();
    db.run("create NUMS (v = int4, w = float8)").unwrap();
    for (v, w) in [(1, 0.5), (2, 1.5), (3, 2.5), (4, 3.5)] {
        db.run(&format!("append NUMS (v = {v}, w = {w})")).unwrap();
    }
    let r = db
        .run("retrieve (n = count(), s = sum(NUMS.v), lo = min(NUMS.v), hi = max(NUMS.v), m = avg(NUMS.w)) from NUMS")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Datum::Int8(4));
    assert_eq!(r.rows[0][1], Datum::Int8(10));
    assert_eq!(r.rows[0][2], Datum::Int4(1));
    assert_eq!(r.rows[0][3], Datum::Int4(4));
    assert_eq!(r.rows[0][4], Datum::Float8(2.0));
    // With a qualification.
    let r = db.run("retrieve (n = count()) from NUMS where NUMS.v > 2").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int8(2));
    // Aggregates over an empty match set.
    let r = db.run("retrieve (n = count(), m = avg(NUMS.v)) from NUMS where NUMS.v > 100").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int8(0));
    assert_eq!(r.rows[0][1], Datum::Null);
    // Mixing aggregates and plain columns is rejected.
    assert!(matches!(db.run("retrieve (NUMS.v, count()) from NUMS"), Err(QueryError::Semantic(_))));
}

#[test]
fn sort_by_and_unique() {
    let (_d, db) = db();
    db.run("create T (name = text, rank = int4)").unwrap();
    for (n, rk) in [("carol", 3), ("alice", 1), ("bob", 2), ("alice", 1)] {
        db.run(&format!(r#"append T (name = "{n}", rank = {rk})"#)).unwrap();
    }
    let r = db.run("retrieve (T.name) sort by name").unwrap();
    let names: Vec<&str> = r.rows.iter().map(|row| row[0].as_text().unwrap()).collect();
    assert_eq!(names, vec!["alice", "alice", "bob", "carol"]);
    let r = db.run("retrieve (T.rank) sort by rank desc").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int4(3));
    let r = db.run("retrieve unique (T.all) sort by name").unwrap();
    assert_eq!(r.rows.len(), 3, "duplicate (alice,1) removed");
    // Sorting by a non-existent output column fails.
    assert!(matches!(db.run("retrieve (T.name) sort by salary"), Err(QueryError::Semantic(_))));
}

#[test]
fn directory_search_with_aggregates() {
    // §8: metadata queries over Inversion — "how many files, how big?"
    let (_d, db) = db();
    let fs = pglo_inversion::InversionFs::open(
        db.env(),
        std::sync::Arc::clone(db.store()),
        pglo_core::LoSpec::fchunk(),
    )
    .unwrap();
    let txn = db.begin();
    for i in 0..5 {
        let path = format!("/f{i}");
        fs.create(&txn, &path).unwrap();
        let mut f = fs.open_file(&txn, &path, pglo_core::OpenMode::ReadWrite).unwrap();
        f.write(&vec![0u8; (i + 1) * 1000]).unwrap();
        f.close().unwrap();
    }
    txn.commit();
    let r = db
        .run("retrieve (n = count(), total = sum(INV_FILESTAT.size), biggest = max(INV_FILESTAT.size)) \
              from INV_FILESTAT where INV_FILESTAT.is_dir = false")
        .unwrap();
    assert_eq!(r.rows[0][0], Datum::Int8(5));
    assert_eq!(r.rows[0][1], Datum::Int8(15_000));
    assert_eq!(r.rows[0][2], Datum::Int8(5_000));
}

#[test]
fn plain_index_speeds_and_answers_equality() {
    let (_d, db) = db();
    db.run("create EMPIDX (name = text, salary = int4)").unwrap();
    for i in 0..200 {
        db.run(&format!(r#"append EMPIDX (name = "e{i}", salary = {})"#, i % 10)).unwrap();
    }
    db.run("define index empidx_sal on EMPIDX (EMPIDX.salary)").unwrap();
    let r = db.run("retrieve (EMPIDX.name) where EMPIDX.salary = 7").unwrap();
    assert_eq!(r.used_index.as_deref(), Some("empidx_sal"));
    assert_eq!(r.rows.len(), 20);
    // Constant on the left works too.
    let r = db.run("retrieve (EMPIDX.name) where 7 = EMPIDX.salary").unwrap();
    assert_eq!(r.used_index.as_deref(), Some("empidx_sal"));
    assert_eq!(r.rows.len(), 20);
    // Range quals drive the index too.
    let r = db.run("retrieve (EMPIDX.name) where EMPIDX.salary > 7").unwrap();
    assert_eq!(r.used_index.as_deref(), Some("empidx_sal"));
    assert_eq!(r.rows.len(), 40);
    // Quals the index cannot serve fall back to the scan, still correct.
    let r = db.run("retrieve (EMPIDX.name) where EMPIDX.salary * 2 = 14").unwrap();
    assert!(r.used_index.is_none());
    assert_eq!(r.rows.len(), 20);
}

#[test]
fn functional_index_over_large_adt() {
    // §3: "it precludes indexing BLOB values, or the results of functions
    // invoked on BLOBs" — with large ADTs, it doesn't.
    let (_d, db) = db_with_emp();
    db.run("define index emp_pic_width on EMP (image_width(EMP.picture))").unwrap();
    let r = db.run("retrieve (EMP.name) where image_width(EMP.picture) = 128").unwrap();
    assert_eq!(r.used_index.as_deref(), Some("emp_pic_width"));
    assert_eq!(r.rows, vec![vec![Datum::Text("Mike".into())]]);
    // Rows whose indexed expression errors at probe time simply don't
    // match; rows with NULL pictures were skipped at indexing.
    let r = db.run("retrieve (EMP.name) where image_width(EMP.picture) = 9999").unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn index_maintained_across_append_replace_and_time_travel() {
    let (_d, db) = db();
    db.run("create T (k = int4, v = text)").unwrap();
    db.run("define index t_k on T (T.k)").unwrap();
    db.run(r#"append T (k = 1, v = "one")"#).unwrap();
    db.run(r#"append T (k = 2, v = "two")"#).unwrap();
    let ts_before = db.env().txns().current_timestamp();
    db.run(r#"replace T (k = 9) where T.v = "one""#).unwrap();
    // Current reads through the index see the new key only.
    let r = db.run("retrieve (T.v) where T.k = 9").unwrap();
    assert_eq!(r.used_index.as_deref(), Some("t_k"));
    assert_eq!(r.rows, vec![vec![Datum::Text("one".into())]]);
    let r = db.run("retrieve (T.v) where T.k = 1").unwrap();
    assert!(r.rows.is_empty(), "old key invisible to current reads");
    // Time travel through the same index sees the old version.
    let r = db.run(&format!("retrieve (T.v) where T.k = 1 as of {ts_before}")).unwrap();
    assert_eq!(r.used_index.as_deref(), Some("t_k"));
    assert_eq!(r.rows, vec![vec![Datum::Text("one".into())]]);
}

#[test]
fn index_lifecycle_errors_and_destroy() {
    let (_d, db) = db();
    db.run("create T (k = int4)").unwrap();
    db.run("append T (k = 5)").unwrap();
    db.run("define index t_k on T (T.k)").unwrap();
    assert!(matches!(db.run("define index t_k on T (T.k)"), Err(QueryError::Semantic(_))));
    db.run("destroy index t_k on T").unwrap();
    assert!(matches!(db.run("destroy index t_k on T"), Err(QueryError::Semantic(_))));
    // Queries fall back to scans and stay correct.
    let r = db.run("retrieve (T.k) where T.k = 5").unwrap();
    assert!(r.used_index.is_none());
    assert_eq!(r.rows.len(), 1);
    // Backfill: defining an index after data exists returns entry count.
    let r = db.run("define index t_k2 on T (T.k)").unwrap();
    assert_eq!(r.affected, 1);
    // destroy class removes index storage without error.
    db.run("destroy T").unwrap();
}

#[test]
fn index_definitions_survive_reopen() {
    let dir = tempfile::tempdir().unwrap();
    {
        let db = Database::open(dir.path()).unwrap();
        db.run("create T (k = int4)").unwrap();
        db.run("define index t_k on T (T.k)").unwrap();
        db.run("append T (k = 3)").unwrap();
    }
    let db = Database::open(dir.path()).unwrap();
    // New process: current-snapshot reads use a fresh commit log, so probe
    // via a fresh append (bootstrap-visible data is a documented limit).
    db.run("append T (k = 3)").unwrap();
    let r = db.run("retrieve (T.k) where T.k = 3").unwrap();
    assert_eq!(r.used_index.as_deref(), Some("t_k"), "index metadata reloaded");
    assert!(!r.rows.is_empty());
}

#[test]
fn retrieve_into_materializes_a_class() {
    let (_d, db) = db_with_emp();
    let r = db
        .run(r#"retrieve into RICH (EMP.name, pay = EMP.salary * 2) where EMP.salary >= 200"#)
        .unwrap();
    assert_eq!(r.affected, 2);
    let r = db.run("retrieve (RICH.all) sort by name").unwrap();
    assert_eq!(r.columns, vec!["name", "pay"]);
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][0], Datum::Text("Mike".into()));
    assert_eq!(r.rows[0][1], Datum::Int8(400));
    // The new class is a first-class citizen: updatable, indexable.
    db.run(r#"replace RICH (pay = 0) where RICH.name = "Sam""#).unwrap();
    db.run("define index rich_pay on RICH (RICH.pay)").unwrap();
    let r = db.run("retrieve (RICH.name) where RICH.pay = 0").unwrap();
    assert_eq!(r.used_index.as_deref(), Some("rich_pay"));
    assert_eq!(r.rows, vec![vec![Datum::Text("Sam".into())]]);
    // Duplicate class name rejected.
    assert!(db.run("retrieve into RICH (EMP.name)").is_err());
}

#[test]
fn retrieve_into_carries_large_objects() {
    let (_d, db) = db_with_emp();
    db.run(r#"retrieve into PICS (EMP.name, thumb = clip(EMP.picture, "0,0,8,8"::rect)) from EMP where EMP.salary < 300"#)
        .unwrap();
    assert_eq!(db.store().temp_count(), 0, "materialized clips were promoted");
    let r = db.run(r#"retrieve (w = image_width(PICS.thumb)) where PICS.name = "Joe""#).unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Int4(8)]]);
}

#[test]
fn two_class_join() {
    let (_d, db) = db();
    db.run("create DEPT (dname = text, budget = int4)").unwrap();
    db.run("create STAFF (sname = text, dept = text, salary = int4)").unwrap();
    db.run(r#"append DEPT (dname = "toys", budget = 500)"#).unwrap();
    db.run(r#"append DEPT (dname = "shoes", budget = 900)"#).unwrap();
    db.run(r#"append STAFF (sname = "ann", dept = "toys", salary = 10)"#).unwrap();
    db.run(r#"append STAFF (sname = "bob", dept = "shoes", salary = 20)"#).unwrap();
    db.run(r#"append STAFF (sname = "cid", dept = "toys", salary = 30)"#).unwrap();
    let r = db
        .run(
            "retrieve (STAFF.sname, DEPT.budget) \
             where STAFF.dept = DEPT.dname and DEPT.budget > 600",
        )
        .unwrap();
    assert_eq!(r.columns, vec!["sname", "budget"]);
    assert_eq!(r.rows, vec![vec![Datum::Text("bob".into()), Datum::Int4(900)]]);
    // Equijoin over all rows, sorted.
    let r = db
        .run("retrieve (STAFF.sname, DEPT.budget) where STAFF.dept = DEPT.dname sort by sname")
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[0][0], Datum::Text("ann".into()));
    // Cross product without a qual.
    let r = db.run("retrieve (STAFF.sname, DEPT.dname)").unwrap();
    assert_eq!(r.rows.len(), 6);
    // Class.all expansion inside a join.
    let r = db
        .run(r#"retrieve (DEPT.all, STAFF.sname) where STAFF.dept = DEPT.dname and STAFF.sname = "cid""#)
        .unwrap();
    assert_eq!(r.columns, vec!["dname", "budget", "sname"]);
    assert_eq!(r.rows[0][0], Datum::Text("toys".into()));
}

#[test]
fn join_edge_cases() {
    let (_d, db) = db();
    db.run("create A (x = int4)").unwrap();
    db.run("create B (x = int4)").unwrap();
    db.run("append A (x = 1)").unwrap();
    // Empty inner relation: empty product.
    let r = db.run("retrieve (A.x, B.x) where A.x = B.x").unwrap();
    assert!(r.rows.is_empty());
    db.run("append B (x = 1)").unwrap();
    // Bare ambiguous column is rejected with a clear error.
    let e = db.run("retrieve (x) where A.x = B.x").unwrap_err();
    assert!(e.to_string().contains("ambiguous"), "{e}");
    // Qualified columns disambiguate.
    let r = db.run("retrieve (ax = A.x, bx = B.x) where A.x = B.x").unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Int4(1), Datum::Int4(1)]]);
    // Aggregates over joins are rejected, not silently wrong.
    let e = db.run("retrieve (count()) where A.x = B.x").unwrap_err();
    assert!(e.to_string().contains("aggregates over joins"), "{e}");
}

#[test]
fn join_inversion_metadata_classes() {
    // §8's pitch, extended: join DIRECTORY with FILESTAT to list file sizes
    // by name — pure query-language metadata tooling.
    let (_d, db) = db();
    let fs = pglo_inversion::InversionFs::open(
        db.env(),
        std::sync::Arc::clone(db.store()),
        pglo_core::LoSpec::fchunk(),
    )
    .unwrap();
    let txn = db.begin();
    for (name, size) in [("small", 100usize), ("big", 9000)] {
        let path = format!("/{name}");
        fs.create(&txn, &path).unwrap();
        let mut f = fs.open_file(&txn, &path, pglo_core::OpenMode::ReadWrite).unwrap();
        f.write(&vec![1u8; size]).unwrap();
        f.close().unwrap();
    }
    txn.commit();
    let r = db
        .run(
            "retrieve (INV_DIRECTORY.file_name, INV_FILESTAT.size) \
             where INV_DIRECTORY.file_id = INV_FILESTAT.file_id \
             and INV_FILESTAT.size > 1000",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Datum::Text("big".into()));
    assert_eq!(r.rows[0][1], Datum::Int8(9000));
}

#[test]
fn index_range_scans() {
    let (_d, db) = db();
    db.run("create R (k = int4, label = text)").unwrap();
    for i in 0..100 {
        db.run(&format!(r#"append R (k = {i}, label = "row{i}")"#)).unwrap();
    }
    db.run("define index r_k on R (R.k)").unwrap();
    let r = db.run("retrieve (R.k) where R.k > 95").unwrap();
    assert_eq!(r.used_index.as_deref(), Some("r_k"));
    assert_eq!(r.rows.len(), 4);
    let r = db.run("retrieve (R.k) where R.k >= 95").unwrap();
    assert_eq!(r.rows.len(), 5);
    let r = db.run("retrieve (R.k) where R.k < 3").unwrap();
    assert_eq!(r.used_index.as_deref(), Some("r_k"));
    assert_eq!(r.rows.len(), 3);
    let r = db.run("retrieve (R.k) where 97 <= R.k").unwrap();
    assert_eq!(r.used_index.as_deref(), Some("r_k"));
    assert_eq!(r.rows.len(), 3);
    // The range path composes with everything else.
    let r = db.run("retrieve unique (R.label) where R.k > 90 sort by label desc").unwrap();
    assert_eq!(r.rows.len(), 9);
    assert_eq!(r.rows[0][0], Datum::Text("row99".into()));
}

#[test]
fn conjunct_qual_uses_index() {
    let (_d, db) = db();
    db.run("create C (k = int4, tag = text)").unwrap();
    for i in 0..60 {
        db.run(&format!(r#"append C (k = {i}, tag = "t{}")"#, i % 3)).unwrap();
    }
    db.run("define index c_k on C (C.k)").unwrap();
    // The index serves one conjunct; the rest filters.
    let r = db.run(r#"retrieve (C.k) where C.k = 7 and C.tag = "t1""#).unwrap();
    assert_eq!(r.used_index.as_deref(), Some("c_k"));
    assert_eq!(r.rows, vec![vec![Datum::Int4(7)]]);
    let r = db.run(r#"retrieve (C.k) where C.tag = "t0" and C.k > 55"#).unwrap();
    assert_eq!(r.used_index.as_deref(), Some("c_k"));
    // k in 56..=59 with k % 3 == 0: just 57.
    assert_eq!(r.rows, vec![vec![Datum::Int4(57)]]);
}

#[test]
fn long_text_keys_are_prefix_indexed() {
    let (_d, db) = db();
    db.run("create DOCS (title = text)").unwrap();
    let long_a = format!("{}-alpha", "x".repeat(2000));
    let long_b = format!("{}-beta", "x".repeat(2000));
    db.run(&format!(r#"append DOCS (title = "{long_a}")"#)).unwrap();
    db.run(&format!(r#"append DOCS (title = "{long_b}")"#)).unwrap();
    // Defining and probing an index on 2KB strings must not panic and must
    // answer exactly (the prefix collision is resolved by requalification).
    db.run("define index d_t on DOCS (DOCS.title)").unwrap();
    let r = db.run(&format!(r#"retrieve (DOCS.title) where DOCS.title = "{long_a}""#)).unwrap();
    assert_eq!(r.used_index.as_deref(), Some("d_t"));
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0].as_text().unwrap(), long_a);
}
