//! Inversion file-system behaviour tests (§8).

use pglo_compress::CodecKind;
use pglo_core::{LoSpec, LoStore, OpenMode, UserId};
use pglo_heap::StorageEnv;
use pglo_inversion::{DirEntry, InvError, InversionFs, ROOT_ID};
use pglo_smgr::StorageManager;
use pglo_txn::Visibility;
use std::sync::Arc;

fn setup_with(spec: LoSpec) -> (tempfile::TempDir, Arc<StorageEnv>, InversionFs) {
    let dir = tempfile::tempdir().unwrap();
    let env = StorageEnv::open(dir.path()).unwrap();
    let store = Arc::new(LoStore::new(Arc::clone(&env)));
    let fs = InversionFs::open(&env, store, spec).unwrap();
    (dir, env, fs)
}

fn setup() -> (tempfile::TempDir, Arc<StorageEnv>, InversionFs) {
    setup_with(LoSpec::fchunk())
}

#[test]
fn mkdir_create_write_read() {
    let (_d, env, fs) = setup();
    let txn = env.begin();
    fs.mkdir(&txn, "/home").unwrap();
    fs.mkdir(&txn, "/home/joe").unwrap();
    fs.create(&txn, "/home/joe/notes.txt").unwrap();
    {
        let mut f = fs.open_file(&txn, "/home/joe/notes.txt", OpenMode::ReadWrite).unwrap();
        f.write(b"inversion stores files in the database").unwrap();
        f.close().unwrap();
    }
    let mut f = fs.open_file(&txn, "/home/joe/notes.txt", OpenMode::ReadOnly).unwrap();
    assert_eq!(f.read_to_vec().unwrap(), b"inversion stores files in the database");
    f.close().unwrap();
    let stat = fs.stat(&txn, "/home/joe/notes.txt").unwrap();
    assert_eq!(stat.size, b"inversion stores files in the database".len() as u64);
    assert!(!stat.is_dir);
    assert!(fs.stat(&txn, "/home").unwrap().is_dir);
    txn.commit();
}

#[test]
fn resolve_and_path_errors() {
    let (_d, env, fs) = setup();
    let txn = env.begin();
    assert_eq!(fs.resolve(&txn, "/").unwrap(), (ROOT_ID, true));
    assert!(matches!(fs.resolve(&txn, "/nope"), Err(InvError::NotFound(_))));
    fs.create(&txn, "/afile").unwrap();
    assert!(matches!(fs.resolve(&txn, "/afile/under"), Err(InvError::NotADirectory(_))));
    assert!(matches!(fs.mkdir(&txn, "/afile"), Err(InvError::Exists(_))));
    assert!(matches!(fs.mkdir(&txn, "/a/b"), Err(InvError::NotFound(_))));
    assert!(matches!(fs.create(&txn, "relative"), Err(InvError::BadPath(_))));
    assert!(matches!(fs.open_file(&txn, "/", OpenMode::ReadOnly), Err(InvError::IsADirectory(_))));
    txn.commit();
}

#[test]
fn readdir_lists_sorted_entries() {
    let (_d, env, fs) = setup();
    let txn = env.begin();
    fs.mkdir(&txn, "/zoo").unwrap();
    fs.create(&txn, "/apple").unwrap();
    fs.create(&txn, "/mango").unwrap();
    let entries = fs.readdir(&txn, "/").unwrap();
    let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, vec!["apple", "mango", "zoo"]);
    assert!(entries[2].is_dir);
    assert!(!entries[0].is_dir);
    assert!(fs.readdir(&txn, "/zoo").unwrap().is_empty());
    assert!(matches!(fs.readdir(&txn, "/apple"), Err(InvError::NotADirectory(_))));
    txn.commit();
}

#[test]
fn unlink_and_rmdir() {
    let (_d, env, fs) = setup();
    let txn = env.begin();
    fs.mkdir(&txn, "/dir").unwrap();
    fs.create(&txn, "/dir/f").unwrap();
    assert!(matches!(fs.rmdir(&txn, "/dir"), Err(InvError::NotEmpty(_))));
    assert!(matches!(fs.unlink(&txn, "/dir"), Err(InvError::IsADirectory(_))));
    fs.unlink(&txn, "/dir/f").unwrap();
    assert!(matches!(fs.resolve(&txn, "/dir/f"), Err(InvError::NotFound(_))));
    fs.rmdir(&txn, "/dir").unwrap();
    assert!(matches!(fs.resolve(&txn, "/dir"), Err(InvError::NotFound(_))));
    // Recreate under the same name works.
    fs.create(&txn, "/dir").unwrap();
    assert!(fs.resolve(&txn, "/dir").is_ok());
    txn.commit();
}

#[test]
fn rename_moves_across_directories() {
    let (_d, env, fs) = setup();
    let txn = env.begin();
    fs.mkdir(&txn, "/src").unwrap();
    fs.mkdir(&txn, "/dst").unwrap();
    fs.create(&txn, "/src/file").unwrap();
    {
        let mut f = fs.open_file(&txn, "/src/file", OpenMode::ReadWrite).unwrap();
        f.write(b"contents").unwrap();
        f.close().unwrap();
    }
    fs.rename(&txn, "/src/file", "/dst/renamed").unwrap();
    assert!(matches!(fs.resolve(&txn, "/src/file"), Err(InvError::NotFound(_))));
    let mut f = fs.open_file(&txn, "/dst/renamed", OpenMode::ReadOnly).unwrap();
    assert_eq!(f.read_to_vec().unwrap(), b"contents");
    f.close().unwrap();
    // Renaming onto an existing name fails.
    fs.create(&txn, "/src/other").unwrap();
    assert!(matches!(fs.rename(&txn, "/src/other", "/dst/renamed"), Err(InvError::Exists(_))));
    txn.commit();
}

#[test]
fn chmod_chown_update_stat() {
    let (_d, env, fs) = setup();
    let txn = env.begin();
    fs.create(&txn, "/f").unwrap();
    fs.chmod(&txn, "/f", 0o600).unwrap();
    fs.chown(&txn, "/f", UserId(42)).unwrap();
    let stat = fs.stat(&txn, "/f").unwrap();
    assert_eq!(stat.mode, 0o600);
    assert_eq!(stat.owner, UserId(42));
    txn.commit();
}

#[test]
fn transactional_file_writes_roll_back() {
    let (_d, env, fs) = setup();
    let t1 = env.begin();
    fs.create(&t1, "/f").unwrap();
    {
        let mut f = fs.open_file(&t1, "/f", OpenMode::ReadWrite).unwrap();
        f.write(b"committed").unwrap();
        f.close().unwrap();
    }
    t1.commit();
    // An aborted transaction's writes and creations vanish.
    let t2 = env.begin();
    {
        let mut f = fs.open_file(&t2, "/f", OpenMode::ReadWrite).unwrap();
        f.write_at(0, b"SCRIBBLE!").unwrap();
        f.close().unwrap();
    }
    fs.create(&t2, "/ghost").unwrap();
    t2.abort();
    let t3 = env.begin();
    let mut f = fs.open_file(&t3, "/f", OpenMode::ReadOnly).unwrap();
    assert_eq!(f.read_to_vec().unwrap(), b"committed");
    f.close().unwrap();
    assert!(matches!(fs.resolve(&t3, "/ghost"), Err(InvError::NotFound(_))));
    t3.commit();
}

#[test]
fn time_travel_over_files_and_directories() {
    let (_d, env, fs) = setup();
    // Epoch 1: create and fill.
    let t1 = env.begin();
    fs.create(&t1, "/report").unwrap();
    {
        let mut f = fs.open_file(&t1, "/report", OpenMode::ReadWrite).unwrap();
        f.write(b"draft v1").unwrap();
        f.close().unwrap();
    }
    let ts1 = t1.commit();
    // Epoch 2: rewrite.
    let t2 = env.begin();
    {
        let mut f = fs.open_file(&t2, "/report", OpenMode::ReadWrite).unwrap();
        f.write_at(0, b"FINAL v2").unwrap();
        f.close().unwrap();
    }
    let ts2 = t2.commit();
    // Epoch 3: delete the file entirely.
    let t3 = env.begin();
    fs.unlink(&t3, "/report").unwrap();
    let ts3 = t3.commit();

    // Contents as of each epoch.
    let mut h1 = fs.open_file_as_of("/report", ts1).unwrap();
    assert_eq!(h1.read_to_vec().unwrap(), b"draft v1");
    let mut h2 = fs.open_file_as_of("/report", ts2).unwrap();
    assert_eq!(h2.read_to_vec().unwrap(), b"FINAL v2");
    // After deletion the path no longer resolves…
    assert!(matches!(fs.open_file_as_of("/report", ts3), Err(InvError::NotFound(_))));
    // …and the directory listing time-travels too.
    let old_root = fs.readdir_vis(&Visibility::AsOf(ts2), "/").unwrap();
    assert_eq!(
        old_root,
        vec![DirEntry { name: "report".into(), file_id: old_root[0].file_id, is_dir: false }]
    );
    let new_root = fs.readdir_vis(&Visibility::AsOf(ts3), "/").unwrap();
    assert!(new_root.is_empty());
}

#[test]
fn vsegment_backed_files_with_compression() {
    // §10: Inversion can use either chunked implementation.
    let (_d, env, fs) = setup_with(LoSpec::vsegment(CodecKind::Rle));
    let txn = env.begin();
    fs.create(&txn, "/video").unwrap();
    let frame = vec![7u8; 4096]; // compressible frame
    {
        let mut f = fs.open_file(&txn, "/video", OpenMode::ReadWrite).unwrap();
        for _ in 0..50 {
            f.write(&frame).unwrap();
        }
        f.close().unwrap();
    }
    let stat = fs.stat(&txn, "/video").unwrap();
    assert_eq!(stat.size, 50 * 4096);
    let mut f = fs.open_file(&txn, "/video", OpenMode::ReadOnly).unwrap();
    let mut buf = vec![0u8; 4096];
    f.read_at(37 * 4096, &mut buf).unwrap();
    assert_eq!(buf, frame);
    f.close().unwrap();
    txn.commit();
}

#[test]
fn files_on_user_defined_storage_manager() {
    // §10: "any new storage manager automatically supports Inversion
    // files" — register a custom manager and run the file system on it.
    let dir = tempfile::tempdir().unwrap();
    let env = StorageEnv::open(dir.path()).unwrap();
    let custom = Arc::new(pglo_smgr::MemSmgr::new(env.sim().clone()));
    let custom_id = env.switch().register(Arc::clone(&custom) as Arc<dyn StorageManager>);
    let store = Arc::new(LoStore::new(Arc::clone(&env)));
    let fs = InversionFs::open(&env, store, LoSpec::fchunk().on_smgr(custom_id)).unwrap();
    let txn = env.begin();
    fs.create(&txn, "/on-custom-device").unwrap();
    {
        let mut f = fs.open_file(&txn, "/on-custom-device", OpenMode::ReadWrite).unwrap();
        f.write(&vec![5u8; 20_000]).unwrap();
        f.close().unwrap();
    }
    env.pool().flush_all().unwrap();
    txn.commit();
    // The bytes actually landed on the custom device.
    assert!(custom.total_bytes() > 20_000, "custom manager holds the file pages");
    let t2 = env.begin();
    let mut f = fs.open_file(&t2, "/on-custom-device", OpenMode::ReadOnly).unwrap();
    assert_eq!(f.read_to_vec().unwrap(), vec![5u8; 20_000]);
    f.close().unwrap();
    t2.commit();
}

#[test]
fn deep_tree_and_many_files() {
    let (_d, env, fs) = setup();
    let txn = env.begin();
    let mut path = String::new();
    for depth in 0..12 {
        path.push_str(&format!("/d{depth}"));
        fs.mkdir(&txn, &path).unwrap();
    }
    for i in 0..50 {
        fs.create(&txn, &format!("{path}/file_{i:03}")).unwrap();
    }
    let entries = fs.readdir(&txn, &path).unwrap();
    assert_eq!(entries.len(), 50);
    assert_eq!(entries[0].name, "file_000");
    assert_eq!(entries[49].name, "file_049");
    // Dot and dot-dot navigation.
    let (id_direct, _) = fs.resolve(&txn, "/d0/d1").unwrap();
    let (id_dots, _) = fs.resolve(&txn, "/d0/d1/d2/../.").unwrap();
    assert_eq!(id_direct, id_dots);
    txn.commit();
}

#[test]
fn purge_reclaims_unlinked_file_storage() {
    let (_d, env, fs) = setup();
    let t1 = env.begin();
    fs.create(&t1, "/big").unwrap();
    {
        let mut f = fs.open_file(&t1, "/big", OpenMode::ReadWrite).unwrap();
        f.write(&vec![9u8; 200_000]).unwrap();
        f.close().unwrap();
    }
    t1.commit();
    // Record which relations back the file's large object.
    let t = env.begin();
    let r = fs.readdir(&t, "/").unwrap();
    assert_eq!(r.len(), 1);
    t.commit();
    let t2 = env.begin();
    fs.unlink(&t2, "/big").unwrap();
    let ts_unlink = t2.commit();
    // History is still reachable before purge...
    let mut old = fs.open_file_as_of("/big", ts_unlink - 1).unwrap();
    assert_eq!(old.read_to_vec().unwrap().len(), 200_000);
    drop(old);
    // ...until purge reclaims it.
    let purged = fs.purge(ts_unlink).unwrap();
    assert_eq!(purged, 1);
    assert!(
        fs.open_file_as_of("/big", ts_unlink - 1).is_err(),
        "purge gives up pre-horizon time travel for the file"
    );
    // A second purge is a no-op.
    assert_eq!(fs.purge(ts_unlink).unwrap(), 0);
    // Live files are untouched by purge.
    let t3 = env.begin();
    fs.create(&t3, "/alive").unwrap();
    {
        let mut f = fs.open_file(&t3, "/alive", OpenMode::ReadWrite).unwrap();
        f.write(b"still here").unwrap();
        f.close().unwrap();
    }
    let ts3 = t3.commit();
    assert_eq!(fs.purge(ts3).unwrap(), 0);
    let t4 = env.begin();
    let mut f = fs.open_file(&t4, "/alive", OpenMode::ReadOnly).unwrap();
    assert_eq!(f.read_to_vec().unwrap(), b"still here");
    f.close().unwrap();
    t4.commit();
}

/// Purge frees the dead rows' slots and the next create takes them: the
/// dead name's index entries must be gone by then, or `/old` resolves to
/// whatever file landed on its slot.
#[test]
fn purged_name_stays_dead_when_its_slot_is_reused() {
    let (_d, env, fs) = setup();
    let t1 = env.begin();
    fs.create(&t1, "/old").unwrap();
    t1.commit();
    let t2 = env.begin();
    fs.unlink(&t2, "/old").unwrap();
    let ts_unlink = t2.commit();
    assert_eq!(fs.purge(ts_unlink).unwrap(), 1);
    let t3 = env.begin();
    let new_id = fs.create(&t3, "/new").unwrap();
    t3.commit();

    let t = env.begin();
    assert_eq!(fs.resolve(&t, "/new").unwrap(), (new_id, false));
    assert!(matches!(fs.resolve(&t, "/old"), Err(InvError::NotFound(_))));
    assert!(matches!(fs.stat(&t, "/old"), Err(InvError::NotFound(_))));
    assert!(matches!(fs.readdir(&t, "/old"), Err(InvError::NotFound(_))));
    assert!(matches!(fs.open_file(&t, "/old", OpenMode::ReadOnly), Err(InvError::NotFound(_))));
    let names: Vec<String> = fs.readdir(&t, "/").unwrap().into_iter().map(|e| e.name).collect();
    assert_eq!(names, ["new"]);
    // The name is free again, and a file created under it is its own.
    let again = fs.create(&t, "/old").unwrap();
    assert_ne!(again, new_id);
    assert_eq!(fs.resolve(&t, "/old").unwrap(), (again, false));
    t.commit();
}

/// A `stat` fetches the live FILESTAT row first: it pins the same pages
/// after one `chmod` as after sixty-four (a walk from the oldest pins one
/// more per dead row).
#[test]
fn stat_pins_do_not_grow_with_the_rows_versions() {
    let pins_for = |chmods: u32| {
        let (_d, env, fs) = setup();
        let t = env.begin();
        fs.create(&t, "/f").unwrap();
        t.commit();
        for mode in 1..=chmods {
            let t = env.begin();
            fs.chmod(&t, "/f", mode).unwrap();
            t.commit();
        }
        let t = env.begin();
        let before = env.pool().stats();
        assert_eq!(fs.stat(&t, "/f").unwrap().mode, chmods);
        let after = env.pool().stats();
        t.commit();
        (after.hits + after.misses) - (before.hits + before.misses)
    };
    let pins = [1, 8, 64].map(pins_for);
    assert!(pins.iter().all(|&n| n == pins[0]), "pins after 1, 8 and 64 chmods: {pins:?}");
}

#[test]
fn rename_into_own_subtree_refused() {
    let (_d, env, fs) = setup();
    let txn = env.begin();
    fs.mkdir(&txn, "/a").unwrap();
    fs.mkdir(&txn, "/a/b").unwrap();
    fs.mkdir(&txn, "/a/b/c").unwrap();
    // /a into its own grandchild: refused.
    assert!(matches!(fs.rename(&txn, "/a", "/a/b/c/a2"), Err(InvError::BadPath(_))));
    // /a onto a direct child position: refused.
    assert!(matches!(fs.rename(&txn, "/a", "/a/a2"), Err(InvError::BadPath(_))));
    // The tree is intact and still navigable.
    assert!(fs.resolve(&txn, "/a/b/c").is_ok());
    // Legal directory moves still work.
    fs.mkdir(&txn, "/elsewhere").unwrap();
    fs.rename(&txn, "/a/b", "/elsewhere/b").unwrap();
    assert!(fs.resolve(&txn, "/elsewhere/b/c").is_ok());
    assert!(fs.resolve(&txn, "/a/b").is_err());
    txn.commit();
}
