//! What each durability mode costs in fsyncs, read from the file layer's
//! `vfs.<class>.*` counters in the one `stats` reply. The counters are
//! process-wide, so this file is its own test binary and its one test
//! runs the modes in turn.

use pglo_heap::{EnvOptions, StorageEnv};
use pglo_server::{loopback, LobdService, WireSpec};
use pglo_smgr::simvfs::OpKind;
use pglo_smgr::{Durability, FileClass, HostVfs, SimVfs, Vfs};
use std::sync::Arc;

const CLASSES: [&str; 5] = ["log", "data", "xact", "platter", "native"];

/// Objects each run creates, extends, commits and unlinks.
const OBJECTS: u64 = 3;

/// Open a store on `vfs`; run `OBJECTS` rounds of create, extend and
/// commit, then unlink each object in a committed transaction of its
/// own, then write the pool's pages home and checkpoint. Returns how far each counter moved over the
/// run, the commits made, and what `mark` returned at the run's start
/// and end.
fn run<T>(vfs: Arc<dyn Vfs>, mark: impl Fn() -> T) -> (impl Fn(&str) -> u64, u64, [T; 2]) {
    let dir = tempfile::tempdir().unwrap();
    let env = StorageEnv::open_with(dir.path(), EnvOptions { vfs, ..Default::default() }).unwrap();
    let service = LobdService::with_env(Arc::clone(&env)).unwrap();
    let mut lb = loopback::connect(&service).unwrap();
    let c = &mut lb.client;
    let stats = |c: &mut pglo_server::Client<_>| {
        let entries = c.metrics().unwrap();
        move |name: &str| pglo_server::stats::metric(&entries, name).map_or(0, |v| v.as_u64())
    };
    let (before, from) = (stats(c), mark());
    let mut commits = 0;
    for n in 0..OBJECTS {
        c.begin().unwrap();
        let id = c.lo_create(&WireSpec::fchunk()).unwrap();
        let mut lo = c.lo(id, true, 0).unwrap();
        lo.write(&vec![n as u8; 40_000]).unwrap();
        lo.close().unwrap();
        c.commit().unwrap();
        c.begin().unwrap();
        c.lo_unlink(id).unwrap();
        c.commit().unwrap();
        commits += 2;
    }
    env.pool().flush_all().unwrap();
    env.checkpoint().unwrap();
    let (after, to) = (stats(c), mark());
    drop(lb.client);
    lb.server.join().unwrap();
    (move |name: &str| after(name) - before(name), commits, [from, to])
}

#[test]
fn fsyncs_per_mode_through_the_file_layer() {
    // The relation files the run makes and removes, from the op log of
    // the same run on a `SimVfs`.
    let sim = SimVfs::new();
    let (_, _, [from, to]) = run(sim.clone(), || sim.ops().len());
    let ops = &sim.ops()[from..to];
    let counted = |kind: OpKind| {
        ops.iter().filter(|op| op.kind == kind && op.class == FileClass::Data).count() as u64
    };
    let (creates, removes) = (counted(OpKind::Create), counted(OpKind::Remove));
    assert!(creates >= 2 * OBJECTS, "no relation file was made");

    // Process mode: a kill keeps what the OS accepted; nothing is synced.
    let (moved, _, _) = run(HostVfs::shared(Durability::Process), || ());
    for class in CLASSES {
        for what in ["fsyncs", "dir_fsyncs"] {
            assert_eq!(
                moved(&format!("vfs.{class}.{what}")),
                0,
                "process mode: vfs.{class}.{what}"
            );
        }
    }
    assert!(moved("vfs.log.bytes_written") > 0, "the commits wrote the log");

    // Power mode: every commit batch syncs the log, and so does every
    // create's record before its first relation file is made; every
    // relation file made or removed syncs its directory before the call
    // returns.
    let (moved, commits, _) = run(HostVfs::shared(Durability::Power), || ());
    assert!(
        moved("vfs.log.fsyncs") >= commits + OBJECTS,
        "{} log fsyncs, {commits} commits, {OBJECTS} creates",
        moved("vfs.log.fsyncs")
    );
    assert!(
        creates >= 2 * OBJECTS && removes >= 2 * OBJECTS,
        "{creates} creates, {removes} removes"
    );
    assert_eq!(
        moved("vfs.data.dir_fsyncs"),
        creates + removes,
        "a directory fsync per create and remove"
    );
    assert!(moved("vfs.data.fsyncs") > 0, "the checkpoint synced the data files written");
    assert!(moved("vfs.xact.fsyncs") > 0, "the checkpoint synced the outcome table");
}
