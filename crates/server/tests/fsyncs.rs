//! What each durability mode costs in fsyncs, read from the file layer's
//! `vfs.<class>.*` counters in the one `stats` reply. The counters are
//! process-wide, so this file is its own test binary and its one test
//! runs the two modes in turn.

use pglo_heap::{EnvOptions, StorageEnv};
use pglo_server::{loopback, LobdService, WireSpec};
use pglo_smgr::fault::OpKind;
use pglo_smgr::{Durability, FaultVfs, FileClass, HostVfs};
use std::sync::Arc;

const CLASSES: [&str; 5] = ["log", "data", "xact", "platter", "native"];

/// Objects each run creates, extends, commits and unlinks.
const OBJECTS: u64 = 3;

/// Open a store on a [`FaultVfs`] over the host in `mode`; run `OBJECTS`
/// rounds of create, extend and commit, then unlink each object in a
/// committed transaction of its own, then checkpoint. Returns how far
/// each counter moved over the run, the commits made, and the op log.
fn run(mode: Durability) -> (impl Fn(&str) -> u64, u64, Vec<pglo_smgr::fault::Op>) {
    let dir = tempfile::tempdir().unwrap();
    let fault = FaultVfs::new(HostVfs::shared(mode));
    let env =
        StorageEnv::open_with(dir.path(), EnvOptions { vfs: fault.clone(), ..Default::default() })
            .unwrap();
    let service = LobdService::with_env(Arc::clone(&env)).unwrap();
    let mut lb = loopback::connect(&service).unwrap();
    let c = &mut lb.client;
    let stats = |c: &mut pglo_server::Client<_>| {
        let entries = c.metrics().unwrap();
        move |name: &str| pglo_server::stats::metric(&entries, name).map_or(0, |v| v.as_u64())
    };
    let before = stats(c);
    let from = fault.ops().len();
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
    env.checkpoint().unwrap();
    let after = stats(c);
    drop(lb.client);
    lb.server.join().unwrap();
    let ops = fault.ops().split_off(from);
    (move |name: &str| after(name) - before(name), commits, ops)
}

#[test]
fn fsyncs_per_mode_through_the_file_layer() {
    let counted = |ops: &[pglo_smgr::fault::Op], kind: OpKind| {
        ops.iter().filter(|op| op.kind == kind && op.class == FileClass::Data).count() as u64
    };

    // Process mode: a kill keeps what the OS accepted; nothing is synced.
    let (moved, _, ops) = run(Durability::Process);
    assert!(counted(&ops, OpKind::Create) >= 2 * OBJECTS, "no relation file was made");
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

    // Power mode: every commit batch syncs the log, and every relation
    // file made or removed syncs its directory before the call returns.
    let (moved, commits, ops) = run(Durability::Power);
    assert!(
        moved("vfs.log.fsyncs") >= commits,
        "{} log fsyncs, {commits} commits",
        moved("vfs.log.fsyncs")
    );
    let (creates, removes) = (counted(&ops, OpKind::Create), counted(&ops, OpKind::Remove));
    assert!(
        creates >= 2 * OBJECTS && removes >= 2 * OBJECTS,
        "{creates} creates, {removes} removes"
    );
    assert_eq!(
        moved("vfs.data.dir_fsyncs"),
        creates + removes,
        "a directory fsync per create and remove"
    );
    assert!(moved("vfs.data.fsyncs") > 0, "the checkpoint synced the data files");
    assert!(moved("vfs.xact.fsyncs") > 0, "the checkpoint synced the outcome table");
}
