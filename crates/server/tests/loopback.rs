//! The in-process loopback transport: the full protocol with no socket.
//! Everything the TCP tests prove about the codec and dispatch must hold
//! here too, since both transports share `serve_stream` and `Client`.

use pglo_server::proto::{read_frame, FrameError};
use pglo_server::{loopback, ErrorCode, LobdService, WireSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn service() -> (tempfile::TempDir, Arc<LobdService>) {
    let dir = tempfile::tempdir().unwrap();
    let service = LobdService::open(dir.path()).unwrap();
    (dir, service)
}

#[test]
fn loopback_full_lifecycle() {
    let (_dir, service) = service();
    let mut lb = loopback::connect(&service).unwrap();
    let c = &mut lb.client;

    assert_eq!(c.ping(b"in-process").unwrap(), b"in-process");
    c.begin().unwrap();
    let id = c.lo_create(&WireSpec::fchunk()).unwrap();
    let mut lo = c.lo(id, true, 0).unwrap();
    lo.write(b"no socket involved").unwrap();
    lo.seek(pglo_server::proto::SEEK_SET, 3).unwrap();
    assert_eq!(lo.read(6).unwrap(), b"socket");
    lo.close().unwrap();
    let ts = c.commit().unwrap();

    // Time travel over loopback too.
    let mut lo = c.lo_as_of(id, ts).unwrap();
    assert_eq!(lo.read_at(0, 64).unwrap(), b"no socket involved");
    lo.close().unwrap();

    let stats = c.metrics().unwrap();
    let named = |name: &str| pglo_server::stats::metric(&stats, name).map(|v| v.as_u64());
    assert!(named("server.op.lo_write.count") > Some(0));
    assert_eq!(named("server.sessions.active"), Some(1));

    drop(lb.client);
    lb.server.join().unwrap();
    assert_eq!(service.session_count(), 0);
}

/// A stopped lobd gives everything back: once the last session has
/// closed and the service is dropped, nothing still holds the storage
/// environment (every wire op opens and closes a large-object handle,
/// each of which holds one), so its pool, log and background threads
/// are gone and the directory can be opened again in the same process.
#[test]
fn dropped_service_releases_its_environment() {
    let dir = tempfile::tempdir().unwrap();
    let service = LobdService::open(dir.path()).unwrap();
    let env = Arc::downgrade(service.env());
    let mut lb = loopback::connect(&service).unwrap();
    let c = &mut lb.client;
    c.begin().unwrap();
    let id = c.lo_create(&WireSpec::fchunk()).unwrap();
    let mut lo = c.lo(id, true, 0).unwrap();
    lo.write(b"outlives the service").unwrap();
    assert_eq!(lo.read_at(9, 3).unwrap(), b"the");
    lo.close().unwrap();
    c.commit().unwrap();
    drop(lb.client);
    lb.server.join().unwrap();
    drop(service);
    assert!(env.upgrade().is_none(), "a closed handle or session still holds the environment");

    let service = LobdService::open(dir.path()).unwrap();
    let mut lb = loopback::connect(&service).unwrap();
    let c = &mut lb.client;
    c.begin().unwrap();
    let mut lo = c.lo(id, false, 0).unwrap();
    assert_eq!(lo.read_at(0, 64).unwrap(), b"outlives the service");
    lo.close().unwrap();
    c.commit().unwrap();
    drop(lb.client);
    lb.server.join().unwrap();
}

#[test]
fn loopback_errors_match_tcp_semantics() {
    let (_dir, service) = service();
    let mut lb = loopback::connect(&service).unwrap();
    let c = &mut lb.client;

    assert_eq!(c.commit().unwrap_err().code(), Some(ErrorCode::NoTxn));
    let (status, _) = c.call_raw(0xEE, &[]).unwrap();
    assert_eq!(ErrorCode::from_u8(status), Some(ErrorCode::UnknownOp));
    let (status, _) = c.call_raw(0x11, &[1, 2, 3]).unwrap();
    assert_eq!(ErrorCode::from_u8(status), Some(ErrorCode::Malformed));
    assert_eq!(c.ping(b"fine").unwrap(), b"fine");

    drop(lb.client);
    lb.server.join().unwrap();
}

#[test]
fn loopback_disconnect_aborts_orphan() {
    let (_dir, service) = service();
    let mut lb = loopback::connect(&service).unwrap();
    lb.client.begin().unwrap();
    lb.client.lo_create(&WireSpec::fchunk()).unwrap();
    assert_eq!(service.env().txns().active_count(), 1);

    drop(lb.client);
    lb.server.join().unwrap();

    assert_eq!(service.env().txns().active_count(), 0, "orphan aborted at EOF");
    let (_, aborts) = service.env().txns().counters();
    assert!(aborts >= 1);
}

#[test]
fn many_loopback_sessions_share_one_stack() {
    let (_dir, service) = service();

    let ids: Vec<u64> = std::thread::scope(|s| {
        let mut joins = Vec::new();
        for i in 0..8u8 {
            let service = &service;
            joins.push(s.spawn(move || {
                let mut lb = loopback::connect(service).unwrap();
                let c = &mut lb.client;
                c.begin().unwrap();
                let id = c.lo_create(&WireSpec::fchunk()).unwrap();
                let mut lo = c.lo(id, true, 0).unwrap();
                lo.write(&vec![i + 1; 10_000]).unwrap();
                lo.close().unwrap();
                c.commit().unwrap();
                drop(lb.client);
                lb.server.join().unwrap();
                id
            }));
        }
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });

    // All 8 objects visible and distinct through one more session.
    let mut lb = loopback::connect(&service).unwrap();
    let c = &mut lb.client;
    c.begin().unwrap();
    for (i, id) in ids.iter().enumerate() {
        let mut lo = c.lo(*id, false, 0).unwrap();
        let data = lo.read_all(10_000).unwrap();
        assert_eq!(data.len(), 10_000);
        assert!(data.iter().all(|b| *b == i as u8 + 1));
        lo.close().unwrap();
    }
    c.commit().unwrap();
}

/// Loopback sessions obey shutdown draining just like TCP ones.
#[test]
fn loopback_sees_shutdown() {
    let (_dir, service) = service();
    let mut lb = loopback::connect(&service).unwrap();
    lb.client.shutdown().unwrap();
    // The serve loop exits right after acknowledging shutdown.
    let deadline = Instant::now() + Duration::from_secs(2);
    while !lb.server.is_finished() {
        assert!(Instant::now() < deadline, "loopback session must exit after shutdown");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(service.shutting_down());
}

/// A session opened after shutdown began is refused exactly as a TCP one
/// is: the hello is answered, then a tag-0 `ShuttingDown` frame and a
/// close — no session is opened and no request is served.
#[test]
fn loopback_opened_after_shutdown_is_refused() {
    let (_dir, service) = service();
    service.request_shutdown();
    let lb = loopback::connect(&service).unwrap();
    let mut end = lb.client.into_inner();
    let (tag, status, _) = read_frame(&mut end, &mut Vec::new()).unwrap();
    assert_eq!((tag, ErrorCode::from_u8(status)), (0, Some(ErrorCode::ShuttingDown)));
    assert!(matches!(read_frame(&mut end, &mut Vec::new()), Err(FrameError::Eof)));
    lb.server.join().unwrap();
    assert_eq!(service.session_count(), 0);
}

/// A lobd restarted on the same data directory serves the objects earlier
/// incarnations committed: visibility, size, and the time-travel axis all
/// come back from the durable commit log.
#[test]
fn restart_preserves_committed_objects() {
    let dir = tempfile::tempdir().unwrap();
    let (id, ts) = {
        let service = LobdService::open(dir.path()).unwrap();
        let mut lb = loopback::connect(&service).unwrap();
        let c = &mut lb.client;
        c.begin().unwrap();
        let id = c.lo_create(&WireSpec::fchunk()).unwrap();
        let mut lo = c.lo(id, true, 0).unwrap();
        lo.write(b"durable across restarts").unwrap();
        lo.close().unwrap();
        let ts = c.commit().unwrap();
        drop(lb.client);
        lb.server.join().unwrap();
        (id, ts)
    };

    let service = LobdService::open(dir.path()).unwrap();
    let mut lb = loopback::connect(&service).unwrap();
    let c = &mut lb.client;
    // A fresh snapshot sees the prior incarnation's commit…
    c.begin().unwrap();
    let mut lo = c.lo(id, false, 0).unwrap();
    assert_eq!(lo.read_at(0, 64).unwrap(), b"durable across restarts");
    lo.close().unwrap();
    c.commit().unwrap();
    // …and so does a time-travel open at the old commit's timestamp.
    assert!(c.current_ts().unwrap() >= ts);
    let mut lo = c.lo_as_of(id, ts).unwrap();
    assert_eq!(lo.read_at(8, 6).unwrap(), b"across");
    lo.close().unwrap();
    drop(lb.client);
    lb.server.join().unwrap();
}

/// The self-describing metrics frame carries the WAL instrumentation:
/// the append byte counter, the fsync latency histogram, and the
/// group-commit batch-size histogram — and the text exposition renders
/// them. The file layer runs in power mode so the fsync span actually
/// fires.
#[test]
fn metrics_frame_exposes_wal_instrumentation() {
    let dir = tempfile::tempdir().unwrap();
    let env = pglo_heap::StorageEnv::open_with(
        dir.path(),
        pglo_heap::EnvOptions {
            vfs: pglo_smgr::HostVfs::shared(pglo_smgr::Durability::Power),
            ..Default::default()
        },
    )
    .unwrap();
    let service = LobdService::with_env(env).unwrap();
    let mut lb = loopback::connect(&service).unwrap();
    let c = &mut lb.client;
    c.begin().unwrap();
    let id = c.lo_create(&WireSpec::fchunk()).unwrap();
    let mut lo = c.lo(id, true, 0).unwrap();
    lo.write(b"committed through the redo log").unwrap();
    lo.close().unwrap();
    c.commit().unwrap();

    let entries = service.metrics_entries();
    let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
    for want in [
        "wal.append.bytes",
        "wal.fsync.count",
        "wal.fsync.p99_ns",
        "wal.group_commit.batch.count",
        "wal.group_commit.batch.p99_ns",
    ] {
        assert!(names.contains(&want), "metrics frame missing {want}");
    }
    let text = obs::render_text(&entries);
    assert!(text.contains("wal.append.bytes"), "text exposition missing wal.append.bytes");
    assert!(text.contains("wal.fsync"), "text exposition missing wal.fsync");

    drop(lb.client);
    lb.server.join().unwrap();
}

/// A descriptor held across another session's unlink: session A opens
/// an object and reads it, session B unlinks it, and A's next read on
/// the same descriptor, in the same transaction, answers `NotFound`:
/// neither a storage error nor an empty read.
#[test]
fn held_descriptor_reads_not_found_after_another_sessions_unlink() {
    let (_dir, service) = service();
    let mut a = loopback::connect(&service).unwrap();
    let mut b = loopback::connect(&service).unwrap();
    a.client.begin().unwrap();
    let id = a.client.lo_create(&WireSpec::fchunk()).unwrap();
    let mut lo = a.client.lo(id, true, 0).unwrap();
    lo.write(&[7; 20_000]).unwrap();
    lo.close().unwrap();
    a.client.commit().unwrap();

    a.client.begin().unwrap();
    let mut lo = a.client.lo(id, false, 0).unwrap();
    assert_eq!(lo.read_at(0, 100).unwrap(), vec![7; 100]);
    b.client.lo_unlink(id).unwrap();
    for read in [lo.read_at(0, 100), lo.read_at(19_990, 100), lo.read(100)] {
        let err = read.unwrap_err();
        assert_eq!(err.code(), Some(ErrorCode::NotFound), "{err}");
    }
    drop(lo);
    a.client.commit().unwrap();
    drop((a.client, b.client));
    a.server.join().unwrap();
    b.server.join().unwrap();
}
