//! Hostile-input and failure-path tests: malformed frames, lying length
//! prefixes, unknown opcodes, abrupt disconnects. The invariant under
//! test: nothing a client sends can kill the daemon, and a connection that
//! dies mid-transaction leaves that transaction aborted.

use pglo_server::proto::{MAGIC, VERSION};
use pglo_server::{
    spawn, Client, ErrorCode, LobdService, Opcode, ServerConfig, ServerHandle, WireSpec,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn start() -> (tempfile::TempDir, ServerHandle) {
    let dir = tempfile::tempdir().unwrap();
    let service = LobdService::open(dir.path()).unwrap();
    let handle = spawn(service, ServerConfig::default()).unwrap();
    (dir, handle)
}

fn stop(handle: ServerHandle) {
    handle.shutdown();
    handle.join();
}

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The canary: after whatever abuse a test inflicted, a fresh client must
/// still get full service.
fn assert_still_serving(handle: &ServerHandle) {
    let mut c = Client::connect(handle.local_addr()).unwrap();
    assert_eq!(c.ping(b"alive?").unwrap(), b"alive?");
    c.begin().unwrap();
    let id = c.lo_create(&WireSpec::fchunk()).unwrap();
    let mut lo = c.lo(id, true, 0).unwrap();
    lo.write(b"post-abuse write").unwrap();
    lo.close().unwrap();
    c.commit().unwrap();
}

/// Raw TCP handshake, bypassing the typed client.
fn raw_connect(handle: &ServerHandle) -> TcpStream {
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();
    s.write_all(MAGIC).unwrap();
    s.write_all(&[VERSION]).unwrap();
    let mut hello = [0u8; 5];
    s.read_exact(&mut hello).unwrap();
    assert_eq!(&hello[..4], MAGIC);
    s
}

/// The next frame off a raw socket: `(tag, status, payload)`.
fn raw_reply(s: &mut TcpStream) -> (u32, u8, Vec<u8>) {
    pglo_server::proto::read_frame(s, &mut Vec::new()).unwrap()
}

#[test]
fn unknown_opcode_is_an_error_reply_not_a_disconnect() {
    let (_dir, handle) = start();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    let (status, msg) = c.call_raw(0xEE, b"garbage").unwrap();
    assert_eq!(ErrorCode::from_u8(status), Some(ErrorCode::UnknownOp));
    assert!(!msg.is_empty());
    // Same connection keeps working.
    assert_eq!(c.ping(b"ok").unwrap(), b"ok");
    stop(handle);
}

#[test]
fn malformed_payload_is_an_error_reply_not_a_disconnect() {
    let (_dir, handle) = start();
    let mut c = Client::connect(handle.local_addr()).unwrap();

    // Truncated payloads for ops that want more.
    for op in [Opcode::LoOpen, Opcode::LoRead, Opcode::LoSeek, Opcode::InvRead] {
        let (status, _) = c.call_raw(op as u8, &[0x01]).unwrap();
        assert_eq!(
            ErrorCode::from_u8(status),
            Some(ErrorCode::Malformed),
            "{op:?} must reject a truncated payload"
        );
    }
    // Trailing garbage is malformed too.
    let mut p = Vec::new();
    pglo_server::proto::put_u32(&mut p, 1);
    p.extend_from_slice(b"extra");
    let (status, _) = c.call_raw(Opcode::LoTell as u8, &p).unwrap();
    assert_eq!(ErrorCode::from_u8(status), Some(ErrorCode::Malformed));

    // Bad enum values inside well-formed frames.
    let mut p = Vec::new();
    pglo_server::proto::put_u64(&mut p, 1);
    p.push(9); // bad open mode
    pglo_server::proto::put_u32(&mut p, 0);
    let (status, _) = c.call_raw(Opcode::LoOpen as u8, &p).unwrap();
    assert_eq!(ErrorCode::from_u8(status), Some(ErrorCode::Malformed));

    assert_eq!(c.ping(b"ok").unwrap(), b"ok");
    stop(handle);
}

#[test]
fn oversized_length_prefix_closes_only_that_connection() {
    let (_dir, handle) = start();
    let mut s = raw_connect(&handle);
    // Claim a 4 GiB frame. The server must refuse to allocate, answer
    // with a malformed-frame error, and close.
    s.write_all(&u32::MAX.to_le_bytes()).unwrap();
    s.flush().unwrap();
    // The refusal carries tag 0: server-initiated.
    let (tag, status, _) = raw_reply(&mut s);
    assert_eq!(tag, 0);
    assert_eq!(ErrorCode::from_u8(status), Some(ErrorCode::Malformed));
    // Connection is closed afterwards.
    let mut buf = [0u8; 1];
    assert_eq!(s.read(&mut buf).unwrap_or(0), 0);

    assert_still_serving(&handle);
    stop(handle);
}

#[test]
fn zero_length_frame_closes_only_that_connection() {
    let (_dir, handle) = start();
    let mut s = raw_connect(&handle);
    s.write_all(&0u32.to_le_bytes()).unwrap();
    s.flush().unwrap();
    let (tag, status, _) = raw_reply(&mut s);
    assert_eq!(tag, 0);
    assert_eq!(ErrorCode::from_u8(status), Some(ErrorCode::Malformed));
    assert_still_serving(&handle);
    stop(handle);
}

#[test]
fn truncated_frame_then_disconnect_leaves_server_serving() {
    let (_dir, handle) = start();
    let s = raw_connect(&handle);
    // Declare 100 bytes, send 3, vanish.
    let mut s = s;
    s.write_all(&100u32.to_le_bytes()).unwrap();
    s.write_all(&[Opcode::LoWrite as u8, 0xAB, 0xCD]).unwrap();
    s.flush().unwrap();
    drop(s);

    assert_still_serving(&handle);
    stop(handle);
}

#[test]
fn bad_magic_is_rejected() {
    let (_dir, handle) = start();
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();
    s.write_all(b"HTTP/1.1 never mind\r\n").unwrap();
    s.flush().unwrap();
    // Server closes without serving.
    let mut buf = [0u8; 64];
    let n = s.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "non-lobd clients get no bytes back");
    assert_still_serving(&handle);
    stop(handle);
}

/// There is one protocol version. Every other one — the retired 1, 2 and
/// 3 as much as a future 5 — is told which version the server speaks and
/// refused with a tag-0 `BadVersion` frame, and the server keeps serving.
#[test]
fn every_other_version_is_refused_with_bad_version() {
    let (_dir, handle) = start();
    for version in [1, 2, 3, 5] {
        let mut s = TcpStream::connect(handle.local_addr()).unwrap();
        s.write_all(MAGIC).unwrap();
        s.write_all(&[version]).unwrap();
        s.flush().unwrap();
        let mut hello = [0u8; 5];
        s.read_exact(&mut hello).unwrap();
        assert_eq!(&hello[..4], MAGIC, "server identifies itself before refusing v{version}");
        assert_eq!(hello[4], VERSION, "refusal of v{version} names the version spoken");
        let (tag, status, msg) = raw_reply(&mut s);
        assert_eq!(tag, 0);
        assert_eq!(ErrorCode::from_u8(status), Some(ErrorCode::BadVersion));
        assert!(String::from_utf8_lossy(&msg).contains(&version.to_string()));
        // And a close: nothing follows the refusal.
        assert_eq!(s.read(&mut [0u8; 1]).unwrap_or(0), 0);
        assert_still_serving(&handle);
    }
    stop(handle);
}

// Deliberately leaves a raw descriptor open while the connection is torn
// out from under it — `LoHandle`'s drop would close the fd first, which is
// exactly what this test must not do, so it opens through a `Pipeline`.
#[test]
fn mid_write_disconnect_aborts_orphaned_txn() {
    let (_dir, handle) = start();
    let service = handle.service().clone();
    let (commits_before, aborts_before) = service.env().txns().counters();

    let mut c = Client::connect(handle.local_addr()).unwrap();
    c.begin().unwrap();
    let id = c.lo_create(&WireSpec::fchunk()).unwrap();
    {
        let mut pipe = c.pipeline();
        let fd = pipe.lo_open(id, true, 0).unwrap();
        let fd = pipe.redeem(fd).unwrap();
        let wrote = pipe.lo_write(fd, b"never to be committed").unwrap();
        pipe.redeem(wrote).unwrap();
    }
    assert_eq!(service.env().txns().active_count(), 1);

    // Vanish mid-transaction — and mid-frame, for good measure: write a
    // frame header promising more bytes than we send.
    let mut s = c.into_inner();
    s.write_all(&500u32.to_le_bytes()).unwrap();
    s.write_all(&[Opcode::LoWrite as u8]).unwrap();
    s.flush().unwrap();
    drop(s);

    // The server must notice, abort the orphan, and free the session.
    wait_for(|| service.env().txns().active_count() == 0, "orphan txn abort");
    let (commits_after, aborts_after) = service.env().txns().counters();
    assert_eq!(commits_after, commits_before, "orphan must not commit");
    assert!(aborts_after > aborts_before, "orphan must abort");

    // And the uncommitted write is invisible to everyone else.
    let mut c2 = Client::connect(handle.local_addr()).unwrap();
    c2.begin().unwrap();
    let mut lo2 = c2.lo(id, false, 0).unwrap();
    assert_eq!(lo2.size().unwrap(), 0, "orphaned write must be rolled back");
    lo2.close().unwrap();
    c2.commit().unwrap();

    assert_still_serving(&handle);
    stop(handle);
}

#[test]
fn overlimit_io_request_is_rejected() {
    let (_dir, handle) = start();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    c.begin().unwrap();
    let id = c.lo_create(&WireSpec::fchunk()).unwrap();
    let mut lo = c.lo(id, true, 0).unwrap();
    // Ask for more than MAX_IO in one read.
    let err = lo.read(pglo_server::MAX_IO + 1).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::TooLarge));
    // Connection (and txn) still fine.
    lo.write(b"still works").unwrap();
    lo.close().unwrap();
    c.commit().unwrap();
    stop(handle);
}

/// A slow-loris client dribbles its bytes one at a time. The reactor's
/// incremental decode must ride through every partial state — torn
/// handshake, torn length prefix, torn body — and still serve the frame,
/// without stalling anyone else.
#[test]
fn slow_loris_byte_at_a_time_still_gets_served() {
    let (_dir, handle) = start();
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();

    let mut bytes = Vec::new();
    bytes.extend_from_slice(MAGIC);
    bytes.push(VERSION);
    // One ping frame: len | tag | code | payload.
    let payload = b"drip";
    bytes.extend_from_slice(&(5 + payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&0xD1D1u32.to_le_bytes());
    bytes.push(Opcode::Ping as u8);
    bytes.extend_from_slice(payload);

    // Meanwhile a healthy client must not be blocked by the dribbler.
    let mut healthy = Client::connect(handle.local_addr()).unwrap();

    for b in bytes {
        s.write_all(&[b]).unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(healthy.ping(b"brisk").unwrap(), b"brisk");

    let mut hello = [0u8; 5];
    s.read_exact(&mut hello).unwrap();
    assert_eq!(&hello[..4], MAGIC);
    assert_eq!(hello[4], VERSION);
    let (tag, status, echoed) = raw_reply(&mut s);
    assert_eq!(tag, 0xD1D1);
    assert_eq!(status, 0);
    assert_eq!(echoed, payload);

    assert_still_serving(&handle);
    stop(handle);
}

/// A client vanishes with a pipeline window full of unredeemed writes.
/// The in-flight frame finishes server-side, queued frames are dropped
/// with the connection, and the orphaned transaction aborts.
#[test]
fn mid_pipeline_disconnect_aborts_orphaned_txn() {
    let (_dir, handle) = start();
    let service = handle.service().clone();

    let mut c = Client::connect(handle.local_addr()).unwrap();
    c.begin().unwrap();
    let id = c.lo_create(&WireSpec::fchunk()).unwrap();
    {
        let mut pipe = c.pipeline_with_window(8);
        let fd_ticket = pipe.lo_open(id, true, 0).unwrap();
        let fd = pipe.redeem(fd_ticket).unwrap();
        let mut tickets = Vec::new();
        for k in 0..6u64 {
            tickets.push(pipe.lo_write_at(fd, k * 16, b"never committed!").unwrap());
        }
        // Vanish without redeeming: forget the guard so its Drop does
        // not drain the tags, then sever the socket underneath it.
        std::mem::forget(pipe);
    }
    assert!(service.env().txns().active_count() >= 1);
    drop(c);

    wait_for(|| service.env().txns().active_count() == 0, "orphan txn abort");

    // The orphan's writes are invisible.
    let mut c2 = Client::connect(handle.local_addr()).unwrap();
    c2.begin().unwrap();
    let mut lo2 = c2.lo(id, false, 0).unwrap();
    assert_eq!(lo2.size().unwrap(), 0, "pipelined orphan writes must roll back");
    lo2.close().unwrap();
    c2.commit().unwrap();

    assert_still_serving(&handle);
    stop(handle);
}

#[test]
fn frame_flood_of_garbage_never_kills_the_daemon() {
    let (_dir, handle) = start();
    // A storm of connections, each sending a differently-broken stream.
    for i in 0..20u8 {
        let mut s = TcpStream::connect(handle.local_addr()).unwrap();
        let junk: Vec<u8> =
            (0..((i as usize + 1) * 7)).map(|j| (i ^ (j as u8)).wrapping_mul(31)).collect();
        let _ = s.write_all(&junk);
        let _ = s.flush();
        drop(s);
    }
    // Well-formed handshakes followed by garbage frames.
    for i in 0..10u8 {
        let mut s = raw_connect(&handle);
        let _ = s.write_all(&(i as u32 + 2).to_le_bytes());
        let _ = s.write_all(&[0xFF; 1]);
        let _ = s.flush();
        drop(s);
    }
    assert_still_serving(&handle);
    stop(handle);
}
