//! Hostile-input and failure-path tests: malformed frames, lying length
//! prefixes, unknown opcodes, abrupt disconnects. The invariant under
//! test: nothing a client sends can kill the daemon, and a connection that
//! dies mid-transaction leaves that transaction aborted.

use pglo_server::proto::{self, MAGIC, VERSION};
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
fn retired_metrics_text_opcode_is_unknown() {
    // 0x08 is no opcode: a text exposition is `obs::render_text` of
    // `Client::metrics`, rendered by the caller.
    let (_dir, handle) = start();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    assert_eq!(Opcode::from_u8(0x08), None);
    let (status, msg) = c.call_raw(0x08, &[]).unwrap();
    assert_eq!(ErrorCode::from_u8(status), Some(ErrorCode::UnknownOp));
    assert!(!msg.is_empty());
    // The session keeps serving, the metrics op included.
    assert_eq!(c.ping(b"ok").unwrap(), b"ok");
    let entries = c.metrics().unwrap();
    assert!(entries.iter().any(|e| e.name == "server.op.ping.count"));
    stop(handle);
}

#[test]
fn malformed_payload_is_an_error_reply_not_a_disconnect() {
    let (_dir, handle) = start();
    let mut c = Client::connect(handle.local_addr()).unwrap();

    // Every opcode reaches its own handler: a one-byte payload gets OK or
    // a handler's error, never `UnknownOp` (a wildcard dispatch arm would
    // answer that). `Shutdown` goes last; it refuses the payload and the
    // session keeps serving.
    let ops = Opcode::ALL.into_iter().filter(|op| *op != Opcode::Shutdown);
    for op in ops.chain([Opcode::Shutdown]) {
        let (status, reply) = c.call_raw(op as u8, &[0x01]).unwrap();
        assert_ne!(
            ErrorCode::from_u8(status),
            Some(ErrorCode::UnknownOp),
            "{op:?} fell through dispatch: {}",
            String::from_utf8_lossy(&reply)
        );
    }

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

    let mut c = Client::connect(handle.local_addr()).unwrap();
    c.begin().unwrap();
    let id = c.lo_create(&WireSpec::fchunk()).unwrap();
    c.commit().unwrap();
    let (commits_before, aborts_before) = service.env().txns().counters();
    c.begin().unwrap();
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

/// A slow-loris client dribbles its bytes one at a time. The worker's
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
/// Whatever the server received of them runs, nothing commits, and the
/// orphaned transaction aborts with the connection.
#[test]
fn mid_pipeline_disconnect_aborts_orphaned_txn() {
    let (_dir, handle) = start();
    let service = handle.service().clone();

    let mut c = Client::connect(handle.local_addr()).unwrap();
    c.begin().unwrap();
    let id = c.lo_create(&WireSpec::fchunk()).unwrap();
    c.commit().unwrap();
    c.begin().unwrap();
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
        #[expect(clippy::mem_forget, reason = "a vanished client never runs the guard's Drop")]
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

/// One request frame for a raw socket.
fn frame(tag: u32, op: Opcode, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    proto::encode_frame_into(&mut out, tag, op as u8, payload);
    out
}

/// `lo_open` / `lo_read_at` / `lo_write_at` payloads.
fn open_payload(id: u64, writable: bool) -> Vec<u8> {
    let mut p = Vec::new();
    proto::put_u64(&mut p, id);
    p.push(u8::from(writable));
    proto::put_u32(&mut p, 0);
    p
}

fn read_at_payload(fd: u32, offset: u64, len: u32) -> Vec<u8> {
    let mut p = Vec::new();
    proto::put_u32(&mut p, fd);
    proto::put_u64(&mut p, offset);
    proto::put_u32(&mut p, len);
    p
}

fn write_at_payload(fd: u32, offset: u64, data: &[u8]) -> Vec<u8> {
    let mut p = Vec::new();
    proto::put_u32(&mut p, fd);
    proto::put_u64(&mut p, offset);
    proto::put_bytes(&mut p, data);
    p
}

/// A committed f-chunk object holding `data`.
fn committed_object(handle: &ServerHandle, data: &[u8]) -> u64 {
    let mut c = Client::connect(handle.local_addr()).unwrap();
    c.begin().unwrap();
    let id = c.lo_create(&WireSpec::fchunk()).unwrap();
    let mut lo = c.lo(id, true, 0).unwrap();
    lo.write_all(data).unwrap();
    lo.close().unwrap();
    c.commit().unwrap();
    id
}

/// A peer that pipelines reads and never reads the replies is a hostile
/// peer or a broken one. The server stops executing that session's frames
/// once a frame's worth of replies waits unread, instead of executing
/// them all and buffering every reply (7 KB of requests for 256 MiB), and
/// picks up where it stopped when the peer reads after all.
#[test]
fn unread_replies_pause_the_session_instead_of_growing_the_server() {
    const REQUESTS: u32 = 256;
    let (_dir, handle) = start();
    let data: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
    let id = committed_object(&handle, &data);

    let mut s = raw_connect(&handle);
    s.write_all(&frame(1, Opcode::Begin, b"")).unwrap();
    s.write_all(&frame(2, Opcode::LoOpen, &open_payload(id, false))).unwrap();
    let mut rbuf = Vec::new();
    assert_eq!(proto::read_frame(&mut s, &mut rbuf).unwrap(), (1, 0, Vec::new()));
    let (_, status, fd) = proto::read_frame(&mut s, &mut rbuf).unwrap();
    assert_eq!(status, 0);
    let fd = u32::from_le_bytes(fd.try_into().unwrap());

    let ask = read_at_payload(fd, 0, pglo_server::MAX_IO);
    let burst: Vec<u8> =
        (0..REQUESTS).flat_map(|k| frame(100 + k, Opcode::LoReadAt, &ask)).collect();
    s.write_all(&burst).unwrap();

    // Let the server run as far as it is going to: until it has executed
    // nothing more for a while. What it has executed by then is what it
    // (and the kernel's socket buffers) hold unread.
    let executed = || {
        let entries = handle.service().metrics_entries();
        entries
            .iter()
            .find(|e| e.name == "server.op.lo_read_at.count")
            .map_or(0, |e| e.value.as_u64())
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    let (mut last, mut still) = (executed(), 0);
    while still < 15 {
        assert!(Instant::now() < deadline, "server still executing: {last} reads");
        std::thread::sleep(Duration::from_millis(20));
        let now = executed();
        still = if now == last { still + 1 } else { 0 };
        last = now;
    }
    let held = last as usize * data.len();
    let limit = 4 * pglo_server::MAX_FRAME as usize;
    assert!(last > 0 && held < limit, "{last} of {REQUESTS} reads ran: {} MiB unread", held >> 20);

    // The peer reads after all: every reply, in order, byte-exact.
    for k in 0..REQUESTS {
        let (tag, status, bytes) = proto::read_frame(&mut s, &mut rbuf).unwrap();
        assert_eq!((tag, status), (100 + k, 0));
        assert!(bytes == data, "reply {k} differs");
    }
    s.write_all(&frame(7, Opcode::Ping, b"still here")).unwrap();
    assert_eq!(proto::read_frame(&mut s, &mut rbuf).unwrap(), (7, 0, b"still here".to_vec()));
    assert_still_serving(&handle);
    stop(handle);
}

/// Both transports run every frame they received whole before the peer's
/// close, then tear down: a client that sends a transaction through to
/// its `commit` in one write and closes without reading a reply has
/// committed.
#[test]
fn frames_sent_before_the_close_all_execute() {
    let (_dir, handle) = start();
    let id = committed_object(&handle, b"before");

    let mut s = raw_connect(&handle);
    let mut burst = frame(1, Opcode::Begin, b"");
    burst.extend(frame(2, Opcode::LoOpen, &open_payload(id, true)));
    // A session's first descriptor is 1.
    burst.extend(frame(3, Opcode::LoWriteAt, &write_at_payload(1, 0, b"sent, then gone")));
    let mut fd = Vec::new();
    proto::put_u32(&mut fd, 1);
    burst.extend(frame(4, Opcode::LoClose, &fd));
    burst.extend(frame(5, Opcode::Commit, b""));
    s.write_all(&burst).unwrap();
    drop(s);

    let mut c = Client::connect(handle.local_addr()).unwrap();
    wait_for(
        || {
            c.begin().unwrap();
            let mut lo = c.lo(id, false, 0).unwrap();
            let bytes = lo.read_at(0, 64).unwrap();
            lo.close().unwrap();
            c.commit().unwrap();
            bytes == b"sent, then gone"
        },
        "the commit sent right before the close",
    );
    assert_eq!(handle.service().env().txns().active_count(), 0);
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
