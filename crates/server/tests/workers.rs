//! The worker model's own promises: a frame that blocks delays the
//! sessions of its worker and nobody else's, and a shutdown that arrives
//! while a frame executes waits for it.
//!
//! The blocking frame is an `lo_import` from a FIFO: the server's `open`
//! returns once the test opens the other end, and the frame then lasts
//! exactly until the test closes it — no timing guesswork.

use pglo_server::proto::{read_frame, MAGIC, VERSION};
use pglo_server::{spawn, Client, ErrorCode, LobdService, ServerConfig, ServerHandle, WireSpec};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The soak's budget for a prompt ping.
const PROMPT: Duration = Duration::from_millis(100);

/// A server with two workers: connections opened one after another land
/// on worker 0, worker 1, worker 0, ...
fn start() -> (tempfile::TempDir, ServerHandle) {
    let dir = tempfile::tempdir().unwrap();
    let service = LobdService::open(dir.path()).unwrap();
    let handle = spawn(service, ServerConfig::default().executor_threads(2)).unwrap();
    (dir, handle)
}

/// Start `lo_import` of a fresh FIFO on a new session and return once the
/// frame is executing: the writing end (the frame ends when it closes)
/// and the thread waiting for the reply.
fn blocked_import(dir: &Path, addr: SocketAddr) -> (File, JoinHandle<(Client<TcpStream>, u64)>) {
    let fifo = dir.join("feed.fifo");
    let made = std::process::Command::new("mkfifo").arg(&fifo).status().unwrap();
    assert!(made.success(), "mkfifo");
    let mut busy = Client::connect(addr).unwrap();
    busy.begin().unwrap();
    let path = fifo.to_str().unwrap().to_string();
    let importer = std::thread::spawn(move || {
        let id = busy.lo_import(&WireSpec::fchunk(), &path).unwrap();
        (busy, id)
    });
    // Opening a FIFO for writing returns when a reader has it open: the
    // worker is inside `import_file`, waiting for bytes.
    let feed = OpenOptions::new().write(true).open(&fifo).unwrap();
    (feed, importer)
}

#[test]
fn a_blocked_frame_delays_its_own_worker_only() {
    let (dir, handle) = start();
    let addr = handle.local_addr();
    let (mut feed, importer) = blocked_import(dir.path(), addr);
    let mut brisk = Client::connect(addr).unwrap();
    // The third connection is dealt to the busy worker: not even its
    // hello is answered until the frame ends.
    let late = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        assert_eq!(c.ping(b"late").unwrap(), b"late");
        Instant::now()
    });

    let mut pings: Vec<Duration> = (0..200)
        .map(|_| {
            let start = Instant::now();
            assert_eq!(brisk.ping(b"brisk").unwrap(), b"brisk");
            start.elapsed()
        })
        .collect();
    pings.sort();
    assert!(pings[197] <= PROMPT, "ping p99 {:?} beside a blocked worker", pings[197]);
    assert!(!importer.is_finished() && !late.is_finished(), "the frame is still executing");

    // A multi-MiB import, and the end of the frame.
    let data: Vec<u8> = (0..3 << 20).map(|i| (i % 241) as u8).collect();
    feed.write_all(&data).unwrap();
    drop(feed);
    let (mut busy, id) = importer.join().unwrap();
    let frame_ended = Instant::now();
    let waited = late.join().unwrap().saturating_duration_since(frame_ended);
    assert!(waited <= PROMPT, "served {waited:?} after the frame ended");

    let mut lo = busy.lo(id, false, 0).unwrap();
    assert!(lo.read_all(data.len() as u64).unwrap() == data);
    lo.close().unwrap();
    busy.commit().unwrap();
    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_waits_for_the_executing_frame() {
    let (dir, handle) = start();
    let addr = handle.local_addr();
    let (mut feed, importer) = blocked_import(dir.path(), addr);
    // An idle session on the other worker, raw so the tag-0 notice shows.
    let mut idle = TcpStream::connect(addr).unwrap();
    idle.write_all(MAGIC).unwrap();
    idle.write_all(&[VERSION]).unwrap();
    idle.read_exact(&mut [0u8; 5]).unwrap();

    handle.shutdown();
    let (tag, status, _) = read_frame(&mut idle, &mut Vec::new()).unwrap();
    assert_eq!((tag, ErrorCode::from_u8(status)), (0, Some(ErrorCode::ShuttingDown)));

    // The frame that was executing runs to its end and is answered.
    feed.write_all(&vec![0x5A; 1 << 20]).unwrap();
    drop(feed);
    let (_busy, id) = importer.join().unwrap();
    assert!(id > 0);
    let frame_ended = Instant::now();
    let service = handle.join();
    assert!(frame_ended.elapsed() < Duration::from_secs(2), "join outlasted the grace");
    assert_eq!(service.session_count(), 0);
}
