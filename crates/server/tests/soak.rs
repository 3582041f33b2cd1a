//! The 10k-session soak: hold ten thousand concurrent TCP sessions
//! against one server, then push a pipelined window through every one of
//! them. Run explicitly (CI does):
//!
//! ```sh
//! cargo test --release -p pglo-server --test soak -- --ignored
//! ```
//!
//! The sessions are held by child `soak_client` processes
//! (`src/bin/soak_client.rs`), not in-process: the server side of 10k
//! sockets already spends half this container's 20k-fd ceiling, so the
//! client halves must live in other fd tables. Each child reports
//! `HELD <n>`, the test checks the server agrees it is carrying 10k+
//! sessions and still answers a ping promptly under that idle load,
//! releases the children with `GO`, and expects `DONE`.

use pglo_server::{spawn, Client, LobdService, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const CHILDREN: usize = 4;
const SESSIONS_PER_CHILD: usize = 2500;
/// Pings timed while every session is held idle, and the ceiling on
/// their 99th percentile: a worker that degrades under idle-connection
/// load (readiness-set scanning, accept starvation) blows it long before
/// it breaks a functional check. Generous for a shared runner; healthy
/// runs sit well under 10 ms.
const IDLE_LOAD_PINGS: usize = 200;
const PING_P99_CEILING: Duration = Duration::from_millis(100);

fn read_line(out: &mut BufReader<ChildStdout>, what: &str) -> String {
    let mut line = String::new();
    out.read_line(&mut line).unwrap_or_else(|e| panic!("reading {what}: {e}"));
    assert!(!line.is_empty(), "child closed stdout before {what}");
    line.trim().to_string()
}

#[test]
#[ignore = "10k sockets; run explicitly: cargo test --release --test soak -- --ignored"]
fn ten_thousand_concurrent_sessions_with_pipelined_round_trips() {
    let _ = epoll::raise_nofile_limit(20_000);

    let dir = tempfile::tempdir().unwrap();
    let service = LobdService::open(dir.path()).unwrap();
    let config =
        ServerConfig::default().executor_threads(8).max_sessions(12_000).pipeline_window(16);
    let handle = spawn(service, config).unwrap();
    let addr = handle.local_addr().to_string();

    let mut children: Vec<(Child, BufReader<ChildStdout>)> = (0..CHILDREN)
        .map(|i| {
            let mut child = Command::new(env!("CARGO_BIN_EXE_soak_client"))
                .args(["--addr", &addr])
                .args(["--sessions", &SESSIONS_PER_CHILD.to_string()])
                .args(["--window", "8"])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .unwrap_or_else(|e| panic!("spawning soak child {i}: {e}"));
            let stdout = BufReader::new(child.stdout.take().unwrap());
            (child, stdout)
        })
        .collect();

    // Every child holds its full slice before anyone proceeds.
    for (i, (_, out)) in children.iter_mut().enumerate() {
        let line = read_line(out, "HELD");
        assert_eq!(
            line,
            format!("HELD {SESSIONS_PER_CHILD}"),
            "child {i} failed to hold its sessions"
        );
    }

    // The server agrees: 10k live sessions at once.
    let live = handle.service().session_count();
    assert!(
        live >= (CHILDREN * SESSIONS_PER_CHILD) as u64,
        "server sees {live} concurrent sessions, wanted {}",
        CHILDREN * SESSIONS_PER_CHILD
    );

    // One more client, with all 10k idle: its pings must stay prompt.
    let mut probe = Client::connect(handle.local_addr()).unwrap();
    let mut pings: Vec<Duration> = (0..IDLE_LOAD_PINGS)
        .map(|_| {
            let start = Instant::now();
            assert_eq!(probe.ping(b"idle-load probe").unwrap(), b"idle-load probe");
            start.elapsed()
        })
        .collect();
    drop(probe);
    pings.sort();
    let p99 = pings[IDLE_LOAD_PINGS * 99 / 100 - 1];
    assert!(p99 <= PING_P99_CEILING, "ping p99 {p99:?} under {live} idle sessions");

    // Release: each child round-trips a pipelined window on every session.
    for (child, _) in children.iter_mut() {
        let stdin = child.stdin.as_mut().unwrap();
        stdin.write_all(b"GO\n").unwrap();
        stdin.flush().unwrap();
    }
    for (i, (child, out)) in children.iter_mut().enumerate() {
        assert_eq!(read_line(out, "DONE"), "DONE", "child {i} failed its round trips");
        let status = child.wait().unwrap();
        assert!(status.success(), "child {i} exited with {status}");
    }

    handle.shutdown();
    let service = handle.join();
    assert_eq!(service.session_count(), 0, "all sessions must be torn down");
}
