//! Helper process for the 10k-session soak test (`tests/soak.rs`).
//!
//! A single process cannot hold 10k sockets plus the server's 10k accepted
//! ends under the container's 20k fd ceiling, so the soak test spawns
//! several of these children, each holding a slice of the sessions:
//!
//! 1. connect `--sessions` clients to `--addr` (handshake included),
//! 2. print `HELD <n>` and wait for `GO` on stdin,
//! 3. round-trip a pipelined window of `--window` pings on every session,
//!    verifying each echo,
//! 4. print `DONE` and exit 0 (any failure: message to stderr, exit 1).

// Library code: no panic sites, unranked locks or swallowed errors.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_methods,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok
    )
)]

use pglo_server::Client;
use std::io::{BufRead, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let mut addr = String::new();
    let mut sessions = 0usize;
    let mut window = 8usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = args.next();
        match (arg.as_str(), value) {
            ("--addr", Some(v)) => addr = v,
            ("--sessions", Some(v)) => sessions = v.parse().unwrap_or(0),
            ("--window", Some(v)) => window = v.parse().unwrap_or(0).max(1),
            (other, _) => return fail(&format!("bad argument: {other}")),
        }
    }
    if addr.is_empty() || sessions == 0 {
        return fail("usage: soak_client --addr HOST:PORT --sessions N [--window W]");
    }

    // Best-effort: the test asks for slices sized to fit the default
    // limit, but take more headroom when the kernel allows it.
    if let Err(e) = epoll::raise_nofile_limit(sessions as u64 * 2 + 64) {
        eprintln!("soak_client: nofile raise refused ({e}); continuing on the default limit");
    }

    let mut clients: Vec<Client<TcpStream>> = Vec::with_capacity(sessions);
    while clients.len() < sessions {
        match Client::connect(&addr) {
            Ok(c) => clients.push(c),
            // Transient accept-queue overflow while thousands of peers
            // connect at once: back off and retry.
            Err(e) => {
                std::thread::sleep(Duration::from_millis(20));
                if let Err(e2) = Client::connect(&addr).map(|c| clients.push(c)) {
                    return fail(&format!(
                        "connect {}/{sessions} failed twice: {e}; then {e2}",
                        clients.len()
                    ));
                }
            }
        }
    }

    println!("HELD {}", clients.len());
    if std::io::stdout().flush().is_err() {
        return fail("parent hung up before GO");
    }

    let mut line = String::new();
    if std::io::stdin().lock().read_line(&mut line).is_err() || line.trim() != "GO" {
        return fail("expected GO on stdin");
    }

    for (i, client) in clients.iter_mut().enumerate() {
        if let Err(e) = round_trip(client, window, i) {
            return fail(&format!("session {i}: {e}"));
        }
    }

    println!("DONE");
    if std::io::stdout().flush().is_err() {
        return fail("parent hung up before DONE was read");
    }
    ExitCode::SUCCESS
}

/// One pipelined window of pings on a session, echoes verified.
fn round_trip(
    client: &mut Client<TcpStream>,
    window: usize,
    seed: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut pipe = client.pipeline_with_window(window);
    let mut tickets = Vec::with_capacity(window);
    for k in 0..window {
        let msg = format!("soak-{seed}-{k}").into_bytes();
        tickets.push((pipe.ping(&msg)?, msg));
    }
    for (ticket, expect) in tickets {
        let echo = pipe.redeem(ticket)?;
        if echo != expect {
            return Err(format!("echo mismatch: {echo:?} != {expect:?}").into());
        }
    }
    Ok(())
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("soak_client: {msg}");
    ExitCode::FAILURE
}
