//! The lobd daemon entry point.
//!
//! ```text
//! lobd <data-dir> [--addr HOST:PORT] [--executors N] [--max-sessions N]
//!      [--pipeline-window N] [--dump-metrics]
//! ```
//!
//! Serves until a client sends the `shutdown` op, then drains sessions and
//! prints a final statistics snapshot. With `--dump-metrics`, the full
//! Prometheus-flavoured metrics exposition (`obs::render_text` of the
//! entries the `stats` wire op serves) is written to stdout at shutdown.

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

use pglo_server::stats::metric;
use pglo_server::{spawn, LobdService, ServerConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut data_dir = None;
    let mut dump_metrics = false;
    let mut config = ServerConfig::default().addr("127.0.0.1:5433");

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(v) => config = config.addr(v),
                None => return usage("--addr needs a value"),
            },
            "--executors" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => config = config.executor_threads(v),
                _ => return usage("--executors needs a positive integer"),
            },
            "--max-sessions" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => config = config.max_sessions(v),
                _ => return usage("--max-sessions needs a positive integer"),
            },
            "--pipeline-window" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => config = config.pipeline_window(v),
                _ => return usage("--pipeline-window needs a positive integer"),
            },
            "--dump-metrics" => dump_metrics = true,
            "--help" | "-h" => return usage(""),
            _ if data_dir.is_none() && !arg.starts_with('-') => data_dir = Some(arg),
            other => return usage(&format!("unrecognized argument: {other}")),
        }
    }
    let Some(data_dir) = data_dir else {
        return usage("missing <data-dir>");
    };

    let service = match LobdService::open(&data_dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lobd: cannot open database at {data_dir}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let handle = match spawn(service, config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("lobd: cannot bind listener: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("lobd: serving {data_dir} on {}", handle.local_addr());

    // The acceptor and workers run until a client requests shutdown.
    let service = handle.join();

    let entries = service.metrics_entries();
    let requests: u64 = entries
        .iter()
        .filter(|e| e.name.starts_with("server.op.") && e.name.ends_with(".count"))
        .map(|e| e.value.as_u64())
        .sum();
    eprintln!(
        "lobd: shut down after {requests} requests ({} commits, {} aborts, pool hit rate {:.1}%)",
        metric(&entries, "txn.commits").map_or(0, |v| v.as_u64()),
        metric(&entries, "txn.aborts").map_or(0, |v| v.as_u64()),
        metric(&entries, "pool.hit_rate").map_or(0.0, |v| v.as_f64()) * 100.0,
    );
    if dump_metrics {
        print!("{}", obs::render_text(&entries));
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("lobd: {err}");
    }
    eprintln!(
        "usage: lobd <data-dir> [--addr HOST:PORT] [--executors N] [--max-sessions N] \
         [--pipeline-window N] [--dump-metrics]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
