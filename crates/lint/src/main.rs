//! `pglo-lint` command line: check the workspace, print the findings,
//! exit nonzero on any. It takes no arguments; run it from anywhere
//! inside the repo:
//!
//! ```text
//! cargo run -p pglo-lint --offline
//! ```
//!
//! Output is one finding per line, `path:line: R# message`. The rules
//! and the driver live in the library (`pglo_lint::check_workspace`).

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

use pglo_lint::check_workspace;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("pglo-lint: unexpected argument {arg:?} (it takes none)");
        return ExitCode::FAILURE;
    }
    let report = match workspace_root().and_then(|root| check_workspace(&root, &[])) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("pglo-lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (n, files) = (report.findings.len(), report.files);
    for f in &report.findings {
        println!("{f}");
    }
    if n > 0 {
        eprintln!("pglo-lint: {n} finding(s) across {files} files checked");
        return ExitCode::FAILURE;
    }
    println!("pglo-lint: workspace clean ({files} files checked)");
    ExitCode::SUCCESS
}

/// Walk up from the current directory to the checkout root (the
/// directory holding both `crates/` and `shims/`).
fn workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("getcwd: {e}"))?;
    loop {
        if dir.join("crates").is_dir() && dir.join("shims").is_dir() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err("not inside the workspace (no crates/ + shims/ ancestor)".to_string());
        }
    }
}
