//! `pglo-lint` command line: check the workspace, print the findings,
//! exit nonzero on any. Run from anywhere inside the repo:
//!
//! ```text
//! cargo run -p pglo-lint --offline [-- --json] [-- --write-panic-reach]
//!                                  [-- --write-effects]
//! ```
//!
//! Output is one finding per line, `path:line: R# message`; `--json`
//! emits the same findings as a JSON array for tooling. The rules and
//! the driver live in the library (`pglo_lint::check_workspace`).

use pglo_lint::{check_workspace, Write};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut write = Write::default();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--write-panic-reach" => write.panic_reach = true,
            "--write-effects" => write.effects = true,
            other => {
                eprintln!(
                    "pglo-lint: unknown flag {other:?} (known: --json, --write-panic-reach, \
                     --write-effects)"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let report = match workspace_root().and_then(|root| check_workspace(&root, write)) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("pglo-lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (n, files) = (report.findings.len(), report.files);
    if json {
        let body: Vec<String> = report.findings.iter().map(|f| f.to_json()).collect();
        println!("[{}]", body.join(","));
    } else {
        for f in &report.findings {
            println!("{f}");
        }
    }
    if n > 0 {
        eprintln!("pglo-lint: {n} finding(s) across {files} files checked");
        return ExitCode::FAILURE;
    }
    if !json {
        println!("pglo-lint: workspace clean ({files} files checked)");
    }
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
