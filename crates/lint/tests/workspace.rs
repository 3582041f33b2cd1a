//! The real checkout must lint clean, so tier-1 `cargo test` covers what
//! the CI `lint` job covers: zero findings from any rule, every
//! `budget.txt` row exact, and `panic_reach.txt` / `effects.txt` equal
//! to what the analysis computes (drift either way is a `PR` / `EF`
//! finding).

use pglo_lint::{check_workspace, Write};
use std::path::Path;

#[test]
fn workspace_is_clean_and_committed_tables_are_current() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap();
    let report = check_workspace(&root, Write::default()).expect("lint ran");
    let lines: Vec<String> = report.findings.iter().map(ToString::to_string).collect();
    let drift = report.findings.iter().filter(|f| f.rule == "PR" || f.rule == "EF").count();
    assert_eq!(drift, 0, "committed tables are stale; rerun with --write-*:\n{}", lines.join("\n"));
    assert!(lines.is_empty(), "pglo-lint findings:\n{}", lines.join("\n"));
    assert!(report.files > 100, "walked only {} files", report.files);
}
