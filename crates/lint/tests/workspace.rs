//! The real checkout must lint clean, so tier-1 `cargo test` covers what
//! the CI `lint` job covers: zero findings from any rule and every
//! `budget.txt` row exact.

use pglo_lint::check_workspace;
use std::path::Path;

#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap();
    let report = check_workspace(&root, &[]).expect("lint ran");
    let lines: Vec<String> = report.findings.iter().map(ToString::to_string).collect();
    assert!(lines.is_empty(), "pglo-lint findings:\n{}", lines.join("\n"));
    assert!(report.files > 100, "walked only {} files", report.files);
}
