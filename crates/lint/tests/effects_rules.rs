//! Effect-inference self-tests: R12/R13 fixtures (a rule that stops
//! firing fails here), and live injection tests that weaken one real
//! call site in-memory and assert the rule catches it (and that the
//! unmodified workspace is clean modulo its reasoned allows).

use pglo_lint::{
    check_guard_flow, infer_effects, load_workspace, Allows, CallGraph, Finding, SourceFile,
    WorkspaceIndex,
};
use std::path::{Path, PathBuf};

const R12_POS: &str = include_str!("fixtures/r12_pos.rs");
const R12_HELPERS: &str = include_str!("fixtures/r12_helpers.rs");
const R12_NEG: &str = include_str!("fixtures/r12_neg.rs");
const R13_DEFS_WAL: &str = include_str!("fixtures/r13_defs_wal.rs");
const R13_DEFS_SMGR: &str = include_str!("fixtures/r13_defs_smgr.rs");
const R13_POS: &str = include_str!("fixtures/r13_pos.rs");
const R13_NEG: &str = include_str!("fixtures/r13_neg.rs");

// ---------------------------------------------------------------------------
// Fixture tests
// ---------------------------------------------------------------------------

#[test]
fn r12_fixture_two_hop_block_fires() {
    let reactor = SourceFile::new("crates/server/src/reactor.rs", "server", R12_POS);
    let helpers = SourceFile::new("crates/server/src/helpers.rs", "server", R12_HELPERS);
    let r12 = infer_effects(&CallGraph::build([&reactor, &helpers])).check_r12();
    assert_eq!(r12.len(), 1, "{r12:?}");
    assert_eq!(r12[0].rule, "R12");
    assert!(r12[0].message.contains("dispatch"), "{}", r12[0].message);
    assert!(
        r12[0].path.to_string_lossy().ends_with("reactor.rs"),
        "R12 findings must anchor in the reactor file: {:?}",
        r12[0].path
    );
}

#[test]
fn r12_fixture_deal_and_try_paths_quiet() {
    let reactor = SourceFile::new("crates/server/src/reactor.rs", "server", R12_NEG);
    let r12 = infer_effects(&CallGraph::build([&reactor])).check_r12();
    assert!(r12.is_empty(), "{r12:?}");
}

/// The R13 definitions fixtures plus `buf` posing as the buffer pool.
fn r13_fixture_files(buf: &str) -> [SourceFile; 3] {
    [
        SourceFile::new("crates/wal/src/lib.rs", "wal", R13_DEFS_WAL),
        SourceFile::new("crates/smgr/src/disk.rs", "smgr", R13_DEFS_SMGR),
        SourceFile::new("crates/buffer/src/lib.rs", "buffer", buf),
    ]
}

#[test]
fn r13_fixture_write_before_append_and_bare_rename_fire() {
    let files = r13_fixture_files(R13_POS);
    let r13 = infer_effects(&CallGraph::build(&files)).check_r13();
    assert_eq!(r13.len(), 3, "{r13:?}");
    assert!(
        r13.iter()
            .any(|f| f.message.contains("write_back_wrong") && f.message.contains("WAL append")),
        "{r13:?}"
    );
    assert!(
        r13.iter()
            .any(|f| f.message.contains("flush_after_write_wrong")
                && f.message.contains("WAL flush")),
        "{r13:?}"
    );
    assert!(
        r13.iter().any(|f| f.message.contains("persist_wrong") && f.message.contains("fs::rename")),
        "{r13:?}"
    );
}

#[test]
fn r13_fixture_correct_order_quiet() {
    let files = r13_fixture_files(R13_NEG);
    let r13 = infer_effects(&CallGraph::build(&files)).check_r13();
    assert!(r13.is_empty(), "{r13:?}");
}

// ---------------------------------------------------------------------------
// Live injection tests against the real workspace
// ---------------------------------------------------------------------------

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

/// The files the driver feeds the flow and effect passes — the engine
/// crates' library code — with `overrides` substituting mutated sources
/// by workspace-relative path.
fn load_engine(root: &Path, overrides: &[(&str, &str)]) -> Vec<SourceFile> {
    let files = load_workspace(root, overrides).unwrap();
    files.into_iter().filter(SourceFile::is_engine).collect()
}

/// R12 or R13 findings over `files`, minus those a reasoned
/// `// LINT: allow(<rule>, ...)` excuses — the driver's matching.
fn effect_findings(files: &[SourceFile], rule: &str) -> Vec<Finding> {
    let graph = CallGraph::build(files);
    let idx = infer_effects(&graph);
    let mut found = if rule == "R12" { idx.check_r12() } else { idx.check_r13() };
    let mut allows = Allows::of(files);
    found.retain(|f| !allows.excuses(f));
    found
}

#[test]
fn r12_live_injection_weakened_inbox_lock_fires() {
    let root = workspace_root();
    let rel = "crates/server/src/reactor.rs";
    let orig = std::fs::read_to_string(root.join(rel)).unwrap();

    let baseline = effect_findings(&load_engine(&root, &[]), "R12");
    assert!(baseline.is_empty(), "unmodified workspace must be R12-clean: {baseline:?}");

    // Weaken one real call site: the acceptor parks on a worker's inbox
    // lock instead of trying the next one.
    let site = "self.shared.inboxes[target].try_lock()";
    assert!(orig.contains(site), "injection site moved; update this test");
    let weakened = orig.replace(site, "Some(self.shared.inboxes[target].lock())");
    let mutated = effect_findings(&load_engine(&root, &[(rel, &weakened)]), "R12");
    assert!(
        mutated.iter().any(|f| f.rule == "R12"
            && f.path.to_string_lossy().ends_with("reactor.rs")
            && f.message.contains("deal")),
        "weakened deal must fire R12: {mutated:?}"
    );
}

#[test]
fn r13_live_injection_dropped_dir_fsync_fires() {
    let root = workspace_root();
    let rel = "crates/wal/src/lib.rs";
    let orig = std::fs::read_to_string(root.join(rel)).unwrap();

    let baseline = effect_findings(&load_engine(&root, &[]), "R13");
    assert!(baseline.is_empty(), "unmodified workspace must be R13-clean: {baseline:?}");

    // Weaken one real call site: WAL segment recycling renames without
    // the directory fsync that makes the rename durable.
    let site = "self.sync_dir()?;";
    assert!(orig.contains(site), "injection site moved; update this test");
    let weakened = orig.replace(site, "");
    let mutated = effect_findings(&load_engine(&root, &[(rel, &weakened)]), "R13");
    assert!(
        mutated.iter().any(|f| f.rule == "R13"
            && f.path.to_string_lossy().ends_with("wal/src/lib.rs")
            && f.message.contains("fs::rename")),
        "rename without dir fsync must fire R13: {mutated:?}"
    );
}

#[test]
fn r9_live_injection_dropped_waker_poke_fires() {
    let root = workspace_root();
    let rel = "crates/server/src/reactor.rs";
    let orig = std::fs::read_to_string(root.join(rel)).unwrap();

    let files = load_engine(&root, &[]);
    let index = WorkspaceIndex::build(&CallGraph::build(&files));
    let r9 = |file: &SourceFile, idx: &WorkspaceIndex| -> Vec<Finding> {
        check_guard_flow(file, idx, true).into_iter().filter(|f| f.rule == "R9").collect()
    };
    let reactor = files.iter().find(|f| f.rel == rel).unwrap();
    let baseline = r9(reactor, &index);
    assert!(baseline.is_empty(), "unmodified reactor must be R9-clean: {baseline:?}");

    // Silently dropping the poke that follows a deal is a lost-wakeup
    // bug; R9 must refuse the `let _ =` shape.
    let site = "return soft_error(self.shared.wakers[target].wake());";
    assert!(orig.contains(site), "injection site moved; update this test");
    let weakened = orig.replace(site, "let _ = self.shared.wakers[target].wake();\n return;");
    let mutated = r9(&SourceFile::new(rel, "server", weakened), &index);
    assert!(
        mutated.iter().any(|f| f.message.contains("let _")),
        "dropped waker poke must fire R9: {mutated:?}"
    );
}
