//! Fixture-based self-tests for the guard-flow rule (R7) and the
//! dead-API rule (R14): each gets a positive fixture (must fire) and a
//! negative fixture (must stay quiet). The fixture
//! files live under `tests/fixtures/` — the workspace walker skips that
//! directory, because they violate the rules on purpose.

use pglo_lint::{
    check_dead_api, check_guard_flow, collect_allows, Allows, CallGraph, Finding, SourceFile,
    WorkspaceIndex,
};
use std::path::Path;

const R7_POS: &str = include_str!("fixtures/r7_pos.rs");
const R7_NEG: &str = include_str!("fixtures/r7_neg.rs");
const R14_API: &str = include_str!("fixtures/r14/api.rs");
const R14_LIB_USER: &str = include_str!("fixtures/r14/lib_user.rs");
const R14_BIN: &str = include_str!("fixtures/r14/bin.rs");
const R14_BENCH: &str = include_str!("fixtures/r14/bench.rs");
const R14_NOT_USERS: &str = include_str!("fixtures/r14/not_users.rs");
const R14_MUTUAL: &str = include_str!("fixtures/r14/mutual.rs");

/// Run the guard-flow rule on one fixture as crate `x`, with allow
/// directives applied by the driver's own matcher.
fn flow(src: &str) -> Vec<Finding> {
    let file = SourceFile::new("fix.rs", "x", src);
    let idx = WorkspaceIndex::build(&CallGraph::build([&file]));
    let mut findings = check_guard_flow(&file, &idx);
    let mut allows = Allows::of([&file]);
    findings.retain(|f| !allows.excuses(f));
    findings
}

#[test]
fn r7_positive_fires_on_both_tiers() {
    let f = flow(R7_POS);
    let r7: Vec<_> = f.iter().filter(|x| x.rule == "R7").collect();
    assert_eq!(r7.len(), 4, "{f:?}");
    // Tier A: direct device read under a lock guard.
    assert!(r7.iter().any(|x| x.message.contains("`g`") && x.message.contains("read")), "{r7:?}");
    // Tier B: same-crate wrapper around std::fs, under a frame guard.
    assert!(
        r7.iter().any(|x| x.message.contains("`data`") && x.message.contains("spill")),
        "{r7:?}"
    );
    // A typed `let` (`...Frame>> = ...`) binds a guard like any other.
    assert!(
        r7.iter().any(|x| x.message.contains("`latch`") && x.message.contains("sync")),
        "{r7:?}"
    );
    // A `drop` inside one `if` arm does not release the guard on the
    // path that skipped the arm.
    assert!(r7.iter().any(|x| x.message.contains("`held`")), "{r7:?}");
}

#[test]
fn r7_negative_is_quiet_including_reasoned_allow() {
    let f = flow(R7_NEG);
    assert!(f.is_empty(), "{f:?}");
    // The allow is real and reasoned, so the driver would count 1.
    let allows = collect_allows(R7_NEG);
    assert_eq!(allows.len(), 1);
    assert!(!allows[0].reason.is_empty());
}

/// R14 over the fixture API, with every fixture file posing where its
/// header says: users and non-users alike go in, the rule picks.
fn dead_api() -> (SourceFile, Vec<Finding>) {
    let api = SourceFile::new("crates/heap/src/lib.rs", "heap", R14_API);
    let others = [
        SourceFile::new("crates/server/src/service.rs", "server", R14_LIB_USER),
        SourceFile::new("crates/heap/src/bin/tool.rs", "heap", R14_BIN),
        SourceFile::new("crates/bench/src/workload.rs", "bench", R14_BENCH),
        SourceFile::new("crates/heap/tests/it.rs", "heap", R14_NOT_USERS),
        SourceFile::new("examples/demo.rs", "", R14_NOT_USERS),
    ];
    let graph = CallGraph::build([&api]);
    let users = others.iter().chain([&api]).filter(|f| pglo_lint::dead::is_user(f));
    let found = check_dead_api(&graph, users);
    (api, found)
}

/// The fn names the findings report (`pub fn heap::name`).
fn names(found: &[Finding]) -> Vec<&str> {
    found.iter().filter_map(|f| f.message.split('`').nth(1)?.rsplit("::").next()).collect()
}

#[test]
fn r14_positive_fires_on_test_example_and_import_only_fns() {
    let (_, found) = dead_api();
    assert!(found.iter().all(|f| f.rule == "R14" && f.path == Path::new("crates/heap/src/lib.rs")));
    assert_eq!(names(&found), ["only_tested", "only_in_example", "never_called", "kept"]);
}

#[test]
fn r14_negative_counts_bin_bench_and_fn_path_callers() {
    let (_, found) = dead_api();
    for used in ["decode", "widen", "check", "sized", "from_bin", "from_bench", "private_unused"] {
        assert!(!names(&found).contains(&used), "{used} has a caller: {found:?}");
    }
}

/// Two dead `pub fn`s of one name, each the other's only caller, are
/// both reported; a call from a used fn still counts.
#[test]
fn r14_mutual_callers_of_one_name_are_both_dead() {
    let api = SourceFile::new("crates/heap/src/lib.rs", "heap", R14_MUTUAL);
    let user = SourceFile::new(
        "crates/server/src/service.rs",
        "server",
        "fn f(c: &heap::Chunks) { c.size(); }",
    );
    let graph = CallGraph::build([&api]);
    let found = check_dead_api(&graph, [&api, &user]);
    assert_eq!(names(&found), ["data_bytes", "data_bytes"], "{found:?}");
}

#[test]
fn r14_allowed_case_is_excused_by_a_reasoned_allow() {
    let (api, found) = dead_api();
    let mut allows = Allows::of([&api]);
    let standing: Vec<&Finding> = found.iter().filter(|f| !allows.excuses(f)).collect();
    assert_eq!(names(&found).len() - standing.len(), 1, "{standing:?}");
    assert!(standing.iter().all(|f| !f.message.contains("kept")), "{standing:?}");
    assert!(allows.leftover().is_empty());
    assert!(collect_allows(R14_API).iter().all(|a| a.rule == "R14" && !a.reason.is_empty()));
}
