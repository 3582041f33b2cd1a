//! Fixture-based self-tests for the panic ratchet, the dataflow rules
//! and the dead-API rule: each rule gets one positive fixture
//! (must fire) and one negative fixture (must stay quiet). The fixture
//! files live under `tests/fixtures/` — the workspace walker skips that
//! directory, because they violate the rules on purpose.

use pglo_lint::rules::panic_sites;
use pglo_lint::{
    check_dead_api, check_guard_flow, check_manually_drop_types, check_workspace, collect_allows,
    Allows, CallGraph, Finding, SourceFile, WorkspaceIndex,
};
use std::path::Path;

const R7_POS: &str = include_str!("fixtures/r7_pos.rs");
const R7_NEG: &str = include_str!("fixtures/r7_neg.rs");
const R8_POS: &str = include_str!("fixtures/r8_pos.rs");
const R8_NEG: &str = include_str!("fixtures/r8_neg.rs");
const R9_POS: &str = include_str!("fixtures/r9_pos.rs");
const R9_NEG: &str = include_str!("fixtures/r9_neg.rs");
const R14_API: &str = include_str!("fixtures/r14/api.rs");
const R14_LIB_USER: &str = include_str!("fixtures/r14/lib_user.rs");
const R14_BIN: &str = include_str!("fixtures/r14/bin.rs");
const R14_BENCH: &str = include_str!("fixtures/r14/bench.rs");
const R14_NOT_USERS: &str = include_str!("fixtures/r14/not_users.rs");

#[test]
fn r3_positive_counts_every_panic_site_kind() {
    let src = "fn f(x: Option<u8>) -> u8 {\n\
               let a = x.unwrap();\n\
               let b = x.expect(\"b\");\n\
               if a > b { panic!(\"order\") }\n\
               match a { 0 => unreachable!(), 1 => todo!(), _ => unimplemented!() }\n\
               }";
    let sites = panic_sites(&SourceFile::new("crates/x/src/lib.rs", "x", src));
    assert_eq!(sites, vec![2, 3, 4, 5, 5, 5]);
}

#[test]
fn r3_negative_skips_tests_non_panicking_calls_and_text() {
    let src = "fn f(x: Option<u8>) -> u8 {\n\
               assert!(x.is_some(), \"panic!() in a string\");\n\
               // x.unwrap() in a comment\n\
               x.unwrap_or(0).max(x.unwrap_or_default())\n\
               }\n\
               #[cfg(test)]\n\
               mod tests { fn t() { None::<u8>.unwrap(); panic!(); } }\n\
               #[test]\n\
               fn u() { todo!() }";
    assert!(panic_sites(&SourceFile::new("crates/x/src/lib.rs", "x", src)).is_empty());
}

/// Lint the real checkout with `rel`'s `site` replaced by `with`.
fn lint_injected(rel: &str, site: &str, with: &str) -> Vec<Finding> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap();
    let orig = std::fs::read_to_string(root.join(rel)).unwrap();
    assert!(orig.contains(site), "injection site moved; update this test");
    let injected = orig.replacen(site, with, 1);
    check_workspace(&root, &[(rel, &injected)]).expect("lint ran").findings
}

#[test]
fn r3_live_injection_unwrap_and_panic_fire() {
    // The WAL has no R3 row: any panic site in its library code fails.
    let rel = "crates/wal/src/lib.rs";
    let site = "self.sync_dir()?;";
    for with in ["self.sync_dir().unwrap();", "panic!(\"injected\"); self.sync_dir()?;"] {
        let found = lint_injected(rel, site, with);
        assert!(
            found.iter().any(|f| f.rule == "R3" && f.path == Path::new(rel)),
            "`{with}` must fire R3: {found:?}"
        );
        assert!(found.iter().all(|f| f.rule == "R3"), "{found:?}");
    }
}

/// Run the guard-flow rules on one fixture as crate `x`, with allow
/// directives applied by the driver's own matcher.
fn flow(src: &str, r9: bool) -> Vec<Finding> {
    let file = SourceFile::new("fix.rs", "x", src);
    let idx = WorkspaceIndex::build(&CallGraph::build([&file]));
    let mut findings = check_guard_flow(&file, &idx, r9);
    let mut allows = Allows::of([&file]);
    findings.retain(|f| !allows.excuses(f));
    findings.extend(check_manually_drop_types(&file));
    findings
}

#[test]
fn r7_positive_fires_on_both_tiers() {
    let f = flow(R7_POS, false);
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
    let f = flow(R7_NEG, false);
    assert!(f.is_empty(), "{f:?}");
    // The allow is real and reasoned, so the driver would count 1.
    let allows = collect_allows(R7_NEG);
    assert_eq!(allows.len(), 1);
    assert!(!allows[0].reason.is_empty());
}

#[test]
fn r8_positive_fires_on_forget_and_manuallydrop() {
    let f = flow(R8_POS, false);
    let r8: Vec<_> = f.iter().filter(|x| x.rule == "R8").collect();
    assert_eq!(r8.len(), 2, "{f:?}");
    assert!(r8.iter().any(|x| x.message.contains("forget")), "{r8:?}");
    assert!(r8.iter().any(|x| x.message.contains("ManuallyDrop")), "{r8:?}");
}

#[test]
fn r8_negative_allows_forget_self_and_plain_values() {
    let f = flow(R8_NEG, false);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn r9_positive_fires_on_all_three_shapes_and_typed_discard() {
    let f = flow(R9_POS, true);
    let r9: Vec<_> = f.iter().filter(|x| x.rule == "R9").collect();
    assert_eq!(r9.len(), 4, "{f:?}");
    assert_eq!(r9.iter().filter(|x| x.message.contains("`let _ =`")).count(), 2, "{r9:?}");
    assert!(r9.iter().any(|x| x.message.contains("`.ok()`")), "{r9:?}");
    assert!(r9.iter().any(|x| x.message.contains("must_use")), "{r9:?}");
}

#[test]
fn r9_negative_is_quiet() {
    let f = flow(R9_NEG, true);
    assert!(f.is_empty(), "{f:?}");
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
    for used in ["decode", "widen", "check", "from_bin", "from_bench", "private_unused"] {
        assert!(!names(&found).contains(&used), "{used} has a caller: {found:?}");
    }
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
