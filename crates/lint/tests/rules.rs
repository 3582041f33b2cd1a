//! Fixture-based self-tests for the dataflow and sync rules: each rule
//! gets one positive fixture (must fire) and one negative fixture (must
//! stay quiet), plus a golden panic-reach report. The fixture files live
//! under `tests/fixtures/` — the workspace walker skips that directory,
//! because they violate the rules on purpose.

use pglo_lint::{
    check_guard_flow, check_manually_drop_types, check_proto_sync, collect_allows, panic_report,
    parse_committed, parse_wire_ops, Allows, CallGraph, Finding, SourceFile, WorkspaceIndex,
};

const R7_POS: &str = include_str!("fixtures/r7_pos.rs");
const R7_NEG: &str = include_str!("fixtures/r7_neg.rs");
const R8_POS: &str = include_str!("fixtures/r8_pos.rs");
const R8_NEG: &str = include_str!("fixtures/r8_neg.rs");
const R9_POS: &str = include_str!("fixtures/r9_pos.rs");
const R9_NEG: &str = include_str!("fixtures/r9_neg.rs");
const PROTO_OK: &str = include_str!("fixtures/r10/proto_ok.rs");
const PROTO_EXTRA: &str = include_str!("fixtures/r10/proto_extra.rs");
const SERVICE_OK: &str = include_str!("fixtures/r10/service_ok.rs");
const CLIENT_OK: &str = include_str!("fixtures/r10/client_ok.rs");
const DESIGN_OK: &str = include_str!("fixtures/r10/design_ok.md");
const REACH_ROOT: &str = include_str!("fixtures/reach/root.rs");
const REACH_HELPER: &str = include_str!("fixtures/reach/helper.rs");
const REACH_GOLDEN: &str = include_str!("fixtures/reach/expected.txt");

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

fn server_file(rel: &str, src: &str) -> SourceFile {
    SourceFile::new(rel, "server", src)
}

fn sync(proto: &str) -> Vec<Finding> {
    check_proto_sync(
        &server_file("proto.rs", proto),
        &server_file("service.rs", SERVICE_OK),
        &server_file("client.rs", CLIENT_OK),
        DESIGN_OK,
    )
}

#[test]
fn r10_in_sync_fixtures_are_quiet() {
    let f = sync(PROTO_OK);
    assert!(f.is_empty(), "{f:?}");
    assert_eq!(parse_wire_ops(DESIGN_OK).unwrap().len(), 3);
}

#[test]
fn r10_opcode_only_in_proto_fails_three_ways() {
    let f = sync(PROTO_EXTRA);
    assert!(
        f.iter().any(|x| x.path.ends_with("service.rs") && x.message.contains("Stats")),
        "{f:?}"
    );
    assert!(
        f.iter().any(|x| x.path.ends_with("client.rs") && x.message.contains("Stats")),
        "{f:?}"
    );
    assert!(
        f.iter().any(|x| x.path.ends_with("DESIGN.md") && x.message.contains("stats")),
        "{f:?}"
    );
}

#[test]
fn r10_removed_dispatch_arm_fails() {
    let service = SERVICE_OK.replace("Opcode::Shutdown => self.shutdown(),", "");
    let f = check_proto_sync(
        &server_file("proto.rs", PROTO_OK),
        &server_file("service.rs", &service),
        &server_file("client.rs", CLIENT_OK),
        DESIGN_OK,
    );
    assert!(
        f.iter().any(|x| x.path.ends_with("service.rs") && x.message.contains("Shutdown")),
        "{f:?}"
    );
}

#[test]
fn panic_reach_matches_golden() {
    let root = SourceFile::new("fixtures/reach/root.rs", "server", REACH_ROOT);
    let helper = SourceFile::new("fixtures/reach/helper.rs", "heap", REACH_HELPER);
    let computed: Vec<String> = panic_report(&CallGraph::build([&root, &helper]));
    let golden: Vec<String> = parse_committed(REACH_GOLDEN).into_iter().collect();
    assert_eq!(computed, golden);
}
