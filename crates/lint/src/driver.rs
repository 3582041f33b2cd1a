//! The driver: load the workspace once, build the shared views, run
//! every rule, settle the budget. `main.rs` and the self-tests both
//! call [`check_workspace`].

use crate::atomics::{
    check_atomics_protocol, parse_atomics_protocol, relaxed_sites, ATOMIC_PROTOCOL_CRATES,
};
use crate::dead::{check_dead_api, is_user};
use crate::effects::infer_effects;
use crate::flow::{check_guard_flow, check_manually_drop_types, WorkspaceIndex};
use crate::graph::CallGraph;
use crate::rules::{
    check_metric_names, check_std_sync, check_unranked_locks, check_unsafe, metric_name_sites,
    panic_sites,
};
use crate::source::{load_workspace, read, Scope, SourceFile};
use crate::tables::{check_budget, parse_budget, Allows, PerFile, DESIGN};
use crate::{finding, Finding};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Crates where R9 (error-swallow) is an error: every file is on an
/// I/O, txn, or wire path. `query`/`adt`/`pages` are pure in-memory
/// transforms; `obs` and `lint` are the tooling itself.
const R9_CRATES: [&str; 8] =
    ["buffer", "core", "heap", "inversion", "server", "smgr", "txn", "wal"];

/// What a run found.
#[derive(Debug)]
pub struct Report {
    /// Sorted by `(path, line, rule)` so consecutive runs diff cleanly.
    pub findings: Vec<Finding>,
    /// Number of source files checked.
    pub files: usize,
}

/// Check the checkout at `root` against every rule, with `overrides`
/// substituting source text by workspace-relative path (see
/// [`load_workspace`]).
pub fn check_workspace(root: &Path, overrides: &[(&str, &str)]) -> Result<Report, String> {
    let files = load_workspace(root, overrides)?;
    let design = read(&root.join(DESIGN))?;
    let budget = parse_budget(&read(&root.join("crates/lint/budget.txt"))?)?;
    let lib: Vec<&SourceFile> = files.iter().filter(|f| f.scope == Scope::Lib).collect();
    let engine: Vec<&SourceFile> = lib.iter().copied().filter(|f| f.is_engine()).collect();
    let graph = CallGraph::build(engine.iter().copied());
    let effects = infer_effects(&graph);

    let mut findings: Vec<Finding> = Vec::new();
    // Per budgeted rule and file, a finding for every site the rule
    // counts there; `check_budget` settles them against the committed
    // rows once every pass has run.
    let mut budgeted: PerFile<Vec<Finding>> = BTreeMap::new();
    let mut count = |f: &SourceFile, rule: &'static str, lines: Vec<u32>, message: &str| {
        if !lines.is_empty() {
            let sites = lines.iter().map(|&l| finding(&f.rel, l, rule, message.to_string()));
            budgeted.insert((rule, f.rel.clone()), sites.collect());
        }
    };

    // --- token-shape rules, by scope -----------------------------------------
    for f in &files {
        findings.extend(check_unsafe(f));
        if f.scope != Scope::Shim {
            findings.extend(check_std_sync(f));
            // The R8 type scan covers tests too: a test wrapping a
            // guard in ManuallyDrop hides real leak behavior.
            findings.extend(check_manually_drop_types(f));
        }
    }
    // R6 uniqueness: metric name -> first registration site seen.
    let mut metric_owners: BTreeMap<String, (&str, u32)> = BTreeMap::new();
    for f in &lib {
        findings.extend(check_unranked_locks(f));
        count(
            f,
            "R3",
            panic_sites(f),
            "panic site (unwrap/expect or a panicking macro) in non-test library code: \
             propagate the error instead",
        );
        if f.krate != "lint" {
            count(
                f,
                "R11",
                relaxed_sites(f),
                "Ordering::Relaxed outside the budget: use a stronger ordering, or raise the \
                 committed count in the same commit with a reason in review",
            );
        }
        let sites = metric_name_sites(f);
        findings.extend(check_metric_names(&f.rel, &sites));
        for (name, line) in sites {
            if let Some((owner, owner_line)) = metric_owners.get(&name) {
                let msg = format!(
                    "metric {name:?} already registered at {owner}:{owner_line}: names must be \
                     unique workspace-wide (each site owns its own static)"
                );
                findings.push(finding(&f.rel, line, "R6", msg));
            } else {
                metric_owners.insert(name, (&f.rel, line));
            }
        }
    }

    // --- R7/R8/R9 dataflow, R12/R13 effects, R14 dead API -----------------
    // An R7/R12/R13/R14 finding under a reasoned allow, and every R9
    // finding, goes to the budget; the rest stand.
    let index = WorkspaceIndex::build(&graph);
    let mut allows = Allows::of(engine.iter().copied());
    let flow = engine
        .iter()
        .flat_map(|f| check_guard_flow(f, &index, R9_CRATES.contains(&f.krate.as_str())));
    let dead = check_dead_api(&graph, files.iter().filter(|f| is_user(f)));
    for f in flow.chain(effects.check_r12()).chain(effects.check_r13()).chain(dead) {
        if f.rule == "R9" || allows.excuses(&f) {
            let rel = f.path.to_string_lossy().into_owned();
            budgeted.entry((f.rule, rel)).or_default().push(f);
        } else {
            findings.push(f);
        }
    }
    findings.extend(allows.leftover());

    // R8 structural: the pool's RAII pin type must actually implement
    // Drop — without it every pin is a leak and R8's forget ban is moot.
    let is_pin_drop = |f: &&SourceFile| {
        let impls = &f.items.trait_impls;
        f.krate == "buffer"
            && impls.iter().any(|t| t.trait_name == "Drop" && t.type_name == "PinnedPage")
    };
    if !engine.iter().any(is_pin_drop) {
        let msg = "no `impl Drop for PinnedPage` found in crates/buffer: the pin guard must \
                   unpin on Drop";
        findings.push(finding("crates/buffer/src/lib.rs", 0, "R8", msg.to_string()));
    }

    // --- DESIGN.md's one table: R11 atomics -------------------------------
    match parse_atomics_protocol(&design) {
        Err(err) => findings.push(finding(DESIGN, 0, "R11", err)),
        Ok(rows) => {
            let protocol_files: Vec<&SourceFile> = lib
                .iter()
                .copied()
                .filter(|f| ATOMIC_PROTOCOL_CRATES.contains(&f.krate.as_str()))
                .collect();
            findings.extend(check_atomics_protocol(&rows, &protocol_files));
        }
    }

    // --- the ratchet -------------------------------------------------------
    let lib_files: BTreeSet<String> = lib.iter().map(|f| f.rel.clone()).collect();
    findings.extend(check_budget(&budget, budgeted, &lib_files));

    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(Report { findings, files: files.len() })
}
