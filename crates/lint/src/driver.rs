//! The driver: load the workspace once, build the shared views, run
//! every rule, settle the ratchets. `main.rs` and the self-tests both
//! call [`check_workspace`].

use crate::atomics::{
    check_atomics_protocol, parse_atomics_protocol, relaxed_sites, ATOMIC_PROTOCOL_CRATES,
};
use crate::effects::{infer_effects, parse_design_effects, EFFECTS};
use crate::flow::{check_guard_flow, check_manually_drop_types, WorkspaceIndex};
use crate::graph::CallGraph;
use crate::panic_reach::{panic_report, PANIC_REACH};
use crate::proto_sync::check_proto_sync;
use crate::rules::{
    check_metric_names, check_rank_table, check_std_sync, check_unranked_locks, check_unsafe,
    metric_name_sites, parse_code_ranks, parse_design_ranks, unwrap_sites,
};
use crate::source::{load_workspace, read, Scope, SourceFile};
use crate::tables::{check_budget, check_committed, parse_budget, Allows, PerFile, DESIGN};
use crate::{finding, Finding};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Crates where R9 (error-swallow) is an error: every file is on an
/// I/O, txn, or wire path. `query`/`adt`/`pages` are pure in-memory
/// transforms; `obs` and `lint` are the tooling itself.
const R9_CRATES: [&str; 8] =
    ["buffer", "core", "heap", "inversion", "server", "smgr", "txn", "wal"];

/// Which committed tables to regenerate before checking them.
#[derive(Debug, Default, Clone, Copy)]
pub struct Write {
    /// `--write-panic-reach`: rewrite `crates/lint/panic_reach.txt`.
    pub panic_reach: bool,
    /// `--write-effects`: rewrite `crates/lint/effects.txt`.
    pub effects: bool,
}

/// What a run found.
#[derive(Debug)]
pub struct Report {
    /// Sorted by `(path, line, rule)` so consecutive runs diff cleanly.
    pub findings: Vec<Finding>,
    /// Number of source files checked.
    pub files: usize,
}

/// Check the checkout at `root` against every rule.
pub fn check_workspace(root: &Path, write: Write) -> Result<Report, String> {
    let files = load_workspace(root, &[])?;
    let file = |rel: &str| {
        files.iter().find(|f| f.rel == rel).ok_or_else(|| format!("{rel} is not in the workspace"))
    };
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
            unwrap_sites(f),
            "unwrap()/expect() in non-test library code: propagate the error instead",
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

    // --- R7/R8/R9 dataflow, R12/R13 effects ------------------------------
    // An R7/R12/R13 finding under a reasoned allow, and every R9
    // finding, goes to the budget; the rest stand.
    let index = WorkspaceIndex::build(&graph);
    let mut allows = Allows::of(engine.iter().copied());
    let flow = engine
        .iter()
        .flat_map(|f| check_guard_flow(f, &index, R9_CRATES.contains(&f.krate.as_str())));
    for f in flow.chain(effects.check_r12()).chain(effects.check_r13()) {
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

    // --- DESIGN.md tables: R5 ranks, R11 atomics, R10 wire ops, R13 sources --
    let code_ranks = parse_code_ranks(file("shims/parking_lot/src/ranks.rs")?)?;
    if code_ranks.is_empty() {
        return Err("no LockRank constants found in ranks.rs".to_string());
    }
    for err in check_rank_table(&code_ranks, &parse_design_ranks(&design)?) {
        findings.push(finding(DESIGN, 0, "R5", err));
    }
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
    findings.extend(check_proto_sync(
        file("crates/server/src/proto.rs")?,
        file("crates/server/src/service.rs")?,
        file("crates/server/src/client.rs")?,
        &design,
    ));
    match parse_design_effects(&design) {
        Err(err) => findings.push(finding(DESIGN, 0, "R13", err)),
        Ok(rows) => findings.extend(effects.check_design_table(&rows)),
    }

    // --- the ratchets ------------------------------------------------------
    findings.extend(check_committed(root, &PANIC_REACH, &panic_report(&graph), write.panic_reach)?);
    findings.extend(check_committed(root, &EFFECTS, &effects.table(), write.effects)?);
    let lib_files: BTreeSet<String> = lib.iter().map(|f| f.rel.clone()).collect();
    findings.extend(check_budget(&budget, budgeted, &lib_files));

    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(Report { findings, files: files.len() })
}
