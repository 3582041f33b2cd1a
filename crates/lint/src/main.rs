//! `pglo-lint` driver: walk the workspace, apply the rules, exit nonzero
//! on any finding. Run from anywhere inside the repo:
//!
//! ```text
//! cargo run -p pglo-lint --offline [-- --json] [-- --write-panic-reach]
//!                                  [-- --write-effects]
//! ```
//!
//! Output is one finding per line, `path:line: R# message`; `--json`
//! emits the same findings as a JSON array for tooling.
//!
//! Scopes (see lib.rs for the rules themselves):
//! - `crates/*/src`, `src/`: R1 std-sync, R2 unranked-lock, R3
//!   unwrap-ratchet, R4 safety-comment, R7 guard-across-I/O, R8
//!   pin-leak, R9 error-swallow (I/O/txn/wire crates), R6 metric-name.
//!   The benchmark harness crate (`crates/bench`) is test scope — it is
//!   a measurement tool, not a library I/O path.
//! - `crates/*/tests`, `crates/*/benches`, `crates/*/examples`, root
//!   `tests/`: R1, R4, R8 type scan (tests unwrap freely and may build
//!   unranked locks, but may not defeat guard Drop).
//! - `shims/*`: R4 only — shims stand in for external crates and are the
//!   one place `std::sync` is legal (the checker itself lives there).
//! - `crates/lint/tests/fixtures/`: skipped — those files are the lint
//!   self-tests' *inputs* and violate rules on purpose.
//! - R5 rank-table: `shims/parking_lot/src/ranks.rs` vs. DESIGN.md.
//! - R10 proto-sync: proto.rs enum/ALL/name() vs. service.rs dispatch
//!   vs. client.rs vs. the DESIGN.md ```wire-ops``` table.
//! - R11 atomics-protocol: `buffer`/`wal`/`txn` atomic fields and op
//!   orderings vs. the DESIGN.md ```atomics-protocol``` table, plus the
//!   workspace-wide `Ordering::Relaxed` budget.
//! - Panic-reach report: committed `crates/lint/panic_reach.txt` must
//!   equal the computed reachability set (only-shrinks ratchet).
//! - R12 reactor-no-block / R13 durability-ordering: interprocedural
//!   effect inference over the workspace call graph (see
//!   `pglo_lint::effects`); the inferred table is committed as
//!   `crates/lint/effects.txt` (regenerate with `--write-effects`, EF
//!   findings on drift) and the durability sources sync two-way against
//!   DESIGN.md's ```effects``` table.
//!
//! One ratchet file, `crates/lint/budget.txt` (exact counts, both
//! directions, so budgets only go down): per rule and file, the
//! tolerated unwrap/expect sites (R3), swallowed errors (R9),
//! `Ordering::Relaxed` arguments (R11) and findings excused by a
//! `// LINT: allow(R7|R12|R13, reason)`.

use pglo_lint::ast::{build_trees, parse_items, Items, Tree};
use pglo_lint::{
    atomic_field_decls, atomic_op_sites, check_atomics_protocol, check_budget, check_guard_flow,
    check_manually_drop_types, check_metric_names, check_proto_sync, check_rank_table,
    check_std_sync, check_unranked_locks, check_unsafe, collect_allows, infer_effects,
    metric_name_sites, panic_report, parse_atomics_protocol, parse_budget, parse_code_ranks,
    parse_committed, parse_committed_effects, parse_design_effects, parse_design_ranks,
    relaxed_sites, test_mask, tokenize, unwrap_sites, Allow, AtomicFile, EffectFile, Finding,
    PerFile, ReachFile, TokKind, Token, WorkspaceIndex, ATOMIC_PROTOCOL_CRATES,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Crates where R9 (error-swallow) is an error: every file is on an
/// I/O, txn, or wire path. `query`/`adt`/`pages` are pure in-memory
/// transforms; `obs` and `lint` are the tooling itself.
const R9_CRATES: [&str; 8] =
    ["buffer", "core", "heap", "inversion", "server", "smgr", "txn", "wal"];

struct Opts {
    json: bool,
    write_reach: bool,
    write_effects: bool,
}

fn main() -> ExitCode {
    let mut opts = Opts { json: false, write_reach: false, write_effects: false };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--write-panic-reach" => opts.write_reach = true,
            "--write-effects" => opts.write_effects = true,
            other => {
                eprintln!(
                    "pglo-lint: unknown flag {other:?} (known: --json, --write-panic-reach, \
                     --write-effects)"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let root = match workspace_root() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pglo-lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&root, &opts) {
        Ok((0, files)) => {
            if !opts.json {
                println!("pglo-lint: workspace clean ({files} files checked)");
            }
            ExitCode::SUCCESS
        }
        Ok((n, files)) => {
            eprintln!("pglo-lint: {n} finding(s) across {files} files checked");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("pglo-lint: {e}");
            ExitCode::FAILURE
        }
    }
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

/// One loaded source file with everything the passes need.
struct Rec {
    rel: String,
    src: String,
    tokens: Vec<Token>,
    scope: Scope,
    crate_name: String,
    /// Items parsed from comment-free, test-masked trees (library files
    /// only).
    items: Option<Items>,
    /// Comment-free trees with test code KEPT (for the workspace-wide
    /// R8 ManuallyDrop type scan).
    full_trees: Option<Vec<Tree>>,
}

fn run(root: &Path, opts: &Opts) -> Result<(usize, usize), String> {
    let mut findings: Vec<Finding> = Vec::new();

    // --- the budget -------------------------------------------------------
    let budget = parse_budget(&read_rel(root, "crates/lint/budget.txt")?)?;
    // Per budgeted rule and file, a finding for every site the rule
    // counts there: unwrap sites, swallowed errors, relaxed orderings,
    // and findings a LINT: allow excused. `check_budget` settles them
    // against the committed rows once every pass has run.
    let mut budgeted: PerFile<Vec<Finding>> = BTreeMap::new();
    let mut lib_files: BTreeSet<String> = BTreeSet::new();
    // Every allow directive seen in a checked file, with whether any
    // finding used it (stale allows are themselves findings; R12/R13
    // consume theirs after the effects pass below).
    let mut all_allows: Vec<(String, Allow, bool)> = Vec::new();

    // --- pass 1: load + parse --------------------------------------------
    let mut recs: Vec<Rec> = Vec::new();
    for file in rust_files(root)? {
        let rel = file
            .strip_prefix(root)
            .map_err(|_| "walker escaped the root".to_string())?
            .to_string_lossy()
            .replace('\\', "/");
        let src =
            std::fs::read_to_string(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
        let tokens = tokenize(&src);
        let scope = scope_of(&rel);
        let crate_name =
            rel.strip_prefix("crates/").and_then(|r| r.split('/').next()).unwrap_or("").to_string();
        let (items, full_trees) = if scope == Scope::Shim {
            (None, None)
        } else {
            let no_comments: Vec<Token> =
                tokens.iter().filter(|t| t.kind != TokKind::Comment).cloned().collect();
            let full = build_trees(&no_comments);
            if scope == Scope::Lib {
                let mask = test_mask(&tokens);
                let kept: Vec<Token> = tokens
                    .iter()
                    .zip(&mask)
                    .filter(|(t, m)| !**m && t.kind != TokKind::Comment)
                    .map(|(t, _)| t.clone())
                    .collect();
                let trees = build_trees(&kept);
                let items = parse_items(&trees);
                (Some(items), Some(full))
            } else {
                (None, Some(full))
            }
        };
        recs.push(Rec { rel, src, tokens, scope, crate_name, items, full_trees });
    }

    // Workspace index for R7 Tier-B wrappers / guard fns / must_use fns.
    let index_input: Vec<(String, &Items)> =
        recs.iter().filter_map(|r| r.items.as_ref().map(|i| (r.crate_name.clone(), i))).collect();
    let index = WorkspaceIndex::build(&index_input);

    // R6 uniqueness: metric name -> first registration site seen.
    let mut metric_owners: BTreeMap<String, (String, u32)> = BTreeMap::new();

    // --- pass 2: per-file rules ------------------------------------------
    for rec in &recs {
        let rel = rec.rel.as_str();
        if rec.scope != Scope::Shim {
            findings.extend(check_std_sync(rel, &rec.tokens));
        }
        findings.extend(check_unsafe(rel, &rec.src, &rec.tokens));
        // R8 type scan covers tests too: a test wrapping a guard in
        // ManuallyDrop hides real leak behavior.
        if let Some(full) = &rec.full_trees {
            findings.extend(check_manually_drop_types(rel, full));
        }
        if rec.scope != Scope::Lib {
            continue;
        }
        lib_files.insert(rel.to_string());
        findings.extend(check_unranked_locks(rel, &rec.tokens));
        let unwraps = unwrap_sites(&rec.tokens);
        if !unwraps.is_empty() {
            budgeted.insert(
                ("R3", rel.to_string()),
                sites_as_findings(
                    rel,
                    "R3",
                    &unwraps,
                    "unwrap()/expect() in non-test library code: propagate the error instead",
                ),
            );
        }
        // R6: format per site, uniqueness across the workspace.
        let metric_sites = metric_name_sites(&rec.tokens);
        findings.extend(check_metric_names(rel, &metric_sites));
        for (name, line) in metric_sites {
            match metric_owners.get(&name) {
                Some((owner_path, owner_line)) => findings.push(Finding {
                    path: PathBuf::from(rel),
                    line,
                    rule: "R6",
                    message: format!(
                        "metric {name:?} already registered at \
                         {owner_path}:{owner_line}: names must be unique \
                         workspace-wide (each site owns its own static)"
                    ),
                }),
                None => {
                    metric_owners.insert(name, (rel.to_string(), line));
                }
            }
        }
        // R7 / R8 / R9 dataflow. The linter's own sources quote the
        // `LINT: allow` syntax in messages and tests and do plain
        // config-file I/O with no guards — flow analysis is for the
        // engine crates, not the tooling.
        let Some(items) = &rec.items else { continue };
        if rec.crate_name.is_empty() || rec.crate_name == "lint" {
            continue;
        }
        let r9 = R9_CRATES.contains(&rec.crate_name.as_str());
        let flow = check_guard_flow(rel, &rec.crate_name, items, &index, r9);

        // Apply `// LINT: allow(R7, reason)` directives: same line or the
        // line below (comment-above style). An allow with no reason is
        // itself a finding — the acceptance bar is zero un-reasoned allows.
        // R12/R13 allows are matched after the effects pass; stale-allow
        // detection happens once everything has had its chance.
        let allows = collect_allows(&rec.src);
        let mut used = vec![false; allows.len()];
        for (k, a) in allows.iter().enumerate() {
            if !matches!(a.rule.as_str(), "R7" | "R12" | "R13") {
                findings.push(Finding {
                    path: PathBuf::from(rel),
                    line: a.line,
                    rule: "R7",
                    message: format!(
                        "LINT: allow({}) is not a recognized escape hatch: only R7, R12, \
                         and R13 take per-site allows (R9 is budgeted per file in budget.txt)",
                        a.rule
                    ),
                });
                used[k] = true;
            } else if a.reason.is_empty() {
                findings.push(Finding {
                    path: PathBuf::from(rel),
                    line: a.line,
                    rule: allow_rule(&a.rule),
                    message: format!(
                        "LINT: allow({r}) without a reason: write why the site is safe — \
                         `// LINT: allow({r}, reason)`",
                        r = a.rule
                    ),
                });
                used[k] = true;
            }
        }
        // An R7 finding under a reasoned allow, and every R9 finding,
        // goes to the budget; the rest stand.
        for f in flow {
            let excused = f.rule == "R7"
                && allows.iter().enumerate().any(|(k, a)| {
                    let hit = a.rule == "R7"
                        && !a.reason.is_empty()
                        && (a.line == f.line || a.line + 1 == f.line);
                    used[k] |= hit;
                    hit
                });
            if excused || f.rule == "R9" {
                budgeted.entry((f.rule, rel.to_string())).or_default().push(f);
            } else {
                findings.push(f);
            }
        }
        for (k, a) in allows.into_iter().enumerate() {
            all_allows.push((rel.to_string(), a, used[k]));
        }
    }

    // R8 structural: the pool's RAII pin type must actually implement
    // Drop — without it every pin is a leak and R8's forget ban is moot.
    let pinned_has_drop = recs.iter().filter(|r| r.crate_name == "buffer").any(|r| {
        r.items.as_ref().is_some_and(|i| {
            i.trait_impls.iter().any(|t| t.trait_name == "Drop" && t.type_name == "PinnedPage")
        })
    });
    if !pinned_has_drop {
        findings.push(ratchet_finding(
            "crates/buffer/src/lib.rs",
            "R8",
            "no `impl Drop for PinnedPage` found in crates/buffer: the pin guard must \
             unpin on Drop"
                .to_string(),
        ));
    }

    // --- R5: rank table consistency --------------------------------------
    let ranks_src = read_rel(root, "shims/parking_lot/src/ranks.rs")?;
    let design_src = read_rel(root, "DESIGN.md")?;
    let code = parse_code_ranks(&ranks_src)?;
    let design = parse_design_ranks(&design_src)?;
    if code.is_empty() {
        return Err("no LockRank constants found in ranks.rs".to_string());
    }
    for err in check_rank_table(&code, &design) {
        findings.push(ratchet_finding("DESIGN.md", "R5", err));
    }

    // --- R11: atomics-protocol sync + relaxed budget ----------------------
    match parse_atomics_protocol(&design_src) {
        Err(err) => findings.push(ratchet_finding("DESIGN.md", "R11", err)),
        Ok(rows) => {
            let atomic_files: Vec<AtomicFile> = recs
                .iter()
                .filter(|r| {
                    r.scope == Scope::Lib && ATOMIC_PROTOCOL_CRATES.contains(&r.crate_name.as_str())
                })
                .map(|r| AtomicFile {
                    rel: r.rel.as_str(),
                    krate: r.crate_name.as_str(),
                    decls: atomic_field_decls(&r.tokens),
                    ops: atomic_op_sites(&r.tokens),
                })
                .collect();
            findings.extend(check_atomics_protocol(&rows, &atomic_files));
        }
    }
    for rec in &recs {
        if rec.scope != Scope::Lib || rec.crate_name == "lint" {
            continue;
        }
        let relaxed = relaxed_sites(&rec.tokens);
        if !relaxed.is_empty() {
            budgeted.insert(
                ("R11", rec.rel.clone()),
                sites_as_findings(
                    &rec.rel,
                    "R11",
                    &relaxed,
                    "Ordering::Relaxed outside the budget: use a stronger ordering, or raise \
                     the committed count in the same commit with a reason in review",
                ),
            );
        }
    }

    // --- R10: protocol four-way sync --------------------------------------
    let proto_src = read_rel(root, "crates/server/src/proto.rs")?;
    let service_src = read_rel(root, "crates/server/src/service.rs")?;
    let client_src = read_rel(root, "crates/server/src/client.rs")?;
    findings.extend(check_proto_sync(
        ("crates/server/src/proto.rs", &proto_src),
        ("crates/server/src/service.rs", &service_src),
        ("crates/server/src/client.rs", &client_src),
        ("DESIGN.md", &design_src),
    ));

    // --- panic-reachability report ----------------------------------------
    let reach_input: Vec<ReachFile> = recs
        .iter()
        .filter(|r| {
            r.scope == Scope::Lib
                && !r.crate_name.is_empty()
                && r.crate_name != "lint"
                && r.items.is_some()
        })
        .filter_map(|r| r.items.as_ref().map(|i| (r.rel.as_str(), r.crate_name.as_str(), i)))
        .collect();
    let computed = panic_report(&reach_input);
    let reach_path = root.join("crates/lint/panic_reach.txt");
    if opts.write_reach {
        let mut text = String::from(
            "# Panic-reachability report: every unwrap/expect/panic!/unreachable! site\n\
             # transitively reachable from a pub fn of server/core/inversion/buffer.\n\
             # Regenerate with: cargo run -p pglo-lint --offline -- --write-panic-reach\n\
             # CI enforces this file matches the computed set exactly (only-shrinks).\n",
        );
        for line in &computed {
            text.push_str(line);
            text.push('\n');
        }
        std::fs::write(&reach_path, text)
            .map_err(|e| format!("write {}: {e}", reach_path.display()))?;
        eprintln!("pglo-lint: wrote {} ({} sites)", reach_path.display(), computed.len());
    }
    match std::fs::read_to_string(&reach_path) {
        Err(_) => findings.push(ratchet_finding(
            "crates/lint/panic_reach.txt",
            "PR",
            "missing panic_reach.txt: generate it with \
             `cargo run -p pglo-lint --offline -- --write-panic-reach` and commit it"
                .to_string(),
        )),
        Ok(text) => {
            let committed = parse_committed(&text);
            let computed_set: std::collections::BTreeSet<String> =
                computed.iter().cloned().collect();
            for grown in computed_set.difference(&committed) {
                findings.push(reach_line_finding(
                    grown,
                    "new panic-reachable site (not in committed panic_reach.txt): \
                     remove the panic path, or regenerate the report and justify the \
                     growth in review",
                ));
            }
            for stale in committed.difference(&computed_set) {
                findings.push(Finding {
                    path: PathBuf::from("crates/lint/panic_reach.txt"),
                    line: 0,
                    rule: "PR",
                    message: format!(
                        "stale entry `{stale}`: site no longer reachable — regenerate \
                         with --write-panic-reach so the ratchet tightens"
                    ),
                });
            }
        }
    }

    // --- R12/R13: interprocedural effect inference -------------------------
    let effect_input: Vec<EffectFile> = recs
        .iter()
        .filter(|r| {
            r.scope == Scope::Lib
                && !r.crate_name.is_empty()
                && r.crate_name != "lint"
                && r.items.is_some()
        })
        .filter_map(|r| r.items.as_ref().map(|i| (r.rel.as_str(), r.crate_name.as_str(), i)))
        .collect();
    let effects = infer_effects(&effect_input);
    let mut rule_findings = effects.check_r12();
    rule_findings.extend(effects.check_r13());
    for f in rule_findings {
        let rel = f.path.to_string_lossy().replace('\\', "/");
        let hit = all_allows.iter_mut().find(|(p, a, _)| {
            *p == rel
                && a.rule == f.rule
                && !a.reason.is_empty()
                && (a.line == f.line || a.line + 1 == f.line)
        });
        match hit {
            Some((_, _, used)) => {
                *used = true;
                budgeted.entry((f.rule, rel)).or_default().push(f);
            }
            None => findings.push(f),
        }
    }
    // The durability sources stay documented: DESIGN.md's ```effects```
    // table syncs two-way with the inferred rows.
    match parse_design_effects(&design_src) {
        Err(err) => findings.push(ratchet_finding("DESIGN.md", "R13", err)),
        Ok(rows) => findings.extend(effects.check_design_table(&rows)),
    }
    // Committed effects table: drift in either direction is a finding,
    // same contract as panic_reach.txt.
    let effect_table = effects.table();
    let effects_path = root.join("crates/lint/effects.txt");
    if opts.write_effects {
        let mut text = String::from(
            "# Inferred effect table: every workspace fn with a non-empty effect set\n\
             # (blocks / fsyncs / flushes_wal / wal_appends / writes_data_pages),\n\
             # computed as a fixpoint over the (name, arity) call graph.\n\
             # Regenerate with: cargo run -p pglo-lint --offline -- --write-effects\n\
             # CI enforces this file matches the computed set exactly.\n",
        );
        for line in &effect_table {
            text.push_str(line);
            text.push('\n');
        }
        std::fs::write(&effects_path, text)
            .map_err(|e| format!("write {}: {e}", effects_path.display()))?;
        eprintln!("pglo-lint: wrote {} ({} fns)", effects_path.display(), effect_table.len());
    }
    match std::fs::read_to_string(&effects_path) {
        Err(_) => findings.push(ratchet_finding(
            "crates/lint/effects.txt",
            "EF",
            "missing effects.txt: generate it with \
             `cargo run -p pglo-lint --offline -- --write-effects` and commit it"
                .to_string(),
        )),
        Ok(text) => {
            let committed = parse_committed_effects(&text);
            let computed_set: std::collections::BTreeSet<String> =
                effect_table.iter().cloned().collect();
            for grown in computed_set.difference(&committed) {
                findings.push(effect_line_finding(
                    grown,
                    "effect set changed (not in committed effects.txt): review the new \
                     effect, then regenerate with --write-effects",
                ));
            }
            for stale in committed.difference(&computed_set) {
                findings.push(Finding {
                    path: PathBuf::from("crates/lint/effects.txt"),
                    line: 0,
                    rule: "EF",
                    message: format!(
                        "stale entry `{stale}`: fn or effect set gone — regenerate with \
                         --write-effects"
                    ),
                });
            }
        }
    }

    // Stale allows: directives that excused nothing are themselves
    // findings, so the escape-hatch inventory stays honest.
    for (path, a, used) in &all_allows {
        if !used {
            findings.push(Finding {
                path: PathBuf::from(path.as_str()),
                line: a.line,
                rule: allow_rule(&a.rule),
                message: format!(
                    "stale LINT: allow({}) — no finding on this or the next line; \
                     delete it so the escape-hatch count stays honest",
                    a.rule
                ),
            });
        }
    }
    findings.extend(check_budget(&budget, budgeted, &lib_files));

    // --- output ------------------------------------------------------------
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    if opts.json {
        let body: Vec<String> = findings.iter().map(|f| f.to_json()).collect();
        println!("[{}]", body.join(","));
    } else {
        for f in &findings {
            println!("{f}");
        }
    }
    Ok((findings.len(), recs.len()))
}

fn read_rel(root: &Path, rel: &str) -> Result<String, String> {
    let p = root.join(rel);
    std::fs::read_to_string(&p).map_err(|e| format!("read {}: {e}", p.display()))
}

/// One finding per budgeted site of `rule` in `path`, for `check_budget`.
fn sites_as_findings(path: &str, rule: &'static str, lines: &[u32], message: &str) -> Vec<Finding> {
    lines
        .iter()
        .map(|&line| Finding {
            path: PathBuf::from(path),
            line,
            rule,
            message: message.to_string(),
        })
        .collect()
}

fn ratchet_finding(path: &str, rule: &'static str, message: String) -> Finding {
    Finding { path: PathBuf::from(path), line: 0, rule, message }
}

/// Turn a `path:line kind reachable in ...` report line into a finding
/// anchored at the site itself, so editors can jump to it.
fn reach_line_finding(report_line: &str, note: &str) -> Finding {
    let (path, rest) = report_line.split_once(':').unwrap_or(("crates/lint/panic_reach.txt", ""));
    let line = rest.split_once(' ').and_then(|(l, _)| l.parse::<u32>().ok()).unwrap_or(0);
    Finding {
        path: PathBuf::from(path),
        line,
        rule: "PR",
        message: format!("{note}: `{report_line}`"),
    }
}

/// The static rule tag for findings about an allow directive itself
/// (unrecognized rules report as R7, the original allow family).
fn allow_rule(rule: &str) -> &'static str {
    match rule {
        "R12" => "R12",
        "R13" => "R13",
        _ => "R7",
    }
}

/// Turn an `path:line crate::fn/arity = effects` table line into a
/// finding anchored at the definition site.
fn effect_line_finding(table_line: &str, note: &str) -> Finding {
    let (path, rest) = table_line.split_once(':').unwrap_or(("crates/lint/effects.txt", ""));
    let line = rest.split_once(' ').and_then(|(l, _)| l.parse::<u32>().ok()).unwrap_or(0);
    Finding {
        path: PathBuf::from(path),
        line,
        rule: "EF",
        message: format!("{note}: `{table_line}`"),
    }
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum Scope {
    /// Non-test library code: all rules.
    Lib,
    /// Tests, benches, examples, the bench harness: R1 + R4 + R8 scan.
    Test,
    /// Vendored shims: R4 only.
    Shim,
}

fn scope_of(rel: &str) -> Scope {
    if rel.starts_with("shims/") {
        return Scope::Shim;
    }
    if rel.starts_with("crates/bench/")
        || rel.starts_with("tests/")
        || rel.starts_with("benches/")
        || rel.starts_with("examples/")
    {
        return Scope::Test;
    }
    if let Some(in_crate) = rel.strip_prefix("crates/") {
        if let Some((_, rest)) = in_crate.split_once('/') {
            if rest.starts_with("tests/")
                || rest.starts_with("benches/")
                || rest.starts_with("examples/")
                // Out-of-line `#[cfg(test)] mod tests;` files live in src/
                // but are test code.
                || rest == "src/tests.rs"
                || rest.starts_with("src/tests/")
            {
                return Scope::Test;
            }
        }
    }
    Scope::Lib
}

/// Every `.rs` file under the workspace's checked roots, sorted for
/// deterministic output. Lint-test fixture inputs are excluded: they
/// violate rules on purpose.
fn rust_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    for top in ["crates", "shims", "src", "tests", "benches", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut out)?;
        }
    }
    out.retain(|p| !p.to_string_lossy().replace('\\', "/").contains("tests/fixtures/"));
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        if name.to_string_lossy() == "target" {
            continue;
        }
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
