//! Interprocedural effect inference and the two rules built on it.
//!
//! Every workspace function gets an inferred **effect set** — a bitmask
//! over:
//!
//! * `blocks` — may park the calling thread: blocking syscalls
//!   (file/dir I/O, `thread::sleep`, `connect`), `Mutex::lock`-style
//!   lock acquisition, channel `recv`, `JoinHandle::join`.
//! * `fsyncs` — issues a durability barrier (`sync_all`/`sync_data`).
//! * `wal_appends` — appends a WAL record (designated: `wal::append`,
//!   `wal::append_batch`).
//! * `writes_data_pages` — writes a data page through the storage
//!   manager (designated: `smgr::write/3`).
//! * `flushes_wal` — forces the WAL up to an LSN (designated:
//!   `wal::flush_to/1`).
//!
//! Direct seeds come from syntactic sites (method/path calls) plus the
//! designation table; the rest is a fixpoint over the shared
//! over-approximate `(name, arity)` call graph ([`crate::graph`]).
//! Over-approximation is the right direction for both rules: it can
//! claim an effect a function doesn't have (quieted with a reasoned
//! `// LINT: allow(R12|R13, ...)`), never hide one it does.
//! Known blind spots, by construction: macro bodies (`obs::counter!`)
//! are opaque, and `read(1)`/`write(1)`/`flush(0)`-shaped method edges
//! are skipped — those names are the `std::io` traits, and resolving
//! every `x.read(buf)` to every workspace `fn read` drowns the graph.
//!
//! **R12 (reactor-no-block):** every function defined in
//! `crates/server/src/reactor.rs` runs on lobd's acceptor thread, the
//! one thread that must stay prompt whatever the workers execute. A
//! direct blocking seed there, or a call edge into a function whose
//! inferred effects include `blocks`, is a finding — anchored at the
//! reactor-file line so the allow (or the fix) lives where the decision
//! is made. The sanctioned escape hatches: the `poll` call itself (never
//! seeded), `try_`-prefixed lock attempts (never seeded), and dealing
//! the connection to a worker, which may block all it likes.
//!
//! **R13 (durability ordering):** scoped to the durability crates.
//! Within each statement sequence (straight-line flows; nested blocks
//! are their own sequence, and cross-function flows are covered because
//! statement effects are transitive):
//!
//! * a statement that `wal_appends` (and does not itself write pages)
//!   must not follow a statement that `writes_data_pages` (and does not
//!   itself append) — WAL-before-data;
//! * a statement that `flushes_wal` (and does not write pages) must not
//!   follow a page-writing statement — the flush fronts the write;
//! * an `fs::rename` must be followed, in the same function, by a
//!   statement carrying `fsyncs` (the directory fsync that makes the
//!   rename durable). Unsatisfied renames bubble out of nested blocks
//!   to the enclosing sequence.

use crate::ast::Tree;
use crate::graph::{scan, split_stmts, CallGraph, CallSite, FnNode, Scan, GENERIC_NAMES};
use crate::tables::{fenced_rows, DESIGN};
use crate::{finding, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// Effect bitmask.
pub type Effect = u8;
pub const EFFECT_BLOCKS: Effect = 1;
pub const EFFECT_FSYNC: Effect = 2;
pub const EFFECT_WAL_APPEND: Effect = 4;
pub const EFFECT_DATA_WRITE: Effect = 8;
pub const EFFECT_WAL_FLUSH: Effect = 16;

/// Canonical order for rendering effect sets.
const EFFECT_NAMES: [(Effect, &str); 5] = [
    (EFFECT_BLOCKS, "blocks"),
    (EFFECT_FSYNC, "fsyncs"),
    (EFFECT_WAL_FLUSH, "flushes_wal"),
    (EFFECT_WAL_APPEND, "wal_appends"),
    (EFFECT_DATA_WRITE, "writes_data_pages"),
];

/// Render an effect set in canonical comma-joined form (`-` if empty).
pub fn effect_string(e: Effect) -> String {
    let parts: Vec<&str> =
        EFFECT_NAMES.iter().filter(|(bit, _)| e & bit != 0).map(|(_, n)| *n).collect();
    if parts.is_empty() {
        "-".to_string()
    } else {
        parts.join(",")
    }
}

/// Parse a comma-joined effect set (the DESIGN.md table cell).
pub fn parse_effect_string(s: &str) -> Result<Effect, String> {
    if s == "-" {
        return Ok(0);
    }
    let mut e = 0;
    for part in s.split(',') {
        let part = part.trim();
        match EFFECT_NAMES.iter().find(|(_, n)| *n == part) {
            Some((bit, _)) => e |= bit,
            None => return Err(format!("unknown effect {part:?}")),
        }
    }
    Ok(e)
}

/// The acceptor-thread file: every fn defined here is an R12 root.
pub const REACTOR_FILE: &str = "crates/server/src/reactor.rs";

/// Crates R13's ordering scan runs in — the ones on the durability
/// path (WAL, buffer pool, storage managers, the server's txn surface,
/// catalog/clog persistence).
pub const R13_CRATES: [&str; 6] = ["buffer", "heap", "server", "smgr", "txn", "wal"];

/// Designated workspace effect sources, `(crate, fn, arity) -> effect`.
/// These are attached to the *defining* function; the fixpoint carries
/// them to every caller the `(name, arity)` graph can reach.
const DESIGNATED: [(&str, &str, usize, Effect); 4] = [
    ("wal", "append", 1, EFFECT_WAL_APPEND),
    ("wal", "append_batch", 1, EFFECT_WAL_APPEND),
    ("wal", "flush_to", 1, EFFECT_WAL_FLUSH),
    ("smgr", "write", 3, EFFECT_DATA_WRITE),
];

/// Blocking / fsync method-call seeds, `(name, arity) -> effect`.
/// `try_*` never seeds. Socket `read`/`write`/`accept` are deliberately
/// absent: in lobd they are non-blocking readiness-driven ops,
/// and elsewhere the enclosing fs/File seeds already mark the path.
const METHOD_SEEDS: [(&str, usize, Effect); 14] = [
    ("lock", 0, EFFECT_BLOCKS),
    ("read", 0, EFFECT_BLOCKS),  // RwLock/latch read-acquire
    ("write", 0, EFFECT_BLOCKS), // RwLock/latch write-acquire
    ("recv", 0, EFFECT_BLOCKS),
    ("recv_timeout", 1, EFFECT_BLOCKS),
    ("join", 0, EFFECT_BLOCKS),
    ("wait", 0, EFFECT_BLOCKS),
    ("wait", 1, EFFECT_BLOCKS),
    ("wait_timeout", 2, EFFECT_BLOCKS),
    ("sync_all", 0, EFFECT_BLOCKS | EFFECT_FSYNC),
    ("sync_data", 0, EFFECT_BLOCKS | EFFECT_FSYNC),
    ("read_exact_at", 2, EFFECT_BLOCKS),
    ("write_all_at", 2, EFFECT_BLOCKS),
    ("connect", 1, EFFECT_BLOCKS),
];

/// Path-call types whose constructors/ops block (file + net).
const BLOCKING_PATH_TYPES: [&str; 5] =
    ["File", "OpenOptions", "TcpStream", "TcpListener", "UnixStream"];

/// `(name, arity)` method edges never resolved: the `std::io` trait
/// shapes, where `(name, arity)` matching links every buffered reader
/// to every storage engine.
const SKIP_METHOD_EDGES: [(&str, usize); 8] = [
    ("read", 1),
    ("write", 1),
    ("flush", 0),
    ("write_all", 1),
    ("read_exact", 1),
    ("read_to_end", 1),
    ("read_to_string", 1),
    ("send", 1),
];

/// Whether a path call goes through `fs::` (`std::fs::rename`, ...).
fn is_fs_call(call: &CallSite) -> bool {
    call.qual().is_some() && call.segments.iter().any(|s| s == "fs")
}

/// The effect a call site seeds by itself, if any.
fn seed_of(call: &CallSite) -> Option<Effect> {
    let name = call.name();
    if call.method {
        let seed = METHOD_SEEDS.iter().find(|(n, a, _)| *n == name && *a == call.arity)?;
        return Some(seed.2);
    }
    let qual = call.qual()?;
    let blocks = is_fs_call(call)
        || BLOCKING_PATH_TYPES.contains(&qual)
        || (qual == "thread" && matches!(name, "sleep" | "park"));
    blocks.then_some(EFFECT_BLOCKS)
}

/// How findings name a seeding call site: `.lock()`, `fs::rename`,
/// `File::open`.
fn seed_label(call: &CallSite) -> String {
    match call.qual() {
        None => format!(".{}()", call.name()),
        Some(_) if is_fs_call(call) => format!("fs::{}", call.name()),
        Some(qual) => format!("{qual}::{}", call.name()),
    }
}

/// Whether the engine follows a call site into the graph: path calls
/// always; method and bare calls unless the name is generic; methods
/// also not through `try_*` (a failed attempt returns, it never parks)
/// or the `std::io` trait shapes.
fn is_edge(call: &CallSite) -> bool {
    let name = call.name();
    let skipped_method = call.method
        && (name.starts_with("try_") || SKIP_METHOD_EDGES.contains(&(name, call.arity)));
    call.qual().is_some() || !(GENERIC_NAMES.contains(&name) || skipped_method)
}

/// The inferred workspace: per call-graph node, its seeds and effects.
pub struct EffectsIndex<'a> {
    graph: &'a CallGraph<'a>,
    /// `(line, label, effect)` — syntactic seeds in each body.
    seeds: Vec<Vec<(u32, String, Effect)>>,
    /// Designated effects attached to each definition.
    designated: Vec<Effect>,
    effects: Vec<Effect>,
}

/// Seed the call graph and run the effect fixpoint.
pub fn infer_effects<'a>(graph: &'a CallGraph<'a>) -> EffectsIndex<'a> {
    let seeds_in = |n: &FnNode<'_>| {
        let seeded = |c: &CallSite| seed_of(c).map(|e| (c.line, seed_label(c), e));
        n.scan.calls.iter().filter_map(seeded).collect::<Vec<_>>()
    };
    let designated_of = |n: &FnNode<'_>| {
        DESIGNATED
            .iter()
            .filter(|(c, f, a, _)| *c == n.file.krate && *f == n.item.name && *a == n.item.arity)
            .fold(0, |acc, (_, _, _, e)| acc | e)
    };
    let seeds: Vec<Vec<_>> = graph.nodes.iter().map(seeds_in).collect();
    let designated: Vec<Effect> = graph.nodes.iter().map(designated_of).collect();
    let effects = designated.clone();
    let mut idx = EffectsIndex { graph, seeds, designated, effects };

    // Fixpoint: union seed and callee effects into callers until
    // stable. The lattice is 5 bits, so this terminates in a handful of
    // passes.
    loop {
        let mut changed = false;
        for (id, n) in graph.nodes.iter().enumerate() {
            let e = idx.effects[id] | idx.scan_effect(&n.scan);
            changed |= e != idx.effects[id];
            idx.effects[id] = e;
        }
        if !changed {
            return idx;
        }
    }
}

impl<'a> EffectsIndex<'a> {
    /// The workspace definitions a call site's effects flow in from.
    fn targets(&self, call: &CallSite) -> Vec<usize> {
        if is_edge(call) {
            self.graph.resolve(call)
        } else {
            Vec::new()
        }
    }

    /// Union of the effects of every call site in `found`: its own
    /// seed, and whatever its targets carry.
    fn scan_effect(&self, found: &Scan) -> Effect {
        found.calls.iter().fold(0, |acc, c| {
            let seed = seed_of(c).unwrap_or(0);
            self.targets(c).into_iter().fold(acc | seed, |acc, t| acc | self.effects[t])
        })
    }

    /// The rows DESIGN.md's ```effects``` table must carry: every
    /// `(crate, fn, arity)` that is a designated durability source or
    /// directly fsyncs, with the union of inferred effects across its
    /// definitions. Sorted by key.
    pub fn design_rows(&self) -> Vec<(String, Effect)> {
        let mut rows: BTreeMap<String, Effect> = BTreeMap::new();
        for (id, n) in self.graph.nodes.iter().enumerate() {
            let direct_fsync = self.seeds[id].iter().any(|(_, _, e)| e & EFFECT_FSYNC != 0);
            if self.designated[id] != 0 || direct_fsync {
                let key = format!("{} {}/{}", n.file.krate, n.item.name, n.item.arity);
                *rows.entry(key).or_insert(0) |= self.effects[id];
            }
        }
        rows.into_iter().collect()
    }

    /// Two-way sync against the parsed DESIGN.md rows.
    pub fn check_design_table(&self, rows: &[EffectRow]) -> Vec<Finding> {
        let mut findings = Vec::new();
        let mut report = |message: String| findings.push(finding(DESIGN, 0, "R13", message));
        let mut covered: BTreeSet<String> = BTreeSet::new();
        for row in rows {
            let key = format!("{} {}/{}", row.crate_name, row.fn_name, row.arity);
            // Union over every definition matching the row key.
            let defs = self.graph.nodes.iter().zip(&self.effects).filter(|(n, _)| {
                n.file.krate == row.crate_name
                    && n.item.name == row.fn_name
                    && n.item.arity == row.arity
            });
            match defs.map(|(_, e)| *e).reduce(|a, b| a | b) {
                None => report(format!(
                    "effects row `{key}` matches no workspace fn: delete the stale row"
                )),
                Some(e) if e != row.effect => report(format!(
                    "effects row `{key}` says `{}` but inference says `{}`: update the table \
                     (or fix the code drift it caught)",
                    effect_string(row.effect),
                    effect_string(e)
                )),
                Some(_) => {}
            }
            covered.insert(key);
        }
        for (key, e) in self.design_rows() {
            if !covered.contains(&key) {
                report(format!(
                    "durability source `{key}` (inferred `{}`) is missing from DESIGN.md's \
                     ```effects``` table",
                    effect_string(e)
                ));
            }
        }
        findings
    }

    /// R12: acceptor-thread code must not block.
    pub fn check_r12(&self) -> Vec<Finding> {
        let mut findings = Vec::new();
        let mut seen: BTreeSet<u32> = BTreeSet::new();
        let in_reactor = |n: &FnNode<'_>| n.file.rel == REACTOR_FILE;
        for (id, n) in self.graph.nodes.iter().enumerate() {
            if !in_reactor(n) {
                continue;
            }
            let (rel, name) = (n.file.rel.as_str(), &n.item.name);
            // Direct blocking seeds in the reactor file itself.
            for (line, label, e) in &self.seeds[id] {
                if e & EFFECT_BLOCKS != 0 && seen.insert(*line) {
                    let msg = format!(
                        "blocking `{label}` on the acceptor thread (in `{name}`): use a try_ \
                         variant, restructure, or leave the work to the worker"
                    );
                    findings.push(finding(rel, *line, "R12", msg));
                }
            }
            // Call edges leaving the reactor file into blocking code.
            for call in &n.scan.calls {
                let blocker = self.targets(call).into_iter().find(|&t| {
                    self.effects[t] & EFFECT_BLOCKS != 0 && !in_reactor(&self.graph.nodes[t])
                });
                let Some(target) = blocker else { continue };
                if !seen.insert(call.line) {
                    continue;
                }
                let t = &self.graph.nodes[target];
                let msg = format!(
                    "`{name}` calls `{}::{}` which may block ({}): the acceptor thread must \
                     not block — leave the work to the worker",
                    t.file.krate,
                    t.item.name,
                    self.blocking_trace(target)
                );
                findings.push(finding(rel, call.line, "R12", msg));
            }
        }
        findings
    }

    /// A short example chain from `start` to a direct blocking seed,
    /// for R12 messages.
    fn blocking_trace(&self, start: usize) -> String {
        let blocks = |t: usize| self.effects[t] & EFFECT_BLOCKS != 0;
        let mut chain: Vec<&str> = Vec::new();
        let mut visited: BTreeSet<usize> = BTreeSet::new();
        let mut cur = start;
        for _ in 0..6 {
            if !visited.insert(cur) {
                break;
            }
            let n = &self.graph.nodes[cur];
            chain.push(&n.item.name);
            if let Some((line, label, _)) =
                self.seeds[cur].iter().find(|(_, _, e)| e & EFFECT_BLOCKS != 0)
            {
                return format!("{} -> `{label}` at {}:{line}", chain.join(" -> "), n.file.rel);
            }
            // Greedy: follow any edge that still blocks.
            let next = n.scan.calls.iter().find_map(|c| {
                self.targets(c).into_iter().find(|&t| blocks(t) && !visited.contains(&t))
            });
            match next {
                Some(t) => cur = t,
                None => break,
            }
        }
        format!("via {}", chain.join(" -> "))
    }

    /// R13: durability ordering within every statement sequence of the
    /// durability crates.
    pub fn check_r13(&self) -> Vec<Finding> {
        let mut findings = Vec::new();
        for n in &self.graph.nodes {
            if !R13_CRATES.contains(&n.file.krate.as_str()) {
                continue;
            }
            let Some(body) = &n.item.body else { continue };
            let mut pending = Vec::new();
            self.scan_seq(n, &body.trees, &mut findings, &mut pending);
            for line in pending {
                let msg = format!(
                    "`fs::rename` in `{}` is not followed by a directory fsync in this \
                     function: rename durability needs the parent dir synced (sync the open \
                     dir handle after the rename)",
                    n.item.name
                );
                findings.push(finding(&n.file.rel, line, "R13", msg));
            }
        }
        findings
    }

    /// Analyze one statement sequence. Appends ordering findings;
    /// renames not yet followed by an fsync bubble out via `pending`.
    fn scan_seq(
        &self,
        n: &FnNode<'a>,
        trees: &[Tree],
        findings: &mut Vec<Finding>,
        pending: &mut Vec<u32>,
    ) {
        struct Stmt {
            effect: Effect,
            line: u32,
            renames: Vec<u32>,
        }
        let mut stmts: Vec<Stmt> = Vec::new();
        for stmt in split_stmts(trees) {
            let mut s =
                Stmt { effect: 0, line: stmt.first().map_or(0, Tree::line), renames: vec![] };
            self.stmt_effect(n, stmt, &mut s.effect, &mut s.renames, findings);
            stmts.push(s);
        }
        // WAL-before-data: a statement that appends to the WAL without
        // itself writing pages must not follow a page-writing statement
        // that does not append; likewise a pure WAL flush must front
        // the write it covers. The first offender per sequence reports.
        for (wal, what, order) in [
            (
                EFFECT_WAL_APPEND,
                "append",
                "the append (and its flush) must be ordered before the write",
            ),
            (EFFECT_WAL_FLUSH, "flush", "flush the WAL before writing the page it covers"),
        ] {
            let pure =
                |s: &Stmt, has: Effect, lacks: Effect| s.effect & has != 0 && s.effect & lacks == 0;
            let Some(i) = stmts.iter().position(|s| pure(s, EFFECT_DATA_WRITE, wal)) else {
                continue;
            };
            if let Some(s) = stmts[i + 1..].iter().find(|s| pure(s, wal, EFFECT_DATA_WRITE)) {
                let msg = format!(
                    "WAL {what} in `{}` follows a data-page write at line {}: {order} \
                     (WAL-before-data)",
                    n.item.name, stmts[i].line
                );
                findings.push(finding(&n.file.rel, s.line, "R13", msg));
            }
        }
        // Rename durability: each rename needs a later fsync in this
        // sequence; otherwise it bubbles to the caller scope.
        for (k, s) in stmts.iter().enumerate() {
            // A statement that renames *and* fsyncs (a helper doing
            // both) settles its own renames.
            let fsyncs = |t: &Stmt| t.effect & EFFECT_FSYNC != 0;
            if !fsyncs(s) && !stmts[k + 1..].iter().any(fsyncs) {
                pending.extend(&s.renames);
            }
        }
    }

    /// Effect + rename sites of one statement. Nested `{}` blocks are
    /// their own sequences: their unsatisfied renames attach to this
    /// statement, and their effects still count toward it.
    fn stmt_effect(
        &self,
        n: &FnNode<'a>,
        trees: &[Tree],
        effect: &mut Effect,
        renames: &mut Vec<u32>,
        findings: &mut Vec<Finding>,
    ) {
        let mut found = Scan::default();
        scan(trees, false, &mut found);
        let is_rename = |c: &&CallSite| is_fs_call(c) && c.name() == "rename";
        renames.extend(found.calls.iter().filter(is_rename).map(|c| c.line));
        for g in trees.iter().filter_map(|t| t.group_with('{')) {
            self.scan_seq(n, &g.trees, findings, renames);
            scan(&g.trees, true, &mut found);
        }
        *effect |= self.scan_effect(&found);
    }
}

/// One parsed row of DESIGN.md's ```effects``` table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EffectRow {
    pub crate_name: String,
    pub fn_name: String,
    pub arity: usize,
    pub effect: Effect,
}

/// Parse the fenced ```effects block from DESIGN.md. Row grammar:
/// `<crate> <fn>/<arity> <effects>`; effects are comma-joined canonical
/// names or `-`.
pub fn parse_design_effects(md: &str) -> Result<Vec<EffectRow>, String> {
    let parse = |(n, row): (u32, &str)| {
        let err = |what: &str| format!("{DESIGN} effects table line {n}: {what}");
        let fields: Vec<&str> = row.split_whitespace().collect();
        let [krate, func, eff] = fields[..] else {
            return Err(err("expected `<crate> <fn>/<arity> <effects>`"));
        };
        let Some((fn_name, arity)) = func.rsplit_once('/') else {
            return Err(err("fn field must be `<name>/<arity>`"));
        };
        Ok(EffectRow {
            crate_name: krate.to_string(),
            fn_name: fn_name.to_string(),
            arity: arity.parse().map_err(|_| err(&format!("bad arity {arity:?}")))?,
            effect: parse_effect_string(eff).map_err(|e| err(&e))?,
        })
    };
    fenced_rows(md, "effects")?.into_iter().map(parse).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    /// Fixture sources posing as workspace files, `(path, crate, text)`.
    fn files(srcs: &[(&str, &str, &str)]) -> Vec<SourceFile> {
        srcs.iter().map(|(rel, krate, text)| SourceFile::new(rel, krate, *text)).collect()
    }

    #[test]
    fn seeds_and_fixpoint_propagate() {
        let files = files(&[
            (
                "crates/wal/src/lib.rs",
                "wal",
                "impl Wal { pub fn append(&self, r: &R) -> u64 { self.file.sync_data(); 0 } }",
            ),
            (
                "crates/buffer/src/lib.rs",
                "buffer",
                "impl Pool { pub fn log(&self, w: &Wal) { w.append(&r); } }",
            ),
        ]);
        let graph = CallGraph::build(&files);
        let idx = infer_effects(&graph);
        let log = graph.nodes.iter().position(|n| n.qualified() == "buffer::Pool::log").unwrap();
        assert_eq!(effect_string(idx.effects[log]), "blocks,fsyncs,wal_appends");
    }

    #[test]
    fn r12_flags_two_hop_reachable_block() {
        let files = files(&[
            (
                "crates/server/src/reactor.rs",
                "server",
                "impl R { fn reactor_loop(&self) { self.helper(1); } }",
            ),
            (
                "crates/server/src/other.rs",
                "server",
                "impl H { fn helper(&self, x: u32) { self.deep(); } \
                 fn deep(&self) { self.m.lock(); } }",
            ),
        ]);
        let graph = CallGraph::build(&files);
        let idx = infer_effects(&graph);
        let r12 = idx.check_r12();
        assert_eq!(r12.len(), 1, "{r12:?}");
        assert!(r12[0].message.contains("helper"), "{}", r12[0].message);
    }

    #[test]
    fn r12_worker_and_try_paths_pass() {
        let files = files(&[
            (
                "crates/server/src/reactor.rs",
                "server",
                "impl R { fn deal(&self, c: C) { if let Some(mut g) = self.q.try_lock() { g.push(c); } } }",
            ),
            ("crates/server/src/worker.rs", "server", "pub fn worker_loop(s: &S) { s.rx.lock(); }"),
        ]);
        let graph = CallGraph::build(&files);
        let idx = infer_effects(&graph);
        assert!(idx.check_r12().is_empty(), "{:?}", idx.check_r12());
    }

    #[test]
    fn r13_write_then_append_flagged() {
        let files = files(&[
            (
                "crates/smgr/src/disk.rs",
                "smgr",
                "impl Disk { pub fn write(&self, r: R, b: u32, p: &P) -> X { self.f.write_all_at(p, o) } }",
            ),
            (
                "crates/wal/src/lib.rs",
                "wal",
                "impl Wal { pub fn append(&self, r: &R) -> u64 { 0 } }",
            ),
            (
                "crates/buffer/src/lib.rs",
                "buffer",
                "impl Pool { fn bad(&self) { self.smgr.write(r, b, &p); self.wal.append(&rec); } \
                 fn good(&self) { self.wal.append(&rec); self.smgr.write(r, b, &p); } }",
            ),
        ]);
        let graph = CallGraph::build(&files);
        let idx = infer_effects(&graph);
        let r13 = idx.check_r13();
        assert_eq!(r13.len(), 1, "{r13:?}");
        assert!(r13[0].message.contains("bad"), "{}", r13[0].message);
    }

    #[test]
    fn r13_rename_needs_dir_fsync() {
        let files = files(&[(
            "crates/heap/src/catalog.rs",
            "heap",
            "fn atomic_write(p: &Path, t: &str) { std::fs::write(&tmp, t); \
             std::fs::rename(&tmp, p); } \
             fn atomic_write_ok(p: &Path, t: &str) { std::fs::rename(&tmp, p); \
             dir.sync_all(); }",
        )]);
        let graph = CallGraph::build(&files);
        let idx = infer_effects(&graph);
        let r13 = idx.check_r13();
        assert_eq!(r13.len(), 1, "{r13:?}");
        assert!(r13[0].message.contains("atomic_write"), "{}", r13[0].message);
        assert!(!r13[0].message.contains("atomic_write_ok"), "{}", r13[0].message);
    }

    #[test]
    fn r13_rename_fsync_across_nesting() {
        let files = files(&[(
            "crates/wal/src/lib.rs",
            "wal",
            "impl Wal { fn recycle(&self) { for p in old { std::fs::rename(p, q); } \
             if moved { self.dirf.sync_all(); } } }",
        )]);
        let graph = CallGraph::build(&files);
        let idx = infer_effects(&graph);
        assert!(idx.check_r13().is_empty(), "{:?}", idx.check_r13());
    }

    #[test]
    fn design_table_roundtrip() {
        let files = files(&[(
            "crates/wal/src/lib.rs",
            "wal",
            "impl Wal { pub fn append(&self, r: &R) -> u64 { self.f.sync_data(); 0 } }",
        )]);
        let graph = CallGraph::build(&files);
        let idx = infer_effects(&graph);
        let rows = idx.design_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "wal append/1");
        let md = format!(
            "x\n```effects\n# comment\nwal append/1 {}\n```\ny\n",
            effect_string(rows[0].1)
        );
        let parsed = parse_design_effects(&md).unwrap();
        assert!(idx.check_design_table(&parsed).is_empty());
        // Wrong effects -> finding; missing row -> finding.
        let wrong = parse_design_effects("```effects\nwal append/1 blocks\n```\n").unwrap();
        assert_eq!(idx.check_design_table(&wrong).len(), 1);
        let empty = parse_design_effects("```effects\n```\n").unwrap();
        assert_eq!(idx.check_design_table(&empty).len(), 1);
    }

    #[test]
    fn effect_string_roundtrip() {
        let e = EFFECT_BLOCKS | EFFECT_WAL_APPEND;
        assert_eq!(effect_string(e), "blocks,wal_appends");
        assert_eq!(parse_effect_string("blocks,wal_appends").unwrap(), e);
        assert_eq!(parse_effect_string("-").unwrap(), 0);
        assert!(parse_effect_string("bogus").is_err());
    }
}
