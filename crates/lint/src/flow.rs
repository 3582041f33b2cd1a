//! Intra-function dataflow over guard bindings: R7, no blocking I/O
//! while a lock guard or page pin is live.
//!
//! The model is deliberately simple and sound-for-our-idioms rather than
//! complete: a guard is born at a `let`/`if let`/`let-else` whose
//! initializer's *last* postfix call is a lock acquisition (`.lock()`,
//! `.read()`, `.write()`, `try_*` — zero-arg), a buffer pin
//! (`.pin(..)`, `.pin_with_hint(..)`), or a same-crate function whose
//! return type names a guard type (`claim_frame` returning a
//! `RwLockWriteGuard` tuple). It dies at `drop(g)` / `mem::drop(g)` or
//! at the end of its enclosing block; shadowing does not kill it.
//! Match-arm bindings are not tracked (no current workspace guard flows
//! through one).
//!
//! R7 sinks come in two tiers: Tier A is a fixed table of device-I/O
//! call shapes (`smgr` trait ops, host-file and `Vfs` ops,
//! `std::fs`/`std::net` path calls); Tier B is any *same-crate* function whose call-graph
//! node directly holds a Tier A call site (one hop, no fixpoint —
//! `write_back` in `buffer`). Cross-crate calls are never Tier B: a
//! public API like `pool.new_page` encapsulates its own locking
//! discipline, and the rank table already orders caller locks above
//! pool internals — which is also why Tier B is not the effect engine's
//! transitive `blocks` set.

use crate::ast::{call_arity, Group, Tree};
use crate::graph::{call_at, split_stmts, CallGraph, CallSite, GENERIC_NAMES};
use crate::source::SourceFile;
use crate::{finding, Finding};
use std::collections::BTreeSet;

/// Zero-arg methods whose result is a lock guard.
const LOCK_METHODS: [&str; 7] =
    ["lock", "read", "write", "try_lock", "try_read", "try_write", "upgradable_read"];

/// Methods that acquire a buffer pin (RAII `PinnedPage`).
const PIN_METHODS: [&str; 2] = ["pin", "pin_with_hint"];

/// Guard types: a `let` whose annotation or initializer's callee return
/// type names one of these binds a guard.
const GUARD_TYPES: [&str; 9] = [
    "MutexGuard",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "MappedMutexGuard",
    "MappedRwLockReadGuard",
    "MappedRwLockWriteGuard",
    "PinnedPage",
    "PageReadGuard",
    "PageWriteGuard",
];

/// Tier A sink methods (and bare calls): `(name, exact call arity)`. The
/// arity keeps common names honest — `smgr.read(rel, block, buf)` is
/// device I/O, `rwlock.read()` is a guard acquisition, `file.read(buf)`
/// is neither.
const SINK_METHODS: [(&str, usize); 27] = [
    // smgr trait device ops
    ("read", 3),
    ("write", 3),
    ("read_many", 3),
    ("extend", 2),
    ("allocate", 1),
    ("sync", 1),
    // host-file ops
    ("sync_all", 0),
    ("sync_data", 0),
    ("read_exact_at", 2),
    ("write_all_at", 2),
    ("read_at", 2),
    ("write_at", 2),
    ("read_exact", 1),
    ("write_all", 1),
    ("set_len", 1),
    ("metadata", 0),
    ("exists", 0),
    ("open", 1),
    ("flush", 0),
    // the file layer's (`Vfs`) path ops and handle length; its handle
    // ops share the host-file shapes above
    ("file_len", 0),
    ("exists", 2),
    ("rename_file", 3),
    ("remove_file", 2),
    ("sync_dir", 2),
    ("list_dir", 2),
    ("create_dir", 2),
    // network
    ("accept", 0),
];

/// Path-call sinks: any `std::fs::*` / `fs::*` call, plus constructors
/// on these types (`File::open`, `VFile::create`, `TcpStream::connect`,
/// ...).
const SINK_PATH_TYPES: [&str; 6] =
    ["File", "VFile", "TcpStream", "TcpListener", "UnixStream", "UnixListener"];

/// Whether a call site is a Tier A sink.
fn is_sink(call: &CallSite) -> bool {
    match call.qual() {
        Some(qual) => call.segments.iter().any(|s| s == "fs") || SINK_PATH_TYPES.contains(&qual),
        None => SINK_METHODS.contains(&(call.name(), call.arity)),
    }
}

/// Workspace-level facts the per-function walk needs: Tier B wrappers
/// and guard-returning functions.
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    /// `(crate, fn, arity)` of fns whose body directly contains a Tier A sink.
    io_wrappers: BTreeSet<(String, String, usize)>,
    /// `(crate, fn, arity)` of fns whose return type names a guard type.
    guard_fns: BTreeSet<(String, String, usize)>,
}

impl WorkspaceIndex {
    /// Read the facts off the call graph's nodes (fns with bodies).
    pub fn build(graph: &CallGraph<'_>) -> Self {
        let mut idx = WorkspaceIndex::default();
        for n in graph.nodes.iter().filter(|n| n.item.body.is_some()) {
            let (krate, f) = (n.file.krate.clone(), n.item);
            if n.scan.calls.iter().any(is_sink) && !GENERIC_NAMES.contains(&f.name.as_str()) {
                idx.io_wrappers.insert((krate.clone(), f.name.clone(), f.arity));
            }
            if names_guard_type(&f.ret) {
                idx.guard_fns.insert((krate, f.name.clone(), f.arity));
            }
        }
        idx
    }
}

#[derive(Debug, Clone)]
struct GuardBinding {
    name: String,
    line: u32,
    kind: &'static str,
    /// Depth of the block whose `drop(..)` released it, while that
    /// block is still being walked.
    dropped_at: Option<usize>,
}

/// Run R7 over every function in a file.
pub fn check_guard_flow(file: &SourceFile, idx: &WorkspaceIndex) -> Vec<Finding> {
    let (path, crate_name) = (file.rel.as_str(), file.krate.as_str());
    let mut ctx = FlowCtx { path, crate_name, idx, findings: Vec::new(), scopes: Vec::new() };
    for body in file.items.fns.iter().filter_map(|f| f.body.as_ref()) {
        ctx.scopes.clear();
        ctx.walk_block(&body.trees, Vec::new());
    }
    ctx.findings
}

struct FlowCtx<'a> {
    path: &'a str,
    crate_name: &'a str,
    idx: &'a WorkspaceIndex,
    findings: Vec<Finding>,
    scopes: Vec<Vec<GuardBinding>>,
}

impl FlowCtx<'_> {
    fn walk_block(&mut self, trees: &[Tree], preloaded: Vec<GuardBinding>) {
        self.scopes.push(preloaded);
        for s in split_stmts(trees) {
            self.stmt(s);
        }
        // A drop made inside this block ends with it: the path that
        // skipped the block (an untaken `if` or `match` arm) still holds
        // the guard. A block ending in `return`/`break` never rejoins,
        // but erring towards "still live" can only over-report.
        let depth = self.scopes.len();
        self.scopes.pop();
        for g in self.scopes.iter_mut().flatten().filter(|g| g.dropped_at == Some(depth)) {
            g.dropped_at = None;
        }
    }

    fn kill(&mut self, name: &str) {
        let depth = self.scopes.len();
        let live = self.scopes.iter_mut().rev().flat_map(|scope| scope.iter_mut().rev());
        if let Some(g) = live.into_iter().find(|g| g.name == name && g.dropped_at.is_none()) {
            g.dropped_at = Some(depth);
        }
    }

    fn stmt(&mut self, s: &[Tree]) {
        if s.is_empty() {
            return;
        }
        if s[0].is_ident("let") {
            self.let_stmt(s);
            return;
        }
        self.expr_seq(s);
    }

    /// `let [mut] PAT [: TY] = INIT [else { .. }]` — walk the init (its
    /// calls run before the binding exists), then register guard
    /// bindings from the pattern if the init (or the type annotation)
    /// produces a guard.
    fn let_stmt(&mut self, s: &[Tree]) {
        let Some(eq) = find_let_eq(s) else {
            // `let g;` — deferred init, not a guard source we model.
            return;
        };
        let (pat, ty) = split_pattern(&s[1..eq]);
        let mut init = &s[eq + 1..];
        // `let PAT = INIT else { .. }`: the else block runs only when the
        // pattern did NOT match, so no guard is live inside it.
        if let Some(else_at) = init.iter().position(|t| t.is_ident("else")) {
            let (head, tail) = init.split_at(else_at);
            init = head;
            self.expr_seq(tail);
        }
        self.expr_seq(init);
        let kind = guard_origin(init, self.crate_name, self.idx)
            .or_else(|| names_guard_type(ty).then_some("guard (typed)"));
        if let (Some(kind), Some(scope)) = (kind, self.scopes.last_mut()) {
            bind_pattern(pat, kind, scope);
        }
    }

    /// Walk an expression region: recurse into groups (blocks get a drop
    /// scope), track `drop(g)`, check sink calls, and handle
    /// `if let`/`while let` guard bindings.
    fn expr_seq(&mut self, trees: &[Tree]) {
        let mut i = 0usize;
        while i < trees.len() {
            let t = &trees[i];
            // `if let` / `while let`: bind pattern guards inside the body.
            if (t.is_ident("if") || t.is_ident("while"))
                && trees.get(i + 1).is_some_and(|x| x.is_ident("let"))
            {
                i = self.if_let(trees, i);
                continue;
            }
            if let Some((call, args, next)) = call_at(trees, i) {
                self.call(&call, args);
                self.expr_seq(&args.trees);
                i = next;
                continue;
            }
            match t {
                Tree::Group(g) if g.delim == '{' => self.walk_block(&g.trees, Vec::new()),
                Tree::Group(g) => self.expr_seq(&g.trees),
                _ => {}
            }
            i += 1;
        }
    }

    /// One call site, with the current guards live: `drop(g)` /
    /// `mem::drop(g)` kills a binding, a Tier A sink or a same-crate
    /// Tier B wrapper (never a path call) is a finding.
    fn call(&mut self, call: &CallSite, args: &Group) {
        let (name, qual) = (call.name(), call.qual());
        let wrapper = || (self.crate_name.to_string(), name.to_string(), call.arity);
        if !call.method && name == "drop" {
            if let Some(n) = single_ident(&args.trees) {
                self.kill(&n);
            }
        } else if is_sink(call) {
            self.report_sink(name, call.line, "device/fs/net call");
        } else if qual.is_none() && self.idx.io_wrappers.contains(&wrapper()) {
            self.report_sink(name, call.line, "same-crate I/O wrapper");
        }
    }

    /// Handle `if let PAT = INIT { BODY } [else ..]` starting at
    /// `trees[i]`; returns the index to resume at.
    fn if_let(&mut self, trees: &[Tree], i: usize) -> usize {
        let Some(rel_eq) = find_let_eq(&trees[i + 2..]) else { return i + 2 };
        let eq = i + 2 + rel_eq;
        let (pat, _ty) = split_pattern(&trees[i + 2..eq]);
        // Init runs up to the body block.
        let mut b = eq + 1;
        while b < trees.len() && trees[b].group_with('{').is_none() {
            b += 1;
        }
        let init = &trees[eq + 1..b];
        self.expr_seq(init);
        let mut preloaded = Vec::new();
        if let Some(kind) = guard_origin(init, self.crate_name, self.idx) {
            bind_pattern(pat, kind, &mut preloaded);
        }
        if let Some(body) = trees.get(b).and_then(|t| t.group_with('{')) {
            self.walk_block(&body.trees, preloaded);
            b + 1
        } else {
            b
        }
    }

    fn report_sink(&mut self, name: &str, line: u32, what: &str) {
        let live = self.scopes.iter().flatten().filter(|g| g.dropped_at.is_none());
        let list: Vec<String> =
            live.map(|g| format!("`{}` ({}, bound line {})", g.name, g.kind, g.line)).collect();
        if list.is_empty() {
            return;
        }
        let list = list.join(", ");
        self.findings.push(finding(
            self.path,
            line,
            "R7",
            format!(
                "{list} still live across `{name}` ({what}): drop the guard first, \
                 restructure to copy-out/copy-in, or annotate the call site with \
                 `// LINT: allow(R7, reason)`"
            ),
        ));
    }
}

/// The `=` of `let PAT [: TY] = INIT`: the first `=` outside the
/// annotation's angle brackets that does not start `==` or `=>`. The
/// tokenizer keeps no adjacency, so the `>` closing
/// `Option<RwLockWriteGuard<'_, T>>` followed by `=` would otherwise
/// read as `>=` and hide the binding from R7.
fn find_let_eq(trees: &[Tree]) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in trees.iter().enumerate() {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !(i > 0 && trees[i - 1].is_punct('-')) {
            // `->` in an `impl Fn() -> T` annotation closes nothing.
            depth = depth.saturating_sub(1);
        } else if t.is_punct('=')
            && depth == 0
            && !trees.get(i + 1).is_some_and(|n| n.is_punct('=') || n.is_punct('>'))
        {
            return Some(i);
        }
    }
    None
}

/// Split `PAT [: TY]` at the top-level annotation colon (single `:`).
fn split_pattern(trees: &[Tree]) -> (&[Tree], &[Tree]) {
    for i in 0..trees.len() {
        if trees[i].is_punct(':')
            && !trees.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !(i > 0 && trees[i - 1].is_punct(':'))
        {
            return (&trees[..i], &trees[i + 1..]);
        }
    }
    (trees, &[])
}

/// Bind a `kind` guard for every lower-case binding name in a pattern:
/// skips constructors (uppercase), keywords, `_`, and path segments
/// (`module::Variant`).
fn bind_pattern(pat: &[Tree], kind: &'static str, out: &mut Vec<GuardBinding>) {
    for (i, t) in pat.iter().enumerate() {
        if let Tree::Group(g) = t {
            bind_pattern(&g.trees, kind, out);
        }
        let Some(id) = t.ident() else { continue };
        if !matches!(id, "mut" | "ref" | "box" | "_")
            && !id.starts_with(char::is_uppercase)
            && !pat.get(i + 1).is_some_and(|n| n.is_punct(':'))
        {
            out.push(GuardBinding { name: id.to_string(), line: t.line(), kind, dropped_at: None });
        }
    }
}

fn single_ident(trees: &[Tree]) -> Option<String> {
    match trees {
        [t] => t.ident().map(str::to_string),
        _ => None,
    }
}

/// True if any ident in `trees` (recursing into groups — guard types
/// hide inside `Result<Option<(usize, RwLockWriteGuard<..>)>>` tuples)
/// names a guard type.
fn names_guard_type(trees: &[Tree]) -> bool {
    trees.iter().any(|t| match t {
        Tree::Tok(_) => t.ident().is_some_and(|i| GUARD_TYPES.contains(&i)),
        Tree::Group(g) => names_guard_type(&g.trees),
    })
}

/// Classify an initializer expression as a guard acquisition. Trailing
/// `?` is ignored; the *last* postfix call decides (so
/// `inner.lock().field.len()` is not a guard, the temporary died
/// mid-statement).
fn guard_origin(init: &[Tree], crate_name: &str, idx: &WorkspaceIndex) -> Option<&'static str> {
    let mut end = init.len();
    while end > 0 && init[end - 1].is_punct('?') {
        end -= 1;
    }
    let init = &init[..end];
    if init.len() >= 2 {
        if let (Some(g), Some(m)) =
            (init[init.len() - 1].group_with('('), init[init.len() - 2].ident())
        {
            let arity = call_arity(g);
            let is_method = init.len() >= 3 && init[init.len() - 3].is_punct('.');
            if is_method && arity == 0 && LOCK_METHODS.contains(&m) {
                return Some("lock guard");
            }
            if is_method && PIN_METHODS.contains(&m) {
                return Some("buffer pin");
            }
            if idx.guard_fns.contains(&(crate_name.to_string(), m.to_string(), arity)) {
                return Some("frame guard");
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(src: &str) -> Vec<Finding> {
        let file = SourceFile::new("x.rs", "x", src);
        let idx = WorkspaceIndex::build(&CallGraph::build([&file]));
        check_guard_flow(&file, &idx)
    }

    #[test]
    fn r7_guard_live_across_device_io() {
        let f =
            check("fn f(&self) { let g = self.state.lock(); self.smgr.read(rel, block, buf); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "R7");
        assert!(f[0].message.contains("`g`"), "{}", f[0].message);
    }

    #[test]
    fn r7_drop_and_scope_end_clear() {
        let dropped =
            check("fn f(&self) { let g = self.state.lock(); drop(g); self.smgr.read(a, b, c); }");
        assert!(dropped.is_empty(), "{dropped:?}");
        let scoped = check(
            "fn f(&self) { { let g = self.state.lock(); g.touch(); } self.smgr.read(a, b, c); }",
        );
        assert!(scoped.is_empty(), "{scoped:?}");
    }

    #[test]
    fn r7_if_let_and_wrapper() {
        // try_write guard live at a same-crate wrapper (persist directly
        // does fs I/O, so calling it under the guard is Tier B).
        let src = "
            fn persist(&self, text: &str) { std::fs::write(self.path, text); }
            fn f(&self) {
                if let Some(mut d) = self.frames.data.try_write() {
                    self.persist(d.text());
                }
            }";
        let f = check(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("persist"), "{}", f[0].message);
        assert!(f[0].message.contains("`d`"));
    }

    #[test]
    fn r7_guard_fn_return_and_tuple_pattern() {
        let src = "
            impl Pool {
                fn claim(&self, k: Key) -> Result<Option<(usize, RwLockWriteGuard<'_, F>)>> { body() }
                fn f(&self, smgr: &S) {
                    let Some((idx, mut data)) = self.claim(k)? else { return; };
                    smgr.read(k.rel, k.block, &mut data.page);
                }
            }";
        let f = check(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("frame guard"), "{}", f[0].message);
    }

    #[test]
    fn r7_temporary_guard_is_not_tracked() {
        let f =
            check("fn f(&self) { let n = self.inner.lock().queue.len(); self.smgr.sync(rel); }");
        assert!(f.is_empty(), "{f:?}");
    }
}
