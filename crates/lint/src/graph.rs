//! The workspace call graph, built once and shared: the effect engine
//! runs its fixpoint over it, R7 reads its tier B wrappers off it, and
//! R14 checks every `pub` node for a user. This module owns the one
//! call-shape recognizer ([`call_at`]), the one body scanner
//! ([`scan`]), the statement splitter and the resolution maps.
//!
//! Name resolution is by `(name, arity)` with `Qual::fn` path matching —
//! an over-approximation (two crates' `fn flush(&self)` merge), which
//! is the right direction for every client: it can overcount what a
//! call reaches, never hide it. Each client decides which call sites
//! it follows as edges; the graph resolves whatever it is asked.

use crate::ast::{call_arity, FnItem, Group, Tree};
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// Names shared with std collections, traits and iterator / `Option` /
/// `Result` plumbing. Resolution is `(name, arity)` only, so a
/// workspace fn with one of these names (`DiskManager::len`, which
/// stats the file) would otherwise claim every `BTreeMap::len()` call:
/// the effect engine follows no method or bare edge to them, and R7
/// makes none of them a tier B wrapper. The cost is accepted: holding
/// a lock across a smgr `len()` is metadata-only I/O, far less harmful
/// than the false-positive flood.
pub const GENERIC_NAMES: [&str; 36] = [
    "len",
    "is_empty",
    "clear",
    "get",
    "insert",
    "remove",
    "push",
    "pop",
    "contains",
    "contains_key",
    "iter",
    "next",
    "clone",
    "new",
    "default",
    "fmt",
    "eq",
    "hash",
    "drop",
    "take",
    "into",
    "from",
    "map",
    "and_then",
    "or_else",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "err",
    "as_ref",
    "as_mut",
    "to_string",
    "to_vec",
    "collect",
    "extend_from_slice",
];

/// One syntactic call: `.name(args)`, `a::b::name(args)` or `name(args)`.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// `::`-separated path segments; exactly one for a method or bare
    /// call.
    pub segments: Vec<String>,
    /// `.name(..)` form.
    pub method: bool,
    pub arity: usize,
    /// Line of the method name, or of the argument list's `(`.
    pub line: u32,
}

impl CallSite {
    pub fn name(&self) -> &str {
        self.segments.last().map_or("", String::as_str)
    }

    /// The segment before the name: an impl type or a module.
    pub fn qual(&self) -> Option<&str> {
        self.segments.len().checked_sub(2).map(|k| self.segments[k].as_str())
    }
}

/// What [`scan`] finds in a body.
#[derive(Debug, Default)]
pub struct Scan {
    /// Every call site, outermost first.
    pub calls: Vec<CallSite>,
}

/// Collect `a :: b :: c` starting at `trees[i]` (an ident); returns the
/// segments and the index just past the last one.
pub fn path_segments(trees: &[Tree], i: usize) -> (Vec<String>, usize) {
    let mut segs = Vec::new();
    let mut j = i;
    while let Some(id) = trees.get(j).and_then(|t| t.ident()) {
        segs.push(id.to_string());
        if trees.get(j + 1).is_some_and(|t| t.is_punct(':'))
            && trees.get(j + 2).is_some_and(|t| t.is_punct(':'))
            && trees.get(j + 3).and_then(|t| t.ident()).is_some()
        {
            j += 3;
        } else {
            j += 1;
            break;
        }
    }
    (segs, j)
}

/// The call starting at `trees[i]`, if there is one: a `.` opening a
/// method call, or the first ident of a path or bare call (an ident
/// after a `.` is a field, not a path). Returns the site, its argument
/// group and the index just past it.
pub fn call_at(trees: &[Tree], i: usize) -> Option<(CallSite, &Group, usize)> {
    let (segments, at, method) = if trees[i].is_punct('.') {
        (vec![trees.get(i + 1)?.ident()?.to_string()], i + 2, true)
    } else if trees[i].ident().is_some() && !(i > 0 && trees[i - 1].is_punct('.')) {
        let (segments, after) = path_segments(trees, i);
        (segments, after, false)
    } else {
        return None;
    };
    let at = skip_turbofish(trees, at);
    let args = trees.get(at)?.group_with('(')?;
    let line = if method { trees[i + 1].line() } else { args.line };
    Some((CallSite { segments, method, arity: call_arity(args), line }, args, at + 1))
}

/// The index just past a `::<..>` turbofish starting at `trees[i]`
/// (`page.init::<16>()`, `need::<4>(b)`), or `i` if none starts there.
fn skip_turbofish(trees: &[Tree], i: usize) -> usize {
    let punct = |k: usize, c: char| trees.get(k).is_some_and(|t| t.is_punct(c));
    if !(punct(i, ':') && punct(i + 1, ':') && punct(i + 2, '<')) {
        return i;
    }
    let mut depth = 0usize;
    for k in i + 2..trees.len() {
        if punct(k, '<') {
            depth += 1;
        } else if punct(k, '>') && !punct(k - 1, '-') {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
    }
    i
}

/// Scan a body for call sites. Argument lists,
/// `(..)` and `[..]` groups are always entered; `{..}` blocks only when
/// `deep` (a statement-level client handles those as their own
/// sequences).
pub fn scan(trees: &[Tree], deep: bool, out: &mut Scan) {
    let mut i = 0usize;
    while i < trees.len() {
        if let Some((call, args, next)) = call_at(trees, i) {
            out.calls.push(call);
            scan(&args.trees, deep, out);
            i = next;
            continue;
        }
        if let Some(g) = trees[i].group().filter(|g| deep || g.delim != '{') {
            scan(&g.trees, deep, out);
        }
        i += 1;
    }
}

/// Split a block's trees into statements: a statement ends at a
/// top-level `;` (exclusive) or a top-level `{..}` group not followed by
/// `else` (inclusive — covers `if`/`match`/`loop` bodies).
pub fn split_stmts(trees: &[Tree]) -> Vec<&[Tree]> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for i in 0..trees.len() {
        if trees[i].is_punct(';') {
            if start < i {
                out.push(&trees[start..i]);
            }
            start = i + 1;
        } else if trees[i].group_with('{').is_some()
            && !trees.get(i + 1).is_some_and(|t| t.is_ident("else"))
        {
            out.push(&trees[start..=i]);
            start = i + 1;
        }
    }
    if start < trees.len() {
        out.push(&trees[start..]);
    }
    out
}

/// One function definition with what its body calls.
pub struct FnNode<'a> {
    pub file: &'a SourceFile,
    pub item: &'a FnItem,
    pub scan: Scan,
}

impl FnNode<'_> {
    /// `crate::[Qual::]name`, as findings print it.
    pub fn qualified(&self) -> String {
        let qual = self.item.qual.as_deref().map(|q| format!("{q}::")).unwrap_or_default();
        format!("{}::{qual}{}", self.file.krate, self.item.name)
    }
}

/// Every function of the given files, and the maps that resolve a call
/// site to the definitions it may reach.
pub struct CallGraph<'a> {
    pub nodes: Vec<FnNode<'a>>,
    /// `(name, arity)` of fns taking `self`.
    methods: BTreeMap<(&'a str, usize), Vec<usize>>,
    /// `(impl or trait type, name)` of associated fns.
    by_qual: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    /// `(name, arity)` of free fns.
    free: BTreeMap<(&'a str, usize), Vec<usize>>,
}

impl<'a> CallGraph<'a> {
    pub fn build(files: impl IntoIterator<Item = &'a SourceFile>) -> Self {
        let mut graph = CallGraph {
            nodes: Vec::new(),
            methods: BTreeMap::new(),
            by_qual: BTreeMap::new(),
            free: BTreeMap::new(),
        };
        for file in files {
            for item in &file.items.fns {
                let mut found = Scan::default();
                if let Some(body) = &item.body {
                    scan(&body.trees, true, &mut found);
                }
                let id = graph.nodes.len();
                if item.has_self {
                    graph.methods.entry((item.name.as_str(), item.arity)).or_default().push(id);
                }
                match &item.qual {
                    Some(q) => graph.by_qual.entry((q.as_str(), &item.name)).or_default().push(id),
                    None => {
                        graph.free.entry((item.name.as_str(), item.arity)).or_default().push(id)
                    }
                }
                graph.nodes.push(FnNode { file, item, scan: found });
            }
        }
        graph
    }

    /// The definitions a call site may reach. A path whose lowercase
    /// qual names no impl type is tried as a module-qualified free fn
    /// (`proto::decode_frame`).
    pub fn resolve(&self, call: &CallSite) -> Vec<usize> {
        let key = (call.name(), call.arity);
        let found = if call.method {
            self.methods.get(&key)
        } else if let Some(qual) = call.qual() {
            let ids = self.by_qual.get(&(qual, call.name())).map_or(&[][..], Vec::as_slice);
            // Prefer arity matches when any exist; otherwise keep the
            // whole qual+name set (defaults/generics shift arity).
            let exact: Vec<usize> =
                ids.iter().copied().filter(|&i| self.nodes[i].item.arity == call.arity).collect();
            if !exact.is_empty() {
                return exact;
            }
            if !ids.is_empty() || !qual.starts_with(char::is_lowercase) {
                return ids.to_vec();
            }
            self.free.get(&key)
        } else {
            self.free.get(&key)
        };
        found.cloned().unwrap_or_default()
    }

    /// The definitions a use may name, whatever the arity (generic
    /// parameter types can skew a definition's count): a `.name(..)`
    /// method, `Qual::name` as [`resolve`](Self::resolve) reads it,
    /// `Self::name` as any same-`krate` impl's `name`, a bare `name` as
    /// any free fn of that name.
    pub fn resolve_any_arity(&self, krate: &str, call: &CallSite) -> Vec<usize> {
        let name = call.name();
        let by_name = |map: &BTreeMap<(&str, usize), Vec<usize>>| -> Vec<usize> {
            let ids = map.range((name, 0)..=(name, usize::MAX));
            ids.flat_map(|(_, ids)| ids.iter().copied()).collect()
        };
        if call.method {
            return by_name(&self.methods);
        }
        match call.qual() {
            None => by_name(&self.free),
            Some("Self") => {
                let of_impl = |n: &FnNode<'_>| {
                    n.file.krate == krate && n.item.qual.is_some() && n.item.name == name
                };
                (0..self.nodes.len()).filter(|&id| of_impl(&self.nodes[id])).collect()
            }
            Some(qual) => match self.by_qual.get(&(qual, name)) {
                Some(ids) => ids.clone(),
                None if qual.starts_with(char::is_lowercase) => by_name(&self.free),
                None => Vec::new(),
            },
        }
    }
}
