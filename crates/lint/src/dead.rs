//! R14 dead public API: a `pub fn` of an engine crate that no non-test
//! code uses. The checked set is the shared [`CallGraph`]'s `pub`
//! nodes (free fns and inherent methods: trait items take no `pub`);
//! the users are the non-test code of the library crates, their
//! `src/bin/*` binaries and the benchmark crate (`lobench` included).
//! `tests/`, `examples/` and `#[cfg(test)]` code do not count, so an
//! API only a test exercises is reported. A use is a call the graph
//! resolves to the fn, whatever its arity, or a path naming it as a
//! value (`map(T::f)`, `Type::<G>::f`);
//! `use` imports are not uses. `Self::f` stands for every same-crate
//! impl's `f`. A use inside a checked fn's body counts only once that fn
//! is itself used (a fixpoint from the roots: all other user code,
//! non-`pub` and trait-item bodies included), so two dead fns of one
//! name cannot keep each other alive. The documented client API is
//! exempt. A kept item carries `// LINT: allow(R14, reason)` and counts
//! in its file's `R14` row of `budget.txt`.

use crate::ast::Tree;
use crate::graph::{call_at, path_segments, CallGraph, CallSite};
use crate::source::SourceFile;
use crate::{finding, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// Checked fns by `(line of fn, name)`, in the file being walked.
type Bodies<'a> = BTreeMap<(u32, &'a str), usize>;

/// What each scope uses: `None` is user code outside every checked fn
/// (the roots), `Some(id)` the body of checked fn `id`.
type Uses = BTreeMap<Option<usize>, BTreeSet<usize>>;

/// The documented client API: public for programs outside the
/// workspace, whether or not anything inside it calls them.
const EXEMPT: [&str; 1] = ["crates/server/src/client.rs"];

/// Whether `file`'s non-test code counts as a user: library code
/// (binaries included) and the benchmark crate.
pub fn is_user(file: &SourceFile) -> bool {
    file.lib || file.rel.starts_with("crates/bench/")
}

/// R14: every checked `pub fn` of `graph` that no code in `users` uses.
pub fn check_dead_api<'a>(
    graph: &CallGraph<'_>,
    users: impl IntoIterator<Item = &'a SourceFile>,
) -> Vec<Finding> {
    let checked = |id: &usize| {
        let n = &graph.nodes[*id];
        n.item.is_pub && !EXEMPT.contains(&n.file.rel.as_str())
    };
    let mut uses = Uses::new();
    for f in users {
        let bodies: Bodies<'_> = (0..graph.nodes.len())
            .filter(|id| checked(id) && graph.nodes[*id].file.rel == f.rel)
            .map(|id| ((graph.nodes[id].item.line, graph.nodes[id].item.name.as_str()), id))
            .collect();
        mark_uses(graph, &f.krate, &f.trees, &bodies, None, &mut uses);
    }
    let mut used = BTreeSet::new();
    let mut todo: Vec<usize> = uses.get(&None).into_iter().flatten().copied().collect();
    while let Some(id) = todo.pop() {
        if used.insert(id) {
            todo.extend(uses.get(&Some(id)).into_iter().flatten());
        }
    }
    let dead = (0..graph.nodes.len()).filter(|id| checked(id) && !used.contains(id));
    dead.map(|id| {
        let n = &graph.nodes[id];
        let msg = format!(
            "`pub fn {}` has no caller outside tests and examples: delete it, or keep it with \
             `// LINT: allow(R14, reason)`",
            n.qualified()
        );
        finding(&n.file.rel, n.item.line, "R14", msg)
    })
    .collect()
}

/// Add to `uses[owner]` every graph node the trees of a `krate` file
/// call or name; the body of a checked fn in `bodies` is its own owner.
fn mark_uses(
    graph: &CallGraph<'_>,
    krate: &str,
    trees: &[Tree],
    bodies: &Bodies<'_>,
    owner: Option<usize>,
    uses: &mut Uses,
) {
    let mut i = 0usize;
    while i < trees.len() {
        let t = &trees[i];
        let used = |uses: &mut Uses, ids: Vec<usize>| uses.entry(owner).or_default().extend(ids);
        if t.is_ident("use") {
            // An import names a fn without using it.
            i += trees[i..].iter().position(|t| t.is_punct(';')).unwrap_or(trees.len() - i);
        } else if t.is_ident("fn") {
            // A definition's name is not a use of it.
            let body =
                trees.get(i + 1).and_then(Tree::ident).and_then(|n| bodies.get(&(t.line(), n)));
            i += 2;
            if let Some(&id) = body {
                let end =
                    trees[i..].iter().position(|t| t.is_punct(';') || t.group_with('{').is_some());
                if let Some(g) = end.and_then(|k| trees[i + k].group_with('{')) {
                    mark_uses(graph, krate, &g.trees, bodies, Some(id), uses);
                }
                i += end.map_or(trees.len() - i, |k| k + 1);
            }
        } else if let Some((mut call, args, next)) = call_at(trees, i) {
            if let Some(ty) = turbofish_type(trees, i) {
                call.segments.insert(0, ty.to_string());
            }
            used(uses, graph.resolve_any_arity(krate, &call));
            mark_uses(graph, krate, &args.trees, bodies, owner, uses);
            i = next;
        } else if t.ident().is_some() && !(i > 0 && trees[i - 1].is_punct('.')) {
            // A path not called: a fn named as a value, unless a macro.
            let (mut segments, next) = path_segments(trees, i);
            if !trees.get(next).is_some_and(|t| t.is_punct('!')) {
                if let Some(ty) = turbofish_type(trees, i) {
                    segments.insert(0, ty.to_string());
                }
                let value = CallSite { segments, method: false, arity: 0, line: t.line() };
                used(uses, graph.resolve_any_arity(krate, &value));
            }
            i = next;
        } else {
            if let Some(g) = t.group() {
                mark_uses(graph, krate, &g.trees, bodies, owner, uses);
            }
            i += 1;
        }
    }
}

/// `Type` of a `Type::<..>::name` path whose `name` starts at
/// `trees[i]`: the generic arguments cut the path the scanner sees.
fn turbofish_type(trees: &[Tree], i: usize) -> Option<&str> {
    let colons = |k: usize| trees[k - 1].is_punct(':') && trees[k].is_punct(':');
    if i < 3 || !colons(i - 1) || !trees[i - 3].is_punct('>') {
        return None;
    }
    let mut depth = 0usize;
    for k in (0..i - 2).rev() {
        if trees[k].is_punct('>') {
            depth += 1;
        } else if trees[k].is_punct('<') {
            depth -= 1;
            if depth == 0 {
                return if k >= 3 && colons(k - 1) { trees[k - 3].ident() } else { None };
            }
        }
    }
    None
}
