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
//! impl's `f`. The documented client API is exempt. A kept item
//! carries `// LINT: allow(R14, reason)` and counts in its file's
//! `R14` row of `budget.txt`.

use crate::ast::Tree;
use crate::graph::{call_at, path_segments, CallGraph, CallSite};
use crate::source::SourceFile;
use crate::{finding, Finding};
use std::collections::BTreeSet;

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
    let mut used = BTreeSet::new();
    for f in users {
        mark_uses(graph, &f.krate, &f.trees, &mut used);
    }
    let dead = graph.nodes.iter().enumerate().filter(|(id, n)| {
        n.item.is_pub && !EXEMPT.contains(&n.file.rel.as_str()) && !used.contains(id)
    });
    dead.map(|(_, n)| {
        let msg = format!(
            "`pub fn {}` has no caller outside tests and examples: delete it, or keep it with \
             `// LINT: allow(R14, reason)`",
            n.qualified()
        );
        finding(&n.file.rel, n.item.line, "R14", msg)
    })
    .collect()
}

/// Add to `used` every graph node the trees of a `krate` file call or
/// name.
fn mark_uses(graph: &CallGraph<'_>, krate: &str, trees: &[Tree], used: &mut BTreeSet<usize>) {
    let mut i = 0usize;
    while i < trees.len() {
        let t = &trees[i];
        if t.is_ident("use") {
            // An import names a fn without using it.
            i += trees[i..].iter().position(|t| t.is_punct(';')).unwrap_or(trees.len() - i);
        } else if t.is_ident("fn") {
            // A definition's name is not a use of it.
            i += 2;
        } else if let Some((mut call, args, next)) = call_at(trees, i) {
            if let Some(ty) = turbofish_type(trees, i) {
                call.segments.insert(0, ty.to_string());
            }
            used.extend(graph.resolve_any_arity(krate, &call));
            mark_uses(graph, krate, &args.trees, used);
            i = next;
        } else if t.ident().is_some() && !(i > 0 && trees[i - 1].is_punct('.')) {
            // A path not called: a fn named as a value, unless a macro.
            let (mut segments, next) = path_segments(trees, i);
            if !trees.get(next).is_some_and(|t| t.is_punct('!')) {
                if let Some(ty) = turbofish_type(trees, i) {
                    segments.insert(0, ty.to_string());
                }
                let value = CallSite { segments, method: false, arity: 0, line: t.line() };
                used.extend(graph.resolve_any_arity(krate, &value));
            }
            i = next;
        } else {
            if let Some(g) = t.group() {
                mark_uses(graph, krate, &g.trees, used);
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
