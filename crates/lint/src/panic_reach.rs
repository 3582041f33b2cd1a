//! Panic-reachability report: a walk over the shared call graph from
//! every `pub` function of the root crates (`server`, `core`,
//! `inversion`, `buffer`) to transitive `unwrap` / `expect` / `panic!` /
//! `unreachable!` sites. The result is committed as
//! `crates/lint/panic_reach.txt` and ratcheted only-shrinks: a new
//! reachable panic site fails lint, and so does a stale entry after a
//! fix (regenerate with `--write-panic-reach`).

use crate::graph::{CallGraph, CallSite};
use crate::tables::Committed;
use std::collections::{BTreeSet, VecDeque};

/// Crates whose `pub` fns seed the walk.
pub const ROOT_CRATES: [&str; 4] = ["server", "core", "inversion", "buffer"];

/// The committed report.
pub const PANIC_REACH: Committed = Committed {
    path: "crates/lint/panic_reach.txt",
    rule: "PR",
    flag: "--write-panic-reach",
    header: "# Panic-reachability report: every unwrap/expect/panic!/unreachable! site\n\
             # transitively reachable from a pub fn of server/core/inversion/buffer.\n\
             # Regenerate with: cargo run -p pglo-lint --offline -- --write-panic-reach\n\
             # CI enforces this file matches the computed set exactly (only-shrinks).\n",
    grown: "new panic-reachable site: remove the panic path, or regenerate the report and \
            justify the growth in review",
};

/// `.unwrap(..)` / `.expect(..)`: a panic site, not an edge.
pub fn is_panic_call(call: &CallSite) -> bool {
    call.method && matches!(call.name(), "unwrap" | "expect")
}

/// Compute the sorted report lines.
pub fn panic_report(graph: &CallGraph<'_>) -> Vec<String> {
    let roots = graph.nodes.iter().enumerate().filter_map(|(id, n)| {
        (n.item.is_pub && ROOT_CRATES.contains(&n.file.krate.as_str())).then_some(id)
    });
    let mut queue: VecDeque<usize> = roots.collect();
    let mut reachable: BTreeSet<usize> = queue.iter().copied().collect();
    while let Some(id) = queue.pop_front() {
        for call in graph.nodes[id].scan.calls.iter().filter(|c| !is_panic_call(c)) {
            for target in graph.resolve(call) {
                if reachable.insert(target) {
                    queue.push_back(target);
                }
            }
        }
    }

    let mut lines: BTreeSet<String> = BTreeSet::new();
    for id in reachable {
        let n = &graph.nodes[id];
        let calls = n.scan.calls.iter().filter(|c| is_panic_call(c));
        let macros = n.scan.macros.iter().filter(|(m, _)| m == "panic" || m == "unreachable");
        let sites = calls
            .map(|c| (c.line, c.name().to_string()))
            .chain(macros.map(|(m, line)| (*line, format!("{m}!"))));
        for (line, kind) in sites {
            lines.insert(format!("{}:{line} {kind} reachable in {}", n.file.rel, n.qualified()));
        }
    }
    lines.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn report(files: &[&SourceFile]) -> Vec<String> {
        panic_report(&CallGraph::build(files.iter().copied()))
    }

    #[test]
    fn reachable_sites_only() {
        let server =
            SourceFile::new("s.rs", "server", "impl Api { pub fn open(&self) { helper(self.x) } }");
        let util = SourceFile::new(
            "u.rs",
            "heap",
            "fn helper(x: u32) { x.unwrap(); }\nfn dead() { panic!(\"never\"); }",
        );
        let report = report(&[&server, &util]);
        assert_eq!(report.len(), 1, "{report:?}");
        assert!(report[0].contains("u.rs:1 unwrap reachable in heap::helper"), "{report:?}");
    }

    #[test]
    fn module_qualified_free_fn_is_an_edge() {
        let server = SourceFile::new(
            "s.rs",
            "server",
            "pub fn serve(buf: &[u8]) { proto::decode_frame(buf); }",
        );
        let proto = SourceFile::new(
            "p.rs",
            "server",
            "fn decode_frame(buf: &[u8]) { buf.first().unwrap(); }",
        );
        let report = report(&[&server, &proto]);
        assert_eq!(report.len(), 1, "{report:?}");
        assert!(
            report[0].contains("p.rs:1 unwrap reachable in server::decode_frame"),
            "{report:?}"
        );
    }

    #[test]
    fn non_root_pub_is_not_a_seed() {
        let heap = SourceFile::new("h.rs", "heap", "pub fn lonely() { x.expect(\"boom\"); }");
        assert!(report(&[&heap]).is_empty());
        let buf = SourceFile::new("b.rs", "buffer", "pub fn entry() { x.expect(\"boom\"); }");
        assert_eq!(report(&[&buf]).len(), 1);
    }
}
