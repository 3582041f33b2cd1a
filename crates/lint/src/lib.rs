//! `pglo-lint`: static enforcement of the workspace's concurrency and
//! robustness rules — layer 2 of the correctness tooling (layer 1 is the
//! runtime lock-rank checker in `shims/parking_lot`).
//!
//! The rules — what each enforces, its escape hatch and what it has
//! caught — are listed once, in `crates/lint/README.md`.
//!
//! Hand-rolled and dependency-free, and each fact about the workspace
//! is computed once and handed to every rule that reads it:
//!
//! - [`source`]: one [`SourceFile`] per file — tokens, test mask, token
//!   trees ([`ast`]), parsed items, `LINT: allow` directives.
//! - [`graph`]: one [`CallGraph`] over the engine crates' library code —
//!   per-fn call sites from the one body scanner, `(name, arity)`
//!   resolution. The effect engine ([`effects`]), R7's tier B
//!   ([`flow`]) and R14 ([`dead`]) all read it.
//! - [`tables`]: the reader for DESIGN.md's `atomics-protocol` table
//!   ([`atomics`]), one budget, one allow matcher.
//! - [`rules`]: the token-shape rules.
//! - [`driver`]: [`check_workspace`] runs every rule; `main.rs` only
//!   prints.

use std::fmt;
use std::path::PathBuf;

pub mod ast;
pub mod atomics;
pub mod dead;
pub mod driver;
pub mod effects;
pub mod flow;
pub mod graph;
pub mod rules;
pub mod source;
pub mod tables;

pub use dead::check_dead_api;
pub use driver::{check_workspace, Report};
pub use effects::infer_effects;
pub use flow::{check_guard_flow, check_manually_drop_types, WorkspaceIndex};
pub use graph::CallGraph;
pub use source::{load_workspace, SourceFile};
pub use tables::{collect_allows, Allows};

/// One rule violation at a source location.
#[derive(Debug)]
pub struct Finding {
    pub path: PathBuf,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `path:line: R# message` — one finding per line, so CI
        // annotations and editors can jump straight to the site.
        write!(f, "{}:{}: {} {}", self.path.display(), self.line, self.rule, self.message)
    }
}

pub(crate) fn finding(path: &str, line: u32, rule: &'static str, message: String) -> Finding {
    Finding { path: PathBuf::from(path), line, rule, message }
}
