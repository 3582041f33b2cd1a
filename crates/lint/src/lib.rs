//! `pglo-lint`: static enforcement of the workspace's concurrency and
//! robustness rules — layer 2 of the correctness tooling (layer 1 is the
//! runtime lock-rank checker in `shims/parking_lot`).
//!
//! Hand-rolled and dependency-free, and each fact about the workspace
//! is computed once and handed to every rule that reads it:
//!
//! - [`source`]: one [`SourceFile`] per file — tokens, test mask, token
//!   trees ([`ast`]), parsed items, `LINT: allow` directives.
//! - [`graph`]: one [`CallGraph`] over the engine crates' library code —
//!   per-fn call sites from the one body scanner, `(name, arity)`
//!   resolution. Panic-reach, the effect engine and R7's tier B all
//!   read it.
//! - [`tables`]: one reader for DESIGN.md's fenced tables, one budget,
//!   one ratchet for the committed outputs, one allow matcher.
//! - [`driver`]: [`check_workspace`] runs every rule; `main.rs` only
//!   parses flags and prints.
//!
//! Token-shape rules ([`rules`], [`atomics`]):
//! - R1 no `std::sync::{Mutex, RwLock, ...}` outside `shims/` — every
//!   lock must flow through the `parking_lot` shim, the single choke
//!   point where ranks are enforced.
//! - R2 library code constructs locks with `with_rank`, never bare
//!   `Mutex::new`/`RwLock::new`/`::default`.
//! - R3 no `.unwrap()`/`.expect()` in non-test library code beyond the
//!   file's `R3` row in `crates/lint/budget.txt`; recorded counts must
//!   match exactly, so the total can only go down.
//! - R4 every `unsafe` token is preceded by a `// SAFETY:` comment
//!   within three lines (the workspace currently has zero `unsafe`;
//!   this locks that in).
//! - R5 the `LockRank` constants in `shims/parking_lot/src/ranks.rs`
//!   match the machine-readable ```` ```lock-ranks ```` table in
//!   DESIGN.md, rank for rank and name for name, with no duplicates.
//! - R6 `obs::counter!`/`gauge!`/`histogram!`/`span!` metric names in
//!   library code must match `^[a-z]+(\.[a-z_]+)+$` and be unique
//!   workspace-wide — each macro site owns one static, so two sites
//!   sharing a name would silently split one metric's counts.
//! - R11 atomics-protocol sync ([`atomics`]): every atomic field in
//!   `buffer`/`wal`/`txn` library code appears in the machine-readable
//!   ```` ```atomics-protocol ```` table in DESIGN.md (two-way, like
//!   R5), every load/store/RMW/compare-exchange uses an ordering at
//!   least as strong as the table requires, and every
//!   `Ordering::Relaxed` site is exact-counted in the file's `R11` row
//!   of `budget.txt` (shrink-only, like R3).
//!
//! Tree and call-graph rules ([`flow`], [`proto_sync`], [`panic_reach`],
//! [`effects`]):
//! - R7 guard-across-I/O: a lock guard or pinned page must not be live
//!   across a blocking I/O call — direct device/socket calls (tier A)
//!   or same-crate wrappers that bottom out in one (tier B). A
//!   `drop(guard)` or scope end clears liveness; deliberate sites carry
//!   `// LINT: allow(R7, reason)`, counted exactly in the file's `R7`
//!   row of `budget.txt` so the total only shrinks.
//! - R8 pin-leak: `mem::forget`/`ManuallyDrop` on guard types is
//!   forbidden workspace-wide (tests included), and `buffer` must keep
//!   an `impl Drop for PinnedPage`.
//! - R9 error-swallow: `let _ =`, `.ok()`-in-statement-position, and
//!   discarded `#[must_use]` results on I/O/txn/wire crates must either
//!   propagate or record an `obs` counter; `R9` rows in `budget.txt`
//!   (currently none).
//! - R10 protocol exhaustiveness: the `Opcode` enum in
//!   `crates/server/src/proto.rs`, the `service.rs` dispatch, the typed
//!   client, and the ```` ```wire-ops ```` table in DESIGN.md must
//!   agree four-ways, opcode for opcode.
//! - PR panic-reachability: a call-graph walk from the pub APIs of
//!   `server`/`core`/`inversion`/`buffer` lists every reachable
//!   `unwrap`/`expect`/`panic!` site in `crates/lint/panic_reach.txt`;
//!   the committed file may only shrink (regenerate with
//!   `--write-panic-reach`).
//! - R12 reactor-no-block: a per-function effect set
//!   (`blocks`, `fsyncs`, `flushes_wal`, `wal_appends`,
//!   `writes_data_pages`) is inferred as a fixpoint over the workspace
//!   call graph; nothing defined in `crates/server/src/reactor.rs`
//!   (lobd's acceptor thread) may carry `blocks` — the poll call and
//!   `try_`-locks are exempt by construction, and whatever may block
//!   belongs to the workers the acceptor deals to. Deliberate sites carry
//!   `// LINT: allow(R12, reason)`, exact-counted in `budget.txt`.
//! - R13 durability ordering: in the durability crates,
//!   a statement carrying `wal_appends` or `flushes_wal` must not
//!   follow one carrying `writes_data_pages` in the same sequence
//!   (WAL-before-data), and every `fs::rename` must be followed by a
//!   directory fsync in the same function. The inferred effect table is
//!   committed as `crates/lint/effects.txt` (regenerate with
//!   `--write-effects`) and the durability sources are two-way synced
//!   against DESIGN.md's ```` ```effects ```` table, like R5/R11.
//!
//! `#[cfg(test)]` items, `#[test]` functions, `tests/`, `benches/`,
//! `examples/`, and the benchmark harness crate are exempt from
//! R2/R3/R7/R9 (tests unwrap freely and may build unranked locks); R1
//! applies to all non-shim code and R4/R8 apply everywhere, shims and
//! tests included.

use std::fmt;
use std::path::PathBuf;

pub mod ast;
pub mod atomics;
pub mod driver;
pub mod effects;
pub mod flow;
pub mod graph;
pub mod panic_reach;
pub mod proto_sync;
pub mod rules;
pub mod source;
pub mod tables;

pub use driver::{check_workspace, Report, Write};
pub use effects::infer_effects;
pub use flow::{check_guard_flow, check_manually_drop_types, WorkspaceIndex};
pub use graph::CallGraph;
pub use panic_reach::panic_report;
pub use proto_sync::{check_proto_sync, parse_wire_ops};
pub use source::{load_workspace, SourceFile};
pub use tables::{collect_allows, parse_committed, Allows};

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

impl Finding {
    /// JSON object for `--json` output (hand-rolled; the only escapes a
    /// finding message can need are quotes, backslashes, and newlines).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.chars()
                .flat_map(|c| match c {
                    '"' => "\\\"".chars().collect::<Vec<_>>(),
                    '\\' => "\\\\".chars().collect(),
                    '\n' => "\\n".chars().collect(),
                    '\t' => "\\t".chars().collect(),
                    c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                    c => vec![c],
                })
                .collect()
        }
        format!(
            "{{\"path\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            esc(&self.path.display().to_string()),
            self.line,
            esc(self.rule),
            esc(&self.message)
        )
    }
}

pub(crate) fn finding(path: &str, line: u32, rule: &'static str, message: String) -> Finding {
    Finding { path: PathBuf::from(path), line, rule, message }
}
