//! `pglo-lint`: static enforcement of the workspace's concurrency and
//! robustness rules — layer 2 of the correctness tooling (layer 1 is the
//! runtime lock-rank checker in `shims/parking_lot`).
//!
//! Hand-rolled and dependency-free: a small Rust tokenizer (comments,
//! strings, raw strings, char literals vs. lifetimes), a token-tree
//! builder ([`ast`]), an item parser (functions, enums, consts, trait
//! impls), a workspace symbol table, and a call graph. Token-stream
//! rules can never be fooled by string or comment contents; the AST
//! rules get real statement and expression structure to walk.
//!
//! Token-stream rules:
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
//! AST/dataflow rules ([`flow`], [`proto_sync`], [`panic_reach`]):
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
//! - R12 reactor-no-block ([`effects`]): a per-function effect set
//!   (`blocks`, `fsyncs`, `flushes_wal`, `wal_appends`,
//!   `writes_data_pages`) is inferred as a fixpoint over the workspace
//!   call graph; nothing defined in `crates/server/src/reactor.rs`
//!   (except `executor_loop`) may carry `blocks` — the poll call and
//!   `try_`-locks are exempt by construction, executor jobs are the
//!   sanctioned escape hatch. Deliberate sites carry
//!   `// LINT: allow(R12, reason)`, exact-counted in `budget.txt`.
//! - R13 durability ordering ([`effects`]): in the durability crates,
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

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::PathBuf;

pub mod ast;
pub mod atomics;
pub mod effects;
pub mod flow;
pub mod panic_reach;
pub mod proto_sync;

pub use atomics::{
    atomic_field_decls, atomic_op_sites, check_atomics_protocol, parse_atomics_protocol,
    relaxed_sites, AtomicFile, ATOMIC_PROTOCOL_CRATES,
};
pub use effects::{
    effect_string, infer_effects, parse_committed_effects, parse_design_effects, EffectFile,
    EffectRow, EffectsIndex, R13_CRATES, REACTOR_FILE,
};
pub use flow::{
    check_guard_flow, check_manually_drop_types, collect_allows, Allow, WorkspaceIndex,
};
pub use panic_reach::{panic_report, parse_committed, ReachFile, ROOT_CRATES};
pub use proto_sync::{check_proto_sync, parse_wire_ops};

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

/// Kind of a lexed token. Just enough resolution for the rules: idents
/// (including keywords), single-char punctuation, literals, comments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Punct,
    Str,
    CharLit,
    Lifetime,
    Num,
    Comment,
}

/// One lexed token with its source line (1-based).
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Token {
    fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }

    fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_cont(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `src` into tokens. Comments are kept (R4 needs them); whitespace
/// is dropped. Never fails: unterminated constructs run to end of input.
pub fn tokenize(src: &str) -> Vec<Token> {
    let b: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let push = |out: &mut Vec<Token>, kind, text: String, line| {
        out.push(Token { kind, text, line });
    };
    while i < b.len() {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && b.get(i + 1) == Some(&'/') {
            let start = i;
            while i < b.len() && b[i] != '\n' {
                i += 1;
            }
            push(&mut out, TokKind::Comment, b[start..i].iter().collect(), line);
            continue;
        }
        // Block comment (Rust block comments nest).
        if c == '/' && b.get(i + 1) == Some(&'*') {
            let start = i;
            let start_line = line;
            let mut depth = 0usize;
            while i < b.len() {
                if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    if b[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            push(&mut out, TokKind::Comment, b[start..i].iter().collect(), start_line);
            continue;
        }
        // Raw strings: r"..." r#"..."#, byte br"..."; raw idents r#name.
        if (c == 'r' && matches!(b.get(i + 1), Some('"') | Some('#')))
            || (c == 'b' && b.get(i + 1) == Some(&'r'))
        {
            let mut j = i + 1;
            if c == 'b' {
                j += 1;
            }
            let mut hashes = 0usize;
            while b.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if b.get(j) == Some(&'"') {
                // Raw (byte) string: scan to `"` followed by `hashes` #s.
                j += 1;
                let start_line = line;
                while j < b.len() {
                    if b[j] == '\n' {
                        line += 1;
                        j += 1;
                        continue;
                    }
                    if b[j] == '"'
                        && b[j + 1..].iter().take(hashes).filter(|&&h| h == '#').count() == hashes
                    {
                        j += 1 + hashes;
                        break;
                    }
                    j += 1;
                }
                // Token text is the literal's content (rule R6 reads
                // metric names out of it); quotes and hashes stripped.
                let content_start = i + if c == 'b' { 2 } else { 1 } + hashes + 1;
                let content_end = j.saturating_sub(1 + hashes).max(content_start);
                push(
                    &mut out,
                    TokKind::Str,
                    b[content_start..content_end].iter().collect(),
                    start_line,
                );
                i = j;
                continue;
            }
            if hashes == 1 && b.get(j).is_some_and(|&x| is_ident_start(x)) {
                // Raw identifier r#type.
                let start = j;
                while j < b.len() && is_ident_cont(b[j]) {
                    j += 1;
                }
                push(&mut out, TokKind::Ident, b[start..j].iter().collect(), line);
                i = j;
                continue;
            }
            // Plain ident starting with r/b: fall through to ident path.
        }
        // String / byte-string literal.
        if c == '"' || (c == 'b' && b.get(i + 1) == Some(&'"')) {
            let content_start = i + if c == 'b' { 2 } else { 1 };
            let mut j = content_start;
            let start_line = line;
            while j < b.len() {
                match b[j] {
                    '\\' => j += 2,
                    '"' => break,
                    '\n' => {
                        line += 1;
                        j += 1;
                    }
                    _ => j += 1,
                }
            }
            // Content between the quotes, escapes left raw — enough for
            // rule R6, which only reads simple metric-name literals.
            push(
                &mut out,
                TokKind::Str,
                b[content_start..j.min(b.len())].iter().collect(),
                start_line,
            );
            i = (j + 1).min(b.len());
            continue;
        }
        // Char literal vs. lifetime.
        if c == '\'' {
            let mut j = i + 1;
            if b.get(j) == Some(&'\\') {
                // Escaped char literal: scan to closing quote.
                j += 2;
                while j < b.len() && b[j] != '\'' {
                    j += 1;
                }
                push(&mut out, TokKind::CharLit, String::new(), line);
                i = j + 1;
                continue;
            }
            if b.get(j).is_some_and(|&x| is_ident_start(x)) {
                let start = j;
                while j < b.len() && is_ident_cont(b[j]) {
                    j += 1;
                }
                if b.get(j) == Some(&'\'') {
                    push(&mut out, TokKind::CharLit, String::new(), line);
                    i = j + 1;
                } else {
                    push(&mut out, TokKind::Lifetime, b[start..j].iter().collect(), line);
                    i = j;
                }
                continue;
            }
            // 'x' for punctuation x, or a stray quote.
            if b.get(j + 1) == Some(&'\'') {
                push(&mut out, TokKind::CharLit, String::new(), line);
                i = j + 2;
            } else {
                push(&mut out, TokKind::Punct, "'".into(), line);
                i += 1;
            }
            continue;
        }
        // Identifier / keyword.
        if is_ident_start(c) {
            let start = i;
            while i < b.len() && is_ident_cont(b[i]) {
                i += 1;
            }
            push(&mut out, TokKind::Ident, b[start..i].iter().collect(), line);
            continue;
        }
        // Number. Dots are only consumed when followed by a digit, so a
        // tuple-field access like `x.0.unwrap()` still tokenizes the
        // trailing `.unwrap` as punct + ident.
        if c.is_ascii_digit() {
            let start = i;
            while i < b.len()
                && (is_ident_cont(b[i])
                    || (b[i] == '.' && b.get(i + 1).is_some_and(|d| d.is_ascii_digit())))
            {
                i += 1;
            }
            push(&mut out, TokKind::Num, b[start..i].iter().collect(), line);
            continue;
        }
        push(&mut out, TokKind::Punct, c.to_string(), line);
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// Test-region masking
// ---------------------------------------------------------------------------

/// Marks every token belonging to a `#[cfg(test)]`- or `#[test]`-gated
/// item (attribute through end of item) so rules R2/R3 can skip test
/// code embedded in library files. `#[cfg(not(test))]` is *not* masked.
pub fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if !(tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let start = i;
        let (idents, after) = attr_contents(tokens, i);
        let gated = match idents.first().map(String::as_str) {
            Some("test") => idents.len() == 1,
            Some("cfg") => idents.iter().any(|s| s == "test") && !idents.iter().any(|s| s == "not"),
            _ => false,
        };
        if !gated {
            i = after;
            continue;
        }
        // Skip any further attributes stacked on the same item.
        let mut k = after;
        while tokens.get(k).is_some_and(|t| t.is_punct('#'))
            && tokens.get(k + 1).is_some_and(|t| t.is_punct('['))
        {
            k = attr_contents(tokens, k).1;
        }
        // Consume the item: through the matching `}` of its first brace
        // block, or a top-level `;` for brace-less items.
        let mut depth = 0usize;
        let mut opened = false;
        while k < tokens.len() {
            let t = &tokens[k];
            if t.is_punct('{') {
                depth += 1;
                opened = true;
            } else if t.is_punct('}') {
                depth = depth.saturating_sub(1);
                if opened && depth == 0 {
                    k += 1;
                    break;
                }
            } else if t.is_punct(';') && !opened && depth == 0 {
                k += 1;
                break;
            }
            k += 1;
        }
        for m in mask.iter_mut().take(k).skip(start) {
            *m = true;
        }
        i = k;
    }
    mask
}

/// Identifiers inside the attribute starting at `tokens[i] == '#'`, and
/// the index just past its closing `]`.
fn attr_contents(tokens: &[Token], i: usize) -> (Vec<String>, usize) {
    let mut idents = Vec::new();
    let mut j = i + 2;
    let mut depth = 1usize;
    while j < tokens.len() && depth > 0 {
        let t = &tokens[j];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
        } else if t.kind == TokKind::Ident {
            idents.push(t.text.clone());
        }
        j += 1;
    }
    (idents, j)
}

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// R1: no std::sync::{Mutex, RwLock} outside shims/
// ---------------------------------------------------------------------------

const STD_SYNC_BANNED: [&str; 5] =
    ["Mutex", "RwLock", "MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"];

/// R1: flag `std::sync::Mutex`-family paths and `use std::sync::{..}`
/// imports naming them. Lock acquisition must flow through the shim.
pub fn check_std_sync(path: &str, tokens: &[Token]) -> Vec<Finding> {
    let sig: Vec<&Token> = tokens.iter().filter(|t| t.kind != TokKind::Comment).collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 5 < sig.len() {
        if sig[i].is_ident("std")
            && sig[i + 1].is_punct(':')
            && sig[i + 2].is_punct(':')
            && sig[i + 3].is_ident("sync")
            && sig[i + 4].is_punct(':')
            && sig[i + 5].is_punct(':')
        {
            let mut j = i + 6;
            if sig.get(j).is_some_and(|t| t.is_punct('{')) {
                // use std::sync::{...}: scan the brace group.
                let mut depth = 1usize;
                j += 1;
                while j < sig.len() && depth > 0 {
                    if sig[j].is_punct('{') {
                        depth += 1;
                    } else if sig[j].is_punct('}') {
                        depth -= 1;
                    } else if sig[j].kind == TokKind::Ident
                        && STD_SYNC_BANNED.contains(&sig[j].text.as_str())
                    {
                        out.push(finding(
                            path,
                            sig[j].line,
                            "R1",
                            format!(
                                "std::sync::{} is banned outside shims/: use the \
                                 parking_lot shim so the lock-rank checker sees it",
                                sig[j].text
                            ),
                        ));
                    }
                    j += 1;
                }
            } else if sig.get(j).is_some_and(|t| {
                t.kind == TokKind::Ident && STD_SYNC_BANNED.contains(&t.text.as_str())
            }) {
                out.push(finding(
                    path,
                    sig[j].line,
                    "R1",
                    format!(
                        "std::sync::{} is banned outside shims/: use the \
                         parking_lot shim so the lock-rank checker sees it",
                        sig[j].text
                    ),
                ));
            }
            i = j;
            continue;
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// R2: library code constructs ranked locks
// ---------------------------------------------------------------------------

/// R2: flag `Mutex::new(..)`, `RwLock::new(..)`, and `::default()` lock
/// construction in non-test library code — use `with_rank` so the
/// runtime checker can order the lock.
pub fn check_unranked_locks(path: &str, tokens: &[Token]) -> Vec<Finding> {
    let mask = test_mask(tokens);
    let sig: Vec<(usize, &Token)> =
        tokens.iter().enumerate().filter(|(_, t)| t.kind != TokKind::Comment).collect();
    let mut out = Vec::new();
    for w in sig.windows(5) {
        let [(i0, a), (_, c1), (_, c2), (_, m), (_, p)] = w else { continue };
        if (a.is_ident("Mutex") || a.is_ident("RwLock"))
            && c1.is_punct(':')
            && c2.is_punct(':')
            && (m.is_ident("new") || m.is_ident("default"))
            && p.is_punct('(')
            && !mask[*i0]
        {
            out.push(finding(
                path,
                a.line,
                "R2",
                format!(
                    "{}::{} in library code: construct with with_rank(.., ranks::..) \
                     so the lock-rank checker can order it",
                    a.text, m.text
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R3: unwrap/expect ratchet
// ---------------------------------------------------------------------------

/// Source lines (1-based) of every `.unwrap(` / `.expect(` in non-test
/// regions of the file.
pub fn unwrap_sites(tokens: &[Token]) -> Vec<u32> {
    let mask = test_mask(tokens);
    let sig: Vec<(usize, &Token)> =
        tokens.iter().enumerate().filter(|(_, t)| t.kind != TokKind::Comment).collect();
    let mut out = Vec::new();
    for w in sig.windows(3) {
        let [(i0, d), (_, m), (_, p)] = w else { continue };
        if d.is_punct('.')
            && (m.is_ident("unwrap") || m.is_ident("expect"))
            && p.is_punct('(')
            && !mask[*i0]
        {
            out.push(m.line);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The budget: one exact-count ratchet for every per-file allowance
// ---------------------------------------------------------------------------

/// Rules whose tolerated sites are budgeted per file in
/// `crates/lint/budget.txt`: unwrap/expect sites (R3), swallowed errors
/// (R9), `Ordering::Relaxed` arguments (R11), and findings excused by a
/// reasoned `// LINT: allow(..)` (R7, R12, R13).
pub const BUDGET_RULES: [&str; 6] = ["R3", "R7", "R9", "R11", "R12", "R13"];

/// A budgeted rule's sites, or its committed allowances, per
/// `(rule, workspace-relative path)`.
pub type PerFile<T> = BTreeMap<(&'static str, String), T>;

/// Parse `budget.txt`: `<count> <rule> <path>` rows, `#` comments.
pub fn parse_budget(text: &str) -> Result<PerFile<usize>, String> {
    let mut rows = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        let (Some(count), Some(rule), Some(path)) = (fields.next(), fields.next(), fields.next())
        else {
            return Err(format!("budget.txt line {}: expected `<count> <rule> <path>`", n + 1));
        };
        let count: usize =
            count.parse().map_err(|_| format!("budget.txt line {}: bad count {count:?}", n + 1))?;
        let Some(rule) = BUDGET_RULES.iter().find(|r| **r == rule) else {
            return Err(format!("budget.txt line {}: {rule} is not a budgeted rule", n + 1));
        };
        if rows.insert((*rule, path.to_string()), count).is_some() {
            return Err(format!("budget.txt line {}: duplicate row for {rule} {path}", n + 1));
        }
    }
    Ok(rows)
}

/// The one ratchet, exact in both directions so a budget only goes
/// down: `sites` holds, per rule and checked file, a finding for each
/// site the rule counts there. More sites than the row grants fail at
/// the excess sites; fewer ask for the row to be tightened; a row
/// naming none of the checked `files` is stale.
pub fn check_budget(
    budget: &PerFile<usize>,
    sites: PerFile<Vec<Finding>>,
    files: &BTreeSet<String>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for ((rule, path), &granted) in budget {
        let found = sites.get(&(*rule, path.clone())).map_or(0, Vec::len);
        if !files.contains(path) {
            out.push(finding(
                "crates/lint/budget.txt",
                0,
                rule,
                format!("row `{granted} {rule} {path}` names no checked library file"),
            ));
        } else if found < granted {
            out.push(finding(
                path,
                0,
                rule,
                format!(
                    "{found} {rule} site(s) but budget.txt grants {granted}: tighten the row \
                     to `{found} {rule} {path}` (the count only goes down)"
                ),
            ));
        }
    }
    for ((rule, path), mut found) in sites {
        let granted = budget.get(&(rule, path)).copied().unwrap_or(0);
        let total = found.len();
        found.sort_by_key(|f| f.line);
        out.extend(found.into_iter().skip(granted).map(|mut f| {
            f.message.push_str(&format!(
                " [{total} {rule} site(s) in this file, crates/lint/budget.txt grants {granted}]"
            ));
            f
        }));
    }
    out
}

// ---------------------------------------------------------------------------
// R4: unsafe requires a SAFETY comment
// ---------------------------------------------------------------------------

/// R4: every `unsafe` token (everywhere, tests and shims included) must
/// have a `SAFETY:` comment on its own line or within the three lines
/// above it.
pub fn check_unsafe(path: &str, src: &str, tokens: &[Token]) -> Vec<Finding> {
    let lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    for t in tokens.iter().filter(|t| t.kind == TokKind::Ident && t.text == "unsafe") {
        let ln = t.line as usize; // 1-based
        let lo = ln.saturating_sub(4); // up to three lines above
        let documented = lines[lo..ln.min(lines.len())].iter().any(|l| l.contains("SAFETY:"));
        if !documented {
            out.push(finding(
                path,
                t.line,
                "R4",
                "unsafe without a `// SAFETY:` comment in the preceding three lines".to_string(),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R5: ranks.rs must match the DESIGN.md lock-ranks table
// ---------------------------------------------------------------------------

/// Extract `(rank, name)` pairs from `LockRank::new(<num>, "<name>")`
/// constants in the shim's `ranks.rs`.
pub fn parse_code_ranks(src: &str) -> Result<Vec<(u32, String)>, String> {
    let tokens = tokenize(src);
    let sig: Vec<&Token> = tokens.iter().filter(|t| t.kind != TokKind::Comment).collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 7 < sig.len() {
        if sig[i].is_ident("LockRank")
            && sig[i + 1].is_punct(':')
            && sig[i + 2].is_punct(':')
            && sig[i + 3].is_ident("new")
            && sig[i + 4].is_punct('(')
            && sig[i + 5].kind == TokKind::Num
        {
            let rank: u32 = sig[i + 5]
                .text
                .replace('_', "")
                .parse()
                .map_err(|_| format!("ranks.rs:{}: bad rank literal", sig[i + 5].line))?;
            // The tokenizer drops string contents; re-read the name from
            // the source line, which holds exactly one string literal.
            let line_text = src
                .lines()
                .nth(sig[i + 5].line as usize - 1)
                .ok_or_else(|| format!("ranks.rs:{}: line out of range", sig[i + 5].line))?;
            let name = line_text.split('"').nth(1).ok_or_else(|| {
                format!("ranks.rs:{}: rank name must be on one line", sig[i + 5].line)
            })?;
            out.push((rank, name.to_string()));
            i += 6;
            continue;
        }
        i += 1;
    }
    Ok(out)
}

/// Extract `(rank, name)` rows from the ```` ```lock-ranks ```` fenced
/// block in DESIGN.md.
pub fn parse_design_ranks(md: &str) -> Result<Vec<(u32, String)>, String> {
    let mut rows = Vec::new();
    let mut in_block = false;
    let mut seen_block = false;
    for (n, line) in md.lines().enumerate() {
        let trimmed = line.trim();
        if !in_block {
            if trimmed == "```lock-ranks" {
                in_block = true;
                seen_block = true;
            }
            continue;
        }
        if trimmed == "```" {
            in_block = false;
            continue;
        }
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut fields = trimmed.split_whitespace();
        let (Some(rank), Some(name)) = (fields.next(), fields.next()) else {
            return Err(format!("DESIGN.md line {}: expected `<rank> <name> — note`", n + 1));
        };
        let rank: u32 =
            rank.parse().map_err(|_| format!("DESIGN.md line {}: bad rank {rank:?}", n + 1))?;
        rows.push((rank, name.to_string()));
    }
    if !seen_block {
        return Err("DESIGN.md has no ```lock-ranks fenced block".to_string());
    }
    if in_block {
        return Err("DESIGN.md lock-ranks block is unterminated".to_string());
    }
    Ok(rows)
}

/// R5: code constants and the DESIGN.md table must agree exactly, with
/// unique ranks and names on both sides.
pub fn check_rank_table(code: &[(u32, String)], design: &[(u32, String)]) -> Vec<String> {
    let mut errs = Vec::new();
    for (label, side) in [("ranks.rs", code), ("DESIGN.md", design)] {
        let mut ranks = BTreeMap::new();
        let mut names = BTreeMap::new();
        for (r, n) in side {
            if let Some(prev) = ranks.insert(*r, n.clone()) {
                errs.push(format!("{label}: rank {r} assigned to both {prev:?} and {n:?}"));
            }
            if names.insert(n.clone(), *r).is_some() {
                errs.push(format!("{label}: name {n:?} declared twice"));
            }
        }
    }
    let code_set: std::collections::BTreeSet<_> = code.iter().collect();
    let design_set: std::collections::BTreeSet<_> = design.iter().collect();
    for missing in design_set.difference(&code_set) {
        errs.push(format!(
            "DESIGN.md lists rank {} {:?} but shims/parking_lot/src/ranks.rs does not",
            missing.0, missing.1
        ));
    }
    for missing in code_set.difference(&design_set) {
        errs.push(format!(
            "ranks.rs declares rank {} {:?} but the DESIGN.md lock-ranks table does not",
            missing.0, missing.1
        ));
    }
    errs
}

// ---------------------------------------------------------------------------
// R6: metric names are namespaced and unique
// ---------------------------------------------------------------------------

/// `(name, line)` of every `obs::counter!`/`gauge!`/`histogram!`/`span!`
/// invocation in non-test regions. One macro site declares one static, so
/// these are exactly the workspace's metric registration points.
pub fn metric_name_sites(tokens: &[Token]) -> Vec<(String, u32)> {
    let mask = test_mask(tokens);
    let sig: Vec<(usize, &Token)> =
        tokens.iter().enumerate().filter(|(_, t)| t.kind != TokKind::Comment).collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 6 < sig.len() {
        let (i0, a) = sig[i];
        if a.is_ident("obs")
            && sig[i + 1].1.is_punct(':')
            && sig[i + 2].1.is_punct(':')
            && matches!(sig[i + 3].1.text.as_str(), "counter" | "gauge" | "histogram" | "span")
            && sig[i + 3].1.kind == TokKind::Ident
            && sig[i + 4].1.is_punct('!')
            && sig[i + 5].1.is_punct('(')
            && sig[i + 6].1.kind == TokKind::Str
            && !mask[i0]
        {
            out.push((sig[i + 6].1.text.clone(), sig[i + 6].1.line));
            i += 7;
            continue;
        }
        i += 1;
    }
    out
}

/// Whether `name` matches `^[a-z]+(\.[a-z_]+)+$`: a lowercase namespace,
/// then one or more dot-separated lowercase (or underscore) segments.
pub fn valid_metric_name(name: &str) -> bool {
    let mut parts = name.split('.');
    let Some(first) = parts.next() else { return false };
    if first.is_empty() || !first.chars().all(|c| c.is_ascii_lowercase()) {
        return false;
    }
    let mut segments = 0usize;
    for part in parts {
        if part.is_empty() || !part.chars().all(|c| c.is_ascii_lowercase() || c == '_') {
            return false;
        }
        segments += 1;
    }
    segments >= 1
}

/// R6 (per file): every metric name at an `obs::` macro site must be
/// well-formed. Uniqueness across files is the driver's job — it sees
/// the whole workspace.
pub fn check_metric_names(path: &str, sites: &[(String, u32)]) -> Vec<Finding> {
    sites
        .iter()
        .filter(|(name, _)| !valid_metric_name(name))
        .map(|(name, line)| {
            finding(
                path,
                *line,
                "R6",
                format!(
                    "metric name {name:?} does not match ^[a-z]+(\\.[a-z_]+)+$: \
                     use layer.op[.unit], lowercase, dot-separated"
                ),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src).into_iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn tokenizer_ignores_strings_and_comments() {
        let src = r##"
            let s = "std::sync::Mutex .unwrap()"; // .unwrap() in comment
            /* .expect( block */ let r = r#"raw .unwrap("#;
            let c = '.'; let lt: &'static str = "x";
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"Mutex".to_string()));
        assert_eq!(unwrap_sites(&tokenize(src)), Vec::<u32>::new());
    }

    #[test]
    fn tokenizer_sees_unwrap_after_tuple_field() {
        let sites = unwrap_sites(&tokenize("fn f() { x.0.unwrap(); }"));
        assert_eq!(sites.len(), 1);
    }

    #[test]
    fn std_sync_rule_fires_on_import_and_path() {
        let src = "use std::sync::{Arc, Mutex};\nfn f() { let _ = std::sync::RwLock::new(0); }";
        let f = check_std_sync("x.rs", &tokenize(src));
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("std::sync::Mutex"));
        assert_eq!(f[0].line, 1);
        assert!(f[1].message.contains("std::sync::RwLock"));
        assert_eq!(f[1].line, 2);
    }

    #[test]
    fn std_sync_rule_allows_arc_and_atomics() {
        let src = "use std::sync::Arc;\nuse std::sync::atomic::{AtomicU64, Ordering};\nuse std::sync::mpsc::channel;";
        assert!(check_std_sync("x.rs", &tokenize(src)).is_empty());
    }

    #[test]
    fn unranked_lock_rule_fires_outside_tests_only() {
        let src = "fn f() { let _ = Mutex::new(0); }\n\
                   #[cfg(test)]\nmod tests { fn g() { let _ = RwLock::new(0); } }";
        let f = check_unranked_locks("x.rs", &tokenize(src));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
        assert!(f[0].message.contains("with_rank"));
    }

    #[test]
    fn unranked_lock_rule_accepts_with_rank() {
        let src = "fn f() { let _ = Mutex::with_rank(0, ranks::CATALOG); }";
        assert!(check_unranked_locks("x.rs", &tokenize(src)).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let src = "#[cfg(not(test))]\nfn f() { x.unwrap(); }";
        assert_eq!(unwrap_sites(&tokenize(src)).len(), 1);
    }

    #[test]
    fn test_fn_attribute_is_masked() {
        let src = "#[test]\nfn f() { x.unwrap(); }\nfn g() { y.expect(\"\"); }";
        let sites = unwrap_sites(&tokenize(src));
        assert_eq!(sites, vec![3]);
    }

    #[test]
    fn budget_is_exact_in_both_directions_for_every_rule() {
        let files: BTreeSet<String> = ["x.rs", "y.rs"].map(String::from).into();
        for rule in BUDGET_RULES {
            let at = |lines: &[u32]| -> PerFile<Vec<Finding>> {
                let found = lines.iter().map(|&l| finding("x.rs", l, rule, "site".into()));
                BTreeMap::from([((rule, "x.rs".to_string()), found.collect())])
            };
            let grants =
                |n: usize, path: &str| parse_budget(&format!("{n} {rule} {path}\n")).unwrap();
            // Exact: nothing to say, with or without a row.
            assert!(check_budget(&grants(2, "x.rs"), at(&[9, 3]), &files).is_empty());
            assert!(check_budget(&grants(0, "x.rs"), at(&[]), &files).is_empty());
            // Over: the sites beyond the allowance, in line order.
            let over = check_budget(&grants(1, "x.rs"), at(&[9, 3]), &files);
            assert_eq!(over.len(), 1, "{over:?}");
            assert_eq!((over[0].line, over[0].rule), (9, rule));
            assert!(over[0].message.contains("grants 1"), "{over:?}");
            assert_eq!(check_budget(&BTreeMap::new(), at(&[3]), &files).len(), 1);
            // Under: tighten, including a row whose file has no sites left.
            for sites in [at(&[3]), BTreeMap::new()] {
                let slack = check_budget(&grants(2, "x.rs"), sites, &files);
                assert_eq!(slack.len(), 1, "{slack:?}");
                assert!(slack[0].message.contains("tighten"), "{slack:?}");
            }
            // A row naming no checked file is stale.
            let stale = check_budget(&grants(1, "gone.rs"), BTreeMap::new(), &files);
            assert_eq!(stale.len(), 1, "{stale:?}");
            assert!(stale[0].message.contains("names no checked library file"), "{stale:?}");
        }
    }

    #[test]
    fn safety_comment_rule() {
        let bad = "fn f() {\n    unsafe { core::hint::unreachable_unchecked() }\n}";
        let f = check_unsafe("x.rs", bad, &tokenize(bad));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);

        let good = "fn f() {\n    // SAFETY: provably unreachable per the match above.\n    unsafe { core::hint::unreachable_unchecked() }\n}";
        assert!(check_unsafe("x.rs", good, &tokenize(good)).is_empty());

        // The word `unsafe` inside a comment or string is not a token.
        let quoted = "// unsafe\nlet s = \"unsafe\";";
        assert!(check_unsafe("x.rs", quoted, &tokenize(quoted)).is_empty());
    }

    #[test]
    fn rank_table_consistency() {
        let code_src = r#"
            pub const A: LockRank = LockRank::new(10, "a.lock");
            pub const B: LockRank = LockRank::new(20, "b.lock");
        "#;
        let code = parse_code_ranks(code_src).unwrap();
        assert_eq!(code, vec![(10, "a.lock".into()), (20, "b.lock".into())]);

        let md = "intro\n```lock-ranks\n10 a.lock — outer\n20 b.lock — inner\n```\n";
        let design = parse_design_ranks(md).unwrap();
        assert!(check_rank_table(&code, &design).is_empty());

        // Drift in either direction is reported.
        let md_drift = "```lock-ranks\n10 a.lock\n21 b.lock\n```\n";
        let errs = check_rank_table(&code, &parse_design_ranks(md_drift).unwrap());
        assert_eq!(errs.len(), 2, "{errs:?}");

        // Duplicate ranks are rejected.
        let dup = vec![(10, "a.lock".to_string()), (10, "c.lock".to_string())];
        assert!(!check_rank_table(&dup, &design).is_empty());

        // A missing block is an error, not a silent pass.
        assert!(parse_design_ranks("no block here").is_err());
    }

    #[test]
    fn budget_parses_and_rejects_bad_rows() {
        let rows = parse_budget("# comment\n2 R3 crates/a/src/lib.rs\n0 R11 src/lib.rs\n").unwrap();
        assert_eq!(rows.get(&("R3", "crates/a/src/lib.rs".to_string())), Some(&2));
        assert!(parse_budget("1 R3 a.rs\n2 R3 a.rs\n").is_err(), "duplicate row");
        assert!(parse_budget("1 R3 a.rs\n1 R9 a.rs\n").is_ok(), "one row per rule and file");
        assert!(parse_budget("x R3 a.rs\n").is_err(), "bad count");
        assert!(parse_budget("1 R1 a.rs\n").is_err(), "R1 has no budget");
        assert!(parse_budget("1 a.rs\n").is_err(), "missing rule");
    }

    #[test]
    fn tokenizer_retains_string_contents() {
        let toks = tokenize(r##"let a = "pool.hits"; let b = r#"raw.name"#;"##);
        let strs: Vec<&str> =
            toks.iter().filter(|t| t.kind == TokKind::Str).map(|t| t.text.as_str()).collect();
        assert_eq!(strs, vec!["pool.hits", "raw.name"]);
    }

    #[test]
    fn metric_name_grammar() {
        for good in ["pool.hits", "smgr.disk.read", "lo.fchunk.read.bytes", "txn.clog.append"] {
            assert!(valid_metric_name(good), "{good} should be valid");
        }
        for bad in ["pool", "Pool.hits", "pool.", ".hits", "pool.Hits", "pool.hit-rate", "pool..x"]
        {
            assert!(!valid_metric_name(bad), "{bad} should be invalid");
        }
    }

    #[test]
    fn metric_sites_found_outside_tests_only() {
        let src = "fn f() { let _s = obs::span!(\"pool.writeback\"); }\n\
                   fn g() { obs::counter!(\"Bad Name\").inc(); }\n\
                   #[cfg(test)]\nmod t { fn h() { obs::gauge!(\"x\").set(1); } }";
        let sites = metric_name_sites(&tokenize(src));
        assert_eq!(
            sites,
            vec![("pool.writeback".to_string(), 1), ("Bad Name".to_string(), 2)],
            "test-gated sites are exempt"
        );
        let findings = check_metric_names("x.rs", &sites);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 2);
        assert!(findings[0].message.contains("Bad Name"));
    }
}
