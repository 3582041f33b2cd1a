//! R11 atomics-protocol sync: every atomic field in the lock-free
//! protocol crates (`buffer`, `wal`, `txn`) is named in the machine-
//! readable ```` ```atomics-protocol ```` table in DESIGN.md, and every
//! atomic operation in those crates uses an ordering at least as strong
//! as the table requires. Two-way: a field in code but not the table
//! fails, and a table row naming no code field fails, so the table can
//! never silently rot.
//!
//! Table row grammar (inside the fenced block; `#` comments allowed):
//!
//! ```text
//! <crate>.<field> <role> load=<Ord|-> store=<Ord|-> rmw=<Ord|-> — note
//! ```
//!
//! `Ord` is one of `Relaxed | Acquire | Release | AcqRel | SeqCst`; `-`
//! means the protocol performs no such operation on the field (doing one
//! anyway is a finding — the table is the protocol, not a suggestion).
//! `compare_exchange*` success orderings check against `rmw=`, failure
//! orderings against `load=`; `fetch_update` checks its set ordering
//! against `rmw=` and its fetch ordering against `load=`.
//!
//! Orderings *stronger* than required never fail R11 (the model checker
//! shim treats `SeqCst` as `AcqRel`, so "too strong" is a perf nit, not
//! a bug) — but every `Ordering::Relaxed` token in library code is also
//! counted against its file's exact `R11` row in
//! `crates/lint/budget.txt` (shrink-only): adding a relaxed
//! access anywhere means raising a committed count in review.
//!
//! Receiver resolution is lexical: `<ident>.<op>(..)` attributes the
//! operation to `<ident>` (walking back over one `[..]`/`(..)` group, so
//! `self.slots[i].store(..)` resolves to `slots`). An operation whose
//! receiver is not a declared atomic field of the crate (a local alias,
//! e.g. `flag.load(..)` on a cloned `Arc<AtomicBool>`) is not checked —
//! keep protocol accesses on named fields.

use crate::source::{SourceFile, TokKind, Token};
use crate::tables::{fenced_rows, DESIGN};
use crate::{finding, Finding};
use std::collections::BTreeMap;

/// Crates whose atomics must be covered by the DESIGN.md table.
pub const ATOMIC_PROTOCOL_CRATES: [&str; 3] = ["buffer", "wal", "txn"];

const ATOMIC_TYPES: [&str; 7] =
    ["AtomicBool", "AtomicU8", "AtomicU16", "AtomicU32", "AtomicU64", "AtomicUsize", "AtomicI64"];

/// Atomic-op method names and how their ordering arguments are checked.
/// `(method, n_orderings, kinds-per-argument)`.
const OPS: [(&str, &[OpKind]); 14] = [
    ("load", &[OpKind::Load]),
    ("store", &[OpKind::Store]),
    ("swap", &[OpKind::Rmw]),
    ("fetch_add", &[OpKind::Rmw]),
    ("fetch_sub", &[OpKind::Rmw]),
    ("fetch_and", &[OpKind::Rmw]),
    ("fetch_nand", &[OpKind::Rmw]),
    ("fetch_or", &[OpKind::Rmw]),
    ("fetch_xor", &[OpKind::Rmw]),
    ("fetch_max", &[OpKind::Rmw]),
    ("fetch_min", &[OpKind::Rmw]),
    ("compare_exchange", &[OpKind::Rmw, OpKind::Load]),
    ("compare_exchange_weak", &[OpKind::Rmw, OpKind::Load]),
    ("fetch_update", &[OpKind::Rmw, OpKind::Load]),
];

/// Which of a row's three requirement columns an ordering argument is
/// checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Load,
    Store,
    Rmw,
}

impl OpKind {
    fn column(self) -> &'static str {
        match self {
            OpKind::Load => "load",
            OpKind::Store => "store",
            OpKind::Rmw => "rmw",
        }
    }
}

/// One row of the ```` ```atomics-protocol ```` table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicRow {
    /// `<crate>.<field>`.
    pub key: String,
    /// Free-form role tag (`publish-watermark`, `counter`, ...).
    pub role: String,
    /// Required minimum ordering per operation kind; `None` = the
    /// protocol performs no such operation.
    pub load: Option<String>,
    pub store: Option<String>,
    pub rmw: Option<String>,
}

impl AtomicRow {
    fn requirement(&self, kind: OpKind) -> Option<&str> {
        match kind {
            OpKind::Load => self.load.as_deref(),
            OpKind::Store => self.store.as_deref(),
            OpKind::Rmw => self.rmw.as_deref(),
        }
    }
}

/// An atomic-typed struct field declared in library code.
#[derive(Debug, Clone)]
pub struct AtomicDecl {
    pub field: String,
    pub line: u32,
}

/// One atomic operation site: `<field>.<method>(.., Ordering::X ..)`.
#[derive(Debug, Clone)]
pub struct AtomicOp {
    pub field: String,
    pub method: String,
    pub line: u32,
    /// Ordering arguments in source order (`load`/`store`/RMW: one;
    /// `compare_exchange*`/`fetch_update`: success/set then failure/fetch).
    pub orderings: Vec<String>,
}

/// `(acquire, release, seqcst)` strength bits. `a` satisfies `b` iff
/// every bit of `b` is set in `a` — Acquire and Release are incomparable,
/// AcqRel covers both, SeqCst covers everything.
fn strength(ord: &str) -> Option<(bool, bool, bool)> {
    Some(match ord {
        "Relaxed" => (false, false, false),
        "Acquire" => (true, false, false),
        "Release" => (false, true, false),
        "AcqRel" => (true, true, false),
        "SeqCst" => (true, true, true),
        _ => return None,
    })
}

/// Whether ordering `actual` is at least as strong as `required`.
pub fn ordering_satisfies(actual: &str, required: &str) -> bool {
    match (strength(actual), strength(required)) {
        (Some((aa, ar, asc)), Some((ra, rr, rsc))) => (aa || !ra) && (ar || !rr) && (asc || !rsc),
        _ => false,
    }
}

/// Parse the ```` ```atomics-protocol ```` fenced block out of DESIGN.md.
pub fn parse_atomics_protocol(md: &str) -> Result<Vec<AtomicRow>, String> {
    fenced_rows(md, "atomics-protocol")?.into_iter().map(parse_row).collect()
}

fn parse_row((n, line): (u32, &str)) -> Result<AtomicRow, String> {
    let err = |msg: String| format!("{DESIGN} line {n}: {msg}");
    // Cut the trailing `— note` (em dash) before splitting fields.
    let spec = line.split('—').next().unwrap_or(line);
    let mut fields = spec.split_whitespace();
    let (Some(key), Some(role)) = (fields.next(), fields.next()) else {
        return Err(err(
            "expected `<crate>.<field> <role> load=.. store=.. rmw=.. — note`".to_string()
        ));
    };
    let Some((krate, field)) = key.split_once('.') else {
        return Err(err(format!("key {key:?} must be `<crate>.<field>`")));
    };
    if !ATOMIC_PROTOCOL_CRATES.contains(&krate) {
        return Err(err(format!(
            "crate {krate:?} is not covered by R11 (known: {ATOMIC_PROTOCOL_CRATES:?})"
        )));
    }
    if field.is_empty() {
        return Err(err(format!("key {key:?} has an empty field name")));
    }
    let mut cols: BTreeMap<&str, Option<String>> = BTreeMap::new();
    for col in fields {
        let Some((name, val)) = col.split_once('=') else {
            return Err(err(format!("expected `load=..`/`store=..`/`rmw=..`, got {col:?}")));
        };
        let parsed = match val {
            "-" => None,
            ord if strength(ord).is_some() => Some(ord.to_string()),
            other => return Err(err(format!("bad ordering {other:?} in {col:?}"))),
        };
        if !["load", "store", "rmw"].contains(&name) {
            return Err(err(format!("unknown column {name:?}")));
        }
        if cols.insert(name, parsed).is_some() {
            return Err(err(format!("duplicate column {name:?}")));
        }
    }
    let mut take = |col: &str| {
        cols.remove(col).ok_or_else(|| err(format!("row {key:?} is missing the `{col}=` column")))
    };
    Ok(AtomicRow {
        key: key.to_string(),
        role: role.to_string(),
        load: take("load")?,
        store: take("store")?,
        rmw: take("rmw")?,
    })
}

/// Atomic-typed field declarations in non-test regions: `name:` followed
/// by a type (up to `,` / `}` at bracket depth zero) that mentions an
/// atomic type — catches `AtomicU64`, `Vec<AtomicUsize>`,
/// `Arc<AtomicBool>` alike. Struct-literal initializers
/// (`used: AtomicU8::new(0)`) don't match: there the atomic type name
/// is a path prefix (followed by `::`), never the final type segment.
pub fn atomic_field_decls(file: &SourceFile) -> Vec<AtomicDecl> {
    let sig = &file.lib_tokens;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 2 < sig.len() {
        let name = &sig[i];
        // `name :` not followed by another `:` (which would be a path).
        let is_decl = name.kind == TokKind::Ident
            && sig[i + 1].is_punct(':')
            && !sig[i + 2].is_punct(':')
            && !sig.get(i.wrapping_sub(1)).is_some_and(|t| t.is_punct(':'));
        if !is_decl {
            i += 1;
            continue;
        }
        // Scan the type region for an atomic type name.
        let mut j = i + 2;
        let mut depth = 0i32;
        let mut found = false;
        while j < sig.len() {
            let t = &sig[j];
            if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct('>') || t.is_punct(')') || t.is_punct(']') {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if depth >= 0
                && (t.is_punct(',') || t.is_punct('{') || t.is_punct('}') || t.is_punct(';'))
                && depth == 0
            {
                break;
            } else if t.kind == TokKind::Ident
                && ATOMIC_TYPES.contains(&t.text.as_str())
                && !sig.get(j + 1).is_some_and(|n| n.is_punct(':'))
            {
                // Followed by `::` means `AtomicU64::new(..)` — a value
                // expression, not a type position.
                found = true;
            } else if t.is_punct('=') {
                // `let x: T = ..` / default value — stop at the type end.
                break;
            }
            j += 1;
        }
        if found {
            out.push(AtomicDecl { field: name.text.clone(), line: name.line });
        }
        i = j.max(i + 1);
    }
    out
}

/// Atomic operation sites in non-test regions, with receivers resolved
/// lexically (see module docs).
pub fn atomic_op_sites(file: &SourceFile) -> Vec<AtomicOp> {
    let sig = &file.lib_tokens;
    let mut out = Vec::new();
    for (i, m) in sig.iter().enumerate() {
        // `<recv> . method (` shape.
        if !(OPS.iter().any(|(name, _)| m.is_ident(name))
            && i >= 2
            && sig[i - 1].is_punct('.')
            && sig.get(i + 1).is_some_and(|t| t.is_punct('(')))
        {
            continue;
        }
        let Some(field) = receiver_ident(sig, i - 2) else { continue };
        // Collect `Ordering::X` (or a bare ordering ident) inside the
        // call's parentheses.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut orderings = Vec::new();
        while j < sig.len() {
            let t = &sig[j];
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.kind == TokKind::Ident && strength(&t.text).is_some() {
                // `Ordering::Relaxed` or a bare `Relaxed` import — both
                // resolve to the same ordering name.
                orderings.push(t.text.clone());
            }
            j += 1;
        }
        // Only keep sites that look like real atomic ops: the ordering
        // argument is what separates `rows.swap(a, b)` (Vec::swap) or an
        // iterator's `.max()` from atomic accesses.
        if orderings.is_empty() {
            continue;
        }
        out.push(AtomicOp { field, method: m.text.clone(), line: m.line, orderings });
    }
    out
}

/// Resolve the receiver identifier ending at `sig[at]`: an ident is
/// itself; a closing `]`/`)` walks back over one balanced group to the
/// ident before it (`self.slots[i]` → `slots`, `link_of(cursor).next` is
/// handled by the ident case since `next` precedes the `.`).
fn receiver_ident(sig: &[Token], at: usize) -> Option<String> {
    let t = sig.get(at)?;
    if t.kind == TokKind::Ident {
        return Some(t.text.clone());
    }
    let close = if t.is_punct(']') {
        ']'
    } else if t.is_punct(')') {
        ')'
    } else {
        return None;
    };
    let open = if close == ']' { '[' } else { '(' };
    let mut depth = 0i32;
    let mut k = at;
    loop {
        let t = sig.get(k)?;
        if t.is_punct(close) {
            depth += 1;
        } else if t.is_punct(open) {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        k = k.checked_sub(1)?;
    }
    let prev = sig.get(k.checked_sub(1)?)?;
    (prev.kind == TokKind::Ident).then(|| prev.text.clone())
}

/// Count of `Ordering::Relaxed` (or imported bare `Relaxed` ordering
/// argument) tokens in non-test regions — the R11 relaxed budget.
pub fn relaxed_sites(file: &SourceFile) -> Vec<u32> {
    // Count via op sites so `Relaxed` in doc text or unrelated idents
    // can't trip the budget: every relaxed *ordering argument* is what
    // the budget meters.
    atomic_op_sites(file)
        .iter()
        .flat_map(|op| op.orderings.iter().map(move |o| (o, op.line)))
        .filter(|(o, _)| o.as_str() == "Relaxed")
        .map(|(_, line)| line)
        .collect()
}

/// R11: check every op in the protocol crates' library `files` against
/// the table and sync the table against the declared fields, two-way.
pub fn check_atomics_protocol(rows: &[AtomicRow], files: &[&SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut report =
        |path: &str, line: u32, msg: String| findings.push(finding(path, line, "R11", msg));
    let mut by_key: BTreeMap<&str, &AtomicRow> = BTreeMap::new();
    for row in rows {
        if by_key.insert(row.key.as_str(), row).is_some() {
            report(DESIGN, 0, format!("atomics-protocol table lists {:?} twice", row.key));
        }
    }
    // Declared fields per key, crate-wide, for the two-way sync and for
    // the ordering checks: a struct's atomics are often used in another
    // file of its crate than the one declaring them.
    let mut declared: BTreeMap<String, (&str, u32)> = BTreeMap::new();
    for f in files {
        for d in &atomic_field_decls(f) {
            let key = format!("{}.{}", f.krate, d.field);
            if let Some((prev_rel, prev_line)) = declared.get(&key) {
                // Two structs in one crate sharing a field name must share
                // one protocol row; flag it so the ambiguity is explicit.
                let msg = format!(
                    "atomic field {key:?} also declared at {prev_rel}:{prev_line}: R11 keys \
                     fields by `<crate>.<name>`, so rename one or keep their protocols identical"
                );
                report(&f.rel, d.line, msg);
            } else {
                declared.insert(key.clone(), (&f.rel, d.line));
            }
            if !by_key.contains_key(key.as_str()) {
                let msg = format!(
                    "atomic field {key:?} is not in the DESIGN.md atomics-protocol table: add \
                     a row naming its role and required orderings"
                );
                report(&f.rel, d.line, msg);
            }
        }
    }
    // Ordering checks. An op on a local atomic or alias is not a protocol
    // access; a field missing from the table is already reported above.
    for f in files {
        for op in atomic_op_sites(f) {
            let key = format!("{}.{}", f.krate, op.field);
            let (Some(row), true) = (by_key.get(key.as_str()), declared.contains_key(&key)) else {
                continue;
            };
            let Some((_, kinds)) = OPS.iter().find(|(name, _)| *name == op.method) else {
                continue;
            };
            let site = format!("{key}.{}", op.method);
            if op.orderings.len() != kinds.len() {
                let msg = format!(
                    "{site}: expected {} ordering argument(s), found {} — R11 cannot verify \
                     this site",
                    kinds.len(),
                    op.orderings.len()
                );
                report(&f.rel, op.line, msg);
                continue;
            }
            for (ord, kind) in op.orderings.iter().zip(*kinds) {
                let column = kind.column();
                match row.requirement(*kind) {
                    None => report(
                        &f.rel,
                        op.line,
                        format!(
                            "{site}: the atomics-protocol table says this field has no \
                             `{column}` operations (column is `-`): update the protocol row or \
                             remove the access"
                        ),
                    ),
                    Some(required) if !ordering_satisfies(ord, required) => report(
                        &f.rel,
                        op.line,
                        format!(
                            "{site}: Ordering::{ord} is weaker than the protocol's required \
                             `{column}={required}` — strengthen the access or revise the table \
                             with a proof"
                        ),
                    ),
                    Some(_) => {}
                }
            }
        }
    }
    for row in rows.iter().filter(|row| !declared.contains_key(&row.key)) {
        let msg = format!(
            "atomics-protocol row {:?} names no atomic field in the code: delete the row or \
             fix the name",
            row.key
        );
        report(DESIGN, 0, msg);
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, krate: &str, src: &str) -> SourceFile {
        SourceFile::new(rel, krate, src)
    }

    const TABLE: &str = "\
intro text
```atomics-protocol
# comment line
buffer.state   frame-state    load=Acquire store=- rmw=Release — pin/valid word
buffer.pub_rel publish-hint   load=Relaxed store=Relaxed rmw=- — revalidation hint
wal.flushed    watermark      load=Acquire store=Release rmw=- — durable LSN
```
";

    #[test]
    fn table_parses() {
        let rows = parse_atomics_protocol(TABLE).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].key, "buffer.state");
        assert_eq!(rows[0].role, "frame-state");
        assert_eq!(rows[0].load.as_deref(), Some("Acquire"));
        assert_eq!(rows[0].store, None);
        assert_eq!(rows[0].rmw.as_deref(), Some("Release"));
    }

    #[test]
    fn table_rejects_bad_rows() {
        for bad in [
            "```atomics-protocol\nstate counter load=Acquire store=- rmw=-\n```", // no crate.
            "```atomics-protocol\nheap.x counter load=- store=- rmw=-\n```",      // unknown crate
            "```atomics-protocol\nwal.x counter load=Sloppy store=- rmw=-\n```",  // bad ordering
            "```atomics-protocol\nwal.x counter load=- store=-\n```",             // missing column
            "```atomics-protocol\nwal.x counter load=- load=- store=- rmw=-\n```", // dup column
            "no block at all",
        ] {
            assert!(parse_atomics_protocol(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn strength_lattice() {
        assert!(ordering_satisfies("AcqRel", "Release"));
        assert!(ordering_satisfies("AcqRel", "Acquire"));
        assert!(ordering_satisfies("SeqCst", "AcqRel"));
        assert!(ordering_satisfies("Acquire", "Acquire"));
        assert!(!ordering_satisfies("Acquire", "Release"));
        assert!(!ordering_satisfies("Release", "Acquire"));
        assert!(!ordering_satisfies("Relaxed", "Acquire"));
        assert!(!ordering_satisfies("AcqRel", "SeqCst"));
        assert!(ordering_satisfies("Release", "Relaxed"));
    }

    #[test]
    fn decls_found_including_wrapped() {
        let src = "struct S { a: AtomicU64, b: Vec<AtomicUsize>, c: Arc<AtomicBool>, d: u64 }\n\
                   #[cfg(test)] mod t { struct T { e: AtomicU64 } }";
        let decls = atomic_field_decls(&file("x.rs", "x", src));
        let names: Vec<&str> = decls.iter().map(|d| d.field.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"], "test-gated and plain fields excluded");
    }

    #[test]
    fn constructor_calls_are_not_decls() {
        let src = "fn f() -> S {\n\
            let x = AtomicU64::new(0);\n\
            S { a: AtomicU64::new(0), b: Vec::new(), c: Arc::new(AtomicBool::new(false)) }\n\
        }";
        assert!(atomic_field_decls(&file("x.rs", "x", src)).is_empty());
    }

    #[test]
    fn ops_resolve_receivers() {
        let src = "fn f(&self) {\n\
            self.state.load(Ordering::Acquire);\n\
            self.slots[i].store(v, Ordering::Relaxed);\n\
            self.head.compare_exchange_weak(a, b, Ordering::AcqRel, Ordering::Acquire);\n\
            rows.swap(0, 1);\n\
        }";
        let ops = atomic_op_sites(&file("x.rs", "x", src));
        assert_eq!(ops.len(), 3, "{ops:?} — Vec::swap has no ordering args");
        assert_eq!((ops[0].field.as_str(), ops[0].orderings.len()), ("state", 1));
        assert_eq!(ops[1].field.as_str(), "slots");
        assert_eq!((ops[2].field.as_str(), ops[2].orderings.len()), ("head", 2));
        assert_eq!(ops[2].orderings, vec!["AcqRel", "Acquire"]);
    }

    #[test]
    fn protocol_check_end_to_end() {
        let rows = parse_atomics_protocol(TABLE).unwrap();
        let src = "struct FrameState { state: AtomicU64, pub_rel: AtomicU64 }\n\
                   impl FrameState {\n\
                     fn pin(&self) { self.state.load(Ordering::Acquire); }\n\
                     fn bad(&self) { self.state.load(Ordering::Relaxed); }\n\
                     fn worse(&self) { self.state.store(0, Ordering::Release); }\n\
                   }";
        let file = file("crates/buffer/src/protocol.rs", "buffer", src);
        let findings = check_atomics_protocol(&rows, &[&file]);
        let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        // weaker-than-required load; store on a `store=-` field; the
        // wal.flushed row matches no declared field.
        assert_eq!(findings.len(), 3, "{msgs:#?}");
        assert!(msgs.iter().any(|m| m.contains("weaker than")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("no `store` operations")), "{msgs:?}");
        assert!(
            msgs.iter().filter(|m| m.contains("names no atomic field")).count() == 1,
            "{msgs:?}"
        );
    }

    /// A field declared in one file and used in another (the pool's
    /// struct in `lib.rs`, its captures in `capture.rs`) is checked where
    /// it is used.
    #[test]
    fn ops_are_checked_against_fields_declared_in_other_files() {
        let rows = parse_atomics_protocol(TABLE).unwrap();
        let decl = file("crates/buffer/src/lib.rs", "buffer", "struct Pool { state: AtomicU64 }");
        let user = file(
            "crates/buffer/src/capture.rs",
            "buffer",
            "impl Pool { fn f(&self) { self.state.load(Ordering::Relaxed); } }",
        );
        for files in [[&user, &decl], [&decl, &user]] {
            let findings = check_atomics_protocol(&rows, &files);
            assert!(
                findings.iter().any(|f| f.path.ends_with("capture.rs")
                    && f.message.contains("buffer.state.load: Ordering::Relaxed is weaker")),
                "{findings:#?}"
            );
        }
    }

    #[test]
    fn undeclared_field_is_reported() {
        let rows = parse_atomics_protocol(TABLE).unwrap();
        let src = "struct W { flushed: AtomicU64, waiters: AtomicU64 }";
        let file = file("crates/wal/src/group.rs", "wal", src);
        let findings = check_atomics_protocol(&rows, &[&file]);
        assert!(
            findings.iter().any(|f| f.message.contains("\"wal.waiters\" is not in")),
            "{findings:?}"
        );
    }

    #[test]
    fn relaxed_sites_are_counted_per_argument() {
        let src = "fn f(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }";
        assert_eq!(relaxed_sites(&file("x.rs", "x", src)).len(), 1);
    }

    #[test]
    fn relaxed_in_comments_or_tests_not_counted() {
        let src = "// Ordering::Relaxed in prose\n\
                   #[cfg(test)] mod t { fn f() { x.load(Ordering::Relaxed); } }";
        assert!(relaxed_sites(&file("x.rs", "x", src)).is_empty());
    }
}
