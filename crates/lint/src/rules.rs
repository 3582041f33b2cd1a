//! The token-shape rules R1–R4 and R6, each reading the views a
//! [`SourceFile`] already holds.

use crate::graph::{scan, Scan};
use crate::source::{spells, SourceFile, TokKind, Token};
use crate::{finding, Finding};

const STD_SYNC_BANNED: [&str; 5] =
    ["Mutex", "RwLock", "MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"];

/// R1: flag `std::sync::Mutex`-family paths and `use std::sync::{..}`
/// imports naming them. Lock acquisition must flow through the shim.
pub fn check_std_sync(file: &SourceFile) -> Vec<Finding> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    let mut check = |t: &Token| {
        if t.kind == TokKind::Ident && STD_SYNC_BANNED.contains(&t.text.as_str()) {
            let msg = format!(
                "std::sync::{} is banned outside shims/: use the parking_lot shim so the \
                 lock-rank checker sees it",
                t.text
            );
            out.push(finding(&file.rel, t.line, "R1", msg));
        }
    };
    let mut i = 0usize;
    while i < toks.len() {
        if !spells(toks, i, &["std", ":", ":", "sync", ":", ":"]) {
            i += 1;
            continue;
        }
        i += 6;
        if !toks.get(i).is_some_and(|t| t.is_punct('{')) {
            if let Some(t) = toks.get(i) {
                check(t);
            }
            continue;
        }
        // `use std::sync::{...}`: every name in the brace group.
        let mut depth = 0usize;
        while i < toks.len() {
            if toks[i].is_punct('{') {
                depth += 1;
            } else if toks[i].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else {
                check(&toks[i]);
            }
            i += 1;
        }
    }
    out
}

/// R2: flag `Mutex::new(..)`, `RwLock::new(..)`, and `::default()` lock
/// construction in non-test library code — use `with_rank` so the
/// runtime checker can order the lock.
pub fn check_unranked_locks(file: &SourceFile) -> Vec<Finding> {
    let toks = &file.lib_tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let ctor = ["new", "default"].into_iter().find(|ctor| {
            ["Mutex", "RwLock"]
                .into_iter()
                .any(|lock| spells(toks, i, &[lock, ":", ":", ctor, "("]))
        });
        if let Some(ctor) = ctor {
            let msg = format!(
                "{}::{ctor} in library code: construct with with_rank(.., ranks::..) so the \
                 lock-rank checker can order it",
                t.text
            );
            out.push(finding(&file.rel, t.line, "R2", msg));
        }
    }
    out
}

/// Macros that panic by design.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// R3: source lines (1-based) of every panic site in non-test regions of
/// the file: `.unwrap(..)` / `.expect(..)` calls and the panicking
/// macros. The call-graph scanner runs over the whole file
/// rather than one fn body, so a site in a static initializer or macro
/// body counts too.
pub fn panic_sites(file: &SourceFile) -> Vec<u32> {
    let mut found = Scan::default();
    scan(&file.trees, true, &mut found);
    let calls = found.calls.iter().filter(|c| c.method && matches!(c.name(), "unwrap" | "expect"));
    let macros = found.macros.iter().filter(|(m, _)| PANIC_MACROS.contains(&m.as_str()));
    calls.map(|c| c.line).chain(macros.map(|(_, line)| *line)).collect()
}

/// R4: every `unsafe` token (everywhere, tests and shims included) must
/// have a `SAFETY:` comment on its own line or within the three lines
/// above it.
pub fn check_unsafe(file: &SourceFile) -> Vec<Finding> {
    let lines: Vec<&str> = file.text.lines().collect();
    let mut out = Vec::new();
    for t in file.tokens.iter().filter(|t| t.is_ident("unsafe")) {
        let ln = t.line as usize; // 1-based
        let lo = ln.saturating_sub(4); // up to three lines above
        if !lines[lo..ln.min(lines.len())].iter().any(|l| l.contains("SAFETY:")) {
            let msg = "unsafe without a `// SAFETY:` comment in the preceding three lines";
            out.push(finding(&file.rel, t.line, "R4", msg.to_string()));
        }
    }
    out
}

/// `(name, line)` of every `obs::counter!`/`gauge!`/`histogram!`/`span!`
/// invocation in non-test regions. One macro site declares one static, so
/// these are exactly the workspace's metric registration points.
pub fn metric_name_sites(file: &SourceFile) -> Vec<(String, u32)> {
    let toks = &file.lib_tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let registers = ["counter", "gauge", "histogram", "span"]
            .into_iter()
            .any(|kind| spells(toks, i, &["obs", ":", ":", kind, "!", "("]));
        match toks.get(i + 6) {
            Some(name) if registers && name.kind == TokKind::Str => {
                out.push((name.text.clone(), name.line));
            }
            _ => {}
        }
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
    let malformed = sites.iter().filter(|(name, _)| !valid_metric_name(name));
    let report = |(name, line): &(String, u32)| {
        let msg = format!(
            "metric name {name:?} does not match ^[a-z]+(\\.[a-z_]+)+$: use layer.op[.unit], \
             lowercase, dot-separated"
        );
        finding(path, *line, "R6", msg)
    };
    malformed.map(report).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::tokenize;

    fn file(src: &str) -> SourceFile {
        SourceFile::new("x.rs", "x", src)
    }

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
        assert_eq!(panic_sites(&file(src)), Vec::<u32>::new());
    }

    #[test]
    fn tokenizer_sees_unwrap_after_tuple_field() {
        let sites = panic_sites(&file("fn f() { x.0.unwrap(); }"));
        assert_eq!(sites.len(), 1);
    }

    #[test]
    fn std_sync_rule_fires_on_import_and_path() {
        let src = "use std::sync::{Arc, Mutex};\nfn f() { let _ = std::sync::RwLock::new(0); }";
        let f = check_std_sync(&file(src));
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("std::sync::Mutex"));
        assert_eq!(f[0].line, 1);
        assert!(f[1].message.contains("std::sync::RwLock"));
        assert_eq!(f[1].line, 2);
    }

    #[test]
    fn std_sync_rule_allows_arc_and_atomics() {
        let src = "use std::sync::Arc;\nuse std::sync::atomic::{AtomicU64, Ordering};\nuse std::sync::mpsc::channel;";
        assert!(check_std_sync(&file(src)).is_empty());
    }

    #[test]
    fn unranked_lock_rule_fires_outside_tests_only() {
        let src = "fn f() { let _ = Mutex::new(0); }\n\
                   #[cfg(test)]\nmod tests { fn g() { let _ = RwLock::new(0); } }";
        let f = check_unranked_locks(&file(src));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
        assert!(f[0].message.contains("with_rank"));
    }

    #[test]
    fn unranked_lock_rule_accepts_with_rank() {
        let src = "fn f() { let _ = Mutex::with_rank(0, ranks::CATALOG); }";
        assert!(check_unranked_locks(&file(src)).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let src = "#[cfg(not(test))]\nfn f() { x.unwrap(); }";
        assert_eq!(panic_sites(&file(src)).len(), 1);
    }

    #[test]
    fn test_fn_attribute_is_masked() {
        let src = "#[test]\nfn f() { x.unwrap(); }\nfn g() { y.expect(\"\"); }";
        let sites = panic_sites(&file(src));
        assert_eq!(sites, vec![3]);
    }

    #[test]
    fn safety_comment_rule() {
        let bad = "fn f() {\n    unsafe { core::hint::unreachable_unchecked() }\n}";
        let f = check_unsafe(&file(bad));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);

        let good = "fn f() {\n    // SAFETY: provably unreachable per the match above.\n    unsafe { core::hint::unreachable_unchecked() }\n}";
        assert!(check_unsafe(&file(good)).is_empty());

        // The word `unsafe` inside a comment or string is not a token.
        let quoted = "// unsafe\nlet s = \"unsafe\";";
        assert!(check_unsafe(&file(quoted)).is_empty());
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
        for good in ["pool.hits", "smgr.disk.read", "lo.fchunk.read.bytes", "wal.fsync"] {
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
        let sites = metric_name_sites(&file(src));
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
