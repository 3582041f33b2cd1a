//! R6, the one token-shape rule: metric names, read off the views a
//! [`SourceFile`] already holds.

use crate::source::{spells, SourceFile, TokKind};
use crate::{finding, Finding};

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
