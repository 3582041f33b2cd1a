//! The source view: everything the rules read about one file, derived
//! once. [`SourceFile::new`] tokenizes (comments dropped; strings, raw
//! strings and char literals vs. lifetimes told apart, so no rule can
//! be fooled by string or comment contents), masks `#[cfg(test)]` /
//! `#[test]` items, builds token trees over the rest, parses items and
//! collects `LINT: allow` directives. Rules take a `&SourceFile`; none
//! re-derives any of it. [`load_workspace`] walks the checkout and marks
//! which files are library code.

use crate::ast::{build_trees, parse_items, Items, Tree};
use crate::tables::{collect_allows, Allow};
use std::path::{Path, PathBuf};

/// Kind of a lexed token. Just enough resolution for the rules: idents
/// (including keywords), single-char punctuation, literals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Punct,
    Str,
    CharLit,
    Lifetime,
    Num,
}

/// One lexed token with its source line (1-based).
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Token {
    pub(crate) fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }

    pub(crate) fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
}

/// Whether the tokens at `i..` spell `pat`, one ident or punctuation
/// character per element.
pub(crate) fn spells(tokens: &[Token], i: usize, pat: &[&str]) -> bool {
    pat.iter().enumerate().all(|(k, p)| {
        tokens
            .get(i + k)
            .is_some_and(|t| matches!(t.kind, TokKind::Ident | TokKind::Punct) && t.text == *p)
    })
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_cont(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `src` into tokens. Comments and whitespace are dropped. Never
/// fails: unterminated constructs run to end of input.
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
            while i < b.len() && b[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Block comment (Rust block comments nest).
        if c == '/' && b.get(i + 1) == Some(&'*') {
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
            // R6, which only reads simple name literals.
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

/// Marks every token belonging to a `#[cfg(test)]`- or `#[test]`-gated
/// item (attribute through end of item) so the library-code rules can
/// skip test code embedded in library files. `#[cfg(not(test))]` is
/// *not* masked.
fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if !spells(tokens, i, &["#", "["]) {
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
        while spells(tokens, k, &["#", "["]) {
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

/// Whether a file is library code, by where it lives: `crates/*/src`
/// and `src/`, the only code the rules check. Not library code:
/// `shims/`, `tests/`, `benches/`, `examples/`, out-of-line
/// `src/tests.rs` modules and the benchmark harness crate (a
/// measurement tool, not a library I/O path); R14 still reads some of
/// them as callers.
fn is_lib(rel: &str) -> bool {
    let in_crate =
        rel.strip_prefix("crates/").and_then(|r| r.split_once('/')).map(|(_, rest)| rest);
    let test_dir = |p: &str| ["tests/", "benches/", "examples/"].iter().any(|d| p.starts_with(d));
    !(rel.starts_with("shims/")
        || rel.starts_with("crates/bench/")
        || test_dir(rel)
        || in_crate.is_some_and(|rest| {
            test_dir(rest) || rest == "src/tests.rs" || rest.starts_with("src/tests/")
        }))
}

/// One source file and every view of it the rules share.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Whether the file is library code, the only code the rules check.
    pub lib: bool,
    /// `<name>` of `crates/<name>/..`; empty outside `crates/`.
    pub krate: String,
    pub text: String,
    /// Tokens outside test-gated items (R6, R11).
    pub lib_tokens: Vec<Token>,
    /// Trees over `lib_tokens`, and the items parsed from them.
    pub trees: Vec<Tree>,
    pub items: Items,
    /// `// LINT: allow(..)` directives, from the raw text.
    pub allows: Vec<Allow>,
}

impl SourceFile {
    /// Derive every view of `text`. `krate` is explicit so fixtures can
    /// pose as any crate; [`load_workspace`] reads it off the path.
    pub fn new(rel: &str, krate: &str, text: impl Into<String>) -> Self {
        let text = text.into();
        let tokens = tokenize(&text);
        let mask = test_mask(&tokens);
        let lib_tokens: Vec<Token> =
            tokens.iter().zip(mask).filter(|(_, masked)| !masked).map(|(t, _)| t.clone()).collect();
        let trees = build_trees(&lib_tokens);
        SourceFile {
            rel: rel.to_string(),
            lib: is_lib(rel),
            krate: krate.to_string(),
            allows: collect_allows(&text),
            items: parse_items(&trees),
            trees,
            lib_tokens,
            text,
        }
    }

    /// Library code of an engine crate — what the dataflow and
    /// call-graph rules run on. The linter's own sources are out: they
    /// quote the `LINT: allow` syntax in messages and do plain
    /// config-file I/O with no guards.
    pub fn is_engine(&self) -> bool {
        self.lib && !self.krate.is_empty() && self.krate != "lint"
    }
}

/// Load every `.rs` file under the workspace's checked roots, sorted by
/// path for deterministic output; `overrides` substitutes text by
/// workspace-relative path (the injection tests weaken one call site in
/// memory). `crates/lint/tests/fixtures/` is skipped: those files are
/// the lint self-tests' inputs and violate rules on purpose.
pub fn load_workspace(root: &Path, overrides: &[(&str, &str)]) -> Result<Vec<SourceFile>, String> {
    let mut paths = Vec::new();
    for top in ["crates", "shims", "src", "tests", "benches", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .map_err(|_| "walker escaped the root".to_string())?
            .to_string_lossy()
            .replace('\\', "/");
        if rel.contains("tests/fixtures/") {
            continue;
        }
        let text = match overrides.iter().find(|(p, _)| *p == rel) {
            Some((_, text)) => text.to_string(),
            None => read(&path)?,
        };
        let krate = rel.strip_prefix("crates/").and_then(|r| r.split('/').next()).unwrap_or("");
        files.push(SourceFile::new(&rel, krate, text));
    }
    Ok(files)
}

pub(crate) fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

#[expect(
    clippy::disallowed_methods,
    reason = "the linter walks the source tree on the host; it is not a store path"
)]
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let err = |e| format!("read_dir {}: {e}", dir.display());
    for entry in std::fs::read_dir(dir).map_err(err)? {
        let path = entry.map_err(err)?.path();
        if path.is_dir() {
            if !path.ends_with("target") {
                walk(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
