//! The text tables the rules check against, each read one way: the
//! fenced `atomics-protocol` block in DESIGN.md ([`fenced_rows`]), the
//! exact-count budget ([`parse_budget`] / [`check_budget`]) and the
//! `// LINT: allow(..)` directives that excuse a finding into the
//! budget ([`Allows`]).

use crate::source::SourceFile;
use crate::{finding, Finding};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Path findings about DESIGN.md's tables are reported against.
pub const DESIGN: &str = "DESIGN.md";

/// `(1-based line number, trimmed text)` of every line that is neither
/// blank nor a `#` comment — the row syntax all the tables share.
fn data_lines(text: &str) -> impl Iterator<Item = (u32, &str)> {
    (1u32..).zip(text.lines().map(str::trim)).filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
}

/// Rows of the ```` ```<tag> ```` fenced block(s) in DESIGN.md (R11
/// reads `atomics-protocol`, its one table). A
/// missing or unterminated block is an error, not a silent pass.
pub fn fenced_rows<'a>(md: &'a str, tag: &str) -> Result<Vec<(u32, &'a str)>, String> {
    let open = format!("```{tag}");
    let mut rows = Vec::new();
    let (mut in_block, mut seen) = (false, false);
    for (n, line) in data_lines(md) {
        if !in_block {
            in_block = line == open;
            seen |= in_block;
        } else if line == "```" {
            in_block = false;
        } else {
            rows.push((n, line));
        }
    }
    if !seen {
        return Err(format!("{DESIGN} has no ```{tag} fenced block"));
    }
    if in_block {
        return Err(format!("{DESIGN} ```{tag} block is unterminated"));
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// The budget: one exact-count ratchet for every per-file allowance
// ---------------------------------------------------------------------------

/// Rules whose tolerated sites are budgeted per file in
/// `crates/lint/budget.txt`: panic sites (R3), swallowed errors (R9),
/// `Ordering::Relaxed` arguments (R11), and findings excused by a
/// reasoned `// LINT: allow(..)` (R7, R12, R13, R14).
pub const BUDGET_RULES: [&str; 7] = ["R3", "R7", "R9", "R11", "R12", "R13", "R14"];

/// A budgeted rule's sites, or its committed allowances, per
/// `(rule, workspace-relative path)`.
pub type PerFile<T> = BTreeMap<(&'static str, String), T>;

/// Parse `budget.txt`: `<count> <rule> <path>` rows, `#` comments.
pub fn parse_budget(text: &str) -> Result<PerFile<usize>, String> {
    let mut rows = BTreeMap::new();
    for (n, line) in data_lines(text) {
        let mut fields = line.split_whitespace();
        let (Some(count), Some(rule), Some(path)) = (fields.next(), fields.next(), fields.next())
        else {
            return Err(format!("budget.txt line {n}: expected `<count> <rule> <path>`"));
        };
        let count: usize =
            count.parse().map_err(|_| format!("budget.txt line {n}: bad count {count:?}"))?;
        let Some(rule) = BUDGET_RULES.iter().find(|r| **r == rule) else {
            return Err(format!("budget.txt line {n}: {rule} is not a budgeted rule"));
        };
        if rows.insert((*rule, path.to_string()), count).is_some() {
            return Err(format!("budget.txt line {n}: duplicate row for {rule} {path}"));
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
// LINT: allow(...) directives
// ---------------------------------------------------------------------------

/// Rules that take per-site allows (R9 is budgeted per file instead).
const ALLOW_RULES: [&str; 4] = ["R7", "R12", "R13", "R14"];

/// One `// LINT: allow(RULE, reason)` directive in a source file. It
/// excuses findings of `rule` on the same line or the line below (so it
/// can ride at end-of-line or as a comment above the call).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    pub rule: String,
    pub reason: String,
    pub line: u32,
}

/// Collect allow directives from raw source text (comments included —
/// the directive *is* a comment).
pub fn collect_allows(src: &str) -> Vec<Allow> {
    let mut out = Vec::new();
    for (n, line) in (1u32..).zip(src.lines()) {
        let mut rest = line;
        while let Some(at) = rest.find("LINT: allow(") {
            let tail = &rest[at + "LINT: allow(".len()..];
            let Some(close) = tail.find(')') else { break };
            let inner = &tail[..close];
            let (rule, reason) = inner.split_once(',').unwrap_or((inner, ""));
            out.push(Allow { rule: rule.trim().into(), reason: reason.trim().into(), line: n });
            rest = &tail[close..];
        }
    }
    out
}

/// The allow directives of a set of files, and which of them have
/// excused a finding — the one matcher the driver and the self-tests
/// share.
pub struct Allows<'a> {
    /// `(file path, directive, used)`.
    entries: Vec<(&'a str, &'a Allow, bool)>,
}

impl<'a> Allows<'a> {
    pub fn of(files: impl IntoIterator<Item = &'a SourceFile>) -> Self {
        let of_file = |f: &'a SourceFile| f.allows.iter().map(|a| (f.rel.as_str(), a, false));
        Allows { entries: files.into_iter().flat_map(of_file).collect() }
    }

    /// Whether a reasoned allow for the finding's rule sits on its line
    /// or the line above; marks that directive used. An excused finding
    /// counts against its file's budget row instead of standing.
    pub fn excuses(&mut self, f: &Finding) -> bool {
        let hit = self.entries.iter_mut().find(|(path, a, _)| {
            f.path == Path::new(path)
                && a.rule == f.rule
                && ALLOW_RULES.contains(&f.rule)
                && !a.reason.is_empty()
                && (a.line == f.line || a.line + 1 == f.line)
        });
        let Some((_, _, used)) = hit else { return false };
        *used = true;
        true
    }

    /// Findings about the directives themselves: a rule that takes no
    /// allows, a missing reason (the bar is zero un-reasoned allows),
    /// and stale directives that excused nothing — so the escape-hatch
    /// inventory stays honest. Call once every allowable rule has run.
    pub fn leftover(self) -> Vec<Finding> {
        let mut out = Vec::new();
        for (path, a, used) in self.entries {
            let r = &a.rule;
            // Unrecognized rules report as R7, the original allow family.
            let Some(rule) = ALLOW_RULES.into_iter().find(|k| k == r) else {
                let msg = format!(
                    "LINT: allow({r}) is not a recognized escape hatch: only R7, R12, R13 and \
                     R14 take per-site allows (R9 is budgeted per file in budget.txt)"
                );
                out.push(finding(path, a.line, "R7", msg));
                continue;
            };
            if a.reason.is_empty() {
                let msg = format!(
                    "LINT: allow({r}) without a reason: write why the site is safe — \
                     `// LINT: allow({r}, reason)`"
                );
                out.push(finding(path, a.line, rule, msg));
            } else if !used {
                let msg = format!(
                    "stale LINT: allow({r}) — no finding on this or the next line; delete it \
                     so the escape-hatch count stays honest"
                );
                out.push(finding(path, a.line, rule, msg));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn allows_parse() {
        let a = collect_allows(
            "x();\n// LINT: allow(R7, persist lock orders snapshot writes)\ny();\nz(); // LINT: allow(R7)\n",
        );
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].rule, "R7");
        assert_eq!(a[0].line, 2);
        assert!(a[0].reason.contains("persist"));
        assert_eq!(a[1].line, 4);
        assert!(a[1].reason.is_empty());
    }
}
