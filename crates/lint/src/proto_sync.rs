//! R10: four-way protocol exhaustiveness. The `Opcode` enum in
//! `proto.rs` (variants, discriminants, `ALL`, `name()`), the server
//! dispatch match in `service.rs`, the typed client's `Opcode::`
//! references, and the machine-readable ```` ```wire-ops ```` table in
//! DESIGN.md must all describe the same opcode set. An opcode added (or
//! removed) anywhere but everywhere fails the build; a wildcard arm in
//! dispatch is itself a violation because it would hide the drift.

use crate::ast::{parse_int, Tree};
use crate::source::{SourceFile, TokKind, Token};
use crate::tables::{fenced_rows, DESIGN};
use crate::{finding, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// Run the four-way check over the three server files and DESIGN.md's
/// text.
pub fn check_proto_sync(
    proto: &SourceFile,
    service: &SourceFile,
    client: &SourceFile,
    design: &str,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut report = |path: &str, line: u32, msg: String| out.push(finding(path, line, "R10", msg));

    // --- proto.rs: enum + ALL + name() -----------------------------------
    let items = &proto.items;
    let Some(op_enum) = items.enums.iter().find(|e| e.name == "Opcode") else {
        report(&proto.rel, 0, "no `enum Opcode` found".to_string());
        return out;
    };
    let mut variants: BTreeMap<String, (u64, u32)> = BTreeMap::new();
    let mut discs: BTreeMap<u64, String> = BTreeMap::new();
    for (vname, disc, vline) in &op_enum.variants {
        let Some(d) = disc else {
            let msg = format!(
                "Opcode::{vname} has no explicit discriminant: wire opcodes must pin their byte"
            );
            report(&proto.rel, *vline, msg);
            continue;
        };
        if let Some(prev) = discs.insert(*d, vname.clone()) {
            let msg = format!("Opcode::{vname} reuses discriminant {d:#04x} of Opcode::{prev}");
            report(&proto.rel, *vline, msg);
        }
        variants.insert(vname.clone(), (*d, *vline));
    }
    let vset: BTreeSet<&String> = variants.keys().collect();

    // ALL: `Opcode::X` refs inside the const's value.
    if let Some(all) = items.consts.iter().find(|c| c.name == "ALL") {
        let refs = opcode_refs(&all.value);
        let aset: BTreeSet<&String> = refs.keys().collect();
        for v in vset.difference(&aset) {
            report(&proto.rel, all.line, format!("Opcode::{v} missing from Opcode::ALL"));
        }
        for v in aset.difference(&vset) {
            report(&proto.rel, all.line, format!("Opcode::ALL lists unknown variant {v}"));
        }
    } else {
        report(&proto.rel, 0, "no `const ALL` in proto.rs".to_string());
    }

    // name(): match arms `Opcode::X => "snake"`.
    let mut names: BTreeMap<String, String> = BTreeMap::new();
    if let Some(name_fn) =
        items.fns.iter().find(|f| f.name == "name" && f.qual.as_deref() == Some("Opcode"))
    {
        let (at, mut arms) = (name_fn.line, Vec::new());
        if let Some(body) = &name_fn.body {
            opcode_arms(&body.trees, &mut arms);
        }
        for (variant, _, value) in arms {
            if let Some(Tree::Tok(Token { kind: TokKind::Str, text, .. })) = value {
                names.insert(variant.to_string(), text.clone());
            }
        }
        let nset: BTreeSet<&String> = names.keys().collect();
        for v in vset.difference(&nset) {
            report(&proto.rel, at, format!("Opcode::{v} has no arm in Opcode::name()"));
        }
        for v in nset.difference(&vset) {
            report(&proto.rel, at, format!("Opcode::name() names unknown variant {v}"));
        }
        let mut seen: BTreeMap<&String, &String> = BTreeMap::new();
        for (v, s) in &names {
            if let Some(prev) = seen.insert(s, v) {
                report(&proto.rel, at, format!("Opcode::name() maps both {prev} and {v} to {s:?}"));
            }
        }
    } else {
        report(&proto.rel, 0, "no `Opcode::name()` in proto.rs".to_string());
    }

    // --- service.rs: dispatch match --------------------------------------
    if let Some(dispatch) = service.items.fns.iter().find(|f| f.name == "dispatch") {
        let mut arms: BTreeMap<String, u32> = BTreeMap::new();
        let mut wildcard: Option<u32> = None;
        if let Some(body) = &dispatch.body {
            collect_dispatch_arms(&body.trees, &mut arms, &mut wildcard);
        }
        if let Some(line) = wildcard {
            let msg = "wildcard `_ =>` arm in dispatch: every opcode must have an explicit arm \
                       so adding one is a visible decision, not silent fallthrough";
            report(&service.rel, line, msg.to_string());
        }
        let aset: BTreeSet<&String> = arms.keys().collect();
        for v in vset.difference(&aset) {
            let msg = format!("Opcode::{v} has no dispatch arm in service.rs");
            report(&service.rel, dispatch.line, msg);
        }
        for v in aset.difference(&vset) {
            report(&service.rel, arms[*v], format!("dispatch arm for unknown Opcode::{v}"));
        }
    } else {
        report(&service.rel, 0, "no `fn dispatch` in service.rs".to_string());
    }

    // --- client.rs: typed client must exercise every opcode ---------------
    let client_refs = opcode_refs(&client.trees);
    let cset: BTreeSet<&String> = client_refs.keys().collect();
    for v in vset.difference(&cset) {
        let msg =
            format!("typed client never references Opcode::{v}: every wire op needs a typed API");
        report(&client.rel, 0, msg);
    }

    // --- DESIGN.md: wire-ops table ----------------------------------------
    let rows = match parse_wire_ops(design) {
        Ok(rows) => rows,
        Err(e) => {
            report(DESIGN, 0, e);
            return out;
        }
    };
    let mut row_by_name: BTreeMap<&String, (u64, u32)> = BTreeMap::new();
    for (disc, name, line) in &rows {
        if row_by_name.insert(name, (*disc, *line)).is_some() {
            report(DESIGN, *line, format!("duplicate wire-ops row for {name}"));
        }
    }
    // Compare (discriminant, snake name) pairs against enum+name().
    for (v, (d, vline)) in &variants {
        let Some(snake) = names.get(v) else { continue };
        match row_by_name.get(snake) {
            None => {
                let msg = format!(
                    "opcode {snake} ({d:#04x}, Opcode::{v} at {}:{vline}) missing from the \
                     DESIGN.md wire-ops table",
                    proto.rel
                );
                report(DESIGN, 0, msg);
            }
            Some((row_d, row_line)) if row_d != d => {
                let msg =
                    format!("wire-ops row {snake} says {row_d:#04x} but Opcode::{v} is {d:#04x}");
                report(DESIGN, *row_line, msg);
            }
            Some(_) => {}
        }
    }
    let snake_set: BTreeSet<&String> = names.values().collect();
    for (_, name, line) in rows.iter().filter(|(_, name, _)| !snake_set.contains(name)) {
        report(DESIGN, *line, format!("wire-ops row {name} matches no Opcode::name()"));
    }
    out
}

/// The variant `X` of an `Opcode::X` path starting at `trees[i]`.
fn opcode_at(trees: &[Tree], i: usize) -> Option<&str> {
    let path = trees[i].is_ident("Opcode")
        && trees.get(i + 1).is_some_and(|x| x.is_punct(':'))
        && trees.get(i + 2).is_some_and(|x| x.is_punct(':'));
    let variant = trees.get(i + 3).filter(|_| path)?.ident()?;
    variant.starts_with(char::is_uppercase).then_some(variant)
}

/// `Opcode::X` references (`ALL` itself excepted) anywhere in `trees`,
/// recursing into groups, mapped to the first line seen.
fn opcode_refs(trees: &[Tree]) -> BTreeMap<String, u32> {
    fn walk(trees: &[Tree], out: &mut BTreeMap<String, u32>) {
        for (i, t) in trees.iter().enumerate() {
            if let Some(name) = opcode_at(trees, i).filter(|name| *name != "ALL") {
                out.entry(name.to_string()).or_insert(trees[i + 3].line());
            }
            if let Some(g) = t.group() {
                walk(&g.trees, out);
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(trees, &mut out);
    out
}

/// Match arms `Opcode::X => value` directly in `trees` (one group
/// level): `(variant, line, first tree of the value)`.
fn arms_in(trees: &[Tree]) -> impl Iterator<Item = (&str, u32, Option<&Tree>)> {
    (0..trees.len()).filter_map(move |i| {
        let variant = opcode_at(trees, i)?;
        let arrow = trees.get(i + 4).is_some_and(|x| x.is_punct('='))
            && trees.get(i + 5).is_some_and(|x| x.is_punct('>'));
        arrow.then(|| (variant, trees[i + 3].line(), trees.get(i + 6)))
    })
}

/// Every `Opcode::X => value` arm in `trees`, recursing into groups.
fn opcode_arms<'t>(trees: &'t [Tree], out: &mut Vec<(&'t str, u32, Option<&'t Tree>)>) {
    out.extend(arms_in(trees));
    for g in trees.iter().filter_map(Tree::group) {
        opcode_arms(&g.trees, out);
    }
}

/// `Opcode::X =>` match-arm patterns inside dispatch, plus any `_ =>`
/// wildcard found in a group that also contains Opcode arms.
fn collect_dispatch_arms(
    trees: &[Tree],
    out: &mut BTreeMap<String, u32>,
    wildcard: &mut Option<u32>,
) {
    for g in trees.iter().filter_map(Tree::group) {
        collect_dispatch_arms(&g.trees, out, wildcard);
    }
    let local: Vec<_> = arms_in(trees).map(|(v, line, _)| (v.to_string(), line)).collect();
    let local_wildcard = (0..trees.len()).rev().find(|&i| {
        trees[i].is_ident("_")
            && trees.get(i + 1).is_some_and(|x| x.is_punct('='))
            && trees.get(i + 2).is_some_and(|x| x.is_punct('>'))
    });
    if let (false, Some(i), None) = (local.is_empty(), local_wildcard, &wildcard) {
        *wildcard = Some(trees[i].line());
    }
    out.extend(local);
}

/// Rows of the ```` ```wire-ops ```` fenced block: `0xNN name — note`.
/// Returns `(discriminant, snake name, line)` per row.
pub fn parse_wire_ops(md: &str) -> Result<Vec<(u64, String, u32)>, String> {
    let parse = |(n, row): (u32, &str)| {
        let mut fields = row.split_whitespace();
        let (Some(disc), Some(name)) = (fields.next(), fields.next()) else {
            return Err(format!("wire-ops line {n}: expected `0xNN name — note`"));
        };
        let Some(disc) = parse_int(disc) else {
            return Err(format!("wire-ops line {n}: bad opcode byte {disc:?}"));
        };
        Ok((disc, name.to_string(), n))
    };
    fenced_rows(md, "wire-ops")?.into_iter().map(parse).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROTO: &str = r#"
        pub enum Opcode { Ping = 0x01, Read = 0x02 }
        impl Opcode {
            pub const ALL: [Opcode; 2] = [Opcode::Ping, Opcode::Read];
            pub fn name(self) -> &'static str {
                match self { Opcode::Ping => "ping", Opcode::Read => "read" }
            }
        }
    "#;
    const SERVICE: &str = r#"
        impl Service {
            fn dispatch(&mut self, op: Opcode) -> Reply {
                match op { Opcode::Ping => self.ping(), Opcode::Read => self.read() }
            }
        }
    "#;
    const CLIENT: &str = r#"
        impl Client {
            pub fn ping(&mut self) { self.call(Opcode::Ping) }
            pub fn read(&mut self) { self.call(Opcode::Read) }
        }
    "#;
    const DESIGN: &str =
        "x\n```wire-ops\n0x01 ping — liveness probe\n0x02 read — read bytes\n```\n";

    fn run(proto: &str, service: &str, client: &str, design: &str) -> Vec<Finding> {
        let file = |rel, src| SourceFile::new(rel, "server", src);
        check_proto_sync(
            &file("proto.rs", proto),
            &file("service.rs", service),
            &file("client.rs", client),
            design,
        )
    }

    #[test]
    fn in_sync_is_clean() {
        let f = run(PROTO, SERVICE, CLIENT, DESIGN);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn opcode_only_in_proto_fails_everywhere_else() {
        let proto = PROTO.replace("Read = 0x02 }", "Read = 0x02, Purge = 0x03 }");
        // Not in ALL, name(), dispatch, client, or the design table.
        let f = run(&proto, SERVICE, CLIENT, DESIGN);
        assert!(f.len() >= 4, "{f:?}");
        assert!(f.iter().any(|x| x.message.contains("missing from Opcode::ALL")));
        assert!(f.iter().any(|x| x.message.contains("no arm in Opcode::name()")));
        assert!(f.iter().any(|x| x.message.contains("no dispatch arm")));
        assert!(f.iter().any(|x| x.message.contains("never references Opcode::Purge")));
    }

    #[test]
    fn removed_dispatch_arm_fails() {
        let service = SERVICE.replace("Opcode::Read => self.read()", "_ => self.nope()");
        let f = run(PROTO, &service, CLIENT, DESIGN);
        assert!(f.iter().any(|x| x.message.contains("wildcard")), "{f:?}");
        assert!(f.iter().any(|x| x.message.contains("Opcode::Read has no dispatch arm")), "{f:?}");
    }

    #[test]
    fn design_drift_fails() {
        let wrong_byte = DESIGN.replace("0x02 read", "0x05 read");
        let f = run(PROTO, SERVICE, CLIENT, &wrong_byte);
        assert!(f.iter().any(|x| x.message.contains("says 0x05")), "{f:?}");
        let missing_row = DESIGN.replace("0x02 read — read bytes\n", "");
        let f = run(PROTO, SERVICE, CLIENT, &missing_row);
        assert!(
            f.iter().any(|x| x.message.contains("missing from the DESIGN.md wire-ops table")),
            "{f:?}"
        );
        let no_block = "nothing here";
        let f = run(PROTO, SERVICE, CLIENT, no_block);
        assert!(f.iter().any(|x| x.message.contains("no ```wire-ops")), "{f:?}");
    }

    #[test]
    fn duplicate_discriminant_fails() {
        let proto = PROTO.replace("Read = 0x02", "Read = 0x01");
        let f = run(&proto, SERVICE, CLIENT, DESIGN);
        assert!(f.iter().any(|x| x.message.contains("reuses discriminant")), "{f:?}");
    }
}
