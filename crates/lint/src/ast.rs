//! A lightweight Rust AST for the analyzer rules (R7–R14):
//! balanced token trees, then an item parser recognizing functions (with
//! parameter lists, return types, and bodies), impl/trait/mod nesting,
//! enums with discriminants, and consts. Deliberately approximate — it
//! never needs to type-check, only to see names, call shapes, and block
//! structure — but it must never mis-bracket, so trees are built from the
//! real tokenizer (strings/comments can't confuse it).

use crate::source::{TokKind, Token};

/// A token tree: a plain token or a balanced delimiter group.
#[derive(Debug, Clone)]
pub enum Tree {
    Tok(Token),
    Group(Group),
}

/// A balanced `(..)`, `[..]`, or `{..}` group.
#[derive(Debug, Clone)]
pub struct Group {
    /// Opening delimiter: `(`, `[`, or `{`.
    pub delim: char,
    /// Line of the opening delimiter.
    pub line: u32,
    pub trees: Vec<Tree>,
}

impl Tree {
    pub fn line(&self) -> u32 {
        match self {
            Tree::Tok(t) => t.line,
            Tree::Group(g) => g.line,
        }
    }

    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, Tree::Tok(t) if t.kind == TokKind::Punct && t.text.len() == 1 && t.text.starts_with(c))
    }

    pub fn is_ident(&self, s: &str) -> bool {
        matches!(self, Tree::Tok(t) if t.kind == TokKind::Ident && t.text == s)
    }

    pub fn ident(&self) -> Option<&str> {
        match self {
            Tree::Tok(t) if t.kind == TokKind::Ident => Some(&t.text),
            _ => None,
        }
    }

    pub fn group(&self) -> Option<&Group> {
        match self {
            Tree::Group(g) => Some(g),
            _ => None,
        }
    }

    pub fn group_with(&self, delim: char) -> Option<&Group> {
        match self {
            Tree::Group(g) if g.delim == delim => Some(g),
            _ => None,
        }
    }
}

fn close_of(open: char) -> char {
    match open {
        '(' => ')',
        '[' => ']',
        _ => '}',
    }
}

/// Build balanced trees from tokens. A stray close delimiter is kept as
/// a plain token (never fails), so rules keep working on odd macro
/// bodies.
pub fn build_trees(tokens: &[Token]) -> Vec<Tree> {
    // Stack of (delim, line, children); bottom entry is the output.
    let mut stack: Vec<(char, u32, Vec<Tree>)> = vec![(' ', 0, Vec::new())];
    for t in tokens {
        let c = if t.kind == TokKind::Punct && t.text.len() == 1 {
            t.text.chars().next().unwrap_or(' ')
        } else {
            ' '
        };
        match c {
            '(' | '[' | '{' => stack.push((c, t.line, Vec::new())),
            ')' | ']' | '}' if stack.len() > 1 && close_of(stack[stack.len() - 1].0) == c => {
                let Some((delim, line, trees)) = stack.pop() else { continue };
                let Some(top) = stack.last_mut() else { continue };
                top.2.push(Tree::Group(Group { delim, line, trees }));
            }
            _ => {
                if let Some(top) = stack.last_mut() {
                    top.2.push(Tree::Tok(t.clone()));
                }
            }
        }
    }
    // Unterminated groups (unbalanced macro input): flatten back in order
    // so nothing is silently dropped.
    while stack.len() > 1 {
        let Some((delim, line, trees)) = stack.pop() else { break };
        if let Some(top) = stack.last_mut() {
            top.2.push(Tree::Group(Group { delim, line, trees }));
        }
    }
    stack.pop().map(|(_, _, t)| t).unwrap_or_default()
}

/// One parsed function.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub qual: Option<String>,
    pub is_pub: bool,
    pub line: u32,
    /// Flattened identifiers of the function's attributes.
    pub attrs: Vec<String>,
    /// `true` if the first parameter is (some form of) `self`.
    pub has_self: bool,
    /// Number of non-`self` parameters.
    pub arity: usize,
    /// Tokens of the return type (empty means `()`).
    pub ret: Vec<Tree>,
    /// Body block; `None` for trait method declarations.
    pub body: Option<Group>,
}

/// One parsed enum.
#[derive(Debug, Clone)]
pub struct EnumItem {
    pub name: String,
    pub line: u32,
    /// `(variant, explicit discriminant, line)`.
    pub variants: Vec<(String, Option<u64>, u32)>,
}

/// One parsed const (value kept as trees; R10 reads `Opcode::ALL`).
#[derive(Debug, Clone)]
pub struct ConstItem {
    pub name: String,
    pub line: u32,
    pub value: Vec<Tree>,
}

/// A trait implementation marker (`impl Drop for PinnedPage`).
#[derive(Debug, Clone)]
pub struct TraitImpl {
    pub trait_name: String,
    pub type_name: String,
    pub line: u32,
}

/// Everything the rules need from one source file.
#[derive(Debug, Default)]
pub struct Items {
    pub fns: Vec<FnItem>,
    pub enums: Vec<EnumItem>,
    pub consts: Vec<ConstItem>,
    pub trait_impls: Vec<TraitImpl>,
}

/// Parse the items of a file (or any tree slice).
pub fn parse_items(trees: &[Tree]) -> Items {
    let mut items = Items::default();
    collect_items(trees, None, &mut items);
    items
}

fn collect_items(trees: &[Tree], qual: Option<&str>, out: &mut Items) {
    let mut i = 0usize;
    while i < trees.len() {
        // Attributes.
        let mut attrs: Vec<String> = Vec::new();
        while trees.get(i).is_some_and(|t| t.is_punct('#')) {
            // `#` may be followed by `!` (inner attribute) then `[..]`.
            let mut j = i + 1;
            if trees.get(j).is_some_and(|t| t.is_punct('!')) {
                j += 1;
            }
            match trees.get(j).and_then(|t| t.group_with('[')) {
                Some(g) => {
                    collect_idents(&g.trees, &mut attrs);
                    i = j + 1;
                }
                None => break,
            }
        }
        let mut is_pub = false;
        if trees.get(i).is_some_and(|t| t.is_ident("pub")) {
            is_pub = true;
            i += 1;
            // pub(crate), pub(super), ...
            if trees.get(i).is_some_and(|t| t.group_with('(').is_some()) {
                i += 1;
            }
        }
        // Leading qualifiers that don't change item kind.
        while trees.get(i).is_some_and(|t| {
            t.is_ident("const") && trees.get(i + 1).is_some_and(|n| n.is_ident("fn"))
        }) || trees.get(i).is_some_and(|t| {
            t.is_ident("unsafe")
                || t.is_ident("async")
                || t.is_ident("extern")
                || t.is_ident("default")
        }) {
            i += 1;
        }
        let Some(kw) = trees.get(i).and_then(|t| t.ident()) else {
            i += 1;
            continue;
        };
        match kw {
            "fn" => {
                let (f, next) = parse_fn(trees, i, qual, is_pub, attrs);
                if let Some(f) = f {
                    out.fns.push(f);
                }
                i = next;
            }
            "impl" => {
                let (type_name, trait_name, body, next) = parse_impl_header(trees, i);
                if let (Some(ty), Some(tr)) = (&type_name, &trait_name) {
                    out.trait_impls.push(TraitImpl {
                        trait_name: tr.clone(),
                        type_name: ty.clone(),
                        line: trees[i].line(),
                    });
                }
                if let Some(body) = body {
                    collect_items(&body.trees, type_name.as_deref(), out);
                }
                i = next;
            }
            "trait" => {
                let name = trees.get(i + 1).and_then(|t| t.ident()).map(str::to_string);
                let (body, next) = find_body(trees, i + 2);
                if let (Some(name), Some(body)) = (name, body) {
                    collect_items(&body.trees, Some(&name), out);
                }
                i = next;
            }
            "mod" => {
                let (body, next) = find_body(trees, i + 1);
                if let Some(body) = body {
                    collect_items(&body.trees, None, out);
                }
                i = next;
            }
            "enum" => {
                let (e, next) = parse_enum(trees, i);
                if let Some(e) = e {
                    out.enums.push(e);
                }
                i = next;
            }
            "const" | "static" => {
                let (c, next) = parse_const(trees, i);
                if let Some(c) = c {
                    out.consts.push(c);
                }
                i = next;
            }
            _ => {
                // struct/use/type/macro_rules/extern blocks: skip to the
                // item's end (first top-level `;` or `{}` group).
                let (_, next) = find_body(trees, i + 1);
                i = next;
            }
        }
    }
}

fn collect_idents(trees: &[Tree], out: &mut Vec<String>) {
    for t in trees {
        match t {
            Tree::Tok(tok) if tok.kind == TokKind::Ident => out.push(tok.text.clone()),
            Tree::Group(g) => collect_idents(&g.trees, out),
            _ => {}
        }
    }
}

/// Scan forward from `i` to the end of the current item: returns the
/// first top-level `{}` group (the body, if any) and the index just past
/// the item (past the body group or the terminating `;`).
fn find_body(trees: &[Tree], i: usize) -> (Option<Group>, usize) {
    let mut j = i;
    while j < trees.len() {
        if let Some(g) = trees[j].group_with('{') {
            return (Some(g.clone()), j + 1);
        }
        if trees[j].is_punct(';') {
            return (None, j + 1);
        }
        j += 1;
    }
    (None, j)
}

fn parse_fn(
    trees: &[Tree],
    i: usize,
    qual: Option<&str>,
    is_pub: bool,
    attrs: Vec<String>,
) -> (Option<FnItem>, usize) {
    let Some(name) = trees.get(i + 1).and_then(|t| t.ident()) else {
        return (None, i + 1);
    };
    let line = trees[i].line();
    // Find the parameter group: first `(..)` at this level (generics use
    // `<..>`, which the tree builder leaves flat).
    let mut j = i + 2;
    let mut params: Option<&Group> = None;
    while j < trees.len() {
        if let Some(g) = trees[j].group_with('(') {
            params = Some(g);
            j += 1;
            break;
        }
        if trees[j].is_punct(';') || trees[j].group_with('{').is_some() {
            return (None, j + 1);
        }
        j += 1;
    }
    let Some(params) = params else { return (None, j) };
    let (has_self, arity) = param_shape(&params.trees);
    // Return type: tokens after `->` up to the body `{`, a `;`, or `where`.
    let mut ret: Vec<Tree> = Vec::new();
    let mut k = j;
    let mut saw_arrow = false;
    while k < trees.len() {
        if trees[k].group_with('{').is_some()
            || trees[k].is_punct(';')
            || trees[k].is_ident("where")
        {
            break;
        }
        if !saw_arrow && trees[k].is_punct('-') && trees.get(k + 1).is_some_and(|t| t.is_punct('>'))
        {
            saw_arrow = true;
            k += 2;
            continue;
        }
        if saw_arrow {
            ret.push(trees[k].clone());
        }
        k += 1;
    }
    let (body, next) = find_body(trees, j);
    (
        Some(FnItem {
            name: name.to_string(),
            qual: qual.map(str::to_string),
            is_pub,
            line,
            attrs,
            has_self,
            arity,
            ret,
            body,
        }),
        next,
    )
}

/// `(has_self, non-self arity)` from a parameter list's trees. `self`
/// only counts before the first `,`.
fn param_shape(params: &[Tree]) -> (bool, usize) {
    let first_comma = params.iter().position(|t| t.is_punct(','));
    let head = &params[..first_comma.unwrap_or(params.len())];
    let has_self = head.iter().any(|t| t.is_ident("self"));
    (has_self, comma_groups(params) - usize::from(has_self))
}

/// Top-level comma-separated groups in a list, trailing comma tolerated.
fn comma_groups(trees: &[Tree]) -> usize {
    if trees.is_empty() {
        return 0;
    }
    // A closure argument's parameter list `|a, b|` is not two arguments.
    let mut in_params = false;
    let mut commas = 0;
    for (i, t) in trees.iter().enumerate() {
        if t.is_punct('|') {
            let starts_arg = i == 0 || trees[i - 1].is_punct(',') || trees[i - 1].is_ident("move");
            in_params = if in_params { false } else { starts_arg };
        } else if t.is_punct(',') && !in_params {
            commas += 1;
        }
    }
    let trailing = trees.last().is_some_and(|t| t.is_punct(','));
    commas + 1 - usize::from(trailing)
}

/// Count the arguments of a call group.
pub fn call_arity(args: &Group) -> usize {
    comma_groups(&args.trees)
}

fn parse_impl_header(
    trees: &[Tree],
    i: usize,
) -> (Option<String>, Option<String>, Option<Group>, usize) {
    // impl [<..>] Path [for Path] [where ..] { .. }
    let mut j = i + 1;
    let mut first_path_last: Option<String> = None;
    let mut second_path_last: Option<String> = None;
    let mut after_for = false;
    let mut body: Option<Group> = None;
    let mut depth = 0i32; // generic <..> depth (flat tokens)
    while j < trees.len() {
        let t = &trees[j];
        if let Some(g) = t.group_with('{') {
            body = Some(g.clone());
            j += 1;
            break;
        }
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth -= 1;
        } else if depth == 0 {
            if t.is_ident("for") {
                after_for = true;
            } else if t.is_ident("where") {
                // fall through to body search
            } else if let Some(id) = t.ident() {
                if after_for {
                    second_path_last = Some(id.to_string());
                } else {
                    first_path_last = Some(id.to_string());
                }
            }
        }
        j += 1;
    }
    if after_for {
        // `impl Trait for Type`: type is the second path, trait the first.
        (second_path_last, first_path_last, body, j)
    } else {
        (first_path_last, None, body, j)
    }
}

fn parse_enum(trees: &[Tree], i: usize) -> (Option<EnumItem>, usize) {
    let Some(name) = trees.get(i + 1).and_then(|t| t.ident()) else {
        return (None, i + 1);
    };
    let line = trees[i].line();
    let (body, next) = find_body(trees, i + 2);
    let Some(body) = body else { return (None, next) };
    let mut variants = Vec::new();
    let mut j = 0usize;
    while j < body.trees.len() {
        // Skip variant attributes.
        while body.trees.get(j).is_some_and(|t| t.is_punct('#')) {
            j += 1;
            if body.trees.get(j).is_some_and(|t| t.group_with('[').is_some()) {
                j += 1;
            }
        }
        let Some(vname) = body.trees.get(j).and_then(|t| t.ident()) else {
            j += 1;
            continue;
        };
        let vline = body.trees[j].line();
        j += 1;
        // Optional payload (tuple/struct variant).
        if body.trees.get(j).is_some_and(|t| t.group().is_some()) {
            j += 1;
        }
        // Optional discriminant.
        let mut disc = None;
        if body.trees.get(j).is_some_and(|t| t.is_punct('=')) {
            j += 1;
            if let Some(Tree::Tok(tok)) = body.trees.get(j) {
                if tok.kind == TokKind::Num {
                    disc = parse_int(&tok.text);
                }
            }
            while j < body.trees.len() && !body.trees[j].is_punct(',') {
                j += 1;
            }
        }
        variants.push((vname.to_string(), disc, vline));
        if body.trees.get(j).is_some_and(|t| t.is_punct(',')) {
            j += 1;
        }
    }
    (Some(EnumItem { name: name.to_string(), line, variants }), next)
}

fn parse_const(trees: &[Tree], i: usize) -> (Option<ConstItem>, usize) {
    let Some(name) = trees.get(i + 1).and_then(|t| t.ident()) else {
        return (None, i + 1);
    };
    let line = trees[i].line();
    let mut j = i + 2;
    let mut value = Vec::new();
    let mut in_value = false;
    while j < trees.len() {
        if trees[j].is_punct(';') {
            j += 1;
            break;
        }
        if in_value {
            value.push(trees[j].clone());
        } else if trees[j].is_punct('=') {
            in_value = true;
        }
        j += 1;
    }
    (Some(ConstItem { name: name.to_string(), line, value }), j)
}

/// Parse `123`, `0x7f`, `0o17`, `0b101`, with `_` separators and type
/// suffixes tolerated.
pub fn parse_int(text: &str) -> Option<u64> {
    let t = text.replace('_', "");
    if let Some(rest) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        return radix_prefix(rest, 16);
    }
    if let Some(rest) = t.strip_prefix("0o") {
        return radix_prefix(rest, 8);
    }
    if let Some(rest) = t.strip_prefix("0b") {
        return radix_prefix(rest, 2);
    }
    radix_prefix(&t, 10)
}

/// Parse the longest valid-digit prefix (the rest is a type suffix).
fn radix_prefix(s: &str, radix: u32) -> Option<u64> {
    let end = s.find(|c: char| !c.is_digit(radix)).unwrap_or(s.len());
    if end == 0 {
        return None;
    }
    u64::from_str_radix(&s[..end], radix).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{tokenize, SourceFile};

    /// Items of `src` as a library file's: test regions dropped.
    fn items_of(src: &str) -> Items {
        SourceFile::new("x.rs", "x", src).items
    }

    #[test]
    fn trees_balance_and_tolerate_strays() {
        let trees = build_trees(&tokenize("fn f(a: u32) { g(a, [1, 2]); }"));
        assert_eq!(trees.len(), 4); // `fn` `f` `(..)` `{..}`
        let trees = build_trees(&tokenize(") } fn f() {}"));
        assert!(!trees.is_empty());
    }

    #[test]
    fn fn_shapes_parse() {
        let items = items_of(
            "impl Pool { pub fn pin(&self, key: PageKey) -> Result<PinnedPage<'_>> { body() } }\n\
             fn free(a: u32, b: u32) {}\n\
             trait T { fn decl(&self, x: u8); }",
        );
        assert_eq!(items.fns.len(), 3);
        let pin = &items.fns[0];
        assert_eq!(pin.name, "pin");
        assert_eq!(pin.qual.as_deref(), Some("Pool"));
        assert!(pin.is_pub && pin.has_self);
        assert_eq!(pin.arity, 1);
        assert!(pin.ret.iter().any(|t| t.is_ident("PinnedPage")));
        assert!(pin.body.is_some());
        let free = &items.fns[1];
        assert_eq!((free.arity, free.has_self, free.is_pub), (2, false, false));
        let decl = &items.fns[2];
        assert_eq!(decl.qual.as_deref(), Some("T"));
        assert!(decl.body.is_none());
    }

    #[test]
    fn closure_parameters_are_not_arguments() {
        let arity = |src: &str| {
            let trees = build_trees(&tokenize(src));
            call_arity(trees[1].group().expect("call group"))
        };
        assert_eq!(arity("f(a, |x, y| x + y)"), 2);
        assert_eq!(arity("f(a, move |x, y| g(x, y), b)"), 3);
        assert_eq!(arity("f(|| 1, a | b, c)"), 3);
    }

    #[test]
    fn enum_discriminants_parse() {
        let items = items_of("pub enum Opcode { Ping = 0x01, Begin = 0x02, Odd(u8), Plain }");
        let e = &items.enums[0];
        assert_eq!(e.name, "Opcode");
        assert_eq!(e.variants.len(), 4);
        assert_eq!(e.variants[0], ("Ping".into(), Some(1), 1));
        assert_eq!(e.variants[1].1, Some(2));
        assert_eq!(e.variants[2].1, None);
    }

    #[test]
    fn impl_for_and_consts_parse() {
        let items = items_of(
            "impl Drop for PinnedPage<'_> { fn drop(&mut self) {} }\n\
             impl Opcode { pub const ALL: [Opcode; 2] = [Opcode::A, Opcode::B]; }",
        );
        assert_eq!(items.trait_impls.len(), 1);
        assert_eq!(items.trait_impls[0].trait_name, "Drop");
        assert_eq!(items.trait_impls[0].type_name, "PinnedPage");
        assert_eq!(items.consts.len(), 1);
        assert_eq!(items.consts[0].name, "ALL");
        assert!(!items.consts[0].value.is_empty());
        assert_eq!(items.fns[0].qual.as_deref(), Some("PinnedPage"));
    }

    #[test]
    fn test_regions_are_dropped() {
        let items = items_of("fn lib() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }");
        assert_eq!(items.fns.len(), 1);
        assert_eq!(items.fns[0].name, "lib");
    }

    #[test]
    fn int_literals_parse() {
        assert_eq!(parse_int("0x10"), Some(16));
        assert_eq!(parse_int("42"), Some(42));
        assert_eq!(parse_int("1_000"), Some(1000));
        assert_eq!(parse_int("0x2Au8"), Some(42));
    }
}
