//! A lightweight Rust AST for the analyzer rules (R7–R14):
//! balanced token trees, then an item parser recognizing functions (with
//! parameter lists, return types, and bodies), trait impls and
//! impl/trait/mod nesting. Deliberately approximate — it never needs to
//! type-check, only to see names, call shapes, and block structure — but
//! it must never mis-bracket, so trees are built from the real tokenizer
//! (strings/comments can't confuse it).

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
    /// `true` if the first parameter is (some form of) `self`.
    pub has_self: bool,
    /// Number of non-`self` parameters.
    pub arity: usize,
    /// Tokens of the return type (empty means `()`).
    pub ret: Vec<Tree>,
    /// Body block; `None` for trait method declarations.
    pub body: Option<Group>,
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
        while trees.get(i).is_some_and(|t| t.is_punct('#')) {
            // `#` may be followed by `!` (inner attribute) then `[..]`.
            let mut j = i + 1;
            if trees.get(j).is_some_and(|t| t.is_punct('!')) {
                j += 1;
            }
            match trees.get(j).and_then(|t| t.group_with('[')) {
                Some(_) => i = j + 1,
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
                let (f, next) = parse_fn(trees, i, qual, is_pub);
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
            _ => {
                // struct/enum/const/use/type/macro_rules/extern items: skip
                // to the item's end (first top-level `;` or `{}` group).
                let (_, next) = find_body(trees, i + 1);
                i = next;
            }
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

fn parse_fn(trees: &[Tree], i: usize, qual: Option<&str>, is_pub: bool) -> (Option<FnItem>, usize) {
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
            has_self,
            arity,
            ret,
            body,
        }),
        next,
    )
}

/// `(has_self, non-self arity)` from a parameter list's trees. Only the
/// commas outside a type's generics separate parameters: `MutexGuard<'_,
/// ()>` is one, and the `>` of a `->` closes no generics. `self` only
/// counts in the first parameter.
fn param_shape(params: &[Tree]) -> (bool, usize) {
    let (mut depth, mut commas) = (0usize, Vec::new());
    for (i, t) in params.iter().enumerate() {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !(i > 0 && params[i - 1].is_punct('-')) {
            depth = depth.saturating_sub(1);
        } else if t.is_punct(',') && depth == 0 {
            commas.push(i);
        }
    }
    let head = &params[..commas.first().copied().unwrap_or(params.len())];
    let has_self = head.iter().any(|t| t.is_ident("self"));
    let trailing = commas.last().is_some_and(|&c| c + 1 == params.len());
    let groups = if params.is_empty() { 0 } else { commas.len() + 1 - usize::from(trailing) };
    (has_self, groups - usize::from(has_self))
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
    fn commas_inside_generics_separate_no_parameters() {
        let shape = |src: &str| {
            let f = &items_of(src).fns[0];
            (f.has_self, f.arity)
        };
        let capture_chain = "impl BufferPool { pub(super) fn capture_chain(&self, wal: &Wal, \
                             _serial: &MutexGuard<'_, ()>) -> Result<Lsn> { x } }";
        assert_eq!(shape(capture_chain), (true, 2));
        assert_eq!(shape("fn f(g: impl Fn(u8) -> u8, m: HashMap<K, V>,) {}"), (false, 2));
        assert_eq!(shape("fn f(g: Box<dyn Fn() -> Result<A, B>>, h: u8) {}"), (false, 2));
    }

    #[test]
    fn impl_for_parses() {
        let items = items_of(
            "impl Drop for PinnedPage<'_> { fn drop(&mut self) {} }\n\
             impl Opcode { pub const ALL: [Opcode; 2] = [Opcode::A, Opcode::B]; fn f() {} }",
        );
        assert_eq!(items.trait_impls.len(), 1);
        assert_eq!(items.trait_impls[0].trait_name, "Drop");
        assert_eq!(items.trait_impls[0].type_name, "PinnedPage");
        assert_eq!(items.fns[0].qual.as_deref(), Some("PinnedPage"));
        assert_eq!(items.fns[1].qual.as_deref(), Some("Opcode"));
    }

    #[test]
    fn test_regions_are_dropped() {
        let items = items_of("fn lib() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }");
        assert_eq!(items.fns.len(), 1);
        assert_eq!(items.fns[0].name, "lib");
    }
}
