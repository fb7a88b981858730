//! Workspace symbol table: every `fn` definition (free functions and
//! inherent/trait methods with their receiver type, plus the declared
//! types of their locals), struct fields, and the per-file `use` import
//! map. Built by one token walk per file on top of the existing lexer —
//! no syn, no rustc, keeping the crate's zero-dependency guarantee. The
//! call graph ([`crate::callgraph`]) and the inter-procedural passes
//! resolve names against this table.

use crate::config::CRATE_PREFIXES;
use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;
use crate::tokens::{expr_end, is_ident, skip_angles, skip_attrs_and_vis, skip_balanced, tok_is};
use std::collections::BTreeMap;

/// One declared parameter.
#[derive(Clone, Debug)]
pub struct Param {
    /// Binding name (`self` for receivers; empty for pattern params the
    /// token walk cannot name).
    pub name: String,
    /// Declared type, as token texts (`&`, `mut`, lifetimes stripped at
    /// the front; the receiver's type is the impl target).
    pub ty: Vec<String>,
}

/// One `fn` definition.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Index into the scanned source list.
    pub file: usize,
    /// Bare function name.
    pub name: String,
    /// Receiver type when defined inside `impl Type` / `impl Trait for
    /// Type`.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Declared parameters in order.
    pub params: Vec<Param>,
    /// Return-type tokens (empty for `()` / no arrow).
    pub ret: Vec<String>,
    /// Token-index range of the body: `(open, after_close)` such that the
    /// body tokens are `toks[open + 1 .. after_close - 1]`. `None` for
    /// bodyless trait declarations.
    pub body: Option<(usize, usize)>,
    /// Declared types of the named locals, by binding name: the receiver
    /// (`self` is the impl target), params (`p: Type`), annotated lets
    /// (`let p: Type`) and constructor lets (`let p = Type[::<..>]::f(..)`).
    /// Method calls on them resolve through `(type, method)`, and their
    /// field reads through the struct's declared fields.
    pub locals: BTreeMap<String, String>,
}

/// Where a `use`-imported name points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UseTarget {
    /// Resolved `crate::module...` path of the defining module (the crate
    /// root is just the crate name); `None` when the path leads outside
    /// the workspace (std, vendored shims).
    pub module: Option<String>,
    /// The imported item name (pre-alias).
    pub item: String,
}

/// The whole-workspace symbol table.
#[derive(Default)]
pub struct SymbolTable {
    /// Every function, in file-then-position order.
    pub fns: Vec<FnDef>,
    /// Free functions by (defining module, name).
    pub free_by_module: BTreeMap<(String, String), usize>,
    /// Methods by (receiver type, name) — multiple impls (trait + inherent,
    /// or same-named types in two crates) keep every candidate.
    pub methods: BTreeMap<(String, String), Vec<usize>>,
    /// Free functions by bare name (workspace-wide fallback).
    pub free_by_name: BTreeMap<String, Vec<usize>>,
    /// Methods by bare name (receiver-blind fallback).
    pub methods_by_name: BTreeMap<String, Vec<usize>>,
    /// Struct fields: type name -> field name -> declared type tokens.
    pub fields: BTreeMap<String, BTreeMap<String, Vec<String>>>,
    /// Per-file import map: local alias -> target.
    pub uses: Vec<BTreeMap<String, UseTarget>>,
}

impl SymbolTable {
    /// Builds the table over all `sources`.
    pub fn build(sources: &[SourceFile]) -> SymbolTable {
        let mut table = SymbolTable::default();
        for (file_idx, f) in sources.iter().enumerate() {
            scan_file(file_idx, f, &mut table);
            table.uses.push(collect_uses(f));
        }
        for (id, d) in table.fns.iter().enumerate() {
            let module = sources[d.file].module.clone();
            match &d.impl_type {
                Some(ty) => {
                    table
                        .methods
                        .entry((ty.clone(), d.name.clone()))
                        .or_default()
                        .push(id);
                    table
                        .methods_by_name
                        .entry(d.name.clone())
                        .or_default()
                        .push(id);
                }
                None => {
                    table
                        .free_by_module
                        .entry((module, d.name.clone()))
                        .or_insert(id);
                    table
                        .free_by_name
                        .entry(d.name.clone())
                        .or_default()
                        .push(id);
                }
            }
        }
        table
    }
}

/// One `let` statement: `let PATTERN [: TYPE] [= RHS]`.
pub struct Let {
    /// Every name the pattern binds (`x`, `mut x`, `(a, _)`, `Some(x)`,
    /// `Ok((a, b))`, `S { f, g: h }`).
    pub names: Vec<String>,
    /// For a tuple or array pattern of plain bindings (`(a, _)`,
    /// `[z0, z1]`): the binding at each position, `None` for `_`.
    pub elems: Option<Vec<Option<String>>>,
    /// Token range of the type annotation.
    pub ty: Option<(usize, usize)>,
    /// Token range of the initializer: to the statement end, or for
    /// `if let` / `while let` to the block opener.
    pub rhs: Option<(usize, usize)>,
}

/// Parses the `let` at `let_idx`, scanning no further than `limit`.
pub fn parse_let(t: &[Tok], let_idx: usize, limit: usize) -> Let {
    let mut out = Let { names: Vec::new(), elems: None, ty: None, rhs: None };
    let mut depth = 0usize;
    let mut k = let_idx + 1;
    let pattern = k;
    while k < limit {
        let path_colon = tok_is(t, k + 1, ":") || tok_is(t, k.wrapping_sub(1), ":"); // `::`
        if depth == 0 && out.elems.is_none() && matches!(t[k].text.as_str(), ":" | "=" | ";") {
            out.elems = tuple_elems(&t[pattern..k]);
        }
        match t[k].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" if depth == 0 => break,
            ")" | "]" | "}" => depth -= 1,
            ":" if depth == 0 && !path_colon && out.ty.is_none() => {
                // `x: TYPE` — the annotation runs to the `=` or the `;`.
                let mut e = k + 1;
                let mut angle = 0i64;
                while e < limit {
                    match t[e].text.as_str() {
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        "=" | ";" if angle <= 0 => break,
                        _ => {}
                    }
                    e += 1;
                }
                out.ty = Some((k + 1, e));
                k = e;
                continue;
            }
            "=" if depth == 0 => {
                out.rhs = Some((k + 1, expr_end(t, k + 1, limit, true)));
                break;
            }
            ";" if depth == 0 => break,
            _ if out.ty.is_none() && is_binding(t, k, depth) => out.names.push(t[k].text.clone()),
            _ => {}
        }
        k += 1;
    }
    out
}

/// The positional bindings of a tuple or array pattern whose elements are
/// all plain bindings or `_`; `None` for any other pattern.
fn tuple_elems(p: &[Tok]) -> Option<Vec<Option<String>>> {
    let close = match p.first()?.text.as_str() {
        "(" => ")",
        "[" => "]",
        _ => return None,
    };
    if skip_balanced(p, 0, &p[0].text, close) != p.len() {
        return None;
    }
    split_top_level(&p[1..p.len() - 1])
        .into_iter()
        .map(|g| match g {
            [x] if x.text == "_" => Some(None),
            [.., x]
                if is_binding(g, g.len() - 1, 0)
                    && (g.len() == 1 || (g.len() == 2 && matches!(g[0].text.as_str(), "mut" | "ref"))) =>
            {
                Some(Some(x.text.clone()))
            }
            _ => None,
        })
        .collect()
}

/// The element types of the first tuple or array type in `ty` — what a
/// tuple/array pattern destructures once `Result`/`Option` wrappers are
/// peeled (`Result<(A, B), E>` -> `A`, `B`; `[T; 2]` -> `T`, `T`).
pub fn element_types(ty: &[String], n: usize) -> Vec<&[String]> {
    let Some(open) = ty.iter().position(|s| s == "(" || s == "[") else { return Vec::new() };
    let mut out = Vec::new();
    let (mut depth, mut start) = (0i32, open + 1);
    for (k, s) in ty.iter().enumerate().skip(open) {
        match s.as_str() {
            "(" | "[" | "<" => depth += 1,
            ")" | "]" | ">" | "," | ";" if depth == 1 => {
                out.push(&ty[start..k]);
                start = k + 1;
                if s == ";" {
                    // `[T; N]`: every element is a `T`.
                    return vec![&ty[open + 1..k]; n];
                }
                if s != "," {
                    break;
                }
            }
            ")" | "]" | ">" => depth -= 1,
            _ => {}
        }
    }
    out
}

/// Whether the identifier at `k` of a pattern binds a name: not a
/// keyword, `_`, constructor or path segment (`Some(`, `S {`, `E::V`), an
/// upper-case unit variant / constant, or a struct-pattern field name
/// (`S { f: g }` binds `g`).
fn is_binding(t: &[Tok], k: usize, depth: usize) -> bool {
    let name = t[k].text.as_str();
    t[k].kind == TokKind::Ident
        && !matches!(name, "mut" | "ref" | "box" | "_")
        && !name.starts_with(|c: char| c.is_ascii_uppercase())
        && !tok_is(t, k + 1, "(")
        && !tok_is(t, k + 1, "{")
        && !(tok_is(t, k + 1, ":") && (depth > 0 || tok_is(t, k + 2, ":")))
        && !(tok_is(t, k.wrapping_sub(1), ":") && tok_is(t, k.wrapping_sub(2), ":"))
}

/// The type a declaration names: its last path segment before any
/// generic arguments, after reference sugar (`&'a mut psml_mpc::
/// SharePair<R>` -> `SharePair`). `None` for tuple, slice and array
/// types.
pub fn type_name<'a>(ty: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    let mut name = None;
    for s in ty {
        match s {
            "&" | "mut" | "dyn" | "impl" | ":" => {}
            "<" | "=" | ";" | "," | ")" | ">" => break,
            _ if s.starts_with(|c: char| c == '_' || c.is_ascii_alphabetic()) => name = Some(s),
            _ => return None,
        }
    }
    name
}

/// The declared types of a function's named locals (see [`FnDef::locals`]).
fn collect_locals(
    t: &[Tok],
    params: &[Param],
    body: Option<(usize, usize)>,
    impl_type: Option<&str>,
) -> BTreeMap<String, String> {
    let mut locals = BTreeMap::new();
    for p in params.iter().filter(|p| !p.name.is_empty()) {
        if let Some(ty) = type_name(p.ty.iter().map(String::as_str)) {
            locals.insert(p.name.clone(), ty.to_string());
        }
    }
    let Some((open, end)) = body else { return locals };
    for j in open + 1..end {
        if t[j].text != "let" {
            continue;
        }
        let l = parse_let(t, j, end);
        let [name] = &l.names[..] else { continue };
        let ty = match (l.ty, l.rhs) {
            (Some((a, b)), _) => type_name(t[a..b].iter().map(|x| x.text.as_str())),
            // `Type::f(..)` / `Type::<..>::f(..)`: the path's type.
            (None, Some((a, _))) if is_ident(t, a) && tok_is(t, a + 1, ":") => {
                Some(t[a].text.as_str()).filter(|s| s.starts_with(|c: char| c.is_ascii_uppercase()))
            }
            _ => None,
        };
        let ty = if ty == Some("Self") { impl_type } else { ty };
        if let Some(ty) = ty {
            locals.insert(name.clone(), ty.to_string());
        }
    }
    locals
}

/// One pass over a file's tokens: `impl` targets (a depth-tracked stack),
/// `fn` definitions, and `struct` fields.
fn scan_file(file_idx: usize, f: &SourceFile, table: &mut SymbolTable) {
    let t = &f.toks;
    let mut depth = 0i64;
    // (depth at which the impl body opened, target type)
    let mut impl_stack: Vec<(i64, String)> = Vec::new();
    let mut i = 0;
    while i < t.len() {
        match t[i].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                while impl_stack.last().is_some_and(|&(d, _)| d > depth) {
                    impl_stack.pop();
                }
            }
            "impl" if t[i].kind == TokKind::Ident => {
                if let Some((target, open)) = parse_impl_target(t, i) {
                    // The body opens at `open`; record the depth inside it.
                    impl_stack.push((depth + 1, target));
                    depth += 1;
                    i = open + 1;
                    continue;
                }
            }
            "fn" if t[i].kind == TokKind::Ident && is_ident(t, i + 1) => {
                let impl_type = impl_stack.last().map(|(_, ty)| ty.clone());
                if let Some((def, next)) = parse_fn(file_idx, t, i, impl_type) {
                    // Resume at the body's opening brace so the walk
                    // descends into it (nested fns are definitions too);
                    // the depth tracker handles the brace itself.
                    let resume = def.body.map(|(open, _)| open).unwrap_or(next);
                    table.fns.push(def);
                    i = resume;
                    continue;
                }
            }
            "struct" if t[i].kind == TokKind::Ident && is_ident(t, i + 1) => {
                parse_struct(t, i, table);
            }
            _ => {}
        }
        i += 1;
    }
}

/// Parses `impl [<..>] Path [for Path] [where ..] {`: returns the target
/// type (last path segment, after `for` when present) and the index of
/// the opening brace.
fn parse_impl_target(t: &[Tok], i: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    if tok_is(t, j, "<") {
        j = skip_angles(t, j);
    }
    let mut target: Option<String> = None;
    while j < t.len() {
        match t[j].text.as_str() {
            "{" => return target.map(|ty| (ty, j)),
            ";" => return None, // `impl Trait for Type;` does not exist; bail
            "for" => {
                target = None;
                j += 1;
            }
            "where" => {
                // Skip the where clause to the body.
                while j < t.len() && t[j].text != "{" {
                    j += 1;
                }
            }
            "<" => j = skip_angles(t, j),
            _ => {
                if t[j].kind == TokKind::Ident
                    && t[j].text != "dyn"
                    && t[j].text != "mut"
                    && t[j].text != "const"
                {
                    target = Some(t[j].text.clone());
                }
                j += 1;
            }
        }
    }
    None
}

/// Parses a `fn` item starting at the `fn` keyword. Returns the
/// definition and the token index to resume scanning at (after the body
/// or the `;`).
fn parse_fn(
    file_idx: usize,
    t: &[Tok],
    i: usize,
    impl_type: Option<String>,
) -> Option<(FnDef, usize)> {
    let name = t[i + 1].text.clone();
    let line = t[i].line;
    let mut j = i + 2;
    if tok_is(t, j, "<") {
        j = skip_angles(t, j);
    }
    if !tok_is(t, j, "(") {
        return None;
    }
    let params_end = skip_balanced(t, j, "(", ")");
    let params = parse_params(&t[j + 1..params_end - 1], impl_type.as_deref());
    j = params_end;
    let mut ret = Vec::new();
    if tok_is(t, j, "-") && tok_is(t, j + 1, ">") {
        j += 2;
        while j < t.len() {
            match t[j].text.as_str() {
                "{" | ";" | "where" => break,
                _ => {
                    ret.push(t[j].text.clone());
                    j += 1;
                }
            }
        }
    }
    while j < t.len() && t[j].text != "{" && t[j].text != ";" {
        j += 1;
    }
    let body = if tok_is(t, j, "{") {
        let end = skip_balanced(t, j, "{", "}");
        let span = Some((j, end));
        j = end;
        span
    } else {
        j += 1;
        None
    };
    let locals = collect_locals(t, &params, body, impl_type.as_deref());
    Some((
        FnDef {
            file: file_idx,
            name,
            impl_type,
            line,
            params,
            ret,
            body,
            locals,
        },
        j,
    ))
}

/// Splits a parameter token slice on top-level commas and extracts
/// `name: Type` pairs (plus the `self` receiver).
fn parse_params(toks: &[Tok], impl_type: Option<&str>) -> Vec<Param> {
    let mut params = Vec::new();
    for group in split_top_level(toks) {
        if group.is_empty() {
            continue;
        }
        // Receiver: `self`, `&self`, `&'a mut self` — `self` with only
        // reference/lifetime/mut sugar before it.
        let lead: Vec<&str> = group
            .iter()
            .take_while(|x| {
                x.text == "&" || x.text == "mut" || x.kind == TokKind::Lifetime
            })
            .map(|x| x.text.as_str())
            .collect();
        if group
            .get(lead.len())
            .is_some_and(|x| x.text == "self")
        {
            params.push(Param {
                name: "self".into(),
                ty: impl_type.map(|s| vec![s.to_string()]).unwrap_or_default(),
            });
            continue;
        }
        // `name: Type` — the name is the ident directly before the first
        // top-level `:` (skipping `mut`); pattern params keep an empty
        // name but still carry their type.
        let colon = find_top_level_colon(group);
        let Some(c) = colon else { continue };
        let name = if c >= 1 && group[c - 1].kind == TokKind::Ident {
            group[c - 1].text.clone()
        } else {
            String::new()
        };
        let mut ty: Vec<String> = group[c + 1..]
            .iter()
            .map(|x| x.text.clone())
            .collect();
        while ty
            .first()
            .is_some_and(|s| s == "&" || s == "mut" || s.starts_with('\''))
        {
            ty.remove(0);
        }
        params.push(Param { name, ty });
    }
    params
}

/// Splits on commas at zero paren/bracket/brace/angle depth.
fn split_top_level(toks: &[Tok]) -> Vec<&[Tok]> {
    let mut out = Vec::new();
    let (mut d, mut a) = (0i64, 0i64);
    let mut start = 0usize;
    for (k, x) in toks.iter().enumerate() {
        match x.text.as_str() {
            "(" | "[" | "{" => d += 1,
            ")" | "]" | "}" => d -= 1,
            "<" => a += 1,
            ">" if k > 0 && toks[k - 1].text == "-" => {}
            ">" => a = (a - 1).max(0),
            "," if d == 0 && a == 0 => {
                out.push(&toks[start..k]);
                start = k + 1;
            }
            _ => {}
        }
    }
    if start < toks.len() {
        out.push(&toks[start..]);
    }
    out
}

/// Index of the first `:` at zero depth that is not part of `::`.
fn find_top_level_colon(toks: &[Tok]) -> Option<usize> {
    let (mut d, mut a) = (0i64, 0i64);
    let mut k = 0;
    while k < toks.len() {
        match toks[k].text.as_str() {
            "(" | "[" | "{" => d += 1,
            ")" | "]" | "}" => d -= 1,
            "<" => a += 1,
            ">" if k > 0 && toks[k - 1].text == "-" => {}
            ">" => a = (a - 1).max(0),
            ":" if d == 0 && a == 0 => {
                if toks.get(k + 1).map(|x| x.text.as_str()) == Some(":") {
                    k += 2;
                    continue;
                }
                return Some(k);
            }
            _ => {}
        }
        k += 1;
    }
    None
}

/// Records a struct's named fields (tuple/unit structs have none worth
/// tracking at token granularity).
fn parse_struct(t: &[Tok], i: usize, table: &mut SymbolTable) {
    let name = t[i + 1].text.clone();
    let mut j = i + 2;
    if tok_is(t, j, "<") {
        j = skip_angles(t, j);
    }
    while j < t.len() && t[j].text != "{" && t[j].text != "(" && t[j].text != ";" {
        j += 1;
    }
    if !tok_is(t, j, "{") {
        return;
    }
    let end = skip_balanced(t, j, "{", "}");
    let mut fields = BTreeMap::new();
    for group in split_top_level(&t[j + 1..end - 1]) {
        let rest = &group[skip_attrs_and_vis(group, 0).min(group.len())..];
        if rest.len() >= 2 && rest[0].kind == TokKind::Ident && rest[1].text == ":" {
            let ty: Vec<String> = rest[2..].iter().map(|x| x.text.clone()).collect();
            fields.insert(rest[0].text.clone(), ty);
        }
    }
    table.fields.entry(name).or_insert(fields);
}

/// Maps a use-path's leading segment to a workspace module prefix:
/// `psml_mpc` -> `mpc`, `crate`/`self`/`super` -> the current crate.
/// `None` for std/external paths.
pub fn resolve_path_root(seg: &str, crate_name: &str) -> Option<String> {
    if seg == "crate" || seg == "self" || seg == "super" {
        return Some(crate_name.to_string());
    }
    CRATE_PREFIXES
        .iter()
        .find(|(pkg, _)| *pkg == seg)
        .map(|(_, dir)| dir.to_string())
}

/// Collects every `use` item in the file into an alias -> target map.
fn collect_uses(f: &SourceFile) -> BTreeMap<String, UseTarget> {
    let t = &f.toks;
    let mut map = BTreeMap::new();
    let mut i = 0;
    while i < t.len() {
        if t[i].kind == TokKind::Ident && t[i].text == "use" {
            let mut entries = Vec::new();
            let end = parse_use_tree(t, i + 1, &[], &mut entries);
            for (alias, segs) in entries {
                if segs.len() < 2 {
                    continue;
                }
                let Some(root) = resolve_path_root(&segs[0], &f.crate_name) else {
                    continue;
                };
                // The defining module is the path minus the item; a
                // two-segment path (`psml_mpc::SharePair`) points at the
                // crate root re-export.
                let module = if segs.len() == 2 {
                    root
                } else {
                    format!("{root}::{}", segs[1..segs.len() - 1].join("::"))
                };
                map.insert(
                    alias,
                    UseTarget {
                        module: Some(module),
                        item: segs.last().unwrap().clone(),
                    },
                );
            }
            i = end;
            continue;
        }
        i += 1;
    }
    map
}

/// Parses one use-tree starting at `i` (after `use` or a group comma),
/// appending `(alias, full path)` pairs. Returns the index after the
/// terminating `;` / `,` / `}`.
fn parse_use_tree(
    t: &[Tok],
    mut i: usize,
    prefix: &[String],
    out: &mut Vec<(String, Vec<String>)>,
) -> usize {
    let mut segs = prefix.to_vec();
    while i < t.len() {
        match t[i].text.as_str() {
            "{" => {
                // Group: recurse per comma-separated branch.
                i += 1;
                loop {
                    i = parse_use_tree(t, i, &segs, out);
                    if tok_is(t, i.wrapping_sub(1), "}") || i >= t.len() {
                        break;
                    }
                }
                // After the group closes, expect `;` or `,`/`}` upstream.
                if tok_is(t, i, ";") || tok_is(t, i, ",") {
                    i += 1;
                }
                return i;
            }
            "}" | ";" | "," => {
                if let Some(item) = segs.last() {
                    if segs.len() > prefix.len() && item != "*" {
                        out.push((item.clone(), segs.clone()));
                    }
                }
                return i + 1;
            }
            "as" => {
                // `path as Alias`
                if let Some(alias) = t.get(i + 1) {
                    out.push((alias.text.clone(), segs.clone()));
                }
                i += 2;
                // Consume the terminator for this branch.
                if tok_is(t, i, ";") || tok_is(t, i, ",") || tok_is(t, i, "}") {
                    return i + 1;
                }
                return i;
            }
            ":" => i += 1,
            _ => {
                if t[i].kind == TokKind::Ident || t[i].text == "*" {
                    segs.push(t[i].text.clone());
                }
                i += 1;
            }
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Context;

    fn parse(src: &str) -> (Vec<SourceFile>, SymbolTable) {
        let f = SourceFile::parse("a.rs", "mpc", "mpc::share", Context::Lib, src);
        let sources = vec![f];
        let table = SymbolTable::build(&sources);
        (sources, table)
    }

    #[test]
    fn free_fn_and_method_are_separated() {
        let (_, t) = parse(
            "fn free(x: u64) -> u64 { x }\n\
             struct S { v: u64 }\n\
             impl S { fn get(&self) -> u64 { self.v } }\n",
        );
        assert_eq!(t.fns.len(), 2);
        assert!(t.free_by_module.contains_key(&("mpc::share".into(), "free".into())));
        let m = &t.methods[&("S".to_string(), "get".to_string())];
        assert_eq!(m.len(), 1);
        assert_eq!(t.fns[m[0]].params[0].name, "self");
        assert_eq!(t.fns[m[0]].params[0].ty, vec!["S".to_string()]);
        assert_eq!(t.fields["S"]["v"], vec!["u64".to_string()]);
    }

    #[test]
    fn impl_for_targets_the_type_not_the_trait() {
        let (_, t) = parse(
            "struct W;\nimpl std::fmt::Debug for W {\n  fn fmt(&self) -> u8 { 0 }\n}\n",
        );
        assert!(t.methods.contains_key(&("W".to_string(), "fmt".to_string())));
    }

    #[test]
    fn generic_fn_params_and_return_survive_angles() {
        let (_, t) = parse(
            "fn gemm<R: Num, F: Fn() -> u64>(a: &Matrix<R>, n: usize) -> Matrix<R> { a.clone() }\n",
        );
        let d = &t.fns[0];
        assert_eq!(d.name, "gemm");
        assert_eq!(d.params.len(), 2);
        assert_eq!(d.params[0].name, "a");
        assert_eq!(d.params[0].ty[0], "Matrix");
        assert_eq!(d.params[1].name, "n");
        assert_eq!(d.ret[0], "Matrix");
        assert!(d.body.is_some());
    }

    #[test]
    fn use_groups_aliases_and_crate_paths_resolve() {
        let (_, t) = parse(
            "use psml_tensor::matrix::{Matrix, Shape as S};\n\
             use crate::triple::gen_triple;\n\
             use std::collections::HashMap;\n\
             fn f() {}\n",
        );
        let uses = &t.uses[0];
        assert_eq!(
            uses["Matrix"],
            UseTarget { module: Some("tensor::matrix".into()), item: "Matrix".into() }
        );
        assert_eq!(
            uses["S"],
            UseTarget { module: Some("tensor::matrix".into()), item: "Shape".into() }
        );
        assert_eq!(
            uses["gen_triple"],
            UseTarget { module: Some("mpc::triple".into()), item: "gen_triple".into() }
        );
        assert!(!uses.contains_key("HashMap"), "std paths are not workspace targets");
    }

    #[test]
    fn let_patterns_bind_names_and_positions() {
        let f = SourceFile::parse(
            "a.rs",
            "c",
            "c::m",
            Context::Lib,
            "let (mut a, _) = f(); let x: Option<u8> = g; let S { p, q: r } = s;",
        );
        let t = &f.toks;
        let lets: Vec<Let> = (0..t.len())
            .filter(|&i| t[i].text == "let")
            .map(|i| parse_let(t, i, t.len()))
            .collect();
        assert_eq!(lets[0].names, ["a"]);
        assert_eq!(lets[0].elems, Some(vec![Some("a".to_string()), None]));
        assert_eq!(lets[1].names, ["x"]);
        assert!(lets[1].ty.is_some() && lets[1].rhs.is_some());
        assert_eq!(lets[2].names, ["p", "r"]);
        assert_eq!(lets[2].elems, None);
    }

    #[test]
    fn element_types_peel_result_and_arrays() {
        let s = |v: &str| v.split(' ').map(String::from).collect::<Vec<_>>();
        let ty = s("Result < ( BeaverTriple < R > , Vec < u8 > ) , String >");
        assert_eq!(element_types(&ty, 2), vec![&ty[3..7], &ty[8..12]]);
        let arr = s("[ Timed < T > ; 2 ]");
        assert_eq!(element_types(&arr, 2), vec![&arr[1..5]; 2]);
    }

    #[test]
    fn nested_fns_and_trait_decls() {
        let (_, t) = parse(
            "trait T { fn decl(&self, x: u64) -> u64; }\n\
             fn outer() { fn inner(y: u8) {} }\n",
        );
        let names: Vec<&str> = t.fns.iter().map(|d| d.name.as_str()).collect();
        assert!(names.contains(&"decl"));
        assert!(names.contains(&"outer"));
        assert!(names.contains(&"inner"));
        let decl = t.fns.iter().find(|d| d.name == "decl").unwrap();
        assert!(decl.body.is_none());
    }
}
