//! Call-site resolution over the workspace symbol table.
//!
//! Resolution is deliberately conservative: a call resolves only when the
//! token pattern pins down a unique workspace definition — same-module
//! free functions, `use`-imported paths, fully-qualified `crate::module`
//! paths, `Type::method`, `x.method(..)` on a local whose type is declared
//! (`self`, a typed param or `let`, a `Type::new(..)` binding), and
//! receiver-blind `x.method(..)` when exactly one type in the workspace
//! defines the method. Anything ambiguous stays unresolved, and the
//! dataflow passes treat unresolved calls as opaque (no taint transfer, no
//! lock summary), trading recall for a zero-false-positive default.

use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;
use crate::symbols::{FnDef, SymbolTable};
use crate::tokens::{skip_balanced, tok_is};
use std::collections::BTreeMap;

/// One resolved call site inside a function body.
#[derive(Clone, Copy, Debug)]
pub struct CallSite {
    /// Callee function id (index into `SymbolTable::fns`).
    pub callee: usize,
    /// Token index of the call's name identifier.
    pub name_tok: usize,
    /// Token index of the opening `(` of the argument list.
    pub args_open: usize,
    /// 1-based line of the call.
    pub line: u32,
}

impl CallSite {
    /// Token range of the argument bound to the callee's parameter `pi`,
    /// its index in `FnDef::params` (a receiver `self` is parameter 0),
    /// given the site's [`CallGraph::arg_ranges`]. A `recv.method(..)` call
    /// passes `self` before the parentheses, so its first argument binds
    /// parameter 1 and the receiver binds none here; `Type::method(recv,
    /// ..)` and free calls line up.
    pub fn param_arg(&self, t: &[Tok], args: &[(usize, usize)], pi: usize) -> Option<(usize, usize)> {
        let dot_call = self.name_tok >= 1 && t[self.name_tok - 1].text == ".";
        args.get(pi.checked_sub(usize::from(dot_call))?).copied()
    }
}

/// Per-function resolved call sites, indexed by caller function id; the
/// map key is the name-token index (so expression scans can look up "is
/// this identifier a resolved call?" in O(log n)).
pub struct CallGraph {
    /// caller fn id -> (name-token index -> call site).
    pub calls: Vec<BTreeMap<usize, CallSite>>,
}

impl CallGraph {
    /// Resolves every call site in every function body.
    pub fn build(sources: &[SourceFile], table: &SymbolTable) -> CallGraph {
        let mut calls = Vec::with_capacity(table.fns.len());
        for d in &table.fns {
            let mut sites = BTreeMap::new();
            if let Some((open, end)) = d.body {
                let f = &sources[d.file];
                let t = &f.toks;
                for j in open + 1..end.saturating_sub(1) {
                    if t[j].kind != TokKind::Ident || !tok_is(t, j + 1, "(") {
                        continue;
                    }
                    if KEYWORDS.contains(&t[j].text.as_str()) {
                        continue;
                    }
                    // Definitions and macros are not calls.
                    if j > 0 && (t[j - 1].text == "fn" || tok_is(t, j + 1, "!")) {
                        continue;
                    }
                    if let Some(callee) = resolve(sources, table, d, t, j) {
                        sites.insert(
                            j,
                            CallSite {
                                callee,
                                name_tok: j,
                                args_open: j + 1,
                                line: t[j].line,
                            },
                        );
                    }
                }
            }
            calls.push(sites);
        }
        CallGraph { calls }
    }

    /// Splits a call's argument tokens on top-level commas, returning the
    /// token-index range of each argument.
    pub fn arg_ranges(t: &[Tok], args_open: usize) -> Vec<(usize, usize)> {
        let close = skip_balanced(t, args_open, "(", ")").saturating_sub(1);
        let mut out = Vec::new();
        let mut depth = 0i64;
        let mut start = args_open + 1;
        for (k, tok) in t.iter().enumerate().take(close).skip(args_open) {
            match tok.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 1 => {
                    out.push((start, k));
                    start = k + 1;
                }
                _ => {}
            }
        }
        if close > start {
            out.push((start, close));
        }
        out
    }
}

/// Keywords that look like identifiers to the lexer; used to tell
/// `name(..)` calls and `expr[..]` indexing apart from keyword-led
/// constructs (`if (..)`, `in [..]`, ...).
pub const KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "for", "loop", "return", "fn", "let", "move", "in",
    "as", "where", "impl", "dyn", "break", "continue", "unsafe", "mut", "ref", "use",
];

/// Resolves the call whose name identifier sits at `j` (followed by `(`)
/// inside the body of `d`.
fn resolve(sources: &[SourceFile], table: &SymbolTable, d: &FnDef, t: &[Tok], j: usize) -> Option<usize> {
    let (file_idx, impl_type) = (d.file, d.impl_type.as_deref());
    let name = t[j].text.as_str();
    // Method call: `<recv> . name (`.
    if j >= 1 && t[j - 1].text == "." {
        // A bare local receiver of declared type (`self` inside an impl,
        // `p: Type`, `let p = Type::new(..)`) resolves against that type
        // first.
        let recv = (j >= 2 && t[j - 2].kind == TokKind::Ident && !tok_is(t, j.wrapping_sub(3), "."))
            .then(|| t[j - 2].text.as_str());
        if let Some(ty) = recv.and_then(|r| d.locals.get(r)) {
            if let Some(ids) = table.methods.get(&(ty.clone(), name.to_string())) {
                if ids.len() == 1 {
                    return Some(ids[0]);
                }
            }
        }
        // Receiver-blind fallback: unique method name across the
        // workspace — except names the std prelude also defines, where
        // "unique in the workspace" proves nothing about the receiver.
        if crate::config::STD_METHODS.contains(&name) {
            return None;
        }
        let ids = table.methods_by_name.get(name)?;
        return if ids.len() == 1 { Some(ids[0]) } else { None };
    }
    // Path call: `<segs> :: name (` — collect the qualifier backward.
    if j >= 2 && t[j - 1].text == ":" && t[j - 2].text == ":" {
        let mut segs: Vec<String> = Vec::new();
        let mut k = j;
        while k >= 2 && t[k - 1].text == ":" && t[k - 2].text == ":" {
            if k >= 3 && t[k - 3].kind == TokKind::Ident {
                segs.insert(0, t[k - 3].text.clone());
                k -= 3;
            } else {
                // Turbofish or non-ident qualifier: give up on the path.
                return None;
            }
        }
        return resolve_path(sources, table, file_idx, impl_type, &segs, name);
    }
    // Bare call.
    let module = &sources[file_idx].module;
    if let Some(&id) = table
        .free_by_module
        .get(&(module.clone(), name.to_string()))
    {
        return Some(id);
    }
    if let Some(target) = table.uses[file_idx].get(name) {
        if let Some(m) = &target.module {
            if let Some(&id) = table.free_by_module.get(&(m.clone(), target.item.clone())) {
                return Some(id);
            }
        }
    }
    let ids = table.free_by_name.get(name)?;
    if ids.len() == 1 {
        Some(ids[0])
    } else {
        None
    }
}

/// Resolves `segs :: name (` against types, imports, and modules.
fn resolve_path(
    sources: &[SourceFile],
    table: &SymbolTable,
    file_idx: usize,
    impl_type: Option<&str>,
    segs: &[String],
    name: &str,
) -> Option<usize> {
    if segs.is_empty() {
        return None;
    }
    let last = segs.last().unwrap().as_str();
    let starts_upper = last.chars().next().is_some_and(|c| c.is_ascii_uppercase());
    if starts_upper || last == "Self" {
        // `Type::method` (or `Self::method` inside an impl).
        let ty = if last == "Self" { impl_type? } else { last };
        let ids = table.methods.get(&(ty.to_string(), name.to_string()))?;
        return if ids.len() == 1 { Some(ids[0]) } else { None };
    }
    // Module-qualified free fn. Candidate modules, most specific first:
    // the full path mapped through the crate-prefix table, a same-crate
    // sibling module, and a `use`-imported module alias.
    let file = &sources[file_idx];
    let mut candidates: Vec<String> = Vec::new();
    if let Some(root) = crate::symbols::resolve_path_root(&segs[0], &file.crate_name) {
        let rest = &segs[1..];
        if rest.is_empty() {
            candidates.push(root);
        } else {
            candidates.push(format!("{root}::{}", rest.join("::")));
        }
    }
    candidates.push(format!("{}::{}", file.crate_name, segs.join("::")));
    if segs.len() == 1 {
        if let Some(target) = table.uses[file_idx].get(last) {
            if let Some(m) = &target.module {
                candidates.push(format!("{m}::{}", target.item));
            }
        }
    }
    for m in candidates {
        if let Some(&id) = table.free_by_module.get(&(m, name.to_string())) {
            return Some(id);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Context;

    fn graph(files: &[(&str, &str, &str)]) -> (Vec<SourceFile>, SymbolTable, CallGraph) {
        let sources: Vec<SourceFile> = files
            .iter()
            .map(|(cr, m, src)| {
                SourceFile::parse(format!("{m}.rs"), *cr, *m, Context::Lib, src)
            })
            .collect();
        let table = SymbolTable::build(&sources);
        let cg = CallGraph::build(&sources, &table);
        (sources, table, cg)
    }

    fn callee_names(table: &SymbolTable, cg: &CallGraph, caller: &str) -> Vec<String> {
        let id = table
            .fns
            .iter()
            .position(|d| d.name == caller)
            .expect("caller");
        cg.calls[id]
            .values()
            .map(|s| table.fns[s.callee].name.clone())
            .collect()
    }

    #[test]
    fn same_module_and_cross_crate_calls_resolve() {
        let (_, table, cg) = graph(&[
            (
                "mpc",
                "mpc::share",
                "pub fn helper(x: u64) -> u64 { x }\n\
                 pub fn caller() -> u64 { helper(3) }\n",
            ),
            (
                "core",
                "core::serve",
                "use psml_mpc::share::helper;\n\
                 fn use_import() -> u64 { helper(1) }\n\
                 fn use_path() -> u64 { psml_mpc::share::helper(2) }\n",
            ),
        ]);
        assert_eq!(callee_names(&table, &cg, "caller"), vec!["helper"]);
        assert_eq!(callee_names(&table, &cg, "use_import"), vec!["helper"]);
        assert_eq!(callee_names(&table, &cg, "use_path"), vec!["helper"]);
    }

    #[test]
    fn method_calls_resolve_via_self_and_unique_name() {
        let (_, table, cg) = graph(&[(
            "mpc",
            "mpc::share",
            "struct S { v: u64 }\n\
             impl S {\n\
               fn only_here(&self) -> u64 { self.v }\n\
               fn m(&self) -> u64 { self.only_here() }\n\
             }\n\
             fn free(s: &S) -> u64 { s.only_here() }\n",
        )]);
        assert_eq!(callee_names(&table, &cg, "m"), vec!["only_here"]);
        assert_eq!(callee_names(&table, &cg, "free"), vec!["only_here"]);
    }

    #[test]
    fn ambiguous_methods_stay_unresolved() {
        let (_, table, cg) = graph(&[(
            "mpc",
            "mpc::share",
            "struct A; struct B;\n\
             impl A { fn go(&self) {} }\n\
             impl B { fn go(&self) {} }\n\
             fn f(v: &[A]) { v[0].go() }\n",
        )]);
        assert!(callee_names(&table, &cg, "f").is_empty());
    }

    #[test]
    fn typed_local_receivers_resolve_even_std_named_methods() {
        let (_, table, cg) = graph(&[(
            "mpc",
            "mpc::share",
            "struct A; struct B;\n\
             impl A { fn take(&self) -> u8 { 1 } fn new() -> A { A } }\n\
             impl B { fn take(&self) -> u8 { 2 } }\n\
             fn param(a: &A) -> u8 { a.take() }\n\
             fn ctor() -> u8 { let a = A::new(); a.take() }\n\
             fn annotated(x: u8) -> u8 { let b: B = make(x); b.take() }\n",
        )]);
        let callee = |caller: &str| {
            let id = table.fns.iter().position(|d| d.name == caller).unwrap();
            let ids: Vec<_> = cg.calls[id].values().map(|s| s.callee).collect();
            ids.iter().map(|&c| table.fns[c].impl_type.clone()).collect::<Vec<_>>()
        };
        assert_eq!(callee("param"), vec![Some("A".to_string())]);
        assert_eq!(callee("ctor"), vec![Some("A".to_string()); 2]);
        assert_eq!(callee("annotated"), vec![Some("B".to_string())]);
    }

    #[test]
    fn type_method_paths_resolve() {
        let (_, table, cg) = graph(&[(
            "mpc",
            "mpc::share",
            "struct S;\n\
             impl S { fn make() -> S { S } }\n\
             fn f() -> S { S::make() }\n",
        )]);
        assert_eq!(callee_names(&table, &cg, "f"), vec!["make"]);
    }

    #[test]
    fn arg_ranges_split_top_level_commas() {
        let f = SourceFile::parse(
            "a.rs",
            "c",
            "c::m",
            Context::Lib,
            "fn f() { g(a, h(b, c), d) }",
        );
        let open = f.toks.iter().position(|t| t.text == "g").unwrap() + 1;
        assert_eq!(f.toks[open].text, "(");
        let ranges = CallGraph::arg_ranges(&f.toks, open);
        assert_eq!(ranges.len(), 3);
    }
}
