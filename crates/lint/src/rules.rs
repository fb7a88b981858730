//! The per-file rule families (unsafe, rng, secrecy, determinism),
//! implemented as token-pattern scans. The inter-procedural families
//! (cross-function secrecy, timing, concurrency) live in
//! [`crate::taint`] / [`crate::timing`] / [`crate::concurrency`] on top
//! of the workspace-wide symbol table and call graph.
//!
//! Each rule is a linear walk over [`SourceFile::toks`] looking for a
//! short token pattern (the lexer already stripped comments and literal
//! contents, so these patterns cannot be fooled by prose). Rules skip
//! lines inside `#[cfg(test)]` items and whole test/bench/example files
//! where the invariant genuinely does not apply — the exemptions per rule
//! are documented inline.

use crate::config::*;
use crate::findings::{Finding, RuleId};
use crate::lexer::{Tok, TokKind};
use crate::source::{module_in, SourceFile};
use std::collections::BTreeSet;

/// Secret-type registry: the built-in list plus every type carrying the
/// `#[doc = "psml-secret"]` marker anywhere in the workspace.
#[derive(Clone, Default, Debug)]
pub struct SecretRegistry {
    marked: BTreeSet<String>,
}

impl SecretRegistry {
    /// Whether `name` is a secret type.
    pub fn contains(&self, name: &str) -> bool {
        SECRET_TYPES.contains(&name) || self.marked.contains(name)
    }

    /// Scans `f` for `#[doc = "psml-secret"]` markers and records the
    /// struct/enum each one annotates.
    pub fn collect(&mut self, f: &SourceFile) {
        let t = &f.toks;
        for i in 0..t.len() {
            // #[doc = "psml-secret"]
            if t[i].text == "#"
                && tok_is(t, i + 1, "[")
                && tok_is(t, i + 2, "doc")
                && tok_is(t, i + 3, "=")
                && t.get(i + 4).map(|x| x.kind) == Some(TokKind::Str)
                && t.get(i + 4).map(|x| x.text.as_str()) == Some(SECRET_MARKER)
                && tok_is(t, i + 5, "]")
            {
                // Skip further attributes and visibility, find the type name.
                let mut j = i + 6;
                while j < t.len() {
                    match t[j].text.as_str() {
                        "#" => j = skip_attr(t, j),
                        "pub" => {
                            j += 1;
                            if tok_is(t, j, "(") {
                                j = skip_balanced(t, j, "(", ")");
                            }
                        }
                        "struct" | "enum" | "union" | "type" => {
                            if let Some(name) = t.get(j + 1) {
                                self.marked.insert(name.text.clone());
                            }
                            break;
                        }
                        _ => break,
                    }
                }
            }
        }
    }
}

fn tok_is(t: &[Tok], i: usize, s: &str) -> bool {
    t.get(i).map(|x| x.text.as_str()) == Some(s)
}

/// Skips an attribute starting at the `#` token; returns the index after
/// the closing `]`.
fn skip_attr(t: &[Tok], i: usize) -> usize {
    debug_assert_eq!(t[i].text, "#");
    let mut j = i + 1;
    if tok_is(t, j, "!") {
        j += 1;
    }
    if tok_is(t, j, "[") {
        return skip_balanced(t, j, "[", "]");
    }
    j
}

/// Skips a balanced delimiter run starting at the opener; returns the
/// index after the matching closer.
fn skip_balanced(t: &[Tok], open_idx: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    let mut j = open_idx;
    while j < t.len() {
        if t[j].text == open {
            depth += 1;
        } else if t[j].text == close {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    t.len()
}

/// Runs every per-file rule over `f`.
pub fn lint_file(f: &SourceFile, secrets: &SecretRegistry) -> Vec<Finding> {
    let mut out = Vec::new();
    unsafe_hygiene(f, &mut out);
    rng_discipline(f, &mut out);
    secrecy(f, secrets, &mut out);
    determinism(f, &mut out);
    out
}

fn finding(f: &SourceFile, rule: RuleId, line: u32, message: String) -> Finding {
    Finding::new(rule, &f.path, line, message, f.line_text(line))
}

// ---------------------------------------------------------------- unsafe --

/// Rule family 1: unsafe hygiene.
///
/// Applies everywhere, including tests — an unjustified `unsafe` in a test
/// is still unvetted unsafe code in the workspace.
fn unsafe_hygiene(f: &SourceFile, out: &mut Vec<Finding>) {
    for (i, t) in f.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        if !module_in(&f.module, UNSAFE_MODULES) {
            out.push(finding(
                f,
                RuleId::UnsafeOutsideAllowlist,
                t.line,
                format!(
                    "`unsafe` in `{}`; only {} may contain unsafe code",
                    f.module,
                    UNSAFE_MODULES.join(", ")
                ),
            ));
        }
        if !has_safety_justification(f, t.line) {
            let what = f
                .toks
                .get(i + 1)
                .map(|n| match n.text.as_str() {
                    "{" => "block",
                    "impl" => "impl",
                    "trait" => "trait",
                    "fn" => "fn",
                    _ => "item",
                })
                .unwrap_or("item");
            out.push(finding(
                f,
                RuleId::UnsafeMissingSafety,
                t.line,
                format!(
                    "unsafe {what} without a `// SAFETY:` comment or `# Safety` doc section"
                ),
            ));
        }
    }
}

/// Looks for a `SAFETY:` / `# Safety` marker in the contiguous run of
/// comment and attribute lines directly above `line` (the statement the
/// unsafe token sits in may span lines, so the marker may also sit on the
/// unsafe token's own line).
fn has_safety_justification(f: &SourceFile, line: u32) -> bool {
    let marked = |l: u32| {
        f.comments
            .iter()
            .filter(|c| c.line <= l && l <= c.end_line)
            .any(|c| c.text.contains("SAFETY:") || c.text.contains("# Safety"))
    };
    if marked(line) {
        return true;
    }
    let mut l = line.saturating_sub(1);
    while l >= 1 {
        let text = f.line_text(l);
        let trimmed = text.trim_start();
        let is_comment_or_attr = trimmed.starts_with("//")
            || trimmed.starts_with("#[")
            || trimmed.starts_with("#![")
            || f.comments.iter().any(|c| c.line <= l && l <= c.end_line);
        if !is_comment_or_attr {
            return false;
        }
        if marked(l) {
            return true;
        }
        l -= 1;
    }
    false
}

/// Crate-root policy: unsafe-bearing crates deny `unsafe_op_in_unsafe_fn`;
/// everyone else forbids `unsafe_code` outright. Run on crate root files
/// only (`crates/<c>/src/lib.rs`, workspace `src/lib.rs`).
pub fn crate_policy(f: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let (lint_name, attr) = if UNSAFE_CRATES.contains(&f.crate_name.as_str()) {
        ("unsafe_op_in_unsafe_fn", "#![deny(unsafe_op_in_unsafe_fn)]")
    } else {
        ("unsafe_code", "#![forbid(unsafe_code)]")
    };
    let t = &f.toks;
    let mut found = false;
    let mut i = 0;
    while i + 2 < t.len() {
        if t[i].text == "#" && t[i + 1].text == "!" && t[i + 2].text == "[" {
            let end = skip_balanced(t, i + 2, "[", "]");
            let idents: Vec<&str> = t[i + 2..end]
                .iter()
                .filter(|x| x.kind == TokKind::Ident)
                .map(|x| x.text.as_str())
                .collect();
            // `forbid` is acceptable wherever `deny` is required (it is
            // strictly stronger).
            let level_ok = idents.contains(&"forbid") || idents.contains(&"deny");
            if level_ok && idents.contains(&lint_name) {
                found = true;
                break;
            }
            i = end;
            continue;
        }
        i += 1;
    }
    if !found {
        out.push(finding(
            f,
            RuleId::UnsafeCratePolicy,
            1,
            format!("crate root of `{}` is missing `{attr}`", f.crate_name),
        ));
    }
    out
}

// ------------------------------------------------------------------- rng --

/// Rule family 2: RNG discipline.
///
/// Exemptions: test/bench/example contexts and `#[cfg(test)]` spans —
/// tests mint fixed-seed generators as fixtures, which threatens no
/// protocol stream.
fn rng_discipline(f: &SourceFile, out: &mut Vec<Finding>) {
    let t = &f.toks;
    for i in 0..t.len() {
        if f.is_test_line(t[i].line) {
            continue;
        }
        // Mt19937 :: <ctor>
        if t[i].text == "Mt19937"
            && tok_is(t, i + 1, ":")
            && tok_is(t, i + 2, ":")
            && t.get(i + 3)
                .is_some_and(|c| RNG_CONSTRUCTORS.contains(&c.text.as_str()))
            && !module_in(&f.module, RNG_MODULES)
        {
            out.push(finding(
                f,
                RuleId::RngConstruction,
                t[i].line,
                format!(
                    "`Mt19937::{}` in `{}`; generators are minted only in {} — derive one via psml_parallel::protocol_rng/derived_rng",
                    t[i + 3].text,
                    f.module,
                    RNG_MODULES.join(", ")
                ),
            ));
        }
        if t[i].kind == TokKind::Ident
            && t[i].text == FAULT_RNG_IDENT
            && !module_in(&f.module, FAULT_RNG_MODULES)
        {
            out.push(finding(
                f,
                RuleId::FaultRngReference,
                t[i].line,
                format!(
                    "`{}` referenced in `{}`; the fault RNG is private to {}",
                    FAULT_RNG_IDENT,
                    f.module,
                    FAULT_RNG_MODULES.join(", ")
                ),
            ));
        }
        if t[i].kind == TokKind::Ident
            && t[i].text == FAULT_INJECTOR_IDENT
            && !module_in(&f.module, FAULT_INJECTOR_MODULES)
        {
            out.push(finding(
                f,
                RuleId::FaultRngReference,
                t[i].line,
                format!(
                    "`{}` referenced in `{}`; fault injection is wired only inside {}",
                    FAULT_INJECTOR_IDENT,
                    f.module,
                    FAULT_INJECTOR_MODULES.join(", ")
                ),
            ));
        }
    }
}

// --------------------------------------------------------------- secrecy --

/// Rule family 3: secrecy.
///
/// Exemptions: test contexts (tests fabricate their own "secrets" and the
/// redaction regression test must be able to format one); the redaction
/// modules may hand-write `Debug` impls (but still may not *derive*).
fn secrecy(f: &SourceFile, secrets: &SecretRegistry, out: &mut Vec<Finding>) {
    let t = &f.toks;

    // (a) derive(Debug) on a secret type — forbidden everywhere.
    let mut i = 0;
    while i < t.len() {
        if t[i].text == "derive" && i > 0 && tok_is(t, i - 1, "[") && tok_is(t, i + 1, "(") {
            let end = skip_balanced(t, i + 1, "(", ")");
            let derives_debug = t[i + 1..end].iter().any(|x| x.text == "Debug");
            // After `)]`, skip further attributes/visibility to the item.
            let mut j = end + 1; // skip `]`
            loop {
                if tok_is(t, j, "#") {
                    j = skip_attr(t, j);
                } else if tok_is(t, j, "pub") {
                    j += 1;
                    if tok_is(t, j, "(") {
                        j = skip_balanced(t, j, "(", ")");
                    }
                } else {
                    break;
                }
            }
            if derives_debug
                && (tok_is(t, j, "struct") || tok_is(t, j, "enum") || tok_is(t, j, "union"))
            {
                if let Some(name) = t.get(j + 1) {
                    if secrets.contains(&name.text) {
                        out.push(finding(
                            f,
                            RuleId::SecretDebugDerive,
                            t[i].line,
                            format!(
                                "secret type `{}` derives Debug; write a redacting impl (shape + ring, never limbs)",
                                name.text
                            ),
                        ));
                    }
                }
            }
            i = end;
            continue;
        }
        i += 1;
    }

    // (b) manual `impl ... Debug/Display for <Secret>` outside redaction
    //     modules.
    for i in 0..t.len() {
        if (t[i].text == "Debug" || t[i].text == "Display")
            && tok_is(t, i + 1, "for")
            && !f.is_test_line(t[i].line)
            && !module_in(&f.module, REDACTION_MODULES)
        {
            // Find the implemented type: idents up to the opening `{` or
            // `where`.
            let mut j = i + 2;
            while j < t.len() && t[j].text != "{" && t[j].text != "where" {
                if t[j].kind == TokKind::Ident && secrets.contains(&t[j].text) {
                    out.push(finding(
                        f,
                        RuleId::SecretDebugImpl,
                        t[i].line,
                        format!(
                            "manual {} impl for secret type `{}` in `{}`; redacting impls live only in {}",
                            t[i].text,
                            t[j].text,
                            f.module,
                            REDACTION_MODULES.join(", ")
                        ),
                    ));
                    break;
                }
                j += 1;
            }
        }
    }

    // (c) tainted values reaching format macros / trace sinks.
    let tainted = taint_set(t, secrets);
    let mut i = 0;
    while i < t.len() {
        let is_format_macro = t[i].kind == TokKind::Ident
            && FORMAT_MACROS.contains(&t[i].text.as_str())
            && tok_is(t, i + 1, "!")
            && tok_is(t, i + 2, "(");
        let is_trace_sink = t[i].text == "TraceSink"
            && tok_is(t, i + 1, ":")
            && tok_is(t, i + 2, ":")
            && t.get(i + 3).map(|x| x.kind) == Some(TokKind::Ident)
            && tok_is(t, i + 4, "(");
        let open = if is_format_macro {
            i + 2
        } else if is_trace_sink {
            i + 4
        } else {
            i += 1;
            continue;
        };
        let end = skip_balanced(t, open, "(", ")");
        if !f.is_test_line(t[i].line) {
            for k in open + 1..end.saturating_sub(1) {
                let x = &t[k];
                if x.kind != TokKind::Ident {
                    continue;
                }
                let secret_name = secrets.contains(&x.text);
                let is_tainted = tainted.contains(x.text.as_str());
                if !secret_name && !is_tainted {
                    continue;
                }
                // Metadata accessors are the sanctioned way to format
                // information about a secret: `pair.shape()` is fine, and
                // so is a longer chain that *ends* in one
                // (`triple.u.shape()`) — the formatted value is the chain
                // result, not the secret.
                if chain_ends_in_metadata(t, k) {
                    continue;
                }
                // A secret type name in turbofish/path position that never
                // touches a value (e.g. `size_of::<SharePair<R>>()`) is
                // still flagged conservatively — protocol code has no
                // business naming secrets inside a format call.
                out.push(finding(
                    f,
                    RuleId::SecretFormatLeak,
                    x.line,
                    format!(
                        "`{}` ({}) reaches `{}{}`; format only metadata accessors ({})",
                        x.text,
                        if secret_name {
                            "secret type".to_string()
                        } else {
                            "secret-typed value".to_string()
                        },
                        t[i].text,
                        if is_format_macro { "!" } else { "" },
                        METADATA_ACCESSORS.join("/"),
                    ),
                ));
            }
        }
        i = end;
    }
}

/// Walks the postfix chain starting at the identifier at `k`
/// (`ident(.field | .method(..))*`) and reports whether it ends in a
/// *called* metadata accessor, which yields shape/dimension data rather
/// than limb values.
fn chain_ends_in_metadata(t: &[Tok], k: usize) -> bool {
    let mut j = k + 1;
    let mut last_call: Option<&str> = None;
    while tok_is(t, j, ".") && t.get(j + 1).map(|x| x.kind) == Some(TokKind::Ident) {
        let name = t[j + 1].text.as_str();
        j += 2;
        if tok_is(t, j, "(") {
            last_call = Some(name);
            j = skip_balanced(t, j, "(", ")");
        } else {
            // Bare field access (`triple.u`) exposes the secret itself
            // unless a later accessor call closes the chain.
            last_call = None;
        }
    }
    last_call.is_some_and(|m| METADATA_ACCESSORS.contains(&m))
}

/// Identifiers bound with a secret type annotation anywhere in the file:
/// `x: SharePair<R>` (params, fields, lets) and `let x = SharePair::...`.
fn taint_set<'a>(t: &'a [Tok], secrets: &SecretRegistry) -> BTreeSet<&'a str> {
    let mut set = BTreeSet::new();
    for i in 0..t.len() {
        // ident : [&] [mut] ['a] Secret
        if t[i].kind == TokKind::Ident && tok_is(t, i + 1, ":") && !tok_is(t, i + 2, ":") {
            let mut j = i + 2;
            while j < t.len()
                && (t[j].text == "&"
                    || t[j].text == "mut"
                    || t[j].kind == TokKind::Lifetime)
            {
                j += 1;
            }
            if t.get(j).is_some_and(|x| secrets.contains(&x.text)) {
                set.insert(t[i].text.as_str());
            }
        }
        // let [mut] x = Secret :: ...
        if t[i].text == "let" {
            let mut j = i + 1;
            if tok_is(t, j, "mut") {
                j += 1;
            }
            if t.get(j).map(|x| x.kind) == Some(TokKind::Ident)
                && tok_is(t, j + 1, "=")
                && t.get(j + 2).is_some_and(|x| secrets.contains(&x.text))
            {
                set.insert(t[j].text.as_str());
            }
        }
    }
    set
}

// ----------------------------------------------------------- determinism --

/// Rule family 4: determinism.
///
/// Exemptions: modules outside [`DETERMINISM_MODULES`] (tracing and
/// benchmarking exist to read the host clock), the scoped
/// [`DETERMINISM_EXEMPT_MODULES`] allowlist (real-socket supervision,
/// where wall-clock deadlines are the ground truth), plus test spans.
fn determinism(f: &SourceFile, out: &mut Vec<Finding>) {
    if !module_in(&f.module, DETERMINISM_MODULES)
        || module_in(&f.module, DETERMINISM_EXEMPT_MODULES)
    {
        return;
    }
    let t = &f.toks;
    for tok in t.iter() {
        if tok.kind == TokKind::Ident
            && WALL_CLOCK_IDENTS.contains(&tok.text.as_str())
            && !f.is_test_line(tok.line)
        {
            out.push(finding(
                f,
                RuleId::WallClock,
                tok.line,
                format!(
                    "`{}` in protocol path `{}`; use simulated time (SimTime) — wall clock breaks replay identity",
                    tok.text, f.module
                ),
            ));
        }
    }

    // Names bound to HashMaps in this file.
    let mut maps: BTreeSet<&str> = BTreeSet::new();
    for i in 0..t.len() {
        if t[i].kind == TokKind::Ident && tok_is(t, i + 1, ":") && !tok_is(t, i + 2, ":") {
            let mut j = i + 2;
            while j < t.len() && (t[j].text == "&" || t[j].text == "mut") {
                j += 1;
            }
            if tok_is(t, j, "HashMap") {
                maps.insert(t[i].text.as_str());
            }
        }
        if t[i].text == "let" {
            let mut j = i + 1;
            if tok_is(t, j, "mut") {
                j += 1;
            }
            if t.get(j).map(|x| x.kind) == Some(TokKind::Ident) {
                // let x = HashMap::new()  /  let x: HashMap<..> = ..
                if (tok_is(t, j + 1, "=") && tok_is(t, j + 2, "HashMap"))
                    || (tok_is(t, j + 1, ":") && tok_is(t, j + 2, "HashMap"))
                {
                    maps.insert(t[j].text.as_str());
                }
            }
        }
    }
    if maps.is_empty() {
        return;
    }

    for i in 0..t.len() {
        if t[i].kind != TokKind::Ident || !maps.contains(t[i].text.as_str()) {
            continue;
        }
        if f.is_test_line(t[i].line) {
            continue;
        }
        // map . iter() -like call
        if tok_is(t, i + 1, ".")
            && t.get(i + 2)
                .is_some_and(|m| HASHMAP_ITER_METHODS.contains(&m.text.as_str()))
            && tok_is(t, i + 3, "(")
        {
            out.push(finding(
                f,
                RuleId::HashMapIteration,
                t[i].line,
                format!(
                    "`{}.{}()` iterates a HashMap in `{}`; iteration order is seeded per-process — use a BTreeMap or sort keys",
                    t[i].text, t[i + 2].text, f.module
                ),
            ));
        }
        // `for .. in [&][mut] [self.]map {` — iteration via IntoIterator.
        // Walk back over the iterable expression path (idents, `.`, `&`,
        // `mut`) looking for the `in` keyword; require the map name to be
        // the final path segment (next token opens the loop body).
        else if tok_is(t, i + 1, "{") && i > 0 {
            let mut j = i - 1;
            let mut saw_in = false;
            for _ in 0..6 {
                match t[j].text.as_str() {
                    "in" => {
                        saw_in = true;
                        break;
                    }
                    "." | "&" | "mut" => {}
                    _ if t[j].kind == TokKind::Ident => {}
                    _ => break,
                }
                if j == 0 {
                    break;
                }
                j -= 1;
            }
            if saw_in {
                out.push(finding(
                    f,
                    RuleId::HashMapIteration,
                    t[i].line,
                    format!(
                        "`for .. in {}` iterates a HashMap in `{}`; iteration order is seeded per-process — use a BTreeMap or sort keys",
                        t[i].text, f.module
                    ),
                ));
            }
        }
    }
}
