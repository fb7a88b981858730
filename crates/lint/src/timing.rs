//! Timing discipline for the online path.
//!
//! The paper's triplet protocol assumes data-oblivious servers: whatever
//! the shares hold, both servers execute the same instruction stream.
//! Inside [`crate::config::TIMING_MODULES`] this pass therefore flags
//! control flow (`if`/`while`/`match`, short-circuit `&&`/`||`) and
//! data-dependent memory access (indexing) conditioned on secret-derived
//! values, using the taint environments from the inter-procedural pass.
//!
//! A site can be suppressed with `// psml-lint: allow(timing, "reason")`
//! on the same line or the line directly above — but only with a
//! non-empty justification string; a bare `allow(timing)` trades the
//! original finding for `timing.allow-unjustified`, so the gate stays
//! red until someone writes down *why* the branched value is public.

use crate::callgraph::CallGraph;
use crate::config::TIMING_MODULES;
use crate::findings::{Evidence, Finding, RuleId};
use crate::lexer::{Tok, TokKind};
use crate::rules::SecretRegistry;
use crate::source::{module_in, SourceFile};
use crate::symbols::SymbolTable;
use crate::taint::{FnScope, TaintAnalysis};
use crate::tokens::{expr_end, skip_balanced, tok_is};
use std::collections::BTreeSet;

/// Runs the timing rules over every function in an online-path module.
pub fn run(
    sources: &[SourceFile],
    table: &SymbolTable,
    cg: &CallGraph,
    secrets: &SecretRegistry,
    ta: &TaintAnalysis,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut reported: BTreeSet<(String, u32, RuleId)> = BTreeSet::new();
    let mut unjustified: BTreeSet<(String, u32)> = BTreeSet::new();
    for (id, d) in table.fns.iter().enumerate() {
        let f = &sources[d.file];
        if !module_in(&f.module, TIMING_MODULES) {
            continue;
        }
        let Some((open, end)) = d.body else { continue };
        let t = &f.toks;
        let env = &ta.env[id];
        let scope = FnScope::new(id, sources, table, cg, secrets, &ta.summaries);
        let taint_at = |k: usize| scope.chain_taint(k, env);

        // Condition ranges: `if`/`while` to the block opener, `match`
        // scrutinees, and the statement around short-circuit operators.
        let mut cond_ranges: Vec<(usize, usize, &'static str)> = Vec::new();
        let mut j = open + 1;
        while j + 1 < end {
            match t[j].text.as_str() {
                "if" | "while" | "match" if t[j].kind == TokKind::Ident => {
                    let kind = if t[j].text == "match" { "match" } else { "branch" };
                    cond_ranges.push((j + 1, expr_end(t, j + 1, end, true), kind));
                }
                "&" | "|"
                    if tok_is(t, j + 1, &t[j].text)
                        && j >= 1
                        && is_operand_end(&t[j - 1]) =>
                {
                    // Short-circuit operator: its evaluation count is
                    // itself a branch. Scan the surrounding statement.
                    let (a, b) = statement_around(t, j, open, end);
                    cond_ranges.push((a, b, "short-circuit"));
                }
                _ => {}
            }
            j += 1;
        }
        for (a, b, kind) in cond_ranges {
            for k in a..b {
                if t[k].kind != TokKind::Ident {
                    continue;
                }
                if k >= 1 && t[k - 1].text == "." {
                    continue;
                }
                let Some(taint) = taint_at(k) else { continue };
                let line = t[k].line;
                if f.is_test_line(line) {
                    continue;
                }
                emit(
                    f,
                    RuleId::TimingBranchOnSecret,
                    line,
                    format!(
                        "{kind} on secret-derived `{}` in online-path `{}`; make the control flow data-oblivious",
                        t[k].text, f.module
                    ),
                    taint.src,
                    &mut findings,
                    &mut reported,
                    &mut unjustified,
                );
            }
        }

        // Data-dependent indexing: `expr[ secret ]`.
        let mut j = open + 1;
        while j + 1 < end {
            if t[j].text == "["
                && j >= 1
                && is_operand_end(&t[j - 1])
                && t[j - 1].text != "#"
                && !crate::callgraph::KEYWORDS.contains(&t[j - 1].text.as_str())
            {
                let close = skip_balanced(t, j, "[", "]");
                for k in j + 1..close.saturating_sub(1) {
                    if t[k].kind != TokKind::Ident || (k >= 1 && t[k - 1].text == ".") {
                        continue;
                    }
                    let Some(taint) = taint_at(k) else { continue };
                    let line = t[k].line;
                    if f.is_test_line(line) {
                        continue;
                    }
                    emit(
                        f,
                        RuleId::TimingSecretIndex,
                        line,
                        format!(
                            "index derived from secret `{}` in online-path `{}`; memory access patterns must not depend on secrets",
                            t[k].text, f.module
                        ),
                        taint.src,
                        &mut findings,
                        &mut reported,
                        &mut unjustified,
                    );
                }
                j = close;
                continue;
            }
            j += 1;
        }
    }
    findings
}

/// Whether a token can end the left operand of a binary operator
/// (distinguishing `a && b` from the double reference `&&b` and closure
/// pipes).
fn is_operand_end(t: &Tok) -> bool {
    matches!(t.kind, TokKind::Ident | TokKind::Num | TokKind::Str | TokKind::Char)
        || matches!(t.text.as_str(), ")" | "]" | "?")
}

/// The statement slice around token `j`: back to the nearest `;`/`{`/`}`
/// and forward to the nearest `;` or block opener.
fn statement_around(t: &[Tok], j: usize, open: usize, end: usize) -> (usize, usize) {
    let mut a = j;
    while a > open + 1 {
        match t[a - 1].text.as_str() {
            ";" | "{" | "}" => break,
            _ => a -= 1,
        }
    }
    (a, expr_end(t, j, end, true))
}

/// The suppression state of `line`: `None` (no allow comment),
/// `Some(true)` (justified), `Some(false)` (allow without justification).
fn suppression(f: &SourceFile, line: u32) -> Option<(bool, u32)> {
    for c in &f.comments {
        let covers = (c.line <= line && line <= c.end_line) || c.end_line + 1 == line;
        if !covers {
            continue;
        }
        let Some(idx) = c.text.find("psml-lint:") else { continue };
        let rest = &c.text[idx..];
        let Some(a) = rest.find("allow(") else { continue };
        let inner = &rest[a + "allow(".len()..];
        let Some(close) = inner.find(')') else { continue };
        let body = &inner[..close];
        let family = body.split(',').next().unwrap_or("").trim();
        if family != "timing" {
            continue;
        }
        let justified = body
            .split_once(',')
            .map(|(_, reason)| {
                let r = reason.trim();
                r.len() > 2
                    && r.starts_with('"')
                    && r.ends_with('"')
                    && !r.trim_matches('"').trim().is_empty()
            })
            .unwrap_or(false);
        return Some((justified, c.line));
    }
    None
}

#[allow(clippy::too_many_arguments)]
fn emit(
    f: &SourceFile,
    rule: RuleId,
    line: u32,
    message: String,
    evidence: Vec<Evidence>,
    findings: &mut Vec<Finding>,
    reported: &mut BTreeSet<(String, u32, RuleId)>,
    unjustified: &mut BTreeSet<(String, u32)>,
) {
    match suppression(f, line) {
        Some((true, _)) => {}
        Some((false, comment_line)) => {
            // The suppression itself is the finding: the gate stays red
            // until a justification is written.
            if unjustified.insert((f.path.clone(), comment_line)) {
                findings.push(Finding::new(
                    RuleId::TimingAllowUnjustified,
                    &f.path,
                    comment_line,
                    "allow(timing) without a justification string — write down why the value is public".into(),
                    f.line_text(comment_line),
                ));
            }
        }
        None => {
            if reported.insert((f.path.clone(), line, rule)) {
                let mut fin = Finding::new(rule, &f.path, line, message, f.line_text(line));
                fin.evidence = evidence;
                findings.push(fin);
            }
        }
    }
}
