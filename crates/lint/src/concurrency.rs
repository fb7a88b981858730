//! Concurrency discipline over the audited lock-bearing modules.
//!
//! Two rules, both driven by guard-scope tracking plus call-graph
//! summaries:
//!
//! * **Lock-order consistency** — every pair of locks must be acquired
//!   in one global order on every path (including paths that cross
//!   function boundaries). With both `(a, b)` and `(b, a)` edges present
//!   a deadlock needs only two threads; the finding lands on the edge
//!   that violates the canonical (lexicographic) order.
//! * **No blocking `recv()` under a lock** — a worker parked in
//!   `Receiver::recv` while holding a mutex starves every thread that
//!   needs the mutex to *send* (the exact shape a channel-fed pool can
//!   hit). `Condvar::wait` releases its guard and is fine.
//!
//! Guard scopes: a `let`-bound guard lives to the end of its enclosing
//! block or an explicit `drop(guard)`; a statement temporary lives to
//! the `;`.

use crate::callgraph::CallGraph;
use crate::config::{CONCURRENCY_MODULES, LOCK_METHODS};
use crate::findings::{Evidence, Finding, RuleId};
use crate::lexer::{Tok, TokKind};
use crate::source::{module_in, SourceFile};
use crate::symbols::SymbolTable;
use crate::tokens::{expr_end, tok_is};
use std::collections::BTreeMap;

/// One lock acquisition inside a function body.
#[derive(Clone, Debug)]
struct LockEvent {
    /// Normalized lock identity: `module::chain-tail`.
    identity: String,
    /// Token index of the acquisition (`.lock()` receiver chain start).
    tok: usize,
    /// Token index one past the guard's scope.
    scope_end: usize,
    line: u32,
}

/// What callers need to know about a function's locking behavior.
#[derive(Clone, Default, Debug, PartialEq)]
struct LockSummary {
    /// Locks acquired anywhere inside (transitively), with one site each.
    acquires: BTreeMap<String, Evidence>,
    /// A blocking `recv()` anywhere inside (transitively).
    recv: Option<Evidence>,
}

/// Runs both concurrency rules; findings are emitted only for functions
/// inside [`CONCURRENCY_MODULES`], but summaries cover the whole
/// workspace so cross-module call chains are visible.
pub fn run(sources: &[SourceFile], table: &SymbolTable, cg: &CallGraph) -> Vec<Finding> {
    let n = table.fns.len();
    let events: Vec<Vec<LockEvent>> = (0..n)
        .map(|id| collect_events(id, sources, table))
        .collect();
    let recvs: Vec<Vec<(usize, u32)>> = (0..n)
        .map(|id| collect_recvs(id, sources, table))
        .collect();

    // Fixpoint over call edges: a function "acquires" what its callees
    // acquire and "recvs" if any callee does.
    let mut summaries = vec![LockSummary::default(); n];
    for _ in 0..10 {
        let mut changed = false;
        for id in 0..n {
            let f = &sources[table.fns[id].file];
            let mut s = LockSummary::default();
            for ev in &events[id] {
                s.acquires.entry(ev.identity.clone()).or_insert(Evidence {
                    file: f.path.clone(),
                    line: ev.line,
                    note: format!("acquires `{}`", ev.identity),
                });
            }
            if let Some(&(_, line)) = recvs[id].first() {
                s.recv = Some(Evidence {
                    file: f.path.clone(),
                    line,
                    note: "blocking recv() here".into(),
                });
            }
            for site in cg.calls[id].values() {
                let callee = summaries[site.callee].clone();
                for (ident, ev) in callee.acquires {
                    s.acquires.entry(ident).or_insert(ev);
                }
                if s.recv.is_none() {
                    s.recv = callee.recv;
                }
            }
            if s != summaries[id] {
                summaries[id] = s;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Edge collection + recv-under-lock, only in the audited modules.
    let mut edges: BTreeMap<(String, String), (String, u32, Vec<Evidence>)> = BTreeMap::new();
    let mut findings = Vec::new();
    for id in 0..n {
        let d = &table.fns[id];
        let f = &sources[d.file];
        if !module_in(&f.module, CONCURRENCY_MODULES) {
            continue;
        }
        for held in &events[id] {
            if f.is_test_line(held.line) {
                continue;
            }
            let span = held.tok..held.scope_end;
            // Direct nested acquisitions.
            for other in &events[id] {
                if other.tok > held.tok
                    && span.contains(&other.tok)
                    && other.identity != held.identity
                {
                    edges
                        .entry((held.identity.clone(), other.identity.clone()))
                        .or_insert_with(|| {
                            (
                                f.path.clone(),
                                other.line,
                                vec![
                                    Evidence {
                                        file: f.path.clone(),
                                        line: held.line,
                                        note: format!("holding `{}` (acquired here)", held.identity),
                                    },
                                    Evidence {
                                        file: f.path.clone(),
                                        line: other.line,
                                        note: format!("acquires `{}`", other.identity),
                                    },
                                ],
                            )
                        });
                }
            }
            // Direct blocking recv under the guard.
            for &(rtok, rline) in &recvs[id] {
                if span.contains(&rtok) {
                    let mut fin = Finding::new(
                        RuleId::ConcurrencyRecvUnderLock,
                        &f.path,
                        rline,
                        format!(
                            "blocking `recv()` while holding `{}`; senders needing the lock deadlock — use Condvar::wait (releases the guard) or drop the guard first",
                            held.identity
                        ),
                        f.line_text(rline),
                    );
                    fin.evidence = vec![Evidence {
                        file: f.path.clone(),
                        line: held.line,
                        note: format!("`{}` acquired here", held.identity),
                    }];
                    findings.push(fin);
                }
            }
            // Through calls made under the guard.
            for site in cg.calls[id].values() {
                let pos = site.name_tok;
                if !span.contains(&pos) || f.is_test_line(site.line) {
                    continue;
                }
                let callee = &summaries[site.callee];
                let callee_name = &table.fns[site.callee].name;
                for (ident, ev) in &callee.acquires {
                    if *ident == held.identity {
                        continue;
                    }
                    edges
                        .entry((held.identity.clone(), ident.clone()))
                        .or_insert_with(|| {
                            (
                                f.path.clone(),
                                site.line,
                                vec![
                                    Evidence {
                                        file: f.path.clone(),
                                        line: held.line,
                                        note: format!("holding `{}` (acquired here)", held.identity),
                                    },
                                    Evidence {
                                        file: f.path.clone(),
                                        line: site.line,
                                        note: format!("calls `{callee_name}`"),
                                    },
                                    ev.clone(),
                                ],
                            )
                        });
                }
                if let Some(rev) = &callee.recv {
                    let mut fin = Finding::new(
                        RuleId::ConcurrencyRecvUnderLock,
                        &f.path,
                        site.line,
                        format!(
                            "`{callee_name}` blocks in `recv()` and is called while holding `{}`",
                            held.identity
                        ),
                        f.line_text(site.line),
                    );
                    fin.evidence = vec![
                        Evidence {
                            file: f.path.clone(),
                            line: held.line,
                            note: format!("`{}` acquired here", held.identity),
                        },
                        rev.clone(),
                    ];
                    findings.push(fin);
                }
            }
        }
    }

    // Inversions: both directions observed. Flag the edge that violates
    // the canonical lexicographic order — deterministic, and exactly one
    // of the two sites gets the finding.
    for ((a, b), (file, line, evidence)) in &edges {
        if a <= b {
            continue;
        }
        if let Some((ofile, oline, _)) = edges.get(&(b.clone(), a.clone())) {
            let mut fin = Finding::new(
                RuleId::ConcurrencyLockOrder,
                file,
                *line,
                format!(
                    "`{b}` then `{a}` here, but `{ofile}:{oline}` acquires `{a}` then `{b}`; pick one global order",
                    b = b,
                    a = a,
                ),
                "",
            );
            let mut ev = evidence.clone();
            ev.push(Evidence {
                file: ofile.clone(),
                line: *oline,
                note: format!("opposite order `{a}` -> `{b}` here"),
            });
            fin.evidence = ev;
            findings.push(fin);
        }
    }
    findings
}

/// Finds every `.lock()` / `.read()` / `.write()` (zero-argument) in the
/// body and computes each guard's scope.
fn collect_events(id: usize, sources: &[SourceFile], table: &SymbolTable) -> Vec<LockEvent> {
    let d = &table.fns[id];
    let Some((open, end)) = d.body else { return Vec::new() };
    let f = &sources[d.file];
    let t = &f.toks;
    let mut out = Vec::new();
    for j in open + 1..end.saturating_sub(3) {
        if t[j].text != "."
            || !t
                .get(j + 1)
                .is_some_and(|x| LOCK_METHODS.contains(&x.text.as_str()))
            || !tok_is(t, j + 2, "(")
            || !tok_is(t, j + 3, ")")
        {
            continue;
        }
        // The receiver chain, walked backward: `self.state` -> tail
        // `state`; a lone param name is its own tail. Computed receivers
        // (`stdout().lock()`) have no stable identity and are skipped.
        let mut k = j;
        let mut tail: Option<&str> = None;
        while k >= 1 && t[k - 1].kind == TokKind::Ident {
            if tail.is_none() {
                tail = Some(t[k - 1].text.as_str());
            }
            if k >= 2 && t[k - 2].text == "." {
                k -= 2;
            } else {
                k -= 1;
                break;
            }
        }
        let Some(tail) = tail else { continue };
        if tail == "self" {
            continue;
        }
        let chain_start = k;
        let identity = format!("{}::{}", f.module, tail);
        let scope_end = guard_scope(t, chain_start, j, end);
        out.push(LockEvent {
            identity,
            tok: chain_start,
            scope_end,
            line: t[j + 1].line,
        });
    }
    out
}

/// Guard scope: for `let g = <chain>.lock()...` the enclosing block (or
/// `drop(g)`); otherwise the end of the statement.
fn guard_scope(t: &[Tok], chain_start: usize, lock_dot: usize, body_end: usize) -> usize {
    // Look backward for a binding: `let [mut] g =` or
    // `let Ok(mut g) =` / `if let Some(g) =`.
    let mut guard: Option<&str> = None;
    if chain_start >= 2 && t[chain_start - 1].text == "=" {
        let b = chain_start - 2;
        if t[b].text == ")" && b >= 2 {
            // pattern form: ident `)` <- g <- [mut] <- `(` <- Ctor <- let
            if t[b - 1].kind == TokKind::Ident {
                guard = Some(t[b - 1].text.as_str());
            }
        } else if t[b].kind == TokKind::Ident
            && b >= 1
            && (t[b - 1].text == "let" || t[b - 1].text == "mut")
        {
            guard = Some(t[b].text.as_str());
        }
    }
    match guard {
        Some(g) => {
            // To the end of the enclosing block, or an explicit drop.
            let mut depth = 0i64;
            let mut u = lock_dot;
            while u < body_end {
                match t[u].text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth < 0 {
                            return u;
                        }
                    }
                    "drop"
                        if depth >= 0
                            && tok_is(t, u + 1, "(")
                            && tok_is(t, u + 2, g)
                            && tok_is(t, u + 3, ")") =>
                    {
                        return u;
                    }
                    _ => {}
                }
                u += 1;
            }
            body_end
        }
        // Statement temporary: to the `;` (or block edge).
        None => expr_end(t, lock_dot, body_end, false),
    }
}

/// Every zero-argument `.recv()` call in the body (`recv_timeout` /
/// `try_recv` are bounded; a `recv(peer)` method with arguments is not a
/// channel receive).
fn collect_recvs(id: usize, sources: &[SourceFile], table: &SymbolTable) -> Vec<(usize, u32)> {
    let d = &table.fns[id];
    let Some((open, end)) = d.body else { return Vec::new() };
    let t = &sources[d.file].toks;
    let mut out = Vec::new();
    for j in open + 1..end.saturating_sub(3) {
        if t[j].text == "."
            && tok_is(t, j + 1, "recv")
            && tok_is(t, j + 2, "(")
            && tok_is(t, j + 3, ")")
        {
            out.push((j + 1, t[j + 1].line));
        }
    }
    out
}
