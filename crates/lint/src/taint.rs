//! Secret taint: the one secret-flow analysis.
//!
//! Per function the pass tracks which locals/params hold secret-derived
//! values; per-function *summaries* (`returns_secret`, which parameters
//! flow to a format sink) propagate secrecy across call edges, iterated
//! to a fixpoint over the whole workspace. The lattice is intentionally
//! tiny — `public < secret` per binding, plus a `cross` bit recording
//! whether the taint crossed a function boundary — because the rule only
//! ever asks one question: can limb material reach a format sink?
//!
//! Taint *enters* at values whose declared type is in the secret registry
//! (params, annotated lets, struct literals, struct fields declared with a
//! secret type) and at calls to functions summarized as returning
//! secrets. Taint *exits* only at the sanctioned points: metadata
//! accessors/fields (shape, dims, ring) and the declassification methods
//! (`reconstruct`, `reveal`, ... — the protocol's public `E`/`F` values).
//! Everything else propagates, including through struct fields and
//! indexing.
//!
//! A sink reached by a tainted value is reported as
//! [`RuleId::SecretFormatLeak`] when the taint stayed inside the function
//! and as [`RuleId::SecretCrossFunctionLeak`] when it crossed a call edge
//! (the evidence chain then walks the call path back to the secret).

use crate::callgraph::{CallGraph, CallSite};
use crate::config::{DECLASSIFY_CALLS, FORMAT_MACROS, METADATA_ACCESSORS, METADATA_FIELDS};
use crate::findings::{Evidence, Finding, RuleId};
use crate::lexer::{Tok, TokKind};
use crate::rules::SecretRegistry;
use crate::source::SourceFile;
use crate::symbols::{element_types, parse_let, type_name, FnDef, SymbolTable};
use crate::tokens::{expr_end, is_ident, skip_balanced, tok_is};
use std::collections::BTreeMap;

/// Taint on one binding.
#[derive(Clone, Debug)]
pub struct Taint {
    /// Whether the value crossed a function boundary on its way here.
    pub cross: bool,
    /// Provenance steps, oldest first.
    pub src: Vec<Evidence>,
}

/// Longest provenance chain kept per value — deep call stacks truncate
/// rather than ballooning the report.
const MAX_EVIDENCE: usize = 6;

impl Taint {
    fn step(mut self, e: Evidence) -> Taint {
        if self.src.len() < MAX_EVIDENCE {
            self.src.push(e);
        }
        self
    }
}

/// One function's taint environment: binding name -> taint.
pub type Env = BTreeMap<String, Taint>;

/// What the rest of the workspace needs to know about one function.
#[derive(Clone, Default, Debug)]
pub struct FnSummary {
    /// The return value carries secret material.
    pub returns_secret: bool,
    /// Provenance of the returned secret (for evidence chains).
    pub ret_src: Vec<Evidence>,
    /// A parameter's value flows into the (otherwise public) return
    /// value, so a caller's secret arguments taint the call's result.
    /// When not, the result is public whatever the arguments were.
    pub passes_args: bool,
    /// Parameters (by index) that reach a format sink inside this
    /// function (directly or through further calls), with the chain to
    /// the sink. Secret-*typed* parameters are excluded — the flow is
    /// reported once, inside this function, where it reaches the sink.
    pub leak_params: BTreeMap<usize, Vec<Evidence>>,
}

/// Fixpoint result: summaries plus each function's final taint
/// environment (the timing pass reuses the environments).
pub struct TaintAnalysis {
    /// Indexed by function id.
    pub summaries: Vec<FnSummary>,
    /// Indexed by function id.
    pub env: Vec<Env>,
}

/// Runs the workspace fixpoint and returns the analysis plus every
/// secret-to-sink finding.
pub fn analyze(
    sources: &[SourceFile],
    table: &SymbolTable,
    cg: &CallGraph,
    secrets: &SecretRegistry,
) -> (TaintAnalysis, Vec<Finding>) {
    let n = table.fns.len();
    let mut summaries = vec![FnSummary::default(); n];
    let mut env: Vec<Env> = vec![Env::new(); n];
    // Monotone iteration: taint and summaries only grow, so this
    // terminates; the bound is belt-and-braces against resolution bugs.
    for _round in 0..10 {
        let mut changed = false;
        for id in 0..n {
            let scope = FnScope::new(id, sources, table, cg, secrets, &summaries);
            let locals = scope.compute_env();
            let summary = scope.compute_summary(&locals);
            let old = &summaries[id];
            if summary.returns_secret != old.returns_secret
                || summary.passes_args != old.passes_args
                || summary.leak_params.len() != old.leak_params.len()
                || !summary.leak_params.keys().eq(old.leak_params.keys())
            {
                changed = true;
            }
            summaries[id] = summary;
            env[id] = locals;
        }
        if !changed {
            break;
        }
    }
    let mut findings = Vec::new();
    for (id, locals) in env.iter().enumerate() {
        FnScope::new(id, sources, table, cg, secrets, &summaries).report(locals, &mut findings);
    }
    // One mention per site: an ident repeated inside a macro's argument
    // list would otherwise produce one finding per occurrence.
    let mut seen = std::collections::BTreeSet::new();
    findings.retain(|fin| seen.insert((fin.file.clone(), fin.line, fin.rule, fin.message.clone())));
    (TaintAnalysis { summaries, env }, findings)
}

/// `Result` projections onto the error side: the `Ok` payload — the
/// secret — is dropped (`provider.take(..).unwrap_err()`).
const ERROR_SIDE: &[&str] = &["err", "unwrap_err", "expect_err"];

fn is_declassify(name: &str) -> bool {
    DECLASSIFY_CALLS.contains(&name)
}

/// Whether the identifier at `k` starts an expression chain (not a field
/// / method / path tail position).
fn is_base_ident(t: &[Tok], k: usize) -> bool {
    if t[k].kind != TokKind::Ident {
        return false;
    }
    if k >= 1 && t[k - 1].text == "." {
        return false;
    }
    if k >= 2 && t[k - 1].text == ":" && t[k - 2].text == ":" {
        return false;
    }
    true
}

/// One function's view of the workspace: everything an expression scan
/// inside its body reads.
pub(crate) struct FnScope<'a> {
    f: &'a SourceFile,
    def: &'a FnDef,
    table: &'a SymbolTable,
    secrets: &'a SecretRegistry,
    sites: &'a BTreeMap<usize, CallSite>,
    summaries: &'a [FnSummary],
}

impl<'a> FnScope<'a> {
    pub(crate) fn new(
        id: usize,
        sources: &'a [SourceFile],
        table: &'a SymbolTable,
        cg: &'a CallGraph,
        secrets: &'a SecretRegistry,
        summaries: &'a [FnSummary],
    ) -> Self {
        let def = &table.fns[id];
        FnScope { f: &sources[def.file], def, table, secrets, sites: &cg.calls[id], summaries }
    }

    fn evidence(&self, line: u32, note: String) -> Evidence {
        Evidence { file: self.f.path.clone(), line, note }
    }

    /// Taint that starts here, inside this function.
    fn root(&self, line: u32, note: String) -> Taint {
        Taint { cross: false, src: vec![self.evidence(line, note)] }
    }

    /// The result of the resolved call at `site` (name token `at`): taint
    /// iff the callee returns secret material.
    fn returned(&self, site: &CallSite, at: usize, note: String) -> Option<Taint> {
        let s = &self.summaries[site.callee];
        s.returns_secret.then(|| {
            let mut src = s.ret_src.clone();
            src.truncate(MAX_EVIDENCE - 1);
            src.push(self.evidence(self.f.toks[at].line, note));
            Taint { cross: true, src }
        })
    }

    /// Evaluates the taint of the postfix chain rooted at token `k` (a
    /// base identifier or a resolved call). Returns `None` when the chain
    /// result is public — including chains that end in a metadata
    /// accessor/field or pass through a declassification call.
    pub(crate) fn chain_taint(&self, k: usize, env: &Env) -> Option<Taint> {
        self.chain(k, env).ok().flatten()
    }

    /// [`Self::chain_taint`], telling a chain cut by a declassification,
    /// metadata read or error-side projection apart: `Err(end)`, with
    /// everything before token `end` — arguments included — public.
    fn chain(&self, k: usize, env: &Env) -> Result<Option<Taint>, usize> {
        let t = &self.f.toks;
        let name = t[k].text.as_str();
        let mut j;
        let mut current: Option<Taint>;
        // The chain's declared type so far, where the symbol table knows
        // it: a typed local's, then each field's.
        let mut ty: Option<&str> = None;
        if let Some(site) = self.sites.get(&k) {
            current = self.returned(site, k, format!("secret-returning call `{name}(..)`"));
            j = skip_balanced(t, site.args_open, "(", ")");
        } else if tok_is(t, k + 1, "(") {
            // Unresolved call: opaque, assume public result.
            current = None;
            j = skip_balanced(t, k + 1, "(", ")");
        } else {
            current = env.get(name).cloned();
            if current.is_none() && self.secrets.contains(name) && tok_is(t, k + 1, "{") {
                // Secret type in struct-literal position. Path position
                // (`SharedMatrix::reveal_insecure`) is deliberately NOT a
                // taint root — there the *method* decides the result, and
                // resolved `Type::method` calls are handled above.
                current = Some(self.root(t[k].line, format!("secret type `{name}`")));
            }
            ty = self.def.locals.get(name).map(String::as_str);
            j = k + 1;
        }
        loop {
            if tok_is(t, j, ".") && is_ident(t, j + 1) {
                let m = t[j + 1].text.as_str();
                if tok_is(t, j + 2, "(") {
                    let close = skip_balanced(t, j + 2, "(", ")");
                    // A call that is, or applies, a declassification
                    // (`.map(SharedMatrix::reveal_insecure)`) yields public
                    // values; so do a metadata accessor and the error side
                    // of a `Result`.
                    let declassifies = t[j + 3..close].iter().any(|x| is_declassify(&x.text));
                    if is_declassify(m) || declassifies || METADATA_ACCESSORS.contains(&m) || ERROR_SIDE.contains(&m) {
                        return Err(close);
                    }
                    // A resolved secret-returning method taints even a
                    // public receiver (`provider.take(spec)`).
                    if current.is_none() {
                        if let Some(site) = self.sites.get(&(j + 1)) {
                            current = self.returned(site, j + 1, format!("secret-returning call `.{m}(..)`"));
                        }
                    }
                    ty = None;
                    j = close;
                } else {
                    if METADATA_FIELDS.contains(&m) || METADATA_ACCESSORS.contains(&m) {
                        return Err(j + 2);
                    }
                    // A field declared with a secret type taints even a
                    // public receiver (`self.triple`).
                    let field = ty.and_then(|s| Some((s, self.table.fields.get(s)?.get(m)?)));
                    if let (None, Some((owner, fty))) = (&current, field) {
                        if let Some(secret) = fty.iter().find(|x| self.secrets.contains(x)) {
                            current = Some(self.root(
                                t[j + 1].line,
                                format!("field `{owner}.{m}` has secret type `{secret}`"),
                            ));
                        }
                    }
                    ty = field.and_then(|(_, fty)| type_name(fty.iter().map(String::as_str)));
                    j += 2;
                }
            } else if tok_is(t, j, "[") {
                // Indexing into a secret container yields secret material.
                ty = None;
                j = skip_balanced(t, j, "[", "]");
            } else if tok_is(t, j, "?") {
                j += 1;
            } else {
                break;
            }
        }
        Ok(current)
    }

    /// The resolved call whose value the expression `(a, b)` is, looking
    /// through `?`, `.unwrap()` and `.expect(..)` (`p.take(seq, spec)?`).
    fn value_call(&self, (a, b): (usize, usize)) -> Option<&'a CallSite> {
        let t = &self.f.toks;
        let mut site = None;
        let mut j = a;
        while j < b {
            let text = t[j].text.as_str();
            if let Some(s) = self.sites.get(&j) {
                site = Some(s);
                j = skip_balanced(t, s.args_open, "(", ")");
            } else if site.is_some() && matches!(text, "unwrap" | "expect") && tok_is(t, j + 1, "(") {
                j = skip_balanced(t, j + 1, "(", ")");
            } else if matches!(text, "." | "?")
                // The receiver path before the call (`self.ctx`, `Type::<R>`).
                || (site.is_none() && (is_ident(t, j) || matches!(text, ":" | "<" | ">")))
            {
                j += 1;
            } else {
                return None;
            }
        }
        site
    }

    /// Taint of an expression region: the join over its chain roots, with
    /// boundary-crossing provenance preferred when several are tainted.
    fn expr_taint(&self, range: (usize, usize), env: &Env) -> Option<Taint> {
        let mut best: Option<Taint> = None;
        for (_, taint) in self.roots(range, env) {
            if best.as_ref().is_none_or(|b| taint.cross && !b.cross) {
                best = Some(taint);
            }
        }
        best
    }

    /// The tainted chain roots of `range`, by token index. Skipped, as
    /// public whatever they were computed from: the arguments of
    /// declassification calls (`ctx.reveal(&pred)`, `R::decode_matrix(&z)`)
    /// and of resolved calls whose result does not derive from their
    /// arguments (`latest(&out.parts)`), and whole chains cut by a
    /// declassification or metadata read (`ctx.mul(&a, &b).reveal()`).
    fn roots(&self, (a, b): (usize, usize), env: &Env) -> Vec<(usize, Taint)> {
        let t = &self.f.toks;
        let mut out = Vec::new();
        let mut k = a;
        while k < b.min(t.len()) {
            let site = self.sites.get(&k);
            let skip_args = (t[k].kind == TokKind::Ident && is_declassify(&t[k].text) && tok_is(t, k + 1, "("))
                || site.is_some_and(|s| !self.summaries[s.callee].passes_args);
            let next = match (is_base_ident(t, k) || site.is_some()).then(|| self.chain(k, env)) {
                Some(Err(end)) => end,
                Some(Ok(Some(taint))) => {
                    out.push((k, taint));
                    k + 1
                }
                _ => k + 1,
            };
            k = if skip_args && next == k + 1 { skip_balanced(t, k + 1, "(", ")") } else { next };
        }
        out
    }

    /// Initial bindings: secret-typed params as taint roots — and, to
    /// `probe` whether arguments reach the return value, every other
    /// named param as well.
    fn seeds(&self, probe: bool) -> Env {
        let d = self.def;
        let mut env = Env::new();
        for p in d.params.iter().filter(|p| !p.name.is_empty()) {
            if p.ty.iter().any(|ty| self.secrets.contains(ty)) {
                let note = format!("secret parameter `{}` of `{}`", p.name, d.name);
                env.insert(p.name.clone(), self.root(d.line, note));
            } else if probe {
                env.insert(p.name.clone(), Taint { cross: false, src: Vec::new() });
            }
        }
        env
    }

    /// `let`-binding propagation over the body from `env`, iterated until
    /// stable (flow-insensitive: handles helper-before-use orderings).
    fn propagate(&self, mut env: Env) -> Env {
        let Some((open, end)) = self.def.body else { return env };
        let t = &self.f.toks;
        // Flow-insensitive within the body: re-scan until no binding gains
        // taint (handles helper-before-use orderings).
        for _ in 0..4 {
            let before = env.len();
            for j in open + 1..end.saturating_sub(1) {
                if t[j].text != "let" {
                    continue;
                }
                let l = parse_let(t, j, end);
                let line = t[j].line;
                let declared = l.ty.and_then(|(a, b)| t[a..b].iter().find(|x| self.secrets.contains(&x.text)));
                let flows = |taint: Taint, name: &str| taint.step(self.evidence(line, format!("flows into `{name}`")));
                let mut bound: Vec<(&str, Taint)> = Vec::new();
                if let [name] = &l.names[..] {
                    let taint = match declared {
                        Some(_) => Some(self.root(line, format!("`{name}` declared with secret type"))),
                        None => l.rhs.and_then(|rhs| self.expr_taint(rhs, &env)).map(|taint| flows(taint, name)),
                    };
                    bound.extend(taint.map(|taint| (name.as_str(), taint)));
                } else if let (Some(elems), Some(site)) = (&l.elems, l.rhs.and_then(|rhs| self.value_call(rhs))) {
                    // `let (a, b) = f(..)`: a position is secret iff that
                    // element of `f`'s declared return type is.
                    let callee = &self.table.fns[site.callee];
                    for (name, ty) in elems.iter().zip(element_types(&callee.ret, elems.len())) {
                        let Some(name) = name else { continue };
                        if ty.iter().any(|x| self.secrets.contains(x)) {
                            let note = format!("secret-returning call `{}(..)`", callee.name);
                            bound.extend(self.returned(site, site.name_tok, note).map(|taint| (name.as_str(), flows(taint, name))));
                        }
                    }
                }
                for (name, taint) in bound {
                    env.entry(name.to_string()).or_insert(taint);
                }
            }
            if env.len() == before {
                break;
            }
        }
        env
    }

    /// The function's environment: secret-typed params, propagated.
    fn compute_env(&self) -> Env {
        self.propagate(self.seeds(false))
    }

    /// The token ranges of the returned expressions: each `return`'s, then
    /// the tail.
    fn return_ranges(&self) -> Vec<(usize, usize)> {
        let d = self.def;
        let t = &self.f.toks;
        let Some((open, end)) = d.body else { return Vec::new() };
        let mut out: Vec<(usize, usize)> = (open + 1..end.saturating_sub(1))
            .filter(|&j| t[j].text == "return" && t[j].kind == TokKind::Ident)
            .map(|j| (j + 1, expr_end(t, j + 1, end, false)))
            .collect();
        if !d.ret.is_empty() {
            // The tail expression: tokens after the last top-level `;` or
            // statement-level `}` (a trailing loop/block is a statement,
            // not part of the tail — without the `}` reset, a final
            // `for .. { secret }` loop would smear its body into the tail).
            let mut depth = 0i64;
            let mut tail = open + 1;
            for (k, tok) in t.iter().enumerate().take(end - 1).skip(open + 1) {
                match tok.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            tail = k + 1;
                        }
                    }
                    ";" if depth == 0 => tail = k + 1,
                    _ => {}
                }
            }
            out.push((tail, end - 1));
        }
        out
    }

    /// Taint of the returned value, as its evidence chain.
    fn return_taint(&self, env: &Env) -> Option<Vec<Evidence>> {
        let t = &self.f.toks;
        self.return_ranges().into_iter().find_map(|(a, b)| {
            let taint = self.expr_taint((a, b), env)?;
            let line = t[a.min(t.len() - 1)].line;
            Some(taint.step(self.evidence(line, format!("returned from `{}`", self.def.name))).src)
        })
    }

    /// Whether a caller's arguments may flow into this function's public
    /// result: some parameter reaches a returned expression, or the
    /// returned value is built where the token scan cannot follow (filled
    /// through `&mut`, say) — only a return that names the parameters and
    /// cuts each at a metadata read or declassification is independent of
    /// them (`parts[0].ready.max(parts[1].ready)`).
    fn passes_args(&self) -> bool {
        let t = &self.f.toks;
        let probe = self.propagate(self.seeds(true));
        let ranges = self.return_ranges();
        let names_params = ranges
            .iter()
            .any(|&(a, b)| (a..b).any(|k| is_base_ident(t, k) && probe.contains_key(&t[k].text)));
        !names_params || ranges.iter().any(|&r| self.expr_taint(r, &probe).is_some())
    }

    /// Summary extraction: declared/inferred secret returns, whether
    /// arguments flow into the result, and param-to-sink flows (direct and
    /// through calls).
    fn compute_summary(&self, env: &Env) -> FnSummary {
        let d = self.def;
        let t = &self.f.toks;
        let mut out = FnSummary::default();
        if is_declassify(&d.name) {
            // Declassification points return public values by definition.
            return out;
        }
        if let Some(ty) = d.ret.iter().find(|ty| self.secrets.contains(ty)) {
            out.returns_secret = true;
            out.ret_src = vec![self.evidence(d.line, format!("`{}` returns secret type `{ty}`", d.name))];
        } else if let Some(src) = self.return_taint(env) {
            out.returns_secret = true;
            out.ret_src = src;
        } else {
            out.passes_args = self.passes_args();
        }
        let Some((open, end)) = d.body else { return out };

        // Param-to-sink flows. Secret-typed params are excluded: their
        // flow is reported here, where it reaches the sink.
        let param_idx: BTreeMap<&str, usize> = d
            .params
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.name.is_empty() && !p.ty.iter().any(|ty| self.secrets.contains(ty)))
            .map(|(i, p)| (p.name.as_str(), i))
            .collect();
        if param_idx.is_empty() {
            return out;
        }
        let probe: Env = param_idx.keys().map(|&p| (p.to_string(), Taint { cross: false, src: Vec::new() })).collect();
        let mut leak = |pi: usize, line: u32, note: String| {
            out.leak_params.entry(pi).or_insert_with(|| vec![self.evidence(line, note)]);
        };
        for_each_sink(self.f, open, end, |sink_name, args: (usize, usize), line| {
            // Inline captures format the whole value; an argument chain
            // leaks unless it ends clean.
            let captured = (args.0..args.1).filter(|&k| t[k].kind == TokKind::Str);
            let names = captured.flat_map(|k| inline_format_idents(&t[k].text));
            let chained = self.roots(args, &probe).into_iter().map(|(k, _)| t[k].text.clone());
            for name in names.chain(chained) {
                if let Some(&pi) = param_idx.get(name.as_str()) {
                    leak(pi, line, format!("parameter `{name}` of `{}` reaches `{sink_name}`", d.name));
                }
            }
        });
        // Transitive: passing a param onward to a callee that leaks it.
        for site in self.sites.values() {
            let callee = &self.summaries[site.callee];
            if callee.leak_params.is_empty() {
                continue;
            }
            let args = CallGraph::arg_ranges(t, site.args_open);
            for (&ci, chain) in &callee.leak_params {
                let Some(arg) = site.param_arg(t, &args, ci) else { continue };
                for (k, _) in self.roots(arg, &probe) {
                    if let Some(&pi) = param_idx.get(t[k].text.as_str()) {
                        out.leak_params.entry(pi).or_insert_with(|| {
                            let note = format!(
                                "parameter `{}` of `{}` passed to `{}`",
                                t[k].text, d.name, self.table.fns[site.callee].name
                            );
                            let mut ev = vec![self.evidence(site.line, note)];
                            ev.extend(chain.iter().take(MAX_EVIDENCE - 1).cloned());
                            ev
                        });
                    }
                }
            }
        }
        out
    }

    /// The sink finding for `what` (a binding or secret type name) whose
    /// `taint` reaches `sink` on `line`.
    fn sink_finding(&self, what: &str, taint: Taint, sink: &str, line: u32) -> Finding {
        let (rule, message) = if taint.cross {
            (
                RuleId::SecretCrossFunctionLeak,
                format!(
                    "`{what}` carries secret material across a function boundary into `{sink}`; declassify ({}) or format metadata only",
                    DECLASSIFY_CALLS.join("/"),
                ),
            )
        } else {
            (
                RuleId::SecretFormatLeak,
                format!(
                    "`{what}` (secret) reaches `{sink}`; format only metadata accessors ({}) or declassify ({})",
                    METADATA_ACCESSORS.join("/"),
                    DECLASSIFY_CALLS.join("/"),
                ),
            )
        };
        let f = self.f;
        let mut fin = Finding::new(rule, &f.path, line, message, f.line_text(line));
        fin.evidence = taint.step(self.evidence(line, format!("reaches `{sink}` here"))).src;
        fin
    }

    /// Final reporting pass for one function.
    fn report(&self, env: &Env, findings: &mut Vec<Finding>) {
        let Some((open, end)) = self.def.body else { return };
        let f = self.f;
        let t = &f.toks;

        // (a) taint reaching a sink in this function — as an explicit
        // argument chain, a secret type named in the arguments, or an
        // inline `{name}` capture.
        for_each_sink(f, open, end, |sink, args, _line| {
            let mut hits: Vec<(u32, String, Taint)> = Vec::new();
            for x in t[args.0..args.1].iter().filter(|x| x.kind == TokKind::Str) {
                for name in inline_format_idents(&x.text) {
                    if let Some(taint) = env.get(&name) {
                        hits.push((x.line, name, taint.clone()));
                    }
                }
            }
            // A secret type named in the arguments counts as a secret
            // value, even in turbofish or path position
            // (`size_of::<SharePair<R>>()`), unless its chain ends clean:
            // protocol code has no business naming secrets in a sink.
            let mut named = env.clone();
            for k in (args.0..args.1).filter(|&k| is_base_ident(t, k) && self.secrets.contains(&t[k].text)) {
                let name = &t[k].text;
                let root = self.root(t[k].line, format!("secret type `{name}` named in `{sink}`"));
                named.entry(name.clone()).or_insert(root);
            }
            hits.extend(self.roots(args, &named).into_iter().map(|(k, taint)| (t[k].line, t[k].text.clone(), taint)));
            for (line, name, taint) in hits {
                if !f.is_test_line(line) {
                    findings.push(self.sink_finding(&name, taint, sink, line));
                }
            }
        });

        // (b) secret arguments handed to a callee that leaks that parameter.
        for site in self.sites.values() {
            if f.is_test_line(site.line) {
                continue;
            }
            let callee_sum = &self.summaries[site.callee];
            if callee_sum.leak_params.is_empty() {
                continue;
            }
            let args = CallGraph::arg_ranges(t, site.args_open);
            for (&ci, chain) in &callee_sum.leak_params {
                let Some((a, b)) = site.param_arg(t, &args, ci) else { continue };
                let Some(taint) = self.expr_taint((a, b), env) else { continue };
                let callee = &self.table.fns[site.callee];
                let (callee_name, param) = (&callee.name, &callee.params[ci].name);
                let mut fin = Finding::new(
                    RuleId::SecretCrossFunctionLeak,
                    &f.path,
                    site.line,
                    format!("secret value passed to `{callee_name}`, which formats its parameter `{param}`"),
                    f.line_text(site.line),
                );
                let mut ev = taint.src;
                ev.push(self.evidence(site.line, format!("passed to `{callee_name}`")));
                ev.extend(chain.iter().cloned());
                ev.truncate(MAX_EVIDENCE + 2);
                fin.evidence = ev;
                findings.push(fin);
            }
        }
    }
}

/// Identifiers captured inline by a format string (`"{name}"`,
/// `"{name:?}"`). Escaped `{{` braces and positional/numbered args are
/// skipped. The lexer hides string contents from the token stream, so the
/// sink scans must dig these out of the literal text themselves — modern
/// format strings capture by name more often than they pass arguments.
fn inline_format_idents(s: &str) -> Vec<String> {
    let b = s.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'{' {
            if i + 1 < b.len() && b[i + 1] == b'{' {
                i += 2;
                continue;
            }
            let mut j = i + 1;
            while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
                j += 1;
            }
            if j > i + 1
                && j < b.len()
                && (b[j] == b'}' || b[j] == b':')
                && !b[i + 1].is_ascii_digit()
            {
                out.push(String::from_utf8_lossy(&b[i + 1..j]).into_owned());
            }
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

/// Invokes `visit(sink_name, arg_range, line)` for every format-macro and
/// `TraceSink` call in the body range.
fn for_each_sink(
    f: &SourceFile,
    open: usize,
    end: usize,
    mut visit: impl FnMut(&str, (usize, usize), u32),
) {
    let t = &f.toks;
    let mut i = open + 1;
    while i + 1 < end {
        let is_format_macro = t[i].kind == TokKind::Ident
            && FORMAT_MACROS.contains(&t[i].text.as_str())
            && tok_is(t, i + 1, "!")
            && tok_is(t, i + 2, "(");
        let is_trace_sink = t[i].text == "TraceSink"
            && tok_is(t, i + 1, ":")
            && tok_is(t, i + 2, ":")
            && is_ident(t, i + 3)
            && tok_is(t, i + 4, "(");
        let args_open = if is_format_macro {
            i + 2
        } else if is_trace_sink {
            i + 4
        } else {
            i += 1;
            continue;
        };
        let close = skip_balanced(t, args_open, "(", ")");
        visit(&t[i].text, (args_open + 1, close.saturating_sub(1)), t[i].line);
        i = close;
    }
}
