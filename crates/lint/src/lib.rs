#![forbid(unsafe_code)]
//! # psml-lint
//!
//! Dependency-free static analyzer for the ParSecureML workspace. The
//! protocol's correctness rests on invariants no compiler checks — secret
//! shares are only safe while masked, simulated time and MT19937 stream
//! derivation must stay bit-deterministic for prefetch/replay identity,
//! and the AVX kernel path leans on `unsafe` pointer casts. This crate
//! turns those invariants into a machine-enforced gate (wired into
//! `scripts/ci.sh` and a tier-1 integration test) instead of reviewer
//! vigilance.
//!
//! Six rule families (see [`findings::RuleId`] for the catalog):
//!
//! 1. **unsafe hygiene** — every `unsafe` carries a `SAFETY:` /
//!    `# Safety` justification, `unsafe` only in allowlisted modules,
//!    crate roots declare their unsafe policy attribute;
//! 2. **RNG discipline** — `Mt19937` minted only in sanctioned modules,
//!    fault RNG never referenced from protocol code;
//! 3. **secrecy** — registered secret types (plus `#[doc = "psml-secret"]`
//!    marked ones) never derive `Debug`, are hand-Debug'd only in the
//!    redaction modules, and never reach format macros or trace sinks —
//!    including across function boundaries, via the inter-procedural
//!    taint pass ([`taint`]);
//! 4. **timing** — online-path control flow and memory access never
//!    depend on secret-derived values ([`timing`]);
//! 5. **concurrency** — one global lock-acquisition order, no blocking
//!    channel `recv` under a lock ([`concurrency`]);
//! 6. **determinism** — no wall-clock types and no `HashMap` iteration in
//!    protocol-path modules.
//!
//! The analyzer is a hand-rolled lexer ([`lexer`]), token-pattern rules
//! ([`rules`]), and a workspace symbol table + call graph ([`symbols`],
//! [`callgraph`]) feeding the dataflow passes — no `syn`, no `serde`, no
//! dependencies at all, so it builds and runs even when the crates it
//! scans do not. Findings are emitted as human diagnostics and as a
//! versioned `psml.lint.v2` JSON document that `psml validate` accepts.

pub mod callgraph;
pub mod concurrency;
pub mod config;
pub mod findings;
pub mod json;
pub mod lexer;
#[cfg(test)]
mod proptests;
pub mod rules;
pub mod source;
pub mod symbols;
pub mod taint;
pub mod timing;
pub mod workspace;

pub use findings::{Evidence, Finding, Report, RuleId};
pub use rules::SecretRegistry;
pub use source::{Context, SourceFile};
pub use workspace::{lint_sources, lint_workspace};

/// Lints a single in-memory file under the given identity with the
/// per-file rules only — v1 semantics, kept as the regression baseline
/// that the cross-function fixture provably escapes.
pub fn lint_str(
    path: &str,
    crate_name: &str,
    module: &str,
    context: Context,
    text: &str,
) -> Vec<Finding> {
    let f = SourceFile::parse(path, crate_name, module, context, text);
    let mut secrets = SecretRegistry::default();
    secrets.collect(&f);
    rules::lint_file(&f, &secrets)
}

/// Lints a single in-memory file through the *full* pipeline — per-file
/// rules plus symbol table, call graph, taint, timing, and concurrency —
/// the fixture tests' entry point for the inter-procedural families.
pub fn lint_str_full(
    path: &str,
    crate_name: &str,
    module: &str,
    context: Context,
    text: &str,
) -> Vec<Finding> {
    let f = SourceFile::parse(path, crate_name, module, context, text);
    let report = lint_sources(std::path::Path::new("."), vec![f]);
    report.findings
}
