//! A lexed source file plus the workspace identity the rules key on.

use crate::lexer::{lex, Comment, Tok, TokKind};
use crate::tokens::{skip_balanced, tok_is};

/// How a file participates in the build — rules exempt non-production
/// contexts (tests may print secrets they made up; benches may read the
/// wall clock).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Context {
    /// Library code — every rule applies.
    Lib,
    /// Binary target (`src/bin/*`).
    Bin,
    /// Test code (`tests/`, `proptests.rs`).
    Test,
    /// Benchmark code (`benches/`, the `bench` harness crate).
    Bench,
    /// Example (`examples/`).
    Example,
}

impl Context {
    /// Whether the file is production (protocol-reachable) code.
    pub fn is_production(self) -> bool {
        matches!(self, Context::Lib | Context::Bin)
    }
}

/// One lexed file, addressable by its module path (e.g. `tensor::gemm`).
pub struct SourceFile {
    /// Root-relative display path.
    pub path: String,
    /// Owning crate (directory name under `crates/`, or `suite` for the
    /// workspace umbrella).
    pub crate_name: String,
    /// `crate::module` path derived from the file location; the crate root
    /// file is just the crate name.
    pub module: String,
    /// Build context.
    pub context: Context,
    /// Raw source lines (1-based access via [`SourceFile::line_text`]).
    pub lines: Vec<String>,
    /// Significant tokens.
    pub toks: Vec<Tok>,
    /// Stripped comments.
    pub comments: Vec<Comment>,
    /// Line ranges (inclusive) covered by `#[cfg(test)]` items.
    pub test_spans: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Lexes `text` under the given identity.
    pub fn parse(
        path: impl Into<String>,
        crate_name: impl Into<String>,
        module: impl Into<String>,
        context: Context,
        text: &str,
    ) -> Self {
        let lexed = lex(text);
        let mut f = SourceFile {
            path: path.into(),
            crate_name: crate_name.into(),
            module: module.into(),
            context,
            lines: text.lines().map(str::to_owned).collect(),
            toks: lexed.toks,
            comments: lexed.comments,
            test_spans: Vec::new(),
        };
        f.test_spans = find_test_spans(&f.toks);
        f
    }

    /// Raw text of 1-based `line` (empty for out-of-range).
    pub fn line_text(&self, line: u32) -> &str {
        self.lines
            .get(line as usize - 1)
            .map(String::as_str)
            .unwrap_or("")
    }

    /// Whether `line` is inside a `#[cfg(test)]` item or the whole file is
    /// test/bench/example context.
    pub fn is_test_line(&self, line: u32) -> bool {
        !self.context.is_production()
            || self
                .test_spans
                .iter()
                .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }
}

/// Finds line spans of items guarded by `#[cfg(test)]` (or `cfg(all(test,
/// ...))` etc. — any cfg predicate naming `test` without `not`).
fn find_test_spans(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "#" && tok_is(toks, i + 1, "[") {
            let j = skip_balanced(toks, i + 1, "[", "]");
            let idents: Vec<&str> = toks[i + 2..j]
                .iter()
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.as_str())
                .collect();
            let is_test_cfg = idents.contains(&"cfg")
                && idents.contains(&"test")
                && !idents.contains(&"not");
            if is_test_cfg {
                // Skip any further attributes, then span the item body:
                // the first `{ ... }` block, or up to `;` for a bodyless
                // item (`#[cfg(test)] mod tests;`).
                let mut k = j;
                while tok_is(toks, k, "#") && tok_is(toks, k + 1, "[") {
                    k = skip_balanced(toks, k + 1, "[", "]");
                }
                let start_line = toks[i].line;
                while k < toks.len() && toks[k].text != "{" && toks[k].text != ";" {
                    k += 1;
                }
                if tok_is(toks, k, "{") {
                    k = skip_balanced(toks, k, "{", "}");
                }
                let end_line = toks
                    .get(k.saturating_sub(1))
                    .or_else(|| toks.last())
                    .map(|t| t.line)
                    .unwrap_or(start_line);
                spans.push((start_line, end_line));
                i = k;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    spans
}

/// Matches a module path against an allowlist pattern: either an exact
/// path (`tensor::gemm`) or a crate-wide wildcard (`parallel::*`, which
/// also matches the crate root module `parallel`).
pub fn module_matches(module: &str, pattern: &str) -> bool {
    match pattern.strip_suffix("::*") {
        Some(prefix) => {
            module == prefix
                || (module.starts_with(prefix)
                    && module[prefix.len()..].starts_with("::"))
        }
        None => module == pattern,
    }
}

/// Whether `module` matches any pattern in `patterns`.
pub fn module_in(module: &str, patterns: &[&str]) -> bool {
    patterns.iter().any(|p| module_matches(module, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_spans_cover_cfg_test_mods() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn t() {}\n}\nfn after() {}\n";
        let f = SourceFile::parse("x.rs", "c", "c::x", Context::Lib, src);
        assert_eq!(f.test_spans, vec![(2, 5)]);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_span() {
        let src = "#[cfg(not(test))]\nmod live {\n  fn f() {}\n}\n";
        let f = SourceFile::parse("x.rs", "c", "c::x", Context::Lib, src);
        assert!(f.test_spans.is_empty());
    }

    #[test]
    fn cfg_all_test_counts() {
        let src = "#[cfg(all(test, feature = \"slow\"))]\nmod t {\n fn f() {}\n}\n";
        let f = SourceFile::parse("x.rs", "c", "c::x", Context::Lib, src);
        assert_eq!(f.test_spans, vec![(1, 4)]);
    }

    #[test]
    fn non_production_contexts_are_all_test() {
        let f = SourceFile::parse("b.rs", "c", "c::b", Context::Bench, "fn f() {}");
        assert!(f.is_test_line(1));
    }

    #[test]
    fn module_patterns() {
        assert!(module_matches("tensor::gemm", "tensor::gemm"));
        assert!(!module_matches("tensor::gemm2", "tensor::gemm"));
        assert!(module_matches("parallel", "parallel::*"));
        assert!(module_matches("parallel::pool", "parallel::*"));
        assert!(!module_matches("parallel2::pool", "parallel::*"));
        assert!(module_in("mpc::triple", &["datasets::*", "mpc::triple"]));
    }
}
