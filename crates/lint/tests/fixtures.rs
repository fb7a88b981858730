//! Golden fixture corpus: every rule has a fixture seeding exactly its
//! violation, plus `clean.rs` which must scan clean. Each fixture declares
//! its identity and expectations in `//@` directives:
//!
//! ```text
//! //@ crate: <name>               crate the file pretends to live in
//! //@ module: <path>              module path the rules key on
//! //@ context: lib|bin|test|bench|example
//! //@ crate-root                  also run the crate-root policy rule
//! //@ expect: <rule-id>@<line>    one expected finding (repeatable)
//! ```
//!
//! The test asserts the *exact* multiset of `(rule, line)` findings — a
//! fixture violation detected by a different rule, at a different line,
//! or accompanied by extra findings is a failure.

use psml_lint::{rules, Context, RuleId, SourceFile};
use std::path::{Path, PathBuf};

struct Fixture {
    name: String,
    crate_name: String,
    module: String,
    context: Context,
    crate_root: bool,
    expect: Vec<(RuleId, u32)>,
    text: String,
}

fn parse_fixture(path: &Path) -> Fixture {
    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    let text = std::fs::read_to_string(path).unwrap();
    let mut crate_name = None;
    let mut module = None;
    let mut context = None;
    let mut crate_root = false;
    let mut expect = Vec::new();
    for line in text.lines() {
        let Some(directive) = line.strip_prefix("//@ ") else {
            continue;
        };
        if let Some(v) = directive.strip_prefix("crate: ") {
            crate_name = Some(v.trim().to_string());
        } else if let Some(v) = directive.strip_prefix("module: ") {
            module = Some(v.trim().to_string());
        } else if let Some(v) = directive.strip_prefix("context: ") {
            context = Some(match v.trim() {
                "lib" => Context::Lib,
                "bin" => Context::Bin,
                "test" => Context::Test,
                "bench" => Context::Bench,
                "example" => Context::Example,
                other => panic!("{name}: unknown context `{other}`"),
            });
        } else if directive.trim() == "crate-root" {
            crate_root = true;
        } else if let Some(v) = directive.strip_prefix("expect: ") {
            let (rule, line) = v
                .trim()
                .split_once('@')
                .unwrap_or_else(|| panic!("{name}: malformed expect `{v}`"));
            let rule = RuleId::from_id(rule)
                .unwrap_or_else(|| panic!("{name}: unknown rule id `{rule}`"));
            expect.push((rule, line.parse().unwrap()));
        } else {
            panic!("{name}: unknown directive `{directive}`");
        }
    }
    Fixture {
        crate_name: crate_name.unwrap_or_else(|| panic!("{name}: missing //@ crate:")),
        module: module.unwrap_or_else(|| panic!("{name}: missing //@ module:")),
        context: context.unwrap_or_else(|| panic!("{name}: missing //@ context:")),
        crate_root,
        expect,
        text,
        name,
    }
}

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn run_fixture(fx: &Fixture) -> Vec<(RuleId, u32)> {
    // The full pipeline: per-file rules plus symbol table, call graph,
    // taint, timing, and concurrency — fixtures for the inter-procedural
    // families need the whole stack, and running every fixture through it
    // also proves the new passes add no stray findings to the old corpus.
    let mut findings = psml_lint::lint_str(
        &fx.name,
        &fx.crate_name,
        &fx.module,
        fx.context,
        &fx.text,
    );
    if fx.crate_root {
        let f = SourceFile::parse(&fx.name, &fx.crate_name, &fx.module, fx.context, &fx.text);
        findings.extend(rules::crate_policy(&f));
    }
    let mut got: Vec<(RuleId, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    got.sort();
    got
}

#[test]
fn every_fixture_matches_its_expectations_exactly() {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(fixtures_dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    entries.sort();
    assert!(
        entries.len() > RuleId::ALL.len(),
        "expected one fixture per rule plus clean.rs, found {}",
        entries.len()
    );
    for path in &entries {
        let fx = parse_fixture(path);
        let got = run_fixture(&fx);
        let mut want = fx.expect.clone();
        want.sort();
        assert_eq!(
            got,
            want,
            "{}: findings (left) do not match //@ expect directives (right)",
            fx.name
        );
    }
}

#[test]
fn corpus_covers_every_rule() {
    let mut covered = std::collections::BTreeSet::new();
    for entry in std::fs::read_dir(fixtures_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "rs") {
            for (rule, _) in parse_fixture(&path).expect {
                covered.insert(rule.id());
            }
        }
    }
    for rule in RuleId::ALL {
        assert!(
            covered.contains(rule.id()),
            "no fixture seeds a `{}` violation",
            rule.id()
        );
    }
}

#[test]
fn clean_fixture_exists_and_is_clean() {
    let fx = parse_fixture(&fixtures_dir().join("clean.rs"));
    assert!(fx.expect.is_empty(), "clean.rs must expect no findings");
    assert_eq!(run_fixture(&fx), Vec::new());
}
