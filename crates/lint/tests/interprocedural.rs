//! Regression pin for the cross-function half of the secret-flow pass:
//! the seeded fixture mints its secret two calls away from the sink, so
//! no single function both holds a secret type and formats it. The pass
//! must report it as a cross-function leak whose evidence walks the call
//! path back to the type.

use psml_lint::{lint_str, Context, RuleId};
use std::path::Path;

fn fixture_text() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("cross_function_leak.rs");
    std::fs::read_to_string(path).unwrap()
}

#[test]
fn full_pipeline_catches_the_cross_function_leak_with_evidence() {
    let findings = lint_str(
        "cross_function_leak.rs",
        "core",
        "core::serve",
        Context::Lib,
        &fixture_text(),
    );
    let leaks: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == RuleId::SecretCrossFunctionLeak)
        .collect();
    assert_eq!(
        leaks.len(),
        1,
        "expected exactly one cross-function leak, got {:?}",
        findings
            .iter()
            .map(|f| (f.rule.id(), f.line))
            .collect::<Vec<_>>()
    );
    let leak = leaks[0];
    // The evidence chain must walk the actual call path back to the type.
    assert!(
        leak.evidence.len() >= 3,
        "evidence chain too short: {:?}",
        leak.evidence
    );
    assert!(
        leak.evidence.iter().any(|e| e.note.contains("LimbVec")),
        "evidence never names the secret type: {:?}",
        leak.evidence
    );
    assert!(
        !leak.fingerprint.is_empty(),
        "finding must carry a stable fingerprint"
    );
}
