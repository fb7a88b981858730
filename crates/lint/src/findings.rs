//! Finding and report types, human rendering, and the versioned
//! `psml.lint.v2` JSON document (per-finding fingerprints and
//! inter-procedural evidence chains).

use crate::json::{obj, Json};
use std::collections::BTreeMap;

/// Every rule the analyzer enforces. The string id (`family.name`) is the
/// stable external identity — it appears in human diagnostics, the JSON
/// document, and fixture expectations.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum RuleId {
    /// `unsafe` block/impl/trait/fn without a `SAFETY:` / `# Safety`
    /// justification.
    UnsafeMissingSafety,
    /// `unsafe` outside the allowlisted modules.
    UnsafeOutsideAllowlist,
    /// Crate root missing its unsafe policy attribute
    /// (`forbid(unsafe_code)` or `deny(unsafe_op_in_unsafe_fn)`).
    UnsafeCratePolicy,
    /// `Mt19937` constructed outside the sanctioned modules.
    RngConstruction,
    /// Protocol code referencing the fault RNG / injector.
    FaultRngReference,
    /// `derive(Debug)` on a secret type.
    SecretDebugDerive,
    /// Hand-written `Debug`/`Display` for a secret type outside the
    /// redaction modules.
    SecretDebugImpl,
    /// Secret value reaching a format macro or trace sink.
    SecretFormatLeak,
    /// Secret value crossing a function boundary before reaching a
    /// format sink — the inter-procedural flow v1's file-granular taint
    /// cannot see. Carries the call chain as evidence.
    SecretCrossFunctionLeak,
    /// `if`/`while`/`match` or short-circuit operator conditioned on a
    /// secret-derived value in an online-path module.
    TimingBranchOnSecret,
    /// Array/slice index computed from a secret-derived value in an
    /// online-path module (data-dependent memory access).
    TimingSecretIndex,
    /// `psml-lint: allow(timing, ...)` suppression without a non-empty
    /// justification string.
    TimingAllowUnjustified,
    /// Two locks acquired in opposite orders on different code paths.
    ConcurrencyLockOrder,
    /// Blocking channel `recv()` while holding a lock guard.
    ConcurrencyRecvUnderLock,
    /// Wall-clock type in a determinism-critical module.
    WallClock,
    /// `HashMap` iteration in a determinism-critical module.
    HashMapIteration,
}

impl RuleId {
    /// All rules, in catalog order.
    pub const ALL: [RuleId; 16] = [
        RuleId::UnsafeMissingSafety,
        RuleId::UnsafeOutsideAllowlist,
        RuleId::UnsafeCratePolicy,
        RuleId::RngConstruction,
        RuleId::FaultRngReference,
        RuleId::SecretDebugDerive,
        RuleId::SecretDebugImpl,
        RuleId::SecretFormatLeak,
        RuleId::SecretCrossFunctionLeak,
        RuleId::TimingBranchOnSecret,
        RuleId::TimingSecretIndex,
        RuleId::TimingAllowUnjustified,
        RuleId::ConcurrencyLockOrder,
        RuleId::ConcurrencyRecvUnderLock,
        RuleId::WallClock,
        RuleId::HashMapIteration,
    ];

    /// All rule families, in catalog order.
    pub const FAMILIES: [&'static str; 6] =
        ["unsafe", "rng", "secrecy", "timing", "concurrency", "determinism"];

    /// Stable `family.name` identifier.
    pub fn id(self) -> &'static str {
        match self {
            RuleId::UnsafeMissingSafety => "unsafe.missing-safety-comment",
            RuleId::UnsafeOutsideAllowlist => "unsafe.module-not-allowlisted",
            RuleId::UnsafeCratePolicy => "unsafe.missing-crate-policy",
            RuleId::RngConstruction => "rng.construction-not-sanctioned",
            RuleId::FaultRngReference => "rng.fault-rng-reference",
            RuleId::SecretDebugDerive => "secrecy.debug-derive",
            RuleId::SecretDebugImpl => "secrecy.debug-impl-outside-redaction",
            RuleId::SecretFormatLeak => "secrecy.format-leak",
            RuleId::SecretCrossFunctionLeak => "secrecy.cross-function-leak",
            RuleId::TimingBranchOnSecret => "timing.branch-on-secret",
            RuleId::TimingSecretIndex => "timing.secret-index",
            RuleId::TimingAllowUnjustified => "timing.allow-unjustified",
            RuleId::ConcurrencyLockOrder => "concurrency.lock-order-inversion",
            RuleId::ConcurrencyRecvUnderLock => "concurrency.recv-under-lock",
            RuleId::WallClock => "determinism.wall-clock",
            RuleId::HashMapIteration => "determinism.hashmap-iteration",
        }
    }

    /// Rule family (one of [`RuleId::FAMILIES`]).
    pub fn family(self) -> &'static str {
        self.id().split('.').next().unwrap()
    }

    /// One-line description for the catalog.
    pub fn description(self) -> &'static str {
        match self {
            RuleId::UnsafeMissingSafety => {
                "every unsafe block/impl/trait/fn carries a SAFETY: or # Safety justification"
            }
            RuleId::UnsafeOutsideAllowlist => {
                "unsafe code is confined to the vetted kernel/pool/ring-carrier modules"
            }
            RuleId::UnsafeCratePolicy => {
                "crate roots declare forbid(unsafe_code), or deny(unsafe_op_in_unsafe_fn) where unsafe is allowlisted"
            }
            RuleId::RngConstruction => {
                "Mt19937 generators are minted only by provisioning/dataset/RNG-home modules"
            }
            RuleId::FaultRngReference => {
                "protocol code never touches the fault-injection RNG or injector"
            }
            RuleId::SecretDebugDerive => {
                "secret share types never derive Debug (a derive is never redacting)"
            }
            RuleId::SecretDebugImpl => {
                "manual Debug for secret types lives only in the redaction modules"
            }
            RuleId::SecretFormatLeak => {
                "secret values never reach format macros or trace sinks (metadata accessors exempt)"
            }
            RuleId::SecretCrossFunctionLeak => {
                "secrecy follows calls: values that cross a function boundary stay secret until declassified"
            }
            RuleId::TimingBranchOnSecret => {
                "online-path control flow never depends on secret-derived values (data-oblivious servers)"
            }
            RuleId::TimingSecretIndex => {
                "online-path memory access patterns never depend on secret-derived indices"
            }
            RuleId::TimingAllowUnjustified => {
                "every allow(timing) suppression carries a non-empty justification string"
            }
            RuleId::ConcurrencyLockOrder => {
                "locks shared between threads are acquired in one global order"
            }
            RuleId::ConcurrencyRecvUnderLock => {
                "no blocking channel recv while holding a lock guard"
            }
            RuleId::WallClock => {
                "protocol paths never read Instant/SystemTime (simulated time only)"
            }
            RuleId::HashMapIteration => {
                "protocol paths never iterate HashMaps (arbitrary order breaks replay identity)"
            }
        }
    }

    /// Parses a stable id back to the rule.
    pub fn from_id(s: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.id() == s)
    }
}

/// One step of an inter-procedural evidence chain: where taint entered,
/// each call it flowed through, and the sink it reached.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Evidence {
    /// Root-relative file path of this step.
    pub file: String,
    /// 1-based line of this step.
    pub line: u32,
    /// What happened at this step ("secret parameter `p`", "returned by
    /// `first_limb`", ...).
    pub note: String,
}

/// One violation.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Violated rule.
    pub rule: RuleId,
    /// Root-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human message with the specifics.
    pub message: String,
    /// Trimmed source text of the offending line, used for the stable
    /// fingerprint (empty when the source is unavailable, e.g. synthetic
    /// crate-policy findings).
    pub snippet: String,
    /// Inter-procedural provenance chain; empty for single-site rules.
    pub evidence: Vec<Evidence>,
    /// Stable content hash assigned by [`Report::sort`]: survives line
    /// drift from unrelated edits, so a future baseline file can track
    /// accepted findings across rebases.
    pub fingerprint: String,
}

impl Finding {
    /// A finding with no evidence chain; fingerprint assigned at report
    /// assembly.
    pub fn new(rule: RuleId, file: &str, line: u32, message: String, snippet: &str) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message,
            snippet: snippet.trim().to_string(),
            evidence: Vec::new(),
            fingerprint: String::new(),
        }
    }

    /// `file:line: [rule] message` diagnostic line, with the evidence
    /// chain indented beneath it.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.id(),
            self.message
        );
        for step in &self.evidence {
            out.push_str(&format!("\n    {}:{}: {}", step.file, step.line, step.note));
        }
        out
    }
}

/// 64-bit FNV-1a over the finding's stable content.
fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Full analyzer output for one workspace scan.
pub struct Report {
    /// Workspace root the scan ran over.
    pub root: String,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
}

impl Report {
    /// Sorts findings into the canonical (file, line, rule) order and
    /// assigns fingerprints. The hash covers rule + path + trimmed line
    /// text + same-content ordinal — not the line number — so a finding
    /// keeps its identity when unrelated edits shift it, yet duplicate
    /// occurrences of identical text stay distinct.
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
        });
        let mut ordinals: BTreeMap<String, u32> = BTreeMap::new();
        for f in &mut self.findings {
            let key = format!("{}|{}|{}", f.rule.id(), f.file, f.snippet);
            let ord = ordinals.entry(key.clone()).or_insert(0);
            f.fingerprint = format!("{:016x}", fnv1a64(&format!("{key}|{ord}")));
            *ord += 1;
        }
    }

    /// Findings grouped per family, in family order.
    pub fn by_family(&self) -> BTreeMap<&'static str, usize> {
        let mut map = BTreeMap::new();
        for f in &self.findings {
            *map.entry(f.rule.family()).or_insert(0) += 1;
        }
        map
    }

    /// Human-readable rendering: one line per finding plus a summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render());
            out.push('\n');
        }
        if self.findings.is_empty() {
            out.push_str(&format!(
                "psml-lint: {} files clean ({} rules)\n",
                self.files_scanned,
                RuleId::ALL.len()
            ));
        } else {
            let fam: Vec<String> = self
                .by_family()
                .into_iter()
                .map(|(k, v)| format!("{k}: {v}"))
                .collect();
            out.push_str(&format!(
                "psml-lint: {} finding(s) in {} files ({})\n",
                self.findings.len(),
                self.files_scanned,
                fam.join(", ")
            ));
        }
        out
    }

    /// The versioned `psml.lint.v2` document, with a `fingerprint` and
    /// `evidence` array on every finding.
    pub fn to_json(&self) -> String {
        let rules = RuleId::ALL
            .into_iter()
            .map(|r| {
                obj([
                    ("id", Json::Str(r.id().into())),
                    ("family", Json::Str(r.family().into())),
                    ("description", Json::Str(r.description().into())),
                ])
            })
            .collect();
        let findings = self
            .findings
            .iter()
            .map(|f| {
                let evidence = f
                    .evidence
                    .iter()
                    .map(|e| {
                        obj([
                            ("file", Json::Str(e.file.clone())),
                            ("line", Json::UInt(e.line as u64)),
                            ("note", Json::Str(e.note.clone())),
                        ])
                    })
                    .collect();
                obj([
                    ("rule", Json::Str(f.rule.id().into())),
                    ("file", Json::Str(f.file.clone())),
                    ("line", Json::UInt(f.line as u64)),
                    ("message", Json::Str(f.message.clone())),
                    ("fingerprint", Json::Str(f.fingerprint.clone())),
                    ("evidence", Json::Array(evidence)),
                ])
            })
            .collect();
        let by_family = self
            .by_family()
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::UInt(v as u64)))
            .collect();
        obj([
            ("schema", Json::Str("psml.lint.v2".into())),
            ("tool", Json::Str("psml-lint".into())),
            ("root", Json::Str(self.root.clone())),
            ("files_scanned", Json::UInt(self.files_scanned as u64)),
            ("rules", Json::Array(rules)),
            ("findings", Json::Array(findings)),
            (
                "summary",
                Json::Object(vec![
                    (
                        "total".to_string(),
                        Json::UInt(self.findings.len() as u64),
                    ),
                    ("clean".to_string(), Json::Bool(self.findings.is_empty())),
                    ("by_family".to_string(), Json::Object(by_family)),
                ]),
            ),
        ])
        .to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_families_partition() {
        let mut seen = std::collections::BTreeSet::new();
        for r in RuleId::ALL {
            assert!(seen.insert(r.id()), "duplicate id {}", r.id());
            assert!(
                RuleId::FAMILIES.contains(&r.family()),
                "unknown family {}",
                r.family()
            );
            assert_eq!(RuleId::from_id(r.id()), Some(r));
        }
        // Every declared family has at least one rule.
        for fam in RuleId::FAMILIES {
            assert!(
                RuleId::ALL.iter().any(|r| r.family() == fam),
                "empty family {fam}"
            );
        }
    }

    #[test]
    fn document_shape_is_stable() {
        let mut rep = Report {
            root: ".".into(),
            files_scanned: 2,
            findings: vec![Finding::new(
                RuleId::WallClock,
                "b.rs",
                3,
                "Instant".into(),
                "let t = Instant::now();",
            )],
        };
        rep.sort();
        let json = rep.to_json();
        assert!(json.starts_with("{\"schema\":\"psml.lint.v2\""));
        for key in [
            "\"tool\"",
            "\"files_scanned\"",
            "\"rules\"",
            "\"findings\"",
            "\"summary\"",
            "\"fingerprint\"",
            "\"evidence\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        assert!(json.contains("\"determinism\":1"));
    }

    #[test]
    fn fingerprints_survive_line_drift_but_separate_duplicates() {
        let mk = |line: u32, snippet: &str| {
            Finding::new(RuleId::WallClock, "a.rs", line, "m".into(), snippet)
        };
        let mut rep = Report {
            root: ".".into(),
            files_scanned: 1,
            findings: vec![mk(3, "Instant::now();"), mk(9, "Instant::now();")],
        };
        rep.sort();
        let fp_before: Vec<String> =
            rep.findings.iter().map(|f| f.fingerprint.clone()).collect();
        assert_ne!(fp_before[0], fp_before[1], "duplicates get distinct ordinals");

        // Shift both findings down four lines (an unrelated edit above):
        // the fingerprints are unchanged.
        let mut drifted = Report {
            root: ".".into(),
            files_scanned: 1,
            findings: vec![mk(7, "Instant::now();"), mk(13, "Instant::now();")],
        };
        drifted.sort();
        let fp_after: Vec<String> =
            drifted.findings.iter().map(|f| f.fingerprint.clone()).collect();
        assert_eq!(fp_before, fp_after);
    }

    #[test]
    fn evidence_chain_renders_indented() {
        let mut f = Finding::new(
            RuleId::SecretCrossFunctionLeak,
            "serve.rs",
            10,
            "limb leak".into(),
            "println!(\"{l}\");",
        );
        f.evidence.push(Evidence {
            file: "share.rs".into(),
            line: 4,
            note: "secret parameter `p`".into(),
        });
        let text = f.render();
        assert!(text.contains("[secrecy.cross-function-leak]"));
        assert!(text.contains("\n    share.rs:4: secret parameter `p`"));
    }
}
