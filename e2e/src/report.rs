//! The result document: `run` builds it from child trials, `check`
//! validates one against `BENCHMARK.json`, `compare` sets two side by side.

use crate::metrics::{Better, EndToEnd, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, spread};
use crate::trial::{tail_layers, write_file, Trial};
use crate::workload::out_dir;
use psml_trace::json::{obj, parse, JsonValue};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

pub const SCHEMA: &str = "psml.bench.e2e.v1";
const TRIALS: usize = 3;

/// What `BENCHMARK.json` declares, as far as this program reads it.
pub struct Declared {
    pub workloads: Vec<String>,
    /// `(name, unit)` of each declared metric.
    pub end_to_end: Vec<(String, String)>,
    pub per_layer: Vec<(String, String)>,
}

impl Declared {
    /// Reads `BENCHMARK.json` from the working directory (the checkout root).
    pub fn load() -> Result<Declared, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        let doc = parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str, field: &str| -> Result<Vec<(String, String)>, String> {
            let items = doc
                .get(key)
                .and_then(|v| v.as_array())
                .ok_or_else(|| format!("BENCHMARK.json lacks '{key}'"))?;
            items
                .iter()
                .map(|m| {
                    let get = |k: &str| m.get(k).and_then(|v| v.as_str()).map(str::to_string);
                    Some((get("name")?, get(field)?))
                })
                .collect::<Option<_>>()
                .ok_or_else(|| format!("BENCHMARK.json '{key}' entries need 'name' and '{field}'"))
        };
        Ok(Declared {
            workloads: list("workloads", "why")?.into_iter().map(|w| w.0).collect(),
            end_to_end: list("end_to_end", "unit")?,
            per_layer: list("per_layer", "unit")?,
        })
    }
}

// ---------------------------------------------------------------------
// run
// ---------------------------------------------------------------------

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn header(seed: u32, smoke: bool, trials: usize) -> JsonValue {
    let caps = psml_tensor::host_caps();
    obj([
        ("seed", JsonValue::UInt(seed as u64)),
        ("smoke", JsonValue::Bool(smoke)),
        ("trials", JsonValue::UInt(trials as u64)),
        (
            "nproc",
            JsonValue::UInt(psml_parallel::default_workers() as u64),
        ),
        (
            "host_workers",
            JsonValue::UInt(psml_parallel::configured_workers() as u64),
        ),
        (
            "host_caps",
            obj([
                ("quant_ring", JsonValue::Bool(caps.quant_ring)),
                ("f16c", JsonValue::Bool(caps.f16c)),
                ("avx2", JsonValue::Bool(caps.avx2)),
            ]),
        ),
        (
            "quant_ring_available",
            JsonValue::Bool(psml_tensor::quant_ring_available()),
        ),
        (
            "rustc",
            JsonValue::Str(command_line("rustc", &["--version"])),
        ),
        (
            "commit",
            JsonValue::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// Runs one trial in a fresh child process and reads its record back.
fn child_trial(
    workload: &str,
    seed: u32,
    trace: bool,
    smoke: bool,
    nth: usize,
) -> Result<Trial, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let detail = out_dir().join(format!("trial.{workload}.{nth}.json"));
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        "0",
    ])
    .args(["--trace", if trace { "1" } else { "0" }])
    .arg("--detail")
    .arg(&detail)
    .stdout(Stdio::null());
    if smoke {
        cmd.arg("--smoke");
    }
    let status = cmd.status().map_err(|e| format!("start trial: {e}"))?;
    if !status.success() {
        return Err(format!("trial {workload}#{nth} exited with {status}"));
    }
    let text =
        std::fs::read_to_string(&detail).map_err(|e| format!("{}: {e}", detail.display()))?;
    let _ = std::fs::remove_file(&detail);
    Trial::from_json(&parse(&text).map_err(|e| e.to_string())?)
}

fn workload_record(info_why: &str, trials: &[Trial], traced: &Trial) -> JsonValue {
    let name = &trials[0].workload;
    // Simulated times and counts are functions of the seed alone; trials
    // that disagree on them (or on the output digest) did not run the
    // same computation, and none of their ops count as correct.
    let identical = trials
        .iter()
        .all(|t| t.ledger == trials[0].ledger && t.digest == trials[0].digest);
    let mut checks: Vec<(String, JsonValue)> = Vec::new();
    for t in trials.iter().chain([traced]) {
        for (check, ok) in &t.checks {
            match checks.iter_mut().find(|c| &c.0 == check) {
                Some(c) => c.1 = JsonValue::Bool(c.1 == JsonValue::Bool(true) && *ok),
                None => checks.push((check.clone(), JsonValue::Bool(*ok))),
            }
        }
    }
    checks.push(("trials_bit_identical".into(), JsonValue::Bool(identical)));
    let traced_ok = traced.checks.iter().all(|c| c.1);
    let attempted: u64 = trials.iter().map(|t| t.ops_attempted).sum();
    let failed: u64 = if identical && traced_ok {
        trials.iter().map(|t| t.ops_failed).sum()
    } else {
        attempted
    };

    let failed_ratio = failed as f64 / attempted.max(1) as f64;

    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            let per_trial: Vec<f64> = if m.name == "ops_failed_ratio" {
                vec![failed_ratio]
            } else {
                trials.iter().filter_map(|t| t.end_to_end(m.name)).collect()
            };
            obj([
                ("name", JsonValue::Str(m.name.into())),
                ("clock", JsonValue::Str(m.clock.name().into())),
                ("unit", JsonValue::Str(m.unit.into())),
                ("better", JsonValue::Str(m.better.name().into())),
                ("bound", JsonValue::Float(m.bound)),
                ("value", JsonValue::Float(median(&per_trial))),
                ("spread", JsonValue::Float(spread(&per_trial))),
            ])
        })
        .collect();

    // The traced trial's layers, with the per-op samples pooled across the
    // untraced trials for percentiles.
    let pooled: Vec<f64> = trials
        .iter()
        .flat_map(|t| t.op_ms.iter().copied())
        .collect();
    let mut layers = traced.layers.clone().unwrap_or_default();
    tail_layers(&pooled, &mut layers);
    layers.insert("ops_failed_ratio", failed_ratio);
    let per_layer = PER_LAYER
        .iter()
        .map(|&(metric, unit, better)| {
            let value = layers.get(metric).copied().unwrap_or(0.0);
            obj([
                ("name", JsonValue::Str(metric.into())),
                ("unit", JsonValue::Str(unit.into())),
                ("better", JsonValue::Str(better.name().into())),
                ("value", JsonValue::Float(value)),
            ])
        })
        .collect();

    obj([
        ("name", JsonValue::Str(name.clone())),
        ("why", JsonValue::Str(info_why.into())),
        ("trials", JsonValue::UInt(trials.len() as u64)),
        ("ops_attempted", JsonValue::UInt(attempted)),
        ("ops_failed", JsonValue::UInt(failed)),
        (
            "digest",
            JsonValue::Str(format!("{:016x}", trials[0].digest)),
        ),
        ("checks", JsonValue::Object(checks)),
        ("end_to_end", JsonValue::Array(end_to_end)),
        ("per_layer", JsonValue::Array(per_layer)),
    ])
}

/// `e2e run`: every workload in fresh child processes, then the document.
pub fn run(seed: u32, smoke: bool, out: Option<PathBuf>) -> Result<(), String> {
    let trials = if smoke { 1 } else { TRIALS };
    let traced = WORKLOADS
        .iter()
        .map(|w| child_trial(w.name, seed, true, smoke, trials))
        .collect::<Result<Vec<_>, _>>()?;
    let mut untraced: Vec<Vec<Trial>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    if !smoke {
        // Trial n of every workload before trial n+1 of any: a slow phase
        // of the host then lands on one trial of each, not on all of one.
        for nth in 0..trials {
            for (w, done) in WORKLOADS.iter().zip(&mut untraced) {
                done.push(child_trial(w.name, seed, false, smoke, nth)?);
            }
        }
    }
    let records = WORKLOADS
        .iter()
        .zip(&traced)
        .zip(&untraced)
        .map(|((w, traced), untraced)| {
            // A smoke run's one child serves as both: its timed section
            // ran before any tracing or replay started.
            let trials = if smoke {
                std::slice::from_ref(traced)
            } else {
                untraced
            };
            workload_record(w.why, trials, traced)
        })
        .collect();
    let doc = obj([
        ("schema", JsonValue::Str(SCHEMA.into())),
        ("header", header(seed, smoke, trials)),
        ("workloads", JsonValue::Array(records)),
    ]);
    print_document(&doc);
    // A smoke run never lands on the real result file.
    let path = if smoke {
        out_dir().join("smoke.json")
    } else {
        out.unwrap_or_else(|| out_dir().join("result.json"))
    };
    write_file(&path, &format!("{}\n", doc.to_json()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    let failed: u64 = workloads(&doc)
        .iter()
        .filter_map(|w| w.get("ops_failed")?.as_u64())
        .sum();
    if failed > 0 {
        return Err(format!("{failed} ops failed their output checks"));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// reading documents
// ---------------------------------------------------------------------

fn workloads(doc: &JsonValue) -> &[JsonValue] {
    doc.get("workloads")
        .and_then(|w| w.as_array())
        .unwrap_or(&[])
}

fn named<'a>(items: &'a JsonValue, key: &str, name: &str) -> Option<&'a JsonValue> {
    items
        .get(key)?
        .as_array()?
        .iter()
        .find(|m| m.get("name").and_then(|n| n.as_str()) == Some(name))
}

fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(|s| s.as_str()).unwrap_or("")
}

fn number(v: &JsonValue, key: &str) -> f64 {
    v.get(key).and_then(|x| x.as_f64()).unwrap_or(f64::NAN)
}

pub fn load_document(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("schema").and_then(|s| s.as_str()) != Some(SCHEMA) {
        return Err(format!("{}: not a {SCHEMA} document", path.display()));
    }
    Ok(doc)
}

fn print_document(doc: &JsonValue) {
    if let Some(JsonValue::Object(pairs)) = doc.get("header") {
        let line: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("{}", line.join(" "));
    }
    for w in workloads(doc) {
        println!();
        println!(
            "{}: ops_attempted {} ops_failed {} trials {}",
            text(w, "name"),
            number(w, "ops_attempted"),
            number(w, "ops_failed"),
            number(w, "trials")
        );
        for m in w
            .get("end_to_end")
            .and_then(|m| m.as_array())
            .unwrap_or(&[])
        {
            println!(
                "  {:<28} {:>16.6} {:<8} [{}] spread {:.3}",
                text(m, "name"),
                number(m, "value"),
                text(m, "unit"),
                text(m, "clock"),
                number(m, "spread")
            );
        }
        for m in w.get("per_layer").and_then(|m| m.as_array()).unwrap_or(&[]) {
            println!(
                "    {:<38} {:>16.6} {}",
                text(m, "name"),
                number(m, "value"),
                text(m, "unit")
            );
        }
    }
}

// ---------------------------------------------------------------------
// check
// ---------------------------------------------------------------------

/// Problems found validating a result document against `BENCHMARK.json`.
pub fn check(doc: &JsonValue, declared: &Declared) -> Vec<String> {
    let mut problems = Vec::new();
    for name in &declared.workloads {
        let Some(w) = workloads(doc).iter().find(|w| text(w, "name") == name) else {
            problems.push(format!("workload '{name}' is declared but missing"));
            continue;
        };
        if w.get("ops_attempted").and_then(|n| n.as_u64()).unwrap_or(0) == 0
            || w.get("ops_failed").and_then(|n| n.as_u64()).is_none()
        {
            problems.push(format!("{name}: ops_attempted / ops_failed not set"));
        }
        for (key, metrics) in [
            ("end_to_end", &declared.end_to_end),
            ("per_layer", &declared.per_layer),
        ] {
            for (metric, unit) in metrics {
                match named(w, key, metric) {
                    None => problems.push(format!(
                        "{name}: {key} metric '{metric}' is declared but missing"
                    )),
                    Some(m) => {
                        if text(m, "unit") != unit {
                            problems.push(format!(
                                "{name}: '{metric}' has unit '{}', declared '{unit}'",
                                text(m, "unit")
                            ));
                        }
                        if !number(m, "value").is_finite() {
                            problems.push(format!("{name}: '{metric}' has no value"));
                        }
                        if key == "end_to_end" && text(m, "clock").is_empty() {
                            problems.push(format!("{name}: '{metric}' names no clock"));
                        }
                    }
                }
            }
        }
        let shares: f64 = w
            .get("per_layer")
            .and_then(|m| m.as_array())
            .unwrap_or(&[])
            .iter()
            .filter(|m| text(m, "name").ends_with(".share"))
            .map(|m| number(m, "value"))
            .sum();
        if (shares - 1.0).abs() > 0.01 {
            problems.push(format!(
                "{name}: layer shares plus unattributed.share sum to {shares:.4}, not 1"
            ));
        }
    }
    problems
}

// ---------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------

/// By what share of the baseline `b` is worse than `a` (negative: better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if delta == 0.0 {
        0.0
    } else if a == 0.0 {
        delta.signum() * f64::INFINITY
    } else {
        delta / a.abs()
    }
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Regressed,
    Improved,
    Unchanged,
    /// Within the bound, but the trials of one side lie further apart
    /// than the bound: the runs cannot tell.
    Unresolved,
}

pub fn verdict(m: &EndToEnd, a: f64, b: f64, spread_a: f64, spread_b: f64) -> Verdict {
    let worse = worse_by(m.better, a, b);
    if worse > m.bound {
        Verdict::Regressed
    } else if spread_a.max(spread_b) > m.bound {
        Verdict::Unresolved
    } else if worse < -m.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Prints one row per workload x metric; returns how many regressed.
pub fn compare(a: &JsonValue, b: &JsonValue) -> usize {
    let mut regressed = 0;
    println!(
        "{:<18} {:<24} {:>16} {:>16} {:>12} {:>9} {:>9}  verdict",
        "workload", "metric", "A", "B", "B/A", "spread A", "spread B"
    );
    for wa in workloads(a) {
        let name = text(wa, "name");
        let Some(wb) = workloads(b).iter().find(|w| text(w, "name") == name) else {
            println!("{name:<18} missing from B");
            regressed += 1;
            continue;
        };
        for m in &END_TO_END {
            let (Some(ma), Some(mb)) = (
                named(wa, "end_to_end", m.name),
                named(wb, "end_to_end", m.name),
            ) else {
                println!("{name:<18} {:<24} missing", m.name);
                regressed += 1;
                continue;
            };
            let (va, vb) = (number(ma, "value"), number(mb, "value"));
            let (sa, sb) = (number(ma, "spread"), number(mb, "spread"));
            let v = verdict(m, va, vb, sa, sb);
            regressed += usize::from(v == Verdict::Regressed);
            let ratio = if va == vb { 1.0 } else { vb / va };
            println!(
                "{name:<18} {:<24} {va:>16.6} {vb:>16.6} {ratio:>10.4}xA {sa:>9.3} {sb:>9.3}  {}",
                m.name,
                match v {
                    Verdict::Regressed => format!("REGRESSED (bound {})", m.bound),
                    Verdict::Improved => "improved".into(),
                    Verdict::Unchanged => "unchanged".into(),
                    Verdict::Unresolved => format!("unresolved (spread > bound {})", m.bound),
                }
            );
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Clock;

    const LOWER: EndToEnd = EndToEnd {
        name: "ms",
        clock: Clock::Wall,
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER: EndToEnd = EndToEnd {
        name: "ops",
        clock: Clock::Wall,
        unit: "op/s",
        better: Better::Higher,
        bound: 0.10,
    };
    const EXACT: EndToEnd = EndToEnd {
        name: "bytes",
        clock: Clock::Count,
        unit: "B",
        better: Better::Lower,
        bound: 0.0,
    };

    #[test]
    fn worse_direction_depends_on_the_metric() {
        assert!((worse_by(Better::Lower, 100.0, 120.0) - 0.2).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 100.0, 80.0) + 0.2).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 120.0) + 0.2).abs() < 1e-12);
        assert_eq!(worse_by(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worse_by(Better::Lower, 0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn verdicts() {
        assert_eq!(verdict(&LOWER, 100.0, 111.0, 0.0, 0.0), Verdict::Regressed);
        assert_eq!(verdict(&LOWER, 100.0, 109.0, 0.0, 0.0), Verdict::Unchanged);
        assert_eq!(verdict(&LOWER, 100.0, 80.0, 0.0, 0.0), Verdict::Improved);
        assert_eq!(verdict(&HIGHER, 100.0, 89.0, 0.0, 0.0), Verdict::Regressed);
        assert_eq!(verdict(&HIGHER, 100.0, 111.0, 0.0, 0.0), Verdict::Improved);
        // Within the bound, but one side's trials are too far apart.
        assert_eq!(
            verdict(&LOWER, 100.0, 105.0, 0.02, 0.15),
            Verdict::Unresolved
        );
        // A bound of 0 means equal: any worsening regresses.
        assert_eq!(
            verdict(&EXACT, 1000.0, 1000.0, 0.0, 0.0),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&EXACT, 1000.0, 1001.0, 0.0, 0.0),
            Verdict::Regressed
        );
        assert_eq!(verdict(&EXACT, 1000.0, 999.0, 0.0, 0.0), Verdict::Improved);
    }

    fn trial(op_ms: Vec<f64>, layers: bool) -> Trial {
        let mut l = crate::replay::Layers::new();
        l.insert("tensor.gemm.share", 0.25);
        l.insert("unattributed.share", 0.75);
        Trial {
            workload: "train_mlp_fresh".into(),
            seed: 7,
            setup_s: 0.5,
            setup_reps: 3,
            timed_s: op_ms.iter().sum::<f64>() / 1e3,
            ops_attempted: op_ms.len() as u64,
            op_ms,
            ops_failed: 0,
            ledger: crate::workload::Ledger {
                sim_s_per_op: 0.008847,
                wire_bytes_per_op: 56033482.0,
                ..Default::default()
            },
            peak_rss_mb: 123.5,
            digest: 0xDEAD_BEEF_0123_4567,
            checks: vec![("losses_finite".into(), true)],
            layers: layers.then_some(l),
        }
    }

    #[test]
    fn trial_record_round_trips_through_the_shared_json() {
        let t = trial(vec![300.0, 310.25, 305.5], true);
        let back = Trial::from_json(&parse(&t.to_json().to_json()).unwrap()).unwrap();
        assert_eq!(back.op_ms, t.op_ms);
        assert_eq!(back.ledger, t.ledger);
        assert_eq!(back.digest, t.digest);
        assert_eq!(back.checks, t.checks);
        assert_eq!(back.layers, t.layers);
        assert_eq!(back.end_to_end("wall_ms_per_op_p50"), Some(305.5));
    }

    #[test]
    fn document_checks_against_its_declaration() {
        let trials = [
            trial(vec![300.0, 310.0], false),
            trial(vec![302.0, 308.0], false),
        ];
        let record = workload_record("why", &trials, &trial(vec![301.0], true));
        let doc = obj([
            ("schema", JsonValue::Str(SCHEMA.into())),
            ("workloads", JsonValue::Array(vec![record])),
        ]);
        let mut declared = Declared {
            workloads: vec!["train_mlp_fresh".into()],
            end_to_end: vec![
                ("setup_s".into(), "s".into()),
                ("wire_bytes_per_op".into(), "B".into()),
            ],
            per_layer: vec![("tensor.gemm.share".into(), "ratio".into())],
        };
        assert_eq!(check(&doc, &declared), Vec::<String>::new());
        // Pooled percentiles come from the untraced trials' samples.
        let w = &workloads(&doc)[0];
        assert_eq!(
            number(
                named(w, "per_layer", "core.trainer.samples").unwrap(),
                "value"
            ),
            4.0
        );
        assert_eq!(
            number(
                named(w, "end_to_end", "wall_ms_per_op_p50").unwrap(),
                "value"
            ),
            305.0
        );
        declared.end_to_end.push(("setup_s".into(), "ms".into()));
        declared.workloads.push("nope".into());
        let problems = check(&doc, &declared);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert_eq!(compare(&doc, &doc), 0);
    }
}
