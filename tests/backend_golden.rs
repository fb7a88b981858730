//! Golden pins: default-configuration runs must keep producing
//! byte-identical `RunReport`s and bit-identical trained weights across
//! compute-layer refactors.
//!
//! Every committed experiment/report in this repository was produced by
//! the simulator's kernels. The first test freezes the full `Debug`
//! rendering of the reports from a fixed protocol workload under each
//! preset; any change to kernel routing, profiler charging, or timeline
//! scheduling that perturbs a default-config report — even by one
//! simulated nanosecond — fails here. The second freezes the weights
//! digest of a short training run, so any change to ring-product bits
//! fails here too.
//!
//! Regenerate (only for an *intentional* cost-model or numerics change,
//! with the why recorded in the commit):
//!
//! ```text
//! PSML_BLESS_GOLDEN=1 cargo test --test backend_golden
//! ```

use parsecureml::prelude::*;
use std::path::Path;

const REPORTS_GOLDEN: &str = "tests/golden/default_run_reports.txt";
const DIGEST_GOLDEN: &str = "tests/golden/train_mlp_synthetic_seed42_digest.txt";

/// The pinned workload: two secure matmuls per preset — one small shape
/// the adaptive engine keeps on the CPU, one large enough to offload —
/// so both placements, the pipeline, and compression all appear in the
/// report. Shapes and seed are part of the pin; do not change them.
fn reports() -> String {
    let mut out = String::new();
    for (name, cfg) in [
        ("parsecureml", EngineConfig::parsecureml()),
        ("parsecureml_unoptimized", EngineConfig::parsecureml_unoptimized()),
        ("secureml", EngineConfig::secureml()),
    ] {
        let mut ctx = SecureContext::<Fixed64>::new(cfg, 42);
        let a_small = PlainMatrix::from_fn(12, 16, |r, c| ((r * 7 + c) % 11) as f64 * 0.25 - 1.0);
        let b_small = PlainMatrix::from_fn(16, 8, |r, c| ((r + 3 * c) % 13) as f64 * 0.125 - 0.75);
        let _ = ctx.secure_matmul_plain(&a_small, &b_small).unwrap();
        let a_big = PlainMatrix::from_fn(96, 128, |r, c| ((r * 31 + c * 17) % 23) as f64 * 0.0625);
        let b_big = PlainMatrix::from_fn(128, 64, |r, c| ((r * 13 + c * 29) % 19) as f64 * 0.03125);
        let _ = ctx.secure_matmul_plain(&a_big, &b_big).unwrap();
        out.push_str(name);
        out.push('\n');
        out.push_str(&format!("{:?}\n", ctx.report()));
    }
    out
}

/// Compares `produced` with the committed golden at `rel` (or rewrites
/// it under `PSML_BLESS_GOLDEN`).
fn check_golden(rel: &str, produced: &str, what: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    if std::env::var_os("PSML_BLESS_GOLDEN").is_some() {
        std::fs::write(&path, produced).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing; run with PSML_BLESS_GOLDEN=1 to create it");
    assert_eq!(produced, golden, "{what} drifted from the committed golden {rel}");
}

#[test]
fn default_config_run_reports_are_unchanged() {
    check_golden(REPORTS_GOLDEN, &reports(), "default-config RunReport");
}

/// The run `psml train --model mlp --dataset synthetic --batch 8
/// --batches 1 --epochs 2 --seed 42` performs (ci.sh compares the
/// three-process TCP session against the same digest).
#[test]
fn trained_weights_digest_is_unchanged() {
    let data = DatasetKind::Synthetic.spec();
    let spec = ModelSpec::build(
        ModelKind::Mlp,
        data.features(),
        Some((data.channels, data.height, data.width)),
        data.classes,
    )
    .unwrap();
    let mut trainer =
        SecureTrainer::<Fixed64>::new(EngineConfig::parsecureml(), spec, 42).unwrap();
    trainer
        .train_epochs(DatasetKind::Synthetic, 8, 1, 2, 42)
        .unwrap();
    let digest = parsecureml::weights_digest(&trainer.reveal_weights());
    check_golden(DIGEST_GOLDEN, &format!("{digest:016x}\n"), "trained weights digest");
}
