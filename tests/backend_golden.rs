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
//! fails here too. The third freezes one training step down each engine
//! path the first two never enter (Hadamard, local share maps,
//! client-aided activation, prefetch, GPU compute2, the unpipelined
//! expanded baseline, client GPU randomness) plus the trace vocabulary
//! the `e2e` profile reads.
//!
//! Regenerate (only for an *intentional* cost-model or numerics change,
//! with the why recorded in the commit):
//!
//! ```text
//! PSML_BLESS_GOLDEN=1 cargo test --test backend_golden
//! ```

use parsecureml::models::Loss;
use parsecureml::observe::traced;
use parsecureml::prelude::*;
use parsecureml::{chrome_trace_json, fnv64, weights_digest};
use psml_tensor::ConvShape;
use std::path::Path;

const REPORTS_GOLDEN: &str = "tests/golden/default_run_reports.txt";
const DIGEST_GOLDEN: &str = "tests/golden/train_mlp_synthetic_seed42_digest.txt";
const ENGINE_PATHS_GOLDEN: &str = "tests/golden/engine_path_reports.txt";

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
    let spec = synthetic_spec(ModelKind::Mlp);
    let mut trainer =
        SecureTrainer::<Fixed64>::new(EngineConfig::parsecureml(), spec, 42).unwrap();
    trainer
        .train_epochs(DatasetKind::Synthetic, 8, 1, 2, 42)
        .unwrap();
    let digest = weights_digest(&trainer.reveal_weights());
    check_golden(DIGEST_GOLDEN, &format!("{digest:016x}\n"), "trained weights digest");
}

/// The paper's architecture for `kind` on SYNTHETIC.
fn synthetic_spec(kind: ModelKind) -> ModelSpec {
    let data = DatasetKind::Synthetic.spec();
    ModelSpec::build(
        kind,
        data.features(),
        Some((data.channels, data.height, data.width)),
        data.classes,
    )
    .unwrap()
}

/// Conv 32x64 k5 f2 -> avgpool 2 -> dense: the one stack that runs
/// `im2col`, both pooling `map_local`s and `scale_public` in one step.
fn pooled_cnn_spec() -> ModelSpec {
    let data = DatasetKind::Synthetic.spec();
    let shape = ConvShape {
        channels: data.channels,
        height: data.height,
        width: data.width,
        kernel: 5,
        filters: 2,
    };
    let (grid_h, grid_w) = (data.height - 4, data.width - 4);
    let spec = ModelSpec {
        kind: ModelKind::Cnn,
        layers: vec![
            LayerSpec::Conv2D {
                shape,
                activation: Activation::Relu,
            },
            LayerSpec::AvgPool2D {
                channels: 2,
                grid_h,
                grid_w,
                window: 2,
            },
            LayerSpec::Dense {
                inputs: 2 * (grid_h / 2) * (grid_w / 2),
                outputs: data.classes,
                activation: Activation::None,
            },
        ],
        loss: Loss::Mse,
        outputs: data.classes,
    };
    spec.validate().unwrap();
    spec
}

/// One `train_batch` on SYNTHETIC batch 0 (4 samples, seed 42).
fn one_step(cfg: EngineConfig, spec: ModelSpec) -> SecureTrainer<Fixed64> {
    let mut trainer = SecureTrainer::<Fixed64>::new(cfg, spec, 42).unwrap();
    let data = batch(DatasetKind::Synthetic, 4, 0, 42);
    let y = trainer.targets_for(&data);
    trainer.train_batch(&data.x, &y).unwrap();
    trainer
}

/// Absolute pins for the engine paths `secure_matmul_plain` never enters.
/// The relative identity suites (prefetch on ≡ off, batched ≡ sequential)
/// pass a change that shifts both sides; this does not.
#[test]
fn engine_path_reports_are_unchanged() {
    let p = EngineConfig::parsecureml;
    // A client CPU too slow to win the Fig. 7 decision at any size: every
    // offline draw moves to the client GPU.
    let mut slow_client_rng = p();
    slow_client_rng.machine.cpu.rng_samples_per_core = 1.0;
    let mut out = String::new();
    for (name, cfg, spec) in [
        ("svm", p(), synthetic_spec(ModelKind::Svm)),
        ("cnn_pooled", p(), pooled_cnn_spec()),
        (
            "mlp_client_aided_activation",
            p().with_client_aided_activation(true),
            synthetic_spec(ModelKind::Mlp),
        ),
        ("mlp_prefetch", p().with_prefetch(true), synthetic_spec(ModelKind::Mlp)),
        (
            "mlp_force_gpu",
            p().with_policy(AdaptivePolicy::ForceGpu),
            synthetic_spec(ModelKind::Mlp),
        ),
        (
            "logistic_secureml",
            EngineConfig::secureml(),
            synthetic_spec(ModelKind::Logistic),
        ),
        // Serial client: the triple products move to the client GPU.
        (
            "mlp_unoptimized",
            EngineConfig::parsecureml_unoptimized(),
            synthetic_spec(ModelKind::Mlp),
        ),
        ("mlp_client_gpu_rng", slow_client_rng, synthetic_spec(ModelKind::Mlp)),
    ] {
        let trainer = one_step(cfg, spec);
        out.push_str(&format!(
            "{name}\n{:?}\nweights_digest {:016x}\n",
            trainer.report(),
            weights_digest(&trainer.reveal_weights())
        ));
    }
    // Span names, order, tracks and byte counts of one traced MLP step.
    let (_, events) = traced(|| one_step(p(), synthetic_spec(ModelKind::Mlp)));
    out.push_str(&format!(
        "mlp_chrome_trace_fnv64 {:016x} ({} events)\n",
        fnv64(chrome_trace_json(&events).as_bytes()),
        events.len()
    ));
    check_golden(ENGINE_PATHS_GOLDEN, &out, "engine-path RunReport");
}
