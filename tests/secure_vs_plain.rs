//! Cross-crate integration: the secure three-party trainer must compute
//! the same mathematics as the plaintext reference model, for every
//! benchmark network.

use parsecureml::baseline::{PlainBackend, PlainModel};
use parsecureml::prelude::*;
use psml_parallel::Mt19937;

mod common;

const SEED: u32 = 77;

fn small_spec(kind: ModelKind) -> ModelSpec {
    match kind {
        ModelKind::Cnn => ModelSpec::build(kind, 100, Some((1, 10, 10)), 10).unwrap(),
        _ => ModelSpec::build(kind, 64, None, 10).unwrap(),
    }
}

fn batch_for(spec: &ModelSpec, rows: usize) -> PlainMatrix {
    let mut rng = Mt19937::new(5);
    PlainMatrix::from_fn(rows, spec.input_features(), |_, _| rng.next_f64())
}

#[test]
fn initial_inference_matches_plain_for_every_model() {
    for kind in ModelKind::ALL {
        let spec = small_spec(kind);
        let mut plain = PlainModel::new(
            EngineConfig::parsecureml(),
            spec.clone(),
            PlainBackend::Cpu,
            SEED,
        )
        .unwrap();
        let mut secure =
            SecureTrainer::<Fixed64>::new(EngineConfig::parsecureml(), spec.clone(), SEED)
                .unwrap();
        let x = batch_for(&spec, 6);
        let plain_out = plain.infer_batch(&x).unwrap();
        let secure_out = secure
            .infer_request(&InferRequest::new(x.clone()))
            .unwrap()
            .output;
        let diff = plain_out.max_abs_diff(&secure_out);
        assert!(
            diff < 2e-2,
            "{kind:?}: secure/plain inference diverged by {diff}"
        );
    }
}

#[test]
fn training_trajectories_stay_close_for_linear_models() {
    // Fixed-point noise accumulates over steps; linear models keep the
    // comparison tight.
    for kind in [ModelKind::Linear, ModelKind::Logistic, ModelKind::Svm] {
        let spec = small_spec(kind);
        let mut plain = PlainModel::new(
            EngineConfig::parsecureml(),
            spec.clone(),
            PlainBackend::Cpu,
            SEED,
        )
        .unwrap();
        let mut secure =
            SecureTrainer::<Fixed64>::new(EngineConfig::parsecureml(), spec.clone(), SEED)
                .unwrap();
        let x = batch_for(&spec, 8);
        let y = PlainMatrix::from_fn(8, 1, |r, _| if r % 2 == 0 { 1.0 } else { 0.0 });
        let y = if spec.loss == parsecureml::models::Loss::Hinge {
            y.map(|v| if v > 0.5 { 1.0 } else { -1.0 })
        } else {
            y
        };
        for step in 0..4 {
            let lp = plain.train_batch(&x, &y).unwrap();
            let ls = secure.train_batch(&x, &y).unwrap();
            assert!(
                (lp - ls).abs() < 0.05 + 0.1 * lp.abs(),
                "{kind:?} step {step}: plain loss {lp} vs secure loss {ls}"
            );
        }
        // Final weights agree too.
        let pw = plain.infer_batch(&x).unwrap();
        let sw = secure
            .infer_request(&InferRequest::new(x.clone()))
            .unwrap()
            .output;
        assert!(
            pw.max_abs_diff(&sw) < 5e-2,
            "{kind:?}: post-training inference diverged by {}",
            pw.max_abs_diff(&sw)
        );
    }
}

#[test]
fn deep_models_train_without_divergence() {
    for kind in [ModelKind::Cnn, ModelKind::Mlp, ModelKind::Rnn] {
        let spec = small_spec(kind);
        let mut secure =
            SecureTrainer::<Fixed64>::new(EngineConfig::parsecureml(), spec.clone(), SEED)
                .unwrap();
        let x = batch_for(&spec, 4);
        let y = PlainMatrix::from_fn(4, 10, |r, c| if c == r % 10 { 1.0 } else { 0.0 });
        let mut losses = Vec::new();
        for _ in 0..3 {
            losses.push(secure.train_batch(&x, &y).unwrap());
        }
        assert!(
            losses.iter().all(|l| l.is_finite() && *l >= 0.0),
            "{kind:?}: non-finite loss {losses:?}"
        );
    }
}

#[test]
fn exported_weights_transfer_between_trainers() {
    // Train one secure trainer, export, import into a fresh one: the two
    // must produce (nearly) identical inferences.
    let spec = small_spec(ModelKind::Logistic);
    let mut teacher =
        SecureTrainer::<Fixed64>::new(EngineConfig::parsecureml(), spec.clone(), SEED)
            .unwrap();
    let x = batch_for(&spec, 8);
    let y = PlainMatrix::from_fn(8, 1, |r, _| (r % 2) as f64);
    for _ in 0..5 {
        teacher.train_batch(&x, &y).unwrap();
    }
    let weights = teacher.reveal_weights();

    let mut student = SecureTrainer::<Fixed64>::new(
        EngineConfig::parsecureml(),
        spec.clone(),
        SEED + 100, // different randomness
    )
    .unwrap();
    student.import_weights(&weights).unwrap();
    let a = teacher
        .infer_request(&InferRequest::new(x.clone()))
        .unwrap()
        .output;
    let b = student
        .infer_request(&InferRequest::new(x.clone()))
        .unwrap()
        .output;
    assert!(
        a.max_abs_diff(&b) < 2e-3,
        "teacher/student inference diverged by {}",
        a.max_abs_diff(&b)
    );

    // Round-trip through the on-disk format too.
    let path = std::env::temp_dir().join("psml-export-test.bin");
    teacher.export_weights(&path).unwrap();
    let loaded = parsecureml::io::load_weights(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded[0][0], weights[0][0]);

    // Wrong-shape import is rejected.
    let wrong = vec![vec![PlainMatrix::zeros(3, 3)]];
    assert!(student.import_weights(&wrong).is_err());
}

/// A conv -> 2x2 average pool -> dense network on MNIST geometry: the
/// one layer mix the paper's CNN does not have.
fn pooled_cnn() -> ModelSpec {
    let shape = psml_tensor::ConvShape {
        channels: 1,
        height: 28,
        width: 28,
        kernel: 5,
        filters: 2,
    };
    let spec = ModelSpec {
        kind: ModelKind::Cnn,
        layers: vec![
            LayerSpec::Conv2D {
                shape,
                activation: Activation::Relu,
            },
            LayerSpec::AvgPool2D {
                channels: 2,
                grid_h: 24,
                grid_w: 24,
                window: 2,
            },
            LayerSpec::Dense {
                inputs: 2 * 12 * 12,
                outputs: 10,
                activation: Activation::None,
            },
        ],
        loss: parsecureml::models::Loss::Mse,
        outputs: 10,
    };
    spec.validate().unwrap();
    spec
}

/// The plaintext baseline's simulated clock, bit for bit: one line per
/// model and backend, the `elapsed()` bits after a two-batch `train` and
/// after one more `infer_batch`. `figures.txt` pins plain times only for
/// some models at reduced scale; this pins every layer kind's charges.
#[test]
fn plain_clock_is_unchanged() {
    let dataset = DatasetKind::Mnist;
    let mut specs: Vec<(String, ModelSpec)> = ModelKind::ALL
        .into_iter()
        .map(|kind| (kind.token().to_string(), ModelSpec::for_dataset(kind, dataset).unwrap()))
        .collect();
    specs.push(("pooled-cnn".to_string(), pooled_cnn()));
    let mut out = String::new();
    for (name, spec) in &specs {
        for backend in [PlainBackend::Cpu, PlainBackend::Gpu] {
            let mut plain =
                PlainModel::new(EngineConfig::parsecureml(), spec.clone(), backend, SEED).unwrap();
            plain.train(dataset, 8, 2, 3).unwrap();
            let trained = plain.elapsed().as_secs();
            let x = psml_data::batch(dataset, 5, 9, 3).x;
            plain.infer_batch(&x).unwrap();
            let inferred = plain.elapsed().as_secs();
            out.push_str(&format!(
                "{name} {backend:?} train={:016x} infer={:016x} ({trained:.9e} s, {inferred:.9e} s)\n",
                trained.to_bits(),
                inferred.to_bits()
            ));
        }
    }
    common::check_golden("tests/golden/plain_clock.txt", &out, "plaintext simulated clock");
}

/// The walk's entry checks are shared, so a bad input gets the same typed
/// error from the plaintext driver as from the secure one — never a
/// panic, a NaN loss or a model built on a NaN learning rate.
#[test]
fn both_drivers_refuse_bad_inputs_with_the_same_error() {
    fn refused<T>(r: Result<T, EngineError>) -> EngineError {
        match r {
            Ok(_) => panic!("bad input accepted"),
            Err(e) => e,
        }
    }
    let spec = small_spec(ModelKind::Mlp);
    let cfg = EngineConfig::parsecureml;
    let plain = || PlainModel::new(cfg(), spec.clone(), PlainBackend::Cpu, SEED).unwrap();
    let secure = || SecureTrainer::<Fixed64>::new(cfg(), spec.clone(), SEED).unwrap();
    let nan_lr = || EngineConfig {
        learning_rate: f64::NAN,
        ..cfg()
    };
    let x = batch_for(&spec, 4);
    let narrow = PlainMatrix::zeros(4, 63);
    let y = PlainMatrix::zeros(4, 10);
    let wrong_y = PlainMatrix::zeros(4, 3);
    let synthetic = DatasetKind::Synthetic;
    let shape = |e: &EngineError| matches!(e, EngineError::Shape(_));
    let nan_rate = |e: &EngineError| {
        matches!(e, EngineError::Config(ConfigError::LearningRate(lr)) if lr.is_nan())
    };
    // (bad input, expected variant, plaintext run, secure run)
    type Run<'a> = Box<dyn Fn() -> EngineError + 'a>;
    type Case<'a> = (&'a str, fn(&EngineError) -> bool, Run<'a>, Run<'a>);
    let cases: Vec<Case> = vec![
        (
            "learning rate NaN",
            nan_rate,
            Box::new(|| refused(PlainModel::new(nan_lr(), spec.clone(), PlainBackend::Cpu, SEED))),
            Box::new(|| refused(SecureTrainer::<Fixed64>::new(nan_lr(), spec.clone(), SEED))),
        ),
        (
            "targets of the wrong shape",
            shape,
            Box::new(|| refused(plain().train_batch(&x, &wrong_y))),
            Box::new(|| refused(secure().train_batch(&x, &wrong_y))),
        ),
        (
            "inputs of the wrong width",
            shape,
            Box::new(|| refused(plain().train_batch(&narrow, &y))),
            Box::new(|| refused(secure().train_batch(&narrow, &y))),
        ),
        (
            "inference on inputs of the wrong width",
            shape,
            Box::new(|| refused(plain().infer_batch(&narrow))),
            Box::new(|| refused(secure().infer_request(&InferRequest::new(narrow.clone())))),
        ),
        (
            "a plan of empty batches",
            shape,
            Box::new(|| refused(plain().train(synthetic, 0, 1, 3))),
            Box::new(|| refused(secure().train(synthetic, 0, 1, 3))),
        ),
        (
            "a plan of no batches",
            shape,
            Box::new(|| refused(plain().train(synthetic, 4, 0, 3))),
            Box::new(|| refused(secure().train(synthetic, 4, 0, 3))),
        ),
    ];
    for (what, variant, plain_run, secure_run) in &cases {
        let (p, s) = (plain_run(), secure_run());
        assert!(variant(&p), "{what}: plaintext driver returned {p:?}");
        assert!(variant(&s), "{what}: secure driver returned {s:?}");
    }
}
