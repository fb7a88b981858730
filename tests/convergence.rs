//! End-to-end learning: secure training must actually fit learnable data,
//! not just execute.

use parsecureml::prelude::*;
use psml_parallel::Mt19937;

/// Linearly separable data: y = 1 iff w* . x > threshold.
fn separable(rows: usize, features: usize, seed: u32) -> (PlainMatrix, PlainMatrix) {
    let mut rng = Mt19937::new(seed);
    let w_star: Vec<f64> = (0..features).map(|_| rng.next_f64() - 0.5).collect();
    let x = PlainMatrix::from_fn(rows, features, |_, _| rng.next_f64() - 0.5);
    let y = PlainMatrix::from_fn(rows, 1, |r, _| {
        let score: f64 = x.row(r).iter().zip(&w_star).map(|(a, b)| a * b).sum();
        if score > 0.0 {
            1.0
        } else {
            0.0
        }
    });
    (x, y)
}

#[test]
fn secure_linear_regression_fits_a_linear_target() {
    let spec = ModelSpec::build(ModelKind::Linear, 32, None, 10).unwrap();
    let mut trainer =
        SecureTrainer::<Fixed64>::new(EngineConfig::parsecureml(), spec, 3).unwrap();
    let mut rng = Mt19937::new(11);
    let x = PlainMatrix::from_fn(24, 32, |_, _| rng.next_f64());
    let y = PlainMatrix::from_fn(24, 1, |r, _| x.row(r).iter().sum::<f64>() / 32.0);
    let first = trainer.train_batch(&x, &y).unwrap();
    let mut last = first;
    for _ in 0..15 {
        last = trainer.train_batch(&x, &y).unwrap();
    }
    assert!(
        last < first * 0.5,
        "loss barely moved: {first} -> {last}"
    );
}

#[test]
fn secure_logistic_regression_separates_classes() {
    let spec = ModelSpec::build(ModelKind::Logistic, 16, None, 10).unwrap();
    let mut trainer =
        SecureTrainer::<Fixed64>::new(EngineConfig::parsecureml(), spec, 5).unwrap();
    let (x, y) = separable(32, 16, 21);
    for _ in 0..25 {
        trainer.train_batch(&x, &y).unwrap();
    }
    let pred = trainer
        .infer_request(&InferRequest::new(x.clone()))
        .unwrap()
        .output;
    let acc = trainer.accuracy(&pred, &y);
    assert!(acc >= 0.75, "logistic accuracy {acc} too low");
}

#[test]
fn secure_svm_separates_classes() {
    let spec = ModelSpec::build(ModelKind::Svm, 16, None, 10).unwrap();
    let mut trainer =
        SecureTrainer::<Fixed64>::new(EngineConfig::parsecureml(), spec, 7).unwrap();
    let (x, y01) = separable(32, 16, 23);
    let y = y01.map(|v| if v > 0.5 { 1.0 } else { -1.0 });
    for _ in 0..25 {
        trainer.train_batch(&x, &y).unwrap();
    }
    let pred = trainer
        .infer_request(&InferRequest::new(x.clone()))
        .unwrap()
        .output;
    let acc = trainer.accuracy(&pred, &y);
    assert!(acc >= 0.75, "SVM accuracy {acc} too low");
}

#[test]
fn secure_mlp_fits_onehot_targets() {
    let spec = ModelSpec::build(ModelKind::Mlp, 16, None, 4).unwrap();
    let mut trainer = SecureTrainer::<Fixed64>::new(
        EngineConfig {
            learning_rate: 0.2,
            ..EngineConfig::parsecureml()
        },
        spec,
        9,
    )
    .unwrap();
    let mut rng = Mt19937::new(31);
    let x = PlainMatrix::from_fn(16, 16, |_, _| rng.next_f64());
    let y = PlainMatrix::from_fn(16, 4, |r, c| if c == r % 4 { 1.0 } else { 0.0 });
    let first = trainer.train_batch(&x, &y).unwrap();
    let mut last = first;
    for _ in 0..20 {
        last = trainer.train_batch(&x, &y).unwrap();
    }
    assert!(last < first, "MLP loss did not improve: {first} -> {last}");
}

#[test]
fn dataset_driven_training_converges_via_train_epochs() {
    let spec = ModelSpec::build(ModelKind::Linear, 2048, None, 10).unwrap();
    // High-dimensional linear regression needs a learning rate scaled to
    // the feature count to stay stable.
    let cfg = EngineConfig {
        learning_rate: 5e-4,
        ..EngineConfig::parsecureml()
    };
    let mut trainer = SecureTrainer::<Fixed64>::new(cfg, spec, 13).unwrap();
    let result = trainer
        .train_epochs(DatasetKind::Synthetic, 8, 1, 6, 17)
        .unwrap();
    assert_eq!(result.losses.len(), 6);
    let first = result.losses[0];
    let last = *result.losses.last().unwrap();
    assert!(
        last <= first,
        "epoch losses did not improve: {:?}",
        result.losses
    );
    assert!(result.report.secure_muls > 0);
}
