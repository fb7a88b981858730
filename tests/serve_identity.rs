//! Tier-1 gate for the serving layer: cross-request micro-batching must
//! be invisible in every revealed value — window = W, window = 1, and a
//! raw sequential `infer_request` loop all produce bit-identical outputs
//! and identical secure-multiplication ledgers — and admission control
//! must reject typed, honoring the queue bound, never hanging.

use parsecureml::models::Loss;
use parsecureml::prelude::*;
use parsecureml::serve::fleet_arrivals;
use parsecureml::{outputs_digest, InferResponse, ModelHost, ServeReport};
use proptest::prelude::*;
use psml_tensor::ConvShape;

const SEED: u32 = 21;
const FLEET: usize = 8;
const REQUESTS: usize = 12;

/// The narrowest stack of each hosted kind over SYNTHETIC rows (the
/// geometry `fleet_arrivals` generates). Every property here is about
/// folding requests, not about model size, so the paper's layer sequence
/// stays (conv + ReLU + dense for the CNN, two ReLU layers and a linear
/// head for the MLP) and only the widths shrink.
fn small_spec(kind: ModelKind) -> ModelSpec {
    let s = DatasetKind::Synthetic.spec();
    let dense = |inputs, outputs, activation| LayerSpec::Dense {
        inputs,
        outputs,
        activation,
    };
    let layers = match kind {
        ModelKind::Mlp => vec![
            dense(s.features(), 4, Activation::Relu),
            dense(4, 3, Activation::Relu),
            dense(3, 2, Activation::None),
        ],
        ModelKind::Cnn => {
            let shape = ConvShape {
                channels: s.channels,
                height: s.height,
                width: s.width,
                kernel: 5,
                filters: 1,
            };
            vec![
                LayerSpec::Conv2D {
                    shape,
                    activation: Activation::Relu,
                },
                dense(shape.patches(), 3, Activation::Relu),
                dense(3, 2, Activation::None),
            ]
        }
        // One dense column already.
        _ => return ModelSpec::build(kind, s.features(), None, s.classes).unwrap(),
    };
    let spec = ModelSpec {
        kind,
        layers,
        loss: Loss::Mse,
        outputs: 2,
    };
    spec.validate().unwrap();
    spec
}

/// Runs the full arrival schedule for `kinds` through a `ModelHost` with
/// the given fold width. Returns tag-sorted responses plus the report.
fn serve_run(
    kinds: &[ModelKind],
    max_batch: usize,
    window_us: f64,
    seed: u32,
) -> (Vec<InferResponse>, ServeReport) {
    let cfg = ServeConfig::builder()
        .batch_window_micros(window_us)
        .max_batch(max_batch)
        .max_queue_depth(4096) // oversized: identity presumes no rejections
        .build()
        .unwrap();
    let mut host = ModelHost::<Fixed64>::new(cfg).unwrap();
    let ids: Vec<_> = kinds
        .iter()
        .map(|k| host.load(k.name(), small_spec(*k), seed).unwrap())
        .collect();
    let arrivals = fleet_arrivals(
        &ids,
        DatasetKind::Synthetic,
        FLEET,
        REQUESTS,
        SimDuration::from_micros(50.0),
        seed,
    );
    let outcome = host.run(arrivals).unwrap();
    assert!(
        outcome.rejections.is_empty(),
        "identity run must admit everything: {:?}",
        outcome.rejections
    );
    let mut responses = outcome.responses;
    responses.sort_by_key(|r| r.tag);
    (responses, host.report())
}

#[test]
fn micro_batched_serving_is_bit_identical_to_sequential() {
    for kinds in [
        vec![ModelKind::Mlp],
        vec![ModelKind::Cnn],
        vec![ModelKind::Logistic],
        // Multi-tenant: three models sharing one host registry.
        vec![ModelKind::Mlp, ModelKind::Cnn, ModelKind::Logistic],
    ] {
        let (batched, batched_report) = serve_run(&kinds, 8, 400.0, SEED);
        let (sequential, sequential_report) = serve_run(&kinds, 1, 400.0, SEED);
        assert_eq!(batched.len(), REQUESTS);
        assert_eq!(sequential.len(), REQUESTS);
        for (b, s) in batched.iter().zip(&sequential) {
            assert_eq!(b.tag, s.tag);
            assert_eq!(
                b.output, s.output,
                "{kinds:?}: tag {} diverged between window=8 and window=1",
                b.tag
            );
            assert_eq!(b.report.secure_muls, s.report.secure_muls);
        }
        assert_eq!(outputs_digest(&batched), outputs_digest(&sequential));
        // The triple ledgers agree per model, not just the outputs.
        for (b, s) in batched_report
            .per_model
            .iter()
            .zip(&sequential_report.per_model)
        {
            assert_eq!(b.secure_muls, s.secure_muls, "{}: ledger diverged", b.name);
            assert_eq!(b.requests, s.requests);
        }
        // Batching actually folded, for every hosted model: fewer windows
        // than requests.
        for m in &batched_report.per_model {
            assert!(
                m.windows < m.requests,
                "{}: expected folding ({} windows for {} requests)",
                m.name,
                m.windows,
                m.requests
            );
        }
        assert_eq!(sequential_report.windows, REQUESTS as u64);
    }
}

#[test]
fn serving_matches_a_raw_infer_request_loop() {
    for kind in [ModelKind::Mlp, ModelKind::Cnn, ModelKind::Logistic] {
        let (served, report) = serve_run(&[kind], 8, 400.0, SEED);
        // Replay the identical per-model admission order on a bare
        // trainer built from the host's engine config.
        let cfg = ServeConfig::builder().build().unwrap();
        let mut trainer =
            SecureTrainer::<Fixed64>::new(cfg.engine_for_host(), small_spec(kind), SEED)
                .unwrap();
        let ids = [parsecureml::ModelId::DIRECT];
        let mut arrivals = fleet_arrivals(
            &ids,
            DatasetKind::Synthetic,
            FLEET,
            REQUESTS,
            SimDuration::from_micros(50.0),
            SEED,
        );
        arrivals.sort_by_key(|a| a.0);
        let mut raw_muls = 0;
        // Execute in admission (arrival-time) order — that is what pins
        // the randomness stream — then compare tag-matched.
        let mut raw: Vec<_> = arrivals
            .iter()
            .map(|(_, req)| {
                let resp = trainer.infer_request(req).unwrap();
                raw_muls += resp.report.secure_muls;
                resp
            })
            .collect();
        raw.sort_by_key(|r| r.tag);
        for (resp, served) in raw.iter().zip(&served) {
            assert_eq!(resp.tag, served.tag);
            assert_eq!(
                resp.output, served.output,
                "{kind:?}: tag {} diverged between serving and direct calls",
                resp.tag
            );
        }
        assert_eq!(
            raw_muls, report.per_model[0].secure_muls,
            "{kind:?}: triple ledger diverged from the raw loop"
        );
    }
}

#[test]
fn overload_rejects_typed_and_honors_the_queue_bound() {
    let cfg = ServeConfig::builder()
        .batch_window_micros(1000.0)
        .max_batch(2)
        .max_queue_depth(4)
        .build()
        .unwrap();
    let mut host = ModelHost::<Fixed64>::new(cfg).unwrap();
    let id = host.load("mlp", small_spec(ModelKind::Mlp), SEED).unwrap();
    // A burst of 10 arrivals inside one batching window: the bound admits
    // 4, the other 6 must come back as typed `Overloaded` — immediately,
    // never as a hang or a panic.
    let arrivals: Vec<_> = (0..10)
        .map(|i| {
            let f = DatasetKind::Synthetic.spec().features();
            let x = PlainMatrix::from_fn(1, f, |_, c| ((c + i) % 5) as f64 * 0.1);
            (
                SimTime::from_secs(i as f64 * 1e-6),
                InferRequest::new(x).for_model(id).with_tag(i as u64),
            )
        })
        .collect();
    let outcome = host.run(arrivals).unwrap();
    assert_eq!(outcome.responses.len(), 4);
    assert_eq!(outcome.rejections.len(), 6);
    for (tag, e) in &outcome.rejections {
        assert!(*tag >= 4, "admission is in arrival order");
        match e {
            ServeError::Overloaded { model, depth } => {
                assert_eq!(*model, id);
                assert_eq!(*depth, 4);
            }
            other => panic!("expected Overloaded, got {other}"),
        }
    }
    let report = host.report();
    assert_eq!(report.rejected_overload, 6);
    assert_eq!(report.completed, 4);
    assert!(
        report.max_queue_depth <= 4,
        "queue grew past its bound: {}",
        report.max_queue_depth
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Property: for any seed and any fold width, micro-batched serving
    /// reveals exactly the bytes sequential serving reveals.
    #[test]
    fn any_fold_width_is_identity(seed in 0u32..1000, max_batch in 2usize..12) {
        let (batched, _) = serve_run(&[ModelKind::Mlp], max_batch, 300.0, seed);
        let (sequential, _) = serve_run(&[ModelKind::Mlp], 1, 300.0, seed);
        prop_assert_eq!(outputs_digest(&batched), outputs_digest(&sequential));
    }
}
