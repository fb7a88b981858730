//! The asynchronous triple-provisioning pipeline is an *optimization*:
//! with the same seed it must change neither the revealed results nor a
//! single simulated-time or traffic counter, across every model family.

use parsecureml::prelude::*;

const SEED: u32 = 61;

/// Trains two steps and infers once; returns everything observable.
fn train_and_infer(
    kind: ModelKind,
    prefetch: bool,
) -> (Vec<f64>, PlainMatrix, RunReport) {
    let cfg = if prefetch {
        EngineConfig::parsecureml().with_prefetch(true)
    } else {
        // Fresh triples either way: prefetch provisions one triple per
        // scheduled multiplication, so the fair (and bit-comparable)
        // baseline also regenerates per call.
        EngineConfig::parsecureml().with_insecure_reuse_triples(false)
    };
    let image = matches!(kind, ModelKind::Cnn).then_some((1, 8, 8));
    let spec = ModelSpec::build(kind, 64, image, 4).unwrap();
    let mut trainer = SecureTrainer::<Fixed64>::new(cfg, spec, SEED).unwrap();
    let mut rng = psml_parallel::Mt19937::new(17);
    let x = PlainMatrix::from_fn(6, 64, |_, _| rng.next_f64());
    let y = match trainer.spec().loss {
        parsecureml::models::Loss::Hinge => {
            PlainMatrix::from_fn(6, 1, |r, _| if r % 2 == 0 { 1.0 } else { -1.0 })
        }
        _ => PlainMatrix::from_fn(6, trainer.spec().outputs, |r, c| {
            if c == r % trainer.spec().outputs {
                1.0
            } else {
                0.0
            }
        }),
    };
    let mut losses = Vec::new();
    for _ in 0..2 {
        losses.push(trainer.train_batch(&x, &y).unwrap());
    }
    let out = trainer
        .infer_request(&InferRequest::new(x.clone()))
        .unwrap()
        .output;
    (losses, out, trainer.report())
}

#[test]
fn prefetch_is_invisible_in_results_and_reports_across_models() {
    for kind in [
        ModelKind::Mlp,
        ModelKind::Cnn,
        ModelKind::Rnn,
        ModelKind::Linear,
        ModelKind::Svm,
        ModelKind::Logistic,
    ] {
        let off = train_and_infer(kind, false);
        let on = train_and_infer(kind, true);
        assert_eq!(on.0, off.0, "{kind:?}: losses diverged");
        assert_eq!(on.1, off.1, "{kind:?}: predictions diverged");
        assert_eq!(
            format!("{:?}", on.2),
            format!("{:?}", off.2),
            "{kind:?}: simulated reports diverged"
        );
    }
}

/// Checkpoint resume composes with the prefetch pipeline. A checkpoint
/// taken at the epoch-2 boundary of a prefetching run (triples are
/// buffered ahead of consumption, and generated past the declared
/// schedule by the provider's lookahead) is resumed by two fresh
/// replicas — one prefetching, one provisioning synchronously. Both re-derive their counter-RNG triple streams from
/// the same seed and must finish the remaining span with bit-identical
/// weights and losses: buffered-ahead triples never leak across the
/// resume boundary.
#[test]
fn checkpoint_resume_is_bit_identical_under_prefetch() {
    use parsecureml::weights_digest;

    const EPOCHS: usize = 4;
    let fresh = |prefetch: bool| {
        let cfg = if prefetch {
            EngineConfig::parsecureml().with_prefetch(true)
        } else {
            EngineConfig::parsecureml().with_insecure_reuse_triples(false)
        };
        let dspec = DatasetKind::Synthetic.spec();
        let spec = ModelSpec::build(
            ModelKind::Mlp,
            dspec.features(),
            Some((dspec.channels, dspec.height, dspec.width)),
            dspec.classes,
        )
        .unwrap();
        SecureTrainer::<Fixed64>::new(cfg, spec, SEED).unwrap()
    };

    // Full prefetching run, capturing the epoch-2 checkpoint en route.
    let mut ckpt2 = None;
    let mut full = fresh(true);
    let plan = full.share_plan(DatasetKind::Synthetic, 8, 1, SEED).unwrap();
    for epoch in 0..EPOCHS {
        let (c, _) = full.train_epoch(&plan, epoch).unwrap();
        if c.epoch == 2 {
            ckpt2 = Some(c.clone());
        }
    }
    let ckpt = ckpt2.expect("the run passed the epoch-2 checkpoint");

    // Two fresh replicas resume the 2..4 span from that checkpoint.
    let mut finishes = Vec::new();
    for prefetch in [true, false] {
        let mut t = fresh(prefetch);
        assert_eq!(t.resume_from_checkpoint(&ckpt).unwrap(), 2);
        let plan = t.share_plan(DatasetKind::Synthetic, 8, 1, SEED).unwrap();
        let losses: Vec<f64> = (2..EPOCHS)
            .map(|epoch| t.train_epoch(&plan, epoch).unwrap().1)
            .collect();
        finishes.push((weights_digest(&t.reveal_weights()), losses));
    }
    assert_eq!(
        finishes[0], finishes[1],
        "prefetch must be invisible across a checkpoint resume"
    );
}

#[test]
fn prefetch_replay_is_deterministic() {
    let first = train_and_infer(ModelKind::Mlp, true);
    let second = train_and_infer(ModelKind::Mlp, true);
    assert_eq!(first.0, second.0, "losses not reproducible");
    assert_eq!(first.1, second.1, "predictions not reproducible");
    assert_eq!(
        format!("{:?}", first.2),
        format!("{:?}", second.2),
        "reports not reproducible"
    );
}
