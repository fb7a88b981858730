//! Failure injection across crate boundaries: bad configurations, shape
//! violations, and resource exhaustion must surface as typed errors, not
//! corrupt results.

use parsecureml::prelude::*;
use parsecureml::{GemmMode, GpuDevice, GpuError, MachineConfig as Machine, SecureContext};

#[test]
fn shape_mismatch_is_rejected_by_secure_mul() {
    let mut ctx = SecureContext::<Fixed64>::new(EngineConfig::parsecureml(), 1);
    let a = ctx.share_input(&PlainMatrix::zeros(3, 4)).unwrap();
    let b = ctx.share_input(&PlainMatrix::zeros(5, 2)).unwrap();
    let err = ctx.secure_mul_auto(&a, &b, "bad").unwrap_err();
    assert!(matches!(err, EngineError::Shape(_)), "got {err:?}");
}

#[test]
fn mismatched_triple_is_rejected() {
    let fresh = EngineConfig::parsecureml().with_insecure_reuse_triples(false);
    let mut ctx = SecureContext::<Fixed64>::new(fresh, 2);
    let a = ctx.share_input(&PlainMatrix::zeros(3, 4)).unwrap();
    let b = ctx.share_input(&PlainMatrix::zeros(4, 2)).unwrap();
    ctx.schedule_triples(&[TripleSpec::Gemm { m: 3, k: 4, n: 5 }]);
    let err = ctx.secure_mul_auto(&a, &b, "bad").unwrap_err();
    assert!(matches!(err, EngineError::Protocol(_)), "got {err:?}");
}

#[test]
fn device_oom_is_a_typed_error_and_memory_is_reclaimable() {
    let mut cfg = Machine::v100_node().gpu;
    cfg.memory_bytes = 4096;
    let mut dev = GpuDevice::<f32>::new(cfg);
    let small = Matrix::<f32>::zeros(16, 16); // 1 KiB
    let h1 = dev.upload(&small, SimTime::ZERO).unwrap();
    let big = Matrix::<f32>::zeros(64, 64); // 16 KiB: too big
    match dev.upload(&big, SimTime::ZERO) {
        Err(GpuError::OutOfMemory {
            requested,
            available,
        }) => {
            assert_eq!(requested, 64 * 64 * 4);
            assert!(available < requested);
        }
        other => panic!("expected OOM, got {other:?}"),
    }
    // Device still usable after the failure.
    let h2 = dev.upload(&small, SimTime::ZERO).unwrap();
    let hc = dev.gemm(h1, h2, GemmMode::Fp32).unwrap();
    assert_eq!(dev.shape(hc).unwrap(), (16, 16));
    dev.download(hc).unwrap();
}

#[test]
fn invalid_configs_fail_validation() {
    let cfg = EngineConfig {
        learning_rate: f64::NAN,
        ..EngineConfig::parsecureml()
    };
    let err = cfg.validate().unwrap_err();
    assert!(matches!(err, ConfigError::LearningRate(_)), "got {err:?}");
    let cfg = EngineConfig {
        sparsity_threshold: 1.5,
        ..EngineConfig::parsecureml()
    };
    let err = cfg.validate().unwrap_err();
    assert!(matches!(err, ConfigError::Sparsity(_)), "got {err:?}");
    // Fallible construction validates first: a typed error, not a panic
    // inside the engine.
    let spec = ModelSpec::build(ModelKind::Linear, 16, None, 10).unwrap();
    let err = SecureTrainer::<Fixed64>::new(cfg, spec, 1)
        .err()
        .expect("invalid config rejected");
    assert!(matches!(
        err,
        EngineError::Config(ConfigError::Sparsity(_))
    ));
}

#[test]
fn invalid_models_fail_to_build() {
    // CNN without geometry.
    assert!(matches!(
        ModelSpec::build(ModelKind::Cnn, 100, None, 10),
        Err(EngineError::Config(_))
    ));
    // Geometry inconsistent with features.
    assert!(ModelSpec::build(ModelKind::Cnn, 100, Some((1, 5, 5)), 10).is_err());
    // RNN with indivisible features.
    assert!(ModelSpec::build(ModelKind::Rnn, 101, None, 10).is_err());
}

#[test]
fn trainer_rejects_wrong_batch_shapes() {
    let spec = ModelSpec::build(ModelKind::Mlp, 32, None, 4).unwrap();
    let mut trainer =
        SecureTrainer::<Fixed64>::new(EngineConfig::parsecureml(), spec, 3).unwrap();
    let x = PlainMatrix::zeros(4, 31); // wrong feature count
    let y = PlainMatrix::zeros(4, 4);
    assert!(matches!(
        trainer.train_batch(&x, &y).unwrap_err(),
        EngineError::Shape(_)
    ));
}

#[test]
fn engine_survives_oom_on_undersized_device() {
    // A device too small for the workload: ForceGpu must error (typed),
    // while Auto placement completes on the CPU.
    let mut machine = Machine::v100_node();
    machine.gpu.memory_bytes = 1024;
    let cfg = EngineConfig {
        machine,
        gpu_offline: false, // keep the client CPU-side
        ..EngineConfig::parsecureml()
    };
    let gpu_only = cfg.clone().with_policy(AdaptivePolicy::ForceGpu);
    let mut ctx = SecureContext::<Fixed64>::new(gpu_only, 4);
    let a = PlainMatrix::from_fn(16, 16, |r, c| (r + c) as f64 * 0.1);
    let b = a.clone();
    let err = ctx.secure_matmul_plain(&a, &b).unwrap_err();
    assert!(matches!(err, EngineError::Gpu(GpuError::OutOfMemory { .. })));

    let cpu_only = cfg.with_policy(AdaptivePolicy::ForceCpu);
    let mut ctx = SecureContext::<Fixed64>::new(cpu_only, 4);
    let c = ctx.secure_matmul_plain(&a, &b).unwrap();
    assert!(c.max_abs_diff(&a.matmul(&b)) < 1e-2);

    // The client's device is bounded too: a serial client moves a 4M-element
    // mask draw to its GPU (Fig. 7), which cannot hold it.
    let mut cfg = EngineConfig::parsecureml_unoptimized();
    cfg.machine.gpu.memory_bytes = 1024;
    let mut ctx = SecureContext::<Fixed64>::new(cfg, 4);
    let err = ctx.share_input(&PlainMatrix::zeros(2048, 2048)).unwrap_err();
    assert!(matches!(err, EngineError::Gpu(GpuError::OutOfMemory { .. })));
}

// ---------------------------------------------------------------------
// Network chaos: deterministic fault injection, reliable delivery and
// checkpoint/resume. The fault seed honors `PSML_FAULT_SEED` so CI can
// sweep a seed matrix; every scenario must hold for any seed.
// ---------------------------------------------------------------------

/// Seed for fault plans; `PSML_FAULT_SEED` overrides (CI sweeps 1..=3).
fn fault_seed() -> u64 {
    std::env::var("PSML_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// A budget generous enough to ride out every scenario in this file.
fn patient_retry() -> RetryPolicy {
    RetryPolicy {
        base_timeout: SimDuration::from_micros(100.0),
        backoff: 2.0,
        max_retries: 16,
        ..RetryPolicy::default()
    }
}

#[test]
fn empty_fault_plan_keeps_every_counter_zero() {
    let mut ctx = SecureContext::<Fixed64>::new(EngineConfig::parsecureml(), 5);
    let a = PlainMatrix::from_fn(12, 12, |r, c| (r * c) as f64 * 0.01);
    let c = ctx.secure_matmul_plain(&a, &a).unwrap();
    assert!(c.max_abs_diff(&a.matmul(&a)) < 1e-2);
    let report = ctx.report();
    assert!(report.fault_free());
    assert_eq!(report.injected.total(), 0);
    assert_eq!(report.reliability.retransmits, 0);
    assert_eq!(report.reliability.acks, 0, "fast path sends no ack traffic");
    assert!(report.reliability.transfers > 0, "transfers are still counted");
}

#[test]
fn secure_matmul_is_bit_identical_under_drops_and_corruption() {
    let a = PlainMatrix::from_fn(16, 24, |r, c| ((r + 2 * c) as f64).sin());
    let b = PlainMatrix::from_fn(24, 8, |r, c| ((r * c) as f64).cos());

    let mut clean = SecureContext::<Fixed64>::new(EngineConfig::parsecureml(), 42);
    let want = clean.secure_matmul_plain(&a, &b).unwrap();

    let plan = FaultPlan::seeded(fault_seed())
        .with_drop(0.10)
        .with_corruption(0.05);
    let cfg = EngineConfig::parsecureml()
        .with_fault_plan(plan)
        .with_retry(patient_retry());
    let mut chaotic = SecureContext::<Fixed64>::new(cfg, 42);
    let got = chaotic.secure_matmul_plain(&a, &b).unwrap();
    assert_eq!(got, want, "recovered run must be bit-identical");

    let report = chaotic.report();
    assert!(report.injected.total() > 0, "chaos never fired");
    assert!(report.reliability.retransmits > 0);
    assert!(report.reliability.acks > 0);
    assert!(!report.fault_free());
    // Recovery is visible in the latency accounting, never in the data.
    assert!(report.reliability.recovery_time > SimDuration::ZERO);
}

#[test]
fn mlp_training_is_bit_identical_through_drops_corruption_and_blackout() {
    let spec = ModelSpec::build(ModelKind::Mlp, 784, None, 10).unwrap();

    // Fault-free reference run; also sizes the blackout window.
    let mut clean = SecureTrainer::<Fixed64>::new(EngineConfig::parsecureml(), spec.clone(), 7)
        .unwrap();
    let clean_result = clean.train_epochs(DatasetKind::Mnist, 4, 1, 2, 11).unwrap();
    let want = clean.reveal_weights();
    let span = clean_result
        .report
        .offline_time
        .max(clean_result.report.online_time)
        .as_secs();

    // >= 5% drops, corruption, and one server blackout placed where both
    // the offline and online eras are active.
    let plan = FaultPlan::seeded(fault_seed())
        .with_drop(0.06)
        .with_corruption(0.03)
        .with_blackout(
            NodeId::Server1,
            SimTime::from_secs(span * 0.25),
            SimTime::from_secs(span * 0.55),
        );
    let cfg = EngineConfig::parsecureml()
        .with_fault_plan(plan)
        .with_retry(patient_retry());
    let mut chaotic = SecureTrainer::<Fixed64>::new(cfg, spec, 7).unwrap();
    let chaos_result = chaotic.train_epochs(DatasetKind::Mnist, 4, 1, 2, 11).unwrap();

    assert_eq!(
        chaotic.reveal_weights(),
        want,
        "training under chaos must reveal bit-identical weights"
    );
    assert_eq!(chaos_result.losses, clean_result.losses);

    let report = chaotic.report();
    assert!(report.injected.total() > 0);
    assert!(report.injected.drops + report.injected.blackout_drops > 0);
    assert!(report.reliability.retransmits > 0);
    assert!(
        report.reliability.corrupt_rejected + report.reliability.timeouts > 0,
        "recovery path never exercised: {:?}",
        report.reliability
    );
    // Recovery costs simulated time relative to the clean run.
    assert!(report.online_time + report.offline_time
        >= clean_result.report.online_time + clean_result.report.offline_time);
}

#[test]
fn retry_budget_exhaustion_is_a_typed_timeout_with_partial_report() {
    let plan = FaultPlan::seeded(fault_seed()).with_drop(1.0);
    let retry = RetryPolicy {
        base_timeout: SimDuration::from_micros(50.0),
        backoff: 2.0,
        max_retries: 3,
        ..RetryPolicy::default()
    };
    let cfg = EngineConfig::parsecureml()
        .with_fault_plan(plan)
        .with_retry(retry);
    let mut ctx = SecureContext::<Fixed64>::new(cfg, 9);
    let a = PlainMatrix::from_fn(8, 8, |r, c| (r + c) as f64 * 0.1);
    match ctx.secure_matmul_plain(&a, &a).unwrap_err() {
        EngineError::Net(NetError::Timeout { after, retries }) => {
            assert_eq!(retries, 3, "budget must be fully spent before giving up");
            assert!(after > SimTime::ZERO);
        }
        other => panic!("expected EngineError::Net(Timeout), got {other:?}"),
    }
    // The partial report still accounts for the failed recovery attempts.
    let report = ctx.report();
    assert!(report.injected.drops > 0);
    assert!(report.reliability.timeouts > 0);
    assert!(report.reliability.retransmits > 0);
}

#[test]
fn blackout_mid_training_checkpoints_then_resumes_on_fresh_trainer() {
    let spec = ModelSpec::build(ModelKind::Linear, 2048, None, 10).unwrap();

    // Calibration run: a benign plan (blackout far in the future) pays
    // the same ack overhead as the victim, so its clocks predict where
    // the victim's offline era ends and how long one epoch takes.
    let benign = FaultPlan::seeded(fault_seed()).with_blackout(
        NodeId::Server1,
        SimTime::from_secs(1e5),
        SimTime::from_secs(1e6),
    );
    let cfg = EngineConfig::parsecureml()
        .with_fault_plan(benign)
        .with_retry(patient_retry());
    let mut probe = SecureTrainer::<Fixed64>::new(cfg, spec.clone(), 3).unwrap();
    let probe_report = probe.train_epochs(DatasetKind::Synthetic, 4, 1, 1, 11).unwrap().report;
    assert!(probe_report.fault_free(), "benign window must never fire");
    let era = probe_report.offline_time.max(probe_report.online_time).as_secs();

    // Victim: Server1 goes dark permanently after offline sharing and at
    // least one full epoch have completed. The retry budget cannot ride
    // out an unbounded blackout, so training degrades to a typed timeout
    // — after recording epoch-boundary checkpoints.
    let dark_from = SimTime::from_secs(era * 1.6);
    let plan = FaultPlan::seeded(fault_seed()).with_blackout(
        NodeId::Server1,
        dark_from,
        SimTime::from_secs(1e6),
    );
    let cfg = EngineConfig::parsecureml()
        .with_fault_plan(plan)
        .with_retry(RetryPolicy {
            base_timeout: SimDuration::from_micros(100.0),
            backoff: 2.0,
            max_retries: 6,
            ..RetryPolicy::default()
        });
    let mut victim = SecureTrainer::<Fixed64>::new(cfg, spec.clone(), 3).unwrap();
    let err = victim
        .train_epochs(DatasetKind::Synthetic, 4, 1, 16, 11)
        .unwrap_err();
    assert!(
        matches!(err, EngineError::Net(NetError::Timeout { .. })),
        "expected typed timeout, got {err:?}"
    );
    let partial = victim.report();
    assert!(partial.injected.blackout_drops > 0);
    assert!(partial.reliability.timeouts > 0);

    let ckpt = victim.last_checkpoint().expect("epoch checkpoints recorded").clone();
    assert!(ckpt.epoch >= 1, "at least one epoch must precede the blackout");
    assert!(ckpt.epoch < 16, "the blackout must interrupt training");

    // Resume on a fresh, healthy trainer: restored weights are exact and
    // the remaining epochs complete.
    let mut resumed =
        SecureTrainer::<Fixed64>::new(EngineConfig::parsecureml(), spec, 99).unwrap();
    let epoch = resumed.resume_from_checkpoint(&ckpt).unwrap();
    assert_eq!(epoch, ckpt.epoch);
    assert_eq!(resumed.reveal_weights(), ckpt.weights, "restore must be exact");
    resumed
        .train_epochs(DatasetKind::Synthetic, 4, 1, 16 - epoch, 11)
        .unwrap();
}

#[test]
fn faulty_runs_replay_bit_identically_under_the_same_seed() {
    let a = PlainMatrix::from_fn(10, 20, |r, c| ((3 * r + c) as f64).sin());
    let b = PlainMatrix::from_fn(20, 6, |r, c| ((r * c + 1) as f64).cos());
    let run = || {
        let plan = FaultPlan::seeded(fault_seed())
            .with_drop(0.15)
            .with_corruption(0.08);
        let cfg = EngineConfig::parsecureml()
            .with_fault_plan(plan)
            .with_retry(patient_retry());
        let mut ctx = SecureContext::<Fixed64>::new(cfg, 42);
        let out = ctx.secure_matmul_plain(&a, &b).unwrap();
        (out, ctx.report())
    };
    let (out1, rep1) = run();
    let (out2, rep2) = run();
    assert_eq!(out1, out2);
    assert_eq!(rep1.reliability, rep2.reliability, "recovery history replays exactly");
    assert_eq!(rep1.injected, rep2.injected);
    assert_eq!(rep1.online_time, rep2.online_time, "timing replays exactly");
    assert_eq!(rep1.offline_time, rep2.offline_time);
}
