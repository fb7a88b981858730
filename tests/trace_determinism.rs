//! Golden tests for the tracing subsystem: the Chrome export of a
//! fixed-seed run is byte-identical across runs, tracing itself never
//! perturbs simulated time, and the measured-cost recalibrator flips a
//! mispredicted placement inside one hysteresis window.

use parsecureml::observe::{profile_json, traced, validate_document};
use parsecureml::prelude::*;
use parsecureml::{chrome_trace_json, AdaptiveEngine, CpuConfig, GpuConfig, Placement};
use psml_simtime::LinkModel;

// Tracing is a process-global toggle; tests in this binary that flip it
// must not interleave.
static FLAG_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn mlp_result(cfg: EngineConfig) -> (RunReport, Vec<parsecureml::RecalEvent>) {
    let data = DatasetKind::Synthetic.spec();
    let spec =
        ModelSpec::build(ModelKind::Mlp, data.features(), None, data.classes).expect("model");
    let mut trainer = SecureTrainer::<Fixed64>::new(cfg, spec, 7).expect("trainer");
    trainer
        .train_epochs(DatasetKind::Synthetic, 8, 2, 1, 19)
        .expect("training");
    let recals = trainer.context().recalibration_events().to_vec();
    (trainer.report(), recals)
}

#[test]
fn chrome_export_is_byte_identical_across_runs() {
    let _serial = FLAG_LOCK.lock().unwrap();
    let run = || {
        let (_, events) = traced(|| mlp_result(EngineConfig::parsecureml()));
        assert!(!events.is_empty(), "traced run produced no events");
        chrome_trace_json(&events)
    };
    let first = run();
    let second = run();
    assert_eq!(first.as_bytes(), second.as_bytes(), "trace JSON drifted");
    // And the document itself is a valid psml.trace.v1.
    assert_eq!(
        validate_document(&first).expect("valid trace"),
        "psml.trace.v1"
    );
}

#[test]
fn tracing_does_not_perturb_simulated_time() {
    let _serial = FLAG_LOCK.lock().unwrap();
    // Untraced run first (the sink stays disabled — the zero-cost path).
    let (untraced, _) = mlp_result(EngineConfig::parsecureml());
    let ((traced_report, _), _) = traced(|| mlp_result(EngineConfig::parsecureml()));
    // Bit-identical, not approximately equal: recording a span reads the
    // timeline, it must never advance or round it.
    assert_eq!(
        untraced.offline_time.as_secs().to_bits(),
        traced_report.offline_time.as_secs().to_bits(),
        "offline time changed under tracing"
    );
    assert_eq!(
        untraced.online_time.as_secs().to_bits(),
        traced_report.online_time.as_secs().to_bits(),
        "online time changed under tracing"
    );
    for (a, b) in [
        (untraced.breakdown.compute1, traced_report.breakdown.compute1),
        (
            untraced.breakdown.communicate,
            traced_report.breakdown.communicate,
        ),
        (untraced.breakdown.compute2, traced_report.breakdown.compute2),
        (
            untraced.breakdown.activation,
            traced_report.breakdown.activation,
        ),
    ] {
        assert_eq!(a.as_secs().to_bits(), b.as_secs().to_bits());
    }
}

#[test]
fn quant_ring_modeling_never_changes_functional_results() {
    let _serial = FLAG_LOCK.lock().unwrap();
    // `model_quant_ring` only informs the cost model (placement and
    // charged time). The trained model itself — every loss, every
    // revealed weight — must be bit-identical with the knob on or off:
    // the quantized kernel the modes stand for is exact over the ring.
    let run = |on: bool| {
        let cfg = EngineConfig::parsecureml().with_model_quant_ring(on);
        let data = DatasetKind::Synthetic.spec();
        let spec = ModelSpec::build(ModelKind::Mlp, data.features(), None, data.classes)
            .expect("model");
        let mut trainer = SecureTrainer::<Fixed64>::new(cfg, spec, 7).expect("trainer");
        let result = trainer
            .train_epochs(DatasetKind::Synthetic, 8, 2, 1, 19)
            .expect("training");
        (result.losses, trainer.reveal_weights(), trainer.report())
    };
    let (losses_off, weights_off, report_off) = run(false);
    let (losses_on, weights_on, report_on) = run(true);
    assert_eq!(
        losses_off.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        losses_on.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        "losses drifted under quant-ring modeling"
    );
    assert_eq!(weights_off, weights_on, "weights drifted");
    // The protocol shape is also unchanged; only placement may move.
    assert_eq!(report_off.secure_muls, report_on.secure_muls);
}

/// A machine whose static model mispredicts: the GPU narrowly wins on
/// paper (one launch, one bulk transfer) but the real compute2 pipeline
/// pays ~5 kernel launches and ~6 per-operand PCIe latencies, so the
/// measured span lands well above the CPU alternative.
fn mispredicting_machine() -> MachineConfig {
    let mut machine = MachineConfig::v100_node();
    machine.gpu = GpuConfig {
        fp32_gflops: 5_000.0,
        launch_overhead_us: 300.0,
        pcie: LinkModel::new(100e-6, 1e9),
        ..machine.gpu
    };
    machine.cpu = CpuConfig {
        gflops_per_core: 1.3,
        ..machine.cpu
    };
    machine
}

/// `MeasuredCost` on the mispredicting machine, serial host.
fn measured_cost_config(recal_window: usize) -> EngineConfig {
    let cfg = EngineConfig {
        machine: mispredicting_machine(),
        policy: AdaptivePolicy::MeasuredCost,
        cpu_threads: 1,
        recal_window,
        ..EngineConfig::parsecureml()
    };
    cfg.validate().expect("valid config");
    cfg
}

#[test]
fn measured_cost_flips_mispredicted_placement_within_one_window() {
    let window = 2;
    let cfg = measured_cost_config(window);

    // Sanity: the static model must seed this shape on the GPU, otherwise
    // the test exercises nothing.
    let (m, k, n) = (64usize, 64usize, 64usize);
    let bytes_moved = (2 * m * k + 2 * k * n + 2 * m * n) * 8;
    let gpu_static = AdaptiveEngine::gpu_cost(&cfg, m, 2 * k, n, bytes_moved);
    let cpu_static = AdaptiveEngine::cpu_cost(&cfg, m, 2 * k, n);
    assert!(
        gpu_static < cpu_static,
        "static model must prefer GPU here (gpu {gpu_static} vs cpu {cpu_static})"
    );

    let mut ctx = SecureContext::<Fixed64>::new(cfg, 23);
    let a = PlainMatrix::from_fn(m, k, |r, c| ((r + c) % 5) as f64 * 0.1);
    let b = PlainMatrix::from_fn(k, n, |r, c| ((r * 2 + c) % 7) as f64 * 0.1 - 0.3);
    let sa = ctx.share_input(&a).expect("share a");
    let sb = ctx.share_input(&b).expect("share b");
    for _ in 0..window {
        assert!(
            ctx.recalibration_events().is_empty(),
            "flip must not commit before the hysteresis window closes"
        );
        ctx.secure_mul_auto(&sa, &sb, "l0.fwd").expect("secure mul");
    }
    let events = ctx.recalibration_events();
    assert_eq!(
        events.len(),
        1,
        "exactly one flip within one hysteresis window, got {events:?}"
    );
    assert_eq!(events[0].from, Placement::Gpu);
    assert_eq!(events[0].to, Placement::Cpu);
    assert!(
        events[0].measured > events[0].predicted,
        "flip must be driven by measurement exceeding the static prediction"
    );
    // The next multiplication of the same shape runs on the CPU.
    let (cpu_before, _) = ctx.report().placements;
    ctx.secure_mul_auto(&sa, &sb, "l0.fwd").expect("secure mul");
    let (cpu_after, _) = ctx.report().placements;
    assert_eq!(
        cpu_after,
        cpu_before + 1,
        "post-flip multiplication must be placed on the CPU"
    );
    // Still correct after the flip.
    let c = ctx
        .secure_mul_auto(&sa, &sb, "l0.fwd")
        .expect("secure mul")
        .reveal_insecure();
    assert!(c.max_abs_diff(&a.matmul(&b)) < 1e-2);
}

#[test]
fn profile_document_for_recalibrated_run_validates() {
    let _serial = FLAG_LOCK.lock().unwrap();
    let cfg = measured_cost_config(2);
    let ((report, recals), events) = traced(|| mlp_result(cfg));
    let doc = profile_json("mlp", &events, &report, &recals);
    let schema = validate_document(&doc.to_json()).expect("valid profile document");
    assert_eq!(schema, "psml.profile.v1");
}
