//! Secure CNN inference (the paper's Sec. 7.2 inference study).
//!
//! Runs privacy-preserving inference — the forward pass of the secure
//! protocol — with a small CNN over CIFAR-10-like images, and compares the
//! simulated latency against (a) the SecureML CPU baseline and (b) the
//! non-secure plain-GPU model (Table 2's reference point).
//!
//! Run with: `cargo run --release --example secure_inference_cnn`

use parsecureml::prelude::*;

fn main() {
    let dataset = DatasetKind::Cifar10;
    let spec_of = || ModelSpec::for_dataset(ModelKind::Cnn, dataset).expect("model");
    let batch_size = 8;
    let batches = 2;

    // Secure inference, full ParSecureML stack.
    let mut fast = SecureTrainer::<Fixed64>::new(EngineConfig::parsecureml(), spec_of(), 5)
        .expect("trainer");
    let fast_res = fast
        .evaluate(dataset, batch_size, batches, 17)
        .expect("inference");

    // Secure inference, SecureML CPU baseline.
    let mut slow = SecureTrainer::<Fixed64>::new(EngineConfig::secureml(), spec_of(), 5)
        .expect("trainer");
    let slow_res = slow
        .evaluate(dataset, batch_size, batches, 17)
        .expect("inference");

    // Non-secure plain model on the GPU.
    let mut plain = PlainModel::new(
        EngineConfig::parsecureml(),
        spec_of(),
        PlainBackend::Gpu,
        5,
    )
    .expect("plain model");
    for b in 0..batches {
        let data = batch(dataset, batch_size, b, 17);
        let _ = plain.infer_batch(&data.x);
    }

    println!("secure CNN inference on {} ({} images/batch, {} batches)", dataset.spec().name, batch_size, batches);
    println!();
    println!(
        "  ParSecureML online time : {}",
        fast_res.report.online_time
    );
    println!(
        "  SecureML online time    : {}",
        slow_res.report.online_time
    );
    println!("  plain GPU time          : {}", plain.elapsed());
    println!();
    println!(
        "  inference speedup over SecureML : {:.1}x",
        slow_res.report.online_time / fast_res.report.online_time.max(SimDuration::from_nanos(1.0))
    );
    println!(
        "  slowdown vs non-secure GPU      : {:.1}x",
        fast_res.report.total_time() / plain.elapsed()
    );
    println!();
    println!(
        "  predictions agree between both secure runs: {}",
        fast_res.outputs.max_abs_diff(&slow_res.outputs) < 1e-6
    );
}
