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
//! the `e2e` profile reads. The fourth freezes the wire itself: the exact
//! bytes of framed and stream-framed payloads and three CRC-32 values,
//! which round-trip tests cannot hold because a change that moves encoder
//! and decoder together passes them. The fifth freezes the offline phase's
//! draw order: the share bits of streamed Beaver triples and the outputs
//! of the one-shot reference protocols, which consume a sequential stream.
//!
//! Regenerate (only for an *intentional* cost-model or numerics change,
//! with the why recorded in the commit):
//!
//! ```text
//! PSML_BLESS_GOLDEN=1 cargo test --test backend_golden
//! ```

mod common;

use common::check_golden;
use parsecureml::models::Loss;
use parsecureml::observe::traced;
use parsecureml::prelude::*;
use parsecureml::{chrome_trace_json, fnv64, weights_digest};
use psml_mpc::{
    follow_openings, gen_triple_streamed, secure_hadamard, secure_matmul_with, Deal, Dealer,
    EvalStrategy,
};
use psml_net::codec::{
    crc32, decode, decode_frame, encode, encode_frame, encode_framed, encode_stream_frame,
    payload_bytes, CodecError, StreamDecoder,
};
use psml_net::{DenseFrame, Payload, VerifiedDense};
use psml_parallel::Mt19937;
use psml_tensor::{ConvShape, Csr, Num};
use std::collections::HashSet;

const REPORTS_GOLDEN: &str = "tests/golden/default_run_reports.txt";
const DIGEST_GOLDEN: &str = "tests/golden/train_mlp_synthetic_seed42_digest.txt";
const ENGINE_PATHS_GOLDEN: &str = "tests/golden/engine_path_reports.txt";
const WIRE_GOLDEN: &str = "tests/golden/wire_frames.txt";
const TRIPLES_GOLDEN: &str = "tests/golden/triples.txt";

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
    ModelSpec::for_dataset(kind, DatasetKind::Synthetic).unwrap()
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

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The golden text plus what a receiver of the same records must see.
#[derive(Default)]
struct WirePin {
    lines: String,
    /// Every stream record, concatenated in send order.
    stream: Vec<u8>,
    sent: Vec<(u64, Vec<u8>)>,
}

impl WirePin {
    /// Adds `encode_frame` and `encode_stream_frame` of `p`'s encoding at
    /// each pinned sequence number, and decodes each frame back to `p`.
    /// The one-buffer `encode_framed` must give the pinned frame too, and
    /// so must a dense frame written word by word through `DenseFrame`,
    /// which a receipt (`VerifiedDense`) reads back without `decode`.
    fn case<R: Num + std::fmt::Debug + PartialEq>(&mut self, name: &str, p: Payload<R>) {
        let body = encode(&p);
        assert_eq!(payload_bytes(&p), body.len(), "{name}");
        for seq in [0, 1, u64::MAX - 1] {
            let frame = encode_frame(seq, &body);
            assert_eq!(encode_framed(seq, &p), frame, "{name} seq={seq}");
            let record = encode_stream_frame(seq, &body);
            self.lines += &format!("frame {name} seq={seq} {}\n", hex(&frame));
            self.lines += &format!("stream {name} seq={seq} {}\n", hex(&record));
            let (got_seq, got_body) = decode_frame(&frame).unwrap();
            assert_eq!(got_seq, seq, "{name}");
            assert_eq!(decode::<R>(got_body).unwrap(), p, "{name} seq={seq}");
            let receipt = VerifiedDense::<R>::open(frame.clone());
            if let Payload::Dense(m) = &p {
                let written = DenseFrame::write(m.rows(), m.cols(), m.as_slice().iter().copied());
                assert_eq!(written.sealed(seq), frame, "{name} seq={seq}: the frame writer");
                let receipt = receipt.unwrap();
                assert_eq!((receipt.seq(), &receipt.to_matrix()), (seq, m), "{name} seq={seq}");
            } else {
                assert!(matches!(receipt, Err(CodecError::NotDense(_))), "{name} seq={seq}");
            }
            self.stream.extend_from_slice(&record);
            self.sent.push((seq, body.clone()));
        }
    }
}

/// Absolute pin for every byte `psml_net::codec` puts on a link or a
/// socket. The fixtures and sequence numbers are part of the pin.
#[test]
fn wire_frames_are_unchanged() {
    let mut pin = WirePin::default();
    let counter: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
    for (name, bytes) in [("empty", &b""[..]), ("check", b"123456789"), ("counter4k", &counter)] {
        pin.lines += &format!("crc32 {name} {:08x}\n", crc32(bytes));
    }
    let dense_fixed = Matrix::from_fn(3, 5, |r, c| Fixed64::encode(r as f64 - 0.25 * c as f64));
    let dense_f32 = Matrix::from_fn(2, 3, |r, c| r as f32 * 1.5 - 0.125 * c as f32);
    let mut delta = Matrix::<Fixed64>::zeros(4, 4);
    delta[(0, 1)] = Fixed64(77);
    delta[(3, 3)] = Fixed64(u64::MAX);
    pin.case("dense_fixed64_3x5", Payload::Dense(dense_fixed));
    pin.case("dense_f32_2x3", Payload::Dense(dense_f32));
    pin.case("csr_fixed64_4x4", Payload::SparseDelta(Csr::from_dense(&delta)));
    pin.case(
        "control_utf8",
        Payload::<Fixed64>::Control("epoch:3 \u{03b4}=\u{2713}".to_string()),
    );
    pin.case("dense_fixed64_0x0", Payload::Dense(Matrix::<Fixed64>::zeros(0, 0)));
    check_golden(WIRE_GOLDEN, &pin.lines, "wire bytes");

    let mut decoder = StreamDecoder::new();
    let mut received = Vec::new();
    for piece in pin.stream.chunks(7) {
        decoder.push(piece);
        while let Some(frame) = decoder.next_frame() {
            received.push(frame.unwrap());
        }
    }
    assert_eq!(received, pin.sent);
    assert_eq!((decoder.resyncs(), decoder.buffered()), (0, 0));
}

/// One line per matrix: its label, shape and every element's bits in hex.
fn bits_line<T: Num>(label: &str, m: &Matrix<T>, bits: impl Fn(&T) -> u64) -> String {
    let hex: Vec<String> = m.as_slice().iter().map(|x| format!("{:016x}", bits(x))).collect();
    format!("{label} {}x{} {}\n", m.rows(), m.cols(), hex.join(" "))
}

/// The one-shot reference protocols, each from `Mt19937::new(7)`, plus the
/// generator's next draw (how much randomness each consumed).
fn reference_lines() -> String {
    let a = PlainMatrix::from_fn(4, 5, |r, c| (r as f64 + 1.0) * 0.5 - c as f64 * 0.3);
    let b = PlainMatrix::from_fn(5, 3, |r, c| (r * 3 + c) as f64 * 0.2 - 1.0);
    let a2 = PlainMatrix::from_fn(4, 5, |r, c| (c as f64 - r as f64) * 0.25 + 0.1);
    let mut out = String::new();
    for strategy in [EvalStrategy::Expanded, EvalStrategy::Fused] {
        let mut rng = Mt19937::new(7);
        let c = secure_matmul_with::<Fixed64>(&a, &b, &mut rng, strategy);
        let label = format!("fixed64 secure_matmul {strategy:?} next={:016x}", rng.next_u64());
        out += &bits_line(&label, &c, |x| x.to_bits());
    }
    let mut rng = Mt19937::new(7);
    let h = secure_hadamard::<Fixed64>(&a, &a2, &mut rng);
    let label = format!("fixed64 secure_hadamard next={:016x}", rng.next_u64());
    out + &bits_line(&label, &h, |x| x.to_bits())
}

#[test]
fn beaver_triples_are_unchanged() {
    let mut out = String::new();
    for spec in [TripleSpec::Gemm { m: 3, k: 4, n: 2 }, TripleSpec::Hadamard { m: 5, n: 4 }] {
        for seq in 0..4 {
            let t = gen_triple_streamed::<Fixed64>(spec, 42, seq, psml_tensor::gemm_blocked);
            for p in Party::BOTH {
                let s = t.share(p);
                for (name, m) in [("u", &s.u), ("v", &s.v), ("z", &s.z)] {
                    let label = format!("{spec:?} seq{seq} {p:?}.{name}");
                    out += &bits_line(&label, m, |x| x.0);
                }
            }
        }
    }
    // The outputs move with the masks (through each share's truncation), so
    // these rows pin the draw order.
    out += &reference_lines();
    out += &mask_schedule_lines();
    check_golden(TRIPLES_GOLDEN, &out, "Beaver triple bits");
}

/// The dealer over a tiny two-layer model (Dense 3->4 ReLU, Dense 4->2),
/// master 42: a step's mask schedule at batch 2, then, on a fresh dealer,
/// three served requests at batch 1 — the first opens the weights and
/// leaves them open, the later two read them.
fn mask_schedule_lines() -> String {
    let spec = ModelSpec {
        kind: ModelKind::Mlp,
        layers: vec![
            LayerSpec::Dense { inputs: 3, outputs: 4, activation: Activation::Relu },
            LayerSpec::Dense { inputs: 4, outputs: 2, activation: Activation::None },
        ],
        loss: Loss::Mse,
        outputs: 2,
    };
    let mut open = HashSet::new();
    let served: Vec<Deal> = (0..3)
        .flat_map(|_| {
            let pass = spec.forward_deals(1, &open);
            follow_openings(&mut open, &pass).unwrap();
            pass
        })
        .collect();
    dealer_lines("masked", &spec.step_deals(2)) + &dealer_lines("served", &served)
}

/// Per product of `deals`, dealt in order from seq 0: the secrets it
/// reads and each server's shares of the masks it opens and of `Z`.
fn dealer_lines(tag: &str, deals: &[Deal]) -> String {
    let mut dealer = Dealer::<Fixed64>::new();
    let mut out = String::new();
    for (seq, deal) in deals.iter().enumerate() {
        let Deal::Masked(p) = deal else { panic!("an MLP has no single-use triple") };
        let reads = p.operands.map(|o| {
            let t = if o.transposed { "^T" } else { "" };
            format!("{:?}{t}", o.secret)
        });
        let (reads, spec) = (reads.join(", "), p.spec);
        let dealt = dealer.deal(deal, 42, seq as u64, psml_tensor::gemm_blocked);
        for party in Party::BOTH {
            let share = dealt.share(party);
            let label = |name: &str| format!("{tag} seq{seq} {spec:?} [{reads}] {party:?}.{name}");
            for (j, mask) in share.masks.iter().enumerate() {
                if let Some(m) = mask {
                    out += &bits_line(&label(&format!("m{j}")), m, |x| x.0);
                }
            }
            out += &bits_line(&label("z"), &share.z, |x| x.0);
        }
    }
    out
}
