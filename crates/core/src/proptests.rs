//! Property-based tests over the full engine.

use crate::baseline::{PlainBackend, PlainModel};
use crate::config::{AdaptivePolicy, EngineConfig};
use crate::engine::SecureContext;
use crate::layers::{Activation, LayerSpec};
use crate::models::{Loss, ModelKind, ModelSpec};
use crate::trainer::SecureTrainer;
use proptest::prelude::*;
use psml_mpc::{Fixed64, Party, PlainMatrix};

fn plain(rows: usize, cols: usize) -> impl Strategy<Value = PlainMatrix> {
    prop::collection::vec(-4.0f64..4.0, rows * cols)
        .prop_map(move |v| PlainMatrix::from_vec(rows, cols, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The distributed three-party engine computes correct products for
    /// arbitrary inputs, under every placement policy.
    #[test]
    fn engine_matmul_correct(a in plain(4, 6), b in plain(6, 3), seed in any::<u32>(),
                             policy in prop::sample::select(vec![
                                 AdaptivePolicy::ForceCpu,
                                 AdaptivePolicy::ForceGpu,
                                 AdaptivePolicy::Auto,
                             ])) {
        let cfg = EngineConfig::parsecureml().with_policy(policy);
        let mut ctx = SecureContext::<Fixed64>::new(cfg, seed);
        let c = ctx.secure_matmul_plain(&a, &b).unwrap();
        prop_assert!(c.max_abs_diff(&a.matmul(&b)) < 2e-2);
    }

    /// Placement changes the charge, never the arithmetic: for one seed,
    /// `ForceCpu` and `ForceGpu` give bit-identical output shares of
    /// `secure_mul` on both servers, and the same revealed product. The
    /// shapes cover single-row products, one above the `32^3` packing
    /// floor, and the pipeline both on and off.
    #[test]
    fn placements_give_bit_identical_shares(
        (m, k, n) in prop::sample::select(vec![(1, 7, 3), (1, 48, 10), (40, 36, 30), (5, 6, 4)]),
        pipeline in any::<bool>(),
        seed in any::<u32>(),
    ) {
        let a = PlainMatrix::from_fn(m, k, |r, c| ((r * 7 + c * 3) % 17) as f64 * 0.25 - 2.0);
        let b = PlainMatrix::from_fn(k, n, |r, c| ((r * 5 + c * 11) % 13) as f64 * 0.3 - 1.8);
        let run = |policy: AdaptivePolicy| {
            let cfg = EngineConfig::parsecureml().with_pipeline(pipeline).with_policy(policy);
            let mut ctx = SecureContext::<Fixed64>::new(cfg, seed);
            let sa = ctx.share_input(&a).unwrap();
            let sb = ctx.share_input(&b).unwrap();
            let c = ctx.secure_mul_auto(&sa, &sb, "c").unwrap();
            (c, ctx.report().placements)
        };
        let (cpu, cpu_placed) = run(AdaptivePolicy::ForceCpu);
        let (gpu, gpu_placed) = run(AdaptivePolicy::ForceGpu);
        prop_assert_eq!((cpu_placed, gpu_placed), ((1, 0), (0, 1)));
        for party in Party::BOTH {
            prop_assert_eq!(&cpu.part(party).v, &gpu.part(party).v);
        }
        prop_assert_eq!(cpu.reveal_insecure(), gpu.reveal_insecure());
    }

    /// Pipeline on/off and compression on/off never change results, only
    /// simulated time / bytes.
    #[test]
    fn toggles_preserve_results(a in plain(3, 5), b in plain(5, 4), seed in any::<u32>()) {
        let base = {
            let cfg = EngineConfig::parsecureml();
            let mut ctx = SecureContext::<Fixed64>::new(cfg, seed);
            ctx.secure_matmul_plain(&a, &b).unwrap()
        };
        for cfg in [
            EngineConfig::parsecureml().with_pipeline(false),
            EngineConfig::parsecureml().with_compression(false),
            EngineConfig::parsecureml().with_tensor_cores(false),
        ] {
            let mut ctx = SecureContext::<Fixed64>::new(cfg, seed);
            let c = ctx.secure_matmul_plain(&a, &b).unwrap();
            prop_assert_eq!(c.as_slice(), base.as_slice());
        }
    }

    /// Simulated times are positive and the pipeline never hurts.
    #[test]
    fn pipeline_never_slower(a in plain(6, 8), b in plain(8, 5), seed in any::<u32>()) {
        let run = |pipeline: bool| {
            let cfg = EngineConfig::parsecureml()
                .with_pipeline(pipeline)
                .with_policy(AdaptivePolicy::ForceGpu);
            let mut ctx = SecureContext::<Fixed64>::new(cfg, seed);
            ctx.secure_matmul_plain(&a, &b).unwrap();
            ctx.report()
        };
        let piped = run(true);
        let fenced = run(false);
        prop_assert!(piped.online_time <= fenced.online_time);
        prop_assert!(piped.online_time.as_secs() > 0.0);
        prop_assert!(piped.offline_time.as_secs() > 0.0);
    }

    /// Compression never increases total wire bytes.
    #[test]
    fn compression_never_grows_traffic(a in plain(4, 4), b in plain(4, 4), seed in any::<u32>()) {
        let bytes = |compress: bool| {
            let cfg = EngineConfig::parsecureml().with_compression(compress);
            let mut ctx = SecureContext::<Fixed64>::new(cfg, seed);
            // Two multiplications through the same stream key so the delta
            // path can engage on the second.
            let sa = ctx.share_input(&a).unwrap();
            let sb = ctx.share_input(&b).unwrap();
            let _ = ctx.secure_mul_auto(&sa, &sb, "s").unwrap();
            let _ = ctx.secure_mul_auto(&sa, &sb, "s").unwrap();
            ctx.report().traffic.total_wire_bytes()
        };
        prop_assert!(bytes(true) <= bytes(false));
    }

    /// A training step under the mask schedule, on random small MLP and
    /// RNN shapes (an RNN reads `Wx` and `Wh` at every time step of its
    /// forward pass): prefetch and inline dealing are bit-identical, and
    /// the step stays within fixed-point noise of the plaintext step. The
    /// loss is a continuous function of the forward values, so it moves by
    /// the noise alone; a weight can move further where a pre-activation
    /// within the noise of a kink takes the other side of it and flips
    /// one derivative, by at most about `lr * |a| * |d|`.
    #[test]
    fn masked_steps_match_prefetch_and_the_plain_step(
        rnn in any::<bool>(),
        (width, hidden, outputs, batch) in (1usize..6, 1usize..9, 1usize..4, 1usize..6),
        seed in any::<u32>(),
    ) {
        let layers = if rnn {
            vec![
                LayerSpec::Rnn {
                    step_inputs: width,
                    hidden,
                    seq_len: 3,
                    activation: Activation::Piecewise,
                },
                LayerSpec::Dense { inputs: hidden, outputs, activation: Activation::None },
            ]
        } else {
            vec![
                LayerSpec::Dense { inputs: width, outputs: hidden, activation: Activation::Relu },
                LayerSpec::Dense {
                    inputs: hidden,
                    outputs: hidden + 1,
                    activation: Activation::Relu,
                },
                LayerSpec::Dense { inputs: hidden + 1, outputs, activation: Activation::None },
            ]
        };
        let kind = if rnn { ModelKind::Rnn } else { ModelKind::Mlp };
        let spec = ModelSpec { kind, layers, loss: Loss::Mse, outputs };
        spec.validate().unwrap();
        let features = spec.input_features();
        let x = PlainMatrix::from_fn(batch, features, |r, c| {
            ((r * 7 + c * 3 + seed as usize) % 11) as f64 * 0.15 - 0.7
        });
        let y = PlainMatrix::from_fn(batch, outputs, |r, c| f64::from(u8::from(c == r % outputs)));
        let step = |cfg: EngineConfig| {
            let mut t = SecureTrainer::<Fixed64>::new(cfg, spec.clone(), seed).unwrap();
            let loss = t.train_batch(&x, &y).unwrap();
            (loss, t.reveal_weights(), format!("{:?}", t.report()))
        };
        let inline = step(EngineConfig::parsecureml().with_insecure_reuse_triples(false));
        let prefetch = step(EngineConfig::parsecureml().with_prefetch(true));
        prop_assert_eq!(&inline, &prefetch);

        let cfg = EngineConfig::parsecureml();
        let mut plain = PlainModel::new(cfg, spec.clone(), PlainBackend::Cpu, seed).unwrap();
        let loss = plain.train_batch(&x, &y).unwrap();
        prop_assert!((loss - inline.0).abs() < 1e-2, "loss {} vs plain {loss}", inline.0);
        for (secure, plain) in inline.1.iter().flatten().zip(plain.weights().iter().flatten()) {
            let moved = secure.max_abs_diff(plain);
            prop_assert!(moved < 5e-2, "weights moved {moved}");
        }
    }
}
