//! Cross-crate integration: the paper's optimizations must change *time*
//! and *bytes*, never *results*.

use parsecureml::prelude::*;
use parsecureml::SecureContext;

const SEED: u32 = 31;

fn inputs() -> (PlainMatrix, PlainMatrix) {
    (
        PlainMatrix::from_fn(24, 40, |r, c| ((r * 7 + c * 3) % 11) as f64 * 0.1 - 0.5),
        PlainMatrix::from_fn(40, 12, |r, c| ((r + c * 5) % 9) as f64 * 0.1 - 0.4),
    )
}

fn run(cfg: EngineConfig) -> (PlainMatrix, RunReport) {
    let mut ctx = SecureContext::<Fixed64>::new(cfg, SEED);
    let (a, b) = inputs();
    let c = ctx.secure_matmul_plain(&a, &b).unwrap();
    (c, ctx.report())
}

#[test]
fn every_toggle_combination_gives_identical_results() {
    let (base, _) = run(EngineConfig::parsecureml());
    for pipeline in [true, false] {
        for compression in [true, false] {
            for policy in [
                AdaptivePolicy::Auto,
                AdaptivePolicy::ForceCpu,
                AdaptivePolicy::ForceGpu,
            ] {
                let cfg = EngineConfig::parsecureml()
                    .with_pipeline(pipeline)
                    .with_compression(compression)
                    .with_policy(policy);
                let (c, _) = run(cfg);
                assert_eq!(
                    c.as_slice(),
                    base.as_slice(),
                    "results changed at pipeline={pipeline} compression={compression} policy={policy:?}"
                );
            }
        }
    }
}

#[test]
fn pipeline_saves_simulated_time_on_gpu_path() {
    let piped = run(EngineConfig::parsecureml().with_policy(AdaptivePolicy::ForceGpu)).1;
    let fenced = run(EngineConfig::parsecureml()
        .with_policy(AdaptivePolicy::ForceGpu)
        .with_pipeline(false))
    .1;
    assert!(
        piped.online_time < fenced.online_time,
        "pipelined {} !< fenced {}",
        piped.online_time,
        fenced.online_time
    );
}

#[test]
fn compression_reduces_bytes_across_epochs() {
    // Train a small model for several epochs so delta streams engage.
    let run_epochs = |compress: bool| {
        let spec = ModelSpec::build(ModelKind::Mlp, 2048, None, 10).unwrap();
        let mut trainer = SecureTrainer::<Fixed64>::new(
            EngineConfig::parsecureml().with_compression(compress),
            spec,
            SEED,
        )
        .unwrap();
        let r = trainer
            .train_epochs(DatasetKind::Synthetic, 4, 1, 3, 9)
            .unwrap();
        (
            r.report.traffic.server_to_server_wire_bytes(),
            r.losses,
        )
    };
    let (with, losses_with) = run_epochs(true);
    let (without, losses_without) = run_epochs(false);
    assert!(with < without, "compressed {with} !< uncompressed {without}");
    assert_eq!(losses_with, losses_without, "compression changed training");
}

#[test]
fn breakdown_and_occupancy_are_consistent() {
    let (_, report) = run(EngineConfig::parsecureml());
    assert!(report.offline_time.as_secs() > 0.0);
    assert!(report.online_time.as_secs() > 0.0);
    let occ = report.occupancy();
    assert!((0.0..=1.0).contains(&occ), "occupancy {occ}");
    // Every protocol step actually happened and was accounted.
    let b = report.breakdown;
    assert!(b.share_generation.as_secs() > 0.0);
    assert!(b.distribution.as_secs() > 0.0);
    assert!(b.compute1.as_secs() > 0.0);
    assert!(b.communicate.as_secs() > 0.0);
    assert!(b.compute2.as_secs() > 0.0);
    // compute2 dominates the online steps under the SecureML baseline
    // (Fig. 2's setting); the optimized system precisely shrinks it.
    let (_, baseline) = run(EngineConfig::secureml());
    let bb = baseline.breakdown;
    assert!(bb.compute2 > bb.compute1 && bb.compute2 > bb.communicate);
}

#[test]
fn secure_hadamard_is_correct_through_the_engine() {
    let mut ctx = SecureContext::<Fixed64>::new(EngineConfig::parsecureml(), SEED);
    let a = PlainMatrix::from_fn(9, 7, |r, c| (r as f64 - 3.0) * 0.3 + c as f64 * 0.05);
    let b = PlainMatrix::from_fn(9, 7, |r, c| (c as f64 - 2.0) * 0.4 - r as f64 * 0.02);
    let sa = ctx.share_input(&a).unwrap();
    let sb = ctx.share_input(&b).unwrap();
    let prod = ctx.secure_hadamard(&sa, &sb, "test").unwrap();
    let revealed = ctx.reveal(&prod).unwrap().v;
    assert!(revealed.max_abs_diff(&a.hadamard(&b)) < 1e-2);
}

#[test]
fn triple_cache_reuses_offline_work() {
    let mut ctx = SecureContext::<Fixed64>::new(EngineConfig::parsecureml(), SEED);
    let (a, b) = inputs();
    let sa = ctx.share_input(&a).unwrap();
    let sb = ctx.share_input(&b).unwrap();
    let _ = ctx.secure_mul_auto(&sa, &sb, "k").unwrap();
    let offline_after_first = ctx.report().offline_time;
    let _ = ctx.secure_mul_auto(&sa, &sb, "k").unwrap();
    let offline_after_second = ctx.report().offline_time;
    assert_eq!(
        offline_after_first.as_secs(),
        offline_after_second.as_secs(),
        "cached triple must not regenerate offline work"
    );
}

#[test]
fn fresh_triples_cost_offline_but_preserve_results() {
    let (a, b) = inputs();
    let run = |reuse: bool| {
        let mut ctx = SecureContext::<Fixed64>::new(
            EngineConfig::parsecureml().with_insecure_reuse_triples(reuse),
            SEED,
        );
        let sa = ctx.share_input(&a).unwrap();
        let sb = ctx.share_input(&b).unwrap();
        ctx.schedule_triples(&[TripleSpec::Gemm { m: a.rows(), k: a.cols(), n: b.cols() }; 2]);
        let c1 = ctx.secure_mul_auto(&sa, &sb, "k").unwrap();
        let c2 = ctx.secure_mul_auto(&sa, &sb, "k").unwrap();
        (
            ctx.reveal(&c1).unwrap().v,
            ctx.reveal(&c2).unwrap().v,
            ctx.report().offline_time,
        )
    };
    let (r1, r2, offline_reused) = run(true);
    let (f1, f2, offline_fresh) = run(false);
    let expect = a.matmul(&b);
    for (label, m) in [("r1", &r1), ("r2", &r2), ("f1", &f1), ("f2", &f2)] {
        assert!(m.max_abs_diff(&expect) < 1e-2, "{label} wrong");
    }
    assert!(
        offline_fresh > offline_reused,
        "fresh triples must cost more offline time: {offline_fresh} !> {offline_reused}"
    );
}

#[test]
fn client_aided_activation_matches_server_exchange() {
    let spec = ModelSpec::build(ModelKind::Logistic, 16, None, 10).unwrap();
    let x = PlainMatrix::from_fn(8, 16, |r, c| ((r * 5 + c) % 9) as f64 * 0.1);
    let run = |client_aided: bool| {
        let cfg = EngineConfig::parsecureml().with_client_aided_activation(client_aided);
        let mut t = SecureTrainer::<Fixed64>::new(cfg, spec.clone(), SEED).unwrap();
        t.infer_request(&InferRequest::new(x.clone())).unwrap().output
    };
    let server_mode = run(false);
    let client_mode = run(true);
    // Client-aided re-sharing uses a different mask stream, so results
    // agree up to fixed-point noise rather than bit-exactly.
    assert!(
        server_mode.max_abs_diff(&client_mode) < 1e-3,
        "modes diverged by {}",
        server_mode.max_abs_diff(&client_mode)
    );
}

#[test]
fn client_aided_activation_moves_traffic_off_the_server_link() {
    let spec = ModelSpec::build(ModelKind::Mlp, 32, None, 4).unwrap();
    let x = PlainMatrix::from_fn(8, 32, |r, c| ((r + c) % 7) as f64 * 0.1);
    let run = |client_aided: bool| {
        let cfg = EngineConfig::parsecureml().with_client_aided_activation(client_aided);
        let mut t = SecureTrainer::<Fixed64>::new(cfg, spec.clone(), SEED).unwrap();
        t.infer_request(&InferRequest::new(x.clone())).unwrap();
        t.report()
    };
    let server_mode = run(false);
    let client_mode = run(true);
    // Activations no longer cross the server<->server link.
    assert!(
        client_mode.traffic.server_to_server_wire_bytes()
            < server_mode.traffic.server_to_server_wire_bytes(),
        "client-aided mode must reduce server<->server traffic"
    );
    // But the online phase pays the client round trip.
    assert!(client_mode.online_time >= server_mode.online_time);
}

#[test]
fn adaptive_engine_reports_placements() {
    let mut ctx = SecureContext::<Fixed64>::new(
        EngineConfig::parsecureml().with_policy(AdaptivePolicy::ForceGpu),
        SEED,
    );
    let (a, b) = inputs();
    ctx.secure_matmul_plain(&a, &b).unwrap();
    let (cpu, gpu) = ctx.report().placements;
    assert_eq!(cpu, 0);
    assert!(gpu >= 1);
    // GPU path must have produced kernel activity on both servers.
    for profile in ctx.gpu_profiles() {
        assert!(profile.fraction_matching("gemm") > 0.0);
    }
}

// ---------------------------------------------------------------------
// The mask schedule: each secret of a fresh-triple training step is
// masked, dealt and opened once.
// ---------------------------------------------------------------------

use parsecureml::{NodeId, Packet, Payload, ReceiveTap};
use psml_mpc::protocol::finish;
use psml_mpc::{mask_schedule, Deal, EvalStrategy, Operand, Secret};
use psml_net::codec::{dense_payload_bytes, FRAME_HEADER_BYTES};
use std::sync::{Arc, Mutex};

/// Fresh single-use material per product, dealt inline.
fn fresh() -> EngineConfig {
    EngineConfig::parsecureml().with_insecure_reuse_triples(false)
}

/// Wire bytes of one dense transfer of `elems` ring elements.
fn transfer(elems: usize) -> usize {
    FRAME_HEADER_BYTES + dense_payload_bytes::<Fixed64>(elems, 1)
}

/// A dense model's traffic on `batch` samples, derived from its schedule
/// `deals` alone: `(opened ring elements, wire bytes)`. Per secret a
/// product opens, one dealt mask share and one exchanged half per server;
/// per product, one `Z` share per server; plus each hidden layer's
/// activation exchange, and per entry of `client_io` a `batch`-row matrix
/// of that many columns the client shares or is revealed.
fn derived_traffic(
    spec: &ModelSpec,
    deals: &[Deal],
    batch: usize,
    client_io: &[usize],
) -> (usize, usize) {
    let (mut opened, mut bytes) = (0, 0);
    for deal in deals {
        let s = deal.spec();
        for ((rows, cols), open) in [s.u_shape(), s.v_shape()].into_iter().zip(deal.opens()) {
            if open {
                opened += rows * cols;
                bytes += 2 * transfer(rows * cols) + 2 * transfer(rows * cols);
            }
        }
        let (rows, cols) = s.z_shape();
        bytes += 2 * transfer(rows * cols);
    }
    for layer in &spec.layers {
        match *layer {
            LayerSpec::Dense { activation, outputs, .. } if !activation.is_linear() => {
                bytes += 2 * transfer(batch * outputs);
            }
            LayerSpec::Dense { .. } => {}
            _ => panic!("a dense model only"),
        }
    }
    (opened, bytes + client_io.iter().map(|&cols| 2 * transfer(batch * cols)).sum::<usize>())
}

/// One training step ([`derived_traffic`]): the client shares the inputs
/// and targets and is revealed the prediction.
fn derived_step_traffic(spec: &ModelSpec, deals: &[Deal], batch: usize) -> (usize, usize) {
    derived_traffic(spec, deals, batch, &[spec.input_features(), spec.outputs, spec.outputs])
}

fn one_hot(rows: usize, cols: usize) -> PlainMatrix {
    PlainMatrix::from_fn(rows, cols, |r, c| if c == r % cols { 1.0 } else { 0.0 })
}

#[test]
fn a_fresh_mlp_step_moves_exactly_the_schedule_derived_bytes() {
    let spec = ModelSpec::build(ModelKind::Mlp, 48, None, 6).unwrap();
    let batch = 8;
    let x = PlainMatrix::from_fn(batch, 48, |r, c| ((r * 5 + c) % 13) as f64 * 0.1 - 0.6);
    let (_, want) = derived_step_traffic(&spec, &spec.step_deals(batch), batch);
    for cfg in [fresh(), EngineConfig::parsecureml().with_prefetch(true)] {
        let mut trainer = SecureTrainer::<Fixed64>::new(cfg, spec.clone(), SEED).unwrap();
        let before = trainer.report().traffic.total_wire_bytes();
        trainer.train_batch(&x, &one_hot(batch, 6)).unwrap();
        let moved = trainer.report().traffic.total_wire_bytes() - before;
        assert_eq!(moved, want, "prefetch {}", trainer.context().config().prefetch);
    }
}

#[test]
fn the_benchmark_step_opens_each_secret_once() {
    // `train_mlp_fresh`: MLP 3136-128-64-10 at batch 128.
    let spec = ModelSpec::build(ModelKind::Mlp, 3136, None, 10).unwrap();
    let deals = spec.step_deals(128);
    assert_eq!(derived_step_traffic(&spec, &deals, 128), (862_080, 41_815_566));
    // Every product opening both operands, as single-use triples do.
    let single_use: Vec<Deal> = deals.iter().map(|d| Deal::Triple(d.spec())).collect();
    assert_eq!(derived_step_traffic(&spec, &single_use, 128), (1_306_368, 56_033_482));
}

/// What a tap on one node saw, frame by frame: the sender, the frame's
/// wire bytes, and a dense payload's shape and ring words (`None` for any
/// other payload).
type Seen = Arc<Mutex<Vec<(NodeId, usize, Option<((usize, usize), Vec<u64>)>)>>>;

fn tap(seen: &Seen) -> ReceiveTap<Fixed64> {
    let seen = Arc::clone(seen);
    Box::new(move |p: &Packet<Fixed64>| {
        let dense = match &p.payload {
            Payload::Dense(m) => Some((m.shape(), m.as_slice().iter().map(|x| x.0).collect())),
            _ => None,
        };
        seen.lock().unwrap().push((p.from, p.wire_bytes, dense));
    })
}

/// The dense payloads `seen` received from `from`, in order.
fn received(seen: &Seen, from: NodeId) -> Vec<((usize, usize), Vec<u64>)> {
    let seen = seen.lock().unwrap();
    seen.iter().filter(|(f, ..)| *f == from).filter_map(|(.., dense)| dense.clone()).collect()
}

/// Pearson's χ² statistic of the byte histogram of `words` against the
/// uniform distribution (255 degrees of freedom).
fn byte_chi2(words: impl IntoIterator<Item = u64>) -> f64 {
    let mut counts = [0u64; 256];
    for w in words {
        for b in w.to_le_bytes() {
            counts[b as usize] += 1;
        }
    }
    let expected = counts.iter().sum::<u64>() as f64 / 256.0;
    counts.iter().map(|&c| (c as f64 - expected).powi(2) / expected).sum()
}

/// χ² with 255 degrees of freedom exceeds this with probability ~1e-9.
const CHI2_255_MAX: f64 = 415.0;

#[test]
fn a_server_sees_each_secret_opened_once_and_uniformly_masked() {
    let spec = ModelSpec::build(ModelKind::Mlp, 48, None, 6).unwrap();
    let batch = 8;
    let mut trainer = SecureTrainer::<Fixed64>::new(fresh(), spec.clone(), SEED).unwrap();
    let [seen0, seen1] = [NodeId::Server0, NodeId::Server1].map(|node| {
        let seen = Seen::default();
        trainer.set_receive_tap(node, tap(&seen));
        seen
    });
    trainer.train_batch(&PlainMatrix::zeros(batch, 48), &one_hot(batch, 6)).unwrap();

    // What the schedule says each server receives from its peer, in order:
    // the half of every secret a product opens, and after each hidden
    // layer's forward product its pre-activation share (`None`).
    let mut expect = Vec::new();
    for deal in spec.step_deals(batch) {
        let Deal::Masked(p) = deal else { panic!("an MLP step has no single-use triple") };
        for (j, shape) in [p.spec.u_shape(), p.spec.v_shape()].into_iter().enumerate() {
            if p.opens[j] {
                expect.push((Some(p.operands[j].secret), shape));
            }
        }
        if let Secret::Weight { layer, .. } = p.operands[1].secret {
            if !p.operands[1].transposed && layer + 1 < spec.layers.len() {
                expect.push((None, p.spec.z_shape()));
            }
        }
    }
    let secrets: Vec<Secret> = expect.iter().filter_map(|e| e.0).collect();
    let distinct: std::collections::HashSet<_> = secrets.iter().collect();
    assert_eq!((secrets.len(), distinct.len()), (9, 9), "x, W0-2, a1-2, dz0-2: once each");
    let (to1, to0) = (received(&seen1, NodeId::Server0), received(&seen0, NodeId::Server1));
    let shapes = |got: &[((usize, usize), Vec<u64>)]| got.iter().map(|g| g.0).collect::<Vec<_>>();
    let want: Vec<_> = expect.iter().map(|e| e.1).collect();
    assert_eq!(shapes(&to1), want, "server 1's halves");
    assert_eq!(shapes(&to0), want, "server 0's halves");

    // The openings both servers hold: E = E_0 + E_1, uniform for every
    // secret (x and the first activation are all zeros).
    let openings: Vec<((usize, usize), Vec<u64>)> = expect
        .iter()
        .zip(to1.iter().zip(&to0))
        .filter(|(e, _)| e.0.is_some())
        .map(|(e, (a, b))| (e.1, a.1.iter().zip(&b.1).map(|(x, y)| x.wrapping_add(*y)).collect()))
        .collect();
    let all = byte_chi2(openings.iter().flat_map(|o| o.1.iter().copied()));
    assert!(all < CHI2_255_MAX, "opened words are not uniform: chi2 {all}");
    // Independent masks: two openings of one shape differ by a uniform
    // matrix. Masks dealt equal would leave the difference of the secrets.
    let mut pairs = 0;
    for (i, (shape, a)) in openings.iter().enumerate() {
        for (other, b) in &openings[i + 1..] {
            if other == shape {
                let chi2 = byte_chi2(a.iter().zip(b).map(|(x, y)| x.wrapping_sub(*y)));
                assert!(chi2 < CHI2_255_MAX, "openings {shape:?} are correlated: chi2 {chi2}");
                pairs += 1;
            }
        }
    }
    assert!(pairs >= 2, "a1/dz0 and a2/dz1 share shapes");
}

/// Watching the wire changes nothing: a fresh MLP step and a served
/// request with a receive tap on every node (which decodes each dense
/// frame the engine otherwise reads in place) give the same weights,
/// outputs and report as the same runs without one.
#[test]
fn a_run_with_a_receive_tap_equals_a_run_without_one() {
    let spec = ModelSpec::build(ModelKind::Mlp, 48, None, 6).unwrap();
    let batch = 8;
    let x = PlainMatrix::from_fn(batch, 48, |r, c| ((r * 5 + c) % 9) as f64 * 0.2 - 0.8);
    let run = |tapped: bool| {
        let mut trainer = SecureTrainer::<Fixed64>::new(fresh(), spec.clone(), SEED).unwrap();
        let seen = Seen::default();
        if tapped {
            for node in NodeId::ALL {
                trainer.set_receive_tap(node, tap(&seen));
            }
        }
        trainer.train_batch(&x, &one_hot(batch, 6)).unwrap();
        let served = trainer.infer_request(&InferRequest::new(x.clone())).unwrap();
        let taps = seen.lock().unwrap().len();
        (trainer.reveal_weights(), served.output, format!("{:?}", trainer.report()), taps)
    };
    let (bare, tapped) = (run(false), run(true));
    assert!(bare.3 == 0 && tapped.3 > 0, "the tap saw the run's packets");
    assert_eq!((&bare.0, &bare.1, &bare.2), (&tapped.0, &tapped.1, &tapped.2));
}

#[test]
fn a_backward_product_reads_the_forward_opening_transposed() {
    let mut ctx = SecureContext::<Fixed64>::new(fresh(), SEED);
    let [seen0, seen1] = [NodeId::Server0, NodeId::Server1].map(|node| {
        let seen = Seen::default();
        ctx.set_receive_tap(node, tap(&seen));
        seen
    });
    let x = PlainMatrix::zeros(6, 5);
    let w = PlainMatrix::from_fn(5, 4, |r, c| (r as f64 - c as f64) * 0.25);
    let d = PlainMatrix::from_fn(6, 4, |r, c| ((r * 3 + c) % 5) as f64 * 0.2 - 0.4);
    let [xs, ws, ds] = [&x, &w, &d].map(|m| ctx.share_input(m).unwrap());
    let op = |secret, transposed| Operand { secret, transposed };
    let act = Secret::Act { layer: 0, step: 0 };
    let fwd = [op(act, false), op(Secret::Weight { layer: 0, which: 0 }, false)];
    let bwd = [op(act, true), op(Secret::Grad { layer: 0 }, false)];
    ctx.schedule_deals(&mask_schedule(&[
        (TripleSpec::Gemm { m: 6, k: 5, n: 4 }, Some(fwd)),
        (TripleSpec::Gemm { m: 5, k: 6, n: 4 }, Some(bwd)),
    ]))
    .unwrap();
    ctx.secure_mul(&xs, &ws, fwd, "l0.fwd").unwrap();
    let xt = ctx.transpose_shared(&xs);
    let dw = ctx.secure_mul(&xt, &ds, bwd, "l0.bwd.dw").unwrap();
    assert!(dw.reveal_insecure().max_abs_diff(&x.transpose().matmul(&d)) < 1e-2);

    // Server 1's view: the halves of x and W, then of d alone.
    let (to1, to0) = (received(&seen1, NodeId::Server0), received(&seen0, NodeId::Server1));
    let shapes: Vec<_> = to1.iter().map(|h| h.0).collect();
    assert_eq!(shapes, [(6, 5), (5, 4), (6, 4)]);
    let open = |i: usize| {
        let ((rows, cols), _) = to1[i];
        let words = to1[i].1.iter().zip(&to0[i].1).map(|(a, b)| Fixed64(a.wrapping_add(*b)));
        Matrix::from_vec(rows, cols, words.collect())
    };
    let (e_x, f_d) = (open(0), open(2));
    // Its share of the backward product's Z: the last thing the client
    // dealt it. With its own shares, that and the forward opening of x,
    // transposed, make exactly the output share it computed.
    let (_, z1) = received(&seen1, NodeId::Client).pop().unwrap();
    let z1 = Matrix::from_vec(5, 4, z1.into_iter().map(Fixed64).collect());
    let (x1, d1) = (xs.part(Party::P1).v.transpose(), &ds.part(Party::P1).v);
    let e_xt = e_x.transpose();
    let fused = EvalStrategy::Fused;
    let want = finish(Party::P1, &x1, d1, &z1, &e_xt, &f_d, fused, psml_tensor::gemm_naive);
    assert!(dw.part(Party::P1).v == want, "server 1 did not compute on E_x^T");
}

// ---------------------------------------------------------------------
// Serving: a loaded model's weights are masked and opened once per load;
// each later request opens only its input.
// ---------------------------------------------------------------------

use std::collections::HashSet;

/// One served request ([`derived_traffic`]): the client shares the input
/// and is revealed the output.
fn derived_request_traffic(spec: &ModelSpec, deals: &[Deal], batch: usize) -> (usize, usize) {
    derived_traffic(spec, deals, batch, &[spec.input_features(), spec.outputs])
}

/// The schedules of the first request after the weights change, which
/// opens them, and of every later request, which reads them.
fn first_and_later_requests(spec: &ModelSpec, batch: usize) -> [Vec<Deal>; 2] {
    let mut open = HashSet::new();
    let first = spec.forward_deals(batch, &open);
    psml_mpc::follow_openings(&mut open, &first).unwrap();
    [first, spec.forward_deals(batch, &open)]
}

#[test]
fn served_requests_move_exactly_the_schedule_derived_bytes() {
    let batch = 2;
    for kind in [ModelKind::Logistic, ModelKind::Mlp] {
        let spec = ModelSpec::build(kind, 48, None, 6).unwrap();
        let deals = first_and_later_requests(&spec, batch);
        let [first, later] = deals.map(|d| derived_request_traffic(&spec, &d, batch).1);
        assert!(later < first, "{kind:?}: {later} !< {first}");
        for cfg in [fresh(), EngineConfig::parsecureml().with_prefetch(true)] {
            let mut trainer = SecureTrainer::<Fixed64>::new(cfg, spec.clone(), SEED).unwrap();
            let moved: Vec<usize> = (0..3)
                .map(|i| {
                    let x = PlainMatrix::from_fn(batch, 48, |r, c| {
                        ((r * 5 + c + i) % 13) as f64 * 0.1 - 0.6
                    });
                    let before = trainer.report().traffic.total_wire_bytes();
                    trainer.infer_request(&InferRequest::new(x)).unwrap();
                    trainer.report().traffic.total_wire_bytes() - before
                })
                .collect();
            let prefetch = trainer.context().config().prefetch;
            assert_eq!(moved, [first, later, later], "{kind:?} prefetch {prefetch}");
        }
    }
}

#[test]
fn the_benchmark_request_opens_its_weight_once_per_load() {
    // `serve_fleet_small`: logistic 2048 -> 1 at batch 1.
    let spec = ModelSpec::for_dataset(ModelKind::Logistic, DatasetKind::Synthetic).unwrap();
    assert_eq!(spec.input_features(), 2048);
    let deals = first_and_later_requests(&spec, 1);
    let [first, later] = deals.map(|d| derived_request_traffic(&spec, &d, 1));
    assert_eq!(first, (4096, 164_288), "U_x and M_W: the single-use triple");
    assert_eq!(later, (2048, 98_652), "U_x alone: F_W is the first request's");
    // Its ledger: 1,024 requests on a fresh trainer.
    let per_op = (first.1 + 1023 * later.1) as f64 / 1024.0;
    assert_eq!(format!("{per_op:.1}"), "98716.1");
}

#[test]
fn a_server_sees_a_served_weight_opened_once_and_each_input_uniformly_masked() {
    let spec = ModelSpec::for_dataset(ModelKind::Logistic, DatasetKind::Synthetic).unwrap();
    let features = spec.input_features();
    let requests = 4;
    let view = |inputs: &[PlainMatrix]| {
        let cfg = ServeConfig::builder().build().unwrap().engine_for_host();
        let mut trainer = SecureTrainer::<Fixed64>::new(cfg, spec.clone(), SEED).unwrap();
        let seen = [NodeId::Server0, NodeId::Server1].map(|node| {
            let seen = Seen::default();
            trainer.set_receive_tap(node, tap(&seen));
            seen
        });
        for x in inputs {
            trainer.infer_request(&InferRequest::new(x.clone())).unwrap();
        }
        seen
    };
    let zeros = vec![PlainMatrix::zeros(1, features); requests];
    let real: Vec<_> = (0..requests).map(|i| batch(DatasetKind::Synthetic, 1, i, 5).x).collect();
    let [zero_views, real_views] = [view(&zeros), view(&real)];

    // Frame sizes, count and order do not depend on the inputs.
    let frames = |seen: &Seen| -> Vec<(NodeId, usize)> {
        seen.lock().unwrap().iter().map(|(from, bytes, _)| (*from, *bytes)).collect()
    };
    for (z, r) in zero_views.iter().zip(&real_views) {
        assert_eq!(frames(z), frames(r));
    }
    for [seen0, seen1] in [zero_views, real_views] {
        // From its peer, server `i` receives the halves of `E_x` and `F_W`
        // for the first request, then each request's `E_x` half alone —
        // each followed by the peer's share of the request's
        // pre-activation, which the server-side activation exchanges.
        let (to1, to0) = (received(&seen1, NodeId::Server0), received(&seen0, NodeId::Server1));
        let mut want = vec![(1, features), (features, 1), (1, 1)];
        for _ in 1..requests {
            want.extend([(1, features), (1, 1)]);
        }
        for halves in [&to1, &to0] {
            assert_eq!(halves.iter().map(|h| h.0).collect::<Vec<_>>(), want);
        }
        // Every opening is uniform: `F_W` once, then each `E_x`.
        let openings = to1.iter().zip(&to0).filter(|(a, _)| a.0 != (1, 1));
        for (a, b) in openings {
            let chi2 = byte_chi2(a.1.iter().zip(&b.1).map(|(x, y)| x.wrapping_add(*y)));
            assert!(chi2 < CHI2_255_MAX, "an opening of {:?} is not uniform: chi2 {chi2}", a.0);
        }
        // Each request's input is masked anew: consecutive `E_x` halves
        // differ by a uniform matrix, not by the difference of the inputs.
        for halves in [&to1, &to0] {
            let e_x: Vec<&Vec<u64>> =
                halves.iter().filter(|h| h.0 == (1, features)).map(|h| &h.1).collect();
            for pair in e_x.windows(2) {
                let chi2 = byte_chi2(pair[1].iter().zip(pair[0]).map(|(x, y)| x.wrapping_sub(*y)));
                assert!(chi2 < CHI2_255_MAX, "consecutive E_x halves correlate: chi2 {chi2}");
            }
        }
    }
}
