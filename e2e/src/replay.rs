//! Per-layer attribution by replay: each layer's public functions are
//! called, from outside the program, with one op's shapes, counts and
//! payload mix (see `profile`), and timed with the benchmark's own spans.
//!
//! Nested layers are reported exclusive of what they contain, so the
//! `share` values add: `mpc.triple` and `mpc.share` exclude their random
//! draws (`parallel.rng`), `mpc.protocol` excludes its GEMM
//! (`tensor.gemm`), `net.reliable` excludes framing (`net.codec`).

use crate::profile::{Msg, OpProfile};
use crate::spans::Spans;
use crate::stats::ratio;
use parsecureml::prelude::*;
use parsecureml::{backend_for, GpuDevice, TripleProvider};
use psml_mpc::{gen_triple_streamed, ServerMulSession, SharePair};
use psml_net::codec;
use psml_net::{build_network, DeltaDecoder, DeltaEncoder, Payload, ReliableChannel, TransmitForm};
use psml_parallel::Mt19937;
use psml_simtime::Resource;
use psml_tensor::{gemm_auto, gemm_packed_sum_auto, pack_b_auto, Num};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Per-layer values by metric name; names absent here report 0.
pub type Layers = BTreeMap<&'static str, f64>;

type Ring = Matrix<Fixed64>;

pub struct Replay<'a> {
    pub profile: &'a OpProfile,
    /// The engine configuration the op ran under.
    pub cfg: &'a EngineConfig,
    /// How many ops' worth of work one replay runs (small ops are repeated
    /// until they can be timed); every value is divided back per op.
    pub passes: usize,
    /// `wall_ms_per_op_p50` of the untraced ops of this trial.
    pub op_ms: f64,
    pub seed: u32,
}

fn plain(rows: usize, cols: usize) -> PlainMatrix {
    PlainMatrix::from_fn(rows, cols, |r, c| {
        ((r * 31 + c * 7) % 97) as f64 * 0.01 - 0.5
    })
}

fn ring(rows: usize, cols: usize, rng: &mut Mt19937) -> Ring {
    Fixed64::random_matrix(rows, cols, rng)
}

impl Replay<'_> {
    /// Replays every layer and fills `out` with the per-op values.
    pub fn run(&self, spans: &mut Spans, out: &mut Layers) {
        let root = spans.open("replay", None, 0);
        let per_op = 1.0 / self.passes as f64;
        let mut rng = psml_parallel::derived_rng(self.seed, 0xE2E);
        let p = self.profile;

        let online = self.online_products(spans, root, &mut rng);
        let (rng_triples_ms, rng_inputs_ms, fill_rate) = self.random_draws(spans, root, &mut rng);
        let triple_ms = self.triples(spans, root);
        let share_ms = self.shares(spans, root, &mut rng);
        let net = self.network(spans, root, &mut rng);
        let engine = self.engine(spans, root);
        self.provider(spans, root, out);
        spans.close(root);

        let cpu_muls = p.muls.iter().filter(|m| !m.gpu).count() as f64;
        let gpu_muls = p.muls.iter().filter(|m| m.gpu).count() as f64;
        // Per server the fused product is (m x 2k) * (2k x n).
        let flops: f64 = p
            .muls
            .iter()
            .filter(|m| !m.gpu)
            .map(|m| 8.0 * (m.m * m.k * m.n) as f64)
            .sum();
        let gemm_ms = (online.pack_ms + online.kernel_ms) * per_op;
        let protocol_self_ms = (online.finish_ms - online.kernel_ms).max(0.0) * per_op;
        let protocol_ms = (online.mask_ms + online.reconstruct_ms) * per_op + protocol_self_ms;
        let gpu_ms = online.gpu_ms * per_op;
        out.insert("tensor.gemm.calls_per_op", 2.0 * cpu_muls);
        out.insert("tensor.gemm.flops_per_op", flops);
        out.insert("tensor.gemm.busy_ms_per_op", gemm_ms);
        out.insert("tensor.gemm.gflops", ratio(flops, gemm_ms) / 1e6);
        out.insert(
            "mpc.protocol.elems_per_op",
            p.muls
                .iter()
                .map(|m| 2.0 * (m.m * m.k + m.k * m.n) as f64)
                .sum(),
        );
        out.insert("mpc.protocol.mask_ms_per_op", online.mask_ms * per_op);
        out.insert("mpc.protocol.self_ms_per_op", protocol_self_ms);
        out.insert("gpu.device.gemm_calls_per_op", 4.0 * gpu_muls);
        out.insert("gpu.device.busy_ms_per_op", gpu_ms);

        let rng_elems: f64 = p
            .triples
            .iter()
            .map(|t| t.random_elems() as f64)
            .sum::<f64>()
            + p.inputs.iter().map(|&(r, c)| (r * c) as f64).sum::<f64>();
        let rng_ms = (rng_triples_ms + rng_inputs_ms) * per_op;
        out.insert("parallel.rng.elems_per_op", rng_elems);
        out.insert("parallel.rng.busy_ms_per_op", rng_ms);
        out.insert("parallel.rng.melems_per_s", ratio(rng_elems, rng_ms) / 1e3);
        out.insert("parallel.rng.fill_melems_per_s", fill_rate);

        let triple_excl_ms = (triple_ms - rng_triples_ms).max(0.0) * per_op;
        out.insert("mpc.triple.triples_per_op", p.triples.len() as f64);
        out.insert("mpc.triple.busy_ms_per_op", triple_excl_ms);
        let share_excl_ms = (share_ms - rng_inputs_ms).max(0.0) * per_op;
        out.insert("mpc.share.busy_ms_per_op", share_excl_ms);

        let codec_ms = net.codec_ms * per_op;
        let wire = p.wire_bytes() as f64;
        out.insert("net.codec.msgs_per_op", p.msgs.len() as f64);
        out.insert("net.codec.bytes_per_op", wire);
        out.insert("net.codec.busy_ms_per_op", codec_ms);
        out.insert("net.codec.gb_per_s", ratio(wire, codec_ms) / 1e6);
        let compress_ms = net.compress_ms * per_op;
        let offered: Vec<&Msg> = p.msgs.iter().filter(|m| m.delta_stream).collect();
        let dense: f64 = offered
            .iter()
            .map(|m| (m.rows * m.cols * Fixed64::BYTES) as f64)
            .sum();
        let sent: f64 = offered.iter().map(|m| m.wire_bytes as f64).sum();
        out.insert("net.compress.busy_ms_per_op", compress_ms);
        out.insert(
            "net.compress.delta_hit_ratio",
            ratio(net.delta_hits, (offered.len() * self.passes) as f64),
        );
        // No saving where nothing was offered.
        out.insert(
            "net.compress.saved_ratio",
            ratio(dense - sent, dense).max(0.0),
        );
        let reliable_ms = (net.reliable_ms - net.codec_ms).max(0.0) * per_op;
        out.insert("net.reliable.busy_ms_per_op", reliable_ms);
        out.insert("net.reliable.retransmits", net.retransmits);

        let mut attributed = 0.0;
        for (name, ms) in [
            ("tensor.gemm.share", gemm_ms),
            ("parallel.rng.share", rng_ms),
            ("mpc.triple.share", triple_excl_ms),
            ("mpc.protocol.share", protocol_ms),
            ("mpc.share.share", share_excl_ms),
            ("net.codec.share", codec_ms),
            ("net.compress.share", compress_ms),
            ("net.reliable.share", reliable_ms),
            ("gpu.device.share", gpu_ms),
        ] {
            let s = ratio(ms, self.op_ms);
            out.insert(name, s);
            attributed += s;
        }
        out.insert("unattributed.share", 1.0 - attributed);

        // What the engine calls cost beyond the layers they call into.
        // Triples and their draws are below the engine only when it makes
        // them inline; the provider thread makes them otherwise, and a
        // reused triple is not made at all.
        let inline_triples = !self.cfg.prefetch && !self.cfg.insecure_reuse_triples;
        let below = gemm_ms
            + protocol_ms
            + share_excl_ms
            + rng_inputs_ms * per_op
            + codec_ms
            + compress_ms
            + reliable_ms
            + gpu_ms
            + if inline_triples {
                triple_excl_ms + rng_triples_ms * per_op
            } else {
                0.0
            };
        let engine_ms = (engine.mul_ms + engine.activation_ms + engine.share_reveal_ms) * per_op;
        out.insert("core.engine.secure_mul_ms_per_op", engine.mul_ms * per_op);
        out.insert(
            "core.engine.activation_ms_per_op",
            engine.activation_ms * per_op,
        );
        out.insert(
            "core.engine.share_reveal_ms_per_op",
            engine.share_reveal_ms * per_op,
        );
        out.insert("core.engine.report_assemble_us", engine.report_us);
        out.insert(
            "core.engine.self_share",
            ratio((engine_ms - below).max(0.0), self.op_ms),
        );
        out.insert(
            "core.trainer.self_share",
            ratio((self.op_ms - engine_ms).max(0.0), self.op_ms),
        );
    }

    /// compute1, reconstruction and compute2 of every multiplication:
    /// `mpc.protocol`, `tensor.gemm` and (for GPU placements) `gpu.device`.
    fn online_products(&self, spans: &mut Spans, root: usize, rng: &mut Mt19937) -> Online {
        let mut t = Online::default();
        for pass in 0..self.passes {
            for (i, mul) in self.profile.muls.iter().enumerate() {
                let (m, k, n) = (mul.m, mul.k, mul.n);
                let spec = TripleSpec::Gemm { m, k, n };
                let seq = (pass * self.profile.muls.len() + i) as u64;
                let (t0, t1) =
                    gen_triple_streamed::<Fixed64>(spec, self.seed as u64, seq, gemm_auto)
                        .into_shares();
                let z = [t0.z.clone(), t1.z.clone()];
                let a = [ring(m, k, rng), ring(m, k, rng)];
                let b = [ring(k, n, rng), ring(k, n, rng)];
                let s0 = ServerMulSession::new(Party::P0, a[0].clone(), b[0].clone(), t0);
                let s1 = ServerMulSession::new(Party::P1, a[1].clone(), b[1].clone(), t1);
                let (((e0, f0), (e1, f1)), ms) =
                    spans.timed("mpc.protocol.masked", Some(root), seq, || {
                        (s0.masked(), s1.masked())
                    });
                t.mask_ms += ms;
                // Each server adds its own and its peer's masked shares.
                let ((e, f), ms) =
                    spans.timed("mpc.protocol.reconstruct_public", Some(root), seq, || {
                        black_box((
                            psml_mpc::protocol::reconstruct_public(&e1, &e0),
                            psml_mpc::protocol::reconstruct_public(&f1, &f0),
                        ));
                        (
                            psml_mpc::protocol::reconstruct_public(&e0, &e1),
                            psml_mpc::protocol::reconstruct_public(&f0, &f1),
                        )
                    });
                t.reconstruct_ms += ms;
                if mul.gpu {
                    t.gpu_ms += self.gpu_product(spans, root, seq, &e, &f, &a, &b, &z);
                    continue;
                }
                let (fp, ms) = spans.timed("tensor.gemm.pack_b_auto", Some(root), seq, || {
                    pack_b_auto(&f, m)
                });
                t.pack_ms += ms;
                let (_, ms) =
                    spans.timed("mpc.protocol.finish_packed_auto", Some(root), seq, || {
                        black_box((
                            s0.finish_packed_auto(&e, &fp),
                            s1.finish_packed_auto(&e, &fp),
                        ))
                    });
                t.finish_ms += ms;
                // The same fused product without the protocol around it.
                let (_, ms) = spans.timed("tensor.gemm.packed_sum_auto", Some(root), seq, || {
                    for i in 0..2 {
                        let bp = fp.pack_matching(&b[i]);
                        black_box(gemm_packed_sum_auto(&[(&a[i], &fp), (&e, &bp)]));
                    }
                });
                t.kernel_ms += ms;
            }
        }
        t
    }

    /// One server pair's Fig. 5 sequence on the simulated device.
    #[allow(clippy::too_many_arguments)]
    fn gpu_product(
        &self,
        spans: &mut Spans,
        root: usize,
        seq: u64,
        e: &Ring,
        f: &Ring,
        a: &[Ring; 2],
        b: &[Ring; 2],
        z: &[Ring; 2],
    ) -> f64 {
        let mode = self.cfg.gpu_gemm_mode();
        let mut dev = GpuDevice::<Fixed64>::with_backend(
            self.cfg.machine.gpu.clone(),
            backend_for::<Fixed64>(BackendKind::Simulated),
        );
        let (_, ms) = spans.timed("gpu.device", Some(root), seq, || {
            for i in 0..2 {
                let at = SimTime::ZERO;
                let he = dev.upload(e, at).expect("upload E");
                let ha = dev.upload(&a[i], at).expect("upload A");
                let hf = dev.upload(f, at).expect("upload F");
                let hdf = dev.gemm(ha, hf, mode).expect("gemm D*F");
                let hb = dev.upload(&b[i], at).expect("upload B");
                let heb = dev.gemm(he, hb, mode).expect("gemm E*B");
                let hz = dev.upload(&z[i], at).expect("upload Z");
                let hsum = dev.add(hdf, heb).expect("add");
                let hc = dev.add(hsum, hz).expect("add Z");
                black_box(dev.download(hc).expect("download C"));
                for h in [he, ha, hf, hdf, hb, heb, hz, hsum, hc] {
                    let _ = dev.free(h);
                }
            }
        });
        ms
    }

    /// Every random matrix the op draws: triple masks and input masks.
    /// Returns `(triple ms, input ms, fill_u64 Melem/s)`.
    fn random_draws(&self, spans: &mut Spans, root: usize, rng: &mut Mt19937) -> (f64, f64, f64) {
        let p = self.profile;
        let mut elems = 0usize;
        let (_, triples_ms) =
            spans.timed("parallel.rng.random_matrix[triples]", Some(root), 0, || {
                for _ in 0..self.passes {
                    for spec in &p.triples {
                        for (r, c) in [
                            spec.u_shape(),
                            spec.v_shape(),
                            spec.u_shape(),
                            spec.v_shape(),
                            spec.z_shape(),
                        ] {
                            black_box(ring(r, c, rng));
                        }
                    }
                }
            });
        let (_, inputs_ms) =
            spans.timed("parallel.rng.random_matrix[inputs]", Some(root), 0, || {
                for _ in 0..self.passes {
                    for &(r, c) in &p.inputs {
                        black_box(ring(r, c, rng));
                        elems += r * c;
                    }
                }
            });
        elems += self.passes * p.triples.iter().map(|t| t.random_elems()).sum::<usize>();
        if elems == 0 {
            return (triples_ms, inputs_ms, 0.0);
        }
        let mut buf = vec![0u64; elems];
        let (_, fill_ms) = spans.timed("parallel.rng.fill_u64", Some(root), 0, || {
            rng.fill_u64(black_box(&mut buf))
        });
        black_box(&buf);
        (triples_ms, inputs_ms, elems as f64 / fill_ms / 1e3)
    }

    fn triples(&self, spans: &mut Spans, root: usize) -> f64 {
        let p = self.profile;
        let (_, ms) = spans.timed("mpc.triple.gen_triple_streamed", Some(root), 0, || {
            for pass in 0..self.passes {
                for (i, &spec) in p.triples.iter().enumerate() {
                    let seq = (pass * p.triples.len() + i) as u64;
                    black_box(gen_triple_streamed::<Fixed64>(
                        spec,
                        self.seed as u64,
                        seq,
                        gemm_auto,
                    ));
                }
            }
        });
        ms
    }

    fn shares(&self, spans: &mut Spans, root: usize, rng: &mut Mt19937) -> f64 {
        let p = self.profile;
        let inputs: Vec<PlainMatrix> = p.inputs.iter().map(|&(r, c)| plain(r, c)).collect();
        let revealed: Vec<(Ring, Ring)> = p
            .reveals
            .iter()
            .map(|&(r, c)| (ring(r, c, rng), ring(r, c, rng)))
            .collect();
        let (_, ms) = spans.timed("mpc.share.split+reconstruct", Some(root), 0, || {
            for _ in 0..self.passes {
                for m in &inputs {
                    black_box(SharePair::<Fixed64>::split(m, rng));
                }
                for (s0, s1) in &revealed {
                    black_box(SharePair::from_shares(s0.clone(), s1.clone()).reconstruct());
                }
            }
        });
        ms
    }

    /// Every message of the op through the delta encoder (where the engine
    /// offers it), the codec, and the reliable channel.
    fn network(&self, spans: &mut Spans, root: usize, rng: &mut Mt19937) -> Network {
        let mut t = Network::default();
        let mut net = build_network::<Fixed64>(self.cfg.machine.network);
        let mut chan = ReliableChannel::new(self.cfg.retry);
        for pass in 0..self.passes {
            for (i, msg) in self.profile.msgs.iter().enumerate() {
                let seq = (pass * self.profile.msgs.len() + i) as u64;
                let payload = if msg.delta_stream && self.cfg.compression {
                    self.through_delta(spans, root, seq, msg, rng, &mut t)
                } else {
                    Payload::Dense(ring(msg.rows, msg.cols, rng))
                };
                let (_, ms) = spans.timed("net.codec", Some(root), seq, || {
                    let bytes = codec::encode(&payload);
                    let frame = codec::encode_frame(seq, &bytes);
                    let (_, body) = codec::decode_frame(&frame).expect("own frame decodes");
                    black_box(codec::decode::<Fixed64>(body).expect("own payload decodes"));
                });
                t.codec_ms += ms;
                let (from, to) = (msg.from.index(), msg.to.index());
                let (snd, rcv) = pair_mut(&mut net, from, to);
                let (mut t_snd, mut t_rcv) = (SimTime::ZERO, SimTime::ZERO);
                let (_, ms) = spans.timed("net.reliable.transfer", Some(root), seq, || {
                    black_box(
                        chan.transfer(snd, &mut t_snd, rcv, &mut t_rcv, &payload)
                            .expect("fault-free transfer"),
                    );
                });
                t.reliable_ms += ms;
            }
        }
        t.retransmits = chan.stats().retransmits as f64;
        t
    }

    /// One stream's steady state: the mirror holds the previous matrix and
    /// the next one differs in as many places as the real delta did.
    fn through_delta(
        &self,
        spans: &mut Spans,
        root: usize,
        seq: u64,
        msg: &Msg,
        rng: &mut Mt19937,
        t: &mut Network,
    ) -> Payload<Fixed64> {
        let prev = ring(msg.rows, msg.cols, rng);
        let next = match msg.nnz {
            None => ring(msg.rows, msg.cols, rng),
            Some(nnz) => {
                let mut data = prev.as_slice().to_vec();
                let len = data.len();
                for j in 0..nnz.min(len) {
                    let at = j * len / nnz;
                    data[at] = Fixed64::from_bits64(data[at].to_bits64().wrapping_add(1));
                }
                Matrix::from_vec(msg.rows, msg.cols, data)
            }
        };
        let mut enc = DeltaEncoder::<Fixed64>::with_threshold(self.cfg.sparsity_threshold);
        let mut dec = DeltaDecoder::<Fixed64>::default();
        dec.decode(enc.encode(&prev))
            .expect("first matrix is sent in full");
        let (form, enc_ms) =
            spans.timed("net.compress.encode", Some(root), seq, || enc.encode(&next));
        let payload = match &form {
            TransmitForm::Full(m) => Payload::Dense(m.clone()),
            TransmitForm::Delta(c) => {
                t.delta_hits += 1.0;
                Payload::SparseDelta(c.clone())
            }
        };
        let (_, dec_ms) = spans.timed("net.compress.decode", Some(root), seq, || {
            black_box(dec.decode(form).expect("mirror in step"));
        });
        t.compress_ms += enc_ms + dec_ms;
        payload
    }

    /// The engine's own entry points at the op's shapes, on a fresh
    /// context of the op's configuration.
    fn engine(&self, spans: &mut Spans, root: usize) -> Engine {
        let p = self.profile;
        let mut t = Engine::default();
        let mut ctx = SecureContext::<Fixed64>::new(self.cfg.clone(), self.seed);
        let reuse = self.cfg.insecure_reuse_triples;
        let specs: Vec<TripleSpec> = p
            .muls
            .iter()
            .map(|m| TripleSpec::Gemm {
                m: m.m,
                k: m.k,
                n: m.n,
            })
            .collect();
        let inputs: Vec<PlainMatrix> = p.inputs.iter().map(|&(r, c)| plain(r, c)).collect();
        let mut operands = Vec::new();
        for m in &p.muls {
            let a = ctx.share_input(&plain(m.m, m.k)).expect("share A");
            let b = ctx.share_input(&plain(m.k, m.n)).expect("share B");
            operands.push((a, b));
        }
        let pre: Vec<_> = p
            .activations
            .iter()
            .map(|&(r, c)| ctx.share_input(&plain(r, c)).expect("share Z"))
            .collect();
        let outs: Vec<_> = p
            .reveals
            .iter()
            .map(|&(r, c)| ctx.share_input(&plain(r, c)).expect("share C"))
            .collect();
        let relu = |x: f64| x.max(0.0);
        let drelu = |x: f64| if x > 0.0 { 1.0 } else { 0.0 };
        if reuse {
            // Steady state under Eq. (11): triples cached, delta mirrors primed.
            for (i, (a, b)) in operands.iter().enumerate() {
                ctx.secure_mul_auto(a, b, &format!("l{i}.replay"))
                    .expect("prime mul");
            }
            for (i, z) in pre.iter().enumerate() {
                ctx.secure_activation(z, relu, drelu, &format!("l{i}.act"))
                    .expect("prime activation");
            }
        }
        for pass in 0..self.passes {
            let op = pass as u64;
            let (_, ms) = spans.timed("core.engine.share_input", Some(root), op, || {
                for m in &inputs {
                    black_box(ctx.share_input(m).expect("share input"));
                }
            });
            t.share_reveal_ms += ms;
            for (i, (mul, (a, b))) in p.muls.iter().zip(&operands).enumerate() {
                // Run each product twice and time the second: the first
                // leaves the allocator as a steady-state step finds it, and
                // gives the provider (if any) its lead on the second triple.
                ctx.schedule_triples(&[specs[i], specs[i]]);
                for warm in [true, false] {
                    // Under reuse an operand whose masked form went out in
                    // full is re-shared, so the replayed exchange is full too.
                    let a = if reuse && !mul.e_sparse {
                        ctx.share_input(&plain(mul.m, mul.k)).expect("share A")
                    } else {
                        a.clone()
                    };
                    let b = if reuse && !mul.f_sparse {
                        ctx.share_input(&plain(mul.k, mul.n)).expect("share B")
                    } else {
                        b.clone()
                    };
                    let (_, ms) =
                        spans.timed("core.engine.secure_mul_auto", Some(root), op, || {
                            black_box(
                                ctx.secure_mul_auto(&a, &b, &format!("l{i}.replay"))
                                    .expect("secure mul"),
                            );
                        });
                    if !warm {
                        t.mul_ms += ms;
                    }
                }
            }
            let (_, ms) = spans.timed("core.engine.secure_activation", Some(root), op, || {
                for (i, z) in pre.iter().enumerate() {
                    black_box(
                        ctx.secure_activation(z, relu, drelu, &format!("l{i}.act"))
                            .expect("activation"),
                    );
                }
            });
            t.activation_ms += ms;
            let (_, ms) = spans.timed("core.engine.reveal", Some(root), op, || {
                for c in &outs {
                    black_box(ctx.reveal(c).expect("reveal"));
                }
            });
            t.share_reveal_ms += ms;
        }
        const REPORTS: usize = 200;
        let (_, ms) = spans.timed("core.engine.report", Some(root), 0, || {
            for _ in 0..REPORTS {
                black_box(ctx.report());
            }
        });
        t.report_us = ms * 1e3 / REPORTS as f64;
        t
    }

    /// The provider fed the op's schedule with a consumer that does
    /// nothing but take: how fast the offline phase alone can go.
    fn provider(&self, spans: &mut Spans, root: usize, out: &mut Layers) {
        let p = self.profile;
        if !self.cfg.prefetch || p.triples.is_empty() {
            return;
        }
        let specs: Vec<TripleSpec> = (0..self.passes)
            .flat_map(|_| p.triples.iter().copied())
            .collect();
        let provider = TripleProvider::<Fixed64>::new(self.seed as u64, self.cfg.prefetch_depth);
        let (_, ms) = spans.timed("core.provider.schedule+take", Some(root), 0, || {
            provider.schedule(&specs);
            for (seq, &spec) in specs.iter().enumerate() {
                black_box(
                    provider
                        .take(seq as u64, spec)
                        .expect("provider delivers its schedule"),
                );
            }
        });
        let fill_ms = ms / self.passes as f64;
        out.insert("core.provider.fill_ms_per_op", fill_ms);
        out.insert("core.provider.triples_per_s", specs.len() as f64 / ms * 1e3);
        out.insert("core.provider.headroom", self.op_ms / fill_ms);
    }
}

#[derive(Default)]
struct Online {
    mask_ms: f64,
    reconstruct_ms: f64,
    pack_ms: f64,
    finish_ms: f64,
    kernel_ms: f64,
    gpu_ms: f64,
}

#[derive(Default)]
struct Network {
    codec_ms: f64,
    compress_ms: f64,
    reliable_ms: f64,
    delta_hits: f64,
    retransmits: f64,
}

#[derive(Default)]
struct Engine {
    mul_ms: f64,
    activation_ms: f64,
    share_reveal_ms: f64,
    report_us: f64,
}

fn pair_mut<T>(xs: &mut [T; 3], i: usize, j: usize) -> (&mut T, &mut T) {
    assert_ne!(i, j, "a node does not send to itself");
    if i < j {
        let (lo, hi) = xs.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = xs.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

/// Fixed-cost probes that do not depend on the workload's shapes:
/// pool dispatch, simulated-resource scheduling, the disabled trace path.
pub fn fixed_costs(spans: &mut Spans, out: &mut Layers) {
    const ROUNDS: usize = 2000;
    let workers = psml_parallel::global_pool().workers();
    // Long enough that every worker and the caller get a chunk.
    let mut data = vec![0u32; psml_parallel::CACHE_LINE_F32 * (workers + 1) * 4];
    let mut round_us = Vec::with_capacity(ROUNDS);
    spans.timed("parallel.pool.for_each_chunk_mut_pooled", None, 0, || {
        for _ in 0..ROUNDS {
            let t = std::time::Instant::now();
            psml_parallel::for_each_chunk_mut_pooled(
                &mut data,
                psml_parallel::CACHE_LINE_F32,
                |_, chunk| {
                    black_box(chunk);
                },
            );
            round_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    });
    out.insert("parallel.pool.dispatch_us", crate::stats::median(&round_us));
    out.insert("parallel.pool.workers", workers as f64);

    const SCHEDULES: usize = 200_000;
    let mut cpu = Resource::new("bench");
    let dur = SimDuration::from_micros(1.0);
    let (_, ms) = spans.timed("simtime.Resource::schedule", None, 0, || {
        let mut ready = SimTime::ZERO;
        for _ in 0..SCHEDULES {
            ready = black_box(cpu.schedule(ready, dur)).1;
        }
    });
    out.insert("simtime.schedule_ns", ms * 1e6 / SCHEDULES as f64);

    const SPANS: usize = 2_000_000;
    assert!(
        !TraceSink::is_enabled(),
        "the disabled path is what is measured"
    );
    let (_, ms) = spans.timed("trace.sink.span[disabled]", None, 0, || {
        for i in 0..SPANS as u64 {
            TraceSink::span(black_box("probe"), black_box("bench"), i, i + 1, 0);
        }
    });
    out.insert("trace.sink.disabled_ns_per_span", ms * 1e6 / SPANS as f64);
}
