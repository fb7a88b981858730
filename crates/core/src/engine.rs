//! The secure execution engine: one client, two servers, simulated time.
//!
//! # Execution model
//!
//! All three parties run in-process; every matrix operation *really
//! executes* (so results are verifiable against plaintext), while simulated
//! clocks advance on each party's resources — CPU, GPU engines (via
//! `psml-gpu`), and NIC (via `psml-net`).
//!
//! Phases follow SecureML's offline/online split strictly: offline work
//! (share and triple generation + distribution) is timed on the *client's*
//! resources and the client->server links; online work is timed on the
//! *servers'* resources and the server<->server link. The offline phase
//! completes before the online phase begins, so data produced offline is
//! ready at online `t = 0`.
//!
//! # Dataflow timing and the double pipeline
//!
//! Every share carries the simulated instant it becomes valid
//! ([`Timed`]). Operations start at the max of their operands' ready times
//! and their resource's availability — so with `pipeline: true` the Fig. 5
//! overlap (H2D copies under kernels) and the Fig. 6 overlap (reconstruct
//! of one step under the GPU operation of another) emerge from dataflow.
//! With `pipeline: false` the engine inserts a device fence and a CPU/NIC
//! barrier after every step, reproducing the serialized baseline.
//!
//! # Seams
//!
//! Bytes move through `Wire::ship`, the client's CPU-or-GPU decision is
//! `charge_client_step`, a call site's triple comes from `triple_for`, a
//! local step on both servers is `per_server`. Callers keep what differs:
//! which clocks a transfer advances and which phase it is booked to.

use crate::adaptive::{AdaptiveEngine, Placement};
use crate::config::EngineConfig;
use crate::error::{EngineError, Result};
use crate::provider::{ProviderStats, TripleProvider};
use crate::report::{PhaseBreakdown, RunReport};
use psml_gpu::kernels::device_random;
use psml_gpu::{GemmMode, GpuDevice, GpuElement, GpuError};
use psml_mpc::protocol::{finish, finish_hadamard, finish_packed, mask, reconstruct_public};
use psml_mpc::{
    gen_triple_streamed, BeaverTriple, EvalStrategy, Party, PlainMatrix, SecureRing, TripleShare,
    TripleSpec,
};
use psml_net::{
    build_network, DeltaDecoder, DeltaEncoder, Endpoint, FaultCounters, NetError, NodeId, Packet,
    Payload, ReliableChannel, TrafficStats, TransmitForm,
};
use psml_parallel::Mt19937;
use psml_simtime::{Resource, SimDuration, SimTime};
use psml_tensor::{gemm_auto, pack_b_auto, AutoPackedB, Matrix};
use psml_trace::{ns_of_secs, Phase, TraceEvent, TraceSink};
use std::collections::HashMap;
use std::rc::Rc;

/// Layer index encoded in a stream key (`"l3.fwd"` -> `Some(3)`).
fn layer_of_key(key: &str) -> Option<u32> {
    let rest = key.strip_prefix('l')?;
    let digits: &str = &rest[..rest.bytes().take_while(u8::is_ascii_digit).count()];
    digits.parse().ok()
}

// Per-call-site logical channels. A delta-compression stream (and its
// encoder/decoder state) is identified by `stream_id(site, CHAN_*)` — a
// u64 computed from the interned call-site id, so the per-multiplication
// `format!("{key}.E")` string allocations of the old design are gone.
const CHAN_E: u64 = 0;
const CHAN_F: u64 = 1;
const CHAN_ACT: u64 = 2;
const CHAN_HAD_E: u64 = 3;
const CHAN_HAD_F: u64 = 4;

#[inline]
fn stream_id(site: u32, chan: u64) -> u64 {
    ((site as u64) << 3) | chan
}

/// The two servers' node ids, indexed like [`SecureContext`]'s `servers`.
const SERVER: [NodeId; 2] = [NodeId::Server0, NodeId::Server1];

/// Records one engine-level phase span (no-op unless tracing is enabled).
#[allow(clippy::too_many_arguments)] // a span is wide: op, lane, interval, shape
fn trace_phase(
    op: &str,
    phase: Phase,
    layer: Option<u32>,
    start: SimTime,
    end: SimTime,
    shape: Option<[u32; 3]>,
    placement: Option<&'static str>,
    bytes: usize,
) {
    if !TraceSink::is_enabled() {
        return;
    }
    TraceSink::record(TraceEvent {
        phase,
        op: op.to_string(),
        track: "engine".to_string(),
        layer,
        shape,
        placement,
        start_ns: ns_of_secs(start.as_secs()),
        end_ns: ns_of_secs(end.as_secs()),
        wall_ns: 0,
        bytes: bytes as u64,
    });
}

/// A value plus the simulated instant it becomes available.
#[derive(Clone, Debug)]
pub struct Timed<T> {
    /// The value.
    pub v: T,
    /// When it is ready on its party's clock.
    pub ready: SimTime,
}

impl<T> Timed<T> {
    /// A value ready at `t = 0`.
    pub fn at_zero(v: T) -> Self {
        Timed {
            v,
            ready: SimTime::ZERO,
        }
    }
}

/// When the later of two parts is ready.
fn latest<T>(parts: &[Timed<T>; 2]) -> SimTime {
    parts[0].ready.max(parts[1].ready)
}

/// A matrix additively shared between the two servers, each share tagged
/// with its readiness on that server's online clock.
#[derive(Clone)]
pub struct SharedMatrix<R: SecureRing> {
    parts: [Timed<Matrix<R>>; 2],
}

/// Redacting formatter: shape, readiness, and ring — never the share
/// limbs, which are one-time-pad halves of the underlying secret.
impl<R: SecureRing> std::fmt::Debug for SharedMatrix<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedMatrix")
            .field("shape", &self.shape())
            .field("ready", &self.ready())
            .field("ring", &std::any::type_name::<R>())
            .finish_non_exhaustive()
    }
}

impl<R: SecureRing> SharedMatrix<R> {
    /// Wraps two server-resident shares, `[server0's, server1's]`.
    pub fn new(parts: [Timed<Matrix<R>>; 2]) -> Self {
        assert_eq!(parts[0].v.shape(), parts[1].v.shape(), "share shape mismatch");
        SharedMatrix { parts }
    }

    /// The share held by `party`.
    pub fn part(&self, party: Party) -> &Timed<Matrix<R>> {
        &self.parts[party.index()]
    }

    /// Logical `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        self.parts[0].v.shape()
    }

    /// When each server's share is ready.
    fn ready(&self) -> [SimTime; 2] {
        [self.parts[0].ready, self.parts[1].ready]
    }

    /// Diagnostic reconstruction (test use — a real deployment never holds
    /// both shares in one place outside the client).
    pub fn reveal_insecure(&self) -> PlainMatrix {
        R::decode_matrix(&self.parts[0].v.add(&self.parts[1].v))
    }
}

/// A distributed Beaver triple: each server's `TripleShare` with readiness.
/// Not `Clone`: multiplications borrow it, the reuse cache shares an `Rc`.
pub struct DistTriple<R: SecureRing> {
    shares: [Timed<TripleShare<R>>; 2],
    dims: (usize, usize, usize),
}

/// Redacting formatter: dimensions, readiness, and ring only.
impl<R: SecureRing> std::fmt::Debug for DistTriple<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistTriple")
            .field("dims", &self.dims)
            .field("ready", &[self.shares[0].ready, self.shares[1].ready])
            .field("ring", &std::any::type_name::<R>())
            .finish_non_exhaustive()
    }
}

impl<R: SecureRing> DistTriple<R> {
    /// `(m, k, n)` of the product this triple serves.
    pub fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }
}

/// One server's `(E, F)` pair — its masked operands before the exchange,
/// the reconstructed public pair after it — with its readiness there.
type Masked<R> = Timed<(Matrix<R>, Matrix<R>)>;

/// The three NICs and the ack/retransmit channel over them: the only
/// place the engine moves bytes. With an empty fault plan the channel
/// degenerates to bare send/recv (no ack traffic, no timing change).
struct Wire<R: SecureRing + GpuElement> {
    /// `[client, server0, server1]`, indexed by [`NodeId::index`].
    endpoints: [Endpoint<R>; 3],
    reliable: ReliableChannel,
}

/// The sending and the receiving endpoint of one transfer.
fn pair<T>(mesh: &mut [T; 3], from: NodeId, to: NodeId) -> Result<[&mut T; 2]> {
    let pair = mesh.get_disjoint_mut([from.index(), to.index()]);
    pair.map_err(|_| NetError::SelfSend.into())
}

impl<R: SecureRing + GpuElement> Wire<R> {
    /// Reliable transfer of `payload` between two of the three nodes. The
    /// clocks are the parties' instants for *this* transfer (running or
    /// scratch: the caller's business), advanced past all it needed.
    fn ship(
        &mut self,
        from: NodeId,
        from_clock: &mut SimTime,
        to: NodeId,
        to_clock: &mut SimTime,
        payload: &Payload<R>,
    ) -> Result<Packet<R>> {
        let [snd, rcv] = pair(&mut self.endpoints, from, to)?;
        Ok(self.reliable.transfer(snd, from_clock, rcv, to_clock, payload)?)
    }

    /// [`Wire::ship`] where a dense matrix must land: what arrived, and
    /// when. The sender's copy stays in `payload`, to keep or to drop.
    fn ship_dense(
        &mut self,
        from: NodeId,
        from_clock: &mut SimTime,
        to: NodeId,
        to_clock: &mut SimTime,
        payload: &Payload<R>,
    ) -> Result<Timed<Matrix<R>>> {
        let pkt = self.ship(from, from_clock, to, to_clock, payload)?;
        match pkt.payload {
            Payload::Dense(v) => Ok(Timed {
                v,
                ready: pkt.available_at,
            }),
            other => Err(EngineError::Protocol(format!(
                "expected a dense matrix from {from:?}, got {}",
                other.kind()
            ))),
        }
    }

    /// The charge half of [`Wire::ship_dense`] for a `rows x cols` matrix,
    /// alone: nothing is encoded, framed, checksummed or copied. Fault-free
    /// links only. Returns the arrival instant.
    fn ship_accounted(
        &mut self,
        from: NodeId,
        from_clock: &mut SimTime,
        to: NodeId,
        to_clock: &mut SimTime,
        rows: usize,
        cols: usize,
    ) -> Result<SimTime> {
        let [snd, rcv] = pair(&mut self.endpoints, from, to)?;
        Ok(self.reliable.transfer_accounted(snd, from_clock, rcv, to_clock, rows, cols)?)
    }
}

struct ClientState<R: SecureRing + GpuElement> {
    cpu: Resource,
    device: GpuDevice<R>,
    now: SimTime,
}

struct ServerState<R: SecureRing + GpuElement> {
    cpu: Resource,
    device: GpuDevice<R>,
    encoders: HashMap<u64, DeltaEncoder<R>>,
    decoders: HashMap<u64, DeltaDecoder<R>>,
    end: SimTime,
}

impl<R: SecureRing + GpuElement> ServerState<R> {
    fn note(&mut self, t: SimTime) -> SimTime {
        self.end = self.end.max(t);
        t
    }
}

/// The three-party secure execution context.
pub struct SecureContext<R: SecureRing + GpuElement> {
    cfg: EngineConfig,
    adaptive: AdaptiveEngine,
    rng: Mt19937,
    client: ClientState<R>,
    servers: [ServerState<R>; 2],
    /// Every protocol transfer goes through here.
    wire: Wire<R>,
    breakdown: PhaseBreakdown,
    offline_end: SimTime,
    secure_muls: usize,
    curand_seed: u64,
    /// Master seed of the counter-derived triple streams: triple `seq`
    /// draws from `Mt19937::from_stream(master_seed, seq)` in both
    /// prefetch modes, which is what makes them bit-identical.
    master_seed: u64,
    /// Global sequence number of the next provisioned triple.
    triple_seq: u64,
    /// The asynchronous provisioning pipeline (prefetch mode only).
    provider: Option<TripleProvider<R>>,
    /// Interned call-site keys; protocol hot paths key caches and
    /// compression streams on the `u32` id, never on a fresh `String`.
    site_names: HashMap<String, u32>,
    triple_cache: HashMap<(u32, TripleSpec), Rc<DistTriple<R>>>,
    /// How many multiplications were served a *cached* triple (only ever
    /// non-zero under `insecure_reuse_triples`; surfaces as a
    /// [`RunReport::warnings`] entry).
    triple_reuses: usize,
    activation_roundtrips: usize,
}

impl<R: SecureRing + GpuElement> SecureContext<R> {
    /// Builds a context with the given configuration and client RNG seed.
    ///
    /// # Panics
    ///
    /// If `cfg` fails [`EngineConfig::validate`]. [`crate::SecureTrainer::new`]
    /// (and through it the serving and session layers) validates first
    /// and returns [`EngineError::Config`] instead.
    pub fn new(cfg: EngineConfig, seed: u32) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid engine configuration: {e}");
        }
        let mut endpoints = build_network::<R>(cfg.machine.network);
        for ep in &mut endpoints {
            ep.install_faults(&cfg.fault_plan);
        }
        let mk_server = || ServerState {
            cpu: Resource::new("cpu"),
            device: GpuDevice::new(cfg.machine.gpu.clone()),
            encoders: HashMap::new(),
            decoders: HashMap::new(),
            end: SimTime::ZERO,
        };
        let mut ctx = SecureContext {
            adaptive: AdaptiveEngine::with_window(cfg.policy, cfg.recal_window),
            rng: psml_parallel::protocol_rng(seed),
            client: ClientState {
                cpu: Resource::new("client-cpu"),
                device: GpuDevice::new(cfg.machine.gpu.clone()),
                now: SimTime::ZERO,
            },
            servers: [mk_server(), mk_server()],
            wire: Wire {
                endpoints,
                reliable: ReliableChannel::new(cfg.retry),
            },
            breakdown: PhaseBreakdown::default(),
            offline_end: SimTime::ZERO,
            secure_muls: 0,
            curand_seed: seed as u64,
            master_seed: seed as u64,
            triple_seq: 0,
            provider: if cfg.prefetch {
                Some(TripleProvider::new(seed as u64, cfg.prefetch_depth))
            } else {
                None
            },
            site_names: HashMap::new(),
            triple_cache: HashMap::new(),
            triple_reuses: 0,
            activation_roundtrips: 0,
            cfg,
        };
        ctx.client.device.set_trace_scope("client");
        ctx.servers[0].device.set_trace_scope("server0");
        ctx.servers[1].device.set_trace_scope("server1");
        ctx
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    // ---------------------------------------------------------------
    // Offline phase (client resources, client->server links)
    // ---------------------------------------------------------------

    /// Books `dur` of client CPU work.
    fn client_cpu_for(&mut self, dur: SimDuration) {
        let (_, end) = self.client.cpu.schedule(self.client.now, dur);
        self.client.now = self.client.now.max(end);
        self.breakdown.share_generation += dur;
    }

    /// Charges client CPU time for an element-wise pass over `bytes`.
    fn client_cpu(&mut self, bytes: usize) {
        self.client_cpu_for(self.cfg.client_elementwise_time(bytes));
    }

    /// Books one client offline step on the cheaper of the client CPU and
    /// (when `gpu_offline` allows) the client GPU — the Fig. 7 decision —
    /// and says which. `on_device` charges the device timeline and returns
    /// when the data is back on the host.
    fn charge_client_step(
        &mut self,
        cpu_cost: SimDuration,
        gpu_cost: SimDuration,
        on_device: impl FnOnce(&mut GpuDevice<R>, SimTime) -> std::result::Result<SimTime, GpuError>,
    ) -> Result<Placement> {
        if self.cfg.gpu_offline && gpu_cost < cpu_cost {
            let done = on_device(&mut self.client.device, self.client.now)?;
            self.client.now = self.client.now.max(done);
            self.breakdown.share_generation += gpu_cost;
            Ok(Placement::Gpu)
        } else {
            self.client_cpu_for(cpu_cost);
            Ok(Placement::Cpu)
        }
    }

    /// Charges the client for drawing a `rows x cols` random matrix — on
    /// the CPU (parallel MT19937, Sec. 5.1) or the client GPU (cuRAND
    /// incl. D2H, Fig. 7), advancing `curand_seed` there. Triple material
    /// from a counter-derived stream is charged here too: simulated time
    /// must not depend on where the values were made.
    fn charge_client_random(&mut self, rows: usize, cols: usize) -> Result<Placement> {
        let n = rows * cols;
        let cpu_cost = self.cfg.client_rng_time(n);
        let gpu_cost = self.cfg.machine.gpu.rng_time(n)
            + self.cfg.machine.gpu.pcie.transfer_time(n * R::BYTES);
        let placed = self.charge_client_step(cpu_cost, gpu_cost, |dev, now| {
            dev.charge_random_roundtrip(rows, cols, now)
        })?;
        if placed == Placement::Gpu {
            self.curand_seed = self.curand_seed.wrapping_add(1);
        }
        Ok(placed)
    }

    /// Client-side randomness: the charge plus the values — the client's
    /// MT19937 on the CPU, the device counter stream of the just-advanced
    /// `curand_seed` on the GPU.
    fn client_random(&mut self, rows: usize, cols: usize) -> Result<Matrix<R>> {
        Ok(match self.charge_client_random(rows, cols)? {
            Placement::Gpu => device_random(rows, cols, self.curand_seed),
            Placement::Cpu => R::random_matrix(rows, cols, &mut self.rng),
        })
    }

    /// Charges the client for a triple's `Z = U x V` product.
    fn charge_client_product(&mut self, m: usize, k: usize, n: usize) -> Result<()> {
        let bytes = (m * k + k * n + m * n) * R::BYTES;
        // The client's triple product always runs on the plain or
        // Tensor-Core unit (never the quantized-ring charge model, which
        // only applies to server compute2 — see `gpu_gemm_mode`).
        let mode = if self.cfg.tensor_cores {
            GemmMode::TensorCore
        } else {
            GemmMode::Fp32
        };
        let cpu_cost = self.cfg.client_gemm_time(m, k, n);
        let gpu_cost = self.cfg.machine.gpu.gemm_time_mode(m, k, n, mode)
            + self.cfg.machine.gpu.pcie.transfer_time(bytes);
        self.charge_client_step(cpu_cost, gpu_cost, |dev, now| {
            dev.charge_gemm_roundtrip(m, k, n, mode, now)
        })?;
        Ok(())
    }

    /// Distributes a share pair to the two servers and advances offline
    /// accounting; returns what the servers then hold — the matrices that
    /// *landed* — ready at online zero (their online clocks are not
    /// advanced). When the material is already `held` there — prefetch
    /// derives it server-side — only the identical fault-free wire time is
    /// charged, no payload bytes move: that elision *is* the prefetch
    /// pipeline's host-side win.
    fn distribute(&mut self, shares: [Matrix<R>; 2], held: bool) -> Result<[Matrix<R>; 2]> {
        let start = self.client.now;
        let mut arrive = SimTime::ZERO;
        let mut send_to = |to: NodeId, share: Matrix<R>| -> Result<Matrix<R>> {
            let (now, mut srv_clock) = (&mut self.client.now, SimTime::ZERO);
            let landed = if held {
                let (rows, cols) = share.shape();
                let ready =
                    self.wire.ship_accounted(NodeId::Client, now, to, &mut srv_clock, rows, cols)?;
                Timed { v: share, ready }
            } else {
                let sent = Payload::Dense(share);
                let landed = self.wire.ship_dense(NodeId::Client, now, to, &mut srv_clock, &sent)?;
                debug_assert!(matches!(&sent, Payload::Dense(m) if *m == landed.v));
                landed
            };
            arrive = arrive.max(landed.ready);
            Ok(landed.v)
        };
        let [to_s0, to_s1] = shares;
        let landed = [send_to(SERVER[0], to_s0)?, send_to(SERVER[1], to_s1)?];
        self.breakdown.distribution += arrive.saturating_since(start.min(arrive));
        self.offline_end = self.offline_end.max(arrive).max(self.client.now);
        Ok(landed)
    }

    /// Offline: encodes a client plaintext and distributes its two shares
    /// (the Fig. 1b partitioning step).
    pub fn share_input(&mut self, m: &PlainMatrix) -> Result<SharedMatrix<R>> {
        let _offline = TraceSink::scope(Phase::Offline, None);
        let start = self.client.now;
        let secret = R::encode_matrix(m);
        let mask = self.client_random(m.rows(), m.cols())?;
        self.client_cpu(2 * secret.byte_size());
        let other = secret.sub(&mask);
        let landed = self.distribute([mask, other], false)?;
        trace_phase(
            "share_input",
            Phase::Offline,
            None,
            start,
            self.offline_end.max(self.client.now),
            Some([m.rows() as u32, 0, m.cols() as u32]),
            None,
            2 * m.rows() * m.cols() * R::BYTES,
        );
        Ok(SharedMatrix::new(landed.map(Timed::at_zero)))
    }

    /// Offline: generates one Beaver triple for an `(m x k) * (k x n)`
    /// product and distributes the shares.
    pub fn gen_triple(&mut self, m: usize, k: usize, n: usize) -> Result<DistTriple<R>> {
        self.provision_triple(TripleSpec::Gemm { m, k, n })
    }

    /// Declares upcoming triple shapes to the prefetch pipeline so it can
    /// generate them ahead of the multiplications that will consume them.
    /// No-op when prefetch is off. Order matters: triples are delivered
    /// in exactly this order, and a multiplication whose shape disagrees
    /// with the schedule is a protocol error.
    pub fn schedule_triples(&mut self, specs: &[TripleSpec]) {
        if let Some(p) = &self.provider {
            p.schedule(specs);
        }
    }

    /// Counters of the prefetch pipeline (deliveries, consumer stall,
    /// lookahead adopted and discarded, ready-queue high water); `None`
    /// when prefetch is off. Not part of [`RunReport`]: stall time is
    /// wall clock.
    pub fn provider_stats(&self) -> Option<ProviderStats> {
        self.provider.as_ref().map(TripleProvider::stats)
    }

    /// Charges the client-side compute of generating one triple —
    /// randomness, the `Z = U x V` product (or Hadamard pass), and the
    /// three share splits.
    fn charge_triple_compute(&mut self, spec: TripleSpec) -> Result<()> {
        let (ur, uc) = spec.u_shape();
        let (vr, vc) = spec.v_shape();
        self.charge_client_random(ur, uc)?;
        self.charge_client_random(vr, vc)?;
        match spec {
            TripleSpec::Gemm { m, k, n } => self.charge_client_product(m, k, n)?,
            TripleSpec::Hadamard { m, n } => self.client_cpu(3 * m * n * R::BYTES),
        }
        for (rows, cols) in [spec.u_shape(), spec.v_shape(), spec.z_shape()] {
            self.charge_client_random(rows, cols)?;
            self.client_cpu(2 * rows * cols * R::BYTES);
        }
        Ok(())
    }

    /// Provisions one Beaver triple: value material from the
    /// counter-derived stream `(master_seed, seq)` — produced ahead of
    /// time by the prefetch pipeline, or inline when prefetch is off —
    /// plus full offline accounting (client compute charges and share
    /// distribution). The two modes advance every simulated clock
    /// identically and yield bit-identical shares; prefetch merely
    /// removes the generation and wire-serialization work from the
    /// engine thread's wall-clock critical path.
    fn provision_triple(&mut self, spec: TripleSpec) -> Result<DistTriple<R>> {
        let _offline = TraceSink::scope(Phase::Offline, None);
        let t_start = self.client.now;
        let seq = self.triple_seq;
        self.triple_seq += 1;
        let triple: BeaverTriple<R> = match &self.provider {
            Some(p) => {
                let (triple, events) = p.take(seq, spec).map_err(EngineError::Protocol)?;
                TraceSink::adopt(events);
                triple
            }
            None => gen_triple_streamed(spec, self.master_seed, seq, gemm_auto),
        };
        self.charge_triple_compute(spec)?;

        let (s0, s1) = triple.into_shares();
        // Prefetched material is already server-side.
        let held = self.provider.is_some();
        let [u0, u1] = self.distribute([s0.u, s1.u], held)?;
        let [v0, v1] = self.distribute([s0.v, s1.v], held)?;
        let [z0, z1] = self.distribute([s0.z, s1.z], held)?;
        let shares = [(u0, v0, z0), (u1, v1, z1)].map(|(u, v, z)| TripleShare { u, v, z });
        let dims = spec.dims();
        trace_phase(
            "gen_triple",
            Phase::Offline,
            None,
            t_start,
            self.offline_end.max(self.client.now),
            Some([dims.0 as u32, dims.1 as u32, dims.2 as u32]),
            None,
            2 * (dims.0 * dims.1 + dims.1 * dims.2 + dims.0 * dims.2) * R::BYTES,
        );
        Ok(DistTriple {
            shares: shares.map(Timed::at_zero),
            dims,
        })
    }

    /// The triple a multiplication at `site` consumes. With
    /// [`EngineConfig::insecure_reuse_triples`] triples are cached per
    /// `(call site, shape)` and **reused across iterations** (the
    /// paper's Eq. (11) keeps `U_i` fixed across epochs so that `E`
    /// evolves by the sparse delta `dA` — the premise of the
    /// compressed-transmission design, and a deliberate information
    /// leak; see DESIGN.md). The offline cost is then paid once per call
    /// site. Without it, every multiplication consumes a fresh triple —
    /// which is what the prefetch pipeline provisions ahead of time. The
    /// cache and the multiplication share one allocation.
    fn triple_for(&mut self, site: u32, spec: TripleSpec) -> Result<Rc<DistTriple<R>>> {
        if !self.cfg.insecure_reuse_triples {
            return self.provision_triple(spec).map(Rc::new);
        }
        if let Some(cached) = self.triple_cache.get(&(site, spec)) {
            self.triple_reuses += 1;
            return Ok(Rc::clone(cached));
        }
        let fresh = Rc::new(self.provision_triple(spec)?);
        self.triple_cache.insert((site, spec), Rc::clone(&fresh));
        Ok(fresh)
    }

    /// Interns a call-site key, returning its stable `u32` id. Allocates
    /// once per distinct key for the context's lifetime.
    fn site_id(&mut self, key: &str) -> u32 {
        if let Some(&id) = self.site_names.get(key) {
            return id;
        }
        let id = u32::try_from(self.site_names.len()).expect("site count fits u32");
        self.site_names.insert(key.to_string(), id);
        id
    }

    // ---------------------------------------------------------------
    // Online phase (server resources, server<->server link)
    // ---------------------------------------------------------------

    fn cpu_dur(&self, bytes: usize) -> SimDuration {
        self.cfg.cpu_elementwise_time(bytes)
    }

    /// Schedules a CPU pass on one server.
    fn server_cpu(&mut self, i: usize, ready: SimTime, dur: SimDuration) -> SimTime {
        let (_, end) = self.servers[i].cpu.schedule(ready, dur);
        self.servers[i].note(end)
    }

    /// One local step on both servers: server `i` produces `f(i)` in a CPU
    /// pass of `dur` starting no earlier than `ready[i]`.
    fn per_server<T>(
        &mut self,
        ready: [SimTime; 2],
        dur: SimDuration,
        mut f: impl FnMut(usize) -> T,
    ) -> [Timed<T>; 2] {
        [0, 1].map(|i| Timed {
            v: f(i),
            ready: self.server_cpu(i, ready[i], dur),
        })
    }

    /// Global barrier on both servers (used between steps when the
    /// pipeline is disabled, and at batch boundaries).
    pub fn barrier(&mut self) -> SimTime {
        let mut t = SimTime::ZERO;
        for s in &mut self.servers {
            let dev = s.device.fence();
            t = t.max(dev).max(s.cpu.free_at()).max(s.end);
        }
        for s in &mut self.servers {
            s.end = s.end.max(t);
        }
        t
    }

    /// Moves one matrix from server `i` to its peer through the reliable
    /// channel, delta-compressing per `stream` on the way out and
    /// decoding on arrival (`stream` is a [`stream_id`] of the interned
    /// call site and a channel constant). `now` is the instant the data
    /// is ready on the sender.
    ///
    /// The stream is delta-encoded exactly once per logical transfer —
    /// retransmissions inside [`ReliableChannel::transfer`] resend the
    /// same payload bytes, so the receiver's mirror state advances once
    /// per call no matter how many frames the chaos layer eats.
    fn transfer_mat(
        &mut self,
        i: usize,
        stream: u64,
        m: &Matrix<R>,
        now: SimTime,
    ) -> Result<Timed<Matrix<R>>> {
        let payload = if self.cfg.compression {
            let enc = self.servers[i]
                .encoders
                .entry(stream)
                .or_insert_with(|| DeltaEncoder::with_threshold(self.cfg.sparsity_threshold));
            match enc.encode(m) {
                TransmitForm::Full(full) => Payload::Dense(full),
                TransmitForm::Delta(csr) => Payload::SparseDelta(csr),
            }
        } else {
            // `m` is only lent to us and a `Payload` owns its matrix.
            Payload::Dense(m.clone())
        };
        self.deliver(i, stream, &payload, now)
    }

    /// [`SecureContext::transfer_mat`] of a matrix the sender owns and
    /// keeps: with compression off it rides in the payload for the call
    /// and is moved back, where a lent one has to be copied.
    fn transfer_kept(
        &mut self,
        i: usize,
        stream: u64,
        m: &mut Matrix<R>,
        now: SimTime,
    ) -> Result<Timed<Matrix<R>>> {
        if self.cfg.compression {
            return self.transfer_mat(i, stream, m, now);
        }
        let payload = Payload::Dense(std::mem::replace(m, Matrix::zeros(0, 0)));
        let landed = self.deliver(i, stream, &payload, now);
        if let Payload::Dense(sent) = payload {
            *m = sent;
        }
        landed
    }

    /// The wire half of a transfer: ships `payload` from server `i` at
    /// `now` and applies what lands to the peer's `stream` decoder.
    fn deliver(
        &mut self,
        i: usize,
        stream: u64,
        payload: &Payload<R>,
        now: SimTime,
    ) -> Result<Timed<Matrix<R>>> {
        let j = 1 - i;
        let (mut snd_clock, mut rcv_clock) = (now, SimTime::ZERO);
        let (from, to) = (SERVER[i], SERVER[j]);
        let pkt = self.wire.ship(from, &mut snd_clock, to, &mut rcv_clock, payload)?;
        let form = match pkt.payload {
            Payload::Dense(m) => TransmitForm::Full(m),
            Payload::SparseDelta(c) => TransmitForm::Delta(c),
            Payload::Control(c) => {
                return Err(EngineError::Protocol(format!(
                    "unexpected control message '{c}'"
                )))
            }
        };
        let decoded = self.servers[j]
            .decoders
            .entry(stream)
            .or_default()
            .decode(form)
            .map_err(|e| EngineError::Protocol(e.to_string()))?;
        self.servers[i].note(snd_clock);
        self.servers[j].note(rcv_clock.max(pkt.available_at));
        Ok(Timed {
            v: decoded,
            ready: pkt.available_at,
        })
    }

    /// *compute1*, matmul or Hadamard alike: once it holds both operand
    /// shares and its triple share, each server runs [`mask`] in one CPU
    /// pass of `dur`. Also returns the earlier of the two start instants.
    fn mask_operands(
        &mut self,
        a: &SharedMatrix<R>,
        b: &SharedMatrix<R>,
        triple: &DistTriple<R>,
        dur: SimDuration,
    ) -> ([Masked<R>; 2], SimTime) {
        let (a, b, tri) = (&a.parts, &b.parts, &triple.shares);
        let ready = [0, 1].map(|i| a[i].ready.max(b[i].ready).max(tri[i].ready));
        self.breakdown.compute1 += dur;
        let masked = self.per_server(ready, dur, |i| mask(&a[i].v, &b[i].v, &tri[i].v));
        (masked, ready[0].min(ready[1]))
    }

    /// The exchange of *communicate*: each server ships its masked pair to
    /// its peer over the site's `chans` streams and opens what it receives
    /// with [`reconstruct_public`], so both hold the public `(E, F)` — ready
    /// when the later half lands; the additions are the caller's to charge.
    fn exchange_masked(
        &mut self,
        site: u32,
        chans: [u64; 2],
        mut masked: [Masked<R>; 2],
    ) -> Result<[Masked<R>; 2]> {
        let [on_e, on_f] = chans.map(|chan| stream_id(site, chan));
        let mut open = |i: usize| -> Result<Masked<R>> {
            let theirs = &mut masked[1 - i];
            let e = self.transfer_kept(1 - i, on_e, &mut theirs.v.0, theirs.ready)?;
            let f = self.transfer_kept(1 - i, on_f, &mut theirs.v.1, theirs.ready)?;
            let mine = &masked[i];
            Ok(Timed {
                v: (reconstruct_public(&mine.v.0, &e.v), reconstruct_public(&mine.v.1, &f.v)),
                ready: mine.ready.max(e.ready).max(f.ready),
            })
        };
        Ok([open(0)?, open(1)?])
    }

    /// One secure triplet multiplication (the paper's core operation):
    /// *compute1* -> *communicate* -> *compute2*, with the configured
    /// placement, pipeline and compression behavior. `key` identifies the
    /// logical stream for delta compression (e.g. `"l0.fwd"`).
    pub fn secure_mul(
        &mut self,
        a: &SharedMatrix<R>,
        b: &SharedMatrix<R>,
        triple: &DistTriple<R>,
        key: &str,
    ) -> Result<SharedMatrix<R>> {
        let (m, k) = a.shape();
        let (k2, n) = b.shape();
        if k != k2 {
            return Err(EngineError::Shape(format!(
                "secure_mul: {:?} x {:?}",
                a.shape(),
                b.shape()
            )));
        }
        if triple.dims != (m, k, n) {
            return Err(EngineError::Shape(format!(
                "triple dims {:?} do not match product ({m},{k},{n})",
                triple.dims()
            )));
        }
        self.secure_muls += 1;
        let layer = layer_of_key(key);
        let site = self.site_id(key);
        let dims = Some([m as u32, k as u32, n as u32]);
        if !self.cfg.pipeline {
            self.barrier();
        }

        // --- compute1: E_i = A_i - U_i, F_i = B_i - V_i (CPU) ---
        let c1_guard = TraceSink::scope(Phase::Compute1, layer);
        let c1_dur = self.cpu_dur(3 * (m * k + k * n) * R::BYTES);
        let (masked, c1_start) = self.mask_operands(a, b, triple, c1_dur);
        drop(c1_guard);

        // --- communicate: exchange E_i, F_i; reconstruct E, F ---
        let comm_guard = TraceSink::scope(Phase::Communicate, layer);
        let comm_start = latest(&masked);
        trace_phase(
            "compute1",
            Phase::Compute1,
            layer,
            c1_start,
            comm_start,
            dims,
            None,
            0,
        );
        let mut publics = self.exchange_masked(site, [CHAN_E, CHAN_F], masked)?;
        let add_dur = self.cpu_dur(3 * (m * k + k * n) * R::BYTES);
        for (i, public) in publics.iter_mut().enumerate() {
            public.ready = self.server_cpu(i, public.ready, add_dur);
        }
        let comm_end = latest(&publics);
        self.breakdown.communicate += comm_end.saturating_since(comm_start);
        trace_phase(
            "communicate",
            Phase::Communicate,
            layer,
            comm_start,
            comm_end,
            dims,
            None,
            4 * (m * k + k * n) * R::BYTES,
        );
        drop(comm_guard);

        if !self.cfg.pipeline {
            self.barrier();
        }

        // --- compute2: C_i = [D | E] x [F ; B_i] + Z_i ---
        let c2_guard = TraceSink::scope(Phase::Compute2, layer);
        let bytes_moved = (2 * m * k + 2 * k * n + 2 * m * n) * R::BYTES;
        let placement = self.adaptive.place(&self.cfg, m, 2 * k, n, bytes_moved);
        // Both servers reconstruct the same public F, so on the fused CPU
        // path its column panels are packed once and shared between the
        // two `[F ; B_i]` evaluations (Eq. (8)'s common top block). The
        // carrier (standard vs quantized limb planes) follows what
        // `gemm_auto` would pick for the full `[L|E] x [F ; B_i]` product.
        let f_packed = match (placement, self.cfg.eval_strategy) {
            (Placement::Cpu, EvalStrategy::Fused) => Some(pack_b_auto(&publics[0].v.1, m)),
            _ => None,
        };
        let mut compute2 = |i: usize| match placement {
            Placement::Cpu => self.compute2_cpu(i, &publics[i], a, b, triple, f_packed.as_ref()),
            Placement::Gpu => self.compute2_gpu(i, &publics[i], a, b, triple),
        };
        let outs = [compute2(0)?, compute2(1)?];
        let c2_end = latest(&outs);
        self.breakdown.compute2 += c2_end.saturating_since(comm_end);
        // Measured span of compute2 on the critical server: readiness of
        // its output relative to its own public (E, F) instant. This is
        // what the MeasuredCost recalibrator compares against the static
        // prediction — it includes per-operand transfers, launch overheads
        // and queueing the model omits.
        let measured = (0..2)
            .map(|i| outs[i].ready.saturating_since(publics[i].ready))
            .fold(SimDuration::ZERO, SimDuration::max);
        self.adaptive
            .observe(&self.cfg, (m, 2 * k, n), bytes_moved, placement, measured);
        trace_phase(
            "compute2",
            Phase::Compute2,
            layer,
            comm_end,
            c2_end,
            Some([m as u32, 2 * k as u32, n as u32]),
            Some(placement.name()),
            bytes_moved,
        );
        drop(c2_guard);

        Ok(SharedMatrix::new(outs))
    }

    /// Offline + online in one call: provisions the triple on demand
    /// (or, under [`EngineConfig::insecure_reuse_triples`], takes the
    /// call site's cached one — see `triple_for`).
    pub fn secure_mul_auto(
        &mut self,
        a: &SharedMatrix<R>,
        b: &SharedMatrix<R>,
        key: &str,
    ) -> Result<SharedMatrix<R>> {
        let (m, k) = a.shape();
        let n = b.shape().1;
        let site = self.site_id(key);
        let triple = self.triple_for(site, TripleSpec::Gemm { m, k, n })?;
        self.secure_mul(a, b, &triple, key)
    }

    /// Secure element-wise (Hadamard) multiplication — the CNN
    /// point-to-point product path (Sec. 7.2). Local math is element-wise,
    /// so *compute2* always stays on the CPU (there is no GEMM to offload).
    ///
    /// Shares *compute1* and the exchange with [`SecureContext::secure_mul`]
    /// but not its charging: the reconstruction rides in the *compute2*
    /// pass, *communicate* books nothing, and no phase spans are emitted.
    pub fn secure_hadamard(
        &mut self,
        a: &SharedMatrix<R>,
        b: &SharedMatrix<R>,
        key: &str,
    ) -> Result<SharedMatrix<R>> {
        if a.shape() != b.shape() {
            return Err(EngineError::Shape(format!(
                "secure_hadamard: {:?} vs {:?}",
                a.shape(),
                b.shape()
            )));
        }
        let (m, n) = a.shape();
        let layer = layer_of_key(key);
        let site = self.site_id(key);
        // Offline: element-wise triple, provisioned like the matmul kind
        // (the `Hadamard` spec cannot collide with a `Gemm` cache entry
        // for the same site).
        let offline_guard = TraceSink::scope(Phase::Offline, layer);
        let triple = self.triple_for(site, TripleSpec::Hadamard { m, n })?;
        drop(offline_guard);
        self.secure_muls += 1;
        if !self.cfg.pipeline {
            self.barrier();
        }

        let c1_guard = TraceSink::scope(Phase::Compute1, layer);
        let c1_dur = self.cpu_dur(6 * m * n * R::BYTES);
        let (masked, _) = self.mask_operands(a, b, &triple, c1_dur);
        drop(c1_guard);
        let comm_guard = TraceSink::scope(Phase::Communicate, layer);
        let comm_start = latest(&masked);
        let publics = self.exchange_masked(site, [CHAN_HAD_E, CHAN_HAD_F], masked)?;
        drop(comm_guard);
        let _c2_guard = TraceSink::scope(Phase::Compute2, layer);
        let c2_dur = self.cpu_dur(8 * m * n * R::BYTES);
        let outs = self.per_server([publics[0].ready, publics[1].ready], c2_dur, |i| {
            let (e_pub, f_pub) = &publics[i].v;
            let z_i = &triple.shares[i].v.z;
            finish_hadamard(Party::BOTH[i], &a.parts[i].v, &b.parts[i].v, z_i, e_pub, f_pub)
        });
        self.breakdown.compute2 += latest(&outs).saturating_since(comm_start);
        Ok(SharedMatrix::new(outs))
    }

    fn compute2_cpu(
        &mut self,
        i: usize,
        public: &Masked<R>,
        a: &SharedMatrix<R>,
        b: &SharedMatrix<R>,
        triple: &DistTriple<R>,
        f_packed: Option<&AutoPackedB<R>>,
    ) -> Result<Timed<Matrix<R>>> {
        let (m, k, n) = triple.dims;
        let party = Party::BOTH[i];
        let (e_pub, f_pub) = &public.v;
        let (a_i, b_i, z_i) = (&a.parts[i].v, &b.parts[i].v, &triple.shares[i].v.z);
        let c = match (self.cfg.eval_strategy, f_packed) {
            (EvalStrategy::Fused, Some(fp)) => finish_packed(party, a_i, b_i, z_i, e_pub, fp),
            (strategy, _) => finish(party, a_i, b_i, z_i, e_pub, f_pub, strategy, gemm_auto),
        };
        let mut dur = self.cfg.cpu_gemm_time(m, 2 * k, n);
        if matches!(self.cfg.eval_strategy, EvalStrategy::Expanded) && party == Party::P1 {
            dur += self.cfg.cpu_gemm_time(m, k, n);
        }
        // Truncation / final additions.
        dur += self.cpu_dur(2 * m * n * R::BYTES);
        let t = self.server_cpu(i, public.ready, dur);
        Ok(Timed { v: c, ready: t })
    }

    /// GPU compute2 per Fig. 5: upload E and A_i, compute `D = (-i)E + A_i`
    /// while F transfers, `D x F` while B_i transfers, then `E x B_i`,
    /// the sum, and `+ Z_i`; download C_i.
    fn compute2_gpu(
        &mut self,
        i: usize,
        public: &Masked<R>,
        a: &SharedMatrix<R>,
        b: &SharedMatrix<R>,
        triple: &DistTriple<R>,
    ) -> Result<Timed<Matrix<R>>> {
        let fenced = !self.cfg.pipeline;
        let mode = self.cfg.gpu_gemm_mode();
        let (m, n) = (triple.dims.0, triple.dims.2);
        let party = Party::BOTH[i];
        let (e_pub, f_pub) = &public.v;
        let ready = public.ready;
        let dev = &mut self.servers[i].device;

        let fence = |dev: &mut GpuDevice<R>| {
            if fenced {
                dev.fence();
            }
        };

        // Fig. 5 transfer/kernel interleaving.
        let he = dev.upload(e_pub, ready)?;
        fence(dev);
        let ha = dev.upload(&a.parts[i].v, a.parts[i].ready.max(ready))?;
        fence(dev);
        let hd = match party {
            Party::P0 => ha, // (-0)E + A_0 = A_0
            Party::P1 => {
                let hd = dev.sub(ha, he)?;
                fence(dev);
                hd
            }
        };
        let hf = dev.upload(f_pub, ready)?;
        fence(dev);
        let hdf = dev.gemm(hd, hf, mode)?;
        fence(dev);
        let hb = dev.upload(&b.parts[i].v, b.parts[i].ready.max(ready))?;
        fence(dev);
        let heb = dev.gemm(he, hb, mode)?;
        fence(dev);
        let hz = dev.upload(&triple.shares[i].v.z, triple.shares[i].ready.max(ready))?;
        fence(dev);
        let hsum = dev.add(hdf, heb)?;
        fence(dev);
        let hc = dev.add(hsum, hz)?;
        fence(dev);
        let (c_raw, done) = dev.download(hc)?;
        for h in [he, ha, hf, hdf, hb, heb, hz, hsum, hc] {
            // `hd` aliases `ha` for P0 and is freed separately for P1.
            let _ = dev.free(h);
        }
        if party == Party::P1 {
            let _ = dev.free(hd);
        }

        // Local truncation on the CPU after download.
        let c = R::truncate_matrix(&c_raw, party);
        let trunc_dur = self.cpu_dur(2 * m * n * R::BYTES);
        let t = self.server_cpu(i, done, trunc_dur);
        Ok(Timed { v: c, ready: t })
    }

    // ---------------------------------------------------------------
    // Local (non-interactive) share operations
    // ---------------------------------------------------------------

    /// Element-wise sum of two shared matrices (local on each server).
    pub fn add_shared(
        &mut self,
        a: &SharedMatrix<R>,
        b: &SharedMatrix<R>,
    ) -> Result<SharedMatrix<R>> {
        self.local_zip(a, b, "add", |x, y| x.add(y))
    }

    /// Element-wise difference of two shared matrices.
    pub fn sub_shared(
        &mut self,
        a: &SharedMatrix<R>,
        b: &SharedMatrix<R>,
    ) -> Result<SharedMatrix<R>> {
        self.local_zip(a, b, "sub", |x, y| x.sub(y))
    }

    fn local_zip(
        &mut self,
        a: &SharedMatrix<R>,
        b: &SharedMatrix<R>,
        what: &str,
        f: impl Fn(R, R) -> R,
    ) -> Result<SharedMatrix<R>> {
        if a.shape() != b.shape() {
            return Err(EngineError::Shape(format!(
                "{what}: {:?} vs {:?}",
                a.shape(),
                b.shape()
            )));
        }
        let dur = self.cpu_dur(3 * a.parts[0].v.byte_size());
        let ready = [0, 1].map(|i| a.parts[i].ready.max(b.parts[i].ready));
        Ok(SharedMatrix::new(self.per_server(ready, dur, |i| {
            a.parts[i].v.zip_map(&b.parts[i].v, &f)
        })))
    }

    /// Multiplies a shared matrix by a *public* scalar (e.g. the learning
    /// rate). Local: each server scales its share and truncates.
    pub fn scale_public(&mut self, a: &SharedMatrix<R>, c: f64) -> SharedMatrix<R> {
        let enc = R::encode(c);
        let dur = self.cpu_dur(2 * a.parts[0].v.byte_size());
        SharedMatrix::new(self.per_server(a.ready(), dur, |i| {
            R::truncate_matrix(&a.parts[i].v.map(|x| x.mul(enc)), Party::BOTH[i])
        }))
    }

    /// Multiplies a shared matrix element-wise by a *public* 0/1 mask
    /// (activation derivatives). Local, exact (no truncation needed).
    pub fn mask_public(
        &mut self,
        a: &SharedMatrix<R>,
        mask: &PlainMatrix,
    ) -> Result<SharedMatrix<R>> {
        if a.shape() != mask.shape() {
            return Err(EngineError::Shape(format!(
                "mask: {:?} vs {:?}",
                a.shape(),
                mask.shape()
            )));
        }
        let dur = self.cpu_dur(3 * a.parts[0].v.byte_size());
        Ok(SharedMatrix::new(self.per_server(a.ready(), dur, |i| {
            Matrix::from_fn(mask.rows(), mask.cols(), |r, c| {
                if mask[(r, c)] != 0.0 {
                    a.parts[i].v[(r, c)]
                } else {
                    R::zero()
                }
            })
        })))
    }

    /// Applies a share-respecting (linear, data-independent) local
    /// transformation to both shares — transposes, reshapes, im2col,
    /// column slicing. Charges one streaming CPU pass per server.
    pub fn map_local(
        &mut self,
        a: &SharedMatrix<R>,
        f: impl Fn(&Matrix<R>) -> Matrix<R>,
    ) -> SharedMatrix<R> {
        let dur = self.cpu_dur(2 * a.parts[0].v.byte_size());
        SharedMatrix::new(self.per_server(a.ready(), dur, |i| f(&a.parts[i].v)))
    }

    /// A shared all-zeros matrix (both shares zero), ready immediately.
    pub fn zeros_shared(&mut self, rows: usize, cols: usize) -> SharedMatrix<R> {
        let zero = || Timed::at_zero(Matrix::zeros(rows, cols));
        SharedMatrix::new([zero(), zero()])
    }

    /// Shares a *public* matrix without communication: server 0 holds the
    /// encoding, server 1 holds zero. Used for public constants.
    pub fn share_public(&mut self, m: &PlainMatrix) -> SharedMatrix<R> {
        let zero = Matrix::zeros(m.rows(), m.cols());
        SharedMatrix::new([R::encode_matrix(m), zero].map(Timed::at_zero))
    }

    /// Transposes a shared matrix (local data movement).
    pub fn transpose_shared(&mut self, a: &SharedMatrix<R>) -> SharedMatrix<R> {
        self.map_local(a, Matrix::transpose)
    }

    // ---------------------------------------------------------------
    // Activation (interactive) and reveal
    // ---------------------------------------------------------------

    /// Applies a non-linear activation to a shared pre-activation.
    ///
    /// Two modes, selected by [`EngineConfig::client_aided_activation`]:
    ///
    /// - **Server exchange** (default; faithful to the reference
    ///   implementation): the servers exchange their shares of `z`,
    ///   jointly rebuild it, apply the scalar function, and re-share
    ///   deterministically (server 0 holds `f(z)`, server 1 holds zero).
    ///   Fast, but the servers learn the pre-activations — see the
    ///   security note in `psml-mpc`.
    /// - **Client-aided**: each server ships its share to the *client*,
    ///   which reconstructs, applies `f`, and returns fresh random shares.
    ///   The servers learn nothing, at the cost of a client round trip
    ///   per activation ([`SecureContext::activation_roundtrips`] counts
    ///   them). The derivative mask stays client-side knowledge in a real
    ///   deployment; here it is returned for the backward pass exactly as
    ///   the other mode returns it.
    ///
    /// Returns the new shares plus the 0/1 derivative mask used by
    /// backward passes.
    pub fn secure_activation(
        &mut self,
        z: &SharedMatrix<R>,
        f: impl Fn(f64) -> f64,
        df: impl Fn(f64) -> f64,
        key: &str,
    ) -> Result<(SharedMatrix<R>, PlainMatrix)> {
        let _act = TraceSink::scope(Phase::Activation, layer_of_key(key));
        if !self.cfg.pipeline {
            self.barrier();
        }
        let start = z.parts[0].ready.max(z.parts[1].ready);
        // `shipped`: how many share-sized matrices the mode puts on the wire.
        let (out, mask, op, shipped) = if self.cfg.client_aided_activation {
            let (out, mask) = self.client_aided_activation(z, f, df)?;
            (out, mask, "activation[client-aided]", 4)
        } else {
            // Each server receives its peer's share through the reliable
            // channel and adds its own.
            let on = stream_id(self.site_id(key), CHAN_ACT);
            let mut fetch = |i: usize| {
                let peer = &z.parts[1 - i];
                self.transfer_mat(1 - i, on, &peer.v, peer.ready)
            };
            let theirs = [fetch(0)?, fetch(1)?];
            let dur = self.cpu_dur(4 * z.parts[0].v.byte_size());
            let ready = [0, 1].map(|i| z.parts[i].ready.max(theirs[i].ready));
            let [z0, z1] = self.per_server(ready, dur, |i| z.parts[i].v.add(&theirs[i].v));
            // Both servers hold identical z; apply f / f' and re-share
            // deterministically.
            debug_assert_eq!(z0.v, z1.v);
            let (activated, mask) = activate(&R::decode_matrix(&z0.v), f, df);
            let s0 = R::encode_matrix(&activated);
            let s1 = Matrix::zeros(s0.rows(), s0.cols());
            let parts = [(s0, z0.ready), (s1, z1.ready)].map(|(v, ready)| Timed { v, ready });
            (SharedMatrix::new(parts), mask, "activation", 2)
        };
        let end = latest(&out.parts);
        self.breakdown.activation += end.saturating_since(start);
        let (rows, cols) = out.shape();
        trace_phase(
            op,
            Phase::Activation,
            None,
            start,
            end,
            Some([rows as u32, 0, cols as u32]),
            None,
            shipped * rows * cols * R::BYTES,
        );
        Ok((out, mask))
    }

    /// Both servers ship their share of `x` to the client (online-era
    /// traffic on the client links), which adds them. The client's offline
    /// clock stays untouched — a scratch clock tracks its online part.
    fn open_at_client(&mut self, x: &SharedMatrix<R>) -> Result<Timed<PlainMatrix>> {
        let mut client_clock = self.client.now;
        let mut collect = |i: usize| -> Result<Timed<Matrix<R>>> {
            let part = &x.parts[i];
            let mut srv_clock = part.ready;
            // `x` is only lent to us and a `Payload` owns its matrix.
            let sent = Payload::Dense(part.v.clone());
            let (from, to) = (SERVER[i], NodeId::Client);
            let got = self.wire.ship_dense(from, &mut srv_clock, to, &mut client_clock, &sent)?;
            self.servers[i].note(srv_clock);
            Ok(got)
        };
        let got = [collect(0)?, collect(1)?];
        Ok(Timed {
            v: R::decode_matrix(&got[0].v.add(&got[1].v)),
            ready: latest(&got),
        })
    }

    /// Client-aided activation (see [`SecureContext::secure_activation`]).
    fn client_aided_activation(
        &mut self,
        z: &SharedMatrix<R>,
        f: impl Fn(f64) -> f64,
        df: impl Fn(f64) -> f64,
    ) -> Result<(SharedMatrix<R>, PlainMatrix)> {
        let z_plain = self.open_at_client(z)?;

        // Client: apply, and re-share with a fresh mask.
        let (activated, mask) = activate(&z_plain.v, f, df);
        let secret = R::encode_matrix(&activated);
        let fresh_mask = R::random_matrix(secret.rows(), secret.cols(), &mut self.rng);
        let other = secret.sub(&fresh_mask);
        // Client compute time: reconstruct + apply + split (client rates).
        let client_dur = self.cfg.client_rng_time(secret.len())
            + self.cfg.client_elementwise_time(5 * secret.byte_size());
        let client_done = z_plain.ready + client_dur;

        // Client -> servers: return the fresh shares through the reliable
        // channel; each server resumes when its share lands intact.
        let mut land = |i: usize, share: Matrix<R>| -> Result<Timed<Matrix<R>>> {
            let mut client_clock = client_done;
            let mut srv_clock = SimTime::ZERO;
            let sent = Payload::Dense(share);
            let (from, to) = (NodeId::Client, SERVER[i]);
            let landed = self.wire.ship_dense(from, &mut client_clock, to, &mut srv_clock, &sent)?;
            self.servers[i].note(srv_clock.max(landed.ready));
            Ok(landed)
        };
        let out = SharedMatrix::new([land(0, fresh_mask)?, land(1, other)?]);
        self.activation_roundtrips += 1;
        Ok((out, mask))
    }

    /// Number of client round trips taken by client-aided activations.
    pub fn activation_roundtrips(&self) -> usize {
        self.activation_roundtrips
    }

    /// Online-phase reveal: both servers ship their `C_i` back to the
    /// client, which merges them (Eq. (6)'s final step).
    pub fn reveal(&mut self, c: &SharedMatrix<R>) -> Result<Timed<PlainMatrix>> {
        let revealed = self.open_at_client(c)?;
        for s in &mut self.servers {
            s.note(revealed.ready);
        }
        Ok(revealed)
    }

    /// Convenience quickstart: share two plaintext matrices, run one secure
    /// multiplication, reveal the product.
    pub fn secure_matmul_plain(
        &mut self,
        a: &PlainMatrix,
        b: &PlainMatrix,
    ) -> Result<PlainMatrix> {
        self.schedule_triples(&[TripleSpec::Gemm {
            m: a.rows(),
            k: a.cols(),
            n: b.cols(),
        }]);
        let sa = self.share_input(a)?;
        let sb = self.share_input(b)?;
        let c = self.secure_mul_auto(&sa, &sb, "quickstart")?;
        Ok(self.reveal(&c)?.v)
    }

    // ---------------------------------------------------------------
    // Reporting
    // ---------------------------------------------------------------

    /// Simulated end of the online phase so far.
    pub fn online_end(&self) -> SimTime {
        self.servers
            .iter()
            .map(|s| s.end.max(s.cpu.free_at()).max(s.device.now()))
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Snapshot of the run's simulated performance.
    pub fn report(&self) -> RunReport {
        let mut traffic = TrafficStats::new();
        let mut injected = FaultCounters::default();
        for ep in &self.wire.endpoints {
            traffic.merge(ep.stats());
            injected.merge(&ep.fault_counters());
        }
        let mut warnings = Vec::new();
        if self.triple_reuses > 0 {
            warnings.push(format!(
                "insecure_reuse_triples served a cached Beaver triple to {} \
                 multiplication(s); reused masks leak linear relations \
                 between the masked operands",
                self.triple_reuses
            ));
        }
        RunReport {
            offline_time: self.offline_end.saturating_since(SimTime::ZERO),
            online_time: self.online_end().saturating_since(SimTime::ZERO),
            breakdown: self.breakdown,
            traffic,
            placements: self.adaptive.decision_counts(),
            secure_muls: self.secure_muls,
            reliability: *self.wire.reliable.stats(),
            injected,
            warnings,
        }
    }

    /// The two servers' GPU profiles (nvprof-style), `[server0, server1]`.
    pub fn gpu_profiles(&self) -> [psml_gpu::ProfileReport; 2] {
        [self.servers[0].device.profile(), self.servers[1].device.profile()]
    }

    /// Placement flips recorded by the measured-cost recalibrator (empty
    /// unless the policy is [`crate::AdaptivePolicy::MeasuredCost`]).
    pub fn recalibration_events(&self) -> &[crate::adaptive::RecalEvent] {
        self.adaptive.recalibrator().events()
    }
}

/// `f(z)` and the 0/1 mask of where `f'(z) != 0`.
fn activate(
    z: &PlainMatrix,
    f: impl Fn(f64) -> f64,
    df: impl Fn(f64) -> f64,
) -> (PlainMatrix, PlainMatrix) {
    (
        z.map(&f),
        z.map(|x| if df(x) != 0.0 { 1.0 } else { 0.0 }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdaptivePolicy;
    use psml_mpc::Fixed64;

    fn ctx(cfg: EngineConfig) -> SecureContext<Fixed64> {
        SecureContext::new(cfg, 99)
    }

    fn plain(r: usize, c: usize, k: f64) -> PlainMatrix {
        PlainMatrix::from_fn(r, c, |i, j| ((i * 3 + j) % 7) as f64 * 0.1 * k - 0.2)
    }

    #[test]
    fn share_input_reconstructs() {
        let mut ctx = ctx(EngineConfig::parsecureml());
        let m = plain(5, 7, 1.0);
        let shared = ctx.share_input(&m).unwrap();
        assert_eq!(shared.shape(), (5, 7));
        assert!(shared.reveal_insecure().max_abs_diff(&m) < 1e-3);
    }

    #[test]
    fn client_gpu_randomness_is_the_device_counter_stream() {
        // A client CPU too slow to win the Fig. 7 decision at any size.
        let mut cfg = EngineConfig::parsecureml();
        cfg.machine.cpu.rng_samples_per_core = 1.0;
        let mut ctx = ctx(cfg);
        let m = plain(6, 5, 1.0);
        let shared = ctx.share_input(&m).unwrap();
        // Seed 99: the first device draw advances `curand_seed` to 100.
        let mask = device_random::<Fixed64>(6, 5, 100);
        assert!(shared.part(Party::P0).v == mask, "mask is not the device stream");
        assert!(shared.reveal_insecure().max_abs_diff(&m) < 1e-3);
    }

    #[test]
    fn gen_triple_has_consistent_dims_and_offline_time() {
        let mut ctx = ctx(EngineConfig::parsecureml());
        let t = ctx.gen_triple(3, 5, 2).unwrap();
        assert_eq!(t.dims(), (3, 5, 2));
        let report = ctx.report();
        assert!(report.offline_time.as_secs() > 0.0);
        assert_eq!(report.online_time.as_secs(), 0.0, "no online work yet");
    }

    #[test]
    fn secure_mul_matches_plain_on_both_placements() {
        let a = plain(6, 9, 1.0);
        let b = plain(9, 4, 2.0);
        let expect = a.matmul(&b);
        for policy in [AdaptivePolicy::ForceCpu, AdaptivePolicy::ForceGpu] {
            let mut ctx = ctx(EngineConfig::parsecureml().with_policy(policy));
            let c = ctx.secure_matmul_plain(&a, &b).unwrap();
            assert!(
                c.max_abs_diff(&expect) < 1e-2,
                "{policy:?} diff {}",
                c.max_abs_diff(&expect)
            );
        }
    }

    #[test]
    fn expanded_and_fused_strategies_agree_in_engine() {
        let a = plain(4, 6, 1.0);
        let b = plain(6, 3, 1.5);
        let mut fused_cfg = EngineConfig::parsecureml();
        fused_cfg.eval_strategy = EvalStrategy::Fused;
        let mut expanded_cfg =
            EngineConfig::parsecureml().with_policy(AdaptivePolicy::ForceCpu);
        expanded_cfg.eval_strategy = EvalStrategy::Expanded;
        let c1 = ctx(fused_cfg).secure_matmul_plain(&a, &b).unwrap();
        let c2 = ctx(expanded_cfg).secure_matmul_plain(&a, &b).unwrap();
        assert_eq!(c1.as_slice(), c2.as_slice());
    }

    #[test]
    fn local_share_ops_are_linear() {
        let mut ctx = ctx(EngineConfig::parsecureml());
        let a = plain(4, 4, 1.0);
        let b = plain(4, 4, 3.0);
        let sa = ctx.share_input(&a).unwrap();
        let sb = ctx.share_input(&b).unwrap();
        let sum = ctx.add_shared(&sa, &sb).unwrap();
        assert!(sum.reveal_insecure().max_abs_diff(&a.add(&b)) < 1e-2);
        let diff = ctx.sub_shared(&sa, &sb).unwrap();
        assert!(diff.reveal_insecure().max_abs_diff(&a.sub(&b)) < 1e-2);
        let scaled = ctx.scale_public(&sa, 0.5);
        assert!(scaled.reveal_insecure().max_abs_diff(&a.scale(0.5)) < 1e-2);
        let t = ctx.transpose_shared(&sa);
        assert!(t.reveal_insecure().max_abs_diff(&a.transpose()) < 1e-3);
    }

    #[test]
    fn mask_public_zeroes_exactly() {
        let mut ctx = ctx(EngineConfig::parsecureml());
        let a = plain(3, 4, 2.0);
        let sa = ctx.share_input(&a).unwrap();
        let mask = PlainMatrix::from_fn(3, 4, |r, c| ((r + c) % 2) as f64);
        let masked = ctx.mask_public(&sa, &mask).unwrap();
        let revealed = masked.reveal_insecure();
        for r in 0..3 {
            for c in 0..4 {
                if mask[(r, c)] == 0.0 {
                    assert_eq!(revealed[(r, c)], 0.0, "({r},{c}) not zeroed");
                } else {
                    assert!((revealed[(r, c)] - a[(r, c)]).abs() < 1e-3);
                }
            }
        }
    }

    #[test]
    fn secure_activation_applies_function_and_returns_mask() {
        let mut ctx = ctx(EngineConfig::parsecureml());
        let z = PlainMatrix::from_fn(2, 5, |r, c| (r as f64 + c as f64) * 0.4 - 1.0);
        let sz = ctx.share_input(&z).unwrap();
        let (a, mask) = ctx
            .secure_activation(
                &sz,
                psml_mpc::activation::relu,
                psml_mpc::activation::relu_derivative,
                "t",
            )
            .unwrap();
        let revealed = a.reveal_insecure();
        for r in 0..2 {
            for c in 0..5 {
                assert!((revealed[(r, c)] - z[(r, c)].max(0.0)).abs() < 1e-3);
                let expected_mask = if z[(r, c)] > 1e-3 { 1.0 } else { 0.0 };
                assert_eq!(mask[(r, c)], expected_mask, "mask at ({r},{c})");
            }
        }
    }

    #[test]
    fn zeros_and_public_shares() {
        let mut ctx = ctx(EngineConfig::parsecureml());
        let z = ctx.zeros_shared(3, 3);
        assert_eq!(
            z.reveal_insecure().max_abs_diff(&PlainMatrix::zeros(3, 3)),
            0.0
        );
        let p = plain(3, 3, 1.0);
        let sp = ctx.share_public(&p);
        assert!(sp.reveal_insecure().max_abs_diff(&p) < 1e-3);
    }

    #[test]
    fn barrier_synchronizes_server_clocks() {
        let mut ctx = ctx(EngineConfig::parsecureml());
        let a = plain(8, 8, 1.0);
        let sa = ctx.share_input(&a).unwrap();
        let _ = ctx.secure_mul_auto(&sa, &sa, "k").unwrap();
        let t = ctx.barrier();
        assert_eq!(t, ctx.online_end());
        // A second barrier with no work in between is a no-op.
        assert_eq!(ctx.barrier(), t);
    }

    #[test]
    fn traffic_accounting_includes_all_three_parties() {
        let mut ctx = ctx(EngineConfig::parsecureml());
        let a = plain(4, 4, 1.0);
        let _ = ctx.secure_matmul_plain(&a, &a).unwrap();
        let traffic = ctx.report().traffic;
        use psml_net::NodeId;
        // Client distributed shares, servers exchanged E/F, servers revealed.
        assert!(traffic.link(NodeId::Client, NodeId::Server0).messages > 0);
        assert!(traffic.link(NodeId::Server0, NodeId::Server1).messages > 0);
        assert!(traffic.link(NodeId::Server1, NodeId::Server0).messages > 0);
        assert!(traffic.link(NodeId::Server0, NodeId::Client).messages > 0);
    }

    #[test]
    fn report_counts_secure_muls() {
        let mut ctx = ctx(EngineConfig::parsecureml());
        let a = plain(4, 4, 1.0);
        let sa = ctx.share_input(&a).unwrap();
        let _ = ctx.secure_mul_auto(&sa, &sa, "k1").unwrap();
        let _ = ctx.secure_mul_auto(&sa, &sa, "k2").unwrap();
        let _ = ctx.secure_hadamard(&sa, &sa, "k3").unwrap();
        assert_eq!(ctx.report().secure_muls, 3);
    }

    #[test]
    fn report_warns_on_actual_triple_reuse_only() {
        let mut ctx = ctx(EngineConfig::parsecureml());
        let a = plain(4, 4, 1.0);
        let sa = ctx.share_input(&a).unwrap();
        let _ = ctx.secure_mul_auto(&sa, &sa, "k1").unwrap();
        assert!(ctx.report().warnings.is_empty(), "first use is fresh");
        let _ = ctx.secure_mul_auto(&sa, &sa, "k1").unwrap();
        let warnings = ctx.report().warnings;
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("insecure_reuse_triples"));
    }

    #[test]
    fn reuse_cache_hands_out_one_allocation() {
        let spec = TripleSpec::Gemm { m: 4, k: 4, n: 4 };
        let mut reuse = ctx(EngineConfig::parsecureml());
        let site = reuse.site_id("k1");
        let first = reuse.triple_for(site, spec).unwrap();
        let again = reuse.triple_for(site, spec).unwrap();
        assert!(Rc::ptr_eq(&first, &again), "a cache hit must not copy the triple");
        let mut fresh = ctx(EngineConfig::parsecureml().with_insecure_reuse_triples(false));
        let first = fresh.triple_for(site, spec).unwrap();
        assert!(!Rc::ptr_eq(&first, &fresh.triple_for(site, spec).unwrap()));
    }

    // Runs matmul + hadamard and returns the revealed values plus the
    // report; used to pin prefetch-on against prefetch-off bit-exactly.
    fn mul_and_hadamard(cfg: EngineConfig) -> (PlainMatrix, PlainMatrix, RunReport) {
        let mut ctx = ctx(cfg);
        let a = plain(6, 9, 1.0);
        let b = plain(9, 4, 2.0);
        let c = ctx.secure_matmul_plain(&a, &b).unwrap();
        ctx.schedule_triples(&[TripleSpec::Hadamard { m: 5, n: 4 }]);
        let x = ctx.share_input(&plain(5, 4, 1.0)).unwrap();
        let y = ctx.share_input(&plain(5, 4, 0.5)).unwrap();
        let h = ctx.secure_hadamard(&x, &y, "had").unwrap();
        let hv = ctx.reveal(&h).unwrap().v;
        let takes = ctx.provider_stats().map(|s| s.takes);
        assert_eq!(takes, ctx.config().prefetch.then_some(2));
        (c, hv, ctx.report())
    }

    #[test]
    fn prefetch_is_bit_identical_to_direct_provisioning() {
        let off = mul_and_hadamard(
            EngineConfig::parsecureml().with_insecure_reuse_triples(false),
        );
        let on = mul_and_hadamard(EngineConfig::parsecureml().with_prefetch(true));
        assert_eq!(on.0, off.0, "matmul outputs diverged");
        assert_eq!(on.1, off.1, "hadamard outputs diverged");
        assert_eq!(
            format!("{:?}", on.2),
            format!("{:?}", off.2),
            "simulated reports diverged"
        );
    }

    #[test]
    fn prefetch_schedule_mismatch_is_a_protocol_error() {
        let mut ctx1 = ctx(EngineConfig::parsecureml().with_prefetch(true));
        let a = ctx1.share_input(&plain(2, 3, 1.0)).unwrap();
        let b = ctx1.share_input(&plain(3, 4, 1.0)).unwrap();
        // Nothing scheduled: the engine must fail fast, not hang.
        match ctx1.secure_mul_auto(&a, &b, "t").unwrap_err() {
            EngineError::Protocol(msg) => assert!(msg.contains("exhausted"), "{msg}"),
            other => panic!("expected protocol error, got {other:?}"),
        }
        // Wrong shape scheduled: also a protocol error.
        let mut ctx2 = ctx(EngineConfig::parsecureml().with_prefetch(true));
        ctx2.schedule_triples(&[TripleSpec::Hadamard { m: 2, n: 4 }]);
        let a = ctx2.share_input(&plain(2, 3, 1.0)).unwrap();
        let b = ctx2.share_input(&plain(3, 4, 1.0)).unwrap();
        assert!(matches!(
            ctx2.secure_mul_auto(&a, &b, "t").unwrap_err(),
            EngineError::Protocol(_)
        ));
    }
}
