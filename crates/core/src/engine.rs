//! The secure execution engine: one client, two servers, simulated time.
//!
//! # Execution model
//!
//! All three parties run in-process; every matrix operation *really
//! executes* on the host (so results are verifiable against plaintext),
//! while simulated clocks advance on each party's resources — CPU, GPU
//! engines (via `psml-gpu`, which times work and computes no values), and
//! NIC (via `psml-net`). Placement changes a product's charge, never its
//! arithmetic.
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
//! `charge_client_step`, a local step on both servers is `per_server`.
//! The two servers' local work — `per_server`, *compute2* and the encoding
//! of what each sends — runs on two cores at once from a fixed size up
//! (`per_party`); the wire, every clock and every charge stay on the
//! engine thread, in the same order either way.
//! Every product's deal comes from the one [`TripleProvider`], checked
//! against what was declared, in every mode: with `prefetch` a worker
//! thread deals ahead, without it the take deals inline, and under
//! `insecure_reuse_triples` a call site's cache miss declares and takes
//! its triple there (`triple_for`). Callers keep what differs: which
//! clocks a transfer advances and which phase it is booked to.

use crate::adaptive::{AdaptiveEngine, Placement};
use crate::config::EngineConfig;
use crate::error::{EngineError, Result};
use crate::provider::{ProviderStats, TripleProvider};
use crate::report::{PhaseBreakdown, RunReport};
use psml_gpu::kernels::device_random;
use psml_gpu::{GpuDevice, GpuError};
use psml_mpc::protocol::{
    finish, finish_hadamard, finish_packed, mask_operand, masked_words, reconstruct_public,
    reconstruct_words,
};
use psml_mpc::{
    Deal, DealtShare, EvalStrategy, Operand, Party, PlainMatrix, SecureRing, Secret, TripleSpec,
};
use psml_net::{
    build_network, DeltaDecoder, DeltaEncoder, DenseFrame, Endpoint, FaultCounters, NetError,
    NodeId, Packet, Payload, ReceiveTap, ReliableChannel, TrafficStats, TransmitForm,
    VerifiedDense,
};
use psml_parallel::Mt19937;
use psml_simtime::{Resource, SimDuration, SimTime};
use psml_tensor::{gemm_auto, pack_b_auto, Matrix};
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

/// Elements per server from which a local step runs server 0's and server
/// 1's halves at the same time; below it the hand-off to a pool worker
/// costs more than it saves, and the halves run in turn. Measured on a
/// two-party `sub` pair (DESIGN.md, "Two parties, two cores").
const CONCURRENT_PARTIES_FLOOR: usize = 1 << 16;

/// Server 0's and server 1's halves of a local step, `(p0(), p1())`: at
/// the same time ([`psml_parallel::both`], the caller's thread running
/// `p0`) when the step touches `elems` elements per server, at least
/// [`CONCURRENT_PARTIES_FLOOR`], else in turn on the caller's thread.
fn per_party<A, B: Send>(
    elems: usize,
    p0: impl FnOnce() -> A,
    p1: impl FnOnce() -> B + Send,
) -> (A, B) {
    if elems < CONCURRENT_PARTIES_FLOOR {
        let a = p0();
        return (a, p1());
    }
    psml_parallel::both(p0, p1)
}

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

/// A distributed Beaver triple: each server's part of one dealt product —
/// its shares of the masks the product opens and of `Z` (a single-use
/// triple opens both); the public [`Deal`] it was dealt for travels beside
/// it. The offline phase delivers it before the online clock starts, so it
/// is ready at online zero by construction. Not `Clone`: multiplications
/// borrow it, the reuse cache shares an `Rc`.
struct DistTriple<R: SecureRing> {
    shares: [DealtShare<R>; 2],
}

/// Per operand of a product, a matrix when the product opens that
/// operand, `None` when an earlier product did.
type PerOperand<R> = [Option<Matrix<R>>; 2];

/// One server's halves of a product's operands before the exchange (its
/// masked shares, *compute1*), per operand `None` when the product does
/// not open it.
enum Masked<R: SecureRing> {
    /// Written straight into the frames that carry them (fresh masks).
    Frames([Option<DenseFrame<R>>; 2]),
    /// As matrices, for the streams' delta encoders (reused masks).
    Matrices(PerOperand<R>),
}

/// [`Masked`] halves with their readiness on their server.
type Halves<R> = Timed<Masked<R>>;

/// What one server sends in one exchange: up to two matrices, each on its
/// stream.
type Sends<'m, R> = [Option<(u64, &'m Matrix<R>)>; 2];

/// A product's public operands `[E, F]` and when each server holds them.
/// Both servers reconstruct the same values; the host keeps one copy of
/// each, as it packs `F` once for both.
struct Publics<R: SecureRing> {
    ef: [Rc<Matrix<R>>; 2],
    ready: [SimTime; 2],
}

/// A secret's public opening, kept from the product that opens it to the
/// one that closes it: the matrix as the opening product read it, and
/// when each server held it.
struct Opening<R: SecureRing> {
    public: Rc<Matrix<R>>,
    transposed: bool,
    ready: [SimTime; 2],
}

/// The three NICs and the ack/retransmit channel over them: the only
/// place the engine moves bytes. With an empty fault plan the channel
/// degenerates to bare send/recv (no ack traffic, no timing change).
struct Wire<R: SecureRing> {
    /// `[client, server0, server1]`, indexed by [`NodeId::index`].
    endpoints: [Endpoint<R>; 3],
    reliable: ReliableChannel,
}

/// The sending and the receiving endpoint of one transfer.
fn pair<T>(mesh: &mut [T; 3], from: NodeId, to: NodeId) -> Result<[&mut T; 2]> {
    let pair = mesh.get_disjoint_mut([from.index(), to.index()]);
    pair.map_err(|_| NetError::SelfSend.into())
}

impl<R: SecureRing> Wire<R> {
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

    /// [`Wire::ship`] of a dense frame already written: what landed,
    /// verified and read in place, and when. The frame's bytes and charges
    /// are those of shipping its matrix as a [`Payload::Dense`].
    fn ship_frame(
        &mut self,
        from: NodeId,
        from_clock: &mut SimTime,
        to: NodeId,
        to_clock: &mut SimTime,
        frame: DenseFrame<R>,
    ) -> Result<Timed<VerifiedDense<R>>> {
        let [snd, rcv] = pair(&mut self.endpoints, from, to)?;
        let receipt = self.reliable.transfer_frame(snd, from_clock, rcv, to_clock, frame)?;
        Ok(Timed {
            v: receipt.frame,
            ready: receipt.available_at,
        })
    }

    /// The charge half of [`Wire::ship_frame`] for a `rows x cols` matrix,
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

struct ClientState<R: SecureRing> {
    cpu: Resource,
    device: GpuDevice<R>,
    now: SimTime,
}

struct ServerState<R: SecureRing> {
    cpu: Resource,
    device: GpuDevice<R>,
    encoders: HashMap<u64, DeltaEncoder<R>>,
    decoders: HashMap<u64, DeltaDecoder<R>>,
    end: SimTime,
}

impl<R: SecureRing> ServerState<R> {
    fn note(&mut self, t: SimTime) -> SimTime {
        self.end = self.end.max(t);
        t
    }

    /// Applies a form that arrived on `stream` to its decoder and lends
    /// the decoded matrix.
    fn land(&mut self, stream: u64, form: TransmitForm<R>) -> Result<&Matrix<R>> {
        let decoder = self.decoders.entry(stream).or_default();
        decoder
            .decode(form)
            .map_err(|e| EngineError::Protocol(e.to_string()))
    }
}

/// The three-party secure execution context.
pub struct SecureContext<R: SecureRing> {
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
    /// Every product's deal: the declared schedule, its seqs and their
    /// checks. Triple `seq` draws from `Mt19937::from_stream(seed, seq)`
    /// whoever deals it, which is what makes prefetch on and off
    /// bit-identical.
    provider: TripleProvider<R>,
    /// Public openings of secrets still to be read by a later product:
    /// within a training step, or — a served model's weights — across
    /// forward passes until the next opening of the secret replaces it.
    openings: HashMap<Secret, Opening<R>>,
    /// Interned call-site keys; protocol hot paths key caches and
    /// compression streams on the `u32` id, never on a fresh `String`.
    site_names: HashMap<String, u32>,
    triple_cache: HashMap<(u32, TripleSpec), Rc<DistTriple<R>>>,
    /// How many multiplications were served a *cached* triple (only ever
    /// non-zero under `insecure_reuse_triples`; surfaces as a
    /// [`RunReport::warnings`] entry).
    triple_reuses: usize,
}

impl<R: SecureRing> SecureContext<R> {
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
            provider: match cfg.prefetch {
                true => TripleProvider::new(seed as u64, cfg.prefetch_depth),
                false => TripleProvider::inline(seed as u64),
            },
            openings: HashMap::new(),
            site_names: HashMap::new(),
            triple_cache: HashMap::new(),
            triple_reuses: 0,
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

    /// A frame of the client's MT19937 draws, written in place.
    fn client_mask_frame(&mut self, rows: usize, cols: usize) -> DenseFrame<R> {
        const { assert!(R::BYTES == 8, "the client's draws are 64-bit ring words") };
        DenseFrame::write_with(rows, cols, |words| self.rng.fill_le_bytes(words))
    }

    /// Charges the client for a triple's `Z = U x V` product.
    fn charge_client_product(&mut self, m: usize, k: usize, n: usize) -> Result<()> {
        let bytes = (m * k + k * n + m * n) * R::BYTES;
        let mode = self.cfg.gpu_gemm_mode();
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
        if !held {
            return self.distribute_frames(shares.each_ref().map(DenseFrame::from_matrix));
        }
        let start = self.client.now;
        let mut arrive = SimTime::ZERO;
        for (to, share) in SERVER.into_iter().zip(&shares) {
            let (now, mut srv_clock) = (&mut self.client.now, SimTime::ZERO);
            let (rows, cols) = share.shape();
            let ready =
                self.wire.ship_accounted(NodeId::Client, now, to, &mut srv_clock, rows, cols)?;
            arrive = arrive.max(ready);
        }
        self.book_distribution(start, arrive);
        Ok(shares)
    }

    /// [`SecureContext::distribute`] of two shares already written in
    /// their frames: each server decodes the frame it receives into the
    /// share it keeps.
    fn distribute_frames(&mut self, frames: [DenseFrame<R>; 2]) -> Result<[Matrix<R>; 2]> {
        let start = self.client.now;
        let mut arrive = SimTime::ZERO;
        let mut send_to = |to: NodeId, frame: DenseFrame<R>| -> Result<Matrix<R>> {
            let (now, mut srv_clock) = (&mut self.client.now, SimTime::ZERO);
            let landed = self.wire.ship_frame(NodeId::Client, now, to, &mut srv_clock, frame)?;
            arrive = arrive.max(landed.ready);
            Ok(landed.v.to_matrix())
        };
        let [to_s0, to_s1] = frames;
        let landed = [send_to(SERVER[0], to_s0)?, send_to(SERVER[1], to_s1)?];
        self.book_distribution(start, arrive);
        Ok(landed)
    }

    /// Books a distribution the client started at `start` and the servers
    /// finished receiving at `arrive`.
    fn book_distribution(&mut self, start: SimTime, arrive: SimTime) {
        self.breakdown.distribution += arrive.saturating_since(start.min(arrive));
        self.offline_end = self.offline_end.max(arrive).max(self.client.now);
    }

    /// Offline: encodes a client plaintext and distributes its two shares
    /// (the Fig. 1b partitioning step). Server 0's share is the mask,
    /// drawn into its frame: the client's MT19937 on the CPU, the device
    /// counter stream of the just-advanced `curand_seed` on the GPU.
    /// Server 1's, `encode(m) - mask`, is written into its frame from the
    /// first frame's words ([`split_frames`]).
    pub fn share_input(&mut self, m: &PlainMatrix) -> Result<SharedMatrix<R>> {
        let _offline = TraceSink::scope(Phase::Offline, None);
        let start = self.client.now;
        let (rows, cols) = m.shape();
        let mask = match self.charge_client_random(rows, cols)? {
            Placement::Gpu => DenseFrame::from_matrix(&device_random(rows, cols, self.curand_seed)),
            Placement::Cpu => self.client_mask_frame(rows, cols),
        };
        self.client_cpu(2 * rows * cols * R::BYTES);
        let landed = self.distribute_frames(split_frames(m, mask))?;
        trace_phase(
            "share_input",
            Phase::Offline,
            None,
            start,
            self.offline_end.max(self.client.now),
            Some([rows as u32, 0, cols as u32]),
            None,
            2 * rows * cols * R::BYTES,
        );
        Ok(SharedMatrix::new(landed.map(Timed::at_zero)))
    }

    /// Declares upcoming single-use triples ([`SecureContext::schedule_deals`]).
    pub fn schedule_triples(&mut self, specs: &[TripleSpec]) {
        if !self.cfg.insecure_reuse_triples {
            self.provider.schedule(specs);
        }
    }

    /// Declares upcoming products, single-use triples and a mask
    /// schedule's products alike ([`psml_mpc::mask_schedule`]), in the
    /// order they will be multiplied, with or without prefetch: every
    /// product takes the next declared deal, and one whose shape (or, for
    /// a mask-schedule product, whose operands) disagrees with it is an
    /// [`EngineError::Protocol`] raised before any offline charge. With
    /// prefetch the provider's thread deals them ahead. Every mask a
    /// mask-schedule product reads must be open there — opened earlier in
    /// the batch, or by an earlier batch and not closed since (a served
    /// model's weights); a batch that reads any other is an
    /// [`EngineError::Protocol`], and nothing of it is declared. A no-op
    /// under [`EngineConfig::insecure_reuse_triples`], whose products take
    /// the call site's cached triple.
    pub fn schedule_deals(&mut self, deals: &[Deal]) -> Result<()> {
        if !self.cfg.insecure_reuse_triples {
            self.provider.schedule_deals(deals).map_err(EngineError::Protocol)?;
        }
        Ok(())
    }

    /// Installs the observer of every packet `node` receives from now on:
    /// that party's view of the wire, for tests of what it learns.
    pub fn set_receive_tap(&mut self, node: NodeId, tap: ReceiveTap<R>) {
        self.wire.endpoints[node.index()].set_receive_tap(Some(tap));
    }

    /// Counters of the triple provider (deliveries and, with prefetch,
    /// consumer stall, lookahead adopted and discarded, ready-queue high
    /// water). Not part of [`RunReport`]: stall time is wall clock.
    pub fn provider_stats(&self) -> ProviderStats {
        self.provider.stats()
    }

    /// Charges the client-side compute of dealing one product —
    /// randomness for the masks it opens, the `Z` product (or Hadamard
    /// pass), and the share splits of those masks and `Z`.
    fn charge_deal_compute(&mut self, deal: &Deal) -> Result<()> {
        let spec = deal.spec();
        let opened: Vec<(usize, usize)> = [spec.u_shape(), spec.v_shape()]
            .into_iter()
            .zip(deal.opens())
            .filter_map(|(shape, open)| open.then_some(shape))
            .collect();
        for &(rows, cols) in &opened {
            self.charge_client_random(rows, cols)?;
        }
        match spec {
            TripleSpec::Gemm { m, k, n } => self.charge_client_product(m, k, n)?,
            TripleSpec::Hadamard { m, n } => self.client_cpu(3 * m * n * R::BYTES),
        }
        for (rows, cols) in opened.into_iter().chain([spec.z_shape()]) {
            self.charge_client_random(rows, cols)?;
            self.client_cpu(2 * rows * cols * R::BYTES);
        }
        Ok(())
    }

    /// Provisions the offline material of a product of `spec` (of
    /// `operands`, when named): the provider's checked take of the next
    /// declared deal — dealt ahead of time by the prefetch pipeline, or
    /// inline when prefetch is off — plus full offline accounting (client
    /// compute charges and share distribution), charged only once the
    /// take succeeded. The two modes advance every simulated clock
    /// identically and yield bit-identical shares; prefetch merely removes
    /// the generation and wire-serialization work from the engine thread's
    /// wall-clock critical path.
    fn provision(
        &mut self,
        spec: TripleSpec,
        operands: Option<[Operand; 2]>,
    ) -> Result<(Deal, DistTriple<R>)> {
        let _offline = TraceSink::scope(Phase::Offline, None);
        let t_start = self.client.now;
        let taken = self.provider.take_deal(spec, operands);
        let (deal, dealt, events) = taken.map_err(EngineError::Protocol)?;
        TraceSink::adopt(events);
        self.charge_deal_compute(&deal)?;

        let [s0, s1] = dealt.into_shares();
        // Prefetched material is already server-side.
        let held = self.cfg.prefetch;
        let mut masks = [[None, None], [None, None]];
        for (j, pair) in s0.masks.into_iter().zip(s1.masks).enumerate() {
            if let (Some(m0), Some(m1)) = pair {
                [masks[0][j], masks[1][j]] = self.distribute([m0, m1], held)?.map(Some);
            }
        }
        let [z0, z1] = self.distribute([s0.z, s1.z], held)?;
        let [masks0, masks1] = masks;
        let shares = [
            DealtShare { masks: masks0, z: z0 },
            DealtShare { masks: masks1, z: z1 },
        ];
        let (m, k, n) = spec.dims();
        trace_phase(
            "gen_triple",
            Phase::Offline,
            None,
            t_start,
            self.offline_end.max(self.client.now),
            Some([m as u32, k as u32, n as u32]),
            None,
            2 * deal.dealt_elems() * R::BYTES,
        );
        Ok((deal, DistTriple { shares }))
    }

    /// The triple a product of `spec` at `site` consumes. With
    /// [`EngineConfig::insecure_reuse_triples`] triples are cached per
    /// `(call site, shape)` and **reused across iterations** (the
    /// paper's Eq. (11) keeps `U_i` fixed across epochs so that `E`
    /// evolves by the sparse delta `dA` — the premise of the
    /// compressed-transmission design, and a deliberate information
    /// leak; see DESIGN.md). The offline cost is then paid once per call
    /// site, and a miss declares its triple to the provider and takes it
    /// there: the callers' declarations name products a hit never takes.
    /// Without it, every product takes its declared deal. The cache and
    /// the multiplication share one allocation.
    fn triple_for(
        &mut self,
        site: u32,
        spec: TripleSpec,
        operands: Option<[Operand; 2]>,
    ) -> Result<(Deal, Rc<DistTriple<R>>)> {
        if !self.cfg.insecure_reuse_triples {
            let (deal, fresh) = self.provision(spec, operands)?;
            return Ok((deal, Rc::new(fresh)));
        }
        // psml-lint: allow(timing, "branches on whether the public site/spec key is cached, never on the triple")
        if let Some(cached) = self.triple_cache.get(&(site, spec)) {
            self.triple_reuses += 1;
            return Ok((Deal::Triple(spec), Rc::clone(cached)));
        }
        self.provider.schedule(&[spec]);
        let (deal, fresh) = self.provision(spec, None)?;
        let fresh = Rc::new(fresh);
        self.triple_cache.insert((site, spec), Rc::clone(&fresh));
        Ok((deal, fresh))
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
    /// pass of `dur` starting no earlier than `ready[i]`. The two run at
    /// the same time when the step touches `elems` elements per server
    /// ([`per_party`]); the charges follow, server 0's first.
    fn per_server<T: Send>(
        &mut self,
        ready: [SimTime; 2],
        dur: SimDuration,
        elems: usize,
        f: impl Fn(usize) -> T + Sync,
    ) -> [Timed<T>; 2] {
        let (v0, v1) = per_party(elems, || f(0), || f(1));
        let [r0, r1] = [0, 1].map(|i| self.server_cpu(i, ready[i], dur));
        [Timed { v: v0, ready: r0 }, Timed { v: v1, ready: r1 }]
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

    /// Whether matrix streams are delta-compressed: with compression on
    /// and the masks reused (Eq. 11), where `E_{j+1} - E_j` is sparse. A
    /// fresh mask makes every send a uniform matrix that can only ever go
    /// `Full`, so its stream keeps no encoder and no mirror.
    fn delta_streams(&self) -> bool {
        self.cfg.compression && self.cfg.insecure_reuse_triples
    }

    /// The delta-stream forms ([`SecureContext::delta_streams`]) of what
    /// each server sends — `sends[i]` holds server `i`'s matrices, each
    /// with its stream — encoded on both servers at the same time
    /// ([`per_party`], over the larger server's elements), each stream's
    /// encoder opened on first use. The stream is delta-encoded exactly
    /// once per logical transfer: retransmissions inside
    /// [`ReliableChannel::transfer`] resend the same payload bytes, so the
    /// receiver's mirror advances once per send however many frames the
    /// chaos layer eats.
    fn outgoing(
        &mut self,
        sends: [Sends<'_, R>; 2],
    ) -> [[Option<Payload<R>>; 2]; 2] {
        let threshold = self.cfg.sparsity_threshold;
        let elems = sends.map(|mine| mine.iter().flatten().map(|(_, m)| m.len()).sum::<usize>());
        let form = |encoders: &mut HashMap<u64, DeltaEncoder<R>>, mine: Sends<'_, R>| {
            mine.map(|send| {
                let (stream, m) = send?;
                let encoder = encoders.entry(stream);
                let encoder = encoder.or_insert_with(|| DeltaEncoder::with_threshold(threshold));
                Some(match encoder.encode(m) {
                    TransmitForm::Full(full) => Payload::Dense(full),
                    TransmitForm::Delta(csr) => Payload::SparseDelta(csr),
                })
            })
        };
        let [s0, s1] = &mut self.servers;
        let [sends0, sends1] = sends;
        let (p0, p1) = per_party(
            elems[0].max(elems[1]),
            || form(&mut s0.encoders, sends0),
            || form(&mut s1.encoders, sends1),
        );
        [p0, p1]
    }

    /// The wire half of a transfer on the delta streams
    /// ([`SecureContext::delta_streams`]): ships `payload` from server `i`
    /// at `now` and runs `open` on the matrix that lands, the peer's
    /// `stream` decoder's mirror after applying the payload. Off the delta
    /// streams, frames go through [`SecureContext::deliver_frame`] and no
    /// decoder is kept.
    fn deliver<T>(
        &mut self,
        i: usize,
        stream: u64,
        payload: &Payload<R>,
        now: SimTime,
        open: impl FnOnce(&Matrix<R>) -> T,
    ) -> Result<Timed<T>> {
        let j = 1 - i;
        let (mut snd_clock, mut rcv_clock) = (now, SimTime::ZERO);
        let (from, to) = (SERVER[i], SERVER[j]);
        let pkt = self.wire.ship(from, &mut snd_clock, to, &mut rcv_clock, payload)?;
        let form = match pkt.payload {
            Payload::Dense(m) => TransmitForm::Full(m),
            Payload::SparseDelta(c) => TransmitForm::Delta(c),
            other => {
                let kind = other.kind();
                return Err(EngineError::Protocol(format!("unexpected {kind} on a matrix stream")));
            }
        };
        let v = open(self.servers[j].land(stream, form)?);
        self.servers[i].note(snd_clock);
        self.servers[j].note(rcv_clock.max(pkt.available_at));
        Ok(Timed {
            v,
            ready: pkt.available_at,
        })
    }

    /// [`SecureContext::deliver`] of a dense frame already written, off
    /// the delta streams: what landed at the peer, verified, with the same
    /// clocks.
    fn deliver_frame(
        &mut self,
        i: usize,
        frame: DenseFrame<R>,
        now: SimTime,
    ) -> Result<Timed<VerifiedDense<R>>> {
        let j = 1 - i;
        let (mut snd_clock, mut rcv_clock) = (now, SimTime::ZERO);
        let (from, to) = (SERVER[i], SERVER[j]);
        let got = self.wire.ship_frame(from, &mut snd_clock, to, &mut rcv_clock, frame)?;
        self.servers[i].note(snd_clock);
        self.servers[j].note(rcv_clock.max(got.ready));
        Ok(got)
    }

    /// *compute1*, matmul or Hadamard alike: once it holds both operand
    /// shares and its part of the dealt product, each server masks each
    /// operand the product `opens`, in one CPU pass of `dur`: off the delta
    /// streams straight into the frame that carries it ([`masked_words`]),
    /// on them into a matrix for the encoder ([`mask_operand`]). Also
    /// returns the earlier of the two start instants.
    fn mask_operands(
        &mut self,
        a: &SharedMatrix<R>,
        b: &SharedMatrix<R>,
        opens: [bool; 2],
        triple: &DistTriple<R>,
        dur: SimDuration,
    ) -> ([Halves<R>; 2], SimTime) {
        let (operands, tri) = ([&a.parts, &b.parts], &triple.shares);
        let ready = [0, 1].map(|i| a.parts[i].ready.max(b.parts[i].ready));
        self.breakdown.compute1 += dur;
        let operand_elems = [a.parts[0].v.len(), b.parts[0].v.len()].into_iter().zip(opens);
        let elems = operand_elems.filter_map(|(len, open)| open.then_some(len)).sum();
        let framed = !self.delta_streams();
        let halves = self.per_server(ready, dur, elems, |i| {
            let half = |j: usize| {
                let mask = tri[i].masks[j].as_ref();
                let mask = mask.expect("a dealt product holds the masks it opens");
                (&operands[j][i].v, mask)
            };
            let opened = [0, 1].map(|j| opens[j].then(|| half(j)));
            match framed {
                true => Masked::Frames(opened.map(|half| {
                    half.map(|(x, m)| DenseFrame::write(x.rows(), x.cols(), masked_words(x, m)))
                })),
                false => Masked::Matrices(opened.map(|half| half.map(|(x, m)| mask_operand(x, m)))),
            }
        });
        (halves, ready[0].min(ready[1]))
    }

    /// The exchange of *communicate*: each server ships the halves it
    /// masked to its peer over the site's `chans` streams, server 0's
    /// receipts first, and the opened values are reconstructed. Returns
    /// them (`None` for an operand not opened) and when each server holds
    /// them — when its later half lands; the additions are the caller's
    /// to charge. Both servers reconstruct the same values, so the host
    /// computes server 0's.
    fn exchange_masked(
        &mut self,
        site: u32,
        chans: [u64; 2],
        halves: [Halves<R>; 2],
    ) -> Result<(PerOperand<R>, [SimTime; 2])> {
        let [h0, h1] = halves;
        let sent_at = [h0.ready, h1.ready];
        match (h0.v, h1.v) {
            (Masked::Frames(mine), Masked::Frames(theirs)) => {
                self.exchange_frames(mine, theirs, sent_at)
            }
            (Masked::Matrices(h0), Masked::Matrices(h1)) => {
                let streams = chans.map(|chan| stream_id(site, chan));
                self.exchange_streams(streams, [h0, h1], sent_at)
            }
            _ => unreachable!("both servers mask into the same form"),
        }
    }

    /// [`SecureContext::exchange_masked`] off the delta streams, one pass
    /// each way: each server's half travels in the frame compute1 wrote it
    /// into, server 0 rebuilds `E = E_0 + E_1` from its own frame's words
    /// and the peer's as they arrived ([`reconstruct_words`]), and server 1
    /// only verifies what it receives — it would rebuild the same values.
    fn exchange_frames(
        &mut self,
        mine: [Option<DenseFrame<R>>; 2],
        theirs: [Option<DenseFrame<R>>; 2],
        sent_at: [SimTime; 2],
    ) -> Result<(PerOperand<R>, [SimTime; 2])> {
        let (mut opened, mut ready) = ([None, None], sent_at);
        for (j, theirs) in theirs.into_iter().enumerate() {
            let (Some(mine), Some(theirs)) = (&mine[j], theirs) else {
                continue;
            };
            let got = self.deliver_frame(1, theirs, sent_at[1])?;
            ready[0] = ready[0].max(got.ready);
            let (rows, cols) = check_shape(&got.v, mine.shape(), SERVER[1])?;
            opened[j] = Some(reconstruct_words(rows, cols, mine.words(), got.v.words()));
        }
        for sent in mine.into_iter().flatten() {
            let got = self.deliver_frame(0, sent, sent_at[0])?;
            ready[1] = ready[1].max(got.ready);
        }
        Ok((opened, ready))
    }

    /// [`SecureContext::exchange_masked`] on the delta streams: both
    /// servers encode their halves at once ([`SecureContext::outgoing`]),
    /// and each opening is reconstructed from the receiving decoder's
    /// mirror with [`reconstruct_public`].
    fn exchange_streams(
        &mut self,
        streams: [u64; 2],
        [h0, h1]: [PerOperand<R>; 2],
        sent_at: [SimTime; 2],
    ) -> Result<(PerOperand<R>, [SimTime; 2])> {
        let sends = [&h0, &h1]
            .map(|mine| [0, 1].map(|j| mine[j].as_ref().map(|m| (streams[j], m))));
        let [out0, out1] = self.outgoing(sends);
        let (mut opened, mut ready) = ([None, None], sent_at);
        for (j, stream) in streams.into_iter().enumerate() {
            if let (Some(mine), Some(theirs)) = (&h0[j], &out1[j]) {
                let got = self.deliver(1, stream, theirs, sent_at[1], |e| {
                    reconstruct_public(mine, e)
                })?;
                ready[0] = ready[0].max(got.ready);
                opened[j] = Some(got.v);
            }
        }
        for (sent, stream) in out0.iter().zip(streams) {
            if let Some(sent) = sent {
                let got = self.deliver(0, stream, sent, sent_at[0], |_| ())?;
                ready[1] = ready[1].max(got.ready);
            }
        }
        Ok((opened, ready))
    }

    /// The kept opening of `op`'s secret as `op` reads it, and when each
    /// server held it; dropped from the keep when `close`.
    fn reopen(&mut self, op: Operand, close: bool) -> Result<(Rc<Matrix<R>>, [SimTime; 2])> {
        let Some(kept) = self.openings.get(&op.secret) else {
            return Err(EngineError::Protocol(format!(
                "{:?} is read before a product opened it",
                op.secret
            )));
        };
        let public = match kept.transposed == op.transposed {
            true => Rc::clone(&kept.public),
            false => Rc::new(kept.public.transpose()),
        };
        let ready = kept.ready;
        if close {
            self.openings.remove(&op.secret);
        }
        Ok((public, ready))
    }

    /// One secure triplet multiplication (the paper's core operation):
    /// *compute1* -> *communicate* -> *compute2*, with the configured
    /// placement, pipeline and compression behavior. `operands` name the
    /// secrets `a` and `b` are; `key` identifies the logical stream for
    /// delta compression (e.g. `"l0.fwd"`).
    ///
    /// The product takes the next declared deal
    /// ([`SecureContext::schedule_deals`]), after its shapes are checked.
    /// For a single-use triple both operands are masked and exchanged. For
    /// a mask-schedule product only the secrets it opens are; a secret an
    /// earlier product opened is read through that opening, transposed
    /// where this product reads it the other way round, and the opening is
    /// dropped at the secret's last use. Under
    /// [`EngineConfig::insecure_reuse_triples`] the call site's cached
    /// triple serves instead, whatever the operands.
    pub fn secure_mul(
        &mut self,
        a: &SharedMatrix<R>,
        b: &SharedMatrix<R>,
        operands: [Operand; 2],
        key: &str,
    ) -> Result<SharedMatrix<R>> {
        self.product(a, b, Some(operands), key)
    }

    /// [`SecureContext::secure_mul`] of operands without names: it takes a
    /// declared single-use triple, never a mask-schedule product.
    pub fn secure_mul_auto(
        &mut self,
        a: &SharedMatrix<R>,
        b: &SharedMatrix<R>,
        key: &str,
    ) -> Result<SharedMatrix<R>> {
        self.product(a, b, None, key)
    }

    /// Checks the shapes, takes the deal, multiplies.
    fn product(
        &mut self,
        a: &SharedMatrix<R>,
        b: &SharedMatrix<R>,
        operands: Option<[Operand; 2]>,
        key: &str,
    ) -> Result<SharedMatrix<R>> {
        let ((m, k), (k2, n)) = (a.shape(), b.shape());
        if k != k2 {
            let msg = format!("secure_mul: {:?} x {:?}", a.shape(), b.shape());
            return Err(EngineError::Shape(msg));
        }
        let site = self.site_id(key);
        let (deal, triple) = self.triple_for(site, TripleSpec::Gemm { m, k, n }, operands)?;
        self.multiply(a, b, deal, &triple, site, key)
    }

    /// `a * b` with `triple`, dealt for `deal`: it opens the operands the
    /// deal opens (both for a single-use triple) and reads the rest from
    /// the keep.
    fn multiply(
        &mut self,
        a: &SharedMatrix<R>,
        b: &SharedMatrix<R>,
        deal: Deal,
        triple: &DistTriple<R>,
        site: u32,
        key: &str,
    ) -> Result<SharedMatrix<R>> {
        let (m, k, n) = deal.spec().dims();
        let product = match &deal {
            Deal::Masked(p) => Some(p),
            Deal::Triple(_) => None,
        };
        self.secure_muls += 1;
        let layer = layer_of_key(key);
        let dims = Some([m as u32, k as u32, n as u32]);
        if !self.cfg.pipeline {
            self.barrier();
        }
        let opens = deal.opens();
        let sizes = [m * k, k * n].into_iter().zip(opens);
        let opened: usize = sizes.filter_map(|(elems, open)| open.then_some(elems)).sum();

        let mut fresh = [None, None];
        let mut ready = [0, 1].map(|i| a.parts[i].ready.max(b.parts[i].ready));
        if opened > 0 {
            // --- compute1: E_i = A_i - U_i, F_i = B_i - V_i (CPU) ---
            let c1_guard = TraceSink::scope(Phase::Compute1, layer);
            let c1_dur = self.cpu_dur(3 * opened * R::BYTES);
            let (halves, c1_start) = self.mask_operands(a, b, opens, triple, c1_dur);
            drop(c1_guard);

            // --- communicate: exchange E_i, F_i; reconstruct E, F ---
            let comm_guard = TraceSink::scope(Phase::Communicate, layer);
            let comm_start = latest(&halves);
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
            let landed;
            (fresh, landed) = self.exchange_masked(site, [CHAN_E, CHAN_F], halves)?;
            let add_dur = self.cpu_dur(3 * opened * R::BYTES);
            ready = [0, 1].map(|i| self.server_cpu(i, landed[i], add_dur));
            let comm_end = ready[0].max(ready[1]);
            self.breakdown.communicate += comm_end.saturating_since(comm_start);
            trace_phase(
                "communicate",
                Phase::Communicate,
                layer,
                comm_start,
                comm_end,
                dims,
                None,
                4 * opened * R::BYTES,
            );
            drop(comm_guard);
        }
        // Keep what this product opens for the secret's later uses; read
        // what an earlier product opened.
        let opened_at = ready;
        let mut side = |j: usize| -> Result<Rc<Matrix<R>>> {
            let Some(opening) = fresh[j].take() else {
                let p = product.expect("only a scheduled product reads an earlier opening");
                let (public, held) = self.reopen(p.operands[j], p.closes[j])?;
                ready = [0, 1].map(|i| ready[i].max(held[i]));
                return Ok(public);
            };
            let public = Rc::new(opening);
            if let Some(p) = product.filter(|p| !p.closes[j]) {
                let (kept, transposed) = (Rc::clone(&public), p.operands[j].transposed);
                let held = Opening { public: kept, transposed, ready: opened_at };
                self.openings.insert(p.operands[j].secret, held);
            }
            Ok(public)
        };
        let ef = [side(0)?, side(1)?];
        let publics = Publics { ef, ready };
        let comm_end = ready[0].max(ready[1]);

        if !self.cfg.pipeline {
            self.barrier();
        }

        // --- compute2: C_i = [D | E] x [F ; B_i] + Z_i ---
        let c2_guard = TraceSink::scope(Phase::Compute2, layer);
        let bytes_moved = (2 * m * k + 2 * k * n + 2 * m * n) * R::BYTES;
        let placement = self.adaptive.place(&self.cfg, m, 2 * k, n, bytes_moved);
        // Both placements compute `C_i` with the same protocol step; the
        // placement decides only how it is charged. Both servers
        // reconstruct the same public F, so on the fused path it is
        // prepared once (packed into column panels above the blocked
        // kernel's floor) and shared between the two `[F ; B_i]`
        // evaluations (Eq. (8)'s common top block). The two evaluations
        // run at the same time (`per_party`, over plain borrows: an `Rc`
        // stays on this thread); their charges follow, server 0's first.
        let [e_pub, f_pub]: [&Matrix<R>; 2] = publics.ef.each_ref().map(Rc::as_ref);
        let f_packed = match self.cfg.eval_strategy {
            EvalStrategy::Fused => Some(pack_b_auto(f_pub, m)),
            EvalStrategy::Expanded => None,
        };
        let strategy = self.cfg.eval_strategy;
        let compute2 = |i: usize| {
            let party = Party::BOTH[i];
            let (a_i, b_i, z_i) = (&a.parts[i].v, &b.parts[i].v, &triple.shares[i].z);
            match &f_packed {
                Some(fp) => finish_packed(party, a_i, b_i, z_i, e_pub, fp),
                None => finish(party, a_i, b_i, z_i, e_pub, f_pub, strategy, gemm_auto),
            }
        };
        let (c0, c1) = per_party(m * k + k * n + m * n, || compute2(0), || compute2(1));
        let mut charge = |i: usize| match placement {
            Placement::Cpu => Ok(self.charge_compute2_cpu(i, publics.ready[i], (m, k, n))),
            Placement::Gpu => self.charge_compute2_gpu(i, &publics, a, b, triple),
        };
        let outs = [Timed { v: c0, ready: charge(0)? }, Timed { v: c1, ready: charge(1)? }];
        let c2_end = latest(&outs);
        self.breakdown.compute2 += c2_end.saturating_since(comm_end);
        // Measured span of compute2 on the critical server: readiness of
        // its output relative to its own public (E, F) instant. This is
        // what the MeasuredCost recalibrator compares against the static
        // prediction — it includes per-operand transfers, launch overheads
        // and queueing the model omits.
        let measured = (0..2)
            .map(|i| outs[i].ready.saturating_since(publics.ready[i]))
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
        let (_, triple) = self.triple_for(site, TripleSpec::Hadamard { m, n }, None)?;
        drop(offline_guard);
        self.secure_muls += 1;
        if !self.cfg.pipeline {
            self.barrier();
        }

        let c1_guard = TraceSink::scope(Phase::Compute1, layer);
        let c1_dur = self.cpu_dur(6 * m * n * R::BYTES);
        let (halves, _) = self.mask_operands(a, b, [true, true], &triple, c1_dur);
        drop(c1_guard);
        let comm_guard = TraceSink::scope(Phase::Communicate, layer);
        let comm_start = latest(&halves);
        let ([e, f], ready) = self.exchange_masked(site, [CHAN_HAD_E, CHAN_HAD_F], halves)?;
        let (e_pub, f_pub) = e.zip(f).expect("a Hadamard product opens both operands");
        drop(comm_guard);
        let _c2_guard = TraceSink::scope(Phase::Compute2, layer);
        let c2_dur = self.cpu_dur(8 * m * n * R::BYTES);
        let triple: &DistTriple<R> = &triple;
        let outs = self.per_server(ready, c2_dur, m * n, |i| {
            let z_i = &triple.shares[i].z;
            finish_hadamard(Party::BOTH[i], &a.parts[i].v, &b.parts[i].v, z_i, &e_pub, &f_pub)
        });
        self.breakdown.compute2 += latest(&outs).saturating_since(comm_start);
        Ok(SharedMatrix::new(outs))
    }

    /// Charges CPU compute2 on server `i` from its public `(E, F)`
    /// instant; returns when `C_i` is ready.
    fn charge_compute2_cpu(
        &mut self,
        i: usize,
        ready: SimTime,
        (m, k, n): (usize, usize, usize),
    ) -> SimTime {
        let mut dur = self.cfg.cpu_gemm_time(m, 2 * k, n);
        let party = Party::BOTH[i];
        if matches!(self.cfg.eval_strategy, EvalStrategy::Expanded) && party == Party::P1 {
            dur += self.cfg.cpu_gemm_time(m, k, n);
        }
        // Truncation / final additions.
        dur += self.cpu_dur(2 * m * n * R::BYTES);
        self.server_cpu(i, ready, dur)
    }

    /// Charges GPU compute2 on server `i` per Fig. 5: upload E and A_i,
    /// compute `D = (-i)E + A_i` while F transfers, `D x F` while B_i
    /// transfers, then `E x B_i`, the sum, and `+ Z_i`; download C_i and
    /// truncate it on the CPU. Returns when `C_i` is ready.
    fn charge_compute2_gpu(
        &mut self,
        i: usize,
        publics: &Publics<R>,
        a: &SharedMatrix<R>,
        b: &SharedMatrix<R>,
        triple: &DistTriple<R>,
    ) -> Result<SimTime> {
        let fenced = !self.cfg.pipeline;
        let mode = self.cfg.gpu_gemm_mode();
        let party = Party::BOTH[i];
        let [e_pub, f_pub] = &publics.ef;
        let (m, n) = (e_pub.rows(), f_pub.cols());
        let ready = publics.ready[i];
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
        let hz = dev.upload(&triple.shares[i].z, ready)?;
        fence(dev);
        let hsum = dev.add(hdf, heb)?;
        fence(dev);
        let hc = dev.add(hsum, hz)?;
        fence(dev);
        let done = dev.download(hc)?;
        for h in [he, ha, hf, hdf, hb, heb, hz, hsum, hc] {
            // `hd` aliases `ha` for P0 and is freed separately for P1.
            dev.free(h)?;
        }
        if party == Party::P1 {
            dev.free(hd)?;
        }

        let trunc_dur = self.cpu_dur(2 * m * n * R::BYTES);
        Ok(self.server_cpu(i, done, trunc_dur))
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
        f: impl Fn(R, R) -> R + Sync,
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
        Ok(SharedMatrix::new(self.per_server(ready, dur, a.parts[0].v.len(), |i| {
            a.parts[i].v.zip_map(&b.parts[i].v, &f)
        })))
    }

    /// Multiplies a shared matrix by a *public* scalar (e.g. the learning
    /// rate). Local: each server scales its share and truncates.
    pub fn scale_public(&mut self, a: &SharedMatrix<R>, c: f64) -> SharedMatrix<R> {
        let enc = R::encode(c);
        let dur = self.cpu_dur(2 * a.parts[0].v.byte_size());
        SharedMatrix::new(self.per_server(a.ready(), dur, a.parts[0].v.len(), |i| {
            let party = Party::BOTH[i];
            a.parts[i].v.map(|x| x.mul(enc).truncate_share(party))
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
        Ok(SharedMatrix::new(self.per_server(a.ready(), dur, a.parts[0].v.len(), |i| {
            let share = &a.parts[i].v;
            let kept = share.as_slice().iter().zip(mask.as_slice());
            let kept = kept.map(|(&x, &keep)| if keep != 0.0 { x } else { R::zero() });
            Matrix::from_vec(share.rows(), share.cols(), kept.collect())
        })))
    }

    /// Applies a share-respecting (linear, data-independent) local
    /// transformation to both shares — transposes, reshapes, im2col,
    /// column slicing. Charges one streaming CPU pass per server.
    pub fn map_local(
        &mut self,
        a: &SharedMatrix<R>,
        f: impl Fn(&Matrix<R>) -> Matrix<R> + Sync,
    ) -> SharedMatrix<R> {
        let dur = self.cpu_dur(2 * a.parts[0].v.byte_size());
        let elems = a.parts[0].v.len();
        SharedMatrix::new(self.per_server(a.ready(), dur, elems, |i| f(&a.parts[i].v)))
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
    ///   per activation. The derivative mask stays client-side knowledge
    ///   in a real deployment; here it is returned for the backward pass
    ///   exactly as the other mode returns it.
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
            // channel and adds its own; both encode what they send at once.
            let on = stream_id(self.site_id(key), CHAN_ACT);
            let sums = if self.delta_streams() {
                let sends = z.parts.each_ref().map(|s| [Some((on, &s.v)), None]);
                let [[p0, _], [p1, _]] = self.outgoing(sends);
                let mut fetch = |i: usize, sent: Option<Payload<R>>| {
                    let sent = sent.expect("each server sends its share");
                    let (mine, peer) = (&z.parts[i].v, &z.parts[1 - i]);
                    self.deliver(1 - i, on, &sent, peer.ready, |theirs| mine.add(theirs))
                };
                [fetch(0, p1)?, fetch(1, p0)?]
            } else {
                // The lent shares go straight into their frames, and each
                // receipt is added to its receiver's share where it lies.
                let (f0, f1) = per_party(
                    z.parts[0].v.len(),
                    || DenseFrame::from_matrix(&z.parts[0].v),
                    || DenseFrame::from_matrix(&z.parts[1].v),
                );
                let mut fetch = |i: usize, sent: DenseFrame<R>| -> Result<Timed<Matrix<R>>> {
                    let (mine, peer) = (&z.parts[i].v, &z.parts[1 - i]);
                    let got = self.deliver_frame(1 - i, sent, peer.ready)?;
                    let (rows, cols) = check_shape(&got.v, mine.shape(), SERVER[1 - i])?;
                    let mine = mine.as_slice().iter().copied();
                    let sum = reconstruct_words(rows, cols, mine, got.v.words());
                    Ok(Timed { v: sum, ready: got.ready })
                };
                [fetch(0, f1)?, fetch(1, f0)?]
            };
            let dur = self.cpu_dur(4 * z.parts[0].v.byte_size());
            let ready = [0, 1].map(|i| z.parts[i].ready.max(sums[i].ready));
            let ready = [0, 1].map(|i| self.server_cpu(i, ready[i], dur));
            let [z0, z1] = sums.map(|sum| sum.v);
            // Both servers hold identical z; apply f / f' and re-share
            // deterministically.
            debug_assert_eq!(z0, z1);
            let (activated, mask) = activate(&R::decode_matrix(&z0), f, df);
            let s0 = R::encode_matrix(&activated);
            let s1 = Matrix::zeros(s0.rows(), s0.cols());
            let parts = [(s0, ready[0]), (s1, ready[1])].map(|(v, ready)| Timed { v, ready });
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
        let mut collect = |i: usize| -> Result<Timed<VerifiedDense<R>>> {
            let part = &x.parts[i];
            let mut srv_clock = part.ready;
            let sent = DenseFrame::from_matrix(&part.v);
            let (from, to) = (SERVER[i], NodeId::Client);
            let got = self.wire.ship_frame(from, &mut srv_clock, to, &mut client_clock, sent)?;
            check_shape(&got.v, x.shape(), from)?;
            self.servers[i].note(srv_clock);
            Ok(got)
        };
        let got = [collect(0)?, collect(1)?];
        let (rows, cols) = x.shape();
        let sum = reconstruct_words(rows, cols, got[0].v.words(), got[1].v.words());
        Ok(Timed {
            v: R::decode_matrix(&sum),
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
        let (rows, cols) = activated.shape();
        let fresh_mask = self.client_mask_frame(rows, cols);
        // Client compute time: reconstruct + apply + split (client rates).
        let client_dur = self.cfg.client_rng_time(rows * cols)
            + self.cfg.client_elementwise_time(5 * rows * cols * R::BYTES);
        let client_done = z_plain.ready + client_dur;

        // Client -> servers: return the fresh shares through the reliable
        // channel; each server resumes when its share lands intact.
        let mut land = |i: usize, share: DenseFrame<R>| -> Result<Timed<Matrix<R>>> {
            let mut client_clock = client_done;
            let mut srv_clock = SimTime::ZERO;
            let (from, to) = (NodeId::Client, SERVER[i]);
            let landed = self.wire.ship_frame(from, &mut client_clock, to, &mut srv_clock, share)?;
            self.servers[i].note(srv_clock.max(landed.ready));
            Ok(Timed { v: landed.v.to_matrix(), ready: landed.ready })
        };
        let [to_s0, to_s1] = split_frames(&activated, fresh_mask);
        let out = SharedMatrix::new([land(0, to_s0)?, land(1, to_s1)?]);
        Ok((out, mask))
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

/// The client's two shares of `m` under the mask framed in `mask`, each
/// in the frame that carries it: server 0's is the mask, server 1's
/// `encode(m) - mask`, encoded and split from the mask frame's words into
/// its own in one pass ([`SecureRing::encode_sub_le`]).
fn split_frames<R: SecureRing>(m: &PlainMatrix, mask: DenseFrame<R>) -> [DenseFrame<R>; 2] {
    let (rows, cols) = m.shape();
    let other = DenseFrame::write_with(rows, cols, |out| {
        R::encode_sub_le(out, m.as_slice(), mask.word_bytes())
    });
    [mask, other]
}

/// `got`'s shape, when it is `want`; a peer that framed another shape is
/// an [`EngineError::Protocol`].
fn check_shape<R: SecureRing>(
    got: &VerifiedDense<R>,
    want: (usize, usize),
    from: NodeId,
) -> Result<(usize, usize)> {
    match got.shape() == want {
        true => Ok(want),
        false => Err(EngineError::Protocol(format!(
            "expected a {want:?} matrix from {from:?}, got {:?}",
            got.shape()
        ))),
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
    use psml_mpc::activation::{relu, relu_derivative};
    use psml_mpc::Fixed64;
    use psml_tensor::{Csr, Num};

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

    /// What each server receives from `share_input`, byte for byte, is
    /// the two-step frames: the mask's, and `encode(x) - mask`'s, with the
    /// mask from the client's MT19937 on the CPU and from the device
    /// counter stream on the GPU (the setup of the test above). 117
    /// elements leave a tail of five past the last eight-word step.
    #[test]
    fn share_input_frames_are_the_two_step_bytes() {
        let m = plain(9, 13, 3.0);
        for gpu in [false, true] {
            let mut cfg = EngineConfig::parsecureml();
            if gpu {
                cfg.machine.cpu.rng_samples_per_core = 1.0;
            }
            let mut ctx = ctx(cfg);
            let mut rng = ctx.rng.clone();
            let mask = match gpu {
                true => device_random::<Fixed64>(9, 13, ctx.curand_seed + 1),
                false => Fixed64::random_matrix(9, 13, &mut rng),
            };
            let split = m.as_slice().iter().zip(mask.as_slice());
            let other = split.map(|(&x, &r)| Fixed64::encode(x).sub(r));
            let want = [DenseFrame::from_matrix(&mask), DenseFrame::write(9, 13, other)];
            let seen = SERVER.map(|node| {
                let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
                let tap = seen.clone();
                ctx.set_receive_tap(node, Box::new(move |p| {
                    tap.lock().unwrap().push(psml_net::codec::encode_framed(p.seq, &p.payload))
                }));
                seen
            });
            ctx.share_input(&m).unwrap();
            for (seen, want) in seen.iter().zip(want) {
                let got = seen.lock().unwrap();
                let seq = u64::from_le_bytes(got[0][4..12].try_into().unwrap());
                assert!(got.len() == 1 && got[0] == want.sealed(seq), "gpu {gpu}");
            }
            assert_eq!(ctx.rng.next_u64(), rng.next_u64(), "the client drew the mask and no more");
        }
    }

    #[test]
    fn a_provisioned_triple_has_its_deal_and_offline_time() {
        let mut ctx = ctx(EngineConfig::parsecureml().with_insecure_reuse_triples(false));
        let spec = TripleSpec::Gemm { m: 3, k: 5, n: 2 };
        ctx.schedule_triples(&[spec]);
        let (deal, _) = ctx.provision(spec, None).unwrap();
        assert_eq!(deal, Deal::Triple(spec));
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
        // Any non-zero entry keeps, negative and fractional ones too.
        let mask = PlainMatrix::from_fn(3, 4, |r, c| [0.0, 1.0, -0.5][(r + c) % 3]);
        let masked = ctx.mask_public(&sa, &mask).unwrap();
        for i in 0..2 {
            let (share, kept) = (&sa.parts[i].v, &masked.parts[i].v);
            assert_eq!(kept.shape(), share.shape());
            for r in 0..3 {
                for c in 0..4 {
                    let want = if mask[(r, c)] == 0.0 {
                        Fixed64::zero()
                    } else {
                        share[(r, c)]
                    };
                    assert!(kept[(r, c)] == want, "share {i} at ({r},{c})");
                }
            }
        }
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
    fn no_compression_keeps_no_mirrors() {
        // Compression off, and compression on over fresh masks (prefetch
        // deals a fresh triple per product): no stream is delta-encoded.
        let fresh = EngineConfig::parsecureml().with_prefetch(true);
        assert!(fresh.compression);
        for cfg in [EngineConfig::secureml(), fresh] {
            let mut ctx = ctx(cfg);
            let a = plain(6, 9, 1.0);
            let b = plain(9, 4, 2.0);
            for _ in 0..3 {
                let c = ctx.secure_matmul_plain(&a, &b).unwrap();
                assert!(c.max_abs_diff(&a.matmul(&b)) < 1e-2);
            }
            let z = ctx.share_input(&a).unwrap();
            ctx.secure_activation(&z, relu, relu_derivative, "t")
                .unwrap();
            for s in &ctx.servers {
                assert!(s.encoders.is_empty() && s.decoders.is_empty());
            }
        }
    }

    #[test]
    fn a_control_payload_on_a_matrix_stream_is_a_protocol_error() {
        let mut ctx = ctx(EngineConfig::parsecureml().with_insecure_reuse_triples(true));
        assert!(ctx.delta_streams());
        let control = Payload::Control("epoch:1".into());
        let err = ctx.deliver(0, 7, &control, SimTime::ZERO, Matrix::clone).unwrap_err();
        match err {
            EngineError::Protocol(msg) => assert!(msg.contains("control"), "{msg}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        assert!(ctx.servers[1].decoders.is_empty());
    }

    /// Off the delta streams a matrix arrives as a dense frame, verified
    /// and read in place; a sparse delta there is refused by the receipt.
    #[test]
    fn sparse_delta_without_compression_is_refused() {
        let mut ctx = ctx(EngineConfig::secureml());
        assert!(!ctx.delta_streams());
        let delta = Payload::SparseDelta(Csr::from_dense(&Matrix::<Fixed64>::zeros(2, 2)));
        let [s0, s1] = pair(&mut ctx.wire.endpoints, SERVER[0], SERVER[1]).unwrap();
        s0.send(SERVER[1], &delta, SimTime::ZERO).unwrap();
        let err = s1.recv_dense(SERVER[0]).unwrap_err();
        assert_eq!(err, NetError::Codec(psml_net::codec::CodecError::NotDense(0x02)));
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
        let (_, first) = reuse.triple_for(site, spec, None).unwrap();
        let (_, again) = reuse.triple_for(site, spec, None).unwrap();
        assert!(Rc::ptr_eq(&first, &again), "a cache hit must not copy the triple");
        let mut fresh = ctx(EngineConfig::parsecureml().with_insecure_reuse_triples(false));
        fresh.schedule_triples(&[spec, spec]);
        let (_, first) = fresh.triple_for(site, spec, None).unwrap();
        assert!(!Rc::ptr_eq(&first, &fresh.triple_for(site, spec, None).unwrap().1));
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
        assert_eq!(ctx.provider_stats().takes, 2);
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

    /// The three ways a product gets its triple: dealt inline, dealt
    /// ahead by the prefetch pipeline, and the reuse cache.
    fn every_mode() -> [EngineConfig; 3] {
        let fresh = EngineConfig::parsecureml().with_insecure_reuse_triples(false);
        [fresh.clone(), fresh.with_prefetch(true), EngineConfig::parsecureml()]
    }

    // Inline mode accepts every one of these at the parent: it dealt
    // whatever was multiplied, unchecked.
    #[test]
    fn prefetch_schedule_mismatch_is_a_protocol_error() {
        let gemm = TripleSpec::Gemm { m: 2, k: 3, n: 4 };
        let act = Operand { secret: Secret::Act { layer: 0, step: 0 }, transposed: false };
        let weight = Operand { secret: Secret::Weight { layer: 0, which: 0 }, transposed: false };
        let masked = psml_mpc::mask_schedule(&[(gemm, Some([act, weight]))]);
        // What is declared, and the product that disagrees with it.
        type Operands = [SharedMatrix<Fixed64>; 2];
        type Misuse = fn(&mut SecureContext<Fixed64>, &Operands) -> Result<SharedMatrix<Fixed64>>;
        let cases: [(&str, Vec<Deal>, Misuse); 4] = [
            ("undeclared matmul", vec![], |ctx, [a, b]| ctx.secure_mul_auto(a, b, "t")),
            (
                "mismatched shape",
                vec![Deal::Triple(TripleSpec::Hadamard { m: 2, n: 4 })],
                |ctx, [a, b]| ctx.secure_mul_auto(a, b, "t"),
            ),
            ("hadamard product", vec![Deal::Triple(gemm)], |ctx, [a, _]| {
                ctx.secure_hadamard(a, a, "t")
            }),
            // An inference product names no operands; the declared
            // training product opens `x` and `W` for later products.
            ("inference product", masked, |ctx, [a, b]| ctx.secure_mul_auto(a, b, "t")),
        ];
        for (what, declared, misuse) in cases {
            let [inline, prefetch, _] = every_mode();
            let [inline, prefetch] = [inline, prefetch].map(|cfg| {
                let mut ctx = ctx(cfg);
                ctx.schedule_deals(&declared).unwrap();
                let operands = [plain(2, 3, 1.0), plain(3, 4, 1.0)];
                let operands = operands.map(|m| ctx.share_input(&m).unwrap());
                match misuse(&mut ctx, &operands).unwrap_err() {
                    EngineError::Protocol(msg) => msg,
                    other => panic!("{what}: expected a protocol error, got {other:?}"),
                }
            });
            assert_eq!(inline, prefetch, "{what}");
        }
    }

    // Fails at the parent: the batch is declared, and dealing it panics —
    // inline on this thread, with prefetch in the worker.
    #[test]
    fn a_declaration_reading_an_unopened_mask_is_a_protocol_error() {
        let gemm = TripleSpec::Gemm { m: 2, k: 3, n: 4 };
        let act = Operand { secret: Secret::Act { layer: 0, step: 0 }, transposed: false };
        let weight = Operand { secret: Secret::Weight { layer: 0, which: 0 }, transposed: false };
        // A served request that reads a weight no earlier pass opened.
        let open = std::collections::HashSet::from([weight.secret]);
        let served = psml_mpc::mask_schedule_from(&[(gemm, Some([act, weight]))], &open, |_| true);
        let [inline, prefetch, _] = every_mode();
        for cfg in [inline, prefetch] {
            let mut ctx = ctx(cfg);
            let err = ctx.schedule_deals(&served).unwrap_err();
            assert!(matches!(&err, EngineError::Protocol(m) if m.contains("Weight")), "{err:?}");
            // Nothing of it was declared.
            ctx.schedule_triples(&[gemm]);
            let (a, b) = (plain(2, 3, 1.0), plain(3, 4, 2.0));
            let [sa, sb] = [&a, &b].map(|m| ctx.share_input(m).unwrap());
            let c = ctx.secure_mul_auto(&sa, &sb, "t").unwrap();
            assert!(c.reveal_insecure().max_abs_diff(&a.matmul(&b)) < 1e-2);
        }
    }

    // Fails at the parent: inline and reuse deal (and charge) a triple for
    // a product `product_dims` then rejects, and after a refused take in
    // prefetch mode every later take is a seq mismatch.
    #[test]
    fn a_rejected_product_leaves_the_context_usable() {
        let spec = TripleSpec::Gemm { m: 2, k: 3, n: 4 };
        for cfg in every_mode() {
            let mode = format!("prefetch {} reuse {}", cfg.prefetch, cfg.insecure_reuse_triples);
            let mut ctx = ctx(cfg);
            ctx.schedule_triples(&[spec]);
            let (a, b) = (plain(2, 3, 1.0), plain(3, 4, 2.0));
            let [sa, sb, sc] = [&a, &b, &plain(3, 5, 1.0)].map(|m| ctx.share_input(m).unwrap());
            let before = format!("{:?}", ctx.report());
            let err = ctx.secure_mul_auto(&sa, &sa, "t").unwrap_err();
            assert!(matches!(err, EngineError::Shape(_)), "{mode}: {err:?}");
            assert_eq!(format!("{:?}", ctx.report()), before, "{mode}: a shape error charged");
            if !ctx.config().insecure_reuse_triples {
                let err = ctx.secure_mul_auto(&sa, &sc, "t").unwrap_err();
                assert!(matches!(err, EngineError::Protocol(_)), "{mode}: {err:?}");
                assert_eq!(format!("{:?}", ctx.report()), before, "{mode}: a refused take charged");
            }
            let c = ctx.secure_mul_auto(&sa, &sb, "t").unwrap();
            assert!(c.reveal_insecure().max_abs_diff(&a.matmul(&b)) < 1e-2, "{mode}");
        }
    }
}
