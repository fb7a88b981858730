//! The four workloads. Each one generates its inputs from the seed before
//! any clock starts, sets the program up (constructors, input sharing and
//! one untimed warm-up op), runs individually timed samples, and checks
//! the program's outputs.

use crate::replay::Layers;
use crate::spans::Spans;
use crate::stats::{median, percentile};
use parsecureml::prelude::*;
use parsecureml::serve::fleet_arrivals;
use parsecureml::{
    outputs_digest, run_client, run_server, weights_digest, SessionConfig, SessionOutcome,
    Supervisor, SupervisorConfig, TrainPlan,
};
use psml_bench::{features, spec_for};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Simulated-clock and byte-count growth over one sample's ops.
#[derive(Clone, Default)]
pub struct SimDelta {
    pub total_s: f64,
    pub offline_s: f64,
    pub online_s: f64,
    pub wire_bytes: f64,
    /// Simulated latency of each op in the sample, seconds.
    pub latencies_s: Vec<f64>,
}

impl SimDelta {
    fn between(r0: &RunReport, r1: &RunReport) -> Self {
        let total_s = (r1.total_time() - r0.total_time()).as_secs();
        SimDelta {
            total_s,
            offline_s: (r1.offline_time - r0.offline_time).as_secs(),
            online_s: (r1.online_time - r0.online_time).as_secs(),
            wire_bytes: (r1.traffic.total_wire_bytes() - r0.traffic.total_wire_bytes()) as f64,
            latencies_s: vec![total_s],
        }
    }
}

/// One individually timed bracket.
pub struct Sample {
    pub wall_s: f64,
    pub ops: u64,
    pub failed: u64,
    pub sim: SimDelta,
}

/// Per-op simulated and count metrics over the fixed leading window of
/// samples, so they do not depend on how many samples the time budget
/// admitted.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
pub struct Ledger {
    pub sim_s_per_op: f64,
    pub sim_offline_s_per_op: f64,
    pub sim_online_s_per_op: f64,
    pub sim_op_latency_p99_ms: f64,
    pub wire_bytes_per_op: f64,
}

impl Ledger {
    pub fn of(window: &[Sample]) -> Self {
        let ops: f64 = window.iter().map(|s| s.ops as f64).sum();
        if ops == 0.0 {
            return Ledger::default();
        }
        let sum = |f: fn(&SimDelta) -> f64| window.iter().map(|s| f(&s.sim)).sum::<f64>() / ops;
        let mut lat: Vec<f64> = window
            .iter()
            .flat_map(|s| s.sim.latencies_s.iter().copied())
            .collect();
        lat.sort_by(f64::total_cmp);
        Ledger {
            sim_s_per_op: sum(|d| d.total_s),
            sim_offline_s_per_op: sum(|d| d.offline_s),
            sim_online_s_per_op: sum(|d| d.online_s),
            sim_op_latency_p99_ms: percentile(&lat, 99.0) * 1e3,
            wire_bytes_per_op: sum(|d| d.wire_bytes),
        }
    }
}

/// What a workload hands back once its samples are in.
pub struct Finish {
    pub ledger: Ledger,
    /// Digest of the program's output; equal across trials of one seed.
    pub digest: u64,
    /// Named output checks. A failed check fails every op of the trial.
    pub checks: Vec<(&'static str, bool)>,
}

pub trait Workload: Sized {
    /// Inputs, generated from the seed before any clock starts.
    type Load;
    /// Returns the load and the milliseconds one input batch took to
    /// generate (load generation: shown, never part of a timing).
    fn generate(seed: u32, smoke: bool) -> (Self::Load, f64);
    /// Samples every trial runs at least (the fixed ledger window).
    fn min_samples(load: &Self::Load) -> usize;
    /// Timed as `setup_s`: construct, share inputs, one warm-up op.
    fn setup(load: &Self::Load) -> Self;
    fn sample(&mut self, load: &Self::Load, i: usize) -> Sample;
    fn finish(&mut self, load: &Self::Load, window: &[Sample]) -> Finish;

    // Traced trials only.
    /// Configuration the op's engine runs under.
    fn engine_cfg(&self) -> EngineConfig;
    /// Ops' worth of work one layer replay runs.
    const REPLAY_PASSES: usize;
    /// One op on a bare instance the program trace can be read from.
    fn bare_op(&mut self, load: &Self::Load);
    /// Output checks too slow for `setup_s`, and workload-specific layers.
    fn traced_extras(
        &mut self,
        load: &Self::Load,
        op_ms: f64,
        spans: &mut Spans,
        out: &mut Layers,
    ) -> Vec<(&'static str, bool)>;
}

fn timed_step(
    trainer: &mut SecureTrainer<Fixed64>,
    step: impl FnOnce(&mut SecureTrainer<Fixed64>) -> Result<f64, EngineError>,
) -> Sample {
    let r0 = trainer.report();
    let t = Instant::now();
    let loss = step(trainer);
    let wall_s = t.elapsed().as_secs_f64();
    let r1 = trainer.report();
    let ok = matches!(loss, Ok(l) if l.is_finite());
    Sample {
        wall_s,
        ops: 1,
        failed: u64::from(!ok),
        sim: SimDelta::between(&r0, &r1),
    }
}

/// A classification batch under harness geometry, from the run's seed.
fn classification_batch(
    dataset: DatasetKind,
    size: usize,
    idx: usize,
    seed: u32,
) -> (PlainMatrix, PlainMatrix) {
    let data = batch(dataset, size, idx, seed);
    let x = PlainMatrix::from_fn(size, features(dataset), |r, c| data.x[(r, c)]);
    (x, data.y_onehot)
}

fn timed_gen<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64() * 1e3)
}

// ---------------------------------------------------------------------
// train_mlp_fresh
// ---------------------------------------------------------------------

pub struct MlpLoad {
    seed: u32,
    steps: usize,
    /// Steps of the traced trial's provider-vs-inline identity check.
    identity_steps: usize,
    batches: Vec<(PlainMatrix, PlainMatrix)>,
}

pub struct TrainMlp {
    trainer: SecureTrainer<Fixed64>,
}

const MLP_BATCH: usize = 128;

fn mlp_cfg() -> EngineConfig {
    EngineConfig::parsecureml().with_prefetch(true)
}

fn mlp_trainer(cfg: EngineConfig, seed: u32) -> SecureTrainer<Fixed64> {
    SecureTrainer::new(cfg, spec_for(ModelKind::Mlp, DatasetKind::VggFace2), seed)
        .expect("MLP trainer")
}

impl Workload for TrainMlp {
    type Load = MlpLoad;

    fn generate(seed: u32, smoke: bool) -> (MlpLoad, f64) {
        // Four distinct batches, cycled: every step shares fresh inputs.
        let (batches, ms) = timed_gen(|| {
            (0..4)
                .map(|i| classification_batch(DatasetKind::VggFace2, MLP_BATCH, i, seed))
                .collect::<Vec<_>>()
        });
        let load = MlpLoad {
            seed,
            steps: if smoke { 2 } else { 20 },
            identity_steps: if smoke { 1 } else { 2 },
            batches,
        };
        (load, ms / 4.0)
    }

    fn min_samples(load: &MlpLoad) -> usize {
        load.steps
    }

    fn setup(load: &MlpLoad) -> Self {
        let mut trainer = mlp_trainer(mlp_cfg(), load.seed);
        let (x, y) = &load.batches[0];
        trainer.train_batch(x, y).expect("warm-up step");
        TrainMlp { trainer }
    }

    fn sample(&mut self, load: &MlpLoad, i: usize) -> Sample {
        let (x, y) = &load.batches[i % load.batches.len()];
        timed_step(&mut self.trainer, |t| t.train_batch(x, y))
    }

    fn finish(&mut self, _: &MlpLoad, window: &[Sample]) -> Finish {
        Finish {
            ledger: Ledger::of(window),
            digest: weights_digest(&self.trainer.reveal_weights()),
            checks: vec![],
        }
    }

    fn engine_cfg(&self) -> EngineConfig {
        mlp_cfg()
    }

    const REPLAY_PASSES: usize = 1;

    fn bare_op(&mut self, load: &MlpLoad) {
        let (x, y) = &load.batches[0];
        self.trainer.train_batch(x, y).expect("traced step");
    }

    fn traced_extras(
        &mut self,
        load: &MlpLoad,
        _: f64,
        _: &mut Spans,
        _: &mut Layers,
    ) -> Vec<(&'static str, bool)> {
        // Steps with the provider equal steps that make each fresh triple
        // inline: same revealed predictions, same weights.
        let run = |cfg: EngineConfig| {
            let mut t = mlp_trainer(cfg, load.seed);
            for (x, y) in &load.batches[..load.identity_steps] {
                t.train_batch(x, y).expect("identity step");
            }
            let out = t
                .infer_request(&InferRequest::new(load.batches[0].0.clone()))
                .expect("identity inference");
            (out.output, weights_digest(&t.reveal_weights()))
        };
        let fresh_inline = EngineConfig::parsecureml().with_insecure_reuse_triples(false);
        vec![(
            "prefetch_equals_inline_fresh_triples",
            run(mlp_cfg()) == run(fresh_inline),
        )]
    }
}

// ---------------------------------------------------------------------
// train_cnn_reuse
// ---------------------------------------------------------------------

pub struct CnnLoad {
    seed: u32,
    steps: usize,
    x: PlainMatrix,
    y: PlainMatrix,
}

pub struct TrainCnn {
    trainer: SecureTrainer<Fixed64>,
    xs: parsecureml::engine::SharedMatrix<Fixed64>,
    ys: parsecureml::engine::SharedMatrix<Fixed64>,
}

impl Workload for TrainCnn {
    type Load = CnnLoad;

    fn generate(seed: u32, smoke: bool) -> (CnnLoad, f64) {
        let ((x, y), gen_ms) = timed_gen(|| classification_batch(DatasetKind::Mnist, 64, 0, seed));
        let load = CnnLoad {
            seed,
            steps: if smoke { 2 } else { 20 },
            x,
            y,
        };
        (load, gen_ms)
    }

    fn min_samples(load: &CnnLoad) -> usize {
        load.steps
    }

    fn setup(load: &CnnLoad) -> Self {
        let spec = spec_for(ModelKind::Cnn, DatasetKind::Mnist);
        let mut trainer =
            SecureTrainer::new(EngineConfig::parsecureml(), spec, load.seed).expect("CNN trainer");
        let xs = trainer.share_input(&load.x).expect("share x");
        let ys = trainer.share_input(&load.y).expect("share y");
        // The warm-up step generates and caches every call site's triple.
        trainer
            .train_on_shared(&xs, &ys, &load.y)
            .expect("warm-up step");
        TrainCnn { trainer, xs, ys }
    }

    fn sample(&mut self, load: &CnnLoad, _: usize) -> Sample {
        let (xs, ys) = (&self.xs, &self.ys);
        timed_step(&mut self.trainer, |t| t.train_on_shared(xs, ys, &load.y))
    }

    fn finish(&mut self, _: &CnnLoad, window: &[Sample]) -> Finish {
        Finish {
            ledger: Ledger::of(window),
            digest: weights_digest(&self.trainer.reveal_weights()),
            checks: vec![],
        }
    }

    fn engine_cfg(&self) -> EngineConfig {
        EngineConfig::parsecureml()
    }

    const REPLAY_PASSES: usize = 1;

    fn bare_op(&mut self, load: &CnnLoad) {
        self.trainer
            .train_on_shared(&self.xs, &self.ys, &load.y)
            .expect("traced step");
    }

    fn traced_extras(
        &mut self,
        _: &CnnLoad,
        _: f64,
        _: &mut Spans,
        _: &mut Layers,
    ) -> Vec<(&'static str, bool)> {
        vec![]
    }
}

// ---------------------------------------------------------------------
// serve_fleet_small
// ---------------------------------------------------------------------

const WINDOW_US: f64 = 200.0;
const MAX_BATCH: usize = 16;
const MODEL: &str = "logistic";

pub struct ServeLoad {
    seed: u32,
    fleet: usize,
    requests: usize,
    rounds: usize,
    /// Fleet sizes of the traced trial's rate ladder.
    ladder: [usize; 3],
    /// Single-row inputs of the warm-up window.
    warmup: Vec<PlainMatrix>,
}

pub struct ServeFleet {
    host: ModelHost<Fixed64>,
    id: ModelId,
    rounds_run: usize,
    /// A direct trainer on the host's engine configuration.
    bare: Option<(SecureTrainer<Fixed64>, Vec<PlainMatrix>, usize)>,
}

fn serve_spec() -> ModelSpec {
    spec_for(ModelKind::Logistic, DatasetKind::Synthetic)
}

fn serve_cfg(max_batch: usize, queue: usize) -> ServeConfig {
    ServeConfig::builder()
        .batch_window_micros(WINDOW_US)
        .max_batch(max_batch)
        .max_queue_depth(queue.max(1))
        .build()
        .expect("serve config")
}

fn serve_host(max_batch: usize, queue: usize, seed: u32) -> (ModelHost<Fixed64>, ModelId) {
    let mut host = ModelHost::<Fixed64>::new(serve_cfg(max_batch, queue)).expect("host");
    let id = host.load(MODEL, serve_spec(), seed).expect("load model");
    (host, id)
}

/// One wave of the open-loop fleet: mean think time keeps the nominal
/// fold width at `MAX_BATCH` whatever the fleet size.
fn wave(id: ModelId, fleet: usize, requests: usize, seed: u32) -> Vec<(SimTime, InferRequest)> {
    let think = SimDuration::from_micros(WINDOW_US) * (fleet as f64 / MAX_BATCH as f64);
    fleet_arrivals(&[id], DatasetKind::Synthetic, fleet, requests, think, seed)
}

fn bare_serving_trainer(seed: u32) -> SecureTrainer<Fixed64> {
    SecureTrainer::new(
        serve_cfg(MAX_BATCH, 1).engine_for_host(),
        serve_spec(),
        seed,
    )
    .expect("bare trainer")
}

/// Runs one fresh host over one wave; tag-sorted responses and the report.
fn serve_once(
    fleet: usize,
    requests: usize,
    max_batch: usize,
    seed: u32,
) -> (f64, Vec<InferResponse>, ServeReport) {
    let (mut host, id) = serve_host(max_batch, requests, seed);
    let arrivals = wave(id, fleet, requests, seed);
    let t = Instant::now();
    let outcome = host.run(arrivals).expect("serve run");
    let wall_s = t.elapsed().as_secs_f64();
    let mut responses = outcome.responses;
    responses.sort_by_key(|r| r.tag);
    (wall_s, responses, host.report())
}

impl Workload for ServeFleet {
    type Load = ServeLoad;

    fn generate(seed: u32, smoke: bool) -> (ServeLoad, f64) {
        let (warmup, ms) = timed_gen(|| {
            (0..MAX_BATCH)
                .map(|i| batch(DatasetKind::Synthetic, 1, i, seed).x)
                .collect::<Vec<_>>()
        });
        let (fleet, requests, rounds) = if smoke { (32, 64, 1) } else { (512, 1024, 8) };
        let load = ServeLoad {
            seed,
            fleet,
            requests,
            rounds,
            ladder: if smoke { [8, 16, 32] } else { [64, 512, 4096] },
            warmup,
        };
        (load, ms / MAX_BATCH as f64)
    }

    fn min_samples(load: &ServeLoad) -> usize {
        load.rounds
    }

    fn setup(load: &ServeLoad) -> Self {
        let (mut host, id) = serve_host(MAX_BATCH, load.requests, load.seed);
        // Warm-up: one full window, folded and served.
        let arrivals = load
            .warmup
            .iter()
            .enumerate()
            .map(|(i, x)| {
                (
                    SimTime::ZERO,
                    InferRequest::new(x.clone())
                        .for_model(id)
                        .with_tag(i as u64),
                )
            })
            .collect();
        host.run(arrivals).expect("warm-up window");
        ServeFleet {
            host,
            id,
            rounds_run: 0,
            bare: None,
        }
    }

    fn sample(&mut self, load: &ServeLoad, i: usize) -> Sample {
        let r0 = self.host.report();
        // Load generation: the wave starts where the previous one drained.
        let mut arrivals = wave(
            self.id,
            load.fleet,
            load.requests,
            load.seed.wrapping_add(1 + i as u32),
        );
        for a in &mut arrivals {
            a.0 += r0.sim_elapsed;
        }
        let t = Instant::now();
        let outcome = self.host.run(arrivals);
        let wall_s = t.elapsed().as_secs_f64();
        let r1 = self.host.report();
        let online = |r: &ServeReport| r.per_model.iter().map(|m| m.online.as_secs()).sum::<f64>();
        let (completed, latencies_s) = match &outcome {
            Ok(o) => (
                o.responses.len() as u64,
                o.responses.iter().map(|r| r.latency.as_secs()).collect(),
            ),
            Err(_) => (0, Vec::new()),
        };
        self.rounds_run += 1;
        Sample {
            wall_s,
            ops: load.requests as u64,
            failed: load.requests as u64 - completed,
            sim: SimDelta {
                total_s: (r1.sim_elapsed - r0.sim_elapsed).as_secs(),
                online_s: online(&r1) - online(&r0),
                latencies_s,
                // Filled in by `finish`: the host exposes no `RunReport`.
                offline_s: 0.0,
                wire_bytes: 0.0,
            },
        }
    }

    fn finish(&mut self, load: &ServeLoad, window: &[Sample]) -> Finish {
        // The serve-identity contract makes a direct trainer's ledger equal
        // the host's: feed it the first wave once for offline time and bytes.
        let inputs: Vec<PlainMatrix> = wave(
            self.id,
            load.fleet,
            load.requests,
            load.seed.wrapping_add(1),
        )
        .into_iter()
        .map(|(_, r)| r.input)
        .collect();
        let mut bare = bare_serving_trainer(load.seed);
        let r0 = bare.report();
        for (tag, x) in inputs.iter().enumerate() {
            bare.infer_request(&InferRequest::new(x.clone()).with_tag(tag as u64))
                .expect("direct inference");
        }
        let direct = SimDelta::between(&r0, &bare.report());
        let mut ledger = Ledger::of(window);
        ledger.sim_offline_s_per_op = direct.offline_s / inputs.len() as f64;
        ledger.wire_bytes_per_op = direct.wire_bytes / inputs.len() as f64;

        let sub = 64.min(load.requests);
        let (_, batched, report) = serve_once(sub.min(load.fleet), sub, MAX_BATCH, load.seed);
        let (_, sequential, _) = serve_once(sub.min(load.fleet), sub, 1, load.seed);
        let digest = outputs_digest(&batched);
        Finish {
            ledger,
            digest,
            checks: vec![
                (
                    "batched_equals_sequential",
                    digest == outputs_digest(&sequential) && batched.len() == sub,
                ),
                (
                    "no_rejections",
                    report.rejected_overload + report.rejected_deadline == 0
                        && window.iter().all(|s| s.failed == 0),
                ),
            ],
        }
    }

    fn engine_cfg(&self) -> EngineConfig {
        self.host.cfg().engine_for_host()
    }

    const REPLAY_PASSES: usize = 64;

    fn bare_op(&mut self, load: &ServeLoad) {
        let id = self.id;
        let (trainer, inputs, next) = self.bare.get_or_insert_with(|| {
            let inputs = wave(
                id,
                load.fleet,
                64.min(load.requests),
                load.seed.wrapping_add(1),
            )
            .into_iter()
            .map(|(_, r)| r.input)
            .collect();
            (bare_serving_trainer(load.seed), inputs, 0)
        });
        let x = inputs[*next % inputs.len()].clone();
        *next += 1;
        trainer
            .infer_request(&InferRequest::new(x))
            .expect("direct inference");
    }

    fn traced_extras(
        &mut self,
        load: &ServeLoad,
        op_ms: f64,
        spans: &mut Spans,
        out: &mut Layers,
    ) -> Vec<(&'static str, bool)> {
        let report = self.host.report();
        let rounds = self.rounds_run.max(1) as f64;
        // The warm-up window is one of the host's windows.
        out.insert(
            "core.serve.windows_per_round",
            (report.windows as f64 - 1.0) / rounds,
        );
        out.insert("core.serve.mean_fold", report.mean_window);
        out.insert("core.serve.max_queue", report.max_queue_depth as f64);

        // A bare `infer_request` per fleet input: what a request costs
        // with no host around it.
        let mut infer_ms = Vec::new();
        for _ in 0..64 {
            let ((), ms) =
                spans.timed("core.trainer.infer_request", None, 0, || self.bare_op(load));
            infer_ms.push(ms);
        }
        let infer_p50 = median(&infer_ms);
        out.insert("core.trainer.infer_ms_p50", infer_p50);
        out.insert("core.serve.overhead_us_per_req", (op_ms - infer_p50) * 1e3);

        // Rate ladder, each fleet on a fresh host (not gated).
        let names = [
            ("core.serve.wall_req_per_s_f64", "core.serve.sim_p99_ms_f64"),
            (
                "core.serve.wall_req_per_s_f512",
                "core.serve.sim_p99_ms_f512",
            ),
            (
                "core.serve.wall_req_per_s_f4096",
                "core.serve.sim_p99_ms_f4096",
            ),
        ];
        for (fleet, (rate, p99)) in load.ladder.into_iter().zip(names) {
            let requests = (2 * fleet).min(4096);
            let ((wall_s, _, report), _) =
                spans.timed("core.serve.ladder", None, fleet as u64, || {
                    serve_once(fleet, requests, MAX_BATCH, load.seed)
                });
            out.insert(rate, report.completed as f64 / wall_s);
            out.insert(p99, report.p99.as_secs() * 1e3);
        }
        vec![]
    }
}

// ---------------------------------------------------------------------
// tcp_session_mlp
// ---------------------------------------------------------------------

pub struct TcpLoad {
    plan: TrainPlan,
    min_sessions: usize,
    /// Scratch space for party state directories, inside the checkout.
    scratch: PathBuf,
}

pub struct TcpSession {
    sessions: usize,
    session_ms: Vec<f64>,
    /// Wall time of the in-process `train_epochs` twin.
    in_process_ms: f64,
    last: Option<[SessionOutcome; 3]>,
    /// In-process twin for the program trace.
    bare: Option<BareTrain>,
}

struct BareTrain {
    trainer: SecureTrainer<Fixed64>,
    xs: parsecureml::engine::SharedMatrix<Fixed64>,
    ys: parsecureml::engine::SharedMatrix<Fixed64>,
    y: PlainMatrix,
}

/// A directory removed when dropped, whatever happened inside it.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where benchmark output goes: the build's target directory.
pub fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("e2e")
}

fn free_addr() -> std::net::SocketAddr {
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    probe.local_addr().expect("ephemeral address")
}

/// One complete three-party session: both servers on threads, the client
/// on the caller's. Returns `[client, server0, server1]` outcomes.
fn run_session(
    scratch: &Path,
    nth: usize,
    plan: &TrainPlan,
) -> Result<[SessionOutcome; 3], String> {
    let dir = TempDir(scratch.join(format!("session-{}-{nth}", std::process::id())));
    let run_id = 0xE2E0 + nth as u64;
    let (a0, a1) = (free_addr(), free_addr());
    let party = |node: NodeId, sub: &str| {
        let mut cfg = SessionConfig::for_party(run_id, node, dir.0.join(sub));
        cfg.progress = false;
        cfg
    };
    let mut client = party(NodeId::Client, "client");
    client.supervisor.dial = vec![(NodeId::Server0, a0), (NodeId::Server1, a1)];
    let servers = [
        (NodeId::Server0, "server0", a0),
        (NodeId::Server1, "server1", a1),
    ]
    .map(|(node, sub, addr)| {
        let mut cfg = party(node, sub);
        cfg.supervisor.listen = Some(addr);
        std::thread::spawn(move || run_server(&cfg))
    });
    let c = run_client(&client, plan);
    let [s0, s1] = servers.map(|h| h.join());
    let flat = |r: std::thread::Result<Result<SessionOutcome, EngineError>>| match r {
        Ok(Ok(o)) => Ok(o),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("server thread panicked".to_string()),
    };
    Ok([c.map_err(|e| e.to_string())?, flat(s0)?, flat(s1)?])
}

fn session_ok(o: &[SessionOutcome; 3]) -> bool {
    o.iter()
        .all(|p| p.digest == o[0].digest && p.generation == 0 && p.rollbacks == 0)
}

fn tcp_trainer(plan: &TrainPlan) -> SecureTrainer<Fixed64> {
    // The spec and configuration `core::session` builds for a plan.
    let d = plan.dataset.spec();
    let spec = ModelSpec::build(
        plan.model,
        d.features(),
        Some((d.channels, d.height, d.width)),
        d.classes,
    )
    .expect("session spec");
    SecureTrainer::new(EngineConfig::parsecureml(), spec, plan.seed).expect("in-process trainer")
}

impl TcpSession {
    fn session(&mut self, load: &TcpLoad) -> Sample {
        let t = Instant::now();
        let outcome = run_session(&load.scratch, self.sessions, &load.plan);
        let wall_s = t.elapsed().as_secs_f64();
        self.sessions += 1;
        self.session_ms.push(wall_s * 1e3);
        let ok = outcome.as_ref().is_ok_and(session_ok);
        if let Ok(o) = outcome {
            self.last = Some(o);
        }
        let ops = load.plan.epochs as u64;
        Sample {
            wall_s,
            ops,
            failed: if ok { 0 } else { ops },
            sim: SimDelta::default(),
        }
    }
}

impl Workload for TcpSession {
    type Load = TcpLoad;

    fn generate(seed: u32, smoke: bool) -> (TcpLoad, f64) {
        let plan = TrainPlan {
            model: ModelKind::Mlp,
            dataset: DatasetKind::Synthetic,
            batch: 8,
            batches: 1,
            epochs: if smoke { 2 } else { 8 },
            seed,
        };
        // The parties draw the plan's batch themselves; this only shows
        // what that costs them.
        let (_, gen_ms) = timed_gen(|| black_box(batch(plan.dataset, plan.batch, 0, seed)));
        let load = TcpLoad {
            plan,
            min_sessions: if smoke { 1 } else { 6 },
            scratch: out_dir().join("tmp"),
        };
        (load, gen_ms)
    }

    fn min_samples(load: &TcpLoad) -> usize {
        load.min_sessions
    }

    fn setup(load: &TcpLoad) -> Self {
        let mut w = TcpSession {
            sessions: 0,
            session_ms: Vec::new(),
            in_process_ms: 0.0,
            last: None,
            bare: None,
        };
        w.session(load); // warm-up session: connect, handshake, all epochs
        w.session_ms.clear();
        w
    }

    fn sample(&mut self, load: &TcpLoad, _: usize) -> Sample {
        self.session(load)
    }

    fn finish(&mut self, load: &TcpLoad, window: &[Sample]) -> Finish {
        let plan = &load.plan;
        let mut trainer = tcp_trainer(plan);
        let t = Instant::now();
        let result = trainer
            .train_epochs(
                plan.dataset,
                plan.batch,
                plan.batches,
                plan.epochs,
                plan.seed,
            )
            .expect("in-process training");
        self.in_process_ms = t.elapsed().as_secs_f64() * 1e3;
        let digest = weights_digest(&trainer.reveal_weights());
        let fnv = parsecureml::fnv64(format!("{:?}", result.report).as_bytes());
        let matches = self
            .last
            .as_ref()
            .is_some_and(|o| session_ok(o) && o[0].digest == digest && o[0].report_fnv == fnv);
        // The session's simulated ledger is its in-process twin's, used
        // only once the two reports are known to be the same.
        let mut ledger = Ledger::default();
        if matches {
            let epochs = plan.epochs as f64;
            let r = &result.report;
            ledger = Ledger {
                sim_s_per_op: r.total_time().as_secs() / epochs,
                sim_offline_s_per_op: r.offline_time.as_secs() / epochs,
                sim_online_s_per_op: r.online_time.as_secs() / epochs,
                // The twin exposes one final report, not one per epoch.
                sim_op_latency_p99_ms: r.total_time().as_secs() / epochs * 1e3,
                wire_bytes_per_op: r.traffic.total_wire_bytes() as f64 / epochs,
            };
        }
        Finish {
            ledger,
            digest,
            checks: vec![
                (
                    "parties_agree_generation0_no_rollback",
                    window.iter().all(|s| s.failed == 0),
                ),
                ("session_equals_in_process", matches),
            ],
        }
    }

    fn engine_cfg(&self) -> EngineConfig {
        EngineConfig::parsecureml()
    }

    const REPLAY_PASSES: usize = 8;

    fn bare_op(&mut self, load: &TcpLoad) {
        let b = self.bare.get_or_insert_with(|| {
            let plan = &load.plan;
            let mut trainer = tcp_trainer(plan);
            let data = batch(plan.dataset, plan.batch, 0, plan.seed);
            let y = trainer.targets_for(&data);
            let xs = trainer.share_input(&data.x).expect("share x");
            let ys = trainer.share_input(&y).expect("share y");
            trainer
                .train_on_shared(&xs, &ys, &y)
                .expect("fill the triple cache");
            BareTrain { trainer, xs, ys, y }
        });
        b.trainer
            .train_on_shared(&b.xs, &b.ys, &b.y)
            .expect("in-process epoch");
    }

    fn traced_extras(
        &mut self,
        load: &TcpLoad,
        _: f64,
        spans: &mut Spans,
        out: &mut Layers,
    ) -> Vec<(&'static str, bool)> {
        let session_ms = median(&self.session_ms);
        out.insert(
            "core.session.epoch_ms",
            session_ms / load.plan.epochs as f64,
        );
        out.insert(
            "core.session.overhead_share",
            (1.0 - self.in_process_ms / session_ms).max(0.0),
        );
        if let Some([client, ..]) = &self.last {
            out.insert("net.supervise.handshakes", client.stats.handshakes as f64);
            out.insert("net.supervise.reconnects", client.stats.reconnects as f64);
            out.insert("net.supervise.replayed", client.stats.replayed as f64);
        }

        // A durable epoch checkpoint: the model's weights to a file.
        self.bare_op(load);
        let weights = self
            .bare
            .as_ref()
            .expect("bare trainer")
            .trainer
            .reveal_weights();
        let dir = TempDir(load.scratch.join(format!("ckpt-{}", std::process::id())));
        std::fs::create_dir_all(&dir.0).expect("checkpoint scratch dir");
        let mut ckpt_ms = Vec::new();
        for i in 0..8 {
            let path = dir.0.join(format!("ckpt-{i}.wts"));
            let (res, ms) = spans.timed("core.session.save_weights", None, i, || {
                parsecureml::io::save_weights(&path, &weights)
            });
            res.expect("write checkpoint");
            ckpt_ms.push(ms);
        }
        out.insert("core.session.ckpt_write_ms", median(&ckpt_ms));
        supervise_probe(spans, out);
        vec![]
    }
}

/// The supervised TCP transport alone, over localhost: connect time, a
/// 64-byte echo round trip, and bulk throughput in 1 MiB records.
fn supervise_probe(spans: &mut Spans, out: &mut Layers) {
    const ECHOES: usize = 200;
    const BULK_RECORDS: usize = 16;
    const RUN_ID: u64 = 0xE2E;
    let mut listen = SupervisorConfig::for_party(RUN_ID, NodeId::Server0);
    listen.listen = Some("127.0.0.1:0".parse().expect("loopback"));
    let mut server = Supervisor::new(listen).expect("bind probe listener");
    let addr = server.local_addr().expect("probe listener address");
    let echo = std::thread::spawn(move || -> Result<(), NetError> {
        server.connect(&[NodeId::Client])?;
        for _ in 0..ECHOES {
            let (_, bytes) = server.recv(NodeId::Client)?;
            server.send(NodeId::Client, &bytes)?;
        }
        for _ in 0..BULK_RECORDS {
            server.recv(NodeId::Client)?;
        }
        server.send(NodeId::Client, b"done")
    });
    let mut dial = SupervisorConfig::for_party(RUN_ID, NodeId::Client);
    dial.dial = vec![(NodeId::Server0, addr)];
    let mut client = Supervisor::new(dial).expect("probe dialer");
    let (res, connect_ms) = spans.timed("net.supervise.connect", None, 0, || {
        client.connect(&[NodeId::Server0])
    });
    res.expect("probe connect");
    let mut rtt_us = Vec::with_capacity(ECHOES);
    let ping = [0x5Au8; 64];
    for i in 0..ECHOES {
        let (res, ms) = spans.timed("net.supervise.echo", None, i as u64, || {
            client.send(NodeId::Server0, &ping)?;
            client.recv(NodeId::Server0)
        });
        res.expect("probe echo");
        rtt_us.push(ms * 1e3);
    }
    let record = vec![0xA5u8; 1 << 20];
    let (res, bulk_ms) = spans.timed("net.supervise.bulk", None, 0, || {
        for _ in 0..BULK_RECORDS {
            client.send(NodeId::Server0, &record)?;
        }
        client.recv(NodeId::Server0)
    });
    res.expect("probe bulk transfer");
    echo.join().expect("echo thread").expect("echo side");
    out.insert("net.supervise.connect_ms", connect_ms);
    out.insert("net.supervise.rtt_us_p50", median(&rtt_us));
    out.insert(
        "net.supervise.mb_per_s",
        (BULK_RECORDS * record.len()) as f64 / 1e6 / (bulk_ms / 1e3),
    );
}
