//! `core::serve` — multi-tenant secure inference serving.
//!
//! A [`ModelHost`] registry holds N loaded models, each backed by its own
//! long-lived [`SecureTrainer`]: shared weight shares, a per-model
//! prefetching `TripleProvider`, and the model's own protocol-RNG and
//! triple-counter streams. Requests are typed [`InferRequest`]s; admission
//! control applies a bounded per-model queue with typed backpressure
//! ([`ServeError::Overloaded`] — never a hang), and a cross-request
//! micro-batcher folds the forward passes arriving within one batching
//! window into a shared secure GEMM stream.
//!
//! # The fold, and why it is bit-identical
//!
//! A window of requests against one model executes as:
//!
//! 1. **One provisioning declaration.** The concatenation of every
//!    request's `ModelSpec::forward_deals` is declared to the model's
//!    `TripleProvider` up front (`SecureTrainer::declare_forward`: the
//!    first request after the weights change opens them, every later one
//!    reads that opening and is dealt only its input's mask and `Z`), so
//!    the provider worker deals the whole window ahead of the online
//!    phase, handing consecutive same-shape products over under one lock
//!    — the shared offline stream.
//! 2. **Per-request online passes in admission order.** Share the input,
//!    run the forward pass, reveal — byte-for-byte the sequential code
//!    path.
//!
//! Triple values are counter-derived from `(master seed, sequence)` (see
//! `core::provider`) and which weights are open depends only on how many
//! requests ran since the weights changed, so step 1 cannot change a limb
//! of what step 2 consumes; every other randomness source (input masks, the engine RNG,
//! the curand counter) advances per *executed* request in admission
//! order. Outputs therefore depend only on the per-model admission order,
//! never on how requests were grouped: serving with `max_batch = W` is
//! bit-identical to `max_batch = 1`, which is bit-identical to a plain
//! sequential [`SecureTrainer::infer_request`] loop. Windowing moves
//! latency (that is its job), never values. The guarantee presumes the
//! compared runs admit the same requests: a run that rejects (overload or
//! deadline) a request another run executes diverges from that model's
//! stream onward, exactly as two different workloads would.

use std::collections::VecDeque;

use crate::config::EngineConfig;
use crate::error::{ConfigError, EngineError};
use crate::models::ModelSpec;
use crate::provider::ProviderStats;
use crate::session::fnv64;
use crate::trainer::SecureTrainer;
use psml_mpc::{PlainMatrix, SecureRing};
use psml_simtime::{SimDuration, SimTime};
use psml_trace::json::{obj, JsonValue};
use psml_trace::{ns_of_secs, LatencyHistogram, TraceSink};

// ---------------------------------------------------------------------
// Typed request/response API
// ---------------------------------------------------------------------

/// Opaque handle for a hosted model, assigned by [`ModelHost::load`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModelId(u32);

impl ModelId {
    /// The pseudo-model of a direct [`SecureTrainer::infer_request`]
    /// call, where no registry is involved.
    pub const DIRECT: ModelId = ModelId(u32::MAX);

    /// Registry slot of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == ModelId::DIRECT {
            write!(f, "direct")
        } else {
            write!(f, "model#{}", self.0)
        }
    }
}

/// One typed inference request — the unit both the serving layer and
/// direct [`SecureTrainer::infer_request`] calls accept.
#[derive(Clone, Debug, PartialEq)]
pub struct InferRequest {
    /// Target model ([`ModelId::DIRECT`] for registry-less calls).
    pub model: ModelId,
    /// Plaintext input rows (`samples x features`), owned so the request
    /// can sit in an admission queue.
    pub input: PlainMatrix,
    /// Optional completion deadline; a request still queued when its
    /// deadline passes is rejected typed, not executed late.
    pub deadline: Option<SimTime>,
    /// Caller correlation tag, echoed in the response.
    pub tag: u64,
}

impl InferRequest {
    /// A direct request: no deadline, tag 0.
    pub fn new(input: PlainMatrix) -> Self {
        InferRequest {
            model: ModelId::DIRECT,
            input,
            deadline: None,
            tag: 0,
        }
    }

    /// Targets a hosted model.
    pub fn for_model(mut self, model: ModelId) -> Self {
        self.model = model;
        self
    }

    /// Sets the completion deadline.
    pub fn with_deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the correlation tag.
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }
}

/// Per-request observability slice carried in every [`InferResponse`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RequestReport {
    /// Simulated time spent queued before its window dispatched (zero for
    /// direct calls).
    pub queue_wait: SimDuration,
    /// Simulated execution time of this request's own online pass.
    pub exec: SimDuration,
    /// Requests folded into the same dispatch (1 for direct calls).
    pub window: usize,
    /// Secure multiplications this request consumed.
    pub secure_muls: usize,
}

/// The typed result of one inference request.
#[derive(Clone, Debug, PartialEq)]
pub struct InferResponse {
    /// Echo of [`InferRequest::tag`].
    pub tag: u64,
    /// Echo of [`InferRequest::model`].
    pub model: ModelId,
    /// Revealed model outputs (`samples x outputs`).
    pub output: PlainMatrix,
    /// End-to-end simulated latency: arrival to revealed output
    /// (for direct calls, just the execution time).
    pub latency: SimDuration,
    /// Per-request breakdown.
    pub report: RequestReport,
}

/// FNV-1a digest over revealed outputs in response order — the cheap
/// bit-identity witness the CI smoke compares between batched and
/// sequential serving runs.
pub fn outputs_digest(responses: &[InferResponse]) -> u64 {
    let mut bytes = Vec::new();
    for r in responses {
        bytes.extend_from_slice(&r.tag.to_le_bytes());
        for &v in r.output.as_slice() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    fnv64(&bytes)
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Typed serving failures. Admission and deadline pressure surface here
/// as values — the serving layer never blocks a caller on a full queue.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The model's admission queue was at [`ServeConfig::max_queue_depth`]
    /// when the request arrived.
    Overloaded {
        /// The saturated model.
        model: ModelId,
        /// The configured queue bound that was hit.
        depth: usize,
    },
    /// The request was still queued when its deadline passed; it was
    /// dropped at dispatch, not executed late.
    DeadlineExceeded {
        /// The target model.
        model: ModelId,
        /// The request's correlation tag.
        tag: u64,
    },
    /// The request named a model id the registry does not hold.
    UnknownModel(ModelId),
    /// The serving configuration was invalid.
    Config(ConfigError),
    /// The underlying secure engine failed.
    Engine(EngineError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { model, depth } => {
                write!(f, "{model}: admission queue full (depth {depth})")
            }
            ServeError::DeadlineExceeded { model, tag } => {
                write!(f, "{model}: request {tag} missed its deadline in queue")
            }
            ServeError::UnknownModel(m) => write!(f, "unknown model {m}"),
            ServeError::Config(e) => write!(f, "serve config: {e}"),
            ServeError::Engine(e) => write!(f, "engine: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ConfigError> for ServeError {
    fn from(e: ConfigError) -> Self {
        ServeError::Config(e)
    }
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Serving-layer configuration. Embeds an [`EngineConfig`] (the hosted
/// trainers' machine/protocol settings) rather than duplicating its
/// fields; serving-specific knobs sit alongside.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Engine configuration for every hosted model. Prefetch is forced on
    /// at load time (each host owns a `TripleProvider`); see
    /// [`ServeConfig::engine_for_host`].
    pub engine: EngineConfig,
    /// Micro-batching window: a model's first pending request opens a
    /// window that dispatches this much simulated time later. Must be
    /// positive.
    pub batch_window: SimDuration,
    /// Most requests folded into one dispatch.
    pub max_batch: usize,
    /// Admission bound per model: arrivals beyond this queue depth are
    /// rejected with [`ServeError::Overloaded`].
    pub max_queue_depth: usize,
    /// Optional p99 latency target, echoed (with a met/missed verdict) in
    /// the [`ServeReport`].
    pub slo_p99: Option<SimDuration>,
    /// Run identifier stamped into the `psml.serve.v1` document header.
    pub run_id: u64,
}

impl ServeConfig {
    /// Starts a validated builder: the terminal
    /// [`ServeConfigBuilder::build`] runs [`ServeConfig::validate`], so an
    /// inconsistent serving setup surfaces as a typed [`ConfigError`] at
    /// construction.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: ServeConfig {
                engine: EngineConfig::parsecureml(),
                batch_window: SimDuration::from_micros(200.0),
                max_batch: 16,
                max_queue_depth: 128,
                slo_p99: None,
                run_id: 1,
            },
        }
    }

    /// The engine configuration a hosted trainer actually runs:
    /// the embedded config with prefetch forced on (each host owns a
    /// `TripleProvider`; forcing prefetch also clears
    /// `insecure_reuse_triples` — serving provisions one fresh triple per
    /// scheduled use). The provider bounds its ready queue in bytes from
    /// the window schedules it is given; [`EngineConfig::prefetch_depth`]
    /// is only a secondary count cap.
    pub fn engine_for_host(&self) -> EngineConfig {
        self.engine.clone().with_prefetch(true)
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.batch_window <= SimDuration::ZERO {
            return Err(ConfigError::BatchWindow(
                "batch_window must be positive — a zero window cannot close".into(),
            ));
        }
        if self.max_batch == 0 {
            return Err(ConfigError::Queue("max_batch must be at least 1".into()));
        }
        if self.max_queue_depth == 0 {
            return Err(ConfigError::Queue(
                "max_queue_depth must be at least 1 — a zero bound admits nothing".into(),
            ));
        }
        if !self.engine.fault_plan.is_empty() {
            return Err(ConfigError::Faults(
                "serving hosts provision through the prefetch provider's \
                 fault-free fast path; fault plans belong to the transport \
                 tests, not the serving engine config"
                    .into(),
            ));
        }
        self.engine.validate()?;
        self.engine_for_host().validate()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig::builder().cfg
    }
}

/// Typed, validating builder for [`ServeConfig`]; see
/// [`ServeConfig::builder`].
#[derive(Clone, Debug)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    /// Embedded engine configuration for the hosted trainers.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.cfg.engine = engine;
        self
    }

    /// Micro-batching window (validated positive).
    pub fn batch_window(mut self, window: SimDuration) -> Self {
        self.cfg.batch_window = window;
        self
    }

    /// Micro-batching window in microseconds (validated positive).
    pub fn batch_window_micros(mut self, us: f64) -> Self {
        self.cfg.batch_window = SimDuration::from_micros(us);
        self
    }

    /// Most requests folded into one dispatch (validated `>= 1`).
    pub fn max_batch(mut self, n: usize) -> Self {
        self.cfg.max_batch = n;
        self
    }

    /// Per-model admission bound (validated `>= 1`).
    pub fn max_queue_depth(mut self, depth: usize) -> Self {
        self.cfg.max_queue_depth = depth;
        self
    }

    /// p99 latency target surfaced in the report.
    pub fn slo_p99(mut self, target: SimDuration) -> Self {
        self.cfg.slo_p99 = Some(target);
        self
    }

    /// Run identifier for the `psml.serve.v1` document header.
    pub fn run_id(mut self, id: u64) -> Self {
        self.cfg.run_id = id;
        self
    }

    /// Validates and returns the finished configuration.
    pub fn build(self) -> Result<ServeConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

// ---------------------------------------------------------------------
// The host registry and micro-batcher
// ---------------------------------------------------------------------

struct Queued {
    req: InferRequest,
    arrival: SimTime,
}

struct PerModelStats {
    requests: u64,
    windows: u64,
    secure_muls: usize,
    online: SimDuration,
}

struct Hosted<R: SecureRing> {
    name: String,
    trainer: SecureTrainer<R>,
    queue: VecDeque<Queued>,
    /// Close time of the currently open batching window, if any request
    /// is pending.
    window_close: Option<SimTime>,
    /// Serve-clock time until which this model's fold executor is busy.
    busy_until: SimTime,
    /// Trainer online clock after the last fold (exec deltas are measured
    /// against it).
    online_mark: SimTime,
    muls_mark: usize,
    stats: PerModelStats,
}

/// Outcome of driving an arrival schedule to completion.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Completed responses in completion order.
    pub responses: Vec<InferResponse>,
    /// Typed rejections `(tag, error)` in rejection order.
    pub rejections: Vec<(u64, ServeError)>,
}

/// The multi-tenant registry + micro-batcher. See the module docs for the
/// fold rules and the bit-identity argument.
pub struct ModelHost<R: SecureRing> {
    cfg: ServeConfig,
    models: Vec<Hosted<R>>,
    /// Completed requests' simulated latencies, in nanoseconds.
    latencies: LatencyHistogram,
    submitted: u64,
    completed: u64,
    rejected_overload: u64,
    rejected_deadline: u64,
    windows: u64,
    folded: u64,
    max_queue_seen: usize,
    last_completion: SimTime,
}

impl<R: SecureRing> ModelHost<R> {
    /// Builds an empty registry from a validated configuration.
    pub fn new(cfg: ServeConfig) -> Result<Self, ServeError> {
        cfg.validate()?;
        Ok(ModelHost {
            cfg,
            models: Vec::new(),
            latencies: LatencyHistogram::new(),
            submitted: 0,
            completed: 0,
            rejected_overload: 0,
            rejected_deadline: 0,
            windows: 0,
            folded: 0,
            max_queue_seen: 0,
            last_completion: SimTime::ZERO,
        })
    }

    /// The serving configuration.
    pub fn cfg(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Loads a model: builds its trainer (client shares the initial
    /// weights) with this host's engine configuration and a dedicated
    /// `TripleProvider`. Returns the registry handle.
    pub fn load(&mut self, name: &str, spec: ModelSpec, seed: u32) -> Result<ModelId, ServeError> {
        let trainer = SecureTrainer::new(self.cfg.engine_for_host(), spec, seed)?;
        let online_mark = trainer.context().online_end();
        let muls_mark = trainer.report().secure_muls;
        self.models.push(Hosted {
            name: name.to_string(),
            trainer,
            queue: VecDeque::new(),
            window_close: None,
            busy_until: SimTime::ZERO,
            online_mark,
            muls_mark,
            stats: PerModelStats {
                requests: 0,
                windows: 0,
                secure_muls: 0,
                online: SimDuration::ZERO,
            },
        });
        Ok(ModelId(self.models.len() as u32 - 1))
    }

    /// Number of hosted models.
    pub fn models(&self) -> usize {
        self.models.len()
    }

    /// The counters of model `id`'s triple provider (`None` for a handle
    /// this host did not assign): how many deals its requests took, and
    /// how long they waited on the dealer thread for them. Wall clock, so
    /// not part of [`ServeReport`].
    pub fn provider_stats(&self, id: ModelId) -> Option<ProviderStats> {
        let hosted = self.models.get(id.index())?;
        Some(hosted.trainer.context().provider_stats())
    }

    /// Admission control at arrival time `now`: enqueues the request or
    /// rejects it typed ([`ServeError::Overloaded`] on a full queue). The
    /// first request into an empty queue opens that model's batching
    /// window.
    pub fn submit(&mut self, req: InferRequest, now: SimTime) -> Result<(), ServeError> {
        let idx = req.model.index();
        let Some(host) = self.models.get_mut(idx) else {
            return Err(ServeError::UnknownModel(req.model));
        };
        self.submitted += 1;
        if host.queue.len() >= self.cfg.max_queue_depth {
            self.rejected_overload += 1;
            return Err(ServeError::Overloaded {
                model: req.model,
                depth: self.cfg.max_queue_depth,
            });
        }
        if host.queue.is_empty() {
            host.window_close = Some(now + self.cfg.batch_window);
        }
        host.queue.push_back(Queued { req, arrival: now });
        self.max_queue_seen = self.max_queue_seen.max(host.queue.len());
        Ok(())
    }

    /// Earliest effective dispatch time across all hosted models — the
    /// next moment [`ModelHost::poll`] would do work — if any window is
    /// pending.
    pub fn next_dispatch(&self) -> Option<SimTime> {
        self.models
            .iter()
            .filter_map(|h| h.window_close.map(|c| c.max(h.busy_until)))
            .min()
    }

    /// Dispatches every window whose effective dispatch time is at or
    /// before `now`. Completed responses are appended to `out`; deadline
    /// drops are appended to `rejections`.
    pub fn poll(
        &mut self,
        now: SimTime,
        out: &mut Vec<InferResponse>,
        rejections: &mut Vec<(u64, ServeError)>,
    ) -> Result<(), ServeError> {
        loop {
            let due = self
                .models
                .iter()
                .enumerate()
                .filter_map(|(i, h)| h.window_close.map(|c| (c.max(h.busy_until), i)))
                .filter(|&(t, _)| t <= now)
                .min();
            let Some((t_dispatch, idx)) = due else {
                return Ok(());
            };
            self.dispatch(idx, t_dispatch, out, rejections)?;
        }
    }

    /// Executes one model's window at `t_dispatch`: drains up to
    /// `max_batch` queued requests, folds their provisioning, runs their
    /// online passes in admission order.
    fn dispatch(
        &mut self,
        idx: usize,
        t_dispatch: SimTime,
        out: &mut Vec<InferResponse>,
        rejections: &mut Vec<(u64, ServeError)>,
    ) -> Result<(), ServeError> {
        let max_batch = self.cfg.max_batch;
        let window_dur = self.cfg.batch_window;
        let host = &mut self.models[idx];
        let take = host.queue.len().min(max_batch);
        let mut batch: Vec<Queued> = host.queue.drain(..take).collect();
        // Requests left behind start the next window at this dispatch.
        host.window_close = (!host.queue.is_empty()).then_some(t_dispatch + window_dur);

        // Deadline check happens at dispatch: an expired request is
        // dropped typed and consumes nothing from the model's streams.
        let rejections_before = rejections.len();
        batch.retain(|q| match q.req.deadline {
            Some(d) if d < t_dispatch => {
                rejections.push((
                    q.req.tag,
                    ServeError::DeadlineExceeded {
                        model: q.req.model,
                        tag: q.req.tag,
                    },
                ));
                false
            }
            _ => true,
        });
        self.rejected_deadline += (rejections.len() - rejections_before) as u64;
        if batch.is_empty() {
            return Ok(());
        }

        // The fold, step 1: one provisioning declaration for the whole
        // window (the shared offline stream — see module docs).
        host.trainer.declare_forward(batch.iter().map(|q| q.req.input.rows()))?;

        // Step 2: per-request online passes in admission order.
        let window = batch.len();
        let fold_start = host.online_mark;
        for q in &batch {
            let before = host.trainer.context().online_end();
            let muls_before = host.trainer.report().secure_muls;
            let output = host.trainer.infer_prescheduled(&q.req.input)?;
            let after = host.trainer.context().online_end();
            let muls_after = host.trainer.report().secure_muls;

            let completion = t_dispatch + after.saturating_since(fold_start);
            let latency = completion.saturating_since(q.arrival);
            let queue_wait = t_dispatch.saturating_since(q.arrival);
            // The span's name is formatted only when a sink will keep it.
            if TraceSink::is_enabled() {
                TraceSink::span(
                    "serve.request",
                    &format!("serve/{}", q.req.model),
                    (q.arrival.as_secs() * 1e9) as u64,
                    (completion.as_secs() * 1e9) as u64,
                    (output.rows() * output.cols() * 8) as u64,
                );
            }
            out.push(InferResponse {
                tag: q.req.tag,
                model: q.req.model,
                output,
                latency,
                report: RequestReport {
                    queue_wait,
                    exec: after.saturating_since(before.max(fold_start)),
                    window,
                    secure_muls: muls_after - muls_before,
                },
            });
            self.latencies.record(ns_of_secs(latency.as_secs()));
            self.completed += 1;
            self.last_completion = self.last_completion.max(completion);
        }

        let online_now = host.trainer.context().online_end();
        host.busy_until = t_dispatch + online_now.saturating_since(fold_start);
        host.online_mark = online_now;
        let muls_now = host.trainer.report().secure_muls;
        host.stats.requests += window as u64;
        host.stats.windows += 1;
        host.stats.secure_muls += muls_now - host.muls_mark;
        host.muls_mark = muls_now;
        host.stats.online += online_now.saturating_since(fold_start);
        self.windows += 1;
        self.folded += window as u64;
        Ok(())
    }

    /// Drives a full arrival schedule to completion: interleaves
    /// admissions and window dispatches in simulated-time order, then
    /// drains every pending window. The driver behind `psml serve`.
    pub fn run(
        &mut self,
        mut arrivals: Vec<(SimTime, InferRequest)>,
    ) -> Result<ServeOutcome, ServeError> {
        arrivals.sort_by_key(|a| a.0);
        let mut responses = Vec::with_capacity(arrivals.len());
        let mut rejections = Vec::new();
        for (t_arrival, req) in arrivals {
            // Dispatch every window due strictly before (or at) this
            // arrival, so admission sees the queue state of its moment.
            self.poll(t_arrival, &mut responses, &mut rejections)?;
            let tag = req.tag;
            if let Err(e) = self.submit(req, t_arrival) {
                rejections.push((tag, e));
            }
        }
        // Drain: dispatch until no window is pending.
        while let Some(t) = self.next_dispatch() {
            self.poll(t, &mut responses, &mut rejections)?;
        }
        Ok(ServeOutcome {
            responses,
            rejections,
        })
    }

    /// Versioned serving report (`psml.serve.v1`): counters, latency
    /// percentiles (nearest rank, within
    /// [`LatencyHistogram::RELATIVE_ERROR`] below the exact sample),
    /// throughput, and the per-model ledger.
    pub fn report(&self) -> ServeReport {
        let elapsed = self.last_completion.saturating_since(SimTime::ZERO);
        let percentile = |p| SimDuration::from_nanos(self.latencies.percentile(p) as f64);
        let p99 = percentile(99.0);
        ServeReport {
            run_id: self.cfg.run_id,
            generation: 0,
            models: self.models.len(),
            submitted: self.submitted,
            completed: self.completed,
            rejected_overload: self.rejected_overload,
            rejected_deadline: self.rejected_deadline,
            windows: self.windows,
            mean_window: if self.windows > 0 {
                self.folded as f64 / self.windows as f64
            } else {
                0.0
            },
            max_queue_depth: self.max_queue_seen,
            p50: percentile(50.0),
            p95: percentile(95.0),
            p99,
            sim_elapsed: elapsed,
            throughput_rps: if elapsed > SimDuration::ZERO {
                self.completed as f64 / elapsed.as_secs()
            } else {
                0.0
            },
            slo_p99: self.cfg.slo_p99,
            slo_met: self.cfg.slo_p99.is_none_or(|t| p99 <= t),
            per_model: self
                .models
                .iter()
                .enumerate()
                .map(|(i, h)| ModelServeStats {
                    model: ModelId(i as u32),
                    name: h.name.clone(),
                    requests: h.stats.requests,
                    windows: h.stats.windows,
                    secure_muls: h.stats.secure_muls,
                    online: h.stats.online,
                })
                .collect(),
        }
    }
}

/// Deterministic simulated client fleet: `fleet` clients, each drawing
/// think-time jitter from its own `psml_parallel::derived_rng` stream
/// (mean gap `think`, uniform ±50%), issuing single-row requests drawn
/// from `dataset` round-robin across `models`. Tags are globally unique,
/// so a tag-sorted [`outputs_digest`] is comparable across batching
/// configurations. Shared by `psml serve` and the `e2e` fleet workload.
pub fn fleet_arrivals(
    models: &[ModelId],
    dataset: psml_data::DatasetKind,
    fleet: usize,
    requests: usize,
    think: SimDuration,
    seed: u32,
) -> Vec<(SimTime, InferRequest)> {
    assert!(!models.is_empty(), "fleet_arrivals needs at least one model");
    let fleet = fleet.max(1);
    let per_client = requests.div_ceil(fleet);
    let mut arrivals = Vec::with_capacity(requests);
    let mut tag: u64 = 0;
    for c in 0..fleet {
        let mut rng = psml_parallel::derived_rng(seed, 0xF1EE_7000 ^ c as u32);
        let mut t = SimTime::ZERO;
        for _ in 0..per_client {
            if tag as usize >= requests {
                break;
            }
            t += think * (0.5 + rng.next_f64());
            let model = models[tag as usize % models.len()];
            let x = psml_data::batch(dataset, 1, tag as usize, seed).x;
            arrivals.push((t, InferRequest::new(x).for_model(model).with_tag(tag)));
            tag += 1;
        }
    }
    arrivals
}

// ---------------------------------------------------------------------
// The versioned report
// ---------------------------------------------------------------------

/// One model's slice of the serving ledger.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelServeStats {
    /// Registry handle.
    pub model: ModelId,
    /// Name given at load time.
    pub name: String,
    /// Requests executed against this model.
    pub requests: u64,
    /// Windows dispatched for this model.
    pub windows: u64,
    /// Secure multiplications consumed.
    pub secure_muls: usize,
    /// Simulated online time this model's folds occupied.
    pub online: SimDuration,
}

/// Snapshot of a serving run, rendered as a one-line `psml.serve.v1`
/// document by [`ServeReport::to_json`]. Shares its document header (run
/// id, schema version, generation) with `psml.session.v1`.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeReport {
    /// Run identifier from the configuration.
    pub run_id: u64,
    /// Header parity with `psml.session.v1`; the serving layer has no
    /// rollback story yet, so this is always 0.
    pub generation: u64,
    /// Hosted models.
    pub models: usize,
    /// Requests submitted (admitted + rejected).
    pub submitted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests rejected by admission control.
    pub rejected_overload: u64,
    /// Requests dropped at dispatch for a passed deadline.
    pub rejected_deadline: u64,
    /// Windows dispatched.
    pub windows: u64,
    /// Mean requests folded per window.
    pub mean_window: f64,
    /// Deepest admission queue observed.
    pub max_queue_depth: usize,
    /// Median simulated request latency.
    pub p50: SimDuration,
    /// 95th-percentile simulated request latency.
    pub p95: SimDuration,
    /// 99th-percentile simulated request latency.
    pub p99: SimDuration,
    /// Simulated span from time zero to the last completion.
    pub sim_elapsed: SimDuration,
    /// Completed requests per simulated second.
    pub throughput_rps: f64,
    /// Configured p99 target, if any.
    pub slo_p99: Option<SimDuration>,
    /// Whether the measured p99 met the target (true when no target).
    pub slo_met: bool,
    /// Per-model ledger.
    pub per_model: Vec<ModelServeStats>,
}

impl ServeReport {
    /// Renders the `psml.serve.v1` document.
    pub fn to_json(&self) -> JsonValue {
        let per_model = self
            .per_model
            .iter()
            .map(|m| {
                obj([
                    ("model", JsonValue::UInt(m.model.index() as u64)),
                    ("name", JsonValue::Str(m.name.clone())),
                    ("requests", JsonValue::UInt(m.requests)),
                    ("windows", JsonValue::UInt(m.windows)),
                    ("secure_muls", JsonValue::UInt(m.secure_muls as u64)),
                    ("online_us", JsonValue::Float(m.online.as_micros())),
                ])
            })
            .collect();
        obj([
            ("schema", JsonValue::Str("psml.serve.v1".into())),
            ("run_id", JsonValue::UInt(self.run_id)),
            ("generation", JsonValue::UInt(self.generation)),
            ("models", JsonValue::UInt(self.models as u64)),
            ("submitted", JsonValue::UInt(self.submitted)),
            ("completed", JsonValue::UInt(self.completed)),
            ("rejected_overload", JsonValue::UInt(self.rejected_overload)),
            ("rejected_deadline", JsonValue::UInt(self.rejected_deadline)),
            ("windows", JsonValue::UInt(self.windows)),
            ("mean_window", JsonValue::Float(self.mean_window)),
            ("max_queue_depth", JsonValue::UInt(self.max_queue_depth as u64)),
            ("p50_us", JsonValue::Float(self.p50.as_micros())),
            ("p95_us", JsonValue::Float(self.p95.as_micros())),
            ("p99_us", JsonValue::Float(self.p99.as_micros())),
            ("sim_elapsed_us", JsonValue::Float(self.sim_elapsed.as_micros())),
            ("throughput_rps", JsonValue::Float(self.throughput_rps)),
            (
                "slo_p99_us",
                match self.slo_p99 {
                    Some(t) => JsonValue::Float(t.as_micros()),
                    None => JsonValue::Null,
                },
            ),
            ("slo_met", JsonValue::Bool(self.slo_met)),
            ("per_model", JsonValue::Array(per_model)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelKind;
    use psml_mpc::Fixed64;

    fn mlp_spec() -> ModelSpec {
        ModelSpec::build(ModelKind::Mlp, 32, None, 4).unwrap()
    }

    #[test]
    fn builder_defaults_validate() {
        let cfg = ServeConfig::builder().build().unwrap();
        assert!(cfg.batch_window > SimDuration::ZERO);
        assert!(cfg.max_batch >= 1 && cfg.max_queue_depth >= 1);
        assert!(cfg.engine_for_host().prefetch, "hosts always prefetch");
    }

    #[test]
    fn builder_rejects_zero_window_and_queue() {
        let e = ServeConfig::builder().batch_window_micros(0.0).build();
        assert!(matches!(e, Err(ConfigError::BatchWindow(_))), "{e:?}");
        let e = ServeConfig::builder().max_batch(0).build();
        assert!(matches!(e, Err(ConfigError::Queue(_))), "{e:?}");
        let e = ServeConfig::builder().max_queue_depth(0).build();
        assert!(matches!(e, Err(ConfigError::Queue(_))), "{e:?}");
    }

    #[test]
    fn builder_rejects_fault_plans_and_clears_triple_reuse() {
        let plan = psml_net::FaultPlan::seeded(3).with_drop(0.1);
        let e = ServeConfig::builder()
            .engine(EngineConfig::parsecureml().with_fault_plan(plan))
            .build();
        assert!(matches!(e, Err(ConfigError::Faults(_))), "{e:?}");
        // The preset default enables triple reuse; forcing prefetch for
        // the hosts clears it, so serving always provisions fresh triples.
        let cfg = ServeConfig::builder()
            .engine(EngineConfig::parsecureml().with_insecure_reuse_triples(true))
            .build()
            .unwrap();
        assert!(!cfg.engine_for_host().insecure_reuse_triples);
        assert!(cfg.engine_for_host().prefetch);
    }

    #[test]
    fn unknown_model_is_typed() {
        let mut host = ModelHost::<Fixed64>::new(ServeConfig::default()).unwrap();
        let req = InferRequest::new(PlainMatrix::zeros(1, 32)).for_model(ModelId(7));
        let e = host.submit(req, SimTime::ZERO).unwrap_err();
        assert!(matches!(e, ServeError::UnknownModel(_)));
    }

    #[test]
    fn serves_and_reports() {
        let cfg = ServeConfig::builder()
            .batch_window_micros(100.0)
            .max_batch(4)
            .run_id(7)
            .build()
            .unwrap();
        let mut host = ModelHost::<Fixed64>::new(cfg).unwrap();
        let id = host.load("mlp", mlp_spec(), 11).unwrap();
        let arrivals: Vec<(SimTime, InferRequest)> = (0..6)
            .map(|i| {
                let x = PlainMatrix::from_fn(1, 32, |_, c| ((c + i) % 7) as f64 * 0.1);
                (
                    SimTime::from_secs(i as f64 * 20e-6),
                    InferRequest::new(x).for_model(id).with_tag(i as u64),
                )
            })
            .collect();
        let outcome = host.run(arrivals).unwrap();
        assert_eq!(outcome.responses.len(), 6);
        assert!(outcome.rejections.is_empty());
        let tags: Vec<u64> = outcome.responses.iter().map(|r| r.tag).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4, 5], "admission order preserved");
        for r in &outcome.responses {
            assert!(r.latency > SimDuration::ZERO);
            assert!(r.report.secure_muls > 0);
            assert!(r.report.window >= 1 && r.report.window <= 4);
        }
        let report = host.report();
        assert_eq!(report.completed, 6);
        assert_eq!(report.run_id, 7);
        assert!(report.p99 >= report.p50);
        assert!(report.throughput_rps > 0.0);
        assert_eq!(report.per_model.len(), 1);
        assert_eq!(report.per_model[0].requests, 6);
        let doc = report.to_json().to_json();
        let schema = crate::observe::validate_document(&doc).unwrap();
        assert_eq!(schema, "psml.serve.v1");
    }

    /// Every product a served window runs takes one deal from the model's
    /// provider; an unknown handle has no provider.
    #[test]
    fn provider_stats_count_the_products_served() {
        let cfg = ServeConfig::builder().batch_window_micros(100.0).max_batch(4).build().unwrap();
        let mut host = ModelHost::<Fixed64>::new(cfg).unwrap();
        let id = host.load("mlp", mlp_spec(), 11).unwrap();
        assert_eq!(host.provider_stats(id).unwrap().takes, 0, "loading takes no deal");
        let arrivals = (0..6)
            .map(|i| {
                let x = PlainMatrix::from_fn(1, 32, |_, c| ((c + i) % 5) as f64 * 0.1);
                (SimTime::from_secs(i as f64 * 30e-6), InferRequest::new(x).for_model(id))
            })
            .collect();
        host.run(arrivals).unwrap();
        let products = host.report().per_model[0].secure_muls as u64;
        let stats = host.provider_stats(id).unwrap();
        assert!(products > 0);
        assert_eq!(stats.takes, products);
        assert!(stats.stalled_takes <= stats.takes);
        assert_eq!(host.provider_stats(ModelId(1)), None);
        assert_eq!(host.provider_stats(ModelId::DIRECT), None);
    }

    #[test]
    fn deadline_is_enforced_at_dispatch() {
        let cfg = ServeConfig::builder()
            .batch_window_micros(500.0)
            .build()
            .unwrap();
        let mut host = ModelHost::<Fixed64>::new(cfg).unwrap();
        let id = host.load("mlp", mlp_spec(), 11).unwrap();
        let x = PlainMatrix::from_fn(1, 32, |_, c| c as f64 * 0.01);
        let arrivals = vec![
            (
                SimTime::ZERO,
                InferRequest::new(x.clone())
                    .for_model(id)
                    .with_tag(1)
                    // Window closes at 500us; this deadline passes first.
                    .with_deadline(SimTime::from_secs(100e-6)),
            ),
            (
                SimTime::ZERO,
                InferRequest::new(x).for_model(id).with_tag(2),
            ),
        ];
        let outcome = host.run(arrivals).unwrap();
        assert_eq!(outcome.responses.len(), 1);
        assert_eq!(outcome.responses[0].tag, 2);
        assert_eq!(outcome.rejections.len(), 1);
        assert!(matches!(
            outcome.rejections[0].1,
            ServeError::DeadlineExceeded { tag: 1, .. }
        ));
        assert_eq!(host.report().rejected_deadline, 1);
    }
}
