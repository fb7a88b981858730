//! Distributed three-party sessions: checkpointed secure training across
//! party *processes* over supervised TCP.
//!
//! # Replication design
//!
//! The engine is a deterministic lock-step simulation of all three MPC
//! parties; its entire randomness budget derives from one seed. A
//! distributed session therefore runs as *deterministic state-machine
//! replication*: every party process executes the identical seeded
//! simulation, and the TCP links (see `psml_net::Supervisor` /
//! `psml_net::TcpTransport`) carry only session control traffic — epoch
//! commits, checkpoint digests, and resynchronization directives. Each
//! epoch ends in a barrier where the client broadcasts its weight digest
//! and both servers must confirm bit-identical replicas before anyone
//! proceeds.
//!
//! # Crash recovery
//!
//! Every party persists each committed epoch's revealed weights plus a
//! meta record (generation, committed epoch, loss history) under its
//! `--state-dir`. When a party process is killed and restarted it
//! announces its persisted `(generation, epoch)`; the client responds by
//! rolling **all three** parties back to the newest checkpoint every
//! party holds and bumping the session *generation*. A generation bump
//! derives a fresh trainer seed, because a resumed span re-shares its
//! inputs and so draws the masking RNG differently than the uninterrupted
//! run would have — the bump makes that divergence explicit while keeping
//! the three replicas bit-identical to each other. A clean run stays at
//! generation 0 and is bit-identical to the in-process
//! [`SecureTrainer::train_epochs`] result for the same seed.
//!
//! Budget exhaustion below (a peer that never comes back) surfaces as the
//! typed `NetError::PeerDead` wrapped in [`EngineError::Net`] — never a
//! hang: every supervised wait is deadline-bounded.

use crate::config::EngineConfig;
use crate::error::{EngineError, Result};
use crate::io;
use crate::models::{ModelKind, ModelSpec};
use crate::trainer::{non_empty_plan, SecureTrainer, TrainResult, TrainerCheckpoint};
use psml_data::DatasetKind;
use psml_mpc::{Fixed64, PlainMatrix};
use psml_net::{Endpoint, NodeId, Payload, Supervisor, SupervisorConfig, TcpTransport};
use psml_simtime::{LinkModel, SimTime};
use psml_trace::json::{obj, JsonValue};
use std::path::{Path, PathBuf};

/// The two server parties, in protocol order.
const SERVERS: [NodeId; 2] = [NodeId::Server0, NodeId::Server1];

/// FNV-1a over a byte string; the session's digest primitive.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Order- and shape-sensitive digest of revealed layered weights. Two
/// replicas agree on this iff their weight matrices are bit-identical.
pub fn weights_digest(weights: &[Vec<PlainMatrix>]) -> u64 {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(weights.len() as u64).to_le_bytes());
    for layer in weights {
        bytes.extend_from_slice(&(layer.len() as u64).to_le_bytes());
        for m in layer {
            bytes.extend_from_slice(&(m.rows() as u64).to_le_bytes());
            bytes.extend_from_slice(&(m.cols() as u64).to_le_bytes());
            for &v in m.as_slice() {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }
    fnv64(&bytes)
}

/// Trainer seed of `generation`. Generation 0 *is* the user seed, so a
/// clean distributed run replicates the in-process result bit-for-bit;
/// every rollback shifts to a fresh, deterministic seed shared by all
/// three replicas.
pub fn generation_seed(seed: u32, generation: u64) -> u32 {
    seed ^ (generation as u32).wrapping_mul(0x9E37_79B9)
}

/// What to train — the client ships this to both servers in the `begin`
/// message, so server processes need only an address and a state dir.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrainPlan {
    /// Model family.
    pub model: ModelKind,
    /// Dataset the batches are drawn from.
    pub dataset: DatasetKind,
    /// Samples per mini-batch.
    pub batch: usize,
    /// Mini-batches per epoch.
    pub batches: usize,
    /// Total epochs (absolute; resumes run `start..epochs`).
    pub epochs: usize,
    /// User seed (generation 0 seed).
    pub seed: u32,
}

/// One party's view of how to run a session.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Transport supervision: party identity, listen/dial addresses, and
    /// the heartbeat / reconnect / deadline budget.
    pub supervisor: SupervisorConfig,
    /// Directory for this party's epoch checkpoints and session meta.
    pub state_dir: PathBuf,
    /// Emit one `commit gen=<g> epoch=<e> digest=<hex>` stdout line per
    /// committed epoch (the chaos harness watches these to time kills).
    pub progress: bool,
}

impl SessionConfig {
    /// A config for `party` in session `run_id`, storing state in `dir`.
    /// Addresses start empty — fill in `supervisor.listen` / `.dial`.
    pub fn for_party(run_id: u64, party: NodeId, dir: impl Into<PathBuf>) -> Self {
        SessionConfig {
            supervisor: SupervisorConfig::for_party(run_id, party),
            state_dir: dir.into(),
            progress: true,
        }
    }
}

/// Everything a finished session reports. In a clean (generation 0) run,
/// `losses`, `digest`, `accuracy`, and `report_fnv` are bit-identical to
/// the in-process [`SecureTrainer::train_epochs`] run of the same plan.
#[derive(Clone, Debug)]
pub struct SessionOutcome {
    /// Which party this outcome belongs to.
    pub party: NodeId,
    /// Session identifier.
    pub run_id: u64,
    /// Generation the session finished in (0 ⇒ never interrupted).
    pub generation: u64,
    /// Rollbacks survived (each bumped the generation).
    pub rollbacks: u64,
    /// Per-epoch mean losses, stitched across rollbacks.
    pub losses: Vec<f64>,
    /// [`weights_digest`] of the final model.
    pub digest: u64,
    /// Training-set accuracy of the final model.
    pub accuracy: f64,
    /// FNV-1a of the final span's simulated `RunReport` debug rendering —
    /// a cheap bit-identity witness for the whole cost model.
    pub report_fnv: u64,
    /// Supervision counters accumulated by this party's transport.
    pub stats: psml_net::SupervisionStats,
}

impl SessionOutcome {
    /// Renders the outcome as a one-line `psml.session.v1` JSON document.
    /// A diverged run's non-finite losses and accuracy serialize as `null`.
    pub fn to_json(&self) -> String {
        let hex = |x: u64| JsonValue::Str(format!("{x:016x}"));
        let losses = self.losses.iter().map(|&l| JsonValue::Float(l)).collect();
        obj([
            ("schema", JsonValue::Str("psml.session.v1".into())),
            ("party", JsonValue::Str(self.party.short_name().into())),
            ("run_id", JsonValue::UInt(self.run_id)),
            ("generation", JsonValue::UInt(self.generation)),
            ("rollbacks", JsonValue::UInt(self.rollbacks)),
            ("losses", JsonValue::Array(losses)),
            ("digest", hex(self.digest)),
            ("accuracy", JsonValue::Float(self.accuracy)),
            ("report_fnv", hex(self.report_fnv)),
            ("handshakes", JsonValue::UInt(self.stats.handshakes)),
            ("reconnects", JsonValue::UInt(self.stats.reconnects)),
            ("replayed", JsonValue::UInt(self.stats.replayed)),
        ])
        .to_json()
    }
}

// ---------------------------------------------------------------------
// Checkpoint + meta persistence
// ---------------------------------------------------------------------

/// One party's durable session state: epoch checkpoints (the `crate::io`
/// weight format) plus a `meta` record of (generation, committed epoch,
/// loss-history bits).
struct PartyStore {
    dir: PathBuf,
}

impl PartyStore {
    fn new(dir: &Path) -> Result<Self> {
        std::fs::create_dir_all(dir).map_err(|e| EngineError::io("create state dir", &e))?;
        Ok(PartyStore {
            dir: dir.to_path_buf(),
        })
    }

    fn ckpt_path(&self, epoch: usize) -> PathBuf {
        self.dir.join(format!("ckpt-{epoch}.wts"))
    }

    fn meta_path(&self) -> PathBuf {
        self.dir.join("meta")
    }

    fn save_checkpoint(&self, ckpt: &TrainerCheckpoint) -> Result<()> {
        io::save_weights(self.ckpt_path(ckpt.epoch), &ckpt.weights)
    }

    fn load_checkpoint(&self, epoch: usize) -> Result<TrainerCheckpoint> {
        Ok(TrainerCheckpoint {
            epoch,
            weights: io::load_weights(self.ckpt_path(epoch))?,
        })
    }

    /// Persists the commit record. Written to a temp file and renamed so
    /// a kill mid-write leaves the previous record intact.
    fn save_meta(&self, generation: u64, epoch: usize, losses: &[f64]) -> Result<()> {
        let bits: Vec<String> = losses.iter().map(|l| format!("{:016x}", l.to_bits())).collect();
        let text = format!(
            "psml-session-meta-v1\ngen {generation}\nepoch {epoch}\nlosses {}\n",
            bits.join(" ")
        );
        let tmp = self.dir.join("meta.tmp");
        std::fs::write(&tmp, text).map_err(|e| EngineError::io("write session meta", &e))?;
        std::fs::rename(&tmp, self.meta_path())
            .map_err(|e| EngineError::io("commit session meta", &e))
    }

    /// Loads the commit record; `None` when this party has never
    /// committed an epoch.
    fn load_meta(&self) -> Result<Option<(u64, usize, Vec<f64>)>> {
        let text = match std::fs::read_to_string(self.meta_path()) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(EngineError::io("read session meta", &e)),
        };
        let bad = |what: &str| EngineError::Protocol(format!("session meta corrupt: {what}"));
        let mut lines = text.lines();
        if lines.next() != Some("psml-session-meta-v1") {
            return Err(bad("header"));
        }
        let field = |line: Option<&str>, key: &str| -> Result<String> {
            let line = line.ok_or_else(|| bad(key))?;
            line.strip_prefix(key)
                .map(|v| v.trim().to_string())
                .ok_or_else(|| bad(key))
        };
        let generation: u64 = field(lines.next(), "gen")?.parse().map_err(|_| bad("gen"))?;
        let epoch: usize = field(lines.next(), "epoch")?.parse().map_err(|_| bad("epoch"))?;
        let loss_field = field(lines.next(), "losses")?;
        let mut losses = Vec::new();
        for tok in loss_field.split_whitespace() {
            let bits = u64::from_str_radix(tok, 16).map_err(|_| bad("losses"))?;
            losses.push(f64::from_bits(bits));
        }
        if losses.len() < epoch {
            return Err(bad("loss count"));
        }
        Ok(Some((generation, epoch, losses)))
    }
}

// ---------------------------------------------------------------------
// Wire grammar (Payload::Control strings over Endpoint<u64, TcpTransport>)
// ---------------------------------------------------------------------

type Net = Endpoint<u64, TcpTransport>;

fn send_control(ep: &mut Net, to: NodeId, text: String) -> Result<()> {
    ep.send(to, &Payload::Control(text), SimTime::ZERO)?;
    Ok(())
}

fn recv_control(ep: &mut Net, from: NodeId) -> Result<String> {
    match ep.recv(from)?.payload {
        Payload::Control(s) => Ok(s),
        other => Err(EngineError::Protocol(format!(
            "expected control frame from {from:?}, got {}",
            other.kind()
        ))),
    }
}

fn begin_line(run_id: u64, plan: &TrainPlan, generation: u64, start: usize) -> String {
    format!(
        "begin:{run_id}:{}:{}:{}:{}:{}:{}:{generation}:{start}",
        plan.model.token(),
        plan.dataset.token(),
        plan.batch,
        plan.batches,
        plan.epochs,
        plan.seed,
    )
}

/// Parses a `begin` line into `(plan, generation, start_epoch)`; `None`
/// for any other message.
fn parse_begin(msg: &str, run_id: u64) -> Option<(TrainPlan, u64, usize)> {
    let parts: Vec<&str> = msg.split(':').collect();
    if parts.len() != 10 || parts[0] != "begin" || parts[1].parse::<u64>().ok()? != run_id {
        return None;
    }
    let plan = TrainPlan {
        model: ModelKind::from_token(parts[2])?,
        dataset: DatasetKind::from_token(parts[3])?,
        batch: parts[4].parse().ok()?,
        batches: parts[5].parse().ok()?,
        epochs: parts[6].parse().ok()?,
        seed: parts[7].parse().ok()?,
    };
    // An empty plan would fail every replica's trainer; refuse the frame.
    non_empty_plan(plan.batch, plan.batches).ok()?;
    Some((plan, parts[8].parse().ok()?, parts[9].parse().ok()?))
}

/// Parses `"<tag>:<u64>:<u64>"` (the `state` / `ok` shapes).
fn parse_pair(msg: &str, tag: &str) -> Option<(u64, u64)> {
    let rest = msg.strip_prefix(tag)?.strip_prefix(':')?;
    let (a, b) = rest.split_once(':')?;
    Some((a.parse().ok()?, b.parse().ok()?))
}

/// Parses `"commit:<gen>:<epoch>:<digest-hex>"`.
fn parse_commit(msg: &str) -> Option<(u64, usize, u64)> {
    let parts: Vec<&str> = msg.split(':').collect();
    if parts.len() != 4 || parts[0] != "commit" {
        return None;
    }
    Some((
        parts[1].parse().ok()?,
        parts[2].parse().ok()?,
        u64::from_str_radix(parts[3], 16).ok()?,
    ))
}

/// Parses `"final:<gen>:<digest-hex>"` or `"done:<gen>:<digest-hex>"`.
fn parse_digest(msg: &str, tag: &str) -> Option<(u64, u64)> {
    let rest = msg.strip_prefix(tag)?.strip_prefix(':')?;
    let (g, d) = rest.split_once(':')?;
    Some((g.parse().ok()?, u64::from_str_radix(d, 16).ok()?))
}

// ---------------------------------------------------------------------
// Shared span machinery
// ---------------------------------------------------------------------

/// Builds the generation-`generation` trainer: fresh engine on the
/// derived seed, resumed from the epoch-`start` checkpoint when the span
/// does not begin at the top.
fn trainer_for(
    plan: &TrainPlan,
    generation: u64,
    start: usize,
    store: &PartyStore,
) -> Result<SecureTrainer<Fixed64>> {
    let spec = ModelSpec::for_dataset(plan.model, plan.dataset)?;
    let seed = generation_seed(plan.seed, generation);
    let mut trainer = SecureTrainer::new(EngineConfig::parsecureml(), spec, seed)?;
    if start > 0 {
        trainer.resume_from_checkpoint(&store.load_checkpoint(start)?)?;
    }
    Ok(trainer)
}

fn print_commit(progress: bool, generation: u64, epoch: usize, digest: u64) {
    if progress {
        println!("commit gen={generation} epoch={epoch} digest={digest:016x}");
    }
}

fn outcome_of(
    cfg: &SessionConfig,
    generation: u64,
    rollbacks: u64,
    losses: Vec<f64>,
    digest: u64,
    result: &TrainResult,
    ep: &Net,
) -> SessionOutcome {
    SessionOutcome {
        party: cfg.supervisor.party,
        run_id: cfg.supervisor.run_id,
        generation,
        rollbacks,
        losses,
        digest,
        accuracy: result.accuracy,
        report_fnv: fnv64(format!("{:?}", result.report).as_bytes()),
        stats: ep.transport().stats(),
    }
}

// ---------------------------------------------------------------------
// Client (session coordinator)
// ---------------------------------------------------------------------

/// Runs the client process of a distributed session: dials both servers,
/// drives the training plan epoch by epoch, commits checkpoints at every
/// epoch barrier, and coordinates rollback when a server process is
/// killed and restarted mid-run.
pub fn run_client(cfg: &SessionConfig, plan: &TrainPlan) -> Result<SessionOutcome> {
    non_empty_plan(plan.batch, plan.batches)?;
    let store = PartyStore::new(&cfg.state_dir)?;
    let run_id = cfg.supervisor.run_id;
    let (mut generation, my_committed, mut losses) =
        store.load_meta()?.unwrap_or((0, 0, Vec::new()));

    let sup = Supervisor::new(cfg.supervisor.clone())
        .map_err(|e| EngineError::io("start supervisor", &e))?;
    let mut transport = TcpTransport::new(sup);
    transport.supervisor_mut().set_state(generation, my_committed as u64);
    transport.connect(&SERVERS)?;
    let mut ep: Net =
        Endpoint::with_transport(NodeId::Client, LinkModel::ethernet_1g(), transport);

    // Each server opens with its persisted `state:<gen>:<epoch>`; the
    // session resumes from the newest checkpoint *every* party holds.
    let mut start = my_committed;
    for server in SERVERS {
        loop {
            let msg = recv_control(&mut ep, server)?;
            if let Some((g, e)) = parse_pair(&msg, "state") {
                generation = generation.max(g);
                start = start.min(e as usize);
                break;
            }
        }
    }
    if start > 0 {
        // Resuming an interrupted session: a resumed span draws the
        // masking RNG differently than the uninterrupted run, so it gets
        // its own generation (see module docs).
        generation += 1;
    }
    losses.truncate(start);

    let mut rollbacks = 0u64;
    // Where a restarted server sends every party back to: `(generation,
    // epoch)`, set by whoever unwinds with [`EngineError::Rollback`].
    let mut restart: Option<(u64, usize)> = None;
    loop {
        for server in SERVERS {
            send_control(&mut ep, server, begin_line(run_id, plan, generation, start))?;
        }
        ep.transport_mut()
            .supervisor_mut()
            .set_state(generation, start as u64);
        let mut trainer = trainer_for(plan, generation, start, &store)?;

        let span = {
            let ep = &mut ep;
            let losses = &mut losses;
            let store = &store;
            let restart = &mut restart;
            let progress = cfg.progress;
            trainer.train_epochs_from(
                plan.dataset,
                plan.batch,
                plan.batches,
                start,
                plan.epochs,
                generation_seed(plan.seed, generation),
                |ckpt, loss| {
                    let digest = weights_digest(&ckpt.weights);
                    store.save_checkpoint(ckpt)?;
                    losses.push(loss);
                    store.save_meta(generation, ckpt.epoch, losses)?;
                    ep.transport_mut()
                        .supervisor_mut()
                        .set_state(generation, ckpt.epoch as u64);
                    for server in SERVERS {
                        send_control(
                            ep,
                            server,
                            format!("commit:{generation}:{}:{digest:016x}", ckpt.epoch),
                        )?;
                    }
                    print_commit(progress, generation, ckpt.epoch, digest);
                    for server in SERVERS {
                        loop {
                            let msg = recv_control(ep, server)?;
                            if let Some((g, e)) = parse_pair(&msg, "ok") {
                                if g == generation && e as usize == ckpt.epoch {
                                    break;
                                }
                            } else if let Some((_, e)) = parse_pair(&msg, "state") {
                                // A server process restarted: roll every
                                // party back to its persisted epoch under
                                // a fresh generation.
                                *restart = Some((generation + 1, e as usize));
                                return Err(EngineError::Rollback);
                            }
                            // Anything else is stale traffic from a
                            // previous generation; skip it.
                        }
                    }
                    Ok(())
                },
            )
        };

        let finished = span.and_then(|result| {
            let digest = weights_digest(&trainer.reveal_weights());
            for server in SERVERS {
                send_control(&mut ep, server, format!("final:{generation}:{digest:016x}"))?;
            }
            for server in SERVERS {
                loop {
                    let msg = recv_control(&mut ep, server)?;
                    if let Some((g, d)) = parse_digest(&msg, "done") {
                        if g == generation {
                            if d != digest {
                                return Err(EngineError::Protocol(format!(
                                    "final digest diverged: {server:?} has {d:016x}, \
                                     client has {digest:016x}"
                                )));
                            }
                            break;
                        }
                    } else if let Some((_, e)) = parse_pair(&msg, "state") {
                        restart = Some((generation + 1, e as usize));
                        return Err(EngineError::Rollback);
                    }
                }
            }
            Ok((result, digest))
        });

        match finished {
            Ok((result, digest)) => {
                return Ok(outcome_of(
                    cfg, generation, rollbacks, losses, digest, &result, &ep,
                ));
            }
            Err(err) => match (err, restart.take()) {
                (EngineError::Rollback, Some((g, e))) => {
                    rollbacks += 1;
                    generation = g;
                    start = e.min(losses.len());
                    losses.truncate(start);
                    if cfg.progress {
                        println!("rollback gen={generation} epoch={start}");
                    }
                }
                (err, _) => return Err(err),
            },
        }
    }
}

// ---------------------------------------------------------------------
// Servers (replicas)
// ---------------------------------------------------------------------

/// Creates the server's supervisor, retrying a transiently occupied
/// listen address: a SIGKILLed predecessor can leave its port in
/// FIN-WAIT/TIME-WAIT for a moment, and crash recovery requires the
/// restarted process to come back on the *same* address.
fn listener_supervisor(cfg: &SupervisorConfig) -> Result<Supervisor> {
    let start = std::time::Instant::now();
    loop {
        match Supervisor::new(cfg.clone()) {
            Ok(sup) => return Ok(sup),
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse && start.elapsed() < cfg.deadline =>
            {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            Err(e) => return Err(EngineError::io("bind session listener", &e)),
        }
    }
}

/// Runs a server process of a distributed session: listens for the
/// client, replays the identical seeded simulation, verifies every epoch
/// digest against the client's commit, and persists each committed
/// checkpoint so a kill + restart resumes instead of restarting from
/// scratch.
pub fn run_server(cfg: &SessionConfig) -> Result<SessionOutcome> {
    let store = PartyStore::new(&cfg.state_dir)?;
    let run_id = cfg.supervisor.run_id;
    let (generation, committed, _) = store.load_meta()?.unwrap_or((0, 0, Vec::new()));

    let mut sup = listener_supervisor(&cfg.supervisor)?;
    sup.set_state(generation, committed as u64);
    let mut transport = TcpTransport::new(sup);
    transport.connect(&[NodeId::Client])?;
    let mut ep: Net = Endpoint::with_transport(
        cfg.supervisor.party,
        LinkModel::ethernet_1g(),
        transport,
    );
    send_control(&mut ep, NodeId::Client, format!("state:{generation}:{committed}"))?;

    let mut rollbacks = 0u64;
    // The `begin` directive that unwound the previous span, if one did.
    let mut pending: Option<(TrainPlan, u64, usize)> = None;
    loop {
        let directive = match pending.take() {
            Some(directive) => Some(directive),
            None => parse_begin(&recv_control(&mut ep, NodeId::Client)?, run_id),
        };
        // Everything that is not a begin directive is stale traffic from
        // before a rollback (e.g. a replayed commit); skip it.
        let Some((plan, generation, start)) = directive else {
            continue;
        };
        // The committed loss history lives in the meta record (it may
        // have grown since process start, one entry per committed epoch).
        let mut losses = store.load_meta()?.map(|(_, _, l)| l).unwrap_or_default();
        losses.truncate(start);
        ep.transport_mut()
            .supervisor_mut()
            .set_state(generation, start as u64);
        let mut trainer = trainer_for(&plan, generation, start, &store)?;

        let span = {
            let ep = &mut ep;
            let losses = &mut losses;
            let store = &store;
            let pending = &mut pending;
            let progress = cfg.progress;
            trainer.train_epochs_from(
                plan.dataset,
                plan.batch,
                plan.batches,
                start,
                plan.epochs,
                generation_seed(plan.seed, generation),
                |ckpt, loss| {
                    let digest = weights_digest(&ckpt.weights);
                    loop {
                        let msg = recv_control(ep, NodeId::Client)?;
                        if let Some((g, e, d)) = parse_commit(&msg) {
                            if g != generation || e != ckpt.epoch {
                                continue; // stale commit from an older span
                            }
                            if d != digest {
                                return Err(EngineError::Protocol(format!(
                                    "replica diverged at gen {g} epoch {e}: client \
                                     committed {d:016x}, replica computed {digest:016x}"
                                )));
                            }
                            store.save_checkpoint(ckpt)?;
                            losses.push(loss);
                            store.save_meta(generation, ckpt.epoch, losses)?;
                            ep.transport_mut()
                                .supervisor_mut()
                                .set_state(generation, ckpt.epoch as u64);
                            send_control(ep, NodeId::Client, format!("ok:{generation}:{e}"))?;
                            print_commit(progress, generation, ckpt.epoch, digest);
                            return Ok(());
                        }
                        if let Some(begin) = parse_begin(&msg, run_id) {
                            if begin.1 > generation {
                                // The client ordered a rollback (another
                                // party restarted). Unwind and re-enter
                                // the outer loop with this directive.
                                *pending = Some(begin);
                                return Err(EngineError::Rollback);
                            }
                        }
                    }
                },
            )
        };

        let finished = span.and_then(|result| {
            let digest = weights_digest(&trainer.reveal_weights());
            loop {
                let msg = recv_control(&mut ep, NodeId::Client)?;
                if let Some((g, d)) = parse_digest(&msg, "final") {
                    if g == generation {
                        if d != digest {
                            return Err(EngineError::Protocol(format!(
                                "final digest diverged: client has {d:016x}, replica \
                                 computed {digest:016x}"
                            )));
                        }
                        send_control(
                            &mut ep,
                            NodeId::Client,
                            format!("done:{generation}:{digest:016x}"),
                        )?;
                        return Ok((result, digest));
                    }
                } else if let Some(begin) = parse_begin(&msg, run_id) {
                    if begin.1 > generation {
                        pending = Some(begin);
                        return Err(EngineError::Rollback);
                    }
                }
            }
        });

        match finished {
            Ok((result, digest)) => {
                return Ok(outcome_of(
                    cfg, generation, rollbacks, losses, digest, &result, &ep,
                ));
            }
            Err(EngineError::Rollback) if pending.is_some() => {
                rollbacks += 1;
                if cfg.progress {
                    println!("rollback directive received");
                }
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_shape_and_bit_sensitive() {
        let a = vec![vec![PlainMatrix::from_fn(2, 3, |r, c| (r + c) as f64)]];
        let mut b = a.clone();
        assert_eq!(weights_digest(&a), weights_digest(&b));
        b[0][0] = PlainMatrix::from_fn(2, 3, |r, c| (r + c) as f64 + 1e-12);
        assert_ne!(weights_digest(&a), weights_digest(&b));
        let c = vec![vec![PlainMatrix::from_fn(3, 2, |r, c| (r + c) as f64)]];
        assert_ne!(weights_digest(&a), weights_digest(&c));
    }

    #[test]
    fn diverged_outcome_is_still_valid_json() {
        let outcome = SessionOutcome {
            party: NodeId::Client,
            run_id: 9,
            generation: 0,
            rollbacks: 0,
            losses: vec![0.5, f64::NAN],
            digest: 0xabc,
            accuracy: f64::INFINITY,
            report_fnv: 1,
            stats: psml_net::SupervisionStats::default(),
        };
        let text = outcome.to_json();
        let doc = psml_trace::json::parse(&text).expect("parses");
        assert_eq!(
            doc.get("losses").and_then(JsonValue::as_array),
            Some(&[JsonValue::Float(0.5), JsonValue::Null][..])
        );
        assert_eq!(doc.get("accuracy"), Some(&JsonValue::Null));
        assert!(text.contains("\"digest\":\"0000000000000abc\""), "{text}");
        assert_eq!(
            crate::observe::validate_document(&text).as_deref(),
            Ok("psml.session.v1")
        );
    }

    #[test]
    fn generation_zero_preserves_the_user_seed() {
        assert_eq!(generation_seed(42, 0), 42);
        assert_ne!(generation_seed(42, 1), 42);
        assert_ne!(generation_seed(42, 1), generation_seed(42, 2));
    }

    #[test]
    fn begin_line_roundtrips() {
        let plan = TrainPlan {
            model: ModelKind::Mlp,
            dataset: DatasetKind::Synthetic,
            batch: 8,
            batches: 2,
            epochs: 4,
            seed: 42,
        };
        let line = begin_line(9, &plan, 3, 2);
        let (back, generation, start) = parse_begin(&line, 9).unwrap();
        assert_eq!(back, plan);
        assert_eq!((generation, start), (3, 2));
        assert!(parse_begin(&line, 8).is_none(), "foreign run id refused");
        assert!(parse_begin("commit:0:1:abc", 9).is_none());
    }

    #[test]
    fn meta_roundtrips_loss_bits_exactly(){
        let dir = std::env::temp_dir().join(format!("psml-session-meta-{}", std::process::id()));
        let store = PartyStore::new(&dir).unwrap();
        assert!(store.load_meta().unwrap().is_none());
        let losses = [0.125, 1.0 / 3.0, f64::MIN_POSITIVE];
        store.save_meta(2, 3, &losses).unwrap();
        let (generation, epoch, back) = store.load_meta().unwrap().unwrap();
        assert_eq!((generation, epoch), (2, 3));
        assert_eq!(back, losses);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wire_grammar_parsers_reject_noise() {
        assert_eq!(parse_pair("state:4:7", "state"), Some((4, 7)));
        assert_eq!(parse_pair("state:4", "state"), None);
        assert_eq!(parse_commit("commit:1:2:00000000000000ff"), Some((1, 2, 0xff)));
        assert_eq!(parse_commit("commit:1:2:zz"), None);
        assert_eq!(parse_digest("final:1:10", "final"), Some((1, 0x10)));
        assert_eq!(parse_digest("done:0:10", "done"), Some((0, 0x10)));
        assert!(parse_begin("begin:9:mlp:synthetic:8:1:2:42:0:0", 9).is_some());
        assert!(parse_begin("begin:9:mlp:synthetic:0:1:2:42:0:0", 9).is_none(), "batch 0");
        assert!(parse_begin("begin:9:mlp:synthetic:8:0:2:42:0:0", 9).is_none(), "batches 0");
    }
}
