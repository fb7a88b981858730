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
//! # The state machine
//!
//! A party is always at an explicit `(generation, epoch, phase)`, and one
//! pure function, `decide`, maps (role, that state, a received message) to
//! pass, skip, run-this-span-instead or diverged (a typed
//! [`EngineError::Protocol`]). Both roles run the same loop around it, and
//! the loop calls the trainer epoch by epoch — the trainer never learns
//! there is a session. `g`/`e`/`d` are the waiter's generation, completed
//! epochs and weights digest:
//!
//! | waiter | message | condition | step |
//! |---|---|---|---|
//! | client, hello | `state:g':e'` | — | resume point `(max(g,g'), min(e,e'))` |
//! | client, commit | `ok:g':e'` | `(g',e') == (g,e)` / otherwise | pass / skip |
//! | client, final | `done:g':d'` | `g'==g ∧ d'==d` / `g'==g ∧ d'≠d` / `g'≠g` | pass / diverged / skip |
//! | client, commit or final | `state:_:e'` | — | run `(g+1, min(e',e))` on every party |
//! | server, idle | `begin:…:g':s'` | run id matches, plan non-empty | run `(g', s')` |
//! | server, commit | `commit:g':e':d'` | equal ∧ `d'==d` / equal ∧ `d'≠d` / `(g',e')≠(g,e)` | persist → `ok` → pass / diverged / skip |
//! | server, final | `final:g':d'` | `g'==g ∧ d'==d` / `g'==g ∧ d'≠d` / `g'≠g` | `done` → pass / diverged / skip |
//! | server, commit or final | `begin:…:g':s'` | `g' > g` / `g' ≤ g` | abandon the span, run `(g', s')` / skip |
//! | any | anything else, unparseable text | — | skip |
//!
//! # Crash recovery
//!
//! Every party persists each committed epoch's revealed weights plus a
//! meta record (generation, committed epoch, loss history) under its
//! `--state-dir`. A *server* process announces its persisted
//! `(generation, epoch)` exactly once, when it starts. So when a server is
//! killed and restarted mid-run, the client meets that `state` inside a
//! barrier and responds by rolling **all three** parties back to the
//! newest checkpoint every party holds, bumping the session *generation*.
//! A generation bump derives a fresh trainer seed, because a resumed span
//! re-shares its inputs and so draws the masking RNG differently than the
//! uninterrupted run would have — the bump makes that divergence explicit
//! while keeping the three replicas bit-identical to each other. A clean
//! run stays at generation 0 and is bit-identical to the in-process
//! [`SecureTrainer::train_epochs`] result for the same seed.
//!
//! A restarted *client* is not recovered: running servers never repeat
//! `state`, so the new client waits in hello until the supervisor's
//! deadline. That, like any peer that never comes back, surfaces as the
//! typed `NetError::PeerDead` wrapped in [`EngineError::Net`] — never a
//! hang: every supervised wait is deadline-bounded.

use crate::config::EngineConfig;
use crate::error::{EngineError, Result};
use crate::io;
use crate::models::{ModelKind, ModelSpec};
use crate::trainer::{non_empty_plan, SecureTrainer, TrainerCheckpoint};
use psml_data::DatasetKind;
use psml_mpc::{Fixed64, PlainMatrix};
use psml_net::{Endpoint, NodeId, Payload, Supervisor, SupervisorConfig, TcpTransport};
use psml_simtime::{LinkModel, SimTime};
use psml_trace::json::{obj, JsonValue};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

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

/// A stretch of the plan to run: epochs `start..plan.epochs` as `generation`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Span {
    plan: TrainPlan,
    generation: u64,
    start: usize,
}

/// One session control message. `Display` and [`Control::parse`] are the
/// only place the wire strings exist.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Control {
    /// Server → client, once per server *process* start: the newest epoch
    /// it has durably committed, and under which generation.
    State { generation: u64, epoch: usize },
    /// Client → servers: run this span, abandoning any older one.
    Begin { run_id: u64, span: Span },
    /// Client → servers: `epoch` epochs are durable here, with these weights.
    Commit { generation: u64, epoch: usize, digest: u64 },
    /// Server → client: and here, with the same weights.
    Ok { generation: u64, epoch: usize },
    /// Client → servers: the span is over; the final model.
    Final { generation: u64, digest: u64 },
    /// Server → client: this replica's final model is the same.
    Done { generation: u64, digest: u64 },
}

impl std::fmt::Display for Control {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Control::State { generation, epoch } => write!(f, "state:{generation}:{epoch}"),
            Control::Begin { run_id, span: Span { plan, generation, start } } => write!(
                f,
                "begin:{run_id}:{}:{}:{}:{}:{}:{}:{generation}:{start}",
                plan.model.token(),
                plan.dataset.token(),
                plan.batch,
                plan.batches,
                plan.epochs,
                plan.seed,
            ),
            Control::Commit { generation, epoch, digest } => {
                write!(f, "commit:{generation}:{epoch}:{digest:016x}")
            }
            Control::Ok { generation, epoch } => write!(f, "ok:{generation}:{epoch}"),
            Control::Final { generation, digest } => write!(f, "final:{generation}:{digest:016x}"),
            Control::Done { generation, digest } => write!(f, "done:{generation}:{digest:016x}"),
        }
    }
}

impl Control {
    /// The exact inverse of `Display` for session `run_id`. `None` for
    /// anything else: noise, another session's `begin`, a `begin` whose
    /// plan no trainer could run, or a spelling `Display` would not produce
    /// (a sign, a leading zero, a short or upper-case digest).
    fn parse(text: &str, run_id: u64) -> Option<Control> {
        fn dec<T: std::str::FromStr>(field: &str) -> Option<T> {
            field.parse().ok()
        }
        let hex = |field: &str| u64::from_str_radix(field, 16).ok();
        // The longest message has ten fields; an eleventh piece is the
        // unsplit rest of an over-long one, which no arm accepts.
        let fields: Vec<&str> = text.splitn(11, ':').collect();
        let msg = match fields[..] {
            ["state", g, e] => Control::State { generation: dec(g)?, epoch: dec(e)? },
            ["begin", run, model, dataset, batch, batches, epochs, seed, g, start] => {
                let plan = TrainPlan {
                    model: ModelKind::from_token(model)?,
                    dataset: DatasetKind::from_token(dataset)?,
                    batch: dec(batch)?,
                    batches: dec(batches)?,
                    epochs: dec(epochs)?,
                    seed: dec(seed)?,
                };
                // An empty plan would fail every replica's trainer; refuse
                // the frame.
                non_empty_plan(plan.batch, plan.batches).ok()?;
                let span = Span { plan, generation: dec(g)?, start: dec(start)? };
                Control::Begin { run_id: dec(run).filter(|&theirs: &u64| theirs == run_id)?, span }
            }
            ["commit", g, e, d] => {
                Control::Commit { generation: dec(g)?, epoch: dec(e)?, digest: hex(d)? }
            }
            ["ok", g, e] => Control::Ok { generation: dec(g)?, epoch: dec(e)? },
            ["final", g, d] => Control::Final { generation: dec(g)?, digest: hex(d)? },
            ["done", g, d] => Control::Done { generation: dec(g)?, digest: hex(d)? },
            _ => return None,
        };
        (msg.to_string() == text).then_some(msg)
    }
}

// ---------------------------------------------------------------------
// The state machine: (generation, epoch, phase) and its one decision
// ---------------------------------------------------------------------

/// Which side of the protocol a process plays. The client is the one
/// party that knows the plan before any message arrives.
#[derive(Clone, Copy, Debug)]
enum Role<'a> {
    Client(&'a TrainPlan),
    Server,
}

/// Where in a session a party can block on its peers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Client, before its first span: a server's opening `state`.
    Hello,
    /// Server, before its first span: the client's `begin`.
    Idle,
    /// Both, mid-span: the epoch barrier.
    Commit,
    /// Both, after the last epoch: the final-model exchange.
    Final,
}

/// What a party is waiting on — the explicit session state. In `Commit`
/// and `Final`, `epoch` epochs of `generation` are complete here with
/// weights `digest`; in `Hello` and `Idle`, `(generation, epoch)` is what
/// is durably committed (folded over the servers heard so far).
#[derive(Clone, Copy, Debug)]
struct Wait {
    phase: Phase,
    generation: u64,
    epoch: usize,
    digest: u64,
}

/// What one received message does to a waiting party.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Step {
    /// The awaited message, and it agrees with this replica.
    Pass,
    /// Stale traffic from before a rollback, another phase's message, or
    /// noise: keep waiting.
    Skip,
    /// Leave the wait and run this span — the first one out of `Hello` /
    /// `Idle`, a rollback out of `Commit` / `Final`.
    Run(Span),
    /// The awaited message, and the peer's weights differ.
    Diverged { theirs: u64 },
}

/// The transition table of the module docs: the only place staleness,
/// digest comparison and rollback are decided. Pure — it sees no socket,
/// store or trainer. A `begin` gets here only if [`Control::parse`]
/// accepted its run id and plan; unparseable text never does.
fn decide(role: Role<'_>, at: &Wait, msg: Control) -> Step {
    let only_if = |cond, step| if cond { step } else { Step::Skip };
    let compare = |theirs| if theirs == at.digest { Step::Pass } else { Step::Diverged { theirs } };
    let run = |plan: &TrainPlan, generation, start| {
        Step::Run(Span { plan: plan.clone(), generation, start })
    };
    match (role, at.phase, msg) {
        // Resume from the newest checkpoint *every* party holds.
        (Role::Client(plan), Phase::Hello, Control::State { generation, epoch }) => {
            run(plan, at.generation.max(generation), at.epoch.min(epoch))
        }
        (Role::Client(_), Phase::Commit, Control::Ok { generation, epoch }) => {
            only_if((generation, epoch) == (at.generation, at.epoch), Step::Pass)
        }
        (Role::Client(_), Phase::Final, Control::Done { generation, digest }) => {
            only_if(generation == at.generation, compare(digest))
        }
        // A server process restarted: roll every party back to its
        // persisted epoch under a fresh generation.
        (Role::Client(plan), Phase::Commit | Phase::Final, Control::State { epoch, .. }) => {
            run(plan, at.generation + 1, epoch.min(at.epoch))
        }
        (Role::Server, Phase::Idle, Control::Begin { span, .. }) => Step::Run(span),
        (Role::Server, Phase::Commit, Control::Commit { generation, epoch, digest }) => {
            only_if((generation, epoch) == (at.generation, at.epoch), compare(digest))
        }
        (Role::Server, Phase::Final, Control::Final { generation, digest }) => {
            only_if(generation == at.generation, compare(digest))
        }
        // The client ordered a rollback (another party restarted).
        (Role::Server, Phase::Commit | Phase::Final, Control::Begin { span, .. }) => {
            only_if(span.generation > at.generation, Step::Run(span))
        }
        _ => Step::Skip,
    }
}

// ---------------------------------------------------------------------
// One party loop
// ---------------------------------------------------------------------

/// Creates the party's supervisor, retrying a transiently occupied
/// listen address: a SIGKILLed predecessor can leave its port in
/// FIN-WAIT/TIME-WAIT for a moment, and crash recovery requires the
/// restarted process to come back on the *same* address.
fn start_supervisor(cfg: &SupervisorConfig) -> Result<Supervisor> {
    let start = std::time::Instant::now();
    loop {
        match Supervisor::new(cfg.clone()) {
            Ok(sup) => return Ok(sup),
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse && start.elapsed() < cfg.deadline =>
            {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            Err(e) => return Err(EngineError::io("start supervisor", &e)),
        }
    }
}

/// One party process of a session: its links, its durable state, and the
/// committed loss history (the in-memory mirror of the `meta` record).
struct Replica<'a> {
    cfg: &'a SessionConfig,
    role: Role<'a>,
    /// Who this role exchanges control messages with, in protocol order.
    peers: &'static [NodeId],
    store: PartyStore,
    ep: Endpoint<u64, TcpTransport>,
    losses: Vec<f64>,
    rollbacks: u64,
}

impl Replica<'_> {
    /// Every message of the protocol goes to all of the sender's peers.
    fn send(&mut self, msg: &Control) -> Result<()> {
        let payload = Payload::Control(msg.to_string());
        for &peer in self.peers {
            self.ep.send(peer, &payload, SimTime::ZERO)?;
        }
        Ok(())
    }

    /// Receives from `from` until [`decide`] says something other than
    /// `Skip`: `None` when the wait is over, `Some` when a span must be
    /// run instead.
    fn await_step(&mut self, from: NodeId, at: &Wait) -> Result<Option<Span>> {
        loop {
            let text = match self.ep.recv(from)?.payload {
                Payload::Control(text) => text,
                other => {
                    return Err(EngineError::Protocol(format!(
                        "expected control frame from {from:?}, got {}",
                        other.kind()
                    )))
                }
            };
            let step = Control::parse(&text, self.cfg.supervisor.run_id)
                .map_or(Step::Skip, |msg| decide(self.role, at, msg));
            match step {
                Step::Pass => return Ok(None),
                Step::Skip => {}
                Step::Run(next) => return Ok(Some(next)),
                Step::Diverged { theirs } => {
                    return Err(EngineError::Protocol(format!(
                        "replica diverged at gen {} epoch {} ({:?}): {from:?} has {theirs:016x}, \
                         {:?} computed {:016x}",
                        at.generation, at.epoch, at.phase, self.cfg.supervisor.party, at.digest
                    )))
                }
            }
        }
    }

    /// Opens the session and returns the first span. A server announces
    /// what it has committed and waits to be told; the client folds both
    /// announcements into the newest checkpoint every party holds.
    fn hello(&mut self, generation: u64, committed: usize) -> Result<Span> {
        let Role::Client(plan) = self.role else {
            self.send(&Control::State { generation, epoch: committed })?;
            let idle = Wait { phase: Phase::Idle, generation, epoch: committed, digest: 0 };
            loop {
                if let Some(first) = self.await_step(NodeId::Client, &idle)? {
                    return Ok(first);
                }
            }
        };
        let mut first = Span { plan: plan.clone(), generation, start: committed };
        for &server in self.peers {
            let Span { generation, start: epoch, .. } = first;
            let hello = Wait { phase: Phase::Hello, generation, epoch, digest: 0 };
            if let Some(folded) = self.await_step(server, &hello)? {
                first = folded;
            }
        }
        if first.start > 0 {
            // Resuming an interrupted session: a resumed span draws the
            // masking RNG differently than the uninterrupted run, so it gets
            // its own generation (see module docs).
            first.generation += 1;
        }
        Ok(first)
    }

    /// The one barrier, for both the commit and the final exchange: the
    /// client announces and then waits for every server, a server waits
    /// for the client and then replies. `commit` is the epoch to make
    /// durable first — nothing is announced or acknowledged before it is
    /// on disk. `Some` means a rollback interrupted the barrier.
    fn barrier(
        &mut self,
        at: &Wait,
        commit: Option<(&TrainerCheckpoint, f64)>,
    ) -> Result<Option<Span>> {
        let leads = matches!(self.role, Role::Client(_));
        if leads {
            self.publish(at, commit)?;
        }
        for &peer in self.peers {
            if let Some(next) = self.await_step(peer, at)? {
                return Ok(Some(next));
            }
        }
        if !leads {
            self.publish(at, commit)?;
        }
        Ok(None)
    }

    /// Persists `commit` (checkpoint, then loss, then the `meta` record
    /// that points at them), then tells every peer where this party is.
    fn publish(&mut self, at: &Wait, commit: Option<(&TrainerCheckpoint, f64)>) -> Result<()> {
        let Wait { generation, epoch, digest, .. } = *at;
        if let Some((ckpt, loss)) = commit {
            self.store.save_checkpoint(ckpt)?;
            self.losses.push(loss);
            self.store.save_meta(generation, epoch, &self.losses)?;
            self.ep.transport_mut().supervisor_mut().set_state(generation, epoch as u64);
        }
        let msg = match (self.role, commit.is_some()) {
            (Role::Client(_), true) => Control::Commit { generation, epoch, digest },
            (Role::Server, true) => Control::Ok { generation, epoch },
            (Role::Client(_), false) => Control::Final { generation, digest },
            (Role::Server, false) => Control::Done { generation, digest },
        };
        self.send(&msg)?;
        if commit.is_some() && self.cfg.progress {
            println!("commit gen={generation} epoch={epoch} digest={digest:016x}");
        }
        Ok(())
    }

    /// Runs one span to its end (`Break`: the session's outcome) or to the
    /// rollback that interrupts it (`Continue`: the span to run instead).
    fn run_span(&mut self, span: &Span) -> Result<ControlFlow<SessionOutcome, Span>> {
        let Span { ref plan, generation, start } = *span;
        if let Role::Client(_) = self.role {
            self.send(&Control::Begin { run_id: self.cfg.supervisor.run_id, span: span.clone() })?;
        }
        self.losses.truncate(start);
        self.ep.transport_mut().supervisor_mut().set_state(generation, start as u64);
        // A fresh engine on the generation's seed, resumed from the
        // epoch-`start` checkpoint when the span does not begin at the top.
        let seed = generation_seed(plan.seed, generation);
        let spec = ModelSpec::for_dataset(plan.model, plan.dataset)?;
        let mut trainer = SecureTrainer::<Fixed64>::new(EngineConfig::parsecureml(), spec, seed)?;
        if start > 0 {
            trainer.resume_from_checkpoint(&self.store.load_checkpoint(start)?)?;
        }
        let shared = trainer.share_plan(plan.dataset, plan.batch, plan.batches, seed)?;

        for done in start..plan.epochs {
            let (ckpt, loss) = trainer.train_epoch(&shared, done)?;
            let digest = weights_digest(&ckpt.weights);
            let at = Wait { phase: Phase::Commit, generation, epoch: ckpt.epoch, digest };
            if let Some(next) = self.barrier(&at, Some((ckpt, loss)))? {
                return Ok(ControlFlow::Continue(next));
            }
        }

        let accuracy = trainer.score(&shared)?;
        let report_fnv = fnv64(format!("{:?}", trainer.report()).as_bytes());
        let digest = weights_digest(&trainer.reveal_weights());
        let at = Wait { phase: Phase::Final, generation, epoch: self.losses.len(), digest };
        if let Some(next) = self.barrier(&at, None)? {
            return Ok(ControlFlow::Continue(next));
        }
        Ok(ControlFlow::Break(SessionOutcome {
            party: self.cfg.supervisor.party,
            run_id: self.cfg.supervisor.run_id,
            generation,
            rollbacks: self.rollbacks,
            losses: std::mem::take(&mut self.losses),
            digest,
            accuracy,
            report_fnv,
            stats: self.ep.transport().stats(),
        }))
    }
}

/// The party loop both roles share: load what is durable, connect, say
/// hello, then run spans until one finishes.
fn run_party(cfg: &SessionConfig, role: Role<'_>) -> Result<SessionOutcome> {
    let store = PartyStore::new(&cfg.state_dir)?;
    let (generation, committed, losses) = store.load_meta()?.unwrap_or((0, 0, Vec::new()));
    let peers: &[NodeId] = match role {
        Role::Client(_) => &[NodeId::Server0, NodeId::Server1],
        Role::Server => &[NodeId::Client],
    };

    let mut sup = start_supervisor(&cfg.supervisor)?;
    sup.set_state(generation, committed as u64);
    let mut transport = TcpTransport::new(sup);
    transport.connect(peers)?;
    let ep = Endpoint::with_transport(cfg.supervisor.party, LinkModel::ethernet_1g(), transport);
    let mut me = Replica { cfg, role, peers, store, ep, losses, rollbacks: 0 };

    let mut span = me.hello(generation, committed)?;
    loop {
        match me.run_span(&span)? {
            ControlFlow::Break(outcome) => return Ok(outcome),
            ControlFlow::Continue(rollback) => span = rollback,
        }
        me.rollbacks += 1;
        if cfg.progress {
            match role {
                Role::Client(_) => {
                    println!("rollback gen={} epoch={}", span.generation, span.start)
                }
                Role::Server => println!("rollback directive received"),
            }
        }
    }
}

/// Runs the client process of a distributed session: dials both servers,
/// drives the training plan epoch by epoch, commits checkpoints at every
/// epoch barrier, and coordinates the rollback when a *server* process is
/// killed and restarted mid-run.
pub fn run_client(cfg: &SessionConfig, plan: &TrainPlan) -> Result<SessionOutcome> {
    non_empty_plan(plan.batch, plan.batches)?;
    run_party(cfg, Role::Client(plan))
}

/// Runs a server process of a distributed session: listens for the
/// client, replays the identical seeded simulation, verifies every epoch
/// digest against the client's commit, and persists each committed
/// checkpoint so a kill + restart resumes instead of restarting from
/// scratch.
pub fn run_server(cfg: &SessionConfig) -> Result<SessionOutcome> {
    run_party(cfg, Role::Server)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    const RUN: u64 = 9;

    fn plan() -> TrainPlan {
        TrainPlan {
            model: ModelKind::Mlp,
            dataset: DatasetKind::Synthetic,
            batch: 8,
            batches: 2,
            epochs: 4,
            seed: 42,
        }
    }

    /// The transition table on [`decide`], row by row, against `decide`
    /// alone — no socket, trainer or temp dir. The waiter holds generation
    /// `G`, epoch `E`, digest `D`; every row meets an older, the equal and
    /// a newer generation (and epoch, where the message carries one).
    /// `decide` takes no sender — the client applies one rule to either
    /// server — so there is no per-server case to enumerate.
    #[test]
    fn transition_table() {
        const G: u64 = 3;
        const E: usize = 2;
        const D: u64 = 0xd;
        let mine = plan();
        // What a `begin` carries: not the waiter's plan.
        let theirs = TrainPlan { epochs: 9, ..plan() };
        let client = Role::Client(&mine);
        let rows = std::cell::Cell::new(0);
        let expect = |role: Role<'_>, phase: Phase, msg: Control, want: Step| {
            let at = Wait {
                phase,
                generation: G,
                epoch: E,
                digest: D,
            };
            let got = decide(role, &at, msg.clone());
            assert_eq!(got, want, "{role:?} in {phase:?} receives `{msg}`");
            rows.set(rows.get() + 1);
        };
        let run = |plan: &TrainPlan, generation: u64, start: usize| {
            Step::Run(Span { plan: plan.clone(), generation, start })
        };
        let only_if = |cond: bool, step: Step| if cond { step } else { Step::Skip };
        let digests = [(D, Step::Pass), (D ^ 1, Step::Diverged { theirs: D ^ 1 })];
        let barriers = [Phase::Commit, Phase::Final];

        for g in [G - 1, G, G + 1] {
            for e in [E - 1, E, E + 1] {
                let here = (g, e) == (G, E);
                let state = Control::State {
                    generation: g,
                    epoch: e,
                };
                // client, hello: generation = max, start = min.
                expect(client, Phase::Hello, state.clone(), run(&mine, G.max(g), E.min(e)));
                // client, commit or final: a `state` of any generation rolls
                // every party back under the next one.
                for phase in barriers {
                    expect(client, phase, state.clone(), run(&mine, G + 1, e.min(E)));
                }
                // client, commit: only the matching `ok` passes.
                let ok = Control::Ok {
                    generation: g,
                    epoch: e,
                };
                expect(client, Phase::Commit, ok, only_if(here, Step::Pass));
                // server, commit: the matching `commit` passes or diverges;
                // any other is stale.
                for (digest, step) in digests.clone() {
                    let commit = Control::Commit {
                        generation: g,
                        epoch: e,
                        digest,
                    };
                    expect(Role::Server, Phase::Commit, commit, only_if(here, step));
                }
                // server: idle, any `begin` starts a span; mid-span only a
                // newer generation's does.
                let span = Span { plan: theirs.clone(), generation: g, start: e };
                let begin = Control::Begin { run_id: RUN, span };
                expect(Role::Server, Phase::Idle, begin.clone(), run(&theirs, g, e));
                for phase in barriers {
                    let step = only_if(g > G, run(&theirs, g, e));
                    expect(Role::Server, phase, begin.clone(), step);
                }
            }
            // client and server, final: the same generation compares digests.
            for (digest, step) in digests.clone() {
                let done = Control::Done {
                    generation: g,
                    digest,
                };
                expect(client, Phase::Final, done, only_if(g == G, step.clone()));
                let fin = Control::Final {
                    generation: g,
                    digest,
                };
                expect(Role::Server, Phase::Final, fin, only_if(g == G, step));
            }
        }

        // server, idle: a fresh session's first `begin` is generation 0.
        let fresh = Span { plan: theirs.clone(), generation: 0, start: 0 };
        let begin = Control::Begin { run_id: RUN, span: fresh.clone() };
        expect(Role::Server, Phase::Idle, begin, Step::Run(fresh));

        // any: a message with no row above for this waiter is skipped.
        let handled: [(Role<'_>, Phase, &[&str]); 8] = [
            (client, Phase::Hello, &["state"]),
            (client, Phase::Idle, &[]),
            (client, Phase::Commit, &["state", "ok"]),
            (client, Phase::Final, &["state", "done"]),
            (Role::Server, Phase::Hello, &[]),
            (Role::Server, Phase::Idle, &["begin"]),
            (Role::Server, Phase::Commit, &["commit", "begin"]),
            (Role::Server, Phase::Final, &["final", "begin"]),
        ];
        for (role, phase, tags) in handled {
            for msg in every_variant(RUN, &theirs, G, E, D) {
                let text = msg.to_string();
                if !tags.contains(&text.split(':').next().unwrap()) {
                    expect(role, phase, msg, Step::Skip);
                }
            }
        }
        assert_eq!(rows.get(), 132, "a row of the table went missing");
    }

    fn every_variant(
        run_id: u64,
        plan: &TrainPlan,
        generation: u64,
        epoch: usize,
        digest: u64,
    ) -> [Control; 6] {
        [
            Control::State { generation, epoch },
            Control::Begin {
                run_id,
                span: Span { plan: plan.clone(), generation, start: epoch },
            },
            Control::Commit {
                generation,
                epoch,
                digest,
            },
            Control::Ok { generation, epoch },
            Control::Final { generation, digest },
            Control::Done { generation, digest },
        ]
    }

    /// `None`, or a message that renders back to exactly `text`.
    fn parses_canonically(text: &str) -> Option<Control> {
        let msg = Control::parse(text, RUN);
        if let Some(msg) = &msg {
            assert_eq!(msg.to_string(), text);
        }
        msg
    }

    #[test]
    fn parse_accepts_only_what_display_renders() {
        let some = |text: &str| assert!(parses_canonically(text).is_some(), "{text}");
        let none = |text: &str| assert!(parses_canonically(text).is_none(), "{text}");
        some("state:4:7");
        some("ok:4:7");
        some("commit:1:2:00000000000000ff");
        some("final:1:0000000000000010");
        some("done:0:0000000000000010");
        some("begin:9:mlp:synthetic:8:1:2:42:0:0");
        none("begin:8:mlp:synthetic:8:1:2:42:0:0"); // foreign run id
        none("begin:9:mlp:synthetic:0:1:2:42:0:0"); // batch 0
        none("begin:9:mlp:synthetic:8:0:2:42:0:0"); // batches 0
        none("begin:9:MLP:synthetic:8:1:2:42:0:0");
        none("begin:9:mlp:synthetic:8:1:2:42:0");
        none("begin:9:mlp:synthetic:8:1:2:42:0:0:0");
        none("state:4");
        none("state:4:7:9");
        none("state:+4:7");
        none("state:04:7");
        none("state:4:-7");
        none("state:4:18446744073709551616");
        none("commit:1:2:zz");
        none("commit:1:2:ff"); // a digest is sixteen digits
        none("commit:1:2:00000000000000FF");
        none("final:1:+000000000000010");
        none("final:1:10");
        none("STATE:4:7");
        none(" state:4:7");
        none("state:4:7\n");
        none("");
        none(":");
        none(&":1".repeat(100_000));
        none(&format!("state:4:7{}", ":0".repeat(100_000)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every variant with arbitrary fields is the fixed point of
        /// `parse ∘ to_string`; a `begin` for another run, or for a plan no
        /// trainer could run, is refused.
        #[test]
        fn control_roundtrips(
            (run_id, generation, digest) in (any::<u64>(), any::<u64>(), any::<u64>()),
            (epoch, batch, batches, epochs) in
                (any::<usize>(), any::<usize>(), any::<usize>(), any::<usize>()),
            seed in any::<u32>(),
            model in prop::sample::select(ModelKind::ALL.to_vec()),
            dataset in prop::sample::select(DatasetKind::ALL.to_vec()),
        ) {
            let plan = TrainPlan {
                model,
                dataset,
                batch: batch.max(1),
                batches: batches.max(1),
                epochs,
                seed,
            };
            for msg in every_variant(run_id, &plan, generation, epoch, digest) {
                prop_assert_eq!(Control::parse(&msg.to_string(), run_id), Some(msg));
            }
            let begin = |run_id, plan: TrainPlan| {
                Control::Begin { run_id, span: Span { plan, generation, start: epoch } }.to_string()
            };
            prop_assert_eq!(Control::parse(&begin(run_id, plan.clone()), run_id ^ 1), None);
            let empty = TrainPlan { batch: 0, ..plan.clone() };
            prop_assert_eq!(Control::parse(&begin(run_id, empty), run_id), None);
            let empty = TrainPlan { batches: 0, ..plan };
            prop_assert_eq!(Control::parse(&begin(run_id, empty), run_id), None);
        }

        /// Arbitrary bytes — raw, and spliced over a valid message so the
        /// parser is reached past the tag — never panic, and parse to
        /// `None` or to a message that renders back to the same text.
        #[test]
        fn parse_survives_noise(
            noise in prop::collection::vec(any::<u8>(), 0..48),
            (which, at) in (0usize..6, any::<usize>()),
        ) {
            // Bias toward the grammar's own alphabet: a uniformly random
            // byte is almost never a digit or a colon.
            let noise: Vec<u8> = noise
                .iter()
                .map(|&b| if b < 128 { b"0123456789abcdef:+-"[b as usize % 19] } else { b })
                .collect();
            parses_canonically(&String::from_utf8_lossy(&noise));
            let valid = every_variant(RUN, &plan(), 3, 2, 0xd)[which].to_string().into_bytes();
            let at = at % (valid.len() + 1);
            for keep in [at, valid.len()] {
                // Overwrite from `at`, or insert at `at`.
                let mut bytes = valid[..at].to_vec();
                bytes.extend_from_slice(&noise);
                bytes.extend_from_slice(&valid[keep.min(valid.len())..]);
                parses_canonically(&String::from_utf8_lossy(&bytes));
            }
        }
    }
}
