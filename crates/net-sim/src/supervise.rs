//! Connection supervision for party processes talking TCP.
//!
//! The lock-step simulation never loses a connection; real sockets do.
//! This layer keeps a party's links to its peers alive across the
//! failures the chaos harness injects:
//!
//! - **liveness**: a background prober sends heartbeat frames on every
//!   link; a peer that stays silent past the liveness deadline is
//!   declared dead and its connection torn down;
//! - **reconnect**: dead dialed links are redialed with capped
//!   exponential backoff and decorrelated jitter (reusing
//!   [`RetryPolicy`]'s schedule), up to a bounded attempt budget;
//! - **re-authentication**: every (re)connect runs a handshake that
//!   checks the run id and exchanges `(party, generation, epoch,
//!   last received seq, next transmit seq)`, so a stale or foreign
//!   process can never splice into a session;
//! - **ARQ**: session frames carry contiguous per-link sequence numbers
//!   and are journaled until the peer's cumulative ack covers them.
//!   A receiver stashes out-of-order arrivals (a chaos proxy dropped
//!   something in the middle) and a sender whose oldest journaled frame
//!   stays unacked past the liveness window tears the link down — the
//!   reconnect handshake's `last_rx` then drives a Go-Back-N replay
//!   that fills the gap. Duplicates are dropped by sequence;
//! - **restart semantics**: a restarted (fresh) process advertises *no*
//!   receive state; its peer responds by resetting the link's transmit
//!   state and discarding the journal, because the session layer
//!   resynchronizes restarted processes from checkpoints — replaying
//!   pre-crash traffic at them would be garbage;
//! - **graceful degradation**: every wait is bounded; budget exhaustion
//!   surfaces as the typed [`NetError::PeerDead`], never a hang.
//!
//! Heartbeats, acks, and handshakes travel with the sentinel sequence
//! number [`HEARTBEAT_SEQ`] and never reach the session inbox.
//!
//! # Where a party blocks
//!
//! `connect`, `send` and `recv` are one predicate each over a single
//! private `wait`, the only function that pumps, checks the two budgets
//! (`max_reconnects`, `deadline`) and blocks the party thread. It blocks
//! *on the awaited peer's socket*: installed sockets are non-blocking, and
//! the wait flips the awaited one to blocking for one `peek` under a read
//! timeout, so arriving bytes end the wait at once. The timeout covers
//! what no arriving byte announces. With every awaited link up and its
//! queue flushed that is the budget's end, or one heartbeat interval (the
//! peer's heartbeat ends the peek about then anyway, and the other links
//! get pumped). Otherwise it is `POLL`, after which the pump looks again
//! at what std offers no way to wait for: an `accept` on the listener, a
//! redial whose back-off (`next_dial_at`) has run out, room in a full
//! socket. With no awaited socket up, the thread parks for that long.
//! Socket timeouts are jiffy-granular (4–8 ms at `HZ=250`), so a `POLL`
//! wait on a socket can end that late; waits ended by data are not
//! affected. The one other blocking read is the handshake's, on a stream
//! not yet installed, under a timeout equal to what is left of its
//! `liveness` budget.
//!
//! # How a record reaches the wire
//!
//! Each live link has one outbound queue behind one lock shared with the
//! prober. Session frames, cumulative acks, heartbeats and the Go-Back-N
//! replay all enter it as *whole* records, and one function
//! (`Outbound::flush`) moves bytes from its front to the socket by partial
//! `write`s, as many as the socket takes. So a heartbeat can never land
//! inside a half-written record, a record larger than the kernel's buffer
//! is ordinary back-pressure rather than a dead link, and because every
//! pump both flushes and reads, two parties sending large frames at each
//! other drain each other instead of deadlocking. `send` returns once the
//! queue has emptied into the kernel. A socket error shuts the socket
//! down, which the next pump's read sees as end of stream and tears the
//! link down for (the journal drives the replay). A frame this large also
//! takes its receiver a while to read and verify, so the ack-stall window
//! is `liveness` plus the journal's bytes at `SLOWEST_PEER`: a frame
//! still on its way is not a frame a middlebox swallowed.
//!
//! The largest admissible frame is what one stream record holds,
//! [`fits_stream_frame`]: 256 MiB less the 12-byte body header. `send`
//! refuses anything larger up front with [`CodecError::TooLarge`]; up to
//! that size, delivery does not depend on any socket buffer's size.
//!
//! This module legitimately reads the wall clock (`Instant`): it governs
//! real sockets between processes, outside the simulated-time domain.
//! It is exempted from the determinism rule by
//! `DETERMINISM_EXEMPT_MODULES` in psml-lint.

use crate::codec::{encode_stream_frame, fits_stream_frame, CodecError, StreamDecoder};
use crate::endpoint::NetError;
use crate::message::NodeId;
use crate::reliable::RetryPolicy;
use psml_simtime::SimDuration;
use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Sentinel sequence number of supervision-internal frames (heartbeats,
/// acks, handshakes). Never journaled, never delivered to the session.
pub const HEARTBEAT_SEQ: u64 = u64::MAX;

/// Per-link retransmission journal depth. The session protocol is
/// request/response (barriers every epoch), so the number of frames in
/// flight is small; a peer that falls more than this many frames behind
/// is unrecoverable by replay and must resynchronize from a checkpoint.
pub const JOURNAL_DEPTH: usize = 64;

/// Bytes per second below which a peer that has not acked is treated as
/// one that never got the frame (it widens the ack-stall window of large
/// frames; a control string's window stays the liveness deadline).
const SLOWEST_PEER: f64 = (4 << 20) as f64;

/// How late the wait may notice what no arriving byte announces: a
/// connection waiting in the listener's backlog, room in a full socket.
const POLL: Duration = Duration::from_millis(1);

/// How a supervisor reaches its peers.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Session identifier checked by the handshake; both directions must
    /// agree or the connection is refused.
    pub run_id: u64,
    /// Which party this process is.
    pub party: NodeId,
    /// Address to accept peers on (`None` for pure dialers).
    pub listen: Option<SocketAddr>,
    /// Peers this party dials, with their addresses.
    pub dial: Vec<(NodeId, SocketAddr)>,
    /// Heartbeat probe interval.
    pub heartbeat: Duration,
    /// Silence (or ack stagnation) longer than this declares the peer's
    /// connection dead.
    pub liveness: Duration,
    /// First redial delay; later attempts back off exponentially with
    /// decorrelated jitter and are capped at `reconnect_cap`.
    pub reconnect_base: Duration,
    /// Backoff multiplier per failed redial (>= 1).
    pub reconnect_backoff: f64,
    /// Upper bound on a single redial delay.
    pub reconnect_cap: Duration,
    /// Jitter fraction in [0, 1] applied to redial delays.
    pub reconnect_jitter: f64,
    /// Seed for the jitter draws (decorrelate parties in deployment).
    pub reconnect_seed: u64,
    /// Redial attempts per link before the peer is declared dead.
    pub max_reconnects: u32,
    /// Overall wall-clock budget of a single blocking operation
    /// (connect / send / recv). Exhaustion yields [`NetError::PeerDead`].
    pub deadline: Duration,
}

impl SupervisorConfig {
    /// A config with production-shaped timing for `party`. Addresses
    /// start empty; fill in `listen` / `dial`.
    pub fn for_party(run_id: u64, party: NodeId) -> Self {
        SupervisorConfig {
            run_id,
            party,
            listen: None,
            dial: Vec::new(),
            heartbeat: Duration::from_millis(50),
            liveness: Duration::from_millis(1500),
            reconnect_base: Duration::from_millis(25),
            reconnect_backoff: 2.0,
            reconnect_cap: Duration::from_millis(500),
            reconnect_jitter: 0.25,
            reconnect_seed: 0x5EED ^ run_id ^ party.index() as u64,
            max_reconnects: 60,
            deadline: Duration::from_secs(30),
        }
    }

    /// The redial schedule as a [`RetryPolicy`] — same backoff and
    /// seeded-jitter machinery the reliable channel uses.
    fn redial_policy(&self) -> RetryPolicy {
        RetryPolicy {
            base_timeout: SimDuration::from_secs(self.reconnect_base.as_secs_f64()),
            backoff: self.reconnect_backoff,
            max_retries: self.max_reconnects,
            jitter: self.reconnect_jitter,
            jitter_seed: self.reconnect_seed,
        }
    }

    /// Delay before redial attempt `attempt` to `peer`.
    fn redial_delay(&self, peer: NodeId, attempt: u32) -> Duration {
        let drawn = self
            .redial_policy()
            .timeout_for_nonce(attempt, peer.index() as u64);
        Duration::from_secs_f64(drawn.as_secs().min(self.reconnect_cap.as_secs_f64()))
    }
}

/// Counters the supervision layer accumulates; exposed for reports and
/// the chaos tests' assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisionStats {
    /// Heartbeat frames queued by the prober thread.
    pub heartbeats_sent: u64,
    /// Heartbeat frames received from peers.
    pub heartbeats_seen: u64,
    /// Successful handshakes (initial connects included).
    pub handshakes: u64,
    /// Redial attempts (successful or not) on links that had been up
    /// before. Dials towards first contact are not counted, so peers that
    /// were slow to start listening add nothing; a peer that exits first
    /// at the end of a session is redialed once and does.
    pub reconnects: u64,
    /// Journal frames replayed to peers after a reconnect.
    pub replayed: u64,
    /// Duplicate frames dropped on receive (replay overshoot).
    pub dups_dropped: u64,
    /// Connections torn down by the liveness deadline.
    pub liveness_kills: u64,
    /// Connections torn down because acks stopped progressing while
    /// frames were outstanding (a middlebox swallowed something).
    pub ack_stalls: u64,
    /// Out-of-order frames parked until the gap before them filled.
    pub reordered: u64,
}

/// Peer-state learned from the most recent handshake.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeerState {
    /// Session generation the peer advertised.
    pub generation: u64,
    /// Last epoch the peer had committed.
    pub epoch: u64,
    /// Whether the peer advertised receive state (false ⇒ fresh process).
    pub has_rx_state: bool,
}

/// One encoded stream record. The journal and the outbound queue share
/// it, so a frame is encoded once however often it is replayed.
type Record = Arc<Vec<u8>>;

/// The outbound side of one live link.
struct Outbound {
    stream: Arc<TcpStream>,
    /// Whole records in wire order; only the front one can be part-written.
    records: VecDeque<Record>,
    /// Bytes of the front record the socket has already taken.
    sent: usize,
}

/// The outbound sides of a party's links.
type Slots = [Option<Outbound>; 3];

/// What the party thread shares with its prober.
#[derive(Default)]
struct Shared {
    slots: Mutex<Slots>,
    hb_sent: AtomicU64,
    hb_stop: AtomicBool,
}

impl Outbound {
    /// Moves queued bytes to the socket until it takes no more — the one
    /// site that writes to an installed socket. `TimedOut` is `WouldBlock`
    /// from a socket the party thread has blocking for its wait (`install`
    /// bounds such a write by [`POLL`]).
    fn flush(&mut self) -> std::io::Result<()> {
        while let Some(front) = self.records.front() {
            match (&*self.stream).write(&front[self.sent..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.sent += n;
                    if self.sent == front.len() {
                        self.records.pop_front();
                        self.sent = 0;
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// The one lock site. A guard poisoned by a panic on the other thread is
/// recovered: records enter a queue whole (`push_back` of a finished
/// record) and `flush` advances `sent` by exactly what the socket took, so
/// the slots are valid at every point a panic could interrupt.
fn lock(slots: &Mutex<Slots>) -> MutexGuard<'_, Slots> {
    slots.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The one outbound path: queues `record` (if any) behind what a live
/// link still owes the wire and flushes. A socket error shuts the socket
/// down, so it reaches the party thread as the end of its read side — the
/// one place links are torn down.
fn transmit(slot: &mut Option<Outbound>, record: Option<Record>) {
    let Some(out) = slot else { return };
    out.records.extend(record);
    if out.flush().is_err() {
        let _ = out.stream.shutdown(Shutdown::Both);
    }
}

/// The prober thread: one heartbeat per interval on every idle link. A
/// link with bytes still queued proves liveness with those, and gets
/// them flushed instead — the party thread may be busy computing.
fn probe(shared: &Shared, interval: Duration) {
    let hb: Record = Arc::new(encode_stream_frame(HEARTBEAT_SEQ, b"hb"));
    loop {
        // Parked, not asleep: `Drop` unparks instead of waiting it out.
        std::thread::park_timeout(interval);
        if shared.hb_stop.load(Ordering::Relaxed) {
            return;
        }
        for slot in lock(&shared.slots).iter_mut() {
            let idle = slot.as_ref().is_some_and(|out| out.records.is_empty());
            transmit(slot, idle.then(|| Arc::clone(&hb)));
            shared.hb_sent.fetch_add(u64::from(idle), Ordering::Relaxed);
        }
    }
}

struct Link {
    /// The installed (non-blocking) socket; `None` while down. This side
    /// reads it, the link's [`Outbound`] writes it.
    stream: Option<Arc<TcpStream>>,
    decoder: StreamDecoder,
    inbox: VecDeque<(u64, Vec<u8>)>,
    /// Sent frames awaiting a covering ack, oldest first.
    journal: VecDeque<(u64, Record)>,
    /// Next contiguous transmit seq on this link.
    tx_seq: u64,
    /// Next expected receive seq on this link.
    rx_next: u64,
    /// Out-of-order arrivals parked until `rx_next` catches up.
    pending: Vec<(u64, Vec<u8>)>,
    /// Highest cumulative ack received from the peer.
    acked: Option<u64>,
    /// Since when the journal's oldest frame has been waiting for an ack.
    unacked_since: Option<Instant>,
    /// Bumped whenever transmit state is reset (fresh peer); lets an
    /// in-flight `send` notice its journaled frame was discarded.
    resets: u64,
    last_heard: Instant,
    peer: PeerState,
    /// Redial attempts since the link last worked.
    attempts: u32,
    next_dial_at: Instant,
    dial_addr: Option<SocketAddr>,
    /// Whether a handshake ever completed: later dials are *re*connects.
    was_up: bool,
}

impl Link {
    fn new(now: Instant) -> Self {
        Link {
            stream: None,
            decoder: StreamDecoder::new(),
            inbox: VecDeque::new(),
            journal: VecDeque::new(),
            tx_seq: 0,
            rx_next: 0,
            pending: Vec::new(),
            acked: None,
            unacked_since: None,
            resets: 0,
            last_heard: now,
            peer: PeerState::default(),
            attempts: 0,
            next_dial_at: now,
            dial_addr: None,
            was_up: false,
        }
    }

    /// `last_rx` field advertised in handshakes: the last contiguous seq
    /// received, or `None` when this incarnation has received nothing.
    fn advertised_last_rx(&self) -> Option<u64> {
        self.rx_next.checked_sub(1)
    }
}

/// What a party says about itself in a `hello` / `hello-ack`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Hello {
    run_id: u64,
    party: NodeId,
    generation: u64,
    epoch: u64,
    /// Last contiguous seq received from the addressee (`-` on the wire
    /// when this incarnation has received nothing).
    last_rx: Option<u64>,
    next_tx: u64,
}

/// Spells `kind:run_id:party:gen:epoch:last_rx:next_tx`.
fn hello_payload(kind: &str, h: &Hello) -> Vec<u8> {
    let last_rx = h.last_rx.map_or("-".to_string(), |s| s.to_string());
    format!(
        "{kind}:{}:{}:{}:{}:{last_rx}:{}",
        h.run_id,
        h.party.index(),
        h.generation,
        h.epoch,
        h.next_tx,
    )
    .into_bytes()
}

/// Parses what [`hello_payload`] spells, refusing another `kind` and any
/// run id but `run_id`.
fn parse_hello(kind: &str, run_id: u64, payload: &[u8]) -> Result<Hello, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "hello not UTF-8".to_string())?;
    let parts: Vec<&str> = text.split(':').collect();
    if parts.len() != 7 || parts[0] != kind {
        return Err(format!("malformed {kind}: {text}"));
    }
    let theirs: u64 = parts[1].parse().map_err(|_| "bad run id".to_string())?;
    if theirs != run_id {
        return Err(format!("run id mismatch: theirs {theirs}, ours {run_id}"));
    }
    let party_idx: usize = parts[2].parse().map_err(|_| "bad party".to_string())?;
    let last_rx = if parts[5] == "-" {
        None
    } else {
        Some(parts[5].parse::<u64>().map_err(|_| "bad seq".to_string())?)
    };
    Ok(Hello {
        run_id,
        party: NodeId::from_index(party_idx).ok_or_else(|| "bad party index".to_string())?,
        generation: parts[3].parse().map_err(|_| "bad generation".to_string())?,
        epoch: parts[4].parse().map_err(|_| "bad epoch".to_string())?,
        last_rx,
        next_tx: parts[6].parse().map_err(|_| "bad next_tx".to_string())?,
    })
}

/// Reads one handshake frame (sentinel seq, non-`hb` payload) off a
/// fresh, still blocking stream, blocking in `read` for what is left of
/// `budget`.
fn read_handshake_frame(
    stream: &mut TcpStream,
    decoder: &mut StreamDecoder,
    budget: Duration,
) -> Result<Vec<u8>, String> {
    let start = Instant::now();
    loop {
        // The dial/accept protocol guarantees the handshake frame is the
        // first non-heartbeat frame on a fresh connection; anything else
        // here is stream debris.
        while let Some(frame) = decoder.next_frame() {
            match frame {
                Ok((HEARTBEAT_SEQ, payload)) if payload != b"hb" => return Ok(payload),
                _ => continue,
            }
        }
        let left = budget.saturating_sub(start.elapsed());
        if left.is_zero() {
            return Err("handshake timed out".into());
        }
        stream
            .set_read_timeout(Some(left))
            .map_err(|e| e.to_string())?;
        match decoder.read_from(stream) {
            Ok(0) => return Err("peer closed during handshake".into()),
            Ok(_) => {}
            // A timeout ends the loop through the budget check above.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(format!("handshake read failed: {e}")),
        }
    }
}

/// Emits a reconnect/heartbeat/liveness event into the structured trace.
fn trace_net_event(op: &str, party: NodeId, peer: NodeId) {
    if psml_trace::TraceSink::is_enabled() {
        psml_trace::TraceSink::span(
            op,
            &format!("net:supervise:{}->{}", party.short_name(), peer.short_name()),
            0,
            0,
            0,
        );
    }
}

/// Supervised TCP connectivity of one party to its peers.
///
/// All blocking operations are bounded by [`SupervisorConfig::deadline`]
/// and surface [`NetError::PeerDead`] on exhaustion.
pub struct Supervisor {
    cfg: SupervisorConfig,
    listener: Option<TcpListener>,
    links: [Link; 3],
    shared: Arc<Shared>,
    stats: SupervisionStats,
    hb_thread: Option<std::thread::JoinHandle<()>>,
    /// Advertised in handshakes: (generation, committed epoch).
    state: (u64, u64),
}

impl Supervisor {
    /// Binds the listener (if any) and starts the heartbeat prober. No
    /// connections are made yet — call [`Supervisor::connect`].
    pub fn new(cfg: SupervisorConfig) -> std::io::Result<Self> {
        let listener = match &cfg.listen {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let now = Instant::now();
        let mut links: [Link; 3] = [Link::new(now), Link::new(now), Link::new(now)];
        for (peer, addr) in &cfg.dial {
            links[peer.index()].dial_addr = Some(*addr);
        }
        let shared = Arc::<Shared>::default();
        let hb_thread = {
            let (shared, interval) = (Arc::clone(&shared), cfg.heartbeat);
            Some(std::thread::spawn(move || probe(&shared, interval)))
        };
        Ok(Supervisor {
            cfg,
            listener,
            links,
            shared,
            stats: SupervisionStats::default(),
            hb_thread,
            state: (0, 0),
        })
    }

    /// The local address of the listener, if one is bound (useful when
    /// binding port 0 in tests).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.listener.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Updates the `(generation, committed epoch)` advertised to peers in
    /// subsequent handshakes.
    pub fn set_state(&mut self, generation: u64, epoch: u64) {
        self.state = (generation, epoch);
    }

    /// Peer state learned from the most recent handshake with `peer`.
    pub fn peer_state(&self, peer: NodeId) -> PeerState {
        self.links[peer.index()].peer
    }

    /// Supervision counters (heartbeats from the prober folded in).
    pub fn stats(&self) -> SupervisionStats {
        let mut s = self.stats;
        s.heartbeats_sent = self.shared.hb_sent.load(Ordering::Relaxed);
        s
    }

    /// Establishes (or waits for) connections to every peer in `peers`,
    /// bounded by the deadline budget.
    pub fn connect(&mut self, peers: &[NodeId]) -> Result<(), NetError> {
        self.wait(peers, |sup| {
            let up = |p: &NodeId| sup.links[p.index()].stream.is_some();
            peers.iter().all(up).then_some(())
        })
    }

    /// Sends an opaque session frame to `to`, journaling it until the
    /// peer acks it, and returns once the kernel has all of it. Blocks
    /// through back-pressure and reconnects, bounded by the deadline
    /// budget. Delivery is exactly-once-in-order to a surviving peer;
    /// a frame outstanding across a peer *restart* is dropped by design
    /// (the session layer resynchronizes restarted processes from
    /// checkpoints, making pre-crash traffic moot).
    ///
    /// A payload too large for one stream record is refused up front with
    /// [`CodecError::TooLarge`]: the peer's decoder would discard it as
    /// line noise, so journaling it could only end in `PeerDead`.
    pub fn send(&mut self, to: NodeId, payload: &[u8]) -> Result<(), NetError> {
        if !fits_stream_frame(payload.len()) {
            return Err(NetError::Codec(CodecError::TooLarge { len: payload.len() }));
        }
        let mut reset_marker = self.enqueue(to, payload);
        self.wait(&[to], |sup| {
            // While the link is down the journal holds the frame and the
            // reconnect handshake replays it — unless the peer came back
            // fresh, which resets transmit state and discards the journal;
            // then the frame goes out again under the new numbering.
            if sup.links[to.index()].resets != reset_marker {
                reset_marker = sup.enqueue(to, payload);
            }
            sup.flushed(to).then_some(())
        })
    }

    /// Receives the next in-order session frame from `from`, pumping
    /// heartbeats, accepts, liveness checks, and reconnects while
    /// waiting. Bounded by the deadline budget.
    pub fn recv(&mut self, from: NodeId) -> Result<(u64, Vec<u8>), NetError> {
        self.wait(&[from], |sup| sup.links[from.index()].inbox.pop_front())
    }

    /// Non-blocking poll for a session frame from `from`.
    pub fn try_recv(&mut self, from: NodeId) -> Result<Option<(u64, Vec<u8>)>, NetError> {
        self.pump();
        Ok(self.links[from.index()].inbox.pop_front())
    }

    /// The one wait: pumps until `ready` yields, either budget of a peer
    /// in `peers` runs out (`max_reconnects`, `deadline`), and in between
    /// blocks on the first of `peers` whose socket is up — see the module
    /// docs for what bounds the block.
    fn wait<T>(
        &mut self,
        peers: &[NodeId],
        mut ready: impl FnMut(&mut Self) -> Option<T>,
    ) -> Result<T, NetError> {
        // Ask once before the first pump: a frame the kernel already has
        // is sent, whatever the pump then learns about the link.
        if let Some(done) = ready(self) {
            return Ok(done);
        }
        let start = Instant::now();
        loop {
            self.pump();
            if let Some(done) = ready(self) {
                return Ok(done);
            }
            let spent = |p: &&NodeId| self.links[p.index()].attempts > self.cfg.max_reconnects;
            if let Some(p) = peers.iter().find(spent) {
                return Err(self.dead(*p));
            }
            let Some(left) = self.cfg.deadline.checked_sub(start.elapsed()) else {
                let down = |p: &&NodeId| self.links[p.index()].stream.is_none();
                let p = peers.iter().find(down).or(peers.first());
                return Err(self.dead(*p.unwrap_or(&self.cfg.party)));
            };
            // With every awaited link up and flushed only arriving bytes
            // matter, and they end the peek; otherwise something is pending
            // that they do not announce (an accept, a redial falling due,
            // room in a full socket), to be looked at again after `POLL`.
            let settled = peers.iter().all(|p| self.flushed(*p));
            let slice = left.min(if settled { self.cfg.heartbeat } else { POLL });
            match peers.iter().find_map(|p| self.links[p.index()].stream.as_ref()) {
                None => std::thread::park_timeout(slice),
                // Bytes, EOF, a timeout, an error (a zero `slice` is one):
                // whatever ends the peek is the next pump's read to classify.
                Some(stream) => {
                    let timed = stream
                        .set_nonblocking(false)
                        .and_then(|()| stream.set_read_timeout(Some(slice)));
                    if timed.is_ok() {
                        let _ = stream.peek(&mut [0u8; 1]);
                    }
                    let _ = stream.set_nonblocking(true);
                }
            }
        }
    }

    /// Assigns the next contiguous seq on the link, journals the frame
    /// and, if the link is up, queues it; returns the link's reset marker.
    fn enqueue(&mut self, to: NodeId, payload: &[u8]) -> u64 {
        let link = &mut self.links[to.index()];
        let seq = link.tx_seq;
        link.tx_seq += 1;
        if link.journal.is_empty() {
            link.unacked_since = Some(Instant::now());
        }
        let record: Record = Arc::new(encode_stream_frame(seq, payload));
        link.journal.push_back((seq, Arc::clone(&record)));
        while link.journal.len() > JOURNAL_DEPTH {
            link.journal.pop_front();
        }
        let marker = link.resets;
        transmit(&mut lock(&self.shared.slots)[to.index()], Some(record));
        marker
    }

    /// Whether `peer`'s link is up and owes the wire nothing.
    fn flushed(&self, peer: NodeId) -> bool {
        lock(&self.shared.slots)[peer.index()]
            .as_ref()
            .is_some_and(|out| out.records.is_empty())
    }

    /// One supervision step: accept incoming connections, flush and drain
    /// every socket, enforce liveness and ack progress, redial dead links.
    fn pump(&mut self) {
        self.poll_accept();
        for slot in lock(&self.shared.slots).iter_mut() {
            transmit(slot, None);
        }
        for peer in NodeId::ALL {
            self.drain_link(peer);
        }
        self.enforce_liveness();
        self.redial_due();
    }

    fn dead(&self, peer: NodeId) -> NetError {
        NetError::PeerDead {
            peer,
            attempts: self.links[peer.index()].attempts,
        }
    }

    /// Tears a link down (socket closed, decoder and outbound queue
    /// dropped). ARQ state survives — it drives replay after reconnect.
    fn kill_link(&mut self, peer: NodeId) {
        let link = &mut self.links[peer.index()];
        link.stream = None;
        link.decoder = StreamDecoder::new();
        link.next_dial_at = Instant::now();
        lock(&self.shared.slots)[peer.index()] = None;
    }

    fn poll_accept(&mut self) {
        while let Some(Ok((stream, _addr))) = self.listener.as_ref().map(|l| l.accept()) {
            // A bad or foreign connection is dropped, not fatal: the
            // legitimate peer can still arrive.
            let _ = self.handshake_accept(stream);
        }
    }

    /// Reads everything currently available on a link, decoding frames
    /// into the inbox and folding heartbeats into liveness.
    fn drain_link(&mut self, peer: NodeId) {
        loop {
            let link = &mut self.links[peer.index()];
            let Some(stream) = &link.stream else { return };
            match link.decoder.read_from(&mut &**stream) {
                // Orderly EOF: the peer's socket is gone.
                Ok(0) => return self.kill_link(peer),
                Ok(_) => {
                    link.last_heard = Instant::now();
                    self.drain_decoder(peer);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return self.kill_link(peer),
            }
        }
    }

    fn drain_decoder(&mut self, peer: NodeId) {
        let mut advanced = false;
        while let Some(frame) = self.links[peer.index()].decoder.next_frame() {
            match frame {
                Ok((HEARTBEAT_SEQ, payload)) => self.handle_sentinel(peer, &payload),
                Ok((seq, payload)) => advanced |= self.accept_data(peer, seq, payload),
                // Damaged but delimited record (chaos-proxy bit flip):
                // drop it. The sender's journal holds it until acked,
                // and the ack stall tears the link down and replays.
                Err(_) => {}
            }
        }
        if advanced {
            // Tell the peer the highest contiguous seq received so it can
            // prune its journal. Ack loss is harmless (cumulative + re-sent
            // on the next delivery).
            let last = self.links[peer.index()].rx_next - 1;
            let ack = encode_stream_frame(HEARTBEAT_SEQ, format!("ack:{last}").as_bytes());
            transmit(&mut lock(&self.shared.slots)[peer.index()], Some(Arc::new(ack)));
        }
    }

    /// In-order delivery with an out-of-order parking lot; returns
    /// whether `rx_next` advanced.
    fn accept_data(&mut self, peer: NodeId, seq: u64, payload: Vec<u8>) -> bool {
        let link = &mut self.links[peer.index()];
        if seq < link.rx_next {
            self.stats.dups_dropped += 1;
            return false;
        }
        if seq > link.rx_next {
            if link.pending.len() < JOURNAL_DEPTH && !link.pending.iter().any(|(s, _)| *s == seq) {
                link.pending.push((seq, payload));
                self.stats.reordered += 1;
            }
            return false;
        }
        link.inbox.push_back((seq, payload));
        link.rx_next += 1;
        // Drain the parking lot while it stays contiguous.
        while let Some(i) = link.pending.iter().position(|(s, _)| *s == link.rx_next) {
            let (s, p) = link.pending.swap_remove(i);
            link.inbox.push_back((s, p));
            link.rx_next += 1;
        }
        true
    }

    fn handle_sentinel(&mut self, peer: NodeId, payload: &[u8]) {
        if payload == b"hb" {
            self.stats.heartbeats_seen += 1;
            return;
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            return;
        };
        if let Some(n) = text.strip_prefix("ack:").and_then(|s| s.parse::<u64>().ok()) {
            let link = &mut self.links[peer.index()];
            if link.acked.is_none_or(|a| n > a) {
                link.acked = Some(n);
                while link.journal.front().is_some_and(|(s, _)| *s <= n) {
                    link.journal.pop_front();
                }
                link.unacked_since = if link.journal.is_empty() {
                    None
                } else {
                    Some(Instant::now())
                };
            }
        }
        // Mid-stream hello frames are ignored: handshakes run
        // synchronously on (re)connect.
    }

    fn enforce_liveness(&mut self) {
        for peer in NodeId::ALL {
            let link = &self.links[peer.index()];
            if link.stream.is_none() {
                continue;
            }
            if link.last_heard.elapsed() > self.cfg.liveness {
                self.stats.liveness_kills += 1;
                trace_net_event("liveness-kill", self.cfg.party, peer);
                self.kill_link(peer);
                continue;
            }
            // The peer is audible but our outstanding frames are not
            // getting acked: something between us is eating traffic.
            // Force a reconnect; the handshake replays the journal. What
            // is outstanding gets the liveness window plus the time the
            // slowest peer worth waiting for needs to take it in.
            let owed: usize = link.journal.iter().map(|(_, record)| record.len()).sum();
            let window = self.cfg.liveness + Duration::from_secs_f64(owed as f64 / SLOWEST_PEER);
            if link.unacked_since.is_some_and(|t| t.elapsed() > window) {
                self.stats.ack_stalls += 1;
                trace_net_event("ack-stall", self.cfg.party, peer);
                self.kill_link(peer);
                self.links[peer.index()].unacked_since = Some(Instant::now());
            }
        }
    }

    fn redial_due(&mut self) {
        for peer in NodeId::ALL {
            let link = &self.links[peer.index()];
            let Some(addr) = link.dial_addr else { continue };
            if link.stream.is_some()
                || link.attempts > self.cfg.max_reconnects
                || Instant::now() < link.next_dial_at
            {
                continue;
            }
            if link.was_up {
                self.stats.reconnects += 1;
                trace_net_event("reconnect", self.cfg.party, peer);
            }
            let delay = self.cfg.redial_delay(peer, link.attempts);
            let dialed = TcpStream::connect_timeout(&addr, self.cfg.liveness.max(POLL))
                .map_err(|e| e.to_string())
                .and_then(|stream| self.handshake_dial(peer, stream));
            // `install` zeroed the attempts of a dial that got through.
            if dialed.is_err() {
                let link = &mut self.links[peer.index()];
                link.attempts = link.attempts.saturating_add(1);
                link.next_dial_at = Instant::now() + delay;
            }
        }
    }

    /// What this party tells `peer` about itself and their link.
    fn hello_for(&self, peer: NodeId) -> Hello {
        let link = &self.links[peer.index()];
        Hello {
            run_id: self.cfg.run_id,
            party: self.cfg.party,
            generation: self.state.0,
            epoch: self.state.1,
            last_rx: link.advertised_last_rx(),
            next_tx: link.tx_seq,
        }
    }

    /// Reconciles link ARQ state with what the peer's handshake
    /// advertised. Must run *before* composing our own reply (accept
    /// side) and before replay.
    fn sync_from_peer(&mut self, theirs: &Hello) {
        let link = &mut self.links[theirs.party.index()];
        link.peer = PeerState {
            generation: theirs.generation,
            epoch: theirs.epoch,
            has_rx_state: theirs.last_rx.is_some(),
        };
        if theirs.last_rx.is_none() && (link.tx_seq > 0 || !link.journal.is_empty()) {
            // The peer restarted: our numbering and journal mean nothing
            // to it. Start the transmit side over; the session layer
            // resynchronizes content from checkpoints.
            link.journal.clear();
            link.tx_seq = 0;
            link.acked = None;
            link.unacked_since = None;
            link.resets += 1;
        }
        if theirs.next_tx < link.rx_next {
            // The peer's transmit side restarted; expect its numbering
            // from the top and discard stale parked frames.
            link.rx_next = theirs.next_tx;
            link.pending.clear();
        }
    }

    /// Dial-side handshake: send hello, await hello-ack, reconcile,
    /// install (which queues the replay).
    fn handshake_dial(&mut self, peer: NodeId, mut stream: TcpStream) -> Result<(), String> {
        stream.set_nodelay(true).ok();
        let hello = hello_payload("hello", &self.hello_for(peer));
        stream
            .write_all(&encode_stream_frame(HEARTBEAT_SEQ, &hello))
            .map_err(|e| e.to_string())?;
        let mut decoder = StreamDecoder::new();
        let ack = read_handshake_frame(&mut stream, &mut decoder, self.cfg.liveness)?;
        let theirs = parse_hello("hello-ack", self.cfg.run_id, &ack)?;
        if theirs.party != peer {
            return Err(format!("dialed {peer:?}, answered by {:?}", theirs.party));
        }
        self.sync_from_peer(&theirs);
        self.install(stream, decoder, &theirs)
    }

    /// Accept-side handshake: await hello, reconcile, reply hello-ack,
    /// install (which queues the replay).
    fn handshake_accept(&mut self, mut stream: TcpStream) -> Result<(), String> {
        stream.set_nodelay(true).ok();
        let mut decoder = StreamDecoder::new();
        let hello = read_handshake_frame(&mut stream, &mut decoder, self.cfg.liveness)?;
        let theirs = parse_hello("hello", self.cfg.run_id, &hello)?;
        self.sync_from_peer(&theirs);
        let ack = hello_payload("hello-ack", &self.hello_for(theirs.party));
        stream
            .write_all(&encode_stream_frame(HEARTBEAT_SEQ, &ack))
            .map_err(|e| e.to_string())?;
        self.install(stream, decoder, &theirs)
    }

    /// Installs a freshly handshaken stream as the live connection to
    /// the peer that said `theirs`, with the Go-Back-N replay — every
    /// journaled frame past the peer's high-water mark — as the first
    /// content of its outbound queue. A fresh peer advertised no mark and
    /// `sync_from_peer` cleared the journal, so nothing is replayed.
    fn install(
        &mut self,
        stream: TcpStream,
        decoder: StreamDecoder,
        theirs: &Hello,
    ) -> Result<(), String> {
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        // Bounds a prober write that lands while `wait` has the socket
        // blocking for its peek; a non-blocking socket never consults it.
        stream
            .set_write_timeout(Some(POLL))
            .map_err(|e| e.to_string())?;
        let stream = Arc::new(stream);
        let peer = theirs.party;
        let link = &mut self.links[peer.index()];
        let first = theirs.last_rx.map_or(0, |l| l.saturating_add(1));
        let records: VecDeque<Record> = link
            .journal
            .iter()
            .filter(|(seq, _)| *seq >= first)
            .map(|(_, record)| Arc::clone(record))
            .collect();
        self.stats.replayed += records.len() as u64;
        link.stream = Some(Arc::clone(&stream));
        link.decoder = decoder;
        link.last_heard = Instant::now();
        link.attempts = 0;
        link.was_up = true;
        if !link.journal.is_empty() {
            link.unacked_since = Some(Instant::now());
        }
        self.stats.handshakes += 1;
        trace_net_event("handshake", self.cfg.party, peer);
        let slot = &mut lock(&self.shared.slots)[peer.index()];
        *slot = Some(Outbound {
            stream,
            records,
            sent: 0,
        });
        transmit(slot, None);
        Ok(())
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.shared.hb_stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.hb_thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    fn fast_cfg(run_id: u64, party: NodeId) -> SupervisorConfig {
        let mut cfg = SupervisorConfig::for_party(run_id, party);
        cfg.heartbeat = Duration::from_millis(5);
        cfg.liveness = Duration::from_millis(200);
        cfg.reconnect_base = Duration::from_millis(5);
        cfg.reconnect_cap = Duration::from_millis(50);
        cfg.deadline = Duration::from_secs(5);
        cfg
    }

    /// Listener + dialer pair on loopback, returning (listener, dialer).
    fn pair(run_id: u64) -> (Supervisor, Supervisor) {
        let mut lcfg = fast_cfg(run_id, NodeId::Server0);
        lcfg.listen = Some(loopback());
        let listener = Supervisor::new(lcfg).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut dcfg = fast_cfg(run_id, NodeId::Client);
        dcfg.dial = vec![(NodeId::Server0, addr)];
        let dialer = Supervisor::new(dcfg).unwrap();
        (listener, dialer)
    }

    #[test]
    fn connect_send_recv_roundtrip() {
        let (mut listener, mut dialer) = pair(11);
        let l = std::thread::spawn(move || {
            listener.connect(&[NodeId::Client]).unwrap();
            let (seq, payload) = listener.recv(NodeId::Client).unwrap();
            listener.send(NodeId::Client, b"pong").unwrap();
            (seq, payload, listener.stats())
        });
        dialer.connect(&[NodeId::Server0]).unwrap();
        dialer.send(NodeId::Server0, b"ping").unwrap();
        let (_, payload) = dialer.recv(NodeId::Server0).unwrap();
        assert_eq!(payload, b"pong");
        let (seq, got, lstats) = l.join().unwrap();
        assert_eq!(seq, 0);
        assert_eq!(got, b"ping");
        assert!(lstats.handshakes >= 1);
    }

    #[test]
    fn run_id_mismatch_is_refused() {
        let mut lcfg = fast_cfg(1, NodeId::Server0);
        lcfg.listen = Some(loopback());
        let mut listener = Supervisor::new(lcfg).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut dcfg = fast_cfg(2, NodeId::Client);
        dcfg.dial = vec![(NodeId::Server0, addr)];
        dcfg.deadline = Duration::from_millis(600);
        dcfg.max_reconnects = 3;
        let mut dialer = Supervisor::new(dcfg).unwrap();
        let l = std::thread::spawn(move || {
            // The listener keeps refusing the foreign hello until its own
            // deadline runs out waiting for a legitimate peer.
            let _ = listener.connect(&[NodeId::Client]);
        });
        let err = dialer.connect(&[NodeId::Server0]).unwrap_err();
        assert!(matches!(
            err,
            NetError::PeerDead {
                peer: NodeId::Server0,
                ..
            }
        ));
        l.join().unwrap();
    }

    #[test]
    fn vanished_peer_yields_typed_error_within_deadline() {
        // Dial a port nobody listens on.
        let hole = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = hole.local_addr().unwrap();
        drop(hole);
        let mut cfg = fast_cfg(7, NodeId::Client);
        cfg.dial = vec![(NodeId::Server0, addr)];
        cfg.deadline = Duration::from_millis(500);
        cfg.max_reconnects = 4;
        let mut sup = Supervisor::new(cfg).unwrap();
        let start = Instant::now();
        let err = sup.connect(&[NodeId::Server0]).unwrap_err();
        assert!(
            matches!(err, NetError::PeerDead { peer: NodeId::Server0, attempts } if attempts > 0),
            "got {err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(4),
            "degradation must respect the deadline, not hang"
        );
    }

    #[test]
    fn listener_restart_resets_the_link_and_delivers_fresh_traffic() {
        let (mut listener, mut dialer) = pair(21);
        let addr = listener.local_addr().unwrap();
        let l = std::thread::spawn(move || {
            listener.connect(&[NodeId::Client]).unwrap();
            let (_, p) = listener.recv(NodeId::Client).unwrap();
            assert_eq!(p, b"one");
            // Simulate a crash: drop the whole supervisor (closes the
            // socket and the listener).
            drop(listener);
        });
        dialer.connect(&[NodeId::Server0]).unwrap();
        dialer.send(NodeId::Server0, b"one").unwrap();
        l.join().unwrap();

        // Restart the listener on the same address; the dialer's
        // supervision must notice the dead link and redial.
        let mut lcfg = fast_cfg(21, NodeId::Server0);
        lcfg.listen = Some(addr);
        let mut listener = Supervisor::new(lcfg).unwrap();
        let l = std::thread::spawn(move || listener.recv(NodeId::Client).unwrap());
        // Pump until the re-handshake completes, then send: traffic to
        // the fresh incarnation restarts the numbering at seq 0.
        let deadline = Instant::now() + Duration::from_secs(5);
        while dialer.stats().handshakes < 2 {
            assert!(Instant::now() < deadline, "re-handshake never happened");
            let _ = dialer.try_recv(NodeId::Server0).unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        dialer.send(NodeId::Server0, b"two").unwrap();
        let (seq, payload) = l.join().unwrap();
        assert_eq!((seq, payload), (0, b"two".to_vec()));
        assert!(dialer.stats().reconnects >= 1);
    }

    #[test]
    fn heartbeats_flow_and_are_counted() {
        let (mut listener, mut dialer) = pair(31);
        let l = std::thread::spawn(move || {
            listener.connect(&[NodeId::Client]).unwrap();
            let deadline = Instant::now() + Duration::from_millis(400);
            while Instant::now() < deadline {
                let _ = listener.try_recv(NodeId::Client).unwrap();
                std::thread::sleep(Duration::from_millis(5));
            }
            listener.stats()
        });
        dialer.connect(&[NodeId::Server0]).unwrap();
        let deadline = Instant::now() + Duration::from_millis(400);
        while Instant::now() < deadline {
            let _ = dialer.try_recv(NodeId::Server0).unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        let lstats = l.join().unwrap();
        assert!(dialer.stats().heartbeats_sent > 0, "prober sends");
        assert!(lstats.heartbeats_seen > 0, "peer heartbeats observed");
    }

    /// A patterned payload, so a frame delivered with a hole, a repeat or a
    /// foreign record spliced in cannot compare equal.
    fn patterned(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i ^ (i >> 11)) as u8).collect()
    }

    /// What a link that was never torn down reports.
    fn assert_one_clean_connection(who: &str, sup: &Supervisor, peer: NodeId) {
        let s = sup.stats();
        assert_eq!(s.handshakes, 1, "{who}: {s:?}");
        assert_eq!((s.replayed, s.liveness_kills, s.ack_stalls), (0, 0, 0), "{who}: {s:?}");
        assert_eq!(sup.links[peer.index()].decoder.resyncs(), 0, "{who}: a record was split");
    }

    /// A frame far larger than any socket buffer, sent at a peer that is
    /// not reading yet, is back-pressure — not a dead link to tear down
    /// and replay, and not something a heartbeat may be written into.
    #[test]
    fn large_frame_to_a_late_reader_arrives_without_a_teardown() {
        let (mut listener, mut dialer) = pair(41);
        let frame = patterned(32 << 20);
        let expected = frame.clone();
        let l = std::thread::spawn(move || {
            listener.connect(&[NodeId::Client]).unwrap();
            std::thread::sleep(Duration::from_millis(100));
            let got = listener.recv(NodeId::Client).unwrap();
            listener.send(NodeId::Client, b"got it").unwrap();
            (got, listener)
        });
        dialer.connect(&[NodeId::Server0]).unwrap();
        dialer.send(NodeId::Server0, &frame).unwrap();
        assert_eq!(dialer.recv(NodeId::Server0).unwrap().1, b"got it");
        let ((seq, got), listener) = l.join().unwrap();
        assert!(seq == 0 && got == expected, "the frame arrived damaged");
        assert_one_clean_connection("sender", &dialer, NodeId::Server0);
        assert_one_clean_connection("receiver", &listener, NodeId::Client);
    }

    /// Both parties `send` 16 MiB before either calls `recv`: each send
    /// drains what the other is sending, so neither blocks the other.
    #[test]
    fn large_frames_sent_at_each_other_both_arrive() {
        let (mut listener, mut dialer) = pair(42);
        let both_connected = Arc::new(std::sync::Barrier::new(2));
        let (to_listener, to_dialer) = (patterned(16 << 20), patterned((16 << 20) + 5));
        let (sent_l, expect_l) = (to_dialer.clone(), to_listener.clone());
        let gate = Arc::clone(&both_connected);
        let l = std::thread::spawn(move || {
            listener.connect(&[NodeId::Client]).unwrap();
            gate.wait();
            listener.send(NodeId::Client, &sent_l).unwrap();
            let (_, got) = listener.recv(NodeId::Client).unwrap();
            assert!(got == expect_l, "listener received a damaged frame");
            // Stay up until the dialer has its frame.
            let (_, fin) = listener.recv(NodeId::Client).unwrap();
            assert_eq!(fin, b"fin");
            listener
        });
        dialer.connect(&[NodeId::Server0]).unwrap();
        both_connected.wait();
        dialer.send(NodeId::Server0, &to_listener).unwrap();
        let (_, got) = dialer.recv(NodeId::Server0).unwrap();
        assert!(got == to_dialer, "dialer received a damaged frame");
        dialer.send(NodeId::Server0, b"fin").unwrap();
        let listener = l.join().unwrap();
        assert_one_clean_connection("dialer", &dialer, NodeId::Server0);
        assert_one_clean_connection("listener", &listener, NodeId::Client);
    }

    /// The Go-Back-N replay goes through the same queue as everything
    /// else: a journaled 8 MiB frame reaches the peer on the first
    /// reconnect, although no socket buffer holds it.
    #[test]
    fn journal_replay_delivers_a_large_unacked_frame() {
        let (mut listener, mut dialer) = pair(43);
        let frame = patterned(8 << 20);
        let expected = frame.clone();
        let l = std::thread::spawn(move || {
            listener.connect(&[NodeId::Client]).unwrap();
            let first = listener.recv(NodeId::Client).unwrap();
            let second = listener.recv(NodeId::Client).unwrap();
            listener.send(NodeId::Client, b"got both").unwrap();
            // Returned, not dropped: a closed listener would be redialed.
            (first, second, listener)
        });
        dialer.connect(&[NodeId::Server0]).unwrap();
        dialer.send(NodeId::Server0, b"before").unwrap();
        // Forced teardown: the frame below is journaled on a dead link, so
        // only the reconnect handshake's replay can put it on the wire.
        dialer.kill_link(NodeId::Server0);
        dialer.send(NodeId::Server0, &frame).unwrap();
        assert_eq!(dialer.recv(NodeId::Server0).unwrap().1, b"got both");
        let (first, (seq, got), _listener) = l.join().unwrap();
        assert_eq!(first, (0, b"before".to_vec()));
        assert!(seq == 1 && got == expected, "the replayed frame arrived damaged");
        let s = dialer.stats();
        assert_eq!((s.handshakes, s.reconnects), (2, 1), "one reconnect sufficed: {s:?}");
        assert!(s.replayed >= 1, "{s:?}");
    }

    /// `reconnects` counts redials of a link that had been up; a dialer
    /// that merely started before its peer listened reports none.
    #[test]
    fn dials_towards_first_contact_are_not_reconnects() {
        let hole = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = hole.local_addr().unwrap();
        drop(hole);
        let mut dcfg = fast_cfg(44, NodeId::Client);
        dcfg.dial = vec![(NodeId::Server0, addr)];
        let mut dialer = Supervisor::new(dcfg).unwrap();
        // The first dial happens (and is refused) before anyone listens.
        assert_eq!(dialer.try_recv(NodeId::Server0).unwrap(), None);
        assert_eq!(dialer.links[NodeId::Server0.index()].attempts, 1);
        let mut lcfg = fast_cfg(44, NodeId::Server0);
        lcfg.listen = Some(addr);
        let mut listener = Supervisor::new(lcfg).unwrap();
        let l = std::thread::spawn(move || listener.connect(&[NodeId::Client]).unwrap());
        dialer.connect(&[NodeId::Server0]).unwrap();
        l.join().unwrap();
        let s = dialer.stats();
        assert_eq!((s.handshakes, s.reconnects), (1, 0), "{s:?}");
    }

    /// `Drop` wakes the prober instead of waiting out its interval.
    #[test]
    fn drop_does_not_wait_out_the_heartbeat_interval() {
        let mut cfg = fast_cfg(45, NodeId::Client);
        cfg.heartbeat = Duration::from_secs(10);
        let sup = Supervisor::new(cfg.clone()).unwrap();
        // Let the prober reach its wait (a prober that has not started yet
        // sees the stop flag before it waits for anything).
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        drop(sup);
        assert!(start.elapsed() < cfg.heartbeat / 2, "took {:?}", start.elapsed());
    }

    /// A panic on the other thread while it held the outbound lock does
    /// not take the party thread down: the guard is recovered, and the
    /// queues behind it are whole.
    #[test]
    fn poisoned_outbound_lock_is_recovered() {
        let (mut listener, mut dialer) = pair(46);
        let l = std::thread::spawn(move || {
            listener.connect(&[NodeId::Client]).unwrap();
            listener.recv(NodeId::Client).unwrap()
        });
        dialer.connect(&[NodeId::Server0]).unwrap();
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _guard = dialer.shared.slots.lock().unwrap();
                panic!("poisoning the outbound lock on purpose");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(dialer.shared.slots.is_poisoned());
        dialer.send(NodeId::Server0, b"still here").unwrap();
        assert_eq!(l.join().unwrap(), (0, b"still here".to_vec()));
    }

    fn hellos() -> impl Strategy<Value = Hello> {
        let who = (any::<u64>(), 0usize..3, any::<u64>(), any::<u64>());
        let seqs = (any::<bool>(), any::<u64>(), any::<u64>());
        (who, seqs).prop_map(
            |((run_id, party, generation, epoch), (fresh, last_rx, next_tx))| Hello {
                run_id,
                party: NodeId::from_index(party).unwrap(),
                generation,
                epoch,
                last_rx: (!fresh).then_some(last_rx),
                next_tx,
            },
        )
    }

    proptest! {
        /// `parse_hello` is the exact inverse of `hello_payload`, and the
        /// only hellos it takes are of the asked kind and run.
        #[test]
        fn hello_roundtrips_and_is_refused_out_of_context(
            h in hellos(),
            other_run in any::<u64>(),
        ) {
            for (kind, other) in [("hello", "hello-ack"), ("hello-ack", "hello")] {
                let wire = hello_payload(kind, &h);
                prop_assert_eq!(parse_hello(kind, h.run_id, &wire), Ok(h));
                prop_assert!(parse_hello(other, h.run_id, &wire).is_err());
                if other_run != h.run_id {
                    prop_assert!(parse_hello(kind, other_run, &wire).is_err());
                }
            }
        }

        /// Extra fields, a missing field and a party index past the three
        /// parties are typed refusals.
        #[test]
        fn hello_with_the_wrong_shape_is_refused(
            h in hellos(),
            extra in prop::collection::vec(any::<u64>(), 1..3),
            party in any::<usize>(),
            cut in 1usize..7,
        ) {
            let text = String::from_utf8(hello_payload("hello", &h)).unwrap();
            let mut longer = text.clone();
            for field in &extra {
                longer.push_str(&format!(":{field}"));
            }
            prop_assert!(parse_hello("hello", h.run_id, longer.as_bytes()).is_err());
            let fields: Vec<&str> = text.split(':').collect();
            let shorter = fields[..cut].join(":");
            prop_assert!(parse_hello("hello", h.run_id, shorter.as_bytes()).is_err());
            let mut foreign = fields.clone();
            let party = party.max(3).to_string();
            foreign[2] = &party;
            prop_assert!(parse_hello("hello", h.run_id, foreign.join(":").as_bytes()).is_err());
        }

        /// Arbitrary bytes, and a valid hello with arbitrary bytes spliced
        /// in, parse to the hello they spell or to an error — never a panic.
        #[test]
        fn hello_parse_never_panics(
            h in hellos(),
            noise in prop::collection::vec(any::<u8>(), 0..48),
            at in any::<usize>(),
            keep in any::<usize>(),
        ) {
            let _ = parse_hello("hello", h.run_id, &noise);
            let mut wire = hello_payload("hello", &h);
            let at = at % (wire.len() + 1);
            let end = at + keep % (wire.len() - at + 1);
            wire.splice(at..end, noise);
            if let Ok(parsed) = parse_hello("hello", h.run_id, &wire) {
                // Whatever parses says exactly what its canonical spelling
                // says (a spliced `+7` or `007` reads as 7).
                let respelled = hello_payload("hello", &parsed);
                prop_assert_eq!(parse_hello("hello", h.run_id, &respelled), Ok(parsed));
            }
        }
    }
}
