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
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sentinel sequence number of supervision-internal frames (heartbeats,
/// acks, handshakes). Never journaled, never delivered to the session.
pub const HEARTBEAT_SEQ: u64 = u64::MAX;

/// Per-link retransmission journal depth. The session protocol is
/// request/response (barriers every epoch), so the number of frames in
/// flight is small; a peer that falls more than this many frames behind
/// is unrecoverable by replay and must resynchronize from a checkpoint.
pub const JOURNAL_DEPTH: usize = 64;

/// Polling granularity of the supervision loops.
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
    /// Heartbeat frames sent by the prober thread.
    pub heartbeats_sent: u64,
    /// Heartbeat frames received from peers.
    pub heartbeats_seen: u64,
    /// Successful handshakes (initial connects included).
    pub handshakes: u64,
    /// Redial attempts made (successful or not).
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

struct Link {
    /// Read half (nonblocking after handshake); `None` while down.
    stream: Option<TcpStream>,
    decoder: StreamDecoder,
    inbox: VecDeque<(u64, Vec<u8>)>,
    /// Sent frames awaiting a covering ack, oldest first.
    journal: VecDeque<(u64, Vec<u8>)>,
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
        }
    }

    /// `last_rx` field advertised in handshakes: the last contiguous seq
    /// received, or `None` when this incarnation has received nothing.
    fn advertised_last_rx(&self) -> Option<u64> {
        self.rx_next.checked_sub(1)
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
    /// Write halves, shared with the heartbeat prober.
    writers: Arc<Mutex<[Option<TcpStream>; 3]>>,
    stats: SupervisionStats,
    hb_sent: Arc<AtomicU64>,
    hb_stop: Arc<AtomicBool>,
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
        let writers: Arc<Mutex<[Option<TcpStream>; 3]>> = Arc::new(Mutex::new([None, None, None]));
        let hb_sent = Arc::new(AtomicU64::new(0));
        let hb_stop = Arc::new(AtomicBool::new(false));
        let hb_thread = {
            let writers = Arc::clone(&writers);
            let sent = Arc::clone(&hb_sent);
            let stop = Arc::clone(&hb_stop);
            let interval = cfg.heartbeat;
            Some(std::thread::spawn(move || {
                let hb = encode_stream_frame(HEARTBEAT_SEQ, b"hb");
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    let mut guard = writers.lock().expect("heartbeat writers lock");
                    for w in guard.iter_mut().flatten() {
                        // A failed write is the reader's problem to
                        // discover (liveness); the prober never errors.
                        if w.write_all(&hb).is_ok() {
                            sent.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }))
        };
        Ok(Supervisor {
            cfg,
            listener,
            links,
            writers,
            stats: SupervisionStats::default(),
            hb_sent,
            hb_stop,
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
        s.heartbeats_sent = self.hb_sent.load(Ordering::Relaxed);
        s
    }

    /// Establishes (or waits for) connections to every peer in `peers`,
    /// bounded by the deadline budget.
    pub fn connect(&mut self, peers: &[NodeId]) -> Result<(), NetError> {
        let start = Instant::now();
        loop {
            self.pump();
            if peers.iter().all(|p| self.links[p.index()].stream.is_some()) {
                return Ok(());
            }
            if let Some(p) = peers
                .iter()
                .find(|p| self.links[p.index()].attempts > self.cfg.max_reconnects)
            {
                return Err(self.dead(*p));
            }
            if start.elapsed() > self.cfg.deadline {
                let p = peers
                    .iter()
                    .find(|p| self.links[p.index()].stream.is_none())
                    .copied()
                    .unwrap_or(self.cfg.party);
                return Err(self.dead(p));
            }
            std::thread::sleep(POLL);
        }
    }

    /// Assigns the next contiguous seq on the link and journals the
    /// frame; returns `(seq, reset_marker)`.
    fn enqueue(&mut self, to: NodeId, payload: &[u8]) -> (u64, u64) {
        let link = &mut self.links[to.index()];
        let seq = link.tx_seq;
        link.tx_seq += 1;
        if link.journal.is_empty() {
            link.unacked_since = Some(Instant::now());
        }
        link.journal.push_back((seq, payload.to_vec()));
        while link.journal.len() > JOURNAL_DEPTH {
            link.journal.pop_front();
        }
        (seq, link.resets)
    }

    /// Sends an opaque session frame to `to`, journaling it until the
    /// peer acks it. Blocks through reconnects, bounded by the deadline
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
        let start = Instant::now();
        let (seq, mut reset_marker) = self.enqueue(to, payload);
        let mut record = encode_stream_frame(seq, payload);
        loop {
            if self.links[to.index()].stream.is_some() {
                let ok = {
                    let mut guard = self.writers.lock().expect("writers lock");
                    match guard[to.index()].as_mut() {
                        Some(w) => w.write_all(&record).is_ok(),
                        None => false,
                    }
                };
                if ok {
                    return Ok(());
                }
                self.kill_link(to);
            }
            // Link down: pump redials; a successful reconnect's handshake
            // replays the journal (which holds this frame) — unless the
            // peer came back fresh, which resets transmit state and
            // discards the journal; in that case re-enqueue under the new
            // numbering and write it directly.
            self.pump();
            if self.links[to.index()].stream.is_some() {
                if self.links[to.index()].resets == reset_marker {
                    // Handshake replay already put this frame on the wire.
                    return Ok(());
                }
                let (new_seq, marker) = self.enqueue(to, payload);
                reset_marker = marker;
                record = encode_stream_frame(new_seq, payload);
                continue;
            }
            if self.links[to.index()].attempts > self.cfg.max_reconnects
                || start.elapsed() > self.cfg.deadline
            {
                return Err(self.dead(to));
            }
            std::thread::sleep(POLL);
        }
    }

    /// Receives the next in-order session frame from `from`, pumping
    /// heartbeats, accepts, liveness checks, and reconnects while
    /// waiting. Bounded by the deadline budget.
    pub fn recv(&mut self, from: NodeId) -> Result<(u64, Vec<u8>), NetError> {
        let start = Instant::now();
        loop {
            if let Some(frame) = self.links[from.index()].inbox.pop_front() {
                return Ok(frame);
            }
            self.pump();
            if self.links[from.index()].attempts > self.cfg.max_reconnects
                || start.elapsed() > self.cfg.deadline
            {
                return Err(self.dead(from));
            }
            std::thread::sleep(POLL);
        }
    }

    /// Non-blocking poll for a session frame from `from`.
    pub fn try_recv(&mut self, from: NodeId) -> Result<Option<(u64, Vec<u8>)>, NetError> {
        self.pump();
        Ok(self.links[from.index()].inbox.pop_front())
    }

    /// One supervision step: accept incoming connections, drain readable
    /// sockets, enforce liveness and ack progress, redial dead links.
    fn pump(&mut self) {
        self.poll_accept();
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

    /// Tears a link down (socket closed, decoder reset). ARQ state
    /// survives — it drives replay after reconnect.
    fn kill_link(&mut self, peer: NodeId) {
        let link = &mut self.links[peer.index()];
        link.stream = None;
        link.decoder = StreamDecoder::new();
        link.next_dial_at = Instant::now();
        self.writers.lock().expect("writers lock")[peer.index()] = None;
    }

    fn poll_accept(&mut self) {
        loop {
            let accepted = match &self.listener {
                None => return,
                Some(listener) => match listener.accept() {
                    Ok((stream, _addr)) => stream,
                    Err(_) => return,
                },
            };
            // A bad or foreign connection is dropped, not fatal: the
            // legitimate peer can still arrive.
            let _ = self.handshake_accept(accepted);
        }
    }

    /// Reads everything currently available on a link, decoding frames
    /// into the inbox and folding heartbeats into liveness.
    fn drain_link(&mut self, peer: NodeId) {
        if self.links[peer.index()].stream.is_none() {
            return;
        }
        let mut buf = [0u8; 4096];
        loop {
            let res = {
                let link = &mut self.links[peer.index()];
                let stream = link.stream.as_mut().expect("checked above");
                stream.read(&mut buf)
            };
            match res {
                Ok(0) => {
                    // Orderly EOF: the peer's socket is gone.
                    self.kill_link(peer);
                    return;
                }
                Ok(n) => {
                    let link = &mut self.links[peer.index()];
                    link.last_heard = Instant::now();
                    link.decoder.push(&buf[..n]);
                    self.drain_decoder(peer);
                }
                Err(ref e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(ref e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.kill_link(peer);
                    return;
                }
            }
        }
    }

    fn drain_decoder(&mut self, peer: NodeId) {
        let mut advanced = false;
        while let Some(frame) = self.links[peer.index()].decoder.next_frame() {
            match frame {
                Ok((seq, payload)) => {
                    if seq == HEARTBEAT_SEQ {
                        self.handle_sentinel(peer, &payload);
                        continue;
                    }
                    advanced |= self.accept_data(peer, seq, payload);
                }
                Err(_) => {
                    // Damaged but delimited record (chaos-proxy bit flip):
                    // drop it. The sender's journal holds it until acked,
                    // and the ack stall tears the link down and replays.
                    continue;
                }
            }
        }
        if advanced {
            self.send_ack(peer);
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

    /// Tells `peer` the highest contiguous seq received so it can prune
    /// its journal. Ack loss is harmless (cumulative + re-sent on the
    /// next delivery).
    fn send_ack(&mut self, peer: NodeId) {
        let Some(last) = self.links[peer.index()].advertised_last_rx() else {
            return;
        };
        let rec = encode_stream_frame(HEARTBEAT_SEQ, format!("ack:{last}").as_bytes());
        let mut guard = self.writers.lock().expect("writers lock");
        if let Some(w) = guard[peer.index()].as_mut() {
            let _ = w.write_all(&rec);
        }
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
            // Force a reconnect; the handshake replays the journal.
            if link
                .unacked_since
                .is_some_and(|t| t.elapsed() > self.cfg.liveness)
            {
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
            self.stats.reconnects += 1;
            trace_net_event("reconnect", self.cfg.party, peer);
            let attempt = self.links[peer.index()].attempts;
            match TcpStream::connect_timeout(&addr, self.cfg.liveness.max(POLL)) {
                Ok(stream) => match self.handshake_dial(peer, stream) {
                    Ok(()) => {
                        self.links[peer.index()].attempts = 0;
                    }
                    Err(_) => self.schedule_redial(peer, attempt),
                },
                Err(_) => self.schedule_redial(peer, attempt),
            }
        }
    }

    fn schedule_redial(&mut self, peer: NodeId, attempt: u32) {
        let delay = self.cfg.redial_delay(peer, attempt);
        let link = &mut self.links[peer.index()];
        link.attempts = link.attempts.saturating_add(1);
        link.next_dial_at = Instant::now() + delay;
    }

    fn hello_payload(&self, kind: &str, peer: NodeId) -> Vec<u8> {
        let link = &self.links[peer.index()];
        let last_rx = match link.advertised_last_rx() {
            Some(s) => s.to_string(),
            None => "-".to_string(),
        };
        format!(
            "{kind}:{}:{}:{}:{}:{last_rx}:{}",
            self.cfg.run_id,
            self.cfg.party.index(),
            self.state.0,
            self.state.1,
            link.tx_seq,
        )
        .into_bytes()
    }

    /// Parses `kind:run_id:party:gen:epoch:last_rx:next_tx`.
    fn parse_hello(
        &self,
        kind: &str,
        payload: &[u8],
    ) -> Result<(NodeId, PeerState, Option<u64>, u64), String> {
        let text = std::str::from_utf8(payload).map_err(|_| "hello not UTF-8".to_string())?;
        let parts: Vec<&str> = text.split(':').collect();
        if parts.len() != 7 || parts[0] != kind {
            return Err(format!("malformed {kind}: {text}"));
        }
        let run_id: u64 = parts[1].parse().map_err(|_| "bad run id".to_string())?;
        if run_id != self.cfg.run_id {
            return Err(format!(
                "run id mismatch: theirs {run_id}, ours {}",
                self.cfg.run_id
            ));
        }
        let party_idx: usize = parts[2].parse().map_err(|_| "bad party".to_string())?;
        let party = NodeId::from_index(party_idx).ok_or_else(|| "bad party index".to_string())?;
        let generation: u64 = parts[3].parse().map_err(|_| "bad generation".to_string())?;
        let epoch: u64 = parts[4].parse().map_err(|_| "bad epoch".to_string())?;
        let last_rx = if parts[5] == "-" {
            None
        } else {
            Some(parts[5].parse::<u64>().map_err(|_| "bad seq".to_string())?)
        };
        let next_tx: u64 = parts[6].parse().map_err(|_| "bad next_tx".to_string())?;
        Ok((
            party,
            PeerState {
                generation,
                epoch,
                has_rx_state: last_rx.is_some(),
            },
            last_rx,
            next_tx,
        ))
    }

    /// Reconciles link ARQ state with what the peer's handshake
    /// advertised. Must run *before* composing our own reply (accept
    /// side) and before replay.
    fn sync_from_peer(
        &mut self,
        peer: NodeId,
        state: PeerState,
        peer_last_rx: Option<u64>,
        peer_next_tx: u64,
    ) {
        let link = &mut self.links[peer.index()];
        link.peer = state;
        if peer_last_rx.is_none() && (link.tx_seq > 0 || !link.journal.is_empty()) {
            // The peer restarted: our numbering and journal mean nothing
            // to it. Start the transmit side over; the session layer
            // resynchronizes content from checkpoints.
            link.journal.clear();
            link.tx_seq = 0;
            link.acked = None;
            link.unacked_since = None;
            link.resets += 1;
        }
        if peer_next_tx < link.rx_next {
            // The peer's transmit side restarted; expect its numbering
            // from the top and discard stale parked frames.
            link.rx_next = peer_next_tx;
            link.pending.clear();
        }
    }

    /// Synchronously reads one handshake frame (sentinel seq, non-`hb`
    /// payload) off a fresh stream.
    fn read_handshake_frame(
        stream: &mut TcpStream,
        decoder: &mut StreamDecoder,
        deadline: Duration,
    ) -> Result<Vec<u8>, String> {
        let start = Instant::now();
        let mut buf = [0u8; 4096];
        loop {
            if let Some(frame) = decoder.next_frame() {
                match frame {
                    Ok((seq, payload)) if seq == HEARTBEAT_SEQ && payload != b"hb" => {
                        return Ok(payload);
                    }
                    // The dial/accept protocol guarantees the handshake
                    // frame is the first non-heartbeat frame on a fresh
                    // connection; anything else here is stream debris.
                    Ok(_) => continue,
                    Err(_) => continue,
                }
            }
            if start.elapsed() > deadline {
                return Err("handshake timed out".into());
            }
            match stream.read(&mut buf) {
                Ok(0) => return Err("peer closed during handshake".into()),
                Ok(n) => decoder.push(&buf[..n]),
                Err(ref e)
                    if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
                {
                    std::thread::sleep(POLL);
                }
                Err(ref e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("handshake read failed: {e}")),
            }
        }
    }

    /// Dial-side handshake: send hello, await hello-ack, reconcile,
    /// replay, install.
    fn handshake_dial(&mut self, peer: NodeId, mut stream: TcpStream) -> Result<(), String> {
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(POLL))
            .map_err(|e| e.to_string())?;
        let hello = encode_stream_frame(HEARTBEAT_SEQ, &self.hello_payload("hello", peer));
        stream.write_all(&hello).map_err(|e| e.to_string())?;
        let mut decoder = StreamDecoder::new();
        let ack = Self::read_handshake_frame(&mut stream, &mut decoder, self.cfg.liveness)?;
        let (ack_party, state, peer_last_rx, peer_next_tx) = self.parse_hello("hello-ack", &ack)?;
        if ack_party != peer {
            return Err(format!("dialed {peer:?}, answered by {ack_party:?}"));
        }
        self.sync_from_peer(peer, state, peer_last_rx, peer_next_tx);
        self.install(peer, stream, decoder, peer_last_rx)
    }

    /// Accept-side handshake: await hello, reconcile, reply hello-ack,
    /// replay, install.
    fn handshake_accept(&mut self, mut stream: TcpStream) -> Result<(), String> {
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(POLL))
            .map_err(|e| e.to_string())?;
        let mut decoder = StreamDecoder::new();
        let hello = Self::read_handshake_frame(&mut stream, &mut decoder, self.cfg.liveness)?;
        let (peer, state, peer_last_rx, peer_next_tx) = self.parse_hello("hello", &hello)?;
        self.sync_from_peer(peer, state, peer_last_rx, peer_next_tx);
        let ack = encode_stream_frame(HEARTBEAT_SEQ, &self.hello_payload("hello-ack", peer));
        stream.write_all(&ack).map_err(|e| e.to_string())?;
        self.install(peer, stream, decoder, peer_last_rx)
    }

    /// Installs a freshly handshaken stream as the live connection to
    /// `peer`, replaying journaled frames the peer missed.
    fn install(
        &mut self,
        peer: NodeId,
        stream: TcpStream,
        decoder: StreamDecoder,
        peer_last_rx: Option<u64>,
    ) -> Result<(), String> {
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        let mut writer = stream.try_clone().map_err(|e| e.to_string())?;

        // Go-Back-N replay of everything past the peer's high-water mark.
        // A fresh peer advertised no mark and `sync_from_peer` cleared
        // the journal, so nothing goes out here.
        let mut replayed = 0u64;
        let last = peer_last_rx.map_or(0, |l| l + 1);
        for (seq, payload) in &self.links[peer.index()].journal {
            if *seq >= last {
                let rec = encode_stream_frame(*seq, payload);
                writer.write_all(&rec).map_err(|e| e.to_string())?;
                replayed += 1;
            }
        }

        let link = &mut self.links[peer.index()];
        link.stream = Some(stream);
        link.decoder = decoder;
        link.last_heard = Instant::now();
        link.attempts = 0;
        if !link.journal.is_empty() {
            link.unacked_since = Some(Instant::now());
        }
        self.writers.lock().expect("writers lock")[peer.index()] = Some(writer);
        self.stats.handshakes += 1;
        self.stats.replayed += replayed;
        trace_net_event("handshake", self.cfg.party, peer);
        Ok(())
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.hb_stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.hb_thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
