//! Three-party endpoints with simulated link timing.

use crate::codec::{self, CodecError};
use crate::fault::{FaultCounters, FaultInjector, FaultPlan, FaultVerdict};
use crate::message::{NodeId, Packet, Payload};
use crate::stats::TrafficStats;
use crate::transport::{channel_mesh, ChannelTransport, Transport, TransportFrame};
use psml_simtime::{LinkModel, SimTime};
use psml_tensor::Num;

/// Communication failures.
#[derive(Clone, Debug, PartialEq)]
pub enum NetError {
    /// The peer endpoint has been dropped.
    Disconnected(NodeId),
    /// Messages cannot be sent to oneself.
    SelfSend,
    /// The received bytes failed to decode.
    Codec(CodecError),
    /// A frame arrived but failed integrity verification (checksum or
    /// magic) — it was altered in flight.
    Corrupt {
        /// Sequence number claimed by the damaged frame's header.
        seq: u64,
    },
    /// No (intact) frame arrived before the deadline.
    Timeout {
        /// The simulated deadline that expired.
        after: SimTime,
        /// Retransmissions already attempted when the budget ran out
        /// (0 for a bare [`Endpoint::recv_deadline`] expiry).
        retries: u32,
    },
    /// The supervision layer exhausted its reconnect budget: the peer
    /// stayed unreachable past every heartbeat deadline and redial
    /// attempt. Terminal — the session must fail over or abort.
    PeerDead {
        /// The unreachable peer.
        peer: NodeId,
        /// Reconnect attempts spent before giving up.
        attempts: u32,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Disconnected(n) => write!(f, "peer {n:?} disconnected"),
            NetError::SelfSend => write!(f, "cannot send to self"),
            NetError::Codec(e) => write!(f, "codec error: {e}"),
            NetError::Corrupt { seq } => {
                write!(f, "frame {seq} rejected: corrupted in flight")
            }
            NetError::Timeout { after, retries } => {
                write!(f, "no frame arrived by t={after} after {retries} retries")
            }
            NetError::PeerDead { peer, attempts } => {
                write!(f, "peer {peer:?} unreachable after {attempts} reconnect attempts")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::BadMagic { seq } | CodecError::Checksum { seq } => {
                NetError::Corrupt { seq }
            }
            other => NetError::Codec(other),
        }
    }
}

/// One node's network interface.
///
/// Holds a serial NIC (sends to any peer queue behind each other, like a
/// single MPI progress engine), a [`LinkModel`] for transfer timing, and
/// per-link [`TrafficStats`]. The actual byte movement is delegated to a
/// [`Transport`]; the default [`ChannelTransport`] is the in-process
/// lock-step mesh, [`crate::tcp::TcpTransport`] carries the same frames
/// between party processes. Endpoints are `Send`, so the three parties
/// can run on one thread (deterministic lock-step), three threads, or
/// three processes.
pub struct Endpoint<R: Num, T: Transport = ChannelTransport> {
    id: NodeId,
    link: LinkModel,
    nic_free_at: SimTime,
    transport: T,
    stats: TrafficStats,
    /// Send-side chaos engine; `None` keeps the zero-overhead fast path.
    faults: Option<FaultInjector>,
    /// Monotone per-endpoint frame sequence counter.
    next_seq: u64,
    _marker: std::marker::PhantomData<fn() -> R>,
}

/// Builds the fully connected three-node in-process network; returns
/// `[client, server0, server1]`.
pub fn build_network<R: Num>(link: LinkModel) -> [Endpoint<R>; 3] {
    let mesh = channel_mesh();
    let mut ids = NodeId::ALL.iter();
    mesh.map(|transport| {
        Endpoint::with_transport(*ids.next().expect("three ids"), link, transport)
    })
}

impl<R: Num, T: Transport> Endpoint<R, T> {
    /// Wraps an arbitrary transport in a full endpoint (framing, sequence
    /// numbers, stats, NIC timing). This is how party processes build
    /// their TCP endpoints; the in-process mesh goes through
    /// [`build_network`].
    pub fn with_transport(id: NodeId, link: LinkModel, transport: T) -> Self {
        Endpoint {
            id,
            link,
            nic_free_at: SimTime::ZERO,
            transport,
            stats: TrafficStats::new(),
            faults: None,
            next_seq: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// Shared access to the underlying transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Exclusive access to the underlying transport (e.g. to drive its
    /// supervision state between protocol steps).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Send-side traffic counters.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Resets traffic counters (e.g. to isolate the online phase).
    pub fn reset_stats(&mut self) {
        self.stats = TrafficStats::new();
    }

    /// Arms (or, with an empty plan, disarms) send-side fault injection.
    /// Each endpoint draws from its own lane of the plan's seed, so one
    /// node's send count never perturbs another's verdict stream.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        self.faults = if plan.is_empty() {
            None
        } else {
            Some(FaultInjector::new(plan.clone(), self.id.index() as u64))
        };
    }

    /// True when this endpoint can inject faults (callers must then use
    /// deadline-aware receives — never the unbounded blocking form).
    pub fn has_faults(&self) -> bool {
        self.faults.is_some()
    }

    /// Faults this endpoint has injected into its outgoing traffic.
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults
            .as_ref()
            .map(|f| f.counters())
            .unwrap_or_default()
    }

    /// The charge half of every send: consumes a sequence number, books
    /// the serial NIC's next `wire_bytes` window, and records the traffic
    /// stats and the `send:*` span. Returns `(seq, start, done)`; `done` is
    /// when the local send completes and the NIC is free again.
    fn charge_send(
        &mut self,
        to: NodeId,
        kind: &str,
        wire_bytes: usize,
        dense_equivalent: usize,
        now: SimTime,
    ) -> Result<(u64, SimTime, SimTime), NetError> {
        if to == self.id {
            return Err(NetError::SelfSend);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        // Serial NIC: this transfer starts when the NIC is free.
        let start = now.max(self.nic_free_at);
        let done = start + self.link.transfer_time(wire_bytes);
        self.nic_free_at = done;
        self.stats
            .record(self.id, to, wire_bytes, dense_equivalent);
        if psml_trace::TraceSink::is_enabled() {
            psml_trace::TraceSink::span(
                kind,
                &format!("net:{}->{}", self.id.short_name(), to.short_name()),
                psml_trace::ns_of_secs(start.as_secs()),
                psml_trace::ns_of_secs(done.as_secs()),
                wire_bytes as u64,
            );
        }
        Ok((seq, start, done))
    }

    /// Sends `payload` to `to`. `now` is this node's simulated clock at the
    /// call. Returns the instant the local send completes (the NIC is then
    /// free; the *receiver* sees the data `latency + size/bw` later).
    ///
    /// With faults armed the frame may be silently dropped, bit-flipped,
    /// or delayed in flight; the sender still pays full NIC time (it
    /// cannot observe in-flight loss) and the verdict is recorded in
    /// [`Endpoint::fault_counters`].
    pub fn send(
        &mut self,
        to: NodeId,
        payload: &Payload<R>,
        now: SimTime,
    ) -> Result<SimTime, NetError> {
        // Charge first: the wire length is known without encoding, so a
        // refused send (`SelfSend`) costs no serialization work.
        let wire_bytes = codec::FRAME_HEADER_BYTES + codec::payload_bytes(payload);
        let (seq, start, done) = self.charge_send(
            to,
            payload.kind(),
            wire_bytes,
            payload.dense_equivalent_bytes(),
            now,
        )?;
        let mut bytes = codec::encode_framed(seq, payload);
        debug_assert_eq!(bytes.len(), wire_bytes, "charged length != framed length");
        let mut available_at = done;
        if let Some(injector) = self.faults.as_mut() {
            match injector.judge(self.id, to, start) {
                FaultVerdict::Deliver => {}
                FaultVerdict::Drop { .. } => {
                    // Lost in flight: never enqueued. The sender's NIC
                    // time and stats are already charged — it cannot tell.
                    return Ok(done);
                }
                FaultVerdict::Corrupt { bit_entropy } => {
                    let bit = (bit_entropy % (bytes.len() as u64 * 8)) as usize;
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
                FaultVerdict::Delay(extra) => {
                    available_at = done + extra;
                }
            }
        }
        let frame = TransportFrame { bytes, available_at };
        self.transport.send(to, frame)?;
        Ok(done)
    }

    /// The charge half of [`Endpoint::send`] for a dense `rows x cols`
    /// matrix, alone: the wire length is a pure function of shape, so the
    /// NIC clock, sequence counter, traffic stats, and trace advance as
    /// for the real send while nothing is serialized or enqueued.
    ///
    /// The provisioning pipeline uses this when a prefetched triple's
    /// share material is already derivable at the consumer (counter-based
    /// RNG streams), so only the transfer's *cost* must be reproduced.
    /// Only valid on fault-free endpoints: an accounted frame can never be
    /// dropped, corrupted, or delayed, so charging one under an armed
    /// fault plan would diverge from the real protocol.
    pub fn send_accounted(
        &mut self,
        to: NodeId,
        rows: usize,
        cols: usize,
        now: SimTime,
    ) -> Result<SimTime, NetError> {
        debug_assert!(
            self.faults.is_none(),
            "accounted sends are only valid on fault-free endpoints"
        );
        let (_, _, done) = self.charge_send(
            to,
            "send:dense",
            codec::FRAME_HEADER_BYTES + codec::dense_payload_bytes::<R>(rows, cols),
            rows * cols * R::BYTES,
            now,
        )?;
        Ok(done)
    }

    /// Verifies and decodes one wire frame into a packet.
    fn unpack(from: NodeId, frame: TransportFrame) -> Result<Packet<R>, NetError> {
        let wire_bytes = frame.bytes.len();
        let (seq, body) = codec::decode_frame(&frame.bytes)?;
        let payload = codec::decode::<R>(body)?;
        Ok(Packet {
            from,
            payload,
            seq,
            available_at: frame.available_at,
            wire_bytes,
        })
    }

    /// Blocks for the next message from `from`, decodes it, and returns the
    /// packet. The caller advances its clock to
    /// `max(now, packet.available_at)`.
    ///
    /// On the in-process mesh this can wait forever on a silent peer —
    /// never use it on a fault-enabled link; use
    /// [`Endpoint::recv_deadline`] there. Supervised transports bound the
    /// wait themselves and surface [`NetError::PeerDead`].
    pub fn recv(&mut self, from: NodeId) -> Result<Packet<R>, NetError> {
        let frame = self.transport.recv(from)?;
        Self::unpack(from, frame)
    }

    /// Non-blocking receive; `Ok(None)` when no message is waiting.
    pub fn try_recv(&mut self, from: NodeId) -> Result<Option<Packet<R>>, NetError> {
        match self.transport.try_recv(from)? {
            Some(frame) => Self::unpack(from, frame).map(Some),
            None => Ok(None),
        }
    }

    /// Deadline-aware receive: returns the next frame from `from` that is
    /// fully received by `deadline` (simulated time), or
    /// [`NetError::Timeout`] if none arrives in time.
    ///
    /// A frame whose `available_at` lies beyond the deadline is *late*:
    /// the receiver discards it (its data will be retransmitted) and
    /// reports a timeout, keeping the queue clean for the retry. A frame
    /// that arrives in time but fails integrity checks surfaces as
    /// [`NetError::Corrupt`].
    ///
    /// Designed for the single-threaded lock-step simulation, where every
    /// frame that can ever arrive is already enqueued when the receiver
    /// runs; in multi-threaded use a quiet queue is indistinguishable from
    /// a slow sender, so deadline semantics are only meaningful in
    /// lock-step mode.
    pub fn recv_deadline(
        &mut self,
        from: NodeId,
        deadline: SimTime,
    ) -> Result<Packet<R>, NetError> {
        match self.transport.try_recv(from)? {
            Some(frame) if frame.available_at <= deadline => Self::unpack(from, frame),
            // Late frame: sends on one link have monotone completion times
            // (serial NIC), so everything behind it is later still — drop
            // it and report the deadline expired; the retransmit carries
            // the same bytes.
            Some(_) | None => Err(NetError::Timeout {
                after: deadline,
                retries: 0,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psml_tensor::Matrix;

    fn network() -> [Endpoint<f32>; 3] {
        build_network(LinkModel::infiniband_100g())
    }

    #[test]
    fn send_recv_roundtrip_with_timing() {
        let [_, mut s0, mut s1] = network();
        let m = Matrix::from_fn(16, 16, |r, c| (r * c) as f32);
        let sent_done = s0
            .send(NodeId::Server1, &Payload::Dense(m.clone()), SimTime::ZERO)
            .unwrap();
        assert!(sent_done > SimTime::ZERO);
        let pkt = s1.recv(NodeId::Server0).unwrap();
        assert_eq!(pkt.from, NodeId::Server0);
        assert_eq!(pkt.available_at, sent_done);
        assert_eq!(pkt.payload, Payload::Dense(m));
        assert!(pkt.wire_bytes > 16 * 16 * 4);
    }

    #[test]
    fn nic_serializes_back_to_back_sends() {
        let [_, mut s0, mut s1] = network();
        let m = Matrix::<f32>::zeros(64, 64);
        let t1 = s0
            .send(NodeId::Server1, &Payload::Dense(m.clone()), SimTime::ZERO)
            .unwrap();
        let t2 = s0
            .send(NodeId::Server1, &Payload::Dense(m.clone()), SimTime::ZERO)
            .unwrap();
        assert!(t2 > t1, "second send must queue behind the first");
        let p1 = s1.recv(NodeId::Server0).unwrap();
        let p2 = s1.recv(NodeId::Server0).unwrap();
        assert!(p2.available_at > p1.available_at);
    }

    #[test]
    fn stats_track_wire_and_dense_bytes() {
        let [_, mut s0, mut s1] = network();
        let mut sparse = Matrix::<f32>::zeros(32, 32);
        sparse[(0, 0)] = 1.0;
        let csr = psml_tensor::Csr::from_dense(&sparse);
        s0.send(NodeId::Server1, &Payload::SparseDelta(csr), SimTime::ZERO)
            .unwrap();
        let link = s0.stats().link(NodeId::Server0, NodeId::Server1);
        assert_eq!(link.messages, 1);
        assert!(link.wire_bytes < link.dense_equivalent_bytes);
        assert!(s0.stats().savings() > 0.5);
        let pkt = s1.recv(NodeId::Server0).unwrap();
        assert!(matches!(pkt.payload, Payload::SparseDelta(_)));
    }

    #[test]
    fn self_send_rejected() {
        let [_, mut s0, _] = network();
        let err = s0
            .send(NodeId::Server0, &Payload::Control("x".into()), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, NetError::SelfSend);
    }

    #[test]
    fn disconnect_detected() {
        let [client, mut s0, _s1] = network();
        drop(client);
        let err = s0.recv(NodeId::Client).unwrap_err();
        assert_eq!(err, NetError::Disconnected(NodeId::Client));
        let err = s0
            .send(NodeId::Client, &Payload::Control("x".into()), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, NetError::Disconnected(NodeId::Client));
    }

    #[test]
    fn try_recv_nonblocking() {
        let [_, mut s0, mut s1] = network();
        assert_eq!(s1.try_recv(NodeId::Server0).unwrap().map(|p| p.from), None);
        s0.send(NodeId::Server1, &Payload::Control("hello".into()), SimTime::ZERO)
            .unwrap();
        let pkt = s1.try_recv(NodeId::Server0).unwrap().unwrap();
        assert_eq!(pkt.payload, Payload::Control("hello".into()));
    }

    #[test]
    fn cross_thread_exchange() {
        let [_, mut s0, mut s1] = network();
        let handle = std::thread::spawn(move || {
            let m = Matrix::from_fn(8, 8, |r, c| (r + c) as f32);
            s0.send(NodeId::Server1, &Payload::Dense(m), SimTime::ZERO)
                .unwrap();
            let back = s0.recv(NodeId::Server1).unwrap();
            matches!(back.payload, Payload::Control(_))
        });
        let pkt = s1.recv(NodeId::Server0).unwrap();
        assert!(matches!(pkt.payload, Payload::Dense(_)));
        s1.send(
            NodeId::Server0,
            &Payload::Control("ack".into()),
            pkt.available_at,
        )
        .unwrap();
        assert!(handle.join().unwrap());
    }
}
