//! Real-socket transport: frames over supervised TCP connections.
//!
//! [`TcpTransport`] adapts a [`Supervisor`] to the [`Transport`] trait so
//! an [`crate::endpoint::Endpoint`] can run between party *processes*.
//! The endpoint's in-memory frame (`PSML | seq | crc | payload`) travels
//! as an *opaque* supervisor payload — the supervisor's own contiguous
//! per-link sequence numbers drive its ARQ, and the endpoint frame
//! arrives byte-identical on the far side, so CRC verification covers
//! exactly the transmitted bytes and golden wire accounting holds.
//!
//! Timing metadata does not cross the wire: received frames carry
//! `SimTime::ZERO` and a zero dense-equivalent — on real sockets the
//! wall clock governs, and compression accounting belongs to the
//! simulated substrate. psml-lint exempts this module from the
//! determinism rule for that reason (`DETERMINISM_EXEMPT_MODULES`).

use crate::endpoint::NetError;
use crate::message::NodeId;
use crate::supervise::{SupervisionStats, Supervisor};
use crate::transport::{Transport, TransportFrame};
use psml_simtime::SimTime;

/// [`Transport`] over supervised TCP links (see [`Supervisor`] for the
/// liveness / reconnect / replay machinery).
pub struct TcpTransport {
    sup: Supervisor,
}

impl TcpTransport {
    /// Wraps an already-configured supervisor. Call
    /// [`Supervisor::connect`] (or [`TcpTransport::connect`]) before
    /// first use.
    pub fn new(sup: Supervisor) -> Self {
        TcpTransport { sup }
    }

    /// Establishes links to `peers`, bounded by the supervision deadline.
    pub fn connect(&mut self, peers: &[NodeId]) -> Result<(), NetError> {
        self.sup.connect(peers)
    }

    /// Read access to the underlying supervisor (peer state, stats).
    pub fn supervisor(&self) -> &Supervisor {
        &self.sup
    }

    /// Mutable access to the underlying supervisor (state advertisement).
    pub fn supervisor_mut(&mut self) -> &mut Supervisor {
        &mut self.sup
    }

    /// Supervision counters, for reports and chaos-test assertions.
    pub fn stats(&self) -> SupervisionStats {
        self.sup.stats()
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, to: NodeId, frame: TransportFrame) -> Result<(), NetError> {
        self.sup.send(to, &frame.bytes)
    }

    fn recv(&mut self, from: NodeId) -> Result<TransportFrame, NetError> {
        let (_seq, bytes) = self.sup.recv(from)?;
        Ok(TransportFrame {
            bytes,
            available_at: SimTime::ZERO,
        })
    }

    fn try_recv(&mut self, from: NodeId) -> Result<Option<TransportFrame>, NetError> {
        Ok(self.sup.try_recv(from)?.map(|(_seq, bytes)| TransportFrame {
            bytes,
            available_at: SimTime::ZERO,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::Endpoint;
    use crate::message::Payload;
    use crate::supervise::SupervisorConfig;
    use psml_simtime::LinkModel;
    use std::time::Duration;

    fn fast_cfg(run_id: u64, party: NodeId) -> SupervisorConfig {
        let mut cfg = SupervisorConfig::for_party(run_id, party);
        cfg.heartbeat = Duration::from_millis(5);
        cfg.liveness = Duration::from_millis(250);
        cfg.reconnect_base = Duration::from_millis(5);
        cfg.reconnect_cap = Duration::from_millis(50);
        cfg.deadline = Duration::from_secs(5);
        cfg
    }

    /// Full endpoint-over-TCP path: a codec-encoded payload sent through
    /// `Endpoint<u64, TcpTransport>` arrives decoded and CRC-verified,
    /// and the frame survives the wire bit-identically (the echo decodes
    /// too).
    #[test]
    fn endpoint_over_tcp_roundtrips_payloads() {
        let mut s0_cfg = fast_cfg(77, NodeId::Server0);
        s0_cfg.listen = Some("127.0.0.1:0".parse().unwrap());
        let s0_sup = Supervisor::new(s0_cfg).unwrap();
        let addr = s0_sup.local_addr().unwrap();

        let server = std::thread::spawn(move || {
            let mut t = TcpTransport::new(s0_sup);
            t.connect(&[NodeId::Client]).unwrap();
            let mut ep: Endpoint<u64, TcpTransport> =
                Endpoint::with_transport(NodeId::Server0, LinkModel::infiniband_100g(), t);
            let pkt = ep.recv(NodeId::Client).unwrap();
            ep.send(NodeId::Client, &pkt.payload, SimTime::ZERO).unwrap();
            pkt
        });

        let mut c_cfg = fast_cfg(77, NodeId::Client);
        c_cfg.dial = vec![(NodeId::Server0, addr)];
        let mut t = TcpTransport::new(Supervisor::new(c_cfg).unwrap());
        t.connect(&[NodeId::Server0]).unwrap();
        let mut ep: Endpoint<u64, TcpTransport> =
            Endpoint::with_transport(NodeId::Client, LinkModel::infiniband_100g(), t);

        let sent = Payload::Control("begin:42".to_string());
        ep.send(NodeId::Server0, &sent, SimTime::ZERO).unwrap();
        let echoed = ep.recv(NodeId::Server0).unwrap();
        assert_eq!(echoed.payload, sent);

        let server_pkt = server.join().unwrap();
        assert_eq!(server_pkt.payload, sent);
        assert_eq!(server_pkt.from, NodeId::Client);
    }
}
