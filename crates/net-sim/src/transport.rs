//! The transport abstraction under the framed wire format.
//!
//! [`crate::endpoint::Endpoint`] owns everything *protocol-visible* —
//! sequence numbers, CRC framing, NIC timing, traffic stats, fault
//! verdicts — and delegates the actual movement of framed bytes to a
//! [`Transport`]. Two substrates implement it:
//!
//! - [`ChannelTransport`]: the in-process mpsc mesh the lock-step
//!   simulation has always used; the default type parameter, so existing
//!   code compiles (and times) unchanged.
//! - [`crate::tcp::TcpTransport`]: real sockets between party
//!   *processes*, built on the stream framing of [`crate::codec`] and the
//!   supervision layer of [`crate::supervise`].
//!
//! A transport moves opaque framed bytes; it never looks inside a
//! payload. Timing metadata (`available_at`) is meaningful only on the
//! simulated substrate — real transports carry [`psml_simtime::SimTime::ZERO`]
//! and let the wall clock govern.

use crate::endpoint::NetError;
use crate::message::NodeId;
use psml_simtime::SimTime;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};

/// One framed message as carried between endpoints: the full in-memory
/// frame (`PSML | seq | crc | payload`) plus simulation metadata.
#[derive(Debug)]
pub struct TransportFrame {
    /// Complete frame bytes, exactly as [`crate::codec::encode_frame`]
    /// produced them (possibly corrupted in flight).
    pub bytes: Vec<u8>,
    /// Simulated instant the frame is fully received; `SimTime::ZERO` on
    /// real transports.
    pub available_at: SimTime,
}

/// A byte mover between the three parties. Implementations must be
/// `Send` so endpoints can migrate to worker threads (and party
/// processes).
pub trait Transport: Send {
    /// Enqueues `frame` for delivery to `to`. The caller has already
    /// charged NIC time and recorded stats; an error means the peer is
    /// genuinely unreachable.
    fn send(&mut self, to: NodeId, frame: TransportFrame) -> Result<(), NetError>;

    /// Blocks until the next frame from `from` arrives. Implementations
    /// must be deadline-bounded internally (supervision budget) — this
    /// may fail with a typed error but must never hang forever.
    fn recv(&mut self, from: NodeId) -> Result<TransportFrame, NetError>;

    /// Non-blocking poll; `Ok(None)` when nothing is waiting.
    fn try_recv(&mut self, from: NodeId) -> Result<Option<TransportFrame>, NetError>;
}

/// The in-process substrate: a fully connected mpsc mesh. Frames arrive
/// exactly once, in order, with no loss — chaos lives in the endpoint's
/// fault injector, not here.
pub struct ChannelTransport {
    tx: [Option<Sender<TransportFrame>>; 3],
    rx: [Option<Receiver<TransportFrame>>; 3],
}

/// Builds the three connected [`ChannelTransport`]s, indexed like
/// [`NodeId::ALL`] (`[client, server0, server1]`).
pub fn channel_mesh() -> [ChannelTransport; 3] {
    let mut nodes: [ChannelTransport; 3] = NodeId::ALL.map(|_| ChannelTransport {
        tx: [None, None, None],
        rx: [None, None, None],
    });
    for from in 0..3 {
        for to in 0..3 {
            if from == to {
                continue;
            }
            let (s, r) = channel();
            nodes[from].tx[to] = Some(s);
            nodes[to].rx[from] = Some(r);
        }
    }
    nodes
}

impl Transport for ChannelTransport {
    fn send(&mut self, to: NodeId, frame: TransportFrame) -> Result<(), NetError> {
        self.tx[to.index()]
            .as_ref()
            .ok_or(NetError::SelfSend)?
            .send(frame)
            .map_err(|_| NetError::Disconnected(to))
    }

    fn recv(&mut self, from: NodeId) -> Result<TransportFrame, NetError> {
        self.rx[from.index()]
            .as_ref()
            .ok_or(NetError::SelfSend)?
            .recv()
            .map_err(|_| NetError::Disconnected(from))
    }

    fn try_recv(&mut self, from: NodeId) -> Result<Option<TransportFrame>, NetError> {
        match self.rx[from.index()]
            .as_ref()
            .ok_or(NetError::SelfSend)?
            .try_recv()
        {
            Ok(frame) => Ok(Some(frame)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(NetError::Disconnected(from)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(tag: u8) -> TransportFrame {
        TransportFrame {
            bytes: vec![tag; 4],
            available_at: SimTime::ZERO,
        }
    }

    #[test]
    fn mesh_routes_between_distinct_nodes() {
        let [mut c, mut s0, _s1] = channel_mesh();
        c.send(NodeId::Server0, frame(7)).unwrap();
        let got = s0.recv(NodeId::Client).unwrap();
        assert_eq!(got.bytes, vec![7; 4]);
    }

    #[test]
    fn self_route_is_rejected() {
        let [mut c, _, _] = channel_mesh();
        assert!(matches!(
            c.send(NodeId::Client, frame(1)),
            Err(NetError::SelfSend)
        ));
        assert!(matches!(c.recv(NodeId::Client), Err(NetError::SelfSend)));
    }

    #[test]
    fn try_recv_reports_empty_and_disconnect() {
        let [c, mut s0, _s1] = channel_mesh();
        assert!(s0.try_recv(NodeId::Client).unwrap().is_none());
        drop(c);
        assert!(matches!(
            s0.try_recv(NodeId::Client),
            Err(NetError::Disconnected(NodeId::Client))
        ));
    }
}
