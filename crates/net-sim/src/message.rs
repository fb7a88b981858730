//! Message types exchanged between the three nodes.

use psml_simtime::SimTime;
use psml_tensor::{Csr, Matrix, Num};

/// One of the three nodes of the deployment (Fig. 1b).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeId {
    /// The data owner.
    Client,
    /// Computing server 0.
    Server0,
    /// Computing server 1.
    Server1,
}

impl NodeId {
    /// All nodes, in wire-id order.
    pub const ALL: [NodeId; 3] = [NodeId::Client, NodeId::Server0, NodeId::Server1];

    /// Dense index used by routing tables and the wire header.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            NodeId::Client => 0,
            NodeId::Server0 => 1,
            NodeId::Server1 => 2,
        }
    }

    /// Inverse of [`NodeId::index`].
    pub fn from_index(i: usize) -> Option<NodeId> {
        NodeId::ALL.get(i).copied()
    }

    /// Stable lowercase name, used as the trace lane component.
    pub fn short_name(self) -> &'static str {
        match self {
            NodeId::Client => "client",
            NodeId::Server0 => "server0",
            NodeId::Server1 => "server1",
        }
    }
}

/// A message body. Matrices dominate the protocol's traffic; `Control`
/// carries small coordination strings (batch boundaries, shutdown).
#[derive(Clone, Debug, PartialEq)]
pub enum Payload<R: Num> {
    /// A dense matrix, shipped in full.
    Dense(Matrix<R>),
    /// A sparse *delta* relative to the receiver's mirrored previous value
    /// (Sec. 4.4 compressed transmission).
    SparseDelta(Csr<R>),
    /// A small control/coordination message.
    Control(String),
}

impl<R: Num> Payload<R> {
    /// Stable lowercase kind, used as the trace op name for sends.
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::Dense(_) => "send:dense",
            Payload::SparseDelta(_) => "send:sparse-delta",
            Payload::Control(_) => "send:control",
        }
    }

    /// Bytes the dense representation of this payload would occupy —
    /// the baseline against which compression savings are measured.
    pub fn dense_equivalent_bytes(&self) -> usize {
        match self {
            Payload::Dense(m) => m.byte_size(),
            Payload::SparseDelta(c) => {
                let (r, n) = c.shape();
                r * n * R::BYTES
            }
            Payload::Control(s) => s.len(),
        }
    }
}

/// A routed message with its simulated arrival time and measured wire size.
#[derive(Clone, Debug)]
pub struct Packet<R: Num> {
    /// Sending node.
    pub from: NodeId,
    /// Message body.
    pub payload: Payload<R>,
    /// Sender-assigned frame sequence number (checksummed on the wire).
    pub seq: u64,
    /// Simulated instant at which the bytes are fully received.
    pub available_at: SimTime,
    /// Actual serialized size on the wire (frame header + payload).
    pub wire_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_indexing_roundtrips() {
        for n in NodeId::ALL {
            assert_eq!(NodeId::from_index(n.index()), Some(n));
        }
        assert_eq!(NodeId::from_index(3), None);
    }

    #[test]
    fn dense_equivalent_counts_full_matrix() {
        let m = Matrix::<f32>::zeros(10, 10);
        let p = Payload::Dense(m.clone());
        assert_eq!(p.dense_equivalent_bytes(), 400);
        let csr = Csr::from_dense(&m);
        let p = Payload::<f32>::SparseDelta(csr);
        assert_eq!(p.dense_equivalent_bytes(), 400);
    }
}
