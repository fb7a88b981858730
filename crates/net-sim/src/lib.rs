#![deny(unsafe_op_in_unsafe_fn)]
#![deny(unsafe_code)]
//! Inter-node communication substrate for ParSecureML-rs.
//!
//! The paper's deployment is a three-node cluster — one client and two
//! servers on 100 Gbps InfiniBand, talking over MPI. This crate replaces
//! the cluster with three in-process endpoints connected by channels, while
//! keeping everything the evaluation measures *real*:
//!
//! - every payload is **actually serialized** to a wire format
//!   ([`codec`]) — so the compressed-transmission optimization changes real
//!   byte counts, not estimates;
//! - a [`psml_simtime::LinkModel`] charges each message
//!   `latency + bytes / bandwidth` of simulated time, and each endpoint's
//!   NIC is a serial resource (sends queue behind each other);
//! - [`TrafficStats`] records bytes/messages per link, including the
//!   dense-equivalent byte count, from which Fig. 16's communication
//!   savings are computed;
//! - [`compress`] implements Sec. 4.4: per-stream delta tracking with the
//!   75 %-zeros CSR policy ([`DeltaEncoder`], [`DeltaDecoder`]);
//! - [`fault`] injects seeded, deterministic chaos (drops, bit flips,
//!   latency spikes, blackouts) at the send side, and every frame is
//!   protected by a magic + sequence + CRC-32 header so corruption
//!   surfaces as a typed [`NetError::Corrupt`];
//! - [`reliable`] layers ack/retransmit delivery with exponential backoff
//!   and a bounded retry budget on top, entirely in simulated time.
//!
//! Endpoints are `Send` and work both single-threaded (deterministic
//! lock-step simulation) and with each party on its own OS thread; message
//! timestamps implement a classic logical-clock scheme (receive time =
//! `max(local_clock, sender_time + transfer_time)`).

pub mod codec;
pub mod compress;
mod crc;
pub mod endpoint;
pub mod fault;
pub mod message;
pub mod proxy;
pub mod reliable;
pub mod stats;
pub mod supervise;
pub mod tcp;
pub mod transport;

pub use compress::{DeltaDecoder, DeltaEncoder, TransmitForm};
pub use endpoint::{build_network, Endpoint, NetError};
pub use fault::{Blackout, FaultCounters, FaultInjector, FaultPlan, FaultVerdict, LinkFaults};
pub use message::{NodeId, Packet, Payload};
pub use proxy::{FaultProxy, ProxyConfig};
pub use reliable::{ReliabilityStats, ReliableChannel, RetryPolicy};
pub use stats::TrafficStats;
pub use supervise::{SupervisionStats, Supervisor, SupervisorConfig};
pub use tcp::TcpTransport;
pub use transport::{channel_mesh, ChannelTransport, Transport, TransportFrame};

#[cfg(test)]
mod proptests;
