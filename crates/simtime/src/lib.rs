#![forbid(unsafe_code)]
//! Discrete-event simulated-time substrate for ParSecureML-rs.
//!
//! The paper's evaluation platform (V100 GPUs behind PCIe, two servers on
//! 100 Gbps InfiniBand) is not available in this environment, so the
//! framework executes every operation *functionally* on the host CPU while
//! a simulated clock advances according to a calibrated cost model. This
//! crate provides the shared timing machinery:
//!
//! - [`SimTime`] / [`SimDuration`]: simulated instants and durations,
//! - [`Resource`]: a serial execution engine (a GPU compute engine, a PCIe
//!   copy engine, a NIC, ...) that runs one operation at a time. Scheduling
//!   is dependency-aware: an op starts when both its inputs are ready *and*
//!   its resource is free — exactly how CUDA streams overlap copies with
//!   kernels. The callers (the simulated GPU, the engine's CPUs) keep their
//!   own per-label accounting,
//! - [`LinkModel`]: the latency + bandwidth transfer-time model used for
//!   both PCIe and the inter-node network.
//!
//! All times are `f64` seconds internally; [`SimTime`] provides a total
//! order via [`f64::total_cmp`].

pub mod link;
pub mod resource;
pub mod time;

pub use link::LinkModel;
pub use resource::Resource;
pub use time::{SimDuration, SimTime};

#[cfg(test)]
mod proptests;
