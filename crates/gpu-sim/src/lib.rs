#![forbid(unsafe_code)]
//! Functional + timed GPU device simulator for ParSecureML-rs.
//!
//! # Why a simulator
//!
//! The paper's system is a CUDA/cuBLAS/cuRAND implementation on NVIDIA
//! V100s. This reproduction targets environments with no GPU, so the GPU is
//! replaced by a *functional simulator with a calibrated analytic timing
//! model*:
//!
//! - every kernel **really computes** its result on the host (bit-exact for
//!   ring elements; through-f16 rounding for the Tensor-Core path), so all
//!   protocol results remain correct and testable;
//! - every operation **advances a simulated clock** according to a cost
//!   model (kernel launch overhead + flops / sustained throughput; PCIe
//!   transfers as latency + bytes / bandwidth), scheduled on three serial
//!   engines (H2D copy, compute, D2H copy) exactly the way CUDA streams
//!   overlap copies with kernels.
//!
//! The paper's performance claims are about *which* work runs where and
//! *what overlaps what*; both are decisions this simulator faithfully times.
//! Absolute numbers depend on the configured [`GpuConfig`] (defaults are
//! V100-class) and are reported as such in `EXPERIMENTS.md`.
//!
//! ```
//! use psml_gpu::{GemmMode, GpuDevice, MachineConfig};
//! use psml_simtime::SimTime;
//! use psml_tensor::Matrix;
//!
//! let mut dev = GpuDevice::<f32>::new(MachineConfig::v100_node().gpu);
//! let a = Matrix::from_fn(64, 64, |r, c| (r + c) as f32);
//! let b = Matrix::from_fn(64, 64, |r, c| (r * c % 7) as f32);
//! let ha = dev.upload(&a, SimTime::ZERO).unwrap();
//! let hb = dev.upload(&b, SimTime::ZERO).unwrap();
//! let hc = dev.gemm(ha, hb, GemmMode::Fp32).unwrap();
//! let (c, done) = dev.download(hc).unwrap();
//! assert_eq!(c.shape(), (64, 64));
//! assert!(done.as_secs() > 0.0); // simulated time advanced
//! ```

pub mod backend;
pub mod config;
pub mod device;
pub mod element;
pub mod kernels;
pub mod profiler;

pub use backend::{backend_for, Backend, BackendKind, SimBackend};
pub use config::{CpuConfig, GpuConfig, MachineConfig};
pub use device::{BufferId, GpuDevice, GpuError};
pub use element::GpuElement;
pub use kernels::GemmMode;
pub use profiler::ProfileReport;

#[cfg(test)]
mod proptests;
