#![forbid(unsafe_code)]
//! Timed GPU device simulator for ParSecureML-rs.
//!
//! # Why a simulator
//!
//! The paper's system is a CUDA/cuBLAS/cuRAND implementation on NVIDIA
//! V100s. This reproduction targets environments with no GPU, so the GPU is
//! replaced by a *calibrated analytic timing model*. It times work and
//! computes no values:
//!
//! - a device buffer is a shape, its bytes and the simulated instant it
//!   becomes valid; `upload` reads a host matrix's shape, `download`
//!   returns when the copy is back on the host;
//! - every operation **advances a simulated clock** according to a cost
//!   model (kernel launch overhead + flops / sustained throughput; PCIe
//!   transfers as latency + bytes / bandwidth), scheduled on three serial
//!   engines (H2D copy, compute, D2H copy) exactly the way CUDA streams
//!   overlap copies with kernels.
//!
//! The values a GPU-placed step produces are the host's: the engine runs
//! the same protocol code for either placement, and placement changes
//! only the charge. The one device-made value, the cuRAND stand-in's
//! draw, is specified by [`kernels::device_random`].
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
//! let ha = dev.upload(&Matrix::zeros(64, 32), SimTime::ZERO).unwrap();
//! let hb = dev.upload(&Matrix::zeros(32, 16), SimTime::ZERO).unwrap();
//! let hc = dev.gemm(ha, hb, GemmMode::Fp32).unwrap();
//! assert_eq!(dev.shape(hc).unwrap(), (64, 16));
//! let done = dev.download(hc).unwrap();
//! assert!(done.as_secs() > 0.0); // simulated time advanced
//! ```

pub mod backend;
pub mod config;
pub mod device;
pub mod kernels;
pub mod profiler;

pub use backend::{backend_for, BackendKind, SimBackend};
pub use config::{CpuConfig, GpuConfig, MachineConfig};
pub use device::{BufferId, GpuDevice, GpuError};
pub use kernels::GemmMode;
pub use profiler::ProfileReport;

#[cfg(test)]
mod proptests;
