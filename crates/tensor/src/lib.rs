#![deny(unsafe_op_in_unsafe_fn)]
//! Dense and sparse matrix substrate for ParSecureML-rs.
//!
//! Everything in the two-party protocol is a matrix operation, so this crate
//! provides the numerical foundation the rest of the workspace builds on:
//!
//! - [`Matrix`]: an owned, row-major dense matrix generic over a [`Num`]
//!   element (wrapping `u64` for the `Z_{2^64}` secret-sharing ring, `f64`
//!   for the plaintext baseline, `f32` only for the simulated device's
//!   4-byte element sizes),
//! - [`gemm`]: GEMM kernel hierarchy (naive oracle, cache-blocked, packed
//!   register-tiled, pool-parallel) behind one dispatch rule: `gemm_auto`
//!   is the one-term case of the fused prepared sum
//!   `gemm_packed_sum_auto`, whose two size floors pick among the last
//!   three; one kernel family for ring and float carriers,
//! - [`conv`]: direct and im2col-based 2-D convolution (the CNN workload),
//! - [`sparse`]: the CSR format plus the 75 %-zeros density test used by the
//!   compressed-transmission design (paper Sec. 4.4),
//! - [`caps`]: the once-per-process host capability probe every
//!   availability question reads from.

pub mod caps;
pub mod conv;
pub mod gemm;
pub mod matrix;
pub mod num;
pub mod sparse;

pub use caps::{host_caps, quant_ring_available, HostCaps};
pub use conv::{conv2d_direct, conv2d_im2col, im2col, im2col_rows, ConvShape};
pub use gemm::{
    gemm_auto, gemm_blocked, gemm_naive, gemm_packed, gemm_packed_parallel,
    gemm_packed_sum_auto, pack_b_auto, AutoPackedB, MR, NR,
};
pub use matrix::Matrix;
pub use num::Num;
pub use sparse::{density_of_zeros, Csr};

#[cfg(test)]
mod proptests;
