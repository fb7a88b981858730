#![deny(unsafe_op_in_unsafe_fn)]
//! Dense and sparse matrix substrate for ParSecureML-rs.
//!
//! Everything in the two-party protocol is a matrix operation, so this crate
//! provides the numerical foundation the rest of the workspace builds on:
//!
//! - [`Matrix`]: an owned, row-major dense matrix generic over a [`Num`]
//!   element (IEEE floats for the plaintext/GPU paths, wrapping `u64` for
//!   the `Z_{2^64}` secret-sharing ring),
//! - [`gemm`]: GEMM kernel hierarchy (naive oracle, cache-blocked, packed
//!   register-tiled, pool-parallel, and the `gemm_auto` size dispatcher),
//! - [`conv`]: direct and im2col-based 2-D convolution (the CNN workload),
//! - [`sparse`]: the CSR format plus the 75 %-zeros density test used by the
//!   compressed-transmission design (paper Sec. 4.4),
//! - [`half`]: IEEE binary16 emulation for the Tensor-Core GEMM path
//!   (paper Sec. 5.2),
//! - [`quant`]: the limb-split quantized ring GEMM — the paper's
//!   tensor-core pipeline mapped onto the host's AMX INT8 tile unit, with
//!   a bit-identical portable fallback,
//! - [`caps`]: the once-per-process host capability probe every
//!   availability question reads from.

pub mod caps;
pub mod conv;
pub mod gemm;
pub mod half;
pub mod matrix;
pub mod num;
pub mod quant;
pub mod sparse;

pub use caps::{host_caps, HostCaps};
pub use conv::{conv2d_direct, conv2d_im2col, im2col, ConvShape};
pub use gemm::{
    gemm_auto, gemm_batch, gemm_blocked, gemm_naive, gemm_packed, gemm_packed_parallel,
    gemm_packed_sum, gemm_packed_sum_auto, gemm_packed_with, pack_b, pack_b_auto,
    AutoPackedB, PackedB, MR, NR,
};
pub use half::{f16_bits_to_f32, f32_to_f16_bits, quantize_f16};
pub use matrix::Matrix;
pub use num::Num;
pub use quant::{
    gemm_quant, gemm_quant_sum, gemm_quant_with, pack_b_quant, quant_ring_available, QuantPackedB,
};
pub use sparse::{density_of_zeros, Csr};

#[cfg(test)]
mod proptests;
