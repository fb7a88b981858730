//! Functional kernel implementations.
//!
//! These are the host-side computations standing in for the CUDA kernels.
//! They are *exact* — the device simulator charges simulated time
//! separately; nothing here is approximated except the deliberate f16
//! rounding of the Tensor-Core path.

use crate::element::GpuElement;
use psml_tensor::{gemm_auto, Matrix};

/// Which GEMM unit the kernel runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GemmMode {
    /// Plain CUDA-core FP32 GEMM (`cublasSgemm`).
    #[default]
    Fp32,
    /// Tensor-Core GEMM (`cublasSgemmEx` under `CUBLAS_TENSOR_OP_MATH`):
    /// inputs rounded through binary16, FP32 accumulation.
    TensorCore,
}

impl GemmMode {
    /// The nvprof-style kernel label this mode's GEMM is charged under.
    /// Single source of truth for every backend and every charge-only
    /// mirror — the profile strings pinned by tests all come from here.
    pub fn kernel_label(self) -> &'static str {
        match self {
            GemmMode::Fp32 => "gemm",
            GemmMode::TensorCore => "gemm_tc",
        }
    }
}

/// GEMM with the selected unit's numerics.
pub fn gemm<R: GpuElement>(a: &Matrix<R>, b: &Matrix<R>, mode: GemmMode) -> Matrix<R> {
    match mode {
        GemmMode::Fp32 => gemm_auto(a, b),
        GemmMode::TensorCore => {
            let aq = a.map(GpuElement::quantize_tc);
            let bq = b.map(GpuElement::quantize_tc);
            gemm_auto(&aq, &bq)
        }
    }
}

/// Deterministic counter-based device RNG (stands in for cuRAND's Philox):
/// sample `i` of stream `seed` is `splitmix64(seed, i)`, so parallel
/// generation order cannot matter — the same property Philox has.
pub fn device_random<R: GpuElement>(rows: usize, cols: usize, seed: u64) -> Matrix<R> {
    let mut i = 0u64;
    Matrix::from_fn(rows, cols, |_, _| {
        let v = splitmix64(seed, i);
        i += 1;
        R::from_random_bits(v)
    })
}

/// SplitMix64 keyed by `(seed, counter)`.
#[inline]
fn splitmix64(seed: u64, counter: u64) -> u64 {
    let mut z = seed
        .wrapping_add(counter.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp32_mode_is_exact_auto_gemm() {
        let a = Matrix::from_fn(8, 8, |r, c| (r * 8 + c) as f32);
        let b = Matrix::from_fn(8, 8, |r, c| ((r + c) % 5) as f32);
        assert_eq!(gemm(&a, &b, GemmMode::Fp32), gemm_auto(&a, &b));
    }

    #[test]
    fn tensor_core_mode_rounds_inputs_only() {
        // Exactly-f16-representable inputs: identical results.
        let a = Matrix::from_fn(6, 6, |r, c| (r as f32) - c as f32 * 0.5);
        let b = Matrix::from_fn(6, 6, |r, c| ((r * c) % 3) as f32 * 0.25);
        assert_eq!(gemm(&a, &b, GemmMode::TensorCore), gemm(&a, &b, GemmMode::Fp32));
    }

    #[test]
    fn tensor_core_error_is_bounded() {
        let a = Matrix::from_fn(16, 16, |r, c| ((r * 31 + c * 17) as f32).sin());
        let b = Matrix::from_fn(16, 16, |r, c| ((r * 13 + c * 7) as f32).cos());
        let exact = gemm(&a, &b, GemmMode::Fp32);
        let tc = gemm(&a, &b, GemmMode::TensorCore);
        // 16-term dot products of unit values: error ~ 16 * 2^-11.
        assert!(exact.max_abs_diff(&tc) < 0.02);
        assert!(exact.max_abs_diff(&tc) > 0.0, "rounding must be visible");
    }

    #[test]
    fn tensor_core_identity_on_ring() {
        let a = Matrix::from_fn(4, 4, |r, c| ((r * 4 + c) as u64) << 40);
        let b = Matrix::from_fn(4, 4, |r, c| (r + 2 * c) as u64);
        assert_eq!(gemm(&a, &b, GemmMode::TensorCore), gemm(&a, &b, GemmMode::Fp32));
    }

    #[test]
    fn device_random_is_deterministic_and_seed_sensitive() {
        let a = device_random::<f32>(5, 5, 1);
        let b = device_random::<f32>(5, 5, 1);
        let c = device_random::<f32>(5, 5, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn device_random_floats_bounded_ring_uniformish() {
        let f = device_random::<f32>(30, 30, 3);
        assert!(f.as_slice().iter().all(|x| (-1.0..1.0).contains(x)));
        let r = device_random::<u64>(30, 30, 4);
        let distinct: std::collections::HashSet<_> = r.as_slice().iter().collect();
        assert_eq!(distinct.len(), 900);
    }
}
