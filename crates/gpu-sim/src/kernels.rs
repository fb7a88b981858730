//! What a device op is, apart from its time: the GEMM unit it is priced
//! on, and the value spec of the device RNG.
//!
//! The simulated device computes no values. The one device-made value the
//! protocol consumes is the client's GPU-placed random draw, and the
//! engine produces it on the host from [`device_random`], the counter
//! stream the device's `random` op stands for.

use psml_mpc::SecureRing;
use psml_tensor::Matrix;

/// Which GEMM unit a device GEMM is charged on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GemmMode {
    /// Plain CUDA-core FP32 GEMM (`cublasSgemm`).
    #[default]
    Fp32,
    /// Tensor-Core GEMM (`cublasSgemmEx` under `CUBLAS_TENSOR_OP_MATH`).
    /// It selects the Tensor-Core rate and kernel label; no value passes
    /// through binary16, since the device computes none.
    TensorCore,
}

impl GemmMode {
    /// The nvprof-style kernel label this mode's GEMM is charged under.
    /// Single source of truth for every backend — the profile strings
    /// pinned by tests all come from here.
    pub fn kernel_label(self) -> &'static str {
        match self {
            GemmMode::Fp32 => "gemm",
            GemmMode::TensorCore => "gemm_tc",
        }
    }
}

/// Deterministic counter-based device RNG (stands in for cuRAND's Philox):
/// sample `i` of stream `seed` is `splitmix64(seed, i)`, taken verbatim as
/// a ring element, so parallel generation order cannot matter — the same
/// property Philox has.
pub fn device_random<R: SecureRing>(rows: usize, cols: usize, seed: u64) -> Matrix<R> {
    let mut i = 0u64;
    Matrix::from_fn(rows, cols, |_, _| {
        let v = splitmix64(seed, i);
        i += 1;
        R::from_bits64(v)
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
    use psml_mpc::Fixed64;

    #[test]
    fn device_random_is_deterministic_and_seed_sensitive() {
        let a = device_random::<Fixed64>(5, 5, 1);
        let b = device_random::<Fixed64>(5, 5, 1);
        let c = device_random::<Fixed64>(5, 5, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn device_random_ring_is_uniformish_and_takes_the_bits_verbatim() {
        let r = device_random::<Fixed64>(30, 30, 4);
        let distinct: std::collections::HashSet<_> = r.as_slice().iter().collect();
        assert_eq!(distinct.len(), 900);
        assert_eq!(r[(0, 0)], Fixed64(splitmix64(4, 0)));
        assert_eq!(r[(0, 1)], Fixed64(splitmix64(4, 1)));
    }
}
