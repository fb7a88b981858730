//! Element trait shared by the float and ring paths.

/// A numeric element type usable in matrices.
///
/// Matrices hold two very different carriers — IEEE floats (`f64`, the
/// plaintext baseline the secure results are checked against; `f32` only
/// for the simulated device's 4-byte element sizes and codec, device and
/// sparse tests) and the wrapping ring `Z_{2^64}` (the SecureML fixed-point
/// ring every share lives in, where exact reconstruction holds). `Num`
/// abstracts exactly the operations both support. **All operations wrap
/// for integer carriers**; this is intentional — additive secret sharing
/// *is* modular arithmetic.
///
/// # Safety
///
/// `Num` is an `unsafe` trait solely because of [`Num::WRAPPING_U64`]: the
/// GEMM kernels trust that promise to reinterpret element slices as `u64`
/// in place, so a false claim is undefined behavior and must not be
/// expressible from safe code. An implementation may set `WRAPPING_U64` to
/// `true` **only** if the type is `#[repr(transparent)]` over `u64` and its
/// `add`/`sub`/`mul`/`neg`/`mul_add` are exactly the wrapping `u64` ring
/// operations. Implementations that leave `WRAPPING_U64` at its default
/// `false` take on no further obligation.
pub unsafe trait Num: Copy + PartialEq + Send + Sync + std::fmt::Debug + 'static {
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Modular / float addition.
    fn add(self, rhs: Self) -> Self;
    /// Modular / float subtraction.
    fn sub(self, rhs: Self) -> Self;
    /// Modular / float multiplication.
    fn mul(self, rhs: Self) -> Self;
    /// Additive inverse.
    fn neg(self) -> Self;
    /// `self * a + b` in one step. Float carriers map to the fused
    /// multiply-add instruction inside the feature-gated GEMM kernels
    /// (single rounding); the ring carrier is exact wrapping arithmetic
    /// either way. Callers that cannot guarantee hardware FMA should
    /// prefer `add`/`mul` — the float fallback goes through libm.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Whether the element equals zero (sparsity test).
    fn is_zero(self) -> bool {
        self == Self::zero()
    }
    /// Set to `true` **only** for types that are `#[repr(transparent)]`
    /// over `u64` and whose `add`/`sub`/`mul`/`neg`/`mul_add` are exactly
    /// the wrapping `u64` ring operations. The GEMM kernels use this
    /// promise to route such carriers through the pinned monomorphic
    /// `u64` micro-kernel, which reinterprets slices in place, so a
    /// false claim is undefined behavior, which is why
    /// implementing `Num` at all requires `unsafe impl` (see the
    /// trait-level safety contract).
    const WRAPPING_U64: bool = false;
    /// Number of bytes of the element's wire representation.
    const BYTES: usize;
    /// The element's bit pattern, widened to 64 bits (wire encoding; only
    /// the low `BYTES * 8` bits are meaningful).
    fn to_bits64(self) -> u64;
    /// Inverse of [`Num::to_bits64`].
    fn from_bits64(bits: u64) -> Self;
}

// SAFETY: WRAPPING_U64 is left false / set truthfully (u64 is trivially
// itself); see the trait-level contract.
unsafe impl Num for f32 {
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
    #[inline]
    fn neg(self) -> Self {
        -self
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
    const BYTES: usize = 4;
    #[inline]
    fn to_bits64(self) -> u64 {
        self.to_bits() as u64
    }
    #[inline]
    fn from_bits64(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
}

// SAFETY: WRAPPING_U64 is left false / set truthfully (u64 is trivially
// itself); see the trait-level contract.
unsafe impl Num for f64 {
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
    #[inline]
    fn neg(self) -> Self {
        -self
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
    const BYTES: usize = 8;
    #[inline]
    fn to_bits64(self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn from_bits64(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

// SAFETY: WRAPPING_U64 is left false / set truthfully (u64 is trivially
// itself); see the trait-level contract.
unsafe impl Num for u64 {
    #[inline]
    fn zero() -> Self {
        0
    }
    #[inline]
    fn one() -> Self {
        1
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self.wrapping_add(rhs)
    }
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.wrapping_sub(rhs)
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self.wrapping_mul(rhs)
    }
    #[inline]
    fn neg(self) -> Self {
        self.wrapping_neg()
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        self.wrapping_mul(a).wrapping_add(b)
    }
    const WRAPPING_U64: bool = true;
    const BYTES: usize = 8;
    #[inline]
    fn to_bits64(self) -> u64 {
        self
    }
    #[inline]
    fn from_bits64(bits: u64) -> Self {
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_wraps_instead_of_panicking() {
        let max = u64::MAX;
        assert_eq!(Num::add(max, 1u64), 0);
        assert_eq!(Num::sub(0u64, 1u64), max);
        assert_eq!(Num::mul(1u64 << 63, 2u64), 0);
        assert_eq!(Num::neg(1u64), max);
        assert_eq!(Num::mul_add(1u64 << 63, 2u64, 7u64), 7);
    }

    #[test]
    fn mul_add_matches_separate_ops_in_ring() {
        for (x, a, b) in [
            (3u64, 5, 7),
            (u64::MAX, u64::MAX, u64::MAX),
            (1 << 40, 1 << 30, 9),
        ] {
            assert_eq!(Num::mul_add(x, a, b), Num::add(Num::mul(x, a), b));
        }
        assert_eq!(Num::mul_add(2.0f32, 3.0, 4.0), 10.0);
        assert_eq!(Num::mul_add(2.0f64, 3.0, 4.0), 10.0);
    }

    #[test]
    fn f32_identities() {
        assert_eq!(<f32 as Num>::zero(), 0.0);
        assert_eq!(<f32 as Num>::one(), 1.0);
        assert_eq!(Num::add(1.5f32, 2.5f32), 4.0);
        assert_eq!(Num::neg(3.0f32), -3.0);
        assert!(Num::is_zero(0.0f32));
        assert!(!Num::is_zero(1.0f32));
    }

    #[test]
    fn neg_is_additive_inverse_in_ring() {
        for x in [0u64, 1, 12345, u64::MAX, 1 << 40] {
            assert_eq!(Num::add(x, Num::neg(x)), 0);
        }
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(<f32 as Num>::BYTES, 4);
        assert_eq!(<f64 as Num>::BYTES, 8);
        assert_eq!(<u64 as Num>::BYTES, 8);
    }

    #[test]
    fn bits_roundtrip() {
        for x in [0.0f32, -1.5, 3.25e-8, f32::MAX] {
            assert_eq!(f32::from_bits64(x.to_bits64()), x);
        }
        for x in [0.0f64, -2.5, 1.7e300] {
            assert_eq!(f64::from_bits64(x.to_bits64()), x);
        }
        for x in [0u64, u64::MAX, 0xDEAD_BEEF] {
            assert_eq!(u64::from_bits64(x.to_bits64()), x);
        }
    }
}
