//! Element behavior specific to the simulated device.

use psml_mpc::Fixed64;
use psml_tensor::{quantize_f16, Num};

/// A matrix element the simulated GPU can operate on.
///
/// Adds the device-specific behaviors on top of [`Num`]:
/// - [`GpuElement::quantize_tc`]: the rounding a value experiences when fed
///   through a Tensor Core's FP16 input port (identity for ring elements,
///   which the hardware would carry through integer paths);
/// - [`GpuElement::from_random_bits`]: how the device RNG (cuRAND stand-in)
///   materializes a sample from 64 uniform bits.
pub trait GpuElement: Num {
    /// Rounds through binary16 where the real hardware would.
    fn quantize_tc(self) -> Self;

    /// Builds a sample from uniform random bits. Floats map to `[-1, 1)`;
    /// ring elements take the bits verbatim (uniform over the ring).
    fn from_random_bits(bits: u64) -> Self;
}

impl GpuElement for f32 {
    #[inline]
    fn quantize_tc(self) -> Self {
        quantize_f16(self)
    }

    #[inline]
    fn from_random_bits(bits: u64) -> Self {
        // 24 high bits -> [0,1) -> [-1,1).
        let unit = (bits >> 40) as f32 * (1.0 / (1u64 << 24) as f32);
        2.0 * unit - 1.0
    }
}

impl GpuElement for f64 {
    #[inline]
    fn quantize_tc(self) -> Self {
        quantize_f16(self as f32) as f64
    }

    #[inline]
    fn from_random_bits(bits: u64) -> Self {
        let unit = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        2.0 * unit - 1.0
    }
}

impl GpuElement for u64 {
    #[inline]
    fn quantize_tc(self) -> Self {
        self
    }

    #[inline]
    fn from_random_bits(bits: u64) -> Self {
        bits
    }
}

impl GpuElement for Fixed64 {
    #[inline]
    fn quantize_tc(self) -> Self {
        self
    }

    #[inline]
    fn from_random_bits(bits: u64) -> Self {
        Fixed64(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_quantization_loses_precision_gracefully() {
        let x = 1.000_061_f32; // not representable in f16
        let q = x.quantize_tc();
        assert_ne!(q, x);
        assert!((q - x).abs() / x < 2.0f32.powi(-11));
    }

    #[test]
    fn ring_elements_pass_through_unchanged() {
        assert_eq!(0xDEAD_BEEFu64.quantize_tc(), 0xDEAD_BEEF);
        assert_eq!(Fixed64(42).quantize_tc(), Fixed64(42));
    }

    #[test]
    fn random_floats_land_in_unit_ball() {
        for i in 0..1000u64 {
            let bits = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let f = f32::from_random_bits(bits);
            assert!((-1.0..1.0).contains(&f));
            let d = f64::from_random_bits(bits);
            assert!((-1.0..1.0).contains(&d));
        }
    }

    #[test]
    fn random_ring_is_identity_on_bits() {
        assert_eq!(u64::from_random_bits(7), 7);
        assert_eq!(Fixed64::from_random_bits(9), Fixed64(9));
    }
}
