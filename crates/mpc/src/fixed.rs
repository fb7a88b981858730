//! `Z_{2^64}` fixed-point ring with SecureML's local share truncation.

use crate::ring::{Party, SecureRing};
use psml_parallel::Mt19937;
use psml_tensor::{Matrix, Num};

/// Fractional bits of the fixed-point encoding (SecureML's `l_D = 13`).
pub const SCALE_BITS: u32 = 13;

const SCALE: f64 = (1u64 << SCALE_BITS) as f64;

/// An element of `Z_{2^64}` interpreted as a two's-complement fixed-point
/// number with [`SCALE_BITS`] fractional bits.
///
/// Additive secret sharing over this ring is *exact*: `x = x0 + x1
/// (mod 2^64)` reconstructs perfectly regardless of the shares' magnitude.
/// After a multiplication the product carries `2 * SCALE_BITS` fractional
/// bits; each party locally truncates its share
/// ([`SecureRing::truncate_share`]), which reconstructs to the truncated
/// product up to an error of one unit in the last place with overwhelming
/// probability (SecureML, Theorem 1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct Fixed64(pub u64);

// SAFETY: Fixed64 is `#[repr(transparent)]` over u64 and every `Num` op
// below is the corresponding wrapping u64 ring op, so the WRAPPING_U64
// claim (and hence the pinned u64 micro-kernel reinterpretation) is sound.
unsafe impl Num for Fixed64 {
    #[inline]
    fn zero() -> Self {
        Fixed64(0)
    }
    #[inline]
    fn one() -> Self {
        // The ring's multiplicative structure operates on raw integers; the
        // fixed-point "1.0" is SCALE, but `Num::one` must satisfy
        // one * x == x, so it is the integer 1.
        Fixed64(1)
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Fixed64(self.0.wrapping_add(rhs.0))
    }
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Fixed64(self.0.wrapping_sub(rhs.0))
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Fixed64(self.0.wrapping_mul(rhs.0))
    }
    #[inline]
    fn neg(self) -> Self {
        Fixed64(self.0.wrapping_neg())
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        Fixed64(self.0.wrapping_mul(a.0).wrapping_add(b.0))
    }
    const WRAPPING_U64: bool = true;
    const BYTES: usize = 8;
    #[inline]
    fn to_bits64(self) -> u64 {
        self.0
    }
    #[inline]
    fn from_bits64(bits: u64) -> Self {
        Fixed64(bits)
    }
}

impl SecureRing for Fixed64 {
    /// `round(x * 2^13)` (half away from zero) in two's complement,
    /// without a libm call: adding the largest double below one half,
    /// signed like `y`, then truncating is `f64::round`'s own lowering. A
    /// tie `k + 0.5` sums to the midpoint of `k + 1` and its lower
    /// neighbour and rounds to even, which is `k + 1`; every `y` of
    /// magnitude `2^52` or more is already whole, and the sum rounds back
    /// to it. NaN and out-of-range values saturate as `as i64` does.
    #[inline]
    fn encode(x: f64) -> Self {
        let y = x * SCALE;
        Fixed64(((y + 0.49999999999999994f64.copysign(y)) as i64) as u64)
    }

    /// Interpret as signed and divide by the scale.
    #[inline]
    fn decode(self) -> f64 {
        self.0 as i64 as f64 / SCALE
    }

    /// Uniform over the whole ring, drawn as one [`Mt19937::fill_u64`]
    /// block copy.
    fn random_matrix(rows: usize, cols: usize, rng: &mut Mt19937) -> Matrix<Self> {
        let mut words = vec![0u64; rows * cols];
        rng.fill_u64(&mut words);
        Matrix::from_vec(rows, cols, words.into_iter().map(Fixed64).collect())
    }

    /// SecureML local truncation: P0 computes `z0 >> d`; P1 computes
    /// `-((-z1) >> d)`.
    ///
    /// With P0 holding the mask `r` of a double-scale value `z` (and P1
    /// `z - r`), the two results add to `floor(z / 2^d)` or that plus one,
    /// except when `r` lands in a window of `|z|` masks: `[0, z)` for
    /// `z > 0`, `[2^64 + z, 2^64)` for `z < 0`. There the sum is off by
    /// `-2^(64-d)` (`z > 0`) or `+2^(64-d)` (`z < 0`). Under a uniform mask
    /// the failure probability is therefore exactly `|z| / 2^64`.
    #[inline]
    fn truncate_share(self, party: Party) -> Self {
        match party {
            Party::P0 => Fixed64(self.0 >> SCALE_BITS),
            Party::P1 => Fixed64((self.0.wrapping_neg() >> SCALE_BITS).wrapping_neg()),
        }
    }
}

impl Fixed64 {
    /// Raw ring value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The libm encode `Fixed64::encode` replaced, kept as its oracle.
    fn encode_with_round(x: f64) -> Fixed64 {
        Fixed64(((x * SCALE).round() as i64) as u64)
    }

    /// Scaled values `y = x * 2^13` where rounding is delicate: signed
    /// zeros, ties and their neighbours, the whole-number threshold
    /// `2^52`, the ring's edge `2^63`, NaN and the infinities. `y / SCALE`
    /// is exact, so `encode` sees each `y` again.
    fn encode_edges() -> Vec<f64> {
        let below_half = 0.49999999999999994f64;
        let p52 = (1u64 << 52) as f64;
        let p63 = 2f64.powi(63);
        let mut ys = vec![
            0.0,
            0.5,
            below_half,
            0.5 + f64::EPSILON / 2.0,
            1.5,
            2.5,
            p52 - 0.5,
            p52 - 1.5,
            p52,
            p52 + 1.0,
            2.0 * p52 - 1.0,
            2.0 * p52,
            p63,
            p63 * 2.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
        ];
        ys.extend((0..64).map(|k| k as f64 + 0.5));
        ys.extend((0..64).map(|k| (p52 / 2.0 - 32.0) + k as f64 * 0.5));
        ys.extend((0..64).map(|k| f64::from_bits(p63.to_bits() - 32 + k)));
        let mut both: Vec<f64> = ys.iter().flat_map(|&y| [y, -y]).collect();
        both.push(-f64::NAN);
        both
    }

    #[test]
    fn encode_matches_round_on_the_edges() {
        for y in encode_edges() {
            let x = y / SCALE;
            assert_eq!(Fixed64::encode(x), encode_with_round(x), "y = {y:e}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// 256 cases of 4096 raw bit patterns (every exponent, NaNs and
        /// infinities included) and 2048 values each inside the ring
        /// (`|y| < 2^63`) and inside `±64`: 2.1 million samples.
        #[test]
        fn encode_matches_round_on_a_seeded_sweep(
            bits in prop::collection::vec(any::<u64>(), 4096),
            wide in prop::collection::vec(-1.1e15f64..1.1e15, 2048),
            narrow in prop::collection::vec(-64.0f64..64.0, 2048),
        ) {
            let raw = bits.iter().map(|&b| f64::from_bits(b));
            for x in raw.chain(wide).chain(narrow) {
                prop_assert_eq!(Fixed64::encode(x), encode_with_round(x));
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip_within_half_ulp() {
        for &x in &[0.0, 1.0, -1.0, 3.140625, -2.718125, 1000.5, -0.00012, 42.42] {
            let err = (Fixed64::encode(x).decode() - x).abs();
            assert!(err <= 0.5 / SCALE + 1e-12, "x={x} err={err}");
        }
    }

    #[test]
    fn encoding_is_additive() {
        // encode(a) + encode(b) decodes to ~(a + b) — the property that
        // makes additive sharing meaningful.
        let a = Fixed64::encode(1.75);
        let b = Fixed64::encode(-3.5);
        assert!((a.add(b).decode() - (-1.75)).abs() < 1e-9);
    }

    #[test]
    fn sharing_reconstructs_exactly() {
        let mut rng = Mt19937::new(5);
        for &x in &[0.0, 123.456, -987.654, 1e5, -1e5] {
            let secret = Fixed64::encode(x);
            let mask = Fixed64(rng.next_u64());
            let s0 = mask;
            let s1 = secret.sub(mask);
            assert_eq!(s0.add(s1), secret, "exact ring reconstruction");
        }
    }

    #[test]
    fn product_truncation_recovers_scaled_product() {
        let mut rng = Mt19937::new(17);
        for &(a, b) in &[(1.5, 2.0), (-3.25, 4.5), (0.125, -0.5), (100.0, -0.01), (7.7, 8.8)] {
            let ea = Fixed64::encode(a);
            let eb = Fixed64::encode(b);
            let prod = ea.mul(eb); // scale 2^26
            // Share the product, truncate both shares locally, reconstruct.
            let mask = Fixed64(rng.next_u64());
            let s0 = mask.truncate_share(Party::P0);
            let s1 = prod.sub(mask).truncate_share(Party::P1);
            let rec = s0.add(s1).decode();
            let err = (rec - a * b).abs();
            // Error: encoding (2 ULP worth) + truncation (+-1 ULP).
            assert!(err < 3.0 / SCALE * (1.0 + a.abs().max(b.abs())), "a={a} b={b} rec={rec}");
        }
    }

    #[test]
    fn truncation_on_unshared_values_is_floor_division() {
        // With the zero mask, P0's rule alone must truncate exactly.
        let x = Fixed64::encode(5.0); // 5 * 2^13
        let sq = x.mul(x); // 25 * 2^26
        let t0 = sq.truncate_share(Party::P0);
        let t1 = Fixed64(0).truncate_share(Party::P1);
        assert!((t0.add(t1).decode() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn negative_values_use_twos_complement() {
        let x = Fixed64::encode(-1.0);
        assert_eq!(x.0, (-(SCALE as i64)) as u64);
        assert_eq!(x.decode(), -1.0);
        assert_eq!(x.neg().decode(), 1.0);
    }

    #[test]
    fn num_identities() {
        let x = Fixed64::encode(3.0);
        assert_eq!(x.add(Fixed64::zero()), x);
        assert_eq!(x.mul(Fixed64::one()), x);
        assert_eq!(x.add(x.neg()), Fixed64::zero());
        assert!(Fixed64::zero().is_zero());
    }

    #[test]
    fn random_matrix_is_the_element_draws() {
        // One block copy draws what `next_u64` draws element by element,
        // from an odd offset and across twists.
        let (mut a, mut b) = (Mt19937::new(3), Mt19937::new(3));
        assert_eq!(a.next_u32(), b.next_u32());
        let got = Fixed64::random_matrix(7, 181, &mut a);
        let want = Matrix::from_fn(7, 181, |_, _| Fixed64(b.next_u64()));
        assert_eq!(got, want);
        assert_eq!(a.next_u32(), b.next_u32());
    }

    #[test]
    fn random_fills_full_range() {
        let mut rng = Mt19937::new(23);
        let m = Fixed64::random_matrix(1, 1000, &mut rng);
        let vals: Vec<u64> = m.as_slice().iter().map(|x| x.0).collect();
        // At least one sample in each quarter of the range.
        for q in 0..4u64 {
            let lo = q << 62;
            assert!(
                vals.iter().any(|&v| v >> 62 == q),
                "no sample in quarter starting {lo:#x}"
            );
        }
    }
}
