//! `Z_{2^64}` fixed-point ring with SecureML's local share truncation.

use crate::ring::{Party, PlainMatrix, SecureRing};
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

    /// One pass over the three slices; on CPUs with AVX-512F and DQ eight
    /// words a step (`wide::encode_sub`), otherwise a word at a time.
    fn encode_sub_le(out: &mut [u8], xs: &[f64], mask_le: &[u8]) {
        assert!(
            out.len() == xs.len() * 8 && mask_le.len() == out.len(),
            "encode_sub_le takes one output and one mask word per input"
        );
        #[cfg(target_arch = "x86_64")]
        if wide::available() {
            // SAFETY: the features `available` just detected; `out` and
            // `mask_le` hold `8 * xs.len()` bytes each (asserted above).
            return unsafe { wide::encode_sub::<true>(out.as_mut_ptr(), xs, mask_le.as_ptr()) };
        }
        encode_sub_words(out, xs, mask_le);
    }

    /// [`Fixed64::encode`] of every element, through the conversion
    /// [`SecureRing::encode_sub_le`] runs (with no mask).
    fn encode_matrix(m: &PlainMatrix) -> Matrix<Self> {
        let xs = m.as_slice();
        let mut data = vec![Fixed64(0); xs.len()];
        #[cfg(target_arch = "x86_64")]
        if wide::available() {
            // SAFETY: the features `available` just detected; `data` holds
            // `xs.len()` `Fixed64`s, each a `u64` (`repr(transparent)`)
            // stored as its eight little-endian bytes on x86-64, and the
            // mask pointer is never read when `SUB` is false.
            unsafe { wide::encode_sub::<false>(data.as_mut_ptr().cast(), xs, std::ptr::null()) };
            return Matrix::from_vec(m.rows(), m.cols(), data);
        }
        for (v, &x) in data.iter_mut().zip(xs) {
            *v = Self::encode(x);
        }
        Matrix::from_vec(m.rows(), m.cols(), data)
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

/// The portable [`SecureRing::encode_sub_le`]: a word at a time.
fn encode_sub_words(out: &mut [u8], xs: &[f64], mask_le: &[u8]) {
    for ((o, &x), m) in out.chunks_exact_mut(8).zip(xs).zip(mask_le.chunks_exact(8)) {
        let mask = u64::from_le_bytes(m.try_into().expect("8 bytes"));
        o.copy_from_slice(&Fixed64::encode(x).0.wrapping_sub(mask).to_le_bytes());
    }
}

/// The encode tier for AVX-512F + DQ, written in intrinsics: built for
/// baseline x86-64 or under `target_feature` alone, LLVM leaves the
/// saturating `f64 -> i64` cast scalar, which ran slower than the plain
/// loop.
#[cfg(target_arch = "x86_64")]
mod wide {
    use super::SCALE;
    use std::arch::x86_64::*;

    /// Whether [`encode_sub`] may run on this CPU (std caches the probe).
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
    }

    /// [`super::Fixed64::encode`]'s bits in eight lanes: `y = x * 2^13`,
    /// plus the largest double below one half signed like `y`, truncated
    /// by `vcvttpd2qq`. That instruction gives `i64::MIN` for NaN and for
    /// everything outside `[-2^63, 2^63)`, where `as i64` saturates: so
    /// lanes at or above `2^63` take `i64::MAX` and NaN lanes 0. Below
    /// `-2^63` the instruction's `i64::MIN` is already the saturated value.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn encode8(x: __m512d) -> __m512i {
        let y = _mm512_mul_pd(x, _mm512_set1_pd(SCALE));
        let sign = _mm512_and_si512(_mm512_castpd_si512(y), _mm512_set1_epi64(i64::MIN));
        let half = _mm512_set1_epi64(0.49999999999999994f64.to_bits() as i64);
        let t = _mm512_add_pd(y, _mm512_castsi512_pd(_mm512_or_si512(sign, half)));
        let q = _mm512_cvttpd_epi64(t);
        let high = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(t, _mm512_set1_pd(9_223_372_036_854_775_808.0));
        let q = _mm512_mask_mov_epi64(q, high, _mm512_set1_epi64(i64::MAX));
        _mm512_maskz_mov_epi64(_mm512_cmp_pd_mask::<_CMP_ORD_Q>(t, t), q)
    }

    /// Writes `encode(x) - mask` (`SUB`) or `encode(x)` for each `x` of
    /// `xs` to `out` as little-endian words, eight a step and the tail
    /// under a lane mask, with unaligned loads and stores.
    ///
    /// # Safety
    ///
    /// The CPU has AVX-512F and DQ; `out` is valid for writes of
    /// `8 * xs.len()` bytes and, when `SUB`, `mask` for reads of as many.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn encode_sub<const SUB: bool>(out: *mut u8, xs: &[f64], mask: *const u8) {
        let mut at = 0;
        while at < xs.len() {
            let lanes = (xs.len() - at).min(8);
            let live: __mmask8 = 0xFF >> (8 - lanes);
            // SAFETY: lanes `at..at + lanes` of `xs` are in bounds; the
            // masked-off lanes are not read.
            let x = unsafe { _mm512_maskz_loadu_pd(live, xs.as_ptr().add(at)) };
            let mut q = encode8(x);
            if SUB {
                // SAFETY: `mask` holds `8 * xs.len()` readable bytes (the
                // caller's contract), and only the live words are read.
                let m = unsafe { _mm512_maskz_loadu_epi64(live, mask.add(8 * at).cast()) };
                q = _mm512_sub_epi64(q, m);
            }
            // SAFETY: `out` holds `8 * xs.len()` writable bytes (the
            // caller's contract), and only the live words are written.
            unsafe { _mm512_mask_storeu_epi64(out.add(8 * at).cast(), live, q) };
            at += lanes;
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

    /// `encode(x) - r` a word at a time: the oracle of both
    /// `encode_sub_le` tiers.
    fn encode_sub_oracle(xs: &[f64], mask_le: &[u8]) -> Vec<u8> {
        let masks = mask_le.chunks_exact(8).map(|m| u64::from_le_bytes(m.try_into().unwrap()));
        let words = xs.iter().zip(masks).map(|(&x, r)| Fixed64::encode(x).sub(Fixed64(r)).0);
        words.flat_map(u64::to_le_bytes).collect()
    }

    /// Both tiers of `encode_sub_le` (the dispatched one and the word loop)
    /// and `encode_matrix` on `xs`, against the scalar encode, with the
    /// output and mask bytes at odd offsets from their buffers' starts.
    fn check_encodes(xs: &[f64], rng: &mut Mt19937) {
        let n = 8 * xs.len();
        let mut mask = vec![0u8; n + 3];
        rng.fill_le_bytes(&mut mask[..n]);
        mask.rotate_right(3);
        let mask = &mask[3..];
        let want = encode_sub_oracle(xs, mask);
        let mut out = vec![0u8; n + 1];
        Fixed64::encode_sub_le(&mut out[1..], xs, mask);
        assert!(out[1..] == want[..], "dispatched tier, {} inputs: {xs:?}", xs.len());
        encode_sub_words(&mut out[1..], xs, mask);
        assert!(out[1..] == want[..], "word loop, {} inputs: {xs:?}", xs.len());
        let m = PlainMatrix::from_vec(1, xs.len(), xs.to_vec());
        let encoded = Fixed64::encode_matrix(&m);
        let scalar: Vec<u64> = xs.iter().map(|&x| Fixed64::encode(x).0).collect();
        let bits: Vec<u64> = encoded.as_slice().iter().map(|v| v.0).collect();
        assert_eq!(bits, scalar, "encode_matrix, {} inputs: {xs:?}", xs.len());
    }

    /// The edges and random bit patterns in windows of every length
    /// 0..=33 (every tail of an eight-lane step), from every start.
    #[test]
    fn encode_sub_le_matches_the_scalar_encode_on_every_tail() {
        let mut rng = Mt19937::new(41);
        let mut xs: Vec<f64> = encode_edges().into_iter().map(|y| y / SCALE).collect();
        xs.extend((0..256).map(|_| f64::from_bits(rng.next_u64())));
        for len in 0..=33 {
            for start in 0..xs.len() - len {
                check_encodes(&xs[start..start + len], &mut rng);
            }
        }
    }

    #[test]
    #[should_panic(expected = "one output and one mask word per input")]
    fn encode_sub_le_refuses_a_short_mask() {
        Fixed64::encode_sub_le(&mut [0u8; 16], &[1.0, 2.0], &[0u8; 8]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Random bit patterns, values inside the ring and inside `±64`,
        /// at random lengths.
        #[test]
        fn encode_sub_le_matches_the_scalar_encode_on_a_seeded_sweep(
            bits in prop::collection::vec(any::<u64>(), 0..300),
            wide in prop::collection::vec(-1.1e15f64..1.1e15, 0..300),
            narrow in prop::collection::vec(-64.0f64..64.0, 0..300),
            seed in any::<u32>(),
        ) {
            let mut rng = Mt19937::new(seed);
            check_encodes(&bits.iter().map(|&b| f64::from_bits(b)).collect::<Vec<_>>(), &mut rng);
            check_encodes(&wide, &mut rng);
            check_encodes(&narrow, &mut rng);
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
