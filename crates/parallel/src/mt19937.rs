//! Mersenne Twister 19937 (32-bit), the PRNG the paper adopts from the
//! C++11 `<random>` library for thread-safe parallel generation.
//!
//! This is a from-scratch implementation of Matsumoto & Nishimura's
//! MT19937 with the standard `init_genrand` seeding, verified against the
//! reference outputs of `std::mt19937` (default seed 5489).

const N: usize = 624;
const M: usize = 397;
const MATRIX_A: u32 = 0x9908_B0DF;
const UPPER_MASK: u32 = 0x8000_0000;
const LOWER_MASK: u32 = 0x7FFF_FFFF;

/// The default seed of `std::mt19937`.
pub const DEFAULT_SEED: u32 = 5489;

/// A 32-bit Mersenne Twister generator with period 2^19937 - 1.
#[derive(Clone)]
pub struct Mt19937 {
    state: [u32; N],
    index: usize,
}

impl std::fmt::Debug for Mt19937 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mt19937").field("index", &self.index).finish()
    }
}

impl Default for Mt19937 {
    fn default() -> Self {
        Mt19937::new(DEFAULT_SEED)
    }
}

impl Mt19937 {
    /// Creates a generator from a 32-bit seed using the reference
    /// `init_genrand` recurrence.
    pub fn new(seed: u32) -> Self {
        let mut state = [0u32; N];
        state[0] = seed;
        for i in 1..N {
            state[i] = 1_812_433_253u32
                .wrapping_mul(state[i - 1] ^ (state[i - 1] >> 30))
                .wrapping_add(i as u32);
        }
        Mt19937 { state, index: N }
    }

    /// Creates a generator from a multi-word key using the reference
    /// `init_by_array` seeding (Matsumoto & Nishimura, mt19937ar).
    pub fn from_key(key: &[u32]) -> Self {
        let mut mt = Mt19937::new(19_650_218);
        let mut i = 1usize;
        let mut j = 0usize;
        let mut k = N.max(key.len());
        while k > 0 {
            mt.state[i] = (mt.state[i]
                ^ (mt.state[i - 1] ^ (mt.state[i - 1] >> 30)).wrapping_mul(1_664_525))
            .wrapping_add(key[j])
            .wrapping_add(j as u32);
            i += 1;
            j += 1;
            if i >= N {
                mt.state[0] = mt.state[N - 1];
                i = 1;
            }
            if j >= key.len() {
                j = 0;
            }
            k -= 1;
        }
        k = N - 1;
        while k > 0 {
            mt.state[i] = (mt.state[i]
                ^ (mt.state[i - 1] ^ (mt.state[i - 1] >> 30)).wrapping_mul(1_566_083_941))
            .wrapping_sub(i as u32);
            i += 1;
            if i >= N {
                mt.state[0] = mt.state[N - 1];
                i = 1;
            }
            k -= 1;
        }
        mt.state[0] = 0x8000_0000;
        mt.index = N;
        mt
    }

    /// Creates a generator for stream `stream` of master seed `master`.
    ///
    /// The `(master, stream)` pair is folded into an `init_by_array` key,
    /// so any two distinct pairs produce statistically independent
    /// sequences. This is the counter-based derivation the provisioning
    /// pipeline uses: share material for triple `seq` comes from
    /// `from_stream(master, seq)`, which makes the generated values
    /// independent of *generation order* — prefetching triples early or
    /// out of order cannot perturb them.
    pub fn from_stream(master: u64, stream: u64) -> Self {
        Self::from_key(&[
            master as u32,
            (master >> 32) as u32,
            stream as u32,
            (stream >> 32) as u32,
        ])
    }

    /// Regenerates the state block (the "twist").
    fn twist(&mut self) {
        for i in 0..N {
            let x = (self.state[i] & UPPER_MASK) | (self.state[(i + 1) % N] & LOWER_MASK);
            let mut x_a = x >> 1;
            if x & 1 != 0 {
                x_a ^= MATRIX_A;
            }
            self.state[i] = self.state[(i + M) % N] ^ x_a;
        }
        self.index = 0;
    }

    /// Next 32-bit output (tempered).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        if self.index >= N {
            self.twist();
        }
        let mut y = self.state[self.index];
        self.index += 1;
        y ^= y >> 11;
        y ^= (y << 7) & 0x9D2C_5680;
        y ^= (y << 15) & 0xEFC6_0000;
        y ^= y >> 18;
        y
    }

    /// Next 64-bit value assembled from two 32-bit outputs (high word first).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Uniform `f32` in `[0, 1)` using the top 24 bits.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform `f64` in `[0, 1)` using 53 bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        let high = (self.next_u32() >> 5) as u64; // 27 bits
        let low = (self.next_u32() >> 6) as u64; // 26 bits
        ((high << 26) | low) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[lo, hi)`.
    #[inline]
    pub fn gen_range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + self.next_f32() * (hi - lo)
    }

    /// Fills a slice with uniform values in `[lo, hi)`.
    pub fn fill_f32(&mut self, out: &mut [f32], lo: f32, hi: f32) {
        for v in out {
            *v = self.gen_range_f32(lo, hi);
        }
    }

    /// Fills a slice with raw 64-bit outputs (used for ring shares).
    pub fn fill_u64(&mut self, out: &mut [u64]) {
        for v in out {
            *v = self.next_u64();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference outputs of `std::mt19937` with the default seed 5489.
    #[test]
    fn matches_cpp_std_mt19937_reference_vector() {
        let mut rng = Mt19937::default();
        let expected: [u32; 10] = [
            3_499_211_612,
            581_869_302,
            3_890_346_734,
            3_586_334_585,
            545_404_204,
            4_161_255_391,
            3_922_919_429,
            949_333_985,
            2_715_962_298,
            1_323_567_403,
        ];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(rng.next_u32(), e, "mismatch at output {i}");
        }
    }

    /// The C++ standard (26.5.3.2) pins the 10000th consecutive invocation
    /// of a default-constructed mt19937 to 4123659995.
    #[test]
    fn ten_thousandth_output_matches_standard() {
        let mut rng = Mt19937::default();
        let mut last = 0;
        for _ in 0..10_000 {
            last = rng.next_u32();
        }
        assert_eq!(last, 4_123_659_995);
    }

    /// The mt19937ar reference (`mt19937ar.out`) pins `init_by_array`
    /// with key `{0x123, 0x234, 0x345, 0x456}` to these first outputs.
    #[test]
    fn init_by_array_matches_reference_vector() {
        let mut rng = Mt19937::from_key(&[0x123, 0x234, 0x345, 0x456]);
        let expected: [u32; 5] = [
            1_067_595_299,
            955_945_823,
            477_289_528,
            4_107_218_783,
            4_228_976_476,
        ];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(rng.next_u32(), e, "mismatch at output {i}");
        }
        // And the key layout of from_stream is (master_lo, master_hi,
        // stream_lo, stream_hi).
        let mut s = Mt19937::from_stream(0x0000_0234_0000_0123, 0x0000_0456_0000_0345);
        assert_eq!(s.next_u32(), 1_067_595_299);
    }

    #[test]
    fn streams_differ_in_master_and_stream_index() {
        let base: Vec<u32> = (0..16)
            .scan(Mt19937::from_stream(42, 0), |r, _| Some(r.next_u32()))
            .collect();
        let other_stream: Vec<u32> = (0..16)
            .scan(Mt19937::from_stream(42, 1), |r, _| Some(r.next_u32()))
            .collect();
        let other_master: Vec<u32> = (0..16)
            .scan(Mt19937::from_stream(43, 0), |r, _| Some(r.next_u32()))
            .collect();
        assert_ne!(base, other_stream);
        assert_ne!(base, other_master);
        assert_ne!(other_stream, other_master);
    }

    #[test]
    fn different_seeds_different_streams() {
        let mut a = Mt19937::new(1);
        let mut b = Mt19937::new(2);
        let va: Vec<u32> = (0..16).map(|_| a.next_u32()).collect();
        let vb: Vec<u32> = (0..16).map(|_| b.next_u32()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn floats_in_unit_interval() {
        let mut rng = Mt19937::new(99);
        for _ in 0..10_000 {
            let f = rng.next_f32();
            assert!((0.0..1.0).contains(&f));
            let d = rng.next_f64();
            assert!((0.0..1.0).contains(&d));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = Mt19937::new(7);
        for _ in 0..10_000 {
            let v = rng.gen_range_f32(-2.5, 3.5);
            assert!((-2.5..3.5).contains(&v));
        }
    }

    #[test]
    fn next_u64_combines_two_outputs_high_first() {
        let mut a = Mt19937::new(11);
        let mut b = Mt19937::new(11);
        let hi = b.next_u32() as u64;
        let lo = b.next_u32() as u64;
        assert_eq!(a.next_u64(), (hi << 32) | lo);
    }

    #[test]
    fn mean_is_roughly_uniform() {
        let mut rng = Mt19937::new(12345);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }
}
