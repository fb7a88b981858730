//! Mersenne Twister 19937 (32-bit), the PRNG the paper adopts from the
//! C++11 `<random>` library for thread-safe parallel generation.
//!
//! This is a from-scratch implementation of Matsumoto & Nishimura's
//! MT19937 with the standard `init_genrand` seeding, verified against the
//! reference outputs of `std::mt19937` (default seed 5489).
//!
//! It generates a block at a time: each twist regenerates the 624-word
//! state in three index ranges (no `%`, a branchless `MATRIX_A` mix) and
//! tempers the whole block into an output buffer, so a draw is one load
//! and [`Mt19937::fill_u64`] copies word pairs straight out of the block.
//! The loops are plain Rust; built for baseline x86-64, LLVM vectorises
//! them to SSE2 only. So the twist and the block copy each have a twin
//! compiled for AVX-512 (`twist_wide`, `fill_wide`) that runs the same
//! loop body on zmm registers, taken when `is_x86_feature_detected!`
//! reports `avx512f`, `avx512bw`, `avx512vl` and `avx512dq` (std caches
//! the probe; there is no option to set). The calls into the twins are the
//! only `unsafe` in this module. Either way the stream is the reference
//! generator's, word for word: the test module keeps the
//! one-word-at-a-time generator and the original `init_by_array` loop as
//! oracles, and calls each twin directly against its scalar body.
//!
//! Seeding ([`Mt19937::from_key`], behind every counter stream) starts
//! from `init_genrand(19650218)`, a fixed state, so that state is a
//! compile-time table, and each mixing step carries the word it just
//! wrote in a local instead of reloading it.

const N: usize = 624;
const M: usize = 397;
const MATRIX_A: u32 = 0x9908_B0DF;
const UPPER_MASK: u32 = 0x8000_0000;
const LOWER_MASK: u32 = 0x7FFF_FFFF;

/// The default seed of `std::mt19937`.
pub const DEFAULT_SEED: u32 = 5489;

/// The reference `init_genrand` recurrence: the state a 32-bit seed
/// starts from.
const fn init_genrand(seed: u32) -> [u32; N] {
    let mut state = [0u32; N];
    state[0] = seed;
    let mut i = 1;
    while i < N {
        let prev = state[i - 1];
        state[i] = 1_812_433_253u32.wrapping_mul(prev ^ (prev >> 30)).wrapping_add(i as u32);
        i += 1;
    }
    state
}

/// Where `init_by_array` starts for every key: `init_genrand(19650218)`.
const KEY_BASE: [u32; N] = init_genrand(19_650_218);

/// A 32-bit Mersenne Twister generator with period 2^19937 - 1.
#[derive(Clone)]
pub struct Mt19937 {
    /// The untempered state block the twist recurrence runs on.
    state: [u32; N],
    /// `state` tempered: the outputs of the current block.
    block: [u32; N],
    /// Next output's position in `block`; `N` once the block is spent.
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

/// Whether the AVX-512 twins may run on this CPU.
#[cfg(target_arch = "x86_64")]
fn wide() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512bw")
        && std::arch::is_x86_feature_detected!("avx512vl")
        && std::arch::is_x86_feature_detected!("avx512dq")
}

impl Mt19937 {
    /// A generator about to twist `state`.
    fn from_state(state: [u32; N]) -> Self {
        Mt19937 {
            state,
            block: [0; N],
            index: N,
        }
    }

    /// Creates a generator from a 32-bit seed using the reference
    /// `init_genrand` recurrence.
    pub fn new(seed: u32) -> Self {
        Self::from_state(init_genrand(seed))
    }

    /// Creates a generator from a multi-word key using the reference
    /// `init_by_array` seeding (Matsumoto & Nishimura, mt19937ar).
    ///
    /// Each step mixes word `i` with the word the step before wrote (the
    /// reference reloads it as word `i - 1`, or after a wrap to `i = 1` as
    /// word 0, which it sets to word `N - 1` for that purpose): `prev`
    /// carries it, so the serial chain is one load and one store per word,
    /// and word 0 is written once, at the end.
    ///
    /// # Panics
    ///
    /// If `key` is empty.
    pub fn from_key(key: &[u32]) -> Self {
        let mut state = KEY_BASE;
        let mut prev = state[0];
        let mut i = 1usize;
        let mut j = 0usize;
        for _ in 0..N.max(key.len()) {
            prev = (state[i] ^ (prev ^ (prev >> 30)).wrapping_mul(1_664_525))
                .wrapping_add(key[j])
                .wrapping_add(j as u32);
            state[i] = prev;
            i += 1;
            j += 1;
            if i >= N {
                i = 1;
            }
            if j >= key.len() {
                j = 0;
            }
        }
        for _ in 1..N {
            prev = (state[i] ^ (prev ^ (prev >> 30)).wrapping_mul(1_566_083_941))
                .wrapping_sub(i as u32);
            state[i] = prev;
            i += 1;
            if i >= N {
                i = 1;
            }
        }
        state[0] = 0x8000_0000;
        Self::from_state(state)
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

    /// Regenerates the state block (the "twist") and tempers it into
    /// `block`, on the widest tier this CPU has.
    fn twist(&mut self) {
        #[cfg(target_arch = "x86_64")]
        if wide() {
            // SAFETY: `twist_wide` is safe code whose only requirement is
            // the AVX-512 features `wide` just detected.
            return unsafe { self.twist_wide() };
        }
        self.twist_words();
    }

    /// [`Mt19937::twist_words`] compiled for AVX-512.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512dq")]
    fn twist_wide(&mut self) {
        self.twist_words();
    }

    /// The twist and temper loops.
    ///
    /// Word `i` mixes words `i` and `i + 1` with word `i + M`, indices mod
    /// `N`. The three ranges below spell the wrap-around out, each with
    /// constant offsets: `i + M` in range, `i + M - N` (a word this twist
    /// already rewrote), and the last word, whose `i + 1` is the new word 0.
    #[inline(always)]
    fn twist_words(&mut self) {
        #[inline(always)]
        fn mix(cur: u32, next: u32, far: u32) -> u32 {
            let x = (cur & UPPER_MASK) | (next & LOWER_MASK);
            far ^ (x >> 1) ^ ((x & 1).wrapping_neg() & MATRIX_A)
        }
        let mt = &mut self.state;
        for i in 0..N - M {
            mt[i] = mix(mt[i], mt[i + 1], mt[i + M]);
        }
        for i in N - M..N - 1 {
            mt[i] = mix(mt[i], mt[i + 1], mt[i + M - N]);
        }
        mt[N - 1] = mix(mt[N - 1], mt[0], mt[M - 1]);
        for (out, &word) in self.block.iter_mut().zip(mt.iter()) {
            let mut y = word;
            y ^= y >> 11;
            y ^= (y << 7) & 0x9D2C_5680;
            y ^= (y << 15) & 0xEFC6_0000;
            y ^= y >> 18;
            *out = y;
        }
        self.index = 0;
    }

    /// Next 32-bit output (tempered).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        if self.index >= N {
            self.twist();
        }
        let y = self.block[self.index];
        self.index += 1;
        y
    }

    /// Next 64-bit value assembled from two 32-bit outputs (high word first).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Uniform `f64` in `[0, 1)` using 53 bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        let high = (self.next_u32() >> 5) as u64; // 27 bits
        let low = (self.next_u32() >> 6) as u64; // 26 bits
        ((high << 26) | low) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fills a slice with raw 64-bit outputs (used for ring shares): the
    /// values `next_u64` would return, copied pair by pair out of each
    /// block.
    pub fn fill_u64(&mut self, out: &mut [u64]) {
        self.fill(out, |v, w| *v = w);
    }

    /// Writes the words [`Mt19937::fill_u64`] would return into `out`,
    /// eight little-endian bytes each: a frame payload drawn in place.
    ///
    /// # Panics
    ///
    /// If `out.len()` is not a multiple of 8.
    pub fn fill_le_bytes(&mut self, out: &mut [u8]) {
        let (words, rest) = out.as_chunks_mut::<8>();
        assert!(rest.is_empty(), "fill_le_bytes writes whole 64-bit words");
        self.fill(words, |v, w| *v = w.to_le_bytes());
    }

    /// Puts one 64-bit draw into each element of `out`, on the widest tier
    /// this CPU has.
    #[inline(always)]
    fn fill<T>(&mut self, out: &mut [T], put: impl Fn(&mut T, u64)) {
        #[cfg(target_arch = "x86_64")]
        if wide() {
            // SAFETY: `fill_wide` is safe code whose only requirement is
            // the AVX-512 features `wide` just detected.
            return unsafe { self.fill_wide(out, put) };
        }
        self.fill_words(out, put);
    }

    /// [`Mt19937::fill_words`] (its twists included) compiled for AVX-512.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512dq")]
    fn fill_wide<T>(&mut self, out: &mut [T], put: impl Fn(&mut T, u64)) {
        self.fill_words(out, put);
    }

    /// The block copy: each element gets the next pair of outputs, high
    /// word first, twisting as blocks run out.
    #[inline(always)]
    fn fill_words<T>(&mut self, mut out: &mut [T], put: impl Fn(&mut T, u64)) {
        while !out.is_empty() {
            if self.index == N - 1 {
                // One word left: this pair straddles the twist.
                let high = self.block[N - 1] as u64;
                self.twist_words();
                put(&mut out[0], (high << 32) | self.block[0] as u64);
                self.index = 1;
                out = &mut out[1..];
                continue;
            }
            if self.index >= N {
                self.twist_words();
            }
            let words = &self.block[self.index..];
            let (head, rest) = out.split_at_mut((words.len() / 2).min(out.len()));
            for (v, pair) in head.iter_mut().zip(words.chunks_exact(2)) {
                put(v, ((pair[0] as u64) << 32) | pair[1] as u64);
            }
            self.index += 2 * head.len();
            out = rest;
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
            let d = rng.next_f64();
            assert!((0.0..1.0).contains(&d));
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

    use proptest::prelude::*;

    /// The generator as it was before block generation, kept as its
    /// oracle: the twist takes `% N` twice per word and branches on its low
    /// bit, and every draw checks the index and tempers one word. Seeding
    /// did not change, so an oracle starts from a fresh generator's state.
    struct Oracle {
        state: [u32; N],
        index: usize,
    }

    impl Oracle {
        fn of(rng: &Mt19937) -> Self {
            Oracle {
                state: rng.state,
                index: rng.index,
            }
        }

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

        fn next_u32(&mut self) -> u32 {
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

        fn next_u64(&mut self) -> u64 {
            ((self.next_u32() as u64) << 32) | self.next_u32() as u64
        }

        fn next_f64(&mut self) -> f64 {
            let high = (self.next_u32() >> 5) as u64;
            let low = (self.next_u32() >> 6) as u64;
            ((high << 26) | low) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        fn fill_u64(&mut self, out: &mut [u64]) {
            for v in out {
                *v = self.next_u64();
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every call returns the oracle's values, from `new` seeds and
        /// `from_stream` keys alike: `skip` single words put the calls at
        /// odd and even offsets anywhere in a block, and fills of up to
        /// 2,000 pairs cross one or more twists.
        #[test]
        fn block_generator_matches_the_scalar_oracle(
            (from_stream, master, stream) in (any::<bool>(), any::<u64>(), any::<u64>()),
            skip in 0usize..1300,
            calls in prop::collection::vec((0u8..4, 0usize..2001), 1..12),
        ) {
            let mut rng = if from_stream {
                Mt19937::from_stream(master, stream)
            } else {
                Mt19937::new(master as u32)
            };
            let mut oracle = Oracle::of(&rng);
            for _ in 0..skip {
                prop_assert_eq!(rng.next_u32(), oracle.next_u32());
            }
            for (call, len) in calls {
                match call {
                    0 => prop_assert_eq!(rng.next_u32(), oracle.next_u32()),
                    1 => prop_assert_eq!(rng.next_u64(), oracle.next_u64()),
                    2 => prop_assert_eq!(rng.next_f64().to_bits(), oracle.next_f64().to_bits()),
                    _ => {
                        let (mut got, mut want) = (vec![0u64; len], vec![0u64; len]);
                        rng.fill_u64(&mut got);
                        oracle.fill_u64(&mut want);
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(rng.index, oracle.index);
            }
        }
    }

    /// `init_by_array` as mt19937ar writes it, kept as the oracle of
    /// [`Mt19937::from_key`]: it starts from a generator seeded at run
    /// time and reloads word `i - 1` at every step.
    fn init_by_array_oracle(key: &[u32]) -> [u32; N] {
        let mut mt = Mt19937::new(19_650_218).state;
        let mut i = 1usize;
        let mut j = 0usize;
        let mut k = N.max(key.len());
        while k > 0 {
            mt[i] = (mt[i] ^ (mt[i - 1] ^ (mt[i - 1] >> 30)).wrapping_mul(1_664_525))
                .wrapping_add(key[j])
                .wrapping_add(j as u32);
            i += 1;
            j += 1;
            if i >= N {
                mt[0] = mt[N - 1];
                i = 1;
            }
            if j >= key.len() {
                j = 0;
            }
            k -= 1;
        }
        k = N - 1;
        while k > 0 {
            mt[i] = (mt[i] ^ (mt[i - 1] ^ (mt[i - 1] >> 30)).wrapping_mul(1_566_083_941))
                .wrapping_sub(i as u32);
            i += 1;
            if i >= N {
                mt[0] = mt[N - 1];
                i = 1;
            }
            k -= 1;
        }
        mt[0] = 0x8000_0000;
        mt
    }

    /// Keys that reach past `N`, which stay on their last key index when
    /// the state index wraps, at every length around the wrap.
    #[test]
    fn from_key_matches_the_oracle_around_the_wrap() {
        for len in (1..=4).chain(N - 2..=N + 2).chain([2 * N - 1, 2 * N, 2 * N + 1]) {
            let key: Vec<u32> =
                (0..len as u32).map(|w| w.wrapping_mul(0x9E37_79B9) ^ 0x5A5A).collect();
            assert_eq!(Mt19937::from_key(&key).state, init_by_array_oracle(&key), "len {len}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Whole seeded states, for random keys of 1 to 700 words (past
        /// `N`, where the first loop runs `key.len()` steps) and random
        /// `from_stream` pairs.
        #[test]
        fn from_key_matches_the_init_by_array_oracle(
            key in prop::collection::vec(any::<u32>(), 1..701),
            (master, stream) in (any::<u64>(), any::<u64>()),
        ) {
            prop_assert_eq!(Mt19937::from_key(&key).state, init_by_array_oracle(&key));
            let pair = [master as u32, (master >> 32) as u32, stream as u32, (stream >> 32) as u32];
            let streamed = Mt19937::from_stream(master, stream).state;
            prop_assert_eq!(streamed, init_by_array_oracle(&pair));
        }
    }

    /// The AVX-512 twins against the scalar bodies they compile, called
    /// directly: the dispatched calls above reach only the twins on an
    /// AVX-512 host. A host without AVX-512 has no twin to compare.
    #[cfg(target_arch = "x86_64")]
    mod wide_twins {
        use super::super::*;
        use proptest::prelude::*;

        /// Both tiers' block copy, into `u64`s and into little-endian bytes.
        fn fills(rng: &mut Mt19937, len: usize, wide: bool) -> (Vec<u64>, Vec<u8>) {
            let (mut words, mut bytes) = (vec![0u64; len], vec![0u8; 8 * len + 1]);
            let put_bytes = |v: &mut [u8; 8], w: u64| *v = w.to_le_bytes();
            // Bytes land from an odd address, as a frame's payload does.
            let (chunks, _) = bytes[1..].as_chunks_mut::<8>();
            if wide {
                // SAFETY: only called after `super::wide()` held.
                unsafe {
                    rng.fill_wide(&mut words, |v, w| *v = w);
                    rng.fill_wide(chunks, put_bytes);
                }
            } else {
                rng.fill_words(&mut words, |v, w| *v = w);
                rng.fill_words(chunks, put_bytes);
            }
            bytes.remove(0);
            (words, bytes)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// From `skip` single words into the stream (odd and even
            /// offsets, up to two blocks in), runs of twists and of fills
            /// up to 1,300 words (across one or more block boundaries)
            /// give the same words, bytes, states and indices on both
            /// tiers.
            #[test]
            fn wide_twist_and_fill_match_the_scalar_bodies(
                (master, stream) in (any::<u64>(), any::<u64>()),
                skip in 0usize..1300,
                calls in prop::collection::vec((any::<bool>(), 0usize..1301), 1..8),
            ) {
                if !super::super::wide() {
                    return;
                }
                let mut scalar = Mt19937::from_stream(master, stream);
                for _ in 0..skip {
                    scalar.next_u32();
                }
                let mut wide = scalar.clone();
                for (twist, len) in calls {
                    if twist {
                        scalar.twist_words();
                        // SAFETY: `wide()` held above.
                        unsafe { wide.twist_wide() };
                    } else {
                        let want = fills(&mut scalar, len, false);
                        prop_assert_eq!(fills(&mut wide, len, true), want);
                    }
                    prop_assert_eq!(wide.state, scalar.state);
                    prop_assert_eq!(wide.block, scalar.block);
                    prop_assert_eq!(wide.index, scalar.index);
                }
            }
        }
    }

    /// `fill_le_bytes` writes `fill_u64`'s words, little-endian.
    #[test]
    fn le_bytes_are_the_filled_words() {
        let (mut a, mut b) = (Mt19937::new(77), Mt19937::new(77));
        a.next_u32();
        b.next_u32();
        let mut words = vec![0u64; 1000];
        let mut bytes = vec![0u8; 8000];
        a.fill_u64(&mut words);
        b.fill_le_bytes(&mut bytes);
        let read: Vec<u64> =
            bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect();
        assert_eq!(read, words);
        assert_eq!(a.next_u32(), b.next_u32());
    }

    #[test]
    #[should_panic(expected = "whole 64-bit words")]
    fn le_bytes_refuse_a_partial_word() {
        Mt19937::new(1).fill_le_bytes(&mut [0u8; 12]);
    }

    #[test]
    fn mean_is_roughly_uniform() {
        let mut rng = Mt19937::new(12345);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }
}
