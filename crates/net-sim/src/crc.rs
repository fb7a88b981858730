//! The frame checksum: CRC-32 (IEEE 802.3, reflected polynomial
//! `0xEDB88320`), computed by one of three tiers.
//!
//! - **Table walk** (`update_table`): one byte per iteration through a
//!   256-entry table built at compile time. The portable path, and the
//!   finisher for whatever a folded tier leaves (< 16 bytes).
//! - **xmm folding** (`fold::update_folded`, x86-64 only): four 128-bit
//!   accumulators folded 64 bytes ahead per iteration (PCLMULQDQ), merged
//!   and folded 16 bytes ahead, then reduced 128 → 64 → 32 bits with a
//!   Barrett step.
//! - **zmm folding** (`fold::update_folded_wide`, x86-64 only): four
//!   512-bit accumulators — sixteen 128-bit lanes — folded 256 bytes ahead
//!   per iteration (VPCLMULQDQ on `zmm`), merged 64 bytes apart into one,
//!   folded 64 bytes ahead while whole blocks remain, and its four lanes
//!   folded into one. The xmm tier's 16-byte loop and Barrett step finish.
//!
//! What selects them: `crc32_update` takes the zmm tier for inputs of at
//! least 256 bytes (`fold::WIDE_MIN_BYTES`) when `is_x86_feature_detected!`
//! reports `vpclmulqdq` and `avx512f` (besides `pclmulqdq` and `sse4.1`),
//! the xmm tier for at least 64 bytes (`fold::MIN_BYTES`) on `pclmulqdq`
//! and `sse4.1`, and the table walk otherwise. std caches the probe. There
//! is no option to set.
//!
//! The folding constants. Folding a 128-bit lane `D` bits ahead multiplies
//! its low half by `x^(D+32) mod P` and its high half by `x^(D-32) mod P`
//! (the extra ±32 accounts for the 32-bit register inside the 64-bit
//! halves). Each constant is `x^n mod P` over the normal-order polynomial
//! `0x1_04C1_1DB7`, bit-reflected in 32 bits and shifted left by one — the
//! form `_mm_clmulepi64_si128` multiplies in the reflected domain. That
//! rule reproduces zlib-ng's and crc32fast's K1–K5 exactly, and gives the
//! rest:
//!
//! | `D` (bits) | use                          | low key      | high key     |
//! |-----------:|------------------------------|--------------|--------------|
//! |       2048 | zmm: 256 bytes ahead          | `x^2080`     | `x^2016`     |
//! |        512 | both: 64 bytes ahead (K1/K2) | `x^544`      | `x^480`      |
//! |        384 | zmm lane 0 onto lane 3       | `x^416`      | `x^352`      |
//! |        256 | zmm lane 1 onto lane 3       | `x^288`      | `x^224`      |
//! |        128 | 16 bytes ahead (K3/K4)       | `x^160`      | `x^96`       |
//!
//! K5 (`x^64`) takes 96 bits to 64, and the Barrett pair (`P`, `x^64 / P`)
//! 64 to 32.
//!
//! Why the bytes cannot differ: every tier computes the remainder of the
//! same polynomial division — folding only replaces "shift in one byte,
//! reduce" by "multiply by `x^n mod P`, add", which is the same value
//! modulo `P`. Each tier takes the raw CRC register and returns the raw
//! register, so they chain in any order; the unit tests call each tier
//! directly against a bit-at-a-time reference with no table at every
//! length 0..=1024 and at random lengths up to 100 KB from unaligned
//! offsets, and `tests/golden/wire_frames.txt` pins the framed bytes.
//!
//! The calls into the two folded functions are the only `unsafe` blocks in
//! this crate (psml-lint `UNSAFE_MODULES`: `net-sim::crc`), each directly
//! after its feature test. The folded functions themselves are safe code:
//! blocks are loaded by value from `split_at` slices, no pointers.

/// Byte-at-a-time lookup table for the reflected IEEE polynomial.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Table tier: feeds `bytes` into the raw register one byte at a time.
fn update_table(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state = (state >> 8) ^ TABLE[((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

#[cfg(target_arch = "x86_64")]
mod fold {
    use std::arch::x86_64::{
        __m128i, __m512i, _mm512_clmulepi64_epi128, _mm512_extracti32x4_epi32, _mm512_set_epi64,
        _mm512_ternarylogic_epi64, _mm512_xor_si512, _mm_and_si128, _mm_clmulepi64_si128,
        _mm_cvtsi32_si128, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128,
        _mm_xor_si128,
    };

    // Folding constants for the reflected IEEE polynomial: `x^n mod P`,
    // bit-reflected, shifted left by one (module doc: the derivation).
    /// Fold 256 bytes ahead, low half: `x^(16*128+32) mod P`.
    const K2080: i64 = 0x1_1542_778a;
    /// Fold 256 bytes ahead, high half: `x^(16*128-32) mod P`.
    const K2016: i64 = 0x1_322d_1430;
    /// Fold 64 bytes ahead, low half: `x^(4*128+32) mod P`.
    const K1: i64 = 0x1_5444_2bd4;
    /// Fold 64 bytes ahead, high half: `x^(4*128-32) mod P`.
    const K2: i64 = 0x1_c6e4_1596;
    /// Fold 48 bytes ahead, low half: `x^(3*128+32) mod P`.
    const K416: i64 = 0x3db1_ecdc;
    /// Fold 48 bytes ahead, high half: `x^(3*128-32) mod P`.
    const K352: i64 = 0x1_7435_9406;
    /// Fold 32 bytes ahead, low half: `x^(2*128+32) mod P`.
    const K288: i64 = 0xf1da_05aa;
    /// Fold 32 bytes ahead, high half: `x^(2*128-32) mod P`.
    const K224: i64 = 0x1_5a54_6366;
    /// Fold 16 bytes ahead, low half: `x^(128+32) mod P`.
    const K3: i64 = 0x1_7519_97d0;
    /// Fold 16 bytes ahead, high half: `x^(128-32) mod P`.
    const K4: i64 = 0x0_ccaa_009e;
    /// 96 → 64 bits: `x^64 mod P`.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial itself, 33 bits.
    const P_X: i64 = 0x1_DB71_0641;
    /// Barrett constant `floor(x^64 / P)`.
    const U_PRIME: i64 = 0x1_F701_1641;

    /// Shortest input the xmm tier accepts: its four accumulators are
    /// loaded from the first 64 bytes.
    pub(super) const MIN_BYTES: usize = 64;

    /// Shortest input the zmm tier accepts: its four accumulators are
    /// loaded from the first 256 bytes.
    pub(super) const WIDE_MIN_BYTES: usize = 256;

    /// Splits the next 16 bytes off `data` as one little-endian vector.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn take_block(data: &mut &[u8]) -> __m128i {
        let (block, rest) = data.split_at(16);
        *data = rest;
        let (lo, hi) = block.split_at(8);
        _mm_set_epi64x(
            i64::from_le_bytes(hi.try_into().expect("8 bytes")),
            i64::from_le_bytes(lo.try_into().expect("8 bytes")),
        )
    }

    /// Folds accumulator `acc` forward onto `next`:
    /// `acc.lo * keys.lo ^ acc.hi * keys.hi ^ next`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_onto(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// The finish both folded tiers share: folds the remaining whole
    /// 16-byte blocks of `data` into the 128-bit accumulator `x`, then
    /// reduces it 128 → 96 → 64 → 32 bits. Returns the raw register and
    /// the unconsumed tail (< 16 bytes).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn reduce(mut x: __m128i, mut data: &[u8]) -> (u32, &[u8]) {
        let k3k4 = _mm_set_epi64x(K4, K3);
        while data.len() >= 16 {
            x = fold_onto(x, take_block(&mut data), k3k4);
        }

        // 128 -> 96 -> 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction, 64 -> 32 bits.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        (_mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32, data)
    }

    /// xmm tier: feeds all whole 16-byte blocks of `data` (which must hold
    /// at least four) into the raw register `state`. Returns the raw
    /// register and the unconsumed tail (< 16 bytes).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn update_folded(state: u32, mut data: &[u8]) -> (u32, &[u8]) {
        let mut x3 = take_block(&mut data);
        let mut x2 = take_block(&mut data);
        let mut x1 = take_block(&mut data);
        let mut x0 = take_block(&mut data);
        // The incoming register lands on the first 32 message bits.
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(state as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        while data.len() >= 64 {
            x3 = fold_onto(x3, take_block(&mut data), k1k2);
            x2 = fold_onto(x2, take_block(&mut data), k1k2);
            x1 = fold_onto(x1, take_block(&mut data), k1k2);
            x0 = fold_onto(x0, take_block(&mut data), k1k2);
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_onto(x3, x2, k3k4);
        x = fold_onto(x, x1, k3k4);
        x = fold_onto(x, x0, k3k4);
        reduce(x, data)
    }

    /// Splits the next 64 bytes off `data` as four little-endian lanes,
    /// the first 16 bytes in lane 0.
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    fn take_wide(data: &mut &[u8]) -> __m512i {
        let (block, rest) = data.split_at(64);
        *data = rest;
        let word = |i: usize| {
            let bytes = block[8 * i..8 * i + 8].try_into().expect("8 bytes");
            i64::from_le_bytes(bytes)
        };
        _mm512_set_epi64(word(7), word(6), word(5), word(4), word(3), word(2), word(1), word(0))
    }

    /// One `(low, high)` key pair in each of the four lanes.
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    fn wide_keys(lo: i64, hi: i64) -> __m512i {
        _mm512_set_epi64(hi, lo, hi, lo, hi, lo, hi, lo)
    }

    /// [`fold_onto`] in each of the four lanes at once.
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    fn fold_wide(acc: __m512i, next: __m512i, keys: __m512i) -> __m512i {
        let lo = _mm512_clmulepi64_epi128(acc, keys, 0x00);
        let hi = _mm512_clmulepi64_epi128(acc, keys, 0x11);
        // 0x96: the three-way XOR `next ^ lo ^ hi`.
        _mm512_ternarylogic_epi64(next, lo, hi, 0x96)
    }

    /// zmm tier: feeds all whole 16-byte blocks of `data` (which must hold
    /// at least [`WIDE_MIN_BYTES`]) into the raw register `state`. Returns
    /// the raw register and the unconsumed tail (< 16 bytes).
    #[target_feature(enable = "avx512f,vpclmulqdq,pclmulqdq,sse4.1")]
    fn update_folded_wide(state: u32, mut data: &[u8]) -> (u32, &[u8]) {
        let mut z0 = take_wide(&mut data);
        let mut z1 = take_wide(&mut data);
        let mut z2 = take_wide(&mut data);
        let mut z3 = take_wide(&mut data);
        // The incoming register lands on the first 32 message bits.
        let register = _mm512_set_epi64(0, 0, 0, 0, 0, 0, 0, state as i64);
        z0 = _mm512_xor_si512(z0, register);

        let k256 = wide_keys(K2080, K2016);
        while data.len() >= 256 {
            z0 = fold_wide(z0, take_wide(&mut data), k256);
            z1 = fold_wide(z1, take_wide(&mut data), k256);
            z2 = fold_wide(z2, take_wide(&mut data), k256);
            z3 = fold_wide(z3, take_wide(&mut data), k256);
        }

        let k64 = wide_keys(K1, K2);
        let mut z = fold_wide(z0, z1, k64);
        z = fold_wide(z, z2, k64);
        z = fold_wide(z, z3, k64);
        while data.len() >= 64 {
            z = fold_wide(z, take_wide(&mut data), k64);
        }

        // Lanes 0, 1 and 2 fold 48, 32 and 16 bytes ahead onto lane 3.
        let mut x = _mm512_extracti32x4_epi32(z, 3);
        x = fold_onto(_mm512_extracti32x4_epi32(z, 0), x, _mm_set_epi64x(K352, K416));
        x = fold_onto(_mm512_extracti32x4_epi32(z, 1), x, _mm_set_epi64x(K224, K288));
        x = fold_onto(_mm512_extracti32x4_epi32(z, 2), x, _mm_set_epi64x(K4, K3));
        reduce(x, data)
    }

    /// The xmm tier, where it applies: `Some((register, tail))` with all
    /// whole 16-byte blocks consumed (`tail` < 16 bytes), or `None` when
    /// the input is below [`MIN_BYTES`] or the host lacks the
    /// instructions.
    pub(super) fn try_fold(state: u32, bytes: &[u8]) -> Option<(u32, &[u8])> {
        if bytes.len() >= MIN_BYTES
            && std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: `update_folded` is safe code whose only requirement
            // is the `pclmulqdq` and `sse4.1` CPU features, both detected
            // on the lines above.
            #[allow(unsafe_code)]
            return Some(unsafe { update_folded(state, bytes) });
        }
        None
    }

    /// The zmm tier, where it applies: as [`try_fold`], from
    /// [`WIDE_MIN_BYTES`] and on hosts with `vpclmulqdq` and `avx512f`.
    pub(super) fn try_fold_wide(state: u32, bytes: &[u8]) -> Option<(u32, &[u8])> {
        if bytes.len() >= WIDE_MIN_BYTES
            && std::arch::is_x86_feature_detected!("vpclmulqdq")
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: `update_folded_wide` is safe code whose only
            // requirement is the `avx512f`, `vpclmulqdq`, `pclmulqdq` and
            // `sse4.1` CPU features, all detected on the lines above.
            #[allow(unsafe_code)]
            return Some(unsafe { update_folded_wide(state, bytes) });
        }
        None
    }
}

/// Feeds `bytes` into a running CRC-32 register (`!0` when fresh; the
/// finished checksum is the register's complement).
pub(crate) fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    let (state, bytes) = fold::try_fold_wide(state, bytes)
        .or_else(|| fold::try_fold(state, bytes))
        .unwrap_or((state, bytes));
    update_table(state, bytes)
}

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bit-at-a-time reference: no table, no folding.
    fn crc32_bitwise(mut state: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            state ^= b as u32;
            for _ in 0..8 {
                state = (state >> 1) ^ (0xEDB8_8320 & (state & 1).wrapping_neg());
            }
        }
        state
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// A tier called directly: the table walk, or a folded tier finished
    /// by the table walk on its tail (`None` where the tier does not
    /// apply: too short an input, or a host without the instructions).
    type Tier = fn(u32, &[u8]) -> Option<u32>;

    fn table_tier(state: u32, bytes: &[u8]) -> Option<u32> {
        Some(update_table(state, bytes))
    }

    #[cfg(target_arch = "x86_64")]
    fn xmm_tier(state: u32, bytes: &[u8]) -> Option<u32> {
        let (state, tail) = fold::try_fold(state, bytes)?;
        assert!(bytes.len() >= fold::MIN_BYTES && tail.len() < 16);
        Some(update_table(state, tail))
    }

    #[cfg(target_arch = "x86_64")]
    fn zmm_tier(state: u32, bytes: &[u8]) -> Option<u32> {
        let (state, tail) = fold::try_fold_wide(state, bytes)?;
        assert!(bytes.len() >= fold::WIDE_MIN_BYTES && tail.len() < 16);
        Some(update_table(state, tail))
    }

    /// `(name, tier)` for every tier this target has.
    fn tiers() -> Vec<(&'static str, Tier)> {
        let mut tiers: Vec<(&'static str, Tier)> = vec![("table", table_tier)];
        #[cfg(target_arch = "x86_64")]
        tiers.extend([("xmm", xmm_tier as Tier), ("zmm", zmm_tier as Tier)]);
        tiers
    }

    /// Deterministic filler bytes.
    fn backing(len: usize, salt: u32) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_add(salt).wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    #[test]
    fn every_tier_matches_the_bitwise_reference_at_every_length_and_offset() {
        const MAX: usize = 1024;
        let backing = backing(MAX + 16, 0);
        for init in [!0u32, 0, 0x1234_5678] {
            for offset in [0, 1, 3, 8, 13] {
                let bytes = &backing[offset..offset + MAX];
                // The reference grows one byte per length.
                let mut want = init;
                for len in 0..=MAX {
                    if len > 0 {
                        want = crc32_bitwise(want, &bytes[len - 1..len]);
                    }
                    let at = format!("init {init:#x} offset {offset} len {len}");
                    for (name, tier) in tiers() {
                        if let Some(got) = tier(init, &bytes[..len]) {
                            assert_eq!(got, want, "{name} tier, {at}");
                        }
                    }
                    assert_eq!(crc32_update(init, &bytes[..len]), want, "dispatch, {at}");
                }
            }
        }
    }

    #[test]
    fn every_tier_matches_the_bitwise_reference_on_long_unaligned_inputs() {
        let backing = backing(100_000 + 64, 7);
        let mut draw = 0x9E37_79B9u32;
        let mut next = |bound: usize| {
            draw = draw.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (draw >> 8) as usize % bound
        };
        for case in 0..24 {
            let (offset, len) = (next(64), next(100_001));
            let bytes = &backing[offset..offset + len];
            let want = crc32_bitwise(!0, bytes);
            for (name, tier) in tiers() {
                let got = tier(!0, bytes).expect("every tier applies from 256 bytes");
                assert_eq!(got, want, "{name} tier, case {case}: offset {offset} len {len}");
            }
        }
    }

    /// Three pieces of one input, each fed through its own tier, in every
    /// assignment of tiers to pieces: the register hands over between
    /// tiers unchanged.
    #[test]
    fn tiers_chain_in_any_order() {
        let bytes = backing(3 * 700, 3);
        let want = crc32_bitwise(!0, &bytes);
        let tiers = tiers();
        for a in &tiers {
            for b in &tiers {
                for c in &tiers {
                    let mut state = !0;
                    for (piece, (_, tier)) in bytes.chunks(700).zip([a, b, c]) {
                        state = tier(state, piece).expect("every tier applies from 256 bytes");
                    }
                    assert_eq!(state, want, "tiers {} -> {} -> {}", a.0, b.0, c.0);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn chained_updates_match_the_bitwise_reference(
            bytes in proptest::collection::vec(any::<u8>(), 0..4097),
            cut_a in any::<usize>(),
            cut_b in any::<usize>(),
        ) {
            let a = cut_a % (bytes.len() + 1);
            let b = cut_b % (bytes.len() + 1);
            let (lo, hi) = (a.min(b), a.max(b));
            let chained = [&bytes[..lo], &bytes[lo..hi], &bytes[hi..]]
                .iter()
                .fold(!0, |state, part| crc32_update(state, part));
            prop_assert_eq!(chained, crc32_bitwise(!0, &bytes));
            prop_assert_eq!(update_table(!0, &bytes), chained);
        }
    }
}
