//! The frame checksum: CRC-32 (IEEE 802.3, reflected polynomial
//! `0xEDB88320`), computed by one of two tiers.
//!
//! - **Table walk** (`update_table`): one byte per iteration through a
//!   256-entry table built at compile time. The portable path, and the
//!   finisher for whatever the folded tier leaves (< 16 bytes).
//! - **Carry-less-multiply folding** (`fold::update_folded`, x86-64 only):
//!   four 128-bit accumulators folded 64 bytes ahead per iteration
//!   (PCLMULQDQ), merged and folded 16 bytes ahead, then reduced
//!   128 → 64 → 32 bits with a Barrett step.
//!
//! What selects them: `crc32_update` takes the folded tier for inputs of
//! at least 64 bytes (`fold::MIN_BYTES`) when `is_x86_feature_detected!`
//! reports `pclmulqdq` and `sse4.1` (std caches the probe), the table
//! walk otherwise. There is no option to set.
//!
//! Why the bytes cannot differ: both tiers compute the remainder of the
//! same polynomial division — folding only replaces "shift in one byte,
//! reduce" by "multiply by `x^n mod P`, add", which is the same value
//! modulo `P`. Each tier takes the raw CRC register and returns the raw
//! register, so they chain in any order; the unit tests pin both against a
//! bit-at-a-time reference with no table at every length 0..=272, and
//! `tests/golden/wire_frames.txt` pins the framed bytes.
//!
//! The call into the folded function is the one `unsafe` block in this
//! crate (psml-lint `UNSAFE_MODULES`: `net-sim::crc`). The folded function
//! itself is safe code: blocks are loaded by value from `split_at` slices,
//! no pointers.

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
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Folding constants for the reflected IEEE polynomial (the ones
    // zlib-ng and crc32fast use): `x^n mod P`, bit-reflected, shifted left
    // by one.
    /// Fold 64 bytes ahead, low half: `x^(4*128+32) mod P`.
    const K1: i64 = 0x1_5444_2bd4;
    /// Fold 64 bytes ahead, high half: `x^(4*128-32) mod P`.
    const K2: i64 = 0x1_c6e4_1596;
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

    /// Shortest input the folded tier accepts: its four accumulators are
    /// loaded from the first 64 bytes.
    pub(super) const MIN_BYTES: usize = 64;

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

    /// Folded tier: feeds all whole 16-byte blocks of `data` (which must
    /// hold at least four) into the raw register `state`. Returns the raw
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

    /// The folded tier, where it applies: `Some((register, tail))` with
    /// all whole 16-byte blocks consumed (`tail` < 16 bytes), or `None`
    /// when the input is below [`MIN_BYTES`] or the host lacks the
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
}

/// Feeds `bytes` into a running CRC-32 register (`!0` when fresh; the
/// finished checksum is the register's complement).
pub(crate) fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    let (state, bytes) = fold::try_fold(state, bytes).unwrap_or((state, bytes));
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

    #[test]
    fn both_tiers_match_the_bitwise_reference_at_every_length_and_offset() {
        let backing: Vec<u8> = (0..272 + 16u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for init in [!0u32, 0, 0x1234_5678] {
            for offset in 0..16 {
                for len in 0..=272 {
                    let bytes = &backing[offset..offset + len];
                    let want = crc32_bitwise(init, bytes);
                    let at = format!("init {init:#x} offset {offset} len {len}");
                    assert_eq!(update_table(init, bytes), want, "table tier, {at}");
                    #[cfg(target_arch = "x86_64")]
                    if let Some((state, tail)) = fold::try_fold(init, bytes) {
                        assert!(len >= fold::MIN_BYTES && tail.len() < 16, "{at}");
                        assert_eq!(update_table(state, tail), want, "folded tier, {at}");
                    }
                    assert_eq!(crc32_update(init, bytes), want, "dispatch, {at}");
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
