//! Property-based tests over the tensor substrate.

use crate::conv::{conv2d_direct, conv2d_im2col, ConvShape};
use crate::gemm::{gemm_auto, gemm_blocked, gemm_naive, gemm_packed};
use crate::half::quantize_f16;
use crate::matrix::Matrix;
use crate::quant;
use crate::sparse::{density_of_zeros, Csr};
use proptest::prelude::*;

fn ring_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix<u64>> {
    prop::collection::vec(any::<u64>(), rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

fn small_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..12, 1usize..12, 1usize..12)
}

proptest! {
    /// Blocked and packed GEMM agree exactly with the naive oracle over
    /// the ring (no float tolerance needed).
    #[test]
    fn gemm_kernels_agree_in_ring((m, k, n) in small_dims(), seed in any::<u64>()) {
        let a = Matrix::from_fn(m, k, |r, c| {
            seed.wrapping_mul(r as u64 + 1).wrapping_add((c as u64) << 7)
        });
        let b = Matrix::from_fn(k, n, |r, c| {
            seed.rotate_left(13).wrapping_mul(c as u64 + 3).wrapping_add(r as u64)
        });
        let oracle = gemm_naive(&a, &b);
        prop_assert_eq!(&gemm_blocked(&a, &b), &oracle);
        prop_assert_eq!(&gemm_packed(&a, &b), &oracle);
    }

    /// The production dispatcher is bit-exact against the oracle over the
    /// ring on random shapes up to 100x100, wherever it lands in its
    /// blocked / packed / packed-parallel tiers.
    #[test]
    fn gemm_auto_matches_naive_in_ring((m, k, n) in (1usize..101, 1usize..101, 1usize..101), seed in any::<u64>()) {
        let a = Matrix::from_fn(m, k, |r, c| {
            seed.wrapping_mul(r as u64 ^ 0x243F_6A88).wrapping_add((c as u64) << 17)
        });
        let b = Matrix::from_fn(k, n, |r, c| {
            seed.rotate_left(29).wrapping_add(r as u64).wrapping_mul((c as u64) | 1)
        });
        prop_assert_eq!(gemm_auto(&a, &b), gemm_naive(&a, &b));
    }

    /// GEMM is bilinear over the ring: (A+A')B = AB + A'B and A(B+B') =
    /// AB + AB' — the algebra the Beaver protocol depends on.
    #[test]
    fn gemm_is_bilinear(a1 in ring_matrix(5, 4), a2 in ring_matrix(5, 4), b in ring_matrix(4, 6)) {
        let lhs = gemm_blocked(&a1.add(&a2), &b);
        let rhs = gemm_blocked(&a1, &b).add(&gemm_blocked(&a2, &b));
        prop_assert_eq!(lhs, rhs);
    }

    /// CSR round-trips any dense matrix exactly.
    #[test]
    fn csr_roundtrip(m in ring_matrix(6, 7)) {
        let csr = Csr::from_dense(&m);
        prop_assert_eq!(csr.to_dense(), m);
    }

    /// CSR round-trips sparse matrices (with forced zeros) and `add_into`
    /// matches dense addition.
    #[test]
    fn csr_delta_application(vals in prop::collection::vec((any::<u64>(), 0u8..4), 30)) {
        let data: Vec<u64> = vals.iter().map(|&(v, z)| if z == 0 { v } else { 0 }).collect();
        let delta = Matrix::from_vec(5, 6, data);
        let base = Matrix::from_fn(5, 6, |r, c| (r * 11 + c) as u64);
        let csr = Csr::from_dense(&delta);
        let mut applied = base.clone();
        csr.add_into(&mut applied);
        prop_assert_eq!(applied, base.add(&delta));
    }

    /// zero_fraction and density_of_zeros agree.
    #[test]
    fn density_measures_agree(vals in prop::collection::vec(0u64..3, 24)) {
        let m = Matrix::from_vec(4, 6, vals);
        prop_assert!((m.zero_fraction() - density_of_zeros(m.as_slice())).abs() < 1e-12);
    }

    /// im2col + GEMM equals direct convolution over the ring, for arbitrary
    /// small shapes.
    #[test]
    fn conv_lowering_exact(
        ch in 1usize..3,
        h in 3usize..7,
        w in 3usize..7,
        k in 1usize..4,
        f in 1usize..3,
        seed in any::<u64>(),
    ) {
        prop_assume!(k <= h && k <= w);
        let shape = ConvShape { channels: ch, height: h, width: w, kernel: k, filters: f };
        let input = Matrix::from_fn(ch, h * w, |r, c| {
            seed.wrapping_add((r as u64) << 32).wrapping_mul(c as u64 | 1)
        });
        let kernels = Matrix::from_fn(shape.patch_len(), f, |r, c| {
            seed.rotate_right(7).wrapping_mul((r + 2 * c + 1) as u64)
        });
        prop_assert_eq!(
            conv2d_direct(&input, &kernels, &shape),
            conv2d_im2col(&input, &kernels, &shape)
        );
    }

    /// f16 quantization is idempotent and monotone on finite values.
    #[test]
    fn f16_quantization_properties(a in -7e4f32..7e4, b in -7e4f32..7e4) {
        let qa = quantize_f16(a);
        prop_assert_eq!(quantize_f16(qa), qa);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(quantize_f16(lo) <= quantize_f16(hi));
    }

    /// Transpose is an involution and distributes over addition.
    #[test]
    fn transpose_algebra(a in ring_matrix(4, 7), b in ring_matrix(4, 7)) {
        prop_assert_eq!(a.transpose().transpose(), a.clone());
        prop_assert_eq!(a.add(&b).transpose(), a.transpose().add(&b.transpose()));
    }

    /// The tiled transpose is the definition `out[c][r] = m[r][c]`, on
    /// empty (0xN, Nx0), single-row and single-column shapes and on sides
    /// that straddle the 32-wide tile.
    #[test]
    fn transpose_matches_the_double_loop((rows, cols) in (0usize..70, 0usize..70), seed in any::<u64>(),
                                         edge in 0usize..8) {
        let (rows, cols) = match edge {
            0 => (0, cols),
            1 => (rows, 0),
            2 => (1, cols),
            3 => (rows, 1),
            _ => (rows, cols),
        };
        let m = Matrix::from_fn(rows, cols, |r, c| {
            seed.wrapping_mul(r as u64 + 1).wrapping_add((c as u64) << 9)
        });
        let mut naive = Matrix::zeros(cols, rows);
        for r in 0..rows {
            for c in 0..cols {
                naive[(c, r)] = m[(r, c)];
            }
        }
        prop_assert_eq!(m.transpose(), naive);
    }

    /// (AB)^T = B^T A^T over the ring.
    #[test]
    fn transpose_of_product(a in ring_matrix(3, 5), b in ring_matrix(5, 4)) {
        let lhs = gemm_blocked(&a, &b).transpose();
        let rhs = gemm_blocked(&b.transpose(), &a.transpose());
        prop_assert_eq!(lhs, rhs);
    }

    /// Balanced-digit recoding round-trips every u64 mod 2^64.
    #[test]
    fn quant_digits_roundtrip(v in any::<u64>()) {
        prop_assert_eq!(quant::digits_roundtrip_for_tests(v), v);
    }
}

proptest! {
    // The quantized-GEMM identity cases run the scalar tile model, which
    // is deliberately dumb (it mirrors the hardware per-lane); fewer,
    // broader cases keep the debug-mode suite fast.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The limb-split quantized GEMM is bit-identical to the reference
    /// u64 kernel on random shapes and seeds — including non-square
    /// shapes and K larger than the drain budget (64-byte budget forces a
    /// drain after every tile step), on both backends wherever AMX is
    /// available.
    #[test]
    fn quant_gemm_matches_reference(
        (m, k, n) in (1usize..17, 1usize..90, 1usize..17),
        seed in any::<u64>(),
    ) {
        let a = Matrix::from_fn(m, k, |r, c| {
            seed.wrapping_mul(r as u64 ^ 0x243F_6A88).wrapping_add((c as u64) << 17)
        });
        let b = Matrix::from_fn(k, n, |r, c| {
            seed.rotate_left(29).wrapping_add(r as u64).wrapping_mul((c as u64) | 1)
        });
        let oracle = gemm_packed(&a, &b);
        for result in quant::all_backends_for_tests(&a, &b, 64, 1) {
            prop_assert_eq!(&result, &oracle);
        }
        prop_assert_eq!(&quant::gemm_quant(&a, &b), &oracle);
    }

    /// Around the quant cutover (`m·k·n` = 4M) and across the padding
    /// gate, the dispatcher and the banded quant kernel are bit-identical
    /// to the packed ring kernel — whichever tier each shape lands on.
    /// The tile kernel runs only where AMX verified: the scalar model is
    /// far too slow at these sizes.
    #[test]
    fn quant_and_auto_match_packed_across_the_cutover(
        (m, k, n) in (1usize..400, 1usize..300, 1usize..160),
        seed in any::<u64>(),
    ) {
        let a = Matrix::from_fn(m, k, |r, c| {
            seed.wrapping_mul(r as u64 ^ 0x1357_9BDF).wrapping_add((c as u64) << 23)
        });
        let b = Matrix::from_fn(k, n, |r, c| {
            seed.rotate_left(41).wrapping_add(r as u64).wrapping_mul((c as u64) | 1)
        });
        let oracle = gemm_packed(&a, &b);
        prop_assert_eq!(&gemm_auto(&a, &b), &oracle);
        if quant::quant_ring_available() {
            prop_assert_eq!(&quant::gemm_quant(&a, &b), &oracle);
        }
    }
}
