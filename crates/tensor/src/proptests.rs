//! Property-based tests over the tensor substrate.

use crate::conv::{conv2d_direct, conv2d_im2col, ConvShape};
use crate::gemm::{
    gemm_auto, gemm_blocked, gemm_naive, gemm_packed, gemm_packed_sum, pack_b, packed_sum_on,
    Spread,
};
use crate::matrix::Matrix;
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
}

proptest! {
    // Shapes up to 400 x 300 x 160 take a while in a debug build; fewer,
    // broader cases keep the suite fast.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Across the serial, banding and blocked tiers, the dispatcher is
    /// bit-identical to the packed ring kernel — whichever tier each
    /// shape lands on.
    #[test]
    fn auto_matches_packed_across_the_tiers(
        (m, k, n) in (1usize..400, 1usize..300, 1usize..160),
        seed in any::<u64>(),
    ) {
        let a = Matrix::from_fn(m, k, |r, c| {
            seed.wrapping_mul(r as u64 ^ 0x1357_9BDF).wrapping_add((c as u64) << 23)
        });
        let b = Matrix::from_fn(k, n, |r, c| {
            seed.rotate_left(41).wrapping_add(r as u64).wrapping_mul((c as u64) | 1)
        });
        prop_assert_eq!(&gemm_auto(&a, &b), &gemm_packed(&a, &b));
    }
}

/// Row counts the ring kernel's edge tiles see: every row tile height
/// (1..=8) once alone and once after a full tile, and multi-tile bands.
fn edge_rows() -> Vec<usize> {
    (1..=17).chain([25, 64]).collect()
}

/// Column counts around the 16-wide panel and its 8-lane halves: one
/// narrow 8-wide panel (`1..=8`), and a narrow last panel (`17..=24`).
fn edge_cols() -> Vec<usize> {
    (1..=24).chain([8, 10, 33]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `gemm_packed_sum` over one to three terms of differing inner
    /// dimension (0 and 1, around the narrow tile's eight-step round,
    /// under and over one tile step, and around the AVX-512 kernel's
    /// 256-deep slab, so a sum straddles a slab edge and a depth part cuts
    /// inside a term) is bit-identical to the summed oracle on every edge
    /// shape, serially, in pooled row bands and in depth parts — whichever
    /// band kernel this host runs.
    #[test]
    fn packed_sum_matches_naive_on_edge_shapes(
        m in prop::sample::select(edge_rows()),
        n in prop::sample::select(edge_cols()),
        ks in prop::collection::vec(
            prop::sample::select(vec![0usize, 1, 7, 8, 9, 25, 50, 255, 256, 257]),
            1..4,
        ),
        seed in any::<u64>(),
    ) {
        let operands: Vec<(Matrix<u64>, Matrix<u64>)> = ks
            .iter()
            .enumerate()
            .map(|(t, &k)| {
                let salt = seed.rotate_left(7 * t as u32 + 1);
                let a = Matrix::from_fn(m, k, |r, c| {
                    salt.wrapping_mul(r as u64 ^ 0x9E37_79B9).wrapping_add((c as u64) << 19)
                });
                let b = Matrix::from_fn(k, n, |r, c| {
                    salt.rotate_left(23).wrapping_add(r as u64).wrapping_mul((c as u64) | 1)
                });
                (a, b)
            })
            .collect();
        let mut oracle = Matrix::zeros(m, n);
        for (a, b) in &operands {
            oracle = oracle.add(&gemm_naive(a, b));
        }
        let packed: Vec<_> = operands.iter().map(|(_, b)| pack_b(b)).collect();
        let terms: Vec<(&Matrix<u64>, _)> =
            operands.iter().zip(&packed).map(|((a, _), p)| (a, p)).collect();
        for spread in [Spread::Serial, Spread::Rows, Spread::Depth] {
            prop_assert_eq!(&packed_sum_on(&terms, spread), &oracle, "{:?}", spread);
        }
        prop_assert_eq!(&gemm_packed_sum(&terms), &oracle);
    }
}
