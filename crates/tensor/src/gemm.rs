//! General matrix multiply kernels.
//!
//! A hierarchy of implementations with identical results, from oracle to
//! production path:
//!
//! - [`gemm_naive`]: the textbook triple loop, used as the test oracle;
//! - [`gemm_blocked`]: i-k-j loop order with cache tiling and a zero-skip
//!   for sparse operands — the small-matrix kernel. A ring product with one
//!   output column runs as one dot per row instead;
//! - [`gemm_packed`]: B packed once into contiguous `PackedB` column
//!   panels (`NR = 16` wide, or 8 when `n <= 8`), driven through an
//!   `MR x NR` register-tile micro-kernel — the large-matrix serial
//!   kernel. Ring carriers run it as explicit AVX-512F+DQ code (`vpmullq`)
//!   where the CPU has it, and as the autovectorized AVX2 or scalar build
//!   of the generic kernel elsewhere; floats always run the generic
//!   kernel. The AVX-512 ring kernel runs a panel with at most eight live
//!   columns as a narrow tile that keeps `A` in registers (see
//!   [`packed_band_ring_avx512`]), at the wide tile's rate;
//! - [`gemm_packed_parallel`]: the one-term packed sum, which spreads over
//!   the persistent process-global thread pool as [`spread_over_pool`]
//!   says and is [`gemm_packed`] below its floor;
//! - [`gemm_packed_sum_auto`]: the production path — `sum_t A_t x B_t`
//!   against right-hand sides prepared by [`pack_b_auto`], without
//!   materializing concatenations. The fused Eq. 8 product
//!   `[((-i)E + Ai) | E] x [F ; Bi]` uses it so both servers share one
//!   prepared `F`, and [`gemm_auto`] is its one-term case. Mirroring the
//!   paper's profiling-guided adaptive placement, two rules pick the
//!   kernel: a product under [`AUTO_PACK_FLOPS`] is left unpacked and runs
//!   the blocked kernel, and [`spread_over_pool`] runs the register-tiled
//!   form serially, in output row bands, or — for a ring product whose
//!   inner dimension is long against its rows, such as the conv weight
//!   gradient `25 x 73728 x 8` — in depth parts whose `m x n` partials are
//!   added (from 2^22 `m·k·n` for ring products with the AVX-512 ring
//!   kernel live; from 48M, and in row bands only, for everything else).
//!   `Matrix::matmul`, triple generation and the fused Eq. 8 evaluation
//!   all route through it.
//!
//! All kernels are exact (bit-identical) over `u64`/`Fixed64`: wrapping ring
//! arithmetic is associative and commutative, so packing and tiling cannot
//! change results. Over floats the summation *order* differs between
//! kernels, so results agree only to rounding (exactly, on small-integer
//! data).

use crate::caps::host_caps;
use crate::matrix::Matrix;
use crate::num::Num;
use psml_parallel::{configured_workers, for_each_chunk_mut_pooled, in_pool_region};
use std::ops::Range;
use std::sync::OnceLock;

/// Cache tile edge (elements) for [`gemm_blocked`]. A 64x64 `u64` tile is
/// 32 KiB, the L1 data cache of common cores.
const BLOCK: usize = 64;

/// Register-tile rows of the packed micro-kernel. The full-tile fast
/// path destructures exactly eight named accumulators; a compile error
/// there flags any change here.
pub const MR: usize = 8;

/// Register-tile columns of the packed micro-kernel. With `u64` or `f64`
/// one tile row is two 512-bit vectors (or four 256-bit ones), so the
/// `MR x NR` accumulator block fills 16 of AVX-512's 32 vector registers.
pub const NR: usize = 16;

/// `m * k * n` below which [`pack_b_auto`] leaves `B` unpacked for the
/// blocked kernel (packing overhead dominates), on every carrier.
/// Calibrated with `cargo bench --bench gemm` (see `BENCH_gemm.json`): the
/// packed kernel wins from roughly 32^3 up.
const AUTO_PACK_FLOPS: usize = 32 * 32 * 32;

/// `m * k * n` from which float products, and ring products on hosts
/// without the AVX-512 ring kernel, band over the pool. Below this the
/// band bookkeeping and latch/wake-up round-trip of a parallel region cost
/// more than they recover: an f32 ledger showed the parallel path 11%
/// *slower* than serial packed at 256^3 (45.5 vs 51.1 GFLOPS), while 512^3
/// and up amortize it, so the cutover sits between those sizes (~363^3).
const AUTO_PARALLEL_FLOPS: usize = 48_000_000;

/// `m * k * n` from which ring products spread over the pool when the
/// explicit AVX-512 ring kernel is live: 2^22. That kernel does the CNN's
/// fused `36864 x 50 x 8` im2col product (14.7M) in 4–5 ms on one core of
/// a 2-vCPU AVX-512 Xeon (12–13 ms before its narrow tile), so a pool
/// region's wake-ups pay off far below [`AUTO_PARALLEL_FLOPS`]: spread,
/// the CNN's im2col and dense-layer products run 1.2–1.7x faster on two
/// workers. With the floor at 2^20 the smoke ladder had
/// `gemm_auto` 1.3–1.4x slower than the serial kernel on
/// `mlp_hidden_fused` (`128 x 256 x 64`, 2^21), so the floor sits above
/// it.
const RING_PARALLEL_FLOPS: usize = 1 << 22;

fn assert_shapes<T: Num>(a: &Matrix<T>, b: &Matrix<T>) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "gemm shape mismatch: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
}

/// Textbook `O(n^3)` triple loop. Test oracle; do not use on hot paths.
pub fn gemm_naive<T: Num>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_shapes(a, b);
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = T::zero();
            for p in 0..k {
                acc = acc.add(a[(i, p)].mul(b[(p, j)]));
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// Adds one row band `rows_of_a x b` into `out_band` (row-major,
/// `len = band_rows * n`): the blocked kernel's loop nest. A ring product
/// with one output column runs [`ring_dot`] per row instead: `b`'s column
/// is contiguous, and a served `1 x 2048 x 1` term takes a sixth of the
/// loop nest's time. Floats keep the loop nest and its summation order.
fn gemm_band<T: Num>(a_band: &[T], band_rows: usize, k: usize, b: &Matrix<T>, out_band: &mut [T]) {
    let n = b.cols();
    debug_assert_eq!(a_band.len(), band_rows * k);
    debug_assert_eq!(out_band.len(), band_rows * n);
    if T::WRAPPING_U64 && n == 1 {
        if k > 0 {
            for (a_row, o) in a_band.chunks_exact(k).zip(out_band) {
                *o = o.add(ring_dot(a_row, b.as_slice()));
            }
        }
        return;
    }
    for kb in (0..k).step_by(BLOCK) {
        let k_end = (kb + BLOCK).min(k);
        for i in 0..band_rows {
            let a_row = &a_band[i * k..(i + 1) * k];
            let out_row = &mut out_band[i * n..(i + 1) * n];
            #[allow(clippy::needless_range_loop)] // p also selects b.row(p)
            for p in kb..k_end {
                let a_ip = a_row[p];
                if a_ip.is_zero() {
                    continue; // frequent for sparse deltas / activations
                }
                let b_row = b.row(p);
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o = o.add(a_ip.mul(bv));
                }
            }
        }
    }
}

/// `sum_p a[p] * b[p]` over four independent accumulators, so the
/// multiplies overlap rather than wait on one running sum. Ring carriers
/// only: wrapping addition is exact in any order, a float sum is not.
fn ring_dot<T: Num>(a: &[T], b: &[T]) -> T {
    debug_assert_eq!(a.len(), b.len());
    let (a4, b4) = (a.chunks_exact(4), b.chunks_exact(4));
    let mut tail = T::zero();
    for (&x, &y) in a4.remainder().iter().zip(b4.remainder()) {
        tail = tail.add(x.mul(y));
    }
    let mut acc = [T::zero(); 4];
    for (x, y) in a4.zip(b4) {
        for ((s, &x), &y) in acc.iter_mut().zip(x).zip(y) {
            *s = s.add(x.mul(y));
        }
    }
    acc[0].add(acc[1]).add(acc[2].add(acc[3])).add(tail)
}

/// Cache-blocked GEMM, i-k-j order: the inner loop streams one row of `b`
/// and one row of `out`, so all accesses are unit-stride. Skips zero `a`
/// entries, which makes it the kernel of choice for sparse operands and for
/// matrices too small to amortize packing.
pub fn gemm_blocked<T: Num>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_shapes(a, b);
    let (m, _k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    gemm_band(a.as_slice(), m, a.cols(), b, out.as_mut_slice());
    out
}

/// `B` repacked into contiguous column panels for the register-tiled
/// kernel.
///
/// Layout: `ceil(n / w)` panels of [`panel_width`] `w` columns, each
/// `k * w` elements. Panel `q` holds columns `q*w .. q*w+w` of `B`, stored
/// row-by-row (`p*w + jj` maps to `B[p, q*w + jj]`), zero-padded past
/// column `n`. The micro-kernel then
/// streams each panel linearly once per `MR`-row tile of `A`, so packing is
/// paid once and reused across every row band — and, via
/// [`gemm_packed_sum`], across both servers' fused Eq. 8 evaluations.
#[derive(Clone, Debug)]
pub(crate) struct PackedB<T: Num> {
    k: usize,
    n: usize,
    data: Vec<T>,
}

/// One `A` row band paired with its packed right-hand side, flattened to
/// element slices plus scalars.
///
/// The ring dispatch in [`packed_band`] reinterprets terms across
/// `#[repr(transparent)]` element types, which is only sound element slice
/// by element slice — `repr(Rust)` gives no layout guarantee between
/// different monomorphizations of a struct like [`PackedB`], so the kernels
/// never see a generic struct through a transmute, only this flat view
/// rebuilt field by field.
#[derive(Clone)]
struct BandTerm<'a, T> {
    /// Row-major `band_rows x k` slice of `A`.
    a_band: &'a [T],
    /// Inner dimension: stride of `a_band`, rows of the packed panels.
    k: usize,
    /// The inner indices the term contributes: `0..k`, or one part of it
    /// when [`Spread::Depth`] hands the term's steps to several bands.
    depth: Range<usize>,
    /// Columns of each packed panel ([`panel_width`]).
    width: usize,
    /// Packed panel data: `ceil(n / width)` panels of `k * width` elements.
    panels: &'a [T],
}

impl<'a, T: Num> BandTerm<'a, T> {
    fn new(a_band: &'a [T], pb: &'a PackedB<T>) -> Self {
        BandTerm {
            a_band,
            k: pb.k,
            depth: 0..pb.k,
            width: panel_width(pb.n),
            panels: &pb.data,
        }
    }

    fn panel(&self, q: usize) -> &'a [T] {
        let len = self.k * self.width;
        &self.panels[q * len..(q + 1) * len]
    }
}

/// Reinterprets an element slice between two carriers.
///
/// # Safety
///
/// `Src` and `Dst` must have identical size, alignment, and validity (true
/// at the one call site: `Src` is `#[repr(transparent)]` over `Dst = u64`
/// per the `unsafe` [`Num`] contract behind [`Num::WRAPPING_U64`]).
unsafe fn cast_slice<Src, Dst>(s: &[Src]) -> &[Dst] {
    debug_assert_eq!(std::mem::size_of::<Src>(), std::mem::size_of::<Dst>());
    debug_assert_eq!(std::mem::align_of::<Src>(), std::mem::align_of::<Dst>());
    // SAFETY: caller guarantees Src and Dst agree in size, alignment, and
    // validity (the fn-level contract), so the same element count over the
    // same allocation stays in bounds and every bit pattern is valid.
    unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<Dst>(), s.len()) }
}

/// Mutable [`cast_slice`].
///
/// # Safety
///
/// Same contract as [`cast_slice`]; the `&mut` borrow it consumes keeps
/// the reinterpreted slice unique.
unsafe fn cast_slice_mut<Src, Dst>(s: &mut [Src]) -> &mut [Dst] {
    debug_assert_eq!(std::mem::size_of::<Src>(), std::mem::size_of::<Dst>());
    debug_assert_eq!(std::mem::align_of::<Src>(), std::mem::align_of::<Dst>());
    // SAFETY: as in `cast_slice`, plus exclusivity from the incoming
    // `&mut` borrow whose lifetime the output inherits.
    unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<Dst>(), s.len()) }
}

/// Rebuilds band terms in the `Dst` carrier, element slice by element
/// slice — no struct-level transmute, so `repr(Rust)` layout freedom across
/// monomorphizations cannot bite.
///
/// # Safety
///
/// Same element-compatibility contract as [`cast_slice`].
unsafe fn cast_terms<'a, Src: Num, Dst: Num>(
    terms: &[BandTerm<'a, Src>],
) -> Vec<BandTerm<'a, Dst>> {
    terms
        .iter()
        .map(|t| BandTerm {
            // SAFETY: forwards the fn-level contract; only the element
            // slices are reinterpreted, field by field.
            a_band: unsafe { cast_slice::<Src, Dst>(t.a_band) },
            k: t.k,
            depth: t.depth.clone(),
            width: t.width,
            // SAFETY: as above.
            panels: unsafe { cast_slice::<Src, Dst>(t.panels) },
        })
        .collect()
}

/// Columns of one packed panel of an `n`-column `B`: `NR`, or `NR / 2`
/// when all of `B` fits in half a panel, so a narrow product neither packs
/// nor streams eight zero columns per row.
fn panel_width(n: usize) -> usize {
    if n <= NR / 2 {
        NR / 2
    } else {
        NR
    }
}

/// Packs `b` into [`PackedB`] column panels. Each element is written once:
/// the rows are appended panel by panel, and only the last panel's pad
/// columns (past `n`) are zeroed.
pub(crate) fn pack_b<T: Num>(b: &Matrix<T>) -> PackedB<T> {
    let (k, n) = (b.rows(), b.cols());
    let w = panel_width(n);
    let panels = n.div_ceil(w);
    let mut data = Vec::with_capacity(panels * k * w);
    let src = b.as_slice();
    for q in 0..panels {
        let j0 = q * w;
        let width = w.min(n - j0);
        for p in 0..k {
            data.extend_from_slice(&src[p * n + j0..p * n + j0 + width]);
            data.resize(data.len() + w - width, T::zero());
        }
    }
    PackedB { k, n, data }
}

/// Accumulates `a_tile x b_panel` into the `MR x W` register tile (`W` the
/// panel width).
///
/// `a_rows` selects how many of the `MR` accumulator rows are live. The
/// accumulators are scalar locals over const bounds, so LLVM fully unrolls
/// the `W`-wide inner loop into vector ops (the strided `A` loads become
/// lane broadcasts) for floats and `u64` alike. `FMA` selects
/// `Num::mul_add` — only set it from code compiled with hardware fused
/// multiply-add, or the float path falls through to libm.
#[inline(always)]
fn accumulate_tile<T: Num, const FMA: bool, const W: usize>(
    acc: &mut [[T; W]; MR],
    a_band: &[T],
    stride: usize,
    i_local: usize,
    a_rows: usize,
    k: usize,
    b_panel: &[T],
) {
    if a_rows == MR {
        // Exact-length row slices let LLVM elide the bounds checks on the
        // per-`p` strided loads in the hot full-tile path.
        let rows_a: [&[T]; MR] = std::array::from_fn(|r| {
            let start = (i_local + r) * stride;
            &a_band[start..start + k]
        });
        // Named accumulator locals rather than `acc[r]` indexing: each is
        // a single whole-array value touched only by the unrolled
        // `W`-wide loop, which is the shape LLVM reliably promotes to
        // vector registers for the whole `p` loop. Array-indexed
        // accumulators were observed to stay stack-resident (one store
        // per FMA) depending on the surrounding codegen unit.
        let [mut c0, mut c1, mut c2, mut c3, mut c4, mut c5, mut c6, mut c7] = *acc;
        macro_rules! row {
            ($cr:ident, $r:literal, $p:ident, $bp:ident) => {
                let av = rows_a[$r][$p];
                for jj in 0..W {
                    $cr[jj] = if FMA {
                        av.mul_add($bp[jj], $cr[jj])
                    } else {
                        $cr[jj].add(av.mul($bp[jj]))
                    };
                }
            };
        }
        for p in 0..k {
            let bp = &b_panel[p * W..p * W + W];
            row!(c0, 0, p, bp);
            row!(c1, 1, p, bp);
            row!(c2, 2, p, bp);
            row!(c3, 3, p, bp);
            row!(c4, 4, p, bp);
            row!(c5, 5, p, bp);
            row!(c6, 6, p, bp);
            row!(c7, 7, p, bp);
        }
        *acc = [c0, c1, c2, c3, c4, c5, c6, c7];
    } else {
        for p in 0..k {
            let bp = &b_panel[p * W..p * W + W];
            for r in 0..a_rows {
                let av = a_band[(i_local + r) * stride + p];
                for jj in 0..W {
                    acc[r][jj] = if FMA {
                        av.mul_add(bp[jj], acc[r][jj])
                    } else {
                        acc[r][jj].add(av.mul(bp[jj]))
                    };
                }
            }
        }
    }
}

/// Computes one output row band of `sum_t a_band_t x packed_t` with the
/// register-tiled micro-kernel. Every `a_band_t` covers the same
/// `band_rows` rows (with its own inner dimension `packed_t.k`); `out_band`
/// is `band_rows * n`, zero-initialized by the caller.
///
/// Loop order: row tiles outer, panels inner, so each `MR`-row tile of `A`
/// stays hot in L1 while the packed `B` panels stream from L2.
#[inline(always)]
fn packed_band_impl<T: Num, const FMA: bool>(
    terms: &[BandTerm<T>],
    band_rows: usize,
    n: usize,
    out_band: &mut [T],
) {
    if panel_width(n) == NR {
        packed_band_tiles::<T, FMA, NR>(terms, band_rows, n, out_band);
    } else {
        packed_band_tiles::<T, FMA, { NR / 2 }>(terms, band_rows, n, out_band);
    }
}

/// [`packed_band_impl`] over panels `W` columns wide.
#[inline(always)]
fn packed_band_tiles<T: Num, const FMA: bool, const W: usize>(
    terms: &[BandTerm<T>],
    band_rows: usize,
    n: usize,
    out_band: &mut [T],
) {
    debug_assert!(terms
        .iter()
        .all(|t| t.width == W && t.panels.len() == n.div_ceil(W) * t.k * W));
    let panels = n.div_ceil(W);
    let mut i0 = 0;
    while i0 < band_rows {
        let rows = MR.min(band_rows - i0);
        for q in 0..panels {
            let j0 = q * W;
            let width = W.min(n - j0);
            let mut acc = [[T::zero(); W]; MR];
            for t in terms {
                let Range { start, end } = t.depth;
                let panel = &t.panel(q)[start * W..end * W];
                let a_band = &t.a_band[start..];
                accumulate_tile::<T, FMA, W>(&mut acc, a_band, t.k, i0, rows, end - start, panel);
            }
            for r in 0..rows {
                let out_row = &mut out_band[(i0 + r) * n + j0..(i0 + r) * n + j0 + width];
                out_row.copy_from_slice(&acc[r][..width]);
            }
        }
        i0 += rows;
    }
}

/// AVX-512 instantiation of the band kernel: 512-bit lanes plus hardware
/// FMA. It runs float products; ring products on the same CPUs take
/// [`packed_band_ring_avx512`] instead.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl,fma")]
fn packed_band_avx512<T: Num>(
    terms: &[BandTerm<T>],
    band_rows: usize,
    n: usize,
    out_band: &mut [T],
) {
    packed_band_impl::<T, true>(terms, band_rows, n, out_band);
}

/// AVX2 + FMA instantiation of the band kernel (256-bit lanes).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn packed_band_avx2<T: Num>(terms: &[BandTerm<T>], band_rows: usize, n: usize, out_band: &mut [T]) {
    packed_band_impl::<T, true>(terms, band_rows, n, out_band);
}

/// Band kernel entry point: dispatches once per call on the CPU features
/// detected at runtime, so release builds need no `target-cpu` flags to
/// reach the wide-vector paths.
fn packed_band_dispatch<T: Num>(
    terms: &[BandTerm<T>],
    band_rows: usize,
    n: usize,
    out_band: &mut [T],
) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vl")
            && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: all enabled features were just detected on this CPU.
            return unsafe { packed_band_avx512(terms, band_rows, n, out_band) };
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: avx2 and fma were just detected on this CPU.
            return unsafe { packed_band_avx2(terms, band_rows, n, out_band) };
        }
    }
    packed_band_impl::<T, false>(terms, band_rows, n, out_band);
}

/// The `Z_{2^64}` band kernel written out in AVX-512F+DQ intrinsics, over
/// the same [`PackedB`] layout: each `MR x NR` tile keeps its accumulators
/// in sixteen zmm registers (two per row), and every `p` step loads one
/// packed `B` row as two vectors, broadcasts `A[r][p]` from each row's
/// stride and adds `vpmullq` products lane-wise. Left to LLVM, the generic
/// kernel's `u64` instantiation gathered the eight strided `A` loads
/// (`vpgatherqq`) and spilled the accumulators.
///
/// A panel with at most eight live columns (`n <= 8`, or the last panel of
/// `n ≡ 1..=8 mod 16`) runs one vector per row and a narrow tile: it loads
/// eight steps of each `A` row in one masked load and spreads step `j` over
/// the lanes with `vpermq`, so `A` reaches `vpmullq` in a register. Written
/// as a per-step broadcast, as the wide tile is, LLVM folds the broadcast
/// into the multiply (`vpmullq zmm, zmm, m64{1to8}`), which ran 3–6x slower
/// than the register form on AVX-512 Xeons; the wide tile shares each
/// broadcast between two multiplies, so LLVM keeps it in a register.
///
/// The terms' inner dimensions are walked as one concatenated `k`, cut
/// into slabs of at most `RING_KC` steps, and each slab's panels into
/// `RING_NC`-wide column blocks: the `B` block a row tile streams (at
/// most 256 KiB) stays in L2 across the band's row tiles, and the `A` tile
/// (`MR x RING_KC`, 16 KiB) in L1 across the block's panels. A fused
/// product whose terms fit one slab (the CNN's `k = 25 + 25`) writes each
/// output tile once; later slabs add into it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn packed_band_ring_avx512(
    terms: &[BandTerm<u64>],
    band_rows: usize,
    n: usize,
    out_band: &mut [u64],
) {
    const RING_KC: usize = 256;
    const RING_NC: usize = 256;
    let mut pieces: Vec<RingPiece> = Vec::new();
    let mut steps_before = 0;
    for t in terms {
        let mut p0 = t.depth.start;
        while p0 < t.depth.end {
            let steps = (RING_KC - steps_before % RING_KC).min(t.depth.end - p0);
            pieces.push((steps_before / RING_KC, t, p0..p0 + steps));
            steps_before += steps;
            p0 += steps;
        }
    }
    let w = panel_width(n);
    let panels = n.div_ceil(w);
    for (s, slab) in pieces.chunk_by(|x, y| x.0 == y.0).enumerate() {
        for q0 in (0..panels).step_by(RING_NC / w) {
            let block = q0..(q0 + RING_NC / w).min(panels);
            let mut i0 = 0;
            while i0 < band_rows {
                let rows = MR.min(band_rows - i0);
                for q in block.clone() {
                    let wide = n - q * w > NR / 2;
                    let tile = RingTile {
                        slab,
                        i0,
                        q,
                        n,
                        w,
                        accumulate: s > 0,
                    };
                    macro_rules! run {
                        ($($r:literal)*) => {
                            match rows {
                                $($r if wide => tile.run::<$r, 2>(out_band),
                                $r => tile.run::<$r, 1>(out_band),)*
                                _ => unreachable!("a row tile has 1..=MR rows"),
                            }
                        };
                    }
                    run!(1 2 3 4 5 6 7 8);
                }
                i0 += rows;
            }
        }
    }
}

/// A run of one term's inner indices inside a slab of
/// [`packed_band_ring_avx512`]: the slab's index, the term, the run.
#[cfg(target_arch = "x86_64")]
type RingPiece<'t, 'a> = (usize, &'t BandTerm<'a, u64>, Range<usize>);

/// One output tile of [`packed_band_ring_avx512`]: rows `i0..` of the band
/// against panel `q` (`w` columns wide), over one slab's pieces.
/// `accumulate` adds into the output rather than overwriting it (every
/// slab but the first).
#[cfg(target_arch = "x86_64")]
struct RingTile<'s, 't, 'a> {
    slab: &'s [RingPiece<'t, 'a>],
    i0: usize,
    q: usize,
    n: usize,
    w: usize,
    accumulate: bool,
}

#[cfg(target_arch = "x86_64")]
impl RingTile<'_, '_, '_> {
    /// Writes the tile's `ROWS x (8·VECS)` result over `out_band`'s live
    /// columns. `VECS` is 2 only when the panel has more than eight live
    /// columns; with 1 the tile is the narrow one.
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    fn run<const ROWS: usize, const VECS: usize>(&self, out_band: &mut [u64]) {
        use std::arch::x86_64::*;
        const LANES: usize = 8;
        // A wide tile's panel is always `NR` wide; as a constant, its `B`
        // stride folds into the load addresses.
        let w = if VECS == 1 { self.w } else { NR };
        let (i0, n) = (self.i0, self.n);
        let j0 = self.q * w;
        let width = w.min(n - j0);
        assert!(VECS * LANES <= w && (VECS - 1) * LANES < width);
        let masks: [__mmask8; VECS] =
            std::array::from_fn(|v| ((1u16 << (width - v * LANES).min(LANES)) - 1) as __mmask8);
        let mut acc = [[_mm512_setzero_si512(); VECS]; ROWS];
        if self.accumulate {
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let row = &out_band[(i0 + r) * n + j0..(i0 + r) * n + j0 + width];
                for (v, c) in acc_r.iter_mut().enumerate() {
                    // SAFETY: `v * LANES < width` (asserted above) and
                    // `row` holds `width` elements, so the unmasked lanes
                    // from `v * LANES` lie inside it; masked-off lanes are
                    // not accessed.
                    *c = unsafe {
                        _mm512_maskz_loadu_epi64(masks[v], row.as_ptr().add(v * LANES).cast())
                    };
                }
            }
        }
        for (_, term, depth) in self.slab {
            let k = term.k;
            let a = &term.a_band[i0 * k..(i0 + ROWS) * k];
            let b = term.panel(self.q);
            if VECS == 1 {
                // The narrow tile: eight steps per round, `A` in registers.
                let mut p0 = depth.start;
                while p0 < depth.end {
                    let steps = (depth.end - p0).min(LANES);
                    let live = ((1u16 << steps) - 1) as __mmask8;
                    let a8: [__m512i; ROWS] = std::array::from_fn(|r| {
                        // SAFETY: slicing `a` above checked that it holds
                        // `ROWS * k` elements, `r < ROWS` and
                        // `p0 + steps <= depth.end <= k`, so the `steps`
                        // live lanes from `r * k + p0` are in bounds;
                        // masked-off lanes are not accessed.
                        unsafe { _mm512_maskz_loadu_epi64(live, a.as_ptr().add(r * k + p0).cast()) }
                    });
                    for j in 0..steps {
                        // SAFETY: `panel` checked that `b` holds `k * w`
                        // elements and `p0 + j < k`, so the eight lanes
                        // read from `(p0 + j) * w` are in bounds (`w >= 8`).
                        let bv = unsafe { _mm512_loadu_si512(b.as_ptr().add((p0 + j) * w).cast()) };
                        let lane = _mm512_set1_epi64(j as i64);
                        for (acc_r, &ar) in acc.iter_mut().zip(&a8) {
                            let av = _mm512_permutexvar_epi64(lane, ar);
                            acc_r[0] = _mm512_add_epi64(acc_r[0], _mm512_mullo_epi64(av, bv));
                        }
                    }
                    p0 += steps;
                }
                continue;
            }
            for p in depth.clone() {
                let mut bv = [_mm512_setzero_si512(); VECS];
                for (v, bv) in bv.iter_mut().enumerate() {
                    // SAFETY: `panel` checked that `b` holds `k * w`
                    // elements, `p < k` and `v * LANES + LANES <= w`
                    // (asserted above), so the eight lanes read from
                    // `p * w + v * LANES` are in bounds.
                    *bv = unsafe { _mm512_loadu_si512(b.as_ptr().add(p * w + v * LANES).cast()) };
                }
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    // SAFETY: slicing `a` above checked that it holds
                    // `ROWS * k` elements; `r < ROWS`, and `p < k` since a
                    // slab's runs lie in `0..k`. (A checked index here ran
                    // the `k = 25` tiles ~1.5x slower.)
                    let av = _mm512_set1_epi64(unsafe { *a.as_ptr().add(r * k + p) } as i64);
                    for (c, &b) in acc_r.iter_mut().zip(&bv) {
                        *c = _mm512_add_epi64(*c, _mm512_mullo_epi64(av, b));
                    }
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            let row = &mut out_band[(i0 + r) * n + j0..(i0 + r) * n + j0 + width];
            for (v, &c) in acc_r.iter().enumerate() {
                // SAFETY: as for the loads above.
                unsafe {
                    _mm512_mask_storeu_epi64(row.as_mut_ptr().add(v * LANES).cast(), masks[v], c)
                };
            }
        }
    }
}

/// Monomorphic pinned copy of the `Z_{2^64}` kernel. Generic
/// monomorphizations are re-emitted by every downstream crate, and their
/// optimization quality varies with that crate's codegen-unit layout —
/// binaries were observed running the same source at half speed. Routing
/// the ring carriers through a concrete function compiled *here* gives
/// every binary the same vetted codegen. Hosts with AVX-512F+DQ run the
/// explicit [`packed_band_ring_avx512`]; the others the AVX2 or scalar
/// instantiation of the generic kernel.
#[inline(never)]
fn packed_band_u64(terms: &[BandTerm<u64>], band_rows: usize, n: usize, out_band: &mut [u64]) {
    #[cfg(target_arch = "x86_64")]
    if host_caps().avx512_ring {
        // SAFETY: avx512f and avx512dq were detected on this CPU.
        return unsafe { packed_band_ring_avx512(terms, band_rows, n, out_band) };
    }
    packed_band_dispatch(terms, band_rows, n, out_band);
}

/// Band kernel for any carrier: ring carriers take the pinned
/// [`packed_band_u64`], every other carrier [`packed_band_dispatch`].
fn packed_band<T: Num>(terms: &[BandTerm<T>], band_rows: usize, n: usize, out_band: &mut [T]) {
    if T::WRAPPING_U64 {
        // SAFETY: implementing `Num` is unsafe, and `WRAPPING_U64 = true`
        // obliges the implementor to be `#[repr(transparent)]` over `u64`
        // with exactly the wrapping ring operations (u64 itself and the mpc
        // crate's Fixed64), so the u64 kernel computes the same function.
        // Only element slices are reinterpreted — the `BandTerm`s are
        // rebuilt field by field, never transmuted as structs.
        let (terms, out_band) = unsafe {
            (
                cast_terms::<T, u64>(terms),
                cast_slice_mut::<T, u64>(out_band),
            )
        };
        return packed_band_u64(&terms, band_rows, n, out_band);
    }
    packed_band_dispatch(terms, band_rows, n, out_band);
}

/// Serial register-tiled GEMM: packs `B`, then runs the micro-kernel.
pub fn gemm_packed<T: Num>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_shapes(a, b);
    packed_sum_on(&[(a, &pack_b(b))], Spread::Serial)
}

/// Register-tiled GEMM, spread over the process-global thread pool where
/// [`spread_over_pool`] says so: it is the one-term [`gemm_packed_sum`], so
/// below that floor it runs the serial kernel, as [`gemm_packed`] does.
/// `B` is packed once; all bands (and all pool workers) read the same
/// panels. The GEMM bench ladder's `packed_parallel` rows therefore time
/// `gemm_auto`'s own packed path under the floor, not a banded one.
pub fn gemm_packed_parallel<T: Num>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_shapes(a, b);
    gemm_packed_sum(&[(a, &pack_b(b))])
}

/// Evaluates `sum_t A_t x B_t` against pre-packed right-hand sides, without
/// materializing any concatenation. All terms must agree on output shape.
///
/// This is the fused Eq. 8 workhorse: `[L | E] x [F ; Bi]` is exactly
/// `L x F + E x Bi`, so the caller passes `[(L, packed_f), (E, packed_bi)]`
/// and the shared `packed_f` is reused by both servers. Runs serially, in
/// row bands or in depth parts on the global pool, as [`spread_over_pool`]
/// picks.
pub(crate) fn gemm_packed_sum<T: Num>(terms: &[(&Matrix<T>, &PackedB<T>)]) -> Matrix<T> {
    let (m, n) = terms
        .first()
        .map(|(a, pb)| (a.rows(), pb.n))
        .expect("gemm_packed_sum needs at least one term");
    let mut k = 0usize;
    for (a, pb) in terms {
        assert_eq!(
            a.cols(),
            pb.k,
            "gemm shape mismatch: {:?} x packed {:?}",
            a.shape(),
            (pb.k, pb.n)
        );
        assert_eq!(
            (a.rows(), pb.n),
            (m, n),
            "gemm_packed_sum terms disagree on output shape"
        );
        k = k.saturating_add(pb.k);
    }
    let spread = spread_over_pool::<T>((m, k, n), workers_here(), host_caps().avx512_ring);
    packed_sum_on(terms, spread)
}

/// How [`packed_sum_on`] runs a register-tiled product.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Spread {
    /// One band on the calling thread.
    Serial,
    /// Output row bands, one per pool part.
    Rows,
    /// The terms' concatenated inner dimension cut into one part per pool
    /// part, each accumulated into its own `m x n` partial, and the
    /// partials added. It moves the summation order, so ring carriers
    /// only: wrapping sums are exact in any order.
    Depth,
}

/// [`gemm_packed_sum`]'s evaluation with the spread chosen by the caller,
/// so tests can drive every branch on any pool. The terms are already
/// validated.
pub(crate) fn packed_sum_on<T: Num>(
    terms: &[(&Matrix<T>, &PackedB<T>)],
    spread: Spread,
) -> Matrix<T> {
    let (m, n) = (terms[0].0.rows(), terms[0].1.n);
    let mut out = Matrix::zeros(m, n);
    if m == 0 || n == 0 {
        return out;
    }
    let bands: Vec<BandTerm<T>> = terms
        .iter()
        .map(|&(a, pb)| BandTerm::new(a.as_slice(), pb))
        .collect();
    match spread {
        Spread::Serial => packed_band(&bands, m, n, out.as_mut_slice()),
        Spread::Rows => for_each_chunk_mut_pooled(out.as_mut_slice(), n, |offset, out_band| {
            debug_assert_eq!(offset % n, 0);
            debug_assert_eq!(out_band.len() % n, 0);
            let row0 = offset / n;
            let band_rows = out_band.len() / n;
            let band_terms: Vec<BandTerm<T>> = bands
                .iter()
                .map(|t| BandTerm {
                    a_band: &t.a_band[row0 * t.k..(row0 + band_rows) * t.k],
                    ..t.clone()
                })
                .collect();
            packed_band(&band_terms, band_rows, n, out_band);
        }),
        Spread::Depth => {
            assert!(T::WRAPPING_U64, "a depth split reorders a float sum");
            // One part per worker: the caller runs the first, and a pool
            // worker calling in runs every part in turn. The rule never
            // picks this on one worker; a forced call still cuts two parts.
            let parts = host_workers().max(2);
            let depth: usize = bands.iter().map(|t| t.k).sum();
            let mut partials = vec![T::zero(); parts * m * n];
            for_each_chunk_mut_pooled(&mut partials, m * n, |offset, chunk| {
                for (j, partial) in chunk.chunks_exact_mut(m * n).enumerate() {
                    let part = offset / (m * n) + j;
                    let span = depth * part / parts..depth * (part + 1) / parts;
                    packed_band(&depth_part(&bands, span), m, n, partial);
                }
            });
            for partial in partials.chunks_exact(m * n) {
                for (o, &x) in out.as_mut_slice().iter_mut().zip(partial) {
                    *o = o.add(x);
                }
            }
        }
    }
    out
}

/// The terms restricted to `span` of their concatenated inner dimension:
/// each term keeps the steps of its own that fall inside it.
fn depth_part<'a, T: Num>(terms: &[BandTerm<'a, T>], span: Range<usize>) -> Vec<BandTerm<'a, T>> {
    let mut before = 0;
    let mut part = Vec::new();
    for t in terms {
        let start = span.start.clamp(before, before + t.k) - before;
        let end = span.end.clamp(before, before + t.k) - before;
        if start < end {
            part.push(BandTerm {
                depth: start..end,
                ..t.clone()
            });
        }
        before += t.k;
    }
    part
}

/// A right-hand side prepared for [`gemm_packed_sum_auto`], in one of two
/// forms picked by [`pack_b_auto`]: the column panels of the
/// register-tiled kernel, or — for a product under [`AUTO_PACK_FLOPS`] —
/// `B` itself, borrowed, for the blocked kernel.
///
/// Secondary operands of a fused sum are prepared with
/// [`AutoPackedB::pack_matching`], which takes the form of the operand it
/// is called on.
#[derive(Clone, Debug)]
pub struct AutoPackedB<'b, T: Num>(AutoForm<'b, T>);

#[derive(Clone, Debug)]
enum AutoForm<'b, T: Num> {
    /// `B` as given, evaluated by the blocked kernel.
    Unpacked(&'b Matrix<T>),
    /// `B` packed into the register-tiled kernel's column panels.
    Panels(PackedB<T>),
}

impl<'b, T: Num> AutoPackedB<'b, T> {
    /// Inner dimension (rows of `B`).
    pub fn k(&self) -> usize {
        match &self.0 {
            AutoForm::Unpacked(b) => b.rows(),
            AutoForm::Panels(pb) => pb.k,
        }
    }

    /// Columns of `B`.
    pub fn n(&self) -> usize {
        match &self.0 {
            AutoForm::Unpacked(b) => b.cols(),
            AutoForm::Panels(pb) => pb.n,
        }
    }

    /// Whether `B` was packed into column panels (`false`: it is kept as
    /// given for the blocked kernel).
    pub fn is_packed(&self) -> bool {
        matches!(self.0, AutoForm::Panels(_))
    }

    /// Prepares another right-hand side to join the same
    /// [`gemm_packed_sum_auto`] call, in this operand's form (the fused
    /// Eq. 8 product prepares the shared `F` first, then each server's
    /// `B_i` to match).
    pub fn pack_matching<'c>(&self, b: &'c Matrix<T>) -> AutoPackedB<'c, T> {
        AutoPackedB(match self.0 {
            AutoForm::Unpacked(_) => AutoForm::Unpacked(b),
            AutoForm::Panels(_) => AutoForm::Panels(pack_b(b)),
        })
    }
}

/// Prepares `b` for [`gemm_packed_sum_auto`] against a left-hand side of
/// `m_hint` rows.
///
/// `m_hint` picks the form: a product with `m_hint·k·n <`
/// [`AUTO_PACK_FLOPS`] keeps `b` unpacked for the blocked kernel, since
/// zero-filling panels for it costs more than the product (a served
/// `1 x 2048 x 1` request would pad `b` to a `2048 x 16` panel). Every
/// other product is packed into column panels.
pub fn pack_b_auto<T: Num>(b: &Matrix<T>, m_hint: usize) -> AutoPackedB<'_, T> {
    let flops = m_hint.saturating_mul(b.rows()).saturating_mul(b.cols());
    AutoPackedB(if flops < AUTO_PACK_FLOPS {
        AutoForm::Unpacked(b)
    } else {
        AutoForm::Panels(pack_b(b))
    })
}

/// `sum_t A_t x B_t` over prepared right-hand sides, accumulated into one
/// output. Packed terms run [`gemm_packed_sum`] (spread over the pool as
/// [`spread_over_pool`] says); unpacked terms add onto its result
/// through the blocked kernel.
pub fn gemm_packed_sum_auto<T: Num>(terms: &[(&Matrix<T>, &AutoPackedB<'_, T>)]) -> Matrix<T> {
    let (m, n) = terms
        .first()
        .map(|(a, b)| (a.rows(), b.n()))
        .expect("gemm_packed_sum_auto needs at least one term");
    let panels: Vec<(&Matrix<T>, &PackedB<T>)> = terms
        .iter()
        .filter_map(|&(a, b)| match &b.0 {
            AutoForm::Panels(pb) => Some((a, pb)),
            AutoForm::Unpacked(_) => None,
        })
        .collect();
    let mut out = if panels.is_empty() {
        Matrix::zeros(m, n)
    } else {
        gemm_packed_sum(&panels)
    };
    for &(a, b) in terms {
        if let AutoForm::Unpacked(b) = b.0 {
            assert_shapes(a, b);
            assert_eq!(
                (a.rows(), b.cols()),
                (m, n),
                "gemm_packed_sum terms disagree on output shape"
            );
            gemm_band(a.as_slice(), m, a.cols(), b, out.as_mut_slice());
        }
    }
    out
}

/// The production GEMM: the one-term [`gemm_packed_sum_auto`], so a plain
/// product and the fused Eq. 8 sum take their kernel from the same two
/// floors, mirroring the paper's profiling-guided adaptive placement:
///
/// - `m·k·n <` [`AUTO_PACK_FLOPS`]: the blocked kernel — packing cannot be
///   amortized and the zero-skip helps sparse operands;
/// - over the [`spread_over_pool`] floor: the register-tiled kernel in row
///   bands or depth parts on the persistent pool;
/// - otherwise the serial register-tiled kernel.
pub fn gemm_auto<T: Num>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_shapes(a, b);
    gemm_packed_sum_auto(&[(a, &pack_b_auto(b, a.rows()))])
}

/// How a register-tiled `m x k x n` product runs on a pool of `workers`
/// (`k` sums a fused product's terms): the rule [`gemm_packed_sum`]
/// reads, so `gemm_auto` and the fused Eq. 8 path spread the same
/// products. With `avx512_ring` (the explicit ring kernel is live) ring
/// products spread from [`RING_PARALLEL_FLOPS`]: in depth parts when `k`
/// is at least `workers` times `m` (each row band would stream all of `B`,
/// while a depth part streams its share of `A` and `B` and writes one
/// `m x n` partial), else in row bands when the output has two row tiles.
/// Every other product bands from [`AUTO_PARALLEL_FLOPS`].
fn spread_over_pool<T: Num>(
    (m, k, n): (usize, usize, usize),
    workers: usize,
    avx512_ring: bool,
) -> Spread {
    let flops = m.saturating_mul(k).saturating_mul(n);
    if workers < 2 {
        Spread::Serial
    } else if T::WRAPPING_U64 && avx512_ring {
        if flops < RING_PARALLEL_FLOPS {
            Spread::Serial
        } else if k >= m.saturating_mul(workers) {
            Spread::Depth
        } else if m >= 2 * MR {
            Spread::Rows
        } else {
            Spread::Serial
        }
    } else if flops >= AUTO_PARALLEL_FLOPS {
        Spread::Rows
    } else {
        Spread::Serial
    }
}

/// The pool's configured worker count, read once: `configured_workers()`
/// re-reads the environment and the cgroup CPU quota (~20 µs, more than a
/// served request's products take), and asking the pool instead would
/// start it on a path that never uses it.
fn host_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(configured_workers)
}

/// The pool [`spread_over_pool`] reads on the calling thread: one worker
/// inside a pool region (a side of a [`psml_parallel::both`], or a pool
/// worker), where a product keeps to its thread and so answers
/// [`Spread::Serial`]; else [`host_workers`].
fn workers_here() -> usize {
    if in_pool_region() {
        1
    } else {
        host_workers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small-integer floats: every product and partial sum below is exact
    /// in `f64`, so each kernel's summation order gives the same bits.
    fn fmat(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, |r, c| {
            let x = (r as u64)
                .wrapping_mul(31)
                .wrapping_add(c as u64)
                .wrapping_mul(seed | 1);
            ((x % 17) as f64) - 8.0
        })
    }

    fn umat(rows: usize, cols: usize, seed: u64) -> Matrix<u64> {
        Matrix::from_fn(rows, cols, |r, c| {
            (r as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(c as u64)
                .wrapping_mul(seed | 1)
        })
    }

    #[test]
    fn identity_is_neutral() {
        let a = fmat(5, 5, 3);
        let id = Matrix::from_fn(5, 5, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(gemm_blocked(&a, &id), a);
        assert_eq!(gemm_blocked(&id, &a), a);
    }

    #[test]
    fn blocked_matches_naive_f64() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 4, 5),
            (17, 33, 9),
            (64, 64, 64),
            (65, 70, 63),
        ] {
            let a = fmat(m, k, 7);
            let b = fmat(k, n, 11);
            assert_eq!(gemm_blocked(&a, &b), gemm_naive(&a, &b), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn blocked_matches_naive_ring_exactly() {
        for &(m, k, n) in &[(4, 4, 4), (13, 29, 7), (65, 31, 33)] {
            let a = umat(m, k, 5);
            let b = umat(k, n, 9);
            assert_eq!(gemm_naive(&a, &b), gemm_blocked(&a, &b));
        }
    }

    #[test]
    fn packed_matches_naive_ring_exactly_on_edge_shapes() {
        // 1x1x1, MR/NR non-divisible shapes, skinny row/col vectors, and
        // shapes around the tile edges.
        for &(m, k, n) in &[
            (1, 1, 1),
            (MR - 1, 3, NR - 1),
            (MR + 1, 5, NR + 1),
            (2 * MR + 3, 17, 3 * NR + 5),
            (1, 64, 1),
            (1, 7, 33),
            (33, 7, 1),
            (64, 1, 64),
            (13, 29, 7),
            (65, 31, 33),
        ] {
            let a = umat(m, k, 5);
            let b = umat(k, n, 9);
            let expect = gemm_naive(&a, &b);
            assert_eq!(gemm_packed(&a, &b), expect, "packed {m}x{k}x{n}");
            assert_eq!(
                gemm_packed_parallel(&a, &b),
                expect,
                "packed-parallel {m}x{k}x{n}"
            );
            assert_eq!(gemm_auto(&a, &b), expect, "auto {m}x{k}x{n}");
        }
    }

    #[test]
    fn packed_matches_naive_f64() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 4, 5),
            (17, 33, 9),
            (64, 64, 64),
            (65, 70, 63),
        ] {
            let a = fmat(m, k, 7);
            let b = fmat(k, n, 11);
            let naive = gemm_naive(&a, &b);
            assert_eq!(gemm_packed(&a, &b), naive, "packed {m}x{k}x{n}");
            assert_eq!(gemm_auto(&a, &b), naive, "auto {m}x{k}x{n}");
        }
    }

    #[test]
    fn packed_empty_dimensions_yield_zeros() {
        let a = Matrix::<u64>::zeros(0, 5);
        let b = Matrix::<u64>::zeros(5, 3);
        assert_eq!(gemm_packed(&a, &b).shape(), (0, 3));
        assert_eq!(gemm_auto(&a, &b).shape(), (0, 3));
        let a = Matrix::<u64>::zeros(4, 0);
        let b = Matrix::<u64>::zeros(0, 3);
        assert_eq!(gemm_packed(&a, &b), Matrix::zeros(4, 3));
        assert_eq!(gemm_auto(&a, &b), Matrix::zeros(4, 3));
        let a = Matrix::<u64>::zeros(4, 5);
        let b = Matrix::<u64>::zeros(5, 0);
        assert_eq!(gemm_packed(&a, &b).shape(), (4, 0));
    }

    #[test]
    fn pack_b_writes_b_and_zeroes_only_the_pad_columns() {
        // Half-width panels (`n <= 8`), and full panels whose last one is
        // short by 1..=15 columns.
        let narrow = 1..=NR / 2;
        let short = (1..NR).flat_map(|r| [NR + r, 2 * NR + r]);
        for n in narrow.chain(short) {
            for k in [1, 5] {
                // No element of `b` is zero, so a missed write shows.
                let b = umat(k, n, 9).map(|x| x | 1);
                let packed = pack_b(&b);
                let w = panel_width(n);
                assert_eq!(packed.data.len(), n.div_ceil(w) * k * w, "n {n}");
                for (idx, &x) in packed.data.iter().enumerate() {
                    let (q, p, c) = (idx / (k * w), idx / w % k, idx % w);
                    let j = q * w + c;
                    let want = if j < n { b[(p, j)] } else { 0 };
                    assert_eq!(x, want, "n {n}, k {k}, panel {q}, row {p}, column {c}");
                }
            }
        }
    }

    #[test]
    fn products_inside_both_keep_to_their_thread() {
        // Over the spreading floor on any pool of two or more workers.
        let (a, b) = (umat(64, 8192, 1), umat(8192, 64, 2));
        let want = gemm_naive(&a, &b);
        let side = || (workers_here(), gemm_auto(&a, &b));
        let ((w0, c0), (w1, c1)) = psml_parallel::both(side, side);
        assert_eq!((w0, w1), (1, 1));
        assert!(c0 == want && c1 == want);
        assert_eq!(workers_here(), host_workers());
    }

    #[test]
    fn packed_b_reuse_across_left_operands() {
        let b = umat(23, 19, 3);
        let packed = pack_b(&b);
        for seed in [1, 7, 13] {
            let a = umat(11, 23, seed);
            assert_eq!(gemm_packed_sum(&[(&a, &packed)]), gemm_naive(&a, &b));
        }
    }

    #[test]
    fn packed_sum_equals_concatenated_product() {
        // [L | E] x [F ; B] == L x F + E x B — the fused Eq. 8 identity the
        // protocol relies on, evaluated without materializing either concat.
        let l = umat(9, 6, 1);
        let e = umat(9, 4, 2);
        let f = umat(6, 11, 3);
        let b = umat(4, 11, 4);
        let fused = gemm_packed_sum(&[(&l, &pack_b(&f)), (&e, &pack_b(&b))]);
        let expect = gemm_naive(&l, &f).add(&gemm_naive(&e, &b));
        assert_eq!(fused, expect);
        let concat = gemm_naive(&l.hconcat(&e), &f.vconcat(&b));
        assert_eq!(fused, concat);
    }

    #[test]
    fn auto_dispatch_covers_every_kernel() {
        // One shape per kernel the rule picks; all must agree with the
        // oracle.
        for &(m, k, n) in &[(8, 8, 8), (48, 48, 48), (160, 160, 160)] {
            let a = umat(m, k, 3);
            let b = umat(k, n, 7);
            assert_eq!(gemm_auto(&a, &b), gemm_naive(&a, &b), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn skinny_shapes() {
        // Column vector, row vector, outer product.
        let col = fmat(8, 1, 3);
        let row = fmat(1, 8, 5);
        let outer = gemm_blocked(&col, &row);
        assert_eq!(outer.shape(), (8, 8));
        let inner = gemm_blocked(&row, &col);
        assert_eq!(inner.shape(), (1, 1));
        let naive = gemm_naive(&row, &col);
        assert_eq!(inner[(0, 0)], naive[(0, 0)]);
    }

    #[test]
    fn empty_dimension_yields_zeros() {
        let a = Matrix::<f64>::zeros(0, 5);
        let b = Matrix::<f64>::zeros(5, 3);
        assert_eq!(gemm_blocked(&a, &b).shape(), (0, 3));
        assert_eq!(gemm_auto(&a, &b).shape(), (0, 3));
        let a = Matrix::<f64>::zeros(4, 0);
        let b = Matrix::<f64>::zeros(0, 3);
        assert_eq!(gemm_auto(&a, &b), Matrix::zeros(4, 3));
    }

    #[test]
    #[should_panic(expected = "gemm shape mismatch")]
    fn mismatched_inner_dims_panic() {
        let _ = gemm_blocked(&fmat(2, 3, 1), &fmat(4, 2, 1));
    }

    #[test]
    #[should_panic(expected = "gemm shape mismatch")]
    fn packed_mismatched_inner_dims_panic() {
        let _ = gemm_packed(&fmat(2, 3, 1), &fmat(4, 2, 1));
    }

    #[test]
    #[should_panic(expected = "gemm shape mismatch")]
    fn auto_mismatched_inner_dims_panic() {
        let _ = gemm_auto(&umat(2, 3, 1), &umat(4, 2, 1));
    }

    #[test]
    fn packed_sum_auto_matches_naive() {
        // The fused Eq. 8 sum through `pack_b_auto` / `pack_matching` must
        // agree bit-for-bit with the oracle in both forms: `9 x 40 x 11`
        // is under the packing floor, `90 x 40 x 11` over it.
        for m in [9, 90] {
            let l = umat(m, 40, 1);
            let e = umat(m, 33, 2);
            let f = umat(40, 11, 3);
            let b = umat(33, 11, 4);
            let expect = gemm_naive(&l, &f).add(&gemm_naive(&e, &b));
            let f_auto = pack_b_auto(&f, m);
            let b_auto = f_auto.pack_matching(&b);
            assert_eq!(gemm_packed_sum_auto(&[(&l, &f_auto), (&e, &b_auto)]), expect);
            assert_eq!((f_auto.k(), f_auto.n()), (40, 11));
            assert_eq!(f_auto.is_packed(), m * 40 * 11 >= AUTO_PACK_FLOPS, "m = {m}");
            assert_eq!(b_auto.is_packed(), f_auto.is_packed(), "m = {m}");
        }
    }

    #[test]
    fn packed_sum_auto_adds_mixed_forms() {
        // Terms prepared separately may disagree in form; each is
        // evaluated in its own and all land in one output.
        let l = umat(2, 40, 1);
        let e = umat(2, 900, 2);
        let f = umat(40, 20, 3);
        let b = umat(900, 20, 4);
        let (f_auto, b_auto) = (pack_b_auto(&f, 2), pack_b_auto(&b, 2));
        assert!(!f_auto.is_packed() && b_auto.is_packed());
        let expect = gemm_naive(&l, &f).add(&gemm_naive(&e, &b));
        assert_eq!(gemm_packed_sum_auto(&[(&l, &f_auto), (&e, &b_auto)]), expect);
        assert_eq!(gemm_packed_sum_auto(&[(&e, &b_auto), (&l, &f_auto)]), expect);
    }

    /// The kernel the dispatch rule picks for one product.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Kernel {
        /// `B` left unpacked, the blocked kernel.
        Blocked,
        /// The register-tiled kernel on the calling thread.
        Serial,
        /// The register-tiled kernel in row bands over the pool.
        Rows,
        /// The register-tiled kernel in depth parts over the pool, their
        /// partials added.
        Depth,
    }

    /// `(m, k, n, kernel on 2 and 4 workers with the AVX-512 ring kernel,
    /// without it)` for a ring product. Fused Eq. 8 products count both
    /// terms' k. On one worker every `Rows` or `Depth` below is `Serial`;
    /// `Blocked` does not depend on the worker count. A float product
    /// always takes the kernel of the last column.
    const SHAPE_CLASSES: [(usize, usize, usize, Kernel, Kernel); 13] = {
        use Kernel::*;
        [
            // MLP first layer, fused [L|E] x [F;B_i]: long k.
            (128, 6272, 128, Depth, Rows),
            // MLP first-layer weight gradient, fused.
            (3136, 256, 128, Rows, Rows),
            // CNN dense layer, fused: under the generic parallel cutover.
            (64, 9216, 64, Depth, Serial),
            // CNN im2col product, fused.
            (36864, 50, 8, Rows, Serial),
            // CNN conv weight gradient, fused: four row tiles, long k.
            (25, 73728, 8, Depth, Serial),
            // TCP session (batch 8) first layer, fused: one row tile.
            (8, 4096, 128, Depth, Serial),
            // MLP hidden layer, fused: under the ring spreading floor.
            (128, 256, 64, Serial, Serial),
            // Exactly the ring spreading floor, and just under it.
            (64, 256, 256, Depth, Serial),
            (64, 256, 255, Serial, Serial),
            // Under the ring spreading floor.
            (32, 64, 32, Serial, Serial),
            // One served request.
            (1, 2048, 1, Blocked, Blocked),
            // Cubes past every workload product.
            (512, 512, 512, Rows, Rows),
            (1024, 1024, 1024, Rows, Rows),
        ]
    };

    #[test]
    fn dispatch_table_over_workload_shape_classes() {
        // The rule `gemm_packed_sum_auto` reads for a one-term product:
        // `pack_b_auto`'s form, then `spread_over_pool`.
        fn check<T: Num>(carrier: &str) {
            for (m, k, n, simd, plain) in SHAPE_CLASSES {
                let packed = pack_b_auto(&Matrix::<T>::zeros(k, n), m).is_packed();
                for workers in [1, 2, 4] {
                    for avx512_ring in [true, false] {
                        let kernel = if !packed {
                            Kernel::Blocked
                        } else {
                            match spread_over_pool::<T>((m, k, n), workers, avx512_ring) {
                                Spread::Serial => Kernel::Serial,
                                Spread::Rows => Kernel::Rows,
                                Spread::Depth => Kernel::Depth,
                            }
                        };
                        let column = if T::WRAPPING_U64 && avx512_ring { simd } else { plain };
                        let want = match column {
                            Kernel::Rows | Kernel::Depth if workers < 2 => Kernel::Serial,
                            kernel => kernel,
                        };
                        let case = format!("{carrier} {m}x{k}x{n} workers {workers}");
                        assert_eq!(kernel, want, "{case} avx-512 ring kernel {avx512_ring}");
                    }
                }
            }
        }
        check::<u64>("u64");
        check::<f64>("f64");
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "full-size shape classes take minutes unoptimized; ci.sh runs it in release"
    )]
    fn auto_is_the_one_term_sum_on_every_shape_class() {
        // Bit for bit on both carriers, with this process's pool and probe
        // picking the kernel; the f64 data are small integers, so every
        // summation order gives the same bits. The naive oracle (~10 s
        // alone on `1024^3`) checks 64 output rows spread over each
        // product, the first and last included.
        fn check<T: Num>(make: fn(usize, usize, u64) -> Matrix<T>) {
            for (m, k, n, ..) in SHAPE_CLASSES {
                let (a, b) = (make(m, k, 3), make(k, n, 5));
                let auto = gemm_auto(&a, &b);
                let sum = gemm_packed_sum_auto(&[(&a, &pack_b_auto(&b, m))]);
                assert_eq!(auto, sum, "{m}x{k}x{n} one-term sum");
                let rows: Vec<usize> = (0..m).step_by(m.div_ceil(64)).chain([m - 1]).collect();
                let pick = |x: &Matrix<T>| Matrix::from_fn(rows.len(), x.cols(), |i, c| x[(rows[i], c)]);
                assert_eq!(pick(&auto), gemm_naive(&pick(&a), &b), "{m}x{k}x{n} naive");
            }
        }
        check(umat);
        check(fmat);
    }

    #[test]
    fn portable_band_kernel_matches_naive_on_u64() {
        // `packed_band_u64` takes the AVX-512 kernel wherever it can, so
        // call the generic kernel behind it directly — its dispatcher, and
        // the AVX2 and scalar builds hosts without AVX-512 run: the
        // fallback stays tested on hosts with it.
        type Band = fn(&[BandTerm<u64>], usize, usize, &mut [u64]);
        let mut kernels: Vec<(&str, Band)> = vec![
            ("dispatch", packed_band_dispatch::<u64>),
            ("scalar", packed_band_impl::<u64, false>),
        ];
        #[cfg(target_arch = "x86_64")]
        if host_caps().avx2 {
            // SAFETY: avx2 and fma were detected on this CPU.
            kernels.push(("avx2", |t, rows, n, out| unsafe {
                packed_band_avx2(t, rows, n, out)
            }));
        }
        for &(m, k, n) in &[
            (1, 1, 1),
            (MR + 3, 25, NR + 9),
            (2 * MR, 50, 8),
            (MR + 1, 19, 5),
            (5, 0, 3),
        ] {
            let a = umat(m, k, 3);
            let b = umat(k, n, 5);
            let packed = pack_b(&b);
            for (name, kernel) in &kernels {
                let mut out = Matrix::zeros(m, n);
                kernel(
                    &[BandTerm::new(a.as_slice(), &packed)],
                    m,
                    n,
                    out.as_mut_slice(),
                );
                assert_eq!(out, gemm_naive(&a, &b), "{name} {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn distributivity_in_ring() {
        // (A + A') x B == AxB + A'xB exactly in Z_2^64 — the algebraic fact
        // the whole secret-sharing protocol rests on.
        let a1 = umat(9, 9, 21);
        let a2 = umat(9, 9, 23);
        let b = umat(9, 9, 25);
        let lhs = gemm_blocked(&a1.add(&a2), &b);
        let rhs = gemm_blocked(&a1, &b).add(&gemm_blocked(&a2, &b));
        assert_eq!(lhs, rhs);
    }
}
