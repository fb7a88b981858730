//! General matrix multiply kernels.
//!
//! A hierarchy of implementations with identical results, from oracle to
//! production path:
//!
//! - [`gemm_naive`]: the textbook triple loop, used as the test oracle;
//! - [`gemm_blocked`]: i-k-j loop order with cache tiling and a zero-skip
//!   for sparse operands — the small-matrix kernel;
//! - [`gemm_packed`]: B packed once into contiguous [`PackedB`] column
//!   panels, driven through an unrolled `MR x NR` register-tile
//!   micro-kernel — the large-matrix serial kernel;
//! - [`gemm_packed_parallel`]: [`gemm_packed`] split over output row bands
//!   on the persistent process-global thread pool;
//! - [`gemm_auto`]: the production dispatcher — picks one of the above by
//!   problem size, mirroring the paper's profiling-guided adaptive
//!   placement; large ring products on verified-AMX hosts route to the
//!   limb-split quantized kernel ([`crate::quant`]) instead, with
//!   bit-identical results. `Matrix::matmul`, triple generation, the fused
//!   Eq. 8 evaluation and the gpu-sim functional kernel all route through
//!   it.
//!
//! [`gemm_packed_sum`] evaluates `sum_t A_t x B_t` against pre-packed
//! right-hand sides without materializing concatenations; the fused Eq. 8
//! product `[((-i)E + Ai) | E] x [F ; Bi]` uses it so both servers share one
//! packed `F` panel set.
//!
//! All kernels are exact (bit-identical) over `u64`/`Fixed64`: wrapping ring
//! arithmetic is associative and commutative, so packing and tiling cannot
//! change results. Over `f32` the summation *order* differs between kernels,
//! so results agree only to rounding (~1e-3 relative for the sizes used
//! here).

use crate::matrix::Matrix;
use crate::num::Num;
use crate::quant::{
    gemm_quant, gemm_quant_sum, gemm_quant_with, pack_b_quant, quant_ring_available, QuantPackedB,
};
use psml_parallel::{configured_workers, for_each_chunk_mut_pooled, global_pool};

/// Cache tile edge (elements) for [`gemm_blocked`]. 64 puts a 64x64 f32
/// tile (16 KiB) well within L1 on common cores.
const BLOCK: usize = 64;

/// Register-tile rows of the packed micro-kernel. The full-tile fast
/// path destructures exactly eight named accumulators; a compile error
/// there flags any change here.
pub const MR: usize = 8;

/// Register-tile columns of the packed micro-kernel. With `f32` one tile
/// row is a single 512-bit vector (or two 256-bit ones); with `u64` it is
/// two 512-bit vectors. The `MR x NR` accumulator block stays within the
/// 32 vector registers of AVX-512 for both carriers.
pub const NR: usize = 16;

/// `m * k * n` below which [`gemm_auto`] stays on [`gemm_blocked`]
/// (packing overhead dominates). Calibrated with `cargo bench --bench gemm`
/// (see `BENCH_gemm.json`): the packed kernel wins from roughly 32^3 up.
const AUTO_PACK_FLOPS: usize = 32 * 32 * 32;

/// `m * k * n` above which [`gemm_auto`] moves to the pool-backed
/// [`gemm_packed_parallel`]. Below this the band bookkeeping and
/// latch/wake-up round-trip of a parallel region cost more than they
/// recover: BENCH_gemm.json showed the parallel path 11% *slower* than
/// serial packed at 256^3 (45.5 vs 51.1 GFLOPS), while 512^3 and up
/// amortize it, so the cutover sits between those sizes (~363^3).
const AUTO_PARALLEL_FLOPS: usize = 48_000_000;

/// `m * k * n` above which [`gemm_auto`] routes ring carriers to the
/// limb-split quantized kernel ([`crate::quant`]) when the AMX backend is
/// available. Below this the digit recode + recombine overhead (9 bytes
/// written per element, 8 shifted-add output passes) eats the tile unit's
/// multiplier advantage: measured even (0.95x) at 128^3 and ahead (1.2x)
/// from 160^3 = 4.1M up, so the cutover sits just under that. See
/// DESIGN.md "Quantized ring GEMM".
const AUTO_QUANT_FLOPS: usize = 4_000_000;

/// Summed `m * k * n` of a batch's serial-tier items below which
/// [`gemm_batch`] runs them on the calling thread: a pool region costs two
/// thread wake-ups and a latch round-trip (tens of microseconds), more than
/// a window of serving-sized triples (sixteen `1 x 2048 x 1` products, 32 K
/// multiply-adds) takes to compute in place.
const BATCH_POOL_FLOPS: usize = 4 * AUTO_PACK_FLOPS;

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

/// Computes one row band `rows_of_a x b` into `out_band` (row-major,
/// `len = band_rows * n`): the blocked kernel's loop nest.
fn gemm_band<T: Num>(a_band: &[T], band_rows: usize, k: usize, b: &Matrix<T>, out_band: &mut [T]) {
    let n = b.cols();
    debug_assert_eq!(a_band.len(), band_rows * k);
    debug_assert_eq!(out_band.len(), band_rows * n);
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
/// Layout: `ceil(n / NR)` panels, each `k * NR` elements. Panel `q` holds
/// columns `q*NR .. q*NR+NR` of `B`, stored row-by-row (`p*NR + jj` maps to
/// `B[p, q*NR + jj]`), zero-padded past column `n`. The micro-kernel then
/// streams each panel linearly once per `MR`-row tile of `A`, so packing is
/// paid once and reused across every row band — and, via
/// [`gemm_packed_sum`], across both servers' fused Eq. 8 evaluations.
#[derive(Clone, Debug)]
pub struct PackedB<T: Num> {
    k: usize,
    n: usize,
    data: Vec<T>,
}

impl<T: Num> PackedB<T> {
    /// Inner dimension (rows of the packed `B`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns of the packed `B`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes held by the packed panels.
    pub fn byte_size(&self) -> usize {
        self.data.len() * T::BYTES
    }
}

/// One `A` row band paired with its packed right-hand side, flattened to
/// element slices plus scalars.
///
/// The pinned-carrier dispatch in [`packed_band`] reinterprets terms across
/// `#[repr(transparent)]` element types, which is only sound element slice
/// by element slice — `repr(Rust)` gives no layout guarantee between
/// different monomorphizations of a struct like [`PackedB`], so the kernels
/// never see a generic struct through a transmute, only this flat view
/// rebuilt field by field.
#[derive(Clone, Copy)]
struct BandTerm<'a, T> {
    /// Row-major `band_rows x k` slice of `A`.
    a_band: &'a [T],
    /// Inner dimension: stride of `a_band`, rows of the packed panels.
    k: usize,
    /// Packed panel data: `ceil(n / NR)` panels of `k * NR` elements.
    panels: &'a [T],
}

impl<'a, T: Num> BandTerm<'a, T> {
    fn new(a_band: &'a [T], pb: &'a PackedB<T>) -> Self {
        BandTerm {
            a_band,
            k: pb.k,
            panels: &pb.data,
        }
    }

    fn panel(&self, q: usize) -> &'a [T] {
        &self.panels[q * self.k * NR..(q + 1) * self.k * NR]
    }
}

/// Reinterprets an element slice between two carriers.
///
/// # Safety
///
/// `Src` and `Dst` must have identical size, alignment, and validity (true
/// at both call sites: either the types are literally equal, checked by
/// `TypeId`, or `Src` is `#[repr(transparent)]` over `Dst = u64` per the
/// `unsafe` [`Num`] contract behind [`Num::WRAPPING_U64`]).
pub(crate) unsafe fn cast_slice<Src, Dst>(s: &[Src]) -> &[Dst] {
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
pub(crate) unsafe fn cast_slice_mut<Src, Dst>(s: &mut [Src]) -> &mut [Dst] {
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
            // SAFETY: as above.
            panels: unsafe { cast_slice::<Src, Dst>(t.panels) },
        })
        .collect()
}

/// Packs `b` into [`PackedB`] column panels.
pub fn pack_b<T: Num>(b: &Matrix<T>) -> PackedB<T> {
    let (k, n) = (b.rows(), b.cols());
    let panels = n.div_ceil(NR);
    let mut data = vec![T::zero(); panels * k * NR];
    let src = b.as_slice();
    for q in 0..panels {
        let j0 = q * NR;
        let width = NR.min(n - j0);
        let panel = &mut data[q * k * NR..(q + 1) * k * NR];
        for p in 0..k {
            let row = &src[p * n + j0..p * n + j0 + width];
            panel[p * NR..p * NR + width].copy_from_slice(row);
        }
    }
    PackedB { k, n, data }
}

/// Accumulates `a_tile x b_panel` into the `MR x NR` register tile.
///
/// `a_rows` selects how many of the `MR` accumulator rows are live. The
/// accumulators are scalar locals over const bounds, so LLVM fully unrolls
/// the `NR`-wide inner loop into vector ops (the strided `A` loads become
/// lane broadcasts) for `f32` and `u64` alike. `FMA` selects
/// `Num::mul_add` — only set it from code compiled with hardware fused
/// multiply-add, or the float path falls through to libm.
#[inline(always)]
fn accumulate_tile<T: Num, const FMA: bool>(
    acc: &mut [[T; NR]; MR],
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
        // `NR`-wide loop, which is the shape LLVM reliably promotes to
        // vector registers for the whole `p` loop. Array-indexed
        // accumulators were observed to stay stack-resident (one store
        // per FMA) depending on the surrounding codegen unit.
        let [mut c0, mut c1, mut c2, mut c3, mut c4, mut c5, mut c6, mut c7] = *acc;
        macro_rules! row {
            ($cr:ident, $r:literal, $p:ident, $bp:ident) => {
                let av = rows_a[$r][$p];
                for jj in 0..NR {
                    $cr[jj] = if FMA {
                        av.mul_add($bp[jj], $cr[jj])
                    } else {
                        $cr[jj].add(av.mul($bp[jj]))
                    };
                }
            };
        }
        for p in 0..k {
            let bp = &b_panel[p * NR..p * NR + NR];
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
            let bp = &b_panel[p * NR..p * NR + NR];
            for r in 0..a_rows {
                let av = a_band[(i_local + r) * stride + p];
                for jj in 0..NR {
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
    debug_assert!(terms
        .iter()
        .all(|t| t.panels.len() == n.div_ceil(NR) * t.k * NR));
    let panels = n.div_ceil(NR);
    let mut i0 = 0;
    while i0 < band_rows {
        let rows = MR.min(band_rows - i0);
        for q in 0..panels {
            let j0 = q * NR;
            let width = NR.min(n - j0);
            let mut acc = [[T::zero(); NR]; MR];
            for t in terms {
                accumulate_tile::<T, FMA>(&mut acc, t.a_band, t.k, i0, rows, t.k, t.panel(q));
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
/// FMA (`avx512dq` supplies the 64-bit lane multiply the ring carrier
/// needs).
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

/// Monomorphic pinned copy of the f32 kernel. Generic monomorphizations
/// are re-emitted by every downstream crate, and their optimization
/// quality varies with that crate's codegen-unit layout — binaries were
/// observed running the same source at half speed. Routing the two hot
/// carriers through concrete functions compiled *here* gives every
/// binary the same vetted codegen.
#[inline(never)]
fn packed_band_f32(terms: &[BandTerm<f32>], band_rows: usize, n: usize, out_band: &mut [f32]) {
    packed_band_dispatch(terms, band_rows, n, out_band);
}

/// Monomorphic pinned copy of the `Z_{2^64}` kernel; see
/// [`packed_band_f32`].
#[inline(never)]
fn packed_band_u64(terms: &[BandTerm<u64>], band_rows: usize, n: usize, out_band: &mut [u64]) {
    packed_band_dispatch(terms, band_rows, n, out_band);
}

fn packed_band<T: Num>(terms: &[BandTerm<T>], band_rows: usize, n: usize, out_band: &mut [T]) {
    use std::any::TypeId;
    let t = TypeId::of::<T>();
    if t == TypeId::of::<f32>() {
        // SAFETY: T is exactly f32 (checked above); only element slices of
        // that very type are rebranded, term by term.
        let (terms, out_band) = unsafe {
            (
                cast_terms::<T, f32>(terms),
                cast_slice_mut::<T, f32>(out_band),
            )
        };
        return packed_band_f32(&terms, band_rows, n, out_band);
    }
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

/// Serial register-tiled GEMM against a pre-packed `B`. Use when the same
/// `B` multiplies several left-hand sides (e.g. the shared public `F` of
/// Eq. 8).
pub fn gemm_packed_with<T: Num>(a: &Matrix<T>, packed: &PackedB<T>) -> Matrix<T> {
    assert_eq!(
        a.cols(),
        packed.k,
        "gemm shape mismatch: {:?} x packed {:?}",
        a.shape(),
        (packed.k, packed.n)
    );
    let (m, n) = (a.rows(), packed.n);
    let mut out = Matrix::zeros(m, n);
    if m == 0 || n == 0 {
        return out;
    }
    packed_band(
        &[BandTerm::new(a.as_slice(), packed)],
        m,
        n,
        out.as_mut_slice(),
    );
    out
}

/// Serial register-tiled GEMM: packs `B`, then runs the micro-kernel.
pub fn gemm_packed<T: Num>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_shapes(a, b);
    gemm_packed_with(a, &pack_b(b))
}

/// Register-tiled GEMM over output row bands on the process-global thread
/// pool — the large-matrix production kernel. `B` is packed once; all bands
/// (and all pool workers) read the same panels.
pub fn gemm_packed_parallel<T: Num>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_shapes(a, b);
    gemm_packed_sum(&[(a, &pack_b(b))])
}

/// Evaluates `sum_t A_t x B_t` against pre-packed right-hand sides, without
/// materializing any concatenation. All terms must agree on output shape.
///
/// This is the fused Eq. 8 workhorse: `[L | E] x [F ; Bi]` is exactly
/// `L x F + E x Bi`, so the caller passes `[(L, packed_f), (E, packed_bi)]`
/// and the shared `packed_f` is reused by both servers. Falls back to the
/// serial band for small outputs; larger ones run on the global pool.
pub fn gemm_packed_sum<T: Num>(terms: &[(&Matrix<T>, &PackedB<T>)]) -> Matrix<T> {
    let (m, n) = terms
        .first()
        .map(|(a, pb)| (a.rows(), pb.n))
        .expect("gemm_packed_sum needs at least one term");
    let mut flops = 0usize;
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
        flops = flops.saturating_add(m.saturating_mul(pb.k).saturating_mul(n));
    }
    let mut out = Matrix::zeros(m, n);
    if m == 0 || n == 0 {
        return out;
    }
    let bands: Vec<BandTerm<T>> = terms
        .iter()
        .map(|&(a, pb)| BandTerm::new(a.as_slice(), pb))
        .collect();
    if flops < AUTO_PARALLEL_FLOPS || configured_workers() < 2 {
        packed_band(&bands, m, n, out.as_mut_slice());
        return out;
    }
    for_each_chunk_mut_pooled(out.as_mut_slice(), n, |offset, out_band| {
        debug_assert_eq!(offset % n, 0);
        debug_assert_eq!(out_band.len() % n, 0);
        let row0 = offset / n;
        let band_rows = out_band.len() / n;
        let band_terms: Vec<BandTerm<T>> = bands
            .iter()
            .map(|t| BandTerm {
                a_band: &t.a_band[row0 * t.k..(row0 + band_rows) * t.k],
                ..*t
            })
            .collect();
        packed_band(&band_terms, band_rows, n, out_band);
    });
    out
}

/// A right-hand side packed for whichever kernel the auto dispatcher
/// selected when it was created: element-typed column panels for the
/// register-tiled kernel, or byte planes for the limb-split quantized
/// ring kernel.
///
/// Produced by [`pack_b_auto`] and consumed by [`gemm_packed_sum_auto`];
/// secondary operands of a fused sum must be packed with
/// [`AutoPackedB::pack_matching`] so every term lands on the same kernel.
#[derive(Clone, Debug)]
pub enum AutoPackedB<T: Num> {
    /// Column panels for the register-tiled micro-kernel.
    Std(PackedB<T>),
    /// Byte planes for the quantized ring kernel.
    Quant(QuantPackedB),
}

impl<T: Num> AutoPackedB<T> {
    /// Inner dimension (rows of the packed `B`).
    pub fn k(&self) -> usize {
        match self {
            AutoPackedB::Std(p) => p.k(),
            AutoPackedB::Quant(q) => q.k(),
        }
    }

    /// Columns of the packed `B`.
    pub fn n(&self) -> usize {
        match self {
            AutoPackedB::Std(p) => p.n(),
            AutoPackedB::Quant(q) => q.n(),
        }
    }

    /// Bytes held by the packed representation.
    pub fn byte_size(&self) -> usize {
        match self {
            AutoPackedB::Std(p) => p.byte_size(),
            AutoPackedB::Quant(q) => q.byte_size(),
        }
    }

    /// Packs another right-hand side in this pack's representation, so it
    /// can join the same [`gemm_packed_sum_auto`] call (the fused Eq. 8
    /// product packs the shared `F` first, then each server's `B_i` to
    /// match).
    pub fn pack_matching(&self, b: &Matrix<T>) -> AutoPackedB<T> {
        match self {
            AutoPackedB::Std(_) => AutoPackedB::Std(pack_b(b)),
            AutoPackedB::Quant(_) => AutoPackedB::Quant(pack_b_quant(b)),
        }
    }
}

/// Packs `b` for the kernel [`gemm_auto`] would pick for an
/// `m_hint x b.rows() x b.cols()` product: quantized byte planes when the
/// limb-split path applies ([`quant_applies`]), element column panels
/// otherwise. `m_hint` is the row count of the left-hand side(s) the pack
/// will multiply.
pub fn pack_b_auto<T: Num>(b: &Matrix<T>, m_hint: usize) -> AutoPackedB<T> {
    if quant_applies::<T>(m_hint, b.rows(), b.cols()) {
        AutoPackedB::Quant(pack_b_quant(b))
    } else {
        AutoPackedB::Std(pack_b(b))
    }
}

/// [`gemm_packed_sum`] over auto-packed right-hand sides: dispatches the
/// whole sum to the kernel the packs were built for. All terms must carry
/// the same [`AutoPackedB`] variant (use [`AutoPackedB::pack_matching`]);
/// results are bit-identical across variants for ring carriers.
pub fn gemm_packed_sum_auto<T: Num>(terms: &[(&Matrix<T>, &AutoPackedB<T>)]) -> Matrix<T> {
    let all_std = terms.iter().all(|(_, p)| matches!(p, AutoPackedB::Std(_)));
    let all_quant = terms
        .iter()
        .all(|(_, p)| matches!(p, AutoPackedB::Quant(_)));
    if all_std {
        let std_terms: Vec<(&Matrix<T>, &PackedB<T>)> = terms
            .iter()
            .map(|&(a, p)| match p {
                AutoPackedB::Std(pb) => (a, pb),
                AutoPackedB::Quant(_) => unreachable!(),
            })
            .collect();
        gemm_packed_sum(&std_terms)
    } else if all_quant {
        let quant_terms: Vec<(&Matrix<T>, &QuantPackedB)> = terms
            .iter()
            .map(|&(a, p)| match p {
                AutoPackedB::Quant(qb) => (a, qb),
                AutoPackedB::Std(_) => unreachable!(),
            })
            .collect();
        gemm_quant_sum(&quant_terms)
    } else {
        panic!("gemm_packed_sum_auto terms mix packed representations; use pack_matching");
    }
}

/// True when [`gemm_auto`] would route an `m x k x n` product in carrier
/// `T` through the limb-split quantized kernel: ring carrier, product
/// large enough to amortize recode/recombine, a single configured worker
/// (with 2+ workers the pool path keeps every multiplier busy while the
/// tile driver is serial), and the AMX backend verified on this host.
pub(crate) fn quant_applies<T: Num>(m: usize, k: usize, n: usize) -> bool {
    let flops = m.saturating_mul(k).saturating_mul(n);
    T::WRAPPING_U64
        && flops >= AUTO_QUANT_FLOPS
        && configured_workers() < 2
        && quant_ring_available()
}

/// The production GEMM: dispatches on problem size, mirroring the paper's
/// profiling-guided adaptive placement.
///
/// - tiny products (`m*k*n < `[`AUTO_PACK_FLOPS`]): [`gemm_blocked`] —
///   packing cannot be amortized and the zero-skip helps sparse operands;
/// - large ring products on AMX hosts ([`quant_applies`]):
///   [`gemm_quant`] — the limb-split quantized kernel on the tile unit,
///   bit-identical to the packed ring kernel;
/// - medium: [`gemm_packed`] — serial register-tiled kernel;
/// - large (`m*k*n >= `[`AUTO_PARALLEL_FLOPS`] with more than one
///   configured worker): [`gemm_packed_parallel`] on the persistent pool.
pub fn gemm_auto<T: Num>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_shapes(a, b);
    match auto_tier::<T>(a.rows(), a.cols(), b.cols()) {
        AutoTier::Blocked => gemm_blocked(a, b),
        AutoTier::Quant => gemm_quant(a, b),
        AutoTier::Packed => gemm_packed(a, b),
        AutoTier::Parallel => gemm_packed_parallel(a, b),
    }
}

/// Dispatch tier [`gemm_auto`] would pick for an `m x k x n` product.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AutoTier {
    Blocked,
    Quant,
    Packed,
    Parallel,
}

fn auto_tier<T: Num>(m: usize, k: usize, n: usize) -> AutoTier {
    let flops = m.saturating_mul(k).saturating_mul(n);
    if flops < AUTO_PACK_FLOPS {
        AutoTier::Blocked
    } else if quant_applies::<T>(m, k, n) {
        AutoTier::Quant
    } else if flops < AUTO_PARALLEL_FLOPS || configured_workers() < 2 {
        AutoTier::Packed
    } else {
        AutoTier::Parallel
    }
}

/// Evaluates a batch of *independent* products, each with the exact kernel
/// [`gemm_auto`] would pick for it, amortizing pool dispatch across the
/// batch: all serial-tier items (blocked / serial-packed) are submitted to
/// the process-global pool as one region and run concurrently (unless
/// together they are too small to be worth one — `BATCH_POOL_FLOPS` — and
/// run in place), while parallel-tier items run one after another, each
/// owning the whole pool.
///
/// Results are bit-identical to calling [`gemm_auto`] per pair — the same
/// kernel functions execute on the same operands; only *where* they run
/// changes. When every pair shares the same right-hand side (pointer
/// equality), `B` is packed once and reused by all packed-tier items.
///
/// This is the triple-provisioning batch path: `b` pending same-shape
/// triples become `b` concurrent `Z = U x V` products. Stacking them into
/// one `(b*m, k) x (k, n)` GEMM — the more obvious fusion — would be
/// wrong for independent triples, since each has its own `V`; see
/// DESIGN.md ("Offline/online overlap on the host").
pub fn gemm_batch<T: Num>(pairs: &[(&Matrix<T>, &Matrix<T>)]) -> Vec<Matrix<T>> {
    for (a, b) in pairs {
        assert_shapes(a, b);
    }
    let tiers: Vec<AutoTier> = pairs
        .iter()
        .map(|&(a, b)| auto_tier::<T>(a.rows(), a.cols(), b.cols()))
        .collect();
    let shares_rhs = |tier: AutoTier| {
        pairs.len() > 1
            && tiers.contains(&tier)
            && pairs.iter().all(|&(_, b)| std::ptr::eq(b, pairs[0].1))
    };
    // Pack a shared right-hand side once (only worth it when some item is
    // in the packed/quant tier and the B really is the same allocation).
    let shared_packed: Option<PackedB<T>> = if shares_rhs(AutoTier::Packed) {
        Some(pack_b(pairs[0].1))
    } else {
        None
    };
    let shared_quant: Option<QuantPackedB> = if shares_rhs(AutoTier::Quant) {
        Some(pack_b_quant(pairs[0].1))
    } else {
        None
    };
    let run_serial = |i: usize, slot: &mut Option<Matrix<T>>| {
        let (a, b) = pairs[i];
        *slot = Some(match tiers[i] {
            AutoTier::Blocked => gemm_blocked(a, b),
            AutoTier::Quant => match &shared_quant {
                Some(q) => gemm_quant_with(a, q),
                None => gemm_quant(a, b),
            },
            AutoTier::Packed => match &shared_packed {
                Some(p) => gemm_packed_with(a, p),
                None => gemm_packed(a, b),
            },
            AutoTier::Parallel => unreachable!("parallel items run below"),
        });
    };
    let mut results: Vec<Option<Matrix<T>>> = pairs.iter().map(|_| None).collect();
    let serial_items = tiers.iter().filter(|&&t| t != AutoTier::Parallel).count();
    let serial_flops: usize = pairs
        .iter()
        .zip(&tiers)
        .filter(|&(_, &t)| t != AutoTier::Parallel)
        .map(|(&(a, b), _)| a.rows() * a.cols() * b.cols())
        .sum();
    if serial_items > 1 && serial_flops >= BATCH_POOL_FLOPS && configured_workers() >= 2 {
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = results
            .iter_mut()
            .enumerate()
            .filter(|&(i, _)| tiers[i] != AutoTier::Parallel)
            .map(|(i, slot)| {
                let run_serial = &run_serial;
                Box::new(move || run_serial(i, slot)) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        global_pool().scoped_run(jobs);
    } else {
        for (i, slot) in results.iter_mut().enumerate() {
            if tiers[i] != AutoTier::Parallel {
                run_serial(i, slot);
            }
        }
    }
    for (i, slot) in results.iter_mut().enumerate() {
        if tiers[i] == AutoTier::Parallel {
            let (a, b) = pairs[i];
            *slot = Some(gemm_packed_parallel(a, b));
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every batch item computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmat(rows: usize, cols: usize, seed: u64) -> Matrix<f32> {
        Matrix::from_fn(rows, cols, |r, c| {
            let x = (r as u64)
                .wrapping_mul(31)
                .wrapping_add(c as u64)
                .wrapping_mul(seed | 1);
            ((x % 17) as f32) - 8.0
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
    fn blocked_matches_naive_f32() {
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
            let blocked = gemm_blocked(&a, &b);
            assert!(
                naive.max_abs_diff(&blocked) < 1e-3,
                "mismatch at {m}x{k}x{n}"
            );
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
    fn packed_matches_naive_f32() {
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
            assert!(
                naive.max_abs_diff(&gemm_packed(&a, &b)) < 1e-3,
                "packed mismatch at {m}x{k}x{n}"
            );
            assert!(
                naive.max_abs_diff(&gemm_auto(&a, &b)) < 1e-3,
                "auto mismatch at {m}x{k}x{n}"
            );
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
        let a = Matrix::<u64>::zeros(4, 5);
        let b = Matrix::<u64>::zeros(5, 0);
        assert_eq!(gemm_packed(&a, &b).shape(), (4, 0));
    }

    #[test]
    fn packed_b_reuse_across_left_operands() {
        let b = umat(23, 19, 3);
        let packed = pack_b(&b);
        for seed in [1, 7, 13] {
            let a = umat(11, 23, seed);
            assert_eq!(gemm_packed_with(&a, &packed), gemm_naive(&a, &b));
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
    fn auto_dispatch_covers_all_tiers() {
        // One shape per dispatch tier; all must agree with the oracle.
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
        let a = Matrix::<f32>::zeros(0, 5);
        let b = Matrix::<f32>::zeros(5, 3);
        assert_eq!(gemm_blocked(&a, &b).shape(), (0, 3));
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
    fn batch_matches_auto_exactly_in_ring() {
        // Items spread over all three dispatch tiers.
        let shapes = [
            (8, 8, 8),
            (48, 48, 48),
            (160, 160, 160),
            (3, 5, 2),
            (40, 33, 50),
        ];
        let mats: Vec<(Matrix<u64>, Matrix<u64>)> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(m, k, n))| (umat(m, k, i as u64 + 1), umat(k, n, i as u64 + 11)))
            .collect();
        let pairs: Vec<(&Matrix<u64>, &Matrix<u64>)> = mats.iter().map(|(a, b)| (a, b)).collect();
        let batched = gemm_batch(&pairs);
        for ((a, b), got) in mats.iter().zip(&batched) {
            assert_eq!(got, &gemm_auto(a, b));
        }
    }

    #[test]
    fn batch_matches_auto_bitwise_f32() {
        // f32 summation order is kernel-dependent, so bit-identity here
        // proves the batch really runs the same kernels as gemm_auto.
        let mats: Vec<(Matrix<f32>, Matrix<f32>)> = [(8, 8, 8), (48, 48, 48), (33, 70, 41)]
            .iter()
            .enumerate()
            .map(|(i, &(m, k, n))| (fmat(m, k, i as u64 + 1), fmat(k, n, i as u64 + 7)))
            .collect();
        let pairs: Vec<(&Matrix<f32>, &Matrix<f32>)> = mats.iter().map(|(a, b)| (a, b)).collect();
        for (got, (a, b)) in gemm_batch(&pairs).iter().zip(&mats) {
            assert_eq!(got.as_slice(), gemm_auto(a, b).as_slice());
        }
    }

    #[test]
    fn batch_shared_rhs_packs_once_and_matches() {
        let b = umat(48, 48, 3);
        let lhs: Vec<Matrix<u64>> = (0..4).map(|i| umat(48, 48, i + 21)).collect();
        let pairs: Vec<(&Matrix<u64>, &Matrix<u64>)> = lhs.iter().map(|a| (a, &b)).collect();
        for (got, a) in gemm_batch(&pairs).iter().zip(&lhs) {
            assert_eq!(got, &gemm_auto(a, &b));
        }
    }

    #[test]
    fn batch_under_the_pool_floor_runs_in_place_and_matches() {
        // A serving window: sixteen 1 x 2048 x 1 products, 32 K flops.
        let mats: Vec<(Matrix<u64>, Matrix<u64>)> =
            (0..16).map(|i| (umat(1, 2048, i + 1), umat(2048, 1, i + 40))).collect();
        let pairs: Vec<(&Matrix<u64>, &Matrix<u64>)> = mats.iter().map(|(a, b)| (a, b)).collect();
        assert!(16 * 2048 < BATCH_POOL_FLOPS);
        for (got, (a, b)) in gemm_batch(&pairs).iter().zip(&mats) {
            assert_eq!(got, &gemm_auto(a, b));
        }
    }

    #[test]
    fn batch_of_empty_and_one() {
        assert!(gemm_batch::<u64>(&[]).is_empty());
        let a = umat(5, 6, 1);
        let b = umat(6, 4, 2);
        assert_eq!(gemm_batch(&[(&a, &b)]), vec![gemm_auto(&a, &b)]);
    }

    #[test]
    fn packed_sum_auto_matches_for_both_variants() {
        // The fused Eq. 8 sum through explicit Std and Quant packs must
        // agree bit-for-bit with each other and the oracle.
        let l = umat(9, 40, 1);
        let e = umat(9, 33, 2);
        let f = umat(40, 11, 3);
        let b = umat(33, 11, 4);
        let expect = gemm_naive(&l, &f).add(&gemm_naive(&e, &b));
        let f_std: AutoPackedB<u64> = AutoPackedB::Std(pack_b(&f));
        let b_std = f_std.pack_matching(&b);
        assert_eq!(gemm_packed_sum_auto(&[(&l, &f_std), (&e, &b_std)]), expect);
        let f_q: AutoPackedB<u64> = AutoPackedB::Quant(pack_b_quant(&f));
        let b_q = f_q.pack_matching(&b);
        assert_eq!(gemm_packed_sum_auto(&[(&l, &f_q), (&e, &b_q)]), expect);
        assert_eq!((f_q.k(), f_q.n()), (40, 11));
        assert!(f_q.byte_size() > 0);
    }

    #[test]
    #[should_panic(expected = "mix packed representations")]
    fn packed_sum_auto_rejects_mixed_variants() {
        let l = umat(4, 4, 1);
        let f = umat(4, 4, 2);
        let std: AutoPackedB<u64> = AutoPackedB::Std(pack_b(&f));
        let quant: AutoPackedB<u64> = AutoPackedB::Quant(pack_b_quant(&f));
        let _ = gemm_packed_sum_auto(&[(&l, &std), (&l, &quant)]);
    }

    #[test]
    fn pack_b_auto_respects_carrier_and_size() {
        // Small products and float carriers always take the Std pack; the
        // Quant pack appears only for large ring products on verified-AMX
        // single-worker hosts, which is exactly quant_applies.
        let small = umat(8, 8, 1);
        assert!(matches!(pack_b_auto(&small, 8), AutoPackedB::Std(_)));
        let fb = fmat(64, 400, 1);
        assert!(matches!(pack_b_auto(&fb, 4000), AutoPackedB::Std(_)));
        let big = umat(400, 400, 1);
        let expect_quant = quant_applies::<u64>(1000, 400, 400);
        assert_eq!(
            matches!(pack_b_auto(&big, 1000), AutoPackedB::Quant(_)),
            expect_quant
        );
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
