//! Limb-split quantized ring GEMM: the paper's tensor-core pipeline
//! (Sec. 5.2) mapped onto the host's AMX INT8 tile unit.
//!
//! The paper runs `Z_{2^16}` ring GEMMs on tensor cores by splitting each
//! operand into low-precision limbs, multiplying the limbs on the dense
//! low-precision multiplier array, and recombining exactly. This module is
//! the same construction for our `Z_{2^64}` carriers:
//!
//! - every `u64` element is recoded into [`LIMBS`] = 8 **balanced signed
//!   8-bit digits** `d_p ∈ [-128, 127]` with `v ≡ Σ_p d_p·2^{8p}
//!   (mod 2^64)` (the carry out of the top digit vanishes mod 2^64);
//! - the product becomes `C ≡ Σ_s 2^{8s} C_s` with
//!   `C_s = Σ_{p+q=s} A_p·B_q` — digit pairs with `p+q ≥ 8` wrap away
//!   entirely, so only the 36 of 64 limb-product GEMMs with `p+q < 8` are
//!   ever computed;
//! - each live limb GEMM is an i8×i8→i32 product, which is exactly the
//!   shape of the `tdpbssd` AMX tile instruction (and of the portable
//!   scalar model used as fallback and cross-check);
//! - i32 tile accumulators are **drained on a K budget** so the shifts
//!   that need exact values never overflow (see the exactness argument
//!   below), and drained partials are recombined into the `u64` output
//!   with wrapping shifted adds.
//!
//! The result is **bit-for-bit identical** to the pinned `u64` kernel in
//! [`crate::gemm`]: ring arithmetic is exact, so only speed changes.
//!
//! ## Exactness argument
//!
//! One `tdpbssd` step accumulates 64 products of magnitude ≤ 2^14 per i32
//! lane. For output shift `s` the accumulator sums `(s+1)` digit-pair
//! passes over K, so after `t` accumulated K-bytes the true value is
//! bounded by `t·2^14`. Draining every [`DRAIN_BUDGET_KB`] = 2^16 K-bytes
//! keeps `|C_s| ≤ 2^30 < 2^31`: the i32 never wraps where exactness is
//! required. For `s ≥ 4` the kept bits of the volume are `C_s mod
//! 2^{64-8s} ⊆ mod 2^32`, so i32 wraparound is itself exact and no
//! draining is needed.
//!
//! ## Driver
//!
//! The output is a grid of 32×32 blocks, each accumulated independently.
//! One `run` walks a contiguous range of that grid (a `Band`); a call
//! splits the grid into near-equal bands, one for the caller and one per
//! worker of the global pool, all reading the same `A` planes and packed
//! `B` (a call made from a pool job runs one band). No output bit depends
//! on the split.
//!
//! ## Availability
//!
//! The AMX backend needs `amx-tile`/`amx-int8` in CPUID **and** a
//! per-process `arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA)`
//! opt-in; [`quant_ring_available`] performs both once, then cross-checks
//! the tile kernel against the portable backend on a small product before
//! reporting true. The portable backend computes the identical function
//! (same drain schedule, same wrapping i32 model), so results do not
//! depend on which backend ran — only the host's wall-clock does, which
//! keeps simulated `RunReport`s host-independent.

use crate::gemm::{cast_slice, cast_slice_mut};
use crate::matrix::Matrix;
use crate::num::Num;
use psml_parallel::{chunks, for_each_chunk_mut_pooled, global_pool, in_pool_worker};
use std::cell::RefCell;
use std::fmt;
use std::ops::Range;

/// Signed 8-bit digits per `u64` ring element.
pub const LIMBS: usize = 8;

/// Live limb-product volumes: pairs `(p, q)` with `p + q < LIMBS`.
/// The other 28 pairs shift by ≥ 64 bits and vanish mod 2^64.
pub const LIVE_LIMB_PAIRS: usize = LIMBS * (LIMBS + 1) / 2;

/// K-bytes consumed by one tile step (one `tdpbssd` over a 16×64 tile).
const TILE_K_BYTES: usize = 64;

/// Output block edge: 2×2 tiles of 16×16 i32 accumulators.
const BLOCK_MN: usize = 32;

/// Accumulated K-bytes per i32 lane between drains for shifts `s < 4`
/// (where exact values are required): `2^16 · 2^14 = 2^30 < 2^31`.
const DRAIN_BUDGET_KB: usize = 1 << 16;

fn pad_to(x: usize, mult: usize) -> usize {
    x.div_ceil(mult) * mult
}

/// Tile-padded volume `pad32(m) · pad64(k) · pad32(n)` the kernel
/// actually multiplies for an `m x k x n` product: output blocks are
/// [`BLOCK_MN`] square and every tile step consumes [`TILE_K_BYTES`] of K.
pub(crate) fn padded_volume(m: usize, k: usize, n: usize) -> usize {
    pad_to(m, BLOCK_MN)
        .saturating_mul(pad_to(k, TILE_K_BYTES))
        .saturating_mul(pad_to(n, BLOCK_MN))
}

/// A pooled buffer is handed out only for a request of at least
/// `1/POOL_SLACK` of its capacity; a smaller request gets a fresh buffer
/// and leaves the large one pooled for a request its size.
const POOL_SLACK: usize = 4;

/// One thread's recycled limb-plane buffers.
struct PlanePool {
    free: Vec<Vec<i8>>,
    /// Bytes of the largest plane buffer a pack on this thread has taken.
    /// The pool never retains more capacity than this in total.
    cap: usize,
}

thread_local! {
    /// Recycled limb-plane buffers. Per-call packing allocates megabytes
    /// that live for exactly one GEMM; returning them to the allocator
    /// makes every call pay thousands of first-touch page faults, which
    /// dominate the kernel under virtualized hosts (measured ~20 ms of a
    /// ~90 ms 1024³ product on a single-vCPU microVM). Recycling keeps
    /// the pages mapped. The buffers hold share-derived limb bytes
    /// between calls — the same retention window allocator-recycled
    /// pages already have, and nothing ever reads a pooled buffer before
    /// the next pack fully rewrites it (bijective tile layout, or an
    /// explicit re-zero when the shape leaves padding).
    ///
    /// Retention is one largest buffer's worth of bytes per thread, not a
    /// whole call's working set: every retained byte is resident while
    /// the thread does anything else, and the triple provider and the
    /// engine both pack planes (DESIGN.md "Host-aware packing").
    static PLANE_POOL: RefCell<PlanePool> =
        const { RefCell::new(PlanePool { free: Vec::new(), cap: 0 }) };
}

/// Takes a recycled buffer (or a fresh one) of exactly `len` bytes: the
/// smallest pooled buffer that holds `len` without exceeding
/// [`POOL_SLACK`] times it.
///
/// Contents are **stale** (whatever the previous pack left) unless
/// `zeroed` is set: the tile layouts below are bijections onto the
/// plane, so a pack over tile-aligned operands rewrites every byte and
/// re-zeroing 2·8 MB up front (at 1024³) would be pure memory traffic.
/// Packs of padded shapes pass `zeroed = true` so the pad lanes
/// contribute exact zeros to the accumulators.
fn pool_take(len: usize, zeroed: bool) -> Vec<i8> {
    let fits = |b: &Vec<i8>| (len..=len.saturating_mul(POOL_SLACK)).contains(&b.capacity());
    let mut buf = PLANE_POOL
        .with(|pool| {
            let mut pool = pool.borrow_mut();
            pool.cap = pool.cap.max(len);
            let free = &mut pool.free;
            let best = (0..free.len())
                .filter(|&i| fits(&free[i]))
                .min_by_key(|&i| free[i].capacity());
            best.map(|i| free.swap_remove(i))
        })
        .unwrap_or_default();
    if zeroed {
        buf.clear();
    } else if buf.len() > len {
        buf.truncate(len);
    }
    buf.resize(len, 0);
    buf
}

/// Returns a plane buffer to the pool for the next pack to reuse, or
/// frees it when keeping it would hold more than the pool's cap.
fn pool_put(buf: Vec<i8>) {
    PLANE_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        let held: usize = pool.free.iter().map(Vec::capacity).sum();
        if held + buf.capacity() <= pool.cap {
            pool.free.push(buf);
        }
    });
}

/// Recode `v` as 8 balanced signed digits: `v ≡ Σ_p d_p·2^{8p} (mod 2^64)`
/// with every `d_p ∈ [-128, 127]`. The carry out of digit 7 is worth 2^64
/// and drops in the ring.
///
/// Branchless: adding `0x80` to every byte with a single 64-bit add
/// propagates exactly the balanced-recoding carries (byte `p` carries out
/// iff `v_p + c_p ≥ 128`), leaving `v_p + c_p - 256·c_{p+1} + 128` in
/// byte `p`; xoring `0x80` back subtracts the bias mod 256, so each byte
/// read as `i8` is the balanced digit.
#[inline]
fn balanced_digits(v: u64) -> [i8; LIMBS] {
    const BIAS: u64 = 0x8080_8080_8080_8080;
    let w = v.wrapping_add(BIAS) ^ BIAS;
    w.to_le_bytes().map(|b| b as i8)
}

/// Inverse of [`balanced_digits`] mod 2^64 (test oracle for the
/// round-trip property).
#[cfg(test)]
pub(crate) fn recombine_digits(d: &[i8; LIMBS]) -> u64 {
    let mut v = 0u64;
    for (p, &x) in d.iter().enumerate() {
        v = v.wrapping_add((x as i64 as u64) << (8 * p));
    }
    v
}

/// `A` recoded into 8 byte planes, each laid out as 16-row panels of
/// contiguous 16×64-byte tiles so the kernel streams 1 KiB tile loads.
///
/// Plane `p`, element `(i, kb)` lives at
/// `(i/16)·k_pad·16 + (kb/64)·1024 + (i%16)·64 + kb%64`.
struct QuantA {
    m_pad: usize,
    k_pad: usize,
    planes: Vec<i8>,
}

impl QuantA {
    fn plane(&self, p: usize) -> &[i8] {
        let sz = self.m_pad * self.k_pad;
        &self.planes[p * sz..(p + 1) * sz]
    }
}

/// `B` recoded into 8 byte planes in the VNNI interleave the tile
/// multiplier consumes: 16-column panels where K-group `r` stores the 4
/// consecutive K-bytes of each column interleaved
/// (`panel[(kb/4)·64 + 4·(j%16) + kb%4] = digit(B[kb, j])`).
///
/// Like [`crate::gemm::PackedB`] this is packed once and reused across
/// every left-hand side — in particular across both servers' fused Eq. 8
/// evaluations. The planes are derived from a (possibly secret-shared)
/// operand, so `Debug` redacts the payload (psml-secret).
#[derive(Clone)]
pub struct QuantPackedB {
    k: usize,
    n: usize,
    n_pad: usize,
    k_pad: usize,
    planes: Vec<i8>,
}

impl QuantPackedB {
    /// Inner dimension (rows of the packed `B`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns of the packed `B`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes held by the packed byte planes.
    pub fn byte_size(&self) -> usize {
        self.planes.len()
    }

    fn plane(&self, q: usize) -> &[i8] {
        let sz = self.n_pad * self.k_pad;
        &self.planes[q * sz..(q + 1) * sz]
    }
}

impl fmt::Debug for QuantPackedB {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Shape only: the byte planes are a share-derived operand.
        f.debug_struct("QuantPackedB")
            .field("k", &self.k)
            .field("n", &self.n)
            .field("planes", &"<redacted>")
            .finish()
    }
}

fn pack_a_planes(m: usize, k: usize, a: &[u64]) -> QuantA {
    let m_pad = pad_to(m.max(1), BLOCK_MN);
    let k_pad = pad_to(k, TILE_K_BYTES);
    let plane_sz = m_pad * k_pad;
    let mut planes = pool_take(LIMBS * plane_sz, m_pad != m || k_pad != k);
    let panel = k_pad * 16;
    for i in 0..m {
        let row = &a[i * k..(i + 1) * k];
        let row_base = (i / 16) * panel + (i % 16) * 64;
        for (kk, &v) in row.iter().enumerate() {
            let d = balanced_digits(v);
            let at = row_base + (kk / 64) * 1024 + kk % 64;
            for (p, &dp) in d.iter().enumerate() {
                planes[p * plane_sz + at] = dp;
            }
        }
    }
    QuantA {
        m_pad,
        k_pad,
        planes,
    }
}

fn pack_b_planes(k: usize, n: usize, b: &[u64]) -> QuantPackedB {
    let n_pad = pad_to(n.max(1), BLOCK_MN);
    let k_pad = pad_to(k, TILE_K_BYTES);
    let plane_sz = n_pad * k_pad;
    let mut planes = pool_take(LIMBS * plane_sz, n_pad != n || k_pad != k);
    let panel = k_pad * 16;
    for kk in 0..k {
        let row = &b[kk * n..(kk + 1) * n];
        let k_base = (kk / 4) * 64 + kk % 4;
        for (j, &v) in row.iter().enumerate() {
            let d = balanced_digits(v);
            let at = (j / 16) * panel + k_base + 4 * (j % 16);
            for (q, &dq) in d.iter().enumerate() {
                planes[q * plane_sz + at] = dq;
            }
        }
    }
    QuantPackedB {
        k,
        n,
        n_pad,
        k_pad,
        planes,
    }
}

/// One 32×32 output block of i32 accumulators, fed tile-pair steps.
///
/// Both implementations compute the identical function — same operand
/// layout, same i32 wrapping accumulation — so a drain returns the same
/// 1024 lanes regardless of backend.
trait Backend {
    /// Per-call setup (tile palette configuration).
    fn begin(&mut self);
    /// Clears the four accumulator tiles.
    fn zero(&mut self);
    /// Accumulates `steps` consecutive 1 KiB tile pairs: `a0`/`a1` are the
    /// two 16-row A panels of the block, `b0`/`b1` the two 16-column B
    /// panels.
    ///
    /// # Safety
    ///
    /// Each pointer must be valid for `steps * 1024` bytes of initialized
    /// data, and `steps >= 1`.
    unsafe fn step(
        &mut self,
        a0: *const i8,
        a1: *const i8,
        b0: *const i8,
        b1: *const i8,
        steps: usize,
    );
    /// Copies the 32×32 accumulator block into `scratch` (row-major).
    fn drain(&mut self, scratch: &mut [i32; BLOCK_MN * BLOCK_MN]);
    /// Per-call teardown (tile state release).
    fn end(&mut self);
}

/// Scalar model of the tile pipeline. Used on hosts without AMX, and as
/// the cross-check oracle during availability detection.
struct PortableBackend {
    c: [[i32; BLOCK_MN]; BLOCK_MN],
}

impl PortableBackend {
    fn new() -> Self {
        PortableBackend {
            c: [[0; BLOCK_MN]; BLOCK_MN],
        }
    }

    /// `tdpbssd` per-tile model:
    /// `C[i][j] += Σ_r Σ_t A[i][4r+t]·B[r][4j+t]` with wrapping i32
    /// accumulation, mirroring the hardware exactly.
    fn tile_madd(&mut self, ro: usize, co: usize, a: &[i8], b: &[i8]) {
        for i in 0..16 {
            let arow = &a[i * 64..(i + 1) * 64];
            let crow = &mut self.c[ro + i];
            for r in 0..16 {
                let brow = &b[r * 64..(r + 1) * 64];
                for t in 0..4 {
                    let av = arow[4 * r + t] as i32;
                    if av == 0 {
                        continue;
                    }
                    for j in 0..16 {
                        crow[co + j] = crow[co + j].wrapping_add(av * brow[4 * j + t] as i32);
                    }
                }
            }
        }
    }
}

impl Backend for PortableBackend {
    fn begin(&mut self) {}

    fn zero(&mut self) {
        self.c = [[0; BLOCK_MN]; BLOCK_MN];
    }

    // SAFETY: upholds the trait contract by reading exactly
    // `steps * 1024` bytes from each pointer, nothing else.
    unsafe fn step(
        &mut self,
        a0: *const i8,
        a1: *const i8,
        b0: *const i8,
        b1: *const i8,
        steps: usize,
    ) {
        // SAFETY: the fn-level contract guarantees each pointer covers
        // steps * 1024 initialized bytes.
        let (a0, a1, b0, b1) = unsafe {
            (
                std::slice::from_raw_parts(a0, steps * 1024),
                std::slice::from_raw_parts(a1, steps * 1024),
                std::slice::from_raw_parts(b0, steps * 1024),
                std::slice::from_raw_parts(b1, steps * 1024),
            )
        };
        for st in 0..steps {
            let r = st * 1024..(st + 1) * 1024;
            self.tile_madd(0, 0, &a0[r.clone()], &b0[r.clone()]);
            self.tile_madd(0, 16, &a0[r.clone()], &b1[r.clone()]);
            self.tile_madd(16, 0, &a1[r.clone()], &b0[r.clone()]);
            self.tile_madd(16, 16, &a1[r.clone()], &b1[r]);
        }
    }

    fn drain(&mut self, scratch: &mut [i32; BLOCK_MN * BLOCK_MN]) {
        for (r, row) in self.c.iter().enumerate() {
            scratch[r * BLOCK_MN..(r + 1) * BLOCK_MN].copy_from_slice(row);
        }
    }

    fn end(&mut self) {}
}

#[cfg(target_arch = "x86_64")]
mod amx {
    //! AMX tile backend. Rust's AMX intrinsics are unstable, so the five
    //! tile operations are issued as inline assembly; LLVM never emits
    //! tile instructions on its own (`tmm` registers are not allocatable
    //!  without the intrinsics), so tile state set in one `asm!` block is
    //! preserved across the safe Rust between blocks, and the OS
    //! context-switches it via XSAVE once the permission below is granted.

    use super::{Backend, BLOCK_MN};
    use std::arch::asm;

    const ARCH_REQ_XCOMP_PERM: u64 = 0x1023;
    const XFEATURE_XTILEDATA: u64 = 18;

    /// Asks the kernel to enable AMX tile state for this process.
    pub(super) fn request_permission() -> bool {
        let ret: i64;
        // SAFETY: arch_prctl(ARCH_REQ_XCOMP_PERM, XTILEDATA) only toggles
        // this process's xstate permission; no memory is touched.
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") 158u64 => ret,
                in("rdi") ARCH_REQ_XCOMP_PERM,
                in("rsi") XFEATURE_XTILEDATA,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret == 0
    }

    /// CPUID leaf 7 subleaf 0 EDX bits 24 (amx-tile) and 25 (amx-int8).
    pub(super) fn has_amx_int8() -> bool {
        let r = std::arch::x86_64::__cpuid_count(7, 0);
        (r.edx >> 24) & 1 == 1 && (r.edx >> 25) & 1 == 1
    }

    /// `ldtilecfg` palette: all eight tiles as 16 rows × 64 bytes.
    /// tmm0-3 hold the 2×2 i32 accumulator block, tmm4-5 the A panels,
    /// tmm6-7 the B panels.
    #[repr(C, align(64))]
    struct TileConfig {
        palette: u8,
        start_row: u8,
        _rsvd: [u8; 14],
        colsb: [u16; 16],
        rows: [u8; 16],
    }

    fn full_config() -> TileConfig {
        let mut c = TileConfig {
            palette: 1,
            start_row: 0,
            _rsvd: [0; 14],
            colsb: [0; 16],
            rows: [0; 16],
        };
        for t in 0..8 {
            c.colsb[t] = 64;
            c.rows[t] = 16;
        }
        c
    }

    /// The tile backend. Only constructed after [`super::quant_ring_available`]
    /// verified CPUID, the xstate permission, and a correctness
    /// cross-check against the portable model.
    pub(super) struct AmxBackend;

    impl Backend for AmxBackend {
        fn begin(&mut self) {
            let cfg = full_config();
            // SAFETY: AMX availability is the construction invariant of
            // this type; ldtilecfg only reads the 64-byte config.
            unsafe {
                asm!(
                    "ldtilecfg [{cfg}]",
                    cfg = in(reg) &cfg,
                    options(nostack, readonly),
                );
            }
        }

        fn zero(&mut self) {
            // SAFETY: tiles configured in begin(); tilezero touches no
            // memory.
            unsafe {
                asm!(
                    "tilezero tmm0",
                    "tilezero tmm1",
                    "tilezero tmm2",
                    "tilezero tmm3",
                    options(nostack, nomem, preserves_flags),
                );
            }
        }

        // SAFETY: upholds the trait contract — the asm loop reads exactly
        // `steps * 1024` bytes per operand and clobbers only tile state.
        unsafe fn step(
            &mut self,
            a0: *const i8,
            a1: *const i8,
            b0: *const i8,
            b1: *const i8,
            steps: usize,
        ) {
            // SAFETY: fn-level contract (pointers cover steps*1024 bytes,
            // steps >= 1) plus the construction invariant; the loop only
            // reads memory and updates tile registers.
            unsafe {
                asm!(
                    "2:",
                    "tileloadd tmm4, [{a0} + {s64}]",
                    "tileloadd tmm6, [{b0} + {s64}]",
                    "tdpbssd tmm0, tmm4, tmm6",
                    "tileloadd tmm7, [{b1} + {s64}]",
                    "tdpbssd tmm1, tmm4, tmm7",
                    "tileloadd tmm5, [{a1} + {s64}]",
                    "tdpbssd tmm2, tmm5, tmm6",
                    "tdpbssd tmm3, tmm5, tmm7",
                    "add {a0}, 1024",
                    "add {a1}, 1024",
                    "add {b0}, 1024",
                    "add {b1}, 1024",
                    "dec {n}",
                    "jnz 2b",
                    a0 = inout(reg) a0 => _,
                    a1 = inout(reg) a1 => _,
                    b0 = inout(reg) b0 => _,
                    b1 = inout(reg) b1 => _,
                    n = inout(reg) steps => _,
                    s64 = in(reg) 64usize,
                    options(nostack, readonly),
                );
            }
        }

        fn drain(&mut self, scratch: &mut [i32; BLOCK_MN * BLOCK_MN]) {
            let p = scratch.as_mut_ptr();
            // SAFETY: scratch is 32x32 i32 = 4 KiB; the four stores cover
            // its quadrants at row stride 128 bytes.
            unsafe {
                asm!(
                    "tilestored [{c0} + {s128}], tmm0",
                    "tilestored [{c1} + {s128}], tmm1",
                    "tilestored [{c2} + {s128}], tmm2",
                    "tilestored [{c3} + {s128}], tmm3",
                    c0 = in(reg) p,
                    c1 = in(reg) p.add(16),
                    c2 = in(reg) p.add(16 * BLOCK_MN),
                    c3 = in(reg) p.add(16 * BLOCK_MN + 16),
                    s128 = in(reg) 128usize,
                    options(nostack),
                );
            }
        }

        fn end(&mut self) {
            // SAFETY: releases this thread's tile state; no memory.
            unsafe {
                asm!("tilerelease", options(nostack, nomem, preserves_flags));
            }
        }
    }
}

/// Which block engine executes the limb GEMMs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum BackendKind {
    /// AMX INT8 tiles (x86_64 hosts that pass the availability probe).
    #[cfg(target_arch = "x86_64")]
    Amx,
    /// Scalar model of the same pipeline — bit-identical results.
    Portable,
}

fn best_backend() -> BackendKind {
    #[cfg(target_arch = "x86_64")]
    if quant_ring_available() {
        return BackendKind::Amx;
    }
    BackendKind::Portable
}

/// One part of the output's grid of 32×32 blocks: a contiguous range of
/// row-major block indices and the pieces of the output rows those blocks
/// cover. Parts of one grid own disjoint output elements, so each can run
/// on its own thread.
struct Band<'a> {
    /// Row-major block indices `ib · nb + jb` this part computes.
    blocks: Range<usize>,
    /// First output row the part touches.
    row0: usize,
    /// One entry per output row from `row0` on: the column the segment
    /// starts at, and the segment of that row the part owns.
    rows: Vec<(usize, &'a mut [u64])>,
}

/// Splits the `m x n` output (`m = out.len() / n`) into at most `parts`
/// [`Band`]s of near-equal block counts. The split is over blocks, not
/// row blocks, so a short output still spreads evenly (a 128 × 128 output
/// has 16 blocks: 6/5/5 over three parts, where whole row blocks would
/// split 2/1/1); a row block shared by two parts is cut at a block column.
fn split_bands(out: &mut [u64], n: usize, parts: usize) -> Vec<Band<'_>> {
    let nb = n.div_ceil(BLOCK_MN);
    let mb = (out.len() / n).div_ceil(BLOCK_MN);
    let mut bands: Vec<Band> = chunks(mb * nb, parts, 1)
        .into_iter()
        .map(|c| Band {
            blocks: c.start..c.end,
            row0: c.start / nb * BLOCK_MN,
            rows: Vec::new(),
        })
        .collect();
    for (i, mut row) in out.chunks_mut(n).enumerate() {
        let first = i / BLOCK_MN * nb; // first block of this row's row block
        let mut c0 = 0;
        for band in &mut bands {
            let end = band.blocks.end.min(first + nb);
            if band.blocks.start.max(first) >= end {
                continue;
            }
            let c1 = ((end - first) * BLOCK_MN).min(n);
            let (seg, rest) = std::mem::take(&mut row).split_at_mut(c1 - c0);
            band.rows.push((c0, seg));
            (row, c0) = (rest, c1);
        }
    }
    bands
}

/// Adds one drained 32×32 block at `(i0, j0)` into the band's output at
/// shift `8·s`, wrapping: `out += sext(lane) · 2^{8s} (mod 2^64)`.
fn add_block(
    band: &mut Band,
    i0: usize,
    j0: usize,
    s: usize,
    scratch: &[i32; BLOCK_MN * BLOCK_MN],
) {
    let shift = 8 * s;
    let rows = band.rows[i0 - band.row0..].iter_mut().take(BLOCK_MN);
    for ((c0, seg), srow) in rows.zip(scratch.chunks_exact(BLOCK_MN)) {
        let seg = &mut seg[j0 - *c0..];
        let cols = BLOCK_MN.min(seg.len());
        for (o, &v) in seg[..cols].iter_mut().zip(srow) {
            *o = o.wrapping_add((v as i64 as u64) << shift);
        }
    }
}

/// Output-column blocks per cache tile: each `jb` touches 2 B panels per
/// plane (8 planes × 32 KiB = 256 KiB at k = 1024), so a group of 8 keeps
/// ~2 MiB of B resident in L2 while a full `ib` sweep streams each A
/// panel group once per *group* instead of once per *block column* —
/// several times less A traffic on large square products, which are
/// memory-bound (measured ~15% off a 1024³ ring GEMM; 4–12 bench within
/// noise of each other, 8 divides the padded block counts evenly).
const JB_TILE: usize = 8;

/// Block driver over one [`Band`]: for every 32×32 output block of the
/// band and every output shift `s`, accumulates the `s+1` live digit-pair
/// volumes of `A x B` into the band's output, draining on the K budget
/// wherever exactness demands it. Blocks are visited in L2-tiled column
/// groups (see [`JB_TILE`]); every block's accumulation is independent, so
/// neither the visit order nor the split into bands can change any output
/// bit. `nb` is the grid's block-column count.
///
/// Each band configures and releases the tile unit itself (`begin` /
/// `end`): tile state is per thread, while the `arch_prctl` permission
/// [`quant_ring_available`] obtained covers the whole process.
fn run<B: Backend>(
    be: &mut B,
    nb: usize,
    (qa, qb): (&QuantA, &QuantPackedB),
    band: &mut Band,
    budget_kb: usize,
) {
    assert!(budget_kb >= TILE_K_BYTES && budget_kb.is_multiple_of(TILE_K_BYTES));
    debug_assert_eq!(qa.k_pad, qb.k_pad);
    let a_panel = qa.k_pad * 16;
    let row_blocks = band.blocks.start / nb..band.blocks.end.div_ceil(nb);
    let mut scratch = [0i32; BLOCK_MN * BLOCK_MN];
    be.begin();
    for jbg in (0..nb).step_by(JB_TILE) {
        for ib in row_blocks.clone() {
            let i0 = ib * BLOCK_MN;
            for jb in jbg..nb.min(jbg + JB_TILE) {
                if !band.blocks.contains(&(ib * nb + jb)) {
                    continue;
                }
                let j0 = jb * BLOCK_MN;
                for s in 0..LIMBS {
                    be.zero();
                    // For s >= 4 only C_s mod 2^(64-8s) ⊆ mod 2^32 survives
                    // the shift, so i32 wraparound is exact and no drain is
                    // needed; s < 4 drains on the budget.
                    let exact = s < 4;
                    let mut budget = budget_kb;
                    for p in 0..=s {
                        let q = s - p;
                        let ap = qa.plane(p);
                        let bp = qb.plane(q);
                        let a0 = ap[2 * ib * a_panel..].as_ptr();
                        let a1 = ap[(2 * ib + 1) * a_panel..].as_ptr();
                        let b0 = bp[2 * jb * a_panel..].as_ptr();
                        let b1 = bp[(2 * jb + 1) * a_panel..].as_ptr();
                        let mut kb = 0;
                        while kb < qa.k_pad {
                            let take = if exact {
                                budget.min(qa.k_pad - kb)
                            } else {
                                qa.k_pad - kb
                            };
                            let steps = take / TILE_K_BYTES;
                            // SAFETY: each panel holds k_pad * 16 bytes and
                            // kb*16 + steps*1024 = (kb + take)*16 <= that.
                            unsafe {
                                be.step(
                                    a0.add(kb * 16),
                                    a1.add(kb * 16),
                                    b0.add(kb * 16),
                                    b1.add(kb * 16),
                                    steps,
                                );
                            }
                            kb += take;
                            if exact {
                                budget -= take;
                                if budget == 0 {
                                    be.drain(&mut scratch);
                                    be.zero();
                                    add_block(band, i0, j0, s, &scratch);
                                    budget = budget_kb;
                                }
                            }
                        }
                    }
                    be.drain(&mut scratch);
                    add_block(band, i0, j0, s, &scratch);
                }
            }
        }
    }
    be.end();
}

/// Parts a product's block grid splits into on this thread: one for the
/// caller plus one per worker of the global pool — or a single part when
/// the pool has one worker, or when the caller is itself a pool job (a
/// `gemm_batch` item on the triple provider's path), which must not wait
/// on the pool it runs on.
fn band_parts() -> usize {
    let workers = global_pool().workers();
    if workers < 2 || in_pool_worker() {
        1
    } else {
        workers + 1
    }
}

/// Adds `A x B` into the `m x n` output `out` (`n` columns) with the block
/// grid split into at most `parts` bands: the first runs on the caller,
/// the rest on the global pool. All bands read the same `A` planes and the
/// same packed `B`.
fn gemm_quant_into(
    kind: BackendKind,
    budget_kb: usize,
    n: usize,
    term: (&QuantA, &QuantPackedB),
    out: &mut [u64],
    parts: usize,
) {
    let nb = n.div_ceil(BLOCK_MN);
    let body = |_: usize, bands: &mut [Band]| {
        for band in bands {
            match kind {
                #[cfg(target_arch = "x86_64")]
                BackendKind::Amx => run(&mut amx::AmxBackend, nb, term, band, budget_kb),
                BackendKind::Portable => {
                    run(&mut PortableBackend::new(), nb, term, band, budget_kb)
                }
            }
        }
    };
    let mut bands = split_bands(out, n, parts);
    if bands.len() == 1 {
        // In place, without touching the pool: the availability probe
        // runs here before any pool exists.
        body(0, &mut bands);
    } else {
        for_each_chunk_mut_pooled(&mut bands, 1, body);
    }
}

/// True when the AMX tile backend is usable on this host: CPUID
/// advertises `amx-tile`+`amx-int8`, the kernel granted tile state, and
/// the tile kernel cross-checked bit-identical against the portable model
/// on a probe product. Detection runs once per process (cached in
/// [`crate::caps::host_caps`] alongside every other hardware capability);
/// results never vary within a process.
pub fn quant_ring_available() -> bool {
    crate::caps::host_caps().quant_ring
}

/// The raw availability probe behind [`quant_ring_available`]. Called
/// exactly once, by [`crate::caps::host_caps`] — everyone else must read
/// the cached capability, not re-probe.
pub(crate) fn probe_quant_ring() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        amx_verified()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
fn amx_verified() -> bool {
    if !amx::has_amx_int8() || !amx::request_permission() {
        return false;
    }
    // Cross-check the tile kernel against the portable model on a probe
    // that exercises padding, multiple K tiles, and a drain.
    let (m, k, n) = (5, 70, 9);
    let a: Vec<u64> = (0..m * k)
        .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5)
        .collect();
    let b: Vec<u64> = (0..k * n)
        .map(|i| (i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03) ^ 0x5A5A)
        .collect();
    let qa = pack_a_planes(m, k, &a);
    let qb = pack_b_planes(k, n, &b);
    let mut amx_out = vec![0u64; m * n];
    let mut ref_out = vec![0u64; m * n];
    let run = |kind, out: &mut [u64]| gemm_quant_into(kind, TILE_K_BYTES, n, (&qa, &qb), out, 1);
    run(BackendKind::Amx, &mut amx_out);
    run(BackendKind::Portable, &mut ref_out);
    amx_out == ref_out
}

fn assert_ring_carrier<T: Num>() {
    assert!(
        T::WRAPPING_U64,
        "quantized GEMM requires a wrapping u64 ring carrier"
    );
}

/// Packs `b` into [`QuantPackedB`] byte planes for the limb-split kernel.
/// Requires a `WRAPPING_U64` carrier (`u64` / `Fixed64`).
pub fn pack_b_quant<T: Num>(b: &Matrix<T>) -> QuantPackedB {
    assert_ring_carrier::<T>();
    // SAFETY: WRAPPING_U64 = true obliges T to be #[repr(transparent)]
    // over u64 with wrapping ring semantics (unsafe Num contract), so the
    // element slice reinterprets losslessly.
    let b64 = unsafe { cast_slice::<T, u64>(b.as_slice()) };
    pack_b_planes(b.rows(), b.cols(), b64)
}

/// Limb-split quantized ring GEMM. Bit-identical to
/// [`crate::gemm::gemm_packed`] over ring carriers; runs on AMX tiles
/// when available, and on the portable model of the same pipeline
/// otherwise.
pub fn gemm_quant<T: Num>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_eq!(
        a.cols(),
        b.rows(),
        "gemm shape mismatch: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    let packed = pack_b_quant(b);
    let out = gemm_quant_with(a, &packed);
    pool_put(packed.planes);
    out
}

/// [`gemm_quant`] against a pre-packed right-hand side.
pub fn gemm_quant_with<T: Num>(a: &Matrix<T>, packed: &QuantPackedB) -> Matrix<T> {
    gemm_quant_sum(&[(a, packed)])
}

/// Evaluates `sum_t A_t × B_t` through the limb-split kernel — the
/// quantized twin of [`crate::gemm::gemm_packed_sum`], used for the fused
/// Eq. 8 product. All terms must agree on the output shape.
pub fn gemm_quant_sum<T: Num>(terms: &[(&Matrix<T>, &QuantPackedB)]) -> Matrix<T> {
    assert_ring_carrier::<T>();
    let (m, n) = terms
        .first()
        .map(|(a, qb)| (a.rows(), qb.n))
        .expect("gemm_quant_sum needs at least one term");
    let mut out = Matrix::zeros(m, n);
    if m == 0 || n == 0 {
        return out;
    }
    for &(a, qb) in terms {
        assert_eq!(
            a.cols(),
            qb.k,
            "gemm shape mismatch: {:?} x quant-packed {:?}",
            a.shape(),
            (qb.k, qb.n)
        );
        assert_eq!(
            (a.rows(), qb.n),
            (m, n),
            "gemm_quant_sum terms disagree on output shape"
        );
    }
    // SAFETY: WRAPPING_U64 contract; the &mut borrow keeps it unique.
    let out64 = unsafe { cast_slice_mut::<T, u64>(out.as_mut_slice()) };
    let (kind, parts) = (best_backend(), band_parts());
    // The terms add into the output one after another (exact ring sums, so
    // the order cannot move a bit), and each term's A planes go back to the
    // pool before the next term packs: a fused product holds one A plane
    // set at a time, not one per term.
    for &(a, qb) in terms {
        // SAFETY: WRAPPING_U64 contract as in pack_b_quant.
        let qa = pack_a_planes(m, a.cols(), unsafe { cast_slice::<T, u64>(a.as_slice()) });
        gemm_quant_into(kind, DRAIN_BUDGET_KB, n, (&qa, qb), out64, parts);
        pool_put(qa.planes);
    }
    out
}

/// Test-only digit round-trip oracle: recode and recombine.
#[cfg(test)]
pub(crate) fn digits_roundtrip_for_tests(v: u64) -> u64 {
    recombine_digits(&balanced_digits(v))
}

/// Test-only: runs `a x b` through every backend usable on this host with
/// the given drain budget and band count, for cross-backend identity
/// checks.
#[cfg(test)]
pub(crate) fn all_backends_for_tests(
    a: &Matrix<u64>,
    b: &Matrix<u64>,
    budget_kb: usize,
    parts: usize,
) -> Vec<Matrix<u64>> {
    let mut kinds = vec![BackendKind::Portable];
    #[cfg(target_arch = "x86_64")]
    if quant_ring_available() {
        kinds.push(BackendKind::Amx);
    }
    kinds
        .into_iter()
        .map(|kind| gemm_quant_u64_forced(kind, budget_kb, parts, a, b))
        .collect()
}

/// Test-only entry with an explicit backend, drain budget and band count,
/// so drain schedules (K > budget) and band splits are exercised cheaply
/// and both backends can be compared on any host.
#[cfg(test)]
pub(crate) fn gemm_quant_u64_forced(
    kind: BackendKind,
    budget_kb: usize,
    parts: usize,
    a: &Matrix<u64>,
    b: &Matrix<u64>,
) -> Matrix<u64> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(k, b.rows());
    let mut out = Matrix::zeros(m, n);
    if m == 0 || n == 0 {
        return out;
    }
    let qa = pack_a_planes(m, k, a.as_slice());
    let qb = pack_b_planes(k, n, b.as_slice());
    gemm_quant_into(kind, budget_kb, n, (&qa, &qb), out.as_mut_slice(), parts);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_naive;

    fn umat(rows: usize, cols: usize, seed: u64) -> Matrix<u64> {
        Matrix::from_fn(rows, cols, |r, c| {
            (r as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(c as u64)
                .wrapping_mul(seed | 1)
        })
    }

    #[test]
    fn digits_roundtrip_on_corner_values() {
        for v in [
            0,
            1,
            127,
            128,
            255,
            256,
            u64::MAX,
            u64::MAX - 1,
            0x8000_0000_0000_0000,
            0x7FFF_FFFF_FFFF_FFFF,
            0x0100_8040_2010_0804,
            0xFF80_FF80_FF80_FF80,
            0x1234_5678_9ABC_DEF0,
        ] {
            let d = balanced_digits(v);
            assert!(d.iter().all(|&x| (-128..=127).contains(&(x as i16))));
            assert_eq!(recombine_digits(&d), v, "round-trip failed for {v:#x}");
        }
    }

    #[test]
    fn portable_matches_naive_on_edge_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (5, 70, 9), (8, 1, 8), (17, 40, 23), (33, 64, 40)] {
            let a = umat(m, k, 5);
            let b = umat(k, n, 9);
            let got = gemm_quant_u64_forced(BackendKind::Portable, DRAIN_BUDGET_KB, 1, &a, &b);
            assert_eq!(got, gemm_naive(&a, &b), "portable {m}x{k}x{n}");
        }
    }

    #[test]
    fn drain_schedule_is_exact() {
        // K spans several tiles and the budget forces multiple drains in
        // the s < 4 volumes (budget 64 drains after every tile step).
        let (m, k, n) = (4, 200, 6);
        let a = umat(m, k, 3);
        let b = umat(k, n, 7);
        let expect = gemm_naive(&a, &b);
        for budget in [TILE_K_BYTES, 2 * TILE_K_BYTES, DRAIN_BUDGET_KB] {
            let got = gemm_quant_u64_forced(BackendKind::Portable, budget, 1, &a, &b);
            assert_eq!(got, expect, "budget {budget}");
        }
    }

    #[test]
    fn amx_matches_portable_and_reference() {
        if !quant_ring_available() {
            return; // no AMX on this host; portable coverage is above
        }
        for &(m, k, n) in &[(5, 70, 9), (45, 130, 37), (64, 64, 64), (1, 200, 33)] {
            let a = umat(m, k, 11);
            let b = umat(k, n, 13);
            let expect = gemm_naive(&a, &b);
            #[cfg(target_arch = "x86_64")]
            {
                let amx = gemm_quant_u64_forced(BackendKind::Amx, DRAIN_BUDGET_KB, 1, &a, &b);
                assert_eq!(amx, expect, "amx {m}x{k}x{n}");
                let chunked = gemm_quant_u64_forced(BackendKind::Amx, TILE_K_BYTES, 1, &a, &b);
                assert_eq!(chunked, expect, "amx chunked {m}x{k}x{n}");
            }
            assert_eq!(gemm_quant(&a, &b), expect, "dispatched {m}x{k}x{n}");
        }
    }

    #[test]
    fn bands_partition_the_output_by_blocks() {
        // 128 x 128 is 16 blocks: 6/5/5 over three parts, where whole row
        // blocks would give 2/1/1. Every output element is owned once, in
        // row-major order.
        for (m, n, parts, sizes) in [
            (128, 128, 3, vec![6, 5, 5]),
            (33, 130, 3, vec![4, 3, 3]),
            (1, 31, 3, vec![1]),
            (97, 33, 2, vec![4, 4]),
        ] {
            let mut out = vec![0u64; m * n];
            let base = out.as_ptr();
            let bands = split_bands(&mut out, n, parts);
            let counts: Vec<usize> = bands.iter().map(|b| b.blocks.len()).collect();
            assert_eq!(counts, sizes);
            let mut owned: Vec<usize> = bands
                .iter()
                .flat_map(|b| &b.rows)
                .flat_map(|(_, seg)| {
                    let at = (seg.as_ptr() as usize - base as usize) / 8;
                    at..at + seg.len()
                })
                .collect();
            owned.sort_unstable();
            assert_eq!(owned, (0..m * n).collect::<Vec<_>>(), "{m}x{n} / {parts}");
        }
    }

    #[test]
    fn banded_driver_matches_reference_across_edges_and_drains() {
        // Band edges inside and between row blocks, partial last blocks,
        // and a drain after every tile step (budget = one step). The grid
        // runs on the tile backend; the scalar model computes the same
        // function a thousand times slower, so it runs a corner of it.
        let amx = quant_ring_available();
        for m in [1, 31, 32, 33, 95, 96, 97, 3136] {
            for n in [31, 32, 33, 128] {
                for k in [64, 130] {
                    if m == 3136 && (n, k) != (128, 130) {
                        continue; // the MLP gradient's shape; keeps debug runs short
                    }
                    let a = umat(m, k, 3 + m as u64);
                    let b = umat(k, n, 5 + n as u64);
                    let expect = crate::gemm::gemm_packed(&a, &b);
                    for parts in [1, 2, 3, 5] {
                        let portable = [31, 33].contains(&m)
                            && [31, 33].contains(&n)
                            && k == 130
                            && parts == 3;
                        let kinds = [
                            amx.then(best_backend),
                            portable.then_some(BackendKind::Portable),
                        ];
                        for kind in kinds.into_iter().flatten() {
                            let got = gemm_quant_u64_forced(kind, TILE_K_BYTES, parts, &a, &b);
                            assert_eq!(got, expect, "{kind:?} {m}x{k}x{n} / {parts}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn quant_inside_a_pool_job_stays_serial_and_matches() {
        // A gemm_batch item on the provider path: the call runs on a pool
        // worker, so it must not band (waiting on its own pool).
        let a = umat(70, 130, 5);
        let b = umat(130, 40, 7);
        let expect = gemm_naive(&a, &b);
        let mut got = None;
        global_pool().scoped_run(vec![Box::new(|| {
            got = Some((in_pool_worker(), band_parts(), gemm_quant(&a, &b)));
        })]);
        let (nested, parts, got) = got.expect("the job ran");
        assert!(nested);
        assert_eq!(parts, 1);
        assert_eq!(got, expect);
    }

    #[test]
    fn concurrent_quant_products_on_two_threads_match() {
        // The triple provider and the engine run large ring products at
        // once; each thread configures and releases its own tile state.
        if !quant_ring_available() {
            return; // tile state is the AMX backend's; no AMX on this host
        }
        let pairs = [
            (umat(256, 192, 1), umat(192, 128, 2)),
            (umat(128, 320, 3), umat(320, 96, 4)),
        ];
        let expect: Vec<Matrix<u64>> = pairs.iter().map(|(a, b)| gemm_naive(a, b)).collect();
        std::thread::scope(|s| {
            let runs: Vec<_> = pairs
                .iter()
                .map(|(a, b)| s.spawn(move || (0..4).map(|_| gemm_quant(a, b)).collect::<Vec<_>>()))
                .collect();
            for (run, e) in runs.into_iter().zip(&expect) {
                for got in run.join().expect("no panic") {
                    assert_eq!(&got, e);
                }
            }
        });
    }

    #[test]
    fn plane_pool_retains_at_most_its_largest_buffer() {
        // Run on a fresh thread so the pool starts empty.
        std::thread::spawn(|| {
            let big = umat(256, 256, 1);
            let small = umat(64, 64, 2);
            let _ = gemm_quant(&big, &big);
            let _ = gemm_quant(&small, &small);
            let _ = gemm_quant(&big, &big);
            PLANE_POOL.with(|pool| {
                let pool = pool.borrow();
                // A 256^2 operand recodes into 8 x 256 x 256 plane bytes;
                // of a call's two such buffers the pool keeps one.
                assert_eq!(pool.cap, LIMBS * 256 * 256);
                assert_eq!(pool.free.len(), 1);
                // The 64^3 call did not take it (16x its need) and shrink
                // it: it is still there, whole, for the next large call.
                assert!(pool.free[0].capacity() >= LIMBS * 256 * 256);
            });
        })
        .join()
        .expect("pool thread");
    }

    #[test]
    fn multi_term_sum_matches_fused_identity() {
        // [L | E] x [F ; B] == L x F + E x B through the quantized path.
        let l = umat(9, 70, 1);
        let e = umat(9, 33, 2);
        let f = umat(70, 11, 3);
        let b = umat(33, 11, 4);
        let fused = gemm_quant_sum(&[(&l, &pack_b_quant(&f)), (&e, &pack_b_quant(&b))]);
        let expect = gemm_naive(&l, &f).add(&gemm_naive(&e, &b));
        assert_eq!(fused, expect);
    }

    #[test]
    fn packed_b_reuse_across_left_operands() {
        let b = umat(40, 19, 3);
        let packed = pack_b_quant(&b);
        for seed in [1, 7, 13] {
            let a = umat(11, 40, seed);
            assert_eq!(gemm_quant_with(&a, &packed), gemm_naive(&a, &b));
        }
    }

    #[test]
    fn empty_dimensions_yield_zeros() {
        let a = Matrix::<u64>::zeros(0, 5);
        let b = umat(5, 3, 1);
        assert_eq!(gemm_quant(&a, &b).shape(), (0, 3));
        let a = Matrix::<u64>::zeros(4, 0);
        let b = Matrix::<u64>::zeros(0, 3);
        assert_eq!(gemm_quant(&a, &b), Matrix::zeros(4, 3));
    }

    #[test]
    fn packed_debug_is_redacted() {
        let qb = pack_b_quant(&umat(4, 4, 9));
        let s = format!("{qb:?}");
        assert!(s.contains("<redacted>"));
        assert!(!s.contains('['), "no plane bytes in Debug output: {s}");
    }
}
