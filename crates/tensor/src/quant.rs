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
use std::cell::RefCell;
use std::fmt;

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

/// Retained plane buffers per pool (bounds per-thread memory held back
/// from the allocator to a few working sets).
const POOL_MAX: usize = 4;

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
    static PLANE_POOL: RefCell<Vec<Vec<i8>>> = const { RefCell::new(Vec::new()) };
}

/// Takes a recycled buffer (or a fresh one) of exactly `len` bytes.
///
/// Contents are **stale** (whatever the previous pack left) unless
/// `zeroed` is set: the tile layouts below are bijections onto the
/// plane, so a pack over tile-aligned operands rewrites every byte and
/// re-zeroing 2·8 MB up front (at 1024³) would be pure memory traffic.
/// Packs of padded shapes pass `zeroed = true` so the pad lanes
/// contribute exact zeros to the accumulators.
fn pool_take(len: usize, zeroed: bool) -> Vec<i8> {
    let mut buf = PLANE_POOL
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_default();
    if zeroed {
        buf.clear();
    } else if buf.len() > len {
        buf.truncate(len);
    }
    buf.resize(len, 0);
    buf
}

/// Returns a plane buffer to the pool for the next pack to reuse.
fn pool_put(buf: Vec<i8>) {
    PLANE_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < POOL_MAX {
            pool.push(buf);
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

/// Adds one drained 32×32 block into the `u64` output at shift `8·s`,
/// wrapping: `out += sext(lane) · 2^{8s} (mod 2^64)`.
fn add_block(
    out: &mut [u64],
    m: usize,
    n: usize,
    i0: usize,
    j0: usize,
    s: usize,
    scratch: &[i32; BLOCK_MN * BLOCK_MN],
) {
    let shift = 8 * s;
    let rows = BLOCK_MN.min(m - i0);
    let cols = BLOCK_MN.min(n - j0);
    for r in 0..rows {
        let orow = &mut out[(i0 + r) * n + j0..(i0 + r) * n + j0 + cols];
        let srow = &scratch[r * BLOCK_MN..r * BLOCK_MN + cols];
        for (o, &v) in orow.iter_mut().zip(srow) {
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

/// Block driver: for every 32×32 output block and every output shift `s`,
/// accumulates the `s+1` live digit-pair volumes of every term, draining
/// on the K budget wherever exactness demands it. Blocks are visited in
/// L2-tiled column groups (see [`JB_TILE`]); every block's accumulation
/// is independent, so the visit order cannot change any output bit.
fn run<B: Backend>(
    be: &mut B,
    m: usize,
    n: usize,
    terms: &[(&QuantA, &QuantPackedB)],
    out: &mut [u64],
    budget_kb: usize,
) {
    assert!(budget_kb >= TILE_K_BYTES && budget_kb.is_multiple_of(TILE_K_BYTES));
    let m_pad = pad_to(m, BLOCK_MN);
    let n_pad = pad_to(n, BLOCK_MN);
    let (mb, nb) = (m_pad / BLOCK_MN, n_pad / BLOCK_MN);
    let mut scratch = [0i32; BLOCK_MN * BLOCK_MN];
    be.begin();
    for jbg in (0..nb).step_by(JB_TILE) {
        for ib in 0..mb {
            let i0 = ib * BLOCK_MN;
            for jb in jbg..nb.min(jbg + JB_TILE) {
                let j0 = jb * BLOCK_MN;
                for s in 0..LIMBS {
                    be.zero();
                    // For s >= 4 only C_s mod 2^(64-8s) ⊆ mod 2^32 survives
                    // the shift, so i32 wraparound is exact and no drain is
                    // needed; s < 4 drains on the budget.
                    let exact = s < 4;
                    let mut budget = budget_kb;
                    for &(qa, qb) in terms {
                        debug_assert_eq!(qa.k_pad, qb.k_pad);
                        let a_panel = qa.k_pad * 16;
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
                                        add_block(out, m, n, i0, j0, s, &scratch);
                                        budget = budget_kb;
                                    }
                                }
                            }
                        }
                    }
                    be.drain(&mut scratch);
                    add_block(out, m, n, i0, j0, s, &scratch);
                }
            }
        }
    }
    be.end();
}

fn gemm_quant_sum_into(
    kind: BackendKind,
    budget_kb: usize,
    m: usize,
    n: usize,
    terms: &[(&QuantA, &QuantPackedB)],
    out: &mut [u64],
) {
    match kind {
        #[cfg(target_arch = "x86_64")]
        BackendKind::Amx => run(&mut amx::AmxBackend, m, n, terms, out, budget_kb),
        BackendKind::Portable => run(&mut PortableBackend::new(), m, n, terms, out, budget_kb),
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
    gemm_quant_sum_into(
        BackendKind::Amx,
        TILE_K_BYTES,
        m,
        n,
        &[(&qa, &qb)],
        &mut amx_out,
    );
    gemm_quant_sum_into(
        BackendKind::Portable,
        TILE_K_BYTES,
        m,
        n,
        &[(&qa, &qb)],
        &mut ref_out,
    );
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
    let quant_as: Vec<QuantA> = terms
        .iter()
        .map(|&(a, qb)| {
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
            // SAFETY: WRAPPING_U64 contract as in pack_b_quant.
            pack_a_planes(m, a.cols(), unsafe { cast_slice::<T, u64>(a.as_slice()) })
        })
        .collect();
    let term_refs: Vec<(&QuantA, &QuantPackedB)> = quant_as
        .iter()
        .zip(terms.iter())
        .map(|(qa, &(_, qb))| (qa, qb))
        .collect();
    // SAFETY: WRAPPING_U64 contract; the &mut borrow keeps it unique.
    let out64 = unsafe { cast_slice_mut::<T, u64>(out.as_mut_slice()) };
    gemm_quant_sum_into(best_backend(), DRAIN_BUDGET_KB, m, n, &term_refs, out64);
    drop(term_refs);
    for qa in quant_as {
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
/// the given drain budget, for cross-backend identity checks.
#[cfg(test)]
pub(crate) fn all_backends_for_tests(
    a: &Matrix<u64>,
    b: &Matrix<u64>,
    budget_kb: usize,
) -> Vec<Matrix<u64>> {
    let mut out = vec![gemm_quant_u64_forced(
        BackendKind::Portable,
        budget_kb,
        a,
        b,
    )];
    #[cfg(target_arch = "x86_64")]
    if quant_ring_available() {
        out.push(gemm_quant_u64_forced(BackendKind::Amx, budget_kb, a, b));
    }
    out
}

/// Test-only entry with an explicit backend and drain budget, so drain
/// schedules (K > budget) are exercised cheaply and both backends can be
/// compared on any host.
#[cfg(test)]
pub(crate) fn gemm_quant_u64_forced(
    kind: BackendKind,
    budget_kb: usize,
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
    gemm_quant_sum_into(kind, budget_kb, m, n, &[(&qa, &qb)], out.as_mut_slice());
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
            let got = gemm_quant_u64_forced(BackendKind::Portable, DRAIN_BUDGET_KB, &a, &b);
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
            let got = gemm_quant_u64_forced(BackendKind::Portable, budget, &a, &b);
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
                let amx = gemm_quant_u64_forced(BackendKind::Amx, DRAIN_BUDGET_KB, &a, &b);
                assert_eq!(amx, expect, "amx {m}x{k}x{n}");
                let chunked = gemm_quant_u64_forced(BackendKind::Amx, TILE_K_BYTES, &a, &b);
                assert_eq!(chunked, expect, "amx chunked {m}x{k}x{n}");
            }
            assert_eq!(gemm_quant(&a, &b), expect, "dispatched {m}x{k}x{n}");
        }
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
