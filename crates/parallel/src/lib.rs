#![deny(unsafe_op_in_unsafe_fn)]
//! CPU parallelism substrate for ParSecureML-rs (paper Section 5.1).
//!
//! ParSecureML leaves two kinds of work on the CPU: generation of the random
//! matrices (`A0`, `B0`, `U`, `V`, ...) and the element-wise matrix
//! additions/subtractions of Eqs. (3) and (5). The paper parallelizes both
//! with three techniques. There is one runtime for them — the
//! process-global [`ThreadPool`] — and this is where each lives:
//!
//! 1. **Cache-line-aware chunking**: each worker receives contiguous chunks
//!    whose sizes are multiples of 16 `f32` elements (one 64-byte cache
//!    line) so that no two threads write the same cache line
//!    ([`chunking::chunks`], `CACHE_LINE_F32`, applied by
//!    [`for_each_chunk_mut_pooled`]).
//! 2. **Merged parallel regions**: the workers of [`global_pool`] are
//!    spawned once and every parallel loop borrows them through
//!    [`for_each_chunk_mut_pooled`], so no region pays a thread start.
//! 3. **Thread-safe random number generation**: the paper gives each
//!    thread a `thread_local` *Mersenne Twister 19937* seeded from the
//!    current time plus a hash of the thread id. This crate substitutes
//!    seeded counter streams: every generator is minted from a caller's
//!    seed ([`protocol_rng`], [`derived_rng`]) or from a `(master, stream)`
//!    pair ([`Mt19937::from_stream`], one stream per triple), so threads
//!    still never share a generator, and — what time seeding cannot give —
//!    a run replays bit for bit, which prefetch ≡ inline triples and
//!    checkpoint/replay identity depend on. Nothing in this crate reads a
//!    clock.

pub mod chunking;
pub mod mt19937;
pub mod pool;

pub use chunking::{chunks, Chunk, CACHE_LINE_F32};
pub use mt19937::Mt19937;
pub use pool::{
    both, configured_workers, default_workers, for_each_chunk_mut_pooled, global_pool,
    in_pool_region, in_pool_worker, ThreadPool,
};

/// Constructs the deterministic MT19937 generator protocol code uses for
/// masking and share generation.
///
/// Protocol crates (`core`, `mpc` outside the triple provisioner) are not
/// sanctioned to call [`Mt19937::new`] directly — `psml-lint`'s RNG
/// discipline rule flags it — so all protocol-level generators are minted
/// here, keeping every seed derivation auditable in one module.
pub fn protocol_rng(seed: u32) -> Mt19937 {
    Mt19937::new(seed)
}

/// Like [`protocol_rng`], but salts the seed first.
///
/// Used where two generators must be decorrelated while still being derived
/// from one user-facing seed (e.g. a trainer's shuffle stream vs. the
/// engine's masking stream).
pub fn derived_rng(seed: u32, salt: u32) -> Mt19937 {
    Mt19937::new(seed.wrapping_add(salt))
}
