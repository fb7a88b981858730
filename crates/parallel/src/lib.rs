#![deny(unsafe_op_in_unsafe_fn)]
//! CPU parallelism substrate for ParSecureML-rs (paper Section 5.1).
//!
//! ParSecureML leaves two kinds of work on the CPU: generation of the random
//! matrices (`A0`, `B0`, `U`, `V`, ...) and the element-wise matrix
//! additions/subtractions of Eqs. (3) and (5). The paper parallelizes both
//! with three specific techniques that this crate reproduces:
//!
//! 1. **Thread-safe random number generation** with one *Mersenne Twister
//!    19937* generator per thread, held in a `thread_local!` static and
//!    seeded from the current time plus a hash of the thread id
//!    ([`with_thread_rng`], [`Mt19937`]).
//! 2. **Cache-line-aware chunking**: each worker receives contiguous chunks
//!    whose sizes are multiples of 16 `f32` elements (one 64-byte cache
//!    line) so that no two threads write the same cache line
//!    ([`chunking::chunks`], `CACHE_LINE_F32`).
//! 3. **Merged parallel regions**: a persistent [`ThreadPool`] plus a scoped
//!    [`parallel_for`] so that several logical loops can be fused into one
//!    region without re-spawning threads.

pub mod chunking;
pub mod mt19937;
pub mod pool;

pub use chunking::{chunks, Chunk, CACHE_LINE_F32};
pub use mt19937::Mt19937;
pub use pool::{
    configured_workers, default_workers, for_each_chunk_mut, for_each_chunk_mut_pooled,
    global_pool, in_pool_worker, parallel_for, parallel_for_in, ThreadPool,
};

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{SystemTime, UNIX_EPOCH};

thread_local! {
    /// Per-thread MT19937 generator, created once per thread for the life of
    /// the program — exactly the "static thread_local" design of Sec. 5.1.
    static THREAD_RNG: RefCell<Mt19937> = RefCell::new(Mt19937::new(thread_seed()));
}

/// Derives the per-thread seed the way the paper describes: "the sum of the
/// current time and the hash of the thread identifier".
fn thread_seed() -> u32 {
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.subsec_nanos().wrapping_add(d.as_secs() as u32))
        .unwrap_or(0x9E37_79B9);
    let mut hasher = DefaultHasher::new();
    std::thread::current().id().hash(&mut hasher);
    now.wrapping_add(hasher.finish() as u32)
}

/// Runs `f` with this thread's private MT19937 generator.
///
/// Unlike a locked global `rand()`, concurrent callers on different threads
/// never contend, and each thread pays the (sizeable, 2.5 KiB state) MT19937
/// initialization exactly once.
pub fn with_thread_rng<R>(f: impl FnOnce(&mut Mt19937) -> R) -> R {
    THREAD_RNG.with(|rng| f(&mut rng.borrow_mut()))
}

/// Re-seeds the calling thread's generator; used by tests that need
/// reproducible thread-local streams.
pub fn reseed_thread_rng(seed: u32) {
    THREAD_RNG.with(|rng| *rng.borrow_mut() = Mt19937::new(seed));
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_rng_is_distinct_per_thread() {
        reseed_thread_rng(42);
        let here: Vec<u32> = with_thread_rng(|r| (0..4).map(|_| r.next_u32()).collect());
        let there = std::thread::spawn(|| {
            reseed_thread_rng(43);
            with_thread_rng(|r| (0..4).map(|_| r.next_u32()).collect::<Vec<u32>>())
        })
        .join()
        .unwrap();
        assert_ne!(here, there);
    }

    #[test]
    fn reseeding_makes_stream_reproducible() {
        reseed_thread_rng(7);
        let a: Vec<u32> = with_thread_rng(|r| (0..8).map(|_| r.next_u32()).collect());
        reseed_thread_rng(7);
        let b: Vec<u32> = with_thread_rng(|r| (0..8).map(|_| r.next_u32()).collect());
        assert_eq!(a, b);
    }

    #[test]
    fn concurrent_generation_races_cleanly() {
        // The entire point of the Sec. 5.1 design: hammering the generator
        // from many threads must produce valid (non-deadlocking, data-race
        // free) streams. Run under the default test harness with threads.
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    with_thread_rng(|r| (0..10_000).map(|_| r.next_u32()).count())
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 10_000);
        }
    }
}
