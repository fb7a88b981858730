//! The compute seam behind the device API: one rate table, one kernel set.
//!
//! [`GpuDevice`](crate::device::GpuDevice) splits into two layers: the
//! *device surface* (buffers/arena, the three engines and their profiler
//! tally, OOM accounting) and the *compute backend* that produces
//! kernel results and prices them. This module defines the seam:
//!
//! - [`Backend`] is the kernel-execution trait. It also owns the **rate
//!   table** — the provided [`Backend::gemm_charge`] / [`Backend::rng_charge`]
//!   methods pair every kernel with its label and charged duration, so the
//!   real `gemm` path, the charge-only roundtrip mirrors and
//!   `AdaptiveEngine::gpu_cost` all draw cost from one place and cannot
//!   drift apart.
//! - [`SimBackend`] is the only implementation: the functional simulator's
//!   host kernels ([`crate::kernels`]). Every committed report was produced
//!   under it.
//!
//! Where a product runs is decided from measured cost per operation by the
//! adaptive engine, never by a user-set backend flag.

use crate::config::GpuConfig;
use crate::element::GpuElement;
use crate::kernels::{self, GemmMode};
use psml_simtime::SimDuration;
use psml_tensor::Matrix;

/// Which compute backend a device uses: the functional simulator, the
/// only one there is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The functional simulator's host kernels (every committed report
    /// was produced under this).
    #[default]
    Simulated,
}

/// A compute backend: executes kernels and prices them.
///
/// The execution methods are exact for ring carriers and apply the
/// documented through-f16 rounding (and only that) for the float
/// Tensor-Core mode. The charge methods are provided and final in spirit:
/// they are the one rate table ([`GpuConfig::gemm_time_mode`] +
/// [`GemmMode::kernel_label`]) shared by real execution and the
/// charge-only roundtrip mirrors, so no kernel runs that the cost model
/// doesn't know how to price.
pub trait Backend<R: GpuElement>: Send + Sync {
    /// Executes a GEMM with the selected unit's numerics.
    fn gemm(&self, a: &Matrix<R>, b: &Matrix<R>, mode: GemmMode) -> Matrix<R>;

    /// Fills a `rows x cols` matrix from the counter-based device RNG.
    /// The splitmix64 counter stream *is* the functional spec (as Philox
    /// is for cuRAND); protocol determinism depends on it.
    fn random(&self, rows: usize, cols: usize, seed: u64) -> Matrix<R> {
        kernels::device_random(rows, cols, seed)
    }

    /// Rate-table entry for a `(m x k) * (k x n)` GEMM in `mode`: the
    /// profiler label and the charged duration.
    fn gemm_charge(
        &self,
        cfg: &GpuConfig,
        m: usize,
        k: usize,
        n: usize,
        mode: GemmMode,
    ) -> (&'static str, SimDuration) {
        (mode.kernel_label(), cfg.gemm_time_mode(m, k, n, mode))
    }

    /// Rate-table entry for generating `samples` device-RNG values.
    fn rng_charge(&self, cfg: &GpuConfig, samples: usize) -> (&'static str, SimDuration) {
        ("curand", cfg.rng_time(samples))
    }
}

/// The functional simulator's kernels.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimBackend;

impl<R: GpuElement> Backend<R> for SimBackend {
    fn gemm(&self, a: &Matrix<R>, b: &Matrix<R>, mode: GemmMode) -> Matrix<R> {
        kernels::gemm(a, b, mode)
    }
}

/// Builds the backend for `kind`.
pub fn backend_for<R: GpuElement>(kind: BackendKind) -> Box<dyn Backend<R>> {
    match kind {
        BackendKind::Simulated => Box::new(SimBackend),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_table_matches_config_for_every_mode() {
        let cfg = GpuConfig::v100();
        let be = backend_for::<u64>(BackendKind::default());
        for mode in [GemmMode::Fp32, GemmMode::TensorCore] {
            let (label, dur) = be.gemm_charge(&cfg, 32, 48, 16, mode);
            assert_eq!(label, mode.kernel_label());
            assert_eq!(dur, cfg.gemm_time_mode(32, 48, 16, mode));
        }
        let (label, dur) = be.rng_charge(&cfg, 640);
        assert_eq!((label, dur), ("curand", cfg.rng_time(640)));
    }
}
