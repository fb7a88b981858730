//! The rate table behind the device API.
//!
//! [`GpuDevice`](crate::device::GpuDevice) is a timing model: buffers,
//! the three engines and their profiler tally, OOM accounting. What each
//! kernel costs comes from here:
//!
//! - [`SimBackend`] is the **rate table**: [`SimBackend::gemm_charge`] /
//!   [`SimBackend::rng_charge`] pair every kernel with its label and
//!   charged duration, the calibrated analytic model of [`GpuConfig`], so
//!   device ops and `AdaptiveEngine::gpu_cost` draw cost from one place
//!   and cannot drift apart. Every committed report was produced under it.
//!
//! Where a product runs is decided from measured cost per operation by the
//! adaptive engine, never by a user-set backend flag.

use crate::config::GpuConfig;
use crate::kernels::GemmMode;
use psml_simtime::SimDuration;
use psml_tensor::Num;

/// Which backend a device uses: the simulator's rate table, the only one
/// there is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The calibrated analytic cost model (every committed report was
    /// produced under this).
    #[default]
    Simulated,
}

/// The simulator's rate table: prices the kernels of a device, so that
/// no kernel is issued that the cost model doesn't know how to price.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimBackend;

impl SimBackend {
    /// Rate-table entry for a `(m x k) * (k x n)` GEMM in `mode`: the
    /// profiler label and the charged duration.
    pub fn gemm_charge(
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
    pub fn rng_charge(&self, cfg: &GpuConfig, samples: usize) -> (&'static str, SimDuration) {
        ("curand", cfg.rng_time(samples))
    }
}

/// The rate table for `kind`, for a device carrying `R` elements.
pub fn backend_for<R: Num>(kind: BackendKind) -> SimBackend {
    match kind {
        BackendKind::Simulated => SimBackend,
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
