//! Once-per-process host capability probe.
//!
//! Kernel dispatch needs to know what the host can actually execute: the
//! AVX2 and AVX-512 vector units the packed kernels dispatch on. F16C and
//! the AMX INT8 tile unit are probed only for benchmark host headers;
//! nothing dispatches on them. Probing at every call site is wasted work,
//! and probing in several places lets the answers drift.
//! This module runs every probe exactly once and caches an immutable
//! [`HostCaps`] for the process lifetime, so the answer can never change
//! mid-run; every availability question in the workspace reads from here.

use std::sync::OnceLock;

/// What this host's hardware can run, probed once per process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HostCaps {
    /// The AMX INT8 tile unit is present (`amx-tile`+`amx-int8`). Nothing
    /// dispatches on it: no kernel in this workspace uses the tile unit
    /// (DESIGN.md "No host tile kernel"). Benchmark headers record it, as
    /// they do `f16c`.
    pub quant_ring: bool,
    /// The F16C conversion unit (`vcvtps2ph`/`vcvtph2ps`) is present.
    /// Nothing dispatches on it: no value in the workspace is rounded
    /// through binary16 (the simulated Tensor Core prices GEMMs and
    /// computes none). The e2e benchmark records it in its host header.
    pub f16c: bool,
    /// AVX2+FMA are present (the packed GEMM kernels' wide path).
    pub avx2: bool,
    /// AVX-512F+DQ are present: ring products run the explicit `vpmullq`
    /// band kernel in [`crate::gemm`], which also lowers the size from
    /// which they band over the pool.
    pub avx512_ring: bool,
}

/// [`HostCaps::quant_ring`]: whether the host has the AMX INT8 tile unit.
/// Benchmark headers record it; no kernel dispatches on it.
pub fn quant_ring_available() -> bool {
    host_caps().quant_ring
}

/// The cached process-wide capability set.
pub fn host_caps() -> &'static HostCaps {
    static CAPS: OnceLock<HostCaps> = OnceLock::new();
    CAPS.get_or_init(|| HostCaps {
        quant_ring: probe_feature("amx-tile") && probe_feature("amx-int8"),
        f16c: probe_feature("f16c"),
        avx2: probe_feature("avx2") && probe_feature("fma"),
        avx512_ring: probe_feature("avx512f") && probe_feature("avx512dq"),
    })
}

#[cfg(target_arch = "x86_64")]
fn probe_feature(name: &str) -> bool {
    match name {
        "f16c" => std::arch::is_x86_feature_detected!("f16c"),
        "avx2" => std::arch::is_x86_feature_detected!("avx2"),
        "fma" => std::arch::is_x86_feature_detected!("fma"),
        "avx512f" => std::arch::is_x86_feature_detected!("avx512f"),
        "avx512dq" => std::arch::is_x86_feature_detected!("avx512dq"),
        // CPUID leaf 7 EDX bits 24 and 25 (`is_x86_feature_detected!`
        // does not take the AMX names on stable).
        "amx-tile" | "amx-int8" => {
            use std::arch::x86_64::{__cpuid_count, __get_cpuid_max};
            let bit = if name == "amx-tile" { 24 } else { 25 };
            __get_cpuid_max(0).0 >= 7 && (__cpuid_count(7, 0).edx >> bit) & 1 == 1
        }
        _ => false,
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn probe_feature(_name: &str) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caps_are_stable_within_the_process() {
        let a = *host_caps();
        let b = *host_caps();
        assert_eq!(a, b);
        assert!(std::ptr::eq(host_caps(), host_caps()));
    }
}
