//! Once-per-process host capability probe.
//!
//! Kernel dispatch needs to know what the host can actually execute: the
//! AMX INT8 tile unit (CPUID, the kernel's xstate opt-in, *and* a
//! correctness cross-check — see [`crate::quant`]) and the AVX2 vector
//! unit the packed kernels dispatch on; F16C is probed only for the e2e
//! benchmark's host header. Probing at every call site is wasted work,
//! and probing in several places lets the answers drift. This module runs
//! every probe exactly once and caches an immutable [`HostCaps`] for the
//! process lifetime, so the answer can never change mid-run; every
//! availability question in the workspace reads from here.

use std::sync::OnceLock;

/// What this host's hardware can run, probed once per process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HostCaps {
    /// The AMX INT8 tile backend is usable: CPUID advertises
    /// `amx-tile`+`amx-int8`, the kernel granted tile state, the tile
    /// kernel cross-checked bit-identical against the portable model.
    pub quant_ring: bool,
    /// The F16C conversion unit (`vcvtps2ph`/`vcvtph2ps`) is present.
    /// Nothing dispatches on it (f16 rounding is the scalar emulation in
    /// [`crate::half`]); the e2e benchmark records it in its host header.
    pub f16c: bool,
    /// AVX2+FMA are present (the packed GEMM kernels' wide path).
    pub avx2: bool,
}

/// The cached process-wide capability set.
pub fn host_caps() -> &'static HostCaps {
    static CAPS: OnceLock<HostCaps> = OnceLock::new();
    CAPS.get_or_init(|| HostCaps {
        quant_ring: crate::quant::probe_quant_ring(),
        f16c: probe_feature("f16c"),
        avx2: probe_feature("avx2") && probe_feature("fma"),
    })
}

#[cfg(target_arch = "x86_64")]
fn probe_feature(name: &str) -> bool {
    match name {
        "f16c" => std::arch::is_x86_feature_detected!("f16c"),
        "avx2" => std::arch::is_x86_feature_detected!("avx2"),
        "fma" => std::arch::is_x86_feature_detected!("fma"),
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

    #[test]
    fn quant_ring_cap_agrees_with_the_public_predicate() {
        assert_eq!(host_caps().quant_ring, crate::quant::quant_ring_available());
    }
}
