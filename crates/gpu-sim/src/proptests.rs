//! Property-based tests for the GPU simulator.

use crate::config::MachineConfig;
use crate::device::GpuDevice;
use crate::kernels::GemmMode;
use proptest::prelude::*;
use psml_simtime::SimTime;
use psml_tensor::Matrix;

proptest! {
    /// A device GEMM's output buffer has the product's shape and bytes,
    /// and its download completes after both uploads.
    #[test]
    fn device_gemm_output_shape_and_time(m in 1usize..9, k in 1usize..9, n in 1usize..9) {
        let mut dev = GpuDevice::<u64>::new(MachineConfig::v100_node().gpu);
        let ha = dev.upload(&Matrix::zeros(m, k), SimTime::ZERO).unwrap();
        let hb = dev.upload(&Matrix::zeros(k, n), SimTime::ZERO).unwrap();
        let uploaded = dev.now();
        let hc = dev.gemm(ha, hb, GemmMode::Fp32).unwrap();
        prop_assert_eq!(dev.shape(hc), Ok((m, n)));
        prop_assert_eq!(dev.allocated_bytes(), 8 * (m * k + k * n + m * n));
        prop_assert!(dev.download(hc).unwrap() > uploaded);
    }

    /// Memory accounting balances across arbitrary alloc/free sequences.
    #[test]
    fn memory_accounting_balances(sizes in prop::collection::vec(1usize..32, 1..20)) {
        let mut dev = GpuDevice::<f32>::new(MachineConfig::v100_node().gpu);
        let mut live = Vec::new();
        let mut expected = 0usize;
        for (i, n) in sizes.iter().enumerate() {
            let m = Matrix::<f32>::zeros(*n, *n);
            let id = dev.upload(&m, SimTime::ZERO).unwrap();
            expected += m.byte_size();
            live.push((id, m.byte_size()));
            if i % 3 == 2 {
                let (id, bytes) = live.remove(0);
                dev.free(id).unwrap();
                expected -= bytes;
            }
            prop_assert_eq!(dev.allocated_bytes(), expected);
        }
        for (id, _) in live {
            dev.free(id).unwrap();
        }
        prop_assert_eq!(dev.allocated_bytes(), 0);
    }

    /// The makespan never decreases as operations are issued.
    #[test]
    fn time_is_monotone(ops in prop::collection::vec(0u8..3, 1..15)) {
        let mut dev = GpuDevice::<f32>::new(MachineConfig::v100_node().gpu);
        let m = Matrix::<f32>::from_fn(8, 8, |r, c| (r + c) as f32);
        let mut last = dev.upload(&m, SimTime::ZERO).unwrap();
        let mut t_prev = dev.now();
        for op in ops {
            match op {
                0 => {
                    last = dev.upload(&m, SimTime::ZERO).unwrap();
                }
                1 => {
                    last = dev.gemm(last, last, GemmMode::Fp32).unwrap();
                }
                _ => {
                    let _ = dev.download(last).unwrap();
                }
            }
            let t = dev.now();
            prop_assert!(t >= t_prev);
            t_prev = t;
        }
    }

    /// The makespan bounds every engine's busy time: the profile's time on
    /// each engine (the copy labels on their engines, every kernel on the
    /// compute engine) never exceeds `now`, however ops chain, overlap or
    /// wait on host-ready instants and fences.
    #[test]
    fn makespan_bounds_engine_busy_time(
        ops in prop::collection::vec((0u8..5, 0.0f64..1e-4), 1..40),
    ) {
        let mut dev = GpuDevice::<f32>::new(MachineConfig::v100_node().gpu);
        let m = Matrix::<f32>::from_fn(16, 16, |r, c| (r * c) as f32);
        let mut last = dev.upload(&m, SimTime::ZERO).unwrap();
        for (op, after) in ops {
            let after = SimTime::from_secs(after);
            match op {
                0 => last = dev.upload(&m, after).unwrap(),
                1 => last = dev.gemm(last, last, GemmMode::Fp32).unwrap(),
                2 => last = dev.add(last, last).unwrap(),
                3 => {
                    let _ = dev.download(last).unwrap();
                }
                _ => {
                    dev.fence();
                    let h = dev.random(8, 8, after).unwrap();
                    let _ = dev.download(h).unwrap();
                    dev.free(h).unwrap();
                }
            }
        }
        let span = dev.now().saturating_since(SimTime::ZERO);
        let profile = dev.profile();
        for engine in ["h2d", "d2h", "compute"] {
            let busy: f64 = profile
                .lines
                .iter()
                .filter(|l| match l.label.as_str() {
                    copy @ ("h2d" | "d2h") => copy == engine,
                    _ => engine == "compute",
                })
                .map(|l| l.total.as_secs())
                .sum();
            prop_assert!(busy <= span.as_secs() * (1.0 + 1e-12), "{engine}: {busy} > {span}");
        }
    }
}
