//! Property-based tests for the GPU simulator.

use crate::config::MachineConfig;
use crate::device::GpuDevice;
use crate::kernels::GemmMode;
use proptest::prelude::*;
use psml_simtime::SimTime;
use psml_tensor::{gemm_blocked, Matrix};

fn ring_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix<u64>> {
    prop::collection::vec(any::<u64>(), rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

proptest! {
    /// Device GEMM is bit-identical to the host kernel over the ring, and
    /// time strictly advances.
    #[test]
    fn device_gemm_functionally_exact(a in ring_matrix(5, 7), b in ring_matrix(7, 3)) {
        let mut dev = GpuDevice::<u64>::new(MachineConfig::v100_node().gpu);
        let ha = dev.upload(&a, SimTime::ZERO).unwrap();
        let hb = dev.upload(&b, SimTime::ZERO).unwrap();
        let hc = dev.gemm(ha, hb, GemmMode::Fp32).unwrap();
        let (c, done) = dev.download(hc).unwrap();
        prop_assert_eq!(c, gemm_blocked(&a, &b));
        prop_assert!(done > SimTime::ZERO);
    }

    /// Tensor-core mode on ring elements is bit-identical to fp32 mode
    /// (integers have no f16 port), and never slower than fp32 in model
    /// time for equal shapes.
    #[test]
    fn tensor_core_ring_identity(a in ring_matrix(4, 4), b in ring_matrix(4, 4)) {
        let mut dev = GpuDevice::<u64>::new(MachineConfig::v100_node().gpu);
        let ha = dev.upload(&a, SimTime::ZERO).unwrap();
        let hb = dev.upload(&b, SimTime::ZERO).unwrap();
        let h1 = dev.gemm(ha, hb, GemmMode::Fp32).unwrap();
        let h2 = dev.gemm(ha, hb, GemmMode::TensorCore).unwrap();
        let (c1, _) = dev.download(h1).unwrap();
        let (c2, _) = dev.download(h2).unwrap();
        prop_assert_eq!(c1, c2);
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
}
