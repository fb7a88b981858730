//! Machine model configuration: the GPU, the host CPU, and the links.
//!
//! Defaults are calibrated to the paper's platform: dual Xeon E5-2670 v3
//! (24 cores), an NVIDIA Tesla V100 (14 TFLOPS FP32, 125 TFLOPS Tensor
//! Core peak, ~900 GB/s HBM2), PCIe 3.0 x16, and 100 Gbps 4xEDR InfiniBand.
//! Sustained (not peak) rates are used, following published measurements;
//! the Tensor-Core GEMM rate uses the 2.5-12x-over-cuBLAS range reported by
//! Markidis et al. (the paper's reference 18) at its conservative end.

use crate::kernels::GemmMode;
use psml_simtime::{LinkModel, SimDuration};

/// Simulated GPU parameters.
#[derive(Clone, Debug)]
pub struct GpuConfig {
    /// Marketing name, for reports.
    pub name: String,
    /// Sustained FP32 GEMM throughput, GFLOP/s.
    pub fp32_gflops: f64,
    /// Sustained Tensor-Core GEMM throughput, GFLOP/s.
    pub tensor_gflops: f64,
    /// Device memory bandwidth for element-wise kernels, GB/s.
    pub mem_bw_gbs: f64,
    /// Kernel launch + driver overhead per kernel, microseconds.
    pub launch_overhead_us: f64,
    /// Device RNG (cuRAND-like) generation rate, samples/s.
    pub rng_samples_per_sec: f64,
    /// One-time cuRAND generator setup + ordering cost charged per
    /// generation call, microseconds. This (not kernel launch) is what
    /// pushes the Fig. 7 CPU/GPU crossover to matrix dimensions ~10^3.
    pub rng_setup_us: f64,
    /// Device memory capacity in bytes.
    pub memory_bytes: usize,
    /// Host<->device link.
    pub pcie: LinkModel,
}

impl GpuConfig {
    /// V100-class defaults.
    pub fn v100() -> Self {
        GpuConfig {
            name: "Tesla V100 (simulated)".to_string(),
            fp32_gflops: 12_000.0,
            tensor_gflops: 48_000.0,
            mem_bw_gbs: 800.0,
            launch_overhead_us: 10.0,
            rng_samples_per_sec: 40e9,
            rng_setup_us: 2_000.0,
            memory_bytes: 16 * (1 << 30),
            pcie: LinkModel::pcie3_x16(),
        }
    }

    /// Time for a dense `(m x k) * (k x n)` GEMM.
    pub fn gemm_time(&self, m: usize, k: usize, n: usize, tensor_core: bool) -> SimDuration {
        let flops = 2.0 * m as f64 * k as f64 * n as f64;
        let rate = if tensor_core {
            self.tensor_gflops
        } else {
            self.fp32_gflops
        } * 1e9;
        // Small GEMMs cannot saturate the device: cap achievable rate by a
        // simple occupancy ramp (full rate needs ~2^20 flops in flight).
        let occupancy = (flops / (1 << 21) as f64).clamp(1.0 / 4096.0, 1.0);
        self.launch() + SimDuration::from_secs(flops / (rate * occupancy))
    }

    /// Time for a dense `(m x k) * (k x n)` GEMM on the unit `mode`
    /// selects.
    pub fn gemm_time_mode(&self, m: usize, k: usize, n: usize, mode: GemmMode) -> SimDuration {
        self.gemm_time(m, k, n, mode == GemmMode::TensorCore)
    }

    /// Time for an element-wise kernel touching `bytes` of device memory.
    pub fn elementwise_time(&self, bytes: usize) -> SimDuration {
        self.launch() + SimDuration::from_secs(bytes as f64 / (self.mem_bw_gbs * 1e9))
    }

    /// Time to generate `n` random samples on device (includes generator
    /// setup).
    pub fn rng_time(&self, n: usize) -> SimDuration {
        self.launch()
            + SimDuration::from_micros(self.rng_setup_us)
            + SimDuration::from_secs(n as f64 / self.rng_samples_per_sec)
    }

    fn launch(&self) -> SimDuration {
        SimDuration::from_micros(self.launch_overhead_us)
    }
}

/// Simulated host CPU parameters.
#[derive(Clone, Debug)]
pub struct CpuConfig {
    /// Marketing name, for reports.
    pub name: String,
    /// Physical cores available to the process.
    pub cores: usize,
    /// Sustained GEMM throughput per core for a tuned (blocked, SIMD)
    /// kernel, GFLOP/s.
    pub gflops_per_core: f64,
    /// Sustained GEMM throughput per core for a straightforward
    /// (non-blocked, non-SIMD) triple loop, GFLOP/s. The SecureML
    /// reference implementation's matrix code is modeled at this rate.
    pub naive_gflops_per_core: f64,
    /// Memory bandwidth ceiling for streaming loops, GB/s (socket).
    pub mem_bw_gbs: f64,
    /// Per-core throughput of element-wise *ring arithmetic* loops
    /// (wrapping mul/add, truncation — a few ops per 8-byte element),
    /// bytes/s. These loops are compute-bound per core and scale with
    /// threads until the socket bandwidth ceiling.
    pub elem_bytes_per_core: f64,
    /// Per-core element-wise throughput of a straightforward (unvectorized,
    /// bounds-checked) ring-arithmetic loop, bytes/s — the SecureML
    /// reference implementation's element-wise rate.
    pub naive_elem_bytes_per_core: f64,
    /// MT19937 generation rate per core, samples/s.
    pub rng_samples_per_core: f64,
    /// Cost of opening one parallel region (thread wake-up), microseconds.
    pub parallel_region_us: f64,
}

impl CpuConfig {
    /// Dual Xeon E5-2670 v3 defaults (the paper's host).
    pub fn xeon_e5_2670v3_dual() -> Self {
        CpuConfig {
            name: "2x Xeon E5-2670 v3 (simulated)".to_string(),
            cores: 24,
            gflops_per_core: 20.0,
            naive_gflops_per_core: 1.5,
            mem_bw_gbs: 60.0,
            elem_bytes_per_core: 2.5e9,
            naive_elem_bytes_per_core: 0.9e9,
            rng_samples_per_core: 400e6,
            parallel_region_us: 5.0,
        }
    }

    /// Time for a tuned (blocked) GEMM on `threads` cores.
    pub fn gemm_time(&self, m: usize, k: usize, n: usize, threads: usize) -> SimDuration {
        self.gemm_time_with(m, k, n, threads, true)
    }

    /// Time for a GEMM on `threads` cores, selecting the tuned or naive
    /// kernel rate (1 thread + naive = the SecureML reference code path).
    pub fn gemm_time_with(
        &self,
        m: usize,
        k: usize,
        n: usize,
        threads: usize,
        tuned: bool,
    ) -> SimDuration {
        let threads = threads.clamp(1, self.cores);
        let flops = 2.0 * m as f64 * k as f64 * n as f64;
        let per_core = if tuned {
            self.gflops_per_core
        } else {
            self.naive_gflops_per_core
        };
        let rate = per_core * 1e9 * threads as f64;
        let compute = flops / rate;
        // Memory-touch floor: a GEMM is never faster than streaming its
        // operands and result once (binds for skinny shapes like n = 1).
        let bytes = ((m * k + k * n + m * n) * 8) as f64;
        let elem_per_core = if tuned {
            self.elem_bytes_per_core
        } else {
            self.naive_elem_bytes_per_core
        };
        let mem_rate = (threads as f64 * elem_per_core).min(self.mem_bw_gbs * 1e9);
        let floor = bytes / mem_rate;
        let region = if threads > 1 {
            SimDuration::from_micros(self.parallel_region_us)
        } else {
            SimDuration::ZERO
        };
        region + SimDuration::from_secs(compute.max(floor))
    }

    /// Time for an element-wise ring-arithmetic pass over `bytes` on
    /// `threads` cores: compute-bound per core, capped at the socket's
    /// memory bandwidth.
    pub fn elementwise_time(&self, bytes: usize, threads: usize) -> SimDuration {
        self.elementwise_time_with(bytes, threads, true)
    }

    /// [`CpuConfig::elementwise_time`] selecting the tuned or naive loop.
    pub fn elementwise_time_with(
        &self,
        bytes: usize,
        threads: usize,
        tuned: bool,
    ) -> SimDuration {
        let threads = threads.clamp(1, self.cores);
        let per_core = if tuned {
            self.elem_bytes_per_core
        } else {
            self.naive_elem_bytes_per_core
        };
        let rate = (threads as f64 * per_core).min(self.mem_bw_gbs * 1e9);
        let region = if threads > 1 {
            SimDuration::from_micros(self.parallel_region_us)
        } else {
            SimDuration::ZERO
        };
        region + SimDuration::from_secs(bytes as f64 / rate)
    }

    /// Time to generate `n` random samples on `threads` cores:
    /// compute-bound per core (MT19937 state updates), capped at the
    /// socket bandwidth for the 8-byte outputs.
    pub fn rng_time(&self, n: usize, threads: usize) -> SimDuration {
        let threads = threads.clamp(1, self.cores);
        let compute_rate = threads as f64 * self.rng_samples_per_core;
        let bw_rate = self.mem_bw_gbs * 1e9 / 8.0;
        let rate = compute_rate.min(bw_rate);
        let region = if threads > 1 {
            SimDuration::from_micros(self.parallel_region_us)
        } else {
            SimDuration::ZERO
        };
        region + SimDuration::from_secs(n as f64 / rate)
    }
}

/// A complete node: host CPU + GPU + NIC.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Host CPU model.
    pub cpu: CpuConfig,
    /// GPU model.
    pub gpu: GpuConfig,
    /// Inter-node link (server <-> server, client <-> server).
    pub network: LinkModel,
}

impl MachineConfig {
    /// The paper's evaluation node: Xeon E5-2670 v3 x2, V100, 100G IB.
    pub fn v100_node() -> Self {
        MachineConfig {
            cpu: CpuConfig::xeon_e5_2670v3_dual(),
            gpu: GpuConfig::v100(),
            network: LinkModel::infiniband_100g(),
        }
    }

    /// SecureML's original setting: same CPUs, no GPU used, LAN network.
    /// (The GPU field remains present but the baseline never touches it.)
    pub fn secureml_node() -> Self {
        MachineConfig {
            network: LinkModel::infiniband_100g(),
            ..Self::v100_node()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_time_scales_with_flops() {
        let g = GpuConfig::v100();
        let small = g.gemm_time(64, 64, 64, false);
        let large = g.gemm_time(1024, 1024, 1024, false);
        assert!(large > small);
        // At large sizes, quadrupling one dim ~quadruples time.
        let larger = g.gemm_time(4096, 1024, 1024, false);
        let ratio = larger.as_secs() / large.as_secs();
        assert!((3.0..5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn tensor_core_faster_for_large_gemm_only_by_compute() {
        let g = GpuConfig::v100();
        let fp32 = g.gemm_time(4096, 4096, 4096, false);
        let tc = g.gemm_time(4096, 4096, 4096, true);
        let speedup = fp32.as_secs() / tc.as_secs();
        assert!((2.0..8.0).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn tiny_gemm_dominated_by_launch_overhead() {
        let g = GpuConfig::v100();
        let t = g.gemm_time(4, 4, 4, false);
        assert!(t.as_micros() >= g.launch_overhead_us);
        assert!(t.as_micros() < 2.0 * g.launch_overhead_us + 1.0);
    }

    #[test]
    fn cpu_parallel_gemm_faster_than_serial() {
        let c = CpuConfig::xeon_e5_2670v3_dual();
        let serial = c.gemm_time(512, 512, 512, 1);
        let parallel = c.gemm_time(512, 512, 512, 24);
        assert!(parallel < serial);
        let speedup = serial.as_secs() / parallel.as_secs();
        assert!(speedup > 10.0, "speedup {speedup}");
    }

    #[test]
    fn cpu_elementwise_scales_then_hits_bandwidth() {
        let c = CpuConfig::xeon_e5_2670v3_dual();
        let t1 = c.elementwise_time(1 << 30, 1);
        let t8 = c.elementwise_time(1 << 30, 8);
        // Compute-bound region: near-linear scaling.
        let scale8 = t1.as_secs() / t8.as_secs();
        assert!((6.0..9.0).contains(&scale8), "scale8={scale8}");
        // Bandwidth ceiling: 24 cores cannot exceed mem_bw/elem rate.
        let t24 = c.elementwise_time(1 << 30, 24);
        let cap = c.mem_bw_gbs * 1e9;
        let implied = (1u64 << 30) as f64 / t24.as_secs();
        assert!(implied <= cap * 1.01, "implied rate {implied} above ceiling");
    }

    #[test]
    fn gpu_beats_cpu_on_large_gemm_and_loses_small() {
        // The adaptive-engine premise (paper Sec. 7.5): crossover exists.
        let m = MachineConfig::v100_node();
        let n_small = 16;
        let cpu_small = m.cpu.gemm_time(n_small, n_small, n_small, 24);
        let gpu_small = m.gpu.gemm_time(n_small, n_small, n_small, false)
            + m.gpu.pcie.transfer_time(3 * n_small * n_small * 4);
        assert!(cpu_small < gpu_small, "CPU must win tiny workloads");

        let n_big = 4096;
        let cpu_big = m.cpu.gemm_time(n_big, n_big, n_big, 24);
        let gpu_big = m.gpu.gemm_time(n_big, n_big, n_big, false)
            + m.gpu.pcie.transfer_time(3 * n_big * n_big * 4);
        assert!(gpu_big < cpu_big, "GPU must win large workloads");
    }

    #[test]
    fn rng_crossover_exists() {
        // Fig. 7's shape: MT19937 on the CPU wins small matrices, cuRAND on
        // the GPU (including the D2H copy back) wins large ones. The figure
        // compares single-thread MT19937 (the Sec. 5.1 parallel RNG is a
        // separate optimization).
        let m = MachineConfig::v100_node();
        let cost_cpu = |n: usize| m.cpu.rng_time(n * n, 1);
        let cost_gpu =
            |n: usize| m.gpu.rng_time(n * n) + m.gpu.pcie.transfer_time(n * n * 4);
        assert!(cost_cpu(256) < cost_gpu(256));
        assert!(cost_gpu(8192) < cost_cpu(8192));
        // The crossover sits in the mid-range (order 10^3), as in Fig. 7.
        let crossover = (256..8192)
            .step_by(128)
            .find(|&n| cost_gpu(n) < cost_cpu(n))
            .unwrap();
        assert!((512..4096).contains(&crossover), "crossover at {crossover}");
    }

    #[test]
    fn presets_are_self_consistent() {
        let m = MachineConfig::v100_node();
        assert!(m.gpu.tensor_gflops > m.gpu.fp32_gflops);
        assert!(m.gpu.fp32_gflops > m.cpu.gflops_per_core * m.cpu.cores as f64);
        let s = MachineConfig::secureml_node();
        assert_eq!(s.cpu.cores, m.cpu.cores);
    }
}
