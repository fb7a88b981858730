//! Engine configuration: which of the paper's techniques are enabled.

use crate::error::ConfigError;
use psml_gpu::{GemmMode, MachineConfig};
use psml_mpc::EvalStrategy;
use psml_net::{FaultPlan, RetryPolicy};
use psml_tensor::sparse::DEFAULT_SPARSITY_THRESHOLD;

/// Where the heavy *compute2* multiplication runs.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum AdaptivePolicy {
    /// Always CPU — the SecureML baseline.
    ForceCpu,
    /// Always GPU, regardless of size.
    ForceGpu,
    /// Profiling-guided: compare the calibrated CPU and GPU cost models
    /// (including PCIe transfers) per multiplication and pick the winner —
    /// the paper's adaptive engine.
    #[default]
    Auto,
    /// Like [`AdaptivePolicy::Auto`], but the
    /// [`Recalibrator`](crate::adaptive::Recalibrator) folds *measured*
    /// simulated span costs back into the decision: when observation
    /// disagrees with the static model for
    /// [`EngineConfig::recal_window`] consecutive multiplications of a
    /// shape, the placement flips. This is the paper's profiling-guided
    /// loop made literal — the static model only seeds the first decision.
    MeasuredCost,
}

/// Full engine configuration.
///
/// The three presets mirror the paper's evaluated systems:
/// [`EngineConfig::parsecureml`] (everything on),
/// [`EngineConfig::secureml`] (the CPU baseline), and
/// [`EngineConfig::parsecureml_unoptimized`] (GPU on, Sec. 5 optimizations
/// off — the baseline of Figs. 14/15).
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Hardware model for every node.
    pub machine: MachineConfig,
    /// *compute2* placement policy.
    pub policy: AdaptivePolicy,
    /// Enable the double pipeline (Fig. 5 + Fig. 6). When off, every
    /// transfer/kernel/reconstruct step is fenced.
    pub pipeline: bool,
    /// Enable delta+CSR compressed transmission (Sec. 4.4).
    pub compression: bool,
    /// Zero-fraction threshold for compression (default 0.75).
    pub sparsity_threshold: f64,
    /// Use Tensor Cores for GPU GEMMs (Sec. 5.2).
    pub tensor_cores: bool,
    /// Model the limb-split quantized ring GEMM (`psml_tensor::quant`,
    /// `GemmMode::QuantizedRing`) in the *cost model*: GPU compute2 GEMMs
    /// are charged as 36 int8 limb-product volumes instead of one f16
    /// product (exact ring arithmetic has no f16 shortcut), and CPU
    /// compute2 GEMMs may charge the host tile unit's measured rate where
    /// it wins. Changes charged durations — and therefore placement and
    /// `RunReport` timings — so it defaults to `false`; the *functional*
    /// results are bit-identical either way (the quantized kernel is
    /// exact).
    pub model_quant_ring: bool,
    /// CPU threads the *simulated* servers run host work on. 1 = serial.
    /// (The real host GEMM pool is sized by `PSML_WORKERS`, not here.)
    pub cpu_threads: usize,
    /// CPU threads used for the *client's* offline work — random-matrix
    /// generation and the share additions/subtractions, the operations
    /// Sec. 5.1 parallelizes. 1 = the pre-optimization client.
    pub client_cpu_threads: usize,
    /// Whether CPU GEMMs run at the tuned (blocked/SIMD) rate. The
    /// SecureML reference implementation is modeled with `false`.
    pub tuned_cpu_gemm: bool,
    /// Generate offline randomness on the client GPU when it wins
    /// (the Fig. 7 decision); otherwise thread-parallel MT19937.
    pub gpu_offline: bool,
    /// How servers evaluate `C_i` (Eq. 6 vs the fused Eq. 8).
    pub eval_strategy: EvalStrategy,
    /// Route activations through the client (no server-side leakage) at
    /// the cost of a client round trip per activation. Default `false`
    /// (the reference implementation's server-exchange behavior).
    pub client_aided_activation: bool,
    /// Reuse Beaver-triple masks across iterations of the same call site
    /// (the paper's Eq. (11) premise, which enables delta compression).
    ///
    /// **Insecure**: reusing a triple's masks leaks linear relations
    /// between the iterates it masks (`E = A - U` with a fixed `U` makes
    /// `dE = dA` public). The paper accepts this to get compressible
    /// deltas; the name keeps the trade-off visible at every call site,
    /// and every [`crate::RunReport`] produced under it carries a warning.
    /// Set `false` for the security-conservative fresh-triple-per-use
    /// SecureML behavior (more offline work, no compressible deltas).
    pub insecure_reuse_triples: bool,
    /// Provision Beaver triples asynchronously on a host-side pipeline
    /// that runs ahead of (and concurrently with) the online phase, so
    /// the engine thread never generates or serializes triple material
    /// inline. Requires a declared shape schedule
    /// ([`crate::SecureContext::schedule_triples`]); incompatible with
    /// [`EngineConfig::insecure_reuse_triples`] (prefetch provisions one
    /// fresh triple per scheduled use) and with fault injection (triple
    /// distribution is charged on the fault-free fast path).
    pub prefetch: bool,
    /// Secondary cap on the *count* of triples the prefetch pipeline
    /// holds ready. What binds is the provider's byte budget, derived from
    /// the declared schedule (see [`crate::provider`], "Backpressure");
    /// this field stays because `e2e` passes it to
    /// [`crate::TripleProvider::new`], and goes with that argument.
    pub prefetch_depth: usize,
    /// Learning rate for training tasks.
    pub learning_rate: f64,
    /// Seeded, deterministic network chaos (drops, bit flips, latency
    /// spikes, blackouts). [`FaultPlan::none`] keeps every endpoint on the
    /// zero-overhead fast path.
    pub fault_plan: FaultPlan,
    /// Ack/retransmit policy the engine uses to recover from injected
    /// faults. Ignored (no ack traffic at all) while the fault plan is
    /// empty.
    pub retry: RetryPolicy,
    /// Hysteresis window for [`AdaptivePolicy::MeasuredCost`]: how many
    /// consecutive measured-cost disagreements a shape must accumulate
    /// before its placement flips. Ignored by the other policies.
    pub recal_window: usize,
}

impl EngineConfig {
    /// The full ParSecureML system: GPU adaptive offload, double pipeline,
    /// compression, Tensor Cores, CPU parallelism.
    pub fn parsecureml() -> Self {
        EngineConfig {
            machine: MachineConfig::v100_node(),
            policy: AdaptivePolicy::Auto,
            pipeline: true,
            compression: true,
            sparsity_threshold: DEFAULT_SPARSITY_THRESHOLD,
            tensor_cores: true,
            model_quant_ring: false,
            cpu_threads: MachineConfig::v100_node().cpu.cores,
            client_cpu_threads: MachineConfig::v100_node().cpu.cores,
            tuned_cpu_gemm: true,
            gpu_offline: true,
            eval_strategy: EvalStrategy::Fused,
            client_aided_activation: false,
            insecure_reuse_triples: true,
            prefetch: false,
            prefetch_depth: 64,
            learning_rate: 0.05,
            fault_plan: FaultPlan::none(),
            retry: RetryPolicy::default(),
            recal_window: 2,
        }
    }

    /// The SecureML baseline: CPU-only two-party computation, serial host
    /// code, no pipeline, no compression.
    pub fn secureml() -> Self {
        EngineConfig {
            machine: MachineConfig::secureml_node(),
            policy: AdaptivePolicy::ForceCpu,
            pipeline: false,
            compression: false,
            sparsity_threshold: DEFAULT_SPARSITY_THRESHOLD,
            tensor_cores: false,
            model_quant_ring: false,
            cpu_threads: 1,
            client_cpu_threads: 1,
            tuned_cpu_gemm: false,
            gpu_offline: false,
            eval_strategy: EvalStrategy::Expanded,
            client_aided_activation: false,
            insecure_reuse_triples: true,
            prefetch: false,
            prefetch_depth: 64,
            learning_rate: 0.05,
            fault_plan: FaultPlan::none(),
            retry: RetryPolicy::default(),
            recal_window: 2,
        }
    }

    /// ParSecureML *without* the Section 5 optimizations (serial CPU, no
    /// Tensor Cores) — the baseline for Figs. 14 and 15.
    pub fn parsecureml_unoptimized() -> Self {
        EngineConfig {
            tensor_cores: false,
            cpu_threads: 1,
            client_cpu_threads: 1,
            ..Self::parsecureml()
        }
    }

    /// Returns this config with the double pipeline toggled.
    pub fn with_pipeline(mut self, on: bool) -> Self {
        self.pipeline = on;
        self
    }

    /// Returns this config with compressed transmission toggled.
    pub fn with_compression(mut self, on: bool) -> Self {
        self.compression = on;
        self
    }

    /// Returns this config with Tensor Cores toggled.
    pub fn with_tensor_cores(mut self, on: bool) -> Self {
        self.tensor_cores = on;
        self
    }

    /// Returns this config with quantized-ring cost modeling toggled
    /// (see [`EngineConfig::model_quant_ring`]).
    pub fn with_model_quant_ring(mut self, on: bool) -> Self {
        self.model_quant_ring = on;
        self
    }

    /// Returns this config with the given *client* thread count only (the
    /// Fig. 14 ablation: Sec. 5.1's CPU parallelism on/off).
    pub fn with_client_cpu_threads(mut self, threads: usize) -> Self {
        self.client_cpu_threads = threads.max(1);
        self
    }

    /// Returns this config with the given placement policy.
    pub fn with_policy(mut self, policy: AdaptivePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns this config with client-aided activation toggled.
    pub fn with_client_aided_activation(mut self, on: bool) -> Self {
        self.client_aided_activation = on;
        self
    }

    /// Returns this config with (insecure) triple reuse toggled.
    pub fn with_insecure_reuse_triples(mut self, on: bool) -> Self {
        self.insecure_reuse_triples = on;
        self
    }

    /// Returns this config with asynchronous triple prefetch toggled.
    pub fn with_prefetch(mut self, on: bool) -> Self {
        self.prefetch = on;
        if on {
            self.insecure_reuse_triples = false;
        }
        self
    }

    /// Returns this config with the prefetch backpressure depth set.
    pub fn with_prefetch_depth(mut self, depth: usize) -> Self {
        self.prefetch_depth = depth;
        self
    }

    /// Returns this config with the given fault-injection plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Returns this config with the given retransmission policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// `m * k * n` above which [`EngineConfig::model_quant_ring`] lets
    /// the CPU cost model consider the host tile unit — mirrors the
    /// `gemm_auto` quant cutover in `psml_tensor` (measured even at
    /// 128³, ahead from 160³ up).
    const QUANT_MODEL_MIN_FLOPS: usize = 4_000_000;

    /// Time for an `(m x k) * (k x n)` CPU GEMM under this config's
    /// thread count and kernel tuning. With
    /// [`EngineConfig::model_quant_ring`] on, large products may charge
    /// the host tile unit's quantized-ring rate instead, where it wins
    /// (the `gemm_auto` dispatcher takes that path on such hosts).
    pub fn cpu_gemm_time(&self, m: usize, k: usize, n: usize) -> psml_simtime::SimDuration {
        let standard = self
            .machine
            .cpu
            .gemm_time_with(m, k, n, self.cpu_threads, self.tuned_cpu_gemm);
        if self.model_quant_ring
            && m.saturating_mul(k).saturating_mul(n) >= Self::QUANT_MODEL_MIN_FLOPS
        {
            standard.min(self.machine.cpu.quant_gemm_time(m, k, n))
        } else {
            standard
        }
    }

    /// The GEMM unit GPU compute2 offloads run on under this config:
    /// tensor cores when enabled — as the exact limb-split quantized
    /// pipeline when [`EngineConfig::model_quant_ring`] is on — CUDA-core
    /// FP32 otherwise.
    pub fn gpu_gemm_mode(&self) -> GemmMode {
        match (self.tensor_cores, self.model_quant_ring) {
            (true, true) => GemmMode::QuantizedRing,
            (true, false) => GemmMode::TensorCore,
            (false, _) => GemmMode::Fp32,
        }
    }

    /// Time for an `(m x k) * (k x n)` GEMM on the simulated GPU under
    /// this config's unit selection ([`EngineConfig::gpu_gemm_mode`]).
    ///
    /// Costed through the backend trait's rate table
    /// ([`psml_gpu::Backend::gemm_charge`]) so the adaptive planner and
    /// the device's charge paths price a GEMM identically (pinned by
    /// tests here and in `adaptive`).
    pub fn gpu_gemm_time(&self, m: usize, k: usize, n: usize) -> psml_simtime::SimDuration {
        <psml_gpu::SimBackend as psml_gpu::Backend<f32>>::gemm_charge(
            &psml_gpu::SimBackend,
            &self.machine.gpu,
            m,
            k,
            n,
            self.gpu_gemm_mode(),
        )
        .1
    }

    /// Time for an element-wise CPU pass over `bytes` under this config's
    /// thread count and loop tuning.
    pub fn cpu_elementwise_time(&self, bytes: usize) -> psml_simtime::SimDuration {
        self.machine
            .cpu
            .elementwise_time_with(bytes, self.cpu_threads, self.tuned_cpu_gemm)
    }

    /// Client-side offline GEMM time (Z = U x V on the CPU fallback).
    pub fn client_gemm_time(&self, m: usize, k: usize, n: usize) -> psml_simtime::SimDuration {
        self.machine
            .cpu
            .gemm_time_with(m, k, n, self.client_cpu_threads, self.tuned_cpu_gemm)
    }

    /// Client-side element-wise time (share splits / encodes).
    pub fn client_elementwise_time(&self, bytes: usize) -> psml_simtime::SimDuration {
        self.machine
            .cpu
            .elementwise_time_with(bytes, self.client_cpu_threads, self.tuned_cpu_gemm)
    }

    /// Client-side random-generation time (one MT19937 per client thread).
    pub fn client_rng_time(&self, n: usize) -> psml_simtime::SimDuration {
        self.machine.cpu.rng_time(n, self.client_cpu_threads)
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..=1.0).contains(&self.sparsity_threshold) {
            return Err(ConfigError::Sparsity(self.sparsity_threshold));
        }
        if self.cpu_threads == 0 {
            return Err(ConfigError::Threads);
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(ConfigError::LearningRate(self.learning_rate));
        }
        if self.recal_window == 0 {
            return Err(ConfigError::RecalWindow);
        }
        if self.prefetch {
            if self.insecure_reuse_triples {
                return Err(ConfigError::Prefetch(
                    "prefetch provisions one fresh triple per scheduled use and \
                     cannot be combined with insecure_reuse_triples"
                        .into(),
                ));
            }
            if !self.fault_plan.is_empty() {
                return Err(ConfigError::Prefetch(
                    "prefetch charges triple distribution on the fault-free fast \
                     path and cannot be combined with a fault plan"
                        .into(),
                ));
            }
            if self.prefetch_depth == 0 {
                return Err(ConfigError::Prefetch(
                    "prefetch_depth must be at least 1".into(),
                ));
            }
        }
        self.fault_plan.validate().map_err(ConfigError::Faults)?;
        self.retry.validate().map_err(ConfigError::Retry)?;
        Ok(())
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::parsecureml()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_as_documented() {
        let p = EngineConfig::parsecureml();
        let s = EngineConfig::secureml();
        let u = EngineConfig::parsecureml_unoptimized();
        assert_eq!(p.policy, AdaptivePolicy::Auto);
        assert_eq!(s.policy, AdaptivePolicy::ForceCpu);
        assert!(p.pipeline && !s.pipeline);
        assert!(p.compression && !s.compression);
        assert!(p.tensor_cores && !u.tensor_cores);
        assert!(p.cpu_threads > 1 && u.cpu_threads == 1 && s.cpu_threads == 1);
        for cfg in [p, s, u] {
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn builders_toggle_fields() {
        let cfg = EngineConfig::parsecureml()
            .with_pipeline(false)
            .with_compression(false)
            .with_tensor_cores(false)
            .with_policy(AdaptivePolicy::ForceGpu);
        assert!(!cfg.pipeline && !cfg.compression && !cfg.tensor_cores);
        assert_eq!(cfg.policy, AdaptivePolicy::ForceGpu);
    }

    #[test]
    fn quant_ring_modeling_defaults_off_and_selects_units() {
        // Off by default so existing run reports stay bit-identical.
        let p = EngineConfig::parsecureml();
        assert!(!p.model_quant_ring && !EngineConfig::secureml().model_quant_ring);
        assert_eq!(p.gpu_gemm_mode(), psml_gpu::GemmMode::TensorCore);

        let q = EngineConfig::parsecureml().with_model_quant_ring(true);
        assert_eq!(q.gpu_gemm_mode(), psml_gpu::GemmMode::QuantizedRing);
        assert_eq!(
            q.clone().with_tensor_cores(false).gpu_gemm_mode(),
            psml_gpu::GemmMode::Fp32,
            "the quantized path rides the tensor units"
        );
        // CPU cost: never raised by the knob. The single-core tile-unit
        // path wins against a serial host from 512^3 up, loses to the
        // full multi-core model, and is ignored below the dispatcher's
        // cutover — exactly mirroring what `gemm_auto` runs.
        let (m, k, n) = (512, 512, 512);
        let mut p1 = p.clone();
        p1.cpu_threads = 1;
        let q1 = p1.clone().with_model_quant_ring(true);
        assert!(q1.cpu_gemm_time(m, k, n) < p1.cpu_gemm_time(m, k, n));
        assert_eq!(q1.cpu_gemm_time(16, 16, 16), p1.cpu_gemm_time(16, 16, 16));
        assert_eq!(q.cpu_gemm_time(m, k, n), p.cpu_gemm_time(m, k, n));
        // GPU cost: exact ring GEMM charges all live limb-pair volumes.
        assert!(q.gpu_gemm_time(m, k, n) > p.gpu_gemm_time(m, k, n));
    }

    #[test]
    fn validation_catches_bad_values() {
        let rejected = |edit: fn(&mut EngineConfig)| {
            let mut cfg = EngineConfig::parsecureml();
            edit(&mut cfg);
            cfg.validate().unwrap_err()
        };
        assert_eq!(rejected(|c| c.cpu_threads = 0), ConfigError::Threads);
        assert_eq!(rejected(|c| c.recal_window = 0), ConfigError::RecalWindow);
        assert!(matches!(
            rejected(|c| c.sparsity_threshold = 1.5),
            ConfigError::Sparsity(_)
        ));
        for lr in [-1.0, 0.0, f64::NAN] {
            let mut cfg = EngineConfig::parsecureml();
            cfg.learning_rate = lr;
            assert!(matches!(
                cfg.validate().unwrap_err(),
                ConfigError::LearningRate(_)
            ));
        }
    }

    #[test]
    fn prefetch_excludes_reuse_faults_and_zero_depth() {
        // The convenience toggles keep the pair consistent.
        let cfg = EngineConfig::parsecureml().with_prefetch(true);
        assert!(cfg.prefetch && !cfg.insecure_reuse_triples);
        assert!(cfg.validate().is_ok());

        // Forcing both on is a typed error.
        let mut bad = cfg.clone();
        bad.insecure_reuse_triples = true;
        assert!(matches!(
            bad.validate().unwrap_err(),
            ConfigError::Prefetch(_)
        ));

        // Prefetch rides the fault-free accounted path only.
        let mut bad = cfg.clone();
        bad.fault_plan = FaultPlan::none().with_drop(0.5);
        assert!(matches!(
            bad.validate().unwrap_err(),
            ConfigError::Prefetch(_)
        ));

        // Depth zero would deadlock the pipeline.
        let bad = cfg.clone().with_prefetch_depth(0);
        assert!(matches!(
            bad.validate().unwrap_err(),
            ConfigError::Prefetch(_)
        ));

        // Order matters: re-enabling reuse after prefetch is surfaced as
        // an error rather than silently overridden.
        let bad = cfg.with_insecure_reuse_triples(true);
        assert!(matches!(
            bad.validate().unwrap_err(),
            ConfigError::Prefetch(_)
        ));
    }

    #[test]
    fn fault_plan_and_retry_are_validated() {
        let cfg = EngineConfig::parsecureml();
        assert!(cfg.fault_plan.is_empty(), "presets default to no faults");
        cfg.validate().unwrap();

        let cfg = EngineConfig::parsecureml()
            .with_fault_plan(FaultPlan::seeded(7).with_drop(1.5));
        assert!(cfg.validate().is_err(), "drop probability outside [0,1]");

        let retry = RetryPolicy {
            backoff: 0.5,
            ..RetryPolicy::default()
        };
        let cfg = EngineConfig::parsecureml().with_retry(retry);
        assert!(cfg.validate().is_err(), "backoff below 1 shrinks timeouts");

        let cfg = EngineConfig::parsecureml()
            .with_fault_plan(FaultPlan::seeded(7).with_drop(0.1));
        cfg.validate().unwrap();
    }
}
