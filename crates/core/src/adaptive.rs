//! Profiling-guided adaptive GPU utilization (paper Section 4.2).
//!
//! For each triplet multiplication the engine asks: is this GEMM worth the
//! PCIe round trip? The decision uses the calibrated cost models — CPU GEMM
//! at the configured thread count vs GPU GEMM *plus* the H2D transfers of
//! its operands and the D2H of the result — which is exactly the
//! comparison the paper's profiling produces. A small hysteresis cache
//! avoids re-deciding identical shapes.

use crate::config::{AdaptivePolicy, EngineConfig};
use psml_simtime::SimDuration;
use std::collections::HashMap;

/// Where a multiplication was placed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Run on the host CPU.
    Cpu,
    /// Run on the GPU (pay PCIe transfers).
    Gpu,
}

impl Placement {
    /// Stable lowercase name for traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            Placement::Cpu => "cpu",
            Placement::Gpu => "gpu",
        }
    }

    /// The other placement.
    pub fn flipped(self) -> Placement {
        match self {
            Placement::Cpu => Placement::Gpu,
            Placement::Gpu => Placement::Cpu,
        }
    }
}

/// One placement flip decided by the [`Recalibrator`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecalEvent {
    /// The `(m, k, n)` shape whose placement flipped.
    pub shape: (usize, usize, usize),
    /// Placement before the flip.
    pub from: Placement,
    /// Placement after the flip.
    pub to: Placement,
    /// Smoothed measured cost of the placement flipped *away from*.
    pub measured: SimDuration,
    /// Static model's prediction for that same placement (the cost the
    /// original decision believed).
    pub predicted: SimDuration,
    /// How many multiplications of this shape had been observed when the
    /// flip committed.
    pub observations: usize,
}

/// Per-shape measured-cost state for [`AdaptivePolicy::MeasuredCost`].
#[derive(Clone, Copy, Debug, Default)]
struct ShapeRecal {
    /// EWMA of measured spans, indexed by placement (`[cpu, gpu]`).
    measured: [Option<SimDuration>; 2],
    /// Consecutive observations where the measured-cost comparison
    /// disagreed with the current placement.
    disagree_streak: usize,
    /// Total observations of this shape.
    observations: usize,
}

/// Feeds traced measured costs back into placement decisions (the paper's
/// profiling loop made literal).
///
/// The static calibrated models predict a *single* GEMM plus one bulk PCIe
/// round trip, but a real compute2 span also pays truncation passes,
/// per-operand transfer latencies, kernel-launch overheads and queueing —
/// so measurement and prediction genuinely drift apart near the crossover.
/// The recalibrator keeps an exponentially-weighted average of measured
/// spans per `(m, k, n)` shape and placement; once the measured comparison
/// contradicts the current placement for `window` consecutive
/// multiplications of that shape (hysteresis, so one noisy span cannot
/// thrash the cache), the placement flips and a [`RecalEvent`] is logged.
#[derive(Clone, Debug)]
pub struct Recalibrator {
    window: usize,
    shapes: HashMap<(usize, usize, usize), ShapeRecal>,
    events: Vec<RecalEvent>,
}

/// EWMA smoothing factor for measured spans: new = α·sample + (1-α)·old.
const EWMA_ALPHA: f64 = 0.5;

impl Recalibrator {
    /// A recalibrator flipping after `window` consecutive disagreements
    /// (clamped to `>= 1`).
    pub fn new(window: usize) -> Self {
        Recalibrator {
            window: window.max(1),
            shapes: HashMap::new(),
            events: Vec::new(),
        }
    }

    /// The hysteresis window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Placement flips committed so far, in commit order.
    pub fn events(&self) -> &[RecalEvent] {
        &self.events
    }

    /// Smoothed measured cost of `(shape, placement)`, if observed.
    pub fn measured(
        &self,
        shape: (usize, usize, usize),
        placement: Placement,
    ) -> Option<SimDuration> {
        self.shapes
            .get(&shape)
            .and_then(|s| s.measured[placement as usize])
    }

    /// Folds one measured span into the state and decides whether the
    /// cached placement should flip. `current` is the placement the span
    /// actually ran on; `predicted` is the static model's cost for it.
    /// Returns the placement to cache for the next multiplication of this
    /// shape.
    fn observe(
        &mut self,
        cfg: &EngineConfig,
        shape: (usize, usize, usize),
        bytes_moved: usize,
        current: Placement,
        predicted: SimDuration,
        span: SimDuration,
    ) -> Placement {
        let (m, k, n) = shape;
        let state = self.shapes.entry(shape).or_default();
        state.observations += 1;
        let slot = &mut state.measured[current as usize];
        let smoothed = match *slot {
            Some(old) => {
                SimDuration::from_secs(
                    EWMA_ALPHA * span.as_secs() + (1.0 - EWMA_ALPHA) * old.as_secs(),
                )
            }
            None => span,
        };
        *slot = Some(smoothed);

        // Best-effort costs for the comparison: measurement where we have
        // it, the static model for the side never yet run.
        let cost_of = |p: Placement, state: &ShapeRecal| {
            state.measured[p as usize].unwrap_or_else(|| match p {
                Placement::Cpu => AdaptiveEngine::cpu_cost(cfg, m, k, n),
                Placement::Gpu => AdaptiveEngine::gpu_cost(cfg, m, k, n, bytes_moved),
            })
        };
        let here = cost_of(current, state);
        let there = cost_of(current.flipped(), state);
        if there < here {
            state.disagree_streak += 1;
        } else {
            state.disagree_streak = 0;
        }
        if state.disagree_streak >= self.window {
            state.disagree_streak = 0;
            let observations = state.observations;
            self.events.push(RecalEvent {
                shape,
                from: current,
                to: current.flipped(),
                measured: smoothed,
                predicted,
                observations,
            });
            current.flipped()
        } else {
            current
        }
    }
}

/// The placement decision engine.
#[derive(Clone, Debug)]
pub struct AdaptiveEngine {
    policy: AdaptivePolicy,
    cache: HashMap<(usize, usize, usize), Placement>,
    cpu_decisions: usize,
    gpu_decisions: usize,
    recal: Recalibrator,
}

impl AdaptiveEngine {
    /// Builds the engine for a given policy with the default hysteresis
    /// window.
    pub fn new(policy: AdaptivePolicy) -> Self {
        Self::with_window(policy, 2)
    }

    /// Builds the engine for a given policy and measured-cost hysteresis
    /// window (see [`EngineConfig::recal_window`]).
    pub fn with_window(policy: AdaptivePolicy, window: usize) -> Self {
        AdaptiveEngine {
            policy,
            cache: HashMap::new(),
            cpu_decisions: 0,
            gpu_decisions: 0,
            recal: Recalibrator::new(window),
        }
    }

    /// Estimated CPU time for an `(m x k) * (k x n)` product under `cfg`.
    pub fn cpu_cost(cfg: &EngineConfig, m: usize, k: usize, n: usize) -> SimDuration {
        cfg.cpu_gemm_time(m, k, n)
    }

    /// Estimated GPU time including the PCIe round trip for operands the
    /// size of the Eq. (8) blocks (`bytes_moved` total).
    pub fn gpu_cost(
        cfg: &EngineConfig,
        m: usize,
        k: usize,
        n: usize,
        bytes_moved: usize,
    ) -> SimDuration {
        cfg.gpu_gemm_time(m, k, n) + cfg.machine.gpu.pcie.transfer_time(bytes_moved)
    }

    /// Decides placement for an `(m x k) * (k x n)` product whose operands
    /// and result move `bytes_moved` bytes over PCIe if offloaded.
    pub fn place(
        &mut self,
        cfg: &EngineConfig,
        m: usize,
        k: usize,
        n: usize,
        bytes_moved: usize,
    ) -> Placement {
        let placement = match self.policy {
            AdaptivePolicy::ForceCpu => Placement::Cpu,
            AdaptivePolicy::ForceGpu => Placement::Gpu,
            // MeasuredCost seeds each shape's first decision from the same
            // static comparison as Auto; `observe` then overwrites the
            // cache entry when measurement disagrees long enough.
            AdaptivePolicy::Auto | AdaptivePolicy::MeasuredCost => {
                *self.cache.entry((m, k, n)).or_insert_with(|| {
                    if Self::gpu_cost(cfg, m, k, n, bytes_moved)
                        <= Self::cpu_cost(cfg, m, k, n)
                    {
                        Placement::Gpu
                    } else {
                        Placement::Cpu
                    }
                })
            }
        };
        match placement {
            Placement::Cpu => self.cpu_decisions += 1,
            Placement::Gpu => self.gpu_decisions += 1,
        }
        placement
    }

    /// Reports the measured span of a multiplication the engine placed via
    /// [`AdaptiveEngine::place`]. A no-op except under
    /// [`AdaptivePolicy::MeasuredCost`], where the
    /// [`Recalibrator`] may flip the cached placement for this shape once
    /// measurement contradicts it for a full hysteresis window.
    pub fn observe(
        &mut self,
        cfg: &EngineConfig,
        shape: (usize, usize, usize),
        bytes_moved: usize,
        placement: Placement,
        span: SimDuration,
    ) {
        if self.policy != AdaptivePolicy::MeasuredCost {
            return;
        }
        let (m, k, n) = shape;
        let predicted = match placement {
            Placement::Cpu => Self::cpu_cost(cfg, m, k, n),
            Placement::Gpu => Self::gpu_cost(cfg, m, k, n, bytes_moved),
        };
        let next = self
            .recal
            .observe(cfg, shape, bytes_moved, placement, predicted, span);
        self.cache.insert(shape, next);
    }

    /// The measured-cost recalibration state (flip log, smoothed costs).
    pub fn recalibrator(&self) -> &Recalibrator {
        &self.recal
    }

    /// `(cpu, gpu)` decision counts so far.
    pub fn decision_counts(&self) -> (usize, usize) {
        (self.cpu_decisions, self.gpu_decisions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> EngineConfig {
        EngineConfig::parsecureml()
    }

    fn bytes_for(m: usize, k: usize, n: usize) -> usize {
        (m * k + k * n + m * n) * 8
    }

    #[test]
    fn forced_policies_ignore_size() {
        let cfg = cfg();
        let mut cpu = AdaptiveEngine::new(AdaptivePolicy::ForceCpu);
        let mut gpu = AdaptiveEngine::new(AdaptivePolicy::ForceGpu);
        for n in [4, 4096] {
            assert_eq!(cpu.place(&cfg, n, n, n, bytes_for(n, n, n)), Placement::Cpu);
            assert_eq!(gpu.place(&cfg, n, n, n, bytes_for(n, n, n)), Placement::Gpu);
        }
    }

    #[test]
    fn auto_places_small_on_cpu_large_on_gpu() {
        let cfg = cfg();
        let mut auto = AdaptiveEngine::new(AdaptivePolicy::Auto);
        assert_eq!(auto.place(&cfg, 8, 8, 8, bytes_for(8, 8, 8)), Placement::Cpu);
        assert_eq!(
            auto.place(&cfg, 2048, 2048, 2048, bytes_for(2048, 2048, 2048)),
            Placement::Gpu
        );
        let (c, g) = auto.decision_counts();
        assert_eq!((c, g), (1, 1));
    }

    #[test]
    fn decisions_are_cached_per_shape() {
        let cfg = cfg();
        let mut auto = AdaptiveEngine::new(AdaptivePolicy::Auto);
        for _ in 0..10 {
            auto.place(&cfg, 1024, 1024, 1024, bytes_for(1024, 1024, 1024));
        }
        assert_eq!(auto.cache.len(), 1);
        let (_, g) = auto.decision_counts();
        assert_eq!(g, 10);
    }

    #[test]
    fn crossover_is_monotone_in_size() {
        // Once the GPU wins at size s, it keeps winning for every larger
        // cubic size (with proportional transfer bytes).
        let cfg = cfg();
        let mut auto = AdaptiveEngine::new(AdaptivePolicy::Auto);
        let mut seen_gpu = false;
        for shift in 2..12 {
            let n = 1usize << shift;
            let p = auto.place(&cfg, n, n, n, bytes_for(n, n, n));
            if seen_gpu {
                assert_eq!(p, Placement::Gpu, "regression at n={n}");
            }
            if p == Placement::Gpu {
                seen_gpu = true;
            }
        }
        assert!(seen_gpu, "GPU never chosen up to 2048^3");
    }

    #[test]
    fn measured_cost_flips_after_hysteresis_window() {
        // A shape the static model places on the GPU, but whose measured
        // spans come back far slower than the CPU alternative (the
        // launch-overhead / per-transfer-latency costs the static model
        // omits). The flip must commit after exactly `window` consecutive
        // disagreements — not before (hysteresis) and not never.
        let cfg = cfg();
        let window = 3;
        let mut eng = AdaptiveEngine::with_window(AdaptivePolicy::MeasuredCost, window);
        let (m, k, n) = (2048, 2048, 2048);
        let bytes = bytes_for(m, k, n);
        assert_eq!(eng.place(&cfg, m, k, n, bytes), Placement::Gpu);

        let cpu_static = AdaptiveEngine::cpu_cost(&cfg, m, k, n);
        let slow = cpu_static * 10.0;
        for i in 0..window {
            assert_eq!(
                eng.place(&cfg, m, k, n, bytes),
                Placement::Gpu,
                "must not flip before the window closes (observation {i})"
            );
            eng.observe(&cfg, (m, k, n), bytes, Placement::Gpu, slow);
        }
        assert_eq!(
            eng.place(&cfg, m, k, n, bytes),
            Placement::Cpu,
            "flip commits at the end of the hysteresis window"
        );
        let events = eng.recalibrator().events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].shape, (m, k, n));
        assert_eq!(events[0].from, Placement::Gpu);
        assert_eq!(events[0].to, Placement::Cpu);
        assert!(events[0].measured > events[0].predicted);
    }

    #[test]
    fn measured_cost_agreeing_observations_reset_streak() {
        let cfg = cfg();
        let mut eng = AdaptiveEngine::with_window(AdaptivePolicy::MeasuredCost, 2);
        let (m, k, n) = (2048, 2048, 2048);
        let bytes = bytes_for(m, k, n);
        eng.place(&cfg, m, k, n, bytes);
        let cpu_static = AdaptiveEngine::cpu_cost(&cfg, m, k, n);
        // disagree, agree, disagree, disagree — only the trailing pair
        // counts, so the flip lands on the 4th observation, not the 3rd.
        // The agreeing sample must be fast enough to drag the EWMA
        // (alpha = 0.5) below the CPU alternative: 0.5*0.1 + 0.5*1.5 = 0.8.
        eng.observe(&cfg, (m, k, n), bytes, Placement::Gpu, cpu_static * 1.5);
        eng.observe(&cfg, (m, k, n), bytes, Placement::Gpu, cpu_static * 0.1);
        assert!(eng.recalibrator().events().is_empty());
        eng.observe(&cfg, (m, k, n), bytes, Placement::Gpu, cpu_static * 50.0);
        assert!(eng.recalibrator().events().is_empty());
        eng.observe(&cfg, (m, k, n), bytes, Placement::Gpu, cpu_static * 50.0);
        assert_eq!(eng.recalibrator().events().len(), 1);
    }

    #[test]
    fn observe_is_inert_for_static_policies() {
        let cfg = cfg();
        let mut eng = AdaptiveEngine::new(AdaptivePolicy::Auto);
        let (m, k, n) = (2048, 2048, 2048);
        let bytes = bytes_for(m, k, n);
        assert_eq!(eng.place(&cfg, m, k, n, bytes), Placement::Gpu);
        let huge = AdaptiveEngine::cpu_cost(&cfg, m, k, n) * 100.0;
        for _ in 0..10 {
            eng.observe(&cfg, (m, k, n), bytes, Placement::Gpu, huge);
        }
        assert_eq!(
            eng.place(&cfg, m, k, n, bytes),
            Placement::Gpu,
            "Auto ignores measurements"
        );
        assert!(eng.recalibrator().events().is_empty());
    }

    #[test]
    fn cost_functions_visible_for_reports() {
        let cfg = cfg();
        let c = AdaptiveEngine::cpu_cost(&cfg, 256, 256, 256);
        let g = AdaptiveEngine::gpu_cost(&cfg, 256, 256, 256, bytes_for(256, 256, 256));
        assert!(c.as_secs() > 0.0 && g.as_secs() > 0.0);
    }

    #[test]
    fn gpu_cost_is_the_backend_charge_plus_transfers() {
        // MeasuredCost (and Auto) price a GPU offload through the
        // device's rate table: `gpu_cost` must equal the `gemm_charge`
        // duration the device will actually charge plus the PCIe round
        // trip.
        let (m, k, n) = (192, 256, 128);
        let bytes = bytes_for(m, k, n);
        for cfg in [cfg(), cfg().with_tensor_cores(false)] {
            let want = AdaptiveEngine::gpu_cost(&cfg, m, k, n, bytes);
            let mode = cfg.gpu_gemm_mode();
            let (label, dur) = psml_gpu::SimBackend.gemm_charge(&cfg.machine.gpu, m, k, n, mode);
            assert_eq!(want, dur + cfg.machine.gpu.pcie.transfer_time(bytes));
            assert_eq!(label, cfg.gpu_gemm_mode().kernel_label());
        }
    }
}
