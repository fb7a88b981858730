//! Run reports: simulated-time totals, phase breakdowns, traffic.

use psml_net::{FaultCounters, ReliabilityStats, TrafficStats};
use psml_simtime::SimDuration;

/// Accumulated simulated durations per protocol step (the paper's Fig. 2
/// categories). Sums are *serialized equivalents* — with the double
/// pipeline enabled, the end-to-end `online_time` is smaller than
/// `compute1 + communicate + compute2` because steps overlap.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseBreakdown {
    /// Client-side share/triple generation (offline).
    pub share_generation: SimDuration,
    /// Client -> server distribution of encrypted shares (offline).
    pub distribution: SimDuration,
    /// Server-side masking `E_i = A_i - U_i` etc. ("compute1").
    pub compute1: SimDuration,
    /// Server <-> server exchange of `E_i`, `F_i` ("communicate").
    pub communicate: SimDuration,
    /// The heavy `C_i` evaluation ("compute2", the GPU step).
    pub compute2: SimDuration,
    /// Activation reconstruct/exchange/re-share steps.
    pub activation: SimDuration,
}

impl PhaseBreakdown {
    /// Sum of the online step durations (serialized equivalent).
    pub fn online_serialized(&self) -> SimDuration {
        self.compute1 + self.communicate + self.compute2 + self.activation
    }

    /// Versioned, serde-free JSON form (`psml.phases.v1`), durations in
    /// f64 seconds.
    pub fn to_json(&self) -> psml_trace::json::JsonValue {
        use psml_trace::json::{obj, JsonValue};
        obj([
            ("schema", JsonValue::Str("psml.phases.v1".into())),
            (
                "share_generation_secs",
                JsonValue::Float(self.share_generation.as_secs()),
            ),
            (
                "distribution_secs",
                JsonValue::Float(self.distribution.as_secs()),
            ),
            ("compute1_secs", JsonValue::Float(self.compute1.as_secs())),
            (
                "communicate_secs",
                JsonValue::Float(self.communicate.as_secs()),
            ),
            ("compute2_secs", JsonValue::Float(self.compute2.as_secs())),
            (
                "activation_secs",
                JsonValue::Float(self.activation.as_secs()),
            ),
        ])
    }

    /// Accumulates another breakdown.
    pub fn merge(&mut self, other: &PhaseBreakdown) {
        self.share_generation += other.share_generation;
        self.distribution += other.distribution;
        self.compute1 += other.compute1;
        self.communicate += other.communicate;
        self.compute2 += other.compute2;
        self.activation += other.activation;
    }
}

/// The complete simulated-performance report of a run.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// End-to-end offline (client/preparation) simulated time.
    pub offline_time: SimDuration,
    /// End-to-end online (server) simulated time, overlap included.
    pub online_time: SimDuration,
    /// Per-step accumulated durations.
    pub breakdown: PhaseBreakdown,
    /// Merged traffic counters across all endpoints.
    pub traffic: TrafficStats,
    /// `(cpu, gpu)` placement decisions made by the adaptive engine.
    pub placements: (usize, usize),
    /// Number of secure multiplications executed.
    pub secure_muls: usize,
    /// What the reliability layer did: retransmits, rejected corrupt
    /// frames, timeouts, acks, and the simulated time recovery cost. All
    /// zero when the fault plan is empty.
    pub reliability: ReliabilityStats,
    /// Faults the endpoints *injected* (the chaos side of the ledger, as
    /// opposed to `reliability`, which is the recovery side).
    pub injected: FaultCounters,
    /// Human-readable caveats about the run's security posture — e.g. a
    /// note that `insecure_reuse_triples` served one triple to many
    /// multiplications. Empty for a clean run.
    pub warnings: Vec<String>,
}

impl RunReport {
    /// Total simulated time (offline + online).
    pub fn total_time(&self) -> SimDuration {
        self.offline_time + self.online_time
    }

    /// Online share of total time — Table 3's "occupancy" column.
    pub fn occupancy(&self) -> f64 {
        let total = self.total_time();
        if total == SimDuration::ZERO {
            0.0
        } else {
            self.online_time / total
        }
    }

    /// Simulated speedup of this run over a baseline run (total time).
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        let own = self.total_time().as_secs();
        if own == 0.0 {
            0.0
        } else {
            baseline.total_time().as_secs() / own
        }
    }

    /// Online-only speedup over a baseline run.
    pub fn online_speedup_over(&self, baseline: &RunReport) -> f64 {
        let own = self.online_time.as_secs();
        if own == 0.0 {
            0.0
        } else {
            baseline.online_time.as_secs() / own
        }
    }

    /// True when the run saw neither injected faults nor recovery work.
    pub fn fault_free(&self) -> bool {
        self.injected.total() == 0 && self.reliability.is_clean()
    }

    /// Offline-only speedup over a baseline run.
    pub fn offline_speedup_over(&self, baseline: &RunReport) -> f64 {
        let own = self.offline_time.as_secs();
        if own == 0.0 {
            0.0
        } else {
            baseline.offline_time.as_secs() / own
        }
    }

    /// Versioned, serde-free JSON form (`psml.report.v1`). Embeds the
    /// phase, traffic, and reliability documents under their own keys so
    /// consumers can validate each sub-schema independently.
    pub fn to_json(&self) -> psml_trace::json::JsonValue {
        use psml_trace::json::{obj, JsonValue};
        obj([
            ("schema", JsonValue::Str("psml.report.v1".into())),
            (
                "offline_time_secs",
                JsonValue::Float(self.offline_time.as_secs()),
            ),
            (
                "online_time_secs",
                JsonValue::Float(self.online_time.as_secs()),
            ),
            (
                "total_time_secs",
                JsonValue::Float(self.total_time().as_secs()),
            ),
            ("occupancy", JsonValue::Float(self.occupancy())),
            ("secure_muls", JsonValue::UInt(self.secure_muls as u64)),
            (
                "placements",
                obj([
                    ("cpu", JsonValue::UInt(self.placements.0 as u64)),
                    ("gpu", JsonValue::UInt(self.placements.1 as u64)),
                ]),
            ),
            ("breakdown", self.breakdown.to_json()),
            ("traffic", self.traffic.to_json()),
            ("reliability", self.reliability.to_json()),
            (
                "injected_faults",
                obj([
                    ("drops", JsonValue::UInt(self.injected.drops)),
                    ("corruptions", JsonValue::UInt(self.injected.corruptions)),
                    ("delays", JsonValue::UInt(self.injected.delays)),
                    (
                        "blackout_drops",
                        JsonValue::UInt(self.injected.blackout_drops),
                    ),
                ]),
            ),
            (
                "warnings",
                JsonValue::Array(
                    self.warnings
                        .iter()
                        .map(|w| JsonValue::Str(w.clone()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn breakdown_sums() {
        let b = PhaseBreakdown {
            share_generation: secs(2.0),
            distribution: secs(1.0),
            compute1: secs(0.5),
            communicate: secs(0.25),
            compute2: secs(4.0),
            activation: secs(0.25),
        };
        assert!((b.online_serialized().as_secs() - 5.0).abs() < 1e-12);
        let mut c = b;
        c.merge(&b);
        assert!((c.compute2.as_secs() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_and_speedups() {
        let fast = RunReport {
            offline_time: secs(1.0),
            online_time: secs(1.0),
            ..Default::default()
        };
        let slow = RunReport {
            offline_time: secs(2.0),
            online_time: secs(18.0),
            ..Default::default()
        };
        assert!((slow.occupancy() - 0.9).abs() < 1e-12);
        assert!((fast.speedup_over(&slow) - 10.0).abs() < 1e-12);
        assert!((fast.online_speedup_over(&slow) - 18.0).abs() < 1e-12);
        assert!((fast.offline_speedup_over(&slow) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = RunReport::default();
        assert_eq!(r.occupancy(), 0.0);
        assert_eq!(r.total_time(), SimDuration::ZERO);
        assert_eq!(r.speedup_over(&r), 0.0);
        assert!(r.fault_free());
    }

    #[test]
    fn to_json_is_versioned_and_parseable() {
        let r = RunReport {
            offline_time: secs(1.5),
            online_time: secs(0.5),
            secure_muls: 3,
            placements: (1, 2),
            ..Default::default()
        };
        let doc = r.to_json();
        let text = doc.to_json();
        let parsed = psml_trace::json::parse(&text).expect("round-trip");
        assert_eq!(parsed.get("schema").and_then(|v| v.as_str()), Some("psml.report.v1"));
        assert_eq!(parsed.get("total_time_secs").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(
            parsed
                .get("breakdown")
                .and_then(|b| b.get("schema"))
                .and_then(|v| v.as_str()),
            Some("psml.phases.v1")
        );
        assert_eq!(
            parsed
                .get("traffic")
                .and_then(|b| b.get("schema"))
                .and_then(|v| v.as_str()),
            Some("psml.traffic.v1")
        );
        assert_eq!(
            parsed
                .get("reliability")
                .and_then(|b| b.get("schema"))
                .and_then(|v| v.as_str()),
            Some("psml.reliability.v1")
        );
    }

    #[test]
    fn fault_free_reflects_both_ledgers() {
        let mut r = RunReport::default();
        r.injected.drops = 1;
        assert!(!r.fault_free());
        let mut r = RunReport::default();
        r.reliability.retransmits = 1;
        assert!(!r.fault_free());
    }
}
