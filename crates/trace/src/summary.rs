//! Flamegraph-style per-phase / per-layer text summary of a trace.

use std::fmt::Write as _;

use crate::event::{Phase, TraceEvent};

/// Aggregated view of a trace: busy time per phase, per layer, and per
/// (phase, op) pair.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// `(phase, busy ns, events, bytes)` in pipeline order; phases with no
    /// events are omitted.
    pub phases: Vec<(Phase, u64, usize, u64)>,
    /// `(layer, busy ns, events)` sorted by layer index.
    pub layers: Vec<(u32, u64, usize)>,
    /// `(phase, op, busy ns, events)` sorted by descending time within
    /// each phase.
    pub ops: Vec<(Phase, String, u64, usize)>,
    /// Total busy nanoseconds across all events.
    pub total_ns: u64,
    /// Total bytes moved.
    pub total_bytes: u64,
}

impl Summary {
    /// Builds the aggregate from raw events.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut s = Summary::default();
        for ev in events {
            let dur = ev.dur_ns();
            s.total_ns += dur;
            s.total_bytes += ev.bytes;
            match s.phases.iter_mut().find(|(p, ..)| *p == ev.phase) {
                Some((_, ns, n, bytes)) => {
                    *ns += dur;
                    *n += 1;
                    *bytes += ev.bytes;
                }
                None => s.phases.push((ev.phase, dur, 1, ev.bytes)),
            }
            if let Some(layer) = ev.layer {
                match s.layers.iter_mut().find(|(l, ..)| *l == layer) {
                    Some((_, ns, n)) => {
                        *ns += dur;
                        *n += 1;
                    }
                    None => s.layers.push((layer, dur, 1)),
                }
            }
            match s
                .ops
                .iter_mut()
                .find(|(p, op, ..)| *p == ev.phase && *op == ev.op)
            {
                Some((_, _, ns, n)) => {
                    *ns += dur;
                    *n += 1;
                }
                None => s.ops.push((ev.phase, ev.op.clone(), dur, 1)),
            }
        }
        s.phases
            .sort_by_key(|&(p, ..)| Phase::ALL.iter().position(|q| *q == p));
        s.layers.sort_by_key(|&(l, ..)| l);
        s.ops.sort_by(|a, b| {
            let pa = Phase::ALL.iter().position(|q| *q == a.0);
            let pb = Phase::ALL.iter().position(|q| *q == b.0);
            pa.cmp(&pb)
                .then(b.2.cmp(&a.2))
                .then(a.1.cmp(&b.1))
        });
        s
    }

    /// Renders the flamegraph-style text report: a bar per phase with its
    /// top ops indented beneath, followed by a per-layer table.
    pub fn render(&self) -> String {
        const BAR: usize = 28;
        const TOP_OPS: usize = 5;
        let mut out = String::new();
        let total = self.total_ns.max(1);
        let _ = writeln!(
            out,
            "trace summary: {} busy across {} phases, {} moved",
            fmt_ns(self.total_ns),
            self.phases.len(),
            fmt_bytes(self.total_bytes),
        );
        for &(phase, ns, n, bytes) in &self.phases {
            let frac = ns as f64 / total as f64;
            let filled = ((frac * BAR as f64).round() as usize).min(BAR);
            let _ = writeln!(
                out,
                "  {:<12} [{:<width$}] {:>10}  {:>5.1}%  {:>6} events  {}",
                phase.name(),
                "#".repeat(filled),
                fmt_ns(ns),
                100.0 * frac,
                n,
                fmt_bytes(bytes),
                width = BAR,
            );
            let mut shown = 0;
            for (p, op, op_ns, op_n) in &self.ops {
                if *p != phase || shown >= TOP_OPS {
                    continue;
                }
                shown += 1;
                let _ = writeln!(
                    out,
                    "      {:<24} {:>10}  x{}",
                    op,
                    fmt_ns(*op_ns),
                    op_n
                );
            }
        }
        if !self.layers.is_empty() {
            let _ = writeln!(out, "  per-layer:");
            for &(layer, ns, n) in &self.layers {
                let _ = writeln!(
                    out,
                    "      layer {:<3} {:>10}  {:>6} events",
                    layer,
                    fmt_ns(ns),
                    n
                );
            }
        }
        out
    }
}

/// Human-readable nanosecond count with adaptive units.
fn fmt_ns(ns: u64) -> String {
    let s = ns as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3}us", s * 1e6)
    } else {
        format!("{ns}ns")
    }
}

/// Human-readable byte count.
fn fmt_bytes(b: u64) -> String {
    const KIB: f64 = 1024.0;
    let bf = b as f64;
    if bf >= KIB * KIB * KIB {
        format!("{:.2}GiB", bf / (KIB * KIB * KIB))
    } else if bf >= KIB * KIB {
        format!("{:.2}MiB", bf / (KIB * KIB))
    } else if bf >= KIB {
        format!("{:.2}KiB", bf / KIB)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(phase: Phase, op: &str, layer: Option<u32>, start: u64, end: u64, bytes: u64) -> TraceEvent {
        TraceEvent {
            phase,
            op: op.into(),
            track: "t".into(),
            layer,
            shape: None,
            placement: None,
            start_ns: start,
            end_ns: end,
            wall_ns: 0,
            bytes,
        }
    }

    #[test]
    fn aggregates_by_phase_layer_and_op() {
        let events = vec![
            ev(Phase::Compute1, "gemm", Some(0), 0, 100, 0),
            ev(Phase::Compute1, "gemm", Some(0), 100, 250, 0),
            ev(Phase::Communicate, "send", Some(0), 250, 400, 64),
            ev(Phase::Compute2, "gemm", Some(1), 400, 900, 0),
        ];
        let s = Summary::from_events(&events);
        assert_eq!(s.total_ns, 100 + 150 + 150 + 500);
        assert_eq!(s.total_bytes, 64);
        assert_eq!(s.phases[0].1, 250, "compute1 busy ns");
        assert_eq!(s.layers, vec![(0, 400, 3), (1, 500, 1)]);
        // Phases come out in pipeline order.
        let order: Vec<Phase> = s.phases.iter().map(|&(p, ..)| p).collect();
        assert_eq!(
            order,
            vec![Phase::Compute1, Phase::Communicate, Phase::Compute2]
        );
        let text = s.render();
        assert!(text.contains("compute1"));
        assert!(text.contains("per-layer:"));
        assert!(text.contains("layer 0"));
    }

    #[test]
    fn render_empty_trace() {
        let s = Summary::from_events(&[]);
        let text = s.render();
        assert!(text.contains("0 phases"));
    }
}
