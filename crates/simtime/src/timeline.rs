//! Dependency-aware scheduling across multiple resources.

use crate::resource::{Resource, ResourceId};
use crate::time::{SimDuration, SimTime};

/// A completed operation in the simulated trace.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// Operation label, e.g. `"gemm"` or `"h2d:E"`.
    pub label: String,
    /// Resource the operation ran on.
    pub resource: ResourceId,
    /// Instant the operation started.
    pub start: SimTime,
    /// Instant the operation finished.
    pub end: SimTime,
}

impl OpRecord {
    /// Duration of the operation.
    #[inline]
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// A set of serial resources plus the trace of everything scheduled on them.
///
/// This is the core of the machine model: callers register resources once
/// (GPU compute engine, H2D/D2H copy engines, NIC, CPU, ...), then schedule
/// operations with explicit ready times (the `max` of their dependencies'
/// end times). The timeline answers "when does the whole thing finish" and
/// provides per-resource utilization for nvprof-style reports.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    resources: Vec<Resource>,
    trace: Vec<OpRecord>,
    trace_scope: Option<String>,
}

impl Timeline {
    /// Creates an empty timeline that records a full operation trace.
    pub fn new() -> Self {
        Timeline {
            resources: Vec::new(),
            trace: Vec::new(),
            trace_scope: None,
        }
    }

    /// Names this timeline's lane prefix for the global [`psml_trace`]
    /// sink (e.g. `"server0.gpu"`). Events from a scoped timeline appear
    /// on tracks `"<scope>/<resource>"`; an unscoped timeline uses the
    /// bare resource name.
    pub fn set_trace_scope(&mut self, scope: impl Into<String>) {
        self.trace_scope = Some(scope.into());
    }

    /// Registers a new serial resource and returns its id.
    pub fn add_resource(&mut self, name: impl Into<String>) -> ResourceId {
        self.resources.push(Resource::new(name));
        ResourceId(self.resources.len() - 1)
    }

    /// Read access to a resource.
    pub fn resource(&self, id: ResourceId) -> &Resource {
        &self.resources[id.0]
    }

    /// Schedules an operation on `res` that may start once `ready` has
    /// passed and takes `dur`. Returns the operation's end time, which
    /// callers thread into dependent operations' `ready` arguments.
    pub fn schedule(
        &mut self,
        res: ResourceId,
        ready: SimTime,
        dur: SimDuration,
        label: &str,
    ) -> SimTime {
        self.schedule_bytes(res, ready, dur, label, 0)
    }

    /// [`Timeline::schedule`] for data-movement ops: `bytes` is carried
    /// into the structured trace (and ignored by the aggregate stats).
    pub fn schedule_bytes(
        &mut self,
        res: ResourceId,
        ready: SimTime,
        dur: SimDuration,
        label: &str,
        bytes: usize,
    ) -> SimTime {
        let (start, end) = self.resources[res.0].schedule(ready, dur);
        self.trace.push(OpRecord {
            label: label.to_string(),
            resource: res,
            start,
            end,
        });
        if psml_trace::TraceSink::is_enabled() {
            let name = self.resources[res.0].name();
            let track = match &self.trace_scope {
                Some(scope) => format!("{scope}/{name}"),
                None => name.to_string(),
            };
            psml_trace::TraceSink::span(
                label,
                &track,
                psml_trace::ns_of_secs(start.as_secs()),
                psml_trace::ns_of_secs(end.as_secs()),
                bytes as u64,
            );
        }
        end
    }

    /// The instant the last-finishing resource goes idle (the makespan).
    pub fn makespan(&self) -> SimTime {
        self.resources
            .iter()
            .map(Resource::free_at)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Busy time of one resource.
    pub fn busy_time(&self, id: ResourceId) -> SimDuration {
        self.resources[id.0].busy_time()
    }

    /// Fraction of the makespan during which `id` was busy, in `[0, 1]`.
    pub fn utilization(&self, id: ResourceId) -> f64 {
        let span = self.makespan().saturating_since(SimTime::ZERO);
        if span == SimDuration::ZERO {
            0.0
        } else {
            self.busy_time(id) / span
        }
    }

    /// The recorded operation trace.
    pub fn trace(&self) -> &[OpRecord] {
        &self.trace
    }

    /// Aggregates total busy time per operation label, sorted by descending
    /// time — the shape of an `nvprof` summary table.
    pub fn summary_by_label(&self) -> Vec<(String, SimDuration, usize)> {
        let mut agg: Vec<(String, SimDuration, usize)> = Vec::new();
        for op in &self.trace {
            match agg.iter_mut().find(|(l, _, _)| *l == op.label) {
                Some((_, d, n)) => {
                    *d += op.duration();
                    *n += 1;
                }
                None => agg.push((op.label.clone(), op.duration(), 1)),
            }
        }
        agg.sort_by_key(|&(_, d, _)| std::cmp::Reverse(d));
        agg
    }

    /// Resets every resource and clears the trace.
    pub fn reset(&mut self) {
        for r in &mut self.resources {
            r.reset();
        }
        self.trace.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reproduces the Fig. 5 pipeline shape from the paper: transfers on a
    /// copy engine overlap with kernels on a compute engine.
    #[test]
    fn fig5_style_overlap() {
        let mut tl = Timeline::new();
        let copy = tl.add_resource("pcie-h2d");
        let gpu = tl.add_resource("gpu");
        let s = SimDuration::from_secs;

        // Transfer E then Ai (1s each), then D=(-i)E+Ai on GPU (1s) overlapping
        // the F transfer (1s), then DxF (1s) overlapping the Bi transfer.
        let t_e = tl.schedule(copy, SimTime::ZERO, s(1.0), "h2d:E");
        let t_a = tl.schedule(copy, t_e, s(1.0), "h2d:A");
        let t_f = tl.schedule(copy, t_a, s(1.0), "h2d:F");
        let t_d = tl.schedule(gpu, t_a, s(1.0), "kernel:D");
        let t_b = tl.schedule(copy, t_f, s(1.0), "h2d:B");
        let t_df = tl.schedule(gpu, t_d.max(t_f), s(1.0), "kernel:DxF");
        let t_c = tl.schedule(gpu, t_df.max(t_b), s(1.0), "kernel:+Z");

        assert_eq!(t_c, SimTime::from_secs(5.0)); // 7s if fully serial
        assert_eq!(tl.makespan(), t_c);
        assert!((tl.utilization(gpu) - 3.0 / 5.0).abs() < 1e-12);
        assert!((tl.utilization(copy) - 4.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn summary_aggregates_labels() {
        let mut tl = Timeline::new();
        let gpu = tl.add_resource("gpu");
        tl.schedule(gpu, SimTime::ZERO, SimDuration::from_secs(1.0), "gemm");
        tl.schedule(gpu, SimTime::ZERO, SimDuration::from_secs(2.0), "gemm");
        tl.schedule(gpu, SimTime::ZERO, SimDuration::from_secs(0.5), "relu");
        let summary = tl.summary_by_label();
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].0, "gemm");
        assert_eq!(summary[0].2, 2);
        assert!((summary[0].1.as_secs() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_timeline_makespan_zero() {
        let tl = Timeline::new();
        assert_eq!(tl.makespan(), SimTime::ZERO);
    }

    #[test]
    fn scheduled_ops_reach_global_trace_sink() {
        use psml_trace::TraceSink;
        let mut tl = Timeline::new();
        tl.set_trace_scope("server0.gpu");
        let gpu = tl.add_resource("gpu:compute");
        TraceSink::enable();
        TraceSink::clear();
        tl.schedule(gpu, SimTime::ZERO, SimDuration::from_secs(1.5), "gemm");
        tl.schedule_bytes(
            gpu,
            SimTime::ZERO,
            SimDuration::from_secs(0.5),
            "h2d",
            4096,
        );
        let events = TraceSink::drain();
        TraceSink::disable();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].op, "gemm");
        assert_eq!(events[0].track, "server0.gpu/gpu:compute");
        assert_eq!(events[0].end_ns, 1_500_000_000);
        assert_eq!(events[1].bytes, 4096);
    }

    #[test]
    fn reset_restores_pristine_state() {
        let mut tl = Timeline::new();
        let gpu = tl.add_resource("gpu");
        tl.schedule(gpu, SimTime::ZERO, SimDuration::from_secs(1.0), "gemm");
        tl.reset();
        assert_eq!(tl.makespan(), SimTime::ZERO);
        assert!(tl.trace().is_empty());
        assert_eq!(tl.resource(gpu).busy_time(), SimDuration::ZERO);
    }
}
