//! Property-based tests for the timing substrate.

use crate::{LinkModel, Resource, SimDuration, SimTime, Timeline};
use proptest::prelude::*;

fn durations() -> impl Strategy<Value = SimDuration> {
    (0.0f64..10.0).prop_map(SimDuration::from_secs)
}

proptest! {
    /// A serial resource never starts an op before its ready time and never
    /// overlaps two ops.
    #[test]
    fn resource_schedule_invariants(ops in prop::collection::vec((0.0f64..100.0, 0.0f64..5.0), 1..50)) {
        let mut r = Resource::new("r");
        let mut prev_end = SimTime::ZERO;
        for (ready, dur) in ops {
            let ready = SimTime::from_secs(ready);
            let dur = SimDuration::from_secs(dur);
            let (start, end) = r.schedule(ready, dur);
            prop_assert!(start >= ready);
            prop_assert!(start >= prev_end);
            prop_assert!((end.as_secs() - start.as_secs() - dur.as_secs()).abs() < 1e-9);
            prev_end = end;
        }
    }

    /// Makespan always bounds every trace record, and busy time never
    /// exceeds the makespan for any single resource.
    #[test]
    fn timeline_makespan_bounds_trace(durs in prop::collection::vec(durations(), 1..40)) {
        let mut tl = Timeline::new();
        let a = tl.add_resource("a");
        let b = tl.add_resource("b");
        let mut ready = SimTime::ZERO;
        for (i, d) in durs.iter().enumerate() {
            let res = if i % 2 == 0 { a } else { b };
            // Alternate dependency chaining and independent ops.
            let r = if i % 3 == 0 { SimTime::ZERO } else { ready };
            ready = tl.schedule(res, r, *d, "op");
        }
        let span = tl.makespan();
        for op in tl.trace() {
            prop_assert!(op.end <= span);
            prop_assert!(op.start <= op.end);
        }
        prop_assert!(tl.busy_time(a) <= span.saturating_since(SimTime::ZERO));
        prop_assert!(tl.busy_time(b) <= span.saturating_since(SimTime::ZERO));
        prop_assert!(tl.utilization(a) <= 1.0 + 1e-9);
    }

    /// Link transfer time is monotonically non-decreasing in byte count.
    #[test]
    fn link_monotone_in_bytes(b1 in 0usize..1_000_000, b2 in 0usize..1_000_000) {
        let link = LinkModel::pcie3_x16();
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        prop_assert!(link.transfer_time(lo) <= link.transfer_time(hi));
    }
}
