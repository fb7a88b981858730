//! Property-based tests for the timing substrate.

use crate::{LinkModel, Resource, SimDuration, SimTime};
use proptest::prelude::*;

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

    /// Link transfer time is monotonically non-decreasing in byte count.
    #[test]
    fn link_monotone_in_bytes(b1 in 0usize..1_000_000, b2 in 0usize..1_000_000) {
        let link = LinkModel::pcie3_x16();
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        prop_assert!(link.transfer_time(lo) <= link.transfer_time(hi));
    }
}
