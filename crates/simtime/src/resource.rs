//! Serial simulated resources.

use crate::time::{SimDuration, SimTime};

/// Identifier of a resource inside a [`crate::Timeline`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub(crate) usize);

impl ResourceId {
    /// Index of this resource inside its timeline.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A serial execution engine in the simulated machine.
///
/// A resource runs one operation at a time, in the order operations are
/// scheduled onto it. Examples: a GPU compute engine, the PCIe host-to-device
/// copy engine, a NIC, one CPU hardware thread. An operation scheduled at
/// "ready time" `r` with duration `d` starts at `max(r, free_at)` and
/// occupies the resource until `start + d` — the same FIFO-per-engine
/// semantics as CUDA streams on distinct engines.
#[derive(Clone, Debug)]
pub struct Resource {
    name: String,
    free_at: SimTime,
    busy: SimDuration,
}

impl Resource {
    /// Creates an idle resource.
    pub fn new(name: impl Into<String>) -> Self {
        Resource {
            name: name.into(),
            free_at: SimTime::ZERO,
            busy: SimDuration::ZERO,
        }
    }

    /// Human-readable resource name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instant at which the resource becomes idle.
    #[inline]
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total busy time accumulated so far.
    #[inline]
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Schedules an operation whose inputs are ready at `ready` and that
    /// takes `dur`; returns its `(start, end)` interval.
    pub fn schedule(&mut self, ready: SimTime, dur: SimDuration) -> (SimTime, SimTime) {
        let start = ready.max(self.free_at);
        let end = start + dur;
        self.free_at = end;
        self.busy += dur;
        (start, end)
    }

    /// Resets the resource to idle at t=0, clearing statistics.
    pub fn reset(&mut self) {
        self.free_at = SimTime::ZERO;
        self.busy = SimDuration::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_backpressure() {
        let mut r = Resource::new("gpu");
        let (s1, e1) = r.schedule(SimTime::ZERO, SimDuration::from_secs(2.0));
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(e1, SimTime::from_secs(2.0));
        // Ready at t=1 but resource busy until t=2: starts at 2.
        let (s2, e2) = r.schedule(SimTime::from_secs(1.0), SimDuration::from_secs(1.0));
        assert_eq!(s2, SimTime::from_secs(2.0));
        assert_eq!(e2, SimTime::from_secs(3.0));
        assert!((r.busy_time().as_secs() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn idle_gap_not_counted_busy() {
        let mut r = Resource::new("nic");
        r.schedule(SimTime::ZERO, SimDuration::from_secs(1.0));
        // Gap between t=1 and t=5.
        let (s, _) = r.schedule(SimTime::from_secs(5.0), SimDuration::from_secs(1.0));
        assert_eq!(s, SimTime::from_secs(5.0));
        assert!((r.busy_time().as_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_state() {
        let mut r = Resource::new("cpu");
        r.schedule(SimTime::ZERO, SimDuration::from_secs(4.0));
        r.reset();
        assert_eq!(r.free_at(), SimTime::ZERO);
        assert_eq!(r.busy_time(), SimDuration::ZERO);
    }
}
