//! Serial simulated resources.

use crate::time::{SimDuration, SimTime};

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
}

impl Resource {
    /// Creates an idle resource.
    pub fn new(name: impl Into<String>) -> Self {
        Resource {
            name: name.into(),
            free_at: SimTime::ZERO,
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

    /// Schedules an operation whose inputs are ready at `ready` and that
    /// takes `dur`; returns its `(start, end)` interval.
    pub fn schedule(&mut self, ready: SimTime, dur: SimDuration) -> (SimTime, SimTime) {
        let start = ready.max(self.free_at);
        let end = start + dur;
        self.free_at = end;
        (start, end)
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
        assert_eq!(r.free_at(), e2);
    }

    #[test]
    fn idle_resource_starts_at_ready() {
        let mut r = Resource::new("nic");
        r.schedule(SimTime::ZERO, SimDuration::from_secs(1.0));
        // Gap between t=1 and t=5.
        let (s, _) = r.schedule(SimTime::from_secs(5.0), SimDuration::from_secs(1.0));
        assert_eq!(s, SimTime::from_secs(5.0));
    }
}
