//! Latency + bandwidth transfer model, shared by the PCIe and network
//! simulators.

use crate::time::SimDuration;

/// A point-to-point link characterized by a fixed per-message latency and a
/// sustained bandwidth: `time(bytes) = latency + bytes / bandwidth`.
///
/// This is the standard alpha-beta (Hockney) communication model; it is what
/// the paper's PCIe-overhead and InfiniBand-communication arguments assume.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkModel {
    /// Per-message setup latency in seconds (the alpha term).
    pub latency_s: f64,
    /// Sustained bandwidth in bytes per second (the 1/beta term).
    pub bytes_per_sec: f64,
}

impl LinkModel {
    /// Creates a link model.
    ///
    /// # Panics
    /// Panics if `latency_s` is negative or `bytes_per_sec` is not positive.
    pub fn new(latency_s: f64, bytes_per_sec: f64) -> Self {
        assert!(latency_s >= 0.0, "negative latency");
        assert!(bytes_per_sec > 0.0, "non-positive bandwidth");
        LinkModel {
            latency_s,
            bytes_per_sec,
        }
    }

    /// PCIe 3.0 x16 defaults: ~12 GB/s effective, 10 us per transfer
    /// (driver + DMA setup), matching common V100-era measurements.
    pub fn pcie3_x16() -> Self {
        LinkModel::new(10e-6, 12e9)
    }

    /// 100 Gbps 4xEDR InfiniBand defaults (the paper's interconnect):
    /// ~11 GB/s effective payload bandwidth, 2 us MPI message latency.
    pub fn infiniband_100g() -> Self {
        LinkModel::new(2e-6, 11e9)
    }

    /// 1 Gbps Ethernet, the LAN setting of the original SecureML paper.
    pub fn ethernet_1g() -> Self {
        LinkModel::new(50e-6, 110e6)
    }

    /// Time to move `bytes` across the link as a single message.
    #[inline]
    pub fn transfer_time(&self, bytes: usize) -> SimDuration {
        SimDuration::from_secs(self.latency_s + bytes as f64 / self.bytes_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_affine_in_bytes() {
        let link = LinkModel::new(1e-6, 1e9);
        let t0 = link.transfer_time(0);
        let t1 = link.transfer_time(1_000_000);
        assert!((t0.as_secs() - 1e-6).abs() < 1e-15);
        assert!((t1.as_secs() - (1e-6 + 1e-3)).abs() < 1e-12);
    }

    #[test]
    fn presets_are_ordered_sensibly() {
        // InfiniBand has lower latency than PCIe transfer setup and both are
        // far faster than 1GbE.
        let small = 1 << 20;
        let ib = LinkModel::infiniband_100g().transfer_time(small);
        let eth = LinkModel::ethernet_1g().transfer_time(small);
        assert!(ib < eth);
    }

    #[test]
    #[should_panic(expected = "non-positive bandwidth")]
    fn zero_bandwidth_rejected() {
        let _ = LinkModel::new(0.0, 0.0);
    }
}
