//! A fixed-size, log-bucketed histogram of `u64` samples (HdrHistogram's
//! idea): one bucket per power of two, each split linearly into
//! `2^SUB_BITS` sub-buckets. Its memory does not grow with the number of
//! samples, and a percentile costs one pass over the buckets.
//!
//! Relative error: a sample `v >= 2^SUB_BITS` lands in a sub-bucket
//! `[lo, lo + 2^(e - SUB_BITS))` where `2^e <= lo`, so `lo` is below `v` by
//! less than `v / 2^SUB_BITS` (1/64, about 1.6 %). Samples below
//! `2^SUB_BITS` are counted exactly. [`LatencyHistogram::percentile`]
//! reports the lower bound of the bucket holding the nearest-rank sample,
//! clamped to the smallest and largest sample seen.

/// Linear sub-buckets per power of two: `2^SUB_BITS`.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Buckets: the exact range `[0, SUB)`, then `SUB` for each exponent
/// `SUB_BITS..=63`.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Fixed-size log-bucketed histogram of `u64` samples (say, nanoseconds).
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    counts: Box<[u64]>,
    total: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket `v` is counted in.
fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
    (e - SUB_BITS + 1) as usize * SUB + sub
}

/// The smallest value counted in bucket `b`.
fn lower_bound(b: usize) -> u64 {
    if b < SUB {
        return b as u64;
    }
    let (e, sub) = ((b / SUB) as u32 + SUB_BITS - 1, (b % SUB) as u64);
    (1u64 << e) | (sub << (e - SUB_BITS))
}

impl LatencyHistogram {
    /// The largest relative amount by which a reported percentile can
    /// fall below the exact nearest-rank sample: `2^-SUB_BITS`.
    pub const RELATIVE_ERROR: f64 = 1.0 / SUB as f64;

    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Counts one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples counted.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The nearest-rank `p`-th percentile (`p` in `0..=100`) as the lower
    /// bound of its bucket, within [`Self::RELATIVE_ERROR`] below the
    /// exact sample and clamped to the samples' range; 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil() as u64;
        let rank = rank.clamp(1, self.total);
        let mut seen = 0;
        for (b, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return lower_bound(b).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact nearest-rank percentile over an ascending sample: the oracle.
    fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    #[test]
    fn buckets_tile_the_range() {
        for b in 0..BUCKETS - 1 {
            assert!(lower_bound(b) < lower_bound(b + 1), "bucket {b}");
            assert_eq!(bucket_of(lower_bound(b)), b);
            assert_eq!(bucket_of(lower_bound(b + 1) - 1), b);
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_are_within_the_stated_error_of_the_nearest_rank() {
        // 1..=100 us in ns, then a log-spread sample over twelve decades.
        let linear: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let spread: Vec<u64> = (0..5_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 1_000_000) << (x % 40)
            })
            .collect();
        for sample in [linear, spread] {
            let mut h = LatencyHistogram::new();
            sample.iter().for_each(|&v| h.record(v));
            let mut sorted = sample.clone();
            sorted.sort_unstable();
            for p in [0.0, 1.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
                let (got, want) = (h.percentile(p), nearest_rank(&sorted, p));
                assert!(got <= want, "p{p}: {got} above {want}");
                let floor = want as f64 * (1.0 - LatencyHistogram::RELATIVE_ERROR);
                assert!(got as f64 >= floor, "p{p}: {got} more than 1/64 below {want}");
            }
            assert_eq!(h.count(), sample.len() as u64);
        }
    }

    #[test]
    fn small_samples_and_extremes_are_exact() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.percentile(50.0), 0);
        h.record(123_456_789);
        assert_eq!(h.percentile(99.0), 123_456_789, "one sample is its own percentile");
        let mut h = LatencyHistogram::new();
        (0..SUB as u64).for_each(|v| h.record(v));
        assert_eq!(h.percentile(50.0), SUB as u64 / 2 - 1);
        assert_eq!(h.percentile(100.0), SUB as u64 - 1);
    }

    #[test]
    fn memory_does_not_grow_with_samples() {
        let mut h = LatencyHistogram::new();
        let before = h.counts.len();
        (0..1_000_000u64).for_each(|i| h.record(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20));
        assert_eq!((h.counts.len(), h.count()), (before, 1_000_000));
    }
}
