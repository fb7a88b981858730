//! Order statistics used for every reported number.

/// Median; the mean of the two middle values for an even count, 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an ascending sample (the rule
/// `ServeReport` uses for its simulated latencies); 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentiles a tail may be reported at, ascending.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest ladder percentile that still has at least ten of `n`
/// samples beyond its nearest rank. Below twenty samples no percentile
/// qualifies and the median is all that can be said.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            n.saturating_sub(rank) >= 10
        })
        .fold(50.0, f64::max)
}

/// `(max - min) / median`: how far apart the trials of one value lie.
pub fn spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    if xs.is_empty() || m == 0.0 {
        return 0.0;
    }
    let max = xs.iter().copied().fold(f64::MIN, f64::max);
    let min = xs.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m.abs()
}

/// `num / den`, 0 where there is nothing to divide by: a layer's busy time
/// as a share of its op, or a rate over a layer that did not run.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), 50.0); // nothing qualifies: median
        assert_eq!(tail_percentile(20), 50.0); // rank 10, ten beyond
        assert_eq!(tail_percentile(60), 75.0); // p90 would leave six
        assert_eq!(tail_percentile(1000), 99.0); // p99.9 would leave one
    }

    #[test]
    fn spread_and_share_ratio() {
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[]), 0.0);
        assert!((ratio(25.0, 100.0) - 0.25).abs() < 1e-12);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
