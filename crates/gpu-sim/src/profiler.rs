//! nvprof-style profiling report (paper Sec. 5.2 uses nvprof to find that
//! GEMM dominates GPU time — Fig. 8 is generated from this report).

use psml_simtime::SimDuration;
use std::fmt;

/// One aggregated activity line.
#[derive(Clone, Debug)]
pub struct ProfileLine {
    /// Activity label (kernel or memcpy direction).
    pub label: String,
    /// Total simulated time spent.
    pub total: SimDuration,
    /// Number of invocations.
    pub calls: usize,
    /// Share of the summed activity time, in `[0, 1]`.
    pub fraction: f64,
}

/// Aggregated per-activity profile, sorted by descending time.
#[derive(Clone, Debug, Default)]
pub struct ProfileReport {
    /// Aggregated lines, most expensive first.
    pub lines: Vec<ProfileLine>,
}

impl ProfileReport {
    /// Builds the report from a device's `(label, time, calls)` tally,
    /// sorted by descending time (stable: ties keep first-seen order) —
    /// the shape of an `nvprof` summary table.
    pub(crate) fn from_tally(tally: &[(&'static str, SimDuration, usize)]) -> Self {
        let mut summary = tally.to_vec();
        summary.sort_by_key(|&(_, d, _)| std::cmp::Reverse(d));
        let total: SimDuration = summary.iter().map(|(_, d, _)| *d).sum();
        let lines = summary
            .into_iter()
            .map(|(label, dur, calls)| ProfileLine {
                fraction: if total == SimDuration::ZERO {
                    0.0
                } else {
                    dur / total
                },
                label: label.to_string(),
                total: dur,
                calls,
            })
            .collect();
        ProfileReport { lines }
    }

    /// Total time across all activities (each label counted once, even if
    /// a hand-assembled report carries duplicate aggregate lines).
    pub fn total(&self) -> SimDuration {
        let mut seen: Vec<&str> = Vec::new();
        let mut total = SimDuration::ZERO;
        for l in &self.lines {
            if seen.contains(&l.label.as_str()) {
                continue;
            }
            seen.push(&l.label);
            total += l.total;
        }
        total
    }

    /// Fraction of activity time spent in activities whose label contains
    /// `needle` (e.g. `"gemm"` for Fig. 8).
    ///
    /// Computed from the recorded durations, deduplicating by label first:
    /// after a [`ProfileReport::merge`] of reports that aggregate the same
    /// activity, summing the per-line `fraction` fields would count such
    /// labels twice (and the stale fractions would no longer refer to the
    /// combined total anyway).
    pub fn fraction_matching(&self, needle: &str) -> f64 {
        let mut seen: Vec<&str> = Vec::new();
        let mut matched = SimDuration::ZERO;
        let mut total = SimDuration::ZERO;
        for l in &self.lines {
            if seen.contains(&l.label.as_str()) {
                continue;
            }
            seen.push(&l.label);
            total += l.total;
            if l.label.contains(needle) {
                matched += l.total;
            }
        }
        if total == SimDuration::ZERO {
            0.0
        } else {
            matched / total
        }
    }

    /// Folds `other` into this report, aggregating by label and
    /// recomputing every fraction against the combined total.
    pub fn merge(&mut self, other: &ProfileReport) {
        for ol in &other.lines {
            match self.lines.iter_mut().find(|l| l.label == ol.label) {
                Some(l) => {
                    l.total += ol.total;
                    l.calls += ol.calls;
                }
                None => self.lines.push(ol.clone()),
            }
        }
        let total: SimDuration = self.lines.iter().map(|l| l.total).sum();
        for l in &mut self.lines {
            l.fraction = if total == SimDuration::ZERO {
                0.0
            } else {
                l.total / total
            };
        }
        self.lines
            .sort_by(|a, b| b.total.cmp(&a.total).then(a.label.cmp(&b.label)));
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<12} {:>12} {:>8} {:>8}", "Activity", "Time", "Calls", "Time%")?;
        for l in &self.lines {
            writeln!(
                f,
                "{:<12} {:>12} {:>8} {:>7.2}%",
                l.label,
                l.total.to_string(),
                l.calls,
                l.fraction * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `gemm` 3 s, `h2d` 1 s, `gemm` 1 s, tallied as a device does.
    fn sample() -> ProfileReport {
        let s = SimDuration::from_secs;
        ProfileReport::from_tally(&[("gemm", s(3.0) + s(1.0), 2), ("h2d", s(1.0), 1)])
    }

    #[test]
    fn aggregates_and_sorts() {
        let report = sample();
        assert_eq!(report.lines.len(), 2);
        assert_eq!(report.lines[0].label, "gemm");
        assert_eq!(report.lines[0].calls, 2);
        assert!((report.lines[0].fraction - 0.8).abs() < 1e-12);
        assert!((report.total().as_secs() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_matching_sums_labels() {
        let report = sample();
        assert!((report.fraction_matching("gemm") - 0.8).abs() < 1e-12);
        assert!((report.fraction_matching("h2d") - 0.2).abs() < 1e-12);
        assert_eq!(report.fraction_matching("nope"), 0.0);
    }

    #[test]
    fn fraction_matching_dedupes_duplicate_aggregate_lines() {
        // A report carrying the same aggregate label twice (as produced by
        // naively concatenating per-server reports): summing the stored
        // `fraction` fields would double-count "gemm" and report 1.6.
        let dup = ProfileLine {
            label: "gemm".into(),
            total: SimDuration::from_secs(4.0),
            calls: 2,
            fraction: 0.8,
        };
        let report = ProfileReport {
            lines: vec![
                dup.clone(),
                dup,
                ProfileLine {
                    label: "h2d".into(),
                    total: SimDuration::from_secs(1.0),
                    calls: 1,
                    fraction: 0.2,
                },
            ],
        };
        let f = report.fraction_matching("gemm");
        assert!((f - 0.8).abs() < 1e-12, "got {f}");
        assert!((report.total().as_secs() - 5.0).abs() < 1e-12);
        assert!(report.fraction_matching("") - 1.0 < 1e-12);
    }

    #[test]
    fn merge_aggregates_by_label_and_recomputes_fractions() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.lines.len(), 2);
        assert_eq!(a.lines[0].label, "gemm");
        assert_eq!(a.lines[0].calls, 4);
        assert!((a.lines[0].total.as_secs() - 8.0).abs() < 1e-12);
        assert!((a.lines[0].fraction - 0.8).abs() < 1e-12);
        let total: f64 = a.lines.iter().map(|l| l.fraction).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((a.fraction_matching("gemm") - 0.8).abs() < 1e-12);
    }

    #[test]
    fn sort_is_stable_over_first_seen_order() {
        let s = SimDuration::from_secs;
        let report = ProfileReport::from_tally(&[
            ("d2h", s(1.0), 1),
            ("rng", s(2.0), 1),
            ("h2d", s(1.0), 3),
        ]);
        let labels: Vec<&str> = report.lines.iter().map(|l| l.label.as_str()).collect();
        assert_eq!(labels, ["rng", "d2h", "h2d"]);
    }

    #[test]
    fn empty_tally_yields_empty_report() {
        let report = ProfileReport::from_tally(&[]);
        assert!(report.lines.is_empty());
        assert_eq!(report.total(), SimDuration::ZERO);
    }

    #[test]
    fn display_renders_table() {
        let report = sample();
        let s = report.to_string();
        assert!(s.contains("Activity"));
        assert!(s.contains("80.00%"));
    }
}
