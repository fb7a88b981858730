#![forbid(unsafe_code)]
//! Std-only, in-tree stand-in for the `criterion` crate.
//!
//! The build environment is fully offline, so the real `criterion` cannot be
//! fetched. This shim keeps the workspace's `benches/*.rs` files compiling
//! and genuinely useful: it implements the group / `bench_with_input` /
//! `iter` surface with a simple wall-clock harness (configurable warm-up and
//! measurement windows, median-of-samples reporting) and prints one line per
//! benchmark:
//!
//! ```text
//! gemm/packed/256         median   12.345 ms   (11 samples)
//! ```
//!
//! There is no statistical regression analysis, HTML report, or output
//! directory; results go to stdout. `cargo bench` therefore still produces
//! comparable numbers run-to-run on the same host — but with weaker noise
//! rejection than the real crate's sampling model. To keep that distinction
//! visible — and to stop an online build or `cargo update` from silently
//! swapping implementations — the package is named `criterion-shim` and
//! only *aliased* to `criterion` through a dependency rename in the
//! workspace manifest.

use std::time::{Duration, Instant};

/// Top-level harness handle, one per bench binary.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_secs(1),
            _criterion: std::marker::PhantomData,
        }
    }
}

/// Identifies one benchmark within a group as `function/parameter`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// A `function/parameter` id.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function.into(), parameter),
        }
    }
}

/// A named collection of benchmarks sharing timing settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    _criterion: std::marker::PhantomData<&'a mut Criterion>,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Total measurement window budget.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = t;
        self
    }

    /// Warm-up window before sampling starts.
    pub fn warm_up_time(&mut self, t: Duration) -> &mut Self {
        self.warm_up_time = t;
        self
    }

    /// Benchmarks `f`, passing it `input`.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        self.run_named(format!("{}/{}", self.name, id.label), |b| f(b, input));
        self
    }

    /// Benchmarks `f` under `name` within this group.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        self.run_named(format!("{}/{}", self.name, name), f);
        self
    }

    /// Ends the group (no-op; printing happens per benchmark).
    pub fn finish(self) {}

    fn run_named(&mut self, label: String, mut f: impl FnMut(&mut Bencher)) {
        let mut bencher = Bencher {
            mode: Mode::Calibrate {
                deadline: Instant::now() + self.warm_up_time,
                iters_per_sample: 1,
            },
        };
        // Warm-up doubles as calibration of the per-sample iteration count.
        f(&mut bencher);
        let iters = match bencher.mode {
            Mode::Calibrate {
                iters_per_sample, ..
            } => iters_per_sample,
            _ => 1,
        };
        let mut samples = Vec::with_capacity(self.sample_size);
        let budget = Instant::now() + self.measurement_time;
        for i in 0..self.sample_size {
            bencher.mode = Mode::Measure {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut bencher);
            if let Mode::Measure { elapsed, .. } = bencher.mode {
                samples.push(elapsed / iters as u32);
            }
            if Instant::now() > budget && i + 1 >= samples.len().min(3) {
                break;
            }
        }
        samples.sort();
        let median = samples[samples.len() / 2];
        println!(
            "{label:<40} median {:>12}   ({} samples)",
            format_duration(median),
            samples.len()
        );
    }
}

enum Mode {
    /// Warm-up: run until the deadline, doubling the iteration count to find
    /// one that takes a measurable slice of time.
    Calibrate {
        deadline: Instant,
        iters_per_sample: u64,
    },
    /// One timed sample of `iters` iterations.
    Measure { iters: u64, elapsed: Duration },
}

/// Passed to the benchmark closure; calls [`Bencher::iter`] to time a body.
pub struct Bencher {
    mode: Mode,
}

impl Bencher {
    /// Times `body` according to the current sampling mode.
    pub fn iter<O>(&mut self, mut body: impl FnMut() -> O) {
        match &mut self.mode {
            Mode::Calibrate {
                deadline,
                iters_per_sample,
            } => {
                let mut iters = 1u64;
                loop {
                    let start = Instant::now();
                    for _ in 0..iters {
                        std::hint::black_box(body());
                    }
                    let took = start.elapsed();
                    if took >= Duration::from_millis(10) || Instant::now() >= *deadline {
                        *iters_per_sample = iters;
                        break;
                    }
                    iters = iters.saturating_mul(2);
                }
            }
            Mode::Measure { iters, elapsed } => {
                let start = Instant::now();
                for _ in 0..*iters {
                    std::hint::black_box(body());
                }
                *elapsed = start.elapsed();
            }
        }
    }
}

fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// Declares the benchmark functions a bench binary runs.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        group.warm_up_time(Duration::from_millis(1));
        group.measurement_time(Duration::from_millis(5));
        group.bench_with_input(BenchmarkId::new("sum", 64), &64u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn harness_runs() {
        benches();
    }
}
