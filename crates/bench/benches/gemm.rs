//! Real-throughput GEMM kernel benchmarks (backs Figs. 8 and 15).
//!
//! Two parts:
//!
//! 1. A criterion group comparing the whole kernel ladder — naive,
//!    blocked, packed, packed-parallel, the `gemm_auto` dispatcher, and
//!    the Tensor-Core (through-f16) variant — at small and medium sizes.
//! 2. A headline measurement at 256/512/1024 cubed, over both an f32
//!    carrier and the u64 ring carrier secure training runs on,
//!    comparing the seed production kernel (`gemm_blocked`) against the
//!    packed paths and — where the host tile unit verifies — the
//!    limb-split quantized ring kernel. `packed_parallel` is recorded
//!    only when the global pool has more than one worker (with one it is
//!    the same code as `packed`). Written to `BENCH_gemm.json` (a
//!    `psml.bench.gemm.v1` document) at the repository root so the
//!    speedups are recorded per host.
//!
//! `PSML_SMOKE=1` shrinks the headline to a seconds-scale CI check
//! written to `BENCH_gemm.smoke.json`; both modes assert that the
//! `gemm_auto` dispatcher is never the slowest kernel at any recorded
//! size (the whole point of a dispatcher).

use criterion::{criterion_group, BenchmarkId, Criterion};
use psml_gpu::{kernels, GemmMode};
use psml_tensor::{
    gemm_auto, gemm_blocked, gemm_naive, gemm_packed, gemm_packed_parallel, gemm_quant,
    quant_ring_available, Matrix, Num,
};
use psml_trace::json::{obj, JsonValue};
use std::hint::black_box;
use std::time::Instant;

fn mat(n: usize, seed: u64) -> Matrix<f32> {
    rect(n, n, seed)
}

fn rect(rows: usize, cols: usize, seed: u64) -> Matrix<f32> {
    Matrix::from_fn(rows, cols, |r, c| {
        (((r as u64 * 31 + c as u64 * 7) ^ seed) % 17) as f32 - 8.0
    })
}

/// Full-range ring elements (every limb populated, as shares are).
fn ring(n: usize, seed: u64) -> Matrix<u64> {
    Matrix::from_fn(n, n, |r, c| {
        ((r as u64 * 0x9E37_79B9_7F4A_7C15) ^ (c as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(seed.wrapping_mul(0x94D0_49BB_1331_11EB))
    })
}

/// The im2col-lowered conv GEMM shape `conv2d_im2col` now routes through
/// `gemm_auto`: batch 16 of 1x28x28 images, 5x5 kernel, 8 filters —
/// `(16*576 x 25) x (25 x 8)`, tall-skinny instead of square.
const CONV_M: usize = 16 * 576;
const CONV_K: usize = 25;
const CONV_N: usize = 8;

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for &n in &[32usize, 64, 128] {
        let a = mat(n, 1);
        let b = mat(n, 2);
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bench, _| {
            bench.iter(|| black_box(gemm_naive(&a, &b)))
        });
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bench, _| {
            bench.iter(|| black_box(gemm_blocked(&a, &b)))
        });
        group.bench_with_input(BenchmarkId::new("packed", n), &n, |bench, _| {
            bench.iter(|| black_box(gemm_packed(&a, &b)))
        });
        group.bench_with_input(BenchmarkId::new("packed_parallel", n), &n, |bench, _| {
            bench.iter(|| black_box(gemm_packed_parallel(&a, &b)))
        });
        group.bench_with_input(BenchmarkId::new("auto", n), &n, |bench, _| {
            bench.iter(|| black_box(gemm_auto(&a, &b)))
        });
        group.bench_with_input(BenchmarkId::new("tensor_core_f16", n), &n, |bench, _| {
            bench.iter(|| black_box(kernels::gemm(&a, &b, GemmMode::TensorCore)))
        });
    }
    // Ring carrier at a size past the quant cutover, so the limb-split
    // kernel appears in the criterion ladder next to the packed path.
    if quant_ring_available() {
        let n = 192;
        let a = ring(n, 1);
        let b = ring(n, 2);
        group.bench_with_input(BenchmarkId::new("packed_u64", n), &n, |bench, _| {
            bench.iter(|| black_box(gemm_packed(&a, &b)))
        });
        group.bench_with_input(BenchmarkId::new("quant_u64", n), &n, |bench, _| {
            bench.iter(|| black_box(gemm_quant(&a, &b)))
        });
    }
    // Conv-derived shape: the blocked seed kernel vs the dispatcher the
    // im2col path now uses.
    let a = rect(CONV_M, CONV_K, 1);
    let b = rect(CONV_K, CONV_N, 2);
    group.bench_function("conv_im2col/blocked", |bench| {
        bench.iter(|| black_box(gemm_blocked(&a, &b)))
    });
    group.bench_function("conv_im2col/auto", |bench| {
        bench.iter(|| black_box(gemm_auto(&a, &b)))
    });
    group.finish();
}

criterion_group!(benches, bench_gemm);

/// A named GEMM kernel closure under measurement.
type NamedKernel<'a, R> = (&'static str, Box<dyn FnMut() -> Matrix<R> + 'a>);

/// One timed invocation in seconds.
fn time_once<R>(f: &mut dyn FnMut() -> Matrix<R>) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

fn gflops(n: usize, secs: f64) -> f64 {
    2.0 * (n as f64).powi(3) / secs / 1e9
}

/// `x` as a JSON float carrying `decimals` fractional digits: the document
/// records microseconds and three-digit ratios, not timer noise.
fn rounded(x: f64, decimals: i32) -> JsonValue {
    let scale = 10f64.powi(decimals);
    JsonValue::Float((x * scale).round() / scale)
}

/// Best-of-`reps` seconds per kernel with the reps *interleaved* across
/// kernels: the CI hosts are shared VMs whose throughput oscillates ~2x
/// in phases lasting seconds, so back-to-back reps of one kernel can
/// land entirely inside a slow phase. Round-robin sampling gives every
/// kernel a shot at the quiet phases.
fn best_of<R>(kernels: &mut [NamedKernel<R>], reps: usize, gap_ms: u64) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; kernels.len()];
    for rep in 0..reps {
        if rep > 0 {
            // Let a thermally/AVX-license-throttled core recover between
            // rounds so the gaps sample distinct host phases.
            std::thread::sleep(std::time::Duration::from_millis(gap_ms));
        }
        for (slot, (_, f)) in kernels.iter_mut().enumerate() {
            best[slot] = best[slot].min(time_once(f));
        }
    }
    best
}

/// Measures one element type's kernel ladder at square sizes, returning
/// a `psml.bench.gemm.v1` element entry. Panics if `gemm_auto` is the
/// slowest kernel at any size — the dispatcher exists to pick a
/// better-than-worst path, so "auto slowest" is always a cutover bug
/// (the `packed_parallel` small-size regression was exactly that).
fn element_entry<R: Num>(
    element: &str,
    sizes: &[usize],
    reps: usize,
    gap_ms: u64,
    make: &dyn Fn(usize, u64) -> Matrix<R>,
) -> JsonValue {
    let quant = R::WRAPPING_U64 && quant_ring_available();
    let pooled = psml_parallel::global_pool().workers() > 1;
    let mut size_entries = Vec::new();
    for &n in sizes {
        let a = make(n, 1);
        let b = make(n, 2);
        let mut kernels: Vec<NamedKernel<R>> = vec![
            ("blocked", Box::new(|| gemm_blocked(&a, &b))),
            ("packed", Box::new(|| gemm_packed(&a, &b))),
            ("auto", Box::new(|| gemm_auto(&a, &b))),
        ];
        if pooled {
            kernels.push(("packed_parallel", Box::new(|| gemm_packed_parallel(&a, &b))));
        }
        if quant {
            kernels.push(("quant", Box::new(|| gemm_quant(&a, &b))));
        }
        let best = best_of(&mut kernels, reps, gap_ms);
        let secs_of = |name: &str| {
            kernels
                .iter()
                .position(|(k, _)| *k == name)
                .map(|i| best[i])
        };
        let mut fields = Vec::new();
        for ((name, _), secs) in kernels.iter().zip(&best) {
            println!(
                "gemm headline {element} n={n} {name}: {secs:.4}s ({:.2} GFLOP/s)",
                gflops(n, *secs)
            );
            fields.push((
                *name,
                obj([("secs", rounded(*secs, 6)), ("gflops", rounded(gflops(n, *secs), 3))]),
            ));
        }
        let auto_secs = secs_of("auto").expect("auto always measured");
        let slowest = best.iter().cloned().fold(0.0, f64::max);
        // 10% tolerance: at sub-millisecond sizes two kernels can tie
        // within host noise even after best-of sampling.
        assert!(
            auto_secs <= slowest * 1.10,
            "gemm_auto is the slowest kernel at {element} n={n} \
             ({auto_secs:.6}s vs worst {slowest:.6}s): cutover regression"
        );
        let mut entry = vec![
            ("n", JsonValue::UInt(n as u64)),
            ("kernels", obj(fields)),
            (
                "speedup_packed_vs_blocked",
                rounded(secs_of("blocked").unwrap() / secs_of("packed").unwrap(), 3),
            ),
        ];
        if let Some(par_secs) = secs_of("packed_parallel") {
            let s = secs_of("blocked").unwrap() / par_secs;
            entry.push(("speedup_packed_parallel_vs_blocked", rounded(s, 3)));
        }
        if let Some(quant_secs) = secs_of("quant") {
            let s = secs_of("packed").unwrap() / quant_secs;
            println!("gemm headline {element} n={n} quant vs packed: {s:.2}x");
            entry.push(("speedup_quant_vs_packed", rounded(s, 3)));
        }
        size_entries.push(obj(entry));
    }
    obj([
        ("element", JsonValue::Str(element.into())),
        ("sizes", JsonValue::Array(size_entries)),
    ])
}

/// Times the seed kernel against the packed hierarchy (and the
/// limb-split quantized ring kernel, where available) and records the
/// result as a versioned JSON document at the repository root.
fn headline() {
    let smoke = std::env::var_os("PSML_SMOKE").is_some();
    let workers = psml_parallel::global_pool().workers();
    let (sizes, reps, gap_ms): (&[usize], usize, u64) = if smoke {
        (&[96, 192], 3, 50)
    } else {
        (&[256, 512, 1024], 8, 250)
    };
    let elements = [
        element_entry("f32", sizes, reps, gap_ms, &mat),
        element_entry("u64", sizes, reps, gap_ms, &ring),
    ];
    // Conv-derived (im2col) shape: tall-skinny, where the packed paths'
    // register tiling pays off without any square-size sweet spot.
    let ca = rect(CONV_M, CONV_K, 3);
    let cb = rect(CONV_K, CONV_N, 4);
    let mut conv_kernels: [NamedKernel<f32>; 2] = [
        ("blocked", Box::new(|| gemm_blocked(&ca, &cb))),
        ("auto", Box::new(|| gemm_auto(&ca, &cb))),
    ];
    let conv_best = best_of(&mut conv_kernels, if smoke { 3 } else { 8 }, 100);
    let conv_speedup = conv_best[0] / conv_best[1];
    println!(
        "gemm headline conv {CONV_M}x{CONV_K}x{CONV_N} auto vs blocked: {conv_speedup:.2}x \
         (blocked {:.4}s, auto {:.4}s)",
        conv_best[0], conv_best[1]
    );
    let json = obj([
        ("schema", JsonValue::Str("psml.bench.gemm.v1".into())),
        ("bench", JsonValue::Str("gemm".into())),
        ("host_workers", JsonValue::UInt(workers as u64)),
        ("quant_ring_available", JsonValue::Bool(quant_ring_available())),
        (
            "timing",
            JsonValue::Str(format!("best of {reps} interleaved reps per kernel")),
        ),
        (
            "conv_im2col",
            obj([
                ("m", JsonValue::UInt(CONV_M as u64)),
                ("k", JsonValue::UInt(CONV_K as u64)),
                ("n", JsonValue::UInt(CONV_N as u64)),
                ("blocked_secs", rounded(conv_best[0], 6)),
                ("auto_secs", rounded(conv_best[1], 6)),
                ("speedup_auto_vs_blocked", rounded(conv_speedup, 3)),
            ]),
        ),
        ("elements", JsonValue::Array(elements.into())),
    ]);
    // crates/bench -> repo root.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels under the repo root")
        .to_path_buf();
    let name = if smoke {
        "BENCH_gemm.smoke.json"
    } else {
        "BENCH_gemm.json"
    };
    let out = root.join(name);
    std::fs::write(&out, json.to_json() + "\n").expect("write gemm bench document");
    println!("wrote {}", out.display());
}

fn main() {
    // Headline first: minutes of sustained criterion sampling heats the
    // (shared, AVX-512-throttled) host and would depress the recorded
    // peak numbers for every kernel. PSML_HEADLINE_ONLY=1 skips the
    // criterion ladder for quick re-measurement; PSML_SMOKE=1 also
    // skips it and shrinks the headline itself.
    headline();
    if std::env::var_os("PSML_HEADLINE_ONLY").is_none()
        && std::env::var_os("PSML_SMOKE").is_none()
    {
        benches();
    }
}
