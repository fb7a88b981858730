//! The paper's Sec. 7 evaluation as data. Each table, figure and ablation
//! is one function returning its rows, its headline values and its shape
//! checks — the qualitative claims the reproduction exists to establish.
//! The `figures` binary prints them at [`FULL`] scale and fails on a
//! broken check; the root `tests/figures.rs` asserts the same checks at
//! [`REDUCED`] scale and pins every value in a golden file.

use std::collections::HashMap;
use std::fmt;

use parsecureml::prelude::*;
use parsecureml::{AdaptiveEngine, Placement};
use psml_gpu::{GemmMode, GpuDevice};

use crate::{
    evaluation_grid, geomean, mean, par_map, run_plain_training, run_secure_inference,
    run_secure_training, BATCHES, EPOCHS,
};

/// How much work one reproduction pass does.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Mini-batch of the evaluation-grid runs (the paper uses 128).
    pub batch: usize,
    /// Epochs, in place of [`EPOCHS`], for the runs where the one-time offline cost must amortize
    /// (Table 1) or delta streams must dominate the first full sends
    /// (Fig. 16, the threshold sweep).
    pub long_epochs: usize,
    /// Table 1's batch, large enough that GEMM work dominates fixed
    /// overheads.
    pub t1_batch: usize,
    /// Whether the grid keeps its CNN cells and MLP on every dataset; the
    /// CNN cells are most of the grid's cost.
    pub full_grid: bool,
    /// Largest `n` Fig. 8 executes on the simulated device (cost model
    /// beyond); the executed sweep starts there.
    pub f8_executed: usize,
    /// Largest Fig. 17 workload, in MB, executed end to end (cost model
    /// beyond).
    pub f17_executed_mb: usize,
}

/// The scale EXPERIMENTS.md reports.
pub const FULL: Scale = Scale {
    batch: 16,
    long_epochs: 4,
    t1_batch: 128,
    full_grid: true,
    f8_executed: 1024,
    f17_executed_mb: 8,
};

/// The scale the tier-1 test runs: 17 grid cells at batch 4, no CNN,
/// and every shape check still holds.
pub const REDUCED: Scale = Scale {
    batch: 4,
    long_epochs: 2,
    t1_batch: 4,
    full_grid: false,
    f8_executed: 256,
    f17_executed_mb: 1,
};

impl Scale {
    /// Whether the `(dataset, model)` workload runs at this scale.
    pub fn keeps(&self, dataset: DatasetKind, model: ModelKind) -> bool {
        self.full_grid
            || (model != ModelKind::Cnn
                && (model != ModelKind::Mlp || dataset == DatasetKind::Mnist))
    }
}

/// The engine configurations the figures compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum System {
    ParSecureMl,
    SecureMl,
    /// One client thread: Fig. 14's baseline.
    SerialClient,
    /// No compressed transmission: Fig. 16's baseline.
    Uncompressed,
    ForceCpu,
    ForceGpu,
    /// Forced GPU placement with FP32 GEMMs: Fig. 15's baseline.
    ForceGpuFp32,
}

impl System {
    fn config(self) -> EngineConfig {
        let p = EngineConfig::parsecureml();
        match self {
            System::ParSecureMl => p,
            System::SecureMl => EngineConfig::secureml(),
            System::SerialClient => p.with_client_cpu_threads(1),
            System::Uncompressed => p.with_compression(false),
            System::ForceCpu => p.with_policy(AdaptivePolicy::ForceCpu),
            System::ForceGpu => p.with_policy(AdaptivePolicy::ForceGpu),
            System::ForceGpuFp32 => p
                .with_policy(AdaptivePolicy::ForceGpu)
                .with_tensor_cores(false),
        }
    }
}

type Workload = (DatasetKind, ModelKind);
type RunKey = (System, Workload, usize, usize);

/// One reproduction pass: its scale and every secure training run made so
/// far, so a run trains once however many figures read it (the
/// ParSecureML / SecureML grid feeds eight of them).
pub struct Lab {
    scale: Scale,
    runs: HashMap<RunKey, RunReport>,
}

impl Lab {
    /// A pass at `scale` with no runs made yet.
    pub fn new(scale: Scale) -> Self {
        Lab {
            scale,
            runs: HashMap::new(),
        }
    }

    /// Each workload's runs under `systems` at `batch` and `epochs`; the
    /// runs not made yet train side by side.
    fn runs<const N: usize>(
        &mut self,
        workloads: &[Workload],
        systems: [System; N],
        batch: usize,
        epochs: usize,
    ) -> Vec<(Workload, [RunReport; N])> {
        let key = |system: System, w: Workload| (system, w, batch, epochs);
        let missing: Vec<RunKey> = workloads
            .iter()
            .flat_map(|&w| systems.map(|s| key(s, w)))
            .filter(|k| !self.runs.contains_key(k))
            .collect();
        let reports = par_map(&missing, |&(system, (d, m), batch, epochs)| {
            run_secure_training(system.config(), m, d, batch, BATCHES, epochs)
        });
        self.runs.extend(missing.into_iter().zip(reports));
        workloads
            .iter()
            .map(|&w| (w, systems.map(|s| self.runs[&key(s, w)].clone())))
            .collect()
    }

    /// [`Lab::runs`] over the grid at the grid's batch.
    fn grid_runs<const N: usize>(
        &mut self,
        systems: [System; N],
        epochs: usize,
    ) -> Vec<(Workload, [RunReport; N])> {
        let grid = self.grid();
        self.runs(&grid, systems, self.scale.batch, epochs)
    }

    /// Every grid workload's ParSecureML and SecureML runs.
    fn pairs(&mut self) -> Vec<(Workload, [RunReport; 2])> {
        self.grid_runs([System::ParSecureMl, System::SecureMl], EPOCHS)
    }

    /// The evaluation grid's workloads kept at this scale.
    fn grid(&self) -> Vec<Workload> {
        let scale = self.scale;
        evaluation_grid()
            .into_iter()
            .filter(|&(dataset, model)| scale.keeps(dataset, model))
            .collect()
    }
}

/// One value of a figure, kept as data so the binary prints it and the
/// golden test pins it from the same source.
#[derive(Clone, Debug)]
pub enum Cell {
    /// Simulated time.
    Time(SimDuration),
    /// A ratio, printed with the given number of decimals.
    Ratio(f64, usize),
    /// A fraction, printed as a percentage.
    Percent(f64),
    /// A count: bytes, or a matrix dimension.
    Count(usize),
    /// A label, such as which side won.
    Text(&'static str),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(&match self {
            Cell::Time(t) => t.to_string(),
            Cell::Ratio(x, decimals) => format!("{x:.decimals$}x"),
            Cell::Percent(x) => format!("{:.1}%", x * 100.0),
            Cell::Count(n) => n.to_string(),
            Cell::Text(s) => s.to_string(),
        })
    }
}

/// One table, figure or ablation: its rows, its headline values (each
/// named with the paper's number where the paper gives one) and its shape
/// checks.
#[derive(Clone, Debug)]
pub struct Figure {
    /// What the paper calls it.
    pub title: &'static str,
    /// The label column's header, then one per value column.
    pub columns: &'static [&'static str],
    /// Row label and values.
    pub rows: Vec<(String, Vec<Cell>)>,
    /// Headline values.
    pub summary: Vec<(String, Cell)>,
    /// Each claim and whether it held.
    pub checks: Vec<(&'static str, bool)>,
}

impl Figure {
    fn new(title: &'static str, columns: &'static [&'static str]) -> Self {
        Figure {
            title,
            columns,
            rows: Vec::new(),
            summary: Vec::new(),
            checks: Vec::new(),
        }
    }

    fn row(&mut self, label: impl Into<String>, cells: Vec<Cell>) {
        self.rows.push((label.into(), cells));
    }

    fn summary(&mut self, name: impl Into<String>, value: Cell) {
        self.summary.push((name.into(), value));
    }

    /// A `[baseline, other, baseline / other]` row; returns the speedup.
    fn speedup_row(&mut self, w: Workload, baseline: SimDuration, other: SimDuration) -> f64 {
        let s = baseline.as_secs() / other.as_secs();
        let cells = vec![Cell::Time(baseline), Cell::Time(other), Cell::Ratio(s, 1)];
        self.row(workload(w), cells);
        s
    }

    /// A `[baseline, optimized, share saved]` row; returns the share.
    fn benefit_row(&mut self, w: Workload, baseline: SimDuration, optimized: SimDuration) -> f64 {
        let saved = 1.0 - optimized.as_secs() / baseline.as_secs();
        let cells = vec![
            Cell::Time(baseline),
            Cell::Time(optimized),
            Cell::Percent(saved),
        ];
        self.row(workload(w), cells);
        saved
    }

    fn check(&mut self, claim: &'static str, holds: bool) {
        self.checks.push((claim, holds));
    }

    /// The claims that did not hold.
    pub fn failed(&self) -> Vec<&'static str> {
        self.checks
            .iter()
            .filter(|(_, holds)| !holds)
            .map(|(claim, _)| *claim)
            .collect()
    }
}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}\n", self.title)?;
        let header = self.columns[1..].iter().map(|&c| Cell::Text(c)).collect();
        let header = (self.columns[0].to_string(), header);
        for (label, cells) in std::iter::once(&header).chain(&self.rows) {
            write!(f, "{label:<24}")?;
            for cell in cells {
                write!(f, " {cell:>14}")?;
            }
            writeln!(f)?;
        }
        writeln!(f)?;
        for (name, value) in &self.summary {
            writeln!(f, "{name}: {value}")?;
        }
        for (claim, holds) in &self.checks {
            let verdict = if *holds { "passed" } else { "FAILED" };
            writeln!(f, "shape check {verdict}: {claim}")?;
        }
        Ok(())
    }
}

/// Runs one table, figure or ablation within a pass.
pub type FigureFn = fn(&mut Lab) -> Figure;

/// Every table, figure and ablation, in the paper's order, by id.
pub const FIGURES: &[(&str, FigureFn)] = &[
    ("T1", table1),
    ("F2", fig2),
    ("F7", fig7),
    ("F8", fig8),
    ("F10", fig10),
    ("F11", fig11),
    ("F12", fig12),
    ("F13", fig13),
    ("F14", fig14),
    ("F15", fig15),
    ("T2", table2),
    ("T3", table3),
    ("F16", fig16),
    ("F17", fig17),
    ("A-policy", ablation_policy),
    ("A-sparsity", ablation_sparsity),
];

const WORKLOAD: &str = "Dataset      Model";

fn workload((dataset, model): Workload) -> String {
    format!("{:<12} {}", dataset.spec().name, model.name())
}

/// Whether `xs` never decreases.
fn monotone(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[1] >= w[0])
}

/// Table 1: SecureML against the plaintext CPU implementation on MNIST,
/// both on the same untuned single-thread CPU model.
fn table1(lab: &mut Lab) -> Figure {
    let mut fig = Figure::new(
        "Table 1 — SecureML vs original (non-secure) implementation, MNIST",
        &["Method", "Original", "SecureML", "Slowdown"],
    );
    let Scale {
        t1_batch,
        long_epochs,
        ..
    } = lab.scale;
    let workloads: Vec<Workload> = [
        ModelKind::Cnn,
        ModelKind::Mlp,
        ModelKind::Linear,
        ModelKind::Logistic,
    ]
    .map(|m| (DatasetKind::Mnist, m))
    .into_iter()
    .filter(|&(d, m)| lab.scale.keeps(d, m))
    .collect();
    let originals = par_map(&workloads, |&(d, m)| {
        let cfg = EngineConfig::secureml();
        run_plain_training(cfg, m, d, PlainBackend::Cpu, t1_batch, BATCHES, long_epochs)
    });
    let secure = lab.runs(&workloads, [System::SecureMl], t1_batch, long_epochs);
    let mut ratios = Vec::new();
    for (original, ((_, model), [secure])) in originals.into_iter().zip(secure) {
        let slowdown = secure.total_time().as_secs() / original.as_secs();
        ratios.push(slowdown);
        let cells = vec![
            Cell::Time(original),
            Cell::Time(secure.total_time()),
            Cell::Ratio(slowdown, 2),
        ];
        fig.row(model.name(), cells);
    }
    let avg = geomean(&ratios);
    fig.summary("average slowdown (paper ~2x)", Cell::Ratio(avg, 2));
    fig.check(
        "security costs something on every model (slowdown > 1x)",
        ratios.iter().all(|&r| r > 1.0),
    );
    fig.check(
        "secure 2PC costs a small constant factor (geomean < 20x)",
        avg < 20.0,
    );
    fig
}

/// Fig. 2: where two-party computation spends its time (MLP on MNIST,
/// SecureML as in the paper's figure).
fn fig2(lab: &mut Lab) -> Figure {
    let mut fig = Figure::new(
        "Fig. 2 — time breakdown for two-party computation",
        &["Step", "Time"],
    );
    let [report] = lab
        .runs(
            &[(DatasetKind::Mnist, ModelKind::Mlp)],
            [System::SecureMl],
            lab.scale.batch,
            EPOCHS,
        )
        .remove(0)
        .1;
    let b = report.breakdown;
    for (step, time) in [
        ("generate shares/triples", b.share_generation),
        ("transmit to servers", b.distribution),
        ("offline (end to end)", report.offline_time),
        ("compute1 (masking)", b.compute1),
        ("communicate (E/F)", b.communicate),
        ("compute2 (C_i)", b.compute2),
        ("activation exchange", b.activation),
        ("online (end to end)", report.online_time),
    ] {
        fig.row(step, vec![Cell::Time(time)]);
    }
    fig.summary(
        "compute2 share of online work (paper ~99 %)",
        Cell::Percent(b.compute2 / b.online_serialized()),
    );
    fig.check(
        "compute2 dominates compute1 and communicate",
        b.compute2 > b.compute1 && b.compute2 > b.communicate,
    );
    fig
}

/// Fig. 7: cuRAND on the GPU (with generator setup and the copy back)
/// against MT19937 on the CPU for an `n x n` random matrix.
fn fig7(_: &mut Lab) -> Figure {
    let mut fig = Figure::new(
        "Fig. 7 — cuRAND (GPU) vs MT19937 (CPU) random generation",
        &["dim n", "MT19937 CPU", "cuRAND GPU", "winner"],
    );
    let machine = MachineConfig::v100_node();
    let mut crossover = None;
    let mut gpu_at_256 = None;
    for shift in 6..=14 {
        let n = 1usize << shift;
        let cpu = machine.cpu.rng_time(n * n, 1);
        let gpu = machine.gpu.rng_time(n * n) + machine.gpu.pcie.transfer_time(n * n * 4);
        if gpu < cpu && crossover.is_none() {
            crossover = Some(n);
        }
        if n == 256 {
            gpu_at_256 = Some(gpu);
        }
        let winner = if gpu < cpu { "GPU" } else { "CPU" };
        fig.row(
            n.to_string(),
            vec![Cell::Time(cpu), Cell::Time(gpu), Cell::Text(winner)],
        );
    }
    let mut dev = GpuDevice::<f32>::new(machine.gpu.clone());
    let h = dev.random(256, 256, SimTime::ZERO).expect("device rng");
    let done = dev.download(h).expect("d2h");
    fig.summary(
        "crossover n (paper ~10^3)",
        Cell::Count(crossover.unwrap_or(0)),
    );
    fig.check(
        "the executed device draw + copy back finishes at the n = 256 GPU time",
        gpu_at_256 == Some(done.saturating_since(SimTime::ZERO)),
    );
    fig.check(
        "CPU wins small, GPU wins large (crossover in 256..=4096)",
        crossover.is_some_and(|n| (256..=4096).contains(&n)),
    );
    fig
}

/// Fig. 8: GEMM share of GPU activity (h2d + gemm + d2h), executed on the
/// simulated device up to [`Scale::f8_executed`], cost model beyond.
fn fig8(lab: &mut Lab) -> Figure {
    let mut fig = Figure::new(
        "Fig. 8 — GEMM share of total GPU activity (h2d + gemm + d2h)",
        &["dim n", "GEMM time", "GEMM %"],
    );
    let machine = MachineConfig::v100_node();
    let mut shares = Vec::new();
    for shift in lab.scale.f8_executed.ilog2()..=14 {
        let n = 1usize << shift;
        let share = if n <= lab.scale.f8_executed {
            let mut dev = GpuDevice::<f32>::new(machine.gpu.clone());
            let a = Matrix::from_fn(n, n, |r, c| ((r + c) % 7) as f32);
            let b = Matrix::from_fn(n, n, |r, c| ((r * 3 + c) % 5) as f32);
            let ha = dev.upload(&a, SimTime::ZERO).expect("h2d");
            let hb = dev.upload(&b, SimTime::ZERO).expect("h2d");
            let hc = dev.gemm(ha, hb, GemmMode::Fp32).expect("gemm");
            dev.download(hc).expect("d2h");
            dev.profile().fraction_matching("gemm")
        } else {
            let gemm = machine.gpu.gemm_time(n, n, n, false);
            let io = machine.gpu.pcie.transfer_time(n * n * 4) * 3.0;
            gemm / (gemm + io)
        };
        // Below the paper's range launch latency, not size, sets the share.
        if n >= 1024 {
            shares.push(share);
        }
        let gemm = machine.gpu.gemm_time(n, n, n, false);
        fig.row(n.to_string(), vec![Cell::Time(gemm), Cell::Percent(share)]);
    }
    fig.check("GEMM share grows with n from 1024 up", monotone(&shares));
    fig.check(
        "GEMM is > 50 % of GPU time at n = 16384",
        shares.last().is_some_and(|&s| s > 0.5),
    );
    fig
}

/// Fig. 10: overall speedup over SecureML per grid workload.
fn fig10(lab: &mut Lab) -> Figure {
    let mut fig = Figure::new(
        "Fig. 10 — overall ParSecureML speedup over SecureML (training)",
        &[WORKLOAD, "SecureML", "ParSecureML", "Speedup"],
    );
    let (mut all, mut mnist, mut large) = (Vec::new(), Vec::new(), Vec::new());
    for (w, [fast, slow]) in lab.pairs() {
        let s = fig.speedup_row(w, slow.total_time(), fast.total_time());
        all.push(s);
        match w.0 {
            DatasetKind::Mnist => mnist.push(s),
            DatasetKind::Nist | DatasetKind::VggFace2 => large.push(s),
            _ => {}
        }
    }
    let (all, mnist, large) = (geomean(&all), geomean(&mnist), geomean(&large));
    fig.summary("average overall speedup (paper 33.8x)", Cell::Ratio(all, 1));
    fig.summary("large datasets (VGGFace2, NIST)", Cell::Ratio(large, 1));
    fig.summary("MNIST", Cell::Ratio(mnist, 1));
    fig.check("tens-of-x average speedup (> 5x)", all > 5.0);
    fig.check("larger datasets gain more than MNIST", large > mnist);
    fig
}

/// Fig. 11: online-phase speedup.
fn fig11(lab: &mut Lab) -> Figure {
    let mut fig = Figure::new(
        "Fig. 11 — online ParSecureML speedup over SecureML (training)",
        &[WORKLOAD, "SecureML", "ParSecureML", "Speedup"],
    );
    let (mut online, mut overall) = (Vec::new(), Vec::new());
    for (w, [fast, slow]) in lab.pairs() {
        online.push(fig.speedup_row(w, slow.online_time, fast.online_time));
        overall.push(fast.speedup_over(&slow));
    }
    let (online, overall) = (geomean(&online), geomean(&overall));
    fig.summary(
        "average online speedup (paper 64.5x)",
        Cell::Ratio(online, 1),
    );
    fig.summary("average overall speedup", Cell::Ratio(overall, 1));
    fig.check("online speedup exceeds overall speedup", online > overall);
    fig
}

/// Fig. 12: offline-phase speedup (client share/triple generation and
/// distribution).
fn fig12(lab: &mut Lab) -> Figure {
    let mut fig = Figure::new(
        "Fig. 12 — offline ParSecureML speedup over SecureML (training)",
        &[WORKLOAD, "SecureML", "ParSecureML", "Speedup"],
    );
    let (mut offline, mut online) = (Vec::new(), Vec::new());
    for (w, [fast, slow]) in lab.pairs() {
        offline.push(fig.speedup_row(w, slow.offline_time, fast.offline_time));
        online.push(fast.online_speedup_over(&slow));
    }
    let spread = offline.iter().cloned().fold(f64::MIN, f64::max)
        / offline.iter().cloned().fold(f64::MAX, f64::min);
    let (offline, online) = (geomean(&offline), geomean(&online));
    fig.summary(
        "average offline speedup (paper ~1.3x)",
        Cell::Ratio(offline, 1),
    );
    fig.summary("max/min spread across workloads", Cell::Ratio(spread, 1));
    fig.check(
        "offline speedup is far below online (< half)",
        offline < online / 2.0,
    );
    fig
}

/// Fig. 13: secure-inference (forward passes only) speedup; linear
/// regression stands in for SVM, whose inference math is identical.
fn fig13(lab: &mut Lab) -> Figure {
    let mut fig = Figure::new(
        "Fig. 13 — secure inference speedup (forward passes only)",
        &[WORKLOAD, "SecureML", "ParSecureML", "Speedup"],
    );
    let grid: Vec<Workload> = lab
        .grid()
        .into_iter()
        .filter(|&(_, m)| m != ModelKind::Svm)
        .collect();
    let batch = lab.scale.batch;
    let times = par_map(&grid, |&(d, m)| {
        [EngineConfig::secureml(), EngineConfig::parsecureml()]
            .map(|cfg| run_secure_inference(cfg, m, d, batch, 2).total_time())
    });
    let mut speedups = Vec::new();
    for (w, [slow, fast]) in grid.into_iter().zip(times) {
        speedups.push(fig.speedup_row(w, slow, fast));
    }
    let avg = geomean(&speedups);
    fig.summary(
        "average inference speedup (paper 31.7x)",
        Cell::Ratio(avg, 1),
    );
    fig.check("large inference speedup (> 5x)", avg > 5.0);
    fig
}

/// Fig. 14: Sec. 5.1's client-side CPU parallelism (RNG + add/sub) on vs
/// off. Larger than the paper's 10.71 % because this client's offline is
/// RNG-bound where the reference client was I/O-bound (EXPERIMENTS.md).
fn fig14(lab: &mut Lab) -> Figure {
    let mut fig = Figure::new(
        "Fig. 14 — CPU-parallelism optimization benefit",
        &[WORKLOAD, "serial CPU", "parallel CPU", "Benefit"],
    );
    let mut benefits = Vec::new();
    for (w, [parallel, serial]) in
        lab.grid_runs([System::ParSecureMl, System::SerialClient], EPOCHS)
    {
        benefits.push(fig.benefit_row(w, serial.total_time(), parallel.total_time()));
    }
    let avg = mean(&benefits);
    fig.summary(
        "average CPU-parallelism benefit (paper 10.71 %)",
        Cell::Percent(avg),
    );
    fig.check("parallel CPU helps on average", avg > 0.0);
    fig
}

/// Fig. 15: Tensor-Core GEMMs against FP32 GEMMs, GPU placement forced so
/// the choice is exercised at harness scale. There the GPU time is
/// transfer- and launch-bound (Fig. 8), so the benefit is also shown at
/// paper-scale GEMMs through the same cost model.
fn fig15(lab: &mut Lab) -> Figure {
    let mut fig = Figure::new(
        "Fig. 15 — Tensor-Core optimization benefit",
        &[WORKLOAD, "FP32 GEMM", "Tensor Cores", "Benefit"],
    );
    let mut benefits = Vec::new();
    for (w, [tc, fp32]) in lab.grid_runs([System::ForceGpu, System::ForceGpuFp32], EPOCHS) {
        benefits.push(fig.benefit_row(w, fp32.total_time(), tc.total_time()));
    }
    let avg = mean(&benefits);
    fig.summary(
        "average Tensor-Core benefit (paper 3.11 %)",
        Cell::Percent(avg),
    );
    let (tc_cfg, fp32_cfg) = (System::ForceGpu.config(), System::ForceGpuFp32.config());
    let mut gains = Vec::new();
    for n in [512usize, 2048, 8192] {
        let bytes = 6 * n * n * 8;
        let t_tc = AdaptiveEngine::gpu_cost(&tc_cfg, n, 2 * n, n, bytes);
        let t_fp = AdaptiveEngine::gpu_cost(&fp32_cfg, n, 2 * n, n, bytes);
        let gain = 1.0 - t_tc.as_secs() / t_fp.as_secs();
        fig.summary(
            format!("benefit of one secure mul at n = {n} (cost model)"),
            Cell::Percent(gain),
        );
        gains.push(gain);
    }
    fig.check("Tensor Cores do not hurt on average", avg >= 0.0);
    fig.check("the benefit grows with the GEMM share", monotone(&gains));
    fig
}

/// Table 2: slowdown of both secure systems against plain GPU training
/// (weights resident on the device).
fn table2(lab: &mut Lab) -> Figure {
    let mut fig = Figure::new(
        "Table 2 — slowdown vs non-secure GPU machine learning",
        &[WORKLOAD, "GPU", "SecureML", "ParSecureML"],
    );
    let batch = lab.scale.batch;
    let gpu = par_map(&lab.grid(), |&(d, m)| {
        let cfg = EngineConfig::parsecureml();
        run_plain_training(cfg, m, d, PlainBackend::Gpu, batch, BATCHES, EPOCHS)
    });
    let (mut slow_ratios, mut fast_ratios) = (Vec::new(), Vec::new());
    for (gpu, (w, [fast, slow])) in gpu.into_iter().zip(lab.pairs()) {
        let rs = slow.total_time().as_secs() / gpu.as_secs();
        let rf = fast.total_time().as_secs() / gpu.as_secs();
        fig.row(
            workload(w),
            vec![Cell::Time(gpu), Cell::Ratio(rs, 1), Cell::Ratio(rf, 1)],
        );
        slow_ratios.push(rs);
        fast_ratios.push(rf);
    }
    let (slow, fast) = (geomean(&slow_ratios), geomean(&fast_ratios));
    fig.summary(
        "average SecureML slowdown (paper 249.34x)",
        Cell::Ratio(slow, 1),
    );
    fig.summary(
        "average ParSecureML slowdown (paper 10.98x)",
        Cell::Ratio(fast, 1),
    );
    fig.check(
        "ParSecureML closes most of the gap (> 3x less slowdown)",
        fast * 3.0 < slow,
    );
    fig
}

/// Table 3: online / total time and occupancy (online share) per system.
fn table3(lab: &mut Lab) -> Figure {
    let mut fig = Figure::new(
        "Table 3 — online/total breakdown and occupancy",
        &[
            WORKLOAD,
            "SML online",
            "SML total",
            "SML occ",
            "PSML online",
            "PSML total",
            "PSML occ",
        ],
    );
    let (mut slow_occ, mut fast_occ) = (Vec::new(), Vec::new());
    for (w, [fast, slow]) in lab.pairs() {
        let mut cells = Vec::new();
        for r in [&slow, &fast] {
            cells.extend([
                Cell::Time(r.online_time),
                Cell::Time(r.total_time()),
                Cell::Percent(r.occupancy()),
            ]);
        }
        fig.row(workload(w), cells);
        slow_occ.push(slow.occupancy());
        fast_occ.push(fast.occupancy());
    }
    let (slow, fast) = (mean(&slow_occ), mean(&fast_occ));
    fig.summary(
        "average SecureML occupancy (paper > 90 %)",
        Cell::Percent(slow),
    );
    fig.summary(
        "average ParSecureML occupancy (paper 54.2 %)",
        Cell::Percent(fast),
    );
    fig.check("acceleration lowers the online share", fast < slow);
    fig
}

/// Fig. 16: server-to-server traffic saved by delta+CSR compressed
/// transmission, epoch training over fixed shares.
fn fig16(lab: &mut Lab) -> Figure {
    let mut fig = Figure::new(
        "Fig. 16 — communication saved by delta+CSR compressed transmission",
        &[WORKLOAD, "uncompressed", "compressed", "Saved"],
    );
    let mut savings = Vec::new();
    for (w, [on, off]) in lab.grid_runs(
        [System::ParSecureMl, System::Uncompressed],
        lab.scale.long_epochs,
    ) {
        let on = on.traffic.server_to_server_wire_bytes();
        let off = off.traffic.server_to_server_wire_bytes();
        let saved = 1.0 - on as f64 / off as f64;
        fig.row(
            workload(w),
            vec![Cell::Count(off), Cell::Count(on), Cell::Percent(saved)],
        );
        savings.push(saved);
    }
    let avg = mean(&savings);
    fig.summary(
        "average communication saved (paper 22.9 %)",
        Cell::Percent(avg),
    );
    fig.check("delta+CSR clearly reduces traffic (> 5 %)", avg > 0.05);
    fig
}

/// Fig. 17: speedup against workload size for one square secure GEMM;
/// executed end to end up to [`Scale::f17_executed_mb`], the same cost
/// model beyond (a 4 GB secure GEMM cannot be materialized).
fn fig17(lab: &mut Lab) -> Figure {
    let mut fig = Figure::new(
        "Fig. 17 — speedup vs workload size (SYNTHETIC-style GEMM)",
        &[
            "size",
            "dim n",
            "SecureML",
            "ParSecureML",
            "Speedup",
            "mode",
        ],
    );
    let systems = [EngineConfig::secureml(), EngineConfig::parsecureml()];
    let mut speedups = Vec::new();
    for mb in [1usize, 4, 8, 64, 512, 4096] {
        // Square dimension making one u64 operand `mb` megabytes.
        let n = (((mb << 20) / 8) as f64).sqrt() as usize;
        let executed = mb <= lab.scale.f17_executed_mb;
        let times = par_map(&systems, |cfg| {
            if executed {
                let mut ctx = SecureContext::<Fixed64>::new(cfg.clone(), 7);
                let a = PlainMatrix::from_fn(n, n, |r, c| ((r + c) % 5) as f64 * 0.1);
                let b = PlainMatrix::from_fn(n, n, |r, c| ((r * 3 + c) % 7) as f64 * 0.1);
                ctx.secure_matmul_plain(&a, &b).expect("secure matmul");
                return ctx.report().total_time();
            }
            // compute2 GEMM, placed as the engine would place it, +
            // masking + communication + the offline triple.
            let bytes = 6 * n * n * 8;
            let gemm = match AdaptiveEngine::new(cfg.policy).place(cfg, n, 2 * n, n, bytes) {
                Placement::Cpu => AdaptiveEngine::cpu_cost(cfg, n, 2 * n, n),
                Placement::Gpu => AdaptiveEngine::gpu_cost(cfg, n, 2 * n, n, bytes),
            };
            let masking = cfg
                .machine
                .cpu
                .elementwise_time(6 * n * n * 8, cfg.cpu_threads);
            let comm = cfg.machine.network.transfer_time(2 * n * n * 8);
            gemm + masking + comm + cfg.cpu_gemm_time(n, n, n)
        });
        let (slow, fast) = (times[0], times[1]);
        let speedup = slow.as_secs() / fast.as_secs();
        let size = if mb >= 1024 {
            format!("{} GB", mb / 1024)
        } else {
            format!("{mb} MB")
        };
        let mode = if executed { "executed" } else { "modeled" };
        fig.row(
            size,
            vec![
                Cell::Count(n),
                Cell::Time(slow),
                Cell::Time(fast),
                Cell::Ratio(speedup, 1),
                Cell::Text(mode),
            ],
        );
        speedups.push(speedup);
    }
    fig.check(
        "speedup grows monotonically with workload size",
        monotone(&speedups),
    );
    fig
}

/// Ablation: Sec. 4.2's profiling-guided placement against forcing every
/// product onto one device, by online time.
fn ablation_policy(lab: &mut Lab) -> Figure {
    let mut fig = Figure::new(
        "Ablation — adaptive placement vs ForceCpu / ForceGpu (online time)",
        &[WORKLOAD, "ForceCpu", "ForceGpu", "Auto", "best?"],
    );
    let workloads: Vec<Workload> = [
        (DatasetKind::Mnist, ModelKind::Linear),
        (DatasetKind::Mnist, ModelKind::Mlp),
        (DatasetKind::Nist, ModelKind::Mlp),
        (DatasetKind::Nist, ModelKind::Cnn),
        (DatasetKind::Synthetic, ModelKind::Rnn),
        (DatasetKind::VggFace2, ModelKind::Logistic),
    ]
    .into_iter()
    .filter(|&(d, m)| lab.scale.keeps(d, m))
    .collect();
    let systems = [System::ForceCpu, System::ForceGpu, System::ParSecureMl];
    let mut all_ok = true;
    for (w, runs) in lab.runs(&workloads, systems, lab.scale.batch, EPOCHS) {
        let [cpu, gpu, auto] = runs.map(|r| r.online_time);
        let ok = auto.as_secs() <= cpu.min(gpu).as_secs() * 1.05;
        all_ok &= ok;
        let verdict = Cell::Text(if ok { "yes" } else { "NO" });
        fig.row(
            workload(w),
            vec![Cell::Time(cpu), Cell::Time(gpu), Cell::Time(auto), verdict],
        );
    }
    fig.check(
        "Auto is within 5 % of the better forced policy on every workload",
        all_ok,
    );
    fig
}

/// Ablation: the CSR zero-fraction threshold (the paper fixes 75 %), MLP
/// over fixed shares, against dense-only transmission. SYNTHETIC's MLP
/// where the scale keeps it, else MNIST's.
fn ablation_sparsity(lab: &mut Lab) -> Figure {
    let mut fig = Figure::new(
        "Ablation — compression sparsity threshold sweep (MLP)",
        &["threshold", "srv<->srv bytes", "vs dense"],
    );
    let epochs = lab.scale.long_epochs;
    let dataset = if lab.scale.keeps(DatasetKind::Synthetic, ModelKind::Mlp) {
        DatasetKind::Synthetic
    } else {
        DatasetKind::Mnist
    };
    let thresholds = [0.95, 0.75, 0.5, 0.25, 0.0];
    let runs: Vec<Option<f64>> = std::iter::once(None).chain(thresholds.map(Some)).collect();
    let sent = par_map(&runs, |&threshold| {
        let mut cfg = EngineConfig::parsecureml().with_compression(threshold.is_some());
        cfg.sparsity_threshold = threshold.unwrap_or(cfg.sparsity_threshold);
        run_secure_training(cfg, ModelKind::Mlp, dataset, 8, BATCHES, epochs)
            .traffic
            .server_to_server_wire_bytes()
    });
    let dense = sent[0];
    for (threshold, &bytes) in thresholds.iter().zip(&sent[1..]) {
        let vs_dense = Cell::Percent(1.0 - bytes as f64 / dense as f64);
        fig.row(
            format!("{threshold:.2}"),
            vec![Cell::Count(bytes), vs_dense],
        );
    }
    fig.summary("dataset", Cell::Text(dataset.spec().name));
    let default = EngineConfig::parsecureml().sparsity_threshold;
    fig.summary(
        "ParSecureML's threshold (paper 75 %)",
        Cell::Percent(default),
    );
    fig.summary("dense-only reference bytes", Cell::Count(dense));
    // Lowering the threshold can only compress more: the policy still
    // refuses CSR when it would be larger than dense.
    fig.check(
        "traffic never grows as the threshold drops, nor above dense-only",
        sent.windows(2).all(|w| w[1] <= w[0]),
    );
    fig
}
