//! One trial: one workload in this process, from load generation to the
//! result record. `run` starts each trial as a child process; the driver's
//! contract command is a single trial.

use crate::metrics::{value_unit, PER_LAYER};
use crate::profile::OpProfile;
use crate::replay::{fixed_costs, Layers, Replay};
use crate::spans::Spans;
use crate::stats::{median, percentile, tail_percentile};
use crate::workload::{
    out_dir, Ledger, Sample, ServeFleet, TcpSession, TrainCnn, TrainMlp, Workload,
};
use parsecureml::TraceSink;
use psml_trace::json::{obj, JsonValue};
use std::time::Instant;

pub struct TrialArgs {
    pub workload: String,
    pub seed: u32,
    /// Keep sampling until this much time has been measured (and the
    /// workload's minimum sample count is reached).
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Everything one trial measured.
pub struct Trial {
    pub workload: String,
    pub seed: u32,
    pub setup_s: f64,
    pub setup_reps: usize,
    /// Wall milliseconds per op, one entry per timed sample.
    pub op_ms: Vec<f64>,
    /// Wall seconds of the timed section (the sum of its samples).
    pub timed_s: f64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub ledger: Ledger,
    pub peak_rss_mb: f64,
    pub digest: u64,
    pub checks: Vec<(String, bool)>,
    /// Per-layer values, traced trials only.
    pub layers: Option<Layers>,
}

pub fn run(args: &TrialArgs) -> Result<Trial, String> {
    match args.workload.as_str() {
        "train_mlp_fresh" => Ok(trial::<TrainMlp>(args)),
        "train_cnn_reuse" => Ok(trial::<TrainCnn>(args)),
        "serve_fleet_small" => Ok(trial::<ServeFleet>(args)),
        "tcp_session_mlp" => Ok(trial::<TcpSession>(args)),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// Set-up is repeated so one run reports a median: at least three times,
/// then until two seconds are spent, at most fifteen times.
fn enough_setups(reps: usize, spent_s: f64, smoke: bool) -> bool {
    smoke || (reps >= 3 && (spent_s >= 2.0 || reps >= 15))
}

fn trial<W: Workload>(args: &TrialArgs) -> Trial {
    let (load, gen_ms) = W::generate(args.seed, args.smoke);
    let mut spans = Spans::new();

    let mut setups = Vec::new();
    let mut w = loop {
        let (w, ms) = spans.timed("setup", None, setups.len() as u64, || W::setup(&load));
        setups.push(ms / 1e3);
        if enough_setups(setups.len(), setups.iter().sum(), args.smoke) {
            break w;
        }
        drop(w);
    };

    // The timed section is the sum of its samples; report reads, load
    // generation and output checks sit between the brackets.
    let window = W::min_samples(&load);
    let mut samples: Vec<Sample> = Vec::new();
    let mut finish = None;
    let mut timed_s = 0.0;
    while samples.len() < window || timed_s < args.seconds {
        let id = spans.open("op", None, samples.len() as u64);
        let s = w.sample(&load, samples.len());
        spans.close(id);
        timed_s += s.wall_s;
        samples.push(s);
        if samples.len() == window {
            finish = Some(w.finish(&load, &samples));
        }
    }
    let finish = finish.expect("the window closes inside the loop");

    let op_ms: Vec<f64> = samples
        .iter()
        .map(|s| s.wall_s * 1e3 / s.ops as f64)
        .collect();
    let mut checks: Vec<(String, bool)> = finish
        .checks
        .iter()
        .map(|&(n, ok)| (n.to_string(), ok))
        .collect();
    let layers = args.trace.then(|| {
        let (mut layers, extra_checks) = traced::<W>(&mut w, &load, args, &op_ms, &mut spans);
        layers.insert("datasets.gen_ms_per_batch", gen_ms);
        checks.extend(extra_checks.into_iter().map(|(n, ok)| (n.to_string(), ok)));
        layers
    });

    let ops_attempted: u64 = samples.iter().map(|s| s.ops).sum();
    let ops_failed = if checks.iter().all(|c| c.1) {
        samples.iter().map(|s| s.failed).sum()
    } else {
        ops_attempted
    };
    let mut trial = Trial {
        workload: args.workload.clone(),
        seed: args.seed,
        setup_s: median(&setups),
        setup_reps: setups.len(),
        op_ms,
        timed_s,
        ops_attempted,
        ops_failed,
        ledger: finish.ledger,
        peak_rss_mb: peak_rss_mb(),
        digest: finish.digest,
        checks,
        layers,
    };
    if let Some(layers) = &mut trial.layers {
        layers.insert("sim_offline_s_per_op", trial.ledger.sim_offline_s_per_op);
        let failed_ratio = trial.ops_failed as f64 / trial.ops_attempted.max(1) as f64;
        layers.insert("ops_failed_ratio", failed_ratio);
        let path = out_dir().join(format!("trace.{}.json", args.workload));
        if let Err(e) = write_file(&path, &spans.chrome_trace().to_json()) {
            eprintln!("e2e: could not write {}: {e}", path.display());
        }
    }
    trial
}

/// The traced part of a trial: the program's own trace of one op gives the
/// op's profile, the layers are replayed against it, and the workload adds
/// what only it can measure.
fn traced<W: Workload>(
    w: &mut W,
    load: &W::Load,
    args: &TrialArgs,
    op_ms: &[f64],
    spans: &mut Spans,
) -> (Layers, Vec<(&'static str, bool)>) {
    let mut out = Layers::new();
    let p50 = median(op_ms);
    fixed_costs(spans, &mut out);

    // The same bare op with the program's tracing off and on, alternating
    // so that host drift lands on both; the last traced op's events are
    // the op's profile.
    let reps = if args.smoke { 1 } else { 3 };
    w.bare_op(load);
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for i in 0..reps as u64 {
        off.push(
            spans
                .timed("bare_op[trace off]", None, i, || w.bare_op(load))
                .1,
        );
        TraceSink::clear();
        TraceSink::enable();
        on.push(
            spans
                .timed("bare_op[trace on]", None, i, || w.bare_op(load))
                .1,
        );
        TraceSink::disable();
    }
    let events = TraceSink::drain();
    let cfg = w.engine_cfg();
    let profile = OpProfile::from_events(&events, cfg.prefetch);
    out.insert("trace.sink.events_per_op", profile.events as f64);
    out.insert(
        "trace.sink.enabled_overhead_pct",
        (median(&on) / median(&off) - 1.0) * 100.0,
    );

    Replay {
        profile: &profile,
        cfg: &cfg,
        passes: if args.smoke { 1 } else { W::REPLAY_PASSES },
        op_ms: p50,
        seed: args.seed,
    }
    .run(spans, &mut out);

    tail_layers(op_ms, &mut out);
    let checks = w.traced_extras(load, p50, spans, &mut out);
    (out, checks)
}

/// Sample count, the highest percentile the count supports, and the wall
/// time per op at it.
pub fn tail_layers(op_ms: &[f64], out: &mut Layers) {
    let mut sorted = op_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail = tail_percentile(sorted.len());
    out.insert("core.trainer.samples", sorted.len() as f64);
    out.insert("core.trainer.tail_pct", tail);
    out.insert("core.trainer.op_wall_ms_tail", percentile(&sorted, tail));
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn write_file(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

impl Trial {
    /// The ten end-to-end values of this trial, by metric name.
    pub fn end_to_end(&self, name: &str) -> Option<f64> {
        let l = &self.ledger;
        Some(match name {
            "setup_s" => self.setup_s,
            "wall_ops_per_s" => self.ops_attempted as f64 / self.timed_s,
            "wall_ms_per_op_p50" => median(&self.op_ms),
            "sim_s_per_op" => l.sim_s_per_op,
            "sim_offline_s_per_op" => l.sim_offline_s_per_op,
            "sim_online_s_per_op" => l.sim_online_s_per_op,
            "sim_op_latency_p99_ms" => l.sim_op_latency_p99_ms,
            "wire_bytes_per_op" => l.wire_bytes_per_op,
            "peak_rss_mb" => self.peak_rss_mb,
            "ops_failed_ratio" => self.ops_failed as f64 / self.ops_attempted.max(1) as f64,
            _ => return None,
        })
    }

    /// The one-line result the driver reads: the metrics `BENCHMARK.json`
    /// declares for this kind of run, as `{"value", "unit"}` records.
    pub fn contract_line(&self, declared: &[(String, String)]) -> Result<JsonValue, String> {
        let mut metrics = Vec::new();
        for (name, unit) in declared {
            let value = match &self.layers {
                Some(layers) if PER_LAYER.iter().any(|m| m.0 == name) => {
                    Some(layers.get(name.as_str()).copied().unwrap_or(0.0))
                }
                Some(_) => None,
                None => self.end_to_end(name),
            };
            let value = value.ok_or_else(|| {
                format!("BENCHMARK.json declares '{name}', which this benchmark does not measure")
            })?;
            metrics.push((name.clone(), value_unit(value, unit)));
        }
        Ok(obj([
            ("correct", JsonValue::Bool(self.ops_failed == 0)),
            ("attempted", JsonValue::UInt(self.ops_attempted)),
            ("failed", JsonValue::UInt(self.ops_failed)),
            ("metrics", JsonValue::Object(metrics)),
        ]))
    }

    /// The full record `run` collects from each child.
    pub fn to_json(&self) -> JsonValue {
        let l = &self.ledger;
        let floats =
            |xs: &[f64]| JsonValue::Array(xs.iter().map(|&x| JsonValue::Float(x)).collect());
        obj([
            ("workload", JsonValue::Str(self.workload.clone())),
            ("seed", JsonValue::UInt(self.seed as u64)),
            ("setup_s", JsonValue::Float(self.setup_s)),
            ("setup_reps", JsonValue::UInt(self.setup_reps as u64)),
            ("op_ms", floats(&self.op_ms)),
            ("timed_s", JsonValue::Float(self.timed_s)),
            ("ops_attempted", JsonValue::UInt(self.ops_attempted)),
            ("ops_failed", JsonValue::UInt(self.ops_failed)),
            (
                "ledger",
                floats(&[
                    l.sim_s_per_op,
                    l.sim_offline_s_per_op,
                    l.sim_online_s_per_op,
                    l.sim_op_latency_p99_ms,
                    l.wire_bytes_per_op,
                ]),
            ),
            ("peak_rss_mb", JsonValue::Float(self.peak_rss_mb)),
            ("digest", JsonValue::Str(format!("{:016x}", self.digest))),
            (
                "checks",
                JsonValue::Object(
                    self.checks
                        .iter()
                        .map(|(n, ok)| (n.clone(), JsonValue::Bool(*ok)))
                        .collect(),
                ),
            ),
            (
                "layers",
                match &self.layers {
                    Some(layers) => JsonValue::Object(
                        layers
                            .iter()
                            .map(|(n, v)| (n.to_string(), JsonValue::Float(*v)))
                            .collect(),
                    ),
                    None => JsonValue::Null,
                },
            ),
        ])
    }

    pub fn from_json(v: &JsonValue) -> Result<Trial, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("trial record lacks '{k}'"));
        let num = |k: &str| {
            field(k)?
                .as_f64()
                .ok_or_else(|| format!("'{k}' is not a number"))
        };
        let floats = |k: &str| -> Result<Vec<f64>, String> {
            let items = field(k)?
                .as_array()
                .ok_or_else(|| format!("'{k}' is not an array"))?;
            items
                .iter()
                .map(|x| {
                    x.as_f64()
                        .ok_or_else(|| format!("'{k}' holds a non-number"))
                })
                .collect()
        };
        let ledger = floats("ledger")?;
        let [sim_s_per_op, sim_offline_s_per_op, sim_online_s_per_op, sim_op_latency_p99_ms, wire_bytes_per_op] =
            ledger[..]
        else {
            return Err("'ledger' must hold five numbers".into());
        };
        let pairs = |k: &str| match field(k)? {
            JsonValue::Object(pairs) => Ok(pairs.clone()),
            _ => Err(format!("'{k}' is not an object")),
        };
        let layers = match field("layers")? {
            JsonValue::Null => None,
            _ => {
                let mut layers = Layers::new();
                for (name, value) in pairs("layers")? {
                    let known = PER_LAYER
                        .iter()
                        .find(|m| m.0 == name)
                        .ok_or_else(|| format!("unknown layer metric '{name}'"))?;
                    layers.insert(
                        known.0,
                        value
                            .as_f64()
                            .ok_or_else(|| format!("'{name}' is not a number"))?,
                    );
                }
                Some(layers)
            }
        };
        Ok(Trial {
            workload: field("workload")?
                .as_str()
                .ok_or("'workload' is not a string")?
                .to_string(),
            seed: num("seed")? as u32,
            setup_s: num("setup_s")?,
            setup_reps: num("setup_reps")? as usize,
            op_ms: floats("op_ms")?,
            timed_s: num("timed_s")?,
            ops_attempted: num("ops_attempted")? as u64,
            ops_failed: num("ops_failed")? as u64,
            ledger: Ledger {
                sim_s_per_op,
                sim_offline_s_per_op,
                sim_online_s_per_op,
                sim_op_latency_p99_ms,
                wire_bytes_per_op,
            },
            peak_rss_mb: num("peak_rss_mb")?,
            digest: u64::from_str_radix(
                field("digest")?
                    .as_str()
                    .ok_or("'digest' is not a string")?,
                16,
            )
            .map_err(|e| e.to_string())?,
            checks: pairs("checks")?
                .into_iter()
                .map(|(n, ok)| (n, ok == JsonValue::Bool(true)))
                .collect(),
            layers,
        })
    }
}

/// Runs one trial and prints its contract line; used by both the driver's
/// command and `run`'s children (which also ask for the full record).
pub fn main(
    args: &TrialArgs,
    declared: &[(String, String)],
    detail: Option<&std::path::Path>,
) -> Result<(), String> {
    let started = Instant::now();
    let trial = run(args)?;
    for (name, ok) in &trial.checks {
        eprintln!(
            "e2e: {} check {name}: {}",
            args.workload,
            if *ok { "ok" } else { "FAILED" }
        );
    }
    eprintln!(
        "e2e: {} seed {} trace {}: {} ops, {} failed, {} set-ups, {:.1} s",
        args.workload,
        args.seed,
        u8::from(args.trace),
        trial.ops_attempted,
        trial.ops_failed,
        trial.setup_reps,
        started.elapsed().as_secs_f64()
    );
    if let Some(path) = detail {
        write_file(path, &trial.to_json().to_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{}", trial.contract_line(declared)?);
    Ok(())
}
