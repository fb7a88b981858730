//! `psml` — command-line front end for ParSecureML-rs.
//!
//! ```text
//! psml train  --model mlp --dataset mnist [--batch 32] [--batches 4]
//!             [--epochs 2] [--secureml] [--no-pipeline] [--no-compression]
//!             [--client-aided] [--seed 42]
//! psml infer  --model cnn --dataset cifar10 [--batch 16] [--batches 2]
//! psml serve  --models mlp,logistic --dataset synthetic [--fleet 512]
//!             [--requests 1024] [--window-us 200] [--max-batch 16]
//!             [--queue 1024] [--sequential] [--json serve.json]
//!                                  # multi-tenant serving: a simulated
//!                                  # client fleet against hosted models,
//!                                  # cross-request micro-batching, p50/95/99
//! psml bench  --model linear --dataset synthetic    # ParSecureML vs SecureML
//! psml trace  --model mlp --dataset mnist [--out trace.json]
//!                                  # chrome://tracing timeline of one run
//! psml profile --model mlp [--json profile.json]
//!                                  # measured-cost profile + recalibrations
//! psml validate <file.json>        # check a psml.*.v1 JSON document
//! psml models                      # list models/datasets
//! psml server0 --listen HOST:PORT --state-dir DIR [--run-id N]
//! psml server1 --listen HOST:PORT --state-dir DIR [--run-id N]
//! psml client  --server0 HOST:PORT --server1 HOST:PORT --state-dir DIR
//!              --model mlp --dataset synthetic [--batch N] [--batches N]
//!              [--epochs N] [--seed N] [--run-id N]
//!                                  # distributed session: one process per
//!                                  # party over supervised TCP, with
//!                                  # epoch checkpoints and crash recovery
//! ```

use parsecureml::observe::{profile_json, traced, validate_document};
use parsecureml::prelude::*;
use parsecureml::{run_client, run_server, SessionConfig, TrainPlan};
use std::net::SocketAddr;
use std::process::exit;
use std::time::Duration;

struct Args {
    cmd: String,
    model: ModelKind,
    dataset: DatasetKind,
    batch: usize,
    batches: usize,
    epochs: usize,
    seed: u32,
    secureml: bool,
    pipeline: bool,
    compression: bool,
    client_aided: bool,
    out: Option<String>,
    json_out: Option<String>,
    files: Vec<String>,
    // Serving flags.
    models: Vec<ModelKind>,
    fleet: usize,
    requests: usize,
    window_us: f64,
    max_batch: usize,
    queue: usize,
    sequential: bool,
    // Distributed-session flags.
    run_id: u64,
    listen: Option<String>,
    server0: Option<String>,
    server1: Option<String>,
    state_dir: Option<String>,
    heartbeat_ms: Option<u64>,
    liveness_ms: Option<u64>,
    deadline_ms: Option<u64>,
    max_reconnects: Option<u32>,
}

fn usage() -> ! {
    eprintln!(
        "usage: psml <train|infer|serve|bench|trace|profile|validate|models|client|server0|server1> \
         --model <cnn|mlp|rnn|linear|logistic|svm> \
         --dataset <mnist|vggface2|nist|cifar10|synthetic> [--batch N] [--batches N] \
         [--epochs N] [--seed N] [--secureml] [--no-pipeline] [--no-compression] \
         [--client-aided] [--out FILE] [--json FILE] \
         [--models a,b,..] [--fleet N] [--requests N] [--window-us N] \
         [--max-batch N] [--queue N] [--sequential] \
         [--run-id N] [--listen ADDR] [--server0 ADDR] [--server1 ADDR] \
         [--state-dir DIR] [--heartbeat-ms N] [--liveness-ms N] [--deadline-ms N] \
         [--max-reconnects N]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_else(|| usage());
    let mut args = Args {
        cmd,
        model: ModelKind::Mlp,
        dataset: DatasetKind::Mnist,
        batch: 16,
        batches: 2,
        epochs: 2,
        seed: 42,
        secureml: false,
        pipeline: true,
        compression: true,
        client_aided: false,
        out: None,
        json_out: None,
        files: Vec::new(),
        models: Vec::new(),
        fleet: 64,
        requests: 256,
        window_us: 200.0,
        max_batch: 16,
        queue: 1024,
        sequential: false,
        run_id: 1,
        listen: None,
        server0: None,
        server1: None,
        state_dir: None,
        heartbeat_ms: None,
        liveness_ms: None,
        deadline_ms: None,
        max_reconnects: None,
    };
    let next_usize = |argv: &mut dyn Iterator<Item = String>, flag: &str| {
        argv.next()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| {
                eprintln!("missing/invalid value for {flag}");
                usage()
            })
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--model" => {
                let v = argv.next().unwrap_or_else(|| usage());
                args.model = ModelKind::from_token(&v.to_ascii_lowercase()).unwrap_or_else(|| {
                    eprintln!("unknown model '{v}'");
                    usage()
                });
            }
            "--dataset" => {
                let v = argv.next().unwrap_or_else(|| usage());
                // Any case, and `cifar-10` as the paper spells it.
                let token = v.to_ascii_lowercase().replace("cifar-10", "cifar10");
                args.dataset = DatasetKind::from_token(&token).unwrap_or_else(|| {
                    eprintln!("unknown dataset '{v}'");
                    usage()
                });
            }
            "--batch" => args.batch = next_usize(&mut argv, "--batch"),
            "--batches" => args.batches = next_usize(&mut argv, "--batches"),
            "--epochs" => args.epochs = next_usize(&mut argv, "--epochs"),
            "--seed" => args.seed = next_usize(&mut argv, "--seed") as u32,
            "--secureml" => args.secureml = true,
            "--no-pipeline" => args.pipeline = false,
            "--no-compression" => args.compression = false,
            "--client-aided" => args.client_aided = true,
            "--models" => {
                let v = argv.next().unwrap_or_else(|| usage());
                args.models = v
                    .split(',')
                    .map(|m| {
                        ModelKind::from_token(&m.trim().to_ascii_lowercase()).unwrap_or_else(|| {
                            eprintln!("unknown model '{m}' in --models");
                            usage()
                        })
                    })
                    .collect();
            }
            "--fleet" => args.fleet = next_usize(&mut argv, "--fleet"),
            "--requests" => args.requests = next_usize(&mut argv, "--requests"),
            "--window-us" => args.window_us = next_usize(&mut argv, "--window-us") as f64,
            "--max-batch" => args.max_batch = next_usize(&mut argv, "--max-batch"),
            "--queue" => args.queue = next_usize(&mut argv, "--queue"),
            "--sequential" => args.sequential = true,
            "--out" => args.out = Some(argv.next().unwrap_or_else(|| usage())),
            "--json" => args.json_out = Some(argv.next().unwrap_or_else(|| usage())),
            "--run-id" => args.run_id = next_usize(&mut argv, "--run-id") as u64,
            "--listen" => args.listen = Some(argv.next().unwrap_or_else(|| usage())),
            "--server0" => args.server0 = Some(argv.next().unwrap_or_else(|| usage())),
            "--server1" => args.server1 = Some(argv.next().unwrap_or_else(|| usage())),
            "--state-dir" => args.state_dir = Some(argv.next().unwrap_or_else(|| usage())),
            "--heartbeat-ms" => {
                args.heartbeat_ms = Some(next_usize(&mut argv, "--heartbeat-ms") as u64)
            }
            "--liveness-ms" => {
                args.liveness_ms = Some(next_usize(&mut argv, "--liveness-ms") as u64)
            }
            "--deadline-ms" => {
                args.deadline_ms = Some(next_usize(&mut argv, "--deadline-ms") as u64)
            }
            "--max-reconnects" => {
                args.max_reconnects = Some(next_usize(&mut argv, "--max-reconnects") as u32)
            }
            other if !other.starts_with('-') => args.files.push(other.to_string()),
            other => {
                eprintln!("unknown flag '{other}'");
                usage();
            }
        }
    }
    args
}

/// Writes `text` to `path`, or to stdout when `path` is `None`.
fn emit(path: Option<&str>, text: &str) {
    match path {
        Some(p) => std::fs::write(p, text).unwrap_or_else(|e| {
            eprintln!("cannot write {p}: {e}");
            exit(1);
        }),
        None => println!("{text}"),
    }
}

/// Runs one traced training workload and returns the trainer + events.
fn traced_train(args: &Args, cfg: EngineConfig) -> (SecureTrainer<Fixed64>, Vec<TraceEvent>) {
    let mut trainer = trainer_of(args, cfg);
    let (result, events) = traced(|| {
        trainer.train_epochs(args.dataset, args.batch, args.batches, args.epochs, args.seed)
    });
    if let Err(e) = result {
        eprintln!("training: {e}");
        exit(1);
    }
    (trainer, events)
}

fn config_of(args: &Args) -> EngineConfig {
    let base = if args.secureml {
        EngineConfig::secureml()
    } else {
        EngineConfig::parsecureml()
    };
    base.with_pipeline(args.pipeline && !args.secureml)
        .with_compression(args.compression && !args.secureml)
        .with_client_aided_activation(args.client_aided)
}

/// The paper's `--model` on `--dataset` under `cfg`, or exit.
fn trainer_of(args: &Args, cfg: EngineConfig) -> SecureTrainer<Fixed64> {
    let spec = spec_for(args.model, args.dataset);
    SecureTrainer::new(cfg, spec, args.seed).unwrap_or_else(|e| {
        eprintln!("trainer: {e}");
        exit(1);
    })
}

fn spec_for(model: ModelKind, dataset: DatasetKind) -> ModelSpec {
    ModelSpec::for_dataset(model, dataset).unwrap_or_else(|e| {
        eprintln!("cannot build {} on {}: {e}", model.name(), dataset.spec().name);
        exit(1);
    })
}

fn parse_addr(flag: &str, value: Option<&String>) -> SocketAddr {
    let Some(v) = value else {
        eprintln!("missing {flag} ADDR");
        usage()
    };
    v.parse().unwrap_or_else(|_| {
        eprintln!("invalid address for {flag}: '{v}'");
        usage()
    })
}

/// Builds the supervision config for a session party, applying the
/// optional timing overrides.
fn session_config(args: &Args, party: NodeId) -> SessionConfig {
    let Some(dir) = args.state_dir.as_deref() else {
        eprintln!("missing --state-dir DIR");
        usage()
    };
    let mut cfg = SessionConfig::for_party(args.run_id, party, dir);
    if let Some(ms) = args.heartbeat_ms {
        cfg.supervisor.heartbeat = Duration::from_millis(ms);
    }
    if let Some(ms) = args.liveness_ms {
        cfg.supervisor.liveness = Duration::from_millis(ms);
    }
    if let Some(ms) = args.deadline_ms {
        cfg.supervisor.deadline = Duration::from_millis(ms);
    }
    if let Some(n) = args.max_reconnects {
        cfg.supervisor.max_reconnects = n;
    }
    cfg
}

fn run_session(args: &Args, party: NodeId) -> ! {
    let mut cfg = session_config(args, party);
    let outcome = if party == NodeId::Client {
        cfg.supervisor.dial = vec![
            (NodeId::Server0, parse_addr("--server0", args.server0.as_ref())),
            (NodeId::Server1, parse_addr("--server1", args.server1.as_ref())),
        ];
        let plan = TrainPlan {
            model: args.model,
            dataset: args.dataset,
            batch: args.batch,
            batches: args.batches,
            epochs: args.epochs,
            seed: args.seed,
        };
        run_client(&cfg, &plan)
    } else {
        cfg.supervisor.listen = Some(parse_addr("--listen", args.listen.as_ref()));
        run_server(&cfg)
    };
    match outcome {
        Ok(o) => {
            println!("{}", o.to_json());
            exit(0);
        }
        Err(e) => {
            eprintln!("session: {e}");
            exit(1);
        }
    }
}

/// `psml serve`: hosts the requested models and drives a simulated client
/// fleet through the micro-batching serving layer.
fn run_serve(args: &Args) {
    let kinds: Vec<ModelKind> = if args.models.is_empty() {
        vec![args.model]
    } else {
        args.models.clone()
    };
    let max_batch = if args.sequential { 1 } else { args.max_batch };
    let cfg = ServeConfig::builder()
        .engine(config_of(args))
        .batch_window_micros(args.window_us)
        .max_batch(max_batch)
        .max_queue_depth(args.queue)
        .run_id(args.run_id)
        .build()
        .unwrap_or_else(|e| {
            eprintln!("serve config: {e}");
            exit(1);
        });
    // Aggregate arrival rate targets full windows: fleet clients thinking
    // `window * fleet / max_batch` apiece yield ~max_batch arrivals per
    // window. `--sequential` keeps the *batched* run's think time so the
    // two runs see identical arrival schedules (the bit-identity
    // precondition: same admitted set).
    let think =
        SimDuration::from_micros(args.window_us) * (args.fleet as f64 / args.max_batch as f64);
    let mut host = ModelHost::<Fixed64>::new(cfg).unwrap_or_else(|e| {
        eprintln!("serve: {e}");
        exit(1);
    });
    let mut ids = Vec::with_capacity(kinds.len());
    for kind in &kinds {
        let id = host
            .load(kind.name(), spec_for(*kind, args.dataset), args.seed)
            .unwrap_or_else(|e| {
                eprintln!("load {}: {e}", kind.name());
                exit(1);
            });
        ids.push(id);
    }
    let arrivals =
        parsecureml::serve::fleet_arrivals(&ids, args.dataset, args.fleet, args.requests, think, args.seed);
    let outcome = host.run(arrivals).unwrap_or_else(|e| {
        eprintln!("serve run: {e}");
        exit(1);
    });
    let report = host.report();
    let mut responses = outcome.responses;
    responses.sort_by_key(|r| r.tag);
    println!(
        "served {} requests from {} clients over {} model(s) [{}]",
        report.completed,
        args.fleet,
        kinds.len(),
        if args.sequential { "sequential" } else { "micro-batched" },
    );
    println!(
        "  rejected         : {} overload, {} deadline",
        report.rejected_overload, report.rejected_deadline
    );
    println!(
        "  windows          : {} (mean fold {:.2}, max queue {})",
        report.windows, report.mean_window, report.max_queue_depth
    );
    println!(
        "  latency          : p50 {} / p95 {} / p99 {}",
        report.p50, report.p95, report.p99
    );
    println!(
        "  throughput       : {:.1} req/s over {}",
        report.throughput_rps, report.sim_elapsed
    );
    println!(
        "  serve digest     : {:016x}",
        parsecureml::outputs_digest(&responses)
    );
    if let Some(path) = args.json_out.as_deref() {
        emit(Some(path), &report.to_json().to_json());
        eprintln!("serve report written to {path}");
    }
}

fn print_report(r: &RunReport) {
    println!("  offline time     : {}", r.offline_time);
    println!("  online time      : {}", r.online_time);
    println!("  total time       : {}", r.total_time());
    println!("  occupancy        : {:.1}%", r.occupancy() * 100.0);
    println!("  secure muls      : {}", r.secure_muls);
    let (cpu, gpu) = r.placements;
    println!("  placements       : {cpu} CPU / {gpu} GPU");
    println!(
        "  network          : {} msgs, {} bytes ({:.1}% saved)",
        r.traffic.total_messages(),
        r.traffic.total_wire_bytes(),
        r.traffic.savings() * 100.0
    );
}

fn main() {
    let args = parse_args();
    match args.cmd.as_str() {
        "models" => {
            println!("models  : {}", ModelKind::ALL.map(ModelKind::token).join(" "));
            println!("datasets: {}", DatasetKind::ALL.map(DatasetKind::token).join(" "));
            for d in DatasetKind::ALL {
                let s = d.spec();
                println!(
                    "  {:<10} {}x{}x{}, {} classes, {} samples",
                    s.name, s.channels, s.height, s.width, s.classes, s.train_samples
                );
            }
        }
        "train" => {
            let mut trainer = trainer_of(&args, config_of(&args));
            let result = trainer
                .train_epochs(args.dataset, args.batch, args.batches, args.epochs, args.seed)
                .unwrap_or_else(|e| {
                    eprintln!("training: {e}");
                    exit(1);
                });
            println!(
                "trained {} on {} ({} x {} samples, {} epochs)",
                args.model.name(),
                args.dataset.spec().name,
                args.batches,
                args.batch,
                args.epochs
            );
            for (e, loss) in result.losses.iter().enumerate() {
                println!("  epoch {e}: mean loss {loss:.5}");
            }
            println!("  accuracy (train) : {:.1}%", result.accuracy * 100.0);
            println!(
                "  weights digest   : {:016x}",
                parsecureml::weights_digest(&trainer.reveal_weights())
            );
            print_report(&result.report);
        }
        "infer" => {
            let mut trainer = trainer_of(&args, config_of(&args));
            let result = trainer
                .evaluate(args.dataset, args.batch, args.batches, args.seed)
                .unwrap_or_else(|e| {
                    eprintln!("inference: {e}");
                    exit(1);
                });
            println!(
                "secure inference: {} on {} ({} x {} samples)",
                args.model.name(),
                args.dataset.spec().name,
                args.batches,
                args.batch
            );
            println!("  accuracy         : {:.1}%", result.accuracy * 100.0);
            print_report(&result.report);
        }
        "trace" => {
            let (_, events) = traced_train(&args, config_of(&args));
            let json = parsecureml::chrome_trace_json(&events);
            emit(args.out.as_deref(), &json);
            eprintln!(
                "traced {} events; load the JSON in chrome://tracing or Perfetto",
                events.len()
            );
        }
        "profile" => {
            let cfg = config_of(&args).with_policy(AdaptivePolicy::MeasuredCost);
            let (trainer, events) = traced_train(&args, cfg);
            let summary = Summary::from_events(&events);
            print!("{}", summary.render());
            let recals = trainer.context().recalibration_events();
            if recals.is_empty() {
                println!("recalibrations   : none (static model agreed with measurement)");
            } else {
                for r in recals {
                    println!(
                        "recalibration    : {:?} {} -> {} (measured {} vs predicted {}, after {} obs)",
                        r.shape,
                        r.from.name(),
                        r.to.name(),
                        r.measured,
                        r.predicted,
                        r.observations
                    );
                }
            }
            let report = trainer.report();
            print_report(&report);
            if let Some(path) = args.json_out.as_deref() {
                let doc = profile_json(args.model.name(), &events, &report, recals);
                emit(Some(path), &doc.to_json());
                eprintln!("profile written to {path}");
            }
        }
        "validate" => {
            let path = args.files.first().unwrap_or_else(|| {
                eprintln!("validate: missing file argument");
                usage()
            });
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                exit(1);
            });
            match validate_document(&text) {
                Ok(schema) => println!("{path}: valid {schema}"),
                Err(e) => {
                    eprintln!("{path}: invalid: {e}");
                    exit(1);
                }
            }
        }
        "bench" => {
            let run = |cfg: EngineConfig| {
                let mut t = trainer_of(&args, cfg);
                t.train_epochs(args.dataset, args.batch, args.batches, args.epochs, args.seed)
                    .map(|r| r.report)
                    .unwrap_or_else(|e| {
                        eprintln!("run: {e}");
                        exit(1);
                    })
            };
            println!("ParSecureML:");
            let fast = run(EngineConfig::parsecureml());
            print_report(&fast);
            println!("SecureML baseline:");
            let slow = run(EngineConfig::secureml());
            print_report(&slow);
            println!();
            println!("overall speedup : {:.1}x", fast.speedup_over(&slow));
            println!("online speedup  : {:.1}x", fast.online_speedup_over(&slow));
            println!("offline speedup : {:.1}x", fast.offline_speedup_over(&slow));
        }
        "serve" => run_serve(&args),
        "client" => run_session(&args, NodeId::Client),
        "server0" => run_session(&args, NodeId::Server0),
        "server1" => run_session(&args, NodeId::Server1),
        _ => usage(),
    }
}
