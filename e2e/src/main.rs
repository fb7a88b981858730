//! `e2e`: the repository's end-to-end benchmark. Two clocks (host wall
//! time, simulated V100-node time), four workloads, ten end-to-end metrics,
//! and per-layer attribution by replay. See README.md in this directory.
//!
//! ```text
//! e2e --workload W --seed N --seconds S --trace 0|1   one trial (the driver's command)
//! e2e run [--seed N] [--smoke] [--out FILE]            all workloads, 3 trials + 1 traced each
//! e2e check FILE                                        validate a result against BENCHMARK.json
//! e2e compare A.json B.json                             non-zero exit if B regressed past a bound
//! ```

mod metrics;
mod profile;
mod replay;
mod report;
mod spans;
mod stats;
mod trial;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const DEFAULT_SEED: u32 = 2020;
const USAGE: &str = "usage: e2e run [--seed N] [--smoke] [--out FILE] | check FILE | compare A B | --workload W --seed N --seconds S --trace 0|1";

/// `--flag value` pairs and bare words of a command line.
struct Args {
    words: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Args {
        let mut args = Args {
            words: Vec::new(),
            flags: Vec::new(),
        };
        let mut argv = argv.peekable();
        while let Some(a) = argv.next() {
            match a.strip_prefix("--") {
                Some("smoke") => args.flags.push(("smoke".into(), None)),
                Some(flag) => args.flags.push((flag.to_string(), argv.next())),
                None => args.words.push(a),
            }
        }
        args
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f.0 == flag)
    }

    /// The value of `--flag`, if the flag was given.
    fn opt<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.flags.iter().find(|f| f.0 == flag) {
            None => Ok(None),
            Some((_, Some(v))) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{flag}: cannot read '{v}'")),
            Some((_, None)) => Err(format!("--{flag} needs a value")),
        }
    }

    fn value<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        Ok(self.opt(flag)?.unwrap_or(default))
    }
}

fn real_main() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1));
    let seed = args.value("seed", DEFAULT_SEED)?;
    let word = |i: usize| args.words.get(i).map(String::as_str);
    match word(0) {
        None => {
            let declared = report::Declared::load()?;
            let t = trial::TrialArgs {
                workload: args.opt("workload")?.ok_or(USAGE)?,
                seed,
                seconds: args.value("seconds", 0.0)?,
                trace: args.value("trace", 0u8)? != 0,
                smoke: args.has("smoke"),
            };
            let detail: Option<PathBuf> = args.opt("detail")?;
            let names = if t.trace {
                &declared.per_layer
            } else {
                &declared.end_to_end
            };
            trial::main(&t, names, detail.as_deref())
        }
        Some("run") => report::run(seed, args.has("smoke"), args.opt("out")?),
        Some("check") => {
            let path = word(1).ok_or("usage: e2e check FILE")?;
            let problems = report::check(
                &report::load_document(Path::new(path))?,
                &report::Declared::load()?,
            );
            for p in &problems {
                println!("{p}");
            }
            if problems.is_empty() {
                println!("{path}: ok");
                Ok(())
            } else {
                Err(format!("{path}: {} problems", problems.len()))
            }
        }
        Some("compare") => {
            let (a, b) = (
                word(1).ok_or("usage: e2e compare A.json B.json")?,
                word(2).ok_or("usage: e2e compare A.json B.json")?,
            );
            let regressed = report::compare(
                &report::load_document(Path::new(a))?,
                &report::load_document(Path::new(b))?,
            );
            if regressed == 0 {
                Ok(())
            } else {
                Err(format!("{regressed} end-to-end metrics regressed beyond their bounds (B against base A)"))
            }
        }
        Some(_) => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
