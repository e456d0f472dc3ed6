//! `gw-benchmark`: the simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! gw-benchmark [run] [--workload NAME]... [--seed N] [--seconds S] [--smoke]
//! gw-benchmark trace [--workload NAME] [--seed N] [--smoke]
//! gw-benchmark compare PARENT CHANGE
//! gw-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `run` measures the end-to-end metrics with tracing off; `trace`
//! produces the per-layer metrics; both check every output and print, as
//! their last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is 0 only when every check
//! passed. See README.md for the workloads, metrics and layer map.

mod compare;
mod kernels;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::Path;

use workloads::{Size, Workload};

const USAGE: &str = "usage: gw-benchmark [run|trace] [--workload NAME]... [--seed N] [--seconds S] [--smoke] [--trace 0|1]
       gw-benchmark compare PARENT.json CHANGE.json
workloads: paper_eval private_hits sharing_storm check_sweep fault_grid";

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

enum Command {
    Run {
        workloads: Vec<Workload>,
        opts: run::Options,
    },
    Trace {
        focus: Option<Workload>,
        seed: u64,
        size: Size,
    },
    Compare(String, String),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let (mode, mut rest) = match args.first().map(String::as_str) {
        Some("compare") => {
            return match &args[1..] {
                [a, b] => Ok(Command::Compare(a.clone(), b.clone())),
                _ => Err("compare takes two files".into()),
            }
        }
        Some(m @ ("run" | "trace")) => (Some(m), &args[1..]),
        _ => (None, args),
    };
    let mut workloads = Vec::new();
    let (mut seed, mut seconds, mut size, mut traced) =
        (DEFAULT_SEED, run::DEFAULT_SECONDS, Size::Full, None);
    while let Some((flag, tail)) = rest.split_first() {
        if flag == "--smoke" {
            size = Size::Smoke;
            rest = tail;
            continue;
        }
        let value = tail
            .first()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        rest = &tail[1..];
        match flag.as_str() {
            "--workload" => {
                workloads.push(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && f64::is_finite(seconds)) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let trace = match (mode, traced) {
        (Some("trace"), Some(false)) | (Some("run"), Some(true)) => {
            return Err("--trace contradicts the subcommand".into())
        }
        (Some(m), _) => m == "trace",
        (None, t) => t.unwrap_or(false),
    };
    if trace {
        if workloads.len() > 1 {
            return Err("trace takes at most one --workload".into());
        }
        return Ok(Command::Trace {
            focus: workloads.first().copied(),
            seed,
            size,
        });
    }
    if workloads.is_empty() {
        workloads = Workload::ALL.to_vec();
    }
    Ok(Command::Run {
        workloads,
        opts: run::Options {
            seed,
            size,
            seconds,
        },
    })
}

/// Writes `name` under the output directory; a failure is reported but
/// does not fail the run.
pub fn write_out(name: &str, text: &str) {
    let dir = workloads::out_dir();
    let path = dir.join(name);
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("gw-benchmark: cannot write {}: {e}", path.display());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("gw-benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (correct, line) = match command {
        Command::Compare(a, b) => {
            std::process::exit(compare::compare(Path::new(&a), Path::new(&b)))
        }
        Command::Run { workloads, opts } => {
            let runs = run::measure(&workloads, &opts);
            run::report(&runs, &opts)
        }
        Command::Trace { focus, seed, size } => trace::trace(seed, size, focus),
    };
    println!("{line}");
    std::process::exit(if correct { 0 } else { 1 });
}
