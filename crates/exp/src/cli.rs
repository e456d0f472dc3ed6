//! The `gwbench` command line.
//!
//! ```text
//! gwbench list
//! gwbench run <experiment>... [options]
//! gwbench repro-all [options]
//! gwbench faults [options]
//! gwbench profile [--smoke] [--out FILE] [--overhead-check] [--phases [FILE]] [--quiet]
//! gwbench clean
//!
//! options:
//!   --jobs N          worker threads (default: available parallelism)
//!   --no-cache        bypass the result cache (no lookups, no stores)
//!   --smoke           small inputs / 4-core machine, reports under
//!                     results/smoke/
//!   --expect-cached   exit 3 if any cell simulated (CI warm-pass check)
//!   --quiet           do not print reports to stdout (files only)
//! ```
//!
//! `profile` runs representative kernels with the engine's cycle-
//! attribution profiler on (see [`crate::profile`]), prints each
//! kernel's ranked per-phase table, and writes the JSON artifact; it
//! exits 4 if any kernel's per-phase cycles fail to reconcile with its
//! simulated cycle count; with `--overhead-check`, if profiling
//! perturbs the simulation's stats; and with `--phases`, if any phase's
//! cycle share exceeds its bound in the committed snapshot
//! (`PROFILE_phases.json`; regen with `UPDATE_GOLDEN=1`).
//!
//! `faults` runs the resilience campaign (see [`crate::resilience`]):
//! the fault-rate × protocol × workload grid under seeded fault
//! injection, rendered as resilience curves in `RESILIENCE.txt`. It
//! shares the engine's cache, dedup and `--jobs`-invariance with `run`;
//! fault cells are addressed by their own keys (the fault configuration
//! is part of the identity), so campaigns never collide with — or
//! invalidate — fault-free results.
//!
//! `run` concatenates the selected experiments' run matrices into ONE
//! sweep, so the engine's fingerprint dedup works across experiments:
//! `gwbench repro-all` simulates each distinct cell exactly once even
//! though Figs. 7-11 and `repro_all` all declare the same grid. Each
//! report is written to `results/<name>.txt` (or `results/smoke/` with
//! `--smoke`), the evaluation CSV to `eval.csv` alongside, and the
//! structured sweep log to `results/cache/last_sweep.json`.

use std::path::PathBuf;

use crate::engine::Engine;
use crate::experiments::{all_experiments, eval_csv, find_experiment, Experiment};
use crate::spec::Scale;

/// Parsed command line.
struct Options {
    jobs: usize,
    use_cache: bool,
    scale: Scale,
    expect_cached: bool,
    quiet: bool,
    names: Vec<String>,
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn usage() -> String {
    let mut s = String::from(
        "usage: gwbench <list|run <experiment>...|repro-all|faults|clean>\n\
         \x20      [--jobs N] [--no-cache] [--smoke] [--expect-cached] [--quiet]\n\
         \x20      gwbench profile [--smoke] [--out FILE] [--overhead-check] [--phases [FILE]] [--quiet]\n",
    );
    s.push_str("\nexperiments:\n");
    for e in all_experiments() {
        s.push_str(&format!("  {:<22} {}\n", e.name, e.title));
    }
    s
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        jobs: default_jobs(),
        use_cache: true,
        scale: Scale::Eval,
        expect_cached: false,
        quiet: false,
        names: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                opts.jobs = v.parse().map_err(|_| format!("bad --jobs value `{v}`"))?;
                if opts.jobs == 0 {
                    return Err("--jobs must be >= 1".into());
                }
            }
            "--no-cache" => opts.use_cache = false,
            "--smoke" => opts.scale = Scale::Smoke,
            "--expect-cached" => opts.expect_cached = true,
            "--quiet" => opts.quiet = true,
            name if !name.starts_with('-') => opts.names.push(name.to_string()),
            flag => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(opts)
}

fn report_dir(scale: Scale) -> PathBuf {
    match scale {
        Scale::Eval => PathBuf::from("results"),
        Scale::Smoke => PathBuf::from("results/smoke"),
    }
}

/// Runs the selected experiments as one deduplicated sweep. Returns the
/// process exit code.
fn run_experiments(experiments: Vec<Experiment>, opts: &Options) -> i32 {
    let scale = opts.scale;
    let specs: Vec<_> = experiments.iter().map(|e| e.spec(scale)).collect();
    let all_runs: Vec<_> = specs.iter().flat_map(|s| s.runs.iter().cloned()).collect();

    let mut engine = Engine::new(opts.jobs);
    engine.use_cache = opts.use_cache;
    let (records, log) = engine.run(&all_runs);

    // Slice the flat record vector back per experiment and render.
    let out_dir = report_dir(scale);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("gwbench: cannot create {}: {e}", out_dir.display());
        return 1;
    }
    let mut offset = 0usize;
    for (exp, spec) in experiments.iter().zip(&specs) {
        let slice = &records[offset..offset + spec.runs.len()];
        offset += spec.runs.len();
        let report = exp.render(spec, slice);
        if !opts.quiet {
            print!("{report}");
            println!();
        }
        let path = out_dir.join(exp.output);
        if let Err(e) = std::fs::write(&path, &report) {
            eprintln!("gwbench: cannot write {}: {e}", path.display());
            return 1;
        }
        if exp.name == "repro_all" {
            let csv_path = out_dir.join("eval.csv");
            if let Err(e) = std::fs::write(&csv_path, eval_csv(spec, slice)) {
                eprintln!("gwbench: cannot write {}: {e}", csv_path.display());
                return 1;
            }
        }
    }

    // Persist the structured sweep log next to the cache.
    let log_path = engine.cache.dir().join("last_sweep.json");
    if let Some(parent) = log_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&log_path, log.to_json().to_pretty()) {
        eprintln!("gwbench: cannot write {}: {e}", log_path.display());
    }

    eprintln!(
        "gwbench: {} spec cells -> {} distinct ({} deduped); {} cache hits, \
         {} executed ({} corrupt re-runs, {} older-format re-runs); {} sim cycles; {} ms",
        all_runs.len(),
        log.runs.len(),
        log.deduped,
        log.cache_hits,
        log.executed,
        log.corrupt,
        log.stale,
        log.sim_cycles,
        log.wall_ms
    );

    // Transition-coverage over the cells that actually simulated this
    // invocation (cache-loaded records carry no coverage counters, so a
    // fully-warm run prints nothing).
    let mut coverage = ghostwriter_core::Coverage::default();
    for r in &records {
        coverage.merge(&r.stats.coverage);
    }
    if !coverage.is_empty() {
        let (l1_hit, l1_total) = coverage.l1_reached();
        let (dir_hit, dir_total) = coverage.dir_reached();
        eprintln!(
            "gwbench: transition coverage (freshly executed cells): \
             L1 {l1_hit}/{l1_total} rows, directory {dir_hit}/{dir_total} rows \
             (see docs/protocol-table.md)"
        );
    }

    if opts.expect_cached && log.executed > 0 {
        eprintln!(
            "gwbench: --expect-cached but {} cell(s) simulated",
            log.executed
        );
        return 3;
    }
    0
}

/// Entry point of the `gwbench` binary. `args` excludes the program
/// name. Returns the exit code.
pub fn main_with_args(args: Vec<String>) -> i32 {
    let Some((cmd, rest)) = args.split_first() else {
        eprint!("{}", usage());
        return 2;
    };
    match cmd.as_str() {
        "list" => {
            for e in all_experiments() {
                println!("{:<22} {}", e.name, e.title);
            }
            0
        }
        "clean" => {
            let cache = crate::cache::ResultCache::new(crate::cache::ResultCache::default_dir());
            match cache.clean() {
                Ok(n) => {
                    println!("gwbench: removed {n} cache entries");
                    0
                }
                Err(e) => {
                    eprintln!("gwbench: clean failed: {e}");
                    1
                }
            }
        }
        "profile" => {
            let mut smoke = false;
            let mut quiet = false;
            let mut check_overhead = false;
            let mut out = crate::profile::DEFAULT_OUT.to_string();
            let mut phases: Option<String> = None;
            let mut it = rest.iter().peekable();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--smoke" => smoke = true,
                    "--quiet" => quiet = true,
                    "--overhead-check" => check_overhead = true,
                    "--out" => match it.next() {
                        Some(v) => out = v.clone(),
                        None => {
                            eprintln!("gwbench: --out needs a value");
                            return 2;
                        }
                    },
                    // `--phases [FILE]`: assert cycle shares against the
                    // committed snapshot (default PROFILE_phases.json);
                    // with UPDATE_GOLDEN=1 the snapshot is regenerated
                    // instead.
                    "--phases" => {
                        phases = Some(match it.peek() {
                            Some(v) if !v.starts_with('-') => it.next().unwrap().clone(),
                            _ => crate::profile::DEFAULT_PHASES.to_string(),
                        });
                    }
                    flag => {
                        eprintln!("gwbench: unknown profile flag `{flag}`\n\n{}", usage());
                        return 2;
                    }
                }
            }
            crate::profile::main_profile(smoke, &out, quiet, check_overhead, phases.as_deref())
        }
        "faults" => {
            let opts = match parse(rest) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("gwbench: {e}\n\n{}", usage());
                    return 2;
                }
            };
            if !opts.names.is_empty() {
                eprintln!("gwbench: faults takes no experiment names");
                return 2;
            }
            crate::resilience::main_faults(
                opts.jobs,
                opts.use_cache,
                opts.scale,
                opts.expect_cached,
                opts.quiet,
            )
        }
        "run" | "repro-all" => {
            let opts = match parse(rest) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("gwbench: {e}\n\n{}", usage());
                    return 2;
                }
            };
            let experiments: Vec<Experiment> = if cmd == "repro-all" {
                if !opts.names.is_empty() {
                    eprintln!("gwbench: repro-all takes no experiment names");
                    return 2;
                }
                all_experiments()
            } else {
                if opts.names.is_empty() {
                    eprintln!(
                        "gwbench: run needs at least one experiment name\n\n{}",
                        usage()
                    );
                    return 2;
                }
                let mut found = Vec::new();
                for name in &opts.names {
                    match find_experiment(name) {
                        Some(e) => found.push(e),
                        None => {
                            eprintln!("gwbench: unknown experiment `{name}`\n\n{}", usage());
                            return 2;
                        }
                    }
                }
                found
            };
            run_experiments(experiments, &opts)
        }
        other => {
            eprintln!("gwbench: unknown command `{other}`\n\n{}", usage());
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_all_flags() {
        let opts = parse(&[
            "fig01".into(),
            "--jobs".into(),
            "8".into(),
            "--no-cache".into(),
            "--smoke".into(),
            "--expect-cached".into(),
            "--quiet".into(),
        ])
        .unwrap();
        assert_eq!(opts.jobs, 8);
        assert!(!opts.use_cache);
        assert_eq!(opts.scale, Scale::Smoke);
        assert!(opts.expect_cached);
        assert!(opts.quiet);
        assert_eq!(opts.names, vec!["fig01".to_string()]);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse(&["--jobs".into()]).is_err());
        assert!(parse(&["--jobs".into(), "0".into()]).is_err());
        assert!(parse(&["--frobnicate".into()]).is_err());
    }
}
