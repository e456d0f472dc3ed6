//! `gwcheck` — bounded exhaustive model checking of the coherence
//! protocol from the command line.
//!
//! Each sweep cell (one protocol) is one exact depth-first search over
//! one visited set ([`ghostwriter_check::shard`]), cached whole and
//! content-addressed under `results/cache/check/`; `--jobs` cells run
//! at once. The printed report (and its fingerprint) is byte-identical
//! for any `--jobs` value and for cold vs warm caches. Exits 1 with a
//! shrunk, replayable counterexample if anything is violated, and 1 with
//! a `TRUNCATED` verdict if a bound cut a search short.
//!
//! ```text
//! gwcheck --cores 2 --blocks 1 --ops 2 --protocol mesi
//! gwcheck --cores 3 --blocks 2 --ops 1 --jobs 8    # the deep sweep
//! gwcheck --protocol gw --gi-timeouts
//! gwcheck --protocol mesi --mutation skip-inv      # prove it catches bugs
//! gwcheck --protocol gw --gi-timeouts \
//!         --mutation delete-row:gi_timeout         # table-row deletion
//! gwcheck --require-coverage                       # CI coverage gate
//! gwcheck --jobs 8 --expect-cached                 # CI warm fast path
//! gwcheck --protocol mesi --replay i0:0s,d0>2,...  # replay a printed trace
//! ```

use std::io::Write;

use ghostwriter_check::trace::encode_action;
use ghostwriter_check::{
    decode_trace, run_sweeps, shard::Space, Mutation, ProtocolKind, ShardOptions, SweepSpec,
};
use ghostwriter_core::{Coverage, Json, Reach};

const USAGE: &str = "\
gwcheck — bounded exhaustive model checker for the Ghostwriter protocol

USAGE:
    gwcheck [OPTIONS]

SWEEP OPTIONS:
    --cores <N>          cores / L1s / directory banks   [default: 2]
    --blocks <N>         blocks in the address pool (<= 64) [default: 1]
    --ops <N>            program steps per core          [default: 2]
    --protocol <P>       mesi | msi | moesi | mosi | mesif | gw |
                         gw-moesi (repeatable; when omitted, every
                         protocol is swept)
    --gi-timeouts        interleave GI-timeout sweeps (gw only)
    --tight-l1           single-way L1: force evictions/recalls into
                         the explored space
    --mutation <M>       seed a bug: skip-inv | drop-inv-ack |
                         delete-row:<row> (delete a transition-table row
                         by its name from docs/protocol-table.md, e.g.
                         delete-row:gi_timeout)
    --fault-budget <K>   bounded-fault mode: enable the recovery rows
                         and add up to K message faults (drop/duplicate/
                         corrupt on the unreliable virtual channel) as
                         explicit schedule actions, proving every
                         <= K-fault interleaving still completes
                         [default: 0 — faults off]
    --require-coverage   after sweeping, also run the supplementary
                         gw ops=2 +gi-timeouts sweep, then exit 1 if any
                         checker-reachable table row went unexercised

PARALLELISM / CACHING:
    --jobs <N>           sweep cells (protocols) searched at once, one
                         thread each [default: available cores]; reports
                         are byte-identical for every value
    --no-cache           bypass the sweep cache (no lookups, no stores)
    --expect-cached      exit 3 if any cell actually searched (CI
                         warm-pass check)
    --report <FILE>      write the merged reports as canonical JSON

REPLAY:
    --replay <TRACE>     replay a comma-joined action trace (as printed
                         under `replay:` in a failure report) against
                         the single configured sweep cell; exits 1 if
                         the failure reproduces, 0 if the trace is clean,
                         2 if an action is not enabled where it stands

    -h, --help           print this help

Each cell prints a PASS, FAIL or TRUNCATED verdict (TRUNCATED: a depth
or state bound cut the search short, so nothing is proven; exit 1).
Every sweep ends with a transition-coverage summary and a report
fingerprint; `--jobs 1` and `--jobs N` print identical fingerprints.
";

struct Args {
    cores: usize,
    blocks: usize,
    ops: usize,
    protocols: Vec<ProtocolKind>,
    gi_timeouts: bool,
    tight_l1: bool,
    mutation: Option<Mutation>,
    fault_budget: usize,
    require_coverage: bool,
    jobs: usize,
    use_cache: bool,
    expect_cached: bool,
    report: Option<String>,
    replay: Option<String>,
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cores: 2,
        blocks: 1,
        ops: 2,
        protocols: Vec::new(),
        gi_timeouts: false,
        tight_l1: false,
        mutation: None,
        fault_budget: 0,
        require_coverage: false,
        jobs: default_jobs(),
        use_cache: true,
        expect_cached: false,
        report: None,
        replay: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--cores" => {
                args.cores = value("--cores")?
                    .parse()
                    .map_err(|e| format!("--cores: {e}"))?
            }
            "--blocks" => {
                args.blocks = value("--blocks")?
                    .parse()
                    .map_err(|e| format!("--blocks: {e}"))?
            }
            "--ops" => args.ops = value("--ops")?.parse().map_err(|e| format!("--ops: {e}"))?,
            "--protocol" => {
                let p = value("--protocol")?;
                args.protocols.push(
                    ProtocolKind::parse(&p).ok_or_else(|| format!("unknown protocol {p:?}"))?,
                );
            }
            "--gi-timeouts" => args.gi_timeouts = true,
            "--tight-l1" => args.tight_l1 = true,
            "--require-coverage" => args.require_coverage = true,
            "--mutation" => {
                let m = value("--mutation")?;
                args.mutation =
                    Some(Mutation::parse(&m).ok_or_else(|| format!("unknown mutation {m:?}"))?);
            }
            "--fault-budget" => {
                args.fault_budget = value("--fault-budget")?
                    .parse()
                    .map_err(|e| format!("--fault-budget: {e}"))?;
                if args.fault_budget > 15 {
                    return Err("--fault-budget must be <= 15".into());
                }
            }
            "--jobs" => {
                args.jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
                if args.jobs == 0 {
                    return Err("--jobs must be >= 1".into());
                }
            }
            "--no-cache" => args.use_cache = false,
            "--expect-cached" => args.expect_cached = true,
            "--report" => args.report = Some(value("--report")?),
            "--replay" => args.replay = Some(value("--replay")?),
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    if args.protocols.is_empty() {
        args.protocols = ProtocolKind::ALL.to_vec();
    }
    if args.cores < 1 || args.blocks < 1 || args.ops < 1 {
        return Err("--cores, --blocks and --ops must be >= 1".into());
    }
    // The checker's state key packs each core's remaining issue budget
    // into one nibble, plus one more for the fault budget.
    if args.cores > 16 {
        return Err("--cores must be <= 16".into());
    }
    if args.ops > 15 {
        return Err("--ops must be <= 15".into());
    }
    if args.fault_budget > 0 && args.cores > 15 {
        return Err("--fault-budget needs --cores <= 15".into());
    }
    // The L2 holds the whole pool in one set, and a cache has at most
    // 64 ways.
    if args.blocks > 64 {
        return Err("--blocks must be <= 64".into());
    }
    Ok(args)
}

fn spec_for(args: &Args, kind: ProtocolKind, ops: usize, gi: bool) -> SweepSpec {
    SweepSpec {
        gi_timeouts: gi,
        mutation: args.mutation,
        tight_l1: args.tight_l1,
        fault_budget: args.fault_budget,
        ..SweepSpec::new(kind, args.cores, args.blocks, ops)
    }
}

/// `gwcheck --replay`: decode and replay one trace against the single
/// configured cell. Exit 1 = failure reproduced, 0 = clean trace,
/// 2 = the trace cannot run (an action is not enabled at its position).
fn run_replay(args: &Args, text: &str) -> i32 {
    if args.protocols.len() != 1 {
        eprintln!("gwcheck: --replay needs exactly one --protocol");
        return 2;
    }
    let Some(trace) = decode_trace(text) else {
        eprintln!("gwcheck: malformed --replay trace {text:?}");
        return 2;
    };
    let spec = spec_for(
        args,
        args.protocols[0],
        args.ops,
        args.gi_timeouts
            && matches!(
                args.protocols[0],
                ProtocolKind::Ghostwriter | ProtocolKind::GhostwriterMoesi
            ),
    );
    let space = Space::new(&spec);
    match space.replay_strict(&trace) {
        Ok(Some(failure)) => {
            println!("REPRODUCED  {}: {failure}", spec.label());
            1
        }
        Ok(None) => {
            println!("CLEAN  {}: trace does not fail", spec.label());
            0
        }
        Err(i) => {
            eprintln!(
                "gwcheck: --replay action {i} ({}) is not enabled at that point in {}",
                encode_action(trace[i]),
                spec.label()
            );
            2
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gwcheck: {e}");
            std::process::exit(2);
        }
    };
    if let Some(trace) = &args.replay {
        std::process::exit(run_replay(&args, trace));
    }

    let opts = ShardOptions {
        jobs: args.jobs,
        use_cache: args.use_cache,
        progress: true,
        ..Default::default()
    };

    // One (protocol, ops, gi-timeouts) sweep cell per requested protocol;
    // --require-coverage appends the supplementary gw ops=2 sweep with
    // timeout interleavings, since the GI-timeout row only fires in
    // schedules that form a GI line (two ops on the victim core) and
    // then fire the sweep.
    let mut cells: Vec<(ProtocolKind, usize, bool)> = args
        .protocols
        .iter()
        .map(|&kind| {
            let gi = args.gi_timeouts
                && matches!(
                    kind,
                    ProtocolKind::Ghostwriter | ProtocolKind::GhostwriterMoesi
                );
            (kind, args.ops, gi)
        })
        .collect();
    if args.require_coverage && !cells.contains(&(ProtocolKind::Ghostwriter, 2, true)) {
        cells.push((ProtocolKind::Ghostwriter, 2, true));
    }
    let specs: Vec<SweepSpec> = cells
        .into_iter()
        .map(|(kind, ops, gi)| spec_for(&args, kind, ops, gi))
        .collect();

    let mut failed = false;
    let mut searched = 0usize;
    let mut coverage = Coverage::default();
    let mut report_docs: Vec<Json> = Vec::new();
    for (outcome, log) in run_sweeps(&specs, &opts) {
        searched += !log.cached as usize;
        coverage.merge(&outcome.coverage);
        println!("{}", outcome.verdict(&log));
        failed |= outcome.truncated || outcome.counterexample.is_some();
        if let Some(shrunk) = &outcome.counterexample {
            println!("  shrunk counterexample ({} steps):", shrunk.trace.len());
            print!("{}", shrunk.describe(&outcome.spec));
        }
        println!("fingerprint: {}", outcome.fingerprint().hex());
        report_docs.push(outcome.to_json());
    }
    let (l1_hit, l1_total) = coverage.l1_reached();
    let (dir_hit, dir_total) = coverage.dir_reached();
    println!(
        "coverage: L1 {l1_hit}/{l1_total} rows, directory {dir_hit}/{dir_total} rows \
         (excluding defensive rows; see docs/protocol-table.md)"
    );
    let uncovered = coverage.unreached(Reach::Check);
    if !uncovered.is_empty() {
        println!("  checker-reachable rows not exercised: {uncovered:?}");
        if args.require_coverage {
            println!("FAIL  --require-coverage: the sweep must reach every checker-reachable row");
            failed = true;
        }
    } else if args.require_coverage {
        println!("PASS  --require-coverage: every checker-reachable row exercised");
    }
    if let Some(path) = &args.report {
        let doc = Json::Arr(report_docs);
        let write =
            std::fs::File::create(path).and_then(|mut f| f.write_all(doc.to_pretty().as_bytes()));
        if let Err(e) = write {
            eprintln!("gwcheck: cannot write {path}: {e}");
            failed = true;
        }
    }
    if args.expect_cached && searched > 0 {
        eprintln!("gwcheck: --expect-cached but {searched} sweep cell(s) searched");
        std::process::exit(3);
    }
    std::process::exit(if failed { 1 } else { 0 });
}
