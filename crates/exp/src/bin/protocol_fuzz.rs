//! Random protocol fuzzer (gem5 Ruby-random-tester style): drives the L1
//! and directory controllers through adversarial message orderings and
//! checks SWMR, directory accuracy, data-value and liveness invariants.
//! The sweep is deterministic in (seeds, accesses), so it runs through
//! the experiment engine's result cache like any other cell.
//!
//! ```text
//! protocol_fuzz [seeds] [accesses]
//! ```
//!
//! An unparsable or zero count is a usage error (a zero count would
//! print `PASS` having checked nothing): a `protocol_fuzz: <message>`
//! line and exit 2.

use ghostwriter_exp::{Engine, RunKind, RunSpec};

/// Parses the optional positional count `arg` (named `what`), or
/// exits 2 with a usage error.
fn count(arg: Option<String>, what: &str, default: usize) -> usize {
    let parsed = arg.map_or(Ok(default), |a| {
        a.parse().map_err(|e| format!("bad {what} {a:?}: {e}"))
    });
    match parsed {
        Ok(0) => usage(&format!("{what} must be positive")),
        Ok(n) => n,
        Err(msg) => usage(&msg),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("protocol_fuzz: {msg}");
    std::process::exit(2)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seeds = count(args.next(), "seed count", 200) as u64;
    let accesses = count(args.next(), "access count", 800);
    let t0 = std::time::Instant::now();
    let spec = RunSpec {
        id: "fuzz".into(),
        kind: RunKind::Fuzz { seeds, accesses },
    };
    let (records, _) = Engine::new(1).run(&[spec]);
    let msgs = records[0].extra_value("messages").unwrap_or(0.0) as u64;
    println!(
        "PASS: {seeds} seeds x {accesses} accesses, {msgs} messages, {:.1}s",
        t0.elapsed().as_secs_f64()
    );
}
