//! `gw-benchmark compare A B`: parent runs `A` against change runs `B`,
//! per (workload, end-to-end metric), with the verdict rules of
//! [`crate::stats::verdict`].
//!
//! Each file holds one or more runs: a `run.json`, or `runs.jsonl` (one
//! run per line, appended by every `gw-benchmark run`). Runs pair up by
//! position, so record parent and change runs alternately.

use std::path::Path;

use ghostwriter_core::Json;

use crate::metrics::END_TO_END;
use crate::stats::{median, quartiles, verdict, win_fraction, Verdict};
use crate::workloads::Workload;

fn load_runs(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    if let Ok(doc) = Json::parse(&text) {
        return Ok(vec![doc]);
    }
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

fn values(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| {
            r.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
                .ok()
        })
        .collect()
}

/// Prints the comparison table; exit code 1 if any pair is worse.
pub fn compare(parent: &Path, change: &Path) -> i32 {
    let (a, b) = match (load_runs(parent), load_runs(change)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("gw-benchmark compare: {e}");
            return 2;
        }
    };
    println!(
        "{:<14} {:<12} {:<6} {:>4} {:>12} {:>25} {:>12} {:>25} {:>6}  verdict",
        "workload",
        "metric",
        "better",
        "n",
        "median A",
        "[q1, q3] A",
        "median B",
        "[q1, q3] B",
        "win B"
    );
    let mut worse = false;
    for wl in Workload::ALL {
        for def in &END_TO_END {
            let (va, vb) = (
                values(&a, wl.name(), def.name),
                values(&b, wl.name(), def.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(&va, &vb, def.better, def.bound);
            worse |= v == Verdict::Worse;
            let [qa1, _, qa3] = quartiles(&va);
            let [qb1, _, qb3] = quartiles(&vb);
            println!(
                "{:<14} {:<12} {:<6} {:>4} {:>12.6} [{:>10.6}, {:>10.6}] {:>12.6} [{:>10.6}, {:>10.6}] {:>5.0}%  {}",
                wl.name(),
                def.name,
                def.better.label(),
                va.len().min(vb.len()),
                median(&va),
                qa1,
                qa3,
                median(&vb),
                qb1,
                qb3,
                100.0 * win_fraction(&va, &vb, def.better),
                v.label()
            );
        }
    }
    i32::from(worse)
}
