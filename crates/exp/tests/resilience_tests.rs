//! Resilience-campaign determinism and recovery-semantics suite.
//!
//! Four guarantees, at smoke scale:
//!
//! 1. **Zero-fault preservation** — a rate-0 resilience cell produces
//!    byte-identical cycles/error/stats to the plain fault-unaware run
//!    of the same cell. Threading the injector through the machine must
//!    be invisible when every class is off.
//! 2. **Jobs-invariance** — campaign records at `--jobs 1` equal the
//!    records at `--jobs 4`; the injector draws are counter-based, so
//!    scheduling never leaks into fault placement.
//! 3. **Aborts are values** — a cell that exhausts its retry budget is
//!    recorded (`completed = 0`, abort cycle, typed description), never
//!    a panic.
//! 4. **Golden snapshot** — the full smoke-scale campaign report
//!    matches `tests/golden/resilience.smoke.txt` byte for byte.
//!    Regenerate with
//!    `UPDATE_GOLDEN=1 cargo test -p ghostwriter-exp --test resilience_tests`.

use std::fs;
use std::path::PathBuf;

use ghostwriter_exp::engine::execute_spec;
use ghostwriter_exp::record::records_fingerprint;
use ghostwriter_exp::resilience::{campaign_faults, campaign_spec, render_campaign};
use ghostwriter_exp::{Engine, RunKind, RunRecord, RunSpec, Scale};

fn run_uncached(runs: &[RunSpec], jobs: usize) -> Vec<RunRecord> {
    let mut engine = Engine::new(jobs);
    engine.use_cache = false;
    engine.run(runs).0
}

/// The campaign cells for one workload (a cheap jobs-invariance probe:
/// 15 cells instead of the full 60-cell grid).
fn cells_for(spec_runs: &[RunSpec], workload: &str) -> Vec<RunSpec> {
    spec_runs
        .iter()
        .filter(|r| r.id.starts_with(&format!("faults/{workload}/")))
        .cloned()
        .collect()
}

#[test]
fn rate_zero_cells_match_fault_unaware_runs() {
    let spec = campaign_spec(Scale::Smoke);
    assert!(campaign_faults(0).is_noop());
    for cell in spec.runs.iter().filter(|r| r.id.ends_with("/r0")) {
        let RunKind::Resilience {
            workload,
            config,
            threads,
            d,
            ..
        } = &cell.kind
        else {
            panic!("{}: campaign cells must be Resilience runs", cell.id);
        };
        let plain = execute_spec(&RunSpec {
            id: format!("{}-plain", cell.id),
            kind: RunKind::Workload {
                workload: workload.clone(),
                config: config.clone(),
                threads: *threads,
                d: *d,
            },
        });
        let faulty = execute_spec(cell);
        assert_eq!(faulty.extra_value("completed"), Some(1.0), "{}", cell.id);
        assert_eq!(faulty.cycles, plain.cycles, "{}", cell.id);
        assert_eq!(faulty.error_percent, plain.error_percent, "{}", cell.id);
        assert_eq!(
            faulty.stats.to_json().to_pretty(),
            plain.stats.to_json().to_pretty(),
            "{}: a rate-0 injector must leave the stats block byte-identical",
            cell.id
        );
    }
}

#[test]
fn campaign_records_are_jobs_invariant() {
    let spec = campaign_spec(Scale::Smoke);
    let cells = cells_for(&spec.runs, "sobel");
    assert!(!cells.is_empty());
    let seq = run_uncached(&cells, 1);
    let par = run_uncached(&cells, 4);
    assert_eq!(
        records_fingerprint(&seq),
        records_fingerprint(&par),
        "fault placement must not depend on --jobs"
    );
}

#[test]
fn retry_exhaustion_is_recorded_not_fatal() {
    // The committed campaign's known abort cell: bad_dot under MESI at
    // the hostile rate loses a transaction past the retry budget.
    let spec = campaign_spec(Scale::Smoke);
    let cell = spec
        .runs
        .iter()
        .find(|r| r.id == "faults/bad_dot/mesi/r200")
        .unwrap();
    let rec = execute_spec(cell);
    assert_eq!(rec.extra_value("completed"), Some(0.0));
    assert!(rec.cycles > 0, "abort cycle must be recorded");
    assert_eq!(rec.trace.len(), 1);
    assert!(
        rec.trace[0].contains("retry_exhausted") && rec.trace[0].contains("cycle"),
        "abort description must carry the typed row error and cycle: {}",
        rec.trace[0]
    );
}

#[test]
fn degradation_split_has_both_sides() {
    // The campaign exists to chart recovered vs degraded; at the
    // hostile rate the sobel/gw cell must show both tainted fills
    // refetched (precise recovery) and absorbed (graceful degradation).
    let spec = campaign_spec(Scale::Smoke);
    let cell = spec
        .runs
        .iter()
        .find(|r| r.id == "faults/sobel/gw/r200")
        .unwrap();
    let rec = execute_spec(cell);
    assert_eq!(rec.extra_value("completed"), Some(1.0));
    assert!(rec.stats.corrupt_fills_refetched > 0);
    assert!(rec.stats.corrupt_fills_absorbed > 0);
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/resilience.smoke.txt")
}

#[test]
fn campaign_report_matches_golden_snapshot() {
    let spec = campaign_spec(Scale::Smoke);
    let records = run_uncached(&spec.runs, 4);
    let report = render_campaign(&spec, &records);
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        fs::write(&path, &report).unwrap();
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); regenerate with \
             UPDATE_GOLDEN=1 cargo test -p ghostwriter-exp --test resilience_tests",
            path.display()
        )
    });
    assert_eq!(
        report, want,
        "campaign report diverged from the committed snapshot; if the \
         simulator change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
