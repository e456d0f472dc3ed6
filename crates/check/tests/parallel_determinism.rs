//! Determinism of the parallel, cached sweep.
//!
//! The contract under test: a sweep report is a pure function of its
//! [`SweepSpec`]. Each cell is one single-threaded search, and
//! `run_sweeps` runs `jobs` cells at once, so worker count, scheduling
//! and cache state (cold vs warm) must be unobservable — `--jobs 1` and
//! `--jobs 8` produce byte-identical [`SweepOutcome`]s in spec order,
//! and a warm re-run reproduces the cold run's bytes without searching.
//! This mirrors the golden-stats determinism suite in `crates/exp`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use ghostwriter_check::{
    run_sweep, run_sweeps, Mutation, ProtocolKind, ShardOptions, SweepLog, SweepOutcome, SweepSpec,
};

fn no_cache(jobs: usize) -> ShardOptions {
    ShardOptions {
        jobs,
        use_cache: false,
        ..Default::default()
    }
}

/// A unique throwaway cache directory per test invocation.
fn temp_cache_dir(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gwcheck-test-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every protocol at 2c/1b ops=2.
fn every_protocol() -> Vec<SweepSpec> {
    ProtocolKind::ALL
        .iter()
        .map(|&kind| SweepSpec::new(kind, 2, 1, 2))
        .collect()
}

/// MESI 2c/1b ops=2 with each network-layer mutation.
fn mutated() -> Vec<SweepSpec> {
    [Mutation::SkipInvalidation, Mutation::DropInvAck]
        .into_iter()
        .map(|mutation| SweepSpec {
            mutation: Some(mutation),
            ..SweepSpec::new(ProtocolKind::Mesi, 2, 1, 2)
        })
        .collect()
}

/// The batch's reports, one pretty JSON document per cell.
fn reports(outcomes: &[(SweepOutcome, SweepLog)]) -> Vec<String> {
    outcomes
        .iter()
        .map(|(o, _)| o.to_json().to_pretty())
        .collect()
}

/// Runs `specs` at `--jobs 1` and `--jobs 8`, asserts the reports are
/// byte-identical and in spec order, and returns the sequential run.
fn assert_jobs_invariant(specs: &[SweepSpec]) -> Vec<(SweepOutcome, SweepLog)> {
    let seq = run_sweeps(specs, &no_cache(1));
    let par = run_sweeps(specs, &no_cache(8));
    assert_eq!(seq.len(), specs.len());
    for ((outcome, _), spec) in seq.iter().zip(specs) {
        assert_eq!(&outcome.spec, spec, "outcomes come back in spec order");
        assert!(!outcome.truncated, "{}", spec.label());
    }
    // Byte-level identity, not just equal fingerprints.
    assert_eq!(reports(&seq), reports(&par));
    for ((a, _), (b, _)) in seq.iter().zip(&par) {
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
    seq
}

#[test]
fn clean_sweep_is_jobs_invariant() {
    for (outcome, _) in assert_jobs_invariant(&every_protocol()) {
        assert!(outcome.counterexample.is_none(), "{}", outcome.spec.label());
    }
}

#[test]
fn ghostwriter_sweep_with_timeouts_is_jobs_invariant() {
    let spec = SweepSpec {
        gi_timeouts: true,
        ..SweepSpec::new(ProtocolKind::Ghostwriter, 2, 1, 2)
    };
    let seq = assert_jobs_invariant(&[spec.clone(), spec]);
    assert!(seq[0].0.counterexample.is_none());
}

#[test]
fn mutated_sweep_counterexample_is_jobs_invariant() {
    // The failing case is the interesting one: the counterexample (raw
    // trace, shrunk trace, failure text) must come out identical no
    // matter how the cells were scheduled.
    for (outcome, _) in assert_jobs_invariant(&mutated()) {
        assert!(outcome.counterexample.is_some(), "{}", outcome.spec.label());
    }
}

#[test]
fn a_batch_cell_equals_the_cell_run_alone() {
    let specs: Vec<SweepSpec> = every_protocol().into_iter().chain(mutated()).collect();
    let batch = run_sweeps(&specs, &no_cache(4));
    for ((outcome, _), spec) in batch.iter().zip(&specs) {
        let (alone, _) = run_sweep(spec, &no_cache(1));
        assert_eq!(
            outcome.to_json().to_pretty(),
            alone.to_json().to_pretty(),
            "{}",
            spec.label()
        );
    }
}

/// Runs `specs` cold and then warm through one fresh cache directory,
/// asserting the warm run searches nothing and reproduces the cold
/// reports byte for byte; returns the warm run.
fn assert_warm_equals_cold(tag: &str, specs: &[SweepSpec]) -> Vec<(SweepOutcome, SweepLog)> {
    let dir = temp_cache_dir(tag);
    let opts = |jobs| ShardOptions {
        jobs,
        cache_dir: dir.clone(),
        ..Default::default()
    };
    let cold = run_sweeps(specs, &opts(2));
    assert!(
        cold.iter().all(|(_, log)| !log.cached),
        "cold run must search"
    );
    let warm = run_sweeps(specs, &opts(8));
    assert!(
        warm.iter().all(|(_, log)| log.cached),
        "warm run must be all cache hits"
    );
    assert_eq!(reports(&cold), reports(&warm));
    let _ = std::fs::remove_dir_all(&dir);
    warm
}

#[test]
fn warm_cache_reproduces_cold_run_without_searching() {
    assert_warm_equals_cold("warm", &every_protocol());
}

#[test]
fn warm_cache_reproduces_mutated_counterexample_byte_identically() {
    // Failures are not serialized into the records — replay rebuilds
    // them — so cold and warm runs share one code path and must agree
    // on every byte of the counterexample.
    let warm = assert_warm_equals_cold("warm-mut", &mutated());
    assert!(warm.iter().all(|(o, _)| o.counterexample.is_some()));
}

#[test]
fn corrupt_cache_entry_is_a_miss_not_a_wrong_answer() {
    let dir = temp_cache_dir("corrupt");
    let spec = SweepSpec::new(ProtocolKind::Mesi, 2, 1, 1);
    let opts = ShardOptions {
        jobs: 1,
        cache_dir: dir.clone(),
        ..Default::default()
    };
    let (cold, _) = run_sweep(&spec, &opts);

    // Truncate the cached record mid-payload.
    let mut clobbered = 0;
    for entry in std::fs::read_dir(&dir).expect("cache dir exists") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, &text[..text.len() / 2]).unwrap();
            clobbered += 1;
        }
    }
    assert_eq!(clobbered, 1, "one record per sweep");

    let (rerun, log) = run_sweep(&spec, &opts);
    assert!(log.corrupt && !log.cached, "the clobbered record re-ran");
    assert_eq!(cold.to_json().to_pretty(), rerun.to_json().to_pretty());
    let (warm, log) = run_sweep(&spec, &opts);
    assert!(log.cached, "the re-run stored a good record again");
    assert_eq!(cold.to_json().to_pretty(), warm.to_json().to_pretty());
    let _ = std::fs::remove_dir_all(&dir);
}
