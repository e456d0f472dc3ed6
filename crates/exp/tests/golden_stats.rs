//! Golden-stats determinism suite.
//!
//! Three guarantees, checked at smoke scale so the suite stays in CI
//! budget:
//!
//! 1. **Jobs-invariance** — for every registered experiment, the
//!    whole-sweep record fingerprint at `--jobs 1` equals the one at
//!    `--jobs 8`. The engine reassembles pool results in spec order, so
//!    scheduling must never leak into results.
//! 2. **Warm equals cold** — every experiment's rendered report (what
//!    lands in `results/`) is byte-identical whether its records come
//!    straight from the simulator or back out of the result cache, so a
//!    renderer can never read a field the cached record drops.
//! 3. **Golden snapshots** — for the cheap fig01/fig02/fig04 grids, the
//!    canonical record JSON matches a committed snapshot byte for byte.
//!    A legitimate simulator change regenerates them with
//!    `UPDATE_GOLDEN=1 cargo test -p ghostwriter-exp --test golden_stats`.

use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

use ghostwriter_exp::record::records_fingerprint;
use ghostwriter_exp::{all_experiments, Engine, ResultCache, RunRecord, Scale};

/// Runs one spec without any cache (every cell simulates).
fn run_uncached(runs: &[ghostwriter_exp::RunSpec], jobs: usize) -> Vec<RunRecord> {
    let mut engine = Engine::new(jobs);
    engine.use_cache = false;
    engine.run(runs).0
}

/// The whole smoke matrix simulated once, cold, at `jobs` (1 or 8):
/// each registered experiment's records, in registry order. The tests
/// below share these two passes instead of simulating again.
fn smoke_records(jobs: usize) -> &'static [Vec<RunRecord>] {
    static SEQ: OnceLock<Vec<Vec<RunRecord>>> = OnceLock::new();
    static PAR: OnceLock<Vec<Vec<RunRecord>>> = OnceLock::new();
    let pass = match jobs {
        1 => &SEQ,
        8 => &PAR,
        _ => unreachable!("the suite runs at --jobs 1 and 8"),
    };
    pass.get_or_init(|| {
        let specs: Vec<_> = all_experiments()
            .iter()
            .map(|e| e.spec(Scale::Smoke))
            .collect();
        let runs: Vec<_> = specs.iter().flat_map(|s| s.runs.clone()).collect();
        let mut records = run_uncached(&runs, jobs).into_iter();
        specs
            .iter()
            .map(|s| records.by_ref().take(s.runs.len()).collect())
            .collect()
    })
}

#[test]
fn every_experiment_is_jobs_invariant() {
    for (i, exp) in all_experiments().iter().enumerate() {
        assert_eq!(
            records_fingerprint(&smoke_records(1)[i]),
            records_fingerprint(&smoke_records(8)[i]),
            "{}: records must not depend on --jobs",
            exp.name
        );
    }
}

#[test]
fn rendered_reports_are_jobs_invariant() {
    // One level up from record identity: every formatted report must be
    // byte-identical across jobs, and across a round trip of its records
    // through the result cache (a warm run renders what the cold run
    // did).
    let cache = ResultCache::new(PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("gw-golden-warm"));
    let _ = fs::remove_dir_all(cache.dir());
    for (i, exp) in all_experiments().iter().enumerate() {
        let spec = exp.spec(Scale::Smoke);
        let cold = &smoke_records(1)[i];
        let report = exp.render(&spec, cold);
        assert_eq!(
            report,
            exp.render(&spec, &smoke_records(8)[i]),
            "{}: rendered report must not depend on --jobs",
            exp.name
        );
        let warm: Vec<RunRecord> = spec
            .runs
            .iter()
            .zip(cold)
            .map(|(run, record)| {
                let fp = run.fingerprint();
                cache.store(fp, &run.cache_key(), record).unwrap();
                cache.load(fp).unwrap()
            })
            .collect();
        assert_eq!(
            report,
            exp.render(&spec, &warm),
            "{}: the report rendered from cached records differs from the cold one",
            exp.name
        );
    }
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The cheap experiments whose full smoke-scale record sets are
/// committed as golden JSON.
const GOLDEN_EXPERIMENTS: [&str; 4] = ["fig01", "fig02", "fig04", "protocol_ladder"];

fn golden_payload(records: &[RunRecord], ids: &[String]) -> String {
    // One concatenated document: stable id header + canonical record
    // text per cell. Any counter drift shows up as a readable diff.
    let mut out = String::new();
    for (id, rec) in ids.iter().zip(records) {
        out.push_str(&format!("// run: {id}\n"));
        out.push_str(&rec.canonical_text());
    }
    out
}

#[test]
fn golden_snapshots_match() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    for name in GOLDEN_EXPERIMENTS {
        let i = all_experiments()
            .iter()
            .position(|e| e.name == name)
            .unwrap();
        let spec = all_experiments()[i].spec(Scale::Smoke);
        let ids: Vec<String> = spec.runs.iter().map(|r| r.id.clone()).collect();
        let payload = golden_payload(&smoke_records(1)[i], &ids);
        let path = golden_dir().join(format!("{name}.smoke.json"));
        if update {
            fs::create_dir_all(golden_dir()).unwrap();
            fs::write(&path, &payload).unwrap();
            continue;
        }
        let want = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{name}: missing golden snapshot {} ({e}); regenerate with \
                 UPDATE_GOLDEN=1 cargo test -p ghostwriter-exp --test golden_stats",
                path.display()
            )
        });
        assert_eq!(
            payload, want,
            "{name}: records diverged from the committed golden snapshot; if the \
             simulator change is intentional, regenerate with UPDATE_GOLDEN=1"
        );
    }
}
